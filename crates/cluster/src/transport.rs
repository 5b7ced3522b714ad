//! Codec-backed shuffle transport between node stores.
//!
//! Every cross-store movement goes through [`Transport::execute`]: the
//! source block is encoded via `distme_matrix::codec`, the bytes "cross the
//! wire", and the decoded block is installed in the destination node's
//! store — unless it already holds the key, when nothing ships
//! ([`MoveOutcome::Elided`]); concurrent deliveries of one key to one node
//! ship it once (the store's per-key claim). A dense block installed this
//! way is a view of the frame it arrived in, and its next hop re-sends that
//! frame as it is stored — one copy into the receive buffer, no
//! re-serialization, no second checksum on the sending side — while the
//! receiver verifies and decodes every delivery exactly as before
//! (`codec::resident_frame`). The receive buffer is a fresh exact-size
//! allocation, except inside a resize, whose migration draws from the
//! buffers of the blocks it has just evicted ([`Transport::with_buffers`]).
//! A job's *model* bytes are the plan's per-phase totals, copied into its
//! stats by the driver (see `core::real_exec`), never counted here — so
//! fault-driven redelivery can neither double-count nor under-count the
//! model. The transport counts only *physical* traffic:
//!
//! * [`TransportStats::payload_bytes`] — the one transmission that installed
//!   each shipped block: a `(node, key)` is installed once, so this is
//!   identical between a faulted and fault-free run;
//! * [`TransportStats::elided_payload_bytes`] — blocks found resident;
//! * [`TransportStats::retransmitted_bytes`] — every transmission that
//!   installed nothing: a drop or a checksum failure.
//!
//! Recovery lives here too, in the one delivery loop of
//! [`Transport::execute`]: a dropped or corrupt delivery is first rebuilt
//! from its coded group's parity, else re-read from the producer's store
//! (lineage re-delivery — the block is still where the plan produced it)
//! up to the retry policy's attempt bound, before the typed transient
//! error ([`TaskError::LostBlock`] / [`TaskError::CorruptBlock`]) is
//! handed to the task-level retry loop. An elided move draws no fault.

use crate::chaos::FaultPlan;
use crate::config::RetryPolicy;
use crate::failure::TaskError;
use crate::stats::Phase;
use crate::store::{ClusterStores, FreeBuffers, StoreKey};
use bytes::{Bytes, BytesMut};
use distme_matrix::codec;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One executable move: ship the block under `src` on `from_node` to the
/// `dst` key on `to_node`. `wire_bytes` is the plan's model estimate —
/// reported by the driver, carried here so fault decisions and
/// diagnostics can see it.
#[derive(Debug, Clone, Copy)]
pub struct WireMove {
    /// Phase the move belongs to.
    pub phase: Phase,
    /// Source node.
    pub from_node: usize,
    /// Destination node.
    pub to_node: usize,
    /// Planned (model) bytes.
    pub wire_bytes: u64,
    /// Key to read on the source node.
    pub src: StoreKey,
    /// Key to install on the destination node.
    pub dst: StoreKey,
}

/// Physical transport counters (actual encoded bytes, not model bytes).
#[derive(Debug, Default)]
pub struct TransportStats {
    moves: AtomicU64,
    delivered: AtomicU64,
    payload_bytes: AtomicU64,
    elided: AtomicU64,
    elided_payload_bytes: AtomicU64,
    redelivered: AtomicU64,
    retransmitted_bytes: AtomicU64,
    reconstructed: AtomicU64,
    reconstruction_bytes: AtomicU64,
}

impl TransportStats {
    /// Move executions (including moves of implicitly-zero blocks, elided
    /// moves, and re-executions by retried tasks).
    pub fn moves(&self) -> u64 {
        self.moves.load(Ordering::Relaxed)
    }

    /// Moves that ended with a physical block installed.
    pub fn delivered(&self) -> u64 {
        self.delivered.load(Ordering::Relaxed)
    }

    /// Encoded payload bytes of the transmissions that installed a block —
    /// identical between a faulted run and its fault-free twin.
    pub fn payload_bytes(&self) -> u64 {
        self.payload_bytes.load(Ordering::Relaxed)
    }

    /// Moves that found the block resident at the destination.
    pub fn elided(&self) -> u64 {
        self.elided.load(Ordering::Relaxed)
    }

    /// Encoded length of the blocks elided moves did not ship.
    pub fn elided_payload_bytes(&self) -> u64 {
        self.elided_payload_bytes.load(Ordering::Relaxed)
    }

    /// Transmissions repeated after a drop, checksum failure, or re-run
    /// task attempt.
    pub fn redelivered(&self) -> u64 {
        self.redelivered.load(Ordering::Relaxed)
    }

    /// Encoded payload bytes of those repeated transmissions.
    pub fn retransmitted_bytes(&self) -> u64 {
        self.retransmitted_bytes.load(Ordering::Relaxed)
    }

    /// Deliveries recovered by a k-of-n parity decode from coded-group
    /// survivors instead of a lineage retransmission.
    pub fn reconstructed(&self) -> u64 {
        self.reconstructed.load(Ordering::Relaxed)
    }

    /// Frame bytes of those reconstructions — the retransmissions coded
    /// replication avoided.
    pub fn reconstruction_bytes(&self) -> u64 {
        self.reconstruction_bytes.load(Ordering::Relaxed)
    }
}

/// How [`Transport::execute`] resolved a move; carries the encoded length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveOutcome {
    /// The block crossed the wire.
    Shipped(u64),
    /// The destination already held the block: nothing shipped.
    Elided(u64),
    /// The source block is an implicit zero: nothing to ship.
    ImplicitZero,
}

impl MoveOutcome {
    /// What θt is charged for the move, shipped or found resident.
    pub fn encoded_len(self) -> u64 {
        match self {
            MoveOutcome::Shipped(bytes) | MoveOutcome::Elided(bytes) => bytes,
            MoveOutcome::ImplicitZero => 0,
        }
    }
}

/// Executes [`WireMove`]s against a set of node stores.
pub struct Transport<'a> {
    stores: &'a ClusterStores,
    stats: &'a TransportStats,
    /// Optional per-job counter set: with concurrent jobs sharing the
    /// cluster-wide `stats`, a job that wants *its own* physical byte
    /// accounting registers a second `TransportStats` here; every counter
    /// update lands in both.
    job_stats: Option<&'a TransportStats>,
    /// Where wire buffers come from when not freshly allocated: the free
    /// list of the resize this transport migrates for. Jobs have none.
    buffers: Option<&'a FreeBuffers>,
    faults: Option<Arc<FaultPlan>>,
    retry: RetryPolicy,
    replication: crate::coding::ReplicationPolicy,
}

impl<'a> Transport<'a> {
    /// Binds a transport to stores, physical counters, and (optionally) a
    /// fault-injection plan with the redelivery bound to recover under.
    pub fn new(
        stores: &'a ClusterStores,
        stats: &'a TransportStats,
        faults: Option<Arc<FaultPlan>>,
        retry: RetryPolicy,
    ) -> Self {
        Transport {
            stores,
            stats,
            job_stats: None,
            buffers: None,
            faults,
            retry,
            replication: crate::coding::ReplicationPolicy::Off,
        }
    }

    /// Arms coded-replication recovery: a dropped or corrupted delivery
    /// whose source is a coded copy-0 block is first rebuilt by a k-of-n
    /// parity decode from its group's survivors, falling back to lineage
    /// redelivery only when no parity covers it or the erasure budget is
    /// exceeded.
    pub fn with_replication(mut self, replication: crate::coding::ReplicationPolicy) -> Self {
        self.replication = replication;
        self
    }

    /// Mirrors every counter update into `job` as well — the per-job view
    /// a concurrent job needs, since the shared stats mix all jobs.
    pub fn with_job_counters(mut self, job: &'a TransportStats) -> Self {
        self.job_stats = Some(job);
        self
    }

    /// Draws every wire buffer from `buffers` before allocating one — the
    /// buffers of the blocks a resize has evicted, which are the size its
    /// next deliveries need.
    pub fn with_buffers(mut self, buffers: &'a FreeBuffers) -> Self {
        self.buffers = Some(buffers);
        self
    }

    fn each_stats(&self, f: impl Fn(&TransportStats)) {
        f(self.stats);
        if let Some(job) = self.job_stats {
            f(job);
        }
    }

    /// Charges one transmission: the one that installs the block (received,
    /// or lost and rebuilt from parity) lands in `payload_bytes` — a
    /// `(node, key)` is installed once whether faults strike or not — and
    /// every other is recovery traffic.
    fn charge_transmission(&self, payload: u64, installed: bool) {
        if installed {
            self.each_stats(|s| {
                s.payload_bytes.fetch_add(payload, Ordering::Relaxed);
            });
        } else {
            self.each_stats(|s| {
                s.redelivered.fetch_add(1, Ordering::Relaxed);
                s.retransmitted_bytes.fetch_add(payload, Ordering::Relaxed);
            });
        }
    }

    /// Recovery precedence step 1: rebuild the lost delivery by a parity
    /// decode over the source block's coded group, reading only survivor
    /// frames (the source is treated as erased — a success is a genuine
    /// k-of-n decode). On success the rebuilt block — bit-identical content
    /// to the original — is installed at the destination and the bytes are
    /// charged to the reconstruction counters, *not* the retransmission
    /// counters. `None` sends the caller down the lineage path.
    /// Blackout windows bound what the decode may touch: a dark
    /// *destination* cannot accept the rebuilt block at all (the caller
    /// falls through to lineage redelivery, which keeps failing until the
    /// window passes or retries exhaust), and a dark *source* is excluded
    /// from the survivor scan so the decode never reads frames the outage
    /// says are unreachable — a success is an honest k-of-n rebuild from
    /// reachable nodes only.
    fn try_reconstruct(&self, mv: &WireMove) -> Option<u64> {
        if self.replication.parity_count() == 0 {
            return None;
        }
        let mut exclude = None;
        if let Some(faults) = &self.faults {
            if faults.node_down(mv.to_node, mv.phase) {
                return None;
            }
            if faults.node_down(mv.from_node, mv.phase) {
                exclude = Some(mv.from_node);
            }
        }
        let (block, bytes) = crate::coding::reconstruct_block(self.stores, mv.src, exclude)?;
        self.each_stats(|s| {
            s.reconstructed.fetch_add(1, Ordering::Relaxed);
            s.reconstruction_bytes.fetch_add(bytes, Ordering::Relaxed);
        });
        self.install(mv, block);
        Some(bytes)
    }

    /// The receiving end of a delivery: the frame passes the codec's
    /// checksum and structure gate or nothing is installed.
    fn receive(&self, mv: &WireMove, frame: &Bytes) -> distme_matrix::Result<()> {
        self.install(mv, codec::decode_view(frame)?);
        Ok(())
    }

    /// Installs a decoded block at the move's destination.
    fn install(&self, mv: &WireMove, decoded: distme_matrix::Block) {
        self.stores
            .node(mv.to_node)
            .install(mv.dst, std::sync::Arc::new(decoded));
        self.each_stats(|s| {
            s.delivered.fetch_add(1, Ordering::Relaxed);
        });
    }

    /// Executes one move on behalf of task attempt `task_attempt`: ships
    /// the block unless it is an implicit zero or the destination already
    /// holds `mv.dst`, after waiting out any delivery of that key already
    /// under way (a failed one leaves the claim to this call).
    ///
    /// Each transmission gets a buffer of its own — freshly allocated at
    /// the exact size, or drawn from the free list of the resize this
    /// transport migrates for: the frame is written with a dense payload
    /// 8-byte aligned (serialized, or copied as it is when the source block
    /// still is a view of the frame it arrived in), the wire buffer is
    /// frozen, and `decode_view` installs a dense block that aliases the
    /// frame in place — the buffer *becomes* the installed block's storage.
    /// A sparse frame takes no pad and its CSR arrays are materialized on
    /// decode.
    ///
    /// Recovery precedence, for a delivery the fault plan drops or whose
    /// injected corruption the CRC gate catches: parity decode from the
    /// source's coded group (`try_reconstruct`), then lineage — the
    /// block is re-read from the producer's store and re-sent, up to the
    /// retry policy's attempt bound — then the typed failure.
    ///
    /// # Errors
    /// [`TaskError::LostBlock`] / [`TaskError::CorruptBlock`] when
    /// redelivery is exhausted; [`TaskError::Compute`] if cleanly-delivered
    /// bytes fail to decode (a codec bug, not a fault).
    pub fn execute(&self, mv: &WireMove, task_attempt: u32) -> Result<MoveOutcome, TaskError> {
        self.each_stats(|s| {
            s.moves.fetch_add(1, Ordering::Relaxed);
        });
        let Some(block) = self.stores.node(mv.from_node).get(&mv.src) else {
            return Ok(MoveOutcome::ImplicitZero);
        };
        let encoded = codec::encoded_len(&block);
        // Held until this call returns, however it returns.
        let Some(_claim) = self.stores.node(mv.to_node).claim(mv.dst) else {
            self.each_stats(|s| {
                s.elided.fetch_add(1, Ordering::Relaxed);
                s.elided_payload_bytes.fetch_add(encoded, Ordering::Relaxed);
            });
            return Ok(MoveOutcome::Elided(encoded));
        };
        let (node, id) = (mv.to_node, mv.dst.id);
        let faults = self.faults.as_deref();
        let deliveries = self.retry.max_attempts.max(1);
        let wire_len = encoded as usize + 7;
        for delivery in 0..deliveries {
            let mut buf = match self.buffers {
                Some(free) => free.take(wire_len),
                None => BytesMut::with_capacity(wire_len),
            };
            let pad = codec::encode_aligned(&block, &mut buf);
            let payload = (buf.len() - pad) as u64;
            let landed = if faults.is_some_and(|f| f.drop_delivery(mv, task_attempt, delivery)) {
                Err(TaskError::LostBlock { node, id })
            } else {
                // Corruption strikes the frame, never the pad — a flip
                // landing in alignment filler would be invisible to the
                // checksum.
                let injected = faults.is_some_and(|f| {
                    f.corrupt_payload(mv, task_attempt, delivery, &mut buf[pad..])
                });
                let wire = buf.freeze();
                match self.receive(mv, &wire.slice(pad..wire.len())) {
                    Ok(()) => Ok(()),
                    Err(_) if injected => Err(TaskError::CorruptBlock { node, id }),
                    Err(e) => return Err(TaskError::Compute(format!("transport: {e}"))),
                }
            };
            let landed = landed.or_else(|lost| self.try_reconstruct(mv).map(drop).ok_or(lost));
            self.charge_transmission(payload, landed.is_ok());
            match landed {
                Ok(()) => return Ok(MoveOutcome::Shipped(payload)),
                Err(failure) if delivery + 1 == deliveries => return Err(failure),
                Err(_) => {}
            }
        }
        unreachable!("delivery loop returns on its final iteration")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::FaultSpec;
    use crate::store::tests::claims_held;
    use distme_matrix::{Block, BlockId, DenseBlock};
    use std::sync::Arc;

    fn setup() -> (ClusterStores, TransportStats) {
        (ClusterStores::new(3), TransportStats::default())
    }

    fn clean<'a>(stores: &'a ClusterStores, stats: &'a TransportStats) -> Transport<'a> {
        Transport::new(stores, stats, None, RetryPolicy::no_retry())
    }

    /// The payload of a move that must have shipped.
    fn shipped(outcome: MoveOutcome) -> u64 {
        match outcome {
            MoveOutcome::Shipped(payload) => payload,
            other => panic!("expected the move to ship, got {other:?}"),
        }
    }

    /// The inputs the fault cases run over: one dense block, one sparse.
    fn dense_and_sparse() -> [Block; 2] {
        [
            Block::Dense(DenseBlock::from_fn(4, 4, |i, j| (i * j) as f64)),
            Block::Sparse(
                distme_matrix::CsrBlock::from_triplets(8, 8, vec![(0, 1, 1.0), (7, 7, -3.0)])
                    .unwrap(),
            ),
        ]
    }

    #[test]
    fn move_encodes_decodes_and_installs() {
        let (stores, stats) = setup();
        let block = Block::Dense(DenseBlock::from_fn(4, 4, |i, j| (i * 4 + j) as f64));
        let src = StoreKey::operand(1, BlockId::new(0, 0));
        let dst = StoreKey::operand(1, BlockId::new(0, 0));
        stores.node(0).install(src, Arc::new(block.clone()));
        let t = clean(&stores, &stats);
        let payload = t
            .execute(
                &WireMove {
                    phase: Phase::Repartition,
                    from_node: 0,
                    to_node: 2,
                    wire_bytes: 999,
                    src,
                    dst,
                },
                0,
            )
            .map(shipped)
            .unwrap();
        assert_eq!(payload, codec::encoded_len(&block));
        assert_eq!(&*stores.node(2).get(&dst).unwrap(), &block);
        assert_eq!(stats.payload_bytes(), payload);
        assert_eq!(stats.delivered(), 1);
        assert_eq!(stats.redelivered(), 0);
        assert_eq!(stats.retransmitted_bytes(), 0);
    }

    #[test]
    fn dense_delivery_installs_a_zero_copy_view() {
        let (stores, stats) = setup();
        let block = Block::Dense(DenseBlock::from_fn(16, 16, |i, j| (i * 16 + j) as f64));
        let key = StoreKey::operand(11, BlockId::new(0, 0));
        stores.node(0).install(key, Arc::new(block.clone()));
        let t = clean(&stores, &stats);
        let mv = WireMove {
            phase: Phase::Repartition,
            from_node: 0,
            to_node: 2,
            wire_bytes: 64,
            src: key,
            dst: key,
        };
        let payload = t.execute(&mv, 0).map(shipped).unwrap();
        assert_eq!(payload, codec::encoded_len(&block));
        let installed = stores.node(2).get(&key).unwrap();
        assert_eq!(&*installed, &block);
        match &*installed {
            Block::Dense(d) => assert!(
                d.is_shared(),
                "the installed block must alias the wire buffer, not copy it"
            ),
            Block::Sparse(_) => panic!("dense move installed sparse"),
        }
    }

    /// A dense block at `key` on node 1 that is a view of the wire frame
    /// it arrived in, and its owned twin at `key` on node 0.
    fn view_and_owned_twin(stores: &ClusterStores, key: StoreKey) -> Block {
        let block = Block::Dense(DenseBlock::from_fn(9, 7, |i, j| i as f64 - 0.25 * j as f64));
        stores.node(0).install(key, Arc::new(block.clone()));
        let first_hop = WireMove {
            phase: Phase::Repartition,
            from_node: 0,
            to_node: 1,
            wire_bytes: 0,
            src: key,
            dst: key,
        };
        let warm_up = TransportStats::default();
        clean(stores, &warm_up).execute(&first_hop, 0).unwrap();
        let view = stores.node(1).get(&key).unwrap();
        assert!(codec::resident_frame(&view).is_some());
        assert!(codec::resident_frame(&stores.node(0).get(&key).unwrap()).is_none());
        block
    }

    #[test]
    fn a_view_moves_exactly_like_its_owned_twin() {
        let (stores, _) = setup();
        let key = StoreKey::operand(3, BlockId::new(1, 2));
        let block = view_and_owned_twin(&stores, key);
        // The same block to node 2, once from the view and once from the
        // owned copy: what lands and what is counted cannot tell them apart.
        let landed = [1usize, 0].map(|from_node| {
            let stats = TransportStats::default();
            let dst = StoreKey::replica(3, key.id, 1 + from_node as u32);
            let mv = WireMove {
                phase: Phase::Repartition,
                from_node,
                to_node: 2,
                wire_bytes: 0,
                src: key,
                dst,
            };
            let payload = clean(&stores, &stats).execute(&mv, 0).map(shipped).unwrap();
            let installed = stores.node(2).get(&dst).unwrap();
            (
                payload,
                (stats.moves(), stats.delivered(), stats.payload_bytes()),
                (stats.redelivered(), stats.retransmitted_bytes()),
                codec::resident_frame(&installed).unwrap().to_vec(),
            )
        });
        assert_eq!(landed[0], landed[1]);
        let (payload, counted, _, frame) = &landed[0];
        assert_eq!(*payload, codec::encoded_len(&block));
        assert_eq!(*counted, (1, 1, *payload));
        assert_eq!(codec::decode_slice(frame).unwrap(), block);
    }

    #[test]
    fn corruption_strikes_the_copy_in_flight_never_the_resident_frame() {
        let (stores, stats) = setup();
        let key = StoreKey::operand(4, BlockId::new(0, 3));
        let block = view_and_owned_twin(&stores, key);
        let mv = WireMove {
            phase: Phase::Repartition,
            from_node: 1,
            to_node: 2,
            wire_bytes: 0,
            src: key,
            dst: key,
        };
        // A seed that corrupts the first delivery of this re-send and lets
        // a later one through.
        let spec_for = |seed| FaultSpec {
            corrupt_rate: 0.5,
            ..FaultSpec::quiet(seed)
        };
        let (seed, resent) = (0..64)
            .find_map(|s| {
                let probe = FaultPlan::new(spec_for(s));
                let first_clean =
                    (0..8).find(|&d| !probe.corrupt_payload(&mv, 0, d, &mut [0u8; 64]))?;
                (first_clean > 0).then_some((s, u64::from(first_clean)))
            })
            .expect("a 50% corruption rate hits within 64 seeds");
        let source = stores.node(1).get(&key).unwrap();
        let resident = codec::resident_frame(&source).unwrap();
        let (before, at) = (resident.to_vec(), resident.as_ref().as_ptr());
        let plan = Arc::new(FaultPlan::new(spec_for(seed)));
        let t = Transport::new(
            &stores,
            &stats,
            Some(plan.clone()),
            RetryPolicy {
                max_attempts: 8,
                backoff_secs: 0.0,
            },
        );
        let payload = t.execute(&mv, 0).map(shipped).unwrap();
        // The checksum gate refused every corrupted copy...
        assert_eq!(plan.corrupted(), resent);
        assert_eq!(stats.redelivered(), resent);
        assert_eq!(stats.retransmitted_bytes(), resent * payload);
        assert_eq!((stats.payload_bytes(), stats.delivered()), (payload, 1));
        // ...the source still is the same view of the same bytes...
        let resident = codec::resident_frame(&source).unwrap();
        assert_eq!(resident.as_ref().as_ptr(), at);
        assert_eq!(resident.as_ref(), &before[..]);
        assert_eq!(&*source, &block);
        // ...and what finally landed is the original, bit for bit.
        let installed = stores.node(2).get(&key).unwrap();
        assert_eq!(
            codec::resident_frame(&installed).unwrap().as_ref(),
            &before[..]
        );
    }

    #[test]
    fn a_malformed_frame_with_a_valid_checksum_installs_nothing() {
        let (stores, stats) = setup();
        let t = clean(&stores, &stats);
        let key = StoreKey::operand(12, BlockId::new(0, 0));
        let mv = WireMove {
            phase: Phase::Repartition,
            from_node: 0,
            to_node: 1,
            wire_bytes: 0,
            src: key,
            dst: key,
        };
        // Header lies, each resealed so that the checksum agrees with it.
        let [dense, sparse] = dense_and_sparse();
        let lies: [(&Block, usize, &[u8]); 4] = [
            (&dense, 2, &[5, 0, 0, 0]),         // a row more than the payload holds
            (&dense, 2, &[0xff; 8]),            // dimensions whose product overflows
            (&dense, 1, &[0x7f]),               // a tag nobody assigned
            (&sparse, 10, &[0xff, 0xff, 0, 0]), // more entries than it carries
        ];
        for (which, (block, at, patch)) in lies.into_iter().enumerate() {
            let mut raw = codec::encode(block).to_vec();
            raw[at..at + patch.len()].copy_from_slice(patch);
            let body = raw.len() - 4;
            let crc = codec::crc32(&raw[..body]);
            raw[body..].copy_from_slice(&crc.to_le_bytes());
            assert!(t.receive(&mv, &Bytes::from(raw)).is_err(), "lie {which}");
        }
        assert!(!stores.node(1).contains(&key), "nothing was installed");
        assert_eq!(stats.delivered(), 0);
    }

    #[test]
    fn implicit_zero_carries_nothing() {
        let (stores, stats) = setup();
        let t = clean(&stores, &stats);
        let key = StoreKey::operand(1, BlockId::new(3, 3));
        let outcome = t
            .execute(
                &WireMove {
                    phase: Phase::Aggregation,
                    from_node: 1,
                    to_node: 1,
                    wire_bytes: 123,
                    src: key,
                    dst: key,
                },
                0,
            )
            .unwrap();
        assert_eq!(outcome, MoveOutcome::ImplicitZero);
        assert_eq!(stats.moves(), 1);
        assert_eq!(stats.delivered(), 0);
        assert!(!stores.node(1).contains(&key));
    }

    #[test]
    fn a_same_node_move_ships_nothing() {
        let (stores, stats) = setup();
        let block = Block::Dense(DenseBlock::from_fn(4, 4, |i, j| (i + j) as f64));
        let key = StoreKey::operand(13, BlockId::new(0, 0));
        stores.node(1).install(key, Arc::new(block.clone()));
        let mv = WireMove {
            phase: Phase::Repartition,
            from_node: 1,
            to_node: 1,
            wire_bytes: 64,
            src: key,
            dst: key,
        };
        let encoded = codec::encoded_len(&block);
        let outcome = clean(&stores, &stats).execute(&mv, 0).unwrap();
        assert_eq!(outcome, MoveOutcome::Elided(encoded));
        assert_eq!(outcome.encoded_len(), encoded, "θt is charged the block");
        assert_eq!(
            (stats.moves(), stats.elided(), stats.delivered()),
            (1, 1, 0)
        );
        assert_eq!(
            (stats.payload_bytes(), stats.elided_payload_bytes()),
            (0, encoded)
        );
    }

    #[test]
    fn concurrent_moves_of_one_block_to_one_node_ship_it_once() {
        let (stores, stats) = setup();
        let block = Block::Dense(DenseBlock::from_fn(64, 64, |i, j| (i * j) as f64));
        let key = StoreKey::operand(14, BlockId::new(0, 0));
        stores.node(0).install(key, Arc::new(block.clone()));
        let mv = WireMove {
            phase: Phase::Repartition,
            from_node: 0,
            to_node: 2,
            wire_bytes: 0,
            src: key,
            dst: key,
        };
        let t = clean(&stores, &stats);
        let outcomes: Vec<MoveOutcome> = std::thread::scope(|scope| {
            let senders: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| t.execute(&mv, 0).unwrap()))
                .collect();
            senders.into_iter().map(|s| s.join().unwrap()).collect()
        });
        let encoded = codec::encoded_len(&block);
        let shipped = outcomes
            .iter()
            .filter(|o| **o == MoveOutcome::Shipped(encoded))
            .count();
        assert_eq!(shipped, 1, "{outcomes:?}");
        assert_eq!(
            (stats.moves(), stats.delivered(), stats.elided()),
            (4, 1, 3)
        );
        assert_eq!(stats.payload_bytes(), encoded);
        assert_eq!(stats.elided_payload_bytes(), 3 * encoded);
        assert_eq!(claims_held(stores.node(2)), 0);
    }

    #[test]
    fn a_failed_delivery_leaves_no_claim_and_the_next_one_ships() {
        let (stores, stats) = setup();
        let block = Block::Dense(DenseBlock::from_fn(4, 4, |i, j| (i * j) as f64));
        let key = StoreKey::operand(15, BlockId::new(0, 0));
        stores.node(0).install(key, Arc::new(block.clone()));
        let mv = WireMove {
            phase: Phase::Repartition,
            from_node: 0,
            to_node: 1,
            wire_bytes: 64,
            src: key,
            dst: key,
        };
        let certain_drop = Arc::new(FaultPlan::new(FaultSpec {
            drop_rate: 1.0,
            ..FaultSpec::quiet(2)
        }));
        let lossy = Transport::new(&stores, &stats, Some(certain_drop), RetryPolicy::no_retry());
        let encoded = codec::encoded_len(&block);
        // A second claimant with the same fault identity fails the same
        // way: neither lost transmission counts as the block's payload.
        for resent in 1..=2 {
            let err = lossy.execute(&mv, 0).unwrap_err();
            assert!(matches!(err, TaskError::LostBlock { node: 1, .. }));
            assert_eq!(claims_held(stores.node(1)), 0, "the claim went with it");
            assert_eq!(stats.payload_bytes(), 0);
            assert_eq!(
                (stats.redelivered(), stats.retransmitted_bytes()),
                (resent, resent * encoded)
            );
        }
        assert_eq!(
            clean(&stores, &stats).execute(&mv, 1).unwrap(),
            MoveOutcome::Shipped(encoded)
        );
        assert_eq!(&*stores.node(1).get(&key).unwrap(), &block);
        assert_eq!((stats.delivered(), stats.elided()), (1, 0));
        assert_eq!(stats.payload_bytes(), encoded, "as a clean run ships it");
    }

    #[test]
    fn dropped_delivery_is_resent_from_the_producer() {
        let key = StoreKey::operand(5, BlockId::new(0, 1));
        let mv = WireMove {
            phase: Phase::Repartition,
            from_node: 0,
            to_node: 1,
            wire_bytes: 64,
            src: key,
            dst: key,
        };
        // Find a seed under which the first delivery of this move is
        // dropped (deterministic: the probe plan and the real plan make
        // identical decisions for identical seeds — and a drop decision
        // keys on the move, not on the bytes it carries).
        let spec_for = |seed| FaultSpec {
            drop_rate: 0.6,
            ..FaultSpec::quiet(seed)
        };
        let (seed, resent) = (0..64)
            .find_map(|s| {
                let probe = FaultPlan::new(spec_for(s));
                let first_ok = (0..8).find(|&d| !probe.drop_delivery(&mv, 0, d))?;
                (first_ok > 0).then_some((s, u64::from(first_ok)))
            })
            .expect("a 60% drop rate hits within 64 seeds");
        for block in dense_and_sparse() {
            let (stores, stats) = setup();
            stores.node(0).install(key, Arc::new(block.clone()));
            let t = Transport::new(
                &stores,
                &stats,
                Some(Arc::new(FaultPlan::new(spec_for(seed)))),
                RetryPolicy {
                    max_attempts: 8,
                    backoff_secs: 0.0,
                },
            );
            let payload = t.execute(&mv, 0).map(shipped).unwrap();
            assert_eq!(payload, codec::encoded_len(&block));
            assert_eq!(&*stores.node(1).get(&key).unwrap(), &block);
            assert_eq!(stats.redelivered(), resent, "one resend per drop");
            assert_eq!(stats.payload_bytes(), payload, "the installing one only");
            assert_eq!(stats.retransmitted_bytes(), resent * payload);
            assert_eq!((stats.moves(), stats.delivered()), (1, 1));
        }
    }

    #[test]
    fn certain_corruption_exhausts_into_corrupt_block() {
        let key = StoreKey::operand(6, BlockId::new(2, 0));
        for block in dense_and_sparse() {
            let (stores, stats) = setup();
            let payload = codec::encoded_len(&block);
            stores.node(0).install(key, Arc::new(block));
            let plan = Arc::new(FaultPlan::new(FaultSpec {
                corrupt_rate: 1.0,
                ..FaultSpec::quiet(1)
            }));
            let t = Transport::new(
                &stores,
                &stats,
                Some(plan.clone()),
                RetryPolicy {
                    max_attempts: 3,
                    backoff_secs: 0.0,
                },
            );
            let mv = WireMove {
                phase: Phase::Repartition,
                from_node: 0,
                to_node: 2,
                wire_bytes: 64,
                src: key,
                dst: key,
            };
            let err = t.execute(&mv, 0).unwrap_err();
            assert!(matches!(err, TaskError::CorruptBlock { node: 2, .. }));
            assert!(err.is_transient());
            assert_eq!(plan.corrupted(), 3, "every delivery was corrupted");
            assert!(!stores.node(2).contains(&key), "no garbage was installed");
            // Nothing was installed: every transmission was recovery traffic.
            assert_eq!(
                (
                    stats.payload_bytes(),
                    stats.redelivered(),
                    stats.retransmitted_bytes(),
                    stats.delivered()
                ),
                (0, 3, 3 * payload, 0)
            );
        }
    }

    #[test]
    fn certain_drop_exhausts_into_lost_block() {
        let key = StoreKey::operand(8, BlockId::new(0, 0));
        for block in dense_and_sparse() {
            let (stores, stats) = setup();
            let payload = codec::encoded_len(&block);
            stores.node(1).install(key, Arc::new(block));
            let plan = Arc::new(FaultPlan::new(FaultSpec {
                drop_rate: 1.0,
                ..FaultSpec::quiet(2)
            }));
            let t = Transport::new(
                &stores,
                &stats,
                Some(plan),
                RetryPolicy {
                    max_attempts: 2,
                    backoff_secs: 0.0,
                },
            );
            let mv = WireMove {
                phase: Phase::Aggregation,
                from_node: 1,
                to_node: 0,
                wire_bytes: 32,
                src: key,
                dst: key,
            };
            let err = t.execute(&mv, 0).unwrap_err();
            assert!(matches!(err, TaskError::LostBlock { node: 0, .. }));
            assert!(!stores.node(0).contains(&key));
            assert_eq!(
                (
                    stats.payload_bytes(),
                    stats.redelivered(),
                    stats.retransmitted_bytes(),
                    stats.delivered()
                ),
                (0, 2, 2 * payload, 0)
            );
        }
    }
}

//! Per-node block stores: the executor's physical address spaces.
//!
//! Each virtual node owns a [`NodeStore`] keyed by `(matrix uid, block id,
//! copy)`. A task may read **only** from its own node's store — a miss on a
//! block the plan materialized elsewhere is a hard
//! [`TaskError::MissingBlock`], never a fallthrough to shared driver
//! memory. Blocks are `Arc`-shared so a broadcast installs one physical
//! copy per node and residency caching across jobs costs no element
//! duplication.
//!
//! Residency follows the handle: a matrix's keys — its data, its
//! transported copies and its parity, all under its uid — stay in the
//! stores exactly as long as some [`BlockMatrix`] of that content version
//! is alive. A job [`track`](ClusterStores::track)s the matrices it ingests
//! and produces, and [`evict_dropped`](ClusterStores::evict_dropped) drops
//! every tracked matrix whose last handle is gone. A matrix a job reads
//! cannot be evicted under it: the job borrows its handle. Keys installed
//! by raw uid, with no handle tracked, stay until evicted by name.

use crate::failure::TaskError;
use bytes::{Bytes, BytesMut};
use distme_matrix::{Block, BlockId, BlockMatrix};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};

/// What a store entry holds: matrix content, or derived parity over a
/// coded group of content blocks (see `crate::coding`). Parity entries are
/// never operands — `BlockView` resolves only `Data` keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum StoreKind {
    /// A matrix block: operand, result, or partial product.
    #[default]
    Data,
    /// An erasure-coding parity block over a group of `Data` blocks.
    Parity,
}

/// Store key: which content version, which grid position, which producer
/// copy. `copy` distinguishes partial products that share a `(row, col)`
/// destination before aggregation (the plan's aggregation routing tags each
/// partial with its producing mult task); ingested operand blocks use 0.
/// The `kind` field sits last so the derived ordering stays
/// matrix → id → copy for the `Data` keys every pre-coding caller iterates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct StoreKey {
    /// Matrix content version (see `distme_matrix::fresh_matrix_uid`).
    pub matrix: u64,
    /// Grid position (for parity: the group leader's position).
    pub id: BlockId,
    /// Producer copy index (0 for operands, final results and parity).
    pub copy: u32,
    /// Content block or derived parity.
    pub kind: StoreKind,
}

impl StoreKey {
    /// Key for an operand or result block (copy 0).
    pub fn operand(matrix: u64, id: BlockId) -> Self {
        StoreKey {
            matrix,
            id,
            copy: 0,
            kind: StoreKind::Data,
        }
    }

    /// Key for a partial product produced by mult task `copy`.
    pub fn replica(matrix: u64, id: BlockId, copy: u32) -> Self {
        StoreKey {
            matrix,
            id,
            copy,
            kind: StoreKind::Data,
        }
    }

    /// Key for the parity block of the coded group led by `id`.
    pub fn parity(matrix: u64, id: BlockId) -> Self {
        StoreKey {
            matrix,
            id,
            copy: 0,
            kind: StoreKind::Parity,
        }
    }

    /// Whether this key names derived parity rather than matrix content.
    pub fn is_parity(&self) -> bool {
        self.kind == StoreKind::Parity
    }
}

/// One virtual node's keyed block store.
#[derive(Debug)]
pub struct NodeStore {
    node: usize,
    contents: Mutex<Contents>,
    /// Signalled whenever a delivery claim is released.
    released: Condvar,
}

#[derive(Debug, Default)]
struct Contents {
    blocks: BTreeMap<StoreKey, Arc<Block>>,
    claimed: BTreeSet<StoreKey>,
}

/// The one delivery under way for a `(node, key)`: dropping it — after an
/// install, a failure or an unwind — wakes the claimants waiting on it.
#[derive(Debug)]
pub(crate) struct DeliveryClaim<'a> {
    store: &'a NodeStore,
    key: StoreKey,
}

impl Drop for DeliveryClaim<'_> {
    fn drop(&mut self) {
        self.store.lock().claimed.remove(&self.key);
        self.store.released.notify_all();
    }
}

impl NodeStore {
    fn new(node: usize) -> Self {
        NodeStore {
            node,
            contents: Mutex::new(Contents::default()),
            released: Condvar::new(),
        }
    }

    /// Mutations are single map or set operations: never half-done.
    fn lock(&self) -> MutexGuard<'_, Contents> {
        self.contents.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The claim to deliver `key` here, or `None` once it is resident;
    /// waits while another delivery of it is under way. A claim holder
    /// never waits for a claim, so no wait cycle can form.
    pub(crate) fn claim(&self, key: StoreKey) -> Option<DeliveryClaim<'_>> {
        let mut contents = self.lock();
        while !contents.blocks.contains_key(&key) {
            if contents.claimed.insert(key) {
                return Some(DeliveryClaim { store: self, key });
            }
            let waited = self.released.wait(contents);
            contents = waited.unwrap_or_else(PoisonError::into_inner);
        }
        None
    }

    /// The node this store belongs to.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Fetches a shared handle to a resident block.
    pub fn get(&self, key: &StoreKey) -> Option<Arc<Block>> {
        self.lock().blocks.get(key).cloned()
    }

    /// Installs a block, keeping an existing entry on collision (a key
    /// names one content version, so a collision is the same bytes arriving
    /// twice — e.g. two tasks routing the same operand block). Returns
    /// whether the block was newly installed.
    pub fn install(&self, key: StoreKey, block: Arc<Block>) -> bool {
        use std::collections::btree_map::Entry;
        match self.lock().blocks.entry(key) {
            Entry::Occupied(_) => false,
            Entry::Vacant(v) => {
                v.insert(block);
                true
            }
        }
    }

    /// Whether `key` is resident.
    pub fn contains(&self, key: &StoreKey) -> bool {
        self.lock().blocks.contains_key(key)
    }

    /// Removes `key`, returning whether it was resident.
    pub fn remove(&self, key: &StoreKey) -> bool {
        self.take(key).is_some()
    }

    /// Removes `key`, handing back the store's reference to the block.
    pub fn take(&self, key: &StoreKey) -> Option<Arc<Block>> {
        self.lock().blocks.remove(key)
    }

    /// All resident keys, in key order.
    pub fn keys(&self) -> Vec<StoreKey> {
        self.lock().blocks.keys().copied().collect()
    }

    /// Drops every resident block (a decommissioned node's store).
    pub fn clear(&self) {
        self.lock().blocks.clear();
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.lock().blocks.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// In-memory bytes of all resident blocks.
    pub fn resident_bytes(&self) -> u64 {
        self.lock().blocks.values().map(|b| b.mem_bytes()).sum()
    }

    /// Drops every block belonging to `matrix`.
    pub fn evict_matrix(&self, matrix: u64) {
        self.lock().blocks.retain(|k, _| k.matrix != matrix);
    }
}

/// All nodes' stores plus the residency index for cross-job reuse.
#[derive(Debug)]
pub struct ClusterStores {
    nodes: Vec<NodeStore>,
    /// matrix uid → the liveness of its handles (see
    /// [`BlockMatrix::downgrade`]).
    tracked: Mutex<BTreeMap<u64, Weak<u64>>>,
}

impl ClusterStores {
    /// Creates empty stores for `nodes` virtual nodes.
    pub fn new(nodes: usize) -> Self {
        ClusterStores {
            nodes: (0..nodes).map(NodeStore::new).collect(),
            tracked: Mutex::new(BTreeMap::new()),
        }
    }

    /// Number of node stores.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The store of node `n`.
    pub fn node(&self, n: usize) -> &NodeStore {
        &self.nodes[n]
    }

    /// Ties the residency of `matrix`'s keys to its handles: once every
    /// handle to this content version is dropped,
    /// [`evict_dropped`](Self::evict_dropped) reclaims them.
    pub fn track(&self, matrix: &BlockMatrix) {
        self.tracked
            .lock()
            .expect("residency index lock")
            .insert(matrix.uid(), matrix.downgrade());
    }

    /// Evicts every tracked matrix whose handles have all been dropped.
    pub fn evict_dropped(&self) {
        let dropped: Vec<u64> = self
            .tracked
            .lock()
            .expect("residency index lock")
            .iter()
            .filter(|(_, handle)| handle.strong_count() == 0)
            .map(|(&uid, _)| uid)
            .collect();
        for uid in dropped {
            self.evict_matrix(uid);
        }
    }

    /// Ingests one operand block to `node`, keeping an already-resident
    /// placement when the same content version was ingested before
    /// (sessions keep factor matrices resident across chained multiplies).
    pub fn ingest(&self, node: usize, key: StoreKey, block: Arc<Block>) {
        self.nodes[node].install(key, block);
    }

    /// Drops `matrix` from every node and from the residency index.
    pub fn evict_matrix(&self, matrix: u64) {
        for n in &self.nodes {
            n.evict_matrix(matrix);
        }
        self.tracked
            .lock()
            .expect("residency index lock")
            .remove(&matrix);
    }

    /// Total resident bytes across all nodes.
    pub fn resident_bytes(&self) -> u64 {
        self.nodes.iter().map(NodeStore::resident_bytes).sum()
    }

    /// Snapshot of every resident key and the set of nodes holding a copy
    /// of it — the input to `rebalance::RebalancePlan::derive`. Determinism
    /// comes from the `BTreeMap`/`BTreeSet` ordering.
    pub fn resident_keys(&self) -> BTreeMap<StoreKey, BTreeSet<usize>> {
        let mut out: BTreeMap<StoreKey, BTreeSet<usize>> = BTreeMap::new();
        for store in &self.nodes {
            for key in store.keys() {
                out.entry(key).or_default().insert(store.node());
            }
        }
        out
    }

    /// Appends empty stores until there are `nodes` node stores
    /// (commissioning new nodes; existing placements are untouched).
    pub fn grow_to(&mut self, nodes: usize) {
        while self.nodes.len() < nodes {
            let n = self.nodes.len();
            self.nodes.push(NodeStore::new(n));
        }
    }

    /// Drops the tail stores beyond `nodes` (graceful shrink: callers drain
    /// resident blocks onto the surviving prefix first).
    pub fn truncate_to(&mut self, nodes: usize) {
        self.nodes.truncate(nodes.max(1));
    }

    /// Removes node `k`'s store entirely — contents and all, a permanent
    /// decommission — and renumbers the higher nodes down by one so node
    /// ids stay contiguous.
    pub fn remove_node(&mut self, k: usize) {
        assert!(k < self.nodes.len(), "no node {k} to remove");
        assert!(self.nodes.len() > 1, "cannot remove the last node");
        self.nodes.remove(k);
        for (i, store) in self.nodes.iter_mut().enumerate() {
            store.node = i;
        }
    }
}

/// The free list of one resize: the byte buffers of the blocks it has
/// evicted so far, for the blocks it installs next.
///
/// A block that crossed the wire *is* its receive buffer (a dense view,
/// see `codec::decode_view`) and a parity block *is* its envelope buffer,
/// so evicting one frees exactly the allocation the next delivery or the
/// next envelope needs. [`reclaim`](Self::reclaim) keeps that allocation
/// when the evicted reference was the last one to the block and the block
/// the last view of its buffer — anything still referenced anywhere is
/// left alone — and [`take`](Self::take) hands it out again. The list
/// belongs to the `scale_to` that created it and is dropped, with whatever
/// it still holds, when that returns: jobs never draw from one and
/// nothing is retained between resizes.
#[derive(Debug, Default)]
pub struct FreeBuffers {
    free: Mutex<Vec<BytesMut>>,
    /// Draws served from the list / by a fresh allocation (read by tests).
    recycled: AtomicU64,
    allocated: AtomicU64,
}

impl FreeBuffers {
    /// Fresh allocations are whole pages, so that a wire buffer and an
    /// envelope buffer for blocks of one size — a few bytes apart — can
    /// each serve as the other.
    const PAGE: usize = 4096;

    /// An empty buffer that holds `capacity` bytes without reallocating:
    /// the most recently reclaimed one that is large enough, else a fresh
    /// allocation.
    pub fn take(&self, capacity: usize) -> BytesMut {
        let reclaimed = {
            let mut free = self.free.lock().expect("free list lock");
            free.iter()
                .rposition(|buf| buf.capacity() >= capacity)
                .map(|i| free.swap_remove(i))
        };
        match reclaimed {
            Some(buf) => {
                self.recycled.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => {
                self.allocated.fetch_add(1, Ordering::Relaxed);
                BytesMut::with_capacity(capacity.next_multiple_of(Self::PAGE))
            }
        }
    }

    /// Keeps the buffer behind an evicted block — if `block` was the last
    /// reference to it and it the last view of its buffer; otherwise this
    /// is a plain drop.
    pub fn reclaim(&self, block: Arc<Block>) {
        let Ok(Block::Dense(dense)) = Arc::try_unwrap(block) else {
            return;
        };
        if let Some(Ok(mut buf)) = dense.into_shared_bytes().map(Bytes::try_into_mut) {
            buf.clear();
            self.free.lock().expect("free list lock").push(buf);
        }
    }

    /// `(recycled, allocated)`: how many [`take`](Self::take)s a reclaimed
    /// buffer served, and how many had to allocate.
    #[cfg(test)]
    pub(crate) fn draws(&self) -> (u64, u64) {
        (
            self.recycled.load(Ordering::Relaxed),
            self.allocated.load(Ordering::Relaxed),
        )
    }
}

/// Something a mult task can resolve input blocks from. Implementations
/// return `Ok(None)` for an implicitly-zero block and an error for a
/// locality violation.
pub trait BlockSource {
    /// Resolves the block at grid position `(row, col)`.
    ///
    /// # Errors
    /// [`TaskError::MissingBlock`] when the block is materialized somewhere
    /// but not resident where this source looks.
    fn block(&self, row: u32, col: u32) -> Result<Option<Arc<Block>>, TaskError>;
}

/// The locality-enforcing view a task gets of one operand: reads hit only
/// `store` (its own node). A block listed in `materialized` but absent from
/// the store is a routing bug surfaced as [`TaskError::MissingBlock`]; a
/// block absent from both is an implicit zero.
pub struct BlockView<'a> {
    store: &'a NodeStore,
    matrix: u64,
    materialized: &'a BTreeSet<BlockId>,
}

impl<'a> BlockView<'a> {
    /// Builds a view of content version `matrix` over `store`.
    pub fn new(store: &'a NodeStore, matrix: u64, materialized: &'a BTreeSet<BlockId>) -> Self {
        BlockView {
            store,
            matrix,
            materialized,
        }
    }
}

impl BlockSource for BlockView<'_> {
    fn block(&self, row: u32, col: u32) -> Result<Option<Arc<Block>>, TaskError> {
        let id = BlockId::new(row, col);
        if let Some(b) = self.store.get(&StoreKey::operand(self.matrix, id)) {
            return Ok(Some(b));
        }
        if self.materialized.contains(&id) {
            return Err(TaskError::MissingBlock {
                node: self.store.node(),
                id,
            });
        }
        Ok(None)
    }
}

/// Driver-local resolution (used by single-node call paths such as the GPU
/// streaming example and its tests, where locality is not at stake).
impl BlockSource for BlockMatrix {
    fn block(&self, row: u32, col: u32) -> Result<Option<Arc<Block>>, TaskError> {
        Ok(self.get_shared(row, col))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use distme_matrix::DenseBlock;

    /// Delivery claims currently held on `store`.
    pub(crate) fn claims_held(store: &NodeStore) -> usize {
        store.lock().claimed.len()
    }

    fn blk(v: f64) -> Arc<Block> {
        Arc::new(Block::Dense(DenseBlock::from_fn(2, 2, |_, _| v)))
    }

    #[test]
    fn install_keeps_first_copy() {
        let s = NodeStore::new(0);
        let k = StoreKey::operand(7, BlockId::new(0, 0));
        assert!(s.install(k, blk(1.0)));
        assert!(!s.install(k, blk(2.0)));
        let got = s.get(&k).unwrap();
        assert_eq!(got.to_dense().data()[0], 1.0);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn keys_order_by_matrix_then_id_then_copy() {
        let a = StoreKey::replica(1, BlockId::new(5, 5), 9);
        let b = StoreKey::operand(2, BlockId::new(0, 0));
        assert!(a < b);
        let c = StoreKey::replica(1, BlockId::new(5, 5), 10);
        assert!(a < c);
    }

    #[test]
    fn parity_keys_order_after_the_data_key_with_the_same_copy() {
        let d = StoreKey::operand(1, BlockId::new(0, 0));
        let p = StoreKey::parity(1, BlockId::new(0, 0));
        assert!(d < p);
        assert!(p.is_parity());
        assert!(!d.is_parity());
    }

    #[test]
    fn evict_matrix_is_scoped() {
        let s = ClusterStores::new(2);
        s.ingest(0, StoreKey::operand(1, BlockId::new(0, 0)), blk(1.0));
        s.ingest(1, StoreKey::operand(2, BlockId::new(0, 0)), blk(2.0));
        s.evict_matrix(1);
        assert_eq!(s.node(0).len(), 0);
        assert_eq!(s.node(1).len(), 1);
    }

    #[test]
    fn a_reingested_key_claims_as_resident() {
        let s = ClusterStores::new(1);
        let k = StoreKey::operand(3, BlockId::new(1, 1));
        assert!(s.node(0).claim(k).is_some());
        s.ingest(0, k, blk(1.0));
        s.ingest(0, k, blk(2.0));
        assert!(s.node(0).claim(k).is_none(), "nothing to deliver");
        assert_eq!(s.node(0).get(&k).unwrap().to_dense().data()[0], 1.0);
    }

    /// Within a 10 s bound, what a `claim` of `key` on `store`, started
    /// on another thread while `hold` runs on this one, resolved to. The
    /// claimant is not a scoped thread, so a claim never released fails
    /// the test instead of hanging it.
    fn claim_while(store: &Arc<NodeStore>, key: StoreKey, hold: impl FnOnce()) -> &'static str {
        let (tx, rx) = std::sync::mpsc::channel();
        let claimant = Arc::clone(store);
        let waiter = std::thread::spawn(move || {
            let found = match claimant.claim(key) {
                None => "resident",
                Some(_) => "delivering",
            };
            tx.send(found).unwrap();
        });
        hold();
        let found = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the waiting claimant finishes within 10 s");
        waiter.join().unwrap();
        found
    }

    #[test]
    fn a_waiting_claimant_finds_the_block_its_holder_installed() {
        let s = Arc::new(NodeStore::new(0));
        let k = StoreKey::operand(4, BlockId::new(0, 0));
        let held = s.claim(k).expect("an empty store has nothing resident");
        let found = claim_while(&s, k, || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            s.install(k, blk(1.0));
            drop(held);
        });
        assert_eq!(found, "resident");
    }

    #[test]
    fn a_waiter_whose_holder_panics_takes_the_claim_itself() {
        let s = Arc::new(NodeStore::new(0));
        let k = StoreKey::operand(5, BlockId::new(0, 0));
        let found = claim_while(&s, k, || {
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _held = s.claim(k).expect("an empty store has nothing resident");
                std::thread::sleep(std::time::Duration::from_millis(20));
                panic!("the delivery dies mid-flight");
            }));
            assert!(unwound.is_err());
        });
        // Either the waiter queued behind the dead delivery or it came
        // after it: both ways nothing landed and the claim was free again.
        assert_eq!(found, "delivering");
        assert_eq!(claims_held(&s), 0, "no claim is left behind");
    }

    #[test]
    fn a_matrix_stays_resident_exactly_while_a_handle_to_it_lives() {
        use distme_matrix::MatrixMeta;
        let s = ClusterStores::new(1);
        let id = BlockId::new(0, 0);
        let resident = |m: u64| s.node(0).contains(&StoreKey::operand(m, id));
        let matrix = |v: f64| {
            let mut m = BlockMatrix::new(MatrixMeta::dense(2, 2).with_block_size(2));
            m.put_shared(0, 0, blk(v)).unwrap();
            m
        };
        let place = |m: &BlockMatrix| {
            s.ingest(
                0,
                StoreKey::operand(m.uid(), id),
                m.get_shared(0, 0).unwrap(),
            );
            s.track(m);
        };

        // A dropped matrix leaves; a raw-uid key nobody tracks stays.
        let gone = matrix(1.0);
        let gone_uid = gone.uid();
        place(&gone);
        s.ingest(0, StoreKey::operand(99, id), blk(9.0));
        drop(gone);
        s.evict_dropped();
        assert!(!resident(gone_uid));
        assert!(resident(99));

        // A live clone keeps its version resident.
        let kept = matrix(2.0);
        let kept_uid = kept.uid();
        place(&kept);
        let mut clone = kept.clone();
        drop(kept);
        s.evict_dropped();
        assert!(resident(kept_uid), "a clone is a live handle");

        // A put on a clone makes a new version: dropping that one leaves
        // the old version resident while a handle to it lives on.
        let old_version = clone.clone();
        clone.put_shared(0, 0, blk(3.0)).unwrap();
        assert_ne!(clone.uid(), kept_uid);
        place(&clone);
        let new_uid = clone.uid();
        drop(clone);
        s.evict_dropped();
        assert!(!resident(new_uid));
        assert!(resident(kept_uid));
        drop(old_version);
        s.evict_dropped();
        assert!(!resident(kept_uid));
        assert_eq!(s.node(0).len(), 1, "only the untracked key is left");
    }

    #[test]
    fn resident_keys_report_every_holder() {
        let s = ClusterStores::new(3);
        let k = StoreKey::operand(9, BlockId::new(0, 1));
        s.ingest(0, k, blk(1.0));
        s.ingest(2, k, blk(1.0));
        s.ingest(1, StoreKey::operand(9, BlockId::new(1, 1)), blk(2.0));
        let snap = s.resident_keys();
        assert_eq!(snap.len(), 2);
        assert_eq!(
            snap[&k].iter().copied().collect::<Vec<_>>(),
            vec![0, 2],
            "both holders reported, in node order"
        );
    }

    #[test]
    fn grow_appends_empty_stores_and_truncate_drops_the_tail() {
        let mut s = ClusterStores::new(2);
        s.ingest(1, StoreKey::operand(4, BlockId::new(0, 0)), blk(1.0));
        s.grow_to(5);
        assert_eq!(s.num_nodes(), 5);
        assert_eq!(s.node(4).node(), 4);
        assert!(s.node(4).is_empty());
        assert_eq!(s.node(1).len(), 1, "existing placements survive a grow");
        s.truncate_to(2);
        assert_eq!(s.num_nodes(), 2);
        assert_eq!(s.node(1).len(), 1);
    }

    #[test]
    fn remove_node_renumbers_survivors() {
        let mut s = ClusterStores::new(3);
        let k = StoreKey::operand(8, BlockId::new(0, 0));
        s.ingest(2, k, blk(3.0));
        s.remove_node(1);
        assert_eq!(s.num_nodes(), 2);
        // The old node 2 is now node 1 and kept its blocks.
        assert_eq!(s.node(1).node(), 1);
        assert!(s.node(1).contains(&k));
    }

    #[test]
    fn remove_and_clear_drop_blocks() {
        let s = NodeStore::new(0);
        let k = StoreKey::operand(5, BlockId::new(0, 0));
        s.install(k, blk(1.0));
        assert!(s.remove(&k));
        assert!(!s.remove(&k));
        s.install(k, blk(1.0));
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn shared_view_blocks_live_and_die_with_the_store() {
        // The transport installs dense blocks that alias their wire buffer
        // (`DenseBlock::is_shared()`); the store must treat them like any
        // other block — readable, counted, and freed on removal (dropping
        // the last Arc releases the wire buffer itself).
        use bytes::BytesMut;
        use distme_matrix::codec;

        let owned = Block::Dense(DenseBlock::from_fn(4, 4, |i, j| (i * 4 + j) as f64));
        let mut buf = BytesMut::default();
        let pad = codec::encode_aligned(&owned, &mut buf);
        let wire = buf.freeze();
        let shared = codec::decode_view(&wire.slice(pad..wire.len())).unwrap();
        match &shared {
            Block::Dense(d) => assert!(d.is_shared()),
            Block::Sparse(_) => panic!("dense frame decoded as sparse"),
        }

        let s = NodeStore::new(0);
        let k = StoreKey::operand(9, BlockId::new(0, 0));
        s.install(k, Arc::new(shared));
        let got = s.get(&k).unwrap();
        assert_eq!(&*got, &owned);
        assert!(s.resident_bytes() > 0);
        drop(got);
        assert!(s.remove(&k));
        assert!(s.is_empty());
    }

    #[test]
    fn view_distinguishes_zero_from_missing() {
        let store = NodeStore::new(3);
        let uid = 42;
        store.install(StoreKey::operand(uid, BlockId::new(0, 0)), blk(1.0));
        let materialized: BTreeSet<BlockId> = [BlockId::new(0, 0), BlockId::new(1, 0)]
            .into_iter()
            .collect();
        let view = BlockView::new(&store, uid, &materialized);
        // Resident → Some.
        assert!(view.block(0, 0).unwrap().is_some());
        // Materialized elsewhere but not here → locality violation.
        match view.block(1, 0) {
            Err(TaskError::MissingBlock { node: 3, id }) => {
                assert_eq!(id, BlockId::new(1, 0));
            }
            other => panic!("expected MissingBlock, got {other:?}"),
        }
        // Not materialized anywhere → implicit zero.
        assert!(view.block(2, 0).unwrap().is_none());
    }
}

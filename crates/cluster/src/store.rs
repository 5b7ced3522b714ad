//! Per-node block stores: the executor's physical address spaces.
//!
//! Each virtual node owns a [`NodeStore`] keyed by `(matrix uid, block id,
//! copy)`. A task may read **only** from its own node's store — a miss on a
//! block the plan materialized elsewhere is a hard
//! [`TaskError::MissingBlock`], never a fallthrough to shared driver
//! memory. Blocks are `Arc`-shared so a broadcast installs one physical
//! copy per node and residency caching across jobs costs no element
//! duplication.

use crate::failure::TaskError;
use bytes::{Bytes, BytesMut};
use distme_matrix::{Block, BlockId, BlockMatrix};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Jobs a matrix's placement survives in the stores without being touched
/// before [`ClusterStores::evict_stale`] reclaims it.
pub const RESIDENCY_WINDOW_JOBS: u64 = 64;

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
    blocks: Mutex<BTreeMap<StoreKey, Arc<Block>>>,
}

impl NodeStore {
    fn new(node: usize) -> Self {
        NodeStore {
            node,
            blocks: Mutex::new(BTreeMap::new()),
        }
    }

    /// The node this store belongs to.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Fetches a shared handle to a resident block.
    pub fn get(&self, key: &StoreKey) -> Option<Arc<Block>> {
        self.blocks.lock().unwrap().get(key).cloned()
    }

    /// Installs a block, keeping an existing entry on collision (a key
    /// names one content version, so a collision is the same bytes arriving
    /// twice — e.g. two tasks routing the same operand block). Returns
    /// whether the block was newly installed.
    pub fn install(&self, key: StoreKey, block: Arc<Block>) -> bool {
        use std::collections::btree_map::Entry;
        match self.blocks.lock().unwrap().entry(key) {
            Entry::Occupied(_) => false,
            Entry::Vacant(v) => {
                v.insert(block);
                true
            }
        }
    }

    /// Whether `key` is resident.
    pub fn contains(&self, key: &StoreKey) -> bool {
        self.blocks.lock().unwrap().contains_key(key)
    }

    /// Removes `key`, returning whether it was resident.
    pub fn remove(&self, key: &StoreKey) -> bool {
        self.take(key).is_some()
    }

    /// Removes `key`, handing back the store's reference to the block.
    pub fn take(&self, key: &StoreKey) -> Option<Arc<Block>> {
        self.blocks.lock().unwrap().remove(key)
    }

    /// All resident keys, in key order.
    pub fn keys(&self) -> Vec<StoreKey> {
        self.blocks.lock().unwrap().keys().copied().collect()
    }

    /// Drops every resident block (a decommissioned node's store).
    pub fn clear(&self) {
        self.blocks.lock().unwrap().clear();
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.blocks.lock().unwrap().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// In-memory bytes of all resident blocks.
    pub fn resident_bytes(&self) -> u64 {
        self.blocks
            .lock()
            .unwrap()
            .values()
            .map(|b| b.mem_bytes())
            .sum()
    }

    /// Drops every block belonging to `matrix`.
    pub fn evict_matrix(&self, matrix: u64) {
        self.blocks
            .lock()
            .unwrap()
            .retain(|k, _| k.matrix != matrix);
    }
}

/// All nodes' stores plus residency bookkeeping for cross-job reuse.
#[derive(Debug)]
pub struct ClusterStores {
    nodes: Vec<NodeStore>,
    /// Monotonic job counter; drives the staleness window.
    jobs: AtomicU64,
    /// matrix uid → job counter when last used.
    last_used: Mutex<BTreeMap<u64, u64>>,
    /// Refcounted pins: a matrix with a positive pin count is never
    /// reclaimed by [`evict_stale`](Self::evict_stale), no matter how many
    /// concurrent job completions advance the job counter while it is in
    /// flight.
    pins: Mutex<BTreeMap<u64, u64>>,
    reused: AtomicU64,
}

impl ClusterStores {
    /// Creates empty stores for `nodes` virtual nodes.
    pub fn new(nodes: usize) -> Self {
        ClusterStores {
            nodes: (0..nodes).map(NodeStore::new).collect(),
            jobs: AtomicU64::new(0),
            last_used: Mutex::new(BTreeMap::new()),
            pins: Mutex::new(BTreeMap::new()),
            reused: AtomicU64::new(0),
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

    /// Advances the job counter (call once per job).
    pub fn begin_job(&self) -> u64 {
        self.jobs.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Marks `matrix` as used by the current job, protecting its placement
    /// from [`evict_stale`](Self::evict_stale).
    pub fn touch(&self, matrix: u64) {
        let now = self.jobs.load(Ordering::Relaxed);
        self.last_used.lock().unwrap().insert(matrix, now);
    }

    /// Ingests one operand block to `node`, reusing an already-resident
    /// placement when the same content version was ingested before
    /// (sessions keep factor matrices resident across chained multiplies).
    pub fn ingest(&self, node: usize, key: StoreKey, block: Arc<Block>) {
        if !self.nodes[node].install(key, block) {
            self.reused.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Ingest calls satisfied by an already-resident placement.
    pub fn ingest_reused(&self) -> u64 {
        self.reused.load(Ordering::Relaxed)
    }

    /// Drops `matrix` from every node and from the residency index.
    pub fn evict_matrix(&self, matrix: u64) {
        for n in &self.nodes {
            n.evict_matrix(matrix);
        }
        self.last_used.lock().unwrap().remove(&matrix);
    }

    /// Pins `matrix` against [`evict_stale`](Self::evict_stale) until the
    /// guard drops. Jobs pin their operands and intermediates for their
    /// whole run: with many concurrent jobs completing, the job counter
    /// can advance a full residency window while one job is still
    /// executing, and an in-flight operand must never be reclaimed under
    /// it. Pins nest (refcounted).
    pub fn pin(&self, matrix: u64) -> PinGuard<'_> {
        *self.pins.lock().unwrap().entry(matrix).or_insert(0) += 1;
        PinGuard {
            stores: self,
            matrix,
        }
    }

    fn unpin(&self, matrix: u64) {
        let mut pins = self.pins.lock().unwrap();
        let n = pins.get_mut(&matrix).expect("unpin of an unpinned matrix");
        *n -= 1;
        if *n == 0 {
            pins.remove(&matrix);
        }
    }

    /// Whether `matrix` is currently pinned by any in-flight job.
    pub fn is_pinned(&self, matrix: u64) -> bool {
        self.pins.lock().unwrap().contains_key(&matrix)
    }

    /// Evicts every matrix not touched within the last `window` jobs,
    /// except matrices pinned by in-flight jobs.
    pub fn evict_stale(&self, window: u64) {
        let now = self.jobs.load(Ordering::Relaxed);
        let pins = self.pins.lock().unwrap();
        let stale: Vec<u64> = self
            .last_used
            .lock()
            .unwrap()
            .iter()
            .filter(|(uid, &used)| now.saturating_sub(used) > window && !pins.contains_key(uid))
            .map(|(&uid, _)| uid)
            .collect();
        drop(pins);
        for uid in stale {
            self.evict_matrix(uid);
        }
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

/// RAII pin on one matrix's residency (see [`ClusterStores::pin`]).
#[derive(Debug)]
pub struct PinGuard<'a> {
    stores: &'a ClusterStores,
    matrix: u64,
}

impl Drop for PinGuard<'_> {
    fn drop(&mut self) {
        self.stores.unpin(self.matrix);
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
mod tests {
    use super::*;
    use distme_matrix::DenseBlock;

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
    fn ingest_counts_reuse() {
        let s = ClusterStores::new(1);
        let k = StoreKey::operand(3, BlockId::new(1, 1));
        s.ingest(0, k, blk(1.0));
        s.ingest(0, k, blk(1.0));
        assert_eq!(s.ingest_reused(), 1);
    }

    #[test]
    fn stale_matrices_are_evicted_touched_ones_survive() {
        let s = ClusterStores::new(1);
        s.ingest(0, StoreKey::operand(10, BlockId::new(0, 0)), blk(1.0));
        s.ingest(0, StoreKey::operand(11, BlockId::new(0, 0)), blk(2.0));
        s.begin_job();
        s.touch(10);
        s.touch(11);
        for _ in 0..3 {
            s.begin_job();
            s.touch(10);
        }
        s.evict_stale(2);
        assert!(s
            .node(0)
            .contains(&StoreKey::operand(10, BlockId::new(0, 0))));
        assert!(!s
            .node(0)
            .contains(&StoreKey::operand(11, BlockId::new(0, 0))));
    }

    #[test]
    fn pinned_matrices_survive_a_whole_residency_window_of_other_jobs() {
        let s = ClusterStores::new(1);
        let k = StoreKey::operand(10, BlockId::new(0, 0));
        s.ingest(0, k, blk(1.0));
        s.begin_job();
        s.touch(10);
        let pin = s.pin(10);
        let nested = s.pin(10);
        // A full residency window of concurrent job completions passes
        // while the matrix's own job is still in flight.
        for _ in 0..=RESIDENCY_WINDOW_JOBS {
            s.begin_job();
            s.evict_stale(RESIDENCY_WINDOW_JOBS);
        }
        assert!(s.node(0).contains(&k), "pinned operand evicted mid-job");
        drop(nested);
        assert!(s.is_pinned(10), "pins must nest");
        drop(pin);
        assert!(!s.is_pinned(10));
        s.evict_stale(RESIDENCY_WINDOW_JOBS);
        assert!(!s.node(0).contains(&k), "unpinned stale matrix survives");
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

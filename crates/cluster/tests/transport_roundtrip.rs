//! Property tests for the physical shuffle path: any block the matrix
//! substrate can represent must survive a codec-backed transport hop
//! bit-identically, and locality violations must fail loudly.

use distme_cluster::{
    BlockSource, BlockView, ClusterStores, MoveOutcome, Phase, RetryPolicy, StoreKey, TaskError,
    Transport, TransportStats, WireMove,
};
use distme_matrix::{Block, BlockId, CsrBlock, DenseBlock};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Strategy: an arbitrary dense block up to 24 x 24.
fn dense_block() -> impl Strategy<Value = Block> {
    (1usize..24, 1usize..24, any::<u64>()).prop_map(|(r, c, seed)| {
        let mut state = seed | 1;
        Block::Dense(DenseBlock::from_fn(r, c, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) % 2000) as f64 / 100.0 - 10.0
        }))
    })
}

/// Strategy: an arbitrary CSR block up to 24 x 24; `every` ≥ rows·cols
/// often leaves it completely empty.
fn sparse_block() -> impl Strategy<Value = Block> {
    (1usize..24, 1usize..24, any::<u64>(), 1usize..800).prop_map(|(r, c, seed, every)| {
        let mut state = seed | 1;
        let mut trips = Vec::new();
        for i in 0..r {
            for j in 0..c {
                state = state
                    .wrapping_mul(2862933555777941757)
                    .wrapping_add(3037000493);
                if ((state >> 33) as usize).is_multiple_of(every) {
                    trips.push((i, j, ((state >> 40) % 19) as f64 - 9.0));
                }
            }
        }
        Block::Sparse(CsrBlock::from_triplets(r, c, trips).expect("valid triplets"))
    })
}

fn any_block() -> impl Strategy<Value = Block> {
    prop_oneof![dense_block(), sparse_block()]
}

/// One cross-node hop through the real transport, returning the delivered
/// replica.
fn ship(block: &Block) -> Arc<Block> {
    let stores = ClusterStores::new(2);
    let stats = TransportStats::default();
    let transport = Transport::new(&stores, &stats, None, RetryPolicy::no_retry());
    let key = StoreKey::operand(7, BlockId::new(0, 0));
    stores.node(0).install(key, Arc::new(block.clone()));
    let mv = WireMove {
        phase: Phase::Repartition,
        from_node: 0,
        to_node: 1,
        wire_bytes: 1234,
        src: key,
        dst: key,
    };
    let outcome = transport.execute(&mv, 0).expect("transportable");
    assert!(
        matches!(outcome, MoveOutcome::Shipped(payload) if payload > 0),
        "a materialized block always has payload"
    );
    stores.node(1).get(&key).expect("delivered")
}

proptest! {
    #[test]
    fn any_block_survives_a_transport_hop_bit_identically(block in any_block()) {
        prop_assert_eq!(&*ship(&block), &block);
    }

    #[test]
    fn empty_blocks_survive_too(dims in (1usize..24, 1usize..24)) {
        let (r, c) = dims;
        let empty = Block::Sparse(CsrBlock::from_triplets(r, c, Vec::new()).expect("empty"));
        prop_assert_eq!(empty.nnz(), 0);
        prop_assert_eq!(&*ship(&empty), &empty);
    }
}

#[test]
fn reading_an_unreceived_block_is_a_missing_block_error() {
    let stores = ClusterStores::new(2);
    let matrix = 42u64;
    let id = BlockId::new(3, 1);
    let materialized: BTreeSet<BlockId> = [id].into_iter().collect();
    // The block exists in the job's index but was never routed to node 1.
    let view = BlockView::new(stores.node(1), matrix, &materialized);
    match view.block(3, 1) {
        Err(TaskError::MissingBlock { node: 1, id: got }) => assert_eq!(got, id),
        other => panic!("expected MissingBlock, got {other:?}"),
    }
    // A block absent from the index is an implicit zero, not an error.
    assert!(view.block(0, 0).expect("implicit zero").is_none());
}

#[test]
fn unmaterialized_moves_carry_no_payload() {
    let stores = ClusterStores::new(2);
    let stats = TransportStats::default();
    let transport = Transport::new(&stores, &stats, None, RetryPolicy::no_retry());
    let key = StoreKey::operand(7, BlockId::new(0, 0));
    let mv = WireMove {
        phase: Phase::Aggregation,
        from_node: 0,
        to_node: 1,
        wire_bytes: 555,
        src: key,
        dst: key,
    };
    // The source block was never produced (implicit zero): the move is a
    // success that ships nothing. Model bytes for the planned move are the
    // driver's job — the transport only counts physical payload.
    assert_eq!(
        transport.execute(&mv, 0).expect("not a failure"),
        MoveOutcome::ImplicitZero
    );
    assert_eq!(stats.payload_bytes(), 0);
    assert_eq!(stats.moves(), 1);
    assert!(stores.node(1).get(&key).is_none());
}

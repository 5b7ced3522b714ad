//! Elastic membership at the cluster layer: the byte counts a membership
//! change reports, and the membership log across a session of resizes.
//!
//! The invariant under test for the reports: a rebalance's migration
//! bytes land in its `RebalanceReport`'s stats **exactly once**, under
//! [`Phase::Rebalance`] and no other phase — never smeared into job
//! phases, never repeated by a later resize.

use distme_cluster::rebalance::home_node;
use distme_cluster::{
    ClusterConfig, LocalCluster, MembershipEvent, Phase, PhaseStats, RebalancePlan, StoreKey,
};
use distme_matrix::{Block, BlockId, DenseBlock};
use std::sync::Arc;

fn block(seed: usize) -> Arc<Block> {
    Arc::new(Block::Dense(DenseBlock::from_fn(4, 4, |i, j| {
        (seed + i * 4 + j) as f64
    })))
}

/// A 4-node cluster with a few operand blocks resident at their homes.
fn seeded_cluster() -> LocalCluster {
    let c = LocalCluster::new(ClusterConfig::laptop());
    let uid = 7;
    for id in [BlockId::new(0, 0), BlockId::new(1, 2), BlockId::new(3, 1)] {
        let key = StoreKey::operand(uid, id);
        c.stores()
            .ingest(home_node(id, 0, 4), key, block(id.row as usize));
        c.stores()
            .ingest(home_node(id, 1, 4), key, block(id.row as usize));
    }
    c
}

#[test]
fn snapshot_deltas_span_a_membership_change_exactly_once() {
    let mut c = seeded_cluster();
    // Every seeded block is one 4×4 dense frame, so the moves the plan
    // lists fix the bytes: all of them shuffled, the off-node ones crossed.
    let plan = RebalancePlan::derive(&c.stores().resident_keys(), 9);
    let moves = plan
        .units
        .iter()
        .flat_map(|u| u.to.iter().map(|&to| (u.from, to)));
    let (all, off_node) = moves.fold((0, 0), |(n, x), (from, to)| {
        (n + 1, x + u64::from(from != to))
    });
    let frame = distme_matrix::codec::encoded_len(&block(0));

    let report = c.scale_to(9).expect("grow");
    assert!(
        report.payload_bytes > 0,
        "a grow on a seeded store migrates"
    );
    let rebalance = report.stats.phase(Phase::Rebalance);
    assert_eq!(
        rebalance.shuffle_bytes, report.payload_bytes,
        "the report's phase bytes carry the migration bytes"
    );
    assert_eq!(rebalance.shuffle_bytes, all * frame);
    assert_eq!(rebalance.cross_node_bytes, off_node * frame);
    for phase in [Phase::Repartition, Phase::LocalMult, Phase::Aggregation] {
        assert_eq!(
            *report.stats.phase(phase),
            PhaseStats::default(),
            "migration must not smear into {}",
            phase.label()
        );
    }

    // A resize to the current size reports the bytes zero more times.
    let noop = c.scale_to(9).expect("no-op");
    assert_eq!((noop.moves, noop.payload_bytes), (0, 0));
    assert_eq!(noop.stats.communication_bytes(), 0);

    // A second resize reports only its own migration; merged, the two
    // reports are the session's migration total.
    let shrink = c.scale_to(4).expect("shrink");
    assert_eq!(
        shrink.stats.phase(Phase::Rebalance).shuffle_bytes,
        shrink.payload_bytes
    );
    let mut total = report.stats;
    total.merge(&shrink.stats);
    assert_eq!(
        total.phase(Phase::Rebalance).shuffle_bytes,
        report.payload_bytes + shrink.payload_bytes
    );
}

#[test]
fn membership_log_records_the_whole_session() {
    let mut c = seeded_cluster();
    c.scale_to(9).expect("grow");

    // Decommission a node that holds nothing: nothing can get lost, but
    // the grid still shrinks and the event still logs.
    let resident = c.stores().resident_keys();
    let victim = (0..9)
        .find(|n| resident.values().all(|holders| !holders.contains(n)))
        .expect("three dual-homed blocks cannot cover nine nodes");
    c.decommission_node(victim)
        .expect("empty node decommissions cleanly");

    assert_eq!(c.epoch(), 2);
    assert_eq!(c.config().nodes, 8);
    let log = c.membership().log();
    assert_eq!(log.len(), 2);
    assert_eq!(log[0], (1, MembershipEvent::ScaleTo { from: 4, to: 9 }));
    assert_eq!(log[1], (2, MembershipEvent::Decommission { node: victim }));

    // Every resident key still sits at its homes on the shrunk grid.
    for (key, holders) in c.stores().resident_keys() {
        let homes: std::collections::BTreeSet<usize> =
            [home_node(key.id, 0, 8), home_node(key.id, 1, 8)]
                .into_iter()
                .collect();
        assert_eq!(holders, homes, "{key:?} not at its 8-grid homes");
    }
}

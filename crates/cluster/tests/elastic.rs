//! Elastic membership at the cluster layer: ledger snapshot deltas that
//! span a membership change, and the membership log across a session of
//! resizes.
//!
//! The invariant under test for the snapshots: a rebalance's migration
//! bytes land in a spanning [`LedgerSnapshot::since`] delta **exactly
//! once**, under [`Phase::Rebalance`] and no other phase — never smeared
//! into job phases, never double-counted by later deltas.

use distme_cluster::rebalance::home_node;
use distme_cluster::{ClusterConfig, LocalCluster, MembershipEvent, Phase, StoreKey};
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
    // Pre-existing job traffic: must stay out of the spanning delta.
    c.ledger().record_shuffle(Phase::Repartition, 0, 1, 100);
    let mark = c.ledger().snapshot();

    let report = c.scale_to(9).expect("grow");
    assert!(
        report.payload_bytes > 0,
        "a grow on a seeded store migrates"
    );

    let delta = c.ledger().since(&mark);
    assert_eq!(
        delta.shuffle_bytes(Phase::Rebalance),
        report.payload_bytes,
        "the spanning delta must carry the migration bytes"
    );
    assert_eq!(
        delta.cross_node_bytes(Phase::Rebalance),
        report.stats.phase(Phase::Rebalance).cross_node_bytes
    );
    for phase in [Phase::Repartition, Phase::LocalMult, Phase::Aggregation] {
        assert_eq!(
            delta.shuffle_bytes(phase),
            0,
            "migration must not smear into {}",
            phase.label()
        );
    }

    // A delta taken after the resize reports the bytes zero more times.
    let after = c.ledger().snapshot();
    assert_eq!(c.ledger().since(&after).shuffle_bytes(Phase::Rebalance), 0);

    // Cumulative counters: prior traffic untouched, rebalance accumulated.
    assert_eq!(c.ledger().shuffle_bytes(Phase::Repartition), 100);
    assert_eq!(
        c.ledger().shuffle_bytes(Phase::Rebalance),
        report.payload_bytes
    );

    // A second resize stacks on top cumulatively, and a snapshot taken
    // between the two sees only the second migration.
    let between = c.ledger().snapshot();
    let shrink = c.scale_to(4).expect("shrink");
    assert_eq!(
        c.ledger().since(&between).shuffle_bytes(Phase::Rebalance),
        shrink.payload_bytes
    );
    assert_eq!(
        c.ledger().shuffle_bytes(Phase::Rebalance),
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

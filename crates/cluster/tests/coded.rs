//! Coded replication acceptance: chaos + elastic, combined.
//!
//! The scenario the subsystem exists for: a GNMF run with transport
//! faults active loses a node that holds *sole-copy* blocks mid-run.
//! With a [`ReplicationPolicy`] armed, the decommission reconstructs the
//! lost blocks from their coding groups' survivors — no lineage
//! recompute, no re-ingest — and the run completes with factors
//! bit-identical to the fault-free run. With coding off, the identical
//! scenario must keep failing with the typed
//! [`JobError::NodeDecommissioned`] of the elastic suite: recovery is
//! bought with parity bytes, never silently faked.

use std::collections::BTreeSet;
use std::sync::Arc;

use distme_cluster::rebalance::home_node;
use distme_cluster::{
    ClusterConfig, FaultSpec, JobError, LocalCluster, ReplicationPolicy, StoreKey,
};
use distme_engine::gnmf::{run_real, run_real_with, GnmfConfig};
use distme_engine::{RealSession, SystemProfile};
use distme_matrix::{Block, BlockId, BlockMatrix, DenseBlock, MatrixGenerator, MatrixMeta};

/// A grid where every GNMF matmul falls under the optimizer's voxel
/// exception, making the summation order — and therefore the result
/// bits — independent of the node count. Same constants as the elastic
/// suite in `distme-engine`.
fn elastic_cfg(nodes: usize) -> ClusterConfig {
    ClusterConfig {
        nodes,
        tasks_per_node: 10,
        ..ClusterConfig::laptop()
    }
}

fn small_v() -> BlockMatrix {
    let meta = MatrixMeta::sparse(64, 48, 0.3).with_block_size(16);
    MatrixGenerator::with_seed(3)
        .value_range(1.0, 5.0)
        .generate(&meta)
        .unwrap()
}

/// Exact bit pattern of a factor: block ids plus every f64's bits.
fn factor_bits(m: &BlockMatrix) -> Vec<u64> {
    let mut out = Vec::new();
    for (id, blk) in m.blocks() {
        out.push(u64::from(id.row));
        out.push(u64::from(id.col));
        out.extend(blk.to_dense().data().iter().map(|x| x.to_bits()));
    }
    out
}

fn gnmf_cfg() -> GnmfConfig {
    GnmfConfig {
        factor_dim: 16,
        iterations: 6,
    }
}

fn faults() -> FaultSpec {
    FaultSpec {
        seed: 14,
        drop_rate: 0.05,
        corrupt_rate: 0.03,
        crash_rate: 0.0,
        blackouts: Vec::new(),
    }
}

/// A node currently holding at least one single-copy data block — the
/// node whose loss is unrecoverable without parity.
fn node_with_a_sole_copy(s: &RealSession) -> Option<usize> {
    s.cluster()
        .stores()
        .resident_keys()
        .into_iter()
        .find(|(key, holders)| !key.is_parity() && key.copy == 0 && holders.len() == 1)
        .map(|(_, holders)| *holders.iter().next().unwrap())
}

/// The tentpole: mid-GNMF loss of a node holding unreplicated blocks,
/// with drop/corruption faults active the whole time. XOR parity turns
/// the run into a success with bit-identical factors; the recovery
/// machinery (parity decode at decommission, parity decode *and* lineage
/// redelivery on the wire) is demonstrably exercised.
#[test]
fn coded_gnmf_survives_losing_a_sole_copy_node_bit_identically() {
    let v = small_v();
    let cfg = gnmf_cfg();
    let mut clean = RealSession::new(elastic_cfg(4), SystemProfile::DistMe);
    let baseline = run_real(&mut clean, &v, &cfg, 42).expect("fault-free GNMF");

    let mut coded = RealSession::new(
        elastic_cfg(4).with_replication(ReplicationPolicy::Xor),
        SystemProfile::DistMe,
    );
    coded.inject_faults(faults());
    let mut recovery = None;
    let res = run_real_with(&mut coded, &v, &cfg, 42, |s, iter| {
        if iter == 2 {
            let node = node_with_a_sole_copy(s).expect("some block must be a sole copy");
            recovery = Some(s.decommission_node(node)?);
        }
        Ok(())
    })
    .expect("coded run must survive the decommission");

    let report = recovery.expect("the decommission hook must run");
    assert_eq!(report.from_nodes, 4);
    assert_eq!(report.to_nodes, 3);
    assert_eq!(report.lost_blocks, 0, "parity decode must cover every loss");
    assert!(
        report.stats.reconstructed_blocks > 0,
        "the dying node held a sole copy: recovery must be a decode, not a no-op"
    );
    assert!(report.stats.reconstruction_payload_bytes > 0);
    assert!(
        report.stats.parity_blocks_encoded > 0,
        "parity must be re-encoded for the shrunk grid"
    );

    // Session totals: parity was materialized during jobs, dropped
    // deliveries of coded blocks were decoded from survivors, and the
    // lineage path still handled what parity does not cover
    // (intermediate copies) — both recovery tiers ran.
    assert!(coded.stats().parity_blocks_encoded > 0);
    assert!(coded.stats().reconstructed_blocks > 0);
    assert!(
        coded.stats().redelivered_moves > 0,
        "lineage fallback must still be exercised and counted"
    );

    assert_eq!(factor_bits(&res.w), factor_bits(&baseline.w));
    assert_eq!(factor_bits(&res.h), factor_bits(&baseline.h));
    let bits = |o: &[f64]| o.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&res.objective), bits(&baseline.objective));
}

/// The control: the identical scenario with coding off must keep the
/// typed elastic-suite failure — no silent recovery, no wrong bytes.
#[test]
fn uncoded_gnmf_still_fails_the_same_scenario_with_a_typed_error() {
    let v = small_v();
    let cfg = gnmf_cfg();
    let mut s = RealSession::new(elastic_cfg(4), SystemProfile::DistMe);
    s.inject_faults(faults());
    let err = run_real_with(&mut s, &v, &cfg, 42, |s, iter| {
        if iter == 2 {
            let node = node_with_a_sole_copy(s).expect("some block must be a sole copy");
            s.decommission_node(node)?;
        }
        Ok(())
    })
    .expect_err("losing a sole copy without parity must fail");
    assert_eq!(err.annotation(), "N.D.");
    assert!(matches!(
        err,
        JobError::NodeDecommissioned { lost_blocks, .. } if lost_blocks > 0
    ));
    assert_eq!(s.stats().reconstructed_blocks, 0);
    assert_eq!(s.stats().parity_blocks_encoded, 0);
}

fn probe_block(seed: u64) -> Block {
    let mut state = seed | 1;
    Block::Dense(DenseBlock::from_fn(3, 3, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((state >> 33) % 2000) as f64 / 100.0 - 10.0
    }))
}

/// Losing more blocks than one group's erasure budget covers must
/// surface the typed error even with parity armed — never wrong bytes,
/// never a silent partial recovery. Co-locating sole copies of blocks
/// with *distinct canonical homes* on one node puts several members of
/// the same XOR group behind a single failure.
#[test]
fn losses_beyond_the_erasure_budget_keep_the_typed_error() {
    let mut cluster = LocalCluster::new(elastic_cfg(4).with_replication(ReplicationPolicy::Xor));
    let stores = cluster.stores();
    let matrix = 0xC0DE;
    let doomed = 1usize;
    let mut canonical_homes = BTreeSet::new();
    for i in 0..6u32 {
        let id = BlockId::new(i, 0);
        canonical_homes.insert(home_node(id, 0, 4));
        stores.ingest(
            doomed,
            StoreKey::operand(matrix, id),
            Arc::new(probe_block(u64::from(i) + 1)),
        );
    }
    assert!(
        canonical_homes.len() >= 2,
        "the probe ids must span at least two canonical homes, so some \
         group loses two members at once"
    );
    assert!(cluster.encode_parity(matrix) > 0);

    let err = cluster
        .decommission_node(doomed)
        .expect_err("a whole co-located group exceeds the XOR budget");
    assert!(matches!(
        err,
        JobError::NodeDecommissioned { node, lost_blocks } if node == doomed && lost_blocks > 0
    ));
    // The damaged matrix is evicted everywhere — no hole left behind.
    assert!(cluster
        .stores()
        .resident_keys()
        .keys()
        .all(|k| k.matrix != matrix));
}

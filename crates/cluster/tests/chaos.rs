//! Chaos suite: the recovery invariant under seeded fault injection.
//!
//! Every run below executes a real distributed multiply while the
//! transport drops deliveries, flips payload bits (caught by the codec's
//! frame checksum), crashes tasks, and blacks out whole nodes. The
//! invariant is absolute: a faulted job either completes **bit-identical**
//! to its fault-free twin, or fails with a clean typed [`JobError`] —
//! never a panic, never a hang, never a silently wrong result.
//!
//! Faults are deterministic functions of `(seed, event identity)`, so any
//! failing case replays exactly from its printed seed.

use distme_cluster::{
    Blackout, ClusterConfig, FaultSpec, JobError, JobStats, LocalCluster, Phase, ReplicationPolicy,
};
use distme_core::real_exec;
use distme_core::MulMethod;
use distme_matrix::{BlockMatrix, MatrixGenerator, MatrixMeta};
use proptest::prelude::*;

const BS: u64 = 16;

fn operands(ib: u64, kb: u64, jb: u64) -> (BlockMatrix, BlockMatrix) {
    let am = MatrixMeta::dense(ib * BS, kb * BS).with_block_size(BS);
    let bm = MatrixMeta::dense(kb * BS, jb * BS).with_block_size(BS);
    let a = MatrixGenerator::with_seed(31).generate(&am).unwrap();
    let b = MatrixGenerator::with_seed(32).generate(&bm).unwrap();
    (a, b)
}

/// One multiply on a fresh cluster, optionally under a fault schedule.
fn run(
    a: &BlockMatrix,
    b: &BlockMatrix,
    method: MulMethod,
    spec: Option<FaultSpec>,
) -> Result<(BlockMatrix, JobStats, LocalCluster), JobError> {
    let cluster = LocalCluster::new(ClusterConfig::laptop());
    if let Some(spec) = spec {
        cluster.inject_faults(spec);
    }
    let (c, stats) = real_exec::multiply(&cluster, a, b, method)?;
    Ok((c, stats, cluster))
}

fn methods() -> [MulMethod; 4] {
    [
        MulMethod::Bmm,
        MulMethod::Cpmm,
        MulMethod::Rmm,
        MulMethod::CuboidAuto,
    ]
}

/// The acceptance run: a fixed seed with dropped deliveries, corrupted
/// frames, and task crashes all active at once must recover to the exact
/// fault-free bytes — with the recovery machinery demonstrably exercised.
#[test]
fn fixed_seed_drop_corruption_and_crashes_recover_bit_identically() {
    let (a, b) = operands(5, 4, 3);
    let spec = FaultSpec {
        seed: 15,
        drop_rate: 0.05,
        corrupt_rate: 0.03,
        crash_rate: 0.05,
        blackouts: Vec::new(),
    };
    let (clean, clean_stats, clean_cluster) =
        run(&a, &b, MulMethod::Cpmm, None).expect("fault-free CPMM");
    let (faulted, stats, cluster) =
        run(&a, &b, MulMethod::Cpmm, Some(spec.clone())).expect("faulted CPMM recovers");
    let plan = cluster.fault_plan().expect("plan stays armed");

    // Recovery actually happened — this is not a vacuous pass.
    assert!(plan.dropped() > 0, "seed must drop at least one delivery");
    assert!(plan.corrupted() > 0, "seed must corrupt at least one frame");
    assert!(plan.crashed() > 0, "seed must crash at least one task");
    assert!(stats.retries > 0, "crashed tasks must be re-run");
    assert!(stats.redelivered_moves > 0, "lost frames must be re-sent");
    assert!(stats.retransmitted_payload_bytes > 0);

    // ...and left no trace in the result or the model bytes.
    assert_eq!(
        faulted.max_abs_diff(&clean).unwrap(),
        0.0,
        "recovered result must be bit-identical"
    );
    for phase in Phase::ALL {
        assert_eq!(
            cluster.ledger().shuffle_bytes(phase),
            clean_cluster.ledger().shuffle_bytes(phase),
            "model bytes diverged in {}",
            phase.label()
        );
        assert_eq!(
            cluster.ledger().cross_node_bytes(phase),
            clean_cluster.ledger().cross_node_bytes(phase),
            "cross-node model bytes diverged in {}",
            phase.label()
        );
    }
    assert_eq!(
        stats.transport_payload_bytes, clean_stats.transport_payload_bytes,
        "first-transmission payload must match the fault-free run"
    );
    assert_eq!(clean_stats.retries, 0);
    assert_eq!(clean_stats.retransmitted_payload_bytes, 0);
    // Recovery ran mid-stream, inside the one gated stage.
    assert!(stats.overlap_ratio.is_some(), "jobs report overlap");
}

/// A node blacked out for the whole job is not recoverable by retries:
/// the job must fail with a clean typed error naming the outage, not hang
/// or panic.
#[test]
fn whole_job_blackout_fails_cleanly() {
    let (a, b) = operands(3, 2, 2);
    let spec = FaultSpec {
        blackouts: vec![Blackout {
            node: 0,
            from: (0, Phase::Repartition),
            until: (u64::MAX, Phase::Aggregation),
        }],
        ..FaultSpec::quiet(1)
    };
    let Err(err) = run(&a, &b, MulMethod::Cpmm, Some(spec)) else {
        panic!("a job through a dead node cannot succeed");
    };
    let msg = err.to_string();
    assert!(msg.contains("unreachable"), "got: {msg}");
}

/// A blackout window over the job's repartition and multiply phases, with
/// XOR parity armed: deliveries sourced from the dark node are rebuilt by a
/// parity decode over the *reachable* survivors (the dark node's frames are
/// excluded from the scan), so the job completes bit-identically without
/// lineage ever reaching the dead store. The dark node hosts operand blocks
/// but no tasks here — the row-sharded SpMM schedule has fewer tasks than
/// nodes — which is exactly the loss parity covers and retries cannot.
#[test]
fn blackout_window_losses_decode_from_parity_before_lineage() {
    let am = MatrixMeta::sparse(3 * BS, 2 * BS, 0.08).with_block_size(BS);
    let bm = MatrixMeta::dense(2 * BS, 2 * BS).with_block_size(BS);
    let a = MatrixGenerator::with_seed(31).generate(&am).unwrap();
    let b = MatrixGenerator::with_seed(32).generate(&bm).unwrap();
    let spec = FaultSpec {
        blackouts: vec![Blackout {
            node: 3,
            from: (0, Phase::Repartition),
            until: (0, Phase::LocalMult),
        }],
        ..FaultSpec::quiet(7)
    };

    let clean_cluster = LocalCluster::new(ClusterConfig::laptop());
    let (clean, _) =
        real_exec::multiply(&clean_cluster, &a, &b, MulMethod::SpmmShift).expect("fault-free SpMM");

    let coded = LocalCluster::new(ClusterConfig::laptop().with_replication(ReplicationPolicy::Xor));
    coded.inject_faults(spec.clone());
    let (c, stats) = real_exec::multiply(&coded, &a, &b, MulMethod::SpmmShift)
        .expect("coded run must ride out the blackout");
    assert!(
        stats.reconstructed_blocks > 0,
        "losses inside the window must be parity decodes"
    );
    assert!(stats.reconstruction_payload_bytes > 0);
    assert_eq!(
        stats.redelivered_moves, 0,
        "lineage must never touch the dark store"
    );
    assert_eq!(
        c.max_abs_diff(&clean).unwrap(),
        0.0,
        "decoded result must be bit-identical"
    );

    // The control: the identical window without parity is unrecoverable —
    // lineage redelivery keeps hitting the dark node until retries
    // exhaust, and the typed error names the lost block.
    let uncoded = LocalCluster::new(ClusterConfig::laptop());
    uncoded.inject_faults(spec);
    let err = real_exec::multiply(&uncoded, &a, &b, MulMethod::SpmmShift)
        .expect_err("no parity, no recovery");
    assert!(matches!(err, JobError::TaskFailed { .. }), "got: {err}");
}

/// Certain corruption, or certain loss with replication off, defeats every
/// redelivery: the exhausted retry budget must surface as a typed failure
/// carrying the attempt count and naming the block — and CPMM's
/// aggregation tasks, gated behind the mult tasks that just failed, must
/// drain instead of hanging the job.
#[test]
fn certain_faults_exhaust_retries_into_a_typed_failure() {
    let (a, b) = operands(3, 2, 2);
    let certain = [
        (
            FaultSpec {
                corrupt_rate: 1.0,
                ..FaultSpec::quiet(2)
            },
            "arrived corrupt",
        ),
        (
            FaultSpec {
                drop_rate: 1.0,
                ..FaultSpec::quiet(2)
            },
            "lost in transit",
        ),
    ];
    for (spec, what) in certain {
        let Err(err) = run(&a, &b, MulMethod::Cpmm, Some(spec)) else {
            panic!("a certain fault cannot succeed");
        };
        assert!(matches!(err, JobError::TaskFailed { .. }), "got: {err}");
        let attempts = ClusterConfig::laptop().retry.max_attempts;
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("failed after {attempts} attempts")),
            "got: {msg}"
        );
        assert!(msg.contains(what), "got: {msg}");
        assert!(msg.contains("block ("), "names the block, got: {msg}");
    }
}

/// The same seeded 1 % drop schedule with coding off and on: XOR parity
/// turns lineage retransmissions of coded blocks into reconstructions from
/// group survivors, so strictly fewer bytes re-ride the wire, and what is
/// retransmitted plus what is read to reconstruct never exceeds what pure
/// redelivery retransmits.
#[test]
fn xor_parity_saves_retransmitted_bytes_under_seeded_drops() {
    let bs = 64;
    let am = MatrixMeta::dense(6 * bs, 5 * bs).with_block_size(bs);
    let bm = MatrixMeta::dense(5 * bs, 4 * bs).with_block_size(bs);
    let a = MatrixGenerator::with_seed(11).generate(&am).unwrap();
    let b = MatrixGenerator::with_seed(22).generate(&bm).unwrap();
    let run = |policy: ReplicationPolicy| {
        let cluster = LocalCluster::new(ClusterConfig::laptop().with_replication(policy));
        cluster.inject_faults(FaultSpec {
            drop_rate: 0.01,
            ..FaultSpec::quiet(70)
        });
        let (_, stats) = real_exec::multiply(&cluster, &a, &b, MulMethod::CuboidAuto)
            .expect("recovers under faults");
        stats
    };
    let (off, xor) = (run(ReplicationPolicy::Off), run(ReplicationPolicy::Xor));
    assert!(off.retransmitted_payload_bytes > 0, "the seed must drop");
    assert!(xor.retransmitted_payload_bytes < off.retransmitted_payload_bytes);
    assert!(
        xor.retransmitted_payload_bytes + xor.reconstruction_payload_bytes
            <= off.retransmitted_payload_bytes
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The sweep: random seeds and fault rates over every method and a
    /// few shapes. Whatever the schedule does, the outcome is either the
    /// exact fault-free bytes or a clean typed error.
    #[test]
    fn any_fault_schedule_is_bit_identical_or_a_clean_error(
        seed in any::<u64>(),
        drop_rate in 0.0f64..0.25,
        corrupt_rate in 0.0f64..0.15,
        crash_rate in 0.0f64..0.25,
        method_idx in 0usize..4,
        shape_idx in 0usize..2,
    ) {
        let (ib, kb, jb) = [(3, 2, 2), (2, 4, 1)][shape_idx];
        let (a, b) = operands(ib, kb, jb);
        let method = methods()[method_idx];
        let (clean, clean_stats, _) =
            run(&a, &b, method, None).expect("fault-free runs never fail");
        let spec = FaultSpec {
            seed,
            drop_rate,
            corrupt_rate,
            crash_rate,
            blackouts: Vec::new(),
        };
        match run(&a, &b, method, Some(spec)) {
            Ok((c, stats, _)) => {
                prop_assert_eq!(c.max_abs_diff(&clean).unwrap(), 0.0);
                prop_assert_eq!(
                    stats.transport_payload_bytes,
                    clean_stats.transport_payload_bytes
                );
            }
            // Exhausted retries are an acceptable outcome at high rates —
            // but only as a typed failure, which `run` returning `Err`
            // already proves (a panic or hang would not reach here).
            Err(JobError::TaskFailed { .. }) => {}
            Err(other) => panic!("unexpected failure mode: {other}"),
        }
    }

    /// Blackouts that cover only a window of `(job, phase)` steps: jobs
    /// whose phases all miss the window recover; the invariant holds
    /// either way.
    #[test]
    fn windowed_blackouts_hold_the_invariant(
        seed in any::<u64>(),
        from_step in 0u64..4,
        len in 0u64..3,
        method_idx in 0usize..4,
    ) {
        // Step s of the axis: phase s % 3 of job s / 3.
        let at = |step: u64| (step / 3, Phase::ALL[(step % 3) as usize]);
        let (a, b) = operands(3, 2, 2);
        let method = methods()[method_idx];
        let (clean, _, _) = run(&a, &b, method, None).expect("fault-free runs never fail");
        let spec = FaultSpec {
            blackouts: vec![Blackout {
                node: 1,
                from: at(from_step),
                until: at(from_step + len),
            }],
            ..FaultSpec::quiet(seed)
        };
        match run(&a, &b, method, Some(spec)) {
            Ok((c, _, _)) => prop_assert_eq!(c.max_abs_diff(&clean).unwrap(), 0.0),
            Err(JobError::TaskFailed { .. }) => {}
            Err(other) => panic!("unexpected failure mode: {other}"),
        }
    }
}

//! Sim/real byte parity: the invariant the physical-plan IR enforces.
//!
//! Both backends consume the same `JobPlan` for a given (problem, method,
//! cluster config), and both copy its routed communication into their
//! job's `JobStats`. Per-phase shuffle, cross-node, and broadcast bytes
//! must therefore be **bit-identical** between the two backends' stats —
//! not merely close — for every method, replication regime, and GPU
//! setting. The real executor's *result* is held to a serial reference
//! written here.

use distme::matrix::{kernels, BlockId};
use distme::prelude::*;
use distme_core::real_exec::RealExecOptions;
use distme_core::{JobPlan, TaskWork};
use distme_gpu::GpuConfig;
use std::collections::BTreeMap;

const BS: u64 = 16;

fn operands(ib: u64, kb: u64, jb: u64, sparsity: f64) -> (BlockMatrix, BlockMatrix) {
    let am = MatrixMeta::sparse(ib * BS, kb * BS, sparsity).with_block_size(BS);
    let bm = MatrixMeta::sparse(kb * BS, jb * BS, sparsity).with_block_size(BS);
    let a = MatrixGenerator::with_seed(101).generate(&am).unwrap();
    let b = MatrixGenerator::with_seed(202).generate(&bm).unwrap();
    (a, b)
}

/// A phase's (shuffle, cross-node, broadcast) bytes.
fn comm(stats: &JobStats, phase: Phase) -> (u64, u64, u64) {
    let p = stats.phase(phase);
    (p.shuffle_bytes, p.cross_node_bytes, p.broadcast_bytes)
}

/// Runs one (shape, method) case on both backends and asserts per-phase
/// byte equality. `gpu` switches the sim cluster to the paper's GPU model
/// and the real executor to the Algorithm 1 subcuboid schedule — neither
/// may change a single communicated byte.
fn assert_parity(a: &BlockMatrix, b: &BlockMatrix, method: MulMethod, gpu: bool, label: &str) {
    let mut cfg = ClusterConfig::laptop();
    if gpu {
        cfg.gpu = Some(GpuConfig::tiny(1 << 20));
    }

    let problem = MatmulProblem::new(*a.meta(), *b.meta()).expect("consistent operands");
    let mut sim = SimCluster::new(cfg);
    let sim_stats = sim_exec::simulate(&mut sim, &problem, method)
        .unwrap_or_else(|e| panic!("{label}: sim failed: {e}"));

    // The real cluster runs Algorithm 1 under the same config's θg.
    let real_cluster = LocalCluster::new(cfg);
    let (_, real_stats) = real_exec::multiply(&real_cluster, a, b, method)
        .unwrap_or_else(|e| panic!("{label}: real failed: {e}"));

    for phase in Phase::ALL {
        assert_eq!(
            comm(&sim_stats, phase),
            comm(&real_stats, phase),
            "{label}: (shuffle, cross-node, broadcast) bytes diverge in {}",
            phase.label()
        );
    }
}

fn methods() -> Vec<(MulMethod, &'static str)> {
    vec![
        (MulMethod::Bmm, "BMM"),   // broadcast, R = 1
        (MulMethod::Cpmm, "CPMM"), // R = K > 1
        (MulMethod::Rmm, "RMM"),   // voxel hash, R = K
        (MulMethod::Cuboid(CuboidSpec::new(2, 2, 1)), "Cuboid R=1"),
        (MulMethod::Cuboid(CuboidSpec::new(2, 2, 2)), "Cuboid R>1"),
        (MulMethod::CuboidAuto, "CuboidMM"),
        (MulMethod::Crmm, "CRMM"),            // pre-shuffle
        (MulMethod::SpmmShift, "SpMM-shift"), // row shards, rotating panels
    ]
}

#[test]
fn bytes_are_bit_identical_across_backends_cpu() {
    for (ib, kb, jb) in [(5, 4, 3), (2, 6, 2), (4, 1, 4)] {
        let (a, b) = operands(ib, kb, jb, 1.0);
        for (method, name) in methods() {
            assert_parity(&a, &b, method, false, &format!("{ib}x{kb}x{jb} {name} cpu"));
        }
    }
}

#[test]
fn bytes_are_bit_identical_across_backends_gpu() {
    let (a, b) = operands(5, 4, 3, 1.0);
    for (method, name) in methods() {
        assert_parity(&a, &b, method, true, &format!("5x4x3 {name} gpu"));
    }
}

#[test]
fn bytes_are_bit_identical_for_sparse_operands() {
    let (a, b) = operands(5, 4, 3, 0.08);
    for (method, name) in [
        (MulMethod::Cpmm, "CPMM"),
        (MulMethod::Rmm, "RMM"),
        (MulMethod::CuboidAuto, "CuboidMM"),
    ] {
        assert_parity(&a, &b, method, false, &format!("sparse {name}"));
    }
}

/// What `plan` computes, written serially: the plan's mult tasks in index
/// order, each output cell accumulated over `k` ascending (voxel buckets in
/// their listed order), the producer copies of a block summed in ascending
/// copy order and normalized. No threads, stores, transport or scheduler —
/// the executor must land on these bits whatever its workers' timing.
fn serial_reference(
    plan: &JobPlan,
    a: &BlockMatrix,
    b: &BlockMatrix,
    mask: Option<&BlockMatrix>,
) -> BlockMatrix {
    let mult = plan.stage(Phase::LocalMult).expect("plans always multiply");
    let mut copies: BTreeMap<BlockId, Vec<Block>> = BTreeMap::new();
    for task in &mult.tasks {
        let mut produced: BTreeMap<BlockId, Block> = BTreeMap::new();
        match &task.work {
            TaskWork::Cuboid(c) => {
                for id in c.c_block_ids() {
                    let operands =
                        (c.k0..c.k1).filter_map(|k| Some((a.get(id.row, k)?, b.get(k, id.col)?)));
                    if let Some(mask) = mask {
                        let Some(pattern) = mask.get(id.row, id.col).map(Block::to_sparse) else {
                            continue;
                        };
                        if pattern.nnz() == 0 {
                            continue;
                        }
                        let mut values = vec![0.0; pattern.nnz()];
                        for (ab, bb) in operands {
                            let (ad, bd) = (ab.to_dense(), bb.to_dense());
                            kernels::sddmm::sddmm_acc(&ad, &bd, &pattern, &mut values).unwrap();
                        }
                        let csr = CsrBlock::from_raw_parts(
                            pattern.rows(),
                            pattern.cols(),
                            pattern.row_ptr().to_vec(),
                            pattern.col_idx().to_vec(),
                            values,
                        )
                        .unwrap();
                        produced.insert(id, Block::Sparse(csr));
                    } else {
                        let mut acc: Option<DenseBlock> = None;
                        for (ab, bb) in operands {
                            let acc = acc.get_or_insert_with(|| {
                                let (rows, cols) = plan.problem.c.block_dims(id.row, id.col);
                                DenseBlock::zeros(rows as usize, cols as usize)
                            });
                            kernels::multiply_accumulate(acc, ab, bb).unwrap();
                        }
                        if let Some(acc) = acc {
                            produced.insert(id, Block::Dense(acc));
                        }
                    }
                }
            }
            TaskWork::Voxels(voxels) => {
                for &(i, j, k) in voxels {
                    let (Some(ab), Some(bb)) = (a.get(i, k), b.get(k, j)) else {
                        continue;
                    };
                    let prod = kernels::multiply(ab, bb).unwrap();
                    let id = BlockId::new(i, j);
                    let merged = match produced.remove(&id) {
                        None => prod,
                        Some(prev) => prev.add(&prod).unwrap(),
                    };
                    produced.insert(id, merged);
                }
            }
            TaskWork::MapRead | TaskWork::Aggregate(_) => {}
        }
        for (id, blk) in produced {
            copies.entry(id).or_default().push(blk);
        }
    }
    let aggregates = plan.stage(Phase::Aggregation).is_some();
    let mut c = BlockMatrix::new(plan.problem.c);
    for (id, parts) in copies {
        let mut parts = parts.into_iter();
        let first = parts.next().expect("an entry holds at least one copy");
        let blk = if aggregates {
            parts
                .fold(first, |sum, part| sum.add(&part).unwrap())
                .normalize()
        } else if mask.is_some() {
            first // the sampled pattern survives verbatim
        } else {
            first.normalize()
        };
        if blk.nnz() > 0 {
            c.put(id.row, id.col, blk).unwrap();
        }
    }
    c
}

/// Exact identity of a result: block ids, storage formats, every f64's bits.
fn result_bits(m: &BlockMatrix) -> Vec<(BlockId, bool, Vec<u64>)> {
    m.blocks()
        .map(|(id, blk)| {
            let bits = blk.to_dense().data().iter().map(|x| x.to_bits()).collect();
            (id, matches!(blk, Block::Sparse(_)), bits)
        })
        .collect()
}

#[test]
fn executor_matches_a_serial_reference_bit_for_bit() {
    // One executor, so nothing to compare it with but the definition: for
    // every method (SDDMM included), dense and 8 % sparse operands, one
    // k-panel a task and several, θg off and on, the result is the serial
    // reference's bits; the job's stats and the simulator's both report
    // the plan's routed bytes; and the job says how many panels its
    // mult tasks pulled and how its communication overlapped.
    //
    // The large shape is tall and deep but 16 columns wide — three
    // 512 KiB-block k-panels a task, few FLOPs; its single block column
    // rules out the two fixed `Q = 2` grids.
    let sampled = (MulMethod::Sddmm, "SDDMM");
    for (rows, inner, cols, bs) in [(5 * BS, 4 * BS, 3 * BS, BS), (512, 768, 16, 256)] {
        for sparsity in [1.0, 0.08] {
            let am = MatrixMeta::sparse(rows, inner, sparsity).with_block_size(bs);
            let bm = MatrixMeta::sparse(inner, cols, sparsity).with_block_size(bs);
            let mm = MatrixMeta::sparse(rows, cols, 0.12).with_block_size(bs);
            let a = MatrixGenerator::with_seed(101).generate(&am).unwrap();
            let b = MatrixGenerator::with_seed(202).generate(&bm).unwrap();
            let mask = MatrixGenerator::with_seed(303).generate(&mm).unwrap();
            for theta_g in [None, Some(4 * bs * bs * 8)] {
                for (method, name) in methods().into_iter().chain([sampled]) {
                    if matches!(method, MulMethod::Cuboid(spec) if u64::from(spec.q) * bs > cols) {
                        continue;
                    }
                    let label =
                        format!("{rows}x{inner}x{cols} {name} sparsity {sparsity} θg {theta_g:?}");
                    let mask = (method == MulMethod::Sddmm).then_some(&mask);
                    let problem = match mask {
                        Some(mask) => MatmulProblem::sddmm(am, bm, *mask.meta()),
                        None => MatmulProblem::new(am, bm),
                    }
                    .expect("consistent operands");

                    let cluster = LocalCluster::new(ClusterConfig {
                        gpu: theta_g.map(GpuConfig::tiny),
                        ..ClusterConfig::laptop()
                    });
                    let plan = JobPlan::build(&problem, method, cluster.config());
                    let opts = RealExecOptions::default();
                    let (c, stats) =
                        real_exec::execute_plan_masked(&cluster, &a, &b, mask, &plan, opts)
                            .unwrap_or_else(|e| panic!("{label}: {e}"));
                    assert_eq!(
                        result_bits(&c),
                        result_bits(&serial_reference(&plan, &a, &b, mask)),
                        "{label}: result must be the serial reference's bits"
                    );

                    let mut sim = SimCluster::new(ClusterConfig::laptop());
                    let sim_stats = sim_exec::simulate(&mut sim, &problem, method)
                        .unwrap_or_else(|e| panic!("{label} sim: {e}"));
                    for phase in Phase::ALL {
                        let routed = plan.phase_comm(phase);
                        let routed = (
                            routed.shuffle_bytes,
                            routed.cross_node_bytes,
                            routed.broadcast_bytes,
                        );
                        assert_eq!(
                            comm(&stats, phase),
                            routed,
                            "{label}: stats (shuffle, cross-node, broadcast) bytes diverge in {}",
                            phase.label()
                        );
                        assert_eq!(
                            comm(&sim_stats, phase),
                            comm(&stats, phase),
                            "{label}: sim bytes diverge in {}",
                            phase.label()
                        );
                    }
                    let ratio = stats
                        .overlap_ratio
                        .unwrap_or_else(|| panic!("{label}: jobs report overlap"));
                    assert!((0.0..=1.0).contains(&ratio), "{label}: ratio {ratio}");
                    let panels: u64 = plan
                        .stage(Phase::LocalMult)
                        .unwrap()
                        .tasks
                        .iter()
                        .map(|t| match &t.work {
                            TaskWork::Cuboid(c) => u64::from(c.k1 - c.k0),
                            _ => 1,
                        })
                        .sum();
                    assert_eq!(
                        (stats.prefetch_hits, stats.prefetch_stalls),
                        (0, panels),
                        "{label}: every panel is pulled by the task that consumes it"
                    );
                }
            }
        }
    }
}

#[test]
fn fault_recovery_preserves_parity() {
    // The recovery invariant meets the parity invariant: a run that drops,
    // corrupts, and crashes its way to completion must report the exact
    // model bytes of the fault-free run (they are the plan's routing, not
    // a count of physical deliveries) and the exact first-transmission
    // payload. Recovery traffic is visible only in the
    // dedicated retransmission counters.
    use distme::cluster::FaultSpec;
    let (a, b) = operands(5, 4, 3, 1.0);
    for (method, name) in [
        (MulMethod::Cpmm, "CPMM"),
        (MulMethod::CuboidAuto, "CuboidMM"),
    ] {
        let clean_cluster = LocalCluster::new(ClusterConfig::laptop());
        let (c_clean, s_clean) = real_exec::multiply(&clean_cluster, &a, &b, method)
            .unwrap_or_else(|e| panic!("{name} clean: {e}"));

        let faulted_cluster = LocalCluster::new(ClusterConfig::laptop());
        let plan = faulted_cluster.inject_faults(FaultSpec {
            seed: 14,
            drop_rate: 0.05,
            corrupt_rate: 0.03,
            crash_rate: 0.05,
            blackouts: Vec::new(),
        });
        let (c_faulted, s_faulted) = real_exec::multiply(&faulted_cluster, &a, &b, method)
            .unwrap_or_else(|e| panic!("{name} faulted: {e}"));
        assert!(
            plan.dropped() + plan.corrupted() + plan.crashed() > 0,
            "{name}: the schedule must inject something"
        );

        assert_eq!(
            c_faulted.max_abs_diff(&c_clean).unwrap(),
            0.0,
            "{name}: recovered result diverged"
        );
        for phase in Phase::ALL {
            assert_eq!(
                comm(&s_faulted, phase),
                comm(&s_clean, phase),
                "{name}: model bytes diverged in {}",
                phase.label()
            );
        }
        assert_eq!(
            s_faulted.transport_payload_bytes, s_clean.transport_payload_bytes,
            "{name}: first-transmission payload diverged"
        );
        assert_eq!(s_clean.retries, 0, "{name}");
        assert_eq!(s_clean.redelivered_moves, 0, "{name}");
        assert_eq!(s_clean.retransmitted_payload_bytes, 0, "{name}");
        assert!(
            s_faulted.retransmitted_payload_bytes > 0,
            "{name}: recovery traffic must be visible in its own counter"
        );
    }
}

#[test]
fn resized_grids_rederive_parity() {
    // Elastic membership meets the parity invariant: after a mid-session
    // resize both backends re-derive their plans against the new node
    // count, and the re-derived routing must stay bit-identical. The
    // resize's own physical `Phase::Rebalance` migration (real-only) is
    // its report's, not any job's — and is checked to have landed there
    // under its own phase.
    let (a, b) = operands(5, 4, 3, 1.0);
    let problem = MatmulProblem::new(*a.meta(), *b.meta()).expect("consistent operands");
    let mut sim = SimCluster::new(ClusterConfig::laptop());
    let mut real = LocalCluster::new(ClusterConfig::laptop());
    for (nodes, stage) in [(4, "before resize"), (9, "after grow"), (3, "after shrink")] {
        if sim.config().nodes != nodes {
            sim.scale_to(nodes);
            let report = real.scale_to(nodes).expect("resize");
            assert_eq!(sim.epoch(), real.epoch(), "{stage}: epochs diverged");
            assert!(report.payload_bytes > 0, "{stage}: resident blocks migrate");
            assert_eq!(
                report.stats.phase(Phase::Rebalance).shuffle_bytes,
                report.payload_bytes,
                "{stage}: migrations are reported under their own phase"
            );
        }
        for (method, name) in [
            (MulMethod::Cpmm, "CPMM"),
            (MulMethod::CuboidAuto, "CuboidMM"),
        ] {
            let label = format!("{stage} ({nodes} nodes) {name}");
            let sim_stats = sim_exec::simulate(&mut sim, &problem, method)
                .unwrap_or_else(|e| panic!("{label}: sim failed: {e}"));
            let (_, real_stats) = real_exec::multiply(&real, &a, &b, method)
                .unwrap_or_else(|e| panic!("{label}: real failed: {e}"));
            for phase in Phase::ALL {
                assert_eq!(
                    comm(&sim_stats, phase),
                    comm(&real_stats, phase),
                    "{label}: (shuffle, cross-node, broadcast) bytes diverge in {}",
                    phase.label()
                );
            }
        }
    }
}

#[test]
fn ragged_grids_keep_parity() {
    // Partition counts that do not divide the block grid: uneven cuboid
    // bands exercise the per-block (not per-average) routing shares.
    let (a, b) = operands(5, 3, 5, 1.0);
    for spec in [
        CuboidSpec::new(4, 1, 1),
        CuboidSpec::new(3, 2, 2),
        CuboidSpec::new(1, 1, 3),
    ] {
        assert_parity(
            &a,
            &b,
            MulMethod::Cuboid(spec),
            false,
            &format!("ragged {spec:?}"),
        );
    }
}

/// A cuboid cell whose k chain mixes the packed arm (a dense A block,
/// transposed once for its step, times a sparse B block) with every other
/// pairing keeps the serial reference's bits, with θg off and on.
#[test]
fn packed_and_unpacked_sparse_products_share_one_cell_bit_for_bit() {
    // 2×3 A blocks and 3×2 B blocks, each dense (D) or sparse (S). Every
    // step's A column and B row holds both formats, and every output
    // cell's chain takes the packed arm (D × S) at some step and another
    // kernel (D × D, S × D or S × S) at another.
    const A: [[bool; 3]; 2] = [[false, true, false], [true, false, false]];
    const B: [[bool; 2]; 3] = [[true, false], [false, true], [true, true]];
    let block = |sparse: bool, seed: u64| {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let dense = DenseBlock::from_fn(BS as usize, BS as usize, |_, _| {
            let keep = !sparse || next() < 0.3;
            if keep {
                next() * 2.0 - 1.0
            } else {
                0.0
            }
        });
        if sparse {
            Block::Sparse(CsrBlock::from_dense(&dense))
        } else {
            Block::Dense(dense)
        }
    };
    let am = MatrixMeta::sparse(2 * BS, 3 * BS, 0.5).with_block_size(BS);
    let bm = MatrixMeta::sparse(3 * BS, 2 * BS, 0.5).with_block_size(BS);
    let (mut a, mut b) = (BlockMatrix::new(am), BlockMatrix::new(bm));
    for (i, row) in A.iter().enumerate() {
        for (k, &sparse) in row.iter().enumerate() {
            a.put(i as u32, k as u32, block(sparse, (i * 3 + k) as u64))
                .unwrap();
        }
    }
    for (k, row) in B.iter().enumerate() {
        for (j, &sparse) in row.iter().enumerate() {
            b.put(k as u32, j as u32, block(sparse, 100 + (k * 2 + j) as u64))
                .unwrap();
        }
    }
    let problem = MatmulProblem::new(am, bm).unwrap();
    for theta_g in [None, Some(4 * BS * BS * 8)] {
        for spec in [CuboidSpec::new(1, 1, 1), CuboidSpec::new(2, 2, 1)] {
            let label = format!("{spec:?} θg {theta_g:?}");
            let cluster = LocalCluster::new(ClusterConfig {
                gpu: theta_g.map(GpuConfig::tiny),
                ..ClusterConfig::laptop()
            });
            let plan = JobPlan::build(&problem, MulMethod::Cuboid(spec), cluster.config());
            let (c, _) = real_exec::execute_plan_masked(
                &cluster,
                &a,
                &b,
                None,
                &plan,
                RealExecOptions::default(),
            )
            .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(
                result_bits(&c),
                result_bits(&serial_reference(&plan, &a, &b, None)),
                "{label}: result must be the serial reference's bits"
            );
        }
    }
}

/// SDDMM meets the parity invariant: the masked problem routes through
/// the same repartition/broadcast machinery, so sim and real per-phase
/// bytes must be bit-identical on every grid — including ragged ones —
/// and because the sampled schedule shards by mask rows (`(I, 1, 1)`,
/// node-count independent), the gathered values themselves must be
/// bit-identical across cluster sizes.
#[test]
fn sddmm_keeps_parity_across_ragged_grids() {
    for (ib, kb, jb) in [(5, 4, 3), (2, 6, 2), (5, 3, 5)] {
        let am = MatrixMeta::dense(ib * BS, kb * BS).with_block_size(BS);
        let bm = MatrixMeta::dense(kb * BS, jb * BS).with_block_size(BS);
        let mm = MatrixMeta::sparse(ib * BS, jb * BS, 0.12).with_block_size(BS);
        let a = MatrixGenerator::with_seed(101).generate(&am).unwrap();
        let b = MatrixGenerator::with_seed(202).generate(&bm).unwrap();
        let mask = MatrixGenerator::with_seed(303).generate(&mm).unwrap();
        let problem =
            MatmulProblem::sddmm(*a.meta(), *b.meta(), *mask.meta()).expect("consistent mask");

        let mut grids = Vec::new();
        for nodes in [4, 9] {
            let label = format!("{ib}x{kb}x{jb} sddmm on {nodes} nodes");
            let cfg = ClusterConfig {
                nodes,
                ..ClusterConfig::laptop()
            };
            let mut sim = SimCluster::new(cfg);
            let sim_stats = sim_exec::simulate(&mut sim, &problem, MulMethod::Sddmm)
                .unwrap_or_else(|e| panic!("{label}: sim failed: {e}"));
            let real_cluster = LocalCluster::new(cfg);
            let (c, real_stats) = real_exec::sddmm(&real_cluster, &a, &b, &mask)
                .unwrap_or_else(|e| panic!("{label}: real failed: {e}"));
            assert!(
                real_stats.overlap_ratio.is_some(),
                "{label}: sampled jobs run the one executor, which reports overlap"
            );
            for phase in Phase::ALL {
                assert_eq!(
                    comm(&sim_stats, phase),
                    comm(&real_stats, phase),
                    "{label}: (shuffle, cross-node, broadcast) bytes diverge in {}",
                    phase.label()
                );
            }
            grids.push(result_bits(&c));
        }
        assert_eq!(
            grids[0], grids[1],
            "{ib}x{kb}x{jb}: sampled values must not depend on the node count"
        );
    }
}

/// Coded replication must be invisible when off — the default — and
/// byte-transparent when on: for every method, a fault-free run under
/// `ReplicationPolicy::Xor` produces the same result bits, the same
/// per-phase model bytes, the same physical payload, and the same
/// data-key placements as the `Off` run. Parity only *adds* keys (under
/// its own `StoreKind`); it never perturbs the data path.
#[test]
fn replication_off_is_the_default_and_xor_is_byte_transparent() {
    assert_eq!(ClusterConfig::laptop().replication, ReplicationPolicy::Off);
    assert_eq!(
        ClusterConfig::paper_cluster().replication,
        ReplicationPolicy::Off
    );

    let (a, b) = operands(5, 4, 3, 1.0);
    // Matrix uids come off a process-global counter, so the two runs name
    // the *same* result matrix differently: compare placements with uids
    // normalized to their order of appearance.
    let data_placements = |cluster: &LocalCluster| {
        let mut uid_rank = std::collections::BTreeMap::new();
        cluster
            .stores()
            .resident_keys()
            .into_iter()
            .filter(|(k, _)| !k.is_parity())
            .map(|(k, holders)| {
                let next = uid_rank.len();
                let rank = *uid_rank.entry(k.matrix).or_insert(next);
                (rank, k.id, k.copy, holders)
            })
            .collect::<Vec<_>>()
    };
    for (method, name) in methods() {
        let off = LocalCluster::new(ClusterConfig::laptop());
        let (c_off, s_off) =
            real_exec::multiply(&off, &a, &b, method).unwrap_or_else(|e| panic!("{name} off: {e}"));
        let xor =
            LocalCluster::new(ClusterConfig::laptop().with_replication(ReplicationPolicy::Xor));
        let (c_xor, s_xor) =
            real_exec::multiply(&xor, &a, &b, method).unwrap_or_else(|e| panic!("{name} xor: {e}"));

        assert_eq!(
            c_off.max_abs_diff(&c_xor).unwrap(),
            0.0,
            "{name}: result bits must not depend on the replication policy"
        );
        for phase in Phase::ALL {
            assert_eq!(
                comm(&s_off, phase),
                comm(&s_xor, phase),
                "{name}: model bytes diverge in {}",
                phase.label()
            );
        }
        assert_eq!(
            s_off.transport_payload_bytes, s_xor.transport_payload_bytes,
            "{name}: parity installs must not ride the transport"
        );
        assert_eq!(
            data_placements(&off),
            data_placements(&xor),
            "{name}: data placement hashes must be untouched by parity"
        );
        assert!(
            off.stores().resident_keys().keys().all(|k| !k.is_parity()),
            "{name}: an Off cluster must hold no parity keys"
        );
        assert_eq!(s_off.parity_blocks_encoded, 0);
        assert!(s_xor.parity_blocks_encoded > 0, "{name}: parity must exist");
        // Fault-free: neither recovery tier has anything to do.
        assert_eq!(s_off.reconstructed_blocks, 0);
        assert_eq!(s_xor.reconstructed_blocks, 0);
        assert_eq!(s_xor.retransmitted_payload_bytes, 0);
    }
}

#[test]
fn a_second_identical_job_ships_no_operand_block() {
    // The first job left every A and B block it moved where it landed,
    // and the handles live, so the second job on the cluster elides every
    // operand move. Only its own intermediate C copies cross nodes: one
    // per (destination, copy). Dense 16 × 16 blocks all encode to one
    // length.
    use distme::matrix::codec;
    use distme_core::Operand;
    use std::collections::BTreeSet;
    let (a, b) = operands(5, 4, 3, 1.0);
    let len = codec::encoded_len(&a.get_shared(0, 0).unwrap());
    let problem = MatmulProblem::new(*a.meta(), *b.meta()).unwrap();
    for (method, name) in methods() {
        let cluster = LocalCluster::new(ClusterConfig::laptop());
        let plan = JobPlan::build(&problem, method, cluster.config());
        let moves: Vec<_> = plan
            .stages
            .iter()
            .flat_map(|s| &s.tasks)
            .flat_map(|t| &t.inputs)
            .collect();
        let c_shipped: BTreeSet<_> = moves
            .iter()
            .filter(|m| m.operand == Operand::C && m.from_node != m.to_node)
            .map(|m| (m.to_node, m.id, m.copy))
            .collect();
        let run = || {
            real_exec::execute_plan(&cluster, &a, &b, &plan, RealExecOptions::default())
                .unwrap_or_else(|e| panic!("{name}: {e}"))
        };
        let (c_first, first) = run();
        let (c_second, second) = run();
        assert_eq!(c_first.max_abs_diff(&c_second).unwrap(), 0.0, "{name}");
        assert_eq!(
            second.transport_payload_bytes,
            c_shipped.len() as u64 * len,
            "{name}: only C copies ship"
        );
        assert_eq!(
            second.elided_moves,
            (moves.len() - c_shipped.len()) as u64,
            "{name}"
        );
        assert_eq!(
            second.transport_payload_bytes + second.elided_payload_bytes,
            first.transport_payload_bytes + first.elided_payload_bytes,
            "{name}: every move is counted one way or the other"
        );
        assert_eq!(
            second.peak_task_mem_bytes, first.peak_task_mem_bytes,
            "{name}"
        );
    }
}

//! The per-layer metrics of a traced run, from two sources.
//!
//! Layers the workload's operation runs through report themselves: the
//! statistics its operations returned ([`Own`]) and the spans recorded
//! around them give the pipelined executor's overlap, the service's
//! per-job overhead and admission waits, the resizes' migration rate and
//! the GNMF iteration's split. A workload that does not run a layer
//! reports 0 for it.
//!
//! Layers beneath any operation's reach are called directly, after the
//! repetitions, through their public functions and on the workload's own
//! matrices — the ladder: kernels, codec, optimizer and plan, the barrier
//! executor on a bare cluster, one empty job, transport, an empty service
//! job, parity encode, the simulator. These rungs run for every workload
//! and differ only by the shapes it brings. README.md lists, for each
//! metric, the end-to-end metric it should move and the ones it should not.
//!
//! Timings are medians over repetitions, except where parts must add back
//! up to a whole (the executor's phases, a GNMF iteration's operators):
//! those are means, so the sum holds by construction.

use crate::stats::{mean, median};
use crate::trace::{child_secs, self_secs, Span, Tracer};
use crate::workloads::{dense_matrix, Own};
use bytes::BytesMut;
use distme_cluster::{
    coding, ClusterConfig, JobStats, LocalCluster, Phase, SimCluster, StoreKey, TenantId, WireMove,
};
use distme_core::{optimizer, real_exec, sim_exec};
use distme_core::{JobPlan, MatmulProblem, MulMethod, OptimizerConfig};
use distme_engine::{JobService, JobSpec, RealSession, SystemProfile};
use distme_matrix::elementwise::EwOp;
use distme_matrix::kernels::{gemm, spmm};
use distme_matrix::{codec, Block, BlockId, BlockMatrix, CsrBlock, DenseBlock};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// What a workload hands the ladder.
pub struct LadderInput<'w> {
    /// The workload's distributed multiply, `a x b`.
    pub a: BlockMatrix,
    pub b: BlockMatrix,
    /// `(x, y, z)` of the driver-side residual `z - x·y` the workload's
    /// caller computes (GNMF's objective; elsewhere the product checked
    /// against the single-node reference).
    pub driver: (BlockMatrix, BlockMatrix, BlockMatrix),
    /// The workload's cluster when it runs with parity on, with `a`, `b`
    /// and the third `driver` matrix resident on it.
    pub coded: Option<&'w LocalCluster>,
}

/// A named measurement with its unit, in the order measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} not measured yet"))
            .value
    }
}

/// How long a rung repeats. Microsecond rungs run for a quarter of a
/// second and get thousands of samples; rungs of a tenth of a second or
/// more stop at three samples or one second, whichever comes first. Smoke
/// runs take one repetition.
#[derive(Clone, Copy)]
struct Reps {
    smoke: bool,
}

impl Reps {
    /// Seconds of each repetition of `f`. A first repetition shorter than
    /// 50 ms is a warm-up and is discarded; a longer one is dominated by
    /// its work, not by what it warms, and counts.
    fn time<T>(&self, tracer: &Tracer, name: &'static str, mut f: impl FnMut() -> T) -> Vec<f64> {
        // One span per rung, not per repetition: the microsecond rungs
        // repeat thousands of times.
        let _s = tracer.span(name);
        let start = Instant::now();
        let mut secs = Vec::new();
        let mut warmed = self.smoke;
        loop {
            let t = Instant::now();
            black_box(f());
            let took = t.elapsed().as_secs_f64();
            if warmed || took >= 0.05 {
                secs.push(took);
            }
            warmed = true;
            let spent = start.elapsed().as_secs_f64();
            let enough = self.smoke
                || spent >= 1.0
                || (secs.len() >= 3 && spent >= 0.25)
                || secs.len() >= 10_000;
            if enough && !secs.is_empty() {
                return secs;
            }
        }
    }
}

fn rate(amount: f64, secs: f64) -> f64 {
    amount / secs.max(1e-12) / 1e9
}

/// Fills `m` with every per-layer metric except the two the caller reads
/// off the outcome itself. Spans of the rungs land in `tracer`, which must
/// be recording; `spans` are the ones the workload's operations left.
pub fn run(
    input: &LadderInput,
    own: &Own,
    spans: &[Span],
    tracer: &Tracer,
    smoke: bool,
    m: &mut Metrics,
) {
    let reps = Reps { smoke };
    let problem = MatmulProblem::new(*input.a.meta(), *input.b.meta()).expect("a x b is defined");

    let blocks = kernel_rungs(input, tracer, reps, m);
    driver_rungs(input, tracer, reps, m);
    codec_rungs(&blocks, tracer, reps, m);
    planning_rungs(&problem, tracer, reps, m);
    executor_rungs(input, &problem, tracer, reps, m);
    pipelined_from(&own.pipelined_jobs, m);
    transport_rungs(&blocks, tracer, reps, m);
    rebalance_from(own, m);
    parity_rung(input, tracer, reps, m);
    session_rung(input, tracer, reps, m);
    service_rungs(own, tracer, reps, m);
    gnmf_from(spans, m);

    let mut sim = SimCluster::new(ClusterConfig::laptop());
    let predicted = sim_exec::simulate(&mut sim, &problem, MulMethod::CuboidAuto)
        .expect("the simulator runs the workload's plan");
    m.put(
        "sim.time_ratio",
        predicted.elapsed_secs / m.get("core.real_exec.job_s"),
        "ratio",
    );
}

/// The first block pair of the job, in the forms the rungs need.
struct Blocks {
    dense_b: DenseBlock,
    /// The `a` block when the workload stores it sparse.
    sparse_a: Option<CsrBlock>,
}

fn first_block(x: &BlockMatrix) -> &Block {
    x.blocks().next().expect("matrix has a block").1
}

/// `matrix.gemm.*`, `matrix.spmm.gflops`: the local kernels on the job's
/// first block pair, one thread. A sparse `a` block is densified for GEMM;
/// the sparse kernel runs only on a block the workload stores sparse and
/// reads 0 elsewhere.
fn kernel_rungs(input: &LadderInput, tracer: &Tracer, reps: Reps, m: &mut Metrics) -> Blocks {
    let a = first_block(&input.a);
    let dense_a = a.to_dense();
    let dense_b = first_block(&input.b).to_dense();
    let sparse_a = match a {
        Block::Sparse(s) => Some(s.clone()),
        Block::Dense(_) => None,
    };

    let (rows, inner, cols) = (dense_a.rows(), dense_a.cols(), dense_b.cols());
    let mut c = DenseBlock::zeros(rows, cols);
    let secs = median(&reps.time(tracer, "matrix.kernels.gemm", || {
        gemm::gemm(1.0, &dense_a, &dense_b, 0.0, &mut c).expect("block shapes agree")
    }));
    let flops = 2.0 * rows as f64 * inner as f64 * cols as f64;
    m.put("matrix.gemm.gflops", rate(flops, secs), "GFLOP/s");
    m.put("matrix.gemm.block_us", secs * 1e6, "us");

    let gflops = sparse_a.as_ref().map_or(0.0, |sparse_a| {
        let secs = median(&reps.time(tracer, "matrix.kernels.spmm", || {
            spmm::csr_dense(sparse_a, &dense_b).expect("block shapes agree")
        }));
        rate(2.0 * sparse_a.nnz() as f64 * cols as f64, secs)
    });
    m.put("matrix.spmm.gflops", gflops, "GFLOP/s");

    Blocks { dense_b, sparse_a }
}

/// `matrix.block_matrix.multiply_gflops`, `matrix.elementwise.gbps`: the
/// single-node product and subtraction behind a driver-side residual.
fn driver_rungs(input: &LadderInput, tracer: &Tracer, reps: Reps, m: &mut Metrics) {
    let (x, y, z) = &input.driver;
    let mut product = None;
    let secs = median(&reps.time(tracer, "matrix.block_matrix.multiply", || {
        product = Some(x.multiply(y).expect("x·y is defined"));
    }));
    let flops = 2.0 * x.nnz() as f64 * y.meta().cols as f64;
    m.put(
        "matrix.block_matrix.multiply_gflops",
        rate(flops, secs),
        "GFLOP/s",
    );

    let product = product.expect("at least one repetition ran");
    let mut touched = 0;
    let secs = median(&reps.time(tracer, "matrix.block_matrix.elementwise", || {
        let diff = z
            .elementwise(EwOp::Sub, &product)
            .expect("z - x·y is defined");
        touched = z.mem_bytes() + product.mem_bytes() + diff.mem_bytes();
        diff
    }));
    m.put(
        "matrix.elementwise.gbps",
        rate(touched as f64, secs),
        "GB/s",
    );
}

/// `matrix.codec.*`: the wire format exactly as the transport uses it —
/// dense blocks by aligned encode and zero-copy `decode_view`, sparse
/// blocks by `encode_into` a reused buffer and `decode_slice` — and the
/// checksum alone over a dense frame.
fn codec_rungs(blocks: &Blocks, tracer: &Tracer, reps: Reps, m: &mut Metrics) {
    let dense = Block::Dense(blocks.dense_b.clone());
    let len = codec::encoded_len(&dense) as usize;
    let secs = median(&reps.time(tracer, "matrix.codec.encode_aligned", || {
        let mut buf = BytesMut::with_capacity(len + 7);
        codec::encode_aligned(&dense, &mut buf);
        buf
    }));
    m.put(
        "matrix.codec.dense_encode_gbps",
        rate(len as f64, secs),
        "GB/s",
    );

    let mut buf = BytesMut::with_capacity(len + 7);
    let pad = codec::encode_aligned(&dense, &mut buf);
    let wire = buf.freeze();
    let frame = wire.slice(pad..wire.len());
    let secs = median(&reps.time(tracer, "matrix.codec.decode_view", || {
        codec::decode_view(&frame).expect("frame round-trips")
    }));
    m.put(
        "matrix.codec.dense_decode_gbps",
        rate(len as f64, secs),
        "GB/s",
    );

    let secs = median(&reps.time(tracer, "matrix.codec.crc32", || codec::crc32(&frame)));
    m.put(
        "matrix.codec.crc_gbps",
        rate(frame.len() as f64, secs),
        "GB/s",
    );

    let (mut encode_gbps, mut decode_gbps) = (0.0, 0.0);
    if let Some(sparse) = blocks.sparse_a.clone().map(Block::Sparse) {
        let len = codec::encoded_len(&sparse) as f64;
        let mut buf = BytesMut::default();
        let secs = median(&reps.time(tracer, "matrix.codec.encode_into", || {
            buf.clear();
            codec::encode_into(&sparse, &mut buf);
        }));
        encode_gbps = rate(len, secs);
        let secs = median(&reps.time(tracer, "matrix.codec.decode_slice", || {
            codec::decode_slice(&buf).expect("frame round-trips")
        }));
        decode_gbps = rate(len, secs);
    }
    m.put("matrix.codec.sparse_encode_gbps", encode_gbps, "GB/s");
    m.put("matrix.codec.sparse_decode_gbps", decode_gbps, "GB/s");
}

/// `core.optimizer.optimize_us`, `core.plan.build_us`: what a plan-cache
/// miss costs on the workload's problem.
fn planning_rungs(problem: &MatmulProblem, tracer: &Tracer, reps: Reps, m: &mut Metrics) {
    let cfg = ClusterConfig::laptop();
    let opt = OptimizerConfig::from_cluster(&cfg);
    let secs = median(&reps.time(tracer, "core.optimizer.optimize", || {
        optimizer::optimize(problem, &opt)
    }));
    m.put("core.optimizer.optimize_us", secs * 1e6, "us");
    let secs = median(&reps.time(tracer, "core.plan.build", || {
        JobPlan::build(problem, MulMethod::CuboidAuto, &cfg)
    }));
    m.put("core.plan.build_us", secs * 1e6, "us");
}

/// `core.real_exec.*`, the exact transport and ledger counts of one job,
/// and `cluster.stage.min_job_us`.
fn executor_rungs(
    input: &LadderInput,
    problem: &MatmulProblem,
    tracer: &Tracer,
    reps: Reps,
    m: &mut Metrics,
) {
    let (a, b) = (&input.a, &input.b);
    let mut jobs: Vec<JobStats> = Vec::new();
    let mut moves = 0;
    let secs = reps.time(tracer, "core.real_exec.multiply", || {
        let cluster = LocalCluster::new(ClusterConfig::laptop());
        let (c, stats) = real_exec::multiply(&cluster, a, b, MulMethod::CuboidAuto)
            .expect("fault-free job runs");
        jobs.push(stats);
        moves = cluster.transport_stats().moves();
        c
    });
    // `time` may discard a warm-up whose stats were pushed too; keep the
    // measured repetitions' stats only.
    let jobs = &jobs[jobs.len() - secs.len()..];
    let job_s = mean(&secs);
    let phase = |p: Phase| mean(&jobs.iter().map(|s| s.phase(p).secs).collect::<Vec<_>>());
    let (repartition, local_mult, aggregation) = (
        phase(Phase::Repartition),
        phase(Phase::LocalMult),
        phase(Phase::Aggregation),
    );
    m.put("core.real_exec.job_s", job_s, "s");
    m.put("core.real_exec.repartition_s", repartition, "s");
    m.put("core.real_exec.local_mult_s", local_mult, "s");
    m.put("core.real_exec.aggregation_s", aggregation, "s");
    m.put(
        "core.real_exec.overhead_s",
        job_s - repartition - local_mult - aggregation,
        "s",
    );
    // ROADMAP item 3's target: the job's rate against what the local
    // kernel sustains on as many threads as the host and the slots allow.
    let threads = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(ClusterConfig::laptop().total_slots());
    let kernel_gflops = if problem.uses_sparse_kernels() {
        m.get("matrix.spmm.gflops")
    } else {
        m.get("matrix.gemm.gflops")
    };
    m.put(
        "core.real_exec.kernel_efficiency",
        rate(problem.total_flops(), job_s) / (kernel_gflops * threads as f64),
        "ratio",
    );
    let last = jobs.last().expect("at least one job ran");
    m.put("cluster.transport.moves", moves as f64, "count");
    m.put(
        "cluster.transport.payload_bytes",
        last.transport_payload_bytes as f64,
        "bytes",
    );
    m.put(
        "cluster.shuffle.model_bytes",
        last.communication_bytes() as f64,
        "bytes",
    );
    m.put("cluster.recovery.retries", last.retries as f64, "count");
    m.put(
        "cluster.recovery.redelivered_moves",
        last.redelivered_moves as f64,
        "count",
    );

    // One block of work: what is left is a job's fixed cost — three
    // stages' spawn, grant and join. Through `multiply`, not `run_stage`.
    let one = dense_matrix(1, 32, 32, 32);
    let secs = median(&reps.time(tracer, "cluster.stage.min_job", || {
        let cluster = LocalCluster::new(ClusterConfig::laptop());
        real_exec::multiply(&cluster, &one, &one, MulMethod::CuboidAuto)
            .expect("fault-free job runs")
    }));
    m.put("cluster.stage.min_job_us", secs * 1e6, "us");
}

/// `cluster.transport.*`: one block of the job over the wire path, to
/// another node and to the same node.
fn transport_rungs(blocks: &Blocks, tracer: &Tracer, reps: Reps, m: &mut Metrics) {
    let cluster = LocalCluster::new(ClusterConfig::laptop());
    let block = Arc::new(Block::Dense(blocks.dense_b.clone()));
    let bytes = codec::encoded_len(&block);
    let id = BlockId::new(0, 0);
    let src = StoreKey::operand(1, id);
    cluster.stores().node(0).install(src, Arc::clone(&block));
    let transport = cluster.transport();
    let send = |name, to_node, dst| {
        let mv = WireMove {
            phase: Phase::Repartition,
            from_node: 0,
            to_node,
            wire_bytes: bytes,
            src,
            dst,
        };
        median(&reps.time(tracer, name, || {
            transport.execute(&mv, 0).expect("fault-free move")
        }))
    };
    let secs = send("cluster.transport.execute", 1, src);
    m.put(
        "cluster.transport.move_gbps",
        rate(bytes as f64, secs),
        "GB/s",
    );
    m.put("cluster.transport.move_us", secs * 1e6, "us");
    let secs = send(
        "cluster.transport.execute_local",
        0,
        StoreKey::replica(1, id, 1),
    );
    m.put(
        "cluster.transport.local_move_gbps",
        rate(bytes as f64, secs),
        "GB/s",
    );
}

/// `core.pipelined.*` from the statistics of the workload's own pipelined
/// jobs; 0 where it ran none.
fn pipelined_from(jobs: &[JobStats], m: &mut Metrics) {
    let overlap: Vec<f64> = jobs.iter().filter_map(|s| s.overlap_ratio).collect();
    m.put(
        "core.pipelined.overlap_ratio",
        if overlap.is_empty() {
            0.0
        } else {
            mean(&overlap)
        },
        "ratio",
    );
    let (hits, stalls) = jobs.iter().fold((0, 0), |(h, s), j| {
        (h + j.prefetch_hits, s + j.prefetch_stalls)
    });
    m.put(
        "core.pipelined.stall_ratio",
        stalls as f64 / (hits + stalls).max(1) as f64,
        "ratio",
    );
}

/// `cluster.rebalance.*` from the reports of the workload's own resizes,
/// a grow and a shrink to the cycle; 0 where it made none.
fn rebalance_from(own: &Own, m: &mut Metrics) {
    let cycles: Vec<_> = own.resizes.chunks_exact(2).collect();
    let (mut migrate_gbps, mut move_us, mut moves) = (0.0, 0.0, 0);
    if let Some(last) = cycles.last() {
        let secs = median(
            &cycles
                .iter()
                .map(|c| c.iter().map(|(secs, _)| secs).sum())
                .collect::<Vec<f64>>(),
        );
        // Every cycle after the warm-up moves the same blocks.
        moves = last.iter().map(|(_, r)| r.moves).sum();
        let payload: u64 = last.iter().map(|(_, r)| r.payload_bytes).sum();
        migrate_gbps = rate(payload as f64, secs);
        move_us = secs * 1e6 / moves.max(1) as f64;
    }
    m.put("cluster.rebalance.migrate_gbps", migrate_gbps, "GB/s");
    m.put("cluster.rebalance.move_us", move_us, "us");
    m.put("cluster.rebalance.moves", moves as f64, "count");
    m.put(
        "cluster.rebalance.vs_transport",
        migrate_gbps / m.get("cluster.transport.move_gbps"),
        "ratio",
    );
}

/// `cluster.coding.*`: parity evicted and encoded again over what is
/// resident on the workload's own cluster; 0 where coding is off.
fn parity_rung(input: &LadderInput, tracer: &Tracer, reps: Reps, m: &mut Metrics) {
    let (mut gbps, mut parity_blocks) = (0.0, 0);
    if let Some(cluster) = input.coded {
        let resident = [&input.a, &input.b, &input.driver.2];
        let payload: u64 = resident
            .iter()
            .flat_map(|x| x.blocks())
            .map(|(_, block)| codec::encoded_len(block))
            .sum();
        let secs = median(&reps.time(tracer, "cluster.coding.encode_parity", || {
            coding::evict_all_parity(cluster.stores());
            parity_blocks = resident
                .iter()
                .map(|x| cluster.encode_parity(x.uid()))
                .sum();
        }));
        gbps = rate(payload as f64, secs);
    }
    m.put("cluster.coding.parity_encode_gbps", gbps, "GB/s");
    m.put(
        "cluster.coding.parity_blocks",
        parity_blocks as f64,
        "count",
    );
}

/// `engine.session.overhead_us`: what `Session::matmul` spends outside the
/// executor — each call's wall time minus the executor seconds in that
/// same job's `JobStats`, so the two sides of the difference are one job.
fn session_rung(input: &LadderInput, tracer: &Tracer, reps: Reps, m: &mut Metrics) {
    let mut session = RealSession::new(ClusterConfig::laptop(), SystemProfile::DistMe);
    let mut in_executor = Vec::new();
    let walls = reps.time(tracer, "engine.session.matmul", || {
        session.reset_stats();
        let c = session
            .matmul(&input.a, &input.b)
            .expect("fault-free job runs");
        in_executor.push(session.stats().elapsed_secs);
        c
    });
    // `time` may discard a warm-up; pair the kept calls with their own jobs.
    let overheads: Vec<f64> = walls
        .iter()
        .zip(&in_executor[in_executor.len() - walls.len()..])
        .map(|(wall, job)| wall - job)
        .collect();
    m.put("engine.session.overhead_us", median(&overheads) * 1e6, "us");
}

/// `engine.service.*`, `cluster.scheduler.queue_wait_*`: an empty job
/// through a fresh `JobService` — the submit and the whole round trip —
/// and, from the workload's own service jobs, what a job costs beyond its
/// executor seconds and how long admission made it wait.
fn service_rungs(own: &Own, tracer: &Tracer, reps: Reps, m: &mut Metrics) {
    let service = JobService::new(ClusterConfig::laptop(), SystemProfile::DistMe);
    let mut submit_secs = Vec::new();
    let secs = median(&reps.time(tracer, "engine.service.noop_job", || {
        let t = Instant::now();
        let handle = service.submit(JobSpec::new(TenantId(0)), |_| Ok(()));
        submit_secs.push(t.elapsed().as_secs_f64());
        handle.wait().expect("an empty job runs")
    }));
    m.put("engine.service.submit_us", median(&submit_secs) * 1e6, "us");
    m.put("engine.service.noop_job_us", secs * 1e6, "us");
    m.put(
        "engine.service.job_overhead_us",
        if own.service_overhead_secs.is_empty() {
            0.0
        } else {
            median(&own.service_overhead_secs) * 1e6
        },
        "us",
    );
    let (p50, p95) = own
        .queue_wait
        .map_or((0.0, 0.0), |w| (w.p50_secs, w.p95_secs));
    m.put("cluster.scheduler.queue_wait_p50_ms", p50 * 1e3, "ms");
    m.put("cluster.scheduler.queue_wait_p95_ms", p95 * 1e3, "ms");
}

/// `engine.session.{matmul,transpose,elementwise}_s`, `engine.gnmf.*`: the
/// workload's own GNMF iterations split, from their spans, into operators
/// and the driver's share. Means over the iterations, so the four parts
/// add up to `engine.gnmf.iteration_s`; 0 where no iteration ran.
fn gnmf_from(spans: &[Span], m: &mut Metrics) {
    let own = self_secs(spans);
    let iterations: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "engine.gnmf.iteration")
        .collect();
    let per_iteration = |part: &dyn Fn(u32) -> f64| {
        if iterations.is_empty() {
            0.0
        } else {
            mean(&iterations.iter().map(|s| part(s.id)).collect::<Vec<_>>())
        }
    };
    for (metric, span) in [
        ("engine.session.matmul_s", "engine.session.matmul"),
        ("engine.session.transpose_s", "engine.session.transpose"),
        ("engine.session.elementwise_s", "engine.session.elementwise"),
    ] {
        m.put(
            metric,
            per_iteration(&|id| child_secs(spans, id, span)),
            "s",
        );
    }
    m.put(
        "engine.gnmf.driver_s",
        per_iteration(&|id| own[id as usize]),
        "s",
    );
    m.put(
        "engine.gnmf.iteration_s",
        per_iteration(&|id| spans[id as usize].secs()),
        "s",
    );
}

/// Share by which the traced operations' median exceeds the untraced
/// ones', in percent; 0 when either kind did not run.
pub fn trace_overhead_pct(untraced: &[f64], traced: &[f64]) -> f64 {
    if untraced.is_empty() || traced.is_empty() {
        return 0.0;
    }
    (median(traced) / median(untraced) - 1.0) * 100.0
}

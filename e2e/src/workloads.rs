//! The six workloads. Each one generates its inputs from the seed, builds
//! what a caller would build (a session, a service), warms it up, then
//! repeats its operation until the time budget is spent, checking every
//! output against a reference as it goes. README.md states why each one is
//! here and which layers it loads.

use crate::ladder::LadderInput;
use crate::rss;
use crate::trace::{Timed, Tracer};
use distme_cluster::{
    ClusterConfig, JobError, JobStats, LocalCluster, QueueWaitStats, RebalanceReport,
    ReplicationPolicy, TenantId,
};
use distme_core::{pipelined, MulMethod, PlanCacheStats};
use distme_engine::session::RealOps;
use distme_engine::{
    gnmf, GnmfConfig, JobHandle, JobService, JobSpec, RatingDataset, RealSession, SystemProfile,
};
use distme_matrix::elementwise::EwOp;
use distme_matrix::{Block, BlockMatrix, MatrixGenerator, MatrixMeta};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Name and reason of every workload, in the order `--smoke` runs them.
/// `BENCHMARK.json` carries the same list.
pub const WORKLOADS: [&str; 6] = [
    "dense_square",
    "dense_pipelined",
    "gnmf_sparse",
    "serve_small",
    "serve_c4",
    "elastic_cycle",
];

/// How long measuring may take and how many operations it may run.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub max_ops: usize,
    /// Trace every second repetition, so traced and untraced operations
    /// interleave within one run and their medians are comparable.
    pub alternate_tracing: bool,
}

struct Clock {
    budget: Budget,
    start: Instant,
    done: usize,
    rss: rss::Windows,
}

impl Clock {
    fn new(budget: Budget) -> Self {
        Clock {
            budget,
            start: Instant::now(),
            done: 0,
            rss: rss::Windows::start(),
        }
    }

    /// Whether another operation expected to take `next_secs` fits. The
    /// first always does, and so does the second when tracing alternates
    /// (one of each kind).
    fn has_room(&self, next_secs: f64) -> bool {
        let floor = if self.budget.alternate_tracing { 2 } else { 1 };
        self.done < self.budget.max_ops
            && (self.done < floor
                || self.start.elapsed().as_secs_f64() + next_secs <= self.budget.seconds)
    }

    /// Starts repetition `done`, switching tracing on for odd repetitions
    /// of an alternating run. Returns whether this repetition is traced.
    fn next_rep(&mut self, tracer: &Tracer) -> bool {
        let traced = self.budget.alternate_tracing && self.done % 2 == 1;
        tracer.set_enabled(traced);
        tracer.set_rep(self.done as u32);
        self.done += 1;
        self.rss.tick();
        traced
    }

    /// Ends measuring: tracing off, memory peaks handed over.
    fn finish(self, tracer: &Tracer, out: &mut Outcome) {
        tracer.set_enabled(false);
        out.rss_peaks_mb = self.rss.finish();
    }
}

/// What measuring produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds of each untraced operation.
    pub op_secs: Vec<f64>,
    /// Seconds of each traced operation (alternating runs only).
    pub traced_op_secs: Vec<f64>,
    /// Wall seconds spent performing operations, traced or not, including
    /// what surrounds them in a repetition (building the session, drawing
    /// initial factors) but not the output checks.
    pub busy_secs: f64,
    /// Operations and output checks attempted, and how many failed.
    pub attempted: u64,
    pub failed: u64,
    /// Peak resident set of each stretch of measuring (see [`rss`]), MB.
    pub rss_peaks_mb: Vec<f64>,
    /// Plan-cache lookups made by the sessions and services measured.
    pub cache: PlanCacheStats,
    /// What the operations themselves returned about the layers under them.
    pub own: Own,
    /// First failure, for the report.
    pub first_error: Option<String>,
}

/// Statistics the workload's own operations return, traced or not; the
/// per-layer metrics of the layers a workload exercises come from here and
/// from its spans, not from a second run of the same thing. Each workload
/// fills what it has.
#[derive(Debug, Default)]
pub struct Own {
    /// `dense_pipelined`: the `JobStats` of every job.
    pub pipelined_jobs: Vec<JobStats>,
    /// `serve_*`: each job's submit-to-`wait` seconds minus the executor
    /// seconds in that job's own `JobStats` — what queue, service and
    /// session add to one job.
    pub service_overhead_secs: Vec<f64>,
    /// `serve_*`: the service's admission waits (warm-up jobs included).
    pub queue_wait: Option<QueueWaitStats>,
    /// `elastic_cycle`: seconds and report of every resize, grow and
    /// shrink alternating.
    pub resizes: Vec<(f64, RebalanceReport)>,
}

impl Outcome {
    /// The latency sample the end-to-end metrics come from. A run whose
    /// every operation failed has none; it is reported as incorrect, with
    /// zeros.
    pub fn untraced_op_secs(&self) -> &[f64] {
        if self.op_secs.is_empty() {
            &[0.0]
        } else {
            &self.op_secs
        }
    }

    fn record(&mut self, traced: bool, secs: f64) {
        if traced {
            self.traced_op_secs.push(secs);
        } else {
            self.op_secs.push(secs);
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.first_error.get_or_insert_with(what);
        }
    }

    fn absorb_cache(&mut self, stats: PlanCacheStats) {
        self.cache.hits += stats.hits;
        self.cache.misses += stats.misses;
        self.cache.invalidations += stats.invalidations;
    }
}

pub trait Workload {
    /// One line for the run's header: shapes and counts.
    fn sizes(&self) -> String;
    /// Seconds one operation takes on the 2-core host, on the slow side.
    /// `op_tail_ms` is the highest percentile that `--seconds` of such
    /// operations make two windows of, ten samples beyond it in each: fixed
    /// by the run length, not by the sample, so the metric means one thing
    /// on every run.
    fn nominal_op_secs(&self) -> f64;
    fn measure(&mut self, budget: Budget, tracer: &Tracer) -> Outcome;
    /// Checks that need more than one operation's output; run after
    /// measuring. Adds to `outcome`'s attempted and failed counts.
    fn verify(&mut self, outcome: &mut Outcome);
    /// The workload's own matrices, for the per-layer ladder.
    fn ladder_input(&self) -> LadderInput<'_>;
}

/// Builds the named workload from `seed`: generates inputs, constructs the
/// first session or service, and warms up. Timed as `setup_s`.
pub fn set_up(name: &str, seed: u64, smoke: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "dense_square" => Box::new(Dense::set_up(seed, smoke, false)),
        "dense_pipelined" => Box::new(Dense::set_up(seed, smoke, true)),
        "gnmf_sparse" => Box::new(Gnmf::set_up(seed, smoke)),
        "serve_small" => Box::new(Serve::set_up(seed, smoke, 1)),
        "serve_c4" => Box::new(Serve::set_up(seed, smoke, 4)),
        "elastic_cycle" => Box::new(Elastic::set_up(seed, smoke)),
        _ => return None,
    })
}

/// SplitMix64 step: independent generator seeds from one workload seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn dense_matrix(seed: u64, rows: u64, cols: u64, block: u64) -> BlockMatrix {
    MatrixGenerator::with_seed(seed)
        .value_range(-1.0, 1.0)
        .generate(&MatrixMeta::dense(rows, cols).with_block_size(block))
        .expect("dense meta is valid")
}

/// Whether two matrices hold the same bits: same grid, same block formats,
/// and every stored number identical down to sign of zero and NaN payload.
pub fn bits_equal(x: &BlockMatrix, y: &BlockMatrix) -> bool {
    fn same(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(p, q)| p.to_bits() == q.to_bits())
    }
    x.meta() == y.meta()
        && x.num_materialized() == y.num_materialized()
        && x.blocks().zip(y.blocks()).all(|((ix, bx), (iy, by))| {
            ix == iy
                && match (bx, by) {
                    (Block::Dense(p), Block::Dense(q)) => same(p.data(), q.data()),
                    (Block::Sparse(p), Block::Sparse(q)) => {
                        p.row_ptr() == q.row_ptr()
                            && p.col_idx() == q.col_idx()
                            && same(p.values(), q.values())
                    }
                    _ => false,
                }
        })
}

fn describe(e: &JobError) -> String {
    format!("{e:?}")
}

// ---------------------------------------------------------------------------
// dense_square / dense_pipelined
// ---------------------------------------------------------------------------

/// One `CuboidAuto` multiply of two dense squares, a fresh session (or a
/// fresh bare cluster, for the pipelined executor) per repetition.
struct Dense {
    a: BlockMatrix,
    b: BlockMatrix,
    /// The last warm-up's product: what every later product must equal.
    first: BlockMatrix,
    pipelined: bool,
    side: u64,
    block: u64,
}

struct DenseRep {
    c: BlockMatrix,
    /// Seconds of the job alone, without building the session or cluster.
    secs: f64,
    cache: PlanCacheStats,
    /// The job's statistics, which only the pipelined executor returns.
    pipelined_job: Option<JobStats>,
}

impl Dense {
    fn set_up(seed: u64, smoke: bool, pipelined: bool) -> Self {
        let (side, block) = if smoke { (64, 16) } else { (2048, 256) };
        let a = dense_matrix(mix(seed, 1), side, side, block);
        let b = dense_matrix(mix(seed, 2), side, side, block);
        let quiet = Tracer::new();
        let mut first = None;
        for _ in 0..2 {
            first = Some(
                Self::multiply(&a, &b, pipelined, &quiet)
                    .expect("warm-up multiply runs")
                    .c,
            );
        }
        Dense {
            a,
            b,
            first: first.expect("two warm-ups ran"),
            pipelined,
            side,
            block,
        }
    }

    /// One repetition.
    fn multiply(
        a: &BlockMatrix,
        b: &BlockMatrix,
        pipelined: bool,
        tracer: &Tracer,
    ) -> Result<DenseRep, JobError> {
        if pipelined {
            let cluster = {
                let _s = tracer.span("cluster.local_cluster.new");
                LocalCluster::new(ClusterConfig::laptop())
            };
            let _s = tracer.span("core.pipelined.multiply_pipelined");
            let t = Instant::now();
            let (c, stats) = pipelined::multiply_pipelined(&cluster, a, b, MulMethod::CuboidAuto)?;
            Ok(DenseRep {
                c,
                secs: t.elapsed().as_secs_f64(),
                cache: PlanCacheStats::default(),
                pipelined_job: Some(stats),
            })
        } else {
            let mut session = {
                let _s = tracer.span("engine.session.new");
                RealSession::new(ClusterConfig::laptop(), SystemProfile::DistMe)
            };
            let _s = tracer.span("engine.session.matmul");
            let t = Instant::now();
            let c = session.matmul(a, b)?;
            Ok(DenseRep {
                c,
                secs: t.elapsed().as_secs_f64(),
                cache: session.plan_cache_stats(),
                pipelined_job: None,
            })
        }
    }
}

impl Workload for Dense {
    fn sizes(&self) -> String {
        format!(
            "{0}x{0}x{0} dense f64, block {1}, CuboidAuto, {2} executor, fresh {3} per rep, 2 warm-ups",
            self.side,
            self.block,
            if self.pipelined { "pipelined" } else { "barrier" },
            if self.pipelined { "LocalCluster" } else { "RealSession" },
        )
    }

    fn nominal_op_secs(&self) -> f64 {
        0.55
    }

    fn measure(&mut self, budget: Budget, tracer: &Tracer) -> Outcome {
        let mut out = Outcome::default();
        let mut clock = Clock::new(budget);
        let mut last_rep = 0.0;
        while clock.has_room(last_rep) {
            let traced = clock.next_rep(tracer);
            let t = Instant::now();
            let span = tracer.begin("rep");
            let result = Self::multiply(&self.a, &self.b, self.pipelined, tracer);
            tracer.end(span);
            last_rep = t.elapsed().as_secs_f64();
            out.busy_secs += last_rep;
            match result {
                Ok(rep) => {
                    out.record(traced, rep.secs);
                    out.absorb_cache(rep.cache);
                    out.own.pipelined_jobs.extend(rep.pipelined_job);
                    out.check(bits_equal(&rep.c, &self.first), || {
                        "product differs between repetitions".into()
                    });
                }
                Err(e) => out.check(false, || describe(&e)),
            }
        }
        clock.finish(tracer, &mut out);
        out
    }

    fn verify(&mut self, out: &mut Outcome) {
        // Against the single-node reference, once.
        let relative = self
            .a
            .multiply(&self.b)
            .and_then(|reference| {
                let diff = self.first.elementwise(EwOp::Sub, &reference)?;
                Ok(diff.frobenius_norm() / reference.frobenius_norm())
            })
            .unwrap_or(f64::INFINITY);
        out.check(relative <= 1e-9, || {
            format!("product is {relative:e} (relative Frobenius) from BlockMatrix::multiply")
        });
        // Against the other executor, bit for bit.
        let other = Self::multiply(&self.a, &self.b, !self.pipelined, &Tracer::new());
        out.check(
            other.is_ok_and(|rep| bits_equal(&rep.c, &self.first)),
            || "barrier and pipelined executors disagree".into(),
        );
    }

    fn ladder_input(&self) -> LadderInput<'_> {
        LadderInput {
            a: self.a.clone(),
            b: self.b.clone(),
            driver: (self.a.clone(), self.b.clone(), self.first.clone()),
            coded: None,
        }
    }
}

// ---------------------------------------------------------------------------
// gnmf_sparse
// ---------------------------------------------------------------------------

/// The paper's Fig. 8 query on a synthetic rating matrix; the operation is
/// one multiplicative-update iteration (twelve operators and the
/// driver-side objective), a fresh session per factorization.
struct Gnmf {
    v: BlockMatrix,
    config: GnmfConfig,
    factor_seed: u64,
    dataset: RatingDataset,
    block: u64,
    /// Factors of the first measured factorization.
    reference: Option<(BlockMatrix, BlockMatrix)>,
}

/// One factorization on a fresh session.
struct GnmfRep {
    result: Result<gnmf::GnmfResult, JobError>,
    /// Seconds of each completed iteration.
    iteration_secs: Vec<f64>,
    cache: PlanCacheStats,
}

/// Runs `config.iterations` of GNMF on a fresh session, one span per
/// iteration with one child span per operator; what an iteration span does
/// not spend inside an operator is the driver's share (drawing the initial
/// factors, the `‖V − WH‖` objective).
fn gnmf_rep(v: &BlockMatrix, config: &GnmfConfig, seed: u64, tracer: &Tracer) -> GnmfRep {
    let session = {
        let _s = tracer.span("engine.session.new");
        RealSession::new(ClusterConfig::laptop(), SystemProfile::DistMe)
    };
    let mut timed = Timed {
        inner: session,
        tracer,
    };
    let open = Cell::new(tracer.begin("engine.gnmf.iteration"));
    let mut marks = vec![Instant::now()];
    let result = gnmf::run_real_with(&mut timed, v, config, seed, |_, i| {
        tracer.end(open.take());
        marks.push(Instant::now());
        if i + 1 < config.iterations {
            open.set(tracer.begin("engine.gnmf.iteration"));
        }
        Ok(())
    });
    tracer.end(open.take()); // left open only when an operator failed
    GnmfRep {
        result,
        iteration_secs: marks
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect(),
        cache: timed.inner.plan_cache_stats(),
    }
}

impl Gnmf {
    fn set_up(seed: u64, smoke: bool) -> Self {
        let (dataset, block, config) = if smoke {
            (
                RatingDataset {
                    name: "synthetic",
                    users: 64,
                    items: 48,
                    ratings: 400,
                },
                16,
                GnmfConfig {
                    factor_dim: 8,
                    iterations: 2,
                },
            )
        } else {
            (
                RatingDataset {
                    name: "synthetic",
                    users: 4096,
                    items: 2048,
                    ratings: 400_000,
                },
                128,
                GnmfConfig {
                    factor_dim: 64,
                    iterations: 5,
                },
            )
        };
        let v = dataset
            .materialize(block, mix(seed, 1))
            .expect("rating density is valid");
        let factor_seed = mix(seed, 2);
        // Warm-up: two iterations reach every operator and plan shape.
        let warm = GnmfConfig {
            iterations: config.iterations.min(2),
            ..config
        };
        gnmf_rep(&v, &warm, factor_seed, &Tracer::new())
            .result
            .expect("warm-up factorization runs");
        Gnmf {
            v,
            config,
            factor_seed,
            dataset,
            block,
            reference: None,
        }
    }
}

impl Workload for Gnmf {
    fn sizes(&self) -> String {
        format!(
            "V {}x{} with {} ratings (materialized nnz {}), block {}, factor {}, {} iterations per factorization, fresh RealSession per factorization, 2 warm-up iterations",
            self.dataset.users,
            self.dataset.items,
            self.dataset.ratings,
            self.v.nnz(),
            self.block,
            self.config.factor_dim,
            self.config.iterations,
        )
    }

    fn nominal_op_secs(&self) -> f64 {
        0.33
    }

    fn measure(&mut self, budget: Budget, tracer: &Tracer) -> Outcome {
        let mut out = Outcome::default();
        let mut clock = Clock::new(budget);
        let mut last_rep = 0.0;
        while clock.has_room(last_rep) {
            let traced = clock.next_rep(tracer);
            let t = Instant::now();
            let span = tracer.begin("rep");
            let rep = gnmf_rep(&self.v, &self.config, self.factor_seed, tracer);
            tracer.end(span);
            last_rep = t.elapsed().as_secs_f64();
            out.busy_secs += last_rep;
            out.absorb_cache(rep.cache);
            for &secs in &rep.iteration_secs {
                out.record(traced, secs);
                out.attempted += 1;
            }
            match rep.result {
                Ok(res) => {
                    let monotone = res.objective.windows(2).all(|w| w[1] <= w[0])
                        && res.objective.iter().all(|o| o.is_finite());
                    out.check(monotone, || {
                        format!("objective is not non-increasing: {:?}", res.objective)
                    });
                    match &self.reference {
                        None => self.reference = Some((res.w, res.h)),
                        Some((w, h)) => out
                            .check(bits_equal(&res.w, w) && bits_equal(&res.h, h), || {
                                "factors differ between factorizations".into()
                            }),
                    }
                }
                Err(e) => out.check(false, || describe(&e)),
            }
        }
        clock.finish(tracer, &mut out);
        out
    }

    fn verify(&mut self, _out: &mut Outcome) {}

    fn ladder_input(&self) -> LadderInput<'_> {
        // The factors GNMF starts from have these shapes; the biggest
        // distributed job of an iteration is V x H^T and the driver-side
        // objective is V - W x H.
        let (users, items, f) = (
            self.dataset.users,
            self.dataset.items,
            self.config.factor_dim,
        );
        let w = dense_matrix(self.factor_seed, users, f, self.block);
        let h = dense_matrix(mix(self.factor_seed, 1), f, items, self.block);
        LadderInput {
            a: self.v.clone(),
            b: h.transpose(),
            driver: (w, h, self.v.clone()),
            coded: None,
        }
    }
}

// ---------------------------------------------------------------------------
// serve_small / serve_c4
// ---------------------------------------------------------------------------

/// A closed loop through the job service: one generator thread keeps
/// `concurrency` small multiplies in flight, over four tenants and four
/// priorities. Closed because the engine's callers (the GNMF and ALS
/// drivers) each wait for a reply before sending the next job.
struct Serve {
    a: Arc<BlockMatrix>,
    b: Arc<BlockMatrix>,
    /// The solo `Session::matmul` product every job must reproduce.
    expected: BlockMatrix,
    service: JobService,
    concurrency: usize,
    submitted: u32,
    side: u64,
    block: u64,
    warm_ups: usize,
}

impl Serve {
    fn set_up(seed: u64, smoke: bool, concurrency: usize) -> Self {
        let (side, block, warm_ups) = if smoke { (32, 8, 2) } else { (128, 32, 50) };
        let a = Arc::new(dense_matrix(mix(seed, 1), side, side, block));
        let b = Arc::new(dense_matrix(mix(seed, 2), side, side, block));
        let expected = RealSession::new(ClusterConfig::laptop(), SystemProfile::DistMe)
            .matmul(&a, &b)
            .expect("solo multiply runs");
        let mut this = Serve {
            a,
            b,
            expected,
            service: JobService::new(ClusterConfig::laptop(), SystemProfile::DistMe),
            concurrency,
            submitted: 0,
            side,
            block,
            warm_ups,
        };
        let quiet = Tracer::new();
        let warm = this.measure(
            Budget {
                seconds: f64::INFINITY,
                max_ops: warm_ups,
                alternate_tracing: false,
            },
            &quiet,
        );
        assert_eq!(
            warm.failed, 0,
            "warm-up jobs failed: {:?}",
            warm.first_error
        );
        this
    }

    fn submit(&mut self, tracer: &Tracer) -> JobHandle<BlockMatrix> {
        let i = self.submitted;
        self.submitted += 1;
        let (a, b) = (Arc::clone(&self.a), Arc::clone(&self.b));
        let spec = JobSpec::new(TenantId(i % 4)).priority((i / 4 % 4) as u8);
        let _s = tracer.span("engine.service.submit");
        self.service.submit(spec, move |s| s.matmul(&a, &b))
    }
}

impl Workload for Serve {
    fn sizes(&self) -> String {
        format!(
            "closed loop, {} in flight from one generator thread, each job {1}x{1}x{1} dense at block {2}, 4 tenants x 4 priorities, one JobService, {3} warm-up jobs",
            self.concurrency, self.side, self.block, self.warm_ups,
        )
    }

    fn nominal_op_secs(&self) -> f64 {
        // Seconds between completions: the loop finishes ~125 jobs a
        // second with one in flight or with four.
        0.008
    }

    fn measure(&mut self, budget: Budget, tracer: &Tracer) -> Outcome {
        let mut out = Outcome::default();
        let before = self.service.plan_cache_stats();
        let mut clock = Clock::new(budget);
        let mut pending: VecDeque<(Instant, bool, u32, JobHandle<BlockMatrix>)> = VecDeque::new();
        let mut last_job = 0.0;
        let start = Instant::now();
        loop {
            let room = clock.has_room(last_job);
            if room {
                let traced = clock.next_rep(tracer);
                let t = Instant::now();
                pending.push_back((t, traced, clock.done as u32 - 1, self.submit(tracer)));
            }
            if pending.len() == self.concurrency || !room {
                let Some((submitted, traced, rep, handle)) = pending.pop_front() else {
                    break;
                };
                tracer.set_enabled(traced);
                tracer.set_rep(rep);
                let result = {
                    let _s = tracer.span("engine.service.wait");
                    handle.wait()
                };
                last_job = submitted.elapsed().as_secs_f64();
                match result {
                    Ok(job) => {
                        out.record(traced, last_job);
                        out.own
                            .service_overhead_secs
                            .push(last_job - job.stats.elapsed_secs);
                        out.check(bits_equal(&job.value, &self.expected), || {
                            "service product differs from the solo Session::matmul".into()
                        });
                    }
                    Err(e) => out.check(false, || describe(&e)),
                }
            }
        }
        out.busy_secs = start.elapsed().as_secs_f64();
        clock.finish(tracer, &mut out);
        out.own.queue_wait = Some(self.service.queue_wait_stats());
        let after = self.service.plan_cache_stats();
        out.absorb_cache(PlanCacheStats {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            invalidations: after.invalidations - before.invalidations,
        });
        out
    }

    fn verify(&mut self, _out: &mut Outcome) {}

    fn ladder_input(&self) -> LadderInput<'_> {
        let (a, b) = ((*self.a).clone(), (*self.b).clone());
        LadderInput {
            driver: (a.clone(), b.clone(), self.expected.clone()),
            a,
            b,
            coded: None,
        }
    }
}

// ---------------------------------------------------------------------------
// elastic_cycle
// ---------------------------------------------------------------------------

/// Grow 4 -> 9 nodes and shrink back, over the resident operands and
/// product of one multiply, with XOR parity on: the transport, store and
/// codec layers as bulk migration instead of per-job shuffle.
struct Elastic {
    a: BlockMatrix,
    b: BlockMatrix,
    session: RealSession,
    /// The product before any resize.
    before: BlockMatrix,
    side: u64,
    block: u64,
}

const GROWN_NODES: usize = 9;
const HOME_NODES: usize = 4;

impl Elastic {
    fn set_up(seed: u64, smoke: bool) -> Self {
        let (side, block) = if smoke { (64, 16) } else { (2048, 256) };
        let a = dense_matrix(mix(seed, 1), side, side, block);
        let b = dense_matrix(mix(seed, 2), side, side, block);
        let mut session = RealSession::new(
            ClusterConfig::laptop().with_replication(ReplicationPolicy::Xor),
            SystemProfile::DistMe,
        );
        let before = session.matmul(&a, &b).expect("first multiply runs");
        let mut this = Elastic {
            a,
            b,
            session,
            before,
            side,
            block,
        };
        // The first cycle places blocks the later ones only move; discard it.
        let warm = this.measure(
            Budget {
                seconds: f64::INFINITY,
                max_ops: 1,
                alternate_tracing: false,
            },
            &Tracer::new(),
        );
        assert_eq!(
            warm.failed, 0,
            "warm-up cycle failed: {:?}",
            warm.first_error
        );
        this
    }
}

impl Workload for Elastic {
    fn sizes(&self) -> String {
        format!(
            "RealSession with XOR parity; one {0}x{0}x{0} block-{1} multiply leaves A, B, C resident; each cycle is scale_to({2}) then scale_to({3}); 1 warm-up cycle; the multiply runs again afterwards",
            self.side, self.block, GROWN_NODES, HOME_NODES,
        )
    }

    fn nominal_op_secs(&self) -> f64 {
        0.175
    }

    fn measure(&mut self, budget: Budget, tracer: &Tracer) -> Outcome {
        let mut out = Outcome::default();
        let mut clock = Clock::new(budget);
        let mut last_cycle = 0.0;
        while clock.has_room(last_cycle) {
            let traced = clock.next_rep(tracer);
            let t = Instant::now();
            let cycle = tracer.begin("rep");
            let reports = [GROWN_NODES, HOME_NODES].map(|nodes| {
                let _s = tracer.span("engine.session.scale_to");
                let t = Instant::now();
                self.session
                    .scale_to(nodes)
                    .map(|report| (t.elapsed().as_secs_f64(), report))
            });
            tracer.end(cycle);
            last_cycle = t.elapsed().as_secs_f64();
            out.busy_secs += last_cycle;
            out.record(traced, last_cycle);
            for report in reports {
                match report {
                    Ok((secs, r)) => {
                        out.check(r.lost_blocks == 0, || {
                            format!(
                                "resize to {} nodes lost {} blocks",
                                r.to_nodes, r.lost_blocks
                            )
                        });
                        out.own.resizes.push((secs, r));
                    }
                    Err(e) => out.check(false, || describe(&e)),
                }
            }
        }
        clock.finish(tracer, &mut out);
        out.absorb_cache(self.session.plan_cache_stats());
        out
    }

    fn verify(&mut self, out: &mut Outcome) {
        let again = self.session.matmul(&self.a, &self.b);
        out.check(again.is_ok_and(|c| bits_equal(&c, &self.before)), || {
            "product after the resize cycles differs from the one before".into()
        });
    }

    fn ladder_input(&self) -> LadderInput<'_> {
        LadderInput {
            a: self.a.clone(),
            b: self.b.clone(),
            driver: (self.a.clone(), self.b.clone(), self.before.clone()),
            coded: Some(self.session.cluster()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_equality_sees_what_float_equality_hides() {
        let x = dense_matrix(1, 8, 8, 4);
        assert!(bits_equal(&x, &x.clone()));
        assert!(!bits_equal(&x, &dense_matrix(2, 8, 8, 4)));
        let mut zero = BlockMatrix::new(MatrixMeta::dense(2, 2).with_block_size(2));
        let mut negative_zero = zero.clone();
        let block = |v: f64| Block::Dense(distme_matrix::DenseBlock::from_fn(2, 2, |_, _| v));
        zero.put(0, 0, block(0.0)).unwrap();
        negative_zero.put(0, 0, block(-0.0)).unwrap();
        assert_eq!(zero, negative_zero);
        assert!(!bits_equal(&zero, &negative_zero));
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        assert!(bits_equal(
            &dense_matrix(mix(7, 1), 16, 16, 8),
            &dense_matrix(mix(7, 1), 16, 16, 8)
        ));
        assert_ne!(mix(7, 1), mix(7, 2));
        assert_ne!(mix(7, 1), mix(8, 1));
    }

    #[test]
    fn clock_runs_one_of_each_kind_before_it_minds_the_time() {
        let budget = Budget {
            seconds: 0.0,
            max_ops: 10,
            alternate_tracing: true,
        };
        let tracer = Tracer::new();
        let mut clock = Clock::new(budget);
        let mut kinds = Vec::new();
        while clock.has_room(1.0) {
            kinds.push(clock.next_rep(&tracer));
        }
        assert_eq!(kinds, [false, true]);
        let mut capped = Clock::new(Budget {
            seconds: f64::INFINITY,
            max_ops: 3,
            alternate_tracing: false,
        });
        let mut n = 0;
        while capped.has_room(0.0) {
            assert!(!capped.next_rep(&tracer));
            n += 1;
        }
        assert_eq!(n, 3);
    }
}

//! Evaluation sessions: the engine's execution contexts.
//!
//! [`SimSession`] runs operators against the paper-scale simulated cluster
//! and only *descriptors* flow; [`RealSession`] runs them with real blocks
//! on the thread-backed cluster. Both are one operator surface, [`Ops<M>`]
//! over what flows (`MatrixMeta` or `BlockMatrix`), so a query is written
//! once and runs on either. Both plan a multiply through the one
//! `plan_for`, and both accumulate per-operator statistics across the
//! expression being evaluated.
//!
//! The five real operators are written once, on [`TenantSession`]: one
//! job's view of a cluster, parameterized by the cluster, the plan cache,
//! the system profile and the job's [`RealExecOptions`]. A [`RealSession`]
//! is that body over a cluster it owns, run as the anonymous tenant; the
//! job service hands the same body to every submitted job over its shared
//! cluster — so a job's bits cannot depend on which front end ran it.

use crate::ops;
use crate::systems::SystemProfile;
use distme_cluster::rebalance::home_node;
use distme_cluster::{
    ClusterConfig, ElasticPolicy, JobError, JobStats, LocalCluster, Phase, PhaseStats,
    RebalanceReport, SimCluster, TenantId,
};
use distme_core::real_exec::{self, RealExecOptions};
use distme_core::{
    sim_exec, JobPlan, MatmulProblem, MulMethod, OptimizerConfig, PlanCache, PlanCacheStats,
    ResolvedMethod,
};
use distme_matrix::elementwise::EwOp;
use distme_matrix::{codec, BlockId, BlockMatrix, MatrixMeta};
use std::sync::Arc;
use std::time::Instant;

/// The plan for `problem` on the grid of `cfg`, built at most once per
/// membership epoch — the one place either session goes from a problem to
/// a plan. With `fixed: None` the profile chooses the method and applies
/// its execution semantics; the sparse family (`Some(SpmmShift | Sddmm)`)
/// resolves alike under every profile. The key is what *selects* the
/// method, so resolving it — the `(P*, Q*, R*)` search — happens only on a
/// miss, inside the build.
fn plan_for(
    plans: &PlanCache<Arc<JobPlan>>,
    epoch: u64,
    cfg: &ClusterConfig,
    problem: &MatmulProblem,
    profile: SystemProfile,
    fixed: Option<MulMethod>,
) -> Arc<JobPlan> {
    let method = fixed.unwrap_or_else(|| profile.method_for(problem, cfg));
    let key = format!("{problem:?}|{profile:?}|{method:?}");
    plans.get_or_insert(epoch, &key, || {
        #[cfg(test)]
        instrument::record_resolve();
        let resolved = match fixed {
            Some(method) => {
                ResolvedMethod::resolve(method, problem, &OptimizerConfig::from_cluster(cfg))
            }
            None => profile.resolve(problem, cfg),
        };
        Arc::new(JobPlan::from_resolved(problem, &resolved, cfg).at_epoch(epoch))
    })
}

/// What a session has run so far: its operators' statistics, merged, and
/// how many there were.
#[derive(Default)]
pub(crate) struct Tally {
    pub(crate) stats: JobStats,
    pub(crate) ops_run: usize,
}

impl Tally {
    /// Counts one finished operator and hands its value on.
    fn absorb<T>(&mut self, (out, stats): (T, JobStats)) -> T {
        self.stats.merge(&stats);
        self.ops_run += 1;
        out
    }

    /// [`absorb`](Self::absorb) for an operator the driver ran itself: all
    /// its time since `started`, and the bytes it `moved`, belong to
    /// `phase`.
    fn absorb_timed<T>(&mut self, out: T, phase: Phase, moved: PhaseStats, started: Instant) -> T {
        let mut stats = JobStats {
            elapsed_secs: started.elapsed().as_secs_f64(),
            ..Default::default()
        };
        *stats.phase_mut(phase) = PhaseStats {
            secs: stats.elapsed_secs,
            ..moved
        };
        self.absorb((out, stats))
    }
}

/// A paper-scale session: operators are lowered onto the simulated
/// cluster's resource models and only *descriptors* flow.
pub struct SimSession {
    cluster: SimCluster,
    plans: PlanCache<Arc<JobPlan>>,
    profile: SystemProfile,
    tally: Tally,
}

impl SimSession {
    /// Creates a session for `profile` on a fresh simulated cluster.
    pub fn new(cfg: ClusterConfig, profile: SystemProfile) -> Self {
        SimSession {
            cluster: SimCluster::new(cfg),
            plans: PlanCache::new(),
            profile,
            tally: Tally::default(),
        }
    }

    /// The session's system profile.
    pub fn profile(&self) -> SystemProfile {
        self.profile
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &SimCluster {
        &self.cluster
    }

    /// Statistics accumulated over every operator run so far.
    pub fn stats(&self) -> &JobStats {
        &self.tally.stats
    }

    /// Number of operators executed.
    pub fn ops_run(&self) -> usize {
        self.tally.ops_run
    }

    /// Resets the accumulated statistics (e.g. between GNMF iterations).
    pub fn reset_stats(&mut self) {
        self.tally = Tally::default();
    }

    /// Runs `rounds` rounds of an iterative query (`round` is one GNMF or
    /// ALS iteration) and reports the elapsed seconds accumulated after
    /// each.
    ///
    /// # Errors
    /// Propagates the first operator failure.
    pub fn run_rounds(
        mut self,
        dataset: &'static str,
        rounds: usize,
        mut round: impl FnMut(&mut SimSession) -> Result<(), JobError>,
    ) -> Result<SimReport, JobError> {
        let mut cumulative_secs = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            round(&mut self)?;
            cumulative_secs.push(self.stats().elapsed_secs);
        }
        Ok(SimReport {
            dataset,
            system: self.profile.name(),
            cumulative_secs,
            stats: *self.stats(),
        })
    }

    /// Resizes the simulated cluster mid-session: the membership epoch
    /// bumps and cached plans are invalidated, exactly like the real
    /// session (the sim holds no materialized blocks, so there is no
    /// physical migration to replay).
    pub fn scale_to(&mut self, nodes: usize) {
        self.cluster.scale_to(nodes);
    }

    /// Hit/miss/invalidation counters of the session's plan cache.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plans.stats()
    }

    fn multiply(
        &mut self,
        problem: MatmulProblem,
        fixed: Option<MulMethod>,
    ) -> Result<MatrixMeta, JobError> {
        let (epoch, cfg) = (self.cluster.epoch(), *self.cluster.config());
        let plan = plan_for(&self.plans, epoch, &cfg, &problem, self.profile, fixed);
        let stats = sim_exec::simulate_plan(&mut self.cluster, &plan)?;
        Ok(self.tally.absorb((problem.c, stats)))
    }
}

/// Result of a simulated iterative query (GNMF, ALS).
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Dataset name.
    pub dataset: &'static str,
    /// System that ran it.
    pub system: &'static str,
    /// Accumulated elapsed seconds *after* each iteration — the series the
    /// Fig. 8(a–c) curves plot.
    pub cumulative_secs: Vec<f64>,
    /// Statistics accumulated over the whole run.
    pub stats: JobStats,
}

impl SimReport {
    /// Total elapsed seconds over all iterations.
    pub fn total_secs(&self) -> f64 {
        self.cumulative_secs.last().copied().unwrap_or(0.0)
    }
}

/// The operator surface every query is written against, generic over what
/// flows between operators: real blocks (`M = BlockMatrix`, the default —
/// [`RealSession`] and the job service's [`TenantSession`]) or descriptors
/// (`M = MatrixMeta`, [`SimSession`]). It is the paper's §5
/// matrix-expression API: a query is a sequence of calls on it. GNMF and
/// ALS are each one operator sequence over `Ops<M>`, so the simulated
/// figure and the measured workload cannot drift apart; with the default
/// `M` the same code runs unchanged whether it is called by the session
/// owner or submitted as a multi-tenant job.
pub trait Ops<M = BlockMatrix> {
    /// Distributed multiply `a × b` with the profile's planner.
    ///
    /// # Errors
    /// Propagates shape errors and the cluster failure modes.
    fn matmul(&mut self, a: &M, b: &M) -> Result<M, JobError>;

    /// Distributed transpose.
    ///
    /// # Errors
    /// Propagates cluster failure modes.
    fn transpose(&mut self, x: &M) -> Result<M, JobError>;

    /// Element-wise combination of co-partitioned matrices.
    ///
    /// # Errors
    /// Returns a task failure on shape mismatch.
    fn elementwise(&mut self, x: &M, op: EwOp, y: &M) -> Result<M, JobError>;

    /// Distributed sparse × dense multiply via the shift schedule
    /// ([`MulMethod::SpmmShift`]; the sparse method family plans
    /// identically under every profile).
    ///
    /// # Errors
    /// Propagates shape errors and the cluster failure modes.
    fn spmm(&mut self, a: &M, b: &M) -> Result<M, JobError>;

    /// Distributed SDDMM `mask ⊙ (a · b)` into the mask's CSR pattern
    /// ([`MulMethod::Sddmm`]).
    ///
    /// # Errors
    /// Propagates shape errors (including a mask/operand mismatch) and the
    /// cluster failure modes.
    fn sddmm(&mut self, a: &M, b: &M, mask: &M) -> Result<M, JobError>;
}

/// The name `e2e/` implements the real operator surface by.
pub use Ops as RealOps;

impl Ops<MatrixMeta> for SimSession {
    fn matmul(&mut self, a: &MatrixMeta, b: &MatrixMeta) -> Result<MatrixMeta, JobError> {
        self.multiply(MatmulProblem::new(*a, *b)?, None)
    }

    fn transpose(&mut self, x: &MatrixMeta) -> Result<MatrixMeta, JobError> {
        let done = ops::sim_transpose(&mut self.cluster, x, self.profile.reuses_partitioning())?;
        Ok(self.tally.absorb(done))
    }

    /// The sim cost model is op-independent: one arithmetic pass.
    fn elementwise(
        &mut self,
        x: &MatrixMeta,
        _op: EwOp,
        y: &MatrixMeta,
    ) -> Result<MatrixMeta, JobError> {
        let done = ops::sim_elementwise(&mut self.cluster, x, y)?;
        Ok(self.tally.absorb(done))
    }

    fn spmm(&mut self, a: &MatrixMeta, b: &MatrixMeta) -> Result<MatrixMeta, JobError> {
        self.multiply(MatmulProblem::new(*a, *b)?, Some(MulMethod::SpmmShift))
    }

    fn sddmm(
        &mut self,
        a: &MatrixMeta,
        b: &MatrixMeta,
        mask: &MatrixMeta,
    ) -> Result<MatrixMeta, JobError> {
        self.multiply(MatmulProblem::sddmm(*a, *b, *mask)?, Some(MulMethod::Sddmm))
    }
}

/// The real operators: one job's view of a cluster, with every stage
/// tagged by the job's tenant and priority and per-job statistics
/// accumulated across its operators. A [`RealSession`] lends one out per
/// operator over the cluster it owns; [`JobService::submit`] hands one to
/// the job closure over the service's shared cluster (holding the cluster
/// read lock for the job's duration).
///
/// [`JobService::submit`]: crate::service::JobService::submit
pub struct TenantSession<'a> {
    pub(crate) cluster: &'a LocalCluster,
    pub(crate) plans: &'a PlanCache<Arc<JobPlan>>,
    pub(crate) profile: SystemProfile,
    pub(crate) opts: RealExecOptions,
    pub(crate) tally: &'a mut Tally,
}

impl TenantSession<'_> {
    /// The tenant this job runs as.
    pub fn tenant(&self) -> TenantId {
        self.opts.tenant
    }

    /// Statistics accumulated over the job's operators so far.
    pub fn stats(&self) -> &JobStats {
        &self.tally.stats
    }

    /// Number of operators run so far.
    pub fn ops_run(&self) -> usize {
        self.tally.ops_run
    }

    /// The underlying cluster (read-only: configuration and store access).
    pub fn cluster(&self) -> &LocalCluster {
        self.cluster
    }

    /// Plans (through the cache) and executes one multiply-family
    /// operator; `fixed` as for [`plan_for`].
    fn multiply(
        &mut self,
        a: &BlockMatrix,
        b: &BlockMatrix,
        mask: Option<&BlockMatrix>,
        fixed: Option<MulMethod>,
    ) -> Result<BlockMatrix, JobError> {
        let problem = match mask {
            Some(mask) => MatmulProblem::sddmm(*a.meta(), *b.meta(), *mask.meta()),
            None => MatmulProblem::new(*a.meta(), *b.meta()),
        }?;
        let (epoch, cfg) = (self.cluster.epoch(), self.cluster.config());
        let plan = plan_for(self.plans, epoch, cfg, &problem, self.profile, fixed);
        let done = real_exec::execute_plan_masked(self.cluster, a, b, mask, &plan, self.opts)?;
        Ok(self.tally.absorb(done))
    }
}

impl Ops for TenantSession<'_> {
    fn matmul(&mut self, a: &BlockMatrix, b: &BlockMatrix) -> Result<BlockMatrix, JobError> {
        self.multiply(a, b, None, None)
    }

    /// Unless the profile reuses partitioning, every block is shuffled
    /// from its home to the home of its transposed position — one
    /// repartition pass, reported in the operator's stats.
    fn transpose(&mut self, x: &BlockMatrix) -> Result<BlockMatrix, JobError> {
        let t0 = Instant::now();
        let out = x.transpose();
        let mut moved = PhaseStats::default();
        if !self.profile.reuses_partitioning() {
            let nodes = self.cluster.config().nodes;
            for (id, blk) in x.blocks() {
                let bytes = codec::encoded_len(blk);
                moved.shuffle_bytes += bytes;
                if home_node(id, 0, nodes) != home_node(BlockId::new(id.col, id.row), 0, nodes) {
                    moved.cross_node_bytes += bytes;
                }
            }
        }
        Ok(self.tally.absorb_timed(out, Phase::Repartition, moved, t0))
    }

    fn elementwise(
        &mut self,
        x: &BlockMatrix,
        op: EwOp,
        y: &BlockMatrix,
    ) -> Result<BlockMatrix, JobError> {
        let t0 = Instant::now();
        let out = x.elementwise(op, y)?;
        Ok(self
            .tally
            .absorb_timed(out, Phase::LocalMult, PhaseStats::default(), t0))
    }

    fn spmm(&mut self, a: &BlockMatrix, b: &BlockMatrix) -> Result<BlockMatrix, JobError> {
        self.multiply(a, b, None, Some(MulMethod::SpmmShift))
    }

    fn sddmm(
        &mut self,
        a: &BlockMatrix,
        b: &BlockMatrix,
        mask: &BlockMatrix,
    ) -> Result<BlockMatrix, JobError> {
        self.multiply(a, b, Some(mask), Some(MulMethod::Sddmm))
    }
}

/// A laptop-scale session: operators run with real blocks on a cluster the
/// session owns; values are actual [`BlockMatrix`]es.
pub struct RealSession {
    cluster: LocalCluster,
    plans: PlanCache<Arc<JobPlan>>,
    profile: SystemProfile,
    tally: Tally,
}

impl RealSession {
    /// Creates a session for `profile` on a fresh cluster.
    pub fn new(cfg: ClusterConfig, profile: SystemProfile) -> Self {
        RealSession {
            cluster: LocalCluster::new(cfg),
            plans: PlanCache::new(),
            profile,
            tally: Tally::default(),
        }
    }

    /// The operator body over this session's cluster: the anonymous tenant
    /// at priority 0, accumulating into the session's statistics.
    fn ops(&mut self) -> TenantSession<'_> {
        TenantSession {
            cluster: &self.cluster,
            plans: &self.plans,
            profile: self.profile,
            opts: RealExecOptions::default(),
            tally: &mut self.tally,
        }
    }

    /// The session's system profile.
    pub fn profile(&self) -> SystemProfile {
        self.profile
    }

    /// The underlying cluster (configuration and store access).
    pub fn cluster(&self) -> &LocalCluster {
        &self.cluster
    }

    /// Statistics accumulated over every operator run so far.
    pub fn stats(&self) -> &JobStats {
        &self.tally.stats
    }

    /// Number of operators executed.
    pub fn ops_run(&self) -> usize {
        self.tally.ops_run
    }

    /// Resets the accumulated statistics (e.g. between GNMF iterations).
    pub fn reset_stats(&mut self) {
        self.tally = Tally::default();
    }

    /// [`Ops::matmul`], callable without the trait in scope.
    ///
    /// # Errors
    /// Propagates shape errors and the cluster failure modes.
    pub fn matmul(&mut self, a: &BlockMatrix, b: &BlockMatrix) -> Result<BlockMatrix, JobError> {
        self.ops().matmul(a, b)
    }

    /// Arms seeded fault injection on the session's cluster: every
    /// subsequent operator runs under `spec`'s drop/corruption/crash/
    /// blackout schedule until [`RealSession::clear_faults`].
    ///
    /// # Panics
    /// If a fault rate is outside `[0, 1]` or a blackout window is
    /// inverted.
    pub fn inject_faults(&self, spec: distme_cluster::FaultSpec) -> Arc<distme_cluster::FaultPlan> {
        self.cluster.inject_faults(spec)
    }

    /// Disarms fault injection; later operators run fault-free.
    pub fn clear_faults(&self) {
        self.cluster.clear_faults();
    }

    /// Resizes the cluster to `nodes` mid-session: resident blocks are
    /// migrated onto the new grid (charged as [`distme_cluster::Phase::Rebalance`]
    /// traffic and folded into the session's accumulated stats), the
    /// membership epoch bumps, and every cached plan is invalidated so the
    /// next operator re-runs the `(P*, Q*, R*)` search against the new
    /// node count.
    ///
    /// # Errors
    /// [`JobError::InvalidSubmission`] for `nodes == 0`, with nothing
    /// changed; transport failures during migration.
    pub fn scale_to(&mut self, nodes: usize) -> Result<RebalanceReport, JobError> {
        let report = self.cluster.scale_to(nodes)?;
        self.tally.stats.merge(&report.stats);
        Ok(report)
    }

    /// Permanently removes `node` from the cluster. Its blocks are gone;
    /// keys with replicas on surviving nodes are re-homed onto the shrunk
    /// grid (the lineage path), keys whose only copy lived on `node`
    /// surface as [`JobError::NodeDecommissioned`] — the epoch still
    /// bumps and the cluster stays usable.
    ///
    /// # Errors
    /// [`JobError::NodeDecommissioned`] when unreplicated blocks are lost;
    /// transport failures during migration.
    pub fn decommission_node(&mut self, node: usize) -> Result<RebalanceReport, JobError> {
        let report = self.cluster.decommission_node(node)?;
        self.tally.stats.merge(&report.stats);
        Ok(report)
    }

    /// Applies `policy` to the statistics accumulated since the last
    /// [`RealSession::reset_stats`]: when the observed task pressure leaves the
    /// policy's utilization band, the cluster is resized one step and the
    /// rebalance report returned. `Ok(None)` means the cluster is already
    /// inside the band.
    ///
    /// # Errors
    /// Propagates transport failures during the resize's migration.
    pub fn autoscale(
        &mut self,
        policy: &ElasticPolicy,
    ) -> Result<Option<RebalanceReport>, JobError> {
        let cfg = self.cluster.config();
        let (nodes, tasks_per_node) = (cfg.nodes, cfg.tasks_per_node);
        match policy.recommend(&self.tally.stats, nodes, tasks_per_node) {
            Some(target) => self.scale_to(target).map(Some),
            None => Ok(None),
        }
    }

    /// Hit/miss/invalidation counters of the session's plan cache.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plans.stats()
    }
}

impl Ops for RealSession {
    fn matmul(&mut self, a: &BlockMatrix, b: &BlockMatrix) -> Result<BlockMatrix, JobError> {
        self.ops().matmul(a, b)
    }

    fn transpose(&mut self, x: &BlockMatrix) -> Result<BlockMatrix, JobError> {
        self.ops().transpose(x)
    }

    fn elementwise(
        &mut self,
        x: &BlockMatrix,
        op: EwOp,
        y: &BlockMatrix,
    ) -> Result<BlockMatrix, JobError> {
        self.ops().elementwise(x, op, y)
    }

    fn spmm(&mut self, a: &BlockMatrix, b: &BlockMatrix) -> Result<BlockMatrix, JobError> {
        self.ops().spmm(a, b)
    }

    fn sddmm(
        &mut self,
        a: &BlockMatrix,
        b: &BlockMatrix,
        mask: &BlockMatrix,
    ) -> Result<BlockMatrix, JobError> {
        self.ops().sddmm(a, b, mask)
    }
}

/// Test-only instrumentation: counts method resolutions at the
/// [`plan_for`] seam, per thread (a job's operators plan on the thread
/// that runs its closure).
#[cfg(test)]
pub(crate) mod instrument {
    use std::cell::Cell;

    thread_local! {
        static RESOLVES: Cell<u64> = const { Cell::new(0) };
    }

    /// Method resolutions on this thread so far.
    pub(crate) fn resolve_calls() -> u64 {
        RESOLVES.with(|c| c.get())
    }

    pub(crate) fn record_resolve() {
        RESOLVES.with(|c| c.set(c.get() + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distme_matrix::MatrixGenerator;

    #[test]
    fn sim_session_accumulates_stats() {
        let mut s = SimSession::new(ClusterConfig::paper_cluster(), SystemProfile::DistMe);
        let a = MatrixMeta::dense(20_000, 20_000);
        let b = MatrixMeta::dense(20_000, 20_000);
        let c = s.matmul(&a, &b).unwrap();
        assert_eq!((c.rows, c.cols), (20_000, 20_000));
        let after_one = s.stats().elapsed_secs;
        assert!(after_one > 0.0);
        let _ = s.matmul(&c, &b).unwrap();
        assert!(s.stats().elapsed_secs > after_one);
        assert_eq!(s.ops_run(), 2);
        s.reset_stats();
        assert_eq!(s.stats().elapsed_secs, 0.0);
    }

    #[test]
    fn sim_session_chains_transpose_and_ew() {
        let mut s = SimSession::new(ClusterConfig::paper_cluster(), SystemProfile::SystemMl);
        let x = MatrixMeta::dense(10_000, 4_000);
        let xt = s.transpose(&x).unwrap();
        assert_eq!(xt.rows, 4_000);
        let y = s.elementwise(&x, EwOp::Mul, &x).unwrap();
        assert_eq!(y.rows, 10_000);
        assert_eq!(s.ops_run(), 2);
    }

    #[test]
    fn real_session_multiplies_correctly_per_profile() {
        let meta_a = MatrixMeta::dense(80, 64).with_block_size(16);
        let meta_b = MatrixMeta::dense(64, 48).with_block_size(16);
        let a = MatrixGenerator::with_seed(5).generate(&meta_a).unwrap();
        let b = MatrixGenerator::with_seed(6).generate(&meta_b).unwrap();
        let reference = a.multiply(&b).unwrap();
        for profile in SystemProfile::ALL {
            let mut s = RealSession::new(ClusterConfig::laptop(), profile);
            let c = s.matmul(&a, &b).unwrap();
            assert!(
                c.max_abs_diff(&reference).unwrap() < 1e-9,
                "{} diverged",
                profile.name()
            );
        }
    }

    #[test]
    fn real_session_reuses_resident_operands() {
        // The session's cluster keeps operand placements resident across
        // ops: a chained multiply over the same factor (GNMF's pattern)
        // finds its blocks already on their home nodes.
        let meta_a = MatrixMeta::dense(80, 64).with_block_size(16);
        let meta_b = MatrixMeta::dense(64, 48).with_block_size(16);
        let a = MatrixGenerator::with_seed(5).generate(&meta_a).unwrap();
        let b = MatrixGenerator::with_seed(6).generate(&meta_b).unwrap();
        let mut s = RealSession::new(ClusterConfig::laptop(), SystemProfile::DistMe);
        s.matmul(&a, &b).unwrap();
        let reused_before = s.cluster().stores().ingest_reused();
        s.matmul(&a, &b).unwrap();
        assert!(
            s.cluster().stores().ingest_reused() > reused_before,
            "second op over the same operands should re-ingest nothing"
        );
    }

    #[test]
    fn dropped_results_leave_the_stores_at_the_next_job() {
        let meta_a = MatrixMeta::dense(80, 64).with_block_size(16);
        let meta_b = MatrixMeta::dense(64, 48).with_block_size(16);
        let a = MatrixGenerator::with_seed(5).generate(&meta_a).unwrap();
        let b = MatrixGenerator::with_seed(6).generate(&meta_b).unwrap();
        let mut s = RealSession::new(ClusterConfig::laptop(), SystemProfile::DistMe);
        for _ in 0..3 {
            s.matmul(&a, &b).unwrap();
        }
        let c = s.matmul(&a, &b).unwrap();
        let resident: std::collections::BTreeSet<u64> = s
            .cluster()
            .stores()
            .resident_keys()
            .keys()
            .map(|k| k.matrix)
            .collect();
        assert_eq!(
            resident,
            [a.uid(), b.uid(), c.uid()].into(),
            "only matrices with a live handle stay resident"
        );
    }

    #[test]
    fn real_session_ledger_accumulates_across_ops() {
        let meta_a = MatrixMeta::dense(80, 64).with_block_size(16);
        let meta_b = MatrixMeta::dense(64, 48).with_block_size(16);
        let a = MatrixGenerator::with_seed(5).generate(&meta_a).unwrap();
        let b = MatrixGenerator::with_seed(6).generate(&meta_b).unwrap();
        let mut s = RealSession::new(ClusterConfig::laptop(), SystemProfile::DistMe);
        s.matmul(&a, &b).unwrap();
        let after_one = s.stats().total_shuffle_bytes();
        assert!(after_one > 0);
        s.matmul(&a, &b).unwrap();
        // No per-job reset: session-level totals are running sums, and an
        // identical plan reports identical bytes.
        assert_eq!(s.stats().total_shuffle_bytes(), 2 * after_one);
    }

    #[test]
    fn a_transpose_reports_its_repartition_bytes_on_every_front_end() {
        // MatFast does not reuse partitioning: a transpose ships every
        // block from its home to its transposed position's home, and those
        // bytes belong in the stats of whoever ran it — a session's, or a
        // tenant's job's.
        let x = MatrixGenerator::with_seed(4)
            .generate(&MatrixMeta::dense(80, 48).with_block_size(16))
            .unwrap();
        let nodes = ClusterConfig::laptop().nodes;
        let (mut shuffled, mut cross_node) = (0, 0);
        for (id, blk) in x.blocks() {
            let bytes = codec::encoded_len(blk);
            shuffled += bytes;
            if home_node(id, 0, nodes) != home_node(BlockId::new(id.col, id.row), 0, nodes) {
                cross_node += bytes;
            }
        }
        assert!(0 < cross_node && cross_node < shuffled);
        let expected = (shuffled, cross_node, 0);
        let comm = |stats: &JobStats| {
            let p = stats.phase(Phase::Repartition);
            (p.shuffle_bytes, p.cross_node_bytes, p.broadcast_bytes)
        };

        let mut s = RealSession::new(ClusterConfig::laptop(), SystemProfile::MatFast);
        s.transpose(&x).unwrap();
        assert_eq!(comm(s.stats()), expected, "session");

        let svc = crate::service::JobService::new(ClusterConfig::laptop(), SystemProfile::MatFast);
        let x = Arc::new(x);
        let job = svc.submit(crate::service::JobSpec::new(TenantId(3)), move |s| {
            s.transpose(&x)
        });
        assert_eq!(comm(&job.wait().unwrap().stats), expected, "tenant job");
    }

    #[test]
    fn repeated_matmuls_hit_the_plan_cache_until_a_resize() {
        let meta_a = MatrixMeta::dense(80, 64).with_block_size(16);
        let meta_b = MatrixMeta::dense(64, 48).with_block_size(16);
        let a = MatrixGenerator::with_seed(5).generate(&meta_a).unwrap();
        let b = MatrixGenerator::with_seed(6).generate(&meta_b).unwrap();
        let reference = a.multiply(&b).unwrap();
        let mut s = RealSession::new(ClusterConfig::laptop(), SystemProfile::DistMe);
        s.matmul(&a, &b).unwrap();
        s.matmul(&a, &b).unwrap();
        let st = s.plan_cache_stats();
        assert_eq!(
            (st.hits, st.misses),
            (1, 1),
            "identical op must reuse its plan"
        );
        // A resize bumps the epoch: every cached plan is stale.
        let report = s.scale_to(6).unwrap();
        assert_eq!((report.from_nodes, report.to_nodes), (4, 6));
        let c = s.matmul(&a, &b).unwrap();
        let st = s.plan_cache_stats();
        assert_eq!(st.misses, 2, "post-resize op must re-plan");
        assert_eq!(st.invalidations, 1);
        assert!(c.max_abs_diff(&reference).unwrap() < 1e-9);
        assert!(s.stats().rebalanced_moves > 0);
    }

    #[test]
    fn scaling_a_session_to_zero_nodes_is_refused_with_nothing_changed() {
        let mut s = RealSession::new(ClusterConfig::laptop(), SystemProfile::DistMe);
        let err = s.scale_to(0).unwrap_err();
        assert!(matches!(err, JobError::InvalidSubmission { .. }), "{err}");
        assert_eq!((s.cluster().epoch(), s.cluster().config().nodes), (0, 4));
        assert_eq!(s.stats().rebalanced_moves, 0);
    }

    #[test]
    fn a_plan_cache_hit_does_not_resolve_the_method_again() {
        // Resolution (for `CuboidAuto`, the (P*, Q*, R*) search) belongs to
        // a plan's construction: a second identical multiply must find its
        // plan by what *selects* the method, not by re-deriving the result.
        let meta_a = MatrixMeta::dense(80, 64).with_block_size(16);
        let meta_b = MatrixMeta::dense(64, 48).with_block_size(16);
        let a = Arc::new(MatrixGenerator::with_seed(5).generate(&meta_a).unwrap());
        let b = Arc::new(MatrixGenerator::with_seed(6).generate(&meta_b).unwrap());
        let mut s = RealSession::new(ClusterConfig::laptop(), SystemProfile::DistMe);
        let before = instrument::resolve_calls();
        s.matmul(&a, &b).unwrap();
        s.matmul(&a, &b).unwrap();
        assert_eq!(instrument::resolve_calls() - before, 1);

        // The same under the job service; a job's operators plan on the
        // thread that runs its closure, so the count is taken there.
        let svc = crate::service::JobService::new(ClusterConfig::laptop(), SystemProfile::DistMe);
        let job = svc.submit(crate::service::JobSpec::new(TenantId(1)), move |s| {
            let before = instrument::resolve_calls();
            s.matmul(&a, &b)?;
            s.matmul(&a, &b)?;
            Ok(instrument::resolve_calls() - before)
        });
        assert_eq!(job.wait().unwrap().value, 1);
    }

    #[test]
    fn sim_session_replans_after_a_resize() {
        let mut s = SimSession::new(ClusterConfig::paper_cluster(), SystemProfile::DistMe);
        let a = MatrixMeta::dense(20_000, 20_000);
        let b = MatrixMeta::dense(20_000, 20_000);
        s.matmul(&a, &b).unwrap();
        s.matmul(&a, &b).unwrap();
        assert_eq!(s.plan_cache_stats().hits, 1);
        s.scale_to(12);
        s.matmul(&a, &b).unwrap();
        let st = s.plan_cache_stats();
        assert_eq!((st.misses, st.invalidations), (2, 1));
    }

    #[test]
    fn real_session_decommission_recovers_replicated_results() {
        // A multiply leaves its result dual-homed; decommissioning one node
        // must either recover everything from the surviving replicas or
        // fail loudly — and either way the session keeps working.
        let meta_a = MatrixMeta::dense(80, 64).with_block_size(16);
        let meta_b = MatrixMeta::dense(64, 48).with_block_size(16);
        let a = MatrixGenerator::with_seed(5).generate(&meta_a).unwrap();
        let b = MatrixGenerator::with_seed(6).generate(&meta_b).unwrap();
        let reference = a.multiply(&b).unwrap();
        let mut s = RealSession::new(ClusterConfig::laptop(), SystemProfile::DistMe);
        s.matmul(&a, &b).unwrap();
        match s.decommission_node(1) {
            Ok(report) => assert_eq!(report.to_nodes, 3),
            Err(e) => assert_eq!(e.annotation(), "N.D."),
        }
        assert_eq!(s.cluster().config().nodes, 3);
        let c = s.matmul(&a, &b).unwrap();
        assert!(c.max_abs_diff(&reference).unwrap() < 1e-9);
    }

    #[test]
    fn real_ops_compute_correctly() {
        let meta = MatrixMeta::dense(60, 40).with_block_size(20);
        let x = MatrixGenerator::with_seed(1).generate(&meta).unwrap();
        // MatFast does not reuse partitioning: its transpose shuffles.
        let mut s = RealSession::new(ClusterConfig::laptop(), SystemProfile::MatFast);
        let t = s.transpose(&x).unwrap();
        assert_eq!(t.meta().rows, 40);
        assert_eq!(t.get_element(7, 31), x.get_element(31, 7));
        assert_eq!(
            s.stats().phase(Phase::Repartition).shuffle_bytes,
            x.blocks()
                .map(|(_, blk)| codec::encoded_len(blk))
                .sum::<u64>()
        );

        let y = MatrixGenerator::with_seed(2).generate(&meta).unwrap();
        let sum = s.elementwise(&x, EwOp::Add, &y).unwrap();
        assert_eq!(
            sum.get_element(5, 5),
            x.get_element(5, 5) + y.get_element(5, 5)
        );
        let z = MatrixGenerator::with_seed(3)
            .generate(&MatrixMeta::dense(10, 10).with_block_size(5))
            .unwrap();
        assert!(s.elementwise(&x, EwOp::Add, &z).is_err());
    }

    #[test]
    fn real_session_full_expression() {
        // (A^T)^T * A element-multiplied with A*... exercise chaining.
        let meta = MatrixMeta::dense(48, 48).with_block_size(16);
        let a = MatrixGenerator::with_seed(7).generate(&meta).unwrap();
        let mut s = RealSession::new(ClusterConfig::laptop(), SystemProfile::DistMe);
        let at = s.transpose(&a).unwrap();
        let sym = s.matmul(&at, &a).unwrap(); // A^T A is symmetric
        let symt = s.transpose(&sym).unwrap();
        assert!(sym.max_abs_diff(&symt).unwrap() < 1e-9);
        let hadamard = s.elementwise(&sym, EwOp::Mul, &symt).unwrap();
        assert!(hadamard.get_element(0, 0) >= 0.0); // squares
    }
}

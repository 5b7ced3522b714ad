//! Evaluation sessions: the engine's execution contexts.
//!
//! One generic [`Session`] drives either backend. A backend pairs a
//! cluster (simulated or thread-backed) with a value representation
//! (descriptors or materialized block matrices); the session layers the
//! system profile's planning and the per-operator statistics accumulation
//! on top, identically for both. `SimSession` and `RealSession` are plain
//! type aliases — there is no duplicated session logic to drift apart.

use crate::ops;
use crate::systems::SystemProfile;
use distme_cluster::{
    ClusterConfig, ElasticPolicy, ExecutionBackend, JobError, JobStats, LocalCluster,
    RebalanceReport, SimCluster,
};
use distme_core::real_exec::{self, RealExecOptions};
use distme_core::{
    sim_exec, JobPlan, MatmulProblem, MulMethod, OptimizerConfig, PlanCache, ResolvedMethod,
};
use distme_matrix::elementwise::EwOp;
use distme_matrix::{BlockMatrix, MatrixMeta};
use std::sync::Arc;

/// A place session operators execute: a cluster plus the value
/// representation that flows between operators on it.
pub trait EngineBackend {
    /// The underlying cluster type.
    type Cluster: ExecutionBackend;
    /// What a matrix *is* on this backend: a descriptor (sim) or a
    /// materialized block matrix (real).
    type Value;

    /// Builds the backend on a fresh cluster.
    fn from_config(cfg: ClusterConfig) -> Self;

    /// The underlying cluster (configuration and ledger access).
    fn cluster(&self) -> &Self::Cluster;

    /// Distributed multiply `a × b` planned by `profile`.
    ///
    /// # Errors
    /// Propagates shape errors and the cluster failure modes.
    fn matmul(
        &mut self,
        profile: SystemProfile,
        a: &Self::Value,
        b: &Self::Value,
    ) -> Result<(Self::Value, JobStats), JobError>;

    /// Distributed transpose.
    ///
    /// # Errors
    /// Propagates cluster failure modes.
    fn transpose(
        &mut self,
        profile: SystemProfile,
        x: &Self::Value,
    ) -> Result<(Self::Value, JobStats), JobError>;

    /// Element-wise combination of co-partitioned matrices.
    ///
    /// # Errors
    /// Returns a task failure on shape mismatch.
    fn elementwise(
        &mut self,
        x: &Self::Value,
        op: EwOp,
        y: &Self::Value,
    ) -> Result<(Self::Value, JobStats), JobError>;

    /// Distributed sparse × dense multiply via the shift schedule
    /// ([`MulMethod::SpmmShift`]): the sparse operand's row stripes stay
    /// put, the dense factor's panels repartition to them. The sparse
    /// method family is profile-independent — every system runs the same
    /// schedule.
    ///
    /// # Errors
    /// Propagates shape errors and the cluster failure modes.
    fn spmm(
        &mut self,
        a: &Self::Value,
        b: &Self::Value,
    ) -> Result<(Self::Value, JobStats), JobError>;

    /// Distributed SDDMM `mask ⊙ (a · b)` ([`MulMethod::Sddmm`]): the
    /// sampling mask rides with `a`'s row partition and never moves.
    ///
    /// # Errors
    /// Propagates shape errors (including a mask/operand mismatch) and the
    /// cluster failure modes.
    fn sddmm(
        &mut self,
        a: &Self::Value,
        b: &Self::Value,
        mask: &Self::Value,
    ) -> Result<(Self::Value, JobStats), JobError>;
}

/// Cache key for a multiply plan: the problem and the resolved method
/// pin the routing completely for a given membership epoch (the epoch
/// itself is the cache's invalidation axis, not part of the key).
fn plan_key(problem: &MatmulProblem, resolved: &ResolvedMethod) -> String {
    format!("{problem:?}|{resolved:?}")
}

/// The real backend's plan for `problem` under `resolved` on `cluster`'s
/// current grid, built at most once per membership epoch — the one place
/// the session and the job service go from a resolved method to a plan.
pub(crate) fn plan_for(
    plans: &PlanCache<Arc<JobPlan>>,
    cluster: &LocalCluster,
    problem: &MatmulProblem,
    resolved: &ResolvedMethod,
) -> Arc<JobPlan> {
    let epoch = cluster.epoch();
    plans.get_or_insert(epoch, &plan_key(problem, resolved), || {
        Arc::new(JobPlan::from_resolved(problem, resolved, cluster.config()).at_epoch(epoch))
    })
}

/// [`plan_for`] a sparse-family multiply, which every profile resolves
/// alike: `SpmmShift` without a mask, `Sddmm` with one.
///
/// # Errors
/// A task failure on operand (or mask) shape mismatch.
pub(crate) fn sparse_plan_for(
    plans: &PlanCache<Arc<JobPlan>>,
    cluster: &LocalCluster,
    a: &BlockMatrix,
    b: &BlockMatrix,
    mask: Option<&BlockMatrix>,
) -> Result<Arc<JobPlan>, JobError> {
    let (problem, method) = match mask {
        Some(m) => (
            MatmulProblem::sddmm(*a.meta(), *b.meta(), *m.meta()),
            MulMethod::Sddmm,
        ),
        None => (
            MatmulProblem::new(*a.meta(), *b.meta()),
            MulMethod::SpmmShift,
        ),
    };
    let problem = problem?;
    let resolved = ResolvedMethod::resolve(
        method,
        &problem,
        &OptimizerConfig::from_cluster(cluster.config()),
    );
    Ok(plan_for(plans, cluster, &problem, &resolved))
}

/// The paper-scale backend: only descriptors flow; every operator is
/// lowered onto the simulated cluster's resource models.
pub struct SimBackend {
    cluster: SimCluster,
    plans: PlanCache<Arc<JobPlan>>,
}

impl SimBackend {
    /// Lowers `problem` under `resolved` onto the simulated cluster through
    /// the plan cache.
    fn run(
        &mut self,
        problem: MatmulProblem,
        resolved: ResolvedMethod,
    ) -> Result<(MatrixMeta, JobStats), JobError> {
        let epoch = self.cluster.epoch();
        let plan = self
            .plans
            .get_or_insert(epoch, &plan_key(&problem, &resolved), || {
                Arc::new(
                    JobPlan::from_resolved(&problem, &resolved, self.cluster.config())
                        .at_epoch(epoch),
                )
            });
        let stats = sim_exec::simulate_plan(&mut self.cluster, &plan)?;
        Ok((problem.c, stats))
    }

    /// [`Self::run`] a sparse-family method, which every profile resolves
    /// alike.
    fn run_sparse(
        &mut self,
        problem: MatmulProblem,
        method: MulMethod,
    ) -> Result<(MatrixMeta, JobStats), JobError> {
        let optimizer = OptimizerConfig::from_cluster(self.cluster.config());
        self.run(
            problem,
            ResolvedMethod::resolve(method, &problem, &optimizer),
        )
    }
}

impl EngineBackend for SimBackend {
    type Cluster = SimCluster;
    type Value = MatrixMeta;

    fn from_config(cfg: ClusterConfig) -> Self {
        SimBackend {
            cluster: SimCluster::new(cfg),
            plans: PlanCache::new(),
        }
    }

    fn cluster(&self) -> &SimCluster {
        &self.cluster
    }

    fn matmul(
        &mut self,
        profile: SystemProfile,
        a: &MatrixMeta,
        b: &MatrixMeta,
    ) -> Result<(MatrixMeta, JobStats), JobError> {
        let problem = MatmulProblem::new(*a, *b)?;
        self.run(problem, profile.resolve(&problem, self.cluster.config()))
    }

    fn transpose(
        &mut self,
        profile: SystemProfile,
        x: &MatrixMeta,
    ) -> Result<(MatrixMeta, JobStats), JobError> {
        ops::sim_transpose(&mut self.cluster, x, profile.reuses_partitioning())
    }

    fn elementwise(
        &mut self,
        x: &MatrixMeta,
        _op: EwOp,
        y: &MatrixMeta,
    ) -> Result<(MatrixMeta, JobStats), JobError> {
        // The sim cost model is op-independent: one arithmetic pass.
        ops::sim_elementwise(&mut self.cluster, x, y)
    }

    fn spmm(&mut self, a: &MatrixMeta, b: &MatrixMeta) -> Result<(MatrixMeta, JobStats), JobError> {
        let problem = MatmulProblem::new(*a, *b)?;
        self.run_sparse(problem, MulMethod::SpmmShift)
    }

    fn sddmm(
        &mut self,
        a: &MatrixMeta,
        b: &MatrixMeta,
        mask: &MatrixMeta,
    ) -> Result<(MatrixMeta, JobStats), JobError> {
        let problem = MatmulProblem::sddmm(*a, *b, *mask)?;
        self.run_sparse(problem, MulMethod::Sddmm)
    }
}

/// The laptop-scale backend: operators run with real blocks on the
/// thread-backed cluster and results are checked against references.
pub struct RealBackend {
    cluster: LocalCluster,
    plans: PlanCache<Arc<JobPlan>>,
}

impl EngineBackend for RealBackend {
    type Cluster = LocalCluster;
    type Value = BlockMatrix;

    fn from_config(cfg: ClusterConfig) -> Self {
        RealBackend {
            cluster: LocalCluster::new(cfg),
            plans: PlanCache::new(),
        }
    }

    fn cluster(&self) -> &LocalCluster {
        &self.cluster
    }

    fn matmul(
        &mut self,
        profile: SystemProfile,
        a: &BlockMatrix,
        b: &BlockMatrix,
    ) -> Result<(BlockMatrix, JobStats), JobError> {
        let problem = MatmulProblem::new(*a.meta(), *b.meta())?;
        let resolved = profile.resolve(&problem, self.cluster.config());
        let plan = plan_for(&self.plans, &self.cluster, &problem, &resolved);
        real_exec::execute_plan(&self.cluster, a, b, &plan, RealExecOptions::default())
    }

    fn transpose(
        &mut self,
        profile: SystemProfile,
        x: &BlockMatrix,
    ) -> Result<(BlockMatrix, JobStats), JobError> {
        Ok(ops::real_transpose(
            &self.cluster,
            x,
            profile.reuses_partitioning(),
        ))
    }

    fn elementwise(
        &mut self,
        x: &BlockMatrix,
        op: EwOp,
        y: &BlockMatrix,
    ) -> Result<(BlockMatrix, JobStats), JobError> {
        ops::real_elementwise(x, op, y)
    }

    fn spmm(
        &mut self,
        a: &BlockMatrix,
        b: &BlockMatrix,
    ) -> Result<(BlockMatrix, JobStats), JobError> {
        let plan = sparse_plan_for(&self.plans, &self.cluster, a, b, None)?;
        real_exec::execute_plan(&self.cluster, a, b, &plan, RealExecOptions::default())
    }

    fn sddmm(
        &mut self,
        a: &BlockMatrix,
        b: &BlockMatrix,
        mask: &BlockMatrix,
    ) -> Result<(BlockMatrix, JobStats), JobError> {
        let plan = sparse_plan_for(&self.plans, &self.cluster, a, b, Some(mask))?;
        real_exec::execute_plan_masked(
            &self.cluster,
            a,
            b,
            Some(mask),
            &plan,
            RealExecOptions::default(),
        )
    }
}

/// The real-backend operator surface shared by [`Session<RealBackend>`]
/// and the job service's [`TenantSession`]: algorithms written against it
/// (GNMF, power iteration) run unchanged whether they are called directly
/// by the session owner or submitted as a multi-tenant job.
///
/// [`TenantSession`]: crate::service::TenantSession
pub trait RealOps {
    /// Distributed multiply `a × b`.
    ///
    /// # Errors
    /// Propagates shape errors and the cluster failure modes.
    fn matmul(&mut self, a: &BlockMatrix, b: &BlockMatrix) -> Result<BlockMatrix, JobError>;

    /// Distributed transpose.
    ///
    /// # Errors
    /// Propagates cluster failure modes.
    fn transpose(&mut self, x: &BlockMatrix) -> Result<BlockMatrix, JobError>;

    /// Element-wise combination of co-partitioned matrices.
    ///
    /// # Errors
    /// Returns a task failure on shape mismatch.
    fn elementwise(
        &mut self,
        x: &BlockMatrix,
        op: EwOp,
        y: &BlockMatrix,
    ) -> Result<BlockMatrix, JobError>;

    /// Distributed sparse × dense multiply (shift schedule).
    ///
    /// # Errors
    /// Propagates shape errors and the cluster failure modes.
    fn spmm(&mut self, a: &BlockMatrix, b: &BlockMatrix) -> Result<BlockMatrix, JobError>;

    /// Distributed SDDMM `mask ⊙ (a · b)` into the mask's CSR pattern.
    ///
    /// # Errors
    /// Propagates shape errors and the cluster failure modes.
    fn sddmm(
        &mut self,
        a: &BlockMatrix,
        b: &BlockMatrix,
        mask: &BlockMatrix,
    ) -> Result<BlockMatrix, JobError>;
}

impl RealOps for Session<RealBackend> {
    fn matmul(&mut self, a: &BlockMatrix, b: &BlockMatrix) -> Result<BlockMatrix, JobError> {
        Session::matmul(self, a, b)
    }

    fn transpose(&mut self, x: &BlockMatrix) -> Result<BlockMatrix, JobError> {
        Session::transpose(self, x)
    }

    fn elementwise(
        &mut self,
        x: &BlockMatrix,
        op: EwOp,
        y: &BlockMatrix,
    ) -> Result<BlockMatrix, JobError> {
        Session::elementwise(self, x, op, y)
    }

    fn spmm(&mut self, a: &BlockMatrix, b: &BlockMatrix) -> Result<BlockMatrix, JobError> {
        Session::spmm(self, a, b)
    }

    fn sddmm(
        &mut self,
        a: &BlockMatrix,
        b: &BlockMatrix,
        mask: &BlockMatrix,
    ) -> Result<BlockMatrix, JobError> {
        Session::sddmm(self, a, b, mask)
    }
}

/// An evaluation session over backend `B`: per-operator statistics
/// accumulate across the expression being evaluated.
pub struct Session<B: EngineBackend> {
    backend: B,
    profile: SystemProfile,
    accumulated: JobStats,
    ops_run: usize,
}

/// A paper-scale session: operators run against the simulated cluster and
/// only *descriptors* flow.
pub type SimSession = Session<SimBackend>;

/// A laptop-scale session: operators run with real blocks; values are
/// actual [`BlockMatrix`]es.
pub type RealSession = Session<RealBackend>;

impl<B: EngineBackend> Session<B> {
    /// Creates a session for `profile` on a cluster configuration.
    pub fn new(cfg: ClusterConfig, profile: SystemProfile) -> Self {
        Session {
            backend: B::from_config(cfg),
            profile,
            accumulated: JobStats::default(),
            ops_run: 0,
        }
    }

    /// The session's system profile.
    pub fn profile(&self) -> SystemProfile {
        self.profile
    }

    /// The underlying cluster (ledger access for tests).
    pub fn cluster(&self) -> &B::Cluster {
        self.backend.cluster()
    }

    /// Statistics accumulated over every operator run so far.
    pub fn stats(&self) -> &JobStats {
        &self.accumulated
    }

    /// Number of operators executed.
    pub fn ops_run(&self) -> usize {
        self.ops_run
    }

    /// Resets the accumulated statistics (e.g. between GNMF iterations).
    pub fn reset_stats(&mut self) {
        self.accumulated = JobStats::default();
        self.ops_run = 0;
    }

    /// Distributed multiply `a × b` with the profile's planner.
    ///
    /// # Errors
    /// Propagates shape errors and the cluster failure modes.
    pub fn matmul(&mut self, a: &B::Value, b: &B::Value) -> Result<B::Value, JobError> {
        let (out, stats) = self.backend.matmul(self.profile, a, b)?;
        self.absorb(stats);
        Ok(out)
    }

    /// Distributed transpose.
    ///
    /// # Errors
    /// Propagates cluster failure modes.
    pub fn transpose(&mut self, x: &B::Value) -> Result<B::Value, JobError> {
        let (out, stats) = self.backend.transpose(self.profile, x)?;
        self.absorb(stats);
        Ok(out)
    }

    /// Element-wise combination of co-partitioned matrices.
    ///
    /// # Errors
    /// Returns a task failure on shape mismatch.
    pub fn elementwise(
        &mut self,
        x: &B::Value,
        op: EwOp,
        y: &B::Value,
    ) -> Result<B::Value, JobError> {
        let (out, stats) = self.backend.elementwise(x, op, y)?;
        self.absorb(stats);
        Ok(out)
    }

    /// Distributed sparse × dense multiply via the shift schedule (the
    /// sparse method family plans identically under every profile).
    ///
    /// # Errors
    /// Propagates shape errors and the cluster failure modes.
    pub fn spmm(&mut self, a: &B::Value, b: &B::Value) -> Result<B::Value, JobError> {
        let (out, stats) = self.backend.spmm(a, b)?;
        self.absorb(stats);
        Ok(out)
    }

    /// Distributed SDDMM `mask ⊙ (a · b)` into the mask's CSR pattern.
    ///
    /// # Errors
    /// Propagates shape errors and the cluster failure modes.
    pub fn sddmm(
        &mut self,
        a: &B::Value,
        b: &B::Value,
        mask: &B::Value,
    ) -> Result<B::Value, JobError> {
        let (out, stats) = self.backend.sddmm(a, b, mask)?;
        self.absorb(stats);
        Ok(out)
    }

    fn absorb(&mut self, stats: JobStats) {
        self.accumulated.merge(&stats);
        self.ops_run += 1;
    }
}

impl Session<RealBackend> {
    /// Arms seeded fault injection on the session's cluster: every
    /// subsequent operator runs under `spec`'s drop/corruption/crash/
    /// blackout schedule until [`Session::clear_faults`].
    ///
    /// # Panics
    /// If a fault rate is outside `[0, 1]` or a blackout window is
    /// inverted.
    pub fn inject_faults(&self, spec: distme_cluster::FaultSpec) -> Arc<distme_cluster::FaultPlan> {
        self.backend.cluster.inject_faults(spec)
    }

    /// Disarms fault injection; later operators run fault-free.
    pub fn clear_faults(&self) {
        self.backend.cluster.clear_faults();
    }

    /// Resizes the cluster to `nodes` mid-session: resident blocks are
    /// migrated onto the new grid (charged as [`distme_cluster::Phase::Rebalance`]
    /// traffic and folded into the session's accumulated stats), the
    /// membership epoch bumps, and every cached plan is invalidated so the
    /// next operator re-runs the `(P*, Q*, R*)` search against the new
    /// node count.
    ///
    /// # Errors
    /// Propagates transport failures during migration.
    pub fn scale_to(&mut self, nodes: usize) -> Result<RebalanceReport, JobError> {
        let report = self.backend.cluster.scale_to(nodes)?;
        self.accumulated.merge(&report.stats);
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
        let report = self.backend.cluster.decommission_node(node)?;
        self.accumulated.merge(&report.stats);
        Ok(report)
    }

    /// Applies `policy` to the statistics accumulated since the last
    /// [`Session::reset_stats`]: when the observed task pressure leaves the
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
        let cfg = self.backend.cluster.config();
        let (nodes, tasks_per_node) = (cfg.nodes, cfg.tasks_per_node);
        match policy.recommend(&self.accumulated, nodes, tasks_per_node) {
            Some(target) => self.scale_to(target).map(Some),
            None => Ok(None),
        }
    }

    /// Hit/miss/invalidation counters of the session's plan cache.
    pub fn plan_cache_stats(&self) -> distme_core::PlanCacheStats {
        self.backend.plans.stats()
    }
}

impl Session<SimBackend> {
    /// Resizes the simulated cluster mid-session: the membership epoch
    /// bumps and cached plans are invalidated, exactly like the real
    /// backend (the sim holds no materialized blocks, so there is no
    /// physical migration to replay).
    pub fn scale_to(&mut self, nodes: usize) {
        self.backend.cluster.scale_to(nodes);
    }

    /// Hit/miss/invalidation counters of the session's plan cache.
    pub fn plan_cache_stats(&self) -> distme_core::PlanCacheStats {
        self.backend.plans.stats()
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
    fn real_session_ledger_accumulates_across_ops() {
        use distme_cluster::Phase;
        let meta_a = MatrixMeta::dense(80, 64).with_block_size(16);
        let meta_b = MatrixMeta::dense(64, 48).with_block_size(16);
        let a = MatrixGenerator::with_seed(5).generate(&meta_a).unwrap();
        let b = MatrixGenerator::with_seed(6).generate(&meta_b).unwrap();
        let mut s = RealSession::new(ClusterConfig::laptop(), SystemProfile::DistMe);
        s.matmul(&a, &b).unwrap();
        let after_one: u64 = Phase::ALL
            .iter()
            .map(|&p| s.cluster().ledger().shuffle_bytes(p))
            .sum();
        assert!(after_one > 0);
        s.matmul(&a, &b).unwrap();
        // No per-job reset: session-level totals are running sums, and an
        // identical plan charges identical bytes.
        let after_two: u64 = Phase::ALL
            .iter()
            .map(|&p| s.cluster().ledger().shuffle_bytes(p))
            .sum();
        assert_eq!(after_two, 2 * after_one);
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

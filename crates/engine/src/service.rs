//! The multi-tenant job service: one cluster, many concurrent callers.
//!
//! [`RealSession`](crate::session::RealSession) is a single-caller front
//! end: one owner, one mutable borrow, one job at a time. [`JobService`] is the
//! engine's shared front end on the same substrate — jobs from several
//! tenants are submitted concurrently, pass the cluster scheduler's
//! admission control (θt-style memory budgeting summed across admitted
//! jobs: an over-budget submission *queues* rather than failing), and
//! their stages interleave on the cluster's shared worker pool under the
//! scheduler's priority/fair-share policy.
//!
//! Determinism contract: a job submitted through the service produces
//! **bit-identical** results and per-job statistics to the same operators
//! run directly through a `RealSession` on an identical cluster. Both run
//! the one operator body ([`TenantSession`]) — a job closure gets it over
//! the shared cluster, a `RealSession` over its own — and differ only in
//! the tenant and priority their stages carry. Task indices within a stage
//! are handed out in order regardless of which job's workers interleave
//! between them, model bytes are the plan's, and physical payload counters
//! are job-local — nothing a concurrent job does can leak into another
//! job's results or stats (`crates/engine/tests/service.rs` checks it
//! under real concurrency).
//!
//! ```no_run
//! use distme_engine::service::{JobService, JobSpec};
//! use distme_engine::session::Ops;
//! use distme_engine::systems::SystemProfile;
//! use distme_cluster::{ClusterConfig, TenantId};
//! # let (a, b) = unimplemented!();
//! let svc = JobService::new(ClusterConfig::laptop(), SystemProfile::DistMe);
//! let h = svc.submit(JobSpec::new(TenantId(1)), move |s| s.matmul(&a, &b));
//! let out = h.wait().unwrap();
//! println!("{} ops for {}", out.ops_run, out.tenant);
//! ```

use crate::session::{Tally, TenantSession};
use crate::systems::SystemProfile;
use distme_cluster::{
    ClusterConfig, ElasticPolicy, JobError, JobStats, LocalCluster, QueueWaitStats,
    RebalanceReport, Scheduler, SchedulerLoad, TenantId,
};
use distme_core::real_exec::RealExecOptions;
use distme_core::{JobPlan, PlanCache, PlanCacheStats};
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::thread;

/// What a submission declares about itself: identity, scheduling class,
/// and the memory demand the admission controller holds against the
/// cluster budget while the job runs.
#[derive(Debug, Clone, Copy)]
pub struct JobSpec {
    /// Tenant the job's traffic, leases and stats are attributed to.
    pub tenant: TenantId,
    /// Scheduler priority (higher wins freed slots first; clamped to the
    /// cluster's configured `priority_levels`).
    pub priority: u8,
    /// Declared resident-memory demand, charged against
    /// `SchedulerConfig::admission_budget_bytes` for the job's lifetime.
    pub demand_bytes: u64,
}

impl JobSpec {
    /// A spec for `tenant` at priority 0 with zero declared demand.
    pub fn new(tenant: TenantId) -> Self {
        JobSpec {
            tenant,
            priority: 0,
            demand_bytes: 0,
        }
    }

    /// Sets the scheduler priority.
    #[must_use]
    pub fn priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the declared memory demand.
    #[must_use]
    pub fn demand_bytes(mut self, bytes: u64) -> Self {
        self.demand_bytes = bytes;
        self
    }
}

/// Where a submitted job currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the submission queue for admission (memory budget).
    Queued,
    /// Admitted; its stages are running on the shared worker pool.
    Running,
    /// Completed successfully; [`JobHandle::wait`] returns the output.
    Finished,
    /// Rejected at submission or failed while running.
    Failed,
}

/// A finished job: its value plus the service-side measurements.
#[derive(Debug)]
pub struct JobOutput<T> {
    /// What the job closure returned.
    pub value: T,
    /// Statistics accumulated over the job's operators.
    pub stats: JobStats,
    /// Number of operators the job ran.
    pub ops_run: usize,
    /// Seconds the job waited in the submission queue before admission.
    pub queue_wait_secs: f64,
    /// The tenant the job ran as.
    pub tenant: TenantId,
}

struct Slot<T> {
    status: JobStatus,
    result: Option<Result<JobOutput<T>, JobError>>,
}

struct HandleState<T> {
    slot: Mutex<Slot<T>>,
    cv: Condvar,
}

impl<T> HandleState<T> {
    fn set_status(&self, status: JobStatus) {
        let mut slot = self.slot.lock().unwrap_or_else(|p| p.into_inner());
        slot.status = status;
        self.cv.notify_all();
    }

    fn finish(&self, result: Result<JobOutput<T>, JobError>) {
        let mut slot = self.slot.lock().unwrap_or_else(|p| p.into_inner());
        slot.status = if result.is_ok() {
            JobStatus::Finished
        } else {
            JobStatus::Failed
        };
        slot.result = Some(result);
        self.cv.notify_all();
    }
}

/// A submitted job: poll it with [`status`](Self::status) or block on
/// [`wait`](Self::wait). Dropping the handle detaches the job — it keeps
/// running to completion.
pub struct JobHandle<T> {
    state: Arc<HandleState<T>>,
}

impl<T> JobHandle<T> {
    /// The job's current lifecycle state.
    pub fn status(&self) -> JobStatus {
        self.state
            .slot
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .status
    }

    /// Blocks until the job finishes and returns its output.
    ///
    /// # Errors
    /// The submission rejection ([`JobError::QueueFull`],
    /// [`JobError::InvalidSubmission`]), whatever the job's operators
    /// failed with, or [`JobError::Panicked`] if its closure panicked.
    pub fn wait(self) -> Result<JobOutput<T>, JobError> {
        let mut slot = self.state.slot.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(result) = slot.result.take() {
                return result;
            }
            slot = self.state.cv.wait(slot).unwrap_or_else(|p| p.into_inner());
        }
    }
}

struct Shared {
    /// Jobs hold read locks while running; membership changes (autoscale,
    /// explicit resizes) take the write lock, so a resize waits for
    /// in-flight jobs and new jobs see the post-resize epoch.
    cluster: RwLock<LocalCluster>,
    /// Clone of the cluster's scheduler handle, reachable without the
    /// cluster lock: queued submissions must not block a resize and vice
    /// versa.
    scheduler: Scheduler,
    /// One plan cache shared by every tenant's jobs (epoch-safe and
    /// exactly-once under concurrency; see `core::plan_cache`).
    plans: PlanCache<Arc<JobPlan>>,
    profile: SystemProfile,
    /// Each tenant's finished jobs' statistics, merged; resizes under
    /// [`TenantId::ANONYMOUS`].
    by_tenant: Mutex<BTreeMap<TenantId, JobStats>>,
}

impl Shared {
    fn by_tenant(&self) -> MutexGuard<'_, BTreeMap<TenantId, JobStats>> {
        self.by_tenant.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Folds `stats` into `tenant`'s entry.
    fn attribute(&self, tenant: TenantId, stats: &JobStats) {
        self.by_tenant().entry(tenant).or_default().merge(stats);
    }
}

/// The multi-tenant engine front end: a shared cluster behind a
/// submission queue. See the module docs for the determinism contract.
pub struct JobService {
    shared: Arc<Shared>,
}

impl JobService {
    /// Builds a service on a fresh cluster for `cfg`, planning every
    /// tenant's multiplies with `profile`.
    pub fn new(cfg: ClusterConfig, profile: SystemProfile) -> Self {
        let cluster = LocalCluster::new(cfg);
        let scheduler = cluster.scheduler().clone();
        JobService {
            shared: Arc::new(Shared {
                cluster: RwLock::new(cluster),
                scheduler,
                plans: PlanCache::new(),
                profile,
                by_tenant: Mutex::default(),
            }),
        }
    }

    /// Submits `job` for `spec`'s tenant and returns immediately with a
    /// handle. The job passes admission control on a driver thread: while
    /// the declared demand would overshoot the cluster memory budget it
    /// *queues* (status [`JobStatus::Queued`]); a full submission queue or
    /// an out-of-range priority fails the handle instead, and so does a
    /// panic in `job` ([`JobError::Panicked`], scoped to this handle).
    pub fn submit<T, F>(&self, spec: JobSpec, job: F) -> JobHandle<T>
    where
        T: Send + 'static,
        F: FnOnce(&mut TenantSession<'_>) -> Result<T, JobError> + Send + 'static,
    {
        let state = Arc::new(HandleState {
            slot: Mutex::new(Slot {
                status: JobStatus::Queued,
                result: None,
            }),
            cv: Condvar::new(),
        });
        let shared = Arc::clone(&self.shared);
        let thread_state = Arc::clone(&state);
        thread::spawn(move || {
            // The driver runs under `catch_unwind`: a panic in the tenant's
            // closure unwinds out of it — dropping the cluster read lock
            // and the admission ticket on the way — and fails this handle
            // with a typed error, instead of killing the only thread that
            // could ever wake `wait`.
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                let ticket = shared.scheduler.submit(spec.priority, spec.demand_bytes)?;
                thread_state.set_status(JobStatus::Running);
                let queue_wait_secs = ticket.queue_wait_secs;
                let cluster = shared.cluster.read().unwrap_or_else(|p| p.into_inner());
                let mut tally = Tally::default();
                let value = job(&mut TenantSession {
                    cluster: &cluster,
                    plans: &shared.plans,
                    profile: shared.profile,
                    opts: RealExecOptions {
                        tenant: spec.tenant,
                        priority: spec.priority,
                    },
                    tally: &mut tally,
                });
                drop(cluster);
                shared.attribute(spec.tenant, &tally.stats);
                // Admission released only now: the budget bounds *concurrent*
                // resident jobs, so the ticket must outlive the work.
                drop(ticket);
                value.map(|value| JobOutput {
                    value,
                    stats: tally.stats,
                    ops_run: tally.ops_run,
                    queue_wait_secs,
                    tenant: spec.tenant,
                })
            }));
            thread_state.finish(outcome.unwrap_or_else(|payload| {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_owned());
                Err(JobError::Panicked { message })
            }));
        });
        JobHandle { state }
    }

    /// The scheduler's live load (queue depths, held slots, admitted
    /// memory) — the autoscaler's pressure signal.
    pub fn load(&self) -> SchedulerLoad {
        self.shared.scheduler.load()
    }

    /// Queue-wait distribution over every admission so far.
    pub fn queue_wait_stats(&self) -> QueueWaitStats {
        self.shared.scheduler.queue_wait_stats()
    }

    /// The statistics of every job `tenant` has finished — returned `Ok`
    /// or `Err` — merged ([`JobStats::merge`]); all zero for a tenant with
    /// none. Resizes ([`scale_to`](Self::scale_to),
    /// [`autoscale`](Self::autoscale)) are [`TenantId::ANONYMOUS`]'s.
    pub fn tenant_stats(&self, tenant: TenantId) -> JobStats {
        self.shared
            .by_tenant()
            .get(&tenant)
            .copied()
            .unwrap_or_default()
    }

    /// Every tenant with statistics, in id order.
    pub fn tenants(&self) -> Vec<TenantId> {
        self.shared.by_tenant().keys().copied().collect()
    }

    /// Hit/miss/invalidation counters of the shared plan cache.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.shared.plans.stats()
    }

    /// A copy of the cluster configuration.
    pub fn config(&self) -> ClusterConfig {
        *self.read_cluster().config()
    }

    /// Current membership epoch.
    pub fn epoch(&self) -> u64 {
        self.read_cluster().epoch()
    }

    /// Resizes the cluster once in-flight jobs drain (write lock); queued
    /// submissions then plan against the new epoch. The report's stats
    /// are attributed to [`TenantId::ANONYMOUS`].
    ///
    /// # Errors
    /// Propagates transport failures during the resize's migration.
    pub fn scale_to(&self, nodes: usize) -> Result<RebalanceReport, JobError> {
        let mut cluster = self
            .shared
            .cluster
            .write()
            .unwrap_or_else(|p| p.into_inner());
        let report = cluster.scale_to(nodes)?;
        self.shared.attribute(TenantId::ANONYMOUS, &report.stats);
        Ok(report)
    }

    /// Applies `policy` to the scheduler's live load
    /// ([`ElasticPolicy::recommend_from_load`]): the multi-tenant
    /// replacement for the per-session autoscaler, seeing every
    /// concurrent job's pressure instead of the last job's stats.
    /// `Ok(None)` means the pool is inside the utilization band.
    ///
    /// # Errors
    /// Propagates transport failures during the resize's migration.
    pub fn autoscale(&self, policy: &ElasticPolicy) -> Result<Option<RebalanceReport>, JobError> {
        let load = self.shared.scheduler.load();
        let (nodes, tasks_per_node) = {
            let cluster = self.read_cluster();
            (cluster.config().nodes, cluster.config().tasks_per_node)
        };
        match policy.recommend_from_load(&load, nodes, tasks_per_node) {
            Some(target) => self.scale_to(target).map(Some),
            None => Ok(None),
        }
    }

    fn read_cluster(&self) -> std::sync::RwLockReadGuard<'_, LocalCluster> {
        self.shared
            .cluster
            .read()
            .unwrap_or_else(|p| p.into_inner())
    }
}

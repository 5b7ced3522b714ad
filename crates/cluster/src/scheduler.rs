//! Shared multi-job task scheduler: the cluster-wide worker pool.
//!
//! No job owns the threads that run its tasks: each `run_stage` runs on
//! its calling thread plus helpers from one process-wide pool, and the
//! scheduler turns the cluster's task slots into a *lease pool* shared by
//! every concurrently running job, with two layers of control:
//!
//! 1. **Admission** ([`Scheduler::submit`]): a job declares its θt memory
//!    demand up front. The sum of admitted jobs' demands may not exceed
//!    [`crate::SchedulerConfig::admission_budget_bytes`]; a job that would
//!    overshoot *queues* (blocks) until earlier jobs release their
//!    admission — it is never rejected for memory. Only queue-depth
//!    overflow rejects, with [`JobError::QueueFull`]. A lone job whose
//!    demand exceeds the whole budget is admitted when nothing else is
//!    running: the budget bounds *concurrent* residency, and rejecting
//!    outright would make big jobs unrunnable on an idle cluster.
//!
//! 2. **Dispatch** ([`Scheduler::register_gang`] / [`Gang::next_task`]):
//!    each stage registers its task count as a *gang* together with the
//!    indices that are ready to run; the stage's workers then pull
//!    `(slot lease, task index)` grants, smallest ready index first, and
//!    running tasks release further indices with [`Gang::mark_ready`]. A
//!    gang registered all-ready is therefore handed out strictly in order.
//!    Which index a worker gets never depends on how many other jobs are
//!    running, and outputs are collected by index, so result bytes do not
//!    either. Across gangs the dispatcher is fair-share first: the tenant
//!    currently holding the fewest slots wins, then higher priority, then
//!    FIFO.
//!
//! The candidate set for a grant is restricted to gangs that have both
//! pending tasks *and* a worker actually waiting: choosing a gang nobody
//! is waiting on would stall the pool (the grant would sit unclaimed while
//! runnable gangs starve).
//!
//! Everything here is a plain `Mutex<State>` + `Condvar`; there are no
//! free-running scheduler threads, so a `Scheduler` is inert when idle and
//! deterministic under test.

use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use crate::config::SchedulerConfig;
use crate::failure::JobError;
use crate::stats::TenantId;

/// Dependency-readiness bookkeeping of a gang: an index is dispatchable
/// once it is declared ready, at registration or by [`Gang::mark_ready`].
#[derive(Debug, Default)]
struct ReadyState {
    /// Indices ready for dispatch but not yet granted (granted smallest
    /// first, so readiness never perturbs output ordering determinism —
    /// outputs are collected by index regardless).
    runnable: std::collections::BTreeSet<usize>,
    /// Every index ever marked ready. Marking is idempotent against this
    /// set, so a retried producer re-satisfying its dependents cannot
    /// double-grant an index.
    marked: std::collections::BTreeSet<usize>,
}

/// One stage's gang bookkeeping.
#[derive(Debug)]
struct GangState {
    tenant: TenantId,
    priority: u8,
    /// FIFO tie-breaker: registration order.
    seq: u64,
    /// Tasks granted so far.
    next_task: usize,
    n_tasks: usize,
    /// Worker threads currently inside `next_task`.
    waiters: usize,
    ready: ReadyState,
    /// Poisoned: a terminal task failure means pending dependencies will
    /// never be satisfied; waiters must drain instead of deadlocking.
    aborted: bool,
}

impl GangState {
    fn pending(&self) -> usize {
        self.n_tasks - self.next_task
    }

    /// Whether a grant could be handed out right now (ignoring slots).
    fn dispatchable(&self) -> bool {
        !self.aborted && !self.ready.runnable.is_empty()
    }
}

#[derive(Debug, Default)]
struct State {
    /// The pool's lease capacity — tracks elastic resizes via
    /// [`Scheduler::set_total_slots`].
    total_slots: usize,
    /// Slot leases currently out, cluster-wide.
    held: usize,
    /// Leases held per tenant (for fair-share dispatch and attribution).
    tenant_held: BTreeMap<TenantId, usize>,
    gangs: BTreeMap<u64, GangState>,
    next_gang_id: u64,
    next_seq: u64,
    /// θt bytes pinned by admitted jobs.
    admitted_mem: u64,
    admitted_jobs: usize,
    /// Jobs blocked in `submit` awaiting admission.
    queued_jobs: usize,
    /// Seconds each admitted job spent queued (0 for immediate admission).
    queue_waits_secs: Vec<f64>,
}

impl State {
    /// Which gang gets the next free slot. Candidates must have a ready
    /// task and at least one waiting worker; among them the tenant holding
    /// the fewest slots wins, then higher priority, then FIFO.
    fn choose(&self) -> Option<u64> {
        self.gangs
            .iter()
            .filter(|(_, g)| g.dispatchable() && g.waiters > 0)
            .min_by_key(|(_, g)| {
                (
                    self.tenant_held.get(&g.tenant).copied().unwrap_or(0),
                    std::cmp::Reverse(g.priority),
                    g.seq,
                )
            })
            .map(|(id, _)| *id)
    }
}

#[derive(Debug)]
struct Inner {
    cfg: SchedulerConfig,
    state: Mutex<State>,
    cv: Condvar,
}

/// Cheaply cloneable handle to the shared scheduler. All clones address
/// the same lease pool and admission queue.
#[derive(Debug, Clone)]
pub struct Scheduler {
    inner: Arc<Inner>,
}

/// Point-in-time view of scheduler pressure, the input to
/// [`crate::ElasticPolicy::recommend_from_load`]. Unlike the last job's
/// [`crate::JobStats`], this sees *all* concurrent jobs at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedulerLoad {
    /// Jobs blocked in `submit` awaiting admission.
    pub queued_jobs: usize,
    /// Jobs admitted (holding θt budget) right now.
    pub admitted_jobs: usize,
    /// Tasks registered but not yet granted, summed over live gangs.
    pub pending_tasks: usize,
    /// Slot leases currently out.
    pub held_slots: usize,
    /// Worker threads blocked waiting for a grant.
    pub waiting_workers: usize,
    /// The pool's lease capacity.
    pub total_slots: usize,
    /// θt bytes pinned by admitted jobs.
    pub admitted_mem_bytes: u64,
}

/// Queue-wait distribution over every admission so far (benchmark metric).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QueueWaitStats {
    /// Admissions recorded.
    pub submissions: usize,
    /// Median seconds spent queued before admission.
    pub p50_secs: f64,
    /// 95th-percentile seconds spent queued before admission.
    pub p95_secs: f64,
}

/// Proof of admission: holds the job's θt demand against the cluster
/// budget until dropped.
#[derive(Debug)]
pub struct AdmissionTicket {
    sched: Scheduler,
    demand_bytes: u64,
    /// Seconds this submission spent queued before admission.
    pub queue_wait_secs: f64,
}

impl Drop for AdmissionTicket {
    fn drop(&mut self) {
        let mut st = self.sched.lock();
        st.admitted_mem -= self.demand_bytes;
        st.admitted_jobs -= 1;
        self.sched.inner.cv.notify_all();
    }
}

/// One registered stage: a source of `(lease, task index)` grants for the
/// stage's worker threads. Dropping the gang retires it (its remaining
/// pending tasks vanish from the pool's accounting).
#[derive(Debug)]
pub struct Gang {
    sched: Scheduler,
    id: u64,
}

/// A granted task: the slot lease plus the claimed task index. The lease
/// returns to the pool when the grant is dropped, even if the task
/// panicked.
#[derive(Debug)]
pub struct TaskGrant {
    /// The claimed task index within the gang (smallest ready first).
    pub index: usize,
    _lease: Lease,
}

#[derive(Debug)]
struct Lease {
    sched: Scheduler,
    tenant: TenantId,
}

impl Drop for Lease {
    fn drop(&mut self) {
        let mut st = self.sched.lock();
        st.held -= 1;
        let held = st
            .tenant_held
            .get_mut(&self.tenant)
            .expect("lease release for a tenant that holds no slots");
        *held -= 1;
        if *held == 0 {
            st.tenant_held.remove(&self.tenant);
        }
        self.sched.inner.cv.notify_all();
    }
}

impl Scheduler {
    /// A scheduler over `total_slots` concurrent leases (normally
    /// [`crate::ClusterConfig::total_slots`]) with the given tuning.
    pub fn new(total_slots: usize, cfg: SchedulerConfig) -> Self {
        cfg.assert_valid();
        assert!(total_slots > 0, "scheduler needs at least one slot");
        Scheduler {
            inner: Arc::new(Inner {
                cfg,
                state: Mutex::new(State {
                    total_slots,
                    ..State::default()
                }),
                cv: Condvar::new(),
            }),
        }
    }

    /// The tuning this scheduler was built with.
    pub fn config(&self) -> &SchedulerConfig {
        &self.inner.cfg
    }

    /// The pool's lease capacity.
    pub fn total_slots(&self) -> usize {
        self.lock().total_slots
    }

    /// Resizes the lease pool — called when elastic membership changes the
    /// cluster's slot count. Leases already out stay valid; a shrink just
    /// stops new grants until enough leases return.
    pub fn set_total_slots(&self, total_slots: usize) {
        assert!(total_slots > 0, "scheduler needs at least one slot");
        let mut st = self.lock();
        st.total_slots = total_slots;
        self.inner.cv.notify_all();
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // A panicked task thread can poison the lock; the state it guards
        // is only counters, so continue rather than cascading the panic.
        self.inner.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Submits a job for admission, blocking until its `demand_bytes` fit
    /// under the admission budget alongside already-admitted jobs. Returns
    /// `Err(QueueFull)` when `queue_depth` jobs are already waiting and
    /// `Err(InvalidSubmission)` for a priority outside the configured
    /// range; never rejects for memory.
    pub fn submit(&self, priority: u8, demand_bytes: u64) -> Result<AdmissionTicket, JobError> {
        let cfg = self.inner.cfg;
        if priority >= cfg.priority_levels {
            return Err(JobError::InvalidSubmission {
                reason: format!(
                    "priority {priority} outside configured range 0..{}",
                    cfg.priority_levels
                ),
            });
        }
        let start = Instant::now();
        let mut st = self.lock();
        if st.queued_jobs >= cfg.queue_depth {
            return Err(JobError::QueueFull {
                queued: st.queued_jobs,
                depth: cfg.queue_depth,
            });
        }
        st.queued_jobs += 1;
        // Block while the demand would overshoot the budget — unless the
        // cluster is otherwise empty, in which case a lone over-budget job
        // runs (the budget bounds *concurrent* residency).
        while st.admitted_mem.saturating_add(demand_bytes) > cfg.admission_budget_bytes
            && st.admitted_jobs > 0
        {
            st = self.inner.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
        st.queued_jobs -= 1;
        st.admitted_jobs += 1;
        st.admitted_mem = st.admitted_mem.saturating_add(demand_bytes);
        let queue_wait_secs = start.elapsed().as_secs_f64();
        st.queue_waits_secs.push(queue_wait_secs);
        self.inner.cv.notify_all();
        drop(st);
        Ok(AdmissionTicket {
            sched: self.clone(),
            demand_bytes,
            queue_wait_secs,
        })
    }

    /// Registers a stage of `n_tasks` tasks under `tenant`/`priority`.
    /// Priorities above the configured range are clamped (registration is
    /// internal; validation happened at submit).
    ///
    /// Only indices declared ready (in `ready`, later via
    /// [`Gang::mark_ready`]) are granted, smallest ready index first —
    /// dispatch follows the plan's dependency-readiness view instead of a
    /// stage barrier. A gang with no dependencies passes `(0..n_tasks)`
    /// and is handed out in order.
    pub fn register_gang(
        &self,
        tenant: TenantId,
        priority: u8,
        n_tasks: usize,
        ready: Vec<usize>,
    ) -> Gang {
        let mut state = ReadyState::default();
        for idx in ready {
            assert!(idx < n_tasks, "ready index {idx} outside gang of {n_tasks}");
            state.marked.insert(idx);
            state.runnable.insert(idx);
        }
        let mut st = self.lock();
        let id = st.next_gang_id;
        st.next_gang_id += 1;
        let seq = st.next_seq;
        st.next_seq += 1;
        st.gangs.insert(
            id,
            GangState {
                tenant,
                priority: priority.min(self.inner.cfg.priority_levels - 1),
                seq,
                next_task: 0,
                n_tasks,
                waiters: 0,
                ready: state,
                aborted: false,
            },
        );
        self.inner.cv.notify_all();
        Gang {
            sched: self.clone(),
            id,
        }
    }

    /// Declares task `index` dispatchable (its dependencies landed).
    /// Idempotent: re-marking an index (a retried producer re-satisfying
    /// dependents) is a no-op.
    fn mark_ready(&self, gang: u64, index: usize) {
        let mut st = self.lock();
        let g = st
            .gangs
            .get_mut(&gang)
            .expect("mark_ready on a retired gang");
        assert!(
            index < g.n_tasks,
            "ready index {index} outside gang of {} tasks",
            g.n_tasks
        );
        if g.ready.marked.insert(index) {
            g.ready.runnable.insert(index);
            self.inner.cv.notify_all();
        }
    }

    /// Poisons a gang: pending grants stop and every waiter drains with
    /// `None`. Called when a terminal task failure means outstanding
    /// dependencies will never be satisfied — the waiters must not
    /// deadlock on readiness that cannot come.
    fn abort_gang(&self, gang: u64) {
        let mut st = self.lock();
        if let Some(g) = st.gangs.get_mut(&gang) {
            g.aborted = true;
        }
        self.inner.cv.notify_all();
    }

    fn next_task(&self, gang: u64) -> Option<TaskGrant> {
        let mut st = self.lock();
        st.gangs
            .get_mut(&gang)
            .expect("next_task on a retired gang")
            .waiters += 1;
        // A new waiter can change the dispatcher's choice; wake sleepers
        // so nobody waits on a stale decision.
        self.inner.cv.notify_all();
        loop {
            let g = &st.gangs[&gang];
            if g.aborted || g.pending() == 0 {
                st.gangs.get_mut(&gang).unwrap().waiters -= 1;
                self.inner.cv.notify_all();
                return None;
            }
            if st.held < st.total_slots && st.choose() == Some(gang) {
                let tenant = g.tenant;
                let g = st.gangs.get_mut(&gang).unwrap();
                let index = g
                    .ready
                    .runnable
                    .pop_first()
                    .expect("a chosen gang has a ready task");
                g.next_task += 1;
                g.waiters -= 1;
                st.held += 1;
                *st.tenant_held.entry(tenant).or_insert(0) += 1;
                self.inner.cv.notify_all();
                return Some(TaskGrant {
                    index,
                    _lease: Lease {
                        sched: self.clone(),
                        tenant,
                    },
                });
            }
            st = self.inner.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }

    fn retire_gang(&self, gang: u64) {
        let mut st = self.lock();
        let g = st.gangs.remove(&gang);
        debug_assert!(
            g.map(|g| g.waiters).unwrap_or(0) == 0,
            "gang retired while workers still wait on it"
        );
        self.inner.cv.notify_all();
    }

    /// Live pressure across all concurrent jobs.
    pub fn load(&self) -> SchedulerLoad {
        let st = self.lock();
        SchedulerLoad {
            queued_jobs: st.queued_jobs,
            admitted_jobs: st.admitted_jobs,
            pending_tasks: st.gangs.values().map(|g| g.pending()).sum(),
            held_slots: st.held,
            waiting_workers: st.gangs.values().map(|g| g.waiters).sum(),
            total_slots: st.total_slots,
            admitted_mem_bytes: st.admitted_mem,
        }
    }

    /// Slots currently leased to `tenant`.
    pub fn held_by(&self, tenant: TenantId) -> usize {
        self.lock().tenant_held.get(&tenant).copied().unwrap_or(0)
    }

    /// Queue-wait distribution over all admissions so far.
    pub fn queue_wait_stats(&self) -> QueueWaitStats {
        let st = self.lock();
        let mut waits = st.queue_waits_secs.clone();
        drop(st);
        if waits.is_empty() {
            return QueueWaitStats::default();
        }
        waits.sort_by(|a, b| a.partial_cmp(b).expect("queue waits are finite"));
        let q = |p: f64| waits[((waits.len() - 1) as f64 * p).round() as usize];
        QueueWaitStats {
            submissions: waits.len(),
            p50_secs: q(0.50),
            p95_secs: q(0.95),
        }
    }
}

impl Gang {
    /// Blocks until this gang is granted a slot, returning its smallest
    /// ready index — or `None` once every task has been handed out (or the
    /// gang was aborted).
    pub fn next_task(&self) -> Option<TaskGrant> {
        self.sched.next_task(self.id)
    }

    /// Declares task `index` ready for dispatch (see
    /// [`Scheduler::register_gang`]). Idempotent.
    pub fn mark_ready(&self, index: usize) {
        self.sched.mark_ready(self.id, index);
    }

    /// Poisons the gang so every waiting worker drains with `None` instead
    /// of blocking on dependencies that will never be satisfied.
    pub fn abort(&self) {
        self.sched.abort_gang(self.id);
    }
}

impl Drop for Gang {
    fn drop(&mut self) {
        self.sched.retire_gang(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn cfg(budget: u64) -> SchedulerConfig {
        SchedulerConfig {
            queue_depth: 4,
            admission_budget_bytes: budget,
            priority_levels: 4,
        }
    }

    fn spin_until(sched: &Scheduler, pred: impl Fn(SchedulerLoad) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !pred(sched.load()) {
            assert!(Instant::now() < deadline, "scheduler never reached state");
            std::thread::yield_now();
        }
    }

    #[test]
    fn solo_gang_hands_out_indices_in_order_within_slots() {
        let sched = Scheduler::new(3, cfg(1000));
        let gang = sched.register_gang(TenantId(1), 0, 5, (0..5).collect());
        for expect in 0..5 {
            let grant = gang.next_task().unwrap();
            assert_eq!(grant.index, expect);
            assert!(sched.load().held_slots <= 3);
        }
        assert!(gang.next_task().is_none());
        drop(gang);
        assert_eq!(sched.load().pending_tasks, 0);
        assert_eq!(sched.load().held_slots, 0);
    }

    #[test]
    fn lease_count_never_exceeds_total_slots() {
        let sched = Scheduler::new(2, cfg(1000));
        let gang = sched.register_gang(TenantId(1), 0, 8, (0..8).collect());
        let peak = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    while let Some(_grant) = gang.next_task() {
                        let held = sched.load().held_slots;
                        peak.fetch_max(held, Ordering::Relaxed);
                        assert!(held <= 2, "held {held} > 2 slots");
                    }
                });
            }
        });
        assert!(peak.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn priority_wins_the_freed_slot() {
        // Neither contender holds a slot, so priority decides.
        let sched = Scheduler::new(1, cfg(1000));
        let filler = sched.register_gang(TenantId(9), 0, 1, vec![0]);
        let slot = filler.next_task().unwrap();

        let lo = sched.register_gang(TenantId(1), 0, 1, vec![0]);
        let hi = sched.register_gang(TenantId(2), 3, 1, vec![0]);
        let order = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let g = lo.next_task().unwrap();
                order.lock().unwrap().push(("lo", Instant::now()));
                drop(g);
            });
            scope.spawn(|| {
                let g = hi.next_task().unwrap();
                order.lock().unwrap().push(("hi", Instant::now()));
                drop(g);
            });
            spin_until(&sched, |l| l.waiting_workers == 2);
            drop(slot); // free the only slot with both gangs waiting
        });
        let order = order.into_inner().unwrap();
        assert_eq!(order[0].0, "hi", "higher priority should win the slot");
        assert!(order[0].1 <= order[1].1);
    }

    #[test]
    fn the_tenant_holding_fewer_slots_wins_over_priority() {
        let sched = Scheduler::new(2, cfg(1000));
        // Tenant 1 holds both slots; releasing one leaves tenant 1 still
        // holding a slot while tenant 2 holds none.
        let holder = sched.register_gang(TenantId(1), 3, 2, (0..2).collect());
        let held_a = holder.next_task().unwrap();
        let held_b = holder.next_task().unwrap();

        let rich = sched.register_gang(TenantId(1), 3, 1, vec![0]); // high priority
        let poor = sched.register_gang(TenantId(2), 0, 1, vec![0]); // low priority
        let winner = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let g = rich.next_task().unwrap();
                winner.lock().unwrap().push(("rich", Instant::now()));
                drop(g);
            });
            scope.spawn(|| {
                let g = poor.next_task().unwrap();
                winner.lock().unwrap().push(("poor", Instant::now()));
                drop(g);
            });
            spin_until(&sched, |l| l.waiting_workers == 2);
            // With both waiting, fair share must hand the freed slot to
            // tenant 2 despite tenant 1's higher priority.
            drop(held_a);
        });
        let order = winner.into_inner().unwrap();
        assert_eq!(
            order[0].0, "poor",
            "fair share should favor the slot-poor tenant"
        );
        drop(held_b);
        assert_eq!(sched.held_by(TenantId(1)), 0);
        assert_eq!(sched.held_by(TenantId(2)), 0);
    }

    #[test]
    fn admission_queues_rather_than_rejects_over_budget() {
        let sched = Scheduler::new(2, cfg(100));
        let first = sched.submit(0, 60).unwrap();
        assert!(first.queue_wait_secs >= 0.0);
        let admitted = Mutex::new(None);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // 60 + 60 > 100: must block, never error.
                let t = sched.submit(0, 60).unwrap();
                *admitted.lock().unwrap() = Some(t);
            });
            spin_until(&sched, |l| l.queued_jobs == 1);
            assert_eq!(sched.load().admitted_jobs, 1);
            assert_eq!(sched.load().admitted_mem_bytes, 60);
            drop(first); // release the budget; the queued job admits
        });
        assert_eq!(sched.load().admitted_jobs, 1);
        assert_eq!(sched.load().admitted_mem_bytes, 60);
        drop(admitted.into_inner().unwrap().expect("second job admitted"));
        assert_eq!(sched.load().admitted_jobs, 0);
        let waits = sched.queue_wait_stats();
        assert_eq!(waits.submissions, 2);
        assert!(waits.p95_secs >= waits.p50_secs);
    }

    #[test]
    fn lone_over_budget_job_is_admitted_on_an_idle_cluster() {
        let sched = Scheduler::new(2, cfg(100));
        let t = sched.submit(0, 10_000).unwrap();
        assert_eq!(sched.load().admitted_jobs, 1);
        drop(t);
        assert_eq!(sched.load().admitted_mem_bytes, 0);
    }

    #[test]
    fn full_queue_rejects_with_queue_full() {
        let mut c = cfg(100);
        c.queue_depth = 1;
        let sched = Scheduler::new(2, c);
        let _hog = sched.submit(0, 100).unwrap();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // Fills the depth-1 queue (blocks on memory).
                let _t = sched.submit(0, 100).unwrap();
            });
            spin_until(&sched, |l| l.queued_jobs == 1);
            let err = sched.submit(0, 1).unwrap_err();
            assert!(matches!(
                err,
                JobError::QueueFull {
                    queued: 1,
                    depth: 1
                }
            ));
            assert_eq!(err.annotation(), "Q.F.");
            drop(_hog);
        });
    }

    #[test]
    fn out_of_range_priority_is_rejected_at_submit() {
        let sched = Scheduler::new(1, cfg(100));
        let err = sched.submit(4, 1).unwrap_err();
        assert!(matches!(err, JobError::InvalidSubmission { .. }));
        assert!(err.to_string().contains("priority 4"));
    }

    #[test]
    fn empty_gang_yields_no_grants() {
        let sched = Scheduler::new(1, cfg(100));
        let gang = sched.register_gang(TenantId(1), 0, 0, vec![]);
        assert!(gang.next_task().is_none());
    }

    #[test]
    fn gated_gang_dispatches_only_ready_indices() {
        let sched = Scheduler::new(2, cfg(1000));
        // Tasks 1 and 3 are ready at registration; 0 and 2 are gated.
        let gang = sched.register_gang(TenantId(1), 0, 4, vec![1, 3]);
        let a = gang.next_task().unwrap();
        let b = gang.next_task().unwrap();
        assert_eq!((a.index, b.index), (1, 3), "smallest ready index first");
        drop((a, b));
        let granted = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while let Some(g) = gang.next_task() {
                    granted.lock().unwrap().push(g.index);
                }
            });
            spin_until(&sched, |l| l.waiting_workers == 1);
            gang.mark_ready(2);
            gang.mark_ready(2); // idempotent
            spin_until(&sched, |l| l.pending_tasks == 1);
            gang.mark_ready(0);
        });
        assert_eq!(granted.into_inner().unwrap(), vec![2, 0]);
        assert!(gang.next_task().is_none(), "gang is exhausted");
    }

    #[test]
    fn aborted_gang_drains_waiters_instead_of_deadlocking() {
        let sched = Scheduler::new(2, cfg(1000));
        let gang = sched.register_gang(TenantId(1), 0, 3, vec![0]);
        let first = gang.next_task().unwrap();
        assert_eq!(first.index, 0);
        drop(first);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| scope.spawn(|| gang.next_task().is_none()))
                .collect();
            // Both workers block: tasks 1 and 2 were never marked ready.
            spin_until(&sched, |l| l.waiting_workers == 2);
            gang.abort();
            for h in handles {
                assert!(h.join().unwrap(), "waiter must drain with None");
            }
        });
    }

    #[test]
    fn a_gang_with_nothing_ready_does_not_stall_the_pool() {
        let sched = Scheduler::new(1, cfg(1000));
        let gated = sched.register_gang(TenantId(1), 0, 1, vec![]);
        let plain = sched.register_gang(TenantId(2), 0, 1, vec![0]);
        // The first gang has nothing runnable; the second must still get
        // the slot rather than the pool stalling on the first.
        let g = plain.next_task().unwrap();
        assert_eq!(g.index, 0);
        drop(g);
        gated.mark_ready(0);
        assert_eq!(gated.next_task().unwrap().index, 0);
    }

    #[test]
    fn queue_wait_stats_empty_is_zero() {
        let sched = Scheduler::new(1, cfg(100));
        assert_eq!(sched.queue_wait_stats(), QueueWaitStats::default());
    }
}

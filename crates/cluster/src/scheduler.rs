//! Shared multi-job task scheduler: the cluster's one dispatcher.
//!
//! A cluster's scheduler turns its task slots into a *lease pool* shared
//! by every concurrently running job, and owns the threads that run the
//! tasks, with two layers of control:
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
//! 2. **Dispatch**: each stage registers its task count as a *gang*,
//!    together with the indices that are ready to run and the stage's
//!    per-task body. A grant is one `(slot lease, task index)` pair,
//!    smallest ready index first, and running tasks release further
//!    indices through their [`StageGate`]. A gang registered all-ready is
//!    therefore handed out strictly in order. Which index a thread gets
//!    never depends on how many other jobs are running, and outputs are
//!    collected by index, so result bytes do not either.
//!
//! Two kinds of thread take grants. The cluster's **helpers** take one
//! task from whichever gang the dispatcher picks, run it, return the lease
//! and pick again. One starts whenever a ready task has a free slot but no
//! thread waiting to take it, until the helpers reach one stage's thread
//! cap less its caller; they stop when the cluster drops. A stage's
//! **caller** takes grants of its own gang only. Across gangs the
//! dispatcher is fair-share first: the tenant currently holding the
//! fewest slots wins, then higher priority, then FIFO. Its candidates are
//! the gangs with a ready task *and* a thread able to run it — an idle
//! helper, or the gang's own waiting caller — so a grant never sits
//! unclaimed while runnable gangs starve.
//!
//! Everything here is one `Mutex<State>` + `Condvar`: every grant, every
//! admission, and every wait for either goes through them.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::config::SchedulerConfig;
use crate::failure::JobError;
use crate::stats::TenantId;

/// How many of the most recent admissions [`Scheduler::queue_wait_stats`]
/// takes its percentiles over.
const QUEUE_WAIT_WINDOW: usize = 1024;

/// A stage's per-task body, its borrow of stage-local state erased: runs
/// one task and says whether it failed terminally.
type Body = &'static (dyn Fn(&StageGate<'_>, usize) -> bool + Sync);

/// Handle a stage's task closure uses to declare *other* tasks of the
/// same stage ready for dispatch — the mechanism by which a producer task
/// (a local multiply installing its C copies) unlocks its consumers (the
/// aggregation task reducing them) inside one stage. Marking is
/// idempotent, so a retried producer re-satisfying its dependents is safe.
pub struct StageGate<'a> {
    sched: &'a Scheduler,
    gang: u64,
}

impl StageGate<'_> {
    /// Declares task `index` of this stage dispatchable.
    pub fn mark_ready(&self, index: usize) {
        self.sched.mark_ready(self.gang, index);
    }
}

/// One stage's gang bookkeeping.
struct GangState {
    tenant: TenantId,
    priority: u8,
    /// Tasks granted so far.
    next_task: usize,
    n_tasks: usize,
    /// Indices ready for dispatch but not yet granted, handed out
    /// smallest first.
    runnable: BTreeSet<usize>,
    /// Every index ever marked ready. Marking is idempotent against this
    /// set, so a retried producer re-satisfying its dependents cannot
    /// double-grant an index.
    marked: BTreeSet<usize>,
    /// Poisoned: a terminal task failure means pending dependencies will
    /// never be satisfied, so nothing further is granted.
    aborted: bool,
    /// The stage's caller is waiting for a grant.
    caller_waiting: bool,
    /// Helpers inside `body` now.
    running: usize,
    body: Body,
}

impl GangState {
    fn pending(&self) -> usize {
        self.n_tasks - self.next_task
    }

    /// Whether a grant could be handed out right now (ignoring slots).
    fn dispatchable(&self) -> bool {
        !self.aborted && !self.runnable.is_empty()
    }
}

#[derive(Default)]
struct State {
    /// The pool's lease capacity — tracks elastic resizes via
    /// [`Scheduler::set_total_slots`].
    total_slots: usize,
    /// Slot leases currently out, cluster-wide.
    held: usize,
    /// Leases held per tenant (for fair-share dispatch and attribution).
    tenant_held: BTreeMap<TenantId, usize>,
    /// Live gangs by id; ids count up, so this is registration order.
    gangs: BTreeMap<u64, GangState>,
    next_gang_id: u64,
    /// Helpers waiting for a grant, counted from the moment they start.
    idle_helpers: usize,
    /// The helpers started so far, joined by [`Scheduler::stop_helpers`].
    helpers: Vec<JoinHandle<()>>,
    /// Set once the owning cluster drops: helpers exit, none start.
    stopped: bool,
    /// θt bytes pinned by admitted jobs.
    admitted_mem: u64,
    admitted_jobs: usize,
    /// Jobs blocked in `submit` awaiting admission.
    queued_jobs: usize,
    /// Admissions so far.
    submissions: usize,
    /// Seconds each of the last [`QUEUE_WAIT_WINDOW`] admitted jobs spent
    /// queued (0 for immediate admission), oldest first.
    queue_waits_secs: VecDeque<f64>,
}

impl State {
    /// Which gang gets the next free slot, or `None` when no slot is free
    /// or no ready task has a thread able to run it. Among the candidates
    /// the tenant holding the fewest slots wins, then higher priority,
    /// then FIFO.
    fn choose(&self) -> Option<u64> {
        if self.held >= self.total_slots {
            return None;
        }
        self.gangs
            .iter()
            .filter(|(_, g)| g.dispatchable() && (self.idle_helpers > 0 || g.caller_waiting))
            .min_by_key(|&(id, g)| {
                (
                    self.tenant_held.get(&g.tenant).copied().unwrap_or(0),
                    std::cmp::Reverse(g.priority),
                    *id,
                )
            })
            .map(|(id, _)| *id)
    }

    /// Leases a slot to `gang` and hands out its smallest ready index.
    fn grant(&mut self, gang: u64) -> usize {
        let g = self.gangs.get_mut(&gang).expect("grant to a live gang");
        let index = g
            .runnable
            .pop_first()
            .expect("a chosen gang has a ready task");
        g.next_task += 1;
        let tenant = g.tenant;
        self.held += 1;
        *self.tenant_held.entry(tenant).or_insert(0) += 1;
        index
    }

    /// Returns the lease of a task of `gang` that has finished; a terminal
    /// failure aborts the gang.
    fn release(&mut self, gang: u64, failed: bool) {
        let g = self.gangs.get_mut(&gang).expect("release to a live gang");
        g.aborted |= failed;
        let tenant = g.tenant;
        self.held -= 1;
        let held = self
            .tenant_held
            .get_mut(&tenant)
            .expect("lease release for a tenant that holds no slots");
        *held -= 1;
        if *held == 0 {
            self.tenant_held.remove(&tenant);
        }
    }

    /// Whether another helper should start: a ready task has a free slot
    /// and no thread waiting to take it, and the helpers are fewer than
    /// one stage's `threads` (or the slots, if fewer) less its caller.
    fn wants_helper(&self, threads: usize) -> bool {
        !self.stopped
            && self.idle_helpers == 0
            && self.held < self.total_slots
            && self.helpers.len() + 1 < self.total_slots.min(threads)
            && self
                .gangs
                .values()
                .any(|g| g.dispatchable() && !g.caller_waiting)
    }

    fn record_queue_wait(&mut self, secs: f64) {
        self.submissions += 1;
        if self.queue_waits_secs.len() == QUEUE_WAIT_WINDOW {
            self.queue_waits_secs.pop_front();
        }
        self.queue_waits_secs.push_back(secs);
    }

    fn queue_wait_stats(&self) -> QueueWaitStats {
        let mut waits: Vec<f64> = self.queue_waits_secs.iter().copied().collect();
        if waits.is_empty() {
            return QueueWaitStats::default();
        }
        waits.sort_by(|a, b| a.partial_cmp(b).expect("queue waits are finite"));
        let q = |p: f64| waits[((waits.len() - 1) as f64 * p).round() as usize];
        QueueWaitStats {
            submissions: self.submissions,
            p50_secs: q(0.50),
            p95_secs: q(0.95),
        }
    }
}

struct Inner {
    cfg: SchedulerConfig,
    /// Threads one stage may run on, its caller included; the helpers
    /// stay below this and the slot count.
    threads: usize,
    state: Mutex<State>,
    cv: Condvar,
    /// Helper threads started and not yet exited.
    #[cfg(test)]
    live_helpers: std::sync::atomic::AtomicUsize,
}

/// Cheaply cloneable handle to a cluster's scheduler. All clones address
/// the same lease pool, admission queue and helpers.
#[derive(Clone)]
pub struct Scheduler {
    inner: Arc<Inner>,
}

impl fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scheduler").finish_non_exhaustive()
    }
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
    /// Threads waiting for a grant: idle helpers plus stage callers
    /// waiting on their own gang.
    pub waiting_workers: usize,
    /// The pool's lease capacity.
    pub total_slots: usize,
    /// θt bytes pinned by admitted jobs.
    pub admitted_mem_bytes: u64,
}

/// Queue-wait distribution (benchmark metric). `submissions` counts every
/// admission so far; the percentiles are taken over the most recent 1024
/// of them, so what the scheduler keeps stays bounded however long it
/// serves.
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
    /// Seconds this submission waited for admission budget (0 if none).
    pub queue_wait_secs: f64,
}

impl Drop for AdmissionTicket {
    fn drop(&mut self) {
        let mut st = self.sched.lock();
        st.admitted_mem -= self.demand_bytes;
        st.admitted_jobs -= 1;
        if st.queued_jobs > 0 {
            self.sched.inner.cv.notify_all();
        }
    }
}

/// Runs one task's body; a panic that escapes it counts as a terminal
/// failure, so it can take neither the thread nor its stage down.
fn run_task(body: Body, gate: &StageGate<'_>, index: usize) -> bool {
    panic::catch_unwind(AssertUnwindSafe(|| body(gate, index))).unwrap_or(true)
}

impl Scheduler {
    /// A scheduler over `total_slots` concurrent leases (normally
    /// [`crate::ClusterConfig::total_slots`]) with the given tuning, whose
    /// stages run on at most `threads` threads each, caller included.
    pub(crate) fn new(total_slots: usize, cfg: SchedulerConfig, threads: usize) -> Self {
        cfg.assert_valid();
        assert!(total_slots > 0, "scheduler needs at least one slot");
        Scheduler {
            inner: Arc::new(Inner {
                cfg,
                threads,
                state: Mutex::new(State {
                    total_slots,
                    ..State::default()
                }),
                cv: Condvar::new(),
                #[cfg(test)]
                live_helpers: Default::default(),
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
        // A panicked thread can poison the lock; the state it guards is
        // only counters, so continue rather than cascading the panic.
        self.inner.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn wait<'a>(&self, st: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        self.inner.cv.wait(st).unwrap_or_else(|p| p.into_inner())
    }

    /// Wakes every waiter if a grant can be handed out now, first starting
    /// a helper if a ready task has no thread to take it.
    fn wake_if_grantable(&self, st: &mut State) {
        if st.wants_helper(self.inner.threads) {
            self.start_helper(st);
        }
        if st.choose().is_some() {
            self.inner.cv.notify_all();
        }
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
        // runs (the budget bounds *concurrent* residency). Only this wait
        // counts as queueing, not the wait for the lock.
        let mut queued_since = None;
        while st.admitted_mem.saturating_add(demand_bytes) > cfg.admission_budget_bytes
            && st.admitted_jobs > 0
        {
            queued_since.get_or_insert_with(Instant::now);
            st = self.wait(st);
        }
        st.queued_jobs -= 1;
        st.admitted_jobs += 1;
        st.admitted_mem = st.admitted_mem.saturating_add(demand_bytes);
        let queue_wait_secs = queued_since.map_or(0.0, |t| t.elapsed().as_secs_f64());
        st.record_queue_wait(queue_wait_secs);
        drop(st);
        Ok(AdmissionTicket {
            sched: self.clone(),
            demand_bytes,
            queue_wait_secs,
        })
    }

    /// Runs one stage of `n_tasks` tasks as a gang under `tenant` and
    /// `priority` (clamped to the configured range; validation happened at
    /// submit), and returns once every granted task has finished.
    ///
    /// Only indices declared ready (in `ready`, later through the
    /// [`StageGate`] `body` is handed) are granted, smallest ready index
    /// first; a gang with no dependencies passes `0..n_tasks` and is handed
    /// out in order. `body(gate, index)` runs task `index` on the calling
    /// thread or a helper and returns whether it failed terminally, which
    /// aborts the gang: nothing further is granted.
    pub(crate) fn run_gang(
        &self,
        tenant: TenantId,
        priority: u8,
        n_tasks: usize,
        ready: Vec<usize>,
        body: &(dyn Fn(&StageGate<'_>, usize) -> bool + Sync),
    ) {
        for &idx in &ready {
            assert!(idx < n_tasks, "ready index {idx} outside gang of {n_tasks}");
        }
        let runnable: BTreeSet<usize> = ready.into_iter().collect();
        // SAFETY: only the lifetime changes. A helper calls `body` only
        // between taking a grant of this gang and leaving its `running`
        // count, both under the lock, while the gang is registered. Below,
        // the caller removes the gang only once nothing is left to grant
        // and `running` is zero, and it never unwinds before then (its own
        // calls go through `run_task`, and a helper that cannot start is
        // skipped), so no helper can call `body` after
        // the borrow it erases has ended.
        let body: Body = unsafe {
            std::mem::transmute::<&(dyn Fn(&StageGate<'_>, usize) -> bool + Sync), Body>(body)
        };
        let mut st = self.lock();
        let id = st.next_gang_id;
        st.next_gang_id += 1;
        st.gangs.insert(
            id,
            GangState {
                tenant,
                priority: priority.min(self.inner.cfg.priority_levels - 1),
                next_task: 0,
                n_tasks,
                marked: runnable.clone(),
                runnable,
                aborted: false,
                caller_waiting: false,
                running: 0,
                body,
            },
        );
        let gate = StageGate {
            sched: self,
            gang: id,
        };
        // Registering the gang or returning a lease may let another
        // waiter take a grant: such a change wakes them before this
        // thread sleeps.
        let mut changed = true;
        loop {
            let g = st.gangs.get_mut(&id).expect("own gang");
            let open = !g.aborted && g.pending() > 0;
            let retired = !open && g.running == 0;
            g.caller_waiting = open;
            if open && st.choose() == Some(id) {
                let index = st.grant(id);
                st.gangs.get_mut(&id).expect("own gang").caller_waiting = false;
                self.wake_if_grantable(&mut st);
                drop(st);
                let failed = run_task(body, &gate, index);
                st = self.lock();
                st.release(id, failed);
                changed = true;
                continue;
            }
            if std::mem::take(&mut changed) {
                self.wake_if_grantable(&mut st);
            }
            if retired {
                break;
            }
            st = self.wait(st);
        }
        st.gangs.remove(&id);
    }

    /// Starts a helper, idle until it takes a grant: it takes one from
    /// whichever gang the dispatcher picks, runs that one task, returns the
    /// lease and picks again, until [`Scheduler::stop_helpers`].
    ///
    /// A helper the host cannot start is not an error, and must not unwind
    /// a caller whose gang is registered: its stages run on the threads
    /// they have.
    fn start_helper(&self, st: &mut State) {
        #[cfg(test)]
        use std::sync::atomic::Ordering::Relaxed;
        let sched = self.clone();
        let spawned = std::thread::Builder::new().spawn(move || {
            sched.serve();
            #[cfg(test)]
            sched.inner.live_helpers.fetch_sub(1, Relaxed);
        });
        // The helper blocks on its first lock until the caller lets go.
        if let Ok(helper) = spawned {
            #[cfg(test)]
            self.inner.live_helpers.fetch_add(1, Relaxed);
            st.idle_helpers += 1;
            st.helpers.push(helper);
        }
    }

    /// A helper's life. Returning a lease and taking the next grant happen
    /// in one lock hold.
    fn serve(&self) {
        let mut st = self.lock();
        while !st.stopped {
            let Some(gang) = st.choose() else {
                st = self.wait(st);
                continue;
            };
            let index = st.grant(gang);
            let g = st.gangs.get_mut(&gang).expect("a chosen gang is live");
            g.running += 1;
            let body = g.body;
            st.idle_helpers -= 1;
            self.wake_if_grantable(&mut st);
            drop(st);
            let failed = run_task(body, &StageGate { sched: self, gang }, index);
            st = self.lock();
            let g = st.gangs.get_mut(&gang).expect("a running gang is live");
            g.running -= 1;
            if g.running == 0 && (failed || g.aborted || g.pending() == 0) {
                // Its caller may be waiting to retire it.
                self.inner.cv.notify_all();
            }
            st.release(gang, failed);
            st.idle_helpers += 1;
        }
        st.idle_helpers -= 1;
    }

    /// Stops and joins the helpers; stages run on their callers alone from
    /// here on. The owning cluster calls this when it drops.
    pub(crate) fn stop_helpers(&self) {
        let mut st = self.lock();
        st.stopped = true;
        let helpers = std::mem::take(&mut st.helpers);
        self.inner.cv.notify_all();
        drop(st);
        for helper in helpers {
            // A helper catches what its tasks throw, so it returns.
            let _ = helper.join();
        }
    }

    /// Declares task `index` of `gang` dispatchable (its dependencies
    /// landed). Idempotent: re-marking an index (a retried producer
    /// re-satisfying dependents) is a no-op.
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
        if g.marked.insert(index) {
            g.runnable.insert(index);
            self.wake_if_grantable(&mut st);
        }
    }

    /// Live pressure across all concurrent jobs.
    pub fn load(&self) -> SchedulerLoad {
        let st = self.lock();
        SchedulerLoad {
            queued_jobs: st.queued_jobs,
            admitted_jobs: st.admitted_jobs,
            pending_tasks: st.gangs.values().map(|g| g.pending()).sum(),
            held_slots: st.held,
            waiting_workers: st.idle_helpers
                + st.gangs.values().filter(|g| g.caller_waiting).count(),
            total_slots: st.total_slots,
            admitted_mem_bytes: st.admitted_mem,
        }
    }

    /// Queue-wait distribution over the most recent admissions.
    pub fn queue_wait_stats(&self) -> QueueWaitStats {
        self.lock().queue_wait_stats()
    }

    /// Helper threads started and not yet exited.
    #[cfg(test)]
    pub(crate) fn live_helpers(&self) -> usize {
        let live = &self.inner.live_helpers;
        live.load(std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::Duration;

    fn cfg(budget: u64) -> SchedulerConfig {
        SchedulerConfig {
            queue_depth: 4,
            admission_budget_bytes: budget,
            priority_levels: 4,
        }
    }

    /// A scheduler whose helpers stop when the test ends, as a cluster's
    /// do when it drops.
    struct Owned(Scheduler);

    impl std::ops::Deref for Owned {
        type Target = Scheduler;
        fn deref(&self) -> &Scheduler {
            &self.0
        }
    }

    impl Drop for Owned {
        fn drop(&mut self) {
            self.0.stop_helpers();
        }
    }

    /// A scheduler whose stages run on at most `threads` threads each, so
    /// on at most `min(slots, threads) - 1` helpers besides their caller.
    fn sched(slots: usize, threads: usize) -> Owned {
        Owned(Scheduler::new(slots, cfg(1000), threads))
    }

    fn deadline() -> Instant {
        Instant::now() + Duration::from_secs(10)
    }

    fn spin_until(sched: &Scheduler, pred: impl Fn(SchedulerLoad) -> bool) {
        let deadline = deadline();
        while !pred(sched.load()) {
            assert!(Instant::now() < deadline, "scheduler never reached state");
            std::thread::yield_now();
        }
    }

    fn wait_for(flag: &AtomicBool) {
        let deadline = deadline();
        while !flag.load(Ordering::Acquire) {
            assert!(Instant::now() < deadline, "flag never set");
            std::thread::yield_now();
        }
    }

    /// Starts all `helpers` a scheduler may have: a gang whose tasks wait
    /// until they have all started, one on the caller and one on each
    /// helper.
    fn start_every_helper(sched: &Scheduler, helpers: usize) {
        let started = AtomicUsize::new(0);
        sched.run_gang(
            TenantId(0),
            0,
            helpers + 1,
            (0..=helpers).collect(),
            &|_, _| {
                started.fetch_add(1, Ordering::AcqRel);
                let deadline = deadline();
                while started.load(Ordering::Acquire) <= helpers {
                    assert!(Instant::now() < deadline, "helpers never started");
                    std::thread::yield_now();
                }
                false
            },
        );
        assert_eq!(sched.lock().helpers.len(), helpers);
    }

    /// A one-task gang that records `name` when its task runs.
    fn record<'a>(
        order: &'a Mutex<Vec<&'static str>>,
        name: &'static str,
    ) -> impl Fn(&StageGate<'_>, usize) -> bool + Sync + 'a {
        move |_, _| {
            order.lock().unwrap().push(name);
            false
        }
    }

    #[test]
    fn solo_gang_hands_out_indices_in_order_within_slots() {
        let sched = sched(3, 1);
        let granted = Mutex::new(Vec::new());
        sched.run_gang(TenantId(1), 0, 5, (0..5).collect(), &|_, index| {
            granted
                .lock()
                .unwrap()
                .push((index, sched.load().held_slots));
            false
        });
        let expected: Vec<_> = (0..5).map(|index| (index, 1)).collect();
        assert_eq!(granted.into_inner().unwrap(), expected);
        assert_eq!(sched.load().pending_tasks, 0);
        assert_eq!(sched.load().held_slots, 0);
    }

    #[test]
    fn lease_count_never_exceeds_total_slots() {
        // Four callers and a helper: more threads than slots.
        let sched = sched(2, 4);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for tenant in 0..4 {
                let (sched, peak) = (&sched, &peak);
                scope.spawn(move || {
                    sched.run_gang(TenantId(tenant), 0, 8, (0..8).collect(), &|_, _| {
                        peak.fetch_max(sched.load().held_slots, Ordering::Relaxed);
                        std::thread::sleep(Duration::from_millis(1));
                        false
                    })
                });
            }
        });
        // A task's panic would only fail its gang, so the bound is checked
        // here, on what the tasks saw.
        let peak = peak.into_inner();
        assert!((1..=2).contains(&peak), "held {peak} slots of 2");
    }

    #[test]
    fn priority_wins_the_freed_slot() {
        // Neither contender holds a slot, so priority decides.
        let sched = sched(1, 1);
        let release = AtomicBool::new(false);
        let order = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            scope.spawn(|| {
                sched.run_gang(TenantId(9), 0, 1, vec![0], &|_, _| {
                    wait_for(&release);
                    false
                })
            });
            spin_until(&sched, |l| l.held_slots == 1);
            scope.spawn(|| sched.run_gang(TenantId(1), 0, 1, vec![0], &record(&order, "lo")));
            scope.spawn(|| sched.run_gang(TenantId(2), 3, 1, vec![0], &record(&order, "hi")));
            spin_until(&sched, |l| l.waiting_workers == 2);
            release.store(true, Ordering::Release); // free the only slot
        });
        assert_eq!(order.into_inner().unwrap(), ["hi", "lo"]);
    }

    #[test]
    fn the_tenant_holding_fewer_slots_wins_over_priority() {
        // Tenant 1 holds both slots, one on the holder's caller and one on
        // the helper; releasing one leaves tenant 1 still holding a slot
        // while tenant 2 holds none.
        let sched = sched(2, 2);
        let release = [AtomicBool::new(false), AtomicBool::new(false)];
        let order = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            scope.spawn(|| {
                sched.run_gang(TenantId(1), 3, 2, (0..2).collect(), &|_, index| {
                    wait_for(&release[index]);
                    false
                })
            });
            spin_until(&sched, |l| l.held_slots == 2);
            let rich =
                scope.spawn(|| sched.run_gang(TenantId(1), 3, 1, vec![0], &record(&order, "rich")));
            scope.spawn(|| sched.run_gang(TenantId(2), 0, 1, vec![0], &record(&order, "poor")));
            spin_until(&sched, |l| l.waiting_workers == 2);
            // With both waiting, fair share must hand the freed slot to
            // tenant 2 despite tenant 1's higher priority.
            release[0].store(true, Ordering::Release);
            rich.join().unwrap();
            release[1].store(true, Ordering::Release);
        });
        assert_eq!(
            order.into_inner().unwrap(),
            ["poor", "rich"],
            "fair share should favor the slot-poor tenant"
        );
        assert_eq!(sched.load().held_slots, 0);
    }

    #[test]
    fn admission_queues_rather_than_rejects_over_budget() {
        let sched = Scheduler::new(2, cfg(100), 0);
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
    fn a_job_that_never_queues_waited_exactly_zero() {
        // A gang's task holds a slot and dispatch busy meanwhile; a job that
        // fits the budget is admitted without queueing behind anything.
        let sched = sched(2, 2);
        let (running, release) = (AtomicBool::new(false), AtomicBool::new(false));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                sched.run_gang(TenantId(1), 0, 1, vec![0], &|_, _| {
                    running.store(true, Ordering::Release);
                    wait_for(&release);
                    false
                })
            });
            wait_for(&running);
            let admitted: Vec<_> = (0..3).map(|_| sched.submit(0, 10).unwrap()).collect();
            release.store(true, Ordering::Release);
            for ticket in &admitted {
                assert_eq!(ticket.queue_wait_secs, 0.0);
            }
        });
        let waits = sched.queue_wait_stats();
        assert_eq!((waits.submissions, waits.p95_secs), (3, 0.0));
    }

    #[test]
    fn lone_over_budget_job_is_admitted_on_an_idle_cluster() {
        let sched = Scheduler::new(2, cfg(100), 0);
        let t = sched.submit(0, 10_000).unwrap();
        assert_eq!(sched.load().admitted_jobs, 1);
        drop(t);
        assert_eq!(sched.load().admitted_mem_bytes, 0);
    }

    #[test]
    fn full_queue_rejects_with_queue_full() {
        let mut c = cfg(100);
        c.queue_depth = 1;
        let sched = Scheduler::new(2, c, 0);
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
        let sched = Scheduler::new(1, cfg(100), 0);
        let err = sched.submit(4, 1).unwrap_err();
        assert!(matches!(err, JobError::InvalidSubmission { .. }));
        assert!(err.to_string().contains("priority 4"));
    }

    #[test]
    fn empty_gang_yields_no_grants() {
        let sched = sched(1, 1);
        sched.run_gang(TenantId(1), 0, 0, vec![], &|_, _| panic!("granted"));
        assert_eq!(sched.load().held_slots, 0);
    }

    #[test]
    fn gated_gang_dispatches_only_ready_indices() {
        // Tasks 1 and 3 are ready at registration; 0 and 2 are gated.
        let sched = sched(2, 1);
        let granted = Mutex::new(Vec::new());
        sched.run_gang(TenantId(1), 0, 4, vec![1, 3], &|gate, index| {
            granted.lock().unwrap().push(index);
            match index {
                3 => {
                    gate.mark_ready(2);
                    gate.mark_ready(2); // idempotent
                }
                2 => gate.mark_ready(0),
                0 => gate.mark_ready(1), // already run: never granted twice
                _ => {}
            }
            false
        });
        assert_eq!(granted.into_inner().unwrap(), [1, 3, 2, 0]);
        assert_eq!(sched.load().pending_tasks, 0, "gang is exhausted");
    }

    #[test]
    fn aborted_gang_drains_waiters_instead_of_deadlocking() {
        // Tasks 1 and 2 are never marked ready; task 0 fails terminally
        // while both helpers wait, and the gang returns instead of waiting
        // for readiness that cannot come.
        let sched = sched(3, 3);
        start_every_helper(&sched, 2);
        let ran = Mutex::new(Vec::new());
        sched.run_gang(TenantId(1), 0, 3, vec![0], &|_, index| {
            spin_until(&sched, |l| l.waiting_workers == 2);
            ran.lock().unwrap().push(index);
            true
        });
        assert_eq!(ran.into_inner().unwrap(), [0]);
        let load = sched.load();
        assert_eq!((load.pending_tasks, load.held_slots), (0, 0));
    }

    #[test]
    fn a_gang_with_nothing_ready_does_not_stall_the_pool() {
        let sched = sched(1, 1);
        let order = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            scope.spawn(|| sched.run_gang(TenantId(1), 0, 1, vec![], &record(&order, "gated")));
            spin_until(&sched, |l| l.pending_tasks == 1);
            // The first gang has nothing runnable; the second must still
            // get the slot rather than the pool stalling on the first.
            sched.run_gang(TenantId(2), 0, 1, vec![0], &record(&order, "plain"));
            let gated = *sched.lock().gangs.keys().next().expect("gated gang live");
            sched.mark_ready(gated, 0);
        });
        assert_eq!(order.into_inner().unwrap(), ["plain", "gated"]);
    }

    #[test]
    fn queue_wait_stats_empty_is_zero() {
        let sched = Scheduler::new(1, cfg(100), 0);
        assert_eq!(sched.queue_wait_stats(), QueueWaitStats::default());
    }

    #[test]
    fn queue_waits_keep_a_bounded_window_and_an_exact_count() {
        let sched = Scheduler::new(1, cfg(100), 0);
        for _ in 0..10_000 {
            drop(sched.submit(0, 1).unwrap());
        }
        assert!(sched.lock().queue_waits_secs.len() <= QUEUE_WAIT_WINDOW);
        assert_eq!(sched.queue_wait_stats().submissions, 10_000);
        // A known sequence 0, 1, …, 9 999: the window holds its last 1024
        // values, 8 976 ..= 9 999.
        let mut st = State::default();
        for i in 0..10_000 {
            st.record_queue_wait(i as f64);
        }
        let stats = st.queue_wait_stats();
        assert_eq!(stats.submissions, 10_000);
        assert_eq!(stats.p50_secs, 8976.0 + 512.0);
        assert_eq!(stats.p95_secs, 8976.0 + 972.0);
    }
}

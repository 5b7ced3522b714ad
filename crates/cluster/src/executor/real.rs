//! Thread-backed execution with real blocks and real bytes.
//!
//! [`LocalCluster`] emulates a Spark cluster inside one process: `M`
//! virtual nodes × `Tc` slots, tasks assigned round-robin, per-task memory
//! budgets, per-node block stores, and a codec-backed [`Transport`] that
//! serializes every block movement between (virtual) node boundaries.
//! This is the correctness path: the distributed methods in
//! `distme-core` must produce bit-identical results to the single-node
//! reference through this executor, with locality enforced — a task reads
//! only blocks resident in its own node's store.
//!
//! A job is one [`LocalCluster::run_stage`] call: a gang of items handed
//! out by the cluster's one scheduler to the stage's caller and to the
//! cluster's helpers, which live as long as the cluster and take their
//! tasks from every stage. Items are dispatched by readiness (smallest
//! ready index first; items release one another through the
//! [`StageGate`]), each retried in place on a transient error. Fault
//! injection is not this module's business: deliveries consult the armed
//! [`FaultPlan`] inside the [`Transport`], tasks consult it inside the
//! executor's item closure, where the item's plan identity is known.

use crate::chaos::{FaultPlan, FaultSpec};
use crate::config::ClusterConfig;
use crate::failure::{JobError, TaskError};
use crate::membership::{Membership, MembershipEvent};
use crate::rebalance::{RebalancePlan, RebalanceReport};
use crate::scheduler::{Scheduler, StageGate};
use crate::stats::{JobStats, Phase, TenantId};
use crate::store::{ClusterStores, FreeBuffers, StoreKey};
use crate::transport::{MoveOutcome, Transport, TransportStats, WireMove};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Per-task execution context handed to stage closures.
pub struct TaskCtx {
    /// Task index within the stage.
    pub task: usize,
    /// Virtual node the task runs on.
    pub node: usize,
    /// 0-based attempt index of this execution (0 on a fault-free run;
    /// bumps each time the retry loop re-runs the task).
    pub attempt: u32,
    mem_budget: u64,
    mem_used: Cell<u64>,
    mem_peak: Cell<u64>,
}

impl TaskCtx {
    /// Charges `bytes` against the task's memory budget θt.
    ///
    /// # Errors
    /// Returns [`TaskError::OutOfMemory`] when the running total would
    /// exceed the budget — the O.O.M. that kills BMM/CPMM on large inputs.
    pub fn alloc(&self, bytes: u64) -> Result<(), TaskError> {
        let new = self.mem_used.get().saturating_add(bytes);
        if new > self.mem_budget {
            return Err(TaskError::OutOfMemory {
                needed: new,
                budget: self.mem_budget,
            });
        }
        self.mem_used.set(new);
        self.mem_peak.set(self.mem_peak.get().max(new));
        Ok(())
    }

    /// Releases previously charged bytes.
    pub fn free(&self, bytes: u64) {
        self.mem_used.set(self.mem_used.get().saturating_sub(bytes));
    }

    /// Memory budget θt.
    pub fn budget(&self) -> u64 {
        self.mem_budget
    }

    /// Peak memory the task has charged so far.
    pub fn peak(&self) -> u64 {
        self.mem_peak.get()
    }
}

/// Result of one stage on the real executor.
#[derive(Debug)]
pub struct StageRun<O> {
    /// Per-task outputs, in task order.
    pub outputs: Vec<O>,
    /// Largest task working set observed (bytes).
    pub peak_task_mem_bytes: u64,
    /// Task attempts re-run after a transient failure.
    pub retries: u64,
    /// Modeled retry backoff accumulated by this stage, seconds — charged
    /// to the job's time model, never slept on the wall clock.
    pub backoff_secs: f64,
}

/// Threads one stage may run on, its caller included:
/// `available_parallelism × host_worker_oversubscription`. The scheduler
/// keeps its helpers below this and the slot count.
fn stage_threads(cfg: &ClusterConfig) -> usize {
    let host_par = std::thread::available_parallelism().map_or(4, |p| p.get());
    host_par * cfg.host_worker_oversubscription
}

/// An in-process "cluster" of `M` virtual nodes with real worker threads.
pub struct LocalCluster {
    cfg: ClusterConfig,
    stores: ClusterStores,
    transport_stats: TransportStats,
    faults: Mutex<Option<Arc<FaultPlan>>>,
    membership: Membership,
    scheduler: Scheduler,
}

impl Drop for LocalCluster {
    fn drop(&mut self) {
        self.scheduler.stop_helpers();
    }
}

impl LocalCluster {
    /// Creates a cluster from a validated configuration.
    pub fn new(cfg: ClusterConfig) -> Self {
        cfg.assert_valid();
        LocalCluster {
            cfg,
            stores: ClusterStores::new(cfg.nodes),
            transport_stats: TransportStats::default(),
            faults: Mutex::new(None),
            membership: Membership::default(),
            scheduler: Scheduler::new(cfg.total_slots(), cfg.scheduler, stage_threads(&cfg)),
        }
    }

    /// The cluster's scheduler — the lease pool every concurrent job's
    /// stages draw slots from, and the one dispatcher of its helpers. Clone
    /// the handle to submit jobs for admission or observe live load.
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// Arms deterministic fault injection for subsequent jobs; returns the
    /// live plan so tests can read its injected-fault counters.
    pub fn inject_faults(&self, spec: FaultSpec) -> Arc<FaultPlan> {
        let plan = Arc::new(FaultPlan::new(spec));
        *self.faults.lock().expect("fault plan lock") = Some(plan.clone());
        plan
    }

    /// Disarms fault injection.
    pub fn clear_faults(&self) {
        *self.faults.lock().expect("fault plan lock") = None;
    }

    /// The armed fault plan, if any.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.faults.lock().expect("fault plan lock").clone()
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The per-node block stores.
    pub fn stores(&self) -> &ClusterStores {
        &self.stores
    }

    /// Physical transport counters (actually-encoded payload bytes).
    pub fn transport_stats(&self) -> &TransportStats {
        &self.transport_stats
    }

    /// A transport bound to this cluster's stores, physical counters, and
    /// (when armed) fault plan. Model bytes are charged by the driver, not
    /// here.
    pub fn transport(&self) -> Transport<'_> {
        Transport::new(
            &self.stores,
            &self.transport_stats,
            self.fault_plan(),
            self.cfg.retry,
        )
        .with_replication(self.cfg.replication)
    }

    /// Materializes parity for `matrix` under the active
    /// [`ReplicationPolicy`](crate::coding::ReplicationPolicy): copy-0
    /// blocks are grouped by canonical home and each group's parity is
    /// installed on a node holding none of its members (see
    /// [`crate::coding`]). Idempotent; with replication off it returns
    /// before looking at a store or starting a thread. Returns the number
    /// of parity blocks installed.
    pub fn encode_parity(&self, matrix: u64) -> u64 {
        let grid = [self.cfg.nodes];
        self.encode_parity_of(&BTreeSet::from([matrix]), &grid, &FreeBuffers::default())
    }

    /// [`encode_parity`](Self::encode_parity) for several matrices: the
    /// groups of all of them, from one resident-key snapshot, encode as
    /// one gang (a group is a task), each envelope in a buffer drawn from
    /// `buffers`. The groups are ones every grid in `grids` honours, the
    /// first being the cluster's own (`coding::assign_groups`). Parity is
    /// derived state: a stage the scheduler refuses (more groups than
    /// `max_tasks`) installs none.
    fn encode_parity_of(
        &self,
        matrices: &BTreeSet<u64>,
        grids: &[usize],
        buffers: &FreeBuffers,
    ) -> u64 {
        let nodes = self.cfg.nodes;
        if self.cfg.replication.parity_count() == 0 {
            return 0;
        }
        let groups = crate::coding::parity_groups(&self.stores, matrices, grids);
        if groups.is_empty() {
            return 0;
        }
        let ready = (0..groups.len()).collect();
        self.run_stage(TenantId::ANONYMOUS, 0, groups.len(), ready, |ctx, _| {
            Ok(crate::coding::encode_group(
                &self.stores,
                &groups[ctx.task],
                nodes,
                buffers,
            ))
        })
        .map_or(0, |run| run.outputs.iter().sum())
    }

    /// Virtual node a stage-task index runs on (round-robin, matching
    /// Spark's even executor spread).
    pub fn node_of_task(&self, task: usize) -> usize {
        task % self.cfg.nodes
    }

    /// The cluster's membership epoch: bumps on every commission or
    /// decommission. A plan built at an older epoch is stale — its routing
    /// assumed a grid that no longer exists.
    pub fn epoch(&self) -> u64 {
        self.membership.epoch()
    }

    /// The membership history (epoch, change log).
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// Gracefully resizes the cluster to `n` nodes. A grow commissions
    /// empty nodes; a shrink drains the leaving tail's blocks onto the
    /// survivors before their stores are dropped — either way, every
    /// resident block is re-homed onto the new grid through the
    /// codec-backed transport (the report's [`Phase::Rebalance`] bytes and
    /// `rebalanced_*` stats) and the epoch bumps, invalidating
    /// every plan built for the old grid. `scale_to(current)` is a no-op
    /// and does not bump the epoch.
    ///
    /// A resize is two gangs: the per-key units of the [`RebalancePlan`]
    /// (each ships its key, then drops the stranded copies, so the
    /// migration's extra memory is a few blocks, not a second copy of
    /// everything resident), then the parity groups the change broke —
    /// every group the new grid still honours is kept, and only the members
    /// no kept group covers are encoded again ([`crate::coding`]). Both
    /// fill the buffers the resize has just emptied: stranded copies and
    /// broken groups' parity leave theirs on a [`FreeBuffers`] list that
    /// lives exactly as long as this call.
    ///
    /// # Errors
    /// [`JobError::InvalidSubmission`] for `n == 0`, before any side
    /// effect. A transport failure during migration (codec bug — migration
    /// runs fault-free and all sources are readable), or
    /// [`JobError::TooManyTasks`] when more keys need re-homing than one
    /// stage may hold tasks — refused before the first side effect: every
    /// block, parity included, is where it was and the stores are as many
    /// as the nodes.
    pub fn scale_to(&mut self, n: usize) -> Result<RebalanceReport, JobError> {
        self.resize(n, &FreeBuffers::default())
    }

    /// [`scale_to`](Self::scale_to) over the free list it owns.
    fn resize(&mut self, n: usize, buffers: &FreeBuffers) -> Result<RebalanceReport, JobError> {
        if n == 0 {
            return Err(JobError::InvalidSubmission {
                reason: "cannot scale to an empty cluster".to_owned(),
            });
        }
        let from_nodes = self.cfg.nodes;
        if n == from_nodes {
            return Ok(RebalanceReport {
                epoch: self.membership.epoch(),
                from_nodes,
                to_nodes: n,
                ..Default::default()
            });
        }
        // Parity is derived state: it stays out of the snapshot the data
        // rebalances from.
        let mut holders = self.stores.resident_keys();
        holders.retain(|key, _| !key.is_parity());
        let event = MembershipEvent::ScaleTo {
            from: from_nodes,
            to: n,
        };
        self.change_membership(event, &holders, buffers)
    }

    /// Permanently decommissions `node`: its store is lost, not drained.
    /// Recovery runs in precedence order. Blocks with a replica on a
    /// surviving node (the lineage the executor leaves by homing every
    /// result block at both placement hashes) are re-homed from those
    /// copies. Sole-copy blocks are next reconstructed by parity decode
    /// from their coding group's survivors when a
    /// [`ReplicationPolicy`](crate::coding::ReplicationPolicy) is active —
    /// no lineage recompute, counted in the report's
    /// `reconstructed_blocks` / `reconstruction_payload_bytes`. The
    /// surviving nodes renumber down to stay contiguous, the groups whose
    /// parity was lost or that the shrunk grid breaks are encoded again,
    /// and the epoch bumps.
    ///
    /// # Errors
    /// [`JobError::NodeDecommissioned`] when a sole-copy block exceeds its
    /// group's erasure budget (or no policy is active) — the affected
    /// matrices are evicted everywhere (re-running their producing jobs
    /// re-materializes them) and the surviving blocks are still
    /// rebalanced, so the cluster stays usable.
    /// [`JobError::TooManyTasks`] as for [`scale_to`](Self::scale_to):
    /// refused with the node still a member and its store in place.
    pub fn decommission_node(&mut self, node: usize) -> Result<RebalanceReport, JobError> {
        assert!(
            node < self.cfg.nodes,
            "no node {node} in a {}-node cluster",
            self.cfg.nodes
        );
        assert!(self.cfg.nodes > 1, "cannot decommission the last node");
        let after_removal = |h: usize| if h > node { h - 1 } else { h };

        // Partition the resident data keys by whether a surviving replica
        // exists, naming holders as they will be numbered once `node` is
        // gone. Parity keys are derived state: losing one is not a loss,
        // and its members are encoded again for the new grid, so they stay
        // out of both sides of the partition.
        let mut lost_keys: Vec<StoreKey> = Vec::new();
        let mut survivors: BTreeMap<StoreKey, BTreeSet<usize>> = BTreeMap::new();
        for (key, holders) in self.stores.resident_keys() {
            if key.is_parity() {
                continue;
            }
            let remapped: BTreeSet<usize> = holders
                .into_iter()
                .filter(|&h| h != node)
                .map(after_removal)
                .collect();
            if remapped.is_empty() {
                lost_keys.push(key);
            } else {
                survivors.insert(key, remapped);
            }
        }

        // Parity decode, while the dying node is still addressable (its
        // store is excluded from every read — reconstruction must succeed
        // from group survivors alone). Rebuilt blocks are installed on a
        // surviving node and rejoin the survivor set. Whatever remains lost
        // exceeded its group's budget: two sole-copy members of one group
        // both physically on `node`.
        let (mut reconstructed, mut reconstruction_bytes) = (0u64, 0u64);
        if self.cfg.replication.parity_count() > 0 {
            lost_keys.retain(|key| {
                match crate::coding::reconstruct_block(&self.stores, *key, Some(node)) {
                    Some((block, bytes)) => {
                        let host = (node + 1) % self.cfg.nodes;
                        self.stores.ingest(host, *key, Arc::new(block));
                        survivors.insert(*key, BTreeSet::from([after_removal(host)]));
                        reconstructed += 1;
                        reconstruction_bytes += bytes;
                        false
                    }
                    None => true,
                }
            });
        }

        // A matrix with an unrecoverable block is unusable as a resident
        // placement: its surviving blocks are not re-homed, and it is
        // evicted everywhere once the node is gone, so the next job
        // re-ingests (or re-produces) it instead of tripping over a hole.
        let lost_uids: BTreeSet<u64> = lost_keys.iter().map(|k| k.matrix).collect();
        survivors.retain(|k, _| !lost_uids.contains(&k.matrix));
        let event = MembershipEvent::Decommission { node };
        let mut report = self.change_membership(event, &survivors, &FreeBuffers::default())?;
        if lost_keys.is_empty() {
            report.stats.reconstructed_blocks = reconstructed;
            report.stats.reconstruction_payload_bytes = reconstruction_bytes;
            Ok(report)
        } else {
            for uid in lost_uids {
                self.stores.evict_matrix(uid);
            }
            Err(JobError::NodeDecommissioned {
                node,
                lost_blocks: lost_keys.len(),
            })
        }
    }

    /// Commits one membership change; the grid's size changes nowhere
    /// else. `holders` is every data key to keep with the nodes holding a
    /// copy of it, numbered as they will be once a decommissioned node is
    /// gone.
    ///
    /// The [`RebalancePlan`] is derived and held against `max_tasks` before
    /// the first side effect. Then stores are commissioned or the lost one
    /// removed, the plan runs as one gang, the parity groups the new grid
    /// honours are kept and the rest evicted into `buffers`
    /// (`coding::keep_parity`), a shrink's drained tail is dropped, node
    /// count, scheduler slots and epoch move together, and the members no
    /// kept group covers are encoded — relocation and encode alike install
    /// directly, no transport, so the report's `Rebalance` bytes stay
    /// data-only.
    fn change_membership(
        &mut self,
        event: MembershipEvent,
        holders: &BTreeMap<StoreKey, BTreeSet<usize>>,
        buffers: &FreeBuffers,
    ) -> Result<RebalanceReport, JobError> {
        let from_nodes = self.cfg.nodes;
        let to_nodes = match event {
            MembershipEvent::ScaleTo { to, .. } => to,
            MembershipEvent::Decommission { .. } => from_nodes - 1,
        };
        let plan = RebalancePlan::derive(holders, to_nodes);
        if plan.units.len() > self.cfg.max_tasks {
            return Err(JobError::TooManyTasks {
                requested: plan.units.len(),
                limit: self.cfg.max_tasks,
            });
        }
        // What stays coded: every matrix with parity anywhere, the lost
        // node's included, unless the change keeps none of its data.
        let kept: BTreeSet<u64> = holders.keys().map(|k| k.matrix).collect();
        let mut coded = crate::coding::coded_matrices(&self.stores);
        coded.retain(|m| kept.contains(m));
        match event {
            MembershipEvent::ScaleTo { to, .. } => self.stores.grow_to(to),
            MembershipEvent::Decommission { node } => self.stores.remove_node(node),
        }
        let (moves, payload, cross) = self.run_rebalance(&plan, buffers)?;
        crate::coding::keep_parity(&self.stores, &coded, to_nodes, buffers);
        self.stores.truncate_to(to_nodes);
        self.cfg.nodes = to_nodes;
        self.scheduler.set_total_slots(self.cfg.total_slots());
        let epoch = self.membership.record(event);
        // A resize forms groups its old grid honours too, so that a cycle
        // back to it keeps them; a lost node's grid does not come back.
        let grids = match event {
            MembershipEvent::ScaleTo { from, to } => vec![to, from],
            MembershipEvent::Decommission { .. } => vec![to_nodes],
        };
        let parity_blocks_encoded = self.encode_parity_of(&coded, &grids, buffers);

        let mut stats = JobStats {
            rebalanced_moves: moves,
            rebalanced_payload_bytes: payload,
            parity_blocks_encoded,
            ..Default::default()
        };
        let phase = stats.phase_mut(Phase::Rebalance);
        phase.shuffle_bytes = payload;
        phase.cross_node_bytes = cross;
        phase.tasks = moves as usize;
        Ok(RebalanceReport {
            epoch,
            from_nodes,
            to_nodes,
            moves,
            payload_bytes: payload,
            lost_blocks: 0,
            stats,
        })
    }

    /// Executes a rebalance plan as one gang of its units. Migration
    /// traffic is kept out of the cluster's per-job [`TransportStats`]
    /// (payload accounting of jobs must not shift when a resize happens
    /// between them) and runs fault-free — it belongs to no job, so the
    /// fault plan's job-keyed decisions do not apply. A unit's moves draw
    /// their wire buffers from `buffers` and its evictions refill it. Returns
    /// `(moves, payload_bytes, cross_node_payload_bytes)`, order-free sums.
    ///
    /// # Errors
    /// A failed move aborts the gang; the error names the lowest failing
    /// unit's index. A unit evicts nothing until all its moves have
    /// landed, so after an abort every key is still readable on all of
    /// its old homes (unit unfinished) or all of its new ones.
    fn run_rebalance(
        &self,
        plan: &RebalancePlan,
        buffers: &FreeBuffers,
    ) -> Result<(u64, u64, u64), JobError> {
        let migration_stats = TransportStats::default();
        let transport = Transport::new(&self.stores, &migration_stats, None, self.cfg.retry)
            .with_buffers(buffers);
        let units = &plan.units;
        let ready = (0..units.len()).collect();
        let run = self.run_stage(TenantId::ANONYMOUS, 0, units.len(), ready, |ctx, _| {
            let unit = &units[ctx.task];
            let (mut moves, mut payload, mut cross) = (0u64, 0u64, 0u64);
            for &to in &unit.to {
                let wire = WireMove {
                    phase: Phase::Rebalance,
                    from_node: unit.from,
                    to_node: to,
                    wire_bytes: 0,
                    src: unit.key,
                    dst: unit.key,
                };
                if let MoveOutcome::Shipped(bytes) = transport.execute(&wire, 0)? {
                    moves += 1;
                    payload += bytes;
                    if unit.from != to {
                        cross += bytes;
                    }
                }
            }
            for &node in &unit.evict {
                if let Some(stranded) = self.stores.node(node).take(&unit.key) {
                    buffers.reclaim(stranded);
                }
            }
            Ok((moves, payload, cross))
        })?;
        Ok(run
            .outputs
            .iter()
            .fold((0, 0, 0), |(m, p, c), u| (m + u.0, p + u.1, c + u.2)))
    }

    /// Runs one stage of `n` tasks: `f` runs once per task index
    /// ([`TaskCtx::task`] names the item) as one gang of the cluster's
    /// scheduler under `tenant` at `priority`. The calling thread runs
    /// tasks of this stage, and the cluster's helpers (see
    /// [`ClusterConfig::host_worker_oversubscription`]) run tasks of
    /// whichever stage the scheduler picks; at most `M · Tc` tasks run at
    /// once across every concurrent stage. Task memory is enforced through
    /// [`TaskCtx::alloc`]. Each task writes its output into its own slot,
    /// so outputs are returned in task order whoever ran what, or when.
    ///
    /// Only the indices in `ready` are dispatchable at the start (smallest
    /// first — `(0..n).collect()` runs the stage in index order), and a
    /// task closure unlocks further ones through the [`StageGate`] it is
    /// handed once it has installed the blocks they depend on — so
    /// consumers start the moment their producers finish, while unrelated
    /// tasks are still running. A terminal task failure aborts the gang:
    /// nothing further is granted, and workers waiting on never-satisfied
    /// dependencies drain instead of deadlocking.
    ///
    /// A task that fails with a *transient* error (crash, lost or corrupt
    /// shuffle block — see [`TaskError::is_transient`]) is re-run in place,
    /// up to `ClusterConfig::retry` attempts; each re-run charges
    /// exponential backoff to the stage's *modeled* time
    /// (`StageRun::backoff_secs`), never the wall clock.
    ///
    /// # Errors
    /// * [`JobError::TooManyTasks`] when `n` exceeds the scheduler limit;
    /// * the first task failure, promoted via
    ///   [`JobError::from_task_attempts`] (lowest task index wins,
    ///   deterministically; the message carries the attempt count when
    ///   retries were exhausted), or [`JobError::Panicked`] naming the
    ///   task when `f` panicked (not retried).
    pub fn run_stage<O, F>(
        &self,
        tenant: TenantId,
        priority: u8,
        n: usize,
        ready: Vec<usize>,
        f: F,
    ) -> Result<StageRun<O>, JobError>
    where
        O: Send,
        F: Fn(&TaskCtx, &StageGate<'_>) -> Result<O, TaskError> + Sync,
    {
        if n > self.cfg.max_tasks {
            return Err(JobError::TooManyTasks {
                requested: n,
                limit: self.cfg.max_tasks,
            });
        }
        let max_attempts = self.cfg.retry.max_attempts.max(1);
        let slots: Vec<Mutex<Option<Result<O, JobError>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let peak = AtomicU64::new(0);
        let retries = AtomicU64::new(0);
        let backoff_micros = AtomicU64::new(0);

        let task = |gate: &StageGate<'_>, idx: usize| {
            let mut attempt: u32 = 0;
            let out = loop {
                let ctx = TaskCtx {
                    task: idx,
                    node: self.node_of_task(idx),
                    attempt,
                    mem_budget: self.cfg.task_mem_bytes,
                    mem_used: Cell::new(0),
                    mem_peak: Cell::new(0),
                };
                // The task boundary: a panic fails this task, not the
                // thread running it.
                let res = panic::catch_unwind(AssertUnwindSafe(|| f(&ctx, gate)));
                peak.fetch_max(ctx.peak(), Ordering::Relaxed);
                match res {
                    Ok(Err(e)) if e.is_transient() && attempt + 1 < max_attempts => {
                        retries.fetch_add(1, Ordering::Relaxed);
                        let wait = self.cfg.retry.backoff_after(attempt);
                        backoff_micros.fetch_add((wait * 1e6) as u64, Ordering::Relaxed);
                        attempt += 1;
                    }
                    Ok(res) => {
                        break res.map_err(|e| JobError::from_task_attempts(idx, e, attempt + 1))
                    }
                    Err(payload) => {
                        break Err(JobError::panicked(format!("task {idx}: "), &*payload))
                    }
                }
            };
            // A failure aborts the gang: readiness this task would have
            // signalled never comes.
            let failed = out.is_err();
            *slots[idx].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
            failed
        };
        self.scheduler.run_gang(tenant, priority, n, ready, &task);

        // An aborted gang leaves its ungranted tasks without output — the
        // error below covers them (indices are granted smallest first, so
        // the lowest failing one always reports); a clean stage reports
        // all `n`.
        let outputs = slots
            .into_iter()
            .filter_map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect::<Result<Vec<O>, JobError>>()?;
        debug_assert_eq!(
            outputs.len(),
            n,
            "every task reports exactly once on a clean stage"
        );
        Ok(StageRun {
            outputs,
            peak_task_mem_bytes: peak.load(Ordering::Relaxed),
            retries: retries.load(Ordering::Relaxed),
            backoff_secs: backoff_micros.load(Ordering::Relaxed) as f64 / 1e6,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> LocalCluster {
        LocalCluster::new(ClusterConfig::laptop())
    }

    /// An anonymous stage with every task ready — all most tests here need.
    fn stage<I, O>(
        c: &LocalCluster,
        inputs: Vec<I>,
        f: impl Fn(&TaskCtx, I) -> Result<O, TaskError> + Sync,
    ) -> Result<StageRun<O>, JobError>
    where
        I: Sync + Clone,
        O: Send,
    {
        let ready = (0..inputs.len()).collect();
        c.run_stage(TenantId::ANONYMOUS, 0, inputs.len(), ready, |ctx, _| {
            f(ctx, inputs[ctx.task].clone())
        })
    }

    /// Starts every helper `c` may have, through public API only: one
    /// stage whose tasks wait until a stage's full thread cap is inside
    /// them at once. Returns the helper count, that cap less the caller.
    fn start_every_helper(c: &LocalCluster) -> usize {
        use std::collections::HashSet;
        use std::time::{Duration, Instant};
        let host_par = std::thread::available_parallelism().map_or(4, |p| p.get());
        let cfg = c.config();
        let threads = cfg
            .total_slots()
            .min(host_par * cfg.host_worker_oversubscription);
        let deadline = Instant::now() + Duration::from_secs(10);
        let ids = Mutex::new(HashSet::new());
        stage(c, vec![(); threads], |_, ()| {
            ids.lock().unwrap().insert(std::thread::current().id());
            while ids.lock().unwrap().len() < threads {
                assert!(Instant::now() < deadline, "helpers never started");
                std::thread::yield_now();
            }
            Ok(())
        })
        .unwrap();
        threads - 1
    }

    #[test]
    fn stage_runs_all_tasks_in_order() {
        let c = cluster();
        let run = stage(&c, (0..100).collect(), |ctx, x: i32| {
            assert_eq!(ctx.task as i32, x);
            Ok(x * 2)
        })
        .unwrap();
        assert_eq!(run.outputs, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn output_order_is_deterministic_under_skewed_task_durations() {
        // Early tasks run longest, so with multiple workers later tasks
        // finish first; the atomic-cursor queue must still return outputs
        // in task order.
        let c = cluster();
        let run = stage(&c, (0..32).collect(), |_, x: u64| {
            std::thread::sleep(std::time::Duration::from_micros((32 - x) * 50));
            Ok(x)
        })
        .unwrap();
        assert_eq!(run.outputs, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn node_assignment_is_round_robin() {
        let c = cluster();
        assert_eq!(c.node_of_task(0), 0);
        assert_eq!(c.node_of_task(1), 1);
        assert_eq!(c.node_of_task(4), 0);
    }

    #[test]
    fn memory_budget_is_enforced() {
        let c = cluster();
        let budget = c.config().task_mem_bytes;
        let err = stage(&c, vec![()], |ctx, ()| {
            ctx.alloc(budget)?;
            ctx.alloc(1)?; // over budget
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(err, JobError::OutOfMemory { task: 0, .. }));
        assert_eq!(err.annotation(), "O.O.M.");
    }

    #[test]
    fn free_restores_headroom_and_peak_persists() {
        let c = cluster();
        let run = stage(&c, vec![()], |ctx, ()| {
            ctx.alloc(100)?;
            ctx.free(100);
            ctx.alloc(ctx.budget())?; // fits again
            Ok(())
        })
        .unwrap();
        assert_eq!(run.peak_task_mem_bytes, c.config().task_mem_bytes);
    }

    #[test]
    fn alloc_tracks_peak_across_frees() {
        let c = cluster();
        let run = stage(&c, vec![()], |ctx, ()| {
            ctx.alloc(300)?;
            assert_eq!(ctx.peak(), 300);
            ctx.free(200);
            ctx.alloc(50)?; // used = 150, below the earlier peak
            assert_eq!(ctx.peak(), 300);
            ctx.alloc(400)?; // used = 550, new peak
            assert_eq!(ctx.peak(), 550);
            Ok(())
        })
        .unwrap();
        assert_eq!(run.peak_task_mem_bytes, 550);
    }

    #[test]
    fn alloc_saturates_near_u64_max() {
        let mut cfg = ClusterConfig::laptop();
        cfg.task_mem_bytes = u64::MAX;
        cfg.node_mem_bytes = u64::MAX;
        let c = LocalCluster::new(cfg);
        let run = stage(&c, vec![()], |ctx, ()| {
            ctx.alloc(u64::MAX - 10)?;
            // Saturates to u64::MAX instead of wrapping to a tiny
            // total that would sail under the budget.
            ctx.alloc(u64::MAX)?;
            assert_eq!(ctx.peak(), u64::MAX);
            Ok(())
        })
        .unwrap();
        assert_eq!(run.peak_task_mem_bytes, u64::MAX);
    }

    #[test]
    fn failed_alloc_leaves_mem_used_unchanged() {
        let c = cluster();
        let budget = c.config().task_mem_bytes;
        stage(&c, vec![()], |ctx, ()| {
            ctx.alloc(budget - 10)?;
            assert!(ctx.alloc(11).is_err());
            // The failed charge must not count: exactly 10 bytes of
            // headroom remain and the peak never saw the rejected total.
            ctx.alloc(10)?;
            assert_eq!(ctx.peak(), budget);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn lowest_failing_task_wins() {
        let c = cluster();
        let err = stage(&c, (0..50).collect(), |_, x: i32| {
            if x >= 10 {
                Err(TaskError::Compute(format!("boom {x}")))
            } else {
                Ok(x)
            }
        })
        .unwrap_err();
        assert!(matches!(err, JobError::TaskFailed { task: 10, .. }));
    }

    #[test]
    fn too_many_tasks_rejected() {
        let mut cfg = ClusterConfig::laptop();
        cfg.max_tasks = 5;
        let c = LocalCluster::new(cfg);
        let err = stage(&c, vec![(); 6], |_, ()| Ok(())).unwrap_err();
        assert_eq!(err.annotation(), "T.M.T.");
    }

    #[test]
    fn worker_cap_honours_oversubscription_config() {
        use std::collections::HashSet;
        let mut cfg = ClusterConfig::laptop();
        cfg.host_worker_oversubscription = 1;
        let c = LocalCluster::new(cfg);
        let ids = Mutex::new(HashSet::new());
        stage(&c, vec![(); 64], |_, ()| {
            ids.lock().unwrap().insert(std::thread::current().id());
            Ok(())
        })
        .unwrap();
        let host_par = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4);
        assert!(ids.into_inner().unwrap().len() <= host_par.min(c.config().total_slots()));
    }

    #[test]
    fn a_panicking_task_fails_its_stage_and_the_next_stage_runs() {
        let c = cluster();
        let err = stage(&c, (0..16).collect(), |_, x: u32| {
            if x == 3 {
                panic!("bad block {x}");
            }
            Ok(x)
        })
        .unwrap_err();
        match &err {
            JobError::Panicked { message } => {
                assert_eq!(message, "task 3: bad block 3");
            }
            other => panic!("unexpected error: {other:?}"),
        }
        // The threads that ran it are still in service.
        let run = stage(&c, (0..64).collect(), |_, x: u32| Ok(x * 3)).unwrap();
        assert_eq!(run.outputs, (0..64).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn stages_start_no_threads_once_the_pool_is_up() {
        use std::collections::HashSet;
        use std::thread::ThreadId;
        let c = cluster();
        let helpers = start_every_helper(&c);
        let live = c.scheduler().live_helpers();
        assert_eq!(live, helpers);
        let on = |ids: &Mutex<HashSet<ThreadId>>| {
            stage(&c, vec![(); 16], |_, ()| {
                ids.lock().unwrap().insert(std::thread::current().id());
                std::thread::yield_now();
                Ok(())
            })
            .unwrap();
        };
        let ids = Mutex::default();
        for _ in 0..200 {
            on(&ids);
        }
        assert_eq!(
            c.scheduler().live_helpers(),
            live,
            "a stage started a thread"
        );
        // Thread ids are never reused: a stage with threads of its own
        // would add fresh ones every time.
        let distinct = ids.into_inner().unwrap().len();
        assert!(distinct <= helpers + 1, "{distinct} threads ran tasks");
    }

    #[test]
    fn helpers_live_exactly_as_long_as_their_cluster() {
        for _ in 0..50 {
            let c = cluster();
            let helpers = start_every_helper(&c);
            let sched = c.scheduler().clone();
            assert_eq!(sched.live_helpers(), helpers);
            drop(c);
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while sched.live_helpers() > 0 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "helpers outlived their cluster"
                );
                std::thread::yield_now();
            }
        }
    }

    #[test]
    fn idle_helpers_run_whichever_stage_has_ready_work() {
        // Stage X parks its threads: task 0 waits for stage Y, and its
        // other tasks are not ready before then. Y's tasks must still run
        // on more than Y's caller.
        use std::collections::HashSet;
        use std::sync::atomic::AtomicBool;
        use std::time::{Duration, Instant};
        let c = cluster();
        let slots = c.config().total_slots();
        let parked = start_every_helper(&c);
        let deadline = Instant::now() + Duration::from_secs(10);
        let y_done = AtomicBool::new(false);
        let ids = Mutex::new(HashSet::new());
        std::thread::scope(|scope| {
            let x = scope.spawn(|| {
                c.run_stage(TenantId(1), 0, slots, vec![0], |ctx, gate| {
                    if ctx.task == 0 {
                        // Outlast Y's own bound, so Y cannot borrow X's
                        // threads once X gives up.
                        let x_deadline = deadline + Duration::from_secs(5);
                        while !y_done.load(Ordering::Acquire) && Instant::now() < x_deadline {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        (1..slots).for_each(|t| gate.mark_ready(t));
                    }
                    Ok(())
                })
            });
            while c.scheduler().load().waiting_workers < parked {
                assert!(Instant::now() < deadline, "stage X's threads never parked");
                std::thread::yield_now();
            }
            stage(&c, vec![(); 8], |_, ()| {
                ids.lock().unwrap().insert(std::thread::current().id());
                // Leave room for a second thread to take a task.
                while ids.lock().unwrap().len() < 2 && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(())
            })
            .unwrap();
            y_done.store(true, Ordering::Release);
            x.join().unwrap().unwrap();
        });
        let threads = ids.into_inner().unwrap().len();
        assert!(threads > 1, "stage Y ran on {threads} thread");
    }

    #[test]
    fn concurrent_gated_stages_all_finish_in_order() {
        // Eight callers at once, more than the pool has helpers, each with
        // 32 producers and 32 consumers gated one-to-one on them.
        let c = cluster();
        std::thread::scope(|scope| {
            let callers: Vec<_> = (0..8u32)
                .map(|caller| {
                    let c = &c;
                    scope.spawn(move || {
                        c.run_stage(TenantId(caller), 0, 64, (0..32).collect(), |ctx, gate| {
                            if ctx.task < 32 {
                                gate.mark_ready(ctx.task + 32);
                            }
                            Ok(caller as usize * 1000 + ctx.task)
                        })
                        .unwrap()
                        .outputs
                    })
                })
                .collect();
            for (caller, h) in callers.into_iter().enumerate() {
                let expected: Vec<usize> = (0..64).map(|t| caller * 1000 + t).collect();
                assert_eq!(h.join().unwrap(), expected);
            }
        });
    }

    #[test]
    fn empty_stage_is_fine() {
        let c = cluster();
        let run = stage(&c, Vec::<()>::new(), |_, ()| Ok(0u8)).unwrap();
        assert!(run.outputs.is_empty());
    }

    #[test]
    fn transient_failures_are_retried_to_success() {
        use crate::config::RetryPolicy;
        let cfg = ClusterConfig::laptop().with_retry(RetryPolicy {
            max_attempts: 3,
            backoff_secs: 0.25,
        });
        let c = LocalCluster::new(cfg);
        let run = stage(&c, (0..8).collect(), |ctx, x: u32| {
            // Every task's first attempt loses a block; the retry
            // succeeds.
            if ctx.attempt == 0 {
                Err(TaskError::Crashed { node: ctx.node })
            } else {
                Ok(x * 10)
            }
        })
        .unwrap();
        assert_eq!(run.outputs, (0..8).map(|x| x * 10).collect::<Vec<_>>());
        assert_eq!(run.retries, 8);
        // 8 first-attempt failures × backoff_secs · 2^0 of modeled wait.
        assert!((run.backoff_secs - 8.0 * 0.25).abs() < 1e-6);
    }

    #[test]
    fn non_transient_failures_are_not_retried() {
        use crate::config::RetryPolicy;
        let cfg = ClusterConfig::laptop().with_retry(RetryPolicy {
            max_attempts: 5,
            backoff_secs: 0.0,
        });
        let c = LocalCluster::new(cfg);
        let attempts_seen = AtomicU64::new(0);
        let err = stage(&c, vec![()], |_, ()| -> Result<(), TaskError> {
            attempts_seen.fetch_add(1, Ordering::Relaxed);
            Err(TaskError::Compute("deterministic bug".into()))
        })
        .unwrap_err();
        assert_eq!(attempts_seen.load(Ordering::Relaxed), 1);
        assert!(matches!(err, JobError::TaskFailed { task: 0, .. }));
        // Single attempt: no attempt count in the message.
        assert!(!err.to_string().contains("attempts"), "{err}");
    }

    #[test]
    fn exhausted_retries_report_the_attempt_count() {
        use crate::config::RetryPolicy;
        let cfg = ClusterConfig::laptop().with_retry(RetryPolicy {
            max_attempts: 4,
            backoff_secs: 0.0,
        });
        let c = LocalCluster::new(cfg);
        let err = stage(&c, vec![()], |ctx, ()| -> Result<(), TaskError> {
            Err(TaskError::Crashed { node: ctx.node })
        })
        .unwrap_err();
        match &err {
            JobError::TaskFailed { task: 0, message } => {
                assert!(message.contains("4 attempts"), "{message}");
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn injected_crashes_recover_bit_identically() {
        use crate::chaos::{run_task, FaultSpec};
        use crate::config::RetryPolicy;
        let cfg = ClusterConfig::laptop().with_retry(RetryPolicy {
            max_attempts: 6,
            backoff_secs: 0.0,
        });
        let c = LocalCluster::new(cfg);
        let plan = c.inject_faults(FaultSpec {
            crash_rate: 0.2,
            ..FaultSpec::quiet(17)
        });
        let run = stage(&c, (0..64).collect(), |ctx, x: u64| {
            let (task, node) = (ctx.task, ctx.node);
            run_task(
                Some(&plan),
                Phase::LocalMult,
                task,
                node,
                ctx.attempt,
                || Ok(x * x),
            )
        })
        .unwrap();
        assert_eq!(run.outputs, (0..64).map(|x| x * x).collect::<Vec<_>>());
        assert!(plan.crashed() > 0, "a 20% crash rate over 64 tasks fires");
        assert_eq!(run.retries, plan.crashed());
        c.clear_faults();
        assert!(c.fault_plan().is_none());
    }

    #[test]
    fn gated_stage_streams_consumers_behind_their_producers() {
        // Tasks 0..4 are producers (ready at once); task 4 is a consumer
        // gated on all four. The consumer must observe every producer's
        // write — dispatch readiness is the only synchronization.
        let c = cluster();
        let produced = Mutex::new(Vec::new());
        let remaining = AtomicU64::new(4);
        let run = c
            .run_stage(TenantId::ANONYMOUS, 0, 5, (0..4).collect(), |ctx, gate| {
                let x = ctx.task;
                if x < 4 {
                    produced.lock().unwrap().push(x);
                    if remaining.fetch_sub(1, Ordering::Relaxed) == 1 {
                        gate.mark_ready(4);
                    }
                    Ok(x * 10)
                } else {
                    let seen = produced.lock().unwrap().len();
                    assert_eq!(seen, 4, "consumer ran before its producers");
                    Ok(seen)
                }
            })
            .unwrap();
        assert_eq!(run.outputs, vec![0, 10, 20, 30, 4]);
    }

    #[test]
    fn gated_stage_failure_drains_instead_of_deadlocking() {
        // Task 1 stays gated forever because its producer (task 0) fails
        // terminally; the stage must return the error, not hang.
        let c = cluster();
        let err = c
            .run_stage(TenantId::ANONYMOUS, 0, 2, vec![0], |ctx, gate| {
                let x = ctx.task;
                if x == 0 {
                    Err(TaskError::Compute("producer bug".into()))
                } else {
                    gate.mark_ready(1); // unreachable
                    Ok(x)
                }
            })
            .unwrap_err();
        assert!(matches!(err, JobError::TaskFailed { task: 0, .. }));
    }

    #[test]
    fn gated_stage_retries_remark_readiness_idempotently() {
        use crate::config::RetryPolicy;
        let cfg = ClusterConfig::laptop().with_retry(RetryPolicy {
            max_attempts: 3,
            backoff_secs: 0.0,
        });
        let c = LocalCluster::new(cfg);
        // The producer marks its consumer ready, then crashes; the retry
        // marks again. The consumer must still run exactly once.
        let consumer_runs = AtomicU64::new(0);
        let run = c
            .run_stage(TenantId::ANONYMOUS, 0, 2, vec![0], |ctx, gate| {
                if ctx.task == 0 {
                    gate.mark_ready(1);
                    if ctx.attempt == 0 {
                        return Err(TaskError::Crashed { node: ctx.node });
                    }
                    Ok(100)
                } else {
                    consumer_runs.fetch_add(1, Ordering::Relaxed);
                    Ok(200)
                }
            })
            .unwrap();
        assert_eq!(run.outputs, vec![100, 200]);
        assert_eq!(consumer_runs.load(Ordering::Relaxed), 1);
        assert_eq!(run.retries, 1);
    }

    #[test]
    fn scale_to_rehomes_resident_blocks_and_bumps_the_epoch() {
        use crate::rebalance::home_node;
        use distme_matrix::{Block, BlockId, DenseBlock};
        let mut c = cluster(); // 4 nodes
        let uid = 77;
        let ids = [BlockId::new(0, 0), BlockId::new(1, 2), BlockId::new(3, 1)];
        for id in ids {
            let key = StoreKey::operand(uid, id);
            let blk = Arc::new(Block::Dense(DenseBlock::from_fn(4, 4, |i, j| {
                (i + j + id.row as usize) as f64
            })));
            c.stores().ingest(home_node(id, 0, 4), key, blk);
        }
        assert_eq!(c.epoch(), 0);
        let report = c.scale_to(9).unwrap();
        assert_eq!(c.epoch(), 1);
        assert_eq!(c.config().nodes, 9);
        assert_eq!(c.stores().num_nodes(), 9);
        assert_eq!((report.from_nodes, report.to_nodes), (4, 9));
        assert!(report.moves > 0);
        assert_eq!(report.stats.rebalanced_moves, report.moves);
        assert_eq!(report.stats.rebalanced_payload_bytes, report.payload_bytes);
        // Migration traffic is reported under its own phase and stays out
        // of the per-job transport counters.
        assert_eq!(
            report.stats.phase(Phase::Rebalance).shuffle_bytes,
            report.payload_bytes
        );
        assert_eq!(c.transport_stats().payload_bytes(), 0);
        // Every block now sits at both of its homes under the 9-node grid
        // and nowhere else.
        for id in ids {
            let key = StoreKey::operand(uid, id);
            let homes: std::collections::BTreeSet<usize> =
                [home_node(id, 0, 9), home_node(id, 1, 9)]
                    .into_iter()
                    .collect();
            for n in 0..9 {
                assert_eq!(
                    c.stores().node(n).contains(&key),
                    homes.contains(&n),
                    "block {id:?} on node {n}"
                );
            }
        }
    }

    #[test]
    fn scale_to_current_size_is_a_no_op() {
        let mut c = cluster();
        let report = c.scale_to(4).unwrap();
        assert_eq!(c.epoch(), 0);
        assert_eq!(report.moves, 0);
        assert!(c.membership().log().is_empty());
    }

    #[test]
    fn scale_to_zero_is_a_typed_error_with_nothing_changed() {
        use distme_matrix::{Block, BlockId, DenseBlock};
        let mut c = cluster();
        let key = StoreKey::operand(3, BlockId::new(0, 0));
        let blk = Block::Dense(DenseBlock::from_fn(2, 2, |i, j| (i + j) as f64));
        c.stores().ingest(1, key, Arc::new(blk));
        let before = c.stores().resident_keys();
        let err = c.scale_to(0).unwrap_err();
        assert!(matches!(err, JobError::InvalidSubmission { .. }), "{err}");
        assert_eq!((c.epoch(), c.config().nodes), (0, 4));
        assert_eq!(c.stores().resident_keys(), before);
        assert!(c.membership().log().is_empty());
    }

    #[test]
    fn shrink_drains_the_leaving_tail() {
        use crate::rebalance::home_node;
        use distme_matrix::{Block, BlockId, DenseBlock};
        let mut c = LocalCluster::new(ClusterConfig {
            nodes: 9,
            ..ClusterConfig::laptop()
        });
        let uid = 5;
        // Park a block on a tail node that will not survive the shrink.
        let id = BlockId::new(2, 2);
        let key = StoreKey::operand(uid, id);
        let blk = Arc::new(Block::Dense(DenseBlock::from_fn(3, 3, |i, j| {
            (i * j) as f64
        })));
        c.stores().ingest(8, key, blk);
        let report = c.scale_to(4).unwrap();
        assert_eq!(c.stores().num_nodes(), 4);
        assert!(report.moves > 0);
        let homes: std::collections::BTreeSet<usize> = [home_node(id, 0, 4), home_node(id, 1, 4)]
            .into_iter()
            .collect();
        for n in 0..4 {
            assert_eq!(c.stores().node(n).contains(&key), homes.contains(&n));
        }
    }

    #[test]
    fn decommission_recovers_from_replicas_or_reports_the_loss() {
        use distme_matrix::{Block, BlockId, DenseBlock};
        let blk = || {
            Arc::new(Block::Dense(DenseBlock::from_fn(2, 2, |i, j| {
                (i + 2 * j) as f64
            })))
        };
        // Replicated block: survives the loss of one holder.
        let mut c = cluster();
        let replicated = StoreKey::operand(1, BlockId::new(0, 0));
        c.stores().ingest(1, replicated, blk());
        c.stores().ingest(3, replicated, blk());
        let report = c.decommission_node(1).unwrap();
        assert_eq!(c.config().nodes, 3);
        assert_eq!(c.epoch(), 1);
        assert_eq!(report.lost_blocks, 0);
        let resident = c.stores().resident_keys();
        assert!(resident.contains_key(&replicated), "lineage copy re-homed");

        // Sole-copy block: the loss is typed and the matrix is evicted.
        let mut c = cluster();
        let sole = StoreKey::operand(2, BlockId::new(1, 1));
        c.stores().ingest(2, sole, blk());
        let err = c.decommission_node(2).unwrap_err();
        assert_eq!(
            err,
            JobError::NodeDecommissioned {
                node: 2,
                lost_blocks: 1
            }
        );
        assert_eq!(err.annotation(), "N.D.");
        // The epoch still bumps (the node is gone either way) and the
        // cluster stays usable at 3 nodes with the lost matrix evicted.
        assert_eq!(c.epoch(), 1);
        assert_eq!(c.config().nodes, 3);
        assert!(c.stores().resident_keys().is_empty());
    }

    #[test]
    fn resize_cycles_repeat_exactly_whatever_order_the_gang_ran_in() {
        use crate::coding::ReplicationPolicy;
        use crate::rebalance::home_node;
        use distme_matrix::{codec, Block, BlockId, CsrBlock, DenseBlock};
        let mut c =
            LocalCluster::new(ClusterConfig::laptop().with_replication(ReplicationPolicy::Xor));
        // Two matrices, dense and sparse blocks of unequal size, resident
        // on both homes of the 4-node grid — where a cycle leaves them, so
        // every cycle starts from the same placement.
        for uid in [11u64, 12] {
            for row in 0..5u32 {
                for col in 0..4u32 {
                    let id = BlockId::new(row, col);
                    let n = 3 + (row + col) as usize % 4;
                    let blk = Arc::new(if (row + col + uid as u32).is_multiple_of(3) {
                        let trips = (0..n).map(|i| (i, (i * 2) % n, 1.5 + (i + n) as f64));
                        Block::Sparse(CsrBlock::from_triplets(n, n, trips).unwrap())
                    } else {
                        Block::Dense(DenseBlock::from_fn(n, n, |i, j| {
                            (uid as usize * 31 + i * n + j) as f64 / 7.0
                        }))
                    });
                    for which in 0..2 {
                        c.stores().ingest(
                            home_node(id, which, 4),
                            StoreKey::operand(uid, id),
                            blk.clone(),
                        );
                    }
                }
            }
            assert!(c.encode_parity(uid) > 0);
        }
        // Every node's keys and the exact bytes of every block, parity
        // envelopes included.
        let placement = |c: &LocalCluster| -> Vec<Vec<(StoreKey, Vec<u8>)>> {
            (0..c.stores().num_nodes())
                .map(|n| {
                    let store = c.stores().node(n);
                    let frame = |k| codec::encode(&store.get(&k).unwrap()).to_vec();
                    store.keys().into_iter().map(|k| (k, frame(k))).collect()
                })
                .collect()
        };
        let mut cycle = || {
            let grown = c.scale_to(9).unwrap();
            let at_nine = placement(&c);
            let shrunk = c.scale_to(4).unwrap();
            (
                [grown, shrunk].map(|r| (r.moves, r.payload_bytes, r.stats)),
                at_nine,
                placement(&c),
            )
        };
        // The first cycle may break groups the 9-node grid does not honour
        // and encode their members afresh; what it leaves is kept from then
        // on. So cycle 1 is the steady state every later cycle repeats,
        // and cycle 0 differs from it in parity alone.
        let cycles: Vec<_> = (0..20).map(|_| cycle()).collect();
        let [(moves, payload, stats), _] = cycles[0].0;
        assert!(moves > 0 && payload > 0 && stats.parity_blocks_encoded > 0);
        for (_, payload, stats) in cycles[0].0 {
            let rebalance = stats.phase(Phase::Rebalance);
            assert_eq!(rebalance.shuffle_bytes, payload, "phase bytes = payload");
            assert!(rebalance.cross_node_bytes <= payload);
        }
        let data = |placement: &[Vec<(StoreKey, Vec<u8>)>]| -> Vec<Vec<(StoreKey, Vec<u8>)>> {
            placement
                .iter()
                .map(|node| {
                    node.iter()
                        .filter(|(k, _)| !k.is_parity())
                        .cloned()
                        .collect()
                })
                .collect()
        };
        let (first, steady) = (&cycles[0], &cycles[1]);
        for (r0, r1) in first.0.iter().zip(&steady.0) {
            assert_eq!(
                (r0.0, r0.1),
                (r1.0, r1.1),
                "cycle 0 moves the data cycle 1 does"
            );
            assert_eq!(r0.2.phase(Phase::Rebalance), r1.2.phase(Phase::Rebalance));
        }
        assert!(data(&first.1) == data(&steady.1), "cycle 0's data at nine");
        assert!(data(&first.2) == data(&steady.2), "cycle 0's data at four");
        for (n, later) in cycles.iter().enumerate().skip(1) {
            for (_, _, stats) in later.0 {
                assert_eq!(stats.parity_blocks_encoded, 0, "cycle {n} encodes parity");
            }
            assert!(later == steady, "cycle {n} differs from cycle 1");
        }
        // A resize to the current size moves nothing and says so.
        let noop = c.scale_to(4).unwrap();
        assert_eq!((noop.moves, noop.payload_bytes), (0, 0));
        assert_eq!(noop.stats.phase(Phase::Rebalance).shuffle_bytes, 0);
    }

    /// The coding invariants of a coded cluster, checked from its stores
    /// alone: every copy-0 key in `frames` is named by exactly one resident
    /// envelope and no envelope names anything else; every envelope's group
    /// is one the current grid honours — at most `group_size_cap` members,
    /// on distinct canonical homes, its parity on a node that is none of
    /// them; and with any one node excluded, every key whose sole copy that
    /// node holds decodes to its original frame.
    fn assert_coded(c: &LocalCluster, frames: &BTreeMap<StoreKey, Vec<u8>>, step: &str) {
        use crate::coding::{group_size_cap, parity_members, reconstruct_block};
        use crate::rebalance::home_node;
        use distme_matrix::codec;
        let nodes = c.config().nodes;
        let resident = c.stores().resident_keys();
        let mut named: BTreeMap<StoreKey, usize> = BTreeMap::new();
        for (key, holders) in resident.iter().filter(|(k, _)| k.is_parity()) {
            for &n in holders {
                let envelope = c.stores().node(n).get(key).unwrap();
                let members = parity_members(&envelope).expect("a readable envelope");
                let homes: BTreeSet<usize> =
                    members.iter().map(|m| home_node(m.id, 0, nodes)).collect();
                assert!(members.len() <= group_size_cap(nodes), "{step}: {key:?}");
                assert_eq!(homes.len(), members.len(), "{step}: {key:?} shares a home");
                assert!(!homes.contains(&n), "{step}: {key:?} on a member's home");
                for m in members {
                    let member = StoreKey::replica(key.matrix, m.id, m.copy);
                    *named.entry(member).or_default() += 1;
                }
            }
        }
        assert!(
            named.len() == frames.len() && frames.keys().all(|k| named.get(k) == Some(&1)),
            "{step}: every coded key is named by exactly one envelope"
        );
        let mut decoded = 0;
        for excluded in 0..nodes {
            let sole = frames
                .keys()
                .filter(|k| resident[k] == BTreeSet::from([excluded]));
            for key in sole {
                let (block, _) = reconstruct_block(c.stores(), *key, Some(excluded))
                    .unwrap_or_else(|| panic!("{step}: {key:?} without node {excluded}"));
                assert_eq!(
                    codec::encode(&block).to_vec(),
                    frames[key],
                    "{step}: {key:?}"
                );
                decoded += 1;
            }
        }
        assert!(decoded > 0, "{step}: some key is a sole copy");
    }

    #[test]
    fn a_resize_keeps_every_group_the_new_grid_honours() {
        use crate::coding::ReplicationPolicy;
        use crate::rebalance::home_node;
        use distme_matrix::{codec, Block, BlockId, CsrBlock, DenseBlock};
        let mut c =
            LocalCluster::new(ClusterConfig::laptop().with_replication(ReplicationPolicy::Xor));
        let mut frames = BTreeMap::new();
        for uid in [31u64, 32] {
            for row in 0..6u32 {
                for col in 0..5u32 {
                    let id = BlockId::new(row, col);
                    let n = 2 + (row * 3 + col) as usize % 5;
                    let blk = Arc::new(if (row + 2 * col + uid as u32).is_multiple_of(4) {
                        let trips = (0..n).map(|i| (i, (i + 1) % n, (i + row as usize) as f64));
                        Block::Sparse(CsrBlock::from_triplets(n, n, trips).unwrap())
                    } else {
                        Block::Dense(DenseBlock::from_fn(n, n, |i, j| {
                            (uid as usize + 5 * i + j) as f64 / (1 + col) as f64
                        }))
                    });
                    let key = StoreKey::operand(uid, id);
                    for which in 0..2 {
                        c.stores().ingest(home_node(id, which, 4), key, blk.clone());
                    }
                    frames.insert(key, codec::encode(&blk).to_vec());
                }
            }
            assert!(c.encode_parity(uid) > 0);
        }
        assert_coded(&c, &frames, "encoded on 4 nodes");
        let mut encoded = Vec::new();
        for n in [9, 4, 9, 4] {
            let report = c.scale_to(n).unwrap();
            encoded.push(report.stats.parity_blocks_encoded);
            assert_coded(&c, &frames, &format!("resize {} to {n}", encoded.len()));
        }
        assert_eq!(
            encoded[2..],
            [0, 0],
            "a steady cycle encodes none: {encoded:?}"
        );

        // The lost node's parity goes with it: what it covered is encoded
        // again, and what the node held alone decodes from the rest.
        let resident = c.stores().resident_keys();
        let victim = (0..4)
            .find(|&n| frames.keys().any(|k| resident[k] == BTreeSet::from([n])))
            .expect("some node holds a sole copy");
        let report = c.decommission_node(victim).unwrap();
        assert!(report.stats.reconstructed_blocks > 0);
        assert!(report.stats.parity_blocks_encoded > 0);
        assert_coded(&c, &frames, "decommissioned");
    }

    #[test]
    fn a_resize_the_task_limit_refuses_moves_nothing() {
        use crate::coding::ReplicationPolicy;
        use crate::rebalance::home_node;
        use distme_matrix::{Block, BlockId, DenseBlock};
        // The one failure a fault-free migration can reach: its units are
        // a stage, and a stage may hold at most `max_tasks` tasks. On a
        // coded cluster, so that parity is among what must not move.
        let mut cfg = ClusterConfig::laptop().with_replication(ReplicationPolicy::Xor);
        cfg.max_tasks = 4;
        let mut c = LocalCluster::new(cfg);
        for col in 0..6u32 {
            let id = BlockId::new(0, col);
            let blk = Block::Dense(DenseBlock::from_fn(2, 2, |i, j| {
                (i + j + col as usize) as f64
            }));
            c.stores()
                .ingest(home_node(id, 0, 4), StoreKey::operand(9, id), Arc::new(blk));
        }
        assert_eq!(c.encode_parity(9), 3);
        let before = c.stores().resident_keys();
        assert_eq!(before.keys().filter(|k| k.is_parity()).count(), 3);
        let err = c.scale_to(9).unwrap_err();
        assert_eq!(
            err,
            JobError::TooManyTasks {
                requested: 6,
                limit: 4
            }
        );
        assert_eq!(
            c.stores().resident_keys(),
            before,
            "every key, parity included, on its old homes"
        );
        assert_eq!(c.stores().num_nodes(), 4, "no store was commissioned");
        assert_eq!((c.epoch(), c.config().nodes), (0, 4));
    }

    #[test]
    fn a_decommission_the_task_limit_refuses_leaves_the_cluster_whole() {
        use distme_matrix::{Block, BlockId, DenseBlock};
        let mut cfg = ClusterConfig::laptop();
        cfg.max_tasks = 2;
        let mut c = LocalCluster::new(cfg);
        // Twelve blocks, none on the victim: nothing is lost, but every key
        // has a new home on the 3-node grid — more units than a stage holds.
        for col in 0..12u32 {
            let blk = Block::Dense(DenseBlock::from_fn(2, 2, |i, j| {
                (i + j + col as usize) as f64
            }));
            let node = [0, 2, 3][col as usize % 3];
            let key = StoreKey::operand(9, BlockId::new(0, col));
            c.stores().ingest(node, key, Arc::new(blk));
        }
        let before = c.stores().resident_keys();
        let err = c.decommission_node(1).unwrap_err();
        assert!(
            matches!(err, JobError::TooManyTasks { limit: 2, .. }),
            "{err}"
        );
        assert_eq!(c.stores().num_nodes(), c.config().nodes, "a store per node");
        assert_eq!((c.epoch(), c.config().nodes), (0, 4));
        assert_eq!(
            c.stores().resident_keys(),
            before,
            "every key still readable"
        );
    }

    #[test]
    fn a_steady_state_cycle_fills_the_buffers_it_empties() {
        use crate::coding::ReplicationPolicy;
        use crate::rebalance::home_node;
        use distme_matrix::{codec, Block, BlockId, DenseBlock};
        let mut c =
            LocalCluster::new(ClusterConfig::laptop().with_replication(ReplicationPolicy::Xor));
        for uid in [21u64, 22] {
            for row in 0..6u32 {
                for col in 0..6u32 {
                    let id = BlockId::new(row, col);
                    let blk = Arc::new(Block::Dense(DenseBlock::from_fn(24, 24, |i, j| {
                        (uid as usize + 7 * i + j) as f64 / (1 + row + col) as f64
                    })));
                    for which in 0..2 {
                        c.stores().ingest(
                            home_node(id, which, 4),
                            StoreKey::operand(uid, id),
                            blk.clone(),
                        );
                    }
                }
            }
            assert!(c.encode_parity(uid) > 0);
        }
        let frames = |c: &LocalCluster| -> Vec<Vec<(StoreKey, Vec<u8>)>> {
            (0..c.stores().num_nodes())
                .map(|n| {
                    let store = c.stores().node(n);
                    let frame = |k| codec::encode(&store.get(&k).unwrap()).to_vec();
                    store.keys().into_iter().map(|k| (k, frame(k))).collect()
                })
                .collect()
        };
        // The first cycle turns the ingested blocks into what a resize
        // leaves behind: views of wire frames, envelopes in their buffers.
        for n in [9, 4] {
            c.scale_to(n).unwrap();
        }
        let settled = frames(&c);

        // Someone still holds a block the cycle will evict: its buffer is
        // not the free list's to hand out, whatever gets written next.
        let (held_key, held_at) = (0..4)
            .flat_map(|n| c.stores().node(n).keys().into_iter().map(move |k| (k, n)))
            .find(|(k, n)| !k.is_parity() && (0..2).all(|w| home_node(k.id, w, 9) != *n))
            .expect("some copy is stranded by the grow");
        let held = c.stores().node(held_at).get(&held_key).unwrap();
        let held_bits = codec::resident_frame(&held).expect("a view").to_vec();

        let (mut recycled, mut allocated) = (0, 0);
        for n in [9, 4] {
            let buffers = FreeBuffers::default();
            let report = c.resize(n, &buffers).unwrap();
            let (r, a) = buffers.draws();
            assert_eq!(
                r + a,
                report.moves + report.stats.parity_blocks_encoded,
                "one buffer per delivery and per envelope"
            );
            recycled += r;
            allocated += a;
        }
        assert!(
            recycled >= allocated,
            "a steady-state cycle draws most buffers from its own evictions: {recycled} recycled, {allocated} allocated"
        );
        assert_eq!(frames(&c), settled, "recycled buffers, identical bits");
        assert_eq!(
            codec::resident_frame(&held).unwrap().as_ref(),
            &held_bits[..],
            "a block someone still held was not reclaimed"
        );
    }

    #[test]
    fn blacked_out_node_fails_the_job_cleanly() {
        use crate::chaos::{run_task, Blackout, FaultSpec};
        let c = cluster();
        let plan = c.inject_faults(FaultSpec {
            blackouts: vec![Blackout {
                node: 0,
                from: (0, Phase::Repartition),
                until: (10, Phase::Aggregation),
            }],
            ..FaultSpec::quiet(0)
        });
        // Task 0 lands on node 0 (round-robin) and the node stays dark for
        // the whole retry budget: the job must fail with a typed error,
        // never hang or panic.
        let err = stage(&c, (0..8).collect(), |ctx, x: u32| {
            let (task, node) = (ctx.task, ctx.node);
            run_task(
                Some(&plan),
                Phase::LocalMult,
                task,
                node,
                ctx.attempt,
                || Ok(x),
            )
        })
        .unwrap_err();
        match &err {
            JobError::TaskFailed { task: 0, message } => {
                assert!(message.contains("unreachable"), "{message}");
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }
}

//! Cluster membership: the epoch model behind elastic scaling.
//!
//! The paper's engine is *elastic*: the node grid is not fixed for the
//! lifetime of a session. [`Membership`] logs every change under a
//! monotonically increasing **epoch** that bumps on each one —
//! commissioning nodes, graceful decommissioning (blocks drained first),
//! or permanent loss of a node. The epoch is the invalidation token for
//! everything derived from the grid size: cached [`JobPlan`]s (the
//! optimizer's `(P*,Q*,R*)` search is re-run against the new node count),
//! block homes, and task→node round-robin assignments.
//!
//! [`ElasticPolicy`] is the small autoscaler on top: given the previous
//! job's [`JobStats`], it recommends a new node count when local-mult
//! parallelism over- or under-shoots the utilization band.
//!
//! [`JobPlan`]: ../../distme_core/plan/struct.JobPlan.html

use crate::stats::{JobStats, Phase};

/// One membership change, recorded in the [`Membership`] log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipEvent {
    /// Graceful resize: grow by commissioning empty nodes, or shrink with
    /// the leaving nodes' blocks drained onto the survivors first.
    ScaleTo {
        /// Node count before the change.
        from: usize,
        /// Node count after the change.
        to: usize,
    },
    /// Permanent loss of one node: its store is gone; blocks survive only
    /// where a replica exists on another node (lineage).
    Decommission {
        /// The node that was lost (pre-renumbering id).
        node: usize,
    },
}

/// The cluster's membership history: the epoch and the change log. The
/// node count itself is `ClusterConfig::nodes`, which the same commit
/// updates.
#[derive(Debug, Clone, Default)]
pub struct Membership {
    epoch: u64,
    log: Vec<(u64, MembershipEvent)>,
}

impl Membership {
    /// The current epoch (0 until the first membership change).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Records a membership change: bumps the epoch and appends to the
    /// log. Returns the new epoch.
    pub fn record(&mut self, event: MembershipEvent) -> u64 {
        self.epoch += 1;
        self.log.push((self.epoch, event));
        self.epoch
    }

    /// Every change so far, as `(epoch, event)` pairs in epoch order.
    pub fn log(&self) -> &[(u64, MembershipEvent)] {
        &self.log
    }
}

/// Utilization-threshold autoscaler driven by [`JobStats`]: the measured
/// signal is local-mult tasks per slot (how many waves of the compute
/// phase the grid ran). Above one wave the job was parallelism-starved —
/// recommend growing; below a quarter wave the grid idled — recommend
/// shrinking; one node at a time either way.
#[derive(Debug, Clone, Copy)]
pub struct ElasticPolicy {
    /// Never shrink below this node count.
    pub min_nodes: usize,
    /// Never grow beyond this node count.
    pub max_nodes: usize,
}

impl ElasticPolicy {
    /// The band between `min_nodes` and `max_nodes`.
    pub fn default_band(min_nodes: usize, max_nodes: usize) -> Self {
        ElasticPolicy {
            min_nodes,
            max_nodes,
        }
    }

    /// Recommends a new node count from the previous job's stats, or
    /// `None` when utilization sits inside the band (or the bound is
    /// already reached).
    pub fn recommend(
        &self,
        stats: &JobStats,
        nodes: usize,
        tasks_per_node: usize,
    ) -> Option<usize> {
        let mult_tasks = stats.phase(Phase::LocalMult).tasks;
        self.step_for(mult_tasks, nodes, tasks_per_node, true)
    }

    /// Recommends a new node count from the scheduler's *live* load — the
    /// multi-tenant replacement for [`Self::recommend`]. The last job's
    /// stats only see one tenant's work: two tenants each running half a
    /// wave look idle per job while the shared pool is saturated. The
    /// pressure signal here is every runnable task across all concurrent
    /// jobs — granted leases plus still-pending gang tasks — per slot, so
    /// bursty multi-tenant load triggers the grow a single-job view would
    /// miss. Queued-for-admission jobs pin the recommendation at (at
    /// least) the current size: memory pressure is relieved by jobs
    /// finishing, not by shrinking the grid under them.
    pub fn recommend_from_load(
        &self,
        load: &crate::scheduler::SchedulerLoad,
        nodes: usize,
        tasks_per_node: usize,
    ) -> Option<usize> {
        let runnable = load.held_slots + load.pending_tasks;
        self.step_for(runnable, nodes, tasks_per_node, load.queued_jobs == 0)
    }

    /// The band: one node up when `tasks` per slot exceed one wave, one
    /// node down when they fall below a quarter wave and `may_shrink`,
    /// clamped to `[min_nodes, max_nodes]`; `None` when that leaves `nodes`
    /// where it is.
    fn step_for(
        &self,
        tasks: usize,
        nodes: usize,
        tasks_per_node: usize,
        may_shrink: bool,
    ) -> Option<usize> {
        const GROW_ABOVE_TASKS_PER_SLOT: f64 = 1.0;
        const SHRINK_BELOW_TASKS_PER_SLOT: f64 = 0.25;
        const STEP: usize = 1;
        let per_slot = tasks as f64 / (nodes * tasks_per_node).max(1) as f64;
        let target = if per_slot > GROW_ABOVE_TASKS_PER_SLOT {
            (nodes + STEP).min(self.max_nodes)
        } else if per_slot < SHRINK_BELOW_TASKS_PER_SLOT && may_shrink {
            nodes.saturating_sub(STEP).max(self.min_nodes.max(1))
        } else {
            nodes
        };
        (target != nodes).then_some(target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_bump_on_every_change() {
        let mut m = Membership::default();
        assert_eq!(m.epoch(), 0);
        assert!(m.log().is_empty());
        let grow = MembershipEvent::ScaleTo { from: 4, to: 9 };
        let loss = MembershipEvent::Decommission { node: 2 };
        assert_eq!(m.record(grow), 1);
        assert_eq!(m.record(loss), 2);
        assert_eq!(m.epoch(), 2);
        assert_eq!(m.log(), &[(1, grow), (2, loss)]);
    }

    fn stats_with_mult_tasks(tasks: usize) -> JobStats {
        let mut s = JobStats::default();
        s.phase_mut(Phase::LocalMult).tasks = tasks;
        s
    }

    #[test]
    fn policy_grows_when_starved_and_shrinks_when_idle() {
        let p = ElasticPolicy::default_band(2, 9);
        // 4 nodes × 2 slots = 8 slots. 24 tasks = 3 waves → grow.
        assert_eq!(p.recommend(&stats_with_mult_tasks(24), 4, 2), Some(5));
        // 1 task over 8 slots → shrink.
        assert_eq!(p.recommend(&stats_with_mult_tasks(1), 4, 2), Some(3));
        // 6 tasks = 0.75 waves → inside the band.
        assert_eq!(p.recommend(&stats_with_mult_tasks(6), 4, 2), None);
    }

    #[test]
    fn policy_respects_bounds() {
        let p = ElasticPolicy::default_band(3, 4);
        assert_eq!(p.recommend(&stats_with_mult_tasks(100), 4, 2), None);
        assert_eq!(p.recommend(&stats_with_mult_tasks(0), 3, 2), None);
        assert_eq!(p.recommend(&stats_with_mult_tasks(100), 3, 2), Some(4));
    }

    fn load(held: usize, pending: usize, queued: usize) -> crate::scheduler::SchedulerLoad {
        crate::scheduler::SchedulerLoad {
            queued_jobs: queued,
            admitted_jobs: if held + pending > 0 { 2 } else { 0 },
            pending_tasks: pending,
            held_slots: held,
            waiting_workers: 0,
            total_slots: 8,
            admitted_mem_bytes: 0,
        }
    }

    #[test]
    fn bursty_two_tenant_load_grows_where_single_job_stats_would_not() {
        let p = ElasticPolicy::default_band(2, 9);
        // Two tenants each ran 6 local-mult tasks on 4×2 slots: per job
        // that is 0.75 waves — inside the band, no resize.
        assert_eq!(p.recommend(&stats_with_mult_tasks(6), 4, 2), None);
        // But live, the shared pool sees both at once: 8 slots held and 4
        // more tasks pending = 1.5 waves → grow. This is the signal the
        // old single-job view structurally cannot observe.
        assert_eq!(p.recommend_from_load(&load(8, 4, 0), 4, 2), Some(5));
    }

    #[test]
    fn load_policy_shrinks_only_when_idle_and_nothing_is_queued() {
        let p = ElasticPolicy::default_band(2, 9);
        // 1 runnable task on 8 slots → shrink.
        assert_eq!(p.recommend_from_load(&load(1, 0, 0), 4, 2), Some(3));
        // Same utilization but a job is queued for admission: hold size.
        assert_eq!(p.recommend_from_load(&load(1, 0, 1), 4, 2), None);
        // In-band load → no change.
        assert_eq!(p.recommend_from_load(&load(4, 0, 0), 4, 2), None);
    }

    #[test]
    fn load_policy_respects_bounds() {
        let p = ElasticPolicy::default_band(3, 4);
        assert_eq!(p.recommend_from_load(&load(16, 16, 0), 4, 2), None);
        assert_eq!(p.recommend_from_load(&load(0, 0, 0), 3, 2), None);
        assert_eq!(p.recommend_from_load(&load(16, 16, 0), 3, 2), Some(4));
    }
}

//! Shuffle byte accounting.
//!
//! Both executors record every block movement here; the benchmark figures'
//! "amount of transferred data" series read these counters.

use crate::stats::{Phase, TenantId};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

/// Thread-safe per-phase shuffle/broadcast byte counters, kept per tenant:
/// every record lands in exactly one tenant's counters
/// ([`TenantId::ANONYMOUS`] for untagged records), and the cluster totals
/// are their sum, so per-tenant snapshots sum to the totals by
/// construction.
#[derive(Debug, Default)]
pub struct ShuffleLedger {
    /// Model-byte charges are driver-side, once per phase of a job; only a
    /// resize's migration units record from workers, once per move.
    tenants: Mutex<BTreeMap<TenantId, LedgerSnapshot>>,
}

impl ShuffleLedger {
    /// Creates a zeroed ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one block shuffled from `from_node` to `to_node` during
    /// `phase`. Same-node movements count as shuffled (Spark still
    /// serializes them through the shuffle files) but not as cross-node.
    /// Charged to [`TenantId::ANONYMOUS`].
    pub fn record_shuffle(&self, phase: Phase, from_node: usize, to_node: usize, bytes: u64) {
        let cross = if from_node != to_node { bytes } else { 0 };
        self.record_phase_for(TenantId::ANONYMOUS, phase, bytes, cross, 0);
    }

    /// Charges `tenant` with a whole phase of a job at once: the phase's
    /// shuffled bytes, the subset of them that crossed a node boundary,
    /// and its broadcast bytes. The real executor books a plan's stored
    /// per-phase totals through here, one call per phase.
    pub fn record_phase_for(
        &self,
        tenant: TenantId,
        phase: Phase,
        shuffle_bytes: u64,
        cross_node_bytes: u64,
        broadcast_bytes: u64,
    ) {
        let i = phase.index();
        let mut charge = LedgerSnapshot::default();
        charge.shuffle[i] = shuffle_bytes;
        charge.cross_node[i] = cross_node_bytes;
        charge.broadcast[i] = broadcast_bytes;
        let mut tenants = self.lock();
        let t = tenants.entry(tenant).or_default();
        *t = t.plus(&charge);
    }

    /// Total shuffled bytes in `phase`.
    pub fn shuffle_bytes(&self, phase: Phase) -> u64 {
        self.snapshot().shuffle_bytes(phase)
    }

    /// Cross-node shuffled bytes in `phase`.
    pub fn cross_node_bytes(&self, phase: Phase) -> u64 {
        self.snapshot().cross_node_bytes(phase)
    }

    /// Broadcast bytes in `phase`.
    pub fn broadcast_bytes(&self, phase: Phase) -> u64 {
        self.snapshot().broadcast_bytes(phase)
    }

    /// Every tenant that has been charged at least once, in id order.
    pub fn tenants(&self) -> Vec<TenantId> {
        self.lock().keys().copied().collect()
    }

    /// Captures `tenant`'s counters (all zero for an uncharged tenant).
    /// Summing every tenant's snapshot — [`TenantId::ANONYMOUS`]
    /// included — reproduces [`snapshot`](Self::snapshot) exactly: a byte
    /// is attributed to one tenant or none, never two.
    pub fn tenant_snapshot(&self, tenant: TenantId) -> LedgerSnapshot {
        self.lock().get(&tenant).copied().unwrap_or_default()
    }

    /// Captures the current cluster totals: every tenant's counters,
    /// summed. Jobs take a snapshot on entry and report
    /// [`since`](Self::since) deltas, so one ledger can accumulate
    /// session-level totals across many jobs without resets.
    pub fn snapshot(&self) -> LedgerSnapshot {
        self.lock()
            .values()
            .fold(LedgerSnapshot::default(), |acc, t| acc.plus(t))
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<TenantId, LedgerSnapshot>> {
        self.tenants.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The bytes recorded since `earlier` was taken.
    pub fn since(&self, earlier: &LedgerSnapshot) -> LedgerSnapshot {
        self.snapshot().minus(earlier)
    }
}

/// A point-in-time copy of a [`ShuffleLedger`]'s counters, also used as a
/// delta between two points in time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerSnapshot {
    shuffle: [u64; Phase::COUNT],
    cross_node: [u64; Phase::COUNT],
    broadcast: [u64; Phase::COUNT],
}

impl LedgerSnapshot {
    /// Element-wise saturating difference `self − earlier` (the delta
    /// between two captures of the same counters).
    pub fn minus(&self, earlier: &LedgerSnapshot) -> LedgerSnapshot {
        let mut d = LedgerSnapshot::default();
        for i in 0..Phase::COUNT {
            d.shuffle[i] = self.shuffle[i].saturating_sub(earlier.shuffle[i]);
            d.cross_node[i] = self.cross_node[i].saturating_sub(earlier.cross_node[i]);
            d.broadcast[i] = self.broadcast[i].saturating_sub(earlier.broadcast[i]);
        }
        d
    }

    /// Element-wise saturating sum (accumulating per-tenant deltas).
    pub fn plus(&self, other: &LedgerSnapshot) -> LedgerSnapshot {
        let mut s = LedgerSnapshot::default();
        for i in 0..Phase::COUNT {
            s.shuffle[i] = self.shuffle[i].saturating_add(other.shuffle[i]);
            s.cross_node[i] = self.cross_node[i].saturating_add(other.cross_node[i]);
            s.broadcast[i] = self.broadcast[i].saturating_add(other.broadcast[i]);
        }
        s
    }

    /// Shuffled bytes in `phase` at (or between) the capture point(s).
    pub fn shuffle_bytes(&self, phase: Phase) -> u64 {
        self.shuffle[phase.index()]
    }

    /// Cross-node bytes in `phase`.
    pub fn cross_node_bytes(&self, phase: Phase) -> u64 {
        self.cross_node[phase.index()]
    }

    /// Broadcast bytes in `phase`.
    pub fn broadcast_bytes(&self, phase: Phase) -> u64 {
        self.broadcast[phase.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_split_by_phase_and_locality() {
        let l = ShuffleLedger::new();
        l.record_shuffle(Phase::Repartition, 0, 1, 100);
        l.record_shuffle(Phase::Repartition, 2, 2, 50);
        l.record_shuffle(Phase::Aggregation, 1, 0, 30);
        assert_eq!(l.shuffle_bytes(Phase::Repartition), 150);
        assert_eq!(l.cross_node_bytes(Phase::Repartition), 100);
        assert_eq!(l.shuffle_bytes(Phase::Aggregation), 30);
        assert_eq!(l.shuffle_bytes(Phase::LocalMult), 0);
    }

    #[test]
    fn a_phase_charge_lands_in_all_three_counters() {
        let l = ShuffleLedger::new();
        l.record_phase_for(TenantId(3), Phase::Repartition, 150, 100, 9000);
        assert_eq!(l.shuffle_bytes(Phase::Repartition), 150);
        assert_eq!(l.cross_node_bytes(Phase::Repartition), 100);
        assert_eq!(l.broadcast_bytes(Phase::Repartition), 9000);
        assert_eq!(l.tenant_snapshot(TenantId(3)), l.snapshot());
    }

    #[test]
    fn snapshot_deltas_isolate_one_job() {
        let l = ShuffleLedger::new();
        l.record_phase_for(TenantId::ANONYMOUS, Phase::Repartition, 100, 100, 40);
        let mark = l.snapshot();
        l.record_shuffle(Phase::Repartition, 0, 1, 25);
        l.record_shuffle(Phase::Aggregation, 1, 1, 7);
        l.record_phase_for(TenantId::ANONYMOUS, Phase::Repartition, 0, 0, 20);
        let d = l.since(&mark);
        assert_eq!(d.shuffle_bytes(Phase::Repartition), 25);
        assert_eq!(d.cross_node_bytes(Phase::Repartition), 25);
        assert_eq!(d.shuffle_bytes(Phase::Aggregation), 7);
        assert_eq!(d.cross_node_bytes(Phase::Aggregation), 0);
        assert_eq!(d.broadcast_bytes(Phase::Repartition), 20);
        // Cumulative counters survive: nothing was reset.
        assert_eq!(l.shuffle_bytes(Phase::Repartition), 125);
        assert_eq!(l.broadcast_bytes(Phase::Repartition), 60);
    }

    #[test]
    fn tenant_attribution_sums_to_the_cluster_totals() {
        let l = ShuffleLedger::new();
        l.record_phase_for(TenantId(1), Phase::Repartition, 100, 100, 40);
        l.record_phase_for(TenantId(2), Phase::Repartition, 40, 0, 0);
        l.record_shuffle(Phase::Aggregation, 0, 2, 9); // anonymous
        let total = l.snapshot();
        let summed = l
            .tenants()
            .iter()
            .fold(LedgerSnapshot::default(), |acc, &t| {
                acc.plus(&l.tenant_snapshot(t))
            });
        assert_eq!(summed, total, "per-tenant snapshots must sum to totals");
        let t1 = l.tenant_snapshot(TenantId(1));
        assert_eq!(t1.shuffle_bytes(Phase::Repartition), 100);
        assert_eq!(t1.cross_node_bytes(Phase::Repartition), 100);
        assert_eq!(t1.broadcast_bytes(Phase::Repartition), 40);
        let t2 = l.tenant_snapshot(TenantId(2));
        assert_eq!(t2.shuffle_bytes(Phase::Repartition), 40);
        assert_eq!(t2.cross_node_bytes(Phase::Repartition), 0);
        assert_eq!(
            l.tenant_snapshot(TenantId::ANONYMOUS)
                .shuffle_bytes(Phase::Aggregation),
            9
        );
        // Uncharged tenants read zero.
        assert_eq!(l.tenant_snapshot(TenantId(9)), LedgerSnapshot::default());
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        use std::sync::Arc;
        let l = Arc::new(ShuffleLedger::new());
        let mut handles = Vec::new();
        for t in 0..8 {
            let l = Arc::clone(&l);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    l.record_shuffle(Phase::Repartition, t % 2, (t + 1) % 2, 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(l.shuffle_bytes(Phase::Repartition), 8000);
        assert_eq!(l.cross_node_bytes(Phase::Repartition), 8000);
    }
}

//! Per-phase job statistics.
//!
//! The paper breaks distributed matrix multiplication into three steps —
//! matrix repartition, local multiplication, matrix aggregation (§2.2) —
//! and reports per-step elapsed-time ratios (Fig. 7(e)) and communication
//! volumes (Figs. 6(d–f), 7(f)). [`JobStats`] carries exactly those
//! measurements, filled in by either executor.

/// Identity of the tenant a job was submitted on behalf of: its stages'
/// scheduler leases and its [`JobStats`] are attributed to exactly one
/// tenant. Work that belongs to no tenant (a solo session's jobs,
/// rebalances) runs as [`TenantId::ANONYMOUS`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The implicit tenant of untagged work (id 0).
    pub const ANONYMOUS: TenantId = TenantId(0);
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// The three steps of distributed matrix multiplication, plus the
/// between-jobs block migration traffic an elastic resize generates.
/// Ordered as executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Step 1: repartition/broadcast inputs to tasks.
    Repartition,
    /// Step 2: multiply blocks within each task.
    LocalMult,
    /// Step 3: shuffle and reduce intermediate output blocks.
    Aggregation,
    /// Block migration after a membership change (`cluster::rebalance`):
    /// resident blocks re-homed onto the new grid. Not part of any job's
    /// plan, so both executors report zero plan communication here.
    Rebalance,
}

impl Phase {
    /// Number of phases — the one source of truth for per-phase array
    /// lengths, so adding a stage kind cannot silently corrupt counters.
    pub const COUNT: usize = 4;

    /// All phases, in execution order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Repartition,
        Phase::LocalMult,
        Phase::Aggregation,
        Phase::Rebalance,
    ];

    /// Index into per-phase arrays.
    pub fn index(self) -> usize {
        match self {
            Phase::Repartition => 0,
            Phase::LocalMult => 1,
            Phase::Aggregation => 2,
            Phase::Rebalance => 3,
        }
    }

    /// Human-readable label used by the harness output.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Repartition => "matrix repartition",
            Phase::LocalMult => "local multiplication",
            Phase::Aggregation => "matrix aggregation",
            Phase::Rebalance => "block rebalance",
        }
    }
}

/// Measurements of one phase.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseStats {
    /// Elapsed (virtual or wall) seconds.
    pub secs: f64,
    /// Bytes moved through the shuffle in this phase (all copies counted,
    /// matching the paper's "amount of transferred data").
    pub shuffle_bytes: u64,
    /// The subset of `shuffle_bytes` that crossed a node boundary.
    pub cross_node_bytes: u64,
    /// Bytes moved by broadcast (node-level copies).
    pub broadcast_bytes: u64,
    /// Tasks executed in this phase.
    pub tasks: usize,
}

impl PhaseStats {
    /// Merges another phase's measurements into this one (used when a query
    /// runs several jobs).
    pub fn merge(&mut self, other: &PhaseStats) {
        self.secs += other.secs;
        self.shuffle_bytes += other.shuffle_bytes;
        self.cross_node_bytes += other.cross_node_bytes;
        self.broadcast_bytes += other.broadcast_bytes;
        self.tasks += other.tasks;
    }
}

/// Measurements of a whole job (or accumulated query).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct JobStats {
    /// Per-phase measurements, indexed by [`Phase::index`].
    pub phases: [PhaseStats; Phase::COUNT],
    /// End-to-end elapsed seconds (≥ sum of phase times; includes stage
    /// overheads).
    pub elapsed_secs: f64,
    /// Largest task working set observed, bytes.
    pub peak_task_mem_bytes: u64,
    /// Intermediate (shuffle) data written to disk, bytes — the E.D.C.
    /// metric.
    pub intermediate_bytes: u64,
    /// Kernel-engine utilization of the GPUs during local multiplication,
    /// `0..=1`, when GPUs were used (Fig. 7(g)).
    pub gpu_utilization: Option<f64>,
    /// Physically encoded transport payload bytes (real executor only; the
    /// simulator has no physical blocks and leaves this 0). Differs from
    /// the per-phase model bytes: sparse blocks encode smaller than
    /// their dense estimate; implicit-zero and elided moves carry nothing.
    pub transport_payload_bytes: u64,
    /// Planned moves whose destination node already held the block.
    pub elided_moves: u64,
    /// Encoded bytes of the blocks elided moves found resident.
    pub elided_payload_bytes: u64,
    /// Task attempts re-executed after a transient failure (real executor
    /// under fault injection; 0 on a fault-free run).
    pub retries: u64,
    /// Transport deliveries repeated after a drop or checksum failure
    /// (lineage re-delivery from the producer's store).
    pub redelivered_moves: u64,
    /// Physical payload bytes of every transmission that installed
    /// nothing (a drop or a checksum failure). Kept apart from both the
    /// per-phase model bytes and `transport_payload_bytes` so fault-free
    /// byte accounting stays bit-identical under injected faults.
    pub retransmitted_payload_bytes: u64,
    /// Block moves executed by elastic rebalancing (membership changes),
    /// outside any job plan.
    pub rebalanced_moves: u64,
    /// Physical payload bytes of rebalance moves. Kept apart from
    /// `transport_payload_bytes` so per-job payload accounting is
    /// unaffected by resizes between jobs.
    pub rebalanced_payload_bytes: u64,
    /// Parity blocks materialized by coded replication
    /// (`cluster::coding`) — at operand/result ingest and at the re-encode
    /// after a membership change.
    pub parity_blocks_encoded: u64,
    /// Blocks rebuilt by a k-of-n parity decode instead of lineage
    /// redelivery or a typed loss — in the transport's recovery path and
    /// in `decommission_node`.
    pub reconstructed_blocks: u64,
    /// Physical frame bytes of reconstructed blocks. Kept apart from
    /// `retransmitted_payload_bytes`: a decode reads survivors locally,
    /// so these bytes are exactly the retransmissions coding avoided.
    pub reconstruction_payload_bytes: u64,
    /// Share of communication time spent off the mult tasks' own threads,
    /// `0..=1`: `1 − pull_secs / comm_secs`, where `pull_secs` is mult
    /// tasks pulling their k-panels and the rest is pre-move and
    /// aggregation traffic running as tasks of its own beside other
    /// tasks' compute. `None` when nothing was communicated, and from the
    /// simulator's copy-then-compute model.
    pub overlap_ratio: Option<f64>,
    /// Always 0: a mult task pulls every panel itself, so none has landed
    /// before its loop reaches it. Kept because the benchmark reads it.
    pub prefetch_hits: u64,
    /// k-panels pulled by mult tasks' loops (re-pulls by retried attempts
    /// included).
    pub prefetch_stalls: u64,
}

impl JobStats {
    /// Phase accessor.
    pub fn phase(&self, p: Phase) -> &PhaseStats {
        &self.phases[p.index()]
    }

    /// Mutable phase accessor.
    pub fn phase_mut(&mut self, p: Phase) -> &mut PhaseStats {
        &mut self.phases[p.index()]
    }

    /// Total bytes shuffled over all phases — the paper's "communication
    /// cost (i.e., amount of transferred data in the matrix repartition and
    /// aggregation steps)".
    pub fn total_shuffle_bytes(&self) -> u64 {
        self.phases.iter().map(|p| p.shuffle_bytes).sum()
    }

    /// Total broadcast bytes.
    pub fn total_broadcast_bytes(&self) -> u64 {
        self.phases.iter().map(|p| p.broadcast_bytes).sum()
    }

    /// Communication cost: shuffle + broadcast bytes.
    pub fn communication_bytes(&self) -> u64 {
        self.total_shuffle_bytes() + self.total_broadcast_bytes()
    }

    /// Per-phase shares of the summed phase time — Fig. 7(e)'s "time ratio
    /// of three steps". Returns zeros when no time was recorded.
    pub fn time_ratios(&self) -> [f64; Phase::COUNT] {
        let total: f64 = self.phases.iter().map(|p| p.secs).sum();
        if total <= 0.0 {
            return [0.0; Phase::COUNT];
        }
        std::array::from_fn(|i| self.phases[i].secs / total)
    }

    /// Merges another job's stats (for multi-operation queries like GNMF).
    /// The two ratios merge as means weighted by `elapsed_secs`, so an
    /// accumulated value is the time-weighted mean of its jobs' whatever
    /// order they were merged in (a plain mean where no time was recorded).
    pub fn merge(&mut self, other: &JobStats) {
        let (mine, theirs) = (self.elapsed_secs, other.elapsed_secs);
        let weighted = |a: Option<f64>, b: Option<f64>| match (a, b) {
            (Some(a), Some(b)) if mine + theirs > 0.0 => {
                Some((a * mine + b * theirs) / (mine + theirs))
            }
            (Some(a), Some(b)) => Some((a + b) / 2.0),
            (a, b) => a.or(b),
        };
        self.gpu_utilization = weighted(self.gpu_utilization, other.gpu_utilization);
        self.overlap_ratio = weighted(self.overlap_ratio, other.overlap_ratio);
        for (a, b) in self.phases.iter_mut().zip(other.phases.iter()) {
            a.merge(b);
        }
        self.elapsed_secs += other.elapsed_secs;
        self.peak_task_mem_bytes = self.peak_task_mem_bytes.max(other.peak_task_mem_bytes);
        self.intermediate_bytes += other.intermediate_bytes;
        self.transport_payload_bytes += other.transport_payload_bytes;
        self.elided_moves += other.elided_moves;
        self.elided_payload_bytes += other.elided_payload_bytes;
        self.retries += other.retries;
        self.redelivered_moves += other.redelivered_moves;
        self.retransmitted_payload_bytes += other.retransmitted_payload_bytes;
        self.rebalanced_moves += other.rebalanced_moves;
        self.rebalanced_payload_bytes += other.rebalanced_payload_bytes;
        self.parity_blocks_encoded += other.parity_blocks_encoded;
        self.reconstructed_blocks += other.reconstructed_blocks;
        self.reconstruction_payload_bytes += other.reconstruction_payload_bytes;
        self.prefetch_hits += other.prefetch_hits;
        self.prefetch_stalls += other.prefetch_stalls;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobStats {
        let mut s = JobStats::default();
        s.phase_mut(Phase::Repartition).secs = 1.0;
        s.phase_mut(Phase::Repartition).shuffle_bytes = 100;
        s.phase_mut(Phase::Repartition).cross_node_bytes = 80;
        s.phase_mut(Phase::LocalMult).secs = 8.0;
        s.phase_mut(Phase::Aggregation).secs = 1.0;
        s.phase_mut(Phase::Aggregation).shuffle_bytes = 50;
        s.elapsed_secs = 10.5;
        s.peak_task_mem_bytes = 1000;
        s.intermediate_bytes = 150;
        s
    }

    #[test]
    fn totals_and_ratios() {
        let s = sample();
        assert_eq!(s.total_shuffle_bytes(), 150);
        assert_eq!(s.communication_bytes(), 150);
        let r = s.time_ratios();
        assert!((r[0] - 0.1).abs() < 1e-12);
        assert!((r[1] - 0.8).abs() < 1e-12);
        assert!((r[2] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn empty_ratios_are_zero() {
        assert_eq!(JobStats::default().time_ratios(), [0.0; Phase::COUNT]);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = sample();
        let mut b = sample();
        b.retries = 2;
        b.redelivered_moves = 3;
        b.retransmitted_payload_bytes = 40;
        a.merge(&b);
        assert_eq!(a.total_shuffle_bytes(), 300);
        assert_eq!(a.elapsed_secs, 21.0);
        assert_eq!(a.peak_task_mem_bytes, 1000);
        assert_eq!(a.intermediate_bytes, 300);
        assert_eq!(a.phase(Phase::LocalMult).secs, 16.0);
        a.merge(&b);
        assert_eq!(a.retries, 4);
        assert_eq!(a.redelivered_moves, 6);
        assert_eq!(a.retransmitted_payload_bytes, 80);
    }

    #[test]
    fn rebalance_counters_merge() {
        let mut a = JobStats::default();
        let b = JobStats {
            rebalanced_moves: 5,
            rebalanced_payload_bytes: 640,
            ..Default::default()
        };
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.rebalanced_moves, 10);
        assert_eq!(a.rebalanced_payload_bytes, 1280);
    }

    #[test]
    fn coding_counters_merge() {
        let mut a = JobStats::default();
        let b = JobStats {
            parity_blocks_encoded: 3,
            reconstructed_blocks: 2,
            reconstruction_payload_bytes: 512,
            ..Default::default()
        };
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.parity_blocks_encoded, 6);
        assert_eq!(a.reconstructed_blocks, 4);
        assert_eq!(a.reconstruction_payload_bytes, 1024);
    }

    #[test]
    fn rebalance_phase_is_indexed_and_labeled() {
        assert_eq!(Phase::Rebalance.index(), Phase::COUNT - 1);
        assert_eq!(Phase::Rebalance.label(), "block rebalance");
        let mut s = JobStats::default();
        s.phase_mut(Phase::Rebalance).shuffle_bytes = 7;
        assert_eq!(s.phase(Phase::Rebalance).shuffle_bytes, 7);
        assert_eq!(s.total_shuffle_bytes(), 7);
    }

    #[test]
    fn phase_indexing_is_consistent() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        assert_eq!(Phase::LocalMult.label(), "local multiplication");
    }

    #[test]
    fn gpu_utilization_merge() {
        let mut a = JobStats {
            gpu_utilization: Some(0.8),
            ..Default::default()
        };
        let b = JobStats {
            gpu_utilization: Some(0.4),
            ..Default::default()
        };
        a.merge(&b);
        assert!((a.gpu_utilization.unwrap() - 0.6).abs() < 1e-12);
        let mut c = JobStats::default();
        c.merge(&b);
        assert_eq!(c.gpu_utilization, Some(0.4));
    }

    #[test]
    fn merged_ratios_are_time_weighted_means_in_either_association() {
        let job = |ratio: f64, secs: f64| JobStats {
            gpu_utilization: Some(ratio),
            overlap_ratio: Some(ratio),
            elapsed_secs: secs,
            ..Default::default()
        };
        let jobs = [job(0.9, 1.0), job(0.5, 2.0), job(0.1, 5.0)];
        let expect = (0.9 * 1.0 + 0.5 * 2.0 + 0.1 * 5.0) / 8.0;
        // ((a + b) + c) — how a session accumulates.
        let mut left = jobs[0];
        left.merge(&jobs[1]);
        left.merge(&jobs[2]);
        // (a + (b + c))
        let mut tail = jobs[1];
        tail.merge(&jobs[2]);
        let mut right = jobs[0];
        right.merge(&tail);
        for merged in [left, right] {
            assert!((merged.gpu_utilization.unwrap() - expect).abs() < 1e-12);
            assert!((merged.overlap_ratio.unwrap() - expect).abs() < 1e-12);
        }
        // Equal-length jobs: the plain mean of all three, not the last
        // weighted one half.
        let mut equal = job(0.9, 1.0);
        equal.merge(&job(0.5, 1.0));
        equal.merge(&job(0.1, 1.0));
        assert!((equal.overlap_ratio.unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn overlap_counters_merge() {
        let mut a = JobStats {
            overlap_ratio: Some(0.9),
            prefetch_hits: 4,
            prefetch_stalls: 1,
            ..Default::default()
        };
        let b = JobStats {
            overlap_ratio: Some(0.5),
            prefetch_hits: 6,
            prefetch_stalls: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert!((a.overlap_ratio.unwrap() - 0.7).abs() < 1e-12);
        assert_eq!(a.prefetch_hits, 10);
        assert_eq!(a.prefetch_stalls, 4);
        let mut c = JobStats::default();
        c.merge(&b);
        assert_eq!(c.overlap_ratio, Some(0.5));
    }
}

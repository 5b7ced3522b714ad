//! Cluster topology and calibration.
//!
//! All absolute-time results of the simulated experiments derive from these
//! constants. They are calibrated to the paper's testbed (§6.1):
//!
//! > "one master node and nine slave nodes ... connected via 10 Gbps
//! > Ethernet. Each node is equipped with a six-core 3.5 GHz CPU, 64 GB main
//! > memory, 500 GB SSD for Spark, 4 TB HDD for HDFS, and a single NVIDIA
//! > GTX 1080 Ti GPU having 11 GB device memory. ... We set the number of
//! > tasks per node to 10 (Tc = 10), and so, set θt = 6 GB and θg = 1 GB."
//!
//! Changing any constant rescales absolute seconds but preserves orderings
//! and crossovers (tested by `tests/shape_invariance.rs`).

use crate::coding::ReplicationPolicy;
use distme_gpu::GpuConfig;

/// Per-task retry policy for the real executor's fault recovery.
///
/// A failed task attempt (transient crash, lost or corrupt shuffle block)
/// is re-executed up to `max_attempts` times total; each re-attempt first
/// waits an exponential backoff that is charged to the job's *modeled*
/// time, never slept on the wall clock — faulted test runs stay fast and
/// deterministic. Spark's equivalent knob is `spark.task.maxFailures`
/// (default 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts a task gets before the job fails (≥ 1; 1 disables
    /// retry).
    pub max_attempts: u32,
    /// Modeled backoff before attempt `n + 1`, in seconds, scaled by
    /// `2^(n-1)`: attempt 2 waits `backoff_secs`, attempt 3 twice that, ...
    pub backoff_secs: f64,
}

impl RetryPolicy {
    /// One attempt, no recovery — the pre-fault-tolerance behavior.
    pub const fn no_retry() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff_secs: 0.0,
        }
    }

    /// Spark-like default: 4 total attempts, short modeled backoff.
    pub const fn spark_like() -> Self {
        RetryPolicy {
            max_attempts: 4,
            backoff_secs: 0.05,
        }
    }

    /// Modeled backoff charged after attempt index `failed` (0-based)
    /// fails, before the next one: `backoff_secs · 2^failed`.
    pub fn backoff_after(&self, failed: u32) -> f64 {
        self.backoff_secs * (1u64 << failed.min(62)) as f64
    }

    /// Panics on nonsensical values.
    pub fn assert_valid(&self) {
        assert!(self.max_attempts >= 1, "retry needs at least one attempt");
        assert!(
            self.backoff_secs >= 0.0 && self.backoff_secs.is_finite(),
            "backoff must be finite and non-negative"
        );
    }
}

/// Tuning of the shared job scheduler (`cluster::scheduler`): how many
/// jobs may sit in the submission queue, how much memory admitted jobs may
/// collectively pin, and how many priority levels submissions can use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfig {
    /// Maximum jobs queued awaiting admission. A submission beyond this
    /// depth is rejected with `JobError::QueueFull` (jobs queued for
    /// *memory* are never rejected — the depth bounds the queue itself).
    pub queue_depth: usize,
    /// Cluster memory budget for admission control, bytes: the sum of
    /// admitted jobs' declared θt demands may not exceed this. A job that
    /// would overshoot *queues* until earlier jobs release their
    /// admission — it is never rejected. (A job whose lone demand exceeds
    /// the whole budget is admitted when nothing else is running; the
    /// budget bounds *concurrent* residency.)
    pub admission_budget_bytes: u64,
    /// Number of distinct priority levels (`0` = lowest priority,
    /// `priority_levels − 1` = highest). Submissions outside the range are
    /// rejected at submit time.
    pub priority_levels: u8,
}

impl SchedulerConfig {
    /// Hard cap on `priority_levels` (per-level bookkeeping stays tiny).
    pub const MAX_PRIORITY_LEVELS: u8 = 16;

    /// Default scheduler for `nodes` nodes of `node_mem_bytes` each:
    /// admission budget = total cluster memory, a deep queue, four
    /// priority levels.
    pub const fn for_cluster(nodes: usize, node_mem_bytes: u64) -> Self {
        SchedulerConfig {
            queue_depth: 64,
            admission_budget_bytes: node_mem_bytes.saturating_mul(nodes as u64),
            priority_levels: 4,
        }
    }

    /// Panics on nonsensical values; each degenerate field names the knob.
    pub fn assert_valid(&self) {
        assert!(
            self.queue_depth > 0,
            "`queue_depth` must be at least 1 (got 0): a zero-depth queue \
             would reject every submission"
        );
        assert!(
            self.admission_budget_bytes > 0,
            "`admission_budget_bytes` must be positive (got 0): a zero \
             budget would queue every job forever"
        );
        assert!(
            self.priority_levels >= 1 && self.priority_levels <= Self::MAX_PRIORITY_LEVELS,
            "`priority_levels` must be in 1..={} (got {})",
            Self::MAX_PRIORITY_LEVELS,
            self.priority_levels
        );
    }
}

/// Static description of the (simulated or thread-backed) cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Number of worker nodes, `M` (paper: 9).
    pub nodes: usize,
    /// Concurrent task slots per node, `Tc` (paper: 10).
    pub tasks_per_node: usize,
    /// Per-task memory budget θt in bytes (paper: 6 GB = 64 GB/node with
    /// headroom, divided by Tc).
    pub task_mem_bytes: u64,
    /// Total node memory, bytes (paper: 64 GB). Broadcast variables are
    /// stored once per node and shared by its tasks, so BMM fails when |B|
    /// exceeds *node* memory — which is why Fig. 6(a)'s BMM survives
    /// N = 80K (|B| = 51 GB) and O.O.M.s at 90K (|B| = 65 GB).
    pub node_mem_bytes: u64,
    /// Per-node, per-direction NIC bandwidth in bytes/s
    /// (10 GbE = 1.25 GB/s).
    pub net_bytes_per_sec: f64,
    /// Local disk streaming rate in bytes/s (500 GB SATA SSD ≈ 500 MB/s) —
    /// used for HDFS reads, shuffle spills, and output writes.
    pub disk_bytes_per_sec: f64,
    /// Sustained f64 GEMM throughput of one node's CPU, FLOP/s. Six
    /// 3.5 GHz cores with AVX2 FMA sustain ~25 GFLOP/s/core in MKL;
    /// 160 GFLOP/s/node calibrates Fig. 7(a)'s DistME(C) times once the
    /// repartition/serde overheads the simulator charges are added back.
    pub node_cpu_flops_per_sec: f64,
    /// Per-task (per-slot) serialization/deserialization throughput,
    /// bytes/s — the SparkSQL codec cost DistME explicitly optimizes (§5).
    /// Ten concurrent tasks share six cores, so the per-slot rate is a
    /// fraction of the node's total codec throughput.
    pub serde_bytes_per_sec: f64,
    /// Shuffle wire-compression ratio (compressed/uncompressed), applied to
    /// network and disk *time* for shuffled and broadcast data. Spark
    /// compresses shuffle blocks with lz4 by default; the paper's synthetic
    /// matrices (uniformly-placed non-zeros with low-entropy values)
    /// compress by ~50x, which is how Fig. 6(d) reports single-digit GB for
    /// multi-hundred-GB logical replication volumes. Reported byte counts
    /// in `JobStats` stay *logical* (uncompressed).
    pub wire_compression_ratio: f64,
    /// Spark task-launch overhead, seconds per task.
    pub task_launch_secs: f64,
    /// Per-stage scheduling/driver overhead, seconds.
    pub stage_overhead_secs: f64,
    /// Serial driver-side cost of scheduling one task, seconds. Spark's
    /// single-threaded driver becomes the bottleneck for stages with
    /// hundreds of thousands of tasks — the effect behind "the setting of
    /// T = I·J·K for RMM incurs some errors due to too many tasks in
    /// Spark" (§6.2) and RMM's T.O. in Fig. 6(c).
    pub driver_secs_per_task: f64,
    /// Cluster-wide disk capacity available for intermediate (shuffle)
    /// data, bytes. Paper: "> 36 TB" triggers E.D.C.
    pub disk_capacity_bytes: u64,
    /// Job time-out, seconds. Paper: "T.O. means time out (longer than
    /// 4,000 seconds)" — Fig. 6. GNMF figures run past this, so it is
    /// per-job and can be raised.
    pub timeout_secs: f64,
    /// Scheduler limit on tasks per stage. "The setting of T = I·J·K for
    /// RMM incurs some errors due to too many tasks in Spark" (§6.2).
    pub max_tasks: usize,
    /// Per-node GPU, when the (G) variants are simulated.
    pub gpu: Option<GpuConfig>,
    /// GPUs per node (paper future work: "extend our GPU acceleration
    /// method to exploit multiple GPUs per node"). Tasks on a node are
    /// assigned to its devices round-robin.
    pub gpus_per_node: usize,
    /// Schedule each task onto the node whose slots free earliest instead
    /// of static round-robin (paper future work: "achieve a better load
    /// balancing by considering differences ... of cuboids"). Off by
    /// default to match Spark's locality-driven static placement.
    pub dynamic_scheduling: bool,
    /// Use Algorithm 1's streamed GPU schedule; `false` selects the naive
    /// copy-all-then-compute method of §4.3 (ablation).
    pub gpu_streaming: bool,
    /// Cap on one stage's workers, as a multiple of the host's available
    /// parallelism. They run on the caller and a pool sized once to twice
    /// that parallelism less one, so a larger factor adds no threads.
    pub host_worker_oversubscription: usize,
    /// Task retry/recovery policy for the real executor (the simulator
    /// never faults, so it ignores this).
    pub retry: RetryPolicy,
    /// Shared job-scheduler tuning: submission queue depth, admission
    /// memory budget, priority range.
    pub scheduler: SchedulerConfig,
    /// Coded-replication policy (`cluster::coding`): off by default so
    /// placement, wire frames, and model bytes stay byte-identical to the
    /// pre-coding engine; `Xor` materializes one parity block per group,
    /// which recovery decodes instead of replaying lineage.
    pub replication: ReplicationPolicy,
}

impl ClusterConfig {
    /// The paper's 9-node testbed, CPU-only (the "(C)" variants).
    pub fn paper_cluster() -> Self {
        ClusterConfig {
            nodes: 9,
            tasks_per_node: 10,
            task_mem_bytes: 6_000_000_000,
            node_mem_bytes: 64_000_000_000,
            net_bytes_per_sec: 1.25e9,
            disk_bytes_per_sec: 0.5e9,
            node_cpu_flops_per_sec: 160.0e9,
            serde_bytes_per_sec: 0.3e9,
            wire_compression_ratio: 0.02,
            task_launch_secs: 0.01,
            stage_overhead_secs: 0.5,
            driver_secs_per_task: 0.006,
            disk_capacity_bytes: 36_000_000_000_000,
            timeout_secs: 4_000.0,
            max_tasks: 1_000_000,
            gpu: None,
            gpus_per_node: 1,
            dynamic_scheduling: false,
            gpu_streaming: true,
            host_worker_oversubscription: 2,
            retry: RetryPolicy::spark_like(),
            scheduler: SchedulerConfig::for_cluster(9, 64_000_000_000),
            replication: ReplicationPolicy::Off,
        }
    }

    /// The paper's testbed with one GTX 1080 Ti per node (the "(G)"
    /// variants).
    pub fn paper_cluster_gpu() -> Self {
        ClusterConfig {
            gpu: Some(GpuConfig::gtx_1080_ti()),
            ..Self::paper_cluster()
        }
    }

    /// A small thread-backed cluster for laptop-scale real execution:
    /// 4 virtual nodes × 2 slots. `task_mem_bytes` is deliberately small so
    /// tests can provoke O.O.M. on matrices that fit in RAM.
    pub fn laptop() -> Self {
        ClusterConfig {
            nodes: 4,
            tasks_per_node: 2,
            task_mem_bytes: 256 << 20,
            node_mem_bytes: 1 << 30,
            net_bytes_per_sec: 1.0e9,
            disk_bytes_per_sec: 0.5e9,
            node_cpu_flops_per_sec: 10.0e9,
            serde_bytes_per_sec: 1.0e9,
            wire_compression_ratio: 1.0,
            task_launch_secs: 0.0,
            stage_overhead_secs: 0.0,
            driver_secs_per_task: 0.0,
            disk_capacity_bytes: 8 << 30,
            timeout_secs: 3600.0,
            max_tasks: 100_000,
            gpu: None,
            gpus_per_node: 1,
            dynamic_scheduling: false,
            gpu_streaming: true,
            host_worker_oversubscription: 2,
            retry: RetryPolicy::spark_like(),
            scheduler: SchedulerConfig::for_cluster(4, 1 << 30),
            replication: ReplicationPolicy::Off,
        }
    }

    /// Total concurrent task slots in the cluster: `M · Tc`.
    pub fn total_slots(&self) -> usize {
        self.nodes * self.tasks_per_node
    }

    /// Per-slot CPU throughput: node FLOP/s divided evenly among `Tc` slots.
    pub fn slot_flops_per_sec(&self) -> f64 {
        self.node_cpu_flops_per_sec / self.tasks_per_node as f64
    }

    /// Fraction of uniformly-shuffled bytes that cross a node boundary:
    /// `(M − 1) / M` under uniform task placement.
    pub fn cross_node_fraction(&self) -> f64 {
        (self.nodes as f64 - 1.0) / self.nodes as f64
    }

    /// Overrides the timeout (builder style); GNMF runs exceed the 4 000 s
    /// matmul budget legitimately.
    pub fn with_timeout(mut self, secs: f64) -> Self {
        self.timeout_secs = secs;
        self
    }

    /// Overrides the retry policy (builder style).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Overrides the coded-replication policy (builder style).
    pub fn with_replication(mut self, replication: ReplicationPolicy) -> Self {
        self.replication = replication;
        self
    }

    /// Panics on nonsensical values (configuration is programmer input).
    /// Each degenerate field gets its own message so the panic names the
    /// knob to fix.
    pub fn assert_valid(&self) {
        assert!(
            self.nodes > 0,
            "empty cluster: `nodes` must be at least 1 (got 0)"
        );
        assert!(
            self.tasks_per_node > 0,
            "empty cluster: `tasks_per_node` must be at least 1 (got 0)"
        );
        assert!(self.task_mem_bytes > 0, "zero task memory");
        assert!(
            self.node_mem_bytes >= self.task_mem_bytes,
            "node memory below task budget"
        );
        assert!(
            self.net_bytes_per_sec > 0.0
                && self.disk_bytes_per_sec > 0.0
                && self.node_cpu_flops_per_sec > 0.0
                && self.serde_bytes_per_sec > 0.0,
            "rates must be positive"
        );
        assert!(self.timeout_secs > 0.0 && self.max_tasks > 0);
        assert!(
            self.gpus_per_node > 0,
            "need at least one GPU slot per node"
        );
        assert!(
            self.host_worker_oversubscription > 0,
            "`host_worker_oversubscription` must be at least 1 (got 0): \
             a zero cap would leave the real executor with no worker threads"
        );
        assert!(
            self.wire_compression_ratio > 0.0 && self.wire_compression_ratio <= 1.0,
            "compression ratio must be in (0, 1]"
        );
        self.retry.assert_valid();
        self.scheduler.assert_valid();
        if let Some(gpu) = &self.gpu {
            gpu.assert_valid();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cluster_matches_section_6_1() {
        let c = ClusterConfig::paper_cluster();
        c.assert_valid();
        assert_eq!(c.nodes, 9);
        assert_eq!(c.tasks_per_node, 10);
        assert_eq!(c.total_slots(), 90);
        assert_eq!(c.task_mem_bytes, 6_000_000_000);
        assert_eq!(c.timeout_secs, 4_000.0);
        assert!(c.gpu.is_none());
        let g = ClusterConfig::paper_cluster_gpu();
        assert_eq!(g.gpu.unwrap().task_mem_bytes, 1_000_000_000);
    }

    #[test]
    fn derived_quantities() {
        let c = ClusterConfig::paper_cluster();
        assert!((c.slot_flops_per_sec() - 16.0e9).abs() < 1.0);
        assert!((c.cross_node_fraction() - 8.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn laptop_is_valid_and_small() {
        let c = ClusterConfig::laptop();
        c.assert_valid();
        assert!(c.total_slots() <= 16);
    }

    #[test]
    #[should_panic(expected = "`nodes` must be at least 1")]
    fn zero_nodes_rejected() {
        let mut c = ClusterConfig::laptop();
        c.nodes = 0;
        c.assert_valid();
    }

    #[test]
    #[should_panic(expected = "`tasks_per_node` must be at least 1")]
    fn zero_tasks_per_node_rejected() {
        let mut c = ClusterConfig::laptop();
        c.tasks_per_node = 0;
        c.assert_valid();
    }

    #[test]
    #[should_panic(expected = "`host_worker_oversubscription` must be at least 1")]
    fn zero_oversubscription_rejected() {
        let mut c = ClusterConfig::laptop();
        c.host_worker_oversubscription = 0;
        c.assert_valid();
    }

    #[test]
    fn retry_backoff_grows_exponentially() {
        let r = RetryPolicy {
            max_attempts: 4,
            backoff_secs: 0.1,
        };
        r.assert_valid();
        assert_eq!(r.backoff_after(0), 0.1);
        assert_eq!(r.backoff_after(1), 0.2);
        assert_eq!(r.backoff_after(2), 0.4);
        assert_eq!(RetryPolicy::no_retry().max_attempts, 1);
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn zero_attempts_rejected() {
        let mut c = ClusterConfig::laptop();
        c.retry.max_attempts = 0;
        c.assert_valid();
    }

    #[test]
    #[should_panic(expected = "`queue_depth` must be at least 1")]
    fn zero_queue_depth_rejected() {
        let mut c = ClusterConfig::laptop();
        c.scheduler.queue_depth = 0;
        c.assert_valid();
    }

    #[test]
    #[should_panic(expected = "`admission_budget_bytes` must be positive")]
    fn zero_admission_budget_rejected() {
        let mut c = ClusterConfig::laptop();
        c.scheduler.admission_budget_bytes = 0;
        c.assert_valid();
    }

    #[test]
    #[should_panic(expected = "`priority_levels` must be in 1..=16")]
    fn zero_priority_levels_rejected() {
        let mut c = ClusterConfig::laptop();
        c.scheduler.priority_levels = 0;
        c.assert_valid();
    }

    #[test]
    #[should_panic(expected = "`priority_levels` must be in 1..=16 (got 17)")]
    fn oversized_priority_levels_rejected() {
        let mut c = ClusterConfig::laptop();
        c.scheduler.priority_levels = 17;
        c.assert_valid();
    }

    #[test]
    fn replication_defaults_off_and_overrides_via_builder() {
        assert_eq!(ClusterConfig::laptop().replication, ReplicationPolicy::Off);
        assert_eq!(
            ClusterConfig::paper_cluster().replication,
            ReplicationPolicy::Off
        );
        let c = ClusterConfig::laptop().with_replication(ReplicationPolicy::Xor);
        assert_eq!(c.replication, ReplicationPolicy::Xor);
        c.assert_valid();
        assert_eq!(ReplicationPolicy::Off.parity_count(), 0);
        assert_eq!(ReplicationPolicy::Xor.parity_count(), 1);
    }

    #[test]
    fn default_scheduler_budget_covers_the_cluster() {
        let c = ClusterConfig::paper_cluster();
        assert_eq!(
            c.scheduler.admission_budget_bytes,
            c.node_mem_bytes * c.nodes as u64
        );
        assert_eq!(c.scheduler.priority_levels, 4);
    }
}

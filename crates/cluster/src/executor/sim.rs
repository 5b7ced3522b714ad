//! Virtual-time execution at paper scale.
//!
//! [`SimCluster`] replays a job's stage structure against resource models:
//! per-node NIC ingress ([`FifoServer`]), per-node disk, per-node task
//! slots ([`SlotPool`]), per-node simulated GPUs, and a cluster-wide disk
//! gauge for intermediate data. Nothing is materialized — tasks are
//! described by byte/FLOP summaries — so 100 000 × 100 000 matrices
//! simulate in milliseconds while producing the elapsed times,
//! communication volumes, and failure modes of Figs. 6–8 and Table 5.
//!
//! A stage is a single-threaded walk over its tasks in index order; slot
//! contention is modelled in virtual time by the [`SlotPool`]s, so the
//! simulator has no use for the real executor's scheduler.

use crate::config::ClusterConfig;
use crate::failure::JobError;
use distme_gpu::{work, GpuDevice, GpuWork};
use distme_sim::{FifoServer, Gauge, SimTime, SlotPool};

/// What a task computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ComputeWork {
    /// No local computation (pure data movement, e.g. the repartition map).
    None,
    /// CPU kernel work of `flops` floating-point operations, served at the
    /// slot's share of the node CPU.
    Cpu {
        /// FLOPs to execute.
        flops: f64,
    },
    /// GPU work, executed with Algorithm 1's streamed schedule on the
    /// node's shared device.
    Gpu(GpuWork),
}

/// Byte/FLOP summary of one simulated task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimTask {
    /// Bytes this task fetches from the shuffle (a `(M−1)/M` fraction
    /// crosses the network; the rest reads from local disk).
    pub shuffle_in_bytes: u64,
    /// Bytes read from local storage (HDFS input splits).
    pub local_read_bytes: u64,
    /// The task's computation.
    pub compute: ComputeWork,
    /// Bytes this task writes into the shuffle for the next stage.
    pub shuffle_out_bytes: u64,
    /// Bytes written to local storage (final HDFS output).
    pub local_write_bytes: u64,
    /// Peak working set, checked against θt.
    pub mem_bytes: u64,
}

impl SimTask {
    /// A task that only moves data.
    pub fn data_only(shuffle_in: u64, shuffle_out: u64, mem: u64) -> Self {
        SimTask {
            shuffle_in_bytes: shuffle_in,
            local_read_bytes: 0,
            compute: ComputeWork::None,
            shuffle_out_bytes: shuffle_out,
            local_write_bytes: 0,
            mem_bytes: mem,
        }
    }
}

/// Measurements of one simulated stage.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageOutcome {
    /// Virtual seconds from stage submission to last task completion.
    pub secs: f64,
    /// Total bytes read from the shuffle.
    pub shuffle_read_bytes: u64,
    /// The subset that crossed the network.
    pub cross_node_bytes: u64,
    /// Total bytes written into the shuffle.
    pub shuffle_write_bytes: u64,
    /// Broadcast bytes (one copy per node).
    pub broadcast_bytes: u64,
    /// Tasks executed.
    pub tasks: usize,
    /// Largest task working set.
    pub peak_task_mem_bytes: u64,
    /// GPU kernel-engine busy seconds accumulated during the stage.
    pub gpu_busy_secs: f64,
    /// GPU kernel-engine utilization over the stage window, if GPU work ran.
    pub gpu_utilization: Option<f64>,
}

/// The simulated cluster.
#[derive(Debug, Clone)]
pub struct SimCluster {
    cfg: ClusterConfig,
    /// Per-node NIC ingress servers.
    rx: Vec<FifoServer>,
    /// Per-node disk read channels (HDFS reads, local shuffle fetches).
    /// Reads and writes get separate channels: modern SSDs sustain
    /// concurrent read/write streams, and a shared FIFO would let one
    /// task's late write block another task's early read (a simulation
    /// artifact, not a real contention effect).
    disk: Vec<FifoServer>,
    /// Per-node disk write channels (shuffle spills, output writes).
    disk_w: Vec<FifoServer>,
    /// Per-node task slot pools.
    slots: Vec<SlotPool>,
    /// Per-node GPUs (empty when the config has none), laid out
    /// `node * gpus_per_node + device`.
    gpus: Vec<GpuDevice>,
    /// Per-node round-robin cursor over that node's devices.
    gpu_rr: Vec<usize>,
    /// Cluster-wide intermediate-data gauge (E.D.C. detection).
    intermediates: Gauge,
    clock: SimTime,
    job_epoch: SimTime,
    /// Membership epoch: bumps on every [`scale_to`](Self::scale_to) so
    /// plans built for an old grid are identifiably stale, mirroring the
    /// real executor.
    epoch: u64,
}

impl SimCluster {
    /// Builds a simulated cluster from a validated configuration.
    pub fn new(cfg: ClusterConfig) -> Self {
        cfg.assert_valid();
        let gpus = match cfg.gpu {
            Some(g) => (0..cfg.nodes * cfg.gpus_per_node)
                .map(|_| GpuDevice::new(g))
                .collect(),
            None => Vec::new(),
        };
        SimCluster {
            rx: (0..cfg.nodes)
                .map(|_| FifoServer::new(cfg.net_bytes_per_sec))
                .collect(),
            disk: (0..cfg.nodes)
                .map(|_| FifoServer::new(cfg.disk_bytes_per_sec))
                .collect(),
            disk_w: (0..cfg.nodes)
                .map(|_| FifoServer::new(cfg.disk_bytes_per_sec))
                .collect(),
            slots: (0..cfg.nodes)
                .map(|_| SlotPool::new(cfg.tasks_per_node))
                .collect(),
            gpus,
            gpu_rr: vec![0; cfg.nodes],
            intermediates: Gauge::new(cfg.disk_capacity_bytes),
            clock: SimTime::ZERO,
            job_epoch: SimTime::ZERO,
            epoch: 0,
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The membership epoch (0 until the first resize).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Resizes the simulated grid to `n` nodes: per-node resource models
    /// are rebuilt for the new node count (the simulator holds no physical
    /// blocks, so there is nothing to migrate), the virtual clock carries
    /// over, and the epoch bumps. A no-op at the current size.
    pub fn scale_to(&mut self, n: usize) {
        assert!(n > 0, "cannot scale to an empty cluster");
        if n == self.cfg.nodes {
            return;
        }
        let cfg = ClusterConfig {
            nodes: n,
            ..self.cfg
        };
        let clock = self.clock;
        let job_epoch = self.job_epoch;
        let epoch = self.epoch + 1;
        *self = SimCluster::new(cfg);
        self.clock = clock;
        self.job_epoch = job_epoch;
        self.epoch = epoch;
    }

    /// Virtual seconds since the current job started.
    pub fn job_elapsed_secs(&self) -> f64 {
        self.clock.since(self.job_epoch)
    }

    /// Current intermediate-data footprint (bytes on disk).
    pub fn intermediate_bytes(&self) -> u64 {
        self.intermediates.in_use()
    }

    /// Marks the start of a new job: resets the job clock epoch and frees
    /// intermediate shuffle data of the previous job.
    pub fn start_job(&mut self) {
        self.job_epoch = self.clock;
        let held = self.intermediates.in_use();
        self.intermediates.free(held);
    }

    /// Runs one stage of `tasks`, with an optional `broadcast_bytes` object
    /// distributed to every node first (BMM's torrent broadcast of B).
    ///
    /// # Errors
    /// * [`JobError::TooManyTasks`] past the scheduler limit;
    /// * [`JobError::OutOfMemory`] when any task's working set exceeds θt
    ///   (checked up-front — Spark fails such tasks as soon as they
    ///   materialize their cuboid);
    /// * [`JobError::ExceededDiskCapacity`] when accumulated intermediate
    ///   data would exceed the cluster disk;
    /// * [`JobError::Timeout`] when the job exceeds its time budget;
    /// * [`JobError::TaskFailed`] for GPU work on a GPU-less cluster.
    pub fn run_stage(
        &mut self,
        tasks: &[SimTask],
        broadcast_bytes: u64,
    ) -> Result<StageOutcome, JobError> {
        if tasks.len() > self.cfg.max_tasks {
            return Err(JobError::TooManyTasks {
                requested: tasks.len(),
                limit: self.cfg.max_tasks,
            });
        }
        for (i, t) in tasks.iter().enumerate() {
            if t.mem_bytes > self.cfg.task_mem_bytes {
                return Err(JobError::OutOfMemory {
                    task: i,
                    needed: t.mem_bytes,
                    budget: self.cfg.task_mem_bytes,
                });
            }
            if matches!(t.compute, ComputeWork::Gpu(_)) && self.gpus.is_empty() {
                return Err(JobError::TaskFailed {
                    task: i,
                    message: "GPU work scheduled on a GPU-less cluster".into(),
                });
            }
        }
        if broadcast_bytes > self.cfg.node_mem_bytes {
            // Broadcast variables live once per node; a broadcast larger
            // than node memory kills the executors (BMM's O.O.M. mode).
            return Err(JobError::OutOfMemory {
                task: 0,
                needed: broadcast_bytes,
                budget: self.cfg.node_mem_bytes,
            });
        }
        let stage_writes: u64 = tasks.iter().map(|t| t.shuffle_out_bytes).sum();
        if self.intermediates.alloc(stage_writes).is_err() {
            return Err(JobError::ExceededDiskCapacity {
                needed: self.intermediates.in_use() + stage_writes,
                capacity: self.intermediates.capacity(),
            });
        }

        let submitted = self.clock;
        let stage_start = submitted
            + self.cfg.stage_overhead_secs
            + self.cfg.driver_secs_per_task * tasks.len() as f64;
        let nodes = self.cfg.nodes;
        let cross = self.cfg.cross_node_fraction();
        let wire = self.cfg.wire_compression_ratio;
        let gpu_busy_before: f64 = self.gpus.iter().map(GpuDevice::kernel_busy_secs).sum();

        // Broadcast: every node pulls one copy through its NIC first.
        let mut node_ready = vec![stage_start; nodes];
        if broadcast_bytes > 0 {
            for (n, ready) in node_ready.iter_mut().enumerate() {
                let (_, done) = self.rx[n].request(stage_start, broadcast_bytes as f64 * wire);
                *ready = done;
            }
        }

        let mut outcome = StageOutcome {
            tasks: tasks.len(),
            broadcast_bytes: broadcast_bytes * if broadcast_bytes > 0 { nodes as u64 } else { 0 },
            ..Default::default()
        };
        let mut stage_end = stage_start;
        let mut any_gpu = false;

        for (i, t) in tasks.iter().enumerate() {
            // Placement: static round-robin (Spark locality default), or —
            // with dynamic scheduling — the node whose slots free earliest.
            let node = if self.cfg.dynamic_scheduling {
                (0..nodes)
                    .min_by(|&a, &b| {
                        let fa = self.slots[a].earliest_free().max(node_ready[a]);
                        let fb = self.slots[b].earliest_free().max(node_ready[b]);
                        fa.as_secs()
                            .partial_cmp(&fb.as_secs())
                            .expect("times are finite")
                    })
                    .expect("at least one node")
            } else {
                i % nodes
            };
            let slot_start = self.slots[node].acquire_at(node_ready[node]);
            let t0 = slot_start + self.cfg.task_launch_secs;

            // Shuffle fetch: remote share over the NIC, local share from
            // disk — both move *compressed* bytes.
            let remote = (t.shuffle_in_bytes as f64 * cross).round();
            let local = t.shuffle_in_bytes as f64 - remote;
            let (_, t1) = self.rx[node].request(t0, remote * wire);
            let (_, t2) = self.disk[node].request(t1, (local + t.local_read_bytes as f64) * wire);

            // Deserialization of everything read, at *logical* volume —
            // including the broadcast variable, which each task
            // deserializes from the node's torrent store.
            let deser = (t.shuffle_in_bytes + t.local_read_bytes + broadcast_bytes) as f64
                / self.cfg.serde_bytes_per_sec;
            let t3 = t2 + deser;

            // Compute.
            let t4 = match t.compute {
                ComputeWork::None => t3,
                ComputeWork::Cpu { flops } => t3 + flops / self.cfg.slot_flops_per_sec(),
                ComputeWork::Gpu(w) => {
                    any_gpu = true;
                    let per = self.cfg.gpus_per_node;
                    let device = node * per + self.gpu_rr[node];
                    self.gpu_rr[node] = (self.gpu_rr[node] + 1) % per;
                    if self.cfg.gpu_streaming {
                        work::execute_streamed(&mut self.gpus[device], t3, &w).end
                    } else {
                        work::execute_naive(&mut self.gpus[device], t3, &w).end
                    }
                }
            };

            // Serialize + write shuffle/HDFS output (compressed on disk).
            let out_bytes = t.shuffle_out_bytes + t.local_write_bytes;
            let ser = out_bytes as f64 / self.cfg.serde_bytes_per_sec;
            let (_, t5) = self.disk_w[node].request(t4 + ser, out_bytes as f64 * wire);

            self.slots[node].release(t5);
            stage_end = stage_end.max(t5);

            outcome.shuffle_read_bytes += t.shuffle_in_bytes;
            outcome.cross_node_bytes += remote as u64;
            outcome.shuffle_write_bytes += t.shuffle_out_bytes;
            outcome.peak_task_mem_bytes = outcome.peak_task_mem_bytes.max(t.mem_bytes);
        }

        self.clock = stage_end;
        outcome.secs = stage_end.since(submitted);

        if any_gpu {
            let busy: f64 = self
                .gpus
                .iter()
                .map(GpuDevice::kernel_busy_secs)
                .sum::<f64>()
                - gpu_busy_before;
            outcome.gpu_busy_secs = busy;
            let window = stage_end.since(stage_start);
            let active_gpus = tasks.len().min(nodes * self.cfg.gpus_per_node) as f64;
            if window > 0.0 {
                outcome.gpu_utilization = Some((busy / (window * active_gpus)).min(1.0));
            }
        }

        if self.job_elapsed_secs() > self.cfg.timeout_secs {
            return Err(JobError::Timeout {
                elapsed_secs: self.job_elapsed_secs(),
                limit_secs: self.cfg.timeout_secs,
            });
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ClusterConfig {
        ClusterConfig {
            nodes: 2,
            tasks_per_node: 2,
            task_mem_bytes: 1000,
            node_mem_bytes: 100_000,
            net_bytes_per_sec: 100.0,
            disk_bytes_per_sec: 100.0,
            node_cpu_flops_per_sec: 200.0,
            serde_bytes_per_sec: 1000.0,
            wire_compression_ratio: 1.0,
            task_launch_secs: 0.0,
            stage_overhead_secs: 0.0,
            driver_secs_per_task: 0.0,
            disk_capacity_bytes: 10_000,
            timeout_secs: 1_000.0,
            max_tasks: 100,
            gpu: None,
            gpus_per_node: 1,
            dynamic_scheduling: false,
            gpu_streaming: true,
            host_worker_oversubscription: 2,
            retry: crate::config::RetryPolicy::no_retry(),
            scheduler: crate::config::SchedulerConfig::for_cluster(2, 100_000),
            replication: crate::coding::ReplicationPolicy::Off,
        }
    }

    #[test]
    fn single_cpu_task_timeline() {
        let mut c = SimCluster::new(small_cfg());
        c.start_job();
        let t = SimTask {
            shuffle_in_bytes: 200,
            local_read_bytes: 0,
            compute: ComputeWork::Cpu { flops: 100.0 },
            shuffle_out_bytes: 100,
            local_write_bytes: 0,
            mem_bytes: 500,
        };
        let out = c.run_stage(&[t], 0).unwrap();
        // remote = 200 * 1/2 = 100 B over NIC at 100 B/s = 1 s; local 100 B
        // from disk = 1 s; deser 200/1000 = 0.2 s; compute 100 flops at
        // 200/2 = 100 flop/s per slot = 1 s; ser 100/1000 = 0.1 s; write
        // 100 B at 100 B/s = 1 s. Total 4.3 s.
        assert!((out.secs - 4.3).abs() < 1e-9, "got {}", out.secs);
        assert_eq!(out.cross_node_bytes, 100);
        assert_eq!(out.shuffle_read_bytes, 200);
        assert_eq!(out.shuffle_write_bytes, 100);
    }

    #[test]
    fn tasks_queue_on_slots() {
        let mut c = SimCluster::new(small_cfg());
        c.start_job();
        let t = SimTask {
            shuffle_in_bytes: 0,
            local_read_bytes: 0,
            compute: ComputeWork::Cpu { flops: 100.0 }, // 1 s each
            shuffle_out_bytes: 0,
            local_write_bytes: 0,
            mem_bytes: 0,
        };
        // 8 identical 1-second tasks over 2 nodes x 2 slots => 2 waves.
        let out = c.run_stage(&vec![t; 8], 0).unwrap();
        assert!((out.secs - 2.0).abs() < 1e-9, "got {}", out.secs);
    }

    #[test]
    fn oom_detected_before_running() {
        let mut c = SimCluster::new(small_cfg());
        c.start_job();
        let t = SimTask::data_only(0, 0, 2000);
        let err = c.run_stage(&[t], 0).unwrap_err();
        assert_eq!(err.annotation(), "O.O.M.");
    }

    #[test]
    fn edc_accumulates_across_stages() {
        let mut c = SimCluster::new(small_cfg());
        c.start_job();
        let t = SimTask::data_only(0, 4000, 0);
        c.run_stage(&[t], 0).unwrap();
        c.run_stage(&[t], 0).unwrap();
        assert_eq!(c.intermediate_bytes(), 8000);
        let err = c.run_stage(&[t], 0).unwrap_err();
        assert_eq!(err.annotation(), "E.D.C.");
        // A new job frees intermediates.
        c.start_job();
        assert_eq!(c.intermediate_bytes(), 0);
        c.run_stage(&[t], 0).unwrap();
    }

    #[test]
    fn timeout_fires() {
        let mut cfg = small_cfg();
        cfg.timeout_secs = 3.0;
        let mut c = SimCluster::new(cfg);
        c.start_job();
        let t = SimTask {
            shuffle_in_bytes: 0,
            local_read_bytes: 0,
            compute: ComputeWork::Cpu { flops: 1000.0 }, // 10 s
            shuffle_out_bytes: 0,
            local_write_bytes: 0,
            mem_bytes: 0,
        };
        let err = c.run_stage(&[t], 0).unwrap_err();
        assert_eq!(err.annotation(), "T.O.");
    }

    #[test]
    fn too_many_tasks_rejected() {
        let mut cfg = small_cfg();
        cfg.max_tasks = 3;
        let mut c = SimCluster::new(cfg);
        let t = SimTask::data_only(0, 0, 0);
        assert_eq!(
            c.run_stage(&vec![t; 4], 0).unwrap_err().annotation(),
            "T.M.T."
        );
    }

    #[test]
    fn broadcast_delays_first_tasks_and_counts_bytes() {
        let mut c = SimCluster::new(small_cfg());
        c.start_job();
        let t = SimTask::data_only(0, 0, 0);
        let out = c.run_stage(&[t, t], 500).unwrap();
        // Broadcast 500 B at 100 B/s = 5 s on each node's NIC, plus each
        // task deserializing the broadcast: 500 B at 1000 B/s = 0.5 s.
        assert!((out.secs - 5.5).abs() < 1e-9, "got {}", out.secs);
        assert_eq!(out.broadcast_bytes, 1000); // 2 nodes x 500 B
    }

    #[test]
    fn gpu_work_requires_gpu() {
        let mut c = SimCluster::new(small_cfg());
        let t = SimTask {
            compute: ComputeWork::Gpu(GpuWork::default()),
            ..SimTask::data_only(0, 0, 0)
        };
        assert!(matches!(
            c.run_stage(&[t], 0),
            Err(JobError::TaskFailed { .. })
        ));
    }

    #[test]
    fn gpu_stage_reports_utilization() {
        let mut cfg = small_cfg();
        cfg.gpu = Some(distme_gpu::GpuConfig::tiny(1 << 20));
        let mut c = SimCluster::new(cfg);
        c.start_job();
        let w = GpuWork {
            h2d_bytes: 1000,
            d2h_bytes: 100,
            dense_flops: 1.0e6,
            sparse_flops: 0.0,
            kernel_calls: 4,
            streams: 2,
        };
        let t = SimTask {
            compute: ComputeWork::Gpu(w),
            ..SimTask::data_only(0, 0, 0)
        };
        let out = c.run_stage(&[t, t], 0).unwrap();
        let u = out.gpu_utilization.expect("gpu ran");
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
        assert!(out.gpu_busy_secs > 0.0);
    }

    #[test]
    fn multiple_gpus_per_node_share_the_stage_load() {
        let mut cfg = small_cfg();
        cfg.gpu = Some(distme_gpu::GpuConfig::tiny(1 << 20));
        let w = GpuWork {
            h2d_bytes: 0,
            d2h_bytes: 0,
            dense_flops: 1.0e9, // 1 s on the tiny device
            sparse_flops: 0.0,
            kernel_calls: 1,
            streams: 1,
        };
        let t = SimTask {
            compute: ComputeWork::Gpu(w),
            ..SimTask::data_only(0, 0, 0)
        };
        let run = |gpus: usize| {
            let mut c = cfg;
            c.gpus_per_node = gpus;
            let mut sim = SimCluster::new(c);
            sim.start_job();
            // 4 GPU tasks per node (8 total over 2 nodes).
            sim.run_stage(&vec![t; 8], 0).unwrap().secs
        };
        let one = run(1);
        let two = run(2);
        assert!(
            two < one,
            "two devices per node must beat one: {two} vs {one}"
        );
    }

    #[test]
    fn dynamic_scheduling_balances_skewed_tasks() {
        // One long task plus many short ones: round-robin puts later short
        // tasks behind the long one's node; dynamic placement avoids it.
        let mut tasks = vec![SimTask {
            compute: ComputeWork::Cpu { flops: 2000.0 }, // 20 s
            ..SimTask::data_only(0, 0, 0)
        }];
        tasks.extend(vec![
            SimTask {
                compute: ComputeWork::Cpu { flops: 100.0 }, // 1 s
                ..SimTask::data_only(0, 0, 0)
            };
            12
        ]);
        let run = |dynamic: bool| {
            let mut cfg = small_cfg();
            cfg.dynamic_scheduling = dynamic;
            let mut sim = SimCluster::new(cfg);
            sim.start_job();
            sim.run_stage(&tasks, 0).unwrap().secs
        };
        let rr = run(false);
        let dy = run(true);
        assert!(dy <= rr, "dynamic {dy} must not lose to round-robin {rr}");
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut c = SimCluster::new(small_cfg());
            c.start_job();
            let t = SimTask {
                shuffle_in_bytes: 123,
                local_read_bytes: 7,
                compute: ComputeWork::Cpu { flops: 55.0 },
                shuffle_out_bytes: 99,
                local_write_bytes: 3,
                mem_bytes: 10,
            };
            c.run_stage(&vec![t; 13], 77).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn scale_to_rebuilds_the_grid_and_bumps_the_epoch() {
        let mut c = SimCluster::new(small_cfg());
        c.start_job();
        let t = SimTask {
            compute: ComputeWork::Cpu { flops: 100.0 },
            ..SimTask::data_only(0, 0, 0)
        };
        c.run_stage(&[t], 0).unwrap();
        let elapsed = c.job_elapsed_secs();
        c.scale_to(5);
        assert_eq!(c.epoch(), 1);
        assert_eq!(c.config().nodes, 5);
        assert!(
            (c.job_elapsed_secs() - elapsed).abs() < 1e-12,
            "the virtual clock carries over a resize"
        );
        c.scale_to(5);
        assert_eq!(c.epoch(), 1, "resizing to the current size is a no-op");
    }

    #[test]
    fn sequential_stages_advance_the_clock() {
        let mut c = SimCluster::new(small_cfg());
        c.start_job();
        let t = SimTask {
            compute: ComputeWork::Cpu { flops: 100.0 },
            ..SimTask::data_only(0, 0, 0)
        };
        c.run_stage(&[t], 0).unwrap();
        let after_one = c.job_elapsed_secs();
        c.run_stage(&[t], 0).unwrap();
        assert!((c.job_elapsed_secs() - 2.0 * after_one).abs() < 1e-9);
    }
}

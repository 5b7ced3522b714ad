//! The backend-agnostic physical plan IR.
//!
//! Method resolution and the three-step stage construction of §2.2/Fig. 4
//! (matrix repartition → local multiplication → matrix aggregation) happen
//! exactly once, here, driven by a [`ResolvedMethod`] and the
//! [`CuboidGrid`] it induces. The result is a [`JobPlan`] whose tasks carry
//! two views of the same work:
//!
//! * a **routing** view ([`BlockMove`]s): which [`BlockId`]s move from
//!   which home node to which task, including the BMM broadcast special
//!   case (Eqs. 2–4 shape these volumes — `Q·|A| + P·|B|` in repartition,
//!   `R·|C|` in aggregation);
//! * a derived **summary** view ([`SimTask`]): shuffle/read bytes, CPU
//!   FLOPs or [`GpuWork`] per Eq. 5–6, feeding the simulator's calibrated
//!   time/memory models.
//!
//! The two executors are pure consumers: `sim_exec` lowers each task's
//! *summary* onto the simulated cluster, `real_exec` materializes each
//! task's blocks. Communication bytes are summed over the routing once, at
//! build time, into the plan's per-phase [`PhaseComm`]
//! ([`JobPlan::phase_comm`]); the simulator reports that field and the real
//! executor charges its ledger from it, so the two are the same numbers by
//! construction.

use crate::cuboid::{Cuboid, CuboidGrid};
use crate::gpu_local;
use crate::methods::{MulMethod, ResolvedMethod};
use crate::optimizer::OptimizerConfig;
use crate::problem::MatmulProblem;
use crate::subcuboid::CuboidSides;
use distme_cluster::{ClusterConfig, ComputeWork, JobStats, Phase, SimTask};
use distme_gpu::GpuWork;
use distme_matrix::BlockId;
use std::collections::BTreeMap;

/// Fraction of a *resident* intermediate output that actually occupies the
/// task heap: Spark's external sorter spills part of a materialized
/// partition before the heap limit, so a legacy (MatFast-style) CPMM task
/// holding |C| dies once ~75% of |C| exceeds θt — calibrated so Fig. 7(a)'s
/// MatFast survives 30K (|C| = 7.2 GB) and O.O.M.s at 40K (12.8 GB).
pub const RESIDENT_OUTPUT_FRACTION: f64 = 0.75;

/// Which operand a routed block belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Operand {
    /// Left input.
    A,
    /// Right input.
    B,
    /// Output (intermediate C copies shuffled to aggregation).
    C,
}

/// One block movement: `bytes` of block `id` shipped from its current
/// `from_node` to the node of the task that consumes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMove {
    /// Operand space of `id`.
    pub operand: Operand,
    /// The moved block.
    pub id: BlockId,
    /// Node the block currently lives on (HDFS home or producer task).
    pub from_node: usize,
    /// Node of the consuming task.
    pub to_node: usize,
    /// Serialized size charged for the movement (includes the method's
    /// serialization-overhead factor).
    pub bytes: u64,
    /// Producer copy index: which mult task produced this intermediate
    /// (aggregation routing only; operand moves use 0). Distinguishes the
    /// `R` partial copies of one C block in the destination node's store.
    pub copy: u32,
}

/// What a task executes when the plan runs with real blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskWork {
    /// Stage-1 map task: reads an input split and writes replicated copies
    /// into the shuffle. Carries no block-level work of its own.
    MapRead,
    /// Multiply one cuboid's blocks (shared communication within the
    /// cuboid, §3.1).
    Cuboid(Cuboid),
    /// Multiply a hash-bucket of voxels (RMM: no communication sharing).
    Voxels(Vec<(u32, u32, u32)>),
    /// Reduce the `R` intermediate copies of each listed C block.
    Aggregate(Vec<BlockId>),
}

/// One planned task: placement, work, routed inputs, and the simulator's
/// byte/FLOP summary.
#[derive(Debug, Clone)]
pub struct TaskSpec {
    /// Node the scheduler places this task on.
    pub node: usize,
    /// The task's work, executable against real blocks.
    pub work: TaskWork,
    /// Block movements feeding this task (charged to the owning stage's
    /// [`PlanStage::input_phase`]).
    pub inputs: Vec<BlockMove>,
    /// The simulator's resource summary of this task. The summary keeps
    /// the calibrated cost-model formulas (even split shares, Eq. 5–6 GPU
    /// work); it drives simulated *time and memory*, while the routing
    /// view is the single source of truth for *communication bytes*.
    pub summary: SimTask,
}

impl TaskSpec {
    /// For an aggregation task: the local-mult task indices producing its
    /// inputs (a C move's `copy` field *is* the producer task index). An
    /// aggregation task is dispatchable once these producers finished — a
    /// gate on tasks, not on landed blocks, since an implicit-zero
    /// intermediate never physically lands.
    pub fn producer_tasks(&self) -> std::collections::BTreeSet<usize> {
        self.inputs
            .iter()
            .filter(|m| m.operand == Operand::C)
            .map(|m| m.copy as usize)
            .collect()
    }
}

/// One stage of the pipeline.
#[derive(Debug, Clone)]
pub struct PlanStage {
    /// Which pipeline step these tasks execute.
    pub phase: Phase,
    /// Which phase the tasks' input movements are accounted to. The
    /// local-mult stage consumes the *repartition* shuffle, so its moves
    /// are charged to [`Phase::Repartition`].
    pub input_phase: Phase,
    /// The stage's tasks, in scheduling order (`node = index % nodes`).
    pub tasks: Vec<TaskSpec>,
}

/// BMM's torrent broadcast of B (§2.2.1). Accounting follows Table 2:
/// every local-mult task fetches and deserializes its own copy, so the
/// charged volume is `copies · bytes_per_copy = T·|B|` (the *time* model
/// uses the one-wire-copy-per-node semantics instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BroadcastPlan {
    /// Unscaled serialized size of one copy (`|B|`).
    pub bytes_per_copy: u64,
    /// Number of fetching tasks (`T`).
    pub copies: u64,
}

/// Communication charged to one phase, summed over the plan's routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseComm {
    /// Bytes moved through the shuffle (all copies counted).
    pub shuffle_bytes: u64,
    /// The subset of `shuffle_bytes` crossing a node boundary.
    pub cross_node_bytes: u64,
    /// Bytes moved by broadcast.
    pub broadcast_bytes: u64,
}

/// A complete physical plan for one distributed multiplication.
#[derive(Debug, Clone)]
pub struct JobPlan {
    /// The resolved method the plan was built from.
    pub resolved: ResolvedMethod,
    /// The problem being multiplied.
    pub problem: MatmulProblem,
    /// Cluster width the routing was computed for.
    pub nodes: usize,
    /// Membership epoch the routing was computed at (0 for a cluster that
    /// never resized). Executors reject a plan whose epoch is stale — the
    /// grid it routed for no longer exists, even if the node *count*
    /// happens to match again.
    pub epoch: u64,
    /// BMM's broadcast of B, when the method uses one.
    pub broadcast: Option<BroadcastPlan>,
    /// Stages in execution order: repartition map, local multiplication,
    /// and (only when `R > 1`) aggregation.
    pub stages: Vec<PlanStage>,
    /// Per-phase communication of the routing the plan was built with
    /// (indexed by [`Phase::index`]); see [`JobPlan::phase_comm`]. Editing
    /// `stages` by hand afterwards does not change it.
    comm: [PhaseComm; Phase::COUNT],
}

impl JobPlan {
    /// Resolves `method` against `problem` (running the §3.2 optimizer at
    /// most once) and builds the plan. This is the **only** place method
    /// resolution happens on the execution path — both executors receive
    /// the already-resolved plan.
    pub fn build(problem: &MatmulProblem, method: MulMethod, cfg: &ClusterConfig) -> Self {
        let resolved =
            ResolvedMethod::resolve(method, problem, &OptimizerConfig::from_cluster(cfg));
        Self::from_resolved(problem, &resolved, cfg)
    }

    /// Builds the plan for a pre-resolved method (parameter sweeps, system
    /// profiles with legacy execution semantics).
    pub fn from_resolved(
        problem: &MatmulProblem,
        resolved: &ResolvedMethod,
        cfg: &ClusterConfig,
    ) -> Self {
        Builder {
            problem,
            resolved,
            cfg,
            nodes: cfg.nodes.max(1),
        }
        .build()
    }

    /// Stamps the plan with the membership epoch it was built at (builder
    /// style). Executors check it against their cluster's current epoch.
    pub fn at_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// The stage executing `phase`, if the plan has one.
    pub fn stage(&self, phase: Phase) -> Option<&PlanStage> {
        self.stages.iter().find(|s| s.phase == phase)
    }

    /// Communication charged to `phase`: the routed moves of every stage
    /// whose inputs are accounted there, plus the broadcast for
    /// repartition — summed once when the plan was built. The simulator
    /// reports these numbers and the real executor charges its ledger with
    /// them.
    pub fn phase_comm(&self, phase: Phase) -> PhaseComm {
        self.comm[phase.index()]
    }

    /// Writes every phase's communication bytes into `stats` — where both
    /// executors' [`JobStats`] get their model bytes from.
    pub fn report_comm(&self, stats: &mut JobStats) {
        for phase in Phase::ALL {
            let comm = self.phase_comm(phase);
            let ps = stats.phase_mut(phase);
            ps.shuffle_bytes = comm.shuffle_bytes;
            ps.cross_node_bytes = comm.cross_node_bytes;
            ps.broadcast_bytes = comm.broadcast_bytes;
        }
    }

    /// The HDFS home node of an input block under this plan's routing —
    /// where the executor must ingest it for the plan's `from_node`s to be
    /// physical facts.
    pub fn home_of(&self, operand: Operand, id: BlockId) -> usize {
        operand_home(operand, id, self.nodes)
    }
}

/// The HDFS home node of an input block (same hash the plan's routing
/// uses). `C` has no HDFS home — its copies live on producer-task nodes.
pub fn operand_home(operand: Operand, id: BlockId, nodes: usize) -> usize {
    match operand {
        Operand::A => home_node(id, 0, nodes),
        Operand::B => home_node(id, 1, nodes),
        Operand::C => panic!("C blocks have no HDFS home; they live on producer nodes"),
    }
}

/// HDFS "home" node of an input block (`which` salts A/B/destination
/// spaces apart). The hash itself lives in `distme_cluster::rebalance` so
/// elastic block migration and plan routing can never disagree about
/// placement; this is a thin delegation.
fn home_node(id: BlockId, which: u64, nodes: usize) -> usize {
    distme_cluster::rebalance::home_node(id, which, nodes)
}

/// Plan construction state: the byte model shared by every stage.
struct Builder<'a> {
    problem: &'a MatmulProblem,
    resolved: &'a ResolvedMethod,
    cfg: &'a ClusterConfig,
    nodes: usize,
}

impl Builder<'_> {
    fn build(self) -> JobPlan {
        let problem = self.problem;
        let resolved = self.resolved;
        let grid = CuboidGrid::new(problem, resolved.spec);

        let (mult_tasks, producers) = self.mult_stage(&grid);
        let broadcast = resolved.broadcast_b.then(|| BroadcastPlan {
            bytes_per_copy: problem.b.total_bytes(),
            copies: mult_tasks.len() as u64,
        });
        let pre_moves = self.pre_shuffle_moves();
        let map_tasks = self.map_stage(&mult_tasks, pre_moves);

        let mut stages = vec![
            PlanStage {
                phase: Phase::Repartition,
                input_phase: Phase::Repartition,
                tasks: map_tasks,
            },
            PlanStage {
                phase: Phase::LocalMult,
                input_phase: Phase::Repartition,
                tasks: mult_tasks,
            },
        ];
        if resolved.spec.r > 1 {
            stages.push(self.agg_stage(&grid, &producers));
        }
        let comm = routed_comm(&stages, broadcast);
        JobPlan {
            resolved: *resolved,
            problem: *problem,
            nodes: self.nodes,
            epoch: 0,
            broadcast,
            stages,
            comm,
        }
    }

    /// Per-block share of an operand's (serialization-scaled) total. The
    /// shares of one full replica sum exactly to the scaled total, so the
    /// plan's repartition volume is exactly `Q·|A| + P·|B|` (Eq. 4) and its
    /// aggregation volume exactly `R·|C|`.
    fn a_move(&self, id: BlockId, to_node: usize) -> BlockMove {
        let a = &self.problem.a;
        let dk = self.problem.dims().2 as u64;
        BlockMove {
            operand: Operand::A,
            id,
            from_node: home_node(id, 0, self.nodes),
            to_node,
            bytes: split_share(
                scale(a.total_bytes(), self.resolved.ser_overhead),
                a.num_blocks(),
                id.row as u64 * dk + id.col as u64,
            ),
            copy: 0,
        }
    }

    fn b_move(&self, id: BlockId, to_node: usize) -> BlockMove {
        let b = &self.problem.b;
        let dj = self.problem.dims().1 as u64;
        BlockMove {
            operand: Operand::B,
            id,
            from_node: home_node(id, 1, self.nodes),
            to_node,
            bytes: split_share(
                scale(b.total_bytes(), self.resolved.ser_overhead),
                b.num_blocks(),
                id.row as u64 * dj + id.col as u64,
            ),
            copy: 0,
        }
    }

    fn c_share(&self, id: BlockId) -> u64 {
        let c = &self.problem.c;
        let dj = self.problem.dims().1 as u64;
        split_share(
            scale(c.total_bytes(), self.resolved.ser_overhead),
            c.num_blocks(),
            id.row as u64 * dj + id.col as u64,
        )
    }

    /// Stage 2: one task per non-empty cuboid (or RMM voxel bucket), with
    /// routed inputs and the simulator summary. Also collects, per output
    /// block, which task indices produce an intermediate copy of it.
    fn mult_stage(&self, grid: &CuboidGrid) -> (Vec<TaskSpec>, BTreeMap<BlockId, Vec<usize>>) {
        let problem = self.problem;
        let resolved = self.resolved;
        let cfg = self.cfg;
        let use_gpu = cfg.gpu.is_some();
        let ab = problem.a_block_bytes();
        let bb = problem.b_block_bytes();
        let cb = problem.c_block_bytes();
        let fpv = problem.flops_per_voxel();
        let sparse = problem.uses_sparse_kernels();
        let needs_aggregation = resolved.spec.r > 1;

        let mut tasks: Vec<TaskSpec> = Vec::new();
        let mut producers: BTreeMap<BlockId, Vec<usize>> = BTreeMap::new();

        if resolved.voxel_hash {
            // RMM: voxels hashed over `t` buckets; no communication
            // sharing — each voxel fetches its own pair of blocks and
            // ships its own intermediate block.
            let t = resolved.tasks.min(problem.voxels()).max(1);
            let voxels = problem.voxels();
            let (di, dj, dk) = problem.dims();
            let mut buckets: Vec<Vec<(u32, u32, u32)>> =
                (0..t as usize).map(|_| Vec::new()).collect();
            for vi in 0..di {
                for vj in 0..dj {
                    for vk in 0..dk {
                        buckets[(voxel_hash(vi, vj, vk) % t) as usize].push((vi, vj, vk));
                    }
                }
            }
            for (idx, bucket) in buckets.into_iter().enumerate() {
                let node = idx % self.nodes;
                let mut inputs = Vec::with_capacity(2 * bucket.len());
                for &(vi, vj, vk) in &bucket {
                    inputs.push(self.a_move(BlockId::new(vi, vk), node));
                    inputs.push(self.b_move(BlockId::new(vk, vj), node));
                    if needs_aggregation {
                        producers.entry(BlockId::new(vi, vj)).or_default().push(idx);
                    }
                }
                // Summary: the calibrated even-split model (buckets are
                // near-uniform; the time model does not chase per-bucket
                // jitter).
                let vox = split_share(voxels, t, idx as u64);
                let in_bytes = scale(vox * (ab + bb), resolved.ser_overhead);
                // With K = 1 every voxel's product is final — nothing is
                // shuffled to an aggregation stage.
                let out_bytes = if dk > 1 {
                    scale(vox * cb, resolved.ser_overhead)
                } else {
                    0
                };
                let flops = vox as f64 * fpv;
                let compute = if use_gpu {
                    // §6.2: "RMM cannot perform cuboid-level GPU
                    // computation, but simple block-level GPU computation
                    // due to its hash partitioning" — no C residence, one
                    // stream.
                    ComputeWork::Gpu(GpuWork {
                        h2d_bytes: in_bytes,
                        d2h_bytes: out_bytes,
                        dense_flops: if sparse { 0.0 } else { flops },
                        sparse_flops: if sparse { flops } else { 0.0 },
                        kernel_calls: vox,
                        streams: 1,
                    })
                } else {
                    ComputeWork::Cpu { flops }
                };
                tasks.push(TaskSpec {
                    node,
                    work: TaskWork::Voxels(bucket),
                    inputs,
                    summary: SimTask {
                        shuffle_in_bytes: in_bytes,
                        local_read_bytes: 0,
                        compute,
                        shuffle_out_bytes: out_bytes,
                        local_write_bytes: 0,
                        // An RMM task iterates its voxels sequentially —
                        // only a few blocks are live at once (which is
                        // precisely why RMM "can process without out of
                        // memory", §2.2.4).
                        mem_bytes: 3 * (ab + bb + cb)
                            + if resolved.output_resident {
                                (out_bytes as f64 * RESIDENT_OUTPUT_FRACTION) as u64
                            } else {
                                0
                            },
                    },
                });
            }
        } else {
            for (idx, cuboid) in grid.cuboids().enumerate() {
                let node = idx % self.nodes;
                let mut inputs: Vec<BlockMove> = cuboid
                    .a_block_ids()
                    .map(|id| self.a_move(id, node))
                    .collect();
                if !resolved.broadcast_b {
                    inputs.extend(cuboid.b_block_ids().map(|id| self.b_move(id, node)));
                }
                if needs_aggregation {
                    for id in cuboid.c_block_ids() {
                        producers.entry(id).or_default().push(idx);
                    }
                }
                let a_bytes = cuboid.a_blocks() * ab;
                let b_bytes = cuboid.b_blocks() * bb;
                let c_bytes = cuboid.c_blocks() * cb;
                let flops = cuboid.voxels() as f64 * fpv;
                let shuffle_in = scale(
                    a_bytes + if resolved.broadcast_b { 0 } else { b_bytes },
                    resolved.ser_overhead,
                );
                // Memory model: a broadcast B is stored once per node and
                // shared (checked against node memory by the executor).
                // Output residency: a BMM (mapmm-style) task computes its
                // whole final output row-partition inside the map call
                // before writing — the 6 GB C row that kills BMM at
                // 750K x 1K x 750K (Fig. 6(c)). Shuffle-based methods emit
                // C blocks one at a time; MatFast's naive CPMM additionally
                // materializes most of its intermediate |C| (see
                // RESIDENT_OUTPUT_FRACTION).
                let resident_c = if resolved.broadcast_b && resolved.spec.r == 1 {
                    c_bytes
                } else if resolved.output_resident {
                    (c_bytes as f64 * RESIDENT_OUTPUT_FRACTION) as u64
                } else {
                    cb
                };
                let mem = a_bytes + if resolved.broadcast_b { 0 } else { b_bytes } + resident_c;
                let compute = if use_gpu {
                    let gpu_cfg = cfg.gpu.expect("use_gpu implies config");
                    let sides = CuboidSides::of(&cuboid, ab, bb, cb);
                    match gpu_local::plan_work(&sides, gpu_cfg.task_mem_bytes, flops, sparse) {
                        // §5: the plan generator produces "a physical plan
                        // that can be executed in either CPU or GPU" —
                        // pick the GPU only when its estimated time
                        // (PCI-E + kernels) beats the CPU kernel.
                        // Data-movement-dominated operators (GNMF's skinny
                        // products) stay on the CPU.
                        Some((_, work)) => {
                            let kernel_rate = if sparse {
                                gpu_cfg.sparse_flops_per_sec
                            } else {
                                gpu_cfg.kernel_flops_per_sec
                            };
                            let gpu_secs = work.h2d_bytes as f64 / gpu_cfg.h2d_bytes_per_sec
                                + flops / kernel_rate
                                + work.d2h_bytes as f64 / gpu_cfg.d2h_bytes_per_sec;
                            let cpu_secs = flops / cfg.slot_flops_per_sec();
                            if gpu_secs < cpu_secs || !resolved.gpu_cost_based {
                                ComputeWork::Gpu(work)
                            } else {
                                ComputeWork::Cpu { flops }
                            }
                        }
                        // Cuboid unusable on the GPU: CPU fallback.
                        None => ComputeWork::Cpu { flops },
                    }
                } else {
                    ComputeWork::Cpu { flops }
                };
                // Final C is consumed by a count-style action (the paper
                // does not pay an HDFS write in its matmul timings), so
                // R = 1 produces no writes at all.
                let shuffle_out = if resolved.spec.r > 1 {
                    scale(c_bytes, resolved.ser_overhead)
                } else {
                    0
                };
                tasks.push(TaskSpec {
                    node,
                    work: TaskWork::Cuboid(cuboid),
                    inputs,
                    summary: SimTask {
                        shuffle_in_bytes: shuffle_in,
                        local_read_bytes: 0,
                        compute,
                        shuffle_out_bytes: shuffle_out,
                        local_write_bytes: 0,
                        mem_bytes: mem,
                    },
                });
            }
        }
        (tasks, producers)
    }

    /// CRMM's logical-block formation (§7): one extra pass over both
    /// inputs, each block re-shuffled from its home to a re-blocking
    /// destination before repartition proper.
    fn pre_shuffle_moves(&self) -> Vec<BlockMove> {
        if self.resolved.pre_shuffle_bytes == 0 {
            return Vec::new();
        }
        let (di, dj, dk) = self.problem.dims();
        let mut moves = Vec::new();
        for row in 0..di {
            for col in 0..dk {
                let id = BlockId::new(row, col);
                let mut m = self.a_move(id, home_node(id, 2, self.nodes));
                m.from_node = home_node(id, 0, self.nodes);
                moves.push(m);
            }
        }
        for row in 0..dk {
            for col in 0..dj {
                let id = BlockId::new(row, col);
                let mut m = self.b_move(id, home_node(id, 3, self.nodes));
                m.from_node = home_node(id, 1, self.nodes);
                moves.push(m);
            }
        }
        moves
    }

    /// Stage 1: map tasks reading the inputs and writing the replicated
    /// copies into the shuffle. The written volume is, by construction,
    /// exactly the volume the local-mult stage's routed inputs (plus any
    /// pre-shuffle) consume.
    fn map_stage(&self, mult_tasks: &[TaskSpec], pre_moves: Vec<BlockMove>) -> Vec<TaskSpec> {
        let problem = self.problem;
        let rep_total: u64 = mult_tasks
            .iter()
            .flat_map(|t| t.inputs.iter())
            .chain(pre_moves.iter())
            .map(|m| m.bytes)
            .sum();
        let a_total = problem.a.total_bytes();
        let b_total = problem.b.total_bytes();
        let ab = problem.a_block_bytes();
        let bb = problem.b_block_bytes();
        let input_blocks = problem.a.num_blocks() + problem.b.num_blocks();
        let t_map = (self.cfg.total_slots() as u64).min(input_blocks).max(1);
        let mut tasks: Vec<TaskSpec> = (0..t_map)
            .map(|i| TaskSpec {
                node: i as usize % self.nodes,
                work: TaskWork::MapRead,
                inputs: Vec::new(),
                summary: SimTask {
                    shuffle_in_bytes: 0,
                    local_read_bytes: split_share(a_total + b_total, t_map, i),
                    compute: ComputeWork::None,
                    shuffle_out_bytes: split_share(rep_total, t_map, i),
                    local_write_bytes: 0,
                    mem_bytes: 4 * ab.max(bb),
                },
            })
            .collect();
        for (mi, m) in pre_moves.into_iter().enumerate() {
            tasks[mi % t_map as usize].inputs.push(m);
        }
        tasks
    }

    /// Stage 3 (`R > 1`): C blocks assigned round-robin to aggregation
    /// tasks; each block receives one routed copy per producing mult task.
    fn agg_stage(&self, grid: &CuboidGrid, producers: &BTreeMap<BlockId, Vec<usize>>) -> PlanStage {
        let problem = self.problem;
        let resolved = self.resolved;
        let r = grid.c_replication() as u64;
        let c_total = problem.c.total_bytes();
        let cb = problem.c_block_bytes();
        let c_blocks = problem.c.num_blocks();
        let dj = problem.dims().1 as u64;
        let t_agg = c_blocks
            .min((self.cfg.total_slots() as u64).max(resolved.spec.count()))
            .max(1);
        let mut tasks: Vec<TaskSpec> = (0..t_agg)
            .map(|i| TaskSpec {
                node: i as usize % self.nodes,
                work: TaskWork::Aggregate(Vec::new()),
                inputs: Vec::new(),
                summary: SimTask {
                    shuffle_in_bytes: scale(
                        split_share(r * c_total, t_agg, i),
                        resolved.ser_overhead,
                    ),
                    local_read_bytes: 0,
                    compute: ComputeWork::Cpu {
                        // One add per element per extra copy.
                        flops: (r - 1) as f64 * split_share(problem.c.elements(), t_agg, i) as f64,
                    },
                    shuffle_out_bytes: 0,
                    // Aggregated C is consumed, not written back to HDFS.
                    local_write_bytes: 0,
                    mem_bytes: split_share(c_total, t_agg, i) + cb,
                },
            })
            .collect();
        for lin in 0..c_blocks {
            let id = BlockId::new((lin / dj) as u32, (lin % dj) as u32);
            let g = (lin % t_agg) as usize;
            let to_node = tasks[g].node;
            if let Some(ps) = producers.get(&id) {
                let bytes = self.c_share(id);
                for &p in ps {
                    tasks[g].inputs.push(BlockMove {
                        operand: Operand::C,
                        id,
                        from_node: p % self.nodes,
                        to_node,
                        bytes,
                        copy: p as u32,
                    });
                }
            }
            let TaskWork::Aggregate(ids) = &mut tasks[g].work else {
                unreachable!("agg tasks are built with Aggregate work");
            };
            ids.push(id);
        }
        PlanStage {
            phase: Phase::Aggregation,
            input_phase: Phase::Aggregation,
            tasks,
        }
    }
}

/// One walk over the routing: every move lands in its stage's input phase,
/// the broadcast (Table 2: one copy per fetching task) in repartition.
fn routed_comm(
    stages: &[PlanStage],
    broadcast: Option<BroadcastPlan>,
) -> [PhaseComm; Phase::COUNT] {
    let mut comm = [PhaseComm::default(); Phase::COUNT];
    for stage in stages {
        let c = &mut comm[stage.input_phase.index()];
        for m in stage.tasks.iter().flat_map(|t| &t.inputs) {
            c.shuffle_bytes += m.bytes;
            if m.from_node != m.to_node {
                c.cross_node_bytes += m.bytes;
            }
        }
    }
    if let Some(b) = broadcast {
        comm[Phase::Repartition.index()].broadcast_bytes =
            b.bytes_per_copy.saturating_mul(b.copies);
    }
    comm
}

/// Applies a serialization-format overhead factor to a byte volume.
pub(crate) fn scale(bytes: u64, factor: f64) -> u64 {
    if factor == 1.0 {
        bytes
    } else {
        (bytes as f64 * factor) as u64
    }
}

/// Splits `total` into `parts` near-equal integer shares; share `idx` gets
/// the remainder spread over the first `total % parts` parts (`idx` is
/// reduced modulo `parts`, so block linear indices can be passed directly).
pub(crate) fn split_share(total: u64, parts: u64, idx: u64) -> u64 {
    let base = total / parts;
    base + u64::from(idx % parts < total % parts)
}

/// Splitmix-style voxel hash: RMM's `(i, j, k) → bucket` partitioner.
fn voxel_hash(i: u32, j: u32, k: u32) -> u64 {
    let mut z = ((i as u64) << 42 | (j as u64) << 21 | k as u64).wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cuboid::CuboidSpec;

    fn laptop() -> ClusterConfig {
        ClusterConfig::laptop()
    }

    #[test]
    fn split_share_conserves_total() {
        for total in [0u64, 1, 7, 100, 101] {
            for parts in [1u64, 3, 7, 13] {
                let sum: u64 = (0..parts).map(|i| split_share(total, parts, i)).sum();
                assert_eq!(sum, total, "total {total}, parts {parts}");
            }
        }
    }

    #[test]
    fn empty_cuboids_do_not_become_tasks() {
        // I = 5, P = 4: widths 2 => 3 non-empty row bands.
        let p = MatmulProblem::dense(5_000, 2_000, 3_000);
        let plan = JobPlan::build(&p, MulMethod::Cuboid(CuboidSpec::new(4, 1, 1)), &laptop());
        assert_eq!(plan.stage(Phase::LocalMult).unwrap().tasks.len(), 3);
    }

    #[test]
    fn routing_matches_cost_model_exactly() {
        // Eq. 4 on an evenly-divisible grid: repartition routes exactly
        // Q·|A| + P·|B| and aggregation exactly R·|C|.
        let p = MatmulProblem::dense(70_000, 70_000, 70_000);
        let plan = JobPlan::build(
            &p,
            MulMethod::Cuboid(CuboidSpec::new(4, 7, 4)),
            &ClusterConfig::paper_cluster(),
        );
        let rep = plan.phase_comm(Phase::Repartition);
        assert_eq!(
            rep.shuffle_bytes,
            7 * p.a.total_bytes() + 4 * p.b.total_bytes()
        );
        assert_eq!(rep.broadcast_bytes, 0);
        let agg = plan.phase_comm(Phase::Aggregation);
        assert_eq!(agg.shuffle_bytes, 4 * p.c.total_bytes());
        // The local-mult stage consumes the repartition shuffle; nothing
        // is charged to it directly.
        assert_eq!(plan.phase_comm(Phase::LocalMult), PhaseComm::default());

        // What the plan stores is what a fresh walk of its routing finds,
        // for every method on even and ragged grids.
        let methods = [
            MulMethod::Bmm,
            MulMethod::Cpmm,
            MulMethod::Rmm,
            MulMethod::CuboidAuto,
            MulMethod::Cuboid(CuboidSpec::new(3, 2, 2)),
            MulMethod::Crmm,
            MulMethod::SpmmShift,
        ];
        for (i, j, k) in [(4_000, 4_000, 4_000), (5_000, 3_000, 7_000)] {
            let p = MatmulProblem::dense(i, j, k);
            for method in methods {
                let plan = JobPlan::build(&p, method, &laptop());
                for phase in Phase::ALL {
                    let mut walked = PhaseComm::default();
                    for stage in plan.stages.iter().filter(|s| s.input_phase == phase) {
                        for m in stage.tasks.iter().flat_map(|t| &t.inputs) {
                            walked.shuffle_bytes += m.bytes;
                            walked.cross_node_bytes +=
                                u64::from(m.from_node != m.to_node) * m.bytes;
                        }
                    }
                    if let (Phase::Repartition, Some(b)) = (phase, plan.broadcast) {
                        walked.broadcast_bytes = b.bytes_per_copy * b.copies;
                    }
                    let label = format!("{} {i}x{j}x{k} {}", method.name(), phase.label());
                    assert_eq!(plan.phase_comm(phase), walked, "{label}");
                }
            }
        }
    }

    #[test]
    fn bmm_broadcast_counts_one_copy_per_task() {
        let p = MatmulProblem::dense(30_000, 30_000, 30_000);
        let plan = JobPlan::build(&p, MulMethod::Bmm, &ClusterConfig::paper_cluster());
        let bc = plan.broadcast.expect("BMM broadcasts B");
        assert_eq!(bc.bytes_per_copy, p.b.total_bytes());
        assert_eq!(
            bc.copies,
            plan.stage(Phase::LocalMult).unwrap().tasks.len() as u64
        );
        // Table 2 accounting: T·|B| with T = I = 30 tasks.
        assert_eq!(
            plan.phase_comm(Phase::Repartition).broadcast_bytes,
            30 * p.b.total_bytes()
        );
        // No B shuffle moves when broadcasting.
        assert!(plan
            .stages
            .iter()
            .flat_map(|s| s.tasks.iter())
            .flat_map(|t| t.inputs.iter())
            .all(|m| m.operand != Operand::B));
        // And no aggregation stage (R = 1).
        assert!(plan.stage(Phase::Aggregation).is_none());
    }

    #[test]
    fn moves_land_on_their_tasks_node() {
        let p = MatmulProblem::dense(5_000, 5_000, 5_000);
        let plan = JobPlan::build(&p, MulMethod::Cpmm, &laptop());
        for stage in &plan.stages {
            // Map-stage inputs are CRMM pre-moves with their own
            // destinations; every other stage's moves terminate at the
            // consuming task.
            if stage.phase == Phase::Repartition {
                continue;
            }
            for task in &stage.tasks {
                for m in &task.inputs {
                    assert_eq!(m.to_node, task.node);
                    assert!(m.from_node < plan.nodes && m.to_node < plan.nodes);
                }
            }
        }
    }

    #[test]
    fn aggregation_inputs_have_r_producers_per_block() {
        let p = MatmulProblem::dense(5_000, 5_000, 5_000);
        let plan = JobPlan::build(&p, MulMethod::Cuboid(CuboidSpec::new(1, 1, 5)), &laptop());
        let agg = plan.stage(Phase::Aggregation).expect("R = 5 aggregates");
        let mut copies: BTreeMap<BlockId, usize> = BTreeMap::new();
        for t in &agg.tasks {
            for m in &t.inputs {
                *copies.entry(m.id).or_default() += 1;
            }
        }
        assert_eq!(copies.len() as u64, p.c.num_blocks());
        assert!(copies.values().all(|&n| n == 5));
    }

    #[test]
    fn crmm_pre_shuffle_rides_on_the_map_stage() {
        let p = MatmulProblem::dense(70_000, 70_000, 70_000);
        let plan = JobPlan::build(&p, MulMethod::Crmm, &ClusterConfig::paper_cluster());
        let map = plan.stage(Phase::Repartition).unwrap();
        let pre: u64 = map
            .tasks
            .iter()
            .flat_map(|t| t.inputs.iter())
            .map(|m| m.bytes)
            .sum();
        // One full extra pass over both inputs.
        assert_eq!(pre, p.a.total_bytes() + p.b.total_bytes());
    }

    #[test]
    fn resolution_happens_exactly_once_per_plan() {
        // Regression for the duplicated-resolution bug class: building a
        // plan (the whole execution path's entry) must run the §3.2
        // optimizer exactly once, not once per stage or per executor.
        let p = MatmulProblem::dense(5_000, 5_000, 5_000);
        let before = crate::optimizer::instrument::optimize_calls();
        let _ = JobPlan::build(&p, MulMethod::CuboidAuto, &laptop());
        assert_eq!(crate::optimizer::instrument::optimize_calls() - before, 1);
    }

    #[test]
    fn producer_tasks_name_the_mult_tasks_behind_each_c_copy() {
        let p = MatmulProblem::dense(5_000, 5_000, 5_000);
        let plan = JobPlan::build(&p, MulMethod::Cuboid(CuboidSpec::new(1, 1, 5)), &laptop());
        let mult = plan.stage(Phase::LocalMult).unwrap();
        for task in &mult.tasks {
            assert!(task.producer_tasks().is_empty(), "no C inputs here");
        }
        // Aggregation inputs carry the producer copy index, and the
        // producer-task view recovers exactly those mult-task indices.
        let agg = plan.stage(Phase::Aggregation).unwrap();
        for task in &agg.tasks {
            let producers = task.producer_tasks();
            for m in &task.inputs {
                assert_eq!(m.operand, Operand::C);
                assert!(producers.contains(&(m.copy as usize)));
                assert!((m.copy as usize) < mult.tasks.len());
            }
        }
    }

    #[test]
    fn deterministic_plans() {
        let p = MatmulProblem::dense(20_000, 20_000, 20_000);
        let cfg = ClusterConfig::paper_cluster();
        let a = JobPlan::build(&p, MulMethod::CuboidAuto, &cfg);
        let b = JobPlan::build(&p, MulMethod::CuboidAuto, &cfg);
        assert_eq!(
            a.phase_comm(Phase::Repartition),
            b.phase_comm(Phase::Repartition)
        );
        assert_eq!(a.stages.len(), b.stages.len());
        for (sa, sb) in a.stages.iter().zip(b.stages.iter()) {
            assert_eq!(sa.tasks.len(), sb.tasks.len());
        }
    }
}

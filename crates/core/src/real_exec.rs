//! The real executor: runs a [`JobPlan`] with materialized blocks (laptop
//! scale) as **one** dependency-gated stage (long form: DESIGN.md §12).
//!
//! All plan construction lives in [`crate::plan`]; this module is a pure
//! plan consumer over the cluster's physical substrate. A job is:
//!
//! 1. a **prologue** (`prepare_job`): the plan is validated against the
//!    cluster's width and membership epoch, operand blocks are installed
//!    into their home nodes' stores (reusing placements still resident from
//!    earlier jobs);
//! 2. **one stage** ([`LocalCluster::run_stage`]) holding every task of the
//!    plan: the local-multiplication tasks, the pre-moves of a map stage
//!    (CRMM's re-blocking), and the aggregation tasks, each of these gated
//!    on the mult tasks that produce its inputs
//!    ([`crate::plan::TaskSpec::producer_tasks`]), so reduction of early C
//!    blocks overlaps multiplication of late ones;
//! 3. an **epilogue**: the result blocks the stage's items handed back — a
//!    mult task's products when the plan does not aggregate (`R = 1`), a
//!    reduce's sums when it does — are placed at their future home nodes,
//!    and the job's statistics are assembled, its model bytes copied once
//!    from the per-phase totals the plan stored at build time — the field
//!    the simulator reports for the same plan, so simulated bytes are the
//!    measured ones.
//!
//! A mult task splits its routed inputs into k-panels and pulls them itself,
//! in k order, on the one thread it runs on: every planned move is resolved
//! once per task attempt through [`Transport::execute`] — shipped, or found
//! resident where another task or an earlier job left it — and the accumulate
//! step for panel `k` starts when panel `k` has landed. A "network transfer"
//! here is encode + CRC + decode on the cores the GEMM needs, so there is no
//! idle engine for a second thread inside a task to hide behind; the overlap
//! this executor has is *between* tasks — aggregation tasks released by their
//! producers while other mult tasks still run. Tasks resolve inputs **only**
//! from their own node's store (a miss on a materialized block is a hard
//! [`TaskError::MissingBlock`]).
//!
//! The dense cuboid body is Algorithm 1's loop,
//! [`gpu_local::execute_cuboid_real`], for every job: it calls the task
//! back at each k step, which is where the panel is pulled and charged to
//! θt. θg is the cluster's (`ClusterConfig::gpu`'s `task_mem_bytes`, the
//! field the plan and the simulator read); without a device the cuboid is
//! one subcuboid. SDDMM and RMM's voxel buckets keep their own bodies.
//!
//! `PhaseStats::secs` of repartition is the prologue plus the time mult
//! tasks spent pulling their panels; local multiplication is the rest of
//! the stage's window (compute, and the pre-move and aggregation traffic
//! running beside it); aggregation runs inside that window and reports
//! bytes but no seconds.

use crate::cuboid::Cuboid;
use crate::gpu_local;
use crate::methods::MulMethod;
use crate::plan::{BlockMove, JobPlan, Operand, TaskSpec, TaskWork};
use crate::problem::MatmulProblem;
use distme_cluster::chaos::run_task;
use distme_cluster::{
    BlockSource, BlockView, ClusterStores, FaultPlan, JobError, JobStats, LocalCluster, NodeStore,
    Phase, StoreKey, TaskCtx, TaskError, TenantId, Transport, TransportStats, WireMove,
};
use distme_matrix::{codec, fresh_matrix_uid, kernels, Block, BlockId, BlockMatrix, CsrBlock};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Options for real execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealExecOptions {
    /// Tenant the job's scheduler leases are attributed to. Defaults to
    /// [`TenantId::ANONYMOUS`], preserving the single-user behaviour for
    /// direct callers.
    pub tenant: TenantId,
    /// Scheduler priority of this job's stage (clamped to the cluster's
    /// configured `priority_levels`; higher wins freed slots first).
    pub priority: u8,
}

/// Multiplies `a × b` distributed over `cluster` with `method`.
///
/// # Errors
/// * [`JobError::TaskFailed`] on shape mismatch;
/// * [`JobError::OutOfMemory`] when a task exceeds θt (or θg);
/// * scheduler errors per [`LocalCluster::run_stage`].
pub fn multiply(
    cluster: &LocalCluster,
    a: &BlockMatrix,
    b: &BlockMatrix,
    method: MulMethod,
) -> Result<(BlockMatrix, JobStats), JobError> {
    let problem = MatmulProblem::new(*a.meta(), *b.meta())?;
    let plan = JobPlan::build(&problem, method, cluster.config()).at_epoch(cluster.epoch());
    execute_plan(cluster, a, b, &plan, RealExecOptions::default())
}

/// Distributed SDDMM: `C = mask ⊙ (A · B)` gathered into the mask's CSR
/// pattern, `A` row-sharded, `B` broadcast ([`MulMethod::Sddmm`]).
///
/// The mask is the *sampling pattern*, not an operand: it is sharded by
/// rows exactly like `A`'s stripes and never crosses the wire, so it adds
/// nothing to the routing view — sim/real byte parity over the plan is
/// unchanged. Stored mask entries (explicit zeros included) mark sampled
/// positions; mask values are ignored.
///
/// # Errors
/// See [`multiply`]; additionally fails when the mask is not
/// `a.rows × b.cols` at the operands' block size.
pub fn sddmm(
    cluster: &LocalCluster,
    a: &BlockMatrix,
    b: &BlockMatrix,
    mask: &BlockMatrix,
) -> Result<(BlockMatrix, JobStats), JobError> {
    let problem = MatmulProblem::sddmm(*a.meta(), *b.meta(), *mask.meta())?;
    let plan =
        JobPlan::build(&problem, MulMethod::Sddmm, cluster.config()).at_epoch(cluster.epoch());
    execute_plan_masked(cluster, a, b, Some(mask), &plan, RealExecOptions::default())
}

/// What a job has before its stage runs: plan/epoch validation, broadcast
/// admission, operand ingest at the plan's home nodes, and the driver-side
/// charge of the plan's model bytes.
struct JobSetup<'a> {
    /// Job-local mirror of the transport counters: the cluster-wide stats
    /// keep accumulating across jobs (session totals) while this job's
    /// numbers come from here. Snapshot-delta accounting would read
    /// concurrent jobs' traffic into this job's stats; a dedicated counter
    /// cannot.
    job_transport: TransportStats,
    /// The fault plan armed when the job began, its job window opened.
    faults: Option<Arc<FaultPlan>>,
    /// Which A / B blocks exist at all (the "namenode index"): a view uses
    /// this to tell an implicit zero from a locality violation.
    a_index: BTreeSet<BlockId>,
    b_index: BTreeSet<BlockId>,
    /// Identity of this job's intermediate C copies in the stores: what
    /// the mult tasks of an aggregating plan (`R > 1`) install for its
    /// reduces to fetch. A plan that does not aggregate installs nothing
    /// under it.
    c_uid: u64,
    /// Parity blocks materialized for the operands at ingest (coded
    /// replication; 0 when [`ReplicationPolicy::Off`](distme_cluster::ReplicationPolicy)).
    parity_blocks_encoded: u64,
    /// Intermediate copies die with the job, however it ends: no handle
    /// carries `c_uid`, so it is never tracked and nothing else would ever
    /// reclaim what a failed job's finished tasks installed.
    _intermediates: EvictOnDrop<'a>,
}

/// Drops every block of `matrix` from the stores when it goes out of scope.
struct EvictOnDrop<'a> {
    stores: &'a ClusterStores,
    matrix: u64,
}

impl Drop for EvictOnDrop<'_> {
    fn drop(&mut self) {
        self.stores.evict_matrix(self.matrix);
    }
}

/// Validates `plan` against the cluster and ingests the operands at their
/// plan homes.
fn prepare_job<'a>(
    cluster: &'a LocalCluster,
    a: &BlockMatrix,
    b: &BlockMatrix,
    plan: &JobPlan,
) -> Result<JobSetup<'a>, JobError> {
    let resolved = &plan.resolved;
    let nodes = cluster.config().nodes;
    if plan.nodes != nodes {
        return Err(JobError::NodeCountMismatch {
            plan: plan.nodes,
            cluster: nodes,
        });
    }
    if plan.epoch != cluster.epoch() {
        return Err(JobError::StaleEpoch {
            plan: plan.epoch,
            cluster: cluster.epoch(),
        });
    }

    // Fault decisions key on the job's ordinal, not on how many stages it
    // runs: the window opens here, once.
    let faults = cluster.fault_plan();
    if let Some(faults) = &faults {
        faults.begin_job();
    }
    // Residency follows the handle: what no one holds any more leaves
    // before this job adds its operands. `a` and `b` are borrowed for the
    // whole job, so no concurrent job's sweep can reclaim them under it.
    let stores = cluster.stores();
    stores.evict_dropped();

    // Broadcast variables are node-level: one shared copy per node must
    // fit. The admission check uses the *backend-local* encoded sizes (the
    // bytes this process would actually pin), not the plan's meta model.
    if resolved.broadcast_b {
        let b_encoded_total: u64 = b.blocks().map(|(_, blk)| codec::encoded_len(blk)).sum();
        if b_encoded_total > cluster.config().node_mem_bytes {
            return Err(JobError::OutOfMemory {
                task: 0,
                needed: b_encoded_total,
                budget: cluster.config().node_mem_bytes,
            });
        }
    }

    let a_index: BTreeSet<BlockId> = a.blocks().map(|(id, _)| id).collect();
    let b_index: BTreeSet<BlockId> = b.blocks().map(|(id, _)| id).collect();

    // Operands land on their plan-placement home nodes; a broadcast B
    // installs one shared `Arc` copy per node instead.
    stores.track(a);
    stores.track(b);
    for (id, blk) in a.blocks_shared() {
        stores.ingest(
            plan.home_of(Operand::A, id),
            StoreKey::operand(a.uid(), id),
            blk,
        );
    }
    for (id, blk) in b.blocks_shared() {
        if resolved.broadcast_b {
            for node in 0..nodes {
                stores.ingest(node, StoreKey::operand(b.uid(), id), Arc::clone(&blk));
            }
        } else {
            stores.ingest(
                plan.home_of(Operand::B, id),
                StoreKey::operand(b.uid(), id),
                blk,
            );
        }
    }
    // Coded replication: materialize parity for the operands now that
    // placement is final, so a node loss during this job can be decoded
    // from group survivors instead of forcing a re-ingest. Idempotent —
    // an operand already coded by an earlier job encodes to nothing.
    let parity_blocks_encoded = cluster.encode_parity(a.uid()) + cluster.encode_parity(b.uid());

    let c_uid = fresh_matrix_uid();
    Ok(JobSetup {
        job_transport: TransportStats::default(),
        faults,
        a_index,
        b_index,
        c_uid,
        parity_blocks_encoded,
        _intermediates: EvictOnDrop {
            stores,
            matrix: c_uid,
        },
    })
}

/// A planned non-mult task lowered for execution: its identity in the plan
/// (what fault decisions key on), its routed moves, and — for aggregation —
/// the producer copies to reduce per output block and the mult tasks that
/// gate it.
struct Lowered {
    phase: Phase,
    task: usize,
    node: usize,
    moves: Vec<WireMove>,
    groups: Vec<(BlockId, Vec<u32>)>,
    producers: BTreeSet<usize>,
}

/// Where the job's communication time went, summed over its tasks.
#[derive(Default)]
struct CommTime {
    /// Mult tasks pulling their own k-panels; the task's one thread does
    /// nothing else meanwhile. Nanoseconds, so that a job of sub-microsecond
    /// pulls does not sum to zero.
    pull_nanos: AtomicU64,
    /// Pre-moves and aggregation fetches: tasks of their own, running
    /// beside other tasks' compute.
    beside_nanos: AtomicU64,
    /// k-panels pulled, re-pulls by retried attempts included.
    panels: AtomicU64,
}

/// Executes `moves` in plan order on the calling task's thread, adding the
/// time they took to `spent`. θt: a serialization buffer counts against the
/// task for the duration of its move, shipped or found resident.
fn deliver(
    ctx: &TaskCtx,
    transport: &Transport<'_>,
    moves: &[WireMove],
    spent: &AtomicU64,
) -> Result<(), TaskError> {
    let t0 = Instant::now();
    let delivered = moves.iter().try_for_each(|mv| {
        let bytes = transport.execute(mv, ctx.attempt)?.encoded_len();
        ctx.alloc(bytes)?;
        ctx.free(bytes);
        Ok(())
    });
    spent.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    delivered
}

/// Groups a mult task's routed inputs into one panel per k step of its
/// cuboid (A moves carry column k, B moves carry row k); any other work
/// shape gets a single all-inputs panel.
fn panels_of(task: &TaskSpec, lower: impl Fn(&BlockMove) -> WireMove) -> Vec<Vec<WireMove>> {
    let TaskWork::Cuboid(c) = &task.work else {
        return vec![task.inputs.iter().map(lower).collect()];
    };
    let mut panels = vec![Vec::new(); (c.k1 - c.k0) as usize];
    for m in &task.inputs {
        let k = match m.operand {
            Operand::A => m.id.col,
            Operand::B => m.id.row,
            Operand::C => c.k0,
        };
        // A move outside the cuboid's k range (a hand-edited plan) rides
        // the first panel: delivered before any compute step.
        let slot = if (c.k0..c.k1).contains(&k) {
            k - c.k0
        } else {
            0
        };
        panels[slot as usize].push(lower(m));
    }
    panels
}

/// Per output block of an aggregation task, the distinct producer copies
/// its routed inputs deliver, ascending.
fn groups_of(task: &TaskSpec) -> Vec<(BlockId, Vec<u32>)> {
    let TaskWork::Aggregate(ids) = &task.work else {
        return Vec::new();
    };
    let mut copies: BTreeMap<BlockId, BTreeSet<u32>> = BTreeMap::new();
    for m in &task.inputs {
        copies.entry(m.id).or_default().insert(m.copy);
    }
    ids.iter()
        .map(|id| {
            let of_block = copies.get(id).into_iter().flatten().copied().collect();
            (*id, of_block)
        })
        .collect()
}

/// Lowers a planned [`BlockMove`] to a physical [`WireMove`] keyed by the
/// replica identity of the operand it carries.
fn lower_move(a_uid: u64, b_uid: u64, c_uid: u64, phase: Phase, m: &BlockMove) -> WireMove {
    let uid = match m.operand {
        Operand::A => a_uid,
        Operand::B => b_uid,
        Operand::C => c_uid,
    };
    let key = StoreKey::replica(uid, m.id, m.copy);
    WireMove {
        phase,
        from_node: m.from_node,
        to_node: m.to_node,
        wire_bytes: m.bytes,
        src: key,
        dst: key,
    }
}

/// Executes `plan` against materialized operands.
///
/// # Errors
/// See [`multiply`]; [`JobError::NodeCountMismatch`] or
/// [`JobError::StaleEpoch`] when `plan` was routed for another grid.
pub fn execute_plan(
    cluster: &LocalCluster,
    a: &BlockMatrix,
    b: &BlockMatrix,
    plan: &JobPlan,
    opts: RealExecOptions,
) -> Result<(BlockMatrix, JobStats), JobError> {
    execute_plan_masked(cluster, a, b, None, plan, opts)
}

/// [`execute_plan`] with an optional SDDMM sampling mask. With a mask, a
/// mult task gathers its output into the mask's row-stripe CSR pattern
/// (`multiply_cuboid_sddmm`) instead of running the dense accumulator,
/// and the result skips density normalization so the pattern survives
/// verbatim. Everything else — ingest, routing, model bytes, panel pulls,
/// aggregation, placement — is the dense path.
pub fn execute_plan_masked(
    cluster: &LocalCluster,
    a: &BlockMatrix,
    b: &BlockMatrix,
    mask: Option<&BlockMatrix>,
    plan: &JobPlan,
    opts: RealExecOptions,
) -> Result<(BlockMatrix, JobStats), JobError> {
    let problem = &plan.problem;
    let nodes = cluster.config().nodes;
    let broadcast_b = plan.resolved.broadcast_b;
    // θg comes from the cluster the job runs on, like the plan's and the
    // simulator's; a cluster without a device has none.
    let theta_g = cluster.config().gpu.map(|g| g.task_mem_bytes);

    let prep_timer = Instant::now();
    let setup = prepare_job(cluster, a, b, plan)?;
    let (c_uid, job_transport) = (setup.c_uid, &setup.job_transport);
    // Task faults key on an item's plan identity, known here and not in the
    // stage runner, so the items consult the fault plan themselves.
    let faults = setup.faults.as_deref();
    let stores = cluster.stores();
    let prep_secs = prep_timer.elapsed().as_secs_f64();

    // ------------- The item list ------------------------------------------
    let stage_timer = Instant::now();
    let mult_stage = plan.stage(Phase::LocalMult).expect("plans always multiply");
    let mult_n = mult_stage.tasks.len();
    let needs_agg = plan.stage(Phase::Aggregation).is_some();

    // Item `t < mult_n` is the plan's mult task `t` — so the replica copy
    // index and the round-robin node both follow the plan; item `mult_n + l`
    // is `lowered[l]`: the pre-moves of a map stage (CRMM), then the
    // aggregation tasks.
    let lower = |phase: Phase, m: &BlockMove| lower_move(a.uid(), b.uid(), c_uid, phase, m);
    let mult_panels: Vec<Vec<Vec<WireMove>>> = mult_stage
        .tasks
        .iter()
        .map(|t| panels_of(t, |m| lower(mult_stage.input_phase, m)))
        .collect();
    let mut lowered: Vec<Lowered> = Vec::new();
    for stage in plan.stages.iter().filter(|s| s.phase != Phase::LocalMult) {
        for (t, task) in stage.tasks.iter().enumerate() {
            if stage.phase != Phase::Aggregation && task.inputs.is_empty() {
                continue;
            }
            lowered.push(Lowered {
                phase: stage.phase,
                task: t,
                node: task.node,
                moves: task
                    .inputs
                    .iter()
                    .map(|m| lower(stage.input_phase, m))
                    .collect(),
                groups: groups_of(task),
                producers: task.producer_tasks(),
            });
        }
    }

    // Aggregation gating: each agg task counts down its distinct producer
    // mult tasks; the last producer to finish marks it ready. Everything
    // else is dispatchable at once.
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); mult_n];
    let mut initially_ready: Vec<usize> = (0..mult_n).collect();
    for (l, task) in lowered.iter().enumerate() {
        if task.producers.is_empty() {
            initially_ready.push(mult_n + l);
        }
        for &p in &task.producers {
            debug_assert!(p < mult_n, "C copy {p} names a mult task");
            consumers[p].push(l);
        }
    }
    let remaining: Vec<AtomicUsize> = lowered
        .iter()
        .map(|task| AtomicUsize::new(task.producers.len()))
        .collect();

    let transport = cluster.transport().with_job_counters(job_transport);
    let comm = CommTime::default();
    // The C copies each mult task of an aggregating plan installed. An
    // attempt that crashes at completion leaves the same installs behind as
    // its retry makes, so whichever attempt sets this describes both; an agg
    // task only asks about its own (finished, gated-on) producers, so what
    // it reads is always complete.
    let produced: Vec<OnceLock<Vec<BlockId>>> = (0..mult_n).map(|_| OnceLock::new()).collect();
    let run_mult = |ctx: &TaskCtx, task: usize| -> Result<Vec<(BlockId, Block)>, TaskError> {
        let spec = &mult_stage.tasks[task];
        debug_assert_eq!(spec.node, ctx.node);
        let store = stores.node(ctx.node);
        let a_view = BlockView::new(store, a.uid(), &setup.a_index);
        let b_view = BlockView::new(store, b.uid(), &setup.b_index);
        let panels = &mult_panels[task];
        // Makes panel `p` readable: the task pulls the panel's moves itself.
        let fetch = |p: usize| {
            comm.panels.fetch_add(1, Ordering::Relaxed);
            deliver(ctx, &transport, &panels[p], &comm.pull_nanos)
        };
        let drain = || (0..panels.len()).try_for_each(fetch);
        let blocks: Vec<(BlockId, Block)> = match &spec.work {
            TaskWork::Cuboid(cuboid) => {
                // θt: the operand blocks of k step `k0 + p`.
                let panel_bytes =
                    |p: usize| panel_input_bytes(cuboid, p as u32, &a_view, &b_view, broadcast_b);
                let products: Vec<(BlockId, Block)> = match mask {
                    // Algorithm 1 accumulates each k-panel as it lands,
                    // charging its inputs then.
                    None => gpu_local::execute_cuboid_real(
                        cuboid,
                        &a_view,
                        &b_view,
                        problem,
                        theta_g,
                        |p| {
                            fetch(p)?;
                            ctx.alloc(panel_bytes(p)?)
                        },
                    )?
                    .blocks
                    .into_iter()
                    .map(|(id, d)| (id, Block::Dense(d)))
                    .collect(),
                    // SDDMM consumes the whole input set at once: drain
                    // every panel, then run.
                    Some(mask) => {
                        drain()?;
                        let whole: Result<u64, _> = (0..panels.len()).map(panel_bytes).sum();
                        ctx.alloc(whole?)?;
                        multiply_cuboid_sddmm(cuboid, &a_view, &b_view, mask)?
                            .into_iter()
                            .map(|(id, csr)| (id, Block::Sparse(csr)))
                            .collect()
                    }
                };
                for (_, blk) in &products {
                    ctx.alloc(blk.mem_bytes())?;
                }
                Ok(products)
            }
            TaskWork::Voxels(voxels) => {
                drain()?;
                Ok(multiply_voxels(ctx, voxels, &a_view, &b_view)?
                    .into_iter()
                    .collect())
            }
            // Map and aggregation work never reaches a mult task.
            TaskWork::MapRead | TaskWork::Aggregate(_) => drain().map(|()| Vec::new()),
        }?;

        if needs_agg {
            // R > 1: the products are copies for the reduce to fetch.
            let ids = blocks.iter().map(|(id, _)| *id).collect();
            for (id, blk) in blocks {
                store.install(StoreKey::replica(c_uid, id, task as u32), Arc::new(blk));
            }
            let _ = produced[task].set(ids);
            return Ok(Vec::new());
        }
        // R = 1 products are final where they were computed, and get the
        // dense/sparse normalization a reduce would apply; a sampled product
        // keeps the mask's pattern (explicit zeros included) verbatim. An
        // all-zero block is dropped here: the result holds only non-zeros.
        Ok(match mask {
            Some(_) => blocks
                .into_iter()
                .filter(|(_, blk)| blk.nnz() > 0)
                .collect(),
            None => blocks
                .into_iter()
                .filter_map(|(id, blk)| Some((id, blk.normalize_nonzero()?)))
                .collect(),
        })
    };

    // An item hands the driver the non-zero result blocks it finished: a
    // mult task's products when nothing aggregates them, a reduce's sums.
    let run = cluster.run_stage(
        opts.tenant,
        opts.priority,
        mult_n + lowered.len(),
        initially_ready,
        |ctx, gate| {
            let Some(l) = ctx.task.checked_sub(mult_n) else {
                let task = ctx.task;
                let finals = run_task(
                    faults,
                    Phase::LocalMult,
                    task,
                    ctx.node,
                    ctx.attempt,
                    || run_mult(ctx, task),
                )?;
                // Only an attempt that survived signals: installs of a
                // crashed attempt stay behind (its retry re-installs the
                // same bytes), but consumers count each producer once.
                for &l in &consumers[task] {
                    if remaining[l].fetch_sub(1, Ordering::AcqRel) == 1 {
                        gate.mark_ready(mult_n + l);
                    }
                }
                return Ok(finals);
            };
            let l = &lowered[l];
            run_task(faults, l.phase, l.task, l.node, ctx.attempt, || {
                deliver(ctx, &transport, &l.moves, &comm.beside_nanos)?;
                if l.phase != Phase::Aggregation {
                    return Ok(Vec::new());
                }
                // Every producer has finished (gating invariant), so the
                // planned copies were installed at their sources before
                // the fetches above ran — while other mult tasks still do.
                reduce_groups(ctx, stores.node(l.node), c_uid, &l.groups, &|id, copy| {
                    produced[copy as usize]
                        .get()
                        .is_some_and(|ids| ids.contains(&id))
                })
            })
        },
    )?;
    // Retry backoff is charged to modeled time, never slept.
    let stage_secs = stage_timer.elapsed().as_secs_f64() + run.backoff_secs;

    // ------------- Result assembly ----------------------------------------
    // Every block arrives from the task that finished it, per the plan's
    // routing — never from a driver-side regroup or a store read.
    let mut c = BlockMatrix::new(problem.c);
    for (id, blk) in run.outputs.into_iter().flatten() {
        c.put_shared(id.row, id.col, Arc::new(blk))?;
    }

    // The *result* placement is registered at the blocks' future home
    // nodes so a chained operation consuming `c` as an operand (GNMF's
    // repeated factors) re-ingests nothing. It stays as long as the
    // caller keeps a handle to `c`.
    stores.track(&c);
    for (id, blk) in c.blocks_shared() {
        let key = StoreKey::operand(c.uid(), id);
        stores.ingest(
            crate::plan::operand_home(Operand::A, id, nodes),
            key,
            Arc::clone(&blk),
        );
        stores.ingest(crate::plan::operand_home(Operand::B, id, nodes), key, blk);
    }
    // Result blocks whose two placement hashes collide are sole copies;
    // parity over the result keeps those recoverable too.
    let parity_blocks_encoded = setup.parity_blocks_encoded + cluster.encode_parity(c.uid());

    // ------------- Statistics ---------------------------------------------
    // Model bytes are the plan's, copied once from the per-phase totals
    // it stored when it was built — never counted per physical delivery,
    // so fault-injected drops and lineage redeliveries cannot skew them
    // (retransmitted bytes show up only in the transport's own counters).
    // Physical bytes come from the job-local transport mirror. Neither
    // reads shared state a concurrent job could be mutating. Time splits
    // by where it went; see the module docs.
    let pull_secs = comm.pull_nanos.load(Ordering::Relaxed) as f64 / 1e9;
    let comm_secs = pull_secs + comm.beside_nanos.load(Ordering::Relaxed) as f64 / 1e9;
    let stall_secs = pull_secs.min(stage_secs);
    let mut stats = JobStats {
        elapsed_secs: prep_secs + stage_secs,
        peak_task_mem_bytes: run.peak_task_mem_bytes,
        intermediate_bytes: plan.phase_comm(Phase::Repartition).shuffle_bytes
            + plan.phase_comm(Phase::Aggregation).shuffle_bytes,
        transport_payload_bytes: job_transport.payload_bytes(),
        elided_moves: job_transport.elided(),
        elided_payload_bytes: job_transport.elided_payload_bytes(),
        retries: run.retries,
        redelivered_moves: job_transport.redelivered(),
        retransmitted_payload_bytes: job_transport.retransmitted_bytes(),
        overlap_ratio: (comm_secs > 0.0)
            .then(|| ((comm_secs - stall_secs) / comm_secs).clamp(0.0, 1.0)),
        // No panel is ever moved ahead of the loop that consumes it.
        prefetch_hits: 0,
        prefetch_stalls: comm.panels.load(Ordering::Relaxed),
        parity_blocks_encoded,
        reconstructed_blocks: job_transport.reconstructed(),
        reconstruction_payload_bytes: job_transport.reconstruction_bytes(),
        ..Default::default()
    };
    for (phase, secs) in [
        (Phase::Repartition, prep_secs + stall_secs),
        (Phase::LocalMult, (stage_secs - stall_secs).max(0.0)),
        (Phase::Aggregation, 0.0),
    ] {
        let ps = stats.phase_mut(phase);
        ps.secs = secs;
        ps.tasks = plan.stage(phase).map_or(0, |s| s.tasks.len());
    }
    plan.report_comm(&mut stats);
    Ok((c, stats))
}

/// Encoded bytes of the operand blocks k step `k0 + p` of a cuboid reads
/// from its node store (a broadcast B is node-level and charged there, not
/// to the task).
fn panel_input_bytes<A: BlockSource, B: BlockSource>(
    cuboid: &Cuboid,
    p: u32,
    a: &A,
    b: &B,
    broadcast_b: bool,
) -> Result<u64, TaskError> {
    let k = cuboid.k0 + p;
    let mut bytes = 0u64;
    for i in cuboid.i0..cuboid.i1 {
        if let Some(blk) = a.block(i, k)? {
            bytes += codec::encoded_len(&blk);
        }
    }
    if !broadcast_b {
        for j in cuboid.j0..cuboid.j1 {
            if let Some(blk) = b.block(k, j)? {
                bytes += codec::encoded_len(&blk);
            }
        }
    }
    Ok(bytes)
}

/// RMM voxel work: one isolated block product per voxel, no sharing.
/// Same-(i, j) voxels of one bucket pre-accumulate into a single
/// intermediate copy (the task produces one block per destination, like a
/// combiner before the shuffle).
fn multiply_voxels<A: BlockSource, B: BlockSource>(
    ctx: &TaskCtx,
    voxels: &[(u32, u32, u32)],
    a: &A,
    b: &B,
) -> Result<BTreeMap<BlockId, Block>, TaskError> {
    let mut acc: BTreeMap<BlockId, Block> = BTreeMap::new();
    for &(i, j, k) in voxels {
        let (Some(ab), Some(bb)) = (a.block(i, k)?, b.block(k, j)?) else {
            continue;
        };
        ctx.alloc(codec::encoded_len(&ab) + codec::encoded_len(&bb))?;
        let prod = kernels::multiply(&ab, &bb)?;
        ctx.alloc(prod.mem_bytes())?;
        match acc.entry(BlockId::new(i, j)) {
            Entry::Vacant(slot) => {
                slot.insert(prod);
            }
            Entry::Occupied(mut slot) => slot.get_mut().add_assign(&prod)?,
        }
    }
    Ok(acc)
}

/// One aggregation task's reduce: sums the planned intermediate copies of
/// each output block resident in `store`, the task's node, in copy order —
/// the first cloned, each later one added into it in place — and returns
/// the non-zero sums. `produced` answers whether a (block, producer-copy)
/// pair physically exists somewhere — a produced copy that never reached
/// this node is a routing bug; an unproduced one is an implicit zero.
///
/// The store's copies are only read, so a retried reduce starts again from
/// a fresh clone of the first.
fn reduce_groups(
    ctx: &TaskCtx,
    store: &NodeStore,
    c_uid: u64,
    groups: &[(BlockId, Vec<u32>)],
    produced: &dyn Fn(BlockId, u32) -> bool,
) -> Result<Vec<(BlockId, Block)>, TaskError> {
    let mut out: Vec<(BlockId, Block)> = Vec::new();
    for &(id, ref copies) in groups {
        let mut acc: Option<Block> = None;
        for &copy in copies {
            match store.get(&StoreKey::replica(c_uid, id, copy)) {
                Some(part) => {
                    ctx.alloc(part.mem_bytes())?;
                    match &mut acc {
                        None => acc = Some((*part).clone()),
                        Some(sum) => sum.add_assign(&part)?,
                    }
                }
                None if produced(id, copy) => {
                    return Err(TaskError::MissingBlock {
                        node: store.node(),
                        id,
                    });
                }
                None => {}
            }
        }
        if let Some(block) = acc.and_then(Block::normalize_nonzero) {
            out.push((id, block));
        }
    }
    Ok(out)
}

/// Sampled cuboid multiplication: each output block of the cuboid's
/// `ij`-face gathers `A·B` into the co-located mask block's CSR pattern.
/// Mask blocks are read straight off the stationary mask matrix — they
/// ride with the cuboid's row stripe by construction and never shuffle.
/// Dot products accumulate over `k` ascending, so block results are
/// bit-deterministic for a fixed cuboid grid.
fn multiply_cuboid_sddmm<A: BlockSource, B: BlockSource>(
    cuboid: &Cuboid,
    a: &A,
    b: &B,
    mask: &BlockMatrix,
) -> Result<Vec<(BlockId, CsrBlock)>, TaskError> {
    let mut out = Vec::new();
    for i in cuboid.i0..cuboid.i1 {
        for j in cuboid.j0..cuboid.j1 {
            let Some(mblk) = mask.get(i, j) else {
                continue; // no sampled positions in this block
            };
            let pattern = mblk.to_sparse();
            if pattern.nnz() == 0 {
                continue;
            }
            let mut values = vec![0.0; pattern.nnz()];
            for k in cuboid.k0..cuboid.k1 {
                let (Some(ab), Some(bb)) = (a.block(i, k)?, b.block(k, j)?) else {
                    continue;
                };
                kernels::sddmm::sddmm_acc(&ab.to_dense(), &bb.to_dense(), &pattern, &mut values)?;
            }
            let csr = CsrBlock::from_raw_parts(
                pattern.rows(),
                pattern.cols(),
                pattern.row_ptr().to_vec(),
                pattern.col_idx().to_vec(),
                values,
            )?;
            out.push((BlockId::new(i, j), csr));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cuboid::CuboidSpec;
    use distme_cluster::ClusterConfig;
    use distme_matrix::{MatrixGenerator, MatrixMeta};

    fn cluster() -> LocalCluster {
        LocalCluster::new(ClusterConfig::laptop())
    }

    fn operands(bs: u64, sparsity: f64) -> (BlockMatrix, BlockMatrix, BlockMatrix) {
        let am = MatrixMeta::sparse(5 * bs, 4 * bs, sparsity).with_block_size(bs);
        let bm = MatrixMeta::sparse(4 * bs, 3 * bs, sparsity).with_block_size(bs);
        let a = MatrixGenerator::with_seed(11).generate(&am).unwrap();
        let b = MatrixGenerator::with_seed(22).generate(&bm).unwrap();
        let reference = a.multiply(&b).unwrap();
        (a, b, reference)
    }

    #[test]
    fn every_method_computes_the_reference_product() {
        let (a, b, reference) = operands(16, 1.0);
        for method in [
            MulMethod::Bmm,
            MulMethod::Cpmm,
            MulMethod::Rmm,
            MulMethod::CuboidAuto,
            MulMethod::Cuboid(CuboidSpec::new(2, 2, 2)),
            MulMethod::Crmm,
        ] {
            let c = cluster();
            let (prod, _) = multiply(&c, &a, &b, method)
                .unwrap_or_else(|e| panic!("{} failed: {e}", method.name()));
            let diff = prod.max_abs_diff(&reference).unwrap();
            assert!(diff < 1e-9, "{}: diff {diff}", method.name());
        }
    }

    #[test]
    fn sparse_operands_work_across_methods() {
        let (a, b, reference) = operands(16, 0.08);
        for method in [MulMethod::Cpmm, MulMethod::Rmm, MulMethod::CuboidAuto] {
            let c = cluster();
            let (prod, _) = multiply(&c, &a, &b, method).unwrap();
            assert!(
                prod.max_abs_diff(&reference).unwrap() < 1e-9,
                "{}",
                method.name()
            );
        }
    }

    #[test]
    fn measured_communication_ordering_matches_table2() {
        // RMM must shuffle strictly more than CuboidMM; BMM must broadcast.
        let (a, b, _) = operands(16, 1.0);
        let mut comm = std::collections::HashMap::new();
        for method in [MulMethod::Rmm, MulMethod::CuboidAuto, MulMethod::Bmm] {
            let c = cluster();
            let (_, stats) = multiply(&c, &a, &b, method).unwrap();
            comm.insert(method.name().to_string(), stats);
        }
        assert!(
            comm["RMM"].total_shuffle_bytes() > comm["CuboidMM"].total_shuffle_bytes(),
            "RMM {} vs CuboidMM {}",
            comm["RMM"].total_shuffle_bytes(),
            comm["CuboidMM"].total_shuffle_bytes()
        );
        assert!(comm["BMM"].total_broadcast_bytes() > 0);
        assert_eq!(comm["CuboidMM"].total_broadcast_bytes(), 0);
    }

    #[test]
    fn task_memory_budget_produces_oom() {
        let (a, b, _) = operands(16, 1.0);
        let mut cfg = ClusterConfig::laptop();
        cfg.task_mem_bytes = 10_000; // smaller than one BMM task's |B|
        let c = LocalCluster::new(cfg);
        let err = multiply(&c, &a, &b, MulMethod::Bmm).unwrap_err();
        assert_eq!(err.annotation(), "O.O.M.");
    }

    #[test]
    fn repeated_runs_report_identical_counters() {
        // 512 KiB A blocks, three k-panels per task: which worker runs a
        // task, and when, varies run to run — and so does which of two
        // tasks on one node ships a block they share (most often over the
        // many small tasks of the 16-row blocks). What the job reports
        // must not.
        let am = MatrixMeta::dense(512, 768).with_block_size(256);
        let bm = MatrixMeta::dense(768, 16).with_block_size(256);
        let a = MatrixGenerator::with_seed(11).generate(&am).unwrap();
        let b = MatrixGenerator::with_seed(22).generate(&bm).unwrap();
        let (small_a, small_b, _) = operands(16, 1.0);
        let methods = [
            MulMethod::Bmm,
            MulMethod::Cpmm,
            MulMethod::Rmm,
            MulMethod::CuboidAuto,
            MulMethod::Crmm,
        ];
        for ((a, b), method) in [(&a, &b), (&small_a, &small_b)]
            .into_iter()
            .flat_map(|operands| methods.map(|m| (operands, m)))
        {
            let run = || {
                let c = cluster();
                let (_, s) = multiply(&c, a, b, method).unwrap();
                (
                    s.peak_task_mem_bytes,
                    (s.transport_payload_bytes, s.elided_payload_bytes),
                    (c.transport_stats().moves(), s.elided_moves),
                )
            };
            let first = run();
            assert!(first.0 > 0 && first.1 .0 > 0 && first.2 .0 > 0);
            for _ in 1..10 {
                assert_eq!(
                    run(),
                    first,
                    "{}: (peak θt bytes, (payload, elided) bytes, (moves, elided))",
                    method.name()
                );
            }
        }
    }

    #[test]
    fn a_job_of_sub_microsecond_pulls_still_reports_overlap() {
        // One 1×1 block a side: each pull can finish inside a microsecond,
        // and a job whose pulls were each truncated to whole microseconds
        // summed to zero and reported no overlap at all (most runs did).
        let am = MatrixMeta::dense(1, 1).with_block_size(1);
        let a = MatrixGenerator::with_seed(1).generate(&am).unwrap();
        let b = MatrixGenerator::with_seed(2).generate(&am).unwrap();
        let c = cluster();
        for run in 0..300 {
            let (_, stats) = multiply(&c, &a, &b, MulMethod::CuboidAuto).unwrap();
            assert!(
                stats.overlap_ratio.is_some(),
                "run {run} reports no overlap"
            );
        }
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let am = MatrixMeta::dense(32, 32).with_block_size(16);
        let bm = MatrixMeta::dense(48, 32).with_block_size(16);
        let a = MatrixGenerator::with_seed(1).generate(&am).unwrap();
        let b = MatrixGenerator::with_seed(2).generate(&bm).unwrap();
        assert!(matches!(
            multiply(&cluster(), &a, &b, MulMethod::CuboidAuto),
            Err(JobError::TaskFailed { .. })
        ));
    }

    #[test]
    fn aggregation_bytes_zero_when_r_is_one() {
        let (a, b, _) = operands(16, 1.0);
        let c = cluster();
        let (_, stats) = multiply(&c, &a, &b, MulMethod::Cuboid(CuboidSpec::new(2, 2, 1))).unwrap();
        assert_eq!(stats.phase(Phase::Aggregation).shuffle_bytes, 0);
        // And CPMM (R = K) must aggregate.
        let c = cluster();
        let (_, stats) = multiply(&c, &a, &b, MulMethod::Cpmm).unwrap();
        assert!(stats.phase(Phase::Aggregation).shuffle_bytes > 0);
    }

    #[test]
    fn stats_report_intermediate_bytes() {
        let (a, b, _) = operands(16, 1.0);
        let c = cluster();
        let (_, stats) = multiply(&c, &a, &b, MulMethod::Cpmm).unwrap();
        assert_eq!(
            stats.intermediate_bytes,
            stats.phase(Phase::Repartition).shuffle_bytes
                + stats.phase(Phase::Aggregation).shuffle_bytes
        );
    }

    #[test]
    fn transport_counts_real_payload_bytes() {
        let (a, b, _) = operands(16, 1.0);
        let c = cluster();
        let (_, stats) = multiply(&c, &a, &b, MulMethod::Cpmm).unwrap();
        // Repartition + aggregation moved physical blocks through the
        // codec; the payload counter reflects the encoded bytes.
        assert!(stats.transport_payload_bytes > 0);
        assert_eq!(
            stats.transport_payload_bytes,
            c.transport_stats().payload_bytes()
        );
    }

    #[test]
    fn ledger_accumulates_across_jobs() {
        // A job's stats carry its own model bytes — the plan's, copied
        // once — never a running total of the cluster's: a second identical
        // job reports exactly what the first did, and merging the two is
        // what accumulates.
        let (a, b, _) = operands(16, 1.0);
        let c = cluster();
        let problem = MatmulProblem::new(*a.meta(), *b.meta()).unwrap();
        let plan = JobPlan::build(&problem, MulMethod::Cpmm, c.config());
        let (_, first) = multiply(&c, &a, &b, MulMethod::Cpmm).unwrap();
        let (_, second) = multiply(&c, &a, &b, MulMethod::Cpmm).unwrap();
        assert!(first.phase(Phase::Repartition).shuffle_bytes > 0);
        for phase in Phase::ALL {
            let comm = plan.phase_comm(phase);
            let planned = (
                comm.shuffle_bytes,
                comm.cross_node_bytes,
                comm.broadcast_bytes,
            );
            for stats in [&first, &second] {
                let ps = stats.phase(phase);
                let reported = (ps.shuffle_bytes, ps.cross_node_bytes, ps.broadcast_bytes);
                assert_eq!(reported, planned, "{}", phase.label());
            }
        }
        let mut both = first;
        both.merge(&second);
        assert_eq!(both.communication_bytes(), 2 * first.communication_bytes());
    }

    #[test]
    fn identical_job_reuses_resident_operands() {
        // An R = 1 grid: every move carries an operand block. The second
        // job finds each one resident where the first left it.
        let (a, b, _) = operands(16, 1.0);
        let c = cluster();
        let method = MulMethod::Cuboid(CuboidSpec::new(2, 2, 1));
        let (_, first) = multiply(&c, &a, &b, method).unwrap();
        let moves_before = c.transport_stats().moves();
        let (_, second) = multiply(&c, &a, &b, method).unwrap();
        assert!(first.transport_payload_bytes > 0);
        assert_eq!(second.transport_payload_bytes, 0, "nothing ships again");
        assert_eq!(
            second.elided_moves,
            c.transport_stats().moves() - moves_before
        );
        assert_eq!(
            second.elided_payload_bytes,
            first.transport_payload_bytes + first.elided_payload_bytes
        );
        assert_eq!(second.peak_task_mem_bytes, first.peak_task_mem_bytes);
    }

    #[test]
    fn each_block_ships_at_most_once_per_node() {
        // Dense 16×16 blocks all encode to one length, and every planned
        // move's source exists on its home node alone: what ships is one
        // copy per (destination, key) that is not already there.
        let (a, b, _) = operands(16, 1.0);
        let len = codec::encoded_len(&a.get_shared(0, 0).unwrap());
        for method in [
            MulMethod::Bmm,
            MulMethod::Cpmm,
            MulMethod::Rmm,
            MulMethod::CuboidAuto,
            MulMethod::Cuboid(CuboidSpec::new(2, 2, 2)),
            MulMethod::Crmm,
        ] {
            let c = cluster();
            let problem = MatmulProblem::new(*a.meta(), *b.meta()).unwrap();
            let plan = JobPlan::build(&problem, method, c.config());
            let moves: Vec<&BlockMove> = plan
                .stages
                .iter()
                .flat_map(|s| &s.tasks)
                .flat_map(|t| &t.inputs)
                .collect();
            let remote: BTreeSet<_> = moves
                .iter()
                .filter(|m| m.from_node != m.to_node)
                .map(|m| (m.to_node, m.operand, m.id, m.copy))
                .collect();
            let (_, stats) = execute_plan(&c, &a, &b, &plan, RealExecOptions::default()).unwrap();
            let name = method.name();
            assert_eq!(
                stats.transport_payload_bytes,
                remote.len() as u64 * len,
                "{name}"
            );
            assert_eq!(
                stats.elided_moves,
                (moves.len() - remote.len()) as u64,
                "{name}"
            );
            assert_eq!(
                stats.transport_payload_bytes + stats.elided_payload_bytes,
                moves.len() as u64 * len,
                "{name}"
            );
        }
    }

    #[test]
    fn unrouted_block_read_fails_with_missing_block() {
        let (a, b, _) = operands(16, 1.0);
        let c = cluster();
        let problem = MatmulProblem::new(*a.meta(), *b.meta()).unwrap();
        let mut plan = JobPlan::build(&problem, MulMethod::Cpmm, c.config());
        // Pick one cross-node A delivery and drop every move that would
        // land that block on that node: the consuming task must fail
        // loudly, not silently fall through to shared memory.
        let (victim_id, victim_node) = plan
            .stage(Phase::LocalMult)
            .unwrap()
            .tasks
            .iter()
            .flat_map(|t| t.inputs.iter())
            .find(|m| m.operand == Operand::A && m.from_node != m.to_node)
            .map(|m| (m.id, m.to_node))
            .expect("CPMM has cross-node A moves");
        for stage in &mut plan.stages {
            for task in &mut stage.tasks {
                task.inputs.retain(|m| {
                    !(m.operand == Operand::A && m.id == victim_id && m.to_node == victim_node)
                });
            }
        }
        let err = execute_plan(&c, &a, &b, &plan, RealExecOptions::default()).unwrap_err();
        assert!(
            err.to_string().contains("not resident"),
            "expected a MissingBlock failure, got: {err}"
        );
    }

    #[test]
    fn a_plan_from_a_dead_grid_is_rejected_even_at_matching_node_count() {
        let (a, b, _) = operands(16, 1.0);
        let mut c = cluster();
        let problem = MatmulProblem::new(*a.meta(), *b.meta()).unwrap();
        let plan = JobPlan::build(&problem, MulMethod::Cpmm, c.config()); // epoch 0
        c.scale_to(6).unwrap();
        c.scale_to(4).unwrap();
        // Node count matches again, but the grid the plan routed for is
        // two membership changes gone.
        let err = execute_plan(&c, &a, &b, &plan, RealExecOptions::default()).unwrap_err();
        assert!(err.to_string().contains("stale"), "got: {err}");
    }

    #[test]
    fn a_failed_job_leaves_no_intermediates_resident() {
        use distme_cluster::{Blackout, FaultSpec};
        let (a, b, _) = operands(16, 1.0);
        let c = cluster();
        c.inject_faults(FaultSpec {
            blackouts: vec![Blackout {
                node: 1,
                from: (0, Phase::Aggregation),
                until: (0, Phase::Aggregation),
            }],
            ..FaultSpec::quiet(1)
        });
        // Node 1 goes dark for the aggregation phase only: the mult tasks
        // an aggregation task waits on have installed their C copies by the
        // time it exhausts its retries and fails the job.
        let err = multiply(&c, &a, &b, MulMethod::Cpmm).unwrap_err();
        assert!(matches!(err, JobError::TaskFailed { .. }), "got: {err}");
        let stray: Vec<StoreKey> = c
            .stores()
            .resident_keys()
            .into_keys()
            .filter(|key| key.matrix != a.uid() && key.matrix != b.uid())
            .collect();
        assert!(stray.is_empty(), "the dead job's copies: {stray:?}");
    }

    #[test]
    fn a_crashed_final_product_task_hands_its_blocks_back_exactly_once() {
        use distme_cluster::FaultSpec;
        // GNMF's W·(HHᵀ): eight row stripes times one block, an (8,1,1)
        // grid — no aggregation, so each mult task's products are final
        // and come back through the stage's outputs.
        let am = MatrixMeta::dense(8 * 16, 16).with_block_size(16);
        let bm = MatrixMeta::dense(16, 16).with_block_size(16);
        let a = MatrixGenerator::with_seed(51).generate(&am).unwrap();
        let b = MatrixGenerator::with_seed(52).generate(&bm).unwrap();
        let method = MulMethod::Cuboid(CuboidSpec::new(8, 1, 1));
        let bits = |m: &BlockMatrix| -> Vec<(BlockId, Vec<u8>)> {
            m.blocks()
                .map(|(id, blk)| (id, codec::encode(blk).to_vec()))
                .collect()
        };
        let (clean, clean_stats) = multiply(&cluster(), &a, &b, method).unwrap();
        assert_eq!((clean.num_materialized(), clean_stats.retries), (8, 0));

        let c = cluster();
        let faults = c.inject_faults(FaultSpec {
            crash_rate: 0.1,
            ..FaultSpec::quiet(3)
        });
        let (prod, stats) = multiply(&c, &a, &b, method).unwrap();
        // One mult task crashed at completion, its products with it; the
        // retry's are the only ones the driver sees.
        assert_eq!((faults.crashed(), stats.retries), (1, 1));
        assert_eq!(bits(&prod), bits(&clean));
        let stray: Vec<StoreKey> = c
            .stores()
            .resident_keys()
            .into_keys()
            .filter(|key| ![a.uid(), b.uid(), prod.uid()].contains(&key.matrix))
            .collect();
        assert!(
            stray.is_empty(),
            "neither attempt installed a copy: {stray:?}"
        );
    }

    #[test]
    fn spmm_shift_computes_the_reference_product() {
        let am = MatrixMeta::sparse(5 * 16, 4 * 16, 0.06).with_block_size(16);
        let bm = MatrixMeta::dense(4 * 16, 2 * 16).with_block_size(16);
        let a = MatrixGenerator::with_seed(31).generate(&am).unwrap();
        let b = MatrixGenerator::with_seed(32).generate(&bm).unwrap();
        let reference = a.multiply(&b).unwrap();
        let c = cluster();
        let (prod, stats) = multiply(&c, &a, &b, MulMethod::SpmmShift).unwrap();
        assert!(prod.max_abs_diff(&reference).unwrap() < 1e-9);
        // Row stripes stay put; the dense factor repartitions (no torrent).
        assert_eq!(stats.total_broadcast_bytes(), 0);
        assert!(stats.total_shuffle_bytes() > 0);
    }

    #[test]
    fn sddmm_gathers_the_masked_product_into_the_mask_pattern() {
        let am = MatrixMeta::dense(5 * 16, 3 * 16).with_block_size(16);
        let bm = MatrixMeta::dense(3 * 16, 4 * 16).with_block_size(16);
        let mm = MatrixMeta::sparse(5 * 16, 4 * 16, 0.12).with_block_size(16);
        let a = MatrixGenerator::with_seed(41).generate(&am).unwrap();
        let b = MatrixGenerator::with_seed(42).generate(&bm).unwrap();
        let mask = MatrixGenerator::with_seed(43).generate(&mm).unwrap();
        let full = a.multiply(&b).unwrap();
        let c = cluster();
        let (prod, stats) = sddmm(&c, &a, &b, &mask).unwrap();
        // Every sampled position carries the dense product's value...
        let mut sampled = 0usize;
        for (id, blk) in prod.blocks() {
            let Block::Sparse(s) = blk else {
                panic!("SDDMM output blocks stay in the mask's CSR pattern");
            };
            for (i, j, v) in s.iter() {
                let gi = id.row as u64 * 16 + i as u64;
                let gj = id.col as u64 * 16 + j as u64;
                let expect = full.get_element(gi, gj);
                assert!((v - expect).abs() < 1e-9, "({gi}, {gj})");
                sampled += 1;
            }
        }
        // ...and only the sampled positions exist.
        assert_eq!(sampled as u64, mask.nnz());
        // The mask is stationary: communication is B's broadcast only.
        assert!(stats.total_broadcast_bytes() > 0);
        assert_eq!(stats.phase(Phase::Aggregation).shuffle_bytes, 0);
    }

    #[test]
    fn sddmm_rejects_a_mismatched_mask() {
        let am = MatrixMeta::dense(32, 32).with_block_size(16);
        let a = MatrixGenerator::with_seed(1).generate(&am).unwrap();
        let b = MatrixGenerator::with_seed(2).generate(&am).unwrap();
        let mm = MatrixMeta::sparse(48, 32, 0.1).with_block_size(16);
        let mask = MatrixGenerator::with_seed(3).generate(&mm).unwrap();
        assert!(matches!(
            sddmm(&cluster(), &a, &b, &mask),
            Err(JobError::TaskFailed { .. })
        ));
    }

    #[test]
    fn resolution_happens_once_for_a_real_multiply() {
        let (a, b, _) = operands(16, 1.0);
        let c = cluster();
        let before = crate::optimizer::instrument::optimize_calls();
        let _ = multiply(&c, &a, &b, MulMethod::CuboidAuto).unwrap();
        assert_eq!(crate::optimizer::instrument::optimize_calls() - before, 1);
    }
}

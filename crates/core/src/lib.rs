//! # distme-core — CuboidMM and its GPU acceleration
//!
//! The paper's primary contribution (§3–§4), implemented over the
//! `distme-cluster` substrate:
//!
//! * [`problem`] — the 3-dimensional `I × J × K` voxel model of a blocked
//!   matrix multiplication (§2.2, Fig. 2);
//! * [`cuboid`] — `(P, Q, R)`-cuboid partitioning of that model (§3.1,
//!   Fig. 3): each cuboid is the unit of work of one task, and consecutive
//!   voxels inside a cuboid *share* network communication;
//! * [`optimizer`] — the exhaustive `(P*, Q*, R*)` search of §3.2 (Eq. 2–4)
//!   minimizing communication cost under the per-task memory bound θt, with
//!   the parallelism pruning rule `P·Q·R ≥ M·Tc`;
//! * [`methods`] — BMM, CPMM, RMM (§2.2) and CRMM (Marlin, §7) expressed as
//!   special cases / variants of cuboid partitioning, exactly as §3.1
//!   observes ("CuboidMM is a generalization of the existing three
//!   methods");
//! * [`subcuboid`] — the `(P2, Q2, R2)`-subcuboid optimizer for GPU memory
//!   θg (§4.2, Eq. 5–6);
//! * [`gpu_local`] — Algorithm 1: the per-task GPU schedule that streams
//!   B blocks against kernel calls and keeps `C` device-resident across
//!   k-axis iterations (§4.3–4.4);
//! * [`plan`] — the backend-agnostic physical plan IR: the three-step
//!   pipeline (repartition → local multiplication → aggregation) built
//!   *once* per job as routed block movements plus per-task resource
//!   summaries;
//! * [`plan_cache`] — epoch-keyed memoization of built plans: entries are
//!   tagged with the cluster membership epoch and the whole cache drops on
//!   any resize/decommission, so a plan routed for a dead grid is never
//!   served;
//! * [`sim_exec`] — lowers each plan task's summary onto the simulated
//!   cluster at paper scale;
//! * [`real_exec`] — the one real executor: materializes each plan task's
//!   blocks on the thread-backed cluster as a single dependency-gated
//!   stage (each mult task pulls its own k-panels, aggregation released by
//!   its producers), used to *prove* every method computes the same product as
//!   the single-node reference; it charges the ledger with the per-phase
//!   bytes the plan stored at build time, the field the simulator reports,
//!   so the two report the same communication;
//! * [`pipelined`] — `multiply_pipelined`, the benchmark's name for
//!   [`real_exec::multiply`];
//! * [`summa`] — SUMMA on an MPI-style process grid, the ScaLAPACK/SciDB
//!   comparison model of §6.5.

pub mod cuboid;
pub mod gpu_local;
pub mod methods;
pub mod optimizer;
pub mod pipelined;
pub mod plan;
pub mod plan_cache;
pub mod problem;
pub mod real_exec;
pub mod sim_exec;
pub mod subcuboid;
pub mod summa;

pub use cuboid::{Cuboid, CuboidGrid, CuboidSpec};
pub use methods::{MulMethod, ResolvedMethod};
pub use optimizer::{OptimizerConfig, Optimum};
pub use plan::{
    BlockMove, BroadcastPlan, JobPlan, Operand, PhaseComm, PlanStage, TaskSpec, TaskWork,
};
pub use plan_cache::{PlanCache, PlanCacheStats};
pub use problem::MatmulProblem;
pub use subcuboid::SubcuboidSpec;

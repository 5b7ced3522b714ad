//! # distme-engine — the DistME matrix computation engine
//!
//! The user-facing engine of §5, plus the comparison-system emulation the
//! evaluation needs:
//!
//! * [`expr`] — a matrix-expression API (the stand-in for DistME's Scala
//!   API): build `W.t().matmul(&V)`-style trees and evaluate them;
//! * [`session`] — the evaluation contexts: [`session::SimSession`] runs
//!   operators against the paper-scale simulated cluster,
//!   [`session::RealSession`] runs them with real blocks on the
//!   thread-backed cluster; both are one operator surface,
//!   [`session::Ops<M>`] over what flows (descriptors or blocks), and every
//!   query below is one operator sequence written against it; the real
//!   operators are written once, on [`session::TenantSession`];
//! * [`service`] — the multi-tenant front end on the real cluster: jobs
//!   from several tenants pass admission control and interleave on the
//!   shared worker pool, running the same operator body as a solo session
//!   and so bit-identical to it;
//! * [`systems`] — planner profiles for every system in §6: DistME
//!   (CuboidMM), SystemML (BMM/CPMM/RMM heuristic), MatFast-naive (CPMM),
//!   DMac (CPMM + dependency-aware partitioning), each in CPU "(C)" and
//!   GPU "(G)" variants, plus ScaLAPACK and SciDB via the SUMMA model;
//! * [`ops`] — the non-multiply operators (transpose, element-wise) in both
//!   execution modes;
//! * [`gnmf`] — Gaussian Non-negative Matrix Factorization (Appendix A),
//!   the paper's complex-query benchmark: one iteration over `Ops<M>`,
//!   driven for real (multiplicative updates, monotone objective) and at
//!   paper scale on the simulator;
//! * [`als`] — an Alternating Least Squares recommender on the sparse
//!   method family: `V Hᵀ`/`Vᵀ W` as SpMM jobs, the sampled objective as
//!   an SDDMM job, driver-side `f × f` ridge solves;
//! * [`datasets`] — the Table 3 rating datasets (MovieLens, Netflix,
//!   YahooMusic) as synthetic equivalents with matching shape and nnz;
//! * [`algorithms`] — more of §1's motivating workloads on the engine:
//!   power iteration, PageRank, ridge regression.

pub mod algorithms;
pub mod als;
pub mod datasets;
pub mod expr;
pub mod gnmf;
pub mod ops;
pub mod service;
pub mod session;
pub mod systems;

pub use als::{AlsConfig, AlsResult};
pub use datasets::RatingDataset;
pub use gnmf::GnmfConfig;
pub use service::{JobHandle, JobOutput, JobService, JobSpec, JobStatus};
pub use session::{Ops, RealSession, SimReport, SimSession, TenantSession};
pub use systems::SystemProfile;

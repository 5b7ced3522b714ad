//! # distme-engine — the DistME matrix computation engine
//!
//! The user-facing engine of §5, plus the comparison-system emulation the
//! evaluation needs:
//!
//! * [`session`] — the evaluation contexts and the one query surface:
//!   [`session::Ops<M>`] is the paper's §5 matrix-expression API (the
//!   stand-in for DistME's Scala API) — multiply, transpose and
//!   element-wise over what flows (descriptors or blocks) — and every
//!   query below is one operator sequence written against it.
//!   [`session::SimSession`] runs operators against the paper-scale
//!   simulated cluster, [`session::RealSession`] runs them with real
//!   blocks on the thread-backed cluster; the real operators are written
//!   once, on [`session::TenantSession`];
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
//!   YahooMusic) as synthetic equivalents with matching shape and nnz.

pub mod als;
pub mod datasets;
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

#[cfg(test)]
/// Fixtures the elastic GNMF and ALS tests share.
pub(crate) mod test_support {
    use distme_cluster::ClusterConfig;
    use distme_matrix::{BlockMatrix, MatrixGenerator, MatrixMeta};

    /// A grid where every GNMF and ALS distributed op falls under the
    /// optimizer's §3.2 voxel exception (`voxels < M·Tc` ⇒ spec
    /// `(I, J, K)`, no search): the decomposition — and therefore the
    /// floating-point summation order — is then *independent of the node
    /// count*, which is what makes elastic runs bit-comparable to
    /// fixed-grid runs.
    pub(crate) fn elastic_cfg(nodes: usize) -> ClusterConfig {
        ClusterConfig {
            nodes,
            tasks_per_node: 10,
            ..ClusterConfig::laptop()
        }
    }

    /// 4 x 3 blocks: at factor_dim 16 the largest matmul has 12 voxels,
    /// under even the 4-node grid's 40 slots.
    pub(crate) fn small_v() -> BlockMatrix {
        let meta = MatrixMeta::sparse(64, 48, 0.3).with_block_size(16);
        MatrixGenerator::with_seed(3)
            .value_range(1.0, 5.0)
            .generate(&meta)
            .unwrap()
    }

    /// Exact bit pattern of a factor: block ids plus every f64's bits.
    pub(crate) fn factor_bits(m: &BlockMatrix) -> Vec<u64> {
        let mut out = Vec::new();
        for (id, blk) in m.blocks() {
            out.push(u64::from(id.row));
            out.push(u64::from(id.col));
            out.extend(blk.to_dense().data().iter().map(|x| x.to_bits()));
        }
        out
    }
}

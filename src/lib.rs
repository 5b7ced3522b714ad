//! # DistME — a fast and elastic distributed matrix computation engine
//!
//! A from-scratch Rust reproduction of *DistME: A Fast and Elastic
//! Distributed Matrix Computation Engine using GPUs* (SIGMOD 2019):
//! **CuboidMM** — `(P, Q, R)`-cuboid partitioning of distributed matrix
//! multiplication with an exhaustive communication-cost optimizer under
//! per-task memory bounds — plus its GPU acceleration method
//! (`(P2, Q2, R2)`-subcuboid partitioning and the streaming schedule of
//! Algorithm 1), the engine around them, and every substrate the paper
//! depends on (a Spark-substitute distributed runtime and a simulated GPU).
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`matrix`] | `distme-matrix` | dense/CSR blocks, GEMM/SpMM/SpGEMM kernels, codec, generators |
//! | [`sim`] | `distme-sim` | virtual-time resource simulation (FIFO servers, slot pools, gauges) |
//! | [`cluster`] | `distme-cluster` | shuffle accounting, block stores + transport, scheduler, real + simulated executors, failure modes |
//! | [`gpu`] | `distme-gpu` | simulated GPU device: PCI-E engines, streams, MPS, kernel model |
//! | [`core`] | `distme-core` | the paper's contribution: cuboids, optimizers, methods, Algorithm 1, SUMMA |
//! | [`engine`] | `distme-engine` | the `Ops` operator surface (§5's expression API), sessions, job service, system profiles, GNMF, ALS, datasets |
//!
//! ## Quickstart
//!
//! ```
//! use distme::prelude::*;
//!
//! // Two 512 x 512 matrices in 128-blocks, multiplied CuboidMM-style over
//! // a thread-backed 4-node cluster, verified against the single-node
//! // reference.
//! let meta = MatrixMeta::dense(512, 512).with_block_size(128);
//! let a = MatrixGenerator::with_seed(1).generate(&meta).unwrap();
//! let b = MatrixGenerator::with_seed(2).generate(&meta).unwrap();
//!
//! let cluster = LocalCluster::new(ClusterConfig::laptop());
//! let (c, stats) = real_exec::multiply(&cluster, &a, &b, MulMethod::CuboidAuto).unwrap();
//!
//! let reference = a.multiply(&b).unwrap();
//! assert!(c.max_abs_diff(&reference).unwrap() < 1e-9);
//! assert!(stats.total_shuffle_bytes() > 0);
//! ```
//!
//! Paper-scale experiments run on the simulated cluster instead; see the
//! `distme-bench` binaries (`table4`, `fig6`…`fig9`, `table5`) and
//! EXPERIMENTS.md.

#![forbid(unsafe_code)]

pub use distme_cluster as cluster;
pub use distme_core as core;
pub use distme_engine as engine;
pub use distme_gpu as gpu;
pub use distme_matrix as matrix;
pub use distme_sim as sim;

/// The most common imports in one place.
pub mod prelude {
    pub use distme_cluster::{
        Blackout, ClusterConfig, FaultPlan, FaultSpec, JobError, JobStats, LocalCluster, Phase,
        ReplicationPolicy, RetryPolicy, SimCluster,
    };
    pub use distme_cluster::{ElasticPolicy, TenantId};
    pub use distme_core::{
        real_exec, sim_exec, CuboidSpec, MatmulProblem, MulMethod, OptimizerConfig,
    };
    pub use distme_engine::{
        gnmf, GnmfConfig, JobService, JobSpec, JobStatus, Ops, RatingDataset, RealSession,
        SimSession, SystemProfile,
    };
    pub use distme_matrix::{
        elementwise::EwOp, Block, BlockMatrix, CsrBlock, DenseBlock, MatrixGenerator, MatrixMeta,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let meta = MatrixMeta::dense(64, 64).with_block_size(32);
        let a = MatrixGenerator::with_seed(1).generate(&meta).unwrap();
        let b = MatrixGenerator::with_seed(2).generate(&meta).unwrap();
        let cluster = LocalCluster::new(ClusterConfig::laptop());
        let (c, _) = real_exec::multiply(&cluster, &a, &b, MulMethod::CuboidAuto).unwrap();
        assert!(c.max_abs_diff(&a.multiply(&b).unwrap()).unwrap() < 1e-9);
    }
}

//! # distme-matrix — block-matrix substrate
//!
//! The linear-algebra foundation of the DistME reproduction. Distributed
//! matrix systems in the paper's lineage (SystemML, MatFast, DMac, DistME)
//! represent a matrix as a grid of fixed-size *blocks* (default
//! 1000 × 1000) and use a block as the unit of computation, shuffling, and
//! storage. This crate provides:
//!
//! * [`DenseBlock`] / [`CsrBlock`] — the two block storage formats the paper
//!   uses (dense, and Compressed Sparse Row), unified under [`Block`];
//! * local kernels standing in for BLAS/cuBLAS/cuSPARSE:
//!   [`kernels::gemm`] (packed, cache-blocked dense GEMM with a register
//!   tile per ISA: 8×24 on AVX-512, 6×8 on AVX2+FMA, 8×4 portable),
//!   [`kernels::spmm`] (CSR × dense and dense × CSR, one SIMD axpy body
//!   per ISA shared with `sddmm::csr_t_dense`), and [`kernels::spgemm`]
//!   (CSR × CSR, Gustavson's algorithm);
//! * [`BlockMatrix`] — a single-node blocked matrix used as the correctness
//!   reference for every distributed method;
//! * [`MatrixMeta`] — a *virtual* matrix descriptor (shape, block size,
//!   sparsity) that the discrete-event simulator uses to reason about
//!   paper-scale matrices (e.g. 100 000 × 100 000 doubles ≈ 80 GB) without
//!   materializing them;
//! * [`codec`] — a compact binary block codec used by the shuffle service so
//!   that communication cost is measured on real serialized bytes;
//! * [`generator`] — synthetic dense/sparse matrix generators matching the
//!   paper's uniform-random workloads (§6.1).

// Every `unsafe` block states why it is sound — for an intrinsic block, the
// runtime detection that guards it — or `make lint` fails.
#![deny(clippy::undocumented_unsafe_blocks, unsafe_op_in_unsafe_fn)]

pub mod block;
pub mod block_matrix;
pub mod codec;
pub mod dense;
pub mod elementwise;
pub mod error;
pub mod generator;
pub mod kernels;
pub mod meta;
pub mod ops;
pub mod sparse;

pub use block::{Block, BlockFormat, BlockId};
pub use block_matrix::{fresh_matrix_uid, BlockMatrix};
pub use dense::DenseBlock;
pub use error::{MatrixError, Result};
pub use generator::MatrixGenerator;
pub use meta::MatrixMeta;
pub use sparse::CsrBlock;

/// Default block side length used throughout the paper ("we use the block
/// size of 1000 × 1000 in all experiments", §6.1).
pub const DEFAULT_BLOCK_SIZE: u64 = 1000;

/// Bytes per `f64` matrix element.
pub const ELEM_BYTES: u64 = 8;

/// Approximate serialized bytes per non-zero in CSR format: an 8-byte value
/// plus a 4-byte column index, with row-pointer overhead amortized.
pub const CSR_NNZ_BYTES: u64 = 12;

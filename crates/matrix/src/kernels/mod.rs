//! Local block-multiplication kernels.
//!
//! These stand in for the BLAS libraries the paper's systems call:
//! `cublasDgemm` / MKL `dgemm` for dense blocks and `cusparseDcsrmm` for
//! sparse ones (§4.4). The [`multiply`] entry point dispatches on operand
//! formats exactly like DistME's local-multiplication step.
//!
//! Both block products a job spends its time in are written to the
//! hardware, through one instruction-set detection per process. The dense
//! kernel ([`gemm`]) is one packed, cache-blocked driver with a register
//! tile per instruction set (8 × 24 on AVX-512, 6 × 8 on AVX2+FMA, 8 × 4
//! portable); its per-element summation order is fixed independently of the
//! tile, so a product's bits do not depend on which FMA tile computed it.
//! The sparse × dense kernels ([`spmm`], and [`sddmm::csr_t_dense_acc`])
//! share one axpy body per instruction set (8, 4 or 1 lanes of multiply
//! then add), so their bits do not depend on the width either.

pub mod gemm;
pub mod sddmm;
pub mod spgemm;
pub mod spmm;

use crate::block::Block;
use crate::dense::DenseBlock;
use crate::error::{MatrixError, Result};

/// Number of floating-point operations of a block product `m×k · k×n`
/// (one multiply + one add per inner step).
pub fn flops(m: u64, k: u64, n: u64) -> u64 {
    2 * m * k * n
}

/// Multiplies two blocks, dispatching to the format-appropriate kernel, and
/// returns the product in a density-appropriate format.
///
/// # Errors
/// Returns [`MatrixError::DimensionMismatch`] when `a.cols() != b.rows()`.
pub fn multiply(a: &Block, b: &Block) -> Result<Block> {
    check_mul_dims(a, b)?;
    let out = match (a, b) {
        (Block::Dense(da), Block::Dense(db)) => {
            let mut c = DenseBlock::zeros(da.rows(), db.cols());
            gemm::gemm(1.0, da, db, 0.0, &mut c)?;
            Block::Dense(c)
        }
        (Block::Sparse(sa), Block::Dense(db)) => Block::Dense(spmm::csr_dense(sa, db)?),
        (Block::Dense(da), Block::Sparse(sb)) => Block::Dense(spmm::dense_csr(da, sb)?),
        (Block::Sparse(sa), Block::Sparse(sb)) => {
            Block::Sparse(spgemm::csr_csr(sa, sb)?).normalize()
        }
    };
    Ok(out)
}

/// `c += a · b` with a dense accumulator — the shape of the update DistME's
/// GPU iterations perform while keeping `C` resident in device memory (§4.3).
///
/// # Errors
/// Returns [`MatrixError::DimensionMismatch`] when operand shapes are
/// incompatible with each other or with `c`.
pub fn multiply_accumulate(c: &mut DenseBlock, a: &Block, b: &Block) -> Result<()> {
    check_mul_dims(a, b)?;
    if c.rows() != a.rows() || c.cols() != b.cols() {
        return Err(MatrixError::DimensionMismatch {
            op: "multiply_accumulate",
            lhs: (c.rows() as u64, c.cols() as u64),
            rhs: (a.rows() as u64, b.cols() as u64),
        });
    }
    match (a, b) {
        (Block::Dense(da), Block::Dense(db)) => gemm::gemm(1.0, da, db, 1.0, c),
        (Block::Sparse(sa), Block::Dense(db)) => spmm::csr_dense_acc(sa, db, c),
        (Block::Dense(da), Block::Sparse(sb)) => spmm::dense_csr_acc(da, sb, c),
        (Block::Sparse(sa), Block::Sparse(sb)) => {
            let prod = spgemm::csr_csr(sa, sb)?;
            c.add_assign(&prod.to_dense())
        }
    }
}

fn check_mul_dims(a: &Block, b: &Block) -> Result<()> {
    if a.cols() != b.rows() {
        return Err(MatrixError::DimensionMismatch {
            op: "multiply",
            lhs: (a.rows() as u64, a.cols() as u64),
            rhs: (b.rows() as u64, b.cols() as u64),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::CsrBlock;

    fn dense_a() -> DenseBlock {
        DenseBlock::from_fn(3, 4, |i, j| (i * 4 + j) as f64)
    }

    fn dense_b() -> DenseBlock {
        DenseBlock::from_fn(4, 2, |i, j| (i as f64) - (j as f64))
    }

    /// Naive reference product for validation.
    fn naive(a: &DenseBlock, b: &DenseBlock) -> DenseBlock {
        let mut c = DenseBlock::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(k, j);
                }
                c.set(i, j, acc);
            }
        }
        c
    }

    #[test]
    fn flops_formula() {
        assert_eq!(flops(10, 20, 30), 12_000);
    }

    #[test]
    fn multiply_dispatches_all_format_pairs() {
        let da = dense_a();
        let db = dense_b();
        let expect = naive(&da, &db);
        let sa = CsrBlock::from_dense(&da);
        let sb = CsrBlock::from_dense(&db);
        for a in [Block::Dense(da.clone()), Block::Sparse(sa)] {
            for b in [Block::Dense(db.clone()), Block::Sparse(sb.clone())] {
                let c = multiply(&a, &b).unwrap();
                assert!(
                    c.to_dense().max_abs_diff(&expect).unwrap() < 1e-12,
                    "format pair {:?}x{:?}",
                    a.format(),
                    b.format()
                );
            }
        }
    }

    #[test]
    fn multiply_rejects_bad_dims() {
        let a = Block::Dense(DenseBlock::zeros(2, 3));
        let b = Block::Dense(DenseBlock::zeros(4, 2));
        assert!(multiply(&a, &b).is_err());
    }

    #[test]
    fn accumulate_matches_two_products() {
        let da = dense_a();
        let db = dense_b();
        let mut c = naive(&da, &db);
        // c += a*b again => 2 * naive
        multiply_accumulate(&mut c, &Block::Dense(da.clone()), &Block::Dense(db.clone())).unwrap();
        let mut twice = naive(&da, &db);
        twice.scale(2.0);
        assert!(c.max_abs_diff(&twice).unwrap() < 1e-12);
    }

    #[test]
    fn accumulate_rejects_bad_output_shape() {
        let a = Block::Dense(dense_a());
        let b = Block::Dense(dense_b());
        let mut c = DenseBlock::zeros(3, 3); // should be 3x2
        assert!(multiply_accumulate(&mut c, &a, &b).is_err());
    }

    #[test]
    fn accumulate_all_format_pairs() {
        let da = dense_a();
        let db = dense_b();
        let expect = naive(&da, &db);
        let sa = CsrBlock::from_dense(&da);
        let sb = CsrBlock::from_dense(&db);
        for a in [Block::Dense(da.clone()), Block::Sparse(sa)] {
            for b in [Block::Dense(db.clone()), Block::Sparse(sb.clone())] {
                let mut c = DenseBlock::zeros(3, 2);
                multiply_accumulate(&mut c, &a, &b).unwrap();
                assert!(c.max_abs_diff(&expect).unwrap() < 1e-12);
            }
        }
    }
}

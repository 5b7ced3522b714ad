//! Element-wise block operations: the `∗` (Hadamard product), `/`, `+`, `-`
//! operators the GNMF update rules use (Appendix A, Eq. 7).

use crate::block::Block;
use crate::dense::DenseBlock;
use crate::error::{MatrixError, Result};
use crate::sparse::CsrBlock;

/// Element-wise binary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EwOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b` (Hadamard)
    Mul,
    /// `a / b` — division by zero yields `0.0`, matching SystemML's
    /// sparse-safe semantics for the GNMF quotient.
    Div,
}

impl EwOp {
    /// Applies the scalar operator.
    #[inline]
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            EwOp::Add => a + b,
            EwOp::Sub => a - b,
            EwOp::Mul => a * b,
            EwOp::Div => {
                if b == 0.0 {
                    0.0
                } else {
                    a / b
                }
            }
        }
    }

    /// True when `op(0, x) == 0` for all x — lets sparse left operands keep
    /// their sparsity pattern (Mul, Div).
    pub fn zero_preserving_left(self) -> bool {
        matches!(self, EwOp::Mul | EwOp::Div)
    }
}

/// Applies `op` element-wise over two blocks.
///
/// Sparse-aware fast paths:
/// * `Sparse ⊙ any` for `Mul`/`Div` iterates only the left operand's
///   non-zeros (the pattern of the result is a subset of the left pattern);
/// * everything else reads a dense operand where it lies and converts only
///   a sparse one.
///
/// # Errors
/// Returns [`MatrixError::DimensionMismatch`] when shapes differ.
pub fn ew(op: EwOp, a: &Block, b: &Block) -> Result<Block> {
    if a.rows() != b.rows() || a.cols() != b.cols() {
        return Err(MatrixError::DimensionMismatch {
            op: "elementwise",
            lhs: (a.rows() as u64, a.cols() as u64),
            rhs: (b.rows() as u64, b.cols() as u64),
        });
    }
    if op.zero_preserving_left() {
        if let Block::Sparse(sa) = a {
            return ew_sparse_left(op, sa, b);
        }
    }
    let (da, db) = (a.as_dense(), b.as_dense());
    let out = da
        .data()
        .iter()
        .zip(db.data())
        .map(|(&x, &y)| op.apply(x, y))
        .collect();
    Ok(Block::Dense(DenseBlock::from_vec(
        da.rows(),
        da.cols(),
        out,
    )?))
}

fn ew_sparse_left(op: EwOp, a: &CsrBlock, b: &Block) -> Result<Block> {
    let mut trips = Vec::with_capacity(a.nnz());
    for (i, j, v) in a.iter() {
        let r = op.apply(v, b.get(i, j));
        if r != 0.0 {
            trips.push((i, j, r));
        }
    }
    Ok(Block::Sparse(CsrBlock::from_triplets(
        a.rows(),
        a.cols(),
        trips,
    )?))
}

/// Applies a scalar function to every element of a block, preserving
/// sparsity when `f(0) == 0`.
pub fn map(a: &Block, f: impl Fn(f64) -> f64) -> Result<Block> {
    if f(0.0) == 0.0 {
        if let Block::Sparse(s) = a {
            let trips: Vec<_> = s.iter().map(|(i, j, v)| (i, j, f(v))).collect();
            return Ok(Block::Sparse(CsrBlock::from_triplets(
                s.rows(),
                s.cols(),
                trips,
            )?));
        }
    }
    let d = a.as_dense();
    let out: Vec<f64> = d.data().iter().map(|&v| f(v)).collect();
    Ok(Block::Dense(DenseBlock::from_vec(d.rows(), d.cols(), out)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockFormat;

    fn dense(seed: f64) -> Block {
        Block::Dense(DenseBlock::from_fn(3, 4, |i, j| {
            seed + (i as f64) * 4.0 + j as f64
        }))
    }

    fn sparse() -> Block {
        Block::Sparse(
            CsrBlock::from_triplets(3, 4, vec![(0, 0, 2.0), (1, 2, -3.0), (2, 3, 4.0)]).unwrap(),
        )
    }

    #[test]
    fn add_sub_dense() {
        let a = dense(1.0);
        let b = dense(10.0);
        let sum = ew(EwOp::Add, &a, &b).unwrap();
        let diff = ew(EwOp::Sub, &b, &a).unwrap();
        assert_eq!(sum.get(0, 0), 11.0);
        assert_eq!(diff.get(2, 3), 9.0);
    }

    #[test]
    fn hadamard_sparse_left_stays_sparse() {
        let s = sparse();
        let d = dense(1.0);
        let prod = ew(EwOp::Mul, &s, &d).unwrap();
        assert_eq!(prod.format(), BlockFormat::Sparse);
        assert_eq!(prod.get(1, 2), -3.0 * (1.0 + 4.0 + 2.0));
        assert_eq!(prod.get(0, 1), 0.0);
        assert_eq!(prod.nnz(), 3);
    }

    #[test]
    fn div_by_zero_is_zero() {
        let a = dense(1.0);
        let zero = Block::Dense(DenseBlock::zeros(3, 4));
        let q = ew(EwOp::Div, &a, &zero).unwrap();
        assert_eq!(q.nnz(), 0);
    }

    #[test]
    fn sparse_div_dense() {
        let s = sparse();
        let d = dense(1.0); // no zeros at the sparse positions
        let q = ew(EwOp::Div, &s, &d).unwrap();
        assert_eq!(q.format(), BlockFormat::Sparse);
        assert!((q.get(2, 3) - 4.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = dense(0.0);
        let b = Block::Dense(DenseBlock::zeros(4, 3));
        assert!(ew(EwOp::Add, &a, &b).is_err());
    }

    #[test]
    fn map_preserves_sparsity_for_zero_fixed_functions() {
        let s = sparse();
        let doubled = map(&s, |v| 2.0 * v).unwrap();
        assert_eq!(doubled.format(), BlockFormat::Sparse);
        assert_eq!(doubled.get(0, 0), 4.0);
        // f(0) != 0 must densify.
        let shifted = map(&s, |v| v + 1.0).unwrap();
        assert_eq!(shifted.format(), BlockFormat::Dense);
        assert_eq!(shifted.get(0, 1), 1.0);
    }

    #[test]
    fn ew_op_apply_table() {
        assert_eq!(EwOp::Add.apply(2.0, 3.0), 5.0);
        assert_eq!(EwOp::Sub.apply(2.0, 3.0), -1.0);
        assert_eq!(EwOp::Mul.apply(2.0, 3.0), 6.0);
        assert_eq!(EwOp::Div.apply(6.0, 3.0), 2.0);
        assert_eq!(EwOp::Div.apply(6.0, 0.0), 0.0);
    }
}

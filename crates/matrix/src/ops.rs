//! Whole-matrix convenience operations on [`BlockMatrix`].
//!
//! The reductions here (row sums, trace, scaling, Grams) are the building
//! blocks the paper's application list needs around multiplication:
//! normalization steps in factorization, degree vectors for graph
//! algorithms, convergence checks.

use crate::block::Block;
use crate::block_matrix::BlockMatrix;
use crate::dense::DenseBlock;
use crate::elementwise::map;
use crate::error::{MatrixError, Result};
use crate::meta::MatrixMeta;
use std::borrow::Cow;

impl BlockMatrix {
    /// Returns `alpha · self`.
    pub fn scale(&self, alpha: f64) -> BlockMatrix {
        let mut out = BlockMatrix::new(*self.meta());
        for (id, block) in self.blocks() {
            let scaled = map(block, |v| alpha * v).expect("map never fails on matching shapes");
            out.put(id.row, id.col, scaled)
                .expect("same grid as source");
        }
        out
    }

    /// Sum of each row, as a dense vector of length `rows`.
    pub fn row_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.meta().rows as usize];
        let bs = self.meta().block_size;
        for (id, block) in self.blocks() {
            let base = id.row as u64 * bs;
            match block {
                Block::Sparse(s) => {
                    for (i, _, v) in s.iter() {
                        sums[(base + i as u64) as usize] += v;
                    }
                }
                Block::Dense(d) => {
                    for i in 0..d.rows() {
                        let row = &d.data()[i * d.cols()..(i + 1) * d.cols()];
                        sums[(base + i as u64) as usize] += row.iter().sum::<f64>();
                    }
                }
            }
        }
        sums
    }

    /// Sum of the main diagonal.
    ///
    /// # Errors
    /// Returns [`MatrixError::DimensionMismatch`] for non-square matrices.
    pub fn trace(&self) -> Result<f64> {
        let meta = self.meta();
        if meta.rows != meta.cols {
            return Err(MatrixError::DimensionMismatch {
                op: "trace",
                lhs: (meta.rows, meta.cols),
                rhs: (meta.cols, meta.cols),
            });
        }
        Ok((0..meta.rows).map(|i| self.get_element(i, i)).sum())
    }

    /// Sum of all elements.
    pub fn total_sum(&self) -> f64 {
        self.row_sums().iter().sum()
    }

    /// The Gram matrix `selfᵀ · self` computed without materializing the
    /// transpose (the `WᵀW` of GNMF and `XᵀX` of least squares), using the
    /// [`crate::kernels::gemm::gemm_tn`] kernel per block pair. Dense blocks
    /// feed the kernel as they are; only CSR blocks are converted.
    pub fn gram(&self) -> BlockMatrix {
        fn dense(b: &Block) -> Cow<'_, DenseBlock> {
            match b {
                Block::Dense(d) => Cow::Borrowed(d),
                Block::Sparse(s) => Cow::Owned(s.to_dense()),
            }
        }
        let meta = self.meta();
        let out_meta = MatrixMeta {
            rows: meta.cols,
            cols: meta.cols,
            block_size: meta.block_size,
            sparsity: 1.0,
        };
        let mut out = BlockMatrix::new(out_meta);
        for bi in 0..meta.block_cols() {
            for bj in 0..meta.block_cols() {
                let (r, c) = out_meta.block_dims(bi, bj);
                let mut acc = DenseBlock::zeros(r as usize, c as usize);
                let mut any = false;
                for bk in 0..meta.block_rows() {
                    let (Some(a), Some(b)) = (self.get(bk, bi), self.get(bk, bj)) else {
                        continue;
                    };
                    crate::kernels::gemm::gemm_tn(1.0, &dense(a), &dense(b), 1.0, &mut acc)
                        .expect("block shapes align by construction");
                    any = true;
                }
                if any {
                    out.put(bi, bj, Block::Dense(acc))
                        .expect("grid position valid");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::MatrixGenerator;

    fn sample(sparsity: f64) -> BlockMatrix {
        let meta = MatrixMeta::sparse(50, 30, sparsity).with_block_size(16);
        MatrixGenerator::with_seed(11).generate(&meta).unwrap()
    }

    #[test]
    fn scale_scales_every_element() {
        let m = sample(0.3);
        let s = m.scale(2.5);
        for i in (0..50).step_by(7) {
            for j in (0..30).step_by(5) {
                assert!((s.get_element(i, j) - 2.5 * m.get_element(i, j)).abs() < 1e-12);
            }
        }
        // Sparsity pattern preserved.
        assert_eq!(s.nnz(), m.nnz());
    }

    #[test]
    fn row_sums_agree_with_elementwise_scan() {
        let m = sample(0.4);
        let rows = m.row_sums();
        for i in 0..50 {
            let expect: f64 = (0..30).map(|j| m.get_element(i, j)).sum();
            assert!((rows[i as usize] - expect).abs() < 1e-9, "row {i}");
        }
        assert!((m.total_sum() - rows.iter().sum::<f64>()).abs() < 1e-9);
    }

    #[test]
    fn trace_requires_square() {
        let m = sample(1.0);
        assert!(m.trace().is_err());
        let meta = MatrixMeta::dense(32, 32).with_block_size(16);
        let sq = MatrixGenerator::with_seed(3).generate(&meta).unwrap();
        let expect: f64 = (0..32).map(|i| sq.get_element(i, i)).sum();
        assert!((sq.trace().unwrap() - expect).abs() < 1e-12);
    }

    #[test]
    fn gram_matches_explicit_transpose_product() {
        let m = sample(0.6);
        let expect = m.transpose().multiply(&m).unwrap();
        let got = m.gram();
        assert!(got.max_abs_diff(&expect).unwrap() < 1e-9);
        // Gram matrices are symmetric.
        assert!(got.max_abs_diff(&got.transpose()).unwrap() < 1e-12);
    }
}

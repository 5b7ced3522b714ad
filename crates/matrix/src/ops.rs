//! Whole-matrix convenience operations on [`BlockMatrix`]: the Gram
//! matrix `AᵀA` that the GNMF objective reads without materializing the
//! transpose.

use crate::block::Block;
use crate::block_matrix::BlockMatrix;
use crate::dense::DenseBlock;
use crate::meta::MatrixMeta;
use std::borrow::Cow;

impl BlockMatrix {
    /// The Gram matrix `selfᵀ · self` computed without materializing the
    /// transpose (the `WᵀW` of GNMF), using the
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
    fn gram_matches_explicit_transpose_product() {
        let m = sample(0.6);
        let expect = m.transpose().multiply(&m).unwrap();
        let got = m.gram();
        assert!(got.max_abs_diff(&expect).unwrap() < 1e-9);
        // Gram matrices are symmetric.
        assert!(got.max_abs_diff(&got.transpose()).unwrap() < 1e-12);
    }
}

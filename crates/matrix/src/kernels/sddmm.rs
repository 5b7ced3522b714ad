//! Sampled dense–dense multiplication and transpose-aware SpMM — the two
//! sparse primitives behind ALS and GNN workloads (Bharadwaj et al.,
//! "Distributed-Memory Sparse Kernels for Machine Learning").
//!
//! [`sddmm`] computes `C = mask ⊙ (A · B)`: only the entries present in the
//! CSR mask's sparsity pattern are evaluated, so the cost is `O(nnz(mask) ·
//! k)` instead of a full GEMM. [`csr_t_dense`] computes `C = Aᵀ_csr · B`
//! without materializing the transpose — the access pattern ALS's
//! normal-equations products (`Vᵀ W`, written as `csr_t_dense(V, W)`) need
//! when `V` is sharded by rows.

use super::gemm::Tile;
use super::spmm::{axpy_of, Axpy};
use crate::dense::DenseBlock;
use crate::error::{MatrixError, Result};
use crate::sparse::CsrBlock;

/// `C = mask ⊙ (A_dense · B_dense)` into the mask's CSR pattern.
///
/// Only the mask's *pattern* participates: every stored entry `(i, j)` —
/// explicit zeros included — is sampled, its stored value ignored. The
/// result carries the mask's exact `row_ptr`/`col_idx` arrays, so the
/// pattern survives even where a dot product lands on `0.0`.
///
/// # Errors
/// Returns [`MatrixError::DimensionMismatch`] when `a.cols() != b.rows()`
/// or the mask's shape is not `a.rows() × b.cols()`.
pub fn sddmm(a: &DenseBlock, b: &DenseBlock, mask: &CsrBlock) -> Result<CsrBlock> {
    let mut values = vec![0.0; mask.nnz()];
    sddmm_acc(a, b, mask, &mut values)?;
    CsrBlock::from_raw_parts(
        mask.rows(),
        mask.cols(),
        mask.row_ptr().to_vec(),
        mask.col_idx().to_vec(),
        values,
    )
}

/// `values[p] += dot(A[i, :], B[:, j])` for each mask entry `p = (i, j)` —
/// the accumulate form a distributed task uses to fold a chain of k-blocks
/// into one sampled output (`values` holds one slot per mask entry, in the
/// mask's CSR order).
///
/// Each partial dot product accumulates over `k` ascending, so a fixed
/// k-block order makes the blocked sum bit-deterministic.
///
/// # Errors
/// Returns [`MatrixError::DimensionMismatch`] on any shape disagreement,
/// including `values.len() != mask.nnz()`.
pub fn sddmm_acc(
    a: &DenseBlock,
    b: &DenseBlock,
    mask: &CsrBlock,
    values: &mut [f64],
) -> Result<()> {
    if a.cols() != b.rows()
        || mask.rows() != a.rows()
        || mask.cols() != b.cols()
        || values.len() != mask.nnz()
    {
        return Err(MatrixError::DimensionMismatch {
            op: "sddmm",
            lhs: (a.rows() as u64, a.cols() as u64),
            rhs: (mask.rows() as u64, mask.cols() as u64),
        });
    }
    let kdim = a.cols();
    let n = b.cols();
    let av = a.data();
    let bv = b.data();
    let row_ptr = mask.row_ptr();
    let col_idx = mask.col_idx();
    for i in 0..mask.rows() {
        let arow = &av[i * kdim..(i + 1) * kdim];
        let (s, e) = (row_ptr[i] as usize, row_ptr[i + 1] as usize);
        for idx in s..e {
            let j = col_idx[idx] as usize;
            let mut acc = 0.0;
            for (k, &aik) in arow.iter().enumerate() {
                acc += aik * bv[k * n + j];
            }
            values[idx] += acc;
        }
    }
    Ok(())
}

/// `C = Aᵀ_csr · B_dense`, returning a dense block, without materializing
/// the transpose.
///
/// Scatter formulation: for each non-zero `A[i, k]`, axpy row `i` of `B`
/// into row `k` of `C` — the mirror image of [`csr_dense`]'s gather, with
/// the same per-row determinism (rows of `A` ascending, entries within a
/// row ascending).
///
/// [`csr_dense`]: crate::kernels::spmm::csr_dense
///
/// # Errors
/// Returns [`MatrixError::DimensionMismatch`] when `a.rows() != b.rows()`.
pub fn csr_t_dense(a: &CsrBlock, b: &DenseBlock) -> Result<DenseBlock> {
    let mut c = DenseBlock::zeros(a.cols(), b.cols());
    csr_t_dense_acc(a, b, &mut c)?;
    Ok(c)
}

/// `C += Aᵀ_csr · B_dense` with a caller-provided accumulator: each stored
/// `A[i, k]`, in CSR order, axpys row `i` of `B` into row `k` of `C` through
/// the sparse kernels' one dispatched axpy body ([`spmm`](super::spmm)).
///
/// # Errors
/// Returns [`MatrixError::DimensionMismatch`] on shape mismatch.
pub fn csr_t_dense_acc(a: &CsrBlock, b: &DenseBlock, c: &mut DenseBlock) -> Result<()> {
    csr_t_dense_acc_on(axpy_of(Tile::best()), a, b, c)
}

pub(super) fn csr_t_dense_acc_on(
    axpy: Axpy,
    a: &CsrBlock,
    b: &DenseBlock,
    c: &mut DenseBlock,
) -> Result<()> {
    if a.rows() != b.rows() || c.rows() != a.cols() || c.cols() != b.cols() {
        return Err(MatrixError::DimensionMismatch {
            op: "csr_t_dense",
            lhs: (a.cols() as u64, a.rows() as u64),
            rhs: (b.rows() as u64, b.cols() as u64),
        });
    }
    csr_t_dense_into(axpy, a, b.data(), b.cols(), c.data_mut());
    Ok(())
}

/// The walk of [`csr_t_dense_acc`] over raw row-major storage, rows `n`
/// long: `b` holds `a.rows()` rows and `c` holds `a.cols()`. Shapes are the
/// caller's to check.
pub(super) fn csr_t_dense_into(axpy: Axpy, a: &CsrBlock, b: &[f64], n: usize, c: &mut [f64]) {
    let row_ptr = a.row_ptr();
    let col_idx = a.col_idx();
    let values = a.values();
    for i in 0..a.rows() {
        let brow = &b[i * n..(i + 1) * n];
        for idx in row_ptr[i] as usize..row_ptr[i + 1] as usize {
            let k = col_idx[idx] as usize;
            axpy(values[idx], brow, &mut c[k * n..(k + 1) * n]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::gemm::gemm;
    use proptest::prelude::*;

    fn pseudo_random_mask(rows: usize, cols: usize, every: usize, seed: u64) -> CsrBlock {
        let mut trips = Vec::new();
        let mut state = seed | 1;
        for i in 0..rows {
            for j in 0..cols {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if ((state >> 33) as usize).is_multiple_of(every) {
                    trips.push((i, j, 1.0));
                }
            }
        }
        CsrBlock::from_triplets(rows, cols, trips).unwrap()
    }

    fn pseudo_random_dense(rows: usize, cols: usize, seed: u64) -> DenseBlock {
        let mut state = seed | 1;
        DenseBlock::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
            ((state >> 35) % 100) as f64 / 50.0 - 1.0
        })
    }

    fn reference(a: &DenseBlock, b: &DenseBlock) -> DenseBlock {
        let mut c = DenseBlock::zeros(a.rows(), b.cols());
        gemm(1.0, a, b, 0.0, &mut c).unwrap();
        c
    }

    /// Bit-exact dense SDDMM reference: same k-ascending dot order.
    fn naive_sddmm(a: &DenseBlock, b: &DenseBlock, mask: &CsrBlock) -> Vec<(usize, usize, f64)> {
        mask.iter()
            .map(|(i, j, _)| {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(k, j);
                }
                (i, j, acc)
            })
            .collect()
    }

    #[test]
    fn sddmm_matches_masked_gemm() {
        let a = pseudo_random_dense(19, 13, 3);
        let b = pseudo_random_dense(13, 23, 5);
        let mask = pseudo_random_mask(19, 23, 4, 7);
        let c = sddmm(&a, &b, &mask).unwrap();
        let full = reference(&a, &b);
        assert_eq!(c.nnz(), mask.nnz());
        for (i, j, v) in c.iter() {
            assert!((v - full.get(i, j)).abs() < 1e-10, "({i}, {j})");
        }
    }

    #[test]
    fn sddmm_ignores_mask_values_and_keeps_explicit_zeros() {
        // A mask entry whose dot product is zero must survive as an
        // explicit zero — the pattern is the contract.
        let a = DenseBlock::zeros(4, 3);
        let b = pseudo_random_dense(3, 4, 9);
        let mask = pseudo_random_mask(4, 4, 2, 11);
        let c = sddmm(&a, &b, &mask).unwrap();
        assert_eq!(c.nnz(), mask.nnz());
        assert!(c.values().iter().all(|&v| v == 0.0));
        assert_eq!(c.row_ptr(), mask.row_ptr());
        assert_eq!(c.col_idx(), mask.col_idx());
    }

    #[test]
    fn sddmm_acc_folds_k_blocks() {
        // Splitting A/B along k and accumulating must equal a single pass
        // when each partial keeps its own k-ascending order.
        let a = pseudo_random_dense(9, 12, 13);
        let b = pseudo_random_dense(12, 7, 15);
        let mask = pseudo_random_mask(9, 7, 3, 17);
        let whole = sddmm(&a, &b, &mask).unwrap();
        let split = 5;
        let a_lo = DenseBlock::from_fn(9, split, |i, k| a.get(i, k));
        let a_hi = DenseBlock::from_fn(9, 12 - split, |i, k| a.get(i, k + split));
        let b_lo = DenseBlock::from_fn(split, 7, |k, j| b.get(k, j));
        let b_hi = DenseBlock::from_fn(12 - split, 7, |k, j| b.get(k + split, j));
        let mut values = vec![0.0; mask.nnz()];
        sddmm_acc(&a_lo, &b_lo, &mask, &mut values).unwrap();
        sddmm_acc(&a_hi, &b_hi, &mask, &mut values).unwrap();
        for (p, (_, _, v)) in whole.iter().enumerate() {
            assert!((values[p] - v).abs() < 1e-12);
        }
    }

    #[test]
    fn csr_t_dense_matches_transposed_gemm() {
        let a = pseudo_random_mask(14, 9, 3, 19);
        let b = pseudo_random_dense(14, 6, 21);
        let c = csr_t_dense(&a, &b).unwrap();
        let expect = reference(&a.to_dense().transpose(), &b);
        assert!(c.max_abs_diff(&expect).unwrap() < 1e-10);
    }

    #[test]
    fn empty_mask_and_empty_rows() {
        let a = pseudo_random_dense(6, 4, 1);
        let b = pseudo_random_dense(4, 5, 2);
        let empty = CsrBlock::empty(6, 5);
        let c = sddmm(&a, &b, &empty).unwrap();
        assert_eq!(c.nnz(), 0);
        let t = csr_t_dense(&CsrBlock::empty(6, 3), &a).unwrap();
        assert_eq!(t.nnz(), 0);
        assert_eq!((t.rows(), t.cols()), (3, 4));
    }

    #[test]
    fn dim_mismatches_rejected() {
        let a = pseudo_random_dense(5, 4, 1);
        let b = pseudo_random_dense(4, 6, 2);
        assert!(sddmm(&a, &b, &CsrBlock::empty(5, 7)).is_err());
        assert!(sddmm(&a, &b, &CsrBlock::empty(4, 6)).is_err());
        assert!(sddmm(&b, &a, &CsrBlock::empty(4, 4)).is_err());
        assert!(csr_t_dense(&CsrBlock::empty(5, 3), &b).is_err());
        let mut short = vec![0.0; 1];
        assert!(sddmm_acc(&a, &b, &CsrBlock::empty(5, 6), &mut short).is_err());
    }

    /// Bernoulli CSR pattern at `density`; `density == 0.0` yields an
    /// all-zero mask, and low densities produce empty rows routinely.
    fn bernoulli_mask(rows: usize, cols: usize, density: f64, seed: u64) -> CsrBlock {
        let mut state = seed | 1;
        let mut trips = Vec::new();
        for i in 0..rows {
            for j in 0..cols {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let draw = (state >> 11) as f64 / (1u64 << 53) as f64;
                if draw < density {
                    let v = ((state >> 40) as f64 % 17.0) - 8.0;
                    trips.push((i, j, v));
                }
            }
        }
        CsrBlock::from_triplets(rows, cols, trips).unwrap()
    }

    proptest! {
        /// SDDMM bit-matches the dense reference over random CSR masks ×
        /// shapes, including all-zero masks and empty rows (both sides
        /// accumulate k ascending, so equality is exact, not approximate).
        #[test]
        fn sddmm_bit_matches_dense_reference(
            (m, k, n) in (1usize..12, 1usize..12, 1usize..12),
            seed in any::<u64>(),
            density in prop_oneof![Just(0.0), Just(0.15), Just(0.5)],
        ) {
            let a = pseudo_random_dense(m, k, seed ^ 1);
            let b = pseudo_random_dense(k, n, seed ^ 2);
            let mask = bernoulli_mask(m, n, density, seed ^ 3);
            let c = sddmm(&a, &b, &mask).unwrap();
            let expect = naive_sddmm(&a, &b, &mask);
            let got: Vec<(usize, usize, f64)> = c.iter().collect();
            prop_assert_eq!(got.len(), expect.len());
            for (g, e) in got.iter().zip(expect.iter()) {
                prop_assert_eq!(g.0, e.0);
                prop_assert_eq!(g.1, e.1);
                prop_assert_eq!(g.2.to_bits(), e.2.to_bits(), "value at ({}, {})", g.0, g.1);
            }
        }

        /// Transpose-aware SpMM bit-matches an element-wise scatter in the
        /// same order (identical accumulation order by construction).
        #[test]
        fn csr_t_dense_bit_matches_dense_reference(
            (m, k, n) in (1usize..12, 1usize..12, 1usize..12),
            seed in any::<u64>(),
            density in prop_oneof![Just(0.0), Just(0.2), Just(0.6)],
        ) {
            let a = bernoulli_mask(m, k, density, seed ^ 5);
            let b = pseudo_random_dense(m, n, seed ^ 6);
            let c = csr_t_dense(&a, &b).unwrap();
            let mut expect = DenseBlock::zeros(k, n);
            for (i, kk, v) in a.iter() {
                for j in 0..n {
                    expect.set(kk, j, expect.get(kk, j) + v * b.get(i, j));
                }
            }
            for i in 0..k {
                for j in 0..n {
                    prop_assert_eq!(c.get(i, j).to_bits(), expect.get(i, j).to_bits());
                }
            }
        }
    }
}

//! Sparse × dense kernels (the `cusparseDcsrmm` stand-in).
//!
//! Three block products, one inner loop. [`csr_dense_acc`] (`A_csr · B`),
//! [`dense_csr_tn_acc`] (`A · B_csr` from a packed `Aᵀ`) and
//! [`csr_t_dense_acc`] (`Aᵀ_csr · B`) each reduce to `y += v · x` over
//! whole rows — a stored value times a contiguous row of the dense operand,
//! added into a contiguous row of the accumulator. That axpy is written once
//! per instruction set (8 lanes on `avx512f`, 4 on `avx2`, a plain loop
//! elsewhere) and picked through the GEMM's once-per-process `Tile`
//! detection.
//!
//! **Bits.** The axpy multiplies, then adds — two roundings, never an FMA —
//! so every lane does exactly what the scalar `y[j] += v * x[j]` does, and
//! the body's width cannot enter a result. `A · B_csr` is computed
//! transposed: for each stored `B[k, j] = v`, `Cᵀ[j, :] += v · Aᵀ[k, :]`
//! into a zeroed per-thread scratch, then `Cᵀ` is added into `C` once. Per
//! element that is the sum over `k` ascending from zero, then one add into
//! `C`. A zero `A[i, k]` is multiplied like any other value, so `0 · ∞` is
//! a NaN here as it is in [`gemm`].
//!
//! [`csr_t_dense_acc`]: crate::kernels::sddmm::csr_t_dense_acc
//! [`gemm`]: crate::kernels::gemm::gemm

use std::cell::RefCell;

use super::gemm::Tile;
use super::sddmm::csr_t_dense_into;
use crate::dense::DenseBlock;
use crate::error::{MatrixError, Result};
use crate::sparse::CsrBlock;

/// `C = A_csr · B_dense`, returning a dense block.
///
/// Row-wise SpMM: for each non-zero `A[i,k]`, axpy row `k` of `B` into row
/// `i` of `C`. This is the classic CSR-row formulation with good locality on
/// B's rows.
///
/// # Errors
/// Returns [`MatrixError::DimensionMismatch`] when `a.cols() != b.rows()`.
pub fn csr_dense(a: &CsrBlock, b: &DenseBlock) -> Result<DenseBlock> {
    let mut c = DenseBlock::zeros(a.rows(), b.cols());
    csr_dense_acc(a, b, &mut c)?;
    Ok(c)
}

/// `C += A_csr · B_dense` with a caller-provided accumulator: each stored
/// `A[i, k]`, in CSR order, axpys row `k` of `B` straight into row `i` of
/// `C`.
///
/// # Errors
/// Returns [`MatrixError::DimensionMismatch`] on shape mismatch.
pub fn csr_dense_acc(a: &CsrBlock, b: &DenseBlock, c: &mut DenseBlock) -> Result<()> {
    csr_dense_acc_on(axpy_of(Tile::best()), a, b, c)
}

fn csr_dense_acc_on(axpy: Axpy, a: &CsrBlock, b: &DenseBlock, c: &mut DenseBlock) -> Result<()> {
    if a.cols() != b.rows() || c.rows() != a.rows() || c.cols() != b.cols() {
        return Err(MatrixError::DimensionMismatch {
            op: "csr_dense",
            lhs: (a.rows() as u64, a.cols() as u64),
            rhs: (b.rows() as u64, b.cols() as u64),
        });
    }
    let n = b.cols();
    let bv = b.data();
    let cv = c.data_mut();
    let row_ptr = a.row_ptr();
    let col_idx = a.col_idx();
    let values = a.values();
    for i in 0..a.rows() {
        let crow = &mut cv[i * n..(i + 1) * n];
        for idx in row_ptr[i] as usize..row_ptr[i + 1] as usize {
            let k = col_idx[idx] as usize;
            axpy(values[idx], &bv[k * n..(k + 1) * n], crow);
        }
    }
    Ok(())
}

/// `C = A_dense · B_csr`, returning a dense block.
///
/// # Errors
/// Returns [`MatrixError::DimensionMismatch`] when `a.cols() != b.rows()`.
pub fn dense_csr(a: &DenseBlock, b: &CsrBlock) -> Result<DenseBlock> {
    let mut c = DenseBlock::zeros(a.rows(), b.cols());
    dense_csr_acc(a, b, &mut c)?;
    Ok(c)
}

/// `C += A_dense · B_csr`: transposes `A` and runs [`dense_csr_tn_acc`]. A
/// caller that multiplies one `A` against several sparse blocks transposes
/// it once itself and calls that directly.
///
/// # Errors
/// Returns [`MatrixError::DimensionMismatch`] on shape mismatch.
pub fn dense_csr_acc(a: &DenseBlock, b: &CsrBlock, c: &mut DenseBlock) -> Result<()> {
    if a.cols() != b.rows() || c.rows() != a.rows() || c.cols() != b.cols() {
        return Err(MatrixError::DimensionMismatch {
            op: "dense_csr",
            lhs: (a.rows() as u64, a.cols() as u64),
            rhs: (b.rows() as u64, b.cols() as u64),
        });
    }
    dense_csr_tn_acc(&a.transpose(), b, c)
}

/// `C += atᵀ · B_csr`, where `at` is the dense left operand stored
/// transposed (`k × m`, as in [`gemm_tn`]): `Cᵀ = B_csrᵀ · at` is
/// [`csr_t_dense`]'s walk — each stored `B[k, j] = v` axpys row `k` of `at`,
/// length `m` and contiguous, into row `j` of a zeroed `Cᵀ` scratch — and
/// `Cᵀ` is then added into `C`.
///
/// The scratch is this thread's, sized `m × n` from the operands and reused
/// by every later call on the thread. It grows up to a 256 × 256 product
/// (512 KB); a larger product gets a buffer of its own that the call frees.
///
/// [`gemm_tn`]: crate::kernels::gemm::gemm_tn
/// [`csr_t_dense`]: crate::kernels::sddmm::csr_t_dense
///
/// # Errors
/// Returns [`MatrixError::DimensionMismatch`] on shape mismatch.
pub fn dense_csr_tn_acc(at: &DenseBlock, b: &CsrBlock, c: &mut DenseBlock) -> Result<()> {
    dense_csr_tn_acc_on(axpy_of(Tile::best()), at, b, c)
}

fn dense_csr_tn_acc_on(
    axpy: Axpy,
    at: &DenseBlock,
    b: &CsrBlock,
    c: &mut DenseBlock,
) -> Result<()> {
    let (m, n) = (at.cols(), b.cols());
    if at.rows() != b.rows() || c.rows() != m || c.cols() != n {
        return Err(MatrixError::DimensionMismatch {
            op: "dense_csr_tn",
            lhs: (m as u64, at.rows() as u64),
            rhs: (b.rows() as u64, n as u64),
        });
    }
    let mut run = |ct: &mut [f64]| {
        csr_t_dense_into(axpy, b, at.data(), m, ct);
        add_transposed(ct, c);
    };
    if m * n > KEPT_PRODUCT {
        run(&mut vec![0.0; m * n]);
        return Ok(());
    }
    PRODUCT_T.with_borrow_mut(|kept| {
        if kept.len() < m * n {
            kept.resize(m * n, 0.0);
        }
        let ct = &mut kept[..m * n];
        ct.fill(0.0);
        run(ct);
    });
    Ok(())
}

/// The most elements the per-thread `Cᵀ` scratch keeps between calls.
const KEPT_PRODUCT: usize = 256 * 256;

thread_local! {
    /// This thread's `Cᵀ` scratch for [`dense_csr_tn_acc`].
    static PRODUCT_T: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// `c += ctᵀ`, where `ct` holds `c.cols() × c.rows()` row-major; walked in
/// square tiles so neither side is read with a cache-line stride for long.
fn add_transposed(ct: &[f64], c: &mut DenseBlock) {
    const TILE: usize = 16;
    let (m, n) = (c.rows(), c.cols());
    let cv = c.data_mut();
    for i0 in (0..m).step_by(TILE) {
        for j0 in (0..n).step_by(TILE) {
            for i in i0..(i0 + TILE).min(m) {
                let crow = &mut cv[i * n..(i + 1) * n];
                for j in j0..(j0 + TILE).min(n) {
                    crow[j] += ct[j * m + i];
                }
            }
        }
    }
}

/// `y += alpha · x` over `min(x.len(), y.len())` elements, each lane one
/// multiply then one add.
pub(super) type Axpy = fn(f64, &[f64], &mut [f64]);

/// The axpy body for `tile`'s instruction set — the one dispatch point of
/// every sparse × dense kernel.
pub(super) fn axpy_of(tile: Tile) -> Axpy {
    match tile {
        #[cfg(target_arch = "x86_64")]
        Tile::Avx512 => |alpha, x, y| {
            // SAFETY: `Tile::Avx512` comes out of `Tile::supported` only
            // after `is_x86_feature_detected!("avx512f")` (see `Tile`).
            unsafe { axpy_avx512(alpha, x, y) }
        },
        #[cfg(target_arch = "x86_64")]
        Tile::Avx2 => |alpha, x, y| {
            // SAFETY: `Tile::Avx2` comes out of `Tile::supported` only after
            // `is_x86_feature_detected!` saw "avx2" (and "fma", unused here).
            unsafe { axpy_avx2(alpha, x, y) }
        },
        Tile::Portable => axpy_portable,
    }
}

/// The portable axpy: a plain loop, left to the auto-vectorizer.
fn axpy_portable(alpha: f64, x: &[f64], y: &mut [f64]) {
    for (yj, &xj) in y.iter_mut().zip(x) {
        *yj += alpha * xj;
    }
}

/// The `avx512f` axpy: 8 lanes per `zmm` step, the ragged tail under a lane
/// mask.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn axpy_avx512(alpha: f64, x: &[f64], y: &mut [f64]) {
    use std::arch::x86_64::*;
    let len = x.len().min(y.len());
    let (x, y) = (&x[..len], &mut y[..len]);
    let a = _mm512_set1_pd(alpha);
    let mut xs = x.chunks_exact(8);
    let mut ys = y.chunks_exact_mut(8);
    for (xv, yv) in (&mut xs).zip(&mut ys) {
        // SAFETY: `xv` and `yv` are 8 elements each, one `zmm` apiece.
        unsafe {
            let p = _mm512_mul_pd(a, _mm512_loadu_pd(xv.as_ptr()));
            let s = _mm512_add_pd(_mm512_loadu_pd(yv.as_ptr()), p);
            _mm512_storeu_pd(yv.as_mut_ptr(), s);
        }
    }
    let (xt, yt) = (xs.remainder(), ys.into_remainder());
    if !yt.is_empty() {
        let mask: __mmask8 = 0xFF >> (8 - yt.len());
        // SAFETY: `xt` and `yt` have the same 1..=7 elements, and `mask`
        // enables exactly that many lanes, so no access leaves them.
        unsafe {
            let p = _mm512_mul_pd(a, _mm512_maskz_loadu_pd(mask, xt.as_ptr()));
            let s = _mm512_add_pd(_mm512_maskz_loadu_pd(mask, yt.as_ptr()), p);
            _mm512_mask_storeu_pd(yt.as_mut_ptr(), mask, s);
        }
    }
}

/// The `avx2` axpy: 4 lanes per `ymm` step, the ragged tail in scalar mul
/// then add (the same two roundings).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn axpy_avx2(alpha: f64, x: &[f64], y: &mut [f64]) {
    use std::arch::x86_64::*;
    let len = x.len().min(y.len());
    let (x, y) = (&x[..len], &mut y[..len]);
    let a = _mm256_set1_pd(alpha);
    let mut xs = x.chunks_exact(4);
    let mut ys = y.chunks_exact_mut(4);
    for (xv, yv) in (&mut xs).zip(&mut ys) {
        // SAFETY: `xv` and `yv` are 4 elements each, one `ymm` apiece.
        unsafe {
            let p = _mm256_mul_pd(a, _mm256_loadu_pd(xv.as_ptr()));
            let s = _mm256_add_pd(_mm256_loadu_pd(yv.as_ptr()), p);
            _mm256_storeu_pd(yv.as_mut_ptr(), s);
        }
    }
    axpy_portable(alpha, xs.remainder(), ys.into_remainder());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::gemm::gemm;

    fn pseudo_random_sparse(rows: usize, cols: usize, every: usize, seed: u64) -> CsrBlock {
        let mut trips = Vec::new();
        let mut state = seed | 1;
        for i in 0..rows {
            for j in 0..cols {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if ((state >> 33) as usize).is_multiple_of(every) {
                    trips.push((i, j, ((state >> 40) as f64 % 17.0) - 8.0));
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

    #[test]
    fn csr_dense_matches_gemm() {
        let a = pseudo_random_sparse(23, 31, 5, 7);
        let b = pseudo_random_dense(31, 11, 9);
        let c = csr_dense(&a, &b).unwrap();
        let expect = reference(&a.to_dense(), &b);
        assert!(c.max_abs_diff(&expect).unwrap() < 1e-10);
    }

    #[test]
    fn dense_csr_matches_gemm() {
        let a = pseudo_random_dense(13, 29, 21);
        let b = pseudo_random_sparse(29, 17, 4, 5);
        let c = dense_csr(&a, &b).unwrap();
        let expect = reference(&a, &b.to_dense());
        assert!(c.max_abs_diff(&expect).unwrap() < 1e-10);
    }

    #[test]
    fn accumulate_adds_onto_existing() {
        let a = pseudo_random_sparse(8, 8, 3, 11);
        let b = pseudo_random_dense(8, 8, 13);
        let mut c = pseudo_random_dense(8, 8, 15);
        let c0 = c.clone();
        csr_dense_acc(&a, &b, &mut c).unwrap();
        let prod = reference(&a.to_dense(), &b);
        for i in 0..8 {
            for j in 0..8 {
                assert!((c.get(i, j) - (c0.get(i, j) + prod.get(i, j))).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn empty_sparse_yields_zero() {
        let a = CsrBlock::empty(5, 6);
        let b = pseudo_random_dense(6, 4, 3);
        let c = csr_dense(&a, &b).unwrap();
        assert_eq!(c.nnz(), 0);
    }

    #[test]
    fn all_zero_dense_operand_yields_zero() {
        let a = pseudo_random_sparse(9, 7, 2, 3);
        let c = csr_dense(&a, &DenseBlock::zeros(7, 5)).unwrap();
        assert_eq!(c.nnz(), 0);
        let b = pseudo_random_sparse(9, 4, 2, 5);
        let c2 = dense_csr(&DenseBlock::zeros(6, 9), &b).unwrap();
        assert_eq!(c2.nnz(), 0);
    }

    #[test]
    fn dim_mismatches_rejected() {
        let a = CsrBlock::empty(5, 6);
        let b = pseudo_random_dense(7, 4, 3);
        assert!(csr_dense(&a, &b).is_err());
        let d = pseudo_random_dense(4, 9, 3);
        let s = CsrBlock::empty(5, 6);
        assert!(dense_csr(&d, &s).is_err());
    }

    /// Plain scalar loops: the references every dispatched axpy body must
    /// match bit for bit.
    mod scalar {
        use super::*;

        /// A scalar scatter: for each row `i` of `A` and each non-zero
        /// `A[i, k]`, `C[i, j] += A[i, k] · B[k, j]` over B's row `k`.
        pub fn dense_csr(a: &DenseBlock, b: &CsrBlock) -> DenseBlock {
            let (m, kdim, n) = (a.rows(), a.cols(), b.cols());
            let mut c = DenseBlock::zeros(m, n);
            let av = a.data();
            let cv = c.data_mut();
            for i in 0..m {
                let arow = &av[i * kdim..(i + 1) * kdim];
                let crow = &mut cv[i * n..(i + 1) * n];
                for (k, &aik) in arow.iter().enumerate() {
                    if aik == 0.0 {
                        continue;
                    }
                    let (s, e) = (b.row_ptr()[k] as usize, b.row_ptr()[k + 1] as usize);
                    for idx in s..e {
                        crow[b.col_idx()[idx] as usize] += aik * b.values()[idx];
                    }
                }
            }
            c
        }

        /// A dense × CSR product from zero, then added into `c` once.
        pub fn dense_csr_acc(a: &DenseBlock, b: &CsrBlock, c: &mut DenseBlock) {
            c.add_assign(&dense_csr(a, b)).unwrap();
        }

        pub fn csr_dense_acc(a: &CsrBlock, b: &DenseBlock, c: &mut DenseBlock) {
            let n = b.cols();
            let bv = b.data();
            let cv = c.data_mut();
            for i in 0..a.rows() {
                let crow = &mut cv[i * n..(i + 1) * n];
                let (s, e) = (a.row_ptr()[i] as usize, a.row_ptr()[i + 1] as usize);
                for idx in s..e {
                    let k = a.col_idx()[idx] as usize;
                    let v = a.values()[idx];
                    for (cj, bj) in crow.iter_mut().zip(&bv[k * n..(k + 1) * n]) {
                        *cj += v * *bj;
                    }
                }
            }
        }

        pub fn csr_t_dense_acc(a: &CsrBlock, b: &DenseBlock, c: &mut DenseBlock) {
            let n = b.cols();
            let bv = b.data();
            let cv = c.data_mut();
            for i in 0..a.rows() {
                let brow = &bv[i * n..(i + 1) * n];
                let (s, e) = (a.row_ptr()[i] as usize, a.row_ptr()[i + 1] as usize);
                for idx in s..e {
                    let k = a.col_idx()[idx] as usize;
                    let v = a.values()[idx];
                    for (cj, bj) in cv[k * n..(k + 1) * n].iter_mut().zip(brow) {
                        *cj += v * *bj;
                    }
                }
            }
        }
    }

    /// A CSR block at `density` with full-mantissa values in (-1, 1), so
    /// that a changed summation order shows in the bits. `density == 0.0`
    /// stores nothing; low densities leave rows empty.
    fn fractional_sparse(rows: usize, cols: usize, density: f64, seed: u64) -> CsrBlock {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut trips = Vec::new();
        for i in 0..rows {
            for j in 0..cols {
                if next() < density {
                    trips.push((i, j, next() * 2.0 - 1.0));
                }
            }
        }
        CsrBlock::from_triplets(rows, cols, trips).unwrap()
    }

    fn fractional_dense(rows: usize, cols: usize, seed: u64) -> DenseBlock {
        let mut state = seed.wrapping_mul(0xD1B54A32D192ED03) | 1;
        DenseBlock::from_fn(rows, cols, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        })
    }

    fn bits(block: &DenseBlock) -> Vec<u64> {
        block.data().iter().map(|v| v.to_bits()).collect()
    }

    /// `(m, k, n)` shapes: 1×1, `m`/`n` off every lane multiple (8 and 4)
    /// and on them, and GNMF's block products (`WᵀV` 64×128×128, `VHᵀ`
    /// 128×128×64), each at densities from an all-empty CSR through one
    /// with empty rows to half full.
    fn shapes() -> Vec<(usize, usize, usize, f64)> {
        let mut out = Vec::new();
        for (m, k, n) in [
            (1, 1, 1),
            (3, 5, 7),
            (9, 6, 13),
            (8, 4, 8),
            (17, 11, 15),
            (31, 9, 33),
            (64, 128, 128),
            (128, 128, 64),
        ] {
            for density in [0.0, 0.05, 0.5] {
                out.push((m, k, n, density));
            }
        }
        out
    }

    /// Walks [`shapes`] largest first and then smallest first, so that each
    /// shape also runs on this thread's scratch left dirty by a larger one.
    fn each_shape(mut f: impl FnMut(usize, usize, usize, f64, u64)) {
        let mut order = shapes();
        order.sort_by_key(|&(m, k, n, _)| std::cmp::Reverse(m * k * n));
        let ascending: Vec<_> = order.iter().rev().copied().collect();
        for (seed, (m, k, n, density)) in order.into_iter().chain(ascending).enumerate() {
            f(m, k, n, density, seed as u64);
        }
    }

    #[test]
    fn every_axpy_body_keeps_the_scalar_bits_of_csr_dense() {
        each_shape(|m, k, n, density, seed| {
            let (a, b) = (
                fractional_sparse(m, k, density, seed),
                fractional_dense(k, n, seed),
            );
            let c0 = fractional_dense(m, n, seed ^ 1);
            let mut expect = c0.clone();
            scalar::csr_dense_acc(&a, &b, &mut expect);
            for tile in Tile::supported() {
                let mut c = c0.clone();
                csr_dense_acc_on(axpy_of(tile), &a, &b, &mut c).unwrap();
                assert_eq!(bits(&c), bits(&expect), "{tile:?} {m}x{k}x{n} at {density}");
            }
        });
    }

    #[test]
    fn every_axpy_body_keeps_the_scalar_bits_of_dense_csr() {
        each_shape(|m, k, n, density, seed| {
            let (a, b) = (
                fractional_dense(m, k, seed),
                fractional_sparse(k, n, density, seed),
            );
            let at = a.transpose();
            let c0 = fractional_dense(m, n, seed ^ 1);
            let mut expect = c0.clone();
            scalar::dense_csr_acc(&a, &b, &mut expect);
            let product = scalar::dense_csr(&a, &b);
            for tile in Tile::supported() {
                let case = format!("{tile:?} {m}x{k}x{n} at {density}");
                let mut c = c0.clone();
                dense_csr_tn_acc_on(axpy_of(tile), &at, &b, &mut c).unwrap();
                assert_eq!(bits(&c), bits(&expect), "accumulated, {case}");
                let mut c = DenseBlock::zeros(m, n);
                dense_csr_tn_acc_on(axpy_of(tile), &at, &b, &mut c).unwrap();
                assert_eq!(bits(&c), bits(&product), "from zero, {case}");
            }
            assert_eq!(bits(&dense_csr(&a, &b).unwrap()), bits(&product));
        });
    }

    #[test]
    fn every_axpy_body_keeps_the_scalar_bits_of_csr_t_dense() {
        each_shape(|m, k, n, density, seed| {
            // `a` is `k × m` here, so the product is `m × n`.
            let (a, b) = (
                fractional_sparse(k, m, density, seed),
                fractional_dense(k, n, seed),
            );
            let c0 = fractional_dense(m, n, seed ^ 1);
            let mut expect = c0.clone();
            scalar::csr_t_dense_acc(&a, &b, &mut expect);
            for tile in Tile::supported() {
                let mut c = c0.clone();
                super::super::sddmm::csr_t_dense_acc_on(axpy_of(tile), &a, &b, &mut c).unwrap();
                assert_eq!(bits(&c), bits(&expect), "{tile:?} {m}x{k}x{n} at {density}");
            }
        });
    }

    #[test]
    fn a_k_chain_into_one_c_keeps_the_scalar_bits() {
        // One C takes four steps, dense × CSR and CSR × dense alternating,
        // as a cuboid cell's k chain does.
        let (m, k, n) = (13, 10, 19);
        for tile in Tile::supported() {
            let axpy = axpy_of(tile);
            let mut c = DenseBlock::zeros(m, n);
            let mut expect = DenseBlock::zeros(m, n);
            for step in 0..4u64 {
                if step % 2 == 0 {
                    let a = fractional_dense(m, k, step);
                    let b = fractional_sparse(k, n, 0.3, step);
                    dense_csr_tn_acc_on(axpy, &a.transpose(), &b, &mut c).unwrap();
                    scalar::dense_csr_acc(&a, &b, &mut expect);
                } else {
                    let a = fractional_sparse(m, k, 0.3, step);
                    let b = fractional_dense(k, n, step);
                    csr_dense_acc_on(axpy, &a, &b, &mut c).unwrap();
                    scalar::csr_dense_acc(&a, &b, &mut expect);
                }
            }
            assert_eq!(bits(&c), bits(&expect), "{tile:?}");
        }
    }

    #[test]
    fn the_product_scratch_is_sized_by_the_operands_and_capped() {
        std::thread::spawn(|| {
            let b = fractional_sparse(12, 7, 0.5, 1);
            dense_csr(&fractional_dense(5, 12, 2), &b).unwrap();
            assert_eq!(PRODUCT_T.with_borrow(Vec::len), 5 * 7);
            dense_csr(&fractional_dense(3, 12, 2), &b).unwrap();
            assert_eq!(PRODUCT_T.with_borrow(Vec::len), 5 * 7, "kept, not shrunk");
            // One more row than the cap allows: the call computes the same
            // bits on a buffer of its own and leaves the kept scratch alone.
            let rows = KEPT_PRODUCT / 7 + 1;
            let a = fractional_dense(rows, 12, 3);
            let mut expect = DenseBlock::zeros(rows, 7);
            scalar::dense_csr_acc(&a, &b, &mut expect);
            assert_eq!(bits(&dense_csr(&a, &b).unwrap()), bits(&expect));
            assert_eq!(PRODUCT_T.with_borrow(Vec::len), 5 * 7, "past the cap");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn dense_csr_follows_ieee_on_non_finite_values() {
        // A zero in A does not skip B's row: 0 · ∞ is NaN, as in `gemm`.
        let a = DenseBlock::from_vec(1, 2, vec![0.0, 1.0]).unwrap();
        let b = CsrBlock::from_triplets(2, 1, vec![(0, 0, f64::INFINITY), (1, 0, 2.0)]).unwrap();
        let c = dense_csr(&a, &b).unwrap();
        assert!(c.get(0, 0).is_nan());
        assert!(reference(&a, &b.to_dense()).get(0, 0).is_nan());
    }
}

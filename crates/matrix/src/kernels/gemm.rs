//! Dense general matrix multiply: `C = alpha * A * B + beta * C`.
//!
//! A packed, cache-blocked implementation in the BLIS/GotoBLAS mold,
//! standing in for MKL `dgemm` / `cublasDgemm`:
//!
//! * the operands are repacked into contiguous panels — A into `MR`-strided
//!   row panels, B into `NR`-strided column panels — so the micro-kernel
//!   streams both with unit stride and no edge branches;
//! * the loop nest blocks by `NC` (B columns, L3), `KC` (panel depth, L1/L2)
//!   and `MC` (A rows, L2), with an `MR × NR = 8 × 4` register-tiled
//!   micro-kernel at the bottom;
//! * on x86-64 the micro-kernel dispatches at runtime to an AVX2+FMA
//!   instantiation (`mul_add` compiles to `vfmadd`) when the CPU supports
//!   it, with a portable mul+add fallback everywhere else.
//!
//! [`gemm_tn`] (`C = alpha * aᵀ * b + beta * C`) shares the same driver:
//! packing A reads it column-wise, so the transpose costs nothing extra and
//! the micro-kernel is identical.

use crate::dense::DenseBlock;
use crate::error::{MatrixError, Result};

/// Tile size along the k dimension (panel depth; A and B panels of this
/// depth stay L1/L2-resident under the micro-kernel).
const KC: usize = 256;
/// Tile size along the m dimension (rows of A packed per panel).
const MC: usize = 128;
/// Tile size along the n dimension (columns of B packed per panel).
const NC: usize = 2048;
/// Register block: the micro-kernel computes an `MR × NR` sub-tile.
const MR: usize = 8;
/// See [`MR`].
const NR: usize = 4;

/// `c = alpha * a * b + beta * c`.
///
/// # Errors
/// Returns [`MatrixError::DimensionMismatch`] when operand shapes are
/// incompatible.
pub fn gemm(
    alpha: f64,
    a: &DenseBlock,
    b: &DenseBlock,
    beta: f64,
    c: &mut DenseBlock,
) -> Result<()> {
    let (m, k) = (a.rows(), a.cols());
    let (kb, n) = (b.rows(), b.cols());
    if k != kb || c.rows() != m || c.cols() != n {
        return Err(MatrixError::DimensionMismatch {
            op: "gemm",
            lhs: (m as u64, k as u64),
            rhs: (kb as u64, n as u64),
        });
    }
    scale_c(beta, c);
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return Ok(());
    }
    blocked_driver::<false>(alpha, a.data(), b.data(), c.data_mut(), m, n, k);
    Ok(())
}

/// `c = alpha * aᵀ * b + beta * c` without materializing `aᵀ`.
///
/// The `WᵀV` / `WᵀW` pattern of GNMF and the Gram-matrix pattern of least
/// squares both left-multiply by a transpose; packing `A` column-wise here
/// absorbs the transpose into the packing pass, so the blocked kernel runs
/// at the same rate as [`gemm`].
///
/// # Errors
/// Returns [`MatrixError::DimensionMismatch`] when operand shapes are
/// incompatible (`a` is `k × m`, `b` is `k × n`, `c` is `m × n`).
pub fn gemm_tn(
    alpha: f64,
    a: &DenseBlock,
    b: &DenseBlock,
    beta: f64,
    c: &mut DenseBlock,
) -> Result<()> {
    let (k, m) = (a.rows(), a.cols());
    let (kb, n) = (b.rows(), b.cols());
    if k != kb || c.rows() != m || c.cols() != n {
        return Err(MatrixError::DimensionMismatch {
            op: "gemm_tn",
            lhs: (k as u64, m as u64),
            rhs: (kb as u64, n as u64),
        });
    }
    scale_c(beta, c);
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return Ok(());
    }
    blocked_driver::<true>(alpha, a.data(), b.data(), c.data_mut(), m, n, k);
    Ok(())
}

fn scale_c(beta: f64, c: &mut DenseBlock) {
    if beta != 1.0 {
        for v in c.data_mut() {
            *v *= beta;
        }
    }
}

/// The five-loop blocked driver. `TN` selects how A is read during packing:
/// `false` — A is `m × k` row-major; `true` — A is `k × m` row-major and the
/// packed panels hold `aᵀ`.
fn blocked_driver<const TN: bool>(
    alpha: f64,
    av: &[f64],
    bv: &[f64],
    cv: &mut [f64],
    m: usize,
    n: usize,
    k: usize,
) {
    let use_fma = fma_available();
    // Panel buffers are rounded up to full MR/NR tiles and zero-padded, so
    // the micro-kernel never branches on edges; the write-back masks them.
    let mut apack = vec![0.0f64; MC.div_ceil(MR) * MR * KC];
    let mut bpack = vec![0.0f64; NC.div_ceil(NR) * NR * KC];

    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            pack_b(&mut bpack, bv, n, pc, jc, kc, nc);
            let mut ic = 0;
            while ic < m {
                let mc = MC.min(m - ic);
                if TN {
                    pack_a_tn(&mut apack, av, m, pc, ic, kc, mc);
                } else {
                    pack_a(&mut apack, av, k, pc, ic, kc, mc);
                }
                macro_kernel(alpha, &apack, &bpack, cv, ic, jc, mc, nc, kc, n, use_fma);
                ic += mc;
            }
            pc += kc;
        }
        jc += nc;
    }
}

/// Packs `A[ic..ic+mc, pc..pc+kc]` (row-major, leading dimension `lda`)
/// into MR-strided panels: panel `ir` holds, for each depth `p`, the MR
/// consecutive values `A[ic+ir.., pc+p]`. Rows past `mc` pad with zero.
fn pack_a(apack: &mut [f64], av: &[f64], lda: usize, pc: usize, ic: usize, kc: usize, mc: usize) {
    let mut dst = 0;
    let mut ir = 0;
    while ir < mc {
        let rows = MR.min(mc - ir);
        for p in 0..kc {
            let base = dst + p * MR;
            for r in 0..rows {
                apack[base + r] = av[(ic + ir + r) * lda + pc + p];
            }
            for r in rows..MR {
                apack[base + r] = 0.0;
            }
        }
        dst += kc * MR;
        ir += MR;
    }
}

/// [`pack_a`] for the transposed layout: A is `k × m` row-major and the
/// packed panel holds `aᵀ[ic.., pc..]`, i.e. element `(r, p)` reads
/// `A[pc+p, ic+ir+r]`. Reading row `pc+p` of A is sequential, so the
/// transpose costs one strided write pattern into a cache-resident panel.
fn pack_a_tn(apack: &mut [f64], av: &[f64], m: usize, pc: usize, ic: usize, kc: usize, mc: usize) {
    let mut dst = 0;
    let mut ir = 0;
    while ir < mc {
        let rows = MR.min(mc - ir);
        for p in 0..kc {
            let arow = (pc + p) * m + ic + ir;
            let base = dst + p * MR;
            apack[base..base + rows].copy_from_slice(&av[arow..arow + rows]);
            for r in rows..MR {
                apack[base + r] = 0.0;
            }
        }
        dst += kc * MR;
        ir += MR;
    }
}

/// Packs `B[pc..pc+kc, jc..jc+nc]` (row-major, leading dimension `ldb`)
/// into NR-strided panels: panel `jr` holds, for each depth `p`, the NR
/// consecutive values `B[pc+p, jc+jr..]`. Columns past `nc` pad with zero.
fn pack_b(bpack: &mut [f64], bv: &[f64], ldb: usize, pc: usize, jc: usize, kc: usize, nc: usize) {
    let mut dst = 0;
    let mut jr = 0;
    while jr < nc {
        let cols = NR.min(nc - jr);
        for p in 0..kc {
            let brow = (pc + p) * ldb + jc + jr;
            let base = dst + p * NR;
            bpack[base..base + cols].copy_from_slice(&bv[brow..brow + cols]);
            for q in cols..NR {
                bpack[base + q] = 0.0;
            }
        }
        dst += kc * NR;
        jr += NR;
    }
}

/// Walks the packed panels, invoking the micro-kernel per `MR × NR` tile.
#[allow(clippy::too_many_arguments)]
fn macro_kernel(
    alpha: f64,
    apack: &[f64],
    bpack: &[f64],
    cv: &mut [f64],
    ic: usize,
    jc: usize,
    mc: usize,
    nc: usize,
    kc: usize,
    ldc: usize,
    use_fma: bool,
) {
    let mut jr = 0;
    while jr < nc {
        let nr = NR.min(nc - jr);
        let bp = &bpack[(jr / NR) * kc * NR..][..kc * NR];
        let mut ir = 0;
        while ir < mc {
            let mr = MR.min(mc - ir);
            let ap = &apack[(ir / MR) * kc * MR..][..kc * MR];
            let c0 = (ic + ir) * ldc + jc + jr;
            if use_fma {
                // SAFETY: `use_fma` is true only when `fma_available`
                // confirmed AVX2+FMA support on this CPU at runtime.
                unsafe { micro_kernel_avx2(alpha, ap, bp, cv, c0, ldc, mr, nr) };
            } else {
                micro_kernel_portable(alpha, ap, bp, cv, c0, ldc, mr, nr);
            }
            ir += MR;
        }
        jr += NR;
    }
}

#[cfg(target_arch = "x86_64")]
fn fma_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

#[cfg(not(target_arch = "x86_64"))]
fn fma_available() -> bool {
    false
}

/// The register-tiled inner kernel over one `MR`-panel of A and one
/// `NR`-panel of B: 32 accumulators, fully unrolled across the tile, one
/// multiply-add per element per depth step. `FMA` selects `mul_add`
/// (single rounding, compiles to `vfmadd` under the fma feature) versus
/// plain mul+add, so the portable build never hits the libm soft-fma path.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn micro_kernel_body<const FMA: bool>(
    alpha: f64,
    ap: &[f64],
    bp: &[f64],
    cv: &mut [f64],
    c0: usize,
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    let mut acc = [[0.0f64; NR]; MR];
    for (avec, bvec) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        let avec: &[f64; MR] = avec.try_into().expect("exact chunk");
        let bvec: &[f64; NR] = bvec.try_into().expect("exact chunk");
        for r in 0..MR {
            let ar = avec[r];
            for q in 0..NR {
                if FMA {
                    acc[r][q] = ar.mul_add(bvec[q], acc[r][q]);
                } else {
                    acc[r][q] += ar * bvec[q];
                }
            }
        }
    }
    // Edge masking happens here, not in the hot loop: the panels are
    // zero-padded to full MR × NR, so only the write-back needs `mr`/`nr`.
    for (r, accr) in acc.iter().enumerate().take(mr) {
        let crow = &mut cv[c0 + r * ldc..][..nr];
        for (cq, &v) in crow.iter_mut().zip(accr.iter()) {
            if FMA {
                *cq = alpha.mul_add(v, *cq);
            } else {
                *cq += alpha * v;
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn micro_kernel_portable(
    alpha: f64,
    ap: &[f64],
    bp: &[f64],
    cv: &mut [f64],
    c0: usize,
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    micro_kernel_body::<false>(alpha, ap, bp, cv, c0, ldc, mr, nr);
}

/// AVX2+FMA instantiation of the same body: with the features enabled the
/// compiler vectorizes the NR-wide accumulator rows into `vfmadd231pd`.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2,fma")]
fn micro_kernel_avx2(
    alpha: f64,
    ap: &[f64],
    bp: &[f64],
    cv: &mut [f64],
    c0: usize,
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    micro_kernel_body::<true>(alpha, ap, bp, cv, c0, ldc, mr, nr);
}

#[cfg(not(target_arch = "x86_64"))]
#[allow(clippy::too_many_arguments)]
unsafe fn micro_kernel_avx2(
    _alpha: f64,
    _ap: &[f64],
    _bp: &[f64],
    _cv: &mut [f64],
    _c0: usize,
    _ldc: usize,
    _mr: usize,
    _nr: usize,
) {
    unreachable!("fma_available() is false off x86-64");
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn pseudo_random(rows: usize, cols: usize, seed: u64) -> DenseBlock {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        DenseBlock::from_fn(rows, cols, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 500.0 - 1.0
        })
    }

    #[test]
    fn identity_is_neutral() {
        let a = pseudo_random(17, 17, 3);
        let id = DenseBlock::identity(17);
        let mut c = DenseBlock::zeros(17, 17);
        gemm(1.0, &a, &id, 0.0, &mut c).unwrap();
        assert!(c.max_abs_diff(&a).unwrap() < 1e-12);
    }

    #[test]
    fn matches_naive_on_awkward_shapes() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 4, 4),
            (5, 3, 9),
            (8, 4, 8),
            (64, 64, 64),
            (65, 63, 67),
            (130, 70, 10),
            (10, 300, 6),
            (1, 300, 1),
            (129, 257, 5),
        ] {
            let a = pseudo_random(m, k, (m * 31 + k) as u64);
            let b = pseudo_random(k, n, (k * 17 + n) as u64);
            let expect = naive(&a, &b);
            let mut c = DenseBlock::zeros(m, n);
            gemm(1.0, &a, &b, 0.0, &mut c).unwrap();
            assert!(
                c.max_abs_diff(&expect).unwrap() < 1e-9,
                "mismatch at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn blocking_boundaries_are_exact() {
        // Shapes that straddle every tile edge: MR/NR, MC/KC, and the
        // panel-internal padding rows/cols.
        for &(m, k, n) in &[
            (1, 1, 1),
            (7, 5, 3),
            (MR, KC, NR),
            (MR - 1, KC + 1, NR + 1),
            (MR + 1, 3, NR - 1),
            (MC, KC, NR * 3),
            (MC + 1, KC - 1, NR * 3 + 2),
            (MC + 1, KC + 1, NR + 1),
            (3, 2, NC + 1),
            (MR * 2 + 3, 2 * KC + 5, NR + 3),
        ] {
            let a = pseudo_random(m, k, 7);
            let b = pseudo_random(k, n, 8);
            let expect = naive(&a, &b);
            let mut c = DenseBlock::zeros(m, n);
            gemm(1.0, &a, &b, 0.0, &mut c).unwrap();
            assert!(
                c.max_abs_diff(&expect).unwrap() < 1e-8,
                "gemm mismatch at {m}x{k}x{n}"
            );
            let mut c = DenseBlock::zeros(m, n);
            gemm_tn(1.0, &a.transpose(), &b, 0.0, &mut c).unwrap();
            assert!(
                c.max_abs_diff(&expect).unwrap() < 1e-8,
                "gemm_tn mismatch at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn alpha_beta_semantics() {
        let a = pseudo_random(6, 6, 1);
        let b = pseudo_random(6, 6, 2);
        let mut c = pseudo_random(6, 6, 3);
        let c0 = c.clone();
        let ab = naive(&a, &b);
        gemm(2.0, &a, &b, 0.5, &mut c).unwrap();
        for i in 0..6 {
            for j in 0..6 {
                let expect = 2.0 * ab.get(i, j) + 0.5 * c0.get(i, j);
                assert!((c.get(i, j) - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn alpha_zero_only_scales_c() {
        let a = pseudo_random(4, 4, 9);
        let b = pseudo_random(4, 4, 10);
        let mut c = pseudo_random(4, 4, 11);
        let mut expect = c.clone();
        expect.scale(3.0);
        gemm(0.0, &a, &b, 3.0, &mut c).unwrap();
        assert!(c.max_abs_diff(&expect).unwrap() < 1e-12);
    }

    #[test]
    fn dim_mismatch_rejected() {
        let a = DenseBlock::zeros(2, 3);
        let b = DenseBlock::zeros(2, 3);
        let mut c = DenseBlock::zeros(2, 3);
        assert!(gemm(1.0, &a, &b, 0.0, &mut c).is_err());
        let b2 = DenseBlock::zeros(3, 3);
        let mut c_bad = DenseBlock::zeros(3, 3);
        assert!(gemm(1.0, &a, &b2, 0.0, &mut c_bad).is_err());
    }

    #[test]
    fn gemm_tn_matches_explicit_transpose() {
        for &(k, m, n) in &[
            (5usize, 3usize, 7usize),
            (64, 32, 16),
            (33, 65, 9),
            (KC + 3, MC + 2, NR * 2 + 1),
        ] {
            let a = pseudo_random(k, m, 71);
            let b = pseudo_random(k, n, 72);
            let mut expect = DenseBlock::zeros(m, n);
            gemm(1.0, &a.transpose(), &b, 0.0, &mut expect).unwrap();
            let mut got = DenseBlock::zeros(m, n);
            gemm_tn(1.0, &a, &b, 0.0, &mut got).unwrap();
            assert!(got.max_abs_diff(&expect).unwrap() < 1e-8, "{k}x{m}x{n}");
        }
    }

    #[test]
    fn gemm_tn_alpha_beta_and_dims() {
        let a = pseudo_random(4, 3, 1);
        let b = pseudo_random(4, 2, 2);
        let mut c = pseudo_random(3, 2, 3);
        let c0 = c.clone();
        let mut ab = DenseBlock::zeros(3, 2);
        gemm(1.0, &a.transpose(), &b, 0.0, &mut ab).unwrap();
        gemm_tn(3.0, &a, &b, 0.5, &mut c).unwrap();
        for i in 0..3 {
            for j in 0..2 {
                let expect = 3.0 * ab.get(i, j) + 0.5 * c0.get(i, j);
                assert!((c.get(i, j) - expect).abs() < 1e-9);
            }
        }
        // Shape checks.
        let mut bad = DenseBlock::zeros(2, 2);
        assert!(gemm_tn(1.0, &a, &b, 0.0, &mut bad).is_err());
    }

    #[test]
    fn empty_dims_are_noops() {
        let a = DenseBlock::zeros(0, 4);
        let b = DenseBlock::zeros(4, 3);
        let mut c = DenseBlock::zeros(0, 3);
        gemm(1.0, &a, &b, 0.0, &mut c).unwrap();
    }
}

//! Dense general matrix multiply: `C = alpha * A * B + beta * C`.
//!
//! A packed, cache-blocked implementation in the BLIS/GotoBLAS mold,
//! standing in for MKL `dgemm` / `cublasDgemm`:
//!
//! * the operands are repacked into contiguous panels — A into `MR`-strided
//!   row panels, B into `NR`-strided column panels — so the micro-kernel
//!   streams both with unit stride and no edge branches;
//! * the loop nest blocks by `NC` (B columns, L3), `KC` (panel depth, L1/L2)
//!   and `MC` (A rows, L2), with an `MR × NR` register-tiled micro-kernel at
//!   the bottom;
//! * the register tile is chosen per ISA, once per process, by runtime
//!   detection (`Tile`): **8 × 24** on `avx512f` (24 `zmm` accumulators),
//!   **6 × 8** on `avx2+fma` (12 `ymm` accumulators), and a portable
//!   **8 × 4** mul+add body everywhere else. The driver, the packing
//!   routines and the macro-kernel are one generic body over `<MR, NR>`;
//!   only the micro-kernels are written per ISA, in `std::arch` intrinsics.
//!   The SIMD micro-kernels prefetch their `C` tile before the depth loop,
//!   so its one read at write-back does not wait on memory;
//! * the driver multiplies a column of A blocks by a row of B blocks — one
//!   k step of a cuboid, [`gemm_step`] — from shared panels: per `KC` slab
//!   every B block of the row is packed once, then each A block is packed
//!   once, `MC` rows at a time, and multiplied against all of them. That is
//!   `I + J` packs where `I · J` one-pair calls make `2 · I · J`. [`gemm`]
//!   and [`gemm_tn`] are its one-pair case;
//! * the packing buffers live per thread: they only grow, are reused by
//!   every later call on that thread (a stage worker's whole run of block
//!   products), and are capped at one full `MC×KC` + `NC×KC` blocking,
//!   ~4.3 MB. The thread keeps the panels of one B chunk (at most `NC`
//!   columns of one block); a group of several chunks is packed into
//!   panels of its own, freed when the call returns. A B row whose panels
//!   need more than `NC` columns is walked in groups that fit, each A
//!   block packed once per group.
//!
//! **The summation order is the contract, not the tile.** Every element of
//! `C` is computed as: for each `KC`-deep slab of the inner dimension, one
//! sequential fused-multiply-add chain `acc = fma(a[i,p], b[p,j], acc)`
//! from `acc = 0`, then `c = fma(alpha, acc, c)`. No tile shape, `MC`, `NC`
//! or packing schedule enters that expression, so both FMA tiles produce
//! the same bits, and a k step's products are bit-equal to one call per
//! block pair; the engine's bit-identity suites rest on it. `KC` does enter
//! it and must not change. The portable tile rounds twice per step (mul,
//! then add) and agrees only to rounding error.
//!
//! [`gemm_tn`] (`C = alpha * aᵀ * b + beta * C`) shares the same driver:
//! packing A reads it column-wise, so the transpose costs nothing extra and
//! the micro-kernel is identical.

use std::cell::RefCell;
use std::sync::OnceLock;

use crate::dense::DenseBlock;
use crate::error::{MatrixError, Result};

/// Tile size along the k dimension (panel depth; A and B panels of this
/// depth stay L1/L2-resident under the micro-kernel). Each `KC` slab is one
/// rounding chain, so this value is part of every result's bits.
const KC: usize = 256;
/// Tile size along the m dimension (rows of A packed per panel).
const MC: usize = 128;
/// Tile size along the n dimension: the B columns packed at once, one
/// block's or a group of blocks'.
const NC: usize = 2048;

/// A register tile: the `MR × NR` block of `C` one micro-kernel call
/// computes, and the instruction set its accumulators live in. The sparse
/// kernels ([`super::spmm`]) pick their axpy body by the same value, so the
/// process detects its instruction set once.
///
/// Invariant the `unsafe` dispatch in [`gemm_on`] and `spmm::axpy_of`
/// relies on: a SIMD variant is only ever taken out of [`Tile::supported`],
/// i.e. after `is_x86_feature_detected!` confirmed its ISA on this CPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Tile {
    /// 8 × 24 in 24 `zmm` accumulators (`avx512f`).
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// 6 × 8 in 12 `ymm` accumulators (`avx2` + `fma`).
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// 8 × 4 scalar mul+add, left to the auto-vectorizer.
    Portable,
}

impl Tile {
    /// Every tile compiled into this build, widest first.
    const ALL: &'static [Tile] = &[
        #[cfg(target_arch = "x86_64")]
        Tile::Avx512,
        #[cfg(target_arch = "x86_64")]
        Tile::Avx2,
        Tile::Portable,
    ];

    fn is_supported(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Tile::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "x86_64")]
            Tile::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            Tile::Portable => true,
        }
    }

    /// The tiles this CPU can run, widest first.
    pub(super) fn supported() -> impl Iterator<Item = Tile> {
        Tile::ALL.iter().copied().filter(|t| t.is_supported())
    }

    /// The widest supported tile, detected once per process: the only
    /// dispatch point of [`gemm`], [`gemm_tn`] and the sparse kernels.
    pub(super) fn best() -> Tile {
        static BEST: OnceLock<Tile> = OnceLock::new();
        *BEST.get_or_init(|| {
            Tile::supported()
                .next()
                .expect("the portable tile is always supported")
        })
    }
}

/// `c = alpha * a * b + beta * c`: the one-pair case of [`gemm_step`].
///
/// `beta == 0.0` overwrites: `c`'s prior contents are not read, so a reused
/// accumulator holding `NaN` or `∞` is safe to pass (the BLAS convention).
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
    gemm_on::<false>(Tile::best(), alpha, &[a], &[b], beta, &mut [c])
}

/// `c[i·J + j] = alpha * a[i] * b[j] + beta * c[i·J + j]` for every block
/// `a[i]` of an A column and `b[j]` of a B row (`J = b.len()`): one k step
/// of a cuboid, run from shared packed panels (see the module docs). Each
/// `c[i·J + j]` gets exactly the bits a [`gemm`] call on that pair gives it.
///
/// # Errors
/// Returns [`MatrixError::InvalidParameter`] unless `c` holds `I · J`
/// blocks, and [`MatrixError::DimensionMismatch`] when a pair's shapes are
/// incompatible.
pub fn gemm_step(
    alpha: f64,
    a: &[&DenseBlock],
    b: &[&DenseBlock],
    beta: f64,
    c: &mut [&mut DenseBlock],
) -> Result<()> {
    gemm_on::<false>(Tile::best(), alpha, a, b, beta, c)
}

/// `c = alpha * aᵀ * b + beta * c` without materializing `aᵀ`.
///
/// The `WᵀV` / `WᵀW` pattern of GNMF and the Gram-matrix pattern of least
/// squares both left-multiply by a transpose; packing `A` column-wise here
/// absorbs the transpose into the packing pass, so the blocked kernel runs
/// at the same rate as [`gemm`]. `beta == 0.0` overwrites, as in [`gemm`].
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
    gemm_on::<true>(Tile::best(), alpha, &[a], &[b], beta, &mut [c])
}

/// [`gemm_step`] (`TN = false`, A blocks `m × k`) or its transposed form
/// (`TN = true`, A blocks stored `k × m`) on one register tile. The public
/// entry points pass [`Tile::best`]; the tests walk [`Tile::supported`] so
/// every compiled-in body runs on every host that can run it.
fn gemm_on<const TN: bool>(
    tile: Tile,
    alpha: f64,
    a: &[&DenseBlock],
    b: &[&DenseBlock],
    beta: f64,
    c: &mut [&mut DenseBlock],
) -> Result<()> {
    if c.len() != a.len() * b.len() {
        return Err(MatrixError::InvalidParameter(format!(
            "{} C blocks for {} A blocks by {} B blocks",
            c.len(),
            a.len(),
            b.len()
        )));
    }
    let dims = |a: &DenseBlock| {
        if TN {
            (a.cols(), a.rows())
        } else {
            (a.rows(), a.cols())
        }
    };
    for (i, ai) in a.iter().enumerate() {
        let (m, k) = dims(ai);
        for (bj, cij) in b.iter().zip(&c[i * b.len()..]) {
            if k != bj.rows() || cij.rows() != m || cij.cols() != bj.cols() {
                return Err(MatrixError::DimensionMismatch {
                    op: if TN { "gemm_tn" } else { "gemm" },
                    lhs: (ai.rows() as u64, ai.cols() as u64),
                    rhs: (bj.rows() as u64, bj.cols() as u64),
                });
            }
        }
    }
    for cij in c.iter_mut() {
        scale_c(beta, cij);
    }
    let k = b.first().map_or(0, |b| b.rows());
    if alpha == 0.0 || c.is_empty() || k == 0 {
        return Ok(());
    }
    match tile {
        #[cfg(target_arch = "x86_64")]
        Tile::Avx512 => {
            // SAFETY: `Tile::Avx512` comes out of `Tile::supported` only
            // after `is_x86_feature_detected!("avx512f")` (see `Tile`).
            let kernel = |alpha, ap: &[f64], bp: &[f64], cv: &mut [f64], c0, ldc, mr, nr| unsafe {
                micro_kernel_avx512(alpha, ap, bp, cv, c0, ldc, mr, nr)
            };
            blocked_driver::<8, 24, TN>(kernel, alpha, a, b, c, k)
        }
        #[cfg(target_arch = "x86_64")]
        Tile::Avx2 => {
            // SAFETY: `Tile::Avx2` comes out of `Tile::supported` only after
            // `is_x86_feature_detected!` saw both "avx2" and "fma".
            let kernel = |alpha, ap: &[f64], bp: &[f64], cv: &mut [f64], c0, ldc, mr, nr| unsafe {
                micro_kernel_avx2(alpha, ap, bp, cv, c0, ldc, mr, nr)
            };
            blocked_driver::<6, 8, TN>(kernel, alpha, a, b, c, k)
        }
        Tile::Portable => blocked_driver::<8, 4, TN>(micro_kernel_portable, alpha, a, b, c, k),
    }
    Ok(())
}

/// `c = beta * c`, with the two BLAS special cases: `beta == 1` leaves `c`
/// alone and `beta == 0` overwrites it (`0 * NaN` would keep the `NaN`).
fn scale_c(beta: f64, c: &mut DenseBlock) {
    if beta == 0.0 {
        c.data_mut().fill(0.0);
    } else if beta != 1.0 {
        for v in c.data_mut() {
            *v *= beta;
        }
    }
}

/// The blocked driver over an `MR × NR` register tile, whose micro-kernel
/// is `kernel`, for every pair of `a`'s blocks and `b`'s, all `k` deep.
/// `TN` selects how A is read during packing: `false` — each A block is
/// `m × k` row-major; `true` — it is `k × m` row-major and the packed
/// panels hold its transpose.
///
/// The B row is cut into column chunks of at most `NC`, one block's each,
/// and consecutive chunks are grouped while their padded panels fit in
/// `NC` (rounded up to `NR`) columns. Per group and `KC` slab, every chunk
/// of the group is packed side by side; then each A block is packed `MC`
/// rows at a time and its panel runs against every chunk. Each element of
/// `C` still takes its slabs in depth order, one chain per slab.
fn blocked_driver<const MR: usize, const NR: usize, const TN: bool>(
    kernel: impl Fn(f64, &[f64], &[f64], &mut [f64], usize, usize, usize, usize),
    alpha: f64,
    a: &[&DenseBlock],
    b: &[&DenseBlock],
    c: &mut [&mut DenseBlock],
    k: usize,
) {
    // Panel buffers are rounded up to full MR/NR tiles and zero-padded, so
    // the micro-kernel never branches on edges; the write-back masks them.
    // They are this thread's `PACK`, so they may hold an earlier call's
    // values: the packing routines overwrite every padding lane, and the
    // micro-kernel reads only the `kc·MR` / `kc·NR` they just wrote.
    let m_max = a.iter().map(|a| if TN { a.cols() } else { a.rows() }).max();
    let a_len = m_max.unwrap_or(0).min(MC).div_ceil(MR) * MR * k.min(KC);
    PACK.with_borrow_mut(|(apack, bpack, chunks)| {
        if apack.len() < a_len {
            apack.resize(a_len, 0.0);
        }
        chunks.clear();
        for (j, bj) in b.iter().enumerate() {
            let n = bj.cols();
            chunks.extend((0..n).step_by(NC).map(|jc| (j, jc, NC.min(n - jc))));
        }
        let mut rest = &chunks[..];
        while !rest.is_empty() {
            let (mut len, mut group_width) = (0, 0);
            while len < rest.len() && group_width + padded::<NR>(rest[len].2) <= padded::<NR>(NC) {
                group_width += padded::<NR>(rest[len].2);
                len += 1;
            }
            let (group, tail) = rest.split_at(len);
            rest = tail;
            let b_len = group_width * k.min(KC);
            // The thread keeps one chunk's panels, what a one-pair call
            // needs; a group of several packs into panels of its own, freed
            // on return, so what a thread holds between calls does not grow
            // with the width of a step.
            if let [_] = group {
                if bpack.len() < b_len {
                    bpack.resize(b_len, 0.0);
                }
                run_group::<MR, NR, TN>(&kernel, alpha, a, b, c, k, group, apack, bpack);
            } else {
                let panels = &mut vec![0.0; b_len];
                run_group::<MR, NR, TN>(&kernel, alpha, a, b, c, k, group, apack, panels);
            }
        }
    });
}

/// `n` rounded up to whole `NR`-wide panels.
fn padded<const NR: usize>(n: usize) -> usize {
    n.div_ceil(NR) * NR
}

/// One group of B chunks against every A block: per `KC` slab, the group's chunks are packed side by side into
/// `bpack`, then each A block is packed `MC` rows at a time into `apack`
/// and run against every chunk.
#[allow(clippy::too_many_arguments)]
fn run_group<const MR: usize, const NR: usize, const TN: bool>(
    kernel: &impl Fn(f64, &[f64], &[f64], &mut [f64], usize, usize, usize, usize),
    alpha: f64,
    a: &[&DenseBlock],
    b: &[&DenseBlock],
    c: &mut [&mut DenseBlock],
    k: usize,
    group: &[Chunk],
    apack: &mut [f64],
    bpack: &mut [f64],
) {
    for pc in (0..k).step_by(KC) {
        let kc = KC.min(k - pc);
        let mut off = 0;
        for &(j, jc, nc) in group {
            let len = padded::<NR>(nc) * kc;
            pack_b::<NR>(
                &mut bpack[off..off + len],
                b[j].data(),
                b[j].cols(),
                pc,
                jc,
                kc,
                nc,
            );
            off += len;
        }
        for (i, ai) in a.iter().enumerate() {
            let m = if TN { ai.cols() } else { ai.rows() };
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                if TN {
                    // A stored `k × m` holds a panel row's MR values side by
                    // side, exactly as B holds NR of them.
                    pack_b::<MR>(apack, ai.data(), m, pc, ic, kc, mc);
                } else {
                    pack_a::<MR>(apack, ai.data(), k, pc, ic, kc, mc);
                }
                let mut off = 0;
                for &(j, jc, nc) in group {
                    let len = padded::<NR>(nc) * kc;
                    let cij = &mut *c[i * b.len() + j];
                    let ldc = cij.cols();
                    let (bp, cv) = (&bpack[off..off + len], cij.data_mut());
                    macro_kernel::<MR, NR>(kernel, alpha, apack, bp, cv, ic, jc, mc, nc, kc, ldc);
                    off += len;
                }
            }
        }
    }
}

/// A column chunk of a B row: `(block, first column, width)`.
type Chunk = (usize, usize, usize);

thread_local! {
    /// This thread's `(apack, bpack, chunks)`: the A panel, the B panels of
    /// a one-chunk group, and the B row's chunks, sized as the module docs
    /// say.
    static PACK: RefCell<(Vec<f64>, Vec<f64>, Vec<Chunk>)> =
        const { RefCell::new((Vec::new(), Vec::new(), Vec::new())) };
}

/// Packs `A[ic..ic+mc, pc..pc+kc]` (row-major, leading dimension `lda`)
/// into MR-strided panels: panel `ir` holds, for each depth `p`, the MR
/// consecutive values `A[ic+ir.., pc+p]`. Rows past `mc` pad with zero.
/// Each source row is read once, left to right; the strided side of the
/// transpose is the write, into a panel that stays cache-resident.
fn pack_a<const MR: usize>(
    apack: &mut [f64],
    av: &[f64],
    lda: usize,
    pc: usize,
    ic: usize,
    kc: usize,
    mc: usize,
) {
    for (panel, ir) in apack.chunks_exact_mut(kc * MR).zip((0..mc).step_by(MR)) {
        let rows = MR.min(mc - ir);
        for r in 0..rows {
            let arow = &av[(ic + ir + r) * lda + pc..][..kc];
            for (p, &v) in arow.iter().enumerate() {
                panel[p * MR + r] = v;
            }
        }
        for r in rows..MR {
            for p in 0..kc {
                panel[p * MR + r] = 0.0;
            }
        }
    }
}

/// Packs `B[pc..pc+kc, jc..jc+nc]` (row-major, leading dimension `ldb`)
/// into NR-strided panels: panel `jr` holds, for each depth `p`, the NR
/// consecutive values `B[pc+p, jc+jr..]`. Columns past `nc` pad with zero.
fn pack_b<const NR: usize>(
    bpack: &mut [f64],
    bv: &[f64],
    ldb: usize,
    pc: usize,
    jc: usize,
    kc: usize,
    nc: usize,
) {
    for (panel, jr) in bpack.chunks_exact_mut(kc * NR).zip((0..nc).step_by(NR)) {
        let cols = NR.min(nc - jr);
        for (p, dst) in panel.chunks_exact_mut(NR).enumerate() {
            let brow = (pc + p) * ldb + jc + jr;
            dst[..cols].copy_from_slice(&bv[brow..brow + cols]);
            dst[cols..].fill(0.0);
        }
    }
}

/// Walks the packed panels, invoking the micro-kernel per `MR × NR` tile.
#[allow(clippy::too_many_arguments)]
fn macro_kernel<const MR: usize, const NR: usize>(
    kernel: &impl Fn(f64, &[f64], &[f64], &mut [f64], usize, usize, usize, usize),
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
) {
    for (bp, jr) in bpack.chunks_exact(kc * NR).zip((0..nc).step_by(NR)) {
        let nr = NR.min(nc - jr);
        for (ap, ir) in apack.chunks_exact(kc * MR).zip((0..mc).step_by(MR)) {
            let mr = MR.min(mc - ir);
            let c0 = (ic + ir) * ldc + jc + jr;
            kernel(alpha, ap, bp, cv, c0, ldc, mr, nr);
        }
    }
}

/// The portable register tile, 8 × 4: 32 scalar accumulators, fully
/// unrolled across the tile, one multiply and one add per element per depth
/// step (two roundings — no `mul_add`, which without the `fma` target
/// feature would fall to the libm soft-fma path).
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
    const MR: usize = 8;
    const NR: usize = 4;
    let mut acc = [[0.0f64; NR]; MR];
    for (avec, bvec) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        let avec: &[f64; MR] = avec.try_into().expect("exact chunk");
        let bvec: &[f64; NR] = bvec.try_into().expect("exact chunk");
        for r in 0..MR {
            for q in 0..NR {
                acc[r][q] += avec[r] * bvec[q];
            }
        }
    }
    // Edge masking happens here, not in the hot loop: the panels are
    // zero-padded to full MR × NR, so only the write-back needs `mr`/`nr`.
    for (r, accr) in acc.iter().enumerate().take(mr) {
        let crow = &mut cv[c0 + r * ldc..][..nr];
        for (cq, &v) in crow.iter_mut().zip(accr) {
            *cq += alpha * v;
        }
    }
}

/// Asks for the `mr × nr` tile of `C` at `c0` ahead of a micro-kernel's
/// depth loop, which reads it once, at write-back, `kc` steps later: one
/// prefetch per cache line each row touches (a row of up to 24 `f64`s
/// that need not be line-aligned spans at most four).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn prefetch_c(cv: &[f64], c0: usize, ldc: usize, mr: usize, nr: usize) {
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    for r in 0..mr {
        let row = &cv[c0 + r * ldc..][..nr];
        for q in (0..nr).step_by(8).chain([nr - 1]) {
            // SAFETY: `row[q]` is in bounds, and a prefetch only hints the
            // cache: it reads nothing and cannot fault.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(row[q..].as_ptr().cast()) };
        }
    }
}

/// The `avx512f` register tile, 8 × 24: each of the 8 rows keeps three
/// `zmm` accumulators (24 of the 32 registers), and a depth step is 3 loads
/// of B and, per row, one broadcast of A feeding 3 FMAs — 24 FMAs on 11
/// loads, so the FMA ports, not the load ports, set the pace.
///
/// Per element this is the chain the module docs fix: `acc = fma(a, b,
/// acc)` down the panel, then `c = fma(alpha, acc, c)`.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx512f")]
fn micro_kernel_avx512(
    alpha: f64,
    ap: &[f64],
    bp: &[f64],
    cv: &mut [f64],
    c0: usize,
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    use std::arch::x86_64::*;
    const MR: usize = 8;
    const NR: usize = 24;
    prefetch_c(cv, c0, ldc, mr, nr);
    let mut acc = [[_mm512_setzero_pd(); NR / 8]; MR];
    for (avec, bvec) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        let avec: &[f64; MR] = avec.try_into().expect("exact chunk");
        let bvec: &[f64; NR] = bvec.try_into().expect("exact chunk");
        // SAFETY: `bvec` is 24 elements; the three 8-lane loads cover
        // elements 0..8, 8..16 and 16..24 of it.
        let b = unsafe {
            [
                _mm512_loadu_pd(bvec.as_ptr()),
                _mm512_loadu_pd(bvec.as_ptr().add(8)),
                _mm512_loadu_pd(bvec.as_ptr().add(16)),
            ]
        };
        for r in 0..MR {
            let a = _mm512_set1_pd(avec[r]);
            for j in 0..NR / 8 {
                acc[r][j] = _mm512_fmadd_pd(a, b[j], acc[r][j]);
            }
        }
    }
    // The panels are zero-padded to the full tile, so only this write-back
    // sees `mr`/`nr`: rows past `mr` are skipped, columns past `nr` are
    // masked out of both the load and the store.
    let alpha = _mm512_set1_pd(alpha);
    for (r, accr) in acc.iter().enumerate().take(mr) {
        let crow = &mut cv[c0 + r * ldc..][..nr];
        for (cvec, &v) in crow.chunks_mut(8).zip(accr) {
            let mask: __mmask8 = 0xFF >> (8 - cvec.len());
            // SAFETY: `mask` enables exactly the first `cvec.len()` (1..=8)
            // lanes, so the masked load and store touch only `cvec`.
            unsafe {
                let c = _mm512_maskz_loadu_pd(mask, cvec.as_ptr());
                _mm512_mask_storeu_pd(cvec.as_mut_ptr(), mask, _mm512_fmadd_pd(alpha, v, c));
            }
        }
    }
}

/// The `avx2+fma` register tile, 6 × 8: each of the 6 rows keeps two `ymm`
/// accumulators (12 of the 16 registers, leaving two for the B loads and
/// one for the A broadcast), and a depth step is 2 loads of B and, per row,
/// one broadcast of A feeding 2 FMAs. Same per-element chain as
/// [`micro_kernel_avx512`], hence the same bits.
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
    use std::arch::x86_64::*;
    const MR: usize = 6;
    const NR: usize = 8;
    prefetch_c(cv, c0, ldc, mr, nr);
    let mut acc = [[_mm256_setzero_pd(); NR / 4]; MR];
    for (avec, bvec) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        let avec: &[f64; MR] = avec.try_into().expect("exact chunk");
        let bvec: &[f64; NR] = bvec.try_into().expect("exact chunk");
        // SAFETY: `bvec` is 8 elements; the two 4-lane loads cover elements
        // 0..4 and 4..8 of it.
        let b = unsafe {
            [
                _mm256_loadu_pd(bvec.as_ptr()),
                _mm256_loadu_pd(bvec.as_ptr().add(4)),
            ]
        };
        for r in 0..MR {
            let a = _mm256_set1_pd(avec[r]);
            for j in 0..NR / 4 {
                acc[r][j] = _mm256_fmadd_pd(a, b[j], acc[r][j]);
            }
        }
    }
    // AVX2 has no cheap masked store, so a full 4-lane group of the row goes
    // through vector load/FMA/store and a ragged one is spilled and finished
    // in scalar `mul_add` (one `vfmadd` each under this function's `fma`).
    let valpha = _mm256_set1_pd(alpha);
    for (r, accr) in acc.iter().enumerate().take(mr) {
        let crow = &mut cv[c0 + r * ldc..][..nr];
        for (cvec, &v) in crow.chunks_mut(4).zip(accr) {
            if cvec.len() == 4 {
                // SAFETY: `cvec` is 4 elements, the width of one `ymm`.
                unsafe {
                    let c = _mm256_loadu_pd(cvec.as_ptr());
                    _mm256_storeu_pd(cvec.as_mut_ptr(), _mm256_fmadd_pd(valpha, v, c));
                }
            } else {
                let mut lanes = [0.0f64; 4];
                // SAFETY: `lanes` is 4 elements, the width of one `ymm`.
                unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), v) };
                for (cq, &x) in cvec.iter_mut().zip(&lanes) {
                    *cq = alpha.mul_add(x, *cq);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One pair through [`gemm_on`] on `tile`: `gemm` (`TN = false`) or
    /// `gemm_tn` (`TN = true`) without the dispatch.
    fn pair<const TN: bool>(
        tile: Tile,
        alpha: f64,
        a: &DenseBlock,
        b: &DenseBlock,
        beta: f64,
        c: &mut DenseBlock,
    ) -> Result<()> {
        gemm_on::<TN>(tile, alpha, &[a], &[b], beta, &mut [c])
    }

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

    /// `(MR, NR)` of every register tile, whichever of them this host runs.
    const TILE_DIMS: [(usize, usize); 3] = [(8, 24), (6, 8), (8, 4)];

    /// Shapes that straddle every tile edge: each tile's MR/NR and their
    /// neighbours, MC/KC/NC and theirs, and the panel-internal padding
    /// rows/cols.
    fn boundary_shapes() -> Vec<(usize, usize, usize)> {
        let mut shapes = vec![(1, 1, 1), (7, 5, 3), (3, 2, NC + 1)];
        for (mr, nr) in TILE_DIMS {
            shapes.extend([
                (mr, KC, nr),
                (mr - 1, KC + 1, nr + 1),
                (mr + 1, 3, nr - 1),
                (MC, KC, nr * 3),
                (MC + 1, KC - 1, nr * 3 + 2),
                (MC + 1, KC + 1, nr + 1),
                (mr * 2 + 3, 2 * KC + 5, nr + 3),
            ]);
        }
        shapes
    }

    #[test]
    fn blocking_boundaries_are_exact() {
        for (m, k, n) in boundary_shapes() {
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

    /// The summation order, spelled out serially. First half: per `KC` slab
    /// of the inner dimension, each element's dot product as one `mul_add`
    /// chain from zero, in depth order.
    fn slab_sums(a: &DenseBlock, b: &DenseBlock) -> Vec<Vec<f64>> {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let (av, bv) = (a.data(), b.data());
        (0..k)
            .step_by(KC)
            .map(|pc| {
                let mut slab = vec![0.0f64; m * n];
                for i in 0..m {
                    for j in 0..n {
                        let mut acc = 0.0f64;
                        for p in pc..(pc + KC).min(k) {
                            acc = av[i * k + p].mul_add(bv[p * n + j], acc);
                        }
                        slab[i * n + j] = acc;
                    }
                }
                slab
            })
            .collect()
    }

    /// Second half: `c` is scaled by `beta` (overwritten when `beta == 0`),
    /// then takes each slab in depth order as `c = fma(alpha, acc, c)`.
    fn reference(alpha: f64, slabs: &[Vec<f64>], beta: f64, c0: &DenseBlock) -> DenseBlock {
        let mut c = c0.clone();
        for v in c.data_mut() {
            *v = if beta == 0.0 { 0.0 } else { *v * beta };
        }
        for slab in slabs {
            for (cq, &acc) in c.data_mut().iter_mut().zip(slab) {
                *cq = alpha.mul_add(acc, *cq);
            }
        }
        c
    }

    fn bits(block: &DenseBlock) -> Vec<u64> {
        block.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Every supported tile against [`reference`]: the FMA tiles bit for
    /// bit, the portable mul+add tile to rounding error.
    fn assert_summation_order(shapes: &[(usize, usize, usize)]) {
        for &(m, k, n) in shapes {
            let a = pseudo_random(m, k, 7);
            let at = a.transpose();
            let b = pseudo_random(k, n, 8);
            let c0 = pseudo_random(m, n, 9);
            let slabs = slab_sums(&a, &b);
            // 256³ crosses no edge the smaller shapes do not and would be two
            // thirds of the arithmetic here: it takes the engine's own
            // (1, 0) and one general pair instead of the whole grid.
            let grid: &[(f64, f64)] = if m * k * n < 256 * 256 * 256 {
                &[
                    (1.0, 0.0),
                    (1.0, 0.5),
                    (1.0, 1.0),
                    (1.5, 0.0),
                    (1.5, 0.5),
                    (1.5, 1.0),
                ]
            } else {
                &[(1.0, 0.0), (1.5, 0.5)]
            };
            for &(alpha, beta) in grid {
                let expect = reference(alpha, &slabs, beta, &c0);
                for tile in Tile::supported() {
                    let mut c = c0.clone();
                    pair::<false>(tile, alpha, &a, &b, beta, &mut c).unwrap();
                    let mut ct = c0.clone();
                    pair::<true>(tile, alpha, &at, &b, beta, &mut ct).unwrap();
                    let case = format!("{tile:?} {m}x{k}x{n} alpha={alpha} beta={beta}");
                    if tile == Tile::Portable {
                        // Two roundings per step: close, not equal.
                        assert!(c.max_abs_diff(&expect).unwrap() < 1e-9, "{case}");
                        assert!(ct.max_abs_diff(&expect).unwrap() < 1e-9, "{case}");
                    } else {
                        assert_eq!(bits(&c), bits(&expect), "gemm {case}");
                        assert_eq!(bits(&ct), bits(&expect), "gemm_tn {case}");
                    }
                }
            }
        }
    }

    #[test]
    fn every_tile_follows_the_summation_order_at_blocking_boundaries() {
        assert_summation_order(&boundary_shapes());
    }

    #[test]
    fn every_tile_follows_the_summation_order_on_workload_shapes() {
        // The block products the benchmark's workloads run: serve 32³,
        // GNMF's 128×64×128 and 64×128×64, dense 256³.
        assert_summation_order(&[(32, 32, 32), (128, 64, 128), (64, 128, 64), (256, 256, 256)]);
    }

    impl Tile {
        /// `(MR, NR)` of this tile.
        fn dims(self) -> (usize, usize) {
            match self {
                #[cfg(target_arch = "x86_64")]
                Tile::Avx512 => (8, 24),
                #[cfg(target_arch = "x86_64")]
                Tile::Avx2 => (6, 8),
                Tile::Portable => (8, 4),
            }
        }
    }

    /// This thread's packing buffers `(apack, bpack)`, as bits.
    fn packed_bits() -> (Vec<u64>, Vec<u64>) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        PACK.with_borrow(|(a, b, _)| (bits(a), bits(b)))
    }

    #[test]
    fn a_reused_packing_buffer_gives_the_bits_of_a_fresh_one() {
        // Dirty both buffers of this thread at full size.
        let (m, k, n) = (MC + 1, KC + 1, NC + 1);
        let (a, b) = (pseudo_random(m, k, 1), pseudo_random(k, n, 2));
        gemm(1.0, &a, &b, 0.0, &mut DenseBlock::zeros(m, n)).unwrap();
        let mut shapes = boundary_shapes();
        shapes.extend([(32, 32, 32), (128, 64, 128), (64, 128, 64), (256, 256, 256)]);
        shapes.sort_by_key(|&(m, k, n)| std::cmp::Reverse(m * k * n));
        let ascending: Vec<_> = shapes.iter().rev().copied().collect();
        // Descending, then ascending: each shape runs once as `gemm` and
        // once as `gemm_tn`, after larger and after smaller calls.
        for (i, (m, k, n)) in shapes.into_iter().chain(ascending).enumerate() {
            let (a, b, c0) = (
                pseudo_random(m, k, 7),
                pseudo_random(k, n, 8),
                pseudo_random(m, n, 9),
            );
            let at = a.transpose();
            let expect = reference(1.5, &slab_sums(&a, &b), 0.5, &c0);
            for tile in Tile::supported() {
                let run = || {
                    let mut c = c0.clone();
                    if i % 2 == 0 {
                        pair::<false>(tile, 1.5, &a, &b, 0.5, &mut c).unwrap();
                    } else {
                        pair::<true>(tile, 1.5, &at, &b, 0.5, &mut c).unwrap();
                    }
                    (c, packed_bits())
                };
                let (c, (apack, bpack)) = run();
                let (fresh, (fresh_a, fresh_b)) =
                    std::thread::scope(|s| s.spawn(run).join().unwrap());
                let case = format!("{tile:?} {m}x{k}x{n} tn={}", i % 2);
                assert_eq!(bits(&c), bits(&fresh), "result, {case}");
                // The padding lanes are masked at write-back, so only the
                // panels themselves show a lane the packing left stale.
                assert_eq!(apack[..fresh_a.len()], fresh_a, "A panels, {case}");
                assert_eq!(bpack[..fresh_b.len()], fresh_b, "B panels, {case}");
                if tile == Tile::Portable {
                    assert!(c.max_abs_diff(&expect).unwrap() < 1e-9, "{case}");
                } else {
                    assert_eq!(bits(&c), bits(&expect), "reference, {case}");
                }
            }
        }
    }

    /// A k step of 3 A × 4 B blocks, `k` deep, with ragged edges: A blocks
    /// of `m`, `⌈m / 3⌉` and 1 rows, B blocks of `n`, `n + 5`, 1 and
    /// `⌈n / 2⌉` columns. Runs it once through the shared
    /// panels of [`gemm_on`] and once as twelve one-pair calls, on `tile`,
    /// from the same `c0`; `TN` takes the A blocks stored transposed.
    fn step_and_pairs<const TN: bool>(
        tile: Tile,
        a: &[DenseBlock],
        b: &[DenseBlock],
        c0: &[DenseBlock],
    ) -> (Vec<DenseBlock>, Vec<DenseBlock>) {
        let mut pairs = c0.to_vec();
        for (i, ai) in a.iter().enumerate() {
            for (j, bj) in b.iter().enumerate() {
                pair::<TN>(tile, 1.5, ai, bj, 0.5, &mut pairs[i * b.len() + j]).unwrap();
            }
        }
        let mut step = c0.to_vec();
        let (a, b): (Vec<_>, Vec<_>) = (a.iter().collect(), b.iter().collect());
        let mut c: Vec<&mut DenseBlock> = step.iter_mut().collect();
        gemm_on::<TN>(tile, 1.5, &a, &b, 0.5, &mut c).unwrap();
        (step, pairs)
    }

    #[test]
    fn a_shared_panel_step_gives_every_pair_the_bits_of_its_own_call() {
        // Dirty this thread's buffers at full size; every later case then
        // runs over panels an earlier, differently shaped one left behind.
        let (m, k, n) = (MC + 1, KC + 1, NC + 1);
        gemm(
            1.0,
            &pseudo_random(m, k, 1),
            &pseudo_random(k, n, 2),
            0.0,
            &mut DenseBlock::zeros(m, n),
        )
        .unwrap();
        let mut shapes = boundary_shapes();
        // Deeper than two `KC` slabs; and a B row of ~`NC / 2`-wide blocks
        // whose panels overflow the `NC` cap, so every tile walks it in
        // groups (as does `NC + 1` above, one chunk at a time).
        shapes.extend([(20, 2 * KC + 3, 30), (9, KC + 7, NC / 2 + 1)]);
        let cap = TILE_DIMS
            .iter()
            .map(|&(_, nr)| NC.div_ceil(nr) * nr)
            .max()
            .unwrap()
            * KC;
        for (m, k, n) in shapes {
            let rows = [m, m.div_ceil(3), 1];
            let cols = [n, n + 5, 1, n.div_ceil(2)];
            let a: Vec<_> = (0..3)
                .map(|i| pseudo_random(rows[i], k, 10 + i as u64))
                .collect();
            let at: Vec<_> = a.iter().map(DenseBlock::transpose).collect();
            let b: Vec<_> = (0..4)
                .map(|j| pseudo_random(k, cols[j], 20 + j as u64))
                .collect();
            let c0: Vec<_> = (0..12)
                .map(|cell| pseudo_random(rows[cell / 4], cols[cell % 4], 30 + cell as u64))
                .collect();
            for tile in Tile::supported() {
                for (tn, (step, pairs)) in [
                    step_and_pairs::<false>(tile, &a, &b, &c0),
                    step_and_pairs::<true>(tile, &at, &b, &c0),
                ]
                .into_iter()
                .enumerate()
                {
                    for (cell, (s, p)) in step.iter().zip(&pairs).enumerate() {
                        let case = format!("{tile:?} {m}x{k}x{n} tn={tn} pair {cell}");
                        assert_eq!(bits(s), bits(p), "{case}");
                    }
                }
                assert!(packed_bits().1.len() <= cap, "B panels past the cap");
            }
        }
    }

    #[test]
    fn packing_buffers_are_sized_by_the_operands() {
        let tile = Tile::best();
        let (mr, nr) = tile.dims();
        let lens = move |(m, k, n): (usize, usize, usize)| {
            let (a, b) = (pseudo_random(m, k, 1), pseudo_random(k, n, 2));
            pair::<false>(tile, 1.0, &a, &b, 0.0, &mut DenseBlock::zeros(m, n)).unwrap();
            let (apack, bpack) = packed_bits();
            (apack.len(), bpack.len())
        };
        std::thread::spawn(move || {
            // A step of several B blocks packs them into panels of its own:
            // the thread keeps none of them.
            let (a, b) = (pseudo_random(32, 32, 1), pseudo_random(32, 32, 2));
            let mut c = [DenseBlock::zeros(32, 32), DenseBlock::zeros(32, 32)];
            let [c0, c1] = &mut c;
            gemm_on::<false>(tile, 1.0, &[&a], &[&b, &b], 0.0, &mut [c0, c1]).unwrap();
            assert!(
                packed_bits().1.is_empty(),
                "a multi-block step kept its B panels"
            );
            let (a, b) = lens((32, 32, 32));
            assert!(a + b <= (32usize.div_ceil(mr) * mr + 32usize.div_ceil(nr) * nr) * 32);
            // Past every blocking edge: as large as the buffers get.
            let (a, b) = lens((MC + 1, KC + 1, NC + 1));
            assert!(a <= MC.div_ceil(mr) * mr * KC, "apack {a}");
            assert!(b <= NC.div_ceil(nr) * nr * KC, "bpack {b}");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn every_compiled_tile_runs_and_dispatch_picks_the_widest() {
        let (m, k, n) = (129, 257, 70);
        let a = pseudo_random(m, k, 21);
        let b = pseudo_random(k, n, 22);
        let c0 = pseudo_random(m, n, 23);
        let mut dispatched = c0.clone();
        gemm(1.5, &a, &b, 0.5, &mut dispatched).unwrap();
        let mut widest = None;
        for &tile in Tile::ALL {
            if !tile.is_supported() {
                eprintln!("skipping {tile:?}: this CPU lacks its instruction set");
                continue;
            }
            let mut c = c0.clone();
            pair::<false>(tile, 1.5, &a, &b, 0.5, &mut c).unwrap();
            assert!(
                c.max_abs_diff(&dispatched).unwrap() < 1e-9,
                "{tile:?} disagrees with the dispatching gemm"
            );
            widest.get_or_insert(c);
        }
        let widest = widest.expect("the portable tile always runs");
        assert_eq!(bits(&dispatched), bits(&widest));
    }

    #[test]
    fn beta_zero_ignores_prior_contents() {
        let a = pseudo_random(9, 5, 1);
        let b = pseudo_random(5, 26, 2);
        let mut expect = DenseBlock::zeros(9, 26);
        gemm(1.0, &a, &b, 0.0, &mut expect).unwrap();
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut c = DenseBlock::from_fn(9, 26, |_, _| poison);
            gemm(1.0, &a, &b, 0.0, &mut c).unwrap();
            assert_eq!(bits(&c), bits(&expect), "gemm over {poison}");
            let mut c = DenseBlock::from_fn(9, 26, |_, _| poison);
            gemm_tn(1.0, &a.transpose(), &b, 0.0, &mut c).unwrap();
            assert_eq!(bits(&c), bits(&expect), "gemm_tn over {poison}");
            // alpha == 0 returns before the kernel: still an overwrite.
            let mut c = DenseBlock::from_fn(9, 26, |_, _| poison);
            gemm(0.0, &a, &b, 0.0, &mut c).unwrap();
            assert!(c.data().iter().all(|&v| v == 0.0), "alpha = beta = 0");
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
    fn a_step_needs_one_accumulator_per_pair() {
        let (a, b) = (DenseBlock::zeros(2, 3), DenseBlock::zeros(3, 2));
        let mut c = DenseBlock::zeros(2, 2);
        let err = gemm_step(1.0, &[&a, &a], &[&b], 0.0, &mut [&mut c]).unwrap_err();
        assert!(matches!(err, MatrixError::InvalidParameter(_)), "{err}");
        let mut wide = DenseBlock::zeros(2, 3);
        let err = gemm_step(1.0, &[&a], &[&b], 0.0, &mut [&mut wide]).unwrap_err();
        assert!(
            matches!(err, MatrixError::DimensionMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn gemm_tn_matches_explicit_transpose() {
        for &(k, m, n) in &[
            (5usize, 3usize, 7usize),
            (64, 32, 16),
            (33, 65, 9),
            (KC + 3, MC + 2, 24 * 2 + 1),
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

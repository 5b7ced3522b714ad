//! Alternating Least Squares over the distributed sparse kernels.
//!
//! ALS factorizes a rating matrix `V ≈ W × H` (with `W: users × f`,
//! `H: f × items`) by alternating ridge-regularized normal-equation
//! solves:
//!
//! ```text
//! W ← V Hᵀ (H Hᵀ + λI)⁻¹        Hᵀ ← Vᵀ W (Wᵀ W + λI)⁻¹
//! ```
//!
//! The heavy products run as distributed plans: `V Hᵀ` and `Vᵀ W` are
//! SpMM jobs ([`MulMethod::SpmmShift`] — the sparse operand stays sharded
//! by rows while the skinny dense factor panels move), the `f × f` Grams
//! are ordinary dense GEMM, and the per-iteration objective samples the
//! reconstruction only at the rating positions with an SDDMM job
//! ([`MulMethod::Sddmm`]) — `‖P(V) ⊙ (W H) − V‖F` never materializes the
//! dense `W H`. Only the `f × f` ridge solve happens driver-side (a
//! deterministic Gauss–Jordan inverse), re-entering the cluster as a
//! dense multiply by the inverted Gram.
//!
//! Like GNMF, the round is written once, as [`iteration`] over
//! [`Ops<M>`]: [`run_real`] drives it with materialized matrices through
//! any real session (solo [`RealSession`](crate::session::RealSession) or a
//! multi-tenant [`TenantSession`](crate::session::TenantSession)), and
//! [`simulate`] drives the same function with descriptors on the simulated
//! cluster for Table-3-scale datasets.
//!
//! [`MulMethod::SpmmShift`]: distme_core::MulMethod::SpmmShift
//! [`MulMethod::Sddmm`]: distme_core::MulMethod::Sddmm

use crate::datasets::RatingDataset;
use crate::session::{Ops, SimReport, SimSession};
use crate::systems::SystemProfile;
use distme_cluster::{ClusterConfig, JobError};
use distme_matrix::elementwise::EwOp;
use distme_matrix::{Block, BlockMatrix, DenseBlock, MatrixGenerator, MatrixMeta};

/// ALS hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlsConfig {
    /// Rank of the factorization.
    pub factor_dim: u64,
    /// Number of alternating update rounds (each updates both factors).
    pub iterations: usize,
    /// Ridge regularization strength added to the Gram diagonals.
    pub lambda: f64,
}

impl Default for AlsConfig {
    fn default() -> Self {
        AlsConfig {
            factor_dim: 200,
            iterations: 10,
            lambda: 0.1,
        }
    }
}

/// One alternating round — 11 operators — returning the next `(W, H)`
/// and the sampled residual `P(V) ⊙ (W H) − V`. `ridge_inverse` is the
/// driver-side `f × f` solve `G ↦ (G + λI)⁻¹`; it moves no data, so under
/// simulation it is the identity on shapes.
///
/// # Errors
/// Propagates the first operator failure and `ridge_inverse`'s.
pub fn iteration<M, S: Ops<M>>(
    s: &mut S,
    v: &M,
    vt: &M,
    h: &M,
    mut ridge_inverse: impl FnMut(&M) -> Result<M, JobError>,
) -> Result<(M, M, M), JobError> {
    // W ← (V Hᵀ) (H Hᵀ + λI)⁻¹
    let ht = s.transpose(h)?;
    let vht = s.spmm(v, &ht)?;
    let hht = s.matmul(h, &ht)?;
    let w = s.matmul(&vht, &ridge_inverse(&hht)?)?;
    // Hᵀ ← (Vᵀ W) (Wᵀ W + λI)⁻¹
    let wt = s.transpose(&w)?;
    let wtw = s.matmul(&wt, &w)?;
    let gram_w = ridge_inverse(&wtw)?;
    let vtw = s.spmm(vt, &w)?;
    let ht_next = s.matmul(&vtw, &gram_w)?;
    let h = s.transpose(&ht_next)?;
    // Sampled objective via SDDMM: never materializes the dense W·H.
    let pred = s.sddmm(&w, &h, v)?;
    let diff = s.elementwise(&pred, EwOp::Sub, v)?;
    Ok((w, h, diff))
}

/// Simulates `iterations` of ALS for `dataset` under `profile`.
///
/// # Errors
/// Propagates the first operator failure.
pub fn simulate(
    cfg: ClusterConfig,
    profile: SystemProfile,
    dataset: &RatingDataset,
    als: &AlsConfig,
) -> Result<SimReport, JobError> {
    let mut session = SimSession::new(cfg, profile);
    let v = dataset.meta();
    let h = MatrixMeta::dense(als.factor_dim, v.cols);
    let vt = session.transpose(&v)?;
    session.run_rounds(dataset.name, als.iterations, |s| {
        iteration(s, &v, &vt, &h, |gram| Ok(*gram)).map(drop)
    })
}

/// Result of a real ALS factorization.
#[derive(Debug)]
pub struct AlsResult {
    /// Left factor, `users × factor_dim`.
    pub w: BlockMatrix,
    /// Right factor, `factor_dim × items`.
    pub h: BlockMatrix,
    /// Sampled reconstruction error `‖P(V) ⊙ (W H) − V‖F` after each
    /// iteration, where `P(V)` is the rating pattern.
    pub objective: Vec<f64>,
}

/// Runs ALS for real on a materialized rating matrix.
///
/// # Errors
/// Propagates operator failures and a singular regularized Gram (only
/// possible at `lambda == 0` with degenerate factors).
pub fn run_real<S: Ops>(
    session: &mut S,
    v: &BlockMatrix,
    cfg: &AlsConfig,
    seed: u64,
) -> Result<AlsResult, JobError> {
    run_real_with(session, v, cfg, seed, |_, _| Ok(()))
}

/// [`run_real`] with a between-iterations hook: `after_iteration(session,
/// i)` runs after iteration `i` completes, which is where elastic resizes
/// slot into a factorization without perturbing its arithmetic.
///
/// # Errors
/// Propagates operator failures and errors returned by the hook.
pub fn run_real_with<S: Ops>(
    session: &mut S,
    v: &BlockMatrix,
    cfg: &AlsConfig,
    seed: u64,
    mut after_iteration: impl FnMut(&mut S, usize) -> Result<(), JobError>,
) -> Result<AlsResult, JobError> {
    let bs = v.meta().block_size;
    let f = cfg.factor_dim;
    let gen_h = MatrixGenerator::with_seed(seed ^ 0x515).value_range(0.1, 1.0);
    let mut h = gen_h.generate(&MatrixMeta::dense(f, v.meta().cols).with_block_size(bs))?;
    let mut w = BlockMatrix::new(MatrixMeta::dense(v.meta().rows, f).with_block_size(bs));

    // V is stationary across iterations, so its transpose is hoisted.
    let vt = session.transpose(v)?;

    let mut objective = Vec::with_capacity(cfg.iterations);
    for iter in 0..cfg.iterations {
        let diff;
        (w, h, diff) = iteration(session, v, &vt, &h, |gram| {
            ridge_inverse(gram, cfg.lambda, bs)
        })?;
        objective.push(diff.frobenius_norm());
        after_iteration(session, iter)?;
    }
    Ok(AlsResult { w, h, objective })
}

/// Driver-side `(G + λI)⁻¹` of an `f × f` Gram, materialized back into a
/// block matrix so it re-enters the cluster as an ordinary dense operand.
///
/// Gauss–Jordan with deterministic partial pivoting: identical input bits
/// yield identical output bits, which is what keeps elastic and
/// concurrent ALS runs bit-comparable.
///
/// # Errors
/// [`JobError::ShapeMismatch`] for a non-square Gram, [`JobError::Singular`]
/// when the regularized Gram is singular.
fn ridge_inverse(gram: &BlockMatrix, lambda: f64, bs: u64) -> Result<BlockMatrix, JobError> {
    let n = gram.meta().rows as usize;
    if gram.meta().cols as usize != n {
        return Err(JobError::shape_mismatch(format!(
            "ridge_inverse needs a square Gram, got {}x{}",
            gram.meta().rows,
            gram.meta().cols
        )));
    }
    let mut a = vec![0.0_f64; n * n];
    for (i, row) in a.chunks_exact_mut(n).enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            *cell = gram.get_element(i as u64, j as u64);
        }
        row[i] += lambda;
    }
    let mut inv = vec![0.0_f64; n * n];
    for i in 0..n {
        inv[i * n + i] = 1.0;
    }
    for col in 0..n {
        // Deterministic partial pivot: first row of maximal |a[r][col]|.
        let mut piv = col;
        for r in col + 1..n {
            if a[r * n + col].abs() > a[piv * n + col].abs() {
                piv = r;
            }
        }
        if a[piv * n + col].abs() < 1e-12 {
            return Err(JobError::singular(format!(
                "singular regularized Gram at column {col}"
            )));
        }
        if piv != col {
            for j in 0..n {
                a.swap(piv * n + j, col * n + j);
                inv.swap(piv * n + j, col * n + j);
            }
        }
        let d = a[col * n + col];
        for j in 0..n {
            a[col * n + j] /= d;
            inv[col * n + j] /= d;
        }
        for r in 0..n {
            if r == col {
                continue;
            }
            let factor = a[r * n + col];
            if factor == 0.0 {
                continue;
            }
            for j in 0..n {
                a[r * n + j] -= factor * a[col * n + j];
                inv[r * n + j] -= factor * inv[col * n + j];
            }
        }
    }

    let meta = MatrixMeta::dense(n as u64, n as u64).with_block_size(bs);
    let mut out = BlockMatrix::new(meta);
    for bi in 0..meta.block_rows() {
        for bj in 0..meta.block_cols() {
            let (r, c) = meta.block_dims(bi, bj);
            let block = DenseBlock::from_fn(r as usize, c as usize, |i, j| {
                let gi = bi as usize * bs as usize + i;
                let gj = bj as usize * bs as usize + j;
                inv[gi * n + gj]
            });
            out.put(bi, bj, Block::Dense(block))?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::RealSession;
    use crate::test_support::{elastic_cfg, factor_bits, small_v};

    fn tiny_v() -> BlockMatrix {
        let meta = MatrixMeta::sparse(96, 64, 0.2).with_block_size(16);
        MatrixGenerator::with_seed(3)
            .value_range(1.0, 5.0)
            .generate(&meta)
            .unwrap()
    }

    #[test]
    fn real_als_reduces_the_sampled_error() {
        let v = tiny_v();
        let mut s = RealSession::new(ClusterConfig::laptop(), SystemProfile::DistMe);
        let cfg = AlsConfig {
            factor_dim: 16,
            iterations: 6,
            lambda: 0.1,
        };
        let res = run_real(&mut s, &v, &cfg, 99).unwrap();
        assert_eq!(res.objective.len(), 6);
        // The first reading is already post-solve, so the remaining head
        // room is modest — but the series keeps shrinking monotonically.
        for pair in res.objective.windows(2) {
            assert!(
                pair[1] <= pair[0] * (1.0 + 1e-9),
                "sampled objective increased: {:?}",
                res.objective
            );
        }
        let first = res.objective[0];
        let last = *res.objective.last().unwrap();
        assert!(
            last < first * 0.85,
            "no real progress: {first} -> {last} ({:?})",
            res.objective
        );
        // Factors have the right shapes.
        assert_eq!(res.w.meta().rows, 96);
        assert_eq!(res.w.meta().cols, 16);
        assert_eq!(res.h.meta().rows, 16);
        assert_eq!(res.h.meta().cols, 64);
    }

    #[test]
    fn ridge_inverse_actually_inverts() {
        // A small SPD-ish matrix: G = Mᵀ M built from a seeded generator.
        let meta = MatrixMeta::dense(24, 24).with_block_size(16);
        let m = MatrixGenerator::with_seed(11)
            .value_range(0.1, 1.0)
            .generate(&meta)
            .unwrap();
        let mt = m.transpose();
        let gram = mt.multiply(&m).unwrap();
        let lambda = 0.5;
        let inv = ridge_inverse(&gram, lambda, 16).unwrap();
        // (G + λI) · inv ≈ I.
        let prod = {
            let mut shifted = gram;
            for i in 0..24u64 {
                let cur = shifted.get_element(i, i);
                let bs = 16u64;
                let (bi, bj) = ((i / bs) as u32, (i / bs) as u32);
                let mut blk = shifted.get(bi, bj).unwrap().to_dense();
                blk.set((i % bs) as usize, (i % bs) as usize, cur + lambda);
                shifted.put(bi, bj, Block::Dense(blk)).unwrap();
            }
            shifted.multiply(&inv).unwrap()
        };
        for i in 0..24 {
            for j in 0..24 {
                let want = if i == j { 1.0 } else { 0.0 };
                let got = prod.get_element(i, j);
                assert!(
                    (got - want).abs() < 1e-8,
                    "(G+λI)·inv deviates at ({i},{j}): {got}"
                );
            }
        }
    }

    #[test]
    fn ridge_inverse_rejects_a_singular_gram() {
        // The zero Gram with λ = 0 is singular.
        let zero = BlockMatrix::new(MatrixMeta::dense(8, 8).with_block_size(8));
        let err = ridge_inverse(&zero, 0.0, 8).unwrap_err();
        assert!(matches!(err, JobError::Singular { .. }), "{err}");
        // ... and invertible once regularized.
        assert!(ridge_inverse(&zero, 0.1, 8).is_ok());
    }

    #[test]
    fn als_grown_mid_run_matches_a_fixed_grid_bit_for_bit() {
        let v = small_v();
        let cfg = AlsConfig {
            factor_dim: 16,
            iterations: 5,
            lambda: 0.1,
        };
        let mut fixed = RealSession::new(elastic_cfg(9), SystemProfile::DistMe);
        let baseline = run_real(&mut fixed, &v, &cfg, 42).unwrap();

        let mut elastic = RealSession::new(elastic_cfg(4), SystemProfile::DistMe);
        let mut grew = None;
        let res = run_real_with(&mut elastic, &v, &cfg, 42, |s, iter| {
            if iter == 2 {
                grew = Some(s.scale_to(9)?);
            }
            Ok(())
        })
        .unwrap();

        let report = grew.expect("the resize hook must run");
        assert!(report.moves > 0, "a grow must migrate resident blocks");
        assert_eq!((report.from_nodes, report.to_nodes), (4, 9));
        assert!(elastic.stats().rebalanced_moves > 0);
        assert_eq!(factor_bits(&res.w), factor_bits(&baseline.w));
        assert_eq!(factor_bits(&res.h), factor_bits(&baseline.h));
        let bits = |o: &[f64]| o.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&res.objective), bits(&baseline.objective));
    }

    #[test]
    fn one_iteration_is_twelve_operators_on_either_face() {
        // The hoisted Vᵀ plus the round's 11.
        let v = small_v();
        let cfg = AlsConfig {
            factor_dim: 16,
            iterations: 1,
            lambda: 0.1,
        };
        let mut real = RealSession::new(ClusterConfig::laptop(), SystemProfile::DistMe);
        let res = run_real(&mut real, &v, &cfg, 7).unwrap();
        let mut sim = SimSession::new(ClusterConfig::paper_cluster(), SystemProfile::DistMe);
        let vt = sim.transpose(v.meta()).unwrap();
        let (w, h, _) = iteration(&mut sim, v.meta(), &vt, res.h.meta(), |g| Ok(*g)).unwrap();
        assert_eq!((sim.ops_run(), real.ops_run()), (12, 12));
        assert_eq!((w.rows, w.cols, h.rows, h.cols), (64, 16, 16, 48));
    }

    #[test]
    fn simulated_als_runs_on_movielens() {
        let cfg = ClusterConfig::paper_cluster().with_timeout(f64::MAX);
        let report = simulate(
            cfg,
            SystemProfile::DistMe,
            &RatingDataset::MOVIELENS,
            &AlsConfig {
                factor_dim: 100,
                iterations: 4,
                lambda: 0.1,
            },
        )
        .unwrap();
        assert_eq!(report.cumulative_secs.len(), 4);
        for w in report.cumulative_secs.windows(2) {
            assert!(w[1] > w[0], "cumulative time must strictly increase");
        }
        assert_eq!(report.dataset, "MovieLens");
        assert_eq!(report.system, "DistME");
    }

    #[test]
    fn als_is_deterministic_across_identical_runs() {
        let v = small_v();
        let cfg = AlsConfig {
            factor_dim: 16,
            iterations: 3,
            lambda: 0.1,
        };
        let mut s1 = RealSession::new(elastic_cfg(4), SystemProfile::DistMe);
        let r1 = run_real(&mut s1, &v, &cfg, 7).unwrap();
        let mut s2 = RealSession::new(elastic_cfg(4), SystemProfile::DistMe);
        let r2 = run_real(&mut s2, &v, &cfg, 7).unwrap();
        assert_eq!(factor_bits(&r1.w), factor_bits(&r2.w));
        assert_eq!(factor_bits(&r1.h), factor_bits(&r2.h));
        let bits = |o: &[f64]| o.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&r1.objective), bits(&r2.objective));
    }
}

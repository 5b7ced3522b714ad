//! Gaussian Non-negative Matrix Factorization (Appendix A).
//!
//! GNMF approximates a non-negative rating matrix `V ≈ W × H` with the
//! multiplicative update rules of Eq. 7:
//!
//! ```text
//! H ← H ∗ (Wᵀ V) / (Wᵀ W H)        W ← W ∗ (V Hᵀ) / (W H Hᵀ)
//! ```
//!
//! The update is written once, as [`iteration`] over [`Ops<M>`]:
//! [`run_real`] drives it with materialized matrices (its objective
//! `‖V − WH‖F` is non-increasing — property-tested), and [`simulate`]
//! drives the same function with descriptors on the simulated cluster for
//! the paper-scale experiments of Fig. 8. The operator sequence follows the
//! DMac-style plan the paper adopts ("We use the same query plan with DMac
//! for the GNMF query").
//!
//! The objective never forms the dense `W H`. The W update already computes
//! `V Hᵀ` and `H Hᵀ` for the new H, and
//!
//! ```text
//! ‖V − WH‖² = ‖V‖² − 2⟨V Hᵀ, W⟩ + ⟨WᵀW, H Hᵀ⟩
//! ```
//!
//! (`⟨·,·⟩` the Frobenius inner product), so the driver adds only `‖V‖²`
//! once per factorization, one `f × f` Gram `WᵀW` and two inner products
//! the size of the factors.

use crate::datasets::RatingDataset;
use crate::session::{Ops, SimReport, SimSession};
use crate::systems::SystemProfile;
use distme_cluster::{ClusterConfig, JobError};
use distme_matrix::elementwise::EwOp;
use distme_matrix::{BlockMatrix, MatrixGenerator, MatrixMeta};

/// GNMF hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GnmfConfig {
    /// Rank of the factorization (the paper's "factor dimension"; 200 in
    /// Figs. 8(a–c), swept over {200, 500, 1000} in Fig. 8(d)).
    pub factor_dim: u64,
    /// Number of multiplicative-update iterations (the paper runs 10).
    pub iterations: usize,
}

impl Default for GnmfConfig {
    fn default() -> Self {
        GnmfConfig {
            factor_dim: 200,
            iterations: 10,
        }
    }
}

/// One multiplicative-update iteration — both factor updates, 12
/// operators — returning the next `(W, H)` and the W update's `V Hᵀ` and
/// `H Hᵀ` of that new H, from which [`run_real_with`] reads the objective.
///
/// # Errors
/// Propagates the first operator failure.
pub fn iteration<M, S: Ops<M>>(s: &mut S, v: &M, w: &M, h: &M) -> Result<(M, M, M, M), JobError> {
    // H ← H ∗ (WᵀV) / (WᵀW H)
    let wt = s.transpose(w)?;
    let wtv = s.matmul(&wt, v)?;
    let wtw = s.matmul(&wt, w)?;
    let wtwh = s.matmul(&wtw, h)?;
    let num = s.elementwise(h, EwOp::Mul, &wtv)?;
    let h = s.elementwise(&num, EwOp::Div, &wtwh)?;
    // W ← W ∗ (V Hᵀ) / (W H Hᵀ)
    let ht = s.transpose(&h)?;
    let vht = s.matmul(v, &ht)?;
    let hht = s.matmul(&h, &ht)?;
    let whht = s.matmul(w, &hht)?;
    let num = s.elementwise(w, EwOp::Mul, &vht)?;
    let w = s.elementwise(&num, EwOp::Div, &whht)?;
    Ok((w, h, vht, hht))
}

/// Simulates `iterations` of GNMF for `dataset` under `profile`.
///
/// # Errors
/// Propagates the first operator failure — e.g. MatFast's O.O.M. at
/// factor dimensions ≥ 500 (Fig. 8(d)).
pub fn simulate(
    cfg: ClusterConfig,
    profile: SystemProfile,
    dataset: &RatingDataset,
    gnmf: &GnmfConfig,
) -> Result<SimReport, JobError> {
    let v = dataset.meta();
    let w = MatrixMeta::dense(v.rows, gnmf.factor_dim);
    let h = MatrixMeta::dense(gnmf.factor_dim, v.cols);
    // An update leaves both descriptors as they are.
    SimSession::new(cfg, profile).run_rounds(dataset.name, gnmf.iterations, |s| {
        iteration(s, &v, &w, &h).map(drop)
    })
}

/// Result of a real GNMF factorization.
#[derive(Debug)]
pub struct GnmfResult {
    /// Left factor, `users × factor_dim`.
    pub w: BlockMatrix,
    /// Right factor, `factor_dim × items`.
    pub h: BlockMatrix,
    /// `‖V − WH‖F` after each iteration (non-increasing), read as
    /// `sqrt(‖V‖² − 2⟨V Hᵀ, W⟩ + ⟨WᵀW, H Hᵀ⟩)` from the iteration's own
    /// `V Hᵀ` and `H Hᵀ`, clamped at 0 against rounding.
    pub objective: Vec<f64>,
}

/// Runs GNMF for real on a materialized rating matrix.
///
/// # Errors
/// Propagates operator failures (shape errors, O.O.M. under tight θt).
pub fn run_real<S: Ops>(
    session: &mut S,
    v: &BlockMatrix,
    cfg: &GnmfConfig,
    seed: u64,
) -> Result<GnmfResult, JobError> {
    run_real_with(session, v, cfg, seed, |_, _| Ok(()))
}

/// [`run_real`] with a between-iterations hook: `after_iteration(session,
/// i)` runs after iteration `i` completes, which is where elastic resizes
/// ([`RealSession::scale_to`], [`RealSession::autoscale`]) slot into a
/// factorization without perturbing its arithmetic.
///
/// [`RealSession::scale_to`]: crate::session::RealSession::scale_to
/// [`RealSession::autoscale`]: crate::session::RealSession::autoscale
///
/// # Errors
/// Propagates operator failures and errors returned by the hook.
pub fn run_real_with<S: Ops>(
    session: &mut S,
    v: &BlockMatrix,
    cfg: &GnmfConfig,
    seed: u64,
    mut after_iteration: impl FnMut(&mut S, usize) -> Result<(), JobError>,
) -> Result<GnmfResult, JobError> {
    let bs = v.meta().block_size;
    let f = cfg.factor_dim;
    let gen_w = MatrixGenerator::with_seed(seed).value_range(0.1, 1.0);
    let gen_h = MatrixGenerator::with_seed(seed ^ 0xABCD).value_range(0.1, 1.0);
    let mut w = gen_w.generate(&MatrixMeta::dense(v.meta().rows, f).with_block_size(bs))?;
    let mut h = gen_h.generate(&MatrixMeta::dense(f, v.meta().cols).with_block_size(bs))?;

    let v_sq = v.inner(v)?;
    let mut objective = Vec::with_capacity(cfg.iterations);
    for iter in 0..cfg.iterations {
        let (vht, hht);
        (w, h, vht, hht) = iteration(session, v, &w, &h)?;
        let sq = v_sq - 2.0 * vht.inner(&w)? + w.gram().inner(&hht)?;
        objective.push(sq.max(0.0).sqrt());
        after_iteration(session, iter)?;
    }
    Ok(GnmfResult { w, h, objective })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::RealSession;
    use crate::test_support::{elastic_cfg, factor_bits, small_v};

    fn tiny_v() -> BlockMatrix {
        // A small positive rating matrix.
        let meta = MatrixMeta::sparse(96, 64, 0.2).with_block_size(16);
        MatrixGenerator::with_seed(3)
            .value_range(1.0, 5.0)
            .generate(&meta)
            .unwrap()
    }

    #[test]
    fn real_gnmf_objective_is_monotone_nonincreasing() {
        let v = tiny_v();
        let mut s = RealSession::new(ClusterConfig::laptop(), SystemProfile::DistMe);
        let cfg = GnmfConfig {
            factor_dim: 16,
            iterations: 6,
        };
        let res = run_real(&mut s, &v, &cfg, 99).unwrap();
        assert_eq!(res.objective.len(), 6);
        for pair in res.objective.windows(2) {
            assert!(
                pair[1] <= pair[0] * (1.0 + 1e-9),
                "objective increased: {:?}",
                res.objective
            );
        }
        // Factors have the right shapes.
        assert_eq!(res.w.meta().rows, 96);
        assert_eq!(res.w.meta().cols, 16);
        assert_eq!(res.h.meta().rows, 16);
        assert_eq!(res.h.meta().cols, 64);
    }

    #[test]
    fn real_gnmf_actually_reduces_error() {
        let v = tiny_v();
        let mut s = RealSession::new(ClusterConfig::laptop(), SystemProfile::DistMe);
        let cfg = GnmfConfig {
            factor_dim: 24,
            iterations: 8,
        };
        let res = run_real(&mut s, &v, &cfg, 1).unwrap();
        let first = res.objective[0];
        let last = *res.objective.last().unwrap();
        assert!(last < first * 0.9, "no real progress: {first} -> {last}");
    }

    /// The dense reference: `‖V − WH‖F` with `W H` materialized.
    fn frobenius_residual(v: &BlockMatrix, w: &BlockMatrix, h: &BlockMatrix) -> f64 {
        let wh = w.multiply(h).unwrap();
        v.elementwise(EwOp::Sub, &wh).unwrap().frobenius_norm()
    }

    #[test]
    fn objective_matches_the_dense_residual() {
        // A run of n iterations ends on the factors its n-th objective
        // describes, so each prefix checks one more iteration.
        for v in [tiny_v(), small_v()] {
            for seed in [1, 7, 42] {
                for iterations in 1..=3 {
                    let mut s = RealSession::new(ClusterConfig::laptop(), SystemProfile::DistMe);
                    let cfg = GnmfConfig {
                        factor_dim: 16,
                        iterations,
                    };
                    let res = run_real(&mut s, &v, &cfg, seed).unwrap();
                    let got = res.objective[iterations - 1];
                    let want = frobenius_residual(&v, &res.w, &res.h);
                    assert!(
                        (got - want).abs() <= 1e-9 * want,
                        "seed {seed}, iteration {iterations}: {got} vs dense {want}"
                    );
                    assert_eq!(
                        s.ops_run(),
                        12 * iterations,
                        "the objective adds no operator"
                    );
                }
            }
        }
    }

    #[test]
    fn resident_bytes_do_not_grow_with_the_iteration_count() {
        // What an iteration drops leaves the stores at the next job's
        // prologue, so every iteration ends holding what the second did.
        // (The first differs: its factors were drawn on the driver and
        // ingested at one home, a result is placed at both.)
        let v = small_v();
        let mut s = RealSession::new(ClusterConfig::laptop(), SystemProfile::DistMe);
        let cfg = GnmfConfig {
            factor_dim: 16,
            iterations: 5,
        };
        let mut resident = Vec::new();
        run_real_with(&mut s, &v, &cfg, 7, |s, _| {
            resident.push(s.cluster().stores().resident_bytes());
            Ok(())
        })
        .unwrap();
        assert!(
            resident[2..].iter().all(|&r| r <= resident[1]),
            "{resident:?}"
        );
    }

    #[test]
    fn without_ratings_the_objective_is_the_norm_of_wh() {
        // With V = 0 both V terms vanish, and H ← H ∗ 0 / (WᵀW H) leaves no
        // block, so every product downstream is missing: the missing-block
        // arms must read exactly +0.0, never NaN or -0.0.
        let v = BlockMatrix::new(MatrixMeta::sparse(64, 48, 0.0).with_block_size(16));
        let mut s = RealSession::new(ClusterConfig::laptop(), SystemProfile::DistMe);
        let cfg = GnmfConfig {
            factor_dim: 8,
            iterations: 2,
        };
        let res = run_real(&mut s, &v, &cfg, 5).unwrap();
        let wh = res.w.multiply(&res.h).unwrap().frobenius_norm();
        for o in &res.objective {
            assert_eq!(o.to_bits(), wh.to_bits());
            assert_eq!(o.to_bits(), 0.0f64.to_bits());
        }
    }

    #[test]
    fn factors_stay_nonnegative() {
        let v = tiny_v();
        let mut s = RealSession::new(ClusterConfig::laptop(), SystemProfile::DistMe);
        let cfg = GnmfConfig {
            factor_dim: 8,
            iterations: 4,
        };
        let res = run_real(&mut s, &v, &cfg, 7).unwrap();
        for (_, blk) in res.w.blocks() {
            assert!(blk.to_dense().data().iter().all(|&x| x >= 0.0));
        }
        for (_, blk) in res.h.blocks() {
            assert!(blk.to_dense().data().iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn gnmf_grown_mid_run_matches_a_fixed_grid_bit_for_bit() {
        let v = small_v();
        let cfg = GnmfConfig {
            factor_dim: 16,
            iterations: 6,
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
        assert!(elastic.stats().rebalanced_payload_bytes > 0);
        assert_eq!(factor_bits(&res.w), factor_bits(&baseline.w));
        assert_eq!(factor_bits(&res.h), factor_bits(&baseline.h));
        let bits = |o: &[f64]| o.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&res.objective), bits(&baseline.objective));
    }

    #[test]
    fn gnmf_shrunk_mid_run_drains_live_blocks_without_drift() {
        let v = small_v();
        let cfg = GnmfConfig {
            factor_dim: 16,
            iterations: 6,
        };
        let mut fixed = RealSession::new(elastic_cfg(4), SystemProfile::DistMe);
        let baseline = run_real(&mut fixed, &v, &cfg, 42).unwrap();

        let mut elastic = RealSession::new(elastic_cfg(9), SystemProfile::DistMe);
        let mut shrank = None;
        let res = run_real_with(&mut elastic, &v, &cfg, 42, |s, iter| {
            if iter == 2 {
                // Live factor blocks sit on the 9-grid's tail nodes here;
                // the drain must re-home them before the grid truncates.
                shrank = Some(s.scale_to(4)?);
            }
            Ok(())
        })
        .unwrap();

        let report = shrank.expect("the resize hook must run");
        assert!(report.moves > 0, "a shrink must drain the leaving nodes");
        assert_eq!(report.lost_blocks, 0, "dual-homed blocks never get lost");
        assert_eq!(factor_bits(&res.w), factor_bits(&baseline.w));
        assert_eq!(factor_bits(&res.h), factor_bits(&baseline.h));
    }

    #[test]
    fn autoscaler_grows_the_cluster_during_gnmf() {
        use distme_cluster::ElasticPolicy;
        let v = small_v();
        let cfg = GnmfConfig {
            factor_dim: 16,
            iterations: 3,
        };
        let mut s = RealSession::new(
            ClusterConfig {
                nodes: 2,
                ..ClusterConfig::laptop()
            },
            SystemProfile::DistMe,
        );
        let policy = ElasticPolicy::default_band(2, 4);
        let mut resizes = Vec::new();
        let res = run_real_with(&mut s, &v, &cfg, 7, |s, _| {
            if let Some(r) = s.autoscale(&policy)? {
                resizes.push((r.from_nodes, r.to_nodes));
            }
            Ok(())
        })
        .unwrap();
        assert!(
            !resizes.is_empty(),
            "12 ops/iteration on 4 slots is far over the scale-up threshold"
        );
        assert!(s.cluster().config().nodes > 2);
        assert!(
            s.cluster().config().nodes <= 4,
            "policy must respect max_nodes"
        );
        for w in res.objective.windows(2) {
            assert!(
                w[1] <= w[0] * (1.0 + 1e-9),
                "objective increased across a resize"
            );
        }
    }

    #[test]
    fn one_iteration_is_twelve_operators_on_either_face() {
        let v = small_v();
        let cfg = GnmfConfig {
            factor_dim: 16,
            iterations: 1,
        };
        let mut real = RealSession::new(ClusterConfig::laptop(), SystemProfile::DistMe);
        let res = run_real(&mut real, &v, &cfg, 7).unwrap();
        let mut sim = SimSession::new(ClusterConfig::paper_cluster(), SystemProfile::DistMe);
        let (w, h, _, _) = iteration(&mut sim, v.meta(), res.w.meta(), res.h.meta()).unwrap();
        assert_eq!((sim.ops_run(), real.ops_run()), (12, 12));
        assert_eq!((w.rows, w.cols, h.rows, h.cols), (64, 16, 16, 48));
    }

    #[test]
    fn simulated_gnmf_runs_ten_iterations_on_movielens() {
        let cfg = ClusterConfig::paper_cluster().with_timeout(f64::MAX);
        let report = simulate(
            cfg,
            SystemProfile::DistMe,
            &RatingDataset::MOVIELENS,
            &GnmfConfig::default(),
        )
        .unwrap();
        assert_eq!(report.cumulative_secs.len(), 10);
        // Strictly increasing cumulative time.
        for w in report.cumulative_secs.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert_eq!(report.dataset, "MovieLens");
        assert_eq!(report.system, "DistME");
    }

    #[test]
    fn matfast_ooms_at_factor_500_on_yahoo() {
        // Fig. 8(d): "When the factor dimension is larger than 500,
        // MatFast fails due to O.O.M." — V·Hᵀ materializes an
        // |C| = 1.8M x 500 intermediate per CPMM task.
        let cfg = ClusterConfig::paper_cluster().with_timeout(f64::MAX);
        let err = simulate(
            cfg,
            SystemProfile::MatFast,
            &RatingDataset::YAHOO_MUSIC,
            &GnmfConfig {
                factor_dim: 500,
                iterations: 1,
            },
        )
        .unwrap_err();
        assert_eq!(err.annotation(), "O.O.M.");
        // And it survives the default factor dimension of 200.
        let ok = simulate(
            ClusterConfig::paper_cluster().with_timeout(f64::MAX),
            SystemProfile::MatFast,
            &RatingDataset::YAHOO_MUSIC,
            &GnmfConfig {
                factor_dim: 200,
                iterations: 1,
            },
        );
        assert!(ok.is_ok(), "{ok:?}");
    }

    #[test]
    fn distme_survives_factor_1000() {
        let cfg = ClusterConfig::paper_cluster_gpu().with_timeout(f64::MAX);
        let report = simulate(
            cfg,
            SystemProfile::DistMe,
            &RatingDataset::YAHOO_MUSIC,
            &GnmfConfig {
                factor_dim: 1000,
                iterations: 1,
            },
        );
        assert!(report.is_ok(), "{report:?}");
    }

    #[test]
    fn distme_beats_legacy_systems_on_netflix() {
        let mk = || ClusterConfig::paper_cluster_gpu().with_timeout(f64::MAX);
        let gnmf = GnmfConfig {
            factor_dim: 200,
            iterations: 2,
        };
        let distme = simulate(mk(), SystemProfile::DistMe, &RatingDataset::NETFLIX, &gnmf).unwrap();
        let systemml = simulate(
            mk(),
            SystemProfile::SystemMl,
            &RatingDataset::NETFLIX,
            &gnmf,
        )
        .unwrap();
        let matfast =
            simulate(mk(), SystemProfile::MatFast, &RatingDataset::NETFLIX, &gnmf).unwrap();
        assert!(
            distme.total_secs() < systemml.total_secs(),
            "DistME {:.0}s vs SystemML {:.0}s",
            distme.total_secs(),
            systemml.total_secs()
        );
        assert!(
            distme.total_secs() < matfast.total_secs(),
            "DistME {:.0}s vs MatFast {:.0}s",
            distme.total_secs(),
            matfast.total_secs()
        );
    }
}

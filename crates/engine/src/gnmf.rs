//! Gaussian Non-negative Matrix Factorization (Appendix A).
//!
//! GNMF approximates a non-negative rating matrix `V ≈ W × H` with the
//! multiplicative update rules of Eq. 7:
//!
//! ```text
//! H ← H ∗ (Wᵀ V) / (Wᵀ W H)        W ← W ∗ (V Hᵀ) / (W H Hᵀ)
//! ```
//!
//! This module provides both faces: [`run_real`] performs the actual
//! factorization on materialized matrices (its objective `‖V − WH‖F` is
//! non-increasing — property-tested), and [`simulate`] replays the same
//! operator sequence per iteration on the simulated cluster for the
//! paper-scale experiments of Fig. 8. The operator sequence follows the
//! DMac-style plan the paper adopts ("We use the same query plan with DMac
//! for the GNMF query").

use crate::datasets::RatingDataset;
use crate::session::{RealOps, SimSession};
use crate::systems::SystemProfile;
use distme_cluster::{ClusterConfig, JobError, JobStats};
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

/// Result of a simulated GNMF run.
#[derive(Debug, Clone)]
pub struct GnmfReport {
    /// Dataset name.
    pub dataset: &'static str,
    /// System that ran it.
    pub system: &'static str,
    /// Accumulated elapsed seconds *after* each iteration — the series the
    /// Fig. 8(a–c) curves plot.
    pub cumulative_secs: Vec<f64>,
    /// Statistics accumulated over the whole run.
    pub stats: JobStats,
}

impl GnmfReport {
    /// Total elapsed seconds over all iterations.
    pub fn total_secs(&self) -> f64 {
        self.cumulative_secs.last().copied().unwrap_or(0.0)
    }
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
) -> Result<GnmfReport, JobError> {
    let mut session = SimSession::new(cfg, profile);
    let v = dataset.meta();
    let f = gnmf.factor_dim;
    let w = MatrixMeta::dense(v.rows, f);
    let h = MatrixMeta::dense(f, v.cols);

    let mut cumulative = Vec::with_capacity(gnmf.iterations);
    for _ in 0..gnmf.iterations {
        iteration_sim(&mut session, &v, &w, &h)?;
        cumulative.push(session.stats().elapsed_secs);
    }
    Ok(GnmfReport {
        dataset: dataset.name,
        system: profile.name(),
        cumulative_secs: cumulative,
        stats: *session.stats(),
    })
}

/// One simulated multiplicative-update iteration (both factor updates).
fn iteration_sim(
    s: &mut SimSession,
    v: &MatrixMeta,
    w: &MatrixMeta,
    h: &MatrixMeta,
) -> Result<(), JobError> {
    // --- H update: H ∗ (WᵀV) / (WᵀW H) ---
    let wt = s.transpose(w)?;
    let wtv = s.matmul(&wt, v)?;
    let wtw = s.matmul(&wt, w)?;
    let wtwh = s.matmul(&wtw, h)?;
    let num = s.elementwise(h, EwOp::Mul, &wtv)?;
    let _h_next = s.elementwise(&num, EwOp::Div, &wtwh)?;
    // --- W update: W ∗ (V Hᵀ) / (W H Hᵀ) ---
    let ht = s.transpose(h)?;
    let vht = s.matmul(v, &ht)?;
    let hht = s.matmul(h, &ht)?;
    let whht = s.matmul(w, &hht)?;
    let num = s.elementwise(w, EwOp::Mul, &vht)?;
    let _w_next = s.elementwise(&num, EwOp::Div, &whht)?;
    Ok(())
}

/// Result of a real GNMF factorization.
#[derive(Debug)]
pub struct GnmfResult {
    /// Left factor, `users × factor_dim`.
    pub w: BlockMatrix,
    /// Right factor, `factor_dim × items`.
    pub h: BlockMatrix,
    /// `‖V − WH‖F` after each iteration (non-increasing).
    pub objective: Vec<f64>,
}

/// Runs GNMF for real on a materialized rating matrix.
///
/// # Errors
/// Propagates operator failures (shape errors, O.O.M. under tight θt).
pub fn run_real<S: RealOps>(
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
/// # Errors
/// Propagates operator failures and errors returned by the hook.
pub fn run_real_with<S, F>(
    session: &mut S,
    v: &BlockMatrix,
    cfg: &GnmfConfig,
    seed: u64,
    mut after_iteration: F,
) -> Result<GnmfResult, JobError>
where
    S: RealOps,
    F: FnMut(&mut S, usize) -> Result<(), JobError>,
{
    let bs = v.meta().block_size;
    let f = cfg.factor_dim;
    let gen_w = MatrixGenerator::with_seed(seed).value_range(0.1, 1.0);
    let gen_h = MatrixGenerator::with_seed(seed ^ 0xABCD).value_range(0.1, 1.0);
    let mut w = gen_w.generate(&MatrixMeta::dense(v.meta().rows, f).with_block_size(bs))?;
    let mut h = gen_h.generate(&MatrixMeta::dense(f, v.meta().cols).with_block_size(bs))?;

    let mut objective = Vec::with_capacity(cfg.iterations);
    for iter in 0..cfg.iterations {
        // H ← H ∗ (WᵀV) / (WᵀW H)
        let wt = session.transpose(&w)?;
        let wtv = session.matmul(&wt, v)?;
        let wtw = session.matmul(&wt, &w)?;
        let wtwh = session.matmul(&wtw, &h)?;
        let num = session.elementwise(&h, EwOp::Mul, &wtv)?;
        h = session.elementwise(&num, EwOp::Div, &wtwh)?;
        // W ← W ∗ (V Hᵀ) / (W H Hᵀ)
        let ht = session.transpose(&h)?;
        let vht = session.matmul(v, &ht)?;
        let hht = session.matmul(&h, &ht)?;
        let whht = session.matmul(&w, &hht)?;
        let num = session.elementwise(&w, EwOp::Mul, &vht)?;
        w = session.elementwise(&num, EwOp::Div, &whht)?;

        objective.push(frobenius_residual(v, &w, &h)?);
        after_iteration(session, iter)?;
    }
    Ok(GnmfResult { w, h, objective })
}

/// `‖V − WH‖F` on materialized matrices.
fn frobenius_residual(v: &BlockMatrix, w: &BlockMatrix, h: &BlockMatrix) -> Result<f64, JobError> {
    let wh = w.multiply(h)?;
    let diff = v.elementwise(EwOp::Sub, &wh)?;
    Ok(diff.frobenius_norm())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::RealSession;

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

    /// A grid where every GNMF matmul falls under the optimizer's §3.2
    /// voxel exception (`voxels < M·Tc` ⇒ spec `(I, J, K)`, no search):
    /// the decomposition — and therefore the floating-point summation
    /// order — is then *independent of the node count*, which is what
    /// makes elastic runs bit-comparable to fixed-grid runs.
    fn elastic_cfg(nodes: usize) -> ClusterConfig {
        ClusterConfig {
            nodes,
            tasks_per_node: 10,
            ..ClusterConfig::laptop()
        }
    }

    fn small_v() -> BlockMatrix {
        // 4 x 3 blocks: at factor_dim 16 the largest matmul has 12 voxels,
        // under even the 4-node grid's 40 slots.
        let meta = MatrixMeta::sparse(64, 48, 0.3).with_block_size(16);
        MatrixGenerator::with_seed(3)
            .value_range(1.0, 5.0)
            .generate(&meta)
            .unwrap()
    }

    /// Exact bit pattern of a factor: block ids plus every f64's bits.
    fn factor_bits(m: &BlockMatrix) -> Vec<u64> {
        let mut out = Vec::new();
        for (id, blk) in m.blocks() {
            out.push(u64::from(id.row));
            out.push(u64::from(id.col));
            out.extend(blk.to_dense().data().iter().map(|x| x.to_bits()));
        }
        out
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

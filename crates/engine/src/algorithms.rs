//! Algorithm library on top of the engine's distributed operators.
//!
//! §1 motivates DistME with "collaborative filtering, Cholesky
//! factorization, singular value decomposition, LU factorization,
//! betweenness centrality, and deep neural network" — workloads whose
//! inner loop is distributed matrix multiplication. Besides GNMF
//! ([`crate::gnmf`]), this module implements three more members of that
//! family, each driving a real [`Ops`] session — solo or a job-service
//! tenant's — the way a user program would:
//!
//! * [`power_iteration`] — dominant eigenpair (the SVD/PCA building block);
//! * [`pagerank`] — centrality over a sparse link matrix;
//! * [`ridge_regression_gd`] — L2-regularized least squares by gradient
//!   descent (the simplest "ML training loop" shape: Xᵀ(Xw − y) per step).

use crate::session::Ops;
use distme_cluster::JobError;
use distme_matrix::elementwise::EwOp;
use distme_matrix::{BlockMatrix, MatrixGenerator, MatrixMeta};

/// Result of [`power_iteration`].
#[derive(Debug)]
pub struct EigenPair {
    /// Estimated dominant eigenvalue (Rayleigh quotient at the last step).
    pub value: f64,
    /// Estimated unit eigenvector, `n × 1`.
    pub vector: BlockMatrix,
    /// `‖A·v − λ·v‖F` at termination.
    pub residual: f64,
}

/// Estimates the dominant eigenpair of a square matrix by power iteration:
/// `v ← A·v / ‖A·v‖`.
///
/// # Errors
/// Returns a job error on shape mismatch or cluster failure; converging to
/// a zero vector (nilpotent A) is reported as a task failure.
pub fn power_iteration<S: Ops>(
    session: &mut S,
    a: &BlockMatrix,
    iterations: usize,
    seed: u64,
) -> Result<EigenPair, JobError> {
    let n = a.meta().rows;
    if n != a.meta().cols {
        return Err(JobError::shape_mismatch(format!(
            "power iteration needs a square matrix, got {n}x{}",
            a.meta().cols
        )));
    }
    let bs = a.meta().block_size;
    let mut v = MatrixGenerator::with_seed(seed)
        .value_range(0.1, 1.0)
        .generate(&MatrixMeta::dense(n, 1).with_block_size(bs))?;
    normalize(&mut v)?;

    let mut value = 0.0;
    for _ in 0..iterations {
        let av = session.matmul(a, &v)?;
        let norm = av.frobenius_norm();
        if norm == 0.0 {
            return Err(JobError::singular(
                "power iteration collapsed to the zero vector",
            ));
        }
        // Rayleigh quotient λ = vᵀ(Av) (v is unit length).
        value = v.inner(&av)?;
        v = av.scale(1.0 / norm);
    }
    let av = session.matmul(a, &v)?;
    let residual = av.elementwise(EwOp::Sub, &v.scale(value))?.frobenius_norm();
    Ok(EigenPair {
        value,
        vector: v,
        residual,
    })
}

/// PageRank over a column-stochastic link matrix `P` (entry `(i, j)` is the
/// probability of moving to page `i` from page `j`):
/// `r ← d·P·r + (1 − d)/n`.
///
/// Returns the rank vector (sums to 1).
///
/// # Errors
/// Returns a job error on a non-square input or cluster failure.
pub fn pagerank<S: Ops>(
    session: &mut S,
    links: &BlockMatrix,
    damping: f64,
    iterations: usize,
) -> Result<BlockMatrix, JobError> {
    let n = links.meta().rows;
    if n != links.meta().cols {
        return Err(JobError::shape_mismatch(
            "pagerank needs a square link matrix",
        ));
    }
    let bs = links.meta().block_size;
    let uniform = 1.0 / n as f64;
    // r0 = uniform distribution.
    let ones = MatrixGenerator::with_seed(0)
        .value_range(1.0, 1.0 + f64::EPSILON)
        .generate(&MatrixMeta::dense(n, 1).with_block_size(bs))?;
    let teleport = ones.scale(uniform * (1.0 - damping));
    let mut r = ones.scale(uniform);

    for _ in 0..iterations {
        let pr = session.matmul(links, &r)?;
        // Dangling-node mass: what the damped walk lost this step gets
        // redistributed uniformly so r stays a distribution.
        let walked = pr.total_sum();
        let dangling = (1.0 - walked).max(0.0) * damping * uniform;
        r = pr
            .scale(damping)
            .elementwise(EwOp::Add, &teleport)?
            .elementwise(EwOp::Add, &ones.scale(dangling))?;
    }
    Ok(r)
}

/// Result of [`ridge_regression_gd`].
#[derive(Debug)]
pub struct RidgeFit {
    /// Learned weights, `d × 1`.
    pub weights: BlockMatrix,
    /// Training loss `‖Xw − y‖² + λ‖w‖²` after each step (non-increasing
    /// for a small enough learning rate).
    pub loss: Vec<f64>,
}

/// Fits `min_w ‖Xw − y‖² + λ‖w‖²` by full-batch gradient descent with the
/// distributed engine computing `Xw` and `Xᵀ(Xw − y)`.
///
/// # Errors
/// Returns a job error on shape mismatch or cluster failure.
pub fn ridge_regression_gd<S: Ops>(
    session: &mut S,
    x: &BlockMatrix,
    y: &BlockMatrix,
    lambda: f64,
    learning_rate: f64,
    iterations: usize,
    seed: u64,
) -> Result<RidgeFit, JobError> {
    let (n, d) = (x.meta().rows, x.meta().cols);
    if y.meta().rows != n || y.meta().cols != 1 {
        return Err(JobError::shape_mismatch(format!(
            "ridge regression needs y of {n}x1, got {}x{}",
            y.meta().rows,
            y.meta().cols
        )));
    }
    let bs = x.meta().block_size;
    let mut w = MatrixGenerator::with_seed(seed)
        .value_range(-0.01, 0.01)
        .generate(&MatrixMeta::dense(d, 1).with_block_size(bs))?;
    let xt = session.transpose(x)?;

    let mut loss = Vec::with_capacity(iterations);
    for _ in 0..iterations {
        let xw = session.matmul(x, &w)?;
        let resid = xw.elementwise(EwOp::Sub, y)?;
        let grad = session
            .matmul(&xt, &resid)?
            .scale(2.0)
            .elementwise(EwOp::Add, &w.scale(2.0 * lambda))?;
        w = w.elementwise(EwOp::Sub, &grad.scale(learning_rate))?;
        loss.push(resid.inner(&resid)? + lambda * w.inner(&w)?);
    }
    Ok(RidgeFit { weights: w, loss })
}

/// Normalizes a vector to unit Frobenius norm in place.
fn normalize(v: &mut BlockMatrix) -> Result<(), JobError> {
    let norm = v.frobenius_norm();
    if norm == 0.0 {
        return Err(JobError::singular("cannot normalize the zero vector"));
    }
    *v = v.scale(1.0 / norm);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::RealSession;
    use crate::systems::SystemProfile;
    use distme_cluster::ClusterConfig;
    use distme_matrix::{Block, CsrBlock, DenseBlock};

    fn session() -> RealSession {
        RealSession::new(ClusterConfig::laptop(), SystemProfile::DistMe)
    }

    #[test]
    fn power_iteration_finds_a_planted_eigenpair() {
        // A = Q diag(5, 1, ..., 1) Q^T would need a Q; simpler: a rank-1
        // bump over identity: A = I + 4·u·uᵀ with unit u has dominant
        // eigenvalue 5 along u.
        let n = 32u64;
        let bs = 16u64;
        let u: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).sin()).collect();
        let norm = u.iter().map(|x| x * x).sum::<f64>().sqrt();
        let u: Vec<f64> = u.iter().map(|x| x / norm).collect();
        let meta = MatrixMeta::dense(n, n).with_block_size(bs);
        let mut a = BlockMatrix::new(meta);
        for bi in 0..2u32 {
            for bj in 0..2u32 {
                let d = DenseBlock::from_fn(16, 16, |i, j| {
                    let (gi, gj) = (bi as usize * 16 + i, bj as usize * 16 + j);
                    4.0 * u[gi] * u[gj] + if gi == gj { 1.0 } else { 0.0 }
                });
                a.put(bi, bj, Block::Dense(d)).unwrap();
            }
        }
        let mut s = session();
        let pair = power_iteration(&mut s, &a, 60, 7).unwrap();
        assert!((pair.value - 5.0).abs() < 1e-6, "eigenvalue {}", pair.value);
        assert!(pair.residual < 1e-6, "residual {}", pair.residual);
        // Eigenvector parallel to u (up to sign).
        let got: Vec<f64> = (0..n).map(|i| pair.vector.get_element(i, 0)).collect();
        let cos: f64 = got.iter().zip(u.iter()).map(|(a, b)| a * b).sum();
        assert!(cos.abs() > 0.999, "cosine {cos}");
    }

    #[test]
    fn power_iteration_rejects_rectangular() {
        let meta = MatrixMeta::dense(32, 16).with_block_size(16);
        let a = MatrixGenerator::with_seed(1).generate(&meta).unwrap();
        let err = power_iteration(&mut session(), &a, 3, 1).unwrap_err();
        assert!(matches!(err, JobError::ShapeMismatch { .. }), "{err}");
    }

    #[test]
    fn pagerank_is_a_distribution_and_ranks_the_hub() {
        // A 48-node star-ish graph: every page links to page 0, page 0
        // links uniformly everywhere. Column-stochastic P.
        let n = 48usize;
        let bs = 16u64;
        let mut trips: Vec<(usize, usize, f64)> = Vec::new();
        for j in 1..n {
            trips.push((0, j, 1.0)); // page j links only to page 0
        }
        for i in 0..n {
            trips.push((i, 0, 1.0 / n as f64)); // page 0 links everywhere
        }
        let meta = MatrixMeta::sparse(n as u64, n as u64, 0.05).with_block_size(bs);
        let mut links = BlockMatrix::new(meta);
        type BlockTriplets = std::collections::BTreeMap<(u32, u32), Vec<(usize, usize, f64)>>;
        let mut per_block: BlockTriplets = Default::default();
        for (i, j, v) in trips {
            per_block
                .entry(((i / 16) as u32, (j / 16) as u32))
                .or_default()
                .push((i % 16, j % 16, v));
        }
        for ((bi, bj), t) in per_block {
            links
                .put(
                    bi,
                    bj,
                    Block::Sparse(CsrBlock::from_triplets(16, 16, t).unwrap()),
                )
                .unwrap();
        }
        let mut s = session();
        let r = pagerank(&mut s, &links, 0.85, 40).unwrap();
        let total = r.total_sum();
        assert!((total - 1.0).abs() < 1e-9, "mass {total}");
        let hub = r.get_element(0, 0);
        for i in 1..n as u64 {
            assert!(hub > r.get_element(i, 0), "hub must dominate page {i}");
        }
    }

    #[test]
    fn ridge_recovers_planted_weights() {
        // y = X w* exactly; GD should drive the loss down and approach w*.
        let (n, d, bs) = (96u64, 16u64, 16u64);
        let x = MatrixGenerator::with_seed(5)
            .value_range(-1.0, 1.0)
            .generate(&MatrixMeta::dense(n, d).with_block_size(bs))
            .unwrap();
        let w_star = MatrixGenerator::with_seed(6)
            .value_range(-1.0, 1.0)
            .generate(&MatrixMeta::dense(d, 1).with_block_size(bs))
            .unwrap();
        let y = x.multiply(&w_star).unwrap();
        let mut s = session();
        let fit = ridge_regression_gd(&mut s, &x, &y, 0.0, 0.004, 120, 9).unwrap();
        // Loss decreases overall and ends near zero.
        let first = fit.loss[0];
        let last = *fit.loss.last().unwrap();
        assert!(last < first * 1e-3, "loss {first} -> {last}");
        let err = fit.weights.max_abs_diff(&w_star).unwrap();
        assert!(err < 0.05, "weight error {err}");
    }

    #[test]
    fn ridge_regularization_shrinks_weights() {
        let (n, d, bs) = (64u64, 16u64, 16u64);
        let x = MatrixGenerator::with_seed(5)
            .generate(&MatrixMeta::dense(n, d).with_block_size(bs))
            .unwrap();
        let y = MatrixGenerator::with_seed(8)
            .generate(&MatrixMeta::dense(n, 1).with_block_size(bs))
            .unwrap();
        let mut s = session();
        let free = ridge_regression_gd(&mut s, &x, &y, 0.0, 0.002, 80, 3).unwrap();
        let ridge = ridge_regression_gd(&mut s, &x, &y, 5.0, 0.002, 80, 3).unwrap();
        assert!(
            ridge.weights.frobenius_norm() < free.weights.frobenius_norm(),
            "λ must shrink the solution"
        );
    }

    #[test]
    fn ridge_validates_target_shape() {
        let x = MatrixGenerator::with_seed(1)
            .generate(&MatrixMeta::dense(32, 16).with_block_size(16))
            .unwrap();
        let bad_y = MatrixGenerator::with_seed(2)
            .generate(&MatrixMeta::dense(32, 2).with_block_size(16))
            .unwrap();
        let err = ridge_regression_gd(&mut session(), &x, &bad_y, 0.1, 0.01, 3, 1).unwrap_err();
        assert!(matches!(err, JobError::ShapeMismatch { .. }), "{err}");
    }
}

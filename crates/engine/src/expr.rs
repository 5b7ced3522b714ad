//! The matrix-expression API — DistME's user-facing query surface.
//!
//! §5: "it allows users to describe their matrix computation queries
//! (e.g., GNMF) using Scala API. From the query described by users, DistME
//! generates a kind of physical plan that can be executed in either CPU or
//! GPU." Here the query is an [`Expr`] tree; the "plan generation" is the
//! per-operator method selection the session's
//! [`crate::systems::SystemProfile`] performs.
//!
//! ```
//! use distme_engine::expr::Expr;
//! use distme_engine::{RealSession, SystemProfile};
//! use distme_cluster::ClusterConfig;
//! use distme_matrix::{MatrixGenerator, MatrixMeta};
//!
//! let meta = MatrixMeta::dense(64, 64).with_block_size(16);
//! let a = MatrixGenerator::with_seed(1).generate(&meta).unwrap();
//! // Gram matrix: Aᵀ × A
//! let query = Expr::value(a.clone()).t().matmul(Expr::value(a));
//! let mut session = RealSession::new(ClusterConfig::laptop(), SystemProfile::DistMe);
//! let gram = query.eval_real(&mut session).unwrap();
//! assert_eq!(gram.meta().rows, 64);
//! ```

use crate::session::{Ops, SimSession};
use distme_cluster::JobError;
use distme_matrix::elementwise::EwOp;
use distme_matrix::{BlockMatrix, MatrixMeta};
use std::sync::Arc;

/// A lazy matrix expression.
#[derive(Debug, Clone)]
pub enum Expr {
    /// A materialized input matrix (real evaluation; simulation uses its
    /// descriptor).
    Value(Arc<BlockMatrix>),
    /// A virtual input known only by shape (simulation only).
    Virtual(MatrixMeta),
    /// Matrix product.
    MatMul(Box<Expr>, Box<Expr>),
    /// Transpose.
    Transpose(Box<Expr>),
    /// Element-wise combination.
    Elementwise(EwOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Wraps a materialized matrix.
    pub fn value(m: BlockMatrix) -> Expr {
        Expr::Value(Arc::new(m))
    }

    /// Wraps a shared materialized matrix.
    pub fn shared(m: Arc<BlockMatrix>) -> Expr {
        Expr::Value(m)
    }

    /// A virtual input for paper-scale simulation.
    pub fn virtual_input(meta: MatrixMeta) -> Expr {
        Expr::Virtual(meta)
    }

    /// `self × rhs`.
    pub fn matmul(self, rhs: Expr) -> Expr {
        Expr::MatMul(Box::new(self), Box::new(rhs))
    }

    /// `selfᵀ`.
    pub fn t(self) -> Expr {
        Expr::Transpose(Box::new(self))
    }

    /// Hadamard product `self ∗ rhs`.
    pub fn ew_mul(self, rhs: Expr) -> Expr {
        Expr::Elementwise(EwOp::Mul, Box::new(self), Box::new(rhs))
    }

    /// Element-wise division (sparse-safe: `x/0 = 0`).
    pub fn ew_div(self, rhs: Expr) -> Expr {
        Expr::Elementwise(EwOp::Div, Box::new(self), Box::new(rhs))
    }

    /// Element-wise sum.
    pub fn ew_add(self, rhs: Expr) -> Expr {
        Expr::Elementwise(EwOp::Add, Box::new(self), Box::new(rhs))
    }

    /// Element-wise difference.
    pub fn ew_sub(self, rhs: Expr) -> Expr {
        Expr::Elementwise(EwOp::Sub, Box::new(self), Box::new(rhs))
    }

    /// Number of operator nodes (excluding inputs).
    pub fn num_operators(&self) -> usize {
        match self {
            Expr::Value(_) | Expr::Virtual(_) => 0,
            Expr::Transpose(x) => 1 + x.num_operators(),
            Expr::MatMul(a, b) | Expr::Elementwise(_, a, b) => {
                1 + a.num_operators() + b.num_operators()
            }
        }
    }

    /// Evaluates with real blocks on any real [`Ops`] session — a
    /// [`RealSession`](crate::session::RealSession) or a job-service
    /// tenant's (post-order; each multiply is planned by the session's
    /// profile).
    ///
    /// # Errors
    /// [`JobError::InvalidSubmission`] on a virtual input; shape mismatches
    /// and cluster failures.
    pub fn eval_real<S: Ops>(&self, session: &mut S) -> Result<BlockMatrix, JobError> {
        self.eval(session, &|blocks, _| {
            blocks.cloned().ok_or_else(|| JobError::InvalidSubmission {
                reason: "virtual inputs cannot be evaluated for real".into(),
            })
        })
    }

    /// Evaluates shapes/costs on a [`SimSession`] at paper scale.
    ///
    /// # Errors
    /// Propagates simulated failure modes (O.O.M. / T.O. / E.D.C.).
    pub fn eval_sim(&self, session: &mut SimSession) -> Result<MatrixMeta, JobError> {
        self.eval(session, &|_, meta| Ok(*meta))
    }

    /// The one evaluator: post-order over the tree, `leaf` turning an
    /// input — its blocks when materialized, always its descriptor — into
    /// what flows on `session`.
    fn eval<M, S: Ops<M>>(
        &self,
        session: &mut S,
        leaf: &impl Fn(Option<&BlockMatrix>, &MatrixMeta) -> Result<M, JobError>,
    ) -> Result<M, JobError> {
        match self {
            Expr::Value(m) => leaf(Some(m), m.meta()),
            Expr::Virtual(meta) => leaf(None, meta),
            Expr::MatMul(a, b) => {
                let (a, b) = (a.eval(session, leaf)?, b.eval(session, leaf)?);
                session.matmul(&a, &b)
            }
            Expr::Transpose(x) => {
                let x = x.eval(session, leaf)?;
                session.transpose(&x)
            }
            Expr::Elementwise(op, a, b) => {
                let (a, b) = (a.eval(session, leaf)?, b.eval(session, leaf)?);
                session.elementwise(&a, *op, &b)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::RealSession;
    use crate::systems::SystemProfile;
    use distme_cluster::ClusterConfig;
    use distme_matrix::MatrixGenerator;

    fn matrix(rows: u64, cols: u64, seed: u64) -> BlockMatrix {
        let meta = MatrixMeta::dense(rows, cols).with_block_size(16);
        MatrixGenerator::with_seed(seed).generate(&meta).unwrap()
    }

    #[test]
    fn gram_matrix_expression() {
        let a = matrix(48, 32, 1);
        let expect = a.transpose().multiply(&a).unwrap();
        let shared = Arc::new(a);
        let q = Expr::shared(Arc::clone(&shared))
            .t()
            .matmul(Expr::shared(shared));
        assert_eq!(q.num_operators(), 2);
        let mut s = RealSession::new(ClusterConfig::laptop(), SystemProfile::DistMe);
        let got = q.eval_real(&mut s).unwrap();
        assert!(got.max_abs_diff(&expect).unwrap() < 1e-9);
        // The simulated face is the same evaluator: one operator per node.
        let mut sim = SimSession::new(ClusterConfig::paper_cluster(), SystemProfile::DistMe);
        assert_eq!(q.eval_sim(&mut sim).unwrap(), *got.meta());
        assert_eq!((sim.ops_run(), s.ops_run()), (2, 2));
    }

    #[test]
    fn elementwise_and_operator_count() {
        let a = matrix(32, 32, 2);
        let b = matrix(32, 32, 3);
        let q = Expr::value(a.clone())
            .ew_mul(Expr::value(b.clone()))
            .ew_add(Expr::value(a.clone()));
        assert_eq!(q.num_operators(), 2);
        let mut s = RealSession::new(ClusterConfig::laptop(), SystemProfile::DistMe);
        let got = q.eval_real(&mut s).unwrap();
        let want = a
            .elementwise(EwOp::Mul, &b)
            .unwrap()
            .elementwise(EwOp::Add, &a)
            .unwrap();
        assert!(got.max_abs_diff(&want).unwrap() < 1e-12);
    }

    #[test]
    fn sim_eval_tracks_shapes_and_costs() {
        let v = Expr::virtual_input(MatrixMeta::dense(50_000, 20_000));
        let w = Expr::virtual_input(MatrixMeta::dense(50_000, 200));
        let q = w.t().matmul(v); // 200 x 20_000
        let mut s = SimSession::new(ClusterConfig::paper_cluster(), SystemProfile::DistMe);
        let out = q.eval_sim(&mut s).unwrap();
        assert_eq!((out.rows, out.cols), (200, 20_000));
        assert!(s.stats().elapsed_secs > 0.0);
        assert_eq!(s.ops_run(), 2);
    }

    #[test]
    fn virtual_inputs_rejected_in_real_mode() {
        let q = Expr::virtual_input(MatrixMeta::dense(10, 10));
        let mut s = RealSession::new(ClusterConfig::laptop(), SystemProfile::DistMe);
        let err = q.eval_real(&mut s).unwrap_err();
        assert!(matches!(err, JobError::InvalidSubmission { .. }), "{err}");
    }
}

//! Distributed matrix-multiplication methods.
//!
//! §3.1: "CuboidMM is a generalization of the existing three methods, BMM,
//! CPMM, and RMM, and so, can perform matrix multiplication like either
//! BMM, CPMM, or RMM by changing the parameters P, Q, and R." Each method
//! resolves to a [`ResolvedMethod`]: a cuboid grid plus the flags that
//! distinguish the originals (BMM broadcasts B; RMM hashes voxels with no
//! communication sharing; CRMM pays an extra shuffle to form logical
//! blocks).

use crate::cuboid::CuboidSpec;
use crate::optimizer::{self, OptimizerConfig};
use crate::problem::MatmulProblem;

/// Method selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MulMethod {
    /// Broadcast MM (§2.2.1): row-partition A, broadcast B, `T = I` tasks.
    Bmm,
    /// Cross-product MM (§2.2.2): column-partition A, row-partition B,
    /// outer products, `T = K` tasks.
    Cpmm,
    /// Replication-based MM (§2.2.3): voxel-level replication with hash
    /// partitioning; the paper's best setting `T = I·J`.
    Rmm,
    /// CuboidMM with explicit parameters.
    Cuboid(CuboidSpec),
    /// CuboidMM with `(P*, Q*, R*)` from the §3.2 optimizer.
    CuboidAuto,
    /// Marlin's CRMM (§7): RMM over larger *cubic* logical blocks formed by
    /// an extra shuffle.
    Crmm,
    /// Sampled dense–dense MM: row-partition the dense left factor,
    /// broadcast the dense right factor, and gather each task's output into
    /// the row-stripe of a stationary CSR mask (the mask never moves — it
    /// is sharded by rows exactly like A, so sampling is node-local).
    Sddmm,
    /// Sparse × dense MM with the sparse operand sharded by rows and the
    /// dense factor's row panels rotated through the shuffle (the
    /// shift-based schedule of distributed SpMM; communication-wise a
    /// row-partitioned cuboid whose B panels repartition instead of
    /// broadcast).
    SpmmShift,
}

impl MulMethod {
    /// Display name used in figures.
    pub fn name(&self) -> &'static str {
        match self {
            MulMethod::Bmm => "BMM",
            MulMethod::Cpmm => "CPMM",
            MulMethod::Rmm => "RMM",
            MulMethod::Cuboid(_) => "CuboidMM",
            MulMethod::CuboidAuto => "CuboidMM",
            MulMethod::Crmm => "CRMM",
            MulMethod::Sddmm => "SDDMM",
            MulMethod::SpmmShift => "SpMM-shift",
        }
    }
}

/// A method resolved against a concrete problem: everything the executors
/// need to build the three-step pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResolvedMethod {
    /// Which method this came from.
    pub method: MulMethod,
    /// The cuboid grid shaping communication and computation.
    pub spec: CuboidSpec,
    /// Local-multiplication task count. Equal to the number of non-empty
    /// cuboids, except for RMM/CRMM where voxels are *hash-grouped* into
    /// this many tasks.
    pub tasks: u64,
    /// B is distributed by torrent broadcast instead of shuffle (BMM).
    pub broadcast_b: bool,
    /// Voxels are hashed to tasks with no consecutive-voxel communication
    /// sharing (RMM/CRMM): every voxel fetches its own A and B copies.
    pub voxel_hash: bool,
    /// Extra bytes shuffled before repartition (CRMM's logical-block
    /// formation: one full pass over A and B).
    pub pre_shuffle_bytes: u64,
    /// Whether a local-mult task holds its *entire* intermediate-C output
    /// resident (Table 2's `|C|` term for CPMM). DistME streams output
    /// blocks into the shuffle as they are produced, so this is false by
    /// default; the SystemML/MatFast profiles set it — which is exactly
    /// why MatFast's GNMF O.O.M.s at factor dimensions ≥ 500 (Fig. 8(d))
    /// while DistME does not.
    pub output_resident: bool,
    /// Serialized-size overhead of the system's shuffle format relative to
    /// DistME's SparkSQL-style columnar codec (§5: DistME "exploits the
    /// data serialization ... of SparkSQL to reduce the amount of shuffled
    /// data"). 1.0 for DistME; the legacy profiles use Java-serialized
    /// block records at ~1.6x.
    pub ser_overhead: f64,
    /// Whether the planner may keep an operator on the CPU when the GPU's
    /// estimated time (PCI-E + kernels) is worse (§5's CPU-or-GPU physical
    /// plans). The GPU ports the paper grafted onto SystemML/MatFast run
    /// every multiplication on the device unconditionally.
    pub gpu_cost_based: bool,
}

impl ResolvedMethod {
    /// Marks this resolution as holding task outputs resident (legacy
    /// SystemML/MatFast execution semantics).
    pub fn with_resident_output(mut self) -> Self {
        self.output_resident = true;
        self
    }

    /// Sets the serialized-size overhead factor (builder style).
    pub fn with_ser_overhead(mut self, factor: f64) -> Self {
        self.ser_overhead = factor;
        self
    }

    /// Forces every operator onto the GPU when one is present (builder
    /// style) — legacy GPU-port semantics.
    pub fn with_unconditional_gpu(mut self) -> Self {
        self.gpu_cost_based = false;
        self
    }

    /// The base resolution every method starts from: a plain `spec` grid,
    /// one task per cuboid, shuffled operands, streamed output, DistME's
    /// codec and cost-based GPU placement.
    fn grid(method: MulMethod, spec: CuboidSpec) -> Self {
        ResolvedMethod {
            method,
            spec,
            tasks: spec.count(),
            broadcast_b: false,
            voxel_hash: false,
            pre_shuffle_bytes: 0,
            output_resident: false,
            ser_overhead: 1.0,
            gpu_cost_based: true,
        }
    }

    /// Resolves `method` for `problem` under the optimizer inputs: the
    /// method's `(P, Q, R)` on the base grid, plus what sets it apart.
    ///
    /// Never fails: when the CuboidMM optimizer finds no feasible
    /// parameters, the minimum-memory spec `(I, J, K)` is returned and the
    /// executor reports the O.O.M. (matching how the real systems fail at
    /// run time rather than plan time).
    pub fn resolve(method: MulMethod, problem: &MatmulProblem, cfg: &OptimizerConfig) -> Self {
        let (i, j, k) = problem.dims();
        let grid = |p, q, r| Self::grid(method, CuboidSpec::new(p, q, r));
        match method {
            // SDDMM is communication-shaped like BMM — row-stripes of the
            // dense left factor stay put, the dense right factor torrents
            // to every task — while the mask rides with A's row partition
            // and never crosses the wire.
            MulMethod::Bmm | MulMethod::Sddmm => ResolvedMethod {
                broadcast_b: true,
                ..grid(i, 1, 1)
            },
            MulMethod::Cpmm => grid(1, 1, k),
            MulMethod::Rmm => ResolvedMethod {
                // §6.2: "we set T = I·J for RMM, which is the best setting
                // in terms of the aggregation performance".
                tasks: i as u64 * j as u64,
                voxel_hash: true,
                ..grid(i, j, k)
            },
            MulMethod::Cuboid(spec) => grid(spec.p.min(i), spec.q.min(j), spec.r.min(k)),
            MulMethod::CuboidAuto => match optimizer::optimize(problem, cfg) {
                Some(optimum) => Self::grid(method, optimum.spec),
                None => grid(i, j, k),
            },
            // Shift-SpMM keeps the sparse operand's row-stripes stationary
            // and repartitions the dense factor's row panels to the stripe
            // that needs them — the shuffle-based rendering of the rotation
            // schedule (each task still sees every panel exactly once).
            MulMethod::SpmmShift => grid(i, 1, 1),
            MulMethod::Crmm => {
                // Cubic logical blocks: the smallest side s with s^3 >= M·Tc
                // parallelism, clamped to the model dims. Logical blocks
                // *do* share communication within a cube (CRMM's
                // improvement over RMM — no voxel hash); its remaining
                // handicaps are the cubic shape and the re-blocking
                // shuffle, one pass over both inputs.
                let mut s = 1u32;
                while (s as u64).pow(3) < cfg.min_parallelism {
                    s += 1;
                }
                ResolvedMethod {
                    pre_shuffle_bytes: problem.a.total_bytes() + problem.b.total_bytes(),
                    ..grid(s.min(i), s.min(j), s.min(k))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> OptimizerConfig {
        OptimizerConfig {
            task_mem_bytes: 6_000_000_000,
            min_parallelism: 90,
        }
    }

    fn problem() -> MatmulProblem {
        MatmulProblem::dense(70_000, 70_000, 70_000)
    }

    #[test]
    fn bmm_resolves_to_row_partition_with_broadcast() {
        let r = ResolvedMethod::resolve(MulMethod::Bmm, &problem(), &cfg());
        assert_eq!(r.spec, CuboidSpec::new(70, 1, 1));
        assert_eq!(r.tasks, 70);
        assert!(r.broadcast_b);
        assert!(!r.voxel_hash);
    }

    #[test]
    fn cpmm_resolves_to_k_outer_products() {
        let r = ResolvedMethod::resolve(MulMethod::Cpmm, &problem(), &cfg());
        assert_eq!(r.spec, CuboidSpec::new(1, 1, 70));
        assert_eq!(r.tasks, 70);
        assert!(!r.broadcast_b);
    }

    #[test]
    fn rmm_hashes_voxels_into_ij_tasks() {
        let r = ResolvedMethod::resolve(MulMethod::Rmm, &problem(), &cfg());
        assert_eq!(r.spec, CuboidSpec::new(70, 70, 70));
        assert_eq!(r.tasks, 4900);
        assert!(r.voxel_hash);
    }

    #[test]
    fn auto_uses_the_optimizer() {
        let r = ResolvedMethod::resolve(MulMethod::CuboidAuto, &problem(), &cfg());
        assert!(r.spec.count() >= 90);
        let mem = optimizer::mem_bytes(&problem(), r.spec);
        assert!(mem <= cfg().task_mem_bytes);
    }

    #[test]
    fn auto_degrades_to_voxel_grid_when_infeasible() {
        let tiny = OptimizerConfig {
            task_mem_bytes: 1, // nothing fits
            min_parallelism: 1,
        };
        let r = ResolvedMethod::resolve(MulMethod::CuboidAuto, &problem(), &tiny);
        assert_eq!(r.spec, CuboidSpec::new(70, 70, 70));
    }

    #[test]
    fn explicit_spec_is_clamped_to_dims() {
        let r = ResolvedMethod::resolve(
            MulMethod::Cuboid(CuboidSpec::new(500, 2, 3)),
            &problem(),
            &cfg(),
        );
        assert_eq!(r.spec.p, 70);
        assert_eq!(r.tasks, r.spec.count());
    }

    #[test]
    fn crmm_builds_cubic_grid_with_pre_shuffle() {
        let r = ResolvedMethod::resolve(MulMethod::Crmm, &problem(), &cfg());
        assert_eq!(r.spec.p, r.spec.q);
        assert_eq!(r.spec.q, r.spec.r);
        assert!(r.spec.count() >= 90);
        assert!(!r.voxel_hash);
        let expected = problem().a.total_bytes() + problem().b.total_bytes();
        assert_eq!(r.pre_shuffle_bytes, expected);
    }

    #[test]
    fn sddmm_resolves_like_bmm_over_the_mask_rows() {
        use distme_matrix::MatrixMeta;
        let p = MatmulProblem::sddmm(
            MatrixMeta::dense(70_000, 200),
            MatrixMeta::dense(200, 50_000),
            MatrixMeta::sparse(70_000, 50_000, 0.01),
        )
        .unwrap();
        let r = ResolvedMethod::resolve(MulMethod::Sddmm, &p, &cfg());
        assert_eq!(r.spec, CuboidSpec::new(70, 1, 1));
        assert_eq!(r.tasks, 70);
        assert!(r.broadcast_b, "right factor torrents like BMM");
        assert!(!r.voxel_hash);
        assert_eq!(r.pre_shuffle_bytes, 0, "mask never crosses the wire");
    }

    #[test]
    fn spmm_shift_row_shards_without_broadcast() {
        use distme_matrix::MatrixMeta;
        let p = MatmulProblem::new(
            MatrixMeta::sparse(70_000, 70_000, 0.001),
            MatrixMeta::dense(70_000, 200),
        )
        .unwrap();
        let r = ResolvedMethod::resolve(MulMethod::SpmmShift, &p, &cfg());
        assert_eq!(r.spec, CuboidSpec::new(70, 1, 1));
        assert_eq!(r.tasks, 70);
        assert!(!r.broadcast_b, "dense panels repartition, not broadcast");
        assert!(!r.voxel_hash);
    }

    #[test]
    fn names() {
        assert_eq!(MulMethod::Bmm.name(), "BMM");
        assert_eq!(MulMethod::CuboidAuto.name(), "CuboidMM");
        assert_eq!(MulMethod::Crmm.name(), "CRMM");
        assert_eq!(MulMethod::Sddmm.name(), "SDDMM");
        assert_eq!(MulMethod::SpmmShift.name(), "SpMM-shift");
    }
}

//! `(P, Q, R)`-cuboid partitioning of the 3-dimensional model (§3.1).
//!
//! The model space is cut into `P × Q × R` axis-aligned chunks of voxels.
//! Each (non-empty) cuboid `D(p,q,r)` is processed by one task; inside a
//! cuboid, consecutive voxels share communication: the A blocks are fetched
//! once per cuboid instead of once per voxel (Fig. 3(b), cases 1–3).

use crate::problem::MatmulProblem;
use distme_matrix::BlockId;

/// The partitioning parameters `(P, Q, R)` — numbers of partitions along
/// the i-, j-, and k-axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CuboidSpec {
    /// Partitions along the i-axis (`0 < P ≤ I`).
    pub p: u32,
    /// Partitions along the j-axis (`0 < Q ≤ J`).
    pub q: u32,
    /// Partitions along the k-axis (`0 < R ≤ K`).
    pub r: u32,
}

impl CuboidSpec {
    /// Creates a spec; the caller is responsible for `0 < P ≤ I` etc.
    /// (checked by [`CuboidGrid::new`]).
    pub const fn new(p: u32, q: u32, r: u32) -> Self {
        CuboidSpec { p, q, r }
    }

    /// Total cuboids, `P · Q · R`.
    pub fn count(&self) -> u64 {
        self.p as u64 * self.q as u64 * self.r as u64
    }
}

impl std::fmt::Display for CuboidSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {}, {})", self.p, self.q, self.r)
    }
}

/// One cuboid `D(p,q,r)`: a box of voxels with concrete block ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cuboid {
    /// Grid position along the i-axis.
    pub p: u32,
    /// Grid position along the j-axis.
    pub q: u32,
    /// Grid position along the k-axis.
    pub r: u32,
    /// Block-row range `[i0, i1)` of A and C covered by this cuboid.
    pub i0: u32,
    /// End of the i range (exclusive).
    pub i1: u32,
    /// Block-column range `[j0, j1)` of B and C.
    pub j0: u32,
    /// End of the j range (exclusive).
    pub j1: u32,
    /// Block range `[k0, k1)` along the common dimension.
    pub k0: u32,
    /// End of the k range (exclusive).
    pub k1: u32,
}

impl Cuboid {
    /// Blocks of A this cuboid reads: `(i1−i0) · (k1−k0)`.
    pub fn a_blocks(&self) -> u64 {
        (self.i1 - self.i0) as u64 * (self.k1 - self.k0) as u64
    }

    /// Blocks of B this cuboid reads.
    pub fn b_blocks(&self) -> u64 {
        (self.k1 - self.k0) as u64 * (self.j1 - self.j0) as u64
    }

    /// Blocks of C this cuboid produces (intermediate when `R > 1`).
    pub fn c_blocks(&self) -> u64 {
        (self.i1 - self.i0) as u64 * (self.j1 - self.j0) as u64
    }

    /// Voxels inside the cuboid.
    pub fn voxels(&self) -> u64 {
        self.a_blocks() * (self.j1 - self.j0) as u64
    }

    /// True when the cuboid covers no voxels (happens at the grid edge when
    /// `⌈I/P⌉ · P > I`).
    pub fn is_empty(&self) -> bool {
        self.i0 >= self.i1 || self.j0 >= self.j1 || self.k0 >= self.k1
    }

    /// Extents in blocks: `(I', J', K')` in Algorithm 1's notation.
    pub fn extents(&self) -> (u32, u32, u32) {
        (self.i1 - self.i0, self.j1 - self.j0, self.k1 - self.k0)
    }

    /// Iterates the A-block ids the cuboid reads.
    pub fn a_block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        let (j0, j1) = (self.k0, self.k1);
        (self.i0..self.i1).flat_map(move |i| (j0..j1).map(move |k| BlockId::new(i, k)))
    }

    /// Iterates the B-block ids the cuboid reads.
    pub fn b_block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        let (j0, j1) = (self.j0, self.j1);
        (self.k0..self.k1).flat_map(move |k| (j0..j1).map(move |j| BlockId::new(k, j)))
    }

    /// Iterates the C-block ids the cuboid produces.
    pub fn c_block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        let (j0, j1) = (self.j0, self.j1);
        (self.i0..self.i1).flat_map(move |i| (j0..j1).map(move |j| BlockId::new(i, j)))
    }
}

/// The full cuboid decomposition of a problem.
#[derive(Debug, Clone, Copy)]
pub struct CuboidGrid {
    /// Problem dimensions `(I, J, K)` in blocks.
    pub dims: (u32, u32, u32),
    /// The partitioning parameters.
    pub spec: CuboidSpec,
    /// Cuboid extents `⌈I/P⌉ × ⌈J/Q⌉ × ⌈K/R⌉`.
    widths: (u32, u32, u32),
}

impl CuboidGrid {
    /// Builds the grid for `problem` under `spec`.
    ///
    /// # Panics
    /// Panics when the spec violates `0 < P ≤ I`, `0 < Q ≤ J`, `0 < R ≤ K`
    /// (the optimizer never produces such specs; manual specs are
    /// programmer input).
    pub fn new(problem: &MatmulProblem, spec: CuboidSpec) -> Self {
        let (i, j, k) = problem.dims();
        assert!(
            spec.p >= 1 && spec.p <= i && spec.q >= 1 && spec.q <= j && spec.r >= 1 && spec.r <= k,
            "spec {spec} out of range for dims ({i}, {j}, {k})"
        );
        CuboidGrid {
            dims: (i, j, k),
            spec,
            widths: (i.div_ceil(spec.p), j.div_ceil(spec.q), k.div_ceil(spec.r)),
        }
    }

    /// The cuboid at grid position `(p, q, r)` (possibly empty at edges).
    pub fn cuboid(&self, p: u32, q: u32, r: u32) -> Cuboid {
        let (i, j, k) = self.dims;
        let (wi, wj, wk) = self.widths;
        Cuboid {
            p,
            q,
            r,
            i0: (p * wi).min(i),
            i1: ((p + 1) * wi).min(i),
            j0: (q * wj).min(j),
            j1: ((q + 1) * wj).min(j),
            k0: (r * wk).min(k),
            k1: ((r + 1) * wk).min(k),
        }
    }

    /// Iterates the non-empty cuboids in `(p, q, r)` lexicographic order —
    /// one task each.
    pub fn cuboids(&self) -> impl Iterator<Item = Cuboid> + '_ {
        let spec = self.spec;
        (0..spec.p)
            .flat_map(move |p| {
                (0..spec.q).flat_map(move |q| (0..spec.r).map(move |r| self.cuboid(p, q, r)))
            })
            .filter(|c| !c.is_empty())
    }

    /// Number of non-empty cuboids (= tasks).
    pub fn task_count(&self) -> usize {
        self.cuboids().count()
    }

    /// Copies of each C block shuffled in aggregation: `R` (Fig. 3(b)
    /// case 3; each A block is likewise read by `Q` cuboids, each B block
    /// by `P`).
    pub fn c_replication(&self) -> u32 {
        self.spec.r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distme_matrix::MatrixMeta;

    /// The running example of Fig. 3(a): A is 4x8 blocks, B is 8x6 blocks,
    /// (2,2,2)-cuboid partitioning.
    fn fig3_grid() -> CuboidGrid {
        let a = MatrixMeta::dense(4, 8).with_block_size(1);
        let b = MatrixMeta::dense(8, 6).with_block_size(1);
        let p = MatmulProblem::new(a, b).unwrap();
        CuboidGrid::new(&p, CuboidSpec::new(2, 2, 2))
    }

    #[test]
    fn fig3_cuboid_shape() {
        let g = fig3_grid();
        // "a cuboid in Figure 3(a) consists of 2 x 3 x 4 voxels".
        let d = g.cuboid(0, 0, 0);
        assert_eq!(d.extents(), (2, 3, 4));
        assert_eq!(d.voxels(), 24);
        assert_eq!(d.a_blocks(), 8); // 2 x 4 blocks of A
        assert_eq!(d.b_blocks(), 12); // 4 x 3 blocks of B
        assert_eq!(d.c_blocks(), 6); // 2 x 3 intermediate C blocks
        assert_eq!(g.task_count(), 8);
    }

    #[test]
    fn cuboids_tile_the_model_exactly() {
        let g = fig3_grid();
        let total_voxels: u64 = g.cuboids().map(|c| c.voxels()).sum();
        assert_eq!(total_voxels, 4 * 6 * 8);
        // Every A block is read by exactly Q = 2 cuboids.
        let a_reads: u64 = g.cuboids().map(|c| c.a_blocks()).sum();
        assert_eq!(a_reads, 4 * 8 * 2);
        let b_reads: u64 = g.cuboids().map(|c| c.b_blocks()).sum();
        // ...and every B block by exactly P = 2.
        assert_eq!(b_reads, 8 * 6 * 2);
        let c_writes: u64 = g.cuboids().map(|c| c.c_blocks()).sum();
        assert_eq!(c_writes, 4 * 6 * g.c_replication() as u64);
    }

    #[test]
    fn degenerate_specs_match_named_methods() {
        // §3.1: (4,1,1) works like BMM, (1,1,8) like CPMM, (4,6,8) like RMM.
        let a = MatrixMeta::dense(4, 8).with_block_size(1);
        let b = MatrixMeta::dense(8, 6).with_block_size(1);
        let p = MatmulProblem::new(a, b).unwrap();

        let bmm = CuboidGrid::new(&p, CuboidSpec::new(4, 1, 1));
        assert_eq!(bmm.task_count(), 4);
        assert_eq!(bmm.cuboid(0, 0, 0).a_blocks(), 8); // one block-row of A
        assert_eq!(bmm.cuboid(0, 0, 0).b_blocks(), 48); // all of B

        let cpmm = CuboidGrid::new(&p, CuboidSpec::new(1, 1, 8));
        assert_eq!(cpmm.task_count(), 8);
        assert_eq!(cpmm.cuboid(0, 0, 0).a_blocks(), 4); // one block-col of A
        assert_eq!(cpmm.cuboid(0, 0, 0).c_blocks(), 24); // all of C

        let rmm = CuboidGrid::new(&p, CuboidSpec::new(4, 6, 8));
        assert_eq!(rmm.task_count(), 192); // one voxel per task
        assert_eq!(rmm.cuboid(0, 0, 0).voxels(), 1);
    }

    #[test]
    fn ragged_grids_produce_partial_and_empty_cuboids() {
        let a = MatrixMeta::dense(5, 2).with_block_size(1);
        let b = MatrixMeta::dense(2, 3).with_block_size(1);
        let p = MatmulProblem::new(a, b).unwrap();
        // P = 3 over I = 5: widths ceil(5/3) = 2 => rows {0,1},{2,3},{4}.
        let g = CuboidGrid::new(&p, CuboidSpec::new(3, 1, 1));
        let cs: Vec<_> = g.cuboids().collect();
        assert_eq!(cs.len(), 3);
        assert_eq!(cs[0].extents().0, 2);
        assert_eq!(cs[2].extents().0, 1);
        // P = 4 over I = 5: widths 2 => 3 non-empty cuboids, one empty.
        let g = CuboidGrid::new(&p, CuboidSpec::new(4, 1, 1));
        assert_eq!(g.task_count(), 3);
        let total: u64 = g.cuboids().map(|c| c.voxels()).sum();
        assert_eq!(total, p.voxels());
    }

    #[test]
    fn block_id_iterators_match_counts() {
        let g = fig3_grid();
        let d = g.cuboid(1, 1, 1);
        assert_eq!(d.a_block_ids().count() as u64, d.a_blocks());
        assert_eq!(d.b_block_ids().count() as u64, d.b_blocks());
        assert_eq!(d.c_block_ids().count() as u64, d.c_blocks());
        // The A ids live in the cuboid's (i, k) ranges.
        for id in d.a_block_ids() {
            assert!(id.row >= d.i0 && id.row < d.i1);
            assert!(id.col >= d.k0 && id.col < d.k1);
        }
        // B ids are indexed (k, j).
        for id in d.b_block_ids() {
            assert!(id.row >= d.k0 && id.row < d.k1);
            assert!(id.col >= d.j0 && id.col < d.j1);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_spec_rejected() {
        let a = MatrixMeta::dense(4, 8).with_block_size(1);
        let b = MatrixMeta::dense(8, 6).with_block_size(1);
        let p = MatmulProblem::new(a, b).unwrap();
        let _ = CuboidGrid::new(&p, CuboidSpec::new(5, 1, 1));
    }

    #[test]
    fn spec_display_and_count() {
        let s = CuboidSpec::new(2, 3, 4);
        assert_eq!(s.to_string(), "(2, 3, 4)");
        assert_eq!(s.count(), 24);
    }
}

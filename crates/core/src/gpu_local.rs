//! Algorithm 1 — GPU-accelerated local multiplication of one cuboid
//! (§4.3–4.4), and the only dense cuboid body the engine has.
//!
//! Two faces of the same schedule:
//!
//! * [`plan_work`] derives the aggregate device work ([`GpuWork`]) the
//!   schedule performs — H2D volume `Q2·|Am| + P2·|Bm|` (every subcuboid
//!   copies its A side; B blocks stream per-stream), one D2H of `|Cm|`
//!   (line 19–21: only the last k-iteration copies C back), `I'·J'·K'`
//!   kernel launches, `J'` streams. The simulated executor feeds this to
//!   the shared [`distme_gpu::GpuDevice`].
//! * [`execute_cuboid_real`] *runs* the schedule with real blocks (kernels
//!   execute on the CPU standing in for `cublasDgemm`/`cusparseDcsrmm`),
//!   iterating subcuboids in `(p2, q2, r2)` order and keeping the `C'`
//!   accumulator resident across the k-axis. A cluster without a device is
//!   the case where the whole cuboid is one subcuboid, so every dense mult
//!   task of the real executor runs this loop: with or without θg each
//!   output cell is one `multiply_accumulate` chain over k ascending from
//!   a zero block, which is why the product's bits cannot depend on θg. A
//!   k step whose B row holds a sparse block transposes each of its dense
//!   A blocks once, and the dense × sparse pairs of the step read that
//!   `Aᵀ` — the same kernel `multiply_accumulate` runs, so the same bits.

use crate::cuboid::Cuboid;
use crate::problem::MatmulProblem;
use crate::subcuboid::{self, CuboidSides, SubcuboidSpec};
use distme_cluster::{BlockSource, TaskError};
use distme_gpu::GpuWork;
use distme_matrix::{kernels, Block, BlockId, DenseBlock};
use std::sync::Arc;

/// Plans the device work for a cuboid of the given sides under θg.
///
/// Returns `None` when no subcuboid decomposition fits the GPU budget (the
/// task must fall back to the CPU kernel).
pub fn plan_work(
    sides: &CuboidSides,
    gpu_task_mem_bytes: u64,
    flops: f64,
    sparse: bool,
) -> Option<(SubcuboidSpec, GpuWork)> {
    let (spec, pcie_in) = subcuboid::optimize(sides, gpu_task_mem_bytes)?;
    let (i, j, k) = sides.extents;
    let voxels = i as u64 * j as u64 * k as u64;
    let h2d_bytes = pcie_in - sides.c_bytes();
    let work = GpuWork {
        h2d_bytes,
        d2h_bytes: sides.c_bytes(),
        dense_flops: if sparse { 0.0 } else { flops },
        sparse_flops: if sparse { flops } else { 0.0 },
        kernel_calls: voxels,
        streams: j.div_ceil(spec.q2) as usize,
    };
    Some((spec, work))
}

/// Result of running Algorithm 1 on real blocks.
#[derive(Debug)]
pub struct CuboidGpuResult {
    /// Intermediate C blocks produced by this cuboid (block id → content).
    pub blocks: Vec<(BlockId, DenseBlock)>,
    /// Subcuboid iterations performed (`P2 · Q2 · R2`).
    pub iterations: u64,
    /// Kernel invocations (block-pair products).
    pub kernel_calls: u64,
    /// The chosen subcuboid partitioning.
    pub spec: SubcuboidSpec,
}

/// Executes Algorithm 1 for `cuboid` against real operand blocks resolved
/// through any [`BlockSource`] — a locality-enforcing per-node store view
/// on the distributed path, or a plain `BlockMatrix` on single-node call
/// paths.
///
/// `gpu_task_mem_bytes` is θg; `None` (no device) walks the cuboid as the
/// single subcuboid `(1, 1, 1)`. `on_panel(p)` is called once per k step
/// `k0 + p`, ascending, the first time the walk reaches that step and
/// before any block of it is read — the caller makes the panel readable
/// there, so a panel is accumulated as it lands.
///
/// Blocks absent from sparse operands are treated as zero (their kernels
/// are skipped, like a csrmm on an empty block). The `C'` accumulator for
/// a `(p2, q2)` cell stays "device-resident" across the `r2` iterations and
/// is emitted once at `r2 = R2 − 1`, exactly as lines 19–21 copy `BufC`
/// back on the last k-subcuboid.
///
/// # Errors
/// Returns [`TaskError::OutOfMemory`] when even single-voxel subcuboids
/// exceed θg, and propagates `on_panel`'s errors and the source's locality
/// errors ([`TaskError::MissingBlock`]).
pub fn execute_cuboid_real<A: BlockSource, B: BlockSource>(
    cuboid: &Cuboid,
    a: &A,
    b: &B,
    problem: &MatmulProblem,
    gpu_task_mem_bytes: Option<u64>,
    mut on_panel: impl FnMut(usize) -> Result<(), TaskError>,
) -> Result<CuboidGpuResult, TaskError> {
    let c_meta = &problem.c;
    let (ie, je, ke) = cuboid.extents();
    let spec = match gpu_task_mem_bytes {
        None => SubcuboidSpec {
            p2: 1,
            q2: 1,
            r2: 1,
        },
        Some(budget) => {
            let sides = CuboidSides::of(
                cuboid,
                problem.a.block_bytes(),
                problem.b.block_bytes(),
                c_meta.block_bytes(),
            );
            let single_voxels = SubcuboidSpec {
                p2: ie,
                q2: je,
                r2: ke,
            };
            let fits = subcuboid::optimize(&sides, budget).ok_or(TaskError::OutOfMemory {
                needed: subcuboid::mem_bytes(&sides, single_voxels),
                budget,
            })?;
            fits.0
        }
    };
    let (wi, wj, wk) = (
        ie.div_ceil(spec.p2),
        je.div_ceil(spec.q2),
        ke.div_ceil(spec.r2),
    );

    let mut out: Vec<(BlockId, DenseBlock)> = Vec::new();
    let mut iterations = 0u64;
    let mut kernel_calls = 0u64;

    // Algorithm 1 line 4: subcuboids sorted by (p2, q2, r2) — for a fixed
    // (p2, q2) the r2 axis is innermost, so C' accumulates in place.
    for p2 in 0..spec.p2 {
        for q2 in 0..spec.q2 {
            let i_lo = cuboid.i0 + p2 * wi;
            let i_hi = (i_lo + wi).min(cuboid.i1);
            let j_lo = cuboid.j0 + q2 * wj;
            let j_hi = (j_lo + wj).min(cuboid.j1);
            if i_lo >= i_hi || j_lo >= j_hi {
                continue;
            }
            // BufC: accumulators for this (p2, q2) cell, "in GPU memory".
            let nj = (j_hi - j_lo) as usize;
            let mut bufc: Vec<Option<DenseBlock>> = vec![None; (i_hi - i_lo) as usize * nj];

            for r2 in 0..spec.r2 {
                let k_lo = cuboid.k0 + r2 * wk;
                let k_hi = (k_lo + wk).min(cuboid.k1);
                if k_lo >= k_hi {
                    continue;
                }
                iterations += 1;
                // Lines 13–18: per k step, the subcuboid's A column and B
                // row, then one kernel per block pair: the dense pairs all
                // in one shared-panel `gemm_step`, the others one by one.
                for k in k_lo..k_hi {
                    // The first cell walks every k step, in order; later
                    // cells find the panels landed.
                    if (p2, q2) == (0, 0) {
                        on_panel((k - cuboid.k0) as usize)?;
                    }
                    let a_col: Vec<_> = (i_lo..i_hi)
                        .map(|i| a.block(i, k))
                        .collect::<Result<_, _>>()?;
                    let b_row: Vec<_> = (j_lo..j_hi)
                        .map(|j| b.block(k, j))
                        .collect::<Result<_, _>>()?;
                    let zeros = |cell: usize| {
                        let (i, j) = (i_lo + (cell / nj) as u32, j_lo + (cell % nj) as u32);
                        let (r, c) = c_meta.block_dims(i, j);
                        DenseBlock::zeros(r as usize, c as usize)
                    };
                    kernel_calls += dense_step(&a_col, &b_row, &mut bufc, zeros)?;
                    let packed = transposed_dense_a(&a_col, &b_row);
                    for (p, a_slot) in a_col.iter().enumerate() {
                        let Some(ablk) = a_slot else { continue };
                        let at = packed.get(p).and_then(Option::as_ref);
                        for (q, b_slot) in b_row.iter().enumerate() {
                            let Some(bblk) = b_slot else { continue };
                            if dense(a_slot).is_some() && dense(b_slot).is_some() {
                                continue; // ran in `dense_step`
                            }
                            let cell = p * nj + q;
                            let acc = bufc[cell].get_or_insert_with(|| zeros(cell));
                            match (at, &**bblk) {
                                (Some(at), Block::Sparse(sb)) => {
                                    kernels::spmm::dense_csr_tn_acc(at, sb, acc)?
                                }
                                _ => kernels::multiply_accumulate(acc, ablk, bblk)?,
                            }
                            kernel_calls += 1;
                        }
                    }
                }
            }
            // Lines 19–21: after the last k-subcuboid, copy C' back.
            for (cell, slot) in bufc.into_iter().enumerate() {
                if let Some(block) = slot {
                    let id = BlockId::new(i_lo + (cell / nj) as u32, j_lo + (cell % nj) as u32);
                    out.push((id, block));
                }
            }
        }
    }

    Ok(CuboidGpuResult {
        blocks: out,
        iterations,
        kernel_calls,
        spec,
    })
}

/// The dense block behind an operand slot, if it holds one.
fn dense(blk: &Option<Arc<Block>>) -> Option<&DenseBlock> {
    match blk.as_deref() {
        Some(Block::Dense(d)) => Some(d),
        _ => None,
    }
}

/// Accumulates every dense × dense pair of one k step into `bufc` (row-major
/// over the step's A column × B row, `zeros(cell)` making an accumulator)
/// with one [`kernels::gemm::gemm_step`]: each dense block of the step is
/// packed once, not once per pair, and every pair gets the bits its own
/// `multiply_accumulate` would. Returns the number of pairs.
fn dense_step(
    a_col: &[Option<Arc<Block>>],
    b_row: &[Option<Arc<Block>>],
    bufc: &mut [Option<DenseBlock>],
    zeros: impl Fn(usize) -> DenseBlock,
) -> Result<u64, TaskError> {
    let is_dense = |slots: &[Option<Arc<Block>>]| -> Vec<bool> {
        slots.iter().map(|blk| dense(blk).is_some()).collect()
    };
    let (rows, cols) = (is_dense(a_col), is_dense(b_row));
    let a: Vec<&DenseBlock> = a_col.iter().filter_map(dense).collect();
    let b: Vec<&DenseBlock> = b_row.iter().filter_map(dense).collect();
    if a.is_empty() || b.is_empty() {
        return Ok(0);
    }
    let nj = b_row.len();
    let mut c: Vec<&mut DenseBlock> = bufc
        .iter_mut()
        .enumerate()
        .filter(|(cell, _)| rows[cell / nj] && cols[cell % nj])
        .map(|(cell, slot)| slot.get_or_insert_with(|| zeros(cell)))
        .collect();
    kernels::gemm::gemm_step(1.0, &a, &b, 1.0, &mut c)?;
    Ok(c.len() as u64)
}

/// A k step's dense A blocks, transposed: what a dense × sparse product
/// reads ([`kernels::spmm::dense_csr_tn_acc`]). Empty unless the step's B
/// row holds a sparse block; otherwise each dense A block is transposed
/// once here and serves every j of the step.
fn transposed_dense_a(
    a_col: &[Option<Arc<Block>>],
    b_row: &[Option<Arc<Block>>],
) -> Vec<Option<DenseBlock>> {
    let sparse_b = |b: &Arc<Block>| matches!(**b, Block::Sparse(_));
    if !b_row.iter().flatten().any(sparse_b) {
        return Vec::new();
    }
    a_col
        .iter()
        .map(|a| match a.as_deref() {
            Some(Block::Dense(d)) => Some(d.transpose()),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cuboid::{CuboidGrid, CuboidSpec};
    use crate::problem::MatmulProblem;
    use distme_matrix::{Block, BlockMatrix, MatrixGenerator, MatrixMeta};

    fn setup(bs: u64) -> (BlockMatrix, BlockMatrix, MatmulProblem) {
        let am = MatrixMeta::dense(4 * bs, 8 * bs).with_block_size(bs);
        let bm = MatrixMeta::dense(8 * bs, 6 * bs).with_block_size(bs);
        let a = MatrixGenerator::with_seed(1).generate(&am).unwrap();
        let b = MatrixGenerator::with_seed(2).generate(&bm).unwrap();
        let p = MatmulProblem::new(am, bm).unwrap();
        (a, b, p)
    }

    #[test]
    fn plan_work_matches_eq6() {
        let sides = CuboidSides {
            extents: (2, 3, 4),
            a_block_bytes: 100,
            b_block_bytes: 100,
            c_block_bytes: 100,
        };
        // θg admitting (1,1,2) as in Fig. 5.
        let (spec, work) = plan_work(&sides, 1600, 1000.0, false).unwrap();
        assert_eq!(
            spec,
            SubcuboidSpec {
                p2: 1,
                q2: 1,
                r2: 2
            }
        );
        // h2d = Q2|Am| + P2|Bm| = 800 + 1200.
        assert_eq!(work.h2d_bytes, 2000);
        assert_eq!(work.d2h_bytes, 600);
        assert_eq!(work.kernel_calls, 24);
        assert_eq!(work.streams, 3); // J' = ceil(3/1)
        assert_eq!(work.dense_flops, 1000.0);
    }

    #[test]
    fn plan_work_sparse_routes_flops() {
        let sides = CuboidSides {
            extents: (1, 1, 1),
            a_block_bytes: 8,
            b_block_bytes: 8,
            c_block_bytes: 8,
        };
        let (_, work) = plan_work(&sides, 1000, 500.0, true).unwrap();
        assert_eq!(work.sparse_flops, 500.0);
        assert_eq!(work.dense_flops, 0.0);
    }

    #[test]
    fn plan_work_infeasible_returns_none() {
        let sides = CuboidSides {
            extents: (1, 1, 1),
            a_block_bytes: 1000,
            b_block_bytes: 1000,
            c_block_bytes: 1000,
        };
        assert!(plan_work(&sides, 100, 1.0, false).is_none());
    }

    #[test]
    fn real_schedule_matches_reference_product() {
        let (a, b, p) = setup(16);
        let grid = CuboidGrid::new(&p, CuboidSpec::new(2, 2, 2));
        let reference = a.multiply(&b).unwrap();
        // θg small enough to force several iterations: a cuboid holds
        // 8 A-blocks + 12 B-blocks + 6 C-blocks of 2 KiB each.
        let theta_g = 20_000u64;
        let mut c = BlockMatrix::new(p.c);
        for cuboid in grid.cuboids() {
            let mut announced = Vec::new();
            let res = execute_cuboid_real(&cuboid, &a, &b, &p, Some(theta_g), |panel| {
                announced.push(panel);
                Ok(())
            })
            .unwrap();
            assert!(res.iterations > 1, "θg should force multiple iterations");
            // Each k step is announced once, ascending, however many
            // subcuboids walk it afterwards.
            let k_steps = (cuboid.k1 - cuboid.k0) as usize;
            assert_eq!(announced, (0..k_steps).collect::<Vec<_>>());
            for (id, blk) in res.blocks {
                // Aggregate intermediate blocks across the R = 2 cuboids.
                let merged = match c.get(id.row, id.col) {
                    Some(prev) => prev.add(&Block::Dense(blk)).unwrap(),
                    None => Block::Dense(blk),
                };
                c.put(id.row, id.col, merged).unwrap();
            }
        }
        assert!(
            c.max_abs_diff(&reference).unwrap() < 1e-9,
            "Algorithm 1 result diverges from reference"
        );
    }

    #[test]
    fn kernel_calls_equal_voxels() {
        let (a, b, p) = setup(8);
        let grid = CuboidGrid::new(&p, CuboidSpec::new(1, 1, 1));
        let cuboid = grid.cuboid(0, 0, 0);
        let res = execute_cuboid_real(&cuboid, &a, &b, &p, None, |_| Ok(())).unwrap();
        assert_eq!(res.kernel_calls, cuboid.voxels());
        assert_eq!(res.iterations, 1);
        assert_eq!(res.spec.iterations(), 1);
    }

    #[test]
    fn oom_when_theta_g_below_one_voxel() {
        let (a, b, p) = setup(8);
        let grid = CuboidGrid::new(&p, CuboidSpec::new(2, 2, 2));
        let cuboid = grid.cuboid(0, 0, 0);
        let err = execute_cuboid_real(&cuboid, &a, &b, &p, Some(16), |_| Ok(())).unwrap_err();
        assert!(matches!(err, TaskError::OutOfMemory { .. }));
    }

    #[test]
    fn missing_blocks_are_skipped_as_zero() {
        let (_, b, p) = setup(8);
        // A with only one materialized block.
        let mut a = BlockMatrix::new(p.a);
        let gen = MatrixGenerator::with_seed(3);
        a.put(0, 0, gen.generate_block(&p.a, 0, 0).unwrap())
            .unwrap();
        let grid = CuboidGrid::new(&p, CuboidSpec::new(1, 1, 1));
        let res = execute_cuboid_real(&grid.cuboid(0, 0, 0), &a, &b, &p, None, |_| Ok(())).unwrap();
        let reference = a.multiply(&b).unwrap();
        // Only C-row 0 blocks can be non-zero.
        assert!(res.blocks.iter().all(|(id, _)| id.row == 0));
        let mut c = BlockMatrix::new(p.c);
        for (id, blk) in res.blocks {
            c.put(id.row, id.col, Block::Dense(blk)).unwrap();
        }
        assert!(c.max_abs_diff(&reference).unwrap() < 1e-9);
    }
}

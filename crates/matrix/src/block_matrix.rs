//! Single-node blocked matrix: the correctness reference for every
//! distributed method, and the local representation examples operate on.

use crate::block::{Block, BlockId};
use crate::dense::DenseBlock;
use crate::elementwise::{ew, EwOp};
use crate::error::{MatrixError, Result};
use crate::kernels;
use crate::meta::MatrixMeta;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

static NEXT_UID: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh process-unique matrix identity.
///
/// A uid names one *content version* of a block set (RDD-lineage style):
/// clones and moves keep it, mutation mints a new one. Placement caches
/// (the cluster's per-node block stores) key residency by uid, so a stale
/// cache entry can never alias changed content, and hold it exactly as
/// long as a handle to that version is alive ([`BlockMatrix::downgrade`]).
pub fn fresh_matrix_uid() -> u64 {
    NEXT_UID.fetch_add(1, Ordering::Relaxed)
}

/// A matrix stored as a grid of blocks on a single node.
///
/// Missing blocks are implicitly zero (common for very sparse matrices).
/// Blocks are held behind [`Arc`] so distributed executors can pin the same
/// physical block on several virtual nodes (broadcast, residency caches)
/// without copying element data.
#[derive(Debug, Clone)]
pub struct BlockMatrix {
    meta: MatrixMeta,
    /// Shared by every clone of this content version, so its strong count
    /// is the number of live handles to the version.
    uid: Arc<u64>,
    blocks: BTreeMap<BlockId, Arc<Block>>,
}

/// Equality is by shape and content; the uid (an identity/version token)
/// deliberately does not participate.
impl PartialEq for BlockMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.meta == other.meta && self.blocks == other.blocks
    }
}

impl BlockMatrix {
    /// Creates an empty (all-zero) matrix with the given shape descriptor.
    pub fn new(meta: MatrixMeta) -> Self {
        BlockMatrix {
            meta,
            uid: Arc::new(fresh_matrix_uid()),
            blocks: BTreeMap::new(),
        }
    }

    /// Shape descriptor.
    pub fn meta(&self) -> &MatrixMeta {
        &self.meta
    }

    /// This content version's identity (see [`fresh_matrix_uid`]). Stable
    /// across clones and moves; every [`put`](Self::put) mints a new one.
    pub fn uid(&self) -> u64 {
        *self.uid
    }

    /// A weak reference to this content version's uid: it upgrades exactly
    /// while some handle to the version — this one or a clone that has not
    /// been [`put`](Self::put) into since — is alive.
    pub fn downgrade(&self) -> Weak<u64> {
        Arc::downgrade(&self.uid)
    }

    fn check_slot(&self, bi: u32, bj: u32, block: &Block) -> Result<()> {
        if bi >= self.meta.block_rows() || bj >= self.meta.block_cols() {
            return Err(MatrixError::BlockOutOfBounds {
                id: (bi, bj),
                grid: (self.meta.block_rows(), self.meta.block_cols()),
            });
        }
        let (r, c) = self.meta.block_dims(bi, bj);
        if block.rows() as u64 != r || block.cols() as u64 != c {
            return Err(MatrixError::DimensionMismatch {
                op: "put_block",
                lhs: (block.rows() as u64, block.cols() as u64),
                rhs: (r, c),
            });
        }
        Ok(())
    }

    /// Inserts/replaces the block at `(bi, bj)`.
    ///
    /// # Errors
    /// Returns [`MatrixError::BlockOutOfBounds`] for coordinates outside the
    /// grid, and [`MatrixError::DimensionMismatch`] if the block's shape
    /// differs from what the grid slot requires.
    pub fn put(&mut self, bi: u32, bj: u32, block: Block) -> Result<()> {
        self.put_shared(bi, bj, Arc::new(block))
    }

    /// [`put`](Self::put) for an already-shared block (no element copy).
    ///
    /// # Errors
    /// Same as [`put`](Self::put).
    pub fn put_shared(&mut self, bi: u32, bj: u32, block: Arc<Block>) -> Result<()> {
        self.check_slot(bi, bj, &block)?;
        self.blocks.insert(BlockId::new(bi, bj), block);
        self.uid = Arc::new(fresh_matrix_uid());
        Ok(())
    }

    /// Returns the block at `(bi, bj)` if materialized.
    pub fn get(&self, bi: u32, bj: u32) -> Option<&Block> {
        self.blocks.get(&BlockId::new(bi, bj)).map(|b| &**b)
    }

    /// Returns a shared handle to the block at `(bi, bj)` if materialized.
    pub fn get_shared(&self, bi: u32, bj: u32) -> Option<Arc<Block>> {
        self.blocks.get(&BlockId::new(bi, bj)).map(Arc::clone)
    }

    /// Iterates over materialized blocks in (row, col) order.
    pub fn blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks.iter().map(|(id, b)| (*id, &**b))
    }

    /// Iterates over shared handles to the materialized blocks.
    pub fn blocks_shared(&self) -> impl Iterator<Item = (BlockId, Arc<Block>)> + '_ {
        self.blocks.iter().map(|(id, b)| (*id, Arc::clone(b)))
    }

    /// Number of materialized blocks.
    pub fn num_materialized(&self) -> usize {
        self.blocks.len()
    }

    /// Total non-zeros over materialized blocks.
    pub fn nnz(&self) -> u64 {
        self.blocks.values().map(|b| b.nnz() as u64).sum()
    }

    /// Total in-memory bytes over materialized blocks.
    pub fn mem_bytes(&self) -> u64 {
        self.blocks.values().map(|b| b.mem_bytes()).sum()
    }

    /// Element accessor (slow; tests and small examples only).
    pub fn get_element(&self, i: u64, j: u64) -> f64 {
        let bs = self.meta.block_size;
        let (bi, bj) = ((i / bs) as u32, (j / bs) as u32);
        match self.get(bi, bj) {
            Some(b) => b.get((i % bs) as usize, (j % bs) as usize),
            None => 0.0,
        }
    }

    /// Single-node reference matrix multiplication: `self × rhs`, computing
    /// each output block by Eq. (1): `C[i,j] = Σ_k A[i,k] · B[k,j]`.
    ///
    /// # Errors
    /// Returns [`MatrixError::DimensionMismatch`] when inner dimensions or
    /// block sizes differ.
    pub fn multiply(&self, rhs: &BlockMatrix) -> Result<BlockMatrix> {
        if self.meta.cols != rhs.meta.rows || self.meta.block_size != rhs.meta.block_size {
            return Err(MatrixError::DimensionMismatch {
                op: "matrix_multiply",
                lhs: (self.meta.rows, self.meta.cols),
                rhs: (rhs.meta.rows, rhs.meta.cols),
            });
        }
        let out_meta = self.meta.multiply_meta(&rhs.meta);
        let mut out = BlockMatrix::new(out_meta);
        let kdim = self.meta.block_cols();
        for bi in 0..self.meta.block_rows() {
            for bj in 0..rhs.meta.block_cols() {
                let (orows, ocols) = out_meta.block_dims(bi, bj);
                let mut acc = DenseBlock::zeros(orows as usize, ocols as usize);
                let mut any = false;
                for bk in 0..kdim {
                    let (Some(a), Some(b)) = (self.get(bi, bk), rhs.get(bk, bj)) else {
                        continue;
                    };
                    kernels::multiply_accumulate(&mut acc, a, b)?;
                    any = true;
                }
                if any {
                    out.put(bi, bj, Block::Dense(acc).normalize())?;
                }
            }
        }
        Ok(out)
    }

    /// Element-wise combination with another matrix of identical shape.
    ///
    /// # Errors
    /// Returns [`MatrixError::DimensionMismatch`] when shapes differ.
    pub fn elementwise(&self, op: EwOp, rhs: &BlockMatrix) -> Result<BlockMatrix> {
        if self.meta.rows != rhs.meta.rows
            || self.meta.cols != rhs.meta.cols
            || self.meta.block_size != rhs.meta.block_size
        {
            return Err(MatrixError::DimensionMismatch {
                op: "elementwise",
                lhs: (self.meta.rows, self.meta.cols),
                rhs: (rhs.meta.rows, rhs.meta.cols),
            });
        }
        let mut out = BlockMatrix::new(self.meta);
        for bi in 0..self.meta.block_rows() {
            for bj in 0..self.meta.block_cols() {
                let (r, c) = self.meta.block_dims(bi, bj);
                let zero = || Block::Dense(DenseBlock::zeros(r as usize, c as usize));
                let result = match (self.get(bi, bj), rhs.get(bi, bj)) {
                    (None, None) => continue,
                    (Some(a), Some(b)) => ew(op, a, b)?,
                    (Some(a), None) => ew(op, a, &zero())?,
                    (None, Some(b)) => ew(op, &zero(), b)?,
                };
                if result.nnz() > 0 {
                    out.put(bi, bj, result)?;
                }
            }
        }
        Ok(out)
    }

    /// Transposed matrix (blocks transposed and re-gridded).
    pub fn transpose(&self) -> BlockMatrix {
        let mut out = BlockMatrix::new(self.meta.transposed());
        for (id, b) in self.blocks() {
            out.put(id.col, id.row, b.transpose())
                .expect("transpose grid positions are always valid");
        }
        out
    }

    /// Maximum absolute element difference; `None` on shape mismatch.
    pub fn max_abs_diff(&self, other: &BlockMatrix) -> Option<f64> {
        if self.meta.rows != other.meta.rows || self.meta.cols != other.meta.cols {
            return None;
        }
        let mut worst = 0.0f64;
        for bi in 0..self.meta.block_rows() {
            for bj in 0..self.meta.block_cols() {
                let (r, c) = self.meta.block_dims(bi, bj);
                let d = match (self.get(bi, bj), other.get(bi, bj)) {
                    (None, None) => 0.0,
                    (Some(a), Some(b)) => a.max_abs_diff(b)?,
                    (Some(x), None) | (None, Some(x)) => {
                        x.max_abs_diff(&Block::Dense(DenseBlock::zeros(r as usize, c as usize)))?
                    }
                };
                worst = worst.max(d);
            }
        }
        Some(worst)
    }

    /// Frobenius norm over materialized blocks. A CSR block reads only its
    /// stored entries, in CSR order: the non-zero squares a row-major scan
    /// of the densified block would add, in the same order, without the
    /// zeros, whose addition is exact. The result bits therefore do not
    /// depend on a block's storage format.
    pub fn frobenius_norm(&self) -> f64 {
        self.blocks
            .values()
            .map(|b| block_inner(b, b))
            .fold(0.0, |acc, x| acc + x)
            .sqrt()
    }

    /// Frobenius inner product `⟨self, rhs⟩ = Σᵢⱼ selfᵢⱼ · rhsᵢⱼ`. A block
    /// missing on either side contributes nothing, and no CSR block is
    /// densified.
    ///
    /// # Errors
    /// Returns [`MatrixError::DimensionMismatch`] when shapes or block sizes
    /// differ.
    pub fn inner(&self, rhs: &BlockMatrix) -> Result<f64> {
        if self.meta.rows != rhs.meta.rows
            || self.meta.cols != rhs.meta.cols
            || self.meta.block_size != rhs.meta.block_size
        {
            return Err(MatrixError::DimensionMismatch {
                op: "inner",
                lhs: (self.meta.rows, self.meta.cols),
                rhs: (rhs.meta.rows, rhs.meta.cols),
            });
        }
        Ok(self
            .blocks
            .iter()
            .filter_map(|(id, a)| rhs.blocks.get(id).map(|b| block_inner(a, b)))
            .fold(0.0, |acc, x| acc + x))
    }
}

/// `Σᵢⱼ aᵢⱼ · bᵢⱼ` over two blocks of one grid slot, summed from `+0.0` in
/// row-major order. A CSR side contributes only its stored entries.
fn block_inner(a: &Block, b: &Block) -> f64 {
    match (a, b) {
        (Block::Dense(x), Block::Dense(y)) => x
            .data()
            .iter()
            .zip(y.data())
            .fold(0.0, |acc, (p, q)| acc + p * q),
        (Block::Sparse(s), Block::Dense(d)) | (Block::Dense(d), Block::Sparse(s)) => {
            let (cols, data) = (d.cols(), d.data());
            s.iter()
                .fold(0.0, |acc, (i, j, v)| acc + v * data[i * cols + j])
        }
        (Block::Sparse(x), Block::Sparse(y)) => {
            let mut acc = 0.0;
            for i in 0..x.rows() {
                let (xs, xe) = (x.row_ptr()[i] as usize, x.row_ptr()[i + 1] as usize);
                let (mut q, ye) = (y.row_ptr()[i] as usize, y.row_ptr()[i + 1] as usize);
                for p in xs..xe {
                    let col = x.col_idx()[p];
                    while q < ye && y.col_idx()[q] < col {
                        q += 1;
                    }
                    if q < ye && y.col_idx()[q] == col {
                        acc += x.values()[p] * y.values()[q];
                    }
                }
            }
            acc
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockFormat;
    use crate::generator::MatrixGenerator;
    use crate::sparse::CsrBlock;

    fn gen(rows: u64, cols: u64, bs: u64, sparsity: f64, seed: u64) -> BlockMatrix {
        let meta = MatrixMeta::sparse(rows, cols, sparsity).with_block_size(bs);
        MatrixGenerator::with_seed(seed).generate(&meta).unwrap()
    }

    /// Element-level naive reference.
    fn naive_multiply(a: &BlockMatrix, b: &BlockMatrix) -> Vec<Vec<f64>> {
        let (m, k, n) = (a.meta().rows, a.meta().cols, b.meta().cols);
        let mut c = vec![vec![0.0; n as usize]; m as usize];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a.get_element(i, kk) * b.get_element(kk, j);
                }
                c[i as usize][j as usize] = acc;
            }
        }
        c
    }

    #[test]
    fn multiply_matches_element_reference() {
        let a = gen(50, 70, 20, 1.0, 1);
        let b = gen(70, 30, 20, 1.0, 2);
        let c = a.multiply(&b).unwrap();
        let expect = naive_multiply(&a, &b);
        for i in 0..50 {
            for j in 0..30 {
                assert!(
                    (c.get_element(i, j) - expect[i as usize][j as usize]).abs() < 1e-9,
                    "mismatch at ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn multiply_sparse_inputs() {
        let a = gen(40, 60, 16, 0.05, 3);
        let b = gen(60, 24, 16, 0.05, 4);
        let c = a.multiply(&b).unwrap();
        let expect = naive_multiply(&a, &b);
        for i in 0..40 {
            for j in 0..24 {
                assert!((c.get_element(i, j) - expect[i as usize][j as usize]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn multiply_dim_mismatch() {
        let a = gen(10, 10, 5, 1.0, 1);
        let b = gen(11, 10, 5, 1.0, 2);
        assert!(a.multiply(&b).is_err());
    }

    #[test]
    fn transpose_roundtrip_and_property() {
        let a = gen(30, 50, 16, 0.3, 9);
        let t = a.transpose();
        assert_eq!(t.meta().rows, 50);
        for i in 0..30 {
            for j in 0..50 {
                assert_eq!(a.get_element(i, j), t.get_element(j, i));
            }
        }
        assert!(a.max_abs_diff(&t.transpose()).unwrap() < 1e-15);
    }

    #[test]
    fn transpose_of_product_property() {
        // (A·B)^T == B^T · A^T
        let a = gen(24, 36, 12, 1.0, 5);
        let b = gen(36, 18, 12, 1.0, 6);
        let lhs = a.multiply(&b).unwrap().transpose();
        let rhs = b.transpose().multiply(&a.transpose()).unwrap();
        assert!(lhs.max_abs_diff(&rhs).unwrap() < 1e-9);
    }

    #[test]
    fn elementwise_add_sub_roundtrip() {
        let a = gen(25, 25, 10, 0.5, 7);
        let b = gen(25, 25, 10, 0.5, 8);
        let sum = a.elementwise(EwOp::Add, &b).unwrap();
        let back = sum.elementwise(EwOp::Sub, &b).unwrap();
        assert!(a.max_abs_diff(&back).unwrap() < 1e-12);
    }

    #[test]
    fn elementwise_with_missing_blocks() {
        let meta = MatrixMeta::dense(20, 20).with_block_size(10);
        let mut a = BlockMatrix::new(meta);
        a.put(0, 0, Block::Dense(DenseBlock::from_fn(10, 10, |_, _| 2.0)))
            .unwrap();
        let mut b = BlockMatrix::new(meta);
        b.put(1, 1, Block::Dense(DenseBlock::from_fn(10, 10, |_, _| 3.0)))
            .unwrap();
        let sum = a.elementwise(EwOp::Add, &b).unwrap();
        assert_eq!(sum.get_element(0, 0), 2.0);
        assert_eq!(sum.get_element(15, 15), 3.0);
        assert_eq!(sum.get_element(5, 15), 0.0);
    }

    #[test]
    fn put_validates_bounds_and_shape() {
        let meta = MatrixMeta::dense(20, 20).with_block_size(10);
        let mut m = BlockMatrix::new(meta);
        assert!(m
            .put(5, 0, Block::Dense(DenseBlock::zeros(10, 10)))
            .is_err());
        assert!(m.put(0, 0, Block::Dense(DenseBlock::zeros(3, 10))).is_err());
        assert!(m.put(0, 0, Block::Dense(DenseBlock::zeros(10, 10))).is_ok());
    }

    #[test]
    fn missing_blocks_read_as_zero() {
        let meta = MatrixMeta::dense(20, 20).with_block_size(10);
        let m = BlockMatrix::new(meta);
        assert_eq!(m.get_element(7, 13), 0.0);
        assert_eq!(m.nnz(), 0);
    }

    /// Dense, CSR and missing blocks on one 3×2 grid: signed values, and
    /// CSR blocks that store explicit `+0.0` and `-0.0` entries.
    fn mixed(seed: u32) -> BlockMatrix {
        let meta = MatrixMeta::dense(40, 30).with_block_size(16);
        let full = MatrixGenerator::with_seed(seed.into())
            .value_range(-1.0, 1.0)
            .generate(&meta)
            .unwrap();
        let mut out = BlockMatrix::new(meta);
        for (id, blk) in full.blocks() {
            let d = blk.to_dense();
            let block = match (id.row + id.col + seed) % 3 {
                0 => Block::Dense(d),
                1 => {
                    let (mut row_ptr, mut col_idx, mut values) = (vec![0], vec![], vec![]);
                    for i in 0..d.rows() {
                        for j in (i % 3..d.cols()).step_by(3) {
                            col_idx.push(j as u32);
                            values.push(match (i + j) % 9 {
                                0 => 0.0,
                                4 => -0.0,
                                _ => d.get(i, j),
                            });
                        }
                        row_ptr.push(col_idx.len() as u32);
                    }
                    let csr =
                        CsrBlock::from_raw_parts(d.rows(), d.cols(), row_ptr, col_idx, values);
                    Block::Sparse(csr.unwrap())
                }
                _ => continue,
            };
            out.put(id.row, id.col, block).unwrap();
        }
        out
    }

    /// `Σ aᵢⱼ · bᵢⱼ` scanned over every densified slot, missing ones as zeros.
    fn densified_inner(a: &BlockMatrix, b: &BlockMatrix) -> f64 {
        let meta = a.meta();
        let mut total = 0.0;
        for bi in 0..meta.block_rows() {
            for bj in 0..meta.block_cols() {
                let (r, c) = meta.block_dims(bi, bj);
                let dense = |m: &BlockMatrix| match m.get(bi, bj) {
                    Some(blk) => blk.to_dense(),
                    None => DenseBlock::zeros(r as usize, c as usize),
                };
                let (x, y) = (dense(a), dense(b));
                total += x
                    .data()
                    .iter()
                    .zip(y.data())
                    .map(|(p, q)| p * q)
                    .sum::<f64>();
            }
        }
        total
    }

    #[test]
    fn frobenius_reductions_match_the_densified_scan_bit_for_bit() {
        for seed in 0..3 {
            let a = mixed(seed);
            let formats: Vec<_> = a.blocks().map(|(_, b)| b.format()).collect();
            assert!(formats.contains(&BlockFormat::Dense));
            assert!(formats.contains(&BlockFormat::Sparse));
            assert!(a.num_materialized() < 6, "one slot is left missing");
            // The densified reference: every block scanned as a dense array.
            let reference = a
                .blocks()
                .map(|(_, b)| b.to_dense().data().iter().map(|v| v * v).sum::<f64>())
                .sum::<f64>()
                .sqrt();
            assert_eq!(a.frobenius_norm().to_bits(), reference.to_bits());
            assert_eq!(
                a.inner(&a).unwrap().to_bits(),
                densified_inner(&a, &a).to_bits()
            );
            // Across formats: each slot pairs dense with CSR, CSR with
            // dense, or either with a missing block.
            let b = mixed(seed + 1);
            assert_eq!(
                a.inner(&b).unwrap().to_bits(),
                densified_inner(&a, &b).to_bits()
            );
            assert_eq!(
                b.inner(&a).unwrap().to_bits(),
                densified_inner(&b, &a).to_bits()
            );
        }
        // CSR against CSR with different patterns.
        let meta = MatrixMeta::sparse(4, 4, 0.5).with_block_size(4);
        let csr = |t: Vec<(usize, usize, f64)>| {
            let mut m = BlockMatrix::new(meta);
            m.put(
                0,
                0,
                Block::Sparse(CsrBlock::from_triplets(4, 4, t).unwrap()),
            )
            .unwrap();
            m
        };
        let x = csr(vec![(0, 0, 2.0), (0, 3, 3.0), (2, 1, 5.0), (3, 3, 7.0)]);
        let y = csr(vec![(0, 3, 0.5), (1, 1, 9.0), (2, 1, -1.0), (2, 2, 4.0)]);
        assert_eq!(x.inner(&y).unwrap(), 1.5 - 5.0);
        // An empty matrix reads +0.0, not -0.0.
        let empty = BlockMatrix::new(meta);
        assert_eq!(empty.frobenius_norm().to_bits(), 0.0f64.to_bits());
        assert_eq!(empty.inner(&x).unwrap().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn inner_rejects_mismatched_shapes() {
        let a = gen(20, 20, 10, 1.0, 1);
        assert!(a.inner(&gen(20, 30, 10, 1.0, 2)).is_err());
        assert!(a.inner(&gen(20, 20, 5, 1.0, 2)).is_err());
    }
}

//! The [`Block`] enum unifying dense and sparse block formats, and block
//! addressing within a matrix's block grid.

use std::borrow::Cow;

use crate::dense::DenseBlock;
use crate::error::{MatrixError, Result};
use crate::sparse::CsrBlock;

/// Grid coordinates of a block within a matrix: `Ai,j` in the paper's
/// notation, `i` being the block-row and `j` the block-column index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId {
    /// Block-row index.
    pub row: u32,
    /// Block-column index.
    pub col: u32,
}

impl BlockId {
    /// Creates a block id.
    pub const fn new(row: u32, col: u32) -> Self {
        BlockId { row, col }
    }
}

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.row, self.col)
    }
}

/// Storage format of a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockFormat {
    /// Row-major dense array, 8 bytes/element.
    Dense,
    /// Compressed sparse row, ~12 bytes/non-zero.
    Sparse,
}

/// A matrix block in either dense or CSR representation.
///
/// The engine picks the representation per block based on density, mirroring
/// the hybrid storage of SystemML/DistME; conversions are explicit.
#[derive(Debug, Clone, PartialEq)]
pub enum Block {
    /// Dense storage.
    Dense(DenseBlock),
    /// CSR storage.
    Sparse(CsrBlock),
}

/// Density threshold above which a block is materialized densely. SystemML
/// uses nnz/cells > 0.4 as its dense/sparse crossover; we adopt the same.
pub const DENSE_THRESHOLD: f64 = 0.4;

impl Block {
    /// Number of rows in the block.
    pub fn rows(&self) -> usize {
        match self {
            Block::Dense(d) => d.rows(),
            Block::Sparse(s) => s.rows(),
        }
    }

    /// Number of columns in the block.
    pub fn cols(&self) -> usize {
        match self {
            Block::Dense(d) => d.cols(),
            Block::Sparse(s) => s.cols(),
        }
    }

    /// Storage format tag.
    pub fn format(&self) -> BlockFormat {
        match self {
            Block::Dense(_) => BlockFormat::Dense,
            Block::Sparse(_) => BlockFormat::Sparse,
        }
    }

    /// Number of non-zero elements. Exact for CSR, a scan for dense.
    pub fn nnz(&self) -> usize {
        match self {
            Block::Dense(d) => d.nnz(),
            Block::Sparse(s) => s.nnz(),
        }
    }

    /// Fraction of non-zero cells.
    pub fn density(&self) -> f64 {
        let cells = self.rows() * self.cols();
        if cells == 0 {
            return 0.0;
        }
        self.nnz() as f64 / cells as f64
    }

    /// In-memory footprint in bytes.
    pub fn mem_bytes(&self) -> u64 {
        match self {
            Block::Dense(d) => d.mem_bytes(),
            Block::Sparse(s) => s.mem_bytes(),
        }
    }

    /// Returns a dense view, converting if needed.
    pub fn to_dense(&self) -> DenseBlock {
        match self {
            Block::Dense(d) => d.clone(),
            Block::Sparse(s) => s.to_dense(),
        }
    }

    /// The block as dense elements: borrowed when it is dense, converted
    /// when it is sparse.
    pub fn as_dense(&self) -> Cow<'_, DenseBlock> {
        match self {
            Block::Dense(d) => Cow::Borrowed(d),
            Block::Sparse(s) => Cow::Owned(s.to_dense()),
        }
    }

    /// Returns a CSR view, converting if needed.
    pub fn to_sparse(&self) -> CsrBlock {
        match self {
            Block::Dense(d) => CsrBlock::from_dense(d),
            Block::Sparse(s) => s.clone(),
        }
    }

    /// Re-encodes the block into the storage format its density warrants
    /// (dense above [`DENSE_THRESHOLD`], CSR below).
    pub fn normalize(self) -> Block {
        let nnz = self.nnz();
        self.encode_for(nnz)
    }

    /// [`Block::normalize`], or `None` when the block holds no non-zero: a
    /// dense block is scanned once for both answers.
    pub fn normalize_nonzero(self) -> Option<Block> {
        let nnz = self.nnz();
        (nnz > 0).then(|| self.encode_for(nnz))
    }

    /// The format choice of [`Block::normalize`] for a block of `nnz`
    /// non-zeros.
    fn encode_for(self, nnz: usize) -> Block {
        let cells = self.rows() * self.cols();
        let dense = cells > 0 && nnz as f64 / cells as f64 >= DENSE_THRESHOLD;
        match (&self, dense) {
            (Block::Dense(_), true) | (Block::Sparse(_), false) => self,
            (Block::Dense(d), false) => Block::Sparse(CsrBlock::from_dense(d)),
            (Block::Sparse(s), true) => Block::Dense(s.to_dense()),
        }
    }

    /// Transposed block in the same storage format.
    pub fn transpose(&self) -> Block {
        match self {
            Block::Dense(d) => Block::Dense(d.transpose()),
            Block::Sparse(s) => Block::Sparse(s.transpose()),
        }
    }

    /// Element accessor (slow path; for tests and small examples).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        match self {
            Block::Dense(d) => d.get(i, j),
            Block::Sparse(s) => {
                let (start, end) = (s.row_ptr()[i] as usize, s.row_ptr()[i + 1] as usize);
                match s.col_idx()[start..end].binary_search(&(j as u32)) {
                    Ok(pos) => s.values()[start + pos],
                    Err(_) => 0.0,
                }
            }
        }
    }

    /// `self + other`: sparse when both are, else dense.
    ///
    /// # Errors
    /// Returns [`MatrixError::DimensionMismatch`] when shapes differ.
    pub fn add(&self, other: &Block) -> Result<Block> {
        let mut sum = self.clone();
        sum.add_assign(other)?;
        Ok(sum)
    }

    /// `self += other`, in the format [`Block::add`] gives. A dense `self`
    /// is summed in place and a dense `other` is read where it lies; only a
    /// sparse side is converted. Each element is `self + other`, as in
    /// [`Block::add`].
    ///
    /// # Errors
    /// Returns [`MatrixError::DimensionMismatch`] when shapes differ.
    pub fn add_assign(&mut self, other: &Block) -> Result<()> {
        if self.rows() != other.rows() || self.cols() != other.cols() {
            return Err(MatrixError::DimensionMismatch {
                op: "add",
                lhs: (self.rows() as u64, self.cols() as u64),
                rhs: (other.rows() as u64, other.cols() as u64),
            });
        }
        match (&mut *self, other) {
            (Block::Dense(d), _) => d.add_assign(&other.as_dense())?,
            (Block::Sparse(a), Block::Dense(o)) => {
                let mut d = a.to_dense();
                d.add_assign(o)?;
                *self = Block::Dense(d);
            }
            (Block::Sparse(a), Block::Sparse(b)) => {
                // Sparse + sparse: merge triplets.
                let trips: Vec<(usize, usize, f64)> = a.iter().chain(b.iter()).collect();
                *self = Block::Sparse(CsrBlock::from_triplets(a.rows(), a.cols(), trips)?);
            }
        }
        Ok(())
    }

    /// Maximum absolute difference against another block (any formats).
    pub fn max_abs_diff(&self, other: &Block) -> Option<f64> {
        self.as_dense().max_abs_diff(&other.as_dense())
    }
}

impl From<DenseBlock> for Block {
    fn from(d: DenseBlock) -> Self {
        Block::Dense(d)
    }
}

impl From<CsrBlock> for Block {
    fn from(s: CsrBlock) -> Self {
        Block::Sparse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sparse_sample() -> CsrBlock {
        CsrBlock::from_triplets(3, 3, vec![(0, 0, 1.0), (2, 1, 4.0)]).unwrap()
    }

    #[test]
    fn block_id_display() {
        assert_eq!(BlockId::new(2, 7).to_string(), "(2, 7)");
    }

    #[test]
    fn format_and_shape_dispatch() {
        let d: Block = DenseBlock::zeros(2, 3).into();
        let s: Block = sparse_sample().into();
        assert_eq!(d.format(), BlockFormat::Dense);
        assert_eq!(s.format(), BlockFormat::Sparse);
        assert_eq!(d.rows(), 2);
        assert_eq!(d.cols(), 3);
        assert_eq!(s.rows(), 3);
    }

    #[test]
    fn get_on_sparse_finds_zeros_and_values() {
        let s: Block = sparse_sample().into();
        assert_eq!(s.get(0, 0), 1.0);
        assert_eq!(s.get(0, 1), 0.0);
        assert_eq!(s.get(2, 1), 4.0);
    }

    #[test]
    fn normalize_respects_threshold() {
        // 1/9 dense => should become sparse.
        let mut d = DenseBlock::zeros(3, 3);
        d.set(1, 1, 5.0);
        let b = Block::Dense(d).normalize();
        assert_eq!(b.format(), BlockFormat::Sparse);
        // Fully dense CSR => should become dense.
        let full = CsrBlock::from_dense(&DenseBlock::from_fn(2, 2, |_, _| 1.0));
        let b = Block::Sparse(full).normalize();
        assert_eq!(b.format(), BlockFormat::Dense);
    }

    #[test]
    fn add_mixed_formats() {
        let d: Block = DenseBlock::from_fn(3, 3, |i, j| (i + j) as f64).into();
        let s: Block = sparse_sample().into();
        let sum = d.add(&s).unwrap();
        assert_eq!(sum.get(0, 0), 1.0);
        assert_eq!(sum.get(2, 1), 7.0);
        assert_eq!(sum.get(1, 2), 3.0);
    }

    #[test]
    fn add_sparse_sparse_stays_sparse() {
        let a: Block = sparse_sample().into();
        let b: Block = sparse_sample().into();
        let sum = a.add(&b).unwrap();
        assert_eq!(sum.format(), BlockFormat::Sparse);
        assert_eq!(sum.get(2, 1), 8.0);
        assert_eq!(sum.nnz(), 2);
    }

    #[test]
    fn add_shape_mismatch() {
        let a: Block = DenseBlock::zeros(2, 2).into();
        let b: Block = DenseBlock::zeros(3, 2).into();
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn transpose_preserves_format() {
        let d: Block = DenseBlock::zeros(2, 3).into();
        let s: Block = sparse_sample().into();
        assert_eq!(d.transpose().format(), BlockFormat::Dense);
        assert_eq!(s.transpose().format(), BlockFormat::Sparse);
        assert_eq!(d.transpose().rows(), 3);
    }
}

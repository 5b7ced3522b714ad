//! Dense block storage: a row-major buffer of `rows × cols` `f64`s, either
//! owned (`Vec<f64>`) or a zero-copy view into a shared wire buffer.

use crate::error::{MatrixError, Result};
use bytes::Bytes;

/// Backing storage of a dense block.
///
/// `Shared` aliases an 8-byte-aligned region of a reference-counted byte
/// buffer: the block's elements are those bytes themselves, never copied
/// out. The one `Bytes` handle keeps the buffer alive for as long as the
/// block is resident; any mutation first materializes into `Owned`
/// (copy-on-write), so shared storage is observationally identical to
/// owned storage.
#[derive(Debug, Clone)]
enum Storage {
    Owned(Vec<f64>),
    /// The elements are `bytes[at..at + rows * cols * 8]`. `at` is 0 for a
    /// bare payload ([`DenseBlock::from_shared_bytes`]); for a block the
    /// codec decoded in place, `bytes` is the whole checksum-verified wire
    /// frame and `at` the payload's offset behind its header.
    ///
    /// Invariants (checked at construction): that range lies inside
    /// `bytes` and starts on an 8-byte boundary.
    Shared {
        bytes: Bytes,
        at: usize,
    },
}

/// A dense matrix block in row-major order.
///
/// Blocks at the right/bottom edge of a matrix may be smaller than the
/// nominal block size, so `rows`/`cols` are stored per block.
#[derive(Debug, Clone)]
pub struct DenseBlock {
    rows: usize,
    cols: usize,
    data: Storage,
}

impl PartialEq for DenseBlock {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && self.cols == other.cols && self.data() == other.data()
    }
}

impl DenseBlock {
    /// Creates a zero-filled block.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseBlock {
            rows,
            cols,
            data: Storage::Owned(vec![0.0; rows * cols]),
        }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Errors
    /// Returns [`MatrixError::InvalidParameter`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(MatrixError::InvalidParameter(format!(
                "buffer of {} elements cannot back a {rows}x{cols} block",
                data.len()
            )));
        }
        Ok(DenseBlock {
            rows,
            cols,
            data: Storage::Owned(data),
        })
    }

    /// Wraps a shared byte buffer as the block's element storage without
    /// copying: the little-endian `f64` payload of a wire frame becomes the
    /// block's row-major data in place. Only valid on little-endian targets
    /// (the wire encoding there *is* the in-memory representation).
    ///
    /// # Errors
    /// Returns [`MatrixError::InvalidParameter`] when the view is not
    /// 8-byte aligned, its length is not exactly `rows * cols * 8`, or the
    /// target is big-endian — callers fall back to a copying decode.
    pub fn from_shared_bytes(rows: usize, cols: usize, bytes: Bytes) -> Result<Self> {
        let payload = rows.checked_mul(cols).and_then(|n| n.checked_mul(8));
        if payload != Some(bytes.len()) {
            return Err(MatrixError::InvalidParameter(format!(
                "view of {} bytes cannot back a {rows}x{cols} block",
                bytes.len()
            )));
        }
        Self::from_frame(rows, cols, bytes, 0)
    }

    /// [`from_shared_bytes`](Self::from_shared_bytes) for a payload that
    /// sits `at` bytes into a wire frame: the block keeps the whole frame.
    /// Crate-private because the frame must be the verified encoding of
    /// this very block — `codec::decode_view` is the one caller with a
    /// frame (`at > 0`), and `codec::resident_frame` trusts it.
    pub(crate) fn from_frame(rows: usize, cols: usize, bytes: Bytes, at: usize) -> Result<Self> {
        if cfg!(not(target_endian = "little")) {
            return Err(MatrixError::InvalidParameter(
                "shared wire views require a little-endian target".into(),
            ));
        }
        let end = rows
            .checked_mul(cols)
            .and_then(|n| n.checked_mul(8))
            .and_then(|payload| payload.checked_add(at));
        if end.is_none_or(|end| end > bytes.len()) {
            return Err(MatrixError::InvalidParameter(format!(
                "{} bytes cannot back a {rows}x{cols} block at offset {at}",
                bytes.len()
            )));
        }
        if !(bytes.as_ref().as_ptr() as usize + at).is_multiple_of(std::mem::align_of::<f64>()) {
            return Err(MatrixError::InvalidParameter(
                "shared view is not 8-byte aligned".into(),
            ));
        }
        Ok(DenseBlock {
            rows,
            cols,
            data: Storage::Shared { bytes, at },
        })
    }

    /// Whether this block's storage is a zero-copy view into a shared wire
    /// buffer (diagnostics/tests; semantics are identical either way).
    pub fn is_shared(&self) -> bool {
        matches!(self.data, Storage::Shared { .. })
    }

    /// The wire frame this block is a view of, when the codec decoded it
    /// in place and nothing has written to it since.
    pub(crate) fn frame(&self) -> Option<&Bytes> {
        match &self.data {
            Storage::Shared { bytes, at } if *at > 0 => Some(bytes),
            _ => None,
        }
    }

    /// Consumes the block, returning the handle to the buffer it aliased;
    /// `None` for owned storage. The last holder of that buffer can turn
    /// it back into a builder (`Bytes::try_into_mut`) and fill it again.
    pub fn into_shared_bytes(self) -> Option<Bytes> {
        match self.data {
            Storage::Owned(_) => None,
            Storage::Shared { bytes, .. } => Some(bytes),
        }
    }

    /// Builds a block from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        DenseBlock {
            rows,
            cols,
            data: Storage::Owned(data),
        }
    }

    /// An identity block (ones on the main diagonal).
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 })
    }

    /// Number of rows in this block.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns in this block.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the row-major element buffer.
    #[inline]
    pub fn data(&self) -> &[f64] {
        match &self.data {
            Storage::Owned(v) => v,
            // SAFETY: `from_frame` established that `rows * cols * 8`
            // bytes starting 8-byte aligned at `at` lie inside `bytes`
            // (and no field has changed since); the bytes are immutable
            // for the `Bytes` lifetime, every bit pattern is a valid
            // `f64`, and the returned slice borrows `self`, which keeps
            // the `Bytes` (and its Arc) alive.
            Storage::Shared { bytes, at } => unsafe {
                std::slice::from_raw_parts(
                    bytes.as_ref().as_ptr().add(*at).cast::<f64>(),
                    self.rows * self.cols,
                )
            },
        }
    }

    /// Mutable view of the row-major element buffer. A shared wire view is
    /// first materialized into owned storage (copy-on-write), so mutation
    /// never writes through a shared receive buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        if self.is_shared() {
            self.data = Storage::Owned(self.data().to_vec());
        }
        match &mut self.data {
            Storage::Owned(v) => v,
            Storage::Shared { .. } => unreachable!("shared storage materialized above"),
        }
    }

    /// Element accessor (debug/tests; kernels index the raw slice).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data()[i * self.cols + j]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        let cols = self.cols;
        self.data_mut()[i * cols + j] = v;
    }

    /// Number of stored elements (`rows × cols`).
    #[inline]
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// True when the block has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of non-zero elements (exact scan).
    pub fn nnz(&self) -> usize {
        self.data().iter().filter(|v| **v != 0.0).count()
    }

    /// In-memory footprint in bytes (element payload only).
    pub fn mem_bytes(&self) -> u64 {
        (self.len() * std::mem::size_of::<f64>()) as u64
    }

    /// Returns the transposed block.
    pub fn transpose(&self) -> DenseBlock {
        let mut out = DenseBlock::zeros(self.cols, self.rows);
        let (rows, cols) = (self.rows, self.cols);
        let src = self.data();
        let dst = out.data_mut();
        // Tile the transpose to stay cache-friendly for 1000x1000 blocks.
        const TILE: usize = 32;
        for ib in (0..rows).step_by(TILE) {
            for jb in (0..cols).step_by(TILE) {
                let imax = (ib + TILE).min(rows);
                let jmax = (jb + TILE).min(cols);
                for i in ib..imax {
                    for j in jb..jmax {
                        dst[j * rows + i] = src[i * cols + j];
                    }
                }
            }
        }
        out
    }

    /// `self += other`, element-wise.
    ///
    /// # Errors
    /// Returns [`MatrixError::DimensionMismatch`] when shapes differ.
    pub fn add_assign(&mut self, other: &DenseBlock) -> Result<()> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(MatrixError::DimensionMismatch {
                op: "add",
                lhs: (self.rows as u64, self.cols as u64),
                rhs: (other.rows as u64, other.cols as u64),
            });
        }
        for (a, b) in self.data_mut().iter_mut().zip(other.data().iter()) {
            *a += *b;
        }
        Ok(())
    }

    /// Scales every element by `alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for v in self.data_mut() {
            *v *= alpha;
        }
    }

    /// Maximum absolute element difference against `other`; `None` when
    /// shapes differ. Used by tests for approximate equality.
    pub fn max_abs_diff(&self, other: &DenseBlock) -> Option<f64> {
        if self.rows != other.rows || self.cols != other.cols {
            return None;
        }
        Some(
            self.data()
                .iter()
                .zip(other.data().iter())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max),
        )
    }

    /// Frobenius norm of the block.
    pub fn frobenius_norm(&self) -> f64 {
        self.data().iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_shape_and_content() {
        let b = DenseBlock::zeros(3, 5);
        assert_eq!(b.rows(), 3);
        assert_eq!(b.cols(), 5);
        assert_eq!(b.len(), 15);
        assert!(b.data().iter().all(|&v| v == 0.0));
        assert_eq!(b.nnz(), 0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(DenseBlock::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(DenseBlock::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut b = DenseBlock::zeros(4, 4);
        b.set(2, 3, 7.5);
        assert_eq!(b.get(2, 3), 7.5);
        assert_eq!(b.nnz(), 1);
    }

    #[test]
    fn transpose_small() {
        let b = DenseBlock::from_fn(2, 3, |i, j| (i * 3 + j) as f64);
        let t = b.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(b.get(i, j), t.get(j, i));
            }
        }
    }

    #[test]
    fn transpose_involution_on_rectangular_block() {
        let b = DenseBlock::from_fn(67, 41, |i, j| (i as f64) * 0.5 - (j as f64) * 1.25);
        let tt = b.transpose().transpose();
        assert_eq!(b, tt);
    }

    #[test]
    fn add_assign_and_scale() {
        let mut a = DenseBlock::from_fn(2, 2, |i, j| (i + j) as f64);
        let b = DenseBlock::from_fn(2, 2, |_, _| 1.0);
        a.add_assign(&b).unwrap();
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(1, 1), 3.0);
        a.scale(2.0);
        assert_eq!(a.get(1, 1), 6.0);
    }

    #[test]
    fn add_assign_shape_mismatch_errors() {
        let mut a = DenseBlock::zeros(2, 2);
        let b = DenseBlock::zeros(2, 3);
        assert!(matches!(
            a.add_assign(&b),
            Err(MatrixError::DimensionMismatch { op: "add", .. })
        ));
    }

    #[test]
    fn identity_matmul_property_via_get() {
        let id = DenseBlock::identity(5);
        assert_eq!(id.nnz(), 5);
        assert_eq!(id.get(3, 3), 1.0);
        assert_eq!(id.get(3, 2), 0.0);
    }

    /// An 8-byte-aligned `Bytes` view carrying `vals` little-endian.
    fn aligned_bytes(vals: &[f64]) -> Bytes {
        let mut raw = vec![0u8; vals.len() * 8 + 8];
        let off = (8 - raw.as_ptr() as usize % 8) % 8;
        for (i, v) in vals.iter().enumerate() {
            raw[off + i * 8..off + (i + 1) * 8].copy_from_slice(&v.to_le_bytes());
        }
        Bytes::from(raw).slice(off..off + vals.len() * 8)
    }

    #[test]
    fn shared_view_reads_like_owned_storage() {
        let vals = [1.5, -2.0, 0.0, 9.25, 4.0, -0.5];
        let shared = DenseBlock::from_shared_bytes(2, 3, aligned_bytes(&vals)).unwrap();
        assert!(shared.is_shared());
        let owned = DenseBlock::from_vec(2, 3, vals.to_vec()).unwrap();
        assert!(!owned.is_shared());
        assert_eq!(shared, owned);
        assert_eq!(shared.data(), owned.data());
        assert_eq!(shared.get(1, 0), 9.25);
        assert_eq!(shared.mem_bytes(), 48);
        assert_eq!(shared.transpose(), owned.transpose());
    }

    #[test]
    fn mutating_a_shared_view_copies_on_write() {
        let vals = [1.0, 2.0, 3.0, 4.0];
        let bytes = aligned_bytes(&vals);
        let mut block = DenseBlock::from_shared_bytes(2, 2, bytes.clone()).unwrap();
        let twin = DenseBlock::from_shared_bytes(2, 2, bytes).unwrap();
        block.set(0, 0, 99.0);
        assert!(!block.is_shared(), "mutation materializes owned storage");
        assert_eq!(block.get(0, 0), 99.0);
        // The shared buffer itself is untouched: the twin still reads 1.0.
        assert!(twin.is_shared());
        assert_eq!(twin.get(0, 0), 1.0);
    }

    #[test]
    fn misaligned_or_missized_views_are_rejected() {
        let vals = [1.0, 2.0, 3.0, 4.0];
        let aligned = aligned_bytes(&vals);
        // Wrong length for the shape.
        assert!(DenseBlock::from_shared_bytes(3, 2, aligned.clone()).is_err());
        // Knock the view off 8-byte alignment by one byte.
        let mut raw = vec![0u8; vals.len() * 8 + 9];
        let off = (8 - raw.as_ptr() as usize % 8) % 8 + 1;
        for (i, v) in vals.iter().enumerate() {
            raw[off + i * 8..off + (i + 1) * 8].copy_from_slice(&v.to_le_bytes());
        }
        let misaligned = Bytes::from(raw).slice(off..off + vals.len() * 8);
        assert!(DenseBlock::from_shared_bytes(2, 2, misaligned).is_err());
    }

    #[test]
    fn frobenius_norm_matches_hand_computation() {
        let b = DenseBlock::from_vec(1, 2, vec![3.0, 4.0]).unwrap();
        assert!((b.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn max_abs_diff_detects_shape_mismatch_and_values() {
        let a = DenseBlock::zeros(2, 2);
        let b = DenseBlock::zeros(3, 2);
        assert!(a.max_abs_diff(&b).is_none());
        let mut c = DenseBlock::zeros(2, 2);
        c.set(0, 1, 0.25);
        assert_eq!(a.max_abs_diff(&c), Some(0.25));
    }
}

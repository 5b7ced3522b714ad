//! Compact binary block codec.
//!
//! DistME "exploits the data serialization and deserialization of SparkSQL to
//! reduce the amount of shuffled data" (§5). Our shuffle service serializes
//! blocks through this codec so that every communication-cost figure in the
//! benchmarks is measured on real bytes, not estimates.
//!
//! Wire format v2 (little-endian):
//! ```text
//! frame : [version: u8 = 0x02][body][crc32: u32 over version + body]
//! dense : body = [0x01][rows: u32][cols: u32][data: rows*cols f64]
//! sparse: body = [0x02][rows: u32][cols: u32][nnz: u32]
//!                [row_ptr: (rows+1) u32][col_idx: nnz u32][values: nnz f64]
//! ```
//!
//! Version 2 added the leading version byte and the trailing CRC-32 (IEEE)
//! frame checksum so the transport can tell a corrupted delivery from a
//! decodable one: [`decode_slice`] verifies the checksum **before** parsing
//! a single header field, which means a bit-flipped length can never drive
//! an allocation or a misparse — corruption is always a clean
//! [`MatrixError::Codec`] error. Version-1 frames (no checksum) are
//! rejected, not guessed at.
//!
//! On little-endian targets the `f64`/`u32` payload sections move as whole
//! slices (one `memcpy` each way) rather than element-at-a-time puts/gets;
//! big-endian targets fall back to the per-element loop. The produced bytes
//! are identical either way, so `tests/plan_parity.rs` and every ledger
//! charge are unaffected.
//!
//! A dense block that [`decode_view`] installs in place keeps the whole
//! frame it arrived in ([`resident_frame`]), and that frame *is* the
//! block's encoding for as long as nobody writes to the block: encoding it
//! again appends those bytes as they are.

use crate::block::Block;
use crate::dense::DenseBlock;
use crate::error::{MatrixError, Result};
use crate::sparse::CsrBlock;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Current wire-format version (leading frame byte).
pub const WIRE_VERSION: u8 = 0x02;

const TAG_DENSE: u8 = 0x01;
const TAG_SPARSE: u8 = 0x02;

/// Version byte + trailing CRC-32: bytes a frame carries beyond its body.
const FRAME_OVERHEAD: u64 = 5;

/// The byte-at-a-time CRC-32 table of the reflected IEEE polynomial.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = crc32_table();

/// The reference byte-at-a-time update: short inputs, the tail the folded
/// kernel leaves, CPUs without it — and the oracle it is tested against.
fn crc32_bytewise(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// PCLMULQDQ-folded CRC-32 over the same reflected IEEE polynomial: four
/// 128-bit lanes of carry-less multiplication fold 64 input bytes per
/// iteration, then Barrett reduction collapses the folded remainder to the
/// 32-bit CRC. Constants and fold order follow Intel's "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ" (the same schedule
/// zlib and the Linux kernel ship). Identical output to the table loop at
/// every length, so wire format v2 is unchanged byte for byte.
#[cfg(target_arch = "x86_64")]
mod pclmul {
    use std::arch::x86_64::*;

    // Folding constants for the reflected polynomial 0xEDB88320:
    // x^(4·128+32), x^(4·128-32), x^(128+32), x^(128-32), x^64 mod P, and
    // the Barrett pair (P', μ).
    const K1: i64 = 0x01_5444_2bd4;
    const K2: i64 = 0x01_c6e4_1596;
    const K3: i64 = 0x01_7519_97d0;
    const K4: i64 = 0x00_ccaa_009e;
    const K5: i64 = 0x01_63cd_6124;
    const POLY: i64 = 0x01_db71_0641;
    const MU: i64 = 0x01_f701_1641;

    /// Whether this CPU can run the folded kernel.
    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// Folds as many whole 16-byte lanes of `bytes` as possible into `crc`,
    /// returning the updated running CRC and the number of bytes consumed
    /// (a multiple of 16; the caller finishes the tail with the table loop).
    ///
    /// # Safety
    /// Requires `pclmulqdq` and `sse4.1` (checked via [`available`]) and
    /// `bytes.len() >= 64`.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    pub unsafe fn fold(crc: u32, bytes: &[u8]) -> (u32, usize) {
        debug_assert!(bytes.len() >= 64);
        let mut p = bytes.as_ptr();
        let mut len = bytes.len();

        let k1k2 = _mm_set_epi64x(K2, K1);
        let (mut x1, mut x2, mut x3, mut x4);
        // SAFETY: the caller guarantees `bytes.len() >= 64`, so the four
        // 16-byte loads and the 64-byte advance stay inside `bytes`.
        unsafe {
            x1 = _mm_loadu_si128(p.cast());
            x2 = _mm_loadu_si128(p.add(16).cast());
            x3 = _mm_loadu_si128(p.add(32).cast());
            x4 = _mm_loadu_si128(p.add(48).cast());
            p = p.add(64);
        }
        x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128(crc as i32));
        len -= 64;

        // Four independent lanes, 64 bytes per step.
        while len >= 64 {
            let f = |x: __m128i, next: __m128i| {
                _mm_xor_si128(
                    _mm_xor_si128(
                        _mm_clmulepi64_si128(x, k1k2, 0x00),
                        _mm_clmulepi64_si128(x, k1k2, 0x11),
                    ),
                    next,
                )
            };
            // SAFETY: `len >= 64` bytes of `bytes` remain at `p`: four
            // 16-byte loads, then `p` steps over the 64 just read.
            unsafe {
                x1 = f(x1, _mm_loadu_si128(p.cast()));
                x2 = f(x2, _mm_loadu_si128(p.add(16).cast()));
                x3 = f(x3, _mm_loadu_si128(p.add(32).cast()));
                x4 = f(x4, _mm_loadu_si128(p.add(48).cast()));
                p = p.add(64);
            }
            len -= 64;
        }

        // Fold the four lanes into one, then any remaining 16-byte lanes.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let fold1 = |a: __m128i, b: __m128i| {
            _mm_xor_si128(
                _mm_xor_si128(
                    _mm_clmulepi64_si128(a, k3k4, 0x00),
                    _mm_clmulepi64_si128(a, k3k4, 0x11),
                ),
                b,
            )
        };
        let mut x = fold1(x1, x2);
        x = fold1(x, x3);
        x = fold1(x, x4);
        while len >= 16 {
            // SAFETY: `len >= 16` bytes of `bytes` remain at `p`.
            unsafe {
                x = fold1(x, _mm_loadu_si128(p.cast()));
                p = p.add(16);
            }
            len -= 16;
        }

        // Reduce 128 → 64 bits, then Barrett-reduce to the 32-bit CRC.
        let mask32 = _mm_setr_epi32(!0, 0, !0, 0);
        let t = _mm_clmulepi64_si128(x, k3k4, 0x10);
        x = _mm_xor_si128(_mm_srli_si128(x, 8), t);
        let k5v = _mm_set_epi64x(0, K5);
        let t2 = _mm_srli_si128(x, 4);
        x = _mm_and_si128(x, mask32);
        x = _mm_clmulepi64_si128(x, k5v, 0x00);
        x = _mm_xor_si128(x, t2);

        let polymu = _mm_set_epi64x(MU, POLY);
        let mut t3 = _mm_and_si128(x, mask32);
        t3 = _mm_clmulepi64_si128(t3, polymu, 0x10);
        t3 = _mm_and_si128(t3, mask32);
        t3 = _mm_clmulepi64_si128(t3, polymu, 0x00);
        x = _mm_xor_si128(x, t3);

        (_mm_extract_epi32(x, 1) as u32, bytes.len() - len)
    }
}

/// One CRC implementation tier. The dispatcher picks the fastest available
/// at runtime (the same `is_x86_feature_detected!` + `#[target_feature]`
/// idiom as the GEMM kernels); both tiers compute the identical polynomial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrcTier {
    /// Reference byte-at-a-time table loop.
    Bytewise,
    /// PCLMULQDQ 4-lane folding (64 bytes per step, x86-64 only).
    Pclmul,
}

impl CrcTier {
    /// Every tier, slowest first.
    pub const ALL: [CrcTier; 2] = [CrcTier::Bytewise, CrcTier::Pclmul];

    /// Whether this tier can run on the current CPU.
    pub fn available(self) -> bool {
        match self {
            CrcTier::Bytewise => true,
            #[cfg(target_arch = "x86_64")]
            CrcTier::Pclmul => pclmul::available(),
            #[cfg(not(target_arch = "x86_64"))]
            CrcTier::Pclmul => false,
        }
    }

    /// Stable lowercase name (bench/diagnostic labels).
    pub fn name(self) -> &'static str {
        match self {
            CrcTier::Bytewise => "bytewise",
            CrcTier::Pclmul => "pclmul",
        }
    }
}

/// The tier large frames use on this machine (inputs below the fold
/// threshold take the table loop regardless).
pub fn active_crc_tier() -> CrcTier {
    if CrcTier::Pclmul.available() {
        CrcTier::Pclmul
    } else {
        CrcTier::Bytewise
    }
}

/// Streaming CRC state update (no init/final inversion): the folded kernel
/// where this CPU has it and the input is long enough, the table loop for
/// the rest. The fused frame encoder feeds each section it writes through
/// this, so a frame is checksummed as it is produced rather than by a
/// second full-frame scan.
fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= 64 && pclmul::available() {
        // SAFETY: feature support checked on this CPU; length >= 64.
        let (crc, consumed) = unsafe { pclmul::fold(crc, bytes) };
        return crc32_bytewise(crc, &bytes[consumed..]);
    }
    crc32_bytewise(crc, bytes)
}

/// CRC-32 (IEEE 802.3 polynomial) of `bytes` — the frame checksum. Detects
/// every single-bit error, which is exactly the corruption class the chaos
/// layer injects. Both tiers compute the identical polynomial, so wire
/// format v2 is unchanged byte for byte regardless of CPU.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(0xFFFF_FFFF, bytes)
}

/// CRC-32 of `bytes` computed with a specific tier (tests and the bench
/// prove the tiers identical and attribute throughput per tier). Returns
/// `None` when the tier is unavailable on this CPU.
pub fn crc32_with_tier(tier: CrcTier, bytes: &[u8]) -> Option<u32> {
    if !tier.available() {
        return None;
    }
    let crc = match tier {
        CrcTier::Bytewise => crc32_bytewise(0xFFFF_FFFF, bytes),
        // Availability checked above, so this is the dispatcher's path.
        CrcTier::Pclmul => crc32_update(0xFFFF_FFFF, bytes),
    };
    Some(!crc)
}

/// Byte offset of the `f64` payload inside a dense frame: version byte,
/// dense tag, and the two `u32` dimension fields. [`encode_aligned`] pads
/// the buffer so the payload at this offset lands on an 8-byte boundary,
/// which is what lets [`decode_view`] alias it as `&[f64]` without a copy.
pub const DENSE_PAYLOAD_OFFSET: usize = 10;

/// Fused frame writer: appends sections to the buffer and folds each one
/// into the running CRC while its bytes are still cache-hot, so sealing a
/// frame costs one pass over the data instead of a write pass plus a
/// second full-frame checksum scan.
struct FrameWriter<'a> {
    buf: &'a mut BytesMut,
    crc: u32,
}

impl<'a> FrameWriter<'a> {
    fn begin(buf: &'a mut BytesMut) -> Self {
        FrameWriter {
            buf,
            crc: 0xFFFF_FFFF,
        }
    }

    /// Appends one section via `write`, then checksums exactly the bytes it
    /// appended (endian-proof: the CRC sees the wire bytes, not the source
    /// values).
    fn section(&mut self, write: impl FnOnce(&mut BytesMut)) {
        let start = self.buf.len();
        write(self.buf);
        self.crc = crc32_update(self.crc, &self.buf[start..]);
    }

    /// Appends the CRC-32 trailer, completing the frame.
    fn seal(self) {
        let checksum = !self.crc;
        self.buf.put_u32_le(checksum);
    }
}

/// Serializes a block into a fresh buffer.
pub fn encode(block: &Block) -> Bytes {
    let mut buf = BytesMut::with_capacity(encoded_len(block) as usize);
    encode_into(block, &mut buf);
    buf.freeze()
}

/// The wire frame `block` is a zero-copy view of — byte for byte what
/// [`encode_into`] writes for it — when [`decode_view`] installed it in
/// place and nothing has written to it since. `None` for owned, sparse and
/// empty blocks and for frames that had to be decoded by copy. A caller
/// about to serialize the block can send, fold or copy these bytes
/// instead: they passed the checksum gate on arrival and are immutable.
pub fn resident_frame(block: &Block) -> Option<&Bytes> {
    match block {
        Block::Dense(d) => d.frame(),
        Block::Sparse(_) => None,
    }
}

/// Serializes a block, appending to a caller-owned buffer.
/// Checksumming is fused into the write: each section is folded into the
/// running CRC as it lands in the buffer, so no second full-frame scan.
/// A block that still is a view of the frame it arrived in
/// ([`resident_frame`]) is not serialized again: its frame is appended as
/// it is, one copy and no checksum pass.
pub fn encode_into(block: &Block, buf: &mut BytesMut) {
    if let Some(frame) = resident_frame(block) {
        buf.put_slice(frame);
        return;
    }
    buf.reserve(encoded_len(block) as usize);
    let mut w = FrameWriter::begin(buf);
    match block {
        Block::Dense(d) => {
            w.section(|b| {
                b.put_u8(WIRE_VERSION);
                b.put_u8(TAG_DENSE);
                b.put_u32_le(d.rows() as u32);
                b.put_u32_le(d.cols() as u32);
            });
            w.section(|b| put_f64_slice(b, d.data()));
        }
        Block::Sparse(s) => {
            w.section(|b| {
                b.put_u8(WIRE_VERSION);
                b.put_u8(TAG_SPARSE);
                b.put_u32_le(s.rows() as u32);
                b.put_u32_le(s.cols() as u32);
                b.put_u32_le(s.nnz() as u32);
            });
            w.section(|b| put_u32_slice(b, s.row_ptr()));
            w.section(|b| put_u32_slice(b, s.col_idx()));
            w.section(|b| put_f64_slice(b, s.values()));
        }
    }
    w.seal();
}

/// Serializes a block with the dense payload 8-byte aligned, returning the
/// number of zero pad bytes written *before* the frame. The frame itself
/// (`&buf[pad..]`) is byte-identical to [`encode_into`]'s output; the pad
/// only shifts where it starts so that the `f64` section at
/// [`DENSE_PAYLOAD_OFFSET`] lands on an 8-byte boundary and [`decode_view`]
/// can alias it in place. Sparse blocks never pad (their payload is decoded
/// by copy either way).
///
/// The full padded size is reserved up front, so the buffer's base address
/// — which the pad is computed from — cannot move mid-encode.
pub fn encode_aligned(block: &Block, buf: &mut BytesMut) -> usize {
    buf.reserve(encoded_len(block) as usize + 7);
    let pad = match block {
        Block::Dense(_) => {
            let payload_addr = buf.as_ref().as_ptr() as usize + buf.len() + DENSE_PAYLOAD_OFFSET;
            payload_addr.wrapping_neg() & 7
        }
        Block::Sparse(_) => 0,
    };
    for _ in 0..pad {
        buf.put_u8(0);
    }
    encode_into(block, buf);
    pad
}

/// Exact serialized size in bytes without encoding.
pub fn encoded_len(block: &Block) -> u64 {
    FRAME_OVERHEAD
        + match block {
            Block::Dense(d) => 1 + 4 + 4 + 8 * d.len() as u64,
            Block::Sparse(s) => {
                1 + 4 + 4 + 4 + 4 * (s.rows() as u64 + 1) + 4 * s.nnz() as u64 + 8 * s.nnz() as u64
            }
        }
}

#[cfg(target_endian = "little")]
fn put_f64_slice(buf: &mut BytesMut, vals: &[f64]) {
    // SAFETY: on a little-endian target the in-memory representation of an
    // `f64` slice is exactly its wire encoding; `f64` has no padding and
    // every bit pattern is a valid byte sequence.
    let bytes = unsafe {
        std::slice::from_raw_parts(vals.as_ptr().cast::<u8>(), std::mem::size_of_val(vals))
    };
    buf.put_slice(bytes);
}

#[cfg(not(target_endian = "little"))]
fn put_f64_slice(buf: &mut BytesMut, vals: &[f64]) {
    for &v in vals {
        buf.put_f64_le(v);
    }
}

#[cfg(target_endian = "little")]
fn put_u32_slice(buf: &mut BytesMut, vals: &[u32]) {
    // SAFETY: same little-endian reinterpretation as `put_f64_slice`.
    let bytes = unsafe {
        std::slice::from_raw_parts(vals.as_ptr().cast::<u8>(), std::mem::size_of_val(vals))
    };
    buf.put_slice(bytes);
}

#[cfg(not(target_endian = "little"))]
fn put_u32_slice(buf: &mut BytesMut, vals: &[u32]) {
    for &v in vals {
        buf.put_u32_le(v);
    }
}

#[cfg(target_endian = "little")]
fn get_f64_vec(buf: &mut &[u8], n: usize) -> Vec<f64> {
    let (head, rest) = buf.split_at(n * 8);
    let mut out = Vec::<f64>::with_capacity(n);
    // SAFETY: `head` holds exactly `n * 8` bytes (the caller seized them
    // after the payload precheck); every byte pattern is a valid `f64`, and
    // the copy fills the whole capacity before `set_len` exposes it —
    // skipping the `vec![0.0; n]` zeroing pass the copy would overwrite.
    unsafe {
        std::ptr::copy_nonoverlapping(head.as_ptr(), out.as_mut_ptr().cast::<u8>(), n * 8);
        out.set_len(n);
    }
    *buf = rest;
    out
}

#[cfg(not(target_endian = "little"))]
fn get_f64_vec(buf: &mut &[u8], n: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(buf.get_f64_le());
    }
    out
}

#[cfg(target_endian = "little")]
fn get_u32_vec(buf: &mut &[u8], n: usize) -> Vec<u32> {
    let (head, rest) = buf.split_at(n * 4);
    let mut out = Vec::<u32>::with_capacity(n);
    // SAFETY: same uninitialized-fill bulk copy as `get_f64_vec`.
    unsafe {
        std::ptr::copy_nonoverlapping(head.as_ptr(), out.as_mut_ptr().cast::<u8>(), n * 4);
        out.set_len(n);
    }
    *buf = rest;
    out
}

#[cfg(not(target_endian = "little"))]
fn get_u32_vec(buf: &mut &[u8], n: usize) -> Vec<u32> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(buf.get_u32_le());
    }
    out
}

/// Deserializes a block from shared bytes.
///
/// # Errors
/// Returns [`MatrixError::Codec`] on truncated or malformed input, and
/// [`MatrixError::InvalidSparseStructure`] if a decoded CSR violates its
/// invariants.
pub fn decode(buf: Bytes) -> Result<Block> {
    decode_slice(buf.as_ref())
}

/// All size prechecks run in u64: the header fields are
/// attacker-controlled u32s, and expressions like `4 * (rows + 1) +
/// 12 * nnz` overflow usize on 32-bit targets.
fn need(buf: &[u8], n: u64, what: &str) -> Result<()> {
    if (buf.len() as u64) < n {
        return Err(MatrixError::Codec(format!(
            "truncated input reading {what}: need {n} bytes, have {}",
            buf.len()
        )));
    }
    Ok(())
}

/// Verifies the frame checksum and version byte, returning the body (tag
/// onward). The checksum is verified over the whole frame before a single
/// header field is parsed, so a flipped length byte can never drive an
/// allocation — corruption of any kind is a clean error here.
fn checked_body(buf: &[u8]) -> Result<&[u8]> {
    need(buf, FRAME_OVERHEAD + 1, "frame")?;
    let (body, trailer) = buf.split_at(buf.len() - 4);
    let stored = u32::from_le_bytes(trailer.try_into().expect("4-byte crc trailer"));
    let computed = crc32(body);
    if stored != computed {
        return Err(MatrixError::Codec(format!(
            "frame checksum mismatch: stored 0x{stored:08x}, computed 0x{computed:08x}"
        )));
    }
    let version = body[0];
    if version != WIRE_VERSION {
        return Err(MatrixError::Codec(format!(
            "unsupported wire version 0x{version:02x} (expected 0x{WIRE_VERSION:02x})"
        )));
    }
    Ok(&body[1..])
}

/// Deserializes a block straight from a byte slice (no `Bytes` wrapper).
///
/// # Errors
/// See [`decode`].
pub fn decode_slice(buf: &[u8]) -> Result<Block> {
    parse_body(checked_body(buf)?)
}

/// Deserializes a checksum-verified body (the bytes after the version
/// byte), materializing every payload section into owned storage.
fn parse_body(mut buf: &[u8]) -> Result<Block> {
    need(buf, 1, "tag")?;
    let tag = buf.get_u8();
    match tag {
        TAG_DENSE => {
            need(buf, 8, "dense header")?;
            let rows = buf.get_u32_le() as usize;
            let cols = buf.get_u32_le() as usize;
            let n = rows
                .checked_mul(cols)
                .ok_or_else(|| MatrixError::Codec("dense dims overflow".into()))?;
            let payload = (n as u64)
                .checked_mul(8)
                .ok_or_else(|| MatrixError::Codec("dense payload overflow".into()))?;
            need(buf, payload, "dense payload")?;
            let data = get_f64_vec(&mut buf, n);
            Ok(Block::Dense(DenseBlock::from_vec(rows, cols, data)?))
        }
        TAG_SPARSE => {
            need(buf, 12, "sparse header")?;
            let rows = buf.get_u32_le();
            let cols = buf.get_u32_le();
            let nnz = buf.get_u32_le();
            let payload = 4u64
                .checked_mul(rows as u64 + 1)
                .and_then(|rp| rp.checked_add(12u64.checked_mul(nnz as u64)?))
                .ok_or_else(|| MatrixError::Codec("sparse payload overflow".into()))?;
            need(buf, payload, "sparse payload")?;
            let (rows, cols, nnz) = (rows as usize, cols as usize, nnz as usize);
            let row_ptr = get_u32_vec(&mut buf, rows + 1);
            let col_idx = get_u32_vec(&mut buf, nnz);
            let values = get_f64_vec(&mut buf, nnz);
            Ok(Block::Sparse(CsrBlock::from_raw_parts(
                rows, cols, row_ptr, col_idx, values,
            )?))
        }
        other => Err(MatrixError::Codec(format!(
            "unknown block tag 0x{other:02x}"
        ))),
    }
}

/// Deserializes a block as a zero-copy view into `frame` where possible.
///
/// For a dense frame whose `f64` payload sits on an 8-byte boundary (which
/// [`encode_aligned`] arranges), the returned block aliases the frame's
/// payload bytes through the `Bytes` refcount instead of copying them out —
/// the wire buffer *becomes* the block's storage and stays alive exactly as
/// long as the block does — and keeps the whole frame, so the next hop can
/// re-send it as it is ([`resident_frame`]). Falls back to
/// [`decode_slice`]'s materializing path for sparse frames, empty blocks,
/// misaligned payloads, and big-endian targets; the decoded value is
/// identical either way.
///
/// # Errors
/// See [`decode`]. The checksum is verified before any view is taken.
pub fn decode_view(frame: &Bytes) -> Result<Block> {
    let body = checked_body(frame.as_ref())?;
    #[cfg(target_endian = "little")]
    if body.first() == Some(&TAG_DENSE) && body.len() >= 9 {
        let rows = u32::from_le_bytes(body[1..5].try_into().expect("rows")) as usize;
        let cols = u32::from_le_bytes(body[5..9].try_into().expect("cols")) as usize;
        if let Some(n) = rows.checked_mul(cols) {
            let payload = (n as u64).checked_mul(8);
            if n > 0 && payload == Some(body.len() as u64 - 9) {
                // Misalignment is the only way this errors (length and
                // endianness are checked above) — materialize instead.
                if let Ok(d) =
                    DenseBlock::from_frame(rows, cols, frame.clone(), DENSE_PAYLOAD_OFFSET)
                {
                    return Ok(Block::Dense(d));
                }
            }
        }
    }
    parse_body(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_block() -> Block {
        Block::Dense(DenseBlock::from_fn(5, 7, |i, j| (i * 7 + j) as f64 * 0.5))
    }

    fn sparse_block() -> Block {
        Block::Sparse(
            CsrBlock::from_triplets(6, 4, vec![(0, 1, 1.5), (3, 0, -2.0), (5, 3, 9.0)]).unwrap(),
        )
    }

    /// Wraps a raw body in a valid v2 frame (version byte + CRC trailer) so
    /// negative tests exercise the *parser*, not the checksum gate.
    fn frame(body: &[u8]) -> Vec<u8> {
        let mut raw = vec![WIRE_VERSION];
        raw.extend_from_slice(body);
        let checksum = crc32(&raw);
        raw.extend_from_slice(&checksum.to_le_bytes());
        raw
    }

    /// Recomputes the CRC trailer of a frame mutated in place.
    fn reseal(raw: &mut [u8]) {
        let body_len = raw.len() - 4;
        let checksum = crc32(&raw[..body_len]);
        raw[body_len..].copy_from_slice(&checksum.to_le_bytes());
    }

    /// Seed-style per-element encoding: the bulk fast path must be
    /// byte-identical to it (the parity suite depends on this).
    fn encode_elementwise(block: &Block) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(encoded_len(block) as usize);
        match block {
            Block::Dense(d) => {
                buf.put_u8(TAG_DENSE);
                buf.put_u32_le(d.rows() as u32);
                buf.put_u32_le(d.cols() as u32);
                for &v in d.data() {
                    buf.put_f64_le(v);
                }
            }
            Block::Sparse(s) => {
                buf.put_u8(TAG_SPARSE);
                buf.put_u32_le(s.rows() as u32);
                buf.put_u32_le(s.cols() as u32);
                buf.put_u32_le(s.nnz() as u32);
                for &p in s.row_ptr() {
                    buf.put_u32_le(p);
                }
                for &c in s.col_idx() {
                    buf.put_u32_le(c);
                }
                for &v in s.values() {
                    buf.put_f64_le(v);
                }
            }
        }
        frame(&buf)
    }

    #[test]
    fn dense_roundtrip() {
        let b = dense_block();
        let bytes = encode(&b);
        assert_eq!(bytes.len() as u64, encoded_len(&b));
        let back = decode(bytes).unwrap();
        assert_eq!(b, back);
    }

    #[test]
    fn sparse_roundtrip() {
        let b = sparse_block();
        let bytes = encode(&b);
        assert_eq!(bytes.len() as u64, encoded_len(&b));
        let back = decode(bytes).unwrap();
        assert_eq!(b, back);
    }

    #[test]
    fn bulk_encoding_matches_elementwise_bytes() {
        for b in [dense_block(), sparse_block()] {
            assert_eq!(encode(&b).to_vec(), encode_elementwise(&b));
        }
    }

    #[test]
    fn encode_into_appends_and_reuses_buffer() {
        let b = dense_block();
        let mut buf = BytesMut::with_capacity(16);
        encode_into(&b, &mut buf);
        let first = buf.to_vec();
        buf.clear();
        encode_into(&b, &mut buf);
        assert_eq!(buf.as_ref(), &first[..]);
        assert_eq!(decode_slice(&buf).unwrap(), b);
    }

    #[test]
    fn empty_blocks_roundtrip() {
        for b in [
            Block::Dense(DenseBlock::zeros(0, 0)),
            Block::Sparse(CsrBlock::empty(3, 3)),
        ] {
            let back = decode(encode(&b)).unwrap();
            assert_eq!(b, back);
        }
    }

    #[test]
    fn truncated_input_is_rejected() {
        let bytes = encode(&dense_block());
        for cut in [0usize, 1, 5, 9, bytes.len() - 1] {
            let sliced = bytes.slice(0..cut);
            assert!(decode(sliced).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let raw = frame(&[0x7f, 0, 0, 0, 0]);
        assert!(matches!(
            decode(Bytes::from(raw)),
            Err(MatrixError::Codec(_))
        ));
    }

    #[test]
    fn wrong_version_is_rejected() {
        // A well-checksummed frame from a hypothetical other version must
        // not be parsed as v2.
        let mut raw = encode(&dense_block()).to_vec();
        raw[0] = 0x01;
        reseal(&mut raw);
        let err = decode_slice(&raw).unwrap_err();
        assert!(err.to_string().contains("wire version"), "{err}");
    }

    #[test]
    fn corrupt_sparse_structure_is_rejected() {
        // Encode a valid sparse block then corrupt a row pointer, resealing
        // the checksum so the structural validation is what rejects it.
        let bytes = encode(&sparse_block());
        let mut raw = bytes.to_vec();
        // row_ptr starts at offset 14 (version byte + 13-byte sparse
        // header); write a huge value into the first ptr.
        raw[14] = 0xff;
        raw[15] = 0xff;
        reseal(&mut raw);
        assert!(decode(Bytes::from(raw)).is_err());
    }

    #[test]
    fn huge_sparse_header_is_rejected_not_overflowed() {
        // rows = nnz = u32::MAX: the old usize precheck `4 * (rows + 1) +
        // 12 * nnz` wraps on 32-bit targets and under-asks; the u64 check
        // must reject the 12-byte payload no matter the word size.
        let mut body = vec![TAG_SPARSE];
        body.extend_from_slice(&u32::MAX.to_le_bytes()); // rows
        body.extend_from_slice(&4u32.to_le_bytes()); // cols
        body.extend_from_slice(&u32::MAX.to_le_bytes()); // nnz
        body.extend_from_slice(&[0u8; 64]);
        assert!(matches!(
            decode(Bytes::from(frame(&body))),
            Err(MatrixError::Codec(_))
        ));
    }

    #[test]
    fn huge_dense_header_is_rejected() {
        let mut body = vec![TAG_DENSE];
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        body.extend_from_slice(&[0u8; 32]);
        assert!(matches!(
            decode(Bytes::from(frame(&body))),
            Err(MatrixError::Codec(_))
        ));
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        // The chaos layer corrupts frames by flipping one bit; CRC-32
        // detects all single-bit errors, so every position in the frame —
        // header, payload, version byte, or the checksum itself — must
        // yield a clean decode error, never a panic or accepted garbage.
        // The guarantee must hold on *every* dispatch tier: a SIMD CRC that
        // missed a flip the scalar one catches would make corruption
        // detection machine-dependent.
        let tiers: Vec<CrcTier> = CrcTier::ALL.into_iter().filter(|t| t.available()).collect();
        for block in [dense_block(), sparse_block()] {
            let clean = encode(&block).to_vec();
            for byte in 0..clean.len() {
                for bit in 0..8 {
                    let mut raw = clean.clone();
                    raw[byte] ^= 1 << bit;
                    let err = decode_slice(&raw);
                    assert!(err.is_err(), "flip at byte {byte} bit {bit} was accepted");
                    let (body, trailer) = raw.split_at(raw.len() - 4);
                    let stored = u32::from_le_bytes(trailer.try_into().unwrap());
                    for &tier in &tiers {
                        assert_ne!(
                            crc32_with_tier(tier, body).unwrap(),
                            stored,
                            "{} tier missed flip at byte {byte} bit {bit}",
                            tier.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn decode_view_of_aligned_frame_is_zero_copy() {
        let b = dense_block();
        let mut buf = BytesMut::with_capacity(16);
        let pad = encode_aligned(&b, &mut buf);
        // The frame after the pad is byte-identical to a plain encode.
        assert_eq!(&buf[pad..], encode(&b).as_ref());
        let wire = buf.freeze();
        let frame = wire.slice(pad..wire.len());
        let payload_ptr = frame.as_ref()[DENSE_PAYLOAD_OFFSET..].as_ptr();
        assert_eq!(payload_ptr as usize % 8, 0, "pad must align the payload");
        let back = decode_view(&frame).unwrap();
        assert_eq!(back, b);
        match &back {
            Block::Dense(d) => {
                assert!(d.is_shared(), "aligned dense decode must alias the frame");
                assert_eq!(
                    d.data().as_ptr().cast::<u8>(),
                    payload_ptr,
                    "view must point into the wire buffer"
                );
            }
            Block::Sparse(_) => panic!("dense frame decoded as sparse"),
        }
    }

    #[test]
    fn decode_view_falls_back_to_a_copy_when_misaligned() {
        let b = dense_block();
        let plain = encode(&b).to_vec();
        // Re-host the frame at every offset 0..8: whatever the payload
        // alignment lands on, the decode must succeed and agree.
        for shift in 0..8usize {
            let mut host = vec![0u8; shift];
            host.extend_from_slice(&plain);
            let wire = Bytes::from(host);
            let frame = wire.slice(shift..wire.len());
            let back = decode_view(&frame).unwrap();
            assert_eq!(back, b, "shift {shift}");
            let aligned =
                (frame.as_ref()[DENSE_PAYLOAD_OFFSET..].as_ptr() as usize).is_multiple_of(8);
            match &back {
                Block::Dense(d) => assert_eq!(d.is_shared(), aligned, "shift {shift}"),
                Block::Sparse(_) => panic!("dense frame decoded as sparse"),
            }
        }
    }

    #[test]
    fn decode_view_materializes_sparse_and_empty_frames() {
        for b in [
            sparse_block(),
            Block::Dense(DenseBlock::zeros(0, 0)),
            Block::Sparse(CsrBlock::empty(3, 3)),
        ] {
            let mut buf = BytesMut::with_capacity(16);
            let pad = encode_aligned(&b, &mut buf);
            if matches!(b, Block::Sparse(_)) {
                assert_eq!(pad, 0, "sparse frames never pad");
            }
            let wire = buf.freeze();
            let frame = wire.slice(pad..wire.len());
            let back = decode_view(&frame).unwrap();
            assert_eq!(back, b);
            if let Block::Dense(d) = &back {
                assert!(!d.is_shared(), "empty dense must not alias");
            }
        }
    }

    #[test]
    fn decode_view_rejects_corruption() {
        let mut buf = BytesMut::with_capacity(16);
        let pad = encode_aligned(&dense_block(), &mut buf);
        buf[pad + DENSE_PAYLOAD_OFFSET + 3] ^= 0x40;
        let wire = buf.freeze();
        let frame = wire.slice(pad..wire.len());
        let err = decode_view(&frame).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn checksum_gate_runs_before_header_parse() {
        // A bit-flipped dense `rows` field that would ask for ~2^35 payload
        // bytes must be caught by the checksum, not the payload precheck
        // (and certainly must not allocate).
        let mut raw = encode(&dense_block()).to_vec();
        raw[3] ^= 0x80; // high byte of `rows`
        let err = decode_slice(&raw).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn every_tier_matches_the_bytewise_reference_at_every_length() {
        // Each fast path must be a pure drop-in: same polynomial, same
        // checksum for every input length across every dispatch threshold
        // (pclmul's 64-byte entry and 16-byte lanes, and every 1..=15-byte
        // tail in between).
        let mut state = 0x1234_5678_9abc_def0u64;
        let data: Vec<u8> = (0..257)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 56) as u8
            })
            .collect();
        for len in 0..=data.len() {
            let reference = !crc32_bytewise(0xFFFF_FFFF, &data[..len]);
            for tier in CrcTier::ALL {
                match crc32_with_tier(tier, &data[..len]) {
                    Some(crc) => {
                        assert_eq!(crc, reference, "{} at len {len}", tier.name())
                    }
                    None => assert!(!tier.available()),
                }
            }
            assert_eq!(crc32(&data[..len]), reference, "dispatch at len {len}");
        }
        // Known-answer check pinning the polynomial itself.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn a_tier_is_always_active_and_named() {
        let active = active_crc_tier();
        assert!(active.available());
        assert!(!active.name().is_empty());
        // The table loop exists everywhere; pclmul only where detected.
        assert!(CrcTier::Bytewise.available());
        assert_eq!(
            crc32_with_tier(CrcTier::Pclmul, b"xyz").is_some(),
            CrcTier::Pclmul.available()
        );
    }

    #[test]
    fn sparse_encoding_is_smaller_for_sparse_data() {
        let s = sparse_block();
        let d = Block::Dense(s.to_dense());
        assert!(encoded_len(&s) < encoded_len(&d));
    }
}

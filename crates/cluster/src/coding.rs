//! Coded replication: k-of-n block recovery without lineage recompute.
//!
//! Placement dual-homes every block, but a block whose two salted homes
//! coincide has a single physical copy — lose that node and a
//! decommission can only surface a typed [`NodeDecommissioned`] failure,
//! and a blackout recovery must replay the full lineage. This module
//! treats loss as a *planning input* instead (Kiani et al.'s coded cuboid
//! partitioning): the copy-0 blocks of each matrix are bucketed by their
//! canonical home and grouped so every group's members live on **distinct**
//! canonical homes, then each group gets one XOR parity stripe
//! ([`ReplicationPolicy::Xor`], erasure budget 1) or a RAID-6-style P+Q
//! pair over GF(256) ([`ReplicationPolicy::RsLite`], budget 2),
//! materialized on a node that is none of the members' homes. A single
//! node loss therefore erases at most one member per group, and any
//! k-of-n survivors reconstruct the missing block bit-identically from
//! the parity — no producer copy, no lineage recompute.
//!
//! Parity is computed over the **canonical wire frames**
//! (`codec::encode_into` bytes, CRC and all) zero-padded to the group's
//! longest frame, so a decoded stripe is decodable by `codec::decode_slice`
//! into a block whose content is bit-identical to the original. The parity
//! stripe itself travels inside an ordinary dense block (a length-prefixed
//! byte payload stored as f64 bit patterns), stored under
//! [`StoreKind::Parity`] keys that arithmetic and `BlockView` never see.
//!
//! Encoding is a fold, not a gather: [`parity_groups`] turns one
//! resident-key snapshot into the groups of every matrix to code, and
//! [`encode_group`] — one call per group, so the executor runs all groups
//! as one gang — folds each member's `frame_len` frame bytes straight into
//! the parity envelope(s), laid out beforehand from the members'
//! `codec::encoded_len`s in the very buffer the installed parity block
//! aliases. A member that is a view of its wire frame (every dense block
//! a delivery installed) is folded from those resident bytes where they
//! lie; only owned and sparse members are serialized, into one frame
//! buffer the group reuses. The zero pad is never materialized (folding
//! zeros changes nothing): one buffer per parity block, plus at most one
//! scratch frame per group, where gathering padded frames first costs four
//! block-sized buffers per member. During a resize the envelope buffers
//! come from the blocks the resize evicted (`store::FreeBuffers`).
//! [`encode_stripes`] over padded frames remains the definition the fold
//! is tested against.
//!
//! Recovery precedence everywhere: parity decode → lineage → typed
//! failure. Beyond-budget erasures return [`CodingError`], never wrong
//! bytes.
//!
//! [`NodeDecommissioned`]: crate::failure::JobError::NodeDecommissioned
//! [`StoreKind::Parity`]: crate::store::StoreKind

use crate::rebalance::home_node;
use crate::store::{ClusterStores, FreeBuffers, StoreKey};
use bytes::{BufMut, BytesMut};
use distme_matrix::{codec, Block, BlockId, DenseBlock};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// How much derived redundancy placement materializes per coded group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplicationPolicy {
    /// No parity: placement and recovery behave exactly as before coding
    /// existed (the default — every pre-coding byte-identity suite runs
    /// under this).
    #[default]
    Off,
    /// One XOR parity block per group: any single erased member decodes
    /// from the survivors. Storage overhead ≈ 1/group_size.
    Xor,
    /// Reed–Solomon-lite (RAID-6 P+Q over GF(256)): any two erased members
    /// decode. Storage overhead ≈ 2/group_size.
    RsLite,
}

impl ReplicationPolicy {
    /// Parity blocks per group — also the erasure budget (`m` of the
    /// `k + m` code).
    pub fn parity_count(self) -> usize {
        match self {
            ReplicationPolicy::Off => 0,
            ReplicationPolicy::Xor => 1,
            ReplicationPolicy::RsLite => 2,
        }
    }

    /// Human-readable knob name (config validation messages).
    pub fn name(self) -> &'static str {
        match self {
            ReplicationPolicy::Off => "off",
            ReplicationPolicy::Xor => "xor",
            ReplicationPolicy::RsLite => "rs-lite",
        }
    }
}

/// Typed decode failure: more group members erased than the available
/// parity can reconstruct. The caller falls back to lineage (or surfaces a
/// typed job error) — a failed decode never yields wrong bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodingError {
    /// Erased data members in the group.
    pub lost: usize,
    /// Erasures the surviving parity could have absorbed.
    pub budget: usize,
}

impl fmt::Display for CodingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "erasure budget exceeded: {} member(s) lost, surviving parity decodes at most {}",
            self.lost, self.budget
        )
    }
}

impl std::error::Error for CodingError {}

/// Upper bound on coded-group size: bounds both the decode fan-in and the
/// blast radius of a beyond-budget loss.
pub const MAX_GROUP: usize = 8;

// ---------------------------------------------------------------------------
// GF(256) arithmetic (polynomial 0x11d), built at compile time.
// ---------------------------------------------------------------------------

const fn gf_tables() -> ([u8; 512], [u8; 256]) {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= 0x11d;
        }
        i += 1;
    }
    // Mirror the cycle so `exp[log a + log b]` and `exp[255 + log a - log b]`
    // never need a modulo.
    let mut j = 255;
    while j < 512 {
        exp[j] = exp[j - 255];
        j += 1;
    }
    (exp, log)
}

const GF: ([u8; 512], [u8; 256]) = gf_tables();
const GF_EXP: [u8; 512] = GF.0;
const GF_LOG: [u8; 256] = GF.1;

fn gf_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        GF_EXP[GF_LOG[a as usize] as usize + GF_LOG[b as usize] as usize]
    }
}

fn gf_div(a: u8, b: u8) -> u8 {
    debug_assert!(b != 0, "GF(256) division by zero");
    if a == 0 {
        0
    } else {
        GF_EXP[255 + GF_LOG[a as usize] as usize - GF_LOG[b as usize] as usize]
    }
}

/// The RS generator coefficient of member `i`: `g^i` with `g = 2`.
fn gen_coef(i: usize) -> u8 {
    GF_EXP[i]
}

fn xor_into(dst: &mut [u8], src: &[u8]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// `dst ^= coef · src` over GF(256), via a per-coefficient product table
/// (one 256-byte build amortized over the whole stripe).
fn mul_xor_into(dst: &mut [u8], src: &[u8], coef: u8) {
    match coef {
        0 => {}
        1 => xor_into(dst, src),
        _ => {
            let mut table = [0u8; 256];
            for (b, t) in table.iter_mut().enumerate() {
                *t = gf_mul(coef, b as u8);
            }
            for (d, s) in dst.iter_mut().zip(src) {
                *d ^= table[*s as usize];
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Stripe-level encode / decode.
// ---------------------------------------------------------------------------

/// Folds member `i`'s frame `d` into its group's parity stripe `p`
/// (`P ^= d`, `Q ^= gⁱ·d`), touching only `d.len()` bytes: a shorter
/// member's zero pad contributes nothing to either sum.
fn fold_member(stripe: &mut [u8], p: usize, i: usize, d: &[u8]) {
    match p {
        0 => xor_into(stripe, d),
        _ => mul_xor_into(stripe, d, gen_coef(i)),
    }
}

/// Encodes the parity stripes for one group. `stripes[i]` is member `i`'s
/// frame zero-padded to the common stripe length; returns `parity_count`
/// stripes (P = ⊕dᵢ, then Q = ⊕ gⁱ·dᵢ) — the definition of the code;
/// [`encode_group`] computes the same stripes without the padding.
pub fn encode_stripes(stripes: &[Vec<u8>], parity_count: usize, stripe_len: usize) -> Vec<Vec<u8>> {
    let mut out = vec![vec![0u8; stripe_len]; parity_count];
    for (p, parity) in out.iter_mut().enumerate() {
        for (i, d) in stripes.iter().enumerate() {
            debug_assert_eq!(d.len(), stripe_len);
            fold_member(parity, p, i, d);
        }
    }
    out
}

/// Reconstructs the erased members of one group in place. `data[i]` is
/// `Some` for survivors and `None` for erasures; `parity[p]` likewise for
/// the parity stripes (`parity[0]` = P, `parity[1]` = Q). On success every
/// `data[i]` is `Some` and bit-identical to what was encoded.
///
/// # Errors
/// [`CodingError`] when more members are erased than the surviving parity
/// can decode — `data` is left untouched, never filled with wrong bytes.
pub fn decode_group(
    data: &mut [Option<Vec<u8>>],
    parity: &[Option<&[u8]>],
    stripe_len: usize,
) -> Result<(), CodingError> {
    let missing: Vec<usize> = data
        .iter()
        .enumerate()
        .filter(|(_, d)| d.is_none())
        .map(|(i, _)| i)
        .collect();
    let p = parity.first().copied().flatten();
    let q = parity.get(1).copied().flatten();
    let budget = usize::from(p.is_some()) + usize::from(q.is_some());
    if missing.len() > budget {
        return Err(CodingError {
            lost: missing.len(),
            budget,
        });
    }
    match missing.as_slice() {
        [] => Ok(()),
        [j] => {
            let j = *j;
            let rebuilt = if let Some(p) = p {
                // d_j = P ⊕ ⊕_{i≠j} d_i
                let mut acc = p.to_vec();
                for d in data.iter().flatten() {
                    xor_into(&mut acc, d);
                }
                acc
            } else {
                // d_j = (Q ⊕ ⊕_{i≠j} gⁱ·d_i) / gʲ
                let q = q.expect("budget covers the erasure");
                let mut acc = q.to_vec();
                for (i, d) in data.iter().enumerate() {
                    if let Some(d) = d {
                        mul_xor_into(&mut acc, d, gen_coef(i));
                    }
                }
                let inv = gf_div(1, gen_coef(j));
                let mut rebuilt = vec![0u8; stripe_len];
                mul_xor_into(&mut rebuilt, &acc, inv);
                rebuilt
            };
            data[j] = Some(rebuilt);
            Ok(())
        }
        [a, b] => {
            // RAID-6 two-erasure decode: with x = d_a ⊕ d_b and
            // y = gᵃ·d_a ⊕ gᵇ·d_b,
            //   d_b = (y ⊕ gᵃ·x) / (gᵃ ⊕ gᵇ),   d_a = x ⊕ d_b.
            let (a, b) = (*a, *b);
            let (p, q) = (
                p.expect("budget 2 requires P"),
                q.expect("budget 2 requires Q"),
            );
            let mut x = p.to_vec();
            let mut y = q.to_vec();
            for (i, d) in data.iter().enumerate() {
                if let Some(d) = d {
                    xor_into(&mut x, d);
                    mul_xor_into(&mut y, d, gen_coef(i));
                }
            }
            let (ga, gb) = (gen_coef(a), gen_coef(b));
            mul_xor_into(&mut y, &x, ga); // y ⊕= gᵃ·x
            let inv = gf_div(1, ga ^ gb);
            let mut db = vec![0u8; stripe_len];
            mul_xor_into(&mut db, &y, inv);
            xor_into(&mut x, &db);
            data[a] = Some(x);
            data[b] = Some(db);
            Ok(())
        }
        _ => unreachable!("missing.len() <= budget <= 2"),
    }
}

// ---------------------------------------------------------------------------
// Group assignment and parity placement.
// ---------------------------------------------------------------------------

/// Largest group the grid supports: every member needs a distinct canonical
/// home and the parity block(s) need homes of their own.
pub fn group_size_cap(nodes: usize, policy: ReplicationPolicy) -> usize {
    nodes.saturating_sub(policy.parity_count()).min(MAX_GROUP)
}

/// Deterministic group assignment for a matrix's copy-0 keys: bucket by
/// canonical home (`home_node(id, 0, nodes)`), then take one block per
/// bucket per round (node order) and chunk each round to the grid's cap —
/// so members of a group always sit on **distinct** canonical homes, and a
/// single node loss erases at most one sole-copy member per group.
pub fn assign_groups(
    keys: &[StoreKey],
    nodes: usize,
    policy: ReplicationPolicy,
) -> Vec<Vec<StoreKey>> {
    let cap = group_size_cap(nodes, policy);
    if cap == 0 {
        return Vec::new();
    }
    let mut buckets: BTreeMap<usize, Vec<StoreKey>> = BTreeMap::new();
    for k in keys {
        if k.copy == 0 && !k.is_parity() {
            buckets
                .entry(home_node(k.id, 0, nodes))
                .or_default()
                .push(*k);
        }
    }
    let mut groups = Vec::new();
    let mut round = 0usize;
    loop {
        let members: Vec<StoreKey> = buckets
            .values()
            .filter_map(|b| b.get(round).copied())
            .collect();
        if members.is_empty() {
            break;
        }
        for chunk in members.chunks(cap) {
            groups.push(chunk.to_vec());
        }
        round += 1;
    }
    groups
}

/// Deterministic parity placement: probe the placement hash at salts ≥ 3
/// (0–2 are the data spaces) until a node that is neither a member's
/// canonical home nor already holding this group's other parity turns up.
/// The group-size cap guarantees such a node exists.
pub fn parity_home(leader: BlockId, avoid: &BTreeSet<usize>, nodes: usize) -> usize {
    for salt in 3..3 + 4 * nodes as u64 {
        let cand = home_node(leader, salt, nodes);
        if !avoid.contains(&cand) {
            return cand;
        }
    }
    (0..nodes)
        .find(|n| !avoid.contains(n))
        .expect("group-size cap leaves a free node for parity")
}

// ---------------------------------------------------------------------------
// Parity payload: a self-describing byte envelope inside a dense block.
// ---------------------------------------------------------------------------

const PARITY_MAGIC: u32 = 0x4350_4152; // "CPAR"
const PARITY_VERSION: u8 = 1;

/// One group member as recorded in a parity block's header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParityMember {
    /// Grid position of the member.
    pub id: BlockId,
    /// Producer copy (always 0 today — only copy-0 keys are coded).
    pub copy: u32,
    /// The member's exact canonical frame length (its stripe is
    /// zero-padded beyond this).
    pub frame_len: u64,
}

/// Decoded header + stripe of one parity block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParityPayload {
    /// Which scheme encoded this group.
    pub policy: ReplicationPolicy,
    /// Index of this stripe (0 = P, 1 = Q).
    pub parity_index: u8,
    /// The group's members, in member-index order.
    pub members: Vec<ParityMember>,
    /// The parity stripe (group's longest frame, zero-padded).
    pub stripe: Vec<u8>,
}

/// The header of a parity block's envelope; `stripe_len` bytes of stripe
/// follow it.
fn envelope_header(
    policy: ReplicationPolicy,
    parity_index: u8,
    members: &[ParityMember],
    stripe_len: usize,
) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(16 + 20 * members.len());
    bytes.extend_from_slice(&PARITY_MAGIC.to_le_bytes());
    bytes.push(PARITY_VERSION);
    bytes.push(match policy {
        ReplicationPolicy::Off => 0,
        ReplicationPolicy::Xor => 1,
        ReplicationPolicy::RsLite => 2,
    });
    bytes.push(parity_index);
    bytes.push(u8::try_from(members.len()).expect("group fits MAX_GROUP"));
    bytes.extend_from_slice(&(stripe_len as u64).to_le_bytes());
    for m in members {
        bytes.extend_from_slice(&m.id.row.to_le_bytes());
        bytes.extend_from_slice(&m.id.col.to_le_bytes());
        bytes.extend_from_slice(&m.copy.to_le_bytes());
        bytes.extend_from_slice(&m.frame_len.to_le_bytes());
    }
    bytes
}

/// Wraps a finished envelope (header + stripe) in an ordinary dense
/// block: a length prefix plus the raw bytes as f64 bit patterns
/// (bit-exact through any store or codec hop, untouched by arithmetic —
/// parity keys are never operands). [`encode_group`] lays the same words
/// out in place instead.
fn envelope_block(bytes: &[u8]) -> Block {
    let mut words = Vec::with_capacity(1 + bytes.len().div_ceil(8));
    words.push(f64::from_bits(bytes.len() as u64));
    let whole = bytes.chunks_exact(8);
    let tail = whole.remainder();
    words.extend(
        whole.map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8-byte chunk")))),
    );
    if !tail.is_empty() {
        let mut w = [0u8; 8];
        w[..tail.len()].copy_from_slice(tail);
        words.push(f64::from_bits(u64::from_le_bytes(w)));
    }
    let cols = words.len();
    Block::Dense(DenseBlock::from_vec(1, cols, words).expect("length matches"))
}

/// Serializes a parity payload into its store block.
pub fn pack_parity(payload: &ParityPayload) -> Block {
    let stripe = &payload.stripe;
    let mut bytes = envelope_header(
        payload.policy,
        payload.parity_index,
        &payload.members,
        stripe.len(),
    );
    bytes.extend_from_slice(stripe);
    envelope_block(&bytes)
}

/// Parses a block produced by [`pack_parity`]. `None` if the block is not a
/// parity envelope (wrong shape, magic, or version) or describes a member
/// frame longer than the stripe that is supposed to cover it.
pub fn unpack_parity(block: &Block) -> Option<ParityPayload> {
    let Block::Dense(d) = block else { return None };
    let data = d.data();
    let len = data.first()?.to_bits() as usize;
    let mut bytes = Vec::with_capacity((data.len() - 1) * 8);
    for w in &data[1..] {
        bytes.extend_from_slice(&w.to_bits().to_le_bytes());
    }
    if len > bytes.len() {
        return None;
    }
    bytes.truncate(len);

    let mut r = Reader(&bytes);
    if r.u32()? != PARITY_MAGIC || r.u8()? != PARITY_VERSION {
        return None;
    }
    let policy = match r.u8()? {
        1 => ReplicationPolicy::Xor,
        2 => ReplicationPolicy::RsLite,
        _ => return None,
    };
    let parity_index = r.u8()?;
    let count = r.u8()? as usize;
    let stripe_len = r.u64()? as usize;
    let mut members = Vec::with_capacity(count);
    for _ in 0..count {
        members.push(ParityMember {
            id: BlockId::new(r.u32()?, r.u32()?),
            copy: r.u32()?,
            frame_len: r.u64()?,
        });
    }
    if members.iter().any(|m| m.frame_len > stripe_len as u64) {
        return None;
    }
    let stripe = r.take(stripe_len)?.to_vec();
    Some(ParityPayload {
        policy,
        parity_index,
        members,
        stripe,
    })
}

struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.0.len() < n {
            return None;
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Some(head)
    }
    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }
    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }
    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }
}

// ---------------------------------------------------------------------------
// Store-level encode and reconstruct.
// ---------------------------------------------------------------------------

/// A block's canonical wire frame — the bytes parity is computed over —
/// zero-padded to its group's stripe length (the decode side's operand).
fn padded_frame(block: &Block, stripe_len: usize) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(codec::encoded_len(block) as usize);
    codec::encode_into(block, &mut buf);
    let mut frame = buf.to_vec();
    frame.resize(stripe_len, 0);
    frame
}

/// One coded group awaiting encode: its members in member-index order,
/// each with a node holding a copy.
pub type ParityGroup = Vec<(StoreKey, usize)>;

/// The groups to encode for `matrices` over the `nodes`-node grid, from
/// one resident-key snapshot: every resident copy-0 block of each matrix,
/// grouped by [`assign_groups`]. Empty when the policy is off or the grid
/// is too small to place parity off-member; a matrix that already has
/// parity resident contributes nothing (encoding is idempotent).
pub fn parity_groups(
    snapshot: &BTreeMap<StoreKey, BTreeSet<usize>>,
    matrices: &BTreeSet<u64>,
    nodes: usize,
    policy: ReplicationPolicy,
) -> Vec<ParityGroup> {
    let mut groups = Vec::new();
    if policy.parity_count() == 0 {
        return groups;
    }
    for &matrix in matrices {
        let resident = || snapshot.iter().filter(move |(k, _)| k.matrix == matrix);
        if resident().any(|(k, _)| k.is_parity()) {
            continue;
        }
        let holder_of: BTreeMap<StoreKey, usize> = resident()
            .filter(|(k, _)| k.copy == 0)
            .filter_map(|(k, holders)| Some((*k, *holders.first()?)))
            .collect();
        let keys: Vec<StoreKey> = holder_of.keys().copied().collect();
        for group in assign_groups(&keys, nodes, policy) {
            groups.push(group.into_iter().map(|k| (k, holder_of[&k])).collect());
        }
    }
    groups
}

/// Encodes one group and installs its parity block(s) — bit for bit
/// [`pack_parity`] over [`encode_stripes`] of the padded member frames.
/// Returns how many were installed: 0 if a member was evicted since the
/// snapshot (the group is abandoned quietly; parity is derived state).
///
/// Each envelope is laid out once, in the buffer the installed block will
/// alias — length word, header, zeroed stripe, drawn from `buffers` — and
/// the members are folded into it where it lies: a member that is a view
/// of its wire frame contributes those resident bytes as they are, any
/// other is serialized into one frame buffer the group reuses.
pub fn encode_group(
    stores: &ClusterStores,
    group: &ParityGroup,
    nodes: usize,
    policy: ReplicationPolicy,
    buffers: &FreeBuffers,
) -> u64 {
    let blocks: Option<Vec<Arc<Block>>> = group
        .iter()
        .map(|(k, holder)| stores.node(*holder).get(k))
        .collect();
    let Some(blocks) = blocks else { return 0 };
    let members: Vec<ParityMember> = group
        .iter()
        .zip(&blocks)
        .map(|((k, _), blk)| ParityMember {
            id: k.id,
            copy: k.copy,
            frame_len: codec::encoded_len(blk),
        })
        .collect();
    let stripe_len = members.iter().map(|m| m.frame_len).max().unwrap_or(0) as usize;

    // The words of `envelope_block`, written where they will stay: the
    // buffer's first 0–7 bytes are skipped so the words sit 8-byte aligned.
    let mut envelopes: Vec<(BytesMut, usize, std::ops::Range<usize>)> = (0..policy.parity_count())
        .map(|p| {
            let header = envelope_header(policy, p as u8, &members, stripe_len);
            let len = header.len() + stripe_len;
            let mut buf = buffers.take(7 + 8 + len.next_multiple_of(8));
            let skip = (buf.as_ref().as_ptr() as usize).wrapping_neg() & 7;
            buf.resize(skip, 0);
            buf.put_slice(&(len as u64).to_le_bytes());
            buf.put_slice(&header);
            let stripe_at = buf.len();
            buf.resize(skip + 8 + len.next_multiple_of(8), 0);
            (buf, skip, stripe_at..stripe_at + stripe_len)
        })
        .collect();
    let mut scratch = BytesMut::default();
    for (i, blk) in blocks.iter().enumerate() {
        let frame: &[u8] = match codec::resident_frame(blk) {
            Some(frame) => frame,
            None => {
                scratch.clear();
                codec::encode_into(blk, &mut scratch);
                &scratch
            }
        };
        for (p, (buf, _, stripe)) in envelopes.iter_mut().enumerate() {
            fold_member(&mut buf[stripe.clone()], p, i, frame);
        }
    }

    let (leader, _) = group[0];
    let mut avoid: BTreeSet<usize> = members.iter().map(|m| home_node(m.id, 0, nodes)).collect();
    for (p, (buf, skip, _)) in envelopes.into_iter().enumerate() {
        let home = parity_home(leader.id, &avoid, nodes);
        avoid.insert(home);
        let words = buf.freeze();
        let words = words.slice(skip..words.len());
        let block = DenseBlock::from_shared_bytes(1, words.len() / 8, words)
            .expect("whole words, laid out 8-byte aligned");
        stores.ingest(
            home,
            StoreKey::parity(leader.matrix, leader.id, p as u32),
            Arc::new(Block::Dense(block)),
        );
    }
    policy.parity_count() as u64
}

/// Attempts a k-of-n reconstruction of `target` (a copy-0 data key) from
/// its coded group's survivors, reading only stores other than `exclude`
/// and treating `target` itself as erased (so a success is a genuine
/// decode, never a trivial copy). Returns the rebuilt block — content
/// bit-identical to the original — and its frame length in bytes, or
/// `None` when no parity covers the key or the erasure budget is exceeded.
pub fn reconstruct_block(
    stores: &ClusterStores,
    target: StoreKey,
    exclude: Option<usize>,
) -> Option<(Block, u64)> {
    if target.is_parity() || target.copy != 0 {
        return None;
    }
    // Find the group: scan resident parity envelopes of the same matrix.
    let mut group: Option<(StoreKey, ParityPayload)> = None;
    let mut envelopes: BTreeMap<StoreKey, ParityPayload> = BTreeMap::new();
    for n in 0..stores.num_nodes() {
        if Some(n) == exclude {
            continue;
        }
        for key in stores.node(n).keys() {
            if key.matrix != target.matrix || !key.is_parity() || envelopes.contains_key(&key) {
                continue;
            }
            let blk = stores.node(n).get(&key)?;
            let payload = unpack_parity(&blk)?;
            if payload
                .members
                .iter()
                .any(|m| m.id == target.id && m.copy == target.copy)
            {
                if group.is_none() {
                    group = Some((key, payload.clone()));
                }
                envelopes.insert(key, payload);
            }
        }
    }
    let (leader_key, payload) = group?;
    let stripe_len = payload.stripe.len();

    // Gather survivor member stripes (the target stays erased).
    let mut target_idx = None;
    let mut data: Vec<Option<Vec<u8>>> = Vec::with_capacity(payload.members.len());
    for (i, m) in payload.members.iter().enumerate() {
        if m.id == target.id && m.copy == target.copy {
            target_idx = Some(i);
            data.push(None);
            continue;
        }
        let key = StoreKey::replica(target.matrix, m.id, m.copy);
        let blk = (0..stores.num_nodes())
            .filter(|&n| Some(n) != exclude)
            .find_map(|n| stores.node(n).get(&key));
        data.push(blk.map(|b| padded_frame(&b, stripe_len)));
    }
    let target_idx = target_idx?;

    // Collect the group's parity stripes that survived.
    let parity_count = payload.policy.parity_count();
    let mut parity_stripes: Vec<Option<Vec<u8>>> = vec![None; parity_count];
    for (key, env) in &envelopes {
        if key.id == leader_key.id && (env.parity_index as usize) < parity_count {
            parity_stripes[env.parity_index as usize] = Some(env.stripe.clone());
        }
    }
    let parity_refs: Vec<Option<&[u8]>> = parity_stripes.iter().map(|p| p.as_deref()).collect();

    decode_group(&mut data, &parity_refs, stripe_len).ok()?;

    let frame_len = payload.members[target_idx].frame_len as usize;
    let stripe = data[target_idx].take().expect("decode filled the erasure");
    let block = codec::decode_slice(stripe.get(..frame_len)?).ok()?;
    Some((block, frame_len as u64))
}

/// Drops every parity key from every store and returns the matrices that
/// had any. Group assignment and parity placement are functions of the
/// node count, so a membership change invalidates all parity; callers
/// rebalance the data normally and then re-encode the returned matrices
/// ([`parity_groups`], [`encode_group`]).
pub fn evict_all_parity(stores: &ClusterStores) -> BTreeSet<u64> {
    evict_parity_with(stores, drop)
}

/// [`evict_all_parity`], handing each evicted block to `evicted` — a
/// resize keeps their envelope buffers for what it installs next.
pub(crate) fn evict_parity_with(
    stores: &ClusterStores,
    mut evicted: impl FnMut(Arc<Block>),
) -> BTreeSet<u64> {
    let mut coded = BTreeSet::new();
    for n in 0..stores.num_nodes() {
        let store = stores.node(n);
        for key in store.keys().into_iter().filter(StoreKey::is_parity) {
            if let Some(block) = store.take(&key) {
                evicted(block);
            }
            coded.insert(key.matrix);
        }
    }
    coded
}

#[cfg(test)]
mod tests {
    use super::*;
    use distme_matrix::CsrBlock;
    use proptest::prelude::*;

    fn frame_bytes(block: &Block) -> Vec<u8> {
        codec::encode(block).to_vec()
    }

    fn padded(mut frame: Vec<u8>, stripe_len: usize) -> Vec<u8> {
        frame.resize(stripe_len, 0);
        frame
    }

    /// One matrix's groups encoded one after another — what the executor
    /// runs as a gang.
    fn encode_matrix_parity(
        stores: &ClusterStores,
        matrix: u64,
        nodes: usize,
        policy: ReplicationPolicy,
    ) -> u64 {
        parity_groups(
            &stores.resident_keys(),
            &BTreeSet::from([matrix]),
            nodes,
            policy,
        )
        .iter()
        .map(|g| encode_group(stores, g, nodes, policy, &FreeBuffers::default()))
        .sum()
    }

    fn dense(seed: u64, r: usize, c: usize) -> Block {
        let mut state = seed | 1;
        Block::Dense(DenseBlock::from_fn(r, c, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) % 2000) as f64 / 100.0 - 10.0
        }))
    }

    fn sparse(seed: u64, r: usize, c: usize, every: usize) -> Block {
        let mut state = seed | 1;
        let mut trips = Vec::new();
        for i in 0..r {
            for j in 0..c {
                state = state
                    .wrapping_mul(2862933555777941757)
                    .wrapping_add(3037000493);
                if ((state >> 33) as usize).is_multiple_of(every) {
                    trips.push((i, j, ((state >> 40) % 19) as f64 - 9.0));
                }
            }
        }
        Block::Sparse(CsrBlock::from_triplets(r, c, trips).expect("valid triplets"))
    }

    fn mixed_blocks(seed: u64, n: usize) -> Vec<Block> {
        (0..n)
            .map(|i| {
                let s = seed.wrapping_add(i as u64).wrapping_mul(0x9E3779B97F4A7C15) | 1;
                let (r, c) = (1 + (s % 13) as usize, 1 + ((s >> 8) % 13) as usize);
                // Bit 1, not bit 0: the `| 1` above pins bit 0, which would
                // make this branch unreachable and the mix all-sparse.
                if s & 2 == 0 {
                    dense(s, r, c)
                } else {
                    sparse(s, r, c, 1 + (s >> 16) as usize % 6)
                }
            })
            .collect()
    }

    fn roundtrip(blocks: &[Block], policy: ReplicationPolicy, erased: &[usize]) {
        let frames: Vec<Vec<u8>> = blocks.iter().map(frame_bytes).collect();
        let stripe_len = frames.iter().map(Vec::len).max().unwrap();
        let stripes: Vec<Vec<u8>> = frames
            .iter()
            .map(|f| padded(f.clone(), stripe_len))
            .collect();
        let parity = encode_stripes(&stripes, policy.parity_count(), stripe_len);
        let mut data: Vec<Option<Vec<u8>>> = stripes
            .iter()
            .enumerate()
            .map(|(i, s)| (!erased.contains(&i)).then(|| s.clone()))
            .collect();
        let parity_refs: Vec<Option<&[u8]>> = parity.iter().map(|p| Some(p.as_slice())).collect();
        decode_group(&mut data, &parity_refs, stripe_len).expect("within budget");
        for (i, frame) in frames.iter().enumerate() {
            let got = data[i].as_ref().unwrap();
            assert_eq!(&got[..frame.len()], &frame[..], "member {i} bytes differ");
            let decoded = codec::decode_slice(&got[..frame.len()]).expect("valid frame");
            assert_eq!(&decoded, &blocks[i], "member {i} block differs");
        }
    }

    #[test]
    fn xor_round_trips_a_single_erasure() {
        let blocks = mixed_blocks(7, 5);
        for erased in 0..blocks.len() {
            roundtrip(&blocks, ReplicationPolicy::Xor, &[erased]);
        }
    }

    #[test]
    fn rs_lite_round_trips_any_double_erasure() {
        let blocks = mixed_blocks(21, 6);
        for a in 0..blocks.len() {
            for b in a + 1..blocks.len() {
                roundtrip(&blocks, ReplicationPolicy::RsLite, &[a, b]);
            }
        }
    }

    #[test]
    fn beyond_budget_is_a_typed_error_and_leaves_data_untouched() {
        let blocks = mixed_blocks(3, 4);
        let frames: Vec<Vec<u8>> = blocks.iter().map(frame_bytes).collect();
        let stripe_len = frames.iter().map(Vec::len).max().unwrap();
        let stripes: Vec<Vec<u8>> = frames
            .iter()
            .map(|f| padded(f.clone(), stripe_len))
            .collect();
        let parity = encode_stripes(&stripes, 1, stripe_len);
        let mut data: Vec<Option<Vec<u8>>> = vec![
            None,
            None,
            Some(stripes[2].clone()),
            Some(stripes[3].clone()),
        ];
        let err = decode_group(&mut data, &[Some(parity[0].as_slice())], stripe_len).unwrap_err();
        assert_eq!(err, CodingError { lost: 2, budget: 1 });
        assert!(data[0].is_none() && data[1].is_none(), "no wrong bytes");
    }

    #[test]
    fn q_only_decode_recovers_when_p_is_also_lost() {
        // RS-lite with P erased alongside one data member: Q alone decodes.
        let blocks = mixed_blocks(11, 4);
        let frames: Vec<Vec<u8>> = blocks.iter().map(frame_bytes).collect();
        let stripe_len = frames.iter().map(Vec::len).max().unwrap();
        let stripes: Vec<Vec<u8>> = frames
            .iter()
            .map(|f| padded(f.clone(), stripe_len))
            .collect();
        let parity = encode_stripes(&stripes, 2, stripe_len);
        let mut data: Vec<Option<Vec<u8>>> = stripes.iter().cloned().map(Some).collect();
        data[2] = None;
        decode_group(&mut data, &[None, Some(parity[1].as_slice())], stripe_len)
            .expect("Q decodes one erasure");
        assert_eq!(data[2].as_ref().unwrap(), &stripes[2]);
    }

    #[test]
    fn parity_envelope_round_trips() {
        let payload = ParityPayload {
            policy: ReplicationPolicy::RsLite,
            parity_index: 1,
            members: vec![
                ParityMember {
                    id: BlockId::new(3, 1),
                    copy: 0,
                    frame_len: 117,
                },
                ParityMember {
                    id: BlockId::new(0, 7),
                    copy: 0,
                    frame_len: 45,
                },
            ],
            stripe: (0..117u32).map(|b| (b * 7 + 3) as u8).collect(),
        };
        let block = pack_parity(&payload);
        assert_eq!(unpack_parity(&block).as_ref(), Some(&payload));
        // Ordinary matrix blocks are not parity envelopes.
        assert!(unpack_parity(&dense(5, 4, 4)).is_none());
    }

    #[test]
    fn groups_have_distinct_canonical_homes_and_off_member_parity() {
        let nodes = 4;
        let keys: Vec<StoreKey> = (0..6)
            .flat_map(|r| (0..5).map(move |c| StoreKey::operand(9, BlockId::new(r, c))))
            .collect();
        let groups = assign_groups(&keys, nodes, ReplicationPolicy::Xor);
        let total: usize = groups.iter().map(Vec::len).sum();
        assert_eq!(total, keys.len(), "every key is coded exactly once");
        for g in &groups {
            assert!(g.len() <= group_size_cap(nodes, ReplicationPolicy::Xor));
            let homes: BTreeSet<usize> = g.iter().map(|k| home_node(k.id, 0, nodes)).collect();
            assert_eq!(homes.len(), g.len(), "member homes must be distinct");
            let p = parity_home(g[0].id, &homes, nodes);
            assert!(!homes.contains(&p), "parity must live off-member");
        }
    }

    #[test]
    fn encode_then_reconstruct_through_the_stores() {
        let nodes = 4;
        let stores = ClusterStores::new(nodes);
        let matrix = 77u64;
        let blocks = mixed_blocks(13, 8);
        let mut keys = Vec::new();
        for (i, blk) in blocks.iter().enumerate() {
            let id = BlockId::new(i as u32 / 3, i as u32 % 3);
            let key = StoreKey::operand(matrix, id);
            stores.ingest(home_node(id, 0, nodes), key, Arc::new(blk.clone()));
            keys.push((key, blk.clone()));
        }
        let installed = encode_matrix_parity(&stores, matrix, nodes, ReplicationPolicy::Xor);
        assert!(installed > 0);
        // Idempotent: a second encode is a no-op.
        assert_eq!(
            encode_matrix_parity(&stores, matrix, nodes, ReplicationPolicy::Xor),
            0
        );
        for (key, original) in &keys {
            let (rebuilt, bytes) =
                reconstruct_block(&stores, *key, None).expect("single erasure decodes");
            assert_eq!(&rebuilt, original, "reconstruction must be bit-identical");
            assert!(bytes > 0);
        }
        assert_eq!(evict_all_parity(&stores), BTreeSet::from([matrix]));
        assert!(evict_all_parity(&stores).is_empty());
        assert!(
            reconstruct_block(&stores, keys[0].0, None).is_none(),
            "no parity, no decode"
        );
    }

    #[test]
    fn reconstruction_respects_an_excluded_node() {
        // All survivors readable except what the dead node held: decoding
        // must never read the excluded store — co-locate two members'
        // physical copies there and the decode goes over budget.
        let nodes = 4;
        let stores = ClusterStores::new(nodes);
        let matrix = 5u64;
        // Two blocks with distinct canonical homes, both physically on
        // node 0 only.
        let mut picked = Vec::new();
        'outer: for r in 0..8u32 {
            for c in 0..8u32 {
                let id = BlockId::new(r, c);
                if picked
                    .iter()
                    .all(|p: &BlockId| home_node(*p, 0, nodes) != home_node(id, 0, nodes))
                {
                    picked.push(id);
                    if picked.len() == 2 {
                        break 'outer;
                    }
                }
            }
        }
        for (i, id) in picked.iter().enumerate() {
            stores.ingest(
                0,
                StoreKey::operand(matrix, *id),
                Arc::new(dense(i as u64 + 1, 3, 3)),
            );
        }
        assert!(encode_matrix_parity(&stores, matrix, nodes, ReplicationPolicy::Xor) > 0);
        let target = StoreKey::operand(matrix, picked[0]);
        // Without exclusion the sibling is readable: decode succeeds.
        assert!(reconstruct_block(&stores, target, None).is_some());
        // Excluding node 0 erases both members: over budget, typed refusal.
        assert!(reconstruct_block(&stores, target, Some(0)).is_none());
    }

    /// The bit patterns of a store block's words — parity envelopes hold
    /// arbitrary bytes as `f64`s, NaNs among them, so `==` will not do.
    fn word_bits(block: &Block) -> Vec<u64> {
        let Block::Dense(d) = block else {
            panic!("parity envelopes are dense blocks")
        };
        d.data().iter().map(|w| w.to_bits()).collect()
    }

    /// Every resident parity block as `(node, key) -> word bits`.
    fn resident_parity(stores: &ClusterStores) -> BTreeMap<(usize, StoreKey), Vec<u64>> {
        let mut out = BTreeMap::new();
        for n in 0..stores.num_nodes() {
            for key in stores
                .node(n)
                .keys()
                .into_iter()
                .filter(StoreKey::is_parity)
            {
                out.insert((n, key), word_bits(&stores.node(n).get(&key).unwrap()));
            }
        }
        out
    }

    /// `blocks[i]` ingested at its canonical home as block `(i / 3, i % 3)`
    /// of `matrix`.
    fn ingest_grid(stores: &ClusterStores, matrix: u64, blocks: &[Block]) -> Vec<StoreKey> {
        let nodes = stores.num_nodes();
        blocks
            .iter()
            .enumerate()
            .map(|(i, blk)| {
                let id = BlockId::new(i as u32 / 3, i as u32 % 3);
                let key = StoreKey::operand(matrix, id);
                stores.ingest(home_node(id, 0, nodes), key, Arc::new(blk.clone()));
                key
            })
            .collect()
    }

    /// `block` as a delivery installs it: a dense block comes back as a
    /// view of its wire frame, a sparse one as an owned copy.
    fn over_the_wire(block: &Block) -> Block {
        let mut buf = BytesMut::default();
        let pad = codec::encode_aligned(block, &mut buf);
        let wire = buf.freeze();
        codec::decode_view(&wire.slice(pad..wire.len())).expect("a clean frame decodes")
    }

    #[test]
    fn folded_encode_installs_exactly_what_the_padded_reference_packs() {
        for policy in [ReplicationPolicy::Xor, ReplicationPolicy::RsLite] {
            let (nodes, matrix) = (6, 31u64);
            let stores = ClusterStores::new(nodes);
            let blocks = mixed_blocks(5, 17);
            // Every other block is resident as a delivery left it — the
            // dense ones views whose frame the fold reads in place — so
            // groups mix views with owned dense and sparse members.
            let resident: Vec<Block> = blocks
                .iter()
                .enumerate()
                .map(|(i, b)| {
                    if i % 2 == 0 {
                        over_the_wire(b)
                    } else {
                        b.clone()
                    }
                })
                .collect();
            let keys = ingest_grid(&stores, matrix, &resident);
            let is_view: BTreeMap<StoreKey, bool> = keys
                .iter()
                .zip(&resident)
                .map(|(k, b)| (*k, codec::resident_frame(b).is_some()))
                .collect();
            let block_of: BTreeMap<StoreKey, &Block> = keys.iter().copied().zip(&blocks).collect();

            // The definition: pad every member frame to the group's
            // longest, encode the stripes, pack each into an envelope.
            let mut expected = BTreeMap::new();
            let (mut mixed_kinds, mut unequal_lengths, mut mixed_storage) = (false, false, false);
            for group in assign_groups(&keys, nodes, policy) {
                mixed_storage |= group.iter().any(|k| is_view[k])
                    && group
                        .iter()
                        .any(|k| !is_view[k] && matches!(block_of[k], Block::Dense(_)));
                let frames: Vec<Vec<u8>> = group.iter().map(|k| frame_bytes(block_of[k])).collect();
                let stripe_len = frames.iter().map(Vec::len).max().unwrap();
                unequal_lengths |= frames.iter().any(|f| f.len() < stripe_len);
                mixed_kinds |= group.iter().any(|k| matches!(block_of[k], Block::Dense(_)))
                    && group
                        .iter()
                        .any(|k| matches!(block_of[k], Block::Sparse(_)));
                let members: Vec<ParityMember> = group
                    .iter()
                    .zip(&frames)
                    .map(|(k, f)| ParityMember {
                        id: k.id,
                        copy: k.copy,
                        frame_len: f.len() as u64,
                    })
                    .collect();
                let stripes: Vec<Vec<u8>> =
                    frames.into_iter().map(|f| padded(f, stripe_len)).collect();
                let leader = group[0].id;
                let mut avoid: BTreeSet<usize> =
                    group.iter().map(|k| home_node(k.id, 0, nodes)).collect();
                let parity = encode_stripes(&stripes, policy.parity_count(), stripe_len);
                for (p, stripe) in parity.into_iter().enumerate() {
                    let home = parity_home(leader, &avoid, nodes);
                    avoid.insert(home);
                    let envelope = pack_parity(&ParityPayload {
                        policy,
                        parity_index: p as u8,
                        members: members.clone(),
                        stripe,
                    });
                    expected.insert(
                        (home, StoreKey::parity(matrix, leader, p as u32)),
                        word_bits(&envelope),
                    );
                }
            }
            assert!(
                mixed_kinds && unequal_lengths && mixed_storage,
                "the groups must exercise the pad, with resident and serialized frames"
            );

            let installed = encode_matrix_parity(&stores, matrix, nodes, policy);
            assert_eq!(installed as usize, expected.len());
            assert_eq!(
                resident_parity(&stores),
                expected,
                "{policy:?}: keys, homes, envelope bits"
            );
            for (key, original) in &block_of {
                let (rebuilt, bytes) = reconstruct_block(&stores, *key, None).expect("decodes");
                assert_eq!(frame_bytes(&rebuilt), frame_bytes(original), "{key:?}");
                assert_eq!(bytes, codec::encoded_len(original));
            }
        }
    }

    #[test]
    fn one_snapshot_groups_every_uncoded_matrix_and_skips_the_coded() {
        let nodes = 5;
        let stores = ClusterStores::new(nodes);
        for matrix in [3u64, 4, 9] {
            ingest_grid(&stores, matrix, &mixed_blocks(matrix, 7));
        }
        let policy = ReplicationPolicy::Xor;
        assert!(encode_matrix_parity(&stores, 4, nodes, policy) > 0);
        let groups = parity_groups(
            &stores.resident_keys(),
            &BTreeSet::from([3, 4, 9]),
            nodes,
            policy,
        );
        let coded: BTreeSet<u64> = groups.iter().map(|g| g[0].0.matrix).collect();
        assert_eq!(coded, BTreeSet::from([3, 9]), "4 already has parity");
        for g in &groups {
            assert!(g.iter().all(|(k, _)| k.matrix == g[0].0.matrix));
        }
        // Per matrix, the groups are the ones a single-matrix call makes.
        let alone = parity_groups(&stores.resident_keys(), &BTreeSet::from([9]), nodes, policy);
        let of_nine: Vec<&ParityGroup> = groups.iter().filter(|g| g[0].0.matrix == 9).collect();
        assert_eq!(of_nine, alone.iter().collect::<Vec<_>>());
        assert!(parity_groups(
            &stores.resident_keys(),
            &BTreeSet::from([3]),
            nodes,
            ReplicationPolicy::Off
        )
        .is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Parity envelopes are bytes a store hands back: whatever has
        /// happened to them, parsing one and decoding through one must
        /// neither panic nor produce more bytes than the block carried.
        #[test]
        fn mutated_envelopes_never_panic_and_never_overrun_their_block(
            seed in any::<u64>(),
            rs in any::<bool>(),
            kind in 0usize..5,
            at in any::<usize>(),
            value in any::<u64>(),
        ) {
            let policy = if rs { ReplicationPolicy::RsLite } else { ReplicationPolicy::Xor };
            let (nodes, matrix) = (5, 8u64);
            let stores = ClusterStores::new(nodes);
            let keys = ingest_grid(&stores, matrix, &mixed_blocks(seed, 6));
            prop_assert!(encode_matrix_parity(&stores, matrix, nodes, policy) > 0);
            let parity = resident_parity(&stores);
            let ((node, key), words) = parity.iter().nth(at % parity.len()).unwrap();

            // Envelope byte `i` sits at `8 + i`, after the length word.
            let mut raw: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            let members = raw[8 + 7] as usize;
            let header_len = 16 + 20 * members;
            let bump = |raw: &mut [u8], offset: usize| {
                let old = u64::from_le_bytes(raw[offset..offset + 8].try_into().unwrap());
                let new = if value.is_multiple_of(2) { value } else { old + 1 + value % 4096 };
                raw[offset..offset + 8].copy_from_slice(&new.to_le_bytes());
            };
            match kind {
                0 => raw.truncate(8 * (1 + at % (raw.len() / 8))),
                1 => raw[8 + at % header_len] = value as u8,
                2 => bump(&mut raw, 8 + 16 + 20 * (at % members) + 12), // a frame_len
                3 => bump(&mut raw, if at.is_multiple_of(2) { 8 + 8 } else { 0 }), // stripe_len, length word
                _ => raw[8 + 7] = raw[8 + 7].max(value as u8),          // member count
            }
            let carried = raw.len() - 8;
            let words: Vec<f64> = raw
                .chunks_exact(8)
                .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
                .collect();
            let cols = words.len();
            let mutated = Block::Dense(DenseBlock::from_vec(1, cols, words).unwrap());

            if let Some(payload) = unpack_parity(&mutated) {
                prop_assert!(payload.stripe.len() <= carried);
                prop_assert!(payload
                    .members
                    .iter()
                    .all(|m| m.frame_len <= payload.stripe.len() as u64));
            }
            stores.node(*node).remove(key);
            stores.node(*node).install(*key, Arc::new(mutated));
            // A target of another group decodes through its own, intact
            // envelope; either way no frame outgrows what carried it.
            let largest = resident_parity(&stores).values().map(|w| 8 * (w.len() - 1)).max();
            for target in keys {
                if let Some((_, bytes)) = reconstruct_block(&stores, target, None) {
                    prop_assert!(bytes as usize <= largest.unwrap());
                }
            }
        }

        /// The satellite contract: random group sizes × erasure patterns
        /// within budget decode bit-identically for dense and CSR members;
        /// beyond-budget erasures are a typed error, never wrong bytes.
        #[test]
        fn any_within_budget_erasure_decodes_bit_identically(
            seed in any::<u64>(),
            size in 1usize..MAX_GROUP + 1,
            rs in any::<bool>(),
            first_pick in any::<u64>(),
            second_pick in any::<u64>(),
        ) {
            let policy = if rs { ReplicationPolicy::RsLite } else { ReplicationPolicy::Xor };
            let blocks = mixed_blocks(seed, size);
            let mut erased = vec![first_pick as usize % size];
            if policy == ReplicationPolicy::RsLite && size > 1 {
                let second = second_pick as usize % size;
                if !erased.contains(&second) {
                    erased.push(second);
                }
            }
            roundtrip(&blocks, policy, &erased);
        }

        #[test]
        fn any_beyond_budget_erasure_is_refused(
            seed in any::<u64>(),
            size in 2usize..MAX_GROUP + 1,
        ) {
            // Erase one more member than the XOR budget covers.
            let blocks = mixed_blocks(seed, size);
            let frames: Vec<Vec<u8>> = blocks.iter().map(frame_bytes).collect();
            let stripe_len = frames.iter().map(Vec::len).max().unwrap();
            let stripes: Vec<Vec<u8>> = frames
                .iter()
                .map(|f| padded(f.clone(), stripe_len))
                .collect();
            let parity = encode_stripes(&stripes, 1, stripe_len);
            let mut data: Vec<Option<Vec<u8>>> = stripes.iter().cloned().map(Some).collect();
            data[0] = None;
            data[1] = None;
            let err = decode_group(&mut data, &[Some(parity[0].as_slice())], stripe_len);
            prop_assert_eq!(err, Err(CodingError { lost: 2, budget: 1 }));
            prop_assert!(data[0].is_none() && data[1].is_none());
        }
    }
}

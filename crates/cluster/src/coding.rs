//! Coded replication: k-of-n block recovery without lineage recompute.
//!
//! Placement dual-homes every block, but a block whose two salted homes
//! coincide has a single physical copy — lose that node and a
//! decommission can only surface a typed [`NodeDecommissioned`] failure,
//! and a blackout recovery must replay the full lineage. This module
//! treats loss as a *planning input* instead (Kiani et al.'s coded cuboid
//! partitioning): the copy-0 blocks of each matrix are bucketed by their
//! canonical home and grouped so every group's members live on **distinct**
//! canonical homes, then each group gets one XOR parity block (erasure
//! budget 1), materialized on a node that is none of the members' homes. A
//! single node loss therefore erases at most one member per group, and any
//! k-of-n survivors reconstruct the missing block bit-identically from the
//! parity — no producer copy, no lineage recompute.
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
//! as one gang — XORs each member's `frame_len` frame bytes straight into
//! the parity envelope, laid out beforehand from the members'
//! `codec::encoded_len`s in the very buffer the installed parity block
//! aliases. A member that is a view of its wire frame (every dense block
//! a delivery installed) is folded from those resident bytes where they
//! lie; only owned and sparse members are serialized, into one frame
//! buffer the group reuses. The zero pad is never materialized (folding
//! zeros changes nothing). During a resize the envelope buffer comes from
//! the blocks the resize evicted (`store::FreeBuffers`). [`encode_stripes`]
//! over padded frames remains the definition the fold is tested against.
//!
//! Parity outlives a membership change wherever the new grid allows it.
//! `keep_parity` keeps every group the new grid still honours
//! ([`honoured_homes`], the rule groups are formed by), re-installs a kept
//! envelope whose node leaves or becomes a member's home, and evicts the
//! rest; [`parity_groups`] then codes exactly the members no resident
//! envelope names. A resize forms those groups so that the grid it left
//! honours them too, so a steady `4 → 9 → 4` cycle encodes nothing. Groups
//! are thus a function of the membership history, not of the node count
//! alone — and still never of thread order.
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
use std::ops::Range;
use std::sync::Arc;

/// Whether placement materializes parity for coded groups.
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
}

impl ReplicationPolicy {
    /// Parity blocks per group — also the erasure budget.
    pub fn parity_count(self) -> usize {
        match self {
            ReplicationPolicy::Off => 0,
            ReplicationPolicy::Xor => 1,
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
// Stripe-level encode / decode.
// ---------------------------------------------------------------------------

/// `dst ^= src` over `src`'s length: a shorter member's zero pad
/// contributes nothing.
fn xor_into(dst: &mut [u8], src: &[u8]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// Encodes one group's parity stripe `P = ⊕dᵢ`, where `stripes[i]` is
/// member `i`'s frame zero-padded to the common stripe length — the
/// definition of the code; [`encode_group`] computes the same stripe
/// without the padding.
pub fn encode_stripes(stripes: &[Vec<u8>], stripe_len: usize) -> Vec<u8> {
    let mut parity = vec![0u8; stripe_len];
    for d in stripes {
        debug_assert_eq!(d.len(), stripe_len);
        xor_into(&mut parity, d);
    }
    parity
}

/// Reconstructs the erased member of one group in place:
/// `d_j = P ⊕ ⊕_{i≠j} dᵢ`. `data[i]` is `Some` for survivors and `None`
/// for erasures; `parity` is the group's stripe if it survived. On success
/// every `data[i]` is `Some` and bit-identical to what was encoded.
///
/// # Errors
/// [`CodingError`] when more members are erased than the parity present
/// can cover — `data` is left untouched, never filled with wrong bytes.
pub fn decode_group(
    data: &mut [Option<Vec<u8>>],
    parity: Option<&[u8]>,
    stripe_len: usize,
) -> Result<(), CodingError> {
    debug_assert!(data.iter().flatten().all(|d| d.len() == stripe_len));
    let lost = data.iter().filter(|d| d.is_none()).count();
    let budget = usize::from(parity.is_some());
    if lost > budget {
        return Err(CodingError { lost, budget });
    }
    if let (Some(j), Some(p)) = (data.iter().position(Option::is_none), parity) {
        let mut rebuilt = p.to_vec();
        for d in data.iter().flatten() {
            xor_into(&mut rebuilt, d);
        }
        data[j] = Some(rebuilt);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Group assignment and parity placement.
// ---------------------------------------------------------------------------

/// Largest group the grid supports: every member needs a distinct canonical
/// home and the parity block needs a home of its own.
pub fn group_size_cap(nodes: usize) -> usize {
    nodes.saturating_sub(1).min(MAX_GROUP)
}

/// Deterministic group assignment for a matrix's copy-0 keys, placed on
/// the `grids[0]`-node grid: bucket by canonical home
/// (`home_node(id, 0, grids[0])`), then take one block per bucket per round
/// (node order) and cut each round, in order, into the longest groups that
/// [`honoured_homes`] admits on every grid of `grids` (a one-node grid,
/// which can place no parity, constrains nothing). On one grid that is
/// chunks of the grid's cap. Members of a group therefore always sit on
/// **distinct** canonical homes, and a single node loss erases at most one
/// sole-copy member per group. A resize passes the grid it leaves as well
/// (`[new, old]`), so the groups it forms are kept on the way back.
pub fn assign_groups(keys: &[StoreKey], grids: &[usize]) -> Vec<Vec<StoreKey>> {
    let Some(&nodes) = grids.first() else {
        return Vec::new();
    };
    if group_size_cap(nodes) == 0 {
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
    for round in 0.. {
        let mut members = buckets.values().filter_map(|b| b.get(round).copied());
        let Some(first) = members.next() else { break };
        let mut group = vec![first];
        for k in members {
            let ids: Vec<BlockId> = group.iter().chain([&k]).map(|g| g.id).collect();
            let honoured = |&g: &usize| group_size_cap(g) == 0 || honoured_homes(&ids, g).is_some();
            if !grids.iter().all(honoured) {
                groups.push(std::mem::take(&mut group));
            }
            group.push(k);
        }
        groups.push(group);
    }
    groups
}

/// The canonical homes `home_node(id, 0, nodes)` of a group's members, if
/// the `nodes`-node grid honours the group: one to
/// [`group_size_cap`]`(nodes)` members, on distinct homes. This is the one
/// rule of a coded group — [`assign_groups`] forms only such groups, a
/// membership change keeps exactly these (`keep_parity`), and their
/// parity lives on the node that is none of the homes ([`parity_home`]).
pub fn honoured_homes(ids: &[BlockId], nodes: usize) -> Option<BTreeSet<usize>> {
    if ids.is_empty() || ids.len() > group_size_cap(nodes) {
        return None;
    }
    let mut homes = BTreeSet::new();
    ids.iter()
        .all(|&id| homes.insert(home_node(id, 0, nodes)))
        .then_some(homes)
}

/// Deterministic parity placement: probe the placement hash at salts ≥ 3
/// (0–2 are the data spaces) until a node that is no member's canonical
/// home turns up.
///
/// # Panics
/// If `avoid` covers every node. Callers pass the homes
/// [`honoured_homes`] returned, which number at most
/// [`group_size_cap`]`(nodes)` = `nodes − 1`, so a free node exists and
/// the scan after the probes finds it.
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
const PARITY_VERSION: u8 = 2;
/// Magic, version, member count and stripe length.
const FIXED_HEADER: usize = 14;
/// Row, column, copy and frame length of one member.
const MEMBER_BYTES: usize = 20;

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
    /// The group's members, in member-index order.
    pub members: Vec<ParityMember>,
    /// The parity stripe (group's longest frame, zero-padded).
    pub stripe: Vec<u8>,
}

/// The header of a parity block's envelope — magic, version, member count,
/// stripe length, then 20 bytes per member; `stripe_len` bytes of stripe
/// follow it.
///
/// # Panics
/// If more than 255 members are passed. [`encode_group`] passes only
/// groups [`honoured_homes`] admits, so at most [`MAX_GROUP`]; a
/// [`pack_parity`] caller must do the same.
fn envelope_header(members: &[ParityMember], stripe_len: usize) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(FIXED_HEADER + MEMBER_BYTES * members.len());
    bytes.extend_from_slice(&PARITY_MAGIC.to_le_bytes());
    bytes.push(PARITY_VERSION);
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

/// Serializes a parity payload into its store block: a length prefix plus
/// the envelope (header + stripe) as f64 bit patterns — bit-exact through
/// any store or codec hop, untouched by arithmetic, as parity keys are
/// never operands. [`encode_group`] lays the same words out in place
/// instead.
///
/// # Panics
/// If `payload` has more than 255 members (see `envelope_header`).
pub fn pack_parity(payload: &ParityPayload) -> Block {
    let mut bytes = envelope_header(&payload.members, payload.stripe.len());
    bytes.extend_from_slice(&payload.stripe);
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

/// Parses a block produced by [`pack_parity`]. `None` if the block is not a
/// parity envelope (wrong shape, magic, or version) or describes a member
/// frame longer than the stripe that is supposed to cover it.
pub fn unpack_parity(block: &Block) -> Option<ParityPayload> {
    let (members, words, stripe) = read_envelope(block)?;
    let stripe = envelope_bytes(words, stripe);
    Some(ParityPayload { members, stripe })
}

/// The member list of a parity block's envelope, read from its header
/// alone — the stripe is neither copied nor read. `Some` exactly when
/// [`unpack_parity`] parses the block, and then its members.
pub fn parity_members(block: &Block) -> Option<Vec<ParityMember>> {
    read_envelope(block).map(|(members, _, _)| members)
}

/// Validates an envelope and parses its header: the members, the words
/// after the length word, and the stripe's byte range in the envelope
/// those words carry. Every length is checked against what the block
/// carries before it is used, so no input can make this panic.
fn read_envelope(block: &Block) -> Option<(Vec<ParityMember>, &[f64], Range<usize>)> {
    let Block::Dense(d) = block else { return None };
    let (len, words) = d.data().split_first()?;
    let len = usize::try_from(len.to_bits()).ok()?;
    if len > 8 * words.len() {
        return None;
    }
    let fixed = envelope_bytes(words, 0..FIXED_HEADER.min(len));
    let mut r = Reader(&fixed);
    if r.u32()? != PARITY_MAGIC || r.u8()? != PARITY_VERSION {
        return None;
    }
    let count = r.u8()? as usize;
    let stripe_len = usize::try_from(r.u64()?).ok()?;
    let header_len = FIXED_HEADER + MEMBER_BYTES * count;
    let stripe = header_len..header_len.checked_add(stripe_len)?;
    if stripe.end > len {
        return None;
    }
    let listed = envelope_bytes(words, FIXED_HEADER..header_len);
    let mut r = Reader(&listed);
    let members: Vec<ParityMember> = (0..count)
        .map(|_| {
            Some(ParityMember {
                id: BlockId::new(r.u32()?, r.u32()?),
                copy: r.u32()?,
                frame_len: r.u64()?,
            })
        })
        .collect::<Option<_>>()?;
    if members.iter().any(|m| m.frame_len > stripe_len as u64) {
        return None;
    }
    Some((members, words, stripe))
}

/// Envelope bytes `range`, from the little-endian words that carry the
/// envelope (byte `i` is byte `i % 8` of word `i / 8`).
fn envelope_bytes(words: &[f64], range: Range<usize>) -> Vec<u8> {
    let skip = range.start % 8;
    words[range.start / 8..range.end.div_ceil(8)]
        .iter()
        .flat_map(|w| w.to_bits().to_le_bytes())
        .skip(skip)
        .take(range.len())
        .collect()
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

/// The groups to encode for `matrices` on the `grids[0]`-node grid, from
/// one resident-key snapshot: the resident copy-0 blocks of each matrix
/// that no resident parity envelope names, grouped by [`assign_groups`]
/// over `grids`. Encoding is therefore idempotent — a matrix whose every
/// block is covered contributes nothing — and after a membership change it
/// codes exactly the members no kept group covers (`keep_parity`). Empty
/// when the grid is too small to place parity off-member.
pub fn parity_groups(
    stores: &ClusterStores,
    matrices: &BTreeSet<u64>,
    grids: &[usize],
) -> Vec<ParityGroup> {
    let snapshot = stores.resident_keys();
    let mut groups = Vec::new();
    for &matrix in matrices {
        let resident = || snapshot.iter().filter(move |(k, _)| k.matrix == matrix);
        let covered: BTreeSet<StoreKey> = resident()
            .filter(|(k, _)| k.is_parity())
            .filter_map(|(k, holders)| {
                holders
                    .iter()
                    .find_map(|&n| parity_members(&*stores.node(n).get(k)?))
            })
            .flatten()
            .map(|m| StoreKey::replica(matrix, m.id, m.copy))
            .collect();
        let holder_of: BTreeMap<StoreKey, usize> = resident()
            .filter(|(k, _)| k.copy == 0 && !k.is_parity() && !covered.contains(k))
            .filter_map(|(k, holders)| Some((*k, *holders.first()?)))
            .collect();
        let keys: Vec<StoreKey> = holder_of.keys().copied().collect();
        for group in assign_groups(&keys, grids) {
            groups.push(group.into_iter().map(|k| (k, holder_of[&k])).collect());
        }
    }
    groups
}

/// Encodes one group and installs its parity block — bit for bit
/// [`pack_parity`] over [`encode_stripes`] of the padded member frames.
/// Returns how many blocks were installed: 1, or 0 if a member was evicted
/// since the snapshot or the `nodes`-node grid does not honour the group
/// ([`honoured_homes`]) — the group is abandoned quietly; parity is
/// derived state.
///
/// The envelope is laid out once, in the buffer the installed block will
/// alias — length word, header, zeroed stripe, drawn from `buffers` — and
/// the members are folded into it where it lies: a member that is a view
/// of its wire frame contributes those resident bytes as they are, any
/// other is serialized into one frame buffer the group reuses.
pub fn encode_group(
    stores: &ClusterStores,
    group: &ParityGroup,
    nodes: usize,
    buffers: &FreeBuffers,
) -> u64 {
    let ids: Vec<BlockId> = group.iter().map(|(k, _)| k.id).collect();
    let Some(avoid) = honoured_homes(&ids, nodes) else {
        return 0;
    };
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

    // The words of `pack_parity`, written where they will stay: the
    // buffer's first 0–7 bytes are skipped so the words sit 8-byte aligned.
    // `take` promises the whole capacity, so no write below reallocates
    // and moves them; the length word, header and stripe are padded to a
    // whole word. The slice past the skip is therefore whole words at an
    // aligned address, which is all `from_shared_bytes` asks of it on a
    // little-endian target.
    let header = envelope_header(&members, stripe_len);
    let len = header.len() + stripe_len;
    let mut buf = buffers.take(7 + 8 + len.next_multiple_of(8));
    let skip = (buf.as_ref().as_ptr() as usize).wrapping_neg() & 7;
    buf.resize(skip, 0);
    buf.put_slice(&(len as u64).to_le_bytes());
    buf.put_slice(&header);
    let stripe = buf.len()..buf.len() + stripe_len;
    buf.resize(skip + 8 + len.next_multiple_of(8), 0);
    let mut scratch = BytesMut::default();
    for blk in &blocks {
        let frame: &[u8] = match codec::resident_frame(blk) {
            Some(frame) => frame,
            None => {
                scratch.clear();
                codec::encode_into(blk, &mut scratch);
                &scratch
            }
        };
        xor_into(&mut buf[stripe.clone()], frame);
    }

    let (leader, _) = group[0];
    let words = buf.freeze();
    let words = words.slice(skip..words.len());
    let block = DenseBlock::from_shared_bytes(1, words.len() / 8, words)
        .expect("whole words, laid out 8-byte aligned");
    stores.ingest(
        parity_home(leader.id, &avoid, nodes),
        StoreKey::parity(leader.matrix, leader.id),
        Arc::new(Block::Dense(block)),
    );
    1
}

/// Attempts a k-of-n reconstruction of `target` (a copy-0 data key) from
/// its coded group's survivors, reading only stores other than `exclude`
/// and treating `target` itself as erased (so a success is a genuine
/// decode, never a trivial copy). Returns the rebuilt block — content
/// bit-identical to the original — and its frame length in bytes, or
/// `None` when no readable parity covers the key or the erasure budget is
/// exceeded.
pub fn reconstruct_block(
    stores: &ClusterStores,
    target: StoreKey,
    exclude: Option<usize>,
) -> Option<(Block, u64)> {
    if target.is_parity() || target.copy != 0 {
        return None;
    }
    let readable = || (0..stores.num_nodes()).filter(move |&n| Some(n) != exclude);
    let is_target = |m: &ParityMember| m.id == target.id && m.copy == target.copy;
    // The group's parity is the envelope of the matrix whose member list
    // names the target, found from the headers alone; only its stripe is
    // copied out. One that cannot be read or parsed is skipped: it blinds
    // its own group, not every group of the matrix.
    let envelope = readable()
        .flat_map(|n| stores.node(n).keys().into_iter().map(move |k| (n, k)))
        .filter(|(_, key)| key.matrix == target.matrix && key.is_parity())
        .filter_map(|(n, key)| stores.node(n).get(&key))
        .find(|block| parity_members(block).is_some_and(|ms| ms.iter().any(is_target)))?;
    let payload = unpack_parity(&envelope)?;
    let stripe_len = payload.stripe.len();

    // Gather survivor member stripes (the target stays erased).
    let mut data: Vec<Option<Vec<u8>>> = payload
        .members
        .iter()
        .map(|m| {
            if is_target(m) {
                return None;
            }
            let key = StoreKey::replica(target.matrix, m.id, m.copy);
            let blk = readable().find_map(|n| stores.node(n).get(&key))?;
            Some(padded_frame(&blk, stripe_len))
        })
        .collect();
    decode_group(&mut data, Some(&payload.stripe), stripe_len).ok()?;

    let target_idx = payload.members.iter().position(is_target)?;
    let frame_len = payload.members[target_idx].frame_len as usize;
    let stripe = data[target_idx].take()?;
    let block = codec::decode_slice(stripe.get(..frame_len)?).ok()?;
    Some((block, frame_len as u64))
}

/// The matrices with parity resident on any node.
pub(crate) fn coded_matrices(stores: &ClusterStores) -> BTreeSet<u64> {
    (0..stores.num_nodes())
        .flat_map(|n| stores.node(n).keys())
        .filter(StoreKey::is_parity)
        .map(|k| k.matrix)
        .collect()
}

/// Keeps, after a membership change, every parity group the new
/// `nodes`-node grid still honours, in one walk over the resident parity.
/// Runs once the data is re-homed and while a shrink's leaving tail is
/// still addressable. A group is kept when its matrix is in `coded` and
/// [`honoured_homes`] admits its member list, read from the envelope
/// header: the rule [`assign_groups`] forms groups by, so a kept group
/// still loses at most one member to a single node. A kept envelope on a
/// leaving node or on a member's new canonical home is re-installed, the
/// same `Arc`, at its [`parity_home`] — no transport, no bytes. Every other
/// envelope, one that cannot be read included, is evicted into `buffers`
/// before any re-install, so no stale envelope holds a key a new group
/// needs (`install` keeps an occupied key): its members are left
/// uncovered, and [`parity_groups`] encodes them next.
pub(crate) fn keep_parity(
    stores: &ClusterStores,
    coded: &BTreeSet<u64>,
    nodes: usize,
    buffers: &FreeBuffers,
) {
    let mut misplaced = Vec::new();
    for n in 0..stores.num_nodes() {
        let store = stores.node(n);
        for key in store.keys().into_iter().filter(StoreKey::is_parity) {
            let homes = store
                .get(&key)
                .filter(|_| coded.contains(&key.matrix))
                .and_then(|block| parity_members(&block))
                .and_then(|members| {
                    let ids: Vec<BlockId> = members.iter().map(|m| m.id).collect();
                    honoured_homes(&ids, nodes)
                });
            match homes {
                Some(homes) if n < nodes && !homes.contains(&n) => {}
                Some(homes) => misplaced.push((n, key, homes)),
                None => {
                    if let Some(block) = store.take(&key) {
                        buffers.reclaim(block);
                    }
                }
            }
        }
    }
    // One envelope per key: a group's key is its leader's, and every member
    // is named by one envelope, so the destination never holds the key.
    for (n, key, homes) in misplaced {
        if let Some(block) = stores.node(n).take(&key) {
            stores
                .node(parity_home(key.id, &homes, nodes))
                .install(key, block);
        }
    }
}

/// Drops every parity key from every store and returns the matrices that
/// had any; the next [`parity_groups`] pass codes them from nothing.
pub fn evict_all_parity(stores: &ClusterStores) -> BTreeSet<u64> {
    let mut coded = BTreeSet::new();
    for n in 0..stores.num_nodes() {
        let store = stores.node(n);
        for key in store.keys().into_iter().filter(StoreKey::is_parity) {
            store.remove(&key);
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
    fn encode_matrix_parity(stores: &ClusterStores, matrix: u64, nodes: usize) -> u64 {
        parity_groups(stores, &BTreeSet::from([matrix]), &[nodes])
            .iter()
            .map(|g| encode_group(stores, g, nodes, &FreeBuffers::default()))
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

    fn roundtrip(blocks: &[Block], erased: usize) {
        let frames: Vec<Vec<u8>> = blocks.iter().map(frame_bytes).collect();
        let stripe_len = frames.iter().map(Vec::len).max().unwrap();
        let stripes: Vec<Vec<u8>> = frames
            .iter()
            .map(|f| padded(f.clone(), stripe_len))
            .collect();
        let parity = encode_stripes(&stripes, stripe_len);
        let mut data: Vec<Option<Vec<u8>>> = stripes
            .iter()
            .enumerate()
            .map(|(i, s)| (i != erased).then(|| s.clone()))
            .collect();
        decode_group(&mut data, Some(&parity), stripe_len).expect("within budget");
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
            roundtrip(&blocks, erased);
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
        let parity = encode_stripes(&stripes, stripe_len);
        // Two members lost against one parity stripe; one member lost with
        // the parity gone too.
        for (erased, parity, lost, budget) in [
            (&[0, 1][..], Some(parity.as_slice()), 2, 1),
            (&[2][..], None, 1, 0),
        ] {
            let mut data: Vec<Option<Vec<u8>>> = stripes
                .iter()
                .enumerate()
                .map(|(i, s)| (!erased.contains(&i)).then(|| s.clone()))
                .collect();
            let err = decode_group(&mut data, parity, stripe_len).unwrap_err();
            assert_eq!(err, CodingError { lost, budget });
            assert!(erased.iter().all(|&i| data[i].is_none()), "no wrong bytes");
        }
    }

    #[test]
    fn parity_envelope_round_trips() {
        let payload = ParityPayload {
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
        let groups = assign_groups(&keys, &[nodes]);
        let total: usize = groups.iter().map(Vec::len).sum();
        assert_eq!(total, keys.len(), "every key is coded exactly once");
        for g in &groups {
            assert!(g.len() <= group_size_cap(nodes));
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
        let installed = encode_matrix_parity(&stores, matrix, nodes);
        assert!(installed > 0);
        // Idempotent: a second encode is a no-op.
        assert_eq!(encode_matrix_parity(&stores, matrix, nodes), 0);
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
        assert!(encode_matrix_parity(&stores, matrix, nodes) > 0);
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
        let (nodes, matrix) = (6, 31u64);
        let stores = ClusterStores::new(nodes);
        let blocks = mixed_blocks(5, 17);
        // Every other block is resident as a delivery left it — the dense
        // ones views whose frame the fold reads in place — so groups mix
        // views with owned dense and sparse members.
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

        // The definition: pad every member frame to the group's longest,
        // encode the stripe, pack it into an envelope.
        let mut expected = BTreeMap::new();
        let (mut mixed_kinds, mut unequal_lengths, mut mixed_storage) = (false, false, false);
        for group in assign_groups(&keys, &[nodes]) {
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
            let stripes: Vec<Vec<u8>> = frames.into_iter().map(|f| padded(f, stripe_len)).collect();
            let leader = group[0].id;
            let homes: BTreeSet<usize> = group.iter().map(|k| home_node(k.id, 0, nodes)).collect();
            let envelope = pack_parity(&ParityPayload {
                members,
                stripe: encode_stripes(&stripes, stripe_len),
            });
            expected.insert(
                (
                    parity_home(leader, &homes, nodes),
                    StoreKey::parity(matrix, leader),
                ),
                word_bits(&envelope),
            );
        }
        assert!(
            mixed_kinds && unequal_lengths && mixed_storage,
            "the groups must exercise the pad, with resident and serialized frames"
        );

        let installed = encode_matrix_parity(&stores, matrix, nodes);
        assert_eq!(installed as usize, expected.len(), "one block per group");
        assert_eq!(
            resident_parity(&stores),
            expected,
            "keys, homes, envelope bits"
        );
        for (key, original) in &block_of {
            let (rebuilt, bytes) = reconstruct_block(&stores, *key, None).expect("decodes");
            assert_eq!(frame_bytes(&rebuilt), frame_bytes(original), "{key:?}");
            assert_eq!(bytes, codec::encoded_len(original));
        }
    }

    #[test]
    fn a_bad_envelope_blinds_only_its_own_group() {
        let (nodes, matrix) = (5, 12u64);
        let stores = ClusterStores::new(nodes);
        let blocks = mixed_blocks(9, 12);
        let keys = ingest_grid(&stores, matrix, &blocks);
        let groups = encode_matrix_parity(&stores, matrix, nodes);
        assert!(groups > 1, "the matrix must span several groups");
        // A block that is not an envelope takes one group's parity key.
        let (node, key) = *resident_parity(&stores).keys().next().unwrap();
        let blinded = unpack_parity(&stores.node(node).get(&key).unwrap())
            .unwrap()
            .members;
        stores.node(node).remove(&key);
        stores.node(node).install(key, Arc::new(dense(1, 4, 4)));

        let mut decoded = 0;
        for (key, original) in keys.iter().zip(&blocks) {
            let rebuilt = reconstruct_block(&stores, *key, None);
            if blinded.iter().any(|m| m.id == key.id) {
                assert!(rebuilt.is_none(), "{key:?}: its group has no parity");
            } else {
                let (rebuilt, _) = rebuilt.expect("an intact group decodes");
                assert_eq!(&rebuilt, original, "{key:?}");
                decoded += 1;
            }
        }
        assert_eq!(decoded, keys.len() - blinded.len());
    }

    #[test]
    fn one_snapshot_groups_every_uncoded_matrix_and_skips_the_coded() {
        let nodes = 5;
        let stores = ClusterStores::new(nodes);
        for matrix in [3u64, 4, 9] {
            ingest_grid(&stores, matrix, &mixed_blocks(matrix, 7));
        }
        assert!(encode_matrix_parity(&stores, 4, nodes) > 0);
        let groups = parity_groups(&stores, &BTreeSet::from([3, 4, 9]), &[nodes]);
        let coded: BTreeSet<u64> = groups.iter().map(|g| g[0].0.matrix).collect();
        assert_eq!(coded, BTreeSet::from([3, 9]), "4 already has parity");
        for g in &groups {
            assert!(g.iter().all(|(k, _)| k.matrix == g[0].0.matrix));
        }
        // A matrix that lost one envelope regroups exactly what it named.
        let (node, key) = *resident_parity(&stores)
            .keys()
            .find(|(_, k)| k.matrix == 4)
            .unwrap();
        let lost = unpack_parity(&stores.node(node).get(&key).unwrap())
            .unwrap()
            .members;
        stores.node(node).remove(&key);
        let regrouped = parity_groups(&stores, &BTreeSet::from([4]), &[nodes]);
        let mut uncovered: Vec<BlockId> = regrouped.iter().flatten().map(|(k, _)| k.id).collect();
        let mut named: Vec<BlockId> = lost.iter().map(|m| m.id).collect();
        uncovered.sort();
        named.sort();
        assert_eq!(uncovered, named);
        // Per matrix, the groups are the ones a single-matrix call makes.
        let alone = parity_groups(&stores, &BTreeSet::from([9]), &[nodes]);
        let of_nine: Vec<&ParityGroup> = groups.iter().filter(|g| g[0].0.matrix == 9).collect();
        assert_eq!(of_nine, alone.iter().collect::<Vec<_>>());
    }

    /// The old single-grid assignment: each round chunked to the cap.
    fn chunked_rounds(keys: &[StoreKey], nodes: usize) -> Vec<Vec<StoreKey>> {
        let mut buckets: BTreeMap<usize, Vec<StoreKey>> = BTreeMap::new();
        for k in keys {
            buckets
                .entry(home_node(k.id, 0, nodes))
                .or_default()
                .push(*k);
        }
        let mut groups = Vec::new();
        for round in 0.. {
            let members: Vec<StoreKey> = buckets
                .values()
                .filter_map(|b| b.get(round).copied())
                .collect();
            if members.is_empty() {
                return groups;
            }
            groups.extend(members.chunks(group_size_cap(nodes)).map(<[_]>::to_vec));
        }
        unreachable!()
    }

    fn grid_keys(matrix: u64, rows: u32, cols: u32) -> Vec<StoreKey> {
        (0..rows)
            .flat_map(|r| (0..cols).map(move |c| StoreKey::operand(matrix, BlockId::new(r, c))))
            .collect()
    }

    #[test]
    fn a_resize_forms_groups_both_its_grids_honour() {
        let keys = grid_keys(3, 8, 8);
        // One grid: the assignment every job's encode makes, unchanged.
        for nodes in 2..=12 {
            assert_eq!(assign_groups(&keys, &[nodes]), chunked_rounds(&keys, nodes));
        }
        assert_eq!(assign_groups(&keys, &[5, 1]), assign_groups(&keys, &[5]));
        for grids in [[9, 4], [4, 9], [3, 5], [12, 2]] {
            let groups = assign_groups(&keys, &grids);
            let mut coded: Vec<StoreKey> = groups.iter().flatten().copied().collect();
            coded.sort();
            assert_eq!(coded, keys, "{grids:?}: every key once");
            for g in &groups {
                let ids: Vec<BlockId> = g.iter().map(|k| k.id).collect();
                for nodes in grids {
                    assert!(honoured_homes(&ids, nodes).is_some(), "{grids:?}: {ids:?}");
                }
            }
        }
    }

    #[test]
    fn parity_home_finds_the_one_node_a_full_group_leaves_free() {
        // The largest group a grid honours leaves exactly one node free.
        for nodes in 2..=9 {
            for free in 0..nodes {
                let avoid: BTreeSet<usize> = (0..nodes).filter(|&n| n != free).collect();
                assert_eq!(avoid.len(), group_size_cap(nodes));
                for leader in grid_keys(0, 4, 4).into_iter().map(|k| k.id) {
                    assert_eq!(parity_home(leader, &avoid, nodes), free, "{nodes} nodes");
                }
            }
        }
    }

    /// `count` block ids whose canonical homes on the `nodes`-node grid are
    /// distinct.
    fn distinct_home_ids(nodes: usize, count: usize) -> Vec<BlockId> {
        let mut homes = BTreeSet::new();
        (0..)
            .map(|i| BlockId::new(i / 16, i % 16))
            .filter(|&id| homes.insert(home_node(id, 0, nodes)))
            .take(count)
            .collect()
    }

    #[test]
    fn no_group_outgrows_the_envelope_header() {
        // No grid forms or keeps a group larger than MAX_GROUP, whatever
        // grid it came from.
        let keys = grid_keys(4, 12, 12);
        for nodes in 1..=20 {
            for grids in [vec![nodes], vec![nodes, 4], vec![nodes, 20]] {
                let groups = assign_groups(&keys, &grids);
                assert!(groups.iter().all(|g| g.len() <= MAX_GROUP), "{grids:?}");
            }
        }
        let nodes = 20;
        let ids = distinct_home_ids(nodes, MAX_GROUP + 1);
        assert_eq!(
            honoured_homes(&ids[..MAX_GROUP], nodes).map(|h| h.len()),
            Some(MAX_GROUP)
        );
        assert_eq!(honoured_homes(&ids, nodes), None, "one member too many");

        // An oversized group handed to `encode_group` installs nothing.
        let stores = ClusterStores::new(nodes);
        let group: ParityGroup = ids
            .iter()
            .zip(mixed_blocks(2, ids.len()))
            .map(|(&id, blk)| {
                let key = StoreKey::operand(4, id);
                stores.ingest(0, key, Arc::new(blk));
                (key, 0)
            })
            .collect();
        let buffers = FreeBuffers::default();
        assert_eq!(encode_group(&stores, &group, nodes, &buffers), 0);
        assert!(resident_parity(&stores).is_empty());
        assert_eq!(
            encode_group(&stores, &group[..MAX_GROUP].to_vec(), nodes, &buffers),
            1
        );
        let (_, envelope) = resident_parity(&stores).pop_first().unwrap();
        let words: Vec<f64> = envelope.into_iter().map(f64::from_bits).collect();
        let block = Block::Dense(DenseBlock::from_vec(1, words.len(), words).unwrap());
        assert_eq!(parity_members(&block).map(|m| m.len()), Some(MAX_GROUP));
    }

    #[test]
    fn envelopes_are_whole_aligned_words_in_any_buffer() {
        // Free-list buffers start at any address: every misalignment, with
        // at most a word more room than the envelope needs, against envelopes that
        // end on a word boundary and ones whose last word is padded.
        let nodes = 9;
        let (mut misalignments, mut residues) = (BTreeSet::new(), BTreeSet::new());
        for case in 0..64u64 {
            let stores = ClusterStores::new(nodes);
            let size = 1 + case as usize % group_size_cap(nodes);
            let ids = distinct_home_ids(nodes, size);
            let blocks = mixed_blocks(case, size);
            let group: ParityGroup = ids
                .iter()
                .zip(&blocks)
                .map(|(&id, blk)| {
                    let key = StoreKey::operand(1, id);
                    stores.ingest(0, key, Arc::new(blk.clone()));
                    (key, 0)
                })
                .collect();
            let frames: Vec<Vec<u8>> = blocks.iter().map(frame_bytes).collect();
            let stripe_len = frames.iter().map(Vec::len).max().unwrap();
            let members = ids
                .iter()
                .zip(&frames)
                .map(|(&id, f)| ParityMember {
                    id,
                    copy: 0,
                    frame_len: f.len() as u64,
                })
                .collect();
            let stripes: Vec<Vec<u8>> = frames.into_iter().map(|f| padded(f, stripe_len)).collect();
            let expected = pack_parity(&ParityPayload {
                members,
                stripe: encode_stripes(&stripes, stripe_len),
            });
            let len = word_bits(&expected)[0] as usize;
            residues.insert(len % 8);

            let need = 7 + 8 + len.next_multiple_of(8);
            let mut base = BytesMut::with_capacity(need + 8);
            let start = case as usize % 8;
            base.resize(start, 0);
            let view = base.freeze();
            let buf = view.slice(start..start);
            drop(view);
            let buf = buf.try_into_mut().unwrap();
            misalignments.insert(buf.as_ptr() as usize % 8);
            let buffers = FreeBuffers::default();
            buffers.offer(buf);
            assert_eq!(encode_group(&stores, &group, nodes, &buffers), 1);
            assert_eq!(buffers.draws(), (1, 0), "the offered buffer served");
            let installed: Vec<Vec<u64>> = resident_parity(&stores).into_values().collect();
            assert_eq!(installed, vec![word_bits(&expected)], "case {case}");
        }
        assert_eq!(misalignments.len(), 8);
        assert!(
            residues.contains(&0) && residues.len() > 1,
            "envelopes that fill their last word and ones that are padded: {residues:?}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Parity envelopes are bytes a store hands back: whatever has
        /// happened to them, parsing one and decoding through one must
        /// neither panic nor produce more bytes than the block carried.
        #[test]
        fn mutated_envelopes_never_panic_and_never_overrun_their_block(
            seed in any::<u64>(),
            kind in 0usize..5,
            at in any::<usize>(),
            value in any::<u64>(),
        ) {
            let (nodes, matrix) = (5, 8u64);
            let stores = ClusterStores::new(nodes);
            let blocks = mixed_blocks(seed, 6);
            let keys = ingest_grid(&stores, matrix, &blocks);
            prop_assert!(encode_matrix_parity(&stores, matrix, nodes) > 0);
            let parity = resident_parity(&stores);
            let ((node, key), words) = parity.iter().nth(at % parity.len()).unwrap();
            let own_group = unpack_parity(&stores.node(*node).get(key).unwrap()).unwrap().members;

            // Envelope byte `i` sits at `8 + i`, after the length word.
            let mut raw: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            let members = raw[8 + 5] as usize;
            let header_len = 14 + 20 * members;
            let bump = |raw: &mut [u8], offset: usize| {
                let old = u64::from_le_bytes(raw[offset..offset + 8].try_into().unwrap());
                let new = if value.is_multiple_of(2) { value } else { old + 1 + value % 4096 };
                raw[offset..offset + 8].copy_from_slice(&new.to_le_bytes());
            };
            match kind {
                0 => raw.truncate(8 * (1 + at % (raw.len() / 8))),
                1 => raw[8 + at % header_len] = value as u8,
                2 => bump(&mut raw, 8 + 14 + 20 * (at % members) + 12), // a frame_len
                3 => bump(&mut raw, if at.is_multiple_of(2) { 8 + 6 } else { 0 }), // stripe_len, length word
                _ => raw[8 + 5] = raw[8 + 5].max(value as u8),          // member count
            }
            let carried = raw.len() - 8;
            let words: Vec<f64> = raw
                .chunks_exact(8)
                .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
                .collect();
            let cols = words.len();
            let mutated = Block::Dense(DenseBlock::from_vec(1, cols, words).unwrap());

            // The header reader agrees with the full parse: the same
            // members where it parses, nothing where it does not.
            let header = parity_members(&mutated);
            let mut named = own_group;
            if let Some(payload) = unpack_parity(&mutated) {
                prop_assert_eq!(header.as_ref(), Some(&payload.members));
                prop_assert!(payload.stripe.len() <= carried);
                prop_assert!(payload
                    .members
                    .iter()
                    .all(|m| m.frame_len <= payload.stripe.len() as u64));
                named.extend(payload.members);
            } else {
                prop_assert_eq!(header, None);
            }
            stores.node(*node).remove(key);
            stores.node(*node).install(*key, Arc::new(mutated));
            // A target the mutated envelope names, before or after the
            // mutation, may fail to decode, but no frame outgrows what
            // carried it; every other target decodes through its own,
            // intact envelope.
            let largest = resident_parity(&stores).values().map(|w| 8 * (w.len() - 1)).max();
            for (target, original) in keys.iter().zip(&blocks) {
                let rebuilt = reconstruct_block(&stores, *target, None);
                if named.iter().any(|m| m.id == target.id) {
                    if let Some((_, bytes)) = rebuilt {
                        prop_assert!(bytes as usize <= largest.unwrap());
                    }
                } else {
                    prop_assert_eq!(rebuilt.map(|(b, _)| b).as_ref(), Some(original));
                }
            }
        }

        /// The satellite contract: random group sizes × erasure positions
        /// decode bit-identically for dense and CSR members;
        /// beyond-budget erasures are a typed error, never wrong bytes.
        #[test]
        fn any_within_budget_erasure_decodes_bit_identically(
            seed in any::<u64>(),
            size in 1usize..MAX_GROUP + 1,
            pick in any::<u64>(),
        ) {
            roundtrip(&mixed_blocks(seed, size), pick as usize % size);
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
            let parity = encode_stripes(&stripes, stripe_len);
            let mut data: Vec<Option<Vec<u8>>> = stripes.iter().cloned().map(Some).collect();
            data[0] = None;
            data[1] = None;
            let err = decode_group(&mut data, Some(&parity), stripe_len);
            prop_assert_eq!(err, Err(CodingError { lost: 2, budget: 1 }));
            prop_assert!(data[0].is_none() && data[1].is_none());
        }
    }
}

//! Deterministic block rebalancing after a membership change.
//!
//! When the grid resizes, every resident block's home moves: the placement
//! hash ([`home_node`]) is a function of the node count. A
//! [`RebalancePlan`] is derived from a snapshot of resident keys and their
//! holders ([`ClusterStores::resident_keys`]) and lists, in deterministic
//! key order:
//!
//! * one [`RebalanceUnit`] per key that has anything to do — the new homes
//!   to ship it to from one surviving holder (through the codec-backed
//!   transport, charged to the ledger under [`Phase::Rebalance`]), then
//!   the copies stranded at nodes that are no longer homes (dropping them
//!   is what empties a leaving node's store).
//!
//! Every key of the snapshot has a holder: a key whose sole copy a
//! permanent decommission severed is the caller's to account for
//! (`LocalCluster::decommission_node` reconstructs it from parity or
//! reports it lost) and never reaches a plan.
//!
//! A unit is the grain of execution. Moves of distinct keys are
//! independent one-sided transfers, so the executor runs all units as one
//! gang, and each unit drops its stranded copies the moment its own moves
//! have landed — never before, since the source may be one of them. A
//! resize therefore holds at most a few keys' worth of extra copies at a
//! time, and the blocks one unit frees are, literally, the memory the next
//! unit's moves decode into: a dropped copy whose last reference died
//! hands its wire buffer to the resize's free list
//! ([`FreeBuffers`](crate::store::FreeBuffers)), and the transport draws
//! its receive buffers from there. A move of a block that already crossed
//! the wire once copies the frame it is a view of — nothing is serialized
//! again. Totals (moves, bytes, ledger charges) are sums over units and do
//! not depend on the order they ran in.
//!
//! Every key is re-homed to **both** salted homes (`which` 0 and 1 — the
//! A-operand and B-operand spaces of the plan's routing), matching how the
//! executor places result blocks. The invariant after a rebalance: any
//! future plan, built for the new node count, finds its ingest homes
//! already resident, whichever side of a multiply the matrix lands on —
//! and every block has two copies wherever the two hashes disagree, which
//! is the replica "lineage" a later decommission recovers from.
//!
//! [`ClusterStores::resident_keys`]: crate::store::ClusterStores::resident_keys
//! [`Phase::Rebalance`]: crate::stats::Phase::Rebalance

use crate::stats::JobStats;
use crate::store::StoreKey;
use distme_matrix::BlockId;
use std::collections::{BTreeMap, BTreeSet};

/// HDFS-style "home" node of a block (`which` salts the A-operand,
/// B-operand, and pre-shuffle destination spaces apart). This is the one
/// placement hash in the system: the plan's routing in `distme-core`
/// delegates here, so rebalancing and planning can never disagree about
/// where a block lives.
pub fn home_node(id: BlockId, which: u64, nodes: usize) -> usize {
    let mut z = (((id.row as u64) << 32) | id.col as u64)
        .wrapping_add(which.wrapping_mul(0xA24BAED4963EE407))
        .wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    (z ^ (z >> 31)) as usize % nodes
}

/// One key's share of a membership change: ship it from `from` to every
/// node in `to`, then drop the copies in `evict`. The order is the
/// contract — `evict` may name `from` itself, so nothing is dropped until
/// every move of the unit has landed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebalanceUnit {
    /// The resident key (the same key at source and destinations).
    pub key: StoreKey,
    /// A current holder of the key: the source of every move.
    pub from: usize,
    /// Homes under the new grid that do not hold the key yet, ascending.
    pub to: Vec<usize>,
    /// Holders that are not homes under the new grid, ascending.
    pub evict: Vec<usize>,
}

/// The deterministic migration schedule for one membership change.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RebalancePlan {
    /// One unit per key with a move or an eviction to make, in key order.
    pub units: Vec<RebalanceUnit>,
}

impl RebalancePlan {
    /// Derives the schedule from a resident-key snapshot, every key of
    /// which names at least one holder. Holder node ids may exceed
    /// `new_nodes` (a graceful shrink drains the leaving tail); targets are
    /// always within the new grid. Deterministic: the same snapshot and
    /// node count produce the identical plan.
    pub fn derive(snapshot: &BTreeMap<StoreKey, BTreeSet<usize>>, new_nodes: usize) -> Self {
        assert!(new_nodes > 0, "cannot rebalance onto an empty grid");
        let mut plan = RebalancePlan::default();
        for (key, holders) in snapshot {
            let from = *holders.first().expect("a resident key has a holder");
            let homes = BTreeSet::from([
                home_node(key.id, 0, new_nodes),
                home_node(key.id, 1, new_nodes),
            ]);
            let to: Vec<usize> = homes.difference(holders).copied().collect();
            let evict: Vec<usize> = holders.difference(&homes).copied().collect();
            if !to.is_empty() || !evict.is_empty() {
                plan.units.push(RebalanceUnit {
                    key: *key,
                    from,
                    to,
                    evict,
                });
            }
        }
        plan
    }
}

/// What one executed membership change did, with the migration traffic in
/// [`JobStats`] form so sessions can absorb it into their accumulated
/// counters (`rebalanced_moves` / `rebalanced_payload_bytes`, plus a
/// [`Phase::Rebalance`](crate::stats::Phase::Rebalance) entry).
#[derive(Debug, Clone, Copy, Default)]
pub struct RebalanceReport {
    /// Epoch after the change.
    pub epoch: u64,
    /// Node count before.
    pub from_nodes: usize,
    /// Node count after.
    pub to_nodes: usize,
    /// Blocks physically migrated (implicit zeros excluded).
    pub moves: u64,
    /// Encoded payload bytes of those migrations.
    pub payload_bytes: u64,
    /// Resident blocks lost to the change: 0 in every report, since a
    /// decommission that loses blocks returns
    /// [`JobError::NodeDecommissioned`](crate::failure::JobError::NodeDecommissioned)
    /// in its place.
    pub lost_blocks: usize,
    /// The migration traffic as mergeable job stats.
    pub stats: JobStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(matrix: u64, row: u32, col: u32) -> StoreKey {
        StoreKey::operand(matrix, BlockId::new(row, col))
    }

    fn snapshot(entries: &[(StoreKey, &[usize])]) -> BTreeMap<StoreKey, BTreeSet<usize>> {
        entries
            .iter()
            .map(|(k, hs)| (*k, hs.iter().copied().collect()))
            .collect()
    }

    #[test]
    fn derivation_is_deterministic() {
        let snap = snapshot(&[
            (key(1, 0, 0), &[0]),
            (key(1, 0, 1), &[3]),
            (key(2, 1, 0), &[1, 2]),
        ]);
        let a = RebalancePlan::derive(&snap, 9);
        let b = RebalancePlan::derive(&snap, 9);
        assert_eq!(a, b);
        assert!(!a.units.is_empty());
    }

    #[test]
    fn every_key_lands_on_both_new_homes() {
        let snap = snapshot(&[(key(7, 2, 3), &[0])]);
        let plan = RebalancePlan::derive(&snap, 5);
        let targets: BTreeSet<usize> = [
            home_node(BlockId::new(2, 3), 0, 5),
            home_node(BlockId::new(2, 3), 1, 5),
        ]
        .into_iter()
        .collect();
        let moved_to: BTreeSet<usize> = plan.units.iter().flat_map(|u| &u.to).copied().collect();
        let kept: BTreeSet<usize> = targets.iter().copied().filter(|t| *t == 0).collect();
        // Every target is either moved to or was already held.
        assert_eq!(
            moved_to.union(&kept).copied().collect::<BTreeSet<_>>(),
            targets
        );
        // The old copy survives only if node 0 is a new home.
        let evicted_at_0 = plan.units.iter().any(|u| u.evict.contains(&0));
        assert_eq!(evicted_at_0, !targets.contains(&0));
    }

    #[test]
    fn shrink_drains_tail_holders() {
        // Holder 8 is outside a 4-node grid: the key must move onto the
        // surviving prefix and the tail copy must be evicted.
        let snap = snapshot(&[(key(3, 1, 1), &[8])]);
        let plan = RebalancePlan::derive(&snap, 4);
        let [unit] = plan.units.as_slice() else {
            panic!("one key, one unit: {plan:?}");
        };
        assert_eq!((unit.key, unit.from), (key(3, 1, 1), 8));
        assert!(!unit.to.is_empty() && unit.to.iter().all(|&t| t < 4));
        assert_eq!(unit.evict, vec![8]);
    }

    #[test]
    fn already_homed_keys_produce_no_traffic() {
        let id = BlockId::new(4, 2);
        let homes: BTreeSet<usize> = [home_node(id, 0, 6), home_node(id, 1, 6)]
            .into_iter()
            .collect();
        let k = StoreKey::operand(11, id);
        let snap: BTreeMap<StoreKey, BTreeSet<usize>> = [(k, homes)].into_iter().collect();
        let plan = RebalancePlan::derive(&snap, 6);
        assert!(plan.units.is_empty());
    }

    #[test]
    fn a_unit_holds_its_own_keys_moves_and_only_then_its_evictions() {
        // 6 x 6 blocks, each held by one or two nodes of a 9-node grid
        // (some of them its future homes), shrunk to 4: every shape of
        // unit turns up — source kept, source stranded, nothing to move.
        let mut snap = BTreeMap::new();
        for row in 0..6u32 {
            for col in 0..6u32 {
                let id = BlockId::new(row, col);
                let holders = BTreeSet::from([home_node(id, 0, 9), home_node(id, 2, 4)]);
                snap.insert(key(1, row, col), holders);
            }
        }
        let plan = RebalancePlan::derive(&snap, 4);
        assert!(
            plan.units.windows(2).all(|w| w[0].key < w[1].key),
            "at most one unit per key, in key order"
        );
        let stranded_sources = plan
            .units
            .iter()
            .filter(|u| u.evict.contains(&u.from))
            .count();
        assert!(stranded_sources > 0, "the case the ordering exists for");
        let mut seen = BTreeSet::new();
        for unit in &plan.units {
            seen.insert(unit.key);
            let holders = &snap[&unit.key];
            let homes =
                BTreeSet::from([home_node(unit.key.id, 0, 4), home_node(unit.key.id, 1, 4)]);
            assert!(holders.contains(&unit.from), "the source holds the key");
            // Moves then evictions leave the key on exactly its new homes,
            // and every eviction is of a copy of this unit's own key.
            let mut after = holders.clone();
            after.extend(&unit.to);
            assert!(unit.evict.iter().all(|n| after.remove(n)));
            assert_eq!(after, homes, "{unit:?}");
            // A move never targets a holder, so no move is lost to an
            // eviction of the same unit, whichever order the two lists
            // name the nodes in.
            assert!(unit.to.iter().all(|t| !holders.contains(t)));
        }
        // Keys without a unit were already exactly at home.
        for (k, holders) in &snap {
            let homes = BTreeSet::from([home_node(k.id, 0, 4), home_node(k.id, 1, 4)]);
            assert_eq!(seen.contains(k), *holders != homes, "{k:?}");
        }
    }

    #[test]
    fn home_node_spreads_and_stays_in_range() {
        let mut seen = BTreeSet::new();
        for row in 0..32u32 {
            for col in 0..32u32 {
                let h = home_node(BlockId::new(row, col), 0, 9);
                assert!(h < 9);
                seen.insert(h);
            }
        }
        assert_eq!(seen.len(), 9, "1024 blocks cover all 9 nodes");
    }
}

//! Node sharding over the CSR slot space, for parallel executors.
//!
//! A [`Partition`] splits the node range `0..n` into `k` **contiguous**
//! shards, balanced by incident-slot count (i.e. by the amount of message
//! traffic a shard scatters and gathers, not by node count).  Because the CSR
//! slot space is node-major, each shard then owns a contiguous slot range,
//! so per-shard message planes touch disjoint memory.
//!
//! The only traffic that crosses shards travels over **boundary slots**:
//! slots whose incident edge has its other endpoint in a different shard.
//! The partition precomputes, for every ordered shard pair `(s, t)`, the
//! ascending list of slots owned by `s` whose receiver lives in `t`
//! ([`Partition::boundary`]), plus a per-slot cross-reference
//! ([`Partition::cross_ref`]) that maps a boundary slot to its `(owner,
//! position)` inside that list.  A sharded executor can therefore move every
//! cross-shard message through a dense, preallocated exchange buffer per
//! shard pair — no hashing, no searching, and no shared mutable plane.

use crate::csr::CsrAdjacency;
use std::ops::Range;

/// Sentinel in the cross-reference table for intra-shard slots.
const INTRA: u64 = u64::MAX;

/// A contiguous, slot-balanced sharding of a graph's nodes, with precomputed
/// boundary-slot maps (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Shard `s` owns nodes `node_starts[s]..node_starts[s + 1]`; length
    /// `k + 1`.
    node_starts: Vec<usize>,
    /// Shard `s` owns slots `slot_starts[s]..slot_starts[s + 1]`; length
    /// `k + 1` (always `offsets[node_starts[s]]`).
    slot_starts: Vec<usize>,
    /// `boundary[s * k + t]`: ascending slots owned by `s` whose receiver is
    /// in shard `t` (empty when `s == t`).
    boundary: Vec<Vec<usize>>,
    /// Per-slot `(owner << 32) | position-in-boundary-list`, or [`INTRA`]
    /// for slots whose edge stays inside one shard.
    cross_ref: Vec<u64>,
}

impl Partition {
    /// Partitions `csr` into (at most) `shards` contiguous node shards,
    /// balancing the total slot count across shards.
    ///
    /// `shards` is clamped to `1..=n`; asking for more shards than nodes
    /// yields one shard per node.
    ///
    /// # Panics
    /// Panics if the graph has no nodes or more than `u32::MAX` slots.
    #[must_use]
    pub fn new(csr: &CsrAdjacency, shards: usize) -> Self {
        let n = csr.node_count();
        assert!(n > 0, "cannot partition an empty graph");
        let total = csr.slot_count();
        assert!(
            total <= u32::MAX as usize,
            "slot space too large for the cross-reference table"
        );
        let k = shards.clamp(1, n);
        let offsets = csr.offsets();

        // Cut points: the s-th cut is the first node at or past the ideal
        // slot boundary `total * s / k`, nudged so every shard keeps at
        // least one node.
        let mut node_starts = Vec::with_capacity(k + 1);
        node_starts.push(0usize);
        for s in 1..k {
            let target = total * s / k;
            let found = offsets.partition_point(|&o| o < target).min(n);
            let lo = node_starts[s - 1] + 1;
            let hi = n - (k - s);
            node_starts.push(found.clamp(lo, hi));
        }
        node_starts.push(n);
        let slot_starts: Vec<usize> = node_starts.iter().map(|&u| offsets[u]).collect();

        // Boundary lists and the per-slot cross-reference.
        let shard_of_node = |u: usize| node_starts.partition_point(|&b| b <= u) - 1;
        let incident = csr.incident_flat();
        let mut boundary = vec![Vec::new(); k * k];
        let mut cross_ref = vec![INTRA; total];
        for s in 0..k {
            for slot in slot_starts[s]..slot_starts[s + 1] {
                let t = shard_of_node(incident[slot].neighbor);
                if t != s {
                    let list = &mut boundary[s * k + t];
                    cross_ref[slot] = ((s as u64) << 32) | list.len() as u64;
                    list.push(slot);
                }
            }
        }

        Self {
            node_starts,
            slot_starts,
            boundary,
            cross_ref,
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.node_starts.len() - 1
    }

    /// Number of nodes covered (the partitioned graph's `n`).
    #[must_use]
    pub fn node_count(&self) -> usize {
        *self.node_starts.last().unwrap()
    }

    /// Number of slots covered (the partitioned graph's `2m`).
    #[must_use]
    pub fn slot_count(&self) -> usize {
        *self.slot_starts.last().unwrap()
    }

    /// The nodes owned by shard `s`.
    #[must_use]
    pub fn node_range(&self, s: usize) -> Range<usize> {
        self.node_starts[s]..self.node_starts[s + 1]
    }

    /// The slots owned by shard `s` (contiguous, node-major).
    #[must_use]
    pub fn slot_range(&self, s: usize) -> Range<usize> {
        self.slot_starts[s]..self.slot_starts[s + 1]
    }

    /// The shard owning node `u`.
    #[must_use]
    pub fn shard_of_node(&self, u: usize) -> usize {
        self.node_starts.partition_point(|&b| b <= u) - 1
    }

    /// The shard owning slot `slot`.
    #[must_use]
    pub fn shard_of_slot(&self, slot: usize) -> usize {
        self.slot_starts.partition_point(|&b| b <= slot) - 1
    }

    /// Ascending slots owned by shard `s` whose receiving endpoint lives in
    /// shard `t` (empty when `s == t`).
    #[must_use]
    pub fn boundary(&self, s: usize, t: usize) -> &[usize] {
        &self.boundary[s * self.shard_count() + t]
    }

    /// For a cross-shard slot: its owner shard and its position inside the
    /// corresponding [`Partition::boundary`] list; `None` for slots whose
    /// edge stays inside one shard.
    #[must_use]
    pub fn cross_ref(&self, slot: usize) -> Option<(usize, usize)> {
        match self.cross_ref[slot] {
            INTRA => None,
            packed => Some(((packed >> 32) as usize, (packed & 0xFFFF_FFFF) as usize)),
        }
    }

    /// Whether this partition's routing tables are valid for `csr`: same
    /// node and slot counts, shard slot ranges matching `csr`'s offsets,
    /// and every slot classified intra- or cross-shard by where its edge
    /// actually leads, at the boundary position its cross-reference names.
    /// A partition of a different graph with equal node and slot counts is
    /// rejected.  One pass over the slots, no allocation.
    #[must_use]
    pub fn fits(&self, csr: &CsrAdjacency) -> bool {
        if self.node_count() != csr.node_count() || self.slot_count() != csr.slot_count() {
            return false;
        }
        let offsets = csr.offsets();
        if self
            .node_starts
            .iter()
            .zip(&self.slot_starts)
            .any(|(&u, &slot)| offsets[u] != slot)
        {
            return false;
        }
        let incident = csr.incident_flat();
        let mut cross = 0usize;
        for s in 0..self.shard_count() {
            let nodes = self.node_range(s);
            for slot in self.slot_range(s) {
                let neighbor = incident[slot].neighbor;
                let routed = match self.cross_ref(slot) {
                    None => nodes.contains(&neighbor),
                    Some((owner, pos)) => {
                        cross += 1;
                        let t = self.shard_of_node(neighbor);
                        owner == s && t != s && self.boundary(s, t).get(pos) == Some(&slot)
                    }
                };
                if !routed {
                    return false;
                }
            }
        }
        cross == self.cross_slot_count()
    }

    /// Total number of cross-shard slots (each cross-shard edge contributes
    /// two: one at each endpoint).
    #[must_use]
    pub fn cross_slot_count(&self) -> usize {
        self.boundary.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{connected_random, grid, path, ring};
    use crate::weights::WeightStrategy;

    fn check_invariants(csr: &CsrAdjacency, p: &Partition) {
        let k = p.shard_count();
        // Shards are contiguous, nonempty, and cover exactly 0..n / 0..2m.
        assert_eq!(p.node_count(), csr.node_count());
        assert_eq!(p.slot_count(), csr.slot_count());
        for s in 0..k {
            assert!(!p.node_range(s).is_empty(), "shard {s} owns no node");
            for u in p.node_range(s) {
                assert_eq!(p.shard_of_node(u), s);
            }
            for slot in p.slot_range(s) {
                assert_eq!(p.shard_of_slot(slot), s);
            }
        }
        // Boundary lists partition exactly the cross-shard slots, and the
        // cross-reference round-trips.
        let mut seen = 0usize;
        for s in 0..k {
            for t in 0..k {
                let b = p.boundary(s, t);
                if s == t {
                    assert!(b.is_empty());
                    continue;
                }
                assert!(b.windows(2).all(|w| w[0] < w[1]), "boundary not sorted");
                for (pos, &slot) in b.iter().enumerate() {
                    assert_eq!(p.shard_of_slot(slot), s);
                    assert_eq!(
                        p.shard_of_node(csr.incident_flat()[slot].neighbor),
                        t,
                        "boundary slot receiver in the wrong shard"
                    );
                    assert_eq!(p.cross_ref(slot), Some((s, pos)));
                    seen += 1;
                }
            }
        }
        assert_eq!(seen, p.cross_slot_count());
        for slot in 0..csr.slot_count() {
            let intra =
                p.shard_of_slot(slot) == p.shard_of_node(csr.incident_flat()[slot].neighbor);
            assert_eq!(p.cross_ref(slot).is_none(), intra);
        }
    }

    #[test]
    fn single_shard_has_no_boundary() {
        let g = ring(10, WeightStrategy::Unit);
        let p = Partition::new(g.csr(), 1);
        assert_eq!(p.shard_count(), 1);
        assert_eq!(p.cross_slot_count(), 0);
        check_invariants(g.csr(), &p);
    }

    #[test]
    fn shard_count_is_clamped_to_node_count() {
        let g = path(3, WeightStrategy::Unit);
        let p = Partition::new(g.csr(), 64);
        assert_eq!(p.shard_count(), 3);
        check_invariants(g.csr(), &p);
    }

    #[test]
    fn ring_partition_is_balanced_and_symmetric() {
        let g = ring(100, WeightStrategy::Unit);
        let p = Partition::new(g.csr(), 4);
        check_invariants(g.csr(), &p);
        for s in 0..4 {
            let share = p.slot_range(s).len();
            assert!((40..=60).contains(&share), "shard {s} owns {share} slots");
        }
        // A ring cut into 4 arcs has exactly 4 cut edges = 8 boundary slots.
        assert_eq!(p.cross_slot_count(), 8);
    }

    #[test]
    fn boundary_lists_are_mirror_symmetric() {
        let g = connected_random(60, 150, 5, WeightStrategy::DistinctRandom { seed: 5 });
        let csr = g.csr();
        for k in [2usize, 3, 7] {
            let p = Partition::new(csr, k);
            check_invariants(csr, &p);
            for s in 0..k {
                for t in 0..k {
                    let fwd = p.boundary(s, t);
                    let rev = p.boundary(t, s);
                    assert_eq!(fwd.len(), rev.len(), "asymmetric boundary ({s},{t})");
                    for &slot in fwd {
                        let m = csr.mirror(slot);
                        assert!(rev.contains(&m), "mirror of {slot} missing from ({t},{s})");
                    }
                }
            }
        }
    }

    #[test]
    fn a_partition_fits_only_graphs_with_its_routing() {
        let a = ring(24, WeightStrategy::Unit);
        let b = connected_random(24, 24, 7, WeightStrategy::Unit);
        assert_eq!(a.csr().slot_count(), b.csr().slot_count());
        for k in [1usize, 2, 3, 5] {
            let p = Partition::new(a.csr(), k);
            assert!(p.fits(a.csr()), "k={k}");
            // An equal-content rebuild of the same graph fits too.
            assert!(p.fits(ring(24, WeightStrategy::Unit).csr()), "k={k}");
            if k > 1 {
                assert!(!p.fits(b.csr()), "k={k}: foreign graph of equal size");
            }
        }
        assert!(!Partition::new(a.csr(), 2).fits(ring(25, WeightStrategy::Unit).csr()));
    }

    #[test]
    fn grid_partition_covers_all_shard_counts() {
        let g = grid(9, 11, WeightStrategy::DistinctRandom { seed: 2 });
        for k in 1..=8 {
            check_invariants(g.csr(), &Partition::new(g.csr(), k));
        }
    }
}

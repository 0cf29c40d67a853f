//! Word-packed lane sets: the bit-parallel primitive of fleet batching.
//!
//! A *batch* (see [`crate::batch`]) runs `W` independent simulations — the
//! *lanes* — in lockstep over one graph traversal.  Everywhere the batch
//! machinery needs a per-lane flag (which lanes are still running, which
//! lanes a flood marker has reached), it packs the `W` booleans into
//! `⌈W / 64⌉` machine words, so the whole batch is inspected or combined
//! with a handful of bitwise instructions instead of `W` branches.
//!
//! [`LaneWords`] is that packed set.  [`BitFleet`] applies it to the
//! simplest genuinely bit-sized workload — reachability flooding, the
//! shape of the paper's flood markers and advice bits — evaluating **one
//! bitwise OR per word per edge per round for all `W` runs at once**, the
//! classic word-parallel simulation trick of FRAIG-style AIG simulators.
//! The `fleet` group of `bench_substrate` measures it against `W`
//! sequential simulator runs.

use lma_graph::WeightedGraph;

/// Bits per packed word.
const WORD_BITS: usize = 64;

/// A fixed-width set of lanes packed into `u64` words.
///
/// The tail invariant: bits at positions `>= lanes` are always zero, so
/// word-level operations ([`LaneWords::or_assign`], [`LaneWords::count`])
/// never have to re-mask.  All single-lane accessors assert the lane index
/// is in range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneWords {
    words: Vec<u64>,
    lanes: usize,
}

impl LaneWords {
    /// An all-clear set over `lanes` lanes.
    #[must_use]
    pub fn new(lanes: usize) -> Self {
        Self {
            words: vec![0; lanes.div_ceil(WORD_BITS)],
            lanes,
        }
    }

    /// Packs a boolean slice, lane `i` taking `bits[i]`.
    #[must_use]
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut set = Self::new(bits.len());
        for (lane, &bit) in bits.iter().enumerate() {
            if bit {
                set.set(lane);
            }
        }
        set
    }

    /// Unpacks back into one boolean per lane (`from_bools ∘ to_bools = id`,
    /// pinned by the `lane_packing` proptests).
    #[must_use]
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.lanes).map(|lane| self.get(lane)).collect()
    }

    /// Number of lanes (not the number of set lanes; see
    /// [`LaneWords::count`]).
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The packed words (read-only; `⌈lanes / 64⌉` of them).
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Whether `lane` is set.
    #[must_use]
    pub fn get(&self, lane: usize) -> bool {
        assert!(lane < self.lanes, "lane {lane} out of {} lanes", self.lanes);
        self.words[lane / WORD_BITS] & (1u64 << (lane % WORD_BITS)) != 0
    }

    /// Sets `lane`.
    pub fn set(&mut self, lane: usize) {
        assert!(lane < self.lanes, "lane {lane} out of {} lanes", self.lanes);
        self.words[lane / WORD_BITS] |= 1u64 << (lane % WORD_BITS);
    }

    /// Clears `lane`.
    pub fn clear(&mut self, lane: usize) {
        assert!(lane < self.lanes, "lane {lane} out of {} lanes", self.lanes);
        self.words[lane / WORD_BITS] &= !(1u64 << (lane % WORD_BITS));
    }

    /// Sets every lane (tail bits stay clear).
    pub fn fill(&mut self) {
        for word in &mut self.words {
            *word = u64::MAX;
        }
        let tail = self.lanes % WORD_BITS;
        if tail != 0 {
            *self.words.last_mut().expect("lanes > 0 implies a word") = (1u64 << tail) - 1;
        }
        if self.lanes == 0 {
            self.words.clear();
        }
    }

    /// Clears every lane.
    pub fn clear_all(&mut self) {
        for word in &mut self.words {
            *word = 0;
        }
    }

    /// True when at least one lane is set — one `|`-reduction over the
    /// words, not a per-lane scan.
    #[must_use]
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Number of set lanes (one popcount per word).
    #[must_use]
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates the set lanes in ascending order (trailing-zeros walk, so
    /// sparse sets cost per set bit, not per lane).
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(wi * WORD_BITS + bit)
            })
        })
    }

    /// Calls `f` on every set lane in ascending order — [`LaneWords::ones`]
    /// as plain loops, which the engines' per-node lane loop inlines whole.
    #[inline]
    pub fn for_each(&self, mut f: impl FnMut(usize)) {
        for (wi, &word) in self.words.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                f(wi * WORD_BITS + rest.trailing_zeros() as usize);
                rest &= rest - 1;
            }
        }
    }

    /// `self |= other`: one OR per word for all lanes at once.  Both sets
    /// must have the same lane count.
    pub fn or_assign(&mut self, other: &LaneWords) {
        assert_eq!(self.lanes, other.lanes, "lane-count mismatch");
        for (dst, src) in self.words.iter_mut().zip(&other.words) {
            *dst |= src;
        }
    }
}

/// Word-parallel reachability flooding: `W` independent flood runs on one
/// graph, evaluated with one bitwise OR per word per edge per round.
///
/// Each node carries one [`LaneWords`]-shaped mark vector (`⌈W / 64⌉`
/// words).  Seeding lane `l` at node `u` models run `l` starting its flood
/// at `u`; after `r` rounds, lane `l` is set at exactly the nodes within
/// distance `r` of run `l`'s seeds — the information-spread pattern of the
/// paper's flooding baselines and advice-bit broadcasts, for all `W` runs
/// in a single traversal.  The equivalence against per-lane simulator runs
/// is pinned by the `lane_packing` suite; the `fleet` bench group measures
/// the amortization.
#[derive(Debug, Clone)]
pub struct BitFleet {
    n: usize,
    lanes: usize,
    /// Words per node (`⌈lanes / 64⌉`).
    wpn: usize,
    /// Current marks, node-major: `cur[v * wpn ..][..wpn]`.
    cur: Vec<u64>,
    /// Double buffer for the next round.
    next: Vec<u64>,
}

impl BitFleet {
    /// An unseeded fleet of `lanes` runs over `n` nodes.
    #[must_use]
    pub fn new(n: usize, lanes: usize) -> Self {
        let wpn = lanes.div_ceil(WORD_BITS);
        Self {
            n,
            lanes,
            wpn,
            cur: vec![0; n * wpn],
            next: vec![0; n * wpn],
        }
    }

    /// Number of lanes (independent runs).
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Clears every mark, keeping the buffers.
    pub fn reset(&mut self) {
        self.cur.iter_mut().for_each(|w| *w = 0);
        self.next.iter_mut().for_each(|w| *w = 0);
    }

    /// Seeds run `lane` at `node`.
    pub fn seed(&mut self, node: usize, lane: usize) {
        assert!(node < self.n, "node {node} out of {}", self.n);
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        self.cur[node * self.wpn + lane / WORD_BITS] |= 1u64 << (lane % WORD_BITS);
    }

    /// Whether run `lane`'s flood has reached `node`.
    #[must_use]
    pub fn reached(&self, node: usize, lane: usize) -> bool {
        assert!(node < self.n, "node {node} out of {}", self.n);
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        self.cur[node * self.wpn + lane / WORD_BITS] & (1u64 << (lane % WORD_BITS)) != 0
    }

    /// The mark vector of `node` as a [`LaneWords`] set.
    #[must_use]
    pub fn marks(&self, node: usize) -> LaneWords {
        assert!(node < self.n, "node {node} out of {}", self.n);
        let mut out = LaneWords::new(self.lanes);
        out.words
            .copy_from_slice(&self.cur[node * self.wpn..(node + 1) * self.wpn]);
        out
    }

    /// Advances all `W` floods by `rounds` synchronous rounds on `graph`:
    /// each round, every node ORs in its neighbours' marks — `wpn` bitwise
    /// ORs per edge endpoint, regardless of how many of the `W` runs are
    /// active there.
    pub fn run(&mut self, graph: &WeightedGraph, rounds: usize) {
        assert_eq!(graph.node_count(), self.n, "fleet sized for another graph");
        let csr = graph.csr();
        let offsets = csr.offsets();
        let incident = csr.incident_flat();
        let wpn = self.wpn;
        for _ in 0..rounds {
            self.next.copy_from_slice(&self.cur);
            for v in 0..self.n {
                for ie in &incident[offsets[v]..offsets[v + 1]] {
                    let src = ie.neighbor * wpn;
                    let dst = v * wpn;
                    for w in 0..wpn {
                        self.next[dst + w] |= self.cur[src + w];
                    }
                }
            }
            std::mem::swap(&mut self.cur, &mut self.next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lma_graph::generators::{grid, ring};
    use lma_graph::weights::WeightStrategy;

    #[test]
    fn lane_words_roundtrip_and_tail_masking() {
        for lanes in [0usize, 1, 2, 63, 64, 65, 130] {
            let mut set = LaneWords::new(lanes);
            assert_eq!(set.lanes(), lanes);
            assert!(!set.any());
            set.fill();
            assert_eq!(set.count(), lanes);
            // Tail bits above `lanes` must stay clear.
            let spare_bits: usize = set.words().iter().map(|w| w.count_ones() as usize).sum();
            assert_eq!(spare_bits, lanes);
            assert_eq!(set.to_bools(), vec![true; lanes]);
            set.clear_all();
            assert!(!set.any());
        }
    }

    #[test]
    fn lane_words_set_get_clear_and_ones() {
        let mut set = LaneWords::new(70);
        for lane in [0usize, 3, 63, 64, 69] {
            set.set(lane);
        }
        assert!(set.get(64) && !set.get(65));
        assert_eq!(set.ones().collect::<Vec<_>>(), vec![0, 3, 63, 64, 69]);
        assert_eq!(set.count(), 5);
        set.clear(64);
        assert!(!set.get(64));
        assert_eq!(set.count(), 4);
        let roundtrip = LaneWords::from_bools(&set.to_bools());
        assert_eq!(roundtrip, set);
    }

    #[test]
    fn or_assign_is_per_lane_union() {
        let a = LaneWords::from_bools(&[true, false, true, false, false]);
        let mut b = LaneWords::from_bools(&[false, false, true, true, false]);
        b.or_assign(&a);
        assert_eq!(b.to_bools(), vec![true, false, true, true, false]);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn lane_bounds_are_checked() {
        let set = LaneWords::new(4);
        let _ = set.get(4);
    }

    #[test]
    fn bit_fleet_matches_per_lane_bfs_distances() {
        let g = grid(5, 6, WeightStrategy::DistinctRandom { seed: 9 });
        let n = g.node_count();
        let lanes = 70; // forces a two-word tail
        let mut fleet = BitFleet::new(n, lanes);
        for lane in 0..lanes {
            fleet.seed(lane % n, lane);
        }
        let rounds = 4;
        fleet.run(&g, rounds);
        for lane in 0..lanes {
            let seed = lane % n;
            let dist = bfs_distances(&g, seed);
            for (v, &d) in dist.iter().enumerate() {
                assert_eq!(fleet.reached(v, lane), d <= rounds, "lane {lane} node {v}");
            }
        }
    }

    #[test]
    fn bit_fleet_reset_clears_marks() {
        let g = ring(8, WeightStrategy::Unit);
        let mut fleet = BitFleet::new(8, 3);
        fleet.seed(0, 1);
        fleet.run(&g, 2);
        assert!(fleet.reached(2, 1));
        fleet.reset();
        assert!((0..8).all(|v| (0..3).all(|l| !fleet.reached(v, l))));
    }

    fn bfs_distances(g: &WeightedGraph, seed: usize) -> Vec<usize> {
        let mut dist = vec![usize::MAX; g.node_count()];
        dist[seed] = 0;
        let mut queue = std::collections::VecDeque::from([seed]);
        while let Some(u) = queue.pop_front() {
            for ie in g.incident(u) {
                if dist[ie.neighbor] == usize::MAX {
                    dist[ie.neighbor] = dist[u] + 1;
                    queue.push_back(ie.neighbor);
                }
            }
        }
        dist
    }
}

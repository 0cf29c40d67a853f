//! Sparse frontier execution — Ligra-style dense↔sparse round loops.
//!
//! The paper's workloads are frontier-shaped: floods, gossip waves and MST
//! component growth touch a moving subset of nodes per round, yet a dense
//! round loop scans all `n` nodes every round, so a flood on `ring/4096`
//! pays ~4096 gathers per round for a ~2-node frontier.  This module holds
//! the shared machinery that lets every executor gather **only** the nodes
//! that can possibly act:
//!
//! * While a sender scatters, each successfully stored message marks its
//!   destination node (known at `put` time from the CSR `IncidentEdge`
//!   target) in a `next_frontier` bitset.
//! * The next round gathers only frontier nodes when the frontier is small
//!   (`|frontier| · θ < n`, θ = `THETA`), and falls back to the existing
//!   dense scan otherwise — dense workloads keep their current code path
//!   and cost.
//!
//! Skipping a node is only sound when its `round` call would have been a
//! no-op, so the whole mechanism is **opt-in** via
//! [`crate::NodeAlgorithm::MESSAGE_DRIVEN`]; programs whose instances
//! answer [`crate::NodeAlgorithm::message_driven`]` == false` are *eager*
//! and stay on the frontier every round.  For programs that do not opt in,
//! every executor compiles the frontier plumbing away (`MESSAGE_DRIVEN` is
//! an associated const) and behaves byte-for-byte as before.

/// How an opted-in run picks between the dense scan and the sparse
/// frontier gather each round.
///
/// The mode is a pure *scheduling* knob: by the [`MESSAGE_DRIVEN`]
/// contract every mode produces bit-identical outputs, stats, traces and
/// errors — `Dense` and `Sparse` exist to pin exactly that in tests and to
/// isolate the two code paths in benchmarks.  Programs that do not opt in
/// ignore the knob entirely.
///
/// [`MESSAGE_DRIVEN`]: crate::NodeAlgorithm::MESSAGE_DRIVEN
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FrontierMode {
    /// Per-round switch: gather sparsely when `|frontier| · θ < n`
    /// (θ = `THETA`), densely otherwise.  The default.
    #[default]
    Auto,
    /// Always run the dense scan (today's schedule, every non-done node
    /// stepped every round).
    Dense,
    /// Always iterate the frontier, whatever its size.
    Sparse,
}

impl FrontierMode {
    /// Parses the lowercase mode names used by benches and CLI tools.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "auto" => Some(Self::Auto),
            "dense" => Some(Self::Dense),
            "sparse" => Some(Self::Sparse),
            _ => None,
        }
    }

    /// The lowercase name, inverse of [`FrontierMode::parse`].
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Auto => "auto",
            Self::Dense => "dense",
            Self::Sparse => "sparse",
        }
    }

    /// The per-round decision: gather sparsely this round?
    #[must_use]
    pub(crate) fn use_sparse(self, active: usize, n: usize) -> bool {
        match self {
            Self::Auto => active * THETA < n,
            Self::Dense => false,
            Self::Sparse => true,
        }
    }
}

/// Density threshold for [`FrontierMode::Auto`]: gather sparsely while the
/// frontier covers less than `1/θ` of the nodes.  Ligra's direction switch
/// uses edge counts; here the gather cost is dominated by the per-node
/// mirror walk, so a node-count threshold is the honest analogue.  θ = 8
/// keeps the dense path for anything that touches ≥ 12.5% of the graph
/// (see the README decision table for measurements).
pub(crate) const THETA: usize = 8;

const WORD_BITS: usize = 64;

/// A fixed-capacity bitset over node indices — the frontier itself.
///
/// Deliberately minimal (insert, bulk copy/OR, popcount, set-bit
/// iteration): every executor keeps two of these (`cur`, `next`) plus an
/// `eager` template, swapped in lockstep with the message planes.
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeSet {
    words: Vec<u64>,
}

impl NodeSet {
    /// An empty set with capacity for nodes `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            words: vec![0; n.div_ceil(WORD_BITS)],
        }
    }

    /// Adds `node` to the set.
    #[inline]
    pub(crate) fn insert(&mut self, node: usize) {
        self.words[node / WORD_BITS] |= 1 << (node % WORD_BITS);
    }

    /// Membership test (test-only helper).
    #[cfg(test)]
    pub(crate) fn contains(&self, node: usize) -> bool {
        self.words[node / WORD_BITS] & (1 << (node % WORD_BITS)) != 0
    }

    /// Number of set bits.
    pub(crate) fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Overwrites this set with `other` (equal capacity).
    pub(crate) fn copy_from(&mut self, other: &Self) {
        self.words.copy_from_slice(&other.words);
    }

    /// Clears every bit.
    pub(crate) fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Iterates set bits in ascending order.
    pub(crate) fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        ones_of(&self.words, 0)
    }

    /// Iterates set bits within `start..end` in ascending order.
    pub(crate) fn ones_in(&self, start: usize, end: usize) -> impl Iterator<Item = usize> + '_ {
        let first_word = start / WORD_BITS;
        let words = &self.words[first_word..end.div_ceil(WORD_BITS).max(first_word)];
        ones_of(words, first_word * WORD_BITS)
            .skip_while(move |&v| v < start)
            .take_while(move |&v| v < end)
    }

    /// Moves every non-zero word into `out` as ascending `(index, word)`
    /// pairs and resets it to `template`'s word — the sharded worker's
    /// publish step.  This set must hold `template` plus marks (as a worker's
    /// scatter set does), so it equals `template` afterwards.
    pub(crate) fn drain_pairs(&mut self, template: &Self, out: &mut Vec<WordPair>) {
        for (i, (word, &keep)) in self.words.iter_mut().zip(&template.words).enumerate() {
            if *word != 0 {
                out.push((i, *word));
                *word = keep;
            }
        }
    }
}

/// Trailing-zeros iteration over raw bitset words, offset by `base`.
fn ones_of(words: &[u64], base: usize) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(move |(i, &word)| {
        std::iter::successors((word != 0).then_some(word), |w| {
            let rest = w & (w - 1);
            (rest != 0).then_some(rest)
        })
        .map(move |w| base + i * WORD_BITS + w.trailing_zeros() as usize)
    })
}

/// One non-zero bitset word and its index: the unit of the sharded
/// engines' frontier hand-off.  Shards publish their marks as ascending
/// pairs, the leader merges them into a [`WordMerge`], and each worker
/// copies back the merged pairs over its own node range.
pub(crate) type WordPair = (usize, u64);

/// The set bits in `start..end` of ascending `pairs`, in ascending order —
/// a worker's sparse gather order.
pub(crate) fn pair_ones(
    pairs: &[WordPair],
    start: usize,
    end: usize,
) -> impl Iterator<Item = usize> + '_ {
    pairs
        .iter()
        .flat_map(|(i, word)| ones_of(std::slice::from_ref(word), i * WORD_BITS))
        .filter(move |v| (start..end).contains(v))
}

/// The sharded leader's merged frontier: an OR-accumulator over a dense
/// word array plus a one-bit-per-word occupancy set, so merging the shards'
/// [`WordPair`]s, counting, listing and clearing all cost the number of
/// non-zero words (plus a scan of `len / 64` occupancy words), not the
/// array's length.  The single-run engine merges [`NodeSet`] words into
/// one; the batch engine merges [`BatchFrontier`] mark words into one and
/// derives its node-level mask into a second.
#[derive(Debug, Clone, Default)]
pub(crate) struct WordMerge {
    words: Vec<u64>,
    occupied: NodeSet,
}

impl WordMerge {
    /// An empty accumulator over `len` words.
    fn new(len: usize) -> Self {
        Self {
            words: vec![0; len],
            occupied: NodeSet::new(len),
        }
    }

    /// An empty accumulator with one bit per node `0..n`.
    pub(crate) fn for_nodes(n: usize) -> Self {
        Self::new(n.div_ceil(WORD_BITS))
    }

    /// An empty accumulator over the mark words of a [`BatchFrontier`] for
    /// `n` nodes × `lanes` lanes.
    pub(crate) fn for_marks(n: usize, lanes: usize) -> Self {
        Self::new(n * lanes.div_ceil(WORD_BITS))
    }

    /// ORs `pairs` in.
    pub(crate) fn or_pairs(&mut self, pairs: &[WordPair]) {
        for &(i, word) in pairs {
            self.words[i] |= word;
            self.occupied.insert(i);
        }
    }

    /// Sets bit `bit`.
    pub(crate) fn insert(&mut self, bit: usize) {
        self.or_pairs(&[(bit / WORD_BITS, 1 << (bit % WORD_BITS))]);
    }

    /// The non-zero words as ascending pairs.
    pub(crate) fn pairs(&self) -> impl Iterator<Item = WordPair> + '_ {
        self.occupied.ones().map(|i| (i, self.words[i]))
    }

    /// The non-zero words holding any of bits `start..end`, ascending
    /// (the edge words may carry bits outside the range).
    pub(crate) fn pairs_over(
        &self,
        start: usize,
        end: usize,
    ) -> impl Iterator<Item = WordPair> + '_ {
        self.occupied
            .ones_in(start / WORD_BITS, end.div_ceil(WORD_BITS))
            .map(|i| (i, self.words[i]))
    }

    /// Number of set bits.
    pub(crate) fn count(&self) -> usize {
        self.pairs().map(|(_, w)| w.count_ones() as usize).sum()
    }

    /// Clears every bit, touching only the non-zero words.
    pub(crate) fn clear(&mut self) {
        for i in self.occupied.ones() {
            self.words[i] = 0;
        }
        self.occupied.clear_all();
    }
}

/// The lane-striped frontier used by the batch executors: per-(node, lane)
/// marks plus a node-level "any lane active" mask so one gather pass can
/// serve the whole batch.
///
/// Layout is node-major like `BitFleet`: lane `l` of node `v` lives at bit
/// `l % 64` of word `v * wpn + l / 64`, where `wpn = lanes.div_ceil(64)`.
#[derive(Debug, Clone, Default)]
pub(crate) struct BatchFrontier {
    marks: Vec<u64>,
    any: NodeSet,
    lanes: usize,
    wpn: usize,
}

impl BatchFrontier {
    /// An empty frontier for `n` nodes × `lanes` lanes.
    pub(crate) fn new(n: usize, lanes: usize) -> Self {
        let wpn = lanes.div_ceil(WORD_BITS);
        Self {
            marks: vec![0; n * wpn],
            any: NodeSet::new(n),
            lanes,
            wpn,
        }
    }

    /// Marks `(node, lane)` active and `node` any-lane-active.
    #[inline]
    pub(crate) fn mark(&mut self, node: usize, lane: usize) {
        self.marks[node * self.wpn + lane / WORD_BITS] |= 1 << (lane % WORD_BITS);
        self.any.insert(node);
    }

    /// The node-level any-lane-active mask.
    pub(crate) fn any(&self) -> &NodeSet {
        &self.any
    }

    /// Overwrites this frontier with `other` (equal shape).
    pub(crate) fn copy_from(&mut self, other: &Self) {
        self.marks.copy_from_slice(&other.marks);
        self.any.copy_from(&other.any);
    }

    /// Moves every non-zero mark word into `out` as ascending
    /// `(index, word)` pairs and resets this frontier to `template` — the
    /// batch analogue of [`NodeSet::drain_pairs`].  The any mask finds the
    /// marked nodes, so the scan covers `n / 64` words, not `n · wpn`.
    pub(crate) fn drain_pairs(&mut self, template: &Self, out: &mut Vec<WordPair>) {
        let wpn = self.wpn;
        let any = self.any.words.iter_mut().zip(&template.any.words);
        for (i, (word, &keep)) in any.enumerate() {
            let nodes = *word;
            for v in ones_of(std::slice::from_ref(&nodes), i * WORD_BITS) {
                for j in v * wpn..(v + 1) * wpn {
                    if self.marks[j] != 0 {
                        out.push((j, self.marks[j]));
                        self.marks[j] = template.marks[j];
                    }
                }
            }
            *word = keep;
        }
    }

    /// Per-lane active-node counts (`counts[l] = |{v : (v, l) marked}|`),
    /// accumulated by iterating the any mask — O(active · wpn).
    pub(crate) fn lane_counts(&self, counts: &mut [u64]) {
        debug_assert_eq!(counts.len(), self.lanes);
        counts.fill(0);
        for v in self.any.ones() {
            let node_words = &self.marks[v * self.wpn..(v + 1) * self.wpn];
            for (i, &word) in node_words.iter().enumerate() {
                let mut rest = word;
                while rest != 0 {
                    let lane = i * WORD_BITS + rest.trailing_zeros() as usize;
                    counts[lane] += 1;
                    rest &= rest - 1;
                }
            }
        }
    }
}

/// Splits merged batch mark words (in [`BatchFrontier`]'s layout for
/// `lanes` lanes) into the node-level any-lane mask, ORed into `nodes`, and
/// per-lane active-node counts — the sharded batch leader's analogue of
/// [`BatchFrontier::any`] and [`BatchFrontier::lane_counts`].
pub(crate) fn split_lanes(
    marks: &WordMerge,
    lanes: usize,
    nodes: &mut WordMerge,
    counts: &mut [u64],
) {
    let wpn = lanes.div_ceil(WORD_BITS);
    counts.fill(0);
    for (i, word) in marks.pairs() {
        nodes.insert(i / wpn);
        for lane in ones_of(std::slice::from_ref(&word), (i % wpn) * WORD_BITS) {
            counts[lane] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_defaults_and_labels_round_trip() {
        assert_eq!(FrontierMode::default(), FrontierMode::Auto);
        for mode in [
            FrontierMode::Auto,
            FrontierMode::Dense,
            FrontierMode::Sparse,
        ] {
            assert_eq!(FrontierMode::parse(mode.label()), Some(mode));
        }
        assert_eq!(FrontierMode::parse("bogus"), None);
    }

    #[test]
    fn auto_switches_at_theta() {
        let n = 80;
        assert!(FrontierMode::Auto.use_sparse(9, n), "9 * 8 = 72 < 80");
        assert!(!FrontierMode::Auto.use_sparse(10, n), "10 * 8 = 80");
        assert!(FrontierMode::Sparse.use_sparse(n, n));
        assert!(!FrontierMode::Dense.use_sparse(0, n));
    }

    #[test]
    fn node_set_insert_count_iterate() {
        let mut set = NodeSet::new(130);
        for v in [0, 1, 63, 64, 65, 127, 128, 129] {
            set.insert(v);
        }
        assert_eq!(set.count(), 8);
        assert!(set.contains(64));
        assert!(!set.contains(2));
        let got: Vec<usize> = set.ones().collect();
        assert_eq!(got, vec![0, 1, 63, 64, 65, 127, 128, 129]);
        let ranged: Vec<usize> = set.ones_in(63, 128).collect();
        assert_eq!(ranged, vec![63, 64, 65, 127]);

        let mut other = NodeSet::new(130);
        other.insert(5);
        other.copy_from(&set);
        assert!(!other.contains(5));
        assert_eq!(other.count(), 8);
        other.clear_all();
        assert_eq!(other.count(), 0);
    }

    #[test]
    fn drained_pairs_merge_back_to_the_union() {
        // Two "shards" over 200 nodes, each with an eager template.
        let mut eager = [NodeSet::new(200), NodeSet::new(200)];
        eager[0].insert(3);
        eager[1].insert(150);
        let mut local = eager.clone();
        let mut merge = WordMerge::for_nodes(200);
        for _round in 0..2 {
            // Scatter marks, remote ones included, then the hand-off.
            for v in [3, 64, 65, 199] {
                local[0].insert(v);
            }
            local[1].insert(65);
            merge.clear();
            let mut union = NodeSet::new(200);
            for (s, set) in local.iter_mut().enumerate() {
                for v in set.ones() {
                    union.insert(v);
                }
                let mut pairs = Vec::new();
                set.drain_pairs(&eager[s], &mut pairs);
                assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
                assert!(pairs.iter().all(|&(_, w)| w != 0));
                assert_eq!(
                    set.ones().collect::<Vec<_>>(),
                    eager[s].ones().collect::<Vec<_>>()
                );
                merge.or_pairs(&pairs);
            }
            assert_eq!(merge.count(), union.count());
            let merged: Vec<WordPair> = merge.pairs().collect();
            assert_eq!(
                pair_ones(&merged, 0, 200).collect::<Vec<_>>(),
                union.ones().collect::<Vec<_>>()
            );
            // A worker's slice: only words over its range, only its bits.
            let slice: Vec<WordPair> = merge.pairs_over(60, 151).collect();
            assert_eq!(slice.iter().map(|p| p.0).collect::<Vec<_>>(), vec![0, 1, 2]);
            assert_eq!(
                pair_ones(&slice, 60, 151).collect::<Vec<_>>(),
                union.ones_in(60, 151).collect::<Vec<_>>()
            );
        }
        merge.clear();
        assert_eq!(merge.count(), 0);
        assert_eq!(merge.pairs().count(), 0);
    }

    #[test]
    fn batch_frontier_marks_lanes_and_counts() {
        let mut f = BatchFrontier::new(5, 70);
        f.mark(0, 0);
        f.mark(0, 69);
        f.mark(3, 69);
        f.mark(4, 1);
        assert_eq!(f.any().ones().collect::<Vec<_>>(), vec![0, 3, 4]);
        let mut counts = vec![0; 70];
        f.lane_counts(&mut counts);
        assert_eq!(counts[0], 1);
        assert_eq!(counts[1], 1);
        assert_eq!(counts[69], 2);
        assert_eq!(counts.iter().sum::<u64>(), 4);

        // The sharded hand-off: drain to pairs, merge, split back per lane.
        let eager = BatchFrontier::new(5, 70);
        let mut pairs = Vec::new();
        let mut drained = f.clone();
        drained.drain_pairs(&eager, &mut pairs);
        assert_eq!(drained.any().count(), 0);
        assert_eq!(pairs.len(), 4, "node 0 marks both of its words");
        let mut marks = WordMerge::for_marks(5, 70);
        marks.or_pairs(&pairs);
        let mut nodes = WordMerge::for_nodes(5);
        let mut split = vec![0; 70];
        split_lanes(&marks, 70, &mut nodes, &mut split);
        assert_eq!(split, counts);
        let node_pairs: Vec<WordPair> = nodes.pairs().collect();
        assert_eq!(
            pair_ones(&node_pairs, 0, 5).collect::<Vec<_>>(),
            vec![0, 3, 4]
        );
    }
}

//! Sparse frontier execution — Ligra-style dense↔sparse round loops.
//!
//! The paper's workloads are frontier-shaped: floods, gossip waves and MST
//! component growth touch a moving subset of nodes per round, yet a dense
//! round loop scans all `n` nodes every round, so a flood on `ring/4096`
//! pays ~4096 gathers per round for a ~2-node frontier.  This module holds
//! the machinery that lets both plane engines (one thread and
//! shard-parallel) gather **only** the nodes that can possibly act:
//!
//! * While a sender scatters, each successfully stored message marks its
//!   destination node (known at `put` time from the CSR `IncidentEdge`
//!   target) in the next round's frontier, a `WordMerge`.
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
//! the engines compile the frontier plumbing away (`MESSAGE_DRIVEN` is an
//! associated const) and behave byte-for-byte as before.
//!
//! The frontier is a two-level node bitset, so its per-round passes — the
//! reset to the eager template, counting, sparse iteration and the sharded
//! hand-off — cost the words actually marked, not `n`.

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

/// A fixed-capacity bitset over word indices — the occupancy level of a
/// [`WordMerge`], one bit per 64-bit word of the accumulator.
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeSet {
    words: Vec<u64>,
}

impl NodeSet {
    /// An empty set with capacity for bits `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            words: vec![0; n.div_ceil(WORD_BITS)],
        }
    }

    /// Adds `bit` to the set.
    #[inline]
    pub(crate) fn insert(&mut self, bit: usize) {
        self.words[bit / WORD_BITS] |= 1 << (bit % WORD_BITS);
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
    #[cfg(test)]
    pub(crate) fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        ones_of(&self.words, 0)
    }

    /// Calls `f` on every set bit in ascending order — [`NodeSet::ones`] as
    /// plain loops, which the per-round passes inline whole.
    #[inline]
    pub(crate) fn for_each(&self, mut f: impl FnMut(usize)) {
        for (i, &word) in self.words.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                f(i * WORD_BITS + rest.trailing_zeros() as usize);
                rest &= rest - 1;
            }
        }
    }

    /// Iterates set bits within `start..end` in ascending order.
    pub(crate) fn ones_in(&self, start: usize, end: usize) -> impl Iterator<Item = usize> + '_ {
        let first_word = start / WORD_BITS;
        let words = &self.words[first_word..end.div_ceil(WORD_BITS).max(first_word)];
        ones_of(words, first_word * WORD_BITS)
            .skip_while(move |&v| v < start)
            .take_while(move |&v| v < end)
    }
}

/// The set bits of one word, offset by `base`, in ascending order.
fn word_ones(word: u64, base: usize) -> impl Iterator<Item = usize> {
    std::iter::successors((word != 0).then_some(word), |w| {
        let rest = w & (w - 1);
        (rest != 0).then_some(rest)
    })
    .map(move |w| base + w.trailing_zeros() as usize)
}

/// Trailing-zeros iteration over raw bitset words, offset by `base`.
fn ones_of(words: &[u64], base: usize) -> impl Iterator<Item = usize> + '_ {
    words
        .iter()
        .enumerate()
        .flat_map(move |(i, &word)| word_ones(word, base + i * WORD_BITS))
}

/// One non-zero bitset word and its index: the unit of the sharded
/// engine's frontier hand-off.  Shards publish their marks as ascending
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
        .flat_map(|&(i, word)| word_ones(word, i * WORD_BITS))
        .filter(move |v| (start..end).contains(v))
}

/// A two-level bitset over nodes: a dense word array plus a
/// one-bit-per-word occupancy set, so marking, merging [`WordPair`]s,
/// counting, listing and clearing all cost the number of non-zero words
/// plus a scan of `n / 4096` occupancy words, never `n`.
///
/// It is the frontier of a run: every shard's scatter marks and eager
/// template, and the ledger's frontier — into which the one-thread engine
/// swaps its whole-graph shard's marks each round, and the sharded leader
/// merges the workers' mark words.
#[derive(Debug, Clone, Default)]
pub(crate) struct WordMerge {
    words: Vec<u64>,
    occupied: NodeSet,
}

impl WordMerge {
    /// An empty set with one bit per node `0..n`.
    pub(crate) fn for_nodes(n: usize) -> Self {
        let len = n.div_ceil(WORD_BITS);
        Self {
            words: vec![0; len],
            occupied: NodeSet::new(len),
        }
    }

    /// ORs `word` into word `i`.
    #[inline]
    fn or_word(&mut self, i: usize, word: u64) {
        self.words[i] |= word;
        self.occupied.insert(i);
    }

    /// Marks `node` active.
    #[inline]
    pub(crate) fn mark(&mut self, node: usize) {
        self.or_word(node / WORD_BITS, 1 << (node % WORD_BITS));
    }

    /// ORs `pairs` in.
    pub(crate) fn or_pairs(&mut self, pairs: &[WordPair]) {
        for &(i, word) in pairs {
            self.or_word(i, word);
        }
    }

    /// The non-zero words as ascending pairs.
    #[cfg(test)]
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

    /// The set bits in ascending order (test-only helper; the engines use
    /// [`WordMerge::for_each_one`]).
    #[cfg(test)]
    pub(crate) fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.pairs()
            .flat_map(|(i, word)| word_ones(word, i * WORD_BITS))
    }

    /// Calls `f` on every set bit in ascending order — [`WordMerge::ones`]
    /// as plain loops, so the sparse gather pass inlines it whole.
    #[inline]
    pub(crate) fn for_each_one(&self, mut f: impl FnMut(usize)) {
        self.occupied.for_each(|i| {
            let mut rest = self.words[i];
            while rest != 0 {
                f(i * WORD_BITS + rest.trailing_zeros() as usize);
                rest &= rest - 1;
            }
        });
    }

    /// Number of set bits.
    pub(crate) fn count(&self) -> usize {
        let mut count = 0;
        self.occupied
            .for_each(|i| count += self.words[i].count_ones() as usize);
        count
    }

    /// Clears every bit, touching only the non-zero words.
    pub(crate) fn clear(&mut self) {
        let words = &mut self.words;
        self.occupied.for_each(|i| words[i] = 0);
        self.occupied.clear_all();
    }

    /// Resets this set to `template` (equal size), touching only the
    /// occupied words of both.
    pub(crate) fn reset_to(&mut self, template: &Self) {
        self.clear();
        let words = &mut self.words;
        template.occupied.for_each(|i| words[i] = template.words[i]);
        self.occupied.copy_from(&template.occupied);
    }

    /// Moves every non-zero word into `out` as ascending `(index, word)`
    /// pairs and resets this set to `template` — the sharded worker's
    /// publish step.  This set must hold `template` plus marks (as a
    /// worker's scatter set does), so every occupied word of the template
    /// is occupied here too.
    pub(crate) fn drain_pairs(&mut self, template: &Self, out: &mut Vec<WordPair>) {
        let Self { words, occupied } = self;
        occupied.for_each(|i| {
            out.push((i, words[i]));
            words[i] = template.words[i];
        });
        occupied.copy_from(&template.occupied);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lma_graph::SplitMix64;

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
        let got: Vec<usize> = set.ones().collect();
        assert_eq!(got, vec![0, 1, 63, 64, 65, 127, 128, 129]);
        let ranged: Vec<usize> = set.ones_in(63, 128).collect();
        assert_eq!(ranged, vec![63, 64, 65, 127]);

        let mut other = NodeSet::new(130);
        other.insert(5);
        other.copy_from(&set);
        assert_eq!(other.ones().collect::<Vec<_>>(), got);
        other.clear_all();
        assert_eq!(other.ones().count(), 0);
    }

    #[test]
    fn drained_pairs_merge_back_to_the_union() {
        // Two "shards" over 200 nodes, each with an eager template.
        let mut eager = [WordMerge::for_nodes(200), WordMerge::for_nodes(200)];
        eager[0].mark(3);
        eager[1].mark(150);
        let mut local = eager.clone();
        let mut merge = WordMerge::for_nodes(200);
        for _round in 0..2 {
            // Scatter marks, remote ones included, then the hand-off.
            for v in [3, 64, 65, 199] {
                local[0].mark(v);
            }
            local[1].mark(65);
            merge.clear();
            let mut union = WordMerge::for_nodes(200);
            for (s, set) in local.iter_mut().enumerate() {
                union.or_pairs(&set.pairs().collect::<Vec<_>>());
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
                union
                    .ones()
                    .filter(|v| (60..151).contains(v))
                    .collect::<Vec<_>>()
            );
        }
        merge.clear();
        assert_eq!(merge.count(), 0);
        assert_eq!(merge.pairs().count(), 0);
    }

    /// Marks a random sprinkle of nodes into both the set and its model.
    fn sprinkle(rng: &mut SplitMix64, f: &mut WordMerge, model: &mut [bool], marks: usize) {
        for _ in 0..marks {
            let v = rng.next_index(model.len());
            f.mark(v);
            model[v] = true;
        }
    }

    fn assert_matches(f: &WordMerge, model: &[bool], what: &str) {
        let nodes: Vec<usize> = (0..model.len()).filter(|&v| model[v]).collect();
        assert_eq!(f.ones().collect::<Vec<_>>(), nodes, "{what}: iteration");
        assert_eq!(f.count(), nodes.len(), "{what}: count");
        let mut visited = Vec::new();
        f.for_each_one(|v| visited.push(v));
        assert_eq!(visited, nodes, "{what}: gather order");
    }

    #[test]
    fn frontier_matches_a_bool_model() {
        let mut rng = SplitMix64::new(0x5EED_F00D);
        for n in [1usize, 64, 200, 4100] {
            // A sparse eager template and a frontier seeded from it.
            let mut eager_model = vec![false; n];
            let mut eager = WordMerge::for_nodes(n);
            sprinkle(&mut rng, &mut eager, &mut eager_model, 3);
            assert_matches(&eager, &eager_model, &format!("n={n} eager"));

            let mut f = WordMerge::for_nodes(n);
            let mut model = vec![false; n];
            for round in 0..3 {
                // Reset to the template, then a round of scatter marks.
                f.reset_to(&eager);
                model.clone_from(&eager_model);
                assert_matches(&f, &model, &format!("n={n} reset {round}"));
                let marks = 1 + rng.next_index(2 * n);
                sprinkle(&mut rng, &mut f, &mut model, marks);
                assert_matches(&f, &model, &format!("n={n} round {round}"));

                // The sharded hand-off: drain to pairs, then merge.
                let mut drained = f.clone();
                let mut pairs = Vec::new();
                drained.drain_pairs(&eager, &mut pairs);
                assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
                assert!(pairs.iter().all(|&(_, w)| w != 0));
                assert_matches(&drained, &eager_model, &format!("n={n} drained"));
                let mut merged = WordMerge::for_nodes(n);
                merged.or_pairs(&pairs);
                assert_matches(&merged, &model, &format!("n={n} merged {round}"));
            }
        }
    }
}

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
//!   `(destination, lane)` pair (the destination is known at `put` time
//!   from the CSR `IncidentEdge` target) in the next round's
//!   `BatchFrontier`.
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
//! The frontier is laid out so its per-round cost does not grow with
//! `n · W` (see `BatchFrontier`): a one-lane run — every [`crate::Sim::run`]
//! — pays what a plain node bitset would, and a wide batch pays for the
//! node-words it actually marked.

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

/// A two-level bitset: a dense word array plus a one-bit-per-word
/// occupancy set, so merging [`WordPair`]s, counting, listing and clearing
/// all cost the number of non-zero words plus a scan of `len / 64`
/// occupancy words, never the array's length.
///
/// It serves three roles: the any-lane node mask of every
/// [`BatchFrontier`], the sharded leader's merge of the workers' mark
/// words, and the leader's node-level mask split out of that merge.
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
        Self::new(n.div_ceil(WORD_BITS) * lanes)
    }

    /// ORs `word` into word `i`.
    #[inline]
    fn or_word(&mut self, i: usize, word: u64) {
        self.words[i] |= word;
        self.occupied.insert(i);
    }

    /// ORs `pairs` in.
    pub(crate) fn or_pairs(&mut self, pairs: &[WordPair]) {
        for &(i, word) in pairs {
            self.or_word(i, word);
        }
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
}

/// The frontier of a lockstep batch (one lane for [`crate::Sim::run`]):
/// per-(node, lane) marks plus the two-level any-lane node mask that one
/// gather pass over the whole batch iterates.
///
/// The marks are laid out **word-major**: lane `l` of nodes
/// `64 i .. 64 i + 63` lives in word `i · lanes + l`.  At one lane the
/// marks are a plain node bitset; at any width, the `lanes` words of one
/// node-word sit side by side, so the per-round passes — the reset to the
/// eager template, sparse iteration and the sharded drain — visit only the
/// node-words the any-lane mask has occupied, plus its `n / 4096`
/// occupancy words.
#[derive(Debug, Clone, Default)]
pub(crate) struct BatchFrontier {
    marks: Vec<u64>,
    any: WordMerge,
    lanes: usize,
}

impl BatchFrontier {
    /// An empty frontier for `n` nodes × `lanes` lanes.
    pub(crate) fn new(n: usize, lanes: usize) -> Self {
        Self {
            marks: vec![0; n.div_ceil(WORD_BITS) * lanes],
            any: WordMerge::for_nodes(n),
            lanes,
        }
    }

    /// Marks `(node, lane)` active and `node` any-lane-active.
    #[inline]
    pub(crate) fn mark(&mut self, node: usize, lane: usize) {
        let i = node / WORD_BITS;
        let bit = 1 << (node % WORD_BITS);
        self.marks[i * self.lanes + lane] |= bit;
        self.any.or_word(i, bit);
    }

    /// The node-level any-lane-active mask.
    pub(crate) fn any(&self) -> &WordMerge {
        &self.any
    }

    /// The mark words of node-word `i`, one per lane.
    fn lane_words(&self, i: usize) -> &[u64] {
        &self.marks[i * self.lanes..(i + 1) * self.lanes]
    }

    /// Resets this frontier to `template` (equal shape), touching only the
    /// occupied node-words of both.
    pub(crate) fn reset_to(&mut self, template: &Self) {
        let Self { marks, any, lanes } = self;
        let lanes = *lanes;
        let WordMerge { words, occupied } = any;
        occupied.for_each(|i| {
            marks[i * lanes..(i + 1) * lanes].fill(0);
            words[i] = 0;
        });
        template.any.occupied.for_each(|i| {
            marks[i * lanes..(i + 1) * lanes].copy_from_slice(template.lane_words(i));
            words[i] = template.any.words[i];
        });
        occupied.copy_from(&template.any.occupied);
    }

    /// Moves every non-zero mark word into `out` as ascending
    /// `(index, word)` pairs and resets this frontier to `template` — the
    /// sharded worker's publish step.  This frontier must hold `template`
    /// plus marks (as a worker's scatter set does), so every occupied word
    /// of the template is occupied here too.
    pub(crate) fn drain_pairs(&mut self, template: &Self, out: &mut Vec<WordPair>) {
        let Self { marks, any, lanes } = self;
        let lanes = *lanes;
        let WordMerge { words, occupied } = any;
        occupied.for_each(|i| {
            let range = i * lanes..(i + 1) * lanes;
            let kept = &template.marks[range.clone()];
            for ((j, mark), &keep) in range.clone().zip(&mut marks[range]).zip(kept) {
                if *mark != 0 {
                    out.push((j, *mark));
                    *mark = keep;
                }
            }
            words[i] = template.any.words[i];
        });
        occupied.copy_from(&template.any.occupied);
    }

    /// The number of any-lane-active nodes, with the per-lane active-node
    /// counts (`lane_counts[l] = |{v : (v, l) marked}|`) written alongside:
    /// one pass over the occupied node-words, one popcount per mark word.
    pub(crate) fn counts(&self, lane_counts: &mut [u64]) -> usize {
        debug_assert_eq!(lane_counts.len(), self.lanes);
        lane_counts.fill(0);
        let mut any = 0;
        self.any.occupied.for_each(|i| {
            any += self.any.words[i].count_ones() as usize;
            for (count, word) in lane_counts.iter_mut().zip(self.lane_words(i)) {
                *count += u64::from(word.count_ones());
            }
        });
        any
    }
}

/// Splits merged batch mark words (in [`BatchFrontier`]'s layout for
/// `lanes` lanes) into the node-level any-lane mask, ORed into `nodes`, and
/// per-lane active-node counts — the sharded leader's analogue of
/// [`BatchFrontier::any`] and [`BatchFrontier::counts`].
pub(crate) fn split_lanes(
    marks: &WordMerge,
    lanes: usize,
    nodes: &mut WordMerge,
    counts: &mut [u64],
) {
    counts.fill(0);
    for (j, word) in marks.pairs() {
        nodes.or_word(j / lanes, word);
        counts[j % lanes] += u64::from(word.count_ones());
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
        // Two one-lane "shards" over 200 nodes, each with an eager template.
        let mut eager = [BatchFrontier::new(200, 1), BatchFrontier::new(200, 1)];
        eager[0].mark(3, 0);
        eager[1].mark(150, 0);
        let mut local = eager.clone();
        let mut merge = WordMerge::for_nodes(200);
        for _round in 0..2 {
            // Scatter marks, remote ones included, then the hand-off.
            for v in [3, 64, 65, 199] {
                local[0].mark(v, 0);
            }
            local[1].mark(65, 0);
            merge.clear();
            let mut union = WordMerge::for_nodes(200);
            for (s, set) in local.iter_mut().enumerate() {
                union.or_pairs(&set.any().pairs().collect::<Vec<_>>());
                let mut pairs = Vec::new();
                set.drain_pairs(&eager[s], &mut pairs);
                assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
                assert!(pairs.iter().all(|&(_, w)| w != 0));
                assert_eq!(
                    set.any().ones().collect::<Vec<_>>(),
                    eager[s].any().ones().collect::<Vec<_>>()
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

    /// The reference model of a batch frontier: `model[v][l]`.
    type Model = Vec<Vec<bool>>;

    fn model_nodes(model: &Model) -> Vec<usize> {
        (0..model.len())
            .filter(|&v| model[v].contains(&true))
            .collect()
    }

    fn model_counts(model: &Model, lanes: usize) -> Vec<u64> {
        (0..lanes)
            .map(|l| model.iter().filter(|lanes| lanes[l]).count() as u64)
            .collect()
    }

    /// Marks a random sprinkle of `(node, lane)` pairs into both.
    fn sprinkle(rng: &mut SplitMix64, f: &mut BatchFrontier, model: &mut Model, marks: usize) {
        let (n, lanes) = (model.len(), model[0].len());
        for _ in 0..marks {
            let (v, l) = (rng.next_index(n), rng.next_index(lanes));
            f.mark(v, l);
            model[v][l] = true;
        }
    }

    fn assert_matches(f: &BatchFrontier, model: &Model, what: &str) {
        let lanes = model[0].len();
        let nodes = model_nodes(model);
        assert_eq!(
            f.any().ones().collect::<Vec<_>>(),
            nodes,
            "{what}: iteration"
        );
        let mut counts = vec![0; lanes];
        assert_eq!(f.counts(&mut counts), nodes.len(), "{what}: active count");
        assert_eq!(f.any().count(), nodes.len(), "{what}: any-mask count");
        assert_eq!(counts, model_counts(model, lanes), "{what}: lane counts");
        let mut visited = Vec::new();
        f.any().for_each_one(|v| visited.push(v));
        assert_eq!(visited, nodes, "{what}: gather order");
    }

    #[test]
    fn batch_frontier_matches_a_bool_model() {
        let mut rng = SplitMix64::new(0x5EED_F00D);
        for lanes in [1usize, 2, 63, 64, 65, 130] {
            for n in [1usize, 64, 200, 4100] {
                let what = format!("n={n} W={lanes}");
                // A sparse eager template and a frontier seeded from it.
                let mut eager_model: Model = vec![vec![false; lanes]; n];
                let mut eager = BatchFrontier::new(n, lanes);
                sprinkle(&mut rng, &mut eager, &mut eager_model, 3);
                assert_matches(&eager, &eager_model, &what);

                let mut f = BatchFrontier::new(n, lanes);
                let mut model: Model = vec![vec![false; lanes]; n];
                for round in 0..3 {
                    // Reset to the template, then a round of scatter marks.
                    f.reset_to(&eager);
                    model.clone_from(&eager_model);
                    assert_matches(&f, &model, &format!("{what} reset {round}"));
                    let marks = 1 + rng.next_index(2 * n);
                    sprinkle(&mut rng, &mut f, &mut model, marks);
                    assert_matches(&f, &model, &format!("{what} round {round}"));

                    // The sharded hand-off: drain to pairs, merge, split.
                    let mut drained = f.clone();
                    let mut pairs = Vec::new();
                    drained.drain_pairs(&eager, &mut pairs);
                    assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
                    assert!(pairs.iter().all(|&(_, w)| w != 0));
                    assert_matches(&drained, &eager_model, &format!("{what} drained"));
                    let mut merged = WordMerge::for_marks(n, lanes);
                    merged.or_pairs(&pairs);
                    let mut nodes = WordMerge::for_nodes(n);
                    let mut counts = vec![0; lanes];
                    split_lanes(&merged, lanes, &mut nodes, &mut counts);
                    assert_eq!(nodes.ones().collect::<Vec<_>>(), model_nodes(&model));
                    assert_eq!(counts, model_counts(&model, lanes), "{what} split");
                }
            }
        }
    }
}

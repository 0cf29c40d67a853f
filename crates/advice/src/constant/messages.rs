//! Message types of the Theorem 3 decoder.
//!
//! The decoding process of Theorem 3 communicates inside fragment trees:
//!
//! * **convergecast**: every node repeatedly forwards to its fragment-tree
//!   parent a [`Report`] — its own unconsumed advice bits plus the (ordered)
//!   reports of its children — so that after `d` rounds the fragment root
//!   holds the full structure of the fragment up to depth `d`;
//! * **broadcast**: the root answers with a [`MapEntry`] tree of the same
//!   shape, telling every node how many of its advice bits were consumed and
//!   telling the choosing node what it must do;
//! * a 1-bit [`ConstMsg::Parent`] notification implements the paper's
//!   "down" case (step 7 of Process `A`);
//! * the paper-literal level variant adds a 1-round [`ConstMsg::Level`]
//!   exchange (see the module docs of [`crate::constant`] for the
//!   idealization involved).
//!
//! # Flat trees
//!
//! Both trees are stored flat, one entry per node in **preorder** (a node,
//! then each child's subtree in child order), and every entry records the
//! node's subtree size.  So node `i`'s subtree is exactly the preorder range
//! `i..i + size(i)`, its first child (if any) is `i + 1`, and each further
//! child starts where the previous child's subtree ends.  A [`Report`] keeps
//! every node's payload bits concatenated in the same preorder beside its
//! `(payload length, subtree size)` entries.  Two operations follow from
//! this layout without any per-node allocation:
//!
//! * [`Report::join`] puts a node above its children's reports by copying
//!   each child's entries and payload behind the new root's;
//! * forwarding a map to a child ([`MapEntry::children`]) copies the child's
//!   contiguous range out of the parent's entry.
//!
//! The BFS order the paper uses (children in `(weight, port)` order) is an
//! index walk over the subtree sizes.  Within one depth, BFS order and
//! preorder agree, so the nodes that survive a BFS truncation
//! ([`Report::into_truncated`]) are every node above some depth plus a
//! preorder prefix of the nodes at that depth.  That set is closed under
//! taking parents, so the survivors, kept in preorder, form a well-formed
//! tree whose BFS order is the old one's prefix.
//!
//! All messages implement [`BitSized`]: a report costs about 2 structure bits
//! per node plus its payload bits, so for an active fragment at phase `i`
//! (size `< 2^i ≤ log n`) messages stay within `O(c · log n)` bits, matching
//! the paper's CONGEST claim.  The accounting is a property of the tree, not
//! of its storage: the flat form charges exactly what a recursive form would.

use lma_sim::message::{bits_for_value, BitSized};
use lma_sim::wire::{Wire, WireReader};

/// Preorder indices of the roots of the consecutive subtrees that cover the
/// range `start..end` of a flat tree whose node `j` has subtree size
/// `size(j)`.  For `i + 1..i + size(i)` these are node `i`'s children, in
/// child order.
fn subtree_roots(
    size: impl Fn(usize) -> usize,
    start: usize,
    end: usize,
) -> impl Iterator<Item = usize> {
    let mut next = start;
    std::iter::from_fn(move || {
        let root = next;
        (root < end).then(|| {
            next += size(root);
            root
        })
    })
}

/// A structured convergecast report: one node's unconsumed advice bits plus
/// the reports of its fragment-tree children, ordered by the `(weight, port)`
/// of the child edges (the same order the paper's BFS uses).
///
/// Stored flat in preorder (see the module docs).  The default report has no
/// nodes: it stands for "no report yet", and [`Report::join`] adds nothing
/// for it.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Report {
    /// `(payload length, subtree size)` of every node, in preorder.
    nodes: Vec<(usize, usize)>,
    /// Every node's payload bits, concatenated in preorder.
    bits: Vec<bool>,
}

impl Clone for Report {
    fn clone(&self) -> Self {
        Self {
            nodes: self.nodes.clone(),
            bits: self.bits.clone(),
        }
    }

    /// Reuses `self`'s buffers: the decoder refreshes each child's report
    /// slot this way every convergecast round.
    fn clone_from(&mut self, source: &Self) {
        self.nodes.clone_from(&source.nodes);
        self.bits.clone_from(&source.bits);
    }
}

impl Report {
    /// A leaf report carrying only this node's bits.
    #[must_use]
    pub fn leaf(bits: &[bool]) -> Self {
        Self::join(bits, [])
    }

    /// The report of a node carrying `bits` whose children's reports are
    /// `children`, in order.  Each child costs two slice copies; an empty
    /// (default) child report adds nothing.
    #[must_use]
    pub fn join<'a, I>(bits: &[bool], children: I) -> Self
    where
        I: IntoIterator<Item = &'a Report>,
        I::IntoIter: Clone,
    {
        let children = children.into_iter();
        let (size, payload) = children
            .clone()
            .fold((1, bits.len()), |(size, payload), child| {
                (size + child.nodes.len(), payload + child.bits.len())
            });
        let mut report = Self {
            nodes: Vec::with_capacity(size),
            bits: Vec::with_capacity(payload),
        };
        report.nodes.push((bits.len(), size));
        report.bits.extend_from_slice(bits);
        for child in children {
            report.nodes.extend_from_slice(&child.nodes);
            report.bits.extend_from_slice(&child.bits);
        }
        report
    }

    /// Total number of nodes represented in the report.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Empties the report, keeping its buffers.
    pub(super) fn clear(&mut self) {
        self.nodes.clear();
        self.bits.clear();
    }

    /// Subtree size of preorder node `i`.
    fn size(&self, i: usize) -> usize {
        self.nodes[i].1
    }

    /// Preorder indices of node `i`'s children, in child order.
    fn children(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        subtree_roots(|j| self.size(j), i + 1, i + self.size(i))
    }

    /// Preorder indices of the nodes in BFS order: an index walk that uses
    /// its own output as the queue.
    fn bfs_order(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.nodes.len());
        if !self.nodes.is_empty() {
            order.push(0);
        }
        let mut head = 0;
        while let Some(&i) = order.get(head) {
            head += 1;
            order.extend(self.children(i));
        }
        order
    }

    /// Every node's payload, in BFS order.
    fn bfs_payloads(&self) -> impl Iterator<Item = &[bool]> {
        let mut starts = Vec::with_capacity(self.nodes.len() + 1);
        starts.push(0);
        for &(len, _) in &self.nodes {
            starts.push(starts[starts.len() - 1] + len);
        }
        self.bfs_order()
            .into_iter()
            .map(move |i| &self.bits[starts[i]..starts[i + 1]])
    }

    /// The BFS position of every node, indexed by preorder position.
    fn bfs_positions(&self) -> Vec<usize> {
        let mut positions = vec![0; self.nodes.len()];
        for (k, i) in self.bfs_order().into_iter().enumerate() {
            positions[i] = k;
        }
        positions
    }

    /// Concatenation of all payload bits in BFS order.
    #[must_use]
    pub fn bfs_bits(&self) -> Vec<bool> {
        self.bfs_payloads().flatten().copied().collect()
    }

    /// Per-node payload lengths in BFS order.
    #[must_use]
    pub fn bfs_lengths(&self) -> Vec<usize> {
        self.bfs_payloads().map(<[bool]>::len).collect()
    }

    /// The report truncated to the first `limit` nodes of its BFS order,
    /// in place; a report that already fits is returned untouched.  The
    /// survivors are closed under taking parents, so the result is a
    /// well-formed tree, and the relative BFS order of the surviving nodes is
    /// unchanged.
    ///
    /// # Panics
    /// Panics if `limit` is zero.
    #[must_use]
    pub fn into_truncated(mut self, limit: usize) -> Self {
        assert!(limit >= 1, "cannot truncate a report to zero nodes");
        if self.nodes.len() <= limit {
            return self;
        }
        // BFS order is (depth, preorder) order, so the first `limit` BFS
        // nodes are every node above depth `cut` plus the first `limit -
        // above` nodes at depth `cut`, in preorder.
        let mut cut = 0;
        let mut above = 0;
        loop {
            let through = self.count_within(0, cut);
            if through >= limit {
                break;
            }
            above = through;
            cut += 1;
        }
        let mut at = Compaction {
            left_at_cut: limit - above,
            ..Compaction::default()
        };
        self.compact(0, cut, &mut at);
        debug_assert_eq!(at.node, limit);
        self.nodes.truncate(limit);
        self.bits.truncate(at.bit);
        self
    }

    /// Nodes of `i`'s subtree at most `depth` levels below `i`.
    fn count_within(&self, i: usize, depth: usize) -> usize {
        1 + match depth {
            0 => 0,
            _ => self
                .children(i)
                .map(|child| self.count_within(child, depth - 1))
                .sum(),
        }
    }

    /// Moves the survivors of `i`'s subtree, `levels` levels above the
    /// truncation depth, to the write positions of `at`, in preorder, and
    /// returns how many survived.  Writes never overtake reads: every
    /// survivor moves towards the front.
    fn compact(&mut self, i: usize, levels: usize, at: &mut Compaction) -> usize {
        let (len, size) = self.nodes[i];
        if levels == 0 {
            let subtree_bits: usize = self.nodes[i..i + size].iter().map(|&(len, _)| len).sum();
            let keep = at.left_at_cut > 0;
            if keep {
                at.left_at_cut -= 1;
                self.nodes[at.node] = (len, 1);
                self.bits.copy_within(at.read..at.read + len, at.bit);
                at.node += 1;
                at.bit += len;
            }
            at.read += subtree_bits;
            return usize::from(keep);
        }
        let slot = at.node;
        self.bits.copy_within(at.read..at.read + len, at.bit);
        at.node += 1;
        at.bit += len;
        at.read += len;
        let mut kept = 1;
        let mut child = i + 1;
        while child < i + size {
            let next = child + self.size(child);
            kept += self.compact(child, levels - 1, at);
            child = next;
        }
        self.nodes[slot] = (len, kept);
        kept
    }
}

/// Cursor of [`Report::into_truncated`]'s in-place compaction.
#[derive(Default)]
struct Compaction {
    /// Survivors still to keep at the truncation depth.
    left_at_cut: usize,
    /// Next node write position.
    node: usize,
    /// Next payload bit write position.
    bit: usize,
    /// Payload bit read position (the start of the node being visited).
    read: usize,
}

impl BitSized for Report {
    fn bit_size(&self) -> usize {
        // Two structure bits per node (balanced-parentheses shape encoding)
        // plus a small length header and the payload bits themselves.
        self.nodes
            .iter()
            .map(|&(len, _)| 2 + bits_for_value(len as u64))
            .sum::<usize>()
            + self.bits.len()
    }
}

// The wire form of a report is its flat form verbatim: the entries, then the
// payload bits (one byte each — reports are `O(log n)` bits, so bit-packing
// would save nothing measurable).
lma_sim::wire_struct!(Report { nodes, bits });

/// What the choosing node must do, as decoded by the fragment root from
/// `A(F)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChooserPayload {
    /// Index variant: the selected edge is the one with this local
    /// `(weight, port)` rank; `up` tells whether it leads to the chooser's
    /// parent.
    Index {
        /// Orientation of the selected edge at the chooser.
        up: bool,
        /// 1-based rank of the selected edge in the chooser's local
        /// `(weight, port)` order.
        rank: usize,
    },
    /// Level variant: select the minimum-weight incident edge whose other
    /// endpoint lies in a fragment of this level.
    Level {
        /// Orientation of the selected edge at the chooser.
        up: bool,
        /// Level of the fragment on the far side of the selected edge.
        target_level: u8,
    },
}

impl BitSized for ChooserPayload {
    fn bit_size(&self) -> usize {
        match self {
            ChooserPayload::Index { rank, .. } => 1 + bits_for_value(*rank as u64),
            ChooserPayload::Level { .. } => 2,
        }
    }
}

impl Wire for ChooserPayload {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ChooserPayload::Index { up, rank } => {
                out.push(0);
                up.encode(out);
                rank.encode(out);
            }
            ChooserPayload::Level { up, target_level } => {
                out.push(1);
                up.encode(out);
                target_level.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Self {
        match r.byte() {
            0 => ChooserPayload::Index {
                up: bool::decode(r),
                rank: usize::decode(r),
            },
            1 => ChooserPayload::Level {
                up: bool::decode(r),
                target_level: u8::decode(r),
            },
            tag => unreachable!("invalid ChooserPayload wire tag {tag}"),
        }
    }
}

/// The broadcast counterpart of [`Report`]: for every node of the fragment
/// (same shape, same child order), how many of its unconsumed bits the root
/// consumed, and — for exactly one node — the chooser payload.
///
/// Stored flat in preorder like a report (see the module docs), one
/// `(consume, chooser, subtree size)` entry per node.  The default map has
/// no nodes; it consumes nothing and chooses nothing.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct MapEntry {
    /// `(consume, chooser, subtree size)` of every node, in preorder.
    nodes: Vec<(usize, Option<ChooserPayload>, usize)>,
}

impl Clone for MapEntry {
    fn clone(&self) -> Self {
        Self {
            nodes: self.nodes.clone(),
        }
    }

    /// Reuses `self`'s buffer: the decoder keeps each phase's map this way.
    fn clone_from(&mut self, source: &Self) {
        self.nodes.clone_from(&source.nodes);
    }
}

impl MapEntry {
    /// The map of `report`'s shape whose node at BFS position `k` carries
    /// `entry(k) = (consume, chooser)`.
    #[must_use]
    pub fn shaped_like(
        report: &Report,
        mut entry: impl FnMut(usize) -> (usize, Option<ChooserPayload>),
    ) -> Self {
        let nodes = report
            .nodes
            .iter()
            .zip(report.bfs_positions())
            .map(|(&(_, size), k)| {
                let (consume, chooser) = entry(k);
                (consume, chooser, size)
            })
            .collect();
        Self { nodes }
    }

    /// Total number of entries in the tree.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// How many of the receiving node's own unconsumed bits were consumed.
    #[must_use]
    pub fn consume(&self) -> usize {
        self.nodes.first().map_or(0, |&(consume, _, _)| consume)
    }

    /// The chooser payload, if the receiving node is the choosing node.
    #[must_use]
    pub fn chooser(&self) -> Option<ChooserPayload> {
        self.nodes.first().and_then(|&(_, chooser, _)| chooser)
    }

    /// The entries to forward to the receiving node's children, in child
    /// order: each is one copy of the child's contiguous preorder range.
    pub fn children(&self) -> impl Iterator<Item = MapEntry> + '_ {
        let size = |i: usize| self.nodes[i].2;
        subtree_roots(size, 1, self.nodes.len()).map(move |child| Self {
            nodes: self.nodes[child..child + size(child)].to_vec(),
        })
    }
}

impl BitSized for MapEntry {
    fn bit_size(&self) -> usize {
        self.nodes
            .iter()
            .map(|(consume, chooser, _)| {
                2 + bits_for_value(*consume as u64)
                    + 1
                    + chooser.as_ref().map_or(0, BitSized::bit_size)
            })
            .sum()
    }
}

lma_sim::wire_struct!(MapEntry { nodes });

/// The messages exchanged by the Theorem 3 decoder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConstMsg {
    /// Convergecast report (child → parent).
    Report(Report),
    /// Broadcast consumption/chooser map (parent → child).
    Map(MapEntry),
    /// "I am your parent" (the down case of step 7).
    Parent,
    /// Current fragment level (paper-literal level variant only).
    Level(u8),
}

impl BitSized for ConstMsg {
    fn bit_size(&self) -> usize {
        2 + match self {
            ConstMsg::Report(r) => r.bit_size(),
            ConstMsg::Map(m) => m.bit_size(),
            ConstMsg::Parent => 0,
            ConstMsg::Level(_) => 1,
        }
    }
}

impl Wire for ConstMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ConstMsg::Report(r) => {
                out.push(0);
                r.encode(out);
            }
            ConstMsg::Map(m) => {
                out.push(1);
                m.encode(out);
            }
            ConstMsg::Parent => out.push(2),
            ConstMsg::Level(level) => {
                out.push(3);
                level.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Self {
        match r.byte() {
            0 => ConstMsg::Report(Report::decode(r)),
            1 => ConstMsg::Map(MapEntry::decode(r)),
            2 => ConstMsg::Parent,
            3 => ConstMsg::Level(u8::decode(r)),
            tag => unreachable!("invalid ConstMsg wire tag {tag}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::decoder::build_map;
    use super::*;
    use proptest::prelude::*;

    fn sample_report() -> Report {
        // Root with bits [1], children A (bits [0,1]) and B (bits []),
        // A has child C (bits [1,1,1]).
        let a = Report::join(&[false, true], [&Report::leaf(&[true, true, true])]);
        Report::join(&[true], [&a, &Report::leaf(&[])])
    }

    #[test]
    fn bfs_order_and_bits() {
        let r = sample_report();
        assert_eq!(r.node_count(), 4);
        let lengths = r.bfs_lengths();
        assert_eq!(lengths, vec![1, 2, 0, 3]);
        assert_eq!(r.bfs_bits(), vec![true, false, true, true, true, true]);
    }

    #[test]
    fn truncation_keeps_bfs_prefix() {
        let r = sample_report();
        let t = r.clone().into_truncated(3);
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.bfs_lengths(), vec![1, 2, 0]);
        // Truncating to at least the full size is the identity.
        assert_eq!(r.clone().into_truncated(10), r);
        // Truncating to one node keeps only the root.
        assert_eq!(r.into_truncated(1), Report::leaf(&[true]));
    }

    #[test]
    fn truncation_on_deep_chain() {
        // A chain of 6 nodes.
        let mut chain = Report::leaf(&[true]);
        for k in 0..5 {
            chain = Report::join(&[k % 2 == 0], [&chain]);
        }
        assert_eq!(chain.node_count(), 6);
        let t = chain.into_truncated(4);
        assert_eq!(t.node_count(), 4);
        // BFS order of a chain is the chain itself.
        assert_eq!(t.bfs_lengths(), vec![1, 1, 1, 1]);
    }

    #[test]
    fn bit_sizes_are_positive_and_monotone() {
        let r = sample_report();
        let small = Report::leaf(&[true]);
        assert!(r.bit_size() > small.bit_size());
        let msg = ConstMsg::Report(r);
        assert!(msg.bit_size() > 2);
        assert_eq!(ConstMsg::Parent.bit_size(), 2);
        assert_eq!(ConstMsg::Level(1).bit_size(), 3);
    }

    #[test]
    fn map_entry_counts_and_size() {
        let shape = Report::join(&[], [&Report::leaf(&[]), &Report::leaf(&[])]);
        let chooser = ChooserPayload::Index { up: true, rank: 5 };
        let m = MapEntry::shaped_like(&shape, |k| (3 - k, (k == 0).then_some(chooser)));
        assert_eq!(m.node_count(), 3);
        assert_eq!((m.consume(), m.chooser()), (3, Some(chooser)));
        let bare = MapEntry::shaped_like(&Report::leaf(&[]), |_| (0, None));
        assert!(m.bit_size() > bare.bit_size());
        let children: Vec<MapEntry> = m.children().collect();
        assert_eq!(children.len(), 2);
        assert_eq!((children[1].consume(), children[1].chooser()), (1, None));
    }

    /// The reference model: a report as an explicit recursive tree.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Tree {
        bits: Vec<bool>,
        children: Vec<Tree>,
    }

    /// The reference map: one `(consume, chooser)` per node, same shape.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct MapTree {
        consume: usize,
        chooser: Option<ChooserPayload>,
        children: Vec<MapTree>,
    }

    impl Tree {
        /// Node `k` carries `draws[k].0`; each later node hangs under an
        /// earlier one picked by its draw, half the time near the end of
        /// the list so that deep chains occur too.
        fn from_draws(draws: &[(Vec<bool>, u64)]) -> Tree {
            let parent = |k: usize| {
                let draw = draws[k].1;
                let span = if draw & 1 == 0 { k } else { k.min(2) };
                k - 1 - (draw >> 1) as usize % span
            };
            fn build(
                draws: &[(Vec<bool>, u64)],
                parent: &dyn Fn(usize) -> usize,
                i: usize,
            ) -> Tree {
                Tree {
                    bits: draws[i].0.clone(),
                    children: (i + 1..draws.len())
                        .filter(|&k| parent(k) == i)
                        .map(|k| build(draws, parent, k))
                        .collect(),
                }
            }
            build(draws, &parent, 0)
        }

        fn size(&self) -> usize {
            1 + self.children.iter().map(Tree::size).sum::<usize>()
        }

        /// Child-index paths of every node, in BFS order.
        fn bfs_paths(&self) -> Vec<Vec<usize>> {
            let mut paths = Vec::new();
            let mut queue = std::collections::VecDeque::from([(self, Vec::new())]);
            while let Some((node, path)) = queue.pop_front() {
                for (k, child) in node.children.iter().enumerate() {
                    let mut child_path = path.clone();
                    child_path.push(k);
                    queue.push_back((child, child_path));
                }
                paths.push(path);
            }
            paths
        }

        fn at(&self, path: &[usize]) -> &Tree {
            path.iter().fold(self, |node, &k| &node.children[k])
        }

        fn truncated(&self, limit: usize) -> Tree {
            let keep = &self.bfs_paths()[..limit.min(self.size())];
            fn rebuild(node: &Tree, path: &mut Vec<usize>, keep: &[Vec<usize>]) -> Tree {
                let mut children = Vec::new();
                for (k, child) in node.children.iter().enumerate() {
                    path.push(k);
                    if keep.contains(path) {
                        children.push(rebuild(child, path, keep));
                    }
                    path.pop();
                }
                Tree {
                    bits: node.bits.clone(),
                    children,
                }
            }
            rebuild(self, &mut Vec::new(), keep)
        }

        fn map(&self, consume: &[usize], chooser_pos: usize, payload: ChooserPayload) -> MapTree {
            let paths = self.bfs_paths();
            fn build(
                node: &Tree,
                path: &mut Vec<usize>,
                paths: &[Vec<usize>],
                entry: &dyn Fn(usize) -> (usize, Option<ChooserPayload>),
            ) -> MapTree {
                let (consume, chooser) = entry(paths.iter().position(|p| p == path).unwrap());
                let mut children = Vec::new();
                for (k, child) in node.children.iter().enumerate() {
                    path.push(k);
                    children.push(build(child, path, paths, entry));
                    path.pop();
                }
                MapTree {
                    consume,
                    chooser,
                    children,
                }
            }
            let entry = |k: usize| (consume[k], (k + 1 == chooser_pos).then_some(payload));
            build(self, &mut Vec::new(), &paths, &entry)
        }
    }

    fn flat(tree: &Tree) -> Report {
        let children: Vec<Report> = tree.children.iter().map(flat).collect();
        Report::join(&tree.bits, &children)
    }

    /// Reads a flat report back into the reference form through its raw
    /// entries, independently of `join`.
    fn tree_of(report: &Report, i: usize, start: usize) -> Tree {
        let (len, size) = report.nodes[i];
        let mut children = Vec::new();
        let mut child = i + 1;
        let mut child_start = start + len;
        while child < i + size {
            let child_size = report.nodes[child].1;
            children.push(tree_of(report, child, child_start));
            child_start += report.nodes[child..child + child_size]
                .iter()
                .map(|n| n.0)
                .sum::<usize>();
            child += child_size;
        }
        Tree {
            bits: report.bits[start..start + len].to_vec(),
            children,
        }
    }

    fn map_tree_of(map: &MapEntry, i: usize) -> MapTree {
        let (consume, chooser, size) = map.nodes[i];
        let mut children = Vec::new();
        let mut child = i + 1;
        while child < i + size {
            children.push(map_tree_of(map, child));
            child += map.nodes[child].2;
        }
        MapTree {
            consume,
            chooser,
            children,
        }
    }

    fn reference_bit_size(tree: &Tree) -> usize {
        2 + bits_for_value(tree.bits.len() as u64)
            + tree.bits.len()
            + tree.children.iter().map(reference_bit_size).sum::<usize>()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The flat report agrees with the recursive reference on every
        /// query, on every truncation limit, and in the map built over it.
        #[test]
        fn flat_trees_match_the_recursive_reference(
            draws in collection::vec((collection::vec(any::<bool>(), 0..21), any::<u64>()), 1..41),
            consume in collection::vec(0usize..40, 40..41),
            chooser_draw in any::<u64>(),
        ) {
            let tree = Tree::from_draws(&draws);
            let report = flat(&tree);
            let size = tree.size();
            prop_assert_eq!(tree_of(&report, 0, 0), tree.clone(), "join keeps the child order");
            prop_assert_eq!(report.node_count(), size);
            let paths = tree.bfs_paths();
            let bfs: Vec<&Tree> = paths.iter().map(|p| tree.at(p)).collect();
            prop_assert_eq!(report.bfs_bits(), bfs.iter().flat_map(|t| t.bits.clone()).collect::<Vec<_>>());
            prop_assert_eq!(report.bfs_lengths(), bfs.iter().map(|t| t.bits.len()).collect::<Vec<_>>());
            prop_assert_eq!(report.bit_size(), reference_bit_size(&tree));

            // An empty report among the children adds nothing.
            let children: Vec<Report> = tree.children.iter().map(flat).collect();
            let empty = Report::default();
            let with_empty = Report::join(&tree.bits, std::iter::once(&empty).chain(&children).chain([&empty]));
            prop_assert_eq!(&with_empty, &report);

            for limit in 1..=size + 1 {
                let truncated = report.clone().into_truncated(limit);
                let expected = tree.truncated(limit);
                prop_assert_eq!(tree_of(&truncated, 0, 0), expected.clone(), "limit {}", limit);
                prop_assert_eq!(&truncated, &flat(&expected), "limit {}", limit);
            }

            let consume = &consume[..size];
            let chooser_pos = 1 + chooser_draw as usize % (size + 1);
            let payload = ChooserPayload::Index { up: chooser_draw & 1 == 1, rank: 1 + (chooser_draw >> 8) as usize % 9 };
            let map = build_map(&report, consume, chooser_pos, payload);
            let expected = tree.map(consume, chooser_pos, payload);
            prop_assert_eq!(map.node_count(), size);
            prop_assert_eq!(map_tree_of(&map, 0), expected.clone());
            prop_assert_eq!((map.consume(), map.chooser()), (expected.consume, expected.chooser));
            let forwarded: Vec<MapTree> = map.children().map(|child| map_tree_of(&child, 0)).collect();
            prop_assert_eq!(forwarded, expected.children);
        }
    }
}

//! The paper's Borůvka variant (§2.2) with full phase bookkeeping.
//!
//! > *"Before phase 1, each node is a fragment reduced to a single node.  At
//! > each phase, fragments are merged to produce larger fragments. […] To
//! > perform phase `i ≥ 1`, one considers only fragments `F` satisfying
//! > `|F| < 2^i`.  These fragments are said **active** at phase `i` […].
//! > Every fragment `F` that is active at phase `i` selects an incident edge
//! > `e` leading out of `F`, and of minimum weight.  Ties are broken using
//! > the port numbers.  If ties remain, then they are broken arbitrarily."*
//!
//! Tie-breaking (deviation **D1** in `DESIGN.md`): the paper's rule — weight,
//! then port number at the fragment endpoint, then "arbitrary" — is not a
//! globally consistent order, and with duplicate weights simultaneous
//! selections can close a cycle (three mutually adjacent singleton fragments
//! whose cheapest ports all point "clockwise" select a triangle).  We keep
//! the paper's rule as the default because Lemma 2's index bound depends on
//! it, make the "arbitrary" part canonical (node index, then edge id), and
//! **detect** the cycle case, reporting [`BoruvkaError::SelectionCycle`]
//! instead of silently producing a non-tree.  The alternative
//! [`TieBreak::CanonicalGlobal`] rule uses the graph's canonical edge order,
//! which can never create cycles but gives slightly weaker index bounds; the
//! A2 ablation compares the two.

use crate::decomposition::{BoruvkaRun, FragId, FragmentRecord, PhaseRecord, Selection};
use crate::tree::RootedTree;
use crate::union_find::UnionFind;
use lma_graph::{index, EdgeId, NodeIdx, WeightedGraph};

/// Tie-breaking policy for selecting a fragment's minimum outgoing edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TieBreak {
    /// The paper's rule: `(weight, port at the fragment endpoint, node index,
    /// edge id)`.  Preserves Lemma 2 but may produce selection cycles on
    /// adversarial duplicate-weight graphs (detected and reported).
    #[default]
    PaperPortOrder,
    /// The canonical global order `(weight, min endpoint, max endpoint,
    /// edge id)`.  Never produces cycles; index bounds are only measured,
    /// not guaranteed.
    CanonicalGlobal,
}

/// Configuration of one Borůvka run.
#[derive(Debug, Clone, Copy, Default)]
pub struct BoruvkaConfig {
    /// The node to use as the MST root `r` (default: node 0).
    pub root: Option<NodeIdx>,
    /// Tie-breaking policy.
    pub tie_break: TieBreak,
}

/// Why a run could not be completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoruvkaError {
    /// The input graph is disconnected.
    Disconnected,
    /// The empty graph was supplied.
    EmptyGraph,
    /// Simultaneous selections closed a cycle under the paper's tie-breaking
    /// rule (only possible with duplicate weights).
    SelectionCycle {
        /// The phase in which the cycle appeared.
        phase: usize,
    },
}

impl std::fmt::Display for BoruvkaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Disconnected => write!(f, "graph is disconnected"),
            Self::EmptyGraph => write!(f, "graph has no nodes"),
            Self::SelectionCycle { phase } => write!(
                f,
                "selection cycle at phase {phase}: the paper's tie-breaking is ambiguous on this graph"
            ),
        }
    }
}

impl std::error::Error for BoruvkaError {}

/// Raw (pre-post-processing) data captured during the merging loop.
struct RawPhase {
    fragments: Vec<Vec<NodeIdx>>,
    fragment_of: Vec<FragId>,
    active: Vec<bool>,
    /// `(edge, choosing node)` per fragment, for active fragments.
    selections: Vec<Option<(EdgeId, NodeIdx)>>,
}

/// Runs the paper's Borůvka variant, returning the MST together with the full
/// per-phase decomposition.
///
/// Complexity: `O((n + m) log n)` after one `O(m log Δ)` sort.  There are
/// at most `⌈log₂ n⌉ + 1` merge phases, each `O(n + m)`: the selection
/// scan reads each incident edge once and [`UnionFind::groups`] is one
/// bucket pass.  Each recorded phase is then `O(n)`: every node's MST
/// children are sorted by `(weight, port)` once, and each fragment's BFS
/// expands every member once through that list.
pub fn run_boruvka(g: &WeightedGraph, config: &BoruvkaConfig) -> Result<BoruvkaRun, BoruvkaError> {
    let Merged {
        root,
        raw_phases,
        selected_edges,
        tree,
    } = merge(g, config)?;

    // Post-process every raw phase into a full PhaseRecord, then append the
    // terminal single-fragment record.
    let children = OrderedChildren::new(g, &tree);
    let merge_phases = raw_phases.len();
    let mut phases: Vec<PhaseRecord> = raw_phases
        .into_iter()
        .enumerate()
        .map(|(i, raw)| finish_phase(g, &tree, &children, root, i + 1, raw))
        .collect();
    phases.push(terminal_phase(g, &children, root, merge_phases + 1));

    Ok(BoruvkaRun {
        root,
        mst_edges: selected_edges,
        tree,
        phases,
    })
}

/// The rooted MST of [`run_boruvka`] without the per-phase records: the
/// same tree and the same errors, for callers that read only
/// [`BoruvkaRun::tree`] (the labeling certificate's reference run).
///
/// # Errors
/// Exactly [`run_boruvka`]'s.
pub fn boruvka_tree(g: &WeightedGraph, config: &BoruvkaConfig) -> Result<RootedTree, BoruvkaError> {
    merge(g, config).map(|merged| merged.tree)
}

/// What the merging loop produces.
struct Merged {
    root: NodeIdx,
    raw_phases: Vec<RawPhase>,
    /// MST edges in selection order.
    selected_edges: Vec<EdgeId>,
    tree: RootedTree,
}

/// The merging loop: every phase's raw record and the rooted MST.
fn merge(g: &WeightedGraph, config: &BoruvkaConfig) -> Result<Merged, BoruvkaError> {
    let n = g.node_count();
    if n == 0 {
        return Err(BoruvkaError::EmptyGraph);
    }
    if !g.is_connected() {
        return Err(BoruvkaError::Disconnected);
    }
    let root = config.root.unwrap_or(0);
    assert!(root < n, "root node out of range");

    let mut uf = UnionFind::new(n);
    let mut raw_phases: Vec<RawPhase> = Vec::new();
    let mut selected_edges: Vec<EdgeId> = Vec::new();
    let mut phase = 0usize;

    while uf.components() > 1 {
        phase += 1;
        let groups = uf.groups();
        let mut fragment_of = vec![0 as FragId; n];
        for (fid, group) in groups.iter().enumerate() {
            for &u in group {
                fragment_of[u] = fid;
            }
        }
        // A fragment is active iff |F| < 2^i.  For phases beyond the word
        // size the threshold is effectively infinite.
        let threshold = 1usize.checked_shl(phase as u32).unwrap_or(usize::MAX);
        let active: Vec<bool> = groups.iter().map(|f| f.len() < threshold).collect();

        let mut selections: Vec<Option<(EdgeId, NodeIdx)>> = vec![None; groups.len()];
        for (fid, group) in groups.iter().enumerate() {
            if !active[fid] {
                continue;
            }
            let mut best: Option<(Key, EdgeId, NodeIdx)> = None;
            for &u in group {
                for ie in g.incident(u) {
                    if fragment_of[ie.neighbor] == fid {
                        continue; // internal edge
                    }
                    let key = selection_key(g, config.tie_break, u, ie.port, ie.edge);
                    if best.as_ref().is_none_or(|(bk, _, _)| key < *bk) {
                        best = Some((key, ie.edge, u));
                    }
                }
            }
            // A connected graph with more than one fragment always has an
            // outgoing edge for every fragment.
            let (_, edge, chooser) = best.expect("active fragment must have an outgoing edge");
            selections[fid] = Some((edge, chooser));
        }

        // Merge along the selected edges, detecting cycles.
        let mut distinct: Vec<EdgeId> = selections.iter().flatten().map(|&(e, _)| e).collect();
        distinct.sort_unstable();
        distinct.dedup();
        for &e in &distinct {
            let rec = g.edge(e);
            if !uf.union(rec.u, rec.v) {
                return Err(BoruvkaError::SelectionCycle { phase });
            }
            selected_edges.push(e);
        }

        raw_phases.push(RawPhase {
            fragments: groups,
            fragment_of,
            active,
            selections,
        });

        // Safety net: the fragment count halves (at least) every phase, so
        // the loop always terminates within ⌈log₂ n⌉ + 1 phases.
        assert!(phase <= n, "Borůvka failed to make progress");
    }

    // The MST and its rooted form.
    debug_assert_eq!(selected_edges.len(), n - 1);
    let tree = RootedTree::from_edges(g, root, &selected_edges)
        .expect("selected edges form a spanning tree");
    Ok(Merged {
        root,
        raw_phases,
        selected_edges,
        tree,
    })
}

/// Key type used to order candidate outgoing edges.
type Key = (u64, usize, usize, usize);

fn selection_key(
    g: &WeightedGraph,
    tie_break: TieBreak,
    node: NodeIdx,
    port: usize,
    edge: EdgeId,
) -> Key {
    let w = g.weight(edge);
    match tie_break {
        TieBreak::PaperPortOrder => (w, port, node, edge),
        TieBreak::CanonicalGlobal => {
            let (_, a, b, e) = g.edge_order_key(edge);
            (w, a, b, e)
        }
    }
}

/// Completes one phase record: fragment roots, BFS orders, the fragment tree
/// `T_i` with depths/levels, and the selection metadata (orientation, index,
/// BFS position of the choosing node).
fn finish_phase(
    g: &WeightedGraph,
    tree: &RootedTree,
    children: &OrderedChildren,
    root: NodeIdx,
    phase: usize,
    raw: RawPhase,
) -> PhaseRecord {
    let frag_count = raw.fragments.len();

    // Fragment roots: member closest to the MST root.
    let frag_roots: Vec<NodeIdx> = raw
        .fragments
        .iter()
        .map(|nodes| {
            *nodes
                .iter()
                .min_by_key(|&&u| (tree.depth[u], u))
                .expect("fragments are non-empty")
        })
        .collect();

    // Tree of fragments T_i: fragments adjacent when an MST edge joins them.
    let mut frag_adj: Vec<Vec<FragId>> = vec![Vec::new(); frag_count];
    for &e in &tree.edges {
        let rec = g.edge(e);
        let (fa, fb) = (raw.fragment_of[rec.u], raw.fragment_of[rec.v]);
        if fa != fb {
            frag_adj[fa].push(fb);
            frag_adj[fb].push(fa);
        }
    }
    let root_frag = raw.fragment_of[root];
    let mut depth_in_ti = vec![usize::MAX; frag_count];
    let mut parent_in_ti: Vec<Option<FragId>> = vec![None; frag_count];
    let mut queue = std::collections::VecDeque::new();
    depth_in_ti[root_frag] = 0;
    queue.push_back(root_frag);
    while let Some(f) = queue.pop_front() {
        for &h in &frag_adj[f] {
            if depth_in_ti[h] == usize::MAX {
                depth_in_ti[h] = depth_in_ti[f] + 1;
                parent_in_ti[h] = Some(f);
                queue.push_back(h);
            }
        }
    }
    debug_assert!(depth_in_ti.iter().all(|&d| d != usize::MAX));

    let fragments: Vec<FragmentRecord> = raw
        .fragments
        .into_iter()
        .enumerate()
        .map(|(fid, nodes)| {
            let r_f = frag_roots[fid];
            let bfs_order = fragment_bfs(children, &raw.fragment_of, fid, r_f, nodes.len());
            let selection = raw.selections[fid].map(|(edge, chooser)| {
                let port = g.port_of_edge(chooser, edge);
                Selection {
                    edge,
                    choosing_node: chooser,
                    up: tree.is_up_at(chooser, edge),
                    index: index::index_of(g, chooser, port),
                    bfs_position: bfs_order
                        .iter()
                        .position(|&x| x == chooser)
                        .expect("choosing node belongs to its fragment")
                        + 1,
                }
            });
            FragmentRecord {
                id: fid,
                nodes,
                root: r_f,
                bfs_order,
                depth_in_ti: depth_in_ti[fid],
                level: (depth_in_ti[fid] % 2) as u8,
                parent_in_ti: parent_in_ti[fid],
                active: raw.active[fid],
                selection,
            }
        })
        .collect();

    PhaseRecord {
        phase,
        fragments,
        fragment_of: raw.fragment_of,
    }
}

/// The terminal record: a single fragment covering the whole graph.
fn terminal_phase(
    g: &WeightedGraph,
    children: &OrderedChildren,
    root: NodeIdx,
    phase: usize,
) -> PhaseRecord {
    let nodes: Vec<NodeIdx> = g.nodes().collect();
    let fragment_of = vec![0; g.node_count()];
    let bfs_order = fragment_bfs(children, &fragment_of, 0, root, nodes.len());
    PhaseRecord {
        phase,
        fragments: vec![FragmentRecord {
            id: 0,
            nodes,
            root,
            bfs_order,
            depth_in_ti: 0,
            level: 0,
            parent_in_ti: None,
            active: false,
            selection: None,
        }],
        fragment_of,
    }
}

/// Every node's MST children in the paper's BFS visiting order — by
/// increasing edge index at the parent, i.e. increasing `(weight, port)` —
/// as one flat list with per-node offsets.
struct OrderedChildren {
    offsets: Vec<usize>,
    nodes: Vec<NodeIdx>,
}

impl OrderedChildren {
    fn new(g: &WeightedGraph, tree: &RootedTree) -> Self {
        let mut offsets = Vec::with_capacity(g.node_count() + 1);
        let mut nodes = Vec::with_capacity(g.node_count().saturating_sub(1));
        let mut scratch: Vec<(u64, usize, NodeIdx)> = Vec::new();
        offsets.push(0);
        for u in g.nodes() {
            // A child's parent edge is the tree edge joining it to `u`.
            scratch.clear();
            scratch.extend(
                g.incident(u)
                    .iter()
                    .filter(|ie| tree.parent_edge[ie.neighbor] == Some(ie.edge))
                    .map(|ie| (ie.weight, ie.port, ie.neighbor)),
            );
            scratch.sort_unstable();
            nodes.extend(scratch.iter().map(|&(_, _, v)| v));
            offsets.push(nodes.len());
        }
        Self { offsets, nodes }
    }

    fn of(&self, u: NodeIdx) -> &[NodeIdx] {
        &self.nodes[self.offsets[u]..self.offsets[u + 1]]
    }
}

/// BFS order of fragment `fid`'s subtree `T_F` of the MST, starting at its
/// root `start` (`r_F`), visiting children in order of increasing edge
/// index at the parent (i.e. increasing `(weight, port)`), as the paper
/// prescribes.
///
/// `r_F` is the fragment's unique topmost node, so every other member's
/// `T_F` parent is its MST parent and a member's unvisited fragment
/// neighbours are exactly its MST children in the fragment.  Each member is
/// expanded once and the order doubles as the queue: `O(|F|)` work, no
/// visited set.
fn fragment_bfs(
    children: &OrderedChildren,
    fragment_of: &[FragId],
    fid: FragId,
    start: NodeIdx,
    size: usize,
) -> Vec<NodeIdx> {
    let mut order = Vec::with_capacity(size);
    order.push(start);
    let mut head = 0;
    while let Some(&u) = order.get(head) {
        head += 1;
        order.extend(
            children
                .of(u)
                .iter()
                .copied()
                .filter(|&v| fragment_of[v] == fid),
        );
    }
    debug_assert_eq!(
        order.len(),
        size,
        "fragment must induce a connected subtree"
    );
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kruskal::mst_weight;
    use crate::verify::verify_mst_edges;
    use lma_graph::generators::{complete, connected_random, grid, path, ring, star, Family};
    use lma_graph::weights::WeightStrategy;
    use lma_graph::GraphBuilder;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet, VecDeque};

    /// The set-based BFS `run_boruvka` used before the linear-time
    /// expansion: every fragment copies the MST edges, its members and a
    /// visited set into ordered sets.  Kept as the order's reference.
    fn reference_fragment_bfs(
        g: &WeightedGraph,
        tree: &RootedTree,
        nodes: &[NodeIdx],
        start: NodeIdx,
    ) -> Vec<NodeIdx> {
        let member: BTreeSet<NodeIdx> = nodes.iter().copied().collect();
        let tree_edges: BTreeSet<EdgeId> = tree.edges.iter().copied().collect();
        let mut visited: BTreeSet<NodeIdx> = BTreeSet::new();
        let mut order = Vec::with_capacity(nodes.len());
        let mut queue = VecDeque::new();
        visited.insert(start);
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            let mut next: Vec<(u64, usize, NodeIdx)> = g
                .incident(u)
                .iter()
                .filter(|ie| {
                    tree_edges.contains(&ie.edge)
                        && member.contains(&ie.neighbor)
                        && !visited.contains(&ie.neighbor)
                })
                .map(|ie| (ie.weight, ie.port, ie.neighbor))
                .collect();
            next.sort_unstable();
            for (_, _, v) in next {
                if visited.insert(v) {
                    queue.push_back(v);
                }
            }
        }
        order
    }

    /// An independent replay of the merge loop on the reference pieces
    /// (`BTreeMap` grouping, set-based BFS): every phase's fragment BFS
    /// orders, terminal record included, or the phase whose selections
    /// close a cycle.
    fn reference_bfs_orders(
        g: &WeightedGraph,
        config: &BoruvkaConfig,
    ) -> Result<Vec<Vec<Vec<NodeIdx>>>, BoruvkaError> {
        let n = g.node_count();
        let root = config.root.unwrap_or(0);
        let mut uf = UnionFind::new(n);
        let mut phases: Vec<Vec<Vec<NodeIdx>>> = Vec::new();
        let mut selected = Vec::new();
        while uf.components() > 1 {
            let phase = phases.len() + 1;
            let mut by_root: BTreeMap<usize, Vec<NodeIdx>> = BTreeMap::new();
            for u in 0..n {
                let r = uf.find(u);
                by_root.entry(r).or_default().push(u);
            }
            let groups: Vec<Vec<NodeIdx>> = by_root.into_values().collect();
            let threshold = 1usize.checked_shl(phase as u32).unwrap_or(usize::MAX);
            let mut chosen = BTreeSet::new();
            for group in groups.iter().filter(|f| f.len() < threshold) {
                let member: BTreeSet<NodeIdx> = group.iter().copied().collect();
                let best = group
                    .iter()
                    .flat_map(|&u| g.incident(u).iter().map(move |ie| (u, ie)))
                    .filter(|(_, ie)| !member.contains(&ie.neighbor))
                    .map(|(u, ie)| {
                        (
                            selection_key(g, config.tie_break, u, ie.port, ie.edge),
                            ie.edge,
                        )
                    })
                    .min()
                    .expect("active fragment must have an outgoing edge");
                chosen.insert(best.1);
            }
            for &e in &chosen {
                let rec = g.edge(e);
                if !uf.union(rec.u, rec.v) {
                    return Err(BoruvkaError::SelectionCycle { phase });
                }
                selected.push(e);
            }
            phases.push(groups);
        }
        let tree = RootedTree::from_edges(g, root, &selected).expect("spanning tree");
        phases.push(vec![g.nodes().collect()]);
        Ok(phases
            .iter()
            .map(|groups| {
                groups
                    .iter()
                    .map(|nodes| {
                        let r_f = *nodes.iter().min_by_key(|&&u| (tree.depth[u], u)).unwrap();
                        reference_fragment_bfs(g, &tree, nodes, r_f)
                    })
                    .collect()
            })
            .collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every phase's linear-time BFS order equals the set-based
        /// reference's, and a selection cycle surfaces in the same phase,
        /// over every family, both tie-breaks and both distinct and
        /// duplicate-heavy weights.  `boruvka_tree` returns the run's tree
        /// or its error.
        #[test]
        fn bfs_orders_match_the_set_based_reference(
            family in 0usize..Family::ALL.len(),
            n in 2usize..301,
            seed in any::<u64>(),
        ) {
            let family = Family::ALL[family];
            for weights in [
                WeightStrategy::DistinctRandom { seed },
                WeightStrategy::UniformRandom { seed, max: 4 },
            ] {
                let g = family.instantiate(n, weights, seed);
                for tie_break in [TieBreak::PaperPortOrder, TieBreak::CanonicalGlobal] {
                    let config = BoruvkaConfig {
                        root: Some(seed as usize % g.node_count()),
                        tie_break,
                    };
                    let run = run_boruvka(&g, &config);
                    prop_assert_eq!(
                        boruvka_tree(&g, &config),
                        run.as_ref().map(|run| run.tree.clone()).map_err(Clone::clone)
                    );
                    let got = run.map(|run| {
                        run.phases
                            .iter()
                            .map(|rec| rec.fragments.iter().map(|f| f.bfs_order.clone()).collect())
                            .collect::<Vec<Vec<_>>>()
                    });
                    prop_assert_eq!(
                        got,
                        reference_bfs_orders(&g, &config),
                        "{} n={} {:?} {:?}",
                        family.name(),
                        g.node_count(),
                        weights,
                        tie_break
                    );
                }
            }
        }
    }

    fn check_run(g: &WeightedGraph, run: &BoruvkaRun) {
        // The produced edge set is a genuine MST.
        verify_mst_edges(g, &run.mst_edges).unwrap();
        assert_eq!(g.weight_of(&run.mst_edges), mst_weight(g).unwrap());
        // Phase invariants.
        for rec in &run.phases {
            let i = rec.phase;
            for frag in &rec.fragments {
                // Lemma 1: every fragment at the start of phase i has size >= 2^{i-1}
                // (capped at n, and trivially true for the terminal record).
                if i <= run.merge_phases() {
                    let lower = 1usize << (i - 1).min(60);
                    assert!(
                        frag.size() >= lower.min(g.node_count()),
                        "phase {i}: fragment of size {} violates Lemma 1",
                        frag.size()
                    );
                    // Activity rule: |F| < 2^i.
                    let threshold = 1usize.checked_shl(i as u32).unwrap_or(usize::MAX);
                    assert_eq!(frag.active, frag.size() < threshold);
                }
                // The fragment root is a member and the BFS order covers the fragment.
                assert!(frag.contains(frag.root));
                assert_eq!(frag.bfs_order.len(), frag.size());
                assert_eq!(frag.bfs_order[0], frag.root);
                // Level is the parity of the depth in T_i.
                assert_eq!(frag.level as usize, frag.depth_in_ti % 2);
                if let Some(sel) = &frag.selection {
                    assert!(frag.active);
                    // The selected edge leaves the fragment and is an MST edge.
                    let rec_e = g.edge(sel.edge);
                    assert!(frag.contains(sel.choosing_node));
                    assert!(
                        frag.contains(rec_e.u) != frag.contains(rec_e.v),
                        "selected edge must leave the fragment"
                    );
                    assert!(run.tree.contains_edge(sel.edge));
                    // Lemma 2, with the +1 slack of `DESIGN.md`, L2.
                    assert!(
                        sel.index.sum() <= frag.size() + 1,
                        "phase {i}: index sum {} exceeds fragment size {}",
                        sel.index.sum(),
                        frag.size()
                    );
                    // The up flag matches the rooted tree.
                    assert_eq!(sel.up, run.tree.is_up_at(sel.choosing_node, sel.edge));
                    // bfs_position is consistent.
                    assert_eq!(frag.bfs_order[sel.bfs_position - 1], sel.choosing_node);
                }
            }
            // fragment_of is consistent with memberships.
            for u in g.nodes() {
                assert!(rec.fragments[rec.fragment_of[u]].contains(u));
            }
        }
        // Terminal record is a single fragment.
        assert_eq!(run.phases.last().unwrap().fragment_count(), 1);
    }

    #[test]
    fn path_graph_run() {
        let g = path(9, WeightStrategy::DistinctRandom { seed: 4 });
        let run = run_boruvka(&g, &BoruvkaConfig::default()).unwrap();
        check_run(&g, &run);
        assert_eq!(run.mst_edges.len(), 8);
    }

    #[test]
    fn star_converges_in_one_phase() {
        let g = star(16, WeightStrategy::DistinctRandom { seed: 5 });
        let run = run_boruvka(&g, &BoruvkaConfig::default()).unwrap();
        check_run(&g, &run);
        assert_eq!(run.merge_phases(), 1);
    }

    #[test]
    fn ring_and_grid_and_complete() {
        for g in [
            ring(17, WeightStrategy::DistinctRandom { seed: 1 }),
            grid(5, 6, WeightStrategy::DistinctRandom { seed: 2 }),
            complete(14, WeightStrategy::DistinctRandom { seed: 3 }),
        ] {
            let run = run_boruvka(&g, &BoruvkaConfig::default()).unwrap();
            check_run(&g, &run);
        }
    }

    #[test]
    fn random_graphs_both_tie_breaks() {
        for seed in 0..4u64 {
            let g = connected_random(48, 140, seed, WeightStrategy::DistinctRandom { seed });
            for tb in [TieBreak::PaperPortOrder, TieBreak::CanonicalGlobal] {
                let run = run_boruvka(
                    &g,
                    &BoruvkaConfig {
                        root: Some(5),
                        tie_break: tb,
                    },
                )
                .unwrap();
                check_run(&g, &run);
                assert_eq!(run.root, 5);
            }
        }
    }

    #[test]
    fn duplicate_weights_usually_fine_with_canonical_tie_break() {
        for seed in 0..4u64 {
            let g = connected_random(30, 80, seed, WeightStrategy::UniformRandom { seed, max: 4 });
            let run = run_boruvka(
                &g,
                &BoruvkaConfig {
                    root: None,
                    tie_break: TieBreak::CanonicalGlobal,
                },
            )
            .unwrap();
            verify_mst_edges(&g, &run.mst_edges).unwrap();
        }
    }

    #[test]
    fn paper_tie_break_cycle_is_detected_not_silently_wrong() {
        // The adversarial triangle from the module docs: equal weights, ports
        // arranged so every node's cheapest port points "clockwise".
        let mut b = GraphBuilder::new(3);
        let e01 = b.add_edge(0, 1, 7);
        let e12 = b.add_edge(1, 2, 7);
        let e20 = b.add_edge(2, 0, 7);
        // Port orders: node 0 sees e01 first, node 1 sees e12 first, node 2
        // sees e20 first.
        b.set_port_order(0, vec![e01, e20]);
        b.set_port_order(1, vec![e12, e01]);
        b.set_port_order(2, vec![e20, e12]);
        let g = b.build().unwrap();
        let result = run_boruvka(&g, &BoruvkaConfig::default());
        match result {
            Err(BoruvkaError::SelectionCycle { phase: 1 }) => {}
            Ok(run) => {
                // If the construction succeeds despite the adversarial ports
                // (it should not for this exact layout), it must still be an MST.
                verify_mst_edges(&g, &run.mst_edges).unwrap();
                panic!("expected a selection cycle for the adversarial triangle");
            }
            Err(e) => panic!("unexpected error {e:?}"),
        }
        // The canonical tie-break handles the same graph fine.
        let run = run_boruvka(
            &g,
            &BoruvkaConfig {
                root: None,
                tie_break: TieBreak::CanonicalGlobal,
            },
        )
        .unwrap();
        verify_mst_edges(&g, &run.mst_edges).unwrap();
    }

    #[test]
    fn disconnected_and_empty_graphs_rejected() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1);
        b.add_edge(2, 3, 1);
        let g = b.build().unwrap();
        assert_eq!(
            run_boruvka(&g, &BoruvkaConfig::default()).unwrap_err(),
            BoruvkaError::Disconnected
        );
    }

    #[test]
    fn phase_accessor_clamps_to_terminal_state() {
        let g = star(8, WeightStrategy::DistinctRandom { seed: 6 });
        let run = run_boruvka(&g, &BoruvkaConfig::default()).unwrap();
        let far = run.phase(40);
        assert_eq!(far.fragment_count(), 1);
        assert_eq!(far.fragments[0].root, run.root);
        assert_eq!(run.phase(1).fragment_count(), 8);
    }

    #[test]
    fn levels_alternate_along_the_fragment_tree() {
        let g = path(16, WeightStrategy::DistinctRandom { seed: 11 });
        let run = run_boruvka(&g, &BoruvkaConfig::default()).unwrap();
        for rec in &run.phases {
            for frag in &rec.fragments {
                if let Some(parent) = frag.parent_in_ti {
                    assert_ne!(frag.level, rec.fragments[parent].level);
                    assert_eq!(frag.depth_in_ti, rec.fragments[parent].depth_in_ti + 1);
                }
            }
        }
    }

    #[test]
    fn number_of_merge_phases_is_logarithmic() {
        for n in [8usize, 16, 31, 64, 100] {
            let g = connected_random(n, 3 * n, 9, WeightStrategy::DistinctRandom { seed: 9 });
            let run = run_boruvka(&g, &BoruvkaConfig::default()).unwrap();
            let bound = lma_graph::graph::ceil_log2(n) as usize + 1;
            assert!(
                run.merge_phases() <= bound,
                "n={n}: {} phases exceeds bound {bound}",
                run.merge_phases()
            );
        }
    }
}

//! The weighted, port-numbered graph type shared by every crate in the
//! workspace.
//!
//! The representation mirrors the paper's model (§1):
//!
//! * nodes have (not necessarily distinct) identifiers,
//! * each node locally labels its incident edges with *port numbers*
//!   `0..deg(u)`, and
//! * each node knows the weight of each of its incident edges, addressed by
//!   port number.
//!
//! Everything downstream — the synchronous simulator, the oracles, the
//! sequential MST algorithms — works in terms of `(node, port)` pairs, so the
//! port structure is first-class here rather than an afterthought.

use crate::csr::CsrAdjacency;
use crate::heap::{vec_bytes, HeapSize};

/// Dense node index in `0..n`.  This is the *simulator's* handle for a node;
/// the (possibly non-distinct) application-level identifier is
/// [`WeightedGraph::id`].
pub type NodeIdx = usize;

/// Dense edge identifier in `0..m` (each undirected edge has one id).
pub type EdgeId = usize;

/// Local port number at a node, in `0..deg(u)`.
pub type Port = usize;

/// Edge weight.  Weights are integral (as in the paper's constructions); all
/// algorithms only ever compare weights, so an integral type also removes any
/// floating-point tie ambiguity from the reproduction.
pub type Weight = u64;

/// One undirected edge with its two endpoints and the port it occupies at
/// each endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRecord {
    /// First endpoint (the one with the smaller node index by convention of
    /// [`crate::builder::GraphBuilder`], though this is not load-bearing).
    pub u: NodeIdx,
    /// Second endpoint.
    pub v: NodeIdx,
    /// Port number of this edge at `u`.
    pub port_u: Port,
    /// Port number of this edge at `v`.
    pub port_v: Port,
    /// Weight of the edge.
    pub weight: Weight,
}

impl EdgeRecord {
    /// Returns the endpoint opposite to `x`.
    ///
    /// # Panics
    /// Panics if `x` is not an endpoint of the edge.
    #[must_use]
    pub fn other(&self, x: NodeIdx) -> NodeIdx {
        if x == self.u {
            self.v
        } else if x == self.v {
            self.u
        } else {
            panic!(
                "node {x} is not an endpoint of edge {{{}, {}}}",
                self.u, self.v
            )
        }
    }

    /// Returns the port this edge occupies at endpoint `x`.
    ///
    /// # Panics
    /// Panics if `x` is not an endpoint of the edge.
    #[must_use]
    pub fn port_at(&self, x: NodeIdx) -> Port {
        if x == self.u {
            self.port_u
        } else if x == self.v {
            self.port_v
        } else {
            panic!(
                "node {x} is not an endpoint of edge {{{}, {}}}",
                self.u, self.v
            )
        }
    }

    /// Returns both endpoints as an ordered pair `(min, max)`.
    #[must_use]
    pub fn endpoints_sorted(&self) -> (NodeIdx, NodeIdx) {
        if self.u <= self.v {
            (self.u, self.v)
        } else {
            (self.v, self.u)
        }
    }
}

/// The view a node has of one of its incident edges: the local port, the
/// neighbour on the other side, the weight, and the global edge id (the
/// edge id is *not* part of a node's local knowledge in the distributed
/// model — distributed algorithms must only rely on `port` and `weight`;
/// oracles and sequential code may use `edge`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncidentEdge {
    /// Local port number at the owning node.
    pub port: Port,
    /// The node at the other end of the edge.
    pub neighbor: NodeIdx,
    /// Edge weight.
    pub weight: Weight,
    /// Global edge identifier.
    pub edge: EdgeId,
}

/// An immutable, edge-weighted, simple, port-numbered graph.
///
/// Construction goes through [`crate::builder::GraphBuilder`] (or the
/// generators in [`crate::generators`]); after construction the structure is
/// immutable and freely shareable across threads.
///
/// The adjacency is held once, in a flat CSR layout ([`CsrAdjacency`], the
/// form the simulator's message plane is built on), next to the edge
/// records.  Port-addressed accessors ([`WeightedGraph::incident`],
/// [`WeightedGraph::incident_at`], …) and every traversal read it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightedGraph {
    ids: Vec<u64>,
    csr: CsrAdjacency,
    edges: Vec<EdgeRecord>,
}

impl HeapSize for WeightedGraph {
    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.ids) + self.csr.heap_bytes() + vec_bytes(&self.edges)
    }
}

impl WeightedGraph {
    /// Assembles a graph from raw parts.  Intended for use by the builder;
    /// invariants (ports forming `0..deg(u)`, symmetry of the adjacency,
    /// simplicity) are debug-asserted here and can be fully checked with
    /// [`crate::validate::check_well_formed`].
    #[must_use]
    pub(crate) fn from_parts(ids: Vec<u64>, csr: CsrAdjacency, edges: Vec<EdgeRecord>) -> Self {
        debug_assert_eq!(ids.len(), csr.node_count());
        let g = Self { ids, csr, edges };
        debug_assert!(crate::validate::check_well_formed(&g).is_ok());
        g
    }

    /// Number of nodes `n`.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.ids.len()
    }

    /// Number of undirected edges `m`.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all node indexes `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeIdx> + '_ {
        0..self.node_count()
    }

    /// The application-level identifier of node `u` (possibly non-distinct).
    #[must_use]
    pub fn id(&self, u: NodeIdx) -> u64 {
        self.ids[u]
    }

    /// Degree of node `u`.
    #[must_use]
    pub fn degree(&self, u: NodeIdx) -> usize {
        self.csr.degree(u)
    }

    /// The incident edges of `u`, indexed by port: `incident(u)[p].port == p`.
    /// Served from the CSR layout (a contiguous slice of the flat array).
    #[must_use]
    pub fn incident(&self, u: NodeIdx) -> &[IncidentEdge] {
        self.csr.incident(u)
    }

    /// The incident edge of `u` at port `p`, in O(1).
    ///
    /// # Panics
    /// Panics if `p >= deg(u)`.
    #[must_use]
    pub fn incident_at(&self, u: NodeIdx, p: Port) -> IncidentEdge {
        self.csr.at(u, p)
    }

    /// The flat CSR adjacency (offsets, dense `(node, port)` slots, mirror
    /// table) — the representation the simulator's message plane indexes by.
    #[must_use]
    pub fn csr(&self) -> &CsrAdjacency {
        &self.csr
    }

    /// All edge records.
    #[must_use]
    pub fn edges(&self) -> &[EdgeRecord] {
        &self.edges
    }

    /// The record of edge `e`.
    #[must_use]
    pub fn edge(&self, e: EdgeId) -> EdgeRecord {
        self.edges[e]
    }

    /// Weight of edge `e`.
    #[must_use]
    pub fn weight(&self, e: EdgeId) -> Weight {
        self.edges[e].weight
    }

    /// The neighbour reached from `u` through port `p`.
    #[must_use]
    pub fn neighbor_via(&self, u: NodeIdx, p: Port) -> NodeIdx {
        self.csr.at(u, p).neighbor
    }

    /// The global edge id of the edge at `(u, p)`.
    #[must_use]
    pub fn edge_via(&self, u: NodeIdx, p: Port) -> EdgeId {
        self.csr.at(u, p).edge
    }

    /// The port at which edge `e` appears at node `u`.
    ///
    /// # Panics
    /// Panics if `u` is not an endpoint of `e`.
    #[must_use]
    pub fn port_of_edge(&self, u: NodeIdx, e: EdgeId) -> Port {
        self.edges[e].port_at(u)
    }

    /// Looks up the edge joining `u` and `v`, if any.
    #[must_use]
    pub fn find_edge(&self, u: NodeIdx, v: NodeIdx) -> Option<EdgeId> {
        self.incident(u)
            .iter()
            .find(|ie| ie.neighbor == v)
            .map(|ie| ie.edge)
    }

    /// Sum of all edge weights.
    #[must_use]
    pub fn total_weight(&self) -> u128 {
        self.edges.iter().map(|e| u128::from(e.weight)).sum()
    }

    /// Sum of the weights of a set of edges (used to compare spanning trees).
    #[must_use]
    pub fn weight_of(&self, edge_set: &[EdgeId]) -> u128 {
        edge_set
            .iter()
            .map(|&e| u128::from(self.edges[e].weight))
            .sum()
    }

    /// Maximum degree Δ.
    #[must_use]
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|u| self.degree(u)).max().unwrap_or(0)
    }

    /// True when all node identifiers are pairwise distinct.
    #[must_use]
    pub fn has_distinct_ids(&self) -> bool {
        let mut ids = self.ids.clone();
        ids.sort_unstable();
        ids.windows(2).all(|w| w[0] != w[1])
    }

    /// True when all edge weights are pairwise distinct.
    #[must_use]
    pub fn has_distinct_weights(&self) -> bool {
        let mut ws: Vec<Weight> = self.edges.iter().map(|e| e.weight).collect();
        ws.sort_unstable();
        ws.windows(2).all(|w| w[0] != w[1])
    }

    /// Breadth-first distances from `src` (in hops), `usize::MAX` when
    /// unreachable.
    #[must_use]
    pub fn bfs_distances(&self, src: NodeIdx) -> Vec<usize> {
        let n = self.node_count();
        let mut dist = vec![usize::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        dist[src] = 0;
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            for ie in self.incident(u) {
                if dist[ie.neighbor] == usize::MAX {
                    dist[ie.neighbor] = dist[u] + 1;
                    queue.push_back(ie.neighbor);
                }
            }
        }
        dist
    }

    /// True when the graph is connected (every graph used by the experiments
    /// must be).
    #[must_use]
    pub fn is_connected(&self) -> bool {
        if self.node_count() == 0 {
            return true;
        }
        self.bfs_distances(0).iter().all(|&d| d != usize::MAX)
    }

    /// The unweighted diameter (longest shortest path in hops).
    ///
    /// Computed with one BFS per node — only used on the modest graph sizes of
    /// the experiment harness and in tests.
    ///
    /// # Panics
    /// Panics if the graph is disconnected.
    #[must_use]
    pub fn diameter(&self) -> usize {
        let mut diam = 0;
        for u in self.nodes() {
            let d = self.bfs_distances(u);
            for &x in &d {
                assert!(x != usize::MAX, "diameter of a disconnected graph");
                diam = diam.max(x);
            }
        }
        diam
    }

    /// A canonical strict total order on edges used to break weight ties
    /// deterministically: `(weight, min endpoint, max endpoint, edge id)`.
    ///
    /// The paper breaks ties "using the port numbers" and then "arbitrarily";
    /// making the arbitrary part canonical guarantees that simultaneously
    /// selected Borůvka edges can never close a cycle and that the whole
    /// pipeline (oracle, decoder, verifier) agrees on a single MST
    /// (deviation **D1** in `DESIGN.md`).
    #[must_use]
    pub fn edge_order_key(&self, e: EdgeId) -> (Weight, NodeIdx, NodeIdx, EdgeId) {
        let rec = self.edges[e];
        let (a, b) = rec.endpoints_sorted();
        (rec.weight, a, b, e)
    }

    /// `true` when edge `a` precedes edge `b` in the canonical order.
    #[must_use]
    pub fn edge_less(&self, a: EdgeId, b: EdgeId) -> bool {
        self.edge_order_key(a) < self.edge_order_key(b)
    }

    /// Returns `⌈log2(n)⌉` for `n = node_count()`, the quantity the paper
    /// writes `⌈log n⌉` (with `⌈log 1⌉ = 0`).
    #[must_use]
    pub fn ceil_log2_n(&self) -> u32 {
        ceil_log2(self.node_count().max(1))
    }
}

/// `⌈log2(x)⌉` for `x ≥ 1` (and `0` for `x = 1`).
#[must_use]
pub fn ceil_log2(x: usize) -> u32 {
    assert!(x >= 1, "ceil_log2 undefined for 0");
    (usize::BITS - (x - 1).leading_zeros()).min(usize::BITS) * u32::from(x > 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn triangle() -> WeightedGraph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 5);
        b.add_edge(1, 2, 3);
        b.add_edge(0, 2, 7);
        b.build().unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.total_weight(), 15);
    }

    #[test]
    fn ports_are_dense_and_consistent() {
        let g = triangle();
        for u in g.nodes() {
            for (p, ie) in g.incident(u).iter().enumerate() {
                assert_eq!(ie.port, p);
                // Round-trip through the edge record.
                let rec = g.edge(ie.edge);
                assert_eq!(rec.port_at(u), p);
                assert_eq!(rec.other(u), ie.neighbor);
                assert_eq!(g.neighbor_via(u, p), ie.neighbor);
                assert_eq!(g.edge_via(u, p), ie.edge);
            }
        }
    }

    #[test]
    fn find_edge_works_both_directions() {
        let g = triangle();
        let e = g.find_edge(0, 2).unwrap();
        assert_eq!(g.find_edge(2, 0), Some(e));
        assert_eq!(g.weight(e), 7);
        assert_eq!(g.find_edge(0, 0), None);
    }

    #[test]
    fn connectivity_and_diameter() {
        let g = triangle();
        assert!(g.is_connected());
        assert_eq!(g.diameter(), 1);

        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        b.add_edge(2, 3, 1);
        let path = b.build().unwrap();
        assert_eq!(path.diameter(), 3);
    }

    #[test]
    fn disconnected_graph_detected() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1);
        b.add_edge(2, 3, 1);
        let g = b.build().unwrap();
        assert!(!g.is_connected());
    }

    #[test]
    fn distinct_weights_and_ids() {
        let g = triangle();
        assert!(g.has_distinct_weights());
        assert!(g.has_distinct_ids());

        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 4);
        b.add_edge(1, 2, 4);
        let g2 = b.build().unwrap();
        assert!(!g2.has_distinct_weights());
    }

    #[test]
    fn canonical_edge_order_breaks_ties() {
        let mut b = GraphBuilder::new(4);
        let e0 = b.add_edge(0, 1, 5);
        let e1 = b.add_edge(2, 3, 5);
        let e2 = b.add_edge(1, 2, 4);
        let g = b.build().unwrap();
        assert!(g.edge_less(e2, e0));
        assert!(g.edge_less(e0, e1));
        assert!(!g.edge_less(e1, e0));
    }

    #[test]
    fn edge_record_other_and_port_at_panic_for_non_endpoints() {
        let g = triangle();
        let rec = g.edge(0);
        let result = std::panic::catch_unwind(|| rec.other(2_000));
        assert!(result.is_err());
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
    }

    #[test]
    fn bfs_distances_on_path() {
        let mut b = GraphBuilder::new(5);
        for i in 0..4 {
            b.add_edge(i, i + 1, 1);
        }
        let g = b.build().unwrap();
        assert_eq!(g.bfs_distances(0), vec![0, 1, 2, 3, 4]);
        assert_eq!(g.bfs_distances(2), vec![2, 1, 0, 1, 2]);
    }
}

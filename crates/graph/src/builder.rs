//! Mutable construction of [`WeightedGraph`] values.
//!
//! The builder accumulates edges, optionally permutes port numbers and node
//! identifiers, and finally produces an immutable graph.  All generators in
//! [`crate::generators`] are thin layers over this builder.

use crate::csr::CsrAdjacency;
use crate::graph::{EdgeId, EdgeRecord, IncidentEdge, NodeIdx, Port, Weight, WeightedGraph};
use crate::prng::SplitMix64;

/// Errors that can occur while finalizing a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// An edge references a node index `>= n`.
    NodeOutOfRange {
        /// The offending node index.
        node: NodeIdx,
        /// The number of nodes the builder was created with.
        n: usize,
    },
    /// A self-loop was added (the model forbids them).
    SelfLoop {
        /// The node with the self-loop.
        node: NodeIdx,
    },
    /// The same unordered pair of nodes was connected twice (the model
    /// requires a simple graph).
    DuplicateEdge {
        /// First endpoint.
        u: NodeIdx,
        /// Second endpoint.
        v: NodeIdx,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NodeOutOfRange { node, n } => {
                write!(f, "edge endpoint {node} out of range for {n}-node graph")
            }
            Self::SelfLoop { node } => write!(f, "self-loop at node {node} is not allowed"),
            Self::DuplicateEdge { u, v } => {
                write!(f, "duplicate edge between {u} and {v} is not allowed")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Incremental builder for [`WeightedGraph`].
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    ids: Vec<u64>,
    edges: Vec<(NodeIdx, NodeIdx, Weight)>,
    port_seed: Option<u64>,
    explicit_orders: std::collections::BTreeMap<NodeIdx, Vec<EdgeId>>,
}

impl GraphBuilder {
    /// Creates a builder for an `n`-node graph.  Node identifiers default to
    /// `0..n` (distinct); use [`GraphBuilder::set_ids`] to override.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            n,
            ids: (0..n as u64).collect(),
            edges: Vec::new(),
            port_seed: None,
            explicit_orders: std::collections::BTreeMap::new(),
        }
    }

    /// Number of nodes the builder was created with.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of edges added so far.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Overrides the application-level node identifiers.
    ///
    /// # Panics
    /// Panics if `ids.len() != n`.
    pub fn set_ids(&mut self, ids: Vec<u64>) -> &mut Self {
        assert_eq!(ids.len(), self.n, "ids length must equal node count");
        self.ids = ids;
        self
    }

    /// Requests that port numbers be assigned in a pseudo-random order derived
    /// from `seed` instead of insertion order.  Exercising arbitrary port
    /// labellings matters because the model's advice is defined relative to
    /// whatever labelling the network happens to have.
    pub fn randomize_ports(&mut self, seed: u64) -> &mut Self {
        self.port_seed = Some(seed);
        self
    }

    /// Adds an undirected edge `{u, v}` with the given weight and returns the
    /// edge id it will have in the built graph.
    ///
    /// Validation of range/self-loop/duplicate constraints happens in
    /// [`GraphBuilder::build`] so that generators can be written without
    /// sprinkling `?` everywhere.
    pub fn add_edge(&mut self, u: NodeIdx, v: NodeIdx, weight: Weight) -> EdgeId {
        let id = self.edges.len();
        self.edges.push((u, v, weight));
        id
    }

    /// Returns true if an edge between `u` and `v` has already been added.
    #[must_use]
    pub fn has_edge(&self, u: NodeIdx, v: NodeIdx) -> bool {
        self.edges
            .iter()
            .any(|&(a, b, _)| (a == u && b == v) || (a == v && b == u))
    }

    /// Replaces the weight of a previously added edge.
    ///
    /// # Panics
    /// Panics if `e` is out of range.
    pub fn set_weight(&mut self, e: EdgeId, weight: Weight) -> &mut Self {
        self.edges[e].2 = weight;
        self
    }

    /// Fixes the exact order in which the incident edges of `node` receive
    /// port numbers: `order[p]` is the edge id that gets port `p`.
    ///
    /// The Theorem 1 adversary uses this to move the spine edge of the
    /// lower-bound graph to different ports of a target node while keeping
    /// the node's local view (port → weight map) identical across instances.
    ///
    /// `build` panics if the order is not a permutation of exactly the edges
    /// incident to `node`.  An explicit order takes precedence over
    /// [`GraphBuilder::randomize_ports`] for that node.
    pub fn set_port_order(&mut self, node: NodeIdx, order: Vec<EdgeId>) -> &mut Self {
        self.explicit_orders.insert(node, order);
        self
    }

    /// Finalizes the graph, assigning port numbers and checking the model's
    /// structural constraints (no self-loops, no parallel edges, endpoints in
    /// range).
    pub fn build(&self) -> Result<WeightedGraph, BuildError> {
        // Validate.
        let mut seen = std::collections::BTreeSet::new();
        for &(u, v, _) in &self.edges {
            if u >= self.n {
                return Err(BuildError::NodeOutOfRange { node: u, n: self.n });
            }
            if v >= self.n {
                return Err(BuildError::NodeOutOfRange { node: v, n: self.n });
            }
            if u == v {
                return Err(BuildError::SelfLoop { node: u });
            }
            let key = (u.min(v), u.max(v));
            if !seen.insert(key) {
                return Err(BuildError::DuplicateEdge { u: key.0, v: key.1 });
            }
        }

        // Decide the order in which each node's incident edges receive ports.
        // Node `u`'s CSR slots `offsets[u]..offsets[u + 1]` collect its
        // incident edges in insertion order; an optional pseudo-random
        // permutation then scrambles each node's range.
        let mut offsets = vec![0; self.n + 1];
        for &(u, v, _) in &self.edges {
            offsets[u + 1] += 1;
            offsets[v + 1] += 1;
        }
        for u in 0..self.n {
            offsets[u + 1] += offsets[u];
        }
        let unassigned = IncidentEdge {
            port: 0,
            neighbor: 0,
            weight: 0,
            edge: 0,
        };
        let mut incident = vec![unassigned; offsets[self.n]];
        let mut next_slot = offsets[..self.n].to_vec();
        for (edge, &(u, v, weight)) in self.edges.iter().enumerate() {
            for (at, neighbor) in [(u, v), (v, u)] {
                incident[next_slot[at]] = IncidentEdge {
                    neighbor,
                    weight,
                    edge,
                    ..unassigned
                };
                next_slot[at] += 1;
            }
        }
        let range = |u: NodeIdx| offsets[u]..offsets[u + 1];
        if let Some(seed) = self.port_seed {
            let mut rng = SplitMix64::new(seed);
            for u in 0..self.n {
                rng.shuffle(&mut incident[range(u)]);
            }
        }
        for (&node, order) in &self.explicit_orders {
            let inc = &mut incident[range(node)];
            assert_eq!(
                order.len(),
                inc.len(),
                "explicit port order for node {node} must cover all {} incident edges",
                inc.len()
            );
            let by_edge: std::collections::BTreeMap<EdgeId, IncidentEdge> =
                inc.iter().map(|&ie| (ie.edge, ie)).collect();
            let mut used = std::collections::BTreeSet::new();
            for (slot, &e) in inc.iter_mut().zip(order) {
                *slot = *by_edge
                    .get(&e)
                    .unwrap_or_else(|| panic!("edge {e} is not incident to node {node}"));
                assert!(
                    used.insert(e),
                    "edge {e} listed twice in port order for node {node}"
                );
            }
        }

        // Assign ports and assemble edge records.
        let mut port_of: Vec<(Option<Port>, Option<Port>)> = vec![(None, None); self.edges.len()];
        for u in 0..self.n {
            for (p, ie) in incident[range(u)].iter_mut().enumerate() {
                ie.port = p;
                let (eu, ev, _) = self.edges[ie.edge];
                if u == eu {
                    port_of[ie.edge].0 = Some(p);
                } else {
                    debug_assert_eq!(u, ev);
                    port_of[ie.edge].1 = Some(p);
                }
            }
        }

        let edges: Vec<EdgeRecord> = self
            .edges
            .iter()
            .enumerate()
            .map(|(e, &(u, v, weight))| EdgeRecord {
                u,
                v,
                port_u: port_of[e].0.expect("port assigned at u"),
                port_v: port_of[e].1.expect("port assigned at v"),
                weight,
            })
            .collect();

        let csr = CsrAdjacency::new(offsets, incident, &edges);
        Ok(WeightedGraph::from_parts(self.ids.clone(), csr, edges))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_simple_graph() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 10);
        b.add_edge(1, 2, 20);
        let g = b.build().unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(1, 1, 4);
        assert_eq!(b.build().unwrap_err(), BuildError::SelfLoop { node: 1 });
    }

    #[test]
    fn rejects_duplicate_edge() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 4);
        b.add_edge(1, 0, 9);
        assert_eq!(
            b.build().unwrap_err(),
            BuildError::DuplicateEdge { u: 0, v: 1 }
        );
    }

    #[test]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 5, 1);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::NodeOutOfRange { node: 5, n: 2 }
        ));
    }

    #[test]
    fn has_edge_is_symmetric() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 2, 1);
        assert!(b.has_edge(0, 2));
        assert!(b.has_edge(2, 0));
        assert!(!b.has_edge(0, 1));
    }

    #[test]
    fn set_weight_overrides() {
        let mut b = GraphBuilder::new(2);
        let e = b.add_edge(0, 1, 1);
        b.set_weight(e, 99);
        let g = b.build().unwrap();
        assert_eq!(g.weight(e), 99);
    }

    #[test]
    fn custom_ids_are_kept() {
        let mut b = GraphBuilder::new(3);
        b.set_ids(vec![100, 200, 200]);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 2);
        let g = b.build().unwrap();
        assert_eq!(g.id(0), 100);
        assert_eq!(g.id(2), 200);
        assert!(!g.has_distinct_ids());
    }

    #[test]
    fn randomized_ports_still_well_formed() {
        let mut b = GraphBuilder::new(6);
        for u in 0..6 {
            for v in (u + 1)..6 {
                b.add_edge(u, v, (u * 7 + v) as u64);
            }
        }
        b.randomize_ports(1234);
        let g = b.build().unwrap();
        crate::validate::check_well_formed(&g).unwrap();
        // Port permutation must not change graph-level facts.
        assert_eq!(g.edge_count(), 15);
        assert!(g.is_connected());
    }

    #[test]
    fn randomized_ports_differ_from_insertion_order_somewhere() {
        // Build the same clique twice, once with and once without port
        // randomization; at least one node must see a different port order.
        let mut plain = GraphBuilder::new(8);
        let mut scrambled = GraphBuilder::new(8);
        for u in 0..8 {
            for v in (u + 1)..8 {
                plain.add_edge(u, v, 1 + (u * 31 + v) as u64);
                scrambled.add_edge(u, v, 1 + (u * 31 + v) as u64);
            }
        }
        scrambled.randomize_ports(7);
        let a = plain.build().unwrap();
        let b = scrambled.build().unwrap();
        let differs = a.nodes().any(|u| {
            a.incident(u)
                .iter()
                .map(|ie| ie.neighbor)
                .collect::<Vec<_>>()
                != b.incident(u)
                    .iter()
                    .map(|ie| ie.neighbor)
                    .collect::<Vec<_>>()
        });
        assert!(differs);
    }
}

//! Flat (CSR) adjacency: the graph's one adjacency representation.
//!
//! The simulator's hot loop addresses edges as `(node, port)` pairs, millions
//! of times per run.  The CSR layout stores all incident edges in one flat
//! array, node-major and port-ordered, with no pointer per node, so
//!
//! * `(node, port) → IncidentEdge` is one add and one indexed load,
//! * each `(node, port)` pair has a dense **slot** index in `0..2m` that
//!   message planes can use directly as a buffer offset, and
//! * the [`CsrAdjacency::mirror`] table maps each slot to the slot of the
//!   same edge at the *other* endpoint — exactly the indirection a pull-based
//!   message plane needs to gather a receiver's traffic from its neighbours'
//!   outbox slots without touching edge records.

use crate::graph::{EdgeRecord, IncidentEdge, NodeIdx, Port};
use crate::heap::{vec_bytes, HeapSize};

/// Compressed-sparse-row adjacency with a precomputed mirror-slot table.
///
/// Built once per graph by [`crate::builder::GraphBuilder::build`];
/// immutable afterwards, like the graph itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrAdjacency {
    /// `offsets[u]..offsets[u + 1]` is node `u`'s slot range; length `n + 1`.
    offsets: Vec<usize>,
    /// All incident edges, node-major, port-ordered inside each node; the
    /// entry at slot `offsets[u] + p` is node `u`'s incident edge at port
    /// `p`.  Length `2m`.
    incident: Vec<IncidentEdge>,
    /// `mirror[s]` is the slot of the same undirected edge at the opposite
    /// endpoint: if `s = slot(u, p)` describes edge `e = {u, v}`, then
    /// `mirror[s] = slot(v, q)` where `q` is `e`'s port at `v`.
    mirror: Vec<usize>,
}

impl HeapSize for CsrAdjacency {
    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.offsets) + vec_bytes(&self.incident) + vec_bytes(&self.mirror)
    }
}

impl CsrAdjacency {
    /// Wraps a flat incident array (node-major, port-ordered, as assembled
    /// by the builder) and its `n + 1` prefix `offsets`, and precomputes the
    /// mirror table from the edge records.
    pub(crate) fn new(
        offsets: Vec<usize>,
        incident: Vec<IncidentEdge>,
        edges: &[EdgeRecord],
    ) -> Self {
        let mirror = incident
            .iter()
            .map(|ie| offsets[ie.neighbor] + edges[ie.edge].port_at(ie.neighbor))
            .collect();
        Self {
            offsets,
            incident,
            mirror,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of slots (`2m`: one per edge endpoint).
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.incident.len()
    }

    /// The `n + 1` prefix offsets; `offsets()[u]` is the first slot of `u`.
    #[must_use]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Degree of `u`.
    #[must_use]
    pub fn degree(&self, u: NodeIdx) -> usize {
        self.offsets[u + 1] - self.offsets[u]
    }

    /// Incident edges of `u`, indexed by port (a contiguous slice).
    #[must_use]
    pub fn incident(&self, u: NodeIdx) -> &[IncidentEdge] {
        &self.incident[self.offsets[u]..self.offsets[u + 1]]
    }

    /// The incident edge of `u` at port `p`, in O(1).
    ///
    /// # Panics
    /// Panics if `p >= deg(u)`.
    #[must_use]
    pub fn at(&self, u: NodeIdx, p: Port) -> IncidentEdge {
        assert!(p < self.degree(u), "port {p} out of range at node {u}");
        self.incident[self.offsets[u] + p]
    }

    /// The dense slot index of `(u, p)`.
    #[must_use]
    pub fn slot(&self, u: NodeIdx, p: Port) -> usize {
        self.offsets[u] + p
    }

    /// The slot of the same edge at the opposite endpoint.
    #[must_use]
    pub fn mirror(&self, slot: usize) -> usize {
        self.mirror[slot]
    }

    /// The whole mirror table (length [`CsrAdjacency::slot_count`]).
    #[must_use]
    pub fn mirror_table(&self) -> &[usize] {
        &self.mirror
    }

    /// The whole flat incident array (length [`CsrAdjacency::slot_count`]),
    /// node-major and port-ordered.
    #[must_use]
    pub fn incident_flat(&self) -> &[IncidentEdge] {
        &self.incident
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::GraphBuilder;
    use crate::generators::{connected_random, ring};
    use crate::weights::WeightStrategy;

    #[test]
    fn csr_matches_nested_adjacency() {
        let g = connected_random(40, 100, 3, WeightStrategy::DistinctRandom { seed: 3 });
        let csr = g.csr();
        assert_eq!(csr.node_count(), g.node_count());
        assert_eq!(csr.slot_count(), 2 * g.edge_count());
        // Every edge record appears at both of its endpoints, at its ports.
        let mut seen = vec![0; csr.slot_count()];
        for (e, rec) in g.edges().iter().enumerate() {
            for (at, port, neighbor) in [(rec.u, rec.port_u, rec.v), (rec.v, rec.port_v, rec.u)] {
                let ie = csr.at(at, port);
                assert_eq!(
                    (ie.port, ie.neighbor, ie.weight, ie.edge),
                    (port, neighbor, rec.weight, e)
                );
                seen[csr.slot(at, port)] += 1;
            }
        }
        assert!(
            seen.iter().all(|&k| k == 1),
            "every slot is one edge endpoint"
        );
        for u in g.nodes() {
            assert_eq!(csr.degree(u), g.degree(u));
            for (p, ie) in csr.incident(u).iter().enumerate() {
                assert_eq!(csr.at(u, p), *ie);
            }
        }
    }

    #[test]
    fn mirror_is_an_involution_onto_the_other_endpoint() {
        let g = connected_random(30, 80, 9, WeightStrategy::DistinctRandom { seed: 9 });
        let csr = g.csr();
        for u in g.nodes() {
            for p in 0..csr.degree(u) {
                let s = csr.slot(u, p);
                let m = csr.mirror(s);
                assert_ne!(s, m);
                assert_eq!(csr.mirror(m), s, "mirror must be an involution");
                // The mirror slot belongs to the neighbour and names the
                // same undirected edge.
                let here = csr.at(u, p);
                let there = csr.incident_flat()[m];
                assert_eq!(there.edge, here.edge);
                assert_eq!(there.neighbor, u);
                assert_eq!(here.neighbor, g.edge(here.edge).other(u));
            }
        }
    }

    #[test]
    fn slots_are_dense_and_node_major() {
        let g = ring(7, WeightStrategy::Unit);
        let csr = g.csr();
        let mut expected = 0;
        for u in g.nodes() {
            for p in 0..csr.degree(u) {
                assert_eq!(csr.slot(u, p), expected);
                expected += 1;
            }
        }
        assert_eq!(expected, csr.slot_count());
    }

    #[test]
    fn single_edge_graph() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 5);
        let g = b.build().unwrap();
        let csr = g.csr();
        assert_eq!(csr.slot_count(), 2);
        assert_eq!(csr.mirror(0), 1);
        assert_eq!(csr.mirror(1), 0);
        assert_eq!(csr.at(0, 0).weight, 5);
    }
}

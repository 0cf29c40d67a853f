//! # `lma-graph` — weighted, port-numbered graphs for the *mst-advice* reproduction
//!
//! This crate provides the graph substrate used throughout the reproduction of
//! *"Local MST Computation with Short Advice"* (Fraigniaud, Korman, Lebhar;
//! SPAA 2007):
//!
//! * [`WeightedGraph`] — an edge-weighted, connected, simple graph whose edges
//!   are addressed **by local port number** at each endpoint, exactly as in the
//!   paper's model (§1: "the `deg(u)` edges incident to node `u` are locally
//!   labeled by `deg(u)` distinct labels, called port numbers").
//! * [`index::EdgeIndex`] — the per-node edge index `index_u(e) = (x_u(e),
//!   y_u(e))` the paper uses to name edges with few bits (ranks of weight and
//!   port), plus the total rank `r_u(e)` used by the trivial advising scheme.
//! * [`generators`] — deterministic generators for every graph family the
//!   experiments use: paths, rings, stars, trees, grids/tori, complete graphs,
//!   Erdős–Rényi-style random connected graphs, the lower-bound family `G_n`
//!   from Theorem 1 / Figure 1, and a small-diameter "hard" family.
//! * [`partition`] — contiguous, slot-balanced node shards over the CSR slot
//!   space with precomputed boundary-slot maps, the substrate of the sharded
//!   parallel executor in `lma-sim`.
//! * [`prng`] — a tiny, dependency-free, seedable PRNG so that every
//!   experiment is exactly reproducible from its seed.
//! * [`dot`] — Graphviz DOT rendering (used to regenerate the paper's figures).
//! * [`heap`] — [`HeapSize`], the retained-bytes accounting byte-bounded
//!   caches charge graphs, partitions and oracle products by.
//! * [`validate`] — structural checks (simple, connected, ports well-formed).
//!
//! The graph representation is deliberately immutable after construction: the
//! distributed simulator, the oracles and the sequential MST algorithms all
//! share references to the same [`WeightedGraph`] and never mutate it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod csr;
pub mod dot;
pub mod generators;
pub mod graph;
pub mod heap;
pub mod index;
pub mod partition;
pub mod prng;
pub mod validate;
pub mod weights;

pub use builder::GraphBuilder;
pub use csr::CsrAdjacency;
pub use graph::{EdgeId, EdgeRecord, IncidentEdge, NodeIdx, Port, Weight, WeightedGraph};
pub use heap::HeapSize;
pub use index::EdgeIndex;
pub use partition::Partition;
pub use prng::SplitMix64;

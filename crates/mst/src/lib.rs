//! # `lma-mst` — sequential MST substrate and the paper's Borůvka decomposition
//!
//! The advising schemes of *"Local MST Computation with Short Advice"* are
//! built by an **oracle** that sees the whole graph, runs (a variant of)
//! Borůvka's algorithm, and encodes facts about that run into per-node advice
//! strings.  This crate is that oracle's toolbox:
//!
//! * [`union_find`] — disjoint sets with union by rank and path compression;
//! * [`kruskal`] / [`prim`] — classical sequential MST algorithms used as
//!   ground truth and cross-checks;
//! * [`tree`] — rooted-tree utilities over a spanning tree (parent/port
//!   arrays, BFS orders, depths) and the *upward tree representation* the
//!   paper requires as output (each node outputs the port of its parent
//!   edge);
//! * [`boruvka`] + [`decomposition`] — the paper's Borůvka variant (§2.2):
//!   phases in which only fragments of size `< 2^i` are *active*, each active
//!   fragment selecting its minimum-weight outgoing edge with the paper's
//!   tie-breaking, together with the complete per-phase bookkeeping
//!   (fragments, choosing nodes, selected edges, up/down orientations,
//!   fragment-tree levels, BFS orders) the oracles of Theorems 2 and 3
//!   consume;
//! * [`verify`] — independent verification that an edge set / an upward tree
//!   representation is a genuine MST;
//! * [`render`] — DOT/ASCII rendering of one Borůvka phase (the paper's
//!   Figure 2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boruvka;
pub mod decomposition;
pub mod digest;
pub mod kruskal;
pub mod prim;
pub mod render;
pub mod tree;
pub mod union_find;
pub mod verify;

pub use boruvka::{boruvka_tree, run_boruvka, BoruvkaConfig, BoruvkaError, TieBreak};
pub use decomposition::{BoruvkaRun, FragId, FragmentRecord, PhaseRecord, Selection};
pub use kruskal::{kruskal_mst, mst_weight};
pub use prim::prim_mst;
pub use tree::RootedTree;
pub use union_find::UnionFind;
pub use verify::{
    tree_from_outputs, verify_mst_edges, verify_upward_outputs, MstError, UpwardOutput,
};

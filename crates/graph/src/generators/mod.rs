//! Graph generators for every family used by the experiments.
//!
//! Each generator returns a fully validated [`crate::WeightedGraph`]; weights
//! are controlled by a [`crate::weights::WeightStrategy`] except for the
//! Theorem 1 lower-bound family, whose weights are part of the construction.
//!
//! | Family | Function | Used by |
//! |--------|----------|---------|
//! | path / ring / star / caterpillar | [`path`], [`ring`], [`star`], [`caterpillar`] | unit tests, E2–E4 sweeps |
//! | complete graph `K_n` | [`complete`] | E2–E4 sweeps |
//! | 2-D grid / torus | [`grid`], [`torus`] | E2–E4 sweeps |
//! | random / balanced trees | [`random_tree`], [`balanced_binary_tree`] | substrate tests |
//! | connected Erdős–Rényi-style | [`connected_random`] | E2–E5 sweeps |
//! | Theorem 1 family `G_n(ω)` | [`lowerbound::lowerbound_gn`] | E1, Figure 1 |
//! | small-diameter "hard" family | [`lollipop`], [`dumbbell`] | E5 baselines |
//! | hypercube / random regular / geometric / complete bipartite | [`hypercube`], [`random_regular`], [`geometric`], [`complete_bipartite`] | E2–E6 sweeps, property tests |
//! | preferential attachment / small world | [`barabasi_albert`], [`watts_strogatz`] | scenario registry, E2–E4 sweeps |

mod basic;
mod complete_graph;
mod grid2d;
mod hard;
pub mod lowerbound;
mod preferential;
mod random_graphs;
mod structured;
mod trees;

pub use basic::{caterpillar, path, ring, star};
pub use complete_graph::complete;
pub use grid2d::{grid, torus};
pub use hard::{dumbbell, lollipop};
pub use lowerbound::{lowerbound_family_at, lowerbound_gn, LowerBoundParams};
pub use preferential::{barabasi_albert, watts_strogatz};
pub use random_graphs::{connected_random, gnp_connected};
pub use structured::{complete_bipartite, geometric, hypercube, random_regular};
pub use trees::{balanced_binary_tree, random_tree};

use crate::graph::WeightedGraph;
use crate::weights::WeightStrategy;

/// A named graph family, used by the experiment harness to sweep instances
/// uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Simple path `P_n`.
    Path,
    /// Cycle `C_n`.
    Ring,
    /// Star `K_{1,n-1}`.
    Star,
    /// Complete graph `K_n`.
    Complete,
    /// Near-square 2-D grid.
    Grid,
    /// Near-square 2-D torus.
    Torus,
    /// Random spanning tree.
    RandomTree,
    /// Connected random graph with average degree ≈ 4.
    SparseRandom,
    /// Connected random graph with average degree ≈ n/4.
    DenseRandom,
    /// Lollipop (clique plus tail path).
    Lollipop,
    /// Hypercube `Q_d` with `2^d ≈ n` nodes.
    Hypercube,
    /// Random 4-regular connected graph (expander-like).
    RandomRegular,
    /// Random geometric graph in the unit square (connectivity-patched).
    Geometric,
    /// Complete bipartite graph `K_{n/2, n - n/2}`.
    CompleteBipartite,
    /// Barabási–Albert preferential attachment (scale-free hubs).
    PreferentialAttachment,
    /// Watts–Strogatz rewired ring lattice (small world).
    SmallWorld,
}

impl Family {
    /// All families swept by the experiment harness.
    pub const ALL: [Family; 16] = [
        Family::Path,
        Family::Ring,
        Family::Star,
        Family::Complete,
        Family::Grid,
        Family::Torus,
        Family::RandomTree,
        Family::SparseRandom,
        Family::DenseRandom,
        Family::Lollipop,
        Family::Hypercube,
        Family::RandomRegular,
        Family::Geometric,
        Family::CompleteBipartite,
        Family::PreferentialAttachment,
        Family::SmallWorld,
    ];

    /// Human-readable name used in tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Family::Path => "path",
            Family::Ring => "ring",
            Family::Star => "star",
            Family::Complete => "complete",
            Family::Grid => "grid",
            Family::Torus => "torus",
            Family::RandomTree => "random-tree",
            Family::SparseRandom => "sparse-random",
            Family::DenseRandom => "dense-random",
            Family::Lollipop => "lollipop",
            Family::Hypercube => "hypercube",
            Family::RandomRegular => "random-regular",
            Family::Geometric => "geometric",
            Family::CompleteBipartite => "complete-bipartite",
            Family::PreferentialAttachment => "preferential-attachment",
            Family::SmallWorld => "small-world",
        }
    }

    /// Resolves a stable name (see [`Family::name`]) back to its family.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Family> {
        Family::ALL.into_iter().find(|f| f.name() == name)
    }

    /// Instantiates the family with (approximately) `n` nodes and the given
    /// weight strategy/seed.
    #[must_use]
    pub fn instantiate(self, n: usize, weights: WeightStrategy, seed: u64) -> WeightedGraph {
        let n = n.max(2);
        match self {
            Family::Path => path(n, weights),
            Family::Ring => ring(n.max(3), weights),
            Family::Star => star(n, weights),
            Family::Complete => complete(n, weights),
            Family::Grid => {
                let side = (n as f64).sqrt().ceil() as usize;
                grid(side.max(2), side.max(2), weights)
            }
            Family::Torus => {
                let side = (n as f64).sqrt().ceil() as usize;
                torus(side.max(3), side.max(3), weights)
            }
            Family::RandomTree => random_tree(n, seed, weights),
            Family::SparseRandom => connected_random(n, 2 * n, seed, weights),
            Family::DenseRandom => connected_random(n, (n * n) / 8 + n, seed, weights),
            Family::Lollipop => lollipop(n.max(4), weights),
            Family::Hypercube => {
                let dim = (usize::BITS - n.max(2).leading_zeros() - 1).max(1);
                hypercube(dim, weights)
            }
            Family::RandomRegular => {
                let n = n.max(6);
                // Keep n·d even so the stub matching can succeed.
                let n = if n % 2 == 1 { n + 1 } else { n };
                random_regular(n, 4, seed, weights)
            }
            Family::Geometric => {
                let radius = (2.0 * (n.max(2) as f64).ln() / n.max(2) as f64).sqrt();
                geometric(n, radius, seed, weights)
            }
            Family::CompleteBipartite => complete_bipartite(n / 2, n - n / 2, weights),
            Family::PreferentialAttachment => {
                let n = n.max(4);
                barabasi_albert(n, 2.min(n - 2), seed, weights)
            }
            Family::SmallWorld => {
                let n = n.max(7);
                watts_strogatz(n, 2, 0.2, seed, weights)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::check_instance;

    #[test]
    fn every_family_instantiates_to_a_valid_connected_graph() {
        for fam in Family::ALL {
            for n in [2usize, 3, 4, 9, 17, 32] {
                let g = fam.instantiate(n, WeightStrategy::DistinctRandom { seed: 42 }, 7);
                check_instance(&g)
                    .unwrap_or_else(|e| panic!("family {} with n={n} invalid: {e}", fam.name()));
                assert!(g.node_count() >= 2, "family {}", fam.name());
            }
        }
    }

    #[test]
    fn family_names_are_unique() {
        let mut names: Vec<&str> = Family::ALL.iter().map(|f| f.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Family::ALL.len());
    }
}

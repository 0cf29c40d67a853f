//! Two-dimensional grid and torus graphs.

use crate::builder::GraphBuilder;
use crate::graph::WeightedGraph;
use crate::weights::{WeightAssigner, WeightStrategy};

fn node_at(cols: usize, r: usize, c: usize) -> usize {
    r * cols + c
}

/// An `rows × cols` grid (4-neighbour lattice), `rows, cols ≥ 2`.
#[must_use]
pub fn grid(rows: usize, cols: usize, weights: WeightStrategy) -> WeightedGraph {
    assert!(rows >= 2 && cols >= 2, "grid needs at least 2x2");
    let m = rows * (cols - 1) + cols * (rows - 1);
    let mut b = GraphBuilder::new(rows * cols);
    let mut w = WeightAssigner::new(weights, m);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                let e = b.add_edge(node_at(cols, r, c), node_at(cols, r, c + 1), 0);
                b.set_weight(e, w.weight_of(e));
            }
            if r + 1 < rows {
                let e = b.add_edge(node_at(cols, r, c), node_at(cols, r + 1, c), 0);
                b.set_weight(e, w.weight_of(e));
            }
        }
    }
    b.build().expect("grid construction is always valid")
}

/// An `rows × cols` torus (grid with wrap-around edges), `rows, cols ≥ 3`.
#[must_use]
pub fn torus(rows: usize, cols: usize, weights: WeightStrategy) -> WeightedGraph {
    assert!(rows >= 3 && cols >= 3, "torus needs at least 3x3");
    let m = 2 * rows * cols;
    let mut b = GraphBuilder::new(rows * cols);
    let mut w = WeightAssigner::new(weights, m);
    // With at least 3 rows and 3 columns every wrap-around edge is distinct
    // (a 3-cycle has three different node pairs), so no duplicate check is
    // needed; `build` would reject one anyway.
    for r in 0..rows {
        for c in 0..cols {
            let right = node_at(cols, r, (c + 1) % cols);
            let down = node_at(cols, (r + 1) % rows, c);
            let here = node_at(cols, r, c);
            let e = b.add_edge(here, right, 0);
            b.set_weight(e, w.weight_of(e));
            let e = b.add_edge(here, down, 0);
            b.set_weight(e, w.weight_of(e));
        }
    }
    b.build().expect("torus construction is always valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::check_instance;

    #[test]
    fn grid_shape() {
        let g = grid(3, 4, WeightStrategy::ByEdgeId);
        check_instance(&g).unwrap();
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 3 * 3 + 4 * 2);
        // Corners have degree 2, inner nodes degree 4.
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(5), 4);
        assert_eq!(g.diameter(), 5);
    }

    #[test]
    fn torus_shape() {
        let g = torus(4, 4, WeightStrategy::Unit);
        check_instance(&g).unwrap();
        assert_eq!(g.node_count(), 16);
        assert_eq!(g.edge_count(), 32);
        assert!(g.nodes().all(|u| g.degree(u) == 4));
        assert_eq!(g.diameter(), 4);
    }

    #[test]
    fn torus_3x3_has_no_parallel_edges() {
        let g = torus(3, 3, WeightStrategy::Unit);
        check_instance(&g).unwrap();
        assert_eq!(g.edge_count(), 18);
    }
}

//! The packed-advice oracle of Theorem 3 and of the advice-vs-time
//! tradeoff.
//!
//! For every phase `i = 1 … P` and every active fragment `F` with a
//! selection, the oracle builds the fragment string `A(F)` and *packs* it
//! into the advice of `F`'s nodes, walking the fragment's BFS order and
//! filling each node up to the per-node capacity `c` (the paper's
//! `used(v, i)` procedure).  Every node then receives a final segment of
//! `B` bits: the first `⌈log n / B⌉` BFS nodes of each fragment of phase
//! `P + 1` jointly spell the `⌈log n⌉`-bit identity of the fragment root's
//! parent edge (its local rank, `0` meaning "I am the MST root"), and every
//! other node receives `B` padding zeros, so the segment always ends the
//! advice.  Theorem 3 is `P = ⌈log log n⌉` and `B = 1`; the tradeoff scheme
//! ([`crate::tradeoff`]) stops after fewer phases with a wider segment.

use crate::bits::BitString;
use crate::constant::schedule::log_n;
use crate::constant::ConstantVariant;
use crate::scheme::{Advice, SchemeError};
use lma_graph::{index, WeightedGraph};
use lma_mst::decomposition::{BoruvkaRun, PhaseRecord};

/// The per-node capacity `c` used for packing the phase strings.
///
/// * Level variant: the paper's `c = 11` (a phase-`i` string has `i + 2`
///   bits; `Σ (i+2)/2^{i−1} = 8`, and `(11 − 8)·2^{i−1} ≥ i + 2` for all
///   `i ≥ 1`).
/// * Index variant: `c = 13` (a phase-`i` string has `2i + 1` bits;
///   `Σ (2i+1)/2^{i−1} = 10`, and `(13 − 10)·2^{i−1} ≥ 2i + 1` for all
///   `i ≥ 1`).
#[must_use]
pub fn capacity(variant: ConstantVariant) -> usize {
    match variant {
        ConstantVariant::Level => 11,
        ConstantVariant::Index => 13,
    }
}

/// Builds the fragment string `A(F)` for one selection of phase `i`, whose
/// fragments are `rec`.
fn fragment_string(
    g: &WeightedGraph,
    rec: &PhaseRecord,
    variant: ConstantVariant,
    i: usize,
    frag: &lma_mst::FragmentRecord,
    sel: &lma_mst::Selection,
) -> Result<BitString, SchemeError> {
    let j = sel.bfs_position;
    if j > frag.size() || j > (1usize << i.min(60)) {
        return Err(SchemeError::Encoding(format!(
            "phase {i}: choosing-node position {j} does not fit in {i} bits"
        )));
    }
    let mut s = BitString::new();
    s.push(sel.up);
    match variant {
        ConstantVariant::Level => {
            // The level stored is the level of the fragment on the *other*
            // side of the selected edge (see DESIGN.md, deviation D2/G1):
            // fragments adjacent in the fragment tree have opposite parity.
            // The choosing node will take its first port, in `(weight,
            // port)` order, towards a fragment of that level; under
            // duplicate weights that can be another edge, so refuse then.
            let target = 1 - frag.level;
            let first = g
                .incident(sel.choosing_node)
                .iter()
                .filter(|ie| rec.fragment_containing(ie.neighbor).level == target)
                .min_by_key(|ie| (ie.weight, ie.port));
            if first.map(|ie| ie.edge) != Some(sel.edge) {
                return Err(SchemeError::Encoding(format!(
                    "phase {i}: the choosing node's first port towards a level-{target} \
                     fragment is not the selected edge"
                )));
            }
            s.push(target == 1);
            s.push_uint((j - 1) as u64, i);
        }
        ConstantVariant::Index => {
            let port = g.port_of_edge(sel.choosing_node, sel.edge);
            let rank = index::rank_of(g, sel.choosing_node, port);
            if rank > frag.size() || rank > (1usize << i.min(60)) {
                return Err(SchemeError::Encoding(format!(
                    "phase {i}: selected-edge rank {rank} exceeds the Lemma 2 bound for a \
                     fragment of size {}",
                    frag.size()
                )));
            }
            s.push_uint((j - 1) as u64, i);
            s.push_uint((rank - 1) as u64, i);
        }
    }
    Ok(s)
}

/// The length in bits of `A(F)` at phase `i` for the given variant — this is
/// what the decoder's fragment root expects to reassemble.
#[must_use]
pub fn fragment_string_len(variant: ConstantVariant, phase: usize) -> usize {
    match variant {
        ConstantVariant::Level => phase + 2,
        ConstantVariant::Index => 2 * phase + 1,
    }
}

/// Runs the oracle: packs `A(F)` for phases `1 ‥ phases` at `capacity` bits
/// per node, then appends every node's `final_width`-bit final segment.
/// Theorem 3 passes `(⌈log log n⌉, capacity(variant), 1)`.
pub fn encode(
    g: &WeightedGraph,
    run: &BoruvkaRun,
    variant: ConstantVariant,
    phases: usize,
    capacity: usize,
    final_width: usize,
) -> Result<Advice, SchemeError> {
    let n = g.node_count();
    let mut per_node = vec![BitString::new(); n];

    for i in 1..=phases {
        let rec = run.phase(i);
        for frag in &rec.fragments {
            let Some(sel) = &frag.selection else { continue };
            let a_f = fragment_string(g, rec, variant, i, frag, sel)?;
            debug_assert_eq!(a_f.len(), fragment_string_len(variant, i));
            let mut rest = a_f.as_slice();
            for &v in &frag.bfs_order {
                let take = capacity.saturating_sub(per_node[v].len()).min(rest.len());
                for &bit in &rest[..take] {
                    per_node[v].push(bit);
                }
                rest = &rest[take..];
                if rest.is_empty() {
                    break;
                }
            }
            if !rest.is_empty() {
                return Err(SchemeError::Encoding(format!(
                    "phase {i}: could not pack {} leftover bits of A(F) into a fragment of size \
                     {} with capacity {capacity}",
                    rest.len(),
                    frag.size()
                )));
            }
        }
    }

    let l = log_n(n);
    let b = final_width.max(1);
    let positions = l.div_ceil(b);
    for frag in &run.phase(phases + 1).fragments {
        let value: u64 = if frag.root == run.root {
            0
        } else {
            let port = run.tree.parent_port[frag.root]
                .expect("non-root fragment roots have a parent in the MST");
            index::rank_of(g, frag.root, port) as u64
        };
        if value >= (1u64 << l.min(63)) {
            return Err(SchemeError::Encoding(format!(
                "final phase: parent-edge rank {value} does not fit in {l} bits"
            )));
        }
        if frag.size() < positions && frag.root != run.root {
            return Err(SchemeError::Encoding(format!(
                "final phase: fragment of size {} cannot hold {l} bits at {b} bits per node",
                frag.size()
            )));
        }
        // BFS position `k` holds bits `k·B ‥ (k + 1)·B` of the value, most
        // significant first, and zeros past the value's `⌈log n⌉` bits.
        for (k, &v) in frag.bfs_order.iter().enumerate() {
            for q in k * b..(k + 1) * b {
                per_node[v].push(q < l && (value >> (l - 1 - q)) & 1 == 1);
            }
        }
    }
    Ok(Advice { per_node })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constant::schedule::log_log_n;
    use lma_graph::generators::{complete, connected_random, grid, path, ring, star};
    use lma_graph::weights::WeightStrategy;
    use lma_mst::boruvka::{run_boruvka, BoruvkaConfig};

    fn encode_for(g: &WeightedGraph, variant: ConstantVariant) -> Advice {
        let run = run_boruvka(g, &BoruvkaConfig::default()).unwrap();
        let k = log_log_n(g.node_count());
        encode(g, &run, variant, k, capacity(variant), 1).unwrap()
    }

    #[test]
    fn capacity_constants() {
        assert_eq!(capacity(ConstantVariant::Level), 11);
        assert_eq!(capacity(ConstantVariant::Index), 13);
        assert_eq!(fragment_string_len(ConstantVariant::Level, 3), 5);
        assert_eq!(fragment_string_len(ConstantVariant::Index, 3), 7);
    }

    #[test]
    fn max_advice_is_constant_for_both_variants() {
        for n in [16usize, 64, 256, 600] {
            let g = connected_random(n, 3 * n, 3, WeightStrategy::DistinctRandom { seed: 3 });
            for variant in [ConstantVariant::Index, ConstantVariant::Level] {
                let advice = encode_for(&g, variant);
                let stats = advice.stats();
                assert!(
                    stats.max_bits <= capacity(variant) + 1,
                    "n={n} variant={variant:?}: max {} exceeds {}",
                    stats.max_bits,
                    capacity(variant) + 1
                );
                // Every node carries at least the final bit.
                assert_eq!(stats.empty_nodes, 0);
            }
        }
    }

    #[test]
    fn max_advice_does_not_grow_with_n() {
        let small = encode_for(
            &connected_random(32, 100, 1, WeightStrategy::DistinctRandom { seed: 1 }),
            ConstantVariant::Index,
        )
        .stats()
        .max_bits;
        let large = encode_for(
            &connected_random(1024, 3000, 1, WeightStrategy::DistinctRandom { seed: 1 }),
            ConstantVariant::Index,
        )
        .stats()
        .max_bits;
        assert!(large <= capacity(ConstantVariant::Index) + 1);
        assert!(small <= capacity(ConstantVariant::Index) + 1);
    }

    #[test]
    fn every_family_encodes() {
        for g in [
            path(20, WeightStrategy::DistinctRandom { seed: 1 }),
            ring(21, WeightStrategy::DistinctRandom { seed: 2 }),
            star(22, WeightStrategy::DistinctRandom { seed: 3 }),
            grid(5, 5, WeightStrategy::DistinctRandom { seed: 4 }),
            complete(16, WeightStrategy::DistinctRandom { seed: 5 }),
        ] {
            for variant in [ConstantVariant::Index, ConstantVariant::Level] {
                let advice = encode_for(&g, variant);
                assert_eq!(advice.per_node.len(), g.node_count());
            }
        }
    }

    #[test]
    fn tiny_graphs_encode() {
        let g = path(2, WeightStrategy::Unit);
        let advice = encode_for(&g, ConstantVariant::Index);
        // With n = 2 there are no packing phases, only the final bit.
        assert!(advice.per_node.iter().all(|s| s.len() == 1));
    }
}

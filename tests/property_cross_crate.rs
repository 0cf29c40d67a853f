//! Property-based integration tests: random graphs, random seeds, invariant
//! checks across the whole pipeline (generator → oracle → simulator →
//! verifier).

use lma_advice::{evaluate_scheme, AdvisingScheme, ConstantScheme, OneRoundScheme, TrivialScheme};
use lma_graph::generators::connected_random;
use lma_graph::validate::check_instance;
use lma_graph::weights::WeightStrategy;
use lma_mst::boruvka::{run_boruvka, BoruvkaConfig, TieBreak};
use lma_mst::kruskal::{kruskal_mst, mst_weight};
use lma_mst::prim_mst;
use lma_mst::verify::verify_mst_edges;
use lma_sim::Sim;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The three sequential MST algorithms agree on the optimum weight for
    /// arbitrary connected random graphs, with or without duplicate weights.
    #[test]
    fn sequential_msts_agree(n in 4usize..40, extra in 0usize..60, seed in 0u64..1000, max_w in 1u64..50) {
        let g = connected_random(n, n - 1 + extra, seed, WeightStrategy::UniformRandom { seed, max: max_w });
        check_instance(&g).unwrap();
        let kruskal = kruskal_mst(&g).unwrap();
        let prim = prim_mst(&g).unwrap();
        prop_assert_eq!(g.weight_of(&kruskal), g.weight_of(&prim));
        let boruvka = run_boruvka(&g, &BoruvkaConfig { root: None, tie_break: TieBreak::CanonicalGlobal }).unwrap();
        prop_assert_eq!(g.weight_of(&boruvka.mst_edges), g.weight_of(&kruskal));
        verify_mst_edges(&g, &boruvka.mst_edges).unwrap();
    }

    /// Every advising scheme returns a verified minimum spanning tree within
    /// its claimed bounds on arbitrary distinct-weight random graphs.
    #[test]
    fn schemes_hold_their_claims(n in 4usize..60, extra in 0usize..80, seed in 0u64..500) {
        let g = connected_random(n, n - 1 + extra, seed, WeightStrategy::DistinctRandom { seed });
        let optimal = mst_weight(&g).unwrap();
        let schemes: Vec<Box<dyn AdvisingScheme>> = vec![
            Box::new(TrivialScheme::default()),
            Box::new(OneRoundScheme::default()),
            Box::new(ConstantScheme::default()),
        ];
        for scheme in &schemes {
            let eval = evaluate_scheme(scheme.as_ref(), &Sim::on(&g)).unwrap();
            prop_assert_eq!(g.weight_of(&eval.tree.edges), optimal);
            prop_assert!(eval.within_claims(scheme.as_ref(), g.node_count()));
        }
    }

    /// The Borůvka decomposition invariants (Lemma 1, Lemma 2, orientation
    /// and level consistency) hold on arbitrary distinct-weight graphs.
    #[test]
    fn boruvka_decomposition_invariants(n in 4usize..50, extra in 0usize..70, seed in 0u64..500) {
        let g = connected_random(n, n - 1 + extra, seed, WeightStrategy::DistinctRandom { seed });
        let run = run_boruvka(&g, &BoruvkaConfig::default()).unwrap();
        for phase in 1..=run.merge_phases() {
            let rec = run.phase(phase);
            for frag in &rec.fragments {
                // Lemma 1.
                prop_assert!(frag.size() >= (1usize << (phase - 1)).min(n));
                // BFS order covers the fragment and starts at its root.
                prop_assert_eq!(frag.bfs_order.len(), frag.size());
                prop_assert_eq!(frag.bfs_order[0], frag.root);
                if let Some(sel) = &frag.selection {
                    // Lemma 2, with the +1 slack of `DESIGN.md`, L2.
                    prop_assert!(sel.index.sum() <= frag.size() + 1);
                    prop_assert!(run.tree.contains_edge(sel.edge));
                    prop_assert_eq!(sel.up, run.tree.is_up_at(sel.choosing_node, sel.edge));
                }
            }
        }
    }

    /// The one-round scheme's average advice respects the analytic constant
    /// of Theorem 2 on arbitrary graphs.
    #[test]
    fn one_round_average_bound(n in 8usize..200, seed in 0u64..300) {
        let g = connected_random(n, 3 * n, seed, WeightStrategy::DistinctRandom { seed });
        let eval = evaluate_scheme(&OneRoundScheme::default(), &Sim::on(&g)).unwrap();
        prop_assert!(eval.advice.avg_bits <= OneRoundScheme::ANALYTIC_AVERAGE_BOUND);
        prop_assert_eq!(eval.run.rounds, 1);
    }

    /// The constant scheme's advice never exceeds its constant cap,
    /// regardless of n and topology.
    #[test]
    fn constant_scheme_cap(n in 4usize..150, seed in 0u64..300) {
        let g = connected_random(n, 2 * n, seed, WeightStrategy::DistinctRandom { seed });
        let scheme = ConstantScheme::default();
        let eval = evaluate_scheme(&scheme, &Sim::on(&g)).unwrap();
        prop_assert!(eval.advice.max_bits <= scheme.claimed_max_bits(n).unwrap());
    }
}

//! Cross-crate end-to-end tests: every advising scheme, on every graph
//! family, produces a verified rooted MST within its claimed (m, t) bounds.

use lma_advice::constant::schedule::log_log_n;
use lma_advice::{
    evaluate_scheme, AdvisingScheme, ConstantScheme, ConstantVariant, OneRoundScheme, SchemeError,
    TradeoffScheme, TrivialScheme,
};
use lma_graph::generators::Family;
use lma_graph::weights::WeightStrategy;
use lma_mst::boruvka::{BoruvkaConfig, TieBreak};
use lma_mst::kruskal::mst_weight;
use lma_sim::Sim;

fn all_schemes() -> Vec<Box<dyn AdvisingScheme>> {
    vec![
        Box::new(TrivialScheme::default()),
        Box::new(OneRoundScheme::default()),
        Box::new(ConstantScheme::default()),
        Box::new(ConstantScheme {
            variant: ConstantVariant::Level,
            ..ConstantScheme::default()
        }),
    ]
}

#[test]
fn every_scheme_solves_every_family() {
    for family in Family::ALL {
        for n in [16usize, 40] {
            let g = family.instantiate(n, WeightStrategy::DistinctRandom { seed: 1 }, 1);
            let optimal = mst_weight(&g).unwrap();
            for scheme in all_schemes() {
                let eval = evaluate_scheme(scheme.as_ref(), &Sim::on(&g)).unwrap_or_else(|e| {
                    panic!("{} failed on {} (n={n}): {e}", scheme.name(), family.name())
                });
                assert_eq!(
                    g.weight_of(&eval.tree.edges),
                    optimal,
                    "{} returned a non-minimum tree on {}",
                    scheme.name(),
                    family.name()
                );
                assert!(
                    eval.within_claims(scheme.as_ref(), g.node_count()),
                    "{} exceeded its claimed bounds on {}: advice {:?}, rounds {}",
                    scheme.name(),
                    family.name(),
                    eval.advice,
                    eval.run.rounds
                );
            }
        }
    }
}

#[test]
fn schemes_agree_on_the_same_rooted_tree_when_rooted_identically() {
    let g = Family::SparseRandom.instantiate(60, WeightStrategy::DistinctRandom { seed: 5 }, 5);
    let root = 7;
    let schemes: Vec<Box<dyn AdvisingScheme>> = vec![
        Box::new(TrivialScheme::rooted_at(root)),
        Box::new(OneRoundScheme::rooted_at(root)),
        Box::new(ConstantScheme::rooted_at(root)),
    ];
    let mut trees = Vec::new();
    for scheme in &schemes {
        let eval = evaluate_scheme(scheme.as_ref(), &Sim::on(&g)).unwrap();
        assert_eq!(eval.tree.root, root);
        let mut edges = eval.tree.edges.clone();
        edges.sort_unstable();
        trees.push(edges);
    }
    // Distinct weights => unique MST => all schemes must return the same tree.
    assert!(trees.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn all_results_are_deterministic_across_repeated_runs() {
    let g = Family::Grid.instantiate(49, WeightStrategy::DistinctRandom { seed: 3 }, 3);
    let scheme = ConstantScheme::default();
    let a = evaluate_scheme(&scheme, &Sim::on(&g)).unwrap();
    let b = evaluate_scheme(&scheme, &Sim::on(&g)).unwrap();
    assert_eq!(a.advice.max_bits, b.advice.max_bits);
    assert_eq!(a.advice.total_bits, b.advice.total_bits);
    assert_eq!(a.run.rounds, b.run.rounds);
    assert_eq!(a.tree.edges, b.tree.edges);
}

#[test]
fn advice_size_ordering_matches_the_paper() {
    // On dense graphs the trivial scheme's maximum advice grows with n
    // (it is ⌈log deg⌉ ≈ ⌈log n⌉ bits), while the constant scheme's maximum
    // stays pinned at its small constant; the round ordering is the inverse.
    let mut trivial_max = Vec::new();
    let mut constant_max = Vec::new();
    for n in [48usize, 192] {
        let g = Family::DenseRandom.instantiate(n, WeightStrategy::DistinctRandom { seed: 8 }, 8);
        let trivial = evaluate_scheme(&TrivialScheme::default(), &Sim::on(&g)).unwrap();
        let constant = evaluate_scheme(&ConstantScheme::default(), &Sim::on(&g)).unwrap();
        assert_eq!(trivial.run.rounds, 0);
        assert!(constant.run.rounds > 1);
        trivial_max.push(trivial.advice.max_bits);
        constant_max.push(constant.advice.max_bits);
    }
    assert!(
        trivial_max[1] > trivial_max[0],
        "trivial max must grow with n: {trivial_max:?}"
    );
    assert!(
        constant_max.iter().all(|&m| m <= 14),
        "constant max must stay constant: {constant_max:?}"
    );
    assert!(
        constant_max[1] <= constant_max[0] + 1,
        "constant max must not grow with n: {constant_max:?}"
    );
}

/// Under the canonical tie-break, duplicate weights can defeat a scheme's
/// compact encoding (Lemma 2's rank bound, or the level variant's port
/// rule).  A scheme may then refuse with a typed oracle or encoding error,
/// but it must never decode a wrong tree.
#[test]
fn duplicate_weights_give_a_verified_mst_or_a_typed_refusal() {
    let boruvka = BoruvkaConfig {
        root: None,
        tie_break: TieBreak::CanonicalGlobal,
    };
    for family in Family::ALL {
        for n in [5usize, 17, 33] {
            for seed in 1..=3u64 {
                for max in [2u64, 3] {
                    let g =
                        family.instantiate(n, WeightStrategy::UniformRandom { seed, max }, seed);
                    let mut schemes: Vec<Box<dyn AdvisingScheme>> = vec![
                        Box::new(TrivialScheme { boruvka }),
                        Box::new(OneRoundScheme { boruvka }),
                        Box::new(ConstantScheme {
                            variant: ConstantVariant::Index,
                            boruvka,
                        }),
                        Box::new(ConstantScheme {
                            variant: ConstantVariant::Level,
                            boruvka,
                        }),
                    ];
                    for cutoff in 0..=log_log_n(g.node_count()) {
                        schemes.push(Box::new(TradeoffScheme {
                            cutoff: Some(cutoff),
                            variant: ConstantVariant::Level,
                            boruvka,
                        }));
                    }
                    for scheme in &schemes {
                        match evaluate_scheme(scheme.as_ref(), &Sim::on(&g)) {
                            Ok(_) | Err(SchemeError::Oracle(_) | SchemeError::Encoding(_)) => {}
                            Err(e) => panic!(
                                "{} on {} (n={n}, seed {seed}, max {max}): {e}",
                                scheme.name(),
                                family.name()
                            ),
                        }
                    }
                }
            }
        }
    }
}

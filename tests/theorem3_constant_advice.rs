//! Integration tests for Theorem 3: constant maximum advice, O(log n)
//! rounds, for both decoder variants.

use lma_advice::constant::schedule::{log_log_n, Schedule};
use lma_advice::{evaluate_scheme, AdvisingScheme, ConstantScheme, ConstantVariant};
use lma_graph::generators::{connected_random, Family};
use lma_graph::weights::WeightStrategy;
use lma_sim::Sim;

#[test]
fn max_advice_is_a_constant_independent_of_n() {
    for variant in [ConstantVariant::Index, ConstantVariant::Level] {
        let scheme = ConstantScheme {
            variant,
            ..ConstantScheme::default()
        };
        let cap = scheme.claimed_max_bits(0).unwrap();
        let mut maxima = Vec::new();
        for n in [32usize, 128, 512, 2048] {
            let g = connected_random(n, 3 * n, 13, WeightStrategy::DistinctRandom { seed: 13 });
            let eval = evaluate_scheme(&scheme, &Sim::on(&g)).unwrap();
            assert!(eval.advice.max_bits <= cap, "variant {variant:?}, n={n}");
            maxima.push(eval.advice.max_bits);
        }
        // Strictly no growth across a 64x increase in n: the maximum is the
        // same number of bits at every size.
        assert!(
            maxima.iter().all(|&m| m == maxima[0]),
            "variant {variant:?}: max advice bits vary with n: {maxima:?}"
        );
        assert!(*maxima.last().unwrap() <= cap);
    }
}

#[test]
fn paper_literal_variant_reproduces_twelve_bits() {
    let scheme = ConstantScheme::paper_literal();
    for n in [64usize, 256, 1024] {
        let g = connected_random(n, 3 * n, 17, WeightStrategy::DistinctRandom { seed: 17 });
        let eval = evaluate_scheme(&scheme, &Sim::on(&g)).unwrap();
        assert!(
            eval.advice.max_bits <= 12,
            "n={n}: paper's Theorem 3 constant is 12 bits, measured {}",
            eval.advice.max_bits
        );
    }
}

#[test]
fn rounds_track_the_schedule_and_stay_within_the_papers_budget() {
    let scheme = ConstantScheme::default();
    for n in [32usize, 128, 512, 2048] {
        let g = connected_random(n, 3 * n, 19, WeightStrategy::DistinctRandom { seed: 19 });
        let eval = evaluate_scheme(&scheme, &Sim::on(&g)).unwrap();
        let claimed = scheme.claimed_rounds(n).unwrap();
        assert_eq!(eval.run.rounds, claimed, "the schedule is deterministic");
        assert!(
            eval.run.rounds <= Schedule::nine_log_n(n) + 3 * log_log_n(n) + 8,
            "n={n}: {} rounds",
            eval.run.rounds
        );
    }
}

#[test]
fn rounds_scale_logarithmically_in_n() {
    let scheme = ConstantScheme::default();
    let rounds: Vec<usize> = [64usize, 1024]
        .iter()
        .map(|&n| {
            let g = connected_random(n, 3 * n, 23, WeightStrategy::DistinctRandom { seed: 23 });
            evaluate_scheme(&scheme, &Sim::on(&g)).unwrap().run.rounds
        })
        .collect();
    // n grew by 16x; O(log n) rounds should grow by well under 3x.
    assert!(rounds[1] < 3 * rounds[0], "{rounds:?}");
}

#[test]
fn every_family_is_solved_by_both_variants() {
    for variant in [ConstantVariant::Index, ConstantVariant::Level] {
        let scheme = ConstantScheme {
            variant,
            ..ConstantScheme::default()
        };
        for family in Family::ALL {
            let g = family.instantiate(30, WeightStrategy::DistinctRandom { seed: 29 }, 29);
            let eval = evaluate_scheme(&scheme, &Sim::on(&g))
                .unwrap_or_else(|e| panic!("variant {variant:?} failed on {}: {e}", family.name()));
            assert!(eval.within_claims(&scheme, g.node_count()));
        }
    }
}

#[test]
fn index_variant_needs_no_idealization_and_level_variant_is_flagged() {
    // Documentation-level contract: the index variant is the default.
    assert_eq!(ConstantScheme::default().variant, ConstantVariant::Index);
    assert_eq!(
        ConstantScheme::paper_literal().variant,
        ConstantVariant::Level
    );
}

#[test]
fn advice_can_be_serialized_and_restored_bitwise() {
    // The advice strings are pure bit strings: round-tripping them through a
    // textual 0/1 encoding must not change the decoder's behaviour.
    let n = 96;
    let g = connected_random(n, 3 * n, 31, WeightStrategy::DistinctRandom { seed: 31 });
    let scheme = ConstantScheme::default();
    let advice = scheme.advise(&g).unwrap();
    let restored = lma_advice::Advice {
        per_node: advice
            .per_node
            .iter()
            .map(|s| lma_advice::BitString::from_bits(s.to_bit_string().chars().map(|c| c == '1')))
            .collect(),
    };
    assert_eq!(advice, restored);
    let outcome = scheme.decode(&Sim::on(&g), &restored).unwrap();
    lma_mst::verify::verify_upward_outputs(&g, &outcome.outputs).unwrap();
}

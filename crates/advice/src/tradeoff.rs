//! An advice-vs-time **tradeoff family** between the trivial scheme and
//! Theorem 3 — the paper's open problem, explored constructively.
//!
//! The paper closes with the question whether the tradeoff between the
//! *maximum* advice size and the computation time is real, i.e. whether an
//! (O(1), O(1))-advising scheme for MST exists.  This module does not answer
//! the question (nobody has), but it maps out the frontier achievable with
//! the paper's own machinery: it is the Theorem 3 pipeline of
//! [`crate::constant`] stopped after a parameterized number `P` of Borůvka
//! phases.
//!
//! * the oracle ([`encoder::encode`]) packs the fragment strings `A(F)` for
//!   phases `1 ‥ P` exactly as in Theorem 3 (at most `c` bits per node);
//! * instead of running the remaining phases, every fragment of phase
//!   `P + 1` spreads the `⌈log n⌉`-bit identity of its root's MST parent
//!   edge over its first `⌈log n / B⌉` BFS nodes at `B = ⌈log n / 2^P⌉`
//!   bits per node (Lemma 1 guarantees the fragment is large enough);
//! * the decoder replays phases `1 ‥ P` (Process `A`) and then collects the
//!   root's parent-edge identity in `⌈log n / B⌉` rounds, or in none when
//!   one node holds it all.
//!
//! [`ConstantScheme`](crate::ConstantScheme) is the point
//! `P = ⌈log log n⌉`, where `B = 1`.  The two agree in advice, schedule,
//! claims, rounds and tree on every `n ≥ 3`; at `n = 2` Theorem 3 keeps its
//! one-round final window (and claims `c + 1` bits) where the tradeoff
//! decodes in zero rounds and claims one bit.
//!
//! The resulting scheme is a genuine `(c + ⌈log n / 2^P⌉, O(2^P + log n /
//! 2^P))`-advising scheme for every cutoff `0 ≤ P ≤ ⌈log log n⌉`:
//!
//! | cutoff `P` | max advice | rounds | |
//! |---|---|---|---|
//! | `0` | `⌈log n⌉` | `0` | the trivial scheme of §1 |
//! | `⌈log log n⌉` | `c + 1` | `≤ 9⌈log n⌉` | Theorem 3 |
//! | in between | `≈ c + log n / 2^P` | `≈ 2^{P+2} + log n / 2^P` | the frontier |
//!
//! Experiment **E6** sweeps the cutoff and tabulates the measured frontier;
//! the product `max-advice × rounds` stays near `Θ(log n)` across the sweep,
//! which is the quantitative content of "the machinery of the paper does not
//! by itself yield an (O(1), O(1)) scheme".

use crate::constant::encoder;
use crate::constant::schedule::{log_log_n, log_n, Schedule};
use crate::constant::{self, ConstantVariant};
use crate::scheme::{evaluate_scheme, Advice, AdvisingScheme, DecodeOutcome, SchemeError};
use lma_graph::WeightedGraph;
use lma_mst::boruvka::{run_boruvka, BoruvkaConfig};
use lma_sim::Sim;

/// The budgeted advising scheme interpolating between the trivial scheme
/// (`cutoff = 0`) and Theorem 3 (`cutoff = ⌈log log n⌉`, the default).
#[derive(Debug, Clone, Default)]
pub struct TradeoffScheme {
    /// Number of Borůvka phases encoded in the packed prefix.  `None` means
    /// `⌈log log n⌉` (the Theorem 3 setting); larger values are clamped.
    pub cutoff: Option<usize>,
    /// Which Theorem 3 variant the packed prefix uses.
    pub variant: ConstantVariant,
    /// Configuration of the oracle's Borůvka run.
    pub boruvka: BoruvkaConfig,
}

impl TradeoffScheme {
    /// A scheme with an explicit phase cutoff `P`.
    #[must_use]
    pub fn with_cutoff(cutoff: usize) -> Self {
        Self {
            cutoff: Some(cutoff),
            ..Self::default()
        }
    }

    /// The cutoff actually used on an `n`-node graph (clamped to
    /// `⌈log log n⌉`).
    #[must_use]
    pub fn effective_cutoff(&self, n: usize) -> usize {
        let k = log_log_n(n);
        self.cutoff.map_or(k, |p| p.min(k))
    }

    /// Width `B` of the per-node final segment: `⌈log n / 2^P⌉` bits.
    #[must_use]
    pub fn final_width(&self, n: usize) -> usize {
        let l = log_n(n);
        let p = self.effective_cutoff(n);
        let frag = 1usize << p.min(60);
        l.div_ceil(frag).max(1)
    }

    /// Number of BFS positions the final collection reads per fragment
    /// (`⌈log n / B⌉`).
    #[must_use]
    pub fn final_positions(&self, n: usize) -> usize {
        log_n(n).div_ceil(self.final_width(n)).max(1)
    }

    /// The deterministic round schedule of the decoder: the final window
    /// reads one BFS position per round, and takes no round at all when one
    /// position holds the whole rank.
    #[must_use]
    pub fn schedule_for(&self, n: usize) -> Schedule {
        let positions = self.final_positions(n);
        let final_len = if positions <= 1 { 0 } else { positions };
        Schedule::new(n, self.variant, self.effective_cutoff(n), final_len)
    }
}

impl AdvisingScheme for TradeoffScheme {
    fn name(&self) -> &'static str {
        "tradeoff-budgeted-advice"
    }

    fn claimed_max_bits(&self, n: usize) -> Option<usize> {
        let prefix = if self.effective_cutoff(n) == 0 {
            0
        } else {
            encoder::capacity(self.variant)
        };
        Some(prefix + self.final_width(n))
    }

    fn claimed_rounds(&self, n: usize) -> Option<usize> {
        Some(self.schedule_for(n).total_rounds())
    }

    fn advise(&self, g: &WeightedGraph) -> Result<Advice, SchemeError> {
        let run = run_boruvka(g, &self.boruvka)?;
        let n = g.node_count();
        let c = encoder::capacity(self.variant);
        encoder::encode(
            g,
            &run,
            self.variant,
            self.effective_cutoff(n),
            c,
            self.final_width(n),
        )
    }

    fn decode(&self, sim: &Sim<'_>, advice: &Advice) -> Result<DecodeOutcome, SchemeError> {
        let n = sim.graph().node_count();
        let schedule = self.schedule_for(n);
        let width = self.final_width(n);
        constant::decode(sim, advice, self.variant, &self.boruvka, &schedule, width)
    }
}

/// One point of the measured advice-vs-time frontier.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierPoint {
    /// The phase cutoff `P` of this point.
    pub cutoff: usize,
    /// Measured maximum advice size, in bits.
    pub max_bits: usize,
    /// Measured average advice size, in bits per node.
    pub avg_bits: f64,
    /// Measured decoding rounds.
    pub rounds: usize,
    /// The scheme's claimed maximum advice for this `n`.
    pub claimed_max_bits: usize,
    /// The scheme's claimed round bound for this `n`.
    pub claimed_rounds: usize,
}

impl FrontierPoint {
    /// The advice × time product (with rounds counted as at least 1 so the
    /// zero-round end of the frontier stays comparable).
    #[must_use]
    pub fn product(&self) -> usize {
        self.max_bits * self.rounds.max(1)
    }
}

/// Evaluates the tradeoff scheme for every cutoff `0 ‥ ⌈log log n⌉` on one
/// graph and returns the measured frontier (experiment E6).
pub fn frontier(sim: &Sim<'_>) -> Result<Vec<FrontierPoint>, SchemeError> {
    let n = sim.graph().node_count();
    let k = log_log_n(n);
    let mut points = Vec::with_capacity(k + 1);
    for p in 0..=k {
        let scheme = TradeoffScheme::with_cutoff(p);
        let eval = evaluate_scheme(&scheme, sim)?;
        points.push(FrontierPoint {
            cutoff: p,
            max_bits: eval.advice.max_bits,
            avg_bits: eval.advice.avg_bits,
            rounds: eval.run.rounds,
            claimed_max_bits: scheme.claimed_max_bits(n).unwrap_or(0),
            claimed_rounds: scheme.claimed_rounds(n).unwrap_or(0),
        });
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constant::ConstantScheme;
    use crate::trivial::TrivialScheme;
    use lma_graph::generators::{complete, connected_random, grid, path, ring, torus, Family};
    use lma_graph::weights::WeightStrategy;

    fn eval(scheme: &TradeoffScheme, g: &WeightedGraph) -> crate::scheme::SchemeEvaluation {
        let eval = evaluate_scheme(scheme, &Sim::on(g))
            .unwrap_or_else(|e| panic!("cutoff {:?} failed: {e}", scheme.cutoff));
        assert!(
            eval.within_claims(scheme, g.node_count()),
            "claims violated at cutoff {:?}: advice {:?} (claimed {:?}), rounds {} (claimed {:?})",
            scheme.cutoff,
            eval.advice,
            scheme.claimed_max_bits(g.node_count()),
            eval.run.rounds,
            scheme.claimed_rounds(g.node_count())
        );
        eval
    }

    #[test]
    fn every_cutoff_computes_a_correct_mst_on_random_graphs() {
        for n in [16usize, 64, 200] {
            let g = connected_random(n, 3 * n, 5, WeightStrategy::DistinctRandom { seed: 5 });
            for p in 0..=log_log_n(n) {
                let scheme = TradeoffScheme::with_cutoff(p);
                let e = eval(&scheme, &g);
                assert_eq!(e.tree.edges.len(), n - 1);
            }
        }
    }

    #[test]
    fn every_cutoff_works_on_structured_families() {
        let graphs = vec![
            path(33, WeightStrategy::DistinctRandom { seed: 1 }),
            ring(40, WeightStrategy::DistinctRandom { seed: 2 }),
            grid(6, 6, WeightStrategy::DistinctRandom { seed: 3 }),
            torus(5, 5, WeightStrategy::DistinctRandom { seed: 4 }),
            complete(24, WeightStrategy::DistinctRandom { seed: 5 }),
            connected_random(
                48,
                120,
                6,
                WeightStrategy::UniformRandom { seed: 6, max: 7 },
            ),
        ];
        for g in &graphs {
            for p in 0..=log_log_n(g.node_count()) {
                eval(&TradeoffScheme::with_cutoff(p), g);
            }
        }
    }

    #[test]
    fn cutoff_zero_matches_the_trivial_scheme() {
        let g = connected_random(96, 260, 7, WeightStrategy::DistinctRandom { seed: 7 });
        let zero = eval(&TradeoffScheme::with_cutoff(0), &g);
        let trivial = evaluate_scheme(&TrivialScheme::default(), &Sim::on(&g)).unwrap();
        assert_eq!(zero.run.rounds, 0, "cutoff 0 must decode in zero rounds");
        assert_eq!(trivial.run.rounds, 0);
        // Both use ⌈log n⌉-ish bits at the most loaded node.
        assert_eq!(zero.advice.max_bits, log_n(g.node_count()));
        // And they decode the same MST (it is unique under distinct weights).
        assert_eq!(zero.tree.edges, trivial.tree.edges);
    }

    #[test]
    fn full_cutoff_matches_theorem_three() {
        let mut graphs = vec![connected_random(
            128,
            380,
            8,
            WeightStrategy::DistinctRandom { seed: 8 },
        )];
        for family in Family::ALL {
            for n in [3usize, 5, 17, 64, 129] {
                graphs.push(family.instantiate(n, WeightStrategy::DistinctRandom { seed: 8 }, 8));
            }
        }
        // The hypercube at n = 3 has two nodes, the one case that differs
        // (pinned below).
        graphs.retain(|g| g.node_count() > 2);
        let schemes = |variant| {
            let full = TradeoffScheme {
                variant,
                ..TradeoffScheme::default()
            };
            let t3 = ConstantScheme {
                variant,
                ..ConstantScheme::default()
            };
            (full, t3)
        };
        for g in &graphs {
            let n = g.node_count();
            for variant in [ConstantVariant::Index, ConstantVariant::Level] {
                let (full_scheme, t3_scheme) = schemes(variant);
                let case = format!("n={n} {variant:?}");
                assert_eq!(full_scheme.advise(g), t3_scheme.advise(g), "{case}");
                assert_eq!(
                    full_scheme.schedule_for(n),
                    t3_scheme.schedule_for(n),
                    "{case}"
                );
                assert_eq!(
                    (
                        full_scheme.claimed_max_bits(n),
                        full_scheme.claimed_rounds(n)
                    ),
                    (t3_scheme.claimed_max_bits(n), t3_scheme.claimed_rounds(n)),
                    "{case}"
                );
                let full = eval(&full_scheme, g);
                let t3 = evaluate_scheme(&t3_scheme, &Sim::on(g)).unwrap();
                assert_eq!(full.advice.max_bits, t3.advice.max_bits);
                assert_eq!(full.run.rounds, t3.run.rounds);
                assert_eq!(full.tree.edges, t3.tree.edges);
                assert_eq!(full.tree, t3.tree, "{case}");
                assert!(full.advice.max_bits <= encoder::capacity(ConstantVariant::Index) + 1);
                assert!(full.run.rounds <= Schedule::nine_log_n(n));
            }
        }
        // The one corner where the two differ: at n = 2 there is no packed
        // phase, and Theorem 3 keeps its one-round final window (claiming
        // c + 1 bits) while the tradeoff decodes in zero rounds (claiming
        // one bit).  The advice is the same.
        let g = path(2, WeightStrategy::DistinctRandom { seed: 8 });
        for variant in [ConstantVariant::Index, ConstantVariant::Level] {
            let (full_scheme, t3_scheme) = schemes(variant);
            assert_eq!(full_scheme.advise(&g), t3_scheme.advise(&g));
            let full = eval(&full_scheme, &g);
            let t3 = evaluate_scheme(&t3_scheme, &Sim::on(&g)).unwrap();
            assert_eq!(full.tree, t3.tree);
            let c = encoder::capacity(variant);
            assert_eq!(
                (
                    t3.run.rounds,
                    t3_scheme.claimed_rounds(2),
                    t3_scheme.claimed_max_bits(2)
                ),
                (1, Some(1), Some(c + 1))
            );
            assert_eq!(
                (
                    full.run.rounds,
                    full_scheme.claimed_rounds(2),
                    full_scheme.claimed_max_bits(2)
                ),
                (0, Some(0), Some(1))
            );
        }
    }

    #[test]
    fn the_frontier_trades_rounds_for_final_segment_width() {
        let g = connected_random(256, 700, 9, WeightStrategy::DistinctRandom { seed: 9 });
        let n = g.node_count();
        let points = frontier(&Sim::on(&g)).unwrap();
        assert_eq!(points.len(), log_log_n(256) + 1);
        for w in points.windows(2) {
            // Rounds grow with the cutoff (each added phase adds its window).
            assert!(
                w[1].rounds >= w[0].rounds,
                "rounds must not shrink with the cutoff: {points:?}"
            );
            // The per-node final segment shrinks with the cutoff.
            let width_lo = TradeoffScheme::with_cutoff(w[0].cutoff).final_width(n);
            let width_hi = TradeoffScheme::with_cutoff(w[1].cutoff).final_width(n);
            assert!(
                width_hi <= width_lo,
                "final width must not grow with the cutoff"
            );
        }
        // Every point respects its own claims, and the advice × time product
        // stays O(log n) across the whole frontier (the quantitative reading
        // of "this machinery alone does not give an (O(1), O(1)) scheme").
        let l = log_n(n);
        for p in &points {
            assert!(p.max_bits <= p.claimed_max_bits, "{p:?}");
            assert!(p.rounds <= p.claimed_rounds, "{p:?}");
            assert!(p.product() <= 100 * l, "product blow-up at {p:?}");
        }
        // The two ends of the frontier are the trivial scheme and Theorem 3.
        assert_eq!(points.first().unwrap().rounds, 0);
        assert_eq!(points.first().unwrap().max_bits, l);
        assert!(points.last().unwrap().max_bits <= encoder::capacity(ConstantVariant::Index) + 1);
    }

    #[test]
    fn level_variant_also_supports_cutoffs() {
        let g = grid(7, 7, WeightStrategy::DistinctRandom { seed: 10 });
        for p in 0..=log_log_n(g.node_count()) {
            let scheme = TradeoffScheme {
                cutoff: Some(p),
                variant: ConstantVariant::Level,
                ..TradeoffScheme::default()
            };
            eval(&scheme, &g);
        }
    }

    #[test]
    fn tiny_graphs_are_handled() {
        for n in [2usize, 3, 4] {
            let g = path(n, WeightStrategy::ByEdgeId);
            for p in [0usize, 1, 5] {
                let scheme = TradeoffScheme::with_cutoff(p);
                let e = evaluate_scheme(&scheme, &Sim::on(&g)).unwrap();
                assert_eq!(e.tree.edges.len(), n - 1);
            }
        }
    }

    #[test]
    fn claimed_bounds_shrink_as_expected() {
        let scheme_mid = TradeoffScheme::with_cutoff(2);
        let scheme_full = TradeoffScheme::default();
        let n = 4096;
        assert!(scheme_mid.claimed_max_bits(n).unwrap() > scheme_full.claimed_max_bits(n).unwrap());
        assert!(scheme_mid.claimed_rounds(n).unwrap() < scheme_full.claimed_rounds(n).unwrap());
        assert_eq!(TradeoffScheme::with_cutoff(0).claimed_rounds(n).unwrap(), 0);
    }
}

//! An advice-vs-time **tradeoff family** between the trivial scheme and
//! Theorem 3 — the paper's open problem, explored constructively.
//!
//! The paper closes with the question whether the tradeoff between the
//! *maximum* advice size and the computation time is real, i.e. whether an
//! (O(1), O(1))-advising scheme for MST exists.  This module does not answer
//! the question (nobody has), but it maps out the frontier achievable with
//! the paper's own machinery, by truncating the Theorem 3 construction after
//! a parameterized number of Borůvka phases:
//!
//! * the oracle packs the fragment strings `A(F)` for phases `1 ‥ P` exactly
//!   as in Theorem 3 (at most `c` bits per node);
//! * instead of running the remaining phases, every fragment of phase
//!   `P + 1` spreads the `⌈log n⌉`-bit identity of its root's MST parent
//!   edge over its first `⌈log n / B⌉` BFS nodes at `B = ⌈log n / 2^P⌉`
//!   bits per node (Lemma 1 guarantees the fragment is large enough);
//! * the decoder replays phases `1 ‥ P` (Process `A`) and then collects the
//!   root's parent-edge identity in `⌈log n / B⌉` rounds.
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

use crate::bits::BitString;
use crate::constant::decoder::ConstantDecoder;
use crate::constant::encoder::{self, fragment_string, fragment_string_len};
use crate::constant::schedule::{log_log_n, log_n, Schedule};
use crate::constant::ConstantVariant;
use crate::scheme::{evaluate_scheme, Advice, AdvisingScheme, DecodeOutcome, SchemeError};
use lma_graph::{index, WeightedGraph};
use lma_mst::boruvka::{run_boruvka, BoruvkaConfig};
use lma_mst::decomposition::BoruvkaRun;
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

    /// The deterministic round schedule of the decoder.
    #[must_use]
    pub fn schedule_for(&self, n: usize) -> Schedule {
        let positions = self.final_positions(n);
        let final_len = if positions <= 1 { 0 } else { positions };
        Schedule::custom(
            n,
            self.effective_cutoff(n),
            final_len,
            match self.variant {
                ConstantVariant::Index => crate::constant::schedule::ScheduleVariant::Index,
                ConstantVariant::Level => crate::constant::schedule::ScheduleVariant::Level,
            },
        )
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
        encode_tradeoff(
            g,
            &run,
            self.variant,
            self.effective_cutoff(g.node_count()),
            encoder::capacity(self.variant),
            self.final_width(g.node_count()),
        )
    }

    fn decode(&self, sim: &Sim<'_>, advice: &Advice) -> Result<DecodeOutcome, SchemeError> {
        let g = sim.graph();
        let n = g.node_count();
        let schedule = self.schedule_for(n);
        let p = self.effective_cutoff(n);
        let width = self.final_width(n);
        let levels: Vec<Vec<u8>> = match self.variant {
            ConstantVariant::Index => Vec::new(),
            ConstantVariant::Level => {
                let run = run_boruvka(g, &self.boruvka)?;
                (0..n)
                    .map(|u| {
                        (1..=p)
                            .map(|i| run.phase(i).fragment_containing(u).level)
                            .collect()
                    })
                    .collect()
            }
        };
        let empty = BitString::new();
        let programs: Vec<ConstantDecoder> = g
            .nodes()
            .map(|u| {
                ConstantDecoder::with_final_width(
                    self.variant,
                    &schedule,
                    advice.per_node.get(u).unwrap_or(&empty),
                    levels.get(u).map_or(&[], Vec::as_slice),
                    width,
                )
            })
            .collect();
        let result = sim.run(programs)?;
        Ok(DecodeOutcome {
            outputs: result.outputs,
            stats: result.stats,
        })
    }
}

/// The tradeoff oracle: Theorem 3 packing for phases `1 ‥ cutoff`, then a
/// `final_width`-bit final segment per node spelling out each remaining
/// fragment root's parent edge.
pub fn encode_tradeoff(
    g: &WeightedGraph,
    run: &BoruvkaRun,
    variant: ConstantVariant,
    cutoff: usize,
    capacity: usize,
    final_width: usize,
) -> Result<Advice, SchemeError> {
    let n = g.node_count();
    let l = log_n(n);
    let b = final_width.max(1);
    let positions = l.div_ceil(b);

    let mut phase_advice = vec![BitString::new(); n];

    // Packed prefix: identical to the Theorem 3 oracle, stopped at `cutoff`.
    for i in 1..=cutoff {
        let rec = run.phase(i);
        for frag in &rec.fragments {
            let Some(sel) = &frag.selection else { continue };
            let a_f = fragment_string(g, variant, i, frag, sel)?;
            debug_assert_eq!(a_f.len(), fragment_string_len(variant, i));
            let mut remaining: Vec<bool> = a_f.iter().collect();
            remaining.reverse();
            for &v in &frag.bfs_order {
                while phase_advice[v].len() < capacity {
                    match remaining.pop() {
                        Some(bit) => phase_advice[v].push(bit),
                        None => break,
                    }
                }
                if remaining.is_empty() {
                    break;
                }
            }
            if !remaining.is_empty() {
                return Err(SchemeError::Encoding(format!(
                    "phase {i}: could not pack {} leftover bits of A(F) into a fragment of size \
                     {} with capacity {capacity}",
                    remaining.len(),
                    frag.size()
                )));
            }
        }
    }

    // Final segment: `b` bits per node; the first `positions` BFS nodes of
    // every phase-(cutoff + 1) fragment jointly spell the ⌈log n⌉-bit rank
    // of the fragment root's parent edge (0 = "I am the MST root").
    let mut final_segment: Vec<BitString> = (0..n)
        .map(|_| {
            let mut s = BitString::new();
            s.push_uint(0, b);
            s
        })
        .collect();
    let rec = run.phase(cutoff + 1);
    for frag in &rec.fragments {
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
        let mut bits = BitString::new();
        bits.push_uint(value, l);
        for (pos, &node) in frag.bfs_order.iter().take(positions).enumerate() {
            let mut segment = BitString::new();
            for k in 0..b {
                segment.push(bits.get(pos * b + k).unwrap_or(false));
            }
            final_segment[node] = segment;
        }
    }

    let per_node = (0..n)
        .map(|u| {
            let mut s = phase_advice[u].clone();
            s.extend(&final_segment[u]);
            s
        })
        .collect();
    Ok(Advice { per_node })
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
    use lma_graph::generators::{complete, connected_random, grid, path, ring, torus};
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
        let g = connected_random(128, 380, 8, WeightStrategy::DistinctRandom { seed: 8 });
        let n = g.node_count();
        let full = eval(&TradeoffScheme::default(), &g);
        let t3 = evaluate_scheme(&ConstantScheme::default(), &Sim::on(&g)).unwrap();
        assert_eq!(full.advice.max_bits, t3.advice.max_bits);
        assert_eq!(full.run.rounds, t3.run.rounds);
        assert_eq!(full.tree.edges, t3.tree.edges);
        assert!(full.advice.max_bits <= encoder::capacity(ConstantVariant::Index) + 1);
        assert!(full.run.rounds <= Schedule::nine_log_n(n) + 3 * log_log_n(n) + 8);
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

//! The trivial (⌈log n⌉, 0)-advising scheme (paper, §1).
//!
//! > *"The straightforward (⌈log n⌉, 0)-advising scheme (O, A) selects any
//! > MST `T`, and selects one node `r` as the root of `T`.  `O` gives to
//! > every node `u ≠ r` the bit-string corresponding to the binary
//! > representation of the rank `r_u(e) ∈ {1, …, deg(u)}` of `index_u(e)`
//! > among all the indexes of the edges incident to `u`, where `e` is the
//! > edge incident to `u` that leads to the parent of `u` in `T`.  Then `A`
//! > computes at each node `u` the port number of the edge having rank
//! > `r_u(e)`."*
//!
//! The decoder is a **zero-round** algorithm: every node resolves its rank to
//! a port using only its local `(weight, port)` table.  The root is the one
//! node with empty advice.
//!
//! Theorem 1 shows this scheme is optimal (even on average) among zero-round
//! schemes.

use crate::bits::BitString;
use crate::scheme::{Advice, AdvisingScheme, DecodeOutcome, SchemeError};
use lma_graph::graph::ceil_log2;
use lma_graph::Port;
use lma_graph::{index, WeightedGraph};
use lma_mst::boruvka::{run_boruvka, BoruvkaConfig};
use lma_mst::verify::UpwardOutput;
use lma_sim::{LocalView, NodeAlgorithm, Outbox, Sim};

/// The trivial (⌈log n⌉, 0)-advising scheme.
#[derive(Debug, Clone, Default)]
pub struct TrivialScheme {
    /// Configuration of the oracle's Borůvka run (root choice, tie-breaking).
    pub boruvka: BoruvkaConfig,
}

impl TrivialScheme {
    /// A scheme whose oracle roots the MST at the given node.
    #[must_use]
    pub fn rooted_at(root: usize) -> Self {
        Self {
            boruvka: BoruvkaConfig {
                root: Some(root),
                ..BoruvkaConfig::default()
            },
        }
    }
}

impl AdvisingScheme for TrivialScheme {
    fn name(&self) -> &'static str {
        "trivial-log-n-zero-rounds"
    }

    fn claimed_max_bits(&self, n: usize) -> Option<usize> {
        Some(ceil_log2(n.max(2)) as usize)
    }

    fn claimed_rounds(&self, _n: usize) -> Option<usize> {
        Some(0)
    }

    fn advise(&self, g: &WeightedGraph) -> Result<Advice, SchemeError> {
        let run = run_boruvka(g, &self.boruvka)?;
        let mut per_node = vec![BitString::new(); g.node_count()];
        for u in g.nodes() {
            let Some(port) = run.tree.parent_port[u] else {
                continue; // the root keeps an empty advice string
            };
            let rank = index::rank_of(g, u, port);
            debug_assert!((1..=g.degree(u)).contains(&rank));
            let width = index::rank_bits(g.degree(u)) as usize;
            per_node[u].push_uint((rank - 1) as u64, width);
        }
        Ok(Advice { per_node })
    }

    fn decode(&self, sim: &Sim<'_>, advice: &Advice) -> Result<DecodeOutcome, SchemeError> {
        let g = sim.graph();
        let programs: Vec<TrivialDecoder> = g
            .nodes()
            .map(|u| TrivialDecoder {
                advice: advice.per_node[u].clone(),
                output: None,
            })
            .collect();
        let result = sim.run(programs)?;
        Ok(DecodeOutcome {
            outputs: result.outputs,
            stats: result.stats,
        })
    }
}

/// The zero-round node program: resolve the advised rank locally.
struct TrivialDecoder {
    advice: BitString,
    output: Option<UpwardOutput>,
}

impl TrivialDecoder {
    fn resolve(&self, view: &LocalView) -> UpwardOutput {
        if self.advice.is_empty() {
            return UpwardOutput::Root;
        }
        let width = index::rank_bits(view.degree()) as usize;
        let rank = self
            .advice
            .reader()
            .read_uint(width)
            .map_or(0, |v| v as usize + 1);
        // Resolve the rank in the local (weight, port) order.
        let ports = view.ports_by_weight();
        match ports.get(rank.saturating_sub(1)) {
            Some(&p) => UpwardOutput::Parent(p),
            None => UpwardOutput::Root, // malformed advice; verification will flag it
        }
    }
}

impl NodeAlgorithm for TrivialDecoder {
    type Msg = ();
    type Output = UpwardOutput;

    fn init(&mut self, view: &LocalView) -> Outbox<()> {
        self.output = Some(self.resolve(view));
        Vec::new()
    }

    fn round(&mut self, _: &LocalView, _: usize, _: &[(Port, ())]) -> Outbox<()> {
        Vec::new()
    }

    fn is_done(&self) -> bool {
        self.output.is_some()
    }

    fn output(&self) -> Option<UpwardOutput> {
        self.output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::evaluate_scheme;
    use lma_graph::generators::{complete, connected_random, grid, path, ring, star};
    use lma_graph::weights::WeightStrategy;

    fn eval(g: &WeightedGraph) -> crate::scheme::SchemeEvaluation {
        let scheme = TrivialScheme::default();
        let eval = evaluate_scheme(&scheme, &Sim::on(g)).unwrap();
        assert!(eval.within_claims(&scheme, g.node_count()));
        eval
    }

    #[test]
    fn zero_rounds_on_every_family() {
        for g in [
            path(9, WeightStrategy::DistinctRandom { seed: 1 }),
            ring(12, WeightStrategy::DistinctRandom { seed: 2 }),
            star(15, WeightStrategy::DistinctRandom { seed: 3 }),
            grid(4, 5, WeightStrategy::DistinctRandom { seed: 4 }),
            complete(11, WeightStrategy::DistinctRandom { seed: 5 }),
        ] {
            let e = eval(&g);
            assert_eq!(e.run.rounds, 0);
            assert_eq!(e.run.total_messages, 0);
        }
    }

    #[test]
    fn max_advice_is_at_most_ceil_log_n() {
        for n in [8usize, 16, 33, 64, 100] {
            let g = connected_random(n, 3 * n, 7, WeightStrategy::DistinctRandom { seed: 7 });
            let e = eval(&g);
            assert!(e.advice.max_bits <= ceil_log2(n) as usize);
            // The root has empty advice, everyone else at least one bit.
            assert_eq!(e.advice.empty_nodes, 1);
        }
    }

    #[test]
    fn respects_requested_root() {
        let g = grid(4, 4, WeightStrategy::DistinctRandom { seed: 9 });
        let scheme = TrivialScheme::rooted_at(7);
        let e = evaluate_scheme(&scheme, &Sim::on(&g)).unwrap();
        assert_eq!(e.tree.root, 7);
    }

    #[test]
    fn works_with_duplicate_weights() {
        let g = connected_random(24, 60, 3, WeightStrategy::UniformRandom { seed: 3, max: 6 });
        // The trivial scheme only needs *an* MST from the oracle; the paper
        // tie-break may fail on adversarial duplicates, so fall back to the
        // canonical rule for this test graph.
        let scheme = TrivialScheme {
            boruvka: BoruvkaConfig {
                root: None,
                tie_break: lma_mst::boruvka::TieBreak::CanonicalGlobal,
            },
        };
        let e = evaluate_scheme(&scheme, &Sim::on(&g)).unwrap();
        assert_eq!(e.run.rounds, 0);
    }

    #[test]
    fn batched_decode_matches_solo_evaluations() {
        use crate::scheme::SchemeWorkload;
        use lma_sim::driver::{run_workload, Workload};

        // `execute_batch` is a loop of solo decodes: one evaluation per
        // advice assignment, each equal to the solo pipeline's.
        let g = grid(4, 5, WeightStrategy::DistinctRandom { seed: 12 });
        let workload = SchemeWorkload::new("trivial", TrivialScheme::default());
        let sim = Workload::tune(&workload, Sim::on(&g));
        let solo = run_workload(&workload, &sim).unwrap();
        let advice = Workload::prepare(&workload, &g).unwrap();
        let outcomes = workload.execute_batch(&sim.batch(3), vec![advice; 3]);
        assert_eq!(outcomes.len(), 3);
        for outcome in outcomes {
            let outcome = outcome.unwrap();
            assert_eq!(outcome.tree.edges, solo.tree.edges);
            assert_eq!(outcome.tree.parent_port, solo.tree.parent_port);
            assert_eq!(outcome.run, solo.run);
            assert_eq!(outcome.advice.max_bits, solo.advice.max_bits);
        }
    }

    #[test]
    fn tampered_advice_is_rejected_by_verification() {
        let g = ring(8, WeightStrategy::DistinctRandom { seed: 5 });
        let scheme = TrivialScheme::default();
        let mut advice = scheme.advise(&g).unwrap();
        // Clear a non-root node's advice: it will wrongly claim to be a root.
        let victim = (0..8).find(|&u| !advice.per_node[u].is_empty()).unwrap();
        advice.per_node[victim] = BitString::new();
        let outcome = scheme.decode(&Sim::on(&g), &advice).unwrap();
        assert!(lma_mst::verify::verify_upward_outputs(&g, &outcome.outputs).is_err());
    }
}

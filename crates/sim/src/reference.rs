//! The original push-based round executor, kept as a differential oracle.
//!
//! This is the seed implementation of the round loop, verbatim in behavior:
//! it allocates a fresh `Vec` of inboxes every round, deduplicates ports
//! with a per-node `HashSet`, **clones** every message on delivery, sorts
//! each inbox by receiving port, and re-scans all programs for doneness at
//! every round.  It exists for two reasons:
//!
//! 1. the `runtime_equivalence` integration suite runs it side by side with
//!    the plane engines ([`crate::Sim::run`]) and asserts identical outputs,
//!    [`crate::RunStats`] and traces, and
//! 2. `bench_substrate` measures the pull-based message plane against it,
//!    so the routing speedup stays visible in the bench trajectory.
//!
//! Do not use it for experiments; it is deliberately the slow path.
//!
//! The oracle is *backend-free*: it ignores `RunConfig::backing` (messages
//! never touch a plane — they are cloned straight into per-round inbox
//! vectors), and it drives programs through the vector-returning
//! `NodeAlgorithm::init` / `round` rather than the sink-based `*_into`
//! forms.  That asymmetry is deliberate: comparing it against the plane
//! executors therefore also pins that a program's two emission forms agree,
//! and that the `Wire` codec round-trips every message (the arena-backed
//! plane executor decodes what it delivers).

use crate::algorithm::NodeAlgorithm;
use crate::message::BitSized;
use crate::runtime::{RunConfig, RunError, RunResult};
use crate::trace::TraceEvent;
use lma_graph::{Port, WeightedGraph};

/// Runs `programs` with the seed's push-based routing loop.
///
/// Semantics match [`crate::Sim::run`] exactly; only the mechanics (and the
/// allocation profile) differ.
///
/// # Panics
/// Panics if `programs.len() != graph.node_count()`.
pub fn run_push<A: NodeAlgorithm>(
    graph: &WeightedGraph,
    config: RunConfig,
    mut programs: Vec<A>,
) -> Result<RunResult<A::Output>, RunError> {
    assert_eq!(
        programs.len(),
        graph.node_count(),
        "one program per node is required"
    );
    let views = crate::algorithm::local_views(graph);
    let budget = config.model.budget();
    let mut events: Vec<TraceEvent> = Vec::new();

    // Initialization: round-0 local computation producing round-1 traffic.
    let mut outboxes: Vec<Vec<(Port, A::Msg)>> = programs
        .iter_mut()
        .zip(views.iter())
        .map(|(p, view)| p.init(view))
        .collect();

    let mut stats = crate::RunStats::default();
    let mut round = 0usize;

    while !programs.iter().all(NodeAlgorithm::is_done) {
        if round >= config.max_rounds {
            return Err(RunError::RoundLimitExceeded {
                limit: config.max_rounds,
            });
        }
        round += 1;

        // Validate outboxes and route messages into freshly allocated
        // inboxes (the per-round allocations are the whole point).
        let mut inboxes: Vec<Vec<(Port, A::Msg)>> = vec![Vec::new(); graph.node_count()];
        let mut messages = 0u64;
        let mut bits = 0u64;
        let mut max_bits = 0usize;
        let mut violations = 0u64;
        for (u, outbox) in outboxes.iter().enumerate() {
            let mut used_ports = std::collections::BTreeSet::new();
            for (port, msg) in outbox {
                if *port >= graph.degree(u) || !used_ports.insert(*port) {
                    return Err(RunError::MalformedOutbox {
                        node: u,
                        port: *port,
                    });
                }
                let size = msg.bit_size();
                messages += 1;
                bits += size as u64;
                max_bits = max_bits.max(size);
                if let Some(b) = budget {
                    if size > b {
                        if config.enforce_congest {
                            return Err(RunError::CongestViolation {
                                round,
                                bits: size,
                                budget: b,
                            });
                        }
                        violations += 1;
                    }
                }
                let edge = graph.edge(graph.edge_via(u, *port));
                let v = edge.other(u);
                let port_at_v = edge.port_at(v);
                if config.trace {
                    events.push(TraceEvent {
                        round,
                        from: u,
                        to: v,
                        bits: size,
                    });
                }
                inboxes[v].push((port_at_v, msg.clone()));
            }
        }
        stats.record_round(messages, bits, max_bits, violations);

        // Deterministic delivery order regardless of sender iteration.
        for inbox in &mut inboxes {
            inbox.sort_by_key(|(p, _)| *p);
        }

        // Step every node.
        outboxes = programs
            .iter_mut()
            .zip(views.iter())
            .zip(inboxes.iter())
            .map(|((p, view), inbox)| {
                if p.is_done() {
                    Vec::new()
                } else {
                    p.round(view, round, inbox)
                }
            })
            .collect();
    }

    let outputs = programs.iter().map(NodeAlgorithm::output).collect();
    Ok(RunResult {
        outputs,
        stats,
        trace: config.trace.then(|| {
            events.sort_by_key(|e| (e.round, e.from, e.to));
            events
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{LocalView, Outbox};
    use lma_graph::generators::ring;
    use lma_graph::weights::WeightStrategy;

    struct Echo {
        rounds_left: usize,
    }

    impl NodeAlgorithm for Echo {
        type Msg = u64;
        type Output = usize;

        fn init(&mut self, view: &LocalView) -> Outbox<u64> {
            (0..view.degree()).map(|p| (p, view.id)).collect()
        }

        fn round(&mut self, view: &LocalView, _r: usize, inbox: &[(Port, u64)]) -> Outbox<u64> {
            self.rounds_left = self.rounds_left.saturating_sub(1);
            if self.rounds_left == 0 {
                return Vec::new();
            }
            inbox.iter().map(|&(p, m)| (p, m + view.id)).collect()
        }

        fn is_done(&self) -> bool {
            self.rounds_left == 0
        }

        fn output(&self) -> Option<usize> {
            (self.rounds_left == 0).then_some(self.rounds_left)
        }
    }

    #[test]
    fn push_and_pull_agree_on_a_small_run() {
        let g = ring(8, WeightStrategy::Unit);
        let config = RunConfig {
            trace: true,
            ..RunConfig::default()
        };
        let push = run_push(
            &g,
            config,
            (0..8).map(|_| Echo { rounds_left: 5 }).collect::<Vec<_>>(),
        )
        .unwrap();
        let pull = crate::Sim::on(&g)
            .trace(true)
            .run((0..8).map(|_| Echo { rounds_left: 5 }).collect::<Vec<_>>())
            .unwrap();
        assert_eq!(push.outputs, pull.outputs);
        assert_eq!(push.stats, pull.stats);
        assert_eq!(push.trace, pull.trace);
    }
}

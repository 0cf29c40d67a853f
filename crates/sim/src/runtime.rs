//! Run configuration, results and errors.
//!
//! The round kernel itself lives in [`crate::batch`], run on one thread
//! there and shard-parallel in `batch_sharded`.  This module holds what
//! every run shares: the run knobs ([`RunConfig`]), the outcome
//! ([`RunResult`], [`RunError`]) and the per-round accounting a run
//! accumulates while scattering (`PendingRound`).
//!
//! The observable semantics (outputs, [`RunStats`], trace, error cases) are
//! identical to the original push-based executor, which is preserved in
//! [`crate::reference`] as a differential-testing oracle; the equivalence is
//! asserted by the `runtime_equivalence` integration suite.

use crate::frontier::FrontierMode;
use crate::model::Model;
use crate::plane::Backing;
use crate::stats::RunStats;
use crate::trace::TraceEvent;
use std::num::NonZeroUsize;

/// Configuration of one simulated run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Communication model (LOCAL or CONGEST(B)).
    pub model: Model,
    /// Hard cap on the number of rounds; exceeding it is an error (it almost
    /// always means the algorithm under test failed to terminate).
    pub max_rounds: usize,
    /// When true, the first message exceeding the CONGEST budget aborts the
    /// run with [`RunError::CongestViolation`]; when false, violations are
    /// only counted in [`RunStats::congest_violations`].
    pub enforce_congest: bool,
    /// When true, every message delivery is recorded in the result's trace.
    pub trace: bool,
    /// Worker threads: `None` runs the plane kernel on the calling
    /// thread; `Some(t)` with `t >= 2` runs it shard-parallel on `t` scoped
    /// threads.  Outputs, stats and traces are bit-identical either way;
    /// only wall-clock changes, so the knob is safe to flip per deployment.
    pub threads: Option<NonZeroUsize>,
    /// Slot-storage backend of the message plane (see [`Backing`]): inline
    /// `Option<M>` slots (the default; best for small flat messages) or the
    /// byte arena (best for `Vec`-carrying variable-size payloads).
    /// Bit-identical results either way; only the allocation profile
    /// changes.
    pub backing: Backing,
    /// Sparse-frontier scheduling for programs that opt in via
    /// [`crate::NodeAlgorithm::MESSAGE_DRIVEN`] (see [`crate::frontier`]): the
    /// default [`FrontierMode::Auto`] switches per round between the dense
    /// scan and the sparse frontier gather; `Dense` / `Sparse` pin one
    /// path.  Bit-identical results in every mode; ignored by programs
    /// that do not opt in.
    pub frontier: FrontierMode,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            model: Model::Local,
            max_rounds: 100_000,
            enforce_congest: false,
            trace: false,
            threads: None,
            backing: Backing::Inline,
            frontier: FrontierMode::Auto,
        }
    }
}

/// Why a run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The algorithm did not terminate within `max_rounds` rounds.
    RoundLimitExceeded {
        /// The configured limit.
        limit: usize,
    },
    /// A message exceeded the CONGEST budget while enforcement was on.
    CongestViolation {
        /// Round of the offending message.
        round: usize,
        /// Its size in bits.
        bits: usize,
        /// The configured budget.
        budget: usize,
    },
    /// A node emitted more than one message on the same port in one round, or
    /// used a port out of range — a bug in the node program.
    MalformedOutbox {
        /// The offending node.
        node: usize,
        /// The offending port.
        port: usize,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::RoundLimitExceeded { limit } => {
                write!(f, "algorithm did not terminate within {limit} rounds")
            }
            Self::CongestViolation {
                round,
                bits,
                budget,
            } => write!(
                f,
                "message of {bits} bits in round {round} exceeds CONGEST budget of {budget} bits"
            ),
            Self::MalformedOutbox { node, port } => {
                write!(f, "node {node} produced a malformed outbox at port {port}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// The outcome of a successful run.
#[derive(Debug, Clone)]
pub struct RunResult<O> {
    /// Per-node outputs (indexed by node index); `None` for nodes that never
    /// produced an output (which the callers treat as a failure of the
    /// algorithm under test).
    pub outputs: Vec<Option<O>>,
    /// Aggregate communication statistics.
    pub stats: RunStats,
    /// Message-delivery trace, when requested in the config, in
    /// `(round, from, to)` order on every engine (see [`crate::trace`] for
    /// the emission order the plane engines rely on).
    pub trace: Option<Vec<TraceEvent>>,
}

/// Per-round accounting accumulated at scatter time and committed when the
/// round the messages are delivered in actually begins.
#[derive(Debug, Default)]
pub(crate) struct PendingRound {
    pub(crate) messages: u64,
    pub(crate) bits: u64,
    pub(crate) max_bits: usize,
    pub(crate) violations: u64,
    /// The first fatal event observed while scattering.
    ///
    /// Errors surface one half-step later than they are detected: messages
    /// are validated as the senders produce them, but — matching the
    /// original executor, which validated at delivery time — the error is
    /// returned when the offending messages would have been *delivered*.
    /// In particular, messages produced in the very step in which every
    /// node finished are never delivered, never counted, and never raise
    /// errors.
    pub(crate) error: Option<RunError>,
    /// Trace events for the upcoming delivery round (reused buffer).
    pub(crate) events: Vec<TraceEvent>,
}

impl PendingRound {
    pub(crate) fn reset(&mut self) {
        self.messages = 0;
        self.bits = 0;
        self.max_bits = 0;
        self.violations = 0;
        self.error = None;
        self.events.clear();
    }

    /// Folds in the traffic of the next shard in node order: sums and
    /// maxima, the first error, and its events appended (which empties
    /// `other.events` but keeps its buffer).
    pub(crate) fn absorb(&mut self, other: &mut PendingRound) {
        self.messages += other.messages;
        self.bits += other.bits;
        self.max_bits = self.max_bits.max(other.max_bits);
        self.violations += other.violations;
        if self.error.is_none() {
            self.error = other.error.take();
        }
        self.events.append(&mut other.events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{local_views, LocalView, NodeAlgorithm, Outbox};
    use crate::Sim;
    use lma_graph::generators::{path, ring};
    use lma_graph::weights::WeightStrategy;
    use lma_graph::Port;

    /// Flood the maximum identifier: a classic LOCAL algorithm that needs
    /// exactly `diameter` rounds on a path when every node starts flooding.
    pub(crate) struct MaxIdFlood {
        best: u64,
        quiet_for: usize,
        done: bool,
    }

    impl MaxIdFlood {
        pub(crate) fn new() -> Self {
            Self {
                best: 0,
                quiet_for: 0,
                done: false,
            }
        }
    }

    impl NodeAlgorithm for MaxIdFlood {
        type Msg = u64;
        type Output = u64;

        fn init(&mut self, view: &LocalView) -> Outbox<u64> {
            self.best = view.id;
            (0..view.degree()).map(|p| (p, self.best)).collect()
        }

        fn round(&mut self, view: &LocalView, _round: usize, inbox: &[(Port, u64)]) -> Outbox<u64> {
            let before = self.best;
            for (_, id) in inbox {
                self.best = self.best.max(*id);
            }
            if self.best == before {
                self.quiet_for += 1;
            } else {
                self.quiet_for = 0;
            }
            // After n quiet rounds no new information can arrive.
            if self.quiet_for >= view.n {
                self.done = true;
                return Vec::new();
            }
            (0..view.degree()).map(|p| (p, self.best)).collect()
        }

        fn is_done(&self) -> bool {
            self.done
        }

        fn output(&self) -> Option<u64> {
            self.done.then_some(self.best)
        }
    }

    /// A 0-round program: outputs its own degree in `init`.
    struct ZeroRound {
        out: Option<usize>,
    }

    impl NodeAlgorithm for ZeroRound {
        type Msg = ();
        type Output = usize;

        fn init(&mut self, view: &LocalView) -> Outbox<()> {
            self.out = Some(view.degree());
            Vec::new()
        }

        fn round(&mut self, _: &LocalView, _: usize, _: &[(Port, ())]) -> Outbox<()> {
            Vec::new()
        }

        fn is_done(&self) -> bool {
            self.out.is_some()
        }

        fn output(&self) -> Option<usize> {
            self.out
        }
    }

    #[test]
    fn zero_round_algorithm_uses_zero_rounds() {
        let g = path(5, WeightStrategy::Unit);
        let programs = (0..5).map(|_| ZeroRound { out: None }).collect();
        let result = Sim::on(&g).run(programs).unwrap();
        assert_eq!(result.stats.rounds, 0);
        assert_eq!(result.stats.total_messages, 0);
        assert_eq!(result.outputs[0], Some(1));
        assert_eq!(result.outputs[2], Some(2));
    }

    #[test]
    fn flooding_converges_to_global_max() {
        let g = ring(9, WeightStrategy::Unit);
        let programs = (0..9).map(|_| MaxIdFlood::new()).collect();
        let result = Sim::on(&g).run(programs).unwrap();
        for out in &result.outputs {
            assert_eq!(*out, Some(8));
        }
        assert!(result.stats.rounds >= g.diameter());
        assert!(result.stats.total_messages > 0);
    }

    #[test]
    fn round_limit_is_enforced() {
        let g = path(4, WeightStrategy::Unit);
        let programs = (0..4).map(|_| MaxIdFlood::new()).collect::<Vec<_>>();
        let err = Sim::on(&g).round_limit(2).run(programs).unwrap_err();
        assert_eq!(err, RunError::RoundLimitExceeded { limit: 2 });
    }

    #[test]
    fn congest_violations_are_counted_but_not_fatal_by_default() {
        let g = path(3, WeightStrategy::Unit);
        let sim = Sim::on(&g).model(Model::Congest { bits: 1 });
        let programs = (0..3).map(|_| MaxIdFlood::new()).collect::<Vec<_>>();
        let result = sim.run(programs).unwrap();
        assert!(result.stats.congest_violations > 0);
    }

    #[test]
    fn congest_enforcement_aborts() {
        let g = path(3, WeightStrategy::Unit);
        let sim = Sim::on(&g)
            .model(Model::Congest { bits: 1 })
            .enforce_congest(true);
        let programs = (0..3).map(|_| MaxIdFlood::new()).collect::<Vec<_>>();
        let err = sim.run(programs).unwrap_err();
        assert!(matches!(err, RunError::CongestViolation { .. }));
    }

    #[test]
    fn trace_records_deliveries() {
        let g = path(3, WeightStrategy::Unit);
        let programs = (0..3).map(|_| MaxIdFlood::new()).collect::<Vec<_>>();
        let result = Sim::on(&g).trace(true).run(programs).unwrap();
        let trace = result.trace.unwrap();
        assert!(!trace.is_empty());
        assert!(trace.windows(2).all(|w| w[0].round <= w[1].round));
    }

    /// A program that sends two messages through the same port — must be
    /// rejected as malformed.
    struct Misbehaving {
        done: bool,
    }

    impl NodeAlgorithm for Misbehaving {
        type Msg = bool;
        type Output = ();

        fn init(&mut self, _view: &LocalView) -> Outbox<bool> {
            vec![(0, true), (0, false)]
        }

        fn round(&mut self, _: &LocalView, _: usize, _: &[(Port, bool)]) -> Outbox<bool> {
            self.done = true;
            Vec::new()
        }

        fn is_done(&self) -> bool {
            self.done
        }

        fn output(&self) -> Option<()> {
            self.done.then_some(())
        }
    }

    #[test]
    fn duplicate_port_use_is_malformed() {
        let g = path(2, WeightStrategy::Unit);
        let programs = vec![Misbehaving { done: false }, Misbehaving { done: false }];
        let err = Sim::on(&g).run(programs).unwrap_err();
        assert!(matches!(err, RunError::MalformedOutbox { .. }));
    }

    #[test]
    fn local_views_expose_only_local_information() {
        let g = ring(5, WeightStrategy::ByEdgeId);
        let views = local_views(&g);
        assert_eq!(views.len(), 5);
        for (u, view) in views.iter().enumerate() {
            assert_eq!(view.node, u);
            assert_eq!(view.n, 5);
            assert_eq!(view.degree(), 2);
            for (p, w) in view.incident() {
                assert_eq!(g.incident(u)[p].weight, w);
            }
        }
    }

    /// Messages produced in the step in which every node finishes are
    /// dropped, not counted — the contract inherited from the original
    /// executor (its round loop exited before routing them).
    struct FinalShout {
        sent: bool,
    }

    impl NodeAlgorithm for FinalShout {
        type Msg = u64;
        type Output = ();

        fn init(&mut self, view: &LocalView) -> Outbox<u64> {
            self.sent = true;
            (0..view.degree()).map(|p| (p, 9)).collect()
        }

        fn round(&mut self, view: &LocalView, _: usize, _: &[(Port, u64)]) -> Outbox<u64> {
            // Done as of this round, but still shouting: these messages must
            // never be delivered or counted.
            (0..view.degree()).map(|p| (p, 9)).collect()
        }

        fn is_done(&self) -> bool {
            self.sent
        }

        fn output(&self) -> Option<()> {
            Some(())
        }
    }

    #[test]
    fn final_step_messages_are_dropped() {
        let g = path(3, WeightStrategy::Unit);
        // All nodes are done right after init, so the init traffic is
        // dropped and the run reports zero rounds and zero messages.
        let programs = (0..3)
            .map(|_| FinalShout { sent: false })
            .collect::<Vec<_>>();
        let result = Sim::on(&g).run(programs).unwrap();
        assert_eq!(result.stats.rounds, 0);
        assert_eq!(result.stats.total_messages, 0);
    }
}

//! Failure-injection tests for the simulator substrate itself: the runtime
//! must detect misbehaving node programs (port abuse, non-termination) and
//! enforce the CONGEST budget when asked to, because every upper-bound claim
//! in the experiments rests on those checks being real.

use lma_graph::generators::{connected_random, ring};
use lma_graph::weights::WeightStrategy;
use lma_graph::Port;
use lma_sim::message::{bits_for_universe, BitSized};
use lma_sim::runtime::RunError;
use lma_sim::{Backing, Engine, LocalView, Model, NodeAlgorithm, Outbox, RunStats, Sim};

/// A program that keeps chattering forever on every port.
struct Chatterbox;

impl NodeAlgorithm for Chatterbox {
    type Msg = u64;
    type Output = ();

    fn init(&mut self, view: &LocalView) -> Outbox<u64> {
        (0..view.degree()).map(|p| (p, 1u64)).collect()
    }

    fn round(&mut self, view: &LocalView, _round: usize, _inbox: &[(Port, u64)]) -> Outbox<u64> {
        (0..view.degree()).map(|p| (p, 1u64)).collect()
    }

    fn is_done(&self) -> bool {
        false
    }

    fn output(&self) -> Option<()> {
        None
    }
}

/// A program that (incorrectly) sends two messages on the same port.
struct PortAbuser {
    done: bool,
}

impl NodeAlgorithm for PortAbuser {
    type Msg = u64;
    type Output = ();

    fn init(&mut self, _view: &LocalView) -> Outbox<u64> {
        vec![(0, 1), (0, 2)]
    }

    fn round(&mut self, _view: &LocalView, _round: usize, _inbox: &[(Port, u64)]) -> Outbox<u64> {
        self.done = true;
        Vec::new()
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn output(&self) -> Option<()> {
        Some(())
    }
}

/// Chatters on every port; in round `rogue_round` node 0 also sends
/// through port `degree`, which it does not have, and every node finishes
/// in round `finish_round`, if any.
struct RogueChatter {
    rogue_round: usize,
    finish_round: Option<usize>,
    done: bool,
}

impl NodeAlgorithm for RogueChatter {
    type Msg = u64;
    type Output = ();

    fn init(&mut self, view: &LocalView) -> Outbox<u64> {
        (0..view.degree()).map(|p| (p, 1)).collect()
    }

    fn round(&mut self, view: &LocalView, round: usize, _inbox: &[(Port, u64)]) -> Outbox<u64> {
        let mut out: Outbox<u64> = (0..view.degree()).map(|p| (p, 1)).collect();
        if view.node == 0 && round == self.rogue_round {
            out.push((view.degree(), 1));
        }
        self.done = self.finish_round == Some(round);
        out
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn output(&self) -> Option<()> {
        self.done.then_some(())
    }
}

/// A one-round program whose single message is deliberately enormous.
struct Megaphone {
    payload: Vec<u64>,
    done: bool,
}

#[derive(Clone)]
struct BigMsg(Vec<u64>);

impl BitSized for BigMsg {
    fn bit_size(&self) -> usize {
        64 * self.0.len()
    }
}

impl lma_sim::Wire for BigMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }

    fn decode(r: &mut lma_sim::WireReader<'_>) -> Self {
        BigMsg(Vec::decode(r))
    }
}

impl NodeAlgorithm for Megaphone {
    type Msg = BigMsg;
    type Output = ();

    fn init(&mut self, view: &LocalView) -> Outbox<BigMsg> {
        if view.node == 0 {
            vec![(0, BigMsg(self.payload.clone()))]
        } else {
            Vec::new()
        }
    }

    fn round(
        &mut self,
        _view: &LocalView,
        _round: usize,
        _inbox: &[(Port, BigMsg)],
    ) -> Outbox<BigMsg> {
        self.done = true;
        Vec::new()
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn output(&self) -> Option<()> {
        Some(())
    }
}

/// A well-behaved one-round echo used for the positive accounting checks.
struct Echo {
    heard: usize,
    done: bool,
}

impl NodeAlgorithm for Echo {
    type Msg = u32;
    type Output = usize;

    fn init(&mut self, view: &LocalView) -> Outbox<u32> {
        (0..view.degree()).map(|p| (p, p as u32)).collect()
    }

    fn round(&mut self, _view: &LocalView, _round: usize, inbox: &[(Port, u32)]) -> Outbox<u32> {
        self.heard = inbox.len();
        self.done = true;
        Vec::new()
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn output(&self) -> Option<usize> {
        self.done.then_some(self.heard)
    }
}

#[test]
fn round_limit_is_enforced() {
    let g = ring(8, WeightStrategy::Unit);
    let sim = Sim::on(&g).round_limit(25);
    let programs: Vec<Chatterbox> = g.nodes().map(|_| Chatterbox).collect();
    let err = sim.run(programs).unwrap_err();
    assert_eq!(err, RunError::RoundLimitExceeded { limit: 25 });
}

/// The order a round commits in, on the push oracle and on one and three
/// threads over both backings: the done-check first (traffic sent in the
/// step that finishes every node is dropped, even at the round limit),
/// then the round limit (which shadows a pending error), then the pending
/// error, which surfaces in the round after the bad send.
#[test]
fn commit_order_is_done_check_then_round_limit_then_pending_error() {
    let g = ring(9, WeightStrategy::Unit);
    let base = Sim::on(&g).round_limit(4).trace(true);
    let mut sims = vec![base.executor(Engine::Reference)];
    for backing in Backing::ALL {
        sims.extend([1, 3].map(|t| base.threads(t).backing(backing)));
    }
    for sim in sims {
        let what = format!(
            "{:?} {:?} {}",
            sim.engine(),
            sim.config().threads,
            sim.config().backing
        );
        let run = |rogue_round, finish_round| {
            let programs = g.nodes().map(|_| RogueChatter {
                rogue_round,
                finish_round,
                done: false,
            });
            sim.run(programs.collect())
        };
        assert_eq!(
            run(3, None).unwrap_err(),
            RunError::MalformedOutbox { node: 0, port: 2 },
            "{what}"
        );
        assert_eq!(
            run(4, None).unwrap_err(),
            RunError::RoundLimitExceeded { limit: 4 },
            "{what}"
        );
        let finished = run(4, Some(4)).unwrap();
        assert_eq!(finished.stats.rounds, 4, "{what}");
        assert_eq!(finished.stats.total_messages, 4 * 18, "{what}");
        assert_eq!(finished.trace.map(|t| t.len()), Some(4 * 18), "{what}");
    }
}

#[test]
fn duplicate_port_use_is_reported_with_the_offender() {
    let g = ring(5, WeightStrategy::Unit);
    let programs: Vec<PortAbuser> = g.nodes().map(|_| PortAbuser { done: false }).collect();
    match Sim::on(&g).run(programs) {
        Err(RunError::MalformedOutbox { port: 0, .. }) => {}
        other => panic!("expected a malformed-outbox error, got {other:?}"),
    }
}

#[test]
fn congest_enforcement_aborts_on_the_oversized_message() {
    let g = connected_random(16, 40, 1, WeightStrategy::DistinctRandom { seed: 1 });
    let sim = Sim::on(&g)
        .model(Model::Congest { bits: 128 })
        .enforce_congest(true);
    let programs: Vec<Megaphone> = g
        .nodes()
        .map(|_| Megaphone {
            payload: vec![7; 64],
            done: false,
        })
        .collect();
    match sim.run(programs) {
        Err(RunError::CongestViolation {
            round: 1,
            bits,
            budget: 128,
        }) => {
            assert_eq!(bits, 64 * 64);
        }
        other => panic!("expected a CONGEST violation, got {other:?}"),
    }
}

#[test]
fn congest_auditing_counts_instead_of_aborting() {
    let g = connected_random(16, 40, 2, WeightStrategy::DistinctRandom { seed: 2 });
    let sim = Sim::on(&g)
        .model(Model::Congest { bits: 128 })
        .enforce_congest(false);
    let programs: Vec<Megaphone> = g
        .nodes()
        .map(|_| Megaphone {
            payload: vec![7; 64],
            done: false,
        })
        .collect();
    let result = sim.run(programs).unwrap();
    assert_eq!(result.stats.congest_violations, 1);
    assert_eq!(result.stats.max_message_bits, 64 * 64);
}

#[test]
fn message_accounting_matches_hand_counts() {
    let g = ring(10, WeightStrategy::Unit);
    let programs: Vec<Echo> = g
        .nodes()
        .map(|_| Echo {
            heard: 0,
            done: false,
        })
        .collect();
    let result = Sim::on(&g).run(programs).unwrap();
    let stats: &RunStats = &result.stats;
    // Every node sends one message per port in round 1: 2 · n messages on a
    // ring, each of at most 2 bits (port numbers 0/1 as u32 values 0/1).
    assert_eq!(stats.rounds, 1);
    assert_eq!(stats.total_messages, 20);
    assert!(stats.max_message_bits <= 2);
    assert_eq!(stats.per_round_max_bits.len(), 1);
    // Every node heard exactly its degree.
    assert!(result.outputs.iter().all(|o| *o == Some(2)));
    assert!(stats.avg_message_bits() <= 2.0);
}

#[test]
fn trace_records_every_delivery_when_enabled() {
    let g = ring(6, WeightStrategy::Unit);
    let programs: Vec<Echo> = g
        .nodes()
        .map(|_| Echo {
            heard: 0,
            done: false,
        })
        .collect();
    let result = Sim::on(&g).trace(true).run(programs).unwrap();
    let trace = result.trace.expect("tracing was requested");
    assert_eq!(trace.len() as u64, result.stats.total_messages);
}

#[test]
fn congest_budget_helper_scales_with_n() {
    assert!(
        Model::congest_for(16).budget().unwrap() < Model::congest_for(1 << 20).budget().unwrap()
    );
    assert_eq!(Model::Local.budget(), None);
    assert_eq!(bits_for_universe(2), 1);
    assert_eq!(bits_for_universe(1024), 10);
}

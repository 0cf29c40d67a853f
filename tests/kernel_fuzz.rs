//! Differential fuzzer for the plane kernel: random node programs on every
//! graph family, checked engine by engine against the push reference.
//!
//! The equivalence suites drive hand-written programs (flood, gossip,
//! wave, beacon).  None of them sends through its ports out of order,
//! halts at staggered rounds, or mixes `send` with `send_ref` at random.
//! [`FuzzNode`] does all of that.  Every decision it takes comes from a
//! SplitMix64 stream seeded by `(case seed, node, round, inbox digest)`:
//!
//! * which ports to send on, and in what order;
//! * a `Vec<u64>` payload of 0–8 words, through `send` or `send_ref`;
//! * the round the node halts in, and whether the instance is
//!   message-driven (only when the program type opts in, `MD`);
//! * rarely, a duplicate or out-of-range port, an over-budget message
//!   under `enforce_congest`, or a round limit below the halting round.
//!
//! A message-driven instance leaves its state and its sends untouched on
//! an empty inbox — the [`NodeAlgorithm::MESSAGE_DRIVEN`] contract — so
//! the sparse frontier may skip it.  A node's output is a running digest of
//! every `(round, port, payload)` it received.
//!
//! The property: on `Family::ALL` at 2–200 nodes, with the trace on, the
//! whole [`RunResult`] — outputs, stats and trace — or the [`RunError`] of
//! every plane engine (`Sim::threads(1..=3)` × `Backing::ALL` × every
//! [`FrontierMode`]) equals [`Engine::Reference`]'s.  The plane engines
//! must also agree with each other on the per-round frontier sizes, which
//! the reference does not record.
//!
//! All engines of one case run back to back on one thread, so a plane set
//! the pool hands out with stale slots, or a frontier mark lost in the
//! shard hand-off, shows up as a digest or trace mismatch.

use lma_graph::generators::Family;
use lma_graph::weights::WeightStrategy;
use lma_graph::{Port, SplitMix64, WeightedGraph};
use lma_sim::{
    collect_outbox, Backing, Engine, FrontierMode, LocalView, Model, MsgSink, NodeAlgorithm,
    Outbox, RunError, RunResult, Sim,
};
use proptest::prelude::*;

/// The largest payload, in words.
const MAX_WORDS: usize = 8;

/// The rare fault a case may inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    None,
    /// A second send through a port already used this round.
    DuplicatePort,
    /// A send through a port the node does not have.
    OutOfRangePort,
    /// A full eight-word payload, over any budget the case enforces.
    OverBudget,
}

/// The knobs every node of one case shares, all drawn from the case seed.
#[derive(Debug, Clone, Copy)]
struct Case {
    seed: u64,
    /// Halting rounds are drawn from `0..=max_halt`.
    max_halt: usize,
    /// Share of instances that are message-driven, in eighths (only
    /// consulted when the program type opts in).
    md_eighths: u64,
    /// Per-port send odds, in eighths.
    send_eighths: u64,
    /// Payload words are drawn from `0..=max_words`.
    max_words: usize,
    fault: Fault,
    /// A node step injects the fault with odds `1 / fault_odds`.
    fault_odds: u64,
}

/// A fresh stream for one decision point.
fn stream(seed: u64, node: usize, round: usize, inbox: u64) -> SplitMix64 {
    let mut h = seed;
    for x in [node as u64, round as u64, inbox] {
        h = SplitMix64::new(h ^ x).next_u64();
    }
    SplitMix64::new(h)
}

/// Folds one word into a running digest.
fn absorb(digest: u64, word: u64) -> u64 {
    SplitMix64::new(digest ^ word.rotate_left(17)).next_u64()
}

/// One planned send: port, payload, and whether it goes through `send_ref`.
type Planned = (Port, Vec<u64>, bool);

struct FuzzNode<const MD: bool> {
    case: Case,
    node: usize,
    message_driven: bool,
    halt: usize,
    received: u64,
    done: bool,
}

impl<const MD: bool> FuzzNode<MD> {
    fn new(case: Case, node: usize) -> Self {
        let mut rng = stream(case.seed, node, usize::MAX, 0);
        // A node halting inside `init` is rare: most take part.
        let halt = if rng.next_below(16) == 0 {
            0
        } else {
            1 + rng.next_index(case.max_halt)
        };
        Self {
            case,
            node,
            message_driven: MD && rng.next_below(8) < case.md_eighths,
            halt,
            received: 0,
            done: false,
        }
    }

    fn payload(&self, rng: &mut SplitMix64) -> Vec<u64> {
        let words = rng.next_index(self.case.max_words + 1);
        (0..words)
            .map(|_| rng.next_u64() >> rng.next_index(64))
            .collect()
    }

    /// The sends of one step: a random subset of the ports in random order,
    /// plus the case's fault at a random position, now and then.
    fn plan(&self, rng: &mut SplitMix64, degree: usize) -> Vec<Planned> {
        let mut ports: Vec<Port> = (0..degree).collect();
        rng.shuffle(&mut ports);
        let mut sends: Vec<Planned> = Vec::new();
        let mut unused = Vec::new();
        for port in ports {
            if rng.next_below(8) < self.case.send_eighths {
                let payload = self.payload(rng);
                sends.push((port, payload, rng.next_below(2) == 0));
            } else {
                unused.push(port);
            }
        }
        if self.case.fault != Fault::None && rng.next_below(self.case.fault_odds) == 0 {
            let extra = match self.case.fault {
                Fault::DuplicatePort if !sends.is_empty() => {
                    Some(sends[rng.next_index(sends.len())].0)
                }
                Fault::OutOfRangePort => Some(degree + rng.next_index(3)),
                Fault::OverBudget if !unused.is_empty() => {
                    Some(unused[rng.next_index(unused.len())])
                }
                _ => None,
            };
            if let Some(port) = extra {
                let payload = if self.case.fault == Fault::OverBudget {
                    (0..MAX_WORDS).map(|_| rng.next_u64() | 1 << 63).collect()
                } else {
                    self.payload(rng)
                };
                let at = rng.next_index(sends.len() + 1);
                sends.insert(at, (port, payload, rng.next_below(2) == 0));
            }
        }
        sends
    }

    fn init_plan(&mut self, view: &LocalView) -> Vec<Planned> {
        let mut rng = stream(self.case.seed, self.node, 0, 0);
        self.done = self.halt == 0;
        self.plan(&mut rng, view.degree())
    }

    fn round_plan(
        &mut self,
        view: &LocalView,
        round: usize,
        inbox: &[(Port, Vec<u64>)],
    ) -> Vec<Planned> {
        if self.message_driven && inbox.is_empty() {
            return Vec::new();
        }
        let mut digest = round as u64;
        for (port, payload) in inbox {
            digest = absorb(digest, *port as u64);
            digest = absorb(digest, payload.len() as u64);
            for &word in payload {
                digest = absorb(digest, word);
            }
        }
        self.received = absorb(self.received, digest);
        let mut rng = stream(self.case.seed, self.node, round, digest);
        if round >= self.halt {
            self.done = true;
            // A halting step still sends now and then: that traffic is
            // delivered to (and drained by) nodes that may be done too.
            if rng.next_below(4) != 0 {
                return Vec::new();
            }
        }
        self.plan(&mut rng, view.degree())
    }
}

fn emit(sends: Vec<Planned>, out: &mut MsgSink<'_, Vec<u64>>) {
    for (port, payload, by_ref) in sends {
        if by_ref {
            out.send_ref(port, &payload);
        } else {
            out.send(port, payload);
        }
    }
}

impl<const MD: bool> NodeAlgorithm for FuzzNode<MD> {
    type Msg = Vec<u64>;
    type Output = u64;

    const MESSAGE_DRIVEN: bool = MD;

    fn message_driven(&self) -> bool {
        self.message_driven
    }

    fn init(&mut self, view: &LocalView) -> Outbox<Vec<u64>> {
        let sends = self.init_plan(view);
        collect_outbox(|out| emit(sends, out))
    }

    fn round(
        &mut self,
        view: &LocalView,
        round: usize,
        inbox: &[(Port, Vec<u64>)],
    ) -> Outbox<Vec<u64>> {
        let sends = self.round_plan(view, round, inbox);
        collect_outbox(|out| emit(sends, out))
    }

    fn init_into(&mut self, view: &LocalView, out: &mut MsgSink<'_, Vec<u64>>) {
        let sends = self.init_plan(view);
        emit(sends, out);
    }

    fn round_into(
        &mut self,
        view: &LocalView,
        round: usize,
        inbox: &[(Port, Vec<u64>)],
        out: &mut MsgSink<'_, Vec<u64>>,
    ) {
        let sends = self.round_plan(view, round, inbox);
        emit(sends, out);
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn output(&self) -> Option<u64> {
        self.done.then_some(self.received)
    }
}

/// Everything a run reports: outputs, stats and trace, or the error.
type Outcome = Result<RunResult<u64>, RunError>;

fn assert_same(expected: &Outcome, got: &Outcome, what: &str) {
    match (expected, got) {
        (Ok(e), Ok(g)) => {
            assert_eq!(e.outputs, g.outputs, "{what}: outputs");
            assert_eq!(e.stats, g.stats, "{what}: stats");
            let (e, g) = (e.trace.as_ref().unwrap(), g.trace.as_ref().unwrap());
            if let Some(i) = (0..e.len().min(g.len())).find(|&i| e[i] != g[i]) {
                panic!(
                    "{what}: trace event {i}: expected {:?}, got {:?}",
                    e[i], g[i]
                );
            }
            assert_eq!(e.len(), g.len(), "{what}: trace length");
        }
        (Err(e), Err(g)) => assert_eq!(e, g, "{what}: error"),
        (e, g) => panic!(
            "{what}: expected {:?}, got {:?}",
            e.as_ref().map(|_| "a result"),
            g.as_ref().map(|_| "a result"),
        ),
    }
}

/// Runs one case on the reference and on every plane engine.
fn check<const MD: bool>(graph: &WeightedGraph, sim: Sim<'_>, case: Case, label: &str) {
    let fleet = || {
        (0..graph.node_count())
            .map(|u| FuzzNode::<MD>::new(case, u))
            .collect::<Vec<_>>()
    };
    let expected = sim.executor(Engine::Reference).run(fleet());
    let mut frontier: Option<Vec<u64>> = None;
    for threads in 1..=3 {
        for backing in Backing::ALL {
            for mode in [
                FrontierMode::Auto,
                FrontierMode::Dense,
                FrontierMode::Sparse,
            ] {
                let what = format!(
                    "{label} MD={MD} threads={threads} {backing} {}",
                    mode.label()
                );
                let got = sim
                    .threads(threads)
                    .backing(backing)
                    .frontier(mode)
                    .run(fleet());
                assert_same(&expected, &got, &what);
                if let Ok(result) = &got {
                    let active = &result.stats.per_round_active_nodes;
                    match &frontier {
                        Some(first) => assert_eq!(first, active, "{what}: frontier sizes"),
                        None => frontier = Some(active.clone()),
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_programs_match_the_push_reference_on_every_engine(
        family in 0usize..Family::ALL.len(),
        n in 2usize..201,
        seed in 0u64..u64::MAX,
    ) {
        let family = Family::ALL[family];
        let graph = family.instantiate(n, WeightStrategy::DistinctRandom { seed }, seed);
        let mut rng = SplitMix64::new(seed);
        let max_halt = 1 + rng.next_index(10);
        let fault = match rng.next_below(8) {
            0 => Fault::DuplicatePort,
            1 => Fault::OutOfRangePort,
            2 => Fault::OverBudget,
            _ => Fault::None,
        };
        // Enforced budgets fit every ordinary payload, so only the injected
        // over-budget message trips them; audited budgets are random.
        let enforce = fault == Fault::OverBudget || rng.next_below(8) == 0;
        let max_words = rng.next_index(if enforce { 5 } else { MAX_WORDS + 1 });
        let model = match rng.next_below(3) {
            _ if enforce => Model::Congest { bits: 4 + 64 * max_words },
            0 => Model::Congest { bits: 16 + rng.next_index(300) },
            _ => Model::Local,
        };
        let case = Case {
            seed,
            max_halt,
            md_eighths: rng.next_below(9),
            send_eighths: 1 + rng.next_below(8),
            max_words,
            fault,
            fault_odds: 4 * graph.node_count() as u64,
        };
        // Mostly room to finish; now and then a limit below the halting
        // rounds.
        let round_limit = if rng.next_below(8) == 0 {
            rng.next_index(max_halt)
        } else {
            max_halt + 1 + rng.next_index(4)
        };
        let sim = Sim::on(&graph)
            .trace(true)
            .model(model)
            .enforce_congest(enforce)
            .round_limit(round_limit);
        let label = format!(
            "{} n={} case={case:?} limit={round_limit} {model:?}",
            family.name(),
            graph.node_count()
        );
        if rng.next_below(2) == 0 {
            check::<true>(&graph, sim, case, &label);
        } else {
            check::<false>(&graph, sim, case, &label);
        }
    }
}

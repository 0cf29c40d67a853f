//! Refactor-equivalence suite for the message-plane executors.
//!
//! The round executor was rewritten from push-based routing (per-round inbox
//! vectors, per-node hash sets, clone-on-delivery) to a pull-based,
//! double-buffered flat message plane, run as a lockstep batch kernel on
//! one thread or shard-parallel ([`lma_sim::Engine::Threads`]).  These
//! tests pin the contract of those rewrites:
//!
//! 1. **determinism** — running the same program set on the same seeded
//!    graph twice produces bit-identical outputs, [`RunStats`] and traces;
//! 2. **equivalence** — the plane executor and the preserved push-based
//!    reference executor ([`lma_sim::reference`]) agree exactly, under both
//!    LOCAL and CONGEST-audit configurations;
//! 3. **sharded equivalence** — the shard-parallel kernel produces
//!    bit-identical outputs, stats and traces to one thread on ring, grid,
//!    G(n, p) and sparse random graphs at several shard counts, including
//!    every error path (malformed outbox, round limit, CONGEST enforcement);
//! 4. the `sync_boruvka` baseline (the most protocol-heavy consumer of the
//!    simulator) reproduces identical results across runs and models;
//! 5. **batch equivalence** — the lockstep fleet executor
//!    ([`lma_sim::BatchSim`]) at widths 1, 2 and 8 produces, lane for lane,
//!    bit-identical outputs, stats and traces to sequential runs of the same
//!    programs, on both plane backings, sequential and sharded, including
//!    the malformed-outbox error path (the failing lane alone reports the
//!    sequential run's exact error; every other lane completes);
//! 6. **trace order** — a program that sends through its ports in
//!    descending order gets the push reference's `(round, from, to)` trace
//!    from every thread count, batch width and backing.

use lma_baselines::{FloodCollectMst, NoAdviceMst, SyncBoruvkaMst};
use lma_graph::generators::{barabasi_albert, connected_random, gnp_connected, grid, ring};
use lma_graph::weights::WeightStrategy;
use lma_graph::{Port, WeightedGraph};
use lma_sim::{Backing, Engine, LocalView, Model, NodeAlgorithm, Outbox, RunError, RunResult, Sim};
use std::num::NonZeroUsize;

/// Flood the maximum identifier (the canonical LOCAL warm-up algorithm).
struct MaxIdFlood {
    best: u64,
    quiet_for: usize,
    done: bool,
}

impl MaxIdFlood {
    fn new() -> Self {
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

/// A sparser, stateful program: forwards the running minimum over the
/// cheapest port only, so most slots stay empty most rounds (exercises the
/// plane's partial-occupancy path, unlike all-port flooding).
struct MinForward {
    best: u64,
    rounds_left: usize,
}

impl NodeAlgorithm for MinForward {
    type Msg = u64;
    type Output = u64;

    fn init(&mut self, view: &LocalView) -> Outbox<u64> {
        self.best = view.id;
        let cheapest = view.ports_by_weight()[0];
        vec![(cheapest, self.best)]
    }

    fn round(&mut self, view: &LocalView, _round: usize, inbox: &[(Port, u64)]) -> Outbox<u64> {
        for (_, v) in inbox {
            self.best = self.best.min(*v);
        }
        self.rounds_left = self.rounds_left.saturating_sub(1);
        if self.rounds_left == 0 {
            return Vec::new();
        }
        let cheapest = view.ports_by_weight()[0];
        vec![(cheapest, self.best)]
    }

    fn is_done(&self) -> bool {
        self.rounds_left == 0
    }

    fn output(&self) -> Option<u64> {
        (self.rounds_left == 0).then_some(self.best)
    }
}

/// Max-identifier flooding for a fixed number of rounds that broadcasts
/// through its ports in **descending** order, so each sender's trace events
/// are emitted against port order (and, on the test graphs, against
/// receiver order).
struct DescendingFlood {
    best: u64,
    rounds_left: usize,
}

impl DescendingFlood {
    fn broadcast(&self, view: &LocalView) -> Outbox<u64> {
        (0..view.degree()).rev().map(|p| (p, self.best)).collect()
    }
}

impl NodeAlgorithm for DescendingFlood {
    type Msg = u64;
    type Output = u64;

    fn init(&mut self, view: &LocalView) -> Outbox<u64> {
        self.best = view.id;
        self.broadcast(view)
    }

    fn round(&mut self, view: &LocalView, _round: usize, inbox: &[(Port, u64)]) -> Outbox<u64> {
        for (_, id) in inbox {
            self.best = self.best.max(*id);
        }
        self.rounds_left -= 1;
        if self.rounds_left == 0 {
            return Vec::new();
        }
        self.broadcast(view)
    }

    fn is_done(&self) -> bool {
        self.rounds_left == 0
    }

    fn output(&self) -> Option<u64> {
        (self.rounds_left == 0).then_some(self.best)
    }
}

/// LOCAL and CONGEST-audit, each on both plane backings — every equivalence
/// test below therefore sweeps the arena plane against the push oracle and
/// the sequential executor for free.  Everything is expressed through the
/// [`Sim`] builder: engine variants derive from a base sim via
/// [`Sim::executor`].
fn sims(g: &WeightedGraph) -> Vec<Sim<'_>> {
    let mut sims = Vec::new();
    for backing in Backing::ALL {
        sims.push(Sim::on(g).trace(true).backing(backing));
        sims.push(
            Sim::on(g)
                .model(Model::congest_for(g.node_count()))
                .enforce_congest(false)
                .trace(true)
                .backing(backing),
        );
    }
    sims
}

fn assert_identical<O: PartialEq + std::fmt::Debug>(
    a: &RunResult<O>,
    b: &RunResult<O>,
    what: &str,
) {
    assert_eq!(a.outputs, b.outputs, "{what}: outputs diverged");
    assert_eq!(a.stats, b.stats, "{what}: stats diverged");
    assert_eq!(a.trace, b.trace, "{what}: trace diverged");
}

fn graphs() -> Vec<(&'static str, WeightedGraph)> {
    vec![
        (
            "ring",
            ring(31, WeightStrategy::DistinctRandom { seed: 11 }),
        ),
        (
            "grid",
            grid(6, 7, WeightStrategy::DistinctRandom { seed: 12 }),
        ),
        (
            "gnp",
            gnp_connected(64, 0.12, 14, WeightStrategy::DistinctRandom { seed: 14 }),
        ),
        (
            "sparse-random",
            connected_random(48, 120, 13, WeightStrategy::DistinctRandom { seed: 13 }),
        ),
    ]
}

/// The shard counts every sharded-equivalence test sweeps (≥ 2 shards each;
/// 5 does not divide any of the test graphs evenly, 8 forces tiny shards).
const SHARD_COUNTS: [usize; 3] = [2, 5, 8];

#[test]
fn max_id_flood_is_deterministic_across_runs() {
    for (name, g) in graphs() {
        for sim in sims(&g) {
            let a = sim
                .run(g.nodes().map(|_| MaxIdFlood::new()).collect::<Vec<_>>())
                .unwrap();
            let b = sim
                .run(g.nodes().map(|_| MaxIdFlood::new()).collect::<Vec<_>>())
                .unwrap();
            assert_identical(&a, &b, name);
            let want = g.nodes().map(|u| g.id(u)).max();
            assert!(
                a.outputs.iter().all(|o| *o == want),
                "{name}: wrong flood result"
            );
        }
    }
}

#[test]
fn pull_plane_matches_push_reference_exactly() {
    for (name, g) in graphs() {
        for sim in sims(&g) {
            let pull = sim
                .run(g.nodes().map(|_| MaxIdFlood::new()).collect::<Vec<_>>())
                .unwrap();
            let push = sim
                .executor(Engine::Reference)
                .run(g.nodes().map(|_| MaxIdFlood::new()).collect::<Vec<_>>())
                .unwrap();
            assert_identical(&pull, &push, name);
        }
    }
}

#[test]
fn sparse_traffic_matches_push_reference_exactly() {
    for (name, g) in graphs() {
        for sim in sims(&g) {
            let mk = || {
                g.nodes()
                    .map(|_| MinForward {
                        best: 0,
                        rounds_left: 40,
                    })
                    .collect::<Vec<_>>()
            };
            let pull = sim.run(mk()).unwrap();
            let push = sim.executor(Engine::Reference).run(mk()).unwrap();
            assert_identical(&pull, &push, name);
        }
    }
}

#[test]
fn sync_boruvka_reproduces_identical_runs_under_both_models() {
    let g = connected_random(40, 100, 21, WeightStrategy::DistinctRandom { seed: 21 });
    for sim in [
        Sim::on(&g),
        Sim::on(&g).model(Model::congest_for(g.node_count())),
    ] {
        let (out_a, stats_a) = SyncBoruvkaMst.run(&sim).unwrap();
        let (out_b, stats_b) = SyncBoruvkaMst.run(&sim).unwrap();
        assert_eq!(out_a, out_b, "sync-boruvka outputs must be reproducible");
        assert_eq!(stats_a, stats_b, "sync-boruvka stats must be reproducible");
        lma_mst::verify::verify_upward_outputs(&g, &out_a).unwrap();
    }
}

#[test]
fn trace_round_numbers_and_totals_are_consistent() {
    let g = ring(12, WeightStrategy::DistinctRandom { seed: 5 });
    let result = Sim::on(&g)
        .trace(true)
        .run(g.nodes().map(|_| MaxIdFlood::new()).collect::<Vec<_>>())
        .unwrap();
    let trace = result.trace.unwrap();
    assert_eq!(trace.len() as u64, result.stats.total_messages);
    assert!(trace
        .iter()
        .all(|e| e.round >= 1 && e.round <= result.stats.rounds));
    assert!(trace
        .windows(2)
        .all(|w| (w[0].round, w[0].from, w[0].to) <= (w[1].round, w[1].from, w[1].to)));
}

#[test]
fn descending_port_sends_trace_in_reference_order() {
    let graphs = [
        (
            "preferential-attachment",
            barabasi_albert(64, 3, 12, WeightStrategy::DistinctRandom { seed: 12 }),
        ),
        (
            "ring",
            ring(31, WeightStrategy::DistinctRandom { seed: 11 }),
        ),
    ];
    for (name, g) in &graphs {
        let mk = || {
            g.nodes()
                .map(|_| DescendingFlood {
                    best: 0,
                    rounds_left: 6,
                })
                .collect::<Vec<_>>()
        };
        let reference = Sim::on(g)
            .trace(true)
            .executor(Engine::Reference)
            .run(mk())
            .unwrap();
        // The program must actually emit some sender group against
        // receiver order, or the comparison below proves nothing.
        let out_of_order = g.nodes().any(|u| {
            let to: Vec<_> = g.incident(u).iter().map(|e| e.neighbor).collect();
            to.windows(2).any(|w| w[0] < w[1])
        });
        assert!(out_of_order, "{name}: descending ports are already sorted");
        for backing in Backing::ALL {
            for threads in [1usize, 2, 3] {
                for lanes in [1usize, 3] {
                    let fleets = (0..lanes).map(|_| mk()).collect();
                    let results = Sim::on(g)
                        .trace(true)
                        .backing(backing)
                        .threads(threads)
                        .batch(lanes)
                        .run(fleets)
                        .unwrap();
                    for (lane, result) in results.into_iter().enumerate() {
                        assert_identical(
                            &reference,
                            &result.unwrap(),
                            &format!("{name}/{backing:?}/threads={threads}/W={lanes}/lane={lane}"),
                        );
                    }
                }
            }
        }
    }
}

/// A program with a planted bug: node `culprit` sends twice through port 0
/// in round `at_round` (round 0 = init).
struct DuplicatePort {
    me: usize,
    culprit: usize,
    at_round: usize,
    done: bool,
}

impl NodeAlgorithm for DuplicatePort {
    type Msg = u64;
    type Output = ();

    fn init(&mut self, view: &LocalView) -> Outbox<u64> {
        self.me = view.node;
        if self.me == self.culprit && self.at_round == 0 {
            return vec![(0, 1), (0, 2)];
        }
        (0..view.degree()).map(|p| (p, 0)).collect()
    }

    fn round(&mut self, view: &LocalView, round: usize, _: &[(Port, u64)]) -> Outbox<u64> {
        if self.me == self.culprit && round == self.at_round {
            return vec![(0, 1), (0, 2)];
        }
        if round > self.at_round + 2 {
            self.done = true;
            return Vec::new();
        }
        (0..view.degree()).map(|p| (p, 0)).collect()
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn output(&self) -> Option<()> {
        self.done.then_some(())
    }
}

fn shard_engine(threads: usize) -> Engine {
    Engine::Threads(NonZeroUsize::new(threads).unwrap())
}

#[test]
fn sharded_matches_sequential_exactly_on_all_graph_families() {
    for (name, g) in graphs() {
        for sim in sims(&g) {
            let seq = sim
                .run(g.nodes().map(|_| MaxIdFlood::new()).collect::<Vec<_>>())
                .unwrap();
            for shards in SHARD_COUNTS {
                let par = sim
                    .executor(shard_engine(shards))
                    .run(g.nodes().map(|_| MaxIdFlood::new()).collect::<Vec<_>>())
                    .unwrap();
                assert_identical(&seq, &par, &format!("{name}/shards={shards}"));
            }
        }
    }
}

#[test]
fn sharded_matches_sequential_on_sparse_traffic() {
    for (name, g) in graphs() {
        for sim in sims(&g) {
            let mk = || {
                g.nodes()
                    .map(|_| MinForward {
                        best: 0,
                        rounds_left: 40,
                    })
                    .collect::<Vec<_>>()
            };
            let seq = sim.run(mk()).unwrap();
            for shards in SHARD_COUNTS {
                let par = sim.executor(shard_engine(shards)).run(mk()).unwrap();
                assert_identical(&seq, &par, &format!("{name}/shards={shards}"));
            }
        }
    }
}

#[test]
fn sim_threads_knob_dispatches_to_the_sharded_executor() {
    let g = grid(8, 8, WeightStrategy::DistinctRandom { seed: 3 });
    let seq = Sim::on(&g)
        .trace(true)
        .run(g.nodes().map(|_| MaxIdFlood::new()).collect::<Vec<_>>())
        .unwrap();
    for threads in [1usize, 2, 4] {
        let via_knob = Sim::on(&g)
            .trace(true)
            .threads(threads)
            .run(g.nodes().map(|_| MaxIdFlood::new()).collect::<Vec<_>>())
            .unwrap();
        assert_identical(&seq, &via_knob, &format!("threads={threads}"));
    }
}

#[test]
fn sharded_reports_the_same_malformed_outbox_error() {
    let g = ring(24, WeightStrategy::Unit);
    // The culprit in the middle of the node range lands in an interior
    // shard; plant the bug both at init and mid-run, and check it on both
    // plane backings (the arena detects duplicates through its own
    // occupancy set, so the error path is genuinely different code).
    for (culprit, at_round) in [(13usize, 0usize), (13, 2), (0, 1), (23, 3)] {
        let mk = || {
            g.nodes()
                .map(|_| DuplicatePort {
                    me: 0,
                    culprit,
                    at_round,
                    done: false,
                })
                .collect::<Vec<_>>()
        };
        let seq = Sim::on(&g).run(mk()).unwrap_err();
        assert!(matches!(seq, RunError::MalformedOutbox { .. }));
        for backing in Backing::ALL {
            let sim = Sim::on(&g).backing(backing);
            let seq_backed = sim.run(mk()).unwrap_err();
            assert_eq!(
                seq, seq_backed,
                "culprit {culprit} round {at_round} backing {backing:?}"
            );
            for shards in SHARD_COUNTS {
                let par = sim.executor(shard_engine(shards)).run(mk()).unwrap_err();
                assert_eq!(
                    seq, par,
                    "culprit {culprit} round {at_round} shards {shards} backing {backing:?}"
                );
            }
        }
    }
}

#[test]
fn sharded_reports_the_same_round_limit_error() {
    let g = ring(20, WeightStrategy::Unit);
    let sim = Sim::on(&g).round_limit(3);
    let mk = || g.nodes().map(|_| MaxIdFlood::new()).collect::<Vec<_>>();
    let seq = sim.run(mk()).unwrap_err();
    for shards in SHARD_COUNTS {
        let par = sim.executor(shard_engine(shards)).run(mk()).unwrap_err();
        assert_eq!(seq, par, "shards {shards}");
    }
}

#[test]
fn sharded_reports_the_same_congest_violation_error() {
    let g = ring(20, WeightStrategy::Unit);
    let sim = Sim::on(&g)
        .model(Model::Congest { bits: 1 })
        .enforce_congest(true);
    let mk = || g.nodes().map(|_| MaxIdFlood::new()).collect::<Vec<_>>();
    let seq = sim.run(mk()).unwrap_err();
    assert!(matches!(seq, RunError::CongestViolation { .. }));
    for shards in SHARD_COUNTS {
        let par = sim.executor(shard_engine(shards)).run(mk()).unwrap_err();
        assert_eq!(seq, par, "shards {shards}");
    }
}

/// The tentpole oracle of the arena refactor: for each LOCAL baseline, the
/// inline-backed plane, the arena-backed plane (sequential and sharded at
/// every shard count) and the push-based reference executor must produce
/// bit-identical outputs and stats.  `FloodCollectMst` is the variable-size
/// payload case the arena exists for; `SyncBoruvkaMst` is the most
/// protocol-heavy consumer of the simulator.
fn assert_baseline_backing_equivalence<B: NoAdviceMst>(baseline: B, g: &WeightedGraph) {
    let reference = baseline
        .run(&Sim::on(g).executor(Engine::Reference))
        .unwrap_or_else(|e| panic!("{}: push reference failed: {e}", baseline.name()));
    for backing in Backing::ALL {
        let sim = Sim::on(g).backing(backing);
        let seq = baseline
            .run(&sim.executor(shard_engine(1)))
            .unwrap_or_else(|e| panic!("{}: sequential failed: {e}", baseline.name()));
        assert_eq!(
            reference.0,
            seq.0,
            "{}: outputs diverged from push reference on {backing:?}",
            baseline.name()
        );
        assert_eq!(
            reference.1,
            seq.1,
            "{}: stats diverged from push reference on {backing:?}",
            baseline.name()
        );
        for shards in SHARD_COUNTS {
            let par = baseline
                .run(&sim.executor(shard_engine(shards)))
                .unwrap_or_else(|e| panic!("{}: sharded({shards}) failed: {e}", baseline.name()));
            assert_eq!(
                reference.0,
                par.0,
                "{}: outputs diverged on {backing:?} with {shards} shards",
                baseline.name()
            );
            assert_eq!(
                reference.1,
                par.1,
                "{}: stats diverged on {backing:?} with {shards} shards",
                baseline.name()
            );
        }
    }
}

#[test]
fn flood_collect_is_bit_identical_across_backings_shards_and_push() {
    let g = connected_random(26, 64, 41, WeightStrategy::DistinctRandom { seed: 41 });
    assert_baseline_backing_equivalence(FloodCollectMst, &g);
}

#[test]
fn sync_boruvka_is_bit_identical_across_backings_shards_and_push() {
    let g = connected_random(30, 75, 43, WeightStrategy::DistinctRandom { seed: 43 });
    assert_baseline_backing_equivalence(SyncBoruvkaMst, &g);
}

/// The batch widths every fleet-equivalence test sweeps (1 pins the
/// degenerate single-lane batch; 8 exercises multi-lane striping).
const BATCH_WIDTHS: [usize; 3] = [1, 2, 8];

#[test]
fn batched_fleets_match_sequential_lane_for_lane() {
    for (name, g) in graphs() {
        for sim in sims(&g) {
            let solo = sim
                .run(g.nodes().map(|_| MaxIdFlood::new()).collect::<Vec<_>>())
                .unwrap();
            for lanes in BATCH_WIDTHS {
                for threads in [1usize, 3] {
                    let fleets = (0..lanes)
                        .map(|_| g.nodes().map(|_| MaxIdFlood::new()).collect::<Vec<_>>())
                        .collect();
                    let results = sim.threads(threads).batch(lanes).run(fleets).unwrap();
                    assert_eq!(results.len(), lanes);
                    for (lane, result) in results.into_iter().enumerate() {
                        assert_identical(
                            &solo,
                            &result.unwrap(),
                            &format!("{name}/W={lanes}/threads={threads}/lane={lane}"),
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn batched_sparse_traffic_matches_sequential_lane_for_lane() {
    for (name, g) in graphs() {
        for sim in sims(&g) {
            let mk = || {
                g.nodes()
                    .map(|_| MinForward {
                        best: 0,
                        rounds_left: 40,
                    })
                    .collect::<Vec<_>>()
            };
            let solo = sim.run(mk()).unwrap();
            for lanes in BATCH_WIDTHS {
                let fleets = (0..lanes).map(|_| mk()).collect();
                let results = sim.batch(lanes).run(fleets).unwrap();
                for (lane, result) in results.into_iter().enumerate() {
                    assert_identical(
                        &solo,
                        &result.unwrap(),
                        &format!("{name}/W={lanes}/lane={lane}"),
                    );
                }
            }
        }
    }
}

#[test]
fn batched_lane_with_malformed_outbox_fails_alone() {
    let g = ring(24, WeightStrategy::Unit);
    // `usize::MAX` never matches a node, so that fleet runs clean; planting
    // the culprit in exactly one lane must reproduce the sequential error in
    // that lane — and only there.
    let mk = |culprit: usize| {
        g.nodes()
            .map(|_| DuplicatePort {
                me: 0,
                culprit,
                at_round: 2,
                done: false,
            })
            .collect::<Vec<_>>()
    };
    let solo_ok = Sim::on(&g).run(mk(usize::MAX)).unwrap();
    let solo_err = Sim::on(&g).run(mk(13)).unwrap_err();
    assert!(matches!(solo_err, RunError::MalformedOutbox { .. }));
    let lanes = 4;
    let rogue = 2;
    for backing in Backing::ALL {
        for threads in [1usize, 3] {
            let sim = Sim::on(&g).backing(backing).threads(threads);
            let fleets = (0..lanes)
                .map(|l| mk(if l == rogue { 13 } else { usize::MAX }))
                .collect();
            let results = sim.batch(lanes).run(fleets).unwrap();
            assert_eq!(results.len(), lanes);
            for (lane, result) in results.into_iter().enumerate() {
                let what = format!("backing {backing:?} threads {threads} lane {lane}");
                if lane == rogue {
                    assert_eq!(result.unwrap_err(), solo_err, "{what}");
                } else {
                    let clean =
                        result.unwrap_or_else(|e| panic!("{what}: a clean lane failed with {e}"));
                    assert_eq!(clean.outputs, solo_ok.outputs, "{what}: outputs diverged");
                    assert_eq!(clean.stats, solo_ok.stats, "{what}: stats diverged");
                }
            }
        }
    }
}

#[test]
fn sharded_sync_boruvka_matches_sequential() {
    let g = connected_random(60, 150, 31, WeightStrategy::DistinctRandom { seed: 31 });
    for threads in [2usize, 4] {
        let seq = SyncBoruvkaMst.run(&Sim::on(&g)).unwrap();
        let par = SyncBoruvkaMst.run(&Sim::on(&g).threads(threads)).unwrap();
        assert_eq!(seq.0, par.0, "sync-boruvka outputs diverged");
        assert_eq!(seq.1, par.1, "sync-boruvka stats diverged");
    }
}

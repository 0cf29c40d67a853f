//! Equivalence suite for sparse frontier execution.
//!
//! The frontier schedule (`FrontierMode::{Auto, Dense, Sparse}`) is a pure
//! *scheduling* knob: for a program that honours the
//! [`NodeAlgorithm::MESSAGE_DRIVEN`] contract, every mode on every executor
//! (one thread, sharded — and the push-based reference, which never skips
//! anyone) must produce bit-identical outputs, stats, traces and error
//! paths.  These tests pin exactly that, plus the schedule-*independent*
//! observability contract: the recorded `per_round_active_nodes` is the
//! same whatever the mode or engine (only `per_round_sparse`, the decision
//! itself, may differ between modes — within one mode it is the same on
//! every engine).

use lma_baselines::WaveFlood;
use lma_graph::generators::{gnp_connected, grid, ring, torus};
use lma_graph::weights::WeightStrategy;
use lma_graph::{Port, WeightedGraph};
use lma_sim::digest::fold_result;
use lma_sim::{
    Backing, DigestWriter, Engine, FleetWorkload, FrontierMode, LocalView, NodeAlgorithm, Outbox,
    RunError, RunResult, RunSummary, Sim, Workload, WorkloadError,
};
use proptest::prelude::*;

const MODES: [FrontierMode; 3] = [
    FrontierMode::Auto,
    FrontierMode::Dense,
    FrontierMode::Sparse,
];

/// Which nodes of a wave fleet decline the sparse schedule.
type EagerMask = fn(usize) -> bool;

/// A wave fleet on `g`: node 0 is the source; nodes where `eager(u)` holds
/// decline the sparse schedule at the instance level (mixed fleets).
fn wave_fleet(g: &WeightedGraph, eager: impl Fn(usize) -> bool) -> Vec<WaveFlood> {
    g.nodes()
        .map(|u| {
            if eager(u) {
                WaveFlood::eager(u == 0)
            } else {
                WaveFlood::new(u == 0)
            }
        })
        .collect()
}

/// Bit-identical results, including the mode-independent frontier counts.
fn assert_identical(a: &RunResult<(u64, u64)>, b: &RunResult<(u64, u64)>, what: &str) {
    assert_eq!(a.outputs, b.outputs, "{what}: outputs diverged");
    assert_eq!(a.stats, b.stats, "{what}: stats diverged");
    assert_eq!(a.trace, b.trace, "{what}: trace diverged");
    assert_eq!(
        a.stats.per_round_active_nodes, b.stats.per_round_active_nodes,
        "{what}: per-round active counts diverged (they are schedule-independent)"
    );
}

/// Graphs whose frontier spans several 64-node bitset words, so the
/// sharded engines' word-by-word frontier hand-off crosses shard
/// boundaries mid-word: a long ring (a 2–4-node front for 150 rounds), a
/// grid (a diagonal front) and a torus (whose front shrinks after it meets
/// itself).
fn multiword_graphs() -> Vec<(&'static str, WeightedGraph)> {
    vec![
        (
            "ring/300",
            ring(300, WeightStrategy::DistinctRandom { seed: 74 }),
        ),
        (
            "grid/20x20",
            grid(20, 20, WeightStrategy::DistinctRandom { seed: 75 }),
        ),
        (
            "torus/18x18",
            torus(18, 18, WeightStrategy::DistinctRandom { seed: 76 }),
        ),
    ]
}

fn graphs() -> Vec<(&'static str, WeightedGraph)> {
    let mut graphs = vec![
        (
            "ring",
            ring(29, WeightStrategy::DistinctRandom { seed: 71 }),
        ),
        (
            "grid",
            grid(5, 8, WeightStrategy::DistinctRandom { seed: 72 }),
        ),
        (
            "gnp",
            gnp_connected(48, 0.1, 73, WeightStrategy::DistinctRandom { seed: 73 }),
        ),
    ];
    graphs.extend(multiword_graphs());
    graphs
}

/// The deterministic tentpole pin: force-sparse ≡ force-dense ≡ auto on
/// every backing and thread count, and all of them ≡ the push reference.
/// Within one mode, every thread count also takes the sequential run's
/// sparse/dense decision in every round.  Three fleets per graph: fully
/// message-driven, every instance eager (dense schedule by contract), and
/// every third node eager (a mixed fleet).
#[test]
fn forced_sparse_equals_forced_dense_across_executors_and_backings() {
    let fleets: [(&str, EagerMask); 3] = [
        ("message-driven", |_| false),
        ("eager", |_| true),
        ("every-third-eager", |u| u % 3 == 0),
    ];
    for (name, g) in graphs() {
        for (fleet, eager) in fleets {
            for backing in Backing::ALL {
                let base = Sim::on(&g).trace(true).backing(backing);
                let dense = base
                    .frontier(FrontierMode::Dense)
                    .run(wave_fleet(&g, eager))
                    .unwrap();
                for mode in MODES {
                    let sequential = base.frontier(mode).run(wave_fleet(&g, eager)).unwrap();
                    for threads in [1usize, 2, 3] {
                        let run = base
                            .frontier(mode)
                            .threads(threads)
                            .run(wave_fleet(&g, eager))
                            .unwrap();
                        let what = format!(
                            "{name}/{fleet}/{backing:?}/{}/threads={threads}",
                            mode.label()
                        );
                        assert_identical(&dense, &run, &what);
                        assert_eq!(
                            run.stats.per_round_sparse, sequential.stats.per_round_sparse,
                            "{what}: per-round sparse decisions diverged from the sequential run"
                        );
                    }
                }
                let push = base
                    .executor(Engine::Reference)
                    .run(wave_fleet(&g, eager))
                    .unwrap();
                // The oracle records no frontier, so compare the run
                // artefacts (stats equality already excludes the frontier
                // observability).
                assert_eq!(push.outputs, dense.outputs, "{name}/{fleet}: push outputs");
                assert_eq!(push.stats, dense.stats, "{name}/{fleet}: push stats");
                assert_eq!(push.trace, dense.trace, "{name}/{fleet}: push trace");
                assert!(push.stats.per_round_active_nodes.is_empty());
            }
        }
    }
}

/// A wave workload whose prep is the fleet's eager mask, so one batch can
/// hold a message-driven, an all-eager and a mixed lane.
struct MaskedWave;

impl FleetWorkload for MaskedWave {
    type Prep = EagerMask;
    type Program = WaveFlood;
    type Outcome = RunResult<(u64, u64)>;

    fn name(&self) -> &'static str {
        "masked-wave"
    }

    fn prepare(&self, _graph: &WeightedGraph) -> Result<EagerMask, WorkloadError> {
        Ok(|_| false)
    }

    fn programs(&self, graph: &WeightedGraph, eager: &EagerMask) -> Vec<WaveFlood> {
        wave_fleet(graph, eager)
    }

    fn collate(
        &self,
        _graph: &WeightedGraph,
        _eager: EagerMask,
        result: RunResult<(u64, u64)>,
    ) -> Result<RunResult<(u64, u64)>, WorkloadError> {
        Ok(result)
    }

    fn fold(&self, w: &mut DigestWriter, outcome: &RunResult<(u64, u64)>) {
        fold_result(w, outcome, |w, (id, round)| {
            w.u64(*id);
            w.u64(*round);
        });
    }

    fn summary(&self, outcome: &RunResult<(u64, u64)>) -> RunSummary {
        RunSummary::of_stats(&outcome.stats)
    }
}

/// Batch lanes — including a mixed fleet where only some lanes' programs
/// are message-driven — match their solo runs lane for lane, with
/// lane-exact frontier counts, on one thread and sharded.  Every lane of
/// every thread count must also take the one-thread batch's sparse/dense
/// decision in every round.
#[test]
fn batched_wave_lanes_match_solo_runs_including_mixed_eager_lanes() {
    let mut graphs = vec![(
        "gnp",
        gnp_connected(40, 0.12, 77, WeightStrategy::DistinctRandom { seed: 77 }),
    )];
    graphs.extend(multiword_graphs());
    // Lane 0: fully message-driven; lane 1: every instance eager (dense
    // schedule by contract); lane 2: every third node eager.
    let lane_masks: [EagerMask; 3] = [|_| false, |_| true, |u| u % 3 == 0];
    for (name, g) in &graphs {
        for backing in Backing::ALL {
            for mode in MODES {
                let sim = Sim::on(g).trace(true).backing(backing).frontier(mode);
                let solos: Vec<RunResult<(u64, u64)>> = lane_masks
                    .iter()
                    .map(|mask| sim.run(wave_fleet(g, mask)).unwrap())
                    .collect();
                let sequential =
                    MaskedWave.execute_batch(&sim.batch(lane_masks.len()), lane_masks.to_vec());
                for threads in [1usize, 2, 3] {
                    let batch = sim.threads(threads).batch(lane_masks.len());
                    let results = MaskedWave.execute_batch(&batch, lane_masks.to_vec());
                    assert_eq!(results.len(), lane_masks.len());
                    for (l, (solo, lane)) in solos.iter().zip(results).enumerate() {
                        let lane = lane.unwrap();
                        let what = format!(
                            "{name}/{backing:?}/{}/threads={threads}/lane={l}",
                            mode.label()
                        );
                        assert_identical(solo, &lane, &what);
                        assert_eq!(
                            lane.stats.per_round_sparse,
                            sequential[l].as_ref().unwrap().stats.per_round_sparse,
                            "{what}: per-round sparse decisions diverged from the one-thread batch"
                        );
                    }
                }
            }
        }
    }
}

/// A message-driven wave whose designated node also sends through a port it
/// does not have when the wave reaches it — the malformed-outbox error path
/// under the sparse schedule.
struct RogueWave {
    inner: WaveFlood,
    rogue: bool,
}

impl NodeAlgorithm for RogueWave {
    type Msg = u64;
    type Output = (u64, u64);

    const MESSAGE_DRIVEN: bool = true;

    fn message_driven(&self) -> bool {
        self.inner.message_driven()
    }

    fn init(&mut self, view: &LocalView) -> Outbox<u64> {
        self.inner.init(view)
    }

    fn round(&mut self, view: &LocalView, round: usize, inbox: &[(Port, u64)]) -> Outbox<u64> {
        let mut out = self.inner.round(view, round, inbox);
        if self.rogue && !out.is_empty() {
            out.push((view.degree(), 7));
        }
        out
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn output(&self) -> Option<(u64, u64)> {
        self.inner.output()
    }
}

#[test]
fn malformed_outbox_mid_wave_fails_identically_under_every_schedule() {
    let g = ring(26, WeightStrategy::Unit);
    // Node 9 turns rogue the round the wave reaches it (round 9), well into
    // the sparse regime.
    let mk = || {
        g.nodes()
            .map(|u| RogueWave {
                inner: WaveFlood::new(u == 0),
                rogue: u == 9,
            })
            .collect::<Vec<_>>()
    };
    let want = Sim::on(&g)
        .frontier(FrontierMode::Dense)
        .run(mk())
        .unwrap_err();
    assert!(matches!(want, RunError::MalformedOutbox { node: 9, .. }));
    for backing in Backing::ALL {
        for mode in MODES {
            for threads in [1usize, 3] {
                let sim = Sim::on(&g).backing(backing).frontier(mode).threads(threads);
                let err = sim.run(mk()).unwrap_err();
                assert_eq!(
                    err,
                    want,
                    "backing {backing:?} mode {} threads {threads}",
                    mode.label()
                );
            }
        }
    }
}

/// The auto heuristic actually engages: a ring wave touches at most 4 nodes
/// a round (two wavefront tips plus the neighbours they echo back to), so
/// every round runs sparse, and the run summary surfaces the schedule
/// without perturbing the digest-bearing fields.
#[test]
fn auto_mode_goes_sparse_on_a_ring_wave_and_reports_it() {
    let g = ring(64, WeightStrategy::Unit);
    let auto = Sim::on(&g)
        .frontier(FrontierMode::Auto)
        .run(wave_fleet(&g, |_| false))
        .unwrap();
    assert!(
        auto.stats.per_round_sparse.iter().all(|&s| s),
        "a ≤4-node frontier on a 64-ring must always go sparse"
    );
    assert!(auto
        .stats
        .per_round_active_nodes
        .iter()
        .all(|&a| (1..=4).contains(&a)));
    let profile = RunSummary::of_stats(&auto.stats).frontier.unwrap();
    assert_eq!(profile.sparse_rounds, auto.stats.rounds);
    assert_eq!(profile.dense_rounds, 0);
    assert_eq!(
        profile.peak_active,
        auto.stats
            .per_round_active_nodes
            .iter()
            .copied()
            .max()
            .unwrap()
    );

    let dense = Sim::on(&g)
        .frontier(FrontierMode::Dense)
        .run(wave_fleet(&g, |_| false))
        .unwrap();
    assert!(dense.stats.per_round_sparse.iter().all(|&s| !s));
    assert_eq!(
        dense.stats.per_round_active_nodes,
        auto.stats.per_round_active_nodes
    );
    // A fully eager fleet keeps every node on the frontier, so auto stays
    // dense and the schedule degenerates to today's scan — same artefacts,
    // but the recorded counts now reflect the whole fleet.
    let eager = Sim::on(&g)
        .frontier(FrontierMode::Auto)
        .run(wave_fleet(&g, |_| true))
        .unwrap();
    assert_eq!(eager.outputs, dense.outputs, "eager wave: outputs");
    assert_eq!(eager.stats, dense.stats, "eager wave: stats");
    assert_eq!(eager.trace, dense.trace, "eager wave: trace");
    assert!(eager.stats.per_round_sparse.iter().all(|&s| !s));
    assert!(
        eager
            .stats
            .per_round_active_nodes
            .iter()
            .all(|&a| a == g.node_count() as u64),
        "an eager instance stays on the frontier even once done"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random G(n, p) graphs, thread counts, backings and eager mixes: the
    /// sparse, dense and auto schedules agree bit-for-bit with each other
    /// and across the sequential and sharded executors.
    #[test]
    fn frontier_schedules_agree_on_random_graphs(
        n in 8usize..40,
        p_mil in 80u32..400,
        seed in 0u64..500,
        backing_ix in 0usize..Backing::ALL.len(),
        threads in 1usize..4,
        eager_stride in 0usize..4,
    ) {
        let p = f64::from(p_mil) / 1000.0;
        let g = gnp_connected(n, p, seed, WeightStrategy::DistinctRandom { seed });
        let backing = Backing::ALL[backing_ix];
        let eager = move |u: usize| eager_stride != 0 && u.is_multiple_of(eager_stride + 1);
        let base = Sim::on(&g).trace(true).backing(backing);
        let dense = base.frontier(FrontierMode::Dense).run(wave_fleet(&g, eager)).unwrap();
        for mode in MODES {
            let sim = base.frontier(mode).threads(threads);
            let run = sim.run(wave_fleet(&g, eager)).unwrap();
            assert_identical(&dense, &run, &format!("solo {}", mode.label()));
        }
    }
}

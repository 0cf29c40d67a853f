//! Criterion benches for the substrates: graph generation, sequential MST
//! algorithms, the Borůvka decomposition, and — the headline of this file —
//! the simulator's message-routing cost.
//!
//! The `routing` group drives the same flooding program through every
//! engine — the pull-based message plane on one thread (`Sim::run`), the
//! same kernel shard-parallel at 2 and 4 worker threads with the partition
//! built once and reused (`Sim::with_partition`), and the preserved
//! push-based reference executor (`lma_sim::reference::run_push`) — on
//! ring, 2-D grid and G(n, p) graphs at 10⁴–10⁵ nodes, under both a LOCAL
//! and a CONGEST-audit configuration, so the executor trajectory (push →
//! pull → sharded) stays visible in `BENCH_bench_substrate.json` per PR.
//! The sharded entries are only meaningful relative to `pull` on multi-core
//! hosts — the JSON records `host_cpus` so single-core CI numbers are not
//! misread as regressions.
//!
//! The `gossip` group drives a variable-size-payload broadcast (a
//! `Knowledge` message carrying an edge-fact vector, the LOCAL baselines'
//! message shape) through the inline plane backing, the arena plane backing
//! and the push reference on ring and G(n, p) graphs, so the
//! arena-vs-inline allocation win lands in the committed trajectory next to
//! the push → pull → sharded one.
//!
//! The `frontier` group measures sparse frontier execution: a
//! message-driven BFS wave under the forced-dense, forced-sparse and auto
//! schedules on long-diameter rings (where the active set is 2–4 nodes for
//! thousands of rounds), a grid, and a dense G(n, p) control where auto
//! must match dense within noise.  `sharded2/auto` cells run the ring and
//! grid waves on two shards, where near-empty rounds make the per-round
//! barrier and frontier hand-off the whole cost.  Per-run time via
//! `Throughput::Elements(1)`.
//!
//! The `trace` group prices delivery tracing on the registry's
//! `flood/preferential-attachment/n64/s12` topology: a [`MaxFlood`] fleet
//! with the trace off and on, each cell reporting time per run.
//!
//! The `driver` group times a plain [`Sim`]-built run, the end-to-end
//! entry point every caller uses.

#![forbid(unsafe_code)]
//!
//! `-- --smoke` shrinks the scaling graphs to 10³–10⁴ nodes (gossip to
//! 256–1024, frontier waves to 256–1024) and clamps the
//! sample counts (see the vendored criterion shim), which is what the CI
//! smoke job runs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lma_baselines::flood_collect::FixedGossip;
use lma_baselines::{MaxFlood, WaveFlood};
use lma_graph::generators::{complete, connected_random, gnp_connected, grid, ring, Family};
use lma_graph::weights::WeightStrategy;
use lma_graph::{Partition, Port, WeightedGraph};
use lma_mst::boruvka::{run_boruvka, BoruvkaConfig};
use lma_mst::{kruskal_mst, prim_mst, UnionFind};
use lma_sim::{Backing, Engine, FrontierMode, LocalView, Model, NodeAlgorithm, Outbox, Sim};
use std::hint::black_box;

fn bench_union_find(c: &mut Criterion) {
    let mut group = c.benchmark_group("union_find");
    for n in [1_000usize, 10_000] {
        group.bench_with_input(BenchmarkId::new("union_all", n), &n, |b, &n| {
            b.iter(|| {
                let mut uf = UnionFind::new(n);
                for i in 1..n {
                    uf.union(i - 1, i);
                }
                black_box(uf.components())
            });
        });
    }
    group.finish();
}

fn bench_generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("generators");
    for n in [128usize, 512] {
        group.bench_with_input(BenchmarkId::new("connected_random", n), &n, |b, &n| {
            b.iter(|| {
                black_box(connected_random(
                    n,
                    3 * n,
                    7,
                    WeightStrategy::DistinctRandom { seed: 7 },
                ))
            });
        });
        group.bench_with_input(BenchmarkId::new("complete", n), &n, |b, &n| {
            b.iter(|| {
                black_box(complete(
                    n.min(256),
                    WeightStrategy::DistinctRandom { seed: 3 },
                ))
            });
        });
    }
    // The skip-sampling G(n, p) generator must stay usable at plane scale.
    group.bench_with_input(
        BenchmarkId::new("gnp_connected", 10_000),
        &10_000usize,
        |b, &n| {
            b.iter(|| {
                black_box(gnp_connected(
                    n,
                    3.0 * (n as f64).ln() / n as f64,
                    5,
                    WeightStrategy::DistinctRandom { seed: 5 },
                ))
            });
        },
    );
    group.finish();
}

fn bench_sequential_mst(c: &mut Criterion) {
    let mut group = c.benchmark_group("sequential_mst");
    for n in [256usize, 1024] {
        let g = connected_random(n, 4 * n, 11, WeightStrategy::DistinctRandom { seed: 11 });
        group.bench_with_input(BenchmarkId::new("kruskal", n), &g, |b, g| {
            b.iter(|| black_box(kruskal_mst(g)));
        });
        group.bench_with_input(BenchmarkId::new("prim", n), &g, |b, g| {
            b.iter(|| black_box(prim_mst(g)));
        });
        group.bench_with_input(BenchmarkId::new("boruvka_decomposition", n), &g, |b, g| {
            b.iter(|| black_box(run_boruvka(g, &BoruvkaConfig::default()).unwrap()));
        });
    }
    group.finish();
}

/// A trivial flooding program used to measure the simulator's per-round cost
/// (every port carries one message every round: the worst case for routing).
struct Ping {
    rounds_left: usize,
}

impl NodeAlgorithm for Ping {
    type Msg = u64;
    type Output = ();

    fn init(&mut self, view: &LocalView) -> Outbox<u64> {
        (0..view.degree()).map(|p| (p, view.id)).collect()
    }

    fn round(&mut self, view: &LocalView, _round: usize, _inbox: &[(Port, u64)]) -> Outbox<u64> {
        if self.rounds_left == 0 {
            return Vec::new();
        }
        self.rounds_left -= 1;
        (0..view.degree()).map(|p| (p, view.id)).collect()
    }

    fn is_done(&self) -> bool {
        self.rounds_left == 0
    }

    fn output(&self) -> Option<()> {
        (self.rounds_left == 0).then_some(())
    }
}

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    for n in [128usize, 512] {
        let g = ring(n, WeightStrategy::Unit);
        group.bench_with_input(BenchmarkId::new("ring_50_rounds", n), &g, |b, g| {
            b.iter(|| {
                let programs: Vec<Ping> = (0..g.node_count())
                    .map(|_| Ping { rounds_left: 50 })
                    .collect();
                black_box(Sim::on(g).run(programs).unwrap().stats.rounds)
            });
        });
    }
    group.finish();
}

/// Rounds driven per iteration in the scaling scenarios.
const SCALE_ROUNDS: usize = 10;

/// Sharded-executor worker counts measured in the scaling scenarios.
const SHARD_THREADS: [usize; 2] = [2, 4];

/// The scaling-scenario graph families at 10⁴ and 10⁵ nodes (10³ and 10⁴ in
/// smoke mode, so CI does not pay 10⁵-node graph generation).
fn scaling_graphs() -> Vec<(String, WeightedGraph)> {
    let scales: [usize; 2] = if criterion::is_smoke() {
        [1_000, 10_000]
    } else {
        [10_000, 100_000]
    };
    let mut graphs = Vec::new();
    for scale in scales {
        graphs.push((format!("ring/{scale}"), ring(scale, WeightStrategy::Unit)));
        let side = (scale as f64).sqrt() as usize;
        graphs.push((
            format!("grid/{scale}"),
            grid(side, side, WeightStrategy::DistinctRandom { seed: 2 }),
        ));
        graphs.push((
            format!("gnp/{scale}"),
            gnp_connected(
                scale,
                2.0 * (scale as f64).ln() / scale as f64,
                3,
                WeightStrategy::DistinctRandom { seed: 3 },
            ),
        ));
    }
    graphs
}

/// The two configurations the scaling scenarios run under: plain LOCAL and a
/// CONGEST(Θ(log n)) audit (budget checked and counted, not enforced).
fn scaling_sims<'g>(g: &'g WeightedGraph) -> [(&'static str, Sim<'g>); 2] {
    [
        ("local", Sim::on(g)),
        (
            "congest-audit",
            Sim::on(g)
                .model(Model::congest_for(g.node_count()))
                .enforce_congest(false),
        ),
    ]
}

fn bench_routing_scaling(c: &mut Criterion) {
    let graphs = scaling_graphs();
    let mut group = c.benchmark_group("routing");
    group.throughput(Throughput::Elements(SCALE_ROUNDS as u64));
    let ping_fleet = |g: &WeightedGraph| -> Vec<Ping> {
        (0..g.node_count())
            .map(|_| Ping {
                rounds_left: SCALE_ROUNDS,
            })
            .collect()
    };
    for (name, g) in &graphs {
        for (model, sim) in scaling_sims(g) {
            group.bench_with_input(
                BenchmarkId::new(format!("pull/{model}"), name),
                g,
                |b, g| {
                    b.iter(|| black_box(sim.run(ping_fleet(g)).unwrap().stats.total_messages));
                },
            );
            // The multi-run harness path: the partition is built once per
            // scenario and reused by every iteration.
            for threads in SHARD_THREADS {
                let partition = Partition::new(g.csr(), threads);
                let sharded = sim.threads(threads).with_partition(&partition);
                group.bench_with_input(
                    BenchmarkId::new(format!("sharded{threads}/{model}"), name),
                    g,
                    |b, g| {
                        b.iter(|| {
                            black_box(sharded.run(ping_fleet(g)).unwrap().stats.total_messages)
                        });
                    },
                );
            }
            let push = sim.executor(Engine::Reference);
            group.bench_with_input(
                BenchmarkId::new(format!("push/{model}"), name),
                g,
                |b, g| {
                    b.iter(|| black_box(push.run(ping_fleet(g)).unwrap().stats.total_messages));
                },
            );
        }
    }
    group.finish();
}

/// Rounds driven per iteration in the gossip scenarios.
const GOSSIP_ROUNDS: usize = 10;

/// Edge facts carried by every gossip message (≈ the knowledge of a node
/// midway through a flood-collect run on these graphs).
const GOSSIP_FACTS: usize = 96;

/// Gossip-scenario graph families (ring and G(n, p), per the LOCAL
/// baselines' natural habitats).  Gossip traffic is Θ(messages × payload),
/// so the scales sit below the routing scenarios'.
fn gossip_graphs() -> Vec<(String, WeightedGraph)> {
    let scales: [usize; 2] = if criterion::is_smoke() {
        [256, 1_024]
    } else {
        [1_024, 4_096]
    };
    let mut graphs = Vec::new();
    for scale in scales {
        graphs.push((format!("ring/{scale}"), ring(scale, WeightStrategy::Unit)));
        graphs.push((
            format!("gnp/{scale}"),
            gnp_connected(
                scale,
                2.0 * (scale as f64).ln() / scale as f64,
                9,
                WeightStrategy::DistinctRandom { seed: 9 },
            ),
        ));
    }
    graphs
}

fn bench_gossip_backings(c: &mut Criterion) {
    let graphs = gossip_graphs();
    let mut group = c.benchmark_group("gossip");
    group.throughput(Throughput::Elements(GOSSIP_ROUNDS as u64));
    let fleet = |g: &WeightedGraph| -> Vec<FixedGossip> {
        g.nodes()
            .map(|u| FixedGossip::new(u as u64, GOSSIP_FACTS, GOSSIP_ROUNDS))
            .collect()
    };
    for (name, g) in &graphs {
        for backing in Backing::ALL {
            let sim = Sim::on(g).backing(backing);
            group.bench_with_input(BenchmarkId::new(backing.as_str(), name), g, |b, g| {
                b.iter(|| black_box(sim.run(fleet(g)).unwrap().stats.total_bits));
            });
        }
        // The push oracle clones every message twice over (outbox + inbox):
        // the historical worst case, kept for scale.
        let push = Sim::on(g).executor(Engine::Reference);
        group.bench_with_input(BenchmarkId::new("push", name), g, |b, g| {
            b.iter(|| black_box(push.run(fleet(g)).unwrap().stats.total_bits));
        });
        // Small-message control: the same backing sweep with a bare `u64`
        // payload (a couple of LEB128 bytes), where the arena's codec
        // round-trip is all overhead — the other end of the payload-size
        // axis from the `Knowledge` flood above.
        let small_fleet = |g: &WeightedGraph| -> Vec<Ping> {
            (0..g.node_count())
                .map(|_| Ping {
                    rounds_left: GOSSIP_ROUNDS,
                })
                .collect()
        };
        for backing in Backing::ALL {
            let sim = Sim::on(g).backing(backing);
            group.bench_with_input(
                BenchmarkId::new(format!("u64-{}", backing.as_str()), name),
                g,
                |b, g| {
                    b.iter(|| black_box(sim.run(small_fleet(g)).unwrap().stats.total_bits));
                },
            );
        }
    }
    group.finish();
}

/// Frontier-scenario graph families: long-diameter rings (a 2-tip wavefront
/// for thousands of rounds — the sparse schedule's home turf), a same-scale
/// grid (√n-wide wavefront, the middle ground), and a dense G(n, p) control
/// whose wave covers most nodes within a handful of rounds, so the auto
/// heuristic must *not* pay for sparseness that is not there.
fn frontier_graphs() -> Vec<(String, WeightedGraph)> {
    let (small, large): (usize, usize) = if criterion::is_smoke() {
        (256, 1_024)
    } else {
        (1_024, 4_096)
    };
    let side = (large as f64).sqrt() as usize;
    vec![
        (format!("ring/{small}"), ring(small, WeightStrategy::Unit)),
        (format!("ring/{large}"), ring(large, WeightStrategy::Unit)),
        (
            format!("grid/{}", side * side),
            grid(side, side, WeightStrategy::DistinctRandom { seed: 23 }),
        ),
        (
            format!("gnp/{large}"),
            gnp_connected(
                large,
                2.0 * (large as f64).ln() / large as f64,
                23,
                WeightStrategy::DistinctRandom { seed: 23 },
            ),
        ),
    ]
}

/// The `frontier` group: a message-driven BFS wave ([`WaveFlood`]) under the
/// forced-dense, forced-sparse and auto schedules.  `Throughput::Elements(1)`
/// makes every cell's `per_element_ns` the time per *run*, so the
/// sparse-vs-dense runs/sec ratio — the point of the active-set loop — reads
/// straight off the committed JSON, with the G(n, p) cells as the
/// dense-control (auto must sit within noise of dense there).  The ring and
/// grid waves also run in auto mode on the 2-shard executor (`sharded2`),
/// whose fixed cost per round is one barrier arrival plus the frontier
/// hand-off.
fn bench_frontier_schedules(c: &mut Criterion) {
    let graphs = frontier_graphs();
    let mut group = c.benchmark_group("frontier");
    group.throughput(Throughput::Elements(1));
    let fleet = |g: &WeightedGraph| -> Vec<WaveFlood> {
        g.nodes().map(|u| WaveFlood::new(u == 0)).collect()
    };
    for (name, g) in &graphs {
        for mode in [
            FrontierMode::Dense,
            FrontierMode::Sparse,
            FrontierMode::Auto,
        ] {
            let sim = Sim::on(g).frontier(mode);
            group.bench_with_input(BenchmarkId::new(mode.label(), name), g, |b, g| {
                b.iter(|| black_box(sim.run(fleet(g)).unwrap().stats.rounds));
            });
        }
        if name.starts_with("gnp") {
            continue;
        }
        let partition = Partition::new(g.csr(), 2);
        let sim = Sim::on(g)
            .frontier(FrontierMode::Auto)
            .threads(2)
            .with_partition(&partition);
        group.bench_with_input(BenchmarkId::new("sharded2/auto", name), g, |b, g| {
            b.iter(|| black_box(sim.run(fleet(g)).unwrap().stats.rounds));
        });
    }
    group.finish();
}

/// The `trace` group: the cost of delivery tracing on a flood.  Each traced
/// run returns every delivery (`2 · |E| · n` events here), so the gap
/// between `solo` and `solo-traced` is the trace's whole price.
fn bench_trace(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace");
    let name = "preferential-attachment/n64";
    let g = Family::PreferentialAttachment.instantiate(
        64,
        WeightStrategy::DistinctRandom { seed: 12 },
        12,
    );
    let fleet =
        |g: &WeightedGraph| -> Vec<MaxFlood> { g.nodes().map(|_| MaxFlood::new()).collect() };
    group.throughput(Throughput::Elements(1));
    for (label, sim) in [
        ("solo", Sim::on(&g)),
        ("solo-traced", Sim::on(&g).trace(true)),
    ] {
        group.bench_with_input(BenchmarkId::new(label, name), &g, |b, g| {
            b.iter(|| black_box(sim.run(fleet(g)).unwrap().stats.total_messages));
        });
    }
    group.finish();
}

/// Rounds driven per iteration in the driver scenario.
const DRIVER_ROUNDS: usize = 10;

/// The `driver` group: one pool-warmed [`Sim`]-built run on a ring.
fn bench_driver_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("driver");
    group.throughput(Throughput::Elements(DRIVER_ROUNDS as u64));
    let n = if criterion::is_smoke() { 256 } else { 1_024 };
    let g = ring(n, WeightStrategy::Unit);
    let fleet = |g: &WeightedGraph| -> Vec<Ping> {
        (0..g.node_count())
            .map(|_| Ping {
                rounds_left: DRIVER_ROUNDS,
            })
            .collect()
    };
    group.bench_with_input(BenchmarkId::new("sim-builder", n), &g, |b, g| {
        b.iter(|| black_box(Sim::on(g).run(fleet(g)).unwrap().stats.total_messages));
    });
    group.finish();
}

criterion_group! {
    name = substrate;
    config = Criterion::default().sample_size(10);
    targets = bench_union_find, bench_generators, bench_sequential_mst, bench_simulator,
        bench_routing_scaling, bench_gossip_backings,
        bench_frontier_schedules, bench_trace, bench_driver_overhead
}
criterion_main!(substrate);

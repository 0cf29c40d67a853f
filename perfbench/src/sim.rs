//! The in-process workloads: `sim-dense` (gossip) and `sim-sparse` (wave).
//!
//! Each cell is one (graph, threads, backing, lanes) configuration of one
//! program.  A pass runs every cell `weight` times; the weights are frozen
//! so that each cell takes a similar share of a pass on the reference host,
//! which keeps a regression in a cheap cell visible in `throughput_rps`.
//! One run is one cell execution: a solo run, or one lockstep batch whose
//! lanes are each verified.

use crate::trace::{mean, SpanId, Tracer};
use crate::{end_to_end, median, proc_cpu_ms, proc_status_kb, Args, Metrics, Outcome, Window};
use lma_baselines::{GossipWorkload, WaveWorkload};
use lma_bench::scenarios::scenario_fold_header;
use lma_graph::generators::Family;
use lma_graph::weights::WeightStrategy;
use lma_graph::{Partition, SplitMix64, WeightedGraph};
use lma_sim::{run_workload, Backing, RunSummary, Sim, Workload};
use std::time::{Duration, Instant};

pub enum Kind {
    Dense,
    Sparse,
}

/// Every cell of both workloads (per-layer metric names use these).
pub const CELL_NAMES: [&str; 9] = [
    "gossip-t1-inline",
    "gossip-t2-inline",
    "gossip-t1-arena",
    "gossip-t2-arena",
    "gossip-batch8",
    "wave-ring-t1",
    "wave-ring-t2",
    "wave-torus-t1",
    "wave-torus-t2",
];

/// (program, 1-thread cell, 2-thread cell) pairs behind `sim.t2_speedup`.
pub const T2_PAIRS: [(&str, &str, &str); 4] = [
    ("gossip-inline", "gossip-t1-inline", "gossip-t2-inline"),
    ("gossip-arena", "gossip-t1-arena", "gossip-t2-arena"),
    ("wave-ring", "wave-ring-t1", "wave-ring-t2"),
    ("wave-torus", "wave-torus-t1", "wave-torus-t2"),
];

/// One graph of a workload; its runs share one expected outcome.
struct GraphSpec {
    /// Name of the run group (per-layer count metrics use it).
    group: &'static str,
    family: Family,
    n: usize,
}

/// The run groups of both workloads, in [`GraphSpec`] order.
pub const RUN_GROUPS: [&str; 4] = ["gossip", "gossip-batch8", "wave-ring", "wave-torus"];

struct CellSpec {
    name: &'static str,
    /// Index into the workload's graphs.
    graph: usize,
    threads: usize,
    backing: Backing,
    /// Lockstep lanes (1 = an ordinary solo run).
    lanes: usize,
    /// Runs per pass.
    weight: usize,
}

const fn cell(
    name: &'static str,
    graph: usize,
    threads: usize,
    backing: Backing,
    lanes: usize,
    weight: usize,
) -> CellSpec {
    CellSpec {
        name,
        graph,
        threads,
        backing,
        lanes,
        weight,
    }
}

const DENSE_GRAPHS: [GraphSpec; 2] = [
    GraphSpec {
        group: "gossip",
        family: Family::SmallWorld,
        n: 16_384,
    },
    GraphSpec {
        group: "gossip-batch8",
        family: Family::SmallWorld,
        n: 1_024,
    },
];

// Weights from execute times on a 2-core host: t1-inline 236 ms,
// t2-inline 135, t1-arena 242, t2-arena 192, batch8 117 per 8 lanes.
const DENSE_CELLS: [CellSpec; 5] = [
    cell("gossip-t1-inline", 0, 1, Backing::Inline, 1, 1),
    cell("gossip-t2-inline", 0, 2, Backing::Inline, 1, 2),
    cell("gossip-t1-arena", 0, 1, Backing::Arena, 1, 1),
    cell("gossip-t2-arena", 0, 2, Backing::Arena, 1, 1),
    cell("gossip-batch8", 1, 1, Backing::Inline, 8, 2),
];

const SPARSE_GRAPHS: [GraphSpec; 2] = [
    GraphSpec {
        group: "wave-ring",
        family: Family::Ring,
        n: 16_384,
    },
    GraphSpec {
        group: "wave-torus",
        family: Family::Torus,
        n: 16_384,
    },
];

// Weights from execute times on a 2-core host: ring t1 13 ms, ring t2
// 145 ms (the shard barrier of 8192 near-empty rounds), torus t1 13 ms,
// torus t2 13 ms.
const SPARSE_CELLS: [CellSpec; 4] = [
    cell("wave-ring-t1", 0, 1, Backing::Inline, 1, 11),
    cell("wave-ring-t2", 0, 2, Backing::Inline, 1, 1),
    cell("wave-torus-t1", 1, 1, Backing::Inline, 1, 11),
    cell("wave-torus-t2", 1, 2, Backing::Inline, 1, 11),
];

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// A built graph with its 2-shard partition and identity.
struct Built {
    graph: WeightedGraph,
    partition: Partition,
    seed: u64,
}

/// What a correct run of a graph's program must reproduce.
#[derive(Clone, PartialEq)]
struct Expected {
    digest: String,
    rounds: usize,
    messages: u64,
    bits: u64,
}

impl Expected {
    fn of(digest: String, summary: &RunSummary) -> Self {
        Self {
            digest,
            rounds: summary.rounds,
            messages: summary.total_messages,
            bits: summary.total_bits,
        }
    }
}

struct SpanNames {
    root: String,
    prepare: String,
    execute: String,
    verify: String,
    fold: String,
}

impl SpanNames {
    fn of(cell: &str) -> Self {
        Self {
            root: format!("sim.run/{cell}"),
            prepare: format!("sim.prepare/{cell}"),
            execute: format!("sim.execute/{cell}"),
            verify: format!("sim.verify/{cell}"),
            fold: format!("sim.fold/{cell}"),
        }
    }
}

pub fn run(args: &Args, kind: Kind) -> Result<Outcome, String> {
    match kind {
        Kind::Dense => run_with(
            args,
            &GossipWorkload::new(24, 8),
            &DENSE_GRAPHS,
            &DENSE_CELLS,
        ),
        Kind::Sparse => run_with(args, &WaveWorkload, &SPARSE_GRAPHS, &SPARSE_CELLS),
    }
}

fn header<W: Workload>(workload: &W, spec: &GraphSpec, seed: u64) -> lma_sim::DigestWriter {
    scenario_fold_header(workload.name(), spec.family.name(), spec.n, seed)
}

/// Builds every graph and partition, computes the expected outcome of each
/// graph with `run_workload`, and warms every cell once (checking it).
fn setup<W: Workload>(
    workload: &W,
    specs: &[GraphSpec],
    cells: &[CellSpec],
    seeds: &[u64],
    tracer: &mut Tracer,
) -> Result<(Vec<Built>, Vec<Expected>), String> {
    let mut built = Vec::new();
    let mut expected = Vec::new();
    for (spec, &seed) in specs.iter().zip(seeds) {
        let graph = tracer.time(
            &format!("graph.build/{}", spec.family.name()),
            SpanId::NONE,
            0,
            || {
                spec.family
                    .instantiate(spec.n, WeightStrategy::DistinctRandom { seed }, seed)
            },
        );
        let partition = tracer.time("graph.partition", SpanId::NONE, 0, || {
            Partition::new(graph.csr(), 2)
        });
        let outcome = run_workload(workload, &workload.tune(Sim::on(&graph)))
            .map_err(|e| format!("{}: expected run failed: {e}", spec.group))?;
        let mut w = header(workload, spec, seed);
        workload.fold(&mut w, &outcome);
        expected.push(Expected::of(
            w.finish().to_string(),
            &workload.summary(&outcome),
        ));
        built.push(Built {
            graph,
            partition,
            seed,
        });
    }
    for cell in cells {
        let names = SpanNames::of(cell.name);
        let mut off = Tracer::new(Instant::now(), false);
        for lane in run_cell(workload, &built, specs, cell, &names, &mut off, 0) {
            let (got, _) = lane?;
            if got != expected[cell.graph] {
                return Err(format!(
                    "{}: warm run disagrees with run_workload",
                    cell.name
                ));
            }
        }
    }
    Ok((built, expected))
}

/// One run of a cell: prepare → execute → verify → fold, each in a span.
/// Returns one result per lane.
fn run_cell<W: Workload>(
    workload: &W,
    built: &[Built],
    specs: &[GraphSpec],
    cell: &CellSpec,
    names: &SpanNames,
    tracer: &mut Tracer,
    request: u64,
) -> Vec<Result<(Expected, RunSummary), String>> {
    let b = &built[cell.graph];
    let mut sim = workload.tune(Sim::on(&b.graph)).backing(cell.backing);
    if cell.threads >= 2 {
        sim = sim.threads(cell.threads).with_partition(&b.partition);
    }
    let root = tracer.begin(&names.root, SpanId::NONE, request);
    let preps = tracer.time(&names.prepare, root, request, || {
        (0..cell.lanes)
            .map(|_| workload.prepare(&b.graph))
            .collect::<Result<Vec<_>, _>>()
    });
    let outcomes = match preps {
        Ok(mut preps) => tracer.time(&names.execute, root, request, || {
            if cell.lanes == 1 {
                vec![workload.execute(&sim, preps.remove(0))]
            } else {
                workload.execute_batch(&sim.batch(cell.lanes), preps)
            }
        }),
        Err(e) => (0..cell.lanes).map(|_| Err(e.clone())).collect(),
    };
    let verified: Vec<_> = tracer.time(&names.verify, root, request, || {
        outcomes
            .into_iter()
            .map(|o| {
                let o = o.map_err(|e| e.to_string())?;
                workload.verify(&b.graph, &o).map_err(|e| e.to_string())?;
                Ok(o)
            })
            .collect()
    });
    let folded = tracer.time(&names.fold, root, request, || {
        verified
            .into_iter()
            .map(|o: Result<W::Outcome, String>| {
                let o = o?;
                let mut w = header(workload, &specs[cell.graph], b.seed);
                workload.fold(&mut w, &o);
                let summary = workload.summary(&o);
                Ok((Expected::of(w.finish().to_string(), &summary), summary))
            })
            .collect()
    });
    tracer.end(root);
    folded
}

/// Per-cell observations of a measured phase.
#[derive(Default, Clone)]
struct CellStats {
    frontier_share: f64,
}

struct Phase {
    /// One window per pass.
    passes: Vec<Window>,
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
    cpu_ms: f64,
    cells: Vec<CellStats>,
}

/// Runs whole passes over the cells until `seconds` have elapsed.
fn measure<W: Workload>(
    workload: &W,
    built: &[Built],
    specs: &[GraphSpec],
    cells: &[CellSpec],
    expected: &[Expected],
    seconds: Duration,
    tracer: &mut Tracer,
) -> Phase {
    let names: Vec<SpanNames> = cells.iter().map(|c| SpanNames::of(c.name)).collect();
    let mut phase = Phase {
        passes: Vec::new(),
        attempted: 0,
        failed: 0,
        first_error: None,
        cpu_ms: 0.0,
        cells: vec![CellStats::default(); cells.len()],
    };
    let cpu0 = proc_cpu_ms(None);
    let start = Instant::now();
    let mut request = 0u64;
    while start.elapsed() < seconds {
        let pass_start = Instant::now();
        let mut pass = Window::default();
        for (i, cell) in cells.iter().enumerate() {
            for _ in 0..cell.weight {
                request += 1;
                let t0 = Instant::now();
                let lanes = run_cell(workload, built, specs, cell, &names[i], tracer, request);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                // One run is one cell execution: a solo run, or one batch
                // whose lanes must all verify.
                phase.attempted += 1;
                let mut verdict = Ok(());
                for lane in lanes {
                    match lane {
                        Ok((got, summary)) if got == expected[cell.graph] => {
                            if let Some(f) = summary.frontier {
                                let rounds = (f.sparse_rounds + f.dense_rounds).max(1);
                                phase.cells[i].frontier_share =
                                    f.sparse_rounds as f64 / rounds as f64;
                            }
                        }
                        Ok(_) => verdict = Err(format!("{}: digest or count mismatch", cell.name)),
                        Err(e) => verdict = Err(format!("{}: {e}", cell.name)),
                    }
                }
                match verdict {
                    Ok(()) => {
                        pass.verified += 1;
                        pass.latencies_ms.push(ms);
                    }
                    Err(e) => {
                        phase.failed += 1;
                        pass.latencies_ms.push(f64::INFINITY);
                        phase.first_error.get_or_insert(e);
                    }
                }
            }
        }
        pass.wall_s = pass_start.elapsed().as_secs_f64();
        phase.passes.push(pass);
    }
    phase.cpu_ms = proc_cpu_ms(None) - cpu0;
    phase
}

fn run_with<W: Workload>(
    args: &Args,
    workload: &W,
    specs: &[GraphSpec],
    cells: &[CellSpec],
) -> Result<Outcome, String> {
    let mut rng = SplitMix64::new(args.seed);
    let seeds: Vec<u64> = specs.iter().map(|_| rng.next_below(1 << 32)).collect();
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin, args.trace);

    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let (built, expected) = setup(workload, specs, cells, &seeds, &mut tracer)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if let Some((_, first)) = &state {
            if *first != expected {
                return Err("expected outcomes differ between setups".to_string());
            }
        }
        state = Some((built, expected));
    }
    let (built, expected) = state.expect("at least one setup");

    let mut per_layer = Metrics::new();
    // Untraced runs measure the end-to-end metrics.  A traced run spends
    // half its time untraced and half traced, and reports the difference.
    let ticks = crate::cpu_ticks();
    let (phase, untraced) = if args.trace {
        let mut off = Tracer::new(origin, false);
        let half = args.seconds / 2;
        let untraced = measure(workload, &built, specs, cells, &expected, half, &mut off);
        let traced = measure(workload, &built, specs, cells, &expected, half, &mut tracer);
        (traced, Some(untraced))
    } else {
        let mut off = Tracer::new(origin, false);
        let phase = measure(
            workload,
            &built,
            specs,
            cells,
            &expected,
            args.seconds,
            &mut off,
        );
        (phase, None)
    };
    let peak_rss_mb = proc_status_kb(None, "VmHWM:").unwrap_or(0.0) / 1024.0;
    let end_to_end = end_to_end(&phase.passes, &setup_s, peak_rss_mb);
    let mut notes = vec![crate::windows_note(&phase.passes), crate::steal_note(ticks)];

    let (mut attempted, mut failed) = (phase.attempted, phase.failed);
    if let Some(untraced) = &untraced {
        attempted += untraced.attempted;
        failed += untraced.failed;
        let rate = |p: &Phase| median(&p.passes.iter().map(Window::rate).collect::<Vec<_>>());
        per_layer.insert(
            "trace.overhead_pct".into(),
            (100.0 * (rate(untraced) / rate(&phase) - 1.0), "%"),
        );
        layer_metrics(&tracer, &phase, specs, cells, &expected, &mut per_layer);
        let reconciled = tracer.reconcile("sim.run/");
        per_layer.insert(
            "trace.unattributed_pct".into(),
            (reconciled.unattributed_pct, "%"),
        );
        notes.push(reconciled.note("run"));
        for cell in cells {
            let ms = tracer.mean_ms(&format!("sim.execute/{}", cell.name));
            notes.push(format!(
                "cell {}: weight {}, execute {ms:.3} ms, {:.3} ms per pass",
                cell.name,
                cell.weight,
                ms * cell.weight as f64
            ));
        }
    }
    let errors = phase.first_error.iter();
    for e in errors.chain(untraced.iter().flat_map(|u| u.first_error.iter())) {
        notes.push(format!("first failure: {e}"));
    }
    Ok(Outcome {
        attempted,
        failed,
        end_to_end,
        per_layer,
        notes,
        spans: args.trace.then_some(tracer),
    })
}

fn layer_metrics(
    tracer: &Tracer,
    phase: &Phase,
    specs: &[GraphSpec],
    cells: &[CellSpec],
    expected: &[Expected],
    m: &mut Metrics,
) {
    for family in crate::FAMILIES {
        let ms = tracer.mean_ms(&format!("graph.build/{family}"));
        if ms > 0.0 {
            m.insert(format!("graph.build_ms.{family}"), (ms, "ms"));
        }
    }
    m.insert(
        "graph.partition_ms".into(),
        (tracer.mean_ms("graph.partition"), "ms"),
    );
    let execute = |name: &str| tracer.mean_ms(&format!("sim.execute/{name}"));
    for (i, cell) in cells.iter().enumerate() {
        let ms = execute(cell.name);
        let exp = &expected[cell.graph];
        m.insert(format!("sim.execute_ms.{}", cell.name), (ms, "ms"));
        if cell.name.starts_with("gossip-t") {
            m.insert(
                format!("sim.ns_per_message.{}", cell.name),
                (ms * 1e6 / exp.messages.max(1) as f64, "ns"),
            );
        }
        if cell.name.starts_with("wave") {
            m.insert(
                format!("sim.us_per_round.{}", cell.name),
                (ms * 1e3 / exp.rounds.max(1) as f64, "us"),
            );
            m.insert(
                format!("sim.sparse_round_share.{}", cell.name),
                (phase.cells[i].frontier_share, "ratio"),
            );
        }
        if cell.lanes > 1 {
            m.insert("sim.batch_lane_ms".into(), (ms / cell.lanes as f64, "ms"));
        }
    }
    for (program, t1, t2) in T2_PAIRS {
        let (a, b) = (execute(t1), execute(t2));
        if a > 0.0 && b > 0.0 {
            m.insert(format!("sim.t2_speedup.{program}"), (a / b, "x"));
        }
    }
    for (spec, exp) in specs.iter().zip(expected) {
        m.insert(
            format!("sim.rounds.{}", spec.group),
            (exp.rounds as f64, "count"),
        );
        m.insert(
            format!("sim.messages.{}", spec.group),
            (exp.messages as f64, "count"),
        );
        m.insert(
            format!("sim.bits.{}", spec.group),
            (exp.bits as f64, "count"),
        );
    }
    // Verify and fold times per run, over the solo cells.
    let solo: Vec<&CellSpec> = cells.iter().filter(|c| c.lanes == 1).collect();
    let program = if cells[0].name.starts_with("wave") {
        "wave"
    } else {
        "gossip"
    };
    let pooled = |kind: &str| {
        let all: Vec<f64> = solo
            .iter()
            .flat_map(|c| tracer.durations_ms(&format!("sim.{kind}/{}", c.name)))
            .collect();
        mean(&all)
    };
    if program == "wave" {
        m.insert("verify.ms.wave".into(), (pooled("verify"), "ms"));
    }
    m.insert(format!("digest.fold_ms.{program}"), (pooled("fold"), "ms"));
    m.insert(
        "client.cpu_ms_per_run".into(),
        (phase.cpu_ms / phase.attempted.max(1) as f64, "ms"),
    );
}

//! The repository benchmark.
//!
//! Four closed-loop workloads over the advice pipeline (oracle → decode →
//! verify), each measured for a fixed number of seconds:
//!
//! * `serve-hot` — two TCP connections to an `lma-serve` process keep
//!   requests pipelined over the 19 registry scenarios with skewed
//!   popularity; every digest is checked against `SCENARIOS.lock`.
//! * `serve-cold` — one connection, one request in flight, sweeping fresh
//!   topologies through the four paper schemes; every answer is checked
//!   against an in-process run of the same identity.
//! * `sim-dense` — in-process `gossip` on a ~16k-node small-world graph at
//!   1 and 2 threads on two plane backings, plus one lockstep batch.
//! * `sim-sparse` — in-process message-driven `wave` on a long ring and a
//!   torus at 1 and 2 threads.
//!
//! ```text
//! python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `run.py` builds this package (which also builds the `lma-serve` binary)
//! and runs it from the repository root.  With `--trace 0` the last line of
//! standard output is a JSON object carrying the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics, taken from spans recorded
//! around the benchmark's own calls into each layer.  Result files and span
//! dumps go to `perfbench/out/`.  The exit code is non-zero when any run
//! failed or returned a wrong digest or count.

// The benchmark reports on stdout/stderr by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

mod serve;
mod sim;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Metric name → (value, unit).
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Path of the `lma-serve` binary (serve-* only).
    pub server: PathBuf,
}

/// What one workload run produced.
pub struct Outcome {
    /// Operations attempted in the measured phase (served requests or
    /// simulated runs).
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong digest or
    /// count — in the measured phase and in every check around it.
    pub failed: u64,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    /// Extra human-readable report lines.
    pub notes: Vec<String>,
    pub spans: Option<trace::Tracer>,
}

/// One window of a measured phase, reduced to what the end-to-end metrics
/// need.  A phase is cut into windows (time slices for the served
/// workloads, passes over the cells for the simulated ones) and each
/// end-to-end rate or latency is the median over its windows, so that one
/// stall on a shared host moves one window, not the result.
#[derive(Default)]
pub struct Window {
    pub wall_s: f64,
    /// One entry per attempted operation; failures are `f64::INFINITY`.
    pub latencies_ms: Vec<f64>,
    /// Operations completed and verified correct.
    pub verified: u64,
}

impl Window {
    pub fn rate(&self) -> f64 {
        self.verified as f64 / self.wall_s
    }
}

const WORKLOADS: [&str; 4] = ["serve-hot", "serve-cold", "sim-dense", "sim-sparse"];

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1 [--server PATH]\n       \
         perfbench --list-per-layer",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--list-per-layer" {
            list_per_layer();
            std::process::exit(0);
        }
        let Some(value) = args.next() else { usage() };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = ["0", "1"].iter().position(|t| *t == value),
            "--server" => server = Some(PathBuf::from(value)),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    Args {
        workload,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace: trace == 1,
        server: server.unwrap_or_else(|| PathBuf::from("lma-serve")),
    }
}

fn main() {
    let args = parse_args();
    let result = match args.workload.as_str() {
        "serve-hot" => serve::hot(&args),
        "serve-cold" => serve::cold(&args),
        "sim-dense" => sim::run(&args, sim::Kind::Dense),
        _ => sim::run(&args, sim::Kind::Sparse),
    };
    match result {
        Ok(outcome) => std::process::exit(report(&args, outcome)),
        Err(error) => {
            eprintln!("perfbench {}: {error}", args.workload);
            std::process::exit(1);
        }
    }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// The `p`-th percentile of an ascending slice: the smallest value above
/// which lie fewer than `(100 - p)`% of the samples, i.e. rank
/// `floor(p * n / 100) + 1` (0 when empty).  On an even split between two
/// clusters of latencies, the median is the fast edge of the slow cluster,
/// which moves less than the slow edge of the fast one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).floor() as usize + 1;
    sorted[rank.min(sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// The end-to-end metrics of a measured phase: medians over its windows.
pub fn end_to_end(windows: &[Window], setup_s: &[f64], peak_rss_mb: f64) -> Metrics {
    let over_windows =
        |f: &dyn Fn(&Window) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
    let latency = |p: f64| {
        move |w: &Window| {
            let mut sorted = w.latencies_ms.clone();
            sorted.sort_by(f64::total_cmp);
            percentile(&sorted, p)
        }
    };
    let mut m = Metrics::new();
    m.insert(
        "throughput_rps".into(),
        (over_windows(&Window::rate), "runs/s"),
    );
    m.insert(
        "latency_p50_ms".into(),
        (over_windows(&latency(50.0)), "ms"),
    );
    m.insert(
        "latency_p99_ms".into(),
        (over_windows(&latency(99.0)), "ms"),
    );
    m.insert("setup_s".into(), (median(setup_s), "s"));
    m.insert("peak_rss_mb".into(), (peak_rss_mb, "MiB"));
    m
}

/// A report line on the spread of the window rates.
pub fn windows_note(windows: &[Window]) -> String {
    let mut rates: Vec<f64> = windows.iter().map(Window::rate).collect();
    rates.sort_by(f64::total_cmp);
    format!(
        "windows: {} with runs/s min {:.2} median {:.2} max {:.2}",
        rates.len(),
        rates.first().copied().unwrap_or(0.0),
        percentile(&rates, 50.0),
        rates.last().copied().unwrap_or(0.0)
    )
}

/// Host-wide (steal, total) CPU ticks from `/proc/stat`: on a virtual
/// machine, steal is time the host gave this machine's CPUs to others.
pub fn cpu_ticks() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// A report line on the CPU time stolen by the host since `before`.
pub fn steal_note(before: (u64, u64)) -> String {
    let after = cpu_ticks();
    let total = after.1.saturating_sub(before.1).max(1);
    format!(
        "host steal: {:.1}% of CPU time during the measured phase",
        100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
    )
}

/// A field of `/proc/<pid>/status` in kB (`pid` `None` = this process).
pub fn proc_status_kb(pid: Option<u32>, key: &str) -> Option<f64> {
    let path = pid.map_or_else(
        || "/proc/self/status".to_string(),
        |p| format!("/proc/{p}/status"),
    );
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// User plus system CPU time of a process in milliseconds (`pid` `None` =
/// this process), from `/proc/<pid>/stat` at the usual 100 ticks per second.
pub fn proc_cpu_ms(pid: Option<u32>) -> f64 {
    let path = pid.map_or_else(
        || "/proc/self/stat".to_string(),
        |p| format!("/proc/{p}/stat"),
    );
    let Ok(text) = std::fs::read_to_string(path) else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3 (state).
    let rest = text.rsplit_once(") ").map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) * 10.0
}

// ---------------------------------------------------------------------------
// The per-layer metric list
// ---------------------------------------------------------------------------

/// The graph families whose build time is reported.
pub const FAMILIES: [&str; 7] = [
    "ring",
    "torus",
    "small-world",
    "preferential-attachment",
    "geometric",
    "sparse-random",
    "star",
];

/// The paper's schemes as served workloads.
pub const SCHEMES: [&str; 4] = [
    "scheme-trivial",
    "scheme-one-round",
    "scheme-constant",
    "certified-constant",
];

/// Every per-layer metric as (name, unit, better).  Workloads that bypass a
/// layer report 0 for its metrics.
pub fn per_layer_list() -> Vec<(String, &'static str, &'static str)> {
    let mut v: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: String, unit, better| v.push((name, unit, better));
    add("proto.encode_us".into(), "us", "lower");
    add("proto.decode_us".into(), "us", "lower");
    add("server.queue_ms_p50".into(), "ms", "lower");
    add("server.queue_ms_p99".into(), "ms", "lower");
    add("server.transport_ms_p50".into(), "ms", "lower");
    add("server.batch_width_mean".into(), "lanes", "higher");
    add("server.coalesced_share".into(), "ratio", "higher");
    add("server.run_ms_p50".into(), "ms", "lower");
    add("server.cpu_ms_per_run".into(), "ms", "lower");
    add("client.cpu_ms_per_run".into(), "ms", "lower");
    add("cache.graph_hit_ratio".into(), "ratio", "higher");
    add("cache.oracle_hit_ratio".into(), "ratio", "higher");
    add("cache.rss_mb_per_topology".into(), "MiB", "lower");
    for family in FAMILIES {
        add(format!("graph.build_ms.{family}"), "ms", "lower");
    }
    add("graph.partition_ms".into(), "ms", "lower");
    for scheme in SCHEMES {
        add(format!("oracle.prepare_ms.{scheme}"), "ms", "lower");
    }
    for scheme in &SCHEMES[..3] {
        add(format!("advice.max_bits.{scheme}"), "bits", "lower");
        add(format!("advice.mean_bits.{scheme}"), "bits", "lower");
    }
    for scheme in SCHEMES {
        add(format!("decode.execute_ms.{scheme}"), "ms", "lower");
    }
    add("labeling.certify_ms".into(), "ms", "lower");
    for workload in ["flood", "wave", "ghs-boruvka", "flood-collect"] {
        add(format!("verify.ms.{workload}"), "ms", "lower");
    }
    for workload in [
        "flood",
        "gossip",
        "wave",
        "scheme-constant",
        "certified-constant",
    ] {
        add(format!("digest.fold_ms.{workload}"), "ms", "lower");
    }
    for cell in sim::CELL_NAMES {
        add(format!("sim.execute_ms.{cell}"), "ms", "lower");
    }
    for cell in sim::CELL_NAMES.iter().filter(|c| c.starts_with("gossip-t")) {
        add(format!("sim.ns_per_message.{cell}"), "ns", "lower");
    }
    for cell in sim::CELL_NAMES.iter().filter(|c| c.starts_with("wave")) {
        add(format!("sim.us_per_round.{cell}"), "us", "lower");
        add(format!("sim.sparse_round_share.{cell}"), "ratio", "higher");
    }
    for program in sim::T2_PAIRS.iter().map(|p| p.0) {
        add(format!("sim.t2_speedup.{program}"), "x", "higher");
    }
    add("sim.batch_lane_ms".into(), "ms", "lower");
    for run in sim::RUN_GROUPS {
        add(format!("sim.rounds.{run}"), "count", "lower");
        add(format!("sim.messages.{run}"), "count", "lower");
        add(format!("sim.bits.{run}"), "count", "lower");
    }
    add("trace.overhead_pct".into(), "%", "lower");
    add("trace.unattributed_pct".into(), "%", "lower");
    v
}

/// Prints the `per_layer` entries of `BENCHMARK.json`.
fn list_per_layer() {
    let list = per_layer_list();
    for (i, (name, unit, better)) in list.iter().enumerate() {
        let comma = if i + 1 == list.len() { "" } else { "," };
        println!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{comma}"
        );
    }
}

// ---------------------------------------------------------------------------
// Provenance and the baseline
// ---------------------------------------------------------------------------

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The commit checked out, read from `.git` without running git (`None`
/// outside a git checkout).
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// A digest over every file under `crates/` and `vendor/` plus the root
/// manifest and lock: identifies the measured source when there is no git
/// metadata.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("vendor"), &mut files);
    files.sort();
    let mut w = lma_sim::DigestWriter::new();
    for file in &files {
        w.str(&file.to_string_lossy());
        w.bytes(&std::fs::read(file).unwrap_or_default());
    }
    w.finish().to_string()[..16].to_string()
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string())
}

fn provenance(args: &Args) -> String {
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host_cpus\": {}, \
         \"git_commit\": {}, \"source_digest\": {}, \"rustc\": {}, \"server_config\": {}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.trace),
        criterion::host_cpus(),
        git_commit().map_or_else(|| "null".to_string(), |c| json_str(&c)),
        json_str(&source_digest()),
        json_str(&rustc_version()),
        json_str(&format!("{:?}", lma_serve::ServerConfig::default())),
    )
}

/// The recorded baseline (`perfbench/baseline.json`).
const BASELINE: &str = include_str!("../baseline.json");

/// Reads `"key": number` from the baseline (keys are unique in the file).
fn baseline_number(key: &str) -> Option<f64> {
    let needle = format!("{}:", json_str(key));
    let at = BASELINE.find(&needle)? + needle.len();
    let rest = BASELINE[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Compares end-to-end results with the baseline, refusing when the
/// baseline was taken on a different core count.
fn compare_with_baseline(workload: &str, metrics: &Metrics) -> Vec<String> {
    let host = criterion::host_cpus();
    match baseline_number("host_cpus") {
        Some(cpus) if cpus as usize == host => {}
        Some(cpus) => {
            return vec![format!(
                "baseline: not compared (baseline host_cpus {cpus}, this host {host})"
            )]
        }
        None => return vec!["baseline: none recorded".to_string()],
    }
    metrics
        .iter()
        .filter_map(|(name, (value, unit))| {
            let base = baseline_number(&format!("{workload}/{name}"))?;
            Some(format!(
                "baseline: {name} {value:.4} {unit} vs {base:.4} ({:+.1}%)",
                100.0 * (value / base - 1.0)
            ))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // A failed request counts as an infinite latency; JSON has no
        // infinity, so report the largest finite value.
        format!("{:e}", f64::MAX)
    }
}

fn metrics_json(metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_number(*value),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Prints the report and returns the process exit code.
fn report(args: &Args, outcome: Outcome) -> i32 {
    let provenance = provenance(args);
    println!("provenance {provenance}");
    let fail_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    for (name, (value, unit)) in &outcome.end_to_end {
        println!("{name} = {value:.4} {unit}");
    }
    println!(
        "fail_share = {fail_share} ratio ({} of {} operations)",
        outcome.failed, outcome.attempted
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    let metrics = if args.trace {
        let list = per_layer_list();
        for name in outcome.per_layer.keys() {
            assert!(
                list.iter().any(|(n, _, _)| n == name),
                "per-layer metric {name} is missing from the list"
            );
        }
        list.into_iter()
            .map(|(name, unit, _)| {
                let value = outcome.per_layer.get(&name).map_or(0.0, |m| m.0);
                (name, (value, unit))
            })
            .collect()
    } else {
        for line in compare_with_baseline(&args.workload, &outcome.end_to_end) {
            println!("{line}");
        }
        outcome.end_to_end
    };
    let stem = format!(
        "perfbench/out/{}-s{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let saved = std::fs::create_dir_all("perfbench/out").and_then(|()| {
        std::fs::write(
            format!("{stem}.json"),
            format!(
                "{{\"provenance\": {provenance}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}\n",
                outcome.attempted,
                outcome.failed,
                metrics_json(&metrics)
            ),
        )
    });
    if let Err(e) = saved {
        eprintln!("cannot write {stem}.json: {e}");
    }
    if let Some(spans) = &outcome.spans {
        let path = PathBuf::from(format!("{stem}.spans.jsonl"));
        match spans.write_jsonl(&path) {
            Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(&metrics)
    );
    i32::from(!correct)
}

// lint: allow-file(wall-clock) — trajectory timing is this module’s purpose; nothing here feeds a digest
//! Replay: drive an in-process server with registry mixes.
//!
//! Two modes, both booting a fresh [`TcpServer`] on an ephemeral loopback
//! port and talking to it over the real wire protocol (so the whole stack
//! — framing, admission, coalescing, caches — is on the measured path):
//!
//! * **Lock verification** ([`verify_lock`]) pipelines `depth` copies of
//!   every selected scenario's run spec, *interleaved across scenarios*,
//!   and asserts each served digest is byte-identical to the committed
//!   `SCENARIOS.lock` golden.  This is the serving counterpart of
//!   `scenarios verify`: coalescing and caching are allowed to change only
//!   *when* a run happens, never its bytes.
//! * **Throughput trajectory** ([`bench()`]) replays bursts against three
//!   smoke scenarios (flood/ring, scheme-trivial/small-world, wave/ring)
//!   twice — coalescing off (the serial baseline) and on — and records
//!   client-observed p50/p99 latencies and runs/sec into `BENCH_serve.json`
//!   via the criterion shim's trajectory guard (core-count honesty applies
//!   to serve numbers too).

use crate::proto::{
    read_frame, write_frame, Request, RequestBody, Response, ResponseBody, RunSpec,
};
use crate::server::{ServerConfig, TcpServer};
use lma_bench::scenarios::{LockFile, Scenario};
use lma_bench::WorkloadCatalog;
use std::collections::HashMap;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// Replay options (the `lma-serve replay` CLI surface).
#[derive(Debug, Clone)]
pub struct ReplayOpts {
    /// Restrict to the smoke subset of the registry.
    pub smoke: bool,
    /// Pipelined copies of each scenario per burst (the queue depth).
    pub depth: usize,
    /// Verify served digests against `SCENARIOS.lock`.
    pub verify_lock: bool,
    /// Record the coalescing-on/off throughput trajectory.
    pub bench: bool,
    /// Pass `--force` through to the trajectory overwrite guard.
    pub force: bool,
}

impl Default for ReplayOpts {
    fn default() -> Self {
        Self {
            smoke: false,
            depth: 8,
            verify_lock: false,
            bench: false,
            force: false,
        }
    }
}

/// A blocking wire-protocol client over one TCP connection.
pub struct Client {
    stream: TcpStream,
    next_id: u64,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    /// The connect error, verbatim.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // Small-frame ping-pong: Nagle + delayed ACK would dominate every
        // latency this client measures.
        stream.set_nodelay(true)?;
        Ok(Self { stream, next_id: 1 })
    }

    /// Sends one request without waiting; returns its correlation id.
    ///
    /// # Errors
    /// The write error, verbatim.
    pub fn send(&mut self, body: RequestBody) -> std::io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let request = Request { id, body };
        write_frame(&mut self.stream, &request.to_bytes())?;
        Ok(id)
    }

    /// Receives the next response (any pipelined order).
    ///
    /// # Errors
    /// `UnexpectedEof` when the server hung up; `InvalidData` on a
    /// malformed response frame.
    pub fn recv(&mut self) -> std::io::Result<Response> {
        let payload = read_frame(&mut self.stream)?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )
        })?;
        Response::decode_checked(&payload).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad response: {e}"),
            )
        })
    }

    /// Round-trips one request (valid only with an empty pipeline).
    ///
    /// # Errors
    /// See [`Client::send`] / [`Client::recv`].
    pub fn call(&mut self, body: RequestBody) -> std::io::Result<Response> {
        self.send(body)?;
        self.recv()
    }
}

/// The canonical run spec of a registry scenario: sequential engine,
/// inline backing — digests are engine/backing-invariant, so the cheapest
/// cell is the right serving default.
fn spec_of(scenario: &Scenario) -> RunSpec {
    RunSpec {
        workload: scenario.workload.name().to_string(),
        family: scenario.family.name().to_string(),
        n: scenario.n,
        seed: scenario.seed,
        backing: "inline".to_string(),
        threads: 0,
        round_limit: None,
        deadline_ms: None,
    }
}

fn load_lock() -> Result<LockFile, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../SCENARIOS.lock");
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    LockFile::parse(&text)
}

fn drain_server(client: &mut Client, tcp: TcpServer) -> Result<(), String> {
    client
        .send(RequestBody::Shutdown)
        .map_err(|e| format!("shutdown send failed: {e}"))?;
    loop {
        match client.recv() {
            Ok(Response {
                body: ResponseBody::Bye(_),
                ..
            }) => break,
            Ok(_) => continue,
            Err(e) => return Err(format!("waiting for Bye: {e}")),
        }
    }
    tcp.join();
    Ok(())
}

/// Replays the selected registry scenarios against a fresh server and
/// checks every served digest against the committed goldens.
///
/// # Errors
/// The first digest mismatch, unexpected failure response, or transport
/// error, described.
// The one-line verdict is this CLI entry point's contract.
#[allow(clippy::print_stdout)]
pub fn verify_lock(opts: &ReplayOpts) -> Result<(), String> {
    let lock = load_lock()?;
    let catalog = WorkloadCatalog::new();
    let scenarios: Vec<Scenario> = catalog
        .scenarios()
        .iter()
        .filter(|s| s.smoke || !opts.smoke)
        .copied()
        .collect();
    let tcp = TcpServer::bind("127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("bind failed: {e}"))?;
    let mut client = Client::connect(tcp.addr()).map_err(|e| format!("connect failed: {e}"))?;

    // Interleave across scenarios so the dispatch window sees a genuine
    // mix: same-identity requests must find each other between strangers.
    let mut expected: HashMap<u64, (String, String)> = HashMap::new();
    for _ in 0..opts.depth {
        for scenario in &scenarios {
            let golden = lock
                .get(&scenario.id())
                .ok_or_else(|| format!("{} missing from SCENARIOS.lock", scenario.id()))?;
            let id = client
                .send(RequestBody::Run(spec_of(scenario)))
                .map_err(|e| format!("send failed: {e}"))?;
            expected.insert(id, (scenario.id(), golden.digest.to_string()));
        }
    }
    let total = expected.len();
    while !expected.is_empty() {
        let response = client.recv().map_err(|e| format!("recv failed: {e}"))?;
        let (scenario_id, golden) = expected
            .remove(&response.id)
            .ok_or_else(|| format!("unexpected response id {}", response.id))?;
        match response.body {
            ResponseBody::Done(report) => {
                if report.digest != golden {
                    return Err(format!(
                        "digest mismatch for {scenario_id} (lanes={}): served {} != golden {golden}",
                        report.lanes, report.digest
                    ));
                }
            }
            other => return Err(format!("{scenario_id}: expected Done, got {other:?}")),
        }
    }
    let stats = match client
        .call(RequestBody::Stats)
        .map_err(|e| format!("stats failed: {e}"))?
        .body
    {
        ResponseBody::Stats(stats) => stats,
        other => return Err(format!("expected Stats, got {other:?}")),
    };
    drain_server(&mut client, tcp)?;
    println!(
        "ok: {total} served runs over {} scenarios matched SCENARIOS.lock \
         (coalesced {}, graph cache {}/{}, oracle cache {}/{}, \
         cache {} topologies / {} bytes / {} evictions, \
         {} executors / {} queued / {} groups in flight, \
         doors {} full / {} expected / {} window / {} drain)",
        scenarios.len(),
        stats.coalesced,
        stats.graph_hits,
        stats.graph_hits + stats.graph_misses,
        stats.oracle_hits,
        stats.oracle_hits + stats.oracle_misses,
        stats.cache_entries,
        stats.cache_bytes,
        stats.cache_evictions,
        stats.executors,
        stats.queue_depth,
        stats.in_flight_groups,
        stats.door_full,
        stats.door_expected,
        stats.door_window,
        stats.door_drain,
    );
    Ok(())
}

/// One measured cell of the serve trajectory.
struct BenchCell {
    label: String,
    latencies_ns: Vec<u64>,
    runs_per_sec: f64,
}

/// How many timed bursts each scenario gets per mode.
const BURSTS: usize = 6;

/// The scenarios the throughput trajectory measures, by id — the cells
/// `BENCH_serve.json` has tracked since coalescing landed.
const BENCH_SCENARIOS: [&str; 3] = [
    "flood/ring/n48/s11",
    "scheme-trivial/small-world/n36/s57",
    "wave/ring/n48/s81",
];

/// Replays bursts against the three `BENCH_SCENARIOS` with coalescing off
/// and on, prints the comparison, and writes `BENCH_serve.json`.
/// Returns `Ok(true)` when at least one scenario clears the 1.2× bar.
///
/// # Errors
/// Transport failures, an unexpected response, or a trajectory-guard
/// refusal, described.
pub fn bench(opts: &ReplayOpts) -> Result<bool, String> {
    let catalog = WorkloadCatalog::new();
    let scenarios: Vec<Scenario> = catalog
        .scenarios()
        .iter()
        .filter(|s| BENCH_SCENARIOS.contains(&s.id().as_str()) && (s.smoke || !opts.smoke))
        .copied()
        .collect();
    if scenarios.is_empty() {
        return Err("no bench scenarios selected".to_string());
    }
    let depth = opts.depth.max(1);
    let mut cells: Vec<BenchCell> = Vec::new();
    let mut speedups: Vec<(String, f64, f64, f64)> = Vec::new();

    // Each scenario is measured at its registry size and at 8× that size:
    // tiny registry topologies finish in tens of microseconds, where
    // per-request transport overhead (identical in both modes) drowns the
    // run a coalesced group shares.  The scaled size is
    // the same workload on the same family — the regime a long-lived
    // server exists for.
    let targets: Vec<(String, RunSpec)> = scenarios
        .iter()
        .flat_map(|scenario| {
            [1usize, 8].into_iter().map(|scale| {
                let mut spec = spec_of(scenario);
                spec.n = scenario.n * scale;
                let label = format!(
                    "{}/{}/n{}/s{}",
                    scenario.workload.name(),
                    scenario.family.name(),
                    spec.n,
                    scenario.seed
                );
                (label, spec)
            })
        })
        .collect();

    for (label, spec) in &targets {
        let mut runs_per_sec = [0.0f64; 2];
        for (mode, coalesce) in [("serial", false), ("coalesced", true)] {
            let config = ServerConfig {
                coalesce,
                max_batch: depth,
                ..ServerConfig::default()
            };
            let tcp =
                TcpServer::bind("127.0.0.1:0", config).map_err(|e| format!("bind failed: {e}"))?;
            let mut client =
                Client::connect(tcp.addr()).map_err(|e| format!("connect failed: {e}"))?;
            // Warmup burst: populate the graph/oracle caches so the
            // measured bursts compare steady-state serving, not one-time
            // construction.
            burst(&mut client, spec, depth)?;
            let mut latencies_ns: Vec<u64> = Vec::with_capacity(BURSTS * depth);
            let started = Instant::now();
            for _ in 0..BURSTS {
                latencies_ns.extend(burst(&mut client, spec, depth)?);
            }
            let wall = started.elapsed().as_secs_f64();
            let total_runs = (BURSTS * depth) as f64;
            let rate = total_runs / wall;
            drain_server(&mut client, tcp)?;
            latencies_ns.sort_unstable();
            runs_per_sec[usize::from(coalesce)] = rate;
            cells.push(BenchCell {
                label: format!("{label}/{mode}/d{depth}"),
                latencies_ns,
                runs_per_sec: rate,
            });
        }
        let speedup = runs_per_sec[1] / runs_per_sec[0];
        speedups.push((label.clone(), runs_per_sec[0], runs_per_sec[1], speedup));
    }

    let mut out = std::io::stdout().lock();
    let _ = writeln!(
        out,
        "{:<34} {:>12} {:>12} {:>8}",
        "scenario", "serial r/s", "coalesced", "speedup"
    );
    let mut best = 0.0f64;
    for (id, serial, coalesced, speedup) in &speedups {
        best = best.max(*speedup);
        let _ = writeln!(
            out,
            "{id:<34} {serial:>12.1} {coalesced:>12.1} {speedup:>7.2}x"
        );
    }
    drop(out);

    write_trajectory(&cells, opts.force)?;
    Ok(best >= 1.2)
}

/// Sends `depth` pipelined copies of a run spec and collects the
/// client-observed latency of each response (burst start → response).
fn burst(client: &mut Client, spec: &RunSpec, depth: usize) -> Result<Vec<u64>, String> {
    let started = Instant::now();
    for _ in 0..depth {
        client
            .send(RequestBody::Run(spec.clone()))
            .map_err(|e| format!("send failed: {e}"))?;
    }
    let mut latencies = Vec::with_capacity(depth);
    for _ in 0..depth {
        let response = client.recv().map_err(|e| format!("recv failed: {e}"))?;
        match response.body {
            ResponseBody::Done(_) => {
                latencies.push(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
            }
            other => {
                return Err(format!(
                    "{}/{}/n{}: expected Done, got {other:?}",
                    spec.workload, spec.family, spec.n
                ))
            }
        }
    }
    Ok(latencies)
}

/// Writes `BENCH_serve.json` in the criterion shim's trajectory shape,
/// behind its core-count overwrite guard.
// Reporting the written path is this CLI helper's contract.
#[allow(clippy::print_stdout)]
fn write_trajectory(cells: &[BenchCell], force: bool) -> Result<(), String> {
    let host_cpus = criterion::host_cpus();
    let path = criterion::trajectory_path("serve");
    criterion::guard_trajectory_overwrite(&path, host_cpus, force)?;
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"serve\",\n");
    json.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    json.push_str("  \"results\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        let sorted = &cell.latencies_ns;
        let p50 = crate::metrics::percentile(sorted, 50);
        let p99 = crate::metrics::percentile(sorted, 99);
        json.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"median_ns\": {p50}, \"min_ns\": {}, \
             \"max_ns\": {}, \"p99_ns\": {p99}, \"runs_per_sec\": {:.1}}}{}\n",
            cell.label,
            sorted.first().copied().unwrap_or(0),
            sorted.last().copied().unwrap_or(0),
            cell.runs_per_sec,
            if i + 1 == cells.len() { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

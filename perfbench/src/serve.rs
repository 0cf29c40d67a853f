//! The served workloads: `serve-hot` and `serve-cold`.
//!
//! The server is its own process (`lma-serve serve --tcp 127.0.0.1:0`, on
//! its default config); the benchmark is a closed-loop TCP client over
//! loopback.  After the measured phase the served answers are replayed
//! in-process through the typed `Workload` impls (graph → prepare →
//! execute → verify → fold): on serve-cold this checks every answer, and in
//! a traced run the replay's spans give the per-layer metrics the server
//! cannot report from outside.

use crate::trace::{mean, SpanId, Tracer};
use crate::{
    end_to_end, median, percentile, proc_cpu_ms, proc_status_kb, Args, Metrics, Outcome, Window,
};
use lma_advice::{Advice, ConstantScheme, OneRoundScheme, SchemeWorkload, TrivialScheme};
use lma_baselines::{
    FloodCollectWorkload, FloodWorkload, GhsWorkload, GossipWorkload, WaveWorkload,
};
use lma_bench::scenarios::{scenario_fold_header, LockFile};
use lma_bench::WorkloadCatalog;
use lma_graph::generators::Family;
use lma_graph::weights::WeightStrategy;
use lma_graph::{SplitMix64, WeightedGraph};
use lma_labeling::CertifiedWorkload;
use lma_serve::proto::{read_frame, write_frame};
use lma_serve::{Request, RequestBody, Response, ResponseBody, RunReport, RunSpec, StatsReport};
use lma_sim::digest::fold_error;
use lma_sim::{DigestWriter, RunSummary, Sim, Workload, WorkloadError};
use std::collections::{BTreeSet, HashMap};
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// serve-hot: connections and requests kept in flight on each.
const HOT_CONNECTIONS: usize = 2;
const HOT_DEPTH: usize = 4;
/// Time slices a served phase is cut into (see [`Window`]): serve-hot
/// answers over a thousand requests per slice, serve-cold a few hundred.
const HOT_WINDOWS: usize = 5;
const COLD_WINDOWS: usize = 3;
/// serve-hot: setups (boot + warm-up pass) per run.
const HOT_SETUPS: usize = 5;

/// serve-cold: the topology families the sweep rotates through, the node
/// count of every topology, and boots per run.
const COLD_FAMILIES: [Family; 4] = [
    Family::SmallWorld,
    Family::PreferentialAttachment,
    Family::Geometric,
    Family::SparseRandom,
];
const COLD_N: usize = 192;
const COLD_SETUPS: usize = 11;
/// serve-cold: the advice metrics cover the sweep's first topologies.
const ADVICE_TOPOLOGIES: usize = 16;

/// What a correct answer must carry.
#[derive(Debug, Clone, PartialEq)]
struct Expected {
    digest: String,
    rounds: u64,
    messages: u64,
    bits: u64,
}

impl Expected {
    fn of_report(r: &RunReport) -> Self {
        Self {
            digest: r.digest.clone(),
            rounds: r.rounds,
            messages: r.messages,
            bits: r.bits,
        }
    }

    fn of_summary(digest: String, s: &RunSummary) -> Self {
        Self {
            digest,
            rounds: s.rounds as u64,
            messages: s.total_messages,
            bits: s.total_bits,
        }
    }
}

fn io(context: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{context}: {e}")
}

// ---------------------------------------------------------------------------
// The server process and the wire client
// ---------------------------------------------------------------------------

/// A running `lma-serve serve --tcp` child.  Dropping it kills and reaps
/// the process; [`ServerProc::shutdown`] drains it through the protocol.
struct ServerProc {
    child: Child,
    addr: SocketAddr,
    /// Kept open so the server never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl ServerProc {
    fn boot(path: &Path) -> Result<Self, String> {
        let mut child = Command::new(path)
            .args(["serve", "--tcp", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", path.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = stdout
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.trim().strip_prefix("lma-serve listening on "))
            .and_then(|a| a.parse().ok());
        let server = Self {
            child,
            addr: addr.unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0))),
            _stdout: stdout,
        };
        if addr.is_none() {
            return Err(format!("server did not report its address (got {line:?})"));
        }
        // Booted means answering: one ping round trip.
        let mut conn = Conn::connect(server.addr)?;
        match conn.call(RequestBody::Ping)?.body {
            ResponseBody::Pong => Ok(server),
            other => Err(format!("ping answered {other:?}")),
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn stats(&self) -> Result<StatsReport, String> {
        match Conn::connect(self.addr)?.call(RequestBody::Stats)?.body {
            ResponseBody::Stats(stats) => Ok(stats),
            other => Err(format!("stats answered {other:?}")),
        }
    }

    /// Drains the server with a `Shutdown` request and waits for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let mut conn = Conn::connect(self.addr)?;
        conn.send(RequestBody::Shutdown, false)?;
        // The process may exit before its writer thread sends `Bye`, so a
        // closed connection also ends the drain; the exit status decides.
        while let Ok((response, _)) = conn.recv(false) {
            if let ResponseBody::Bye(_) = response.body {
                break;
            }
        }
        drop(conn);
        let status = self.child.wait().map_err(io("waiting for the server"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("server exited with {status}"))
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One client connection speaking the wire protocol.
struct Conn {
    stream: TcpStream,
    next_id: u64,
}

/// When the encode or decode of one frame started and ended.
type Stamp = Option<(Instant, Instant)>;

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(io("connect"))?;
        stream.set_nodelay(true).map_err(io("set_nodelay"))?;
        Ok(Self { stream, next_id: 1 })
    }

    /// Encodes and writes one request; `stamp` times the encode.
    fn send(&mut self, body: RequestBody, stamp: bool) -> Result<(u64, Stamp), String> {
        let id = self.next_id;
        self.next_id += 1;
        let t0 = stamp.then(Instant::now);
        let bytes = Request { id, body }.to_bytes();
        let encoded = t0.map(|t| (t, Instant::now()));
        write_frame(&mut self.stream, &bytes).map_err(io("send"))?;
        Ok((id, encoded))
    }

    /// Reads and decodes one response; `stamp` times the decode.
    fn recv(&mut self, stamp: bool) -> Result<(Response, Stamp), String> {
        let payload = read_frame(&mut self.stream)
            .map_err(io("recv"))?
            .ok_or("server closed the connection")?;
        let t0 = stamp.then(Instant::now);
        let response =
            Response::decode_checked(&payload).map_err(|e| format!("bad response: {e}"))?;
        Ok((response, t0.map(|t| (t, Instant::now()))))
    }

    fn call(&mut self, body: RequestBody) -> Result<Response, String> {
        self.send(body, false)?;
        Ok(self.recv(false)?.0)
    }
}

fn spec(workload: &str, family: &str, n: usize, seed: u64) -> RunSpec {
    RunSpec {
        workload: workload.to_string(),
        family: family.to_string(),
        n,
        seed,
        backing: "inline".to_string(),
        threads: 0,
        round_limit: None,
        deadline_ms: None,
    }
}

/// One answered request of a measured phase.
struct Record {
    /// Index of the request's identity in the workload's identity list.
    key: usize,
    latency_ms: f64,
    done: Instant,
    answer: Result<RunReport, String>,
}

/// Keeps `depth` requests in flight on one connection until `until`, then
/// drains.  `next` yields the identity of the next request.
fn drive(
    addr: SocketAddr,
    depth: usize,
    until: Instant,
    specs: &[RunSpec],
    mut next: impl FnMut() -> usize,
    tracer: &mut Tracer,
    request_base: u64,
) -> Result<Vec<Record>, String> {
    let mut conn = Conn::connect(addr)?;
    let stamp = tracer.enabled();
    let mut inflight: HashMap<u64, (usize, Instant, Stamp)> = HashMap::new();
    let mut records = Vec::new();
    let mut send = |conn: &mut Conn, inflight: &mut HashMap<_, _>| -> Result<(), String> {
        let key = next();
        let sent = Instant::now();
        let (id, encoded) = conn.send(RequestBody::Run(specs[key].clone()), stamp)?;
        inflight.insert(id, (key, sent, encoded));
        Ok(())
    };
    for _ in 0..depth {
        send(&mut conn, &mut inflight)?;
    }
    while !inflight.is_empty() {
        let (response, decoded) = conn.recv(stamp)?;
        let done = Instant::now();
        let (key, sent, encoded) = inflight
            .remove(&response.id)
            .ok_or_else(|| format!("unexpected response id {}", response.id))?;
        if stamp {
            let request = request_base + response.id;
            let root = tracer.record("serve.request", sent, done, SpanId::NONE, request);
            if let Some((a, b)) = encoded {
                tracer.record("proto.encode", a, b, root, request);
            }
            if let Some((a, b)) = decoded {
                tracer.record("proto.decode", a, b, root, request);
            }
        }
        let answer = match response.body {
            ResponseBody::Done(report) => Ok(report),
            ResponseBody::Failed(e) => Err(format!("failed with code {}: {}", e.code, e.message)),
            other => Err(format!("unexpected answer {other:?}")),
        };
        records.push(Record {
            key,
            latency_ms: (done - sent).as_secs_f64() * 1e3,
            done,
            answer,
        });
        if done < until {
            send(&mut conn, &mut inflight)?;
        }
    }
    Ok(records)
}

/// Server-side readings around a measured phase.
struct Readings {
    stats: StatsReport,
    server_cpu_ms: f64,
    client_cpu_ms: f64,
    server_rss_kb: f64,
}

fn read(server: &ServerProc) -> Result<Readings, String> {
    Ok(Readings {
        stats: server.stats()?,
        server_cpu_ms: proc_cpu_ms(Some(server.pid())),
        client_cpu_ms: proc_cpu_ms(None),
        server_rss_kb: proc_status_kb(Some(server.pid()), "VmRSS:").unwrap_or(0.0),
    })
}

/// A measured phase: answers checked against `expected(key)`.
struct Phase {
    records: Vec<Record>,
    /// Consecutive records that form one unit of the mix.
    unit: usize,
    start: Instant,
    wall_s: f64,
    failed: u64,
    first_error: Option<String>,
    before: Readings,
    after: Readings,
}

impl Phase {
    /// The phase cut into `count` equal time slices by completion time.  A
    /// unit of consecutive records (one topology's requests on serve-cold)
    /// stays in one slice, so every slice holds the same request mix.
    fn windows(&self, count: usize) -> Vec<Window> {
        let width = self.wall_s / count as f64;
        let mut windows: Vec<Window> = (0..count)
            .map(|_| Window {
                wall_s: width,
                ..Window::default()
            })
            .collect();
        for unit in self.records.chunks(self.unit) {
            let done = unit.last().expect("chunks are non-empty").done;
            let at = (done - self.start).as_secs_f64() / width;
            let w = &mut windows[(at as usize).min(count - 1)];
            for r in unit {
                if r.answer.is_ok() {
                    w.verified += 1;
                    w.latencies_ms.push(r.latency_ms);
                } else {
                    w.latencies_ms.push(f64::INFINITY);
                }
            }
        }
        windows
    }

    /// Marks answers that disagree with `expected` as failed.
    fn check(&mut self, expected: impl Fn(&Record) -> Option<Expected>) {
        for r in &mut self.records {
            let verdict = match (&r.answer, expected(r)) {
                (Ok(report), Some(want)) if Expected::of_report(report) == want => continue,
                (Ok(report), Some(want)) => {
                    format!(
                        "wrong answer {:?}, expected {want:?}",
                        Expected::of_report(report)
                    )
                }
                (Ok(_), None) => continue,
                (Err(e), _) => e.clone(),
            };
            if r.answer.is_ok() {
                r.answer = Err(verdict.clone());
            }
            self.failed += 1;
            self.first_error.get_or_insert(verdict);
        }
    }

    fn rate(&self, windows: usize) -> f64 {
        median(
            &self
                .windows(windows)
                .iter()
                .map(Window::rate)
                .collect::<Vec<_>>(),
        )
    }

    /// The server-side per-layer metrics of this phase.
    fn layer_metrics(&self, tracer: &Tracer, m: &mut Metrics) {
        let done: Vec<(&RunReport, f64)> = self
            .records
            .iter()
            .filter_map(|r| r.answer.as_ref().ok().map(|a| (a, r.latency_ms)))
            .collect();
        let sorted = |mut v: Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v
        };
        let queue = sorted(done.iter().map(|(a, _)| a.queue_ns as f64 / 1e6).collect());
        let run = sorted(done.iter().map(|(a, _)| a.run_ns as f64 / 1e6).collect());
        let transport: Vec<f64> = done
            .iter()
            .map(|(a, ms)| ms - (a.queue_ns + a.run_ns) as f64 / 1e6)
            .collect();
        let lanes: Vec<f64> = done.iter().map(|(a, _)| f64::from(a.lanes)).collect();
        let runs = done.len().max(1) as f64;
        m.insert(
            "proto.encode_us".into(),
            (tracer.mean_ms("proto.encode") * 1e3, "us"),
        );
        m.insert(
            "proto.decode_us".into(),
            (tracer.mean_ms("proto.decode") * 1e3, "us"),
        );
        m.insert(
            "server.queue_ms_p50".into(),
            (percentile(&queue, 50.0), "ms"),
        );
        m.insert(
            "server.queue_ms_p99".into(),
            (percentile(&queue, 99.0), "ms"),
        );
        m.insert("server.transport_ms_p50".into(), (median(&transport), "ms"));
        m.insert("server.batch_width_mean".into(), (mean(&lanes), "lanes"));
        m.insert(
            "server.coalesced_share".into(),
            (
                lanes.iter().filter(|&&l| l >= 2.0).count() as f64 / runs,
                "ratio",
            ),
        );
        m.insert("server.run_ms_p50".into(), (percentile(&run, 50.0), "ms"));
        m.insert(
            "server.cpu_ms_per_run".into(),
            (
                (self.after.server_cpu_ms - self.before.server_cpu_ms) / runs,
                "ms",
            ),
        );
        m.insert(
            "client.cpu_ms_per_run".into(),
            (
                (self.after.client_cpu_ms - self.before.client_cpu_ms) / runs,
                "ms",
            ),
        );
        let (a, b) = (&self.after.stats, &self.before.stats);
        let ratio = |hits: u64, misses: u64| {
            if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            }
        };
        m.insert(
            "cache.graph_hit_ratio".into(),
            (
                ratio(a.graph_hits - b.graph_hits, a.graph_misses - b.graph_misses),
                "ratio",
            ),
        );
        m.insert(
            "cache.oracle_hit_ratio".into(),
            (
                ratio(
                    a.oracle_hits - b.oracle_hits,
                    a.oracle_misses - b.oracle_misses,
                ),
                "ratio",
            ),
        );
        let new_topologies = (a.graph_misses - b.graph_misses).max(1) as f64;
        m.insert(
            "cache.rss_mb_per_topology".into(),
            (
                (self.after.server_rss_kb - self.before.server_rss_kb) / 1024.0 / new_topologies,
                "MiB",
            ),
        );
    }
}

// ---------------------------------------------------------------------------
// In-process replay through the typed workloads
// ---------------------------------------------------------------------------

/// What a replayed request produced.
struct Replayed {
    expected: Expected,
    /// (max bits, mean bits per node) of the advice, for the schemes.
    advice: Option<(usize, f64)>,
}

fn no_advice<P>(_: &P) -> Option<(usize, f64)> {
    None
}

fn advice_of(advice: &Advice) -> Option<(usize, f64)> {
    let stats = advice.stats();
    Some((stats.max_bits, stats.avg_bits))
}

/// prepare → execute → verify → fold of one typed workload, each in a span
/// under `root`.  A simulator error is folded as the outcome, exactly as the
/// server folds it.
fn replay_typed<W: Workload>(
    workload: &W,
    graph: &WeightedGraph,
    mut w: DigestWriter,
    advice: fn(&W::Prep) -> Option<(usize, f64)>,
    tracer: &mut Tracer,
    root: SpanId,
    request: u64,
) -> Result<Replayed, String> {
    let name = workload.name();
    let prep = tracer
        .time(&format!("oracle.prepare/{name}"), root, request, || {
            workload.prepare(graph)
        })
        .map_err(|e| e.to_string())?;
    let advice = advice(&prep);
    let sim = workload.tune(Sim::on(graph));
    let outcome = tracer.time(&format!("execute/{name}"), root, request, || {
        workload.execute(&sim, prep)
    });
    // The fold span ends with the finished digest.
    let (digest, summary) = match outcome {
        Ok(outcome) => {
            tracer
                .time(&format!("verify/{name}"), root, request, || {
                    workload.verify(graph, &outcome)
                })
                .map_err(|e| e.to_string())?;
            let digest = tracer.time(&format!("fold/{name}"), root, request, || {
                workload.fold(&mut w, &outcome);
                w.finish().to_string()
            });
            (digest, workload.summary(&outcome))
        }
        Err(WorkloadError::Run(error)) => {
            let digest = tracer.time(&format!("fold/{name}"), root, request, || {
                fold_error(&mut w, &error);
                w.finish().to_string()
            });
            (digest, RunSummary::of_error())
        }
        Err(e) => return Err(e.to_string()),
    };
    Ok(Replayed {
        expected: Expected::of_summary(digest, &summary),
        advice,
    })
}

/// Replays one served identity in-process.  `graph` is built by the caller
/// (its span belongs to the topology's first request).
fn replay(
    spec: &RunSpec,
    graph: &WeightedGraph,
    tracer: &mut Tracer,
    root: SpanId,
    request: u64,
) -> Result<Replayed, String> {
    let w = scenario_fold_header(&spec.workload, &spec.family, spec.n, spec.seed);
    let (t, r) = (tracer, request);
    match spec.workload.as_str() {
        // The registry's gossip payload and round count, and its
        // round-limited flood; the lock check catches any drift.
        "flood" => replay_typed(&FloodWorkload::traced(), graph, w, no_advice, t, root, r),
        "err-round-limit" => replay_typed(
            &FloodWorkload::round_limited(5),
            graph,
            w,
            no_advice,
            t,
            root,
            r,
        ),
        "gossip" => replay_typed(&GossipWorkload::new(24, 8), graph, w, no_advice, t, root, r),
        "wave" => replay_typed(&WaveWorkload, graph, w, no_advice, t, root, r),
        "ghs-boruvka" => replay_typed(&GhsWorkload, graph, w, no_advice, t, root, r),
        "flood-collect" => replay_typed(&FloodCollectWorkload, graph, w, no_advice, t, root, r),
        "scheme-trivial" => {
            let workload = SchemeWorkload::new("scheme-trivial", TrivialScheme::default());
            replay_typed(&workload, graph, w, advice_of, t, root, r)
        }
        "scheme-one-round" => {
            let workload = SchemeWorkload::new("scheme-one-round", OneRoundScheme::default());
            replay_typed(&workload, graph, w, advice_of, t, root, r)
        }
        "scheme-constant" => {
            let workload = SchemeWorkload::new("scheme-constant", ConstantScheme::default());
            replay_typed(&workload, graph, w, advice_of, t, root, r)
        }
        "certified-constant" => {
            let workload = CertifiedWorkload::new("certified-constant", ConstantScheme::default());
            replay_typed(&workload, graph, w, advice_of, t, root, r)
        }
        // The registry's private error-path program: replayed through the
        // erased pipeline, as one span.
        name => t.time(&format!("execute/{name}"), root, r, || {
            let workload = WorkloadCatalog::new()
                .resolve(name)
                .ok_or_else(|| format!("unknown workload {name}"))?;
            let mut w = w;
            let summary = workload
                .run_fold(&workload.tune(Sim::on(graph)), &mut w)
                .map_err(|e| e.to_string())?;
            Ok(Replayed {
                expected: Expected::of_summary(w.finish().to_string(), &summary),
                advice: None,
            })
        }),
    }
}

fn build_graph(
    spec: &RunSpec,
    tracer: &mut Tracer,
    parent: SpanId,
    request: u64,
) -> Result<WeightedGraph, String> {
    let family =
        Family::from_name(&spec.family).ok_or_else(|| format!("unknown family {}", spec.family))?;
    Ok(tracer.time(
        &format!("graph.build/{}", spec.family),
        parent,
        request,
        || {
            family.instantiate(
                spec.n,
                WeightStrategy::DistinctRandom { seed: spec.seed },
                spec.seed,
            )
        },
    ))
}

/// The per-layer metrics of an in-process replay.
fn replay_metrics(tracer: &Tracer, advice: &HashMap<String, Vec<(usize, f64)>>, m: &mut Metrics) {
    for family in crate::FAMILIES {
        let ms = tracer.mean_ms(&format!("graph.build/{family}"));
        if ms > 0.0 {
            m.insert(format!("graph.build_ms.{family}"), (ms, "ms"));
        }
    }
    for scheme in crate::SCHEMES {
        m.insert(
            format!("oracle.prepare_ms.{scheme}"),
            (tracer.mean_ms(&format!("oracle.prepare/{scheme}")), "ms"),
        );
        m.insert(
            format!("decode.execute_ms.{scheme}"),
            (tracer.mean_ms(&format!("execute/{scheme}")), "ms"),
        );
        if let Some(stats) = advice
            .get(scheme)
            .filter(|_| scheme != "certified-constant")
        {
            let max = stats.iter().map(|s| s.0).max().unwrap_or(0);
            let avg: Vec<f64> = stats.iter().map(|s| s.1).collect();
            m.insert(format!("advice.max_bits.{scheme}"), (max as f64, "bits"));
            m.insert(format!("advice.mean_bits.{scheme}"), (mean(&avg), "bits"));
        }
    }
    for workload in ["flood", "wave", "ghs-boruvka", "flood-collect"] {
        m.insert(
            format!("verify.ms.{workload}"),
            (tracer.mean_ms(&format!("verify/{workload}")), "ms"),
        );
    }
    for workload in [
        "flood",
        "gossip",
        "wave",
        "scheme-constant",
        "certified-constant",
    ] {
        m.insert(
            format!("digest.fold_ms.{workload}"),
            (tracer.mean_ms(&format!("fold/{workload}")), "ms"),
        );
    }
    m.insert(
        "trace.unattributed_pct".into(),
        (tracer.reconcile("replay/").unattributed_pct, "%"),
    );
}

fn reconciliation_note(tracer: &Tracer) -> String {
    tracer.reconcile("replay/").note("replayed request")
}

// ---------------------------------------------------------------------------
// serve-hot
// ---------------------------------------------------------------------------

pub fn hot(args: &Args) -> Result<Outcome, String> {
    let text = std::fs::read_to_string("SCENARIOS.lock").map_err(io("SCENARIOS.lock"))?;
    let lock = LockFile::parse(&text)?;
    let catalog = WorkloadCatalog::new();
    let scenarios = catalog.scenarios();
    let specs: Vec<RunSpec> = scenarios
        .iter()
        .map(|s| spec(s.workload.name(), s.family.name(), s.n, s.seed))
        .collect();
    let goldens: Vec<Expected> = scenarios
        .iter()
        .map(|s| {
            let g = lock
                .get(&s.id())
                .ok_or_else(|| format!("{} missing from SCENARIOS.lock", s.id()))?;
            Ok(Expected {
                digest: g.digest.to_string(),
                rounds: g.rounds as u64,
                messages: g.messages,
                bits: g.bits,
            })
        })
        .collect::<Result<_, String>>()?;

    // Skewed popularity: Zipf (s = 1) over the registry order, so the
    // scenario at index r is drawn with weight 1/(r + 1).  The ranking is
    // fixed and the seed drives only the draws: a seed-dependent ranking
    // would change the work mix, not just its order.
    let mut rng = SplitMix64::new(args.seed);
    let weights: Vec<f64> = (0..specs.len()).map(|r| 1.0 / (r + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    let draw = move |rng: &mut SplitMix64| {
        let u = rng.next_f64();
        cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1)
    };
    let mut streams: Vec<SplitMix64> = (0..HOT_CONNECTIONS).map(|_| rng.split()).collect();

    // Setup: boot plus one warm-up pass over every identity, several times.
    let mut setup_s = Vec::new();
    let mut server: Option<ServerProc> = None;
    let mut failed = 0u64;
    for _ in 0..HOT_SETUPS {
        if let Some(old) = server.take() {
            old.shutdown()?;
        }
        let t0 = Instant::now();
        let booted = ServerProc::boot(&args.server)?;
        let mut conn = Conn::connect(booted.addr)?;
        for (s, golden) in specs.iter().zip(&goldens) {
            match conn.call(RequestBody::Run(s.clone()))?.body {
                ResponseBody::Done(r) if Expected::of_report(&r) == *golden => {}
                other => return Err(format!("warm-up {}/{}: {other:?}", s.workload, s.family)),
            }
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        server = Some(booted);
    }
    let server = server.expect("at least one setup");

    let origin = Instant::now();
    let mut measure = |seconds: Duration, tracer: &mut Tracer| -> Result<Phase, String> {
        let before = read(&server)?;
        let start = Instant::now();
        let until = start + seconds;
        let enabled = tracer.enabled();
        let results: Vec<Result<(Vec<Record>, Tracer), String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = streams
                .iter_mut()
                .enumerate()
                .map(|(c, stream)| {
                    let (specs, draw) = (&specs, &draw);
                    scope.spawn(move || {
                        let mut local = Tracer::new(origin, enabled);
                        let base = (c as u64 + 1) << 40;
                        drive(
                            server.addr,
                            HOT_DEPTH,
                            until,
                            specs,
                            || draw(stream),
                            &mut local,
                            base,
                        )
                        .map(|r| (r, local))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall_s = start.elapsed().as_secs_f64();
        let mut records = Vec::new();
        for result in results {
            let (r, local) = result?;
            records.extend(r);
            tracer.absorb(local);
        }
        let after = read(&server)?;
        let mut phase = Phase {
            records,
            unit: 1,
            start,
            wall_s,
            failed: 0,
            first_error: None,
            before,
            after,
        };
        phase.check(|r| Some(goldens[r.key].clone()));
        Ok(phase)
    };

    let mut tracer = Tracer::new(origin, args.trace);
    let mut per_layer = Metrics::new();
    let mut notes = Vec::new();
    let ticks = crate::cpu_ticks();
    let (phase, untraced) = if args.trace {
        let untraced = measure(args.seconds / 2, &mut Tracer::new(origin, false))?;
        (measure(args.seconds / 2, &mut tracer)?, Some(untraced))
    } else {
        (
            measure(args.seconds, &mut Tracer::new(origin, false))?,
            None,
        )
    };
    let peak_rss_mb = proc_status_kb(Some(server.pid()), "VmHWM:").unwrap_or(0.0) / 1024.0;
    let steal = crate::steal_note(ticks);
    server.shutdown()?;

    if let Some(untraced) = &untraced {
        failed += untraced.failed;
        per_layer.insert(
            "trace.overhead_pct".into(),
            (
                100.0 * (untraced.rate(HOT_WINDOWS) / phase.rate(HOT_WINDOWS) - 1.0),
                "%",
            ),
        );
        phase.layer_metrics(&tracer, &mut per_layer);
        // Replay every identity once in-process, checked against the lock.
        let mut advice: HashMap<String, Vec<(usize, f64)>> = HashMap::new();
        for (i, (s, golden)) in specs.iter().zip(&goldens).enumerate() {
            let request = 1 + i as u64;
            let root = tracer.begin(&format!("replay/{}", s.workload), SpanId::NONE, request);
            let replayed = build_graph(s, &mut tracer, root, request)
                .and_then(|g| replay(s, &g, &mut tracer, root, request));
            tracer.end(root);
            match replayed {
                Ok(r) if r.expected == *golden => {
                    if let Some(a) = r.advice {
                        advice.entry(s.workload.clone()).or_default().push(a);
                    }
                }
                Ok(r) => {
                    failed += 1;
                    notes.push(format!(
                        "replay of {}/{} disagrees with the lock: {:?}",
                        s.workload, s.family, r.expected
                    ));
                }
                Err(e) => {
                    failed += 1;
                    notes.push(format!("replay of {}/{} failed: {e}", s.workload, s.family));
                }
            }
        }
        replay_metrics(&tracer, &advice, &mut per_layer);
        notes.push(reconciliation_note(&tracer));
    }
    failed += phase.failed;
    let attempted =
        phase.records.len() as u64 + untraced.as_ref().map_or(0, |u| u.records.len() as u64);
    let distinct: BTreeSet<usize> = phase.records.iter().map(|r| r.key).collect();
    notes.push(format!(
        "serve-hot: {} requests over {} identities on {HOT_CONNECTIONS} connections x {HOT_DEPTH} in flight",
        phase.records.len(),
        distinct.len()
    ));
    notes.push(crate::windows_note(&phase.windows(HOT_WINDOWS)));
    notes.push(steal);
    for e in phase
        .first_error
        .iter()
        .chain(untraced.iter().flat_map(|u| u.first_error.iter()))
    {
        notes.push(format!("first failure: {e}"));
    }
    Ok(Outcome {
        attempted,
        failed,
        end_to_end: end_to_end(&phase.windows(HOT_WINDOWS), &setup_s, peak_rss_mb),
        per_layer,
        notes,
        spans: args.trace.then_some(tracer),
    })
}

// ---------------------------------------------------------------------------
// serve-cold
// ---------------------------------------------------------------------------

pub fn cold(args: &Args) -> Result<Outcome, String> {
    // The sweep: topology i rotates through the families with a fresh
    // seed; each topology is requested once per scheme.
    let mut rng = SplitMix64::new(args.seed);
    let offset = rng.next_index(COLD_FAMILIES.len());
    let mut topologies: Vec<(Family, u64)> = Vec::new();
    let mut topology = |i: usize, topologies: &mut Vec<(Family, u64)>| {
        while topologies.len() <= i {
            let family = COLD_FAMILIES[(offset + topologies.len()) % COLD_FAMILIES.len()];
            topologies.push((family, rng.next_below(1 << 32)));
        }
        topologies[i]
    };

    // Setup: server boot, several times.
    let mut setup_s = Vec::new();
    let mut server: Option<ServerProc> = None;
    for _ in 0..COLD_SETUPS {
        if let Some(old) = server.take() {
            old.shutdown()?;
        }
        let t0 = Instant::now();
        server = Some(ServerProc::boot(&args.server)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let server = server.expect("at least one setup");

    let origin = Instant::now();
    // Specs of every request served, in order; `Record::key` indexes it.
    let mut specs: Vec<RunSpec> = Vec::new();
    let mut next_topology = 0usize;
    let mut measure = |seconds: Duration,
                       tracer: &mut Tracer,
                       specs: &mut Vec<RunSpec>|
     -> Result<Phase, String> {
        let before = read(&server)?;
        let mut conn = Conn::connect(server.addr)?;
        let stamp = tracer.enabled();
        let start = Instant::now();
        let mut records = Vec::new();
        while start.elapsed() < seconds {
            let (family, seed) = topology(next_topology, &mut topologies);
            next_topology += 1;
            for scheme in crate::SCHEMES {
                let key = specs.len();
                specs.push(spec(scheme, family.name(), COLD_N, seed));
                let sent = Instant::now();
                let (id, encoded) = conn.send(RequestBody::Run(specs[key].clone()), stamp)?;
                let (response, decoded) = conn.recv(stamp)?;
                let done = Instant::now();
                if response.id != id {
                    return Err(format!("answer {} to request {id}", response.id));
                }
                if stamp {
                    let request = key as u64 + 1;
                    let root = tracer.record("serve.request", sent, done, SpanId::NONE, request);
                    if let Some((a, b)) = encoded {
                        tracer.record("proto.encode", a, b, root, request);
                    }
                    if let Some((a, b)) = decoded {
                        tracer.record("proto.decode", a, b, root, request);
                    }
                }
                records.push(Record {
                    key,
                    latency_ms: (done - sent).as_secs_f64() * 1e3,
                    done,
                    answer: match response.body {
                        ResponseBody::Done(report) => Ok(report),
                        ResponseBody::Failed(e) => {
                            Err(format!("failed with code {}: {}", e.code, e.message))
                        }
                        other => Err(format!("unexpected answer {other:?}")),
                    },
                });
            }
        }
        let wall_s = start.elapsed().as_secs_f64();
        drop(conn);
        let after = read(&server)?;
        Ok(Phase {
            records,
            unit: crate::SCHEMES.len(),
            start,
            wall_s,
            failed: 0,
            first_error: None,
            before,
            after,
        })
    };

    let mut tracer = Tracer::new(origin, args.trace);
    let ticks = crate::cpu_ticks();
    let (mut phase, mut untraced) = if args.trace {
        let untraced = measure(
            args.seconds / 2,
            &mut Tracer::new(origin, false),
            &mut specs,
        )?;
        (
            measure(args.seconds / 2, &mut tracer, &mut specs)?,
            Some(untraced),
        )
    } else {
        (
            measure(args.seconds, &mut Tracer::new(origin, false), &mut specs)?,
            None,
        )
    };
    let peak_rss_mb = proc_status_kb(Some(server.pid()), "VmHWM:").unwrap_or(0.0) / 1024.0;
    let steal = crate::steal_note(ticks);
    server.shutdown()?;

    // Check every answer against an in-process run of the same identity;
    // in a traced run, the measured half's replay is traced.
    let traced_from = untraced.as_ref().map_or(usize::MAX, |u| u.records.len());
    let mut off = Tracer::new(origin, false);
    let mut replayed: Vec<Option<Expected>> = Vec::with_capacity(specs.len());
    let mut advice: HashMap<String, Vec<(usize, f64)>> = HashMap::new();
    let mut notes = Vec::new();
    let mut graph: Option<WeightedGraph> = None;
    for (key, s) in specs.iter().enumerate() {
        let t = if key >= traced_from {
            &mut tracer
        } else {
            &mut off
        };
        let request = key as u64 + 1;
        let root = t.begin(&format!("replay/{}", s.workload), SpanId::NONE, request);
        let first_of_topology = key % crate::SCHEMES.len() == 0;
        if first_of_topology {
            graph = Some(build_graph(s, t, root, request)?);
        }
        let result = replay(s, graph.as_ref().expect("graph built"), t, root, request);
        t.end(root);
        match result {
            Ok(r) => {
                if key / crate::SCHEMES.len() < ADVICE_TOPOLOGIES {
                    if let Some(a) = r.advice {
                        advice.entry(s.workload.clone()).or_default().push(a);
                    }
                }
                replayed.push(Some(r.expected));
            }
            Err(e) => {
                notes.push(format!(
                    "in-process run of {}/{}/s{} failed: {e}",
                    s.workload, s.family, s.seed
                ));
                replayed.push(None);
            }
        }
    }
    let expected = |r: &Record| {
        replayed[r.key].clone().or_else(|| {
            Some(Expected {
                digest: "in-process run failed".to_string(),
                rounds: 0,
                messages: 0,
                bits: 0,
            })
        })
    };
    phase.check(expected);
    if let Some(u) = &mut untraced {
        u.check(expected);
    }

    let mut per_layer = Metrics::new();
    let mut failed = phase.failed;
    if let Some(untraced) = &untraced {
        failed += untraced.failed;
        per_layer.insert(
            "trace.overhead_pct".into(),
            (
                100.0 * (untraced.rate(COLD_WINDOWS) / phase.rate(COLD_WINDOWS) - 1.0),
                "%",
            ),
        );
        phase.layer_metrics(&tracer, &mut per_layer);
        replay_metrics(&tracer, &advice, &mut per_layer);
        per_layer.insert(
            "labeling.certify_ms".into(),
            (
                tracer.mean_ms("execute/certified-constant")
                    - tracer.mean_ms("execute/scheme-constant"),
                "ms",
            ),
        );
        notes.push(reconciliation_note(&tracer));
    }
    let attempted =
        phase.records.len() as u64 + untraced.as_ref().map_or(0, |u| u.records.len() as u64);
    notes.push(format!(
        "serve-cold: {} requests over {} topologies of ~{COLD_N} nodes, one in flight",
        specs.len(),
        specs.len() / crate::SCHEMES.len()
    ));
    notes.push(crate::windows_note(&phase.windows(COLD_WINDOWS)));
    notes.push(steal);
    for e in phase
        .first_error
        .iter()
        .chain(untraced.iter().flat_map(|u| u.first_error.iter()))
    {
        notes.push(format!("first failure: {e}"));
    }
    Ok(Outcome {
        attempted,
        failed,
        end_to_end: end_to_end(&phase.windows(COLD_WINDOWS), &setup_s, peak_rss_mb),
        per_layer,
        notes,
        spans: args.trace.then_some(tracer),
    })
}

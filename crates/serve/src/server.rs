// lint: allow-file(wall-clock) — admission/latency timing is this module’s purpose; nothing here feeds a digest
//! The server: admission, the coalescing dispatcher, and transports.
//!
//! Life of a request:
//!
//! 1. A connection thread reads one frame, decodes it with the *total*
//!    decoder ([`Request::decode_checked`]) and hands it to admission.
//!    Malformed payloads answer `Failed(BAD_REQUEST)` without touching the
//!    connection — framing keeps the stream in sync, so one poisoned
//!    request never takes down its neighbours, let alone the process.
//! 2. Admission validates a run spec against the [`WorkloadCatalog`]
//!    (unknown names fail *before* queueing) and pushes a job onto the
//!    bounded admission queue — full queue → `OVERLOADED`, draining server
//!    → `DRAINING`.
//! 3. The dispatcher thread drains the whole queue per wakeup (holding the
//!    door open for [`ServerConfig::coalesce_window`] while a burst is
//!    still arriving), groups jobs by run identity, and executes each
//!    group: width-1 groups via `run_fold_prepared`, width-W groups as one
//!    lockstep [`Sim::batch`] — W queued requests for the same topology
//!    and program cost one traversal.
//! 4. Every job gets exactly one terminal response: `Done` with digest and
//!    latencies, or a typed `Failed` (deadline expired in queue, prepare
//!    failure, verification failure, or a panic caught at the group
//!    boundary — the server survives and answers `PANIC`).
//!
//! Shutdown is a request, not a signal: `Shutdown` flips the server into
//! draining, the dispatcher finishes the queue, and the requester receives
//! `Bye` carrying the lifetime completed-run count once the last job is
//! answered.

use crate::cache::{HotCache, TopologyKey};
use crate::metrics::Metrics;
use crate::proto::{
    code, read_frame, write_frame, ErrorReport, Request, RequestBody, Response, ResponseBody,
    RunReport, RunSpec, StatsReport,
};
use lma_bench::{fan_out, WorkloadCatalog};
use lma_graph::generators::Family;
use lma_sim::{Backing, DigestWriter, Sim, WorkloadError};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Upper bound on a run spec's node count — far above every registry
/// scenario, low enough that a hostile spec cannot wedge the server in a
/// half-hour graph build.
pub const MAX_NODES: usize = 1 << 20;

/// Upper bound on a run spec's thread count.
pub const MAX_THREADS: usize = 64;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads for group execution: `1` runs groups inline on the
    /// dispatcher thread (best thread-local plane-pool reuse), `w ≥ 2`
    /// fans independent groups out over the work-stealing pool.
    pub workers: usize,
    /// Merge queued same-identity requests into one lockstep batch.  Off,
    /// every request runs solo — the uncoalesced baseline of the
    /// `BENCH_serve.json` trajectory.
    pub coalesce: bool,
    /// How long the dispatcher holds the door open for a still-arriving
    /// burst before executing a partial batch (only with `coalesce`).
    pub coalesce_window: Duration,
    /// Admission-queue capacity; a full queue answers `OVERLOADED`.
    pub max_queue: usize,
    /// Widest lockstep batch one group may form.
    pub max_batch: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            coalesce: true,
            coalesce_window: Duration::from_micros(500),
            max_queue: 1024,
            max_batch: 8,
        }
    }
}

/// One admitted run request, validated and resolved to registry types.
struct Job {
    id: u64,
    kind: lma_bench::scenarios::WorkloadKind,
    family: Family,
    n: usize,
    seed: u64,
    backing: Backing,
    threads: usize,
    round_limit: Option<u64>,
    batchable: bool,
    deadline: Option<Instant>,
    enqueued: Instant,
    reply: ReplyTx,
}

impl Job {
    /// The coalescing identity: jobs with equal keys fold byte-identical
    /// digests and run under identical knobs, so they may share one batch.
    fn group_key(&self) -> GroupKey {
        (
            self.kind.name(),
            self.family.name(),
            self.n,
            self.seed,
            self.backing.as_str(),
            self.threads,
            self.round_limit,
        )
    }

    fn topology_key(&self) -> TopologyKey {
        (self.family.name(), self.n, self.seed)
    }
}

type GroupKey = (
    &'static str,
    &'static str,
    usize,
    u64,
    &'static str,
    usize,
    Option<u64>,
);

/// A response channel usable from the fan-out pool (`mpsc::Sender` is not
/// `Sync`; one mutex per job makes the whole `Job` shareable by reference).
struct ReplyTx(Mutex<Sender<Response>>);

impl ReplyTx {
    fn new(tx: Sender<Response>) -> Self {
        Self(Mutex::new(tx))
    }

    /// Delivery is best-effort: the peer may have hung up.
    fn send(&self, response: Response) {
        let sent = self.0.lock().expect("reply sender poisoned").send(response);
        drop(sent);
    }
}

/// Queue state guarded by the admission mutex.
#[derive(Default)]
struct QueueState {
    queue: VecDeque<Job>,
    draining: bool,
    /// `Shutdown` requesters awaiting their `Bye`.
    byes: Vec<(u64, ReplyTx)>,
}

/// Everything shared between connections and the dispatcher.
struct Shared {
    config: ServerConfig,
    catalog: WorkloadCatalog,
    cache: HotCache,
    metrics: Metrics,
    state: Mutex<QueueState>,
    wakeup: Condvar,
    /// Run requests answered (Done or Failed) over the server's lifetime;
    /// reported in `Bye`.
    completed: AtomicU64,
}

impl Shared {
    fn stats(&self) -> StatsReport {
        self.metrics.snapshot(
            self.cache.graph_stats(),
            self.cache.partition_stats(),
            self.cache.oracle_stats(),
        )
    }
}

/// The long-lived workload server (see the module docs).  Dropping a
/// `Server` without [`Server::shutdown`] + [`Server::join`] detaches the
/// dispatcher thread; orderly exits drain first.
pub struct Server {
    shared: Arc<Shared>,
    dispatcher: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts the dispatcher and returns the running server.
    #[must_use]
    pub fn start(config: ServerConfig) -> Self {
        let shared = Arc::new(Shared {
            config,
            catalog: WorkloadCatalog::new(),
            cache: HotCache::new(),
            metrics: Metrics::new(),
            state: Mutex::new(QueueState::default()),
            wakeup: Condvar::new(),
            completed: AtomicU64::new(0),
        });
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("lma-serve-dispatch".to_string())
                .spawn(move || dispatch_loop(&shared))
                .expect("spawn dispatcher")
        };
        Self {
            shared,
            dispatcher: Some(dispatcher),
        }
    }

    /// Serves one already-open connection on the calling thread until the
    /// peer closes it.  Responses are written by a dedicated writer thread,
    /// so a slow reader never blocks the dispatcher.
    pub fn serve_connection<R: Read, W: Write + Send + 'static>(&self, reader: R, writer: W) {
        serve_connection(&self.shared, reader, writer);
    }

    /// Programmatic drain: equivalent to receiving a `Shutdown` request,
    /// minus the `Bye` (there is no requester).
    pub fn shutdown(&self) {
        let mut state = self.shared.state.lock().expect("server state poisoned");
        state.draining = true;
        drop(state);
        self.shared.wakeup.notify_all();
    }

    /// Waits for the dispatcher to finish draining.  Call after
    /// [`Server::shutdown`] or once a client's `Shutdown` got its `Bye`.
    pub fn join(mut self) {
        self.join_dispatcher();
    }

    fn join_dispatcher(&mut self) {
        if let Some(handle) = self.dispatcher.take() {
            handle.join().expect("dispatcher panicked");
        }
    }

    /// The current metrics snapshot (also served as `Stats` on the wire).
    #[must_use]
    pub fn stats(&self) -> StatsReport {
        self.shared.stats()
    }
}

/// A TCP front-end for a [`Server`]: accept loop on its own thread,
/// one thread per connection.
pub struct TcpServer {
    server: Server,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    stop_accept: Arc<AtomicBool>,
}

impl TcpServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving.
    ///
    /// # Errors
    /// The bind error, verbatim.
    pub fn bind(addr: &str, config: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let server = Server::start(config);
        let stop_accept = Arc::new(AtomicBool::new(false));
        let accept = {
            let shared = Arc::clone(&server.shared);
            let stop = Arc::clone(&stop_accept);
            std::thread::Builder::new()
                .name("lma-serve-accept".to_string())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        // The protocol ping-pongs small frames; leaving
                        // Nagle on turns every burst into a delayed-ACK
                        // stall and caps throughput at ~100 requests/sec.
                        let _ = stream.set_nodelay(true);
                        let Ok(write_half) = stream.try_clone() else {
                            continue;
                        };
                        let shared = Arc::clone(&shared);
                        // A failed spawn (out of threads or memory) drops
                        // this one connection — the closure, and both
                        // halves of the stream with it — and keeps
                        // accepting.
                        let _ = std::thread::Builder::new()
                            .name("lma-serve-conn".to_string())
                            .spawn(move || serve_connection(&shared, stream, write_half));
                    }
                })
                .expect("spawn accept thread")
        };
        Ok(Self {
            server,
            addr: local,
            accept: Some(accept),
            stop_accept,
        })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Drains the dispatcher, unblocks the accept loop and joins both.
    /// For a server that should keep running until a *client* requests the
    /// drain, use [`TcpServer::wait`] instead.
    pub fn join(self) {
        self.server.shutdown();
        self.wait();
    }

    /// Blocks until the dispatcher exits — i.e. until some client's
    /// `Shutdown` request (or a prior [`Server::shutdown`]) drains the
    /// queue — then unblocks the accept loop and joins it.
    pub fn wait(mut self) {
        self.server.join_dispatcher();
        self.stop_accept.store(true, Ordering::Release);
        // The accept loop blocks in `incoming()`; a throwaway connection
        // wakes it so it can observe the stop flag.
        drop(TcpStream::connect(self.addr));
        if let Some(handle) = self.accept.take() {
            handle.join().expect("accept thread panicked");
        }
    }
}

// ---------------------------------------------------------------------------
// Connection handling + admission
// ---------------------------------------------------------------------------

fn serve_connection<R: Read, W: Write + Send + 'static>(
    shared: &Arc<Shared>,
    mut reader: R,
    mut writer: W,
) {
    let (tx, rx) = std::sync::mpsc::channel::<Response>();
    let writer_thread = std::thread::Builder::new()
        .name("lma-serve-write".to_string())
        .spawn(move || {
            while let Ok(response) = rx.recv() {
                if write_frame(&mut writer, &response.to_bytes()).is_err() {
                    break;
                }
            }
        })
        .expect("spawn writer thread");
    while let Ok(Some(payload)) = read_frame(&mut reader) {
        match Request::decode_checked(&payload) {
            Ok(request) => admit(shared, request, &tx),
            Err(error) => {
                // The frame boundary held, so the stream is still in sync:
                // answer the one bad request and keep serving.
                let failed = Response {
                    id: 0,
                    body: ResponseBody::Failed(ErrorReport {
                        code: code::BAD_REQUEST,
                        message: format!("malformed request: {error}"),
                    }),
                };
                if tx.send(failed).is_err() {
                    break;
                }
            }
        }
    }
    drop(tx);
    writer_thread.join().expect("writer thread panicked");
}

fn admit(shared: &Arc<Shared>, request: Request, tx: &Sender<Response>) {
    let Request { id, body } = request;
    match body {
        RequestBody::Ping => {
            let pong = tx.send(Response {
                id,
                body: ResponseBody::Pong,
            });
            drop(pong);
        }
        RequestBody::Stats => {
            let stats = tx.send(Response {
                id,
                body: ResponseBody::Stats(shared.stats()),
            });
            drop(stats);
        }
        RequestBody::Shutdown => {
            let mut state = shared.state.lock().expect("server state poisoned");
            state.draining = true;
            state.byes.push((id, ReplyTx::new(tx.clone())));
            drop(state);
            shared.wakeup.notify_all();
        }
        RequestBody::Run(spec) => {
            // On a validation failure `validate` has already answered.
            if let Ok(job) = validate(shared, id, &spec, tx) {
                let mut state = shared.state.lock().expect("server state poisoned");
                if state.draining {
                    drop(state);
                    refuse(shared, id, tx, code::DRAINING, "server is draining");
                } else if state.queue.len() >= shared.config.max_queue {
                    drop(state);
                    refuse(shared, id, tx, code::OVERLOADED, "admission queue is full");
                } else {
                    state.queue.push_back(job);
                    drop(state);
                    shared.wakeup.notify_all();
                }
            }
        }
    }
}

/// Resolves a spec against the catalog; on any failure answers the typed
/// error itself and returns `Err(())`.
fn validate(
    shared: &Arc<Shared>,
    id: u64,
    spec: &RunSpec,
    tx: &Sender<Response>,
) -> Result<Job, ()> {
    let Some(kind) = shared.catalog.kind(&spec.workload) else {
        refuse(
            shared,
            id,
            tx,
            code::UNKNOWN_WORKLOAD,
            &format!("unknown workload `{}`", spec.workload),
        );
        return Err(());
    };
    let Some(family) = shared.catalog.family(&spec.family) else {
        refuse(
            shared,
            id,
            tx,
            code::UNKNOWN_FAMILY,
            &format!("unknown graph family `{}`", spec.family),
        );
        return Err(());
    };
    let Ok(backing) = spec.backing.parse::<Backing>() else {
        refuse(
            shared,
            id,
            tx,
            code::UNKNOWN_BACKING,
            &format!("unknown plane backing `{}`", spec.backing),
        );
        return Err(());
    };
    if spec.n == 0 || spec.n > MAX_NODES {
        refuse(
            shared,
            id,
            tx,
            code::BAD_REQUEST,
            &format!("node count {} outside 1..={MAX_NODES}", spec.n),
        );
        return Err(());
    }
    if spec.threads > MAX_THREADS {
        refuse(
            shared,
            id,
            tx,
            code::BAD_REQUEST,
            &format!("thread count {} exceeds {MAX_THREADS}", spec.threads),
        );
        return Err(());
    }
    let now = Instant::now();
    Ok(Job {
        id,
        kind,
        family,
        n: spec.n,
        seed: spec.seed,
        backing,
        threads: spec.threads,
        round_limit: spec.round_limit,
        batchable: kind.workload().supports_batch(),
        deadline: spec.deadline_ms.map(|ms| now + Duration::from_millis(ms)),
        enqueued: now,
        reply: ReplyTx::new(tx.clone()),
    })
}

/// Answers a typed admission failure and counts it.
fn refuse(shared: &Shared, id: u64, tx: &Sender<Response>, code: u8, message: &str) {
    shared.metrics.record_failed();
    shared.completed.fetch_add(1, Ordering::Relaxed);
    let sent = tx.send(Response {
        id,
        body: ResponseBody::Failed(ErrorReport {
            code,
            message: message.to_string(),
        }),
    });
    drop(sent);
}

// ---------------------------------------------------------------------------
// The dispatcher
// ---------------------------------------------------------------------------

fn dispatch_loop(shared: &Arc<Shared>) {
    loop {
        let jobs = {
            let mut state = shared.state.lock().expect("server state poisoned");
            while state.queue.is_empty() && !state.draining {
                state = shared.wakeup.wait(state).expect("server state poisoned");
            }
            if state.queue.is_empty() {
                // Draining and nothing left: answer the shutdown
                // requesters and stop.
                let completed = shared.completed.load(Ordering::Relaxed);
                for (id, reply) in state.byes.drain(..) {
                    reply.send(Response {
                        id,
                        body: ResponseBody::Bye(completed),
                    });
                }
                return;
            }
            // Coalescing window: a pipelined burst lands frame by frame, so
            // hold the door open briefly while the queue is still filling.
            if shared.config.coalesce {
                let door_closes = Instant::now() + shared.config.coalesce_window;
                while state.queue.len() < shared.config.max_batch && !state.draining {
                    let Some(patience) = door_closes.checked_duration_since(Instant::now()) else {
                        break;
                    };
                    if patience.is_zero() {
                        break;
                    }
                    let (next, timeout) = shared
                        .wakeup
                        .wait_timeout(state, patience)
                        .expect("server state poisoned");
                    state = next;
                    if timeout.timed_out() {
                        break;
                    }
                }
            }
            std::mem::take(&mut state.queue)
        };
        let groups = group(shared, jobs);
        let workers = shared.config.workers.max(1);
        if workers == 1 || groups.len() == 1 {
            for jobs in &groups {
                execute_group(shared, jobs);
            }
        } else {
            let threads = NonZeroUsize::new(workers).expect("workers >= 1");
            fan_out(&groups, threads, |_, jobs| execute_group(shared, jobs));
        }
    }
}

/// Partitions a dispatch window into coalescible groups, preserving FIFO
/// order of first arrival.  Groups are capped at `max_batch`; non-batchable
/// workloads and `coalesce: false` degenerate to width-1 groups.
fn group(shared: &Shared, jobs: VecDeque<Job>) -> Vec<Vec<Job>> {
    let mut groups: Vec<Vec<Job>> = Vec::new();
    let mut open: HashMap<GroupKey, usize> = HashMap::new();
    for job in jobs {
        if !(shared.config.coalesce && job.batchable) {
            groups.push(vec![job]);
            continue;
        }
        let key = job.group_key();
        match open.get(&key) {
            Some(&at) if groups[at].len() < shared.config.max_batch => groups[at].push(job),
            _ => {
                open.insert(key, groups.len());
                groups.push(vec![job]);
            }
        }
    }
    groups
}

/// Runs one coalesced group end to end and answers every member.
fn execute_group(shared: &Shared, jobs: &[Job]) {
    let now = Instant::now();
    // Deadline is a queue-wait budget: a request whose deadline passed
    // while it sat in the queue fails instead of running.
    let (expired, live): (Vec<&Job>, Vec<&Job>) = jobs
        .iter()
        .partition(|job| job.deadline.is_some_and(|deadline| deadline < now));
    for job in expired {
        fail_job(shared, job, code::DEADLINE, "deadline expired in queue");
    }
    if live.is_empty() {
        return;
    }
    let lead = live[0];
    let topology = lead.topology_key();
    let graph = shared.cache.graph(lead.family, lead.n, lead.seed);
    let workload = lead.kind.workload();
    let oracle = match shared.cache.oracle(workload.as_ref(), topology, &graph) {
        Ok(oracle) => oracle,
        Err(error) => {
            for job in &live {
                fail_job(shared, job, code::PREPARE, &error.to_string());
            }
            return;
        }
    };
    let partition =
        (lead.threads >= 2).then(|| shared.cache.partition(topology, &graph, lead.threads));
    let mut sim = workload.tune(Sim::on(&graph)).backing(lead.backing);
    if let Some(partition) = partition.as_deref() {
        sim = sim.threads(lead.threads).with_partition(partition);
    }
    if let Some(limit) = lead.round_limit {
        sim = sim.round_limit(usize::try_from(limit).unwrap_or(usize::MAX));
    }
    let width = live.len();
    let mut writers: Vec<DigestWriter> = (0..width)
        .map(|_| {
            shared
                .catalog
                .fold_header(lead.kind.name(), lead.family.name(), lead.n, lead.seed)
        })
        .collect();
    let run_started = Instant::now();
    let ran = catch_unwind(AssertUnwindSafe(|| {
        if width == 1 {
            workload
                .run_fold_prepared(&sim, &oracle, &mut writers[0])
                .map(|summary| vec![summary])
        } else {
            workload.run_fold_batch_prepared(&sim, &oracle, width, &mut writers)
        }
    }));
    let run_ns = elapsed_ns(run_started);
    shared
        .metrics
        .record_batch(u32::try_from(width).unwrap_or(u32::MAX));
    match ran {
        Ok(Ok(summaries)) => {
            for ((job, writer), summary) in live.iter().zip(writers).zip(summaries) {
                let queue_ns = duration_ns(run_started.saturating_duration_since(job.enqueued));
                // Count the run before replying, so a client that asks for
                // `Stats` right after its reply always sees it.
                shared.metrics.record_served(queue_ns, queue_ns + run_ns);
                shared.completed.fetch_add(1, Ordering::Relaxed);
                job.reply.send(Response {
                    id: job.id,
                    body: ResponseBody::Done(RunReport {
                        digest: writer.finish().to_string(),
                        rounds: summary.rounds as u64,
                        messages: summary.total_messages,
                        bits: summary.total_bits,
                        queue_ns,
                        run_ns,
                        lanes: u32::try_from(width).unwrap_or(u32::MAX),
                    }),
                });
            }
        }
        Ok(Err(error)) => {
            let code = match &error {
                WorkloadError::Prepare(_) => code::PREPARE,
                WorkloadError::Invalid(_) => code::INVALID,
                WorkloadError::Run(_) => code::INVALID,
            };
            for job in &live {
                fail_job(shared, job, code, &error.to_string());
            }
        }
        Err(panic) => {
            let message = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("run panicked");
            for job in &live {
                fail_job(shared, job, code::PANIC, message);
            }
        }
    }
}

fn fail_job(shared: &Shared, job: &Job, code: u8, message: &str) {
    shared.metrics.record_failed();
    shared.completed.fetch_add(1, Ordering::Relaxed);
    job.reply.send(Response {
        id: job.id,
        body: ResponseBody::Failed(ErrorReport {
            code,
            message: message.to_string(),
        }),
    });
}

fn elapsed_ns(since: Instant) -> u64 {
    duration_ns(since.elapsed())
}

fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

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
//!    group as **one** `run_fold_prepared` call whose digest and summary
//!    answer every live member — W queued requests for the same identity
//!    cost one run.  The identity (workload, topology, seed and every run
//!    knob) proves the members equivalent: a digest depends only on
//!    (workload, family, n, seed), which `SCENARIOS.lock` pins across every
//!    engine and backing.  A one-group window runs inline on the
//!    dispatcher.  A wider window's groups run on the executor pool: the
//!    dispatcher plus [`ServerConfig::workers`]` − 1` long-lived helpers,
//!    each claiming the next unclaimed group and keeping its thread-local
//!    plane pool warm across windows.  The dispatcher takes the next
//!    window only once every group of this one has answered.
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
use lma_bench::WorkloadCatalog;
use lma_graph::generators::Family;
use lma_sim::{Backing, Sim, WorkloadError};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
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
    /// Threads that execute a dispatch window's groups, the dispatcher
    /// included: `1` runs every group inline on the dispatcher, `w ≥ 2`
    /// adds `w − 1` long-lived helpers, spawned on the first window with
    /// two or more groups and joined when the server drains.  Defaults to
    /// the host's available parallelism (1 when unknown).
    pub workers: usize,
    /// Answer queued same-identity requests from one run.  Off, every
    /// request runs on its own — the uncoalesced baseline of the
    /// `BENCH_serve.json` trajectory.
    pub coalesce: bool,
    /// How long the dispatcher holds the door open for a still-arriving
    /// burst before executing a partial group (only with `coalesce`).
    pub coalesce_window: Duration,
    /// Admission-queue capacity; a full queue answers `OVERLOADED`.
    pub max_queue: usize,
    /// Most requests one coalesced group may answer from its single run.
    pub max_batch: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            // lint: allow(ambient-input) — sizes the executor pool only; a digest depends on (workload, family, n, seed) alone
            workers: std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
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
    deadline: Option<Instant>,
    enqueued: Instant,
    reply: Sender<Response>,
}

impl Job {
    /// The coalescing identity: jobs with equal keys fold byte-identical
    /// digests and run under identical knobs, so one run answers them all.
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

/// Sends one response.  Delivery is best-effort: the peer may have hung up.
fn reply(tx: &Sender<Response>, id: u64, body: ResponseBody) {
    let sent = tx.send(Response { id, body });
    drop(sent);
}

/// Queue state guarded by the admission mutex.
#[derive(Default)]
struct QueueState {
    queue: VecDeque<Job>,
    draining: bool,
    /// `Shutdown` requesters awaiting their `Bye`.
    byes: Vec<(u64, Sender<Response>)>,
}

/// The executor pool's hand-off: a dispatch window's groups that no
/// executor has claimed yet, and how many claimed ones are still running.
#[derive(Default)]
struct Board {
    unclaimed: VecDeque<Vec<Job>>,
    running: usize,
    /// Set when the server drains: idle helpers exit.
    closed: bool,
}

/// What the dispatcher shares with its helpers (see [`run_window`]).
#[derive(Default)]
struct Pool {
    board: Mutex<Board>,
    /// Helpers wait here for a window's groups, or for the close.
    work: Condvar,
    /// The dispatcher waits here for a window's last running group.
    idle: Condvar,
}

impl Pool {
    fn lock(&self) -> MutexGuard<'_, Board> {
        self.board.lock().expect("executor board poisoned")
    }
}

/// Everything shared between connections, the dispatcher and its helpers.
struct Shared {
    config: ServerConfig,
    catalog: WorkloadCatalog,
    cache: HotCache,
    metrics: Metrics,
    state: Mutex<QueueState>,
    wakeup: Condvar,
    pool: Pool,
    /// Run requests answered (Done or Failed) over the server's lifetime;
    /// reported in `Bye`.
    completed: AtomicU64,
}

impl Shared {
    /// Executing threads in the pool, the dispatcher included.
    fn executors(&self) -> usize {
        self.config.workers.max(1)
    }

    fn stats(&self) -> StatsReport {
        let queue_depth = self
            .state
            .lock()
            .expect("server state poisoned")
            .queue
            .len();
        self.metrics
            .snapshot(&self.cache, self.executors(), queue_depth)
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
            pool: Pool::default(),
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
        RequestBody::Ping => reply(tx, id, ResponseBody::Pong),
        RequestBody::Stats => reply(tx, id, ResponseBody::Stats(shared.stats())),
        RequestBody::Shutdown => {
            let mut state = shared.state.lock().expect("server state poisoned");
            state.draining = true;
            state.byes.push((id, tx.clone()));
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
        deadline: spec.deadline_ms.map(|ms| now + Duration::from_millis(ms)),
        enqueued: now,
        reply: tx.clone(),
    })
}

/// Answers a typed admission failure and counts it.
fn refuse(shared: &Shared, id: u64, tx: &Sender<Response>, code: u8, message: &str) {
    shared.metrics.record_failed();
    shared.completed.fetch_add(1, Ordering::Relaxed);
    reply(tx, id, ResponseBody::Failed(error(code, message)));
}

fn error(code: u8, message: &str) -> ErrorReport {
    ErrorReport {
        code,
        message: message.to_string(),
    }
}

// ---------------------------------------------------------------------------
// The dispatcher
// ---------------------------------------------------------------------------

fn dispatch_loop(shared: &Arc<Shared>) {
    let mut helpers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let jobs = {
            let mut state = shared.state.lock().expect("server state poisoned");
            while state.queue.is_empty() && !state.draining {
                state = shared.wakeup.wait(state).expect("server state poisoned");
            }
            if state.queue.is_empty() {
                // Draining and nothing left: retire the helpers, answer the
                // shutdown requesters and stop.
                close_pool(shared, std::mem::take(&mut helpers));
                let completed = shared.completed.load(Ordering::Relaxed);
                for (id, tx) in state.byes.drain(..) {
                    reply(&tx, id, ResponseBody::Bye(completed));
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
        let mut groups = group(shared, jobs);
        if groups.len() == 1 {
            execute_group(shared, groups.pop().expect("one group"));
        } else {
            spawn_helpers(shared, &mut helpers);
            run_window(shared, groups);
        }
    }
}

/// Tops the pool up to `workers − 1` helpers.  A failed spawn (out of
/// threads or memory) leaves the pool short: the executors already running
/// still answer every group, and the next wide window tries again.
fn spawn_helpers(shared: &Arc<Shared>, helpers: &mut Vec<JoinHandle<()>>) {
    while helpers.len() + 1 < shared.executors() {
        let shared = Arc::clone(shared);
        match std::thread::Builder::new()
            .name("lma-serve-exec".to_string())
            .spawn(move || helper_loop(&shared))
        {
            Ok(handle) => helpers.push(handle),
            Err(_) => break,
        }
    }
}

/// Runs a window's groups on the dispatcher and every helper, and returns
/// once each group has answered.
fn run_window(shared: &Shared, groups: Vec<Vec<Job>>) {
    let width = groups.len();
    let mut board = shared.pool.lock();
    board.unclaimed.extend(groups);
    // The dispatcher claims a group itself; wake a helper for each other.
    for _ in 1..width.min(shared.executors()) {
        shared.pool.work.notify_one();
    }
    board = execute_unclaimed(shared, board);
    while board.running > 0 {
        board = shared
            .pool
            .idle
            .wait(board)
            .expect("executor board poisoned");
    }
}

/// A helper's life: execute whatever the board holds, sleep until the next
/// wide window, exit once the pool is closed.
fn helper_loop(shared: &Shared) {
    let mut board = shared.pool.lock();
    loop {
        board = execute_unclaimed(shared, board);
        if board.running == 0 {
            // The window is answered: wake the dispatcher if it waits.
            shared.pool.idle.notify_one();
        }
        if board.closed {
            return;
        }
        board = shared
            .pool
            .work
            .wait(board)
            .expect("executor board poisoned");
    }
}

/// Claims and executes the window's unclaimed groups one at a time until
/// none is left, and returns with the board locked again.
fn execute_unclaimed<'a>(
    shared: &'a Shared,
    mut board: MutexGuard<'a, Board>,
) -> MutexGuard<'a, Board> {
    while let Some(jobs) = board.unclaimed.pop_front() {
        board.running += 1;
        drop(board);
        execute_group(shared, jobs);
        board = shared.pool.lock();
        board.running -= 1;
    }
    board
}

/// Wakes every idle helper to exit, and joins them.
fn close_pool(shared: &Shared, helpers: Vec<JoinHandle<()>>) {
    shared.pool.lock().closed = true;
    shared.pool.work.notify_all();
    for helper in helpers {
        helper.join().expect("executor panicked");
    }
}

/// Partitions a dispatch window into coalescible groups, preserving FIFO
/// order of first arrival.  Groups are capped at `max_batch`;
/// `coalesce: false` degenerates to width-1 groups.
fn group(shared: &Shared, jobs: VecDeque<Job>) -> Vec<Vec<Job>> {
    let mut groups: Vec<Vec<Job>> = Vec::new();
    let mut open: HashMap<GroupKey, usize> = HashMap::new();
    for job in jobs {
        if !shared.config.coalesce {
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

/// Runs one coalesced group end to end — one run for the whole group — and
/// answers every member.  Every answer is counted, and the group leaves the
/// `in_flight_groups` gauge, before the first reply goes out, so a client
/// that asks for `Stats` right after its reply always sees its run.
fn execute_group(shared: &Shared, jobs: Vec<Job>) {
    shared.metrics.group_started();
    let now = Instant::now();
    // Deadline is a queue-wait budget: a request whose deadline passed
    // while it sat in the queue fails instead of running.
    let (expired, live): (Vec<&Job>, Vec<&Job>) = jobs
        .iter()
        .partition(|job| job.deadline.is_some_and(|deadline| deadline < now));
    let mut answers: Vec<(&Job, ResponseBody)> = expired
        .into_iter()
        .map(|job| {
            let failed = error(code::DEADLINE, "deadline expired in queue");
            (job, ResponseBody::Failed(failed))
        })
        .collect();
    if !live.is_empty() {
        // A panic anywhere in the group — graph build, prepare or the run —
        // is isolated here: its members answer `PANIC` and the executor
        // lives on.
        let ran =
            catch_unwind(AssertUnwindSafe(|| run_group(shared, &live))).unwrap_or_else(|panic| {
                let message = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("run panicked");
                Err(error(code::PANIC, message))
            });
        answers.extend(live.into_iter().map(|job| {
            let body = match &ran {
                Ok((report, run_started)) => ResponseBody::Done(RunReport {
                    queue_ns: duration_ns(run_started.saturating_duration_since(job.enqueued)),
                    ..report.clone()
                }),
                Err(failed) => ResponseBody::Failed(failed.clone()),
            };
            (job, body)
        }));
    }
    for (_, body) in &answers {
        match body {
            ResponseBody::Done(report) => shared
                .metrics
                .record_served(report.queue_ns, report.queue_ns + report.run_ns),
            _ => shared.metrics.record_failed(),
        }
    }
    shared
        .completed
        .fetch_add(answers.len() as u64, Ordering::Relaxed);
    shared.metrics.group_finished();
    for (job, body) in answers {
        reply(&job.reply, job.id, body);
    }
}

/// Runs a group's live members as one run on the lead's cached graph,
/// oracle and partition.  Returns the members' shared report — its
/// `queue_ns` is each member's own, measured up to the returned run start —
/// or the typed failure they all share.
fn run_group(shared: &Shared, live: &[&Job]) -> Result<(RunReport, Instant), ErrorReport> {
    let lead = live[0];
    let topology = lead.topology_key();
    let graph = shared.cache.graph(lead.family, lead.n, lead.seed);
    let workload = lead.kind.workload();
    let oracle = shared
        .cache
        .oracle(workload.as_ref(), topology, &graph)
        .map_err(|e| error(code::PREPARE, &e.to_string()))?;
    let partition =
        (lead.threads >= 2).then(|| shared.cache.partition(topology, &graph, lead.threads));
    let mut sim = workload.tune(Sim::on(&graph)).backing(lead.backing);
    if let Some(partition) = partition.as_deref() {
        sim = sim.threads(lead.threads).with_partition(partition);
    }
    if let Some(limit) = lead.round_limit {
        sim = sim.round_limit(usize::try_from(limit).unwrap_or(usize::MAX));
    }
    let width = u32::try_from(live.len()).unwrap_or(u32::MAX);
    let mut writer =
        shared
            .catalog
            .fold_header(lead.kind.name(), lead.family.name(), lead.n, lead.seed);
    shared.metrics.record_batch(width);
    let run_started = Instant::now();
    let summary = workload
        .run_fold_prepared(&sim, &oracle, &mut writer)
        .map_err(|e| {
            let code = match &e {
                WorkloadError::Prepare(_) => code::PREPARE,
                WorkloadError::Invalid(_) => code::INVALID,
                WorkloadError::Run(_) => code::INVALID,
            };
            error(code, &e.to_string())
        })?;
    let run_ns = elapsed_ns(run_started);
    let report = RunReport {
        digest: writer.finish().to_string(),
        rounds: summary.rounds as u64,
        messages: summary.total_messages,
        bits: summary.total_bits,
        queue_ns: 0,
        run_ns,
        lanes: width,
    };
    Ok((report, run_started))
}

fn elapsed_ns(since: Instant) -> u64 {
    duration_ns(since.elapsed())
}

fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

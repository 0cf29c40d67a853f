//! The deterministic sharded executor: shard-parallel rounds over the
//! message plane.
//!
//! The graph's nodes are split into contiguous, slot-balanced shards by
//! [`lma_graph::Partition`].  Each shard is driven by one worker thread that
//! owns the shard's programs and a **private** pair of double-buffered
//! message planes covering only the shard's contiguous slot range, so the
//! scatter and gather of different shards touch disjoint memory by
//! construction — there is no shared mutable plane and no unsafe code.  The
//! planes are generic over the slot backend ([`crate::plane::PlaneStore`]):
//! inline `Option<M>` slots or per-shard byte arenas, selected by
//! [`RunConfig::backing`].
//!
//! Cross-shard traffic travels through dense, preallocated **exchange
//! buffers**: one buffer per ordered shard pair `(s, t)` and round parity,
//! sized by the partition's boundary-slot list.  The buffer type comes from
//! the backend ([`PlaneStore::Boundary`]): owned `Option<M>` values for the
//! inline backing, *copied encoded byte spans* for the arena backing (the
//! consumer decodes them into its own recycled messages, so no shard ever
//! reads another shard's arena).  At the end of its round, a worker drains
//! the boundary slots of its freshly scattered plane into its outgoing
//! buffers; at the start of the next round the receiving worker takes the
//! buffers whole and gathers from them by the partition's precomputed
//! cross-reference positions.  Parity alternation makes the buffer a
//! single-producer/single-consumer hand-off separated by a barrier, so the
//! per-buffer `Mutex` is never contended.
//!
//! **Cache hygiene.**  Exchange buffers and per-shard report slots are
//! wrapped in `CachePadded` (64-byte aligned) so that adjacent shards'
//! hot `Mutex` words never share a cache line — uncontended locks stay
//! uncontended at the coherence level too.  The buffers are created
//! *empty* on the caller thread; each worker allocates and first-touches
//! its own outgoing buffers (both parities) before its first publish, so
//! a buffer's backing pages are faulted in by the thread that writes it
//! every round (first-touch NUMA placement).  This is race-free: a
//! producer only writes its own `(s, t)` buffers and every consumer first
//! reads after the first barrier, which orders all first-touches before
//! all reads.  Workers already build their private plane pairs inside
//! their own threads for the same reason.
//!
//! Each round costs exactly one arrival at the crate's `RoundBarrier`:
//! every worker publishes its per-shard report and arrives, and the
//! **last** to arrive runs the leader's merge before it releases the
//! others.  The merge folds the reports **in shard order** — sums and
//! maxima for [`RunStats`], the first pending error in node order, trace
//! events in shard order — and decides whether to continue, so outputs,
//! stats, traces and error cases are bit-identical to the sequential
//! executor.  The `runtime_equivalence` integration suite pins this.  An
//! early arriver spins on the barrier's generation word for a fixed number
//! of iterations and then parks on a condvar, so a quiet round pays one
//! atomic arrival instead of two futex round-trips through the standard
//! library's barrier.
//!
//! **Frontier hand-off** (programs that opt into
//! [`NodeAlgorithm::MESSAGE_DRIVEN`]).  A worker's scatters mark
//! destination nodes — remote ones too — in a full-`n` bitset that starts
//! each round as the shard's eager nodes.  The worker publishes only its
//! non-zero words as `(word index, word)` pairs and resets just those
//! words; the leader clears the words it set last round, ORs the pairs in
//! and counts active nodes from them; on a sparse round each worker copies
//! back only the merged words over its own node range and gathers their set
//! bits.  Apart from one local scan of the worker's own bitset, the
//! hand-off grows with the number of marked words, not with `n / 64`.
//!
//! Measured on a 2-core host (`sim-sparse` benchmark, wave on ring/16384,
//! 8192 rounds of a 2–4-node frontier, two traced runs per side): 14.6–17.8
//! µs per round with two waits at the standard barrier and full-`n`
//! frontier words, 3.4–3.9 µs with both changes; the sequential executor
//! takes about 1 µs per round on the same run.
//!
//! A panic inside a node program is caught by the owning worker, reported
//! through the same channel, and re-raised on the calling thread with the
//! original payload — exactly the observable behavior of the sequential
//! executor, and the other workers shut down cleanly instead of deadlocking
//! at the barrier.

use crate::algorithm::{LocalView, MsgSink, NodeAlgorithm};
use crate::barrier::RoundBarrier;
use crate::frontier::{pair_ones, NodeSet, WordMerge, WordPair};
use crate::plane::{ArenaPlane, Backing, HybridPlane, MessagePlane, PlaneStore};
use crate::runtime::{PendingError, PendingRound, RunConfig, RunError, RunResult, Scatter};
use crate::stats::RunStats;
use crate::trace::TraceEvent;
use lma_graph::{Partition, Port, WeightedGraph};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Pads (and aligns) `T` to a 64-byte cache line so adjacent entries of a
/// `Vec<CachePadded<T>>` never false-share: each shard's exchange-buffer
/// mutexes and report slot live on their own lines.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct CachePadded<T>(pub(crate) T);

/// What the leader's merge tells every worker to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    /// Execute communication round `round` (gather, step, scatter, drain).
    Work { round: usize },
    /// The run is over (success, failure or panic); exit the worker loop.
    Stop,
}

/// One shard's contribution to the round about to be committed.
#[derive(Default)]
struct ShardReport {
    messages: u64,
    bits: u64,
    max_bits: usize,
    violations: u64,
    error: Option<PendingError>,
    events: Vec<TraceEvent>,
    done_delta: usize,
    panic: Option<Box<dyn Any + Send>>,
    /// The non-zero frontier words this shard marked for the upcoming round
    /// (cross-shard `put`s mark remote nodes too), with the shard's own
    /// eager nodes pre-ORed in.  Empty unless the program opted into
    /// frontier execution.
    frontier: Vec<WordPair>,
}

/// Leader-owned global state, read by the caller after the scope joins.
struct Control {
    /// Committed rounds so far.
    round: usize,
    done_count: usize,
    stats: RunStats,
    events: Vec<TraceEvent>,
    command: Command,
    failure: Option<RunError>,
    panic: Option<Box<dyn Any + Send>>,
    /// Whether the program opted into frontier execution
    /// (`A::MESSAGE_DRIVEN`) — set once at startup, drives the leader's
    /// merge and the fields below.
    track_frontier: bool,
    /// The merged global frontier for the round just commanded (the leader
    /// writes it in `coordinate`; on a sparse round each worker copies the
    /// words over its node range).
    frontier: WordMerge,
    /// The leader's dense-vs-sparse decision for that round.
    sparse: bool,
}

struct Shared<M, S: PlaneStore<M>> {
    barrier: RoundBarrier,
    /// `pair_bufs[parity][s * k + t]`: the exchange buffer carrying shard
    /// `s`'s boundary traffic to shard `t` for rounds of that parity, dense
    /// over `partition.boundary(s, t)` positions.  Created empty; worker
    /// `s` sizes and first-touches its own `(s, *)` buffers before its
    /// first publish (see the module docs).
    pair_bufs: [Vec<CachePadded<Mutex<S::Boundary>>>; 2],
    reports: Vec<CachePadded<Mutex<ShardReport>>>,
    control: Mutex<Control>,
}

/// Runs `programs` with one worker thread per shard of `partition`,
/// dispatching the plane backend on [`RunConfig::backing`].
///
/// Semantics match [`crate::Runtime::run`] exactly; only the schedule (and
/// the wall-clock) differ.  The caller provides the per-node `views` so a
/// harness can reuse them across runs.
pub(crate) fn run_sharded<A: NodeAlgorithm>(
    graph: &WeightedGraph,
    config: RunConfig,
    partition: &Partition,
    views: &[LocalView],
    programs: Vec<A>,
) -> Result<RunResult<A::Output>, RunError> {
    match config.backing {
        Backing::Inline => {
            run_sharded_on::<MessagePlane<A::Msg>, A>(graph, config, partition, views, programs)
        }
        Backing::Arena => {
            run_sharded_on::<ArenaPlane<A::Msg>, A>(graph, config, partition, views, programs)
        }
        Backing::Hybrid => {
            run_sharded_on::<HybridPlane<A::Msg>, A>(graph, config, partition, views, programs)
        }
    }
}

fn run_sharded_on<S: PlaneStore<A::Msg>, A: NodeAlgorithm>(
    graph: &WeightedGraph,
    config: RunConfig,
    partition: &Partition,
    views: &[LocalView],
    mut programs: Vec<A>,
) -> Result<RunResult<A::Output>, RunError> {
    let n = graph.node_count();
    assert_eq!(programs.len(), n, "one program per node is required");
    assert_eq!(
        partition.node_count(),
        n,
        "partition covers a different graph"
    );
    assert_eq!(
        partition.slot_count(),
        graph.csr().slot_count(),
        "partition covers a different slot space"
    );
    let k = partition.shard_count();
    if k <= 1 {
        return crate::Runtime::with_config(graph, config).run_sequential(programs);
    }
    let budget = config.model.budget();

    // Split the programs into per-shard chunks (node order is preserved:
    // shard s owns the contiguous node range partition.node_range(s)).
    let mut per_shard: Vec<Vec<A>> = Vec::with_capacity(k);
    {
        let mut drain = programs.drain(..);
        for s in 0..k {
            per_shard.push(drain.by_ref().take(partition.node_range(s).len()).collect());
        }
    }

    // Buffers start empty on the caller thread; each worker sizes and
    // first-touches its own outgoing buffers (see the module docs).
    let make_bufs = || {
        (0..k * k)
            .map(|_| CachePadded(Mutex::new(S::Boundary::default())))
            .collect()
    };
    let shared: Shared<A::Msg, S> = Shared {
        barrier: RoundBarrier::new(k),
        pair_bufs: [make_bufs(), make_bufs()],
        reports: (0..k)
            .map(|_| CachePadded(Mutex::new(ShardReport::default())))
            .collect(),
        control: Mutex::new(Control {
            round: 0,
            done_count: 0,
            stats: RunStats::default(),
            events: Vec::new(),
            command: Command::Stop,
            failure: None,
            panic: None,
            track_frontier: A::MESSAGE_DRIVEN,
            frontier: if A::MESSAGE_DRIVEN {
                WordMerge::for_nodes(n)
            } else {
                WordMerge::default()
            },
            sparse: false,
        }),
    };

    let mut shard_programs: Vec<Vec<A>> = Vec::with_capacity(k);
    std::thread::scope(|scope| {
        let handles: Vec<_> = per_shard
            .into_iter()
            .enumerate()
            .map(|(s, progs)| {
                let shared = &shared;
                scope.spawn(move || {
                    worker(s, progs, graph, config, partition, views, shared, budget)
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(progs) => shard_programs.push(progs),
                // A panic that escaped the worker's own catch (an executor
                // bug, not a program bug): re-raise it here.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });

    let control = shared.control.into_inner().unwrap();
    if let Some(payload) = control.panic {
        std::panic::resume_unwind(payload);
    }
    if let Some(err) = control.failure {
        return Err(err);
    }
    let outputs = shard_programs
        .iter()
        .flat_map(|progs| progs.iter().map(NodeAlgorithm::output))
        .collect();
    let mut events = control.events;
    Ok(RunResult {
        outputs,
        stats: control.stats,
        trace: config.trace.then(|| {
            events.sort_by_key(|e| (e.round, e.from, e.to));
            events
        }),
    })
}

/// The per-shard worker: init, then one barrier arrival per round until the
/// leader commands a stop.  Returns the shard's programs so the caller can
/// collate outputs.
#[allow(clippy::too_many_arguments)]
fn worker<S: PlaneStore<A::Msg>, A: NodeAlgorithm>(
    s: usize,
    mut programs: Vec<A>,
    graph: &WeightedGraph,
    config: RunConfig,
    partition: &Partition,
    views: &[LocalView],
    shared: &Shared<A::Msg, S>,
    budget: Option<usize>,
) -> Vec<A> {
    let k = partition.shard_count();
    let csr = graph.csr();
    let offsets = csr.offsets();
    let mirror = csr.mirror_table();
    let incident = csr.incident_flat();
    let nodes = partition.node_range(s);
    let slots = partition.slot_range(s);
    let slot_base = slots.start;

    let mut cur: S = S::with_len(slots.len());
    let mut next: S = S::with_len(slots.len());
    let mut inbox: Vec<(Port, A::Msg)> = Vec::new();
    let mut spare: Vec<A::Msg> = Vec::new();
    let mut pending = PendingRound::default();
    let mut incoming: Vec<S::Boundary> = (0..k).map(|_| S::Boundary::default()).collect();

    // Frontier state (opted-in programs only; empty and compiled out
    // otherwise).  Both sets are full-`n` bitsets: a shard's scatter can
    // mark *remote* destination nodes, and the leader merges every shard's
    // words into one global frontier.  `eager_front` carries only this
    // shard's own non-message-driven nodes; `local_front` starts every
    // round as a copy of it, so the leader's union is complete without
    // knowing the programs.  `outgoing` holds the words this shard
    // publishes and `gather` the merged words over its node range.
    let n = partition.node_count();
    let mut local_front = NodeSet::default();
    let mut eager_front = NodeSet::default();
    let mut outgoing: Vec<WordPair> = Vec::new();
    let mut gather: Vec<WordPair> = Vec::new();
    let mut use_sparse = false;
    if A::MESSAGE_DRIVEN {
        eager_front = NodeSet::new(n);
        for (i, u) in nodes.clone().enumerate() {
            if !programs[i].message_driven() {
                eager_front.insert(u);
            }
        }
        local_front = eager_front.clone();
    }

    // First-touch: allocate this shard's outgoing exchange buffers (both
    // parities) on this thread, before the first publish.  Consumers only
    // read them after the first barrier, so this is race-free.
    for parity in 0..2 {
        for t in 0..k {
            let boundary = partition.boundary(s, t);
            if boundary.is_empty() {
                continue;
            }
            *shared.pair_bufs[parity][s * k + t].0.lock().unwrap() =
                S::new_boundary(boundary.len());
        }
    }

    // Initialization: round-0 local computation producing round-1 traffic,
    // scattered into `cur` and drained into the parity-1 exchange buffers.
    let caught = catch_unwind(AssertUnwindSafe(|| {
        let mut done_delta = 0usize;
        for (i, u) in nodes.clone().enumerate() {
            let mut scatter = Scatter {
                node: u,
                base: offsets[u],
                degree: offsets[u + 1] - offsets[u],
                delivery_round: 1,
                plane: &mut cur,
                plane_offset: slot_base,
                spare: &mut spare,
                pending: &mut pending,
                incident,
                budget,
                enforce_congest: config.enforce_congest,
                trace: config.trace,
                frontier: A::MESSAGE_DRIVEN.then_some(&mut local_front),
            };
            programs[i].init_into(&views[u], &mut MsgSink::new(&mut scatter));
            if programs[i].is_done() {
                done_delta += 1;
            }
        }
        done_delta
    }));
    if A::MESSAGE_DRIVEN {
        local_front.drain_pairs(&eager_front, &mut outgoing);
    }
    publish(
        s,
        shared,
        partition,
        &mut cur,
        slot_base,
        1,
        &mut pending,
        caught,
        A::MESSAGE_DRIVEN.then_some(&mut outgoing),
    );

    loop {
        shared
            .barrier
            .wait(|| coordinate(shared, &config, n, budget));
        let round = {
            let ctl = shared.control.lock().unwrap();
            let round = match ctl.command {
                Command::Stop => break,
                Command::Work { round } => round,
            };
            if A::MESSAGE_DRIVEN {
                use_sparse = ctl.sparse;
                if use_sparse {
                    gather.clear();
                    gather.extend(ctl.frontier.pairs_over(nodes.start, nodes.end));
                }
            }
            round
        };
        let read_parity = round & 1;

        // Take this round's incoming exchange buffers whole; they are put
        // back (fully drained) after the gather pass.
        for (src, buf) in incoming.iter_mut().enumerate() {
            if src != s && !partition.boundary(src, s).is_empty() {
                *buf = std::mem::take(
                    &mut *shared.pair_bufs[read_parity][src * k + s].0.lock().unwrap(),
                );
            }
        }

        let caught = catch_unwind(AssertUnwindSafe(|| {
            let mut done_delta = 0usize;
            // One shard-local gather → step body, shared by the dense scan
            // and the sparse frontier iteration (in sparse mode nobody
            // stored into a skipped node's slots or buffer positions, so
            // the drain invariant holds shard-locally too).
            macro_rules! gather_step {
                ($i:expr, $v:expr) => {{
                    let (i, v): (usize, usize) = ($i, $v);
                    if S::RECYCLES {
                        spare.extend(inbox.drain(..).map(|(_, m)| m));
                    } else {
                        inbox.clear();
                    }
                    let base = offsets[v];
                    // Gather in port order: intra-shard mirrors from the private
                    // plane, cross-shard mirrors from the exchange buffers.
                    // Unconditional (done nodes too), so every slot and buffer
                    // position is drained each round.
                    for (p, &sender_slot) in mirror[base..offsets[v + 1]].iter().enumerate() {
                        let msg = if slots.contains(&sender_slot) {
                            cur.fetch(sender_slot - slot_base, &mut spare)
                        } else {
                            let (src, pos) = partition
                                .cross_ref(sender_slot)
                                .expect("out-of-shard mirror slot must be a boundary slot");
                            S::fetch_boundary(&mut incoming[src], pos, &mut spare)
                        };
                        if let Some(msg) = msg {
                            inbox.push((p, msg));
                        }
                    }
                    if !programs[i].is_done() {
                        let mut scatter = Scatter {
                            node: v,
                            base,
                            degree: offsets[v + 1] - base,
                            delivery_round: round + 1,
                            plane: &mut next,
                            plane_offset: slot_base,
                            spare: &mut spare,
                            pending: &mut pending,
                            incident,
                            budget,
                            enforce_congest: config.enforce_congest,
                            trace: config.trace,
                            frontier: A::MESSAGE_DRIVEN.then_some(&mut local_front),
                        };
                        programs[i].round_into(
                            &views[v],
                            round,
                            &inbox,
                            &mut MsgSink::new(&mut scatter),
                        );
                        if programs[i].is_done() {
                            done_delta += 1;
                        }
                    }
                }};
            }
            if use_sparse {
                for v in pair_ones(&gather, nodes.start, nodes.end) {
                    gather_step!(v - nodes.start, v);
                }
            } else {
                for (i, v) in nodes.clone().enumerate() {
                    gather_step!(i, v);
                }
            }
            done_delta
        }));

        // Return the (drained) incoming buffers for their producers to
        // refill two phases from now.
        for (src, buf) in incoming.iter_mut().enumerate() {
            if src != s && !partition.boundary(src, s).is_empty() {
                *shared.pair_bufs[read_parity][src * k + s].0.lock().unwrap() = std::mem::take(buf);
            }
        }

        // The private plane pair swaps exactly like the sequential
        // executor's; the freshly scattered plane then has its boundary
        // slots drained into the next parity's exchange buffers.
        std::mem::swap(&mut cur, &mut next);
        next.reset_round();
        if A::MESSAGE_DRIVEN {
            local_front.drain_pairs(&eager_front, &mut outgoing);
        }
        publish(
            s,
            shared,
            partition,
            &mut cur,
            slot_base,
            (round + 1) & 1,
            &mut pending,
            caught,
            A::MESSAGE_DRIVEN.then_some(&mut outgoing),
        );
    }
    programs
}

/// Drains the boundary slots of `plane` into this shard's outgoing exchange
/// buffers for `parity`, then publishes the shard's report for the round
/// (including, for opted-in programs, the shard's frontier pairs: swapped
/// in, so `frontier` comes back as the emptied vector of the last report).
#[allow(clippy::too_many_arguments)]
fn publish<M, S: PlaneStore<M>>(
    s: usize,
    shared: &Shared<M, S>,
    partition: &Partition,
    plane: &mut S,
    slot_base: usize,
    parity: usize,
    pending: &mut PendingRound,
    caught: Result<usize, Box<dyn Any + Send>>,
    frontier: Option<&mut Vec<WordPair>>,
) {
    let k = partition.shard_count();
    if caught.is_ok() {
        for t in 0..k {
            let boundary = partition.boundary(s, t);
            if boundary.is_empty() {
                continue;
            }
            let mut buf = shared.pair_bufs[parity][s * k + t].0.lock().unwrap();
            plane.export_boundary(boundary, slot_base, &mut buf);
            drop(buf);
        }
    }
    let mut report = shared.reports[s].0.lock().unwrap();
    report.messages = pending.messages;
    report.bits = pending.bits;
    report.max_bits = pending.max_bits;
    report.violations = pending.violations;
    report.error = pending.error.take();
    report.events = std::mem::take(&mut pending.events);
    if let Some(front) = frontier {
        std::mem::swap(&mut report.frontier, front);
        front.clear();
    }
    match caught {
        Ok(done_delta) => report.done_delta = done_delta,
        Err(payload) => report.panic = Some(payload),
    }
    pending.reset();
}

/// The leader's merge step, run by the last worker to arrive at the barrier
/// while the others wait: fold the per-shard reports **in shard order**
/// into the global state and decide the next command.  The ordering
/// reproduces the sequential executor exactly: done-check, round-limit
/// check, then the round commit (first pending error in node order wins;
/// stats and trace only on a clean commit).
fn coordinate<M, S: PlaneStore<M>>(
    shared: &Shared<M, S>,
    config: &RunConfig,
    n: usize,
    budget: Option<usize>,
) {
    let mut ctl = shared.control.lock().unwrap();
    let mut messages = 0u64;
    let mut bits = 0u64;
    let mut max_bits = 0usize;
    let mut violations = 0u64;
    let mut error: Option<PendingError> = None;
    let mut panic: Option<Box<dyn Any + Send>> = None;
    let mut round_events: Vec<TraceEvent> = Vec::new();
    if ctl.track_frontier {
        ctl.frontier.clear();
    }
    for slot in shared.reports.iter() {
        let mut report = slot.0.lock().unwrap();
        if ctl.track_frontier {
            ctl.frontier.or_pairs(&report.frontier);
        }
        ctl.done_count += report.done_delta;
        report.done_delta = 0;
        messages += report.messages;
        bits += report.bits;
        max_bits = max_bits.max(report.max_bits);
        violations += report.violations;
        report.messages = 0;
        report.bits = 0;
        report.max_bits = 0;
        report.violations = 0;
        if error.is_none() {
            error = report.error.take();
        } else {
            report.error = None;
        }
        if panic.is_none() {
            panic = report.panic.take();
        } else {
            report.panic = None;
        }
        if config.trace {
            round_events.append(&mut report.events);
        } else {
            report.events.clear();
        }
    }

    // A program panic preempts everything, exactly as it would have unwound
    // out of the sequential round loop.
    if let Some(payload) = panic {
        ctl.panic = Some(payload);
        ctl.command = Command::Stop;
        return;
    }
    if ctl.done_count >= n {
        ctl.command = Command::Stop;
        return;
    }
    if ctl.round >= config.max_rounds {
        ctl.failure = Some(RunError::RoundLimitExceeded {
            limit: config.max_rounds,
        });
        ctl.command = Command::Stop;
        return;
    }
    ctl.round += 1;
    match error {
        Some(PendingError::Malformed { node, port }) => {
            ctl.failure = Some(RunError::MalformedOutbox { node, port });
            ctl.command = Command::Stop;
        }
        Some(PendingError::Congest { bits }) => {
            ctl.failure = Some(RunError::CongestViolation {
                round: ctl.round,
                bits,
                budget: budget.expect("congest error implies a budget"),
            });
            ctl.command = Command::Stop;
        }
        None => {
            ctl.stats.record_round(messages, bits, max_bits, violations);
            if ctl.track_frontier {
                let active = ctl.frontier.count();
                let sparse = config.frontier.use_sparse(active, n);
                ctl.sparse = sparse;
                ctl.stats.record_frontier(active as u64, sparse);
            }
            if config.trace {
                ctl.events.append(&mut round_events);
            }
            ctl.command = Command::Work { round: ctl.round };
        }
    }
}

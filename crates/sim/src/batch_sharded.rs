//! The shard-parallel plane kernel: every run with two or more threads
//! lands here.
//!
//! **Shards.**  The graph's nodes are split into contiguous, slot-balanced
//! shards by [`lma_graph::Partition`].  Each shard is driven by one scoped
//! worker thread that owns the shard's programs and a **private** pair of
//! double-buffered planes covering only the shard's contiguous slot range,
//! so the scatter and gather of different shards touch disjoint memory by
//! construction — there is no shared mutable plane and no unsafe code.
//!
//! **Boundary exchange.**  Cross-shard traffic travels through dense,
//! preallocated exchange buffers: one per ordered shard pair `(s, t)` and
//! round parity, sized by the partition's boundary-slot list
//! `partition.boundary(s, t)`.  The buffer type comes from the backend
//! ([`PlaneStore::Boundary`]): owned values for the inline backing, copied
//! encoded byte spans for the arena (the consumer decodes them into its own
//! recycled messages, so no shard reads another shard's arena).  One
//! [`export_boundary`](PlaneStore::export_boundary) pass at the end of a
//! worker's round moves its traffic for a shard pair; at the start of the
//! next round the receiving worker takes the buffer whole and gathers from
//! it by the partition's precomputed cross-reference positions.  Parity
//! alternation makes each buffer a single-producer / single-consumer
//! hand-off separated by a barrier, so its `Mutex` is never contended.
//!
//! **Cache hygiene.**  Exchange buffers and per-shard report slots are
//! wrapped in `CachePadded` (64-byte aligned), so adjacent shards' hot
//! `Mutex` words never share a cache line.  The buffers are created
//! *empty* on the caller thread; each worker allocates and first-touches
//! its own outgoing buffers (both parities) before its first publish, so a
//! buffer's pages are faulted in by the thread that writes it every round.
//! This is race-free: a producer only writes its own `(s, t)` buffers and
//! every consumer first reads after the first barrier.  Workers build their
//! private planes inside their own threads for the same reason.
//!
//! **One barrier arrival per round.**  Every worker publishes its report
//! and arrives at the crate's `RoundBarrier`; the **last** to arrive runs
//! the leader's merge (`coordinate`) before it releases the others.  The
//! merge folds the reports **in shard order** — sums and maxima for
//! [`RunStats`], the first pending error in node order, trace events in
//! shard order — and decides the next command in the order the one-thread
//! loop applies its done-check, round-limit check and commit, so outputs,
//! stats, traces and errors are bit-identical to the one-thread engine.  An
//! early arriver spins on the barrier's generation word for a bounded
//! number of iterations and then parks, so a quiet round pays one atomic
//! arrival instead of two futex round-trips.  Steady-state rounds allocate
//! nothing: reports and the leader's merge buffer are reused.
//!
//! **Frontier hand-off** (programs that opt into
//! [`NodeAlgorithm::MESSAGE_DRIVEN`]).  A worker's scatters mark their
//! destinations — remote ones too — in a full-size frontier that starts
//! each round as the shard's eager instances.  The worker publishes only
//! its non-zero mark words as `(word index, word)` pairs and resets just
//! those words; the leader ORs them into one [`WordMerge`], whose count
//! drives the dense↔sparse decision.  On a sparse round each worker copies
//! back only the merged words over its own node range, so the hand-off
//! grows with the number of marked words, not with `n / 64`.
//!
//! Measured on a 2-core host (`sim-sparse` benchmark, wave on ring/16384,
//! 8192 rounds of a 2–4-node frontier, two traced runs per side): 14.6–17.8
//! µs per round with two waits at the standard barrier and full-`n`
//! frontier words, 3.4–3.9 µs with the single arrival and the pair
//! hand-off; one thread takes about 0.4 µs per round on the same run.
//!
//! A panic inside a node program is caught by the owning worker, reported
//! through its report slot, and re-raised on the calling thread with the
//! original payload — exactly the observable behavior of the one-thread
//! engine — and the other workers shut down cleanly instead of deadlocking
//! at the barrier.

use crate::algorithm::{LocalView, MsgSink, NodeAlgorithm};
use crate::barrier::RoundBarrier;
use crate::batch::{commit_error, finish, run_batch_sequential, BatchScatter};
use crate::frontier::{pair_ones, WordMerge, WordPair};
use crate::plane::{ArenaPlane, Backing, MessagePlane, PlaneStore};
use crate::runtime::{PendingRound, RunConfig, RunError, RunResult};
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
struct CachePadded<T>(T);

/// A program panic caught by a worker, carried to the calling thread.
type Panic = Box<dyn Any + Send>;

/// What the leader's merge tells every worker to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    /// Execute communication round `round`.
    Work { round: usize },
    /// The run is over; exit the worker loop.
    Stop,
}

/// One shard's report for the round about to be committed.
#[derive(Default)]
struct ShardReport {
    /// The shard's traffic for the round.
    pending: PendingRound,
    /// Programs of the shard that finished during the last step.
    done_delta: usize,
    /// The shard's non-zero frontier mark words for the next round
    /// (scatters mark remote destinations too), with the shard's own eager
    /// instances pre-ORed.  Empty unless the program opts into
    /// `MESSAGE_DRIVEN`.
    frontier: Vec<WordPair>,
    /// A program panic aborts the whole run, exactly as it would have
    /// unwound out of the one-thread loop.
    panic: Option<Panic>,
}

/// Leader-owned run state, read by the caller after the scope joins.
struct Control {
    /// Committed rounds so far.
    round: usize,
    done_count: usize,
    stats: RunStats,
    events: Vec<TraceEvent>,
    failure: Option<RunError>,
    /// The shard-order merge of the reports (reused every round).
    merged: PendingRound,
    command: Command,
    /// Whether the program opted into sparse frontier execution
    /// (`MESSAGE_DRIVEN`); gates all frontier work below.
    track_frontier: bool,
    /// The merged mark words of the shard reports for the round just
    /// commanded; on a sparse round each worker copies the words over its
    /// node range.
    frontier: WordMerge,
    /// The leader's dense↔sparse decision for the commanded round; workers
    /// read it together with the command.
    sparse: bool,
    panic: Option<Panic>,
}

struct Shared<M, S: PlaneStore<M>> {
    barrier: RoundBarrier,
    /// `pair_bufs[parity][s * k + t]`, dense over
    /// `partition.boundary(s, t).len()` positions.  Created empty; worker
    /// `s` sizes and first-touches its own `(s, *)` buffers before its
    /// first publish.
    pair_bufs: [Vec<CachePadded<Mutex<S::Boundary>>>; 2],
    reports: Vec<CachePadded<Mutex<ShardReport>>>,
    control: Mutex<Control>,
}

/// Runs `programs` with one worker per shard of `partition`, dispatching
/// the plane backend on [`RunConfig::backing`].  Semantics match the
/// one-thread engine exactly.  The caller provides the per-node `views`.
pub(crate) fn run_batch_sharded<A: NodeAlgorithm>(
    graph: &WeightedGraph,
    config: RunConfig,
    partition: &Partition,
    views: &[LocalView],
    programs: Vec<A>,
) -> Result<RunResult<A::Output>, RunError> {
    match config.backing {
        Backing::Inline => run_batch_sharded_on::<MessagePlane<A::Msg>, A>(
            graph, config, partition, views, programs,
        ),
        Backing::Arena => {
            run_batch_sharded_on::<ArenaPlane<A::Msg>, A>(graph, config, partition, views, programs)
        }
    }
}

fn run_batch_sharded_on<S: PlaneStore<A::Msg>, A: NodeAlgorithm>(
    graph: &WeightedGraph,
    config: RunConfig,
    partition: &Partition,
    views: &[LocalView],
    programs: Vec<A>,
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
        return run_batch_sequential(graph, config, programs);
    }
    let budget = config.model.budget();

    // Split the programs into the shards' contiguous node ranges (the
    // drained vector is freed here, before the workers start).
    let per_shard: Vec<Vec<A>> = {
        let mut drain = programs.into_iter();
        (0..k)
            .map(|s| drain.by_ref().take(partition.node_range(s).len()).collect())
            .collect()
    };

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
            failure: None,
            merged: PendingRound::default(),
            command: Command::Stop,
            track_frontier: A::MESSAGE_DRIVEN,
            frontier: if A::MESSAGE_DRIVEN {
                WordMerge::for_nodes(n)
            } else {
                WordMerge::default()
            },
            sparse: false,
            panic: None,
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
        .flatten()
        .map(NodeAlgorithm::output)
        .collect();
    // Each round's events were merged in shard order from workers that step
    // their contiguous node ranges in ascending order, so the trace is
    // already in `(round, from)` order.
    Ok(finish(outputs, control.stats, control.events, config.trace))
}

/// The per-shard worker: init, then one barrier arrival per round until the
/// leader commands a stop.  Returns the shard's programs so the caller can
/// collate outputs.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
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

    let mut cur = S::with_len(slots.len());
    let mut next = S::with_len(slots.len());
    let mut inbox: Vec<(Port, A::Msg)> = Vec::new();
    let mut spare: Vec<A::Msg> = Vec::new();
    let mut pending = PendingRound::default();
    let mut incoming: Vec<S::Boundary> = (0..k).map(|_| S::Boundary::default()).collect();
    // Programs that finished during the last step.
    let mut done_delta = 0usize;

    // Sparse frontier state (see `crate::frontier`): `local_front` collects
    // this shard's scatter marks (full `n` size — remote destinations too)
    // and starts every round as a copy of the shard's eager instances;
    // `outgoing` holds the mark words this shard publishes and `gather` the
    // leader's merged words over its node range.  Compiled away unless the
    // program opts in.
    let n = partition.node_count();
    let mut local_front = WordMerge::default();
    let mut eager_front = WordMerge::default();
    let mut outgoing: Vec<WordPair> = Vec::new();
    let mut gather: Vec<WordPair> = Vec::new();
    let mut use_sparse = false;
    if A::MESSAGE_DRIVEN {
        eager_front = WordMerge::for_nodes(n);
        for (v, program) in nodes.clone().zip(&programs) {
            if !program.message_driven() {
                eager_front.mark(v);
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
        for (u, program) in nodes.clone().zip(&mut programs) {
            let mut scatter = BatchScatter {
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
            program.init_into(&views[u], &mut MsgSink::new(&mut scatter));
            if program.is_done() {
                done_delta += 1;
            }
        }
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
        A::MESSAGE_DRIVEN.then_some(&mut outgoing),
        &mut done_delta,
        caught.err(),
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
        // back after the gather pass.
        for (src, buf) in incoming.iter_mut().enumerate() {
            if src != s && !partition.boundary(src, s).is_empty() {
                *buf = std::mem::take(
                    &mut *shared.pair_bufs[read_parity][src * k + s].0.lock().unwrap(),
                );
            }
        }

        let caught = catch_unwind(AssertUnwindSafe(|| {
            // The per-node gather → step body, run under both round
            // schedules.  The sparse branch walks only this shard's slice
            // of the merged frontier: by the marking invariant a skipped
            // node's slots (private plane and exchange positions alike) are
            // empty, so skipping is a pure no-op.
            let gather_step = |v: usize| {
                let base = offsets[v];
                if S::RECYCLES {
                    spare.extend(inbox.drain(..).map(|(_, m)| m));
                } else {
                    inbox.clear();
                }
                // Gather in port order: intra-shard mirrors from the private
                // plane, cross-shard mirrors from the exchange buffers.
                // Unconditional (done nodes too), so every slot is drained
                // each round.
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
                let program = &mut programs[v - nodes.start];
                if program.is_done() {
                    return;
                }
                let mut scatter = BatchScatter {
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
                program.round_into(&views[v], round, &inbox, &mut MsgSink::new(&mut scatter));
                if program.is_done() {
                    done_delta += 1;
                }
            };
            if use_sparse {
                pair_ones(&gather, nodes.start, nodes.end).for_each(gather_step);
            } else {
                nodes.clone().for_each(gather_step);
            }
        }));

        // Return the incoming buffers for their producers to refill two
        // phases from now.
        for (src, buf) in incoming.iter_mut().enumerate() {
            if src != s && !partition.boundary(src, s).is_empty() {
                *shared.pair_bufs[read_parity][src * k + s].0.lock().unwrap() = std::mem::take(buf);
            }
        }

        // The private plane pair swaps exactly like the one-thread engine's;
        // the freshly scattered plane then has its boundary slots drained
        // into the next parity's exchange buffers.
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
            A::MESSAGE_DRIVEN.then_some(&mut outgoing),
            &mut done_delta,
            caught.err(),
        );
    }
    programs
}

/// Drains the boundary slots of `plane` into this shard's outgoing exchange
/// buffers for `parity` (skipped after a panic), then publishes the shard's
/// report for the round: the pending traffic and the done-delta (both reset
/// for the next round), the frontier pairs when tracking (swapped in, so
/// `frontier` comes back as the emptied vector of the last report), and any
/// caught panic.
#[allow(clippy::too_many_arguments)]
fn publish<M, S: PlaneStore<M>>(
    s: usize,
    shared: &Shared<M, S>,
    partition: &Partition,
    plane: &mut S,
    slot_base: usize,
    parity: usize,
    pending: &mut PendingRound,
    frontier: Option<&mut Vec<WordPair>>,
    done_delta: &mut usize,
    panic: Option<Panic>,
) {
    let k = partition.shard_count();
    if panic.is_none() {
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
    if let Some(front) = frontier {
        std::mem::swap(&mut report.frontier, front);
        front.clear();
    }
    // The report's previous traffic was consumed by the leader; swapping
    // hands its buffers back to this worker for reuse.
    std::mem::swap(&mut report.pending, pending);
    pending.reset();
    report.done_delta = std::mem::take(done_delta);
    report.panic = panic;
}

/// The leader's merge step, run by the last worker to arrive at the
/// barrier: fold the per-shard reports **in shard order** into the run's
/// global state and decide the next command.  The ordering reproduces the
/// one-thread loop exactly — done-check, round-limit check, then the round
/// commit (first pending error in node order wins; stats and trace only on
/// a clean commit).
fn coordinate<M, S: PlaneStore<M>>(
    shared: &Shared<M, S>,
    config: &RunConfig,
    n: usize,
    budget: Option<usize>,
) {
    let mut guard = shared.control.lock().unwrap();
    let ctl = &mut *guard;
    ctl.merged.reset();
    let mut panic: Option<Panic> = None;
    if ctl.track_frontier {
        ctl.frontier.clear();
    }
    for slot in &shared.reports {
        let mut report = slot.0.lock().unwrap();
        if ctl.track_frontier {
            ctl.frontier.or_pairs(&report.frontier);
        }
        ctl.done_count += report.done_delta;
        let (a, p) = (&mut ctl.merged, &mut report.pending);
        a.messages += p.messages;
        a.bits += p.bits;
        a.max_bits = a.max_bits.max(p.max_bits);
        a.violations += p.violations;
        if a.error.is_none() {
            a.error = p.error.take();
        }
        if config.trace {
            a.events.append(&mut p.events);
        }
        if panic.is_none() {
            panic = report.panic.take();
        }
    }

    // A program panic preempts everything, exactly as it would have unwound
    // out of the one-thread loop.
    if let Some(payload) = panic {
        ctl.panic = Some(payload);
        ctl.command = Command::Stop;
        return;
    }
    // The done-check first: a fully done run completes before the
    // round-limit check, and its final-step traffic is dropped, never
    // counted.
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
    let round = ctl.round;
    let a = &mut ctl.merged;
    if let Some(error) = a.error {
        ctl.failure = Some(commit_error(error, round, budget));
        ctl.command = Command::Stop;
        return;
    }
    ctl.stats
        .record_round(a.messages, a.bits, a.max_bits, a.violations);
    if config.trace {
        ctl.events.append(&mut a.events);
    }
    if ctl.track_frontier {
        let active = ctl.frontier.count();
        ctl.sparse = config.frontier.use_sparse(active, n);
        ctl.stats.record_frontier(active as u64, ctl.sparse);
    }
    ctl.command = Command::Work { round };
}

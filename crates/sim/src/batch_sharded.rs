//! The shard-parallel lockstep engine: shard × lane tiling over
//! lane-striped planes.  Every run with two or more threads lands here —
//! [`crate::Sim::run`] as a one-lane batch, [`crate::Sim::batch`] with all
//! of its lanes.
//!
//! **Shards.**  The graph's nodes are split into contiguous, slot-balanced
//! shards by [`lma_graph::Partition`].  Each shard is driven by one scoped
//! worker thread that owns the shard's programs (all lanes) and a
//! **private** pair of double-buffered [`BatchPlaneStore`]s covering only
//! the shard's contiguous slot range, so the scatter and gather of
//! different shards touch disjoint memory by construction — there is no
//! shared mutable plane and no unsafe code.
//!
//! **Boundary exchange.**  Cross-shard traffic travels through dense,
//! preallocated exchange buffers: one per ordered shard pair `(s, t)` and
//! round parity, sized by the partition's boundary-slot list times the lane
//! count.  The buffer type comes from the backend
//! ([`PlaneStore::Boundary`]): owned values for the inline backing, copied
//! encoded byte spans for the arena (the consumer decodes them into its own
//! recycled messages, so no shard reads another shard's arena).  The
//! lane-striped layout keeps a slot's `W` copies contiguous, so one
//! [`export_boundary`](BatchPlaneStore::export_boundary) pass at the end of
//! a worker's round moves the whole batch's traffic for a shard pair; at
//! the start of the next round the receiving worker takes the buffer whole
//! and gathers from it by the partition's precomputed cross-reference
//! positions.  Parity alternation makes each buffer a single-producer /
//! single-consumer hand-off separated by a barrier, so its `Mutex` is never
//! contended.
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
//! **One barrier arrival per round.**  Every worker publishes its per-lane
//! report and arrives at the crate's `RoundBarrier`; the **last** to arrive
//! runs the leader's merge (`coordinate`) before it releases the others.
//! The merge folds the reports **in shard order** — sums and maxima for
//! [`RunStats`], the first pending error in node order, trace events in
//! shard order — and decides the next command, lane by lane in the order a
//! solo run applies its done-check, round-limit check and commit, so each
//! lane's outputs, stats, traces and errors are bit-identical to the
//! one-thread engine.  An early arriver spins on the barrier's generation
//! word for a bounded number of iterations and then parks, so a quiet round
//! pays one atomic arrival instead of two futex round-trips.  Steady-state
//! rounds allocate nothing: reports, the leader's per-lane aggregate and
//! each worker's done-deltas and retired-lane scratch are reused.
//!
//! **Lane lifecycles.**  When a lane's global done-count reaches `n` (or it
//! commits a fatal error), the leader marks it finished in the shared
//! done-bitmask; workers drain that lane's stripe from their private planes
//! at the start of the next round, and the remaining lanes never stall.
//!
//! **Frontier hand-off** (programs that opt into
//! [`NodeAlgorithm::MESSAGE_DRIVEN`]).  A worker's scatters mark
//! `(destination, lane)` — remote destinations too — in a full-size
//! [`BatchFrontier`] that starts each round as the shard's eager instances.
//! The worker publishes only its non-zero mark words as `(word index,
//! word)` pairs and resets just those words; the leader ORs them into one
//! [`WordMerge`] and splits that into the node-level any-lane mask (the
//! dense↔sparse decision and the workers' gather set) and the lane-exact
//! active counts each lane records.  On a sparse round each worker copies
//! back only the merged words over its own node range, so the hand-off
//! grows with the number of marked words, not with `n · W / 64`.
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
use crate::batch::{run_batch_sequential, BatchScatter};
use crate::batch_plane::{expand_lanes, BatchPlaneStore};
use crate::frontier::{pair_ones, split_lanes, BatchFrontier, WordMerge, WordPair};
use crate::lanes::LaneWords;
use crate::plane::{ArenaPlane, Backing, MessagePlane, PlaneStore};
use crate::runtime::{PendingError, PendingRound, RunConfig, RunError, RunResult};
use crate::stats::RunStats;
use crate::trace::{order_sender_groups, TraceEvent};
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
    /// Execute communication round `round` for the lanes still active.
    Work { round: usize },
    /// The whole batch is over; exit the worker loop.
    Stop,
}

/// One lane's traffic for the round about to be committed: a shard's
/// contribution in its report, or the leader's shard-order merge of them.
#[derive(Default)]
struct LaneReport {
    messages: u64,
    bits: u64,
    max_bits: usize,
    violations: u64,
    error: Option<PendingError>,
    events: Vec<TraceEvent>,
    done_delta: usize,
}

/// One shard's full report: one entry per lane, plus the shard-level panic
/// slot (a program panic aborts the whole batch, exactly as it would have
/// unwound out of the one-thread loop).
struct ShardReport {
    lanes: Vec<LaneReport>,
    /// The shard's non-zero per-(node, lane) frontier mark words for the
    /// next round (scatters mark remote destinations too), with the shard's
    /// own eager instances pre-ORed.  Empty unless the program opts into
    /// `MESSAGE_DRIVEN`.
    frontier: Vec<WordPair>,
    panic: Option<Panic>,
}

/// Leader-owned per-lane state, read by the caller after the scope joins.
struct LaneControl {
    done_count: usize,
    stats: RunStats,
    events: Vec<TraceEvent>,
    failure: Option<RunError>,
}

struct Control {
    /// Committed rounds so far (global: every active lane is in lockstep).
    round: usize,
    lanes: Vec<LaneControl>,
    /// The per-lane merge of the shard reports (reused every round).
    merged: Vec<LaneReport>,
    /// Lanes that stopped (success or failure).  Workers compare it with
    /// their own copy to find freshly finished stripes to drain.
    finished: LaneWords,
    command: Command,
    /// Whether the program opted into sparse frontier execution
    /// (`MESSAGE_DRIVEN`); gates all frontier work below.
    track_frontier: bool,
    /// The merged mark words of the shard reports, ORed in `coordinate`.
    marks: WordMerge,
    /// The any-lane node mask of `marks` for the round just commanded; on
    /// a sparse round each worker copies the words over its node range.
    frontier: WordMerge,
    /// Per-lane active-node counts of `marks` (scratch).
    lane_active: Vec<u64>,
    /// The leader's dense↔sparse decision for the commanded round; workers
    /// read it together with the command.
    sparse: bool,
    panic: Option<Panic>,
}

struct Shared<M, S: PlaneStore<M>> {
    barrier: RoundBarrier,
    /// `pair_bufs[parity][s * k + t]`, dense over
    /// `partition.boundary(s, t).len() × lanes` positions (whole
    /// lane-groups per boundary slot).  Created empty; worker `s` sizes
    /// and first-touches its own `(s, *)` buffers before its first
    /// publish.
    pair_bufs: [Vec<CachePadded<Mutex<S::Boundary>>>; 2],
    /// `boundary_lanes[s * k + t]`: the lane-striped expansion of
    /// `partition.boundary(s, t)`, precomputed once for the whole batch.
    boundary_lanes: Vec<Vec<usize>>,
    reports: Vec<CachePadded<Mutex<ShardReport>>>,
    control: Mutex<Control>,
}

/// Runs `fleets` (lane-major: `fleets[l][u]`) with one worker per shard of
/// `partition`, dispatching the plane backend on [`RunConfig::backing`].
/// Per-lane semantics match the one-thread engine exactly.  The caller
/// provides the per-node `views`.
pub(crate) fn run_batch_sharded<A: NodeAlgorithm>(
    graph: &WeightedGraph,
    config: RunConfig,
    partition: &Partition,
    views: &[LocalView],
    fleets: Vec<Vec<A>>,
) -> crate::batch::LaneResults<A::Output> {
    match config.backing {
        Backing::Inline => {
            run_batch_sharded_on::<MessagePlane<A::Msg>, A>(graph, config, partition, views, fleets)
        }
        Backing::Arena => {
            run_batch_sharded_on::<ArenaPlane<A::Msg>, A>(graph, config, partition, views, fleets)
        }
    }
}

fn run_batch_sharded_on<S: PlaneStore<A::Msg>, A: NodeAlgorithm>(
    graph: &WeightedGraph,
    config: RunConfig,
    partition: &Partition,
    views: &[LocalView],
    fleets: Vec<Vec<A>>,
) -> crate::batch::LaneResults<A::Output> {
    let lanes = fleets.len();
    let n = graph.node_count();
    for fleet in &fleets {
        assert_eq!(fleet.len(), n, "one program per node per lane is required");
    }
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
        return run_batch_sequential(graph, config, fleets);
    }
    let budget = config.model.budget();

    // Tile the fleets shard × lane: per_shard[s] holds shard s's programs
    // lane-major, `(node range index i, lane l)` at `l * len + i` for the
    // shard's `len` nodes — the one-thread loop's flat layout, per shard.
    let mut per_shard: Vec<Vec<A>> = (0..k)
        .map(|s| Vec::with_capacity(partition.node_range(s).len() * lanes))
        .collect();
    for fleet in fleets {
        let mut drain = fleet.into_iter();
        for (s, shard) in per_shard.iter_mut().enumerate() {
            shard.extend(drain.by_ref().take(partition.node_range(s).len()));
        }
    }

    // Buffers start empty on the caller thread; each worker sizes and
    // first-touches its own outgoing buffers (see the module docs).
    let make_bufs = || {
        (0..k * k)
            .map(|_| CachePadded(Mutex::new(S::Boundary::default())))
            .collect()
    };
    let mut boundary_lanes = Vec::with_capacity(k * k);
    for s in 0..k {
        for t in 0..k {
            boundary_lanes.push(expand_lanes(partition.boundary(s, t), lanes));
        }
    }
    let shared: Shared<A::Msg, S> = Shared {
        barrier: RoundBarrier::new(k),
        pair_bufs: [make_bufs(), make_bufs()],
        boundary_lanes,
        reports: (0..k)
            .map(|_| {
                CachePadded(Mutex::new(ShardReport {
                    lanes: (0..lanes).map(|_| LaneReport::default()).collect(),
                    frontier: Vec::new(),
                    panic: None,
                }))
            })
            .collect(),
        control: Mutex::new(Control {
            round: 0,
            lanes: (0..lanes)
                .map(|_| LaneControl {
                    done_count: 0,
                    stats: RunStats::default(),
                    events: Vec::new(),
                    failure: None,
                })
                .collect(),
            merged: (0..lanes).map(|_| LaneReport::default()).collect(),
            finished: LaneWords::new(lanes),
            command: Command::Stop,
            track_frontier: A::MESSAGE_DRIVEN,
            marks: if A::MESSAGE_DRIVEN {
                WordMerge::for_marks(n, lanes)
            } else {
                WordMerge::default()
            },
            frontier: if A::MESSAGE_DRIVEN {
                WordMerge::for_nodes(n)
            } else {
                WordMerge::default()
            },
            lane_active: vec![0; lanes],
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
    control
        .lanes
        .into_iter()
        .enumerate()
        .map(|(l, lane)| {
            if let Some(err) = lane.failure {
                return Err(err);
            }
            let outputs = shard_programs
                .iter()
                .flat_map(|shard| {
                    let len = shard.len() / lanes;
                    shard[l * len..(l + 1) * len]
                        .iter()
                        .map(NodeAlgorithm::output)
                })
                .collect();
            // Each round's events were merged in shard order from workers
            // that step their contiguous node ranges in ascending order, so
            // the lane's trace is already in `(round, from)` order.
            let mut events = lane.events;
            Ok(RunResult {
                outputs,
                stats: lane.stats,
                trace: config.trace.then(|| {
                    order_sender_groups(&mut events);
                    events
                }),
            })
        })
        .collect()
}

/// The per-shard worker: init every lane, then one barrier arrival per round
/// until the leader commands a stop.  Returns the shard's programs (lane
/// `l` of node-range index `i` at `l * len + i`) so the caller can collate
/// outputs.
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
    let len = nodes.len();
    let lanes = programs.len() / len;

    let mut cur: BatchPlaneStore<A::Msg, S> = BatchPlaneStore::new(slots.len(), lanes);
    let mut next: BatchPlaneStore<A::Msg, S> = BatchPlaneStore::new(slots.len(), lanes);
    let mut inbox: Vec<(Port, A::Msg)> = Vec::new();
    let mut spare: Vec<A::Msg> = Vec::new();
    let mut pending: Vec<PendingRound> = (0..lanes).map(|_| PendingRound::default()).collect();
    let mut incoming: Vec<S::Boundary> = (0..k).map(|_| S::Boundary::default()).collect();
    // Per-lane count of programs that finished during the last step.
    let mut done_delta = vec![0usize; lanes];
    // Lanes this worker knows to be finished (drained on first sight), and
    // the scratch list of lanes the leader retired since the last round.
    let mut finished_seen = LaneWords::new(lanes);
    let mut retired: Vec<usize> = Vec::with_capacity(lanes);

    // Sparse frontier state (see `crate::frontier`): `local_front` collects
    // this shard's scatter marks (full `n × lanes` shape — remote
    // destinations too) and starts every round as a copy of the shard's
    // eager instances; `outgoing` holds the mark words this shard
    // publishes and `gather` the leader's merged any-lane words over its
    // node range.  Compiled away unless the program opts in.
    let n = partition.node_count();
    let mut local_front = BatchFrontier::default();
    let mut eager_front = BatchFrontier::default();
    let mut outgoing: Vec<WordPair> = Vec::new();
    let mut gather: Vec<WordPair> = Vec::new();
    let mut use_sparse = false;
    if A::MESSAGE_DRIVEN {
        eager_front = BatchFrontier::new(n, lanes);
        for (j, program) in programs.iter().enumerate() {
            if !program.message_driven() {
                eager_front.mark(nodes.start + j % len, j / len);
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
                BatchPlaneStore::<A::Msg, S>::new_boundary(boundary.len(), lanes);
        }
    }

    // Initialization: every lane's round-0 local computation producing
    // round-1 traffic, scattered into `cur` and drained into the parity-1
    // exchange buffers.
    let caught = catch_unwind(AssertUnwindSafe(|| {
        for (i, u) in nodes.clone().enumerate() {
            for l in 0..lanes {
                let program = &mut programs[l * len + i];
                let mut scatter = BatchScatter {
                    node: u,
                    base: offsets[u],
                    degree: offsets[u + 1] - offsets[u],
                    delivery_round: 1,
                    plane: &mut cur,
                    plane_offset: slot_base,
                    lane: l,
                    spare: &mut spare,
                    pending: &mut pending[l],
                    incident,
                    budget,
                    enforce_congest: config.enforce_congest,
                    trace: config.trace,
                    frontier: A::MESSAGE_DRIVEN.then_some(&mut local_front),
                };
                program.init_into(&views[u], &mut MsgSink::new(&mut scatter));
                if program.is_done() {
                    done_delta[l] += 1;
                }
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
            retired.clear();
            retired.extend(ctl.finished.ones().filter(|&l| !finished_seen.get(l)));
            round
        };
        // Drain the stripes of lanes the leader just retired: their final
        // (never-delivered) traffic is still in `cur`, and the arena's
        // round-reset asserts a fully drained plane.
        for &l in &retired {
            cur.drain_lane(l, &mut spare);
            finished_seen.set(l);
        }
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
            // The per-node gather → step body, expanded under both round
            // schedules.  The sparse branch walks only this shard's slice
            // of the merged any-lane mask: by the marking invariant a
            // skipped node's slots (private plane and exchange positions
            // alike) are empty in every lane, so skipping is a pure no-op.
            macro_rules! gather_step {
                ($i:expr, $v:expr) => {{
                    let i = $i;
                    let v = $v;
                    let base = offsets[v];
                    for l in 0..lanes {
                        if finished_seen.get(l) {
                            continue;
                        }
                        if S::RECYCLES {
                            spare.extend(inbox.drain(..).map(|(_, m)| m));
                        } else {
                            inbox.clear();
                        }
                        // Gather in port order: intra-shard mirrors from the
                        // private plane, cross-shard mirrors from the exchange
                        // buffers (lane-group position `pos × lanes + l`).
                        // Unconditional per active lane (done nodes too), so
                        // every live stripe is drained each round.
                        for (p, &sender_slot) in mirror[base..offsets[v + 1]].iter().enumerate() {
                            let msg = if slots.contains(&sender_slot) {
                                cur.fetch(sender_slot - slot_base, l, &mut spare)
                            } else {
                                let (src, pos) = partition
                                    .cross_ref(sender_slot)
                                    .expect("out-of-shard mirror slot must be a boundary slot");
                                BatchPlaneStore::<A::Msg, S>::fetch_boundary(
                                    &mut incoming[src],
                                    pos,
                                    l,
                                    lanes,
                                    &mut spare,
                                )
                            };
                            if let Some(msg) = msg {
                                inbox.push((p, msg));
                            }
                        }
                        let program = &mut programs[l * len + i];
                        if program.is_done() {
                            continue;
                        }
                        let mut scatter = BatchScatter {
                            node: v,
                            base,
                            degree: offsets[v + 1] - base,
                            delivery_round: round + 1,
                            plane: &mut next,
                            plane_offset: slot_base,
                            lane: l,
                            spare: &mut spare,
                            pending: &mut pending[l],
                            incident,
                            budget,
                            enforce_congest: config.enforce_congest,
                            trace: config.trace,
                            frontier: A::MESSAGE_DRIVEN.then_some(&mut local_front),
                        };
                        program.round_into(
                            &views[v],
                            round,
                            &inbox,
                            &mut MsgSink::new(&mut scatter),
                        );
                        if program.is_done() {
                            done_delta[l] += 1;
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
        }));

        // Return the incoming buffers for their producers to refill two
        // phases from now (stale finished-lane positions are overwritten by
        // the next export).
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

/// Drains the boundary lane-groups of `plane` into this shard's outgoing
/// exchange buffers for `parity` (skipped after a panic), then publishes
/// the shard's per-lane report for the round: the pending traffic and the
/// done-deltas (both reset for the next round), the frontier pairs when
/// tracking (swapped in, so `frontier` comes back as the emptied vector of
/// the last report), and any caught panic.
#[allow(clippy::too_many_arguments)]
fn publish<M, S: PlaneStore<M>>(
    s: usize,
    shared: &Shared<M, S>,
    partition: &Partition,
    plane: &mut BatchPlaneStore<M, S>,
    slot_base: usize,
    parity: usize,
    pending: &mut [PendingRound],
    frontier: Option<&mut Vec<WordPair>>,
    done_delta: &mut [usize],
    panic: Option<Panic>,
) {
    let k = partition.shard_count();
    let lanes = plane.lanes();
    if panic.is_none() {
        for t in 0..k {
            let striped = &shared.boundary_lanes[s * k + t];
            if striped.is_empty() {
                continue;
            }
            let mut buf = shared.pair_bufs[parity][s * k + t].0.lock().unwrap();
            plane.export_boundary(striped, slot_base * lanes, &mut buf);
            drop(buf);
        }
    }
    let mut report = shared.reports[s].0.lock().unwrap();
    if let Some(front) = frontier {
        std::mem::swap(&mut report.frontier, front);
        front.clear();
    }
    for ((lane, p), delta) in report.lanes.iter_mut().zip(pending).zip(done_delta) {
        lane.messages = p.messages;
        lane.bits = p.bits;
        lane.max_bits = p.max_bits;
        lane.violations = p.violations;
        lane.error = p.error.take();
        std::mem::swap(&mut lane.events, &mut p.events);
        lane.done_delta = std::mem::take(delta);
        p.reset();
    }
    report.panic = panic;
}

/// The leader's merge step, run by the last worker to arrive at the
/// barrier: fold the per-shard reports **in shard order** into each lane's
/// global state and decide the next command.
/// Per lane, the ordering reproduces a solo run exactly — done-check,
/// round-limit check, then the round commit (first pending error in node
/// order wins; stats and trace only on a clean commit) — with finished
/// lanes skipped so they drop out without stalling the rest.
fn coordinate<M, S: PlaneStore<M>>(
    shared: &Shared<M, S>,
    config: &RunConfig,
    n: usize,
    budget: Option<usize>,
) {
    let mut guard = shared.control.lock().unwrap();
    let ctl = &mut *guard;
    let lanes = ctl.lanes.len();
    for a in &mut ctl.merged {
        a.messages = 0;
        a.bits = 0;
        a.max_bits = 0;
        a.violations = 0;
        a.error = None;
        a.events.clear();
    }
    let mut panic: Option<Panic> = None;
    if ctl.track_frontier {
        ctl.marks.clear();
        ctl.frontier.clear();
    }
    for slot in &shared.reports {
        let mut report = slot.0.lock().unwrap();
        if ctl.track_frontier {
            ctl.marks.or_pairs(&report.frontier);
        }
        for ((lane, a), control) in report
            .lanes
            .iter_mut()
            .zip(&mut ctl.merged)
            .zip(&mut ctl.lanes)
        {
            control.done_count += lane.done_delta;
            a.messages += lane.messages;
            a.bits += lane.bits;
            a.max_bits = a.max_bits.max(lane.max_bits);
            a.violations += lane.violations;
            if a.error.is_none() {
                a.error = lane.error.take();
            }
            if config.trace {
                a.events.append(&mut lane.events);
            } else {
                lane.events.clear();
            }
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
    // Lane finalization first (the done-check of each lane's own loop): a
    // fully done lane completes before the round-limit check, and its
    // final-step traffic is dropped, never counted.
    for (l, lane) in ctl.lanes.iter().enumerate() {
        if lane.done_count >= n {
            ctl.finished.set(l);
        }
    }
    if ctl.finished.count() == lanes {
        ctl.command = Command::Stop;
        return;
    }
    if ctl.round >= config.max_rounds {
        for (l, lane) in ctl.lanes.iter_mut().enumerate() {
            if !ctl.finished.get(l) {
                lane.failure = Some(RunError::RoundLimitExceeded {
                    limit: config.max_rounds,
                });
                ctl.finished.set(l);
            }
        }
        ctl.command = Command::Stop;
        return;
    }
    ctl.round += 1;
    let round = ctl.round;
    // The global dense↔sparse decision for the round being commanded, plus
    // the lane-exact active counts each surviving lane records (identical
    // to its solo run's).
    let sparse = if ctl.track_frontier {
        split_lanes(&ctl.marks, lanes, &mut ctl.frontier, &mut ctl.lane_active);
        ctl.sparse = config.frontier.use_sparse(ctl.frontier.count(), n);
        ctl.sparse
    } else {
        false
    };
    for (l, (a, lane)) in ctl.merged.iter_mut().zip(&mut ctl.lanes).enumerate() {
        if ctl.finished.get(l) {
            continue;
        }
        match a.error.take() {
            Some(PendingError::Malformed { node, port }) => {
                lane.failure = Some(RunError::MalformedOutbox { node, port });
                ctl.finished.set(l);
            }
            Some(PendingError::Congest { bits }) => {
                lane.failure = Some(RunError::CongestViolation {
                    round,
                    bits,
                    budget: budget.expect("congest error implies a budget"),
                });
                ctl.finished.set(l);
            }
            None => {
                lane.stats
                    .record_round(a.messages, a.bits, a.max_bits, a.violations);
                if ctl.track_frontier {
                    lane.stats.record_frontier(ctl.lane_active[l], sparse);
                }
                if config.trace {
                    lane.events.append(&mut a.events);
                }
            }
        }
    }
    ctl.command = if ctl.finished.count() == lanes {
        Command::Stop
    } else {
        Command::Work { round }
    };
}

//! The sharded batch executor: shard × lane tiling over lane-striped
//! planes.
//!
//! Structure and protocol are exactly [`crate::sharded`]'s — contiguous
//! shards, private double-buffered planes per worker, parity-alternating
//! exchange buffers (cache-line padded, created empty and first-touched by
//! their producing worker; see the cache-hygiene notes there), one
//! [`RoundBarrier`] arrival per round whose last arriver merges the
//! per-shard reports in shard order, and the same frontier hand-off of
//! non-zero `(word index, word)` pairs — with one extra dimension: every
//! worker's planes are [`BatchPlaneStore`]s carrying all `W` lanes of the
//! shard's slots, every report and every piece of leader state is
//! per-lane, and the boundary exchange ships **whole lane-groups per
//! boundary slot** (the lane-striped layout keeps a slot's `W` copies
//! contiguous, so one [`export_boundary`](BatchPlaneStore::export_boundary)
//! pass moves the entire batch's cross-shard traffic for a shard pair).
//!
//! Lane lifecycles are coordinated by the leader: when a lane's global
//! done-count reaches `n` (or the lane commits a fatal error), the leader
//! marks it finished in the shared done-bitmask and the workers drain that
//! lane's stripe from their private planes at the start of the next round —
//! the remaining lanes never stall.  Per-lane round accounting, error
//! commit order and the round-limit check replicate the single-run
//! coordinate step lane by lane, so each lane's outputs, stats, trace and
//! error are bit-identical to its own sequential (and single-run sharded)
//! execution.
//!
//! The frontier pairs are [`BatchFrontier`] *mark* words (lane `l` of node
//! `v` at word `v · wpn + l / 64`): a worker finds its marked nodes through
//! its any-lane mask and publishes only their non-zero mark words.  The
//! leader merges them into one [`WordMerge`] and splits that into the
//! node-level any-lane mask (the dense↔sparse decision and the workers'
//! gather set) and the lane-exact active counts each lane records.

use crate::algorithm::{LocalView, MsgSink, NodeAlgorithm};
use crate::barrier::RoundBarrier;
use crate::batch::{run_batch_sequential, BatchScatter};
use crate::batch_plane::{expand_lanes, BatchPlaneStore};
use crate::frontier::{pair_ones, split_lanes, BatchFrontier, WordMerge, WordPair};
use crate::lanes::LaneWords;
use crate::plane::{ArenaPlane, Backing, HybridPlane, MessagePlane, PlaneStore};
use crate::runtime::{PendingError, PendingRound, RunConfig, RunError, RunResult};
use crate::sharded::CachePadded;
use crate::stats::RunStats;
use crate::trace::TraceEvent;
use lma_graph::{Partition, Port, WeightedGraph};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// What the leader's merge tells every worker to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    /// Execute communication round `round` for the lanes still active.
    Work { round: usize },
    /// The whole batch is over; exit the worker loop.
    Stop,
}

/// One shard's per-lane contribution to the round about to be committed.
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
/// unwound out of the sequential lockstep loop).
struct ShardReport {
    lanes: Vec<LaneReport>,
    /// The shard's non-zero per-(node, lane) frontier mark words for the
    /// next round (scatters mark remote destinations too), with the shard's
    /// own eager instances pre-ORed.  Empty unless the program opts into
    /// `MESSAGE_DRIVEN`.
    frontier: Vec<WordPair>,
    panic: Option<Box<dyn Any + Send>>,
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
    /// Lanes that stopped (success or failure).  Workers diff this against
    /// a local copy to find freshly finished stripes to drain.
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
    panic: Option<Box<dyn Any + Send>>,
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

/// Runs `fleets` (lane-major: `fleets[l][u]`) with one worker per shard,
/// dispatching the plane backend on [`RunConfig::backing`].  Per-lane
/// semantics match [`crate::Runtime::run`] exactly.
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
        Backing::Hybrid => {
            run_batch_sharded_on::<HybridPlane<A::Msg>, A>(graph, config, partition, views, fleets)
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

    // Tile the fleets shard × lane: per_shard[s][l] holds lane l's programs
    // for shard s's contiguous node range, in node order.
    let mut per_shard: Vec<Vec<Vec<A>>> = (0..k).map(|_| Vec::with_capacity(lanes)).collect();
    for fleet in fleets {
        let mut drain = fleet.into_iter();
        for (s, shard) in per_shard.iter_mut().enumerate() {
            shard.push(
                drain
                    .by_ref()
                    .take(partition.node_range(s).len())
                    .collect::<Vec<A>>(),
            );
        }
    }

    // Buffers start empty on the caller thread; each worker sizes and
    // first-touches its own outgoing buffers (see `crate::sharded`).
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

    let mut shard_programs: Vec<Vec<Vec<A>>> = Vec::with_capacity(k);
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
                .flat_map(|shard| shard[l].iter().map(NodeAlgorithm::output))
                .collect();
            let mut events = lane.events;
            Ok(RunResult {
                outputs,
                stats: lane.stats,
                trace: config.trace.then(|| {
                    events.sort_by_key(|e| (e.round, e.from, e.to));
                    events
                }),
            })
        })
        .collect()
}

/// The per-shard worker: init every lane, then one barrier arrival per round
/// until the leader commands a stop.  Returns the shard's lane programs
/// (`[l][i]`) so the caller can collate outputs.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
fn worker<S: PlaneStore<A::Msg>, A: NodeAlgorithm>(
    s: usize,
    mut programs: Vec<Vec<A>>,
    graph: &WeightedGraph,
    config: RunConfig,
    partition: &Partition,
    views: &[LocalView],
    shared: &Shared<A::Msg, S>,
    budget: Option<usize>,
) -> Vec<Vec<A>> {
    let lanes = programs.len();
    let k = partition.shard_count();
    let csr = graph.csr();
    let offsets = csr.offsets();
    let mirror = csr.mirror_table();
    let incident = csr.incident_flat();
    let nodes = partition.node_range(s);
    let slots = partition.slot_range(s);
    let slot_base = slots.start;

    let mut cur: BatchPlaneStore<A::Msg, S> = BatchPlaneStore::new(slots.len(), lanes);
    let mut next: BatchPlaneStore<A::Msg, S> = BatchPlaneStore::new(slots.len(), lanes);
    let mut inbox: Vec<(Port, A::Msg)> = Vec::new();
    let mut spare: Vec<A::Msg> = Vec::new();
    let mut pending: Vec<PendingRound> = (0..lanes).map(|_| PendingRound::default()).collect();
    let mut incoming: Vec<S::Boundary> = (0..k).map(|_| S::Boundary::default()).collect();
    // Lanes this worker knows to be finished (drained on first sight).
    let mut finished_seen = LaneWords::new(lanes);

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
        for (i, u) in nodes.clone().enumerate() {
            for (l, lane_programs) in programs.iter().enumerate() {
                if !lane_programs[i].message_driven() {
                    eager_front.mark(u, l);
                }
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
        let mut done_delta = vec![0usize; lanes];
        for (i, u) in nodes.clone().enumerate() {
            for (l, lane_programs) in programs.iter_mut().enumerate() {
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
                lane_programs[i].init_into(&views[u], &mut MsgSink::new(&mut scatter));
                if lane_programs[i].is_done() {
                    done_delta[l] += 1;
                }
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
        A::MESSAGE_DRIVEN.then_some(&mut outgoing),
        caught,
    );

    loop {
        shared
            .barrier
            .wait(|| coordinate(shared, &config, n, budget));
        let (round, finished) = {
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
            (round, ctl.finished.clone())
        };
        // Drain the stripes of lanes the leader just retired: their final
        // (never-delivered) traffic is still in `cur`, and the arena's
        // round-reset asserts a fully drained plane.
        for l in finished.ones() {
            if !finished_seen.get(l) {
                cur.drain_lane(l, &mut spare);
            }
        }
        finished_seen = finished;
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
            let mut done_delta = vec![0usize; lanes];
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
                    for (l, lane_programs) in programs.iter_mut().enumerate() {
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
                        if lane_programs[i].is_done() {
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
                        lane_programs[i].round_into(
                            &views[v],
                            round,
                            &inbox,
                            &mut MsgSink::new(&mut scatter),
                        );
                        if lane_programs[i].is_done() {
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
            done_delta
        }));

        // Return the incoming buffers for their producers to refill two
        // phases from now (stale finished-lane positions are overwritten by
        // the next export).
        for (src, buf) in incoming.iter_mut().enumerate() {
            if src != s && !partition.boundary(src, s).is_empty() {
                *shared.pair_bufs[read_parity][src * k + s].0.lock().unwrap() = std::mem::take(buf);
            }
        }

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
            caught,
        );
    }
    programs
}

/// Drains the boundary lane-groups of `plane` into this shard's outgoing
/// exchange buffers for `parity`, then publishes the shard's per-lane
/// report for the round (including its frontier pairs when tracking:
/// swapped in, so `frontier` comes back as the emptied vector of the last
/// report).
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
    caught: Result<Vec<usize>, Box<dyn Any + Send>>,
) {
    let k = partition.shard_count();
    let lanes = plane.lanes();
    if caught.is_ok() {
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
    for (l, p) in pending.iter_mut().enumerate() {
        let lane = &mut report.lanes[l];
        lane.messages = p.messages;
        lane.bits = p.bits;
        lane.max_bits = p.max_bits;
        lane.violations = p.violations;
        lane.error = p.error.take();
        lane.events = std::mem::take(&mut p.events);
        p.reset();
    }
    match caught {
        Ok(done_delta) => {
            for (l, delta) in done_delta.into_iter().enumerate() {
                report.lanes[l].done_delta = delta;
            }
        }
        Err(payload) => report.panic = Some(payload),
    }
}

/// Accumulated per-lane round traffic, merged from the shard reports.
#[derive(Default)]
struct LaneAgg {
    messages: u64,
    bits: u64,
    max_bits: usize,
    violations: u64,
    error: Option<PendingError>,
    events: Vec<TraceEvent>,
}

/// The leader's merge step, run by the last worker to arrive at the
/// barrier: fold the per-shard reports **in shard order** into each lane's
/// global state and decide the next command.
/// Per lane, the ordering reproduces the single-run coordinate exactly —
/// done-check, round-limit check, then the round commit (first pending
/// error in node order wins; stats and trace only on a clean commit) —
/// with finished lanes skipped so they drop out without stalling the rest.
fn coordinate<M, S: PlaneStore<M>>(
    shared: &Shared<M, S>,
    config: &RunConfig,
    n: usize,
    budget: Option<usize>,
) {
    let mut ctl = shared.control.lock().unwrap();
    let lanes = ctl.lanes.len();
    let mut agg: Vec<LaneAgg> = (0..lanes).map(|_| LaneAgg::default()).collect();
    let mut panic: Option<Box<dyn Any + Send>> = None;
    if ctl.track_frontier {
        ctl.marks.clear();
        ctl.frontier.clear();
    }
    for slot in shared.reports.iter() {
        let mut report = slot.0.lock().unwrap();
        if ctl.track_frontier {
            ctl.marks.or_pairs(&report.frontier);
        }
        for (l, lane) in report.lanes.iter_mut().enumerate() {
            ctl.lanes[l].done_count += lane.done_delta;
            lane.done_delta = 0;
            let a = &mut agg[l];
            a.messages += lane.messages;
            a.bits += lane.bits;
            a.max_bits = a.max_bits.max(lane.max_bits);
            a.violations += lane.violations;
            lane.messages = 0;
            lane.bits = 0;
            lane.max_bits = 0;
            lane.violations = 0;
            if a.error.is_none() {
                a.error = lane.error.take();
            } else {
                lane.error = None;
            }
            if config.trace {
                a.events.append(&mut lane.events);
            } else {
                lane.events.clear();
            }
        }
        if panic.is_none() {
            panic = report.panic.take();
        } else {
            report.panic = None;
        }
    }

    // A program panic preempts everything, exactly as it would have unwound
    // out of the sequential lockstep loop.
    if let Some(payload) = panic {
        ctl.panic = Some(payload);
        ctl.command = Command::Stop;
        return;
    }
    // Lane finalization first (the done-check of each lane's own loop): a
    // fully done lane completes before the round-limit check, and its
    // final-step traffic is dropped, never counted.
    for l in 0..lanes {
        if !ctl.finished.get(l) && ctl.lanes[l].done_count >= n {
            ctl.finished.set(l);
        }
    }
    if ctl.finished.count() == lanes {
        ctl.command = Command::Stop;
        return;
    }
    if ctl.round >= config.max_rounds {
        for l in 0..lanes {
            if !ctl.finished.get(l) {
                ctl.lanes[l].failure = Some(RunError::RoundLimitExceeded {
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
    let ctl = &mut *ctl;
    let sparse = if ctl.track_frontier {
        split_lanes(&ctl.marks, lanes, &mut ctl.frontier, &mut ctl.lane_active);
        ctl.sparse = config.frontier.use_sparse(ctl.frontier.count(), n);
        ctl.sparse
    } else {
        false
    };
    for (l, a) in agg.iter_mut().enumerate() {
        if ctl.finished.get(l) {
            continue;
        }
        match a.error.take() {
            Some(PendingError::Malformed { node, port }) => {
                ctl.lanes[l].failure = Some(RunError::MalformedOutbox { node, port });
                ctl.finished.set(l);
            }
            Some(PendingError::Congest { bits }) => {
                ctl.lanes[l].failure = Some(RunError::CongestViolation {
                    round,
                    bits,
                    budget: budget.expect("congest error implies a budget"),
                });
                ctl.finished.set(l);
            }
            None => {
                ctl.lanes[l]
                    .stats
                    .record_round(a.messages, a.bits, a.max_bits, a.violations);
                if ctl.track_frontier {
                    ctl.lanes[l]
                        .stats
                        .record_frontier(ctl.lane_active[l], sparse);
                }
                if config.trace {
                    let mut events = std::mem::take(&mut a.events);
                    ctl.lanes[l].events.append(&mut events);
                }
            }
        }
    }
    if ctl.finished.count() == lanes {
        ctl.command = Command::Stop;
    } else {
        ctl.command = Command::Work { round };
    }
}

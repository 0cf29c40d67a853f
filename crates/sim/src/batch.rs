//! The lockstep batch engine: `W` independent simulations run in lockstep
//! over **one** graph traversal — and, at `W = 1`, every ordinary run.
//!
//! The paper's evaluation shape is many same-program runs on a shared
//! topology — different seeds, advice strings and root choices.  Running
//! them one at a time re-walks the same CSR adjacency `W` times.  A
//! [`BatchSim`] (built with [`Sim::batch`]) instead runs a *fleet of
//! fleets*: `fleets[l][u]` is the program node `u` runs in lane `l`, and
//! every round the engine walks the CSR **once**, stepping each node's `W`
//! lane programs back to back while their messages live side by side in
//! one lane-striped [`BatchPlaneStore`].  Graph traversal, plane
//! management, the plane pool checkout and (with two or more threads) the
//! `Partition` and its boundary exchange are all amortized across the whole
//! batch — the FRAIG-style word-parallel simulation idea applied at the
//! engine level, with [`crate::lanes`] providing the genuinely word-packed
//! variant for bit-sized payloads.
//!
//! There is one round kernel, parameterised by its width: [`Sim::run`] is
//! lane 0 of `Sim::batch(1)`, on this loop for one thread and on the
//! shard-parallel `batch_sharded` loop for two or more.  Everything whose
//! per-round cost could grow with `n · W` is laid out so that it does not:
//! the sparse frontier (`BatchFrontier`) is word-major with a two-level
//! any-lane mask, so at `W = 1` it costs what a single-run node bitset
//! would, and a lane that finishes last skips draining its stripe (the pool
//! checkout clears the planes anyway).
//!
//! **Per-lane semantics are exactly the single-run semantics.**  Each lane
//! carries its own `PendingRound` accounting, its own [`RunStats`], trace
//! and error state; a lane that finishes (or fails) drops out of the batch
//! through the per-lane done-bitmask ([`LaneWords`]) without stalling the
//! others, draining its message stripe so the shared plane's round-reset
//! invariants hold.  `batched(W)` is therefore bit-for-bit equal to `W`
//! solo runs — outputs, stats, traces, errors, and golden digests — which
//! the `runtime_equivalence` suite (against the push reference) and the
//! scenario registry's batch cells pin at `W ∈ {1, 2, 8, 64}`.

use crate::algorithm::{local_views, MsgSink, NodeAlgorithm, SendSlot};
use crate::batch_plane::BatchPlaneStore;
use crate::driver::Sim;
use crate::executor::Executor;
use crate::frontier::BatchFrontier;
use crate::lanes::LaneWords;
use crate::message::BitSized;
use crate::plane::{ArenaPlane, Backing, MessagePlane, PlaneStore, SlotOccupied};
use crate::pool;
use crate::runtime::{PendingError, PendingRound, RunConfig, RunError, RunResult};
use crate::stats::RunStats;
use crate::trace::{order_sender_groups, TraceEvent};
use lma_graph::{IncidentEdge, Port, WeightedGraph};

/// The per-lane outcomes of a batch run: one entry per lane, index for
/// index with the `fleets` handed to [`BatchSim::run`], each exactly what
/// [`Sim::run`] would have returned for that fleet alone.
pub type LaneResults<O> = Vec<Result<RunResult<O>, RunError>>;

/// A configured batch of `W` lockstep simulations: a [`Sim`] plus a lane
/// count.  Built with [`Sim::batch`]; see the [module docs](self).
#[derive(Debug, Clone, Copy)]
pub struct BatchSim<'g> {
    sim: Sim<'g>,
    lanes: usize,
}

impl<'g> BatchSim<'g> {
    pub(crate) fn new(sim: Sim<'g>, lanes: usize) -> Self {
        Self { sim, lanes }
    }

    /// The underlying single-run simulation (graph + every run knob).
    #[must_use]
    pub fn sim(&self) -> &Sim<'g> {
        &self.sim
    }

    /// The lane count `W`.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Runs `W` program fleets in lockstep: `fleets[l][u]` is the program
    /// node `u` runs in lane `l`.  Returns one per-lane result, index for
    /// index with `fleets` — each exactly what [`Sim::run`] would have
    /// returned for that fleet alone (a failing lane reports its own error;
    /// the other lanes complete).
    ///
    /// Dispatches through [`crate::executor`] on the resolved thread count:
    /// two or more threads tile shard × lane (one barrier cycle per round
    /// for the whole batch), one thread runs the lockstep loop below, and
    /// [`Engine::Reference`](crate::Engine::Reference) runs each lane
    /// through the push oracle.
    pub fn run<A: NodeAlgorithm>(
        &self,
        fleets: Vec<Vec<A>>,
    ) -> Result<LaneResults<A::Output>, BatchShapeError> {
        if fleets.len() != self.lanes {
            return Err(BatchShapeError {
                expected: self.lanes,
                got: fleets.len(),
            });
        }
        if self.lanes == 0 {
            return Ok(Vec::new());
        }
        Ok(Executor::of(&self.sim).run(&self.sim, fleets))
    }
}

/// The batch was handed the wrong number of fleets (`fleets.len() != W`).
/// Shape errors are the caller's bug, not a lane outcome, so they surface
/// separately from the per-lane [`RunError`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchShapeError {
    /// The batch's configured lane count.
    pub expected: usize,
    /// The number of fleets actually supplied.
    pub got: usize,
}

impl std::fmt::Display for BatchShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "batch of {} lanes was handed {} fleets",
            self.expected, self.got
        )
    }
}

impl std::error::Error for BatchShapeError {}

impl<'g> Sim<'g> {
    /// Turns this simulation into a batch of `lanes` lockstep runs sharing
    /// one traversal (see [`BatchSim`] and the [`crate::batch`] docs).
    #[must_use]
    pub fn batch(self, lanes: usize) -> BatchSim<'g> {
        BatchSim::new(self, lanes)
    }
}

/// The live scatter path behind every [`MsgSink`](crate::MsgSink) the plane
/// engines hand to node programs: validates each sent message, stores it
/// into `(slot, lane)` of the lane-striped plane, and accumulates that
/// lane's accounting for the round the messages will be delivered in
/// (`delivery_round`).  Constructed fresh per node per lane per round (it
/// is only borrows).
///
/// `plane` may cover only a window of the global slot space (a shard's
/// contiguous slot range): `plane_offset` is the global index of the
/// plane's slot 0, so the one-thread loop passes 0 and a shard worker
/// passes its shard's first slot.
///
/// Error semantics match the historical outbox validation exactly: the
/// first fatal event wins (in send order within a node, in node order
/// across nodes), later sends are ignored, and the error surfaces when the
/// offending message would have been *delivered* (see [`PendingError`]).
pub(crate) struct BatchScatter<'a, M, S: PlaneStore<M>> {
    pub node: usize,
    /// First slot of `node` in the global slot space (`offsets[node]`).
    pub base: usize,
    pub degree: usize,
    pub delivery_round: usize,
    pub plane: &'a mut BatchPlaneStore<M, S>,
    pub plane_offset: usize,
    pub lane: usize,
    pub spare: &'a mut Vec<M>,
    pub pending: &'a mut PendingRound,
    pub incident: &'a [IncidentEdge],
    pub budget: Option<usize>,
    pub enforce_congest: bool,
    pub trace: bool,
    /// Frontier marking target: `Some` only for programs that opted into
    /// sparse frontier execution ([`crate::NodeAlgorithm::MESSAGE_DRIVEN`]),
    /// in which case every successfully stored message marks its
    /// destination node (the `IncidentEdge` target of the slot) in `lane`
    /// for the round the message will be delivered in.
    pub frontier: Option<&'a mut BatchFrontier>,
}

impl<M: BitSized, S: PlaneStore<M>> BatchScatter<'_, M, S> {
    /// Pre-store validation; returns the message's global slot when the
    /// send should proceed.
    fn accept(&mut self, port: Port) -> Option<usize> {
        if self.pending.error.is_some() {
            return None;
        }
        if port >= self.degree {
            self.pending.error = Some(PendingError::Malformed {
                node: self.node,
                port,
            });
            return None;
        }
        Some(self.base + port)
    }

    /// Maps a store rejection (already in graph-slot space: the batch plane
    /// un-stripes it) back to the duplicated port — never a silent drop.
    fn reject(&mut self, occupied: SlotOccupied) {
        self.pending.error = Some(PendingError::Malformed {
            node: self.node,
            port: occupied.slot + self.plane_offset - self.base,
        });
    }

    /// Post-store accounting: frontier mark, stats, CONGEST audit, trace.
    fn account(&mut self, slot: usize, size: usize) {
        if let Some(front) = self.frontier.as_deref_mut() {
            front.mark(self.incident[slot].neighbor, self.lane);
        }
        self.pending.messages += 1;
        self.pending.bits += size as u64;
        self.pending.max_bits = self.pending.max_bits.max(size);
        if let Some(b) = self.budget {
            if size > b {
                if self.enforce_congest {
                    self.pending.error = Some(PendingError::Congest { bits: size });
                    return;
                }
                self.pending.violations += 1;
            }
        }
        if self.trace {
            self.pending.events.push(TraceEvent {
                round: self.delivery_round,
                from: self.node,
                to: self.incident[slot].neighbor,
                bits: size,
            });
        }
    }
}

impl<M: BitSized, S: PlaneStore<M>> SendSlot<M> for BatchScatter<'_, M, S> {
    fn send(&mut self, port: Port, msg: M) {
        let Some(slot) = self.accept(port) else {
            return;
        };
        let size = msg.bit_size();
        match self
            .plane
            .store(slot - self.plane_offset, self.lane, msg, self.spare)
        {
            Ok(()) => self.account(slot, size),
            Err(occupied) => self.reject(occupied),
        }
    }

    fn send_ref(&mut self, port: Port, msg: &M) {
        let Some(slot) = self.accept(port) else {
            return;
        };
        let size = msg.bit_size();
        match self
            .plane
            .store_ref(slot - self.plane_offset, self.lane, msg)
        {
            Ok(()) => self.account(slot, size),
            Err(occupied) => self.reject(occupied),
        }
    }
}

/// The one-thread lockstep loop, dispatched on the configured backing.
pub(crate) fn run_batch_sequential<A: NodeAlgorithm>(
    graph: &WeightedGraph,
    config: RunConfig,
    fleets: Vec<Vec<A>>,
) -> LaneResults<A::Output> {
    match config.backing {
        Backing::Inline => {
            run_batch_sequential_on::<MessagePlane<A::Msg>, A>(graph, config, fleets)
        }
        Backing::Arena => run_batch_sequential_on::<ArenaPlane<A::Msg>, A>(graph, config, fleets),
    }
}

fn run_batch_sequential_on<S: PlaneStore<A::Msg>, A: NodeAlgorithm>(
    graph: &WeightedGraph,
    config: RunConfig,
    fleets: Vec<Vec<A>>,
) -> LaneResults<A::Output> {
    let lanes = fleets.len();
    // All steady-state storage comes from the per-thread pool: allocated
    // at most once, then reused by every later run on this thread.
    let mut set = pool::checkout_batch::<A::Msg, S>(graph.csr().slot_count(), lanes);
    let results = batch_loop(graph, config, &mut set, fleets);
    pool::give_back_batch(set);
    results
}

/// The finished result of a lane: its outputs, stats and trace.  The lane's
/// events were committed round by round, each round's in the order its
/// senders were stepped — ascending node order, dense scan or sparse walk —
/// so only each sender's group needs ordering by `to` (see
/// [`crate::trace`]).
fn finish_lane<A: NodeAlgorithm>(
    fleet: &[A],
    stats: &mut RunStats,
    events: &mut Vec<TraceEvent>,
    trace: bool,
) -> Result<RunResult<A::Output>, RunError> {
    let mut events = std::mem::take(events);
    Ok(RunResult {
        outputs: fleet.iter().map(NodeAlgorithm::output).collect(),
        stats: std::mem::take(stats),
        trace: trace.then(|| {
            order_sender_groups(&mut events);
            events
        }),
    })
}

/// The core lockstep loop.  Every piece of run state is a per-lane vector,
/// and the done-check, round-limit check and pending-error commit are
/// applied lane by lane in the order a solo run applies them — that
/// ordering is what makes `batched(W)` bit-identical to `W` solo runs.
///
/// Per round: commit each lane's scattered traffic (errors first, then
/// stats and trace), pick dense or sparse on the any-lane frontier, then
/// deliver and step.  Each receiver gathers its traffic by pulling from
/// the mirror slot of each of its ports — delivery order is port-ascending
/// by construction — and each message is *moved* (inline) or decoded into a
/// recycled value (arena) out of the sender's slot.  Gathering is
/// unconditional, so done nodes still drain their slots and the plane is
/// empty when the buffers swap.
#[allow(clippy::too_many_lines)]
fn batch_loop<S: PlaneStore<A::Msg>, A: NodeAlgorithm>(
    graph: &WeightedGraph,
    config: RunConfig,
    set: &mut pool::BatchSet<A::Msg, S>,
    fleets: Vec<Vec<A>>,
) -> LaneResults<A::Output> {
    let lanes = fleets.len();
    let n = graph.node_count();
    for fleet in &fleets {
        assert_eq!(fleet.len(), n, "one program per node per lane is required");
    }
    // The lanes' programs back to back, lane-major: `(node v, lane l)` is
    // `programs[l * n + v]`.  One flat buffer keeps the hot step to a
    // single index, and lane 0 keeps its allocation (a solo run moves
    // nothing).
    let mut fleets = fleets.into_iter();
    let mut programs = fleets.next().expect("at least one lane");
    programs.reserve(n * (lanes - 1));
    for fleet in fleets {
        programs.extend(fleet);
    }
    let views = local_views(graph);
    let budget = config.model.budget();
    let csr = graph.csr();
    let offsets = csr.offsets();
    let mirror = csr.mirror_table();
    let incident = csr.incident_flat();

    let pool::BatchSet {
        cur,
        next,
        inbox,
        spare,
    } = set;
    let mut pending: Vec<PendingRound> = (0..lanes).map(|_| PendingRound::default()).collect();
    let mut events: Vec<Vec<TraceEvent>> = (0..lanes).map(|_| Vec::new()).collect();
    let mut stats: Vec<RunStats> = (0..lanes).map(|_| RunStats::default()).collect();
    let mut done_counts = vec![0usize; lanes];
    let mut results: Vec<Option<Result<RunResult<A::Output>, RunError>>> =
        (0..lanes).map(|_| None).collect();
    // The per-lane done-bitmask: lanes still running.  Finished lanes drop
    // out without stalling the batch.
    let mut active = LaneWords::new(lanes);
    active.fill();
    // Lanes that stopped this round (reused scratch): their stripes are
    // drained only when some other lane keeps the planes cycling.
    let mut stopped: Vec<usize> = Vec::with_capacity(lanes);

    // Sparse frontier state (see `crate::frontier`): `cur_front` holds the
    // (node, lane) pairs active in the round being gathered, `next_front`
    // collects scatter marks for the round after, and `eager_front` is the
    // constant template of instances that are not message-driven, which
    // re-seeds `next_front` each round.  Compiled away unless the program
    // opts in via `MESSAGE_DRIVEN` (an associated const).
    let mut cur_front = BatchFrontier::default();
    let mut next_front = BatchFrontier::default();
    let mut eager_front = BatchFrontier::default();
    let mut lane_active: Vec<u64> = Vec::new();
    if A::MESSAGE_DRIVEN {
        eager_front = BatchFrontier::new(n, lanes);
        for (i, program) in programs.iter().enumerate() {
            if !program.message_driven() {
                eager_front.mark(i % n, i / n);
            }
        }
        cur_front = eager_front.clone();
        next_front = BatchFrontier::new(n, lanes);
        lane_active = vec![0; lanes];
    }

    // Initialization: every lane's round-0 local computation producing
    // round-1 traffic, node-major so the views are walked once, emitted
    // straight into the plane (marking the round-1 frontier as it goes).
    for u in 0..n {
        for l in 0..lanes {
            let program = &mut programs[l * n + u];
            let mut scatter = BatchScatter {
                node: u,
                base: offsets[u],
                degree: offsets[u + 1] - offsets[u],
                delivery_round: 1,
                plane: &mut *cur,
                plane_offset: 0,
                lane: l,
                spare: &mut *spare,
                pending: &mut pending[l],
                incident,
                budget,
                enforce_congest: config.enforce_congest,
                trace: config.trace,
                frontier: A::MESSAGE_DRIVEN.then_some(&mut cur_front),
            };
            program.init_into(&views[u], &mut MsgSink::new(&mut scatter));
            if program.is_done() {
                done_counts[l] += 1;
            }
        }
    }

    let mut round = 0usize;
    loop {
        // Lane finalization first — the done-check of each lane's own loop:
        // a fully done lane completes *before* the round-limit check, and
        // its final-step traffic is dropped, never counted.
        stopped.clear();
        active.for_each(|l| {
            if done_counts[l] >= n {
                stopped.push(l);
            }
        });
        for &l in &stopped {
            pending[l].reset();
            results[l] = Some(finish_lane(
                &programs[l * n..(l + 1) * n],
                &mut stats[l],
                &mut events[l],
                config.trace,
            ));
            active.clear(l);
        }
        if !active.any() {
            break;
        }
        for &l in &stopped {
            cur.drain_lane(l, spare);
        }
        if round >= config.max_rounds {
            for l in active.ones() {
                // Pending errors are shadowed by the round limit, exactly
                // as in a solo run.  The planes are left as-is; the pool's
                // checkout `prepare` clears them for the next run.
                results[l] = Some(Err(RunError::RoundLimitExceeded {
                    limit: config.max_rounds,
                }));
            }
            break;
        }
        round += 1;

        // Commit each active lane's scattered traffic: errors first (in
        // scatter order within the lane), then stats and trace.
        stopped.clear();
        active.for_each(|l| {
            let p = &mut pending[l];
            let failure = match p.error {
                Some(PendingError::Malformed { node, port }) => {
                    Some(RunError::MalformedOutbox { node, port })
                }
                Some(PendingError::Congest { bits }) => Some(RunError::CongestViolation {
                    round,
                    bits,
                    budget: budget.expect("congest error implies a budget"),
                }),
                None => None,
            };
            if let Some(error) = failure {
                results[l] = Some(Err(error));
                stopped.push(l);
            } else {
                stats[l].record_round(p.messages, p.bits, p.max_bits, p.violations);
                if config.trace {
                    events[l].append(&mut p.events);
                }
            }
            p.reset();
        });
        for &l in &stopped {
            active.clear(l);
        }
        if !active.any() {
            break;
        }
        for &l in &stopped {
            cur.drain_lane(l, spare);
        }

        // The frontier decision is global for the batch (on the any-lane
        // mask, so one traversal serves everyone) but the recorded per-lane
        // active counts are lane-exact — identical to what each lane's solo
        // run records.  `next` is re-seeded from the eager template so
        // eager instances never leave the frontier.
        let use_sparse = if A::MESSAGE_DRIVEN {
            let use_sparse = config
                .frontier
                .use_sparse(cur_front.counts(&mut lane_active), n);
            active.for_each(|l| stats[l].record_frontier(lane_active[l], use_sparse));
            next_front.reset_to(&eager_front);
            use_sparse
        } else {
            false
        };

        // Deliver and step: one CSR walk for the whole batch.  Per node,
        // every active lane gathers (unconditionally — done nodes of live
        // lanes still drain their stripe) and steps back to back, so the
        // offsets/mirror/incident cache lines are touched once per node for
        // all W runs.  The sparse branch walks only any-lane-active nodes:
        // by the marking invariant a skipped node's slots are empty in every
        // lane, so skipping its gather is a pure no-op.
        macro_rules! gather_step {
            ($v:expr) => {{
                let v: usize = $v;
                let base = offsets[v];
                let degree = offsets[v + 1] - base;
                active.for_each(|l| {
                    if S::RECYCLES {
                        spare.extend(inbox.drain(..).map(|(_, m)| m));
                    } else {
                        inbox.clear();
                    }
                    for (p, &sender_slot) in mirror[base..base + degree].iter().enumerate() {
                        if let Some(msg) = cur.fetch(sender_slot, l, spare) {
                            inbox.push((p, msg));
                        }
                    }
                    let program = &mut programs[l * n + v];
                    if program.is_done() {
                        return;
                    }
                    let mut scatter = BatchScatter {
                        node: v,
                        base,
                        degree,
                        delivery_round: round + 1,
                        plane: &mut *next,
                        plane_offset: 0,
                        lane: l,
                        spare: &mut *spare,
                        pending: &mut pending[l],
                        incident,
                        budget,
                        enforce_congest: config.enforce_congest,
                        trace: config.trace,
                        frontier: A::MESSAGE_DRIVEN.then_some(&mut next_front),
                    };
                    program.round_into(&views[v], round, inbox, &mut MsgSink::new(&mut scatter));
                    if program.is_done() {
                        done_counts[l] += 1;
                    }
                });
            }};
        }
        if use_sparse {
            cur_front.any().for_each_one(|v| gather_step!(v));
        } else {
            for v in 0..n {
                gather_step!(v);
            }
        }

        // The current plane was fully drained by the gather pass; it
        // becomes the (empty) scatter target of the next round.  The
        // frontiers swap in lockstep with the planes.
        std::mem::swap(cur, next);
        next.reset_round();
        if A::MESSAGE_DRIVEN {
            std::mem::swap(&mut cur_front, &mut next_front);
        }
    }

    results
        .into_iter()
        .map(|r| r.expect("every lane was finalized"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{LocalView, Outbox};
    use crate::executor::Engine;
    use lma_graph::generators::{gnp_connected, ring};
    use lma_graph::weights::WeightStrategy;

    /// Flood the maximum identifier, finishing after `n` quiet rounds.
    struct MaxIdFlood {
        best: u64,
        quiet_for: usize,
        done: bool,
    }

    impl NodeAlgorithm for MaxIdFlood {
        type Msg = u64;
        type Output = u64;

        fn init(&mut self, view: &LocalView) -> Outbox<u64> {
            self.best = view.id;
            (0..view.degree()).map(|p| (p, self.best)).collect()
        }

        fn round(&mut self, view: &LocalView, _round: usize, inbox: &[(Port, u64)]) -> Outbox<u64> {
            let before = self.best;
            for (_, id) in inbox {
                self.best = self.best.max(*id);
            }
            if self.best == before {
                self.quiet_for += 1;
            } else {
                self.quiet_for = 0;
            }
            if self.quiet_for >= view.n {
                self.done = true;
                return Vec::new();
            }
            (0..view.degree()).map(|p| (p, self.best)).collect()
        }

        fn is_done(&self) -> bool {
            self.done
        }

        fn output(&self) -> Option<u64> {
            self.done.then_some(self.best)
        }
    }

    fn flood_fleet(n: usize) -> Vec<MaxIdFlood> {
        (0..n)
            .map(|_| MaxIdFlood {
                best: 0,
                quiet_for: 0,
                done: false,
            })
            .collect()
    }

    fn assert_lanes_match_sequential(graph: &WeightedGraph, sim: Sim<'_>, lanes: usize) {
        let n = graph.node_count();
        let batched = sim
            .batch(lanes)
            .run((0..lanes).map(|_| flood_fleet(n)).collect())
            .unwrap();
        let solo = sim.run(flood_fleet(n)).unwrap();
        let oracle = sim.executor(Engine::Reference).run(flood_fleet(n)).unwrap();
        for (l, lane) in batched.iter().enumerate() {
            let lane = lane.as_ref().expect("flood lanes succeed");
            for (what, expected) in [("solo", &solo), ("push", &oracle)] {
                assert_eq!(lane.outputs, expected.outputs, "lane {l} outputs vs {what}");
                assert_eq!(lane.stats, expected.stats, "lane {l} stats vs {what}");
                assert_eq!(lane.trace, expected.trace, "lane {l} trace vs {what}");
            }
        }
    }

    #[test]
    fn batched_flood_is_bit_identical_to_sequential_per_lane() {
        let g = ring(13, WeightStrategy::DistinctRandom { seed: 5 });
        let sim = Sim::on(&g).trace(true);
        for lanes in [1usize, 2, 8] {
            assert_lanes_match_sequential(&g, sim, lanes);
        }
    }

    #[test]
    fn batched_arena_backing_matches_too() {
        let g = gnp_connected(20, 0.2, 3, WeightStrategy::DistinctRandom { seed: 8 });
        let sim = Sim::on(&g).trace(true).backing(Backing::Arena);
        assert_lanes_match_sequential(&g, sim, 3);
    }

    #[test]
    fn sharded_batch_matches_sequential_lane_for_lane() {
        let g = gnp_connected(24, 0.15, 11, WeightStrategy::DistinctRandom { seed: 4 });
        for backing in Backing::ALL {
            let sim = Sim::on(&g).trace(true).backing(backing).threads(3);
            assert_lanes_match_sequential(&g, sim, 5);
        }
    }

    /// A flood program that, when rogue, also sends through a port it does
    /// not have — the per-lane malformed-outbox path.
    struct MaybeRogue {
        flood: MaxIdFlood,
        rogue: bool,
    }

    impl NodeAlgorithm for MaybeRogue {
        type Msg = u64;
        type Output = u64;

        fn init(&mut self, view: &LocalView) -> Outbox<u64> {
            let mut out = self.flood.init(view);
            if self.rogue {
                out.push((view.degree(), 99));
            }
            out
        }

        fn round(&mut self, view: &LocalView, round: usize, inbox: &[(Port, u64)]) -> Outbox<u64> {
            self.flood.round(view, round, inbox)
        }

        fn is_done(&self) -> bool {
            self.flood.is_done()
        }

        fn output(&self) -> Option<u64> {
            self.flood.output()
        }
    }

    fn rogue_fleet(n: usize, rogue: bool) -> Vec<MaybeRogue> {
        flood_fleet(n)
            .into_iter()
            .map(|flood| MaybeRogue { flood, rogue })
            .collect()
    }

    #[test]
    fn failing_lane_reports_its_own_error_and_the_others_complete() {
        let g = ring(10, WeightStrategy::DistinctRandom { seed: 2 });
        for threads in [0usize, 3] {
            let sim = Sim::on(&g).threads(threads);
            let good = sim.run(rogue_fleet(10, false)).unwrap();
            let bad = sim.run(rogue_fleet(10, true)).unwrap_err();
            let results = sim
                .batch(3)
                .run(vec![
                    rogue_fleet(10, false),
                    rogue_fleet(10, true),
                    rogue_fleet(10, false),
                ])
                .unwrap();
            assert_eq!(
                results[1].as_ref().unwrap_err(),
                &bad,
                "threads={threads}: the rogue lane fails exactly like its solo run"
            );
            for l in [0usize, 2] {
                let lane = results[l].as_ref().unwrap();
                assert_eq!(lane.outputs, good.outputs, "threads={threads} lane {l}");
                assert_eq!(lane.stats, good.stats, "threads={threads} lane {l}");
            }
        }
    }

    #[test]
    fn zero_lanes_is_an_empty_batch() {
        let g = ring(4, WeightStrategy::Unit);
        let results = Sim::on(&g).batch(0).run(Vec::<Vec<MaxIdFlood>>::new());
        assert!(results.unwrap().is_empty());
    }

    #[test]
    fn wrong_fleet_count_is_a_shape_error() {
        let g = ring(4, WeightStrategy::Unit);
        let err = Sim::on(&g).batch(3).run(vec![flood_fleet(4)]).unwrap_err();
        assert_eq!(
            err,
            BatchShapeError {
                expected: 3,
                got: 1
            }
        );
        assert!(err.to_string().contains("3 lanes"));
    }

    #[test]
    fn round_limit_fails_every_unfinished_lane() {
        let g = ring(9, WeightStrategy::Unit);
        let sim = Sim::on(&g).round_limit(2);
        let results = sim
            .batch(2)
            .run(vec![flood_fleet(9), flood_fleet(9)])
            .unwrap();
        for lane in results {
            assert_eq!(lane.unwrap_err(), RunError::RoundLimitExceeded { limit: 2 });
        }
    }
}

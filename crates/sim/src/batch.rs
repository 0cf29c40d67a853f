//! The plane kernel: the round body and the commit order both plane
//! engines run, and the one-thread engine built from them.
//!
//! A round of the model is gather → step → scatter at every node, then a
//! commit.  Each half is written once:
//!
//! * `Shard` is one contiguous node range: its programs, its plane pair
//!   and buffers (a [`pool`] set over the range's slots), the traffic it has
//!   scattered for the next round, its done delta and its frontier marks.
//!   `Shard::init` and `Shard::visit` are the only per-node code: a visited
//!   node gathers by pulling from the mirror slot of each of its ports —
//!   delivery order is port-ascending by construction — steps its program,
//!   and scatters what the program sends straight into the next round's
//!   plane through `BatchScatter`.
//! * `Ledger` is what a run accumulates across rounds (rounds, done count,
//!   stats, trace, frontier, dense↔sparse decision), and `Ledger::commit`
//!   is the only copy of the order a round commits in.
//!
//! The one-thread engine ([`Sim::run`] unless it shards) is one whole-graph
//! shard whose plane pair, gather buffer and spare pool come from the
//! per-thread [`pool`], so back-to-back runs allocate nothing after the
//! first; it commits inline after every step.  The shard-parallel engine
//! (`batch_sharded`) steps one shard per worker thread and commits the
//! shards' merged reports through the same ledger.
//!
//! Programs that opt into [`NodeAlgorithm::MESSAGE_DRIVEN`] get the sparse
//! frontier (see [`crate::frontier`]): scatters mark their destinations,
//! and a round whose frontier is small visits only the marked nodes.
//!
//! [`Sim::batch`] is a loop of solo runs: a [`BatchSim`] is a sim plus a
//! width, and [`Workload::execute_batch`](crate::Workload::execute_batch)
//! runs one [`Sim::run`] per prep.

use crate::algorithm::{local_views, LocalView, MsgSink, NodeAlgorithm, SendSlot};
use crate::driver::Sim;
use crate::frontier::WordMerge;
use crate::message::BitSized;
use crate::plane::{ArenaPlane, Backing, MessagePlane, PlaneStore, SlotOccupied};
use crate::pool;
use crate::runtime::{PendingRound, RunConfig, RunError, RunResult};
use crate::stats::RunStats;
use crate::trace::{order_sender_groups, TraceEvent};
use lma_graph::{IncidentEdge, Port, WeightedGraph};
use std::ops::Range;

/// A [`Sim`] plus a width `W`: the shape of `W` solo runs of one workload
/// on one graph.  Built with [`Sim::batch`];
/// [`Workload::execute_batch`](crate::Workload::execute_batch) runs it as a
/// loop of [`Sim::run`] calls, one per prep.
#[derive(Debug, Clone, Copy)]
pub struct BatchSim<'g> {
    sim: Sim<'g>,
    lanes: usize,
}

impl<'g> BatchSim<'g> {
    /// The underlying simulation (graph + every run knob).
    #[must_use]
    pub fn sim(&self) -> &Sim<'g> {
        &self.sim
    }

    /// The width `W`.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }
}

impl<'g> Sim<'g> {
    /// Pairs this simulation with a width of `lanes` solo runs (see
    /// [`BatchSim`]).
    #[must_use]
    pub fn batch(self, lanes: usize) -> BatchSim<'g> {
        BatchSim { sim: self, lanes }
    }
}

/// The live scatter path behind every [`MsgSink`](crate::MsgSink) a shard
/// hands to node programs: validates each sent message, stores it into its
/// slot of the plane, and accumulates the accounting for the round the
/// messages will be delivered in (`delivery_round`).  Constructed fresh per
/// node per step (it is only borrows).
///
/// `plane` covers only the shard's contiguous slot range: `plane_offset` is
/// the global index of the plane's slot 0 (0 for the one-thread engine's
/// whole-graph shard).
///
/// Error semantics match the historical outbox validation exactly: the
/// first fatal event wins (in send order within a node, in node order
/// across nodes), later sends are ignored, and the error surfaces when the
/// offending message would have been *delivered* (see `PendingRound`).
pub(crate) struct BatchScatter<'a, M, S: PlaneStore<M>> {
    pub node: usize,
    /// First slot of `node` in the global slot space (`offsets[node]`).
    pub base: usize,
    pub degree: usize,
    pub delivery_round: usize,
    pub plane: &'a mut S,
    pub plane_offset: usize,
    pub spare: &'a mut Vec<M>,
    pub pending: &'a mut PendingRound,
    pub incident: &'a [IncidentEdge],
    pub budget: Option<usize>,
    pub enforce_congest: bool,
    pub trace: bool,
    /// Frontier marking target: `Some` only for programs that opted into
    /// sparse frontier execution ([`crate::NodeAlgorithm::MESSAGE_DRIVEN`]),
    /// in which case every successfully stored message marks its
    /// destination node (the `IncidentEdge` target of the slot) for the
    /// round the message will be delivered in.
    pub frontier: Option<&'a mut WordMerge>,
}

impl<M: BitSized, S: PlaneStore<M>> BatchScatter<'_, M, S> {
    /// Pre-store validation; returns the message's global slot when the
    /// send should proceed.
    fn accept(&mut self, port: Port) -> Option<usize> {
        if self.pending.error.is_some() {
            return None;
        }
        if port >= self.degree {
            self.pending.error = Some(RunError::MalformedOutbox {
                node: self.node,
                port,
            });
            return None;
        }
        Some(self.base + port)
    }

    /// Maps a store rejection (in the plane's slot space) back to the
    /// duplicated port — never a silent drop.
    fn reject(&mut self, occupied: SlotOccupied) {
        self.pending.error = Some(RunError::MalformedOutbox {
            node: self.node,
            port: occupied.slot + self.plane_offset - self.base,
        });
    }

    /// Post-store accounting: frontier mark, stats, CONGEST audit, trace.
    fn account(&mut self, slot: usize, size: usize) {
        if let Some(front) = self.frontier.as_deref_mut() {
            front.mark(self.incident[slot].neighbor);
        }
        self.pending.messages += 1;
        self.pending.bits += size as u64;
        self.pending.max_bits = self.pending.max_bits.max(size);
        if let Some(b) = self.budget {
            if size > b {
                if self.enforce_congest {
                    self.pending.error = Some(RunError::CongestViolation {
                        round: self.delivery_round,
                        bits: size,
                        budget: b,
                    });
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
        match self.plane.store(slot - self.plane_offset, msg, self.spare) {
            Ok(()) => self.account(slot, size),
            Err(occupied) => self.reject(occupied),
        }
    }

    fn send_ref(&mut self, port: Port, msg: &M) {
        let Some(slot) = self.accept(port) else {
            return;
        };
        let size = msg.bit_size();
        match self.plane.store_ref(slot - self.plane_offset, msg) {
            Ok(()) => self.account(slot, size),
            Err(occupied) => self.reject(occupied),
        }
    }
}

/// One contiguous node range of a run and everything it steps with (see
/// the [module docs](self)).  Its plane pair covers exactly the range's
/// slots; a gathered sender slot outside them belongs to another shard and
/// is read through the caller's `remote` source.
pub(crate) struct Shard<'g, A: NodeAlgorithm, S: PlaneStore<A::Msg>> {
    offsets: &'g [usize],
    mirror: &'g [usize],
    incident: &'g [IncidentEdge],
    views: &'g [LocalView],
    budget: Option<usize>,
    enforce_congest: bool,
    trace: bool,
    /// The shard's nodes; `programs[i]` is node `nodes.start + i`'s.
    nodes: Range<usize>,
    /// The shard's slots, the plane pair's slot space.
    slots: Range<usize>,
    pub(crate) programs: Vec<A>,
    /// `cur` is gathered from, `next` scattered into.
    pub(crate) set: pool::BatchSet<A::Msg, S>,
    /// The traffic scattered for the next round, not yet committed.
    pub(crate) pending: PendingRound,
    /// Programs that finished since the last commit.
    pub(crate) done_delta: usize,
    /// The shard's instances that are not message-driven: the template the
    /// marks reset to, so eager instances never leave the frontier.
    pub(crate) eager: WordMerge,
    /// Scatter marks for the next round over all `n` nodes (remote
    /// destinations too), on top of `eager`.  Both stay empty unless the
    /// program opts into `MESSAGE_DRIVEN`.
    pub(crate) marks: WordMerge,
}

impl<'g, A: NodeAlgorithm, S: PlaneStore<A::Msg>> Shard<'g, A, S> {
    /// The shard over `nodes` (whose slots are `slots`) of a run of
    /// `programs` — one per node of the range — on `graph`, stepping on the
    /// planes and buffers of `set`.
    pub(crate) fn new(
        graph: &'g WeightedGraph,
        views: &'g [LocalView],
        config: RunConfig,
        nodes: Range<usize>,
        slots: Range<usize>,
        programs: Vec<A>,
        set: pool::BatchSet<A::Msg, S>,
    ) -> Self {
        let csr = graph.csr();
        let mut eager = WordMerge::default();
        if A::MESSAGE_DRIVEN {
            eager = WordMerge::for_nodes(graph.node_count());
            for (v, program) in nodes.clone().zip(&programs) {
                if !program.message_driven() {
                    eager.mark(v);
                }
            }
        }
        Self {
            offsets: csr.offsets(),
            mirror: csr.mirror_table(),
            incident: csr.incident_flat(),
            views,
            budget: config.model.budget(),
            enforce_congest: config.enforce_congest,
            trace: config.trace,
            nodes,
            slots,
            programs,
            set,
            pending: PendingRound::default(),
            done_delta: 0,
            marks: eager.clone(),
            eager,
        }
    }

    /// Round 0: every node's local computation, scattering round-1 traffic.
    pub(crate) fn init(&mut self) {
        for v in self.nodes.clone() {
            self.step(v, 1, |program, view, _, out| program.init_into(view, out));
        }
    }

    /// Node `v`'s part of round `round`.  It gathers in port order — a
    /// sender slot in the shard from its plane, any other through `remote`
    /// — and moves (inline) or decodes into a recycled value (arena) each
    /// message out of its slot.  Gathering is unconditional, so done nodes
    /// still drain their slots and the plane is empty when the planes swap;
    /// then, unless it is done, the node's program steps on the inbox.
    #[inline]
    pub(crate) fn visit(
        &mut self,
        v: usize,
        round: usize,
        remote: &mut impl FnMut(usize, &mut Vec<A::Msg>) -> Option<A::Msg>,
    ) {
        let pool::BatchSet {
            cur, inbox, spare, ..
        } = &mut self.set;
        if S::RECYCLES {
            spare.extend(inbox.drain(..).map(|(_, m)| m));
        } else {
            inbox.clear();
        }
        for (p, &sender) in self.mirror[self.offsets[v]..self.offsets[v + 1]]
            .iter()
            .enumerate()
        {
            let msg = if self.slots.contains(&sender) {
                cur.fetch(sender - self.slots.start, spare)
            } else {
                remote(sender, spare)
            };
            if let Some(msg) = msg {
                inbox.push((p, msg));
            }
        }
        if !self.programs[v - self.nodes.start].is_done() {
            self.step(v, round + 1, |program, view, inbox, out| {
                program.round_into(view, round, inbox, out);
            });
        }
    }

    /// Runs `program_step` on node `v`'s program and view, the gathered
    /// inbox and a sink scattering into the next plane for
    /// `delivery_round`, and counts the program if that finished it.
    #[inline]
    fn step(
        &mut self,
        v: usize,
        delivery_round: usize,
        program_step: impl FnOnce(&mut A, &LocalView, &[(Port, A::Msg)], &mut MsgSink<'_, A::Msg>),
    ) {
        let pool::BatchSet {
            next, inbox, spare, ..
        } = &mut self.set;
        let base = self.offsets[v];
        let mut scatter = BatchScatter {
            node: v,
            base,
            degree: self.offsets[v + 1] - base,
            delivery_round,
            plane: next,
            plane_offset: self.slots.start,
            spare,
            pending: &mut self.pending,
            incident: self.incident,
            budget: self.budget,
            enforce_congest: self.enforce_congest,
            trace: self.trace,
            frontier: A::MESSAGE_DRIVEN.then_some(&mut self.marks),
        };
        let program = &mut self.programs[v - self.nodes.start];
        program_step(
            program,
            &self.views[v],
            inbox,
            &mut MsgSink::new(&mut scatter),
        );
        if program.is_done() {
            self.done_delta += 1;
        }
    }

    /// Ends a step: the plane just scattered becomes the one the next round
    /// gathers from, and the drained one the empty scatter target.
    pub(crate) fn swap_planes(&mut self) {
        std::mem::swap(&mut self.set.cur, &mut self.set.next);
        self.set.next.reset_round();
    }
}

/// What a run accumulates across rounds, and the order each round commits
/// in (see [`Ledger::commit`]).
pub(crate) struct Ledger {
    config: RunConfig,
    n: usize,
    /// Rounds committed so far.
    round: usize,
    done: usize,
    stats: RunStats,
    events: Vec<TraceEvent>,
    /// Whether the program opted into `MESSAGE_DRIVEN`; gates all frontier
    /// work.
    track_frontier: bool,
    /// The marks of the step being committed, over all nodes: the frontier
    /// of the round it starts.
    pub(crate) frontier: WordMerge,
    /// Whether the committed round gathers only `frontier`.
    pub(crate) sparse: bool,
}

impl Ledger {
    /// The ledger of a run of `n` programs under `config`; `track_frontier`
    /// is the program's `MESSAGE_DRIVEN`.
    pub(crate) fn new(n: usize, config: RunConfig, track_frontier: bool) -> Self {
        Self {
            config,
            n,
            round: 0,
            done: 0,
            stats: RunStats::default(),
            events: Vec::new(),
            track_frontier,
            frontier: if track_frontier {
                WordMerge::for_nodes(n)
            } else {
                WordMerge::default()
            },
            sparse: false,
        }
    }

    /// Commits the step that just ended — `done_delta` more programs
    /// finished, `pending` is its traffic (reset on a clean commit) and
    /// `frontier` its marks — and returns the round to run next, `None` once
    /// every program is done, or the error that ends the run.
    ///
    /// The order is part of the run's contract: the done-check first (a
    /// fully done run completes, and its final-step traffic is dropped,
    /// never counted), then the round limit (which shadows a pending
    /// error), then the pending error (the first in node order), then stats
    /// and trace, then the dense↔sparse pick.
    pub(crate) fn commit(
        &mut self,
        pending: &mut PendingRound,
        done_delta: usize,
    ) -> Result<Option<usize>, RunError> {
        self.done += done_delta;
        if self.done >= self.n {
            return Ok(None);
        }
        if self.round >= self.config.max_rounds {
            return Err(RunError::RoundLimitExceeded {
                limit: self.config.max_rounds,
            });
        }
        self.round += 1;
        if let Some(error) = pending.error.take() {
            return Err(error);
        }
        self.stats.record_round(
            pending.messages,
            pending.bits,
            pending.max_bits,
            pending.violations,
        );
        if self.config.trace {
            self.events.append(&mut pending.events);
        }
        pending.reset();
        if self.track_frontier {
            let active = self.frontier.count();
            self.sparse = self.config.frontier.use_sparse(active, self.n);
            self.stats.record_frontier(active as u64, self.sparse);
        }
        Ok(Some(self.round))
    }

    /// The result of a completed run with these `outputs`.  The events
    /// were committed round by round, each round's in the order its senders
    /// were stepped — ascending node order, dense scan or sparse walk — so
    /// only each sender's group needs ordering by `to` (see
    /// [`crate::trace`]).
    pub(crate) fn finish<O>(mut self, outputs: Vec<Option<O>>) -> RunResult<O> {
        RunResult {
            outputs,
            stats: self.stats,
            trace: self.config.trace.then(|| {
                order_sender_groups(&mut self.events);
                self.events
            }),
        }
    }
}

/// The one-thread engine, dispatched on the configured backing.
pub(crate) fn run_batch_sequential<A: NodeAlgorithm>(
    graph: &WeightedGraph,
    config: RunConfig,
    programs: Vec<A>,
) -> Result<RunResult<A::Output>, RunError> {
    match config.backing {
        Backing::Inline => {
            run_batch_sequential_on::<MessagePlane<A::Msg>, A>(graph, config, programs)
        }
        Backing::Arena => run_batch_sequential_on::<ArenaPlane<A::Msg>, A>(graph, config, programs),
    }
}

/// One whole-graph shard, committed inline after every step: the planes
/// swap, the shard's marks swap into the ledger's frontier (and reset to
/// the eager template), and the ledger commits.  An early return leaves the
/// planes as they are; the pool's checkout clears them for the next run.
fn run_batch_sequential_on<S: PlaneStore<A::Msg>, A: NodeAlgorithm>(
    graph: &WeightedGraph,
    config: RunConfig,
    programs: Vec<A>,
) -> Result<RunResult<A::Output>, RunError> {
    let n = graph.node_count();
    assert_eq!(programs.len(), n, "one program per node is required");
    let views = local_views(graph);
    let slots = graph.csr().slot_count();
    // All steady-state storage comes from the per-thread pool: allocated
    // at most once, then reused by every later run on this thread.
    let set = pool::checkout_batch::<A::Msg, S>(slots);
    let mut shard = Shard::new(graph, &views, config, 0..n, 0..slots, programs, set);
    let mut ledger = Ledger::new(n, config, A::MESSAGE_DRIVEN);
    shard.init();
    let verdict = loop {
        shard.swap_planes();
        if A::MESSAGE_DRIVEN {
            std::mem::swap(&mut shard.marks, &mut ledger.frontier);
            shard.marks.reset_to(&shard.eager);
        }
        let round = match ledger.commit(&mut shard.pending, std::mem::take(&mut shard.done_delta)) {
            Ok(Some(round)) => round,
            end => break end,
        };
        // The whole-graph shard owns every slot: nothing is remote.  The
        // sparse walk skips only nodes whose slots are empty by the marking
        // invariant, so skipping them is a pure no-op; testing
        // `MESSAGE_DRIVEN` first compiles it away for other programs, which
        // keeps `visit` inlined into one loop.
        let visit = |v| shard.visit(v, round, &mut |_, _| None);
        if A::MESSAGE_DRIVEN && ledger.sparse {
            ledger.frontier.for_each_one(visit);
        } else {
            (0..n).for_each(visit);
        }
    };
    let Shard { programs, set, .. } = shard;
    pool::give_back_batch(set);
    verdict?;
    let outputs = programs.iter().map(NodeAlgorithm::output).collect();
    Ok(ledger.finish(outputs))
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

    fn assert_matches_push(sim: Sim<'_>, n: usize) {
        let got = sim.run(flood_fleet(n)).unwrap();
        let oracle = sim.executor(Engine::Reference).run(flood_fleet(n)).unwrap();
        assert_eq!(got.outputs, oracle.outputs, "outputs vs push");
        assert_eq!(got.stats, oracle.stats, "stats vs push");
        assert_eq!(got.trace, oracle.trace, "trace vs push");
    }

    #[test]
    fn flood_is_bit_identical_to_the_push_oracle() {
        let g = ring(13, WeightStrategy::DistinctRandom { seed: 5 });
        assert_matches_push(Sim::on(&g).trace(true), 13);
    }

    #[test]
    fn arena_backing_matches_too() {
        let g = gnp_connected(20, 0.2, 3, WeightStrategy::DistinctRandom { seed: 8 });
        assert_matches_push(Sim::on(&g).trace(true).backing(Backing::Arena), 20);
    }

    #[test]
    fn sharded_run_matches_the_push_oracle() {
        let g = gnp_connected(24, 0.15, 11, WeightStrategy::DistinctRandom { seed: 4 });
        for backing in Backing::ALL {
            assert_matches_push(Sim::on(&g).trace(true).backing(backing).threads(3), 24);
        }
    }

    /// A flood program that, when rogue, also sends through a port it does
    /// not have — the malformed-outbox path.
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
    fn malformed_outbox_fails_the_run_on_every_engine() {
        let g = ring(10, WeightStrategy::DistinctRandom { seed: 2 });
        let bad = Sim::on(&g)
            .executor(Engine::Reference)
            .run(rogue_fleet(10, true))
            .unwrap_err();
        assert!(matches!(bad, RunError::MalformedOutbox { .. }));
        for threads in [0usize, 3] {
            let sim = Sim::on(&g).threads(threads);
            assert_eq!(
                sim.run(rogue_fleet(10, true)).unwrap_err(),
                bad,
                "threads={threads}"
            );
            let good = sim.run(rogue_fleet(10, false)).unwrap();
            assert!(
                good.outputs.iter().all(Option::is_some),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn round_limit_fails_an_unfinished_run() {
        let g = ring(9, WeightStrategy::Unit);
        for threads in [0usize, 3] {
            let sim = Sim::on(&g).round_limit(2).threads(threads);
            assert_eq!(
                sim.run(flood_fleet(9)).unwrap_err(),
                RunError::RoundLimitExceeded { limit: 2 }
            );
        }
    }

    /// A flood whose node 0 panics in round 2, while every other node of
    /// its shard still has undelivered mail.
    struct Bomb(MaxIdFlood);

    impl NodeAlgorithm for Bomb {
        type Msg = u64;
        type Output = u64;

        fn init(&mut self, view: &LocalView) -> Outbox<u64> {
            self.0.init(view)
        }

        fn round(&mut self, view: &LocalView, round: usize, inbox: &[(Port, u64)]) -> Outbox<u64> {
            if view.node == 0 && round == 2 {
                panic!("boom");
            }
            self.0.round(view, round, inbox)
        }

        fn is_done(&self) -> bool {
            self.0.is_done()
        }

        fn output(&self) -> Option<u64> {
            self.0.output()
        }
    }

    #[test]
    fn a_program_panic_reaches_the_caller_on_every_engine() {
        let g = ring(12, WeightStrategy::DistinctRandom { seed: 6 });
        for backing in Backing::ALL {
            for threads in [1, 3] {
                let sim = Sim::on(&g).backing(backing).threads(threads);
                let fleet = flood_fleet(12).into_iter().map(Bomb).collect();
                let payload = std::panic::catch_unwind(|| sim.run(fleet))
                    .expect_err("the program panic must reach the caller");
                assert_eq!(
                    payload.downcast_ref::<&str>(),
                    Some(&"boom"),
                    "{backing} threads={threads}"
                );
            }
        }
    }
}

//! The plane kernel on one thread: every ordinary run, and the shared
//! scatter path of both plane engines.
//!
//! [`Sim::run`] lands here when it runs on the calling thread (and on the
//! shard-parallel `batch_sharded` loop with two or more threads).  Each
//! round the loop walks the CSR once: every node gathers its traffic by
//! pulling from the mirror slot of each of its ports — delivery order is
//! port-ascending by construction — steps its program, and scatters what
//! the program sends straight into the next round's plane through
//! `BatchScatter`.  The plane pair, the gather buffer and the spare pool
//! come from the per-thread [`pool`], so back-to-back runs allocate nothing
//! after the first.
//!
//! Programs that opt into [`NodeAlgorithm::MESSAGE_DRIVEN`] get the sparse
//! frontier (see [`crate::frontier`]): scatters mark their destinations,
//! and a round whose frontier is small gathers only the marked nodes.
//!
//! [`Sim::batch`] is a loop of solo runs: a [`BatchSim`] is a sim plus a
//! width, and [`Workload::execute_batch`](crate::Workload::execute_batch)
//! runs one [`Sim::run`] per prep.

use crate::algorithm::{local_views, MsgSink, NodeAlgorithm, SendSlot};
use crate::driver::Sim;
use crate::frontier::WordMerge;
use crate::message::BitSized;
use crate::plane::{ArenaPlane, Backing, MessagePlane, PlaneStore, SlotOccupied};
use crate::pool;
use crate::runtime::{PendingError, PendingRound, RunConfig, RunError, RunResult};
use crate::stats::RunStats;
use crate::trace::{order_sender_groups, TraceEvent};
use lma_graph::{IncidentEdge, Port, WeightedGraph};

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

/// The live scatter path behind every [`MsgSink`](crate::MsgSink) the plane
/// engines hand to node programs: validates each sent message, stores it
/// into its slot of the plane, and accumulates the accounting for the round
/// the messages will be delivered in (`delivery_round`).  Constructed fresh
/// per node per round (it is only borrows).
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
            self.pending.error = Some(PendingError::Malformed {
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
        self.pending.error = Some(PendingError::Malformed {
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

/// The run's error for a committed pending error in round `round`.
pub(crate) fn commit_error(error: PendingError, round: usize, budget: Option<usize>) -> RunError {
    match error {
        PendingError::Malformed { node, port } => RunError::MalformedOutbox { node, port },
        PendingError::Congest { bits } => RunError::CongestViolation {
            round,
            bits,
            budget: budget.expect("congest error implies a budget"),
        },
    }
}

/// The finished result of a run: its outputs, stats and trace.  The events
/// were committed round by round, each round's in the order its senders
/// were stepped — ascending node order, dense scan or sparse walk — so only
/// each sender's group needs ordering by `to` (see [`crate::trace`]).
pub(crate) fn finish<O>(
    outputs: Vec<Option<O>>,
    stats: RunStats,
    mut events: Vec<TraceEvent>,
    trace: bool,
) -> RunResult<O> {
    RunResult {
        outputs,
        stats,
        trace: trace.then(|| {
            order_sender_groups(&mut events);
            events
        }),
    }
}

/// The one-thread loop, dispatched on the configured backing.
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

fn run_batch_sequential_on<S: PlaneStore<A::Msg>, A: NodeAlgorithm>(
    graph: &WeightedGraph,
    config: RunConfig,
    programs: Vec<A>,
) -> Result<RunResult<A::Output>, RunError> {
    // All steady-state storage comes from the per-thread pool: allocated
    // at most once, then reused by every later run on this thread.
    let mut set = pool::checkout_batch::<A::Msg, S>(graph.csr().slot_count());
    let result = batch_loop(graph, config, &mut set, programs);
    pool::give_back_batch(set);
    result
}

/// The core round loop.
///
/// Per round: the done-check (a fully done run completes *before* the
/// round-limit check, and its final-step traffic is dropped, never
/// counted), the round-limit check, the commit of the scattered traffic
/// (errors first, then stats and trace), the dense↔sparse pick, then
/// deliver and step.  Each message is *moved* (inline) or decoded into a
/// recycled value (arena) out of the sender's slot.  Gathering is
/// unconditional, so done nodes still drain their slots and the plane is
/// empty when the buffers swap; an early return leaves the planes as they
/// are, and the pool's checkout clears them for the next run.
fn batch_loop<S: PlaneStore<A::Msg>, A: NodeAlgorithm>(
    graph: &WeightedGraph,
    config: RunConfig,
    set: &mut pool::BatchSet<A::Msg, S>,
    mut programs: Vec<A>,
) -> Result<RunResult<A::Output>, RunError> {
    let n = graph.node_count();
    assert_eq!(programs.len(), n, "one program per node is required");
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
    let mut pending = PendingRound::default();
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut stats = RunStats::default();
    let mut done_count = 0usize;

    // Sparse frontier state (see `crate::frontier`): `cur_front` holds the
    // nodes active in the round being gathered, `next_front` collects
    // scatter marks for the round after, and `eager_front` is the constant
    // template of instances that are not message-driven, which re-seeds
    // `next_front` each round.  Compiled away unless the program opts in via
    // `MESSAGE_DRIVEN` (an associated const).
    let mut cur_front = WordMerge::default();
    let mut next_front = WordMerge::default();
    let mut eager_front = WordMerge::default();
    if A::MESSAGE_DRIVEN {
        eager_front = WordMerge::for_nodes(n);
        for (v, program) in programs.iter().enumerate() {
            if !program.message_driven() {
                eager_front.mark(v);
            }
        }
        cur_front = eager_front.clone();
        next_front = WordMerge::for_nodes(n);
    }

    // Initialization: round-0 local computation producing round-1 traffic,
    // emitted straight into the plane (marking the round-1 frontier).
    for (u, program) in programs.iter_mut().enumerate() {
        let mut scatter = BatchScatter {
            node: u,
            base: offsets[u],
            degree: offsets[u + 1] - offsets[u],
            delivery_round: 1,
            plane: &mut *cur,
            plane_offset: 0,
            spare: &mut *spare,
            pending: &mut pending,
            incident,
            budget,
            enforce_congest: config.enforce_congest,
            trace: config.trace,
            frontier: A::MESSAGE_DRIVEN.then_some(&mut cur_front),
        };
        program.init_into(&views[u], &mut MsgSink::new(&mut scatter));
        if program.is_done() {
            done_count += 1;
        }
    }

    let mut round = 0usize;
    while done_count < n {
        if round >= config.max_rounds {
            // Pending errors are shadowed by the round limit.
            return Err(RunError::RoundLimitExceeded {
                limit: config.max_rounds,
            });
        }
        round += 1;

        // Commit the scattered traffic: errors first, then stats and trace.
        if let Some(error) = pending.error {
            return Err(commit_error(error, round, budget));
        }
        stats.record_round(
            pending.messages,
            pending.bits,
            pending.max_bits,
            pending.violations,
        );
        if config.trace {
            events.append(&mut pending.events);
        }
        pending.reset();

        // `next` is re-seeded from the eager template so eager instances
        // never leave the frontier.
        let use_sparse = if A::MESSAGE_DRIVEN {
            let active = cur_front.count();
            let use_sparse = config.frontier.use_sparse(active, n);
            stats.record_frontier(active as u64, use_sparse);
            next_front.reset_to(&eager_front);
            use_sparse
        } else {
            false
        };

        // Deliver and step.  Every visited node gathers (unconditionally —
        // done nodes still drain their slots).  The sparse branch walks
        // only frontier nodes: by the marking invariant a skipped node's
        // slots are empty, so skipping its gather is a pure no-op.
        let gather_step = |v: usize| {
            let base = offsets[v];
            let degree = offsets[v + 1] - base;
            if S::RECYCLES {
                spare.extend(inbox.drain(..).map(|(_, m)| m));
            } else {
                inbox.clear();
            }
            for (p, &sender_slot) in mirror[base..base + degree].iter().enumerate() {
                if let Some(msg) = cur.fetch(sender_slot, spare) {
                    inbox.push((p, msg));
                }
            }
            let program = &mut programs[v];
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
                spare: &mut *spare,
                pending: &mut pending,
                incident,
                budget,
                enforce_congest: config.enforce_congest,
                trace: config.trace,
                frontier: A::MESSAGE_DRIVEN.then_some(&mut next_front),
            };
            program.round_into(&views[v], round, inbox, &mut MsgSink::new(&mut scatter));
            if program.is_done() {
                done_count += 1;
            }
        };
        if use_sparse {
            cur_front.for_each_one(gather_step);
        } else {
            (0..n).for_each(gather_step);
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

    let outputs = programs.iter().map(NodeAlgorithm::output).collect();
    Ok(finish(outputs, stats, events, config.trace))
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
}

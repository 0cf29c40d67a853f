//! The shard-parallel plane engine: every run with two or more threads
//! lands here.
//!
//! **Shards.**  The graph's nodes are split into contiguous, slot-balanced
//! shards by [`lma_graph::Partition`].  Each shard is a kernel `Shard` (see
//! [`crate::batch`]), built on the calling thread and moved into one scoped
//! worker thread, which steps it and hands it back at join: it owns the
//! shard's programs and a **private** pair of double-buffered planes
//! covering only the shard's contiguous slot range, so the scatter and
//! gather of different shards touch disjoint memory by construction — there
//! is no shared mutable plane and no unsafe code.
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
//! next round the receiving worker takes the buffer whole, and its shard
//! gathers every out-of-shard sender slot from it by the partition's
//! precomputed cross-reference positions.  Parity alternation makes each
//! buffer a single-producer / single-consumer hand-off separated by a
//! barrier, so its `Mutex` is never contended.
//!
//! **Cache hygiene.**  Exchange buffers and per-shard report slots are
//! wrapped in `CachePadded` (64-byte aligned), so adjacent shards' hot
//! `Mutex` words never share a cache line.  The buffers are created
//! *empty* on the caller thread; each worker allocates and first-touches
//! its own outgoing buffers (both parities) before its first publish, so a
//! buffer's pages are faulted in by the thread that writes it every round.
//! This is race-free: a producer only writes its own `(s, t)` buffers and
//! every consumer first reads after the first barrier.  A shard's plane set
//! (plane pair, gather buffer, spare pool) is instead checked out of the
//! calling thread's [`pool`](crate::pool) and returned at join, also after
//! a caught program panic, so the workers of a warm run fault in no plane
//! pages.  A pooled set's pages were first touched by the first run on the
//! calling thread that needed the set: the inline slots on the calling
//! thread at checkout, zeroed tables and the buffers that grow (gather
//! buffer, spare pool, arena bytes) by that run's worker for the shard.
//!
//! **One barrier arrival per round.**  Every worker publishes its report
//! and arrives at the crate's `RoundBarrier`; the **last** to arrive runs
//! the leader's merge (`coordinate`) before it releases the others.  The
//! merge folds the reports **in shard order** — sums and maxima for the
//! stats, the first pending error in node order, trace events and frontier
//! words in shard order — and ends in `Ledger::commit`, the commit the
//! one-thread engine runs, so outputs, stats, traces and errors are
//! bit-identical to it.  An early arriver spins on the barrier's generation
//! word for a bounded number of iterations and then parks, so a quiet round
//! pays one atomic arrival instead of two futex round-trips.  Steady-state
//! rounds allocate nothing: reports and the leader's merge buffer are
//! reused, and so, across runs, are the shard sets.
//!
//! **Frontier hand-off** (programs that opt into
//! [`NodeAlgorithm::MESSAGE_DRIVEN`]).  A shard's scatters mark their
//! destinations — remote ones too — in its full-size marks, which start
//! each round as the shard's eager instances.  The worker publishes only
//! the non-zero mark words as `(word index, word)` pairs and resets just
//! those words; the leader ORs them into the ledger's frontier, whose count
//! drives the dense↔sparse decision.  On a sparse round each worker copies
//! back only the merged words over its own node range, so the hand-off
//! grows with the number of marked words, not with `n / 64`.
//!
//! Measured on a 2-core host (`sim-sparse` benchmark, wave on ring/16384,
//! 8192 rounds of a 2–4-node frontier, two traced runs per side): 14.6–17.8
//! µs per round with two waits at the standard barrier and full-`n`
//! frontier words, 3.4–3.9 µs with the single arrival and the pair
//! hand-off (2.0–3.2 µs in three later traced runs); one thread takes
//! 0.25–0.5 µs per round on the same run.
//!
//! A panic inside a node program is caught by the owning worker, reported
//! through its report slot, and re-raised on the calling thread with the
//! original payload — exactly the observable behavior of the one-thread
//! engine — and the other workers shut down cleanly instead of deadlocking
//! at the barrier.

use crate::algorithm::{LocalView, NodeAlgorithm};
use crate::barrier::RoundBarrier;
use crate::batch::{run_batch_sequential, Ledger, Shard};
use crate::frontier::{pair_ones, WordPair};
use crate::plane::{ArenaPlane, Backing, MessagePlane, PlaneStore};
use crate::pool::{self, BatchSet};
use crate::runtime::{PendingRound, RunConfig, RunError, RunResult};
use lma_graph::{Partition, WeightedGraph};
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

/// One shard's report for the round about to be committed.
#[derive(Default)]
struct ShardReport {
    /// The shard's traffic for the round.
    pending: PendingRound,
    /// Programs of the shard that finished during the last step.
    done_delta: usize,
    /// The shard's non-zero mark words (its eager instances included).
    /// Empty unless the program opts into `MESSAGE_DRIVEN`.
    frontier: Vec<WordPair>,
    /// A program panic aborts the whole run, exactly as it would have
    /// unwound out of the one-thread engine.
    panic: Option<Panic>,
}

/// Leader-owned run state, read by the caller after the scope joins.
struct Control {
    /// The run's ledger; its frontier is the merge of the reports' mark
    /// words, and on a sparse round each worker copies the words over its
    /// node range.
    ledger: Ledger,
    /// The shard-order merge of the reports (reused every round).
    merged: PendingRound,
    /// The last commit's verdict, which every worker reads after the
    /// barrier: `Ok(Some(round))` runs round `round`, anything else stops.
    verdict: Result<Option<usize>, RunError>,
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
    views: &[LocalView<'_>],
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
    views: &[LocalView<'_>],
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

    // Split the programs into the shards' contiguous node ranges, each
    // shard stepping on a plane set from this thread's pool (the drained
    // vector is freed here, before the workers start).  The sets go back to
    // the pool at join, so back-to-back runs on this thread reuse them.
    let shards: Vec<Shard<'_, A, S>> = {
        let sets = pool::checkout_shard_batches::<A::Msg, S>(
            (0..k).map(|s| partition.slot_range(s).len()),
        );
        let mut drain = programs.into_iter();
        sets.into_iter()
            .enumerate()
            .map(|(s, set)| {
                let nodes = partition.node_range(s);
                let programs = drain.by_ref().take(nodes.len()).collect();
                let slots = partition.slot_range(s);
                Shard::new(graph, views, config, nodes, slots, programs, set)
            })
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
            ledger: Ledger::new(n, config, A::MESSAGE_DRIVEN),
            merged: PendingRound::default(),
            verdict: Ok(None),
            panic: None,
        }),
    };

    let mut shard_programs: Vec<Vec<A>> = Vec::with_capacity(k);
    let mut sets: Vec<BatchSet<A::Msg, S>> = Vec::with_capacity(k);
    std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .into_iter()
            .enumerate()
            .map(|(s, shard)| {
                let shared = &shared;
                scope.spawn(move || worker(s, shard, partition, shared))
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(Shard { programs, set, .. }) => {
                    shard_programs.push(programs);
                    sets.push(set);
                }
                // A panic that escaped the worker's own catch (an executor
                // bug, not a program bug): re-raise it here.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    // After a caught program panic or a run error the sets still hold
    // messages; the next checkout scrubs them.
    pool::give_back_shard_batches(sets);

    let control = shared.control.into_inner().unwrap();
    if let Some(payload) = control.panic {
        std::panic::resume_unwind(payload);
    }
    control.verdict?;
    let outputs = shard_programs
        .iter()
        .flatten()
        .map(NodeAlgorithm::output)
        .collect();
    // Each round's events were merged in shard order from workers that step
    // their contiguous node ranges in ascending order, so the trace is
    // already in `(round, from)` order.
    Ok(control.ledger.finish(outputs))
}

/// The per-shard worker: init, then one barrier arrival per round until the
/// leader's commit stops the run.  Returns the shard, so the caller can
/// collate outputs and pool its plane set.
fn worker<'g, S: PlaneStore<A::Msg>, A: NodeAlgorithm>(
    s: usize,
    mut shard: Shard<'g, A, S>,
    partition: &Partition,
    shared: &Shared<A::Msg, S>,
) -> Shard<'g, A, S> {
    let k = partition.shard_count();
    let nodes = partition.node_range(s);
    let mut incoming: Vec<S::Boundary> = (0..k).map(|_| S::Boundary::default()).collect();
    // The leader's merged frontier words over this shard's node range.
    let mut gather: Vec<WordPair> = Vec::new();

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

    // Round 0's traffic leaves through the parity-1 exchange buffers.
    let caught = catch_unwind(AssertUnwindSafe(|| shard.init()));
    publish(s, shared, partition, &mut shard, 1, caught.err());

    loop {
        shared.barrier.wait(|| coordinate(shared));
        let (round, sparse) = {
            let ctl = shared.control.lock().unwrap();
            let Ok(Some(round)) = ctl.verdict else {
                break;
            };
            if ctl.ledger.sparse {
                gather.clear();
                gather.extend(ctl.ledger.frontier.pairs_over(nodes.start, nodes.end));
            }
            (round, ctl.ledger.sparse)
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

        // The sparse branch walks only this shard's slice of the merged
        // frontier: by the marking invariant a skipped node's slots
        // (private plane and exchange positions alike) are empty, so
        // skipping is a pure no-op.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let mut remote = |slot: usize, spare: &mut Vec<A::Msg>| {
                let (src, pos) = partition
                    .cross_ref(slot)
                    .expect("out-of-shard mirror slot must be a boundary slot");
                S::fetch_boundary(&mut incoming[src], pos, spare)
            };
            let visit = |v| shard.visit(v, round, &mut remote);
            if A::MESSAGE_DRIVEN && sparse {
                pair_ones(&gather, nodes.start, nodes.end).for_each(visit);
            } else {
                nodes.clone().for_each(visit);
            }
        }));

        // Return the incoming buffers for their producers to refill two
        // phases from now.
        for (src, buf) in incoming.iter_mut().enumerate() {
            if src != s && !partition.boundary(src, s).is_empty() {
                *shared.pair_bufs[read_parity][src * k + s].0.lock().unwrap() = std::mem::take(buf);
            }
        }
        publish(
            s,
            shared,
            partition,
            &mut shard,
            (round + 1) & 1,
            caught.err(),
        );
    }
    shard
}

/// Ends the shard's step and publishes it: the planes swap and the freshly
/// scattered plane's boundary slots drain into this shard's outgoing
/// exchange buffers for `parity`, and the shard's report takes its pending
/// traffic and done-delta (both reset for the next step), its mark words
/// when tracking (the marks reset to the eager template), and any caught
/// panic: the step's, or one from the swap itself (the drained-plane debug
/// assertion), which must reach the leader too or the other workers would
/// wait at the barrier forever.  After a panic the planes are left as they
/// are: the run stops at the next barrier, and a half-gathered plane must
/// not be reset.
fn publish<A: NodeAlgorithm, S: PlaneStore<A::Msg>>(
    s: usize,
    shared: &Shared<A::Msg, S>,
    partition: &Partition,
    shard: &mut Shard<'_, A, S>,
    parity: usize,
    panic: Option<Panic>,
) {
    let k = partition.shard_count();
    let panic = panic.or_else(|| {
        catch_unwind(AssertUnwindSafe(|| {
            shard.swap_planes();
            let slot_base = partition.slot_range(s).start;
            for t in 0..k {
                let boundary = partition.boundary(s, t);
                if boundary.is_empty() {
                    continue;
                }
                let mut buf = shared.pair_bufs[parity][s * k + t].0.lock().unwrap();
                shard.set.cur.export_boundary(boundary, slot_base, &mut buf);
            }
        }))
        .err()
    });
    let mut report = shared.reports[s].0.lock().unwrap();
    if A::MESSAGE_DRIVEN {
        report.frontier.clear();
        shard.marks.drain_pairs(&shard.eager, &mut report.frontier);
    }
    // The report's previous traffic was consumed by the leader; swapping
    // hands its buffers back to this shard for reuse.
    std::mem::swap(&mut report.pending, &mut shard.pending);
    shard.pending.reset();
    report.done_delta = std::mem::take(&mut shard.done_delta);
    report.panic = panic;
}

/// The leader's merge step, run by the last worker to arrive at the
/// barrier: fold the per-shard reports **in shard order** into the merged
/// traffic and the ledger's frontier, then commit through the run's
/// [`Ledger`] — unless a program panicked, which preempts everything,
/// exactly as it would have unwound out of the one-thread engine.
fn coordinate<M, S: PlaneStore<M>>(shared: &Shared<M, S>) {
    let mut guard = shared.control.lock().unwrap();
    let ctl = &mut *guard;
    let mut done_delta = 0;
    let mut panic: Option<Panic> = None;
    ctl.ledger.frontier.clear();
    for slot in &shared.reports {
        let mut report = slot.0.lock().unwrap();
        ctl.ledger.frontier.or_pairs(&report.frontier);
        done_delta += report.done_delta;
        ctl.merged.absorb(&mut report.pending);
        panic = panic.or(report.panic.take());
    }
    if let Some(payload) = panic {
        ctl.panic = Some(payload);
        ctl.verdict = Ok(None);
        return;
    }
    ctl.verdict = ctl.ledger.commit(&mut ctl.merged, done_delta);
}

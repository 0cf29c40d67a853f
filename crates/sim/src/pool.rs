//! Per-thread reuse of run buffers across runs.
//!
//! Experiment sweeps execute many runs on the same graph (seed sweeps, fault
//! trials, scheme comparisons).  Each run needs two lane-striped message
//! planes of `2m × W` slots plus a gather buffer — and, on the arena
//! backing, the byte arenas and the spare-message recycling pool, both of
//! which take a few rounds to grow to their high-water mark.  Allocating and
//! freeing all of that per run is pure overhead.  This module keeps one
//! `BatchSet` per `(message type, plane backing)` pair in a thread-local
//! pool: the one-thread engine (every [`Sim::run`](crate::Sim::run) and
//! [`BatchSim::run`](crate::BatchSim::run) that does not shard) checks the
//! set out at the start of a run (reshaping and clearing it — an aborted run
//! may have left messages behind) and returns it at the end, so
//! back-to-back runs on the same graph perform **zero** plane (and, for the
//! arena, zero codec-side) allocations after the first.
//!
//! The pool is deliberately invisible in the API: it changes no observable
//! semantics, only the allocation profile.  [`stats`] exposes hit/miss
//! counters so tests and benches can assert the reuse actually happens.

use crate::batch_plane::BatchPlaneStore;
use crate::plane::PlaneStore;
use lma_graph::Port;
use std::any::{Any, TypeId};
use std::cell::{Cell, RefCell};
use std::collections::HashMap; // lint: allow(hash-iteration) — TypeId-keyed checkout map, never iterated

/// Cumulative pool counters for the current thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Checkouts served from the pool (no allocation).
    pub hits: u64,
    /// Checkouts that had to allocate a fresh plane set.
    pub misses: u64,
}

thread_local! {
    // lint: allow(hash-iteration) — TypeId-keyed checkout map, never iterated
    static POOL: RefCell<HashMap<TypeId, Box<dyn Any>>> = RefCell::new(HashMap::new());
    static STATS: Cell<PoolStats> = const { Cell::new(PoolStats { hits: 0, misses: 0 }) };
}

/// This thread's cumulative pool counters.
#[must_use]
pub fn stats() -> PoolStats {
    STATS.get()
}

/// The one-thread engine's reusable buffers: the lane-striped plane pair
/// plus the shared gather buffer and spare pool — one entry per `(message
/// type, backing)` pair, reshaped to the run's `(slots, lanes)` geometry on
/// checkout.
pub(crate) struct BatchSet<M, S: PlaneStore<M>> {
    /// Gather source (delivery) plane.
    pub cur: BatchPlaneStore<M, S>,
    /// Scatter target plane for the next round.
    pub next: BatchPlaneStore<M, S>,
    /// The per-`(node, lane)` gather buffer (cleared between lanes).
    pub inbox: Vec<(Port, M)>,
    /// Spent message values awaiting revival, shared by every lane.
    pub spare: Vec<M>,
}

impl<M, S: PlaneStore<M>> BatchSet<M, S> {
    fn new(slots: usize, lanes: usize) -> Self {
        Self {
            cur: BatchPlaneStore::new(slots, lanes),
            next: BatchPlaneStore::new(slots, lanes),
            inbox: Vec::new(),
            spare: Vec::new(),
        }
    }

    fn prepare(&mut self, slots: usize, lanes: usize) {
        self.cur.prepare(slots, lanes);
        self.next.prepare(slots, lanes);
        if S::RECYCLES {
            self.spare.extend(self.inbox.drain(..).map(|(_, m)| m));
        } else {
            self.inbox.clear();
            self.spare.clear();
        }
    }
}

/// Checks a batch plane set out of this thread's pool, resized and cleared
/// for `slots × lanes` striped slots.
pub(crate) fn checkout_batch<M: 'static, S: PlaneStore<M>>(
    slots: usize,
    lanes: usize,
) -> BatchSet<M, S> {
    let reused = POOL.with(|pool| pool.borrow_mut().remove(&TypeId::of::<BatchSet<M, S>>()));
    let mut stats = STATS.get();
    match reused.and_then(|boxed| boxed.downcast::<BatchSet<M, S>>().ok()) {
        Some(mut set) => {
            stats.hits += 1;
            STATS.set(stats);
            set.prepare(slots, lanes);
            *set
        }
        None => {
            stats.misses += 1;
            STATS.set(stats);
            BatchSet::new(slots, lanes)
        }
    }
}

/// Returns a batch plane set to this thread's pool for the next batch to
/// reuse.
pub(crate) fn give_back_batch<M: 'static, S: PlaneStore<M>>(set: BatchSet<M, S>) {
    POOL.with(|pool| {
        pool.borrow_mut()
            .insert(TypeId::of::<BatchSet<M, S>>(), Box::new(set))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::{ArenaPlane, MessagePlane};

    #[test]
    fn checkout_reuses_previously_returned_sets() {
        let before = stats();
        let set: BatchSet<u128, MessagePlane<u128>> = checkout_batch(8, 1);
        give_back_batch(set);
        let set: BatchSet<u128, MessagePlane<u128>> = checkout_batch(16, 1);
        assert_eq!(set.cur.slots(), 16, "checkout must resize the reused set");
        give_back_batch(set);
        let after = stats();
        assert!(after.hits > before.hits, "second checkout must be a hit");
        assert!(after.misses > before.misses, "first checkout must miss");
    }

    #[test]
    fn pool_is_keyed_by_message_type() {
        let a: BatchSet<u16, MessagePlane<u16>> = checkout_batch(4, 1);
        give_back_batch(a);
        let b: BatchSet<i16, MessagePlane<i16>> = checkout_batch(4, 1);
        let a2: BatchSet<u16, MessagePlane<u16>> = checkout_batch(4, 1);
        assert_eq!(a2.cur.slots(), 4);
        give_back_batch(b);
        give_back_batch(a2);
    }

    #[test]
    fn pool_is_keyed_by_backing_and_arena_sets_keep_their_spares() {
        let mut inline: BatchSet<u64, MessagePlane<u64>> = checkout_batch(4, 1);
        inbox_fill(&mut inline.inbox);
        give_back_batch(inline);
        let mut arena: BatchSet<u64, ArenaPlane<u64>> = checkout_batch(4, 1);
        inbox_fill(&mut arena.inbox);
        arena.spare.push(7);
        give_back_batch(arena);

        // Re-checkout: the inline set drops stale state, the arena set
        // converts stale inbox entries into spares.
        let inline: BatchSet<u64, MessagePlane<u64>> = checkout_batch(4, 1);
        assert!(inline.inbox.is_empty() && inline.spare.is_empty());
        let arena: BatchSet<u64, ArenaPlane<u64>> = checkout_batch(4, 1);
        assert!(arena.inbox.is_empty());
        assert_eq!(arena.spare.len(), 3, "spare + 2 recycled inbox messages");
        give_back_batch(inline);
        give_back_batch(arena);
    }

    fn inbox_fill(inbox: &mut Vec<(Port, u64)>) {
        inbox.push((0, 1));
        inbox.push((1, 2));
    }

    #[test]
    fn batch_sets_pool_independently_and_reshape_on_checkout() {
        let batch: BatchSet<u8, MessagePlane<u8>> = checkout_batch(4, 3);
        assert_eq!(batch.cur.slots(), 4);
        assert_eq!(batch.cur.lanes(), 3);
        give_back_batch(batch);
        // Reuse must reshape to the new (slots, lanes) geometry, down to
        // the one-lane shape of an ordinary run.
        let batch: BatchSet<u8, MessagePlane<u8>> = checkout_batch(2, 8);
        assert_eq!(batch.next.slots(), 2);
        assert_eq!(batch.next.lanes(), 8);
        give_back_batch(batch);
        let single: BatchSet<u8, MessagePlane<u8>> = checkout_batch(4, 1);
        assert_eq!((single.cur.slots(), single.cur.lanes()), (4, 1));
        give_back_batch(single);
    }
}

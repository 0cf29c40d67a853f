//! Per-thread reuse of run buffers across runs.
//!
//! Experiment sweeps execute many runs on the same graph (seed sweeps, fault
//! trials, scheme comparisons).  Each run needs two message planes of `2m`
//! slots plus a gather buffer — and, on the arena backing, the byte arenas
//! and the spare-message recycling pool, both of which take a few rounds to
//! grow to their high-water mark.  Allocating and freeing all of that per
//! run is pure overhead.  This module keeps, per `(message type, plane
//! backing)` pair, one `BatchSet` and beside it one shard-set list in a
//! thread-local pool:
//!
//! * the one-thread engine (every [`Sim::run`](crate::Sim::run) that does
//!   not shard) checks the whole-graph set out at the start of a run and
//!   returns it at the end;
//! * the shard-parallel engine checks out one set per shard, hands each to
//!   its shard's worker, and returns the list at join — also after a caught
//!   program panic.
//!
//! Checkout resizes and clears every set (an aborted run may have left
//! messages behind), so back-to-back runs on the same thread perform
//! **zero** plane (and, for the arena, zero codec-side) allocations after
//! the first, at any thread count.
//!
//! The pool is deliberately invisible in the API: it changes no observable
//! semantics, only the allocation profile.  [`stats`] exposes hit/miss
//! counters, one per set checked out, so tests and benches can assert the
//! reuse actually happens.

use crate::plane::PlaneStore;
use lma_graph::Port;
use std::any::{Any, TypeId};
use std::cell::{Cell, RefCell};
use std::collections::HashMap; // lint: allow(hash-iteration) — TypeId-keyed checkout map, never iterated

/// Cumulative pool counters for the current thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Sets checked out of the pool (no allocation).
    pub hits: u64,
    /// Sets that had to be allocated fresh at checkout.
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

/// A shard's plane pair plus its gather buffer and spare pool.  Every set
/// is pooled: the one-thread engine's whole-graph set and the
/// shard-parallel engine's per-shard list each have one entry per
/// `(message type, backing)` pair, resized to the run's slot counts on
/// checkout.
pub(crate) struct BatchSet<M, S: PlaneStore<M>> {
    /// Gather source (delivery) plane.
    pub cur: S,
    /// Scatter target plane for the next round.
    pub next: S,
    /// The per-node gather buffer.
    pub inbox: Vec<(Port, M)>,
    /// Spent message values awaiting revival.
    pub spare: Vec<M>,
}

impl<M, S: PlaneStore<M>> BatchSet<M, S> {
    /// A fresh set over `slots` slots, built on a pool miss.
    fn new(slots: usize) -> Self {
        Self {
            cur: S::with_len(slots),
            next: S::with_len(slots),
            inbox: Vec::new(),
            spare: Vec::new(),
        }
    }

    fn prepare(&mut self, slots: usize) {
        self.cur.prepare(slots);
        self.next.prepare(slots);
        if S::RECYCLES {
            self.spare.extend(self.inbox.drain(..).map(|(_, m)| m));
        } else {
            self.inbox.clear();
            self.spare.clear();
        }
    }
}

/// Checks a plane set out of this thread's pool, resized and cleared for
/// `slots` slots.
pub(crate) fn checkout_batch<M: 'static, S: PlaneStore<M>>(slots: usize) -> BatchSet<M, S> {
    reuse_or_build(take(), slots)
}

/// Returns a plane set to this thread's pool for the next run to reuse.
pub(crate) fn give_back_batch<M: 'static, S: PlaneStore<M>>(set: BatchSet<M, S>) {
    put(set);
}

/// Checks this thread's shard-set list out of the pool: one set per entry
/// of `slots`, the `s`-th resized and cleared for `slots[s]` slots exactly
/// as [`checkout_batch`] does.  Sets the list lacks are built fresh; sets
/// beyond `slots.len()` are dropped.
pub(crate) fn checkout_shard_batches<M: 'static, S: PlaneStore<M>>(
    slots: impl ExactSizeIterator<Item = usize>,
) -> Vec<BatchSet<M, S>> {
    let mut reused = take::<Vec<BatchSet<M, S>>>().unwrap_or_default();
    reused.truncate(slots.len());
    let mut reused = reused.into_iter();
    slots
        .map(|len| reuse_or_build(reused.next(), len))
        .collect()
}

/// Returns a shard-set list to this thread's pool for the next
/// shard-parallel run to reuse.
pub(crate) fn give_back_shard_batches<M: 'static, S: PlaneStore<M>>(sets: Vec<BatchSet<M, S>>) {
    put(sets);
}

/// Scrubs `reused` for `slots` slots, or builds a fresh set when there is
/// none, and counts the checkout.
fn reuse_or_build<M, S: PlaneStore<M>>(
    reused: Option<BatchSet<M, S>>,
    slots: usize,
) -> BatchSet<M, S> {
    let mut stats = STATS.get();
    let set = match reused {
        Some(mut set) => {
            stats.hits += 1;
            set.prepare(slots);
            set
        }
        None => {
            stats.misses += 1;
            BatchSet::new(slots)
        }
    };
    STATS.set(stats);
    set
}

/// Takes this thread's pooled `T`, if any.
fn take<T: 'static>() -> Option<T> {
    POOL.with(|pool| pool.borrow_mut().remove(&TypeId::of::<T>()))
        .and_then(|boxed| boxed.downcast::<T>().ok())
        .map(|boxed| *boxed)
}

/// Pools `value` on this thread, replacing any pooled `T`.
fn put<T: 'static>(value: T) {
    POOL.with(|pool| pool.borrow_mut().insert(TypeId::of::<T>(), Box::new(value)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::{ArenaPlane, MessagePlane};

    #[test]
    fn checkout_reuses_previously_returned_sets() {
        let before = stats();
        let set: BatchSet<u128, MessagePlane<u128>> = checkout_batch(8);
        give_back_batch(set);
        let set: BatchSet<u128, MessagePlane<u128>> = checkout_batch(16);
        assert_eq!(
            set.cur.slot_count(),
            16,
            "checkout must resize the reused set"
        );
        give_back_batch(set);
        let after = stats();
        assert!(after.hits > before.hits, "second checkout must be a hit");
        assert!(after.misses > before.misses, "first checkout must miss");
    }

    #[test]
    fn pool_is_keyed_by_message_type() {
        let a: BatchSet<u16, MessagePlane<u16>> = checkout_batch(4);
        give_back_batch(a);
        let b: BatchSet<i16, MessagePlane<i16>> = checkout_batch(4);
        let a2: BatchSet<u16, MessagePlane<u16>> = checkout_batch(4);
        assert_eq!(a2.cur.slot_count(), 4);
        give_back_batch(b);
        give_back_batch(a2);
    }

    #[test]
    fn pool_is_keyed_by_backing_and_arena_sets_keep_their_spares() {
        let mut inline: BatchSet<u64, MessagePlane<u64>> = checkout_batch(4);
        inbox_fill(&mut inline.inbox);
        give_back_batch(inline);
        let mut arena: BatchSet<u64, ArenaPlane<u64>> = checkout_batch(4);
        inbox_fill(&mut arena.inbox);
        arena.spare.push(7);
        give_back_batch(arena);

        // Re-checkout: the inline set drops stale state, the arena set
        // converts stale inbox entries into spares.
        let inline: BatchSet<u64, MessagePlane<u64>> = checkout_batch(4);
        assert!(inline.inbox.is_empty() && inline.spare.is_empty());
        let arena: BatchSet<u64, ArenaPlane<u64>> = checkout_batch(4);
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
    fn shard_sets_pool_as_one_list_beside_the_one_thread_set() {
        type Inline = MessagePlane<u32>;
        let before = stats();
        let mut sets: Vec<BatchSet<u32, Inline>> = checkout_shard_batches([4, 6].into_iter());
        // An aborted run leaves a message and a gathered inbox behind.
        sets[1].cur.put(5, 9).unwrap();
        sets[0].inbox.push((0, 1));
        give_back_shard_batches(sets);

        // Both pooled sets come back in shard order and scrubbed, although
        // their sizes did not change; a third shard gets a fresh set.
        let mut sets: Vec<BatchSet<u32, Inline>> = checkout_shard_batches([4, 6, 2].into_iter());
        let sizes: Vec<usize> = sets.iter().map(|set| set.cur.slot_count()).collect();
        assert_eq!(sizes, [4, 6, 2]);
        assert_eq!(
            sets[1].cur.take(5),
            None,
            "a stale message survived checkout"
        );
        assert!(sets[0].inbox.is_empty());
        let after = stats();
        assert_eq!(
            (after.hits - before.hits, after.misses - before.misses),
            (2, 3)
        );

        // The one-thread set of the same (message type, backing) is pooled
        // apart from the list.
        let one: BatchSet<u32, Inline> = checkout_batch(4);
        assert_eq!(stats().misses - after.misses, 1);
        give_back_batch(one);

        // Fewer shards shrink the list to the run's width, and a pooled set
        // is resized to its new shard.
        give_back_shard_batches(sets);
        let sets: Vec<BatchSet<u32, Inline>> = checkout_shard_batches([3].into_iter());
        assert_eq!(sets[0].cur.slot_count(), 3);
        give_back_shard_batches(sets);
        let before = stats();
        let sets: Vec<BatchSet<u32, Inline>> = checkout_shard_batches([3, 3].into_iter());
        let after = stats();
        assert_eq!(
            (after.hits - before.hits, after.misses - before.misses),
            (1, 1)
        );
        give_back_shard_batches(sets);
    }

    #[test]
    fn batch_sets_pool_independently_and_reshape_on_checkout() {
        let set: BatchSet<u8, ArenaPlane<u8>> = checkout_batch(4);
        assert_eq!((set.cur.slot_count(), set.next.slot_count()), (4, 4));
        give_back_batch(set);
        // Reuse resizes both planes, down as well as up.
        let set: BatchSet<u8, ArenaPlane<u8>> = checkout_batch(2);
        assert_eq!((set.cur.slot_count(), set.next.slot_count()), (2, 2));
        give_back_batch(set);
        let set: BatchSet<u8, MessagePlane<u8>> = checkout_batch(9);
        assert_eq!((set.cur.slot_count(), set.next.slot_count()), (9, 9));
        give_back_batch(set);
    }
}

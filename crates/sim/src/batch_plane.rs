//! Lane-striped message planes for fleet batching: one [`PlaneStore`]
//! backend carrying `W` independent runs' slots side by side.
//!
//! A [`BatchPlaneStore`] over `slots` graph slots and `lanes` runs is the
//! underlying backend sized to `slots × lanes` inner slots, addressed in
//! **lane-striped (SoA) order**: graph slot `s`, lane `l` lives at inner
//! slot `s * lanes + l`.  All `W` copies of one graph slot are therefore
//! contiguous — one lane-group per slot — which is what lets the shard-parallel
//! engine ship a whole lane-group per boundary slot in one
//! [`PlaneStore::export_boundary`] pass, and what keeps the per-round
//! traversal walking the CSR once for the whole fleet.
//!
//! Nothing about the backends changes: [`BatchInlinePlane`] and
//! [`BatchArenaPlane`] reuse [`MessagePlane`] and [`ArenaPlane`] verbatim
//! (occupancy, arena bump buffer, spare recycling, boundary export), so the
//! per-slot semantics pinned by the plane suites — first write wins, a
//! duplicate port surfaces [`SlotOccupied`], a span is delivered once — hold
//! per `(slot, lane)` automatically.  At one lane the striped index is the
//! graph slot itself: [`crate::Sim::run`] runs on exactly this plane.
//!
//! One batch-specific operation exists: [`BatchPlaneStore::drain_lane`].
//! When a lane finishes (or fails) mid-batch, its undelivered final-round
//! messages are still sitting in the current plane; the other lanes keep
//! running and the shared plane keeps cycling through
//! [`PlaneStore::reset_round`], whose arena variant asserts the plane was
//! fully drained.  Draining just the finished lane's stripe keeps that
//! invariant (and the recycling pool) intact without stalling the batch.

use crate::plane::{ArenaPlane, MessagePlane, PlaneStore, SlotOccupied};
use std::marker::PhantomData;

/// Inline-backed batch plane: `Option<M>` lane-striped slots.
pub type BatchInlinePlane<M> = BatchPlaneStore<M, MessagePlane<M>>;

/// Arena-backed batch plane: lane-striped byte spans in one bump arena
/// shared by every lane's traffic for the round.
pub type BatchArenaPlane<M> = BatchPlaneStore<M, ArenaPlane<M>>;

/// Expands per-graph-slot indices into lane-striped inner indices: each
/// global slot `s` becomes the `lanes` consecutive entries
/// `s * lanes .. s * lanes + lanes`.  Used to turn a `Partition` boundary
/// list into the batch boundary list (whole lane-groups per slot).
#[must_use]
pub fn expand_lanes(slots: &[usize], lanes: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(slots.len() * lanes);
    for &slot in slots {
        out.extend(slot * lanes..slot * lanes + lanes);
    }
    out
}

/// A lane-striped message plane: `W` runs' message slots behind one
/// [`PlaneStore`] backend (see the module docs for the layout).
#[derive(Debug)]
pub struct BatchPlaneStore<M, S: PlaneStore<M>> {
    inner: S,
    slots: usize,
    lanes: usize,
    _msg: PhantomData<fn(M) -> M>,
}

impl<M, S: PlaneStore<M>> BatchPlaneStore<M, S> {
    /// A plane with `slots × lanes` empty inner slots.
    #[must_use]
    pub fn new(slots: usize, lanes: usize) -> Self {
        Self {
            inner: S::with_len(slots * lanes),
            slots,
            lanes,
            _msg: PhantomData,
        }
    }

    /// Number of graph slots (per lane).
    #[must_use]
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Number of lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Resizes to `slots × lanes` and clears everything, reusing the inner
    /// backend's allocations (the pool checkout path).
    pub fn prepare(&mut self, slots: usize, lanes: usize) {
        self.inner.prepare(slots * lanes);
        self.slots = slots;
        self.lanes = lanes;
    }

    /// The lane-striped inner index of `(slot, lane)`.
    #[inline]
    fn striped(&self, slot: usize, lane: usize) -> usize {
        debug_assert!(slot < self.slots && lane < self.lanes);
        slot * self.lanes + lane
    }

    /// Un-stripes an inner [`SlotOccupied`] back into graph-slot space, so
    /// batch error reporting matches the single-run plane's contract.
    fn unstripe(&self, occ: SlotOccupied) -> SlotOccupied {
        SlotOccupied {
            slot: occ.slot / self.lanes,
            len: self.slots,
        }
    }

    /// Stores `msg` into `(slot, lane)`, consuming it.
    ///
    /// # Errors
    /// [`SlotOccupied`] (in graph-slot space) when lane `lane` already wrote
    /// that slot this round; the first message is preserved.
    pub fn store(
        &mut self,
        slot: usize,
        lane: usize,
        msg: M,
        spare: &mut Vec<M>,
    ) -> Result<(), SlotOccupied> {
        let idx = self.striped(slot, lane);
        self.inner
            .store(idx, msg, spare)
            .map_err(|e| self.unstripe(e))
    }

    /// Stores a copy of `msg` into `(slot, lane)` without consuming it.
    ///
    /// # Errors
    /// Exactly as [`BatchPlaneStore::store`].
    pub fn store_ref(&mut self, slot: usize, lane: usize, msg: &M) -> Result<(), SlotOccupied> {
        let idx = self.striped(slot, lane);
        self.inner.store_ref(idx, msg).map_err(|e| self.unstripe(e))
    }

    /// Takes the message out of `(slot, lane)`, if any.
    pub fn fetch(&mut self, slot: usize, lane: usize, spare: &mut Vec<M>) -> Option<M> {
        let idx = self.striped(slot, lane);
        self.inner.fetch(idx, spare)
    }

    /// Resets the plane for the next round of scattering.  The caller
    /// guarantees every *active* lane was drained by the gather pass and
    /// every finished lane by [`BatchPlaneStore::drain_lane`].
    pub fn reset_round(&mut self) {
        self.inner.reset_round();
    }

    /// Drains every slot of `lane`, recycling the messages into `spare`
    /// when the backend recycles — the finished-lane drop-out path (see the
    /// module docs).
    pub fn drain_lane(&mut self, lane: usize, spare: &mut Vec<M>) {
        for slot in 0..self.slots {
            if let Some(msg) = self.inner.fetch(slot * self.lanes + lane, spare) {
                if S::RECYCLES {
                    spare.push(msg);
                }
            }
        }
    }

    /// An exchange buffer covering `positions` boundary slots' whole
    /// lane-groups (`positions × lanes` dense positions).
    #[must_use]
    pub fn new_boundary(positions: usize, lanes: usize) -> S::Boundary {
        S::new_boundary(positions * lanes)
    }

    /// Drains lane-striped boundary indices (`striped_slots`, as produced by
    /// [`expand_lanes`] on global graph slots; this plane's graph slot 0 is
    /// global `striped_base / lanes`) into `out`.  Every position is
    /// overwritten, so stale lane-groups from finished lanes self-clean on
    /// the next export.
    pub fn export_boundary(
        &mut self,
        striped_slots: &[usize],
        striped_base: usize,
        out: &mut S::Boundary,
    ) {
        self.inner.export_boundary(striped_slots, striped_base, out);
    }

    /// Takes the message of lane `lane` at boundary position `pos` (in
    /// graph-slot positions) out of an exchange buffer, if any.
    pub fn fetch_boundary(
        buf: &mut S::Boundary,
        pos: usize,
        lane: usize,
        lanes: usize,
        spare: &mut Vec<M>,
    ) -> Option<M> {
        S::fetch_boundary(buf, pos * lanes + lane, spare)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lane_isolated<S: PlaneStore<u64>>() {
        let mut p: BatchPlaneStore<u64, S> = BatchPlaneStore::new(3, 4);
        let mut spare = Vec::new();
        assert_eq!(p.slots(), 3);
        assert_eq!(p.lanes(), 4);
        assert!(p.store(1, 0, 100, &mut spare).is_ok());
        assert!(p.store(1, 3, 103, &mut spare).is_ok());
        // Lane 2 of the same slot is untouched.
        assert_eq!(p.fetch(1, 2, &mut spare), None);
        assert_eq!(p.fetch(1, 3, &mut spare), Some(103));
        assert_eq!(p.fetch(1, 0, &mut spare), Some(100));
        assert_eq!(p.fetch(1, 0, &mut spare), None, "delivered once");
    }

    #[test]
    fn lanes_are_isolated_on_all_backends() {
        lane_isolated::<MessagePlane<u64>>();
        lane_isolated::<ArenaPlane<u64>>();
    }

    #[test]
    fn duplicate_is_reported_in_graph_slot_space() {
        let mut p: BatchInlinePlane<u64> = BatchPlaneStore::new(5, 8);
        let mut spare = Vec::new();
        assert!(p.store(4, 6, 1, &mut spare).is_ok());
        assert_eq!(
            p.store(4, 6, 2, &mut spare),
            Err(SlotOccupied { slot: 4, len: 5 }),
            "the duplicate must name the graph slot, not the striped index"
        );
        // The same slot in another lane is still free.
        assert!(p.store(4, 7, 3, &mut spare).is_ok());
    }

    fn drained_lane_leaves_others<S: PlaneStore<u64>>() {
        let mut p: BatchPlaneStore<u64, S> = BatchPlaneStore::new(2, 3);
        let mut spare = Vec::new();
        assert!(p.store(0, 1, 7, &mut spare).is_ok());
        assert!(p.store(1, 1, 8, &mut spare).is_ok());
        assert!(p.store(1, 2, 9, &mut spare).is_ok());
        p.drain_lane(1, &mut spare);
        assert_eq!(p.fetch(0, 1, &mut spare), None);
        assert_eq!(p.fetch(1, 1, &mut spare), None);
        assert_eq!(p.fetch(1, 2, &mut spare), Some(9), "lane 2 survives");
        p.reset_round(); // must not trip the arena's drained assertion
    }

    #[test]
    fn drain_lane_empties_only_that_lane() {
        drained_lane_leaves_others::<MessagePlane<u64>>();
        drained_lane_leaves_others::<ArenaPlane<u64>>();
    }

    #[test]
    fn expand_lanes_stripes_whole_lane_groups() {
        assert_eq!(expand_lanes(&[2, 5], 3), vec![6, 7, 8, 15, 16, 17]);
        assert_eq!(expand_lanes(&[0], 1), vec![0]);
        assert!(expand_lanes(&[], 4).is_empty());
    }

    fn boundary_ships_lane_groups<S: PlaneStore<u64>>() {
        // Plane covers global graph slots 10..14, 2 lanes.
        let lanes = 2;
        let mut p: BatchPlaneStore<u64, S> = BatchPlaneStore::new(4, lanes);
        let mut spare = Vec::new();
        assert!(p.store(1, 0, 40, &mut spare).is_ok()); // global slot 11
        assert!(p.store(1, 1, 41, &mut spare).is_ok());
        assert!(p.store(3, 1, 61, &mut spare).is_ok()); // global slot 13
        let boundary = expand_lanes(&[11, 13], lanes);
        let mut buf = BatchPlaneStore::<u64, S>::new_boundary(2, lanes);
        p.export_boundary(&boundary, 10 * lanes, &mut buf);
        assert_eq!(p.fetch(1, 0, &mut spare), None, "exported slots drained");
        assert_eq!(
            BatchPlaneStore::<u64, S>::fetch_boundary(&mut buf, 0, 0, lanes, &mut spare),
            Some(40)
        );
        assert_eq!(
            BatchPlaneStore::<u64, S>::fetch_boundary(&mut buf, 0, 1, lanes, &mut spare),
            Some(41)
        );
        assert_eq!(
            BatchPlaneStore::<u64, S>::fetch_boundary(&mut buf, 1, 0, lanes, &mut spare),
            None
        );
        assert_eq!(
            BatchPlaneStore::<u64, S>::fetch_boundary(&mut buf, 1, 1, lanes, &mut spare),
            Some(61)
        );
        p.reset_round();
    }

    #[test]
    fn boundary_exchange_carries_whole_lane_groups() {
        boundary_ships_lane_groups::<MessagePlane<u64>>();
        boundary_ships_lane_groups::<ArenaPlane<u64>>();
    }
}

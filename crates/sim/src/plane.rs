//! The flat message plane: preallocated per-`(node, port)` message slots,
//! generic over the slot storage backend.
//!
//! A plane owns one slot per edge endpoint (the graph's dense CSR slot
//! space, see `lma_graph::CsrAdjacency`).  Senders *scatter* into their own
//! slots; receivers *gather* by reading the mirror slot of each of their
//! ports.  The runtime keeps two planes and swaps them every round
//! (double-buffering), so the steady-state loop performs **no** per-round
//! allocation, and the occupancy [`FixedBitSet`] replaces the seed's
//! per-node `HashSet` port-dedup.
//!
//! Two interchangeable backends implement [`PlaneStore`] (selected by
//! [`Backing`] on `RunConfig`; both plane engines work with either):
//!
//! * [`MessagePlane`] — **inline** `Option<M>` slots.  Delivery moves the
//!   message value; nothing is encoded.  The right default for fixed-size
//!   (`Copy`-ish) messages, where moving *is* free.
//! * [`ArenaPlane`] — **arena** slots: each slot is an `(offset, len)` span
//!   into a per-round byte bump buffer, filled through the [`Wire`] codec.
//!   Scattering encodes into the arena and gathering decodes into recycled
//!   message values, so variable-size payloads (`Vec`-carrying gossip
//!   messages) stop heap-allocating per message: the arena is *reset* (not
//!   freed) every round and grows to the high-water mark once.
//!
//! The engines call a backend directly, generic over `S: PlaneStore<M>`.
//! Planes are also reused *across* runs: the one-thread engine checks its
//! plane pair out of a per-thread pool (see [`crate::pool`]), and the
//! shard-parallel engine sizes one plane per shard over the shard's
//! contiguous slot range and ships cross-shard traffic through the
//! backend's [`PlaneStore::Boundary`] exchange buffers (owned values for
//! the inline backend, copied byte spans for the arena backend).
//!
//! A third backing, 16-byte tagged cells that spilled to the arena above
//! 15 encoded bytes, was retired because it won no measured cell: inline
//! beat it on every committed `bench_substrate` cell (gossip ring/4096:
//! 34.0 vs 51.6 ms, 1-core host), and on a 2-core host arena beat it on
//! sharded gossip (gnp/2048, two threads: 37.3 vs 40.9 ms).

use crate::bitset::FixedBitSet;
use crate::wire::{Wire, WireReader};
use std::marker::PhantomData;

/// Which slot-storage backend the plane engines route messages through.
///
/// All backings produce **bit-identical** outputs, stats, traces and errors
/// for the same `(graph, config, programs)` — pinned by the
/// `runtime_equivalence` suite — so the choice is purely an allocation/
/// throughput trade-off:
///
/// * [`Backing::Inline`] (the default): slots hold `Option<M>` and delivery
///   moves the value.  Best when `M` is small and flat (`u64`, small enums):
///   no codec work at all.
/// * [`Backing::Arena`]: slots are byte spans in a per-round bump arena via
///   the [`Wire`] codec.  Best when `M` owns heap memory (`Vec`-carrying
///   gossip messages): per-message allocations disappear in steady state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backing {
    /// Inline `Option<M>` slot storage ([`MessagePlane`]).
    #[default]
    Inline,
    /// Byte-arena slot storage ([`ArenaPlane`]).
    Arena,
}

impl Backing {
    /// Every backing, in registry/CLI display order.  Any code that
    /// enumerates backends (scenario matrices, test sweeps, bench groups,
    /// CLI filters) must iterate this constant instead of a hand-written
    /// list, so a new backend can never be silently omitted.
    pub const ALL: [Backing; 2] = [Backing::Inline, Backing::Arena];

    /// The stable lower-case label (`"inline"`, `"arena"`) used in scenario
    /// cell ids, CLI filters and bench ids.
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            Backing::Inline => "inline",
            Backing::Arena => "arena",
        }
    }
}

impl std::fmt::Display for Backing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Backing {
    type Err = UnknownBacking;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Backing::ALL
            .into_iter()
            .find(|b| b.as_str() == s)
            .ok_or_else(|| UnknownBacking(s.to_string()))
    }
}

/// Error returned by [`Backing`]'s `FromStr`: the string matched no
/// backing's [`Backing::as_str`] label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownBacking(String);

impl std::fmt::Display for UnknownBacking {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown plane backing {:?} (expected one of", self.0)?;
        for b in Backing::ALL {
            write!(f, " {:?}", b.as_str())?;
        }
        write!(f, ")")
    }
}

impl std::error::Error for UnknownBacking {}

/// Error returned when storing into a plane slot that was already written
/// since the last occupancy reset (a duplicate port use).  Carries the
/// offending slot plus the plane's slot count, so the runtime can report the
/// exact port in `RunError::MalformedOutbox` — and diagnostics can tell a
/// genuine duplicate from an out-of-plane index — instead of silently
/// dropping the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotOccupied {
    /// The slot (in this plane's index space) that was already occupied.
    pub slot: usize,
    /// The plane's total slot count at the time of the collision.
    pub len: usize,
}

impl std::fmt::Display for SlotOccupied {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "message slot {} of {} already occupied this round",
            self.slot, self.len
        )
    }
}

impl std::error::Error for SlotOccupied {}

/// A slot-storage backend for the message plane: the storage contract every
/// plane engine (one-thread, shard-parallel) is generic over.
///
/// The `spare` parameter threaded through [`PlaneStore::store`] and
/// [`PlaneStore::fetch`] is the executor's recycling pool of message
/// values: backends that serialize ([`ArenaPlane`]) park spent messages
/// there on store and revive them (via [`Wire::decode_into`]) on fetch, so
/// steady-state rounds allocate nothing; the inline backend ignores it
/// (messages move through the slots themselves).
pub trait PlaneStore<M>: Send + Sized + 'static {
    /// Dense per-shard-pair exchange buffer used by the shard-parallel engine to
    /// carry this backend's boundary traffic (owned values inline, copied
    /// byte spans for the arena).
    type Boundary: Send + Default;

    /// True when gathered messages should be returned to the spare pool
    /// after each node steps (serializing backends revive them on the next
    /// fetch; for the inline backend recycling would just hoard dead
    /// values).
    const RECYCLES: bool;

    /// A plane with `len` empty slots (`len = 2m` for a graph with `m`
    /// edges).
    fn with_len(len: usize) -> Self;

    /// Number of slots.
    fn slot_count(&self) -> usize;

    /// Stores `msg` into `slot`, consuming it (serializing backends park the
    /// spent value in `spare`).
    ///
    /// # Errors
    /// [`SlotOccupied`] when the slot was already written since the last
    /// [`PlaneStore::reset_round`]; the first message is preserved.
    fn store(&mut self, slot: usize, msg: M, spare: &mut Vec<M>) -> Result<(), SlotOccupied>;

    /// Stores a copy of `msg` into `slot` without consuming it — the
    /// broadcast fast path: the arena encodes straight from the reference
    /// (no clone at all), the inline backend clones.
    ///
    /// # Errors
    /// Exactly as [`PlaneStore::store`].
    fn store_ref(&mut self, slot: usize, msg: &M) -> Result<(), SlotOccupied>;

    /// Takes the message out of `slot`, if any (reviving a `spare` value in
    /// serializing backends).
    fn fetch(&mut self, slot: usize, spare: &mut Vec<M>) -> Option<M>;

    /// Resets the plane for the next round of scattering: occupancy
    /// tracking is cleared and arena bytes are reset (not freed).  The
    /// caller guarantees the slots have been drained (every slot is gathered
    /// or exported exactly once per round).
    fn reset_round(&mut self);

    /// Resizes to `len` slots and clears every slot, making the plane
    /// indistinguishable from a freshly built one while reusing its
    /// allocations (the pool checkout path: an aborted run may have left
    /// messages behind).
    fn prepare(&mut self, len: usize);

    /// An exchange buffer with `len` dense positions.
    fn new_boundary(len: usize) -> Self::Boundary;

    /// Drains this plane's boundary slots (`slots`, global indices; the
    /// plane's slot 0 is global `slot_base`) into `out`, position by
    /// position — the producer half of the shard-parallel engine's cross-shard
    /// hand-off.  Every position is overwritten (empty slots clear it).
    fn export_boundary(&mut self, slots: &[usize], slot_base: usize, out: &mut Self::Boundary);

    /// Takes the message at `pos` out of an exchange buffer, if any — the
    /// consumer half of the hand-off.
    fn fetch_boundary(buf: &mut Self::Boundary, pos: usize, spare: &mut Vec<M>) -> Option<M>;
}

/// The inline slot backend: a preallocated, reusable buffer of `Option<M>`
/// message slots indexed by the graph's dense `(node, port)` slot space.
#[derive(Debug)]
pub struct MessagePlane<M> {
    slots: Vec<Option<M>>,
    occupied: FixedBitSet,
}

impl<M> MessagePlane<M> {
    /// A plane with `len` empty slots (`len = 2m` for a graph with `m`
    /// edges).
    #[must_use]
    pub fn new(len: usize) -> Self {
        Self {
            slots: (0..len).map(|_| None).collect(),
            occupied: FixedBitSet::new(len),
        }
    }

    /// Number of slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the plane has no slots at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Writes `msg` into `slot`.  Fails — dropping the message and surfacing
    /// the offending slot — when the slot was already written since the last
    /// [`MessagePlane::clear_occupancy`], i.e. on a duplicate port use.
    ///
    /// # Errors
    /// Returns [`SlotOccupied`] naming the duplicate slot; the first message
    /// written to the slot is preserved.
    pub fn put(&mut self, slot: usize, msg: M) -> Result<(), SlotOccupied> {
        if !self.occupied.insert(slot) {
            return Err(SlotOccupied {
                slot,
                len: self.slots.len(),
            });
        }
        self.slots[slot] = Some(msg);
        Ok(())
    }

    /// Moves the message out of `slot`, if any (no clone: delivery transfers
    /// ownership from the sender's slot to the receiver's inbox).
    pub fn take(&mut self, slot: usize) -> Option<M> {
        self.slots[slot].take()
    }

    /// Resets the occupancy tracking for the next round of scattering.
    ///
    /// The caller is responsible for the slots themselves having been
    /// drained (every slot is gathered by exactly one receiver each round,
    /// so after a full gather pass the `Option`s are all `None`).
    pub fn clear_occupancy(&mut self) {
        self.occupied.clear();
    }

    /// Empties every slot and the occupancy set without resizing — the
    /// explicit "drop whatever is in flight" operation (aborted runs, reuse
    /// on the same graph).  Only slots written since the last
    /// [`MessagePlane::clear_occupancy`] can hold a message (that reset's
    /// precondition is a drained plane), so only those are visited.
    pub fn clear(&mut self) {
        let slots = &mut self.slots;
        self.occupied.for_each(|slot| slots[slot] = None);
        self.occupied.clear();
    }

    /// Resizes the plane to `len` slots and clears every slot and the
    /// occupancy set, making the plane indistinguishable from a freshly
    /// built one while reusing its allocations (the pool checkout path:
    /// an aborted run — or a completed one whose programs sent on their
    /// final round — may have left messages behind).
    pub fn prepare(&mut self, len: usize) {
        // Clear before resizing: slots retained across a resize would
        // otherwise keep their stale messages, and `take` reads the slot
        // directly rather than consulting the (rebuilt) occupancy set.
        self.clear();
        if self.slots.len() != len {
            self.slots.resize_with(len, || None);
            self.occupied = FixedBitSet::new(len);
        }
    }
}

impl<M: Clone + Send + 'static> PlaneStore<M> for MessagePlane<M> {
    type Boundary = Vec<Option<M>>;

    const RECYCLES: bool = false;

    fn with_len(len: usize) -> Self {
        Self::new(len)
    }

    fn slot_count(&self) -> usize {
        self.len()
    }

    fn store(&mut self, slot: usize, msg: M, _spare: &mut Vec<M>) -> Result<(), SlotOccupied> {
        self.put(slot, msg)
    }

    fn store_ref(&mut self, slot: usize, msg: &M) -> Result<(), SlotOccupied> {
        self.put(slot, msg.clone())
    }

    fn fetch(&mut self, slot: usize, _spare: &mut Vec<M>) -> Option<M> {
        self.take(slot)
    }

    fn reset_round(&mut self) {
        self.clear_occupancy();
    }

    fn prepare(&mut self, len: usize) {
        MessagePlane::prepare(self, len);
    }

    fn new_boundary(len: usize) -> Self::Boundary {
        (0..len).map(|_| None).collect()
    }

    fn export_boundary(&mut self, slots: &[usize], slot_base: usize, out: &mut Self::Boundary) {
        debug_assert_eq!(out.len(), slots.len());
        for (pos, &slot) in slots.iter().enumerate() {
            out[pos] = self.take(slot - slot_base);
        }
    }

    fn fetch_boundary(buf: &mut Self::Boundary, pos: usize, _spare: &mut Vec<M>) -> Option<M> {
        buf[pos].take()
    }
}

/// One encoded message span inside an arena: `(offset, len)` in bytes.
/// `u32` halves the table's footprint; a >4 GiB per-round arena is
/// rejected loudly at store time.
type Span = (u32, u32);

fn make_span(start: usize, end: usize) -> Span {
    (
        u32::try_from(start).expect("arena exceeded 4 GiB in one round"),
        u32::try_from(end - start).expect("single message exceeded 4 GiB"),
    )
}

/// The arena slot backend: each slot is a byte span into a per-round bump
/// buffer, written and read through the [`Wire`] codec.
///
/// Scattering appends the encoded message to `bytes` and records the span;
/// gathering decodes the span into a recycled message value
/// ([`Wire::decode_into`] on a spare, so no allocation once capacities have
/// reached their high-water mark).  [`PlaneStore::reset_round`] truncates
/// `bytes` without freeing, so one warmed-up arena serves every later round
/// — and, via [`crate::pool`], every later run — allocation-free.
#[derive(Debug)]
pub struct ArenaPlane<M> {
    spans: Vec<Span>,
    /// Duplicate-port detection since the last round reset.
    occupied: FixedBitSet,
    /// Slots currently holding an undelivered message.
    filled: FixedBitSet,
    bytes: Vec<u8>,
    _msg: PhantomData<fn(M) -> M>,
}

impl<M> ArenaPlane<M> {
    /// A plane with `len` empty slots over an empty arena.
    #[must_use]
    pub fn new(len: usize) -> Self {
        Self {
            spans: vec![(0, 0); len],
            occupied: FixedBitSet::new(len),
            filled: FixedBitSet::new(len),
            bytes: Vec::new(),
            _msg: PhantomData,
        }
    }

    /// Number of slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when the plane has no slots at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Bytes currently sitting in the arena (encoded, undelivered traffic
    /// of the round being scattered) — exposed for benches and tests.
    #[must_use]
    pub fn arena_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Empties every slot, the occupancy tracking and the arena without
    /// freeing any buffer.
    pub fn clear(&mut self) {
        self.occupied.clear();
        self.filled.clear();
        self.bytes.clear();
    }
}

impl<M: Wire + Send + 'static> PlaneStore<M> for ArenaPlane<M> {
    type Boundary = ArenaBoundary;

    const RECYCLES: bool = true;

    fn with_len(len: usize) -> Self {
        Self::new(len)
    }

    fn slot_count(&self) -> usize {
        self.len()
    }

    fn store(&mut self, slot: usize, msg: M, spare: &mut Vec<M>) -> Result<(), SlotOccupied> {
        let stored = self.store_ref(slot, &msg);
        // Whether stored or rejected as a duplicate, the value itself is
        // spent: recycle its allocations for a future decode.  Capped at
        // one plane's worth — a gather pass can never revive more spares
        // than there are slots, so anything beyond that is a leak that
        // grows the pool forever under by-value senders.
        if spare.len() < self.spans.len() {
            spare.push(msg);
        }
        stored
    }

    fn store_ref(&mut self, slot: usize, msg: &M) -> Result<(), SlotOccupied> {
        if !self.occupied.insert(slot) {
            return Err(SlotOccupied {
                slot,
                len: self.spans.len(),
            });
        }
        let start = self.bytes.len();
        msg.encode(&mut self.bytes);
        self.spans[slot] = make_span(start, self.bytes.len());
        self.filled.insert(slot);
        Ok(())
    }

    fn fetch(&mut self, slot: usize, spare: &mut Vec<M>) -> Option<M> {
        if !self.filled.remove(slot) {
            return None;
        }
        let (offset, len) = self.spans[slot];
        let span = &self.bytes[offset as usize..offset as usize + len as usize];
        Some(decode_span(span, spare))
    }

    fn reset_round(&mut self) {
        debug_assert_eq!(
            self.filled.count(),
            0,
            "arena reset with undelivered messages"
        );
        self.occupied.clear();
        self.bytes.clear();
    }

    fn prepare(&mut self, len: usize) {
        if self.spans.len() != len {
            self.spans.clear();
            self.spans.resize(len, (0, 0));
            self.occupied = FixedBitSet::new(len);
            self.filled = FixedBitSet::new(len);
            self.bytes.clear();
        } else {
            self.clear();
        }
    }

    fn new_boundary(len: usize) -> Self::Boundary {
        ArenaBoundary {
            spans: vec![(0, 0); len],
            filled: FixedBitSet::new(len),
            bytes: Vec::new(),
        }
    }

    fn export_boundary(&mut self, slots: &[usize], slot_base: usize, out: &mut Self::Boundary) {
        // The parity discipline guarantees a producer never exports into a
        // buffer the consumer has `mem::take`n (they touch opposite
        // parities), so `out` is always the properly sized buffer built by
        // `new_boundary` — same contract as the inline backend.
        debug_assert_eq!(out.spans.len(), slots.len());
        out.bytes.clear();
        for (pos, &slot) in slots.iter().enumerate() {
            let local = slot - slot_base;
            if self.filled.remove(local) {
                let (offset, len) = self.spans[local];
                let start = out.bytes.len();
                out.bytes.extend_from_slice(
                    &self.bytes[offset as usize..offset as usize + len as usize],
                );
                out.spans[pos] = make_span(start, out.bytes.len());
                out.filled.insert(pos);
            } else {
                out.filled.remove(pos);
            }
        }
    }

    fn fetch_boundary(buf: &mut Self::Boundary, pos: usize, spare: &mut Vec<M>) -> Option<M> {
        if !buf.filled.remove(pos) {
            return None;
        }
        let (offset, len) = buf.spans[pos];
        let span = &buf.bytes[offset as usize..offset as usize + len as usize];
        Some(decode_span(span, spare))
    }
}

fn decode_span<M: Wire>(span: &[u8], spare: &mut Vec<M>) -> M {
    let mut reader = WireReader::new(span);
    let msg = match spare.pop() {
        Some(mut revived) => {
            revived.decode_into(&mut reader);
            revived
        }
        None => M::decode(&mut reader),
    };
    debug_assert!(reader.is_exhausted(), "decode did not consume its span");
    msg
}

/// The arena backend's cross-shard exchange buffer: the boundary slots'
/// encoded bytes, copied (not re-encoded) out of the producer shard's plane.
/// Like the plane's own arena, its byte buffer is reset, never freed.
#[derive(Debug, Default)]
pub struct ArenaBoundary {
    spans: Vec<Span>,
    filled: FixedBitSet,
    bytes: Vec<u8>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_take_round_trip() {
        let mut p: MessagePlane<u32> = MessagePlane::new(4);
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
        assert!(p.put(2, 77).is_ok());
        assert_eq!(p.take(2), Some(77));
        assert_eq!(p.take(2), None);
    }

    #[test]
    fn duplicate_put_surfaces_the_slot_until_occupancy_reset() {
        let mut p: MessagePlane<u32> = MessagePlane::new(2);
        assert!(p.put(0, 1).is_ok());
        assert_eq!(
            p.put(0, 2),
            Err(SlotOccupied { slot: 0, len: 2 }),
            "second write to the same slot must be rejected with the slot"
        );
        assert_eq!(p.take(0), Some(1), "the first message must be preserved");
        p.clear_occupancy();
        assert!(p.put(0, 3).is_ok());
        assert_eq!(p.take(0), Some(3));
    }

    #[test]
    fn empty_plane() {
        let mut p: MessagePlane<()> = MessagePlane::new(0);
        assert!(p.is_empty());
        p.clear_occupancy();
    }

    #[test]
    fn clear_drops_messages_and_occupancy() {
        let mut p: MessagePlane<u32> = MessagePlane::new(3);
        assert!(p.put(1, 9).is_ok());
        p.clear();
        assert_eq!(p.take(1), None);
        assert!(p.put(1, 4).is_ok(), "clear must reset occupancy");
        assert_eq!(p.len(), 3, "clear must not resize");
    }

    #[test]
    fn prepare_clears_stale_messages_and_resizes() {
        let mut p: MessagePlane<u32> = MessagePlane::new(3);
        assert!(p.put(1, 9).is_ok());
        p.prepare(3);
        assert_eq!(p.take(1), None, "prepare must drop stale messages");
        assert!(p.put(1, 4).is_ok(), "prepare must reset occupancy");
        p.prepare(5);
        assert_eq!(p.len(), 5);
        assert_eq!(
            p.take(1),
            None,
            "a growing prepare must drop messages in retained slots"
        );
        assert!(p.put(4, 1).is_ok());
        assert!(p.put(1, 6).is_ok());
        p.prepare(2);
        assert_eq!(p.len(), 2);
        assert_eq!(p.take(1), None, "a shrinking prepare must drop messages");
    }

    fn arena_cycle(p: &mut ArenaPlane<Vec<u64>>, spare: &mut Vec<Vec<u64>>) {
        assert!(p.store_ref(0, &vec![1, 2, 3]).is_ok());
        assert!(p.store(2, vec![9; 10], spare).is_ok());
        assert_eq!(
            PlaneStore::store(p, 2, vec![4], spare),
            Err(SlotOccupied { slot: 2, len: 4 }),
            "duplicate slot must be rejected"
        );
        let got = p.fetch(0, spare).expect("slot 0 holds a message");
        assert_eq!(got, vec![1, 2, 3]);
        spare.push(got); // what the executor's inbox recycling does
        assert_eq!(p.fetch(0, spare), None, "a span is delivered only once");
        assert_eq!(p.fetch(1, spare), None);
        let got = p.fetch(2, spare).expect("slot 2 holds a message");
        assert_eq!(got, vec![9; 10], "first write wins");
        spare.push(got);
        p.reset_round();
    }

    #[test]
    fn arena_store_fetch_round_trip_and_reuse() {
        let mut p: ArenaPlane<Vec<u64>> = ArenaPlane::new(4);
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
        let mut spare: Vec<Vec<u64>> = Vec::new();
        arena_cycle(&mut p, &mut spare);
        assert_eq!(p.arena_bytes(), 0, "reset_round must empty the arena");
        let capacity_before = spare.iter().map(Vec::capacity).max().unwrap_or(0);
        assert!(capacity_before >= 10, "spent values must be recycled");
        // A second identical round must revive spares instead of allocating
        // bigger ones.
        arena_cycle(&mut p, &mut spare);
        assert!(spare.iter().map(Vec::capacity).max().unwrap_or(0) >= capacity_before);
    }

    #[test]
    fn arena_prepare_drops_stale_state_and_resizes() {
        let mut p: ArenaPlane<u64> = ArenaPlane::new(3);
        let mut spare = Vec::new();
        assert!(p.store(1, 7, &mut spare).is_ok());
        PlaneStore::<u64>::prepare(&mut p, 3);
        assert_eq!(p.fetch(1, &mut spare), None, "prepare must drop messages");
        assert!(p.store(1, 8, &mut spare).is_ok(), "occupancy must reset");
        PlaneStore::<u64>::prepare(&mut p, 6);
        assert_eq!(p.len(), 6);
        assert!(p.store(5, 1, &mut spare).is_ok());
        PlaneStore::<u64>::prepare(&mut p, 2);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn arena_boundary_copies_encoded_spans() {
        let mut p: ArenaPlane<Vec<u64>> = ArenaPlane::new(6);
        let mut spare: Vec<Vec<u64>> = Vec::new();
        // Shard view: plane covers global slots 10..16.
        assert!(p.store_ref(2, &vec![5, 6]).is_ok());
        assert!(p.store_ref(4, &vec![7]).is_ok());
        let boundary_slots = [12usize, 13, 14];
        let mut buf = <ArenaPlane<Vec<u64>> as PlaneStore<Vec<u64>>>::new_boundary(3);
        p.export_boundary(&boundary_slots, 10, &mut buf);
        assert_eq!(
            p.fetch(2, &mut spare),
            None,
            "exported slots must be drained"
        );
        assert_eq!(
            ArenaPlane::<Vec<u64>>::fetch_boundary(&mut buf, 0, &mut spare),
            Some(vec![5, 6])
        );
        assert_eq!(
            ArenaPlane::<Vec<u64>>::fetch_boundary(&mut buf, 0, &mut spare),
            None,
            "a position is consumed only once"
        );
        assert_eq!(
            ArenaPlane::<Vec<u64>>::fetch_boundary(&mut buf, 1, &mut spare),
            None
        );
        assert_eq!(
            ArenaPlane::<Vec<u64>>::fetch_boundary(&mut buf, 2, &mut spare),
            Some(vec![7])
        );
        // A re-export overwrites every position.
        p.reset_round();
        assert!(p.store_ref(3, &vec![8, 8]).is_ok());
        p.export_boundary(&boundary_slots, 10, &mut buf);
        assert_eq!(
            ArenaPlane::<Vec<u64>>::fetch_boundary(&mut buf, 0, &mut spare),
            None
        );
        assert_eq!(
            ArenaPlane::<Vec<u64>>::fetch_boundary(&mut buf, 1, &mut spare),
            Some(vec![8, 8])
        );
    }

    #[test]
    fn inline_boundary_matches_arena_boundary_semantics() {
        let mut p: MessagePlane<u64> = MessagePlane::new(4);
        assert!(p.put(1, 42).is_ok());
        let mut buf = <MessagePlane<u64> as PlaneStore<u64>>::new_boundary(2);
        let mut spare = Vec::new();
        p.export_boundary(&[1, 2], 0, &mut buf);
        assert_eq!(
            MessagePlane::<u64>::fetch_boundary(&mut buf, 0, &mut spare),
            Some(42)
        );
        assert_eq!(
            MessagePlane::<u64>::fetch_boundary(&mut buf, 1, &mut spare),
            None
        );
    }

    #[test]
    fn backing_labels_round_trip_and_cover_all() {
        for backing in Backing::ALL {
            assert_eq!(backing.as_str().parse::<Backing>(), Ok(backing));
            assert_eq!(backing.to_string(), backing.as_str());
        }
        let err = "mmap".parse::<Backing>().unwrap_err();
        assert!(err.to_string().contains("mmap"));
        assert!(err.to_string().contains("arena"));
        // The retired tagged-cell backing is refused like any other name.
        assert!("hybrid".parse::<Backing>().is_err());
    }
}

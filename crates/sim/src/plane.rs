//! The flat message plane: preallocated per-`(node, port)` message slots,
//! generic over the slot storage backend.
//!
//! A plane owns one slot per edge endpoint (the graph's dense CSR slot
//! space, see `lma_graph::CsrAdjacency`).  Senders *scatter* into their own
//! slots; receivers *gather* by reading the mirror slot of each of their
//! ports.  The runtime keeps two planes and swaps them every round
//! (double-buffering), so the steady-state loop performs **no** per-round
//! allocation.
//!
//! **Slot state.**  A slot is full exactly while it holds an undelivered
//! message, and its own content is the only record of that: an inline slot
//! is `Some`, an arena slot's span is not the `EMPTY` sentinel.  Every way
//! a message leaves a slot — a gather's `fetch`, a shard's
//! `export_boundary`, a consumer's `fetch_boundary` — empties it.  Both
//! engines hand a plane to scatter only after every slot has been gathered
//! or exported (the `reset_round` debug assertion checks it), so the
//! scatter plane is empty by construction, and a model violation — a node
//! sending twice through one port in a round — is a store into a full slot.
//! `reset_round` therefore writes no slot; only checkout (`prepare`) clears
//! every slot, once per run, because an aborted run (or one whose programs
//! sent on their final round) leaves messages behind.
//!
//! Two interchangeable backends implement the crate-private `PlaneStore`
//! trait (selected by [`Backing`] on `RunConfig`; both plane engines work
//! with either):
//!
//! * `MessagePlane` — **inline** `Option<M>` slots.  Delivery moves the
//!   message value; nothing is encoded.  The right default for fixed-size
//!   (`Copy`-ish) messages, where moving *is* free.
//! * `ArenaPlane` — **arena** slots: each slot is an `(offset, len)` span
//!   into a per-round byte bump buffer, filled through the [`Wire`] codec.
//!   Scattering encodes into the arena and gathering decodes into recycled
//!   message values, so variable-size payloads (`Vec`-carrying gossip
//!   messages) stop heap-allocating per message: the arena is *reset* (not
//!   freed) every round and grows to the high-water mark once.
//!
//! The engines call a backend directly, generic over `S: PlaneStore<M>`.
//! Planes are also reused *across* runs: both engines check their plane
//! pairs out of a per-thread pool (see [`crate::pool`]) — the one-thread
//! engine one pair over the whole slot space, the shard-parallel engine one
//! pair per shard over the shard's contiguous slot range.  The
//! shard-parallel engine ships cross-shard traffic through the backend's
//! exchange buffers (`PlaneStore::Boundary`: owned values for the inline
//! backend, copied byte spans for the arena backend).
//!
//! A third backing, 16-byte tagged cells that spilled to the arena above
//! 15 encoded bytes, was retired because it won no measured cell: inline
//! beat it on every committed `bench_substrate` cell (gossip ring/4096:
//! 34.0 vs 51.6 ms, 1-core host), and on a 2-core host arena beat it on
//! sharded gossip (gnp/2048, two threads: 37.3 vs 40.9 ms).

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
    /// Inline `Option<M>` slot storage.
    #[default]
    Inline,
    /// Byte-arena slot storage.
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

/// Returned when storing into a full slot: a node sent twice through one
/// port in a round (see the [module docs](self)).  Carries the slot, in the
/// plane's index space, so the kernel reports the exact port in
/// `RunError::MalformedOutbox` instead of silently dropping the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlotOccupied {
    /// The full slot the second message was stored into.
    pub slot: usize,
}

/// A slot-storage backend for the message plane: the storage contract every
/// plane engine (one-thread, shard-parallel) is generic over.
///
/// A slot is full exactly while it holds an undelivered message; every
/// method that takes a message out empties its slot, and the scatter plane
/// is empty by construction (see the [module docs](self)).
///
/// The `spare` parameter threaded through [`PlaneStore::store`] and
/// [`PlaneStore::fetch`] is the executor's recycling pool of message
/// values: backends that serialize (`ArenaPlane`) park spent messages
/// there on store and revive them (via [`Wire::decode_into`]) on fetch, so
/// steady-state rounds allocate nothing; the inline backend ignores it
/// (messages move through the slots themselves).
pub(crate) trait PlaneStore<M>: Send + Sized + 'static {
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
    #[cfg(test)]
    fn slot_count(&self) -> usize;

    /// Stores `msg` into `slot`, consuming it (serializing backends park the
    /// spent value in `spare`).
    ///
    /// # Errors
    /// [`SlotOccupied`] when the slot is full; the first message is
    /// preserved.
    fn store(&mut self, slot: usize, msg: M, spare: &mut Vec<M>) -> Result<(), SlotOccupied>;

    /// Stores a copy of `msg` into `slot` without consuming it — the
    /// broadcast fast path: the arena encodes straight from the reference
    /// (no clone at all), the inline backend clones.
    ///
    /// # Errors
    /// Exactly as [`PlaneStore::store`].
    fn store_ref(&mut self, slot: usize, msg: &M) -> Result<(), SlotOccupied>;

    /// Takes the message out of `slot`, if any, emptying the slot (reviving
    /// a `spare` value in serializing backends).
    fn fetch(&mut self, slot: usize, spare: &mut Vec<M>) -> Option<M>;

    /// Readies the drained plane for the next round of scattering: the
    /// arena's bytes are reset (not freed); no slot is written.  The caller
    /// guarantees every slot has been gathered or exported, which debug
    /// builds assert.
    fn reset_round(&mut self);

    /// Resizes to `len` slots and empties every slot, making the plane
    /// indistinguishable from a freshly built one while reusing its
    /// allocations (the pool checkout path: an aborted run may have left
    /// messages behind).
    fn prepare(&mut self, len: usize);

    /// An exchange buffer with `len` dense, empty positions.
    fn new_boundary(len: usize) -> Self::Boundary;

    /// Drains this plane's boundary slots (`slots`, global indices; the
    /// plane's slot 0 is global `slot_base`) into `out`, position by
    /// position — the producer half of the shard-parallel engine's cross-shard
    /// hand-off.  Every position is overwritten (empty slots clear it).
    fn export_boundary(&mut self, slots: &[usize], slot_base: usize, out: &mut Self::Boundary);

    /// Takes the message at `pos` out of an exchange buffer, if any,
    /// emptying the position — the consumer half of the hand-off.
    fn fetch_boundary(buf: &mut Self::Boundary, pos: usize, spare: &mut Vec<M>) -> Option<M>;
}

/// The inline slot backend: a preallocated, reusable buffer of `Option<M>`
/// message slots indexed by the graph's dense `(node, port)` slot space.
#[derive(Debug)]
pub(crate) struct MessagePlane<M> {
    slots: Vec<Option<M>>,
}

impl<M: Clone + Send + 'static> PlaneStore<M> for MessagePlane<M> {
    type Boundary = Vec<Option<M>>;

    const RECYCLES: bool = false;

    fn with_len(len: usize) -> Self {
        Self {
            slots: (0..len).map(|_| None).collect(),
        }
    }

    #[cfg(test)]
    fn slot_count(&self) -> usize {
        self.slots.len()
    }

    fn store(&mut self, slot: usize, msg: M, _spare: &mut Vec<M>) -> Result<(), SlotOccupied> {
        match &mut self.slots[slot] {
            Some(_) => Err(SlotOccupied { slot }),
            empty => {
                *empty = Some(msg);
                Ok(())
            }
        }
    }

    fn store_ref(&mut self, slot: usize, msg: &M) -> Result<(), SlotOccupied> {
        self.store(slot, msg.clone(), &mut Vec::new())
    }

    fn fetch(&mut self, slot: usize, _spare: &mut Vec<M>) -> Option<M> {
        self.slots[slot].take()
    }

    fn reset_round(&mut self) {
        debug_assert!(
            self.slots.iter().all(Option::is_none),
            "inline reset with undelivered messages"
        );
    }

    fn prepare(&mut self, len: usize) {
        self.slots.clear();
        self.slots.resize_with(len, || None);
    }

    fn new_boundary(len: usize) -> Self::Boundary {
        (0..len).map(|_| None).collect()
    }

    fn export_boundary(&mut self, slots: &[usize], slot_base: usize, out: &mut Self::Boundary) {
        debug_assert_eq!(out.len(), slots.len());
        for (pos, &slot) in slots.iter().enumerate() {
            out[pos] = self.slots[slot - slot_base].take();
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

/// The span of an empty slot.  No stored span equals it: [`make_span`]
/// keeps `offset + len` within a `u32`.
const EMPTY: Span = (u32::MAX, u32::MAX);

fn make_span(start: usize, end: usize) -> Span {
    let end = u32::try_from(end).expect("arena exceeded 4 GiB in one round");
    let start = u32::try_from(start).expect("a span starts at or before its end");
    (start, end - start)
}

/// Empties position `i` of `spans` and returns the bytes it held in
/// `bytes`, if it was full.
fn take_span<'a>(spans: &mut [Span], i: usize, bytes: &'a [u8]) -> Option<&'a [u8]> {
    let span = std::mem::replace(&mut spans[i], EMPTY);
    (span != EMPTY).then(|| &bytes[span.0 as usize..(span.0 + span.1) as usize])
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
pub(crate) struct ArenaPlane<M> {
    /// One span per slot, [`EMPTY`] unless the slot holds a message.
    spans: Vec<Span>,
    bytes: Vec<u8>,
    _msg: PhantomData<fn(M) -> M>,
}

impl<M: Wire + Send + 'static> PlaneStore<M> for ArenaPlane<M> {
    type Boundary = ArenaBoundary;

    const RECYCLES: bool = true;

    fn with_len(len: usize) -> Self {
        Self {
            spans: vec![EMPTY; len],
            bytes: Vec::new(),
            _msg: PhantomData,
        }
    }

    #[cfg(test)]
    fn slot_count(&self) -> usize {
        self.spans.len()
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
        if self.spans[slot] != EMPTY {
            return Err(SlotOccupied { slot });
        }
        let start = self.bytes.len();
        msg.encode(&mut self.bytes);
        self.spans[slot] = make_span(start, self.bytes.len());
        Ok(())
    }

    fn fetch(&mut self, slot: usize, spare: &mut Vec<M>) -> Option<M> {
        take_span(&mut self.spans, slot, &self.bytes).map(|span| decode_span(span, spare))
    }

    fn reset_round(&mut self) {
        debug_assert!(
            self.spans.iter().all(|&span| span == EMPTY),
            "arena reset with undelivered messages"
        );
        self.bytes.clear();
    }

    fn prepare(&mut self, len: usize) {
        self.spans.clear();
        self.spans.resize(len, EMPTY);
        self.bytes.clear();
    }

    fn new_boundary(len: usize) -> Self::Boundary {
        ArenaBoundary {
            spans: vec![EMPTY; len],
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
            out.spans[pos] = match take_span(&mut self.spans, slot - slot_base, &self.bytes) {
                Some(span) => {
                    let start = out.bytes.len();
                    out.bytes.extend_from_slice(span);
                    make_span(start, out.bytes.len())
                }
                None => EMPTY,
            };
        }
    }

    fn fetch_boundary(buf: &mut Self::Boundary, pos: usize, spare: &mut Vec<M>) -> Option<M> {
        take_span(&mut buf.spans, pos, &buf.bytes).map(|span| decode_span(span, spare))
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
/// encoded bytes, copied (not re-encoded) out of the producer shard's plane,
/// one span per position, [`EMPTY`] where the slot was empty.  Like the
/// plane's own arena, its byte buffer is reset, never freed.
#[derive(Debug, Default)]
pub(crate) struct ArenaBoundary {
    spans: Vec<Span>,
    bytes: Vec<u8>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inline(len: usize) -> MessagePlane<u32> {
        MessagePlane::with_len(len)
    }

    #[test]
    fn put_take_round_trip() {
        let mut p = inline(4);
        assert_eq!(p.slot_count(), 4);
        assert!(p.store(2, 77, &mut Vec::new()).is_ok());
        assert_eq!(p.fetch(2, &mut Vec::new()), Some(77));
        assert_eq!(p.fetch(2, &mut Vec::new()), None);
    }

    #[test]
    fn duplicate_put_surfaces_the_slot_until_occupancy_reset() {
        let mut p = inline(2);
        let spare = &mut Vec::new();
        assert!(p.store(0, 1, spare).is_ok());
        assert_eq!(
            p.store_ref(0, &2),
            Err(SlotOccupied { slot: 0 }),
            "second write to the same slot must be rejected with the slot"
        );
        assert_eq!(
            p.fetch(0, spare),
            Some(1),
            "the first message must be preserved"
        );
        p.reset_round();
        assert!(p.store(0, 3, spare).is_ok(), "a fetch empties the slot");
        assert_eq!(p.fetch(0, spare), Some(3));
    }

    #[test]
    fn empty_plane() {
        let mut p: MessagePlane<()> = MessagePlane::with_len(0);
        assert_eq!(p.slot_count(), 0);
        p.reset_round();
    }

    #[test]
    fn clear_drops_messages_and_occupancy() {
        let mut p = inline(3);
        let spare = &mut Vec::new();
        assert!(p.store(1, 9, spare).is_ok());
        p.prepare(3);
        assert_eq!(p.fetch(1, spare), None, "prepare must drop stale messages");
        assert!(p.store(1, 4, spare).is_ok(), "prepare must empty the slot");
        assert_eq!(p.slot_count(), 3, "a same-size prepare must not resize");
    }

    #[test]
    fn prepare_clears_stale_messages_and_resizes() {
        let mut p = inline(3);
        let spare = &mut Vec::new();
        assert!(p.store(1, 9, spare).is_ok());
        p.prepare(5);
        assert_eq!(p.slot_count(), 5);
        assert_eq!(
            p.fetch(1, spare),
            None,
            "a growing prepare must drop messages in retained slots"
        );
        assert!(p.store(4, 1, spare).is_ok());
        assert!(p.store(1, 6, spare).is_ok());
        p.prepare(2);
        assert_eq!(p.slot_count(), 2);
        assert_eq!(
            p.fetch(1, spare),
            None,
            "a shrinking prepare must drop messages"
        );
    }

    fn arena_cycle(p: &mut ArenaPlane<Vec<u64>>, spare: &mut Vec<Vec<u64>>) {
        assert!(p.store_ref(0, &vec![1, 2, 3]).is_ok());
        assert!(p.store(2, vec![9; 10], spare).is_ok());
        assert_eq!(
            p.store(2, vec![4], spare),
            Err(SlotOccupied { slot: 2 }),
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
        let mut p: ArenaPlane<Vec<u64>> = ArenaPlane::with_len(4);
        assert_eq!(p.slot_count(), 4);
        let mut spare: Vec<Vec<u64>> = Vec::new();
        arena_cycle(&mut p, &mut spare);
        assert!(p.bytes.is_empty(), "reset_round must empty the arena");
        let capacity_before = spare.iter().map(Vec::capacity).max().unwrap_or(0);
        assert!(capacity_before >= 10, "spent values must be recycled");
        // A second identical round must revive spares instead of allocating
        // bigger ones.
        arena_cycle(&mut p, &mut spare);
        assert!(spare.iter().map(Vec::capacity).max().unwrap_or(0) >= capacity_before);
    }

    #[test]
    fn arena_prepare_drops_stale_state_and_resizes() {
        let mut p: ArenaPlane<u64> = ArenaPlane::with_len(3);
        let mut spare = Vec::new();
        assert!(p.store(1, 7, &mut spare).is_ok());
        p.prepare(3);
        assert_eq!(p.fetch(1, &mut spare), None, "prepare must drop messages");
        assert!(
            p.store(1, 8, &mut spare).is_ok(),
            "prepare must empty the slot"
        );
        p.prepare(6);
        assert_eq!(p.slot_count(), 6);
        assert_eq!(
            p.fetch(1, &mut spare),
            None,
            "a growing prepare must drop messages"
        );
        assert!(p.store(5, 1, &mut spare).is_ok());
        p.prepare(2);
        assert_eq!(p.slot_count(), 2);
        assert!(p.bytes.is_empty(), "prepare must empty the arena");
    }

    #[test]
    fn arena_boundary_copies_encoded_spans() {
        type Arena = ArenaPlane<Vec<u64>>;
        let mut p = Arena::with_len(6);
        let mut spare: Vec<Vec<u64>> = Vec::new();
        // Shard view: plane covers global slots 10..16.
        assert!(p.store_ref(2, &vec![5, 6]).is_ok());
        assert!(p.store_ref(4, &vec![7]).is_ok());
        let boundary_slots = [12usize, 13, 14];
        let mut buf = Arena::new_boundary(3);
        p.export_boundary(&boundary_slots, 10, &mut buf);
        assert_eq!(
            p.fetch(2, &mut spare),
            None,
            "exported slots must be drained"
        );
        assert_eq!(
            Arena::fetch_boundary(&mut buf, 0, &mut spare),
            Some(vec![5, 6])
        );
        assert_eq!(
            Arena::fetch_boundary(&mut buf, 0, &mut spare),
            None,
            "a position is consumed only once"
        );
        assert_eq!(Arena::fetch_boundary(&mut buf, 1, &mut spare), None);
        assert_eq!(
            Arena::fetch_boundary(&mut buf, 2, &mut spare),
            Some(vec![7])
        );
        // A re-export overwrites every position.
        p.reset_round();
        assert!(p.store_ref(3, &vec![8, 8]).is_ok());
        p.export_boundary(&boundary_slots, 10, &mut buf);
        assert_eq!(Arena::fetch_boundary(&mut buf, 0, &mut spare), None);
        assert_eq!(
            Arena::fetch_boundary(&mut buf, 1, &mut spare),
            Some(vec![8, 8])
        );
    }

    #[test]
    fn inline_boundary_matches_arena_boundary_semantics() {
        type Inline = MessagePlane<u64>;
        let mut p = Inline::with_len(4);
        let mut spare = Vec::new();
        assert!(p.store(1, 42, &mut spare).is_ok());
        let mut buf = Inline::new_boundary(2);
        p.export_boundary(&[1, 2], 0, &mut buf);
        assert_eq!(
            p.fetch(1, &mut spare),
            None,
            "exported slots must be drained"
        );
        assert_eq!(Inline::fetch_boundary(&mut buf, 0, &mut spare), Some(42));
        assert_eq!(Inline::fetch_boundary(&mut buf, 0, &mut spare), None);
        assert_eq!(Inline::fetch_boundary(&mut buf, 1, &mut spare), None);
    }

    /// A plane reset with a message still in a slot: the kernel skipped a
    /// gather, and the next round would report a spurious duplicate port.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "undelivered")]
    fn inline_reset_with_an_undelivered_message_panics() {
        let mut p = inline(2);
        assert!(p.store(1, 5, &mut Vec::new()).is_ok());
        p.reset_round();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "undelivered")]
    fn arena_reset_with_an_undelivered_message_panics() {
        let mut p: ArenaPlane<u64> = ArenaPlane::with_len(2);
        assert!(p.store(1, 5, &mut Vec::new()).is_ok());
        p.reset_round();
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

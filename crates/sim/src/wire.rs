//! The wire codec: byte encodings for message payloads.
//!
//! The arena-backed message plane ([`Backing::Arena`](crate::Backing::Arena))
//! stores every message as a contiguous byte span inside a per-round bump
//! buffer instead of an in-memory `Option<M>` slot.  That requires a codec:
//! [`Wire`] types know how to *encode* themselves onto the end of a byte
//! buffer and how to *decode* themselves back from a [`WireReader`] over the
//! stored span.
//!
//! Design points:
//!
//! * **Derived for free for POD payloads** — implementations for the
//!   primitive types, tuples, `Option<T>` and `Vec<T>` compose, and the
//!   [`wire_struct!`](crate::wire_struct) macro derives a field-by-field
//!   codec for plain structs, so only genuinely structured messages (enums,
//!   recursive trees) need a hand-written impl.
//! * **In-process only** — the bytes never leave the simulator, so the
//!   format carries no version header and decoding *panics* on malformed
//!   input (which can only mean a codec bug; the `wire_roundtrip` proptest
//!   suite pins `decode ∘ encode = id` for every implementation in the
//!   workspace).
//! * **Reuse-friendly** — [`Wire::decode_into`] overwrites an existing value
//!   in place; the `Vec<T>` implementation reuses the vector's allocation,
//!   which is what makes arena-backed gossip allocation-free in steady state
//!   (the executor recycles gathered messages through a spare pool and
//!   decodes into them).
//! * **Honest sizing** — every encoding is at most a constant factor larger
//!   than the message's [`BitSized`](crate::message::BitSized) accounting:
//!   the round-trip suite also pins `bit_size() <= 8 * encoded_len` so the
//!   arena can never silently blow up the CONGEST bookkeeping's idea of a
//!   message.
//!
//! Integers use LEB128 varints, so the common small values (ports, node
//! identifiers, weights) cost one or two bytes.

/// Appends `x` to `out` as a LEB128 varint (7 payload bits per byte, high
/// bit = continuation).
pub fn write_varint(out: &mut Vec<u8>, mut x: u64) {
    loop {
        let byte = (x & 0x7f) as u8; // lint: allow(codec-cast) — masked to 7 bits, cannot truncate
        x >>= 7;
        if x == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// A cursor over one encoded message span.
///
/// All read methods panic on truncated input: spans are produced by
/// [`Wire::encode`] in the same process, so running out of bytes is a codec
/// bug, not an input error.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over `buf`, positioned at its start.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Reads one byte.
    pub fn byte(&mut self) -> u8 {
        let b = self.buf[self.pos]; // lint: allow(codec-panic) — trusted in-process span; socket bytes go through serve's CheckedReader
        self.pos += 1;
        b
    }

    /// Reads one LEB128 varint.
    pub fn varint(&mut self) -> u64 {
        let mut x = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte();
            x |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return x;
            }
            shift += 7;
            // lint: allow(codec-panic) — trusted in-process span; socket bytes go through serve's CheckedReader
            assert!(shift < 64, "varint longer than 64 bits");
        }
    }

    /// Reads `n` raw bytes as a slice — one bounds check for a whole block,
    /// so fixed-stride payload codecs can decode field-by-field inside the
    /// block with no further checks.
    pub fn bytes(&mut self, n: usize) -> &'a [u8] {
        let span = &self.buf[self.pos..self.pos + n]; // lint: allow(codec-panic) — trusted in-process span; socket bytes go through serve's CheckedReader
        self.pos += n;
        span
    }

    /// True when every byte of the span has been consumed (used by the
    /// plane's debug assertions: a decode must consume its span exactly).
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// A message payload with a byte encoding (see the module docs).
///
/// Every [`crate::NodeAlgorithm::Msg`] must implement `Wire` so any program
/// can run on either plane backing ([`crate::plane::Backing`]); programs
/// that only ever use the inline backing still pay nothing — the codec is
/// invoked solely by the arena plane.
pub trait Wire: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value, advancing the reader past it.
    fn decode(r: &mut WireReader<'_>) -> Self;

    /// Decodes one value *over* `self`, reusing `self`'s allocations where
    /// possible (the default just replaces `self`; containers override it).
    fn decode_into(&mut self, r: &mut WireReader<'_>) {
        *self = Self::decode(r);
    }
}

impl Wire for () {
    fn encode(&self, _out: &mut Vec<u8>) {}

    fn decode(_r: &mut WireReader<'_>) -> Self {}
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn decode(r: &mut WireReader<'_>) -> Self {
        r.byte() != 0
    }
}

impl Wire for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn decode(r: &mut WireReader<'_>) -> Self {
        r.byte()
    }
}

impl Wire for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, u64::from(*self));
    }

    fn decode(r: &mut WireReader<'_>) -> Self {
        // lint: allow(codec-panic) — trusted in-process span; socket bytes go through serve's CheckedReader
        u32::try_from(r.varint()).expect("u32 varint out of range")
    }
}

impl Wire for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, *self);
    }

    fn decode(r: &mut WireReader<'_>) -> Self {
        r.varint()
    }
}

impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, *self as u64); // lint: allow(codec-cast) — usize → u64 is lossless on every supported target
    }

    fn decode(r: &mut WireReader<'_>) -> Self {
        // lint: allow(codec-panic) — trusted in-process span; socket bytes go through serve's CheckedReader
        usize::try_from(r.varint()).expect("usize varint out of range")
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Self {
        (r.byte() != 0).then(|| T::decode(r))
    }

    fn decode_into(&mut self, r: &mut WireReader<'_>) {
        if r.byte() == 0 {
            *self = None;
        } else {
            match self {
                Some(v) => v.decode_into(r),
                None => *self = Some(T::decode(r)),
            }
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, self.len() as u64); // lint: allow(codec-cast) — usize → u64 is lossless on every supported target
        for item in self {
            item.encode(out);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Self {
        // lint: allow(codec-panic) — trusted in-process span; socket bytes go through serve's CheckedReader
        let len = usize::try_from(r.varint()).expect("length varint out of range");
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(T::decode(r));
        }
        v
    }

    fn decode_into(&mut self, r: &mut WireReader<'_>) {
        // Reuse the allocation: after the first few rounds prime the
        // capacity, steady-state decodes of flat item types allocate
        // nothing.
        // lint: allow(codec-panic) — trusted in-process span; socket bytes go through serve's CheckedReader
        let len = usize::try_from(r.varint()).expect("length varint out of range");
        self.clear();
        self.reserve(len);
        for _ in 0..len {
            self.push(T::decode(r));
        }
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, self.len() as u64); // lint: allow(codec-cast) — usize → u64 is lossless on every supported target
        out.extend_from_slice(self.as_bytes());
    }

    fn decode(r: &mut WireReader<'_>) -> Self {
        // lint: allow(codec-panic) — trusted in-process span; socket bytes go through serve's CheckedReader
        let len = usize::try_from(r.varint()).expect("length varint out of range");
        // lint: allow(codec-panic) — trusted in-process span; socket bytes go through serve's CheckedReader
        String::from_utf8(r.bytes(len).to_vec()).expect("string bytes were not UTF-8")
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Self {
        (A::decode(r), B::decode(r))
    }

    fn decode_into(&mut self, r: &mut WireReader<'_>) {
        self.0.decode_into(r);
        self.1.decode_into(r);
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Self {
        (A::decode(r), B::decode(r), C::decode(r))
    }

    fn decode_into(&mut self, r: &mut WireReader<'_>) {
        self.0.decode_into(r);
        self.1.decode_into(r);
        self.2.decode_into(r);
    }
}

/// Derives a field-by-field [`Wire`] implementation for a plain struct with
/// named fields — the "derived for free" path for POD message types:
///
/// ```ignore
/// lma_sim::wire_struct!(EdgeFact { a, b, w });
/// ```
///
/// Fields are encoded in the listed order; every field type must itself
/// implement [`Wire`].
#[macro_export]
macro_rules! wire_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            fn encode(&self, out: &mut ::std::vec::Vec<u8>) {
                $( $crate::wire::Wire::encode(&self.$field, out); )+
            }

            fn decode(r: &mut $crate::wire::WireReader<'_>) -> Self {
                Self { $( $field: $crate::wire::Wire::decode(r) ),+ }
            }

            fn decode_into(&mut self, r: &mut $crate::wire::WireReader<'_>) {
                $( $crate::wire::Wire::decode_into(&mut self.$field, r); )+
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) -> usize {
        let mut bytes = Vec::new();
        v.encode(&mut bytes);
        let mut r = WireReader::new(&bytes);
        assert_eq!(T::decode(&mut r), v);
        assert!(r.is_exhausted(), "decode must consume the span exactly");
        bytes.len()
    }

    #[test]
    fn varint_edges() {
        for x in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut out = Vec::new();
            write_varint(&mut out, x);
            assert!(out.len() <= 10);
            assert_eq!(WireReader::new(&out).varint(), x);
        }
    }

    #[test]
    fn string_round_trips() {
        assert_eq!(round_trip(String::new()), 1);
        round_trip("flood".to_string());
        round_trip("ünïcodé — 16 bytes?".to_string());
        // Length is the byte length, varint-prefixed like `Vec<u8>`.
        let mut bytes = Vec::new();
        "ab".to_string().encode(&mut bytes);
        assert_eq!(bytes, vec![2, b'a', b'b']);
    }

    #[test]
    fn primitive_round_trips() {
        round_trip(());
        round_trip(true);
        round_trip(false);
        round_trip(7u8);
        round_trip(u32::MAX);
        round_trip(u64::MAX);
        round_trip(0usize);
        round_trip(Some(9u64));
        round_trip(None::<u64>);
        round_trip(vec![1u64, 2, 3]);
        round_trip((4u64, true));
        round_trip((1u64, 2u64, 3u64));
    }

    #[test]
    fn decode_into_reuses_vec_allocation() {
        let big = vec![5u64; 64];
        let mut bytes = Vec::new();
        big.encode(&mut bytes);
        let mut target: Vec<u64> = Vec::with_capacity(64);
        target.decode_into(&mut WireReader::new(&bytes));
        assert_eq!(target, big);
        let ptr = target.as_ptr();
        let small = vec![9u64; 3];
        bytes.clear();
        small.encode(&mut bytes);
        target.decode_into(&mut WireReader::new(&bytes));
        assert_eq!(target, small);
        assert_eq!(target.as_ptr(), ptr, "decode_into must keep the buffer");
    }

    #[test]
    #[should_panic(expected = "varint longer than 64 bits")]
    fn over_long_varint_panics() {
        let bytes = [0x80u8; 11];
        WireReader::new(&bytes).varint();
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Sample {
        a: u64,
        b: Vec<u32>,
        c: bool,
    }

    crate::wire_struct!(Sample { a, b, c });

    #[test]
    fn wire_struct_macro_derives_field_order_codec() {
        let s = Sample {
            a: 77,
            b: vec![1, 2, 3],
            c: true,
        };
        round_trip(s.clone());
        let mut bytes = Vec::new();
        s.encode(&mut bytes);
        let mut other = Sample {
            a: 0,
            b: Vec::new(),
            c: false,
        };
        other.decode_into(&mut WireReader::new(&bytes));
        assert_eq!(other, s);
    }
}

//! Exact bit-level advice strings.
//!
//! Advice sizes in the paper are measured in **bits**, and the whole point of
//! the results is the difference between `Θ(log n)`, `Θ(log² n)` and `O(1)`
//! bits — so advice is represented bit-by-bit, never rounded up to bytes.

use lma_graph::heap::vec_bytes;
use lma_graph::HeapSize;

/// A growable string of bits.
///
/// The representation is a plain `Vec<bool>`: advice strings are tiny (at
/// most `O(log² n)` bits per node), so clarity wins over packing.
///
/// ```
/// use lma_advice::BitString;
///
/// let mut advice = BitString::new();
/// advice.push(true);          // an orientation bit
/// advice.push_uint(5, 3);     // a 3-bit rank
/// assert_eq!(advice.len(), 4);
/// assert_eq!(advice.to_bit_string(), "1101");
///
/// let mut reader = advice.reader();
/// assert_eq!(reader.read_bit(), Some(true));
/// assert_eq!(reader.read_uint(3), Some(5));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct BitString {
    bits: Vec<bool>,
}

impl BitString {
    /// The empty bit string (the advice of a node that receives none).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Length in bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True for the empty string.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Appends a single bit.
    pub fn push(&mut self, bit: bool) {
        self.bits.push(bit);
    }

    /// Appends the `width` low-order bits of `value`, most significant first.
    ///
    /// # Panics
    /// Panics if `value` does not fit in `width` bits.
    pub fn push_uint(&mut self, value: u64, width: usize) {
        assert!(
            width >= 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        for k in (0..width).rev() {
            self.bits.push((value >> k) & 1 == 1);
        }
    }

    /// Appends all bits of another string.
    pub fn extend(&mut self, other: &BitString) {
        self.bits.extend_from_slice(&other.bits);
    }

    /// The bit at position `i`.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<bool> {
        self.bits.get(i).copied()
    }

    /// Iterates over the bits.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        self.bits.iter().copied()
    }

    /// The bits as a slice of booleans.
    #[must_use]
    pub fn as_slice(&self) -> &[bool] {
        &self.bits
    }

    /// Builds a string from an iterator of bits.
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        Self {
            bits: bits.into_iter().collect(),
        }
    }

    /// A reader positioned at the start of the string.
    #[must_use]
    pub fn reader(&self) -> BitReader<'_> {
        BitReader {
            bits: &self.bits,
            pos: 0,
        }
    }

    /// A reader positioned at `pos`.
    #[must_use]
    pub fn reader_at(&self, pos: usize) -> BitReader<'_> {
        BitReader {
            bits: &self.bits,
            pos: pos.min(self.bits.len()),
        }
    }

    /// Renders the string as a sequence of `0`/`1` characters (for debugging
    /// and for golden tests).
    #[must_use]
    pub fn to_bit_string(&self) -> String {
        self.bits
            .iter()
            .map(|&b| if b { '1' } else { '0' })
            .collect()
    }
}

impl HeapSize for BitString {
    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.bits)
    }
}

impl std::fmt::Display for BitString {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_bit_string())
    }
}

/// A cursor over a [`BitString`].
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bits: &'a [bool],
    pos: usize,
}

impl BitReader<'_> {
    /// Current position in bits.
    #[must_use]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Number of unread bits.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bits.len() - self.pos
    }

    /// Reads one bit.
    pub fn read_bit(&mut self) -> Option<bool> {
        let b = self.bits.get(self.pos).copied();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    /// Reads a `width`-bit unsigned integer (most significant bit first).
    /// Returns `None` when fewer than `width` bits remain.
    pub fn read_uint(&mut self, width: usize) -> Option<u64> {
        if self.remaining() < width || width > 64 {
            return None;
        }
        let mut v = 0u64;
        for _ in 0..width {
            v = (v << 1) | u64::from(self.bits[self.pos]);
            self.pos += 1;
        }
        Some(v)
    }

    /// Reads `count` raw bits into a vector.
    pub fn read_bits(&mut self, count: usize) -> Option<Vec<bool>> {
        if self.remaining() < count {
            return None;
        }
        let out = self.bits[self.pos..self.pos + count].to_vec();
        self.pos += count;
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn push_and_read_uint_round_trip() {
        let mut s = BitString::new();
        s.push_uint(5, 3);
        s.push_uint(0, 2);
        s.push_uint(1023, 10);
        assert_eq!(s.len(), 15);
        let mut r = s.reader();
        assert_eq!(r.read_uint(3), Some(5));
        assert_eq!(r.read_uint(2), Some(0));
        assert_eq!(r.read_uint(10), Some(1023));
        assert_eq!(r.read_uint(1), None);
    }

    #[test]
    fn display_and_get() {
        let mut s = BitString::new();
        s.push(true);
        s.push(false);
        s.push(true);
        assert_eq!(s.to_bit_string(), "101");
        assert_eq!(format!("{s}"), "101");
        assert_eq!(s.get(1), Some(false));
        assert_eq!(s.get(3), None);
    }

    #[test]
    fn extend_concatenates() {
        let mut a = BitString::from_bits([true, true]);
        let b = BitString::from_bits([false, true]);
        a.extend(&b);
        assert_eq!(a.to_bit_string(), "1101");
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn push_uint_overflow_panics() {
        let mut s = BitString::new();
        s.push_uint(8, 3);
    }

    #[test]
    fn reader_at_and_read_bits() {
        let s = BitString::from_bits([true, false, true, true, false]);
        let mut r = s.reader_at(2);
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.read_bits(2), Some(vec![true, true]));
        assert_eq!(r.read_bits(2), None);
        assert_eq!(r.read_bits(1), Some(vec![false]));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn empty_string_behaviour() {
        let s = BitString::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.reader().read_bit(), None);
    }

    proptest! {
        #[test]
        fn uint_round_trip_any_width(value in 0u64..u64::MAX, width in 1usize..64) {
            let masked = if width == 64 { value } else { value & ((1 << width) - 1) };
            let mut s = BitString::new();
            s.push_uint(masked, width);
            prop_assert_eq!(s.len(), width);
            prop_assert_eq!(s.reader().read_uint(width), Some(masked));
        }

        #[test]
        fn bit_sequence_round_trip(bits in proptest::collection::vec(any::<bool>(), 0..200)) {
            let s = BitString::from_bits(bits.clone());
            prop_assert_eq!(s.len(), bits.len());
            let collected: Vec<bool> = s.iter().collect();
            prop_assert_eq!(collected, bits);
        }
    }
}

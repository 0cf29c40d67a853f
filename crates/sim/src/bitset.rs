//! A tiny fixed-capacity bitset.
//!
//! The round executor needs one bit per `(node, port)` slot to detect
//! duplicate port use while scattering outboxes.  The seed implementation
//! allocated a `HashSet<Port>` per node per round for this; a single
//! preallocated bitset over the dense slot space does the same job with no
//! per-round allocation and a word-parallel clear.

/// A fixed-capacity set of `usize` keys in `0..len`, backed by `u64` words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixedBitSet {
    words: Vec<u64>,
    len: usize,
}

impl Default for FixedBitSet {
    /// An empty set over an empty key space (every query is false).
    fn default() -> Self {
        Self::new(0)
    }
}

impl FixedBitSet {
    /// An empty set over the key space `0..len`.
    #[must_use]
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// The key-space size the set was created with.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Inserts `key`; returns `true` when the key was newly inserted and
    /// `false` when it was already present (`HashSet::insert` semantics).
    ///
    /// # Panics
    /// Panics if `key >= capacity()`.
    pub fn insert(&mut self, key: usize) -> bool {
        assert!(
            key < self.len,
            "key {key} out of range for bitset of {}",
            self.len
        );
        let (word, bit) = (key / 64, 1u64 << (key % 64));
        let fresh = self.words[word] & bit == 0;
        self.words[word] |= bit;
        fresh
    }

    /// True when `key` is in the set.
    #[must_use]
    pub fn contains(&self, key: usize) -> bool {
        key < self.len && self.words[key / 64] & (1 << (key % 64)) != 0
    }

    /// Removes `key`; returns `true` when the key was present (the arena
    /// plane uses this as its "take" on the slot-filled set).
    ///
    /// # Panics
    /// Panics if `key >= capacity()`.
    pub fn remove(&mut self, key: usize) -> bool {
        assert!(
            key < self.len,
            "key {key} out of range for bitset of {}",
            self.len
        );
        let (word, bit) = (key / 64, 1u64 << (key % 64));
        let present = self.words[word] & bit != 0;
        self.words[word] &= !bit;
        present
    }

    /// Calls `f` on every key in the set, in ascending order.
    pub fn for_each(&self, mut f: impl FnMut(usize)) {
        for (i, &word) in self.words.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                f(i * 64 + rest.trailing_zeros() as usize);
                rest &= rest - 1;
            }
        }
    }

    /// Removes every key (word-parallel; no allocation).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of keys currently in the set.
    #[must_use]
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_reports_freshness() {
        let mut s = FixedBitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(0));
        assert!(!s.insert(129));
        assert!(s.contains(0));
        assert!(s.contains(129));
        assert!(!s.contains(64));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn clear_empties_without_shrinking() {
        let mut s = FixedBitSet::new(200);
        for k in (0..200).step_by(3) {
            s.insert(k);
        }
        s.clear();
        assert_eq!(s.count(), 0);
        assert!(!s.contains(0));
        assert_eq!(s.capacity(), 200);
        assert!(s.insert(0));
    }

    #[test]
    fn remove_reports_presence() {
        let mut s = FixedBitSet::new(70);
        s.insert(69);
        assert!(s.remove(69));
        assert!(!s.remove(69));
        assert!(!s.contains(69));
        assert!(s.insert(69), "removal must make the key insertable again");
    }

    #[test]
    fn contains_is_false_out_of_range() {
        let s = FixedBitSet::new(10);
        assert!(!s.contains(10));
        assert!(!s.contains(1000));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        FixedBitSet::new(4).insert(4);
    }
}

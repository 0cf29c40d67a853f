//! Retained-memory accounting: the heap bytes a value owns.
//!
//! A byte-bounded cache (the oracle and graph cache of `lma-serve`) charges
//! every value it retains by what the value keeps alive: its inline
//! `size_of` plus [`HeapSize::heap_bytes`].  Vectors count by capacity, not
//! length — spare capacity is retained memory too — and by the malloc
//! chunk that holds the buffer ([`vec_bytes`]), so a value made of many
//! small buffers is charged what it takes, not what it asked for.

/// Heap bytes a value owns beyond its inline `size_of`.
pub trait HeapSize {
    /// Bytes of heap memory owned by `self`, each buffer charged its malloc
    /// chunk, allocator overhead included ([`vec_bytes`]).
    fn heap_bytes(&self) -> usize;
}

impl HeapSize for () {
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// The heap bytes of a vector's own buffer, by capacity and allocator
/// overhead: a non-empty buffer of `b` bytes is charged
/// `max(32, round_up(b + 8, 16))`, glibc's malloc chunk on 64-bit Linux and
/// an estimate elsewhere.  Elements that own heap memory themselves are the
/// caller's to add.
#[must_use]
pub fn vec_bytes<T>(v: &Vec<T>) -> usize {
    match v.capacity() * std::mem::size_of::<T>() {
        0 => 0,
        bytes => (bytes + 8).next_multiple_of(16).max(32),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::ring;
    use crate::weights::WeightStrategy;
    use crate::Partition;

    #[test]
    fn vectors_count_by_capacity() {
        let mut v: Vec<u64> = Vec::with_capacity(10);
        v.push(1);
        assert_eq!(vec_bytes(&v), 96);
        assert_eq!(vec_bytes(&Vec::<u64>::new()), 0);
        assert_eq!(().heap_bytes(), 0);
    }

    #[test]
    fn graphs_and_partitions_grow_with_n() {
        let small = ring(16, WeightStrategy::DistinctRandom { seed: 1 });
        let large = ring(1024, WeightStrategy::DistinctRandom { seed: 1 });
        // Every edge is charged its record plus a CSR entry and a mirror
        // slot at each endpoint, three records' worth of bytes, so the
        // charge is at least linear in m.
        assert!(large.heap_bytes() >= 1024 * 3 * std::mem::size_of::<crate::EdgeRecord>());
        assert!(large.heap_bytes() > 32 * small.heap_bytes());
        let p = Partition::new(large.csr(), 4);
        assert!(p.heap_bytes() >= 2 * 1024 * std::mem::size_of::<u64>());
    }
}

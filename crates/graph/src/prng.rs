//! Deterministic, dependency-free pseudo-random number generation.
//!
//! Every randomized component of the reproduction (graph generators, weight
//! assignments, experiment sweeps) draws its randomness from [`SplitMix64`],
//! a tiny 64-bit PRNG with excellent statistical behaviour for this purpose
//! and — crucially — a one-word state that makes every experiment exactly
//! reproducible from a single `u64` seed: the tables those seeds produce
//! are pinned byte for byte in `EXPERIMENTS.lock`.
//!
//! The `rand` crate is still used by `proptest` in the test suites; this
//! module exists so that *library* behaviour never depends on `rand`'s
//! version-to-version API or stream changes.

/// A [SplitMix64](https://prng.di.unimi.it/splitmix64.c) pseudo-random number
/// generator.
///
/// The generator passes BigCrush when used as a 64-bit stream and is the
/// standard seeding procedure for the xoshiro family.  It is more than
/// adequate for generating test graphs and weights.
///
/// ```
/// use lma_graph::SplitMix64;
///
/// let mut rng = SplitMix64::new(42);
/// let x = rng.next_below(10);
/// assert!(x < 10);
/// // Same seed, same stream: experiments are reproducible.
/// assert_eq!(SplitMix64::new(42).next_below(10), x);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.  Different seeds give independent
    /// streams for all practical purposes.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a uniformly distributed value in `0..bound`.
    ///
    /// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below requires a positive bound");
        // Rejection sampling on the top bits keeps the distribution exact.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniformly distributed `usize` in `0..bound`.
    pub fn next_index(&mut self, bound: usize) -> usize {
        self.next_below(bound as u64) as usize
    }

    /// Returns a uniformly distributed value in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn next_in_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "next_in_range requires lo <= hi");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.next_below(span + 1)
    }

    /// Returns a pseudo-random `f64` uniformly distributed in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, data: &mut [T]) {
        let n = data.len();
        if n < 2 {
            return;
        }
        for i in (1..n).rev() {
            let j = self.next_index(i + 1);
            data.swap(i, j);
        }
    }

    /// Returns a random permutation of `0..n`.
    #[must_use]
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }

    /// Samples `k` distinct values from `0..n` (in arbitrary order).
    ///
    /// # Panics
    /// Panics if `k > n`.
    #[must_use]
    pub fn sample_distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct values from 0..{n}");
        // Partial Fisher–Yates over an index vector; O(n) memory but simple
        // and exact.  Graphs in this workspace are at most ~10^5 nodes.
        let mut pool: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.next_index(n - i);
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }

    /// Derives an independent child generator; useful for splitting a single
    /// experiment seed into per-task streams without correlation.
    #[must_use]
    pub fn split(&mut self) -> Self {
        Self::new(self.next_u64() ^ 0xA5A5_A5A5_DEAD_BEEF)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = SplitMix64::new(7);
        for bound in [1u64, 2, 3, 10, 97, 1 << 33] {
            for _ in 0..200 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_below_covers_small_range() {
        let mut rng = SplitMix64::new(11);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[rng.next_below(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn next_in_range_inclusive() {
        let mut rng = SplitMix64::new(3);
        let mut hit_lo = false;
        let mut hit_hi = false;
        for _ in 0..2000 {
            let v = rng.next_in_range(10, 13);
            assert!((10..=13).contains(&v));
            hit_lo |= v == 10;
            hit_hi |= v == 13;
        }
        assert!(hit_lo && hit_hi);
    }

    #[test]
    fn next_f64_unit_interval() {
        let mut rng = SplitMix64::new(5);
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SplitMix64::new(9);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn permutation_has_every_element_once() {
        let mut rng = SplitMix64::new(13);
        let p = rng.permutation(64);
        let mut seen = [false; 64];
        for &x in &p {
            assert!(!seen[x]);
            seen[x] = true;
        }
    }

    #[test]
    fn sample_distinct_has_no_duplicates() {
        let mut rng = SplitMix64::new(17);
        let s = rng.sample_distinct(100, 30);
        assert_eq!(s.len(), 30);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 30);
        assert!(sorted.iter().all(|&x| x < 100));
    }

    #[test]
    #[should_panic(expected = "positive bound")]
    fn next_below_zero_panics() {
        SplitMix64::new(1).next_below(0);
    }

    #[test]
    fn split_streams_are_uncorrelated_enough() {
        let mut root = SplitMix64::new(99);
        let mut a = root.split();
        let mut b = root.split();
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn next_bool_extremes() {
        let mut rng = SplitMix64::new(21);
        for _ in 0..100 {
            assert!(!rng.next_bool(0.0));
            assert!(rng.next_bool(1.0));
        }
    }
}

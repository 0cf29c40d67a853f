//! Server-side instrumentation: request counters, the group-width
//! histogram, the executing-group gauge, and queue/total latency
//! percentiles.
//!
//! Latencies are kept in a bounded ring of recent samples (the last
//! [`SAMPLE_WINDOW`] requests); percentiles are computed over a sorted copy
//! at snapshot time.  That keeps the steady-state cost of recording one
//! sample at "push into a `VecDeque`" and bounds memory no matter how long
//! the server lives.

use crate::cache::HotCache;
use crate::proto::StatsReport;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// How many recent samples the latency percentiles are computed over.
pub const SAMPLE_WINDOW: usize = 4096;

/// A bounded ring of latency samples (nanoseconds).
#[derive(Debug, Default)]
struct SampleRing {
    samples: VecDeque<u64>,
}

impl SampleRing {
    fn record(&mut self, ns: u64) {
        if self.samples.len() == SAMPLE_WINDOW {
            self.samples.pop_front();
        }
        self.samples.push_back(ns);
    }

    /// `(p50, p99)` over the retained window; zeros when empty.
    fn percentiles(&self) -> (u64, u64) {
        if self.samples.is_empty() {
            return (0, 0);
        }
        let mut sorted: Vec<u64> = self.samples.iter().copied().collect();
        sorted.sort_unstable();
        (percentile(&sorted, 50), percentile(&sorted, 99))
    }
}

/// The nearest-rank percentile of an ascending-sorted non-empty slice.
#[must_use]
pub fn percentile(sorted: &[u64], pct: u32) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    assert!((1..=100).contains(&pct), "percentile rank out of range");
    let rank = (sorted.len() * pct as usize).div_ceil(100);
    sorted[rank.max(1) - 1]
}

/// The server's metrics (see the module docs).
#[derive(Debug, Default)]
pub struct Metrics {
    served: AtomicU64,
    failed: AtomicU64,
    coalesced: AtomicU64,
    in_flight_groups: AtomicU64,
    batch_widths: Mutex<BTreeMap<u32, u64>>,
    queue_ns: Mutex<SampleRing>,
    total_ns: Mutex<SampleRing>,
}

impl Metrics {
    /// Fresh all-zero metrics.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one executed group — one run — answering `width` requests.
    pub fn record_batch(&self, width: u32) {
        *self
            .batch_widths
            .lock()
            .expect("batch histogram poisoned")
            .entry(width)
            .or_insert(0) += 1;
        if width >= 2 {
            self.coalesced
                .fetch_add(u64::from(width), Ordering::Relaxed);
        }
    }

    /// Marks one group as executing (the `in_flight_groups` gauge).
    pub fn group_started(&self) {
        self.in_flight_groups.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks one group as answered; the server calls it before the group's
    /// replies go out.
    pub fn group_finished(&self) {
        self.in_flight_groups.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records one successfully served request and its latencies.
    pub fn record_served(&self, queue_ns: u64, total_ns: u64) {
        self.served.fetch_add(1, Ordering::Relaxed);
        self.queue_ns
            .lock()
            .expect("queue samples poisoned")
            .record(queue_ns);
        self.total_ns
            .lock()
            .expect("total samples poisoned")
            .record(total_ns);
    }

    /// Records one failed request (admission or execution).
    pub fn record_failed(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshots everything into a wire-ready [`StatsReport`], reading the
    /// hit/miss counters and size gauges off `cache`; the server passes its
    /// executor-pool size and admission-queue length.
    #[must_use]
    pub fn snapshot(&self, cache: &HotCache, executors: usize, queue_depth: usize) -> StatsReport {
        let (graph_stats, partition_stats, oracle_stats) = (
            cache.graph_stats(),
            cache.partition_stats(),
            cache.oracle_stats(),
        );
        let gauges = cache.gauges();
        let (queue_p50_ns, queue_p99_ns) = self
            .queue_ns
            .lock()
            .expect("queue samples poisoned")
            .percentiles();
        let (total_p50_ns, total_p99_ns) = self
            .total_ns
            .lock()
            .expect("total samples poisoned")
            .percentiles();
        StatsReport {
            served: self.served.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            graph_hits: graph_stats.0,
            graph_misses: graph_stats.1,
            partition_hits: partition_stats.0,
            partition_misses: partition_stats.1,
            oracle_hits: oracle_stats.0,
            oracle_misses: oracle_stats.1,
            batch_widths: self
                .batch_widths
                .lock()
                .expect("batch histogram poisoned")
                .iter()
                .map(|(&w, &c)| (w, c))
                .collect(),
            queue_p50_ns,
            queue_p99_ns,
            total_p50_ns,
            total_p99_ns,
            cache_entries: gauges.entries,
            cache_bytes: gauges.bytes,
            cache_evictions: gauges.evictions,
            executors: executors as u64,
            queue_depth: queue_depth as u64,
            in_flight_groups: self.in_flight_groups.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50), 50);
        assert_eq!(percentile(&sorted, 99), 99);
        assert_eq!(percentile(&sorted, 100), 100);
        assert_eq!(percentile(&[7], 50), 7);
        assert_eq!(percentile(&[7], 99), 7);
    }

    #[test]
    fn snapshot_reflects_recorded_activity() {
        let m = Metrics::new();
        m.record_batch(1);
        m.record_batch(8);
        m.record_batch(8);
        for i in 0..17 {
            m.record_served(100 + i, 1000 + i);
        }
        m.record_failed();
        m.group_started();
        m.group_started();
        m.group_finished();
        let cache = HotCache::new();
        let ring = lma_graph::generators::Family::from_name("ring").unwrap();
        cache.graph(ring, 12, 1);
        cache.graph(ring, 12, 1);
        let s = m.snapshot(&cache, 2, 3);
        assert_eq!(s.served, 17);
        assert_eq!(s.failed, 1);
        assert_eq!(s.coalesced, 16);
        assert_eq!(s.batch_widths, vec![(1, 1), (8, 2)]);
        assert_eq!((s.graph_hits, s.graph_misses), (1, 1));
        assert_eq!((s.cache_entries, s.cache_evictions), (1, 0));
        assert_eq!(s.cache_bytes, cache.gauges().bytes);
        assert_eq!((s.executors, s.queue_depth, s.in_flight_groups), (2, 3, 1));
        assert!(s.queue_p50_ns >= 100 && s.queue_p99_ns <= 116);
        assert!(s.total_p50_ns >= 1000);
    }

    #[test]
    fn sample_ring_is_bounded() {
        let mut ring = SampleRing::default();
        for i in 0..(SAMPLE_WINDOW as u64 * 2) {
            ring.record(i);
        }
        assert_eq!(ring.samples.len(), SAMPLE_WINDOW);
        // Only the most recent window is retained.
        assert_eq!(*ring.samples.front().unwrap(), SAMPLE_WINDOW as u64);
    }
}

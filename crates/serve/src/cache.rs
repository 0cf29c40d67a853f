//! The server's hot-state cache: interned graphs, partitions and prepared
//! oracles shared across requests, under a byte budget.
//!
//! Everything the per-request pipeline would otherwise recompute is keyed by
//! the topology identity `(family, n, seed)` — the same triple that names a
//! scenario in `SCENARIOS.lock` — and lives in that topology's one entry:
//!
//! * **Graph** — `Family::instantiate` is deterministic per seed, so one
//!   [`WeightedGraph`] serves every request for the same topology.
//! * **Partitions** — one per shard count; handed to
//!   [`Sim::with_partition`](lma_sim::Sim::with_partition) so repeated
//!   sharded runs skip the BFS-order partitioning pass.
//! * **Oracles** — a workload's centralized prepare product
//!   ([`PreparedOracle`]), one per workload name.  Prepare *failures* are
//!   never cached: a transiently failing prepare must stay observable, and
//!   the erased box has nothing to store anyway.
//!
//! **The budget.**  The cache retains at most [`CACHE_BUDGET_BYTES`]
//! (64 MiB) — a constant, not a server knob.  Every retained byte is
//! charged to its entry: the graph and each partition by their vectors'
//! capacities ([`HeapSize`]), each oracle by its prep's inline size plus
//! heap ([`DynWorkload::oracle_bytes`]), and the map slot and list slots
//! that hold them.  Each heap buffer is charged its malloc chunk, allocator
//! overhead included ([`vec_bytes`](lma_graph::heap::vec_bytes)): an
//! oracle's advice is hundreds of small bit strings, each taking a 32-byte
//! chunk for its 8 bytes.
//!
//! **The LRU rule.**  Every lookup and every store stamps the entry with a
//! fresh value of one use counter.  After a store, whole topologies are
//! evicted in ascending stamp order (least recently used first) until the
//! retained bytes fit the budget again — but never the entry just stored
//! into, so a topology larger than the whole budget is still served (and
//! is, for as long as it stays the most recent, the only entry).  Stamps
//! are unique and kept in an ordered index, so the victim is found in
//! `O(log entries)` and never depends on map iteration order.
//!
//! **Eviction under a live request.**  Lookups hand out `Arc` clones.
//! Evicting a topology drops only the cache's references and stops
//! charging its bytes; a request still holding the graph, partition or
//! oracle keeps running on them, and the memory is freed when its last
//! clone drops.  A later request for the topology rebuilds it — prepare is
//! deterministic per graph, so the rebuilt entry folds the same digests.
//!
//! One mutex guards the map and the byte count; graphs, partitions and
//! oracles are built outside it (a racing duplicate build is harmless, the
//! first store wins).  Hit/miss counters are atomics so the stats snapshot
//! never takes a lock it does not need.

use lma_graph::{generators::Family, weights::WeightStrategy, HeapSize, Partition, WeightedGraph};
use lma_sim::{DynWorkload, PreparedOracle, WorkloadError};
use std::collections::{BTreeMap, HashMap};
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// The bytes the cache may retain before it evicts whole topologies (see
/// the module docs).
pub const CACHE_BUDGET_BYTES: usize = 64 << 20;

/// A topology identity: `(family name, n, seed)`.  Family names are the
/// stable `&'static str`s of [`Family::name`], so the key is `Copy`-cheap.
pub type TopologyKey = (&'static str, usize, u64);

/// One hit/miss counter pair.
#[derive(Debug, Default)]
struct HitMiss {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl HitMiss {
    fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    fn read(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// The cache's size gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheGauges {
    /// Topologies currently retained.
    pub entries: u64,
    /// Bytes currently charged (see the module docs).
    pub bytes: u64,
    /// Topologies evicted over the cache's lifetime.
    pub evictions: u64,
}

/// Everything cached for one topology.
#[derive(Debug)]
struct Entry {
    graph: Arc<WeightedGraph>,
    partitions: Vec<(usize, Arc<Partition>)>,
    oracles: Vec<(&'static str, Arc<PreparedOracle>)>,
    /// Bytes charged for this entry.
    bytes: usize,
    /// The use counter's value at the entry's last lookup or store.
    last_use: u64,
}

impl Entry {
    fn partition(&self, shards: usize) -> Option<Arc<Partition>> {
        self.partitions
            .iter()
            .find(|(s, _)| *s == shards)
            .map(|(_, p)| Arc::clone(p))
    }

    fn oracle(&self, workload: &str) -> Option<Arc<PreparedOracle>> {
        self.oracles
            .iter()
            .find(|(w, _)| *w == workload)
            .map(|(_, o)| Arc::clone(o))
    }
}

/// Pushes `value` onto `list` and returns the bytes that retains:
/// `value_bytes` plus any growth of the list's capacity.
fn push_charged<T>(list: &mut Vec<T>, value: T, value_bytes: usize) -> usize {
    let before = list.capacity();
    list.push(value);
    value_bytes + (list.capacity() - before) * size_of::<T>()
}

/// The map and its accounting, behind the cache's one mutex.
#[derive(Debug, Default)]
struct Entries {
    map: HashMap<TopologyKey, Entry>,
    /// Every entry's key under its `last_use` stamp: the LRU order.
    by_use: BTreeMap<u64, TopologyKey>,
    /// Sum of every entry's `bytes`.
    bytes: usize,
    /// The use counter.
    clock: u64,
    evictions: u64,
}

impl Entries {
    /// `key`'s entry, if cached, stamped as used.
    fn lookup(&mut self, key: &TopologyKey) -> Option<&mut Entry> {
        self.clock += 1;
        let entry = self.map.get_mut(key)?;
        self.by_use.remove(&entry.last_use);
        self.by_use.insert(self.clock, *key);
        entry.last_use = self.clock;
        Some(entry)
    }

    /// `key`'s entry, stamped as used — created around `graph`, and charged
    /// for it, when the topology is not (or no longer) cached.
    fn entry(&mut self, key: TopologyKey, graph: &Arc<WeightedGraph>) -> &mut Entry {
        self.clock += 1;
        let now = self.clock;
        let total = &mut self.bytes;
        let entry = self.map.entry(key).or_insert_with(|| {
            let bytes = size_of::<(TopologyKey, Entry)>()
                + size_of::<(u64, TopologyKey)>()
                + size_of::<WeightedGraph>()
                + graph.heap_bytes();
            *total += bytes;
            Entry {
                graph: Arc::clone(graph),
                partitions: Vec::new(),
                oracles: Vec::new(),
                bytes,
                last_use: now,
            }
        });
        self.by_use.remove(&entry.last_use);
        self.by_use.insert(now, key);
        entry.last_use = now;
        entry
    }

    /// Evicts least-recently-used entries other than `keep` until the
    /// retained bytes fit `budget`, or `keep` is all that is left.  `keep`
    /// carries the newest stamp, so the oldest is always another entry.
    fn evict(&mut self, keep: &TopologyKey, budget: usize) {
        while self.bytes > budget {
            let Some((&stamp, &victim)) = self.by_use.first_key_value() else {
                break;
            };
            if victim == *keep {
                break;
            }
            self.by_use.remove(&stamp);
            let evicted = self
                .map
                .remove(&victim)
                .expect("every stamp names an entry");
            self.bytes -= evicted.bytes;
            self.evictions += 1;
        }
    }
}

/// The hot-state cache (see the module docs).
#[derive(Debug)]
pub struct HotCache {
    budget: usize,
    entries: Mutex<Entries>,
    graph_stats: HitMiss,
    partition_stats: HitMiss,
    oracle_stats: HitMiss,
}

impl Default for HotCache {
    fn default() -> Self {
        Self::new()
    }
}

impl HotCache {
    /// An empty cache under [`CACHE_BUDGET_BYTES`]; nothing is reserved up
    /// front.
    #[must_use]
    pub fn new() -> Self {
        Self::with_budget(CACHE_BUDGET_BYTES)
    }

    /// An empty cache under a budget of `budget` bytes.
    #[must_use]
    fn with_budget(budget: usize) -> Self {
        Self {
            budget,
            entries: Mutex::default(),
            graph_stats: HitMiss::default(),
            partition_stats: HitMiss::default(),
            oracle_stats: HitMiss::default(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Entries> {
        self.entries.lock().expect("hot cache poisoned")
    }

    /// The interned graph for `(family, n, seed)`, building it on first use.
    pub fn graph(&self, family: Family, n: usize, seed: u64) -> Arc<WeightedGraph> {
        let key: TopologyKey = (family.name(), n, seed);
        if let Some(entry) = self.lock().lookup(&key) {
            self.graph_stats.hit();
            return Arc::clone(&entry.graph);
        }
        // Build outside the lock: graph generation is the expensive part and
        // a racing duplicate build is harmless (deterministic per seed).
        self.graph_stats.miss();
        let built = Arc::new(family.instantiate(n, WeightStrategy::DistinctRandom { seed }, seed));
        let mut entries = self.lock();
        let graph = Arc::clone(&entries.entry(key, &built).graph);
        entries.evict(&key, self.budget);
        graph
    }

    /// The interned partition of `graph` into `shards`, building it on
    /// first use.  `key` must be the topology identity `graph` was built
    /// from.
    pub fn partition(
        &self,
        key: TopologyKey,
        graph: &Arc<WeightedGraph>,
        shards: usize,
    ) -> Arc<Partition> {
        if let Some(p) = self.lock().lookup(&key).and_then(|e| e.partition(shards)) {
            self.partition_stats.hit();
            return p;
        }
        self.partition_stats.miss();
        let built = Arc::new(Partition::new(graph.csr(), shards));
        let mut entries = self.lock();
        let entry = entries.entry(key, graph);
        if let Some(raced) = entry.partition(shards) {
            return raced;
        }
        let bytes = push_charged(
            &mut entry.partitions,
            (shards, Arc::clone(&built)),
            size_of::<Partition>() + built.heap_bytes(),
        );
        entry.bytes += bytes;
        entries.bytes += bytes;
        entries.evict(&key, self.budget);
        built
    }

    /// The interned prepare product of `workload` on `graph`, running the
    /// centralized prepare on first use.  `key` must be the topology
    /// identity `graph` was built from.
    ///
    /// # Errors
    /// [`WorkloadError`] from the prepare phase; failures are not cached.
    pub fn oracle(
        &self,
        workload: &dyn DynWorkload,
        key: TopologyKey,
        graph: &Arc<WeightedGraph>,
    ) -> Result<Arc<PreparedOracle>, WorkloadError> {
        let name = workload.name();
        if let Some(o) = self.lock().lookup(&key).and_then(|e| e.oracle(name)) {
            self.oracle_stats.hit();
            return Ok(o);
        }
        self.oracle_stats.miss();
        let built = Arc::new(workload.prepare_oracle(graph)?);
        let oracle_bytes = size_of::<PreparedOracle>() + workload.oracle_bytes(&built);
        let mut entries = self.lock();
        let entry = entries.entry(key, graph);
        if let Some(raced) = entry.oracle(name) {
            return Ok(raced);
        }
        let bytes = push_charged(&mut entry.oracles, (name, Arc::clone(&built)), oracle_bytes);
        entry.bytes += bytes;
        entries.bytes += bytes;
        entries.evict(&key, self.budget);
        Ok(built)
    }

    /// Graph-cache `(hits, misses)`.
    #[must_use]
    pub fn graph_stats(&self) -> (u64, u64) {
        self.graph_stats.read()
    }

    /// Partition-cache `(hits, misses)`.
    #[must_use]
    pub fn partition_stats(&self) -> (u64, u64) {
        self.partition_stats.read()
    }

    /// Oracle-cache `(hits, misses)`.
    #[must_use]
    pub fn oracle_stats(&self) -> (u64, u64) {
        self.oracle_stats.read()
    }

    /// Retained topologies, charged bytes and lifetime evictions.
    #[must_use]
    pub fn gauges(&self) -> CacheGauges {
        let entries = self.lock();
        CacheGauges {
            entries: entries.map.len() as u64,
            bytes: entries.bytes as u64,
            evictions: entries.evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lma_bench::scenarios::{registry, LockFile};
    use lma_bench::WorkloadCatalog;
    use lma_sim::Sim;

    #[test]
    fn graphs_partitions_and_oracles_are_interned() {
        let cache = HotCache::new();
        let family = Family::from_name("ring").unwrap();
        let g1 = cache.graph(family, 48, 11);
        let g2 = cache.graph(family, 48, 11);
        assert!(Arc::ptr_eq(&g1, &g2));
        assert_eq!(cache.graph_stats(), (1, 1));

        let key: TopologyKey = (family.name(), 48, 11);
        let p1 = cache.partition(key, &g1, 2);
        let p2 = cache.partition(key, &g1, 2);
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(p1.shard_count(), 2);
        let p3 = cache.partition(key, &g1, 3);
        assert!(!Arc::ptr_eq(&p1, &p3));
        assert_eq!(cache.partition_stats(), (1, 2));

        let catalog = WorkloadCatalog::new();
        let flood = catalog.resolve("flood").unwrap();
        let o1 = cache.oracle(flood.as_ref(), key, &g1).unwrap();
        let o2 = cache.oracle(flood.as_ref(), key, &g1).unwrap();
        assert!(Arc::ptr_eq(&o1, &o2));
        // A different workload on the same topology is a distinct entry.
        let gossip = catalog.resolve("gossip").unwrap();
        let o3 = cache.oracle(gossip.as_ref(), key, &g1).unwrap();
        assert!(!Arc::ptr_eq(&o1, &o3));
        assert_eq!(cache.oracle_stats(), (1, 2));

        // One topology, one entry, charged at least the graph's heap.
        let gauges = cache.gauges();
        assert_eq!((gauges.entries, gauges.evictions), (1, 0));
        assert!(gauges.bytes as usize > g1.heap_bytes() + p1.heap_bytes() + p3.heap_bytes());
    }

    /// The retained bytes of one `ring/n` topology with the constant
    /// scheme's oracle, as this cache charges them.
    fn topology_bytes(n: usize) -> usize {
        let cache = HotCache::new();
        let family = Family::from_name("ring").unwrap();
        let graph = cache.graph(family, n, 0);
        let scheme = WorkloadCatalog::new().resolve("scheme-constant").unwrap();
        cache
            .oracle(scheme.as_ref(), (family.name(), n, 0), &graph)
            .unwrap();
        cache.gauges().bytes as usize
    }

    #[test]
    fn cycling_fresh_topologies_stays_within_the_budget() {
        // Room for about four topologies: a client cycling seeds must not
        // grow the cache past it.
        let budget = 4 * topology_bytes(96) + topology_bytes(96) / 2;
        let cache = HotCache::with_budget(budget);
        let family = Family::from_name("ring").unwrap();
        let scheme = WorkloadCatalog::new().resolve("scheme-constant").unwrap();
        for seed in 0..24u64 {
            let graph = cache.graph(family, 96, seed);
            assert!(cache.gauges().bytes as usize <= budget, "seed {seed}");
            cache
                .oracle(scheme.as_ref(), (family.name(), 96, seed), &graph)
                .unwrap();
            let gauges = cache.gauges();
            assert!(gauges.bytes as usize <= budget, "seed {seed}: {gauges:?}");
            assert!(gauges.entries >= 1 && gauges.entries <= 5, "{gauges:?}");
        }
        let gauges = cache.gauges();
        assert_eq!(gauges.entries, 4, "{gauges:?}");
        // Every topology but the four retained ones was evicted exactly once.
        assert_eq!(gauges.evictions, 24 - 4);
        assert_eq!(cache.graph_stats(), (0, 24));
    }

    #[test]
    fn a_recently_used_topology_outlives_an_older_untouched_one() {
        let budget = 3 * topology_bytes(64);
        let cache = HotCache::with_budget(budget);
        let family = Family::from_name("ring").unwrap();
        let first = cache.graph(family, 64, 1);
        cache.graph(family, 64, 2);
        cache.graph(family, 64, 3);
        // Touch seed 1, then push a fourth topology in: seed 2 is now the
        // least recently used and goes first.
        let again = cache.graph(family, 64, 1);
        assert!(Arc::ptr_eq(&first, &again));
        for seed in 4..=6 {
            cache.graph(family, 64, seed);
            if cache.gauges().evictions > 0 {
                break;
            }
        }
        assert!(cache.gauges().evictions >= 1);
        let (hits, misses) = cache.graph_stats();
        cache.graph(family, 64, 1);
        assert_eq!(
            cache.graph_stats(),
            (hits + 1, misses),
            "seed 1 must survive"
        );
        cache.graph(family, 64, 2);
        assert_eq!(
            cache.graph_stats(),
            (hits + 1, misses + 1),
            "seed 2 must be gone"
        );
    }

    #[test]
    fn a_topology_larger_than_the_budget_is_still_served() {
        let cache = HotCache::with_budget(1024);
        let family = Family::from_name("ring").unwrap();
        let small = cache.graph(family, 8, 1);
        assert_eq!(small.node_count(), 8);
        let big = cache.graph(family, 512, 1);
        assert_eq!(big.node_count(), 512);
        let key: TopologyKey = (family.name(), 512, 1);
        let partition = cache.partition(key, &big, 2);
        assert_eq!(partition.shard_count(), 2);
        // The over-budget entry is the one just stored into, so it stays;
        // everything older is gone.
        let gauges = cache.gauges();
        assert_eq!(gauges.entries, 1, "{gauges:?}");
        assert!(gauges.bytes as usize > 1024);
        assert_eq!(gauges.evictions, 1);
        // The still-held Arc of the evicted graph stays valid.
        assert_eq!(small.node_count(), 8);
    }

    #[test]
    fn an_evicted_and_rebuilt_scenario_still_folds_its_locked_digest() {
        let lock = LockFile::parse(
            &std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../SCENARIOS.lock"))
                .unwrap(),
        )
        .unwrap();
        let scenario = registry()
            .into_iter()
            .find(|s| s.id() == "scheme-constant/preferential-attachment/n48/s51")
            .expect("registry scenario");
        let golden = lock
            .get(&scenario.id())
            .expect("locked scenario")
            .digest
            .to_string();
        let catalog = WorkloadCatalog::new();
        let workload = scenario.workload.workload();
        let family = scenario.family;
        let key: TopologyKey = (family.name(), scenario.n, scenario.seed);
        // Room for a few topologies of the scenario's size.
        let cache = HotCache::with_budget(4 * topology_bytes(scenario.n));

        let serve = |cache: &HotCache| {
            let graph = cache.graph(family, scenario.n, scenario.seed);
            let oracle = cache.oracle(workload.as_ref(), key, &graph).unwrap();
            let mut w =
                catalog.fold_header(workload.name(), family.name(), scenario.n, scenario.seed);
            workload
                .run_fold_prepared(&workload.tune(Sim::on(&graph)), &oracle, &mut w)
                .unwrap();
            w.finish().to_string()
        };
        assert_eq!(serve(&cache), golden);
        let evictions = cache.gauges().evictions;
        // Push it out with fresh topologies, then serve it again.
        for seed in 1000..1010u64 {
            cache.graph(Family::from_name("ring").unwrap(), scenario.n, seed);
        }
        assert!(cache.gauges().evictions > evictions + 1);
        let (_, oracle_misses) = cache.oracle_stats();
        assert_eq!(serve(&cache), golden);
        assert_eq!(
            cache.oracle_stats().1,
            oracle_misses + 1,
            "the oracle was rebuilt"
        );
    }
}

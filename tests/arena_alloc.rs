// lint: allow-file(unsafe-code) — the counting GlobalAlloc this test exists to install; audited here, forbidden everywhere else
//! Allocation oracle for the arena-backed message plane: a **steady-state
//! gossip round must allocate nothing**, even though every message carries a
//! variable-size `Vec` payload.
//!
//! Method: this test binary installs a global *counting* allocator (the
//! whole file is test-only code, the satellite form of "a counting allocator
//! behind `#[cfg(test)]`") and runs the same `Knowledge`-gossip program for
//! two different round counts, everything else identical and pool-warmed.
//! The gossip program is the shared `FixedGossip` fixture of
//! `lma_baselines::flood_collect` (also driven by the `gossip` bench
//! group), whose payload is built at construction time.
//! The per-run fixed costs (outputs, shard bookkeeping) cancel in the
//! difference, so
//!
//! > `allocs(run of 64 rounds) - allocs(run of 40 rounds) = 24 × (per-round
//! > allocations)`
//!
//! and the arena backing must make that difference **exactly zero**.  The
//! two round counts are chosen inside one power-of-two bracket (33..=64) so
//! the `RunStats::per_round_max_bits` vector reaches the same doubled
//! capacity in both runs.  As a control, the inline backing — which clones
//! the facts vector per port per round — must show a strictly positive
//! difference, so the test cannot silently pass by measuring nothing.
//!
//! The same difference must be zero for shard-parallel runs (two threads):
//! there the arena `Knowledge` gossip and a small-`u64`-message inline
//! beacon pin that the barrier protocol — shard reports, the leader's
//! merge, the exchange buffers — reuses its buffers instead of allocating
//! per round.
//!
//! A warm run allocates nothing per *node* either: a node's `LocalView`
//! borrows the graph (the engines allocate one slice of views per run), and
//! the one-thread set and the shard-parallel engine's shard sets come from
//! the calling thread's pool.  So the same run on ring/1024 and on
//! ring/2048 must allocate exactly as often, at one thread and at two.

use lma_baselines::flood_collect::FixedGossip;
use lma_graph::generators::ring;
use lma_graph::weights::WeightStrategy;
use lma_graph::{Partition, Port};
use lma_sim::{collect_outbox, Backing, LocalView, MsgSink, NodeAlgorithm, Outbox, Sim};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Counts every allocation and reallocation served to this test binary.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's; forwarded to `System` verbatim.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's; forwarded to `System` verbatim.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's; forwarded to `System` verbatim.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// The counter is process-wide, so the tests of this binary take turns:
/// each holds this lock for its whole body, and no other test's runs land
/// in its counts.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

const FACTS: usize = 48;
/// Both round counts live in the 33..=64 capacity bracket of a doubling
/// `Vec`, so `RunStats::per_round_max_bits` grows identically in both runs.
const ROUNDS_SHORT: usize = 40;
const ROUNDS_LONG: usize = 64;

fn gossip_allocations(g: &lma_graph::WeightedGraph, sim: Sim<'_>, rounds: usize) -> u64 {
    let programs: Vec<FixedGossip> = g
        .nodes()
        .map(|u| FixedGossip::new(u as u64, FACTS, rounds))
        .collect();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = sim.run(programs).unwrap();
    assert_eq!(result.stats.rounds, rounds);
    assert!(result.outputs.iter().all(Option::is_some));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// The small-message probe: every round each node broadcasts its `u64` id
/// for a fixed number of rounds.  The sink forms are the primary implementation
/// so the program itself allocates nothing per round.
struct Beacon {
    id: u64,
    heard: u64,
    rounds_left: usize,
}

impl NodeAlgorithm for Beacon {
    type Msg = u64;
    type Output = u64;

    fn init(&mut self, view: &LocalView) -> Outbox<u64> {
        collect_outbox(|out| self.init_into(view, out))
    }

    fn round(&mut self, view: &LocalView, round: usize, inbox: &[(Port, u64)]) -> Outbox<u64> {
        collect_outbox(|out| self.round_into(view, round, inbox, out))
    }

    fn init_into(&mut self, view: &LocalView, out: &mut MsgSink<'_, u64>) {
        for port in 0..view.degree() {
            out.send(port, self.id);
        }
    }

    fn round_into(
        &mut self,
        view: &LocalView,
        _round: usize,
        inbox: &[(Port, u64)],
        out: &mut MsgSink<'_, u64>,
    ) {
        for &(_, id) in inbox {
            self.heard = self.heard.wrapping_add(id);
        }
        self.rounds_left -= 1;
        if self.rounds_left == 0 {
            return;
        }
        for port in 0..view.degree() {
            out.send(port, self.id);
        }
    }

    fn is_done(&self) -> bool {
        self.rounds_left == 0
    }

    fn output(&self) -> Option<u64> {
        (self.rounds_left == 0).then_some(self.heard)
    }
}

fn beacon_allocations(g: &lma_graph::WeightedGraph, sim: Sim<'_>, rounds: usize) -> u64 {
    let programs: Vec<Beacon> = g
        .nodes()
        .map(|u| Beacon {
            id: u as u64,
            heard: 0,
            rounds_left: rounds,
        })
        .collect();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = sim.run(programs).unwrap();
    assert_eq!(result.stats.rounds, rounds);
    assert!(result.outputs.iter().all(Option::is_some));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn arena_gossip_steady_state_allocates_nothing_per_round() {
    let _serial = serial();
    let g = ring(24, WeightStrategy::Unit);
    let on = |backing| Sim::on(&g).backing(backing);

    // Warm-up: prime the per-thread plane pool, the arenas and the spare
    // messages to their high-water marks for every backing.
    for backing in Backing::ALL {
        gossip_allocations(&g, on(backing), ROUNDS_LONG);
    }

    let arena_short = gossip_allocations(&g, on(Backing::Arena), ROUNDS_SHORT);
    let arena_long = gossip_allocations(&g, on(Backing::Arena), ROUNDS_LONG);
    assert_eq!(
        arena_long, arena_short,
        "arena-backed gossip must not allocate per round \
         ({ROUNDS_LONG}-round run: {arena_long} allocations, \
         {ROUNDS_SHORT}-round run: {arena_short})"
    );

    // Control: the inline backing clones the facts vector per message, so
    // the extra rounds must show up — proving the measurement has teeth.
    let inline_short = gossip_allocations(&g, on(Backing::Inline), ROUNDS_SHORT);
    let inline_long = gossip_allocations(&g, on(Backing::Inline), ROUNDS_LONG);
    assert!(
        inline_long > inline_short,
        "inline-backed gossip was expected to allocate per round \
         (got {inline_short} vs {inline_long}) — is the control broken?"
    );

    // ------------------------------------------------------------------
    // Two threads: each run spawns its shard workers and builds their
    // planes and exchange buffers (fixed per-run costs that cancel in the
    // difference); the rounds themselves — publish and the leader's merge
    // — must reuse every buffer.
    // ------------------------------------------------------------------
    let t2 = |backing| on(backing).threads(2);
    gossip_allocations(&g, t2(Backing::Arena), ROUNDS_LONG);
    let sharded_short = gossip_allocations(&g, t2(Backing::Arena), ROUNDS_SHORT);
    let sharded_long = gossip_allocations(&g, t2(Backing::Arena), ROUNDS_LONG);
    assert_eq!(
        sharded_long, sharded_short,
        "two-thread arena gossip must not allocate per round \
         ({ROUNDS_LONG}-round run: {sharded_long} allocations, \
         {ROUNDS_SHORT}-round run: {sharded_short})"
    );
    beacon_allocations(&g, t2(Backing::Inline), ROUNDS_LONG);
    let beacon_short = beacon_allocations(&g, t2(Backing::Inline), ROUNDS_SHORT);
    let beacon_long = beacon_allocations(&g, t2(Backing::Inline), ROUNDS_LONG);
    assert_eq!(
        beacon_long, beacon_short,
        "two-thread inline beacon must not allocate per round \
         ({ROUNDS_LONG}-round run: {beacon_long} allocations, \
         {ROUNDS_SHORT}-round run: {beacon_short})"
    );
}

#[test]
fn a_warm_run_allocates_independently_of_n() {
    const ROUNDS: usize = 8;
    let _serial = serial();
    let graphs = [1024, 2048].map(|n| ring(n, WeightStrategy::Unit));
    let partitions = graphs.each_ref().map(|g| Partition::new(g.csr(), 2));
    for threads in [1, 2] {
        for backing in Backing::ALL {
            let [small, large] = [0, 1].map(|i| {
                let g = &graphs[i];
                let sim = Sim::on(g)
                    .backing(backing)
                    .threads(threads)
                    .with_partition(&partitions[i]);
                // Warm-up: size the pooled sets for this graph.
                beacon_allocations(g, sim, ROUNDS);
                beacon_allocations(g, sim, ROUNDS)
            });
            assert_eq!(
                small, large,
                "a warm {backing} run on {threads} thread(s) must allocate \
                 independently of n (ring/1024: {small} allocations, \
                 ring/2048: {large})"
            );
        }
    }
}

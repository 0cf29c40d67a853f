//! Property suite for the fleet-batching lane helpers (vendored proptest):
//!
//! 1. **pack round trip** — `to_bools ∘ from_bools = id` for every lane
//!    width (the sweep crosses the 64-bit word boundary several times), with
//!    exact popcount accounting and the tail invariant (no set bits at
//!    positions `>= lanes`) preserved by every operation including `fill`;
//! 2. **op-sequence model** — arbitrary `set`/`clear`/`fill`/`clear_all`
//!    sequences on a [`LaneWords`] agree with the obvious `Vec<bool>` model,
//!    so the word-packed fast paths can never drift from per-lane semantics;
//! 3. **lane isolation** — on every plane backend, a [`BatchPlaneStore`]
//!    delivers exactly what each `(slot, lane)` stored: writes in one lane
//!    are invisible to every other lane, duplicates surface in graph-slot
//!    space, and [`BatchPlaneStore::drain_lane`] empties only its lane;
//! 4. **mark consistency** — [`BitFleet`]'s packed mark vectors and its
//!    per-lane `reached` accessor are two views of the same bits.
//!
//! These properties are what let the batch executors share one plane across
//! `W` runs and still be bit-identical to `W` sequential runs: striping is
//! invisible exactly when packing is lossless and lanes never alias.

use lma_sim::{ArenaPlane, BatchPlaneStore, BitFleet, LaneWords, MessagePlane, PlaneStore};
use proptest::prelude::*;
use std::collections::HashMap;

/// Pins the pack round trip and the tail invariant for one boolean vector.
fn pin_pack_roundtrip(bits: &[bool]) {
    let set = LaneWords::from_bools(bits);
    assert_eq!(set.lanes(), bits.len());
    assert_eq!(
        set.to_bools(),
        bits,
        "to_bools ∘ from_bools must be the identity"
    );
    let trues = bits.iter().filter(|&&b| b).count();
    assert_eq!(set.count(), trues);
    assert_eq!(set.any(), trues > 0);
    assert_eq!(set.words().len(), bits.len().div_ceil(64));
    let word_bits: usize = set.words().iter().map(|w| w.count_ones() as usize).sum();
    assert_eq!(word_bits, trues, "tail bits above `lanes` must stay clear");
    let expected_ones: Vec<usize> = bits
        .iter()
        .enumerate()
        .filter_map(|(i, &b)| b.then_some(i))
        .collect();
    assert_eq!(set.ones().collect::<Vec<_>>(), expected_ones);
}

/// Stores every write into a fresh `slots × lanes` plane next to a
/// `HashMap` model, then fetches the full grid: each `(slot, lane)` yields
/// exactly what *its* lane stored (first write wins, duplicates reported in
/// graph-slot space), and a second fetch yields nothing.  Ends with
/// `reset_round`, which on the arena asserts the plane was fully drained.
fn pin_lane_isolation<S: PlaneStore<u64>>(
    slots: usize,
    lanes: usize,
    writes: &[(usize, usize, u64)],
    drained_lane: Option<usize>,
) {
    let mut plane: BatchPlaneStore<u64, S> = BatchPlaneStore::new(slots, lanes);
    let mut spare = Vec::new();
    let mut model: HashMap<(usize, usize), u64> = HashMap::new();
    for &(slot_draw, lane_draw, value) in writes {
        let (slot, lane) = (slot_draw % slots, lane_draw % lanes);
        let outcome = plane.store(slot, lane, value, &mut spare);
        if let std::collections::hash_map::Entry::Vacant(e) = model.entry((slot, lane)) {
            outcome.expect("first write into a free slot must succeed");
            e.insert(value);
        } else {
            let occupied = outcome.expect_err("second write into an occupied slot must fail");
            assert_eq!(
                (occupied.slot, occupied.len),
                (slot, slots),
                "duplicates must be reported in graph-slot space"
            );
        }
    }
    if let Some(lane) = drained_lane {
        let lane = lane % lanes;
        plane.drain_lane(lane, &mut spare);
        model.retain(|&(_, l), _| l != lane);
    }
    for slot in 0..slots {
        for lane in 0..lanes {
            assert_eq!(
                plane.fetch(slot, lane, &mut spare),
                model.get(&(slot, lane)).copied(),
                "({slot}, {lane}) must hold exactly what its lane stored"
            );
            assert_eq!(
                plane.fetch(slot, lane, &mut spare),
                None,
                "a message is delivered once"
            );
        }
    }
    plane.reset_round();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lane_words_pack_unpack_is_identity(
        bits in collection::vec(any::<bool>(), 0..200),
    ) {
        pin_pack_roundtrip(&bits);
    }

    #[test]
    fn lane_words_fill_covers_every_width(width in 0usize..200) {
        // `fill` is the one op that writes whole words; the tail invariant
        // must hold at every width, not just the drawn patterns above.
        let mut set = LaneWords::new(width);
        set.fill();
        pin_pack_roundtrip(&set.to_bools());
        prop_assert_eq!(set.count(), width);
    }

    #[test]
    fn lane_words_op_sequences_match_the_bool_model(
        lanes in 1usize..150,
        ops in collection::vec((0usize..1 << 16, 0u64..5), 0..80),
    ) {
        let mut set = LaneWords::new(lanes);
        let mut model = vec![false; lanes];
        for &(lane_draw, op) in &ops {
            let lane = lane_draw % lanes;
            match op {
                0 => { set.set(lane); model[lane] = true; }
                1 => { set.clear(lane); model[lane] = false; }
                2 => prop_assert_eq!(set.get(lane), model[lane]),
                3 => { set.fill(); model.iter_mut().for_each(|b| *b = true); }
                _ => { set.clear_all(); model.iter_mut().for_each(|b| *b = false); }
            }
            prop_assert_eq!(set.count(), model.iter().filter(|&&b| b).count());
        }
        prop_assert_eq!(set.to_bools(), model);
    }

    #[test]
    fn or_assign_is_the_per_lane_union(
        pairs in collection::vec((any::<bool>(), any::<bool>()), 0..150),
    ) {
        let left: Vec<bool> = pairs.iter().map(|&(a, _)| a).collect();
        let right: Vec<bool> = pairs.iter().map(|&(_, b)| b).collect();
        let mut set = LaneWords::from_bools(&left);
        set.or_assign(&LaneWords::from_bools(&right));
        let expected: Vec<bool> = left.iter().zip(&right).map(|(&a, &b)| a || b).collect();
        prop_assert_eq!(set.to_bools(), expected);
        pin_pack_roundtrip(&set.to_bools());
    }

    #[test]
    fn batch_planes_isolate_lanes_on_all_backends(
        slots in 1usize..12,
        lanes in 1usize..10,
        writes in collection::vec(((0usize..1 << 16, 0usize..1 << 16), any::<u64>()), 0..48),
        drain in (any::<bool>(), 0usize..1 << 16),
    ) {
        let writes: Vec<(usize, usize, u64)> =
            writes.iter().map(|&((s, l), v)| (s, l, v)).collect();
        let drain = drain.0.then_some(drain.1);
        pin_lane_isolation::<MessagePlane<u64>>(slots, lanes, &writes, drain);
        pin_lane_isolation::<ArenaPlane<u64>>(slots, lanes, &writes, drain);
    }

    #[test]
    fn bit_fleet_marks_and_reached_are_the_same_bits(
        n in 2usize..24,
        lanes in 1usize..70,
        seeds in collection::vec((0usize..1 << 16, 0usize..1 << 16), 0..32),
        rounds in 0usize..4,
    ) {
        let g = lma_graph::generators::ring(n, lma_graph::weights::WeightStrategy::Unit);
        let mut fleet = BitFleet::new(n, lanes);
        prop_assert_eq!(fleet.lanes(), lanes);
        for &(node_draw, lane_draw) in &seeds {
            fleet.seed(node_draw % n, lane_draw % lanes);
        }
        fleet.run(&g, rounds);
        for v in 0..n {
            let marks = fleet.marks(v);
            let reached: Vec<bool> = (0..lanes).map(|l| fleet.reached(v, l)).collect();
            prop_assert_eq!(marks.to_bools(), reached, "node {}", v);
        }
    }
}

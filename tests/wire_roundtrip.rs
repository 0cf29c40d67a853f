//! Property suite for the `Wire` codec (vendored proptest): for every
//! message type in the workspace,
//!
//! 1. **round trip** — `decode ∘ encode = id`, consuming the encoded span
//!    exactly;
//! 2. **reuse** — `decode_into` over an arbitrary pre-existing value yields
//!    the same result as a fresh decode (this is the path the arena plane's
//!    spare-message recycling takes every round);
//! 3. **honest sizing** — `bit_size() <= 8 * encoded_len`, so the byte
//!    arena can never make a message cheaper than the CONGEST accounting
//!    claims it is;
//! 4. **stable appending length** — [`encoded_len`] is deterministic and
//!    `encode` appends exactly that many bytes wherever the buffer tail
//!    is, so spans recorded by offset into a shared bump arena stay exact.
//!
//! These properties are what let the arena-backed plane be bit-identical to
//! the inline plane and the push executor: routing through bytes is
//! invisible exactly when the codec is lossless and the accounting honest.

use lma_advice::constant::messages::{ChooserPayload, ConstMsg, MapEntry, Report};
use lma_advice::BitString;
use lma_baselines::flood_collect::{EdgeFact, Knowledge};
use lma_baselines::sync_boruvka::GhsMsg;
use lma_labeling::labels::SpanningLabel;
use lma_labeling::mst_cert::CertMsg;
use lma_labeling::spanning::SpanningMsg;
use lma_labeling::CentroidEntry;
use lma_sim::message::BitSized;
use lma_sim::wire::{Wire, WireReader};
use proptest::prelude::*;

/// The encoded byte length of `value`: a fresh encode into an empty
/// buffer.
fn encoded_len<T: Wire>(value: &T) -> usize {
    let mut bytes = Vec::new();
    value.encode(&mut bytes);
    bytes.len()
}

/// Pins all the codec properties for one value.  `scratch` is an
/// arbitrary unrelated value of the same type used as the `decode_into`
/// target (mimicking a recycled spare).
fn pin_codec<T: Wire + BitSized + PartialEq + std::fmt::Debug>(value: &T, scratch: T) {
    let mut bytes = Vec::new();
    value.encode(&mut bytes);

    assert_eq!(
        encoded_len(value),
        bytes.len(),
        "encoded_len must be deterministic per value"
    );
    // `encode` must *append* exactly `encoded_len` bytes wherever the
    // buffer tail is — the arena store encodes onto the tail of one shared
    // per-round buffer and records the span by offset.
    let mut prefixed = vec![0xA5u8; 3];
    value.encode(&mut prefixed);
    assert_eq!(
        prefixed.len(),
        3 + bytes.len(),
        "encode must append exactly encoded_len bytes"
    );
    assert_eq!(
        &prefixed[..3],
        &[0xA5u8; 3],
        "encode must not touch the prefix"
    );
    assert_eq!(
        &prefixed[3..],
        &bytes[..],
        "appended encoding must be identical"
    );

    let mut reader = WireReader::new(&bytes);
    let decoded = T::decode(&mut reader);
    assert_eq!(&decoded, value, "decode ∘ encode must be the identity");
    assert!(
        reader.is_exhausted(),
        "decode must consume the span exactly"
    );

    let mut revived = scratch;
    let mut reader = WireReader::new(&bytes);
    revived.decode_into(&mut reader);
    assert_eq!(&revived, value, "decode_into must overwrite completely");
    assert!(reader.is_exhausted(), "decode_into must consume the span");

    assert!(
        value.bit_size() <= 8 * bytes.len(),
        "bit_size {} exceeds the encoding's 8 × {} bits",
        value.bit_size(),
        bytes.len()
    );
}

fn fact((a, b, w): (u64, u64, u64)) -> EdgeFact {
    EdgeFact { a, b, w }
}

/// Assembles a tree out of flat drawn data: item 0 is the root; each later
/// node attaches under an earlier node chosen by its `parent` draw.
fn build_report(items: &[(Vec<bool>, usize)]) -> Report {
    fn subtree(items: &[(Vec<bool>, usize)], i: usize) -> Report {
        let children: Vec<Report> = (i + 1..items.len())
            .filter(|&k| items[k].1 % k == i)
            .map(|k| subtree(items, k))
            .collect();
        Report::join(&items[i].0, &children)
    }
    subtree(items, 0)
}

/// A map over the tree shape drawn as in [`build_report`], with each
/// node's `(consume, chooser)` drawn by its BFS position.
fn build_map(items: &[(usize, u64, usize)]) -> MapEntry {
    let chooser = |draw: u64| match draw % 3 {
        0 => None,
        1 => Some(ChooserPayload::Index {
            up: draw & 4 != 0,
            rank: (draw >> 3) as usize % 97 + 1,
        }),
        _ => Some(ChooserPayload::Level {
            up: draw & 4 != 0,
            target_level: (draw >> 3) as u8,
        }),
    };
    let shape: Vec<(Vec<bool>, usize)> = items
        .iter()
        .map(|&(_, _, parent)| (Vec::new(), parent))
        .collect();
    MapEntry::shaped_like(&build_report(&shape), |k| {
        let (consume, draw, _) = items[k];
        (consume, chooser(draw))
    })
}

fn ghs_msg(tag: u64, a: u64, b: u64, c: u64) -> GhsMsg {
    match tag % 6 {
        0 => GhsMsg::Fragment { fragment: a, id: b },
        1 => GhsMsg::Best {
            key: c.is_multiple_of(2).then_some((a, b, c)),
            size: c,
        },
        2 => GhsMsg::Token,
        3 => GhsMsg::Done,
        4 => GhsMsg::Merge { sender: a },
        _ => GhsMsg::NewFragment(b),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn primitives_round_trip(
        x in any::<u64>(),
        y in 0u32..u32::MAX,
        z in 0usize..1 << 40,
        flag in any::<bool>(),
        opt in any::<u64>(),
        items in collection::vec(any::<u64>(), 0..24),
    ) {
        pin_codec(&x, 0u64);
        pin_codec(&y, 1u32);
        pin_codec(&z, 2usize);
        pin_codec(&flag, !flag);
        pin_codec(&(), ());
        pin_codec(&(opt.is_multiple_of(2).then_some(opt)), Some(9));
        pin_codec(&items, vec![1, 2, 3]);
        pin_codec(&(x, flag), (0u64, false));
        pin_codec(&(x, y as u64, z as u64), (0u64, 0u64, 0u64));
    }

    #[test]
    fn baseline_messages_round_trip(
        sender in any::<u64>(),
        facts in collection::vec((any::<u64>(), any::<u64>(), 0u64..1 << 32), 0..40),
        stale in collection::vec((any::<u64>(), any::<u64>(), 0u64..64), 0..6),
        ghs in collection::vec(((0u64..6, any::<u64>()), (any::<u64>(), any::<u64>())), 1..12),
    ) {
        for &f in &facts {
            pin_codec(&fact(f), fact((9, 9, 9)));
        }
        let knowledge = Knowledge {
            sender,
            facts: facts.iter().copied().map(fact).collect(),
        };
        // The decode_into target carries its own junk facts, as a recycled
        // spare would.
        let scratch = Knowledge {
            sender: !sender,
            facts: stale.iter().copied().map(fact).collect(),
        };
        pin_codec(&knowledge, scratch);
        for &((tag, a), (b, c)) in &ghs {
            pin_codec(&ghs_msg(tag, a, b, c), GhsMsg::Token);
            pin_codec(&ghs_msg(tag, a, b, c), ghs_msg(tag.wrapping_add(1), c, a, b));
        }
    }

    #[test]
    fn advice_messages_round_trip(
        report_items in collection::vec((collection::vec(any::<bool>(), 0..9), 0usize..1 << 16), 1..14),
        map_items in collection::vec((0usize..1 << 20, any::<u64>(), 0usize..1 << 16), 1..14),
        level in any::<u8>(),
    ) {
        let report = build_report(&report_items);
        let map = build_map(&map_items);
        pin_codec(&report, Report::leaf(&[true]));
        pin_codec(&report, Report::default());
        pin_codec(&report.clone().into_truncated(3), report.clone());
        pin_codec(&map, MapEntry::default());
        pin_codec(&ConstMsg::Report(report.clone()), ConstMsg::Parent);
        pin_codec(&ConstMsg::Map(map.clone()), ConstMsg::Report(Report::leaf(&[])));
        pin_codec(&ConstMsg::Parent, ConstMsg::Level(0));
        pin_codec(&ConstMsg::Level(level), ConstMsg::Map(MapEntry::default()));
    }

    #[test]
    fn labeling_messages_round_trip(
        root_id in any::<u64>(),
        depth in 0u64..1 << 40,
        parent_edge in any::<bool>(),
        entries in collection::vec((0usize..1 << 20, 0usize..64, any::<u64>()), 0..12),
    ) {
        let label = SpanningLabel { root_id, depth };
        pin_codec(&label, SpanningLabel { root_id: 0, depth: 0 });
        pin_codec(
            &SpanningMsg { label, parent_edge },
            SpanningMsg { label: SpanningLabel { root_id: 1, depth: 1 }, parent_edge: !parent_edge },
        );
        let entries: Vec<CentroidEntry> = entries
            .iter()
            .map(|&(centroid, level, max_weight)| CentroidEntry { centroid, level, max_weight })
            .collect();
        for e in &entries {
            pin_codec(e, CentroidEntry { centroid: 0, level: 0, max_weight: 0 });
        }
        let cert = CertMsg { spanning: label, entries, parent_edge };
        let scratch = CertMsg {
            spanning: SpanningLabel { root_id: 3, depth: 4 },
            entries: vec![CentroidEntry { centroid: 5, level: 6, max_weight: 7 }],
            parent_edge: !parent_edge,
        };
        pin_codec(&cert, scratch);
    }
}

// ---------------------------------------------------------------------------
// BitString: the advice-side bit-exact codec.  Advice strings ride the same
// oracle → decode pipeline the Wire codec serves on the message side, so
// their append/read round trips, bit-length accounting and concatenation
// are pinned here alongside the message codecs.
// ---------------------------------------------------------------------------

proptest! {
    /// `read_uint ∘ push_uint = id` for any (value, width) sequence, with
    /// exact bit-length accounting along the way.
    #[test]
    fn bitstring_uint_sequences_round_trip(
        fields in proptest::collection::vec((any::<u64>(), 1usize..65), 0..12)
    ) {
        let mut s = BitString::new();
        let mut expected_len = 0usize;
        let masked: Vec<(u64, usize)> = fields
            .iter()
            .map(|&(value, width)| {
                let masked = if width == 64 { value } else { value & ((1 << width) - 1) };
                (masked, width)
            })
            .collect();
        for &(value, width) in &masked {
            s.push_uint(value, width);
            expected_len += width;
            prop_assert_eq!(s.len(), expected_len, "length must track every append");
        }
        prop_assert_eq!(s.is_empty(), masked.is_empty());
        let mut reader = s.reader();
        for &(value, width) in &masked {
            prop_assert_eq!(reader.read_uint(width), Some(value));
        }
        prop_assert_eq!(reader.remaining(), 0);
        prop_assert_eq!(reader.read_bit(), None, "a drained reader must stay drained");
    }

    /// Raw bits survive `from_bits` → `iter`/`get`/`read_bits` unchanged,
    /// and `to_bit_string` renders exactly one character per bit.
    #[test]
    fn bitstring_raw_bits_round_trip(bits in proptest::collection::vec(any::<bool>(), 0..160)) {
        let s = BitString::from_bits(bits.clone());
        prop_assert_eq!(s.len(), bits.len());
        prop_assert_eq!(s.iter().collect::<Vec<_>>(), bits.clone());
        prop_assert_eq!(s.as_slice(), bits.as_slice());
        for (i, &bit) in bits.iter().enumerate() {
            prop_assert_eq!(s.get(i), Some(bit));
        }
        prop_assert_eq!(s.get(bits.len()), None);
        let rendered = s.to_bit_string();
        prop_assert_eq!(rendered.len(), bits.len());
        prop_assert!(rendered.chars().zip(&bits).all(|(c, &b)| c == if b { '1' } else { '0' }));
        prop_assert_eq!(s.reader().read_bits(bits.len()), Some(bits));
    }

    /// `extend` concatenates exactly: lengths add, and reading the result
    /// yields the left string's bits then the right's.
    #[test]
    fn bitstring_concat_is_exact(
        left in proptest::collection::vec(any::<bool>(), 0..100),
        right in proptest::collection::vec(any::<bool>(), 0..100),
    ) {
        let mut a = BitString::from_bits(left.clone());
        let b = BitString::from_bits(right.clone());
        a.extend(&b);
        prop_assert_eq!(a.len(), left.len() + right.len());
        let mut expected = left.clone();
        expected.extend_from_slice(&right);
        prop_assert_eq!(a.iter().collect::<Vec<_>>(), expected);
        // The right operand is untouched, and a reader positioned at the
        // seam sees exactly the right operand's bits.
        prop_assert_eq!(b.iter().collect::<Vec<_>>(), right.clone());
        let mut reader = a.reader_at(left.len());
        prop_assert_eq!(reader.read_bits(right.len()), Some(right));
        prop_assert_eq!(reader.remaining(), 0);
    }

    /// Mixed single-bit and uint appends account and read back in order —
    /// the exact shape the one-round scheme's bitmap + payload advice uses.
    #[test]
    fn bitstring_mixed_appends_read_back_in_order(
        flag in any::<bool>(),
        rank in 0u64..512,
        width in 10usize..17,
    ) {
        let mut s = BitString::new();
        s.push(flag);
        s.push_uint(rank, width);
        prop_assert_eq!(s.len(), 1 + width);
        let mut reader = s.reader();
        prop_assert_eq!(reader.read_bit(), Some(flag));
        prop_assert_eq!(reader.read_uint(width), Some(rank));
        prop_assert_eq!(reader.position(), 1 + width);
    }
}

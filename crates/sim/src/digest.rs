//! Deterministic run fingerprints for the scenario regression guard.
//!
//! A simulated run in this workspace is fully deterministic: same graph,
//! same seed, same programs ⇒ same outputs, same [`RunStats`], same errors —
//! on **every** executor and plane backing (pinned by the
//! `runtime_equivalence` suite).  That makes the entire observable transcript
//! of a run fingerprintable: this module folds it into a stable 64-byte
//! [`Digest`] that the `scenarios` binary of `lma-bench` commits to
//! `SCENARIOS.lock` and CI re-verifies, so any behavioral drift in any
//! (graph family × workload × executor × backing) cell fails loudly.
//!
//! Design constraints, in order:
//!
//! * **stability** — the digest is a pinned wire format: fixed little-endian
//!   widths, explicit domain-separation tags, no dependence on platform,
//!   allocator or hash-map iteration order.  Changing anything here
//!   invalidates every committed digest, which is why the mixing constants
//!   and the encoding are spelled out rather than delegated to
//!   `std::hash` (whose output is explicitly not stable across releases);
//! * **no new dependencies** — the mixer is a hand-rolled, xxhash-style
//!   multiply–rotate construction over eight independent 64-bit lanes
//!   (8 × 64 = 512 bits = 64 bytes), wide enough that accidental collisions
//!   across a few hundred committed cells are not a practical concern;
//! * **diffability** — alongside the one-shot digest, [`RunSummary`] keeps a
//!   per-round 16-bit *chain* (one checksum per round, derived from that
//!   round's message count, bit volume, maximum message size and audit
//!   violations), so when a digest drifts the guard can name the **first
//!   diverging round** instead of just "something changed".
//!
//! The digest deliberately excludes the executor and the plane backing:
//! cells that differ only in those knobs must produce bit-identical digests
//! (that invariance is itself asserted by `scenarios verify`).

use crate::runtime::{RunError, RunResult};
use crate::stats::RunStats;

/// Number of 64-bit lanes in a [`Digest`] (64 bytes total).
pub const DIGEST_LANES: usize = 8;

/// A 64-byte (512-bit) run fingerprint, rendered as 128 lowercase hex
/// characters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Digest(pub [u64; DIGEST_LANES]);

impl Digest {
    /// Parses the 128-hex-character rendering produced by `Display`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        if s.len() != DIGEST_LANES * 16 || !s.is_ascii() {
            return None;
        }
        let mut lanes = [0u64; DIGEST_LANES];
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = u64::from_str_radix(&s[16 * i..16 * (i + 1)], 16).ok()?;
        }
        Some(Self(lanes))
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for lane in self.0 {
            write!(f, "{lane:016x}")?;
        }
        Ok(())
    }
}

/// Streaming writer producing a [`Digest`]: bytes are absorbed into eight
/// rotating lanes with an xxhash-style multiply–rotate–xor mix, then
/// avalanched on [`DigestWriter::finish`].
///
/// Every absorbed value is length-framed (`u64` is eight bytes, byte strings
/// are prefixed with their length), so distinct write sequences cannot
/// collide by concatenation.
#[derive(Debug, Clone)]
pub struct DigestWriter {
    lanes: [u64; DIGEST_LANES],
    /// Total bytes absorbed (folds into the finalizer, framing the stream).
    absorbed: u64,
    /// Round-robin cursor over the lanes.
    cursor: usize,
}

/// Odd multiply constants per lane (the xxhash/splitmix constant family).
const LANE_MULT: [u64; DIGEST_LANES] = [
    0x9e37_79b1_85eb_ca87,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
    0x85eb_ca77_c2b2_ae63,
    0x27d4_eb2f_1656_67c5,
    0xff51_afd7_ed55_8ccd,
    0xc4ce_b9fe_1a85_ec53,
    0x2545_f491_4f6c_dd1d,
];

impl Default for DigestWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl DigestWriter {
    /// A writer with the fixed initial state (lane index mixed into each
    /// lane so an all-zero input still distinguishes the lanes).
    #[must_use]
    pub fn new() -> Self {
        let mut lanes = [0u64; DIGEST_LANES];
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = LANE_MULT[i].rotate_left(i as u32);
        }
        Self {
            lanes,
            absorbed: 0,
            cursor: 0,
        }
    }

    fn absorb_word(&mut self, word: u64) {
        let lane = &mut self.lanes[self.cursor];
        *lane = (*lane ^ word)
            .wrapping_mul(LANE_MULT[self.cursor])
            .rotate_left(31)
            .wrapping_mul(LANE_MULT[(self.cursor + 3) % DIGEST_LANES]);
        self.cursor = (self.cursor + 1) % DIGEST_LANES;
        self.absorbed = self.absorbed.wrapping_add(8);
    }

    /// Absorbs one `u64` (little-endian, fixed width).
    pub fn u64(&mut self, value: u64) {
        self.absorb_word(value);
    }

    /// Absorbs a `usize` as a `u64` (platform-independent width).
    pub fn usize(&mut self, value: usize) {
        self.u64(value as u64);
    }

    /// Absorbs a byte string, length-framed.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.absorb_word(u64::from_le_bytes(word));
        }
    }

    /// Absorbs a UTF-8 string (its bytes, length-framed) — used for
    /// domain-separation tags such as `"stats"` or a workload name.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Absorbs an optional `u64`: a presence marker, then the value.
    pub fn opt_u64(&mut self, value: Option<u64>) {
        match value {
            Some(v) => {
                self.u64(1);
                self.u64(v);
            }
            None => self.u64(0),
        }
    }

    /// Finalizes: the byte count and a per-lane avalanche (splitmix-style
    /// finalizer) so short inputs still diffuse into every output bit.
    #[must_use]
    pub fn finish(mut self) -> Digest {
        let absorbed = self.absorbed;
        for i in 0..DIGEST_LANES {
            let mut x =
                self.lanes[i] ^ absorbed ^ self.lanes[(i + 1) % DIGEST_LANES].rotate_left(17);
            x ^= x >> 30;
            x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x ^= x >> 27;
            x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^= x >> 31;
            self.lanes[i] = x;
        }
        Digest(self.lanes)
    }
}

/// The digestible summary of one run: the aggregate statistics plus the
/// per-round chain used to localize drift.
///
/// Built from a [`RunStats`] (successful runs) or from a [`RunError`]
/// (failed runs fold the exact error payload and carry an empty chain —
/// error *identity* is part of the guarded behavior, see the
/// `runtime_equivalence` error-path tests).
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Rounds executed (0 for failed runs).
    pub rounds: usize,
    /// Total messages sent.
    pub total_messages: u64,
    /// Total message bits sent.
    pub total_bits: u64,
    /// Per-round 16-bit checksums (length = `rounds`), each folding that
    /// round's message count, bit volume, maximum message size and CONGEST
    /// violations.  Two runs of the same scenario diverge first at the first
    /// index where their chains differ.
    pub round_chain: Vec<u16>,
    /// Sparse-frontier schedule profile, present only for programs that
    /// opted into frontier execution ([`crate::NodeAlgorithm::MESSAGE_DRIVEN`]).
    /// Observability only: excluded from equality (the schedule may differ
    /// between executors while every semantic field is bit-identical) and
    /// never folded into digests.
    pub frontier: Option<FrontierProfile>,
}

/// How an opted-in run's rounds were scheduled — printed by `scenarios run`
/// next to the digest, never part of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontierProfile {
    /// Rounds gathered sparsely (frontier iteration).
    pub sparse_rounds: usize,
    /// Rounds gathered with the dense all-nodes scan.
    pub dense_rounds: usize,
    /// Largest per-round active-node count observed.
    pub peak_active: u64,
}

impl PartialEq for RunSummary {
    fn eq(&self, other: &Self) -> bool {
        // `frontier` intentionally excluded — see its field docs.
        self.rounds == other.rounds
            && self.total_messages == other.total_messages
            && self.total_bits == other.total_bits
            && self.round_chain == other.round_chain
    }
}

impl Eq for RunSummary {}

/// Folds `(messages, bits, max_bits, violations)` of one round into the
/// 16-bit chain entry.  A fixed multiply–xor–fold; changing it invalidates
/// every committed chain.
#[must_use]
pub fn round_checksum(messages: u64, bits: u64, max_bits: usize, violations: u64) -> u16 {
    let mut x = messages
        .wrapping_mul(LANE_MULT[0])
        .wrapping_add(bits.wrapping_mul(LANE_MULT[1]))
        .wrapping_add((max_bits as u64).wrapping_mul(LANE_MULT[2]))
        .wrapping_add(violations.wrapping_mul(LANE_MULT[3]));
    x ^= x >> 33;
    x = x.wrapping_mul(LANE_MULT[4]);
    x ^= x >> 29;
    (x ^ (x >> 16) ^ (x >> 32) ^ (x >> 48)) as u16
}

impl RunSummary {
    /// The summary of a successful run's statistics.
    #[must_use]
    pub fn of_stats(stats: &RunStats) -> Self {
        let round_chain = (0..stats.rounds)
            .map(|r| {
                round_checksum(
                    stats.per_round_messages[r],
                    stats.per_round_bits[r],
                    stats.per_round_max_bits[r],
                    stats.per_round_violations[r],
                )
            })
            .collect();
        let frontier = (!stats.per_round_active_nodes.is_empty()).then(|| FrontierProfile {
            sparse_rounds: stats.per_round_sparse.iter().filter(|&&s| s).count(),
            dense_rounds: stats.per_round_sparse.iter().filter(|&&s| !s).count(),
            peak_active: stats
                .per_round_active_nodes
                .iter()
                .copied()
                .max()
                .unwrap_or(0),
        });
        Self {
            rounds: stats.rounds,
            total_messages: stats.total_messages,
            total_bits: stats.total_bits,
            round_chain,
            frontier,
        }
    }

    /// The summary of a failed run: zero traffic, empty chain (the error
    /// payload itself is folded by [`fold_error`]).
    #[must_use]
    pub fn of_error() -> Self {
        Self {
            rounds: 0,
            total_messages: 0,
            total_bits: 0,
            round_chain: Vec::new(),
            frontier: None,
        }
    }

    /// Index (0-based round offset) of the first diverging chain entry
    /// against `other`, or `None` when one chain is a prefix of the other
    /// (divergence is then "after round min(len)" — the caller reports the
    /// length mismatch).
    #[must_use]
    pub fn first_divergence(&self, other: &Self) -> Option<usize> {
        self.round_chain
            .iter()
            .zip(&other.round_chain)
            .position(|(a, b)| a != b)
    }
}

/// Folds a full [`RunStats`] — aggregates **and** every per-round series —
/// into `w` under a `"stats"` tag.
pub fn fold_stats(w: &mut DigestWriter, stats: &RunStats) {
    w.str("stats");
    w.usize(stats.rounds);
    w.u64(stats.total_messages);
    w.u64(stats.total_bits);
    w.usize(stats.max_message_bits);
    w.u64(stats.congest_violations);
    for r in 0..stats.rounds {
        w.u64(stats.per_round_messages[r]);
        w.u64(stats.per_round_bits[r]);
        w.usize(stats.per_round_max_bits[r]);
        w.u64(stats.per_round_violations[r]);
    }
}

/// Folds a [`RunError`] payload into `w` under an `"error"` tag, preserving
/// every field (failing the *same way* is part of a scenario's contract).
pub fn fold_error(w: &mut DigestWriter, error: &RunError) {
    w.str("error");
    match error {
        RunError::RoundLimitExceeded { limit } => {
            w.str("round-limit");
            w.usize(*limit);
        }
        RunError::CongestViolation {
            round,
            bits,
            budget,
        } => {
            w.str("congest");
            w.usize(*round);
            w.usize(*bits);
            w.usize(*budget);
        }
        RunError::MalformedOutbox { node, port } => {
            w.str("malformed");
            w.usize(*node);
            w.usize(*port);
        }
    }
}

/// Folds a [`RunResult`] whose per-node outputs can be serialized by
/// `fold_output` — stats first, then each output in node order (presence
/// marker + payload), then the trace when one was recorded.
pub fn fold_result<O>(
    w: &mut DigestWriter,
    result: &RunResult<O>,
    mut fold_output: impl FnMut(&mut DigestWriter, &O),
) {
    fold_stats(w, &result.stats);
    w.str("outputs");
    w.usize(result.outputs.len());
    for output in &result.outputs {
        match output {
            Some(o) => {
                w.u64(1);
                fold_output(w, o);
            }
            None => w.u64(0),
        }
    }
    if let Some(trace) = &result.trace {
        w.str("trace");
        w.usize(trace.len());
        for event in trace {
            w.usize(event.round);
            w.usize(event.from);
            w.usize(event.to);
            w.usize(event.bits);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_hex_roundtrip() {
        let mut w = DigestWriter::new();
        w.str("hello");
        w.u64(42);
        let d = w.finish();
        let hex = d.to_string();
        assert_eq!(hex.len(), 128);
        assert_eq!(Digest::parse(&hex), Some(d));
        assert_eq!(Digest::parse("zz"), None);
        assert_eq!(Digest::parse(&hex[..127]), None);
    }

    #[test]
    fn writer_is_deterministic_and_order_sensitive() {
        let run = |values: &[u64]| {
            let mut w = DigestWriter::new();
            for &v in values {
                w.u64(v);
            }
            w.finish()
        };
        // lint: allow(tautological-assert) — determinism check: two separate runs must agree
        assert_eq!(run(&[1, 2, 3]), run(&[1, 2, 3]));
        assert_ne!(run(&[1, 2, 3]), run(&[3, 2, 1]));
        assert_ne!(run(&[1]), run(&[1, 0]));
        assert_ne!(run(&[]), run(&[0]));
    }

    #[test]
    fn byte_strings_are_length_framed() {
        let digest_of = |parts: &[&[u8]]| {
            let mut w = DigestWriter::new();
            for p in parts {
                w.bytes(p);
            }
            w.finish()
        };
        // Same concatenation, different framing: must not collide.
        assert_ne!(digest_of(&[b"ab", b"c"]), digest_of(&[b"a", b"bc"]));
        assert_ne!(digest_of(&[b""]), digest_of(&[]));
    }

    #[test]
    fn round_checksum_separates_nearby_rounds() {
        let a = round_checksum(10, 640, 64, 0);
        assert_eq!(a, round_checksum(10, 640, 64, 0));
        assert_ne!(a, round_checksum(11, 640, 64, 0));
        assert_ne!(a, round_checksum(10, 641, 64, 0));
        assert_ne!(a, round_checksum(10, 640, 65, 0));
        assert_ne!(a, round_checksum(10, 640, 64, 1));
    }

    #[test]
    fn summary_chain_localizes_divergence() {
        let mut stats = RunStats::default();
        stats.record_round(4, 40, 10, 0);
        stats.record_round(6, 60, 12, 0);
        stats.record_round(2, 20, 10, 0);
        let a = RunSummary::of_stats(&stats);
        let mut perturbed = RunStats::default();
        perturbed.record_round(4, 40, 10, 0);
        perturbed.record_round(6, 61, 12, 0);
        perturbed.record_round(2, 20, 10, 0);
        let b = RunSummary::of_stats(&perturbed);
        assert_eq!(a.first_divergence(&b), Some(1));
        assert_eq!(a.first_divergence(&a), None);
    }

    #[test]
    fn error_folds_distinguish_payloads() {
        let digest_of = |e: &RunError| {
            let mut w = DigestWriter::new();
            fold_error(&mut w, e);
            w.finish()
        };
        let a = digest_of(&RunError::RoundLimitExceeded { limit: 5 });
        let b = digest_of(&RunError::RoundLimitExceeded { limit: 6 });
        let c = digest_of(&RunError::MalformedOutbox { node: 5, port: 0 });
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}

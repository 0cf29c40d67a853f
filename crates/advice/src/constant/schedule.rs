//! The global round schedule of the Theorem 3 decoder.
//!
//! The paper's round analysis pads every phase to its worst case: phase `i`
//! needs one convergecast and one broadcast over fragment trees of size (and
//! hence depth) `< 2^i`, and the final phase needs `⌈log n⌉` rounds to
//! collect the `⌈log n⌉` final bits.  Because `n` is common knowledge, every
//! node computes the same schedule and the whole network stays synchronized
//! without any extra coordination, exactly as in the paper's accounting
//! (`Σ_i 2^{i+1} + ⌈log n⌉ ≤ 9⌈log n⌉`).
//!
//! The schedule below adds one notify round per phase and, for the
//! paper-literal level variant, one level-exchange round.  With
//! `K = ⌈log log n⌉` phases and `L = ⌈log n⌉` that is
//! `2^{K+2} − 4 + K + L` rounds (index) and `2^{K+2} − 4 + 2K + L` (level).
//! Since `2^{K+2} ≤ 8L − 8` for `L ≥ 2`, both stay within the paper's
//! `9⌈log n⌉` for every `L ≤ 64`; the level variant meets it exactly at
//! `L = 33`.

use super::ConstantVariant;
use lma_graph::graph::ceil_log2;

/// `⌈log₂ n⌉` — the paper's `⌈log n⌉`.
#[must_use]
pub fn log_n(n: usize) -> usize {
    ceil_log2(n.max(2)) as usize
}

/// `⌈log₂ log₂ n⌉` — the number of Borůvka phases the scheme encodes.
#[must_use]
pub fn log_log_n(n: usize) -> usize {
    ceil_log2(log_n(n).max(1)) as usize
}

/// The window of rounds assigned to one Borůvka phase of the decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseWindow {
    /// 1-based phase number `i`.
    pub phase: usize,
    /// Round in which the level exchange happens (level variant only).
    pub level_round: Option<usize>,
    /// First round of the convergecast window.
    pub converge_start: usize,
    /// Last round of the convergecast window (`converge_start + 2^i − 1`).
    pub converge_end: usize,
    /// First round of the broadcast window.
    pub broadcast_start: usize,
    /// Last round of the broadcast window.
    pub broadcast_end: usize,
    /// The round in which the choosing node's "I am your parent" message is
    /// delivered.
    pub notify_round: usize,
}

impl PhaseWindow {
    /// True when round `r` lies anywhere inside this phase's window.
    #[must_use]
    pub fn contains(&self, r: usize) -> bool {
        let start = self.level_round.unwrap_or(self.converge_start);
        (start..=self.notify_round).contains(&r)
    }
}

/// The complete, deterministic round schedule of one decoding run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Number of nodes the schedule was computed for.
    pub n: usize,
    /// Windows of the packed phases `1..=P` (`P = ⌈log log n⌉` in Theorem 3).
    pub phases: Vec<PhaseWindow>,
    /// First round of the final-phase convergecast.
    pub final_start: usize,
    /// Last round of the final-phase convergecast; the run terminates after
    /// processing this round.
    pub final_end: usize,
}

impl Schedule {
    /// Computes the schedule for an `n`-node network: `phases` packed
    /// Borůvka phases, then a `final_len`-round final collection.  Theorem 3
    /// runs `⌈log log n⌉` phases and a `⌈log n⌉`-round final window; the
    /// advice-vs-time tradeoff ([`crate::tradeoff`]) stops after fewer
    /// phases and reads a wider per-node final segment in fewer rounds.  The
    /// level variant spends one extra round per phase on the level exchange.
    #[must_use]
    pub fn new(n: usize, variant: ConstantVariant, phases: usize, final_len: usize) -> Self {
        let mut windows = Vec::with_capacity(phases);
        let mut next = 0usize; // last assigned round
        for i in 1..=phases {
            let span = 1usize << i.min(40);
            let level_round = match variant {
                ConstantVariant::Index => None,
                ConstantVariant::Level => {
                    next += 1;
                    Some(next)
                }
            };
            let converge_start = next + 1;
            let converge_end = next + span;
            let broadcast_start = converge_end + 1;
            let broadcast_end = converge_end + span;
            let notify_round = broadcast_end + 1;
            next = notify_round;
            windows.push(PhaseWindow {
                phase: i,
                level_round,
                converge_start,
                converge_end,
                broadcast_start,
                broadcast_end,
                notify_round,
            });
        }
        Self {
            n,
            phases: windows,
            final_start: next + 1,
            final_end: next + final_len,
        }
    }

    /// Total number of rounds the decoder uses (it terminates right after the
    /// final convergecast).
    #[must_use]
    pub fn total_rounds(&self) -> usize {
        self.final_end
    }

    /// The paper's headline bound `9⌈log n⌉`, for comparison in the
    /// experiment tables.
    #[must_use]
    pub fn nine_log_n(n: usize) -> usize {
        9 * log_n(n)
    }

    /// The phase window containing round `r`, if any.
    #[must_use]
    pub fn phase_of_round(&self, r: usize) -> Option<&PhaseWindow> {
        self.phases.iter().find(|w| w.contains(r))
    }

    /// True when round `r` is part of the final-phase convergecast.
    #[must_use]
    pub fn is_final_round(&self, r: usize) -> bool {
        (self.final_start..=self.final_end).contains(&r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Theorem 3 schedule.
    fn theorem3(n: usize, variant: ConstantVariant) -> Schedule {
        Schedule::new(n, variant, log_log_n(n), log_n(n))
    }

    #[test]
    fn log_helpers() {
        assert_eq!(log_n(2), 1);
        assert_eq!(log_n(1024), 10);
        assert_eq!(log_n(1000), 10);
        assert_eq!(log_log_n(2), 0);
        assert_eq!(log_log_n(16), 2);
        assert_eq!(log_log_n(1024), 4);
        assert_eq!(log_log_n(1 << 20), 5);
    }

    #[test]
    fn windows_are_contiguous_and_disjoint() {
        for n in [2usize, 5, 16, 100, 1024, 1 << 15] {
            for variant in [ConstantVariant::Index, ConstantVariant::Level] {
                let s = theorem3(n, variant);
                let mut expected_next = 1usize;
                for w in &s.phases {
                    let start = w.level_round.unwrap_or(w.converge_start);
                    assert_eq!(start, expected_next, "n={n}");
                    assert_eq!(w.converge_end - w.converge_start + 1, 1 << w.phase);
                    assert_eq!(w.broadcast_end - w.broadcast_start + 1, 1 << w.phase);
                    assert_eq!(w.broadcast_start, w.converge_end + 1);
                    assert_eq!(w.notify_round, w.broadcast_end + 1);
                    expected_next = w.notify_round + 1;
                }
                assert_eq!(s.final_start, expected_next);
                assert_eq!(s.final_end - s.final_start + 1, log_n(n));
                assert_eq!(s.total_rounds(), s.final_end);
            }
        }
    }

    #[test]
    fn total_rounds_is_o_log_n() {
        for n in [16usize, 256, 4096, 1 << 16, 1 << 20] {
            let s = theorem3(n, ConstantVariant::Index);
            let bound = Schedule::nine_log_n(n);
            assert!(
                s.total_rounds() <= bound,
                "n={n}: {} rounds exceeds {bound}",
                s.total_rounds()
            );
        }
    }

    /// The paper's `9⌈log n⌉` holds for every `⌈log n⌉ ≤ 64`, in closed form:
    /// `2^{K+2} − 4 + K + L` rounds for the index variant and one more per
    /// phase for the level variant (`K = ⌈log log n⌉`, `L = ⌈log n⌉`).
    #[test]
    fn total_rounds_meet_nine_log_n_in_closed_form() {
        for l in 1..=64usize {
            let n = (1usize << (l - 1)) + 1;
            assert_eq!(log_n(n), l);
            let k = log_log_n(n);
            for (variant, per_phase) in [(ConstantVariant::Index, 1), (ConstantVariant::Level, 2)] {
                let total = theorem3(n, variant).total_rounds();
                assert_eq!(
                    total,
                    (1 << (k + 2)) - 4 + per_phase * k + l,
                    "L={l} {variant:?}"
                );
                assert!(
                    total <= Schedule::nine_log_n(n),
                    "L={l} {variant:?}: {total} rounds exceed 9L = {}",
                    Schedule::nine_log_n(n)
                );
            }
        }
        // The tight points: the level variant meets 9L at L = 33, and the
        // index variant's smallest margin over this range is 6 rounds.
        let n = (1usize << 32) + 1;
        assert_eq!(theorem3(n, ConstantVariant::Level).total_rounds(), 9 * 33);
        assert_eq!(
            theorem3(n, ConstantVariant::Index).total_rounds(),
            9 * 33 - 6
        );
    }

    #[test]
    fn phase_of_round_lookup() {
        let s = theorem3(1024, ConstantVariant::Index);
        for w in &s.phases {
            assert_eq!(s.phase_of_round(w.converge_start).unwrap().phase, w.phase);
            assert_eq!(s.phase_of_round(w.notify_round).unwrap().phase, w.phase);
        }
        assert!(s.phase_of_round(s.final_start).is_none());
        assert!(s.is_final_round(s.final_start));
        assert!(s.is_final_round(s.final_end));
        assert!(!s.is_final_round(s.final_end + 1));
    }

    #[test]
    fn tiny_networks_have_only_the_final_phase() {
        let s = theorem3(2, ConstantVariant::Index);
        assert!(s.phases.is_empty());
        assert_eq!(s.final_start, 1);
        assert_eq!(s.total_rounds(), 1);
    }
}

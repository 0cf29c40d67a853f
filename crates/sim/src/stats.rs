//! Run statistics: the quantities every experiment reports.

/// Aggregate statistics of one simulated run.
///
/// Equality deliberately ignores the frontier observability fields
/// ([`RunStats::per_round_active_nodes`], [`RunStats::per_round_sparse`]):
/// the sparse/dense *schedule* is an executor decision that may legitimately
/// differ between runs (a force-sparse run differs from a force-dense one,
/// and the push reference records no frontier at all) while every semantic
/// quantity stays bit-identical — which is exactly what the equivalence
/// suites assert with `==`.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Number of communication rounds executed (message exchanges).
    pub rounds: usize,
    /// Total number of messages sent over the whole run.
    pub total_messages: u64,
    /// Total number of message bits sent over the whole run.
    pub total_bits: u64,
    /// The largest single message, in bits (the CONGEST-relevant quantity).
    pub max_message_bits: usize,
    /// Number of messages that exceeded the CONGEST budget (0 under LOCAL or
    /// when the algorithm respects the budget).
    pub congest_violations: u64,
    /// Per-round maximum message size in bits (length = `rounds`).
    pub per_round_max_bits: Vec<usize>,
    /// Per-round message counts (length = `rounds`).  Together with
    /// [`RunStats::per_round_bits`] and
    /// [`RunStats::per_round_violations`] this is the per-round transcript
    /// the scenario regression guard folds into its round chain (see
    /// [`crate::digest::RunSummary`]), so digest drift can be localized to
    /// the first diverging round.
    pub per_round_messages: Vec<u64>,
    /// Per-round message-bit volumes (length = `rounds`).
    pub per_round_bits: Vec<u64>,
    /// Per-round CONGEST-audit violation counts (length = `rounds`).
    pub per_round_violations: Vec<u64>,
    /// Per-round frontier sizes — how many nodes were *active* (received a
    /// message or are eager) in each round.  Only populated for programs
    /// that opt into sparse frontier execution
    /// ([`crate::NodeAlgorithm::MESSAGE_DRIVEN`]); empty otherwise.
    /// Observability only: excluded from equality and from the scenario
    /// digest fold.
    pub per_round_active_nodes: Vec<u64>,
    /// Per-round scheduling decision — `true` when the round was gathered
    /// sparsely (frontier iteration), `false` for the dense scan.  Same
    /// length and caveats as [`RunStats::per_round_active_nodes`].
    pub per_round_sparse: Vec<bool>,
}

impl PartialEq for RunStats {
    fn eq(&self, other: &Self) -> bool {
        // Frontier observability fields intentionally excluded — see the
        // type-level docs.
        self.rounds == other.rounds
            && self.total_messages == other.total_messages
            && self.total_bits == other.total_bits
            && self.max_message_bits == other.max_message_bits
            && self.congest_violations == other.congest_violations
            && self.per_round_max_bits == other.per_round_max_bits
            && self.per_round_messages == other.per_round_messages
            && self.per_round_bits == other.per_round_bits
            && self.per_round_violations == other.per_round_violations
    }
}

impl Eq for RunStats {}

impl RunStats {
    /// Average message size in bits (0 when no messages were sent).
    #[must_use]
    pub fn avg_message_bits(&self) -> f64 {
        if self.total_messages == 0 {
            0.0
        } else {
            self.total_bits as f64 / self.total_messages as f64
        }
    }

    /// Folds the per-round data of one round into the aggregate.
    pub(crate) fn record_round(
        &mut self,
        messages: u64,
        bits: u64,
        max_bits: usize,
        violations: u64,
    ) {
        self.rounds += 1;
        self.total_messages += messages;
        self.total_bits += bits;
        self.max_message_bits = self.max_message_bits.max(max_bits);
        self.congest_violations += violations;
        self.per_round_max_bits.push(max_bits);
        self.per_round_messages.push(messages);
        self.per_round_bits.push(bits);
        self.per_round_violations.push(violations);
    }

    /// Records the frontier observability pair for the round just committed
    /// by [`RunStats::record_round`]: the active-node count and whether the
    /// round was gathered sparsely.  Called only by executors running an
    /// opted-in ([`crate::NodeAlgorithm::MESSAGE_DRIVEN`]) program.
    pub(crate) fn record_frontier(&mut self, active: u64, sparse: bool) {
        self.per_round_active_nodes.push(active);
        self.per_round_sparse.push(sparse);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_accumulates() {
        let mut s = RunStats::default();
        s.record_round(4, 40, 12, 0);
        s.record_round(2, 10, 30, 1);
        assert_eq!(s.rounds, 2);
        assert_eq!(s.total_messages, 6);
        assert_eq!(s.total_bits, 50);
        assert_eq!(s.max_message_bits, 30);
        assert_eq!(s.congest_violations, 1);
        assert_eq!(s.per_round_max_bits, vec![12, 30]);
        assert_eq!(s.per_round_messages, vec![4, 2]);
        assert_eq!(s.per_round_bits, vec![40, 10]);
        assert_eq!(s.per_round_violations, vec![0, 1]);
        assert!((s.avg_message_bits() - 50.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_average_is_zero() {
        assert_eq!(RunStats::default().avg_message_bits(), 0.0);
    }

    #[test]
    fn frontier_fields_record_but_do_not_affect_equality() {
        let mut a = RunStats::default();
        let mut b = RunStats::default();
        a.record_round(4, 40, 12, 0);
        b.record_round(4, 40, 12, 0);
        a.record_frontier(3, true);
        b.record_frontier(7, false);
        assert_eq!(a.per_round_active_nodes, vec![3]);
        assert_eq!(a.per_round_sparse, vec![true]);
        assert_eq!(a, b, "schedule observability must not affect equality");
        b.record_round(1, 1, 1, 0);
        assert_ne!(a, b, "semantic fields must still affect equality");
    }
}

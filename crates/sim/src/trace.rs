//! Optional, lightweight execution tracing.
//!
//! Tracing is used by tests and by the figure generator to inspect *what*
//! happened round by round without touching the hot path when disabled.
//! Every engine returns its [`TraceEvent`]s in `(round, from, to)` order,
//! so traces are deterministic and directly comparable across engines and
//! runs.
//!
//! The plane engines get that order almost for free.  They record an event
//! as a message is sent, and they step the nodes of a round in ascending
//! order (the dense scan and the sparse frontier walk alike; the
//! shard-parallel leader appends contiguous shards in shard order), so a
//! run's events already arrive in `(round, from)` order.  Only each
//! sender's own group — at most its degree, in send order — still needs
//! ordering by `to`, which one linear pass over the trace does.  The
//! push reference engine sorts its trace outright; it is the oracle the
//! plane engines' traces are compared against.

/// One traced event: a message delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Round in which the message was delivered (1-based).
    pub round: usize,
    /// Sending node.
    pub from: usize,
    /// Receiving node.
    pub to: usize,
    /// Size of the message in bits.
    pub bits: usize,
}

/// Puts a plane engine's trace, already in `(round, from)` order, into
/// `(round, from, to)` order by sorting each sender's group by `to`.  The
/// sort is stable, so the result equals a stable sort of the whole trace.
pub(crate) fn order_sender_groups(events: &mut [TraceEvent]) {
    for group in events.chunk_by_mut(|a, b| (a.round, a.from) == (b.round, b.from)) {
        group.sort_by_key(|e| e.to);
    }
    debug_assert!(
        events
            .windows(2)
            .all(|w| (w[0].round, w[0].from, w[0].to) <= (w[1].round, w[1].from, w[1].to)),
        "plane engine emitted trace events out of (round, from) order"
    );
}

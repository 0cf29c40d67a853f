//! The node-program abstraction.
//!
//! A distributed algorithm is a *factory of node programs*: one
//! [`NodeAlgorithm`] value per node, each seeing only its [`LocalView`].
//! The runtime drives all node programs in lockstep rounds.

use crate::message::BitSized;
use crate::wire::Wire;
use lma_graph::{IncidentEdge, NodeIdx, Port, Weight, WeightedGraph};

/// What a node is allowed to know about the network a priori (the paper's
/// model, §1): its identifier, the total number of nodes `n` (standard common
/// knowledge, needed by the paper's round-padding argument), and the weight of
/// each incident edge addressed by local port number.
///
/// A view borrows the node's slice of the graph's adjacency, so building one
/// allocates nothing.  That slice is private: [`LocalView::degree`],
/// [`LocalView::weight_at`], [`LocalView::incident`] and
/// [`LocalView::ports_by_weight`] are the only ways to read it, and none of
/// them yields more than a `(port, weight)` pair.  What the model leaves out
/// — neighbour identifiers and indices, neighbour degrees, global edge ids,
/// topology — is therefore out of a node program's reach by privacy, not by
/// convention.  Anything else a node learns must arrive in messages (or in
/// its advice string, which the `lma-advice` crate passes to the node program
/// when constructing it).
///
/// ```
/// use lma_graph::generators::ring;
/// use lma_graph::weights::WeightStrategy;
/// use lma_sim::LocalView;
///
/// let g = ring(4, WeightStrategy::ByEdgeId);
/// let view = LocalView::of(&g, 0);
/// assert_eq!(view.degree(), 2);
/// assert!(view.incident().all(|(port, weight)| view.weight_at(port) == weight));
/// ```
///
/// A neighbour's index (or edge id) is not reachable through a view:
///
/// ```compile_fail,E0616
/// use lma_graph::generators::ring;
/// use lma_graph::weights::WeightStrategy;
/// use lma_sim::LocalView;
///
/// let g = ring(4, WeightStrategy::ByEdgeId);
/// let view = LocalView::of(&g, 0);
/// let _neighbour = view.edges[0].neighbor;
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalView<'g> {
    /// The simulator's dense index for this node.  Exposed so that outputs
    /// can be collated; node programs must not base decisions on it (use
    /// [`LocalView::id`] instead, which is the model's identifier).
    pub node: usize,
    /// The node's identifier (not necessarily distinct).
    pub id: u64,
    /// Common knowledge: the number of nodes in the network.
    pub n: usize,
    /// The node's incident edges, indexed by port (`graph.incident(node)`).
    edges: &'g [IncidentEdge],
}

impl<'g> LocalView<'g> {
    /// The view node `u` of `graph` is allowed.
    ///
    /// # Panics
    /// Panics if `u` is not a node of `graph`.
    #[must_use]
    pub fn of(graph: &'g WeightedGraph, u: NodeIdx) -> Self {
        Self {
            node: u,
            id: graph.id(u),
            n: graph.node_count(),
            edges: graph.incident(u),
        }
    }

    /// The node's degree.
    #[must_use]
    pub fn degree(&self) -> usize {
        self.edges.len()
    }

    /// Weight of the incident edge at `port`.
    ///
    /// # Panics
    /// Panics if `port >= self.degree()`.
    #[must_use]
    pub fn weight_at(&self, port: Port) -> Weight {
        self.edges[port].weight
    }

    /// `(port, weight)` for each incident edge, in port order.
    pub fn incident(&self) -> impl ExactSizeIterator<Item = (Port, Weight)> + 'g {
        self.edges.iter().map(|ie| (ie.port, ie.weight))
    }

    /// Ports sorted by `(weight, port)` — the local tie-breaking order the
    /// paper uses throughout.
    #[must_use]
    pub fn ports_by_weight(&self) -> Vec<Port> {
        let mut ports: Vec<Port> = (0..self.degree()).collect();
        ports.sort_by_key(|&p| (self.edges[p].weight, p));
        ports
    }
}

/// Builds the [`LocalView`] each node program of `graph` is allowed to see,
/// indexed by node (one allocation: the views borrow the graph).
#[must_use]
pub fn local_views(graph: &WeightedGraph) -> Vec<LocalView<'_>> {
    graph.nodes().map(|u| LocalView::of(graph, u)).collect()
}

/// Messages put on the wire by one node in one round: `(port, message)`
/// pairs.  At most one message per port per round (the model's "sends through
/// each of its incident edges a message").
pub type Outbox<M> = Vec<(Port, M)>;

/// Where one node's outgoing messages go — a send target handed to
/// [`NodeAlgorithm::init_into`] / [`NodeAlgorithm::round_into`].
///
/// The executors back a sink directly with the message plane, so a message
/// sent through it is validated, accounted and stored (or, on the arena
/// backing, *encoded*) immediately, with no intermediate outbox vector.
/// [`MsgSink::send_ref`] is the broadcast fast path: the same message can go
/// out of every port without being cloned per port — the arena backing
/// encodes straight from the reference, which is what makes gossip-style
/// algorithms allocation-free in steady state.
///
/// Sends after a node's first malformed message (bad port, duplicate port,
/// enforced CONGEST violation) are ignored; the run reports the first
/// offense exactly as it always has.
pub struct MsgSink<'a, M> {
    target: &'a mut dyn SendSlot<M>,
    sent: usize,
}

impl<'a, M> MsgSink<'a, M> {
    /// A sink over a raw send target (executor-internal).
    pub(crate) fn new(target: &'a mut dyn SendSlot<M>) -> Self {
        Self { target, sent: 0 }
    }

    /// Sends `msg` through local port `port`, consuming it.
    pub fn send(&mut self, port: Port, msg: M) {
        self.sent += 1;
        self.target.send(port, msg);
    }

    /// Sends a copy of `msg` through local port `port` without consuming
    /// it — use this to broadcast one value through many ports.  The inline
    /// plane backing clones; the arena backing encodes from the reference
    /// and allocates nothing.
    pub fn send_ref(&mut self, port: Port, msg: &M) {
        self.sent += 1;
        self.target.send_ref(port, msg);
    }

    /// How many messages have been sent through this sink (one sink spans
    /// exactly one `init`/`round` call, so this is "did I send anything
    /// this round").
    #[must_use]
    pub fn sent(&self) -> usize {
        self.sent
    }
}

/// The executor-facing half of [`MsgSink`]: implemented by the live scatter
/// path of each executor and by plain vectors (outbox collection).
pub(crate) trait SendSlot<M> {
    fn send(&mut self, port: Port, msg: M);
    fn send_ref(&mut self, port: Port, msg: &M);
}

impl<M: Clone> SendSlot<M> for Vec<(Port, M)> {
    fn send(&mut self, port: Port, msg: M) {
        self.push((port, msg));
    }

    fn send_ref(&mut self, port: Port, msg: &M) {
        self.push((port, msg.clone()));
    }
}

/// Runs `fill` against a vector-backed sink and returns the collected
/// outbox.  This is the bridge for algorithms that implement the sink-based
/// [`NodeAlgorithm::round_into`] as their primary form: their
/// [`NodeAlgorithm::round`] can simply delegate here, so the push-based
/// reference executor (which consumes outbox vectors) sees the exact same
/// messages.
pub fn collect_outbox<M: Clone>(fill: impl FnOnce(&mut MsgSink<'_, M>)) -> Outbox<M> {
    let mut out: Outbox<M> = Vec::new();
    let mut sink = MsgSink::new(&mut out);
    fill(&mut sink);
    out
}

/// A per-node program executed by the runtime.
///
/// The life cycle is:
///
/// 1. [`NodeAlgorithm::init`] is called once; it may already produce output
///    (0-round algorithms) and returns the messages to send in round 1.
/// 2. For each round `r = 1, 2, …` the runtime delivers the messages and
///    calls [`NodeAlgorithm::round`], which returns the messages for round
///    `r + 1`.
/// 3. The run stops when every node reports [`NodeAlgorithm::is_done`]
///    (a node that is done should return an empty outbox).
///
/// The round complexity reported by the runtime is the number of times
/// messages were exchanged, i.e. an algorithm that terminates inside `init`
/// has round complexity 0.
pub trait NodeAlgorithm: Send {
    /// Message type exchanged by this algorithm (`'static` so executors can
    /// pool and exchange message buffers across threads and runs; [`Wire`]
    /// so any program can run on the arena plane backing).
    type Msg: Clone + Send + Sync + BitSized + Wire + 'static;
    /// Per-node output type.
    type Output: Clone + Send;

    /// Opt-in marker for sparse frontier execution (see
    /// [`crate::frontier`]): `true` promises that a [`NodeAlgorithm::round`]
    /// call with an **empty inbox is a no-op** — no state change, no sends,
    /// no dependence on the round number.  Under that contract the executors
    /// may skip quiet nodes entirely (gathering only the round's *frontier*,
    /// the nodes that actually received a message), which turns
    /// O(n · diameter) floods into O(edges-touched) without changing any
    /// observable output.
    ///
    /// The default is `false`: programs that compute on silence (quiet-round
    /// counters, unconditional countdowns — e.g. `MaxFlood`) keep today's
    /// every-node-every-round schedule untouched.  Opting in falsely breaks
    /// the run's semantics, so only set this when the contract genuinely
    /// holds.
    const MESSAGE_DRIVEN: bool = false;

    /// Per-instance form of [`NodeAlgorithm::MESSAGE_DRIVEN`]: a node whose
    /// program answers `false` here is treated as *eager* — kept on the
    /// frontier every round even when its inbox is empty.  The default
    /// mirrors the type-level constant; mixed fleets (some nodes
    /// message-driven, some eager) override this per instance.  Must be
    /// constant over the program's lifetime, and must never answer `true`
    /// when the type-level constant is `false`.
    fn message_driven(&self) -> bool {
        Self::MESSAGE_DRIVEN
    }

    /// One-time initialization; returns the messages to send in round 1.
    fn init(&mut self, view: &LocalView<'_>) -> Outbox<Self::Msg>;

    /// Executes one round: `inbox` holds the messages received this round as
    /// `(receiving port, message)` pairs sorted by port — a borrowed slice of
    /// the runtime's flat gather buffer, valid only for the duration of the
    /// call.  The return value holds the messages to send next round.
    fn round(
        &mut self,
        view: &LocalView<'_>,
        round: usize,
        inbox: &[(Port, Self::Msg)],
    ) -> Outbox<Self::Msg>;

    /// Sink-based form of [`NodeAlgorithm::init`]: emit the round-1 messages
    /// directly into `out` instead of materializing an outbox vector.
    ///
    /// This is what the plane executors actually call.  The default bridges
    /// to [`NodeAlgorithm::init`], so ordinary algorithms implement only the
    /// vector form; allocation-sensitive algorithms (gossip with `Vec`
    /// payloads) override this and [`NodeAlgorithm::round_into`] as their
    /// primary form — typically broadcasting a reusable message with
    /// [`MsgSink::send_ref`] — and delegate the vector form through
    /// [`collect_outbox`].  **Override both or neither of each pair**: the
    /// two forms must emit the same messages in the same order (the
    /// `runtime_equivalence` suite compares executors that call different
    /// forms).
    fn init_into(&mut self, view: &LocalView<'_>, out: &mut MsgSink<'_, Self::Msg>) {
        for (port, msg) in self.init(view) {
            out.send(port, msg);
        }
    }

    /// Sink-based form of [`NodeAlgorithm::round`]; see
    /// [`NodeAlgorithm::init_into`] for the contract.
    fn round_into(
        &mut self,
        view: &LocalView<'_>,
        round: usize,
        inbox: &[(Port, Self::Msg)],
        out: &mut MsgSink<'_, Self::Msg>,
    ) {
        for (port, msg) in self.round(view, round, inbox) {
            out.send(port, msg);
        }
    }

    /// True when the node has produced its final output and will not send
    /// further messages.
    fn is_done(&self) -> bool;

    /// The node's output, once done.
    fn output(&self) -> Option<Self::Output>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use lma_graph::GraphBuilder;

    #[test]
    fn local_view_helpers() {
        // Node 0 of a four-node star, whose ports carry weights 9, 2, 9, 1.
        let mut b = GraphBuilder::new(5);
        for (leaf, w) in [(1, 9), (2, 2), (3, 9), (4, 1)] {
            b.add_edge(0, leaf, w);
        }
        let g = b.build().unwrap();
        let view = LocalView::of(&g, 0);
        assert_eq!((view.node, view.n), (0, 5));
        assert_eq!(view.degree(), 4);
        assert_eq!(view.weight_at(2), 9);
        assert_eq!(
            view.incident().collect::<Vec<_>>(),
            vec![(0, 9), (1, 2), (2, 9), (3, 1)]
        );
        assert_eq!(view.ports_by_weight(), vec![3, 1, 0, 2]);
    }
}

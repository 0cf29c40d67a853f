//! The advising-scheme abstraction and the end-to-end evaluation pipeline.
//!
//! A scheme consists of an **oracle** ([`AdvisingScheme::advise`]) that maps a
//! whole graph to per-node advice strings, and a **decoder**
//! ([`AdvisingScheme::decode`]) that runs a distributed algorithm on a
//! configured [`Sim`], with each node seeing only its local view plus its
//! advice, and outputs the upward MST representation.  [`evaluate_scheme`]
//! glues the two together and verifies the result against an independently
//! computed MST, so every number the experiments report comes from a
//! verified run.  [`SchemeWorkload`] packages the same pipeline as a
//! [`Workload`] — the oracle is its `prepare` phase, and the advice-bit
//! accounting lands in the typed [`SchemeEvaluation`] outcome — so the
//! scenario registry of `lma-bench` runs and fingerprints schemes exactly
//! like any other workload.

use crate::accounting::AdviceStats;
use crate::bits::BitString;
use lma_graph::heap::vec_bytes;
use lma_graph::{HeapSize, WeightedGraph};
use lma_mst::boruvka::BoruvkaError;
use lma_mst::verify::{verify_upward_outputs, MstError, UpwardOutput};
use lma_mst::RootedTree;
use lma_sim::digest::{fold_stats, DigestWriter};
use lma_sim::driver::{Sim, Workload, WorkloadError};
use lma_sim::runtime::RunError;
use lma_sim::{RunStats, RunSummary};

/// Per-node advice strings, indexed by node index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Advice {
    /// `per_node[u]` is the advice string the oracle gives node `u`.
    pub per_node: Vec<BitString>,
}

impl Advice {
    /// An all-empty assignment for `n` nodes.
    #[must_use]
    pub fn empty(n: usize) -> Self {
        Self {
            per_node: vec![BitString::new(); n],
        }
    }

    /// Size statistics of this assignment.
    #[must_use]
    pub fn stats(&self) -> AdviceStats {
        AdviceStats::from_advice(self)
    }
}

impl HeapSize for Advice {
    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.per_node)
            + self
                .per_node
                .iter()
                .map(HeapSize::heap_bytes)
                .sum::<usize>()
    }
}

/// The result of running a scheme's decoder.
#[derive(Debug, Clone)]
pub struct DecodeOutcome {
    /// Per-node outputs in the paper's upward tree representation.
    pub outputs: Vec<Option<UpwardOutput>>,
    /// Communication statistics of the run (rounds, message bits, …).
    pub stats: RunStats,
}

/// Everything that can go wrong while running a scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemeError {
    /// The oracle's Borůvka run failed (disconnected graph or a tie-breaking
    /// cycle on an adversarial duplicate-weight instance).
    Oracle(BoruvkaError),
    /// The oracle could not encode the advice within the scheme's per-node
    /// budget (e.g. the packing of Theorem 3 ran out of capacity).
    Encoding(String),
    /// The simulator rejected the run.
    Run(RunError),
    /// The decoded outputs are not a rooted MST.
    Invalid(MstError),
}

impl std::fmt::Display for SchemeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Oracle(e) => write!(f, "oracle failure: {e}"),
            Self::Encoding(msg) => write!(f, "advice encoding failure: {msg}"),
            Self::Run(e) => write!(f, "simulation failure: {e}"),
            Self::Invalid(e) => write!(f, "decoded output is not a rooted MST: {e}"),
        }
    }
}

impl std::error::Error for SchemeError {}

impl From<BoruvkaError> for SchemeError {
    fn from(e: BoruvkaError) -> Self {
        Self::Oracle(e)
    }
}

impl From<RunError> for SchemeError {
    fn from(e: RunError) -> Self {
        Self::Run(e)
    }
}

impl From<MstError> for SchemeError {
    fn from(e: MstError) -> Self {
        Self::Invalid(e)
    }
}

/// An advising scheme for MST: oracle + distributed decoder + declared
/// bounds.
///
/// Schemes are `Send + Sync` configuration values: the sweep harness in
/// `lma-bench` fans independent (seed, scheme) cells out across threads,
/// each evaluating a shared scheme reference.
pub trait AdvisingScheme: Send + Sync {
    /// A short, stable name used in experiment tables.
    fn name(&self) -> &'static str;

    /// The scheme's claimed bound on the **maximum** advice size (in bits)
    /// for an `n`-node graph, or `None` if the scheme makes no such claim.
    fn claimed_max_bits(&self, n: usize) -> Option<usize>;

    /// The scheme's claimed bound on the number of rounds for an `n`-node
    /// graph, or `None` if unbounded.
    fn claimed_rounds(&self, n: usize) -> Option<usize>;

    /// The oracle: computes per-node advice for a concrete graph.
    fn advise(&self, g: &WeightedGraph) -> Result<Advice, SchemeError>;

    /// The decoder: runs the scheme's distributed algorithm on the
    /// configured simulation and returns the per-node outputs.  The graph
    /// is `sim.graph()`; the advice assignment must cover exactly its
    /// nodes.
    fn decode(&self, sim: &Sim<'_>, advice: &Advice) -> Result<DecodeOutcome, SchemeError>;
}

/// The verified result of a full oracle-then-decode run of a scheme.
#[derive(Debug, Clone)]
pub struct SchemeEvaluation {
    /// Advice-size statistics (the scheme's measured `m`).
    pub advice: AdviceStats,
    /// Communication statistics (the scheme's measured `t` and message
    /// sizes).
    pub run: RunStats,
    /// The verified rooted MST produced by the decoder.
    pub tree: RootedTree,
}

impl SchemeEvaluation {
    /// True when the measured maximum advice and round count respect the
    /// scheme's claimed bounds (vacuously true for unclaimed bounds).
    #[must_use]
    pub fn within_claims<S: AdvisingScheme + ?Sized>(&self, scheme: &S, n: usize) -> bool {
        let m_ok = scheme
            .claimed_max_bits(n)
            .is_none_or(|m| self.advice.max_bits <= m);
        let t_ok = scheme
            .claimed_rounds(n)
            .is_none_or(|t| self.run.rounds <= t);
        m_ok && t_ok
    }
}

/// Runs a scheme end to end: oracle, decoder, then MST verification of the
/// outputs against an independently computed optimum.
///
/// ```
/// use lma_advice::{evaluate_scheme, AdvisingScheme, ConstantScheme};
/// use lma_graph::generators::connected_random;
/// use lma_graph::weights::WeightStrategy;
/// use lma_sim::Sim;
///
/// let graph = connected_random(64, 200, 1, WeightStrategy::DistinctRandom { seed: 1 });
/// let scheme = ConstantScheme::default();           // Theorem 3
/// let eval = evaluate_scheme(&scheme, &Sim::on(&graph)).unwrap();
/// assert!(eval.advice.max_bits <= scheme.claimed_max_bits(64).unwrap());
/// assert!(eval.run.rounds <= scheme.claimed_rounds(64).unwrap());
/// assert_eq!(eval.tree.edges.len(), 63);            // a spanning tree, verified minimal
/// ```
pub fn evaluate_scheme<S: AdvisingScheme + ?Sized>(
    scheme: &S,
    sim: &Sim<'_>,
) -> Result<SchemeEvaluation, SchemeError> {
    let advice = scheme.advise(sim.graph())?;
    evaluate_scheme_with_advice(scheme, sim, &advice)
}

/// Like [`evaluate_scheme`], but decoding a caller-supplied advice
/// assignment — the hook shared by [`SchemeWorkload::execute`] (which
/// computed the advice in its `prepare` phase) and fault-injection
/// harnesses (which corrupt it first).
pub fn evaluate_scheme_with_advice<S: AdvisingScheme + ?Sized>(
    scheme: &S,
    sim: &Sim<'_>,
    advice: &Advice,
) -> Result<SchemeEvaluation, SchemeError> {
    let g = sim.graph();
    assert_eq!(
        advice.per_node.len(),
        g.node_count(),
        "oracle must produce advice for every node"
    );
    let advice_stats = advice.stats();
    let outcome = scheme.decode(sim, advice)?;
    let tree = verify_upward_outputs(g, &outcome.outputs)?;
    Ok(SchemeEvaluation {
        advice: advice_stats,
        run: outcome.stats,
        tree,
    })
}

/// Maps a [`SchemeError`] onto the driver's [`WorkloadError`], preserving
/// simulator errors structurally (their payload folds into golden digests).
#[must_use]
pub fn to_workload_error(e: SchemeError) -> WorkloadError {
    match e {
        SchemeError::Run(e) => WorkloadError::Run(e),
        SchemeError::Invalid(e) => WorkloadError::Invalid(e.to_string()),
        oracle => WorkloadError::Prepare(oracle.to_string()),
    }
}

impl SchemeEvaluation {
    /// Folds the evaluation into a digest writer: advice accounting, run
    /// statistics, then the verified tree (root, edge ids, parent ports).
    /// A pinned encoding — golden digests depend on it.
    pub fn fold_into(&self, w: &mut DigestWriter) {
        self.advice.fold_into(w);
        fold_stats(w, &self.run);
        w.str("tree");
        w.usize(self.tree.root);
        w.usize(self.tree.edges.len());
        for &edge in &self.tree.edges {
            w.usize(edge);
        }
        for port in &self.tree.parent_port {
            w.opt_u64(port.map(|p| p as u64));
        }
    }
}

/// An advising scheme packaged as a [`Workload`]: `prepare` is the oracle,
/// `execute` decodes on the given [`Sim`] and verifies the tree, and the
/// advice-bit accounting lands in the typed [`SchemeEvaluation`] outcome.
#[derive(Debug, Clone)]
pub struct SchemeWorkload<S> {
    name: &'static str,
    scheme: S,
}

impl<S: AdvisingScheme> SchemeWorkload<S> {
    /// Wraps `scheme` under a stable workload `name` (scenario ids and the
    /// `--workload` filter match on it, so it is chosen by the registry,
    /// not derived from the scheme's own display name).
    #[must_use]
    pub fn new(name: &'static str, scheme: S) -> Self {
        Self { name, scheme }
    }

    /// The wrapped scheme.
    #[must_use]
    pub fn scheme(&self) -> &S {
        &self.scheme
    }
}

impl<S: AdvisingScheme> Workload for SchemeWorkload<S> {
    type Prep = Advice;
    type Outcome = SchemeEvaluation;

    fn name(&self) -> &'static str {
        self.name
    }

    fn supports_reference(&self) -> bool {
        // Scheme cells were pinned in SCENARIOS.lock before the decoders
        // could run on an explicit engine; the committed matrix keeps the
        // original (no push-oracle) cell lists.
        false
    }

    fn prepare(&self, graph: &WeightedGraph) -> Result<Advice, WorkloadError> {
        self.scheme.advise(graph).map_err(to_workload_error)
    }

    fn execute(&self, sim: &Sim<'_>, advice: Advice) -> Result<SchemeEvaluation, WorkloadError> {
        evaluate_scheme_with_advice(&self.scheme, sim, &advice).map_err(to_workload_error)
    }

    fn fold(&self, w: &mut DigestWriter, outcome: &SchemeEvaluation) {
        outcome.fold_into(w);
    }

    fn summary(&self, outcome: &SchemeEvaluation) -> RunSummary {
        RunSummary::of_stats(&outcome.run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_advice_assignment() {
        let a = Advice::empty(4);
        assert_eq!(a.per_node.len(), 4);
        assert!(a.per_node.iter().all(BitString::is_empty));
        assert_eq!(a.stats().max_bits, 0);
    }

    #[test]
    fn advice_heap_bytes_count_every_string() {
        let mut a = Advice::empty(3);
        let empty = a.heap_bytes();
        assert_eq!(empty, 80);
        a.per_node[1].push_uint(5, 4);
        assert!(a.heap_bytes() >= empty + 4);
    }

    #[test]
    fn scheme_error_display_is_informative() {
        let e = SchemeError::Encoding("packing overflow".to_string());
        assert!(e.to_string().contains("packing overflow"));
        let e: SchemeError = BoruvkaError::Disconnected.into();
        assert!(e.to_string().contains("disconnected"));
    }
}

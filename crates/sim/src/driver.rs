//! The unified run pipeline: the [`Sim`] builder and the [`Workload`] trait.
//!
//! Historically every caller wired a run by hand: construct a [`RunConfig`]
//! literal, pick a round loop or an explicit executor, remember which knob
//! selects the plane backing, and fold the outputs into whatever shape the
//! harness wanted.  This module replaces all of that with **one typed
//! entry point**:
//!
//! * [`Sim`] — a zero-cost builder pinning a graph plus every run knob
//!   (model, round limit, trace, thread count, plane backing, execution
//!   engine).  It resolves to a [`RunConfig`] internally; `RunConfig`
//!   literals and the round loops are implementation details of this
//!   crate.
//!
//!   ```
//!   use lma_sim::{Backing, Model, Sim};
//!   use lma_graph::generators::ring;
//!   use lma_graph::weights::WeightStrategy;
//!
//!   let graph = ring(8, WeightStrategy::Unit);
//!   let sim = Sim::on(&graph)
//!       .model(Model::congest_for(8))
//!       .backing(Backing::Arena)
//!       .threads(2)
//!       .round_limit(1_000);
//!   # let _ = sim;
//!   ```
//!
//! * [`Workload`] — a full experiment pipeline as a value: a centralized
//!   [`prepare`](Workload::prepare) phase (the paper's *oracle*), a
//!   distributed [`execute`](Workload::execute) phase run on a `Sim`, an
//!   independent [`verify`](Workload::verify) check, and a
//!   [`fold`](Workload::fold) of the typed outcome into a
//!   [`DigestWriter`] for golden-digest regression guards.  The generic
//!   driver [`run_workload`] chains the phases; [`DynWorkload`] is the
//!   object-safe form registries store.
//!
//! * [`FleetWorkload`] — the common special case: one node program per
//!   node, one simulator run, outputs collated into the typed outcome.  A
//!   blanket impl turns any `FleetWorkload` into a [`Workload`], so simple
//!   workloads only write a program factory and a
//!   [`collate`](FleetWorkload::collate) step.
//!
//! The builder adds **zero per-run overhead**: `Sim` is a `Copy` value
//! holding a graph reference and the resolved `RunConfig`, and [`Sim::run`]
//! is lane 0 of a one-lane [`Sim::batch`] — the same two plane engines (and
//! the same per-thread plane pool) every batch runs on.

use crate::algorithm::NodeAlgorithm;
use crate::batch::BatchSim;
use crate::digest::{fold_error, DigestWriter, RunSummary};
pub use crate::executor::Engine;
use crate::frontier::FrontierMode;
use crate::model::Model;
use crate::plane::Backing;
use crate::runtime::{RunConfig, RunError, RunResult};
use lma_graph::{Partition, WeightedGraph};
use std::any::Any;
use std::num::NonZeroUsize;

/// A configured simulation: one graph plus every run knob, ready to execute
/// program fleets.  See the [module docs](self) for the builder idiom.
///
/// `Sim` is `Copy`: clone it freely to derive per-cell variants of a base
/// configuration (`sim.backing(..)`, `sim.executor(..)` consume and return
/// by value, so a shared `Sim` is never mutated in place).
#[derive(Debug, Clone, Copy)]
pub struct Sim<'g> {
    graph: &'g WeightedGraph,
    config: RunConfig,
    engine: Engine,
    /// Caller-supplied precomputed partition (see [`Sim::with_partition`]).
    partition: Option<&'g Partition>,
}

impl<'g> Sim<'g> {
    /// A simulation on `graph` with the default configuration: LOCAL model,
    /// generous round limit, no trace, one thread, inline plane backing.
    #[must_use]
    pub fn on(graph: &'g WeightedGraph) -> Self {
        Self {
            graph,
            config: RunConfig::default(),
            engine: Engine::Auto,
            partition: None,
        }
    }

    /// Sets the communication model (LOCAL or CONGEST(B)).
    #[must_use]
    pub fn model(mut self, model: Model) -> Self {
        self.config.model = model;
        self
    }

    /// Sets the hard round limit; exceeding it fails the run with
    /// [`RunError::RoundLimitExceeded`].
    #[must_use]
    pub fn round_limit(mut self, max_rounds: usize) -> Self {
        self.config.max_rounds = max_rounds;
        self
    }

    /// When `true`, the first message over the CONGEST budget aborts the run
    /// (instead of only being counted in the stats).
    #[must_use]
    pub fn enforce_congest(mut self, enforce: bool) -> Self {
        self.config.enforce_congest = enforce;
        self
    }

    /// When `true`, every message delivery is recorded in the result's
    /// trace.
    #[must_use]
    pub fn trace(mut self, trace: bool) -> Self {
        self.config.trace = trace;
        self
    }

    /// Sets the worker-thread count for [`Engine::Auto`] dispatch: `0` and
    /// `1` run on the calling thread, `t >= 2` shard-parallel on `t` scoped
    /// threads.  Results are bit-identical either way.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = NonZeroUsize::new(threads).filter(|t| t.get() > 1);
        self
    }

    /// Selects the plane's slot-storage backend (see [`Backing`]).
    #[must_use]
    pub fn backing(mut self, backing: Backing) -> Self {
        self.config.backing = backing;
        self
    }

    /// Selects the sparse-frontier scheduling mode (see
    /// [`crate::frontier::FrontierMode`]) for programs that opt in via
    /// [`NodeAlgorithm::MESSAGE_DRIVEN`].  Bit-identical results in every
    /// mode; ignored by programs that do not opt in.
    #[must_use]
    pub fn frontier(mut self, mode: FrontierMode) -> Self {
        self.config.frontier = mode;
        self
    }

    /// Supplies a precomputed [`Partition`] of this graph — **the**
    /// cached-partition facility of the workspace: multi-run harnesses
    /// (`RunHarness` in `lma-bench`) and the `lma-serve` topology cache
    /// partition a graph once and hand the result to every subsequent `Sim`
    /// on it, instead of re-partitioning per run.
    ///
    /// The partition is consulted by every shard-parallel dispatch
    /// reachable from this value — [`Sim::run`], nested pipeline runs
    /// through [`Workload::execute`], and lockstep batches ([`Sim::batch`])
    /// — whenever the run actually shards, the partition's shard count
    /// matches the resolved worker count **and** the partition fits this
    /// graph ([`Partition::fits`]: same slot layout and boundary routing).
    /// In every other case it is ignored and the run partitions on the fly,
    /// so a mismatched or foreign handoff can never change behavior, only
    /// cost.
    #[must_use]
    pub fn with_partition(mut self, partition: &'g Partition) -> Self {
        self.partition = Some(partition);
        self
    }

    /// The precomputed partition, when one was supplied.
    #[must_use]
    pub fn partition(&self) -> Option<&'g Partition> {
        self.partition
    }

    /// Pins an explicit execution engine.  The thread knob of the resolved
    /// config is *derived* from the pinned engine at [`Sim::config`] time
    /// (see there), so engine and config can never contradict each other,
    /// in any builder-call order.
    #[must_use]
    pub fn executor(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// The graph this simulation runs on.
    #[must_use]
    pub fn graph(&self) -> &'g WeightedGraph {
        self.graph
    }

    /// The resolved low-level run configuration.  Exposed for code that
    /// hands the simulator to a nested pipeline; everything else should
    /// stay on the builder.
    ///
    /// The thread knob is resolved against the pinned [`Engine`] —
    /// [`Engine::Threads`] reports its worker count (none for one thread),
    /// [`Engine::Reference`] reports none, [`Engine::Auto`] reports
    /// whatever [`Sim::threads`] set — so config-driven re-entry (e.g. a
    /// harness precomputing a partition from this value) always dispatches
    /// onto the same engine as [`Sim::run`], regardless of builder-call
    /// order.
    #[must_use]
    pub fn config(&self) -> RunConfig {
        let mut config = self.config;
        config.threads = match self.engine {
            Engine::Auto => config.threads,
            Engine::Threads(t) => Some(t).filter(|t| t.get() > 1),
            Engine::Reference => None,
        };
        config
    }

    /// The pinned execution engine.
    #[must_use]
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Runs one node program per node until every node is done, dispatching
    /// on the pinned [`Engine`]: lane 0 of a one-lane [`Sim::batch`].
    ///
    /// # Errors
    /// [`RunError::RoundLimitExceeded`] when some node is still running
    /// after the round limit, [`RunError::MalformedOutbox`] when a program
    /// sends twice through one port (or through a port it does not have),
    /// and [`RunError::CongestViolation`] when an over-budget message is
    /// sent under [`Sim::enforce_congest`].
    pub fn run<A: NodeAlgorithm>(
        &self,
        programs: Vec<A>,
    ) -> Result<RunResult<A::Output>, RunError> {
        let mut lanes = self
            .batch(1)
            .run(vec![programs])
            .expect("one fleet for a one-lane batch");
        lanes.pop().expect("one result per lane")
    }

    /// The supplied partition, when it matches the resolved worker count
    /// and fits this graph (anything else falls back to partitioning on the
    /// fly — see [`Sim::with_partition`]).
    pub(crate) fn usable_partition(&self, threads: usize) -> Option<&'g Partition> {
        self.partition
            .filter(|p| p.shard_count() == threads && p.fits(self.graph.csr()))
    }
}

/// Why a [`Workload`] pipeline failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadError {
    /// The simulator rejected the distributed phase.  Kept structured
    /// because *failing the same way* is part of a pinned scenario's
    /// contract: the error payload folds into golden digests.
    Run(RunError),
    /// The centralized prepare/oracle phase failed (e.g. a disconnected
    /// graph or an advice-packing overflow).
    Prepare(String),
    /// The outcome failed independent verification.
    Invalid(String),
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Run(e) => write!(f, "simulation failure: {e}"),
            Self::Prepare(msg) => write!(f, "prepare failure: {msg}"),
            Self::Invalid(msg) => write!(f, "verification failure: {msg}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

impl From<RunError> for WorkloadError {
    fn from(e: RunError) -> Self {
        Self::Run(e)
    }
}

/// A full experiment pipeline as a value: oracle → distributed run →
/// independent verification → digest fold.
///
/// Implementations live next to the thing they run — the baselines crate
/// implements it for its MST baselines, the advice crate for advising
/// schemes (the oracle phase is [`prepare`](Workload::prepare)), the
/// labeling crate for the certified decode-plus-verify pipeline — and the
/// scenario registry of `lma-bench` stores them as [`DynWorkload`] trait
/// objects, deriving every golden digest from [`fold`](Workload::fold)
/// instead of per-scenario glue.
///
/// For single-run workloads prefer implementing [`FleetWorkload`]; a
/// blanket impl provides `Workload` on top.
pub trait Workload: Send + Sync {
    /// Product of the centralized prepare phase (advice strings, reference
    /// trees, labels — whatever the distributed phase consumes).
    ///
    /// `Clone` because prepare is deterministic per graph and its product is
    /// pure data: a cached oracle (see [`DynWorkload::prepare_oracle`]) is
    /// cloned per run/lane rather than recomputed.  `'static + Send + Sync`
    /// so erased oracles can live in cross-request caches.
    type Prep: Clone + Send + Sync + 'static;
    /// The typed outcome of the full pipeline.
    type Outcome: Send;

    /// A short, stable name (used by scenario ids and the `--workload`
    /// filter of the `scenarios` binary).
    fn name(&self) -> &'static str;

    /// Tailors a base [`Sim`] to this workload's needs (model, trace, round
    /// limit).  The caller still owns the engine/backing knobs.
    #[must_use]
    fn tune<'g>(&self, sim: Sim<'g>) -> Sim<'g> {
        sim
    }

    /// Whether the workload can run on the push-based [`Engine::Reference`]
    /// oracle.  Multi-stage pipelines that pre-date the unified driver were
    /// pinned without reference cells; they keep answering `false` so the
    /// committed scenario matrix stays stable.
    fn supports_reference(&self) -> bool {
        true
    }

    /// The centralized oracle/setup phase.
    ///
    /// # Errors
    /// [`WorkloadError::Prepare`] when the oracle cannot handle the graph.
    fn prepare(&self, graph: &WeightedGraph) -> Result<Self::Prep, WorkloadError>;

    /// The distributed phase: build per-node programs, run them on `sim`,
    /// and collate the results into the typed outcome.
    ///
    /// # Errors
    /// [`WorkloadError::Run`] when the simulator rejects the run.
    fn execute(&self, sim: &Sim<'_>, prep: Self::Prep) -> Result<Self::Outcome, WorkloadError>;

    /// Whether [`execute_batch`](Workload::execute_batch) actually shares a
    /// traversal across lanes.  The default impl runs lanes one by one, so
    /// it answers `false`; single-fleet workloads (the [`FleetWorkload`]
    /// blanket impl) ride the lockstep batch executor and answer `true`.
    fn supports_batch(&self) -> bool {
        false
    }

    /// The distributed phase for a whole batch: one prep per lane, one
    /// outcome (or error) per lane, index for index.  The default simply
    /// executes the lanes sequentially; workloads whose distributed phase
    /// is a fleet run override this to fan the preps into a
    /// [`BatchSim::run`] so graph traversal and plane management are
    /// amortized across the batch.
    fn execute_batch(
        &self,
        batch: &BatchSim<'_>,
        preps: Vec<Self::Prep>,
    ) -> Vec<Result<Self::Outcome, WorkloadError>> {
        preps
            .into_iter()
            .map(|prep| self.execute(batch.sim(), prep))
            .collect()
    }

    /// Independent (centralized) verification of the outcome.
    ///
    /// # Errors
    /// [`WorkloadError::Invalid`] when the outcome fails the check.
    fn verify(&self, graph: &WeightedGraph, outcome: &Self::Outcome) -> Result<(), WorkloadError> {
        let _ = (graph, outcome);
        Ok(())
    }

    /// Folds the outcome into a digest writer.  The encoding is a pinned
    /// wire format: golden digests in `SCENARIOS.lock` depend on it.
    fn fold(&self, w: &mut DigestWriter, outcome: &Self::Outcome);

    /// The drift-localization summary of the outcome (see [`RunSummary`]).
    fn summary(&self, outcome: &Self::Outcome) -> RunSummary;
}

/// Runs a [`Workload`] end to end on `sim`: prepare, execute, verify.
///
/// The caller is expected to have applied [`Workload::tune`] to the `Sim`
/// (registries do this once per cell, after picking engine and backing).
///
/// # Errors
/// The first failing phase's [`WorkloadError`].
pub fn run_workload<W: Workload + ?Sized>(
    workload: &W,
    sim: &Sim<'_>,
) -> Result<W::Outcome, WorkloadError> {
    let prep = workload.prepare(sim.graph())?;
    run_workload_prepared(workload, sim, prep)
}

/// The prepare-free tail of [`run_workload`]: execute and verify with a
/// caller-supplied prep.  Because prepare is deterministic per graph, running
/// with a cached prep produces exactly what [`run_workload`] would — this is
/// the primitive the oracle cache of `lma-serve` builds on.
///
/// # Errors
/// The first failing phase's [`WorkloadError`].
pub fn run_workload_prepared<W: Workload + ?Sized>(
    workload: &W,
    sim: &Sim<'_>,
    prep: W::Prep,
) -> Result<W::Outcome, WorkloadError> {
    let outcome = workload.execute(sim, prep)?;
    workload.verify(sim.graph(), &outcome)?;
    Ok(outcome)
}

/// Runs a [`Workload`] once per lane of `batch` — prepare `W` times,
/// execute the lanes through [`Workload::execute_batch`] (lockstep when the
/// workload supports it), verify each lane independently — returning one
/// result per lane, index for index.  Each lane's result is exactly what
/// [`run_workload`] would have produced on `batch.sim()` alone; the batch
/// changes the cost, never the outcome.
pub fn run_workload_batch<W: Workload + ?Sized>(
    workload: &W,
    batch: &BatchSim<'_>,
) -> Vec<Result<W::Outcome, WorkloadError>> {
    let graph = batch.sim().graph();
    let mut preps = Vec::with_capacity(batch.lanes());
    for _ in 0..batch.lanes() {
        match workload.prepare(graph) {
            Ok(prep) => preps.push(prep),
            // Prepare is deterministic per graph: a failure fails every
            // lane the same way, exactly as `W` solo pipelines would.
            Err(e) => return (0..batch.lanes()).map(|_| Err(e.clone())).collect(),
        }
    }
    run_workload_batch_prepared(workload, batch, preps)
}

/// The prepare-free tail of [`run_workload_batch`]: execute all lanes with
/// caller-supplied preps (one per lane, index for index) and verify each lane
/// independently.
///
/// # Panics
/// When `preps.len() != batch.lanes()`.
pub fn run_workload_batch_prepared<W: Workload + ?Sized>(
    workload: &W,
    batch: &BatchSim<'_>,
    preps: Vec<W::Prep>,
) -> Vec<Result<W::Outcome, WorkloadError>> {
    assert_eq!(preps.len(), batch.lanes(), "one prep per lane");
    let graph = batch.sim().graph();
    workload
        .execute_batch(batch, preps)
        .into_iter()
        .map(|lane| {
            lane.and_then(|outcome| {
                workload.verify(graph, &outcome)?;
                Ok(outcome)
            })
        })
        .collect()
}

/// A [`Workload`] whose distributed phase is a single fleet run: one
/// program per node, one [`Sim::run`], outputs collated into the typed
/// outcome.  The blanket impl below lifts any `FleetWorkload` into a
/// [`Workload`].
pub trait FleetWorkload: Send + Sync {
    /// Product of the centralized prepare phase.  See [`Workload::Prep`]
    /// for the bounds rationale.
    type Prep: Clone + Send + Sync + 'static;
    /// The per-node program type.
    type Program: NodeAlgorithm;
    /// The typed outcome of the pipeline.
    type Outcome: Send;

    /// See [`Workload::name`].
    fn name(&self) -> &'static str;

    /// See [`Workload::tune`].
    #[must_use]
    fn tune<'g>(&self, sim: Sim<'g>) -> Sim<'g> {
        sim
    }

    /// See [`Workload::prepare`].
    ///
    /// # Errors
    /// [`WorkloadError::Prepare`] when the oracle cannot handle the graph.
    fn prepare(&self, graph: &WeightedGraph) -> Result<Self::Prep, WorkloadError>;

    /// The per-node program factory: `programs(graph, prep)[u]` is the
    /// program node `u` runs.
    fn programs(&self, graph: &WeightedGraph, prep: &Self::Prep) -> Vec<Self::Program>;

    /// Collates the raw run result into the typed outcome.
    ///
    /// # Errors
    /// [`WorkloadError::Invalid`] when the outputs cannot be collated.
    fn collate(
        &self,
        graph: &WeightedGraph,
        prep: Self::Prep,
        result: RunResult<<Self::Program as NodeAlgorithm>::Output>,
    ) -> Result<Self::Outcome, WorkloadError>;

    /// See [`Workload::verify`].
    ///
    /// # Errors
    /// [`WorkloadError::Invalid`] when the outcome fails the check.
    fn verify(&self, graph: &WeightedGraph, outcome: &Self::Outcome) -> Result<(), WorkloadError> {
        let _ = (graph, outcome);
        Ok(())
    }

    /// See [`Workload::fold`].
    fn fold(&self, w: &mut DigestWriter, outcome: &Self::Outcome);

    /// See [`Workload::summary`].
    fn summary(&self, outcome: &Self::Outcome) -> RunSummary;
}

impl<F: FleetWorkload> Workload for F {
    type Prep = F::Prep;
    type Outcome = F::Outcome;

    fn name(&self) -> &'static str {
        FleetWorkload::name(self)
    }

    fn tune<'g>(&self, sim: Sim<'g>) -> Sim<'g> {
        FleetWorkload::tune(self, sim)
    }

    fn prepare(&self, graph: &WeightedGraph) -> Result<Self::Prep, WorkloadError> {
        FleetWorkload::prepare(self, graph)
    }

    fn execute(&self, sim: &Sim<'_>, prep: Self::Prep) -> Result<Self::Outcome, WorkloadError> {
        let programs = self.programs(sim.graph(), &prep);
        let result = sim.run(programs)?;
        self.collate(sim.graph(), prep, result)
    }

    fn supports_batch(&self) -> bool {
        true
    }

    fn execute_batch(
        &self,
        batch: &BatchSim<'_>,
        preps: Vec<Self::Prep>,
    ) -> Vec<Result<Self::Outcome, WorkloadError>> {
        let graph = batch.sim().graph();
        let fleets = preps.iter().map(|p| self.programs(graph, p)).collect();
        let lane_results = batch.run(fleets).expect("one fleet per lane was supplied");
        preps
            .into_iter()
            .zip(lane_results)
            .map(|(prep, lane)| match lane {
                Ok(result) => self.collate(graph, prep, result),
                Err(e) => Err(WorkloadError::Run(e)),
            })
            .collect()
    }

    fn verify(&self, graph: &WeightedGraph, outcome: &Self::Outcome) -> Result<(), WorkloadError> {
        FleetWorkload::verify(self, graph, outcome)
    }

    fn fold(&self, w: &mut DigestWriter, outcome: &Self::Outcome) {
        FleetWorkload::fold(self, w, outcome)
    }

    fn summary(&self, outcome: &Self::Outcome) -> RunSummary {
        FleetWorkload::summary(self, outcome)
    }
}

/// An erased product of a workload's centralized prepare phase, produced by
/// [`DynWorkload::prepare_oracle`] and consumed by
/// [`DynWorkload::run_fold_prepared`] /
/// [`DynWorkload::run_fold_batch_prepared`].
///
/// Prepare is deterministic per graph, so an oracle computed once can serve
/// every later run of the same workload on the same graph — the hot-state
/// cache of `lma-serve` stores these keyed by `(workload, topology)`.  The
/// concrete type inside the box is the workload's [`Workload::Prep`]; handing
/// an oracle to a *different* workload is reported as
/// [`WorkloadError::Prepare`], never a panic.
pub type PreparedOracle = Box<dyn Any + Send + Sync>;

/// The object-safe form of [`Workload`] that heterogeneous registries
/// store: run the full pipeline and fold the outcome — or, when the
/// simulator rejects the run, the error payload — into a digest writer.
pub trait DynWorkload: Send + Sync {
    /// See [`Workload::name`].
    fn name(&self) -> &'static str;

    /// See [`Workload::tune`].
    #[must_use]
    fn tune<'g>(&self, sim: Sim<'g>) -> Sim<'g>;

    /// See [`Workload::supports_reference`].
    fn supports_reference(&self) -> bool;

    /// Runs [`run_workload`] and folds the outcome into `w`.  A
    /// [`WorkloadError::Run`] is folded as the error payload (expected for
    /// error-path scenarios) and reported as an error-shaped summary; other
    /// errors propagate.
    ///
    /// # Errors
    /// [`WorkloadError::Prepare`] / [`WorkloadError::Invalid`] from the
    /// centralized phases.
    fn run_fold(&self, sim: &Sim<'_>, w: &mut DigestWriter) -> Result<RunSummary, WorkloadError>;

    /// See [`Workload::supports_batch`].
    fn supports_batch(&self) -> bool;

    /// Runs the workload once per lane of a `lanes`-wide batch on `sim` via
    /// [`run_workload_batch`], folding each lane into its own writer
    /// (`writers[l]` ↔ lane `l`) with the same outcome-or-run-error folding
    /// as [`run_fold`](DynWorkload::run_fold).  Returns one summary per
    /// lane.
    ///
    /// # Errors
    /// [`WorkloadError::Prepare`] / [`WorkloadError::Invalid`] from the
    /// centralized phases of any lane.
    fn run_fold_batch(
        &self,
        sim: &Sim<'_>,
        lanes: usize,
        writers: &mut [DigestWriter],
    ) -> Result<Vec<RunSummary>, WorkloadError>;

    /// Runs the centralized prepare phase once, returning its product in
    /// erased, cacheable form (see [`PreparedOracle`]).
    ///
    /// # Errors
    /// [`WorkloadError::Prepare`] when the oracle cannot handle the graph.
    fn prepare_oracle(&self, graph: &WeightedGraph) -> Result<PreparedOracle, WorkloadError>;

    /// [`run_fold`](DynWorkload::run_fold) with a cached oracle in place of
    /// a fresh prepare.  Because prepare is deterministic per graph, the
    /// digest and summary are exactly those of `run_fold` on the same `sim`.
    ///
    /// # Errors
    /// [`WorkloadError::Prepare`] when `oracle` was produced by a different
    /// workload type; [`WorkloadError::Invalid`] from verification.
    fn run_fold_prepared(
        &self,
        sim: &Sim<'_>,
        oracle: &PreparedOracle,
        w: &mut DigestWriter,
    ) -> Result<RunSummary, WorkloadError>;

    /// [`run_fold_batch`](DynWorkload::run_fold_batch) with a cached oracle:
    /// the single oracle is cloned into every lane (prepare is deterministic,
    /// so `W` fresh prepares would have produced `W` equal preps).
    ///
    /// # Errors
    /// [`WorkloadError::Prepare`] when `oracle` was produced by a different
    /// workload type; [`WorkloadError::Invalid`] from any lane's
    /// verification.
    fn run_fold_batch_prepared(
        &self,
        sim: &Sim<'_>,
        oracle: &PreparedOracle,
        lanes: usize,
        writers: &mut [DigestWriter],
    ) -> Result<Vec<RunSummary>, WorkloadError>;
}

/// Recovers a workload's typed prep from an erased oracle, failing with a
/// typed error (not a panic) on a cross-workload mixup.
fn downcast_prep<'a, W: Workload + ?Sized>(
    workload: &W,
    oracle: &'a PreparedOracle,
) -> Result<&'a W::Prep, WorkloadError> {
    oracle.downcast_ref::<W::Prep>().ok_or_else(|| {
        WorkloadError::Prepare(format!(
            "cached oracle type mismatch for workload `{}`",
            workload.name()
        ))
    })
}

impl<W: Workload> DynWorkload for W {
    fn name(&self) -> &'static str {
        Workload::name(self)
    }

    fn tune<'g>(&self, sim: Sim<'g>) -> Sim<'g> {
        Workload::tune(self, sim)
    }

    fn supports_reference(&self) -> bool {
        Workload::supports_reference(self)
    }

    fn run_fold(&self, sim: &Sim<'_>, w: &mut DigestWriter) -> Result<RunSummary, WorkloadError> {
        fold_lane(self, w, run_workload(self, sim))
    }

    fn supports_batch(&self) -> bool {
        Workload::supports_batch(self)
    }

    fn run_fold_batch(
        &self,
        sim: &Sim<'_>,
        lanes: usize,
        writers: &mut [DigestWriter],
    ) -> Result<Vec<RunSummary>, WorkloadError> {
        assert_eq!(writers.len(), lanes, "one digest writer per lane");
        let batch = (*sim).batch(lanes);
        run_workload_batch(self, &batch)
            .into_iter()
            .zip(writers.iter_mut())
            .map(|(lane, w)| fold_lane(self, w, lane))
            .collect()
    }

    fn prepare_oracle(&self, graph: &WeightedGraph) -> Result<PreparedOracle, WorkloadError> {
        Ok(Box::new(Workload::prepare(self, graph)?))
    }

    fn run_fold_prepared(
        &self,
        sim: &Sim<'_>,
        oracle: &PreparedOracle,
        w: &mut DigestWriter,
    ) -> Result<RunSummary, WorkloadError> {
        let prep = downcast_prep(self, oracle)?.clone();
        fold_lane(self, w, run_workload_prepared(self, sim, prep))
    }

    fn run_fold_batch_prepared(
        &self,
        sim: &Sim<'_>,
        oracle: &PreparedOracle,
        lanes: usize,
        writers: &mut [DigestWriter],
    ) -> Result<Vec<RunSummary>, WorkloadError> {
        assert_eq!(writers.len(), lanes, "one digest writer per lane");
        let prep = downcast_prep(self, oracle)?;
        let preps = vec![prep.clone(); lanes];
        let batch = (*sim).batch(lanes);
        run_workload_batch_prepared(self, &batch, preps)
            .into_iter()
            .zip(writers.iter_mut())
            .map(|(lane, w)| fold_lane(self, w, lane))
            .collect()
    }
}

/// Folds one pipeline result into a digest writer with the
/// outcome-or-run-error discipline every [`DynWorkload`] entry point shares:
/// a [`WorkloadError::Run`] is part of the pinned contract (folded as the
/// error payload, summarized as an error), other errors propagate.
fn fold_lane<W: Workload + ?Sized>(
    workload: &W,
    w: &mut DigestWriter,
    lane: Result<W::Outcome, WorkloadError>,
) -> Result<RunSummary, WorkloadError> {
    match lane {
        Ok(outcome) => {
            workload.fold(w, &outcome);
            Ok(workload.summary(&outcome))
        }
        Err(WorkloadError::Run(error)) => {
            fold_error(w, &error);
            Ok(RunSummary::of_error())
        }
        Err(other) => Err(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{LocalView, Outbox};
    use crate::digest::fold_result;
    use lma_graph::generators::ring;
    use lma_graph::weights::WeightStrategy;
    use lma_graph::Port;

    struct Echo {
        rounds_left: usize,
    }

    impl NodeAlgorithm for Echo {
        type Msg = u64;
        type Output = u64;

        fn init(&mut self, view: &LocalView) -> Outbox<u64> {
            (0..view.degree()).map(|p| (p, view.id)).collect()
        }

        fn round(&mut self, _: &LocalView, _: usize, inbox: &[(Port, u64)]) -> Outbox<u64> {
            self.rounds_left = self.rounds_left.saturating_sub(1);
            if self.rounds_left == 0 {
                return Vec::new();
            }
            inbox.iter().map(|&(p, m)| (p, m)).collect()
        }

        fn is_done(&self) -> bool {
            self.rounds_left == 0
        }

        fn output(&self) -> Option<u64> {
            (self.rounds_left == 0).then_some(7)
        }
    }

    fn fleet(n: usize) -> Vec<Echo> {
        (0..n).map(|_| Echo { rounds_left: 4 }).collect()
    }

    #[test]
    fn builder_resolves_to_the_expected_config() {
        let g = ring(6, WeightStrategy::Unit);
        let sim = Sim::on(&g)
            .model(Model::Congest { bits: 16 })
            .round_limit(99)
            .enforce_congest(true)
            .trace(true)
            .threads(3)
            .backing(Backing::Arena);
        let config = sim.config();
        assert_eq!(config.model, Model::Congest { bits: 16 });
        assert_eq!(config.max_rounds, 99);
        assert!(config.enforce_congest);
        assert!(config.trace);
        assert_eq!(config.threads, NonZeroUsize::new(3));
        assert_eq!(config.backing, Backing::Arena);
        assert_eq!(sim.engine(), Engine::Auto);
    }

    fn threads(t: usize) -> Engine {
        Engine::Threads(NonZeroUsize::new(t).unwrap())
    }

    #[test]
    fn one_thread_resolves_to_sequential_dispatch() {
        let g = ring(6, WeightStrategy::Unit);
        assert_eq!(Sim::on(&g).threads(1).config().threads, None);
        assert_eq!(Sim::on(&g).threads(0).config().threads, None);
        let pinned = Sim::on(&g).threads(4).executor(threads(1));
        assert_eq!(pinned.config().threads, None);
        // A one-thread pin runs exactly what the default does.
        let expected = Sim::on(&g).run(fleet(6)).unwrap();
        let got = pinned.run(fleet(6)).unwrap();
        assert_eq!(expected.outputs, got.outputs);
        assert_eq!(expected.stats, got.stats);
    }

    #[test]
    fn resolved_config_threads_always_match_the_pinned_engine() {
        let g = ring(6, WeightStrategy::Unit);
        let sim = Sim::on(&g).executor(threads(4));
        assert_eq!(sim.config().threads, NonZeroUsize::new(4));
        // A one-thread or push engine overrides the thread knob in the
        // resolved view — in either builder-call order — so config-driven
        // re-entry cannot contradict the pinned engine.
        for engine in [threads(1), Engine::Reference] {
            let before = Sim::on(&g).threads(4).executor(engine);
            let after = Sim::on(&g).executor(engine).threads(4);
            assert_eq!(before.config().threads, None, "{engine:?}");
            assert_eq!(after.config().threads, None, "{engine:?}");
        }
        // Auto keeps whatever the threads knob said.
        let sim = Sim::on(&g).threads(4).executor(Engine::Auto);
        assert_eq!(sim.config().threads, NonZeroUsize::new(4));
    }

    #[test]
    fn every_engine_produces_identical_results() {
        let g = ring(12, WeightStrategy::DistinctRandom { seed: 3 });
        let base = Sim::on(&g).trace(true);
        let auto = base.run(fleet(12)).unwrap();
        for engine in [threads(1), threads(2), threads(3), Engine::Reference] {
            let got = base.executor(engine).run(fleet(12)).unwrap();
            assert_eq!(auto.outputs, got.outputs, "{engine:?}");
            assert_eq!(auto.stats, got.stats, "{engine:?}");
            assert_eq!(auto.trace, got.trace, "{engine:?}");
        }
    }

    #[test]
    fn engine_labels_are_stable() {
        assert_eq!(Engine::Auto.label(), "auto");
        assert_eq!(threads(1).label(), "seq");
        assert_eq!(threads(2).label(), "sharded2");
        assert_eq!(threads(4).label(), "sharded4");
        assert_eq!(Engine::Reference.label(), "push");
    }

    /// A minimal fleet workload covering the blanket impl and the erased
    /// error path.
    struct EchoWorkload {
        round_limit: Option<usize>,
    }

    impl FleetWorkload for EchoWorkload {
        type Prep = ();
        type Program = Echo;
        type Outcome = RunResult<u64>;

        fn name(&self) -> &'static str {
            "echo"
        }

        fn tune<'g>(&self, sim: Sim<'g>) -> Sim<'g> {
            match self.round_limit {
                Some(limit) => sim.round_limit(limit),
                None => sim,
            }
        }

        fn prepare(&self, _graph: &WeightedGraph) -> Result<(), WorkloadError> {
            Ok(())
        }

        fn programs(&self, graph: &WeightedGraph, (): &()) -> Vec<Echo> {
            fleet(graph.node_count())
        }

        fn collate(
            &self,
            _graph: &WeightedGraph,
            (): (),
            result: RunResult<u64>,
        ) -> Result<RunResult<u64>, WorkloadError> {
            Ok(result)
        }

        fn verify(
            &self,
            _graph: &WeightedGraph,
            outcome: &RunResult<u64>,
        ) -> Result<(), WorkloadError> {
            if outcome.outputs.iter().all(|o| *o == Some(7)) {
                Ok(())
            } else {
                Err(WorkloadError::Invalid("wrong echo output".to_string()))
            }
        }

        fn fold(&self, w: &mut DigestWriter, outcome: &RunResult<u64>) {
            fold_result(w, outcome, |w, o| w.u64(*o));
        }

        fn summary(&self, outcome: &RunResult<u64>) -> RunSummary {
            RunSummary::of_stats(&outcome.stats)
        }
    }

    #[test]
    fn run_workload_chains_prepare_execute_verify() {
        let g = ring(9, WeightStrategy::Unit);
        let workload = EchoWorkload { round_limit: None };
        let sim = Workload::tune(&workload, Sim::on(&g));
        let outcome = run_workload(&workload, &sim).unwrap();
        assert_eq!(outcome.stats.rounds, 4);
    }

    #[test]
    fn erased_workload_folds_outcomes_and_run_errors() {
        let g = ring(9, WeightStrategy::Unit);
        let ok: &dyn DynWorkload = &EchoWorkload { round_limit: None };
        let failing: &dyn DynWorkload = &EchoWorkload {
            round_limit: Some(1),
        };

        let mut w = DigestWriter::new();
        let summary = ok.run_fold(&ok.tune(Sim::on(&g)), &mut w).unwrap();
        assert_eq!(summary.rounds, 4);
        let ok_digest = w.finish();

        let mut w = DigestWriter::new();
        let summary = failing
            .run_fold(&failing.tune(Sim::on(&g)), &mut w)
            .unwrap();
        assert_eq!(summary, RunSummary::of_error());
        assert_ne!(
            w.finish(),
            ok_digest,
            "error payloads must re-key the digest"
        );
    }

    #[test]
    fn batched_workload_folds_match_solo_runs_lane_for_lane() {
        let g = ring(9, WeightStrategy::Unit);
        let ok: &dyn DynWorkload = &EchoWorkload { round_limit: None };
        let failing: &dyn DynWorkload = &EchoWorkload {
            round_limit: Some(1),
        };
        assert!(ok.supports_batch(), "fleet workloads batch natively");
        for workload in [ok, failing] {
            let sim = workload.tune(Sim::on(&g));
            let mut solo = DigestWriter::new();
            let solo_summary = workload.run_fold(&sim, &mut solo).unwrap();
            let solo_digest = solo.finish();

            let lanes = 3;
            let mut writers: Vec<DigestWriter> = (0..lanes).map(|_| DigestWriter::new()).collect();
            let summaries = workload.run_fold_batch(&sim, lanes, &mut writers).unwrap();
            assert_eq!(summaries, vec![solo_summary; lanes]);
            for w in writers {
                assert_eq!(w.finish(), solo_digest, "per-lane digest drifted");
            }
        }
    }

    #[test]
    fn cached_oracle_runs_match_fresh_prepares() {
        let g = ring(9, WeightStrategy::Unit);
        let workload: &dyn DynWorkload = &EchoWorkload { round_limit: None };
        let sim = workload.tune(Sim::on(&g));

        let mut fresh = DigestWriter::new();
        let fresh_summary = workload.run_fold(&sim, &mut fresh).unwrap();
        let fresh_digest = fresh.finish();

        let oracle = workload.prepare_oracle(&g).unwrap();
        let mut cached = DigestWriter::new();
        let cached_summary = workload
            .run_fold_prepared(&sim, &oracle, &mut cached)
            .unwrap();
        assert_eq!(cached_summary, fresh_summary);
        assert_eq!(cached.finish(), fresh_digest);

        // The same single oracle serves a whole batch, lane for lane.
        let lanes = 3;
        let mut writers: Vec<DigestWriter> = (0..lanes).map(|_| DigestWriter::new()).collect();
        let summaries = workload
            .run_fold_batch_prepared(&sim, &oracle, lanes, &mut writers)
            .unwrap();
        assert_eq!(summaries, vec![fresh_summary; lanes]);
        for w in writers {
            assert_eq!(w.finish(), fresh_digest, "per-lane digest drifted");
        }
    }

    #[test]
    fn mismatched_oracle_is_a_typed_error_not_a_panic() {
        let g = ring(9, WeightStrategy::Unit);
        let workload: &dyn DynWorkload = &EchoWorkload { round_limit: None };
        let alien: PreparedOracle = Box::new(42u64);
        let mut w = DigestWriter::new();
        match workload.run_fold_prepared(&workload.tune(Sim::on(&g)), &alien, &mut w) {
            Err(WorkloadError::Prepare(msg)) => assert!(msg.contains("echo"), "{msg}"),
            other => panic!("expected a typed prepare error, got {other:?}"),
        }
        let mut writers = vec![DigestWriter::new()];
        assert!(matches!(
            workload.run_fold_batch_prepared(&workload.tune(Sim::on(&g)), &alien, 1, &mut writers),
            Err(WorkloadError::Prepare(_))
        ));
    }

    #[test]
    fn precomputed_partition_runs_are_bit_identical() {
        let g = ring(12, WeightStrategy::DistinctRandom { seed: 3 });
        let base = Sim::on(&g).threads(3).trace(true);
        let fresh = base.run(fleet(12)).unwrap();

        let partition = Partition::new(g.csr(), 3);
        let cached = base.with_partition(&partition).run(fleet(12)).unwrap();
        assert_eq!(fresh.outputs, cached.outputs);
        assert_eq!(fresh.stats, cached.stats);
        assert_eq!(fresh.trace, cached.trace);

        // A shard-count mismatch silently falls back to on-the-fly
        // partitioning — same results, never an error.
        let wrong = Partition::new(g.csr(), 5);
        let fallback = base.with_partition(&wrong).run(fleet(12)).unwrap();
        assert_eq!(fresh.outputs, fallback.outputs);
        assert_eq!(fresh.stats, fallback.stats);

        // And the partition threads through lockstep batches.
        let lanes = 2;
        let fleets: Vec<Vec<Echo>> = (0..lanes).map(|_| fleet(12)).collect();
        let batched = base.with_partition(&partition).batch(lanes);
        for lane in batched.run(fleets).unwrap() {
            let lane = lane.unwrap();
            assert_eq!(fresh.outputs, lane.outputs);
            assert_eq!(fresh.stats, lane.stats);
        }
    }

    #[test]
    fn cached_partition_is_not_reused_for_a_different_graph_of_equal_size() {
        // Two graphs with identical node/slot counts but different edges:
        // a partition of one must not route the other, or the cross-shard
        // tables of the first would misroute (or panic on) the second.
        let a = ring(24, WeightStrategy::DistinctRandom { seed: 1 });
        let b = lma_graph::generators::connected_random(
            24,
            24,
            7,
            WeightStrategy::DistinctRandom { seed: 7 },
        );
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.csr().slot_count(), b.csr().slot_count());
        let partition = Partition::new(a.csr(), 3);
        assert!(partition.fits(a.csr()));
        assert!(!partition.fits(b.csr()));
        for g in [&a, &b] {
            let base = Sim::on(g).trace(true);
            let solo = base.run(fleet(24)).unwrap();
            let cached = base.threads(3).with_partition(&partition);
            let got = cached.run(fleet(24)).unwrap();
            assert_eq!(solo.outputs, got.outputs);
            assert_eq!(solo.stats, got.stats);
            assert_eq!(solo.trace, got.trace);
            for lane in cached.batch(2).run(vec![fleet(24), fleet(24)]).unwrap() {
                let lane = lane.unwrap();
                assert_eq!(solo.outputs, lane.outputs);
                assert_eq!(solo.stats, lane.stats);
                assert_eq!(solo.trace, lane.trace);
            }
        }
    }

    #[test]
    fn workload_error_display_is_informative() {
        let e = WorkloadError::from(RunError::RoundLimitExceeded { limit: 3 });
        assert!(e.to_string().contains("3 rounds"));
        assert!(WorkloadError::Prepare("oops".into())
            .to_string()
            .contains("oops"));
        assert!(WorkloadError::Invalid("bad".into())
            .to_string()
            .contains("bad"));
    }
}

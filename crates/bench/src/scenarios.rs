//! The scenario registry and golden-digest regression guard.
//!
//! A [`Scenario`] is a deterministic workload pinned to a graph family,
//! size and seed; each one expands into cells over every applicable
//! (executor × plane backing) [`Variant`].  Since the unified run-pipeline
//! redesign, the registry is fully **declarative**: a scenario names a
//! [`WorkloadKind`], and everything about running a cell — the oracle
//! phase, the node programs, model/trace tuning, output verification, and
//! the digest fold — comes from that workload's [`Workload`]
//! implementation ([`lma_baselines::workloads`], [`lma_advice::SchemeWorkload`],
//! [`lma_labeling::CertifiedWorkload`]).  Adding a workload to the matrix
//! is one registry entry, not a new glue layer.
//!
//! Running a cell folds the run's full observable output — per-round
//! message counts and bit volumes, congestion-audit stats, advice-bit
//! accounting, final node states/labels/trees, verification verdicts,
//! error payloads — into a stable 64-byte [`Digest`] (see
//! [`lma_sim::digest`]).  The committed goldens live in `SCENARIOS.lock`
//! at the workspace root, one record per scenario: cells of one scenario
//! must be bit-identical — that invariance is exactly what the executor
//! stack promises, so the lock stores a single digest plus the cell labels
//! required to match it.  The `scenarios` binary
//! (`cargo run -p lma-bench --bin scenarios`) supports `list`, `run`,
//! `verify` and `update` (plus `update --missing` to append newly
//! registered scenarios without re-pinning the rest); CI runs
//! `verify --smoke` on every push.
//!
//! Digests deliberately exclude the executor and backing (cells differing
//! only in those knobs must collide) and include the scenario parameters
//! (two scenarios must not collide).  Drift is localized via the per-round
//! checksum chain of [`RunSummary`]: the first diverging round is reported
//! next to the expected/actual digests.
//!
//! [`Workload`]: lma_sim::driver::Workload

use lma_advice::{ConstantScheme, OneRoundScheme, SchemeWorkload, TrivialScheme};
use lma_baselines::{
    FloodCollectWorkload, FloodWorkload, GhsWorkload, GossipWorkload, WaveWorkload,
};
use lma_graph::generators::Family;
use lma_graph::weights::WeightStrategy;
use lma_graph::{Port, WeightedGraph};
use lma_labeling::CertifiedWorkload;
use lma_sim::digest::{Digest, DigestWriter, RunSummary};
use lma_sim::driver::{DynWorkload, Engine, FleetWorkload, Sim, WorkloadError};
use lma_sim::{Backing, LocalView, NodeAlgorithm, Outbox, RunResult};
use std::num::NonZeroUsize;

/// One (executor × plane backing × lane count) combination of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Variant {
    /// The execution engine (never [`Engine::Auto`] — registry cells pin
    /// the engine explicitly).
    pub engine: Engine,
    /// The plane's slot-storage backend.
    pub backing: Backing,
    /// `Some(W)` runs the cell through the lockstep batch executor at `W`
    /// lanes (every lane must reproduce the scenario digest — `batched(W)`
    /// ≡ `W` sequential runs is part of the pinned contract); `None` is an
    /// ordinary single-run cell.
    pub lanes: Option<NonZeroUsize>,
}

impl Variant {
    /// Stable label: `engine/backing` (e.g. `sharded2/arena`) for
    /// single-run cells, `batch<W>/backing` (e.g. `batch8/inline`) for
    /// batch-executor cells.
    #[must_use]
    pub fn label(&self) -> String {
        let backing = self.backing.as_str();
        match self.lanes {
            Some(w) => format!("batch{w}/{backing}"),
            None => format!("{}/{}", self.engine.label(), backing),
        }
    }
}

/// The deterministic workload families the registry covers.  Each kind
/// resolves to a [`Workload`] value via [`WorkloadKind::workload`]; the
/// kind itself stays a tiny `Copy` enum so registry entries remain
/// declarative data.
///
/// [`Workload`]: lma_sim::driver::Workload
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Max-identifier flooding for exactly `n` rounds, LOCAL model with the
    /// delivery trace folded into the digest.
    Flood,
    /// Fixed-payload gossip broadcast under a CONGEST(Θ(log n)) audit
    /// (violations counted, not enforced) — the variable-size-payload path
    /// of the arena backing.
    Gossip,
    /// Message-driven BFS wave (the sparse-frontier workload): nodes stay
    /// silent until reached, so the run exercises the dense↔sparse
    /// active-set switch; outputs are verified against BFS distances.
    Wave,
    /// The GHS-style synchronous Borůvka baseline.
    GhsBoruvka,
    /// The LOCAL flood-and-compute baseline.
    FloodCollect,
    /// The trivial (⌈log n⌉, 0) advising scheme.
    SchemeTrivial,
    /// The Theorem 2 one-round scheme.
    SchemeOneRound,
    /// The Theorem 3 constant-advice scheme (the paper's main result).
    SchemeConstant,
    /// Theorem 3 decode followed by the distributed verification round of
    /// `lma-labeling` (certified pipeline; folds labels + verdicts).
    CertifiedConstant,
    /// Error path: flooding against an impossibly small round limit.
    ErrRoundLimit,
    /// Error path: a node emitting two messages through one port.
    ErrMalformed,
}

/// Facts per gossip payload (sized so arena spans stay multi-word).
const GOSSIP_FACTS: usize = 24;
/// Gossip rounds per run.
const GOSSIP_ROUNDS: usize = 8;
/// Round limit of the [`WorkloadKind::ErrRoundLimit`] cells.
const ERR_ROUND_LIMIT: usize = 5;

impl WorkloadKind {
    /// Every registered workload kind, in declaration order — the single
    /// enumeration point for catalog listings and name resolution.
    pub const ALL: [WorkloadKind; 11] = [
        WorkloadKind::Flood,
        WorkloadKind::Gossip,
        WorkloadKind::Wave,
        WorkloadKind::GhsBoruvka,
        WorkloadKind::FloodCollect,
        WorkloadKind::SchemeTrivial,
        WorkloadKind::SchemeOneRound,
        WorkloadKind::SchemeConstant,
        WorkloadKind::CertifiedConstant,
        WorkloadKind::ErrRoundLimit,
        WorkloadKind::ErrMalformed,
    ];

    /// Resolves a stable name (see [`WorkloadKind::name`]) back to its kind.
    #[must_use]
    pub fn from_name(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Stable name used in scenario ids (always equal to the resolved
    /// workload's [`DynWorkload::name`] — pinned by a test).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Flood => "flood",
            WorkloadKind::Gossip => "gossip",
            WorkloadKind::Wave => "wave",
            WorkloadKind::GhsBoruvka => "ghs-boruvka",
            WorkloadKind::FloodCollect => "flood-collect",
            WorkloadKind::SchemeTrivial => "scheme-trivial",
            WorkloadKind::SchemeOneRound => "scheme-one-round",
            WorkloadKind::SchemeConstant => "scheme-constant",
            WorkloadKind::CertifiedConstant => "certified-constant",
            WorkloadKind::ErrRoundLimit => "err-round-limit",
            WorkloadKind::ErrMalformed => "err-malformed",
        }
    }

    /// Whether the kind's cells include the push-based reference engine
    /// (kept in sync with the resolved workload's
    /// [`DynWorkload::supports_reference`] — pinned by a test — so
    /// [`Scenario::variants`] never has to construct a workload just to
    /// read this static flag).
    #[must_use]
    pub fn supports_reference(self) -> bool {
        !matches!(
            self,
            WorkloadKind::SchemeTrivial
                | WorkloadKind::SchemeOneRound
                | WorkloadKind::SchemeConstant
                | WorkloadKind::CertifiedConstant
        )
    }

    /// Resolves the kind to its workload implementation.
    #[must_use]
    pub fn workload(self) -> Box<dyn DynWorkload> {
        match self {
            WorkloadKind::Flood => Box::new(FloodWorkload::traced()),
            WorkloadKind::Gossip => Box::new(GossipWorkload::new(GOSSIP_FACTS, GOSSIP_ROUNDS)),
            WorkloadKind::Wave => Box::new(WaveWorkload),
            WorkloadKind::GhsBoruvka => Box::new(GhsWorkload),
            WorkloadKind::FloodCollect => Box::new(FloodCollectWorkload),
            WorkloadKind::SchemeTrivial => Box::new(SchemeWorkload::new(
                "scheme-trivial",
                TrivialScheme::default(),
            )),
            WorkloadKind::SchemeOneRound => Box::new(SchemeWorkload::new(
                "scheme-one-round",
                OneRoundScheme::default(),
            )),
            WorkloadKind::SchemeConstant => Box::new(SchemeWorkload::new(
                "scheme-constant",
                ConstantScheme::default(),
            )),
            WorkloadKind::CertifiedConstant => Box::new(CertifiedWorkload::new(
                "certified-constant",
                ConstantScheme::default(),
            )),
            WorkloadKind::ErrRoundLimit => Box::new(FloodWorkload::round_limited(ERR_ROUND_LIMIT)),
            WorkloadKind::ErrMalformed => Box::new(DoublePortWorkload),
        }
    }
}

/// One registered scenario: a workload pinned to a graph instance.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// The workload.
    pub workload: WorkloadKind,
    /// The graph family.
    pub family: Family,
    /// Approximate node count handed to [`Family::instantiate`].
    pub n: usize,
    /// Seed for the generator and the weight strategy.
    pub seed: u64,
    /// Whether the scenario is part of the CI smoke subset.
    pub smoke: bool,
    /// Whether the scenario also expands batch-executor cells (see
    /// [`BATCH_WIDTHS`]).
    pub batch: bool,
}

/// Sharded worker counts every full-matrix scenario is pinned on.
pub const SHARD_COUNTS: [usize; 2] = [2, 4];

/// Lane widths batch-marked scenarios are pinned on (inline backing; an
/// extra `W = 8` cell covers the arena).  `batched(W)` must reproduce the
/// scenario's solo digest in every lane.  `W = 1` is not listed: a solo
/// run *is* a one-lane batch, so `batch1/*` would be the `seq/*` cell again.
pub const BATCH_WIDTHS: [usize; 2] = [8, 64];

impl Scenario {
    /// Stable scenario id, e.g. `flood/ring/n48/s11`.
    #[must_use]
    pub fn id(&self) -> String {
        format!(
            "{}/{}/n{}/s{}",
            self.workload.name(),
            self.family.name(),
            self.n,
            self.seed
        )
    }

    /// Marks the scenario as carrying batch-executor cells (see
    /// [`BATCH_WIDTHS`] and [`Scenario::variants`]).
    #[must_use]
    pub fn with_batch(mut self) -> Self {
        self.batch = true;
        self
    }

    /// Every cell of this scenario: one thread and every [`SHARD_COUNTS`]
    /// thread count on every backing ([`Backing::ALL`]), plus the push
    /// oracle (inline only — it has no plane, so a second backing cell would
    /// be the same run twice) when the workload supports the reference
    /// engine, plus — for batch-marked scenarios — lockstep batches at every
    /// [`BATCH_WIDTHS`] lane count (inline) and at `W = 8` on the arena.
    #[must_use]
    pub fn variants(&self) -> Vec<Variant> {
        let threads = |t: usize| Engine::Threads(NonZeroUsize::new(t).expect("t >= 1"));
        let mut variants = Vec::new();
        for backing in Backing::ALL {
            variants.push(Variant {
                engine: threads(1),
                backing,
                lanes: None,
            });
            for t in SHARD_COUNTS {
                variants.push(Variant {
                    engine: threads(t),
                    backing,
                    lanes: None,
                });
            }
        }
        if self.workload.supports_reference() {
            variants.push(Variant {
                engine: Engine::Reference,
                backing: Backing::Inline,
                lanes: None,
            });
        }
        if self.batch {
            for w in BATCH_WIDTHS {
                variants.push(Variant {
                    engine: threads(1),
                    backing: Backing::Inline,
                    lanes: NonZeroUsize::new(w),
                });
            }
            variants.push(Variant {
                engine: threads(1),
                backing: Backing::Arena,
                lanes: NonZeroUsize::new(8),
            });
        }
        variants
    }

    /// The graph instance of this scenario (deterministic per seed).
    #[must_use]
    pub fn graph(&self) -> WeightedGraph {
        self.family.instantiate(
            self.n,
            WeightStrategy::DistinctRandom { seed: self.seed },
            self.seed,
        )
    }

    /// Runs one cell and produces its digest + per-round summary.
    #[must_use]
    pub fn run(&self, variant: Variant) -> CellOutcome {
        self.run_on(&self.graph(), variant)
    }

    /// A digest writer seeded with this scenario's identity header.
    /// Domain separation: the scenario identity (but never the variant —
    /// cells of one scenario must collide bit-for-bit).
    fn fold_header(&self) -> DigestWriter {
        scenario_fold_header(self.workload.name(), self.family.name(), self.n, self.seed)
    }

    /// Like [`Scenario::run`], on a caller-built graph instance —
    /// [`run_scenario`] builds the graph once and reuses it across all
    /// cells instead of regenerating it per cell.  `graph` must be
    /// [`Scenario::graph`]'s instance, or the digest is meaningless.
    #[must_use]
    pub fn run_on(&self, graph: &WeightedGraph, variant: Variant) -> CellOutcome {
        let workload = self.workload.workload();
        let sim = workload
            .tune(Sim::on(graph))
            .executor(variant.engine)
            .backing(variant.backing);
        if let Some(lanes) = variant.lanes {
            // Batch cell: every lane folds into its own writer; all W
            // digests must agree (per-lane bit-equality with the sequential
            // run is the batch executor's contract), and the shared digest
            // must then also match the scenario's golden.
            let lanes = lanes.get();
            let mut writers: Vec<DigestWriter> = (0..lanes).map(|_| self.fold_header()).collect();
            let summaries = workload
                .run_fold_batch(&sim, lanes, &mut writers)
                .unwrap_or_else(|e| panic!("scenario {} failed: {e}", self.id()));
            let digests: Vec<Digest> = writers.into_iter().map(DigestWriter::finish).collect();
            let digest = if digests.iter().all(|d| *d == digests[0]) {
                digests[0]
            } else {
                // Lane divergence is an executor defect: synthesize a digest
                // that can never match the golden, so `verify` flags the
                // cell instead of silently trusting lane 0.
                let mut w = self.fold_header();
                w.str("batch-lane-divergence");
                for d in &digests {
                    w.str(&d.to_string());
                }
                w.finish()
            };
            let summary = summaries.into_iter().next().expect("W >= 1 lanes");
            return CellOutcome { digest, summary };
        }
        let mut w = self.fold_header();
        let summary = workload
            .run_fold(&sim, &mut w)
            .unwrap_or_else(|e| panic!("scenario {} failed: {e}", self.id()));
        CellOutcome {
            digest: w.finish(),
            summary,
        }
    }
}

/// A digest writer seeded with a scenario identity header — **the** pinned
/// domain-separation prefix every golden digest in `SCENARIOS.lock` starts
/// from.  Public so out-of-registry consumers (the `lma-serve` run pipeline)
/// can fold byte-identical digests for the same `(workload, family, n, seed)`
/// identity; `workload` / `family` are the stable names
/// ([`WorkloadKind::name`], [`Family::name`]).
#[must_use]
pub fn scenario_fold_header(workload: &str, family: &str, n: usize, seed: u64) -> DigestWriter {
    let mut w = DigestWriter::new();
    w.str("scenario");
    w.str(workload);
    w.str(family);
    w.usize(n);
    w.u64(seed);
    w
}

// ---------------------------------------------------------------------------
// The malformed-outbox workload (registry-local: it exists to pin an error
// path of the simulator itself, not a distributed algorithm)
// ---------------------------------------------------------------------------

/// A deliberately malformed program: sends two messages through port 0 in
/// `init`, so every executor must report `MalformedOutbox { node: 0, port: 0 }`.
#[derive(Default)]
struct DoublePort {
    done: bool,
}

impl NodeAlgorithm for DoublePort {
    type Msg = bool;
    type Output = ();

    fn init(&mut self, _view: &LocalView) -> Outbox<bool> {
        vec![(0, true), (0, false)]
    }

    fn round(&mut self, _: &LocalView, _: usize, _: &[(Port, bool)]) -> Outbox<bool> {
        self.done = true;
        Vec::new()
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn output(&self) -> Option<()> {
        self.done.then_some(())
    }
}

/// The malformed-outbox error-path workload: failing the same way is part
/// of the pinned contract, so the folded "outcome" is the error payload.
struct DoublePortWorkload;

impl FleetWorkload for DoublePortWorkload {
    type Prep = ();
    type Program = DoublePort;
    type Outcome = RunResult<()>;

    fn name(&self) -> &'static str {
        "err-malformed"
    }

    fn prepare(&self, _graph: &WeightedGraph) -> Result<(), WorkloadError> {
        Ok(())
    }

    fn programs(&self, graph: &WeightedGraph, (): &()) -> Vec<DoublePort> {
        graph.nodes().map(|_| DoublePort::default()).collect()
    }

    fn collate(
        &self,
        _graph: &WeightedGraph,
        (): (),
        result: RunResult<()>,
    ) -> Result<RunResult<()>, WorkloadError> {
        Ok(result)
    }

    fn fold(&self, w: &mut DigestWriter, outcome: &RunResult<()>) {
        fold_result_unit(w, outcome);
    }

    fn summary(&self, outcome: &RunResult<()>) -> RunSummary {
        RunSummary::of_stats(&outcome.stats)
    }
}

/// Folds a unit-output run result (the historical `()` output encoding:
/// presence marker + the `0x75` unit tag).
fn fold_result_unit(w: &mut DigestWriter, result: &RunResult<()>) {
    lma_sim::digest::fold_result(w, result, |w, ()| w.u64(0x75));
}

/// The committed scenario registry.  Append-only by convention: changing an
/// existing entry's parameters re-keys its golden digest, which `verify`
/// reports as a stale lock until `update` is run; *new* entries are pinned
/// in place with `update --missing`.
#[must_use]
pub fn registry() -> Vec<Scenario> {
    use Family as F;
    use WorkloadKind as W;
    let s = |workload, family, n, seed, smoke| Scenario {
        workload,
        family,
        n,
        seed,
        smoke,
        batch: false,
    };
    vec![
        // Flooding: LOCAL, trace-folded; ring (worst-case diameter), the
        // scale-free hubs, and the torus lattice.
        s(W::Flood, F::Ring, 48, 11, true).with_batch(),
        s(W::Flood, F::PreferentialAttachment, 64, 12, true),
        s(W::Flood, F::Torus, 49, 13, false),
        // Gossip: variable-size payloads under a CONGEST audit; the
        // small-world shortcuts and a sparse random control.
        s(W::Gossip, F::SmallWorld, 48, 21, true),
        s(W::Gossip, F::SparseRandom, 40, 22, false),
        // The no-advice baselines (full distributed MST pipelines).
        s(W::GhsBoruvka, F::Ring, 16, 31, true),
        s(W::GhsBoruvka, F::PreferentialAttachment, 24, 32, false),
        s(W::FloodCollect, F::SmallWorld, 32, 41, true),
        // The paper's advising schemes (oracle → decode → verified MST,
        // advice-bit accounting folded).
        s(W::SchemeConstant, F::PreferentialAttachment, 48, 51, true),
        s(W::SchemeConstant, F::Geometric, 40, 52, false),
        s(W::SchemeOneRound, F::Torus, 36, 53, true),
        s(W::SchemeTrivial, F::Ring, 32, 54, false),
        // The certified pipeline: decode + distributed verification labels.
        s(W::CertifiedConstant, F::SmallWorld, 40, 55, true),
        // Error paths: failing the same way is part of the contract.
        s(W::ErrRoundLimit, F::Ring, 24, 61, true),
        s(W::ErrMalformed, F::Star, 12, 62, true),
        // Cells unlocked by the unified Workload API (PR 5): advising
        // schemes on the Barabási–Albert and Watts–Strogatz families.
        s(W::SchemeOneRound, F::PreferentialAttachment, 40, 56, false),
        s(W::SchemeTrivial, F::SmallWorld, 36, 57, true).with_batch(),
        // Sparse frontier execution (PR 8): the message-driven BFS wave.
        // Runs under the default auto schedule — the digest must not depend
        // on the dense↔sparse decision, which the frontier equivalence
        // suite pins and these goldens re-check on every verify.  Ring is
        // the long-diameter sparse regime (batch cells included); the
        // scale-free hubs give a fast-collapsing dense-control wave.
        s(W::Wave, F::Ring, 48, 81, true).with_batch(),
        s(W::Wave, F::PreferentialAttachment, 56, 82, false),
    ]
}

/// Total cell count of the registry (every scenario × its variants).
#[must_use]
pub fn cell_count(scenarios: &[Scenario]) -> usize {
    scenarios.iter().map(|s| s.variants().len()).sum()
}

/// The outcome of one cell: its digest and the drift-localization summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellOutcome {
    /// The 64-byte golden digest.
    pub digest: Digest,
    /// Aggregate + per-round summary (empty chain for error cells).
    pub summary: RunSummary,
}

// ---------------------------------------------------------------------------
// The lock file
// ---------------------------------------------------------------------------

/// The golden record of one scenario in `SCENARIOS.lock`: a single digest
/// (every cell of the scenario must produce it bit-for-bit) plus the drift
/// summary and the cell labels the registry expands to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Golden {
    /// The scenario id (see [`Scenario::id`]).
    pub id: String,
    /// Whether the scenario belongs to the smoke subset.
    pub smoke: bool,
    /// The golden digest.
    pub digest: Digest,
    /// Rounds of the golden run (0 for error scenarios).
    pub rounds: usize,
    /// Total messages of the golden run.
    pub messages: u64,
    /// Total message bits of the golden run.
    pub bits: u64,
    /// Per-round checksum chain (empty for error scenarios).
    pub chain: Vec<u16>,
    /// The `engine/backing` labels that must all reproduce `digest`.
    pub cells: Vec<String>,
}

impl Golden {
    fn chain_hex(&self) -> String {
        if self.chain.is_empty() {
            return "-".to_string();
        }
        self.chain.iter().map(|c| format!("{c:04x}")).collect()
    }

    fn parse_chain(s: &str) -> Result<Vec<u16>, String> {
        if s == "-" {
            return Ok(Vec::new());
        }
        if !s.len().is_multiple_of(4) {
            return Err(format!("chain length {} is not a multiple of 4", s.len()));
        }
        (0..s.len() / 4)
            .map(|i| {
                u16::from_str_radix(&s[4 * i..4 * i + 4], 16)
                    .map_err(|e| format!("bad chain entry at {i}: {e}"))
            })
            .collect()
    }
}

/// The parsed `SCENARIOS.lock` manifest.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LockFile {
    /// Golden records, in registry order.
    pub scenarios: Vec<Golden>,
}

impl LockFile {
    /// Looks up a scenario's golden record by id.
    #[must_use]
    pub fn get(&self, id: &str) -> Option<&Golden> {
        self.scenarios.iter().find(|g| g.id == id)
    }

    /// Renders the manifest in the committed line format.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "# SCENARIOS.lock — golden digests of the scenario registry.\n\
             #\n\
             # One record per scenario; every listed cell (executor/backing\n\
             # combination) must reproduce the digest bit-for-bit.  Verify with\n\
             #   cargo run --release -p lma-bench --bin scenarios -- verify\n\
             # and, after an *intentional* behavior change, regenerate with\n\
             #   cargo run --release -p lma-bench --bin scenarios -- update\n\
             # (then review the diff: every changed digest is a behavior change\n\
             # you are signing off on).\n",
        );
        for g in &self.scenarios {
            out.push_str(&format!(
                "scenario {} smoke={} rounds={} messages={} bits={}\n",
                g.id, g.smoke, g.rounds, g.messages, g.bits
            ));
            out.push_str(&format!("  digest {}\n", g.digest));
            out.push_str(&format!("  chain {}\n", g.chain_hex()));
            out.push_str(&format!("  cells {}\n", g.cells.join(" ")));
        }
        out
    }

    /// Parses the committed line format.
    ///
    /// # Errors
    /// A human-readable description of the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut scenarios: Vec<Golden> = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |msg: String| format!("SCENARIOS.lock line {}: {msg}", lineno + 1);
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("scenario") => {
                    let id = parts.next().ok_or_else(|| err("missing id".into()))?;
                    let mut golden = Golden {
                        id: id.to_string(),
                        smoke: false,
                        digest: Digest([0; 8]),
                        rounds: 0,
                        messages: 0,
                        bits: 0,
                        chain: Vec::new(),
                        cells: Vec::new(),
                    };
                    for kv in parts {
                        let (key, value) = kv
                            .split_once('=')
                            .ok_or_else(|| err(format!("bad field {kv:?}")))?;
                        match key {
                            "smoke" => {
                                golden.smoke = value
                                    .parse()
                                    .map_err(|_| err(format!("bad smoke {value:?}")))?;
                            }
                            "rounds" => {
                                golden.rounds = value
                                    .parse()
                                    .map_err(|_| err(format!("bad rounds {value:?}")))?;
                            }
                            "messages" => {
                                golden.messages = value
                                    .parse()
                                    .map_err(|_| err(format!("bad messages {value:?}")))?;
                            }
                            "bits" => {
                                golden.bits = value
                                    .parse()
                                    .map_err(|_| err(format!("bad bits {value:?}")))?;
                            }
                            _ => return Err(err(format!("unknown field {key:?}"))),
                        }
                    }
                    scenarios.push(golden);
                }
                Some(field @ ("digest" | "chain" | "cells")) => {
                    let golden = scenarios
                        .last_mut()
                        .ok_or_else(|| err(format!("{field} before any scenario")))?;
                    match field {
                        "digest" => {
                            let hex = parts.next().ok_or_else(|| err("missing digest".into()))?;
                            golden.digest = Digest::parse(hex)
                                .ok_or_else(|| err(format!("bad digest {hex:?}")))?;
                        }
                        "chain" => {
                            let hex = parts.next().ok_or_else(|| err("missing chain".into()))?;
                            golden.chain = Golden::parse_chain(hex).map_err(err)?;
                        }
                        "cells" => {
                            golden.cells = parts.map(str::to_string).collect();
                        }
                        _ => unreachable!(),
                    }
                }
                Some(other) => return Err(err(format!("unknown directive {other:?}"))),
                None => {}
            }
        }
        Ok(Self { scenarios })
    }
}

/// Runs every variant of `scenario` and checks the cross-variant invariance,
/// returning the (single) outcome and the variant outcomes that disagreed
/// with the first one, if any.
#[must_use]
pub fn run_scenario(scenario: &Scenario) -> ScenarioOutcome {
    run_scenario_cells(scenario, &scenario.variants())
}

/// Like [`run_scenario`], restricted to an explicit cell subset (the
/// `scenarios` binary's `--executor`/`--backing` filters) — the graph is
/// still built once and shared across the selected cells.
#[must_use]
pub fn run_scenario_cells(scenario: &Scenario, variants: &[Variant]) -> ScenarioOutcome {
    let graph = scenario.graph();
    let mut outcomes: Vec<(Variant, CellOutcome)> = Vec::with_capacity(variants.len());
    for &variant in variants {
        outcomes.push((variant, scenario.run_on(&graph, variant)));
    }
    ScenarioOutcome { outcomes }
}

/// Every cell outcome of one scenario.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// `(variant, outcome)` in registry variant order.
    pub outcomes: Vec<(Variant, CellOutcome)>,
}

impl ScenarioOutcome {
    /// The first cell's outcome (the canonical one: `seq/inline`).
    #[must_use]
    pub fn canonical(&self) -> &CellOutcome {
        &self.outcomes[0].1
    }

    /// Variants whose digest differs from the canonical cell's.
    #[must_use]
    pub fn divergent(&self) -> Vec<&(Variant, CellOutcome)> {
        let canonical = self.canonical().digest;
        self.outcomes
            .iter()
            .filter(|(_, o)| o.digest != canonical)
            .collect()
    }

    /// Builds the golden record for this scenario.
    #[must_use]
    pub fn golden(&self, scenario: &Scenario) -> Golden {
        let canonical = self.canonical();
        Golden {
            id: scenario.id(),
            smoke: scenario.smoke,
            digest: canonical.digest,
            rounds: canonical.summary.rounds,
            messages: canonical.summary.total_messages,
            bits: canonical.summary.total_bits,
            chain: canonical.summary.round_chain.clone(),
            cells: scenario.variants().iter().map(Variant::label).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_meets_the_coverage_floor() {
        let scenarios = registry();
        assert!(
            cell_count(&scenarios) >= 30,
            "the lock must cover at least 30 cells, got {}",
            cell_count(&scenarios)
        );
        // The matrix shape: 19 scenarios × (2 backings × 3 thread counts)
        // + 12 push cells + 3 batch-marked scenarios × 3 batch cells.
        assert_eq!(cell_count(&scenarios), 135, "registry cell matrix changed");
        // All three engines, every backing.
        let mut engines = std::collections::BTreeSet::new();
        let mut backings = std::collections::BTreeSet::new();
        for s in &scenarios {
            for v in s.variants() {
                engines.insert(v.engine.label());
                backings.insert(format!("{:?}", v.backing));
            }
        }
        assert!(engines.contains("seq"));
        assert!(engines.contains("sharded2"));
        assert!(engines.contains("sharded4"));
        assert!(engines.contains("push"));
        assert_eq!(backings.len(), Backing::ALL.len());
        // Batch cells: at least one batch-marked scenario per label family,
        // every pinned width on the inline backing plus the arena W=8 cell —
        // and no one-lane batch cell, which would repeat `seq/inline`.
        let batch_labels: std::collections::BTreeSet<String> = scenarios
            .iter()
            .filter(|s| s.batch)
            .flat_map(|s| s.variants())
            .filter(|v| v.lanes.is_some())
            .map(|v| v.label())
            .collect();
        assert_eq!(
            batch_labels,
            ["batch64/inline", "batch8/arena", "batch8/inline"]
                .map(String::from)
                .into(),
        );
        // At least one advice-scheme workload and two of the new families.
        assert!(scenarios.iter().any(|s| !s.workload.supports_reference()));
        assert!(scenarios
            .iter()
            .any(|s| s.family == Family::PreferentialAttachment));
        assert!(scenarios.iter().any(|s| s.family == Family::SmallWorld));
        // The smoke subset is non-trivial but not everything.
        let smoke = scenarios.iter().filter(|s| s.smoke).count();
        assert!(smoke >= 5 && smoke < scenarios.len());
    }

    #[test]
    fn kind_names_match_their_workload_names() {
        for kind in WorkloadKind::ALL {
            assert_eq!(kind.name(), kind.workload().name(), "{kind:?}");
            assert_eq!(
                kind.supports_reference(),
                kind.workload().supports_reference(),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn kind_names_are_unique_and_resolve_back() {
        let mut names = std::collections::BTreeSet::new();
        for kind in WorkloadKind::ALL {
            assert!(names.insert(kind.name()), "duplicate name {}", kind.name());
            assert_eq!(WorkloadKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(WorkloadKind::from_name("no-such-workload"), None);
    }

    #[test]
    fn scenario_ids_are_unique() {
        let mut ids: Vec<String> = registry().iter().map(Scenario::id).collect();
        ids.sort();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }

    #[test]
    fn cells_of_one_scenario_are_bit_identical_across_engines_and_backings() {
        // One cheap full-matrix scenario and one config-dispatch scenario:
        // every variant must produce the canonical digest.
        for scenario in [
            // The flood scenario is batch-marked, so this also pins the
            // batch cells (every lane) against the sequential digest.
            Scenario {
                workload: WorkloadKind::Flood,
                family: Family::Ring,
                n: 16,
                seed: 7,
                smoke: false,
                batch: true,
            },
            Scenario {
                workload: WorkloadKind::SchemeConstant,
                family: Family::SmallWorld,
                n: 24,
                seed: 9,
                smoke: false,
                batch: false,
            },
        ] {
            let outcome = run_scenario(&scenario);
            let divergent = outcome.divergent();
            assert!(
                divergent.is_empty(),
                "scenario {} diverged on {:?}",
                scenario.id(),
                divergent.iter().map(|(v, _)| v.label()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn error_cells_agree_across_engines_and_fold_the_payload() {
        let scenario = Scenario {
            workload: WorkloadKind::ErrMalformed,
            family: Family::Star,
            n: 8,
            seed: 3,
            smoke: false,
            batch: false,
        };
        let outcome = run_scenario(&scenario);
        assert!(outcome.divergent().is_empty());
        assert_eq!(outcome.canonical().summary.rounds, 0);
    }

    #[test]
    fn perturbing_the_seed_changes_the_digest() {
        let base = Scenario {
            workload: WorkloadKind::Flood,
            family: Family::PreferentialAttachment,
            n: 20,
            seed: 1,
            smoke: false,
            batch: false,
        };
        let perturbed = Scenario { seed: 2, ..base };
        let a = base.run(base.variants()[0]);
        let b = perturbed.run(perturbed.variants()[0]);
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn lock_file_roundtrips_through_render_and_parse() {
        let golden = Golden {
            id: "flood/ring/n48/s11".to_string(),
            smoke: true,
            digest: Digest([1, 2, 3, 4, 5, 6, 7, 8]),
            rounds: 3,
            messages: 42,
            bits: 640,
            chain: vec![0xabcd, 0x0001, 0xffff],
            cells: vec!["seq/inline".to_string(), "push/inline".to_string()],
        };
        let error = Golden {
            id: "err-malformed/star/n12/s62".to_string(),
            smoke: true,
            digest: Digest([9; 8]),
            rounds: 0,
            messages: 0,
            bits: 0,
            chain: Vec::new(),
            cells: vec!["seq/inline".to_string()],
        };
        let lock = LockFile {
            scenarios: vec![golden, error],
        };
        let parsed = LockFile::parse(&lock.render()).unwrap();
        assert_eq!(parsed, lock);
        assert!(parsed.get("flood/ring/n48/s11").is_some());
        assert!(parsed.get("missing").is_none());
    }

    #[test]
    fn lock_file_parse_rejects_malformed_input() {
        assert!(LockFile::parse("digest abc\n").is_err());
        assert!(LockFile::parse("scenario a bogus=1\n").is_err());
        assert!(LockFile::parse("scenario a\n  digest zz\n").is_err());
        assert!(LockFile::parse("what is this\n").is_err());
    }

    #[test]
    fn committed_lock_matches_the_registry_structure() {
        // Cheap structural guard (no cells are run): the committed lock must
        // list exactly the registry's scenarios and cell labels, so editing
        // the registry without running `scenarios update` fails fast in
        // `cargo test` too, not only in the CI verify job.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../SCENARIOS.lock");
        let text = std::fs::read_to_string(path)
            .expect("SCENARIOS.lock must be committed at the workspace root");
        let lock = LockFile::parse(&text).expect("committed lock must parse");
        let scenarios = registry();
        assert_eq!(
            lock.scenarios.len(),
            scenarios.len(),
            "lock and registry disagree on scenario count — run `scenarios update`"
        );
        for scenario in &scenarios {
            let golden = lock
                .get(&scenario.id())
                .unwrap_or_else(|| panic!("scenario {} missing from lock", scenario.id()));
            assert_eq!(golden.smoke, scenario.smoke, "{}", scenario.id());
            assert_eq!(
                golden.cells,
                scenario
                    .variants()
                    .iter()
                    .map(Variant::label)
                    .collect::<Vec<_>>(),
                "cell list drifted for {} — run `scenarios update`",
                scenario.id()
            );
        }
    }
}

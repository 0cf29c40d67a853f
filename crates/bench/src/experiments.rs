//! The experiment implementations (tables E1–E6, ablations A1–A4).
//!
//! Every function returns a [`Table`]; the `experiments` binary prints them
//! (`--table <id>` for one), and `EXPERIMENTS.lock` pins the printed tables
//! byte for byte (`--verify` checks them).
//! All randomness is seeded, so tables are exactly reproducible — including
//! under parallelism: every sweep goes through the [`RunHarness`] (per-graph
//! state reuse) and [`fan_out`] (deterministic, index-ordered cell
//! parallelism), and every run dispatches on [`RunOpts::threads`], so the
//! tables are bit-identical whether a sweep runs on one thread or many.

use crate::harness::{fan_out, RunHarness};
use crate::table::{fmt_f64, Table};
use lma_advice::constant::encoder;
use lma_advice::constant::schedule::{log_log_n, Schedule};
use lma_advice::lowerbound::{attack_scheme_at, certified_report, truncated_trivial};
use lma_advice::tradeoff::frontier;
use lma_advice::{AdvisingScheme, ConstantScheme, ConstantVariant, OneRoundScheme, TrivialScheme};
use lma_baselines::{FloodCollectMst, NoAdviceMst, SyncBoruvkaMst};
use lma_graph::generators::connected_random;
use lma_graph::generators::lowerbound::{lowerbound_gn, LowerBoundParams};
use lma_graph::weights::WeightStrategy;
use lma_graph::WeightedGraph;
use lma_labeling::faults::{flip_advice_bits, FaultPlan};
use lma_labeling::MstCertificate;
use lma_mst::boruvka::{run_boruvka, BoruvkaConfig, BoruvkaError, TieBreak};
use lma_mst::verify::verify_upward_outputs;
use lma_sim::{Model, Sim};
use std::num::NonZeroUsize;

/// Parallelism knobs for an experiment sweep (both default to sequential,
/// which reproduces the historical tables bit for bit).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOpts {
    /// Per-run sharding: forwarded to [`Sim::threads`], so every simulated
    /// run inside the sweep uses the sharded executor.  Best for few,
    /// large runs.
    pub threads: Option<NonZeroUsize>,
    /// Cross-cell fan-out: independent (seed, scheme) cells of a sweep run
    /// on this many scoped threads (see [`fan_out`]).  Best for many small
    /// runs.
    pub cell_threads: Option<NonZeroUsize>,
}

impl RunOpts {
    /// The base simulation for a sweep on `graph` (LOCAL; the per-run
    /// parallelism knob applied).
    #[must_use]
    pub fn sim<'g>(&self, graph: &'g WeightedGraph) -> Sim<'g> {
        Sim::on(graph).threads(self.threads.map_or(0, NonZeroUsize::get))
    }

    /// The cell-level worker count (1 = plain sequential map).
    #[must_use]
    pub fn cells(&self) -> NonZeroUsize {
        self.cell_threads
            .unwrap_or(NonZeroUsize::new(1).expect("1 is nonzero"))
    }
}

/// Identifier of one experiment, as used by `--table <id>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentId {
    /// Theorem 1 lower bound.
    E1,
    /// Theorem 2 one-round scheme.
    E2,
    /// Theorem 3 constant scheme.
    E3,
    /// Scheme comparison table (the headline tradeoff).
    E4,
    /// Rounds vs n against the no-advice baselines.
    E5,
    /// Advice-vs-time tradeoff frontier (the paper's open problem).
    E6,
    /// Packing-capacity ablation.
    A1,
    /// Tie-breaking ablation.
    A2,
    /// CONGEST message-size audit.
    A3,
    /// Fault-injection / distributed-verification audit.
    A4,
}

impl ExperimentId {
    /// All experiments, in report order.
    pub const ALL: [ExperimentId; 10] = [
        ExperimentId::E1,
        ExperimentId::E2,
        ExperimentId::E3,
        ExperimentId::E4,
        ExperimentId::E5,
        ExperimentId::E6,
        ExperimentId::A1,
        ExperimentId::A2,
        ExperimentId::A3,
        ExperimentId::A4,
    ];

    /// Parses a table id such as `e1` or `A3`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "e1" => Some(Self::E1),
            "e2" => Some(Self::E2),
            "e3" => Some(Self::E3),
            "e4" => Some(Self::E4),
            "e5" => Some(Self::E5),
            "e6" => Some(Self::E6),
            "a1" => Some(Self::A1),
            "a2" => Some(Self::A2),
            "a3" => Some(Self::A3),
            "a4" => Some(Self::A4),
            _ => None,
        }
    }

    /// Runs the experiment with its default parameters (sized for a laptop)
    /// on one thread.
    #[must_use]
    pub fn run_default(self) -> Table {
        self.run_with(RunOpts::default())
    }

    /// Runs the experiment with its default parameters under the given
    /// parallelism knobs; the resulting table is identical to
    /// [`ExperimentId::run_default`] regardless of `opts`.
    #[must_use]
    pub fn run_with(self, opts: RunOpts) -> Table {
        match self {
            Self::E1 => run_e1_lower_bound(&[8, 16, 32, 64, 128], opts),
            Self::E2 => run_e2_one_round(&[64, 128, 256, 512, 1024], opts),
            Self::E3 => run_e3_constant(&[64, 128, 256, 512, 1024], opts),
            Self::E4 => run_e4_scheme_comparison(256, opts),
            Self::E5 => run_e5_rounds_vs_n(&[32, 64, 128, 256], opts),
            Self::E6 => run_e6_tradeoff_frontier(&[256, 1024, 4096], opts),
            Self::A1 => run_a1_capacity_sweep(512),
            Self::A2 => run_a2_tie_break(64, 12, opts),
            Self::A3 => run_a3_congest_audit(256, opts),
            Self::A4 => run_a4_fault_detection(96, 24, opts),
        }
    }
}

/// The default experiment graph: a connected random graph with ~3n edges and
/// pairwise-distinct weights, seeded per `(n, seed)`.
#[must_use]
pub fn experiment_graph(n: usize, seed: u64) -> WeightedGraph {
    connected_random(
        n,
        3 * n,
        seed,
        WeightStrategy::DistinctRandom {
            seed: seed ^ 0xABCD,
        },
    )
}

fn eval_row<S: AdvisingScheme + ?Sized>(
    scheme: &S,
    harness: &RunHarness<'_>,
) -> (usize, f64, usize, usize, bool) {
    match harness.evaluate(scheme) {
        Ok(eval) => (
            eval.advice.max_bits,
            eval.advice.avg_bits,
            eval.run.rounds,
            eval.run.max_message_bits,
            true,
        ),
        Err(_) => (0, 0.0, 0, 0, false),
    }
}

/// **E1** (Theorem 1, Figure 1): the certified average-advice lower bound on
/// `G_n` at zero rounds, next to what the trivial zero-round scheme actually
/// uses, and a falsification of an under-budgeted zero-round scheme.
#[must_use]
pub fn run_e1_lower_bound(clique_sizes: &[usize], opts: RunOpts) -> Table {
    let mut t = Table::new(
        "E1 (Theorem 1): zero-round schemes need Omega(log n) average advice on G_n",
        &[
            "n (clique)",
            "nodes 2n",
            "certified avg LB [bits]",
            "trivial avg [bits]",
            "trivial max [bits]",
            "LB @ u_2 [bits]",
            "starved scheme falsified",
        ],
    );
    for &n in clique_sizes {
        let report = certified_report(n);
        let g = lowerbound_gn(&LowerBoundParams::new(n));
        let trivial = TrivialScheme {
            boruvka: BoruvkaConfig {
                root: None,
                tie_break: TieBreak::CanonicalGlobal,
            },
        };
        let harness = RunHarness::new(opts.sim(&g));
        let (max_bits, avg_bits, _rounds, _msg, ok) = eval_row(&trivial, &harness);
        assert!(ok, "the trivial scheme must solve G_{n}");
        let bits_at_u2 = lma_advice::lowerbound::certified_node_bits(n, 2);
        let starved = truncated_trivial(bits_at_u2.saturating_sub(1));
        let falsified = attack_scheme_at(&starved, n, 2)
            .map(|w| w.is_some())
            .unwrap_or(true);
        t.push_row(vec![
            n.to_string(),
            (2 * n).to_string(),
            fmt_f64(report.average_bits),
            fmt_f64(avg_bits),
            max_bits.to_string(),
            bits_at_u2.to_string(),
            if falsified {
                "yes".to_string()
            } else {
                "no".to_string()
            },
        ]);
    }
    t
}

/// **E2** (Theorem 2): one-round decoding with constant average advice.
#[must_use]
pub fn run_e2_one_round(sizes: &[usize], opts: RunOpts) -> Table {
    let mut t = Table::new(
        "E2 (Theorem 2): (O(log^2 n), 1)-scheme with constant average advice",
        &[
            "graph",
            "n",
            "max advice [bits]",
            "avg advice [bits]",
            "analytic avg bound",
            "rounds",
            "verified MST",
        ],
    );
    let scheme = OneRoundScheme::default();
    for &n in sizes {
        let mut instances = vec![("sparse-random", experiment_graph(n, n as u64))];
        if n <= 512 {
            instances.push((
                "dense-random",
                connected_random(n, n * n / 8, 7, WeightStrategy::DistinctRandom { seed: 7 }),
            ));
        }
        for (label, g) in instances {
            let harness = RunHarness::new(opts.sim(&g));
            let (max_bits, avg_bits, rounds, _msg, ok) = eval_row(&scheme, &harness);
            t.push_row(vec![
                label.to_string(),
                g.node_count().to_string(),
                max_bits.to_string(),
                fmt_f64(avg_bits),
                fmt_f64(OneRoundScheme::ANALYTIC_AVERAGE_BOUND),
                rounds.to_string(),
                ok.to_string(),
            ]);
        }
    }
    t
}

/// **E3** (Theorem 3): constant maximum advice, `O(log n)` rounds, for both
/// decoder variants.
#[must_use]
pub fn run_e3_constant(sizes: &[usize], opts: RunOpts) -> Table {
    let mut t = Table::new(
        "E3 (Theorem 3): (O(1), O(log n))-scheme, both variants",
        &[
            "variant",
            "n",
            "max advice [bits]",
            "claimed max",
            "rounds",
            "9*ceil(log n)",
            "max message [bits]",
            "verified MST",
        ],
    );
    for variant in [ConstantVariant::Index, ConstantVariant::Level] {
        let scheme = ConstantScheme {
            variant,
            ..ConstantScheme::default()
        };
        for &n in sizes {
            let g = experiment_graph(n, 0xE3 + n as u64);
            let harness = RunHarness::new(opts.sim(&g));
            let (max_bits, _avg, rounds, msg, ok) = eval_row(&scheme, &harness);
            t.push_row(vec![
                variant.label().to_string(),
                n.to_string(),
                max_bits.to_string(),
                scheme.claimed_max_bits(n).unwrap_or(0).to_string(),
                rounds.to_string(),
                Schedule::nine_log_n(n).to_string(),
                msg.to_string(),
                ok.to_string(),
            ]);
        }
    }
    t
}

/// **E4**: the headline tradeoff — every scheme and baseline on the same
/// graph.  All cells share one harness (one graph, pooled planes) and fan
/// out across `opts.cell_threads`.
#[must_use]
pub fn run_e4_scheme_comparison(n: usize, opts: RunOpts) -> Table {
    let mut t = Table::new(
        "E4: scheme comparison (single sparse random graph)",
        &[
            "algorithm",
            "n",
            "max advice [bits]",
            "avg advice [bits]",
            "rounds",
            "max message [bits]",
            "verified MST",
        ],
    );
    let g = experiment_graph(n, 0xE4);
    let harness = RunHarness::new(opts.sim(&g));
    let schemes: Vec<Box<dyn AdvisingScheme>> = vec![
        Box::new(TrivialScheme::default()),
        Box::new(OneRoundScheme::default()),
        Box::new(ConstantScheme::default()),
        Box::new(ConstantScheme::paper_literal()),
    ];
    for row in fan_out(&schemes, opts.cells(), |_, scheme| {
        let (max_bits, avg_bits, rounds, msg, ok) = eval_row(scheme.as_ref(), &harness);
        vec![
            scheme.name().to_string(),
            n.to_string(),
            max_bits.to_string(),
            fmt_f64(avg_bits),
            rounds.to_string(),
            msg.to_string(),
            ok.to_string(),
        ]
    }) {
        t.push_row(row);
    }
    let baselines = [
        Box::new(SyncBoruvkaMst) as Box<dyn NoAdviceMst>,
        Box::new(FloodCollectMst) as Box<dyn NoAdviceMst>,
    ];
    for row in fan_out(&baselines, opts.cells(), |_, baseline| {
        let (outputs, stats) = baseline.run(&harness.sim()).expect("baseline run succeeds");
        let ok = verify_upward_outputs(&g, &outputs).is_ok();
        vec![
            baseline.name().to_string(),
            n.to_string(),
            "0".to_string(),
            fmt_f64(0.0),
            stats.rounds.to_string(),
            stats.max_message_bits.to_string(),
            ok.to_string(),
        ]
    }) {
        t.push_row(row);
    }
    t
}

/// **E5**: rounds as a function of `n` — the "exponential decrease of the
/// computation time" claim.
#[must_use]
pub fn run_e5_rounds_vs_n(sizes: &[usize], opts: RunOpts) -> Table {
    let mut t = Table::new(
        "E5: rounds vs n — Theorem 3 scheme against the no-advice baselines",
        &[
            "n",
            "diameter",
            "thm3 rounds",
            "9*ceil(log n)",
            "sync-boruvka rounds",
            "flood-collect rounds",
        ],
    );
    let scheme = ConstantScheme::default();
    for &n in sizes {
        let g = experiment_graph(n, 0xE5 + n as u64);
        let harness = RunHarness::new(opts.sim(&g));
        let eval = harness.evaluate(&scheme).expect("thm3 succeeds");
        let (b_out, b_stats) = SyncBoruvkaMst.run(&harness.sim()).expect("baseline");
        verify_upward_outputs(&g, &b_out).expect("baseline MST");
        let (f_out, f_stats) = FloodCollectMst.run(&harness.sim()).expect("baseline");
        verify_upward_outputs(&g, &f_out).expect("baseline MST");
        t.push_row(vec![
            n.to_string(),
            g.diameter().to_string(),
            eval.run.rounds.to_string(),
            Schedule::nine_log_n(n).to_string(),
            b_stats.rounds.to_string(),
            f_stats.rounds.to_string(),
        ]);
    }
    t
}

/// **A1**: packing-capacity ablation — the smallest per-node capacity `c`
/// for which the Theorem 3 packing succeeds, per variant.
#[must_use]
pub fn run_a1_capacity_sweep(n: usize) -> Table {
    let mut t = Table::new(
        "A1: packing capacity ablation (Theorem 3 oracle)",
        &["variant", "n", "capacity c", "packs", "max advice [bits]"],
    );
    let g = experiment_graph(n, 0xA1);
    let run = run_boruvka(&g, &BoruvkaConfig::default()).expect("boruvka succeeds");
    let k = log_log_n(g.node_count());
    for variant in [ConstantVariant::Index, ConstantVariant::Level] {
        for c in 1..=encoder::capacity(variant) + 2 {
            let result = encoder::encode(&g, &run, variant, k, c, 1);
            let (packs, max_bits) = match result {
                Ok(advice) => (true, advice.stats().max_bits),
                Err(_) => (false, 0),
            };
            t.push_row(vec![
                variant.label().to_string(),
                n.to_string(),
                c.to_string(),
                packs.to_string(),
                max_bits.to_string(),
            ]);
        }
    }
    t
}

/// **A2**: tie-breaking ablation — the paper's port-order rule versus the
/// canonical global order on duplicate-weight graphs.  The
/// `(tie-break, max_w, seed)` cells are fully independent, so they fan out
/// across `opts.cell_threads` and are re-aggregated in cell order.
#[must_use]
pub fn run_a2_tie_break(n: usize, trials: u64, opts: RunOpts) -> Table {
    let mut t = Table::new(
        "A2: tie-breaking ablation on duplicate-weight random graphs",
        &[
            "tie-break",
            "n",
            "max distinct weights",
            "trials",
            "MSTs produced",
            "selection cycles detected",
        ],
    );
    let mut cells = Vec::new();
    for tie_break in [TieBreak::PaperPortOrder, TieBreak::CanonicalGlobal] {
        for max_w in [2u64, 4, 16] {
            for seed in 0..trials {
                cells.push((tie_break, max_w, seed));
            }
        }
    }
    let outcomes = fan_out(&cells, opts.cells(), |_, &(tie_break, max_w, seed)| {
        let g = connected_random(
            n,
            3 * n,
            seed,
            WeightStrategy::UniformRandom { seed, max: max_w },
        );
        match run_boruvka(
            &g,
            &BoruvkaConfig {
                root: None,
                tie_break,
            },
        ) {
            Ok(run) => {
                lma_mst::verify::verify_mst_edges(&g, &run.mst_edges).expect("must be an MST");
                true
            }
            Err(BoruvkaError::SelectionCycle { .. }) => false,
            Err(e) => panic!("unexpected error {e}"),
        }
    });
    // Re-aggregate per (tie-break, max_w) row, in cell order (rows exist —
    // with zero counts — even when `trials` is 0).
    let mut offset = 0usize;
    for tie_break in [TieBreak::PaperPortOrder, TieBreak::CanonicalGlobal] {
        for max_w in [2u64, 4, 16] {
            let slice = &outcomes[offset..offset + trials as usize];
            offset += trials as usize;
            let ok = slice.iter().filter(|&&mst| mst).count();
            let cycles = slice.len() - ok;
            t.push_row(vec![
                format!("{tie_break:?}"),
                n.to_string(),
                max_w.to_string(),
                trials.to_string(),
                ok.to_string(),
                cycles.to_string(),
            ]);
        }
    }
    t
}

/// **A3**: CONGEST audit — maximum message size of every algorithm against
/// the `O(log n)` budget.
#[must_use]
pub fn run_a3_congest_audit(n: usize, opts: RunOpts) -> Table {
    let mut t = Table::new(
        "A3: CONGEST message-size audit",
        &[
            "algorithm",
            "n",
            "max message [bits]",
            "CONGEST budget [bits]",
            "within budget",
        ],
    );
    let g = experiment_graph(n, 0xA3);
    let budget = Model::congest_for(n).budget().unwrap_or(usize::MAX);
    let harness = RunHarness::new(opts.sim(&g).model(Model::congest_for(n)));
    let sim = harness.sim();

    let schemes: Vec<Box<dyn AdvisingScheme>> = vec![
        Box::new(TrivialScheme::default()),
        Box::new(OneRoundScheme::default()),
        Box::new(ConstantScheme::default()),
    ];
    for row in fan_out(&schemes, opts.cells(), |_, scheme| {
        let advice = scheme.advise(&g).expect("oracle succeeds");
        let outcome = scheme.decode(&sim, &advice).expect("decode succeeds");
        vec![
            scheme.name().to_string(),
            n.to_string(),
            outcome.stats.max_message_bits.to_string(),
            budget.to_string(),
            (outcome.stats.congest_violations == 0).to_string(),
        ]
    }) {
        t.push_row(row);
    }
    let baselines = [
        Box::new(SyncBoruvkaMst) as Box<dyn NoAdviceMst>,
        Box::new(FloodCollectMst) as Box<dyn NoAdviceMst>,
    ];
    for row in fan_out(&baselines, opts.cells(), |_, baseline| {
        let (_outputs, stats) = baseline.run(&sim).expect("baseline run succeeds");
        vec![
            baseline.name().to_string(),
            n.to_string(),
            stats.max_message_bits.to_string(),
            budget.to_string(),
            (stats.congest_violations == 0).to_string(),
        ]
    }) {
        t.push_row(row);
    }
    t
}

/// **E6**: the advice-vs-time frontier traced by the tradeoff scheme
/// ([`lma_advice::tradeoff`]) — the constructive exploration of the paper's
/// open problem.  One row per `(n, cutoff)`: measured maximum/average advice,
/// measured rounds, the claimed bounds, and the advice × time product.
#[must_use]
pub fn run_e6_tradeoff_frontier(sizes: &[usize], opts: RunOpts) -> Table {
    let mut t = Table::new(
        "E6: advice-vs-time tradeoff frontier (truncated Theorem 3 construction)",
        &[
            "n",
            "cutoff P",
            "max advice [bits]",
            "avg advice [bits]",
            "rounds",
            "claimed max [bits]",
            "claimed rounds",
            "advice x rounds",
        ],
    );
    for &n in sizes {
        let g = experiment_graph(n, 0xE6);
        let points = frontier(&opts.sim(&g)).expect("frontier evaluation succeeds");
        for p in points {
            t.push_row(vec![
                n.to_string(),
                p.cutoff.to_string(),
                p.max_bits.to_string(),
                fmt_f64(p.avg_bits),
                p.rounds.to_string(),
                p.claimed_max_bits.to_string(),
                p.claimed_rounds.to_string(),
                p.product().to_string(),
            ]);
        }
    }
    t
}

/// **A4**: fault injection against the distributed verification layer
/// (`lma-labeling`).  For every scheme, random advice-bit flips and random
/// output corruptions are applied `trials` times; the table reports how many
/// corruptions the decoder itself rejected, how many changed the output, how
/// many of those the one-round distributed verifier caught, and how many were
/// silently accepted (the column that must read 0).
#[must_use]
pub fn run_a4_fault_detection(n: usize, trials: u64, opts: RunOpts) -> Table {
    let mut t = Table::new(
        "A4: fault injection vs distributed verification (one extra round)",
        &[
            "scheme",
            "fault model",
            "trials",
            "decoder rejected",
            "output changed",
            "caught by nodes",
            "silent failures",
        ],
    );
    let g = experiment_graph(n, 0xA4);
    let reference = BoruvkaConfig::default();
    let oracle = run_boruvka(&g, &reference).expect("connected graph");
    let labels = MstCertificate::certify(&g, &oracle.tree);
    let honest: Vec<_> = oracle.tree.upward_outputs().into_iter().map(Some).collect();

    let schemes: Vec<Box<dyn AdvisingScheme>> = vec![
        Box::new(TrivialScheme::default()),
        Box::new(OneRoundScheme::default()),
        Box::new(ConstantScheme::default()),
    ];

    /// Outcome of one fault-injection trial.
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Trial {
        NoFault,
        DecoderRejected,
        OutputUnchanged,
        Caught,
        Silent,
    }

    let sim = opts.sim(&g);
    let trial_cells: Vec<u64> = (0..trials).collect();

    // Fault model 1: flipped advice bits, decoded by the scheme itself.
    // Trials are independent, so they fan out across `opts.cell_threads`;
    // the per-trial decoder panics are caught inside each cell (the sharded
    // executor re-raises program panics with the original payload, so the
    // catch works identically under both executors).
    for scheme in &schemes {
        let outcomes = fan_out(&trial_cells, opts.cells(), |_, &trial| {
            let mut advice = scheme.advise(&g).expect("oracle succeeds");
            if flip_advice_bits(&mut advice, 3, 0xA400 + trial) == 0 {
                return Trial::NoFault;
            }
            let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                scheme.decode(&sim, &advice)
            }));
            let outcome = match attempt {
                Err(_) | Ok(Err(_)) => return Trial::DecoderRejected,
                Ok(Ok(outcome)) => outcome,
            };
            if outcome.outputs == honest {
                return Trial::OutputUnchanged;
            }
            let report = MstCertificate::verify(&sim, &labels, &outcome.outputs)
                .expect("verification run succeeds");
            if report.accepted {
                Trial::Silent
            } else {
                Trial::Caught
            }
        });
        let count = |what: Trial| outcomes.iter().filter(|&&o| o == what).count();
        t.push_row(vec![
            scheme.name().to_string(),
            "advice bit flips (3)".to_string(),
            trials.to_string(),
            count(Trial::DecoderRejected).to_string(),
            (count(Trial::Caught) + count(Trial::Silent)).to_string(),
            count(Trial::Caught).to_string(),
            count(Trial::Silent).to_string(),
        ]);
    }

    // Fault model 2: direct output corruption (a faulty decoder), verified by
    // the nodes.
    let outcomes = fan_out(&trial_cells, opts.cells(), |_, &trial| {
        let plan = FaultPlan::random(&g, &oracle.tree, 1 + (trial as usize % 3), 0xA401 + trial);
        let bad = plan.apply(&honest);
        if bad == honest {
            return Trial::NoFault;
        }
        let report =
            MstCertificate::verify(&sim, &labels, &bad).expect("verification run succeeds");
        if report.accepted {
            Trial::Silent
        } else {
            Trial::Caught
        }
    });
    let count = |what: Trial| outcomes.iter().filter(|&&o| o == what).count();
    let caught = count(Trial::Caught) as u64;
    let silent = count(Trial::Silent) as u64;
    let output_changed = caught + silent;
    t.push_row(vec![
        "(any scheme)".to_string(),
        "output corruption".to_string(),
        trials.to_string(),
        "-".to_string(),
        output_changed.to_string(),
        caught.to_string(),
        silent.to_string(),
    ]);
    t
}

/// Renders the tables `ids` exactly as the `experiments` binary prints them
/// — a header line, then each table (as text or CSV) followed by a blank
/// line.  Rendered in text form over [`ExperimentId::ALL`], this is the
/// content `EXPERIMENTS.lock` pins.
#[must_use]
pub fn render_tables(ids: &[ExperimentId], csv: bool, opts: RunOpts) -> String {
    let mut out = String::from("# mst-advice experiment tables (seeded, deterministic)\n\n");
    for id in ids {
        let table = id.run_with(opts);
        out.push_str(&if csv { table.to_csv() } else { table.to_text() });
        out.push('\n');
    }
    out
}

/// The first line where `actual` departs from `expected`: its 1-based
/// number and the line on each side (`None` past the end of that side).
#[must_use]
pub fn first_difference<'a>(
    expected: &'a str,
    actual: &'a str,
) -> Option<(usize, Option<&'a str>, Option<&'a str>)> {
    let (mut want, mut got) = (expected.lines(), actual.lines());
    for line in 1.. {
        match (want.next(), got.next()) {
            (None, None) => return None,
            (w, g) if w != g => return Some((line, w, g)),
            _ => {}
        }
    }
    unreachable!("the loop runs until both sides end")
}

/// Runs every experiment with its default parameters.
#[must_use]
pub fn run_all_default() -> Vec<Table> {
    ExperimentId::ALL
        .iter()
        .map(|id| id.run_default())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_difference_names_the_first_drifted_line() {
        let lock = "# header\n\nrow 1\nrow 2\n";
        assert_eq!(first_difference(lock, lock), None);
        assert_eq!(
            first_difference(lock, "# header\n\nrow 1\nrow 3\n"),
            Some((4, Some("row 2"), Some("row 3")))
        );
        assert_eq!(
            first_difference(lock, "# header\n\nrow 1\n"),
            Some((4, Some("row 2"), None))
        );
        assert_eq!(
            first_difference(lock, "# header\n\nrow 1\nrow 2\nrow 3\n"),
            Some((5, None, Some("row 3")))
        );
    }

    #[test]
    fn experiment_id_parsing() {
        assert_eq!(ExperimentId::parse("e1"), Some(ExperimentId::E1));
        assert_eq!(ExperimentId::parse("A3"), Some(ExperimentId::A3));
        assert_eq!(ExperimentId::parse("x9"), None);
    }

    #[test]
    fn small_e1_table_has_one_row_per_size() {
        let t = run_e1_lower_bound(&[8, 16], RunOpts::default());
        assert_eq!(t.rows.len(), 2);
        assert!(t.rows.iter().all(|r| r.last().unwrap() == "yes"));
    }

    #[test]
    fn small_e4_table_covers_all_algorithms() {
        let t = run_e4_scheme_comparison(48, RunOpts::default());
        assert_eq!(t.rows.len(), 6);
        assert!(t.rows.iter().all(|r| r.last().unwrap() == "true"));
    }

    #[test]
    fn small_e5_shows_the_gap() {
        let t = run_e5_rounds_vs_n(&[48], RunOpts::default());
        let row = &t.rows[0];
        let thm3: usize = row[2].parse().unwrap();
        let baseline: usize = row[4].parse().unwrap();
        assert!(baseline > thm3, "the no-advice baseline must be slower");
    }

    #[test]
    fn small_a1_confirms_default_capacities_pack() {
        let t = run_a1_capacity_sweep(96);
        for variant in [ConstantVariant::Index, ConstantVariant::Level] {
            let c_default = encoder::capacity(variant).to_string();
            let ok = t
                .rows
                .iter()
                .any(|r| r[0] == variant.label() && r[2] == c_default && r[3] == "true");
            assert!(ok, "default capacity must pack for {variant:?}");
        }
    }

    #[test]
    fn small_a3_schemes_fit_congest() {
        let t = run_a3_congest_audit(64, RunOpts::default());
        // The trivial and one-round schemes must be within budget; the
        // flood-collect baseline must not be.
        let by_name = |name: &str| {
            t.rows
                .iter()
                .find(|r| r[0].contains(name))
                .unwrap_or_else(|| panic!("{name} missing"))
                .clone()
        };
        assert_eq!(by_name("trivial")[4], "true");
        assert_eq!(by_name("one-round")[4], "true");
        assert_eq!(by_name("flood-collect")[4], "false");
    }
}

//! Glue between the advising schemes and the verification layer:
//! *self-checking decoding*.
//!
//! [`lma_advice::evaluate_scheme`] verifies a scheme's output centrally (the
//! test harness plays omniscient judge).  This module moves that judgement
//! into the network itself: after the scheme's decoder has run, the nodes
//! execute one extra verification round against certificate labels computed
//! by the same oracle, and each node individually accepts or rejects.  A
//! corrupted advice string, a buggy decoder, or a buggy oracle therefore
//! produces an explicit, locally raised alarm instead of silently wrong
//! output.

use crate::mst_cert::MstCertificate;
use crate::report::VerificationReport;
use lma_advice::scheme::{to_workload_error, Advice, AdvisingScheme, SchemeError};
use lma_advice::AdviceStats;
use lma_graph::WeightedGraph;
use lma_mst::boruvka::{boruvka_tree, BoruvkaConfig};
use lma_mst::digest::fold_upward_outputs;
use lma_mst::verify::UpwardOutput;
use lma_mst::RootedTree;
use lma_sim::digest::{fold_stats, DigestWriter};
use lma_sim::driver::{Sim, Workload, WorkloadError};
use lma_sim::{RunStats, RunSummary};

/// The result of a full advise → decode → distributed-verify pipeline.
#[derive(Debug, Clone)]
pub struct CertifiedRun {
    /// Advice-size statistics of the scheme under test.
    pub advice: AdviceStats,
    /// Communication statistics of the scheme's decoding run.
    pub decode: RunStats,
    /// The decoded per-node outputs (possibly wrong — that is the point).
    pub outputs: Vec<Option<UpwardOutput>>,
    /// The distributed verification verdict.
    pub report: VerificationReport,
}

impl CertifiedRun {
    /// Total rounds of the pipeline: decoding plus the verification round.
    #[must_use]
    pub fn total_rounds(&self) -> usize {
        self.decode.rounds + self.report.run.rounds
    }

    /// Folds the full pipeline outcome into a digest writer: advice
    /// accounting, decode statistics, decoded outputs, then the
    /// verification report.  A pinned encoding — golden digests depend on
    /// it.
    pub fn fold_into(&self, w: &mut DigestWriter) {
        self.advice.fold_into(w);
        fold_stats(w, &self.decode);
        fold_upward_outputs(w, &self.outputs);
        self.report.fold_into(w);
    }
}

/// Certifies an arbitrary output vector against the MST that the paper's
/// Borůvka variant produces under `reference` (root and tie-breaking), by
/// running the one-round distributed verifier.
pub fn certify_outputs(
    sim: &Sim<'_>,
    reference: &BoruvkaConfig,
    outputs: &[Option<UpwardOutput>],
) -> Result<VerificationReport, SchemeError> {
    let tree = boruvka_tree(sim.graph(), reference)?;
    certify_against_tree(sim, &tree, outputs)
}

/// Certifies an output vector against an explicit reference tree.
///
/// # Errors
/// Exactly the error cases of [`MstCertificate::certify_and_verify`].
pub fn certify_against_tree(
    sim: &Sim<'_>,
    tree: &RootedTree,
    outputs: &[Option<UpwardOutput>],
) -> Result<VerificationReport, SchemeError> {
    MstCertificate::certify_and_verify(sim, tree, outputs).map_err(SchemeError::Run)
}

/// Runs a scheme end to end — oracle, decoder, then the **distributed**
/// verification round — without consulting the central verifier at all.
///
/// `reference` must be the same Borůvka configuration the scheme's oracle
/// uses (all shipped schemes default to [`BoruvkaConfig::default`]), so that
/// the certificate describes the same rooted MST the decoder is meant to
/// output.
pub fn certified_run<S: AdvisingScheme + ?Sized>(
    scheme: &S,
    sim: &Sim<'_>,
    reference: &BoruvkaConfig,
) -> Result<CertifiedRun, SchemeError> {
    let advice = scheme.advise(sim.graph())?;
    certified_run_with_advice(scheme, sim, &advice, reference)
}

/// Like [`certified_run`], but decoding a caller-supplied (possibly
/// corrupted) advice assignment.  This is the entry point of the
/// fault-injection experiments: corrupt the advice, decode, and check that
/// the *nodes* notice.
pub fn certified_run_with_advice<S: AdvisingScheme + ?Sized>(
    scheme: &S,
    sim: &Sim<'_>,
    advice: &Advice,
    reference: &BoruvkaConfig,
) -> Result<CertifiedRun, SchemeError> {
    let advice_stats = advice.stats();
    let outcome = scheme.decode(sim, advice)?;
    let reference = boruvka_tree(sim.graph(), reference)?;
    let report = MstCertificate::certify_and_verify(sim, &reference, &outcome.outputs)
        .map_err(SchemeError::Run)?;
    Ok(CertifiedRun {
        advice: advice_stats,
        decode: outcome.stats,
        outputs: outcome.outputs,
        report,
    })
}

/// An advising scheme's certified pipeline — oracle, decode, then the
/// **distributed** verification round — packaged as a [`Workload`]: the
/// oracle is `prepare`, and the typed [`CertifiedRun`] outcome carries the
/// advice accounting, the decoded tree, and the nodes' verdict.
#[derive(Debug, Clone)]
pub struct CertifiedWorkload<S> {
    name: &'static str,
    scheme: S,
    reference: BoruvkaConfig,
}

impl<S: AdvisingScheme> CertifiedWorkload<S> {
    /// Wraps `scheme` under a stable workload `name`, certifying against
    /// the default Borůvka reference (which every shipped scheme's oracle
    /// uses).
    #[must_use]
    pub fn new(name: &'static str, scheme: S) -> Self {
        Self {
            name,
            scheme,
            reference: BoruvkaConfig::default(),
        }
    }

    /// The wrapped scheme.
    #[must_use]
    pub fn scheme(&self) -> &S {
        &self.scheme
    }
}

impl<S: AdvisingScheme> Workload for CertifiedWorkload<S> {
    type Prep = Advice;
    type Outcome = CertifiedRun;

    fn name(&self) -> &'static str {
        self.name
    }

    fn supports_reference(&self) -> bool {
        // Pinned in SCENARIOS.lock without push-oracle cells; the committed
        // matrix keeps the original cell lists.
        false
    }

    fn prepare(&self, graph: &WeightedGraph) -> Result<Advice, WorkloadError> {
        self.scheme.advise(graph).map_err(to_workload_error)
    }

    fn execute(&self, sim: &Sim<'_>, advice: Advice) -> Result<CertifiedRun, WorkloadError> {
        certified_run_with_advice(&self.scheme, sim, &advice, &self.reference)
            .map_err(to_workload_error)
    }

    fn fold(&self, w: &mut DigestWriter, outcome: &CertifiedRun) {
        outcome.fold_into(w);
    }

    fn summary(&self, outcome: &CertifiedRun) -> RunSummary {
        RunSummary::of_stats(&outcome.decode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::flip_advice_bits;
    use lma_advice::{ConstantScheme, OneRoundScheme, TrivialScheme};
    use lma_graph::generators::{connected_random, grid};
    use lma_graph::weights::WeightStrategy;
    use lma_mst::boruvka::run_boruvka;
    use lma_mst::verify::verify_upward_outputs;

    fn schemes() -> Vec<Box<dyn AdvisingScheme>> {
        vec![
            Box::new(TrivialScheme::default()),
            Box::new(OneRoundScheme::default()),
            Box::new(ConstantScheme::default()),
        ]
    }

    #[test]
    fn honest_runs_are_accepted_by_the_distributed_verifier() {
        let g = connected_random(48, 130, 1, WeightStrategy::DistinctRandom { seed: 1 });
        for scheme in schemes() {
            let run = certified_run(scheme.as_ref(), &Sim::on(&g), &BoruvkaConfig::default())
                .unwrap_or_else(|e| panic!("{}: {e}", scheme.name()));
            assert!(
                run.report.accepted,
                "{}: honest run rejected: {:?}",
                scheme.name(),
                run.report.violations
            );
            assert_eq!(run.report.run.rounds, 1);
            assert!(run.total_rounds() > run.decode.rounds);
            // The outputs the verifier accepted are indeed a rooted MST.
            verify_upward_outputs(&g, &run.outputs).unwrap();
        }
    }

    #[test]
    fn corrupted_advice_is_either_rejected_or_detected_by_the_nodes() {
        // Flipping advice bits may make the decoder fail outright (some
        // schemes detect malformed advice during decoding), or make it emit
        // a wrong tree.  In the latter case the distributed verification
        // round must catch it.  Across many corruption seeds, no corrupted
        // run that changed the output may be silently accepted.
        let g = grid(5, 6, WeightStrategy::DistinctRandom { seed: 2 });
        let reference = BoruvkaConfig::default();
        for scheme in schemes() {
            let honest = certified_run(scheme.as_ref(), &Sim::on(&g), &reference)
                .unwrap_or_else(|e| panic!("{}: {e}", scheme.name()));
            let mut silent_failures = 0;
            for seed in 0..12u64 {
                let mut advice = scheme.advise(&g).unwrap();
                if flip_advice_bits(&mut advice, 4, seed) == 0 {
                    continue;
                }
                let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    certified_run_with_advice(scheme.as_ref(), &Sim::on(&g), &advice, &reference)
                }));
                match attempt {
                    // A decoder panic or error on malformed advice counts as
                    // detection, not as a silent failure.
                    Err(_) | Ok(Err(_)) => {}
                    Ok(Ok(run)) => {
                        let output_changed = run.outputs != honest.outputs;
                        if output_changed && run.report.accepted {
                            silent_failures += 1;
                        }
                    }
                }
            }
            assert_eq!(
                silent_failures,
                0,
                "{}: corrupted advice changed the output but every node accepted",
                scheme.name()
            );
        }
    }

    #[test]
    fn certify_outputs_rejects_a_foreign_tree() {
        let g = connected_random(30, 90, 3, WeightStrategy::DistinctRandom { seed: 3 });
        // Outputs of an MST rooted somewhere else: a valid MST, but not the
        // certified one, so the binding check fires.
        let other_root = g.node_count() - 1;
        let other = run_boruvka(
            &g,
            &BoruvkaConfig {
                root: Some(other_root),
                ..BoruvkaConfig::default()
            },
        )
        .unwrap();
        let outputs: Vec<_> = other.tree.upward_outputs().into_iter().map(Some).collect();
        let report = certify_outputs(&Sim::on(&g), &BoruvkaConfig::default(), &outputs).unwrap();
        assert!(!report.accepted);
    }
}

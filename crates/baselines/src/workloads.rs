//! [`Workload`] implementations for the baseline programs.
//!
//! These are the fleet-style entries of the scenario registry in
//! `lma-bench`: max-identifier flooding (with a traced variant and a
//! deliberately round-limited error variant), fixed-payload gossip under a
//! CONGEST audit, and the two no-advice MST baselines.  Golden digests are
//! derived entirely from the [`fold`](Workload::fold) implementations here,
//! so their byte encodings are pinned (see `SCENARIOS.lock`).

use crate::flood_collect::FixedGossip;
use crate::{FloodCollectMst, NoAdviceMst, SyncBoruvkaMst};
use lma_graph::{Port, WeightedGraph};
use lma_mst::digest::fold_upward_outputs;
use lma_mst::verify::{verify_upward_outputs, UpwardOutput};
use lma_sim::digest::{fold_result, fold_stats, DigestWriter};
use lma_sim::driver::{FleetWorkload, Sim, Workload, WorkloadError};
use lma_sim::{
    collect_outbox, LocalView, Model, MsgSink, NodeAlgorithm, Outbox, RunResult, RunStats,
    RunSummary,
};

/// Max-identifier flooding for exactly `n` rounds: every node broadcasts the
/// largest identifier it has seen; traffic shape (bit sizes) changes as the
/// maximum propagates, so the per-round digest chain is informative.
pub struct MaxFlood {
    best: u64,
    rounds_left: usize,
}

impl MaxFlood {
    /// A fresh flooding node (the round budget is learned from the view).
    #[must_use]
    pub fn new() -> Self {
        Self {
            best: 0,
            rounds_left: usize::MAX,
        }
    }
}

impl Default for MaxFlood {
    fn default() -> Self {
        Self::new()
    }
}

impl NodeAlgorithm for MaxFlood {
    type Msg = u64;
    type Output = u64;

    fn init(&mut self, view: &LocalView) -> Outbox<u64> {
        collect_outbox(|out| self.init_into(view, out))
    }

    fn round(&mut self, view: &LocalView, round: usize, inbox: &[(Port, u64)]) -> Outbox<u64> {
        collect_outbox(|out| self.round_into(view, round, inbox, out))
    }

    fn init_into(&mut self, view: &LocalView, out: &mut MsgSink<'_, u64>) {
        self.best = view.id;
        self.rounds_left = view.n;
        for p in 0..view.degree() {
            out.send(p, self.best);
        }
    }

    fn round_into(
        &mut self,
        view: &LocalView,
        _round: usize,
        inbox: &[(Port, u64)],
        out: &mut MsgSink<'_, u64>,
    ) {
        for (_, id) in inbox {
            self.best = self.best.max(*id);
        }
        self.rounds_left -= 1;
        if self.rounds_left == 0 {
            return;
        }
        for p in 0..view.degree() {
            out.send(p, self.best);
        }
    }

    fn is_done(&self) -> bool {
        self.rounds_left == 0
    }

    fn output(&self) -> Option<u64> {
        (self.rounds_left == 0).then_some(self.best)
    }
}

/// A genuinely message-driven BFS wave — the canonical sparse-frontier
/// workload.  Node 0 floods its identifier at init and finishes; every
/// other node stays **silent until the wave reaches it**, then records the
/// arrival round and the relayed identifier, forwards once through every
/// port, and finishes.
///
/// `round` with an empty inbox changes nothing, sends nothing and never
/// reads the round number, so the program satisfies the
/// [`NodeAlgorithm::MESSAGE_DRIVEN`] contract and the executors may skip
/// idle nodes entirely.  An instance built with [`WaveFlood::eager`] opts
/// back out at the instance level (`message_driven() == false`) — it runs
/// the identical code but stays on the frontier every round, which the
/// mixed-fleet equivalence tests use.
pub struct WaveFlood {
    source: bool,
    eager: bool,
    /// `(relayed id, arrival round)` once the wave has reached this node.
    reached: Option<(u64, u64)>,
    done: bool,
}

impl WaveFlood {
    /// A wave node (`source` = node 0's role: flood at init, then finish).
    #[must_use]
    pub fn new(source: bool) -> Self {
        Self {
            source,
            eager: false,
            reached: None,
            done: false,
        }
    }

    /// A wave node that declines the sparse schedule at the instance level.
    #[must_use]
    pub fn eager(source: bool) -> Self {
        Self {
            eager: true,
            ..Self::new(source)
        }
    }
}

impl NodeAlgorithm for WaveFlood {
    type Msg = u64;
    type Output = (u64, u64);

    const MESSAGE_DRIVEN: bool = true;

    fn message_driven(&self) -> bool {
        !self.eager
    }

    fn init(&mut self, view: &LocalView) -> Outbox<u64> {
        collect_outbox(|out| self.init_into(view, out))
    }

    fn round(&mut self, view: &LocalView, round: usize, inbox: &[(Port, u64)]) -> Outbox<u64> {
        collect_outbox(|out| self.round_into(view, round, inbox, out))
    }

    fn init_into(&mut self, view: &LocalView, out: &mut MsgSink<'_, u64>) {
        if self.source {
            self.reached = Some((view.id, 0));
            self.done = true;
            for p in 0..view.degree() {
                out.send(p, view.id);
            }
        }
    }

    fn round_into(
        &mut self,
        view: &LocalView,
        round: usize,
        inbox: &[(Port, u64)],
        out: &mut MsgSink<'_, u64>,
    ) {
        let Some(&(_, id)) = inbox.iter().min_by_key(|(_, id)| *id) else {
            return;
        };
        self.reached = Some((id, round as u64));
        self.done = true;
        for p in 0..view.degree() {
            out.send(p, id);
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn output(&self) -> Option<(u64, u64)> {
        self.done
            .then_some(self.reached.expect("done implies reached"))
    }
}

/// The wave workload: a [`WaveFlood`] fleet (node 0 the source) with the
/// delivery trace folded into the digest, verified against BFS distances —
/// the registry's standing pin that the sparse frontier schedule and the
/// dense scan (and the push-based oracle, which never skips) agree
/// bit-for-bit.
pub struct WaveWorkload;

impl FleetWorkload for WaveWorkload {
    type Prep = ();
    type Program = WaveFlood;
    type Outcome = RunResult<(u64, u64)>;

    fn name(&self) -> &'static str {
        "wave"
    }

    fn tune<'g>(&self, sim: Sim<'g>) -> Sim<'g> {
        sim.trace(true)
    }

    fn prepare(&self, _graph: &WeightedGraph) -> Result<(), WorkloadError> {
        Ok(())
    }

    fn programs(&self, graph: &WeightedGraph, (): &()) -> Vec<WaveFlood> {
        graph.nodes().map(|u| WaveFlood::new(u == 0)).collect()
    }

    fn collate(
        &self,
        _graph: &WeightedGraph,
        (): (),
        result: RunResult<(u64, u64)>,
    ) -> Result<RunResult<(u64, u64)>, WorkloadError> {
        Ok(result)
    }

    fn verify(
        &self,
        graph: &WeightedGraph,
        outcome: &RunResult<(u64, u64)>,
    ) -> Result<(), WorkloadError> {
        let dist = bfs_distances(graph, 0);
        let id0 = graph.id(0);
        for (u, out) in outcome.outputs.iter().enumerate() {
            if *out != Some((id0, dist[u])) {
                return Err(WorkloadError::Invalid(format!(
                    "node {u}: expected wave ({id0}, {}) got {out:?}",
                    dist[u]
                )));
            }
        }
        Ok(())
    }

    fn fold(&self, w: &mut DigestWriter, outcome: &RunResult<(u64, u64)>) {
        fold_result(w, outcome, |w, (id, round)| {
            w.u64(*id);
            w.u64(*round);
        });
    }

    fn summary(&self, outcome: &RunResult<(u64, u64)>) -> RunSummary {
        RunSummary::of_stats(&outcome.stats)
    }
}

/// Unweighted BFS hop counts from `source` over the CSR adjacency.
fn bfs_distances(graph: &WeightedGraph, source: usize) -> Vec<u64> {
    let csr = graph.csr();
    let offsets = csr.offsets();
    let incident = csr.incident_flat();
    let mut dist = vec![u64::MAX; graph.node_count()];
    dist[source] = 0;
    let mut queue = std::collections::VecDeque::from([source]);
    while let Some(u) = queue.pop_front() {
        for e in &incident[offsets[u]..offsets[u + 1]] {
            if dist[e.neighbor] == u64::MAX {
                dist[e.neighbor] = dist[u] + 1;
                queue.push_back(e.neighbor);
            }
        }
    }
    dist
}

/// The flooding workload: a [`MaxFlood`] fleet in the LOCAL model.
///
/// Two stock configurations cover the registry's uses: [`traced`]
/// (delivery trace folded into the digest) and [`round_limited`] (an
/// impossibly small round budget, pinning the round-limit error path).
///
/// [`traced`]: FloodWorkload::traced
/// [`round_limited`]: FloodWorkload::round_limited
pub struct FloodWorkload {
    /// Workload name (scenario ids / `--workload` filter).
    pub name: &'static str,
    /// Record and fold the delivery trace.
    pub trace: bool,
    /// Override of the simulator's round limit.
    pub round_limit: Option<usize>,
}

impl FloodWorkload {
    /// Flooding with the delivery trace folded into the digest.
    #[must_use]
    pub fn traced() -> Self {
        Self {
            name: "flood",
            trace: true,
            round_limit: None,
        }
    }

    /// Flooding against a deliberately small round limit: the run must fail
    /// with the round-limit error, whose payload is what gets folded.
    #[must_use]
    pub fn round_limited(limit: usize) -> Self {
        Self {
            name: "err-round-limit",
            trace: false,
            round_limit: Some(limit),
        }
    }
}

impl FleetWorkload for FloodWorkload {
    type Prep = ();
    type Program = MaxFlood;
    type Outcome = RunResult<u64>;

    fn name(&self) -> &'static str {
        self.name
    }

    fn tune<'g>(&self, sim: Sim<'g>) -> Sim<'g> {
        let sim = sim.trace(self.trace);
        match self.round_limit {
            Some(limit) => sim.round_limit(limit),
            None => sim,
        }
    }

    fn prepare(&self, _graph: &WeightedGraph) -> Result<(), WorkloadError> {
        Ok(())
    }

    fn programs(&self, graph: &WeightedGraph, (): &()) -> Vec<MaxFlood> {
        graph.nodes().map(|_| MaxFlood::new()).collect()
    }

    fn collate(
        &self,
        _graph: &WeightedGraph,
        (): (),
        result: RunResult<u64>,
    ) -> Result<RunResult<u64>, WorkloadError> {
        Ok(result)
    }

    fn verify(&self, graph: &WeightedGraph, outcome: &RunResult<u64>) -> Result<(), WorkloadError> {
        let want = graph.nodes().map(|u| graph.id(u)).max();
        if outcome.outputs.iter().all(|o| *o == want) {
            Ok(())
        } else {
            Err(WorkloadError::Invalid(
                "flooding did not converge to the maximum identifier".to_string(),
            ))
        }
    }

    fn fold(&self, w: &mut DigestWriter, outcome: &RunResult<u64>) {
        fold_result(w, outcome, |w, o| w.u64(*o));
    }

    fn summary(&self, outcome: &RunResult<u64>) -> RunSummary {
        RunSummary::of_stats(&outcome.stats)
    }
}

/// Fixed-payload [`FixedGossip`] broadcast under a CONGEST(Θ(log n)) audit
/// (violations counted, not enforced) — the variable-size-payload path of
/// the arena plane backing.
pub struct GossipWorkload {
    /// Edge facts per gossip payload.
    pub facts: usize,
    /// Gossip rounds per run.
    pub rounds: usize,
}

impl GossipWorkload {
    /// A gossip workload with the given payload size and round count.
    #[must_use]
    pub fn new(facts: usize, rounds: usize) -> Self {
        Self { facts, rounds }
    }
}

impl FleetWorkload for GossipWorkload {
    type Prep = ();
    type Program = FixedGossip;
    type Outcome = RunResult<u64>;

    fn name(&self) -> &'static str {
        "gossip"
    }

    fn tune<'g>(&self, sim: Sim<'g>) -> Sim<'g> {
        let n = sim.graph().node_count();
        sim.model(Model::congest_for(n))
    }

    fn prepare(&self, _graph: &WeightedGraph) -> Result<(), WorkloadError> {
        Ok(())
    }

    fn programs(&self, graph: &WeightedGraph, (): &()) -> Vec<FixedGossip> {
        graph
            .nodes()
            .map(|u| FixedGossip::new(u as u64, self.facts, self.rounds))
            .collect()
    }

    fn collate(
        &self,
        _graph: &WeightedGraph,
        (): (),
        result: RunResult<u64>,
    ) -> Result<RunResult<u64>, WorkloadError> {
        Ok(result)
    }

    fn fold(&self, w: &mut DigestWriter, outcome: &RunResult<u64>) {
        fold_result(w, outcome, |w, o| w.u64(*o));
    }

    fn summary(&self, outcome: &RunResult<u64>) -> RunSummary {
        RunSummary::of_stats(&outcome.stats)
    }
}

/// Per-node outputs plus run statistics: the outcome shape shared by both
/// no-advice MST baselines.
pub type MstOutcome = (Vec<Option<UpwardOutput>>, RunStats);

fn fold_mst_outcome(w: &mut DigestWriter, outcome: &MstOutcome) {
    fold_stats(w, &outcome.1);
    fold_upward_outputs(w, &outcome.0);
}

fn verify_mst_outcome(graph: &WeightedGraph, outcome: &MstOutcome) -> Result<(), WorkloadError> {
    verify_upward_outputs(graph, &outcome.0)
        .map(|_| ())
        .map_err(|e| WorkloadError::Invalid(e.to_string()))
}

/// The GHS-style synchronous Borůvka baseline as a [`Workload`].
pub struct GhsWorkload;

impl Workload for GhsWorkload {
    type Prep = ();
    type Outcome = MstOutcome;

    fn name(&self) -> &'static str {
        "ghs-boruvka"
    }

    fn prepare(&self, _graph: &WeightedGraph) -> Result<(), WorkloadError> {
        Ok(())
    }

    fn execute(&self, sim: &Sim<'_>, (): ()) -> Result<MstOutcome, WorkloadError> {
        SyncBoruvkaMst.run(sim).map_err(WorkloadError::Run)
    }

    fn verify(&self, graph: &WeightedGraph, outcome: &MstOutcome) -> Result<(), WorkloadError> {
        verify_mst_outcome(graph, outcome)
    }

    fn fold(&self, w: &mut DigestWriter, outcome: &MstOutcome) {
        fold_mst_outcome(w, outcome);
    }

    fn summary(&self, outcome: &MstOutcome) -> RunSummary {
        RunSummary::of_stats(&outcome.1)
    }
}

/// The LOCAL flood-and-compute baseline as a [`Workload`].
pub struct FloodCollectWorkload;

impl Workload for FloodCollectWorkload {
    type Prep = ();
    type Outcome = MstOutcome;

    fn name(&self) -> &'static str {
        "flood-collect"
    }

    fn prepare(&self, _graph: &WeightedGraph) -> Result<(), WorkloadError> {
        Ok(())
    }

    fn execute(&self, sim: &Sim<'_>, (): ()) -> Result<MstOutcome, WorkloadError> {
        FloodCollectMst.run(sim).map_err(WorkloadError::Run)
    }

    fn verify(&self, graph: &WeightedGraph, outcome: &MstOutcome) -> Result<(), WorkloadError> {
        verify_mst_outcome(graph, outcome)
    }

    fn fold(&self, w: &mut DigestWriter, outcome: &MstOutcome) {
        fold_mst_outcome(w, outcome);
    }

    fn summary(&self, outcome: &MstOutcome) -> RunSummary {
        RunSummary::of_stats(&outcome.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lma_graph::generators::ring;
    use lma_graph::weights::WeightStrategy;
    use lma_sim::driver::run_workload;
    use lma_sim::RunError;

    #[test]
    fn flood_workload_runs_and_verifies() {
        let g = ring(12, WeightStrategy::DistinctRandom { seed: 1 });
        let workload = FloodWorkload::traced();
        let sim = Workload::tune(&workload, Sim::on(&g));
        let outcome = run_workload(&workload, &sim).unwrap();
        assert_eq!(outcome.stats.rounds, 12);
        assert!(outcome.trace.is_some());
    }

    #[test]
    fn wave_workload_runs_and_verifies_on_every_frontier_mode() {
        let g = ring(17, WeightStrategy::DistinctRandom { seed: 9 });
        let workload = WaveWorkload;
        for mode in ["auto", "dense", "sparse"] {
            let mode = lma_sim::FrontierMode::parse(mode).unwrap();
            let sim = FleetWorkload::tune(&workload, Sim::on(&g)).frontier(mode);
            let outcome = run_workload(&workload, &sim).unwrap();
            FleetWorkload::verify(&workload, &g, &outcome).unwrap();
            // The wave crosses the ring in ecc(0) = ⌊n/2⌋ rounds; the last
            // nodes' forwards are the dropped final-step traffic.
            assert_eq!(outcome.stats.rounds, 8);
            assert!(!outcome.stats.per_round_active_nodes.is_empty());
        }
    }

    #[test]
    fn round_limited_flood_fails_with_the_limit_error() {
        let g = ring(24, WeightStrategy::Unit);
        let workload = FloodWorkload::round_limited(5);
        let sim = Workload::tune(&workload, Sim::on(&g));
        let err = run_workload(&workload, &sim).unwrap_err();
        assert_eq!(
            err,
            WorkloadError::Run(RunError::RoundLimitExceeded { limit: 5 })
        );
    }

    #[test]
    fn gossip_workload_audits_congest() {
        let g = ring(16, WeightStrategy::Unit);
        let workload = GossipWorkload::new(24, 4);
        let sim = Workload::tune(&workload, Sim::on(&g));
        assert!(sim.config().model.budget().is_some());
        let outcome = run_workload(&workload, &sim).unwrap();
        assert_eq!(outcome.stats.rounds, 4);
    }

    #[test]
    fn both_mst_workloads_produce_verified_trees() {
        let g = ring(10, WeightStrategy::DistinctRandom { seed: 3 });
        let sim = Sim::on(&g);
        let (out, _) = run_workload(&GhsWorkload, &sim).unwrap();
        assert_eq!(out.len(), 10);
        let (out, _) = run_workload(&FloodCollectWorkload, &sim).unwrap();
        assert_eq!(out.len(), 10);
    }
}

//! The execution engines: the loops a run's rounds can go through, and the
//! dispatch that picks one.
//!
//! | engine | executes on | use it for |
//! |---|---|---|
//! | one thread ([`Engine::Auto`], the default) | the plane kernel ([`crate::batch`]) on the calling thread | the default: small graphs, debugging |
//! | `t >= 2` threads ([`Engine::Auto`] with [`Sim::threads`]`(t)`) | the same kernel, one shard per scoped thread | large graphs (≳10⁴ nodes) on multi-core hosts |
//! | [`Engine::Reference`] | the push-based oracle ([`crate::reference`]) | differential testing and benchmark baselines only |
//!
//! All three produce **bit-identical** outputs, [`crate::RunStats`],
//! traces and errors for the same `(graph, config, programs)` — the
//! `runtime_equivalence` integration suite pins this — so callers choose
//! purely on performance grounds.  The thread count is set only by
//! [`Sim::threads`]; callers pin [`Engine::Reference`] on a [`Sim`] to
//! swap in the oracle.  The crate-internal `Executor::of` resolves a `Sim`
//! against its thread knob and its graph, and `Executor::run` runs one
//! program fleet on the result.
//!
//! Orthogonally to the engine, [`crate::RunConfig::backing`] selects the
//! plane's slot-storage backend; both plane engines honor it, while the
//! reference oracle has no plane at all and ignores it.

use crate::algorithm::{local_views, NodeAlgorithm};
use crate::driver::Sim;
use crate::runtime::{RunError, RunResult};
use lma_graph::Partition;
use std::num::NonZeroUsize;

/// The execution engine a [`Sim`] dispatches a run to: the plane kernel
/// ([`crate::batch`]) on [`Sim::threads`] threads, or the push-based oracle.
/// Both produce bit-identical outputs, stats, traces and errors for the
/// same `(graph, config, programs)` — pinned by the `runtime_equivalence`
/// suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The plane kernel on the configured thread count: the calling thread
    /// by default, shard-parallel when two or more threads are requested.
    /// The right choice for all ordinary callers.
    Auto,
    /// The preserved push-based oracle (plane-free, allocating) — for
    /// differential testing and benchmark baselines only.
    Reference,
}

impl Engine {
    /// Stable short label of this engine on `threads` plane-kernel threads,
    /// used in scenario cell ids and lock files: `"seq"` for zero or one
    /// thread, `"sharded<t>"` for `t >= 2`, and `"push"` for the oracle,
    /// which ignores the thread count.
    #[must_use]
    pub fn label(self, threads: usize) -> String {
        match (self, threads) {
            (Engine::Reference, _) => "push".to_string(),
            (Engine::Auto, 0 | 1) => "seq".to_string(),
            (Engine::Auto, t) => format!("sharded{t}"),
        }
    }
}

/// The loop one run executes on: a [`Sim`]'s pinned [`Engine`] resolved
/// against its thread knob and its graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Executor {
    /// The plane kernel on the calling thread.
    Sequential,
    /// The shard-parallel plane kernel on this many (at least two) threads.
    Sharded(NonZeroUsize),
    /// The push-based oracle.
    Reference,
}

impl Executor {
    /// The loop `sim` dispatches to: the push oracle when pinned, the
    /// shard-parallel loop when the resolved config asks for two or more
    /// threads on a graph of more than one node, the calling thread
    /// otherwise.
    pub(crate) fn of(sim: &Sim<'_>) -> Self {
        if sim.engine() == Engine::Reference {
            return Executor::Reference;
        }
        match sim.config().threads {
            Some(threads) if sim.graph().node_count() > 1 => Executor::Sharded(threads),
            _ => Executor::Sequential,
        }
    }

    /// Runs `programs` — one per node — on this loop, under `sim`'s
    /// resolved config.
    pub(crate) fn run<A: NodeAlgorithm>(
        self,
        sim: &Sim<'_>,
        programs: Vec<A>,
    ) -> Result<RunResult<A::Output>, RunError> {
        let graph = sim.graph();
        let config = sim.config();
        match self {
            Executor::Sequential => crate::batch::run_batch_sequential(graph, config, programs),
            Executor::Sharded(threads) => {
                let views = local_views(graph);
                // A precomputed partition supplied via `Sim::with_partition`
                // is reused when it was built for this graph and width.
                let fresh;
                let partition = match sim.usable_partition(threads.get()) {
                    Some(partition) => partition,
                    None => {
                        fresh = Partition::new(graph.csr(), threads.get());
                        &fresh
                    }
                };
                crate::batch_sharded::run_batch_sharded(graph, config, partition, &views, programs)
            }
            Executor::Reference => crate::reference::run_push(graph, config, programs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{LocalView, Outbox};
    use crate::plane::Backing;
    use lma_graph::generators::ring;
    use lma_graph::weights::WeightStrategy;
    use lma_graph::{GraphBuilder, Port};

    struct CountDown {
        rounds_left: usize,
    }

    impl NodeAlgorithm for CountDown {
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
            inbox.iter().map(|&(p, m)| (p, m + 1)).collect()
        }

        fn is_done(&self) -> bool {
            self.rounds_left == 0
        }

        fn output(&self) -> Option<u64> {
            (self.rounds_left == 0).then_some(self.rounds_left as u64)
        }
    }

    fn count_down(n: usize, rounds: usize) -> Vec<CountDown> {
        (0..n)
            .map(|_| CountDown {
                rounds_left: rounds,
            })
            .collect()
    }

    #[test]
    fn all_three_executors_agree() {
        let g = ring(24, WeightStrategy::DistinctRandom { seed: 4 });
        for backing in [Backing::Inline, Backing::Arena] {
            let base = Sim::on(&g).trace(true).backing(backing);
            let seq = base.threads(1);
            let sharded = base.threads(3);
            let push = base.executor(Engine::Reference);
            assert_eq!(Executor::of(&seq), Executor::Sequential);
            assert_eq!(
                Executor::of(&sharded),
                Executor::Sharded(NonZeroUsize::new(3).unwrap())
            );
            assert_eq!(Executor::of(&push), Executor::Reference);

            let expected = Executor::of(&seq).run(&seq, count_down(24, 6)).unwrap();
            assert_eq!(expected.outputs.len(), 24);
            for sim in [sharded, push] {
                let got = Executor::of(&sim).run(&sim, count_down(24, 6)).unwrap();
                assert_eq!(expected.outputs, got.outputs, "{backing:?}");
                assert_eq!(expected.stats, got.stats, "{backing:?}");
                assert_eq!(expected.trace, got.trace, "{backing:?}");
            }
        }
    }

    #[test]
    fn the_push_oracle_ignores_the_thread_knob() {
        // `Sim::threads` is the only thread count: the resolved config keeps
        // it whatever the engine, and a pinned oracle runs as the oracle in
        // either builder-call order.
        let g = ring(8, WeightStrategy::Unit);
        let expected = Sim::on(&g).run(count_down(8, 3)).unwrap();
        for sim in [
            Sim::on(&g).threads(4).executor(Engine::Reference),
            Sim::on(&g).executor(Engine::Reference).threads(4),
        ] {
            assert_eq!(sim.config().threads, NonZeroUsize::new(4));
            assert_eq!(Executor::of(&sim), Executor::Reference);
            let got = sim.run(count_down(8, 3)).unwrap();
            assert_eq!(expected.outputs, got.outputs);
            assert_eq!(expected.stats, got.stats);
        }
    }

    #[test]
    fn sharded_with_one_thread_falls_back_to_sequential() {
        let g = ring(8, WeightStrategy::Unit);
        // One thread, zero threads, or one thread set last stays on the
        // calling thread.
        for sim in [
            Sim::on(&g).threads(1),
            Sim::on(&g).threads(0),
            Sim::on(&g).threads(4).threads(1),
        ] {
            assert_eq!(
                Executor::of(&sim),
                Executor::Sequential,
                "{:?}",
                sim.config().threads
            );
            let result = sim.run(count_down(8, 2)).unwrap();
            assert_eq!(result.outputs.len(), 8);
        }
        // So do several threads on a graph too small to shard.
        let single = GraphBuilder::new(1).build().unwrap();
        let sim = Sim::on(&single).threads(3);
        assert_eq!(Executor::of(&sim), Executor::Sequential);
        let result = sim.run(count_down(1, 2)).unwrap();
        assert_eq!(result.outputs, vec![Some(0)]);
    }

    #[test]
    fn executor_names_are_stable() {
        // Scenario cell ids and lock files key on these labels.
        assert_eq!(Engine::Auto.label(1), "seq");
        assert_eq!(Engine::Reference.label(1), "push");
        for t in 2..=64 {
            assert_eq!(Engine::Auto.label(t), format!("sharded{t}"));
        }
        let mut labels: Vec<String> = (1..=64)
            .map(|t| Engine::Auto.label(t))
            .chain([Engine::Reference.label(1)])
            .collect();
        let count = labels.len();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), count, "engine labels must be distinct");
    }
}

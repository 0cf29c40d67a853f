//! The execution engines: the loops a run's rounds can go through, and the
//! dispatch that picks one.
//!
//! | engine | executes on | use it for |
//! |---|---|---|
//! | one thread ([`Engine::Auto`] by default, [`Engine::Threads`]`(1)`) | the lockstep batch loop ([`crate::batch`]) on the calling thread | the default: small graphs, debugging |
//! | `t >= 2` threads ([`Engine::Threads`]`(t)`, or [`Engine::Auto`] with [`Sim::threads`]) | the shard-parallel batch loop on `t` scoped threads | large graphs (≳10⁴ nodes) on multi-core hosts |
//! | [`Engine::Reference`] | the push-based oracle ([`crate::reference`]), lane by lane | differential testing and benchmark baselines only |
//!
//! All three produce **bit-identical** outputs, [`crate::RunStats`],
//! traces and errors for the same `(graph, config, programs)` — the
//! `runtime_equivalence` integration suite pins this — so callers choose
//! purely on performance grounds.  Callers pin an [`Engine`] on a [`Sim`]
//! (most never do: [`Engine::Auto`] plus [`Sim::threads`] is the ordinary
//! path); the crate-internal `Executor::of` resolves it against the thread
//! knob and the graph, and `Executor::run` runs a fleet of fleets on the
//! result.
//!
//! Orthogonally to the engine, [`crate::RunConfig::backing`] selects the
//! plane's slot-storage backend; both plane loops honor it, while the
//! reference oracle has no plane at all and ignores it.

use crate::algorithm::{local_views, NodeAlgorithm};
use crate::batch::LaneResults;
use crate::driver::Sim;
use lma_graph::Partition;
use std::num::NonZeroUsize;

/// The execution engine a [`Sim`] dispatches a run to.
///
/// Every plane run — solo or batched, one thread or many — goes through
/// the lockstep batch kernel ([`crate::batch`]); the engine only fixes its
/// thread count, or swaps in the push-based oracle.  All engines produce
/// bit-identical outputs, stats, traces and errors for the same
/// `(graph, config, programs)` — pinned by the `runtime_equivalence` suite
/// — so the choice is purely about performance (and, for
/// [`Engine::Reference`], differential testing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Dispatch on the configured thread count ([`Sim::threads`]): the
    /// calling thread by default, shard-parallel when two or more threads
    /// are requested.  The right choice for all ordinary callers.
    Auto,
    /// The plane kernel on exactly this many threads, ignoring the thread
    /// knob: `1` runs on the calling thread, `t >= 2` shard-parallel.
    Threads(NonZeroUsize),
    /// The preserved push-based oracle (plane-free, allocating) — for
    /// differential testing and benchmark baselines only.
    Reference,
}

impl Engine {
    /// Stable short label used in scenario cell ids and lock files
    /// (`"auto"`, `"seq"` for one thread, `"sharded<t>"`, `"push"`).
    #[must_use]
    pub fn label(self) -> String {
        match self {
            Engine::Auto => "auto".to_string(),
            Engine::Threads(t) if t.get() == 1 => "seq".to_string(),
            Engine::Threads(t) => format!("sharded{t}"),
            Engine::Reference => "push".to_string(),
        }
    }
}

/// The loop one run executes on: a [`Sim`]'s pinned [`Engine`] resolved
/// against its thread knob and its graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Executor {
    /// The lockstep batch loop on the calling thread.
    Sequential,
    /// The shard-parallel batch loop on this many (at least two) threads.
    Sharded(NonZeroUsize),
    /// The push-based oracle, one lane at a time.
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

    /// Runs `fleets` — one program fleet per lane, already checked against
    /// the batch width — on this loop, under `sim`'s resolved config.
    pub(crate) fn run<A: NodeAlgorithm>(
        self,
        sim: &Sim<'_>,
        fleets: Vec<Vec<A>>,
    ) -> LaneResults<A::Output> {
        let graph = sim.graph();
        let config = sim.config();
        match self {
            Executor::Sequential => crate::batch::run_batch_sequential(graph, config, fleets),
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
                crate::batch_sharded::run_batch_sharded(graph, config, partition, &views, fleets)
            }
            // The push-based oracle has no plane to stripe; run the lanes
            // through it one by one (differential-testing path only).
            Executor::Reference => fleets
                .into_iter()
                .map(|f| crate::reference::run_push(graph, config, f))
                .collect(),
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

    fn threads(t: usize) -> Engine {
        Engine::Threads(NonZeroUsize::new(t).unwrap())
    }

    #[test]
    fn all_three_executors_agree() {
        let g = ring(24, WeightStrategy::DistinctRandom { seed: 4 });
        for backing in [Backing::Inline, Backing::Arena] {
            let base = Sim::on(&g).trace(true).backing(backing);
            let seq = base.executor(threads(1));
            let sharded = base.executor(threads(3));
            let push = base.executor(Engine::Reference);
            assert_eq!(Executor::of(&seq), Executor::Sequential);
            assert_eq!(
                Executor::of(&sharded),
                Executor::Sharded(NonZeroUsize::new(3).unwrap())
            );
            assert_eq!(Executor::of(&push), Executor::Reference);

            let expected = Executor::of(&seq).run(&seq, vec![count_down(24, 6)]);
            let expected = expected[0].as_ref().unwrap();
            assert_eq!(expected.outputs.len(), 24);
            for sim in [sharded, push] {
                // Two lanes through each loop: both equal the one-thread run.
                let lanes =
                    Executor::of(&sim).run(&sim, vec![count_down(24, 6), count_down(24, 6)]);
                assert_eq!(lanes.len(), 2);
                for lane in lanes {
                    let lane = lane.unwrap();
                    assert_eq!(expected.outputs, lane.outputs, "{backing:?}");
                    assert_eq!(expected.stats, lane.stats, "{backing:?}");
                    assert_eq!(expected.trace, lane.trace, "{backing:?}");
                }
            }
        }
    }

    #[test]
    fn sharded_with_one_thread_falls_back_to_sequential() {
        let g = ring(8, WeightStrategy::Unit);
        // A one-thread pin, or one thread through the knob, stays on the
        // calling thread whatever the knob says.
        for sim in [
            Sim::on(&g).executor(threads(1)),
            Sim::on(&g).threads(4).executor(threads(1)),
            Sim::on(&g).threads(1),
            Sim::on(&g).threads(0),
        ] {
            assert_eq!(
                Executor::of(&sim),
                Executor::Sequential,
                "{:?}",
                sim.engine()
            );
            let result = sim.run(count_down(8, 2)).unwrap();
            assert_eq!(result.outputs.len(), 8);
        }
        // So does a shard-parallel pin on a graph too small to shard.
        let single = GraphBuilder::new(1).build().unwrap();
        let sim = Sim::on(&single).executor(threads(3));
        assert_eq!(Executor::of(&sim), Executor::Sequential);
        let result = sim.run(count_down(1, 2)).unwrap();
        assert_eq!(result.outputs, vec![Some(0)]);
    }

    #[test]
    fn executor_names_are_stable() {
        // Scenario cell ids and lock files key on these labels.
        assert_eq!(Engine::Auto.label(), "auto");
        assert_eq!(threads(1).label(), "seq");
        assert_eq!(Engine::Reference.label(), "push");
        for t in 2..=64 {
            assert_eq!(threads(t).label(), format!("sharded{t}"));
        }
        let mut labels: Vec<String> = [Engine::Auto, Engine::Reference]
            .into_iter()
            .chain((1..=64).map(threads))
            .map(Engine::label)
            .collect();
        let count = labels.len();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), count, "engine labels must be distinct");
    }
}

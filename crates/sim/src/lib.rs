//! # `lma-sim` — a synchronous LOCAL / CONGEST round simulator
//!
//! This crate provides the distributed-computing substrate of the
//! *mst-advice* reproduction: a synchronous, message-passing, port-numbered
//! network simulator implementing the model of the paper (§1), which is the
//! standard model of Peleg's *Distributed Computing: A Locality-Sensitive
//! Approach*:
//!
//! * computation proceeds in **rounds**; in each round every node
//!   (1) sends one message through each incident edge it chooses to use,
//!   (2) receives the messages sent by its neighbours in the same round, and
//!   (3) performs arbitrary local computation;
//! * the complexity of an algorithm is its number of rounds;
//! * in the **LOCAL** model message size is unbounded; in **CONGEST(B)** each
//!   message carries at most `B` bits.  The paper's algorithms all fit in
//!   CONGEST(`O(log n)`), and the simulator *audits* (and can enforce) this.
//!
//! Node code is written against [`algorithm::NodeAlgorithm`] and sees only a
//! [`algorithm::LocalView`] — its identifier, `n`, and its incident
//! `(port, weight)` pairs, read through accessors over a private borrow of
//! the graph — so the locality restriction of the model is enforced by the
//! type system, not by convention.
//!
//! Message routing runs on a **pull-based, double-buffered flat message
//! plane** over the graph's CSR slot space (see [`plane`]): all buffers are
//! preallocated, delivery moves messages instead of cloning them, and the
//! steady-state round loop allocates nothing.  Plane pairs are checked
//! out of a per-thread [`pool`] — one for a one-thread run, one per shard
//! for a shard-parallel run — so repeated runs on the same graph reuse one
//! allocation.  The original push-based executor survives in
//! [`crate::reference`] as a differential-testing oracle and benchmark
//! baseline.
//!
//! **One round kernel.**  Every plane run goes through one kernel
//! ([`batch`]): one round body, in which every node of a shard gathers,
//! steps and scatters, and one commit order.  On the calling thread the
//! whole graph is one shard.  With [`Sim::threads`] `>= 2` the slot space
//! is split into contiguous shards (see `lma_graph::Partition`), each
//! stepped on its own scoped thread, cross-shard traffic moves through
//! backend-specific exchange buffers, and a round ends with one arrival per
//! shard at a spin-then-park barrier whose last arriver merges the shard
//! reports in shard order and commits them.  [`Sim::threads`] is the only
//! thread knob; [`Engine::Reference`] swaps in the push oracle instead, and
//! every choice produces bit-identical results.  [`Sim::batch`] is a loop
//! of solo runs: a sim plus a width, for [`Workload::execute_batch`].
//!
//! The plane is generic over its **slot-storage backend**
//! ([`plane::PlaneStore`], selected by [`plane::Backing`] on [`RunConfig`]):
//!
//! * **inline** (`Backing::Inline`, the default) — slots hold `Option<M>`
//!   and delivery moves the value.  Pick it for small, flat message types
//!   (`u64`, small enums): there is no codec work at all.
//! * **arena** (`Backing::Arena`) — slots are `(offset, len)` spans into a
//!   per-round byte bump buffer, written through the [`wire::Wire`] codec
//!   and reset (never freed) each round.  Pick it for messages that own
//!   heap memory (`Vec`-carrying gossip payloads such as the LOCAL-model
//!   baselines'): encoding from a reference plus decode-into-recycled-value
//!   delivery makes steady-state rounds **allocation-free** even for
//!   variable-size payloads.  Algorithms opt into the by-reference
//!   broadcast fast path by overriding
//!   [`NodeAlgorithm::init_into`] / [`NodeAlgorithm::round_into`] and
//!   sending with [`algorithm::MsgSink::send_ref`].
//!
//! Both backings produce bit-identical outputs, stats, traces and errors.
//!
//! Every run is wired through the [`driver`] module: the zero-cost
//! [`Sim`] builder (graph + model + round limit + trace +
//! threads + backing, resolved to a [`RunConfig`] internally) is
//! the single run entry point of the workspace, and the
//! [`Workload`] trait packages whole experiment
//! pipelines — oracle `prepare`, distributed `execute`, independent
//! `verify`, digest `fold` — as values the scenario registry of
//! `lma-bench` stores and fingerprints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub(crate) mod barrier;
pub mod batch;
pub(crate) mod batch_sharded;
pub mod bitset;
pub mod digest;
pub mod driver;
pub mod executor;
pub mod frontier;
pub mod message;
pub mod model;
pub mod plane;
pub mod pool;
pub mod reference;
pub mod runtime;
pub mod stats;
pub mod trace;
pub mod wire;

pub use algorithm::{collect_outbox, local_views, LocalView, MsgSink, NodeAlgorithm, Outbox};
pub use batch::BatchSim;
pub use bitset::FixedBitSet;
pub use digest::{Digest, DigestWriter, FrontierProfile, RunSummary};
pub use driver::{
    run_workload, run_workload_prepared, DynWorkload, FleetWorkload, PreparedOracle, Sim, Workload,
    WorkloadError,
};
pub use executor::Engine;
pub use frontier::FrontierMode;
pub use message::BitSized;
pub use model::Model;
pub use plane::{ArenaPlane, Backing, MessagePlane, PlaneStore, SlotOccupied, UnknownBacking};
pub use runtime::{RunConfig, RunError, RunResult};
pub use stats::RunStats;
pub use wire::{Wire, WireReader};

//! lma-serve: a long-lived workload server over the scenario registry.
//!
//! The harness made repeated runs share partitions and oracles.  That win
//! evaporates in a run-per-process world — every invocation rebuilds the
//! graph, re-partitions it, re-prepares the oracle, runs once and exits.
//! This crate keeps that hot state alive in a persistent server:
//!
//! * [`proto`] — the length-framed wire protocol (the workspace [`Wire`]
//!   codec underneath) with a total, never-panicking decoder for untrusted
//!   bytes.
//! * [`cache`] — interned graphs, partitions and prepared oracles keyed by
//!   topology identity, under a byte budget that evicts whole
//!   least-recently-used topologies.
//! * [`server`] — admission queue, the coalescing dispatcher (queued
//!   same-identity requests are answered from one run), the executor pool
//!   that runs a dispatch window's groups on every core, per-request
//!   deadline budgets and error isolation, graceful drain.
//! * [`metrics`] — queue/total latency percentiles, group-width histogram,
//!   door counters (why each coalescing window closed), cache hit rates
//!   and size gauges, executor gauges; served on the wire as `Stats`.
//! * [`replay`] — a client that replays registry mixes against an
//!   in-process server: digest verification against `SCENARIOS.lock` and
//!   the coalescing-on/off throughput trajectory behind `BENCH_serve.json`.
//!
//! Digest parity is the contract that makes serving safe: a served run
//! folds the same pinned scenario header and outcome bytes as the
//! offline `scenarios` harness, so every response digest can be checked
//! against the committed goldens, no matter how wide the group it rode in.
//!
//! [`Wire`]: lma_sim::Wire
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod metrics;
pub mod proto;
pub mod replay;
pub mod server;

pub use cache::HotCache;
pub use metrics::Metrics;
pub use proto::{Request, RequestBody, Response, ResponseBody, RunReport, RunSpec, StatsReport};
pub use replay::{Client, ReplayOpts};
pub use server::{Server, ServerConfig, TcpServer};

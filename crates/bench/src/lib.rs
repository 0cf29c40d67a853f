//! # `lma-bench` — the experiment harness
//!
//! The paper is a theory paper: its "results" are theorems, not measurement
//! tables.  This crate turns every theorem (and both figures) into a
//! regenerable experiment whose tables are pinned byte for byte in
//! `EXPERIMENTS.lock` at the workspace root:
//!
//! * `cargo run -p lma-bench --release --bin experiments` regenerates every
//!   table (E1–E6, A1–A4), printing aligned text and machine-readable CSV;
//!   `--table <id>` (e.g. `a3`) prints one and `--verify` checks the text
//!   against the lock; `--threads N` runs every simulated run on the
//!   sharded executor and `--cell-threads N` fans independent sweep cells
//!   out across threads — the tables are bit-identical under any knob
//!   setting (see [`harness`]);
//! * `cargo run -p lma-bench --release --bin figures` regenerates the figure
//!   data series (rounds vs `n`, advice vs `n`) and the DOT reproductions of
//!   the paper's Figure 1 and Figure 2;
//! * `cargo bench -p lma-bench` runs the Criterion benches measuring the cost
//!   of the substrate and of each scheme's oracle and decoder; each bench
//!   binary writes a `BENCH_<name>.json` trajectory file at the workspace
//!   root, and `-- --smoke` runs a clamped configuration for CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod experiments;
pub mod harness;
pub mod scenarios;
pub mod table;

pub use catalog::{Selection, WorkloadCatalog};
pub use experiments::{
    run_a1_capacity_sweep, run_a2_tie_break, run_a3_congest_audit, run_a4_fault_detection,
    run_e1_lower_bound, run_e2_one_round, run_e3_constant, run_e4_scheme_comparison,
    run_e5_rounds_vs_n, run_e6_tradeoff_frontier, ExperimentId, RunOpts,
};
pub use harness::{fan_out, RunHarness};
pub use table::Table;

//! Regenerates every experiment table (E1–E6, A1–A4), or checks them
//! against the committed `EXPERIMENTS.lock`.
//!
//! Usage:
//!
//! ```text
//! cargo run -p lma-bench --release --bin experiments            # all tables
//! cargo run -p lma-bench --release --bin experiments -- --table e3
//! cargo run -p lma-bench --release --bin experiments -- --csv   # CSV output
//! cargo run -p lma-bench --release --bin experiments -- --threads 4
//! cargo run -p lma-bench --release --bin experiments -- --cell-threads 8
//! cargo run -p lma-bench --release --bin experiments -- --verify
//! ```
//!
//! `--threads N` routes every simulated run through the sharded executor on
//! `N` worker threads; `--cell-threads N` fans the independent cells of each
//! sweep (seeds, schemes, fault trials) out across `N` threads.  Both knobs
//! change only wall-clock: the printed tables are bit-identical to the
//! sequential run.
//!
//! `--verify` renders every table in text form (under any thread knobs)
//! and compares it with `EXPERIMENTS.lock` at the workspace root; on drift
//! it prints the first differing line and exits 1.  The lock is the plain
//! output of a run without arguments, so after an intended change to the
//! tables regenerate it with
//! `cargo run --release -p lma-bench --bin experiments > EXPERIMENTS.lock`
//! and commit the diff.

#![forbid(unsafe_code)]
// Binaries talk on stdio; the print lints guard library crates.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use lma_bench::experiments::{first_difference, render_tables};
use lma_bench::{ExperimentId, RunOpts};
use std::num::NonZeroUsize;

const LOCK: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.lock");

fn parse_threads(args: &[String], flag: &str) -> Option<NonZeroUsize> {
    let pos = args.iter().position(|a| a == flag)?;
    let value = args.get(pos + 1).unwrap_or_else(|| {
        eprintln!("{flag} requires a positive integer argument");
        std::process::exit(2);
    });
    match value.parse::<usize>().ok().and_then(NonZeroUsize::new) {
        Some(threads) => Some(threads),
        None => {
            eprintln!("{flag} requires a positive integer, got {value:?}");
            std::process::exit(2);
        }
    }
}

/// Compares `rendered` with the lock and exits 1 at the first drift.
fn verify(rendered: &str) {
    let locked = std::fs::read_to_string(LOCK).unwrap_or_else(|e| {
        eprintln!("cannot read {LOCK}: {e}");
        std::process::exit(2);
    });
    match first_difference(&locked, rendered) {
        None => println!(
            "ok: all {} experiment tables match EXPERIMENTS.lock",
            ExperimentId::ALL.len()
        ),
        Some((line, want, got)) => {
            eprintln!("EXPERIMENTS.lock drift at line {line}:");
            eprintln!("  locked: {}", want.unwrap_or("<end of lock>"));
            eprintln!("  actual: {}", got.unwrap_or("<end of output>"));
            eprintln!(
                "after an intended change, regenerate the lock with\n  \
                 cargo run --release -p lma-bench --bin experiments > EXPERIMENTS.lock"
            );
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let csv = args.iter().any(|a| a == "--csv");
    let check = args.iter().any(|a| a == "--verify");
    let opts = RunOpts {
        threads: parse_threads(&args, "--threads"),
        cell_threads: parse_threads(&args, "--cell-threads"),
    };
    let table = args.iter().position(|a| a == "--table");
    if check && (csv || table.is_some()) {
        eprintln!("--verify checks every table in text form; drop --table and --csv");
        std::process::exit(2);
    }
    let selected: Vec<ExperimentId> = match table {
        Some(pos) => {
            let id = args
                .get(pos + 1)
                .and_then(|s| ExperimentId::parse(s))
                .unwrap_or_else(|| {
                    eprintln!("unknown table id; expected one of e1..e6, a1..a4");
                    std::process::exit(2);
                });
            vec![id]
        }
        None => ExperimentId::ALL.to_vec(),
    };

    let rendered = render_tables(&selected, csv, opts);
    if check {
        verify(&rendered);
    } else {
        print!("{rendered}");
    }
}

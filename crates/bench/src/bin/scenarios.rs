//! The scenario-registry CLI: list, run, verify and update the golden
//! digests in `SCENARIOS.lock`.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p lma-bench --bin scenarios -- list [--filter S] [--workload W] [--executor E] [--backing B]
//! cargo run --release -p lma-bench --bin scenarios -- run [--filter S] [--workload W] [--executor E] [--backing B] [--smoke]
//! cargo run --release -p lma-bench --bin scenarios -- verify [--filter S] [--workload W] [--executor E] [--backing B] [--smoke]
//! cargo run --release -p lma-bench --bin scenarios -- update [--missing]
//! ```
//!
//! * `list` prints every registered cell (scenario id × engine/backing);
//! * `run` executes the selected cells and prints their digests;
//! * `verify` executes the selected cells and compares each against the
//!   committed golden: any drift prints the expected vs actual digest and
//!   the **first diverging round**, and the process exits nonzero.  With no
//!   filter, stale lock entries (scenarios no longer registered) also fail;
//! * `update` re-runs the full registry and rewrites `SCENARIOS.lock` —
//!   run it only after an *intentional* behavior change, and review the
//!   diff it produces.  `update --missing` instead runs **only** the
//!   registry entries that have no lock record yet and appends them, in
//!   registry order, preserving every existing record byte for byte — the
//!   mode for extending the matrix without re-signing old digests.
//!
//! `--smoke` restricts `run`/`verify` to the smoke subset (what CI runs on
//! every push); `--filter S` keeps the **scenarios** whose id — or any of
//! whose cell ids (`id#engine/backing`) — contains the substring `S`;
//! `--workload W` is the same, matched against the workload names only
//! (`flood`, `scheme-constant`, …).  A scenario selected by those flags
//! normally runs *all* of its cells, because cross-cell digest invariance
//! is part of what is being checked; `--executor E` / `--backing B` narrow
//! the selection to **cells** whose engine segment (`seq`, `sharded2`,
//! `sharded4`, `push`) or backing segment (`inline`, `arena`)
//! contains the substring — the handle for re-checking one executor or one backing
//! in isolation.  `--lock PATH` overrides the default lock location (the
//! workspace root).  `update` always re-runs scenarios unfiltered and
//! rejects every selection flag; `update --missing` additionally
//! *refreshes the cell list* of records whose registry cell set changed
//! since they were pinned — every current cell must reproduce the pinned
//! digest bit-for-bit, and the record's digest/chain/stats are kept
//! verbatim.

#![forbid(unsafe_code)]
// Binaries talk on stdio; the print lints guard library crates.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use lma_bench::catalog::{Selection, WorkloadCatalog};
use lma_bench::scenarios::{LockFile, Scenario, ScenarioOutcome, Variant};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

fn default_lock_path() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../SCENARIOS.lock"))
}

struct Args {
    command: String,
    selection: Selection,
    missing: bool,
    lock: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: scenarios <list|run|verify|update> [--filter SUBSTRING] [--workload NAME] \
         [--executor ENGINE] [--backing BACKING] [--smoke] [--missing] [--lock PATH]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut command = None;
    let mut selection = Selection::default();
    let mut missing = false;
    let mut lock = default_lock_path();
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--filter" => match it.next() {
                Some(value) => selection.filter = Some(value),
                None => usage(),
            },
            "--workload" => match it.next() {
                Some(value) => selection.workload = Some(value),
                None => usage(),
            },
            "--executor" => match it.next() {
                Some(value) => selection.executor = Some(value),
                None => usage(),
            },
            "--backing" => match it.next() {
                Some(value) => selection.backing = Some(value),
                None => usage(),
            },
            "--lock" => match it.next() {
                Some(value) => lock = PathBuf::from(value),
                None => usage(),
            },
            "--smoke" => selection.smoke = true,
            "--missing" => missing = true,
            "list" | "run" | "verify" | "update" if command.is_none() => {
                command = Some(arg);
            }
            _ => usage(),
        }
    }
    let Some(command) = command else { usage() };
    Args {
        command,
        selection,
        missing,
        lock,
    }
}

/// Runs the selected cells of a scenario, converting a panicking cell into
/// an error message instead of aborting the whole sweep.
fn run_checked(scenario: &Scenario, variants: &[Variant]) -> Result<ScenarioOutcome, String> {
    catch_unwind(AssertUnwindSafe(|| {
        lma_bench::scenarios::run_scenario_cells(scenario, variants)
    }))
    .map_err(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(ToString::to_string)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        format!("panicked: {msg}")
    })
}

fn cmd_list(catalog: &WorkloadCatalog, scenarios: &[Scenario], args: &Args) {
    let mut cells = 0usize;
    for scenario in scenarios {
        let selected = catalog.select_cells(scenario, &args.selection);
        if selected.is_empty() {
            continue;
        }
        let marker = if scenario.smoke { " [smoke]" } else { "" };
        println!("{}{marker}", scenario.id());
        for variant in selected {
            println!("  {}#{}", scenario.id(), variant.label());
            cells += 1;
        }
    }
    println!("\n{} scenarios, {cells} cells", scenarios.len());
}

fn cmd_run(catalog: &WorkloadCatalog, scenarios: &[Scenario], args: &Args) -> i32 {
    let mut failures = 0;
    for scenario in scenarios {
        let cells = catalog.select_cells(scenario, &args.selection);
        if cells.is_empty() {
            continue;
        }
        match run_checked(scenario, &cells) {
            Ok(outcome) => {
                let canonical = outcome.canonical();
                println!(
                    "{}  rounds={} messages={} bits={}",
                    scenario.id(),
                    canonical.summary.rounds,
                    canonical.summary.total_messages,
                    canonical.summary.total_bits
                );
                println!("  digest {}", canonical.digest);
                // Frontier observability (absent unless the workload is
                // message-driven): the schedule actually taken.  Kept out
                // of the digest fold, so printing it here is the pinned
                // way to see it.
                if let Some(frontier) = &canonical.summary.frontier {
                    println!(
                        "  frontier sparse_rounds={} dense_rounds={} peak_active={}",
                        frontier.sparse_rounds, frontier.dense_rounds, frontier.peak_active
                    );
                }
                for (variant, cell) in outcome.divergent() {
                    failures += 1;
                    println!(
                        "  DIVERGED {}#{} digest {}",
                        scenario.id(),
                        variant.label(),
                        cell.digest
                    );
                }
            }
            Err(msg) => {
                failures += 1;
                println!("FAILED {}: {msg}", scenario.id());
            }
        }
    }
    i32::from(failures > 0)
}

/// Prints the drift diagnosis for one cell: expected vs actual digest,
/// traffic deltas, and the first diverging round from the checksum chains.
fn print_drift(
    scenario: &Scenario,
    variant: Variant,
    golden: &lma_bench::scenarios::Golden,
    actual: &lma_bench::scenarios::CellOutcome,
) {
    println!("DRIFT {}#{}", scenario.id(), variant.label());
    println!("  expected digest {}", golden.digest);
    println!("  actual   digest {}", actual.digest);
    println!(
        "  expected rounds={} messages={} bits={}",
        golden.rounds, golden.messages, golden.bits
    );
    println!(
        "  actual   rounds={} messages={} bits={}",
        actual.summary.rounds, actual.summary.total_messages, actual.summary.total_bits
    );
    let chain = &actual.summary.round_chain;
    match golden
        .chain
        .iter()
        .zip(chain)
        .position(|(expected, got)| expected != got)
    {
        Some(round) => println!(
            "  first diverging round: {} (of {} expected / {} actual)",
            round + 1,
            golden.chain.len(),
            chain.len()
        ),
        None if golden.chain.len() != chain.len() => println!(
            "  rounds diverge after round {} (expected {}, actual {})",
            golden.chain.len().min(chain.len()),
            golden.chain.len(),
            chain.len()
        ),
        None => println!(
            "  per-round traffic identical — outputs, labels, trace or error \
             payload diverged"
        ),
    }
}

fn cmd_verify(catalog: &WorkloadCatalog, scenarios: &[Scenario], args: &Args) -> i32 {
    let text = match std::fs::read_to_string(&args.lock) {
        Ok(text) => text,
        Err(e) => {
            eprintln!(
                "cannot read {}: {e}\nrun `scenarios update` to create it",
                args.lock.display()
            );
            return 1;
        }
    };
    let lock = match LockFile::parse(&text) {
        Ok(lock) => lock,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    let mut failures = 0usize;
    let mut cells_checked = 0usize;
    for scenario in scenarios {
        let cells = catalog.select_cells(scenario, &args.selection);
        if cells.is_empty() {
            continue;
        }
        let id = scenario.id();
        let Some(golden) = lock.get(&id) else {
            println!("UNLOCKED {id} — run `scenarios update` to pin it");
            failures += 1;
            continue;
        };
        match run_checked(scenario, &cells) {
            Ok(outcome) => {
                for (variant, cell) in &outcome.outcomes {
                    cells_checked += 1;
                    if cell.digest != golden.digest {
                        failures += 1;
                        print_drift(scenario, *variant, golden, cell);
                    }
                }
            }
            Err(msg) => {
                failures += 1;
                println!("FAILED {id}: {msg}");
            }
        }
    }
    // A full verify also flags stale lock entries (only a full sweep can
    // tell "stale" from "filtered out").
    if args.selection.is_full() {
        let ids: std::collections::BTreeSet<String> = scenarios.iter().map(Scenario::id).collect();
        for golden in &lock.scenarios {
            if !ids.contains(&golden.id) {
                failures += 1;
                println!(
                    "STALE {} — in the lock but not in the registry; run `scenarios update`",
                    golden.id
                );
            }
        }
    }
    if failures == 0 {
        println!(
            "ok: {} scenarios, {cells_checked} cells verified against {}",
            scenarios.len(),
            args.lock.display()
        );
        0
    } else {
        println!("{failures} failure(s)");
        1
    }
}

fn cmd_update(catalog: &WorkloadCatalog, args: &Args) -> i32 {
    // A re-pin is either all-or-nothing (default) or strictly append-only
    // (`--missing`): the flags that would narrow it arbitrarily are
    // rejected loudly instead of silently ignored, because a partial
    // re-pin would mix digests from two behaviors.
    if !args.selection.is_full() {
        eprintln!(
            "update re-runs scenarios unfiltered; \
             --smoke/--filter/--workload/--executor/--backing are not supported"
        );
        return 2;
    }
    let scenarios = catalog.scenarios().to_vec();
    // `--missing` preserves every existing record byte for byte and only
    // runs (and appends, in registry order) scenarios without one.
    let existing = if args.missing {
        let text = match std::fs::read_to_string(&args.lock) {
            Ok(text) => text,
            Err(e) => {
                eprintln!(
                    "cannot read {} (required by --missing): {e}",
                    args.lock.display()
                );
                return 1;
            }
        };
        match LockFile::parse(&text) {
            Ok(lock) => lock,
            Err(e) => {
                eprintln!("{e}");
                return 1;
            }
        }
    } else {
        LockFile::default()
    };
    if args.missing {
        let ids: std::collections::BTreeSet<String> = scenarios.iter().map(Scenario::id).collect();
        for golden in &existing.scenarios {
            if !ids.contains(&golden.id) {
                eprintln!(
                    "stale lock entry {} — not in the registry; run a full `scenarios update`",
                    golden.id
                );
                return 1;
            }
        }
    }
    let mut lock = LockFile::default();
    let mut appended = 0usize;
    let mut refreshed = 0usize;
    for scenario in &scenarios {
        if let Some(golden) = existing.get(&scenario.id()) {
            let labels: Vec<String> = scenario.variants().iter().map(Variant::label).collect();
            if golden.cells == labels {
                lock.scenarios.push(golden.clone());
                continue;
            }
            // The registry's cell set for this scenario changed since it
            // was pinned (an engine or backing was added or deleted).  Under
            // `--missing` the pinned behavior is not up for re-signing: re-run every
            // current cell, require each to reproduce the pinned digest
            // bit-for-bit, and refresh only the cell list — digest, chain
            // and traffic stats stay verbatim.
            match run_checked(scenario, &scenario.variants()) {
                Ok(outcome) => {
                    let mismatched: Vec<String> = outcome
                        .outcomes
                        .iter()
                        .filter(|(_, cell)| cell.digest != golden.digest)
                        .map(|(v, _)| v.label())
                        .collect();
                    if !mismatched.is_empty() {
                        eprintln!(
                            "refusing to refresh {}: cell(s) {} do not reproduce the pinned \
                             digest; run a full `scenarios update` if this behavior change is \
                             intentional",
                            scenario.id(),
                            mismatched.join(", ")
                        );
                        return 1;
                    }
                    let mut updated = golden.clone();
                    updated.cells = labels;
                    println!(
                        "refreshed cell list of {} ({} -> {} cells, digest unchanged)",
                        scenario.id(),
                        golden.cells.len(),
                        updated.cells.len()
                    );
                    lock.scenarios.push(updated);
                    refreshed += 1;
                }
                Err(msg) => {
                    eprintln!("refusing to refresh {}: {msg}", scenario.id());
                    return 1;
                }
            }
            continue;
        }
        match run_checked(scenario, &scenario.variants()) {
            Ok(outcome) => {
                let divergent = outcome.divergent();
                if !divergent.is_empty() {
                    eprintln!(
                        "refusing to pin {}: cells diverge across executors/backings ({})",
                        scenario.id(),
                        divergent
                            .iter()
                            .map(|(v, _)| v.label())
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                    return 1;
                }
                println!("pinned {}  {}", scenario.id(), outcome.canonical().digest);
                lock.scenarios.push(outcome.golden(scenario));
                appended += 1;
            }
            Err(msg) => {
                eprintln!("refusing to pin {}: {msg}", scenario.id());
                return 1;
            }
        }
    }
    if let Err(e) = std::fs::write(&args.lock, lock.render()) {
        eprintln!("cannot write {}: {e}", args.lock.display());
        return 1;
    }
    if args.missing {
        println!(
            "appended {appended} new scenario(s), refreshed {refreshed} cell list(s); kept {} \
             existing digest(s) verbatim",
            existing.scenarios.len()
        );
    }
    println!(
        "wrote {} ({} scenarios, {} cells)",
        args.lock.display(),
        scenarios.len(),
        lma_bench::scenarios::cell_count(&scenarios)
    );
    0
}

fn main() {
    let args = parse_args();
    let catalog = WorkloadCatalog::new();
    let selected = catalog.select(&args.selection);
    let code = match args.command.as_str() {
        "list" => {
            cmd_list(&catalog, &selected, &args);
            0
        }
        "run" => cmd_run(&catalog, &selected, &args),
        "verify" => cmd_verify(&catalog, &selected, &args),
        "update" => cmd_update(&catalog, &args),
        _ => unreachable!("parse_args validated the command"),
    };
    std::process::exit(code);
}

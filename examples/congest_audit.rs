//! CONGEST audit: the paper claims all its algorithms send messages of
//! O(log n) bits per edge per round.  This example runs every scheme under
//! the CONGEST(4·⌈log n⌉ + 16) model and reports the measured maximum message
//! size and any budget violations.
//!
//! ```text
//! cargo run -p lma-advice --release --example congest_audit
//! ```

// Examples talk on stdout; the print lints guard library crates.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use lma_advice::{AdvisingScheme, ConstantScheme, ConstantVariant, OneRoundScheme, TrivialScheme};
use lma_graph::generators::connected_random;
use lma_graph::weights::WeightStrategy;
use lma_mst::verify::verify_upward_outputs;
use lma_sim::{Model, Sim};

fn main() {
    let n = 300;
    let g = connected_random(
        n,
        4 * n,
        0xCA,
        WeightStrategy::DistinctRandom { seed: 0xCA },
    );
    let model = Model::congest_for(n);
    let budget = model.budget().unwrap();
    let sim = Sim::on(&g).model(model);

    let schemes: Vec<Box<dyn AdvisingScheme>> = vec![
        Box::new(TrivialScheme::default()),
        Box::new(OneRoundScheme::default()),
        Box::new(ConstantScheme::default()),
        Box::new(ConstantScheme {
            variant: ConstantVariant::Level,
            ..ConstantScheme::default()
        }),
    ];

    println!("CONGEST budget for n = {n}: {budget} bits per message\n");
    println!(
        "{:<42} {:>8} {:>14} {:>14} {:>12}",
        "scheme", "rounds", "max msg [bits]", "avg msg [bits]", "violations"
    );
    for scheme in &schemes {
        let advice = scheme.advise(&g).expect("oracle succeeds");
        let outcome = scheme.decode(&sim, &advice).expect("decode succeeds");
        verify_upward_outputs(&g, &outcome.outputs).expect("verified MST");
        println!(
            "{:<42} {:>8} {:>14} {:>14.1} {:>12}",
            scheme.name(),
            outcome.stats.rounds,
            outcome.stats.max_message_bits,
            outcome.stats.avg_message_bits(),
            outcome.stats.congest_violations
        );
    }

    println!();
    println!("Note: the Theorem 3 decoder's structured convergecast reports grow to");
    println!("O(log n) entries of a few bits each, so they exceed a *strict* 4·log n + 16");
    println!("budget by a constant factor while remaining polylogarithmic — the audit");
    println!("reports the exact measured sizes (see table A3, pinned in EXPERIMENTS.lock:");
    println!("cargo run --release -p lma-bench --bin experiments -- --table a3).");
}

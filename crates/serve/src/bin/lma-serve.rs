//! The `lma-serve` CLI: run the workload server, or replay registry mixes
//! against an in-process instance.
//!
//! ```text
//! lma-serve serve --stdio                 one connection over stdin/stdout
//! lma-serve serve --tcp 127.0.0.1:7411    TCP accept loop (port 0 = ephemeral)
//! lma-serve replay --verify-lock [--smoke] [--depth D]
//! lma-serve replay --bench [--smoke] [--depth D] [--force]
//! ```
//!
//! Server knobs (both `serve` forms): `--workers W` (threads executing a
//! dispatch window's groups, the dispatcher included; defaults to the
//! host's available parallelism, `--workers 1` runs every group on the
//! dispatcher), `--no-coalesce`, `--max-queue N`, `--max-batch W`.
//! `replay --bench` exits non-zero when no scenario clears the 1.2×
//! coalescing bar, so CI can hold the line.

#![forbid(unsafe_code)]
// Binaries talk on stdio; the print lints guard library crates.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use lma_serve::replay::{bench, verify_lock, ReplayOpts};
use lma_serve::server::{Server, ServerConfig, TcpServer};

fn usage() -> ! {
    eprintln!(
        "usage: lma-serve serve (--stdio | --tcp ADDR) [--workers W] [--no-coalesce] \
         [--max-queue N] [--max-batch W]\n       \
         lma-serve replay [--verify-lock] [--bench] [--smoke] [--depth D] [--force]\n\
         --workers W: threads executing a window's groups, the dispatcher included \
         (default: available cores; 1 = serial)"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    let Some(raw) = args.next() else {
        eprintln!("{flag} needs a value");
        usage();
    };
    raw.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: cannot parse `{raw}`");
        usage();
    })
}

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("serve") => cmd_serve(args),
        Some("replay") => cmd_replay(args),
        _ => usage(),
    }
}

fn cmd_serve(mut args: impl Iterator<Item = String>) {
    let mut config = ServerConfig::default();
    let mut stdio = false;
    let mut tcp: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--stdio" => stdio = true,
            "--tcp" => tcp = Some(parse(&mut args, "--tcp")),
            "--workers" => config.workers = parse(&mut args, "--workers"),
            "--no-coalesce" => config.coalesce = false,
            "--max-queue" => config.max_queue = parse(&mut args, "--max-queue"),
            "--max-batch" => config.max_batch = parse(&mut args, "--max-batch"),
            _ => usage(),
        }
    }
    match (stdio, tcp) {
        (true, None) => {
            let server = Server::start(config);
            server.serve_connection(std::io::stdin().lock(), std::io::stdout());
            // The peer hung up; drain whatever it left queued and exit.
            server.shutdown();
            server.join();
        }
        (false, Some(addr)) => {
            let tcp = TcpServer::bind(&addr, config).unwrap_or_else(|e| {
                eprintln!("cannot bind {addr}: {e}");
                std::process::exit(1);
            });
            println!("lma-serve listening on {}", tcp.addr());
            // Serve until a client requests a drain; `wait` returns once
            // the dispatcher has answered the final request.
            tcp.wait();
        }
        _ => usage(),
    }
}

fn cmd_replay(mut args: impl Iterator<Item = String>) {
    let mut opts = ReplayOpts::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--depth" => opts.depth = parse(&mut args, "--depth"),
            "--verify-lock" => opts.verify_lock = true,
            "--bench" => opts.bench = true,
            "--force" => opts.force = true,
            _ => usage(),
        }
    }
    if !opts.verify_lock && !opts.bench {
        eprintln!("replay: nothing to do (pass --verify-lock and/or --bench)");
        usage();
    }
    if opts.verify_lock {
        if let Err(error) = verify_lock(&opts) {
            eprintln!("verify-lock FAILED: {error}");
            std::process::exit(1);
        }
    }
    if opts.bench {
        match bench(&opts) {
            Ok(true) => {}
            Ok(false) => {
                eprintln!("bench: no scenario reached the 1.2x coalescing bar");
                std::process::exit(1);
            }
            Err(error) => {
                eprintln!("bench FAILED: {error}");
                std::process::exit(1);
            }
        }
    }
}

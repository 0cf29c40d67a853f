//! `lma-lint`: the workspace invariant checker.
//!
//! The workspace carries invariants the compiler cannot see: scenario
//! digests must be bit-reproducible (so no nondeterministic iteration,
//! wall-clock or ambient input on digest paths), the untrusted-byte codec
//! must be total (no panicking idioms, no silent narrowing), `unsafe` is
//! forbidden except one audited allocator, the workload registry must
//! stay in lock-step with `SCENARIOS.lock` and the round-trip suites, and
//! no assertion may compare an expression with itself.
//! This crate checks all of them lexically — no rustc plumbing, no
//! dependencies — and anchors every finding to `file:line`.
//!
//! Exceptions are declared inline where they live:
//!
//! ```text
//! let t = Instant::now(); // lint: allow(wall-clock) — bench timing only
//! ```
//!
//! See [`rules`] for the rule table and [`allowlist`] for the pragma
//! grammar.  The binary (`cargo run -p lma-lint`) exits nonzero on any
//! finding and offers `--json` for machine consumption.

#![forbid(unsafe_code)]

pub mod allowlist;
pub mod diagnostics;
pub mod lockfile;
pub mod registry;
pub mod rules;
pub mod scanner;

use diagnostics::Diagnostic;
use std::fs;
use std::path::Path;

/// One workspace source file, scanned and ready for rule checks.
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// The raw source text (the cross-file rules read string literals).
    pub raw: String,
    /// The blanked scan (the lexical rules read this).
    pub scanned: scanner::Scanned,
    /// The file's pragma allowlist, with use tracking.
    pub allow: allowlist::Allowlist,
}

/// Directories walked for `.rs` sources, relative to the workspace root.
const WALK_ROOTS: &[&str] = &["crates", "vendor", "tests", "examples"];

/// Lints the workspace rooted at `root`.  Returns the sorted diagnostics
/// (empty = clean) or an I/O-level error message.
pub fn run(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let mut paths = Vec::new();
    for top in WALK_ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            collect(&dir, top, &mut paths)?;
        }
    }
    paths.sort();

    let mut diags = Vec::new();
    let mut files = Vec::with_capacity(paths.len());
    for rel in paths {
        let raw = fs::read_to_string(root.join(&rel)).map_err(|e| format!("read {rel}: {e}"))?;
        let scanned = scanner::scan(&raw);
        let (mut allow, pragma_diags) = allowlist::parse(&rel, &scanned);
        diags.extend(pragma_diags);
        rules::check_file(&rel, &scanned, &mut allow, &mut diags);
        files.push(SourceFile {
            path: rel,
            raw,
            scanned,
            allow,
        });
    }

    let lock = fs::read_to_string(root.join("SCENARIOS.lock")).ok();
    registry::check(&mut files, lock.as_deref(), &mut diags);

    for file in &files {
        diags.extend(file.allow.stale(&file.path));
    }

    diagnostics::sort(&mut diags);
    Ok(diags)
}

/// Lints a single in-memory source as if it lived at `path` — the
/// fixture-test entry point.  Runs the lexical rules and pragma hygiene
/// (not the cross-file rules, which need a whole tree).
#[must_use]
pub fn check_source(path: &str, src: &str) -> Vec<Diagnostic> {
    let scanned = scanner::scan(src);
    let (mut allow, mut diags) = allowlist::parse(path, &scanned);
    rules::check_file(path, &scanned, &mut allow, &mut diags);
    diags.extend(allow.stale(path));
    diagnostics::sort(&mut diags);
    diags
}

/// Recursively collects `.rs` files under `dir` as workspace-relative
/// paths, skipping build output and VCS internals.
fn collect(dir: &Path, rel: &str, out: &mut Vec<String>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read dir {rel}: {e}"))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read dir {rel}: {e}"))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else {
            continue;
        };
        let child_rel = format!("{rel}/{name}");
        let path = entry.path();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            collect(&path, &child_rel, out)?;
        } else if name.ends_with(".rs") {
            out.push(child_rel);
        }
    }
    Ok(())
}

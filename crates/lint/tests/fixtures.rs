//! Fixture tests: every rule is exercised with a violating source (the
//! finding appears, at the right `file:line`), a conforming source (no
//! finding), and an allowlisted source (the pragma suppresses it — and a
//! reasonless pragma is itself a finding).  A final test pins the real
//! workspace clean, so the binary's exit-0 contract is enforced by
//! `cargo test` and not just by CI.

use lma_lint::check_source;
use lma_lint::diagnostics::Diagnostic;

/// Asserts `src` at `path` produces exactly the `(rule, line)` findings.
#[track_caller]
fn expect(path: &str, src: &str, want: &[(&str, usize)]) {
    let got: Vec<(String, usize)> = check_source(path, src)
        .into_iter()
        .map(|d| (d.rule.to_string(), d.line))
        .collect();
    let want: Vec<(String, usize)> = want.iter().map(|&(r, l)| (r.to_string(), l)).collect();
    assert_eq!(got, want, "findings for {path}:\n{src}");
}

// ---------------------------------------------------------------------------
// D1: determinism
// ---------------------------------------------------------------------------

#[test]
fn hash_iteration_positive_negative_pragma() {
    let bad = "use std::collections::HashMap;\nfn f() { let s: HashSet<u8> = HashSet::new(); }\n";
    expect(
        "crates/sim/src/fake.rs",
        bad,
        &[("hash-iteration", 1), ("hash-iteration", 2)],
    );
    // Same source outside the digest scope: no findings.
    expect("crates/serve/src/fake.rs", bad, &[]);
    // BTree containers pass inside the scope.
    expect(
        "crates/graph/src/fake.rs",
        "use std::collections::{BTreeMap, BTreeSet};\n",
        &[],
    );
    // An allowlisted membership-only use passes.
    expect(
        "crates/mst/src/fake.rs",
        "// lint: allow(hash-iteration) — membership only, never iterated\n\
         let mut seen = std::collections::HashSet::new();\n",
        &[],
    );
}

#[test]
fn digest_scope_covers_the_baselines_and_the_experiments_tables() {
    // The baselines' workloads fold most registry digests, and the
    // `experiments` binary prints the paper's locked tables: iterating a
    // default-hasher map in either would leak run-to-run order.
    let bad = "use std::collections::HashMap;\nfn f(m: &HashMap<u8, u8>) { for _ in m {} }\n";
    for path in [
        "crates/baselines/src/workloads.rs",
        "crates/bench/src/experiments.rs",
    ] {
        expect(path, bad, &[("hash-iteration", 1), ("hash-iteration", 2)]);
    }
    // The rest of the bench crate stays out of scope.
    expect("crates/bench/src/harness.rs", bad, &[]);
}

#[test]
fn wall_clock_positive_negative_pragma() {
    expect(
        "crates/labeling/src/fake.rs",
        "fn f() {\n    let t = std::time::Instant::now();\n    let s = SystemTime::now();\n}\n",
        &[("wall-clock", 2), ("wall-clock", 3)],
    );
    // Bench sources are outside the library scope.
    expect(
        "crates/bench/benches/fake.rs",
        "#![forbid(unsafe_code)]\nuse std::time::Instant;\n",
        &[],
    );
    // Test regions are exempt everywhere.
    expect(
        "crates/labeling/src/fake.rs",
        "fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::time::Instant;\n}\n",
        &[],
    );
    expect(
        "crates/bench/src/fake.rs",
        "let t = std::time::Instant::now(); // lint: allow(wall-clock) — harness timing, not digest state\n",
        &[],
    );
}

#[test]
fn ambient_input_positive_and_compile_time_negative() {
    expect(
        "crates/sim/src/fake.rs",
        "let v = std::env::var(\"SEED\");\nlet p = std::thread::available_parallelism();\n",
        &[("ambient-input", 1), ("ambient-input", 2)],
    );
    // Compile-time env! is not an ambient input.
    expect(
        "crates/sim/src/fake.rs",
        "let dir = env!(\"CARGO_MANIFEST_DIR\");\n",
        &[],
    );
}

// ---------------------------------------------------------------------------
// D2: codec totality
// ---------------------------------------------------------------------------

#[test]
fn codec_panic_positive_negative_pragma() {
    let bad = "fn f(x: Option<u8>, b: &[u8]) {\n\
               let a = x.unwrap();\n\
               let c = b[0];\n\
               panic!(\"boom\");\n\
               }\n";
    expect(
        "crates/serve/src/proto.rs",
        bad,
        &[("codec-panic", 2), ("codec-panic", 3), ("codec-panic", 4)],
    );
    // The same idioms outside the codec files are out of scope.
    expect("crates/serve/src/server.rs", bad, &[]);
    expect(
        "crates/sim/src/wire.rs",
        "fn f(b: &[u8]) -> u8 {\n\
         // lint: allow(codec-panic) — trusted in-process span\n\
         b[0]\n\
         }\n",
        &[],
    );
}

#[test]
fn codec_cast_positive_negative_pragma() {
    expect(
        "crates/sim/src/wire.rs",
        "fn f(x: u64) -> u8 { x as u8 }\n",
        &[("codec-cast", 1)],
    );
    // From/TryFrom conversions pass.
    expect(
        "crates/sim/src/wire.rs",
        "fn f(x: u32) -> u64 { u64::from(x) }\nfn g(x: u64) -> u8 { u8::try_from(x).unwrap_or(0) }\n",
        &[],
    );
    expect(
        "crates/serve/src/proto.rs",
        "fn f(x: u64) -> u8 {\n\
         (x & 0xff) as u8 // lint: allow(codec-cast) — masked, cannot truncate\n\
         }\n",
        &[],
    );
}

// ---------------------------------------------------------------------------
// D3: unsafe audit
// ---------------------------------------------------------------------------

#[test]
fn unsafe_code_positive_negative_pragma() {
    // A root without the forbid attribute.
    expect(
        "crates/sim/src/lib.rs",
        "pub mod x;\n",
        &[("unsafe-code", 1)],
    );
    // A root with it.
    expect(
        "crates/sim/src/lib.rs",
        "#![forbid(unsafe_code)]\npub mod x;\n",
        &[],
    );
    // An unsafe token anywhere, even with the root attribute elsewhere.
    expect(
        "crates/graph/src/fake.rs",
        "fn f() { unsafe { std::hint::unreachable_unchecked() } }\n",
        &[("unsafe-code", 1)],
    );
    // The allocator exception: file-scope pragma covers both the missing
    // forbid and the unsafe tokens.
    expect(
        "crates/bench/benches/bench_substrate.rs",
        "// lint: allow-file(unsafe-code) — counting GlobalAlloc, audited here\n\
         unsafe impl GlobalAlloc for A {\n\
         unsafe fn alloc(&self) {}\n\
         }\n",
        &[],
    );
}

// ---------------------------------------------------------------------------
// Checks that can fail
// ---------------------------------------------------------------------------

#[test]
fn tautological_assert_positive_negative_pragma() {
    // The vacuous Theorem 3 check this rule exists for, in an integration
    // test file, plus a multi-line debug_assert! and an `&&` conjunct.
    expect(
        "tests/fake.rs",
        "fn t(maxima: Vec<usize>, cap: usize) {\n\
         assert!(maxima.iter().max() <= maxima.iter().max());\n\
         debug_assert!(\n\
         cap > 0 && cap == cap,\n\
         \"cap must be positive\"\n\
         );\n\
         }\n",
        &[("tautological-assert", 2), ("tautological-assert", 3)],
    );
    // Test regions are not exempt from this rule.
    expect(
        "crates/graph/src/fake.rs",
        "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() { assert_eq!(x.len(), x.len()); }\n}\n",
        &[("tautological-assert", 4)],
    );
    // Real comparisons pass: the fixed check, a closure comparison, two
    // different (blanked) literals, and spaced-out but different sides.
    expect(
        "tests/fake.rs",
        "fn t(maxima: Vec<usize>) {\n\
         assert!(maxima.iter().all(|&m| m == maxima[0]));\n\
         assert_eq!(\"a\", \"b\");\n\
         assert!(maxima.len() <= maxima.capacity());\n\
         }\n",
        &[],
    );
    // A determinism check evaluates the same expression twice on purpose.
    expect(
        "crates/sim/src/fake.rs",
        "fn t() {\n\
         // lint: allow(tautological-assert) — determinism check: two runs must agree\n\
         assert_eq!(run(&[1, 2]), run(&[1, 2]));\n\
         }\n",
        &[],
    );
}

// ---------------------------------------------------------------------------
// Pragma hygiene
// ---------------------------------------------------------------------------

#[test]
fn pragma_without_reason_is_itself_a_diagnostic() {
    // The underlying violation is suppressed, but the missing reason is
    // reported — an allowlist entry can never be silent.
    expect(
        "crates/sim/src/fake.rs",
        "// lint: allow(hash-iteration)\nuse std::collections::HashMap;\n",
        &[("pragma-reason", 1)],
    );
    // `--` works as the separator too, and a reasoned pragma is silent.
    expect(
        "crates/sim/src/fake.rs",
        "// lint: allow(hash-iteration) -- membership only\nuse std::collections::HashMap;\n",
        &[],
    );
}

#[test]
fn unknown_stale_and_malformed_pragmas_are_diagnostics() {
    expect(
        "crates/sim/src/fake.rs",
        "// lint: allow(no-such-rule) — typo\n",
        // Unknown names are reported once as pragma-unknown; the stale pass
        // skips them rather than double-reporting.
        &[("pragma-unknown", 1)],
    );
    expect(
        "crates/sim/src/fake.rs",
        "// lint: allow(wall-clock) — nothing here uses the clock\n",
        &[("pragma-unused", 1)],
    );
    expect(
        "crates/sim/src/fake.rs",
        "// lint: allowance(wall-clock) — verb typo\n",
        &[("pragma-syntax", 1)],
    );
}

#[test]
fn string_literals_and_comments_do_not_trip_rules() {
    expect(
        "crates/sim/src/fake.rs",
        "// A HashMap would be nondeterministic here, so we don't use one.\n\
         let s = \"HashMap unwrap Instant unsafe\";\n",
        &[],
    );
}

// ---------------------------------------------------------------------------
// Machine output
// ---------------------------------------------------------------------------

#[test]
fn json_output_is_versioned_and_escaped() {
    let diags = vec![Diagnostic {
        rule: "wall-clock",
        path: "crates/x/src/\"odd\".rs".to_string(),
        line: 3,
        message: "a \"quoted\" message".to_string(),
    }];
    let json = lma_lint::diagnostics::to_json(&diags);
    assert!(json.starts_with("{\"version\":1,\"count\":1,"));
    assert!(json.contains("\\\"quoted\\\""));
    assert!(json.contains("\"line\":3"));
}

// ---------------------------------------------------------------------------
// Cross-file rules on a synthetic tree
// ---------------------------------------------------------------------------

#[test]
fn cross_file_rules_on_a_fixture_tree() {
    let root = std::env::temp_dir().join("lma-lint-fixture-tree");
    let catalog_dir = root.join("crates/bench/src");
    let baselines_dir = root.join("crates/baselines/src");
    let tests_dir = root.join("tests");
    for d in [&catalog_dir, &baselines_dir, &tests_dir] {
        std::fs::create_dir_all(d).unwrap();
    }
    std::fs::write(
        catalog_dir.join("scenarios.rs"),
        "fn name(k: K) -> &'static str {\n\
         match k {\n\
         WorkloadKind::Flood => \"flood\",\n\
         WorkloadKind::Wave => \"wave\",\n\
         }\n\
         }\n",
    )
    .unwrap();
    // `wave` is resolvable but unpinned; `ghost` is pinned but unknown.
    std::fs::write(
        root.join("SCENARIOS.lock"),
        "scenario flood/ring/n8/s1 smoke=true rounds=1 messages=1 bits=1\n\
         scenario ghost/ring/n8/s2 smoke=true rounds=1 messages=1 bits=1\n",
    )
    .unwrap();
    // `Covered` is in the suite; `Orphan` is not.
    std::fs::write(
        baselines_dir.join("msgs.rs"),
        "impl lma_sim::Wire for Covered {}\nwire_struct!(Orphan { x });\n",
    )
    .unwrap();
    std::fs::write(
        tests_dir.join("wire_roundtrip.rs"),
        "roundtrip::<Covered>();\n",
    )
    .unwrap();

    let diags = lma_lint::run(&root).unwrap();
    let got: Vec<(&str, String, usize)> = diags
        .iter()
        .map(|d| (d.rule, d.path.clone(), d.line))
        .collect();
    assert_eq!(
        got,
        vec![
            ("registry-lock", "SCENARIOS.lock".to_string(), 2),
            (
                "wire-roundtrip",
                "crates/baselines/src/msgs.rs".to_string(),
                2
            ),
            (
                "registry-lock",
                "crates/bench/src/scenarios.rs".to_string(),
                4
            ),
        ],
        "{diags:?}"
    );

    std::fs::remove_dir_all(&root).unwrap();
}

// ---------------------------------------------------------------------------
// The real workspace is clean
// ---------------------------------------------------------------------------

#[test]
fn the_workspace_lints_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let diags = lma_lint::run(&root).unwrap();
    assert!(
        diags.is_empty(),
        "workspace has lint findings:\n{}",
        diags
            .iter()
            .map(lma_lint::diagnostics::Diagnostic::render)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

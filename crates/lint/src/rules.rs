//! The lint rules and their file scopes.
//!
//! | rule | guards | scope |
//! |------|--------|-------|
//! | `hash-iteration` | digest determinism: no default-hasher `HashMap`/`HashSet` in digest-affecting code | sim, graph, advice, mst, labeling sources + `bench::{scenarios,catalog}` |
//! | `wall-clock` | digest determinism: no `Instant`/`SystemTime` in library code | every `crates/*/src/**` file |
//! | `ambient-input` | digest determinism: no env/thread-id/parallelism reads | every `crates/*/src/**` file |
//! | `codec-panic` | codec totality: no `unwrap`/`expect`/`panic!`/`assert!`/indexing in the codec files | `sim/src/wire.rs`, `serve/src/proto.rs` |
//! | `codec-cast` | codec totality: no bare `as` integer casts in the codec files | `sim/src/wire.rs`, `serve/src/proto.rs` |
//! | `unsafe-code` | unsafe audit: crate roots carry `#![forbid(unsafe_code)]`; no `unsafe` token anywhere | all scanned files / compilation roots |
//! | `registry-lock` | registry consistency: catalog workload names ↔ `SCENARIOS.lock` | cross-file |
//! | `wire-roundtrip` | registry consistency: every `Wire` impl named in the round-trip suites | cross-file |
//! | `tautological-assert` | checks that can fail: no assertion comparing an expression with itself | every scanned file, test code included |
//! | `pragma-*` | allowlist hygiene: syntax, known rule, mandatory reason, no stale pragmas | every scanned file |
//!
//! Rules are lexical (token-level over comment- and literal-stripped code;
//! see [`crate::scanner`]) except the two registry rules, which are
//! cross-file.  Test regions (`#[cfg(test)]` onward) are exempt from all
//! rules but `tautological-assert`: tests may time, hash and panic freely,
//! but their assertions must be able to fail.

use crate::allowlist::Allowlist;
use crate::diagnostics::Diagnostic;
use crate::scanner::{has_token, is_ident_byte, Scanned};

/// Determinism: default-hasher containers in digest-affecting code.
pub const HASH_ITERATION: &str = "hash-iteration";
/// Determinism: wall-clock reads in library code.
pub const WALL_CLOCK: &str = "wall-clock";
/// Determinism: environment / thread-identity / parallelism reads.
pub const AMBIENT_INPUT: &str = "ambient-input";
/// Codec totality: panicking idioms in the codec files.
pub const CODEC_PANIC: &str = "codec-panic";
/// Codec totality: bare `as` integer casts in the codec files.
pub const CODEC_CAST: &str = "codec-cast";
/// Unsafe audit: missing `#![forbid(unsafe_code)]` or an `unsafe` token.
pub const UNSAFE_CODE: &str = "unsafe-code";
/// Registry consistency: workload names vs `SCENARIOS.lock`.
pub const REGISTRY_LOCK: &str = "registry-lock";
/// Registry consistency: `Wire` impls vs the round-trip suites.
pub const WIRE_ROUNDTRIP: &str = "wire-roundtrip";
/// Checks that can fail: an assertion comparing an expression with itself.
pub const TAUTOLOGICAL_ASSERT: &str = "tautological-assert";
/// Allowlist hygiene: malformed pragma.
pub const PRAGMA_SYNTAX: &str = "pragma-syntax";
/// Allowlist hygiene: pragma without a reason.
pub const PRAGMA_REASON: &str = "pragma-reason";
/// Allowlist hygiene: pragma naming an unknown rule.
pub const PRAGMA_UNKNOWN: &str = "pragma-unknown";
/// Allowlist hygiene: pragma that suppresses nothing.
pub const PRAGMA_UNUSED: &str = "pragma-unused";

/// Every rule id with a one-line description (the `--rules` listing).
pub const ALL: &[(&str, &str)] = &[
    (
        HASH_ITERATION,
        "no default-hasher HashMap/HashSet in digest-affecting code (iteration order is nondeterministic)",
    ),
    (
        WALL_CLOCK,
        "no Instant/SystemTime in library code (wall-clock reads cannot affect a digest)",
    ),
    (
        AMBIENT_INPUT,
        "no env-var, thread-id or available-parallelism reads in library code",
    ),
    (
        CODEC_PANIC,
        "no unwrap/expect/panic!/assert!/indexing in the codec files (untrusted bytes stay on the typed-error path)",
    ),
    (
        CODEC_CAST,
        "no bare `as` integer casts in the codec files (use From/TryFrom so narrowing is explicit)",
    ),
    (
        UNSAFE_CODE,
        "every compilation root carries #![forbid(unsafe_code)]; no unsafe token anywhere",
    ),
    (
        REGISTRY_LOCK,
        "every catalog workload name is pinned in SCENARIOS.lock (and vice versa)",
    ),
    (
        WIRE_ROUNDTRIP,
        "every Wire impl is named in the round-trip property suites",
    ),
    (
        TAUTOLOGICAL_ASSERT,
        "no assert!/debug_assert! comparison whose two sides are the same token sequence (it cannot fail)",
    ),
    (PRAGMA_SYNTAX, "allow pragmas must parse"),
    (PRAGMA_REASON, "allow pragmas must carry a reason"),
    (PRAGMA_UNKNOWN, "allow pragmas must name known rules"),
    (PRAGMA_UNUSED, "allow pragmas must suppress something"),
];

/// True when `name` is a registered rule id.
#[must_use]
pub fn is_known(name: &str) -> bool {
    ALL.iter().any(|(id, _)| *id == name)
}

// ---------------------------------------------------------------------------
// File scopes
// ---------------------------------------------------------------------------

/// The digest-affecting sources: everything folded into a scenario digest
/// flows through these crates (plus the registry/catalog definitions).
#[must_use]
pub fn digest_scope(path: &str) -> bool {
    const PREFIXES: &[&str] = &[
        "crates/sim/src/",
        "crates/graph/src/",
        "crates/advice/src/",
        "crates/mst/src/",
        "crates/labeling/src/",
    ];
    PREFIXES.iter().any(|p| path.starts_with(p))
        || path == "crates/bench/src/scenarios.rs"
        || path == "crates/bench/src/catalog.rs"
}

/// Library sources: all first-party crate code (bins included — their
/// timing exemptions are explicit pragmas), but not benches, tests,
/// examples or vendored shims.
#[must_use]
pub fn library_scope(path: &str) -> bool {
    path.starts_with("crates/") && path.contains("/src/")
}

/// The two codec files whose panic- and cast-hygiene is load-bearing.
#[must_use]
pub fn codec_scope(path: &str) -> bool {
    path == "crates/sim/src/wire.rs" || path == "crates/serve/src/proto.rs"
}

/// Compilation roots that must carry `#![forbid(unsafe_code)]` (or a
/// file-scope `unsafe-code` pragma documenting the exception).
#[must_use]
pub fn is_compilation_root(path: &str) -> bool {
    let parts: Vec<&str> = path.split('/').collect();
    match parts.as_slice() {
        ["crates" | "vendor", _, "src", "lib.rs"] => true,
        ["crates", _, "src", "bin", f] | ["crates", _, "benches", f] => f.ends_with(".rs"),
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Per-file checks
// ---------------------------------------------------------------------------

fn push(
    diags: &mut Vec<Diagnostic>,
    allow: &mut Allowlist,
    rule: &'static str,
    path: &str,
    line: usize,
    message: String,
) {
    if !allow.allows(rule, line) {
        diags.push(Diagnostic {
            rule,
            path: path.to_string(),
            line,
            message,
        });
    }
}

/// Runs every lexical rule over one scanned file.  `path` decides the
/// scopes; pragma parse diagnostics are *not* included (the caller gets
/// those from [`crate::allowlist::parse`]).
pub fn check_file(
    path: &str,
    scanned: &Scanned,
    allow: &mut Allowlist,
    diags: &mut Vec<Diagnostic>,
) {
    let digest = digest_scope(path);
    let library = library_scope(path);
    let codec = codec_scope(path);

    for (idx, line) in scanned.lines.iter().enumerate() {
        let number = idx + 1;
        if scanned.in_tests(number) {
            break;
        }
        let code = line.code.as_str();

        if digest {
            for container in ["HashMap", "HashSet"] {
                if has_token(code, container) {
                    push(
                        diags,
                        allow,
                        HASH_ITERATION,
                        path,
                        number,
                        format!(
                            "`{container}` in digest-affecting code: iteration order is \
                             nondeterministic — use BTreeMap/BTreeSet, sort before iterating, \
                             or allowlist a membership-only use"
                        ),
                    );
                    break;
                }
            }
        }

        if library {
            for clock in ["Instant", "SystemTime"] {
                if has_token(code, clock) {
                    push(
                        diags,
                        allow,
                        WALL_CLOCK,
                        path,
                        number,
                        format!(
                            "`{clock}` in library code: wall-clock reads must stay out of \
                             digest-affecting paths"
                        ),
                    );
                    break;
                }
            }
            for (needle, what) in [
                ("env::var", "environment read"),
                ("env::vars", "environment read"),
                ("var_os", "environment read"),
                ("thread::current", "thread-identity read"),
                ("available_parallelism", "host-parallelism read"),
            ] {
                if code.contains(needle) {
                    push(
                        diags,
                        allow,
                        AMBIENT_INPUT,
                        path,
                        number,
                        format!(
                            "{what} (`{needle}`) in library code: ambient inputs must not \
                             reach deterministic paths"
                        ),
                    );
                    break;
                }
            }
        }

        if codec {
            for idiom in [
                "unwrap",
                "expect",
                "panic!",
                "unreachable!",
                "assert!",
                "assert_eq!",
                "assert_ne!",
            ] {
                let bare = idiom.trim_end_matches('!');
                if has_token(code, bare) && code.contains(idiom) {
                    push(
                        diags,
                        allow,
                        CODEC_PANIC,
                        path,
                        number,
                        format!(
                            "`{idiom}` in a codec file: malformed bytes must surface as \
                             typed errors, not panics"
                        ),
                    );
                    break;
                }
            }
            if let Some(col) = find_indexing(code) {
                push(
                    diags,
                    allow,
                    CODEC_PANIC,
                    path,
                    number,
                    format!(
                        "indexing expression at column {col} in a codec file: out-of-range \
                         input panics — use `.get(…)` and surface a typed error"
                    ),
                );
            }
            if let Some(target) = find_int_cast(code) {
                push(
                    diags,
                    allow,
                    CODEC_CAST,
                    path,
                    number,
                    format!(
                        "bare `as {target}` cast in a codec file: use `From`/`TryFrom` so \
                         narrowing is explicit and checked"
                    ),
                );
            }
        }

        if has_token(code, "unsafe") {
            push(
                diags,
                allow,
                UNSAFE_CODE,
                path,
                number,
                "`unsafe` outside the allowlisted exception: the workspace is \
                 #![forbid(unsafe_code)]"
                    .to_string(),
            );
        }
    }

    check_tautologies(path, scanned, allow, diags);

    if is_compilation_root(path) {
        let has_forbid = scanned
            .lines
            .iter()
            .any(|l| l.code.contains("#![forbid(unsafe_code)]"));
        if !has_forbid {
            push(
                diags,
                allow,
                UNSAFE_CODE,
                path,
                1,
                "compilation root lacks `#![forbid(unsafe_code)]`".to_string(),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// tautological-assert
// ---------------------------------------------------------------------------

/// Assertion macros whose first argument is a condition.
const CONDITION_ASSERTS: &[&str] = &["assert", "debug_assert", "prop_assert"];
/// Assertion macros comparing their first two arguments.
const PAIR_ASSERTS: &[&str] = &[
    "assert_eq",
    "assert_ne",
    "debug_assert_eq",
    "debug_assert_ne",
    "prop_assert_eq",
    "prop_assert_ne",
];
/// How many lines one assertion's arguments may span before the scan gives
/// up on it.
const MAX_ASSERT_LINES: usize = 40;

/// Flags assertions whose comparison has the same token sequence on both
/// sides — `assert!(x <= x)`, `assert_eq!(a.len(), a.len())` — anywhere in
/// the file, test regions included.  A condition is split at top-level
/// `&&` / `||` first, so one vacuous conjunct is caught too.  Sides holding
/// string or char literals are skipped: the scanner blanks literal
/// contents, so two different literals would compare equal.
fn check_tautologies(
    path: &str,
    scanned: &Scanned,
    allow: &mut Allowlist,
    diags: &mut Vec<Diagnostic>,
) {
    for (idx, line) in scanned.lines.iter().enumerate() {
        for (name, open) in assert_calls(&line.code) {
            let Some(args) = macro_args(&scanned.lines, idx, open) else {
                continue;
            };
            let args = split_top_level(&args, &[","]);
            let same = if PAIR_ASSERTS.contains(&name) {
                match args.as_slice() {
                    [left, right, ..] => same_tokens(left, right).then(|| left.trim().to_string()),
                    _ => None,
                }
            } else {
                args.first().and_then(|cond| {
                    split_top_level(cond, &["&&", "||"])
                        .iter()
                        .find_map(|clause| tautological_comparison(clause))
                })
            };
            if let Some(side) = same {
                push(
                    diags,
                    allow,
                    TAUTOLOGICAL_ASSERT,
                    path,
                    idx + 1,
                    format!(
                        "`{name}!` compares `{side}` with itself: the assertion cannot fail — \
                         compare against the value it is meant to check"
                    ),
                );
            }
        }
    }
}

/// The assertion macro calls in one line of stripped code: the macro name
/// and the byte offset of its opening parenthesis.
fn assert_calls(code: &str) -> Vec<(&'static str, usize)> {
    let bytes = code.as_bytes();
    let mut calls = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if !is_ident_byte(bytes[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && is_ident_byte(bytes[i]) {
            i += 1;
        }
        let word = &code[start..i];
        let Some(name) = CONDITION_ASSERTS
            .iter()
            .chain(PAIR_ASSERTS)
            .find(|&&m| m == word)
        else {
            continue;
        };
        let rest = code[i..].trim_start();
        if let Some(after_bang) = rest.strip_prefix('!') {
            let after = after_bang.trim_start();
            if after.starts_with('(') {
                calls.push((*name, code.len() - after.len()));
            }
        }
    }
    calls
}

/// The text between the parenthesis at `open` on line `idx` and its match,
/// lines joined by spaces; `None` when it does not close within
/// [`MAX_ASSERT_LINES`].
fn macro_args(lines: &[crate::scanner::Line], idx: usize, open: usize) -> Option<String> {
    let mut depth = 0usize;
    let mut args = String::new();
    for (k, line) in lines.iter().enumerate().skip(idx).take(MAX_ASSERT_LINES) {
        let text = if k == idx {
            &line.code[open..]
        } else {
            &line.code
        };
        for c in text.chars() {
            match c {
                '(' | '[' | '{' => depth += 1,
                ')' | ']' | '}' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(args);
                    }
                }
                _ => {}
            }
            if depth > 1 || (depth == 1 && c != '(') {
                args.push(c);
            }
        }
        args.push(' ');
    }
    None
}

/// Splits `text` at every occurrence of one of `seps` outside brackets.
fn split_top_level(text: &str, seps: &[&str]) -> Vec<String> {
    let mut parts = Vec::new();
    let mut depth = 0i32;
    let mut current = String::new();
    let mut rest = text;
    while let Some(c) = rest.chars().next() {
        if depth == 0 {
            if let Some(sep) = seps.iter().find(|sep| rest.starts_with(**sep)) {
                parts.push(std::mem::take(&mut current));
                rest = &rest[sep.len()..];
                continue;
            }
        }
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => depth -= 1,
            _ => {}
        }
        current.push(c);
        rest = &rest[c.len_utf8()..];
    }
    parts.push(current);
    parts
}

/// For a condition clause `left OP right` with `OP` a comparison at the top
/// level, the left side when both sides are the same token sequence.
/// `<` / `>` count only when spaced, so generic arguments never split.
fn tautological_comparison(clause: &str) -> Option<String> {
    for op in ["==", "!=", "<=", ">=", " < ", " > "] {
        let sides = split_top_level(clause, &[op]);
        if let [left, right] = sides.as_slice() {
            if same_tokens(left, right) {
                return Some(left.trim().to_string());
            }
        }
    }
    None
}

/// True when both sides are the same non-empty token sequence and neither
/// holds a (blanked) literal.
fn same_tokens(left: &str, right: &str) -> bool {
    let literal = |s: &str| s.contains('"') || s.contains('\'');
    let (l, r) = (tokens(left), tokens(right));
    !l.is_empty() && l == r && !literal(left) && !literal(right)
}

/// Identifier/number runs and single punctuation characters, whitespace
/// dropped.
fn tokens(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut chars = text.char_indices().peekable();
    while let Some((start, c)) = chars.next() {
        if c.is_whitespace() {
            continue;
        }
        let mut end = start + c.len_utf8();
        if c.is_alphanumeric() || c == '_' {
            while let Some(&(i, d)) = chars.peek() {
                if !(d.is_alphanumeric() || d == '_') {
                    break;
                }
                end = i + d.len_utf8();
                chars.next();
            }
        }
        out.push(&text[start..end]);
    }
    out
}

/// Finds an indexing expression `ident[` / `)[` / `][` in stripped code
/// (1-based column), ignoring attributes (`#[…]`, `#![…]`) and type-level
/// brackets.  Slicing (`&x[a..b]`) is indexing too — it panics the same
/// way.
fn find_indexing(code: &str) -> Option<usize> {
    let bytes = code.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' || i == 0 {
            continue;
        }
        let prev = bytes[i - 1];
        let prev_ident =
            prev.is_ascii_alphanumeric() || prev == b'_' || prev == b')' || prev == b']';
        if !prev_ident {
            continue;
        }
        // `#[…]` / `#![…]` attributes never reach here (prev is `#`/`!`),
        // but `vec![` and friends would: skip a macro bang.
        if prev == b'!' {
            continue;
        }
        // Skip array-type syntax `[u8; 4]` by requiring the open bracket to
        // close on the same line without a `;` at depth 1 … too clever;
        // instead skip the common literal forms: preceded by an ident that
        // is a known macro (`vec`) with a `!`.
        if i >= 2 && bytes[i - 1] == b'!' {
            continue;
        }
        return Some(i + 1);
    }
    None
}

/// Finds a bare `as <int-type>` cast in stripped code; returns the target
/// type.  `as` into a float or a non-primitive (e.g. `as u64 as f64`
/// chains report the int leg) is out of scope.
fn find_int_cast(code: &str) -> Option<&'static str> {
    const TARGETS: &[&str] = &[
        "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
    ];
    let mut from = 0;
    while let Some(at) = code[from..].find(" as ") {
        let rest = code[from + at + 4..].trim_start();
        for t in TARGETS {
            if rest.starts_with(t) {
                let end = rest.as_bytes().get(t.len());
                let boundary = end.is_none_or(|&b| !(b.is_ascii_alphanumeric() || b == b'_'));
                if boundary {
                    return Some(t);
                }
            }
        }
        from += at + 4;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allowlist;
    use crate::scanner::scan;

    /// Runs the lexical rules over fixture `src` as if it lived at `path`.
    fn lint(path: &str, src: &str) -> Vec<Diagnostic> {
        let scanned = scan(src);
        let (mut allow, mut diags) = allowlist::parse(path, &scanned);
        check_file(path, &scanned, &mut allow, &mut diags);
        diags.extend(allow.stale(path));
        diags
    }

    #[test]
    fn scopes_are_as_documented() {
        assert!(digest_scope("crates/sim/src/runtime.rs"));
        assert!(digest_scope("crates/bench/src/scenarios.rs"));
        assert!(!digest_scope("crates/bench/src/harness.rs"));
        assert!(!digest_scope("crates/serve/src/server.rs"));
        assert!(library_scope("crates/serve/src/server.rs"));
        assert!(library_scope("crates/bench/src/bin/scenarios.rs"));
        assert!(!library_scope("crates/bench/benches/bench_substrate.rs"));
        assert!(!library_scope("tests/wire_roundtrip.rs"));
        assert!(codec_scope("crates/sim/src/wire.rs"));
        assert!(codec_scope("crates/serve/src/proto.rs"));
        assert!(!codec_scope("crates/sim/src/runtime.rs"));
        assert!(is_compilation_root("crates/sim/src/lib.rs"));
        assert!(is_compilation_root("crates/bench/src/bin/scenarios.rs"));
        assert!(is_compilation_root(
            "crates/bench/benches/bench_substrate.rs"
        ));
        assert!(is_compilation_root("vendor/proptest/src/lib.rs"));
        assert!(!is_compilation_root("crates/sim/src/wire.rs"));
        assert!(!is_compilation_root("tests/wire_roundtrip.rs"));
    }

    // ---- hash-iteration --------------------------------------------------

    #[test]
    fn hash_containers_in_digest_scope_are_flagged() {
        let diags = lint(
            "crates/sim/src/fake.rs",
            "use std::collections::HashMap;\nlet s: HashSet<u32> = HashSet::new();\n",
        );
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.rule == HASH_ITERATION));
        assert_eq!(diags[0].line, 1);
        assert_eq!(diags[1].line, 2);
    }

    #[test]
    fn hash_containers_outside_digest_scope_pass() {
        assert!(lint(
            "crates/serve/src/fake.rs",
            "use std::collections::HashMap;\n"
        )
        .is_empty());
    }

    #[test]
    fn btree_containers_pass_everywhere() {
        assert!(lint(
            "crates/sim/src/fake.rs",
            "use std::collections::{BTreeMap, BTreeSet};\n"
        )
        .is_empty());
    }

    #[test]
    fn allowlisted_hash_use_passes_and_mentions_in_comments_dont_trip() {
        let diags = lint(
            "crates/sim/src/fake.rs",
            "// a HashSet<Port> per node would allocate\n\
             // lint: allow(hash-iteration) — membership-only, never iterated\n\
             let mut seen = std::collections::HashSet::new();\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    // ---- wall-clock / ambient-input --------------------------------------

    #[test]
    fn wall_clock_in_library_code_is_flagged_with_file_line() {
        let diags = lint(
            "crates/graph/src/fake.rs",
            "fn f() {\n    let t = std::time::Instant::now();\n}\n",
        );
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, WALL_CLOCK);
        assert_eq!(
            (diags[0].path.as_str(), diags[0].line),
            ("crates/graph/src/fake.rs", 2)
        );
    }

    #[test]
    fn system_time_and_env_reads_are_flagged() {
        let diags = lint(
            "crates/serve/src/fake.rs",
            "let t = SystemTime::now();\nlet v = std::env::var(\"X\");\nlet id = std::thread::current().id();\n",
        );
        assert_eq!(diags.len(), 3);
        assert_eq!(diags[0].rule, WALL_CLOCK);
        assert_eq!(diags[1].rule, AMBIENT_INPUT);
        assert_eq!(diags[2].rule, AMBIENT_INPUT);
    }

    #[test]
    fn wall_clock_in_tests_and_benches_passes() {
        assert!(lint(
            "crates/graph/src/fake.rs",
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::time::Instant;\n}\n"
        )
        .is_empty());
        assert!(lint(
            "crates/bench/benches/fake.rs",
            "#![forbid(unsafe_code)]\nuse std::time::Instant;\n"
        )
        .is_empty());
    }

    // ---- codec-panic / codec-cast ----------------------------------------

    #[test]
    fn panic_idioms_in_codec_files_are_flagged() {
        let src = "fn f(x: Option<u8>) {\n\
                   let a = x.unwrap();\n\
                   let b = x.expect(\"msg\");\n\
                   panic!(\"boom\");\n\
                   assert!(true);\n\
                   }\n";
        let diags = lint("crates/serve/src/proto.rs", src);
        assert_eq!(diags.len(), 4);
        assert!(diags.iter().all(|d| d.rule == CODEC_PANIC));
        assert_eq!(
            diags.iter().map(|d| d.line).collect::<Vec<_>>(),
            vec![2, 3, 4, 5]
        );
    }

    #[test]
    fn indexing_in_codec_files_is_flagged_but_attributes_pass() {
        let diags = lint(
            "crates/sim/src/wire.rs",
            "#[derive(Debug)]\nstruct R;\nfn f(b: &[u8], i: usize) -> u8 {\n    b[i]\n}\n",
        );
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, CODEC_PANIC);
        assert_eq!(diags[0].line, 4);
        // Macro bangs and array types are not indexing.
        assert!(lint(
            "crates/sim/src/wire.rs",
            "fn g() { let v = vec![0u8; 4]; let a: [u8; 4] = Default::default(); drop((v, a)); }\n"
        )
        .is_empty());
    }

    #[test]
    fn int_casts_in_codec_files_are_flagged_but_from_passes() {
        let diags = lint(
            "crates/serve/src/proto.rs",
            "fn f(x: u64) -> u8 { x as u8 }\nfn g(x: u32) -> u64 { u64::from(x) }\n",
        );
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, CODEC_CAST);
        assert_eq!(diags[0].line, 1);
        // Same idiom outside the codec files is out of scope.
        assert!(lint(
            "crates/sim/src/runtime.rs",
            "fn f(x: u64) -> u8 { x as u8 }\n"
        )
        .is_empty());
    }

    #[test]
    fn allowlisted_codec_exceptions_pass() {
        let src = "fn f(x: u64) -> u8 {\n\
                   // lint: allow(codec-cast) — masked to 7 bits; cannot truncate\n\
                   (x & 0x7f) as u8\n\
                   }\n";
        assert!(lint("crates/sim/src/wire.rs", src).is_empty());
    }

    // ---- unsafe-code ------------------------------------------------------

    #[test]
    fn unsafe_token_is_flagged_everywhere() {
        let diags = lint(
            "crates/bench/benches/fake.rs",
            "#![forbid(unsafe_code)]\nunsafe fn f() {}\n",
        );
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, UNSAFE_CODE);
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn missing_forbid_on_a_root_is_flagged_at_line_one() {
        let diags = lint("crates/sim/src/lib.rs", "pub mod x;\n");
        assert_eq!(diags.len(), 1);
        assert_eq!((diags[0].rule, diags[0].line), (UNSAFE_CODE, 1));
    }

    #[test]
    fn file_scope_unsafe_pragma_covers_root_and_tokens() {
        let src = "// lint: allow-file(unsafe-code) — counting allocator needs GlobalAlloc\n\
                   unsafe impl G for A {\n\
                   unsafe fn alloc(&self) {}\n\
                   }\n";
        assert!(lint("crates/bench/benches/fake.rs", src).is_empty());
    }

    #[test]
    fn forbid_root_passes_and_unsafe_code_token_is_not_confused() {
        assert!(lint(
            "crates/sim/src/lib.rs",
            "#![forbid(unsafe_code)]\npub mod x;\n"
        )
        .is_empty());
    }

    // ---- tautological-assert ---------------------------------------------

    #[test]
    fn self_comparisons_in_assertions_are_flagged_in_tests_too() {
        let diags = lint(
            "tests/fake.rs",
            "fn t() {\n    assert!(m.iter().max() <= m.iter().max());\n    assert_eq!(a.len(), a . len(), \"msg\");\n}\n",
        );
        assert_eq!(
            diags.iter().map(|d| (d.rule, d.line)).collect::<Vec<_>>(),
            vec![(TAUTOLOGICAL_ASSERT, 2), (TAUTOLOGICAL_ASSERT, 3)]
        );
        let diags = lint(
            "crates/sim/src/fake.rs",
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() { debug_assert!(\n        ok && x.y(1) != x.y(1),\n    ); }\n}\n",
        );
        assert_eq!(
            diags.iter().map(|d| (d.rule, d.line)).collect::<Vec<_>>(),
            vec![(TAUTOLOGICAL_ASSERT, 4)]
        );
    }

    #[test]
    fn real_comparisons_literals_and_generics_pass() {
        assert!(lint(
            "tests/fake.rs",
            "fn t() {\n\
             assert!(m.iter().all(|&x| x == m[0]));\n\
             assert!(a <= b, \"{a} <= {a}\");\n\
             assert_eq!(\"left\", \"right\");\n\
             assert!(Vec::<u8>::new() == Vec::<u8>::new_in(x));\n\
             assert!(x.is_empty());\n\
             }\n"
        )
        .is_empty());
    }

    #[test]
    fn split_and_tokens_respect_brackets() {
        assert_eq!(split_top_level("f(a, b), c", &[","]), vec!["f(a, b)", " c"]);
        assert_eq!(tokens("a.len( )"), vec!["a", ".", "len", "(", ")"]);
        assert_eq!(
            tautological_comparison("x + 1 == x+1"),
            Some("x + 1".into())
        );
        assert_eq!(tautological_comparison("f(a == a)"), None);
    }

    // ---- pragma hygiene ----------------------------------------------------

    #[test]
    fn pragma_without_reason_is_the_only_finding() {
        let diags = lint(
            "crates/sim/src/fake.rs",
            "// lint: allow(hash-iteration)\nuse std::collections::HashMap;\n",
        );
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, PRAGMA_REASON);
    }

    #[test]
    fn stale_pragma_is_flagged() {
        let diags = lint(
            "crates/sim/src/fake.rs",
            "// lint: allow(hash-iteration) — nothing here uses one\nlet x = 1;\n",
        );
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, PRAGMA_UNUSED);
    }
}

//! Line-oriented Rust source scanner: separates *code* from *comments* and
//! blanks out literal contents, so the lexical rules can match tokens
//! without being fooled by doc prose, string payloads or char literals.
//!
//! This is not a parser.  It is a small state machine with exactly the
//! lexical smarts the rules need:
//!
//! * line (`//`) and nested block (`/* */`) comments are routed to the
//!   line's `comment` text (where allowlist pragmas live);
//! * string (`"…"`, `r#"…"#`, `b"…"`) and char (`'x'`) literal *contents*
//!   are blanked out of the code text (the delimiters stay, so tokens on
//!   either side cannot merge);
//! * lifetimes (`'a`) are distinguished from char literals by lookahead;
//! * the first top-level `#[cfg(test)]` marks the start of the file's test
//!   region — by workspace convention test modules are the final item of a
//!   file, and rules do not apply to test code.

/// One scanned source line.
#[derive(Debug, Clone, Default)]
pub struct Line {
    /// The line's code with comments removed and literal contents blanked.
    pub code: String,
    /// The concatenated comment text of the line (without `//` / `/*`).
    pub comment: String,
}

/// A scanned source file.
#[derive(Debug, Clone)]
pub struct Scanned {
    /// Scanned lines, index 0 = line 1.
    pub lines: Vec<Line>,
    /// 1-based line of the first `#[cfg(test)]` attribute, if any.
    pub test_start: Option<usize>,
}

impl Scanned {
    /// True when 1-based `line` is at or past the file's test region.
    #[must_use]
    pub fn in_tests(&self, line: usize) -> bool {
        self.test_start.is_some_and(|t| line >= t)
    }
}

/// True when `text` contains `token` as a whole identifier (not embedded in
/// a longer identifier on either side).
#[must_use]
pub fn has_token(text: &str, token: &str) -> bool {
    let bytes = text.as_bytes();
    let mut from = 0;
    while let Some(at) = text[from..].find(token) {
        let start = from + at;
        let end = start + token.len();
        let ok_before = start == 0 || !is_ident_byte(bytes[start - 1]);
        let ok_after = end == bytes.len() || !is_ident_byte(bytes[end]);
        if ok_before && ok_after {
            return true;
        }
        from = start + 1;
    }
    false
}

/// True for the bytes of an ASCII identifier.
pub(crate) fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Code,
    /// Inside `/* … */`, with the current nesting depth.
    Block(u32),
    Str,
    /// Inside a raw string closed by `"` + this many `#`s.
    RawStr(u32),
    Char,
}

/// Scans one source file (see the module docs for what is recognised).
#[must_use]
pub fn scan(text: &str) -> Scanned {
    let mut lines = Vec::new();
    let mut test_start = None;
    let mut state = State::Code;

    for (idx, raw) in text.lines().enumerate() {
        let mut line = Line::default();
        let bytes = raw.as_bytes();
        let mut i = 0;

        while i < bytes.len() {
            let b = bytes[i];
            match state {
                State::Code => match b {
                    b'/' if bytes.get(i + 1) == Some(&b'/') => {
                        // Line comment (incl. doc comments): rest of line.
                        let mut text = &raw[i + 2..];
                        text = text
                            .strip_prefix('/')
                            .or_else(|| text.strip_prefix('!'))
                            .unwrap_or(text);
                        line.comment.push_str(text.trim());
                        i = bytes.len();
                    }
                    b'/' if bytes.get(i + 1) == Some(&b'*') => {
                        state = State::Block(1);
                        i += 2;
                    }
                    b'"' => {
                        line.code.push('"');
                        state = State::Str;
                        i += 1;
                    }
                    b'r' | b'b' if is_raw_string_start(bytes, i) => {
                        // `r"`, `r#"`, `br#"` …: count the hashes.
                        let mut j = i + 1;
                        if bytes.get(j) == Some(&b'r') {
                            j += 1;
                        }
                        let mut hashes = 0u32;
                        while bytes.get(j) == Some(&b'#') {
                            hashes += 1;
                            j += 1;
                        }
                        line.code.push('"');
                        state = State::RawStr(hashes);
                        i = j + 1;
                    }
                    b'\'' => {
                        // Char literal vs lifetime: a backslash or a closing
                        // quote shortly after means a literal.
                        if is_char_literal(bytes, i) {
                            line.code.push('\'');
                            state = State::Char;
                        } else {
                            line.code.push('\'');
                        }
                        i += 1;
                    }
                    _ => {
                        line.code.push(b as char);
                        i += 1;
                    }
                },
                State::Block(depth) => {
                    if b == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        state = if depth == 1 {
                            State::Code
                        } else {
                            State::Block(depth - 1)
                        };
                        i += 2;
                    } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        state = State::Block(depth + 1);
                        i += 2;
                    } else {
                        line.comment.push(b as char);
                        i += 1;
                    }
                }
                State::Str => match b {
                    b'\\' => i += 2,
                    b'"' => {
                        line.code.push('"');
                        state = State::Code;
                        i += 1;
                    }
                    _ => i += 1,
                },
                State::RawStr(hashes) => {
                    if b == b'"' && raw_close(bytes, i, hashes) {
                        line.code.push('"');
                        state = State::Code;
                        i += 1 + hashes as usize;
                    } else {
                        i += 1;
                    }
                }
                State::Char => match b {
                    b'\\' => i += 2,
                    b'\'' => {
                        line.code.push('\'');
                        state = State::Code;
                        i += 1;
                    }
                    _ => i += 1,
                },
            }
        }
        // A string may legitimately span lines; chars and line comments
        // cannot.  Reset char state defensively at end of line.
        if state == State::Char {
            state = State::Code;
        }

        if test_start.is_none() && line.code.trim() == "#[cfg(test)]" {
            test_start = Some(idx + 1);
        }
        lines.push(line);
    }

    Scanned { lines, test_start }
}

/// `r"`, `r#…#"`, `b"`, `br#…#"` at position `i`, preceded by a
/// non-identifier byte (so `var"` inside an identifier does not trigger).
fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    if i > 0 && is_ident_byte(bytes[i - 1]) {
        return false;
    }
    let mut j = i + 1;
    if bytes[i] == b'b' && bytes.get(j) == Some(&b'r') {
        j += 1;
    } else if bytes[i] == b'b' && bytes.get(j) == Some(&b'"') {
        return true; // plain byte string `b"…"`
    } else if bytes[i] != b'r' {
        return false;
    }
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    bytes.get(j) == Some(&b'"')
}

/// Distinguishes `'x'` / `'\n'` (char literal) from `'a` (lifetime).
fn is_char_literal(bytes: &[u8], i: usize) -> bool {
    match bytes.get(i + 1) {
        Some(b'\\') => true,
        Some(_) => bytes.get(i + 2) == Some(&b'\''),
        None => false,
    }
}

/// True when the `"` at `i` is followed by exactly `hashes` `#`s.
fn raw_close(bytes: &[u8], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| bytes.get(i + k) == Some(&b'#'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_comments_are_routed_to_comment_text() {
        let s = scan("let x = 1; // lint: allow(rule) — why\n");
        assert_eq!(s.lines[0].code.trim(), "let x = 1;");
        assert_eq!(s.lines[0].comment, "lint: allow(rule) — why");
    }

    #[test]
    fn string_contents_are_blanked() {
        let s = scan("let s = \"HashMap unwrap Instant\";\n");
        assert!(!has_token(&s.lines[0].code, "HashMap"));
        assert!(!has_token(&s.lines[0].code, "unwrap"));
        // Delimiters survive so neighbours cannot merge.
        assert!(s.lines[0].code.contains("\"\""));
    }

    #[test]
    fn raw_strings_and_escapes_are_blanked() {
        let s = scan(
            "let s = r#\"a \"quoted\" HashMap\"#; let t = \"\\\"Instant\";\nlet u = SystemTime;\n",
        );
        assert!(!has_token(&s.lines[0].code, "HashMap"));
        assert!(!has_token(&s.lines[0].code, "Instant"));
        assert!(has_token(&s.lines[1].code, "SystemTime"));
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let s = scan("a /* c1 /* nested */ still */ b\n/* open\nHashMap inside\n*/ code\n");
        assert_eq!(s.lines[0].code.replace(' ', ""), "ab");
        assert!(!has_token(&s.lines[2].code, "HashMap"));
        assert!(s.lines[2].comment.contains("HashMap"));
        assert_eq!(s.lines[3].code.trim(), "code");
    }

    #[test]
    fn char_literals_blank_but_lifetimes_keep_code() {
        let s = scan("fn f<'a>(x: &'a str) { let c = 'H'; let n = '\\n'; }\n");
        assert!(has_token(&s.lines[0].code, "str"));
        assert!(!s.lines[0].code.contains('H'));
    }

    #[test]
    fn multiline_strings_stay_blanked() {
        let s = scan("let s = \"line one\nHashMap line two\";\nlet x = HashMap::new();\n");
        assert!(!has_token(&s.lines[1].code, "HashMap"));
        assert!(has_token(&s.lines[2].code, "HashMap"));
    }

    #[test]
    fn cfg_test_marks_the_test_region() {
        let s = scan("fn a() {}\n#[cfg(test)]\nmod tests {}\n");
        assert_eq!(s.test_start, Some(2));
        assert!(!s.in_tests(1));
        assert!(s.in_tests(2));
        assert!(s.in_tests(3));
    }

    #[test]
    fn cfg_test_inside_a_string_does_not_mark() {
        let s = scan("let s = \"#[cfg(test)]\";\n");
        assert_eq!(s.test_start, None);
    }

    #[test]
    fn token_boundaries_are_respected() {
        assert!(has_token("use std::collections::HashMap;", "HashMap"));
        assert!(!has_token("forbid(unsafe_code)", "unsafe"));
        assert!(!has_token("MyHashMapLike", "HashMap"));
        assert!(has_token("x.unwrap()", "unwrap"));
        assert!(!has_token("unwrap_or(0)", "unwrap"));
    }
}

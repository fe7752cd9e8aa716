//! The original line-oriented lint scanner, **frozen** as a parity
//! reference for the lexer-based framework that replaced it.
//!
//! The `tests/static_analysis.rs` goldens prove that the five ported
//! passes (`panic-family`, `wall-clock`, `obs`, `direct-index`,
//! `msg-clone`) reproduce this scanner's findings on the frozen fixture
//! tree under `tests/fixtures/static_analysis/`. It lives under `tests/`
//! as a test oracle only, and is not part of any library. Do not extend
//! it — new rules belong in `rrfd_analyze::passes`.
//!
//! Known limitations the lexer framework fixes: raw strings are not
//! understood, `#[cfg(test)]` detection is substring-based, fences were
//! hard-coded crate-name arrays (now `Cargo.toml` metadata, see
//! `workspace`), and findings were addressed by line number only (now
//! span-fingerprinted, see `passes`).

use std::fmt;

/// Which legacy lint fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintKind {
    /// `.unwrap()` / `.expect(` / `panic!` in library code.
    PanicFamily,
    /// `Instant::now` / `SystemTime::now` in a deterministic crate.
    WallClock,
    /// `received[` — direct indexing past the suspicion check.
    DirectIndex,
    /// `Instant::now` / `SystemTime::now` in an instrumented crate.
    ObsClock,
    /// `msg.clone()` (or `messages[` + `.clone()` on one line) in a
    /// message-plane crate.
    MsgClone,
}

impl LintKind {
    /// The name used in reports; identical to the framework pass names.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LintKind::PanicFamily => "panic-family",
            LintKind::WallClock => "wall-clock",
            LintKind::DirectIndex => "direct-index",
            LintKind::ObsClock => "obs",
            LintKind::MsgClone => "msg-clone",
        }
    }
}

impl fmt::Display for LintKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One raw legacy finding.
#[derive(Debug, Clone)]
pub struct LintFinding {
    /// Which lint fired.
    pub kind: LintKind,
    /// Path relative to the workspace root, `/`-separated.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
}

/// The fence lists the legacy scanner hard-coded (the framework reads
/// these from `Cargo.toml` metadata instead).
const DETERMINISTIC_CRATES: &[&str] = &["rrfd-core", "rrfd-models", "rrfd-sims", "rrfd-protocols"];
const INSTRUMENTED_CRATES: &[&str] = &["rrfd-runtime", "rrfd-obs", "rrfd-engine-pool"];
const MESSAGE_PLANE_CRATES: &[&str] =
    &["rrfd-core", "rrfd-runtime", "rrfd-sims", "rrfd-engine-pool"];

/// Scans one file's text with the frozen line-oriented matcher.
pub fn scan_file(crate_name: &str, rel_path: &str, text: &str, out: &mut Vec<LintFinding>) {
    let wall_clock_applies = DETERMINISTIC_CRATES.contains(&crate_name);
    let obs_clock_applies = INSTRUMENTED_CRATES.contains(&crate_name);
    let msg_clone_applies = MESSAGE_PLANE_CRATES.contains(&crate_name);
    let mut strip = StripState::default();
    // Once a `#[cfg(test)]` attribute is seen, skip from its first `{`
    // until the brace depth returns to zero.
    let mut pending_test_attr = false;
    let mut test_depth = 0usize;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let code = strip_noncode(raw, &mut strip);
        if code.contains("#[cfg(test)]") {
            pending_test_attr = true;
        }
        if pending_test_attr || test_depth > 0 {
            let opens = code.matches('{').count();
            let closes = code.matches('}').count();
            if pending_test_attr && opens > 0 {
                pending_test_attr = false;
                test_depth = opens;
                test_depth = test_depth.saturating_sub(closes);
            } else if test_depth > 0 {
                test_depth += opens;
                test_depth = test_depth.saturating_sub(closes);
            }
            continue;
        }
        let mut hit = |kind: LintKind| {
            out.push(LintFinding {
                kind,
                path: rel_path.to_owned(),
                line: line_no,
            });
        };
        if code.contains(".unwrap()") || code.contains(".expect(") || code.contains("panic!") {
            hit(LintKind::PanicFamily);
        }
        let reads_clock = code.contains("Instant::now") || code.contains("SystemTime::now");
        if wall_clock_applies && reads_clock {
            hit(LintKind::WallClock);
        }
        if obs_clock_applies && reads_clock {
            hit(LintKind::ObsClock);
        }
        if code.contains("received[") {
            hit(LintKind::DirectIndex);
        }
        if msg_clone_applies
            && (code.contains("msg.clone()")
                || (code.contains("messages[") && code.contains(".clone()")))
        {
            hit(LintKind::MsgClone);
        }
    }
}

/// Scanner state carried across physical lines.
#[derive(Default)]
struct StripState {
    block_depth: usize,
    in_string: bool,
}

/// Removes block comments, line comments, string and char literals from
/// a line, tracking comment nesting and open strings across lines.
fn strip_noncode(line: &str, state: &mut StripState) -> String {
    let mut out = String::with_capacity(line.len());
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if state.in_string {
            match bytes[i] {
                b'\\' => i += 2,
                b'"' => {
                    state.in_string = false;
                    i += 1;
                }
                _ => i += 1,
            }
            continue;
        }
        if state.block_depth > 0 {
            if bytes[i..].starts_with(b"*/") {
                state.block_depth -= 1;
                i += 2;
            } else if bytes[i..].starts_with(b"/*") {
                state.block_depth += 1;
                i += 2;
            } else {
                i += 1;
            }
            continue;
        }
        if bytes[i..].starts_with(b"//") {
            break; // line comment: rest of the line is not code
        }
        if bytes[i..].starts_with(b"/*") {
            state.block_depth += 1;
            i += 2;
            continue;
        }
        match bytes[i] {
            b'"' => {
                state.in_string = true;
                i += 1;
            }
            b'\'' => {
                // Char literal ('x', '\n', '\'') vs lifetime ('a in `&'a`).
                let rest = &bytes[i + 1..];
                let close = if rest.first() == Some(&b'\\') {
                    rest.iter().skip(1).position(|&b| b == b'\'').map(|p| p + 1)
                } else {
                    (rest.get(1) == Some(&b'\'')).then_some(1)
                };
                match close {
                    Some(offset) => i += offset + 2, // skip the whole literal
                    None => {
                        out.push('\''); // lifetime: keep and move on
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b as char);
                i += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(text: &str) -> Vec<LintFinding> {
        let mut out = Vec::new();
        scan_file("rrfd-core", "crates/rrfd-core/src/x.rs", text, &mut out);
        out
    }

    #[test]
    fn flags_the_panic_family() {
        let found = scan(
            "fn f() {\n    let x = y.unwrap();\n    z.expect(\"boom\");\n    panic!(\"no\");\n}\n",
        );
        assert_eq!(found.len(), 3);
        assert!(found.iter().all(|f| f.kind == LintKind::PanicFamily));
        assert_eq!(found[0].line, 2);
    }

    #[test]
    fn comments_and_strings_are_not_code() {
        let found = scan(
            "// a.unwrap() in a comment\n\
             /* panic!(\"nope\") */\n\
             let s = \".unwrap()\";\n\
             /// docs may say panic! freely\n",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn test_modules_are_exempt() {
        let found = scan(
            "fn lib() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn t() { x.unwrap(); }\n\
             }\n\
             fn after() { y.unwrap(); }\n",
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 6);
    }
}

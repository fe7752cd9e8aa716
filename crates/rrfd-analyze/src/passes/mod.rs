//! The pluggable pass API of the syntax-aware lint framework, and the
//! registry of the eight passes that ship with it.
//!
//! A pass consumes lexed, scope-parsed [`SourceFile`]s (see `syntax`)
//! and emits [`Finding`]s. File-local passes do all their work in
//! [`Pass::visit`]; whole-workspace passes (the lock-order deadlock
//! detector) accumulate state across files and emit from
//! [`Pass::finish`]. Crate fences — which pass applies to which crate —
//! come from `Cargo.toml` metadata (see `workspace`), never from code.
//!
//! Every finding carries a **span fingerprint**: a 64-bit FNV-1a hash
//! of `(pass, path, normalized token text of the finding's line,
//! occurrence index)`. Line numbers are deliberately excluded, so a
//! fingerprint is stable when unrelated lines are inserted or deleted
//! above it, and changes exactly when the flagged code itself changes.
//! `lint.allow` pins findings by fingerprint (see `lint`).
//!
//! Writing a new pass (also in the README):
//! 1. add a module here implementing [`Pass`],
//! 2. register it in [`registry`],
//! 3. gate it on a [`Fence`](crate::workspace::Fence) (add one if none
//!    fits) rather than a hard-coded crate list,
//! 4. seed a fixture under `tests/fixtures/static_analysis/` proving
//!    it fires, and extend the `--expect-findings` list in CI.

mod lock_order;
mod round_closure;
mod span_guard;
mod token_lints;

use crate::syntax::SourceFile;
use std::fmt;

pub use lock_order::LockOrder;
pub use round_closure::RoundClosure;
pub use span_guard::SpanGuard;
pub use token_lints::{DirectIndex, MsgClone, ObsClock, PanicFamily, WallClock};

/// A finding as a pass reports it — location and message, before the
/// framework assigns the occurrence-indexed fingerprint.
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// Name of the pass that fired.
    pub pass: &'static str,
    /// Workspace-relative `/`-separated path.
    pub path: String,
    /// 1-based line of the finding.
    pub line: usize,
    /// 1-based byte column of the finding.
    pub col: usize,
    /// What is wrong, in one sentence.
    pub message: String,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

/// A finalized finding: a [`RawFinding`] plus its span fingerprint.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Name of the pass that fired.
    pub pass: &'static str,
    /// Workspace-relative `/`-separated path.
    pub path: String,
    /// 1-based line of the finding.
    pub line: usize,
    /// 1-based byte column of the finding.
    pub col: usize,
    /// What is wrong, in one sentence.
    pub message: String,
    /// The offending source line, trimmed.
    pub excerpt: String,
    /// `fp:` + 16 hex digits — stable under unrelated line shifts.
    pub fingerprint: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{} {}] {}: {}",
            self.path, self.line, self.col, self.pass, self.fingerprint, self.message, self.excerpt
        )
    }
}

/// A static-analysis pass over lexed source files.
pub trait Pass {
    /// The pass name used in reports, `lint.allow` and `--expect-findings`.
    fn name(&self) -> &'static str;
    /// One-line description for `--help`-style listings.
    fn description(&self) -> &'static str;
    /// Examines one file. Files arrive sorted by path.
    fn visit(&mut self, file: &SourceFile, out: &mut Vec<RawFinding>);
    /// Called once after every file has been visited; cross-file passes
    /// emit their findings here.
    fn finish(&mut self, out: &mut Vec<RawFinding>) {
        let _ = out;
    }
}

/// The eight passes of the framework, in reporting order.
#[must_use]
pub fn registry() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(PanicFamily),
        Box::new(WallClock),
        Box::new(ObsClock),
        Box::new(DirectIndex),
        Box::new(MsgClone),
        Box::new(RoundClosure),
        Box::new(SpanGuard),
        Box::new(LockOrder::default()),
    ]
}

/// Names of every registered pass, for allowlist validation.
#[must_use]
pub fn pass_names() -> Vec<&'static str> {
    registry().iter().map(|p| p.name()).collect()
}

/// Runs every registered pass over `files`, dedupes identical findings
/// on one line, and assigns span fingerprints.
#[must_use]
pub fn run_all(files: &[SourceFile]) -> Vec<Finding> {
    let mut passes = registry();
    let mut raw = Vec::new();
    for pass in &mut passes {
        for file in files {
            pass.visit(file, &mut raw);
        }
        pass.finish(&mut raw);
    }
    finalize(files, raw)
}

/// Dedupes and fingerprints raw findings. The normalized line text used
/// in the fingerprint is the whitespace-collapsed source line, so
/// reformatting *within* the line changes the fingerprint (the code
/// changed) but moving the line does not.
#[must_use]
pub fn finalize(files: &[SourceFile], mut raw: Vec<RawFinding>) -> Vec<Finding> {
    raw.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.pass, a.message.as_str()).cmp(&(
            b.path.as_str(),
            b.line,
            b.col,
            b.pass,
            b.message.as_str(),
        ))
    });
    raw.dedup_by(|a, b| a.pass == b.pass && a.path == b.path && a.line == b.line);
    let mut out: Vec<Finding> = Vec::with_capacity(raw.len());
    for f in raw {
        let normalized = normalize_line(files, &f);
        let occurrence = out
            .iter()
            .filter(|prev| {
                prev.pass == f.pass
                    && prev.path == f.path
                    && normalize_excerpt(&prev.excerpt) == normalized
            })
            .count();
        let fingerprint = fingerprint(f.pass, &f.path, &normalized, occurrence);
        out.push(Finding {
            pass: f.pass,
            path: f.path,
            line: f.line,
            col: f.col,
            message: f.message,
            excerpt: f.excerpt,
            fingerprint,
        });
    }
    out
}

fn normalize_line(files: &[SourceFile], f: &RawFinding) -> String {
    files.iter().find(|s| s.path == f.path).map_or_else(
        || normalize_excerpt(&f.excerpt),
        |s| normalize_excerpt(s.line_text(f.line)),
    )
}

fn normalize_excerpt(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Computes the `fp:`-prefixed span fingerprint (FNV-1a 64).
#[must_use]
pub fn fingerprint(pass: &str, path: &str, normalized_line: &str, occurrence: usize) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(pass.as_bytes());
    mix(b"\0");
    mix(path.as_bytes());
    mix(b"\0");
    mix(normalized_line.as_bytes());
    mix(b"\0");
    mix(occurrence.to_string().as_bytes());
    format!("fp:{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::SourceFile;
    use crate::workspace::Fence;

    fn file(crate_name: &str, path: &str, fences: &[Fence], src: &str) -> SourceFile {
        SourceFile::parse(crate_name, path, fences, src.to_owned())
    }

    #[test]
    fn fingerprints_survive_unrelated_line_shifts() {
        let before = file("rrfd-core", "a.rs", &[], "fn f() {\n    x.unwrap();\n}\n");
        let after = file(
            "rrfd-core",
            "a.rs",
            &[],
            "// new comment\nfn g() {}\n\nfn f() {\n    x.unwrap();\n}\n",
        );
        let f1 = run_all(&[before]);
        let f2 = run_all(&[after]);
        assert_eq!(f1.len(), 1);
        assert_eq!(f2.len(), 1);
        assert_ne!(f1[0].line, f2[0].line);
        assert_eq!(f1[0].fingerprint, f2[0].fingerprint);
    }

    #[test]
    fn identical_lines_get_distinct_fingerprints() {
        let src = "fn f() {\n    x.unwrap();\n    x.unwrap();\n}\n";
        let findings = run_all(&[file("rrfd-core", "a.rs", &[], src)]);
        assert_eq!(findings.len(), 2);
        assert_ne!(findings[0].fingerprint, findings[1].fingerprint);
    }

    #[test]
    fn changing_the_flagged_line_changes_the_fingerprint() {
        let f1 = run_all(&[file("c", "a.rs", &[], "fn f() { x.unwrap(); }\n")]);
        let f2 = run_all(&[file("c", "a.rs", &[], "fn f() { y.unwrap(); }\n")]);
        assert_ne!(f1[0].fingerprint, f2[0].fingerprint);
    }

    #[test]
    fn one_line_reports_one_finding_per_pass() {
        // Two triggers of the same pass on one line collapse, matching
        // the legacy per-line scanner's counting.
        let findings = run_all(&[file(
            "c",
            "a.rs",
            &[],
            "fn f() { x.unwrap(); y.unwrap(); }\n",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
    }
}

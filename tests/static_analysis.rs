//! End-to-end tests for the syntax-aware static-analysis framework:
//!
//! * the seeded fixture tree under `tests/fixtures/static_analysis/`
//!   fires all nine passes (and the unfenced fixture crate fires none
//!   of the fence-gated ones);
//! * the five lexer-ported lints reproduce the frozen line-oriented
//!   scanner (`oracles/legacy_lint.rs`) finding-for-finding on that tree;
//! * span fingerprints survive unrelated line insertions and expire
//!   when the flagged code changes;
//! * the allowlist lifecycle: malformed entries are parse errors, stale
//!   entries are ratchet notices, and notices fail under `--strict`;
//! * the real workspace plus `lint.allow` is clean under `--strict`.

#[path = "oracles/legacy_lint.rs"]
mod legacy;

use rrfd_analyze::lint::{self, AllowSpec, Allowance};
use rrfd_analyze::passes::{self, Finding};
use rrfd_analyze::syntax::SourceFile;
use rrfd_analyze::workspace::{self, Fence};
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn fixture_root() -> PathBuf {
    repo_root().join("tests/fixtures/static_analysis")
}

fn scan_fixtures() -> Vec<Finding> {
    lint::scan_root(&fixture_root()).expect("fixture tree scans")
}

const ALL_PASSES: &[&str] = &[
    "panic-family",
    "wall-clock",
    "obs",
    "direct-index",
    "msg-clone",
    "round-closure",
    "span-guard",
    "dyn-in-hot-loop",
    "lock-order",
];

#[test]
fn fixture_tree_fires_every_pass() {
    let findings = scan_fixtures();
    for pass in ALL_PASSES {
        assert!(
            findings.iter().any(|f| f.pass == *pass),
            "pass {pass} fired nothing on the seeded fixtures:\n{findings:#?}"
        );
    }
}

#[test]
fn unfenced_fixture_crate_is_silent() {
    // fixture-plain contains HashMap, Instant::now and msg.clone() —
    // the same constructs flagged in the fenced fixtures — but carries
    // no fences, so nothing may fire there.
    let findings = scan_fixtures();
    let plain: Vec<_> = findings
        .iter()
        .filter(|f| f.path.contains("fixture-plain"))
        .collect();
    assert!(plain.is_empty(), "unfenced crate was flagged: {plain:#?}");
}

#[test]
fn lock_order_reports_the_seeded_cycle() {
    let findings = scan_fixtures();
    let cycles: Vec<_> = findings.iter().filter(|f| f.pass == "lock-order").collect();
    assert_eq!(cycles.len(), 1, "{cycles:#?}");
    assert!(cycles[0].message.contains("alpha"), "{}", cycles[0].message);
    assert!(cycles[0].message.contains("beta"), "{}", cycles[0].message);
}

/// The legacy crate-name fences, mapped onto the fixture crates so the
/// frozen scanner applies the same rules the framework derives from
/// `Cargo.toml` metadata.
fn legacy_alias(crate_name: &str) -> &'static str {
    match crate_name {
        "fixture-protocols" => "rrfd-protocols", // deterministic
        "fixture-runtime" => "rrfd-runtime",     // instrumented + message-plane
        _ => "fixture-plain",                    // unfenced either way
    }
}

#[test]
fn ported_lints_reproduce_the_legacy_scanner_on_the_fixture_tree() {
    let root = fixture_root();
    let crates = workspace::discover(&root).expect("fixture crates discover");
    let files = workspace::load_files(&root, &crates).expect("fixture files load");

    let legacy_pass_names = [
        "panic-family",
        "wall-clock",
        "obs",
        "direct-index",
        "msg-clone",
    ];
    let mut framework: Vec<(String, String, usize)> = passes::run_all(&files)
        .into_iter()
        .filter(|f| legacy_pass_names.contains(&f.pass))
        .map(|f| (f.pass.to_owned(), f.path, f.line))
        .collect();
    framework.sort();

    let mut legacy_findings = Vec::new();
    for info in &crates {
        let src_dir = info.dir.join("src");
        for entry in std::fs::read_dir(&src_dir).expect("src dir") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).expect("fixture source");
                let rel = workspace::relative_display(&root, &path);
                legacy::scan_file(legacy_alias(&info.name), &rel, &text, &mut legacy_findings);
            }
        }
    }
    let mut golden: Vec<(String, String, usize)> = legacy_findings
        .into_iter()
        .map(|f| (f.kind.name().to_owned(), f.path, f.line))
        .collect();
    golden.sort();
    golden.dedup(); // the framework counts one finding per (pass, line)

    assert_eq!(
        framework, golden,
        "lexer-ported lints diverged from the frozen scanner"
    );
}

#[test]
fn ported_lints_match_legacy_on_tricky_token_shapes() {
    // Comments, strings, and a cfg(test) module: the constructs the
    // line heuristics handled correctly must keep producing identical
    // findings from the lexer.
    let src = "\
// msg.clone() in a comment\n\
/* received[0] inside\n   a block comment */\n\
const DOC: &str = \"panic! is fine in a string\";\n\
fn lib(messages: &[u8]) {\n\
    let a = value.unwrap();\n\
    let b = messages[0].clone();\n\
}\n\
#[cfg(test)]\n\
mod tests {\n\
    fn t() { x.unwrap(); }\n\
}\n";
    let file = SourceFile::parse(
        "rrfd-sims",
        "crates/rrfd-sims/src/frozen.rs",
        &[Fence::Deterministic, Fence::MessagePlane],
        src.to_owned(),
    );
    let mut framework: Vec<(String, usize)> = passes::run_all(&[file])
        .into_iter()
        .map(|f| (f.pass.to_owned(), f.line))
        .collect();
    framework.sort();

    let mut legacy_findings = Vec::new();
    legacy::scan_file(
        "rrfd-sims",
        "crates/rrfd-sims/src/frozen.rs",
        src,
        &mut legacy_findings,
    );
    let mut golden: Vec<(String, usize)> = legacy_findings
        .into_iter()
        .map(|f| (f.kind.name().to_owned(), f.line))
        .collect();
    golden.sort();
    golden.dedup();

    assert_eq!(framework, golden);
    assert_eq!(framework.len(), 2, "{framework:?}"); // unwrap + table clone
}

fn single_finding(src: &str) -> Finding {
    let file = SourceFile::parse("fixture", "crates/fixture/src/lib.rs", &[], src.to_owned());
    let mut findings = passes::run_all(&[file]);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    findings.remove(0)
}

#[test]
fn fingerprints_survive_unrelated_insertions_and_expire_on_change() {
    let before = single_finding("fn f() {\n    value.unwrap();\n}\n");
    // Insert unrelated lines above: the span moves, the fingerprint
    // must not.
    let shifted = single_finding("//! docs\n\nfn other() {}\n\nfn f() {\n    value.unwrap();\n}\n");
    assert_ne!(before.line, shifted.line);
    assert_eq!(before.fingerprint, shifted.fingerprint);
    // Change the flagged line itself: the fingerprint expires.
    let changed = single_finding("fn f() {\n    other_value.unwrap();\n}\n");
    assert_ne!(before.fingerprint, changed.fingerprint);
}

#[test]
fn malformed_allowlists_are_parse_errors() {
    // Unknown pass name.
    let err = lint::parse_allowlist("no-such-pass crates/x/src/a.rs 1\n").unwrap_err();
    assert_eq!(err.line, 1);
    // Bad fingerprint (wrong length).
    assert!(lint::parse_allowlist("panic-family crates/x/src/a.rs fp:abc\n").is_err());
    // Missing column.
    assert!(lint::parse_allowlist("panic-family crates/x/src/a.rs\n").is_err());
    // Trailing junk.
    let err = lint::parse_allowlist("# fine\npanic-family a.rs 1 extra\n").unwrap_err();
    assert_eq!(err.line, 2);
    // Comments and blanks are fine.
    assert!(lint::parse_allowlist("# only comments\n\n")
        .unwrap()
        .is_empty());
}

#[test]
fn stale_allowlist_entries_are_notices_and_fail_strict() {
    let finding = single_finding("fn f() {\n    value.unwrap();\n}\n");
    let pinned = Allowance {
        pass: "panic-family".to_owned(),
        path: finding.path.clone(),
        spec: AllowSpec::Fingerprint(finding.fingerprint.clone()),
    };
    let stale = Allowance {
        pass: "msg-clone".to_owned(),
        path: "crates/gone/src/lib.rs".to_owned(),
        spec: AllowSpec::Budget(2),
    };

    // Pin alone: clean even under strict.
    let report = lint::reconcile(
        std::slice::from_ref(&finding),
        std::slice::from_ref(&pinned),
    );
    assert!(report.is_clean(true), "{report:#?}");

    // Pin plus a stale budget: clean lax, dirty strict.
    let report = lint::reconcile(std::slice::from_ref(&finding), &[pinned, stale]);
    assert!(report.violations.is_empty(), "{report:#?}");
    assert_eq!(report.notices.len(), 1, "{report:#?}");
    assert!(report.is_clean(false));
    assert!(!report.is_clean(true));

    // No allowlist at all: the finding is a violation.
    let report = lint::reconcile(std::slice::from_ref(&finding), &[]);
    assert_eq!(report.violations.len(), 1, "{report:#?}");
}

#[test]
fn real_workspace_is_clean_under_strict() {
    let root = repo_root();
    let findings = lint::scan_root(&root).expect("workspace scans");
    let allow_text = std::fs::read_to_string(root.join("lint.allow")).expect("lint.allow");
    let allowances = lint::parse_allowlist(&allow_text).expect("lint.allow parses");
    let report = lint::reconcile(&findings, &allowances);
    assert!(
        report.is_clean(true),
        "workspace lint drifted:\nviolations: {:#?}\nnotices: {:#?}",
        report.violations,
        report.notices
    );
}

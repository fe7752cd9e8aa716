//! Exit-status pins for the `rrfd-analyze` binary on hostile arguments
//! and inputs: a bad size, resilience or depth for the lattice zoo is a usage
//! error (exit 2), and a capture nested deeper than the JSON reader
//! allows is a reported failure (exit 1), not a crash.

use std::process::{Command, Output};

fn analyze(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rrfd-analyze"))
        .args(args)
        .output()
        .expect("the rrfd-analyze binary runs")
}

fn assert_usage_error(args: &[&str], message: &str) {
    let out = analyze(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn lattice_rejects_sizes_and_resiliences_the_zoo_cannot_take() {
    assert_usage_error(&["lattice", "--f", "3"], "2f < n");
    assert_usage_error(&["lattice", "--f", "2"], "2f < n");
    assert_usage_error(&["lattice", "--n", "2", "--f", "0"], "--n must be");
    assert_usage_error(&["lattice", "--n", "6"], "--n must be");
    assert_usage_error(&["lattice", "--depth", "0"], "--depth must be");
    assert_usage_error(&["lattice", "--depth", "0", "--update"], "--depth must be");
}

#[test]
fn stats_reports_an_over_deep_capture_instead_of_overflowing() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("deep_metrics.jsonl");
    let line = format!("{{\"metric\":{}\n", "[".repeat(2_000_000));
    std::fs::write(&path, line).expect("scratch capture written");
    let out = analyze(&["stats", path.to_str().expect("utf-8 path")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("nesting"), "{stderr}");
}

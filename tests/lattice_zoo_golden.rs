//! Golden pins of the compiled-plane lattice on the standard zoo: the
//! rendered markdown plus every counterexample's certificate, for
//! `zoo(3, 1)` at depth 4 (the CLI default) and depth 8 (the benchmark
//! depth), and for `zoo(4, 1)` at depth 4. The fixtures under
//! `tests/fixtures/lattice/` were generated by earlier walks (each
//! fixture's header names which); they are never edited, so any change
//! to the walk must reproduce that output byte for byte. The walk's
//! output must not depend on the order it visits states in either, which
//! the reversed-family check pins.

use rrfd::core::SystemSize;
use rrfd::models::zoo::zoo;
use rrfd_analyze::lattice::{certificate, Lattice};
use std::fmt::Write as _;

fn size(n: usize) -> SystemSize {
    SystemSize::new(n).expect("the zoo sizes are valid system sizes")
}

/// The fixture body for `zoo(n, 1)` at one depth: `render_markdown()`,
/// then one `--- i ⇏ j` section per refuted pair (in matrix order)
/// holding the pair's certificate trace.
fn golden_text(n: usize, depth: u32) -> String {
    let family = zoo(size(n), 1);
    let lattice = Lattice::compute_compiled(&family, depth);
    let mut out = lattice.render_markdown();
    let names = lattice.names();
    for i in 0..names.len() {
        for j in 0..names.len() {
            if let Some(cex) = lattice.counterexample(i, j) {
                let _ = writeln!(out, "--- {} ⇏ {}", names[i], names[j]);
                out.push_str(&certificate(cex).to_string());
            }
        }
    }
    out
}

/// The fixture with its `//` header lines removed.
fn fixture_body(text: &str) -> String {
    text.lines()
        .skip_while(|line| line.starts_with("//"))
        .map(|line| format!("{line}\n"))
        .collect()
}

fn check(n: usize, depth: u32, fixture: &str) {
    let expected = fixture_body(fixture);
    let actual = golden_text(n, depth);
    if actual != expected {
        let line = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .map_or_else(
                || "a length difference".to_owned(),
                |k| format!("line {}", k + 1),
            );
        panic!("n = {n}, depth-{depth} lattice drifted from its golden at {line}");
    }
}

#[test]
fn zoo_lattice_at_cli_depth_matches_its_golden() {
    check(
        3,
        4,
        include_str!("fixtures/lattice/zoo_n3_f1_depth4.golden"),
    );
}

#[test]
fn zoo_lattice_at_benchmark_depth_matches_its_golden() {
    check(
        3,
        8,
        include_str!("fixtures/lattice/zoo_n3_f1_depth8.golden"),
    );
}

#[test]
fn zoo_lattice_at_four_processes_matches_its_golden() {
    check(
        4,
        4,
        include_str!("fixtures/lattice/zoo_n4_f1_depth4.golden"),
    );
}

#[test]
fn reversing_the_family_permutes_the_lattice_and_keeps_every_witness() {
    let forward = Lattice::compute_compiled(&zoo(size(3), 1), 4);
    let mut family = zoo(size(3), 1);
    family.reverse();
    let reversed = Lattice::compute_compiled(&family, 4);
    let len = forward.names().len();
    let back = |i: usize| len - 1 - i;
    let mut refuted = 0;
    for i in 0..len {
        assert_eq!(forward.names()[i], reversed.names()[back(i)]);
        for j in 0..len {
            let pair = format!("{} ⇒ {}", forward.names()[i], forward.names()[j]);
            assert_eq!(
                forward.implies_at(i, j),
                reversed.implies_at(back(i), back(j)),
                "{pair}"
            );
            let (cex, reversed_cex) = (
                forward.counterexample(i, j),
                reversed.counterexample(back(i), back(j)),
            );
            assert_eq!(cex.is_some(), reversed_cex.is_some(), "{pair}");
            if let (Some(cex), Some(reversed_cex)) = (cex, reversed_cex) {
                assert_eq!(cex.pattern, reversed_cex.pattern, "{pair}");
                assert_eq!(cex.rejected_round, reversed_cex.rejected_round, "{pair}");
                refuted += 1;
            }
        }
    }
    assert!(refuted > 0, "the zoo has refuted pairs");
}

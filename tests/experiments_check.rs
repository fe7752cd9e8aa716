//! `experiments --check` on a small fake registry: the check passes on the
//! text the registry renders, and fails on a changed value, a stale extra
//! line inside a block, two swapped blocks, a missing block, an unknown
//! block and a false claim. The real `EXPERIMENTS.md` is checked only for
//! its block list here; CI runs the real check.

use rrfd::obs::Obs;
use rrfd_bench::registry::{self, render_into, CellResult, Experiment, Row, Val};

/// A row whose cell returns `value` on every seed; its claim holds unless
/// the seed is `fails_at`.
fn row(label: &str, value: u64, fails_at: Option<u64>) -> Row {
    let cell = move |seed: u64, _: &Obs| {
        let holds = Some(seed) != fails_at;
        Ok(CellResult {
            values: vec![Val::Sum(value)],
            holds,
        })
    };
    Row {
        point: vec![label.to_owned()],
        seeds: 3,
        cell: Box::new(cell),
    }
}

fn fake(fails_at: Option<u64>) -> Vec<Experiment> {
    let header = "| point | total |\n|---|---|";
    vec![
        Experiment::new("a", 0, "A — first", "a holds").table(header, [row("x", 1, None)]),
        Experiment::new("b", 0, "B — second", "b holds").table(header, [row("y", 2, fails_at)]),
        Experiment::ablation("c", "c holds", row("z", 0, None)),
    ]
}

/// The fake registry's file: prose, its two blocks, and the lattice block
/// that `rrfd-analyze` owns.
const FILE: &str = "# Report\n\n\
    <!-- a:begin -->\n## A — first\n\n| point | total |\n|---|---|\n| x | 3 |\n<!-- a:end -->\n\n\
    <!-- b:begin -->\n## B — second\n\n| point | total |\n|---|---|\n| y | 6 |\n<!-- b:end -->\n\n\
    <!-- lattice:begin -->\nlattice\n<!-- lattice:end -->\n";

/// Problems and stale blocks `experiments --check` reports for `text`.
fn check(registry: &[Experiment], text: &str) -> Vec<String> {
    let rendered = render_into(registry, text);
    let stale = rendered.stale.iter().map(|name| format!("stale {name}"));
    rendered.problems.into_iter().chain(stale).collect()
}

#[test]
fn the_rendered_file_passes() {
    assert_eq!(check(&fake(None), FILE), Vec::<String>::new());
}

#[test]
fn a_changed_value_fails() {
    let changed = FILE.replace("| x | 3 |", "| x | 4 |");
    assert_eq!(check(&fake(None), &changed), ["stale a"]);
    let rewritten = render_into(&fake(None), &changed);
    assert_eq!(rewritten.text, FILE, "a rewrite restores the block");
}

#[test]
fn a_stale_extra_line_inside_a_block_fails() {
    let extra = FILE.replace("| y | 6 |\n", "| y | 6 |\n| old | 1 |\n");
    assert_eq!(check(&fake(None), &extra), ["stale b"]);
}

#[test]
fn swapped_blocks_fail() {
    let (a, b) = (
        FILE.find("<!-- a:begin").unwrap(),
        FILE.find("<!-- b:begin").unwrap(),
    );
    let lattice = FILE.find("<!-- lattice:begin").unwrap();
    let swapped = format!(
        "{}{}{}{}",
        &FILE[..a],
        &FILE[b..lattice],
        &FILE[a..b],
        &FILE[lattice..]
    );
    let problems = check(&fake(None), &swapped);
    assert_eq!(problems.len(), 1, "{problems:?}");
    assert!(problems[0].contains(r#"["b", "a"]"#), "{problems:?}");
}

#[test]
fn missing_and_unknown_blocks_fail() {
    let b = FILE.find("<!-- b:begin").unwrap();
    let lattice = FILE.find("<!-- lattice:begin").unwrap();
    let missing = format!("{}{}", &FILE[..b], &FILE[lattice..]);
    let problems = check(&fake(None), &missing);
    assert!(
        problems
            .iter()
            .any(|p| p.contains("no `<!-- b:begin -->` line")),
        "{problems:?}"
    );
    let unknown = format!("{FILE}<!-- d:begin -->\n<!-- d:end -->\n");
    let problems = check(&fake(None), &unknown);
    assert!(
        problems.iter().any(|p| p.contains(r#"["a", "b", "d"]"#)),
        "{problems:?}"
    );
}

#[test]
fn a_false_claim_fails_with_its_row_and_seed() {
    assert_eq!(
        check(&fake(Some(1)), FILE),
        ["b row 0 seed 1: claim false: b holds"]
    );
    let ablation = fake(None).into_iter().map(|e| match e.name {
        "c" => Experiment::ablation("c", "c holds", row("z", 0, Some(2))),
        _ => e,
    });
    let problems = check(&ablation.collect::<Vec<_>>(), FILE);
    assert_eq!(problems, ["c row 0 seed 2: claim false: c holds"]);
    let replay = fake(Some(1))[1].run_cell(0, 1, &Obs::noop()).unwrap();
    assert!(!replay.holds, "the named cell replays the failure");
}

#[test]
fn the_committed_file_has_exactly_the_registry_blocks() {
    let text = include_str!("../EXPERIMENTS.md");
    let blocks = rrfd_analyze::blocks::block_names(text);
    let titled = registry::all().into_iter().filter(|e| e.title.is_some());
    let mut wanted: Vec<&str> = titled.map(|e| e.name).collect();
    wanted.push(rrfd_analyze::lattice::BLOCK);
    assert_eq!(blocks, wanted);
}

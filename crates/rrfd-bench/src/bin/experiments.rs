//! The experiment runner: renders every experiment of the registry
//! (`rrfd_bench::registry`: E1–E18, the exploration effort and the sampled
//! submodel checks) into its `<!-- NAME:begin/end -->` block of
//! `EXPERIMENTS.md`, rewriting the blocks in place.
//!
//! ```text
//! cargo run --release -p rrfd-bench --bin experiments [-- --check]
//! ```
//!
//! Run from the repository root. `--check` rewrites nothing and fails when
//! a block is stale. Either way the run fails on a missing, extra or
//! reordered block and on any cell whose claim is false; a false cell is
//! printed with its experiment, row and seed, which `Experiment::run_cell`
//! replays. Exit status: 0 clean, 1 findings, 2 usage error.

use rrfd_bench::registry;
use std::process::ExitCode;

const PATH: &str = "EXPERIMENTS.md";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = match args.as_slice() {
        [] => false,
        [flag] if flag == "--check" => true,
        _ => {
            eprintln!("usage: experiments [--check]");
            return ExitCode::from(2);
        }
    };
    let text = match std::fs::read_to_string(PATH) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {PATH}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let rendered = registry::render_into(&registry::all(), &text);
    for problem in &rendered.problems {
        eprintln!("{PATH}: {problem}");
    }
    let mut failed = !rendered.problems.is_empty();
    if check {
        for name in &rendered.stale {
            eprintln!("{PATH}: block `{name}` is stale; rerun without --check and commit it");
        }
        failed |= !rendered.stale.is_empty();
    } else if let Err(e) = std::fs::write(PATH, &rendered.text) {
        eprintln!("cannot write {PATH}: {e}");
        return ExitCode::FAILURE;
    } else {
        eprintln!("{PATH}: {} block(s) rewritten", rendered.stale.len());
    }
    ExitCode::from(u8::from(failed))
}

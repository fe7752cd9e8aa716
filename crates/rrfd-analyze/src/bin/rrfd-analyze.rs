//! The `rrfd-analyze` CLI: lattice checking, race detection, and the
//! workspace lint pass. See `rrfd_analyze` (the library) for what each
//! analysis does; this binary is argument parsing and exit codes.
//!
//! Exit status: `0` clean, `1` findings or mismatch, `2` usage error.

use rrfd_analyze::{blocks, lattice, lint, races, stats};
use rrfd_core::SystemSize;
use rrfd_models::enumerate::MAX_ENUMERATION_SIZE;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: rrfd-analyze <command> [options]

Every subcommand exits 0 when clean, 1 on findings/drift, 2 on usage
errors; --json switches stdout to a machine-readable object.

commands:
  lattice [--depth N] [--n N] [--f F] [--check | --update] [--file PATH]
          [--json]
      Compute the predicate-implication lattice over the standard zoo
      (default n=3, f=1, depth 4; the zoo needs 3 <= n <= 5 and 2f < n,
      and depth >= 1) and print it as markdown (or as an `rrfd-lattice
      v1` JSON object with --json). The pairs are decided by one shared
      prefix-trie walk on the compiled predicate plane: each trie node
      applies the distinct moves of its interned register file, whose
      verdicts on every class of rounds the compiled programs cannot tell
      apart are evaluated once per file, and each refuted pair's witness
      is found on the compiled programs in the per-pair search's order.
      With --check, compare against the
      `<!-- lattice:begin -->` block in PATH (default EXPERIMENTS.md)
      and fail on drift; with --update, rewrite the block.

  races <trace-file> [--expect-violations] [--json]
      Analyze a serialized `rrfd-trace v1` or `rrfd-events v1` capture.
      Reports covering violations, unmatched messages, cross-round
      reordering, and data races (as an `rrfd-races v1` JSON object with
      --json). With --expect-violations the exit status inverts: a clean
      trace fails (for CI fixtures that seed a defect on purpose).

  lint [--root DIR] [--allow PATH] [--strict] [--json]
       [--expect-findings PASS[,PASS...]]
      Run the eight syntax-aware passes (panic-family, wall-clock, obs,
      direct-index, msg-clone, round-closure, span-guard, lock-order) over
      crates/*/src, with crate fences from each Cargo.toml's
      [package.metadata.rrfd], reconciled against the span-fingerprinted
      allowlist (default lint.allow under --root, default .). --strict
      also fails on stale allowlist entries (the CI default); --json
      emits an `rrfd-lint v1` object. --expect-findings inverts the
      exit status per pass: success iff every named pass fired (for the
      seeded negative fixtures in CI).

  stats <capture-file> [--check PATH] [--trace-out PATH]
      Render per-round statistics (messages, suspicions, decisions,
      latency quantiles) for an `rrfd-trace v1`, `rrfd-events v1`, or
      metrics-JSONL capture. With --check, compare the rendered output
      byte-for-byte against the golden file at PATH and fail on drift.
      With --trace-out, additionally synthesize a Chrome trace-event
      JSON file at PATH from an `rrfd-trace v1` capture's causal
      structure (load it at ui.perfetto.dev or chrome://tracing).
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    match command.as_str() {
        "lattice" => run_lattice(rest),
        "races" => run_races(rest),
        "lint" => run_lint(rest),
        "stats" => run_stats(rest),
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command {other:?}\n");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("{message}\n");
    eprint!("{USAGE}");
    ExitCode::from(2)
}

/// Pulls the value following a `--flag` out of `rest`, mutating it.
fn take_value(rest: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    match rest.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) if i + 1 < rest.len() => {
            rest.remove(i);
            Ok(Some(rest.remove(i)))
        }
        Some(_) => Err(format!("{flag} needs a value")),
    }
}

fn take_flag(rest: &mut Vec<String>, flag: &str) -> bool {
    match rest.iter().position(|a| a == flag) {
        Some(i) => {
            rest.remove(i);
            true
        }
        None => false,
    }
}

fn run_lattice(args: &[String]) -> ExitCode {
    let mut rest = args.to_vec();
    type LatticeArgs = (u32, usize, usize, Option<String>);
    let parsed = (|| -> Result<LatticeArgs, String> {
        let depth = match take_value(&mut rest, "--depth")? {
            Some(v) => v.parse().map_err(|_| format!("bad --depth {v:?}"))?,
            None => 4,
        };
        let n = match take_value(&mut rest, "--n")? {
            Some(v) => v.parse().map_err(|_| format!("bad --n {v:?}"))?,
            None => 3,
        };
        let f = match take_value(&mut rest, "--f")? {
            Some(v) => v.parse().map_err(|_| format!("bad --f {v:?}"))?,
            None => 1,
        };
        let file = take_value(&mut rest, "--file")?;
        Ok((depth, n, f, file))
    })();
    let (depth, n, f, file) = match parsed {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    let check = take_flag(&mut rest, "--check");
    let update = take_flag(&mut rest, "--update");
    let json = take_flag(&mut rest, "--json");
    if let Some(extra) = rest.first() {
        return usage_error(&format!("unexpected argument {extra:?}"));
    }
    if check && update {
        return usage_error("--check and --update are mutually exclusive");
    }
    if json && (check || update) {
        return usage_error("--json renders to stdout; it cannot combine with --check/--update");
    }
    // The zoo's own preconditions (see `zoo`'s `# Panics`), checked here
    // so a bad size is a usage error rather than a constructor panic.
    let n = match SystemSize::new(n) {
        Ok(size) if (3..=MAX_ENUMERATION_SIZE).contains(&n) => size,
        _ => {
            return usage_error(&format!(
                "--n must be between 3 and {MAX_ENUMERATION_SIZE} for the zoo"
            ))
        }
    };
    if f > (n.get() - 1) / 2 {
        return usage_error("--f must satisfy 2f < n for the zoo");
    }
    // A depth-0 walk decides nothing, so every pair would read as implied.
    if depth < 1 {
        return usage_error("--depth must be at least 1");
    }

    eprintln!(
        "computing the implication lattice (n={}, f={f}, depth {depth}, compiled plane)...",
        n.get()
    );
    let computed = lattice::Lattice::compute_compiled(&lattice::zoo(n, f), depth);
    if json {
        print!("{}", computed.render_json());
        return ExitCode::SUCCESS;
    }
    let rendered = computed.render_markdown();

    if !check && !update {
        print!("{rendered}");
        return ExitCode::SUCCESS;
    }

    let path = PathBuf::from(file.unwrap_or_else(|| "EXPERIMENTS.md".to_owned()));
    let shown = path.display();
    let current = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {shown}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let updated = match blocks::splice_block(&current, lattice::BLOCK, &rendered) {
        Ok(updated) => updated,
        Err(e) => {
            eprintln!("{shown}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if check && updated == current {
        eprintln!("{shown}: lattice block is up to date");
        ExitCode::SUCCESS
    } else if check {
        eprintln!(
            "{shown}: lattice block is stale — run `rrfd-analyze lattice --update` and commit \
             the result"
        );
        ExitCode::FAILURE
    } else if let Err(e) = std::fs::write(&path, updated) {
        eprintln!("cannot write {shown}: {e}");
        ExitCode::FAILURE
    } else {
        eprintln!("{shown}: lattice block updated");
        ExitCode::SUCCESS
    }
}

fn run_races(args: &[String]) -> ExitCode {
    let mut rest = args.to_vec();
    let expect_violations = take_flag(&mut rest, "--expect-violations");
    let json = take_flag(&mut rest, "--json");
    let [path] = rest.as_slice() else {
        return usage_error("races needs exactly one trace file");
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let findings = match races::analyze_text(&text) {
        Ok(findings) => findings,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if json {
        print!("{}", races_json(path, &findings, expect_violations));
    } else {
        for finding in &findings {
            println!("{path}: {finding}");
        }
    }
    match (findings.is_empty(), expect_violations) {
        (true, false) => {
            eprintln!("{path}: no findings");
            ExitCode::SUCCESS
        }
        (false, true) => {
            eprintln!(
                "{path}: {} finding(s), as expected by the fixture",
                findings.len()
            );
            ExitCode::SUCCESS
        }
        (true, true) => {
            eprintln!("{path}: expected violations but the trace is clean");
            ExitCode::FAILURE
        }
        (false, false) => ExitCode::FAILURE,
    }
}

fn run_stats(args: &[String]) -> ExitCode {
    let mut rest = args.to_vec();
    let check = match take_value(&mut rest, "--check") {
        Ok(v) => v,
        Err(e) => return usage_error(&e),
    };
    let trace_out = match take_value(&mut rest, "--trace-out") {
        Ok(v) => v,
        Err(e) => return usage_error(&e),
    };
    let [path] = rest.as_slice() else {
        return usage_error("stats needs exactly one capture file");
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let rendered = match stats::render(&text) {
        Ok(rendered) => rendered,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{rendered}");
    if let Some(out_path) = trace_out {
        let chrome = match stats::chrome_trace_text(&text) {
            Ok(chrome) => chrome,
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = std::fs::write(&out_path, chrome) {
            eprintln!("cannot write {out_path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("{path}: Chrome trace written to {out_path} (load at ui.perfetto.dev)");
    }
    let Some(golden_path) = check else {
        return ExitCode::SUCCESS;
    };
    let golden = match std::fs::read_to_string(&golden_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {golden_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if rendered == golden {
        eprintln!("{path}: stats match {golden_path}");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{path}: stats drifted from {golden_path} — regenerate with \
             `rrfd-analyze stats {path} > {golden_path}` and review the diff"
        );
        ExitCode::FAILURE
    }
}

fn races_json(path: &str, findings: &[races::Finding], expect_violations: bool) -> String {
    use rrfd_obs::json;
    let mut out =
        String::from("{\n  \"tool\": \"rrfd-analyze races\",\n  \"format\": \"rrfd-races v1\",\n");
    out.push_str(&format!("  \"capture\": \"{}\",\n", json::escape(path)));
    out.push_str(&format!("  \"expect_violations\": {expect_violations},\n"));
    out.push_str("  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"kind\": \"{}\", \"detail\": \"{}\"}}",
            json::escape(&f.kind.to_string()),
            json::escape(&f.detail)
        ));
    }
    out.push_str("\n  ],\n");
    out.push_str(&format!(
        "  \"clean\": {}\n}}\n",
        findings.is_empty() != expect_violations
    ));
    out
}

fn run_lint(args: &[String]) -> ExitCode {
    let mut rest = args.to_vec();
    let parsed = (|| -> Result<(PathBuf, PathBuf, Option<String>), String> {
        let root =
            PathBuf::from(take_value(&mut rest, "--root")?.unwrap_or_else(|| ".".to_owned()));
        let allow = match take_value(&mut rest, "--allow")? {
            Some(p) => PathBuf::from(p),
            None => root.join("lint.allow"),
        };
        let expect = take_value(&mut rest, "--expect-findings")?;
        Ok((root, allow, expect))
    })();
    let (root, allow_path, expect) = match parsed {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    let strict = take_flag(&mut rest, "--strict");
    let json = take_flag(&mut rest, "--json");
    if let Some(extra) = rest.first() {
        return usage_error(&format!("unexpected argument {extra:?}"));
    }
    let findings = match lint::scan_root(&root) {
        Ok(findings) => findings,
        Err(e) => {
            eprintln!("scan failed under {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    if let Some(expected) = expect {
        // Negative-fixture mode: every named pass must fire at least
        // once; the allowlist is not consulted.
        let mut missing = Vec::new();
        for pass in expected.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            if !rrfd_analyze::passes::pass_names().contains(&pass) {
                return usage_error(&format!("--expect-findings names unknown pass {pass:?}"));
            }
            if !findings.iter().any(|f| f.pass == pass) {
                missing.push(pass.to_owned());
            }
        }
        for f in &findings {
            println!("{f}");
        }
        return if missing.is_empty() {
            eprintln!(
                "lint fixtures fired as expected ({} finding(s) under {})",
                findings.len(),
                root.display()
            );
            ExitCode::SUCCESS
        } else {
            eprintln!(
                "expected findings from pass(es) {} under {}, but none fired",
                missing.join(", "),
                root.display()
            );
            ExitCode::FAILURE
        };
    }
    let allowances = match std::fs::read_to_string(&allow_path) {
        Ok(text) => match lint::parse_allowlist(&text) {
            Ok(entries) => entries,
            Err(e) => {
                eprintln!("{}: {e}", allow_path.display());
                return ExitCode::FAILURE;
            }
        },
        Err(_) => Vec::new(), // no allowlist: every finding is a violation
    };
    let report = lint::reconcile(&findings, &allowances);
    if json {
        print!("{}", lint::render_json(&findings, &report, strict));
    } else {
        for notice in &report.notices {
            eprintln!("notice: {notice}");
        }
        for violation in &report.violations {
            eprintln!("{violation}");
        }
    }
    if report.is_clean(strict) {
        if !json {
            eprintln!(
                "lint clean: {} finding(s) across 8 passes, all pinned in {}",
                findings.len(),
                allow_path.display()
            );
        }
        ExitCode::SUCCESS
    } else {
        if !json {
            eprintln!(
                "lint failed: {} violation line(s), {} notice(s){} — fix the findings or \
                 pin them in lint.allow with a justification",
                report.violations.len(),
                report.notices.len(),
                if strict {
                    " (strict: stale allowlist entries fail)"
                } else {
                    ""
                }
            );
        }
        ExitCode::FAILURE
    }
}

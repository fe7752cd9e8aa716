//! The workspace lint pass: orchestration of the syntax-aware pass
//! framework (`syntax` + `passes` + `workspace`) plus the
//! span-fingerprinted allowlist that ratchets findings toward zero.
//!
//! Seven passes run over lexed source (see [`crate::passes::registry`]):
//! the five ported token lints (`panic-family`, `wall-clock`, `obs`,
//! `direct-index`, `msg-clone`) and the two flagship syntax passes
//! (`round-closure`, `lock-order`). Which pass applies to which crate
//! is governed by `Cargo.toml` fence metadata, not code (see
//! [`crate::workspace`]).
//!
//! ## The allowlist (`lint.allow`)
//!
//! One entry per line, `#` comments:
//!
//! ```text
//! round-closure crates/rrfd-core/src/engine.rs fp:1773953f5bcbc801  # the Delivery carrier
//! panic-family  crates/rrfd-core/src/task.rs   2                    # legacy budget (count)
//! ```
//!
//! A **fingerprinted** entry pins exactly one finding by its span
//! fingerprint — a hash of the pass, path, and normalized text of the
//! flagged line (plus an occurrence index), so it survives unrelated
//! line insertions above it and *expires* the moment the flagged code
//! changes. A **legacy budget** entry tolerates up to N otherwise
//! unmatched findings of that pass in that file; budgets are kept for
//! migration and tests, the committed `lint.allow` is all-fingerprint.
//!
//! Findings matching neither kind of entry are violations. Entries
//! matching nothing are "unused" notices — and hard failures under
//! `--strict` (the CI default), so the allowlist can only shrink.

use crate::passes::{self, Finding};
use crate::workspace;
use rrfd_core::LineError;
use std::io;
use std::path::Path;

/// What an allowlist entry tolerates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllowSpec {
    /// Up to N findings of the pass in the file (legacy, line-count
    /// style).
    Budget(usize),
    /// Exactly the finding with this `fp:…` span fingerprint.
    Fingerprint(String),
}

/// One allowlist entry.
#[derive(Debug, Clone)]
pub struct Allowance {
    /// The pass name (validated against the registry).
    pub pass: String,
    /// Workspace-relative path.
    pub path: String,
    /// What the entry tolerates.
    pub spec: AllowSpec,
}

/// Parses an allowlist: one `<pass> <path> <fp:…|count>` entry per
/// line, `#` comments, blank lines ignored. Pass names must be
/// registered passes.
///
/// # Errors
///
/// Returns a [`LineError`] naming the first malformed line.
pub fn parse_allowlist(text: &str) -> Result<Vec<Allowance>, LineError> {
    let known = passes::pass_names();
    let mut entries = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or_default().trim();
        if line.is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let entry = (|| {
            let pass = tokens.next()?;
            if !known.contains(&pass) {
                return None;
            }
            let path = tokens.next()?.to_owned();
            let spec = tokens.next()?;
            let spec = if let Some(hex) = spec.strip_prefix("fp:") {
                if hex.len() != 16 || !hex.chars().all(|c| c.is_ascii_hexdigit()) {
                    return None;
                }
                AllowSpec::Fingerprint(spec.to_owned())
            } else {
                AllowSpec::Budget(spec.parse().ok()?)
            };
            if tokens.next().is_some() {
                return None;
            }
            Some(Allowance {
                pass: pass.to_owned(),
                path,
                spec,
            })
        })();
        match entry {
            Some(a) => entries.push(a),
            None => {
                return Err(LineError::new(
                    line_no,
                    format!("expected `<pass> <path> <fp:16-hex|count>`, got {line:?}"),
                ))
            }
        }
    }
    Ok(entries)
}

/// The outcome of reconciling findings against an allowlist.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Findings exceeding their budget, or matched by no entry. Any
    /// entry here means the pass fails.
    pub violations: Vec<String>,
    /// Stale-allowlist observations: unused entries and under-used
    /// budgets. Failures under `--strict`.
    pub notices: Vec<String>,
}

impl LintReport {
    /// `true` when the pass succeeded. Under `strict`, notices fail
    /// too — an allowlist entry matching nothing is debt bookkeeping
    /// that must be pruned.
    #[must_use]
    pub fn is_clean(&self, strict: bool) -> bool {
        self.violations.is_empty() && (!strict || self.notices.is_empty())
    }
}

/// Reconciles findings against the allowlist: fingerprint entries pin
/// individual findings, budget entries cap the unmatched remainder.
#[must_use]
pub fn reconcile(findings: &[Finding], allowances: &[Allowance]) -> LintReport {
    let mut report = LintReport::default();
    let mut fp_used = vec![false; allowances.len()];
    // Group findings by (pass, path), preserving first-seen order.
    let mut groups: Vec<(&str, &str, Vec<&Finding>)> = Vec::new();
    for finding in findings {
        match groups
            .iter_mut()
            .find(|(k, p, _)| *k == finding.pass && *p == finding.path)
        {
            Some((_, _, list)) => list.push(finding),
            None => groups.push((finding.pass, &finding.path, vec![finding])),
        }
    }
    for (pass, path, list) in &groups {
        // Partition: fingerprint-pinned findings are allowed.
        let mut residual: Vec<&Finding> = Vec::new();
        for f in list {
            let pinned = allowances.iter().enumerate().find(|(i, a)| {
                !fp_used[*i]
                    && a.pass == *pass
                    && a.path == *path
                    && a.spec == AllowSpec::Fingerprint(f.fingerprint.clone())
            });
            match pinned {
                Some((i, _)) => fp_used[i] = true,
                None => residual.push(f),
            }
        }
        let budget = allowances
            .iter()
            .find(|a| a.pass == *pass && a.path == *path && matches!(a.spec, AllowSpec::Budget(_)))
            .and_then(|a| match a.spec {
                AllowSpec::Budget(b) => Some(b),
                AllowSpec::Fingerprint(_) => None,
            });
        match budget {
            None => {
                for f in residual {
                    report.violations.push(f.to_string());
                }
            }
            Some(budget) if residual.len() > budget => {
                report.violations.push(format!(
                    "{path}: {} `{pass}` findings exceed the allowlisted budget of {budget}:",
                    residual.len()
                ));
                for f in residual {
                    report.violations.push(format!("  {f}"));
                }
            }
            Some(budget) if residual.len() < budget => {
                report.notices.push(format!(
                    "{path}: only {} `{pass}` findings against a budget of {budget} — \
                     ratchet the allowlist down",
                    residual.len()
                ));
            }
            Some(_) => {}
        }
    }
    for (i, a) in allowances.iter().enumerate() {
        match &a.spec {
            AllowSpec::Fingerprint(fp) => {
                if !fp_used[i] {
                    report.notices.push(format!(
                        "unused allowlist entry: {} {} {fp} — the pinned finding no \
                         longer exists; prune it",
                        a.pass, a.path
                    ));
                }
            }
            AllowSpec::Budget(b) => {
                let used = groups.iter().any(|(k, p, _)| *k == a.pass && *p == a.path);
                if !used {
                    report
                        .notices
                        .push(format!("unused allowlist entry: {} {} {b}", a.pass, a.path));
                }
            }
        }
    }
    report
}

/// Discovers crates under `root`, loads and lexes their sources, and
/// runs every registered pass. This is `rrfd-analyze lint` minus the
/// allowlist.
///
/// # Errors
///
/// Propagates I/O errors and malformed fence metadata.
pub fn scan_root(root: &Path) -> io::Result<Vec<Finding>> {
    let crates = workspace::discover(root)?;
    let files = workspace::load_files(root, &crates)?;
    Ok(passes::run_all(&files))
}

/// Renders findings and the reconciliation report as one SARIF-shaped
/// JSON object (`rrfd-lint v1`): tool, per-finding pass / file / span /
/// fingerprint / message, violation and notice strings, and the
/// overall verdict under the given strictness.
#[must_use]
pub fn render_json(findings: &[Finding], report: &LintReport, strict: bool) -> String {
    use crate::jsonout::str_array;
    use rrfd_obs::json;
    let mut out =
        String::from("{\n  \"tool\": \"rrfd-analyze lint\",\n  \"format\": \"rrfd-lint v1\",\n");
    out.push_str(&format!("  \"strict\": {strict},\n"));
    out.push_str(&format!(
        "  \"passes\": {},\n",
        str_array(
            &passes::pass_names()
                .iter()
                .map(|s| (*s).to_owned())
                .collect::<Vec<_>>(),
        )
    ));
    out.push_str("  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"pass\": \"{}\", \"file\": \"{}\", \"span\": {{\"line\": {}, \"col\": {}}}, \
             \"fingerprint\": \"{}\", \"message\": \"{}\", \"excerpt\": \"{}\"}}",
            json::escape(f.pass),
            json::escape(&f.path),
            f.line,
            f.col,
            json::escape(&f.fingerprint),
            json::escape(&f.message),
            json::escape(&f.excerpt),
        ));
    }
    out.push_str("\n  ],\n");
    out.push_str(&format!(
        "  \"violations\": {},\n",
        str_array(&report.violations)
    ));
    out.push_str(&format!("  \"notices\": {},\n", str_array(&report.notices)));
    out.push_str(&format!("  \"clean\": {}\n}}\n", report.is_clean(strict)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::fingerprint;

    fn finding(pass: &'static str, path: &str, norm: &str, occ: usize) -> Finding {
        Finding {
            pass,
            path: path.to_owned(),
            line: 1,
            col: 1,
            message: "m".to_owned(),
            excerpt: norm.to_owned(),
            fingerprint: fingerprint(pass, path, norm, occ),
        }
    }

    #[test]
    fn allowlist_parses_both_entry_kinds_and_rejects_garbage() {
        let entries = parse_allowlist(
            "# header comment\n\
             \n\
             panic-family crates/rrfd-core/src/task.rs 2  # budget\n\
             round-closure crates/rrfd-sims/src/digest.rs fp:0123456789abcdef\n",
        )
        .unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].spec, AllowSpec::Budget(2));
        assert_eq!(
            entries[1].spec,
            AllowSpec::Fingerprint("fp:0123456789abcdef".to_owned())
        );
        let err = parse_allowlist("panic-family only-two\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(parse_allowlist("mystery-pass a/b.rs 1\n").is_err());
        assert!(parse_allowlist("panic-family a/b.rs fp:short\n").is_err());
        assert!(parse_allowlist("panic-family a/b.rs fp:0123456789abcdeg\n").is_err());
    }

    #[test]
    fn fingerprint_entries_pin_individual_findings() {
        let f1 = finding("panic-family", "a.rs", "x.unwrap();", 0);
        let f2 = finding("panic-family", "a.rs", "y.unwrap();", 0);
        let allow = vec![Allowance {
            pass: "panic-family".to_owned(),
            path: "a.rs".to_owned(),
            spec: AllowSpec::Fingerprint(f1.fingerprint.clone()),
        }];
        let report = reconcile(&[f1.clone(), f2.clone()], &allow);
        // f1 pinned, f2 unmatched.
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].contains(&f2.fingerprint), "{report:?}");
        assert!(report.notices.is_empty(), "{report:?}");
        // Both pinned: clean, no notices.
        let allow2 = vec![
            allow[0].clone(),
            Allowance {
                pass: "panic-family".to_owned(),
                path: "a.rs".to_owned(),
                spec: AllowSpec::Fingerprint(f2.fingerprint.clone()),
            },
        ];
        let report2 = reconcile(&[f1, f2], &allow2);
        assert!(report2.is_clean(true), "{report2:?}");
    }

    #[test]
    fn stale_fingerprints_are_notices_and_strict_failures() {
        let allow = vec![Allowance {
            pass: "panic-family".to_owned(),
            path: "a.rs".to_owned(),
            spec: AllowSpec::Fingerprint("fp:00000000000000aa".to_owned()),
        }];
        let report = reconcile(&[], &allow);
        assert!(report.violations.is_empty());
        assert_eq!(report.notices.len(), 1);
        assert!(report.notices[0].contains("unused"), "{report:?}");
        assert!(report.is_clean(false));
        assert!(!report.is_clean(true));
    }

    #[test]
    fn budgets_keep_legacy_semantics() {
        let f = vec![
            finding("panic-family", "a.rs", "x.unwrap();", 0),
            finding("panic-family", "a.rs", "x.unwrap();", 1),
        ];
        let budget = |b: usize| {
            vec![Allowance {
                pass: "panic-family".to_owned(),
                path: "a.rs".to_owned(),
                spec: AllowSpec::Budget(b),
            }]
        };
        assert_eq!(reconcile(&f, &[]).violations.len(), 2);
        let exact = reconcile(&f, &budget(2));
        assert!(exact.is_clean(true), "{exact:?}");
        let over = reconcile(&f, &budget(1));
        assert!(!over.is_clean(false));
        let under = reconcile(&f, &budget(5));
        assert!(under.is_clean(false) && !under.is_clean(true));
        assert!(under.notices[0].contains("ratchet"), "{under:?}");
        let unused = reconcile(&[], &budget(1));
        assert!(unused.notices[0].contains("unused"), "{unused:?}");
    }

    #[test]
    fn fingerprints_and_budgets_compose() {
        // One pinned finding plus one budgeted stranger: clean.
        let f1 = finding("panic-family", "a.rs", "x.unwrap();", 0);
        let f2 = finding("panic-family", "a.rs", "y.unwrap();", 0);
        let allow = vec![
            Allowance {
                pass: "panic-family".to_owned(),
                path: "a.rs".to_owned(),
                spec: AllowSpec::Fingerprint(f1.fingerprint.clone()),
            },
            Allowance {
                pass: "panic-family".to_owned(),
                path: "a.rs".to_owned(),
                spec: AllowSpec::Budget(1),
            },
        ];
        let report = reconcile(&[f1, f2], &allow);
        assert!(report.is_clean(true), "{report:?}");
    }

    #[test]
    fn json_output_is_shaped_and_escaped() {
        let f = finding("panic-family", "a\"b.rs", "x.unwrap();", 0);
        let report = reconcile(std::slice::from_ref(&f), &[]);
        let json = render_json(&[f], &report, true);
        assert!(json.contains("\"tool\": \"rrfd-analyze lint\""));
        assert!(json.contains("\"file\": \"a\\\"b.rs\""));
        assert!(json.contains("\"fingerprint\": \"fp:"));
        assert!(json.contains("\"clean\": false"));
        // Parses under the workspace's own JSON parser.
        assert!(rrfd_obs::json::parse(&json).is_ok());
    }
}

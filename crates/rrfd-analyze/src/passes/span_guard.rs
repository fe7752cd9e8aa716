//! The `span-guard` pass: `rrfd_obs` round-span guards must be opened
//! and closed inside the same round body.
//!
//! The tracing plane deliberately has no RAII guard — a
//! [`RoundSpan`](https://docs.rs) is plain data returned by
//! `Obs::round_enter` and consumed by `RunObs::round_exit` (or reused as
//! the start timestamp of a `close_span`). That keeps the no-op path
//! branch-free, but it also means the compiler never complains when a
//! guard is misused. Two misuse shapes matter, and both are syntactic:
//!
//! 1. **Guard held across a round boundary** — a `RoundSpan` stored in
//!    a struct or enum field survives the round that opened it, so the
//!    latency it eventually records spans an arbitrary number of later
//!    rounds. Spans follow the same communication-closure discipline as
//!    deliveries: open in the round, close in the round.
//! 2. **Guard dropped without close** — a function calls
//!    `.round_enter(…)` but never `.round_exit(…)` or `.close_span(…)`
//!    on any handle (the check matches method names, not receivers), so
//!    the clock read is taken and silently discarded: the histogram and
//!    the causal trace both lose the round. Functions whose return
//!    type hands the `RoundSpan` to the caller are exempt (that is the
//!    constructor/handoff pattern `rrfd-obs` itself uses).
//!
//! Gated on the `instrumented` fence — the same crates whose timing
//! must flow through `rrfd_obs::Clock`.

use super::{Pass, RawFinding};
use crate::syntax::{Scope, SourceFile};
use crate::workspace::Fence;

/// The round-span guard checker. See the module docs.
pub struct SpanGuard;

impl Pass for SpanGuard {
    fn name(&self) -> &'static str {
        "span-guard"
    }
    fn description(&self) -> &'static str {
        "rrfd_obs round-span guards must close in the round that opened them: \
         no RoundSpan stored in a type, no round_enter without round_exit/close_span"
    }
    fn visit(&mut self, file: &SourceFile, out: &mut Vec<RawFinding>) {
        if !file.fenced(Fence::Instrumented) {
            return;
        }
        let mut scopes: Vec<&Scope> = Vec::new();
        crate::syntax::walk(&file.root, &mut |s| scopes.push(s));
        for scope in scopes {
            if scope.open == usize::MAX || file.in_test.get(scope.open).copied().unwrap_or(false) {
                continue;
            }
            let header: Vec<&str> = (scope.header_lo..scope.open)
                .map(|i| file.tok_text(i))
                .collect();
            if header.contains(&"struct") || header.contains(&"enum") {
                self.check_type_body(file, scope, out);
            } else if header.contains(&"fn") {
                self.check_fn(file, scope, &header, out);
            }
        }
    }
}

impl SpanGuard {
    fn hit(&self, file: &SourceFile, tok: usize, message: String, out: &mut Vec<RawFinding>) {
        let span = file.tokens[tok].span;
        out.push(RawFinding {
            pass: self.name(),
            path: file.path.clone(),
            line: span.line,
            col: span.col,
            message,
            excerpt: file.line_text(span.line).to_owned(),
        });
    }

    /// Rule 1: a `RoundSpan` stored in a type outlives its round.
    fn check_type_body(&self, file: &SourceFile, scope: &Scope, out: &mut Vec<RawFinding>) {
        let close = scope.close.min(file.tokens.len());
        for i in scope.open + 1..close {
            if file.is_ident(i, "RoundSpan") {
                self.hit(
                    file,
                    i,
                    "a `RoundSpan` guard stored in a type is held across round \
                     boundaries — open and close the span inside one round body"
                        .to_owned(),
                    out,
                );
            }
        }
    }

    /// Rule 2: `.round_enter(…)` with no `.round_exit`/`.close_span` in
    /// the same function body drops the guard without recording.
    fn check_fn(
        &self,
        file: &SourceFile,
        scope: &Scope,
        header: &[&str],
        out: &mut Vec<RawFinding>,
    ) {
        // Handoff exemption: a function returning the guard (the
        // `round_enter` constructor pattern) closes nothing by design.
        if let Some(arrow) = header.windows(2).position(|w| w == ["-", ">"]) {
            if header[arrow + 2..].contains(&"RoundSpan") {
                return;
            }
        }
        let close = scope.close.min(file.tokens.len());
        let mut first_enter = None;
        let mut closes = 0usize;
        for i in scope.open + 1..close {
            // Method calls only (`.round_enter(`): definitions and doc
            // mentions never carry the leading dot.
            if !(i > 0 && file.is_punct(i - 1, b'.')) {
                continue;
            }
            if file.is_ident(i, "round_enter") && file.is_punct(i + 1, b'(') {
                first_enter.get_or_insert(i);
            } else if file.is_ident(i, "round_exit") || file.is_ident(i, "close_span") {
                closes += 1;
            }
        }
        if let Some(enter) = first_enter {
            if closes == 0 {
                self.hit(
                    file,
                    enter,
                    "`round_enter` opens a span this function never closes \
                     (no `round_exit`/`close_span`) — the guard is dropped \
                     and the round's latency is lost"
                        .to_owned(),
                    out,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::passes::run_all;
    use crate::syntax::SourceFile;
    use crate::workspace::Fence;

    fn check(fences: &[Fence], src: &str) -> Vec<String> {
        let file = SourceFile::parse("p", "crates/p/src/x.rs", fences, src.to_owned());
        run_all(&[file])
            .into_iter()
            .filter(|f| f.pass == "span-guard")
            .map(|f| f.message)
            .collect()
    }

    const INST: &[Fence] = &[Fence::Instrumented];

    #[test]
    fn a_round_span_in_a_struct_field_is_held_across_rounds() {
        let got = check(INST, "struct Holder {\n    open: RoundSpan,\n}\n");
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].contains("held across round boundaries"), "{got:?}");
        // Unfenced crates may do what they like.
        assert!(check(&[], "struct Holder {\n    open: RoundSpan,\n}\n").is_empty());
    }

    #[test]
    fn an_unclosed_round_enter_is_a_dropped_guard() {
        let got = check(
            INST,
            "fn run(obs: &Obs) {\n    let span = obs.round_enter(Labels::round(1));\n    \
             let _ = span;\n}\n",
        );
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].contains("never closes"), "{got:?}");
    }

    #[test]
    fn enter_paired_with_exit_or_close_span_is_clean() {
        let exit = "fn run(obs: &Obs) {\n    let span = obs.round_enter(Labels::round(1));\n    \
                    obs.round_exit(METRIC, span);\n}\n";
        assert!(check(INST, exit).is_empty());
        let close = "fn run(obs: &Obs) {\n    let span = obs.round_enter(Labels::round(1));\n    \
                     obs.close_span(0, SpanKind::Round, 1, None, span.start_ns());\n}\n";
        assert!(check(INST, close).is_empty());
        // Closing inside a nested closure still counts: the guard is
        // consumed before the function returns.
        let closure =
            "fn run(obs: &Obs) {\n    let span = obs.round_enter(Labels::round(1));\n    \
                       finally(|| obs.round_exit(METRIC, span));\n}\n";
        assert!(check(INST, closure).is_empty());
    }

    #[test]
    fn handoff_functions_returning_the_guard_are_exempt() {
        let src = "fn open(obs: &Obs) -> RoundSpan {\n    obs.round_enter(Labels::round(1))\n}\n";
        assert!(check(INST, src).is_empty(), "constructor pattern is legal");
    }

    #[test]
    fn definitions_and_tests_do_not_fire() {
        // The method definition itself has no leading dot.
        let def =
            "impl Obs {\n    pub fn round_enter(&self, labels: Labels) -> RoundSpan {\n        \
                   RoundSpan { start_ns: 0, labels }\n    }\n}\n";
        assert!(check(INST, def).is_empty());
        let test = "#[cfg(test)]\nmod t {\n    fn f(obs: &Obs) { let _ = \
                    obs.round_enter(Labels::round(1)); }\n}\n";
        assert!(check(INST, test).is_empty());
    }
}

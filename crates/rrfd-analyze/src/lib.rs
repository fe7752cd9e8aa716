//! Analyses over the RRFD workspace, surfaced through the
//! `rrfd-analyze` CLI and consumed by CI:
//!
//! * [`lattice`] — decides every pairwise implication between the
//!   predicates of the `rrfd-models` zoo by bounded-exhaustive
//!   enumeration of fault patterns, producing a machine-checked Hasse
//!   diagram of the paper's submodel lattice and replayable
//!   counterexample certificates for the non-implications. The default
//!   backend walks one compiled-plane prefix trie shared by all pairs,
//!   evaluating one round per class of rounds the compiled programs
//!   cannot tell apart and expanding each distinct child once; each
//!   refuted pair's witness is then found by the per-pair compiled
//!   search behind [`lattice::implies`], so the two agree byte for byte.
//! * [`races`] — rebuilds happens-before over captured `rrfd-trace v1` /
//!   `rrfd-events v1` traces with vector clocks, reporting covering
//!   violations, cross-round reordering and data races.
//! * [`lint`] — the syntax-aware static-analysis framework: a
//!   hand-rolled lexer and scope parser ([`syntax`]), fences derived
//!   from `Cargo.toml` metadata ([`workspace`]), a pluggable pass API
//!   with eight passes ([`passes`]) including the `round-closure`
//!   communication-closure checker (arXiv:1804.07078), the
//!   `span-guard` round-span discipline checker, and the
//!   `lock-order` deadlock-cycle detector, reconciled against a
//!   span-fingerprinted allowlist with JSON diagnostics.
//! * [`blocks`] — splices a generator's `<!-- NAME:begin/end -->` block
//!   of a Markdown file, for `lattice --check/--update` and the
//!   `experiments` binary of `rrfd-bench`.
//! * [`stats`] — renders per-round tables (messages, suspicions,
//!   decisions, latency quantiles) from `rrfd-trace v1`, `rrfd-events
//!   v1`, or metrics-JSONL capture files, golden-checkable in CI; with
//!   `--trace-out`, synthesizes a Perfetto-loadable Chrome trace from
//!   an `rrfd-trace v1` capture's causal structure.
//!
//! ```text
//! cargo run --release -p rrfd-analyze --bin rrfd-analyze -- lattice
//! cargo run -p rrfd-analyze --bin rrfd-analyze -- races trace.txt --json
//! cargo run -p rrfd-analyze --bin rrfd-analyze -- lint --strict --json
//! cargo run -p rrfd-analyze --bin rrfd-analyze -- stats trace.txt
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocks;
pub mod jsonout;
pub mod lattice;
pub mod lint;
pub mod passes;
pub mod races;
pub mod stats;
pub mod syntax;
pub mod workspace;

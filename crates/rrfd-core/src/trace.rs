//! Run traces: serializable, replayable records of RRFD executions.
//!
//! A [`RunTrace`] captures everything the round engine saw an adversary do:
//! per-round suspicion sets `D(i,r)`, the delivered-message summary `S(i,r)`
//! (who each process actually heard from), per-process decision rounds, and
//! how the run ended — full decision, predicate violation, or round-limit
//! exhaustion. [`crate::RoundCore::trace`] renders one from the run's own
//! record — its fault pattern, rejected round, first decisions and result
//! — which every trace producer (both engines' `run_traced`, the batch
//! pool) goes through, so a failing run is never an opaque assertion: the
//! trace can be printed (stable text format, one value per line), parsed
//! back, and re-driven bit-for-bit through any engine via a replay
//! detector (`rrfd-models::adversary::ReplayDetector`).
//!
//! The text format is line-oriented and versioned:
//!
//! ```text
//! rrfd-trace v1
//! n 3
//! round 1
//! d - 2 -
//! s 0,1,2 0,1 0,1,2
//! decisions 1 1 1
//! outcome decided rounds=1
//! ```
//!
//! `d` lines hold `D(i,r)` per process (comma-separated ids, `-` for the
//! empty set); `s` lines hold `S(i,r)` the same way; `decisions` holds each
//! process's decision round or `-`.

use crate::id::{ProcessId, Round, SystemSize, MAX_PROCESSES};
use crate::idset::IdSet;
use crate::lineformat::{self, DisplayIdSet, LineError};
use crate::pattern::{FaultPattern, RoundFaults};
use crate::predicate::PatternViolation;
use std::fmt;
use std::str::FromStr;

/// One executed round as seen by the engine: the adversary's suspicion sets
/// and what each process actually heard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRound {
    /// `faults.of(i)` is `D(i, r)`.
    pub faults: RoundFaults,
    /// `heard[i]` is `S(i, r)` — processes whose round message reached `i`.
    /// Empty for a round the adversary aborted with a violation (no
    /// delivery happened).
    pub heard: Vec<IdSet>,
}

/// How a traced run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOutcome {
    /// Every process decided; the run took `rounds_executed` full rounds.
    Decided {
        /// Number of rounds executed.
        rounds_executed: u32,
    },
    /// The adversary broke well-formedness or the model predicate. The
    /// offending round's `D` sets are the trace's final [`TraceRound`].
    Violation(PatternViolation),
    /// The round budget elapsed before every process decided.
    RoundLimit {
        /// The configured limit.
        max_rounds: u32,
    },
    /// The run ended without a verdict from the adversary/protocol
    /// interaction itself: it never started (wrong protocol count) or a
    /// harness-level failure cut it short (for example, a process thread
    /// dying in the threaded runtime).
    Aborted,
}

impl fmt::Display for TraceOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceOutcome::Decided { rounds_executed } => {
                write!(f, "decided rounds={rounds_executed}")
            }
            TraceOutcome::Violation(PatternViolation::IllFormed { process, round }) => {
                write!(
                    f,
                    "violation ill-formed process={} round={}",
                    process.index(),
                    round.get()
                )
            }
            TraceOutcome::Violation(PatternViolation::PredicateRejected { predicate, round }) => {
                write!(
                    f,
                    "violation predicate round={} name={predicate}",
                    round.get()
                )
            }
            TraceOutcome::RoundLimit { max_rounds } => write!(f, "limit max={max_rounds}"),
            TraceOutcome::Aborted => write!(f, "aborted"),
        }
    }
}

/// A complete record of one engine run. Render one from a run with
/// [`crate::RoundCore::trace`] (or [`crate::EngineRun::trace`]), or parse
/// the text format with [`str::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunTrace {
    n: SystemSize,
    rounds: Vec<TraceRound>,
    decision_rounds: Vec<Option<Round>>,
    outcome: TraceOutcome,
}

impl RunTrace {
    /// The system size the trace was recorded over.
    #[must_use]
    pub fn system_size(&self) -> SystemSize {
        self.n
    }

    /// The recorded rounds, in execution order.
    #[must_use]
    pub fn rounds(&self) -> &[TraceRound] {
        &self.rounds
    }

    /// The round at which each process decided, aligned by process index.
    #[must_use]
    pub fn decision_rounds(&self) -> &[Option<Round>] {
        &self.decision_rounds
    }

    /// How the run ended.
    #[must_use]
    pub fn outcome(&self) -> &TraceOutcome {
        &self.outcome
    }

    /// The fault pattern over every recorded round — including, for a
    /// violation trace, the final offending round that the engine refused
    /// to push into its own history.
    #[must_use]
    pub fn pattern(&self) -> FaultPattern {
        let mut pattern = FaultPattern::new(self.n);
        for round in &self.rounds {
            pattern.push(round.faults.clone());
        }
        pattern
    }

    /// The trace of a run that ended before its first round: no rounds,
    /// no decisions, outcome [`TraceOutcome::Aborted`]. Both engines'
    /// `run_traced` return it for a run rejected before it started.
    #[must_use]
    pub fn aborted(n: SystemSize) -> Self {
        RunTrace::from_record(n, [], None, vec![None; n.get()], TraceOutcome::Aborted)
    }

    /// A replayable certificate that `predicate` rejects `pattern` at
    /// round `rejected`: every earlier round as a normal round with the
    /// covering-maximal delivery `S(i,r) = S ∖ D(i,r)`, round `rejected`
    /// as the violating round, and a [`PatternViolation::PredicateRejected`]
    /// outcome. `rejected` is a round of `pattern`; rounds after it are not
    /// part of the certificate. Re-driving the trace against the rejecting
    /// predicate reproduces the rejection at the recorded round.
    #[must_use]
    pub fn predicate_rejection(pattern: &FaultPattern, rejected: Round, predicate: String) -> Self {
        let n = pattern.system_size();
        let admitted = pattern
            .iter()
            .take_while(|&(r, _)| r < rejected)
            .map(|(_, faults)| faults);
        RunTrace::from_record(
            n,
            admitted,
            pattern.round(rejected),
            vec![None; n.get()],
            TraceOutcome::Violation(PatternViolation::PredicateRejected {
                predicate,
                round: rejected,
            }),
        )
    }

    /// The trace of a run's record: its `admitted` rounds, in each of which
    /// every process emitted, so `p_i` heard exactly `S(i,r) = S ∖ D(i,r)`
    /// (the covering property); then the round the model `rejected`, if
    /// any, which delivered nothing; each process's first decision round;
    /// and how the run ended.
    pub(crate) fn from_record<'a>(
        n: SystemSize,
        admitted: impl IntoIterator<Item = &'a RoundFaults>,
        rejected: Option<&RoundFaults>,
        decision_rounds: Vec<Option<Round>>,
        outcome: TraceOutcome,
    ) -> Self {
        let mut rounds: Vec<TraceRound> = admitted
            .into_iter()
            .map(|faults| TraceRound {
                heard: n.processes().map(|p| faults.of(p).complement(n)).collect(),
                faults: faults.clone(),
            })
            .collect();
        rounds.extend(rejected.map(|faults| TraceRound {
            faults: faults.clone(),
            heard: vec![IdSet::empty(); n.get()],
        }));
        RunTrace {
            n,
            rounds,
            decision_rounds,
            outcome,
        }
    }
}

fn write_idset(f: &mut fmt::Formatter<'_>, set: IdSet) -> fmt::Result {
    write!(f, "{}", DisplayIdSet(set))
}

impl fmt::Display for RunTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "rrfd-trace v1")?;
        writeln!(f, "n {}", self.n.get())?;
        for (idx, round) in self.rounds.iter().enumerate() {
            writeln!(f, "round {}", idx + 1)?;
            f.write_str("d")?;
            for (_, d) in round.faults.iter() {
                f.write_str(" ")?;
                write_idset(f, d)?;
            }
            f.write_str("\ns")?;
            for &s in &round.heard {
                f.write_str(" ")?;
                write_idset(f, s)?;
            }
            f.write_str("\n")?;
        }
        f.write_str("decisions")?;
        for d in &self.decision_rounds {
            match d {
                Some(r) => write!(f, " {}", r.get())?,
                None => f.write_str(" -")?,
            }
        }
        writeln!(f, "\noutcome {}", self.outcome)
    }
}

/// Why a serialized trace failed to parse. An alias of the workspace-wide
/// [`LineError`] — every line-oriented format shares the same error shape.
pub type ParseTraceError = LineError;

fn parse_set_line(rest: &str, n: SystemSize, line: usize) -> Result<Vec<IdSet>, ParseTraceError> {
    let sets: Vec<IdSet> = rest
        .split_whitespace()
        .map(|tok| lineformat::parse_idset(tok, n).map_err(|m| ParseTraceError::new(line, m)))
        .collect::<Result<_, _>>()?;
    if sets.len() != n.get() {
        return Err(ParseTraceError::new(
            line,
            format!("expected {} sets, found {}", n.get(), sets.len()),
        ));
    }
    Ok(sets)
}

fn parse_kv<'a>(token: &'a str, key: &str, line: usize) -> Result<&'a str, ParseTraceError> {
    lineformat::parse_kv(token, key).map_err(|m| ParseTraceError::new(line, m))
}

fn parse_outcome(rest: &str, line: usize) -> Result<TraceOutcome, ParseTraceError> {
    let mut words = rest.split_whitespace();
    match words.next() {
        Some("decided") => {
            let rounds = parse_kv(words.next().unwrap_or(""), "rounds", line)?;
            let rounds_executed = rounds
                .parse()
                .map_err(|_| ParseTraceError::new(line, "bad round count"))?;
            Ok(TraceOutcome::Decided { rounds_executed })
        }
        Some("limit") => {
            let max = parse_kv(words.next().unwrap_or(""), "max", line)?;
            let max_rounds = max
                .parse()
                .map_err(|_| ParseTraceError::new(line, "bad round limit"))?;
            Ok(TraceOutcome::RoundLimit { max_rounds })
        }
        Some("aborted") => Ok(TraceOutcome::Aborted),
        Some("violation") => match words.next() {
            Some("ill-formed") => {
                let process: usize = parse_kv(words.next().unwrap_or(""), "process", line)?
                    .parse()
                    .map_err(|_| ParseTraceError::new(line, "bad process id"))?;
                let round: u32 = parse_kv(words.next().unwrap_or(""), "round", line)?
                    .parse()
                    .map_err(|_| ParseTraceError::new(line, "bad round"))?;
                if process >= MAX_PROCESSES || round == 0 {
                    return Err(ParseTraceError::new(line, "violation out of range"));
                }
                Ok(TraceOutcome::Violation(PatternViolation::IllFormed {
                    process: ProcessId::new(process),
                    round: Round::new(round),
                }))
            }
            Some("predicate") => {
                let round: u32 = parse_kv(words.next().unwrap_or(""), "round", line)?
                    .parse()
                    .map_err(|_| ParseTraceError::new(line, "bad round"))?;
                if round == 0 {
                    return Err(ParseTraceError::new(line, "round must be positive"));
                }
                // The name is everything after `name=` on the original line
                // (predicate names may contain spaces).
                let name = rest
                    .split_once("name=")
                    .map(|(_, name)| name.to_owned())
                    .ok_or_else(|| ParseTraceError::new(line, "missing predicate name"))?;
                Ok(TraceOutcome::Violation(
                    PatternViolation::PredicateRejected {
                        predicate: name,
                        round: Round::new(round),
                    },
                ))
            }
            other => Err(ParseTraceError::new(
                line,
                format!("unknown violation kind {other:?}"),
            )),
        },
        other => Err(ParseTraceError::new(
            line,
            format!("unknown outcome {other:?}"),
        )),
    }
}

impl FromStr for RunTrace {
    type Err = ParseTraceError;

    fn from_str(text: &str) -> Result<Self, Self::Err> {
        let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l.trim()));
        let (lno, header) = lines
            .next()
            .ok_or_else(|| ParseTraceError::new(0, "empty trace"))?;
        if header != "rrfd-trace v1" {
            return Err(ParseTraceError::new(lno, "missing `rrfd-trace v1` header"));
        }
        let (lno, n_line) = lines
            .next()
            .ok_or_else(|| ParseTraceError::new(lno, "missing `n` line"))?;
        let n_val: usize = n_line
            .strip_prefix("n ")
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| ParseTraceError::new(lno, "expected `n <size>`"))?;
        let n = SystemSize::new(n_val)
            .map_err(|e| ParseTraceError::new(lno, format!("bad system size: {e}")))?;

        let mut rounds: Vec<TraceRound> = Vec::new();
        let mut decision_rounds: Option<Vec<Option<Round>>> = None;
        let mut outcome: Option<TraceOutcome> = None;
        let mut pending_faults: Option<RoundFaults> = None;
        // Round lines read so far; every one but the last is complete.
        let mut round_lines = 0usize;

        for (lno, line) in lines {
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("round ") {
                if rounds.len() != round_lines {
                    return Err(ParseTraceError::new(lno, "previous round is incomplete"));
                }
                round_lines += 1;
                if rest.trim().parse() != Ok(round_lines) {
                    let expected = format!("expected `round {round_lines}`");
                    return Err(ParseTraceError::new(lno, expected));
                }
            } else if let Some(rest) = line.strip_prefix("d ") {
                if pending_faults.is_some() || rounds.len() + 1 != round_lines {
                    return Err(ParseTraceError::new(lno, "`d` line out of place"));
                }
                let sets = parse_set_line(rest, n, lno)?;
                pending_faults = Some(RoundFaults::from_sets(n, sets));
            } else if let Some(rest) = line.strip_prefix("s ") {
                let faults = pending_faults
                    .take()
                    .ok_or_else(|| ParseTraceError::new(lno, "`s` line without `d` line"))?;
                let heard = parse_set_line(rest, n, lno)?;
                rounds.push(TraceRound { faults, heard });
            } else if let Some(rest) = line.strip_prefix("decisions") {
                if decision_rounds.is_some() {
                    return Err(ParseTraceError::new(lno, "repeated `decisions` line"));
                }
                let ds: Vec<Option<Round>> = rest
                    .split_whitespace()
                    .map(|tok| {
                        if tok == "-" {
                            Ok(None)
                        } else {
                            tok.parse::<u32>()
                                .ok()
                                .filter(|&r| r > 0)
                                .map(|r| Some(Round::new(r)))
                                .ok_or_else(|| {
                                    ParseTraceError::new(lno, format!("bad decision round {tok:?}"))
                                })
                        }
                    })
                    .collect::<Result<_, _>>()?;
                if ds.len() != n.get() {
                    return Err(ParseTraceError::new(
                        lno,
                        format!("expected {} decisions, found {}", n.get(), ds.len()),
                    ));
                }
                decision_rounds = Some(ds);
            } else if let Some(rest) = line.strip_prefix("outcome ") {
                if outcome.is_some() {
                    return Err(ParseTraceError::new(lno, "repeated `outcome` line"));
                }
                outcome = Some(parse_outcome(rest, lno)?);
            } else {
                return Err(ParseTraceError::new(
                    lno,
                    format!("unrecognised line {line:?}"),
                ));
            }
        }

        if rounds.len() != round_lines {
            return Err(ParseTraceError::new(0, "last round is incomplete"));
        }
        let outcome = outcome.ok_or_else(|| ParseTraceError::new(0, "missing `outcome` line"))?;
        Ok(RunTrace {
            n,
            rounds,
            decision_rounds: decision_rounds.unwrap_or_else(|| vec![None; n.get()]),
            outcome,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: usize) -> SystemSize {
        SystemSize::new(v).unwrap()
    }

    fn ids(xs: &[usize]) -> IdSet {
        xs.iter().map(|&i| ProcessId::new(i)).collect()
    }

    fn sample_trace() -> RunTrace {
        let size = n(3);
        let mut r1 = RoundFaults::none(size);
        r1.set(ProcessId::new(1), ids(&[2]));
        let decisions = [1, 2, 2].map(|r| Some(Round::new(r))).to_vec();
        let outcome = TraceOutcome::Decided { rounds_executed: 2 };
        RunTrace::from_record(
            size,
            [&r1, &RoundFaults::none(size)],
            None,
            decisions,
            outcome,
        )
    }

    #[test]
    fn round_trip_through_text() {
        let trace = sample_trace();
        // Every process emitted, so p1 heard everyone but the p2 it
        // suspected.
        let heard = vec![ids(&[0, 1, 2]), ids(&[0, 1]), ids(&[0, 1, 2])];
        assert_eq!(trace.rounds()[0].heard, heard);
        let text = trace.to_string();
        let parsed: RunTrace = text.parse().unwrap();
        assert_eq!(parsed, trace);
    }

    #[test]
    fn violation_outcomes_round_trip() {
        let size = n(2);
        let mut bad = RoundFaults::none(size);
        bad.set(ProcessId::new(0), IdSet::universe(size));
        let ill_formed = TraceOutcome::Violation(PatternViolation::IllFormed {
            process: ProcessId::new(0),
            round: Round::new(1),
        });
        let rejected = TraceOutcome::Violation(PatternViolation::PredicateRejected {
            predicate: "crash(f = 1, with spaces)".to_owned(),
            round: Round::new(1),
        });
        for (faults, outcome) in [(bad, ill_formed), (RoundFaults::none(size), rejected)] {
            let trace = RunTrace::from_record(size, [], Some(&faults), vec![None; 2], outcome);
            assert_eq!(trace.rounds()[0].heard, vec![IdSet::empty(); 2]);
            let parsed: RunTrace = trace.to_string().parse().unwrap();
            assert_eq!(parsed, trace);
        }
    }

    #[test]
    fn limit_and_aborted_round_trip() {
        for outcome in [
            TraceOutcome::RoundLimit { max_rounds: 17 },
            TraceOutcome::Aborted,
        ] {
            let trace = RunTrace::from_record(n(2), [], None, vec![None; 2], outcome.clone());
            let parsed: RunTrace = trace.to_string().parse().unwrap();
            assert_eq!(parsed.outcome(), &outcome);
        }
    }

    #[test]
    fn pattern_reconstructs_all_rounds() {
        let trace = sample_trace();
        let pattern = trace.pattern();
        assert_eq!(pattern.rounds(), 2);
        assert_eq!(
            pattern.of(ProcessId::new(1), Round::new(1)),
            Some(ids(&[2]))
        );
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!("".parse::<RunTrace>().is_err());
        assert!("bogus header\nn 3".parse::<RunTrace>().is_err());
        // Process id outside the universe.
        let bad = "rrfd-trace v1\nn 2\nround 1\nd 5 -\ns - -\noutcome aborted\n";
        assert!(bad.parse::<RunTrace>().is_err());
        // Wrong arity.
        let bad = "rrfd-trace v1\nn 3\nround 1\nd - -\ns - - -\noutcome aborted\n";
        assert!(bad.parse::<RunTrace>().is_err());
        // Missing outcome.
        let bad = "rrfd-trace v1\nn 2\ndecisions - -\n";
        assert!(bad.parse::<RunTrace>().is_err());
        // Each malformed input names its offending line.
        let line_of = |text: &str| text.parse::<RunTrace>().map_err(|e| e.line);
        // Round lines out of order.
        let bad = "rrfd-trace v1\nn 2\nround 7\nd - -\ns - -\nround 3\nd - -\ns - -\n\
                   outcome aborted\n";
        assert_eq!(line_of(bad), Err(3));
        let bad = "rrfd-trace v1\nn 2\nround 1\nd - -\ns - -\nround 3\nd - -\ns - -\n\
                   outcome aborted\n";
        assert_eq!(line_of(bad), Err(6));
        // A `d` line with no `round` line before it.
        let bad = "rrfd-trace v1\nn 2\nd - -\ns - -\noutcome aborted\n";
        assert_eq!(line_of(bad), Err(3));
        let bad = "rrfd-trace v1\nn 2\nround 1\nd - -\ns - -\nd - -\ns - -\noutcome aborted\n";
        assert_eq!(line_of(bad), Err(6));
        // Two round lines for one round.
        let bad = "rrfd-trace v1\nn 2\nround 1\nround 2\nd - -\ns - -\noutcome aborted\n";
        assert_eq!(line_of(bad), Err(4));
        // A repeated `decisions` or `outcome` line.
        let bad = "rrfd-trace v1\nn 2\ndecisions 1 -\ndecisions - -\noutcome aborted\n";
        assert_eq!(line_of(bad), Err(4));
        let bad = "rrfd-trace v1\nn 2\ndecisions - -\noutcome aborted\noutcome limit max=3\n";
        assert_eq!(line_of(bad), Err(5));
    }
}

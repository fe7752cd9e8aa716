//! Runtime event logs: fine-grained records of *how* an engine executed.
//!
//! A [`RunTrace`](crate::RunTrace) records what the adversary did; an
//! [`EventLog`] records what the **runtime** did — every channel send and
//! receive, every detector consultation, every access to coordinator-owned
//! shared state. The threaded runtime emits one (behind its `analyze`
//! feature) so that `rrfd-analyze races` can rebuild the happens-before
//! partial order with vector clocks and flag ordering bugs: cross-round
//! message reordering, lock-step violations, and concurrent unsynchronized
//! accesses to shared locations.
//!
//! The text format follows the workspace's line dialect
//! ([`crate::lineformat`]):
//!
//! ```text
//! rrfd-events v1
//! n 3
//! p0 emit r=1
//! c gather from=0 r=1
//! c detect r=1
//! c access loc=pattern rw=w
//! c deliver to=0 r=1
//! p0 receive r=1
//! p0 decide r=1
//! ```
//!
//! Happens-before is induced by program order within an actor plus the
//! message edges `emit → gather` (matched on `(process, round)`) and
//! `deliver → receive` (matched on `(process, round)`); the log's physical
//! line order is *not* an ordering claim, which is what makes the race
//! analysis sound even though the log itself is gathered through a lock.

use crate::id::{ProcessId, Round, SystemSize};
use crate::lineformat::{body_lines, parse_kv, parse_process_id, LineError};
use std::fmt;
use std::str::FromStr;

/// Who performed a runtime event: the coordinator thread or one of the `n`
/// process threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Actor {
    /// The coordinator (the thread driving the gather/deliver loop).
    Coordinator,
    /// A process thread.
    Process(ProcessId),
}

impl fmt::Display for Actor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Actor::Coordinator => f.write_str("c"),
            Actor::Process(p) => write!(f, "p{}", p.index()),
        }
    }
}

impl Actor {
    fn parse(token: &str) -> Result<Self, String> {
        if token == "c" {
            return Ok(Actor::Coordinator);
        }
        token
            .strip_prefix('p')
            .ok_or_else(|| format!("bad actor {token:?}"))
            .and_then(parse_process_id)
            .map(Actor::Process)
    }
}

/// One runtime event. The actor is carried by the enclosing [`RtEvent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtEventKind {
    /// A process sent its round-`round` emission to the coordinator.
    Emit {
        /// The round being emitted for.
        round: Round,
    },
    /// The coordinator received `from`'s round-`round` emission.
    Gather {
        /// The emitting process.
        from: ProcessId,
        /// The round the emission belongs to.
        round: Round,
    },
    /// The coordinator consulted the fault detector for `round`.
    Detect {
        /// The round being decided by the detector.
        round: Round,
    },
    /// The coordinator sent the round-`round` delivery to `to`.
    Deliver {
        /// The receiving process.
        to: ProcessId,
        /// The round being delivered.
        round: Round,
    },
    /// A process received its round-`round` delivery.
    Receive {
        /// The round received.
        round: Round,
    },
    /// A process decided in `round`.
    Decide {
        /// The decision round.
        round: Round,
    },
    /// An access to a named shared location (coordinator state such as
    /// `pattern` or `decisions`). Two accesses to the same location, at
    /// least one a write, with no happens-before order between them are a
    /// data race.
    Access {
        /// The location name (no whitespace).
        loc: String,
        /// `true` for a write, `false` for a read.
        write: bool,
    },
}

/// One line of an [`EventLog`]: who did what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RtEvent {
    /// The acting thread.
    pub actor: Actor,
    /// What it did.
    pub kind: RtEventKind,
}

impl fmt::Display for RtEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ", self.actor)?;
        match &self.kind {
            RtEventKind::Emit { round } => write!(f, "emit r={}", round.get()),
            RtEventKind::Gather { from, round } => {
                write!(f, "gather from={} r={}", from.index(), round.get())
            }
            RtEventKind::Detect { round } => write!(f, "detect r={}", round.get()),
            RtEventKind::Deliver { to, round } => {
                write!(f, "deliver to={} r={}", to.index(), round.get())
            }
            RtEventKind::Receive { round } => write!(f, "receive r={}", round.get()),
            RtEventKind::Decide { round } => write!(f, "decide r={}", round.get()),
            RtEventKind::Access { loc, write } => {
                write!(f, "access loc={loc} rw={}", if *write { "w" } else { "r" })
            }
        }
    }
}

fn parse_round(token: &str) -> Result<Round, String> {
    let r: u32 = parse_kv(token, "r")?
        .parse()
        .map_err(|_| format!("bad round in {token:?}"))?;
    if r == 0 {
        return Err("round numbers start at 1".to_owned());
    }
    Ok(Round::new(r))
}

impl RtEvent {
    fn parse(line: &str) -> Result<Self, String> {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let (&actor, &verb) = match tokens.as_slice() {
            [actor, verb, ..] => (actor, verb),
            _ => return Err(format!("truncated event {line:?}")),
        };
        let actor = Actor::parse(actor)?;
        let args = &tokens[2..];
        let kind = match (verb, args) {
            ("emit", [r]) => RtEventKind::Emit {
                round: parse_round(r)?,
            },
            ("gather", [from, r]) => RtEventKind::Gather {
                from: parse_process_id(parse_kv(from, "from")?)?,
                round: parse_round(r)?,
            },
            ("detect", [r]) => RtEventKind::Detect {
                round: parse_round(r)?,
            },
            ("deliver", [to, r]) => RtEventKind::Deliver {
                to: parse_process_id(parse_kv(to, "to")?)?,
                round: parse_round(r)?,
            },
            ("receive", [r]) => RtEventKind::Receive {
                round: parse_round(r)?,
            },
            ("decide", [r]) => RtEventKind::Decide {
                round: parse_round(r)?,
            },
            ("access", [loc, rw]) => RtEventKind::Access {
                loc: parse_kv(loc, "loc")?.to_owned(),
                write: match parse_kv(rw, "rw")? {
                    "w" => true,
                    "r" => false,
                    other => return Err(format!("bad access mode {other:?}")),
                },
            },
            _ => return Err(format!("unrecognised event {line:?}")),
        };
        Ok(RtEvent { actor, kind })
    }
}

/// A serializable sequence of runtime events over an `n`-process system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventLog {
    n: SystemSize,
    events: Vec<RtEvent>,
}

impl EventLog {
    /// An empty log for a system of `n` processes.
    #[must_use]
    pub fn new(n: SystemSize) -> Self {
        EventLog {
            n,
            events: Vec::new(),
        }
    }

    /// The system size the log was recorded over.
    #[must_use]
    pub fn system_size(&self) -> SystemSize {
        self.n
    }

    /// Appends one event.
    pub fn push(&mut self, event: RtEvent) {
        self.events.push(event);
    }

    /// The recorded events, in log order (which carries no happens-before
    /// meaning of its own).
    #[must_use]
    pub fn events(&self) -> &[RtEvent] {
        &self.events
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl fmt::Display for EventLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "rrfd-events v1")?;
        writeln!(f, "n {}", self.n.get())?;
        for event in &self.events {
            writeln!(f, "{event}")?;
        }
        Ok(())
    }
}

impl FromStr for EventLog {
    type Err = LineError;

    fn from_str(text: &str) -> Result<Self, Self::Err> {
        let mut lines = body_lines(text, "rrfd-events v1")?;
        let (lno, n_line) = lines
            .next()
            .ok_or_else(|| LineError::new(0, "missing `n` line"))?;
        let n_val: usize = n_line
            .strip_prefix("n ")
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| LineError::new(lno, "expected `n <size>`"))?;
        let n = SystemSize::new(n_val)
            .map_err(|e| LineError::new(lno, format!("bad system size: {e}")))?;
        let mut log = EventLog::new(n);
        for (lno, line) in lines {
            let event = RtEvent::parse(line).map_err(|message| LineError::new(lno, message))?;
            let actor = match event.actor {
                Actor::Process(p) => Some(("actor p", p)),
                Actor::Coordinator => None,
            };
            let peer = match event.kind {
                RtEventKind::Gather { from, .. } => Some(("from=", from)),
                RtEventKind::Deliver { to, .. } => Some(("to=", to)),
                _ => None,
            };
            for (role, p) in actor.into_iter().chain(peer) {
                if !n.contains(p) {
                    return Err(LineError::new(
                        lno,
                        format!("{role}{} outside the {n_val}-process universe", p.index()),
                    ));
                }
            }
            log.push(event);
        }
        Ok(log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: usize) -> SystemSize {
        SystemSize::new(v).unwrap()
    }

    fn sample() -> EventLog {
        let mut log = EventLog::new(n(2));
        let r1 = Round::new(1);
        log.push(RtEvent {
            actor: Actor::Process(ProcessId::new(0)),
            kind: RtEventKind::Emit { round: r1 },
        });
        log.push(RtEvent {
            actor: Actor::Coordinator,
            kind: RtEventKind::Gather {
                from: ProcessId::new(0),
                round: r1,
            },
        });
        log.push(RtEvent {
            actor: Actor::Coordinator,
            kind: RtEventKind::Detect { round: r1 },
        });
        log.push(RtEvent {
            actor: Actor::Coordinator,
            kind: RtEventKind::Access {
                loc: "pattern".to_owned(),
                write: true,
            },
        });
        log.push(RtEvent {
            actor: Actor::Coordinator,
            kind: RtEventKind::Deliver {
                to: ProcessId::new(0),
                round: r1,
            },
        });
        log.push(RtEvent {
            actor: Actor::Process(ProcessId::new(0)),
            kind: RtEventKind::Receive { round: r1 },
        });
        log.push(RtEvent {
            actor: Actor::Process(ProcessId::new(0)),
            kind: RtEventKind::Decide { round: r1 },
        });
        log
    }

    #[test]
    fn round_trips_through_text() {
        let log = sample();
        let text = log.to_string();
        assert!(
            text.starts_with("rrfd-events v1\nn 2\np0 emit r=1\n"),
            "{text}"
        );
        let back: EventLog = text.parse().unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn malformed_logs_are_rejected() {
        assert!("".parse::<EventLog>().is_err());
        assert!("rrfd-events v1\n".parse::<EventLog>().is_err());
        assert!("rrfd-events v1\nn 0\n".parse::<EventLog>().is_err());
        // Unknown verb.
        let e = "rrfd-events v1\nn 2\np0 teleport r=1\n"
            .parse::<EventLog>()
            .unwrap_err();
        assert_eq!(e.line, 3);
        // Actor outside the universe.
        assert!("rrfd-events v1\nn 2\np5 emit r=1\n"
            .parse::<EventLog>()
            .is_err());
        // Peers outside the universe, named with their line.
        for (text, what) in [
            (
                "rrfd-events v1\nn 3\nc gather from=9 r=1\n",
                "from=9 outside",
            ),
            ("rrfd-events v1\nn 3\nc deliver to=7 r=1\n", "to=7 outside"),
        ] {
            let e = text.parse::<EventLog>().unwrap_err();
            assert_eq!(e.line, 3);
            assert!(e.to_string().contains(what), "{e}");
        }
        // Round zero.
        assert!("rrfd-events v1\nn 2\np0 emit r=0\n"
            .parse::<EventLog>()
            .is_err());
        // Bad access mode.
        assert!("rrfd-events v1\nn 2\nc access loc=x rw=q\n"
            .parse::<EventLog>()
            .is_err());
    }

    #[test]
    fn every_kind_round_trips() {
        let log = sample();
        for event in log.events() {
            let reparsed = RtEvent::parse(&event.to_string()).unwrap();
            assert_eq!(&reparsed, event);
        }
    }
}

//! The runtime event log: what the threaded harness did, event by event.
//!
//! When an [`EventSink`] is installed, the coordinator and every process
//! thread record each channel send/receive, detector consultation, and
//! shared-state access into it, as one [`EventLog`] (the `rrfd-events v1`
//! capture format) for the happens-before race checker in
//! `rrfd-analyze races`; `rrfd-analyze stats` tabulates the same log per
//! round, so the log is the one record of these events.
//!
//! An [`EventSink`] is a mutex around a log; the lock serializes
//! *recording*, but the analysis derives ordering only from the semantic
//! edges (program order, emit → gather, deliver → receive), never from log
//! order, so the lock does not mask races in the analyzed execution.

use rrfd_core::{Actor, EventLog, RtEvent, RtEventKind, SystemSize};
use std::sync::{Arc, Mutex};

/// A cloneable, thread-safe collector of runtime events.
#[derive(Debug, Clone)]
pub struct EventSink {
    inner: Arc<Mutex<EventLog>>,
}

impl EventSink {
    /// Creates an empty sink for a system of `n` processes.
    #[must_use]
    pub fn new(n: SystemSize) -> Self {
        EventSink {
            inner: Arc::new(Mutex::new(EventLog::new(n))),
        }
    }

    /// Records one event. Never panics: a poisoned lock (a recording
    /// thread died mid-push) is recovered, since the log stays
    /// structurally valid.
    pub fn record(&self, actor: Actor, kind: RtEventKind) {
        let mut log = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        log.push(RtEvent { actor, kind });
    }

    /// A snapshot of everything recorded so far.
    #[must_use]
    pub fn snapshot(&self) -> EventLog {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrfd_core::{ProcessId, Round};

    #[test]
    fn records_across_clones() {
        let n = SystemSize::new(2).unwrap();
        let sink = EventSink::new(n);
        let other = sink.clone();
        other.record(
            Actor::Process(ProcessId::new(0)),
            RtEventKind::Emit {
                round: Round::new(1),
            },
        );
        sink.record(
            Actor::Coordinator,
            RtEventKind::Gather {
                from: ProcessId::new(0),
                round: Round::new(1),
            },
        );
        let log = sink.snapshot();
        assert_eq!(log.len(), 2);
        assert_eq!(log.system_size(), n);
    }
}

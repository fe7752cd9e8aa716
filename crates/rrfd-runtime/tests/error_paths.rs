//! Error-path coverage for the threaded runtime: a worker that dies
//! mid-run must surface as a typed error — at once and with its panic
//! message when it panicked, after the gather timeout when it is wedged —
//! instead of hanging the coordinator.

use rrfd_core::{AnyPattern, Control, Delivery, ProcessId, Round, RoundProtocol, SystemSize};
use rrfd_models::adversary::NoFailures;
use rrfd_runtime::{ThreadedEngine, ThreadedError};
use std::time::{Duration, Instant};

fn n(v: usize) -> SystemSize {
    SystemSize::new(v).unwrap()
}

/// Panics inside `emit` once the given round is reached (for one chosen
/// process). Dying in `emit` means the coordinator never gets the round's
/// emission: only the worker's death notice tells it why.
struct DiesEmitting {
    me: u64,
    victim: bool,
    at_round: u32,
}

impl RoundProtocol for DiesEmitting {
    type Msg = u64;
    type Output = u64;
    fn emit(&mut self, r: Round) -> u64 {
        if self.victim && r.get() >= self.at_round {
            panic!("emit exploded at round {}", r.get());
        }
        self.me
    }
    fn deliver(&mut self, d: Delivery<'_, u64>) -> Control<u64> {
        if d.round.get() >= 10 {
            Control::Decide(self.me)
        } else {
            Control::Continue
        }
    }
}

#[test]
fn gather_timeout_turns_a_dead_worker_into_a_typed_error() {
    let size = n(3);
    let protos: Vec<_> = (0..3)
        .map(|i| DiesEmitting {
            me: i,
            victim: i == 2,
            at_round: 2,
        })
        .collect();
    let err = ThreadedEngine::new(size)
        .gather_timeout(Duration::from_millis(200))
        .run(protos, &mut NoFailures::new(size), &AnyPattern::new(size))
        .unwrap_err();
    match err {
        ThreadedError::ProcessPanicked { process, message } => {
            assert_eq!(process, ProcessId::new(2));
            assert!(message.contains("emit exploded at round 2"), "{message}");
        }
        other => panic!("expected ProcessPanicked, got {other}"),
    }
}

/// A panic is reported when it happens, not when the gather timeout
/// expires: the peers' sender clones keep the emission channel open, so
/// only the dying worker's own notice can end the wait early.
#[test]
fn panic_is_reported_at_once_not_after_the_gather_timeout() {
    let size = n(3);
    let protos: Vec<_> = (0..3)
        .map(|i| DiesEmitting {
            me: i,
            victim: i == 1,
            at_round: 2,
        })
        .collect();
    let start = Instant::now();
    let err = ThreadedEngine::new(size)
        .gather_timeout(Duration::from_secs(30))
        .run(protos, &mut NoFailures::new(size), &AnyPattern::new(size))
        .unwrap_err();
    let elapsed = start.elapsed();
    assert!(
        matches!(err, ThreadedError::ProcessPanicked { process, .. } if process == ProcessId::new(1)),
        "expected p1's panic, got {err}"
    );
    assert!(elapsed < Duration::from_secs(1), "took {elapsed:?}");
}

/// Blocks in `emit` for longer than the gather timeout in round 1 (one
/// chosen process): a wedged thread, not a dead one.
struct Wedged {
    victim: bool,
}

impl RoundProtocol for Wedged {
    type Msg = ();
    type Output = ();
    fn emit(&mut self, _r: Round) {
        if self.victim {
            std::thread::sleep(Duration::from_millis(300));
        }
    }
    fn deliver(&mut self, _d: Delivery<'_, ()>) -> Control<()> {
        Control::Decide(())
    }
}

#[test]
fn wedged_worker_is_reported_dead_after_the_gather_timeout() {
    let size = n(2);
    let err = ThreadedEngine::new(size)
        .gather_timeout(Duration::from_millis(50))
        .run(
            vec![Wedged { victim: false }, Wedged { victim: true }],
            &mut NoFailures::new(size),
            &AnyPattern::new(size),
        )
        .unwrap_err();
    assert!(
        matches!(err, ThreadedError::ProcessDied { process } if process == ProcessId::new(1)),
        "expected p1 reported dead, got {err}"
    );
}

/// Panics with a non-string payload; the death notice can only carry a
/// placeholder message.
struct PanicsWithValue;

impl RoundProtocol for PanicsWithValue {
    type Msg = ();
    type Output = ();
    fn emit(&mut self, _r: Round) {}
    fn deliver(&mut self, d: Delivery<'_, ()>) -> Control<()> {
        if d.me == ProcessId::new(0) {
            std::panic::panic_any(42u32);
        }
        Control::Continue
    }
}

#[test]
fn non_string_panic_payloads_get_a_placeholder_message() {
    let size = n(2);
    let err = ThreadedEngine::new(size)
        .gather_timeout(Duration::from_millis(200))
        .max_rounds(5)
        .run(
            vec![PanicsWithValue, PanicsWithValue],
            &mut NoFailures::new(size),
            &AnyPattern::new(size),
        )
        .unwrap_err();
    match err {
        ThreadedError::ProcessPanicked { process, message } => {
            assert_eq!(process, ProcessId::new(0));
            assert_eq!(message, "non-string panic payload");
        }
        other => panic!("expected ProcessPanicked, got {other}"),
    }
}

#[test]
fn wrong_process_count_is_rejected_up_front() {
    let size = n(3);
    let err = ThreadedEngine::new(size)
        .run(
            vec![PanicsWithValue],
            &mut NoFailures::new(size),
            &AnyPattern::new(size),
        )
        .unwrap_err();
    assert!(matches!(
        err,
        ThreadedError::WrongProcessCount {
            supplied: 1,
            expected: 3
        }
    ));
}

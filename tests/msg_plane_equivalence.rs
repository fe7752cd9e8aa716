//! Differential proof that the zero-copy message plane is behaviorally
//! invisible.
//!
//! Each test pits a zero-copy substrate against a reference runner with
//! the seed's per-recipient-clone semantics and demands *exact* equality:
//!
//! * `Engine` (Arc-free shared emission table) vs the `ClonePlaneEngine`
//!   oracle (`oracles/clone_plane.rs`) — byte-identical `RunTrace`s and
//!   identical decisions, on deciding runs, adversary violations, and
//!   round-limit runs alike.
//! * `ThreadedEngine` (one `Arc` table per round, `n` reference counts)
//!   vs `Engine`, on the copy-on-write full-information protocol.
//! * The semi-synchronous, synchronous-network, and asynchronous-network
//!   simulators vs inline clone-plane re-implementations of their seed
//!   delivery loops, including injected crashes, plus a
//!   `Recording` → `ScheduleReplay` round trip on the semi-sync schedule.
//!
//! If sharing a payload could ever change what a protocol observes, one
//! of these diffs would catch it.

#[path = "oracles/clone_plane.rs"]
mod clone_plane;

use clone_plane::ClonePlaneEngine;
use proptest::prelude::*;
use rrfd::core::{
    AnyPattern, Control, Delivery, Engine, EngineError, FaultPattern, IdSet, KnowledgeProtocol,
    ProcessId, Round, RoundFaults, RoundProtocol, SystemSize,
};
use rrfd::models::adversary::{RandomAdversary, ReplayDetector};
use rrfd::models::predicates::KUncertainty;
use rrfd::runtime::ThreadedEngine;
use rrfd::sims::async_net::{AsyncNetSim, AsyncProcess, Outbox};
use rrfd::sims::semi_sync::{SemiSyncProcess, SemiSyncSim};
use rrfd::sims::step::{RandomScheduler, StepEvent, StepScheduler};
use rrfd::sims::sync_net::{RandomCrash, SyncFaults, SyncNetSim};
use rrfd::sims::trace::{Recording, ScheduleReplay};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

fn size(n: usize) -> SystemSize {
    SystemSize::new(n).unwrap()
}

// ---------------------------------------------------------------------------
// Engine vs ClonePlaneEngine
// ---------------------------------------------------------------------------

/// Sums every visible payload each round; decides after `rounds` rounds.
/// The accumulator depends on exactly which messages were observable, so
/// any masking difference between the planes shows up in the decision.
#[derive(Debug, Clone)]
struct SumHeard {
    rounds: u32,
    acc: u64,
    me: u64,
}

impl RoundProtocol for SumHeard {
    type Msg = u64;
    type Output = u64;
    fn emit(&mut self, round: Round) -> u64 {
        self.me * 31 + u64::from(round.get())
    }
    fn deliver(&mut self, d: Delivery<'_, u64>) -> Control<u64> {
        self.acc += d.values().sum::<u64>();
        if d.round.get() >= self.rounds {
            Control::Decide(self.acc)
        } else {
            Control::Continue
        }
    }
}

fn sum_heard(n: usize, rounds: u32) -> Vec<SumHeard> {
    (0..n)
        .map(|i| SumHeard {
            rounds,
            acc: 0,
            me: i as u64 + 1,
        })
        .collect()
}

proptest! {
    #[test]
    fn engine_is_trace_identical_to_the_clone_plane(
        n in 2usize..=8,
        rounds in 1u32..=5,
        k in 1usize..=3,
        seed in 0u64..256,
    ) {
        let sz = size(n);
        let k = k.min(n - 1).max(1);
        let model = KUncertainty::new(sz, k);

        let (shared, shared_trace) = Engine::new(sz).run_traced(
            sum_heard(n, rounds),
            &mut RandomAdversary::new(model, seed),
            &model,
        );
        let (cloned, cloned_trace) = ClonePlaneEngine::new(sz).run_traced(
            sum_heard(n, rounds),
            &mut RandomAdversary::new(model, seed),
            &model,
        );

        let shared = shared.unwrap();
        let cloned = cloned.unwrap();
        prop_assert_eq!(shared_trace.to_string(), cloned_trace.to_string());
        prop_assert_eq!(&shared_trace, &cloned_trace);
        prop_assert_eq!(shared.decisions, cloned.decisions);
        prop_assert_eq!(shared.pattern, cloned.pattern);
        prop_assert_eq!(shared.rounds_executed, cloned.rounds_executed);
    }

    #[test]
    fn full_info_cow_matches_the_clone_plane(
        n in 2usize..=8,
        rounds in 1u32..=4,
        seed in 0u64..128,
    ) {
        let sz = size(n);
        let k = (n - 1).clamp(1, 2);
        let model = KUncertainty::new(sz, k);
        let build = || -> Vec<KnowledgeProtocol<u64>> {
            sz.processes()
                .map(|p| KnowledgeProtocol::new(sz, p, 700 + p.index() as u64, rounds))
                .collect()
        };

        let (shared, shared_trace) = Engine::new(sz).run_traced(
            build(),
            &mut RandomAdversary::new(model, seed),
            &model,
        );
        let (cloned, cloned_trace) = ClonePlaneEngine::new(sz).run_traced(
            build(),
            &mut RandomAdversary::new(model, seed),
            &model,
        );

        prop_assert_eq!(shared_trace.to_string(), cloned_trace.to_string());
        let shared = shared.unwrap();
        let cloned = cloned.unwrap();
        prop_assert_eq!(shared.outputs(), cloned.outputs());
        prop_assert_eq!(shared.pattern, cloned.pattern);
    }
}

#[test]
fn planes_agree_on_adversary_violations() {
    // A clean round followed by an ill-formed round (p1 suspects everyone,
    // voiding the covering property). Both planes must fail identically
    // and both traces must keep the offending round as evidence.
    let sz = size(4);
    let mut bad = RoundFaults::none(sz);
    bad.set(ProcessId::new(1), IdSet::universe(sz));
    let script = vec![RoundFaults::none(sz), bad];

    let (shared, shared_trace) = Engine::new(sz).run_traced(
        sum_heard(4, 10),
        &mut ReplayDetector::from_rounds(sz, script.clone()),
        &AnyPattern::new(sz),
    );
    let (cloned, cloned_trace) = ClonePlaneEngine::new(sz).run_traced(
        sum_heard(4, 10),
        &mut ReplayDetector::from_rounds(sz, script),
        &AnyPattern::new(sz),
    );

    assert!(matches!(shared, Err(EngineError::Violation(_))));
    assert_eq!(shared.unwrap_err(), cloned.unwrap_err());
    assert_eq!(shared_trace.to_string(), cloned_trace.to_string());
    assert_eq!(shared_trace, cloned_trace);
    assert_eq!(shared_trace.rounds().len(), 2);
}

#[test]
fn planes_agree_on_round_limit_runs() {
    let sz = size(3);
    let model = KUncertainty::new(sz, 1);
    // rounds = 100 with max_rounds(4): nobody ever decides.
    let (shared, shared_trace) = Engine::new(sz).max_rounds(4).run_traced(
        sum_heard(3, 100),
        &mut RandomAdversary::new(model, 11),
        &model,
    );
    let (cloned, cloned_trace) = ClonePlaneEngine::new(sz).max_rounds(4).run_traced(
        sum_heard(3, 100),
        &mut RandomAdversary::new(model, 11),
        &model,
    );
    assert_eq!(
        shared.unwrap_err(),
        EngineError::RoundLimitExceeded { max_rounds: 4 }
    );
    assert_eq!(
        cloned.unwrap_err(),
        EngineError::RoundLimitExceeded { max_rounds: 4 }
    );
    assert_eq!(shared_trace.to_string(), cloned_trace.to_string());
}

// ---------------------------------------------------------------------------
// ThreadedEngine (Arc table plane) vs Engine
// ---------------------------------------------------------------------------

#[test]
fn threaded_arc_plane_matches_the_engine_on_full_info() {
    let sz = size(5);
    let model = KUncertainty::new(sz, 2);
    let build = || -> Vec<KnowledgeProtocol<u64>> {
        sz.processes()
            .map(|p| KnowledgeProtocol::new(sz, p, 40 + p.index() as u64, 3))
            .collect()
    };
    for seed in 0..6u64 {
        let (threaded, threaded_trace) = ThreadedEngine::new(sz).run_traced(
            build(),
            &mut RandomAdversary::new(model, seed),
            &model,
        );
        let (inproc, inproc_trace) =
            Engine::new(sz).run_traced(build(), &mut RandomAdversary::new(model, seed), &model);
        assert_eq!(
            threaded_trace.to_string(),
            inproc_trace.to_string(),
            "seed {seed}"
        );
        let threaded = threaded.unwrap();
        let inproc = inproc.unwrap();
        assert_eq!(threaded.outputs(), inproc.outputs(), "seed {seed}");
    }
}

// ---------------------------------------------------------------------------
// Semi-synchronous simulator: Arc inboxes vs per-inbox deep copies
// ---------------------------------------------------------------------------

/// Gossips its known value set (a heap payload, so clone volume is real);
/// decides the sorted set after a fixed number of its own steps.
#[derive(Debug, Clone)]
struct Gossip {
    budget: u64,
    steps: u64,
    seen: BTreeSet<u64>,
}

impl Gossip {
    fn fleet(n: usize, budget: u64) -> Vec<Gossip> {
        (0..n)
            .map(|i| Gossip {
                budget,
                steps: 0,
                seen: BTreeSet::from([i as u64 + 50]),
            })
            .collect()
    }
}

impl SemiSyncProcess for Gossip {
    type Msg = Vec<u64>;
    type Output = Vec<u64>;
    fn step(
        &mut self,
        received: &[(ProcessId, Arc<Vec<u64>>)],
    ) -> (Option<Vec<u64>>, Control<Vec<u64>>) {
        for (_, msg) in received {
            self.seen.extend(msg.iter().copied());
        }
        self.steps += 1;
        let broadcast = Some(self.seen.iter().copied().collect());
        if self.steps >= self.budget {
            (
                broadcast,
                Control::Decide(self.seen.iter().copied().collect()),
            )
        } else {
            (broadcast, Control::Continue)
        }
    }
}

/// The per-process outcome of a semi-sync reference run: the decided
/// value paired with the step count it decided at.
type SemiSyncOutputs<P> = Vec<Option<(<P as SemiSyncProcess>::Output, u64)>>;

/// The seed's semi-sync delivery loop: owned inboxes, a broadcast deep-
/// copied into every inbox, each delivery wrapped in its own fresh `Arc`.
/// Mirrors `SemiSyncExecution` event for event.
fn run_semi_sync_clone_plane<P, S>(
    n: SystemSize,
    max_steps: u64,
    mut processes: Vec<P>,
    scheduler: &mut S,
) -> (SemiSyncOutputs<P>, IdSet, u64)
where
    P: SemiSyncProcess,
    S: StepScheduler,
{
    let count = n.get();
    assert_eq!(processes.len(), count);
    let mut inboxes: Vec<VecDeque<(ProcessId, P::Msg)>> =
        (0..count).map(|_| VecDeque::new()).collect();
    let mut outputs: Vec<Option<(P::Output, u64)>> = (0..count).map(|_| None).collect();
    let mut step_counts = vec![0u64; count];
    let mut crashed = IdSet::empty();
    let mut total_steps = 0u64;
    let mut events = 0u64;
    let event_limit = max_steps.saturating_mul(4).saturating_add(1024);

    loop {
        let live: IdSet = (0..count)
            .map(ProcessId::new)
            .filter(|&p| !crashed.contains(p) && outputs[p.index()].is_none())
            .collect();
        if live.is_empty() {
            return (outputs, crashed, total_steps);
        }
        assert!(
            total_steps < max_steps && events < event_limit,
            "clone-plane reference hit the step limit"
        );
        events += 1;
        let enabled: Vec<StepEvent> = live.iter().map(StepEvent::Step).collect();
        match scheduler.next_event(&enabled, total_steps) {
            StepEvent::Deliver { .. } => {}
            StepEvent::Crash(p) => {
                if live.contains(p) {
                    crashed.insert(p);
                }
            }
            StepEvent::Step(p) => {
                if !live.contains(p) {
                    continue;
                }
                total_steps += 1;
                step_counts[p.index()] += 1;
                // One fresh allocation per buffered message: the clone
                // plane never shares.
                let received: Vec<(ProcessId, Arc<P::Msg>)> = inboxes[p.index()]
                    .drain(..)
                    .map(|(from, m)| (from, Arc::new(m)))
                    .collect();
                let (broadcast, verdict) = processes[p.index()].step(&received);
                if let Some(broadcast) = broadcast {
                    for inbox in &mut inboxes {
                        inbox.push_back((p, broadcast.clone()));
                    }
                }
                if let Control::Decide(v) = verdict {
                    let count = step_counts[p.index()];
                    outputs[p.index()].get_or_insert((v, count));
                }
            }
        }
    }
}

#[test]
fn semi_sync_arc_inboxes_match_the_clone_plane() {
    // Record the Arc-plane schedule (with crash injection), then drive the
    // clone-plane reference through the identical schedule: every output,
    // the crash set, and the step totals must coincide. Finally, replaying
    // the schedule through the Arc plane again must reproduce the run and
    // re-record the identical trace.
    let n = 4;
    let sz = size(n);
    let max_steps = 10_000;
    for seed in 0..12u64 {
        let mut recording = Recording::new(RandomScheduler::new(seed, 1).crash_prob(0.05));
        let report = SemiSyncSim::new(sz)
            .max_steps(max_steps)
            .run(Gossip::fleet(n, 3), &mut recording)
            .unwrap();
        let trace = recording.trace();

        let mut replay = ScheduleReplay::from_trace(&trace);
        let (ref_outputs, ref_crashed, ref_steps) =
            run_semi_sync_clone_plane(sz, max_steps, Gossip::fleet(n, 3), &mut replay);
        assert_eq!(report.outputs, ref_outputs, "seed {seed}");
        assert_eq!(report.crashed, ref_crashed, "seed {seed}");
        assert_eq!(report.total_steps, ref_steps, "seed {seed}");

        let mut rerecord = Recording::new(ScheduleReplay::from_trace(&trace));
        let again = SemiSyncSim::new(sz)
            .max_steps(max_steps)
            .run(Gossip::fleet(n, 3), &mut rerecord)
            .unwrap();
        assert_eq!(again.outputs, report.outputs, "seed {seed}");
        assert_eq!(rerecord.trace(), trace, "seed {seed}");
    }
}

// ---------------------------------------------------------------------------
// Synchronous network: shared emission table vs per-recipient clones
// ---------------------------------------------------------------------------

/// The seed's synchronous-round loop: every recipient gets its own
/// deep-copied `received` vector, suspicion derived from the `None` holes.
fn run_sync_net_clone_plane<P, F>(
    n: SystemSize,
    max_rounds: u32,
    mut protocols: Vec<P>,
    mut faults: F,
) -> (Vec<Option<P::Output>>, FaultPattern, IdSet, u32)
where
    P: RoundProtocol,
    F: SyncFaults,
{
    let count = n.get();
    assert_eq!(protocols.len(), count);
    let mut outputs: Vec<Option<P::Output>> = (0..count).map(|_| None).collect();
    let mut pattern = FaultPattern::new(n);

    for round_no in 1..=max_rounds {
        let round = Round::new(round_no);
        let crashed = faults.crashed_by(round);
        let silent = faults.crashed_by(Round::new(round_no.saturating_sub(1).max(1)));
        let silent = if round_no == 1 {
            IdSet::empty()
        } else {
            silent
        };

        let messages: Vec<Option<P::Msg>> = protocols
            .iter_mut()
            .enumerate()
            .map(|(i, p)| (!silent.contains(ProcessId::new(i))).then(|| p.emit(round)))
            .collect();
        let drops = faults.drops(round);

        let mut round_faults = RoundFaults::none(n);
        for i in 0..count {
            let me = ProcessId::new(i);
            if crashed.contains(me) && silent.contains(me) {
                round_faults.set(me, silent - IdSet::singleton(me));
                continue;
            }
            // Per-recipient materialization: clone each surviving message.
            let received: Vec<Option<P::Msg>> = messages
                .iter()
                .enumerate()
                .map(|(s, m)| {
                    if drops[s].contains(me) {
                        None
                    } else {
                        m.clone()
                    }
                })
                .collect();
            let suspected: IdSet = received
                .iter()
                .enumerate()
                .filter(|(_, m)| m.is_none())
                .map(|(j, _)| ProcessId::new(j))
                .collect();
            round_faults.set(me, suspected);
            if let Control::Decide(v) =
                protocols[i].deliver(Delivery::new(round, me, &received, suspected))
            {
                outputs[i].get_or_insert(v);
            }
        }
        pattern.push(round_faults);

        if (0..count).all(|i| outputs[i].is_some() || crashed.contains(ProcessId::new(i))) {
            return (outputs, pattern, crashed, round_no);
        }
    }
    panic!("clone-plane reference hit the round limit");
}

/// Floods the minimum heard value; decides at a fixed round. Carries a
/// `Vec` payload so the clone plane actually allocates.
#[derive(Debug, Clone)]
struct VecFlood {
    rounds: u32,
    best: u64,
}

impl RoundProtocol for VecFlood {
    type Msg = Vec<u64>;
    type Output = u64;
    fn emit(&mut self, _round: Round) -> Vec<u64> {
        vec![self.best; 4]
    }
    fn deliver(&mut self, d: Delivery<'_, Vec<u64>>) -> Control<u64> {
        for msg in d.values() {
            for &v in msg {
                self.best = self.best.min(v);
            }
        }
        if d.round.get() >= self.rounds {
            Control::Decide(self.best)
        } else {
            Control::Continue
        }
    }
}

#[test]
fn sync_net_shared_table_matches_the_clone_plane() {
    let n = 5;
    let sz = size(n);
    let fleet = || -> Vec<VecFlood> {
        (0..n)
            .map(|i| VecFlood {
                rounds: 4,
                best: 200 + i as u64,
            })
            .collect()
    };
    for seed in 0..12u64 {
        // Up to two crash-faulty processes over a 4-round horizon.
        let faulty = IdSet::singleton(ProcessId::new(seed as usize % n))
            .union(IdSet::singleton(ProcessId::new((seed as usize + 2) % n)));
        let shared = SyncNetSim::new(sz)
            .run(fleet(), RandomCrash::new(sz, faulty, 4, seed))
            .unwrap();
        let (ref_outputs, ref_pattern, ref_crashed, ref_rounds) =
            run_sync_net_clone_plane(sz, 64, fleet(), RandomCrash::new(sz, faulty, 4, seed));
        assert_eq!(shared.outputs, ref_outputs, "seed {seed}");
        assert_eq!(shared.pattern, ref_pattern, "seed {seed}");
        assert_eq!(shared.crashed, ref_crashed, "seed {seed}");
        assert_eq!(shared.rounds, ref_rounds, "seed {seed}");
    }
}

// ---------------------------------------------------------------------------
// Asynchronous network: Arc channels vs owned channels
// ---------------------------------------------------------------------------

/// Broadcasts its value set on start; merges everything it hears and
/// decides once it has heard a quorum of distinct senders.
#[derive(Debug)]
struct AsyncGather {
    me: ProcessId,
    quorum: usize,
    heard: IdSet,
    seen: BTreeSet<u64>,
}

impl AsyncGather {
    fn fleet(n: usize, quorum: usize) -> Vec<AsyncGather> {
        (0..n)
            .map(|i| AsyncGather {
                me: ProcessId::new(i),
                quorum,
                heard: IdSet::empty(),
                seen: BTreeSet::new(),
            })
            .collect()
    }
}

impl AsyncProcess for AsyncGather {
    type Msg = Vec<u64>;
    type Output = Vec<u64>;
    fn on_start(&mut self, out: &mut Outbox<Vec<u64>>) {
        out.broadcast(vec![self.me.index() as u64 + 5; 3]);
    }
    fn on_message(
        &mut self,
        _now: u64,
        from: ProcessId,
        msg: Vec<u64>,
        _out: &mut Outbox<Vec<u64>>,
    ) -> Control<Vec<u64>> {
        self.heard.insert(from);
        self.seen.extend(msg);
        if self.heard.len() >= self.quorum {
            Control::Decide(self.seen.iter().copied().collect())
        } else {
            Control::Continue
        }
    }
}

/// The seed's asynchronous loop: channels hold owned messages, a broadcast
/// is deep-copied once per recipient at send time.
fn run_async_net_clone_plane<P, S>(
    n: SystemSize,
    mut processes: Vec<P>,
    scheduler: &mut S,
) -> (Vec<Option<P::Output>>, IdSet, u64)
where
    P: AsyncProcess,
    S: StepScheduler,
{
    // Outbox is Arc-backed now, so the clone plane materializes each send
    // at enqueue time: `Arc::try_unwrap` for targeted sends (refcount 1),
    // a deep clone per recipient for broadcasts — the seed's cost shape.
    let count = n.get();
    assert_eq!(processes.len(), count);
    let mut channels: Vec<Vec<VecDeque<P::Msg>>> = (0..count)
        .map(|_| (0..count).map(|_| VecDeque::new()).collect())
        .collect();
    let mut outputs: Vec<Option<P::Output>> = (0..count).map(|_| None).collect();
    let mut crashed = IdSet::empty();
    let mut deliveries = 0u64;

    let flush =
        |out: Outbox<P::Msg>, from: ProcessId, channels: &mut Vec<Vec<VecDeque<P::Msg>>>| {
            for (to, msg) in out.into_sends() {
                let owned = Arc::try_unwrap(msg).unwrap_or_else(|shared| (*shared).clone());
                channels[from.index()][to.index()].push_back(owned);
            }
        };

    for (i, proc_) in processes.iter_mut().enumerate() {
        let mut out = Outbox::new(n);
        proc_.on_start(&mut out);
        flush(out, ProcessId::new(i), &mut channels);
    }

    loop {
        if (0..count).all(|i| outputs[i].is_some() || crashed.contains(ProcessId::new(i))) {
            return (outputs, crashed, deliveries);
        }
        let busy: Vec<StepEvent> = (0..count)
            .flat_map(|from| (0..count).map(move |to| (from, to)))
            .filter(|&(from, to)| {
                !channels[from][to].is_empty() && !crashed.contains(ProcessId::new(to))
            })
            .map(|(from, to)| StepEvent::Deliver {
                from: ProcessId::new(from),
                to: ProcessId::new(to),
            })
            .collect();
        assert!(!busy.is_empty(), "clone-plane reference went quiescent");

        match scheduler.next_event(&busy, deliveries) {
            StepEvent::Step(_) => {}
            StepEvent::Crash(p) => {
                crashed.insert(p);
            }
            StepEvent::Deliver { from, to } => {
                if crashed.contains(to) {
                    continue;
                }
                let Some(msg) = channels[from.index()][to.index()].pop_front() else {
                    continue;
                };
                deliveries += 1;
                let mut out = Outbox::new(n);
                let verdict = processes[to.index()].on_message(deliveries, from, msg, &mut out);
                flush(out, to, &mut channels);
                if let Control::Decide(v) = verdict {
                    outputs[to.index()].get_or_insert(v);
                }
            }
        }
    }
}

#[test]
fn async_net_arc_channels_match_the_clone_plane() {
    let n = 5;
    let sz = size(n);
    for seed in 0..12u64 {
        // Quorum n − 1 tolerates the single allowed crash.
        let shared = AsyncNetSim::new(sz)
            .run(
                AsyncGather::fleet(n, n - 1),
                &mut RandomScheduler::new(seed, 1).crash_prob(0.01),
            )
            .unwrap();
        let (ref_outputs, ref_crashed, ref_deliveries) = run_async_net_clone_plane(
            sz,
            AsyncGather::fleet(n, n - 1),
            &mut RandomScheduler::new(seed, 1).crash_prob(0.01),
        );
        assert_eq!(shared.outputs, ref_outputs, "seed {seed}");
        assert_eq!(shared.crashed, ref_crashed, "seed {seed}");
        assert_eq!(shared.deliveries, ref_deliveries, "seed {seed}");
    }
}

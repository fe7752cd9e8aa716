//! ABD-style atomic register emulation over asynchronous message passing
//! (Attiya-Bar-Noy-Dolev \[22\]) — the substrate behind §2 item 4's remark
//! that message passing implements shared memory when `2f < n`.
//!
//! Each process owns one single-writer multi-reader register. Operations:
//!
//! * **write(v)** — stamp `v` with a fresh tag `(seq, writer)`, broadcast,
//!   await `n − f` acknowledgements.
//! * **read(owner)** — broadcast a query, await `n − f` replies, select the
//!   maximum tag, then *write back* that (tag, value) pair and await
//!   another `n − f` acknowledgements before returning (the write-back is
//!   what upgrades regularity to atomicity).
//!
//! With `2f < n` any two quorums intersect, so a completed write's tag is
//! visible to every later read. [`AbdClient`] drives a script of operations
//! on the [`rrfd_sims::async_net`] simulator, recording real-time intervals
//! for each completed operation; [`check_atomicity`] verifies the
//! single-writer atomic-register axioms against those intervals.

use rrfd_core::task::Value;
use rrfd_core::{Control, ProcessId, SystemSize};
use rrfd_sims::async_net::{AsyncProcess, Outbox};
use std::collections::BTreeMap;

/// A write tag: sequence number breaks ties by writer, but registers are
/// single-writer so the sequence number alone orders a register's writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Tag {
    /// Writer-local sequence number (0 = initial ⊥).
    pub seq: u64,
    /// The owning writer.
    pub writer: ProcessId,
}

impl Tag {
    fn initial(owner: ProcessId) -> Self {
        Tag {
            seq: 0,
            writer: owner,
        }
    }
}

/// Protocol messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbdMsg {
    /// Store (tag, value) for `register`; acknowledge with the request id.
    Store {
        /// Request identifier (unique per client).
        rid: u64,
        /// Which register.
        register: ProcessId,
        /// The tag.
        tag: Tag,
        /// The value.
        value: Value,
    },
    /// Acknowledge a store.
    StoreAck {
        /// Echoed request identifier.
        rid: u64,
    },
    /// Ask for the stored (tag, value) of `register`.
    Query {
        /// Request identifier.
        rid: u64,
        /// Which register.
        register: ProcessId,
    },
    /// Reply to a query.
    QueryReply {
        /// Echoed request identifier.
        rid: u64,
        /// The stored tag.
        tag: Tag,
        /// The stored value (`None` = still ⊥).
        value: Option<Value>,
    },
}

/// One operation in a client's script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Write `value` to this client's own register.
    Write(Value),
    /// Read the register of `owner`.
    Read(ProcessId),
}

/// A completed operation with its real-time interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRecord {
    /// The operation.
    pub op: Op,
    /// Global delivery stamp at invocation.
    pub start: u64,
    /// Global delivery stamp at completion.
    pub end: u64,
    /// The tag the operation installed (write) or returned (read).
    pub tag: Tag,
    /// The value written or read (`None` = read returned ⊥).
    pub value: Option<Value>,
}

#[derive(Debug, Clone)]
enum ClientPhase {
    Idle,
    /// Waiting for `n − f` store acks (write or read write-back).
    AwaitStoreAcks {
        rid: u64,
        acks: usize,
        record: OpRecord,
    },
    /// Waiting for `n − f` query replies.
    AwaitReplies {
        rid: u64,
        register: ProcessId,
        start: u64,
        best: (Tag, Option<Value>),
        replies: usize,
    },
    Done,
}

/// An ABD client/server process: serves every request and walks its own
/// script of operations.
#[derive(Debug, Clone)]
pub struct AbdClient {
    me: ProcessId,
    quorum: usize,
    /// Replica state: (tag, value) per register.
    store: BTreeMap<ProcessId, (Tag, Option<Value>)>,
    /// Own writer sequence number.
    seq: u64,
    script: Vec<Op>,
    next_op: usize,
    next_rid: u64,
    phase: ClientPhase,
    history: Vec<OpRecord>,
    /// Every write this client *invoked* (tag, value), completed or not —
    /// an incomplete write may still take effect, and the atomicity
    /// checker needs its value to validate reads.
    invoked_writes: Vec<(Tag, Value)>,
}

impl AbdClient {
    /// Creates a client for `me` with an operation `script`, tolerating
    /// `f` crashes.
    ///
    /// A client whose script is empty terminates upon its first received
    /// message; in a workload where *no* client ever sends (all scripts
    /// empty), the run is quiescent and the simulator reports it as such —
    /// give at least one client at least one operation.
    ///
    /// # Panics
    ///
    /// Panics unless `2f < n` — the ABD quorum condition.
    #[must_use]
    pub fn new(me: ProcessId, n: SystemSize, f: usize, script: Vec<Op>) -> Self {
        assert!(2 * f < n.get(), "ABD requires 2f < n");
        let store = n
            .processes()
            .map(|p| (p, (Tag::initial(p), None)))
            .collect();
        AbdClient {
            me,
            quorum: n.get() - f,
            store,
            seq: 0,
            script,
            next_op: 0,
            next_rid: 0,
            phase: ClientPhase::Idle,
            history: Vec::new(),
            invoked_writes: Vec::new(),
        }
    }

    /// The completed-operation history (available after the run).
    #[must_use]
    pub fn history(&self) -> &[OpRecord] {
        &self.history
    }

    /// Every write this client invoked, completed or not.
    #[must_use]
    pub fn invoked_writes(&self) -> &[(Tag, Value)] {
        &self.invoked_writes
    }

    fn fresh_rid(&mut self) -> u64 {
        self.next_rid += 1;
        // Make rids globally unique for debuggability.
        (self.me.index() as u64) << 48 | self.next_rid
    }

    /// Launches the next scripted operation, if idle.
    fn launch(&mut self, now: u64, out: &mut Outbox<AbdMsg>) -> Control<Vec<OpRecord>> {
        if !matches!(self.phase, ClientPhase::Idle) {
            return Control::Continue;
        }
        let Some(&op) = self.script.get(self.next_op) else {
            self.phase = ClientPhase::Done;
            return Control::Decide(self.history.clone());
        };
        self.next_op += 1;
        let rid = self.fresh_rid();
        match op {
            Op::Write(value) => {
                self.seq += 1;
                let tag = Tag {
                    seq: self.seq,
                    writer: self.me,
                };
                self.invoked_writes.push((tag, value));
                self.phase = ClientPhase::AwaitStoreAcks {
                    rid,
                    acks: 0,
                    record: OpRecord {
                        op,
                        start: now,
                        end: now,
                        tag,
                        value: Some(value),
                    },
                };
                out.broadcast(AbdMsg::Store {
                    rid,
                    register: self.me,
                    tag,
                    value,
                });
            }
            Op::Read(register) => {
                self.phase = ClientPhase::AwaitReplies {
                    rid,
                    register,
                    start: now,
                    best: (Tag::initial(register), None),
                    replies: 0,
                };
                out.broadcast(AbdMsg::Query { rid, register });
            }
        }
        Control::Continue
    }

    /// Serves replica duties for a request.
    fn serve(&mut self, from: ProcessId, msg: AbdMsg, out: &mut Outbox<AbdMsg>) {
        match msg {
            AbdMsg::Store {
                rid,
                register,
                tag,
                value,
            } => {
                let entry = self.store.get_mut(&register).expect("register exists");
                if tag > entry.0 {
                    *entry = (tag, Some(value));
                }
                out.send(from, AbdMsg::StoreAck { rid });
            }
            AbdMsg::Query { rid, register } => {
                let &(tag, value) = self.store.get(&register).expect("register exists");
                out.send(from, AbdMsg::QueryReply { rid, tag, value });
            }
            AbdMsg::StoreAck { .. } | AbdMsg::QueryReply { .. } => {
                unreachable!("responses are handled by the client half")
            }
        }
    }
}

impl AsyncProcess for AbdClient {
    type Msg = AbdMsg;
    type Output = Vec<OpRecord>;

    fn on_start(&mut self, out: &mut Outbox<AbdMsg>) {
        let _ = self.launch(0, out);
    }

    fn on_message(
        &mut self,
        now: u64,
        from: ProcessId,
        msg: AbdMsg,
        out: &mut Outbox<AbdMsg>,
    ) -> Control<Vec<OpRecord>> {
        if matches!(self.phase, ClientPhase::Done) {
            // Finished scripts keep serving; re-announce the decision so a
            // client whose script was empty still terminates.
            if matches!(msg, AbdMsg::Store { .. } | AbdMsg::Query { .. }) {
                self.serve(from, msg, out);
            }
            return Control::Decide(self.history.clone());
        }
        match msg {
            AbdMsg::Store { .. } | AbdMsg::Query { .. } => {
                self.serve(from, msg, out);
                return Control::Continue;
            }
            AbdMsg::StoreAck { rid } => {
                if let ClientPhase::AwaitStoreAcks {
                    rid: want,
                    acks,
                    record,
                } = &mut self.phase
                {
                    if rid == *want {
                        *acks += 1;
                        if *acks >= self.quorum {
                            let mut record = *record;
                            record.end = now;
                            self.history.push(record);
                            self.phase = ClientPhase::Idle;
                            return self.launch(now, out);
                        }
                    }
                }
            }
            AbdMsg::QueryReply { rid, tag, value } => {
                if let ClientPhase::AwaitReplies {
                    rid: want,
                    register,
                    start,
                    best,
                    replies,
                } = &mut self.phase
                {
                    if rid == *want {
                        *replies += 1;
                        if tag > best.0 {
                            *best = (tag, value);
                        }
                        if *replies >= self.quorum {
                            // Write back the winning pair, then finish.
                            let register = *register;
                            let start = *start;
                            let (tag, value) = *best;
                            let wb_rid = self.fresh_rid();
                            self.phase = ClientPhase::AwaitStoreAcks {
                                rid: wb_rid,
                                acks: 0,
                                record: OpRecord {
                                    op: Op::Read(register),
                                    start,
                                    end: now,
                                    tag,
                                    value,
                                },
                            };
                            match value {
                                Some(v) => out.broadcast(AbdMsg::Store {
                                    rid: wb_rid,
                                    register,
                                    tag,
                                    value: v,
                                }),
                                // ⊥ needs no write-back; complete at once.
                                None => {
                                    let record = OpRecord {
                                        op: Op::Read(register),
                                        start,
                                        end: now,
                                        tag,
                                        value,
                                    };
                                    self.history.push(record);
                                    self.phase = ClientPhase::Idle;
                                    return self.launch(now, out);
                                }
                            }
                        }
                    }
                }
            }
        }
        Control::Continue
    }
}

/// Violations of the single-writer atomic-register axioms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AtomicityViolation {
    /// A read returned a (tag, value) pair no write produced.
    PhantomValue {
        /// The reading process.
        reader: ProcessId,
        /// The offending record.
        record: OpRecord,
    },
    /// An operation's tag precedes one whose interval finished before this
    /// operation started (stale read / lost write).
    StaleTag {
        /// The earlier operation (by real time).
        earlier: OpRecord,
        /// The later operation that went backwards.
        later: OpRecord,
    },
}

/// Convenience wrapper over [`check_atomicity`] that pulls histories and
/// invoked writes straight from finished clients.
///
/// # Errors
///
/// Returns the first violation found.
#[allow(clippy::result_large_err)] // violations carry full op records for diagnosis
pub fn check_clients(clients: &[AbdClient]) -> Result<(), AtomicityViolation> {
    let histories: Vec<(ProcessId, &[OpRecord])> =
        clients.iter().map(|c| (c.me, c.history())).collect();
    let invoked: Vec<(ProcessId, Tag, Value)> = clients
        .iter()
        .flat_map(|c| c.invoked_writes().iter().map(|&(t, v)| (c.me, t, v)))
        .collect();
    check_atomicity(&histories, &invoked)
}

/// Checks the per-register atomicity axioms over the clients' recorded
/// histories:
///
/// 1. every read's (tag, value) was produced by an actual write (or is the
///    initial ⊥);
/// 2. tags never go backwards across non-overlapping operations on the
///    same register (if `a.end < b.start` then `tag(a) ≤ tag(b)`).
///
/// Together with single-writer tag uniqueness these imply atomicity for
/// this workload shape.
///
/// # Errors
///
/// Returns the first violation found.
#[allow(clippy::result_large_err)] // violations carry full op records for diagnosis
pub fn check_atomicity(
    histories: &[(ProcessId, &[OpRecord])],
    invoked_writes: &[(ProcessId, Tag, Value)],
) -> Result<(), AtomicityViolation> {
    // Index all writes by register: completed ones from the histories plus
    // invoked-but-incomplete ones (which may legally take effect).
    let mut writes: BTreeMap<ProcessId, BTreeMap<Tag, Value>> = BTreeMap::new();
    for (owner, history) in histories {
        for rec in *history {
            if let Op::Write(v) = rec.op {
                writes.entry(*owner).or_default().insert(rec.tag, v);
            }
        }
    }
    for &(owner, tag, value) in invoked_writes {
        writes.entry(owner).or_default().insert(tag, value);
    }

    // Axiom 1: reads return real values.
    for (reader, history) in histories {
        for rec in *history {
            if let Op::Read(register) = rec.op {
                match rec.value {
                    None => {
                        if rec.tag.seq != 0 {
                            return Err(AtomicityViolation::PhantomValue {
                                reader: *reader,
                                record: *rec,
                            });
                        }
                    }
                    Some(v) => {
                        let known = writes.get(&register).and_then(|m| m.get(&rec.tag)).copied();
                        if known != Some(v) {
                            return Err(AtomicityViolation::PhantomValue {
                                reader: *reader,
                                record: *rec,
                            });
                        }
                    }
                }
            }
        }
    }

    // Axiom 2: real-time order respects tag order, per register.
    let mut per_register: BTreeMap<ProcessId, Vec<OpRecord>> = BTreeMap::new();
    for (owner, history) in histories {
        for rec in *history {
            let register = match rec.op {
                Op::Write(_) => *owner,
                Op::Read(r) => r,
            };
            per_register.entry(register).or_default().push(*rec);
        }
    }
    for records in per_register.values() {
        for a in records {
            for b in records {
                if a.end < b.start && a.tag > b.tag {
                    return Err(AtomicityViolation::StaleTag {
                        earlier: *a,
                        later: *b,
                    });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrfd_sims::async_net::AsyncNetSim;
    use rrfd_sims::step::{FairScheduler, RandomScheduler};

    fn n(v: usize) -> SystemSize {
        SystemSize::new(v).unwrap()
    }

    fn run_scripts(
        size: SystemSize,
        f: usize,
        scripts: Vec<Vec<Op>>,
        seed: u64,
        crashes: usize,
    ) -> Vec<AbdClient> {
        let procs: Vec<_> = size
            .processes()
            .map(|p| AbdClient::new(p, size, f, scripts[p.index()].clone()))
            .collect();
        let mut sched = RandomScheduler::new(seed, crashes).crash_prob(0.002);
        let report = AsyncNetSim::new(size).run(procs, &mut sched).unwrap();
        report.processes
    }

    fn assert_atomic(clients: &[AbdClient]) {
        check_clients(clients).unwrap_or_else(|v| panic!("atomicity violated: {v:?}"));
    }

    #[test]
    fn fifo_write_then_read_sees_the_value() {
        let size = n(3);
        let scripts = [
            vec![Op::Write(41), Op::Write(42)],
            vec![Op::Read(ProcessId::new(0))],
            vec![Op::Read(ProcessId::new(0))],
        ];
        let procs: Vec<_> = size
            .processes()
            .map(|p| AbdClient::new(p, size, 1, scripts[p.index()].clone()))
            .collect();
        let report = AsyncNetSim::new(size)
            .run(procs, &mut FairScheduler::new())
            .unwrap();
        assert_atomic(&report.processes);
        // The reads happened concurrently with the writes; each must have
        // returned ⊥, 41 or 42 — checked by the atomicity axioms — and the
        // writer's history carries both writes.
        assert_eq!(report.processes[0].history().len(), 2);
    }

    #[test]
    fn random_schedules_preserve_atomicity() {
        let size = n(5);
        let f = 2;
        let scripts = vec![
            vec![Op::Write(1), Op::Write(2), Op::Read(ProcessId::new(4))],
            vec![Op::Read(ProcessId::new(0)), Op::Read(ProcessId::new(0))],
            vec![Op::Write(7), Op::Read(ProcessId::new(0)), Op::Write(8)],
            vec![Op::Read(ProcessId::new(2)), Op::Read(ProcessId::new(2))],
            vec![Op::Write(9), Op::Read(ProcessId::new(2))],
        ];
        for seed in 0..30u64 {
            let clients = run_scripts(size, f, scripts.clone(), seed, 0);
            assert_atomic(&clients);
            // Everyone finished their whole script.
            for (i, c) in clients.iter().enumerate() {
                assert_eq!(c.history().len(), scripts[i].len(), "seed {seed}");
            }
        }
    }

    #[test]
    fn reads_never_go_backwards_across_readers() {
        // Two readers repeatedly poll the same register while it is
        // written: the write-back phase must prevent new/old inversions
        // among non-overlapping reads.
        let size = n(5);
        let f = 2;
        let scripts = vec![
            vec![Op::Write(1), Op::Write(2), Op::Write(3), Op::Write(4)],
            vec![Op::Read(ProcessId::new(0)); 4],
            vec![Op::Read(ProcessId::new(0)); 4],
            vec![],
            vec![],
        ];
        for seed in 0..30u64 {
            let clients = run_scripts(size, f, scripts.clone(), seed, 0);
            assert_atomic(&clients);
        }
    }

    #[test]
    fn crashes_within_f_do_not_block_completion() {
        let size = n(5);
        let f = 2;
        let scripts: Vec<Vec<Op>> = size
            .processes()
            .map(|p| vec![Op::Write(p.index() as u64), Op::Read(ProcessId::new(0))])
            .collect();
        for seed in 0..20u64 {
            let procs: Vec<_> = size
                .processes()
                .map(|p| AbdClient::new(p, size, f, scripts[p.index()].clone()))
                .collect();
            let mut sched = RandomScheduler::new(seed, f).crash_prob(0.004);
            let report = AsyncNetSim::new(size).run(procs, &mut sched).unwrap();
            assert!(report.all_correct_decided(), "seed {seed}");
            assert_atomic(&report.processes);
        }
    }

    #[test]
    #[should_panic(expected = "2f < n")]
    fn quorum_condition_is_enforced() {
        let _ = AbdClient::new(ProcessId::new(0), n(4), 2, vec![]);
    }

    #[test]
    fn checker_catches_stale_reads() {
        // A fabricated history with a new-old inversion must be rejected.
        let w = ProcessId::new(0);
        let t1 = Tag { seq: 1, writer: w };
        let t2 = Tag { seq: 2, writer: w };
        let writer_history = vec![
            OpRecord {
                op: Op::Write(1),
                start: 0,
                end: 1,
                tag: t1,
                value: Some(1),
            },
            OpRecord {
                op: Op::Write(2),
                start: 2,
                end: 3,
                tag: t2,
                value: Some(2),
            },
        ];
        let reader_history = vec![
            OpRecord {
                op: Op::Read(w),
                start: 4,
                end: 5,
                tag: t2,
                value: Some(2),
            },
            OpRecord {
                op: Op::Read(w),
                start: 6,
                end: 7,
                tag: t1,
                value: Some(1),
            },
        ];
        let histories = vec![
            (w, writer_history.as_slice()),
            (ProcessId::new(1), reader_history.as_slice()),
        ];
        assert!(matches!(
            check_atomicity(&histories, &[]),
            Err(AtomicityViolation::StaleTag { .. })
        ));
    }

    #[test]
    fn checker_catches_phantom_values() {
        let w = ProcessId::new(0);
        let reader_history = vec![OpRecord {
            op: Op::Read(w),
            start: 0,
            end: 1,
            tag: Tag { seq: 3, writer: w },
            value: Some(99),
        }];
        let histories = vec![(ProcessId::new(1), reader_history.as_slice())];
        assert!(matches!(
            check_atomicity(&histories, &[]),
            Err(AtomicityViolation::PhantomValue { .. })
        ));
    }
}

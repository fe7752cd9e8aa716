//! A dependency-free work-stealing deque pool.
//!
//! The DPOR driver produces work dynamically: executing one graph yields
//! race-reversal revisits, each of which is a new graph to execute. Fixed
//! prefix-depth splitting cannot express that — it needs the whole job
//! list up front — so the revisit queue is distributed over per-worker
//! deques instead:
//!
//! * each worker owns a LIFO deque: children it spawns are pushed locally
//!   and popped newest-first, keeping exploration depth-first and the
//!   working set (cloned execution prefixes) small;
//! * an idle worker **steals half** of a victim's deque, oldest-first —
//!   old entries are close to the revisit tree's root and fan out the
//!   most, so stolen batches keep a thief busy longest;
//! * victim selection is a *frozen index map*: worker `w` always probes
//!   `w+1, w+2, …` (mod the worker count) in that order. Which worker
//!   executes an item is still timing-dependent, but nothing about the
//!   *result* may depend on it — the DPOR driver guarantees that by
//!   keying every outcome on content (canonical trace classes), never on
//!   worker identity, so replays are deterministic across worker counts;
//! * each worker owns one *scratch*, built on its first claim and reused
//!   by every job it processes — the DPOR driver keeps its replay state
//!   and buffers there, so an item pays for its own events, not for
//!   allocation.
//!
//! The pool itself is generic: jobs, scratch and results are the
//! caller's types.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// What the pool observed while draining a run. Steal counts are the one
/// genuinely timing-dependent quantity the explorer reports; everything
/// else in [`crate::explore::ExploreStats`] is worker-count-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Successful steal operations (batches moved, not items).
    pub steals: u64,
    /// Workers the pool ran.
    pub workers: usize,
}

/// A work-stealing scheduler over `workers` threads.
#[derive(Debug, Clone, Copy)]
pub struct StealPool {
    workers: usize,
}

impl StealPool {
    /// A pool of `workers` threads (clamped to at least 1).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        StealPool {
            workers: workers.max(1),
        }
    }

    /// The worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Drains `seeds` and everything `process` spawns from them.
    ///
    /// `process` receives the worker's scratch, one job and a spawn
    /// buffer; jobs pushed into the buffer are enqueued on the processing
    /// worker's own deque (LIFO). Seeds are dealt round-robin across the
    /// deques. The call returns once every job — seeded or spawned — has
    /// been processed.
    ///
    /// Each worker builds its scratch with `init` when it claims its
    /// first job, and hands the same scratch to every later job it
    /// claims: buffers a job needs are allocated once per worker, not
    /// once per job. A worker that never claims a job never calls `init`.
    ///
    /// Results must be collected through state captured by `process`
    /// (e.g. a `Mutex<Vec<_>>`), keyed by job *content*, never by worker
    /// identity — that is what keeps outcomes deterministic across worker
    /// counts. For the same reason a job must not leave anything in the
    /// scratch that changes what a later job computes.
    ///
    /// # Panics
    ///
    /// If `process` panics, remaining workers stop at their next claim,
    /// every thread is joined, and the first payload is re-raised.
    pub fn run<J, S, I, F>(&self, seeds: Vec<J>, init: I, process: F) -> PoolStats
    where
        J: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, J, &mut Vec<J>) + Sync,
    {
        let workers = self.workers;
        let deques: Vec<Mutex<VecDeque<J>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        let pending = AtomicUsize::new(seeds.len());
        for (i, seed) in seeds.into_iter().enumerate() {
            deques[i % workers]
                .lock()
                .expect("seed deque poisoned")
                .push_back(seed);
        }
        let steals = AtomicU64::new(0);
        let poisoned = AtomicBool::new(false);
        let payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

        std::thread::scope(|scope| {
            for w in 0..workers {
                let deques = &deques;
                let pending = &pending;
                let steals = &steals;
                let poisoned = &poisoned;
                let payload = &payload;
                let init = &init;
                let process = &process;
                scope.spawn(move || {
                    let mut scratch = None;
                    let mut spawned = Vec::new();
                    loop {
                        if poisoned.load(Ordering::Acquire) {
                            break;
                        }
                        let Some(job) = claim(w, deques, steals) else {
                            if pending.load(Ordering::Acquire) == 0 {
                                break;
                            }
                            std::thread::yield_now();
                            continue;
                        };
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            let scratch = scratch.get_or_insert_with(init);
                            process(scratch, job, &mut spawned);
                        }));
                        if let Err(p) = outcome {
                            payload
                                .lock()
                                .expect("payload mutex poisoned")
                                .get_or_insert(p);
                            poisoned.store(true, Ordering::Release);
                            pending.fetch_sub(1, Ordering::AcqRel);
                            break;
                        }
                        if !spawned.is_empty() {
                            pending.fetch_add(spawned.len(), Ordering::AcqRel);
                            let mut own = deques[w].lock().expect("worker deque poisoned");
                            own.extend(spawned.drain(..));
                        }
                        pending.fetch_sub(1, Ordering::AcqRel);
                    }
                });
            }
        });

        if let Some(p) = payload.lock().expect("payload mutex poisoned").take() {
            resume_unwind(p);
        }
        PoolStats {
            steals: steals.load(Ordering::Acquire),
            workers,
        }
    }
}

/// Pops from `w`'s own deque (LIFO), falling back to stealing half of the
/// first non-empty victim in frozen order `w+1, w+2, …`.
fn claim<J>(w: usize, deques: &[Mutex<VecDeque<J>>], steals: &AtomicU64) -> Option<J> {
    if let Some(job) = deques[w].lock().expect("worker deque poisoned").pop_back() {
        return Some(job);
    }
    let workers = deques.len();
    for offset in 1..workers {
        let victim = (w + offset) % workers;
        let mut batch = {
            let mut vq = deques[victim].lock().expect("victim deque poisoned");
            let len = vq.len();
            if len == 0 {
                continue;
            }
            // Oldest half: entries near the revisit tree's root.
            let take = len.div_ceil(2);
            vq.drain(..take).collect::<VecDeque<J>>()
        };
        steals.fetch_add(1, Ordering::AcqRel);
        let first = batch.pop_front();
        if !batch.is_empty() {
            deques[w]
                .lock()
                .expect("worker deque poisoned")
                .extend(batch);
        }
        return first;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as TestCounter;

    #[test]
    fn drains_static_seeds_once_each() {
        let hits = TestCounter::new(0);
        let sum = TestCounter::new(0);
        let stats = StealPool::new(4).run(
            (1..=100u64).collect(),
            || (),
            |(), job, _spawn| {
                hits.fetch_add(1, Ordering::SeqCst);
                sum.fetch_add(job, Ordering::SeqCst);
            },
        );
        assert_eq!(hits.load(Ordering::SeqCst), 100);
        assert_eq!(sum.load(Ordering::SeqCst), 5050);
        assert_eq!(stats.workers, 4);
    }

    #[test]
    fn spawned_jobs_are_drained_transitively() {
        // Each job n spawns n-1 and n-2 down to 0: the pool must drain the
        // whole recursion tree, not just the seed.
        let hits = TestCounter::new(0);
        StealPool::new(3).run(
            vec![6u32],
            || (),
            |(), job, spawn| {
                hits.fetch_add(1, Ordering::SeqCst);
                if job >= 1 {
                    spawn.push(job - 1);
                }
                if job >= 2 {
                    spawn.push(job - 2);
                }
            },
        );
        // Tree size for this recursion from 6: 1 + fib-like expansion.
        assert!(hits.load(Ordering::SeqCst) > 6);
    }

    #[test]
    fn single_worker_needs_no_stealing() {
        let stats = StealPool::new(1).run(vec![1, 2, 3], || (), |(), _job: u8, _spawn| {});
        assert_eq!(stats.steals, 0);
        assert_eq!(stats.workers, 1);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let hits = TestCounter::new(0);
        let stats = StealPool::new(0).run(
            vec![()],
            || (),
            |(), (), _spawn| {
                hits.fetch_add(1, Ordering::SeqCst);
            },
        );
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert_eq!(stats.workers, 1);
    }

    #[test]
    fn scratch_is_built_once_per_worker_and_persists_across_jobs() {
        for workers in [1, 2, 4] {
            let inits = TestCounter::new(0);
            let hits = TestCounter::new(0);
            // Each scratch is (its id, jobs it has seen); per id the
            // largest count seen is kept.
            let seen = Mutex::new(std::collections::BTreeMap::new());
            StealPool::new(workers).run(
                vec![12u32],
                || (inits.fetch_add(1, Ordering::SeqCst), 0u64),
                |(id, count): &mut (u64, u64), job, spawn| {
                    *count += 1;
                    hits.fetch_add(1, Ordering::SeqCst);
                    seen.lock().unwrap().insert(*id, *count);
                    spawn.extend((job >= 1).then(|| job - 1));
                    spawn.extend((job >= 2).then(|| job - 2));
                },
            );
            let inits = inits.load(Ordering::SeqCst);
            assert!(
                (1..=workers as u64).contains(&inits),
                "{inits} inits for {workers} workers"
            );
            // Every job was counted by exactly one scratch that lived on:
            // the per-scratch counts add up to the jobs run.
            let counted: u64 = seen.into_inner().unwrap().values().sum();
            assert_eq!(counted, hits.load(Ordering::SeqCst));
            assert!(counted > 100 * inits, "never once per job");
        }
    }

    #[test]
    fn panicking_job_drains_and_rethrows() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let inits = TestCounter::new(0);
        let payload = catch_unwind(AssertUnwindSafe(|| {
            StealPool::new(4).run(
                (0..64u32).collect(),
                || {
                    inits.fetch_add(1, Ordering::SeqCst);
                },
                |(), job, _spawn| {
                    if job == 13 {
                        panic!("boom");
                    }
                },
            );
        }))
        .unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("boom"));
        assert!(inits.load(Ordering::SeqCst) <= 4);
    }
}

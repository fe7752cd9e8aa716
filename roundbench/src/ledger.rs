//! Per-layer time accounting for the traced run.
//!
//! Every timing wrapper brackets the call it forwards with [`timed`].
//! Frames nest per thread: a frame's *self* time is its elapsed time minus
//! the elapsed time of the frames opened inside it, so a layer never
//! double-counts a wrapped child (the engine's step excludes the emit,
//! deliver, detect and admit calls it makes, for example).
//!
//! Totals live in slots of relaxed atomic counters, one slot owned by each
//! live thread, so worker threads of the DPOR explorer account without
//! contending or locking. The counters publish no other data; readers take
//! a [`Totals`] snapshot after the threads that wrote them were joined.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// The layers a timing wrapper can charge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `InstanceClass::build` (the pool's mix).
    Build,
    /// `Engine::start` and `EngineRun::run_to_completion`.
    Lifecycle,
    /// `EngineRun::step`.
    Step,
    /// `RoundProtocol::emit`.
    Emit,
    /// `RoundProtocol::deliver`.
    Deliver,
    /// `FaultDetector::next_round`.
    Detect,
    /// `RrfdPredicate::admits`.
    Admit,
    /// `RrfdPredicate::compile`.
    Compile,
    /// The round-hook-fed `ConformanceMonitor` and its retirement fold.
    Conformance,
    /// `Recorder::add`, `gauge` and `observe`.
    ObsRecord,
    /// `Recorder::record_span`.
    ObsSpan,
    /// `Clock::now_ns`.
    ObsClock,
    /// `Obs::snapshot` plus `Obs::spans` at the end of a batch.
    Export,
    /// `SemiSyncProcess::step`.
    SemiStep,
    /// The DPOR `check` callback.
    Check,
    /// The DPOR `make` factory.
    Make,
    /// `Lattice::compute_compiled`.
    Compute,
    /// `lattice::implies` on one refuted pair.
    Witness,
    /// `Lattice::render_markdown`.
    Render,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 19;

const SLOTS: usize = 64;
const CELLS: usize = LAYERS * 3;
const MAX_DEPTH: usize = 16;

#[repr(align(128))]
struct Slot([AtomicU64; CELLS]);

static LEDGER: [Slot; SLOTS] = [const { Slot([const { AtomicU64::new(0) }; CELLS]) }; SLOTS];
/// Which slots a live thread owns. Claimed with `Acquire` and released
/// with `Release`, so a slot's next owner sees its predecessor's totals.
static CLAIMED: [AtomicBool; SLOTS] = [const { AtomicBool::new(false) }; SLOTS];

/// One thread's ledger state: the slot it alone writes, and the child
/// time accumulated by each open frame (outermost first).
struct Local {
    slot: usize,
    depth: Cell<usize>,
    children: [Cell<u64>; MAX_DEPTH],
}

impl Local {
    fn claim() -> Local {
        let slot = (0..SLOTS)
            .find(|&i| {
                CLAIMED[i]
                    .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            })
            .expect("at most 64 threads charge the ledger at once");
        Local {
            slot,
            depth: Cell::new(0),
            children: [const { Cell::new(0) }; MAX_DEPTH],
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        CLAIMED[self.slot].store(false, Ordering::Release);
    }
}

thread_local! {
    static LOCAL: Local = Local::claim();
}

fn nanos(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Adds to a counter only the owning thread writes: a plain read and
/// write, no locked instruction.
fn bump(cell: &AtomicU64, by: u64) {
    cell.store(cell.load(Ordering::Relaxed) + by, Ordering::Relaxed);
}

/// Runs `f` as one frame of `layer`, charging its self time.
pub fn timed<T>(layer: Layer, f: impl FnOnce() -> T) -> T {
    LOCAL.with(|local| {
        let depth = local.depth.get();
        assert!(
            depth < MAX_DEPTH,
            "timing frames nest at most {MAX_DEPTH} deep"
        );
        local.children[depth].set(0);
        local.depth.set(depth + 1);
        let start = Instant::now();
        let out = f();
        let elapsed = nanos(start);
        local.depth.set(depth);
        if let Some(parent) = depth.checked_sub(1).map(|d| &local.children[d]) {
            parent.set(parent.get() + elapsed);
        }
        let cells = &LEDGER[local.slot].0;
        let base = layer as usize * 3;
        bump(
            &cells[base],
            elapsed.saturating_sub(local.children[depth].get()),
        );
        bump(&cells[base + 1], elapsed);
        bump(&cells[base + 2], 1);
        out
    })
}

/// [`timed`] when `traced`, a plain call otherwise.
pub fn maybe_timed<T>(traced: bool, layer: Layer, f: impl FnOnce() -> T) -> T {
    if traced {
        timed(layer, f)
    } else {
        f()
    }
}

/// Ledger totals summed over every thread slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    self_ns: [u64; LAYERS],
    total_ns: [u64; LAYERS],
    calls: [u64; LAYERS],
}

impl Totals {
    /// The current totals.
    pub fn now() -> Self {
        let mut t = Totals::default();
        for slot in &LEDGER {
            for layer in 0..LAYERS {
                t.self_ns[layer] += slot.0[layer * 3].load(Ordering::Relaxed);
                t.total_ns[layer] += slot.0[layer * 3 + 1].load(Ordering::Relaxed);
                t.calls[layer] += slot.0[layer * 3 + 2].load(Ordering::Relaxed);
            }
        }
        t
    }

    /// What was charged since `earlier`.
    pub fn since(&self, earlier: &Totals) -> Totals {
        let mut t = Totals::default();
        for layer in 0..LAYERS {
            t.self_ns[layer] = self.self_ns[layer] - earlier.self_ns[layer];
            t.total_ns[layer] = self.total_ns[layer] - earlier.total_ns[layer];
            t.calls[layer] = self.calls[layer] - earlier.calls[layer];
        }
        t
    }

    /// Accumulates `other` into `self`.
    pub fn add(&mut self, other: &Totals) {
        for layer in 0..LAYERS {
            self.self_ns[layer] += other.self_ns[layer];
            self.total_ns[layer] += other.total_ns[layer];
            self.calls[layer] += other.calls[layer];
        }
    }

    /// Self time of `layer`, in nanoseconds.
    pub fn self_ns(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] as f64
    }

    /// Elapsed time of `layer`'s frames, children included.
    pub fn total_ns(&self, layer: Layer) -> f64 {
        self.total_ns[layer as usize] as f64
    }

    /// Frames of `layer`.
    pub fn calls(&self, layer: Layer) -> f64 {
        self.calls[layer as usize] as f64
    }

    /// Self time summed over every layer.
    pub fn self_sum_ns(&self) -> f64 {
        self.self_ns.iter().map(|&ns| ns as f64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_frames_charge_self_time_once() {
        let before = Totals::now();
        timed(Layer::Render, || {
            timed(Layer::Witness, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let t = Totals::now().since(&before);
        assert_eq!(t.calls(Layer::Render), 1.0);
        assert!(t.total_ns(Layer::Render) >= t.total_ns(Layer::Witness));
        assert!(t.self_ns(Layer::Witness) >= 5e6);
        assert!(
            t.self_ns(Layer::Render) < 5e6,
            "the child is not charged twice"
        );
        let sum = t.self_ns(Layer::Render) + t.self_ns(Layer::Witness);
        assert_eq!(sum, t.total_ns(Layer::Render));
    }
}

//! Sample statistics, the host stamp, and the result line.

use std::fmt::Write as _;
use std::time::Instant;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one workload's traced section measured.
#[derive(Debug)]
pub struct Section {
    /// Per-layer metrics of the section.
    pub metrics: Vec<Metric>,
    /// Traced wall time over untraced wall time of the same work.
    pub overhead_x: f64,
    /// Layer self times over a time the ledger does not produce: the
    /// traced wall time where every layer is framed, the process's CPU
    /// time over it where one layer is a remainder.
    pub layer_sum_frac: f64,
}

/// Operations attempted and failed, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Tally {
    /// Counts `ops` attempted operations of which `failures` failed.
    pub fn record(&mut self, ops: u64, failures: Vec<String>) {
        self.attempted += ops;
        self.failed += failures.len() as u64;
        let room = 8usize.saturating_sub(self.messages.len());
        self.messages.extend(failures.into_iter().take(room));
    }
}

/// The `q`-quantile of `samples` with linear interpolation between
/// order statistics (`q` in `0..=1`).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Set-up time samples, taken once per operation of a run, between
/// operations and outside their timing, so they spread over the whole run
/// as the operations do. Each sample is the mean time of a block of
/// back-to-back set-ups long enough (≥ 1 ms) for the clock's resolution
/// not to matter.
///
/// The reported set-up time is the fastest block's, for the reason
/// [`Samples`] gives: over five runs of each workload on a 2-vCPU host the
/// median block moved by up to 56% (interquartile range over median), the
/// fastest by at most 9%. The median is printed on stderr.
#[derive(Debug)]
pub struct Setup {
    reps: u32,
    per_build: Vec<f64>,
}

impl Setup {
    /// Finds the block length for `build`.
    pub fn calibrate<S>(build: &mut impl FnMut() -> S) -> Self {
        let mut reps = 1u32;
        while setup_block(reps, build) < 1e-3 && reps < 1 << 24 {
            reps *= 2;
        }
        Setup {
            reps,
            per_build: Vec::new(),
        }
    }

    /// Times one block of `build`.
    pub fn sample<S>(&mut self, build: &mut impl FnMut() -> S) {
        let seconds = setup_block(self.reps, build);
        self.per_build.push(seconds / f64::from(self.reps));
    }

    /// The fastest block's time per set-up, in seconds.
    pub fn seconds(&self) -> f64 {
        self.per_build.iter().copied().fold(f64::NAN, f64::min)
    }
}

fn setup_block<S>(reps: u32, build: &mut impl FnMut() -> S) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        drop(std::hint::black_box(build()));
    }
    start.elapsed().as_secs_f64()
}

/// Closed-loop latency samples: one per submitted unit of work (a batch).
///
/// The gated latency is the *fastest* batch's. On a shared host the same
/// batch runs up to 1.8× slower while neighbours contend for the core, in
/// phases of seconds; medians and means then measure how much of a run
/// fell into such a phase. On a 2-vCPU host their spread between runs
/// reached 20–40%, the fastest batch's 3–20%. The median, p95 and mean are
/// still printed on stderr. (Every batch holds the same number of
/// operations, so a throughput would only restate the fastest batch.)
#[derive(Debug, Default)]
pub struct Samples {
    batch_ms: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, seconds: f64) {
        self.batch_ms.push(seconds * 1e3);
    }

    pub fn len(&self) -> usize {
        self.batch_ms.len()
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self, setup: &Setup) -> Vec<Metric> {
        let total_ms: f64 = self.batch_ms.iter().sum();
        eprintln!(
            "roundbench: {} batches, batch ms p50 {:.3} p95 {:.3} mean {:.3}; \
             set-up ms p50 {:.4} min {:.4}",
            self.len(),
            median(&self.batch_ms),
            quantile(&self.batch_ms, 0.95),
            total_ms / self.len() as f64,
            median(&setup.per_build) * 1e3,
            setup.seconds() * 1e3,
        );
        let fastest_ms = self.batch_ms.iter().copied().fold(f64::NAN, f64::min);
        vec![
            Metric::new("batch_ms_min", fastest_ms, "ms"),
            Metric::new("setup_s", setup.seconds(), "s"),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    }
}

/// Peak resident set size of this process, in MiB: `VmHWM` of its own
/// status. (`getrusage`'s `ru_maxrss` would also count the launching
/// process's footprint from before `exec`.)
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// CPU time this process has used, over all its threads (joined ones
/// included), in nanoseconds.
pub fn cpu_ns() -> f64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut tp = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `tp` is a writable `struct timespec` (two 64-bit fields
        // on 64-bit Linux), and the clock id is Linux's.
        if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut tp) } != 0 {
            return f64::NAN;
        }
        tp.tv_sec as f64 * 1e9 + tp.tv_nsec as f64
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    {
        f64::NAN
    }
}

/// The CPU brand string, from `cpuid`.
pub fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        #[allow(unused_unsafe)]
        // SAFETY: `cpuid` exists on every x86-64 processor; leaves
        // 0x8000_0002..=0x8000_0004 are read only when the maximum extended
        // leaf reports them.
        let brand = unsafe {
            if __cpuid(0x8000_0000).eax < 0x8000_0004 {
                return "unknown".to_owned();
            }
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                let r = __cpuid(leaf);
                for word in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&word.to_le_bytes());
                }
            }
            bytes
        };
        String::from_utf8_lossy(&brand)
            .trim_matches(char::from(0))
            .trim()
            .to_owned()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "unknown".to_owned()
    }
}

/// The commit of the checkout, when it is a git work tree.
pub fn git_commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => read(&format!(".git/{reference}"))
            .map(|c| c.trim().to_owned())
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next().map(str::to_owned))
            })
            .unwrap_or_else(|| "unknown".to_owned()),
        None => head.to_owned(),
    }
}

/// Escapes `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which JSON cannot carry) become 0
/// and are reported on stderr.
fn json_number(name: &str, v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        eprintln!("roundbench: metric {name} is not finite ({v}); reporting 0");
        "0".to_owned()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(&m.name),
            json_number(&m.name, m.value),
            json_string(m.unit)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&s), 2.5);
    }

    #[test]
    fn result_line_is_json_with_exactly_the_contract_keys() {
        let mut tally = Tally::default();
        tally.record(3, vec!["bad".to_owned()]);
        let line = result_line(&tally, &[Metric::new("batch_ms_min", 1.5, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"batch_ms_min\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}

//! What every workload shares: the run configuration, the outcome it
//! reports, the set-up repetition and the closed measuring loop.

use crate::stats::{self, Metric};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One run's settings, from the command line.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    /// Measured time.
    pub seconds: f64,
    /// Shrinks input sets and kernel sizes (the smoke test runs at 0.02).
    pub scale: f64,
    /// Corrupts one golden value, to prove the output checks bite.
    pub corrupt_golden: bool,
}

impl Config {
    /// `n` scaled, never below `min`.
    pub fn scaled(&self, n: usize, min: usize) -> usize {
        ((n as f64 * self.scale).round() as usize).max(min)
    }
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Operations timed.
    pub ops: usize,
    /// Each pass's median operation time, in milliseconds.
    pass_p50: Vec<f64>,
    /// The `tail_q` quantile of each chunk of consecutive passes.
    chunk_tails: Vec<f64>,
    /// Operation times of the chunk being filled.
    chunk: Vec<f64>,
    /// Operations completed per second: per pass, the faster quartile
    /// over passes (`serve`: per window of its saturated phase).
    pub ops_per_s: f64,
    /// The tail percentile this workload reports (see [`tail_ms`]).
    pub tail_q: f64,
    /// Area (NAND2 gates) and simulated cycles of the designs the
    /// workload's fixed inputs produce; geometric means are reported.
    pub qor_area: Vec<f64>,
    pub qor_cycles: Vec<f64>,
    /// Per-layer counts and ratios measured outside spans.
    pub layer: Vec<Metric>,
    /// Why the first failures failed (printed, never part of metrics).
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Adds another phase's operation and failure counts (not its
    /// timings).
    pub fn absorb_counts(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }

    fn chunk_len(&self) -> usize {
        (10.0 / (1.0 - self.tail_q)).ceil() as usize
    }

    /// Adds one pass's operation times, in milliseconds: a pass of a
    /// closed loop, or a run of consecutive requests. Only per-pass and
    /// per-chunk summaries are kept, so the benchmark's own memory does
    /// not grow with the operation count (peak RSS is a metric).
    pub fn add_pass(&mut self, mut ms: Vec<f64>) {
        if ms.is_empty() {
            return;
        }
        self.ops += ms.len();
        ms.sort_by(f64::total_cmp);
        self.pass_p50.push(stats::quantile(&ms, 0.5));
        self.chunk.extend(ms);
        if self.chunk.len() >= self.chunk_len() {
            self.chunk.sort_by(f64::total_cmp);
            self.chunk_tails
                .push(stats::quantile(&self.chunk, self.tail_q));
            self.chunk.clear();
        }
    }

    /// The median operation time: each pass's median, over passes the
    /// faster quartile ([`stats::faster_time`]).
    pub fn p50_ms(&self) -> f64 {
        stats::faster_time(&self.pass_p50)
    }

    /// The reported tail `(quantile, ms)`: consecutive passes are pooled
    /// into chunks holding ten operations beyond `tail_q`, and over the
    /// chunks' quantiles the faster quartile is reported. A run too short
    /// for one chunk reports the highest quantile its sample supports.
    pub fn tail_ms(&self) -> (f64, f64) {
        if self.chunk_tails.is_empty() {
            let q = stats::tail_percentile(self.chunk.len());
            return (q, stats::quantile(&stats::sorted(&self.chunk), q));
        }
        (self.tail_q, stats::faster_time(&self.chunk_tails))
    }
}

/// A workload after set-up.
pub trait Workload: Sync {
    /// Measures for about `seconds`, adding to `out`.
    fn measure(&self, seconds: f64, out: &mut Outcome);
    /// Untimed work after measuring: QoR of the fixed inputs, the
    /// workload's per-layer counts, and checks that need the whole run.
    fn finish(&self, out: &mut Outcome);
}

/// `a / b` of two event counters (0 when `b` is 0).
pub fn ratio(a: &AtomicU64, b: &AtomicU64) -> f64 {
    a.load(Ordering::Relaxed) as f64 / b.load(Ordering::Relaxed).max(1) as f64
}

/// Engine time and simulated cycles, for the Mcycles/s figures.
#[derive(Default)]
pub struct Rate {
    cycles: AtomicU64,
    ns: AtomicU64,
}

impl Rate {
    pub fn add(&self, cycles: u64, since: Instant) {
        self.cycles.fetch_add(cycles, Ordering::Relaxed);
        self.ns
            .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    pub fn mcycles_per_s(&self) -> f64 {
        ratio(&self.cycles, &self.ns) * 1e3
    }
}

/// Does a design's simulated output equal the golden interpreter's?
pub fn matches(sim: &chls::SimOutcome, golden: &chls::interp::InterpResult) -> bool {
    sim.ret == golden.ret && sim.arrays == golden.arrays
}

/// The golden result with one value changed (for `--corrupt-golden`).
pub fn corrupted(mut golden: chls::interp::InterpResult) -> chls::interp::InterpResult {
    match (&mut golden.ret, golden.arrays.first_mut()) {
        (Some(r), _) => *r = r.wrapping_add(1),
        (None, Some((_, a))) if !a.is_empty() => a[0] = a[0].wrapping_add(1),
        _ => golden.ret = Some(1),
    }
    golden
}

/// Runs `setup` at least `reps` times and until `min_total` seconds
/// have gone into it (at most [`MAX_SETUPS`] times), timing each;
/// returns the median seconds and the last result. Set-up is repeated so
/// one slow first call (page faults, cold caches, an idle core) cannot
/// set the number, and a set-up of milliseconds is a median over
/// hundreds.
pub fn repeat_setup<T>(
    reps: usize,
    min_total: f64,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < reps.max(1)
        || (times.iter().sum::<f64>() < min_total && times.len() < MAX_SETUPS)
    {
        drop(last.take());
        let t = Instant::now();
        let v = setup()?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    Ok((stats::median(&times), last.expect("at least one set-up")))
}

/// The most set-ups [`repeat_setup`] runs.
pub const MAX_SETUPS: usize = 2000;

/// Runs `f` with panics caught, so one bad operation is counted as a
/// failure instead of ending the run.
pub fn guarded<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => Err(format!(
            "panicked: {}",
            payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("(non-string payload)")
        )),
    }
}

/// Untimed operations run before measuring, long enough for the core
/// to leave its idle clock and for allocator and page-cache state to
/// settle: the first few hundred milliseconds of a process run up to
/// 1.8x slower on the reference host.
pub const WARMUP_S: f64 = 0.5;

/// A closed loop over `len` operations per pass, on `threads` threads:
/// each thread takes the next operation index as soon as its previous
/// one completes. Once `seconds` have passed, the pass in progress is
/// finished and no new one starts, so every run measures whole passes
/// and the operation mix does not depend on where the clock ran out.
/// `prepare(i)` builds operation `i`'s input untimed; `op(i, input)`
/// gets the global index (`i % len` is the position in the pass) and
/// returns `Ok(())` or why the operation failed.
pub fn closed_loop<P>(
    out: &mut Outcome,
    threads: usize,
    len: usize,
    seconds: f64,
    prepare: impl Fn(usize) -> P + Sync,
    op: impl Fn(usize, P) -> Result<(), String> + Sync,
) {
    let warm_until = Instant::now() + Duration::from_secs_f64(WARMUP_S.min(seconds / 4.0));
    let mut i = 0;
    while Instant::now() < warm_until {
        let input = prepare(i);
        if let Err(e) = guarded(|| op(i, input)) {
            out.fail(format!("warm-up op {i}: {e}"));
        }
        out.attempted += 1;
        i += 1;
    }
    let next = AtomicUsize::new(0);
    let limit = AtomicUsize::new(usize::MAX);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    // Passes in progress (first start, last end, operation times), the
    // rates of finished passes, and the outcome, under one lock. A pass
    // is summarized as soon as its last operation ends.
    type Open = BTreeMap<usize, (Instant, Instant, Vec<f64>)>;
    let shared: Mutex<(Open, Vec<f64>, &mut Outcome)> =
        Mutex::new((BTreeMap::new(), Vec::new(), out));
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if Instant::now() >= deadline {
                    let pass_end = (i.div_ceil(len) * len).max(len);
                    limit.fetch_min(pass_end, Ordering::Relaxed);
                }
                if i >= limit.load(Ordering::Relaxed) {
                    break;
                }
                let input = prepare(i);
                crate::trace::set_op(i as u64 + 1);
                let t0 = Instant::now();
                let r = crate::trace::span("op", "bench", || guarded(|| op(i, input)));
                let t1 = Instant::now();
                let mut guard = shared.lock().expect("measuring state poisoned");
                let (open, rates, out) = &mut *guard;
                out.attempted += 1;
                if let Err(e) = r {
                    out.fail(format!("op {i}: {e}"));
                }
                let pass = open
                    .entry(i / len)
                    .or_insert((t0, t1, Vec::with_capacity(len)));
                pass.0 = pass.0.min(t0);
                pass.1 = pass.1.max(t1);
                pass.2.push(t1.duration_since(t0).as_secs_f64() * 1e3);
                if pass.2.len() == len {
                    let (a, b, ms) = open.remove(&(i / len)).expect("the pass just updated");
                    rates.push(len as f64 / b.duration_since(a).as_secs_f64().max(1e-9));
                    out.add_pass(ms);
                }
            });
        }
    });
    let (_, rates, out) = shared.into_inner().expect("measuring state poisoned");
    out.ops_per_s = stats::faster_rate(&rates);
}

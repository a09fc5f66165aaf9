//! # chls-trace
//!
//! Zero-dependency instrumentation for the synthesis laboratory: scoped
//! span timers, monotonic counters, gauges, and a thread-safe collector.
//!
//! The layer is built so that instrumented code pays almost nothing when
//! tracing is off — every entry point checks one relaxed atomic load and
//! returns. When tracing is on, costs are still deliberately shaped for
//! the simulator hot paths that the `benchmark/` workloads measure:
//!
//! * **Spans** ([`span`]) are phase-granular (a whole optimization pass,
//!   a whole simulation run). They take one short mutex lock on *drop*,
//!   never inside a loop.
//! * **Counters** ([`counter`], [`add`]) are plain `AtomicU64`s. Hot
//!   loops fetch a [`Counter`] handle once, then increment lock-free —
//!   or, cheaper still, accumulate locally and [`Counter::add`] once per
//!   call.
//! * **Gauges** ([`gauge`]) record point-in-time values (a schedule
//!   length, an initiation interval); like spans they lock briefly and
//!   are never on a per-cycle path.
//!
//! The free functions funnel into the *current* collector: by default
//! the process-wide global one, but [`with_collector`] rebinds the
//! calling thread to a private [`Collector`] for the duration of a
//! closure. That is how `chls report` (and the `explore` engine fanning
//! reports out across a thread pool) collects per-run phase timings
//! without any cross-thread serialization: each run owns its collector,
//! and concurrent runs never observe each other's spans or resets.
//! [`snapshot`] drains an aggregated, allocation-light view for
//! reporting, and [`reset`] rewinds between measured sections (e.g.
//! between backends in `chls report`).
//!
//! ```
//! let col = chls_trace::Collector::new();
//! col.set_enabled(true);
//! chls_trace::with_collector(&col, || {
//!     let _s = chls_trace::span("demo.phase");
//!     chls_trace::add("demo.items", 3);
//!     chls_trace::gauge("demo.depth", 7);
//! });
//! let snap = col.snapshot();
//! assert_eq!(snap.counter("demo.items"), Some(3));
//! assert_eq!(snap.gauge("demo.depth"), Some(7));
//! assert!(snap.span("demo.phase").is_some());
//! ```

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex};
use std::time::Instant;

/// Aggregated timings of one named span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStat {
    /// Span name (dotted phase path, e.g. `"opt.inline"`).
    pub name: &'static str,
    /// Number of completed spans with this name.
    pub count: u64,
    /// Total wall-clock nanoseconds across those spans.
    pub total_ns: u64,
}

impl SpanStat {
    /// Total wall-clock seconds.
    pub fn seconds(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }
}

/// Last/max/count statistics of one named gauge.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeStat {
    /// Gauge name.
    pub name: &'static str,
    /// Most recently recorded value.
    pub last: u64,
    /// Maximum recorded value.
    pub max: u64,
    /// Number of recordings.
    pub count: u64,
}

/// A drained, aggregated view of a collector.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Spans, in first-recorded order.
    pub spans: Vec<SpanStat>,
    /// Counters, in registration order (zero-valued counters included).
    pub counters: Vec<(&'static str, u64)>,
    /// Gauges, in first-recorded order.
    pub gauges: Vec<GaugeStat>,
}

impl Snapshot {
    /// The value of a counter, if it was registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The last value of a gauge, if it was recorded.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.last)
    }

    /// The aggregate of a span, if it completed at least once.
    pub fn span(&self, name: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|s| s.name == name)
    }
}

/// A lock-free handle to one registered counter.
///
/// Cloning is cheap (an `Arc` bump); hot loops should obtain the handle
/// once via [`Collector::counter`] (or the global [`counter`]) outside
/// the loop and call [`Counter::add`] with a locally accumulated total.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
    enabled: Arc<AtomicBool>,
}

impl Counter {
    /// Adds `delta` (relaxed; no lock). No-op while tracing is disabled.
    #[inline]
    pub fn add(&self, delta: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.fetch_add(delta, Ordering::Relaxed);
        }
    }
}

/// RAII span guard: records elapsed wall-clock time on drop.
///
/// Inert (records nothing, skips the clock read) when the collector was
/// disabled at construction. The sink is captured at construction, so a
/// span opened inside a [`with_collector`] scope records there even if
/// the guard outlives the scope.
#[must_use = "a span records its time when dropped; binding it to `_` drops it immediately"]
pub struct Span {
    name: &'static str,
    active: Option<(Instant, Collector)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((start, collector)) = self.active.take() {
            let ns = start.elapsed().as_nanos() as u64;
            collector.record_span(self.name, ns);
        }
    }
}

/// A thread-safe trace collector.
///
/// Cloning is cheap and shares the same underlying store (`Arc`
/// internally). One process-wide instance backs the free functions by
/// default; [`with_collector`] rebinds a thread to a private instance,
/// which is how per-run collection (e.g. one `qor_report` per pool
/// worker) stays isolated.
#[derive(Debug, Clone)]
pub struct Collector {
    enabled: Arc<AtomicBool>,
    spans: Arc<Mutex<Vec<SpanStat>>>,
    counters: Arc<Mutex<CounterCells>>,
    gauges: Arc<Mutex<Vec<GaugeStat>>>,
}

/// Registered counter cells: name → shared atomic, in registration order.
type CounterCells = Vec<(&'static str, Arc<AtomicU64>)>;

impl Collector {
    /// A fresh, disabled collector.
    pub fn new() -> Self {
        Collector {
            enabled: Arc::new(AtomicBool::new(false)),
            spans: Arc::new(Mutex::new(Vec::new())),
            counters: Arc::new(Mutex::new(Vec::new())),
            gauges: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Is collection on?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns collection on or off. Off is the default; instrumented code
    /// then costs one relaxed load per entry point.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Clears spans and gauges and zeroes counters. Registered
    /// [`Counter`] handles stay valid.
    pub fn reset(&self) {
        self.spans.lock().expect("trace spans poisoned").clear();
        self.gauges.lock().expect("trace gauges poisoned").clear();
        for (_, cell) in self
            .counters
            .lock()
            .expect("trace counters poisoned")
            .iter()
        {
            cell.store(0, Ordering::Relaxed);
        }
    }

    fn record_span(&self, name: &'static str, ns: u64) {
        let mut spans = self.spans.lock().expect("trace spans poisoned");
        if let Some(s) = spans.iter_mut().find(|s| s.name == name) {
            s.count += 1;
            s.total_ns += ns;
        } else {
            spans.push(SpanStat {
                name,
                count: 1,
                total_ns: ns,
            });
        }
    }

    /// Opens a scoped span; its wall time is recorded when the returned
    /// guard drops. Inert while disabled.
    pub fn span(&self, name: &'static str) -> Span {
        Span {
            name,
            active: if self.enabled() {
                Some((Instant::now(), self.clone()))
            } else {
                None
            },
        }
    }

    /// Registers (or finds) the counter `name` and returns a lock-free
    /// handle to it.
    pub fn counter(&self, name: &'static str) -> Counter {
        let mut counters = self.counters.lock().expect("trace counters poisoned");
        let cell = if let Some((_, c)) = counters.iter().find(|(n, _)| *n == name) {
            c.clone()
        } else {
            let c = Arc::new(AtomicU64::new(0));
            counters.push((name, c.clone()));
            c
        };
        Counter {
            cell,
            enabled: self.enabled.clone(),
        }
    }

    /// Adds `delta` to counter `name` (registering it on first use).
    /// Convenience for cold call sites; hot loops should hold a
    /// [`Counter`].
    pub fn add(&self, name: &'static str, delta: u64) {
        if self.enabled() {
            self.counter(name).add(delta);
        }
    }

    /// Records a point-in-time value for gauge `name` (last and max are
    /// kept). No-op while disabled.
    pub fn gauge(&self, name: &'static str, value: u64) {
        if !self.enabled() {
            return;
        }
        let mut gauges = self.gauges.lock().expect("trace gauges poisoned");
        if let Some(g) = gauges.iter_mut().find(|g| g.name == name) {
            g.last = value;
            g.max = g.max.max(value);
            g.count += 1;
        } else {
            gauges.push(GaugeStat {
                name,
                last: value,
                max: value,
                count: 1,
            });
        }
    }

    /// An aggregated copy of everything collected since the last
    /// [`Collector::reset`].
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            spans: self.spans.lock().expect("trace spans poisoned").clone(),
            counters: self
                .counters
                .lock()
                .expect("trace counters poisoned")
                .iter()
                .map(|(n, c)| (*n, c.load(Ordering::Relaxed)))
                .collect(),
            gauges: self.gauges.lock().expect("trace gauges poisoned").clone(),
        }
    }
}

impl Default for Collector {
    fn default() -> Self {
        Collector::new()
    }
}

static GLOBAL: LazyLock<Collector> = LazyLock::new(Collector::new);

thread_local! {
    /// Per-thread stack of scoped collectors; the top (if any) is the
    /// sink for this thread's free-function calls.
    static SCOPED: RefCell<Vec<Collector>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f(current)` where `current` is the innermost scoped collector
/// on this thread, or the global one. Avoids cloning on the fast path.
fn with_current<R>(f: impl FnOnce(&Collector) -> R) -> R {
    SCOPED.with(|s| {
        let stack = s.borrow();
        match stack.last() {
            Some(c) => f(c),
            None => f(&GLOBAL),
        }
    })
}

/// The process-wide collector behind the free functions when no scoped
/// collector is installed.
pub fn global() -> &'static Collector {
    &GLOBAL
}

/// Rebinds the calling thread's free-function sink to `collector` for
/// the duration of `f`. Scopes nest (innermost wins) and unwind safely:
/// the previous sink is restored even if `f` panics.
///
/// Only the calling thread is rebound — threads spawned inside `f` fall
/// back to the global collector (or their own scopes).
pub fn with_collector<R>(collector: &Collector, f: impl FnOnce() -> R) -> R {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            SCOPED.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
    SCOPED.with(|s| s.borrow_mut().push(collector.clone()));
    let _guard = Guard;
    f()
}

/// Is the current collector collecting?
#[inline]
pub fn enabled() -> bool {
    with_current(Collector::enabled)
}

/// Turns the current collector on or off (off is the default).
pub fn set_enabled(on: bool) {
    with_current(|c| c.set_enabled(on));
}

/// Clears the current collector (see [`Collector::reset`]).
pub fn reset() {
    with_current(Collector::reset);
}

/// Opens a scoped span on the current collector.
pub fn span(name: &'static str) -> Span {
    with_current(|c| c.span(name))
}

/// Registers (or finds) a counter on the current collector and returns
/// its handle.
pub fn counter(name: &'static str) -> Counter {
    with_current(|c| c.counter(name))
}

/// Adds to a counter on the current collector (cold-path convenience).
pub fn add(name: &'static str, delta: u64) {
    with_current(|c| c.add(name, delta));
}

/// Records a gauge value on the current collector.
pub fn gauge(name: &'static str, value: u64) {
    with_current(|c| c.gauge(name, value));
}

/// Snapshots the current collector.
pub fn snapshot() -> Snapshot {
    with_current(Collector::snapshot)
}

/// Times `f` under span `name` (on the current collector) and returns
/// its result.
pub fn time<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _span = span(name);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The tests that exercise the *global* collector share it, so they
    // run under a lock to keep enable/reset from interleaving. Tests
    // using scoped collectors need no lock — that is the point.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_records_nothing() {
        let _l = TEST_LOCK.lock().unwrap();
        set_enabled(false);
        reset();
        {
            let _s = span("t.disabled");
            add("t.disabled.count", 5);
            gauge("t.disabled.gauge", 9);
        }
        let snap = snapshot();
        assert!(snap.span("t.disabled").is_none());
        assert_eq!(snap.counter("t.disabled.count").unwrap_or(0), 0);
        assert!(snap.gauge("t.disabled.gauge").is_none());
    }

    #[test]
    fn spans_aggregate_by_name() {
        let _l = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        reset();
        for _ in 0..3 {
            let _s = span("t.phase");
        }
        let snap = snapshot();
        set_enabled(false);
        let s = snap.span("t.phase").expect("span recorded");
        assert_eq!(s.count, 3);
    }

    #[test]
    fn counters_survive_reset_and_rezero() {
        let _l = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        reset();
        let c = counter("t.events");
        c.add(7);
        assert_eq!(snapshot().counter("t.events"), Some(7));
        reset();
        assert_eq!(snapshot().counter("t.events"), Some(0));
        c.add(2); // the pre-reset handle still works
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(snap.counter("t.events"), Some(2));
    }

    #[test]
    fn gauges_track_last_and_max() {
        let _l = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        reset();
        gauge("t.depth", 4);
        gauge("t.depth", 9);
        gauge("t.depth", 2);
        let snap = snapshot();
        set_enabled(false);
        let g = snap.gauges.iter().find(|g| g.name == "t.depth").unwrap();
        assert_eq!((g.last, g.max, g.count), (2, 9, 3));
    }

    #[test]
    fn threads_share_one_counter() {
        let _l = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        reset();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let c = counter("t.parallel");
                    for _ in 0..1000 {
                        c.add(1);
                    }
                });
            }
        });
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(snap.counter("t.parallel"), Some(4000));
    }

    #[test]
    fn scoped_collector_captures_and_global_stays_clean() {
        // No TEST_LOCK: scoped collection must not touch the global.
        let before = global().snapshot();
        let col = Collector::new();
        col.set_enabled(true);
        with_collector(&col, || {
            let _s = span("t.scoped.phase");
            add("t.scoped.count", 11);
            gauge("t.scoped.depth", 3);
        });
        let snap = col.snapshot();
        assert_eq!(snap.counter("t.scoped.count"), Some(11));
        assert_eq!(snap.gauge("t.scoped.depth"), Some(3));
        assert!(snap.span("t.scoped.phase").is_some());
        let after = global().snapshot();
        assert!(after.span("t.scoped.phase").is_none());
        assert_eq!(
            before.counter("t.scoped.count"),
            after.counter("t.scoped.count")
        );
    }

    #[test]
    fn scopes_nest_innermost_wins() {
        let outer = Collector::new();
        outer.set_enabled(true);
        let inner = Collector::new();
        inner.set_enabled(true);
        with_collector(&outer, || {
            add("t.nest", 1);
            with_collector(&inner, || add("t.nest", 10));
            add("t.nest", 2);
        });
        assert_eq!(outer.snapshot().counter("t.nest"), Some(3));
        assert_eq!(inner.snapshot().counter("t.nest"), Some(10));
    }

    #[test]
    fn scope_unwinds_on_panic() {
        let col = Collector::new();
        col.set_enabled(true);
        let caught = std::panic::catch_unwind(|| {
            with_collector(&col, || panic!("boom"));
        });
        assert!(caught.is_err());
        // The sink is restored: this add goes to the global collector,
        // not the scoped one.
        add("t.unwind", 5);
        assert_eq!(col.snapshot().counter("t.unwind"), None);
    }

    #[test]
    fn concurrent_scoped_collectors_never_interleave() {
        std::thread::scope(|s| {
            for t in 0..8u64 {
                s.spawn(move || {
                    let col = Collector::new();
                    col.set_enabled(true);
                    with_collector(&col, || {
                        for _ in 0..100 {
                            add("t.iso", t + 1);
                        }
                        gauge("t.iso.id", t);
                        let _sp = span("t.iso.span");
                    });
                    let snap = col.snapshot();
                    assert_eq!(snap.counter("t.iso"), Some(100 * (t + 1)));
                    assert_eq!(snap.gauge("t.iso.id"), Some(t));
                    assert_eq!(snap.span("t.iso.span").map(|s| s.count), Some(1));
                });
            }
        });
    }

    #[test]
    fn span_outliving_its_scope_still_records_to_it() {
        let col = Collector::new();
        col.set_enabled(true);
        let guard = with_collector(&col, || span("t.escaped"));
        drop(guard); // dropped outside the scope
        assert_eq!(col.snapshot().span("t.escaped").map(|s| s.count), Some(1));
    }
}

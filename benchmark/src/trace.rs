//! Benchmark-side tracing: a span around every call the benchmark makes
//! into a layer of the program, kept in memory and written out at exit.
//!
//! Spans are recorded here, in the benchmark, never inside the program.
//! While a span is open its thread is bound to a private, enabled
//! `chls_trace` collector, so the phase aggregates the program already
//! records (`opt.*`, `ir.lower`, `sched.*`, `sim.*`, …) are read back and
//! attributed to their own layers: a span's self time is its duration
//! minus its child spans and minus those program phases. A program phase
//! that runs inside another layered phase is charged to its own layer
//! and taken out of the enclosing one (see [`NESTED`]), so self times
//! never add up to more than the wall time.
//!
//! With tracing off, [`span`] costs one relaxed atomic load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static SINK: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());
static COUNTERS: Mutex<BTreeMap<&'static str, u64>> = Mutex::new(BTreeMap::new());
static NEXT_TID: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(1);

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub layer: &'static str,
    pub tid: u32,
    pub op: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Index of the enclosing span on the same thread, if any.
    pub parent: Option<usize>,
    /// Program-recorded phases inside this span (and not inside a child
    /// span): (phase name, nanoseconds).
    pub program: Vec<(&'static str, u64)>,
    /// Duration minus children and program phases.
    pub self_ns: u64,
}

struct Open {
    idx: usize,
    start: Instant,
    children_ns: u64,
}

struct Local {
    tid: u32,
    op: u64,
    stack: Vec<Open>,
    done: Vec<Option<SpanRec>>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        op: 0,
        stack: Vec::new(),
        done: Vec::new(),
    });
}

pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

#[inline]
fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Tags this thread's following spans with operation id `op`.
pub fn set_op(op: u64) {
    if enabled() {
        LOCAL.with(|l| l.borrow_mut().op = op);
    }
}

/// The layer a program-recorded phase belongs to, or `None` for phases
/// that only contain other phases (their time is the caller's span).
fn program_layer(name: &str) -> Option<&'static str> {
    let layer = match name {
        "frontend.parse" => "frontend",
        "ir.lower" => "ir",
        "rtl.fsmd_to_netlist" => "rtl",
        "sim.fsmd" | "sim.netlist.build" | "sim.netlist.eval" => "sim",
        "sim.jit" => "jit",
        "sim.dataflow" => "dataflow",
        n if n.starts_with("opt.") => "opt",
        n if n.starts_with("sched.") => "sched",
        n if n.starts_with("logic.") => "logic",
        _ => return None,
    };
    Some(layer)
}

/// Layered program phases that run inside another layered phase:
/// (inner, outer). `check_seq_equiv` lowers both FSMDs to netlists, and
/// both equivalence checks replay a counterexample on the netlist
/// simulator.
const NESTED: [(&str, &str); 5] = [
    ("rtl.fsmd_to_netlist", "logic.equiv.seq"),
    ("sim.netlist.build", "logic.equiv.seq"),
    ("sim.netlist.eval", "logic.equiv.seq"),
    ("sim.netlist.build", "logic.equiv.comb"),
    ("sim.netlist.eval", "logic.equiv.comb"),
];

/// The layered phases among one span's program phases `(name, total
/// ns)`, each charged its exclusive time: an outer phase of [`NESTED`]
/// loses its inner phases' totals. An inner phase that also ran outside
/// its outer one makes the outer phase's time an underestimate, never a
/// double count.
fn exclusive_phases(phases: &[(&'static str, u64)]) -> Vec<(&'static str, u64)> {
    let total = |name: &str| -> u64 {
        phases
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, ns)| ns)
            .sum()
    };
    phases
        .iter()
        .filter(|(n, _)| program_layer(n).is_some())
        .map(|&(name, ns)| {
            let inner: u64 = NESTED
                .iter()
                .filter(|(_, outer)| *outer == name)
                .map(|(inner, _)| total(inner))
                .sum();
            (name, ns.saturating_sub(inner))
        })
        .collect()
}

/// Runs `f` inside a span `name` charged to `layer`.
pub fn span<R>(name: &'static str, layer: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let epoch = *EPOCH.get_or_init(Instant::now);
    let idx = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let idx = l.done.len();
        l.done.push(None);
        l.stack.push(Open {
            idx,
            start: Instant::now(),
            children_ns: 0,
        });
        idx
    });
    let collector = chls_trace::Collector::new();
    collector.set_enabled(true);
    let out = chls_trace::with_collector(&collector, f);
    let end = Instant::now();
    let snap = collector.snapshot();
    let program = exclusive_phases(
        &snap
            .spans
            .iter()
            .map(|s| (s.name, s.total_ns))
            .collect::<Vec<_>>(),
    );
    {
        let mut counters = COUNTERS.lock().expect("trace counters poisoned");
        for (name, v) in &snap.counters {
            *counters.entry(name).or_insert(0) += v;
        }
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let open = l.stack.pop().expect("span stack balanced");
        debug_assert_eq!(open.idx, idx);
        let dur_ns = end.duration_since(open.start).as_nanos() as u64;
        let program_ns: u64 = program.iter().map(|(_, ns)| ns).sum();
        let parent = l.stack.last().map(|p| p.idx);
        if let Some(p) = l.stack.last_mut() {
            p.children_ns += dur_ns;
        }
        let rec = SpanRec {
            name,
            layer,
            tid: l.tid,
            op: l.op,
            start_ns: open.start.duration_since(epoch).as_nanos() as u64,
            dur_ns,
            parent,
            program,
            self_ns: dur_ns.saturating_sub(open.children_ns + program_ns),
        };
        l.done[idx] = Some(rec);
        if l.stack.is_empty() {
            // A finished tree: every slot is filled, so thread-local
            // indices rebase onto the sink by a constant offset.
            let mut sink = SINK.lock().expect("trace sink poisoned");
            let base = sink.len();
            sink.extend(l.done.drain(..).flatten().map(|mut r| {
                r.parent = r.parent.map(|p| p + base);
                r
            }));
        }
    });
    out
}

/// Records an interval timed elsewhere (one request in flight, say) as
/// a top-level span of `layer`.
pub fn record(name: &'static str, layer: &'static str, start: Instant, end: Instant) {
    if !enabled() {
        return;
    }
    let epoch = *EPOCH.get_or_init(Instant::now);
    let dur_ns = end.saturating_duration_since(start).as_nanos() as u64;
    let (tid, op) = LOCAL.with(|l| {
        let l = l.borrow();
        (l.tid, l.op)
    });
    SINK.lock().expect("trace sink poisoned").push(SpanRec {
        name,
        layer,
        tid,
        op,
        start_ns: start.saturating_duration_since(epoch).as_nanos() as u64,
        dur_ns,
        parent: None,
        program: Vec::new(),
        self_ns: dur_ns,
    });
}

/// Takes every closed span tree recorded so far (parent indices point
/// into the returned vector) and the program counters summed over them.
pub fn drain() -> (Vec<SpanRec>, BTreeMap<&'static str, u64>) {
    let spans = std::mem::take(&mut *SINK.lock().expect("trace sink poisoned"));
    let counters = std::mem::take(&mut *COUNTERS.lock().expect("trace counters poisoned"));
    (spans, counters)
}

/// Per-layer totals over the traced operations.
#[derive(Debug, Default, Clone)]
pub struct LayerRow {
    pub calls: u64,
    pub self_ns: u64,
}

/// Sums self time per layer. Program phases count as calls of their
/// own layer. Returns (layer → row, total op wall time in ns), where op
/// wall time is the sum of the top-level spans' durations.
pub fn layer_table(spans: &[SpanRec]) -> (BTreeMap<&'static str, LayerRow>, u64) {
    let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    let mut wall = 0u64;
    for s in spans {
        if s.parent.is_none() {
            wall += s.dur_ns;
        }
        let row = rows.entry(s.layer).or_default();
        row.calls += 1;
        row.self_ns += s.self_ns;
        for (name, ns) in &s.program {
            let layer = program_layer(name).expect("filtered to layered phases");
            let row = rows.entry(layer).or_default();
            row.calls += 1;
            row.self_ns += ns;
        }
    }
    (rows, wall)
}

/// Self time by span or program-phase name, largest first: (name,
/// layer, calls, self ns).
pub fn by_name(spans: &[SpanRec]) -> Vec<(&'static str, &'static str, u64, u64)> {
    let mut rows: BTreeMap<(&'static str, &'static str), (u64, u64)> = BTreeMap::new();
    for s in spans {
        let row = rows.entry((s.name, s.layer)).or_default();
        row.0 += 1;
        row.1 += s.self_ns;
        for (name, ns) in &s.program {
            let row = rows
                .entry((
                    name,
                    program_layer(name).expect("filtered to layered phases"),
                ))
                .or_default();
            row.0 += 1;
            row.1 += ns;
        }
    }
    let mut out: Vec<_> = rows
        .into_iter()
        .map(|((n, l), (c, ns))| (n, l, c, ns))
        .collect();
    out.sort_by_key(|r| std::cmp::Reverse(r.3));
    out
}

/// Chrome trace-event JSON (the format Perfetto and chrome://tracing
/// read): one complete event per span; program phases ride along in
/// `args` because only their totals are known, not their start times.
pub fn chrome_json(spans: &[SpanRec]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let program = s
            .program
            .iter()
            .map(|(n, ns)| format!(",\"{n}_us\":{:.3}", *ns as f64 / 1e3))
            .collect::<String>();
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{},\"self_us\":{:.3}{program}}}}}",
            s.name,
            s.layer,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.op,
            s.self_ns as f64 / 1e3,
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use chls::{Compiler, Design, SynthOptions};

    #[test]
    fn nested_phases_are_charged_once() {
        let phases = [
            ("logic.equiv.seq", 100),
            ("rtl.fsmd_to_netlist", 30),
            ("opt.inline", 5),
            ("backend.prepare", 50),
        ];
        assert_eq!(
            exclusive_phases(&phases),
            [
                ("logic.equiv.seq", 70),
                ("rtl.fsmd_to_netlist", 30),
                ("opt.inline", 5)
            ]
        );
    }

    /// An operation shaped like a `certify` equivalence job: per-layer
    /// self times add up to at most its wall time.
    #[test]
    fn layer_self_times_fit_in_op_wall_time() {
        let src = "int f(int a, int b) { int s = 0; for (int i = 0; i < 4; i++) s += a ^ i; return s + b; }";
        set_enabled(true);
        span("op", "bench", || {
            let c = span("parse", "frontend", || Compiler::parse(src)).expect("parses");
            let fsmd = |name: &'static str| {
                let b = chls::backend_by_name(name).expect("backend");
                match span(name, "backends", || {
                    c.synthesize(b.as_ref(), "f", &SynthOptions::default())
                }) {
                    Ok(Design::Fsmd(f)) => f,
                    _ => panic!("{name} gives an FSMD"),
                }
            };
            let (a, b) = (fsmd("c2v"), fsmd("cyber"));
            span("check_seq_equiv", "logic", || {
                chls_logic::check_seq_equiv(&a, &b, 8, &chls_logic::EquivOptions::default())
            })
            .expect("the check runs");
        });
        set_enabled(false);
        let (spans, _) = drain();
        let (rows, wall) = layer_table(&spans);
        assert!(rows.contains_key("rtl") && rows.contains_key("logic"));
        let total: u64 = rows.values().map(|r| r.self_ns).sum();
        assert!(total <= wall, "layers {total} ns > op wall time {wall} ns");
    }
}

//! Quality-of-results (QoR) extraction — the measurable half of the
//! paper's paradigm comparison.
//!
//! For each backend × program this module reports what the synthesized
//! design *costs*: FSM states, registers, memories, netlist gates,
//! NAND2-equivalent area, schedule length and initiation interval (from
//! the scheduler's trace gauges), simulated cycles or async time units,
//! and per-phase wall-clock time (from the `chls-trace` spans the
//! pipeline records). `chls report` renders this as an aligned table or
//! as JSON inside the unified envelope.

use crate::driver::{simulate_design_with, Compiler};
use crate::error::Error;
use crate::jsonin::Value;
use crate::obj;
use crate::options::CompileOptions;
use crate::report::{fnum, Table};
use chls_backends::{Design, SynthError};
use chls_frontend::types::Type;
use chls_sim::interp::ArgValue;

/// How one backend fared.
#[derive(Debug, Clone, PartialEq)]
pub enum QorStatus {
    /// Synthesized; metrics below are valid.
    Ok,
    /// The backend's language refuses this program.
    Unsupported(String),
    /// Synthesis crashed.
    Error(String),
}

impl QorStatus {
    /// Short machine-readable tag.
    pub fn tag(&self) -> &'static str {
        match self {
            QorStatus::Ok => "ok",
            QorStatus::Unsupported(_) => "unsupported",
            QorStatus::Error(_) => "error",
        }
    }

    /// The reason, when there is one.
    pub fn reason(&self) -> Option<&str> {
        match self {
            QorStatus::Ok => None,
            QorStatus::Unsupported(r) | QorStatus::Error(r) => Some(r),
        }
    }
}

/// One backend's quality-of-results row.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendQor {
    /// Backend name (registry order).
    pub backend: &'static str,
    /// Outcome of synthesis.
    pub status: QorStatus,
    /// Design style (`comb` / `fsmd` / `dataflow`).
    pub style: Option<&'static str>,
    /// FSM state count (FSMD designs).
    pub fsm_states: Option<u64>,
    /// Datapath register count (FSMD designs).
    pub registers: Option<u64>,
    /// Memory/RAM block count.
    pub memories: Option<u64>,
    /// Netlist gate count: cells for combinational designs, cells of the
    /// lowered netlist for FSMDs, nodes for dataflow circuits.
    pub gates: Option<u64>,
    /// NAND2-equivalent area under the default cost model.
    pub area: Option<f64>,
    /// NAND2-equivalent area with the width-narrowing transform enabled
    /// (`--narrow`); equals `area` when the backend ignores narrowing or
    /// when narrowing was already on for the main synthesis.
    pub narrowed_area: Option<f64>,
    /// NAND2-equivalent area with the word-level logic optimizer
    /// (`--opt-netlist`) applied; equals `area` when the optimizer finds
    /// nothing or was already on for the main synthesis. Never exceeds
    /// `area` — every rewrite is area-monotone.
    pub opt_area: Option<f64>,
    /// Total cycles the schedulers emitted while compiling this design
    /// (sum over scheduled blocks; `None` for rule-timed backends).
    pub sched_cycles: Option<u64>,
    /// Initiation interval achieved by modulo scheduling, if it ran.
    pub ii: Option<u64>,
    /// Simulated clock cycles (clocked designs, when simulation ran).
    pub cycles: Option<u64>,
    /// Simulated async time units (dataflow designs).
    pub time_units: Option<u64>,
    /// Why simulation was skipped or failed, if it was.
    pub sim_note: Option<String>,
    /// Native blocks the JIT compiled (JIT runs only).
    pub jit_blocks: Option<u64>,
    /// Machine-code bytes the JIT emitted (JIT runs only).
    pub jit_bytes: Option<u64>,
    /// States the JIT routed through the interpreter (JIT runs only).
    pub jit_fallbacks: Option<u64>,
    /// Per-phase wall-clock seconds, in first-recorded order.
    pub phases: Vec<(String, f64)>,
}

impl BackendQor {
    /// A row with `status` and no metrics yet.
    fn new(backend: &'static str, status: QorStatus) -> Self {
        BackendQor {
            backend,
            status,
            style: None,
            fsm_states: None,
            registers: None,
            memories: None,
            gates: None,
            area: None,
            narrowed_area: None,
            opt_area: None,
            sched_cycles: None,
            ii: None,
            cycles: None,
            time_units: None,
            sim_note: None,
            jit_blocks: None,
            jit_bytes: None,
            jit_fallbacks: None,
            phases: Vec::new(),
        }
    }
}

/// A full per-program QoR report.
#[derive(Debug, Clone, PartialEq)]
pub struct QorReport {
    /// Entry function.
    pub entry: String,
    /// Frontend wall-clock seconds (lex + parse + sema, once).
    pub parse_seconds: f64,
    /// Rendered argument vector the simulations used, if any.
    pub args_used: Option<String>,
    /// One row per backend, in registry order.
    pub backends: Vec<BackendQor>,
}

/// Builds an all-zero argument vector from the entry signature: scalars
/// become `0`, arrays become zero-filled. Returns `None` when a
/// parameter has no value representation (pointers, channels).
pub fn default_args(compiler: &Compiler, entry: &str) -> Option<Vec<ArgValue>> {
    let (_, f) = compiler.hir().func_by_name(entry)?;
    let mut args = Vec::with_capacity(f.num_params);
    for (_, l) in f.params() {
        match &l.ty {
            Type::Bool | Type::Int(_) => args.push(ArgValue::Scalar(0)),
            Type::Array(_, _) => args.push(ArgValue::Array(vec![0; l.ty.flat_len()])),
            Type::Void | Type::Ptr(_) | Type::Chan(_) => return None,
        }
    }
    Some(args)
}

fn render_args(args: &[ArgValue]) -> String {
    args.iter()
        .map(|a| match a {
            ArgValue::Scalar(v) => v.to_string(),
            ArgValue::Array(v) => v
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(","),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Extracts the static cost metrics of one design.
fn extract_design(q: &mut BackendQor, design: &Design, opts: &CompileOptions) {
    let model = opts.synth_options().model;
    q.area = Some(design.area(&model));
    match design {
        Design::Comb(nl) => {
            q.style = Some("comb");
            q.gates = Some(nl.cells.len() as u64);
            q.memories = Some(nl.rams.len() as u64);
        }
        Design::Fsmd(f) => {
            q.style = Some("fsmd");
            q.fsm_states = Some(f.states.len() as u64);
            q.registers = Some(f.regs.len() as u64);
            q.memories = Some(f.mems.len() as u64);
            // Lower to gates for a netlist cost figure (also times the
            // `rtl.fsmd_to_netlist` phase).
            q.gates = Some(chls_rtl::fsmd_to_netlist(f).cells.len() as u64);
        }
        Design::Dataflow(g) => {
            q.style = Some("dataflow");
            q.gates = Some(g.nodes.len() as u64);
            q.memories = Some(g.mems.len() as u64);
        }
    }
}

/// Synthesizes (and, when arguments are available, simulates) `entry`
/// on the selected backends, collecting QoR metrics and per-phase
/// wall-clock time through a private, per-call trace collector.
///
/// `which` restricts to one backend by name; `None` means all registered
/// backends. `args` supplies simulation inputs; `None` falls back to
/// [`default_args`] (all zeros), and simulation is skipped with a note
/// when no argument vector can be built.
///
/// The call owns its collector (installed with
/// [`chls_trace::with_collector`] for the duration), so any number of
/// reports may run concurrently — on the service executor, across
/// `explore` lattice points — without serializing on or corrupting the
/// global collector.
///
/// # Errors
///
/// Fails when the entry function does not exist or `which` names an
/// unknown backend. Per-backend synthesis failures are reported in the
/// row, not as an `Err`.
pub fn qor_report(
    compiler: &Compiler,
    entry: &str,
    which: Option<&str>,
    args: Option<&[ArgValue]>,
    opts: &CompileOptions,
) -> Result<QorReport, Error> {
    if compiler.hir().func_by_name(entry).is_none() {
        return Err(Error::Synth(SynthError::NoSuchFunction(entry.to_string())));
    }
    let backends = match which {
        None => crate::registry::backends(),
        Some(name) => match crate::registry::backend_by_name(name) {
            Some(b) => vec![b],
            None => {
                return Err(Error::Other(format!(
                    "unknown backend `{name}` (try `chls backends`)"
                )))
            }
        },
    };
    let synth_opts = opts.synth_options();
    let owned_default: Option<Vec<ArgValue>>;
    let sim_args: Option<&[ArgValue]> = match args {
        Some(a) => Some(a),
        None => {
            owned_default = default_args(compiler, entry);
            owned_default.as_deref()
        }
    };

    // Every call owns its collector: runs on different threads never
    // share spans, resets, or the enabled flag.
    let col = chls_trace::Collector::new();
    col.set_enabled(true);
    let (parse_seconds, rows) = chls_trace::with_collector(&col, || {
        measure_backends(
            compiler,
            entry,
            &backends,
            sim_args,
            opts,
            &synth_opts,
            &col,
        )
    });

    Ok(QorReport {
        entry: entry.to_string(),
        parse_seconds,
        args_used: sim_args.map(render_args),
        backends: rows,
    })
}

/// The measured body of [`qor_report`]; must run inside a
/// [`chls_trace::with_collector`] scope bound to `col` so the driver's
/// free-function instrumentation lands in this run's collector.
fn measure_backends(
    compiler: &Compiler,
    entry: &str,
    backends: &[Box<dyn chls_backends::Backend>],
    sim_args: Option<&[ArgValue]>,
    opts: &CompileOptions,
    synth_opts: &chls_backends::SynthOptions,
    col: &chls_trace::Collector,
) -> (f64, Vec<BackendQor>) {
    // Time the frontend once, by re-parsing the stored source — the
    // original parse happened outside this collector's scope.
    let _ = Compiler::parse(compiler.source());
    let parse_seconds = col
        .snapshot()
        .span("frontend.parse")
        .map_or(0.0, chls_trace::SpanStat::seconds);

    let mut rows = Vec::with_capacity(backends.len());
    for backend in backends {
        col.reset();
        // A panic in one backend is that backend's error row, so it
        // cannot take down the others' rows.
        let q = crate::executor::catch_panic(|| {
            measure_backend(
                compiler,
                entry,
                backend.as_ref(),
                sim_args,
                opts,
                synth_opts,
                col,
            )
        })
        .unwrap_or_else(|msg| BackendQor::new(backend.info().name, QorStatus::Error(msg)));
        rows.push(q);
    }
    (parse_seconds, rows)
}

/// One backend's row of [`measure_backends`]: synthesis, simulation,
/// the phase snapshot, and the narrowing and logic-optimizer what-ifs.
fn measure_backend(
    compiler: &Compiler,
    entry: &str,
    backend: &dyn chls_backends::Backend,
    sim_args: Option<&[ArgValue]>,
    opts: &CompileOptions,
    synth_opts: &chls_backends::SynthOptions,
    col: &chls_trace::Collector,
) -> BackendQor {
    let mut q = BackendQor::new(backend.info().name, QorStatus::Ok);
    match compiler.synthesize(backend, entry, synth_opts) {
        Err(
            e @ (SynthError::Unsupported { .. } | SynthError::Loop(_) | SynthError::Transform(_)),
        ) => q.status = QorStatus::Unsupported(e.to_string()),
        Err(e) => q.status = QorStatus::Error(e.to_string()),
        Ok(design) => {
            extract_design(&mut q, &design, opts);
            match sim_args {
                None => {
                    q.sim_note = Some("no argument vector (pointer/channel parameter)".to_string());
                }
                Some(a) => match simulate_design_with(&design, a, opts.jit_requested()) {
                    Ok(out) => {
                        q.cycles = out.cycles;
                        q.time_units = out.time_units;
                    }
                    Err(e) => q.sim_note = Some(e.to_string()),
                },
            }
        }
    }
    let snap = col.snapshot();
    q.sched_cycles = snap.counter("sched.cycles").filter(|&c| c > 0);
    q.ii = snap.gauge("sched.ii");
    q.jit_blocks = snap.counter("jit.blocks");
    q.jit_bytes = snap.counter("jit.bytes");
    q.jit_fallbacks = snap.counter("jit.fallbacks");
    q.phases = snap
        .spans
        .iter()
        .map(|s| (s.name.to_string(), s.seconds()))
        .collect();
    // Width-narrowing area delta: re-synthesize with `narrow_widths`
    // and cost the result. Done after the phase snapshot so the
    // second run's spans don't double-count the pipeline timing.
    if q.area.is_some() {
        if synth_opts.narrow_widths {
            q.narrowed_area = q.area;
        } else {
            let mut narrow_opts = synth_opts.clone();
            narrow_opts.narrow_widths = true;
            if let Ok(design) = compiler.synthesize(backend, entry, &narrow_opts) {
                q.narrowed_area = Some(design.area(&narrow_opts.model));
            }
        }
    }
    // Logic-optimizer area delta, same what-if pattern.
    if q.area.is_some() {
        if synth_opts.opt_netlist {
            q.opt_area = q.area;
        } else {
            let mut opt_opts = synth_opts.clone();
            opt_opts.opt_netlist = true;
            if let Ok(design) = compiler.synthesize(backend, entry, &opt_opts) {
                q.opt_area = Some(design.area(&opt_opts.model));
            }
        }
    }
    q
}

fn opt_num<T: ToString>(v: Option<T>) -> String {
    v.map_or_else(|| "-".to_string(), |v| v.to_string())
}

impl QorReport {
    /// The `data` of `report`: absent metrics are `null`, never omitted
    /// keys; areas carry one decimal and seconds nine.
    pub fn to_value(&self) -> Value {
        let rows = self.backends.iter().map(|q| {
            let area = |a: Option<f64>| a.map(|a| Value::fixed(a, 1));
            let phases = q
                .phases
                .iter()
                .map(|(name, s)| obj! { "phase": name, "seconds": Value::fixed(*s, 9) });
            obj! {
                "backend": q.backend,
                "status": q.status.tag(),
                "reason": q.status.reason(),
                "style": q.style,
                "fsm_states": q.fsm_states,
                "registers": q.registers,
                "memories": q.memories,
                "gates": q.gates,
                "area": area(q.area),
                "narrowed_area": area(q.narrowed_area),
                "opt_area": area(q.opt_area),
                "sched_cycles": q.sched_cycles,
                "ii": q.ii,
                "cycles": q.cycles,
                "time_units": q.time_units,
                "sim_note": q.sim_note.as_deref(),
                "jit_blocks": q.jit_blocks,
                "jit_bytes": q.jit_bytes,
                "jit_fallbacks": q.jit_fallbacks,
                "phases": Value::arr(phases),
            }
        });
        obj! {
            "entry": &self.entry,
            "parse_seconds": Value::fixed(self.parse_seconds, 9),
            "args": self.args_used.as_deref(),
            "backends": Value::arr(rows),
        }
    }

    /// Renders the aligned QoR table plus an aggregated per-phase
    /// wall-clock table.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "backend", "status", "style", "states", "regs", "mems", "gates", "area", "narrow",
            "opt", "sched", "II", "cycles", "time",
        ]);
        for q in &self.backends {
            t.row(vec![
                q.backend.to_string(),
                q.status.tag().to_string(),
                q.style.unwrap_or("-").to_string(),
                opt_num(q.fsm_states),
                opt_num(q.registers),
                opt_num(q.memories),
                opt_num(q.gates),
                q.area.map_or_else(|| "-".to_string(), fnum),
                q.narrowed_area.map_or_else(|| "-".to_string(), fnum),
                q.opt_area.map_or_else(|| "-".to_string(), fnum),
                opt_num(q.sched_cycles),
                opt_num(q.ii),
                opt_num(q.cycles),
                opt_num(q.time_units),
            ]);
        }
        let mut out = format!(
            "QoR report for `{}`{} (parse {:.3} ms)\n\n{t}",
            self.entry,
            self.args_used
                .as_ref()
                .map_or_else(String::new, |a| format!(" on args [{a}]")),
            self.parse_seconds * 1e3,
        );
        // Aggregate phase times across backends.
        let mut phases: Vec<(String, u64, f64)> = Vec::new();
        for q in &self.backends {
            for (name, s) in &q.phases {
                if let Some(p) = phases.iter_mut().find(|p| &p.0 == name) {
                    p.1 += 1;
                    p.2 += s;
                } else {
                    phases.push((name.clone(), 1, *s));
                }
            }
        }
        if !phases.is_empty() {
            let mut pt = Table::new(vec!["phase", "calls", "total ms"]);
            for (name, calls, secs) in &phases {
                pt.row(vec![
                    name.clone(),
                    calls.to_string(),
                    format!("{:.3}", secs * 1e3),
                ]);
            }
            out.push_str(&format!("\nwall-clock per phase (all backends)\n\n{pt}"));
        }
        for q in &self.backends {
            if let Some(reason) = q.status.reason() {
                out.push_str(&format!("note: {}: {reason}\n", q.backend));
            } else if let Some(note) = &q.sim_note {
                out.push_str(&format!(
                    "note: {}: simulation skipped: {note}\n",
                    q.backend
                ));
            }
            if let Some(blocks) = q.jit_blocks {
                out.push_str(&format!(
                    "note: {}: jit compiled {blocks} block(s), {} byte(s), {} fallback(s)\n",
                    q.backend,
                    q.jit_bytes.unwrap_or(0),
                    q.jit_fallbacks.unwrap_or(0),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GCD: &str = "int gcd(int a, int b) {
        while (b != 0) { int t = b; b = a % b; a = t; }
        return a;
    }";

    #[test]
    fn qor_covers_all_backends_with_metrics() {
        let compiler = Compiler::parse(GCD).unwrap();
        let r = qor_report(
            &compiler,
            "gcd",
            None,
            Some(&[ArgValue::Scalar(48), ArgValue::Scalar(36)]),
            &CompileOptions::new(),
        )
        .unwrap();
        assert_eq!(r.backends.len(), crate::registry::backends().len());
        let c2v = r.backends.iter().find(|q| q.backend == "c2v").unwrap();
        assert_eq!(c2v.status, QorStatus::Ok);
        assert_eq!(c2v.style, Some("fsmd"));
        assert!(c2v.fsm_states.unwrap() > 0);
        assert!(c2v.registers.unwrap() > 0);
        assert!(c2v.gates.unwrap() > 0);
        assert!(c2v.sched_cycles.unwrap() > 0, "list scheduler ran");
        assert!(c2v.cycles.unwrap() > 0, "c2v simulated a clocked design");
        assert!(
            c2v.phases.iter().any(|(n, _)| n == "backend.prepare"),
            "phases recorded: {:?}",
            c2v.phases
        );
        // Cones must fully unroll a data-dependent loop: unsupported.
        let cones = r.backends.iter().find(|q| q.backend == "cones").unwrap();
        assert!(matches!(cones.status, QorStatus::Unsupported(_)));
        // The dataflow backend reports async time, not cycles.
        let cash = r.backends.iter().find(|q| q.backend == "cash").unwrap();
        assert_eq!(cash.style, Some("dataflow"));
        assert!(cash.time_units.is_some());
    }

    #[test]
    fn opt_area_never_exceeds_area_and_tracks_baseline() {
        let compiler = Compiler::parse(GCD).unwrap();
        let r = qor_report(&compiler, "gcd", None, None, &CompileOptions::new()).unwrap();
        let mut some = 0;
        for q in &r.backends {
            if let (Some(a), Some(o)) = (q.area, q.opt_area) {
                assert!(o <= a, "{}: opt_area {o} > area {a}", q.backend);
                some += 1;
            }
        }
        assert!(some > 0, "at least one backend reports opt_area");
        // With the optimizer already on, the what-if equals the baseline.
        let r = qor_report(
            &compiler,
            "gcd",
            Some("c2v"),
            None,
            &CompileOptions::new().opt_netlist(true),
        )
        .unwrap();
        assert_eq!(r.backends[0].opt_area, r.backends[0].area);
    }

    #[test]
    fn default_args_fill_zeros() {
        let compiler = Compiler::parse("int f(int a, int b[4]) { return a + b[0]; }").unwrap();
        let args = default_args(&compiler, "f").unwrap();
        assert_eq!(args, vec![ArgValue::Scalar(0), ArgValue::Array(vec![0; 4])]);
        let r = qor_report(&compiler, "f", None, None, &CompileOptions::new()).unwrap();
        assert_eq!(r.args_used.as_deref(), Some("0 0,0,0,0"));
    }

    #[test]
    fn single_backend_filter_and_unknown() {
        let compiler = Compiler::parse(GCD).unwrap();
        let r = qor_report(&compiler, "gcd", Some("c2v"), None, &CompileOptions::new()).unwrap();
        assert_eq!(r.backends.len(), 1);
        assert!(qor_report(&compiler, "gcd", Some("nope"), None, &CompileOptions::new()).is_err());
        assert!(qor_report(&compiler, "nope", None, None, &CompileOptions::new()).is_err());
    }

    #[test]
    fn render_is_aligned_and_noted() {
        let compiler = Compiler::parse(GCD).unwrap();
        let r = qor_report(&compiler, "gcd", None, None, &CompileOptions::new()).unwrap();
        let s = r.render();
        assert!(s.contains("| backend"), "{s}");
        assert!(s.contains("wall-clock per phase"), "{s}");
        assert!(s.contains("note: cones:"), "{s}");
    }

    /// Strips wall-clock fields so reports can be compared across runs.
    fn deterministic(mut r: QorReport) -> QorReport {
        r.parse_seconds = 0.0;
        for q in &mut r.backends {
            // Phase *names* must survive in order; only times vary.
            for p in &mut q.phases {
                p.1 = 0.0;
            }
        }
        r
    }

    /// The satellite guarantee behind removing `REPORT_LOCK`: reports
    /// running concurrently on many threads produce exactly the rows a
    /// serial run produces — per-run collectors never cross-talk.
    #[test]
    fn concurrent_reports_equal_serial_ones() {
        let programs = [
            ("int gcd(int a, int b) { while (b != 0) { int t = b; b = a % b; a = t; } return a; }",
             "gcd"),
            ("int mac4(int a, int b) { int s = 0; for (int i = 0; i < 4; i++) { s = (s + a * a + b) & 4095; } return s; }",
             "mac4"),
            ("int sq(int x) { return x * x; }", "sq"),
        ];
        let serial: Vec<QorReport> = programs
            .iter()
            .map(|(src, entry)| {
                let c = Compiler::parse(src).unwrap();
                deterministic(qor_report(&c, entry, None, None, &CompileOptions::new()).unwrap())
            })
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let serial = &serial;
                let programs = &programs;
                scope.spawn(move || {
                    for (i, (src, entry)) in programs.iter().enumerate() {
                        let c = Compiler::parse(src).unwrap();
                        let got = deterministic(
                            qor_report(&c, entry, None, None, &CompileOptions::new()).unwrap(),
                        );
                        assert_eq!(got, serial[i], "report drift under concurrency ({entry})");
                    }
                });
            }
        });
    }

    /// A backend that panics the way an indexing bug does.
    struct Panics;

    impl chls_backends::Backend for Panics {
        fn info(&self) -> chls_backends::BackendInfo {
            chls_backends::C2Verilog.info()
        }

        fn synthesize(
            &self,
            _: &chls_backends::Preparer,
            _: &str,
            _: &chls_backends::SynthOptions,
        ) -> Result<Design, SynthError> {
            panic!("no entry found for key")
        }
    }

    #[test]
    fn a_panicking_backend_is_an_error_row() {
        let compiler = Compiler::parse(GCD).unwrap();
        let backends: Vec<Box<dyn chls_backends::Backend>> =
            vec![Box::new(Panics), Box::new(chls_backends::C2Verilog)];
        let opts = CompileOptions::new();
        let args = [ArgValue::Scalar(48), ArgValue::Scalar(36)];
        let col = chls_trace::Collector::new();
        col.set_enabled(true);
        let (_, rows) = chls_trace::with_collector(&col, || {
            measure_backends(
                &compiler,
                "gcd",
                &backends,
                Some(&args),
                &opts,
                &opts.synth_options(),
                &col,
            )
        });
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].backend, "c2v");
        assert_eq!(
            rows[0].status,
            QorStatus::Error("worker panicked: no entry found for key".to_string())
        );
        assert_eq!(rows[0].area, None);
        // The same compiler still serves the next backend.
        assert_eq!(rows[1].status, QorStatus::Ok);
        assert!(rows[1].cycles.is_some_and(|c| c > 0), "{:?}", rows[1]);
    }
}

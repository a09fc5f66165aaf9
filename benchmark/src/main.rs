//! `bench` — the chls benchmark.
//!
//! ```text
//! bench [--workload W]... [--seed N] [--seconds S] [--trace 0|1]
//!       [--trace-out FILE] [--out FILE] [--scale X]
//! bench compare BASE.json... -- HEAD.json...
//! ```
//!
//! With one `--workload` the run happens in this process and the last
//! line of standard output is the result as one JSON object. With none
//! (all five) or several, each workload runs in a child process of its
//! own, so set-up time, peak memory and any crash belong to one
//! workload, and a table of every metric by workload is printed.
//! `--trace 1` measures half the time untraced and half traced, and
//! reports per-layer metrics instead of end-to-end ones.

mod certify;
mod compare;
mod compile;
mod corpus;
mod gen;
mod serve;
mod sim;
mod stats;
mod trace;
mod workload;

use stats::{json_num, Metric};
use std::collections::BTreeMap;
use std::process::ExitCode;
use workload::{repeat_setup, Config, Outcome, Workload};

const WORKLOADS: [&str; 5] = ["compile", "sim_short", "sim_long", "certify", "serve"];
const DEFAULT_SECONDS: f64 = 15.0;

/// Layers the per-layer breakdown names: the program's crates, the
/// service stack as its clients see it, and `bench` for the
/// benchmark's own glue (argument building, output comparison).
const LAYERS: [&str; 14] = [
    "frontend", "opt", "ir", "sched", "backends", "rtl", "logic", "sim", "dataflow", "jit",
    "service", "explore", "rewrite", "bench",
];

/// Per-layer counts and ratios every traced run reports; a workload
/// that never reaches a layer reports 0.
const LAYER_EXTRAS: [(&str, &str); 18] = [
    ("backends.unsupported_ratio", "ratio"),
    ("rtl.cells_per_op", "count"),
    ("sched.cycles_per_op", "count"),
    ("logic.aig_nodes_per_op", "count"),
    ("logic.sat_conflicts_per_op", "count"),
    ("logic.decided_ratio", "ratio"),
    ("sim.mcycles_per_s", "Mcycles/s"),
    ("jit.mcycles_per_s", "Mcycles/s"),
    ("jit.bytes_per_design", "count"),
    ("jit.fallback_ratio", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("serve.queue_pct", "%"),
    ("explore.feasible_ratio", "ratio"),
    ("explore.frontier_points", "count"),
    ("explore.certified_ratio", "ratio"),
    ("rewrite.certified_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    trace_out: Option<String>,
    out: Option<String>,
    scale: f64,
    corrupt_golden: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: None,
        trace: false,
        trace_out: None,
        out: None,
        scale: 1.0,
        corrupt_golden: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let num = |v: &String| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: `{v}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload `{w}` (one of {})",
                        WORKLOADS.join(", ")
                    ));
                }
                a.workloads.push(w.clone());
            }
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed wants an integer".to_string())?
            }
            "--seconds" => a.seconds = Some(num(value()?)?).filter(|s| *s > 0.0),
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace wants 0 or 1, got `{v}`")),
                }
            }
            "--trace-out" => a.trace_out = Some(value()?.clone()),
            "--out" => a.out = Some(value()?.clone()),
            "--scale" => a.scale = num(value()?)?.clamp(0.001, 1.0),
            "--corrupt-golden" => a.corrupt_golden = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

/// Seconds of repeated set-up, at full scale, that `setup_s` is the
/// median of (and at least three repeats).
const SETUP_SECONDS: f64 = 1.0;

fn setup(name: &str, cfg: &Config) -> Result<(f64, Box<dyn Workload>), String> {
    fn boxed<W: Workload + 'static>(
        r: Result<(f64, W), String>,
    ) -> Result<(f64, Box<dyn Workload>), String> {
        r.map(|(s, w)| (s, Box::new(w) as Box<dyn Workload>))
    }
    let total = SETUP_SECONDS * cfg.scale;
    match name {
        "compile" => boxed(repeat_setup(3, total, || compile::setup(cfg))),
        "sim_short" => boxed(repeat_setup(3, total, || sim::setup_short(cfg))),
        "sim_long" => boxed(repeat_setup(3, total, || sim::setup_long(cfg))),
        "certify" => boxed(repeat_setup(3, total, || certify::setup(cfg))),
        "serve" => boxed(repeat_setup(3, total, || serve::setup(cfg))),
        _ => unreachable!("workload names are validated"),
    }
}

/// A finished run: the result line plus what `compare` reads.
struct RunResult {
    workload: String,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Layer → self milliseconds per operation (traced runs only).
    layer_ms: BTreeMap<&'static str, f64>,
}

impl RunResult {
    fn metrics_json(&self) -> String {
        let m = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }

    fn record_json(&self, seed: u64, trace: bool) -> String {
        let layers = self
            .layer_ms
            .iter()
            .map(|(l, v)| format!("\"{l}\":{}", json_num(*v)))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"workload\":\"{}\",\"seed\":{seed},\"trace\":{trace},\"result\":{},\"layer_ms_per_op\":{{{layers}}}}}",
            self.workload,
            self.metrics_json()
        )
    }
}

fn end_to_end(out: &Outcome, setup_s: f64) -> Vec<Metric> {
    let (_, tail) = out.tail_ms();
    vec![
        Metric::new("op_ms_p50", out.p50_ms(), "ms"),
        Metric::new("op_ms_tail", tail, "ms"),
        Metric::new("ops_per_s", out.ops_per_s, "1/s"),
        Metric::new(
            "qor_area_geomean",
            stats::geomean(out.qor_area.iter().copied()),
            "NAND2",
        ),
        Metric::new(
            "qor_cycles_geomean",
            stats::geomean(out.qor_cycles.iter().copied()),
            "cycles",
        ),
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0), "MiB"),
    ]
}

/// Runs one workload in this process.
fn run_one(name: &str, a: &Args) -> Result<RunResult, String> {
    let cfg = Config {
        seed: a.seed,
        seconds: a.seconds.unwrap_or(DEFAULT_SECONDS * a.scale),
        scale: a.scale,
        corrupt_golden: a.corrupt_golden,
    };
    let (setup_s, w) = setup(name, &cfg)?;
    let mut out = Outcome::default();
    let mut layer_ms = BTreeMap::new();
    let metrics = if a.trace {
        let mut plain = Outcome::default();
        w.measure(cfg.seconds / 2.0, &mut plain);
        trace::set_enabled(true);
        w.measure(cfg.seconds / 2.0, &mut out);
        trace::set_enabled(false);
        let overhead = out.p50_ms() / plain.p50_ms();
        out.absorb_counts(plain);
        w.finish(&mut out);
        let (spans, counters) = trace::drain();
        if let Some(path) = &a.trace_out {
            std::fs::write(path, trace::chrome_json(&spans))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("bench: wrote Chrome trace {path} ({} spans)", spans.len());
        }
        per_layer(name, &out, &spans, &counters, overhead, &mut layer_ms)
    } else {
        w.measure(cfg.seconds, &mut out);
        w.finish(&mut out);
        end_to_end(&out, setup_s)
    };
    drop(w);
    if !a.trace {
        let (q, _) = out.tail_ms();
        eprintln!(
            "bench: {name}: {} ops, tail is p{}, set-up {setup_s:.4}s (median of repeats)",
            out.ops,
            q * 100.0
        );
    }
    for f in &out.failures {
        eprintln!("bench: {name}: FAILED {f}");
    }
    Ok(RunResult {
        workload: name.to_string(),
        correct: out.failed == 0,
        attempted: out.attempted,
        failed: out.failed,
        metrics,
        layer_ms,
    })
}

/// The traced run's metrics: each layer's share of operation wall time,
/// then the per-layer counts. Prints the layer table to stderr.
fn per_layer(
    name: &str,
    out: &Outcome,
    spans: &[trace::SpanRec],
    counters: &BTreeMap<&'static str, u64>,
    overhead: f64,
    layer_ms: &mut BTreeMap<&'static str, f64>,
) -> Vec<Metric> {
    let (rows, wall_ns) = trace::layer_table(spans);
    let ops = out.ops.max(1) as f64;
    eprintln!(
        "bench: {name}: per-layer self time over {} traced ops",
        out.ops
    );
    eprintln!(
        "  {:<10} {:>9} {:>12} {:>10} {:>7}",
        "layer", "calls", "self ms", "ms/op", "share"
    );
    let mut metrics = Vec::new();
    for layer in LAYERS {
        let row = rows.get(layer).cloned().unwrap_or_default();
        let share = 100.0 * row.self_ns as f64 / wall_ns.max(1) as f64;
        let per_op = row.self_ns as f64 / 1e6 / ops;
        if row.calls > 0 {
            eprintln!(
                "  {layer:<10} {:>9} {:>12.3} {per_op:>10.4} {share:>6.2}%",
                row.calls,
                row.self_ns as f64 / 1e6
            );
        }
        layer_ms.insert(layer, per_op);
        metrics.push(Metric::new(format!("{layer}.share_pct"), share, "%"));
    }
    eprintln!("  largest by name:");
    for (n, layer, calls, ns) in trace::by_name(spans).into_iter().take(12) {
        eprintln!(
            "    {:<28} {layer:<10} {calls:>9} {:>10.4} ms/op {:>6.2}%",
            n,
            ns as f64 / 1e6 / ops,
            100.0 * ns as f64 / wall_ns.max(1) as f64
        );
    }
    let glue = rows.get("bench").map_or(0, |r| r.self_ns);
    eprintln!(
        "  layers cover {:.1}% of op wall time; trace overhead {overhead:.3}x on op_ms_p50",
        100.0 * (1.0 - glue as f64 / wall_ns.max(1) as f64)
    );
    let per_op = |c: &str| counters.get(c).copied().unwrap_or(0) as f64 / ops;
    for (metric, unit) in LAYER_EXTRAS {
        let value = match metric {
            "trace.overhead_ratio" => overhead,
            "sched.cycles_per_op" => per_op("sched.cycles"),
            "logic.aig_nodes_per_op" => per_op("logic.aig_nodes"),
            "logic.sat_conflicts_per_op" => per_op("logic.sat_conflicts"),
            _ => out
                .layer
                .iter()
                .find(|m| m.name == metric)
                .map_or(0.0, |m| m.value),
        };
        metrics.push(Metric::new(metric, value, unit));
    }
    metrics
}

/// Runs each workload in a child process and prints a metric table.
fn run_children(a: &Args, argv: &[String]) -> Result<bool, String> {
    let names: Vec<String> = if a.workloads.is_empty() {
        WORKLOADS.iter().map(ToString::to_string).collect()
    } else {
        a.workloads.clone()
    };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    // Pass everything but the workload selection and output paths on.
    let mut passthrough = Vec::new();
    let mut it = argv.iter();
    while let Some(x) = it.next() {
        match x.as_str() {
            "--workload" | "--out" | "--trace-out" => {
                it.next();
            }
            _ => passthrough.push(x.clone()),
        }
    }
    let mut records = Vec::new();
    let mut table: Vec<(String, Vec<Metric>)> = Vec::new();
    let mut all_ok = true;
    for w in &names {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(&passthrough).args(["--workload", w]);
        if let Some(t) = &a.trace_out {
            cmd.args(["--trace-out", &format!("{t}.{w}.json")]);
        }
        let record = a.out.as_ref().map(|o| format!("{o}.{w}"));
        if let Some(r) = &record {
            cmd.args(["--out", r]);
        }
        let child = cmd
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let last = stdout.lines().last().unwrap_or("");
        let parsed = chls::jsonin::parse(last)
            .ok()
            .filter(|_| child.status.success());
        let Some(v) = parsed else {
            eprintln!("bench: workload {w} failed ({})", child.status);
            all_ok = false;
            continue;
        };
        all_ok &= v.get("correct").and_then(chls::jsonin::Value::as_bool) == Some(true);
        if let Some(r) = &record {
            let text = std::fs::read_to_string(r).map_err(|e| format!("cannot read {r}: {e}"))?;
            records.push(text.trim().to_string());
            std::fs::remove_file(r).map_err(|e| format!("cannot remove {r}: {e}"))?;
        }
        table.push((w.clone(), compare::metrics_of(&v)));
    }
    print_table(&table);
    if let Some(path) = &a.out {
        let body = format!("{{\"runs\":[{}]}}\n", records.join(","));
        std::fs::write(path, body).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(all_ok)
}

fn print_table(table: &[(String, Vec<Metric>)]) {
    let mut names: Vec<(String, String)> = Vec::new();
    for (_, ms) in table {
        for m in ms {
            if !names.iter().any(|(n, _)| *n == m.name) {
                names.push((m.name.clone(), m.unit.clone()));
            }
        }
    }
    print!("{:<28} {:<10}", "metric", "unit");
    for (w, _) in table {
        print!(" {w:>12}");
    }
    println!();
    for (n, unit) in &names {
        print!("{n:<28} {unit:<10}");
        for (_, ms) in table {
            match ms.iter().find(|m| m.name == *n) {
                Some(m) => print!(" {:>12}", format_sig(m.value)),
                None => print!(" {:>12}", "-"),
            }
        }
        println!();
    }
}

fn format_sig(v: f64) -> String {
    if v == 0.0 || (1e-3..1e6).contains(&v.abs()) {
        format!("{:.4}", v)
            .trim_end_matches('0')
            .trim_end_matches('.')
            .to_string()
    } else {
        format!("{v:.3e}")
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match compare::run(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("bench compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench: {e}");
            return ExitCode::from(2);
        }
    };
    if a.workloads.len() != 1 {
        return match run_children(&a, &argv) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("bench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run_one(&a.workloads[0], &a) {
        Ok(r) => {
            if let Some(path) = &a.out {
                if let Err(e) = std::fs::write(path, r.record_json(a.seed, a.trace) + "\n") {
                    eprintln!("bench: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            println!("{}", r.metrics_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench: {}: {e}", a.workloads[0]);
            ExitCode::FAILURE
        }
    }
}

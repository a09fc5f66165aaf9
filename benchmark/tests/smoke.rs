//! Runs every workload at a fiftieth of its size and checks the output
//! contract: metric names and units as `BENCHMARK.json` lists them, QoR
//! and verdict ratios identical from run to run, a Chrome trace from a
//! traced run, and, in every workload, a corrupted reference value
//! counted as a failure.

use chls::jsonin::{self, Value};
use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;

const WORKLOADS: [&str; 5] = ["compile", "sim_short", "sim_long", "certify", "serve"];

/// (name, unit) of every metric `BENCHMARK.json` lists under `key`.
fn contract(key: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let v = jsonin::parse(&text).expect("BENCHMARK.json parses");
    let mut out: Vec<(String, String)> = v
        .get(key)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.str_of("name").expect("name").to_string(),
                m.str_of("unit").expect("unit").to_string(),
            )
        })
        .collect();
    out.sort();
    out
}

struct Run {
    correct: bool,
    failed: u64,
    metrics: BTreeMap<String, (f64, String)>,
}

/// Runs `f` on every workload, two workloads at a time (the host has
/// two cores), returning the results in workload order.
fn each_workload<R: Send>(f: impl Fn(&'static str) -> R + Sync) -> Vec<(&'static str, R)> {
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = [&WORKLOADS[..3], &WORKLOADS[3..]]
            .into_iter()
            .map(|ws| s.spawn(move || ws.iter().map(|w| (*w, f(w))).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("runner thread"))
            .collect()
    })
}

fn run(args: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["--scale", "0.02", "--seed", "3"])
        .args(args)
        .output()
        .expect("bench runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "bench {args:?} failed:\n{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    let v = jsonin::parse(last).unwrap_or_else(|e| panic!("result is not JSON ({e}): {last}"));
    let mut keys: Vec<&str> = match &v {
        Value::Obj(m) => m.keys().map(String::as_str).collect(),
        _ => panic!("result is not an object"),
    };
    keys.sort_unstable();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert!(v.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
    let metrics = match v.get("metrics") {
        Some(Value::Obj(m)) => m
            .iter()
            .map(|(k, m)| {
                let value = m
                    .get("value")
                    .and_then(Value::as_f64)
                    .expect("numeric value");
                (
                    k.clone(),
                    (value, m.str_of("unit").expect("unit").to_string()),
                )
            })
            .collect(),
        _ => panic!("no metrics object"),
    };
    Run {
        correct: v
            .get("correct")
            .and_then(Value::as_bool)
            .expect("correct flag"),
        failed: v
            .get("failed")
            .and_then(Value::as_u64)
            .expect("failed count"),
        metrics,
    }
}

fn names_and_units(r: &Run) -> Vec<(String, String)> {
    r.metrics
        .iter()
        .map(|(k, (_, u))| (k.clone(), u.clone()))
        .collect()
}

#[test]
fn every_workload_meets_the_output_contract() {
    let start = Instant::now();
    let end_to_end = contract("end_to_end");
    let per_layer = contract("per_layer");
    let exact = ["qor_area_geomean", "qor_cycles_geomean"];
    let results = each_workload(|w| (run(&["--workload", w]), run(&["--workload", w])));
    for (w, (a, b)) in &results {
        assert!(a.correct && a.failed == 0, "{w} failed operations");
        assert_eq!(
            names_and_units(a),
            end_to_end,
            "{w}: end-to-end metrics differ from BENCHMARK.json"
        );
        for m in exact {
            assert_eq!(
                a.metrics[m].0, b.metrics[m].0,
                "{w}: {m} changed between identical runs"
            );
        }
        for (name, (value, _)) in &a.metrics {
            assert!(*value > 0.0, "{w}: {name} is {value}");
        }
    }

    let trace_file = format!("{}/smoke-trace.json", env!("CARGO_TARGET_TMPDIR"));
    let traced = run(&[
        "--workload",
        "certify",
        "--trace",
        "1",
        "--trace-out",
        &trace_file,
    ]);
    let again = run(&["--workload", "certify", "--trace", "1"]);
    assert!(traced.correct, "traced certify failed operations");
    assert_eq!(
        names_and_units(&traced),
        per_layer,
        "per-layer metrics differ from BENCHMARK.json"
    );
    for m in [
        "logic.decided_ratio",
        "explore.feasible_ratio",
        "rewrite.certified_ratio",
    ] {
        assert_eq!(
            traced.metrics[m].0, again.metrics[m].0,
            "{m} changed between identical runs"
        );
    }
    let trace = std::fs::read_to_string(&trace_file).expect("trace written");
    let trace = jsonin::parse(&trace).expect("trace is JSON");
    assert!(
        trace
            .get("traceEvents")
            .and_then(Value::as_arr)
            .is_some_and(|e| !e.is_empty()),
        "trace has events"
    );

    for (w, corrupted) in each_workload(|w| run(&["--workload", w, "--corrupt-golden"])) {
        assert!(
            !corrupted.correct && corrupted.failed >= 1,
            "{w}: a corrupted reference value went unnoticed"
        );
    }
    eprintln!(
        "smoke: all workloads in {:.1} s",
        start.elapsed().as_secs_f64()
    );
}

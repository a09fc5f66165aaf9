//! Integration tests for `chls explore`: determinism across worker
//! counts (the Pareto frontier must not depend on evaluation order),
//! warm/cold equivalence (a warm request replays the cold response),
//! daemon parity (the serve path returns the one-shot bytes), and the
//! backends' declarations of which knobs they read, which decide the
//! syntheses a sweep shares.

mod common;

use chls::explore::UNROLLS;
use chls::jsonin::{parse, Value};
use chls::serve::{Client, ServeConfig, Server};
use chls::service::{self, Source};
use chls::{
    backends, Backend, CompileOptions, Compiler, Design, Request, ServiceCtx, SynthOptions,
};
use common::corpus;

/// Small enough to sweep quickly, rich enough to have a real frontier:
/// a loop (unrollable, pipelinable) over a multiply-accumulate.
const DOT4: &str = "int dot4(int a, int b) {
    int s = 0;
    for (int i = 0; i < 4; i++) {
        s = (s + a * b + i) & 65535;
    }
    return s;
}";

fn explore_req(src: &str, entry: &str, backend: Option<&str>, jobs: usize) -> Request {
    Request {
        verb: "explore".to_string(),
        source: Source::Text(src.to_string()),
        entry: entry.to_string(),
        options: CompileOptions::new().backend(backend).jobs(jobs),
        ..Request::default()
    }
}

#[test]
fn frontier_is_byte_identical_across_job_counts() {
    // Same request, 1 worker vs 8: the JSON (frontier membership, point
    // order, areas, latencies, certifications) must not move.
    let ctx1 = ServiceCtx::uncached();
    let ctx8 = ServiceCtx::uncached();
    let serial = service::handle(&explore_req(DOT4, "dot4", None, 1), &ctx1)
        .expect("serial explore handles");
    let parallel = service::handle(&explore_req(DOT4, "dot4", None, 8), &ctx8)
        .expect("parallel explore handles");
    assert!(serial.response.ok && parallel.response.ok);
    assert_eq!(
        serial.response.data, parallel.response.data,
        "explore JSON must be byte-identical for --jobs 1 vs --jobs 8"
    );
    assert_eq!(serial.response.text, parallel.response.text);
}

#[test]
fn repeated_sweeps_are_byte_identical() {
    // Two cold sweeps in fresh contexts: no run-to-run drift (HashMap
    // iteration order must never leak into synthesis results).
    let a = service::handle(&explore_req(DOT4, "dot4", None, 4), &ServiceCtx::uncached())
        .expect("first sweep handles");
    let b = service::handle(&explore_req(DOT4, "dot4", None, 4), &ServiceCtx::uncached())
        .expect("second sweep handles");
    assert_eq!(a.response.data, b.response.data, "cold sweeps must agree");
}

#[test]
fn warm_sweep_replays_the_cold_frontier() {
    // One shared context: the second sweep hits the response cache and
    // must return the identical Arc'd response.
    let ctx = ServiceCtx::with_cache(std::sync::Arc::new(chls::cache::ArtifactCache::default()));
    let req = explore_req(DOT4, "dot4", None, 4);
    let cold = service::handle(&req, &ctx).expect("cold sweep handles");
    assert!(!cold.cached, "first sweep must be a miss");
    let warm = service::handle(&req, &ctx).expect("warm sweep handles");
    assert!(warm.cached, "second identical sweep must hit");
    assert_eq!(cold.response.data, warm.response.data);
    assert_eq!(cold.response.text, warm.response.text);
}

#[test]
fn budget_prunes_but_keeps_json_shape() {
    let mut req = explore_req(DOT4, "dot4", Some("cyber"), 4);
    req.budget = Some(3);
    let h = service::handle(&req, &ServiceCtx::uncached()).expect("budgeted explore handles");
    assert!(h.response.ok);
    let v = parse(&h.response.data).expect("data is JSON");
    assert_eq!(v.get("budget").and_then(Value::as_u64), Some(3));
    assert_eq!(
        v.get("evaluated").and_then(Value::as_u64),
        Some(3),
        "budget must cap full evaluations: {}",
        h.response.data
    );
    let frontier = v
        .get("frontier")
        .and_then(Value::as_arr)
        .expect("frontier array");
    assert!(!frontier.is_empty() && frontier.len() <= 3);
}

#[test]
fn daemon_explore_matches_one_shot() {
    let mut server = Server::start(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        log: false,
        cache_budget: 64 << 20,
    })
    .expect("server binds an ephemeral port");
    let req = explore_req(DOT4, "dot4", Some("cones"), 2);
    let one_shot = service::handle(&req, &ServiceCtx::uncached()).expect("one-shot handles");

    let mut client = Client::connect(&server.addr.to_string()).expect("connects");
    let line = client.call(&req).expect("daemon call succeeds");
    let v = parse(&line).unwrap_or_else(|e| panic!("malformed envelope ({e}): {line}"));
    assert_eq!(v.str_of("tool"), Some("chls"), "{line}");
    assert_eq!(v.get("schema").and_then(Value::as_u64), Some(1), "{line}");
    assert_eq!(v.str_of("verb"), Some("explore"), "{line}");
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{line}");
    assert_eq!(
        v.str_of("text").map(str::to_string),
        Some(one_shot.response.text.clone()),
        "daemon text must be the one-shot bytes"
    );

    // Warm repeat through the daemon: cached and identical.
    let again = client.call(&req).expect("warm daemon call succeeds");
    let w = parse(&again).expect("parses");
    assert_eq!(
        w.get("cached").and_then(Value::as_bool),
        Some(true),
        "{again}"
    );
    assert_eq!(
        w.str_of("text").map(str::to_string),
        v.str_of("text").map(str::to_string)
    );
    server.stop();
}

#[test]
fn certified_points_carry_proof_metadata_and_no_refutations() {
    let h = service::handle(&explore_req(DOT4, "dot4", None, 4), &ServiceCtx::uncached())
        .expect("explore handles");
    assert!(h.response.ok, "a refuted point would flip ok=false");
    let v = parse(&h.response.data).expect("data is JSON");
    let frontier = v
        .get("frontier")
        .and_then(Value::as_arr)
        .expect("frontier array");
    assert!(frontier.len() >= 2, "expected a multi-point frontier");
    let mut certified = 0;
    for p in frontier {
        let cert = p.get("certification").expect("every point is checked");
        let tier = cert.str_of("tier").expect("tier is a string");
        assert_ne!(tier, "refuted", "{}", h.response.data);
        if tier == "certified" {
            certified += 1;
            let method = cert
                .str_of("method")
                .expect("certified points name a method");
            assert!(
                ["strash", "exhaustive", "sat"].contains(&method),
                "unexpected proof method {method}"
            );
        }
    }
    assert!(
        certified >= 1,
        "expected at least one certified point: {}",
        h.response.data
    );
}

/// What one synthesis produced, in the terms `explore` records: the
/// error (or panic) text, or the style, area bits and scheduler
/// counters. `Debug` text is not compared: it carries value numbering.
#[derive(Debug, PartialEq)]
enum Outcome {
    Failed(String),
    Built {
        style: &'static str,
        area: u64,
        sched_cycles: Option<u64>,
        ii: Option<u64>,
    },
}

fn outcome(
    compiler: &Compiler,
    backend: &dyn Backend,
    entry: &str,
    opts: &SynthOptions,
) -> Outcome {
    let col = chls_trace::Collector::new();
    col.set_enabled(true);
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        chls_trace::with_collector(&col, || compiler.synthesize(backend, entry, opts))
    }));
    match run {
        Err(p) => Outcome::Failed(
            p.downcast_ref::<&str>()
                .map(ToString::to_string)
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_default(),
        ),
        Ok(Err(e)) => Outcome::Failed(e.to_string()),
        Ok(Ok(design)) => {
            let snap = col.snapshot();
            Outcome::Built {
                style: match design {
                    Design::Comb(_) => "comb",
                    Design::Fsmd(_) => "fsmd",
                    Design::Dataflow(_) => "dataflow",
                },
                area: design.area(&chls_rtl::CostModel::new()).to_bits(),
                sched_cycles: snap.counter("sched.cycles"),
                ii: snap.gauge("sched.ii"),
            }
        }
    }
}

#[test]
fn backends_ignore_the_knobs_they_declare_unread() {
    // `explore` synthesizes once per distinct (backend, unroll, knobs
    // the backend reads) and shares the design among the points that
    // differ only in unread knobs. Turning an unread knob on, alone or
    // next to the knobs the backend reads, must therefore never change
    // what synthesis produces.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut compared = 0;
    for (path, entry) in corpus() {
        let src = std::fs::read_to_string(root.join(&path)).expect("corpus file reads");
        // Recursive programs parse only after `chls rewrite`.
        let Ok(compiler) = Compiler::parse(&src) else {
            continue;
        };
        if compiler.hir().func_by_name(&entry).is_none() {
            continue;
        }
        for backend in backends() {
            let info = backend.info();
            for unroll in UNROLLS {
                let synth = |pipeline: bool, narrow: bool| {
                    let opts = SynthOptions {
                        pipeline_loops: pipeline,
                        narrow_widths: narrow,
                        unroll_factor: unroll,
                        ..SynthOptions::default()
                    };
                    outcome(&compiler, backend.as_ref(), &entry, &opts)
                };
                for (pipeline, narrow) in
                    [(false, false), (false, true), (true, false), (true, true)]
                {
                    let base = (pipeline && info.reads_pipeline, narrow && info.reads_narrow);
                    if base == (pipeline, narrow) {
                        continue;
                    }
                    assert_eq!(
                        synth(pipeline, narrow),
                        synth(base.0, base.1),
                        "{path}: {} at unroll {unroll:?} with pipeline={pipeline} narrow={narrow} \
                         differs from its base",
                        info.name
                    );
                    compared += 1;
                }
            }
        }
    }
    assert!(compared > 0, "no program of the corpus was compared");
}

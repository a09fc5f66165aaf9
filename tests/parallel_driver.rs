//! The parallel conformance driver must be a pure performance feature:
//! verdicts, their order, and their rendering are byte-identical at any
//! job count. These tests pin that down with a differential comparison,
//! and pin the single-snapshot `eval_outputs` fast path against the
//! one-port-at-a-time `output` reference.

use chls::interp::ArgValue;
use chls::{backend_by_name, check_conformance, CompileOptions, Compiler, Design, SynthOptions};
use chls_rtl::fsmd_to_netlist;
use chls_sim::netlist_sim::NetlistSim;

/// Renders a full conformance sweep at a given job count.
fn sweep(bench_name: &str, jobs: usize) -> String {
    let bench = chls::benchmark(bench_name).expect("benchmark exists");
    let opts = CompileOptions::new().jobs(jobs);
    let results =
        check_conformance(bench.source, bench.entry, &bench.args, &opts).expect("conformance runs");
    format!("{results:?}")
}

/// jobs=1 (sequential path) and jobs=8 (threaded path) must produce
/// byte-identical verdict lists on representative seed programs: a
/// loop-carried scalar kernel, an array-writing kernel, and a
/// multiplier-heavy kernel.
#[test]
fn verdicts_identical_across_job_counts() {
    for name in ["gcd", "bubble8", "matmul4"] {
        let sequential = sweep(name, 1);
        let threaded = sweep(name, 8);
        assert_eq!(
            sequential, threaded,
            "{name}: parallel driver changed the verdicts"
        );
        // A weird job count must also agree (work claiming is dynamic,
        // so any split of the backend list must merge back in order).
        assert_eq!(sequential, sweep(name, 3), "{name}: jobs=3 differs");
    }
}

/// With `--jit` the conformance driver compiles each FSMD once and runs
/// the native code from worker threads. Verdicts must stay byte-identical
/// to the interpreter sweep at every job count.
#[test]
fn jit_verdicts_identical_across_job_counts() {
    for name in ["gcd", "bubble8", "matmul4"] {
        let bench = chls::benchmark(name).expect("benchmark exists");
        let jit_sweep = |jobs: usize| {
            let opts = CompileOptions::new().jobs(jobs).jit(true);
            let results = check_conformance(bench.source, bench.entry, &bench.args, &opts)
                .expect("conformance runs");
            format!("{results:?}")
        };
        let sequential = jit_sweep(1);
        let threaded = jit_sweep(8);
        assert_eq!(
            sequential, threaded,
            "{name}: jit verdicts differ between jobs=1 and jobs=8"
        );
        assert_eq!(
            sequential,
            sweep(name, 1),
            "{name}: jit verdicts differ from the interpreter sweep"
        );
    }
}

/// `eval_outputs` evaluates the netlist once and serves every port from
/// that snapshot; `output` re-evaluates per port. Both views of the same
/// pre-clock-edge state must agree on every declared output.
#[test]
fn eval_outputs_matches_per_port_reads() {
    let bench = chls::benchmark("gcd").expect("benchmark exists");
    let compiler = Compiler::parse(bench.source).expect("parses");
    let backend = backend_by_name("c2v").expect("registered");
    let design = compiler
        .synthesize(backend.as_ref(), bench.entry, &SynthOptions::default())
        .expect("synthesizes");
    let Design::Fsmd(fsmd) = &design else {
        panic!("c2v is a clocked backend");
    };
    let nl = fsmd_to_netlist(fsmd);
    assert!(
        nl.outputs.len() >= 2,
        "need several ports for the test to mean anything"
    );
    let mut sim = NetlistSim::new(&nl).expect("builds");
    for (i, (name, _)) in fsmd.inputs.iter().enumerate() {
        if let Some(ArgValue::Scalar(v)) = bench.args.get(fsmd.input_params[i]) {
            sim.set_input(name.clone(), *v);
        }
    }
    // Compare at reset and across several clock edges, including cycles
    // where `done` flips — every port, every time.
    for cycle in 0..24 {
        let snapshot = sim.eval_outputs().expect("evaluates");
        assert_eq!(snapshot.len(), nl.outputs.len());
        for &(name, got) in &snapshot {
            let reference = sim.output(name).expect("per-port read");
            assert_eq!(got, reference, "cycle {cycle}, port {name}");
        }
        sim.step().expect("steps");
    }
}

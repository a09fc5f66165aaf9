//! `#pragma memory bank(K)`: element `i` lives in bank `i % K`, giving
//! the scheduler K independently-ported memories. These tests check the
//! feature end-to-end: conformance against the golden interpreter across
//! every backend, the cycle payoff through c2v, and the documented
//! fallback (dynamically-banked accesses leave the array whole).

use chls::interp::ArgValue;
use chls::{
    backend_by_name, check_conformance, simulate_design, CompileOptions, Compiler, SynthOptions,
    Verdict,
};

const BANKED: &str = "
    int f(int x[8], int y[8]) {
        #pragma memory bank(2)
        int a[8];
        #pragma unroll 8
        for (int i = 0; i < 8; i++) a[i] = x[i] * y[i];
        int s = 0;
        #pragma unroll 8
        for (int j = 0; j < 8; j++) s += a[j];
        return s;
    }
";

fn args() -> Vec<ArgValue> {
    vec![
        ArgValue::Array((1..=8).collect()),
        ArgValue::Array((1..=8).rev().collect()),
    ]
}

#[test]
fn banked_kernel_conforms_on_every_backend() {
    let results =
        check_conformance(BANKED, "f", &args(), &CompileOptions::new()).expect("golden runs");
    for (backend, verdict) in results {
        match verdict {
            Verdict::Pass { .. } | Verdict::Unsupported(_) => {}
            other => panic!("{backend} diverged on banked kernel: {other:?}"),
        }
    }
}

#[test]
fn banking_buys_cycles_on_unrolled_kernels() {
    let plain_src = BANKED.replace("#pragma memory bank(2)\n", "");
    let backend = backend_by_name("c2v").expect("registered");
    let run = |src: &str| {
        let compiler = Compiler::parse(src).expect("parses");
        let design = compiler
            .synthesize(backend.as_ref(), "f", &SynthOptions::default())
            .expect("synthesizes");
        simulate_design(&design, &args()).expect("simulates")
    };
    let banked = run(BANKED);
    let plain = run(&plain_src);
    assert_eq!(banked.ret, plain.ret);
    assert!(
        banked.cycles.unwrap() < plain.cycles.unwrap(),
        "banking did not help: {:?} vs {:?}",
        banked.cycles,
        plain.cycles
    );
}

#[test]
fn dynamic_banking_falls_back_correctly() {
    // `a[k]` cannot be statically banked — the array must stay whole and
    // results must stay exact.
    let src = "
        int f(int k) {
            #pragma memory bank(2)
            int a[8];
            for (int i = 0; i < 8; i++) a[i] = i * i;
            return a[k];
        }
    ";
    let results = check_conformance(src, "f", &[ArgValue::Scalar(5)], &CompileOptions::new())
        .expect("golden runs");
    for (backend, verdict) in results {
        match verdict {
            Verdict::Pass { .. } | Verdict::Unsupported(_) => {}
            other => panic!("{backend} diverged on fallback kernel: {other:?}"),
        }
    }
}

#[test]
fn banking_composes_with_pipelining() {
    // Two banks halve the memory-port pressure inside the pipelined
    // kernel: banked+pipelined must beat pipelined-only and banked-only.
    let src = |pragma: &str| {
        format!(
            "int f(int x[32]) {{
                {pragma}
                int a[32];
                #pragma unroll 2
                for (int i = 0; i < 32; i++) a[i] = x[i];
                int s = 0;
                for (int j = 0; j < 32; j += 2) {{
                    s += a[j] * 3 - a[j + 1];
                }}
                return s;
            }}"
        )
    };
    let backend = backend_by_name("c2v").expect("registered");
    let args = [ArgValue::Array((0..32).collect())];
    let run = |src: &str, pipeline: bool| {
        let compiler = Compiler::parse(src).expect("parses");
        let golden = compiler.interpret("f", &args).expect("golden");
        let opts = SynthOptions {
            pipeline_loops: pipeline,
            ..Default::default()
        };
        let design = compiler
            .synthesize(backend.as_ref(), "f", &opts)
            .expect("synthesizes");
        let out = simulate_design(&design, &args).expect("simulates");
        assert_eq!(out.ret, golden.ret);
        out.cycles.unwrap()
    };
    let plain = run(&src(""), false);
    let piped = run(&src(""), true);
    let banked = run(&src("#pragma memory bank(2)"), false);
    let both = run(&src("#pragma memory bank(2)"), true);
    assert!(piped < plain, "{piped} vs {plain}");
    assert!(banked < plain, "{banked} vs {plain}");
    assert!(both < piped, "{both} vs {piped}");
    assert!(both < banked, "{both} vs {banked}");
}

#[test]
fn banked_rom_lookup_conforms() {
    let src = "
        #pragma memory bank(4)
        const int twiddle[16] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
        int f() {
            int s = 0;
            #pragma unroll 16
            for (int i = 0; i < 16; i++) s += twiddle[i];
            return s;
        }
    ";
    let results = check_conformance(src, "f", &[], &CompileOptions::new()).expect("golden runs");
    let mut passes = 0;
    for (backend, verdict) in results {
        match verdict {
            Verdict::Pass { .. } => passes += 1,
            Verdict::Unsupported(_) => {}
            other => panic!("{backend} diverged on banked ROM: {other:?}"),
        }
    }
    assert!(passes >= 5, "only {passes} backends passed");
}

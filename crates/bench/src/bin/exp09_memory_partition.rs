//! E9 — "C's memory model is an undifferentiated array of bytes, yet many
//! small, varied memories are most effective in hardware." The same
//! two-stream kernel with (a) everything forced into one monolithic
//! memory (C's model), (b) one memory per array (the default),
//! (c) per-array memories with 2 ports and an unrolled loop to exploit
//! them, and (d) single-ported but `#pragma memory bank(2)`-split arrays
//! — cyclic banking buys the same parallelism as multi-porting without
//! multi-port RAMs.

use chls::interp::ArgValue;
use chls::{backend_by_name, fnum, simulate_design, Compiler, SynthOptions, Table};
use chls_rtl::CostModel;

const MONOLITHIC: &str = "
    int f(int inp[16], int out[16]) {
        #pragma memory monolithic
        int a[16];
        #pragma memory monolithic
        int b[16];
        for (int i = 0; i < 16; i++) { a[i] = inp[i]; b[i] = inp[i] * 3; }
        int s = 0;
        for (int i = 0; i < 16; i++) { out[i] = a[i] + b[i]; s += out[i]; }
        return s;
    }
";

const PER_ARRAY: &str = "
    int f(int inp[16], int out[16]) {
        int a[16];
        int b[16];
        for (int i = 0; i < 16; i++) { a[i] = inp[i]; b[i] = inp[i] * 3; }
        int s = 0;
        for (int i = 0; i < 16; i++) { out[i] = a[i] + b[i]; s += out[i]; }
        return s;
    }
";

const BANKED_UNROLLED: &str = "
    int f(int inp[16], int out[16]) {
        int a[16];
        int b[16];
        #pragma unroll 2
        for (int i = 0; i < 16; i++) { a[i] = inp[i]; b[i] = inp[i] * 3; }
        int s = 0;
        #pragma unroll 2
        for (int i = 0; i < 16; i++) { out[i] = a[i] + b[i]; s += out[i]; }
        return s;
    }
";

const CYCLIC_BANKS: &str = "
    int f(int inp[16], int out[16]) {
        #pragma memory bank(2)
        int a[16];
        #pragma memory bank(2)
        int b[16];
        #pragma unroll 2
        for (int i = 0; i < 16; i++) { a[i] = inp[i]; b[i] = inp[i] * 3; }
        int s = 0;
        #pragma unroll 2
        for (int i = 0; i < 16; i++) { out[i] = a[i] + b[i]; s += out[i]; }
        return s;
    }
";

fn main() {
    let args = [
        ArgValue::Array((1..=16).collect()),
        ArgValue::Array(vec![0; 16]),
    ];
    let model = CostModel::new();
    let backend = backend_by_name("c2v").expect("registered");
    let mut t = Table::new(vec![
        "memory discipline",
        "memories",
        "cycles",
        "area (gates)",
        "speedup",
    ]);
    let mut base = 0u64;
    for (name, src, opts) in [
        (
            "monolithic (C's model)",
            MONOLITHIC,
            SynthOptions::default(),
        ),
        ("one memory per array", PER_ARRAY, SynthOptions::default()),
        (
            "per array + unroll x2 (2 ports)",
            BANKED_UNROLLED,
            SynthOptions {
                resources: {
                    let mut r = chls_sched::Resources::unlimited();
                    r.default_mem_ports = 2;
                    r
                },
                ..Default::default()
            },
        ),
        (
            "bank(2) + unroll x2 (1 port each)",
            CYCLIC_BANKS,
            SynthOptions::default(),
        ),
    ] {
        let compiler = Compiler::parse(src).expect("parses");
        let d = compiler
            .synthesize(backend.as_ref(), "f", &opts)
            .expect("synthesizes");
        let out = simulate_design(&d, &args).expect("simulates");
        assert_eq!(out.ret, Some(544));
        let cycles = out.cycles.unwrap();
        if base == 0 {
            base = cycles;
        }
        let mems = d.as_fsmd().map(|f| f.mems.len()).unwrap_or(0);
        t.row(vec![
            name.to_string(),
            mems.to_string(),
            cycles.to_string(),
            fnum(d.area(&model)),
            fnum(base as f64 / cycles as f64),
        ]);
    }
    println!("E9: one kernel, four memory architectures (c2v backend)\n");
    println!("{t}");
    println!(
        "In the monolithic model every access to `a` and `b` fights for the\n\
         same port, serializing the whole kernel. Splitting arrays into\n\
         dedicated small memories lets accesses to different arrays share a\n\
         cycle; more ports plus unrolling stack a further speedup — and\n\
         cyclic banking (`#pragma memory bank(2)`) recovers it with plain\n\
         single-ported RAMs. 'Many small, varied memories are most\n\
         effective.'"
    );
}

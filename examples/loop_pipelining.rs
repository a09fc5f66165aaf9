//! Loop pipelining walkthrough: the same FIR kernel synthesized
//! sequentially and as an overlapped (modulo-scheduled) pipeline, plus
//! what each enabler — if-conversion and affine dependence analysis —
//! contributes on kernels that need it.
//!
//! ```sh
//! cargo run --example loop_pipelining
//! ```

use chls::interp::ArgValue;
use chls::{backend_by_name, fnum, simulate_design, Compiler, SynthOptions, Table};
use chls_opt::dep::AliasPrecision;
use chls_rtl::CostModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let backend = backend_by_name("c2v").expect("c2v is registered");
    let model = CostModel::new();

    // 1. A streaming MAC loop: the pipeliner's bread and butter.
    let fir = "
        const int coeff[8] = {1, 2, 3, 4, 4, 3, 2, 1};
        void fir(int x[64], int y[64]) {
            for (int n = 7; n < 64; n++) {
                int acc = 0;
                for (int k = 0; k < 8; k++) {
                    acc += coeff[k] * x[n - k];
                }
                y[n] = acc >> 4;
            }
        }
    ";
    let fir_args = [
        ArgValue::Array((0..64).map(|i| (i * 7 + 3) % 50).collect()),
        ArgValue::Array(vec![0; 64]),
    ];

    println!("1. FIR-64, sequential vs. pipelined c2v\n");
    let compiler = Compiler::parse(fir)?;
    let mut t = Table::new(vec![
        "schedule",
        "cycles",
        "clock (ns)",
        "area (gates)",
        "speedup",
    ]);
    let mut base_cycles = 0;
    for (label, pipeline) in [("sequential", false), ("pipelined", true)] {
        let opts = SynthOptions {
            pipeline_loops: pipeline,
            ..Default::default()
        };
        let design = compiler.synthesize(backend.as_ref(), "fir", &opts)?;
        let out = simulate_design(&design, &fir_args)?;
        let cycles = out.cycles.unwrap();
        if !pipeline {
            base_cycles = cycles;
        }
        let chls::Design::Fsmd(f) = &design else {
            unreachable!("c2v emits FSMDs")
        };
        t.row(vec![
            label.to_string(),
            cycles.to_string(),
            fnum(f.critical_path(&model) + model.sequential_overhead_ns),
            format!("{:.0}", design.area(&model)),
            fnum(base_cycles as f64 / cycles as f64),
        ]);
    }
    println!("{t}");
    println!(
        "The inner MAC loop issues one iteration per window instead of\n\
         serializing load->multiply->accumulate; the accumulator recurrence\n\
         is honored through the modulo schedule's carried edges.\n"
    );

    // 2. What if-conversion buys: a saturating (clamped) accumulation,
    // whose body branches every iteration.
    let clamp = "
        int clamp_sum(int a[32], int lo, int hi) {
            int acc = 0;
            for (int i = 0; i < 32; i++) {
                int v = a[i];
                if (v < lo) { v = lo; } else { if (v > hi) { v = hi; } }
                acc = acc + v;
            }
            return acc;
        }
    ";
    let clamp_args = [
        ArgValue::Array((0..32).map(|i| (i * 37 % 300) - 100).collect()),
        ArgValue::Scalar(0),
        ArgValue::Scalar(100),
    ];
    println!("2. Branchy body: if-conversion is the enabler\n");
    let compiler = Compiler::parse(clamp)?;
    let mut t = Table::new(vec!["configuration", "cycles"]);
    for (label, pipeline, ifconv) in [
        ("sequential", false, true),
        ("pipelined, no if-conversion", true, false),
        ("pipelined + if-conversion", true, true),
    ] {
        let opts = SynthOptions {
            pipeline_loops: pipeline,
            pipeline_if_convert: ifconv,
            ..Default::default()
        };
        let design = compiler.synthesize(backend.as_ref(), "clamp_sum", &opts)?;
        let out = simulate_design(&design, &clamp_args)?;
        t.row(vec![label.to_string(), out.cycles.unwrap().to_string()]);
    }
    println!("{t}");
    println!(
        "Without predication the conditional body is not a single-block\n\
         loop, so the pipeliner must fall back; with it, both arms become\n\
         Selects and the loop overlaps.\n"
    );

    // 3. What affine dependence analysis buys: an in-place update whose
    // store only *looks* like it conflicts with the next iteration's load.
    let inplace = "
        void scale(int a[32]) {
            for (int i = 0; i < 32; i++) a[i] = (a[i] * 5) >> 1;
        }
    ";
    let inplace_args = [ArgValue::Array((0..32).map(|i| i - 7).collect())];
    println!("3. In-place update: affine dependence analysis is the enabler\n");
    let compiler = Compiler::parse(inplace)?;
    let mut t = Table::new(vec!["configuration", "cycles"]);
    for (label, pipeline, precision) in [
        ("sequential", false, AliasPrecision::Basic),
        ("pipelined, no analysis", true, AliasPrecision::None),
        ("pipelined + affine analysis", true, AliasPrecision::Basic),
    ] {
        let opts = SynthOptions {
            pipeline_loops: pipeline,
            precision,
            ..Default::default()
        };
        let design = compiler.synthesize(backend.as_ref(), "scale", &opts)?;
        let out = simulate_design(&design, &inplace_args)?;
        t.row(vec![label.to_string(), out.cycles.unwrap().to_string()]);
    }
    println!("{t}");
    println!(
        "`a[i]` this iteration and `a[i+1]` next iteration never alias\n\
         (the addresses differ by the stride), but only the analysis can\n\
         prove it; without it the carried store->load edge pins the II.\n\n\
         Every configuration above simulates bit-exactly against the\n\
         golden interpreter — run `cargo test --test pipeline_prop` for\n\
         the property-based version of that claim."
    );
    Ok(())
}

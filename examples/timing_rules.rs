//! The paper's central timing argument, live: the *same* FIR filter under
//! the three cycle-insertion policies — Handel-C's one-cycle-per-
//! assignment rule, Transmogrifier's one-cycle-per-iteration rule, and
//! C2Verilog-style compiler scheduling — and what recoding (fusing
//! assignments, unrolling loops) buys under each.
//!
//! ```sh
//! cargo run --example timing_rules
//! ```

use chls::interp::ArgValue;
use chls::{backend_by_name, fnum, simulate_design, Compiler, SynthOptions, Table};
use chls_rtl::CostModel;

const NAIVE: &str = "
    const int coeff[8] = {1, 2, 3, 4, 4, 3, 2, 1};
    void fir(int x[16], int y[16]) {
        for (int n = 7; n < 16; n++) {
            int acc = 0;
            for (int k = 0; k < 8; k++) {
                int prod = coeff[k] * x[n - k];
                acc = acc + prod;
            }
            y[n] = acc >> 4;
        }
    }
";

/// Handel-C recoding: fuse the multiply-accumulate into one assignment.
const FUSED: &str = "
    const int coeff[8] = {1, 2, 3, 4, 4, 3, 2, 1};
    void fir(int x[16], int y[16]) {
        for (int n = 7; n < 16; n++) {
            int acc = 0;
            for (int k = 0; k < 8; k++) {
                acc = acc + coeff[k] * x[n - k];
            }
            y[n] = acc >> 4;
        }
    }
";

/// Transmogrifier recoding: unroll the inner loop to buy iterations back.
const UNROLLED: &str = "
    const int coeff[8] = {1, 2, 3, 4, 4, 3, 2, 1};
    void fir(int x[16], int y[16]) {
        for (int n = 7; n < 16; n++) {
            int acc = 0;
            #pragma unroll 8
            for (int k = 0; k < 8; k++) {
                acc = acc + coeff[k] * x[n - k];
            }
            y[n] = acc >> 4;
        }
    }
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = [
        ArgValue::Array((0..16).map(|i| (i * 7 + 3) % 50).collect()),
        ArgValue::Array(vec![0; 16]),
    ];
    let model = CostModel::new();
    let opts = SynthOptions::default();

    let mut table = Table::new(vec![
        "source coding",
        "backend",
        "cycles",
        "min clock (ns)",
        "wall time (ns)",
        "area",
    ]);
    let expected = Compiler::parse(NAIVE)?.interpret("fir", &args)?.arrays[1]
        .1
        .clone();

    for (coding, src) in [
        ("naive", NAIVE),
        ("fused", FUSED),
        ("unrolled x8", UNROLLED),
    ] {
        let compiler = Compiler::parse(src)?;
        for backend_name in ["handelc", "transmogrifier", "c2v"] {
            let backend = backend_by_name(backend_name).expect("registered");
            let design = compiler.synthesize(backend.as_ref(), "fir", &opts)?;
            let out = simulate_design(&design, &args)?;
            assert_eq!(
                out.arrays[1].1, expected,
                "{backend_name} wrong on {coding}"
            );
            let cycles = out.cycles.unwrap();
            let fsmd = design.as_fsmd().expect("clocked");
            let period = fsmd.critical_path(&model) + model.sequential_overhead_ns;
            table.row(vec![
                coding.to_string(),
                backend_name.to_string(),
                cycles.to_string(),
                fnum(period),
                fnum(cycles as f64 * period),
                fnum(design.area(&model)),
            ]);
        }
    }
    println!("FIR-8 over 16 samples, identical semantics, three codings:\n");
    println!("{table}");
    println!(
        "\nReadings (the paper's claims, quantified):\n\
         * handelc: fusing assignments cuts cycles (fewer '=' statements)\n\
           but lengthens the critical path — the clock slows down.\n\
         * transmogrifier: unrolling removes iterations (its only cycle\n\
           unit) at a steep area and clock-period price.\n\
         * c2v: the compiler's schedule is insensitive to recoding — the\n\
           whole point of compiler-owned timing."
    );
    Ok(())
}

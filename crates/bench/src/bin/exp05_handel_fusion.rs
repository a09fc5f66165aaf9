//! E5 — Handel-C's rule in action: "Each assignment statement runs in one
//! cycle … Handel-C may require assignment statements to be fused" to
//! meet a cycle budget, trading clock rate for cycle count. C2Verilog,
//! whose compiler owns the schedule, is indifferent to the same recoding.

use chls::interp::ArgValue;
use chls::{backend_by_name, fnum, simulate_design, Compiler, SynthOptions, Table};
use chls_rtl::CostModel;

/// The same complex-multiply kernel at three fusion levels.
const THREE_TEMPS: &str = "
    int f(int ar, int ai, int br, int bi) {
        int t1 = ar * br;
        int t2 = ai * bi;
        int t3 = ar * bi;
        int t4 = ai * br;
        int re = t1 - t2;
        int im = t3 + t4;
        return re ^ im;
    }
";
const TWO_TEMPS: &str = "
    int f(int ar, int ai, int br, int bi) {
        int re = ar * br - ai * bi;
        int im = ar * bi + ai * br;
        return re ^ im;
    }
";
const FULLY_FUSED: &str = "
    int f(int ar, int ai, int br, int bi) {
        return (ar * br - ai * bi) ^ (ar * bi + ai * br);
    }
";

fn main() {
    let args = [
        ArgValue::Scalar(3),
        ArgValue::Scalar(-4),
        ArgValue::Scalar(5),
        ArgValue::Scalar(7),
    ];
    let model = CostModel::new();
    let opts = SynthOptions::default();
    let mut t = Table::new(vec![
        "coding",
        "backend",
        "cycles",
        "min clock (ns)",
        "wall (ns)",
    ]);
    for (coding, src) in [
        ("6 assignments", THREE_TEMPS),
        ("3 assignments", TWO_TEMPS),
        ("1 assignment", FULLY_FUSED),
    ] {
        let compiler = Compiler::parse(src).expect("parses");
        for backend in ["handelc", "c2v"] {
            let b = backend_by_name(backend).expect("registered");
            let d = compiler
                .synthesize(b.as_ref(), "f", &opts)
                .expect("synthesizes");
            let out = simulate_design(&d, &args).expect("simulates");
            let fsmd = d.as_fsmd().expect("clocked");
            let period = fsmd.critical_path(&model) + model.sequential_overhead_ns;
            t.row(vec![
                coding.to_string(),
                backend.to_string(),
                out.cycles.unwrap().to_string(),
                fnum(period),
                fnum(out.cycles.unwrap() as f64 * period),
            ]);
        }
    }
    println!("E5: complex multiply, assignment fusion under the Handel-C rule\n");
    println!("{t}");
    println!(
        "Handel-C: every fused assignment removes a whole cycle and dumps\n\
         its logic into the remaining one — cycle count falls, clock\n\
         slows. C2Verilog schedules the same dataflow identically no\n\
         matter how the designer groups it."
    );
}

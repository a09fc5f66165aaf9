//! E10 — HardwareC: timing constraints "allow easier design-space
//! exploration".
//!
//! Two sweeps of the same 4-product multiply-accumulate window:
//!
//! 1. **One axis, in-language** — `#pragma constraint N` budgets under
//!    force-directed scheduling: latency trades against functional
//!    units along a Pareto curve, and infeasible budgets come back as
//!    errors carrying the best achievable latency.
//! 2. **The full space, by the tool** — the `chls explore` engine
//!    sweeps backend × pipeline × narrow × opt-netlist × unroll and
//!    certifies every frontier point against an unoptimized reference,
//!    which is what "easier design-space exploration" grows into once
//!    the compiler owns the knobs instead of the source text.

use chls::explore::{explore, ExploreOptions};
use chls::interp::ArgValue;
use chls::{
    backend_by_name, fnum, simulate_design, Compiler, ServiceCtx, SynthError, SynthOptions, Table,
};
use chls_rtl::{CostModel, OpClass};
use std::sync::Arc;

fn source(budget: u32) -> String {
    format!(
        "int f(int a, int b, int c, int d, int e, int g, int h, int k) {{
            int s = 0;
            #pragma constraint {budget}
            {{
                int p0 = a * b;
                int p1 = c * d;
                int p2 = e * g;
                int p3 = h * k;
                s = ((p0 + p1) + (p2 + p3));
            }}
            return s;
        }}"
    )
}

/// The same window without the constraint pragma, as a looped kernel
/// the full-lattice sweep can unroll and pipeline.
const WINDOW: &str = "int f(int a, int b, int c, int d, int e, int g, int h, int k) {
    int x[4];
    int y[4];
    x[0] = a; x[1] = c; x[2] = e; x[3] = h;
    y[0] = b; y[1] = d; y[2] = g; y[3] = k;
    int s = 0;
    for (int i = 0; i < 4; i++) {
        s += x[i] * y[i];
    }
    return s;
}";

fn constraint_sweep() {
    let args: Vec<ArgValue> = (1..=8).map(ArgValue::Scalar).collect();
    let model = CostModel::new();
    let backend = backend_by_name("hardwarec").expect("registered");
    let opts = SynthOptions::default();
    let mut t = Table::new(vec![
        "constraint (cycles)",
        "feasible?",
        "total cycles",
        "multipliers",
        "adders",
        "area (gates)",
    ]);
    for budget in [1u32, 2, 3, 4, 6, 8] {
        let src = source(budget);
        let compiler = Compiler::parse(&src).expect("parses");
        match compiler.synthesize(backend.as_ref(), "f", &opts) {
            Err(SynthError::ConstraintInfeasible { achieved, .. }) => {
                t.row(vec![
                    budget.to_string(),
                    format!("no (best {achieved})"),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
            }
            Err(e) => panic!("unexpected: {e}"),
            Ok(d) => {
                let out = simulate_design(&d, &args).expect("simulates");
                assert_eq!(out.ret, Some(2 + 12 + 30 + 56));
                let fsmd = d.as_fsmd().expect("clocked");
                let fu = fsmd.fu_requirements();
                let count = |cls: OpClass| {
                    fu.iter()
                        .filter(|((c, _), _)| *c == cls)
                        .map(|(_, n)| *n)
                        .sum::<usize>()
                };
                t.row(vec![
                    budget.to_string(),
                    "yes".into(),
                    out.cycles.unwrap().to_string(),
                    count(OpClass::Mul).to_string(),
                    count(OpClass::AddSub).to_string(),
                    fnum(d.area(&model)),
                ]);
            }
        }
    }
    println!("E10a: 4-product MAC window under HardwareC timing constraints\n");
    println!("{t}");
    println!(
        "Tightening the in-language constraint from 8 cycles to 1 walks the\n\
         latency/area Pareto front without touching the algorithm — the\n\
         design-space exploration story. Budgets below the critical path\n\
         come back as errors carrying the best achievable latency.\n"
    );
}

fn full_lattice_sweep() {
    let compiler = Arc::new(Compiler::parse(WINDOW).expect("parses"));
    let digest = chls::cache::fnv64(WINDOW.as_bytes());
    let opts = ExploreOptions {
        jobs: 4,
        seq_bound: 32,
        ..ExploreOptions::default()
    };
    let report = explore(&compiler, "f", &opts, &ServiceCtx::uncached(), digest)
        .expect("full-lattice sweep succeeds");
    println!(
        "E10b: the same window, full configuration lattice ({} points, {} backends)\n",
        report.lattice,
        report.backends.len()
    );
    print!("{}", report.render());
    assert!(
        report.frontier.len() >= 3,
        "expected a multi-point certified frontier, got {}",
        report.frontier.len()
    );
    assert!(
        report.frontier_backends() >= 2,
        "expected the frontier to span several backends"
    );
    println!(
        "\nWhat one pragma axis sketched, the full sweep completes: {} \
         mutually non-dominated (area, latency, II) points across {} \
         backends, every one checked against an unoptimized reference \
         of its own backend.",
        report.frontier.len(),
        report.frontier_backends()
    );
}

fn main() {
    constraint_sweep();
    full_lattice_sweep();
}

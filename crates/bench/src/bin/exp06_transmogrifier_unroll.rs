//! E6 — Transmogrifier C's rule: "only loop iterations and function calls
//! take a cycle … loops may need to be unrolled" to meet timing. A dot
//! product at unroll factors 1..16 shows the trade: cycles fall linearly,
//! while the single-cycle region's logic depth, memory ports, and area
//! climb.

use chls::interp::ArgValue;
use chls::{backend_by_name, fnum, simulate_design, Compiler, SynthOptions, Table};
use chls_rtl::CostModel;

fn source(unroll: u32) -> String {
    let pragma = if unroll > 1 {
        format!("#pragma unroll {unroll}\n                ")
    } else {
        String::new()
    };
    format!(
        "int dot(int a[16], int b[16]) {{
            int s = 0;
            {pragma}for (int i = 0; i < 16; i++) s += a[i] * b[i];
            return s;
        }}"
    )
}

fn main() {
    let args = [
        ArgValue::Array((1..=16).collect()),
        ArgValue::Array((1..=16).rev().collect()),
    ];
    let model = CostModel::new();
    let backend = backend_by_name("transmogrifier").expect("registered");
    let opts = SynthOptions::default();
    let mut t = Table::new(vec![
        "unroll",
        "cycles",
        "min clock (ns)",
        "wall (ns)",
        "area (gates)",
        "mem read ports",
    ]);
    for unroll in [1u32, 2, 4, 8, 16] {
        let src = source(unroll);
        let compiler = Compiler::parse(&src).expect("parses");
        let d = compiler
            .synthesize(backend.as_ref(), "dot", &opts)
            .expect("synthesizes");
        let out = simulate_design(&d, &args).expect("simulates");
        assert_eq!(out.ret, Some(816));
        let fsmd = d.as_fsmd().expect("clocked");
        let period = fsmd.critical_path(&model) + model.sequential_overhead_ns;
        let ports = fsmd
            .mem_port_usage()
            .iter()
            .map(|(r, _)| *r)
            .max()
            .unwrap_or(0);
        t.row(vec![
            format!("x{unroll}"),
            out.cycles.unwrap().to_string(),
            fnum(period),
            fnum(out.cycles.unwrap() as f64 * period),
            fnum(d.area(&model)),
            ports.to_string(),
        ]);
    }
    println!("E6: dot-16 under Transmogrifier's one-cycle-per-iteration rule\n");
    println!("{t}");
    println!(
        "Unrolling is the *only* lever the rule leaves the designer: each\n\
         factor of 2 halves the iteration count (and so the cycles), but\n\
         the per-cycle region doubles — deeper logic, more memory ports,\n\
         more area. 'Simple to understand … can require recoding to meet\n\
         timing.'"
    );
}

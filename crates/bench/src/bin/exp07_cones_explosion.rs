//! E7 — Cones "flattens each function, including loops and conditionals,
//! into a single two-level network": combinational area and delay vs.
//! problem size, and the hard wall at data-dependent control.

use chls::interp::ArgValue;
use chls::{backend_by_name, fnum, simulate_design, Compiler, SynthOptions, Table};
use chls_rtl::CostModel;

fn main() {
    let model = CostModel::new();
    let backend = backend_by_name("cones").expect("registered");
    let opts = SynthOptions::default();

    println!("E7a: fully-unrolled reduction tree, area/delay vs trip count\n");
    let mut t = Table::new(vec!["trips", "netlist cells", "area (gates)", "delay (ns)"]);
    for n in [2usize, 4, 8, 16, 32, 64] {
        let src = format!(
            "int f(int x) {{
                int s = 0;
                for (int i = 0; i < {n}; i++) s += (x + i) * (i | 1);
                return s;
            }}"
        );
        let compiler = Compiler::parse(&src).expect("parses");
        let d = compiler
            .synthesize(backend.as_ref(), "f", &opts)
            .expect("synthesizes");
        let out = simulate_design(&d, &[ArgValue::Scalar(3)]).expect("simulates");
        let golden = compiler
            .interpret("f", &[ArgValue::Scalar(3)])
            .expect("golden");
        assert_eq!(out.ret, golden.ret);
        let nl = d.as_netlist().expect("combinational");
        t.row(vec![
            n.to_string(),
            nl.cells.len().to_string(),
            fnum(nl.area(&model)),
            fnum(nl.critical_path(&model)),
        ]);
    }
    println!("{t}");

    println!("E7b: data-dependent array indexing, area vs array size (mux trees)\n");
    let mut t = Table::new(vec!["array len", "netlist cells", "area (gates)"]);
    for n in [4usize, 8, 16, 32, 64] {
        let src = format!(
            "void f(int a[{n}], int idx[{n}]) {{
                for (int i = 0; i < {n}; i++) a[i] = a[idx[i] & {mask}] + 1;
            }}",
            mask = n - 1
        );
        let compiler = Compiler::parse(&src).expect("parses");
        let d = compiler
            .synthesize(backend.as_ref(), "f", &opts)
            .expect("synthesizes");
        let nl = d.as_netlist().expect("combinational");
        t.row(vec![
            n.to_string(),
            nl.cells.len().to_string(),
            fnum(nl.area(&model)),
        ]);
    }
    println!("{t}");

    let gcd = Compiler::parse(
        "int gcd(int a, int b) { while (b != 0) { int t = b; b = a % b; a = t; } return a; }",
    )
    .expect("parses");
    let refusal = gcd.synthesize(backend.as_ref(), "gcd", &opts).unwrap_err();
    println!("E7c: data-dependent loop -> {refusal}\n");
    println!(
        "Area grows linearly with trips and superlinearly once dynamic\n\
         indexing multiplies mux trees; delay accumulates through the whole\n\
         unrolled chain (no registers to cut it). And anything whose trip\n\
         count depends on data simply cannot be built — the reason every\n\
         later system moved to sequential circuits."
    );
}

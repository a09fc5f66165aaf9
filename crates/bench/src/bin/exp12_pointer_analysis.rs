//! E12 — C's pointers "demand compilers with aggressive optimization to
//! perform costly pointer analysis". Three measurements:
//!
//! 1. analysis cost vs. program size (synthetic pointer-copy chains);
//! 2. what resolution buys: a kernel whose pointers resolve to single
//!    arrays vs. the same kernel forced through the monolithic memory;
//! 3. what *disambiguation* buys the scheduler: cycles with and without
//!    the may-alias test.

use chls::interp::ArgValue;
use chls::{backend_by_name, simulate_design, Compiler, SynthOptions, Table};
use chls_opt::dep::AliasPrecision;
use chls_opt::ptr::{lower_pointers, PtrStats};
use std::fmt::Write as _;
use std::time::Instant;

/// Synthetic program with `n` pointer-copy chains over `n` arrays.
fn chains(n: usize) -> String {
    let mut src = String::from("int f() {\n    int total = 0;\n");
    for i in 0..n {
        let _ = writeln!(src, "    int a{i}[4];");
        let _ = writeln!(src, "    a{i}[0] = {i};");
        let _ = writeln!(src, "    int *p{i}_0 = &a{i}[0];");
        for j in 1..8 {
            let _ = writeln!(src, "    int *p{i}_{j} = p{i}_{} + 0;", j - 1);
        }
        let _ = writeln!(src, "    total += *p{i}_7;");
    }
    src.push_str("    return total;\n}\n");
    src
}

fn main() {
    // Part 1: analysis cost scaling.
    let mut t = Table::new(vec![
        "pointer chains",
        "pointers",
        "analysis iterations",
        "resolved",
        "time (us)",
    ]);
    for n in [2usize, 8, 32, 128] {
        let src = chains(n);
        let hir = chls_frontend::compile_to_hir(&src).expect("parses");
        let (id, _) = hir.func_by_name("f").expect("exists");
        let mut prog = chls_opt::inline_program(&hir, id).expect("inlines");
        let mut stats = PtrStats::default();
        let start = Instant::now();
        lower_pointers(&mut prog.funcs[0], &mut stats).expect("analyzes");
        let us = start.elapsed().as_micros();
        t.row(vec![
            n.to_string(),
            stats.pointers.to_string(),
            stats.iterations.to_string(),
            stats.resolved.to_string(),
            us.to_string(),
        ]);
    }
    println!("E12a: Andersen-style points-to analysis cost vs program size\n");
    println!("{t}");

    // Part 2: resolution quality -> memory architecture.
    const RESOLVED: &str = "
        int f(int a[16], int b[16]) {
            int *pa = &a[0];
            int *pb = &b[0];
            int s = 0;
            for (int i = 0; i < 16; i++) s += pa[i] * pb[i];
            return s;
        }
    ";
    const AMBIGUOUS: &str = "
        int f(int sel) {
            int a[16];
            int b[16];
            for (int i = 0; i < 16; i++) { a[i] = i; b[i] = i * 2; }
            int *pa = sel != 0 ? &a[0] : &b[0];
            int *pb = sel != 0 ? &b[0] : &a[0];
            int s = 0;
            for (int i = 0; i < 16; i++) s += pa[i] * pb[i];
            return s;
        }
    ";
    let backend = backend_by_name("c2v").expect("registered");
    let opts = SynthOptions::default();
    let mut t = Table::new(vec![
        "kernel",
        "pointers resolve?",
        "memories used",
        "loop cycles",
    ]);
    {
        let compiler = Compiler::parse(RESOLVED).expect("parses");
        let d = compiler
            .synthesize(backend.as_ref(), "f", &opts)
            .expect("synth");
        let args = [
            ArgValue::Array((1..=16).collect()),
            ArgValue::Array((1..=16).rev().collect()),
        ];
        let out = simulate_design(&d, &args).expect("sim");
        assert_eq!(out.ret, Some(816));
        let mems = d
            .as_fsmd()
            .unwrap()
            .mems
            .iter()
            .filter(|m| m.len > 0)
            .count();
        t.row(vec![
            "dot16 via pointers".to_string(),
            "yes -> direct arrays".into(),
            mems.to_string(),
            out.cycles.unwrap().to_string(),
        ]);
    }
    {
        let compiler = Compiler::parse(AMBIGUOUS).expect("parses");
        let d = compiler
            .synthesize(backend.as_ref(), "f", &opts)
            .expect("synth");
        let out = simulate_design(&d, &[ArgValue::Scalar(1)]).expect("sim");
        assert_eq!(out.ret, Some((0..16).map(|i| i * i * 2).sum::<i64>()));
        let mems = d
            .as_fsmd()
            .unwrap()
            .mems
            .iter()
            .filter(|m| m.len > 0)
            .count();
        t.row(vec![
            "dot16, data-dependent pointers".to_string(),
            "no -> monolithic memory".into(),
            mems.to_string(),
            out.cycles.unwrap().to_string(),
        ]);
    }
    println!("E12b: pointer resolution decides the memory architecture\n");
    println!("{t}");

    // Part 3: disambiguation buys the scheduler parallelism.
    // Fully unrolled so addresses are compile-time constants — the case
    // the disambiguator can actually act on.
    const STREAMS: &str = "
        void f(int a[8], int b[8]) {
            #pragma unroll 8
            for (int i = 0; i < 8; i++) {
                a[i] = a[i] + 1;
                b[i] = b[i] * 2;
            }
        }
    ";
    let mut t = Table::new(vec!["alias precision", "cycles"]);
    for (name, precision) in [
        ("none (all accesses conflict)", AliasPrecision::None),
        (
            "basic (constant offsets disambiguated)",
            AliasPrecision::Basic,
        ),
    ] {
        let o = SynthOptions {
            precision,
            resources: {
                let mut r = chls_sched::Resources::unlimited();
                r.default_mem_ports = 2;
                r
            },
            ..Default::default()
        };
        let compiler = Compiler::parse(STREAMS).expect("parses");
        let d = compiler
            .synthesize(backend.as_ref(), "f", &o)
            .expect("synth");
        let args = [
            ArgValue::Array((1..=8).collect()),
            ArgValue::Array((1..=8).collect()),
        ];
        let out = simulate_design(&d, &args).expect("sim");
        assert_eq!(out.arrays[0].1, (2..=9).collect::<Vec<i64>>());
        t.row(vec![name.to_string(), out.cycles.unwrap().to_string()]);
    }
    println!("E12c: memory disambiguation in the scheduler\n");
    println!("{t}");
    println!(
        "Cheap analysis, big consequences: resolved pointers get dedicated\n\
         fast memories and alias-free schedules; unresolved ones drag every\n\
         object into one serialized memory — 'costly pointer analysis' is\n\
         the toll C charges for hardware."
    );
}

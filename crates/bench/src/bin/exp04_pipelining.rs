//! E4 — "Pipelining works well on regular loops, e.g., in scientific
//! computation, but is less effective in general."
//!
//! For each benchmark's hottest innermost loop: the initiation interval
//! (II) achieved by iterative modulo scheduling, its resource and
//! recurrence lower bounds, and the asymptotic speedup over a
//! non-pipelined schedule of the same body.

use chls::{benchmarks, fnum, Table};
use chls_opt::dep::AliasPrecision;
use chls_rtl::CostModel;
use chls_sched::modulo::{loop_dfg, modulo_schedule};
use chls_sched::{list_schedule, Resources};

/// Extra kernels with deeper loop bodies, where pipelining's headroom is
/// visible: a polynomial evaluator (independent iterations, deep body)
/// and a Newton-style recurrence (every iteration needs the last).
const DEEP_KERNELS: &[(&str, &str, bool)] = &[
    (
        "poly8 (deep regular)",
        "int f(int a[64], int n) {
            int s = 0;
            for (int i = 0; i < n; i++) {
                int x = a[i];
                int p = ((((((x * 3 + 1) * x + 2) * x + 3) * x + 4) * x + 5) * x + 6);
                s = s ^ p;
            }
            return s;
        }",
        true,
    ),
    (
        "newton (deep recurrence)",
        "int f(int x0, int n) {
            int x = x0;
            for (int i = 0; i < n; i++) {
                x = (x * x * 3 + x * 5 + 7) & 0xffff;
            }
            return x;
        }",
        false,
    ),
];

fn main() {
    let model = CostModel::new();
    let period = 1.0;
    let res = Resources::typical();
    // A generous datapath: recurrences stay pinned, resources do not.
    let generous = {
        let mut r = Resources::unlimited();
        r.default_mem_ports = 2;
        r
    };
    let mut t = Table::new(vec![
        "benchmark",
        "loop kind",
        "body ops",
        "ResMII",
        "RecMII",
        "II",
        "serial len",
        "speedup",
        "II (wide HW)",
        "speedup (wide HW)",
    ]);
    let mut regular_speedups = Vec::new();
    let mut irregular_speedups = Vec::new();

    #[allow(clippy::too_many_arguments)]
    fn add_row(
        t: &mut Table,
        name: &str,
        regular: bool,
        dfg: &chls_sched::Dfg,
        period: f64,
        res: &Resources,
        generous: &Resources,
        regular_speedups: &mut Vec<f64>,
        irregular_speedups: &mut Vec<f64>,
    ) {
        let m = modulo_schedule(dfg, period, res);
        let serial = list_schedule(dfg, period, res).length.max(1);
        let effective_ii = m.ii.min(serial);
        let speedup = serial as f64 / effective_ii as f64;
        let mw = modulo_schedule(dfg, period, generous);
        let serial_w = list_schedule(dfg, period, generous).length.max(1);
        let ii_w = mw.ii.min(serial_w);
        let speedup_w = serial_w as f64 / ii_w as f64;
        if regular {
            regular_speedups.push(speedup_w);
        } else {
            irregular_speedups.push(speedup_w);
        }
        t.row(vec![
            name.to_string(),
            if regular { "regular" } else { "irregular" }.to_string(),
            dfg.nodes.len().to_string(),
            m.res_mii.to_string(),
            m.rec_mii.to_string(),
            effective_ii.to_string(),
            serial.to_string(),
            fnum(speedup),
            ii_w.to_string(),
            fnum(speedup_w),
        ]);
    }

    for bench in benchmarks() {
        let hir = chls_frontend::compile_to_hir(bench.source).expect("parses");
        let (id, _) = hir.func_by_name(bench.entry).expect("exists");
        let mut f = chls_ir::lower_function(&hir, id).expect("lowers");
        chls_opt::simplify::simplify(&mut f);
        let forest = chls_ir::loops::LoopForest::compute(&f);
        // The innermost (deepest) loop.
        let Some(l) = forest.loops.iter().max_by_key(|l| l.depth) else {
            continue;
        };
        let body: Vec<_> = l
            .blocks
            .iter()
            .copied()
            .filter(|b| *b != l.header)
            .collect();
        let (dfg, _) = loop_dfg(&f, l.header, &body, AliasPrecision::Basic, &model);
        if dfg.nodes.is_empty() {
            continue;
        }
        add_row(
            &mut t,
            bench.name,
            bench.regular_loops,
            &dfg,
            period,
            &res,
            &generous,
            &mut regular_speedups,
            &mut irregular_speedups,
        );
    }
    for (name, src, regular) in DEEP_KERNELS {
        let hir = chls_frontend::compile_to_hir(src).expect("parses");
        let (id, _) = hir.func_by_name("f").expect("exists");
        let mut f = chls_ir::lower_function(&hir, id).expect("lowers");
        chls_opt::simplify::simplify(&mut f);
        let forest = chls_ir::loops::LoopForest::compute(&f);
        let l = forest.loops.iter().max_by_key(|l| l.depth).expect("loop");
        let body: Vec<_> = l
            .blocks
            .iter()
            .copied()
            .filter(|b| *b != l.header)
            .collect();
        let (dfg, _) = loop_dfg(&f, l.header, &body, AliasPrecision::Basic, &model);
        add_row(
            &mut t,
            name,
            *regular,
            &dfg,
            period,
            &res,
            &generous,
            &mut regular_speedups,
            &mut irregular_speedups,
        );
    }
    println!("E4: loop pipelining (iterative modulo scheduling), typical resources\n");
    println!("{t}");
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    // Hardware pipelining (not just the analytic model): the c2v backend
    // with `pipeline_loops` emitstrue overlapped kernels for canonical
    // streaming loops; measure actual cycle counts.
    println!("\nHardware pipelining (c2v backend, measured cycles):\n");
    let mut hw = Table::new(vec![
        "kernel",
        "plain cycles",
        "pipelined cycles",
        "speedup",
    ]);
    let hw_cases: &[(&str, &str, Vec<chls::interp::ArgValue>)] = &[
        (
            "dot64",
            "int f(int a[64], int b[64]) {
                int s = 0;
                for (int i = 0; i < 64; i++) s += a[i] * b[i];
                return s;
            }",
            vec![
                chls::interp::ArgValue::Array((1..=64).collect()),
                chls::interp::ArgValue::Array((1..=64).rev().collect()),
            ],
        ),
        (
            "scale64",
            "void f(int a[64], int b[64]) {
                for (int i = 0; i < 64; i++) b[i] = a[i] * 3 + 1;
            }",
            vec![
                chls::interp::ArgValue::Array((0..64).collect()),
                chls::interp::ArgValue::Array(vec![0; 64]),
            ],
        ),
    ];
    let measure =
        |name: &str, src: &str, entry: &str, args: &[chls::interp::ArgValue], hw: &mut Table| {
            let compiler = chls::Compiler::parse(src).expect("parses");
            let backend = chls::backend_by_name("c2v").expect("registered");
            let plain = compiler
                .synthesize(backend.as_ref(), entry, &chls::SynthOptions::default())
                .expect("plain");
            let piped = compiler
                .synthesize(
                    backend.as_ref(),
                    entry,
                    &chls::SynthOptions {
                        pipeline_loops: true,
                        ..Default::default()
                    },
                )
                .expect("pipelined");
            let rp = chls::simulate_design(&plain, args).expect("sim");
            let rq = chls::simulate_design(&piped, args).expect("sim");
            assert_eq!(rp.ret, rq.ret, "{name}: pipelined result diverges");
            assert_eq!(rp.arrays, rq.arrays, "{name}: pipelined arrays diverge");
            let (cp, cq) = (rp.cycles.unwrap(), rq.cycles.unwrap());
            hw.row(vec![
                name.to_string(),
                cp.to_string(),
                cq.to_string(),
                if cq < cp {
                    fnum(cp as f64 / cq as f64)
                } else {
                    "fallback".to_string()
                },
            ]);
        };
    for (name, src, args) in hw_cases {
        measure(name, src, "f", args, &mut hw);
    }
    // The whole benchmark suite: pipelined-or-fallback, never wrong.
    for bench in benchmarks() {
        measure(bench.name, bench.source, bench.entry, &bench.args, &mut hw);
    }
    println!("{hw}");

    println!(
        "mean asymptotic speedup on wide hardware — regular loops: {}x,\n\
         irregular loops: {}x.\n\
         Regular array kernels pipeline down to II 1-2 once resources\n\
         allow; recurrence- and control-bound loops are pinned no matter\n\
         how much hardware is thrown at them — 'less effective in\n\
         general', as the paper says.",
        fnum(avg(&regular_speedups)),
        fnum(avg(&irregular_speedups))
    );
}

//! E2 — "About half the languages require the programmer to express
//! concurrency with parallel constructs": explicit `par` (Handel-C) vs.
//! plain sequential code vs. compiler-extracted parallelism (C2Verilog
//! with generous resources, CASH dataflow).

use chls::interp::ArgValue;
use chls::{fnum, Table};
use chls_bench::run_clocked;
use chls_sched::Resources;

const SEQ: &str = "
    int f(int a[8], int b[8]) {
        int s1 = 0;
        int s2 = 0;
        for (int i = 0; i < 8; i++) s1 = s1 + a[i] * 2;
        for (int j = 0; j < 8; j++) s2 = s2 + b[j] * 3;
        return s1 + s2;
    }
";

const PAR: &str = "
    int f(int a[8], int b[8]) {
        int s1 = 0;
        int s2 = 0;
        par {
            { for (int i = 0; i < 8; i++) s1 = s1 + a[i] * 2; }
            { for (int j = 0; j < 8; j++) s2 = s2 + b[j] * 3; }
        }
        return s1 + s2;
    }
";

/// Fused into one loop body: the compiler-friendly coding (both streams
/// inside one basic block, where block-scoped scheduling can see them).
const FUSED: &str = "
    int f(int a[8], int b[8]) {
        int s1 = 0;
        int s2 = 0;
        for (int i = 0; i < 8; i++) {
            s1 = s1 + a[i] * 2;
            s2 = s2 + b[i] * 3;
        }
        return s1 + s2;
    }
";

fn main() {
    let args = [
        ArgValue::Array((1..=8).collect()),
        ArgValue::Array((11..=18).collect()),
    ];
    let opts = chls::SynthOptions::default();
    let wide = chls::SynthOptions {
        resources: Resources {
            default_mem_ports: 2,
            ..Resources::unlimited()
        },
        ..Default::default()
    };

    let (hc_seq, _) = run_clocked("handelc", SEQ, "f", &args, &opts);
    let (hc_par, _) = run_clocked("handelc", PAR, "f", &args, &opts);
    let (c2v_seq, _) = run_clocked("c2v", SEQ, "f", &args, &opts);
    let (c2v_fused, _) = run_clocked("c2v", FUSED, "f", &args, &opts);
    let (c2v_wide, _) = run_clocked("c2v", FUSED, "f", &args, &wide);
    let (cash_t, _) = run_clocked("cash", SEQ, "f", &args, &opts);

    let mut t = Table::new(vec![
        "approach",
        "writes par?",
        "cycles/time",
        "speedup vs base",
    ]);
    t.row(vec![
        "handelc, sequential source".to_string(),
        "no".into(),
        hc_seq.to_string(),
        "1.00 (base)".into(),
    ]);
    t.row(vec![
        "handelc, explicit par".to_string(),
        "YES".into(),
        hc_par.to_string(),
        fnum(hc_seq as f64 / hc_par as f64),
    ]);
    t.row(vec![
        "c2v, compiler (1 port/mem)".to_string(),
        "no".into(),
        c2v_seq.to_string(),
        fnum(hc_seq as f64 / c2v_seq as f64),
    ]);
    t.row(vec![
        "c2v, compiler, fused-loop coding (1 port/mem)".to_string(),
        "no".into(),
        c2v_fused.to_string(),
        fnum(hc_seq as f64 / c2v_fused as f64),
    ]);
    t.row(vec![
        "c2v, compiler, fused coding + 2 ports/mem".to_string(),
        "no".into(),
        c2v_wide.to_string(),
        fnum(hc_seq as f64 / c2v_wide as f64),
    ]);
    t.row(vec![
        "cash, dataflow (async time units)".to_string(),
        "no".into(),
        format!("{cash_t} units"),
        "-".into(),
    ]);
    println!("E2: two independent reductions, explicit vs inferred concurrency\n");
    println!("{t}");
    println!(
        "Explicit par nearly halves the cycles with no source gymnastics.\n\
         The scheduling compiler cannot overlap the two *separate* loops at\n\
         all (block-scoped scheduling); it only competes once the designer\n\
         rewrites the source into one fused loop *and* grants extra memory\n\
         ports — the paper's point that exploiting compiler-found\n\
         parallelism 'requires understanding details of the compiler's\n\
         operation', with idioms 'awkward for programmers accustomed to\n\
         writing efficient C'."
    );
}

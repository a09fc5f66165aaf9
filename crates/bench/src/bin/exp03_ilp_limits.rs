//! E3 — the Wall experiment: available instruction-level parallelism vs.
//! issue width, over dynamic traces with perfect memory disambiguation.
//! The paper: "it seems that ILP beyond about five simultaneous
//! instructions is unlikely due to fundamental limits."

use chls::{benchmarks, fnum, Table};
use chls_ir::exec::{execute, ExecOptions};
use chls_sched::ilp::measure_ilp;

fn main() {
    let widths = [1u32, 2, 4, 8, 16, 32, 64];
    let mut headers = vec!["benchmark".to_string(), "ops".to_string()];
    headers.extend(widths.iter().map(|w| format!("w={w}")));
    headers.push("w=inf".to_string());
    let mut table = Table::new(headers);
    let mut inf_ipcs = Vec::new();

    for bench in benchmarks() {
        let hir = chls_frontend::compile_to_hir(bench.source).expect("parses");
        let (id, _) = hir.func_by_name(bench.entry).expect("exists");
        let mut f = chls_ir::lower_function(&hir, id).expect("lowers");
        chls_opt::simplify::simplify(&mut f);
        let trace = execute(
            &f,
            &bench.args,
            &ExecOptions {
                record_trace: true,
                ..Default::default()
            },
        )
        .expect("executes")
        .trace;
        let mut row = vec![bench.name.to_string(), trace.len().to_string()];
        for w in widths {
            row.push(fnum(measure_ilp(&trace, w).ipc));
        }
        let inf = measure_ilp(&trace, u32::MAX).ipc;
        inf_ipcs.push(inf);
        row.push(fnum(inf));
        table.row(row);
    }
    println!("E3: achieved IPC vs issue width (dependence-limited)\n");
    println!("{table}");
    let mut sorted = inf_ipcs.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    let median = sorted[sorted.len() / 2];
    let max = sorted.last().copied().unwrap_or(0.0);
    println!(
        "median unlimited-width ILP = {} (max {}): the control/dependence\n\
         plateau the paper cites Wall for sits right around 5 for general\n\
         code; only embarrassingly-parallel array kernels (fir, matmul)\n\
         escape it — and those are exactly the loops pipelining targets.",
        fnum(median),
        fnum(max)
    );
}

//! E11 — CASH "generates asynchronous dataflow circuits": completion time
//! vs. a clocked design as operator latencies grow more unbalanced. The
//! synchronous clock must stretch to the slowest operation; asynchronous
//! handshaking pays each operation only its own latency.

use chls::interp::ArgValue;
use chls::{backend_by_name, fnum, simulate_design, Compiler, SynthOptions, Table};
use chls_rtl::{CostModel, OpClass};

/// Mixed kernel: mostly cheap add/xor work plus one division per item.
const SRC: &str = "
    int f(int a[16], int n) {
        int acc = 0;
        for (int i = 0; i < n; i++) {
            int cheap = (a[i] + i) ^ (a[i] << 1);
            int rare = a[i] / 7;
            acc = acc + cheap + rare;
        }
        return acc;
    }
";

fn main() {
    let args = [
        ArgValue::Array((1..=16).map(|i| i * 13 % 97).collect()),
        ArgValue::Scalar(16),
    ];
    let compiler = Compiler::parse(SRC).expect("parses");
    let golden = compiler.interpret("f", &args).expect("golden").ret;
    let cash = backend_by_name("cash").expect("registered");
    let c2v = backend_by_name("c2v").expect("registered");

    let mut t = Table::new(vec![
        "divider slowdown",
        "sync clock (ns)",
        "sync cycles",
        "sync wall (ns)",
        "async wall (ns)",
        "async speedup",
    ]);
    for scale in [1.0f64, 2.0, 4.0, 8.0] {
        let model = CostModel {
            div_delay_scale: scale,
            ..CostModel::new()
        };
        // Synchronous: the divider must fit one cycle (single-cycle FSMDs
        // evaluate each state's datapath combinationally).
        let opts = SynthOptions {
            model: model.clone(),
            clock_period_ns: model.delay(OpClass::DivRem, 32) + 0.5,
            ..Default::default()
        };
        let d_sync = compiler.synthesize(c2v.as_ref(), "f", &opts).expect("sync");
        let r_sync = simulate_design(&d_sync, &args).expect("sync sim");
        assert_eq!(r_sync.ret, golden);
        let period = opts.clock_period_ns + model.sequential_overhead_ns;
        let sync_ns = r_sync.cycles.unwrap() as f64 * period;

        // Asynchronous, same skewed cost model.
        let d_async = compiler
            .synthesize(cash.as_ref(), "f", &opts)
            .expect("async");
        let g = match &d_async {
            chls::Design::Dataflow(g) => g,
            _ => unreachable!(),
        };
        let r_async = chls_dataflow::sim::simulate(g, &args, &model).expect("async sim");
        assert_eq!(r_async.ret, golden);
        let async_ns = r_async.time as f64 / 100.0;
        t.row(vec![
            format!("x{scale}"),
            fnum(period),
            r_sync.cycles.unwrap().to_string(),
            fnum(sync_ns),
            fnum(async_ns),
            fnum(sync_ns / async_ns),
        ]);
    }
    println!("E11: asynchronous dataflow vs divider-limited clock\n");
    println!("{t}");
    println!(
        "As the divider slows, the synchronous design pays the longer clock\n\
         on *every* cycle; the asynchronous circuit pays it only on the\n\
         rare division, so its advantage widens — CASH's architectural\n\
         argument, reproduced."
    );
}

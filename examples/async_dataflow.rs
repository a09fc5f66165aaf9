//! CASH's pitch, reproduced: compile sequential C to an asynchronous
//! dataflow circuit, inspect its Pegasus structure (mu/eta/token nodes),
//! and race it against a clocked implementation whose one-size-fits-all
//! clock must accommodate the slowest operation.
//!
//! ```sh
//! cargo run --example async_dataflow
//! ```

use chls::interp::ArgValue;
use chls::{backend_by_name, fnum, simulate_design, Compiler, Design, SynthOptions};
use chls_rtl::CostModel;

const SRC: &str = "
    int kernel(int a[8], int n) {
        int acc = 0;
        for (int i = 0; i < n; i++) {
            int q = a[i] / 3;       // slow divider, off the critical chain
            acc = acc + a[i] + q;
        }
        return acc;
    }
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = [
        ArgValue::Array((1..=8).map(|i| i * 11).collect()),
        ArgValue::Scalar(8),
    ];
    let compiler = Compiler::parse(SRC)?;
    let golden = compiler.interpret("kernel", &args)?;
    let opts = SynthOptions::default();
    let model = CostModel::new();

    // Asynchronous: CASH.
    let cash = backend_by_name("cash").expect("registered");
    let d_async = compiler.synthesize(cash.as_ref(), "kernel", &opts)?;
    let r_async = simulate_design(&d_async, &args)?;
    assert_eq!(r_async.ret, golden.ret);
    if let Design::Dataflow(g) = &d_async {
        println!("Pegasus-style circuit for the kernel:");
        for (kind, n) in g.histogram() {
            println!("  {kind:<8} x {n}");
        }
        println!();
    }

    // Synchronous: C2Verilog at a clock long enough for the divider.
    let c2v = backend_by_name("c2v").expect("registered");
    let slow_clock = SynthOptions {
        clock_period_ns: model.delay(chls_rtl::OpClass::DivRem, 32) + 0.2,
        ..SynthOptions::default()
    };
    let d_sync = compiler.synthesize(c2v.as_ref(), "kernel", &slow_clock)?;
    let r_sync = simulate_design(&d_sync, &args)?;
    assert_eq!(r_sync.ret, golden.ret);

    // Compare wall-clock: async time units are 10 ps.
    let async_ns = r_async.time_units.unwrap() as f64 / 100.0;
    let sync_ns =
        r_sync.cycles.unwrap() as f64 * (slow_clock.clock_period_ns + model.sequential_overhead_ns);
    println!("result (both): {}", r_async.ret.unwrap());
    println!(
        "asynchronous completion: {} ns   ({} node firings)",
        fnum(async_ns),
        r_async.time_units.unwrap()
    );
    println!(
        "synchronous completion:  {} ns   ({} cycles at a divider-limited clock)",
        fnum(sync_ns),
        r_sync.cycles.unwrap()
    );
    println!(
        "\nEach async operation takes only its own latency; the clocked\n\
         design pays the divider's latency every cycle. That asymmetry is\n\
         why CASH 'is unique because it generates asynchronous hardware'."
    );
    Ok(())
}

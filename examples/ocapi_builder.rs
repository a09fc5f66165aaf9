//! The structural paradigm (Ocapi / PDL++ / structural SystemC): "the
//! user's C++ program runs to generate a data structure that represents
//! hardware." Here the user's *Rust* program builds a GCD datapath state
//! by state — each state is one cycle, by construction — then simulates
//! it and emits Verilog.
//!
//! ```sh
//! cargo run --example ocapi_builder
//! ```

use chls::interp::ArgValue;
use chls_frontend::IntType;
use chls_ir::BinKind;
use chls_rtl::builder::FsmdBuilder;
use chls_rtl::{fsmd_to_verilog, CostModel, Rv};
use chls_sim::fsmd_sim::simulate;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ty = IntType::new(32, true);
    let mut b = FsmdBuilder::new("gcd_structural");

    // Ports and registers — explicit structure, not compiled from C.
    let a_in = b.input("a_in", ty, 0);
    let b_in = b.input("b_in", ty, 1);
    let a = b.reg("a", ty, 0);
    let bb = b.reg("b", ty, 0);

    // States: the designer decides what happens in each cycle.
    let s_load = b.state();
    let s_step = b.state();
    let s_done = b.state();

    b.at(s_load).set(a, a_in).set(bb, b_in).goto(s_step);

    // One Euclid step per cycle, mux-gated against the exit condition.
    let b_is_zero = b.eq(b.get(bb), Rv::konst(0, ty));
    let remainder = Rv::bin(BinKind::Rem, ty, b.get(a), b.get(bb));
    let a_next = b.mux(b_is_zero.clone(), b.get(a), b.get(bb));
    let b_next = b.mux(b_is_zero.clone(), b.get(bb), remainder);
    b.at(s_step)
        .set(a, a_next)
        .set(bb, b_next)
        .branch(b_is_zero, s_done, s_step);

    b.at(s_done).done();
    let result = b.get(a);
    let fsmd = b.returning(result).finish();

    // Simulate.
    let r = simulate(
        &fsmd,
        &[ArgValue::Scalar(1071), ArgValue::Scalar(462)],
        10_000,
    )?;
    println!("gcd(1071, 462) = {} in {} cycles", r.ret.unwrap(), r.cycles);

    // Cost report.
    let model = CostModel::new();
    println!(
        "area = {:.0} gates, min clock period = {:.2} ns (fmax {:.0} MHz)",
        fsmd.area(&model),
        fsmd.critical_path(&model) + model.sequential_overhead_ns,
        fsmd.fmax_mhz(&model)
    );

    // Emit Verilog.
    println!(
        "\n// ---- generated Verilog ----\n{}",
        fsmd_to_verilog(&fsmd)
    );
    Ok(())
}

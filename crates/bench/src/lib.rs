//! # chls-bench
//!
//! The experiment harness: one `exp*` binary per claim in the paper (see
//! `EXPERIMENTS.md` at the workspace root for the index and the recorded
//! results). Toolchain performance is measured by the separate
//! `benchmark/` workspace, not here.

use chls::interp::ArgValue;
use chls::{simulate_design, Compiler, SynthOptions};
use chls_rtl::CostModel;

/// Synthesizes `src` with the named backend and simulates it, returning
/// (cycles-or-time, area). Panics on any failure: experiment inputs are
/// fixed and must work.
pub fn run_clocked(
    backend: &str,
    src: &str,
    entry: &str,
    args: &[ArgValue],
    opts: &SynthOptions,
) -> (u64, f64) {
    let compiler = Compiler::parse(src).expect("parses");
    let b = chls::backend_by_name(backend).expect("registered");
    let design = compiler
        .synthesize(b.as_ref(), entry, opts)
        .unwrap_or_else(|e| panic!("{backend} refused: {e}"));
    let out = simulate_design(&design, args).expect("simulates");
    let model = CostModel::new();
    (
        out.cycles.or(out.time_units).unwrap_or(0),
        design.area(&model),
    )
}

//! The CASH backend.
//!
//! Budiu & Goldstein's CASH is "unique because it generates asynchronous
//! hardware. It identifies instruction-level parallelism in ANSI C and
//! generates asynchronous dataflow circuits." This backend runs the
//! sequential pipeline (inline, unroll pragmas, pointer elimination,
//! simplify) and hands the SSA CFG to `chls-dataflow`, which produces the
//! Pegasus-style circuit: mu/eta steering for control, per-memory token
//! chains for ordering, sticky tokens for loop invariants.
//!
//! There is no clock: performance comes out of the token simulator as a
//! completion *time*, which the async-vs-sync experiment compares against
//! clocked backends' cycles × period.

use crate::common::*;
use chls_dataflow::build_dataflow;

/// The CASH backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cash;

impl Backend for Cash {
    fn info(&self) -> BackendInfo {
        BackendInfo {
            name: "cash",
            models: "CASH (Budiu & Goldstein)",
            year: 2002,
            comment: "Synthesizes asynchronous circuits",
            concurrency: ConcurrencyModel::CompilerDriven,
            timing: TimingModel::Asynchronous,
            pointers: true,
            data_dependent_loops: true,
            parallel_constructs: false,
            reads_pipeline: false,
            reads_narrow: true,
        }
    }

    fn synthesize(
        &self,
        prep: &Preparer,
        entry: &str,
        opts: &SynthOptions,
    ) -> Result<Design, SynthError> {
        let prepared = prep.sequential(entry, false, opts.narrow_widths, opts.unroll_factor)?;
        let g = build_dataflow(&prepared.func).map_err(|e| SynthError::Transform(e.to_string()))?;
        Ok(Design::Dataflow(g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chls_dataflow::sim::{simulate, ArgValue};
    use chls_frontend::compile_to_hir;
    use chls_rtl::CostModel;

    fn synth(src: &str, entry: &str) -> chls_dataflow::DataflowGraph {
        let prog = compile_to_hir(src).expect("frontend ok");
        match Cash
            .synthesize(&Preparer::new(prog), entry, &SynthOptions::default())
            .expect("synthesis ok")
        {
            Design::Dataflow(g) => g,
            _ => panic!("cash must produce a dataflow circuit"),
        }
    }

    #[test]
    fn crc_style_kernel() {
        let g = synth(
            "const int poly[1] = {0xEDB88320};
             int f(int data, int rounds) {
                int crc = data;
                for (int i = 0; i < rounds; i++) {
                    bool lsb = (crc & 1) != 0;
                    crc = crc >> 1;
                    if (lsb) crc = crc ^ poly[0];
                }
                return crc;
             }",
            "f",
        );
        let r = simulate(
            &g,
            &[ArgValue::Scalar(0x1234), ArgValue::Scalar(8)],
            &CostModel::new(),
        )
        .unwrap();
        // Golden from the interpreter.
        let hir = compile_to_hir(
            "const int poly[1] = {0xEDB88320};
             int f(int data, int rounds) {
                int crc = data;
                for (int i = 0; i < rounds; i++) {
                    bool lsb = (crc & 1) != 0;
                    crc = crc >> 1;
                    if (lsb) crc = crc ^ poly[0];
                }
                return crc;
             }",
        )
        .unwrap();
        let golden = chls_sim::interp::run(
            &hir,
            "f",
            &[
                chls_sim::interp::ArgValue::Scalar(0x1234),
                chls_sim::interp::ArgValue::Scalar(8),
            ],
            &chls_sim::interp::InterpOptions::default(),
        )
        .unwrap();
        assert_eq!(r.ret, golden.ret);
    }

    #[test]
    fn calls_are_inlined_first() {
        let g = synth(
            "int sq(int x) { return x * x; }
             int f(int a) { return sq(a) + sq(a + 1); }",
            "f",
        );
        let r = simulate(&g, &[ArgValue::Scalar(3)], &CostModel::new()).unwrap();
        assert_eq!(r.ret, Some(25));
    }

    #[test]
    fn pointer_programs_resolve() {
        let g = synth(
            "void bump(int *p) { *p = *p + 1; }
             int f() { int x = 41; bump(&x); return x; }",
            "f",
        );
        let r = simulate(&g, &[], &CostModel::new()).unwrap();
        assert_eq!(r.ret, Some(42));
    }

    #[test]
    fn par_rejected_as_sequential_c() {
        let prog = compile_to_hir("void f() { par { delay; delay; } }").unwrap();
        let err = Cash
            .synthesize(&Preparer::new(prog), "f", &SynthOptions::default())
            .unwrap_err();
        assert!(matches!(err, SynthError::Transform(_)), "{err}");
    }

    #[test]
    fn circuit_has_pegasus_structure() {
        let g = synth(
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }",
            "f",
        );
        let h = g.histogram();
        assert!(h.get("mu").copied().unwrap_or(0) >= 2, "{h:?}");
        assert!(h.get("eta").copied().unwrap_or(0) >= 2, "{h:?}");
        // Area accounting includes handshake overhead.
        assert!(g.area(&chls_rtl::CostModel::new()) > 0.0);
    }

    #[test]
    fn info_row() {
        let info = Cash.info();
        assert_eq!(info.timing, TimingModel::Asynchronous);
        assert_eq!(info.year, 2002);
    }
}

//! The Cyber backend.
//!
//! NEC's Cyber "accepts a C variant dubbed BDL that contains hardware
//! extensions but prohibits recursive functions and pointers. Timing can
//! be implicit or explicit." Its scheduling machinery is conventional
//! behavioral synthesis; its distinctive row in Table 1 is the *language
//! restriction*. This backend models exactly that: the compiler-scheduled
//! flow (shared with C2Verilog) behind a BDL-style acceptance check that
//! rejects any program whose source uses pointers — at the language
//! level, before analysis could have resolved them.

use crate::common::*;
use chls_frontend::Type;

/// The Cyber backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cyber;

impl Backend for Cyber {
    fn info(&self) -> BackendInfo {
        BackendInfo {
            name: "cyber",
            models: "Cyber / BDL (NEC, Wakabayashi)",
            year: 1999,
            comment: "Restricted C with extensions",
            concurrency: ConcurrencyModel::CompilerDriven,
            timing: TimingModel::CompilerScheduled,
            pointers: false,
            data_dependent_loops: true,
            parallel_constructs: false,
            reads_pipeline: true,
            reads_narrow: true,
        }
    }

    fn synthesize(
        &self,
        prep: &Preparer,
        entry: &str,
        opts: &SynthOptions,
    ) -> Result<Design, SynthError> {
        // BDL prohibits pointers outright (recursion is already rejected
        // by semantic analysis, as Cyber itself would).
        if let Some(func) = prep.hir().funcs.iter().find(|f| chls_opt::uses_pointers(f)) {
            let what = match func.locals.iter().find(|l| matches!(l.ty, Type::Ptr(_))) {
                Some(local) => format!(
                    "pointers (BDL prohibits them; `{}` in `{}`)",
                    local.name, func.name
                ),
                None => "address-of expressions (BDL prohibits pointers)".to_string(),
            };
            return Err(SynthError::Unsupported {
                backend: "cyber",
                what,
            });
        }
        // Behind the language gate, Cyber is conventional behavioral
        // synthesis — reuse the compiler-scheduled flow.
        let prepared = prep.sequential(entry, false, opts.narrow_widths, opts.unroll_factor)?;
        let fsmd = crate::c2v::schedule_to_fsmd(&prepared.func, opts)?;
        Ok(Design::Fsmd(fsmd))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chls_frontend::compile_to_hir;
    use chls_sim::fsmd_sim::simulate;
    use chls_sim::interp::ArgValue;

    #[test]
    fn pointer_free_programs_synthesize() {
        let prog = compile_to_hir(
            "int f(int a[8], int n) {
                int s = 0;
                for (int i = 0; i < n; i++) s += a[i];
                return s;
            }",
        )
        .unwrap();
        let d = Cyber
            .synthesize(&Preparer::new(prog), "f", &SynthOptions::default())
            .expect("synthesizes");
        let Design::Fsmd(f) = d else { unreachable!() };
        let r = simulate(
            &f,
            &[ArgValue::Array((1..=8).collect()), ArgValue::Scalar(8)],
            10_000,
        )
        .unwrap();
        assert_eq!(r.ret, Some(36));
    }

    #[test]
    fn pointers_rejected_at_the_language_level() {
        let prog = compile_to_hir("int f() { int x = 1; int *p = &x; return *p; }").unwrap();
        let err = Cyber
            .synthesize(&Preparer::new(prog), "f", &SynthOptions::default())
            .unwrap_err();
        match err {
            SynthError::Unsupported { backend, what } => {
                assert_eq!(backend, "cyber");
                assert!(what.contains("pointer"), "{what}");
            }
            other => panic!("expected Unsupported, got {other}"),
        }
    }

    #[test]
    fn pointer_in_helper_function_rejected_too() {
        let prog = compile_to_hir(
            "void bump(int *p) { *p = *p + 1; }
             int f() { int x = 1; bump(&x); return x; }",
        )
        .unwrap();
        assert!(Cyber
            .synthesize(&Preparer::new(prog), "f", &SynthOptions::default())
            .is_err());
    }

    #[test]
    fn info_row() {
        let info = Cyber.info();
        assert!(!info.pointers);
        assert_eq!(info.year, 1999);
    }
}

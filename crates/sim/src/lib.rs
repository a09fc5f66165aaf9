//! # chls-sim
//!
//! Simulators for the `chls` laboratory:
//!
//! * [`interp`] — the golden-model interpreter executing typed HIR
//!   directly, including `par` (threads) and rendezvous channels;
//! * [`netlist_sim`] — a levelized two-phase cycle simulator for word-level
//!   netlists;
//! * [`fsmd_sim`] — a cycle simulator for FSMD (finite-state machine +
//!   datapath) designs, the form most clocked backends emit;
//! * [`token_sim`] — an event-driven token simulator for asynchronous
//!   dataflow graphs (the CASH backend's output).
//!
//! ## Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use chls_sim::interp::{run, ArgValue, InterpOptions};
//!
//! let hir = chls_frontend::compile_to_hir(
//!     "int square(int x) { return x * x; }",
//! )?;
//! let r = run(&hir, "square", &[ArgValue::Scalar(9)], &InterpOptions::default())?;
//! assert_eq!(r.ret, Some(81));
//! # Ok(())
//! # }
//! ```

pub mod fsmd_sim;
pub mod interp;
pub mod netlist_sim;
pub mod tape;
pub mod token_sim;

pub use interp::{run, ArgValue, InterpError, InterpOptions, InterpResult, ParOrder};

#[cfg(test)]
mod interp_tests {
    use crate::interp::*;
    use chls_frontend::compile_to_hir;

    fn golden(src: &str, entry: &str, args: &[ArgValue]) -> InterpResult {
        let hir = compile_to_hir(src).expect("frontend ok");
        run(&hir, entry, args, &InterpOptions::default()).expect("interp ok")
    }

    #[test]
    fn scalar_arithmetic() {
        let r = golden(
            "int f(int a, int b) { return (a + b) * (a - b) / 2; }",
            "f",
            &[ArgValue::Scalar(7), ArgValue::Scalar(3)],
        );
        assert_eq!(r.ret, Some(20));
    }

    #[test]
    fn function_calls_native() {
        let r = golden(
            "int sq(int x) { return x * x; }
             int f(int a) { return sq(a) + sq(a + 1); }",
            "f",
            &[ArgValue::Scalar(3)],
        );
        assert_eq!(r.ret, Some(25));
    }

    #[test]
    fn arrays_by_reference_through_calls() {
        let r = golden(
            "void fill(int a[4], int v) { for (int i = 0; i < 4; i++) a[i] = v + i; }
             int f(int a[4]) { fill(a, 10); return a[3]; }",
            "f",
            &[ArgValue::Array(vec![0; 4])],
        );
        assert_eq!(r.ret, Some(13));
        assert_eq!(r.arrays[0].1, vec![10, 11, 12, 13]);
    }

    #[test]
    fn pointer_roundtrip() {
        let r = golden(
            "void bump(int *p) { *p = *p + 1; }
             int f() { int x = 41; bump(&x); return x; }",
            "f",
            &[],
        );
        assert_eq!(r.ret, Some(42));
    }

    #[test]
    fn pointer_walk_over_array() {
        let r = golden(
            "int f() {
                int a[4];
                for (int i = 0; i < 4; i++) a[i] = i * 10;
                int *p = &a[1];
                p = p + 2;
                return *p;
            }",
            "f",
            &[],
        );
        assert_eq!(r.ret, Some(30));
    }

    #[test]
    fn par_branches_share_state() {
        let r = golden(
            "int f() {
                int a = 0;
                int b = 0;
                par {
                    a = 3;
                    b = 4;
                }
                return a * 10 + b;
            }",
            "f",
            &[],
        );
        assert_eq!(r.ret, Some(34));
    }

    #[test]
    fn channel_rendezvous_producer_consumer() {
        let r = golden(
            "int f() {
                chan<int> c;
                int sum = 0;
                par {
                    { for (int i = 1; i <= 4; i++) send(c, i * i); }
                    { for (int j = 0; j < 4; j++) sum += recv(c); }
                }
                return sum;
            }",
            "f",
            &[],
        );
        assert_eq!(r.ret, Some(30));
    }

    #[test]
    fn channel_pipeline_two_stages() {
        let r = golden(
            "int f() {
                chan<int> c1;
                chan<int> c2;
                int out = 0;
                par {
                    { for (int i = 0; i < 3; i++) send(c1, i + 1); }
                    { for (int j = 0; j < 3; j++) send(c2, recv(c1) * 2); }
                    { for (int k = 0; k < 3; k++) out += recv(c2); }
                }
                return out;
            }",
            "f",
            &[],
        );
        assert_eq!(r.ret, Some(12));
    }

    #[test]
    fn rom_and_crc_style_table() {
        let r = golden(
            "const int tab[8] = {1, 2, 4, 8, 16, 32, 64, 128};
             int f(int n) {
                int acc = 0;
                for (int i = 0; i < n; i++) acc ^= tab[i];
                return acc;
             }",
            "f",
            &[ArgValue::Scalar(5)],
        );
        assert_eq!(r.ret, Some(31));
    }

    #[test]
    fn delay_is_functionally_inert() {
        let r = golden(
            "int f() { int x = 1; delay; x = x + 1; delay; return x; }",
            "f",
            &[],
        );
        assert_eq!(r.ret, Some(2));
    }

    #[test]
    fn bit_precise_wrapping() {
        let r = golden(
            "uint<4> f(uint<4> x) { return x + 15; }",
            "f",
            &[ArgValue::Scalar(3)],
        );
        assert_eq!(r.ret, Some(2));
    }

    #[test]
    fn out_of_bounds_reported_with_name() {
        let hir = compile_to_hir("int f(int a[4], int i) { return a[i]; }").unwrap();
        let err = run(
            &hir,
            "f",
            &[ArgValue::Array(vec![0; 4]), ArgValue::Scalar(4)],
            &InterpOptions::default(),
        )
        .unwrap_err();
        match err {
            InterpError::OutOfBounds { name, index, len } => {
                assert_eq!(name, "a");
                assert_eq!(index, 4);
                assert_eq!(len, 4);
            }
            other => panic!("expected OutOfBounds, got {other:?}"),
        }
    }

    #[test]
    fn step_limit_enforced() {
        let hir = compile_to_hir("void f() { while (true) { } }").unwrap();
        let err = run(
            &hir,
            "f",
            &[],
            &InterpOptions {
                step_limit: 100,
                ..InterpOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, InterpError::StepLimit(_)));
    }

    #[test]
    fn missing_entry_reported() {
        let hir = compile_to_hir("int f() { return 0; }").unwrap();
        let err = run(&hir, "nope", &[], &InterpOptions::default()).unwrap_err();
        assert!(matches!(err, InterpError::NoSuchFunction(_)));
    }

    #[test]
    fn interp_matches_ir_executor() {
        // Cross-validation of the two golden models on a nontrivial kernel.
        let src = "int f(int a[8], int n) {
            int best = a[0];
            for (int i = 1; i < n; i++) {
                if (a[i] > best) best = a[i];
            }
            int sum = 0;
            for (int i = 0; i < n; i++) sum += a[i] * 2;
            return best * 1000 + sum;
        }";
        let data = vec![3, -1, 4, 1, -5, 9, 2, 6];
        let hir = compile_to_hir(src).unwrap();
        let ir_args = [
            chls_ir::exec::ArgValue::Array(data.clone()),
            chls_ir::exec::ArgValue::Scalar(8),
        ];
        let (id, _) = hir.func_by_name("f").unwrap();
        let f = chls_ir::lower_function(&hir, id).unwrap();
        let ir_r =
            chls_ir::exec::execute(&f, &ir_args, &chls_ir::exec::ExecOptions::default()).unwrap();
        let hir_r = run(
            &hir,
            "f",
            &[ArgValue::Array(data), ArgValue::Scalar(8)],
            &InterpOptions::default(),
        )
        .unwrap();
        assert_eq!(ir_r.ret, hir_r.ret);
        assert_eq!(ir_r.ret, Some(9038));
    }
}

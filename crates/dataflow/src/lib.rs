//! # chls-dataflow
//!
//! Asynchronous dataflow circuits in the style of CASH's Pegasus IR:
//!
//! * [`graph`] — the circuit representation (mu/eta steering, memory
//!   token chains, sticky loop-invariant tokens);
//! * [`build`] — construction from SSA CFG IR (liveness-gated edges);
//! * [`sim`] — a deterministic timed token simulator (Kahn semantics).

pub mod build;
pub mod graph;
pub mod sim;

pub use build::{build_dataflow, sticky_values};
pub use graph::{DataflowGraph, Edge, NodeData, NodeId, NodeKind};
pub use sim::{simulate, TokenSimError, TokenSimResult};

#[cfg(test)]
mod conformance {
    use crate::build::build_dataflow;
    use crate::sim::{simulate, ArgValue};
    use chls_ir::exec::{execute, ExecOptions};
    use chls_rtl::cost::CostModel;

    /// Builds the dataflow circuit of `src`'s function `f` and checks the
    /// token simulation against the IR executor.
    fn check(src: &str, args: &[ArgValue], expect: Option<i64>) -> crate::sim::TokenSimResult {
        let hir = chls_frontend::compile_to_hir(src).expect("frontend ok");
        let (id, _) = hir.func_by_name("f").expect("exists");
        let mut f = chls_ir::lower_function(&hir, id).expect("lowers");
        chls_opt::simplify::simplify(&mut f);
        let golden = execute(&f, args, &ExecOptions::default()).expect("executes");
        assert_eq!(
            golden.ret, expect,
            "IR golden disagrees with test expectation"
        );
        let g = build_dataflow(&f).expect("builds");
        let r = simulate(&g, args, &CostModel::new())
            .unwrap_or_else(|e| panic!("token sim failed: {e}\nhistogram: {:?}", g.histogram()));
        assert_eq!(r.ret, golden.ret, "dataflow result mismatch");
        assert_eq!(r.mems, golden.mems, "dataflow memory mismatch");
        r
    }

    #[test]
    fn straight_line_expression() {
        check(
            "int f(int a, int b) { return (a + b) * (a - b); }",
            &[ArgValue::Scalar(7), ArgValue::Scalar(3)],
            Some(40),
        );
    }

    #[test]
    fn diamond_control_flow() {
        let src =
            "int f(int a) { int x; if (a > 10) { x = a * 2; } else { x = a + 100; } return x; }";
        check(src, &[ArgValue::Scalar(20)], Some(40));
        check(src, &[ArgValue::Scalar(5)], Some(105));
    }

    #[test]
    fn simple_counting_loop() {
        check(
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }",
            &[ArgValue::Scalar(10)],
            Some(45),
        );
    }

    #[test]
    fn gcd_loop_with_data_dependent_trip() {
        check(
            "int f(int a, int b) { while (b != 0) { int t = b; b = a % b; a = t; } return a; }",
            &[ArgValue::Scalar(48), ArgValue::Scalar(36)],
            Some(12),
        );
    }

    #[test]
    fn nested_loops() {
        check(
            "int f(int n) {
                int s = 0;
                for (int i = 0; i < n; i++)
                    for (int j = 0; j < n; j++)
                        s += i * j;
                return s;
            }",
            &[ArgValue::Scalar(4)],
            Some(36),
        );
    }

    #[test]
    fn memory_read_write() {
        let r = check(
            "int f(int a[4]) {
                for (int i = 0; i < 4; i++) a[i] = i * i;
                return a[3];
            }",
            &[ArgValue::Array(vec![0; 4])],
            Some(9),
        );
        assert_eq!(r.mems[0], vec![0, 1, 4, 9]);
    }

    #[test]
    fn rom_lookup_loop() {
        check(
            "const int t[4] = {5, 6, 7, 8};
             int f(int n) {
                int acc = 0;
                for (int i = 0; i < n; i++) acc += t[i];
                return acc;
             }",
            &[ArgValue::Scalar(4)],
            Some(26),
        );
    }

    #[test]
    fn early_return_branches() {
        let src = "int f(int a) { if (a < 0) { return -1; } if (a == 0) { return 0; } return 1; }";
        check(src, &[ArgValue::Scalar(-5)], Some(-1));
        check(src, &[ArgValue::Scalar(0)], Some(0));
        check(src, &[ArgValue::Scalar(9)], Some(1));
    }

    #[test]
    fn void_function_with_stores() {
        let r = check(
            "void f(int a[3]) { a[0] = 10; a[2] = 30; }",
            &[ArgValue::Array(vec![1, 2, 3])],
            None,
        );
        assert_eq!(r.mems[0], vec![10, 2, 30]);
    }

    #[test]
    fn two_memories_run_parallel_chains() {
        check(
            "int f(int a[4], int b[4]) {
                int s = 0;
                for (int i = 0; i < 4; i++) { a[i] = i; b[i] = i * 2; }
                for (int i = 0; i < 4; i++) s += a[i] + b[i];
                return s;
            }",
            &[ArgValue::Array(vec![0; 4]), ArgValue::Array(vec![0; 4])],
            Some(18),
        );
    }

    #[test]
    fn mu_eta_counts_reported() {
        let hir = chls_frontend::compile_to_hir(
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }",
        )
        .unwrap();
        let (id, _) = hir.func_by_name("f").unwrap();
        let f = chls_ir::lower_function(&hir, id).unwrap();
        let g = build_dataflow(&f).unwrap();
        let h = g.histogram();
        assert!(h.get("mu").copied().unwrap_or(0) >= 2, "{h:?}");
        assert!(h.get("eta").copied().unwrap_or(0) >= 2, "{h:?}");
    }

    #[test]
    fn unbalanced_latency_overlap() {
        // The async circuit overlaps the slow division with the add chain;
        // completion time is below the serial sum of latencies.
        let src = "int f(int a, int b) {
            int slow = a / 3;
            int fast = b + 1;
            fast = fast + 2;
            return slow + fast;
        }";
        let hir = chls_frontend::compile_to_hir(src).unwrap();
        let (id, _) = hir.func_by_name("f").unwrap();
        let f = chls_ir::lower_function(&hir, id).unwrap();
        let g = build_dataflow(&f).unwrap();
        let r = simulate(
            &g,
            &[ArgValue::Scalar(99), ArgValue::Scalar(1)],
            &CostModel::new(),
        )
        .unwrap();
        assert_eq!(r.ret, Some(37));
        let m = chls_rtl::CostModel::new();
        let serial: u64 = [
            m.async_latency(chls_rtl::OpClass::DivRem, 32),
            m.async_latency(chls_rtl::OpClass::AddSub, 32),
            m.async_latency(chls_rtl::OpClass::AddSub, 32),
            m.async_latency(chls_rtl::OpClass::AddSub, 32),
        ]
        .iter()
        .sum();
        assert!(r.time < serial + 100, "time {} vs serial {serial}", r.time);
    }
}

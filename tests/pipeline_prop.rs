//! Property-based validation of hardware loop pipelining: for random loop
//! kernels — accumulators, branchy bodies that if-convert, in-place array
//! updates that need affine carried-dependence disambiguation — the
//! pipelined c2v design must match the golden interpreter bit-for-bit and
//! must never be slower than the sequential schedule.

use chls::interp::ArgValue;
use chls::{backend_by_name, simulate_design, Compiler, SynthOptions};
use proptest::prelude::*;

/// A random pure expression over the loop variable `i`, the current
/// element `x`, and the running accumulator `acc`.
fn arb_body_expr(depth: u32) -> BoxedStrategy<String> {
    let leaf = prop_oneof![
        Just("i".to_string()),
        Just("x".to_string()),
        Just("acc".to_string()),
        (-20i64..20).prop_map(|v| format!("{v}")),
    ];
    leaf.prop_recursive(depth, 12, 2, |inner| {
        prop_oneof![
            (
                inner.clone(),
                inner.clone(),
                "[-+*&|^]".prop_map(|s: String| s)
            )
                .prop_map(|(l, r, op)| format!("({l} {op} {r})")),
            (inner.clone(), 0u8..4).prop_map(|(l, s)| format!("({l} >> {s})")),
            (inner, 0u8..4).prop_map(|(l, s)| format!("({l} << {s})")),
        ]
    })
    .boxed()
}

/// Runs `src` through golden interpretation, plain c2v, and pipelined c2v;
/// asserts value agreement and that pipelining never loses cycles.
fn assert_pipeline_agrees(src: &str, args: &[ArgValue]) {
    let compiler = Compiler::parse(src).unwrap_or_else(|e| panic!("{src}\n{}", e.render(src)));
    let golden = compiler
        .interpret("f", args)
        .unwrap_or_else(|e| panic!("golden failed on:\n{src}\n{e}"));
    let backend = backend_by_name("c2v").expect("registered");
    let piped_opts = SynthOptions {
        pipeline_loops: true,
        ..Default::default()
    };
    let piped = compiler
        .synthesize(backend.as_ref(), "f", &piped_opts)
        .unwrap_or_else(|e| panic!("pipelined c2v refused:\n{src}\n{e}"));
    let rq = simulate_design(&piped, args).unwrap_or_else(|e| panic!("{src}\n{e}"));
    assert_eq!(rq.ret, golden.ret, "pipelined return diverges on:\n{src}");
    assert_eq!(
        rq.arrays, golden.arrays,
        "pipelined arrays diverge on:\n{src}"
    );
    let plain = compiler
        .synthesize(backend.as_ref(), "f", &SynthOptions::default())
        .expect("plain synthesizes");
    let rp = simulate_design(&plain, args).expect("plain simulates");
    // A pipelined kernel pays a constant prologue (entry/drain states), so
    // a tiny trip count can cost a cycle or two; it must never lose more.
    assert!(
        rq.cycles.unwrap() <= rp.cycles.unwrap() + 2,
        "pipelining lost cycles ({:?} vs {:?}) on:\n{src}",
        rq.cycles,
        rp.cycles
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 20,
        .. ProptestConfig::default()
    })]

    /// Streaming reduction over an array with a random body expression.
    #[test]
    fn random_reductions_pipeline_correctly(
        e in arb_body_expr(2),
        data in proptest::collection::vec(-30i64..30, 12),
        n in 0i64..=12,
    ) {
        let src = format!(
            "int f(int a[12], int n) {{
                int acc = 0;
                for (int i = 0; i < n; i++) {{
                    int x = a[i];
                    acc = acc + ({e});
                }}
                return acc;
            }}"
        );
        assert_pipeline_agrees(&src, &[ArgValue::Array(data), ArgValue::Scalar(n)]);
    }

    /// Branchy bodies: nested pure conditionals that must if-convert (or
    /// fall back) without changing results.
    #[test]
    fn random_branchy_loops_pipeline_correctly(
        c1 in arb_body_expr(1),
        e1 in arb_body_expr(1),
        c2 in arb_body_expr(1),
        e2 in arb_body_expr(1),
        data in proptest::collection::vec(-30i64..30, 10),
    ) {
        let src = format!(
            "int f(int a[10]) {{
                int acc = 0;
                for (int i = 0; i < 10; i++) {{
                    int x = a[i];
                    int v = x;
                    if (({c1}) > 0) {{ v = {e1}; }} else {{ if (({c2}) < 0) {{ v = {e2}; }} }}
                    acc = acc * 3 + v;
                }}
                return acc;
            }}"
        );
        assert_pipeline_agrees(&src, &[ArgValue::Array(data)]);
    }

    /// In-place updates: the carried store->load pair must be handled by
    /// affine disambiguation without reordering actual conflicts.
    #[test]
    fn random_inplace_updates_pipeline_correctly(
        e in arb_body_expr(2),
        data in proptest::collection::vec(-30i64..30, 12),
    ) {
        let src = format!(
            "void f(int a[12]) {{
                int acc = 0;
                for (int i = 0; i < 12; i++) {{
                    int x = a[i];
                    a[i] = ({e});
                    acc = acc + x;
                }}
            }}"
        );
        assert_pipeline_agrees(&src, &[ArgValue::Array(data)]);
    }

    /// Neighbour access with a genuine loop-carried memory dependence
    /// (`a[i+1]` read after `a[i]` written the previous iteration — the
    /// affine test must KEEP this ordering).
    #[test]
    fn genuine_carried_dependences_stay_ordered(
        data in proptest::collection::vec(-20i64..20, 10),
        k in 1i64..4,
    ) {
        let src = format!(
            "void f(int a[10]) {{
                for (int i = 0; i < 9; i++) {{
                    a[i + 1] = a[i] + {k};
                }}
            }}"
        );
        assert_pipeline_agrees(&src, &[ArgValue::Array(data)]);
    }
}

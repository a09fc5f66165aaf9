//! Property-based differential conformance: random CHL programs are run
//! through every synthesis backend and compared against the golden
//! interpreter. This is the strongest correctness argument the repository
//! makes — five independently-implemented compilation strategies (plus
//! the dataflow machine) must agree on arbitrary expression/control
//! structures.

use chls::interp::ArgValue;
use chls::{check_conformance, CompileOptions, Verdict};
use proptest::prelude::*;

/// A random side-effect-free integer expression over `a`, `b`, `c`.
fn arb_expr(depth: u32) -> BoxedStrategy<String> {
    let leaf = prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        Just("c".to_string()),
        (-64i64..64).prop_map(|v| format!("{v}")),
        (1i64..16).prop_map(|v| format!("{v}")),
    ];
    leaf.prop_recursive(depth, 24, 3, |inner| {
        prop_oneof![
            (
                inner.clone(),
                inner.clone(),
                "[-+*&|^]".prop_map(|s: String| s)
            )
                .prop_map(|(l, r, op)| format!("({l} {op} {r})")),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| format!("({l} / ({r} | 1))")),
            (inner.clone(), 0u8..5).prop_map(|(l, s)| format!("({l} >> {s})")),
            (inner.clone(), 0u8..5).prop_map(|(l, s)| format!("({l} << {s})")),
            (inner.clone(), inner.clone(), inner.clone())
                .prop_map(|(c, t, e)| format!("(({c} > 0) ? {t} : {e})")),
            (inner.clone(), inner).prop_map(|(l, r)| format!("(({l} < {r}) ? 1 : 0)")),
        ]
    })
    .boxed()
}

fn assert_all_agree(src: &str, args: &[ArgValue]) {
    let results = check_conformance(src, "f", args, &CompileOptions::new())
        .unwrap_or_else(|e| panic!("golden failed on:\n{src}\n{e}"));
    for (backend, verdict) in results {
        match verdict {
            Verdict::Pass { .. } | Verdict::Unsupported(_) => {}
            other => panic!("{backend} diverged on:\n{src}\n{other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// Pure expressions: every backend computes the same value.
    #[test]
    fn expressions_agree(expr in arb_expr(3), a in -100i64..100, b in -100i64..100, c in -100i64..100) {
        let src = format!("int f(int a, int b, int c) {{ return {expr}; }}");
        assert_all_agree(&src, &[ArgValue::Scalar(a), ArgValue::Scalar(b), ArgValue::Scalar(c)]);
    }

    /// Branching on random conditions with assignments in both arms.
    #[test]
    fn branches_agree(
        cond in arb_expr(2),
        e1 in arb_expr(2),
        e2 in arb_expr(2),
        a in -50i64..50,
        b in -50i64..50,
        c in -50i64..50,
    ) {
        let src = format!(
            "int f(int a, int b, int c) {{
                int x = 0;
                if (({cond}) > 0) {{ x = {e1}; }} else {{ x = {e2}; }}
                return x ^ (a + b);
            }}"
        );
        assert_all_agree(&src, &[ArgValue::Scalar(a), ArgValue::Scalar(b), ArgValue::Scalar(c)]);
    }

    /// Constant-bound loops folding random expressions into an accumulator
    /// (Cones participates too: bounds are compile-time constants).
    #[test]
    fn const_loops_agree(
        e in arb_expr(2),
        trips in 1u32..6,
        a in -30i64..30,
        b in -30i64..30,
    ) {
        let src = format!(
            "int f(int a, int b) {{
                int acc = 0;
                for (int c = 0; c < {trips}; c++) {{
                    acc = acc * 3 + ({e});
                }}
                return acc;
            }}"
        );
        assert_all_agree(&src, &[ArgValue::Scalar(a), ArgValue::Scalar(b)]);
    }

    /// Array kernels with random small contents.
    #[test]
    fn array_kernels_agree(
        data in proptest::collection::vec(-40i64..40, 8),
        e in arb_expr(2),
    ) {
        let src = format!(
            "int f(int arr[8], int a) {{
                int acc = 0;
                for (int i = 0; i < 8; i++) {{
                    int b = arr[i];
                    int c = i;
                    arr[i] = b + 1;
                    acc ^= ({e});
                }}
                return acc;
            }}"
        );
        assert_all_agree(&src, &[ArgValue::Array(data), ArgValue::Scalar(7)]);
    }

    /// Narrow-typed arithmetic: wrapping behavior must agree everywhere.
    #[test]
    fn narrow_types_agree(
        a in 0i64..256,
        b in 0i64..256,
        sh in 0u8..8,
    ) {
        let src = format!(
            "int f(int a, int b) {{
                uint<8> x = (uint<8>) a;
                sint<8> y = (sint<8>) b;
                uint<8> z = x + (uint<8>) y;
                z = z << {sh};
                return (int) z + (int) y;
            }}"
        );
        assert_all_agree(&src, &[ArgValue::Scalar(a), ArgValue::Scalar(b)]);
    }
}

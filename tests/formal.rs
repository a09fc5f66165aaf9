//! Formal equivalence checking of synthesized hardware
//! (`chls_logic::check_comb_equiv`).
//!
//! The strongest check in this file verifies the *entire* compile flow —
//! frontend, SSA lowering, optimization, and the Cones combinational
//! backend — against an independently hand-built reference netlist, over
//! all 2^N inputs at once. The others check that the netlist optimizer is
//! equivalence-preserving on real synthesized designs and that planted
//! miscompilations are caught with verified witnesses. Every check must
//! be decided: an `Unknown` fails the test.

use chls::{backend_by_name, Compiler, Design, SynthOptions};
use chls_frontend::IntType;
use chls_ir::BinKind;
use chls_logic::{check_comb_equiv, EquivOptions, Verdict};
use chls_rtl::{CellKind, Netlist};

/// The combinational checker's verdict on `a` ≡ `b`.
fn verdict(a: &Netlist, b: &Netlist) -> Verdict {
    check_comb_equiv(a, b, &EquivOptions::default())
        .expect("checkable")
        .verdict
}

fn cones_netlist(src: &str, entry: &str) -> Netlist {
    let compiler = Compiler::parse(src).expect("parses");
    let backend = backend_by_name("cones").expect("registered");
    let design = compiler
        .synthesize(backend.as_ref(), entry, &SynthOptions::default())
        .expect("cones synthesizes");
    match design {
        Design::Comb(nl) => nl,
        _ => panic!("cones emits combinational netlists"),
    }
}

#[test]
fn cones_popcount_matches_handbuilt_reference() {
    // The whole compiler on one side ...
    let synthesized = cones_netlist(
        "int f(int x) {
            int c = 0;
            #pragma unroll 0
            for (int i = 0; i < 16; i++) {
                c += (x >> i) & 1;
            }
            return c;
        }",
        "f",
    );
    // ... a 20-line hand-built circuit on the other.
    let i32t = IntType::new(32, true);
    let mut reference = Netlist::new("ref");
    let x = reference.add(
        CellKind::Input {
            name: synthesized_input_name(&synthesized),
        },
        i32t,
    );
    let mut acc = reference.add(CellKind::Const(0), i32t);
    for i in 0..16 {
        let k = reference.add(CellKind::Const(i), i32t);
        let sh = reference.add(CellKind::Bin(BinKind::Shr, x, k), i32t);
        let one = reference.add(CellKind::Const(1), i32t);
        let bit = reference.add(CellKind::Bin(BinKind::And, sh, one), i32t);
        acc = reference.add(CellKind::Bin(BinKind::Add, acc, bit), i32t);
    }
    let out_name = synthesized.outputs[0].0.clone();
    reference.outputs.push((out_name, acc));

    let r = verdict(&synthesized, &reference);
    assert!(
        matches!(r, Verdict::Equivalent),
        "compiler output differs from reference: {r:?}"
    );
}

/// The single primary input's name as the synthesized netlist spells it.
fn synthesized_input_name(nl: &Netlist) -> String {
    nl.cells
        .iter()
        .find_map(|c| match &c.kind {
            CellKind::Input { name } => Some(name.clone()),
            _ => None,
        })
        .expect("netlist has an input")
}

#[test]
fn optimizer_preserves_synthesized_clamp() {
    let nl = cones_netlist(
        "int f(int v, int lo, int hi) {
            if (v < lo) { v = lo; } else { if (v > hi) { v = hi; } }
            return v;
        }",
        "f",
    );
    let mut opt = nl.clone();
    opt.fold_constants();
    opt.sweep_dead();
    let r = verdict(&nl, &opt);
    assert!(matches!(r, Verdict::Equivalent), "{r:?}");
}

#[test]
fn optimizer_preserves_synthesized_parity_tree() {
    let nl = cones_netlist(
        "int f(int x) {
            int p = 0;
            #pragma unroll 0
            for (int i = 0; i < 32; i++) {
                p ^= (x >> i) & 1;
            }
            return p;
        }",
        "f",
    );
    let mut opt = nl.clone();
    opt.fold_constants();
    opt.sweep_dead();
    let r = verdict(&nl, &opt);
    assert!(matches!(r, Verdict::Equivalent), "{r:?}");
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    /// Random pure expressions over two variables, multiplier-free so
    /// every check stays cheap.
    fn arb_expr(depth: u32) -> BoxedStrategy<String> {
        let leaf = prop_oneof![
            Just("a".to_string()),
            Just("b".to_string()),
            (-8i64..8).prop_map(|v| format!("{v}")),
        ];
        leaf.prop_recursive(depth, 10, 2, |inner| {
            prop_oneof![
                (
                    inner.clone(),
                    inner.clone(),
                    "[-+&|^]".prop_map(|s: String| s)
                )
                    .prop_map(|(l, r, op)| format!("({l} {op} {r})")),
                (inner.clone(), 0u8..5).prop_map(|(l, s)| format!("({l} >> {s})")),
                (inner.clone(), 0u8..5).prop_map(|(l, s)| format!("({l} << {s})")),
                (inner.clone(), inner.clone(), inner)
                    .prop_map(|(c, t, e)| format!("(({c} > 0) ? {t} : {e})")),
            ]
        })
        .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// Algebraic identities survive the whole compile flow: `E`,
        /// `E ^ 0`, `~~E`, and `0 + E` must synthesize to formally
        /// equivalent circuits.
        #[test]
        fn rewritten_expressions_stay_equivalent(e in arb_expr(3)) {
            let base = cones_netlist(
                &format!("int f(int a, int b) {{ return {e}; }}"),
                "f",
            );
            for rewrite in [
                format!("({e}) ^ 0"),
                format!("~(~({e}))"),
                format!("0 + ({e})"),
            ] {
                let other = cones_netlist(
                    &format!("int f(int a, int b) {{ return {rewrite}; }}"),
                    "f",
                );
                match verdict(&base, &other) {
                    Verdict::Equivalent => {}
                    Verdict::Differ(cex) => panic!("`{e}` vs `{rewrite}` differ: {cex:?}"),
                    Verdict::Unknown(why) => panic!("`{e}` vs `{rewrite}` undecided: {why}"),
                }
            }
        }
    }
}

#[test]
fn planted_miscompile_is_caught() {
    let good = cones_netlist("int f(int a, int b) { return (a & b) + 3; }", "f");
    // Plant a bug: flip the first And to Or.
    let mut bad = good.clone();
    let mut planted = false;
    for cell in &mut bad.cells {
        if let CellKind::Bin(op @ BinKind::And, _, _) = &mut cell.kind {
            *op = BinKind::Or;
            planted = true;
            break;
        }
    }
    assert!(planted, "no And cell to mutate");
    match verdict(&good, &bad) {
        Verdict::Differ(cex) => {
            assert!(!cex.output.is_empty());
            assert!(!cex.inputs.is_empty());
            assert_ne!(cex.a_value, cex.b_value);
        }
        other => panic!("planted bug not detected: {other:?}"),
    }
}

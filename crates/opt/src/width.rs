//! Bit-width (value-range) analysis.
//!
//! The paper: "Bit vectors are natural in hardware, yet C only supports
//! four sizes." A designer writing `int` wastes 32-bit datapaths on
//! quantities that never exceed a few bits. This analysis recovers the
//! true ranges by forward interval propagation over the SSA IR and reports
//! the minimal width each value needs — what a good HLS compiler can claw
//! back automatically, and what bit-precise source types give you for free.
//!
//! Ranges are tracked as true mathematical intervals (`i128` arithmetic,
//! widened to the declared type's range when an operation may overflow or
//! after a fixed number of loop-carried refinements).

use chls_ir::ir::*;
use chls_rtl::cost::CostModel;
use chls_rtl::netlist::bin_class;

pub use chls_ir::dataflow::Range;

/// Result of the analysis.
#[derive(Debug, Clone)]
pub struct WidthAnalysis {
    /// Computed range of every value.
    pub ranges: Vec<Range>,
}

/// Runs the analysis on `f`.
///
/// A thin client of the shared dataflow engine: interval facts with
/// branch-guard refinement, directional widening on loop-carried growth,
/// and a bounded narrowing phase (see `chls_ir::dataflow`).
pub fn analyze(f: &Function) -> WidthAnalysis {
    WidthAnalysis {
        ranges: chls_ir::dataflow::value_ranges(f),
    }
}

impl WidthAnalysis {
    /// Minimal width needed by a value.
    pub fn needed_width(&self, f: &Function, v: Value) -> u16 {
        self.ranges[v.0 as usize]
            .needed_width(f.inst(v).ty.signed)
            .min(f.inst(v).ty.width)
    }

    /// Datapath area with declared widths vs. recovered widths, under the
    /// shared cost model. This is the quantity experiment E8 reports.
    pub fn area_comparison(&self, f: &Function, model: &CostModel) -> (f64, f64) {
        let mut declared_area = 0.0;
        let mut narrowed_area = 0.0;
        for (i, inst) in f.insts.iter().enumerate() {
            let v = Value(i as u32);
            let class = match &inst.kind {
                InstKind::Bin(op, ..) => bin_class(*op),
                InstKind::Un(UnKind::Neg, _) => chls_rtl::OpClass::AddSub,
                InstKind::Un(UnKind::Not, _) => chls_rtl::OpClass::Logic,
                InstKind::Select { .. } => chls_rtl::OpClass::Mux,
                _ => continue,
            };
            let declared_w = match &inst.kind {
                InstKind::Bin(op, a, _) if op.is_comparison() => f.inst(*a).ty.width,
                _ => inst.ty.width,
            };
            let narrowed_w = match &inst.kind {
                InstKind::Bin(op, a, b) if op.is_comparison() => {
                    self.needed_width(f, *a).max(self.needed_width(f, *b))
                }
                InstKind::Bin(_, a, b) => self
                    .needed_width(f, v)
                    .max(self.needed_width(f, *a))
                    .max(self.needed_width(f, *b)),
                _ => self.needed_width(f, v),
            };
            declared_area += model.area(class, declared_w);
            narrowed_area += model.area(class, narrowed_w.min(declared_w));
        }
        (declared_area, narrowed_area)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chls_frontend::compile_to_hir;
    use chls_ir::lower_function;

    fn analyzed(src: &str, name: &str) -> (Function, WidthAnalysis) {
        let hir = compile_to_hir(src).expect("frontend ok");
        let (id, _) = hir.func_by_name(name).expect("exists");
        let f = lower_function(&hir, id).expect("lowers");
        let wa = analyze(&f);
        (f, wa)
    }

    fn width_of_ret(f: &Function, wa: &WidthAnalysis) -> u16 {
        for b in &f.blocks {
            if let Term::Ret(Some(v)) = b.term {
                return wa.needed_width(f, v);
            }
        }
        panic!("no return value");
    }

    #[test]
    fn constants_get_exact_widths() {
        let (f, wa) = analyzed("int f() { return 5; }", "f");
        assert_eq!(width_of_ret(&f, &wa), 4); // 5 needs 4 bits signed
    }

    #[test]
    fn bounded_sum_is_narrow() {
        // Sum of eight values in [0, 15] fits in 7 bits.
        let (f, wa) = analyzed("int f(uint<4> a, uint<4> b) { return a + b; }", "f");
        // a + b in [0, 30]: 5 bits unsigned; as returned int (signed), 6.
        let w = width_of_ret(&f, &wa);
        assert!(w <= 6, "width {w}");
    }

    #[test]
    fn comparison_is_one_bit() {
        let (f, wa) = analyzed("bool f(int a, int b) { return a < b; }", "f");
        assert_eq!(width_of_ret(&f, &wa), 1);
    }

    #[test]
    fn masking_narrows_wide_ints() {
        // The paper's scenario: C `int` used for a 4-bit quantity.
        let (f, wa) = analyzed("int f(int x) { return (x & 15) + 1; }", "f");
        let w = width_of_ret(&f, &wa);
        assert!(w <= 6, "width {w}"); // [1, 16] needs 6 signed bits
    }

    #[test]
    fn rom_ranges_propagate() {
        let (f, wa) = analyzed(
            "const int t[4] = {1, 2, 3, 4}; int f(int i) { return t[i]; }",
            "f",
        );
        let w = width_of_ret(&f, &wa);
        assert!(w <= 4, "width {w}");
    }

    #[test]
    fn loop_carried_values_widen_safely() {
        // s grows with the loop; the analysis must not claim a narrow width.
        let (f, wa) = analyzed(
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }",
            "f",
        );
        let w = width_of_ret(&f, &wa);
        assert!(w >= 31, "width {w} is unsoundly narrow");
    }

    #[test]
    fn ranges_contain_runtime_values() {
        // Soundness spot-check: execute and verify each value lies in its
        // computed range.
        let src = "int f(int a[8], uint<4> k) {
            int s = 0;
            for (int i = 0; i < 8; i++) s += (a[i] & 7) * k;
            return s;
        }";
        let hir = compile_to_hir(src).unwrap();
        let (id, _) = hir.func_by_name("f").unwrap();
        let f = lower_function(&hir, id).unwrap();
        let wa = analyze(&f);
        let r = chls_ir::exec::execute(
            &f,
            &[
                chls_ir::exec::ArgValue::Array(vec![1, -2, 300, 4, -5, 6, 7, 8]),
                chls_ir::exec::ArgValue::Scalar(9),
            ],
            &chls_ir::exec::ExecOptions {
                record_trace: true,
                ..Default::default()
            },
        )
        .unwrap();
        for entry in &r.trace {
            let range = wa.ranges[entry.inst.0 as usize];
            // Re-execute to recover the value: the trace does not carry
            // values, so just sanity-check the bounds are ordered and the
            // declared range is respected.
            assert!(range.lo <= range.hi);
        }
        assert_eq!(r.ret, Some(9 * (1 + 6 + 4 + 4 + 3 + 6 + 7)));
    }

    #[test]
    fn area_comparison_shows_savings() {
        let (f, wa) = analyzed(
            "int f(int x, int y) { return (x & 15) * (y & 15) + 3; }",
            "f",
        );
        let model = CostModel::new();
        let (declared, narrowed) = wa.area_comparison(&f, &model);
        assert!(
            narrowed < declared * 0.5,
            "narrowed {narrowed} vs declared {declared}"
        );
    }

    #[test]
    fn needed_width_edge_cases() {
        assert_eq!(Range { lo: 0, hi: 0 }.needed_width(false), 1);
        assert_eq!(Range { lo: 0, hi: 1 }.needed_width(false), 1);
        assert_eq!(Range { lo: 0, hi: 255 }.needed_width(false), 8);
        assert_eq!(Range { lo: -1, hi: 0 }.needed_width(true), 1);
        assert_eq!(Range { lo: -128, hi: 127 }.needed_width(true), 8);
        assert_eq!(Range { lo: -129, hi: 0 }.needed_width(true), 9);
        assert_eq!(Range { lo: 0, hi: 128 }.needed_width(true), 9);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use chls_ir::exec::{execute, ArgValue, ExecOptions};
    use proptest::prelude::*;

    proptest! {
        /// Soundness: the computed range of the return value always
        /// contains the runtime result, for random masked expressions and
        /// random inputs.
        #[test]
        fn return_range_contains_runtime_value(
            mask_a in 1i64..255,
            mask_b in 1i64..255,
            shift in 0u8..5,
            a in any::<i32>(),
            b in any::<i32>(),
        ) {
            let src = format!(
                "int f(int a, int b) {{
                    int x = a & {mask_a};
                    int y = b & {mask_b};
                    return (x * y + x) >> {shift};
                }}"
            );
            let hir = chls_frontend::compile_to_hir(&src).expect("parses");
            let (id, _) = hir.func_by_name("f").expect("exists");
            let f = chls_ir::lower_function(&hir, id).expect("lowers");
            let wa = analyze(&f);
            let r = execute(
                &f,
                &[ArgValue::Scalar(a as i64), ArgValue::Scalar(b as i64)],
                &ExecOptions::default(),
            )
            .expect("executes");
            let ret = r.ret.expect("returns");
            for blk in &f.blocks {
                if let chls_ir::Term::Ret(Some(v)) = blk.term {
                    let range = wa.ranges[v.0 as usize];
                    prop_assert!(
                        (range.lo..=range.hi).contains(&(ret as i128)),
                        "ret {ret} outside [{}, {}]",
                        range.lo,
                        range.hi
                    );
                }
            }
        }

        /// Loop-carried accumulators never get unsoundly narrow ranges.
        #[test]
        fn loop_ranges_sound(n in 1i64..40, step in 1i64..9) {
            let src = format!(
                "int f() {{
                    int s = 0;
                    for (int i = 0; i < {n}; i++) s += {step};
                    return s;
                }}"
            );
            let hir = chls_frontend::compile_to_hir(&src).expect("parses");
            let (id, _) = hir.func_by_name("f").expect("exists");
            let f = chls_ir::lower_function(&hir, id).expect("lowers");
            let wa = analyze(&f);
            let r = execute(&f, &[], &ExecOptions::default()).expect("executes");
            let ret = r.ret.expect("returns");
            prop_assert_eq!(ret, n * step);
            for blk in &f.blocks {
                if let chls_ir::Term::Ret(Some(v)) = blk.term {
                    let range = wa.ranges[v.0 as usize];
                    prop_assert!((range.lo..=range.hi).contains(&(ret as i128)));
                }
            }
        }
    }
}

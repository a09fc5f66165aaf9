//! Width-narrowing transform.
//!
//! Consumes interval and known-bits facts from the shared dataflow engine
//! and rewrites the datapath so every instruction computes at the minimal
//! width that provably preserves its canonical value, with explicit
//! [`InstKind::Cast`]s inserted wherever the verifier requires operand and
//! result types to agree. This is the optimization answering the paper's
//! "C has only four integer sizes" complaint: the report-only width
//! analysis becomes an actual datapath shrink.
//!
//! Soundness rests on canonical-value semantics:
//!
//! * **Low-bit-determined ops** (`Add`/`Sub`/`Mul`/`And`/`Or`/`Xor`/`Shl`/
//!   `Neg`/`Not`/`Cast`): the low `w` result bits depend only on the low
//!   `w` operand bits, so operands may be truncated to the narrowed result
//!   type and the re-extended result is unchanged whenever the analysis
//!   proves the value fits.
//! * **`Shr`/`Div`/`Rem`** are not low-bit-determined; their result type
//!   is bumped to *cover* the operand widths (mirroring the per-backend
//!   `vty_covering` rule), so operand casts are always widening.
//! * **Comparisons** keep their `u1` result and compare both operands at
//!   the wider of the two narrowed operand types (canonical values make
//!   the comparison width-independent once both operands fit).
//! * **Phis** take per-edge casts in the predecessor block: the incoming
//!   value provably fits the phi's narrowed type whenever that edge is
//!   taken (branch-guard refinement), and the cast value has no other use.
//!
//! The transform also folds branches whose condition interval is a
//! provable constant (`[1,1]` / `[0,0]`) — dead branches the constant
//! folder cannot see because the condition is not a literal `Const`.
//!
//! Run [`crate::simplify::simplify`] afterwards: it CSEs duplicate casts,
//! folds `Cast` chains, and removes the blocks unreachable after branch
//! folding.

use chls_frontend::IntType;
use chls_ir::dataflow::{known_bits, value_ranges, Range};
use chls_ir::ir::*;

/// Statistics from a narrowing run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NarrowStats {
    /// Instructions whose result type was narrowed.
    pub narrowed: usize,
    /// Explicit truncation/extension casts inserted.
    pub casts_inserted: usize,
    /// Branches with provably constant conditions folded to jumps.
    pub branches_folded: usize,
}

/// Narrows instruction result widths in place. The function must verify
/// on entry; it verifies again after a follow-up `simplify`.
pub fn narrow(f: &mut Function) -> NarrowStats {
    let _span = chls_trace::span("opt.narrow");
    let mut stats = NarrowStats::default();
    let ranges = value_ranges(f);
    let bits = known_bits(f);

    fold_provable_branches(f, &ranges, &mut stats);

    let n = f.insts.len();
    // Decide each value's narrowed type. Parameters keep the signature,
    // loads/stores keep the memory element type, comparisons keep u1.
    let mut nty: Vec<IntType> = f.insts.iter().map(|i| i.ty).collect();
    for (i, inst) in f.insts.iter().enumerate() {
        let ty = inst.ty;
        let fixed = matches!(
            inst.kind,
            InstKind::Param(_) | InstKind::Load { .. } | InstKind::Store { .. }
        ) || matches!(inst.kind, InstKind::Bin(op, ..) if op.is_comparison());
        if fixed || ty.width <= 1 {
            continue;
        }
        let w = ranges[i]
            .needed_width(ty.signed)
            .min(bits[i].needed_width(ty.signed))
            .min(ty.width);
        nty[i] = IntType::new(w, ty.signed);
    }
    // Shr/Div/Rem are not determined by low operand bits: their result
    // type must cover the operands so the operand casts only widen. The
    // verifier guarantees those operands share the instruction's declared
    // type, so the bump never exceeds it. Iterate because a covered
    // instruction may itself feed another one.
    loop {
        let mut changed = false;
        for i in 0..n {
            let cover = match f.insts[i].kind {
                InstKind::Bin(BinKind::Shr, a, _) => nty[a.0 as usize].width,
                InstKind::Bin(BinKind::Div | BinKind::Rem, a, b) => {
                    nty[a.0 as usize].width.max(nty[b.0 as usize].width)
                }
                _ => continue,
            };
            if cover > nty[i].width {
                nty[i] = IntType::new(cover, nty[i].signed);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    stats.narrowed = (0..n).filter(|&i| nty[i] != f.insts[i].ty).count();

    // Rewrite result types, coercing operands wherever the verifier
    // demands agreement. All coercion targets come from the `nty` table,
    // so processing order does not matter. Memory addresses must stay
    // wide enough to represent every valid index of their memory:
    // backends build per-element index constants and comparators at the
    // address type (e.g. the cones mux tree), so a shrunken address
    // would truncate indices the extent still needs.
    let orig: Vec<IntType> = f.insts.iter().map(|i| i.ty).collect();
    // The coercion target for an address: the narrowed type, widened (never
    // truncated, so an out-of-bounds address misbehaves identically with
    // and without narrowing) until it covers `len - 1`, capped at the
    // declared type.
    let addr_ty = |len: usize, have: IntType, declared: IntType| {
        let idx = Range {
            lo: 0,
            hi: len.saturating_sub(1) as i128,
        };
        let w = idx
            .needed_width(declared.signed)
            .max(have.width)
            .min(declared.width);
        IntType::new(w, declared.signed)
    };
    for bi in 0..f.blocks.len() {
        let b = BlockId(bi as u32);
        let old = std::mem::take(&mut f.blocks[bi].insts);
        let mut out: Vec<Value> = Vec::with_capacity(old.len());
        for v in old {
            let span = f.span_of(v);
            let want = nty[v.0 as usize];
            match f.inst(v).kind.clone() {
                InstKind::Phi(_) => {} // per-edge casts added below
                InstKind::Bin(op, a, bb) if op.is_comparison() => {
                    let (wa, wb) = (nty[a.0 as usize], nty[bb.0 as usize]);
                    let common = if wa.width >= wb.width { wa } else { wb };
                    let a2 = coerce(f, &nty, &mut out, b, a, common, span, &mut stats);
                    let b2 = coerce(f, &nty, &mut out, b, bb, common, span, &mut stats);
                    f.inst_mut(v).kind = InstKind::Bin(op, a2, b2);
                }
                InstKind::Bin(op, a, bb) if matches!(op, BinKind::Shl | BinKind::Shr) => {
                    let a2 = coerce(f, &nty, &mut out, b, a, want, span, &mut stats);
                    f.inst_mut(v).kind = InstKind::Bin(op, a2, bb);
                }
                InstKind::Bin(op, a, bb) => {
                    let a2 = coerce(f, &nty, &mut out, b, a, want, span, &mut stats);
                    let b2 = coerce(f, &nty, &mut out, b, bb, want, span, &mut stats);
                    f.inst_mut(v).kind = InstKind::Bin(op, a2, b2);
                }
                InstKind::Un(op, a) => {
                    let a2 = coerce(f, &nty, &mut out, b, a, want, span, &mut stats);
                    f.inst_mut(v).kind = InstKind::Un(op, a2);
                }
                InstKind::Select { cond, t, f: fv } => {
                    let t2 = coerce(f, &nty, &mut out, b, t, want, span, &mut stats);
                    let f2 = coerce(f, &nty, &mut out, b, fv, want, span, &mut stats);
                    f.inst_mut(v).kind = InstKind::Select { cond, t: t2, f: f2 };
                }
                InstKind::Cast { val, .. } => {
                    f.inst_mut(v).kind = InstKind::Cast {
                        from: nty[val.0 as usize],
                        val,
                    };
                }
                InstKind::Store { mem, addr, value } => {
                    let elem = f.mem(mem).elem;
                    let ai = addr.0 as usize;
                    let at = addr_ty(f.mem(mem).len, nty[ai], orig[ai]);
                    let a2 = coerce(f, &nty, &mut out, b, addr, at, span, &mut stats);
                    let v2 = coerce(f, &nty, &mut out, b, value, elem, span, &mut stats);
                    f.inst_mut(v).kind = InstKind::Store {
                        mem,
                        addr: a2,
                        value: v2,
                    };
                }
                InstKind::Load { mem, addr } => {
                    let ai = addr.0 as usize;
                    let at = addr_ty(f.mem(mem).len, nty[ai], orig[ai]);
                    let a2 = coerce(f, &nty, &mut out, b, addr, at, span, &mut stats);
                    f.inst_mut(v).kind = InstKind::Load { mem, addr: a2 };
                }
                InstKind::Param(_) | InstKind::Const(_) => {}
            }
            f.inst_mut(v).ty = want;
            out.push(v);
        }
        // Returned values widen back to the declared return type.
        if let Term::Ret(Some(rv)) = f.blocks[bi].term {
            if let Some(rt) = f.ret_ty {
                if nty[rv.0 as usize] != rt {
                    let span = f.span_of(rv);
                    let rv2 = coerce(f, &nty, &mut out, b, rv, rt, span, &mut stats);
                    f.blocks[bi].term = Term::Ret(Some(rv2));
                }
            }
        }
        f.blocks[bi].insts = out;
    }

    // Phi arguments: a per-edge cast in the predecessor. The cast value is
    // only consumed when that edge is taken, which is exactly when the
    // guard-refined analysis proved the incoming value fits the phi type.
    let mut edge_casts: Vec<(BlockId, Value)> = Vec::new();
    for i in 0..n {
        let v = Value(i as u32);
        let want = nty[i];
        let span = f.span_of(v);
        let InstKind::Phi(args) = f.inst(v).kind.clone() else {
            continue;
        };
        let mut new_args = args;
        for (p, a) in &mut new_args {
            let have = nty[a.0 as usize];
            if have != want {
                let c = new_inst(
                    f,
                    *p,
                    InstKind::Cast {
                        from: have,
                        val: *a,
                    },
                    want,
                    span,
                );
                stats.casts_inserted += 1;
                edge_casts.push((*p, c));
                *a = c;
            }
        }
        f.inst_mut(v).kind = InstKind::Phi(new_args);
    }
    for (p, c) in edge_casts {
        f.blocks[p.0 as usize].insts.push(c);
    }
    stats
}

/// Creates an instruction without placing it in a block's list.
fn new_inst(
    f: &mut Function,
    b: BlockId,
    kind: InstKind,
    ty: IntType,
    span: chls_frontend::Span,
) -> Value {
    let v = Value(f.insts.len() as u32);
    f.insts.push(InstData { kind, ty, block: b });
    f.set_span(v, span);
    v
}

/// Returns `a` coerced to type `want`, inserting a cast into `out` (the
/// block's instruction list under construction) when the types differ.
#[allow(clippy::too_many_arguments)]
fn coerce(
    f: &mut Function,
    nty: &[IntType],
    out: &mut Vec<Value>,
    b: BlockId,
    a: Value,
    want: IntType,
    span: chls_frontend::Span,
    stats: &mut NarrowStats,
) -> Value {
    let have = nty[a.0 as usize];
    if have == want {
        return a;
    }
    let c = new_inst(f, b, InstKind::Cast { from: have, val: a }, want, span);
    stats.casts_inserted += 1;
    out.push(c);
    c
}

/// Folds two-way branches whose condition interval is a provable constant
/// into jumps, pruning the dead edge's phi inputs (the same bookkeeping
/// `simplify`'s branch folder does for literal-`Const` conditions).
fn fold_provable_branches(f: &mut Function, ranges: &[Range], stats: &mut NarrowStats) {
    for bi in 0..f.blocks.len() {
        let Term::Br { cond, then, els } = f.blocks[bi].term else {
            continue;
        };
        if then == els || matches!(f.inst(cond).kind, InstKind::Const(_)) {
            continue; // simplify already handles these
        }
        let r = ranges[cond.0 as usize];
        let (taken, dead) = if (r.lo, r.hi) == (1, 1) {
            (then, els)
        } else if (r.lo, r.hi) == (0, 0) {
            (els, then)
        } else {
            continue;
        };
        f.blocks[bi].term = Term::Jump(taken);
        let src = BlockId(bi as u32);
        for &iv in &f.blocks[dead.0 as usize].insts.clone() {
            if let InstKind::Phi(args) = &mut f.inst_mut(iv).kind {
                args.retain(|(b, _)| *b != src);
            }
        }
        stats.branches_folded += 1;
    }
}

/// Provably-dead two-way branches of `f`: `(block, condition, always)`
/// where `always` is the branch outcome the condition interval pins. Used
/// by the dead-branch lint; [`narrow`] performs the matching rewrite.
pub fn dead_branches(f: &Function) -> Vec<(BlockId, Value, bool)> {
    let ranges = value_ranges(f);
    let mut found = Vec::new();
    for (bi, blk) in f.blocks.iter().enumerate() {
        let Term::Br { cond, then, els } = blk.term else {
            continue;
        };
        if then == els || matches!(f.inst(cond).kind, InstKind::Const(_)) {
            continue;
        }
        let r = ranges[cond.0 as usize];
        if (r.lo, r.hi) == (1, 1) {
            found.push((BlockId(bi as u32), cond, true));
        } else if (r.lo, r.hi) == (0, 0) {
            found.push((BlockId(bi as u32), cond, false));
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplify::simplify;
    use chls_frontend::compile_to_hir;
    use chls_ir::exec::{execute, ArgValue, ExecOptions};
    use chls_ir::lower_function;
    use chls_ir::verify::verify;

    fn lowered(src: &str, name: &str) -> Function {
        let hir = compile_to_hir(src).expect("frontend ok");
        let (id, _) = hir.func_by_name(name).expect("exists");
        let mut f = lower_function(&hir, id).expect("lowers");
        simplify(&mut f);
        f
    }

    fn narrowed(src: &str, name: &str) -> (Function, Function, NarrowStats) {
        let f0 = lowered(src, name);
        let mut f1 = f0.clone();
        let stats = narrow(&mut f1);
        simplify(&mut f1);
        verify(&f1).unwrap_or_else(|e| panic!("{e}\n{f1}"));
        (f0, f1, stats)
    }

    fn assert_same_result(f0: &Function, f1: &Function, args: &[ArgValue]) {
        let r0 = execute(f0, args, &ExecOptions::default()).expect("f0 runs");
        let r1 = execute(f1, args, &ExecOptions::default()).expect("f1 runs");
        assert_eq!(r0.ret, r1.ret, "narrowing changed the result");
    }

    #[test]
    fn masked_datapath_narrows_and_preserves_values() {
        let (f0, f1, stats) = narrowed(
            "int f(int x, int y) { return (x & 15) * (y & 15) + 3; }",
            "f",
        );
        assert!(stats.narrowed > 0, "nothing narrowed: {f1}");
        let mul_w = f1
            .insts
            .iter()
            .find_map(|i| match i.kind {
                InstKind::Bin(BinKind::Mul, ..) => Some(i.ty.width),
                _ => None,
            })
            .expect("mul survives");
        assert!(mul_w <= 9, "multiplier still {mul_w} bits wide: {f1}");
        for (x, y) in [(0, 0), (255, -255), (i64::MAX, i64::MIN), (-1, 1)] {
            assert_same_result(&f0, &f1, &[ArgValue::Scalar(x), ArgValue::Scalar(y)]);
        }
    }

    #[test]
    fn loop_counter_registers_narrow() {
        let (f0, f1, _) = narrowed(
            "int f() { int s = 0; for (int i = 0; i < 16; i++) { s = s + (i & 3); } return s; }",
            "f",
        );
        // The counter phi must have shrunk below its declared 32 bits.
        let phi_w = f1
            .insts
            .iter()
            .filter_map(|i| match i.kind {
                InstKind::Phi(_) => Some(i.ty.width),
                _ => None,
            })
            .min()
            .expect("loop phi survives");
        assert!(phi_w <= 6, "counter phi still {phi_w} bits: {f1}");
        assert_same_result(&f0, &f1, &[]);
    }

    #[test]
    fn shift_and_division_keep_covering_widths() {
        let (f0, f1, _) = narrowed(
            "int f(int x, int y) { int a = x & 255; int b = (y & 7) + 1; return (a >> 2) + a / b + a % b; }",
            "f",
        );
        for (x, y) in [(1023, 0), (-1, -1), (255, 7), (0, i64::MIN)] {
            assert_same_result(&f0, &f1, &[ArgValue::Scalar(x), ArgValue::Scalar(y)]);
        }
    }

    #[test]
    fn provable_branch_folds_away() {
        let (f0, f1, stats) = narrowed(
            "int f(int x) { int m = x & 15; if (m < 32) { return m + 1; } return m - 1; }",
            "f",
        );
        assert!(stats.branches_folded >= 1, "branch not folded: {f1}");
        assert!(
            !f1.blocks.iter().any(|b| matches!(b.term, Term::Br { .. })),
            "branch survived: {f1}"
        );
        for x in [-100, 0, 15, 31, 32, i64::MAX] {
            assert_same_result(&f0, &f1, &[ArgValue::Scalar(x)]);
        }
    }

    #[test]
    fn dead_branches_reported() {
        let f = lowered(
            "int f(int x) { int m = x & 15; if (m < 32) { return m + 1; } return m - 1; }",
            "f",
        );
        let dead = dead_branches(&f);
        assert_eq!(dead.len(), 1, "{f}");
        assert!(dead[0].2, "m < 32 is always true");
    }

    #[test]
    fn rom_tables_and_memories_stay_typed() {
        let (f0, f1, _) = narrowed(
            "const int t[4] = {1, 2, 3, 4};
             int f(int i, int a[4]) { a[i & 3] = t[i & 3] + 100; return a[i & 3]; }",
            "f",
        );
        for i in [0, 1, 7, -1] {
            assert_same_result(
                &f0,
                &f1,
                &[ArgValue::Scalar(i), ArgValue::Array(vec![0, 0, 0, 0])],
            );
        }
    }

    #[test]
    fn signed_negatives_survive_narrowing() {
        let (f0, f1, _) = narrowed("int f(int x) { int a = x & 7; return -a + (a - 12); }", "f");
        for x in [0, 7, -8, 100, i64::MIN] {
            assert_same_result(&f0, &f1, &[ArgValue::Scalar(x)]);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::simplify::simplify;
    use chls_ir::exec::{execute, ArgValue, ExecOptions};
    use chls_ir::verify::verify;
    use proptest::prelude::*;

    proptest! {
        /// Narrowing never changes program results, for random masked
        /// expressions (the profitable case) over random inputs.
        #[test]
        fn narrowing_preserves_semantics(
            mask_a in 1i64..=255,
            mask_b in 1i64..=255,
            shift in 0u8..5,
            add in -50i64..50,
            a in any::<i32>(),
            b in any::<i32>(),
        ) {
            let src = format!(
                "int f(int a, int b) {{
                    int x = a & {mask_a};
                    int y = b & {mask_b};
                    int z = (x * y + {add}) >> {shift};
                    if (x < {}) z = z + x % (y + 1);
                    return z;
                }}",
                mask_a + 1
            );
            let hir = chls_frontend::compile_to_hir(&src).expect("parses");
            let (id, _) = hir.func_by_name("f").expect("exists");
            let mut f0 = chls_ir::lower_function(&hir, id).expect("lowers");
            simplify(&mut f0);
            let mut f1 = f0.clone();
            narrow(&mut f1);
            simplify(&mut f1);
            verify(&f1).map_err(|e| TestCaseError::fail(format!("{e}\n{f1}")))?;
            let args = [ArgValue::Scalar(a as i64), ArgValue::Scalar(b as i64)];
            let r0 = execute(&f0, &args, &ExecOptions::default()).expect("f0");
            let r1 = execute(&f1, &args, &ExecOptions::default()).expect("f1");
            prop_assert_eq!(r0.ret, r1.ret);
        }
    }
}

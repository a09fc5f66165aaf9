//! If-conversion: predicating short branches into straight-line `Select`s.
//!
//! Modulo scheduling (and hence hardware loop pipelining) wants single-
//! basic-block loop bodies; small data-dependent branches inside the body
//! otherwise force a fallback to the sequential schedule. This pass
//! rewrites two shapes into branch-free code:
//!
//! * **triangle** — `b: br c, t, j` where `t` is a pure single-predecessor
//!   block jumping to `j`: `t`'s instructions move into `b` and `j`'s phis
//!   become `Select(c, ...)`.
//! * **diamond** — `b: br c, t, e` with both arms pure single-predecessor
//!   blocks jumping to the same `j`.
//!
//! An arm is *pure* when every instruction is a total dataflow op: no
//! loads (a hoisted load could read out of bounds on the not-taken path),
//! no stores, no sends/receives, no phis. Division is total in CHL
//! (x/0 = 0), so it is allowed. The pass runs to a fixpoint, so nested
//! conditionals (an inner `if` already converted becomes part of a pure
//! arm) collapse bottom-up.

use chls_ir::ir::{BlockId, Function, InstKind, Term, Value};

/// Statistics from a [`if_convert`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IfConvStats {
    /// Triangles converted.
    pub triangles: usize,
    /// Diamonds converted.
    pub diamonds: usize,
}

/// True when every instruction of `b` may be executed unconditionally.
fn block_is_pure(f: &Function, b: BlockId) -> bool {
    f.block(b).insts.iter().all(|&v| {
        matches!(
            f.inst(v).kind,
            InstKind::Const(_)
                | InstKind::Param(_)
                | InstKind::Bin(..)
                | InstKind::Un(..)
                | InstKind::Cast { .. }
                | InstKind::Select { .. }
        )
    })
}

fn single_pred(preds: &[Vec<BlockId>], b: BlockId) -> bool {
    preds[b.0 as usize].len() == 1
}

/// Moves all instructions of `src` to the end of `dst`. The drained block
/// is parked on a self-jump so it stops counting as a predecessor of its
/// old successor (it is unreachable; `simplify` removes it later).
fn absorb(f: &mut Function, src: BlockId, dst: BlockId) {
    let moved: Vec<Value> = std::mem::take(&mut f.blocks[src.0 as usize].insts);
    for &v in &moved {
        f.inst_mut(v).block = dst;
    }
    f.blocks[dst.0 as usize].insts.extend(moved);
    f.blocks[src.0 as usize].term = Term::Jump(src);
}

/// Rewrites `join`'s phis after `b` has absorbed its arm(s): each phi entry
/// pair coming from the converted region collapses to one entry from `b`
/// holding a `Select`. `arm_t`/`arm_e` name the predecessors whose values
/// were the taken/not-taken results (either may be `b` itself in a
/// triangle).
fn rewrite_join_phis(
    f: &mut Function,
    join: BlockId,
    b: BlockId,
    cond: Value,
    arm_t: BlockId,
    arm_e: BlockId,
) {
    let phis: Vec<Value> = f.block(join).insts.clone();
    for pv in phis {
        let InstKind::Phi(args) = &f.inst(pv).kind else {
            continue;
        };
        let mut vt = None;
        let mut ve = None;
        let mut rest: Vec<(BlockId, Value)> = Vec::new();
        for (p, v) in args.clone() {
            if p == arm_t {
                vt = Some(v);
            } else if p == arm_e {
                ve = Some(v);
            } else {
                rest.push((p, v));
            }
        }
        let (Some(vt), Some(ve)) = (vt, ve) else {
            continue;
        };
        let ty = f.inst(pv).ty;
        let merged = if vt == ve {
            vt
        } else {
            // The Select is appended to `b`, after both absorbed arms.
            f.add_inst(b, InstKind::Select { cond, t: vt, f: ve }, ty)
        };
        rest.push((b, merged));
        f.inst_mut(pv).kind = InstKind::Phi(rest);
    }
}

/// A convertible arm: a chain of pure, single-predecessor blocks linked by
/// jumps, ending with a jump to `join`. Returns the chain in execution
/// order plus the join block.
fn arm_chain(
    f: &Function,
    preds: &[Vec<BlockId>],
    b: BlockId,
    first: BlockId,
) -> Option<(Vec<BlockId>, BlockId)> {
    let mut chain = Vec::new();
    let mut cur = first;
    loop {
        if cur == b || !single_pred(preds, cur) || !block_is_pure(f, cur) {
            return None;
        }
        chain.push(cur);
        if chain.len() > 16 {
            return None; // keep predicated regions small
        }
        let Term::Jump(next) = f.block(cur).term else {
            return None;
        };
        if next == b || chain.contains(&next) {
            return None;
        }
        // The join is the first jump target that is either multi-pred or
        // impure — the chain cannot absorb it.
        if single_pred(preds, next)
            && block_is_pure(f, next)
            && matches!(f.block(next).term, Term::Jump(_))
        {
            cur = next;
        } else {
            return Some((chain, next));
        }
    }
}

/// Converts one triangle or diamond rooted at `b`, if present.
fn convert_at(f: &mut Function, b: BlockId, preds: &[Vec<BlockId>]) -> Option<bool> {
    let Term::Br { cond, then, els } = f.block(b).term else {
        return None;
    };
    if then == els {
        return None;
    }
    // Diamond: both arms are pure chains converging on the same join.
    if let (Some((ct, jt)), Some((ce, je))) =
        (arm_chain(f, preds, b, then), arm_chain(f, preds, b, els))
    {
        if jt == je && !ct.contains(&je) && !ce.contains(&jt) {
            let (last_t, last_e) = (*ct.last().unwrap(), *ce.last().unwrap());
            for &blk in ct.iter().chain(&ce) {
                absorb(f, blk, b);
            }
            rewrite_join_phis(f, jt, b, cond, last_t, last_e);
            f.blocks[b.0 as usize].term = Term::Jump(jt);
            return Some(true);
        }
    }
    // Triangle: one pure chain rejoining the other successor.
    for (arm, other, arm_is_then) in [(then, els, true), (els, then, false)] {
        let Some((chain, j)) = arm_chain(f, preds, b, arm) else {
            continue;
        };
        if j != other {
            continue;
        }
        let last = *chain.last().unwrap();
        for &blk in &chain {
            absorb(f, blk, b);
        }
        let (arm_t, arm_e) = if arm_is_then { (last, b) } else { (b, last) };
        rewrite_join_phis(f, j, b, cond, arm_t, arm_e);
        f.blocks[b.0 as usize].term = Term::Jump(j);
        return Some(false);
    }
    None
}

/// Runs if-conversion to a fixpoint over the whole function, interleaved
/// with [`crate::simplify::simplify`] so each converted region (trivial
/// phis, emptied arm blocks) is cleaned up before the next round — nested
/// conditionals collapse bottom-up.
pub fn if_convert(f: &mut Function) -> IfConvStats {
    let mut stats = IfConvStats::default();
    loop {
        let preds = f.predecessors();
        let mut changed = false;
        for bi in 0..f.blocks.len() {
            if let Some(diamond) = convert_at(f, BlockId(bi as u32), &preds) {
                if diamond {
                    stats.diamonds += 1;
                } else {
                    stats.triangles += 1;
                }
                changed = true;
                break; // predecessor lists are stale now
            }
        }
        if !changed {
            return stats;
        }
        crate::simplify::simplify(f);
        // Chains blocked only by a single-entry phi (the join of an inner
        // converted region) open up once the phi collapses.
        chls_ir::lower::remove_trivial_phis(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chls_frontend::compile_to_hir;
    use chls_ir::exec::{execute, ArgValue, ExecOptions};
    use chls_ir::lower_function;

    fn func(src: &str) -> Function {
        let hir = compile_to_hir(src).expect("frontend ok");
        let (id, _) = hir.func_by_name("f").expect("exists");
        lower_function(&hir, id).expect("lowers")
    }

    fn branch_count(f: &Function) -> usize {
        f.blocks
            .iter()
            .filter(|b| matches!(b.term, Term::Br { .. }))
            .count()
    }

    #[test]
    fn triangle_becomes_select() {
        let mut f = func("int f(int a, int b) { int r = a; if (a < b) r = b; return r; }");
        let before = branch_count(&f);
        let stats = if_convert(&mut f);
        chls_opt_selftest_simplify(&mut f);
        assert_eq!(stats.triangles + stats.diamonds, 1);
        assert!(branch_count(&f) < before);
        let r = execute(
            &f,
            &[ArgValue::Scalar(3), ArgValue::Scalar(9)],
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(r.ret, Some(9));
        let r = execute(
            &f,
            &[ArgValue::Scalar(9), ArgValue::Scalar(3)],
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(r.ret, Some(9));
    }

    #[test]
    fn diamond_becomes_select() {
        let mut f = func(
            "int f(int a, int b) { int r; if (a < b) { r = b - a; } else { r = a - b; } return r; }",
        );
        let stats = if_convert(&mut f);
        chls_opt_selftest_simplify(&mut f);
        assert!(stats.diamonds >= 1 || stats.triangles >= 1);
        assert_eq!(branch_count(&f), 0);
        for (a, b, want) in [(3, 9, 6), (9, 3, 6), (5, 5, 0)] {
            let r = execute(
                &f,
                &[ArgValue::Scalar(a), ArgValue::Scalar(b)],
                &ExecOptions::default(),
            )
            .unwrap();
            assert_eq!(r.ret, Some(want));
        }
    }

    #[test]
    fn nested_conditionals_collapse() {
        let mut f = func(
            "int f(int v, int lo, int hi) {
                if (v < lo) { v = lo; } else { if (v > hi) { v = hi; } }
                return v;
            }",
        );
        let stats = if_convert(&mut f);
        chls_opt_selftest_simplify(&mut f);
        assert!(stats.triangles + stats.diamonds >= 2, "{stats:?}");
        assert_eq!(branch_count(&f), 0);
        for (v, want) in [(-5, 0), (50, 50), (200, 100)] {
            let r = execute(
                &f,
                &[
                    ArgValue::Scalar(v),
                    ArgValue::Scalar(0),
                    ArgValue::Scalar(100),
                ],
                &ExecOptions::default(),
            )
            .unwrap();
            assert_eq!(r.ret, Some(want));
        }
    }

    #[test]
    fn memory_arms_are_left_alone() {
        // The arm stores — predicating it would execute the store
        // unconditionally. Must not convert.
        let mut f = func("void f(int a[4], int i) { if (i < 4) a[i] = 1; }");
        let stats = if_convert(&mut f);
        assert_eq!(stats, IfConvStats::default());
    }

    #[test]
    fn loads_in_arms_are_left_alone() {
        // A speculative load could read out of bounds on the not-taken
        // path.
        let mut f = func("int f(int a[4], int i) { int r = 0; if (i < 4) r = a[i]; return r; }");
        let stats = if_convert(&mut f);
        assert_eq!(stats, IfConvStats::default());
    }

    #[test]
    fn loop_exit_branches_survive() {
        let mut f = func(
            "int f(int a[8]) {
                int best = a[0];
                for (int i = 1; i < 8; i++) { if (a[i] > best) best = a[i]; }
                return best;
            }",
        );
        if_convert(&mut f);
        chls_opt_selftest_simplify(&mut f);
        // The loop's back edge must still exist (only the inner if goes).
        assert!(branch_count(&f) >= 1);
        let r = execute(
            &f,
            &[ArgValue::Array(vec![3, -1, 4, 1, -5, 9, 2, 6])],
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(r.ret, Some(9));
    }

    /// Local alias so tests read naturally.
    fn chls_opt_selftest_simplify(f: &mut Function) {
        crate::simplify::simplify(f);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// A random pure expression over `a`, `b`, `v`.
        fn arb_expr(depth: u32) -> BoxedStrategy<String> {
            let leaf = prop_oneof![
                Just("a".to_string()),
                Just("b".to_string()),
                Just("v".to_string()),
                (-10i64..10).prop_map(|v| format!("{v}")),
            ];
            leaf.prop_recursive(depth, 10, 2, |inner| {
                prop_oneof![
                    (
                        inner.clone(),
                        inner.clone(),
                        "[-+*&|^]".prop_map(|s: String| s)
                    )
                        .prop_map(|(l, r, op)| format!("({l} {op} {r})")),
                    (inner, 0u8..4).prop_map(|(l, s)| format!("({l} >> {s})")),
                ]
            })
            .boxed()
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

            /// If-conversion never changes results on random nested pure
            /// conditionals.
            #[test]
            fn conversion_preserves_behavior(
                c1 in arb_expr(1),
                e1 in arb_expr(2),
                c2 in arb_expr(1),
                e2 in arb_expr(2),
                a in -40i64..40,
                b in -40i64..40,
                x in -40i64..40,
            ) {
                let src = format!(
                    "int f(int a, int b, int v) {{
                        if (({c1}) > 0) {{ v = {e1}; }} else {{ if (({c2}) < 0) {{ v = {e2}; }} }}
                        return v ^ (a - b);
                    }}"
                );
                let mut f = func(&src);
                let args = [ArgValue::Scalar(a), ArgValue::Scalar(b), ArgValue::Scalar(x)];
                let before = execute(&f, &args, &ExecOptions::default()).unwrap();
                let stats = if_convert(&mut f);
                chls_opt_selftest_simplify(&mut f);
                let after = execute(&f, &args, &ExecOptions::default()).unwrap();
                prop_assert_eq!(before.ret, after.ret, "{}", src);
                // Pure nested conditionals must fully predicate.
                prop_assert!(stats.triangles + stats.diamonds >= 1, "{}", src);
                prop_assert_eq!(branch_count(&f), 0, "{}", src);
            }
        }
    }
}

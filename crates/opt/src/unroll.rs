//! Loop unrolling at the HIR level.
//!
//! Two consumers:
//!
//! * `#pragma unroll N` on a loop (Transmogrifier users unroll to buy
//!   cycles back, since its rule charges one cycle per loop iteration);
//! * the Cones backend, which must unroll *everything fully* to flatten a
//!   function into one combinational network.
//!
//! Only *canonical* counted loops unroll:
//! `for (i = C0; i <op> C1; i += C2) { body }` where the bounds are
//! constants, the induction variable is not written in the body, and the
//! body contains no `break`/`continue`. Everything else is left intact
//! (or reported, for full unrolling).

use crate::subst::{block_writes_local, subst_local_in_block};
use chls_frontend::ast::BinOp;
use chls_frontend::hir::*;
use chls_frontend::{Span, Type};
use chls_ir::{eval_bin, BinKind};
use std::fmt;

/// Why a loop could not be unrolled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnrollError {
    /// The loop is not a canonical counted `for`.
    NotCanonical,
    /// The trip count exceeds the safety limit.
    TooManyIterations(u64),
    /// The body writes the induction variable or breaks/continues.
    BodyInterferes,
}

impl fmt::Display for UnrollError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnrollError::NotCanonical => {
                write!(f, "loop is not a canonical constant-bound counted loop")
            }
            UnrollError::TooManyIterations(n) => {
                write!(f, "unrolling would produce {n} iterations (limit exceeded)")
            }
            UnrollError::BodyInterferes => {
                write!(f, "loop body writes the induction variable or breaks")
            }
        }
    }
}

impl std::error::Error for UnrollError {}

/// Limit on fully-unrolled iterations (keeps Cones explosions finite).
pub const MAX_UNROLL_ITERATIONS: u64 = 65_536;

/// A recognized canonical counted loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalLoop {
    /// Induction variable.
    pub var: LocalId,
    /// Initial value.
    pub start: i64,
    /// The values the induction variable takes, in order.
    pub iterations: Vec<i64>,
}

/// Tries to recognize `for (i = C0; i op C1; i += C2)`.
///
/// # Errors
///
/// See [`UnrollError`].
pub fn recognize(
    init: &HirBlock,
    cond: &HirExpr,
    step: &HirBlock,
    body: &HirBlock,
) -> Result<CanonicalLoop, UnrollError> {
    // init: single `i = C0`.
    let (var, start) = match init.stmts.as_slice() {
        [HirStmt::Assign {
            place: HirPlace::Local(var),
            value,
            ..
        }] => match value.as_const() {
            Some(c) => (*var, c),
            None => return Err(UnrollError::NotCanonical),
        },
        _ => return Err(UnrollError::NotCanonical),
    };
    // cond: `i op C1`.
    let (op, bound) = match &cond.kind {
        HirExprKind::Binary(op, a, b) => {
            let is_var = matches!(&a.kind, HirExprKind::Load(p)
                if matches!(&**p, HirPlace::Local(v) if *v == var));
            match (is_var, b.as_const()) {
                (true, Some(c)) => (*op, c),
                _ => return Err(UnrollError::NotCanonical),
            }
        }
        _ => return Err(UnrollError::NotCanonical),
    };
    // step: single `i = i + C2` or `i = i - C2`.
    let delta = match step.stmts.as_slice() {
        [HirStmt::Assign {
            place: HirPlace::Local(v),
            value,
            ..
        }] if *v == var => match &value.kind {
            HirExprKind::Binary(dir @ (BinOp::Add | BinOp::Sub), a, b) => {
                match (&a.kind, b.as_const()) {
                    (HirExprKind::Load(p), Some(c)) if matches!(&**p, HirPlace::Local(x) if *x == var) => {
                        if *dir == BinOp::Add {
                            c
                        } else {
                            -c
                        }
                    }
                    _ => return Err(UnrollError::NotCanonical),
                }
            }
            _ => return Err(UnrollError::NotCanonical),
        },
        _ => return Err(UnrollError::NotCanonical),
    };
    if delta == 0 {
        return Err(UnrollError::NotCanonical);
    }
    if block_writes_local(body, var) || has_break_or_continue(body) {
        return Err(UnrollError::BodyInterferes);
    }
    // Evaluate the recurrence with the variable's runtime type.
    let var_ty = cond_operand_int_type(cond).unwrap_or(chls_frontend::IntType::int());
    let kind = match op {
        BinOp::Lt => BinKind::Lt,
        BinOp::Le => BinKind::Le,
        BinOp::Gt => BinKind::Gt,
        BinOp::Ge => BinKind::Ge,
        BinOp::Ne => BinKind::Ne,
        _ => return Err(UnrollError::NotCanonical),
    };
    let mut iterations = Vec::new();
    let mut i = var_ty.canonicalize(start);
    loop {
        if eval_bin(kind, var_ty, i, var_ty.canonicalize(bound)) == 0 {
            break;
        }
        iterations.push(i);
        if iterations.len() as u64 > MAX_UNROLL_ITERATIONS {
            return Err(UnrollError::TooManyIterations(iterations.len() as u64));
        }
        i = eval_bin(BinKind::Add, var_ty, i, var_ty.canonicalize(delta));
    }
    Ok(CanonicalLoop {
        var,
        start,
        iterations,
    })
}

fn cond_operand_int_type(cond: &HirExpr) -> Option<chls_frontend::IntType> {
    match &cond.kind {
        HirExprKind::Binary(_, a, _) => match &a.ty {
            Type::Int(it) => Some(*it),
            Type::Bool => Some(chls_frontend::IntType::new(1, false)),
            _ => None,
        },
        _ => None,
    }
}

fn has_break_or_continue(block: &HirBlock) -> bool {
    block.stmts.iter().any(|s| match s {
        HirStmt::Break | HirStmt::Continue => true,
        // A nested loop's break/continue targets that loop — opaque.
        HirStmt::While { .. } | HirStmt::DoWhile { .. } | HirStmt::For { .. } => false,
        _ => s.blocks().any(has_break_or_continue),
    })
}

/// Options for [`unroll_function`].
#[derive(Debug, Clone, Copy, Default)]
pub struct UnrollOptions {
    /// Unroll every canonical loop fully, regardless of pragmas (Cones).
    pub force_full: bool,
    /// Unroll factor applied to every canonical counted `for` loop that
    /// carries no `#pragma unroll` of its own (a pragma always wins).
    /// `Some(0)` means "fully"; `None` leaves unpragma'd loops rolled.
    /// This is the `--unroll N` design-space knob.
    pub factor_override: Option<u32>,
}

/// Statistics from an unrolling run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UnrollStats {
    /// Loops fully unrolled.
    pub full: usize,
    /// Loops partially unrolled.
    pub partial: usize,
    /// Reasons loops were left intact.
    pub skipped: Vec<String>,
}

/// Unrolls loops in `func` according to pragmas (or everything when
/// `force_full`). Returns the rewritten function and statistics.
pub fn unroll_function(func: &HirFunc, opts: UnrollOptions) -> (HirFunc, UnrollStats) {
    let _span = chls_trace::span("opt.unroll");
    let mut stats = UnrollStats::default();
    let mut func = func.clone();
    unroll_block(&mut func.body, opts, &mut stats);
    (func, stats)
}

/// Unrolls the loops of `block` in place, innermost first. Every loop
/// that stays rolled loses its pragma.
fn unroll_block(block: &mut HirBlock, opts: UnrollOptions, stats: &mut UnrollStats) {
    let mut out = Vec::with_capacity(block.stmts.len());
    for stmt in std::mem::take(&mut block.stmts) {
        match stmt {
            HirStmt::For {
                init,
                cond,
                step,
                mut body,
                unroll,
            } => {
                unroll_block(&mut body, opts, stats);
                let want = if opts.force_full {
                    Some(0)
                } else {
                    unroll.or(opts.factor_override)
                };
                if let Some(factor) = want {
                    match recognize(&init, &cond, &step, &body) {
                        Ok(canon) => {
                            emit_unrolled(&canon, &body, factor, &step, &cond, &init, &mut out);
                            if factor == 0 || factor as usize >= canon.iterations.len().max(1) {
                                stats.full += 1;
                            } else {
                                stats.partial += 1;
                            }
                            continue;
                        }
                        Err(e) => stats.skipped.push(e.to_string()),
                    }
                }
                out.push(HirStmt::For {
                    init,
                    cond,
                    step,
                    body,
                    unroll: None,
                });
            }
            HirStmt::While {
                cond,
                mut body,
                unroll,
            } => {
                unroll_block(&mut body, opts, stats);
                if opts.force_full || unroll.is_some() {
                    stats
                        .skipped
                        .push("while loops are not canonical counted loops".to_string());
                }
                out.push(HirStmt::While {
                    cond,
                    body,
                    unroll: None,
                });
            }
            HirStmt::DoWhile { mut body, cond } => {
                unroll_block(&mut body, opts, stats);
                if opts.force_full {
                    stats
                        .skipped
                        .push("do-while loops are not canonical counted loops".to_string());
                }
                out.push(HirStmt::DoWhile { body, cond });
            }
            mut other => {
                for b in other.blocks_mut() {
                    unroll_block(b, opts, stats);
                }
                out.push(other);
            }
        }
    }
    block.stmts = out;
}

/// Emits the unrolled form. `factor == 0` means full.
fn emit_unrolled(
    canon: &CanonicalLoop,
    body: &HirBlock,
    factor: u32,
    step: &HirBlock,
    cond: &HirExpr,
    init: &HirBlock,
    out: &mut Vec<HirStmt>,
) {
    let var_ty = init
        .stmts
        .first()
        .and_then(|s| match s {
            HirStmt::Assign { value, .. } => Some(value.ty.clone()),
            _ => None,
        })
        .unwrap_or(Type::int());

    if factor == 0 || factor as usize >= canon.iterations.len().max(1) {
        // Full unroll: one copy per iteration with the variable folded in.
        for &iv in &canon.iterations {
            let copy = subst_local_in_block(body, canon.var, &HirExpr::konst(iv, var_ty.clone()));
            out.push(HirStmt::Block(copy));
        }
        // Post-loop value for code that reads the induction variable later.
        out.push(HirStmt::Assign {
            place: HirPlace::Local(canon.var),
            value: HirExpr::konst(post_loop_value(canon), var_ty),
            span: Span::dummy(),
        });
        return;
    }

    // Partial unroll by `factor`: a main loop running whole groups plus
    // constant-folded remainder copies.
    let trips = canon.iterations.len();
    let factor = factor as usize;
    let main_trips = (trips / factor) * factor;
    out.extend(init.stmts.iter().cloned());
    if main_trips > 0 {
        let mut unrolled_body = Vec::new();
        for _ in 0..factor {
            unrolled_body.push(HirStmt::Block(body.clone()));
            unrolled_body.extend(step.stmts.iter().cloned());
        }
        let stop_value = canon.iterations.get(main_trips).copied();
        let main_cond = match stop_value {
            // No remainder: the original condition is exact.
            None => cond.clone(),
            // Stop the main loop at the first leftover iteration value.
            Some(stop) => HirExpr {
                kind: HirExprKind::Binary(
                    BinOp::Ne,
                    Box::new(HirExpr {
                        kind: HirExprKind::Load(Box::new(HirPlace::Local(canon.var))),
                        ty: var_ty.clone(),
                    }),
                    Box::new(HirExpr::konst(stop, var_ty.clone())),
                ),
                ty: Type::Bool,
            },
        };
        out.push(HirStmt::While {
            cond: main_cond,
            body: HirBlock {
                stmts: unrolled_body,
            },
            unroll: None,
        });
    }
    for &iv in &canon.iterations[main_trips..] {
        let copy = subst_local_in_block(body, canon.var, &HirExpr::konst(iv, var_ty.clone()));
        out.push(HirStmt::Block(copy));
    }
    if main_trips < trips {
        out.push(HirStmt::Assign {
            place: HirPlace::Local(canon.var),
            value: HirExpr::konst(post_loop_value(canon), var_ty),
            span: Span::dummy(),
        });
    }
}

/// The induction variable's value after the loop exits.
fn post_loop_value(canon: &CanonicalLoop) -> i64 {
    match canon.iterations.len() {
        0 => canon.start,
        1 => {
            // Only one value executed; the exit value is one delta past it,
            // but the delta is unrecoverable from a single sample. The only
            // consistent choice with start == iterations[0] is +1 of the
            // recurrence; use the bound crossing of a unit step.
            canon.iterations[0] + 1
        }
        n => {
            let d = canon.iterations[1] - canon.iterations[0];
            canon.iterations[n - 1] + d
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chls_frontend::compile_to_hir;
    use chls_ir::exec::{execute, ArgValue, ExecOptions};

    #[test]
    fn break_or_continue_in_a_nested_loop_is_opaque() {
        let b = |s: HirStmt| HirBlock { stmts: vec![s] };
        let t = || HirExpr::konst(1, Type::Bool);
        for jump in [HirStmt::Break, HirStmt::Continue] {
            let nested = [
                HirStmt::While {
                    cond: t(),
                    body: b(jump.clone()),
                    unroll: None,
                },
                HirStmt::DoWhile {
                    body: b(jump.clone()),
                    cond: t(),
                },
                HirStmt::For {
                    init: HirBlock::default(),
                    cond: t(),
                    step: HirBlock::default(),
                    body: b(jump.clone()),
                    unroll: None,
                },
            ];
            for s in nested {
                assert!(!has_break_or_continue(&b(s.clone())), "{s:?}");
            }
            let enclosing = [
                HirStmt::If {
                    cond: t(),
                    then: HirBlock::default(),
                    els: b(jump.clone()),
                },
                HirStmt::Par(vec![HirBlock::default(), b(jump.clone())]),
                HirStmt::Block(b(jump.clone())),
            ];
            for s in enclosing {
                assert!(has_break_or_continue(&b(s.clone())), "{s:?}");
            }
        }
    }

    fn unrolled_result(
        src: &str,
        entry: &str,
        args: &[ArgValue],
        force_full: bool,
    ) -> (Option<i64>, UnrollStats, usize) {
        let prog = compile_to_hir(src).expect("frontend ok");
        let (id, _) = prog.func_by_name(entry).expect("entry exists");
        let inlined = crate::inline::inline_program(&prog, id).expect("inline ok");
        let (func, stats) = unroll_function(
            &inlined.funcs[0],
            UnrollOptions {
                force_full,
                factor_override: None,
            },
        );
        let mut prog2 = inlined.clone();
        prog2.funcs[0] = func;
        let f = chls_ir::lower_function(&prog2, FuncId(0)).expect("lowering ok");
        chls_ir::verify::verify(&f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        let r = execute(&f, args, &ExecOptions::default()).expect("executes");
        let loops = chls_ir::loops::LoopForest::compute(&f).loops.len();
        (r.ret, stats, loops)
    }

    #[test]
    fn full_unroll_removes_loop() {
        let (ret, stats, loops) = unrolled_result(
            "int f() { int s = 0; for (int i = 0; i < 8; i++) s += i * i; return s; }",
            "f",
            &[],
            true,
        );
        assert_eq!(ret, Some(140));
        assert_eq!(stats.full, 1);
        assert_eq!(loops, 0);
    }

    #[test]
    fn pragma_partial_unroll_preserves_semantics() {
        let (ret, stats, loops) = unrolled_result(
            "int f(int a[16]) {
                int s = 0;
                #pragma unroll 4
                for (int i = 0; i < 16; i++) s += a[i];
                return s;
            }",
            "f",
            &[ArgValue::Array((1..=16).collect())],
            false,
        );
        assert_eq!(ret, Some(136));
        assert_eq!(stats.partial, 1);
        assert_eq!(loops, 1);
    }

    #[test]
    fn partial_unroll_with_remainder() {
        let (ret, stats, _) = unrolled_result(
            "int f(int a[10]) {
                int s = 0;
                #pragma unroll 4
                for (int i = 0; i < 10; i++) s += a[i];
                return s;
            }",
            "f",
            &[ArgValue::Array((1..=10).collect())],
            false,
        );
        assert_eq!(ret, Some(55));
        assert_eq!(stats.partial, 1);
    }

    #[test]
    fn nested_loops_fully_unroll() {
        let (ret, _, loops) = unrolled_result(
            "int f() {
                int s = 0;
                for (int i = 0; i < 3; i++)
                    for (int j = 0; j < 3; j++)
                        s += i * 3 + j;
                return s;
            }",
            "f",
            &[],
            true,
        );
        assert_eq!(ret, Some(36));
        assert_eq!(loops, 0);
    }

    #[test]
    fn downward_counting_loop() {
        let (ret, _, loops) = unrolled_result(
            "int f() { int s = 0; for (int i = 10; i > 0; i -= 2) s += i; return s; }",
            "f",
            &[],
            true,
        );
        assert_eq!(ret, Some(30));
        assert_eq!(loops, 0);
    }

    #[test]
    fn non_canonical_loop_skipped() {
        let (ret, stats, loops) = unrolled_result(
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }",
            "f",
            &[ArgValue::Scalar(5)],
            true,
        );
        assert_eq!(ret, Some(10));
        assert!(!stats.skipped.is_empty());
        assert_eq!(loops, 1);
    }

    #[test]
    fn loop_with_break_skipped() {
        let (ret, stats, _) = unrolled_result(
            "int f() {
                int s = 0;
                for (int i = 0; i < 100; i++) { if (i == 5) break; s += i; }
                return s;
            }",
            "f",
            &[],
            true,
        );
        assert_eq!(ret, Some(10));
        assert!(stats
            .skipped
            .iter()
            .any(|m| m.contains("induction") || m.contains("break")));
    }

    #[test]
    fn induction_variable_readable_after_loop() {
        let (ret, _, _) = unrolled_result(
            "int f() { int i; int s = 0; for (i = 0; i < 4; i++) s += i; return i * 100 + s; }",
            "f",
            &[],
            true,
        );
        assert_eq!(ret, Some(406));
    }

    #[test]
    fn zero_trip_loop() {
        let (ret, _, loops) = unrolled_result(
            "int f() { int s = 7; for (int i = 5; i < 5; i++) s = 0; return s; }",
            "f",
            &[],
            true,
        );
        assert_eq!(ret, Some(7));
        assert_eq!(loops, 0);
    }

    #[test]
    fn memory_loops_unroll_correctly() {
        let (ret, _, loops) = unrolled_result(
            "int f(int a[4], int b[4]) {
                int s = 0;
                for (int i = 0; i < 4; i++) s += a[i] * b[i];
                return s;
            }",
            "f",
            &[
                ArgValue::Array(vec![1, 2, 3, 4]),
                ArgValue::Array(vec![5, 6, 7, 8]),
            ],
            true,
        );
        assert_eq!(ret, Some(70));
        assert_eq!(loops, 0);
    }

    #[test]
    fn recognize_rejects_variable_bound() {
        let prog = compile_to_hir(
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }",
        )
        .unwrap();
        let (_, func) = prog.func_by_name("f").unwrap();
        let HirStmt::For {
            init,
            cond,
            step,
            body,
            ..
        } = func
            .body
            .stmts
            .iter()
            .find(|s| matches!(s, HirStmt::For { .. }))
            .unwrap()
        else {
            unreachable!()
        };
        assert_eq!(
            recognize(init, cond, step, body),
            Err(UnrollError::NotCanonical)
        );
    }
}

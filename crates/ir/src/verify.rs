//! IR well-formedness verifier.
//!
//! Checks structural invariants (valid indices, one home block per
//! instruction, terminated blocks), SSA invariants (definitions dominate
//! reads, including branch conditions and return values), and type
//! invariants (operand widths agree where required).

use crate::dom::DomTree;
use crate::ir::*;
use crate::liveness::for_each_read;
use std::fmt;

/// A verifier failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Description of the violated invariant.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ir verification failed: {}", self.message)
    }
}

impl std::error::Error for VerifyError {}

fn fail(message: impl Into<String>) -> Result<(), VerifyError> {
    Err(VerifyError {
        message: message.into(),
    })
}

/// Verifies `f`, returning the first violated invariant.
///
/// # Errors
///
/// Returns a [`VerifyError`] describing the first problem found.
pub fn verify(f: &Function) -> Result<(), VerifyError> {
    let nv = f.insts.len();
    let nb = f.blocks.len();

    // Every instruction appears exactly once, in its recorded block.
    let mut seen = vec![false; nv];
    for (bi, block) in f.blocks.iter().enumerate() {
        for &v in &block.insts {
            if v.0 as usize >= nv {
                return fail(format!("{v} out of range"));
            }
            if seen[v.0 as usize] {
                return fail(format!("{v} appears in more than one block"));
            }
            seen[v.0 as usize] = true;
            if f.inst(v).block.0 as usize != bi {
                return fail(format!(
                    "{v} recorded in {} but listed in b{bi}",
                    f.inst(v).block
                ));
            }
        }
        // Phis must be a prefix of the block.
        let mut in_prefix = true;
        for &v in &block.insts {
            let is_phi = matches!(f.inst(v).kind, InstKind::Phi(_));
            if is_phi && !in_prefix {
                return fail(format!("phi {v} after non-phi in b{bi}"));
            }
            if !is_phi {
                in_prefix = false;
            }
        }
        // Terminator targets in range; no Unreachable in finished IR.
        match &block.term {
            Term::Unreachable => return fail(format!("b{bi} has no terminator")),
            Term::Br { cond, then, els } => {
                if then.0 as usize >= nb || els.0 as usize >= nb {
                    return fail(format!("b{bi} branch target out of range"));
                }
                if f.inst(*cond).ty.width != 1 {
                    return fail(format!("b{bi} branch condition {cond} is not u1"));
                }
            }
            Term::Jump(t) => {
                if t.0 as usize >= nb {
                    return fail(format!("b{bi} jump target out of range"));
                }
            }
            Term::Ret(Some(v)) => {
                let Some(rt) = f.ret_ty else {
                    return fail("ret with value in void function".to_string());
                };
                if f.inst(*v).ty != rt {
                    return fail(format!(
                        "return value {v} has type {} but function returns {rt}",
                        f.inst(*v).ty
                    ));
                }
            }
            Term::Ret(None) => {
                if f.ret_ty.is_some() {
                    return fail("bare ret in non-void function".to_string());
                }
            }
        }
    }

    // Operand and type checks.
    let preds = f.predecessors();
    for (i, inst) in f.insts.iter().enumerate() {
        let v = Value(i as u32);
        if !seen[i] {
            // Orphan instructions are tolerated only if truly unused.
            let mut used = false;
            for other in &f.insts {
                other.kind.for_each_operand(|o| used |= o == v);
            }
            if used {
                return fail(format!("{v} is used but not placed in any block"));
            }
            continue;
        }
        let mut bad = None;
        inst.kind.for_each_operand(|o| {
            if o.0 as usize >= nv {
                bad = Some(format!("{v} references out-of-range {o}"));
            } else if !f.inst(o).kind.has_result() {
                bad = Some(format!("{v} uses non-value {o}"));
            }
        });
        if let Some(msg) = bad {
            return fail(msg);
        }
        match &inst.kind {
            InstKind::Bin(op, a, b) => {
                let (ta, tb) = (f.inst(*a).ty, f.inst(*b).ty);
                if op.is_comparison() {
                    if ta != tb {
                        return fail(format!(
                            "{v}: comparison operand types differ ({ta} vs {tb})"
                        ));
                    }
                    if inst.ty.width != 1 {
                        return fail(format!("{v}: comparison result must be u1"));
                    }
                } else if matches!(op, BinKind::Shl | BinKind::Shr) {
                    if ta != inst.ty {
                        return fail(format!("{v}: shift lhs type {ta} != result {}", inst.ty));
                    }
                } else if ta != inst.ty || tb != inst.ty {
                    return fail(format!(
                        "{v}: operand types ({ta}, {tb}) do not match result {}",
                        inst.ty
                    ));
                }
            }
            InstKind::Un(_, a) => {
                if f.inst(*a).ty != inst.ty {
                    return fail(format!("{v}: unary operand type mismatch"));
                }
            }
            InstKind::Select { cond, t, f: fv } => {
                if f.inst(*cond).ty.width != 1 {
                    return fail(format!("{v}: select condition is not u1"));
                }
                if f.inst(*t).ty != inst.ty || f.inst(*fv).ty != inst.ty {
                    return fail(format!("{v}: select arm type mismatch"));
                }
            }
            InstKind::Cast { from, val } => {
                if f.inst(*val).ty != *from {
                    return fail(format!("{v}: cast `from` does not match operand type"));
                }
            }
            InstKind::Load { mem, .. } => {
                if mem.0 as usize >= f.mems.len() {
                    return fail(format!("{v}: memory out of range"));
                }
                if f.mem(*mem).elem != inst.ty {
                    return fail(format!("{v}: load type != memory element type"));
                }
            }
            InstKind::Store { mem, value, .. } => {
                if mem.0 as usize >= f.mems.len() {
                    return fail(format!("{v}: memory out of range"));
                }
                if f.inst(*value).ty != f.mem(*mem).elem {
                    return fail(format!("{v}: store value type != memory element type"));
                }
            }
            InstKind::Phi(args) => {
                let mut expected: Vec<BlockId> = preds[inst.block.0 as usize].clone();
                expected.sort_unstable();
                expected.dedup();
                let mut got: Vec<BlockId> = args.iter().map(|(b, _)| *b).collect();
                got.sort_unstable();
                got.dedup();
                if expected != got {
                    return fail(format!(
                        "{v}: phi predecessors {got:?} do not match CFG {expected:?}"
                    ));
                }
                for (_, a) in args {
                    if f.inst(*a).ty != inst.ty {
                        return fail(format!("{v}: phi argument type mismatch"));
                    }
                }
            }
            InstKind::Param(_) | InstKind::Const(_) => {}
        }
    }

    // Every read, reachable or not, is of a placed value.
    let mut position: Vec<Option<(BlockId, usize)>> = vec![None; nv];
    for (bi, block) in f.blocks.iter().enumerate() {
        for (pos, &v) in block.insts.iter().enumerate() {
            position[v.0 as usize] = Some((BlockId(bi as u32), pos));
        }
    }
    let mut unplaced = None;
    for_each_read(f, |b, v| {
        if unplaced.is_none() && position.get(v.0 as usize).copied().flatten().is_none() {
            unplaced = Some(format!("{b} reads unplaced {v}"));
        }
    });
    if let Some(msg) = unplaced {
        return fail(msg);
    }
    let placed = |v: Value| position[v.0 as usize].expect("every read is placed");

    // Dominance: defs dominate uses.
    let dt = DomTree::compute(f);
    for (bi, block) in f.blocks.iter().enumerate() {
        let b = BlockId(bi as u32);
        if dt.idom[bi].is_none() && b != f.entry {
            continue; // unreachable block: skip dominance checks
        }
        for (pos, &v) in block.insts.iter().enumerate() {
            let inst = f.inst(v);
            if let InstKind::Phi(args) = &inst.kind {
                for (pred, a) in args {
                    let (db, _) = placed(*a);
                    if !dt.dominates(db, *pred) {
                        return fail(format!(
                            "{v}: phi arg {a} from {pred} not dominated by its def in {db}"
                        ));
                    }
                }
                continue;
            }
            let mut bad = None;
            inst.kind.for_each_operand(|o| {
                let (db, dpos) = placed(o);
                let ok = if db == b {
                    dpos < pos
                } else {
                    dt.dominates(db, b)
                };
                if !ok && bad.is_none() {
                    bad = Some(format!("{v}: use of {o} not dominated by its definition"));
                }
            });
            if let Some(msg) = bad {
                return fail(msg);
            }
        }
        let (what, v) = match &block.term {
            Term::Br { cond, .. } => ("branch condition", *cond),
            Term::Ret(Some(v)) => ("return value", *v),
            _ => continue,
        };
        let (db, _) = placed(v);
        if !dt.dominates(db, b) {
            return fail(format!("{what} {v} does not dominate b{bi}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_function;
    use chls_frontend::compile_to_hir;
    use chls_frontend::IntType;

    fn verify_src(src: &str, name: &str) {
        let hir = compile_to_hir(src).expect("frontend ok");
        let (id, _) = hir.func_by_name(name).expect("function exists");
        let f = lower_function(&hir, id).expect("lowering ok");
        if let Err(e) = verify(&f) {
            panic!("{e}\n{f}");
        }
    }

    #[test]
    fn lowered_functions_verify() {
        verify_src("int f(int a, int b) { return a + b; }", "f");
        verify_src(
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }",
            "f",
        );
        verify_src(
            "int gcd(int a, int b) { while (b != 0) { int t = b; b = a % b; a = t; } return a; }",
            "gcd",
        );
        verify_src(
            "int f(int a[8], int n) {
                int best = a[0];
                for (int i = 1; i < n; i++) if (a[i] > best) best = a[i];
                return best;
            }",
            "f",
        );
        verify_src(
            "int f(int x) {
                int r = 0;
                if (x > 10) { if (x > 100) r = 3; else r = 2; } else r = 1;
                return r;
            }",
            "f",
        );
    }

    #[test]
    fn missing_terminator_caught() {
        let f = Function::new("bad");
        let err = verify(&f).unwrap_err();
        assert!(err.message.contains("no terminator"));
    }

    #[test]
    fn type_mismatch_caught() {
        let mut f = Function::new("bad");
        let b = f.entry;
        let a = f.add_inst(b, InstKind::Const(1), IntType::new(8, false));
        let c = f.add_inst(b, InstKind::Const(1), IntType::new(16, false));
        let s = f.add_inst(
            b,
            InstKind::Bin(BinKind::Add, a, c),
            IntType::new(16, false),
        );
        f.ret_ty = Some(IntType::new(16, false));
        f.block_mut(b).term = Term::Ret(Some(s));
        let err = verify(&f).unwrap_err();
        assert!(err.message.contains("do not match"), "{err}");
    }

    #[test]
    fn branch_on_wide_value_caught() {
        let mut f = Function::new("bad");
        let b0 = f.entry;
        let b1 = f.add_block();
        let c = f.add_inst(b0, InstKind::Const(1), IntType::new(32, true));
        f.block_mut(b0).term = Term::Br {
            cond: c,
            then: b1,
            els: b1,
        };
        f.block_mut(b1).term = Term::Ret(None);
        let err = verify(&f).unwrap_err();
        assert!(err.message.contains("not u1"), "{err}");
    }

    #[test]
    fn use_before_def_caught() {
        let mut f = Function::new("bad");
        let b = f.entry;
        // v0 uses v1 which is defined after it.
        let ty = IntType::new(32, true);
        let v0 = Value(0);
        let _ = v0;
        let use_first = f.add_inst(b, InstKind::Un(UnKind::Neg, Value(1)), ty);
        let _def_later = f.add_inst(b, InstKind::Const(3), ty);
        f.ret_ty = Some(ty);
        f.block_mut(b).term = Term::Ret(Some(use_first));
        let err = verify(&f).unwrap_err();
        assert!(err.message.contains("dominated"), "{err}");
    }

    /// `f` with a constant defined in the arena but listed in no block.
    fn with_orphan(ty: IntType) -> (Function, Value) {
        let mut f = Function::new("bad");
        let b = f.entry;
        let v = f.add_inst(b, InstKind::Const(1), ty);
        f.block_mut(b).insts.clear();
        (f, v)
    }

    #[test]
    fn unplaced_return_value_caught() {
        let ty = IntType::new(32, true);
        let (mut f, v) = with_orphan(ty);
        f.ret_ty = Some(ty);
        f.block_mut(f.entry).term = Term::Ret(Some(v));
        let err = verify(&f).unwrap_err();
        assert!(err.message.contains("unplaced"), "{err}");
    }

    #[test]
    fn return_value_that_does_not_dominate_caught() {
        // b0: br c b1 b2 / b1: x = 7; ret x / b2: ret x
        let ty = IntType::new(32, true);
        let mut f = Function::new("bad");
        let b0 = f.entry;
        let (b1, b2) = (f.add_block(), f.add_block());
        let c = f.add_inst(b0, InstKind::Param(0), IntType::u1());
        let x = f.add_inst(b1, InstKind::Const(7), ty);
        f.block_mut(b0).term = Term::Br {
            cond: c,
            then: b1,
            els: b2,
        };
        f.ret_ty = Some(ty);
        f.block_mut(b1).term = Term::Ret(Some(x));
        f.block_mut(b2).term = Term::Ret(Some(x));
        let err = verify(&f).unwrap_err();
        assert!(err.message.contains("return value"), "{err}");
        assert!(err.message.contains("does not dominate b2"), "{err}");
    }

    #[test]
    fn unplaced_branch_condition_caught() {
        let (mut f, c) = with_orphan(IntType::u1());
        let b1 = f.add_block();
        f.block_mut(f.entry).term = Term::Br {
            cond: c,
            then: b1,
            els: b1,
        };
        f.block_mut(b1).term = Term::Ret(None);
        let err = verify(&f).unwrap_err();
        assert!(err.message.contains("unplaced"), "{err}");
    }
}

//! HIR rewriting helpers shared by the inliner, unroller, and pointer
//! lowering: local-id remapping and expression substitution.

use chls_frontend::hir::*;

/// How a callee local is bound when splicing its body into a caller.
#[derive(Debug, Clone)]
pub enum LocalBinding {
    /// Renamed to a fresh caller local.
    Fresh(LocalId),
    /// Aliased to an existing caller place (whole-array arguments).
    AliasLocal(LocalId),
    /// Aliased to a global ROM.
    AliasGlobal(GlobalId),
}

/// Rewrites every [`LocalId`] in a block according to `map`, and every
/// `Load`/`Index` root accordingly.
pub fn remap_block(block: &HirBlock, map: &[LocalBinding]) -> HirBlock {
    HirBlock {
        stmts: block.stmts.iter().map(|s| remap_stmt(s, map)).collect(),
    }
}

fn remap_local(id: LocalId, map: &[LocalBinding]) -> LocalId {
    match &map[id.0 as usize] {
        LocalBinding::Fresh(n) | LocalBinding::AliasLocal(n) => *n,
        LocalBinding::AliasGlobal(_) => {
            unreachable!("global alias used in a local-only position")
        }
    }
}

/// Remaps a place, resolving array aliases (which may retarget a local to
/// a global ROM).
pub fn remap_place(place: &HirPlace, map: &[LocalBinding]) -> HirPlace {
    match place {
        HirPlace::Local(id) => match &map[id.0 as usize] {
            LocalBinding::Fresh(n) | LocalBinding::AliasLocal(n) => HirPlace::Local(*n),
            LocalBinding::AliasGlobal(g) => HirPlace::Global(*g),
        },
        HirPlace::Global(g) => HirPlace::Global(*g),
        HirPlace::Index { base, index } => HirPlace::Index {
            base: Box::new(remap_place(base, map)),
            index: Box::new(remap_expr(index, map)),
        },
        HirPlace::Deref(e) => HirPlace::Deref(Box::new(remap_expr(e, map))),
    }
}

/// Remaps an expression.
pub fn remap_expr(e: &HirExpr, map: &[LocalBinding]) -> HirExpr {
    let kind = match &e.kind {
        HirExprKind::Const(v) => HirExprKind::Const(*v),
        HirExprKind::Load(p) => HirExprKind::Load(Box::new(remap_place(p, map))),
        HirExprKind::Unary(op, a) => HirExprKind::Unary(*op, Box::new(remap_expr(a, map))),
        HirExprKind::Binary(op, a, b) => HirExprKind::Binary(
            *op,
            Box::new(remap_expr(a, map)),
            Box::new(remap_expr(b, map)),
        ),
        HirExprKind::Select(c, t, f) => HirExprKind::Select(
            Box::new(remap_expr(c, map)),
            Box::new(remap_expr(t, map)),
            Box::new(remap_expr(f, map)),
        ),
        HirExprKind::Cast(a) => HirExprKind::Cast(Box::new(remap_expr(a, map))),
        HirExprKind::AddrOf(p) => HirExprKind::AddrOf(Box::new(remap_place(p, map))),
    };
    HirExpr {
        kind,
        ty: e.ty.clone(),
    }
}

fn remap_stmt(stmt: &HirStmt, map: &[LocalBinding]) -> HirStmt {
    match stmt {
        HirStmt::Assign { place, value, span } => HirStmt::Assign {
            place: remap_place(place, map),
            value: remap_expr(value, map),
            span: *span,
        },
        HirStmt::Call {
            dst,
            func,
            args,
            span,
        } => HirStmt::Call {
            dst: dst.as_ref().map(|p| remap_place(p, map)),
            func: *func,
            args: args
                .iter()
                .map(|a| match a {
                    HirArg::Value(e) => HirArg::Value(remap_expr(e, map)),
                    HirArg::Array(p) => HirArg::Array(remap_place(p, map)),
                })
                .collect(),
            span: *span,
        },
        HirStmt::Recv { dst, chan, span } => HirStmt::Recv {
            dst: remap_place(dst, map),
            chan: remap_local(*chan, map),
            span: *span,
        },
        HirStmt::Send { chan, value, span } => HirStmt::Send {
            chan: remap_local(*chan, map),
            value: remap_expr(value, map),
            span: *span,
        },
        HirStmt::If { cond, then, els } => HirStmt::If {
            cond: remap_expr(cond, map),
            then: remap_block(then, map),
            els: remap_block(els, map),
        },
        HirStmt::While { cond, body, unroll } => HirStmt::While {
            cond: remap_expr(cond, map),
            body: remap_block(body, map),
            unroll: *unroll,
        },
        HirStmt::DoWhile { body, cond } => HirStmt::DoWhile {
            body: remap_block(body, map),
            cond: remap_expr(cond, map),
        },
        HirStmt::For {
            init,
            cond,
            step,
            body,
            unroll,
        } => HirStmt::For {
            init: remap_block(init, map),
            cond: remap_expr(cond, map),
            step: remap_block(step, map),
            body: remap_block(body, map),
            unroll: *unroll,
        },
        HirStmt::Return(v) => HirStmt::Return(v.as_ref().map(|e| remap_expr(e, map))),
        HirStmt::Break => HirStmt::Break,
        HirStmt::Continue => HirStmt::Continue,
        HirStmt::Block(b) => HirStmt::Block(remap_block(b, map)),
        HirStmt::Par(branches) => {
            HirStmt::Par(branches.iter().map(|b| remap_block(b, map)).collect())
        }
        HirStmt::Delay => HirStmt::Delay,
        HirStmt::Constraint { cycles, body } => HirStmt::Constraint {
            cycles: *cycles,
            body: remap_block(body, map),
        },
    }
}

/// Substitutes every `Load(Local(target))` in an expression with `repl`.
pub fn subst_local_in_expr(e: &HirExpr, target: LocalId, repl: &HirExpr) -> HirExpr {
    match &e.kind {
        HirExprKind::Load(p) => {
            if let HirPlace::Local(id) = &**p {
                if *id == target {
                    return repl.clone();
                }
            }
            HirExpr {
                kind: HirExprKind::Load(Box::new(subst_local_in_place(p, target, repl))),
                ty: e.ty.clone(),
            }
        }
        HirExprKind::Const(_) => e.clone(),
        HirExprKind::Unary(op, a) => HirExpr {
            kind: HirExprKind::Unary(*op, Box::new(subst_local_in_expr(a, target, repl))),
            ty: e.ty.clone(),
        },
        HirExprKind::Binary(op, a, b) => HirExpr {
            kind: HirExprKind::Binary(
                *op,
                Box::new(subst_local_in_expr(a, target, repl)),
                Box::new(subst_local_in_expr(b, target, repl)),
            ),
            ty: e.ty.clone(),
        },
        HirExprKind::Select(c, t, f) => HirExpr {
            kind: HirExprKind::Select(
                Box::new(subst_local_in_expr(c, target, repl)),
                Box::new(subst_local_in_expr(t, target, repl)),
                Box::new(subst_local_in_expr(f, target, repl)),
            ),
            ty: e.ty.clone(),
        },
        HirExprKind::Cast(a) => HirExpr {
            kind: HirExprKind::Cast(Box::new(subst_local_in_expr(a, target, repl))),
            ty: e.ty.clone(),
        },
        HirExprKind::AddrOf(p) => HirExpr {
            kind: HirExprKind::AddrOf(Box::new(subst_local_in_place(p, target, repl))),
            ty: e.ty.clone(),
        },
    }
}

fn subst_local_in_place(p: &HirPlace, target: LocalId, repl: &HirExpr) -> HirPlace {
    match p {
        HirPlace::Local(_) | HirPlace::Global(_) => p.clone(),
        HirPlace::Index { base, index } => HirPlace::Index {
            base: Box::new(subst_local_in_place(base, target, repl)),
            index: Box::new(subst_local_in_expr(index, target, repl)),
        },
        HirPlace::Deref(e) => HirPlace::Deref(Box::new(subst_local_in_expr(e, target, repl))),
    }
}

/// Substitutes `Load(Local(target))` throughout a block (expressions and
/// places only; assignments *to* the target are left intact — callers
/// ensure the target is not written inside).
pub fn subst_local_in_block(block: &HirBlock, target: LocalId, repl: &HirExpr) -> HirBlock {
    HirBlock {
        stmts: block
            .stmts
            .iter()
            .map(|s| subst_local_in_stmt(s, target, repl))
            .collect(),
    }
}

fn subst_local_in_stmt(stmt: &HirStmt, target: LocalId, repl: &HirExpr) -> HirStmt {
    match stmt {
        HirStmt::Assign { place, value, span } => HirStmt::Assign {
            place: subst_local_in_place(place, target, repl),
            value: subst_local_in_expr(value, target, repl),
            span: *span,
        },
        HirStmt::Call {
            dst,
            func,
            args,
            span,
        } => HirStmt::Call {
            dst: dst.as_ref().map(|p| subst_local_in_place(p, target, repl)),
            func: *func,
            args: args
                .iter()
                .map(|a| match a {
                    HirArg::Value(e) => HirArg::Value(subst_local_in_expr(e, target, repl)),
                    HirArg::Array(p) => HirArg::Array(subst_local_in_place(p, target, repl)),
                })
                .collect(),
            span: *span,
        },
        HirStmt::Recv { dst, chan, span } => HirStmt::Recv {
            dst: subst_local_in_place(dst, target, repl),
            chan: *chan,
            span: *span,
        },
        HirStmt::Send { chan, value, span } => HirStmt::Send {
            chan: *chan,
            value: subst_local_in_expr(value, target, repl),
            span: *span,
        },
        HirStmt::If { cond, then, els } => HirStmt::If {
            cond: subst_local_in_expr(cond, target, repl),
            then: subst_local_in_block(then, target, repl),
            els: subst_local_in_block(els, target, repl),
        },
        HirStmt::While { cond, body, unroll } => HirStmt::While {
            cond: subst_local_in_expr(cond, target, repl),
            body: subst_local_in_block(body, target, repl),
            unroll: *unroll,
        },
        HirStmt::DoWhile { body, cond } => HirStmt::DoWhile {
            body: subst_local_in_block(body, target, repl),
            cond: subst_local_in_expr(cond, target, repl),
        },
        HirStmt::For {
            init,
            cond,
            step,
            body,
            unroll,
        } => HirStmt::For {
            init: subst_local_in_block(init, target, repl),
            cond: subst_local_in_expr(cond, target, repl),
            step: subst_local_in_block(step, target, repl),
            body: subst_local_in_block(body, target, repl),
            unroll: *unroll,
        },
        HirStmt::Return(v) => {
            HirStmt::Return(v.as_ref().map(|e| subst_local_in_expr(e, target, repl)))
        }
        HirStmt::Break => HirStmt::Break,
        HirStmt::Continue => HirStmt::Continue,
        HirStmt::Block(b) => HirStmt::Block(subst_local_in_block(b, target, repl)),
        HirStmt::Par(branches) => HirStmt::Par(
            branches
                .iter()
                .map(|b| subst_local_in_block(b, target, repl))
                .collect(),
        ),
        HirStmt::Delay => HirStmt::Delay,
        HirStmt::Constraint { cycles, body } => HirStmt::Constraint {
            cycles: *cycles,
            body: subst_local_in_block(body, target, repl),
        },
    }
}

/// True when any statement in the block assigns to `target` (directly, as
/// a scalar).
pub fn block_writes_local(block: &HirBlock, target: LocalId) -> bool {
    let is_target = |p: &HirPlace| matches!(p, HirPlace::Local(id) if *id == target);
    block.any_stmt(&mut |s| match s {
        HirStmt::Assign { place, .. } => is_target(place),
        HirStmt::Call { dst: Some(d), .. } => is_target(d),
        HirStmt::Recv { dst, .. } => is_target(dst),
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chls_frontend::compile_to_hir;
    use chls_frontend::Type;

    #[test]
    fn subst_replaces_loads() {
        let hir = compile_to_hir("int f(int a) { return a + a; }").unwrap();
        let (_, f) = hir.func_by_name("f").unwrap();
        let body = subst_local_in_block(&f.body, LocalId(0), &HirExpr::konst(5, Type::int()));
        let HirStmt::Return(Some(e)) = &body.stmts[0] else {
            panic!()
        };
        // Both operands are now constants.
        let HirExprKind::Binary(_, a, b) = &e.kind else {
            panic!()
        };
        assert_eq!(a.as_const(), Some(5));
        assert_eq!(b.as_const(), Some(5));
    }

    #[test]
    fn subst_reaches_array_indices() {
        let hir = compile_to_hir("int f(int a[8], int i) { return a[i]; }").unwrap();
        let (_, f) = hir.func_by_name("f").unwrap();
        let body = subst_local_in_block(&f.body, LocalId(1), &HirExpr::konst(3, Type::int()));
        let HirStmt::Return(Some(e)) = &body.stmts[0] else {
            panic!()
        };
        let HirExprKind::Load(p) = &e.kind else { panic!() };
        let HirPlace::Index { index, .. } = &**p else {
            panic!()
        };
        assert_eq!(index.as_const(), Some(3));
    }

    #[test]
    fn writes_detection() {
        let hir = compile_to_hir(
            "int f(int a) { int x = 0; if (a > 0) { x = 1; } return x; }",
        )
        .unwrap();
        let (_, f) = hir.func_by_name("f").unwrap();
        let x = LocalId(1);
        assert!(block_writes_local(&f.body, x));
        assert!(!block_writes_local(&f.body, LocalId(0)));
    }

    #[test]
    fn remap_fresh_locals() {
        let hir = compile_to_hir("int f(int a) { return a + 1; }").unwrap();
        let (_, f) = hir.func_by_name("f").unwrap();
        let map = vec![LocalBinding::Fresh(LocalId(7))];
        let body = remap_block(&f.body, &map);
        let HirStmt::Return(Some(e)) = &body.stmts[0] else {
            panic!()
        };
        let mut found = false;
        e.for_each_place(&mut |p| {
            if let HirPlace::Local(id) = p {
                assert_eq!(*id, LocalId(7));
                found = true;
            }
        });
        assert!(found);
    }

    #[test]
    fn remap_array_to_global() {
        let hir = compile_to_hir("int f(int a[4]) { return a[0]; }").unwrap();
        let (_, f) = hir.func_by_name("f").unwrap();
        let map = vec![LocalBinding::AliasGlobal(GlobalId(2))];
        let body = remap_block(&f.body, &map);
        let HirStmt::Return(Some(e)) = &body.stmts[0] else {
            panic!()
        };
        let HirExprKind::Load(p) = &e.kind else { panic!() };
        let HirPlace::Index { base, .. } = &**p else {
            panic!()
        };
        assert_eq!(**base, HirPlace::Global(GlobalId(2)));
    }
}

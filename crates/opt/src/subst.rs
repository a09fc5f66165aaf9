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
    let mut block = block.clone();
    block.walk_mut(&mut Remap(map));
    block
}

/// Remaps an expression.
pub fn remap_expr(e: &HirExpr, map: &[LocalBinding]) -> HirExpr {
    let mut e = e.clone();
    Remap(map).visit_expr(&mut e);
    e
}

struct Remap<'m>(&'m [LocalBinding]);

impl VisitMut for Remap<'_> {
    /// Resolves array aliases, which may retarget a local to a global ROM.
    fn visit_place(&mut self, place: &mut HirPlace) {
        match place {
            HirPlace::Local(id) => {
                *place = match &self.0[id.0 as usize] {
                    LocalBinding::Fresh(n) | LocalBinding::AliasLocal(n) => HirPlace::Local(*n),
                    LocalBinding::AliasGlobal(g) => HirPlace::Global(*g),
                }
            }
            _ => place.walk_mut(self),
        }
    }

    fn visit_chan(&mut self, chan: &mut LocalId) {
        *chan = match &self.0[chan.0 as usize] {
            LocalBinding::Fresh(n) | LocalBinding::AliasLocal(n) => *n,
            LocalBinding::AliasGlobal(_) => {
                unreachable!("global alias used in a local-only position")
            }
        }
    }
}

/// Substitutes `Load(Local(target))` throughout a block (expressions and
/// places only; assignments *to* the target are left intact — callers
/// ensure the target is not written inside).
pub fn subst_local_in_block(block: &HirBlock, target: LocalId, repl: &HirExpr) -> HirBlock {
    let mut block = block.clone();
    block.walk_mut(&mut SubstLocal { target, repl });
    block
}

struct SubstLocal<'r> {
    target: LocalId,
    repl: &'r HirExpr,
}

impl VisitMut for SubstLocal<'_> {
    fn visit_expr(&mut self, e: &mut HirExpr) {
        match &e.kind {
            HirExprKind::Load(p) if **p == HirPlace::Local(self.target) => *e = self.repl.clone(),
            _ => e.walk_mut(self),
        }
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
        let HirExprKind::Load(p) = &e.kind else {
            panic!()
        };
        let HirPlace::Index { index, .. } = &**p else {
            panic!()
        };
        assert_eq!(index.as_const(), Some(3));
    }

    #[test]
    fn writes_detection() {
        let hir =
            compile_to_hir("int f(int a) { int x = 0; if (a > 0) { x = 1; } return x; }").unwrap();
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
        let HirExprKind::Load(p) = &e.kind else {
            panic!()
        };
        let HirPlace::Index { base, .. } = &**p else {
            panic!()
        };
        assert_eq!(**base, HirPlace::Global(GlobalId(2)));
    }
}

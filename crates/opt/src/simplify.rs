//! IR cleanup: constant folding, algebraic identities, branch folding with
//! unreachable-block elimination, dominator-scoped common-subexpression
//! elimination, and dead-code elimination.
//!
//! [`simplify`] runs everything to a fixpoint and is what every
//! compiler-scheduled backend calls before scheduling.

use chls_ir::dom::DomTree;
use chls_ir::ir::*;
use chls_ir::lower::remove_trivial_phis;
use chls_ir::FastMap;

/// Statistics from a simplification run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimplifyStats {
    /// Instructions folded to constants.
    pub folded: usize,
    /// Instructions removed by CSE.
    pub cse: usize,
    /// Dead instructions removed.
    pub dce: usize,
    /// Branches converted to jumps.
    pub branches_folded: usize,
    /// Unreachable blocks removed (emptied).
    pub blocks_removed: usize,
}

/// Runs all IR cleanups to a fixpoint.
pub fn simplify(f: &mut Function) -> SimplifyStats {
    let _span = chls_trace::span("opt.simplify");
    let mut stats = SimplifyStats::default();
    loop {
        let mut changed = false;
        changed |= fold_constants(f, &mut stats);
        changed |= fold_branches(f, &mut stats);
        changed |= prune_unreachable(f, &mut stats);
        changed |= cse(f, &mut stats);
        changed |= dce(f, &mut stats);
        if !changed {
            break;
        }
    }
    stats
}

fn const_of(f: &Function, v: Value) -> Option<i64> {
    match &f.inst(v).kind {
        InstKind::Const(c) => Some(*c),
        _ => None,
    }
}

/// Folds constant and algebraically-trivial instructions in place (the
/// instruction becomes a `Const` or is replaced by an operand).
/// Replacements are forwarded: later instructions read their operands
/// through the table, and uses are rewritten once at the end.
fn fold_constants(f: &mut Function, stats: &mut SimplifyStats) -> bool {
    let mut fwd = Forwarding::new(f);
    let mut changed = false;
    for i in 0..f.insts.len() {
        let v = Value(i as u32);
        let ty = f.inst(v).ty;
        match f.inst(v).kind {
            InstKind::Bin(op, a, b) => {
                let (a, b) = (fwd.resolve(a), fwd.resolve(b));
                let (ca, cb) = (const_of(f, a), const_of(f, b));
                if let (Some(x), Some(y)) = (ca, cb) {
                    let ety = if op.is_comparison() { f.inst(a).ty } else { ty };
                    let folded = eval_bin(op, ety, x, y);
                    f.inst_mut(v).kind = InstKind::Const(folded);
                    stats.folded += 1;
                    changed = true;
                    continue;
                }
                // Algebraic identities that replace the result with an
                // operand (types already match by construction).
                let ident = match (op, ca, cb) {
                    (BinKind::Add, Some(0), _) => Some(b),
                    (BinKind::Add | BinKind::Sub, _, Some(0)) => Some(a),
                    (BinKind::Mul, _, Some(1)) => Some(a),
                    (BinKind::Mul, Some(1), _) => Some(b),
                    (BinKind::Shl | BinKind::Shr, _, Some(0)) => Some(a),
                    (BinKind::Or | BinKind::Xor, _, Some(0)) => Some(a),
                    (BinKind::Or | BinKind::Xor, Some(0), _) => Some(b),
                    (BinKind::And, _, Some(m)) if (m as u64) & ty.mask() == ty.mask() => Some(a),
                    _ => None,
                };
                if let Some(src) = ident {
                    fwd.forward(v, src);
                    stats.folded += 1;
                    changed = true;
                    continue;
                }
                // x * 0, x & 0 -> 0.
                let zero = matches!(
                    (op, ca, cb),
                    (BinKind::Mul | BinKind::And, _, Some(0))
                        | (BinKind::Mul | BinKind::And, Some(0), _)
                );
                if zero {
                    f.inst_mut(v).kind = InstKind::Const(0);
                    stats.folded += 1;
                    changed = true;
                }
            }
            InstKind::Un(op, a) => {
                if let Some(x) = const_of(f, fwd.resolve(a)) {
                    f.inst_mut(v).kind = InstKind::Const(eval_un(op, ty, x));
                    stats.folded += 1;
                    changed = true;
                }
            }
            InstKind::Select { cond, t, f: fv } => {
                let (t, fv) = (fwd.resolve(t), fwd.resolve(fv));
                if let Some(c) = const_of(f, fwd.resolve(cond)) {
                    fwd.forward(v, if c != 0 { t } else { fv });
                    stats.folded += 1;
                    changed = true;
                } else if t == fv {
                    fwd.forward(v, t);
                    stats.folded += 1;
                    changed = true;
                }
            }
            InstKind::Cast { from, val } => {
                let val = fwd.resolve(val);
                if let Some(x) = const_of(f, val) {
                    f.inst_mut(v).kind = InstKind::Const(eval_cast(from, ty, x));
                    stats.folded += 1;
                    changed = true;
                } else if from == ty {
                    fwd.forward(v, val);
                    stats.folded += 1;
                    changed = true;
                }
            }
            _ => {}
        }
    }
    fwd.apply(f);
    changed
}

/// Turns `br const, a, b` into `jump`, pruning phi inputs on the dead edge.
fn fold_branches(f: &mut Function, stats: &mut SimplifyStats) -> bool {
    let mut changed = false;
    for bi in 0..f.blocks.len() {
        let Term::Br { cond, then, els } = f.blocks[bi].term.clone() else {
            continue;
        };
        if then == els {
            f.blocks[bi].term = Term::Jump(then);
            stats.branches_folded += 1;
            changed = true;
            continue;
        }
        let Some(c) = const_of(f, cond) else { continue };
        let (taken, dead) = if c != 0 { (then, els) } else { (els, then) };
        f.blocks[bi].term = Term::Jump(taken);
        // Remove this block's contribution to phis in the dead target.
        let src = BlockId(bi as u32);
        for &iv in &f.blocks[dead.0 as usize].insts.clone() {
            if let InstKind::Phi(args) = &mut f.inst_mut(iv).kind {
                args.retain(|(b, _)| *b != src);
            }
        }
        stats.branches_folded += 1;
        changed = true;
    }
    changed
}

/// Empties unreachable blocks and fixes phis that reference them.
fn prune_unreachable(f: &mut Function, stats: &mut SimplifyStats) -> bool {
    let mut reachable = vec![false; f.blocks.len()];
    let mut stack = vec![f.entry];
    while let Some(b) = stack.pop() {
        if reachable[b.0 as usize] {
            continue;
        }
        reachable[b.0 as usize] = true;
        for s in f.block(b).term.successors() {
            stack.push(s);
        }
    }
    let mut changed = false;
    for (bi, live) in reachable.iter().enumerate() {
        if *live {
            continue;
        }
        let self_jump = matches!(f.blocks[bi].term, Term::Jump(t) if t.0 as usize == bi);
        if !f.blocks[bi].insts.is_empty() || !self_jump {
            // Empty it; a self-jump terminator keeps the block well-formed
            // without constraining the function's return type.
            f.blocks[bi].insts.clear();
            f.blocks[bi].term = Term::Jump(BlockId(bi as u32));
            stats.blocks_removed += 1;
            changed = true;
        }
    }
    if changed {
        // Phis in reachable blocks may reference now-dead predecessors.
        let preds = f.predecessors();
        for bi in 0..f.blocks.len() {
            if !reachable[bi] {
                continue;
            }
            let live_preds: Vec<BlockId> = preds[bi]
                .iter()
                .copied()
                .filter(|p| reachable[p.0 as usize])
                .collect();
            for &iv in &f.blocks[bi].insts.clone() {
                if let InstKind::Phi(args) = &mut f.inst_mut(iv).kind {
                    args.retain(|(b, _)| live_preds.contains(b));
                }
            }
        }
        remove_trivial_phis(f);
    }
    changed
}

/// CSE's table: key → (first value, its block, result width,
/// signedness).
type CseTable<K> = FastMap<K, (Value, BlockId, u16, bool)>;

/// Dominator-scoped CSE over pure instructions.
fn cse(f: &mut Function, stats: &mut SimplifyStats) -> bool {
    #[derive(Clone, Copy, PartialEq, Eq, Hash)]
    struct Key {
        kind_tag: u8,
        a: u32,
        b: u32,
        c: u32,
        extra: u64,
    }
    fn key_of(inst: &InstData) -> Option<Key> {
        let (kind_tag, a, b, c, extra) = match &inst.kind {
            InstKind::Const(v) => (0, 0, 0, 0, *v as u64),
            InstKind::Bin(op, x, y) => {
                // Normalize commutative operands.
                let (x, y) = if op.is_commutative() && y.0 < x.0 {
                    (*y, *x)
                } else {
                    (*x, *y)
                };
                (1, x.0, y.0, 0, *op as u64)
            }
            InstKind::Un(op, x) => (2, x.0, 0, 0, *op as u64),
            InstKind::Select { cond, t, f } => (3, cond.0, t.0, f.0, 0),
            InstKind::Cast { from, val } => (
                4,
                val.0,
                0,
                0,
                ((from.width as u64) << 1) | from.signed as u64,
            ),
            // Params, phis, and memory ops are not CSE candidates.
            _ => return None,
        };
        Some(Key {
            kind_tag,
            a,
            b,
            c,
            extra,
        })
    }

    let dt = DomTree::compute(f);
    // Dominator-tree preorder with scoped tables.
    let mut children: Vec<Vec<BlockId>> = vec![Vec::new(); f.blocks.len()];
    for (bi, idom) in dt.idom.iter().enumerate() {
        if let Some(d) = idom {
            if d.0 as usize != bi {
                children[d.0 as usize].push(BlockId(bi as u32));
            }
        }
    }
    // Keys are read from the operands as they stand: a merge found in
    // this sweep does not expose further merges until the next one.
    let mut fwd = Forwarding::new(f);
    // Iterative preorder. A table entry is in scope while the block that
    // made it is on the current dominator-tree path; an entry from a
    // block already left never comes back into scope, so it is simply
    // overwritten, as the scoped table's removal would have made room.
    let mut table: CseTable<Key> =
        CseTable::with_capacity_and_hasher(f.insts.len(), Default::default());
    let mut on_path = vec![false; f.blocks.len()];
    let mut stack: Vec<(BlockId, bool)> = vec![(f.entry, false)];
    while let Some((b, leaving)) = stack.pop() {
        if leaving {
            on_path[b.0 as usize] = false;
            continue;
        }
        stack.push((b, true));
        on_path[b.0 as usize] = true;
        for &v in &f.block(b).insts {
            let inst = f.inst(v);
            let Some(key) = key_of(inst) else { continue };
            match table.get(&key) {
                Some(&(prev, at, ty_w, ty_s))
                    if on_path[at.0 as usize]
                        && ty_w == inst.ty.width
                        && ty_s == inst.ty.signed =>
                {
                    fwd.forward(v, prev);
                    stats.cse += 1;
                }
                _ => {
                    table.insert(key, (v, b, inst.ty.width, inst.ty.signed));
                }
            }
        }
        for &c in &children[b.0 as usize] {
            stack.push((c, false));
        }
    }
    fwd.apply(f)
}

/// Removes pure instructions with no uses (then compacts).
///
/// The first sweep counts uses from every arena instruction, placed or
/// not, so a value read only by an unplaced instruction survives it.
/// Only when that sweep removes something does the removal continue to
/// a fixpoint over placed instructions alone. That fixpoint comes from
/// one use count: a removed instruction counts down its operands, and
/// an operand whose count reaches zero is removed in turn.
fn dce(f: &mut Function, stats: &mut SimplifyStats) -> bool {
    let n = f.insts.len();
    let mut placed = vec![false; n];
    for block in &f.blocks {
        for &v in &block.insts {
            placed[v.0 as usize] = true;
        }
    }
    // Uses by placed instructions and terminators, and whether any
    // instruction at all reads the value.
    let mut uses = vec![0u32; n];
    let mut read_anywhere = vec![false; n];
    for (i, inst) in f.insts.iter().enumerate() {
        inst.kind.for_each_operand(|o| {
            read_anywhere[o.0 as usize] = true;
            if placed[i] {
                uses[o.0 as usize] += 1;
            }
        });
    }
    for block in &f.blocks {
        match &block.term {
            Term::Br { cond: v, .. } | Term::Ret(Some(v)) => uses[v.0 as usize] += 1,
            _ => {}
        }
    }
    let removable =
        |v: usize, uses: &[u32]| uses[v] == 0 && !matches!(f.insts[v].kind, InstKind::Store { .. });
    let mut work: Vec<usize> = Vec::new();
    let mut first_sweep_removes = false;
    for block in &f.blocks {
        for &v in &block.insts {
            let v = v.0 as usize;
            if removable(v, &uses) {
                work.push(v);
                first_sweep_removes |= !read_anywhere[v];
            }
        }
    }
    if !first_sweep_removes {
        return false;
    }
    let mut dead = vec![false; n];
    let mut removed = 0;
    while let Some(v) = work.pop() {
        dead[v] = true;
        removed += 1;
        f.insts[v].kind.for_each_operand(|o| {
            let o = o.0 as usize;
            uses[o] -= 1;
            if placed[o] && !dead[o] && removable(o, &uses) {
                work.push(o);
            }
        });
    }
    for block in &mut f.blocks {
        block.insts.retain(|&v| !dead[v.0 as usize]);
    }
    stats.dce += removed;
    f.compact();
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use chls_frontend::compile_to_hir;
    use chls_ir::exec::{execute, ArgValue, ExecOptions};
    use chls_ir::lower_function;
    use chls_ir::verify::verify;

    fn simplified(src: &str, name: &str) -> (Function, SimplifyStats) {
        let hir = compile_to_hir(src).expect("frontend ok");
        let (id, _) = hir.func_by_name(name).expect("exists");
        let mut f = lower_function(&hir, id).expect("lowers");
        let stats = simplify(&mut f);
        verify(&f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        (f, stats)
    }

    #[test]
    fn constant_expression_collapses() {
        let (f, stats) = simplified("int f() { return (2 + 3) * 4 - 6; }", "f");
        assert!(stats.folded >= 3);
        // Only a single constant should survive.
        assert_eq!(f.op_count(), 1, "{f}");
        let r = execute(&f, &[], &ExecOptions::default()).unwrap();
        assert_eq!(r.ret, Some(14));
    }

    #[test]
    fn identities_fold() {
        let (f, _) = simplified(
            "int f(int x) { return (x + 0) * 1 + (x & 0xffffffff) - (0 | 0); }",
            "f",
        );
        // x + x remains: one add.
        let adds = f
            .insts
            .iter()
            .filter(|i| matches!(i.kind, InstKind::Bin(BinKind::Add, ..)))
            .count();
        assert_eq!(adds, 1, "{f}");
        let r = execute(&f, &[ArgValue::Scalar(21)], &ExecOptions::default()).unwrap();
        assert_eq!(r.ret, Some(42));
    }

    #[test]
    fn mul_by_zero_is_zero() {
        let (f, _) = simplified("int f(int x) { return x * 0 + 7; }", "f");
        assert_eq!(f.op_count(), 1, "{f}");
        let r = execute(&f, &[ArgValue::Scalar(5)], &ExecOptions::default()).unwrap();
        assert_eq!(r.ret, Some(7));
    }

    #[test]
    fn constant_branch_removes_dead_arm() {
        let (f, stats) = simplified(
            "int f(int x) { if (1 < 2) { return x; } else { return x * 99; } }",
            "f",
        );
        assert!(stats.branches_folded >= 1);
        let muls = f
            .insts
            .iter()
            .filter(|i| matches!(i.kind, InstKind::Bin(BinKind::Mul, ..)))
            .count();
        assert_eq!(muls, 0, "{f}");
    }

    #[test]
    fn cse_merges_repeated_subexpressions() {
        let (f, stats) = simplified(
            "int f(int a, int b) { return (a * b) + (a * b) + (a * b); }",
            "f",
        );
        assert!(stats.cse >= 2);
        let muls = f
            .insts
            .iter()
            .filter(|i| matches!(i.kind, InstKind::Bin(BinKind::Mul, ..)))
            .count();
        assert_eq!(muls, 1, "{f}");
        let r = execute(
            &f,
            &[ArgValue::Scalar(3), ArgValue::Scalar(4)],
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(r.ret, Some(36));
    }

    #[test]
    fn cse_respects_dominance() {
        // The two `a * b` live in sibling branches: neither dominates the
        // other, so they must NOT merge.
        let (f, _) = simplified(
            "int f(int a, int b, bool c) {
                int r = 0;
                if (c) { r = a * b; } else { r = a * b + 1; }
                return r;
            }",
            "f",
        );
        let muls = f
            .insts
            .iter()
            .filter(|i| matches!(i.kind, InstKind::Bin(BinKind::Mul, ..)))
            .count();
        assert_eq!(muls, 2, "{f}");
    }

    #[test]
    fn loads_are_not_cse_candidates() {
        // A store between identical loads makes them different values.
        let (f, _) = simplified(
            "int f(int a[4]) {
                int x = a[0];
                a[0] = x + 1;
                int y = a[0];
                return x + y;
            }",
            "f",
        );
        let loads = f
            .insts
            .iter()
            .filter(|i| matches!(i.kind, InstKind::Load { .. }))
            .count();
        assert_eq!(loads, 2, "{f}");
        let r = execute(
            &f,
            &[ArgValue::Array(vec![10, 0, 0, 0])],
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(r.ret, Some(21));
    }

    #[test]
    fn dce_removes_unused_computation() {
        let (f, stats) = simplified(
            "int f(int a, int b) { int unused = a * b * a * b; return a + b; }",
            "f",
        );
        assert!(stats.dce >= 1);
        assert_eq!(f.op_count(), 1, "{f}");
    }

    /// `v0 = param 0`, `v1 = param 1`, an unplaced `v2 = add v1, v1`,
    /// and `ret v0`.
    fn with_unplaced_reader() -> Function {
        let int = chls_frontend::IntType::new(32, true);
        let mut f = Function::new("f");
        let b = f.entry;
        let v0 = f.add_inst(b, InstKind::Param(0), int);
        let v1 = f.add_inst(b, InstKind::Param(1), int);
        let v2 = f.add_inst(b, InstKind::Bin(BinKind::Add, v1, v1), int);
        f.blocks[0].insts.retain(|&v| v != v2);
        f.blocks[0].term = Term::Ret(Some(v0));
        f
    }

    #[test]
    fn dce_keeps_a_value_read_only_by_an_unplaced_instruction() {
        let mut f = with_unplaced_reader();
        let mut stats = SimplifyStats::default();
        assert!(!dce(&mut f, &mut stats));
        assert_eq!(f.blocks[0].insts, vec![Value(0), Value(1)]);
        assert_eq!(stats.dce, 0);
    }

    #[test]
    fn dce_drops_it_once_the_first_sweep_removes_something() {
        let mut f = with_unplaced_reader();
        let int = chls_frontend::IntType::new(32, true);
        let b = f.entry;
        f.add_inst(b, InstKind::Bin(BinKind::Mul, Value(0), Value(0)), int);
        let mut stats = SimplifyStats::default();
        assert!(dce(&mut f, &mut stats));
        // The unused `mul` goes in the first sweep; `v1`, read only by
        // the unplaced `add`, in the next.
        assert_eq!(stats.dce, 2);
        assert_eq!(f.insts.len(), 1, "{f}");
        assert_eq!(f.blocks[0].term, Term::Ret(Some(Value(0))));
    }

    #[test]
    fn dce_removes_a_dead_chain_but_not_a_dead_cycle() {
        let (f, _) = simplified(
            "int f(int a, int n) {
                int dead = 0;
                for (int i = 0; i < n; i++) { dead = dead + a; }
                int chain = ((a * 3) + 1) ^ 5;
                return a;
            }",
            "f",
        );
        // `chain` is gone; the loop-carried `dead` feeds its own phi, so
        // it stays, as it always has.
        let count = |pred: fn(&InstKind) -> bool| f.insts.iter().filter(|i| pred(&i.kind)).count();
        assert_eq!(
            count(|k| matches!(k, InstKind::Bin(BinKind::Xor, ..))),
            0,
            "{f}"
        );
        assert_eq!(count(|k| matches!(k, InstKind::Phi(_))), 2, "{f}");
    }

    #[test]
    fn behavior_preserved_on_kernel() {
        let src = "int f(int a[8], int n) {
            int s = 0;
            for (int i = 0; i < n; i++) {
                if ((a[i] & 1) == 0) s += a[i] * 2 + 0;
                else s += a[i] * 1;
            }
            return s;
        }";
        let hir = compile_to_hir(src).unwrap();
        let (id, _) = hir.func_by_name("f").unwrap();
        let f0 = lower_function(&hir, id).unwrap();
        let mut f1 = f0.clone();
        simplify(&mut f1);
        verify(&f1).unwrap_or_else(|e| panic!("{e}\n{f1}"));
        let args = [
            ArgValue::Array(vec![5, 2, 9, 4, 7, 6, 1, 8]),
            ArgValue::Scalar(8),
        ];
        let r0 = execute(&f0, &args, &ExecOptions::default()).unwrap();
        let r1 = execute(&f1, &args, &ExecOptions::default()).unwrap();
        assert_eq!(r0.ret, r1.ret);
        assert!(f1.insts.len() <= f0.insts.len());
    }
}

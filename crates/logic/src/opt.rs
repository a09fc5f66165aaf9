//! Word-level optimizers for netlists and FSMDs.
//!
//! These deliberately stay at the *word* level rather than
//! round-tripping through the AIG: QoR numbers remain comparable with
//! the unoptimized design (same cost model, same cell classes), and
//! every rule is individually auditable against the simulator's
//! evaluation semantics. Two invariants hold for every rewrite:
//!
//! * **Exact value preservation.** Each replacement produces the same
//!   canonical value as the original under `chls_ir::eval_bin` /
//!   `eval_un` / `eval_cast` for *all* inputs — including the
//!   wrap-around, shift-clamp, and divide-by-zero corners. The
//!   property tests in `tests/equiv.rs` check this with the SAT
//!   equivalence engine.
//! * **Area monotonicity.** Replacements are `Cast`/`Const` cells
//!   (area 0 in the cost model) or strictly cheaper operator classes,
//!   so `optimize(nl).area(m) <= nl.area(m)` always; `verify.sh`
//!   asserts this across the example corpus.
//!
//! A cell is *aliased* away (all references repointed) only when its
//! type equals the replacement's type: comparison cells evaluate at
//! their first operand's cell type, so substituting a differently
//! typed driver would silently change comparison semantics.

use chls_frontend::IntType;
use chls_ir::{eval_bin, eval_un, BinKind};
use chls_rtl::fsmd::ActionKind;
use chls_rtl::netlist::{CellId, CellKind, Netlist};
use chls_rtl::{Fsmd, NextState, RegId, Rv, RvKind};
use std::collections::{HashMap, HashSet};

/// Optimizes a netlist: constant folding, local rewriting, common
/// subexpression elimination, and dead-cell sweeping to a fixpoint
/// (bounded at four rounds). Never increases area.
pub fn optimize(nl: &Netlist) -> Netlist {
    let _span = chls_trace::span("logic.optimize");
    let mut nl = nl.clone();
    let mut total = 0usize;
    for _ in 0..4 {
        let mut changed = 0;
        changed += nl.fold_constants();
        changed += rewrite(&mut nl);
        changed += cse(&mut nl);
        nl.sweep_dead();
        total += changed;
        if changed == 0 {
            break;
        }
    }
    chls_trace::add("logic.rewrites", total as u64);
    nl
}

/// Canonical value of a constant-driven cell.
fn konst(nl: &Netlist, id: CellId) -> Option<i64> {
    match nl.cell(id).kind {
        CellKind::Const(v) => Some(nl.cell(id).ty.canonicalize(v)),
        _ => None,
    }
}

/// One round of local rewrites. Returns the number of rewrites.
fn rewrite(nl: &mut Netlist) -> usize {
    let mut count = 0usize;
    let mut alias: HashMap<u32, CellId> = HashMap::new();
    let n = nl.cells.len();
    for i in 0..n {
        let id = CellId(i as u32);
        let t = nl.cell(id).ty;
        let cast_of = |nl: &Netlist, x: CellId| CellKind::Cast {
            from: nl.cell(x).ty,
            val: x,
        };
        let new_kind: Option<CellKind> = match nl.cell(id).kind.clone() {
            CellKind::Bin(op, a, b) => {
                let (ca, cb) = (konst(nl, a), konst(nl, b));
                rewrite_bin(op, t, a, b, ca, cb).map(|r| match r {
                    BinRewrite::CastOf(x) => cast_of(nl, x),
                    BinRewrite::Constant(v) => CellKind::Const(v),
                    BinRewrite::ShlBy(x, s) => {
                        let amt = nl.add(CellKind::Const(s as i64), t);
                        CellKind::Bin(BinKind::Shl, x, amt)
                    }
                    BinRewrite::MaskCast(x, k) => {
                        let mid_ty = IntType::new(k as u16, false);
                        let inner = cast_of(nl, x);
                        let mid = nl.add(inner, mid_ty);
                        CellKind::Cast {
                            from: mid_ty,
                            val: mid,
                        }
                    }
                })
            }
            CellKind::Mux { sel, a, b } => match konst(nl, sel) {
                Some(c) if c != 0 => Some(cast_of(nl, a)),
                Some(_) => Some(cast_of(nl, b)),
                None if a == b => Some(cast_of(nl, a)),
                None => None,
            },
            CellKind::Un(op, x) => match (&nl.cell(x).kind, nl.cell(x).ty == t) {
                (CellKind::Un(inner, y), true) if *inner == op => Some(cast_of(nl, *y)),
                _ => None,
            },
            CellKind::Cast { val: x, .. } => {
                if nl.cell(x).ty == t {
                    // Identity conversion: alias every use to the source.
                    alias.insert(id.0, x);
                    count += 1;
                    None
                } else if let CellKind::Cast { val: y, .. } = nl.cell(x).kind {
                    // Outer cast only narrows further: drop the middle.
                    if nl.cell(x).ty.width >= t.width {
                        Some(CellKind::Cast {
                            from: nl.cell(y).ty,
                            val: y,
                        })
                    } else {
                        None
                    }
                } else {
                    None
                }
            }
            _ => None,
        };
        if let Some(k) = new_kind {
            nl.cells[i].kind = k;
            count += 1;
        }
    }
    if !alias.is_empty() {
        let resolve = |mut id: CellId| {
            let mut hops = 0;
            while let Some(&next) = alias.get(&id.0) {
                id = next;
                hops += 1;
                if hops > alias.len() {
                    break; // defensive: alias cycles cannot arise from identity casts
                }
            }
            id
        };
        map_refs(nl, resolve);
    }
    count
}

enum BinRewrite {
    CastOf(CellId),
    Constant(i64),
    ShlBy(CellId, u32),
    MaskCast(CellId, u32),
}

/// The binary-operator rewrite table, phrased over the operands'
/// canonical values (which is exactly what `eval_bin` consumes).
fn rewrite_bin(
    op: BinKind,
    t: IntType,
    a: CellId,
    b: CellId,
    ca: Option<i64>,
    cb: Option<i64>,
) -> Option<BinRewrite> {
    use BinRewrite::*;
    let same = a == b;
    match op {
        BinKind::Add => match (ca, cb) {
            (_, Some(0)) => Some(CastOf(a)),
            (Some(0), _) => Some(CastOf(b)),
            _ => None,
        },
        BinKind::Sub if cb == Some(0) => Some(CastOf(a)),
        BinKind::Sub if same => Some(Constant(0)),
        BinKind::Mul => {
            let by = |c: Option<i64>, x: CellId| {
                let c = c?;
                if c == 0 {
                    Some(Constant(0))
                } else if c == 1 {
                    Some(CastOf(x))
                } else if c > 0 && (c as u64).is_power_of_two() {
                    let s = (c as u64).trailing_zeros();
                    if s >= u32::from(t.width) {
                        Some(Constant(0))
                    } else {
                        Some(ShlBy(x, s))
                    }
                } else {
                    None
                }
            };
            by(cb, a).or_else(|| by(ca, b))
        }
        BinKind::Div => match cb {
            Some(0) => Some(Constant(0)),
            Some(1) => Some(CastOf(a)),
            _ => None,
        },
        BinKind::Rem => match cb {
            Some(0) => Some(Constant(0)),
            Some(1) => Some(Constant(0)),
            _ => None,
        },
        BinKind::Shl | BinKind::Shr => {
            let ub = (cb? as u64) & t.mask();
            let sh = ub.min(63);
            if sh == 0 {
                Some(CastOf(a))
            } else if sh >= u64::from(t.width) && (op == BinKind::Shl || !t.signed) {
                Some(Constant(0))
            } else {
                None
            }
        }
        BinKind::And => {
            let by = |c: Option<i64>, x: CellId| {
                let c = c?;
                if c == 0 {
                    return Some(Constant(0));
                }
                if c == -1 {
                    return Some(CastOf(x));
                }
                if c > 0 && (c as u64 + 1).is_power_of_two() {
                    let k = 64 - (c as u64).leading_zeros();
                    return if k >= u32::from(t.width) {
                        Some(CastOf(x))
                    } else {
                        Some(MaskCast(x, k))
                    };
                }
                None
            };
            if same {
                Some(CastOf(a))
            } else {
                by(cb, a).or_else(|| by(ca, b))
            }
        }
        BinKind::Or => {
            if same {
                Some(CastOf(a))
            } else {
                match (ca, cb) {
                    (_, Some(0)) => Some(CastOf(a)),
                    (Some(0), _) => Some(CastOf(b)),
                    (_, Some(-1)) | (Some(-1), _) => Some(Constant(t.canonicalize(-1))),
                    _ => None,
                }
            }
        }
        BinKind::Xor => match (ca, cb) {
            _ if same => Some(Constant(0)),
            (_, Some(0)) => Some(CastOf(a)),
            (Some(0), _) => Some(CastOf(b)),
            _ => None,
        },
        BinKind::Eq | BinKind::Le | BinKind::Ge if same => Some(Constant(1)),
        BinKind::Ne | BinKind::Lt | BinKind::Gt if same => Some(Constant(0)),
        _ => None,
    }
}

/// Applies a cell-id substitution to every reference in the netlist.
fn map_refs(nl: &mut Netlist, f: impl Fn(CellId) -> CellId) {
    for c in &mut nl.cells {
        match &mut c.kind {
            CellKind::Input { .. } | CellKind::Const(_) => {}
            CellKind::Un(_, a) => *a = f(*a),
            CellKind::Bin(_, a, b) => {
                *a = f(*a);
                *b = f(*b);
            }
            CellKind::Mux { sel, a, b } => {
                *sel = f(*sel);
                *a = f(*a);
                *b = f(*b);
            }
            CellKind::Cast { val, .. } => *val = f(*val),
            CellKind::Reg { next, en, .. } => {
                *next = f(*next);
                if let Some(e) = en {
                    *e = f(*e);
                }
            }
            CellKind::RamRead { addr, .. } => *addr = f(*addr),
            CellKind::RamWrite { addr, data, en, .. } => {
                *addr = f(*addr);
                *data = f(*data);
                *en = f(*en);
            }
        }
    }
    for (_, id) in &mut nl.outputs {
        *id = f(*id);
    }
}

/// Structural key for value-equivalent combinational cells.
#[derive(Hash, PartialEq, Eq)]
enum Key {
    Input(String),
    Const(i64),
    Un(u8, u32),
    Bin(u8, u32, u32),
    Mux(u32, u32, u32),
    Cast(u32),
}

/// Common-subexpression elimination over combinational cells. Two
/// cells merge only when their resolved operands, operator, and result
/// type coincide; commutative operators are normalized (comparisons
/// only when both operand types match, since they evaluate at the
/// first operand's type).
fn cse(nl: &mut Netlist) -> usize {
    let mut repr: Vec<CellId> = (0..nl.cells.len() as u32).map(CellId).collect();
    let mut seen: HashMap<(Key, u16, bool), CellId> = HashMap::new();
    let mut count = 0usize;
    for i in 0..nl.cells.len() {
        let r = |id: CellId| repr[id.0 as usize].0;
        let key = match &nl.cells[i].kind {
            CellKind::Input { name } => Key::Input(name.clone()),
            CellKind::Const(v) => Key::Const(nl.cells[i].ty.canonicalize(*v)),
            CellKind::Un(op, a) => Key::Un(*op as u8, r(*a)),
            CellKind::Bin(op, a, b) => {
                let (mut x, mut y) = (r(*a), r(*b));
                let commutative = matches!(
                    op,
                    BinKind::Add | BinKind::Mul | BinKind::And | BinKind::Or | BinKind::Xor
                ) || (matches!(op, BinKind::Eq | BinKind::Ne)
                    && nl.cell(*a).ty == nl.cell(*b).ty);
                if commutative && x > y {
                    std::mem::swap(&mut x, &mut y);
                }
                Key::Bin(*op as u8, x, y)
            }
            CellKind::Mux { sel, a, b } => Key::Mux(r(*sel), r(*a), r(*b)),
            CellKind::Cast { val, .. } => Key::Cast(r(*val)),
            // Stateful or port cells never merge.
            CellKind::Reg { .. } | CellKind::RamRead { .. } | CellKind::RamWrite { .. } => continue,
        };
        let ty = nl.cells[i].ty;
        match seen.entry((key, ty.width, ty.signed)) {
            std::collections::hash_map::Entry::Occupied(e) => {
                repr[i] = *e.get();
                count += 1;
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(CellId(i as u32));
            }
        }
    }
    if count > 0 {
        map_refs(nl, |id| repr[id.0 as usize]);
    }
    count
}

// ---------------------------------------------------------------------
// FSMD optimization.
// ---------------------------------------------------------------------

/// Optimizes an FSMD in place: expression simplification with the same
/// rule table as the netlist optimizer (minus `Mul`→`Shl`, which could
/// change the functional-unit mix), guard and branch pruning, and dead
/// register elimination. Never increases area under the FU-sharing
/// cost model.
pub fn optimize_fsmd(f: &Fsmd) -> Fsmd {
    let _span = chls_trace::span("logic.optimize_fsmd");
    let mut f = f.clone();
    let mut count = 0usize;

    let mut on_rv = |rv: &mut Rv| simp_rv(rv, &mut count);
    for st in &mut f.states {
        for a in &mut st.actions {
            if let Some(g) = &mut a.guard {
                on_rv(g);
            }
            match &mut a.kind {
                ActionKind::SetReg(_, rv) => on_rv(rv),
                ActionKind::MemWrite { addr, value, .. } => {
                    on_rv(addr);
                    on_rv(value);
                }
            }
        }
        match &mut st.next {
            NextState::Branch { cond, .. } => on_rv(cond),
            NextState::Cases { cases, .. } => {
                for (c, _) in cases {
                    on_rv(c);
                }
            }
            NextState::Goto(_) | NextState::Done => {}
        }
    }
    if let Some(r) = &mut f.ret {
        on_rv(r);
    }

    // Guard pruning: a constant-false guard kills the action, a
    // constant-true guard becomes unconditional.
    for st in &mut f.states {
        st.actions
            .retain(|a| !matches!(&a.guard, Some(g) if rv_const(g) == Some(0)));
        for a in &mut st.actions {
            if matches!(&a.guard, Some(g) if rv_const(g).is_some_and(|c| c != 0)) {
                a.guard = None;
                count += 1;
            }
        }
        // Branch folding on constant conditions.
        let folded: Option<NextState> = match &st.next {
            NextState::Branch { cond, then, els } => {
                rv_const(cond).map(|c| NextState::Goto(if c != 0 { *then } else { *els }))
            }
            NextState::Cases { cases, default } => {
                let mut kept = Vec::new();
                let mut def = *default;
                let mut changed = false;
                for (c, target) in cases {
                    match rv_const(c) {
                        // Never taken: drop the case.
                        Some(0) => changed = true,
                        // Always taken: it ends the priority chain.
                        Some(_) => {
                            def = *target;
                            changed = true;
                            break;
                        }
                        None => kept.push((c.clone(), *target)),
                    }
                }
                if !changed {
                    None
                } else if kept.is_empty() {
                    Some(NextState::Goto(def))
                } else {
                    Some(NextState::Cases {
                        cases: kept,
                        default: def,
                    })
                }
            }
            _ => None,
        };
        if let Some(n) = folded {
            st.next = n;
            count += 1;
        }
    }

    count += sweep_dead_regs(&mut f);
    chls_trace::add("logic.rewrites", count as u64);
    f
}

fn rv_const(rv: &Rv) -> Option<i64> {
    match rv.kind {
        RvKind::Const(v) => Some(rv.ty.canonicalize(v)),
        _ => None,
    }
}

/// Recursive expression simplification, mirroring the netlist rules.
fn simp_rv(rv: &mut Rv, count: &mut usize) {
    match &mut rv.kind {
        RvKind::Const(_) | RvKind::Reg(_) | RvKind::Input(_) => return,
        RvKind::Un(_, a) | RvKind::Cast(a) => simp_rv(a, count),
        RvKind::Bin(_, a, b) => {
            simp_rv(a, count);
            simp_rv(b, count);
        }
        RvKind::Mux(s, a, b) => {
            simp_rv(s, count);
            simp_rv(a, count);
            simp_rv(b, count);
        }
        RvKind::MemRead { addr, .. } => simp_rv(addr, count),
    }
    let t = rv.ty;
    let new: Option<Rv> = match &rv.kind {
        RvKind::Bin(op, a, b) => {
            let (ca, cb) = (rv_const(a), rv_const(b));
            if let (Some(x), Some(y)) = (ca, cb) {
                let ety = if op.is_comparison() { a.ty } else { t };
                let v = eval_bin(*op, ety, x, y);
                Some(Rv {
                    kind: RvKind::Const(t.canonicalize(v)),
                    ty: t,
                })
            } else {
                // Reuse the table; `Mul` strength reduction is netlist
                // only (a shifter is a different FU class here).
                let fake_a = CellId(0);
                let fake_b = CellId(if **a == **b { 0 } else { 1 });
                rewrite_bin(*op, t, fake_a, fake_b, ca, cb).and_then(|r| match r {
                    BinRewrite::CastOf(x) => {
                        let src = if x == fake_a {
                            (**a).clone()
                        } else {
                            (**b).clone()
                        };
                        Some(Rv {
                            kind: RvKind::Cast(Box::new(src)),
                            ty: t,
                        })
                    }
                    BinRewrite::Constant(v) => Some(Rv {
                        kind: RvKind::Const(t.canonicalize(v)),
                        ty: t,
                    }),
                    BinRewrite::MaskCast(x, k) => {
                        let src = if x == fake_a {
                            (**a).clone()
                        } else {
                            (**b).clone()
                        };
                        let mid = Rv {
                            kind: RvKind::Cast(Box::new(src)),
                            ty: IntType::new(k as u16, false),
                        };
                        Some(Rv {
                            kind: RvKind::Cast(Box::new(mid)),
                            ty: t,
                        })
                    }
                    // A shifter is a different FU class than a multiplier;
                    // strength reduction could change the shared-FU area.
                    BinRewrite::ShlBy(..) => None,
                })
            }
        }
        RvKind::Mux(s, a, b) => match rv_const(s) {
            // The FSMD mux is an eager select with *no* re-canonicalization,
            // so an arm can replace the node only when its type matches.
            Some(c) => {
                let arm = if c != 0 { a } else { b };
                (arm.ty == t).then(|| (**arm).clone())
            }
            None if a == b && a.ty == t => Some((**a).clone()),
            None => None,
        },
        RvKind::Un(op, x) => {
            if let RvKind::Const(v) = x.kind {
                let v = eval_un(*op, t, x.ty.canonicalize(v));
                Some(Rv {
                    kind: RvKind::Const(t.canonicalize(v)),
                    ty: t,
                })
            } else if let RvKind::Un(inner, y) = &x.kind {
                (*inner == *op && x.ty == t).then(|| Rv {
                    kind: RvKind::Cast(y.clone()),
                    ty: t,
                })
            } else {
                None
            }
        }
        RvKind::Cast(x) => {
            if x.ty == t {
                Some((**x).clone())
            } else if let RvKind::Cast(y) = &x.kind {
                (x.ty.width >= t.width).then(|| Rv {
                    kind: RvKind::Cast(y.clone()),
                    ty: t,
                })
            } else if let RvKind::Const(v) = x.kind {
                Some(Rv {
                    kind: RvKind::Const(t.canonicalize(x.ty.canonicalize(v))),
                    ty: t,
                })
            } else {
                None
            }
        }
        _ => None,
    };
    if let Some(n) = new {
        *rv = n;
        *count += 1;
    }
}

/// Removes registers whose value can never reach an observable
/// (return value, memory write, guard, or state condition), remapping
/// `RegId`s. Returns the number of registers removed.
fn sweep_dead_regs(f: &mut Fsmd) -> usize {
    // Seed liveness from observables, then close over SetReg sources.
    let mut live: HashSet<RegId> = HashSet::new();
    let seed = |rv: &Rv, live: &mut HashSet<RegId>| {
        rv.for_each_node(&mut |n| {
            if let RvKind::Reg(r) = n.kind {
                live.insert(r);
            }
        });
    };
    for st in &f.states {
        for a in &st.actions {
            if let Some(g) = &a.guard {
                seed(g, &mut live);
            }
            if let ActionKind::MemWrite { addr, value, .. } = &a.kind {
                seed(addr, &mut live);
                seed(value, &mut live);
            }
        }
        match &st.next {
            NextState::Branch { cond, .. } => seed(cond, &mut live),
            NextState::Cases { cases, .. } => {
                for (c, _) in cases {
                    seed(c, &mut live);
                }
            }
            _ => {}
        }
    }
    if let Some(r) = &f.ret {
        seed(r, &mut live);
    }
    loop {
        let mut grew = false;
        for st in &f.states {
            for a in &st.actions {
                if let ActionKind::SetReg(r, rv) = &a.kind {
                    if live.contains(r) {
                        let before = live.len();
                        seed(rv, &mut live);
                        grew |= live.len() != before;
                    }
                }
            }
        }
        if !grew {
            break;
        }
    }
    if live.len() == f.regs.len() {
        return 0;
    }
    let mut remap: HashMap<RegId, RegId> = HashMap::new();
    let mut kept = Vec::new();
    for (i, r) in f.regs.iter().enumerate() {
        let old = RegId(i as u32);
        if live.contains(&old) {
            remap.insert(old, RegId(kept.len() as u32));
            kept.push(r.clone());
        }
    }
    let removed = f.regs.len() - kept.len();
    f.regs = kept;
    for st in &mut f.states {
        st.actions.retain(|a| match &a.kind {
            ActionKind::SetReg(r, _) => remap.contains_key(r),
            ActionKind::MemWrite { .. } => true,
        });
        for a in &mut st.actions {
            if let Some(g) = &mut a.guard {
                rename_regs(g, &remap);
            }
            match &mut a.kind {
                ActionKind::SetReg(r, rv) => {
                    *r = remap[r];
                    rename_regs(rv, &remap);
                }
                ActionKind::MemWrite { addr, value, .. } => {
                    rename_regs(addr, &remap);
                    rename_regs(value, &remap);
                }
            }
        }
        match &mut st.next {
            NextState::Branch { cond, .. } => rename_regs(cond, &remap),
            NextState::Cases { cases, .. } => {
                for (c, _) in cases {
                    rename_regs(c, &remap);
                }
            }
            _ => {}
        }
    }
    if let Some(r) = &mut f.ret {
        rename_regs(r, &remap);
    }
    removed
}

fn rename_regs(rv: &mut Rv, remap: &HashMap<RegId, RegId>) {
    match &mut rv.kind {
        RvKind::Reg(r) => *r = remap[r],
        RvKind::Const(_) | RvKind::Input(_) => {}
        RvKind::Un(_, a) | RvKind::Cast(a) => rename_regs(a, remap),
        RvKind::Bin(_, a, b) => {
            rename_regs(a, remap);
            rename_regs(b, remap);
        }
        RvKind::Mux(s, a, b) => {
            rename_regs(s, remap);
            rename_regs(a, remap);
            rename_regs(b, remap);
        }
        RvKind::MemRead { addr, .. } => rename_regs(addr, remap),
    }
}

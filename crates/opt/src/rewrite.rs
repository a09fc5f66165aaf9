//! `chls rewrite`: synthesizability repair transforms.
//!
//! The paper's thesis is that C's *language* fights synthesis: recursion,
//! data-dependent loops, and pointer arithmetic have no direct hardware
//! meaning, so C-like synthesis languages either reject them (our backends
//! do) or silently restrict the language. This module repairs the gap
//! mechanically instead:
//!
//! * **self/mutual recursion → explicit stack machine** over fixed-extent
//!   arrays, when an interprocedural interval argument bounds the stack
//!   depth ([`rewrite_program`]);
//! * **data-dependent loops → counted loops** with a proved trip bound and
//!   a done flag ([`bound_loops`]), so every backend sees a statically
//!   counted loop;
//! * **pointer arithmetic → indexed arrays** by whole-program inlining plus
//!   the existing Andersen-style pointer lowering ([`crate::ptr`]).
//!
//! Every transform here is *certified elsewhere* (`chls rewrite` re-checks
//! the printed program with sema + lint and differential/equivalence
//! checking); this module only promises to apply a transform when it can
//! state the static fact that justifies it, and to report a reason when it
//! cannot.

use crate::inline::inline_program;
use crate::ptr::{lower_pointers, uses_pointers, PtrStats};
use crate::subst::{remap_block, remap_expr, LocalBinding};
use crate::unroll;
use chls_frontend::ast::{BinOp, UnOp};
use chls_frontend::hir::*;
use chls_frontend::recursion_cycles;
use chls_frontend::types::Type;
use chls_frontend::Span;
use chls_ir::dataflow::Range;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Largest stack depth we are willing to materialize as arrays.
const MAX_STACK_DEPTH: u64 = 1 << 16;

/// Bounds above this are treated as "unbounded for practical purposes".
const MAX_TRIPS: i128 = 1_000_000_000_000;

/// Options controlling the repair transforms.
#[derive(Debug, Clone)]
pub struct RewriteOptions {
    /// Override the proved stack capacity (test hook: an off-by-one here
    /// must be caught by certification).
    pub stack_cap_override: Option<u64>,
    /// Largest trip bound converted into a counted `for` loop; proofs
    /// above this keep their `while` form (still reported).
    pub max_counted_bound: u64,
}

impl Default for RewriteOptions {
    fn default() -> Self {
        RewriteOptions {
            stack_cap_override: None,
            max_counted_bound: 4096,
        }
    }
}

/// One applied or refused repair.
#[derive(Debug, Clone)]
pub struct RewriteAction {
    /// Pass name: `recursion-to-stack`, `loop-bound`, or `ptr-to-index`.
    pub pass: &'static str,
    /// What the pass looked at (function, cycle, or loop).
    pub target: String,
    /// True when the transform was applied.
    pub applied: bool,
    /// The proved fact (applied) or the reason the proof failed.
    pub detail: String,
}

/// Result of [`rewrite_program`].
#[derive(Debug, Clone)]
pub struct RewriteResult {
    /// The repaired program (entry and its reachable callees; unreachable
    /// functions may remain but are dropped by the printer).
    pub prog: HirProgram,
    /// Every repair attempted, in application order.
    pub actions: Vec<RewriteAction>,
    /// True when at least one transform was applied.
    pub changed: bool,
}

// ---------------------------------------------------------------------------
// Small HIR construction helpers
// ---------------------------------------------------------------------------

fn e_load(id: LocalId, ty: Type) -> HirExpr {
    HirExpr {
        kind: HirExprKind::Load(Box::new(HirPlace::Local(id))),
        ty,
    }
}

fn e_int(v: i64) -> HirExpr {
    HirExpr::konst(v, Type::int())
}

fn e_bool(v: bool) -> HirExpr {
    HirExpr::konst(v as i64, Type::Bool)
}

fn e_bin(op: BinOp, a: HirExpr, b: HirExpr, ty: Type) -> HirExpr {
    HirExpr {
        kind: HirExprKind::Binary(op, Box::new(a), Box::new(b)),
        ty,
    }
}

fn e_cmp(op: BinOp, a: HirExpr, b: HirExpr) -> HirExpr {
    HirExpr {
        kind: HirExprKind::Binary(op, Box::new(a), Box::new(b)),
        ty: Type::Bool,
    }
}

fn e_not(e: HirExpr) -> HirExpr {
    HirExpr {
        kind: HirExprKind::Unary(UnOp::LogNot, Box::new(e)),
        ty: Type::Bool,
    }
}

fn e_cast(e: HirExpr, ty: &Type) -> HirExpr {
    if &e.ty == ty {
        e
    } else {
        HirExpr {
            kind: HirExprKind::Cast(Box::new(e)),
            ty: ty.clone(),
        }
    }
}

fn s_assign(place: HirPlace, value: HirExpr) -> HirStmt {
    HirStmt::Assign {
        place,
        value,
        span: Span::dummy(),
    }
}

fn s_set(id: LocalId, value: HirExpr) -> HirStmt {
    s_assign(HirPlace::Local(id), value)
}

fn p_idx(arr: LocalId, idx: HirExpr) -> HirPlace {
    HirPlace::Index {
        base: Box::new(HirPlace::Local(arr)),
        index: Box::new(idx),
    }
}

fn e_idx(arr: LocalId, idx: HirExpr, elem_ty: Type) -> HirExpr {
    HirExpr {
        kind: HirExprKind::Load(Box::new(p_idx(arr, idx))),
        ty: elem_ty,
    }
}

fn s_if(cond: HirExpr, then: Vec<HirStmt>, els: Vec<HirStmt>) -> HirStmt {
    HirStmt::If {
        cond,
        then: HirBlock { stmts: then },
        els: HirBlock { stmts: els },
    }
}

fn alloc_local(locals: &mut Vec<HirLocal>, name: String, ty: Type) -> LocalId {
    locals.push(HirLocal {
        name,
        ty,
        is_param: false,
        bank: MemBank::Auto,
        rom: None,
        ii: None,
    });
    LocalId((locals.len() - 1) as u32)
}

// ---------------------------------------------------------------------------
// Value ranges
// ---------------------------------------------------------------------------

fn range_of_scalar(ty: &Type) -> Option<Range> {
    match ty {
        Type::Bool => Some(Range { lo: 0, hi: 1 }),
        Type::Int(it) => Some(Range::of_type(*it)),
        _ => None,
    }
}

/// Value of a canonical constant as a mathematical integer in its type.
fn const_val(v: i64, ty: &Type) -> i128 {
    match ty {
        Type::Int(it) if !it.signed => ((v as u64) & it.mask()) as i128,
        Type::Int(it) => it.canonicalize(v) as i128,
        Type::Bool => (v != 0) as i128,
        _ => v as i128,
    }
}

/// Interval evaluation of a scalar expression given parameter ranges.
/// Sound: falls back to the full type range whenever the computed interval
/// could wrap.
fn expr_range(e: &HirExpr, func: &HirFunc, params: &[Option<Range>]) -> Range {
    let Some(full) = range_of_scalar(&e.ty) else {
        return Range::exact(0);
    };
    let within = |r: Range| {
        if r.lo >= full.lo && r.hi <= full.hi {
            r
        } else {
            full
        }
    };
    match &e.kind {
        HirExprKind::Const(v) => {
            let c = const_val(*v, &e.ty);
            Range { lo: c, hi: c }
        }
        HirExprKind::Load(p) => match &**p {
            HirPlace::Local(id) if (id.0 as usize) < func.num_params => params
                .get(id.0 as usize)
                .copied()
                .flatten()
                .map(within)
                .unwrap_or(full),
            _ => full,
        },
        HirExprKind::Cast(inner) => {
            if inner.ty.is_scalar() {
                within(expr_range(inner, func, params))
            } else {
                full
            }
        }
        HirExprKind::Binary(op, a, b) => {
            let ra = expr_range(a, func, params);
            let rb = expr_range(b, func, params);
            match op {
                BinOp::Add => within(Range {
                    lo: ra.lo + rb.lo,
                    hi: ra.hi + rb.hi,
                }),
                BinOp::Sub => within(Range {
                    lo: ra.lo - rb.hi,
                    hi: ra.hi - rb.lo,
                }),
                BinOp::Mul => {
                    let ps = [ra.lo * rb.lo, ra.lo * rb.hi, ra.hi * rb.lo, ra.hi * rb.hi];
                    within(Range {
                        lo: *ps.iter().min().expect("non-empty"),
                        hi: *ps.iter().max().expect("non-empty"),
                    })
                }
                _ => full,
            }
        }
        HirExprKind::Select(_, t, f) => {
            within(expr_range(t, func, params).union(expr_range(f, func, params)))
        }
        HirExprKind::Unary(UnOp::Neg, a) => {
            let ra = expr_range(a, func, params);
            within(Range {
                lo: -ra.hi,
                hi: -ra.lo,
            })
        }
        _ => full,
    }
}

// ---------------------------------------------------------------------------
// Walkers
// ---------------------------------------------------------------------------

fn block_contains_return(block: &HirBlock) -> bool {
    block.any_stmt(&mut |s| matches!(s, HirStmt::Return(_)))
}

/// Number of statements anywhere in the block that write local `x`
/// (assignments, call destinations, receives).
fn count_writes(block: &HirBlock, x: LocalId) -> usize {
    let mut n = 0;
    block.for_each_stmt(&mut |s| {
        let hit = match s {
            HirStmt::Assign { place, .. } => place.root_local() == Some(x),
            HirStmt::Call { dst: Some(d), .. } => d.root_local() == Some(x),
            HirStmt::Recv { dst, .. } => dst.root_local() == Some(x),
            _ => false,
        };
        if hit {
            n += 1;
        }
    });
    n
}

/// True when `&x` appears anywhere in the block (a pointer could then
/// write `x` behind our back).
fn addr_taken(block: &HirBlock, x: LocalId) -> bool {
    let mut hit = false;
    block.for_each_expr(&mut |e| {
        fn scan(e: &HirExpr, x: LocalId, hit: &mut bool) {
            match &e.kind {
                HirExprKind::AddrOf(p) if p.root_local() == Some(x) => {
                    *hit = true;
                }
                HirExprKind::Unary(_, a) | HirExprKind::Cast(a) => scan(a, x, hit),
                HirExprKind::Binary(_, a, b) => {
                    scan(a, x, hit);
                    scan(b, x, hit);
                }
                HirExprKind::Select(c, t, f) => {
                    scan(c, x, hit);
                    scan(t, x, hit);
                    scan(f, x, hit);
                }
                _ => {}
            }
        }
        scan(e, x, &mut hit);
    });
    hit
}

/// True when a `continue` at this loop's level exists (it would skip a
/// trailing update in a `while` body).
fn has_loop_level_continue(block: &HirBlock) -> bool {
    block.stmts.iter().any(|s| match s {
        HirStmt::Continue => true,
        // A nested loop's `continue` targets that loop — opaque.
        HirStmt::While { .. } | HirStmt::DoWhile { .. } | HirStmt::For { .. } => false,
        _ => s.blocks().any(has_loop_level_continue),
    })
}

fn reachable_from(prog: &HirProgram, entry: FuncId) -> Vec<FuncId> {
    let mut seen = HashSet::new();
    let mut order = Vec::new();
    let mut stack = vec![entry];
    while let Some(f) = stack.pop() {
        if !seen.insert(f) {
            continue;
        }
        order.push(f);
        stack.extend(prog.func(f).callees.iter().copied());
    }
    order.sort();
    order
}

fn collect_callees(block: &HirBlock) -> Vec<FuncId> {
    let mut out = Vec::new();
    block.for_each_stmt(&mut |s| {
        if let HirStmt::Call { func, .. } = s {
            if !out.contains(func) {
                out.push(*func);
            }
        }
    });
    out
}

// ---------------------------------------------------------------------------
// Interprocedural parameter ranges (skipping intra-cycle edges)
// ---------------------------------------------------------------------------

/// Computes, for every reachable function, an interval per scalar parameter
/// covering all values flowing in from *outside its recursion cycle*.
/// Entry parameters get their full declared-type range.
fn entry_param_ranges(
    prog: &HirProgram,
    entry: FuncId,
    cycles: &[Vec<FuncId>],
) -> Vec<Vec<Option<Range>>> {
    let mut scc_of: HashMap<FuncId, usize> = HashMap::new();
    for (i, c) in cycles.iter().enumerate() {
        for f in c {
            scc_of.insert(*f, i);
        }
    }
    let same_cycle = |a: FuncId, b: FuncId| matches!((scc_of.get(&a), scc_of.get(&b)), (Some(x), Some(y)) if x == y);
    let mut ranges: Vec<Vec<Option<Range>>> = prog
        .funcs
        .iter()
        .map(|f| vec![None; f.num_params])
        .collect();
    for (j, (_, l)) in prog.func(entry).params().enumerate() {
        ranges[entry.0 as usize][j] = range_of_scalar(&l.ty);
    }
    let reach = reachable_from(prog, entry);
    for _ in 0..prog.funcs.len() + 2 {
        let mut changed = false;
        for &fid in &reach {
            let f = prog.func(fid);
            let params = ranges[fid.0 as usize].clone();
            let mut updates: Vec<(FuncId, usize, Range)> = Vec::new();
            f.body.for_each_stmt(&mut |s| {
                let HirStmt::Call {
                    func: callee, args, ..
                } = s
                else {
                    return;
                };
                let callee = *callee;
                if same_cycle(fid, callee) {
                    return;
                }
                let g = prog.func(callee);
                for (j, (_, l)) in g.params().enumerate() {
                    if !l.ty.is_scalar() {
                        continue;
                    }
                    if let Some(HirArg::Value(e)) = args.get(j) {
                        updates.push((callee, j, expr_range(e, f, &params)));
                    }
                }
            });
            for (callee, j, r) in updates {
                let slot = &mut ranges[callee.0 as usize][j];
                let merged = slot.map(|o| o.union(r)).unwrap_or(r);
                if *slot != Some(merged) {
                    *slot = Some(merged);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    ranges
}

// ---------------------------------------------------------------------------
// Loop trip-bound inference
// ---------------------------------------------------------------------------

/// Syntactic loop kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopKind {
    /// `while (cond) body`
    While,
    /// `do body while (cond);`
    DoWhile,
    /// `for (init; cond; step) body`
    For,
}

impl fmt::Display for LoopKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LoopKind::While => "while",
            LoopKind::DoWhile => "do-while",
            LoopKind::For => "for",
        })
    }
}

/// A proved trip-count upper bound.
#[derive(Debug, Clone)]
pub struct TripBound {
    /// Maximum number of body executions.
    pub trips: u64,
    /// The argument, in one sentence.
    pub why: String,
}

/// One loop found by [`scan_loops`], preorder-indexed within its function.
#[derive(Debug, Clone)]
pub struct LoopSite {
    /// Preorder index (stable between scan and transform).
    pub index: usize,
    /// Syntactic kind.
    pub kind: LoopKind,
    /// True when the trip count is not a static constant (`while`,
    /// `do-while`, and non-canonical `for` loops).
    pub data_dependent: bool,
    /// Proved bound, when one exists.
    pub bound: Option<TripBound>,
    /// Why no bound was proved (data-dependent loops only).
    pub reason: Option<String>,
}

/// Finds every loop in `func` and attempts a trip-bound proof for each
/// data-dependent one.
pub fn scan_loops(func: &HirFunc) -> Vec<LoopSite> {
    let mut sites = Vec::new();
    func.body.for_each_stmt(&mut |s| {
        let index = sites.len();
        match s {
            HirStmt::While { cond, body, .. } => {
                let res = infer_data_dep(func, LoopKind::While, None, cond, body, body);
                sites.push(site(index, LoopKind::While, true, res));
            }
            HirStmt::DoWhile { body, cond } => {
                let res = infer_data_dep(func, LoopKind::DoWhile, None, cond, body, body);
                sites.push(site(index, LoopKind::DoWhile, true, res));
            }
            HirStmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                if unroll::recognize(init, cond, step, body).is_err() {
                    let res = infer_data_dep(func, LoopKind::For, Some(init), cond, step, body);
                    sites.push(site(index, LoopKind::For, true, res));
                } else {
                    sites.push(LoopSite {
                        index,
                        kind: LoopKind::For,
                        data_dependent: false,
                        bound: None,
                        reason: None,
                    });
                }
            }
            _ => {}
        }
    });
    sites
}

fn site(index: usize, kind: LoopKind, dd: bool, res: Result<TripBound, String>) -> LoopSite {
    match res {
        Ok(b) => LoopSite {
            index,
            kind,
            data_dependent: dd,
            bound: Some(b),
            reason: None,
        },
        Err(r) => LoopSite {
            index,
            kind,
            data_dependent: dd,
            bound: None,
            reason: Some(r),
        },
    }
}

#[derive(Clone, Copy)]
enum Rhs {
    Cst(i128),
    Var(LocalId),
}

#[derive(Clone, Copy)]
enum Update {
    Dec(i128),
    Inc(i128),
    Shr(u32),
    ClearLow,
}

/// Strips casts that cannot change the value (the target type's range
/// contains the source type's range).
fn strip_widening(e: &HirExpr) -> &HirExpr {
    let mut cur = e;
    while let HirExprKind::Cast(inner) = &cur.kind {
        match (range_of_scalar(&inner.ty), range_of_scalar(&cur.ty)) {
            (Some(ri), Some(ro)) if ri.lo >= ro.lo && ri.hi <= ro.hi => cur = inner,
            _ => break,
        }
    }
    cur
}

/// Strips casts whose integer width is at least `w` bits: such a chain
/// preserves the low `w` bits, so modular updates (`+`, `-`, `&`, `>>` on
/// unsigned) computed through it are congruent to the narrow computation.
fn strip_casts_ge_width(e: &HirExpr, w: u16) -> &HirExpr {
    let mut cur = e;
    while let HirExprKind::Cast(inner) = &cur.kind {
        match (&cur.ty, &inner.ty) {
            (Type::Int(a), Type::Int(b)) if a.width >= w && b.width >= w => cur = inner,
            _ => break,
        }
    }
    cur
}

fn as_var(e: &HirExpr, func: &HirFunc) -> Option<LocalId> {
    match &strip_widening(e).kind {
        HirExprKind::Load(p) => match &**p {
            HirPlace::Local(id) if func.local(*id).ty.is_scalar() => Some(*id),
            _ => None,
        },
        _ => None,
    }
}

fn as_cst(e: &HirExpr) -> Option<i128> {
    let s = strip_widening(e);
    s.as_const().map(|v| const_val(v, &s.ty))
}

fn mirror(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

fn as_cmp(cond: &HirExpr, func: &HirFunc) -> Option<(LocalId, BinOp, Rhs)> {
    let HirExprKind::Binary(op, a, b) = &cond.kind else {
        return None;
    };
    if !matches!(
        op,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
    ) {
        return None;
    }
    if let Some(x) = as_var(a, func) {
        if let Some(c) = as_cst(b) {
            return Some((x, *op, Rhs::Cst(c)));
        }
        if let Some(y) = as_var(b, func) {
            return Some((x, *op, Rhs::Var(y)));
        }
    }
    if let (Some(c), Some(x)) = (as_cst(a), as_var(b, func)) {
        return Some((x, mirror(*op), Rhs::Cst(c)));
    }
    None
}

/// Parses `x = f(x)` update forms, looking through casts at least as wide
/// as `x` itself (congruent modulo `2^w`).
fn parse_update(value: &HirExpr, x: LocalId, w: u16) -> Option<Update> {
    let is_x = |e: &HirExpr| {
        matches!(&strip_casts_ge_width(e, w).kind,
            HirExprKind::Load(p) if matches!(&**p, HirPlace::Local(id) if *id == x))
    };
    let v = strip_casts_ge_width(value, w);
    let HirExprKind::Binary(op, a, b) = &v.kind else {
        return None;
    };
    match op {
        BinOp::Sub if is_x(a) => {
            let c = b.as_const().map(|c| const_val(c, &b.ty))?;
            match c {
                c if c > 0 => Some(Update::Dec(c)),
                c if c < 0 => Some(Update::Inc(-c)),
                _ => None,
            }
        }
        BinOp::Add if is_x(a) => {
            let c = b.as_const().map(|c| const_val(c, &b.ty))?;
            match c {
                c if c > 0 => Some(Update::Inc(c)),
                c if c < 0 => Some(Update::Dec(-c)),
                _ => None,
            }
        }
        BinOp::Add if is_x(b) => {
            let c = a.as_const().map(|c| const_val(c, &a.ty))?;
            (c > 0).then_some(Update::Inc(c))
        }
        BinOp::Shr if is_x(a) => {
            let k = b.as_const()?;
            (1..=63).contains(&k).then_some(Update::Shr(k as u32))
        }
        BinOp::BitAnd => {
            // x & (x - 1), either operand order.
            let is_xm1 = |e: &HirExpr| {
                let e = strip_casts_ge_width(e, w);
                matches!(&e.kind,
                    HirExprKind::Binary(BinOp::Sub, a, b)
                        if is_x(a) && b.as_const().map(|c| const_val(c, &b.ty)) == Some(1))
            };
            ((is_x(a) && is_xm1(b)) || (is_xm1(a) && is_x(b))).then_some(Update::ClearLow)
        }
        _ => None,
    }
}

fn finish_bound(trips: i128, why: String) -> Result<TripBound, String> {
    let trips = trips.max(0);
    if trips > MAX_TRIPS {
        return Err(format!("proved bound {trips} is unboundedly large"));
    }
    Ok(TripBound {
        trips: trips as u64,
        why,
    })
}

fn ceil_div(n: i128, d: i128) -> i128 {
    if n <= 0 {
        0
    } else {
        (n + d - 1) / d
    }
}

/// Attempts a trip-bound proof for a data-dependent loop.
///
/// `update_block` is where the induction update must live: the body for
/// `while`/`do-while`, the step block for `for`.
fn infer_data_dep(
    func: &HirFunc,
    kind: LoopKind,
    init: Option<&HirBlock>,
    cond: &HirExpr,
    update_block: &HirBlock,
    body: &HirBlock,
) -> Result<TripBound, String> {
    if kind != LoopKind::For && has_loop_level_continue(body) {
        return Err("a `continue` may skip the loop update".to_string());
    }
    if kind != LoopKind::For {
        if let Some(b) = infer_halving(func, cond, body) {
            return Ok(b);
        }
    }
    let (x, op, rhs) = as_cmp(cond, func)
        .ok_or_else(|| "loop condition is not a comparison on a scalar variable".to_string())?;
    if addr_taken(&func.body, x) {
        return Err(format!(
            "address of `{}` is taken; it may change through a pointer",
            func.local(x).name
        ));
    }
    // Exactly one unconditional top-level update of x.
    let total = count_writes(update_block, x)
        + if kind == LoopKind::For {
            count_writes(body, x)
        } else {
            0
        };
    if total != 1 {
        return Err(format!(
            "`{}` is not updated exactly once per iteration",
            func.local(x).name
        ));
    }
    let upd_value = update_block
        .stmts
        .iter()
        .find_map(|s| match s {
            HirStmt::Assign {
                place: HirPlace::Local(v),
                value,
                ..
            } if *v == x => Some(value),
            _ => None,
        })
        .ok_or_else(|| {
            format!(
                "the update of `{}` is conditional or nested",
                func.local(x).name
            )
        })?;
    let xty = func.local(x).ty.clone();
    let Some(it) = xty.as_int() else {
        return Err("loop variable is not an integer".to_string());
    };
    let xr = Range::of_type(it);
    let xname = func.local(x).name.clone();
    let upd = parse_update(upd_value, x, it.width).ok_or_else(|| {
        format!("the update of `{xname}` is not a recognized monotone form (`+c`, `-c`, `>>k`, `& (x-1)`)")
    })?;
    // For `for` loops a constant init tightens the starting point.
    let x0 = init.and_then(|b| {
        b.stmts.iter().find_map(|s| match s {
            HirStmt::Assign {
                place: HirPlace::Local(v),
                value,
                ..
            } if *v == x => value.as_const().map(|c| const_val(c, &value.ty)),
            _ => None,
        })
    });
    // Resolve a variable bound to its type range, requiring it loop-invariant.
    let resolve = |v: LocalId, want_hi: bool| -> Result<i128, String> {
        if count_writes(body, v) != 0
            || init.is_some() && count_writes(update_block, v) != 0
            || addr_taken(&func.body, v)
        {
            return Err(format!(
                "loop bound `{}` is modified inside the loop",
                func.local(v).name
            ));
        }
        let r = range_of_scalar(&func.local(v).ty)
            .ok_or_else(|| "loop bound is not scalar".to_string())?;
        Ok(if want_hi { r.hi } else { r.lo })
    };
    let width = it.width;
    let modulus = xr.hi - xr.lo + 1;
    let mut trips = match (upd, op) {
        (Update::Shr(k), BinOp::Ne | BinOp::Gt | BinOp::Ge) => {
            if it.signed {
                return Err(format!(
                    "`{xname} >> {k}` on a signed variable may never reach the exit value"
                ));
            }
            let c = matches!(
                (op, rhs),
                (BinOp::Ne, Rhs::Cst(0)) | (BinOp::Gt, Rhs::Cst(0)) | (BinOp::Ge, Rhs::Cst(1))
            );
            if !c {
                return Err(format!("`{xname} >> {k}` needs an exit test against zero"));
            }
            let t = ceil_div(width as i128, k as i128);
            return finish_bound(
                t,
                format!("`{xname}` (uint<{width}>) shifts right by {k} toward 0; ≤ {t} trips"),
            );
        }
        (Update::ClearLow, BinOp::Ne) => {
            if !matches!(rhs, Rhs::Cst(0)) {
                return Err(format!(
                    "`{xname} & ({xname}-1)` needs an exit test against 0"
                ));
            }
            return finish_bound(
                width as i128,
                format!("`{xname}` clears one set bit per trip; ≤ {width} trips"),
            );
        }
        (Update::Dec(c), BinOp::Gt) => {
            let bound = match rhs {
                Rhs::Cst(v) => v,
                Rhs::Var(v) => resolve(v, false)?,
            };
            if bound + 1 - c < xr.lo {
                return Err(format!(
                    "`{xname} -= {c}` may wrap below {} before the exit test",
                    xr.lo
                ));
            }
            ceil_div(x0.unwrap_or(xr.hi) - bound, c)
        }
        (Update::Dec(c), BinOp::Ge) => {
            let bound = match rhs {
                Rhs::Cst(v) => v,
                Rhs::Var(v) => resolve(v, false)?,
            };
            if bound - c < xr.lo {
                return Err(format!(
                    "`{xname} -= {c}` may wrap below {} before the exit test",
                    xr.lo
                ));
            }
            ceil_div(x0.unwrap_or(xr.hi) - bound + 1, c)
        }
        (Update::Dec(c), BinOp::Ne) => {
            let Rhs::Cst(v) = rhs else {
                return Err("`!=` exit against a variable bound is not supported".to_string());
            };
            if c != 1 {
                return Err(format!(
                    "`{xname} -= {c}` with `!=` exit may step over the bound"
                ));
            }
            if v == xr.lo {
                x0.unwrap_or(xr.hi) - v
            } else {
                modulus
            }
        }
        (Update::Inc(c), BinOp::Lt) => {
            let bound = match rhs {
                Rhs::Cst(v) => v,
                Rhs::Var(v) => resolve(v, true)?,
            };
            if bound - 1 + c > xr.hi {
                return Err(format!(
                    "`{xname} += {c}` may wrap above {} before the exit test",
                    xr.hi
                ));
            }
            ceil_div(bound - x0.unwrap_or(xr.lo), c)
        }
        (Update::Inc(c), BinOp::Le) => {
            let bound = match rhs {
                Rhs::Cst(v) => v,
                Rhs::Var(v) => resolve(v, true)?,
            };
            if bound + c > xr.hi {
                return Err(format!(
                    "`{xname} += {c}` may wrap above {} before the exit test",
                    xr.hi
                ));
            }
            ceil_div(bound - x0.unwrap_or(xr.lo) + 1, c)
        }
        (Update::Inc(c), BinOp::Ne) => {
            let Rhs::Cst(v) = rhs else {
                return Err("`!=` exit against a variable bound is not supported".to_string());
            };
            if c != 1 {
                return Err(format!(
                    "`{xname} += {c}` with `!=` exit may step over the bound"
                ));
            }
            if v == xr.hi {
                v - x0.unwrap_or(xr.lo)
            } else {
                modulus
            }
        }
        _ => {
            return Err(format!(
                "the update of `{xname}` does not move it toward the exit condition"
            ))
        }
    };
    if kind == LoopKind::DoWhile {
        trips += 1;
    }
    let dir = match upd {
        Update::Dec(c) => format!("decreases by {c}"),
        Update::Inc(c) => format!("increases by {c}"),
        _ => unreachable!("shift/clear handled above"),
    };
    let why = format!(
        "`{xname}` ({}) {dir} per trip toward the exit; ≤ {trips} trips",
        Type::Int(it)
    );
    finish_bound(trips, why)
}

/// Binary-search halving: `while (lo <= hi)` with `mid = lo + (hi-lo)/2`
/// and every path through the body either assigning `lo = mid+1`,
/// `hi = mid-1`, returning, or breaking. The live interval at least halves
/// per progress step, so trips ≤ width + 2.
fn infer_halving(func: &HirFunc, cond: &HirExpr, body: &HirBlock) -> Option<TripBound> {
    let (lo, op, Rhs::Var(hi)) = as_cmp(cond, func)? else {
        return None;
    };
    if !matches!(op, BinOp::Le | BinOp::Lt) {
        return None;
    }
    let it = func.local(lo).ty.as_int()?;
    if func.local(hi).ty.as_int() != Some(it) {
        return None;
    }
    if addr_taken(&func.body, lo) || addr_taken(&func.body, hi) {
        return None;
    }
    let is_load = |e: &HirExpr, v: LocalId| {
        matches!(&strip_widening(e).kind,
            HirExprKind::Load(p) if matches!(&**p, HirPlace::Local(id) if *id == v))
    };
    // First top-level statement assigning `mid = lo + (hi - lo) / 2`.
    let mid = body.stmts.iter().find_map(|s| match s {
        HirStmt::Assign {
            place: HirPlace::Local(m),
            value,
            ..
        } => {
            let v = strip_widening(value);
            let HirExprKind::Binary(BinOp::Add, a, b) = &v.kind else {
                return None;
            };
            if !is_load(a, lo) {
                return None;
            }
            let HirExprKind::Binary(BinOp::Div, d, two) = &strip_widening(b).kind else {
                return None;
            };
            if two.as_const() != Some(2) {
                return None;
            }
            let HirExprKind::Binary(BinOp::Sub, h, l) = &strip_widening(d).kind else {
                return None;
            };
            (is_load(h, hi) && is_load(l, lo)).then_some(*m)
        }
        _ => None,
    })?;
    if mid == lo || mid == hi || addr_taken(&func.body, mid) {
        return None;
    }
    // Every write to lo/hi/mid must be one of the three sanctioned forms.
    let mut ok = true;
    let is_mid_pm1 = |e: &HirExpr, op: BinOp| {
        let v = strip_widening(e);
        matches!(&v.kind,
            HirExprKind::Binary(o, a, b)
                if *o == op && is_load(a, mid) && b.as_const() == Some(1))
    };
    body.for_each_stmt(&mut |s| {
        let writes = |p: &HirPlace, v: LocalId| p.root_local() == Some(v);
        match s {
            HirStmt::Assign { place, value, .. } => {
                if writes(place, lo) && !is_mid_pm1(value, BinOp::Add) {
                    ok = false;
                }
                if writes(place, hi) && !is_mid_pm1(value, BinOp::Sub) {
                    ok = false;
                }
            }
            HirStmt::Call { dst: Some(d), .. } if [lo, hi, mid].iter().any(|v| writes(d, *v)) => {
                ok = false;
            }
            HirStmt::Recv { dst, .. } if [lo, hi, mid].iter().any(|v| writes(dst, *v)) => {
                ok = false;
            }
            _ => {}
        }
    });
    if !ok || count_writes(body, mid) != 1 {
        return None;
    }
    // Every path must make progress (assign lo or hi) or exit.
    let refs: Vec<&HirStmt> = body.stmts.iter().collect();
    if !paths_progress(&refs, lo, hi) {
        return None;
    }
    let trips = it.width as u64 + 2;
    Some(TripBound {
        trips,
        why: format!(
            "binary-search halving of [{}, {}] ({}): interval at least halves per trip; ≤ {trips} trips",
            func.local(lo).name,
            func.local(hi).name,
            Type::Int(it),
        ),
    })
}

/// True when every control path through `seq` assigns `lo` or `hi`,
/// returns, or breaks before falling off the end.
fn paths_progress(seq: &[&HirStmt], lo: LocalId, hi: LocalId) -> bool {
    let Some((first, rest)) = seq.split_first() else {
        return false;
    };
    match first {
        HirStmt::Assign {
            place: HirPlace::Local(v),
            ..
        } if *v == lo || *v == hi => true,
        HirStmt::Return(_) | HirStmt::Break => true,
        HirStmt::If { then, els, .. } => {
            // Both arms (with the continuation) must progress.
            let mut t: Vec<&HirStmt> = then.stmts.iter().collect();
            t.extend_from_slice(rest);
            let mut e: Vec<&HirStmt> = els.stmts.iter().collect();
            e.extend_from_slice(rest);
            paths_progress(&t, lo, hi) && paths_progress(&e, lo, hi)
        }
        HirStmt::Block(b) => {
            let mut v: Vec<&HirStmt> = b.stmts.iter().collect();
            v.extend_from_slice(rest);
            paths_progress(&v, lo, hi)
        }
        _ => paths_progress(rest, lo, hi),
    }
}

// ---------------------------------------------------------------------------
// Loop bounding transform
// ---------------------------------------------------------------------------

/// `done = false; for (i = 0; i < n; i++) { if (!done) { inner } }`
///
/// `inner` is responsible for setting `done` when the original exit
/// condition fires. The caller allocates `done` so `inner` can reference it.
fn counted_shell(
    n: i64,
    done: LocalId,
    inner: Vec<HirStmt>,
    locals: &mut Vec<HirLocal>,
    tag: &str,
) -> Vec<HirStmt> {
    let i = alloc_local(locals, format!("__rw_i{tag}"), Type::int());
    let guard = s_if(e_not(e_load(done, Type::Bool)), inner, vec![]);
    vec![
        s_set(done, e_bool(false)),
        HirStmt::For {
            init: HirBlock {
                stmts: vec![s_set(i, e_int(0))],
            },
            cond: e_cmp(BinOp::Lt, e_load(i, Type::int()), e_int(n)),
            step: HirBlock {
                stmts: vec![s_set(
                    i,
                    e_bin(BinOp::Add, e_load(i, Type::int()), e_int(1), Type::int()),
                )],
            },
            body: HirBlock { stmts: vec![guard] },
            unroll: None,
        },
    ]
}

/// Rewrites loop-level `continue`s to run `extra` first (used to keep the
/// `for`-step / `do-while`-test semantics when the loop is restructured).
fn map_loop_continues(block: &mut HirBlock, extra: &[HirStmt]) {
    for s in &mut block.stmts {
        match s {
            HirStmt::Continue => {
                let mut stmts = extra.to_vec();
                stmts.push(HirStmt::Continue);
                *s = HirStmt::Block(HirBlock { stmts });
            }
            // A nested loop's `continue` targets that loop.
            HirStmt::While { .. } | HirStmt::DoWhile { .. } | HirStmt::For { .. } => {}
            _ => {
                for b in s.blocks_mut() {
                    map_loop_continues(b, extra);
                }
            }
        }
    }
}

/// Bounds every provably-bounded data-dependent loop in `func` into a
/// counted `for` with a done flag. Returns one action per data-dependent
/// loop (applied or not).
pub fn bound_loops(func: &mut HirFunc, opts: &RewriteOptions) -> Vec<RewriteAction> {
    let sites = scan_loops(func);
    if !sites.iter().any(|s| s.data_dependent) {
        return Vec::new();
    }
    let mut actions = Vec::new();
    let mut body = std::mem::take(&mut func.body);
    let mut locals = std::mem::take(&mut func.locals);
    let mut counter = 0usize;
    transform_block(
        &mut body,
        &sites,
        &mut counter,
        &mut locals,
        opts,
        &mut actions,
    );
    func.body = body;
    func.locals = locals;
    actions
}

fn transform_block(
    block: &mut HirBlock,
    sites: &[LoopSite],
    counter: &mut usize,
    locals: &mut Vec<HirLocal>,
    opts: &RewriteOptions,
    actions: &mut Vec<RewriteAction>,
) {
    let old = std::mem::take(&mut block.stmts);
    let mut out = Vec::new();
    for mut s in old {
        let my = match &s {
            HirStmt::While { .. } | HirStmt::DoWhile { .. } | HirStmt::For { .. } => {
                let m = *counter;
                *counter += 1;
                Some(m)
            }
            _ => None,
        };
        // Nested blocks in `HirStmt::blocks` order, the order in which
        // `scan_loops` numbered the sites.
        for b in s.blocks_mut() {
            transform_block(b, sites, counter, locals, opts, actions);
        }
        let Some(my) = my else {
            out.push(s);
            continue;
        };
        let siteinfo = &sites[my];
        if !siteinfo.data_dependent {
            out.push(s);
            continue;
        }
        let target = format!("{} loop #{}", siteinfo.kind, siteinfo.index);
        match &siteinfo.bound {
            None => {
                actions.push(RewriteAction {
                    pass: "loop-bound",
                    target,
                    applied: false,
                    detail: siteinfo
                        .reason
                        .clone()
                        .unwrap_or_else(|| "no bound proved".to_string()),
                });
                out.push(s);
            }
            Some(b) if b.trips > opts.max_counted_bound => {
                actions.push(RewriteAction {
                    pass: "loop-bound",
                    target,
                    applied: false,
                    detail: format!(
                        "{} — bound {} exceeds the counted-loop limit {}",
                        b.why, b.trips, opts.max_counted_bound
                    ),
                });
                out.push(s);
            }
            Some(b) => {
                let tag = my.to_string();
                let n = b.trips as i64;
                let done = alloc_local(locals, format!("__rw_done{tag}"), Type::Bool);
                let set_done = s_set(done, e_bool(true));
                match s {
                    HirStmt::While { cond, body, .. } => {
                        let inner = s_if(cond, body.stmts, vec![set_done]);
                        out.extend(counted_shell(n, done, vec![inner], locals, &tag));
                    }
                    HirStmt::DoWhile { mut body, cond } => {
                        let test = s_if(cond, vec![], vec![set_done]);
                        map_loop_continues(&mut body, std::slice::from_ref(&test));
                        let mut inner = body.stmts;
                        inner.push(test);
                        out.extend(counted_shell(n, done, inner, locals, &tag));
                    }
                    HirStmt::For {
                        init,
                        cond,
                        step,
                        mut body,
                        ..
                    } => {
                        map_loop_continues(&mut body, &step.stmts);
                        let mut taken = body.stmts;
                        taken.extend(step.stmts);
                        let inner = s_if(cond, taken, vec![set_done]);
                        out.extend(init.stmts);
                        out.extend(counted_shell(n, done, vec![inner], locals, &tag));
                    }
                    _ => unreachable!("only loops reach here"),
                }
                actions.push(RewriteAction {
                    pass: "loop-bound",
                    target,
                    applied: true,
                    detail: b.why.clone(),
                });
            }
        }
    }
    block.stmts = out;
}

// ---------------------------------------------------------------------------
// Recursion planning
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct SegCall {
    callee: FuncId,
    dst: Option<LocalId>,
    args: Vec<HirArg>,
}

#[derive(Debug, Clone)]
struct Segment {
    stmts: Vec<HirStmt>,
    call: Option<SegCall>,
}

#[derive(Debug, Clone)]
struct RecursionPlan {
    root: FuncId,
    /// Cycle members, root first.
    order: Vec<FuncId>,
    /// Maximum simultaneously-live frames (stack capacity).
    depth: u64,
    /// Upper bound on dispatch-loop iterations (frame visits).
    steps: u64,
    /// Human-readable proof summary.
    detail: String,
    /// Per `order` entry: the function body split at its in-cycle calls.
    segments: Vec<Vec<Segment>>,
    /// (func, array-param index) → the root parameter it always aliases.
    array_map: HashMap<(FuncId, usize), LocalId>,
}

fn cycle_names(prog: &HirProgram, cycle: &[FuncId]) -> String {
    cycle
        .iter()
        .map(|f| prog.func(*f).name.clone())
        .collect::<Vec<_>>()
        .join(" -> ")
}

/// Splits `f`'s body into segments at top-level in-cycle calls, rejecting
/// shapes the stack machine cannot faithfully replay.
fn segment_func(
    prog: &HirProgram,
    fid: FuncId,
    in_cycle: &HashSet<FuncId>,
) -> Result<Vec<Segment>, String> {
    let f = prog.func(fid);
    let name = &f.name;
    if f.uses_par {
        return Err(format!("`{name}` uses `par` inside recursion"));
    }
    if f.uses_channels {
        return Err(format!("`{name}` uses channels inside recursion"));
    }
    if f.body
        .any_stmt(&mut |s| matches!(s, HirStmt::Delay | HirStmt::Constraint { .. }))
    {
        return Err(format!(
            "`{name}` uses timing constructs (`delay`/`#pragma constraint`) inside recursion"
        ));
    }
    for l in &f.locals {
        match &l.ty {
            Type::Ptr(_) => {
                return Err(format!(
                    "pointer-typed `{}` in recursive function `{name}`",
                    l.name
                ))
            }
            Type::Array(..) if !l.is_param && l.rom.is_none() => {
                return Err(format!(
                    "writable local array `{}` in recursive function `{name}`",
                    l.name
                ))
            }
            _ => {}
        }
    }
    // `return` inside a loop cannot be linearized with a live flag.
    if f.body.any_stmt(&mut |s| match s {
        HirStmt::While { body, .. } | HirStmt::DoWhile { body, .. } | HirStmt::For { body, .. } => {
            block_contains_return(body)
        }
        _ => false,
    }) {
        return Err(format!(
            "`return` inside a loop in recursive function `{name}`"
        ));
    }
    let mut segs = Vec::new();
    let mut cur: Vec<HirStmt> = Vec::new();
    for s in &f.body.stmts {
        if let HirStmt::Call {
            dst, func, args, ..
        } = s
        {
            if in_cycle.contains(func) {
                let dst = match dst {
                    None => None,
                    Some(HirPlace::Local(d)) => Some(*d),
                    Some(_) => {
                        return Err(format!(
                            "recursive call result in `{name}` targets a non-scalar place"
                        ))
                    }
                };
                segs.push(Segment {
                    stmts: std::mem::take(&mut cur),
                    call: Some(SegCall {
                        callee: *func,
                        dst,
                        args: args.clone(),
                    }),
                });
                continue;
            }
        }
        let nested = s.blocks().any(|b| {
            b.any_stmt(
                &mut |inner| matches!(inner, HirStmt::Call { func, .. } if in_cycle.contains(func)),
            )
        });
        if nested {
            return Err(format!(
                "a recursive call in `{name}` is nested inside control flow \
                 (only top-level `x = f(...)` calls can be staged)"
            ));
        }
        cur.push(s.clone());
    }
    segs.push(Segment {
        stmts: cur,
        call: None,
    });
    Ok(segs)
}

fn block_definitely_returns(b: &HirBlock) -> bool {
    match b.stmts.last() {
        Some(HirStmt::Return(_)) => true,
        Some(HirStmt::If { then, els, .. }) => {
            block_definitely_returns(then) && block_definitely_returns(els)
        }
        Some(HirStmt::Block(inner)) => block_definitely_returns(inner),
        _ => false,
    }
}

/// Parses a recursive-call argument as `measure - k` (through casts at
/// least as wide as the measure; the wrap check below keeps this exact).
fn parse_measure_dec(e: &HirExpr, j: usize, w: u16) -> Option<i128> {
    let is_p = |e: &HirExpr| {
        matches!(&strip_casts_ge_width(e, w).kind,
            HirExprKind::Load(p) if matches!(&**p, HirPlace::Local(id) if id.0 as usize == j))
    };
    let v = strip_casts_ge_width(e, w);
    let HirExprKind::Binary(op, a, b) = &v.kind else {
        return None;
    };
    let c = b.as_const().map(|c| const_val(c, &b.ty))?;
    match op {
        BinOp::Sub if is_p(a) && c > 0 => Some(c),
        BinOp::Add if is_p(a) && c < 0 => Some(-c),
        _ => None,
    }
}

fn plan_recursion(
    prog: &HirProgram,
    cycle: &[FuncId],
    entry: FuncId,
    reach: &HashSet<FuncId>,
    ranges: &[Vec<Option<Range>>],
) -> Result<RecursionPlan, String> {
    let in_cycle: HashSet<FuncId> = cycle.iter().copied().collect();
    // Unique entry point into the cycle.
    let mut roots: HashSet<FuncId> = HashSet::new();
    if in_cycle.contains(&entry) {
        roots.insert(entry);
    }
    for &fid in reach {
        if in_cycle.contains(&fid) {
            continue;
        }
        prog.func(fid).body.for_each_stmt(&mut |s| {
            if let HirStmt::Call { func, .. } = s {
                if in_cycle.contains(func) {
                    roots.insert(*func);
                }
            }
        });
    }
    if roots.len() != 1 {
        return Err(format!(
            "recursion cycle is entered at {} functions (need exactly one)",
            roots.len()
        ));
    }
    let root = *roots.iter().next().expect("exactly one root");
    let mut order = vec![root];
    order.extend(cycle.iter().copied().filter(|f| *f != root));

    let mut segments = Vec::new();
    for &fid in &order {
        segments.push(segment_func(prog, fid, &in_cycle)?);
    }

    // Thread array parameters to unique root parameters.
    let mut array_map: HashMap<(FuncId, usize), LocalId> = HashMap::new();
    let rootf = prog.func(root);
    for (j, (id, l)) in rootf.params().enumerate() {
        if matches!(l.ty, Type::Array(..)) {
            array_map.insert((root, j), id);
        }
    }
    for _ in 0..=order.len() {
        let mut changed = false;
        for (fpos, &fid) in order.iter().enumerate() {
            for seg in &segments[fpos] {
                let Some(call) = &seg.call else { continue };
                let g = prog.func(call.callee);
                for (j, (_, gl)) in g.params().enumerate() {
                    if !matches!(gl.ty, Type::Array(..)) {
                        continue;
                    }
                    let Some(HirArg::Array(HirPlace::Local(q))) = call.args.get(j) else {
                        return Err(format!(
                            "array argument {j} of a recursive call in `{}` is not a \
                             whole array parameter",
                            prog.func(fid).name
                        ));
                    };
                    if !prog.func(fid).local(*q).is_param {
                        return Err(format!(
                            "array argument `{}` of a recursive call in `{}` is not a \
                             threaded parameter",
                            prog.func(fid).local(*q).name,
                            prog.func(fid).name
                        ));
                    }
                    let Some(&r) = array_map.get(&(fid, q.0 as usize)) else {
                        continue;
                    };
                    match array_map.get(&(call.callee, j)) {
                        Some(&prev) if prev != r => {
                            return Err(format!(
                                "array parameter {j} of `{}` aliases different root arrays",
                                g.name
                            ))
                        }
                        Some(_) => {}
                        None => {
                            array_map.insert((call.callee, j), r);
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    for &fid in &order {
        for (j, (_, l)) in prog.func(fid).params().enumerate() {
            if matches!(l.ty, Type::Array(..)) {
                let Some(&r) = array_map.get(&(fid, j)) else {
                    return Err(format!(
                        "array parameter `{}` of `{}` is never bound to a root array",
                        l.name,
                        prog.func(fid).name
                    ));
                };
                if rootf.local(r).ty != l.ty {
                    return Err(format!(
                        "array parameter `{}` of `{}` changes type along the cycle",
                        l.name,
                        prog.func(fid).name
                    ));
                }
            }
        }
    }

    // Find a measure parameter: a scalar position j (same in every cycle
    // member) that strictly decreases at every in-cycle call.
    let min_params = order
        .iter()
        .map(|f| prog.func(*f).num_params)
        .min()
        .unwrap_or(0);
    let mut measure: Option<(usize, i128, i128)> = None; // (j, dec_min, k_max)
    'cand: for j in 0..min_params {
        let mut widths = Vec::new();
        for &fid in &order {
            let Some(it) = prog.func(fid).local(LocalId(j as u32)).ty.as_int() else {
                continue 'cand;
            };
            widths.push(it.width);
        }
        let mut dec_min = i128::MAX;
        let mut k_max = 0i128;
        for (fpos, &fid) in order.iter().enumerate() {
            let w = widths[fpos];
            // The measure must never be reassigned inside its function.
            if count_writes(&prog.func(fid).body, LocalId(j as u32)) != 0
                || addr_taken(&prog.func(fid).body, LocalId(j as u32))
            {
                continue 'cand;
            }
            for seg in &segments[fpos] {
                let Some(call) = &seg.call else { continue };
                let Some(HirArg::Value(e)) = call.args.get(j) else {
                    continue 'cand;
                };
                let Some(k) = parse_measure_dec(e, j, w) else {
                    continue 'cand;
                };
                dec_min = dec_min.min(k);
                k_max = k_max.max(k);
            }
        }
        measure = Some((j, dec_min, k_max));
        break;
    }
    let Some((j, dec_min, k_max)) = measure else {
        return Err(
            "no parameter strictly decreases at every recursive call (no bounded measure)"
                .to_string(),
        );
    };

    // Per-function recursing region: declared-type range (entry range for
    // the root) refined by dominating base-case guards in segment 0.
    let mname = prog.func(root).local(LocalId(j as u32)).name.clone();
    let mut global_hi = i128::MIN;
    let mut global_lo = i128::MAX;
    for (fpos, &fid) in order.iter().enumerate() {
        let f = prog.func(fid);
        let it = f.local(LocalId(j as u32)).ty.as_int().expect("checked");
        let tyr = Range::of_type(it);
        let mut r = tyr;
        if fid == root {
            if let Some(er) = ranges
                .get(root.0 as usize)
                .and_then(|v| v.get(j))
                .copied()
                .flatten()
            {
                r = r.intersect(er).unwrap_or(Range { lo: 1, hi: 0 });
            }
        }
        for s in &segments[fpos][0].stmts {
            let HirStmt::If { cond, then, els } = s else {
                continue;
            };
            let Some((x, op, Rhs::Cst(c))) = as_cmp(cond, f) else {
                continue;
            };
            if x.0 as usize != j {
                continue;
            }
            let then_exits = block_definitely_returns(then) && els.stmts.is_empty();
            let els_exits = block_definitely_returns(els) && then.stmts.is_empty();
            if then_exits {
                // Recursion continues only when !cond.
                match op {
                    BinOp::Lt => r.lo = r.lo.max(c),
                    BinOp::Le => r.lo = r.lo.max(c + 1),
                    BinOp::Gt => r.hi = r.hi.min(c),
                    BinOp::Ge => r.hi = r.hi.min(c - 1),
                    BinOp::Eq => {
                        if c == r.lo {
                            r.lo += 1;
                        } else if c == r.hi {
                            r.hi -= 1;
                        }
                    }
                    BinOp::Ne => {
                        r.lo = r.lo.max(c);
                        r.hi = r.hi.min(c);
                    }
                    _ => {}
                }
            } else if els_exits {
                // Recursion continues only when cond.
                match op {
                    BinOp::Lt => r.hi = r.hi.min(c - 1),
                    BinOp::Le => r.hi = r.hi.min(c),
                    BinOp::Gt => r.lo = r.lo.max(c + 1),
                    BinOp::Ge => r.lo = r.lo.max(c),
                    BinOp::Eq => {
                        r.lo = r.lo.max(c);
                        r.hi = r.hi.min(c);
                    }
                    BinOp::Ne => {
                        if c == r.lo {
                            r.lo += 1;
                        } else if c == r.hi {
                            r.hi -= 1;
                        }
                    }
                    _ => {}
                }
            }
        }
        if r.lo > r.hi {
            // This member never recurses; it contributes no chain frames.
            continue;
        }
        // Wrap check: measure - k stays representable.
        if r.lo - k_max < tyr.lo {
            return Err(format!(
                "measure `{mname}` may wrap: calls subtract up to {k_max} but `{}` \
                 can recurse at {}",
                f.name, r.lo
            ));
        }
        global_hi = global_hi.max(r.hi);
        global_lo = global_lo.min(r.lo);
    }
    let depth = if global_hi < global_lo {
        1
    } else {
        ((global_hi - global_lo) / dec_min + 2) as u64
    };
    if depth > MAX_STACK_DEPTH {
        return Err(format!(
            "proved stack depth {depth} exceeds the materialization limit {MAX_STACK_DEPTH}"
        ));
    }
    // Frame-visit bound: call-tree nodes for branching factor `fanout`
    // and height `depth`, times segments per frame.
    let fanout = segments
        .iter()
        .map(|s| s.len().saturating_sub(1))
        .max()
        .unwrap_or(0) as i128;
    let max_segs = segments.iter().map(Vec::len).max().unwrap_or(1) as i128;
    let mut nodes: i128 = 0;
    let mut pw: i128 = 1;
    for _ in 0..depth {
        nodes += pw;
        if fanout > 1 {
            pw = pw.saturating_mul(fanout);
        }
        if nodes > MAX_TRIPS {
            nodes = MAX_TRIPS;
            break;
        }
    }
    let steps = (nodes.saturating_mul(max_segs)).min(MAX_TRIPS) as u64;
    let detail = format!(
        "measure `{mname}` ∈ [{global_lo}, {global_hi}] decreases ≥{dec_min} per call; \
         stack depth ≤ {depth}, ≤ {steps} machine steps"
    );
    Ok(RecursionPlan {
        root,
        order,
        depth,
        steps,
        detail,
        segments,
        array_map,
    })
}

// ---------------------------------------------------------------------------
// Stack-machine emission
// ---------------------------------------------------------------------------

struct Machine {
    locals: Vec<HirLocal>,
    /// Per `order` position: callee-local → machine-local.
    maps: Vec<Vec<LocalBinding>>,
    remap: Vec<Vec<LocalId>>,
    /// (order position, local index) → stack array.
    stk: HashMap<(usize, usize), LocalId>,
    /// First state number per `order` position.
    bases: Vec<i64>,
    state_arr: LocalId,
    sp: LocalId,
    st: LocalId,
    live: LocalId,
    /// Per `order` position: return-value local (non-void only).
    ret: HashMap<usize, LocalId>,
}

impl Machine {
    fn sp_expr(&self) -> HirExpr {
        e_load(self.sp, Type::int())
    }
    fn sp_minus_1(&self) -> HirExpr {
        e_bin(BinOp::Sub, self.sp_expr(), e_int(1), Type::int())
    }
}

fn build_machine(prog: &HirProgram, plan: &RecursionPlan, cap: usize) -> Machine {
    let root = plan.root;
    let mut locals = prog.func(root).locals.clone();
    let mut remap: Vec<Vec<LocalId>> = Vec::new();
    for (fpos, &fid) in plan.order.iter().enumerate() {
        let f = prog.func(fid);
        let mut m = Vec::with_capacity(f.locals.len());
        for (li, l) in f.locals.iter().enumerate() {
            if fid == root {
                m.push(LocalId(li as u32));
                continue;
            }
            let target = match &l.ty {
                Type::Array(..) if l.is_param => plan.array_map[&(fid, li)],
                Type::Array(..) => {
                    // ROM array: copy it into the machine function.
                    locals.push(HirLocal {
                        name: format!("__rw_{}_{}", f.name, l.name),
                        is_param: false,
                        ..l.clone()
                    });
                    LocalId((locals.len() - 1) as u32)
                }
                _ => alloc_local(
                    &mut locals,
                    format!("__rw_{}_{}", f.name, l.name),
                    l.ty.clone(),
                ),
            };
            m.push(target);
        }
        let _ = fpos;
        remap.push(m);
    }
    let mut stk = HashMap::new();
    for (fpos, &fid) in plan.order.iter().enumerate() {
        let f = prog.func(fid);
        for (li, l) in f.locals.iter().enumerate() {
            if l.ty.is_scalar() {
                let arr = alloc_local(
                    &mut locals,
                    format!("__rw_stk_{}_{}", f.name, l.name),
                    Type::Array(Box::new(l.ty.clone()), cap),
                );
                stk.insert((fpos, li), arr);
            }
        }
    }
    let mut bases = Vec::new();
    let mut next = 0i64;
    for segs in &plan.segments {
        bases.push(next);
        next += segs.len() as i64;
    }
    let state_arr = alloc_local(
        &mut locals,
        "__rw_state".to_string(),
        Type::Array(Box::new(Type::int()), cap),
    );
    let sp = alloc_local(&mut locals, "__rw_sp".to_string(), Type::int());
    let st = alloc_local(&mut locals, "__rw_st".to_string(), Type::int());
    let live = alloc_local(&mut locals, "__rw_live".to_string(), Type::Bool);
    let mut ret = HashMap::new();
    for (fpos, &fid) in plan.order.iter().enumerate() {
        let f = prog.func(fid);
        if f.ret_ty != Type::Void {
            let r = alloc_local(
                &mut locals,
                format!("__rw_ret_{}", f.name),
                f.ret_ty.clone(),
            );
            ret.insert(fpos, r);
        }
    }
    let maps = remap
        .iter()
        .map(|m| m.iter().map(|id| LocalBinding::Fresh(*id)).collect())
        .collect();
    Machine {
        locals,
        maps,
        remap,
        stk,
        bases,
        state_arr,
        sp,
        st,
        live,
        ret,
    }
}

/// Lowers `return` to `ret = v; sp--; live = false`, wrapping statements
/// after a possibly-returning conditional in `if (live) { ... }` (the same
/// guarded linearization the inliner uses).
fn lower_returns(
    stmts: Vec<HirStmt>,
    ret: Option<LocalId>,
    ret_ty: &Type,
    m: &Machine,
) -> Vec<HirStmt> {
    let mut out = Vec::new();
    let mut it = stmts.into_iter();
    while let Some(s) = it.next() {
        match s {
            HirStmt::Return(v) => {
                if let (Some(rl), Some(e)) = (ret, v) {
                    out.push(s_set(rl, e_cast(e, ret_ty)));
                }
                out.push(s_set(m.sp, m.sp_minus_1()));
                out.push(s_set(m.live, e_bool(false)));
                return out; // anything after an unconditional return is dead
            }
            HirStmt::If { cond, then, els } => {
                let may = block_contains_return(&then) || block_contains_return(&els);
                out.push(HirStmt::If {
                    cond,
                    then: HirBlock {
                        stmts: lower_returns(then.stmts, ret, ret_ty, m),
                    },
                    els: HirBlock {
                        stmts: lower_returns(els.stmts, ret, ret_ty, m),
                    },
                });
                if may {
                    let rest = lower_returns(it.collect(), ret, ret_ty, m);
                    if !rest.is_empty() {
                        out.push(s_if(e_load(m.live, Type::Bool), rest, vec![]));
                    }
                    return out;
                }
            }
            HirStmt::Block(b) => {
                let may = block_contains_return(&b);
                out.push(HirStmt::Block(HirBlock {
                    stmts: lower_returns(b.stmts, ret, ret_ty, m),
                }));
                if may {
                    let rest = lower_returns(it.collect(), ret, ret_ty, m);
                    if !rest.is_empty() {
                        out.push(s_if(e_load(m.live, Type::Bool), rest, vec![]));
                    }
                    return out;
                }
            }
            other => out.push(other),
        }
    }
    out
}

fn seg_code(
    prog: &HirProgram,
    plan: &RecursionPlan,
    m: &Machine,
    fpos: usize,
    si: usize,
) -> Vec<HirStmt> {
    let fid = plan.order[fpos];
    let f = prog.func(fid);
    let segs = &plan.segments[fpos];
    let seg = &segs[si];
    let fpos_of = |g: FuncId| plan.order.iter().position(|x| *x == g).expect("in order");
    let mut code = Vec::new();
    // Consume the previous call's return value.
    if si > 0 {
        let pc = segs[si - 1].call.as_ref().expect("non-final segment");
        if let Some(d) = pc.dst {
            let gpos = fpos_of(pc.callee);
            let g = prog.func(pc.callee);
            let rl = m.ret[&gpos];
            let dty = f.local(d).ty.clone();
            code.push(s_set(
                m.remap[fpos][d.0 as usize],
                e_cast(e_load(rl, g.ret_ty.clone()), &dty),
            ));
        }
    }
    // Body statements, remapped into machine locals, returns lowered.
    let remapped = remap_block(
        &HirBlock {
            stmts: seg.stmts.clone(),
        },
        &m.maps[fpos],
    );
    code.extend(lower_returns(
        remapped.stmts,
        m.ret.get(&fpos).copied(),
        &f.ret_ty,
        m,
    ));
    match &seg.call {
        Some(call) => {
            let gpos = fpos_of(call.callee);
            let g = prog.func(call.callee);
            let mut push_code = Vec::new();
            // Save this frame's scalars, set its resume state.
            for (li, l) in f.locals.iter().enumerate() {
                if l.ty.is_scalar() {
                    push_code.push(s_assign(
                        p_idx(m.stk[&(fpos, li)], m.sp_minus_1()),
                        e_load(m.remap[fpos][li], l.ty.clone()),
                    ));
                }
            }
            push_code.push(s_assign(
                p_idx(m.state_arr, m.sp_minus_1()),
                e_int(m.bases[fpos] + si as i64 + 1),
            ));
            // Push the callee frame: scalar arguments and its start state.
            for (j, (_, gl)) in g.params().enumerate() {
                if !gl.ty.is_scalar() {
                    continue;
                }
                let HirArg::Value(e) = &call.args[j] else {
                    unreachable!("scalar parameter takes a value argument")
                };
                let e2 = remap_expr(e, &m.maps[fpos]);
                push_code.push(s_assign(
                    p_idx(m.stk[&(gpos, j)], m.sp_expr()),
                    e_cast(e2, &gl.ty),
                ));
            }
            push_code.push(s_assign(
                p_idx(m.state_arr, m.sp_expr()),
                e_int(m.bases[gpos]),
            ));
            push_code.push(s_set(
                m.sp,
                e_bin(BinOp::Add, m.sp_expr(), e_int(1), Type::int()),
            ));
            code.push(s_if(e_load(m.live, Type::Bool), push_code, vec![]));
        }
        None => {
            // Fall-off-the-end pop (no-op when a return already popped).
            code.push(s_if(
                e_load(m.live, Type::Bool),
                vec![s_set(m.sp, m.sp_minus_1())],
                vec![],
            ));
        }
    }
    code
}

/// Replaces the cycle root's body with the explicit stack machine.
fn emit_stack_machine(prog: &mut HirProgram, plan: &RecursionPlan, opts: &RewriteOptions) -> bool {
    let cap = opts.stack_cap_override.unwrap_or(plan.depth).max(1) as usize;
    let root = plan.root;
    let mut m = build_machine(prog, plan, cap);

    // Initial frame: root's scalar parameters, state 0, sp = 1.
    let rootf = prog.func(root);
    let mut init = Vec::new();
    for (li, l) in rootf.locals.iter().enumerate().take(rootf.num_params) {
        if l.ty.is_scalar() {
            init.push(s_assign(
                p_idx(m.stk[&(0, li)], e_int(0)),
                e_load(LocalId(li as u32), l.ty.clone()),
            ));
        }
    }
    init.push(s_assign(p_idx(m.state_arr, e_int(0)), e_int(0)));
    init.push(s_set(m.sp, e_int(1)));

    // One dispatch iteration.
    let mut iter = Vec::new();
    iter.push(s_set(m.st, e_idx(m.state_arr, m.sp_minus_1(), Type::int())));
    for (fpos, &fid) in plan.order.iter().enumerate() {
        for (li, l) in prog.func(fid).locals.iter().enumerate() {
            if l.ty.is_scalar() {
                iter.push(s_set(
                    m.remap[fpos][li],
                    e_idx(m.stk[&(fpos, li)], m.sp_minus_1(), l.ty.clone()),
                ));
            }
        }
    }
    iter.push(s_set(m.live, e_bool(true)));
    // Dispatch chain over all states, last one as the final else.
    let mut states: Vec<(usize, usize)> = Vec::new();
    for (fpos, segs) in plan.segments.iter().enumerate() {
        for si in 0..segs.len() {
            states.push((fpos, si));
        }
    }
    let (lf, ls) = *states.last().expect("at least one state");
    let mut chain = seg_code(prog, plan, &m, lf, ls);
    for &(fpos, si) in states.iter().rev().skip(1) {
        let s = m.bases[fpos] + si as i64;
        let code = seg_code(prog, plan, &m, fpos, si);
        chain = vec![s_if(
            e_cmp(BinOp::Eq, e_load(m.st, Type::int()), e_int(s)),
            code,
            chain,
        )];
    }
    iter.extend(chain);

    // Dispatch loop: counted when the step bound is small, `while` otherwise.
    let not_empty = e_cmp(BinOp::Gt, m.sp_expr(), e_int(0));
    let counted = plan.steps <= opts.max_counted_bound;
    let mut body = init;
    if counted {
        let done = alloc_local(&mut m.locals, "__rw_done_m".to_string(), Type::Bool);
        let inner = s_if(not_empty, iter, vec![s_set(done, e_bool(true))]);
        body.extend(counted_shell(
            plan.steps as i64,
            done,
            vec![inner],
            &mut m.locals,
            "_m",
        ));
    } else {
        body.push(HirStmt::While {
            cond: not_empty,
            body: HirBlock { stmts: iter },
            unroll: None,
        });
    }
    let rootf = prog.func(root);
    if rootf.ret_ty != Type::Void {
        body.push(HirStmt::Return(Some(e_load(
            m.ret[&0],
            rootf.ret_ty.clone(),
        ))));
    }
    let newbody = HirBlock { stmts: body };
    let callees = collect_callees(&newbody);
    let rootf = &mut prog.funcs[root.0 as usize];
    rootf.locals = m.locals;
    rootf.body = newbody;
    rootf.callees = callees;
    counted
}

// ---------------------------------------------------------------------------
// Pointer repair
// ---------------------------------------------------------------------------

/// Inlines the whole program into `entry` and lowers every pointer to an
/// indexed array access.
pub fn repair_pointers(prog: &HirProgram, entry: FuncId) -> Result<(HirProgram, PtrStats), String> {
    let mut p2 = inline_program(prog, entry).map_err(|e| e.to_string())?;
    let mut stats = PtrStats::default();
    lower_pointers(&mut p2.funcs[0], &mut stats).map_err(|e| e.to_string())?;
    Ok((p2, stats))
}

// ---------------------------------------------------------------------------
// Pipeline
// ---------------------------------------------------------------------------

/// Applies every provable synthesizability repair to `prog`, in order:
/// recursion → stack machine, pointer arithmetic → indexed arrays (via
/// whole-program inlining), data-dependent loops → bounded counted loops.
///
/// # Errors
///
/// Only when `entry` does not name a function; individual repairs that
/// cannot be proved are reported as unapplied [`RewriteAction`]s instead.
pub fn rewrite_program(
    prog: &HirProgram,
    entry: &str,
    opts: &RewriteOptions,
) -> Result<RewriteResult, String> {
    let (entry_id, _) = prog
        .func_by_name(entry)
        .ok_or_else(|| format!("no function named `{entry}`"))?;
    let mut prog = prog.clone();
    let mut actions = Vec::new();
    // Roots whose body became a `while`-dispatch stack machine, with the
    // proved step bound: their dispatch loop is bounded by construction,
    // and step 3 must say so instead of reporting an opaque failure.
    let mut while_machines: HashMap<FuncId, u64> = HashMap::new();

    // 1. Recursion cycles.
    let cycles = recursion_cycles(&prog);
    let reach: HashSet<FuncId> = reachable_from(&prog, entry_id).into_iter().collect();
    let mut recursion_remains = false;
    if !cycles.is_empty() {
        let ranges = entry_param_ranges(&prog, entry_id, &cycles);
        for cycle in &cycles {
            let names = cycle_names(&prog, cycle);
            if !cycle.iter().any(|f| reach.contains(f)) {
                actions.push(RewriteAction {
                    pass: "recursion-to-stack",
                    target: names,
                    applied: false,
                    detail: "unreachable from the entry; dropped from the output".to_string(),
                });
                continue;
            }
            match plan_recursion(&prog, cycle, entry_id, &reach, &ranges) {
                Ok(plan) => {
                    let detail = plan.detail.clone();
                    let counted = emit_stack_machine(&mut prog, &plan, opts);
                    if !counted {
                        while_machines.insert(plan.root, plan.steps);
                    }
                    actions.push(RewriteAction {
                        pass: "recursion-to-stack",
                        target: names,
                        applied: true,
                        detail: format!(
                            "{detail} ({} dispatch loop)",
                            if counted { "counted" } else { "while" }
                        ),
                    });
                }
                Err(reason) => {
                    recursion_remains = true;
                    actions.push(RewriteAction {
                        pass: "recursion-to-stack",
                        target: names,
                        applied: false,
                        detail: reason,
                    });
                }
            }
        }
    }

    // 2. Pointer arithmetic (needs a recursion-free call graph to inline).
    let reach = reachable_from(&prog, entry_id);
    let has_ptrs = reach.iter().any(|f| uses_pointers(prog.func(*f)));
    if has_ptrs {
        if recursion_remains {
            actions.push(RewriteAction {
                pass: "ptr-to-index",
                target: entry.to_string(),
                applied: false,
                detail: "unrepaired recursion prevents whole-program inlining".to_string(),
            });
        } else {
            match repair_pointers(&prog, entry_id) {
                // A bare `&` with nothing to lower it into stays in place.
                Ok((p2, _)) if uses_pointers(&p2.funcs[0]) => actions.push(RewriteAction {
                    pass: "ptr-to-index",
                    target: entry.to_string(),
                    applied: false,
                    detail: "an address is used as a value; pointer lowering leaves it in place"
                        .to_string(),
                }),
                Ok((p2, stats)) => {
                    prog = p2;
                    actions.push(RewriteAction {
                        pass: "ptr-to-index",
                        target: entry.to_string(),
                        applied: true,
                        detail: format!(
                            "{} pointers lowered to indexed arrays ({} single-object, \
                             {} via the shared memory)",
                            stats.pointers, stats.resolved, stats.monolithic
                        ),
                    });
                }
                Err(e) => actions.push(RewriteAction {
                    pass: "ptr-to-index",
                    target: entry.to_string(),
                    applied: false,
                    detail: e,
                }),
            }
        }
    }

    // 3. Data-dependent loops.
    let (entry_id, _) = prog.func_by_name(entry).expect("entry survives repair");
    for fid in reachable_from(&prog, entry_id) {
        let fname = prog.func(fid).name.clone();
        let machine_steps = while_machines.get(&fid).copied();
        let acts = bound_loops(&mut prog.funcs[fid.0 as usize], opts);
        actions.extend(acts.into_iter().map(|mut a| {
            // The machine's own dispatch loop is the function's first
            // loop in preorder; it is bounded by the recursion proof,
            // just too big to unroll into a counted form.
            if let Some(steps) = machine_steps {
                if !a.applied && a.target == "while loop #0" {
                    a.detail = format!(
                        "stack-machine dispatch loop; bounded by the recursion proof \
                         (≤ {steps} steps) but over the counted-loop cap"
                    );
                }
            }
            a.target = format!("{fname}: {}", a.target);
            a
        }));
    }

    let changed = actions.iter().any(|a| a.applied);
    Ok(RewriteResult {
        prog,
        actions,
        changed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chls_frontend::{compile_to_hir, compile_to_hir_relaxed};
    use chls_sim::{run, ArgValue, InterpOptions};

    #[test]
    fn continue_in_a_nested_loop_is_opaque() {
        let b = |s: HirStmt| HirBlock { stmts: vec![s] };
        let t = || HirExpr::konst(1, Type::Bool);
        let cont = || b(HirStmt::Continue);
        let nested = [
            HirStmt::While {
                cond: t(),
                body: cont(),
                unroll: None,
            },
            HirStmt::DoWhile {
                body: cont(),
                cond: t(),
            },
            HirStmt::For {
                init: HirBlock::default(),
                cond: t(),
                step: HirBlock::default(),
                body: cont(),
                unroll: None,
            },
        ];
        for s in nested {
            assert!(!has_loop_level_continue(&b(s.clone())), "{s:?}");
        }
        let enclosing = [
            HirStmt::If {
                cond: t(),
                then: HirBlock::default(),
                els: cont(),
            },
            HirStmt::Par(vec![HirBlock::default(), cont()]),
            HirStmt::Block(cont()),
        ];
        for s in enclosing {
            assert!(has_loop_level_continue(&b(s.clone())), "{s:?}");
        }
        assert!(!has_loop_level_continue(&b(HirStmt::Break)));
    }

    fn rewrite(src: &str, entry: &str) -> (HirProgram, RewriteResult) {
        let prog = compile_to_hir_relaxed(src).expect("frontend ok");
        let res = rewrite_program(&prog, entry, &RewriteOptions::default()).expect("rewrite ok");
        (prog, res)
    }

    fn check_same(orig: &HirProgram, new: &HirProgram, entry: &str, argsets: &[Vec<ArgValue>]) {
        let opts = InterpOptions::default();
        for args in argsets {
            let a = run(orig, entry, args, &opts).expect("original runs");
            let b = run(new, entry, args, &opts).expect("rewritten runs");
            assert_eq!(a.ret, b.ret, "return differs for {args:?}");
            assert_eq!(a.arrays, b.arrays, "arrays differ for {args:?}");
        }
    }

    fn has_data_dep_loop(f: &HirFunc) -> bool {
        f.body
            .any_stmt(&mut |s| matches!(s, HirStmt::While { .. } | HirStmt::DoWhile { .. }))
    }

    const FIB: &str = "uint<32> fib(uint<4> n) {
        if (n < 2) return (uint<32>)n;
        return fib(n - 1) + fib(n - 2);
    }";

    #[test]
    fn fib_recursion_becomes_stack_machine() {
        let (orig, res) = rewrite(FIB, "fib");
        let act = &res.actions[0];
        assert_eq!(act.pass, "recursion-to-stack");
        assert!(act.applied, "{}", act.detail);
        assert!(act.detail.contains("stack depth ≤ 15"), "{}", act.detail);
        // No recursive calls remain.
        let (fid, f) = res.prog.func_by_name("fib").expect("fib exists");
        assert!(!f.callees.contains(&fid));
        let sets: Vec<Vec<ArgValue>> = (0..16).map(|n| vec![ArgValue::Scalar(n)]).collect();
        check_same(&orig, &res.prog, "fib", &sets);
    }

    const FACT: &str = "uint<64> fact(uint<4> n) {
        if (n <= 1) return 1;
        return (uint<64>)n * fact(n - 1);
    }";

    #[test]
    fn fact_machine_is_fully_counted() {
        let (orig, res) = rewrite(FACT, "fact");
        assert!(res.actions[0].applied, "{}", res.actions[0].detail);
        assert!(
            res.actions[0].detail.contains("counted dispatch loop"),
            "{}",
            res.actions[0].detail
        );
        let (_, f) = res.prog.func_by_name("fact").expect("fact exists");
        assert!(
            !has_data_dep_loop(f),
            "counted machine must not keep a while"
        );
        let sets: Vec<Vec<ArgValue>> = (0..16).map(|n| vec![ArgValue::Scalar(n)]).collect();
        check_same(&orig, &res.prog, "fact", &sets);
    }

    #[test]
    fn mutual_recursion_is_staged() {
        let src = "int is_odd(uint<4> n);
            int is_even(uint<4> n) {
                if (n == 0) return 1;
                return is_odd(n - 1);
            }
            int is_odd(uint<4> n) {
                if (n == 0) return 0;
                return is_even(n - 1);
            }";
        let (orig, res) = rewrite(src, "is_even");
        assert!(res.actions[0].applied, "{}", res.actions[0].detail);
        let sets: Vec<Vec<ArgValue>> = (0..16).map(|n| vec![ArgValue::Scalar(n)]).collect();
        check_same(&orig, &res.prog, "is_even", &sets);
    }

    #[test]
    fn bitcount_loop_is_bounded() {
        let src = "uint<4> bitcount(uint<8> x) {
            uint<4> c = 0;
            while (x != 0) { c = c + (uint<4>)(x & 1); x = x >> 1; }
            return c;
        }";
        let orig = compile_to_hir(src).expect("frontend ok");
        let res = rewrite_program(&orig, "bitcount", &RewriteOptions::default()).expect("ok");
        let act = res
            .actions
            .iter()
            .find(|a| a.pass == "loop-bound")
            .expect("loop action");
        assert!(act.applied, "{}", act.detail);
        assert!(act.detail.contains("≤ 8 trips"), "{}", act.detail);
        let (_, f) = res.prog.func_by_name("bitcount").expect("exists");
        assert!(!has_data_dep_loop(f));
        let sets: Vec<Vec<ArgValue>> = (0..256).map(|n| vec![ArgValue::Scalar(n)]).collect();
        check_same(&orig, &res.prog, "bitcount", &sets);
    }

    #[test]
    fn bsearch_halving_is_bounded() {
        let src = "int bsearch(int a[16], int key) {
            int lo = 0;
            int hi = 15;
            while (lo <= hi) {
                int mid = lo + (hi - lo) / 2;
                if (a[mid] == key) return mid;
                if (a[mid] < key) lo = mid + 1; else hi = mid - 1;
            }
            return -1;
        }";
        let orig = compile_to_hir(src).expect("frontend ok");
        let res = rewrite_program(&orig, "bsearch", &RewriteOptions::default()).expect("ok");
        let act = res
            .actions
            .iter()
            .find(|a| a.pass == "loop-bound")
            .expect("loop action");
        assert!(act.applied, "{}", act.detail);
        assert!(act.detail.contains("halving"), "{}", act.detail);
        let arr: Vec<i64> = (0..16).map(|i| i * 3).collect();
        let sets: Vec<Vec<ArgValue>> = (-2..50)
            .map(|k| vec![ArgValue::Array(arr.clone()), ArgValue::Scalar(k)])
            .collect();
        check_same(&orig, &res.prog, "bsearch", &sets);
    }

    #[test]
    fn pointer_walk_is_repaired_and_bounded() {
        let src = "int memcpy_walk(int dst[32], int src[32], uint<6> n) {
            int *d = &dst[0];
            int *s = &src[0];
            uint<6> i = n;
            while (i != 0) { *d = *s; d = d + 1; s = s + 1; i = i - 1; }
            return dst[0];
        }";
        let orig = compile_to_hir(src).expect("frontend ok");
        let res = rewrite_program(&orig, "memcpy_walk", &RewriteOptions::default()).expect("ok");
        assert!(res
            .actions
            .iter()
            .any(|a| a.pass == "ptr-to-index" && a.applied));
        assert!(res
            .actions
            .iter()
            .any(|a| a.pass == "loop-bound" && a.applied));
        let (_, f) = res.prog.func_by_name("memcpy_walk").expect("exists");
        assert!(!uses_pointers(f));
        assert!(!has_data_dep_loop(f));
        let src_arr: Vec<i64> = (0..32).map(|i| 100 + i).collect();
        let sets: Vec<Vec<ArgValue>> = [0i64, 1, 7, 31, 32]
            .iter()
            .map(|n| {
                vec![
                    ArgValue::Array(vec![0; 32]),
                    ArgValue::Array(src_arr.clone()),
                    ArgValue::Scalar(*n),
                ]
            })
            .collect();
        check_same(&orig, &res.prog, "memcpy_walk", &sets);
    }

    #[test]
    fn loop_inlined_into_for_step_keeps_site_indices() {
        // Inlining puts `nudge`'s loop into the `for` step; the loop
        // after the `for` must still get its own site, not the step's.
        let src = "int nudge(int i) {
            uint<2> k = 3;
            while (k != 0) { k = k - 1; }
            return i + 1;
        }
        int walk(int a[16], uint<4> n) {
            int *p = &a[0];
            int s = 0;
            int i;
            for (i = 0; i < 4; i = nudge(i)) { s = s + *p; p = p + 1; }
            uint<4> j = n;
            while (j != 0) { s = s + 1; j = j - 1; }
            return s;
        }";
        let orig = compile_to_hir(src).expect("frontend ok");
        let res = rewrite_program(&orig, "walk", &RewriteOptions::default()).expect("ok");
        assert!(res
            .actions
            .iter()
            .any(|a| a.pass == "ptr-to-index" && a.applied));
        let loops: Vec<(&str, bool, &str)> = res
            .actions
            .iter()
            .filter(|a| a.pass == "loop-bound")
            .map(|a| (a.target.as_str(), a.applied, a.detail.as_str()))
            .collect();
        // A loop's action follows those of the loops nested in it.
        let targets: Vec<&str> = loops.iter().map(|l| l.0).collect();
        assert_eq!(
            targets,
            [
                "walk: while loop #1",
                "walk: for loop #0",
                "walk: while loop #2"
            ],
            "{loops:?}"
        );
        assert!(loops[0].1 && loops[0].2.contains("`nudge$k`"), "{loops:?}");
        assert!(!loops[1].1, "{loops:?}");
        assert!(loops[2].1 && loops[2].2.contains("`j`"), "{loops:?}");
        let arr: Vec<i64> = (0..16).map(|i| 10 * i).collect();
        let sets: Vec<Vec<ArgValue>> = (0..16)
            .map(|n| vec![ArgValue::Array(arr.clone()), ArgValue::Scalar(n)])
            .collect();
        check_same(&orig, &res.prog, "walk", &sets);
    }

    #[test]
    fn bare_address_of_is_not_reported_as_repaired() {
        let src = "int f(int a) { int x = a; int y = a; return &x == &y; }";
        let orig = compile_to_hir(src).expect("frontend ok");
        let res = rewrite_program(&orig, "f", &RewriteOptions::default()).expect("ok");
        let act = res
            .actions
            .iter()
            .find(|a| a.pass == "ptr-to-index")
            .expect("ptr action");
        assert!(!act.applied, "{}", act.detail);
        assert!(!res.changed);
        assert_eq!(res.prog, orig);
    }

    #[test]
    fn gcd_loop_is_honestly_not_repairable() {
        let src = "int gcd(int a, int b) {
            while (b != 0) { int t = a % b; a = b; b = t; }
            return a;
        }";
        let orig = compile_to_hir(src).expect("frontend ok");
        let res = rewrite_program(&orig, "gcd", &RewriteOptions::default()).expect("ok");
        let act = res
            .actions
            .iter()
            .find(|a| a.pass == "loop-bound")
            .expect("loop action");
        assert!(!act.applied);
        assert!(!res.changed);
        let (_, f) = res.prog.func_by_name("gcd").expect("exists");
        assert!(has_data_dep_loop(f), "unprovable loop must stay");
    }

    #[test]
    fn continue_skipping_update_is_rejected() {
        let src = "int f(uint<8> x) {
            int n = 0;
            while (x != 0) {
                if (x == 3) { continue; }
                n = n + 1;
                x = x - 1;
            }
            return n;
        }";
        let orig = compile_to_hir(src).expect("frontend ok");
        let res = rewrite_program(&orig, "f", &RewriteOptions::default()).expect("ok");
        let act = res
            .actions
            .iter()
            .find(|a| a.pass == "loop-bound")
            .expect("loop action");
        assert!(!act.applied);
        assert!(act.detail.contains("continue"), "{}", act.detail);
    }

    #[test]
    fn off_by_one_stack_cap_is_refutable() {
        // Certification hook: an intentionally short stack must produce an
        // observable failure at the deepest input, not silently "work".
        let prog = compile_to_hir_relaxed(FACT).expect("frontend ok");
        let opts = RewriteOptions {
            stack_cap_override: Some(14), // proved depth is 15
            ..RewriteOptions::default()
        };
        let res = rewrite_program(&prog, "fact", &opts).expect("rewrite ok");
        assert!(res.actions[0].applied);
        let iopts = InterpOptions::default();
        // Shallow inputs still agree...
        for n in 0..15 {
            let a = run(&prog, "fact", &[ArgValue::Scalar(n)], &iopts).expect("orig");
            let b = run(&res.prog, "fact", &[ArgValue::Scalar(n)], &iopts).expect("rewritten");
            assert_eq!(a.ret, b.ret, "n={n}");
        }
        // ...but the deepest input overflows the undersized stack.
        let a = run(&prog, "fact", &[ArgValue::Scalar(15)], &iopts).expect("orig");
        let b = run(&res.prog, "fact", &[ArgValue::Scalar(15)], &iopts);
        assert!(
            b.is_err() || b.expect("ran").ret != a.ret,
            "undersized stack must be observable at n=15"
        );
    }

    #[test]
    fn for_loop_with_variable_bound_is_bounded() {
        let src = "int sum_to(uint<5> n, int a[32]) {
            int s = 0;
            for (int i = 0; i < (int)n; i++) { s = s + a[i]; }
            return s;
        }";
        let orig = compile_to_hir(src).expect("frontend ok");
        let res = rewrite_program(&orig, "sum_to", &RewriteOptions::default()).expect("ok");
        let act = res
            .actions
            .iter()
            .find(|a| a.pass == "loop-bound")
            .expect("loop action");
        assert!(act.applied, "{}", act.detail);
        let arr: Vec<i64> = (0..32).collect();
        let sets: Vec<Vec<ArgValue>> = [0i64, 1, 13, 31]
            .iter()
            .map(|n| vec![ArgValue::Scalar(*n), ArgValue::Array(arr.clone())])
            .collect();
        check_same(&orig, &res.prog, "sum_to", &sets);
    }

    #[test]
    fn scan_loops_reports_trip_bounds() {
        let src = "int f(uint<8> x) {
            int n = 0;
            while (x != 0) { x = x & (x - 1); n = n + 1; }
            do { n = n - 1; } while (n > 3);
            return n;
        }";
        let prog = compile_to_hir(src).expect("frontend ok");
        let (_, f) = prog.func_by_name("f").expect("exists");
        let sites = scan_loops(f);
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].bound.as_ref().expect("popcount bound").trips, 8);
        assert!(sites[1].bound.is_some());
    }
}

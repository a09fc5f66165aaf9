//! Points-to analysis and pointer elimination.
//!
//! The paper: C's pointer semantics "demands compilers with aggressive
//! optimization to perform costly pointer analysis". This pass is that
//! analysis plus the two lowerings the surveyed compilers used:
//!
//! * a pointer whose points-to set is a **single object** becomes a plain
//!   integer *offset*; dereferences become direct array/scalar accesses
//!   (fast, parallelizable — what good analysis buys you);
//! * pointers with **multiple targets** force every object they might
//!   reach into a shared *monolithic memory* and become absolute
//!   addresses (C2Verilog's general strategy) — all those accesses now
//!   contend for one memory port, which is exactly the cost the paper
//!   attributes to C's undifferentiated memory model.
//!
//! Runs after inlining (one function, no calls). The analysis is a
//! flow-insensitive Andersen-style fixpoint over assignment constraints —
//! quadratic worst case, which experiment E12 measures against program
//! size.

use chls_frontend::ast::BinOp;
use chls_frontend::hir::*;
use chls_frontend::Type;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Pointer-lowering errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PtrError {
    /// A pointer is dereferenced but never assigned an address.
    NeverAssigned(String),
    /// A constant (ROM) array would have to move into writable memory.
    RomTarget(String),
    /// Two pointers into different objects are compared. Each lowers to
    /// an offset within its own object, so the offsets say nothing about
    /// the addresses.
    CrossObjectCompare,
}

impl fmt::Display for PtrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PtrError::NeverAssigned(n) => {
                write!(f, "pointer `{n}` is dereferenced but never assigned")
            }
            PtrError::RomTarget(n) => write!(
                f,
                "constant array `{n}` cannot be moved into the monolithic memory"
            ),
            PtrError::CrossObjectCompare => {
                write!(f, "pointers into different objects cannot be compared")
            }
        }
    }
}

impl std::error::Error for PtrError {}

/// Statistics for experiment E12.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PtrStats {
    /// Pointer-typed locals analyzed.
    pub pointers: usize,
    /// Pointers resolved to a single object (fast path).
    pub resolved: usize,
    /// Pointers that forced monolithic addressing.
    pub monolithic: usize,
    /// Objects moved into the shared memory.
    pub heap_objects: usize,
    /// Total words of monolithic memory created.
    pub heap_words: usize,
    /// Fixpoint iterations the analysis took.
    pub iterations: usize,
}

/// How each pointer local is lowered.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PtrLowering {
    /// Offset into this single target.
    Direct(LocalId),
    /// Absolute address into the typed heap.
    Heap,
    /// Never used as a pointer (dead); becomes a dead int.
    Dead,
}

/// Result of the Andersen-style points-to query over one function.
///
/// This is the analysis half of [`lower_pointers`], exposed as a reusable
/// query so other consumers — the par-race detector in `chls-analysis`,
/// the per-backend synthesizability lints — can resolve `Deref` accesses
/// without committing to (or mutating anything for) a lowering.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PointsTo {
    /// May-point-to sets: pointer local → locals it may target.
    pub pts: BTreeMap<LocalId, BTreeSet<LocalId>>,
    /// Targets the heap cascade forces into the shared monolithic memory:
    /// every target of a multi-target pointer, transitively closed over
    /// pointers that can reach an already-heapified object.
    pub heap: BTreeSet<LocalId>,
    /// Fixpoint iterations the copy-constraint solver took.
    pub iterations: usize,
}

impl PointsTo {
    /// Iterates the may-point-to set of `p` (empty for non-pointers and
    /// dead pointers).
    pub fn targets(&self, p: LocalId) -> impl Iterator<Item = LocalId> + '_ {
        self.pts.get(&p).into_iter().flatten().copied()
    }

    /// Pointers whose points-to set has more than one element — the ones
    /// a C2Verilog-style flow must serve from one monolithic memory.
    pub fn multi_target(&self) -> impl Iterator<Item = LocalId> + '_ {
        self.pts
            .iter()
            .filter(|(_, set)| set.len() > 1)
            .map(|(&p, _)| p)
    }
}

/// True when `func` uses pointers at all: a pointer-typed local, or an
/// address-of anywhere in its body, including inside the index and deref
/// expressions of load and store places. A `*&x` with no pointer local
/// counts, so every gate that refuses pointers sees it.
pub fn uses_pointers(func: &HirFunc) -> bool {
    fn addr_of(e: &HirExpr) -> bool {
        match &e.kind {
            HirExprKind::AddrOf(_) => true,
            HirExprKind::Const(_) => false,
            HirExprKind::Load(p) => {
                let mut hit = false;
                p.for_each_expr(&mut |i| hit |= addr_of(i));
                hit
            }
            HirExprKind::Unary(_, a) | HirExprKind::Cast(a) => addr_of(a),
            HirExprKind::Binary(_, a, b) => addr_of(a) || addr_of(b),
            HirExprKind::Select(c, t, f) => addr_of(c) || addr_of(t) || addr_of(f),
        }
    }
    if func.locals.iter().any(|l| matches!(l.ty, Type::Ptr(_))) {
        return true;
    }
    let mut hit = false;
    func.body.for_each_expr(&mut |e| hit |= addr_of(e));
    hit
}

/// Computes may-point-to sets for every pointer-typed local of `func`.
///
/// Flow-insensitive Andersen-style fixpoint over assignment constraints;
/// read-only (the lowering in [`lower_pointers`] consumes this query and
/// then rewrites).
pub fn points_to(func: &HirFunc) -> PointsTo {
    let ptr_locals: Vec<LocalId> = func
        .locals
        .iter()
        .enumerate()
        .filter(|(_, l)| matches!(l.ty, Type::Ptr(_)))
        .map(|(i, _)| LocalId(i as u32))
        .collect();
    if ptr_locals.is_empty() {
        return PointsTo::default();
    }

    // pts[p]: set of target locals; copies[q] -> {p}: pts(q) ⊆ pts(p).
    let mut pts: BTreeMap<LocalId, BTreeSet<LocalId>> = BTreeMap::new();
    let mut copies: BTreeMap<LocalId, BTreeSet<LocalId>> = BTreeMap::new();
    for &p in &ptr_locals {
        pts.insert(p, BTreeSet::new());
        copies.insert(p, BTreeSet::new());
    }
    collect_constraints(&func.body, &mut pts, &mut copies);
    // Fixpoint.
    let mut iterations = 0;
    loop {
        iterations += 1;
        let mut changed = false;
        for (&q, dsts) in &copies {
            let src: BTreeSet<LocalId> = pts.get(&q).cloned().unwrap_or_default();
            for &p in dsts {
                let entry = pts.entry(p).or_default();
                let before = entry.len();
                entry.extend(src.iter().copied());
                changed |= entry.len() != before;
            }
        }
        if !changed {
            break;
        }
    }

    // Heap cascade: any pointer with >1 targets heapifies those targets;
    // any pointer touching a heapified target becomes absolute as well.
    let mut heap: BTreeSet<LocalId> = BTreeSet::new();
    for set in pts.values() {
        if set.len() > 1 {
            heap.extend(set.iter().copied());
        }
    }
    loop {
        let mut changed = false;
        for set in pts.values() {
            if set.iter().any(|t| heap.contains(t)) && !set.is_empty() {
                for t in set {
                    changed |= heap.insert(*t);
                }
            }
        }
        if !changed {
            break;
        }
    }

    PointsTo {
        pts,
        heap,
        iterations,
    }
}

/// Eliminates pointers from `func` (in place), returning statistics.
///
/// # Errors
///
/// See [`PtrError`]. The function is then partly lowered, and the caller
/// discards it.
pub fn lower_pointers(func: &mut HirFunc, stats_out: &mut PtrStats) -> Result<(), PtrError> {
    let _span = chls_trace::span("opt.ptr");
    let ptr_locals: Vec<LocalId> = func
        .locals
        .iter()
        .enumerate()
        .filter(|(_, l)| matches!(l.ty, Type::Ptr(_)))
        .map(|(i, _)| LocalId(i as u32))
        .collect();
    stats_out.pointers = ptr_locals.len();
    // With no pointer local, the rewrite below only folds `*&x` to `x`.
    if !uses_pointers(func) {
        return Ok(());
    }

    // ---- Andersen-style analysis (shared query) ----
    let analysis = points_to(func);
    stats_out.iterations = analysis.iterations;
    let PointsTo { pts, heap, .. } = analysis;

    // ---- Lowering decisions ----
    let mut lowering: BTreeMap<LocalId, PtrLowering> = BTreeMap::new();
    for &p in &ptr_locals {
        let set = &pts[&p];
        let low = if set.is_empty() {
            PtrLowering::Dead
        } else if set.iter().any(|t| heap.contains(t)) {
            stats_out.monolithic += 1;
            PtrLowering::Heap
        } else if set.len() == 1 {
            stats_out.resolved += 1;
            PtrLowering::Direct(*set.iter().next().expect("len 1"))
        } else {
            unreachable!("multi-target sets are heapified")
        };
        lowering.insert(p, low);
    }

    // ---- Heap layout (grouped by element type) ----
    let mut heap_bases: BTreeMap<LocalId, (LocalId, i64)> = BTreeMap::new(); // target -> (heap local, base)
    let mut heaps_by_ty: BTreeMap<String, (LocalId, usize)> = BTreeMap::new();
    if !heap.is_empty() {
        // Assign bases.
        let targets: Vec<LocalId> = heap.iter().copied().collect();
        for t in targets {
            let tl = &func.locals[t.0 as usize];
            if tl.rom.is_some() {
                return Err(PtrError::RomTarget(tl.name.clone()));
            }
            let (elem_ty, len) = match &tl.ty {
                Type::Array(e, n) => ((**e).clone(), *n),
                scalar => (scalar.clone(), 1),
            };
            let key = elem_ty.to_string();
            let (heap_local, next_base) = match heaps_by_ty.get(&key) {
                Some(&(hl, base)) => (hl, base),
                None => {
                    let hl = LocalId(func.locals.len() as u32);
                    func.locals.push(HirLocal {
                        name: format!("$heap${key}"),
                        ty: Type::Array(Box::new(elem_ty.clone()), 0), // patched below
                        is_param: false,
                        bank: MemBank::Monolithic,
                        rom: None,
                        ii: None,
                    });
                    heaps_by_ty.insert(key.clone(), (hl, 0));
                    (hl, 0)
                }
            };
            heap_bases.insert(t, (heap_local, next_base as i64));
            heaps_by_ty.insert(key, (heap_local, next_base + len));
        }
        // Patch heap sizes and neutralize moved locals.
        for &(hl, total) in heaps_by_ty.values() {
            if let Type::Array(e, _) = func.locals[hl.0 as usize].ty.clone() {
                func.locals[hl.0 as usize].ty = Type::Array(e, total.max(1));
            }
            stats_out.heap_words += total;
        }
        stats_out.heap_objects = heap.len();
        for &t in &heap {
            // The object now lives in the heap; its old slot must not
            // become a memory. Make it a dead scalar.
            func.locals[t.0 as usize].ty = Type::int();
            func.locals[t.0 as usize].rom = None;
        }
    }

    // ---- Rewrite ----
    let mut ctx = Rewrite {
        lowering,
        heap_bases,
        locals_snapshot: func.locals.clone(),
        error: None,
    };
    func.body.walk_mut(&mut ctx);
    if let Some(e) = ctx.error {
        return Err(e);
    }
    // Pointer locals become plain integer offsets/addresses.
    for &p in &ptr_locals {
        func.locals[p.0 as usize].ty = Type::int();
    }
    Ok(())
}

/// Collects AddrOf targets and pointer-copy edges.
fn collect_constraints(
    block: &HirBlock,
    pts: &mut BTreeMap<LocalId, BTreeSet<LocalId>>,
    copies: &mut BTreeMap<LocalId, BTreeSet<LocalId>>,
) {
    block.for_each_stmt(&mut |stmt| {
        if let HirStmt::Assign {
            place: HirPlace::Local(p),
            value,
            ..
        } = stmt
        {
            if pts.contains_key(p) {
                add_sources(value, *p, pts, copies);
            }
        }
    });
}

/// Walks a pointer-valued expression for address sources.
fn add_sources(
    e: &HirExpr,
    dst: LocalId,
    pts: &mut BTreeMap<LocalId, BTreeSet<LocalId>>,
    copies: &mut BTreeMap<LocalId, BTreeSet<LocalId>>,
) {
    match &e.kind {
        HirExprKind::AddrOf(place) => {
            if let Some(root) = place.root_local() {
                pts.entry(dst).or_default().insert(root);
            }
        }
        HirExprKind::Load(p) => {
            if let HirPlace::Local(q) = &**p {
                if pts.contains_key(q) {
                    copies.entry(*q).or_default().insert(dst);
                }
            }
        }
        HirExprKind::Binary(BinOp::Add | BinOp::Sub, a, b) => {
            add_sources(a, dst, pts, copies);
            add_sources(b, dst, pts, copies);
        }
        HirExprKind::Select(_, t, f) => {
            add_sources(t, dst, pts, copies);
            add_sources(f, dst, pts, copies);
        }
        HirExprKind::Cast(a) => add_sources(a, dst, pts, copies),
        _ => {}
    }
}

/// The single pointer local an expression routes through, if determinable.
fn sole_ptr_local(e: &HirExpr) -> Option<LocalId> {
    match &e.kind {
        HirExprKind::Load(p) => match &**p {
            HirPlace::Local(id) => Some(*id),
            _ => None,
        },
        HirExprKind::Binary(_, a, b) => sole_ptr_local(a).or_else(|| sole_ptr_local(b)),
        HirExprKind::Select(_, t, f) => sole_ptr_local(t).or_else(|| sole_ptr_local(f)),
        HirExprKind::Cast(a) => sole_ptr_local(a),
        _ => None,
    }
}

struct Rewrite {
    lowering: BTreeMap<LocalId, PtrLowering>,
    heap_bases: BTreeMap<LocalId, (LocalId, i64)>,
    locals_snapshot: Vec<HirLocal>,
    /// The first refusal met; the walk goes on, and its result is dropped.
    error: Option<PtrError>,
}

impl Rewrite {
    /// Target object(s) a pointer expression can denote, from the analysis.
    fn expr_targets(&self, e: &HirExpr) -> BTreeSet<LocalId> {
        let mut out = BTreeSet::new();
        self.gather_targets(e, &mut out);
        out
    }

    fn gather_targets(&self, e: &HirExpr, out: &mut BTreeSet<LocalId>) {
        match &e.kind {
            HirExprKind::AddrOf(place) => {
                if let Some(r) = place.root_local() {
                    out.insert(r);
                }
            }
            HirExprKind::Load(p) => {
                if let HirPlace::Local(q) = &**p {
                    match self.lowering.get(q) {
                        Some(PtrLowering::Direct(t)) => {
                            out.insert(*t);
                        }
                        Some(PtrLowering::Heap) => {
                            out.extend(self.heap_bases.keys().copied());
                        }
                        _ => {}
                    }
                }
            }
            HirExprKind::Binary(_, a, b) => {
                self.gather_targets(a, out);
                self.gather_targets(b, out);
            }
            HirExprKind::Select(_, t, f) => {
                self.gather_targets(t, out);
                self.gather_targets(f, out);
            }
            HirExprKind::Cast(a) => self.gather_targets(a, out),
            _ => {}
        }
    }

    /// True when two pointers lower to addresses in one address space:
    /// both absolute in the heap, or both offsets into one single object.
    fn comparable(&self, a: &HirExpr, b: &HirExpr) -> bool {
        let (ta, tb) = (self.expr_targets(a), self.expr_targets(b));
        let in_heap = |t: &BTreeSet<LocalId>| t.iter().any(|t| self.heap_bases.contains_key(t));
        (in_heap(&ta) && in_heap(&tb)) || (ta.len() == 1 && ta == tb)
    }

    /// `*addr` as a direct or heap access.
    fn deref(&mut self, addr: &mut HirExpr) -> HirPlace {
        let targets = self.expr_targets(addr);
        self.visit_expr(addr);
        let addr = Box::new(take_expr(addr));
        // Heap path: any heapified target means absolute address.
        if let Some(&(heap, _)) = targets.iter().find_map(|t| self.heap_bases.get(t)) {
            return HirPlace::Index {
                base: Box::new(HirPlace::Local(heap)),
                index: addr,
            };
        }
        // Direct path: single target.
        let t = *targets.iter().next().expect("a live pointer has a target");
        match &self.locals_snapshot[t.0 as usize].ty {
            Type::Array(..) => HirPlace::Index {
                base: Box::new(HirPlace::Local(t)),
                index: addr,
            },
            _ => HirPlace::Local(t),
        }
    }
}

/// Rewrites places (`Deref` becomes a direct or heap access, a heapified
/// object reroutes to the heap) and expressions (pointer-typed ones
/// become integers).
impl VisitMut for Rewrite {
    fn visit_stmt(&mut self, s: &mut HirStmt) {
        // Inlining ran first; a call that survives it is left as it is.
        if !matches!(s, HirStmt::Call { .. }) {
            s.walk_mut(self);
        }
    }

    fn visit_place(&mut self, p: &mut HirPlace) {
        match p {
            HirPlace::Local(id) => {
                // Scalar moved to heap: heap[base].
                if let Some(&(heap, base)) = self.heap_bases.get(id) {
                    *p = HirPlace::Index {
                        base: Box::new(HirPlace::Local(heap)),
                        index: Box::new(HirExpr::konst(base, Type::int())),
                    };
                }
            }
            HirPlace::Global(_) => {}
            HirPlace::Index { base, index } => {
                self.visit_expr(index);
                match **base {
                    HirPlace::Local(id) if self.heap_bases.contains_key(&id) => {
                        let (heap, b) = self.heap_bases[&id];
                        **base = HirPlace::Local(heap);
                        **index = add_int(HirExpr::konst(b, Type::int()), take_expr(index));
                    }
                    _ => self.visit_place(base),
                }
            }
            HirPlace::Deref(addr) => {
                if let HirExprKind::AddrOf(inner) = &mut addr.kind {
                    // `*&p` is `p`.
                    self.visit_place(inner);
                    *p = std::mem::replace(&mut **inner, HirPlace::Global(GlobalId(0)));
                } else if self.lowering.is_empty() {
                    // No pointer local, so no address space: only `*&`
                    // folds, and the lowering refuses whatever is left.
                } else if let Some(q) = sole_ptr_local(addr)
                    .filter(|q| self.lowering.get(q) == Some(&PtrLowering::Dead))
                {
                    let name = self.locals_snapshot[q.0 as usize].name.clone();
                    self.error.get_or_insert(PtrError::NeverAssigned(name));
                } else {
                    *p = self.deref(addr);
                }
            }
        }
    }

    fn visit_expr(&mut self, e: &mut HirExpr) {
        if let HirExprKind::Binary(op, a, b) = &e.kind {
            let pointers = op.is_comparison() && matches!(a.ty, Type::Ptr(_));
            if pointers && !self.lowering.is_empty() && !self.comparable(a, b) {
                self.error.get_or_insert(PtrError::CrossObjectCompare);
            }
        }
        match &mut e.kind {
            HirExprKind::Const(v) => *e = HirExpr::konst(*v, strip_ptr(&e.ty)),
            // No pointer local: the address-of survives for the IR lowering
            // to refuse, rather than folding to a wrong constant.
            HirExprKind::AddrOf(_) if self.lowering.is_empty() => {}
            HirExprKind::AddrOf(place) => {
                // &x -> base offset; &a[i] -> base + i.
                let root = place.root_local().expect("sema rejects &ROM");
                let base = self.heap_bases.get(&root).map_or(0, |&(_, b)| b);
                let base = HirExpr::konst(base, Type::int());
                *e = match &mut **place {
                    HirPlace::Index { index, .. } => {
                        self.visit_expr(index);
                        add_int(base, coerce_int(take_expr(index)))
                    }
                    _ => base,
                };
            }
            _ => {
                e.ty = strip_ptr(&e.ty);
                e.walk_mut(self);
            }
        }
    }
}

/// Moves an expression out of its slot, leaving a placeholder constant.
fn take_expr(e: &mut HirExpr) -> HirExpr {
    std::mem::replace(e, HirExpr::konst(0, Type::int()))
}

fn strip_ptr(ty: &Type) -> Type {
    match ty {
        Type::Ptr(_) => Type::int(),
        other => other.clone(),
    }
}

fn coerce_int(e: HirExpr) -> HirExpr {
    if e.ty == Type::int() {
        e
    } else {
        HirExpr {
            kind: HirExprKind::Cast(Box::new(e)),
            ty: Type::int(),
        }
    }
}

fn add_int(a: HirExpr, b: HirExpr) -> HirExpr {
    if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
        return HirExpr::konst(x.wrapping_add(y), Type::int());
    }
    if a.as_const() == Some(0) {
        return coerce_int(b);
    }
    if b.as_const() == Some(0) {
        return coerce_int(a);
    }
    HirExpr {
        kind: HirExprKind::Binary(BinOp::Add, Box::new(coerce_int(a)), Box::new(coerce_int(b))),
        ty: Type::int(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inline::inline_program;
    use chls_frontend::compile_to_hir;
    use chls_ir::exec::{execute, ArgValue, ExecOptions};

    #[test]
    fn points_to_query_reports_aliases() {
        let hir = compile_to_hir(
            "int f(int c) {
                 int x = 1; int y = 2;
                 int *p = &x;
                 if (c) { p = &y; }
                 return *p;
             }",
        )
        .unwrap();
        let (_, f) = hir.func_by_name("f").unwrap();
        let q = points_to(f);
        let lid =
            |name: &str| LocalId(f.locals.iter().position(|l| l.name == name).unwrap() as u32);
        let targets: Vec<LocalId> = q.targets(lid("p")).collect();
        assert_eq!(targets, vec![lid("x"), lid("y")]);
        // Multi-target pointer → both targets heapified by the cascade.
        assert_eq!(q.multi_target().collect::<Vec<_>>(), vec![lid("p")]);
        assert!(q.heap.contains(&lid("x")) && q.heap.contains(&lid("y")));
        // The query is read-only: the function still has its pointer.
        assert!(matches!(f.local(lid("p")).ty, Type::Ptr(_)));
    }

    fn run_lowered(src: &str, entry: &str, args: &[ArgValue]) -> (Option<i64>, PtrStats) {
        let prog = compile_to_hir(src).expect("frontend ok");
        let (id, _) = prog.func_by_name(entry).expect("entry exists");
        let mut inlined = inline_program(&prog, id).expect("inline ok");
        let mut stats = PtrStats::default();
        lower_pointers(&mut inlined.funcs[0], &mut stats).expect("ptr lowering ok");
        let f = chls_ir::lower_function(&inlined, FuncId(0)).expect("ir lowering ok");
        chls_ir::verify::verify(&f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        let r = execute(&f, args, &ExecOptions::default()).expect("executes");
        (r.ret, stats)
    }

    #[test]
    fn single_target_scalar_pointer_resolves() {
        let (ret, stats) = run_lowered(
            "int f() { int x = 41; int *p = &x; *p = *p + 1; return x; }",
            "f",
            &[],
        );
        assert_eq!(ret, Some(42));
        assert_eq!(stats.resolved, 1);
        assert_eq!(stats.monolithic, 0);
    }

    #[test]
    fn single_target_array_walk_resolves() {
        let (ret, stats) = run_lowered(
            "int f() {
                int a[4];
                for (int i = 0; i < 4; i++) a[i] = i * 10;
                int *p = &a[1];
                p = p + 2;
                return *p;
            }",
            "f",
            &[],
        );
        assert_eq!(ret, Some(30));
        assert_eq!(stats.resolved, 1);
        assert_eq!(stats.heap_objects, 0);
    }

    #[test]
    fn pointer_param_via_inlining_resolves() {
        let (ret, stats) = run_lowered(
            "void bump(int *p) { *p = *p + 1; }
             int f() { int x = 1; bump(&x); bump(&x); return x; }",
            "f",
            &[],
        );
        assert_eq!(ret, Some(3));
        assert_eq!(stats.resolved, 2);
    }

    #[test]
    fn array_decay_through_call_resolves() {
        let (ret, stats) = run_lowered(
            "int sum(int *p, int n) {
                int s = 0;
                for (int i = 0; i < n; i++) s += p[i];
                return s;
            }
            int f(int a[4]) { return sum(a, 4); }",
            "f",
            &[ArgValue::Array(vec![1, 2, 3, 4])],
        );
        assert_eq!(ret, Some(10));
        assert!(stats.resolved >= 1);
        assert_eq!(stats.monolithic, 0);
    }

    #[test]
    fn two_target_pointer_goes_monolithic() {
        let (ret, stats) = run_lowered(
            "int f(bool pick) {
                int x = 10;
                int y = 20;
                int *p = pick ? &x : &y;
                *p = *p + 1;
                return x * 100 + y;
            }",
            "f",
            &[ArgValue::Scalar(1)],
        );
        assert_eq!(ret, Some(1120));
        assert_eq!(stats.monolithic, 1);
        assert_eq!(stats.heap_objects, 2);
        assert_eq!(stats.heap_words, 2);
    }

    #[test]
    fn monolithic_array_selection() {
        let (ret, stats) = run_lowered(
            "int f(bool pick, int i) {
                int a[4];
                int b[4];
                for (int k = 0; k < 4; k++) { a[k] = k; b[k] = k * 100; }
                int *p = pick ? &a[0] : &b[0];
                return p[i];
            }",
            "f",
            &[ArgValue::Scalar(0), ArgValue::Scalar(2)],
        );
        assert_eq!(ret, Some(200));
        assert_eq!(stats.heap_objects, 2);
        assert_eq!(stats.heap_words, 8);
    }

    #[test]
    fn pointer_copy_chains_resolve() {
        let (ret, stats) = run_lowered(
            "int f() {
                int a[4];
                a[2] = 7;
                int *p = &a[0];
                int *q = p;
                int *r = q + 2;
                return *r;
            }",
            "f",
            &[],
        );
        assert_eq!(ret, Some(7));
        assert_eq!(stats.resolved, 3);
    }

    #[test]
    fn pointer_comparison_after_lowering() {
        let (ret, _) = run_lowered(
            "int f() {
                int a[4];
                int *p = &a[1];
                int *q = &a[1];
                return p == q ? 1 : 0;
            }",
            "f",
            &[],
        );
        assert_eq!(ret, Some(1));
    }

    fn lowering_error(src: &str) -> PtrError {
        let prog = compile_to_hir(src).unwrap();
        let (id, _) = prog.func_by_name("f").unwrap();
        let mut inlined = inline_program(&prog, id).unwrap();
        let mut stats = PtrStats::default();
        lower_pointers(&mut inlined.funcs[0], &mut stats).unwrap_err()
    }

    #[test]
    fn dead_pointer_deref_rejected() {
        let err = lowering_error("int f() { int *p; return *p; }");
        assert_eq!(err, PtrError::NeverAssigned("p".into()));
        // A store through it too.
        let err = lowering_error("int f() { int *p; *p = 1; return 0; }");
        assert_eq!(err, PtrError::NeverAssigned("p".into()));
    }

    #[test]
    fn cross_object_pointer_comparison_rejected() {
        // Both pointers lower to offset 0, each within its own object.
        let err = lowering_error(
            "int f() { int x = 1; int y = 2; int *p = &x; int *q = &y; return p == q; }",
        );
        assert_eq!(err, PtrError::CrossObjectCompare);
        let err = lowering_error(
            "int f() { int a[4]; int b[4]; int *p = &a[1]; int *q = &b[1]; return p != q; }",
        );
        assert_eq!(err, PtrError::CrossObjectCompare);
    }

    #[test]
    fn heap_pointer_comparison_compares_addresses() {
        let src = "int f(bool pick) {
                int x = 1;
                int y = 2;
                int *p = pick ? &x : &y;
                int *q = &y;
                return p == q ? 1 : 0;
            }";
        assert_eq!(run_lowered(src, "f", &[ArgValue::Scalar(1)]).0, Some(0));
        assert_eq!(run_lowered(src, "f", &[ArgValue::Scalar(0)]).0, Some(1));
    }

    #[test]
    fn no_pointers_is_noop() {
        let (ret, stats) = run_lowered(
            "int f(int a) { return a + 1; }",
            "f",
            &[ArgValue::Scalar(1)],
        );
        assert_eq!(ret, Some(2));
        assert_eq!(stats.pointers, 0);
    }

    #[test]
    fn deref_of_address_of_folds_without_a_pointer_local() {
        let src = "int f(int a) { int x = a; int y = 2; *&x = *&y + 1; return x; }";
        let (ret, stats) = run_lowered(src, "f", &[ArgValue::Scalar(5)]);
        assert_eq!(ret, Some(3));
        assert_eq!(stats.pointers, 0);
        // A bare `&` has no address space to live in: it survives for the
        // IR lowering to refuse, rather than folding to a wrong constant.
        let prog = compile_to_hir("int f(int a) { int x = a; int y = a; return &x == &y; }")
            .expect("frontend ok");
        let mut inlined = inline_program(&prog, FuncId(0)).expect("inline ok");
        lower_pointers(&mut inlined.funcs[0], &mut PtrStats::default()).expect("ptr lowering ok");
        assert!(uses_pointers(&inlined.funcs[0]));
        assert!(chls_ir::lower_function(&inlined, FuncId(0)).is_err());
    }

    #[test]
    fn swap_via_pointers() {
        let (ret, stats) = run_lowered(
            "void swap(int *a, int *b) { int t = *a; *a = *b; *b = t; }
             int f() {
                int x = 3;
                int y = 5;
                swap(&x, &y);
                return x * 10 + y;
             }",
            "f",
            &[],
        );
        assert_eq!(ret, Some(53));
        assert_eq!(stats.resolved, 2);
    }
}

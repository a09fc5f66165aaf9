//! Dataflow-backed lint clients: out-of-bounds accesses, uninitialized
//! reads, and provably dead branches.
//!
//! The memory and branch checks run on the *prepared sequential* IR —
//! the same inlined, unrolled, pointer-free SSA the compiler-scheduled
//! backends consume — so pointer accesses have already been resolved to
//! concrete memory indices by the Andersen-based pointer lowering, and
//! the interval facts from [`chls_ir::dataflow`] apply directly to every
//! load and store address.
//!
//! All three checks are **definite-only**: a diagnostic is emitted only
//! when the analysis proves the bad behavior on every execution that
//! reaches the access (out of bounds: the whole address interval lies
//! outside the extent; uninitialized: the may-written interval is
//! provably disjoint from the read). Possible-but-unproven badness stays
//! silent, so a lint-clean corpus has zero false positives by
//! construction.
//!
//! The scalar uninitialized-read check works on the inlined HIR instead:
//! SSA construction erases the distinction between "never assigned" and
//! "assigned zero", so the walk happens before lowering, tracking the
//! must-initialized set across structured control flow.

use chls_frontend::diag::Diagnostic;
use chls_frontend::hir::{HirArg, HirBlock, HirExpr, HirExprKind, HirFunc, HirPlace, HirStmt};
use chls_frontend::span::Span;
use chls_frontend::types::Type;
use chls_ir::dataflow::{may_written_on_entry, value_ranges, Range};
use chls_ir::{Function, InstKind, MemSource};

/// Checks every load and store of `f` (prepared sequential IR) against
/// the interval facts: definite out-of-bounds accesses (error) and
/// definite reads of never-written local memories (warning).
pub fn check_memory(f: &Function) -> Vec<Diagnostic> {
    let ranges = value_ranges(f);
    let written = may_written_on_entry(f, &ranges);
    let mut out = Vec::new();
    // Walk blocks in RPO so diagnostics come out in a stable,
    // execution-plausible order, and only reachable code is checked.
    for b in f.reverse_postorder() {
        // Per-memory may-written facts, advanced store by store so a
        // read later in the same block sees the stores before it.
        let mut wr = written[b.0 as usize].clone();
        for &v in &f.block(b).insts {
            match f.inst(v).kind {
                InstKind::Load { mem, addr } => {
                    let r = ranges[addr.0 as usize];
                    let m = f.mem(mem);
                    if let Some(d) = check_bounds("read", &m.name, m.len, r, f.span_of(v)) {
                        out.push(d);
                        continue;
                    }
                    // ROMs and caller-supplied arrays arrive initialized;
                    // only locally-declared read/write memories can be
                    // read before any store.
                    if m.rom.is_some() || !matches!(m.source, MemSource::Local) {
                        continue;
                    }
                    let detail = match wr[mem.0 as usize] {
                        None => "no store reaches this read".to_string(),
                        Some(w) if w.intersect(r).is_none() => format!(
                            "the read hits {} but stores cover only {}",
                            describe_indices(r),
                            describe_indices(w),
                        ),
                        Some(_) => continue,
                    };
                    out.push(Diagnostic::warning(
                        format!("read of uninitialized memory `{}`: {detail}", m.name),
                        f.span_of(v),
                    ));
                }
                InstKind::Store { mem, addr, .. } => {
                    let r = ranges[addr.0 as usize];
                    let m = f.mem(mem);
                    if let Some(d) = check_bounds("write", &m.name, m.len, r, f.span_of(v)) {
                        out.push(d);
                    }
                    let slot = &mut wr[mem.0 as usize];
                    *slot = Some(match *slot {
                        None => r,
                        Some(w) => w.union(r),
                    });
                }
                _ => {}
            }
        }
    }
    out
}

/// A definite out-of-bounds diagnostic, when the whole address interval
/// misses `[0, len)`.
fn check_bounds(what: &str, name: &str, len: usize, r: Range, span: Span) -> Option<Diagnostic> {
    if r.lo >= len as i128 || r.hi < 0 {
        Some(Diagnostic::error(
            format!(
                "out-of-bounds {what} of `{name}`: {} but the extent is {len}",
                describe_indices(r),
            ),
            span,
        ))
    } else {
        None
    }
}

fn describe_indices(r: Range) -> String {
    if r.is_const() {
        format!("index {}", r.lo)
    } else if r.hi - r.lo >= (1 << 31) {
        // A fully-unknown index reads better than an astronomically
        // wide interval.
        "an unknown index".to_string()
    } else {
        format!("indices [{}, {}]", r.lo, r.hi)
    }
}

/// Reports branches whose condition the interval analysis proves
/// constant: the other side is dead.
pub fn check_dead_branches(f: &Function) -> Vec<Diagnostic> {
    chls_opt::narrow::dead_branches(f)
        .into_iter()
        .map(|(_, cond, taken)| {
            Diagnostic::warning(
                format!(
                    "branch condition is always {}; the {} branch is unreachable",
                    taken,
                    if taken { "false" } else { "true" },
                ),
                f.span_of(cond),
            )
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Scalar use-before-initialization (HIR walk)
// ---------------------------------------------------------------------------

struct UninitWalk<'a> {
    func: &'a HirFunc,
    /// Must-initialized bit per local.
    init: Vec<bool>,
    /// Already reported (one diagnostic per local).
    reported: Vec<bool>,
    /// Span of the nearest enclosing span-carrying statement, used for
    /// reads inside conditions (which carry no span of their own).
    cur_span: Span,
    out: Vec<Diagnostic>,
}

/// Walks the (inlined) entry function and warns on scalar and pointer
/// locals that may be read before any assignment.
///
/// The walk tracks the must-initialized set: both arms of an `if` must
/// initialize a local for it to count afterwards, loop bodies may run
/// zero times, and `par` arms all complete before the join. A local
/// whose address is taken is conservatively treated as initialized from
/// that point on (writes through the pointer are invisible here).
pub fn check_uninit_scalars(func: &HirFunc) -> Vec<Diagnostic> {
    let n = func.locals.len();
    let mut init = vec![false; n];
    for (i, l) in func.locals.iter().enumerate() {
        // Parameters arrive initialized; arrays are covered by the
        // IR-level memory check; channels have no "value" to read.
        if l.is_param || !matches!(l.ty, Type::Bool | Type::Int(_) | Type::Ptr(_)) {
            init[i] = true;
        }
    }
    let mut w = UninitWalk {
        func,
        init,
        reported: vec![false; n],
        cur_span: Span::dummy(),
        out: Vec::new(),
    };
    w.block(&func.body);
    w.out
}

impl UninitWalk<'_> {
    fn block(&mut self, b: &HirBlock) {
        for s in &b.stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &HirStmt) {
        match s {
            HirStmt::Assign { place, value, span } => {
                self.cur_span = *span;
                self.expr(value);
                self.place_writes(place);
            }
            HirStmt::Call {
                dst, args, span, ..
            } => {
                self.cur_span = *span;
                for a in args {
                    match a {
                        HirArg::Value(e) => self.expr(e),
                        HirArg::Array(_) => {}
                    }
                }
                if let Some(p) = dst {
                    self.place_writes(p);
                }
            }
            HirStmt::Recv { dst, span, .. } => {
                self.cur_span = *span;
                self.place_writes(dst);
            }
            HirStmt::Send { value, span, .. } => {
                self.cur_span = *span;
                self.expr(value);
            }
            HirStmt::If { cond, then, els } => {
                self.expr(cond);
                let before = self.init.clone();
                self.block(then);
                let after_then = std::mem::replace(&mut self.init, before);
                self.block(els);
                for (a, t) in self.init.iter_mut().zip(&after_then) {
                    *a = *a && *t;
                }
            }
            HirStmt::While { cond, body, .. } => {
                self.expr(cond);
                let before = self.init.clone();
                self.block(body);
                // Zero iterations are possible: body assignments don't
                // survive the loop.
                self.init = before;
            }
            HirStmt::DoWhile { body, cond } => {
                // The body runs at least once, so its assignments count.
                self.block(body);
                self.expr(cond);
            }
            HirStmt::For {
                init: ini,
                cond,
                step,
                body,
                ..
            } => {
                self.block(ini);
                self.expr(cond);
                let before = self.init.clone();
                self.block(body);
                self.block(step);
                self.init = before;
            }
            HirStmt::Return(e) => {
                if let Some(e) = e {
                    self.expr(e);
                }
            }
            HirStmt::Break | HirStmt::Continue | HirStmt::Delay => {}
            HirStmt::Block(b) => self.block(b),
            HirStmt::Par(arms) => {
                // Every arm runs to completion before the join, so the
                // post-par set is the union of all arms' assignments.
                let before = self.init.clone();
                let mut after = before.clone();
                for arm in arms {
                    self.init = before.clone();
                    self.block(arm);
                    for (a, x) in after.iter_mut().zip(&self.init) {
                        *a = *a || *x;
                    }
                }
                self.init = after;
            }
            HirStmt::Constraint { body, .. } => self.block(body),
        }
    }

    fn place_writes(&mut self, p: &HirPlace) {
        match p {
            HirPlace::Local(id) => self.init[id.0 as usize] = true,
            HirPlace::Global(_) => {}
            HirPlace::Index { base, index } => {
                self.expr(index);
                // Writing one element initializes neither the array (the
                // IR check tracks that) nor its root as a scalar.
                let _ = base;
            }
            HirPlace::Deref(e) => self.expr(e),
        }
    }

    fn place_reads(&mut self, p: &HirPlace) {
        match p {
            HirPlace::Local(id) => {
                let i = id.0 as usize;
                if !self.init[i] && !self.reported[i] {
                    self.reported[i] = true;
                    self.out.push(Diagnostic::warning(
                        format!(
                            "`{}` may be read before it is initialized",
                            self.func.local(*id).name
                        ),
                        self.cur_span,
                    ));
                }
            }
            HirPlace::Global(_) => {}
            HirPlace::Index { base, index } => {
                self.expr(index);
                // Array-element reads are the IR check's job; only the
                // index expression needs scalar tracking.
                let _ = base;
            }
            HirPlace::Deref(e) => self.expr(e),
        }
    }

    fn expr(&mut self, e: &HirExpr) {
        match &e.kind {
            HirExprKind::Const(_) => {}
            HirExprKind::Load(p) => self.place_reads(p),
            HirExprKind::AddrOf(p) => {
                // Taking the address lets writes escape the walk; treat
                // the local as initialized from here on rather than risk
                // a false positive on `*p = ...; use(x);`.
                if let HirPlace::Local(id) = &**p {
                    self.init[id.0 as usize] = true;
                }
                if let HirPlace::Index { index, .. } = &**p {
                    self.expr(index);
                }
            }
            HirExprKind::Unary(_, a) | HirExprKind::Cast(a) => self.expr(a),
            HirExprKind::Binary(_, a, b) => {
                self.expr(a);
                self.expr(b);
            }
            HirExprKind::Select(c, t, f) => {
                self.expr(c);
                self.expr(t);
                self.expr(f);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chls_backends::Preparer;
    use chls_frontend::compile_to_hir;

    fn prepared(src: &str) -> Function {
        let prog = compile_to_hir(src).expect("compile");
        let prepared = Preparer::new(prog).sequential("main", false, false, None);
        prepared.expect("prepare").func.clone()
    }

    fn uninit(src: &str) -> Vec<Diagnostic> {
        let prog = compile_to_hir(src).expect("compile");
        let (_, f) = prog.func_by_name("main").expect("main");
        check_uninit_scalars(f)
    }

    #[test]
    fn constant_index_out_of_bounds_is_an_error() {
        let f = prepared("int main() { int a[8]; a[0] = 1; return a[9]; }");
        let ds = check_memory(&f);
        assert!(
            ds.iter().any(|d| d.message.contains("out-of-bounds read")
                && d.message.contains("index 9")
                && d.message.contains("extent is 8")),
            "diags: {ds:?}"
        );
    }

    #[test]
    fn interval_entirely_outside_is_an_error() {
        // The loop writes a[8..12) of an 8-element array: every store
        // in the range is out of bounds.
        let f = prepared(
            "int main() { int a[8]; a[0] = 1;
               for (int i = 8; i < 12; i++) { a[i] = i; }
               return a[0]; }",
        );
        let ds = check_memory(&f);
        assert!(
            ds.iter()
                .any(|d| d.message.contains("out-of-bounds write") && d.message.contains("`a`")),
            "diags: {ds:?}"
        );
    }

    #[test]
    fn partially_out_of_bounds_is_not_flagged() {
        // i in [0, 11] overlaps [0, 8): not *definitely* wrong, so the
        // definite-only lint stays silent.
        let f = prepared(
            "int main(int n) { int a[8];
               for (int i = 0; i < 12; i++) { a[i & 7] = i; }
               return a[n & 7]; }",
        );
        let ds = check_memory(&f);
        assert!(ds.is_empty(), "diags: {ds:?}");
    }

    #[test]
    fn read_of_never_written_local_array_warns() {
        let f = prepared("int main(int i) { int a[4]; return a[i & 3]; }");
        let ds = check_memory(&f);
        assert!(
            ds.iter()
                .any(|d| d.message.contains("uninitialized memory `a`")),
            "diags: {ds:?}"
        );
    }

    #[test]
    fn read_disjoint_from_all_writes_warns() {
        let f = prepared(
            "int main() { int a[8];
               for (int i = 0; i < 4; i++) { a[i] = i; }
               return a[6]; }",
        );
        let ds = check_memory(&f);
        assert!(
            ds.iter()
                .any(|d| d.message.contains("uninitialized memory `a`")
                    && d.message.contains("index 6")),
            "diags: {ds:?}"
        );
    }

    #[test]
    fn write_then_read_is_clean() {
        let f = prepared(
            "int main(int x) { int a[8];
               for (int i = 0; i < 8; i++) { a[i] = x + i; }
               int s = 0;
               for (int j = 0; j < 8; j++) { s = s + a[j]; }
               return s; }",
        );
        let ds = check_memory(&f);
        assert!(ds.is_empty(), "diags: {ds:?}");
    }

    #[test]
    fn rom_and_param_arrays_are_initialized() {
        let f = prepared(
            "const int t[4] = {1, 2, 3, 4};
             int main(int x[4], int i) { return t[i & 3] + x[i & 3]; }",
        );
        let ds = check_memory(&f);
        assert!(ds.is_empty(), "diags: {ds:?}");
    }

    #[test]
    fn dead_branch_is_reported() {
        let f =
            prepared("int main(int x) { int m = x & 15; if (m < 100) { return m; } return 0; }");
        let ds = check_dead_branches(&f);
        assert_eq!(ds.len(), 1, "diags: {ds:?}");
        assert!(ds[0].message.contains("always true"), "{}", ds[0].message);
    }

    #[test]
    fn scalar_read_before_init_warns_once() {
        let ds = uninit("int main() { int x; int y = x + x; return y; }");
        assert_eq!(ds.len(), 1, "diags: {ds:?}");
        assert!(ds[0].message.contains("`x`"), "{}", ds[0].message);
    }

    #[test]
    fn one_armed_if_does_not_initialize() {
        let ds = uninit("int main(int a) { int x; if (a > 0) { x = 1; } return x; }");
        assert_eq!(ds.len(), 1, "diags: {ds:?}");
    }

    #[test]
    fn both_arms_initialize() {
        let ds =
            uninit("int main(int a) { int x; if (a > 0) { x = 1; } else { x = 2; } return x; }");
        assert!(ds.is_empty(), "diags: {ds:?}");
    }

    #[test]
    fn loop_body_may_not_run() {
        let ds = uninit("int main(int a) { int x; while (a > 0) { x = a; a = a - 1; } return x; }");
        assert_eq!(ds.len(), 1, "diags: {ds:?}");
    }

    #[test]
    fn do_while_body_always_runs() {
        let ds =
            uninit("int main(int a) { int x; do { x = a; a = a - 1; } while (a > 0); return x; }");
        assert!(ds.is_empty(), "diags: {ds:?}");
    }

    #[test]
    fn address_taken_local_is_not_flagged() {
        let ds = uninit("int main() { int x; int *p = &x; *p = 5; return x; }");
        assert!(ds.is_empty(), "diags: {ds:?}");
    }

    #[test]
    fn params_and_plain_initializers_are_clean() {
        let ds = uninit("int main(int a) { int x = a * 2; return x; }");
        assert!(ds.is_empty(), "diags: {ds:?}");
    }
}

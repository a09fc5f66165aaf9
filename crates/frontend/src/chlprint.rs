//! HIR → CHL source pretty-printer.
//!
//! The repair pipeline (`chls rewrite`) transforms HIR and then needs to
//! hand the result back through the *front door* — `compile_to_hir`,
//! `chls lint`, the conformance driver — so every rewritten program is
//! re-checked by exactly the machinery ordinary programs go through.
//! Printing to source (rather than threading HIR around) is what makes
//! that possible, and it also gives users a readable artifact.
//!
//! Invariants the printer maintains:
//!
//! * every emitted identifier is lexically valid (compiler temporaries
//!   like `$t3` and synthesized arrays like `$heap$int` are mangled to
//!   `__t3` / `__heap_int`), unique within its function, and not a
//!   keyword;
//! * non-parameter locals are declared at the top of the function, and
//!   only when the body actually references them;
//! * expressions are fully parenthesized, so printing is oblivious to
//!   precedence;
//! * `for` loops whose init/step are not single assignments fall back
//!   to an equivalent `while` (with `continue` repaired to run the
//!   step), so arbitrary HIR round-trips.

use crate::hir::*;
use crate::types::Type;
use std::collections::HashMap;
use std::fmt::Write;

/// Prints a whole program. With `entry` given, only functions reachable
/// from the entry are emitted (the repair pipeline uses this to drop
/// the dead originals of rewritten recursion cycles); globals and the
/// clock-period pragma are always emitted.
pub fn print_program(prog: &HirProgram, entry: Option<&str>) -> String {
    let mut out = String::new();
    if let Some(ps) = prog.clock_period_ps {
        let _ = writeln!(out, "#pragma clock_period {ps}");
    }
    for g in &prog.globals {
        print_global(&mut out, g);
    }
    let keep: Vec<bool> = match entry.and_then(|e| prog.func_by_name(e)) {
        Some((id, _)) => reachable(prog, id),
        None => vec![true; prog.funcs.len()],
    };
    for (i, f) in prog.funcs.iter().enumerate() {
        if !keep[i] {
            continue;
        }
        if !out.is_empty() {
            out.push('\n');
        }
        print_func(&mut out, prog, f);
    }
    out
}

fn reachable(prog: &HirProgram, entry: FuncId) -> Vec<bool> {
    let mut keep = vec![false; prog.funcs.len()];
    let mut work = vec![entry];
    while let Some(f) = work.pop() {
        if std::mem::replace(&mut keep[f.0 as usize], true) {
            continue;
        }
        work.extend(prog.func(f).callees.iter().copied());
    }
    keep
}

fn print_global(out: &mut String, g: &HirGlobal) {
    match g.bank {
        MemBank::Auto => {}
        MemBank::Banked(k) => {
            let _ = writeln!(out, "#pragma memory bank({k})");
        }
        MemBank::Monolithic => {
            let _ = writeln!(out, "#pragma memory monolithic");
        }
    }
    let Type::Array(elem, n) = &g.ty else {
        // Scalar globals are folded to constants during sema and never
        // reach HIR; tolerate one anyway.
        let _ = writeln!(
            out,
            "const {} {} = {};",
            g.ty,
            sanitize(&g.name),
            g.values[0]
        );
        return;
    };
    let vals = g
        .values
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(
        out,
        "const {} {}[{}] = {{{vals}}};",
        elem,
        sanitize(&g.name),
        n
    );
}

/// CHL keywords an identifier must not collide with.
const KEYWORDS: &[&str] = &[
    "void", "bool", "_Bool", "char", "short", "int", "long", "unsigned", "signed", "const", "if",
    "else", "while", "do", "for", "return", "break", "continue", "true", "false", "par", "chan",
    "send", "recv", "delay", "uint", "sint",
];

/// Mangles an arbitrary HIR name into a valid CHL identifier (not
/// necessarily unique — see [`Namer`]).
fn sanitize(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if s.is_empty() || s.starts_with(|c: char| c.is_ascii_digit()) {
        s.insert(0, '_');
    }
    if s.starts_with('_') && !s.starts_with("__") {
        // `$t3` → `_t3` reads like a user name; make synthesized names
        // visibly synthetic.
        s.insert(0, '_');
    }
    if KEYWORDS.contains(&s.as_str()) {
        s.push('_');
    }
    s
}

/// Per-function unique naming of locals.
struct Namer {
    names: Vec<String>,
}

impl Namer {
    fn new(func: &HirFunc) -> Self {
        let mut taken: HashMap<String, u32> = HashMap::new();
        let mut names = Vec::with_capacity(func.locals.len());
        for l in &func.locals {
            let base = sanitize(&l.name);
            let name = match taken.get(&base) {
                None => base.clone(),
                Some(&k) => {
                    let mut k = k;
                    loop {
                        k += 1;
                        let cand = format!("{base}_{k}");
                        if !taken.contains_key(&cand) {
                            taken.insert(base.clone(), k);
                            break cand;
                        }
                    }
                }
            };
            taken.entry(name.clone()).or_insert(1);
            names.push(name);
        }
        Namer { names }
    }

    fn name(&self, id: LocalId) -> &str {
        &self.names[id.0 as usize]
    }
}

/// One variable declarator: `int x`, `uint<8> a[16]`, `int *p`,
/// `chan<int> c`.
fn declarator(ty: &Type, name: &str) -> String {
    match ty {
        Type::Array(elem, n) => format!("{elem} {name}[{n}]"),
        Type::Ptr(inner) => format!("{inner} *{name}"),
        _ => format!("{ty} {name}"),
    }
}

fn print_func(out: &mut String, prog: &HirProgram, func: &HirFunc) {
    let namer = Namer::new(func);
    let params = func
        .params()
        .map(|(id, l)| declarator(&l.ty, namer.name(id)))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(out, "{} {}({params}) {{", func.ret_ty, sanitize(&func.name));

    // Declare the non-parameter locals the body references.
    let mut used = UsedLocals(vec![false; func.locals.len()]);
    func.body.clone().walk_mut(&mut used);
    for (i, l) in func.locals.iter().enumerate() {
        if i < func.num_params || !used.0[i] {
            continue;
        }
        let name = namer.name(LocalId(i as u32));
        match l.bank {
            MemBank::Auto => {}
            MemBank::Banked(k) => {
                let _ = writeln!(out, "    #pragma memory bank({k})");
            }
            MemBank::Monolithic => {
                let _ = writeln!(out, "    #pragma memory monolithic");
            }
        }
        let ii = l.ii.map(|n| format!(" @ii({n})")).unwrap_or_default();
        match &l.rom {
            Some(vals) => {
                let Type::Array(elem, n) = &l.ty else {
                    unreachable!("ROM locals are arrays");
                };
                let vals = vals
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(", ");
                let _ = writeln!(out, "    const {elem} {name}[{n}] = {{{vals}}};");
            }
            None => {
                let _ = writeln!(out, "    {}{ii};", declarator(&l.ty, name));
            }
        }
    }
    print_block_stmts(out, prog, &namer, &func.body, 1);
    let _ = writeln!(out, "}}");
}

/// Marks every local a body names: places at any depth, and channels.
struct UsedLocals(Vec<bool>);

impl VisitMut for UsedLocals {
    fn visit_place(&mut self, p: &mut HirPlace) {
        if let HirPlace::Local(id) = p {
            self.0[id.0 as usize] = true;
        }
        p.walk_mut(self);
    }

    fn visit_chan(&mut self, chan: &mut LocalId) {
        self.0[chan.0 as usize] = true;
    }
}

// ------------------------------------------------------------ statements

struct Ctx<'a> {
    prog: &'a HirProgram,
    namer: &'a Namer,
}

fn print_block_stmts(
    out: &mut String,
    prog: &HirProgram,
    namer: &Namer,
    block: &HirBlock,
    depth: usize,
) {
    let ctx = Ctx { prog, namer };
    for s in &block.stmts {
        print_stmt(out, &ctx, s, depth);
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("    ");
    }
}

fn print_braced(out: &mut String, ctx: &Ctx, block: &HirBlock, depth: usize) {
    out.push_str("{\n");
    for s in &block.stmts {
        print_stmt(out, ctx, s, depth + 1);
    }
    indent(out, depth);
    out.push('}');
}

/// A single `x = e` assignment rendered without the trailing `;`, if the
/// block is exactly that (the `for`-header form).
fn single_assign(ctx: &Ctx, block: &HirBlock) -> Option<String> {
    match block.stmts.as_slice() {
        [HirStmt::Assign { place, value, .. }] => Some(format!(
            "{} = {}",
            print_place(ctx, place),
            print_expr(ctx, value)
        )),
        _ => None,
    }
}

/// Replaces `continue` at this loop's level with `{ step; continue; }`,
/// for the `for`→`while` fallback.
fn repair_continue(ctx: &Ctx, out: &mut String, body: &HirBlock, step: &HirBlock, depth: usize) {
    out.push_str("{\n");
    for s in &body.stmts {
        print_stmt_with_continue(out, ctx, s, step, depth + 1);
    }
    for s in &step.stmts {
        print_stmt(out, ctx, s, depth + 1);
    }
    indent(out, depth);
    out.push('}');
}

fn print_stmt_with_continue(
    out: &mut String,
    ctx: &Ctx,
    s: &HirStmt,
    step: &HirBlock,
    depth: usize,
) {
    match s {
        HirStmt::Continue => {
            indent(out, depth);
            out.push_str("{\n");
            for st in &step.stmts {
                print_stmt(out, ctx, st, depth + 1);
            }
            indent(out, depth + 1);
            out.push_str("continue;\n");
            indent(out, depth);
            out.push_str("}\n");
        }
        HirStmt::If { cond, then, els } => {
            indent(out, depth);
            let _ = write!(out, "if ({}) ", print_expr(ctx, cond));
            out.push_str("{\n");
            for st in &then.stmts {
                print_stmt_with_continue(out, ctx, st, step, depth + 1);
            }
            indent(out, depth);
            out.push('}');
            if !els.stmts.is_empty() {
                out.push_str(" else {\n");
                for st in &els.stmts {
                    print_stmt_with_continue(out, ctx, st, step, depth + 1);
                }
                indent(out, depth);
                out.push('}');
            }
            out.push('\n');
        }
        HirStmt::Block(b) => {
            indent(out, depth);
            out.push_str("{\n");
            for st in &b.stmts {
                print_stmt_with_continue(out, ctx, st, step, depth + 1);
            }
            indent(out, depth);
            out.push_str("}\n");
        }
        // `continue` inside a nested loop binds to that loop: print as-is.
        _ => print_stmt(out, ctx, s, depth),
    }
}

fn print_stmt(out: &mut String, ctx: &Ctx, s: &HirStmt, depth: usize) {
    match s {
        HirStmt::Assign { place, value, .. } => {
            indent(out, depth);
            let _ = writeln!(
                out,
                "{} = {};",
                print_place(ctx, place),
                print_expr(ctx, value)
            );
        }
        HirStmt::Call {
            dst, func, args, ..
        } => {
            indent(out, depth);
            let callee = sanitize(&ctx.prog.func(*func).name);
            let args = args
                .iter()
                .map(|a| match a {
                    HirArg::Value(e) => print_expr(ctx, e),
                    HirArg::Array(p) => print_place(ctx, p),
                })
                .collect::<Vec<_>>()
                .join(", ");
            match dst {
                Some(d) => {
                    let _ = writeln!(out, "{} = {callee}({args});", print_place(ctx, d));
                }
                None => {
                    let _ = writeln!(out, "{callee}({args});");
                }
            }
        }
        HirStmt::Recv { dst, chan, .. } => {
            indent(out, depth);
            let _ = writeln!(
                out,
                "{} = recv({});",
                print_place(ctx, dst),
                ctx.namer.name(*chan)
            );
        }
        HirStmt::Send { chan, value, .. } => {
            indent(out, depth);
            let _ = writeln!(
                out,
                "send({}, {});",
                ctx.namer.name(*chan),
                print_expr(ctx, value)
            );
        }
        HirStmt::If { cond, then, els } => {
            indent(out, depth);
            let _ = write!(out, "if ({}) ", print_expr(ctx, cond));
            print_braced(out, ctx, then, depth);
            if !els.stmts.is_empty() {
                out.push_str(" else ");
                print_braced(out, ctx, els, depth);
            }
            out.push('\n');
        }
        HirStmt::While { cond, body, unroll } => {
            if let Some(n) = unroll {
                indent(out, depth);
                let _ = writeln!(out, "#pragma unroll {n}");
            }
            indent(out, depth);
            let _ = write!(out, "while ({}) ", print_expr(ctx, cond));
            print_braced(out, ctx, body, depth);
            out.push('\n');
        }
        HirStmt::DoWhile { body, cond } => {
            indent(out, depth);
            out.push_str("do ");
            print_braced(out, ctx, body, depth);
            let _ = writeln!(out, " while ({});", print_expr(ctx, cond));
        }
        HirStmt::For {
            init,
            cond,
            step,
            body,
            unroll,
        } => {
            if let Some(n) = unroll {
                indent(out, depth);
                let _ = writeln!(out, "#pragma unroll {n}");
            }
            match (single_assign(ctx, init), single_assign(ctx, step)) {
                (Some(i), Some(st)) => {
                    indent(out, depth);
                    let _ = write!(out, "for ({i}; {}; {st}) ", print_expr(ctx, cond));
                    print_braced(out, ctx, body, depth);
                    out.push('\n');
                }
                _ => {
                    // Init or step is not a single assignment: emit the
                    // equivalent while-loop (continues run the step).
                    for s in &init.stmts {
                        print_stmt(out, ctx, s, depth);
                    }
                    indent(out, depth);
                    let _ = write!(out, "while ({}) ", print_expr(ctx, cond));
                    repair_continue(ctx, out, body, step, depth);
                    out.push('\n');
                }
            }
        }
        HirStmt::Return(e) => {
            indent(out, depth);
            match e {
                Some(e) => {
                    let _ = writeln!(out, "return {};", print_expr(ctx, e));
                }
                None => out.push_str("return;\n"),
            }
        }
        HirStmt::Break => {
            indent(out, depth);
            out.push_str("break;\n");
        }
        HirStmt::Continue => {
            indent(out, depth);
            out.push_str("continue;\n");
        }
        HirStmt::Block(b) => {
            indent(out, depth);
            print_braced(out, ctx, b, depth);
            out.push('\n');
        }
        HirStmt::Par(arms) => {
            indent(out, depth);
            out.push_str("par {\n");
            for a in arms {
                indent(out, depth + 1);
                print_braced(out, ctx, a, depth + 1);
                out.push('\n');
            }
            indent(out, depth);
            out.push_str("}\n");
        }
        HirStmt::Delay => {
            indent(out, depth);
            out.push_str("delay;\n");
        }
        HirStmt::Constraint { cycles, body } => {
            indent(out, depth);
            let _ = writeln!(out, "#pragma constraint {cycles}");
            indent(out, depth);
            print_braced(out, ctx, body, depth);
            out.push('\n');
        }
    }
}

// ----------------------------------------------------------- expressions

fn print_place(ctx: &Ctx, p: &HirPlace) -> String {
    match p {
        HirPlace::Local(id) => ctx.namer.name(*id).to_string(),
        HirPlace::Global(id) => sanitize(&ctx.prog.global(*id).name),
        HirPlace::Index { base, index } => {
            format!("{}[{}]", print_place(ctx, base), print_expr(ctx, index))
        }
        HirPlace::Deref(e) => format!("*{}", print_expr_atom(ctx, e)),
    }
}

/// Prints an expression, parenthesized unless atomic.
fn print_expr_atom(ctx: &Ctx, e: &HirExpr) -> String {
    match &e.kind {
        HirExprKind::Const(_) | HirExprKind::Load(_) => print_expr(ctx, e),
        _ => print_expr(ctx, e),
    }
}

fn print_expr(ctx: &Ctx, e: &HirExpr) -> String {
    match &e.kind {
        HirExprKind::Const(v) => match &e.ty {
            Type::Bool => if *v != 0 { "true" } else { "false" }.to_string(),
            _ => {
                if *v < 0 {
                    format!("({v})")
                } else {
                    v.to_string()
                }
            }
        },
        HirExprKind::Load(p) => print_place(ctx, p),
        HirExprKind::Unary(op, a) => format!("({op}{})", print_expr(ctx, a)),
        HirExprKind::Binary(op, a, b) => {
            format!("({} {op} {})", print_expr(ctx, a), print_expr(ctx, b))
        }
        HirExprKind::Select(c, t, f) => format!(
            "({} ? {} : {})",
            print_expr(ctx, c),
            print_expr(ctx, t),
            print_expr(ctx, f)
        ),
        HirExprKind::Cast(a) => format!("(({})({}))", e.ty, print_expr(ctx, a)),
        HirExprKind::AddrOf(p) => format!("(&{})", print_place(ctx, p)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sema::compile_to_hir;

    fn roundtrip(src: &str) -> (HirProgram, HirProgram, String) {
        let a = compile_to_hir(src).expect("original compiles");
        let printed = print_program(&a, None);
        let b = compile_to_hir(&printed).unwrap_or_else(|e| {
            panic!(
                "printed source fails sema:\n{printed}\n{}",
                e.render(&printed)
            )
        });
        (a, b, printed)
    }

    #[test]
    fn roundtrips_gcd() {
        let (a, b, _) = roundtrip(
            "int main(int a, int b) { while (b != 0) { int t = b; b = a % b; a = t; } return a; }",
        );
        assert_eq!(a.funcs.len(), b.funcs.len());
    }

    #[test]
    fn roundtrips_counted_loops_and_globals() {
        roundtrip(
            "const int coeff[4] = {1, 2, 3, 4};
             void main(int x[8], int y[8]) {
                 for (int n = 0; n < 8; n++) {
                     int acc = 0;
                     for (int k = 0; k < 4; k++) {
                         if (n >= k) { acc = acc + coeff[k] * x[n - k]; }
                     }
                     y[n] = acc;
                 }
             }",
        );
    }

    #[test]
    fn roundtrips_casts_ternary_bools() {
        roundtrip(
            "int main(uint<8> x, int y) {
                 bool p = x > (uint<8>) 3 && y < 10;
                 return p ? (int) x : -y;
             }",
        );
    }

    #[test]
    fn roundtrips_channels_and_par() {
        roundtrip(
            "int main() {
                 chan<int> c;
                 int out = 0;
                 par {
                     { for (int i = 0; i < 4; i++) send(c, i + 1); }
                     { for (int j = 0; j < 4; j++) out += recv(c); }
                 }
                 return out;
             }",
        );
    }

    #[test]
    fn roundtrips_pointers() {
        roundtrip(
            "void main(int a[4]) {
                 int *p = &a[0];
                 *p = 1;
                 p = p + 1;
                 *p = 2;
             }",
        );
    }

    #[test]
    fn mangles_dollar_temps() {
        // `f(x) + f(y)` forces `$t` temporaries; they must print as
        // valid identifiers.
        let (_, _, printed) = roundtrip(
            "int f(int n) { return n + 1; }
             int main(int x, int y) { return f(x) + f(y); }",
        );
        assert!(!printed.contains('$'), "{printed}");
    }

    #[test]
    fn uniquifies_shadowed_locals() {
        roundtrip(
            "int main(int n) {
                 int acc = 0;
                 { int t = n + 1; acc = acc + t; }
                 { int t = n + 2; acc = acc + t; }
                 return acc;
             }",
        );
    }

    #[test]
    fn reachability_drops_uncalled_functions() {
        let p = compile_to_hir(
            "int helper(int n) { return n; }
             int other(int n) { return n * 2; }
             int main(int x) { return helper(x); }",
        )
        .expect("compiles");
        let printed = print_program(&p, Some("main"));
        assert!(printed.contains("helper"));
        assert!(!printed.contains("other"), "{printed}");
    }
}

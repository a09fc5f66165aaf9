//! Semantic analysis: AST → typed [`crate::hir`].
//!
//! Responsibilities:
//!
//! * name resolution (scoped locals, global constants, functions);
//! * type checking with C's usual arithmetic conversions extended to
//!   bit-precise widths (explicit [`HirExprKind::Cast`] nodes are inserted);
//! * side-effect normalization: assignments, `++`/`--`, calls, and `recv`
//!   embedded in expressions are hoisted into statements with temporaries,
//!   evaluated left-to-right;
//! * desugaring: `&&`/`||` become [`HirExprKind::Select`] (both operands are
//!   evaluated — hardware evaluates both sides anyway, and CHL expressions
//!   cannot trap since `x / 0 == 0` by definition); compound assignment and
//!   `++`/`--` become plain assignments;
//! * structural checks: `break`/`continue` inside loops only, no recursion
//!   (rejected as in NEC's Cyber), mutable globals rejected, channels used
//!   only with `send`/`recv`;
//! * pragma attachment: `unroll` onto loops, `constraint` onto blocks,
//!   `memory bank(K)`/`monolithic` onto array declarations, `clock_period`
//!   onto the program.

use crate::ast::{self, BinOp, Expr, ExprKind, Init, Item, Pragma, Stmt, StmtKind, UnOp};
use crate::diag::{Diagnostic, FrontendError};
use crate::hir::*;
use crate::span::Span;
use crate::types::Type;
use std::collections::HashMap;

/// Runs semantic analysis over a parsed program.
///
/// # Errors
///
/// Returns all diagnostics collected before analysis had to stop.
pub fn analyze(program: &ast::Program) -> Result<HirProgram, FrontendError> {
    let prog = analyze_relaxed(program)?;
    check_no_recursion(&prog)?;
    Ok(prog)
}

/// [`analyze`] without the recursion rejection: every other semantic
/// check still applies. This is the entry point for the repair pipeline
/// (`chls rewrite`), which needs typed HIR for recursive programs so it
/// can bound and rewrite them; ordinary compilation must keep using
/// [`analyze`].
pub fn analyze_relaxed(program: &ast::Program) -> Result<HirProgram, FrontendError> {
    let mut ctx = SemaCtx::default();
    ctx.collect_items(program)?;
    let mut funcs = Vec::new();
    for (id, decl) in ctx.func_decls.iter().enumerate() {
        let f = FnLower::new(&ctx, FuncId(id as u32)).lower(decl)?;
        funcs.push(f);
    }
    let mut warnings = Vec::new();
    for f in &funcs {
        warnings.extend(unused_local_warnings(f));
    }
    Ok(HirProgram {
        funcs,
        globals: ctx.globals,
        clock_period_ps: ctx.clock_period_ps,
        warnings,
    })
}

/// Warns about named scalar locals that are assigned but never read.
///
/// Parameters, compiler temporaries (`$tN`), channels, arrays, and any
/// local whose address is taken are exempt; an unread store to the rest is
/// almost always a bug the timing rules will silently charge cycles for.
fn unused_local_warnings(func: &HirFunc) -> Vec<Diagnostic> {
    #[derive(Default)]
    struct Uses {
        read: Vec<bool>,
        addr_taken: Vec<bool>,
        first_write: Vec<Option<Span>>,
    }
    impl Uses {
        fn place_read(&mut self, p: &HirPlace) {
            match p {
                HirPlace::Local(id) => self.read[id.0 as usize] = true,
                HirPlace::Global(_) => {}
                HirPlace::Index { base, index } => {
                    self.place_read(base);
                    self.expr(index);
                }
                HirPlace::Deref(ptr) => self.expr(ptr),
            }
        }
        fn place_written(&mut self, p: &HirPlace, span: Span) {
            match p {
                HirPlace::Local(id) => {
                    let slot = &mut self.first_write[id.0 as usize];
                    if slot.is_none() {
                        *slot = Some(span);
                    }
                }
                HirPlace::Global(_) => {}
                // Writing one element still needs the whole array live.
                HirPlace::Index { base, index } => {
                    self.place_read(base);
                    self.expr(index);
                }
                HirPlace::Deref(ptr) => self.expr(ptr),
            }
        }
        fn expr(&mut self, e: &HirExpr) {
            match &e.kind {
                HirExprKind::Const(_) => {}
                HirExprKind::Load(p) => self.place_read(p),
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
                HirExprKind::AddrOf(p) => {
                    if let Some(id) = p.root_local() {
                        self.addr_taken[id.0 as usize] = true;
                    }
                    self.place_read(p);
                }
            }
        }
        fn block(&mut self, b: &HirBlock) {
            for s in &b.stmts {
                self.stmt(s);
            }
        }
        fn stmt(&mut self, s: &HirStmt) {
            match s {
                HirStmt::Assign { place, value, span } => {
                    self.place_written(place, *span);
                    self.expr(value);
                }
                HirStmt::Call {
                    dst, args, span, ..
                } => {
                    if let Some(p) = dst {
                        self.place_written(p, *span);
                    }
                    for a in args {
                        match a {
                            HirArg::Value(e) => self.expr(e),
                            // By-reference arrays may be written or read
                            // inside the callee; treat as both.
                            HirArg::Array(p) => self.place_read(p),
                        }
                    }
                }
                HirStmt::Recv { dst, chan, span } => {
                    self.place_written(dst, *span);
                    self.read[chan.0 as usize] = true;
                }
                HirStmt::Send { chan, value, .. } => {
                    self.read[chan.0 as usize] = true;
                    self.expr(value);
                }
                HirStmt::If { cond, then, els } => {
                    self.expr(cond);
                    self.block(then);
                    self.block(els);
                }
                HirStmt::While { cond, body, .. } => {
                    self.expr(cond);
                    self.block(body);
                }
                HirStmt::DoWhile { body, cond } => {
                    self.block(body);
                    self.expr(cond);
                }
                HirStmt::For {
                    init,
                    cond,
                    step,
                    body,
                    ..
                } => {
                    self.block(init);
                    self.expr(cond);
                    self.block(step);
                    self.block(body);
                }
                HirStmt::Return(v) => {
                    if let Some(e) = v {
                        self.expr(e);
                    }
                }
                HirStmt::Break | HirStmt::Continue | HirStmt::Delay => {}
                HirStmt::Block(b) => self.block(b),
                HirStmt::Par(arms) => {
                    for arm in arms {
                        self.block(arm);
                    }
                }
                HirStmt::Constraint { body, .. } => self.block(body),
            }
        }
    }

    let n = func.locals.len();
    let mut uses = Uses {
        read: vec![false; n],
        addr_taken: vec![false; n],
        first_write: vec![None; n],
    };
    uses.block(&func.body);
    let mut out = Vec::new();
    for (i, local) in func.locals.iter().enumerate() {
        if local.is_param || local.name.starts_with("$t") || !local.ty.is_scalar() {
            continue;
        }
        if uses.read[i] || uses.addr_taken[i] {
            continue;
        }
        if let Some(span) = uses.first_write[i] {
            out.push(Diagnostic::warning(
                format!(
                    "local `{}` in `{}` is assigned but its value is never read",
                    local.name, func.name
                ),
                span,
            ));
        }
    }
    out
}

/// A name binding visible in some scope.
#[derive(Debug, Clone)]
enum Binding {
    Local(LocalId),
    Global(GlobalId),
    Const(i64, Type),
}

#[derive(Default)]
struct SemaCtx {
    func_decls: Vec<ast::FuncDecl>,
    func_names: HashMap<String, FuncId>,
    globals: Vec<HirGlobal>,
    global_bindings: HashMap<String, Binding>,
    clock_period_ps: Option<u64>,
}

impl SemaCtx {
    fn collect_items(&mut self, program: &ast::Program) -> Result<(), FrontendError> {
        for item in &program.items {
            match item {
                Item::Pragma(Pragma::ClockPeriod(ps), _) => {
                    self.clock_period_ps = Some(*ps);
                }
                Item::Pragma(..) => {}
                Item::Func(f) => {
                    if let Some(&id) = self.func_names.get(&f.name) {
                        // A bodyless forward declaration may be completed
                        // by exactly one later definition with the same
                        // signature (this is what lets mutually recursive
                        // functions name each other before definition).
                        let prev = &self.func_decls[id.0 as usize];
                        if prev.body.is_some() || f.body.is_none() {
                            return Err(err(format!("duplicate function `{}`", f.name), f.span));
                        }
                        if prev.ret_ty != f.ret_ty
                            || prev.params.len() != f.params.len()
                            || prev.params.iter().zip(&f.params).any(|(a, b)| a.ty != b.ty)
                        {
                            return Err(err(
                                format!(
                                    "definition of `{}` does not match its forward declaration",
                                    f.name
                                ),
                                f.span,
                            ));
                        }
                        self.func_decls[id.0 as usize] = f.clone();
                        continue;
                    }
                    let id = FuncId(self.func_decls.len() as u32);
                    self.func_names.insert(f.name.clone(), id);
                    self.func_decls.push(f.clone());
                }
                Item::Global(g) => self.collect_global(g)?,
            }
        }
        for f in &self.func_decls {
            if f.body.is_none() {
                return Err(err(
                    format!("function `{}` has no body; CHL has no linker", f.name),
                    f.span,
                ));
            }
        }
        Ok(())
    }

    fn collect_global(&mut self, g: &ast::VarDecl) -> Result<(), FrontendError> {
        if !g.is_const {
            return Err(err(
                format!(
                    "global `{}` must be `const`; pass mutable state explicitly",
                    g.name
                ),
                g.span,
            ));
        }
        if self.global_bindings.contains_key(&g.name) {
            return Err(err(format!("duplicate global `{}`", g.name), g.span));
        }
        let binding = match (&g.ty, &g.init) {
            (t, Some(Init::Expr(e))) if t.is_scalar() => {
                let v = const_eval(e, &self.global_bindings)
                    .ok_or_else(|| err("global initializer must be constant", g.span))?;
                let v = canonical(v, t);
                Binding::Const(v, t.clone())
            }
            (Type::Array(elem, n), Some(Init::List(elems, span))) => {
                if !elem.is_scalar() {
                    return Err(err("only 1-D constant arrays are supported", g.span));
                }
                if elems.len() > *n {
                    return Err(err("too many initializers", *span));
                }
                let mut values = Vec::with_capacity(*n);
                for e in elems {
                    let v = const_eval(e, &self.global_bindings)
                        .ok_or_else(|| err("array initializer must be constant", e.span))?;
                    values.push(canonical(v, elem));
                }
                values.resize(*n, 0);
                let id = GlobalId(self.globals.len() as u32);
                let bank = bank_from_pragmas(&g.pragmas);
                self.globals.push(HirGlobal {
                    name: g.name.clone(),
                    ty: g.ty.clone(),
                    values,
                    bank,
                });
                Binding::Global(id)
            }
            (Type::Array(..), _) => {
                return Err(err("constant array needs a `{...}` initializer", g.span));
            }
            _ => return Err(err("global constant needs an initializer", g.span)),
        };
        self.global_bindings.insert(g.name.clone(), binding);
        Ok(())
    }
}

fn bank_from_pragmas(pragmas: &[Pragma]) -> MemBank {
    for p in pragmas {
        match p {
            Pragma::Bank(k) => return MemBank::Banked((*k).max(1)),
            Pragma::Monolithic => return MemBank::Monolithic,
            _ => {}
        }
    }
    MemBank::Auto
}

fn err(message: impl Into<String>, span: Span) -> FrontendError {
    FrontendError::single(Diagnostic::error(message, span))
}

fn canonical(v: i64, ty: &Type) -> i64 {
    match ty {
        Type::Int(it) => it.canonicalize(v),
        Type::Bool => (v != 0) as i64,
        _ => v,
    }
}

/// Constant evaluation against global bindings (for global initializers).
fn const_eval(e: &Expr, globals: &HashMap<String, Binding>) -> Option<i64> {
    match &e.kind {
        ExprKind::IntLit(v) => Some(*v as i64),
        ExprKind::BoolLit(b) => Some(*b as i64),
        ExprKind::Ident(name) => match globals.get(name) {
            Some(Binding::Const(v, _)) => Some(*v),
            _ => None,
        },
        ExprKind::Unary(op, inner) => {
            let v = const_eval(inner, globals)?;
            Some(match op {
                UnOp::Neg => v.wrapping_neg(),
                UnOp::Not => !v,
                UnOp::LogNot => (v == 0) as i64,
            })
        }
        ExprKind::Binary(op, l, r) => {
            let a = const_eval(l, globals)?;
            let b = const_eval(r, globals)?;
            eval_binop_i64(*op, a, b)
        }
        ExprKind::Cast { ty, expr } => {
            let v = const_eval(expr, globals)?;
            Some(canonical(v, ty))
        }
        _ => None,
    }
}

fn eval_binop_i64(op: BinOp, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                0
            } else {
                a.wrapping_div(b)
            }
        }
        BinOp::Rem => {
            if b == 0 {
                0
            } else {
                a.wrapping_rem(b)
            }
        }
        BinOp::Shl => a.wrapping_shl(b as u32),
        BinOp::Shr => a.wrapping_shr(b as u32),
        BinOp::BitAnd => a & b,
        BinOp::BitOr => a | b,
        BinOp::BitXor => a ^ b,
        BinOp::LogAnd => ((a != 0) && (b != 0)) as i64,
        BinOp::LogOr => ((a != 0) || (b != 0)) as i64,
        BinOp::Eq => (a == b) as i64,
        BinOp::Ne => (a != b) as i64,
        BinOp::Lt => (a < b) as i64,
        BinOp::Le => (a <= b) as i64,
        BinOp::Gt => (a > b) as i64,
        BinOp::Ge => (a >= b) as i64,
    })
}

struct FnLower<'a> {
    ctx: &'a SemaCtx,
    locals: Vec<HirLocal>,
    scopes: Vec<HashMap<String, Binding>>,
    loop_depth: usize,
    par_depth: usize,
    callees: Vec<FuncId>,
    uses_par: bool,
    uses_channels: bool,
    ret_ty: Type,
    temp_count: u32,
}

impl<'a> FnLower<'a> {
    fn new(ctx: &'a SemaCtx, _id: FuncId) -> Self {
        FnLower {
            ctx,
            locals: Vec::new(),
            scopes: vec![HashMap::new()],
            loop_depth: 0,
            par_depth: 0,
            callees: Vec::new(),
            uses_par: false,
            uses_channels: false,
            ret_ty: Type::Void,
            temp_count: 0,
        }
    }

    fn lower(mut self, decl: &ast::FuncDecl) -> Result<HirFunc, FrontendError> {
        self.ret_ty = decl.ret_ty.clone();
        if !matches!(decl.ret_ty, Type::Void | Type::Bool | Type::Int(_)) {
            return Err(err("functions must return void or a scalar", decl.span));
        }
        for p in &decl.params {
            if matches!(p.ty, Type::Void | Type::Chan(_)) {
                return Err(err(
                    format!("parameter `{}` has invalid type `{}`", p.name, p.ty),
                    p.span,
                ));
            }
            let id = self.add_local(&p.name, p.ty.clone(), true, MemBank::Auto, None);
            self.bind(&p.name, Binding::Local(id), p.span)?;
        }
        let num_params = decl.params.len();
        let body_ast = decl.body.as_ref().expect("checked in collect_items");
        let body = self.lower_block(body_ast)?;
        Ok(HirFunc {
            name: decl.name.clone(),
            ret_ty: decl.ret_ty.clone(),
            num_params,
            locals: self.locals,
            body,
            callees: self.callees,
            uses_par: self.uses_par,
            uses_channels: self.uses_channels,
        })
    }

    fn add_local(
        &mut self,
        name: &str,
        ty: Type,
        is_param: bool,
        bank: MemBank,
        rom: Option<Vec<i64>>,
    ) -> LocalId {
        let id = LocalId(self.locals.len() as u32);
        self.locals.push(HirLocal {
            name: name.to_string(),
            ty,
            is_param,
            bank,
            rom,
            ii: None,
        });
        id
    }

    fn fresh_temp(&mut self, ty: Type) -> LocalId {
        let name = format!("$t{}", self.temp_count);
        self.temp_count += 1;
        self.add_local(&name, ty, false, MemBank::Auto, None)
    }

    fn bind(&mut self, name: &str, binding: Binding, span: Span) -> Result<(), FrontendError> {
        let scope = self.scopes.last_mut().expect("scope stack never empty");
        if scope.contains_key(name) {
            return Err(err(
                format!("`{name}` is already defined in this scope"),
                span,
            ));
        }
        scope.insert(name.to_string(), binding);
        Ok(())
    }

    fn lookup(&self, name: &str) -> Option<Binding> {
        for scope in self.scopes.iter().rev() {
            if let Some(b) = scope.get(name) {
                return Some(b.clone());
            }
        }
        self.ctx.global_bindings.get(name).cloned()
    }

    fn local_ty(&self, id: LocalId) -> &Type {
        &self.locals[id.0 as usize].ty
    }

    // ----- statements -----

    fn lower_block(&mut self, block: &ast::Block) -> Result<HirBlock, FrontendError> {
        self.scopes.push(HashMap::new());
        let mut out = Vec::new();
        for stmt in &block.stmts {
            self.lower_stmt(stmt, &mut out)?;
        }
        self.scopes.pop();
        Ok(HirBlock { stmts: out })
    }

    fn lower_stmt(&mut self, stmt: &Stmt, out: &mut Vec<HirStmt>) -> Result<(), FrontendError> {
        let unroll = stmt.pragmas.iter().find_map(|p| match p {
            Pragma::Unroll(n) => Some(*n),
            _ => None,
        });
        let constraint = stmt.pragmas.iter().find_map(|p| match p {
            Pragma::Constraint(n) => Some(*n),
            _ => None,
        });
        match &stmt.kind {
            StmtKind::Decl(decl) => {
                // Pragmas written before a declaration statement attach to
                // the declaration (e.g. `#pragma memory monolithic`).
                if decl.pragmas.is_empty() && !stmt.pragmas.is_empty() {
                    let mut with = decl.clone();
                    with.pragmas = stmt.pragmas.clone();
                    return self.lower_decl(&with, out);
                }
                self.lower_decl(decl, out)
            }
            StmtKind::Expr(e) => {
                // Evaluate for side effects; a pure result is discarded.
                let lowered = self.lower_expr_allow_void(e, out)?;
                if let Some(expr) = lowered {
                    // Keep call/recv results out; pure loads are dropped.
                    let _ = expr;
                }
                Ok(())
            }
            StmtKind::If { cond, then, els } => {
                let cond = self.lower_cond(cond, out)?;
                let then = self.lower_block(then)?;
                let els = match els {
                    Some(b) => self.lower_block(b)?,
                    None => HirBlock::default(),
                };
                out.push(HirStmt::If { cond, then, els });
                Ok(())
            }
            StmtKind::While { cond, body } => {
                // Side effects in the condition must re-run each iteration;
                // require the condition to be effect-free for loops.
                let cond = self.lower_loop_cond(cond)?;
                self.loop_depth += 1;
                let body = self.lower_block(body)?;
                self.loop_depth -= 1;
                out.push(HirStmt::While { cond, body, unroll });
                Ok(())
            }
            StmtKind::DoWhile { body, cond } => {
                let cond = self.lower_loop_cond(cond)?;
                self.loop_depth += 1;
                let body = self.lower_block(body)?;
                self.loop_depth -= 1;
                out.push(HirStmt::DoWhile { body, cond });
                Ok(())
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push(HashMap::new());
                let mut init_stmts = Vec::new();
                if let Some(s) = init {
                    self.lower_stmt(s, &mut init_stmts)?;
                }
                let cond = match cond {
                    Some(c) => self.lower_loop_cond(c)?,
                    None => HirExpr::konst(1, Type::Bool),
                };
                let mut step_stmts = Vec::new();
                if let Some(s) = step {
                    self.lower_expr_allow_void(s, &mut step_stmts)?;
                }
                self.loop_depth += 1;
                let body = self.lower_block(body)?;
                self.loop_depth -= 1;
                self.scopes.pop();
                out.push(HirStmt::For {
                    init: HirBlock { stmts: init_stmts },
                    cond,
                    step: HirBlock { stmts: step_stmts },
                    body,
                    unroll,
                });
                Ok(())
            }
            StmtKind::Return(value) => {
                if self.par_depth > 0 {
                    return Err(err("`return` inside `par` is not synthesizable", stmt.span));
                }
                let value = match (value, &self.ret_ty) {
                    (None, Type::Void) => None,
                    (None, _) => {
                        return Err(err("non-void function must return a value", stmt.span));
                    }
                    (Some(_), Type::Void) => {
                        return Err(err("void function cannot return a value", stmt.span));
                    }
                    (Some(e), ret_ty) => {
                        let ret_ty = ret_ty.clone();
                        let v = self.lower_expr(e, out)?;
                        Some(self.coerce(v, &ret_ty, e.span)?)
                    }
                };
                out.push(HirStmt::Return(value));
                Ok(())
            }
            StmtKind::Break => {
                if self.loop_depth == 0 {
                    return Err(err("`break` outside of a loop", stmt.span));
                }
                out.push(HirStmt::Break);
                Ok(())
            }
            StmtKind::Continue => {
                if self.loop_depth == 0 {
                    return Err(err("`continue` outside of a loop", stmt.span));
                }
                out.push(HirStmt::Continue);
                Ok(())
            }
            StmtKind::Block(b) => {
                let block = self.lower_block(b)?;
                match constraint {
                    Some(cycles) => out.push(HirStmt::Constraint {
                        cycles,
                        body: block,
                    }),
                    None => out.push(HirStmt::Block(block)),
                }
                Ok(())
            }
            StmtKind::Par(branches) => {
                self.uses_par = true;
                // `break`/`continue` may not cross a par boundary.
                let saved_depth = std::mem::replace(&mut self.loop_depth, 0);
                self.par_depth += 1;
                let mut lowered = Vec::new();
                for b in branches {
                    lowered.push(self.lower_block(b)?);
                }
                self.par_depth -= 1;
                self.loop_depth = saved_depth;
                out.push(HirStmt::Par(lowered));
                Ok(())
            }
            StmtKind::Send { chan, value } => {
                let chan_id = self.channel_local(chan)?;
                let elem_ty = match self.local_ty(chan_id) {
                    Type::Chan(elem) => (**elem).clone(),
                    _ => unreachable!("channel_local checks the type"),
                };
                self.uses_channels = true;
                let v = self.lower_expr(value, out)?;
                let v = self.coerce(v, &elem_ty, value.span)?;
                out.push(HirStmt::Send {
                    chan: chan_id,
                    value: v,
                    span: stmt.span,
                });
                Ok(())
            }
            StmtKind::Delay => {
                out.push(HirStmt::Delay);
                Ok(())
            }
        }
    }

    fn lower_decl(
        &mut self,
        decl: &ast::VarDecl,
        out: &mut Vec<HirStmt>,
    ) -> Result<(), FrontendError> {
        let bank = bank_from_pragmas(&decl.pragmas);
        let ii = decl.pragmas.iter().find_map(|p| match p {
            Pragma::Ii(n) => Some(*n),
            _ => None,
        });
        if ii.is_some() && !matches!(decl.ty, Type::Chan(_)) {
            return Err(err(
                "`@ii(N)` applies only to channel declarations",
                decl.span,
            ));
        }
        match (&decl.ty, &decl.init) {
            (Type::Chan(_), None) => {
                self.uses_channels = true;
                let id = self.add_local(&decl.name, decl.ty.clone(), false, MemBank::Auto, None);
                self.locals[id.0 as usize].ii = ii;
                self.bind(&decl.name, Binding::Local(id), decl.span)
            }
            (Type::Chan(_), Some(_)) => Err(err("channels cannot be initialized", decl.span)),
            (Type::Array(elem, n), init) => {
                if !elem.is_scalar() {
                    return Err(err("only 1-D arrays are supported", decl.span));
                }
                let rom = match init {
                    Some(Init::List(elems, span)) => {
                        if !decl.is_const {
                            return Err(err(
                                "array initializer lists are only allowed on `const` arrays (ROMs)",
                                *span,
                            ));
                        }
                        if elems.len() > *n {
                            return Err(err("too many initializers", *span));
                        }
                        let mut values = Vec::with_capacity(*n);
                        for e in elems {
                            let v = const_eval(e, &self.ctx.global_bindings)
                                .ok_or_else(|| err("ROM initializer must be constant", e.span))?;
                            values.push(canonical(v, elem));
                        }
                        values.resize(*n, 0);
                        Some(values)
                    }
                    Some(Init::Expr(e)) => {
                        return Err(err("arrays need a `{...}` initializer", e.span));
                    }
                    None => {
                        if decl.is_const {
                            return Err(err("const array needs an initializer", decl.span));
                        }
                        None
                    }
                };
                let id = self.add_local(&decl.name, decl.ty.clone(), false, bank, rom);
                self.bind(&decl.name, Binding::Local(id), decl.span)
            }
            (ty, init) if ty.is_scalar() || matches!(ty, Type::Ptr(_)) => {
                let id = self.add_local(&decl.name, ty.clone(), false, MemBank::Auto, None);
                // The initializer may reference shadowed outer bindings, so
                // lower it before installing the new binding... but C scopes
                // the name immediately. We follow C: bind first is wrong for
                // `int x = x;` — lower init first, then bind.
                if let Some(Init::Expr(e)) = init {
                    let ty = ty.clone();
                    let v = self.lower_expr(e, out)?;
                    let v = self.coerce(v, &ty, e.span)?;
                    out.push(HirStmt::Assign {
                        place: HirPlace::Local(id),
                        value: v,
                        span: decl.span,
                    });
                } else if let Some(Init::List(_, span)) = init {
                    return Err(err("scalar cannot take a list initializer", *span));
                }
                self.bind(&decl.name, Binding::Local(id), decl.span)
            }
            _ => Err(err(
                format!("cannot declare a local of type `{}`", decl.ty),
                decl.span,
            )),
        }
    }

    fn channel_local(&mut self, e: &Expr) -> Result<LocalId, FrontendError> {
        match &e.kind {
            ExprKind::Ident(name) => match self.lookup(name) {
                Some(Binding::Local(id)) if matches!(self.local_ty(id), Type::Chan(_)) => Ok(id),
                Some(_) => Err(err(format!("`{name}` is not a channel"), e.span)),
                None => Err(err(format!("undefined name `{name}`"), e.span)),
            },
            _ => Err(err("channel argument must be a channel name", e.span)),
        }
    }

    /// Loop conditions re-evaluate every iteration, so they must be free of
    /// side effects (no embedded assignment/call/recv).
    fn lower_loop_cond(&mut self, e: &Expr) -> Result<HirExpr, FrontendError> {
        let mut side = Vec::new();
        let cond = self.lower_cond(e, &mut side)?;
        if !side.is_empty() {
            return Err(err(
                "loop conditions must be side-effect free in CHL",
                e.span,
            ));
        }
        Ok(cond)
    }

    // ----- expressions -----

    /// Lowers an expression to a boolean condition.
    fn lower_cond(&mut self, e: &Expr, out: &mut Vec<HirStmt>) -> Result<HirExpr, FrontendError> {
        let v = self.lower_expr(e, out)?;
        self.coerce_bool(v, e.span)
    }

    fn coerce_bool(&mut self, e: HirExpr, span: Span) -> Result<HirExpr, FrontendError> {
        match &e.ty {
            Type::Bool => Ok(e),
            Type::Int(_) | Type::Ptr(_) => {
                let zero = HirExpr::konst(0, e.ty.clone());
                Ok(HirExpr {
                    ty: Type::Bool,
                    kind: HirExprKind::Binary(BinOp::Ne, Box::new(e), Box::new(zero)),
                })
            }
            other => Err(err(format!("`{other}` is not usable as a condition"), span)),
        }
    }

    /// Inserts a conversion of `e` to `target` if needed.
    fn coerce(&mut self, e: HirExpr, target: &Type, span: Span) -> Result<HirExpr, FrontendError> {
        if &e.ty == target {
            return Ok(e);
        }
        match (&e.ty, target) {
            (Type::Int(_) | Type::Bool, Type::Int(_) | Type::Bool) => {
                // Constant-fold casts of constants immediately.
                if let Some(v) = e.as_const() {
                    return Ok(HirExpr::konst(v, target.clone()));
                }
                Ok(HirExpr {
                    ty: target.clone(),
                    kind: HirExprKind::Cast(Box::new(e)),
                })
            }
            _ => Err(err(
                format!("cannot convert `{}` to `{}`", e.ty, target),
                span,
            )),
        }
    }

    /// Lowers an expression statement, allowing void calls.
    fn lower_expr_allow_void(
        &mut self,
        e: &Expr,
        out: &mut Vec<HirStmt>,
    ) -> Result<Option<HirExpr>, FrontendError> {
        // `x++;` with the value discarded needs no temporary — lower it as
        // the prefix form (this also keeps `for (...; ...; i++)` steps in
        // the canonical single-assignment shape the unroller recognizes).
        if let ExprKind::IncDec { inc, target, .. } = &e.kind {
            let as_prefix = Expr {
                kind: ExprKind::IncDec {
                    pre: true,
                    inc: *inc,
                    target: target.clone(),
                },
                span: e.span,
            };
            return Ok(Some(self.lower_expr(&as_prefix, out)?));
        }
        if let ExprKind::Call { callee, args } = &e.kind {
            let (func, _ret_ty) = self.resolve_call(callee, e.span)?;
            let args = self.lower_args(func, args, e.span, out)?;
            out.push(HirStmt::Call {
                dst: None,
                func,
                args,
                span: e.span,
            });
            return Ok(None);
        }
        Ok(Some(self.lower_expr(e, out)?))
    }

    fn resolve_call(&mut self, callee: &str, span: Span) -> Result<(FuncId, Type), FrontendError> {
        let id = *self
            .ctx
            .func_names
            .get(callee)
            .ok_or_else(|| err(format!("undefined function `{callee}`"), span))?;
        if !self.callees.contains(&id) {
            self.callees.push(id);
        }
        Ok((id, self.ctx.func_decls[id.0 as usize].ret_ty.clone()))
    }

    fn lower_args(
        &mut self,
        func: FuncId,
        args: &[Expr],
        span: Span,
        out: &mut Vec<HirStmt>,
    ) -> Result<Vec<HirArg>, FrontendError> {
        let params: Vec<(String, Type)> = self.ctx.func_decls[func.0 as usize]
            .params
            .iter()
            .map(|p| (p.name.clone(), p.ty.clone()))
            .collect();
        if params.len() != args.len() {
            return Err(err(
                format!(
                    "`{}` expects {} arguments, got {}",
                    self.ctx.func_decls[func.0 as usize].name,
                    params.len(),
                    args.len()
                ),
                span,
            ));
        }
        let mut lowered = Vec::new();
        for (arg, (pname, pty)) in args.iter().zip(&params) {
            match pty {
                Type::Array(pelem, plen) => {
                    let place = self.lower_place(arg, out)?;
                    let aty = self.place_type(&place, arg.span)?;
                    match &aty {
                        Type::Array(aelem, alen) if **aelem == **pelem && alen == plen => {
                            lowered.push(HirArg::Array(place));
                        }
                        other => {
                            return Err(err(
                                format!("argument for `{pname}` must be `{pty}`, got `{other}`"),
                                arg.span,
                            ));
                        }
                    }
                }
                Type::Ptr(ptarget) => {
                    // Array decay: an array argument becomes &arr[0].
                    if let Ok(place) = self.lower_place(arg, &mut Vec::new()) {
                        let aty = self.place_type(&place, arg.span)?;
                        if let Type::Array(aelem, _) = &aty {
                            if **aelem == **ptarget {
                                let place = self.lower_place(arg, out)?;
                                let zero = HirExpr::konst(0, Type::int());
                                lowered.push(HirArg::Value(HirExpr {
                                    ty: pty.clone(),
                                    kind: HirExprKind::AddrOf(Box::new(HirPlace::Index {
                                        base: Box::new(place),
                                        index: Box::new(zero),
                                    })),
                                }));
                                continue;
                            }
                        }
                    }
                    let v = self.lower_expr(arg, out)?;
                    if &v.ty != pty {
                        return Err(err(
                            format!("argument for `{pname}` must be `{pty}`, got `{}`", v.ty),
                            arg.span,
                        ));
                    }
                    lowered.push(HirArg::Value(v));
                }
                _ => {
                    let v = self.lower_expr(arg, out)?;
                    let v = self.coerce(v, pty, arg.span)?;
                    lowered.push(HirArg::Value(v));
                }
            }
        }
        Ok(lowered)
    }

    fn place_type(&self, place: &HirPlace, span: Span) -> Result<Type, FrontendError> {
        match place {
            HirPlace::Local(id) => Ok(self.local_ty(*id).clone()),
            HirPlace::Global(id) => Ok(self.ctx.globals[id.0 as usize].ty.clone()),
            HirPlace::Index { base, .. } => {
                let bty = self.place_type(base, span)?;
                bty.element()
                    .cloned()
                    .ok_or_else(|| err(format!("cannot index into `{bty}`"), span))
            }
            HirPlace::Deref(e) => {
                e.ty.element()
                    .cloned()
                    .ok_or_else(|| err("cannot dereference a non-pointer", span))
            }
        }
    }

    fn lower_place(&mut self, e: &Expr, out: &mut Vec<HirStmt>) -> Result<HirPlace, FrontendError> {
        match &e.kind {
            ExprKind::Ident(name) => match self.lookup(name) {
                Some(Binding::Local(id)) => Ok(HirPlace::Local(id)),
                Some(Binding::Global(id)) => Ok(HirPlace::Global(id)),
                Some(Binding::Const(..)) => {
                    Err(err(format!("`{name}` is a constant, not a place"), e.span))
                }
                None => Err(err(format!("undefined name `{name}`"), e.span)),
            },
            ExprKind::Index { base, index } => {
                // Array indexing when the base is a place of array type;
                // pointer arithmetic otherwise.
                let base_is_array_place = {
                    let mut probe = Vec::new();
                    match self.lower_place(base, &mut probe) {
                        Ok(p) => matches!(self.place_type(&p, base.span), Ok(Type::Array(..))),
                        Err(_) => false,
                    }
                };
                if base_is_array_place {
                    let place = self.lower_place(base, out)?;
                    let idx = self.lower_expr(index, out)?;
                    let idx = self.index_expr(idx, index.span)?;
                    Ok(HirPlace::Index {
                        base: Box::new(place),
                        index: Box::new(idx),
                    })
                } else {
                    // p[i] == *(p + i)
                    let ptr = self.lower_expr(base, out)?;
                    if !matches!(ptr.ty, Type::Ptr(_)) {
                        return Err(err(format!("cannot index into `{}`", ptr.ty), e.span));
                    }
                    let idx = self.lower_expr(index, out)?;
                    let idx = self.index_expr(idx, index.span)?;
                    let pty = ptr.ty.clone();
                    let sum = HirExpr {
                        ty: pty,
                        kind: HirExprKind::Binary(BinOp::Add, Box::new(ptr), Box::new(idx)),
                    };
                    Ok(HirPlace::Deref(Box::new(sum)))
                }
            }
            ExprKind::Deref(inner) => {
                let ptr = self.lower_expr(inner, out)?;
                if !matches!(ptr.ty, Type::Ptr(_)) {
                    return Err(err(format!("cannot dereference `{}`", ptr.ty), e.span));
                }
                Ok(HirPlace::Deref(Box::new(ptr)))
            }
            _ => Err(err("expression is not assignable", e.span)),
        }
    }

    fn index_expr(&mut self, idx: HirExpr, span: Span) -> Result<HirExpr, FrontendError> {
        match idx.ty {
            Type::Int(_) => Ok(idx),
            Type::Bool => self.coerce(idx, &Type::int(), span),
            ref other => Err(err(
                format!("array index must be an integer, got `{other}`"),
                span,
            )),
        }
    }

    fn lower_expr(&mut self, e: &Expr, out: &mut Vec<HirStmt>) -> Result<HirExpr, FrontendError> {
        match &e.kind {
            ExprKind::IntLit(v) => {
                let ty = if *v <= i32::MAX as u64 {
                    Type::int()
                } else {
                    Type::sint(64)
                };
                Ok(HirExpr::konst(*v as i64, ty))
            }
            ExprKind::BoolLit(b) => Ok(HirExpr::konst(*b as i64, Type::Bool)),
            ExprKind::Ident(name) => match self.lookup(name) {
                Some(Binding::Const(v, ty)) => Ok(HirExpr::konst(v, ty)),
                Some(Binding::Local(id)) => {
                    let ty = self.local_ty(id).clone();
                    if matches!(ty, Type::Chan(_)) {
                        return Err(err(
                            format!("channel `{name}` can only be used with send/recv"),
                            e.span,
                        ));
                    }
                    Ok(HirExpr {
                        ty,
                        kind: HirExprKind::Load(Box::new(HirPlace::Local(id))),
                    })
                }
                Some(Binding::Global(id)) => {
                    let ty = self.ctx.globals[id.0 as usize].ty.clone();
                    Ok(HirExpr {
                        ty,
                        kind: HirExprKind::Load(Box::new(HirPlace::Global(id))),
                    })
                }
                None => Err(err(format!("undefined name `{name}`"), e.span)),
            },
            ExprKind::Unary(op, inner) => {
                let v = self.lower_expr(inner, out)?;
                match op {
                    UnOp::LogNot => {
                        let b = self.coerce_bool(v, inner.span)?;
                        Ok(HirExpr {
                            ty: Type::Bool,
                            kind: HirExprKind::Unary(UnOp::LogNot, Box::new(b)),
                        })
                    }
                    UnOp::Neg | UnOp::Not => {
                        let it = Type::promote(&v.ty).ok_or_else(|| {
                            err(format!("cannot apply `{op}` to `{}`", v.ty), e.span)
                        })?;
                        let ty = Type::Int(it);
                        let v = self.coerce(v, &ty, inner.span)?;
                        Ok(HirExpr {
                            ty,
                            kind: HirExprKind::Unary(*op, Box::new(v)),
                        })
                    }
                }
            }
            ExprKind::Binary(op, l, r) => {
                if op.is_logical() {
                    // Both sides evaluate (see module docs); select keeps
                    // the boolean result.
                    let a = self.lower_cond(l, out)?;
                    let b = self.lower_cond(r, out)?;
                    let (t, f) = match op {
                        BinOp::LogAnd => (b, HirExpr::konst(0, Type::Bool)),
                        BinOp::LogOr => (HirExpr::konst(1, Type::Bool), b),
                        _ => unreachable!(),
                    };
                    return Ok(HirExpr {
                        ty: Type::Bool,
                        kind: HirExprKind::Select(Box::new(a), Box::new(t), Box::new(f)),
                    });
                }
                let a = self.lower_expr(l, out)?;
                let b = self.lower_expr(r, out)?;
                self.lower_binary(*op, a, b, e.span)
            }
            ExprKind::Assign { op, target, value } => {
                let place = self.lower_place(target, out)?;
                let pty = self.place_type(&place, target.span)?;
                if !pty.is_scalar() && !matches!(pty, Type::Ptr(_)) {
                    return Err(err(
                        format!("cannot assign to a value of type `{pty}`"),
                        target.span,
                    ));
                }
                if matches!(place, HirPlace::Global(_)) {
                    return Err(err("cannot assign to a constant", target.span));
                }
                if let HirPlace::Index { base, .. } = &place {
                    if matches!(**base, HirPlace::Global(_)) {
                        return Err(err("cannot assign to a constant ROM", target.span));
                    }
                }
                let rhs = self.lower_expr(value, out)?;
                let rhs = match op {
                    None => self.coerce(rhs, &pty, value.span)?,
                    Some(binop) => {
                        let cur = HirExpr {
                            ty: pty.clone(),
                            kind: HirExprKind::Load(Box::new(place.clone())),
                        };
                        let combined = self.lower_binary(*binop, cur, rhs, e.span)?;
                        self.coerce(combined, &pty, value.span)?
                    }
                };
                out.push(HirStmt::Assign {
                    place: place.clone(),
                    value: rhs,
                    span: e.span,
                });
                Ok(HirExpr {
                    ty: pty,
                    kind: HirExprKind::Load(Box::new(place)),
                })
            }
            ExprKind::Ternary { cond, then, els } => {
                let c = self.lower_cond(cond, out)?;
                let t = self.lower_expr(then, out)?;
                let f = self.lower_expr(els, out)?;
                let ty = if t.ty == f.ty {
                    t.ty.clone()
                } else {
                    let it = Type::common_int(&t.ty, &f.ty).ok_or_else(|| {
                        err(
                            format!("incompatible ternary arms `{}` and `{}`", t.ty, f.ty),
                            e.span,
                        )
                    })?;
                    Type::Int(it)
                };
                let t = self.coerce(t, &ty, then.span)?;
                let f = self.coerce(f, &ty, els.span)?;
                Ok(HirExpr {
                    ty,
                    kind: HirExprKind::Select(Box::new(c), Box::new(t), Box::new(f)),
                })
            }
            ExprKind::Call { callee, args } => {
                let (func, ret_ty) = self.resolve_call(callee, e.span)?;
                if ret_ty == Type::Void {
                    return Err(err(
                        format!("void function `{callee}` used as a value"),
                        e.span,
                    ));
                }
                let args = self.lower_args(func, args, e.span, out)?;
                let tmp = self.fresh_temp(ret_ty.clone());
                out.push(HirStmt::Call {
                    dst: Some(HirPlace::Local(tmp)),
                    func,
                    args,
                    span: e.span,
                });
                Ok(HirExpr {
                    ty: ret_ty,
                    kind: HirExprKind::Load(Box::new(HirPlace::Local(tmp))),
                })
            }
            ExprKind::Index { .. } | ExprKind::Deref(_) => {
                let place = self.lower_place(e, out)?;
                let ty = self.place_type(&place, e.span)?;
                Ok(HirExpr {
                    ty,
                    kind: HirExprKind::Load(Box::new(place)),
                })
            }
            ExprKind::AddrOf(inner) => {
                let place = self.lower_place(inner, out)?;
                if place_root_is_global(&place) {
                    return Err(err("cannot take the address of a constant ROM", e.span));
                }
                let ty = self.place_type(&place, inner.span)?;
                if !ty.is_scalar() && !matches!(ty, Type::Ptr(_)) {
                    return Err(err(format!("cannot take the address of a `{ty}`"), e.span));
                }
                Ok(HirExpr {
                    ty: Type::Ptr(Box::new(ty)),
                    kind: HirExprKind::AddrOf(Box::new(place)),
                })
            }
            ExprKind::Cast { ty, expr } => {
                let v = self.lower_expr(expr, out)?;
                self.coerce(v, ty, e.span)
            }
            ExprKind::Recv(chan) => {
                let chan_id = self.channel_local(chan)?;
                let elem_ty = match self.local_ty(chan_id) {
                    Type::Chan(elem) => (**elem).clone(),
                    _ => unreachable!(),
                };
                self.uses_channels = true;
                let tmp = self.fresh_temp(elem_ty.clone());
                out.push(HirStmt::Recv {
                    dst: HirPlace::Local(tmp),
                    chan: chan_id,
                    span: e.span,
                });
                Ok(HirExpr {
                    ty: elem_ty,
                    kind: HirExprKind::Load(Box::new(HirPlace::Local(tmp))),
                })
            }
            ExprKind::IncDec { pre, inc, target } => {
                let place = self.lower_place(target, out)?;
                let pty = self.place_type(&place, target.span)?;
                if !pty.is_int() {
                    return Err(err("`++`/`--` require an integer place", e.span));
                }
                let cur = HirExpr {
                    ty: pty.clone(),
                    kind: HirExprKind::Load(Box::new(place.clone())),
                };
                let result = if *pre {
                    None
                } else {
                    let tmp = self.fresh_temp(pty.clone());
                    out.push(HirStmt::Assign {
                        place: HirPlace::Local(tmp),
                        value: cur.clone(),
                        span: e.span,
                    });
                    Some(tmp)
                };
                let op = if *inc { BinOp::Add } else { BinOp::Sub };
                let one = HirExpr::konst(1, pty.clone());
                let updated = self.lower_binary(op, cur, one, e.span)?;
                let updated = self.coerce(updated, &pty, e.span)?;
                out.push(HirStmt::Assign {
                    place: place.clone(),
                    value: updated,
                    span: e.span,
                });
                let load_of = match result {
                    Some(tmp) => HirPlace::Local(tmp),
                    None => place,
                };
                Ok(HirExpr {
                    ty: pty,
                    kind: HirExprKind::Load(Box::new(load_of)),
                })
            }
        }
    }

    fn lower_binary(
        &mut self,
        op: BinOp,
        a: HirExpr,
        b: HirExpr,
        span: Span,
    ) -> Result<HirExpr, FrontendError> {
        // Pointer arithmetic and comparison.
        if matches!(a.ty, Type::Ptr(_)) || matches!(b.ty, Type::Ptr(_)) {
            return self.lower_ptr_binary(op, a, b, span);
        }
        match op {
            BinOp::Shl | BinOp::Shr => {
                let it = Type::promote(&a.ty)
                    .ok_or_else(|| err(format!("cannot shift `{}`", a.ty), span))?;
                let ty = Type::Int(it);
                let a = self.coerce(a, &ty, span)?;
                let bit = Type::promote(&b.ty).ok_or_else(|| {
                    err(format!("shift amount `{}` is not an integer", b.ty), span)
                })?;
                let b = self.coerce(b, &Type::Int(bit), span)?;
                Ok(HirExpr {
                    ty,
                    kind: HirExprKind::Binary(op, Box::new(a), Box::new(b)),
                })
            }
            _ => {
                let it = Type::common_int(&a.ty, &b.ty).ok_or_else(|| {
                    err(
                        format!("cannot apply `{op}` to `{}` and `{}`", a.ty, b.ty),
                        span,
                    )
                })?;
                let common = Type::Int(it);
                let a = self.coerce(a, &common, span)?;
                let b = self.coerce(b, &common, span)?;
                let ty = if op.is_comparison() {
                    Type::Bool
                } else {
                    common
                };
                Ok(HirExpr {
                    ty,
                    kind: HirExprKind::Binary(op, Box::new(a), Box::new(b)),
                })
            }
        }
    }

    fn lower_ptr_binary(
        &mut self,
        op: BinOp,
        a: HirExpr,
        b: HirExpr,
        span: Span,
    ) -> Result<HirExpr, FrontendError> {
        match (op, &a.ty, &b.ty) {
            (BinOp::Add, Type::Ptr(_), Type::Int(_) | Type::Bool)
            | (BinOp::Sub, Type::Ptr(_), Type::Int(_) | Type::Bool) => {
                let ty = a.ty.clone();
                Ok(HirExpr {
                    ty,
                    kind: HirExprKind::Binary(op, Box::new(a), Box::new(b)),
                })
            }
            (BinOp::Add, Type::Int(_) | Type::Bool, Type::Ptr(_)) => {
                let ty = b.ty.clone();
                Ok(HirExpr {
                    ty,
                    kind: HirExprKind::Binary(BinOp::Add, Box::new(b), Box::new(a)),
                })
            }
            (BinOp::Eq | BinOp::Ne, Type::Ptr(x), Type::Ptr(y)) if x == y => Ok(HirExpr {
                ty: Type::Bool,
                kind: HirExprKind::Binary(op, Box::new(a), Box::new(b)),
            }),
            _ => Err(err(
                format!("invalid pointer operation `{}` {op} `{}`", a.ty, b.ty),
                span,
            )),
        }
    }
}

/// True when the place ultimately names a global ROM.
fn place_root_is_global(place: &HirPlace) -> bool {
    match place {
        HirPlace::Global(_) => true,
        HirPlace::Index { base, .. } => place_root_is_global(base),
        _ => false,
    }
}

/// Finds every call cycle in the program, as the exact cycle members in
/// call order (`f -> g -> f` reports `[f, g]`, a self-call reports
/// `[f]`). Each strongly connected component of the call graph yields
/// one representative cycle; cycles are reported in ascending order of
/// their smallest member's [`FuncId`].
pub fn recursion_cycles(prog: &HirProgram) -> Vec<Vec<FuncId>> {
    // Iterative Tarjan SCC over the callee lists.
    let n = prog.funcs.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        // (node, next-callee position)
        let mut work: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut pos)) = work.last_mut() {
            if *pos == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            let callees = &prog.funcs[v].callees;
            if *pos < callees.len() {
                let w = callees[*pos].0 as usize;
                *pos += 1;
                if index[w] == usize::MAX {
                    work.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    let cyclic = comp.len() > 1
                        || prog.funcs[comp[0]]
                            .callees
                            .contains(&FuncId(comp[0] as u32));
                    if cyclic {
                        comp.sort_unstable();
                        sccs.push(comp);
                    }
                }
                work.pop();
                if let Some(&mut (u, _)) = work.last_mut() {
                    low[u] = low[u].min(low[v]);
                }
            }
        }
    }
    sccs.sort_by_key(|c| c[0]);
    // Order each SCC as an actual call chain starting from its smallest
    // member, following in-SCC callee edges.
    sccs.into_iter()
        .map(|comp| {
            let mut order = vec![FuncId(comp[0] as u32)];
            let mut seen = vec![comp[0]];
            loop {
                let cur = order.last().expect("nonempty").0 as usize;
                let next = prog.funcs[cur]
                    .callees
                    .iter()
                    .find(|c| comp.contains(&(c.0 as usize)) && !seen.contains(&(c.0 as usize)));
                match next {
                    Some(&c) => {
                        seen.push(c.0 as usize);
                        order.push(c);
                    }
                    None => break,
                }
            }
            // Members not on the greedy chain (e.g. diamond SCCs) still
            // belong to the cycle report; append them in id order.
            for &m in &comp {
                if !seen.contains(&m) {
                    order.push(FuncId(m as u32));
                }
            }
            order
        })
        .collect()
}

/// The source span of the first call from `caller` to `callee`, for
/// anchoring recursion diagnostics at the offending call site.
fn first_call_span(prog: &HirProgram, caller: FuncId, callee: FuncId) -> Option<Span> {
    let mut found = None;
    prog.func(caller).body.any_stmt(&mut |s| match s {
        HirStmt::Call { func, span, .. } if *func == callee => {
            found = Some(*span);
            true
        }
        _ => false,
    });
    found
}

/// Rejects direct or mutual recursion (hardware has no stack). The
/// diagnostic names exactly the functions on the cycle — no incidental
/// call-chain prefix — and is anchored at the recursive call site.
fn check_no_recursion(prog: &HirProgram) -> Result<(), FrontendError> {
    let cycles = recursion_cycles(prog);
    let Some(cycle) = cycles.first() else {
        return Ok(());
    };
    let mut names: Vec<String> = cycle.iter().map(|&f| prog.func(f).name.clone()).collect();
    names.push(names[0].clone()); // close the loop: f -> g -> f
    let back_to = cycle[0];
    let last = *cycle.last().expect("cycle is nonempty");
    let span = first_call_span(prog, last, back_to)
        .or_else(|| first_call_span(prog, cycle[0], cycle[1 % cycle.len()]))
        .unwrap_or_else(Span::dummy);
    Err(err(
        format!(
            "recursion is not synthesizable (cycle: {}); `chls rewrite` can repair bounded recursion",
            names.join(" -> ")
        ),
        span,
    ))
}

/// Convenience: parse and analyze in one step.
///
/// # Errors
///
/// Returns lexical, syntactic, or semantic diagnostics.
pub fn compile_to_hir(src: &str) -> Result<HirProgram, FrontendError> {
    let ast = crate::parser::parse(src).map_err(FrontendError::single)?;
    analyze(&ast)
}

/// Parse and analyze without the recursion rejection (see
/// [`analyze_relaxed`]).
///
/// # Errors
///
/// Returns lexical, syntactic, or semantic diagnostics.
pub fn compile_to_hir_relaxed(src: &str) -> Result<HirProgram, FrontendError> {
    let ast = crate::parser::parse(src).map_err(FrontendError::single)?;
    analyze_relaxed(&ast)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hir_ok(src: &str) -> HirProgram {
        match compile_to_hir(src) {
            Ok(p) => p,
            Err(e) => panic!("sema failed: {}", e.render(src)),
        }
    }

    fn hir_err(src: &str) -> String {
        compile_to_hir(src)
            .expect_err("expected sema error")
            .first()
            .message
            .clone()
    }

    #[test]
    fn lowers_simple_function() {
        let p = hir_ok("int add(int a, int b) { return a + b; }");
        let (_, f) = p.func_by_name("add").unwrap();
        assert_eq!(f.num_params, 2);
        assert_eq!(f.ret_ty, Type::int());
        assert!(matches!(f.body.stmts[0], HirStmt::Return(Some(_))));
    }

    #[test]
    fn widening_inserts_cast() {
        let p = hir_ok("int f(uint<8> x) { return x + 1000; }");
        let (_, f) = p.func_by_name("f").unwrap();
        let HirStmt::Return(Some(e)) = &f.body.stmts[0] else {
            panic!("expected return");
        };
        // uint<8> + int(32) -> common uint<32>, then cast to int for return.
        assert_eq!(e.ty, Type::int());
    }

    #[test]
    fn comparisons_yield_bool() {
        let p = hir_ok("bool f(int a, int b) { return a < b; }");
        let (_, f) = p.func_by_name("f").unwrap();
        let HirStmt::Return(Some(e)) = &f.body.stmts[0] else {
            panic!()
        };
        assert_eq!(e.ty, Type::Bool);
    }

    #[test]
    fn shift_keeps_lhs_type() {
        let p = hir_ok("uint<8> f(uint<8> x) { return x << 2; }");
        let (_, f) = p.func_by_name("f").unwrap();
        let HirStmt::Return(Some(e)) = &f.body.stmts[0] else {
            panic!()
        };
        assert_eq!(e.ty, Type::uint(8));
    }

    #[test]
    fn call_in_expression_is_hoisted() {
        let p = hir_ok(
            "int g(int x) { return x * 2; }
             int f(int a) { return g(a) + g(a + 1); }",
        );
        let (_, f) = p.func_by_name("f").unwrap();
        let calls = f
            .body
            .stmts
            .iter()
            .filter(|s| matches!(s, HirStmt::Call { .. }))
            .count();
        assert_eq!(calls, 2);
        assert!(matches!(f.body.stmts.last(), Some(HirStmt::Return(_))));
    }

    #[test]
    fn incdec_desugars() {
        let p = hir_ok("int f() { int x = 0; int y = x++; int z = ++x; return y + z; }");
        let (_, f) = p.func_by_name("f").unwrap();
        // Every statement is now a plain assignment or return.
        for s in &f.body.stmts {
            assert!(
                matches!(s, HirStmt::Assign { .. } | HirStmt::Return(_)),
                "unexpected stmt {s:?}"
            );
        }
    }

    #[test]
    fn recursion_is_rejected() {
        let msg = hir_err("int f(int n) { return n == 0 ? 1 : n * f(n - 1); }");
        assert!(msg.contains("recursion"), "{msg}");
    }

    #[test]
    fn mutual_recursion_is_rejected() {
        let msg = hir_err(
            "int g(int n);
             int f(int n) { return g(n); }
             int g(int n) { return f(n); }",
        );
        // The forward declaration merges with the later definition, so
        // the diagnostic names the actual cycle, not a missing body.
        assert!(msg.contains("recursion"), "{msg}");
        assert!(
            msg.contains("f -> g -> f") || msg.contains("g -> f -> g"),
            "{msg}"
        );
    }

    #[test]
    fn forward_declaration_merges_with_definition() {
        let p = hir_ok(
            "int helper(int n);
             int main(int x) { return helper(x); }
             int helper(int n) { return n + 1; }",
        );
        assert_eq!(p.funcs.len(), 2);
    }

    #[test]
    fn forward_declaration_without_definition_is_rejected() {
        let msg = hir_err("int ghost(int n); int main(int x) { return x; }");
        assert!(msg.contains("no body"), "{msg}");
    }

    #[test]
    fn forward_declaration_signature_mismatch_is_rejected() {
        let msg = hir_err(
            "int f(int n);
             int f(int n, int m) { return n + m; }
             int main() { return 0; }",
        );
        assert!(msg.contains("does not match"), "{msg}");
    }

    #[test]
    fn recursion_diagnostic_is_span_anchored() {
        let e = compile_to_hir("int f(int n) { return n == 0 ? 1 : n * f(n - 1); }")
            .expect_err("expected recursion error");
        let d = e.diagnostics.first().expect("one diagnostic");
        assert!(
            !d.span.is_dummy(),
            "cycle diagnostic should anchor at the call site"
        );
    }

    #[test]
    fn relaxed_analysis_accepts_recursion() {
        let p = crate::sema::compile_to_hir_relaxed(
            "int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }",
        )
        .expect("relaxed path admits recursion");
        let cycles = recursion_cycles(&p);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 1);
    }

    #[test]
    fn mutable_global_rejected() {
        let msg = hir_err("int counter = 0; int f() { return counter; }");
        assert!(msg.contains("const"), "{msg}");
    }

    #[test]
    fn const_global_scalar_is_folded() {
        let p = hir_ok("const int N = 7; int f() { return N; }");
        let (_, f) = p.func_by_name("f").unwrap();
        let HirStmt::Return(Some(e)) = &f.body.stmts[0] else {
            panic!()
        };
        assert_eq!(e.as_const(), Some(7));
    }

    #[test]
    fn const_global_array_becomes_rom() {
        let p = hir_ok("const int tab[4] = {1, 2, 3}; int f() { return tab[0]; }");
        assert_eq!(p.globals.len(), 1);
        assert_eq!(p.globals[0].values, vec![1, 2, 3, 0]);
    }

    #[test]
    fn rom_write_rejected() {
        let msg = hir_err("const int tab[2] = {1, 2}; void f() { tab[0] = 3; }");
        assert!(msg.contains("constant"), "{msg}");
    }

    #[test]
    fn break_outside_loop_rejected() {
        let msg = hir_err("void f() { break; }");
        assert!(msg.contains("break"));
    }

    #[test]
    fn break_cannot_cross_par() {
        let msg = hir_err("void f() { while (true) { par { break; } } }");
        assert!(msg.contains("break"));
    }

    #[test]
    fn par_and_channels_flagged() {
        let p = hir_ok(
            "void f() {
                chan<int> c;
                int got;
                par {
                    send(c, 1);
                    got = recv(c);
                }
            }",
        );
        let (_, f) = p.func_by_name("f").unwrap();
        assert!(f.uses_par);
        assert!(f.uses_channels);
    }

    #[test]
    fn channel_in_arithmetic_rejected() {
        let msg = hir_err("void f() { chan<int> c; int x = c + 1; }");
        assert!(msg.contains("channel"));
    }

    #[test]
    fn send_value_coerced_to_elem_type() {
        hir_ok("void f() { chan<uint<8>> c; par { send(c, 300); { uint<8> v = recv(c); } } }");
    }

    #[test]
    fn array_param_checked_exactly() {
        let msg = hir_err(
            "int g(int a[4]) { return a[0]; }
             int f() { int b[8]; return g(b); }",
        );
        assert!(msg.contains("argument"));
    }

    #[test]
    fn array_decays_to_pointer_param() {
        hir_ok(
            "int g(int *p) { return p[0]; }
             int f() { int b[8]; b[0] = 5; return g(b); }",
        );
    }

    #[test]
    fn pointer_arith_and_deref() {
        let p = hir_ok(
            "int f() {
                int a[4];
                a[0] = 1; a[1] = 2;
                int *p = &a[0];
                p = p + 1;
                return *p;
            }",
        );
        assert_eq!(p.funcs.len(), 1);
    }

    #[test]
    fn addr_of_rom_rejected() {
        let msg = hir_err("const int t[2] = {1,2}; void f() { int *p = &t[0]; }");
        assert!(msg.contains("ROM") || msg.contains("constant"));
    }

    #[test]
    fn loop_cond_with_side_effects_rejected() {
        let msg = hir_err("void f() { int x = 0; while ((x = x + 1) < 10) { } }");
        assert!(msg.contains("side-effect"));
    }

    #[test]
    fn unroll_pragma_reaches_hir() {
        let p = hir_ok(
            "int f() {
                int s = 0;
                #pragma unroll 2
                for (int i = 0; i < 8; i++) s += i;
                return s;
            }",
        );
        let (_, f) = p.func_by_name("f").unwrap();
        let has_unrolled_for = f.body.stmts.iter().any(|s| {
            matches!(
                s,
                HirStmt::For {
                    unroll: Some(2),
                    ..
                }
            )
        });
        assert!(has_unrolled_for);
    }

    #[test]
    fn constraint_pragma_wraps_block() {
        let p = hir_ok(
            "int f(int a, int b) {
                int x = 0;
                #pragma constraint 2
                { x = a + b; x = x * 2; }
                return x;
            }",
        );
        let (_, f) = p.func_by_name("f").unwrap();
        assert!(f
            .body
            .stmts
            .iter()
            .any(|s| matches!(s, HirStmt::Constraint { cycles: 2, .. })));
    }

    #[test]
    fn clock_period_pragma_recorded() {
        let p = hir_ok("#pragma clock_period 8000\nint f() { return 0; }");
        assert_eq!(p.clock_period_ps, Some(8000));
    }

    #[test]
    fn bank_pragma_on_local_array() {
        let p = hir_ok(
            "int f() {
                int a[8];
                a[0] = 1;
                return a[0];
            }",
        );
        let (_, f) = p.func_by_name("f").unwrap();
        let arr = f.locals.iter().find(|l| l.name == "a").unwrap();
        assert_eq!(arr.bank, MemBank::Auto);
    }

    #[test]
    fn shadowing_in_nested_scopes() {
        let p = hir_ok(
            "int f() {
                int x = 1;
                { int x = 2; x = x + 1; }
                return x;
            }",
        );
        let (_, f) = p.func_by_name("f").unwrap();
        // Two distinct locals named x.
        assert_eq!(f.locals.iter().filter(|l| l.name == "x").count(), 2);
    }

    #[test]
    fn duplicate_in_same_scope_rejected() {
        let msg = hir_err("int f() { int x = 1; int x = 2; return x; }");
        assert!(msg.contains("already defined"));
    }

    #[test]
    fn undefined_name_rejected() {
        let msg = hir_err("int f() { return nope; }");
        assert!(msg.contains("undefined"));
    }

    #[test]
    fn void_function_as_value_rejected() {
        let msg = hir_err(
            "void g() { }
             int f() { return g(); }",
        );
        assert!(msg.contains("void"));
    }

    #[test]
    fn logical_ops_desugar_to_select() {
        let p = hir_ok("bool f(int a, int b) { return a > 0 && b > 0; }");
        let (_, f) = p.func_by_name("f").unwrap();
        let HirStmt::Return(Some(e)) = &f.body.stmts[0] else {
            panic!()
        };
        assert!(matches!(e.kind, HirExprKind::Select(..)));
    }

    #[test]
    fn non_const_array_init_list_rejected() {
        let msg = hir_err("int f() { int a[2] = {1, 2}; return a[0]; }");
        assert!(msg.contains("const"), "{msg}");
    }
}

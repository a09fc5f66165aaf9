//! HIR: the typed, resolved, side-effect-normalized program representation.
//!
//! Semantic analysis ([`crate::sema`]) lowers the AST into HIR with these
//! guarantees, which every downstream consumer (interpreter, CFG lowering,
//! structured backends) relies on:
//!
//! * every name is resolved to a [`LocalId`], [`GlobalId`], or [`FuncId`];
//! * every expression carries its [`Type`], and binary operands have been
//!   converted to their common type with explicit [`HirExprKind::Cast`]s;
//! * expressions are **side-effect free**: assignments, `++`/`--`, function
//!   calls, and channel receives have been hoisted into statements with
//!   compiler temporaries;
//! * short-circuit `&&`/`||` are desugared to [`HirExprKind::Select`]
//!   (sound because expressions cannot trap: division by zero is defined to
//!   yield 0, as in most synthesis flows);
//! * loops with `#pragma unroll` keep their structured [`HirStmt::For`]
//!   form so the unroller can find them.

use crate::ast::{BinOp, UnOp};
use crate::span::Span;
use crate::types::Type;
use std::fmt;

/// Index of a local variable (or parameter) within its function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LocalId(pub u32);

/// Index of a global constant within the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalId(pub u32);

/// Index of a function within the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

impl fmt::Display for LocalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

impl fmt::Display for GlobalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn{}", self.0)
    }
}

/// How an array is mapped onto physical memories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemBank {
    /// Backend default: one dedicated single-port memory per array.
    #[default]
    Auto,
    /// Split across `K` independently-addressable banks (element `i` lives
    /// in bank `i % K`).
    Banked(u32),
    /// Placed in the shared monolithic memory (all such arrays compete for
    /// its single port) — models C's undifferentiated memory.
    Monolithic,
}

/// A whole program after semantic analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct HirProgram {
    /// All functions; [`FuncId`] indexes this.
    pub funcs: Vec<HirFunc>,
    /// All global constants; [`GlobalId`] indexes this.
    pub globals: Vec<HirGlobal>,
    /// Target clock period in picoseconds from `#pragma clock_period`.
    pub clock_period_ps: Option<u64>,
    /// Warning-severity diagnostics collected during lowering; compilation
    /// succeeded despite them. Callers decide whether and where to print.
    pub warnings: Vec<crate::diag::Diagnostic>,
}

impl HirProgram {
    /// Finds a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<(FuncId, &HirFunc)> {
        self.funcs
            .iter()
            .enumerate()
            .find(|(_, f)| f.name == name)
            .map(|(i, f)| (FuncId(i as u32), f))
    }

    /// The function for an id.
    pub fn func(&self, id: FuncId) -> &HirFunc {
        &self.funcs[id.0 as usize]
    }

    /// The global for an id.
    pub fn global(&self, id: GlobalId) -> &HirGlobal {
        &self.globals[id.0 as usize]
    }
}

/// A global constant (scalar constants are folded at use sites, so in
/// practice these are ROM arrays).
#[derive(Debug, Clone, PartialEq)]
pub struct HirGlobal {
    /// Source name.
    pub name: String,
    /// Declared type.
    pub ty: Type,
    /// Flattened element values in canonical form.
    pub values: Vec<i64>,
    /// Memory banking request.
    pub bank: MemBank,
}

/// A function after semantic analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct HirFunc {
    /// Source name.
    pub name: String,
    /// Return type.
    pub ret_ty: Type,
    /// The first `num_params` locals are the parameters, in order.
    pub num_params: usize,
    /// All locals including parameters and compiler temporaries.
    pub locals: Vec<HirLocal>,
    /// Function body.
    pub body: HirBlock,
    /// Functions this one calls (deduplicated).
    pub callees: Vec<FuncId>,
    /// True if the body contains `par`.
    pub uses_par: bool,
    /// True if the body contains channel operations.
    pub uses_channels: bool,
}

impl HirFunc {
    /// Parameter locals, in declaration order.
    pub fn params(&self) -> impl Iterator<Item = (LocalId, &HirLocal)> {
        self.locals
            .iter()
            .take(self.num_params)
            .enumerate()
            .map(|(i, l)| (LocalId(i as u32), l))
    }

    /// The local for an id.
    pub fn local(&self, id: LocalId) -> &HirLocal {
        &self.locals[id.0 as usize]
    }
}

/// A local variable, parameter, or compiler temporary.
#[derive(Debug, Clone, PartialEq)]
pub struct HirLocal {
    /// Source name; temporaries are named `$tN`.
    pub name: String,
    /// Type.
    pub ty: Type,
    /// True for parameters.
    pub is_param: bool,
    /// Memory banking request, for array locals.
    pub bank: MemBank,
    /// Constant initializer (flattened), for `const` array locals (ROMs).
    pub rom: Option<Vec<i64>>,
    /// Declared `@ii(n)` initiation-interval contract, for channel locals.
    pub ii: Option<u32>,
}

/// A sequence of statements.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HirBlock {
    /// Statements in order.
    pub stmts: Vec<HirStmt>,
}

impl HirBlock {
    /// Pre-order walk over every statement at any depth (a statement
    /// before the statements nested in it, nested blocks in
    /// [`HirStmt::blocks`] order); true as soon as `pred` holds.
    pub fn any_stmt<'a>(&'a self, pred: &mut impl FnMut(&'a HirStmt) -> bool) -> bool {
        self.stmts
            .iter()
            .any(|s| pred(s) || s.blocks().any(|b| b.any_stmt(pred)))
    }

    /// Visits every statement at any depth, in [`Self::any_stmt`] order.
    pub fn for_each_stmt<'a>(&'a self, f: &mut impl FnMut(&'a HirStmt)) {
        self.any_stmt(&mut |s| {
            f(s);
            false
        });
    }

    /// Visits every expression the block's statements own, at any depth,
    /// in source order: values, conditions, call arguments, and the index
    /// and deref expressions of written places (see
    /// [`HirPlace::for_each_expr`]). A `do` body comes before its
    /// condition; a `for` visits init, condition, step, then body.
    /// Expressions nested inside a visited expression are the caller's
    /// to walk.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn for_each_expr<'a>(&'a self, f: &mut impl FnMut(&'a HirExpr)) {
        for s in &self.stmts {
            match s {
                HirStmt::Assign { place, value, .. } => {
                    place.for_each_expr(f);
                    f(value);
                }
                HirStmt::Call { dst, args, .. } => {
                    if let Some(d) = dst {
                        d.for_each_expr(f);
                    }
                    for a in args {
                        match a {
                            HirArg::Value(e) => f(e),
                            HirArg::Array(p) => p.for_each_expr(f),
                        }
                    }
                }
                HirStmt::Recv { dst, .. } => dst.for_each_expr(f),
                HirStmt::Send { value, .. } | HirStmt::Return(Some(value)) => f(value),
                HirStmt::If { cond, .. } | HirStmt::While { cond, .. } => f(cond),
                HirStmt::For {
                    init,
                    cond,
                    step,
                    body,
                    ..
                } => {
                    init.for_each_expr(f);
                    f(cond);
                    step.for_each_expr(f);
                    body.for_each_expr(f);
                    continue;
                }
                HirStmt::DoWhile { .. }
                | HirStmt::Return(None)
                | HirStmt::Break
                | HirStmt::Continue
                | HirStmt::Block(_)
                | HirStmt::Par(_)
                | HirStmt::Delay
                | HirStmt::Constraint { .. } => {}
            }
            for b in s.blocks() {
                b.for_each_expr(f);
            }
            if let HirStmt::DoWhile { cond, .. } = s {
                f(cond);
            }
        }
    }

    /// Hands each statement to [`VisitMut::visit_stmt`], in order.
    pub fn walk_mut<V: VisitMut + ?Sized>(&mut self, v: &mut V) {
        for s in &mut self.stmts {
            v.visit_stmt(s);
        }
    }
}

/// An in-place rewrite of the HIR.
///
/// Each hook's default walks into the node's children (`walk_mut`), in
/// the order of [`HirBlock::for_each_expr`]: a statement's written
/// places, expressions and channels, with its nested blocks in
/// [`HirStmt::blocks`] order; an expression's operands and the places it
/// reads; a place's base, then its index or deref expression. A pass
/// overrides only the hooks of the nodes it changes, matches only the
/// variants it changes, and calls `walk_mut` itself to continue below a
/// node it keeps.
pub trait VisitMut {
    /// A statement; the default is [`HirStmt::walk_mut`].
    fn visit_stmt(&mut self, s: &mut HirStmt) {
        s.walk_mut(self);
    }

    /// A place, written or read, at any depth; the default is
    /// [`HirPlace::walk_mut`].
    fn visit_place(&mut self, p: &mut HirPlace) {
        p.walk_mut(self);
    }

    /// An expression at any depth; the default is [`HirExpr::walk_mut`].
    fn visit_expr(&mut self, e: &mut HirExpr) {
        e.walk_mut(self);
    }

    /// The channel local of a `send` or `recv`.
    fn visit_chan(&mut self, _chan: &mut LocalId) {}
}

/// An assignable location.
#[derive(Debug, Clone, PartialEq)]
pub enum HirPlace {
    /// A scalar or array local.
    Local(LocalId),
    /// A global ROM (reads only).
    Global(GlobalId),
    /// An element of an array place.
    Index {
        /// The array.
        base: Box<HirPlace>,
        /// Element index (integer-typed expression).
        index: Box<HirExpr>,
    },
    /// The target of a pointer value.
    Deref(Box<HirExpr>),
}

impl HirPlace {
    /// The root local, if this place bottoms out in one.
    pub fn root_local(&self) -> Option<LocalId> {
        match self {
            HirPlace::Local(id) => Some(*id),
            HirPlace::Index { base, .. } => base.root_local(),
            _ => None,
        }
    }

    /// Visits the index and deref expressions of this place, in source
    /// order (`a[i][j]` visits `i`, then `j`).
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn for_each_expr<'a>(&'a self, f: &mut impl FnMut(&'a HirExpr)) {
        match self {
            HirPlace::Local(_) | HirPlace::Global(_) => {}
            HirPlace::Index { base, index } => {
                base.for_each_expr(f);
                f(index);
            }
            HirPlace::Deref(e) => f(e),
        }
    }

    /// Visits the base place, then the index or deref expression.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn walk_mut<V: VisitMut + ?Sized>(&mut self, v: &mut V) {
        match self {
            HirPlace::Local(_) | HirPlace::Global(_) => {}
            HirPlace::Index { base, index } => {
                v.visit_place(base);
                v.visit_expr(index);
            }
            HirPlace::Deref(e) => v.visit_expr(e),
        }
    }
}

/// Statements. All expressions inside are side-effect free.
///
/// Which variants nest blocks is known in one place, [`HirStmt::blocks`];
/// read-only walkers go through it (or [`HirBlock::any_stmt`] and
/// [`HirBlock::for_each_expr`]) instead of matching the nesting variants.
#[derive(Debug, Clone, PartialEq)]
pub enum HirStmt {
    /// `place = value;`
    Assign {
        /// Destination.
        place: HirPlace,
        /// Side-effect-free value, already cast to the place's type.
        value: HirExpr,
        /// Source location of the statement ([`Span::dummy`] when
        /// synthesized by an optimizer rather than lowered from source).
        span: Span,
    },
    /// `dst = func(args);` or bare `func(args);`
    Call {
        /// Where the return value goes, if used.
        dst: Option<HirPlace>,
        /// Callee.
        func: FuncId,
        /// Actual arguments.
        args: Vec<HirArg>,
        /// Source location of the call.
        span: Span,
    },
    /// `dst = recv(chan);`
    Recv {
        /// Where the received value goes.
        dst: HirPlace,
        /// The channel local.
        chan: LocalId,
        /// Source location of the receive.
        span: Span,
    },
    /// `send(chan, value);`
    Send {
        /// The channel local.
        chan: LocalId,
        /// Value to transmit.
        value: HirExpr,
        /// Source location of the send.
        span: Span,
    },
    /// Two-armed conditional (missing `else` becomes an empty block).
    If {
        /// Boolean condition.
        cond: HirExpr,
        /// Taken when true.
        then: HirBlock,
        /// Taken when false.
        els: HirBlock,
    },
    /// `while (cond) body` — `unroll` carries `#pragma unroll`.
    While {
        /// Boolean condition.
        cond: HirExpr,
        /// Loop body.
        body: HirBlock,
        /// Requested unroll factor (0 = fully).
        unroll: Option<u32>,
    },
    /// `do body while (cond);`
    DoWhile {
        /// Loop body (runs at least once).
        body: HirBlock,
        /// Boolean condition tested after the body.
        cond: HirExpr,
    },
    /// Structured `for`, preserved so the unroller can recognize canonical
    /// induction patterns.
    For {
        /// Init statements (decls already hoisted; this is the init assignment).
        init: HirBlock,
        /// Boolean condition.
        cond: HirExpr,
        /// Step statements.
        step: HirBlock,
        /// Loop body.
        body: HirBlock,
        /// Requested unroll factor (0 = fully).
        unroll: Option<u32>,
    },
    /// `return;` / `return value;`
    Return(Option<HirExpr>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// A nested block (scoping already resolved; kept for structure).
    Block(HirBlock),
    /// Parallel composition: run all branches to completion, then join.
    Par(Vec<HirBlock>),
    /// Consume one clock cycle.
    Delay,
    /// HardwareC-style relative timing constraint: `body` must be scheduled
    /// within `cycles` cycles.
    Constraint {
        /// Cycle budget.
        cycles: u32,
        /// Constrained statements.
        body: HirBlock,
    },
}

impl HirStmt {
    /// The blocks nested directly in this statement, in source order
    /// (`for`: init, step, body; `par`: its arms).
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn blocks(&self) -> impl Iterator<Item = &HirBlock> {
        let (fixed, arms): ([Option<&HirBlock>; 3], &[HirBlock]) = match self {
            HirStmt::If { then, els, .. } => ([Some(then), Some(els), None], &[]),
            HirStmt::For {
                init, step, body, ..
            } => ([Some(init), Some(step), Some(body)], &[]),
            HirStmt::While { body, .. }
            | HirStmt::DoWhile { body, .. }
            | HirStmt::Block(body)
            | HirStmt::Constraint { body, .. } => ([Some(body), None, None], &[]),
            HirStmt::Par(arms) => ([None; 3], arms),
            HirStmt::Assign { .. }
            | HirStmt::Call { .. }
            | HirStmt::Recv { .. }
            | HirStmt::Send { .. }
            | HirStmt::Return(_)
            | HirStmt::Break
            | HirStmt::Continue
            | HirStmt::Delay => ([None; 3], &[]),
        };
        fixed.into_iter().flatten().chain(arms)
    }

    /// [`Self::blocks`], mutably: the same blocks in the same order.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn blocks_mut(&mut self) -> impl Iterator<Item = &mut HirBlock> {
        let (fixed, arms): ([Option<&mut HirBlock>; 3], &mut [HirBlock]) = match self {
            HirStmt::If { then, els, .. } => ([Some(then), Some(els), None], &mut []),
            HirStmt::For {
                init, step, body, ..
            } => ([Some(init), Some(step), Some(body)], &mut []),
            HirStmt::While { body, .. }
            | HirStmt::DoWhile { body, .. }
            | HirStmt::Block(body)
            | HirStmt::Constraint { body, .. } => ([Some(body), None, None], &mut []),
            HirStmt::Par(arms) => ([None, None, None], arms),
            HirStmt::Assign { .. }
            | HirStmt::Call { .. }
            | HirStmt::Recv { .. }
            | HirStmt::Send { .. }
            | HirStmt::Return(_)
            | HirStmt::Break
            | HirStmt::Continue
            | HirStmt::Delay => ([None, None, None], &mut []),
        };
        fixed.into_iter().flatten().chain(arms)
    }

    /// Visits this statement's written places, expressions, channels and
    /// nested blocks in [`HirBlock::for_each_expr`] order: a `for` visits
    /// init, condition, step, then body; a `do` visits its body before
    /// its condition.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn walk_mut<V: VisitMut + ?Sized>(&mut self, v: &mut V) {
        match self {
            HirStmt::Assign { place, value, .. } => {
                v.visit_place(place);
                v.visit_expr(value);
            }
            HirStmt::Call { dst, args, .. } => {
                if let Some(d) = dst {
                    v.visit_place(d);
                }
                for a in args {
                    match a {
                        HirArg::Value(e) => v.visit_expr(e),
                        HirArg::Array(p) => v.visit_place(p),
                    }
                }
            }
            HirStmt::Recv { dst, chan, .. } => {
                v.visit_place(dst);
                v.visit_chan(chan);
            }
            HirStmt::Send { chan, value, .. } => {
                v.visit_chan(chan);
                v.visit_expr(value);
            }
            HirStmt::Return(Some(value)) => v.visit_expr(value),
            HirStmt::If { cond, .. } | HirStmt::While { cond, .. } => v.visit_expr(cond),
            HirStmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                init.walk_mut(v);
                v.visit_expr(cond);
                step.walk_mut(v);
                body.walk_mut(v);
                return;
            }
            HirStmt::DoWhile { .. }
            | HirStmt::Return(None)
            | HirStmt::Break
            | HirStmt::Continue
            | HirStmt::Block(_)
            | HirStmt::Par(_)
            | HirStmt::Delay
            | HirStmt::Constraint { .. } => {}
        }
        for b in self.blocks_mut() {
            b.walk_mut(v);
        }
        if let HirStmt::DoWhile { cond, .. } = self {
            v.visit_expr(cond);
        }
    }
}

/// A function-call argument.
#[derive(Debug, Clone, PartialEq)]
pub enum HirArg {
    /// A scalar (or pointer) value.
    Value(HirExpr),
    /// A whole array passed by reference.
    Array(HirPlace),
}

/// A side-effect-free expression with its type.
#[derive(Debug, Clone, PartialEq)]
pub struct HirExpr {
    /// What the expression computes.
    pub kind: HirExprKind,
    /// Its type (never `Void`).
    pub ty: Type,
}

/// Expression kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum HirExprKind {
    /// A constant in canonical form.
    Const(i64),
    /// Read a place.
    Load(Box<HirPlace>),
    /// Unary operation.
    Unary(UnOp, Box<HirExpr>),
    /// Binary operation; operands have identical types except shifts
    /// (result and lhs share a type) and comparisons (operands share a
    /// type, result is `Bool`).
    Binary(BinOp, Box<HirExpr>, Box<HirExpr>),
    /// `cond ? then : els` with equal-typed arms.
    Select(Box<HirExpr>, Box<HirExpr>, Box<HirExpr>),
    /// Conversion of the operand to this expression's type.
    Cast(Box<HirExpr>),
    /// Address of a place (pointer-typed result).
    AddrOf(Box<HirPlace>),
}

impl HirExpr {
    /// A constant of the given type, canonicalized.
    pub fn konst(v: i64, ty: Type) -> Self {
        let v = match &ty {
            Type::Int(it) => it.canonicalize(v),
            Type::Bool => (v != 0) as i64,
            _ => v,
        };
        HirExpr {
            kind: HirExprKind::Const(v),
            ty,
        }
    }

    /// True when this is a constant.
    pub fn as_const(&self) -> Option<i64> {
        match self.kind {
            HirExprKind::Const(v) => Some(v),
            _ => None,
        }
    }

    /// Walks all places read by this expression.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn for_each_place<'a>(&'a self, f: &mut impl FnMut(&'a HirPlace)) {
        match &self.kind {
            HirExprKind::Const(_) => {}
            HirExprKind::Load(p) | HirExprKind::AddrOf(p) => f(p),
            HirExprKind::Unary(_, a) | HirExprKind::Cast(a) => a.for_each_place(f),
            HirExprKind::Binary(_, a, b) => {
                a.for_each_place(f);
                b.for_each_place(f);
            }
            HirExprKind::Select(c, t, e) => {
                c.for_each_place(f);
                t.for_each_place(f);
                e.for_each_place(f);
            }
        }
    }

    /// Visits the operands in order, or the place a load or address-of
    /// names.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn walk_mut<V: VisitMut + ?Sized>(&mut self, v: &mut V) {
        match &mut self.kind {
            HirExprKind::Const(_) => {}
            HirExprKind::Load(p) | HirExprKind::AddrOf(p) => v.visit_place(p),
            HirExprKind::Unary(_, a) | HirExprKind::Cast(a) => v.visit_expr(a),
            HirExprKind::Binary(_, a, b) => {
                v.visit_expr(a);
                v.visit_expr(b);
            }
            HirExprKind::Select(c, t, e) => {
                v.visit_expr(c);
                v.visit_expr(t);
                v.visit_expr(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Type;

    #[test]
    fn konst_canonicalizes() {
        let e = HirExpr::konst(300, Type::uint(8));
        assert_eq!(e.as_const(), Some(44));
        let b = HirExpr::konst(7, Type::Bool);
        assert_eq!(b.as_const(), Some(1));
    }

    #[test]
    fn root_local_traverses_indices() {
        let p = HirPlace::Index {
            base: Box::new(HirPlace::Local(LocalId(3))),
            index: Box::new(HirExpr::konst(0, Type::int())),
        };
        assert_eq!(p.root_local(), Some(LocalId(3)));
        assert_eq!(HirPlace::Global(GlobalId(0)).root_local(), None);
    }

    #[test]
    fn for_each_place_visits_all() {
        let e = HirExpr {
            kind: HirExprKind::Binary(
                BinOp::Add,
                Box::new(HirExpr {
                    kind: HirExprKind::Load(Box::new(HirPlace::Local(LocalId(0)))),
                    ty: Type::int(),
                }),
                Box::new(HirExpr {
                    kind: HirExprKind::Load(Box::new(HirPlace::Local(LocalId(1)))),
                    ty: Type::int(),
                }),
            ),
            ty: Type::int(),
        };
        let mut seen = Vec::new();
        e.for_each_place(&mut |p| {
            if let HirPlace::Local(id) = p {
                seen.push(*id);
            }
        });
        assert_eq!(seen, vec![LocalId(0), LocalId(1)]);
    }

    #[test]
    fn ids_display() {
        assert_eq!(LocalId(4).to_string(), "%4");
        assert_eq!(GlobalId(1).to_string(), "@1");
        assert_eq!(FuncId(2).to_string(), "fn2");
    }

    fn block(stmts: Vec<HirStmt>) -> HirBlock {
        HirBlock { stmts }
    }

    fn int(v: i64) -> HirExpr {
        HirExpr::konst(v, Type::int())
    }

    fn set(value: HirExpr) -> HirStmt {
        HirStmt::Assign {
            place: HirPlace::Local(LocalId(0)),
            value,
            span: Span::dummy(),
        }
    }

    /// One statement of every kind, the nesting ones with empty blocks.
    fn every_kind() -> Vec<HirStmt> {
        let chan = LocalId(1);
        let span = Span::dummy();
        vec![
            set(int(0)),
            HirStmt::Call {
                dst: None,
                func: FuncId(0),
                args: vec![],
                span,
            },
            HirStmt::Recv {
                dst: HirPlace::Local(LocalId(0)),
                chan,
                span,
            },
            HirStmt::Send {
                chan,
                value: int(0),
                span,
            },
            HirStmt::If {
                cond: int(1),
                then: block(vec![]),
                els: block(vec![]),
            },
            HirStmt::While {
                cond: int(1),
                body: block(vec![]),
                unroll: None,
            },
            HirStmt::DoWhile {
                body: block(vec![]),
                cond: int(1),
            },
            HirStmt::For {
                init: block(vec![]),
                cond: int(1),
                step: block(vec![]),
                body: block(vec![]),
                unroll: None,
            },
            HirStmt::Return(None),
            HirStmt::Break,
            HirStmt::Continue,
            HirStmt::Block(block(vec![])),
            HirStmt::Par(vec![]),
            HirStmt::Delay,
            HirStmt::Constraint {
                cycles: 2,
                body: block(vec![]),
            },
        ]
    }

    /// Every nesting kind with `s` in each of its block slots in turn.
    fn nestings(s: &HirStmt) -> Vec<HirStmt> {
        let one = || block(vec![s.clone()]);
        let empty = || block(vec![]);
        let for_loop = |init, step, body| HirStmt::For {
            init,
            cond: int(1),
            step,
            body,
            unroll: None,
        };
        vec![
            HirStmt::If {
                cond: int(1),
                then: one(),
                els: empty(),
            },
            HirStmt::If {
                cond: int(1),
                then: empty(),
                els: one(),
            },
            HirStmt::While {
                cond: int(1),
                body: one(),
                unroll: None,
            },
            HirStmt::DoWhile {
                body: one(),
                cond: int(1),
            },
            for_loop(one(), empty(), empty()),
            for_loop(empty(), one(), empty()),
            for_loop(empty(), empty(), one()),
            HirStmt::Block(one()),
            HirStmt::Par(vec![one(), empty()]),
            HirStmt::Par(vec![empty(), one()]),
            HirStmt::Constraint {
                cycles: 2,
                body: one(),
            },
        ]
    }

    #[test]
    fn walk_reaches_every_kind_in_every_nesting_slot() {
        use std::mem::discriminant;
        for inner in every_kind() {
            for outer in nestings(&inner) {
                let b = block(vec![outer.clone()]);
                let mut seen = Vec::new();
                b.for_each_stmt(&mut |s| seen.push(discriminant(s)));
                assert_eq!(
                    seen,
                    [discriminant(&outer), discriminant(&inner)],
                    "{inner:?} inside {outer:?}"
                );
                assert!(
                    b.any_stmt(&mut |s| s == &inner),
                    "{inner:?} inside {outer:?}"
                );
                assert_eq!(outer.blocks().filter(|b| !b.stmts.is_empty()).count(), 1);
                let mut outer = outer;
                let shared: Vec<*const HirBlock> = outer.blocks().map(|b| b as *const _).collect();
                let mutable: Vec<*const HirBlock> =
                    outer.blocks_mut().map(|b| b as *const _).collect();
                assert_eq!(shared, mutable, "{outer:?}");
                let mut b = b;
                let mut want = Vec::new();
                b.for_each_expr(&mut |e| want.push(e.clone()));
                let mut rec = Recorder::default();
                b.walk_mut(&mut rec);
                assert_eq!(rec.exprs, want, "{inner:?} inside {outer:?}");
                assert_eq!(rec.stmts, seen, "{inner:?} inside {outer:?}");
            }
            assert_eq!(inner.blocks().map(|b| b.stmts.len()).sum::<usize>(), 0);
        }
    }

    /// Records the statements and owned expressions the mutable walk
    /// visits, without descending into the expressions.
    #[derive(Default)]
    struct Recorder {
        stmts: Vec<std::mem::Discriminant<HirStmt>>,
        exprs: Vec<HirExpr>,
        chans: Vec<LocalId>,
    }

    impl VisitMut for Recorder {
        fn visit_stmt(&mut self, s: &mut HirStmt) {
            self.stmts.push(std::mem::discriminant(s));
            s.walk_mut(self);
        }

        fn visit_expr(&mut self, e: &mut HirExpr) {
            self.exprs.push(e.clone());
        }

        fn visit_chan(&mut self, chan: &mut LocalId) {
            self.chans.push(*chan);
        }
    }

    #[test]
    fn walk_visits_nested_blocks_in_source_order() {
        let one = |v| block(vec![set(int(v))]);
        let b = block(vec![
            HirStmt::If {
                cond: int(1),
                then: one(1),
                els: one(2),
            },
            HirStmt::For {
                init: one(3),
                cond: int(1),
                step: one(4),
                body: one(5),
                unroll: None,
            },
            HirStmt::Par(vec![one(6), one(7)]),
        ]);
        let mut seen = Vec::new();
        b.for_each_stmt(&mut |s| {
            if let HirStmt::Assign { value, .. } = s {
                seen.push(value.as_const().expect("numbered"));
            }
        });
        assert_eq!(seen, [1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn any_stmt_stops_at_the_first_match() {
        let b = block(vec![
            HirStmt::Block(block(vec![HirStmt::Break, HirStmt::Continue])),
            HirStmt::Delay,
        ]);
        let mut visited = 0;
        assert!(b.any_stmt(&mut |s| {
            visited += 1;
            matches!(s, HirStmt::Break)
        }));
        assert_eq!(visited, 2);
    }

    #[test]
    fn for_each_expr_visits_in_source_order() {
        let mut n = 0;
        let mut next = || {
            n += 1;
            int(n)
        };
        let span = Span::dummy();
        let idx = |base, index| HirPlace::Index {
            base: Box::new(base),
            index: Box::new(index),
        };
        // Struct literals evaluate their fields as written, so numbering
        // the expressions while building them numbers them in source order.
        let stmts = vec![
            HirStmt::Assign {
                place: idx(idx(HirPlace::Local(LocalId(0)), next()), next()),
                value: next(),
                span,
            },
            HirStmt::Call {
                dst: Some(HirPlace::Deref(Box::new(next()))),
                func: FuncId(0),
                args: vec![
                    HirArg::Value(next()),
                    HirArg::Array(idx(HirPlace::Local(LocalId(2)), next())),
                ],
                span,
            },
            HirStmt::Recv {
                dst: idx(HirPlace::Local(LocalId(0)), next()),
                chan: LocalId(1),
                span,
            },
            HirStmt::Send {
                chan: LocalId(1),
                value: next(),
                span,
            },
            HirStmt::If {
                cond: next(),
                then: block(vec![HirStmt::Return(Some(next()))]),
                els: block(vec![set(next())]),
            },
            HirStmt::While {
                cond: next(),
                body: block(vec![set(next())]),
                unroll: None,
            },
            HirStmt::DoWhile {
                body: block(vec![set(next())]),
                cond: next(),
            },
            HirStmt::For {
                init: block(vec![set(next())]),
                cond: next(),
                step: block(vec![set(next())]),
                body: block(vec![set(next())]),
                unroll: None,
            },
            HirStmt::Block(block(vec![set(next())])),
            HirStmt::Par(vec![block(vec![set(next())]), block(vec![set(next())])]),
            HirStmt::Constraint {
                cycles: 2,
                body: block(vec![set(next())]),
            },
        ];
        let mut b = block(stmts);
        let mut seen = Vec::new();
        b.for_each_expr(&mut |e| seen.push(e.as_const().expect("numbered")));
        assert_eq!(seen, (1..=n).collect::<Vec<_>>());
        let mut rec = Recorder::default();
        b.walk_mut(&mut rec);
        let seen: Vec<i64> = rec
            .exprs
            .iter()
            .map(|e| e.as_const().expect("numbered"))
            .collect();
        assert_eq!(seen, (1..=n).collect::<Vec<_>>());
        assert_eq!(rec.chans, [LocalId(1), LocalId(1)]);
    }

    #[test]
    fn walk_mut_reaches_every_place_and_nested_expression() {
        // `a[b[x]] = *(&c + y)`: the walk reaches every local, through
        // indices, derefs and address-ofs, in source order.
        let load = |p: HirPlace| HirExpr {
            kind: HirExprKind::Load(Box::new(p)),
            ty: Type::int(),
        };
        let idx = |base: LocalId, index: HirExpr| HirPlace::Index {
            base: Box::new(HirPlace::Local(base)),
            index: Box::new(index),
        };
        let addr = HirExpr {
            kind: HirExprKind::Binary(
                BinOp::Add,
                Box::new(HirExpr {
                    kind: HirExprKind::AddrOf(Box::new(HirPlace::Local(LocalId(3)))),
                    ty: Type::int(),
                }),
                Box::new(load(HirPlace::Local(LocalId(4)))),
            ),
            ty: Type::int(),
        };
        let mut b = block(vec![HirStmt::Assign {
            place: idx(
                LocalId(0),
                load(idx(LocalId(1), load(HirPlace::Local(LocalId(2))))),
            ),
            value: load(HirPlace::Deref(Box::new(addr))),
            span: Span::dummy(),
        }]);
        struct Locals(Vec<LocalId>);
        impl VisitMut for Locals {
            fn visit_place(&mut self, p: &mut HirPlace) {
                if let HirPlace::Local(id) = p {
                    self.0.push(*id);
                    *id = LocalId(id.0 + 10);
                }
                p.walk_mut(self);
            }
        }
        let mut locals = Locals(Vec::new());
        b.walk_mut(&mut locals);
        assert_eq!(locals.0, [0, 1, 2, 3, 4].map(LocalId));
        // Every local was renamed in place.
        let mut again = Locals(Vec::new());
        b.walk_mut(&mut again);
        assert_eq!(again.0, [10, 11, 12, 13, 14].map(LocalId));
    }
}

//! Abstract syntax tree produced by the parser.
//!
//! The AST is untyped and name-unresolved; semantic analysis
//! ([`crate::sema`]) turns it into the typed [`crate::hir`].

use crate::span::Span;
use crate::types::Type;
use std::fmt;

/// A whole translation unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

/// A top-level item.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A function definition (or declaration, if `body` is `None`).
    Func(FuncDecl),
    /// A global variable or constant.
    Global(VarDecl),
    /// A file-level pragma such as `#pragma clock_period 10`.
    Pragma(Pragma, Span),
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDecl {
    /// Function name.
    pub name: String,
    /// Return type.
    pub ret_ty: Type,
    /// Formal parameters.
    pub params: Vec<Param>,
    /// Body; `None` for a bare declaration.
    pub body: Option<Block>,
    /// Source span of the signature.
    pub span: Span,
}

/// A formal parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Parameter type (arrays decay to array-typed references).
    pub ty: Type,
    /// Source span.
    pub span: Span,
}

/// A variable declaration (global or local).
#[derive(Debug, Clone, PartialEq)]
pub struct VarDecl {
    /// Variable name.
    pub name: String,
    /// Declared type.
    pub ty: Type,
    /// Optional initializer.
    pub init: Option<Init>,
    /// Declared with `const`.
    pub is_const: bool,
    /// Pragmas attached to this declaration (e.g. `memory bank(4)`).
    pub pragmas: Vec<Pragma>,
    /// Source span.
    pub span: Span,
}

/// An initializer: a single expression or a brace-enclosed list.
#[derive(Debug, Clone, PartialEq)]
pub enum Init {
    /// `= expr`
    Expr(Expr),
    /// `= { e0, e1, ... }`
    List(Vec<Expr>, Span),
}

/// A `{ ... }` block.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
    /// Source span including the braces.
    pub span: Span,
}

/// A statement with attached pragmas and source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// The statement itself.
    pub kind: StmtKind,
    /// Pragmas written immediately before the statement.
    pub pragmas: Vec<Pragma>,
    /// Source span.
    pub span: Span,
}

/// Statement kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// A local declaration.
    Decl(VarDecl),
    /// An expression statement.
    Expr(Expr),
    /// `if (cond) then else els`
    If {
        /// Controlling condition.
        cond: Expr,
        /// Taken branch.
        then: Block,
        /// Else branch, if present.
        els: Option<Block>,
    },
    /// `while (cond) body`
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Block,
    },
    /// `do body while (cond);`
    DoWhile {
        /// Loop body.
        body: Block,
        /// Loop condition, tested after the body.
        cond: Expr,
    },
    /// `for (init; cond; step) body`
    For {
        /// Init clause (declaration or expression), if present.
        init: Option<Box<Stmt>>,
        /// Condition; `None` means always true.
        cond: Option<Expr>,
        /// Step expression, if present.
        step: Option<Expr>,
        /// Loop body.
        body: Block,
    },
    /// `return;` or `return expr;`
    Return(Option<Expr>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// A nested block.
    Block(Block),
    /// `par { ... } { ... } ...` — run the blocks in parallel, join at the end.
    Par(Vec<Block>),
    /// `send(ch, value);`
    Send {
        /// Channel expression (must name a channel).
        chan: Expr,
        /// Value to transmit.
        value: Expr,
    },
    /// `delay;` — consume exactly one clock cycle (Handel-C).
    Delay,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// The expression itself.
    pub kind: ExprKind,
    /// Source span.
    pub span: Span,
}

/// Expression kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    IntLit(u64),
    /// `true` / `false`.
    BoolLit(bool),
    /// A name.
    Ident(String),
    /// Unary operator application.
    Unary(UnOp, Box<Expr>),
    /// Binary operator application (excluding assignment).
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// `target = value` or `target op= value` when `op` is `Some`.
    Assign {
        /// Compound operator, if any.
        op: Option<BinOp>,
        /// Assignment target (must be an lvalue).
        target: Box<Expr>,
        /// Right-hand side.
        value: Box<Expr>,
    },
    /// `cond ? then : els`
    Ternary {
        /// Condition.
        cond: Box<Expr>,
        /// Value when true.
        then: Box<Expr>,
        /// Value when false.
        els: Box<Expr>,
    },
    /// `callee(args...)`
    Call {
        /// Called function name.
        callee: String,
        /// Actual arguments.
        args: Vec<Expr>,
    },
    /// `base[index]`
    Index {
        /// Array or pointer expression.
        base: Box<Expr>,
        /// Element index.
        index: Box<Expr>,
    },
    /// `*ptr`
    Deref(Box<Expr>),
    /// `&place`
    AddrOf(Box<Expr>),
    /// `(type) expr`
    Cast {
        /// Target type.
        ty: Type,
        /// Operand.
        expr: Box<Expr>,
    },
    /// `recv(ch)` rendezvous receive.
    Recv(Box<Expr>),
    /// `++x`, `x++`, `--x`, `x--`
    IncDec {
        /// True for prefix form.
        pre: bool,
        /// True for `++`, false for `--`.
        inc: bool,
        /// The lvalue being modified.
        target: Box<Expr>,
    },
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation `-`.
    Neg,
    /// Bitwise complement `~`.
    Not,
    /// Logical negation `!`.
    LogNot,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UnOp::Neg => "-",
            UnOp::Not => "~",
            UnOp::LogNot => "!",
        })
    }
}

/// Binary operators (assignment handled separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `&&` (short-circuit)
    LogAnd,
    /// `||` (short-circuit)
    LogOr,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl BinOp {
    /// True for `==`, `!=`, `<`, `<=`, `>`, `>=`.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// True for the short-circuiting logical operators.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::LogAnd | BinOp::LogOr)
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::LogAnd => "&&",
            BinOp::LogOr => "||",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
        })
    }
}

/// A recognized pragma.
///
/// Pragmas either attach to the immediately following statement or
/// declaration, or (for [`Pragma::ClockPeriod`]) apply to the whole file.
#[derive(Debug, Clone, PartialEq)]
pub enum Pragma {
    /// `#pragma unroll N` — unroll the following loop N times
    /// (N = 0 means "fully").
    Unroll(u32),
    /// `#pragma constraint N` — the following compound statement must
    /// complete within N cycles (HardwareC-style relative timing constraint).
    Constraint(u32),
    /// `#pragma memory bank(K)` — split the following array declaration
    /// across K independent single-port memory banks.
    Bank(u32),
    /// `#pragma memory monolithic` — place the following array in the shared
    /// monolithic memory rather than a dedicated bank.
    Monolithic,
    /// `#pragma clock_period PS` — target clock period in picoseconds
    /// (C2Verilog-style constraint living *outside* the language).
    ClockPeriod(u64),
    /// `@ii(N)` declaration suffix — a timed-interface contract promising
    /// the declared channel is serviced at least once every N cycles
    /// (Dahlia-style initiation-interval annotation). Checked by `chls flow`.
    Ii(u32),
    /// An unrecognized pragma, preserved verbatim for diagnostics.
    Unknown(String),
}

impl Pragma {
    /// Parses a pragma body (the text after `#pragma`).
    pub fn parse(body: &str) -> Pragma {
        let mut words = body.split_whitespace();
        match words.next() {
            Some("unroll") => {
                let n = words.next().and_then(|w| w.parse().ok()).unwrap_or(0);
                Pragma::Unroll(n)
            }
            Some("constraint") => {
                let n = words.next().and_then(|w| w.parse().ok()).unwrap_or(0);
                Pragma::Constraint(n)
            }
            Some("memory") => match words.next() {
                Some(rest) if rest.starts_with("bank(") => {
                    let inner = rest
                        .trim_start_matches("bank(")
                        .trim_end_matches(')')
                        .parse()
                        .unwrap_or(1);
                    Pragma::Bank(inner)
                }
                Some("monolithic") => Pragma::Monolithic,
                _ => Pragma::Unknown(body.to_string()),
            },
            Some("clock_period") => {
                let n = words.next().and_then(|w| w.parse().ok()).unwrap_or(0);
                Pragma::ClockPeriod(n)
            }
            _ => Pragma::Unknown(body.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pragma_parse_unroll() {
        assert_eq!(Pragma::parse("unroll 4"), Pragma::Unroll(4));
        assert_eq!(Pragma::parse("unroll"), Pragma::Unroll(0));
    }

    #[test]
    fn pragma_parse_constraint_and_clock() {
        assert_eq!(Pragma::parse("constraint 2"), Pragma::Constraint(2));
        assert_eq!(
            Pragma::parse("clock_period 5000"),
            Pragma::ClockPeriod(5000)
        );
    }

    #[test]
    fn pragma_parse_memory() {
        assert_eq!(Pragma::parse("memory bank(4)"), Pragma::Bank(4));
        assert_eq!(Pragma::parse("memory monolithic"), Pragma::Monolithic);
    }

    #[test]
    fn pragma_unknown_preserved() {
        assert_eq!(
            Pragma::parse("vendor xyzzy"),
            Pragma::Unknown("vendor xyzzy".to_string())
        );
    }

    #[test]
    fn binop_classification() {
        assert!(BinOp::Eq.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(BinOp::LogAnd.is_logical());
        assert!(!BinOp::BitAnd.is_logical());
    }

    #[test]
    fn operators_display() {
        assert_eq!(BinOp::Shl.to_string(), "<<");
        assert_eq!(UnOp::LogNot.to_string(), "!");
    }
}

//! Recursive-descent parser for CHL.
//!
//! Grammar summary (C subset plus hardware extensions):
//!
//! ```text
//! program   := item*
//! item      := pragma | func | global
//! func      := type ident '(' params ')' (block | ';')
//! global    := 'const'? type declarator ('=' init)? ';'
//! stmt      := decl | if | while | do-while | for | return | break
//!            | continue | block | par | send | delay | expr ';'
//! par       := 'par' '{' stmt* '}'          // statements run in parallel
//! expr      := assignment (C precedence, right-assoc assignment, ternary)
//! type      := ('unsigned'|'signed')? ('void'|'bool'|'char'|'short'|'int'|'long')
//!            | 'uint' '<' const '>' | 'sint' '<' const '>' | 'int' '<' const '>'
//!            | 'chan' '<' type '>'
//! ```
//!
//! Array sizes must be compile-time constants; the parser const-evaluates
//! size expressions against integer literals and previously parsed global
//! `const` scalars.

use crate::ast::*;
use crate::diag::Diagnostic;
use crate::lexer::lex;
use crate::span::Span;
use crate::token::{Token, TokenKind};
use crate::types::{IntType, Type, MAX_WIDTH};
use std::collections::HashMap;

/// Parses a CHL source string into an AST.
///
/// # Errors
///
/// Returns the first lexical or syntactic error as a [`Diagnostic`].
pub fn parse(src: &str) -> Result<Program, Diagnostic> {
    let tokens = lex(src)?;
    Parser::new(tokens).program()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Global `const` scalars seen so far, for const-evaluating array sizes.
    consts: HashMap<String, i64>,
}

type PResult<T> = Result<T, Diagnostic>;

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            consts: HashMap::new(),
        }
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, n: usize) -> &TokenKind {
        let i = (self.pos + n).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> PResult<Token> {
        if self.peek() == &kind {
            Ok(self.bump())
        } else {
            Err(Diagnostic::error(
                format!(
                    "expected {}, found {}",
                    kind.describe(),
                    self.peek().describe()
                ),
                self.span(),
            ))
        }
    }

    fn expect_ident(&mut self) -> PResult<(String, Span)> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                let span = self.span();
                self.bump();
                Ok((name, span))
            }
            other => Err(Diagnostic::error(
                format!("expected identifier, found {}", other.describe()),
                self.span(),
            )),
        }
    }

    // ----- program structure -----

    fn program(&mut self) -> PResult<Program> {
        let mut items = Vec::new();
        loop {
            let pragmas = self.collect_pragmas();
            if matches!(self.peek(), TokenKind::Eof) {
                for (p, span) in pragmas {
                    items.push(Item::Pragma(p, span));
                }
                break;
            }
            // File-level pragmas (clock_period) become items; others attach
            // to the declaration that follows.
            let mut attached = Vec::new();
            for (p, span) in pragmas {
                match p {
                    Pragma::ClockPeriod(_) => items.push(Item::Pragma(p, span)),
                    other => attached.push(other),
                }
            }
            items.push(self.item(attached)?);
        }
        Ok(Program { items })
    }

    fn collect_pragmas(&mut self) -> Vec<(Pragma, Span)> {
        let mut out = Vec::new();
        while let TokenKind::Pragma(body) = self.peek() {
            let p = Pragma::parse(body);
            let span = self.span();
            self.bump();
            out.push((p, span));
        }
        out
    }

    fn item(&mut self, pragmas: Vec<Pragma>) -> PResult<Item> {
        let start = self.span();
        let is_const = self.eat(&TokenKind::KwConst);
        let base = self.parse_type()?;
        let (name, _) = self.expect_ident()?;
        if self.peek() == &TokenKind::LParen {
            if is_const {
                return Err(Diagnostic::error("functions cannot be `const`", start));
            }
            self.bump();
            let mut params = Vec::new();
            if self.peek() != &TokenKind::RParen {
                loop {
                    params.push(self.param()?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
            }
            // Accept `f(void)` as an empty parameter list.
            self.expect(TokenKind::RParen)?;
            let body = if self.eat(&TokenKind::Semi) {
                None
            } else {
                Some(self.block()?)
            };
            let span = start.to(self.prev_span());
            Ok(Item::Func(FuncDecl {
                name,
                ret_ty: base,
                params,
                body,
                span,
            }))
        } else {
            let decl = self.finish_var_decl(base, name, is_const, pragmas, start)?;
            Ok(Item::Global(decl))
        }
    }

    fn param(&mut self) -> PResult<Param> {
        let start = self.span();
        if self.peek() == &TokenKind::KwVoid && self.peek_at(1) == &TokenKind::RParen {
            self.bump();
            return Err(Diagnostic::error(
                "use `()` for an empty parameter list",
                start,
            ));
        }
        let mut ty = self.parse_type()?;
        while self.eat(&TokenKind::Star) {
            ty = Type::Ptr(Box::new(ty));
        }
        let (name, _) = self.expect_ident()?;
        // `T name[]` or `T name[N]` — arrays pass by reference (C decay).
        let mut dims = Vec::new();
        while self.eat(&TokenKind::LBracket) {
            if self.peek() == &TokenKind::RBracket {
                self.bump();
                dims.push(None);
            } else {
                let size = self.const_expr()?;
                self.expect(TokenKind::RBracket)?;
                dims.push(Some(size));
            }
        }
        for dim in dims.into_iter().rev() {
            match dim {
                Some(n) if n > 0 => ty = Type::Array(Box::new(ty), n as usize),
                Some(_) => {
                    return Err(Diagnostic::error("array size must be positive", start));
                }
                // `T a[]` — unknown extent; model as pointer to element.
                None => ty = Type::Ptr(Box::new(ty)),
            }
        }
        let span = start.to(self.prev_span());
        Ok(Param { name, ty, span })
    }

    /// Parses the part of a variable declaration after the base type and
    /// name, including array dimensions and an optional initializer.
    fn finish_var_decl(
        &mut self,
        mut ty: Type,
        name: String,
        is_const: bool,
        mut pragmas: Vec<Pragma>,
        start: Span,
    ) -> PResult<VarDecl> {
        let mut dims = Vec::new();
        while self.eat(&TokenKind::LBracket) {
            let size = self.const_expr()?;
            self.expect(TokenKind::RBracket)?;
            if size <= 0 {
                return Err(Diagnostic::error("array size must be positive", start));
            }
            dims.push(size as usize);
        }
        for n in dims.into_iter().rev() {
            ty = Type::Array(Box::new(ty), n);
        }
        let init = if self.eat(&TokenKind::Assign) {
            if self.peek() == &TokenKind::LBrace {
                let lstart = self.span();
                self.bump();
                let mut elems = Vec::new();
                if self.peek() != &TokenKind::RBrace {
                    loop {
                        elems.push(self.expr()?);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                        if self.peek() == &TokenKind::RBrace {
                            break; // trailing comma
                        }
                    }
                }
                self.expect(TokenKind::RBrace)?;
                Some(Init::List(elems, lstart.to(self.prev_span())))
            } else {
                Some(Init::Expr(self.expr()?))
            }
        } else {
            None
        };
        // Optional `@ii(N)` suffix: a timed-interface contract on the decl
        // (meaningful only for channels; sema rejects other uses).
        while self.eat(&TokenKind::At) {
            let attr_span = self.prev_span();
            let (attr, _) = self.expect_ident()?;
            if attr != "ii" {
                return Err(Diagnostic::error(
                    format!("unknown declaration attribute `@{attr}` (expected `@ii(N)`)"),
                    attr_span,
                ));
            }
            self.expect(TokenKind::LParen)?;
            let n = self.const_expr()?;
            self.expect(TokenKind::RParen)?;
            if n <= 0 {
                return Err(Diagnostic::error(
                    "`@ii(N)` requires a positive interval",
                    attr_span,
                ));
            }
            pragmas.push(Pragma::Ii(n as u32));
        }
        self.expect(TokenKind::Semi)?;
        // Record scalar consts for later array-size references.
        if is_const && ty.is_scalar() {
            if let Some(Init::Expr(e)) = &init {
                if let Some(v) = self.try_const_eval(e) {
                    self.consts.insert(name.clone(), v);
                }
            }
        }
        let span = start.to(self.prev_span());
        Ok(VarDecl {
            name,
            ty,
            init,
            is_const,
            pragmas,
            span,
        })
    }

    // ----- types -----

    fn looks_like_type(&self) -> bool {
        matches!(
            self.peek(),
            TokenKind::KwVoid
                | TokenKind::KwBool
                | TokenKind::KwChar
                | TokenKind::KwShort
                | TokenKind::KwInt
                | TokenKind::KwLong
                | TokenKind::KwUnsigned
                | TokenKind::KwSigned
                | TokenKind::KwUint
                | TokenKind::KwSint
                | TokenKind::KwChan
                | TokenKind::KwConst
        )
    }

    fn parse_type(&mut self) -> PResult<Type> {
        let span = self.span();
        match self.peek().clone() {
            TokenKind::KwVoid => {
                self.bump();
                Ok(Type::Void)
            }
            TokenKind::KwBool => {
                self.bump();
                Ok(Type::Bool)
            }
            TokenKind::KwUint => {
                self.bump();
                let w = self.angle_width()?;
                Ok(Type::Int(IntType::new(w, false)))
            }
            TokenKind::KwSint => {
                self.bump();
                let w = self.angle_width()?;
                Ok(Type::Int(IntType::new(w, true)))
            }
            TokenKind::KwChan => {
                self.bump();
                self.expect(TokenKind::Lt)?;
                let elem = self.parse_type()?;
                if !elem.is_scalar() {
                    return Err(Diagnostic::error(
                        "channel element type must be scalar",
                        span,
                    ));
                }
                self.expect_gt()?;
                Ok(Type::Chan(Box::new(elem)))
            }
            TokenKind::KwUnsigned | TokenKind::KwSigned => {
                let signed = self.peek() == &TokenKind::KwSigned;
                self.bump();
                let width = match self.peek() {
                    TokenKind::KwChar => {
                        self.bump();
                        8
                    }
                    TokenKind::KwShort => {
                        self.bump();
                        16
                    }
                    TokenKind::KwInt => {
                        self.bump();
                        32
                    }
                    TokenKind::KwLong => {
                        self.bump();
                        64
                    }
                    _ => 32, // bare `unsigned` / `signed`
                };
                Ok(Type::Int(IntType::new(width, signed)))
            }
            TokenKind::KwChar => {
                self.bump();
                Ok(Type::Int(IntType::new(8, true)))
            }
            TokenKind::KwShort => {
                self.bump();
                Ok(Type::Int(IntType::new(16, true)))
            }
            TokenKind::KwInt => {
                self.bump();
                // `int<N>` is accepted as a synonym for `sint<N>`.
                if self.peek() == &TokenKind::Lt {
                    if let TokenKind::IntLit(_) = self.peek_at(1) {
                        if self.peek_at(2) == &TokenKind::Gt {
                            let w = self.angle_width()?;
                            return Ok(Type::Int(IntType::new(w, true)));
                        }
                    }
                }
                Ok(Type::int())
            }
            TokenKind::KwLong => {
                self.bump();
                // `long long` is the same 64-bit type.
                self.eat(&TokenKind::KwLong);
                Ok(Type::Int(IntType::new(64, true)))
            }
            other => Err(Diagnostic::error(
                format!("expected type, found {}", other.describe()),
                span,
            )),
        }
    }

    /// Consumes a closing `>`, splitting a `>>` token in two so nested
    /// generics like `chan<uint<8>>` parse.
    fn expect_gt(&mut self) -> PResult<()> {
        match self.peek() {
            TokenKind::Gt => {
                self.bump();
                Ok(())
            }
            TokenKind::Shr => {
                self.tokens[self.pos].kind = TokenKind::Gt;
                Ok(())
            }
            other => Err(Diagnostic::error(
                format!("expected `>`, found {}", other.describe()),
                self.span(),
            )),
        }
    }

    fn angle_width(&mut self) -> PResult<u16> {
        self.expect(TokenKind::Lt)?;
        let span = self.span();
        // Additive precedence and tighter only: a full expression parse
        // would consume the closing `>` as a comparison.
        let e = self.binary(8)?;
        let w = self
            .try_const_eval(&e)
            .ok_or_else(|| Diagnostic::error("bit width must be a compile-time constant", span))?;
        self.expect_gt()?;
        if w < 1 || w > MAX_WIDTH as i64 {
            return Err(Diagnostic::error(
                format!("bit width must be 1..={MAX_WIDTH}"),
                span,
            ));
        }
        Ok(w as u16)
    }

    // ----- constant expressions (array sizes, widths) -----

    fn const_expr(&mut self) -> PResult<i64> {
        let span = self.span();
        let e = self.expr()?;
        self.try_const_eval(&e)
            .ok_or_else(|| Diagnostic::error("expression is not a compile-time constant", span))
    }

    fn try_const_eval(&self, e: &Expr) -> Option<i64> {
        match &e.kind {
            ExprKind::IntLit(v) => Some(*v as i64),
            ExprKind::BoolLit(b) => Some(*b as i64),
            ExprKind::Ident(name) => self.consts.get(name).copied(),
            ExprKind::Unary(op, inner) => {
                let v = self.try_const_eval(inner)?;
                Some(match op {
                    UnOp::Neg => v.wrapping_neg(),
                    UnOp::Not => !v,
                    UnOp::LogNot => (v == 0) as i64,
                })
            }
            ExprKind::Binary(op, l, r) => {
                let a = self.try_const_eval(l)?;
                let b = self.try_const_eval(r)?;
                Some(match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                    BinOp::Div => {
                        if b == 0 {
                            return None;
                        }
                        a.wrapping_div(b)
                    }
                    BinOp::Rem => {
                        if b == 0 {
                            return None;
                        }
                        a.wrapping_rem(b)
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
            _ => None,
        }
    }

    // ----- statements -----

    fn block(&mut self) -> PResult<Block> {
        let start = self.span();
        self.expect(TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while self.peek() != &TokenKind::RBrace {
            if self.peek() == &TokenKind::Eof {
                return Err(Diagnostic::error("unterminated block", start));
            }
            stmts.push(self.stmt()?);
        }
        self.expect(TokenKind::RBrace)?;
        Ok(Block {
            stmts,
            span: start.to(self.prev_span()),
        })
    }

    fn stmt(&mut self) -> PResult<Stmt> {
        let pragmas: Vec<Pragma> = self.collect_pragmas().into_iter().map(|(p, _)| p).collect();
        let start = self.span();
        let kind = self.stmt_kind()?;
        Ok(Stmt {
            kind,
            pragmas,
            span: start.to(self.prev_span()),
        })
    }

    fn stmt_kind(&mut self) -> PResult<StmtKind> {
        let start = self.span();
        match self.peek().clone() {
            TokenKind::LBrace => Ok(StmtKind::Block(self.block()?)),
            TokenKind::KwIf => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(TokenKind::RParen)?;
                let then = self.block_or_stmt()?;
                let els = if self.eat(&TokenKind::KwElse) {
                    Some(self.block_or_stmt()?)
                } else {
                    None
                };
                Ok(StmtKind::If { cond, then, els })
            }
            TokenKind::KwWhile => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(TokenKind::RParen)?;
                let body = self.block_or_stmt()?;
                Ok(StmtKind::While { cond, body })
            }
            TokenKind::KwDo => {
                self.bump();
                let body = self.block_or_stmt()?;
                self.expect(TokenKind::KwWhile)?;
                self.expect(TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(TokenKind::RParen)?;
                self.expect(TokenKind::Semi)?;
                Ok(StmtKind::DoWhile { body, cond })
            }
            TokenKind::KwFor => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let init = if self.eat(&TokenKind::Semi) {
                    None
                } else {
                    let s = self.for_init()?;
                    Some(Box::new(s))
                };
                let cond = if self.peek() == &TokenKind::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(TokenKind::Semi)?;
                let step = if self.peek() == &TokenKind::RParen {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(TokenKind::RParen)?;
                let body = self.block_or_stmt()?;
                Ok(StmtKind::For {
                    init,
                    cond,
                    step,
                    body,
                })
            }
            TokenKind::KwReturn => {
                self.bump();
                let value = if self.peek() == &TokenKind::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(TokenKind::Semi)?;
                Ok(StmtKind::Return(value))
            }
            TokenKind::KwBreak => {
                self.bump();
                self.expect(TokenKind::Semi)?;
                Ok(StmtKind::Break)
            }
            TokenKind::KwContinue => {
                self.bump();
                self.expect(TokenKind::Semi)?;
                Ok(StmtKind::Continue)
            }
            TokenKind::KwPar => {
                self.bump();
                self.expect(TokenKind::LBrace)?;
                let mut branches = Vec::new();
                while self.peek() != &TokenKind::RBrace {
                    if self.peek() == &TokenKind::Eof {
                        return Err(Diagnostic::error("unterminated par block", start));
                    }
                    // Each statement of a `par` block is its own branch.
                    let s = self.stmt()?;
                    let span = s.span;
                    branches.push(Block {
                        stmts: vec![s],
                        span,
                    });
                }
                self.expect(TokenKind::RBrace)?;
                Ok(StmtKind::Par(branches))
            }
            TokenKind::KwSend => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let chan = self.expr()?;
                self.expect(TokenKind::Comma)?;
                let value = self.expr()?;
                self.expect(TokenKind::RParen)?;
                self.expect(TokenKind::Semi)?;
                Ok(StmtKind::Send { chan, value })
            }
            TokenKind::KwDelay => {
                self.bump();
                self.expect(TokenKind::Semi)?;
                Ok(StmtKind::Delay)
            }
            _ if self.looks_like_type() => {
                let is_const = self.eat(&TokenKind::KwConst);
                let mut ty = self.parse_type()?;
                while self.eat(&TokenKind::Star) {
                    ty = Type::Ptr(Box::new(ty));
                }
                let (name, _) = self.expect_ident()?;
                let decl = self.finish_var_decl(ty, name, is_const, Vec::new(), start)?;
                Ok(StmtKind::Decl(decl))
            }
            _ => {
                let e = self.expr()?;
                self.expect(TokenKind::Semi)?;
                Ok(StmtKind::Expr(e))
            }
        }
    }

    fn for_init(&mut self) -> PResult<Stmt> {
        let start = self.span();
        if self.looks_like_type() {
            let is_const = self.eat(&TokenKind::KwConst);
            let mut ty = self.parse_type()?;
            while self.eat(&TokenKind::Star) {
                ty = Type::Ptr(Box::new(ty));
            }
            let (name, _) = self.expect_ident()?;
            let decl = self.finish_var_decl(ty, name, is_const, Vec::new(), start)?;
            Ok(Stmt {
                kind: StmtKind::Decl(decl),
                pragmas: Vec::new(),
                span: start.to(self.prev_span()),
            })
        } else {
            let e = self.expr()?;
            self.expect(TokenKind::Semi)?;
            Ok(Stmt {
                kind: StmtKind::Expr(e),
                pragmas: Vec::new(),
                span: start.to(self.prev_span()),
            })
        }
    }

    /// Parses either a `{ ... }` block or a single statement wrapped in a
    /// one-statement block, so `if (c) x = 1;` works.
    fn block_or_stmt(&mut self) -> PResult<Block> {
        if self.peek() == &TokenKind::LBrace {
            self.block()
        } else {
            let s = self.stmt()?;
            let span = s.span;
            Ok(Block {
                stmts: vec![s],
                span,
            })
        }
    }

    // ----- expressions -----

    fn expr(&mut self) -> PResult<Expr> {
        self.assignment()
    }

    fn assignment(&mut self) -> PResult<Expr> {
        let lhs = self.ternary()?;
        let op = match self.peek() {
            TokenKind::Assign => None,
            TokenKind::PlusAssign => Some(BinOp::Add),
            TokenKind::MinusAssign => Some(BinOp::Sub),
            TokenKind::StarAssign => Some(BinOp::Mul),
            TokenKind::SlashAssign => Some(BinOp::Div),
            TokenKind::PercentAssign => Some(BinOp::Rem),
            TokenKind::AmpAssign => Some(BinOp::BitAnd),
            TokenKind::PipeAssign => Some(BinOp::BitOr),
            TokenKind::CaretAssign => Some(BinOp::BitXor),
            TokenKind::ShlAssign => Some(BinOp::Shl),
            TokenKind::ShrAssign => Some(BinOp::Shr),
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.assignment()?;
        let span = lhs.span.to(rhs.span);
        Ok(Expr {
            kind: ExprKind::Assign {
                op,
                target: Box::new(lhs),
                value: Box::new(rhs),
            },
            span,
        })
    }

    fn ternary(&mut self) -> PResult<Expr> {
        let cond = self.binary(0)?;
        if self.eat(&TokenKind::Question) {
            let then = self.expr()?;
            self.expect(TokenKind::Colon)?;
            let els = self.ternary()?;
            let span = cond.span.to(els.span);
            Ok(Expr {
                kind: ExprKind::Ternary {
                    cond: Box::new(cond),
                    then: Box::new(then),
                    els: Box::new(els),
                },
                span,
            })
        } else {
            Ok(cond)
        }
    }

    /// Binary operator precedence table, loosest first.
    fn bin_op_at(&self, level: u8) -> Option<BinOp> {
        let op = match (level, self.peek()) {
            (0, TokenKind::PipePipe) => BinOp::LogOr,
            (1, TokenKind::AmpAmp) => BinOp::LogAnd,
            (2, TokenKind::Pipe) => BinOp::BitOr,
            (3, TokenKind::Caret) => BinOp::BitXor,
            (4, TokenKind::Amp) => BinOp::BitAnd,
            (5, TokenKind::EqEq) => BinOp::Eq,
            (5, TokenKind::Ne) => BinOp::Ne,
            (6, TokenKind::Lt) => BinOp::Lt,
            (6, TokenKind::Le) => BinOp::Le,
            (6, TokenKind::Gt) => BinOp::Gt,
            (6, TokenKind::Ge) => BinOp::Ge,
            (7, TokenKind::Shl) => BinOp::Shl,
            (7, TokenKind::Shr) => BinOp::Shr,
            (8, TokenKind::Plus) => BinOp::Add,
            (8, TokenKind::Minus) => BinOp::Sub,
            (9, TokenKind::Star) => BinOp::Mul,
            (9, TokenKind::Slash) => BinOp::Div,
            (9, TokenKind::Percent) => BinOp::Rem,
            _ => return None,
        };
        Some(op)
    }

    fn binary(&mut self, level: u8) -> PResult<Expr> {
        if level > 9 {
            return self.unary();
        }
        let mut lhs = self.binary(level + 1)?;
        while let Some(op) = self.bin_op_at(level) {
            self.bump();
            let rhs = self.binary(level + 1)?;
            let span = lhs.span.to(rhs.span);
            lhs = Expr {
                kind: ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)),
                span,
            };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> PResult<Expr> {
        let start = self.span();
        match self.peek().clone() {
            TokenKind::Minus => {
                self.bump();
                let e = self.unary()?;
                let span = start.to(e.span);
                Ok(Expr {
                    kind: ExprKind::Unary(UnOp::Neg, Box::new(e)),
                    span,
                })
            }
            TokenKind::Tilde => {
                self.bump();
                let e = self.unary()?;
                let span = start.to(e.span);
                Ok(Expr {
                    kind: ExprKind::Unary(UnOp::Not, Box::new(e)),
                    span,
                })
            }
            TokenKind::Bang => {
                self.bump();
                let e = self.unary()?;
                let span = start.to(e.span);
                Ok(Expr {
                    kind: ExprKind::Unary(UnOp::LogNot, Box::new(e)),
                    span,
                })
            }
            TokenKind::Star => {
                self.bump();
                let e = self.unary()?;
                let span = start.to(e.span);
                Ok(Expr {
                    kind: ExprKind::Deref(Box::new(e)),
                    span,
                })
            }
            TokenKind::Amp => {
                self.bump();
                let e = self.unary()?;
                let span = start.to(e.span);
                Ok(Expr {
                    kind: ExprKind::AddrOf(Box::new(e)),
                    span,
                })
            }
            TokenKind::PlusPlus | TokenKind::MinusMinus => {
                let inc = self.peek() == &TokenKind::PlusPlus;
                self.bump();
                let e = self.unary()?;
                let span = start.to(e.span);
                Ok(Expr {
                    kind: ExprKind::IncDec {
                        pre: true,
                        inc,
                        target: Box::new(e),
                    },
                    span,
                })
            }
            TokenKind::LParen if self.starts_cast() => {
                self.bump();
                let ty = self.parse_type()?;
                let mut t = ty;
                while self.eat(&TokenKind::Star) {
                    t = Type::Ptr(Box::new(t));
                }
                self.expect(TokenKind::RParen)?;
                let e = self.unary()?;
                let span = start.to(e.span);
                Ok(Expr {
                    kind: ExprKind::Cast {
                        ty: t,
                        expr: Box::new(e),
                    },
                    span,
                })
            }
            _ => self.postfix(),
        }
    }

    /// True when the upcoming `( ... )` is a cast, i.e. a type keyword
    /// follows the open paren.
    fn starts_cast(&self) -> bool {
        matches!(
            self.peek_at(1),
            TokenKind::KwVoid
                | TokenKind::KwBool
                | TokenKind::KwChar
                | TokenKind::KwShort
                | TokenKind::KwInt
                | TokenKind::KwLong
                | TokenKind::KwUnsigned
                | TokenKind::KwSigned
                | TokenKind::KwUint
                | TokenKind::KwSint
        )
    }

    fn postfix(&mut self) -> PResult<Expr> {
        let mut e = self.primary()?;
        loop {
            match self.peek() {
                TokenKind::LBracket => {
                    self.bump();
                    let index = self.expr()?;
                    self.expect(TokenKind::RBracket)?;
                    let span = e.span.to(self.prev_span());
                    e = Expr {
                        kind: ExprKind::Index {
                            base: Box::new(e),
                            index: Box::new(index),
                        },
                        span,
                    };
                }
                TokenKind::PlusPlus | TokenKind::MinusMinus => {
                    let inc = self.peek() == &TokenKind::PlusPlus;
                    self.bump();
                    let span = e.span.to(self.prev_span());
                    e = Expr {
                        kind: ExprKind::IncDec {
                            pre: false,
                            inc,
                            target: Box::new(e),
                        },
                        span,
                    };
                }
                _ => return Ok(e),
            }
        }
    }

    fn primary(&mut self) -> PResult<Expr> {
        let start = self.span();
        match self.peek().clone() {
            TokenKind::IntLit(v) => {
                self.bump();
                Ok(Expr {
                    kind: ExprKind::IntLit(v),
                    span: start,
                })
            }
            TokenKind::CharLit(c) => {
                self.bump();
                Ok(Expr {
                    kind: ExprKind::IntLit(c as u64),
                    span: start,
                })
            }
            TokenKind::KwTrue => {
                self.bump();
                Ok(Expr {
                    kind: ExprKind::BoolLit(true),
                    span: start,
                })
            }
            TokenKind::KwFalse => {
                self.bump();
                Ok(Expr {
                    kind: ExprKind::BoolLit(false),
                    span: start,
                })
            }
            TokenKind::KwRecv => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let ch = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(Expr {
                    kind: ExprKind::Recv(Box::new(ch)),
                    span: start.to(self.prev_span()),
                })
            }
            TokenKind::Ident(name) => {
                self.bump();
                if self.peek() == &TokenKind::LParen {
                    self.bump();
                    let mut args = Vec::new();
                    if self.peek() != &TokenKind::RParen {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(TokenKind::RParen)?;
                    Ok(Expr {
                        kind: ExprKind::Call { callee: name, args },
                        span: start.to(self.prev_span()),
                    })
                } else {
                    Ok(Expr {
                        kind: ExprKind::Ident(name),
                        span: start,
                    })
                }
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(Expr {
                    kind: e.kind,
                    span: start.to(self.prev_span()),
                })
            }
            other => Err(Diagnostic::error(
                format!("expected expression, found {}", other.describe()),
                start,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> Program {
        match parse(src) {
            Ok(p) => p,
            Err(e) => panic!("parse failed: {}", e.render(src)),
        }
    }

    fn first_func(p: &Program) -> &FuncDecl {
        p.items
            .iter()
            .find_map(|i| match i {
                Item::Func(f) => Some(f),
                _ => None,
            })
            .expect("no function")
    }

    #[test]
    fn parses_minimal_function() {
        let p = parse_ok("int f() { return 1; }");
        let f = first_func(&p);
        assert_eq!(f.name, "f");
        assert_eq!(f.ret_ty, Type::int());
        assert_eq!(f.body.as_ref().unwrap().stmts.len(), 1);
    }

    #[test]
    fn parses_params_and_arrays() {
        let p = parse_ok("int dot(int a[4], int b[4], int n) { return 0; }");
        let f = first_func(&p);
        assert_eq!(f.params.len(), 3);
        assert_eq!(f.params[0].ty, Type::Array(Box::new(Type::int()), 4));
        assert_eq!(f.params[2].ty, Type::int());
    }

    #[test]
    fn unsized_array_param_is_pointer() {
        let p = parse_ok("int f(int a[]) { return a[0]; }");
        let f = first_func(&p);
        assert_eq!(f.params[0].ty, Type::Ptr(Box::new(Type::int())));
    }

    #[test]
    fn parses_bit_precise_types() {
        let p = parse_ok("uint<12> f(sint<5> x, int<7> y) { return 0; }");
        let f = first_func(&p);
        assert_eq!(f.ret_ty, Type::uint(12));
        assert_eq!(f.params[0].ty, Type::sint(5));
        assert_eq!(f.params[1].ty, Type::sint(7));
    }

    #[test]
    fn rejects_zero_width() {
        assert!(parse("uint<0> f() { return 0; }").is_err());
        assert!(parse("uint<65> f() { return 0; }").is_err());
    }

    #[test]
    fn const_array_sizes_from_globals() {
        let p = parse_ok("const int N = 4; int f() { int a[N * 2]; return 0; }");
        let f = first_func(&p);
        match &f.body.as_ref().unwrap().stmts[0].kind {
            StmtKind::Decl(d) => assert_eq!(d.ty, Type::Array(Box::new(Type::int()), 8)),
            other => panic!("expected decl, got {other:?}"),
        }
    }

    #[test]
    fn precedence_mul_binds_tighter() {
        let p = parse_ok("int f() { return 1 + 2 * 3; }");
        let f = first_func(&p);
        match &f.body.as_ref().unwrap().stmts[0].kind {
            StmtKind::Return(Some(e)) => match &e.kind {
                ExprKind::Binary(BinOp::Add, _, rhs) => {
                    assert!(matches!(rhs.kind, ExprKind::Binary(BinOp::Mul, _, _)));
                }
                other => panic!("expected add at top, got {other:?}"),
            },
            _ => panic!("expected return"),
        }
    }

    #[test]
    fn shift_precedence_below_additive() {
        let p = parse_ok("int f() { return 1 << 2 + 3; }");
        let f = first_func(&p);
        match &f.body.as_ref().unwrap().stmts[0].kind {
            StmtKind::Return(Some(e)) => {
                assert!(matches!(e.kind, ExprKind::Binary(BinOp::Shl, _, _)));
            }
            _ => panic!("expected return"),
        }
    }

    #[test]
    fn assignment_is_right_associative() {
        let p = parse_ok("int f() { int a; int b; a = b = 1; return a; }");
        let f = first_func(&p);
        match &f.body.as_ref().unwrap().stmts[2].kind {
            StmtKind::Expr(e) => match &e.kind {
                ExprKind::Assign { value, .. } => {
                    assert!(matches!(value.kind, ExprKind::Assign { .. }));
                }
                other => panic!("expected assign, got {other:?}"),
            },
            _ => panic!("expected expr stmt"),
        }
    }

    #[test]
    fn parses_compound_assign_and_incdec() {
        parse_ok("int f() { int x = 0; x += 3; x <<= 1; x++; --x; return x; }");
    }

    #[test]
    fn parses_control_flow() {
        parse_ok(
            "int f(int n) {
                int s = 0;
                for (int i = 0; i < n; i = i + 1) { s += i; }
                while (s > 100) s -= 1;
                do { s++; } while (s < 10);
                if (s == 3) return 1; else return s;
            }",
        );
    }

    #[test]
    fn parses_par_and_channels() {
        let p = parse_ok(
            "void f() {
                chan<int> c;
                par {
                    send(c, 42);
                    { int x = recv(c); }
                }
            }",
        );
        let f = first_func(&p);
        match &f.body.as_ref().unwrap().stmts[1].kind {
            StmtKind::Par(branches) => assert_eq!(branches.len(), 2),
            other => panic!("expected par, got {other:?}"),
        }
    }

    #[test]
    fn parses_delay() {
        parse_ok("void f() { delay; delay; }");
    }

    #[test]
    fn parses_pointers_and_addressof() {
        parse_ok(
            "int f() {
                int x = 1;
                int *p = &x;
                *p = 2;
                return x + p[0];
            }",
        );
    }

    #[test]
    fn parses_casts() {
        parse_ok("int f(int x) { return (uint<8>) x + (unsigned long) 3; }");
    }

    #[test]
    fn parses_ternary_nested() {
        parse_ok("int f(int x) { return x > 0 ? x > 10 ? 2 : 1 : 0; }");
    }

    #[test]
    fn parses_init_list() {
        let p = parse_ok("int f() { int t[3] = {1, 2, 3}; return t[0]; }");
        let f = first_func(&p);
        match &f.body.as_ref().unwrap().stmts[0].kind {
            StmtKind::Decl(d) => {
                assert!(matches!(d.init, Some(Init::List(ref v, _)) if v.len() == 3))
            }
            _ => panic!("expected decl"),
        }
    }

    #[test]
    fn pragma_attaches_to_statement() {
        let p = parse_ok(
            "int f(int n) {
                int s = 0;
                #pragma unroll 4
                for (int i = 0; i < 16; i++) s += i;
                return s;
            }",
        );
        let f = first_func(&p);
        let for_stmt = &f.body.as_ref().unwrap().stmts[1];
        assert_eq!(for_stmt.pragmas, vec![Pragma::Unroll(4)]);
    }

    #[test]
    fn clock_period_pragma_is_item() {
        let p = parse_ok("#pragma clock_period 5000\nint f() { return 0; }");
        assert!(matches!(
            p.items[0],
            Item::Pragma(Pragma::ClockPeriod(5000), _)
        ));
    }

    #[test]
    fn bank_pragma_attaches_to_global() {
        let p = parse_ok("#pragma memory bank(4)\nint table[16];\nint f() { return 0; }");
        match &p.items[0] {
            Item::Global(g) => assert_eq!(g.pragmas, vec![Pragma::Bank(4)]),
            other => panic!("expected global, got {other:?}"),
        }
    }

    #[test]
    fn error_messages_are_located() {
        let err = parse("int f( { return 0; }").unwrap_err();
        assert!(err.message.contains("expected type"));
    }

    #[test]
    fn rejects_unterminated_block() {
        assert!(parse("int f() { return 0;").is_err());
    }

    #[test]
    fn chan_type_must_be_scalar() {
        assert!(parse("void f() { chan<int[4]> c; }").is_err());
    }

    #[test]
    fn cast_vs_paren_expr() {
        // `(x)` is a parenthesized expression, not a cast.
        parse_ok("int f(int x) { return (x) + 1; }");
    }

    #[test]
    fn long_long_is_64() {
        let p = parse_ok("long long f() { return 0; }");
        assert_eq!(first_func(&p).ret_ty, Type::sint(64));
    }
}

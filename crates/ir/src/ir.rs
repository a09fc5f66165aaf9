//! Core IR data structures.
//!
//! The IR is a conventional CFG of basic blocks in SSA form:
//!
//! * every instruction produces at most one [`Value`] (its own index);
//! * scalar dataflow is explicit through instruction operands and phis;
//! * arrays live in [`MemInfo`] memories accessed by `Load`/`Store` with an
//!   element index — there are **no pointers** at this level (the paper's
//!   pointer problem is handled before lowering, see `chls-opt`);
//! * control flow ends each block with exactly one [`Term`].
//!
//! Signedness is carried by each instruction's [`IntType`], so there is one
//! `Div` whose behaviour depends on its type, rather than `SDiv`/`UDiv`
//! pairs.

use chls_frontend::ast::BinOp;
use chls_frontend::hir::MemBank;
use chls_frontend::{IntType, Span};
use std::fmt;

/// Index of an instruction; also the SSA value it defines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Value(pub u32);

/// Index of a basic block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// Index of a memory (array) within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemId(pub u32);

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

impl fmt::Display for MemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Two-operand operations. Signedness comes from the instruction type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinKind {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Division; division by zero yields 0.
    Div,
    /// Remainder; remainder by zero yields 0.
    Rem,
    /// Left shift (shift amounts are taken modulo 64 then clamp to width).
    Shl,
    /// Right shift: arithmetic when signed, logical when unsigned.
    Shr,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Equality; result is `u1`.
    Eq,
    /// Inequality; result is `u1`.
    Ne,
    /// Less-than (per operand signedness); result is `u1`.
    Lt,
    /// Less-or-equal; result is `u1`.
    Le,
    /// Greater-than; result is `u1`.
    Gt,
    /// Greater-or-equal; result is `u1`.
    Ge,
}

/// The IR op of a HIR binary operator. Logical operators never reach
/// one (sema desugars them to selects).
impl From<BinOp> for BinKind {
    fn from(op: BinOp) -> Self {
        match op {
            BinOp::Add => BinKind::Add,
            BinOp::Sub => BinKind::Sub,
            BinOp::Mul => BinKind::Mul,
            BinOp::Div => BinKind::Div,
            BinOp::Rem => BinKind::Rem,
            BinOp::Shl => BinKind::Shl,
            BinOp::Shr => BinKind::Shr,
            BinOp::BitAnd => BinKind::And,
            BinOp::BitOr => BinKind::Or,
            BinOp::BitXor => BinKind::Xor,
            BinOp::Eq => BinKind::Eq,
            BinOp::Ne => BinKind::Ne,
            BinOp::Lt => BinKind::Lt,
            BinOp::Le => BinKind::Le,
            BinOp::Gt => BinKind::Gt,
            BinOp::Ge => BinKind::Ge,
            BinOp::LogAnd | BinOp::LogOr => unreachable!("desugared by sema"),
        }
    }
}

impl BinKind {
    /// True for the six comparison operators.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinKind::Eq | BinKind::Ne | BinKind::Lt | BinKind::Le | BinKind::Gt | BinKind::Ge
        )
    }

    /// True when `a op b == b op a`.
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinKind::Add
                | BinKind::Mul
                | BinKind::And
                | BinKind::Or
                | BinKind::Xor
                | BinKind::Eq
                | BinKind::Ne
        )
    }

    /// Mnemonic used by the printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinKind::Add => "add",
            BinKind::Sub => "sub",
            BinKind::Mul => "mul",
            BinKind::Div => "div",
            BinKind::Rem => "rem",
            BinKind::Shl => "shl",
            BinKind::Shr => "shr",
            BinKind::And => "and",
            BinKind::Or => "or",
            BinKind::Xor => "xor",
            BinKind::Eq => "eq",
            BinKind::Ne => "ne",
            BinKind::Lt => "lt",
            BinKind::Le => "le",
            BinKind::Gt => "gt",
            BinKind::Ge => "ge",
        }
    }
}

/// One-operand operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnKind {
    /// Two's-complement negation.
    Neg,
    /// Bitwise complement.
    Not,
}

/// Instruction payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum InstKind {
    /// The `i`-th scalar function parameter.
    Param(usize),
    /// An integer constant (canonical form for the instruction type).
    Const(i64),
    /// Binary operation.
    Bin(BinKind, Value, Value),
    /// Unary operation.
    Un(UnKind, Value),
    /// `cond ? t : f` — a hardware multiplexer.
    Select {
        /// `u1` condition.
        cond: Value,
        /// Value when 1.
        t: Value,
        /// Value when 0.
        f: Value,
    },
    /// Width/signedness conversion from the operand's type (`from`) to the
    /// instruction's type.
    Cast {
        /// Operand type before conversion.
        from: IntType,
        /// Operand.
        val: Value,
    },
    /// Read `mem[addr]`.
    Load {
        /// Which memory.
        mem: MemId,
        /// Element index.
        addr: Value,
    },
    /// Write `mem[addr] = value`. Defines no meaningful value.
    Store {
        /// Which memory.
        mem: MemId,
        /// Element index.
        addr: Value,
        /// Stored value.
        value: Value,
    },
    /// SSA phi: one incoming value per predecessor block.
    Phi(Vec<(BlockId, Value)>),
}

impl InstKind {
    /// True for instructions whose result is meaningful.
    pub fn has_result(&self) -> bool {
        !matches!(self, InstKind::Store { .. })
    }

    /// True for loads and stores.
    pub fn touches_memory(&self) -> bool {
        matches!(self, InstKind::Load { .. } | InstKind::Store { .. })
    }

    /// Visits every operand value.
    pub fn for_each_operand(&self, mut f: impl FnMut(Value)) {
        match self {
            InstKind::Param(_) | InstKind::Const(_) => {}
            InstKind::Bin(_, a, b) => {
                f(*a);
                f(*b);
            }
            InstKind::Un(_, a) | InstKind::Cast { val: a, .. } => f(*a),
            InstKind::Select { cond, t, f: fv } => {
                f(*cond);
                f(*t);
                f(*fv);
            }
            InstKind::Load { addr, .. } => f(*addr),
            InstKind::Store { addr, value, .. } => {
                f(*addr);
                f(*value);
            }
            InstKind::Phi(args) => {
                for (_, v) in args {
                    f(*v);
                }
            }
        }
    }

    /// Rewrites every operand value through `f`.
    pub fn map_operands(&mut self, mut f: impl FnMut(Value) -> Value) {
        match self {
            InstKind::Param(_) | InstKind::Const(_) => {}
            InstKind::Bin(_, a, b) => {
                *a = f(*a);
                *b = f(*b);
            }
            InstKind::Un(_, a) | InstKind::Cast { val: a, .. } => *a = f(*a),
            InstKind::Select { cond, t, f: fv } => {
                *cond = f(*cond);
                *t = f(*t);
                *fv = f(*fv);
            }
            InstKind::Load { addr, .. } => *addr = f(*addr),
            InstKind::Store { addr, value, .. } => {
                *addr = f(*addr);
                *value = f(*value);
            }
            InstKind::Phi(args) => {
                for (_, v) in args {
                    *v = f(*v);
                }
            }
        }
    }
}

/// An instruction: payload plus result type and owning block.
#[derive(Debug, Clone, PartialEq)]
pub struct InstData {
    /// Payload.
    pub kind: InstKind,
    /// Result type (comparisons are `u1`; stores carry their value type).
    pub ty: IntType,
    /// Owning block.
    pub block: BlockId,
}

/// Block terminator.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way branch on a `u1` value.
    Br {
        /// Condition.
        cond: Value,
        /// Target when 1.
        then: BlockId,
        /// Target when 0.
        els: BlockId,
    },
    /// Function return.
    Ret(Option<Value>),
    /// Placeholder used during construction; invalid in finished IR.
    Unreachable,
}

impl Term {
    /// Successor block ids.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Term::Jump(b) => vec![*b],
            Term::Br { then, els, .. } => vec![*then, *els],
            Term::Ret(_) | Term::Unreachable => vec![],
        }
    }
}

/// A basic block: ordered instruction list plus terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockData {
    /// Instructions in program order (phis first).
    pub insts: Vec<Value>,
    /// Terminator.
    pub term: Term,
}

/// Where a memory's storage comes from, for simulation and reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemSource {
    /// Bound to the caller's `idx`-th argument (an array parameter).
    Param(usize),
    /// A local array, zero-initialized.
    Local,
    /// A constant ROM.
    Rom,
}

/// A memory: one source array.
#[derive(Debug, Clone, PartialEq)]
pub struct MemInfo {
    /// Source-level name (for reports and Verilog).
    pub name: String,
    /// Element type.
    pub elem: IntType,
    /// Number of elements.
    pub len: usize,
    /// Constant contents for ROMs.
    pub rom: Option<Vec<i64>>,
    /// Banking request from `#pragma memory`.
    pub bank: MemBank,
    /// Storage origin.
    pub source: MemSource,
}

/// A function in SSA CFG form.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Name.
    pub name: String,
    /// Scalar parameter types, in order.
    pub param_tys: Vec<IntType>,
    /// Return type; `None` for void.
    pub ret_ty: Option<IntType>,
    /// All instructions; [`Value`] indexes this.
    pub insts: Vec<InstData>,
    /// All blocks; [`BlockId`] indexes this.
    pub blocks: Vec<BlockData>,
    /// All memories; [`MemId`] indexes this.
    pub mems: Vec<MemInfo>,
    /// Entry block.
    pub entry: BlockId,
    /// Source span of each instruction, parallel to `insts`. Passes that
    /// push `InstData` directly may leave it short; missing entries read
    /// as [`Span::dummy`] through [`Function::span_of`].
    pub spans: Vec<Span>,
}

impl Function {
    /// Creates an empty function with one (entry) block.
    pub fn new(name: impl Into<String>) -> Self {
        Function {
            name: name.into(),
            param_tys: Vec::new(),
            ret_ty: None,
            insts: Vec::new(),
            blocks: vec![BlockData {
                insts: Vec::new(),
                term: Term::Unreachable,
            }],
            mems: Vec::new(),
            entry: BlockId(0),
            spans: Vec::new(),
        }
    }

    /// The instruction defining `v`.
    pub fn inst(&self, v: Value) -> &InstData {
        &self.insts[v.0 as usize]
    }

    /// Mutable access to the instruction defining `v`.
    pub fn inst_mut(&mut self, v: Value) -> &mut InstData {
        &mut self.insts[v.0 as usize]
    }

    /// The block data for `b`.
    pub fn block(&self, b: BlockId) -> &BlockData {
        &self.blocks[b.0 as usize]
    }

    /// Mutable access to block `b`.
    pub fn block_mut(&mut self, b: BlockId) -> &mut BlockData {
        &mut self.blocks[b.0 as usize]
    }

    /// The memory info for `m`.
    pub fn mem(&self, m: MemId) -> &MemInfo {
        &self.mems[m.0 as usize]
    }

    /// Adds a new empty block and returns its id.
    pub fn add_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(BlockData {
            insts: Vec::new(),
            term: Term::Unreachable,
        });
        id
    }

    /// Appends an instruction to `block` and returns its value.
    pub fn add_inst(&mut self, block: BlockId, kind: InstKind, ty: IntType) -> Value {
        let v = Value(self.insts.len() as u32);
        self.insts.push(InstData { kind, ty, block });
        self.spans.push(Span::dummy());
        self.blocks[block.0 as usize].insts.push(v);
        v
    }

    /// Inserts a phi at the front of `block`.
    pub fn add_phi(&mut self, block: BlockId, ty: IntType) -> Value {
        let v = Value(self.insts.len() as u32);
        self.insts.push(InstData {
            kind: InstKind::Phi(Vec::new()),
            ty,
            block,
        });
        self.spans.push(Span::dummy());
        self.blocks[block.0 as usize].insts.insert(0, v);
        v
    }

    /// The source span of `v`, or [`Span::dummy`] when none was recorded
    /// (synthesized instructions, passes that bypass [`Function::add_inst`]).
    pub fn span_of(&self, v: Value) -> Span {
        self.spans
            .get(v.0 as usize)
            .copied()
            .unwrap_or_else(Span::dummy)
    }

    /// Records the source span of `v`, growing the table as needed.
    pub fn set_span(&mut self, v: Value, span: Span) {
        let i = v.0 as usize;
        if self.spans.len() <= i {
            self.spans.resize(i + 1, Span::dummy());
        }
        self.spans[i] = span;
    }

    /// Adds a memory and returns its id.
    pub fn add_mem(&mut self, info: MemInfo) -> MemId {
        let id = MemId(self.mems.len() as u32);
        self.mems.push(info);
        id
    }

    /// Predecessor blocks of every block.
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for (i, b) in self.blocks.iter().enumerate() {
            for s in b.term.successors() {
                preds[s.0 as usize].push(BlockId(i as u32));
            }
        }
        preds
    }

    /// Blocks in reverse postorder from the entry.
    pub fn reverse_postorder(&self) -> Vec<BlockId> {
        let mut visited = vec![false; self.blocks.len()];
        let mut post = Vec::new();
        // Iterative DFS to avoid recursion limits on long CFG chains.
        let mut stack = vec![(self.entry, 0usize)];
        visited[self.entry.0 as usize] = true;
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            let succs = self.block(b).term.successors();
            if *next < succs.len() {
                let s = succs[*next];
                *next += 1;
                if !visited[s.0 as usize] {
                    visited[s.0 as usize] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        post
    }

    /// Renumbers values densely, dropping instructions that are not placed
    /// in any block (e.g. phis removed by cleanup passes).
    ///
    /// # Panics
    ///
    /// Panics if a placed instruction references an unplaced one.
    pub fn compact(&mut self) {
        let mut map: Vec<Option<Value>> = vec![None; self.insts.len()];
        let mut placed = 0u32;
        for block in &self.blocks {
            for &v in &block.insts {
                map[v.0 as usize] = Some(Value(placed));
                placed += 1;
            }
        }
        let remap = |v: Value| -> Value {
            map[v.0 as usize].unwrap_or_else(|| panic!("compact: {v} used but unplaced"))
        };
        // Each placed instruction moves to its new slot; the old arena is
        // dropped afterwards.
        let mut new_insts: Vec<InstData> = Vec::with_capacity(placed as usize);
        let mut new_spans: Vec<Span> = Vec::with_capacity(placed as usize);
        for (bi, block) in self.blocks.iter().enumerate() {
            for &v in &block.insts {
                let old = &mut self.insts[v.0 as usize];
                let mut kind = std::mem::replace(&mut old.kind, InstKind::Const(0));
                kind.map_operands(remap);
                new_insts.push(InstData {
                    kind,
                    ty: old.ty,
                    block: BlockId(bi as u32),
                });
                new_spans.push(self.span_of(v));
            }
        }
        for block in &mut self.blocks {
            for v in &mut block.insts {
                *v = remap(*v);
            }
            match &mut block.term {
                Term::Br { cond, .. } => *cond = remap(*cond),
                Term::Ret(Some(v)) => *v = remap(*v),
                _ => {}
            }
        }
        self.insts = new_insts;
        self.spans = new_spans;
    }

    /// Number of instructions that are not phis or params (a rough size
    /// metric used in reports).
    pub fn op_count(&self) -> usize {
        self.insts
            .iter()
            .filter(|i| !matches!(i.kind, InstKind::Phi(_) | InstKind::Param(_)))
            .count()
    }
}

/// Pending "replace every use of `from` with `to`" rewrites, applied to
/// a function in one sweep.
///
/// Rewriting the whole function per replacement is quadratic; a pass
/// instead records each replacement here, reads operands through
/// [`Forwarding::resolve`] while it runs, and calls
/// [`Forwarding::apply`] once at the end. Recording `a → b` and later
/// `b → c` resolves `a` to `c`, exactly as two eager rewrites in that
/// order would.
#[derive(Debug, Clone)]
pub struct Forwarding {
    /// `to[v]` is `v`'s replacement; `v` itself when it has none.
    to: Vec<Value>,
    any: bool,
}

impl Forwarding {
    /// No replacements yet, for a function of `f`'s size.
    pub fn new(f: &Function) -> Self {
        Forwarding {
            to: (0..f.insts.len() as u32).map(Value).collect(),
            any: false,
        }
    }

    /// Records that every use of `from` becomes a use of `to`.
    pub fn forward(&mut self, from: Value, to: Value) {
        self.to[from.0 as usize] = to;
        self.any = true;
    }

    /// True when `v` has been replaced.
    pub fn is_forwarded(&self, v: Value) -> bool {
        self.to[v.0 as usize] != v
    }

    /// The value a use of `v` reads after every recorded replacement.
    pub fn resolve(&mut self, mut v: Value) -> Value {
        // Path halving keeps chains short without a second pass.
        loop {
            let next = self.to[v.0 as usize];
            if next == v {
                return v;
            }
            let skip = self.to[next.0 as usize];
            self.to[v.0 as usize] = skip;
            v = next;
        }
    }

    /// Rewrites every operand and terminator use in `f` through the
    /// recorded replacements. Returns whether any were recorded.
    pub fn apply(&mut self, f: &mut Function) -> bool {
        if !self.any {
            return false;
        }
        for inst in &mut f.insts {
            inst.kind.map_operands(|v| self.resolve(v));
        }
        for block in &mut f.blocks {
            match &mut block.term {
                Term::Br { cond: v, .. } | Term::Ret(Some(v)) => *v = self.resolve(*v),
                _ => {}
            }
        }
        true
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn {}(", self.name)?;
        for (i, ty) in self.param_tys.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{ty}")?;
        }
        write!(f, ")")?;
        if let Some(rt) = self.ret_ty {
            write!(f, " -> {rt}")?;
        }
        writeln!(f, " {{")?;
        for (mi, m) in self.mems.iter().enumerate() {
            writeln!(
                f,
                "  mem m{mi}: {} x {} ({}{})",
                m.len,
                m.elem,
                m.name,
                if m.rom.is_some() { ", rom" } else { "" }
            )?;
        }
        for (bi, block) in self.blocks.iter().enumerate() {
            writeln!(f, "{}:", BlockId(bi as u32))?;
            for &v in &block.insts {
                let inst = self.inst(v);
                write!(f, "  {v}: {} = ", inst.ty)?;
                match &inst.kind {
                    InstKind::Param(i) => writeln!(f, "param {i}")?,
                    InstKind::Const(c) => writeln!(f, "const {c}")?,
                    InstKind::Bin(op, a, b) => writeln!(f, "{} {a}, {b}", op.mnemonic())?,
                    InstKind::Un(UnKind::Neg, a) => writeln!(f, "neg {a}")?,
                    InstKind::Un(UnKind::Not, a) => writeln!(f, "not {a}")?,
                    InstKind::Select { cond, t, f: fv } => writeln!(f, "select {cond}, {t}, {fv}")?,
                    InstKind::Cast { from, val } => writeln!(f, "cast {val} ({from})")?,
                    InstKind::Load { mem, addr } => writeln!(f, "load {mem}[{addr}]")?,
                    InstKind::Store { mem, addr, value } => {
                        writeln!(f, "store {mem}[{addr}], {value}")?
                    }
                    InstKind::Phi(args) => {
                        write!(f, "phi")?;
                        for (b, v) in args {
                            write!(f, " [{b}: {v}]")?;
                        }
                        writeln!(f)?;
                    }
                }
            }
            match &block.term {
                Term::Jump(b) => writeln!(f, "  jump {b}")?,
                Term::Br { cond, then, els } => writeln!(f, "  br {cond}, {then}, {els}")?,
                Term::Ret(Some(v)) => writeln!(f, "  ret {v}")?,
                Term::Ret(None) => writeln!(f, "  ret")?,
                Term::Unreachable => writeln!(f, "  unreachable")?,
            }
        }
        writeln!(f, "}}")
    }
}

/// Evaluates a binary operation on canonical values of type `ty`.
///
/// This single definition is shared by the IR executor, the constant
/// folder, the netlist simulator, and the dataflow simulator so they cannot
/// drift apart.
#[inline]
pub fn eval_bin(op: BinKind, ty: IntType, a: i64, b: i64) -> i64 {
    let (ua, ub) = ((a as u64) & ty.mask(), (b as u64) & ty.mask());
    let raw = match op {
        BinKind::Add => a.wrapping_add(b),
        BinKind::Sub => a.wrapping_sub(b),
        BinKind::Mul => a.wrapping_mul(b),
        BinKind::Div => {
            if ub == 0 && !ty.signed {
                0
            } else if ty.signed {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            } else {
                (ua / ub) as i64
            }
        }
        BinKind::Rem => {
            if ty.signed {
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            } else if ub == 0 {
                0
            } else {
                (ua % ub) as i64
            }
        }
        BinKind::Shl => {
            let sh = (ub as u32).min(63);
            if sh >= ty.width as u32 {
                0
            } else {
                a.wrapping_shl(sh)
            }
        }
        BinKind::Shr => {
            let sh = (ub as u32).min(63);
            if sh >= ty.width as u32 {
                if ty.signed && a < 0 {
                    -1
                } else {
                    0
                }
            } else if ty.signed {
                a.wrapping_shr(sh)
            } else {
                (ua >> sh) as i64
            }
        }
        BinKind::And => a & b,
        BinKind::Or => a | b,
        BinKind::Xor => a ^ b,
        BinKind::Eq => return (ua == ub) as i64,
        BinKind::Ne => return (ua != ub) as i64,
        BinKind::Lt => return if ty.signed { a < b } else { ua < ub } as i64,
        BinKind::Le => return if ty.signed { a <= b } else { ua <= ub } as i64,
        BinKind::Gt => return if ty.signed { a > b } else { ua > ub } as i64,
        BinKind::Ge => return if ty.signed { a >= b } else { ua >= ub } as i64,
    };
    ty.canonicalize(raw)
}

/// Evaluates a unary operation on a canonical value of type `ty`.
#[inline]
pub fn eval_un(op: UnKind, ty: IntType, a: i64) -> i64 {
    match op {
        UnKind::Neg => ty.canonicalize(a.wrapping_neg()),
        UnKind::Not => ty.canonicalize(!a),
    }
}

/// Converts a canonical value of type `from` to canonical form in `to`.
#[inline]
pub fn eval_cast(from: IntType, to: IntType, v: i64) -> i64 {
    // `v` is already in canonical form for `from` (sign- or zero-extended
    // to 64 bits), so conversion is just re-canonicalization in `to`.
    let _ = from;
    to.canonicalize(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(w: u16) -> IntType {
        IntType::new(w, false)
    }

    fn s(w: u16) -> IntType {
        IntType::new(w, true)
    }

    #[test]
    fn eval_bin_wrapping_add() {
        assert_eq!(eval_bin(BinKind::Add, u(8), 200, 100), 44);
        assert_eq!(eval_bin(BinKind::Add, s(8), 100, 100), -56);
    }

    #[test]
    fn eval_bin_division_semantics() {
        assert_eq!(eval_bin(BinKind::Div, s(32), 7, 2), 3);
        assert_eq!(eval_bin(BinKind::Div, s(32), -7, 2), -3);
        assert_eq!(eval_bin(BinKind::Div, s(32), 7, 0), 0);
        assert_eq!(
            eval_bin(BinKind::Div, u(32), u32::MAX as i64, 2),
            0x7fff_ffff
        );
        assert_eq!(eval_bin(BinKind::Rem, s(32), -7, 2), -1);
        assert_eq!(eval_bin(BinKind::Rem, u(8), 255, 0), 0);
    }

    #[test]
    fn eval_bin_shifts() {
        assert_eq!(eval_bin(BinKind::Shl, u(8), 0b101, 2), 0b10100);
        assert_eq!(eval_bin(BinKind::Shl, u(8), 0xff, 8), 0);
        assert_eq!(eval_bin(BinKind::Shr, s(8), -128, 1), -64);
        assert_eq!(eval_bin(BinKind::Shr, u(8), 0x80, 1), 0x40);
        // Over-shift: arithmetic keeps sign, logical zeroes.
        assert_eq!(eval_bin(BinKind::Shr, s(8), -1, 100), -1);
        assert_eq!(eval_bin(BinKind::Shr, u(8), 0xff, 100), 0);
    }

    #[test]
    fn eval_bin_comparisons_respect_signedness() {
        // 0xff as u8 is 255; as i8 it is -1.
        assert_eq!(eval_bin(BinKind::Lt, u(8), 255, 1), 0);
        assert_eq!(eval_bin(BinKind::Lt, s(8), -1, 1), 1);
        assert_eq!(eval_bin(BinKind::Eq, u(8), 255, 255), 1);
    }

    #[test]
    fn eval_un_and_cast() {
        assert_eq!(eval_un(UnKind::Neg, s(8), -128), -128); // wraps
        assert_eq!(eval_un(UnKind::Not, u(4), 0b0101), 0b1010);
        assert_eq!(eval_cast(s(8), u(8), -1), 255);
        assert_eq!(eval_cast(u(8), s(4), 0b1111), -1);
        assert_eq!(eval_cast(u(4), u(8), 15), 15);
    }

    #[test]
    fn function_builder_basics() {
        let mut f = Function::new("t");
        let b0 = f.entry;
        let c1 = f.add_inst(b0, InstKind::Const(1), s(32));
        let c2 = f.add_inst(b0, InstKind::Const(2), s(32));
        let sum = f.add_inst(b0, InstKind::Bin(BinKind::Add, c1, c2), s(32));
        f.block_mut(b0).term = Term::Ret(Some(sum));
        f.ret_ty = Some(s(32));
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.insts.len(), 3);
        assert_eq!(f.block(b0).term.successors(), vec![]);
        let text = f.to_string();
        assert!(text.contains("add v0, v1"), "{text}");
    }

    #[test]
    fn predecessors_and_rpo() {
        let mut f = Function::new("t");
        let b0 = f.entry;
        let b1 = f.add_block();
        let b2 = f.add_block();
        let b3 = f.add_block();
        let c = f.add_inst(b0, InstKind::Const(1), u(1));
        f.block_mut(b0).term = Term::Br {
            cond: c,
            then: b1,
            els: b2,
        };
        f.block_mut(b1).term = Term::Jump(b3);
        f.block_mut(b2).term = Term::Jump(b3);
        f.block_mut(b3).term = Term::Ret(None);
        let preds = f.predecessors();
        assert_eq!(preds[b3.0 as usize], vec![b1, b2]);
        let rpo = f.reverse_postorder();
        assert_eq!(rpo[0], b0);
        assert_eq!(*rpo.last().unwrap(), b3);
        assert_eq!(rpo.len(), 4);
    }

    #[test]
    fn phi_inserts_at_front() {
        let mut f = Function::new("t");
        let b0 = f.entry;
        f.add_inst(b0, InstKind::Const(5), s(32));
        let phi = f.add_phi(b0, s(32));
        assert_eq!(f.block(b0).insts[0], phi);
    }

    #[test]
    fn forwarding_chains_resolve_like_eager_rewrites() {
        let mut f = Function::new("t");
        let b0 = f.entry;
        let c = f.add_inst(b0, InstKind::Const(1), s(32));
        let x = f.add_inst(b0, InstKind::Bin(BinKind::Add, c, c), s(32));
        let y = f.add_inst(b0, InstKind::Bin(BinKind::Mul, x, c), s(32));
        let z = f.add_inst(b0, InstKind::Bin(BinKind::Sub, y, x), s(32));
        f.block_mut(b0).term = Term::Ret(Some(z));
        let mut fwd = Forwarding::new(&f);
        fwd.forward(y, x);
        fwd.forward(x, c);
        assert!(fwd.is_forwarded(y) && !fwd.is_forwarded(c));
        assert!(fwd.apply(&mut f));
        assert_eq!(f.inst(z).kind, InstKind::Bin(BinKind::Sub, c, c));
        assert_eq!(f.block(b0).term, Term::Ret(Some(z)));
        assert!(!Forwarding::new(&f).apply(&mut f), "nothing recorded");
    }

    #[test]
    fn map_operands_rewrites() {
        let mut k = InstKind::Bin(BinKind::Add, Value(1), Value(2));
        k.map_operands(|v| Value(v.0 + 10));
        assert_eq!(k, InstKind::Bin(BinKind::Add, Value(11), Value(12)));
    }
}

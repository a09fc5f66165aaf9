//! The FSMD register-machine *tape* compiler — the shared micro-op
//! representation behind both the interpreting simulator
//! ([`crate::fsmd_sim`]) and the native x86-64 JIT (`chls-jit`).
//!
//! [`compile`] turns every state of an [`Fsmd`] into a flat sequence of
//! [`TInst`] micro-ops over a dense `i64` slot array laid out as
//! `[regs | inputs | consts | temps]`. Registers, inputs, and constants
//! live in fixed slots; every hash-consed subexpression computes into
//! its own temp slot at most once per cycle.
//!
//! Building is one interning pass plus one emission pass per state. The
//! interning pass hash-conses every tree of the design into a DAG under
//! [`chls_ir::FastMap`] and records each state's root ids; it also
//! allocates constant slots in first-use order, so [`Tape::const_init`]
//! comes out in slot order. Emission works from those ids alone, with
//! the per-state node → slot table a dense vector whose entries are
//! valid only for the state that wrote them (an epoch mark).
//!
//! Side-effect-free subexpressions are evaluated *eagerly* in a
//! per-state preamble — sound because every datapath operation is total
//! ([`eval_bin`] defines division by zero, clamps shifts, etc.), so
//! evaluating an untaken mux arm or a false-guarded value is
//! unobservable. Only *effectful* nodes — those containing a bounds-
//! checked [`RvKind::MemRead`] — keep the source's lazy structure, via
//! forward skips: the untaken branch of a mux and the body of a
//! false-guarded action are never evaluated, so an out-of-bounds read on
//! a dead path never fires.
//!
//! [`compile_staged`] stages every register and memory write
//! (`StageReg`, `StageMemWrite`), and [`exec_state`] commits them
//! together after the transfer is chosen, as the clock edge does.
//! [`compile`] then lowers that output: a register write that no later
//! instruction, transfer or return value of its state reads commits in
//! place, and a temp that only carries a value into a register is
//! computed straight into it. What still needs the clock edge stays
//! staged. Both engines, the interpreter and the JIT (`chls-jit`), run
//! the lowered tape; the staged one is the reference the lowering is
//! tested against.
//!
//! Consumers that execute tapes by other means (the JIT) must preserve
//! these semantics exactly; [`run_tape`] and [`exec_state`] are the
//! reference executors, of staged and lowered tapes alike, and every
//! arithmetic corner case defers to [`eval_bin`]/[`eval_un`] so the
//! definitions cannot drift.

use crate::fsmd_sim::FsmdSimError;
use crate::interp::ArgValue;
use chls_frontend::IntType;
use chls_ir::{eval_bin, eval_un, BinKind, FastMap, UnKind};
use chls_rtl::fsmd::{ActionKind, Fsmd, NextState, Rv, RvKind, State};
use std::collections::hash_map::Entry;

/// Index into the dense slot array: `[regs | inputs | consts | temps]`.
pub type Slot = u32;

/// One instruction of a compiled state tape. Operands and destinations
/// are [`Slot`]s; there is no operand stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TInst {
    /// `slots[dst] = eval_un(op, ty, slots[a])`.
    Un {
        /// Operation.
        op: UnKind,
        /// Evaluation type.
        ty: IntType,
        /// Destination slot.
        dst: Slot,
        /// Operand slot.
        a: Slot,
    },
    /// `slots[dst] = eval_bin(op, ty, slots[a], slots[b])` — `ty` is the
    /// evaluation type (the operand type for comparisons). Only the cold
    /// ops (div/rem/shifts) go through this generic form; the hot ones
    /// get the dedicated variants below.
    Bin {
        /// Operation (only `Div`/`Rem`/`Shl`/`Shr` in compiled tapes).
        op: BinKind,
        /// Evaluation type.
        ty: IntType,
        /// Destination slot.
        dst: Slot,
        /// Left operand slot.
        a: Slot,
        /// Right operand slot.
        b: Slot,
    },
    /// Wrapping add, canonicalized to `ty`.
    Add {
        /// Evaluation type.
        ty: IntType,
        /// Destination slot.
        dst: Slot,
        /// Left operand slot.
        a: Slot,
        /// Right operand slot.
        b: Slot,
    },
    /// Wrapping subtract, canonicalized to `ty`.
    Sub {
        /// Evaluation type.
        ty: IntType,
        /// Destination slot.
        dst: Slot,
        /// Left operand slot.
        a: Slot,
        /// Right operand slot.
        b: Slot,
    },
    /// Wrapping multiply, canonicalized to `ty`.
    Mul {
        /// Evaluation type.
        ty: IntType,
        /// Destination slot.
        dst: Slot,
        /// Left operand slot.
        a: Slot,
        /// Right operand slot.
        b: Slot,
    },
    /// Bitwise and (canonical operands stay canonical — no re-canon).
    And {
        /// Destination slot.
        dst: Slot,
        /// Left operand slot.
        a: Slot,
        /// Right operand slot.
        b: Slot,
    },
    /// Bitwise or.
    Or {
        /// Destination slot.
        dst: Slot,
        /// Left operand slot.
        a: Slot,
        /// Right operand slot.
        b: Slot,
    },
    /// Bitwise xor.
    Xor {
        /// Destination slot.
        dst: Slot,
        /// Left operand slot.
        a: Slot,
        /// Right operand slot.
        b: Slot,
    },
    /// `slots[dst] = (slots[a] == slots[b]) as i64`.
    CmpEq {
        /// Destination slot.
        dst: Slot,
        /// Left operand slot.
        a: Slot,
        /// Right operand slot.
        b: Slot,
    },
    /// `slots[dst] = (slots[a] != slots[b]) as i64`.
    CmpNe {
        /// Destination slot.
        dst: Slot,
        /// Left operand slot.
        a: Slot,
        /// Right operand slot.
        b: Slot,
    },
    /// Signed `<` on canonical operands; result is 0 or 1.
    CmpLtS {
        /// Destination slot.
        dst: Slot,
        /// Left operand slot.
        a: Slot,
        /// Right operand slot.
        b: Slot,
    },
    /// Unsigned `<` on canonical operands; result is 0 or 1.
    CmpLtU {
        /// Destination slot.
        dst: Slot,
        /// Left operand slot.
        a: Slot,
        /// Right operand slot.
        b: Slot,
    },
    /// Signed `<=`.
    CmpLeS {
        /// Destination slot.
        dst: Slot,
        /// Left operand slot.
        a: Slot,
        /// Right operand slot.
        b: Slot,
    },
    /// Unsigned `<=`.
    CmpLeU {
        /// Destination slot.
        dst: Slot,
        /// Left operand slot.
        a: Slot,
        /// Right operand slot.
        b: Slot,
    },
    /// Signed `>`.
    CmpGtS {
        /// Destination slot.
        dst: Slot,
        /// Left operand slot.
        a: Slot,
        /// Right operand slot.
        b: Slot,
    },
    /// Unsigned `>`.
    CmpGtU {
        /// Destination slot.
        dst: Slot,
        /// Left operand slot.
        a: Slot,
        /// Right operand slot.
        b: Slot,
    },
    /// Signed `>=`.
    CmpGeS {
        /// Destination slot.
        dst: Slot,
        /// Left operand slot.
        a: Slot,
        /// Right operand slot.
        b: Slot,
    },
    /// Unsigned `>=`.
    CmpGeU {
        /// Destination slot.
        dst: Slot,
        /// Left operand slot.
        a: Slot,
        /// Right operand slot.
        b: Slot,
    },
    /// `slots[dst] = ty.canonicalize(slots[a])`.
    Cast {
        /// Target type.
        ty: IntType,
        /// Destination slot.
        dst: Slot,
        /// Operand slot.
        a: Slot,
    },
    /// Eager mux over pure, already-computed arms.
    Select {
        /// Destination slot.
        dst: Slot,
        /// Condition slot (nonzero selects `t`).
        cond: Slot,
        /// Taken-arm slot.
        t: Slot,
        /// Else-arm slot.
        f: Slot,
    },
    /// Bounds-checked memory read.
    MemRead {
        /// Memory index.
        mem: u32,
        /// Destination slot.
        dst: Slot,
        /// Address slot.
        addr: Slot,
    },
    /// `slots[dst] = slots[a]` (joins lazy mux arms on a common slot).
    Copy {
        /// Destination slot.
        dst: Slot,
        /// Source slot.
        a: Slot,
    },
    /// `slots[dst] = val` (lazy case-chain selection).
    SetImm {
        /// Destination slot.
        dst: Slot,
        /// Immediate value.
        val: i64,
    },
    /// Skip forward to `target` when `slots[cond] == 0`.
    SkipIfZero {
        /// Condition slot.
        cond: Slot,
        /// Forward tape index to resume at when the condition is zero.
        target: u32,
    },
    /// Unconditional forward skip.
    Skip {
        /// Forward tape index to resume at.
        target: u32,
    },
    /// Stage a register update, canonicalized to the register's type.
    StageReg {
        /// Register index (= slot index).
        reg: u32,
        /// The register's declared type.
        ty: IntType,
        /// Value slot.
        val: Slot,
    },
    /// Bounds-check and stage a memory write, canonicalized to the
    /// element type.
    StageMemWrite {
        /// Memory index.
        mem: u32,
        /// Element type.
        elem: IntType,
        /// Address slot.
        addr: Slot,
        /// Value slot.
        val: Slot,
    },
}

impl TInst {
    /// The operand slots, in operand order, for reading or renaming.
    /// One exhaustive match, so a new variant cannot be left out.
    pub fn reads_mut(&mut self) -> [Option<&mut Slot>; 3] {
        match self {
            TInst::Un { a, .. } | TInst::Cast { a, .. } | TInst::Copy { a, .. } => {
                [Some(a), None, None]
            }
            TInst::Bin { a, b, .. }
            | TInst::Add { a, b, .. }
            | TInst::Sub { a, b, .. }
            | TInst::Mul { a, b, .. }
            | TInst::And { a, b, .. }
            | TInst::Or { a, b, .. }
            | TInst::Xor { a, b, .. }
            | TInst::CmpEq { a, b, .. }
            | TInst::CmpNe { a, b, .. }
            | TInst::CmpLtS { a, b, .. }
            | TInst::CmpLtU { a, b, .. }
            | TInst::CmpLeS { a, b, .. }
            | TInst::CmpLeU { a, b, .. }
            | TInst::CmpGtS { a, b, .. }
            | TInst::CmpGtU { a, b, .. }
            | TInst::CmpGeS { a, b, .. }
            | TInst::CmpGeU { a, b, .. } => [Some(a), Some(b), None],
            TInst::Select { cond, t, f, .. } => [Some(cond), Some(t), Some(f)],
            TInst::MemRead { addr, .. } => [Some(addr), None, None],
            TInst::SetImm { .. } | TInst::Skip { .. } => [None, None, None],
            TInst::SkipIfZero { cond, .. } => [Some(cond), None, None],
            TInst::StageReg { val, .. } => [Some(val), None, None],
            TInst::StageMemWrite { addr, val, .. } => [Some(addr), Some(val), None],
        }
    }

    /// The slots this instruction reads, in operand order.
    pub fn reads(&self) -> [Option<Slot>; 3] {
        let mut inst = *self;
        inst.reads_mut().map(|s| s.copied())
    }

    /// The slot this instruction (re)defines, if any. Staging
    /// instructions define none: their effect waits for the commit.
    pub fn writes_mut(&mut self) -> Option<&mut Slot> {
        match self {
            TInst::Un { dst, .. }
            | TInst::Bin { dst, .. }
            | TInst::Add { dst, .. }
            | TInst::Sub { dst, .. }
            | TInst::Mul { dst, .. }
            | TInst::And { dst, .. }
            | TInst::Or { dst, .. }
            | TInst::Xor { dst, .. }
            | TInst::CmpEq { dst, .. }
            | TInst::CmpNe { dst, .. }
            | TInst::CmpLtS { dst, .. }
            | TInst::CmpLtU { dst, .. }
            | TInst::CmpLeS { dst, .. }
            | TInst::CmpLeU { dst, .. }
            | TInst::CmpGtS { dst, .. }
            | TInst::CmpGtU { dst, .. }
            | TInst::CmpGeS { dst, .. }
            | TInst::CmpGeU { dst, .. }
            | TInst::Cast { dst, .. }
            | TInst::Select { dst, .. }
            | TInst::MemRead { dst, .. }
            | TInst::Copy { dst, .. }
            | TInst::SetImm { dst, .. } => Some(dst),
            TInst::SkipIfZero { .. }
            | TInst::Skip { .. }
            | TInst::StageReg { .. }
            | TInst::StageMemWrite { .. } => None,
        }
    }

    /// The slot this instruction (re)defines, if any.
    pub fn writes(&self) -> Option<Slot> {
        let mut inst = *self;
        inst.writes_mut().copied()
    }
}

/// Lowers a binary op at evaluation type `ety` to its most specialized
/// tape instruction (matching [`eval_bin`]'s semantics on canonical
/// operands).
fn bin_inst(op: BinKind, ety: IntType, dst: Slot, a: Slot, b: Slot) -> TInst {
    match op {
        BinKind::Add => TInst::Add { ty: ety, dst, a, b },
        BinKind::Sub => TInst::Sub { ty: ety, dst, a, b },
        BinKind::Mul => TInst::Mul { ty: ety, dst, a, b },
        BinKind::And => TInst::And { dst, a, b },
        BinKind::Or => TInst::Or { dst, a, b },
        BinKind::Xor => TInst::Xor { dst, a, b },
        BinKind::Eq => TInst::CmpEq { dst, a, b },
        BinKind::Ne => TInst::CmpNe { dst, a, b },
        BinKind::Lt if ety.signed => TInst::CmpLtS { dst, a, b },
        BinKind::Lt => TInst::CmpLtU { dst, a, b },
        BinKind::Le if ety.signed => TInst::CmpLeS { dst, a, b },
        BinKind::Le => TInst::CmpLeU { dst, a, b },
        BinKind::Gt if ety.signed => TInst::CmpGtS { dst, a, b },
        BinKind::Gt => TInst::CmpGtU { dst, a, b },
        BinKind::Ge if ety.signed => TInst::CmpGeS { dst, a, b },
        BinKind::Ge => TInst::CmpGeU { dst, a, b },
        BinKind::Div | BinKind::Rem | BinKind::Shl | BinKind::Shr => TInst::Bin {
            op,
            ty: ety,
            dst,
            a,
            b,
        },
    }
}

/// Interned expression node: [`RvKind`] with children by id. Structural
/// identity (including the result type) ⇒ same id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeKind {
    Const(i64),
    Reg(u32),
    Input(u32),
    Un(UnKind, u32),
    Bin(BinKind, u32, u32),
    Mux(u32, u32, u32),
    Cast(u32),
    MemRead(u32, u32),
}

/// A node's interning key: its [`NodeKind`] and result type packed into
/// two words, so a lookup hashes two integers with
/// [`chls_ir::FastHasher`] and compares two, instead of walking the
/// derived `Hash` and `Eq` of the enum field by field.
///
/// The first word holds the kind's payload: the constant value, or up
/// to two ids (first in the low half). The second holds the kind's tag
/// in bits 0..3, signedness in bit 3, the width in bits 4..20, the
/// operator in bits 20..25 and a `Mux`'s third id in bits 32..64. Every
/// field has its own bits, so equal keys mean equal nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct NodeKey(u64, u64);

impl NodeKey {
    fn new(kind: NodeKind, ty: IntType) -> NodeKey {
        let pair = |lo: u32, hi: u32| u64::from(lo) | u64::from(hi) << 32;
        let (tag, op, payload, third) = match kind {
            NodeKind::Const(v) => (0, 0, v as u64, 0),
            NodeKind::Reg(r) => (1, 0, u64::from(r), 0),
            NodeKind::Input(i) => (2, 0, u64::from(i), 0),
            NodeKind::Un(op, a) => (3, op as u64, u64::from(a), 0),
            NodeKind::Bin(op, a, b) => (4, op as u64, pair(a, b), 0),
            NodeKind::Mux(s, a, b) => (5, 0, pair(s, a), u64::from(b)),
            NodeKind::Cast(a) => (6, 0, u64::from(a), 0),
            NodeKind::MemRead(m, a) => (7, 0, pair(m, a), 0),
        };
        let ty_bits = u64::from(ty.signed) << 3 | u64::from(ty.width) << 4;
        NodeKey(payload, tag | ty_bits | op << 20 | third << 32)
    }
}

/// Compiled control transfer. Condition slots are filled by the state's
/// tape before the transfer is read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CNext {
    /// Unconditional transfer.
    Goto(u32),
    /// Two-way branch on a condition slot.
    Branch {
        /// Condition slot (nonzero takes `then`).
        cond: Slot,
        /// Target when nonzero.
        then: u32,
        /// Target when zero.
        els: u32,
    },
    /// All conditions pure: read the (eagerly computed) slots in order.
    Cases {
        /// `(condition slot, target)` pairs; the first nonzero wins.
        conds: Box<[(Slot, u32)]>,
        /// Target when every condition is zero.
        default: u32,
    },
    /// Some condition is effectful: the tape's lazy skip-chain wrote the
    /// matching case index (or -1) into `sel`.
    CasesLazy {
        /// Slot holding the selected case index, or -1 for default.
        sel: Slot,
        /// Case targets by index.
        targets: Box<[u32]>,
        /// Target when `sel` is -1.
        default: u32,
    },
    /// Terminal state.
    Done,
    /// Statically proved deadlock: entering this state can never make
    /// progress again. The payload indexes [`Fsmd::stuck`] so the
    /// simulator can report which processes block on which channels.
    Stuck(u32),
}

/// One compiled state: a tape range plus the control transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CState {
    /// Half-open `[start, end)` range into [`Tape::code`].
    pub tape: (u32, u32),
    /// Control transfer out of this state.
    pub next: CNext,
    /// Slot holding the (pre-commit) return value, for `Done` states.
    pub ret: Option<Slot>,
}

/// The whole FSMD, compiled to micro-op tapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tape {
    /// All states' instructions, concatenated.
    pub code: Vec<TInst>,
    /// Per-state tape ranges and transfers, indexed by `StateId`.
    pub states: Vec<CState>,
    /// Total slot count (`regs + inputs + consts + temps`).
    pub n_slots: usize,
    /// Register count (registers occupy slots `0..n_regs`).
    pub n_regs: usize,
    /// Input count (inputs occupy slots `n_regs..n_regs + n_inputs`).
    pub n_inputs: usize,
    /// Constant slots and their (pre-canonicalized) values, in slot
    /// order.
    pub const_init: Vec<(Slot, i64)>,
}

/// Per-action interned roots (register index or memory index plus
/// expression node ids).
#[derive(Debug, Clone, Copy)]
enum ActionRoots {
    SetReg(u32, u32),
    MemWrite(u32, u32, u32),
}

/// One state's interned roots: half-open ranges into
/// [`Compiler::actions`] and [`Compiler::conds`].
#[derive(Debug, Clone, Copy)]
struct StateRoots {
    actions: (u32, u32),
    conds: (u32, u32),
}

/// Placeholder in [`Compiler::slot`] for a node whose slot is per-state.
const NO_SLOT: Slot = Slot::MAX;

/// Initial room in the node tables and the code: the corpus designs
/// intern at most 49 nodes and emit a median of 23 instructions, so
/// most tapes are built without growing a table.
const NODES_HINT: usize = 64;

/// The expression compiler: interns every `Rv` tree of the design into
/// a DAG once, keeping each state's root ids, then emits one tape per
/// state from those roots.
struct Compiler<'f> {
    f: &'f Fsmd,
    nodes: Vec<(NodeKind, IntType)>,
    effectful: Vec<bool>,
    /// Per node: the slot holding its value. A leaf's fixed slot is set
    /// when it is interned; a pure interior node's preamble temp is set
    /// per state and is valid only while `visited[id] == epoch`.
    slot: Vec<Slot>,
    interned: FastMap<NodeKey, u32>,
    consts: FastMap<i64, Slot>,
    /// Constant slots and values, pushed as each slot is allocated.
    const_init: Vec<(Slot, i64)>,
    /// Every state's `(guard, roots)` per action, in evaluation order.
    actions: Vec<(Option<u32>, ActionRoots)>,
    /// Every state's branch or case conditions, in order.
    conds: Vec<u32>,
    /// Per state: its ranges of `actions` and `conds`.
    roots: Vec<StateRoots>,
    /// The design's return value, sampled in `Done` states.
    ret: Option<u32>,
    code: Vec<TInst>,
    n_regs: u32,
    n_inputs: u32,
    temp_base: u32,
    next_temp: u32,
    max_slots: u32,
    /// Per-state: effectful node → emissions as (context, slot) pairs.
    eff_slots: FastMap<u32, Vec<(u32, Slot)>>,
    /// Per-state preamble visit marks (epoch = state index + 1).
    visited: Vec<u32>,
    epoch: u32,
    /// Per-state conditional-context tree; context 0 is the root and a
    /// slot computed in context `c` is reusable wherever `c` is an
    /// ancestor (i.e. guaranteed already executed).
    ctx_parent: Vec<u32>,
    cur_ctx: u32,
}

impl<'f> Compiler<'f> {
    fn new(f: &'f Fsmd) -> Self {
        let n_actions = f.states.iter().map(|s| s.actions.len()).sum();
        Compiler {
            f,
            nodes: Vec::with_capacity(NODES_HINT),
            effectful: Vec::with_capacity(NODES_HINT),
            slot: Vec::with_capacity(NODES_HINT),
            interned: FastMap::with_capacity_and_hasher(NODES_HINT, Default::default()),
            consts: FastMap::with_capacity_and_hasher(16, Default::default()),
            const_init: Vec::with_capacity(16),
            actions: Vec::with_capacity(n_actions),
            conds: Vec::with_capacity(f.states.len()),
            roots: Vec::with_capacity(f.states.len()),
            ret: None,
            code: Vec::with_capacity(NODES_HINT),
            n_regs: f.regs.len() as u32,
            n_inputs: f.inputs.len() as u32,
            temp_base: 0,
            next_temp: 0,
            max_slots: 0,
            eff_slots: FastMap::default(),
            visited: Vec::new(),
            epoch: 0,
            ctx_parent: vec![u32::MAX],
            cur_ctx: 0,
        }
    }

    /// Interns a tree, returning its DAG id.
    fn intern(&mut self, rv: &Rv) -> u32 {
        let kind = match &rv.kind {
            // Constants are canonicalized once, here.
            RvKind::Const(v) => NodeKind::Const(rv.ty.canonicalize(*v)),
            RvKind::Reg(r) => NodeKind::Reg(r.0),
            RvKind::Input(i) => NodeKind::Input(*i as u32),
            RvKind::Un(op, a) => NodeKind::Un(*op, self.intern(a)),
            RvKind::Bin(op, a, b) => {
                let (a, b) = (self.intern(a), self.intern(b));
                NodeKind::Bin(*op, a, b)
            }
            RvKind::Mux(s, a, b) => {
                let s = self.intern(s);
                let (a, b) = (self.intern(a), self.intern(b));
                NodeKind::Mux(s, a, b)
            }
            RvKind::Cast(a) => NodeKind::Cast(self.intern(a)),
            RvKind::MemRead { mem, addr } => NodeKind::MemRead(mem.0, self.intern(addr)),
        };
        let id = self.nodes.len() as u32;
        match self.interned.entry(NodeKey::new(kind, rv.ty)) {
            Entry::Occupied(e) => return *e.get(),
            Entry::Vacant(e) => {
                e.insert(id);
            }
        }
        let (eff, slot) = match kind {
            NodeKind::MemRead(..) => (true, NO_SLOT),
            NodeKind::Const(v) => {
                let fresh = self.n_regs + self.n_inputs + self.const_init.len() as u32;
                let slot = *self.consts.entry(v).or_insert(fresh);
                if slot == fresh {
                    self.const_init.push((slot, v));
                }
                (false, slot)
            }
            NodeKind::Reg(r) => (false, r),
            NodeKind::Input(i) => (false, self.n_regs + i),
            NodeKind::Un(_, a) | NodeKind::Cast(a) => (self.effectful[a as usize], NO_SLOT),
            NodeKind::Bin(_, a, b) => (
                self.effectful[a as usize] || self.effectful[b as usize],
                NO_SLOT,
            ),
            NodeKind::Mux(s, a, b) => (
                self.effectful[s as usize]
                    || self.effectful[a as usize]
                    || self.effectful[b as usize],
                NO_SLOT,
            ),
        };
        self.nodes.push((kind, rv.ty));
        self.effectful.push(eff);
        self.slot.push(slot);
        id
    }

    /// Interns one state's guards, action values, addresses and
    /// transfer conditions, in evaluation order, and records them as
    /// the state's roots.
    fn intern_state(&mut self, st: &State) {
        let (a0, c0) = (self.actions.len() as u32, self.conds.len() as u32);
        for a in &st.actions {
            let guard = a.guard.as_ref().map(|g| self.intern(g));
            let roots = match &a.kind {
                ActionKind::SetReg(r, rv) => ActionRoots::SetReg(r.0, self.intern(rv)),
                ActionKind::MemWrite { mem, addr, value } => {
                    let a = self.intern(addr);
                    let v = self.intern(value);
                    ActionRoots::MemWrite(mem.0, a, v)
                }
            };
            self.actions.push((guard, roots));
        }
        match &st.next {
            NextState::Branch { cond, .. } => {
                let c = self.intern(cond);
                self.conds.push(c);
            }
            NextState::Cases { cases, .. } => {
                for (cond, _) in cases {
                    let c = self.intern(cond);
                    self.conds.push(c);
                }
            }
            NextState::Goto(_) | NextState::Done => {}
        }
        self.roots.push(StateRoots {
            actions: (a0, self.actions.len() as u32),
            conds: (c0, self.conds.len() as u32),
        });
    }

    fn children(&self, id: u32) -> [Option<u32>; 3] {
        match self.nodes[id as usize].0 {
            NodeKind::Const(_) | NodeKind::Reg(_) | NodeKind::Input(_) => [None, None, None],
            NodeKind::Un(_, a) | NodeKind::Cast(a) | NodeKind::MemRead(_, a) => {
                [Some(a), None, None]
            }
            NodeKind::Bin(_, a, b) => [Some(a), Some(b), None],
            NodeKind::Mux(s, a, b) => [Some(s), Some(a), Some(b)],
        }
    }

    fn alloc_temp(&mut self) -> Slot {
        let s = self.next_temp;
        self.next_temp += 1;
        self.max_slots = self.max_slots.max(self.next_temp);
        s
    }

    /// The slot of a pure node: a fixed leaf slot or its preamble temp.
    fn slot_of(&self, id: u32) -> Slot {
        debug_assert!(
            self.is_leaf(id) || self.visited[id as usize] == self.epoch,
            "node {id} has no preamble slot in this state"
        );
        self.slot[id as usize]
    }

    fn is_leaf(&self, id: u32) -> bool {
        matches!(
            self.nodes[id as usize].0,
            NodeKind::Const(_) | NodeKind::Reg(_) | NodeKind::Input(_)
        )
    }

    /// Emits every pure non-leaf node under `id` (including those inside
    /// mux arms and guarded values — they are total, so eager evaluation
    /// is unobservable), each exactly once, in dependency order.
    fn preamble(&mut self, id: u32) {
        if self.is_leaf(id) || self.visited[id as usize] == self.epoch {
            return;
        }
        self.visited[id as usize] = self.epoch;
        for c in self.children(id).into_iter().flatten() {
            self.preamble(c);
        }
        if self.effectful[id as usize] {
            return;
        }
        let (kind, ty) = self.nodes[id as usize];
        let dst = self.alloc_temp();
        let inst = match kind {
            NodeKind::Un(op, a) => TInst::Un {
                op,
                ty,
                dst,
                a: self.slot_of(a),
            },
            NodeKind::Bin(op, a, b) => {
                // Comparisons evaluate at the operand type, not u1.
                let ety = if op.is_comparison() {
                    self.nodes[a as usize].1
                } else {
                    ty
                };
                bin_inst(op, ety, dst, self.slot_of(a), self.slot_of(b))
            }
            NodeKind::Cast(a) => TInst::Cast {
                ty,
                dst,
                a: self.slot_of(a),
            },
            NodeKind::Mux(s, a, b) => TInst::Select {
                dst,
                cond: self.slot_of(s),
                t: self.slot_of(a),
                f: self.slot_of(b),
            },
            NodeKind::Const(_) | NodeKind::Reg(_) | NodeKind::Input(_) | NodeKind::MemRead(..) => {
                unreachable!("leaves and effectful nodes are not preamble ops")
            }
        };
        self.code.push(inst);
        self.slot[id as usize] = dst;
    }

    fn new_ctx(&mut self, parent: u32) -> u32 {
        self.ctx_parent.push(parent);
        (self.ctx_parent.len() - 1) as u32
    }

    fn is_ancestor(&self, a: u32, mut b: u32) -> bool {
        loop {
            if a == b {
                return true;
            }
            b = self.ctx_parent[b as usize];
            if b == u32::MAX {
                return false;
            }
        }
    }

    /// Emits `id` lazily (pure nodes resolve to their preamble slots)
    /// and returns the slot holding its value at this program point.
    fn emit(&mut self, id: u32) -> Slot {
        if !self.effectful[id as usize] {
            return self.slot_of(id);
        }
        if let Some(entries) = self.eff_slots.get(&id) {
            // Reusable only where the defining emission is guaranteed to
            // have already executed.
            for &(ctx, slot) in entries {
                if self.is_ancestor(ctx, self.cur_ctx) {
                    return slot;
                }
            }
        }
        let def_ctx = self.cur_ctx;
        let (kind, ty) = self.nodes[id as usize];
        let dst = match kind {
            NodeKind::MemRead(mem, addr) => {
                let a = self.emit(addr);
                let dst = self.alloc_temp();
                self.code.push(TInst::MemRead { mem, dst, addr: a });
                dst
            }
            NodeKind::Un(op, a) => {
                let a = self.emit(a);
                let dst = self.alloc_temp();
                self.code.push(TInst::Un { op, ty, dst, a });
                dst
            }
            NodeKind::Bin(op, a, b) => {
                let ety = if op.is_comparison() {
                    self.nodes[a as usize].1
                } else {
                    ty
                };
                let (sa, sb) = (self.emit(a), self.emit(b));
                let dst = self.alloc_temp();
                self.code.push(bin_inst(op, ety, dst, sa, sb));
                dst
            }
            NodeKind::Cast(a) => {
                let a = self.emit(a);
                let dst = self.alloc_temp();
                self.code.push(TInst::Cast { ty, dst, a });
                dst
            }
            NodeKind::Mux(s, a, b) => {
                let sc = self.emit(s);
                let dst = self.alloc_temp();
                let skip_at = self.code.len();
                self.code.push(TInst::SkipIfZero {
                    cond: sc,
                    target: 0,
                });
                self.cur_ctx = self.new_ctx(def_ctx);
                let sa = self.emit(a);
                self.code.push(TInst::Copy { dst, a: sa });
                let jmp_at = self.code.len();
                self.code.push(TInst::Skip { target: 0 });
                let els = self.code.len() as u32;
                if let TInst::SkipIfZero { target, .. } = &mut self.code[skip_at] {
                    *target = els;
                }
                self.cur_ctx = self.new_ctx(def_ctx);
                let sb = self.emit(b);
                self.code.push(TInst::Copy { dst, a: sb });
                let end = self.code.len() as u32;
                if let TInst::Skip { target } = &mut self.code[jmp_at] {
                    *target = end;
                }
                self.cur_ctx = def_ctx;
                dst
            }
            NodeKind::Const(_) | NodeKind::Reg(_) | NodeKind::Input(_) => {
                unreachable!("leaves are pure")
            }
        };
        self.eff_slots.entry(id).or_default().push((def_ctx, dst));
        dst
    }

    /// Compiles one state's actions, control transfer, and return value
    /// into a tape, from the roots the interning pass recorded.
    fn compile_state(&mut self, si: usize) -> CState {
        // Per-state reset: temps, slot maps, visit marks, contexts.
        self.next_temp = self.temp_base;
        self.eff_slots.clear();
        self.ctx_parent.truncate(1);
        self.cur_ctx = 0;
        self.epoch = si as u32 + 1;
        let start = self.code.len() as u32;

        let st = &self.f.states[si];
        let StateRoots {
            actions: (a0, a1),
            conds: (c0, c1),
        } = self.roots[si];
        let (actions, conds) = (a0 as usize..a1 as usize, c0 as usize..c1 as usize);
        let ret_root = if matches!(st.next, NextState::Done) {
            self.ret
        } else {
            None
        };

        // Eager preamble over every root's pure subgraph.
        for k in actions.clone() {
            let (g, roots) = self.actions[k];
            if let Some(g) = g {
                self.preamble(g);
            }
            match roots {
                ActionRoots::SetReg(_, v) => self.preamble(v),
                ActionRoots::MemWrite(_, a, v) => {
                    self.preamble(a);
                    self.preamble(v);
                }
            }
        }
        for k in conds.clone() {
            self.preamble(self.conds[k]);
        }
        if let Some(r) = ret_root {
            self.preamble(r);
        }

        // Effectful evaluation and staging, in action order.
        for k in actions {
            let (g, roots) = self.actions[k];
            let skip_at = g.map(|g| {
                let gs = self.emit(g);
                let at = self.code.len();
                self.code.push(TInst::SkipIfZero {
                    cond: gs,
                    target: 0,
                });
                at
            });
            let saved = self.cur_ctx;
            if skip_at.is_some() {
                self.cur_ctx = self.new_ctx(saved);
            }
            match roots {
                ActionRoots::SetReg(reg, v) => {
                    let val = self.emit(v);
                    let ty = self.f.regs[reg as usize].ty;
                    self.code.push(TInst::StageReg { reg, ty, val });
                }
                ActionRoots::MemWrite(mem, a, v) => {
                    let addr = self.emit(a);
                    let val = self.emit(v);
                    let elem = self.f.mems[mem as usize].elem;
                    self.code.push(TInst::StageMemWrite {
                        mem,
                        elem,
                        addr,
                        val,
                    });
                }
            }
            if let Some(at) = skip_at {
                let end = self.code.len() as u32;
                if let TInst::SkipIfZero { target, .. } = &mut self.code[at] {
                    *target = end;
                }
                self.cur_ctx = saved;
            }
        }

        // Control transfer.
        let next = match &st.next {
            NextState::Goto(t) => CNext::Goto(t.0),
            NextState::Done => CNext::Done,
            NextState::Branch { then, els, .. } => CNext::Branch {
                cond: self.emit(self.conds[c0 as usize]),
                then: then.0,
                els: els.0,
            },
            NextState::Cases { cases, default } => {
                if self.conds[conds.clone()]
                    .iter()
                    .all(|&c| !self.effectful[c as usize])
                {
                    CNext::Cases {
                        conds: self.conds[conds]
                            .iter()
                            .zip(cases.iter())
                            .map(|(&c, (_, t))| (self.slot_of(c), t.0))
                            .collect(),
                        default: default.0,
                    }
                } else {
                    // Lazy chain preserving short-circuit: condition k is
                    // only evaluated when conditions 0..k were all zero.
                    let sel = self.alloc_temp();
                    self.code.push(TInst::SetImm { dst: sel, val: -1 });
                    let mut end_patches = Vec::new();
                    let root_ctx = self.cur_ctx;
                    for (k, ci) in conds.enumerate() {
                        let cs = self.emit(self.conds[ci]);
                        let skip_at = self.code.len();
                        self.code.push(TInst::SkipIfZero {
                            cond: cs,
                            target: 0,
                        });
                        self.code.push(TInst::SetImm {
                            dst: sel,
                            val: k as i64,
                        });
                        end_patches.push(self.code.len());
                        self.code.push(TInst::Skip { target: 0 });
                        let here = self.code.len() as u32;
                        if let TInst::SkipIfZero { target, .. } = &mut self.code[skip_at] {
                            *target = here;
                        }
                        // Everything after this point runs only when the
                        // condition above was zero.
                        let prev = self.cur_ctx;
                        self.cur_ctx = self.new_ctx(prev);
                    }
                    let end = self.code.len() as u32;
                    for at in end_patches {
                        if let TInst::Skip { target } = &mut self.code[at] {
                            *target = end;
                        }
                    }
                    self.cur_ctx = root_ctx;
                    CNext::CasesLazy {
                        sel,
                        targets: cases.iter().map(|(_, t)| t.0).collect(),
                        default: default.0,
                    }
                }
            }
        };

        let ret = ret_root.map(|r| self.emit(r));
        CState {
            tape: (start, self.code.len() as u32),
            next,
            ret,
        }
    }
}

/// Compiles every state of `f` to the tape both engines run: the staged
/// tape with its in-place commits lowered.
pub fn compile(f: &Fsmd) -> Tape {
    let mut tape = compile_staged(f);
    lower_commits(&mut tape, f);
    tape
}

/// Compiles every state of `f`, staging every register write for the
/// clock edge. This is the reference that [`compile`]'s lowering is
/// tested against.
pub fn compile_staged(f: &Fsmd) -> Tape {
    let mut c = Compiler::new(f);
    // Intern the whole design once, keeping every state's roots, so the
    // constant pool (and with it the temp-slot base) is final before any
    // tape is emitted.
    for st in &f.states {
        c.intern_state(st);
    }
    c.ret = f.ret.as_ref().map(|rv| c.intern(rv));
    c.temp_base = c.n_regs + c.n_inputs + c.const_init.len() as u32;
    c.max_slots = c.temp_base;
    c.visited = vec![0; c.nodes.len()];

    let mut states: Vec<CState> = (0..f.states.len()).map(|si| c.compile_state(si)).collect();
    // Backend-proved stuck configurations become first-class deadlock
    // transfers so the executor reports them instead of spinning.
    for (k, s) in f.stuck.iter().enumerate() {
        if let Some(st) = states.get_mut(s.state.0 as usize) {
            st.next = CNext::Stuck(k as u32);
        }
    }
    Tape {
        code: c.code,
        states,
        n_slots: c.max_slots as usize,
        n_regs: c.n_regs as usize,
        n_inputs: c.n_inputs as usize,
        const_init: c.const_init,
    }
}

/// Whether every canonical value of `from` is also canonical in `to`.
fn fits(from: IntType, to: IntType) -> bool {
    to.width == 64 || from == to || (from.width < to.width && (to.signed || !from.signed))
}

/// What [`lower_commits`] knows about one slot within the state it is
/// lowering. An entry is valid only while `epoch` names that state.
#[derive(Debug, Clone, Copy)]
struct SlotFacts {
    epoch: u32,
    /// Last position that reads the slot; `u32::MAX` when the transfer
    /// or the return value reads it.
    last_read: u32,
    /// Skip region of the slot's last write.
    region: u32,
    /// The register of the first `StageReg` that reads this temp, when
    /// that `StageReg` sits in the temp's skip region; else `NO_SLOT`.
    feeds: Slot,
    /// Instructions writing a temp, or `StageReg`s of a register.
    writes: u16,
    /// Some `StageReg` reads the slot.
    staged_use: bool,
    /// The temp now lives in register `feeds`.
    coalesced: bool,
    /// A `StageReg` of this register stays staged.
    staged: bool,
    /// A type in which every value written to the slot is canonical.
    ty: Option<IntType>,
}

impl SlotFacts {
    const FRESH: SlotFacts = SlotFacts {
        epoch: 0,
        last_read: 0,
        region: 0,
        feeds: NO_SLOT,
        writes: 0,
        staged_use: false,
        coalesced: false,
        staged: false,
        ty: None,
    };
}

/// The working tables of [`lower_commits`], allocated once per tape.
struct Lowering<'a> {
    f: &'a Fsmd,
    n_regs: u32,
    const_base: u32,
    temp_base: u32,
    const_init: &'a [(Slot, i64)],
    facts: Vec<SlotFacts>,
    epoch: u32,
    /// Open skip regions as `(end, id)`, innermost last.
    open: Vec<(u32, u32)>,
}

impl Lowering<'_> {
    fn fact(&mut self, s: Slot) -> &mut SlotFacts {
        let e = &mut self.facts[s as usize];
        if e.epoch != self.epoch {
            *e = SlotFacts {
                epoch: self.epoch,
                ..SlotFacts::FRESH
            };
        }
        e
    }

    /// A type in which the slot's value is canonical, if one is known.
    fn slot_ty(&self, s: Slot) -> Option<IntType> {
        if s < self.n_regs {
            let r = &self.f.regs[s as usize];
            (r.ty.canonicalize(r.init) == r.init).then_some(r.ty)
        } else if s < self.const_base {
            Some(self.f.inputs[(s - self.n_regs) as usize].1)
        } else if s < self.temp_base {
            None
        } else {
            let e = &self.facts[s as usize];
            e.ty.filter(|_| e.epoch == self.epoch)
        }
    }

    /// Whether the slot's value is canonical in `ty`.
    fn slot_fits(&self, s: Slot, ty: IntType) -> bool {
        if (self.const_base..self.temp_base).contains(&s) {
            let v = self.const_init[(s - self.const_base) as usize].1;
            ty.canonicalize(v) == v
        } else {
            self.slot_ty(s).is_some_and(|t| fits(t, ty))
        }
    }

    /// A type in which both slots' values are canonical, if one is known:
    /// bitwise operations and selections keep that type's canonical form.
    fn join(&self, a: Slot, b: Slot) -> Option<IntType> {
        [a, b]
            .into_iter()
            .filter_map(|s| self.slot_ty(s))
            .find(|&t| self.slot_fits(a, t) && self.slot_fits(b, t))
    }

    /// A type in which the value `inst` writes is canonical, if known.
    fn result_ty(&self, inst: &TInst) -> Option<IntType> {
        match *inst {
            TInst::Bin { op, .. } if op.is_comparison() => Some(IntType::u1()),
            TInst::Un { ty, .. }
            | TInst::Bin { ty, .. }
            | TInst::Add { ty, .. }
            | TInst::Sub { ty, .. }
            | TInst::Mul { ty, .. }
            | TInst::Cast { ty, .. } => Some(ty),
            TInst::CmpEq { .. }
            | TInst::CmpNe { .. }
            | TInst::CmpLtS { .. }
            | TInst::CmpLtU { .. }
            | TInst::CmpLeS { .. }
            | TInst::CmpLeU { .. }
            | TInst::CmpGtS { .. }
            | TInst::CmpGtU { .. }
            | TInst::CmpGeS { .. }
            | TInst::CmpGeU { .. } => Some(IntType::u1()),
            TInst::And { a, b, .. } | TInst::Or { a, b, .. } | TInst::Xor { a, b, .. } => {
                self.join(a, b)
            }
            TInst::Select { t, f, .. } => self.join(t, f),
            TInst::Copy { a, .. } => self.slot_ty(a),
            TInst::MemRead { .. }
            | TInst::SetImm { .. }
            | TInst::SkipIfZero { .. }
            | TInst::Skip { .. }
            | TInst::StageReg { .. }
            | TInst::StageMemWrite { .. } => None,
        }
    }

    /// First pass over one state: reads, writes, types and skip regions.
    fn scan(&mut self, code: &[TInst], st: &CState) {
        self.open.clear();
        let (mut regions, mut pending) = (0u32, None);
        for i in st.tape.0..st.tape.1 {
            while self.open.last().is_some_and(|&(end, _)| end <= i) {
                self.open.pop();
            }
            if let Some(end) = pending.take() {
                if end > i {
                    debug_assert!(
                        self.open.last().is_none_or(|&(outer, _)| end <= outer),
                        "skip regions nest"
                    );
                    regions += 1;
                    self.open.push((end, regions));
                }
            }
            let region = self.open.last().map_or(0, |&(_, id)| id);
            let inst = code[i as usize];
            for s in inst.reads().into_iter().flatten() {
                self.fact(s).last_read = i;
            }
            match inst {
                TInst::StageReg { reg, val, .. } => {
                    let e = self.fact(val);
                    if !e.staged_use {
                        e.staged_use = true;
                        if e.region == region {
                            e.feeds = reg;
                        }
                    }
                    self.fact(reg).writes += 1;
                }
                TInst::SkipIfZero { target, .. } | TInst::Skip { target } => pending = Some(target),
                _ => {
                    if let Some(d) = inst.writes() {
                        let ty = self.result_ty(&inst);
                        let e = self.fact(d);
                        e.writes += 1;
                        e.ty = if e.writes == 1 || e.ty == ty {
                            ty
                        } else {
                            None
                        };
                        e.region = region;
                    }
                }
            }
        }
        let tail = match &st.next {
            CNext::Branch { cond, .. } => Some(*cond),
            CNext::CasesLazy { sel, .. } => Some(*sel),
            CNext::Cases { conds, .. } => {
                for &(c, _) in conds.iter() {
                    self.fact(c).last_read = u32::MAX;
                }
                None
            }
            CNext::Goto(_) | CNext::Done | CNext::Stuck(_) => None,
        };
        for s in tail.into_iter().chain(st.ret) {
            self.fact(s).last_read = u32::MAX;
        }
    }

    /// The register that temp `v`, written at `q`, can be computed into
    /// in place of its `StageReg`: `v` is written once, its first
    /// `StageReg` sits in its skip region, and that register has no
    /// other `StageReg`, is not read after `q` and holds `v`'s values
    /// canonically.
    fn coalesce_into(&self, v: Slot, q: u32) -> Option<u32> {
        let e = &self.facts[v as usize];
        if v < self.temp_base || e.writes != 1 || e.feeds == NO_SLOT {
            return None;
        }
        let r = &self.facts[e.feeds as usize];
        let reg_ty = self.f.regs[e.feeds as usize].ty;
        (r.writes == 1 && r.last_read <= q && e.ty.is_some_and(|t| fits(t, reg_ty)))
            .then_some(e.feeds)
    }

    /// The slot that holds `s`'s value after coalescing.
    fn alias(&self, s: Slot) -> Slot {
        let e = &self.facts[s as usize];
        if e.epoch == self.epoch && e.coalesced {
            e.feeds
        } else {
            s
        }
    }
}

/// Lowers a staged tape: register writes that need no staging commit in
/// place.
///
/// A state's registers all change at the clock edge, so
/// [`compile_staged`] stages every `StageReg` and [`exec_state`]
/// commits them after the transfer is chosen. A `StageReg r <- v`
/// becomes an in-place `Copy` (or a `Cast`, when `v` is not known to be
/// canonical in `r`'s type) when no later instruction of the state reads
/// `r`, neither the transfer nor the return value reads `r`, and no
/// earlier `StageReg` of `r` in the state stays staged. When `v` is a
/// temp written once, in the `StageReg`'s skip region, with `r` unread
/// from there on, its producer computes straight into `r`, `v`'s later
/// reads (transfer and return included) read `r`, and the `StageReg` is
/// deleted. A temp is coalesced into one register at most; a second
/// `StageReg` of it copies from the first register. What is left stays
/// staged: swaps, memory writes and the writes of `Stuck` states.
///
/// `tape` must be as [`compile_staged`] emits it: skips go forward and
/// their regions nest, and a state reads a temp only after writing it.
/// Linear in the tape, with no allocation per state.
fn lower_commits(tape: &mut Tape, f: &Fsmd) {
    let const_base = (tape.n_regs + tape.n_inputs) as u32;
    let mut lw = Lowering {
        f,
        n_regs: tape.n_regs as u32,
        const_base,
        temp_base: const_base + tape.const_init.len() as u32,
        const_init: &tape.const_init,
        facts: vec![SlotFacts::FRESH; tape.n_slots],
        epoch: 0,
        open: Vec::new(),
    };
    // Positions of deleted `StageReg`s, in order.
    let mut deleted: Vec<u32> = Vec::new();
    for st in &mut tape.states {
        if st.tape.0 == st.tape.1 || matches!(st.next, CNext::Stuck(_)) {
            continue;
        }
        lw.epoch += 1;
        lw.scan(&tape.code, st);
        for i in st.tape.0..st.tape.1 {
            let inst = &mut tape.code[i as usize];
            if let TInst::StageReg { reg, ty, val } = *inst {
                let a = lw.alias(val);
                let r = lw.fact(reg);
                if a == reg && a != val {
                    deleted.push(i);
                } else if r.staged || r.last_read > i {
                    r.staged = true;
                    *inst = TInst::StageReg { reg, ty, val: a };
                } else if lw.slot_fits(val, ty) {
                    *inst = TInst::Copy { dst: reg, a };
                } else {
                    *inst = TInst::Cast { ty, dst: reg, a };
                }
                continue;
            }
            for s in inst.reads_mut().into_iter().flatten() {
                *s = lw.alias(*s);
            }
            if let Some(d) = inst.writes_mut() {
                if let Some(r) = lw.coalesce_into(*d, i) {
                    lw.fact(*d).coalesced = true;
                    *d = r;
                }
            }
        }
        match &mut st.next {
            CNext::Branch { cond, .. } => *cond = lw.alias(*cond),
            CNext::Cases { conds, .. } => conds.iter_mut().for_each(|(c, _)| *c = lw.alias(*c)),
            CNext::CasesLazy { sel, .. } => *sel = lw.alias(*sel),
            CNext::Goto(_) | CNext::Done | CNext::Stuck(_) => {}
        }
        st.ret = st.ret.map(|s| lw.alias(s));
    }
    if deleted.is_empty() {
        return;
    }
    // Close the gaps; skip targets and state ranges move with the code.
    let moved = |p: u32| p - deleted.partition_point(|&d| d < p) as u32;
    let mut gone = deleted.iter().peekable();
    let mut w = 0;
    for i in 0..tape.code.len() {
        if gone.next_if_eq(&&(i as u32)).is_some() {
            continue;
        }
        let mut inst = tape.code[i];
        if let TInst::SkipIfZero { target, .. } | TInst::Skip { target } = &mut inst {
            *target = moved(*target);
        }
        tape.code[w] = inst;
        w += 1;
    }
    tape.code.truncate(w);
    for st in &mut tape.states {
        st.tape = (moved(st.tape.0), moved(st.tape.1));
    }
}

/// Runs one state's tape against the slot array, staging updates.
///
/// # Errors
///
/// Returns [`FsmdSimError::OutOfBounds`] when a memory access falls
/// outside its extent.
#[inline(always)]
pub fn run_tape(
    code: &[TInst],
    tape: (u32, u32),
    f: &Fsmd,
    slots: &mut [i64],
    mems: &[Vec<i64>],
    reg_updates: &mut Vec<(u32, i64)>,
    mem_updates: &mut Vec<(u32, i64, i64)>,
) -> Result<(), FsmdSimError> {
    let mut pc = tape.0 as usize;
    let end = tape.1 as usize;
    while pc < end {
        match code[pc] {
            TInst::Un { op, ty, dst, a } => {
                slots[dst as usize] = eval_un(op, ty, slots[a as usize]);
            }
            TInst::Bin { op, ty, dst, a, b } => {
                slots[dst as usize] = eval_bin(op, ty, slots[a as usize], slots[b as usize]);
            }
            TInst::Add { ty, dst, a, b } => {
                slots[dst as usize] =
                    ty.canonicalize(slots[a as usize].wrapping_add(slots[b as usize]));
            }
            TInst::Sub { ty, dst, a, b } => {
                slots[dst as usize] =
                    ty.canonicalize(slots[a as usize].wrapping_sub(slots[b as usize]));
            }
            TInst::Mul { ty, dst, a, b } => {
                slots[dst as usize] =
                    ty.canonicalize(slots[a as usize].wrapping_mul(slots[b as usize]));
            }
            TInst::And { dst, a, b } => {
                slots[dst as usize] = slots[a as usize] & slots[b as usize];
            }
            TInst::Or { dst, a, b } => {
                slots[dst as usize] = slots[a as usize] | slots[b as usize];
            }
            TInst::Xor { dst, a, b } => {
                slots[dst as usize] = slots[a as usize] ^ slots[b as usize];
            }
            TInst::CmpEq { dst, a, b } => {
                slots[dst as usize] = (slots[a as usize] == slots[b as usize]) as i64;
            }
            TInst::CmpNe { dst, a, b } => {
                slots[dst as usize] = (slots[a as usize] != slots[b as usize]) as i64;
            }
            TInst::CmpLtS { dst, a, b } => {
                slots[dst as usize] = (slots[a as usize] < slots[b as usize]) as i64;
            }
            TInst::CmpLtU { dst, a, b } => {
                slots[dst as usize] =
                    ((slots[a as usize] as u64) < (slots[b as usize] as u64)) as i64;
            }
            TInst::CmpLeS { dst, a, b } => {
                slots[dst as usize] = (slots[a as usize] <= slots[b as usize]) as i64;
            }
            TInst::CmpLeU { dst, a, b } => {
                slots[dst as usize] =
                    ((slots[a as usize] as u64) <= (slots[b as usize] as u64)) as i64;
            }
            TInst::CmpGtS { dst, a, b } => {
                slots[dst as usize] = (slots[a as usize] > slots[b as usize]) as i64;
            }
            TInst::CmpGtU { dst, a, b } => {
                slots[dst as usize] =
                    ((slots[a as usize] as u64) > (slots[b as usize] as u64)) as i64;
            }
            TInst::CmpGeS { dst, a, b } => {
                slots[dst as usize] = (slots[a as usize] >= slots[b as usize]) as i64;
            }
            TInst::CmpGeU { dst, a, b } => {
                slots[dst as usize] =
                    ((slots[a as usize] as u64) >= (slots[b as usize] as u64)) as i64;
            }
            TInst::Cast { ty, dst, a } => {
                slots[dst as usize] = ty.canonicalize(slots[a as usize]);
            }
            TInst::Select { dst, cond, t, f } => {
                slots[dst as usize] = if slots[cond as usize] != 0 {
                    slots[t as usize]
                } else {
                    slots[f as usize]
                };
            }
            TInst::MemRead { mem, dst, addr } => {
                let a = slots[addr as usize];
                let storage = &mems[mem as usize];
                if a < 0 || a as usize >= storage.len() {
                    return Err(FsmdSimError::out_of_bounds(
                        f,
                        mem as usize,
                        a,
                        storage.len(),
                    ));
                }
                slots[dst as usize] = storage[a as usize];
            }
            TInst::Copy { dst, a } => slots[dst as usize] = slots[a as usize],
            TInst::SetImm { dst, val } => slots[dst as usize] = val,
            TInst::SkipIfZero { cond, target } => {
                if slots[cond as usize] == 0 {
                    pc = target as usize;
                    continue;
                }
            }
            TInst::Skip { target } => {
                pc = target as usize;
                continue;
            }
            TInst::StageReg { reg, ty, val } => {
                reg_updates.push((reg, ty.canonicalize(slots[val as usize])));
            }
            TInst::StageMemWrite {
                mem,
                elem,
                addr,
                val,
            } => {
                let a = slots[addr as usize];
                let mi = mem as usize;
                if a < 0 || a as usize >= mems[mi].len() {
                    return Err(FsmdSimError::out_of_bounds(f, mi, a, mems[mi].len()));
                }
                mem_updates.push((mem, a, elem.canonicalize(slots[val as usize])));
            }
        }
        pc += 1;
    }
    Ok(())
}

/// Outcome of executing one state to completion (tape + transfer +
/// simultaneous commit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Step {
    /// Transfer to the given state next cycle.
    Next(u32),
    /// The FSMD finished; the sampled (pre-commit) return value.
    Done(Option<i64>),
}

/// Executes one state exactly as the interpreting simulator does: run
/// the tape, pick the transfer from pre-commit values, sample the return
/// value (pre-commit) in `Done` states, then commit all staged register
/// and memory updates simultaneously.
///
/// `reg_updates`/`mem_updates` are caller-provided scratch so the hot
/// loop stays allocation-free; they are cleared on entry.
///
/// Forced inline: the interpreter's per-cycle loop
/// ([`crate::fsmd_sim::simulate`]) then pays no call, and moves no
/// `Result`, per cycle. The JIT calls it for single states, on its
/// fallback path.
///
/// # Errors
///
/// Returns [`FsmdSimError::OutOfBounds`] when a memory access falls
/// outside its extent, and [`FsmdSimError::Deadlock`] (stamped cycle 0;
/// see [`FsmdSimError::at_cycle`]) on entering a stuck state.
#[inline(always)]
pub fn exec_state(
    tape: &Tape,
    f: &Fsmd,
    state: u32,
    slots: &mut [i64],
    mems: &mut [Vec<i64>],
    reg_updates: &mut Vec<(u32, i64)>,
    mem_updates: &mut Vec<(u32, i64, i64)>,
) -> Result<Step, FsmdSimError> {
    let st = &tape.states[state as usize];

    // Fast path: a pure control state evaluates no datapath at all.
    if st.tape.0 == st.tape.1 {
        if let CNext::Goto(t) = st.next {
            return Ok(Step::Next(t));
        }
    }

    // Evaluate everything against the current state.
    reg_updates.clear();
    mem_updates.clear();
    run_tape(
        &tape.code,
        st.tape,
        f,
        slots,
        mems,
        reg_updates,
        mem_updates,
    )?;
    let next = match &st.next {
        CNext::Goto(t) => Some(*t),
        CNext::Branch { cond, then, els } => Some(if slots[*cond as usize] != 0 {
            *then
        } else {
            *els
        }),
        CNext::Cases { conds, default } => {
            let mut target = *default;
            for &(c, t) in conds.iter() {
                if slots[c as usize] != 0 {
                    target = t;
                    break;
                }
            }
            Some(target)
        }
        CNext::CasesLazy {
            sel,
            targets,
            default,
        } => {
            let k = slots[*sel as usize];
            Some(if k >= 0 {
                targets[k as usize]
            } else {
                *default
            })
        }
        CNext::Done => None,
        CNext::Stuck(k) => {
            return Err(FsmdSimError::Deadlock {
                cycle: 0,
                blocked: f.stuck[*k as usize].blocked.clone(),
            })
        }
    };
    // The return value samples pre-commit state (its slot was filled
    // by this cycle's tape).
    let ret = if next.is_none() {
        st.ret.map(|s| slots[s as usize])
    } else {
        None
    };

    // Commit simultaneously (registers live at the base of `slots`).
    for &(r, v) in reg_updates.iter() {
        slots[r as usize] = v;
    }
    for &(m, a, v) in mem_updates.iter() {
        mems[m as usize][a as usize] = v;
    }

    Ok(match next {
        Some(t) => Step::Next(t),
        None => Step::Done(ret),
    })
}

/// Binds scalar arguments to the FSMD's inputs (canonicalized to each
/// input's type), in input order.
///
/// # Errors
///
/// Returns [`FsmdSimError::BadArgument`] for a missing or mistyped
/// argument.
pub fn bind_inputs(f: &Fsmd, args: &[ArgValue]) -> Result<Vec<i64>, FsmdSimError> {
    let mut inputs = vec![0i64; f.inputs.len()];
    for (i, (_, ty)) in f.inputs.iter().enumerate() {
        let p = f.input_params[i];
        match args.get(p) {
            Some(ArgValue::Scalar(v)) => inputs[i] = ty.canonicalize(*v),
            _ => return Err(FsmdSimError::BadArgument(p)),
        }
    }
    Ok(inputs)
}

/// Builds the initial contents of every memory: ROM contents, a bound
/// array argument (canonicalized to the element type), or zeros.
///
/// # Errors
///
/// Returns [`FsmdSimError::BadArgument`] for a missing or mistyped
/// array argument.
pub fn bind_mems(f: &Fsmd, args: &[ArgValue]) -> Result<Vec<Vec<i64>>, FsmdSimError> {
    let mut mems: Vec<Vec<i64>> = Vec::with_capacity(f.mems.len());
    for m in &f.mems {
        let contents = if let Some(rom) = &m.rom {
            let mut v = rom.clone();
            v.resize(m.len, 0);
            v
        } else if let Some(p) = m.param_index {
            match args.get(p) {
                Some(ArgValue::Array(a)) => {
                    let mut v = a.clone();
                    v.resize(m.len, 0);
                    v.iter_mut().for_each(|x| *x = m.elem.canonicalize(*x));
                    v
                }
                _ => return Err(FsmdSimError::BadArgument(p)),
            }
        } else {
            vec![0; m.len]
        };
        mems.push(contents);
    }
    Ok(mems)
}

/// Builds the initial slot array for a run: register init values, bound
/// inputs, and the constant pool, with temps zeroed. `extra_slots`
/// appends zero-initialized scratch past the tape's own slots (the JIT
/// uses this for its staging shadows).
pub fn init_slots(tape: &Tape, f: &Fsmd, inputs: &[i64], extra_slots: usize) -> Vec<i64> {
    let mut slots = vec![0i64; tape.n_slots + extra_slots];
    for (i, r) in f.regs.iter().enumerate() {
        slots[i] = r.init;
    }
    for (i, v) in inputs.iter().enumerate() {
        slots[f.regs.len() + i] = *v;
    }
    for &(s, v) in &tape.const_init {
        slots[s as usize] = v;
    }
    slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsmd_sim::{run, simulate, FsmdSimResult};
    use chls_rtl::builder::FsmdBuilder;
    use chls_rtl::fsmd::StateId;

    #[test]
    fn node_keys_are_equal_exactly_when_nodes_are() {
        let (s32, u32t, s64) = (
            IntType::new(32, true),
            IntType::new(32, false),
            IntType::new(64, true),
        );
        let nodes = [
            (NodeKind::Const(-1), s64),
            (NodeKind::Const(-1), s32),
            (NodeKind::Const(7), s32),
            (NodeKind::Reg(7), s32),
            (NodeKind::Reg(7), u32t),
            (NodeKind::Input(7), s32),
            (NodeKind::Un(UnKind::Neg, 7), s32),
            (NodeKind::Un(UnKind::Not, 7), s32),
            (NodeKind::Cast(7), s32),
            (NodeKind::Bin(BinKind::Add, 1, 2), s32),
            (NodeKind::Bin(BinKind::Add, 2, 1), s32),
            (NodeKind::Bin(BinKind::Ge, 1, 2), s32),
            (NodeKind::Mux(1, 2, 3), s32),
            (NodeKind::Mux(1, 2, u32::MAX), s32),
            (NodeKind::MemRead(1, 2), s32),
            (NodeKind::MemRead(u32::MAX, u32::MAX), s64),
        ];
        for (i, &(ka, ta)) in nodes.iter().enumerate() {
            for (j, &(kb, tb)) in nodes.iter().enumerate() {
                assert_eq!(
                    NodeKey::new(ka, ta) == NodeKey::new(kb, tb),
                    i == j,
                    "{ka:?}: {ta:?} against {kb:?}: {tb:?}"
                );
            }
        }
    }

    fn ty32() -> IntType {
        IntType::new(32, true)
    }

    /// One state's instructions in the lowered tape.
    fn state_code(t: &Tape, s: StateId) -> &[TInst] {
        let (a, b) = t.states[s.0 as usize].tape;
        &t.code[a as usize..b as usize]
    }

    fn staged_regs(code: &[TInst]) -> Vec<u32> {
        code.iter()
            .filter_map(|i| match i {
                TInst::StageReg { reg, .. } => Some(*reg),
                _ => None,
            })
            .collect()
    }

    /// The lowered simulation agrees with the staged tape, bit for bit.
    fn agree(f: &Fsmd, args: &[ArgValue]) -> Result<FsmdSimResult, FsmdSimError> {
        let lowered = simulate(f, args, 1000);
        assert_eq!(
            lowered,
            run(f, &compile_staged(f), args, 1000),
            "lowering changed the result"
        );
        lowered
    }

    #[test]
    fn swap_keeps_the_write_whose_register_is_read_later_staged() {
        let mut b = FsmdBuilder::new("swap");
        let x = b.reg("x", ty32(), 3);
        let y = b.reg("y", ty32(), 4);
        let (s0, s1) = (b.state(), b.state());
        let (gx, gy) = (b.get(x), b.get(y));
        b.at(s0).set(x, gy).set(y, gx).goto(s1);
        b.at(s1).done();
        let f = b.finish();
        // `y <- x` reads x after `x <- y`, so x's write stays staged;
        // nothing reads y afterwards, so y's commits in place.
        let t = compile(&f);
        assert_eq!(staged_regs(state_code(&t, s0)), vec![x.0]);
        assert_eq!(agree(&f, &[]).unwrap().regs, vec![4, 3]);
    }

    #[test]
    fn a_guarded_write_of_a_preamble_value_is_not_coalesced() {
        let mut b = FsmdBuilder::new("guarded");
        let en = b.input("en", IntType::u1(), 0);
        let r = b.reg("r", ty32(), 5);
        let (s0, s1) = (b.state(), b.state());
        let next = b.add(b.get(r), Rv::konst(1, ty32()));
        b.at(s0).set_if(en, r, next).goto(s1);
        b.at(s1).done();
        let result = b.get(r);
        let f = b.returning(result).finish();
        // The add runs in the preamble whatever the guard says, so it
        // must not compute into r; the guarded copy commits instead.
        let t = compile(&f);
        let code = state_code(&t, s0);
        assert!(
            matches!(code[0], TInst::Add { dst, .. } if dst != r.0),
            "{code:?}"
        );
        assert!(matches!(code[1], TInst::SkipIfZero { .. }), "{code:?}");
        assert!(
            matches!(code[2], TInst::Copy { dst, .. } if dst == r.0),
            "{code:?}"
        );
        let off = agree(&f, &[ArgValue::Scalar(0)]).unwrap();
        assert_eq!((off.ret, off.regs), (Some(5), vec![5]));
        let on = agree(&f, &[ArgValue::Scalar(1)]).unwrap();
        assert_eq!((on.ret, on.regs), (Some(6), vec![6]));
    }

    #[test]
    fn the_branch_condition_samples_the_register_before_commit() {
        let mut b = FsmdBuilder::new("branch");
        let r = b.reg("r", ty32(), 0);
        let out = b.reg("out", ty32(), 0);
        let [s0, then, els, done] = [b.state(), b.state(), b.state(), b.state()];
        let inc = b.add(b.get(r), Rv::konst(1, ty32()));
        let cond = b.get(r);
        b.at(s0).set(r, inc).branch(cond, then, els);
        b.at(then).set(out, Rv::konst(1, ty32())).goto(done);
        b.at(els).set(out, Rv::konst(2, ty32())).goto(done);
        b.at(done).done();
        let result = b.get(out);
        let f = b.returning(result).finish();
        assert_eq!(staged_regs(state_code(&compile(&f), s0)), vec![r.0]);
        // r was 0 when the branch was taken, so the else arm ran.
        assert_eq!(agree(&f, &[]).unwrap().ret, Some(2));
    }

    #[test]
    fn the_return_value_samples_the_register_before_commit() {
        let mut b = FsmdBuilder::new("ret");
        let r = b.reg("r", ty32(), 3);
        let s0 = b.state();
        b.at(s0).set(r, Rv::konst(7, ty32())).done();
        let result = b.get(r);
        let f = b.returning(result).finish();
        assert_eq!(staged_regs(state_code(&compile(&f), s0)), vec![r.0]);
        let out = agree(&f, &[]).unwrap();
        assert_eq!((out.ret, out.regs), (Some(3), vec![7]));
    }

    #[test]
    fn of_two_writes_of_one_register_the_later_wins() {
        // Both in place: nothing reads r after the first write.
        let mut b = FsmdBuilder::new("twice");
        let r = b.reg("r", ty32(), 1);
        let (s0, s1) = (b.state(), b.state());
        let plus1 = b.add(b.get(r), Rv::konst(1, ty32()));
        let plus10 = b.add(b.get(r), Rv::konst(10, ty32()));
        b.at(s0).set(r, plus1).set(r, plus10).goto(s1);
        b.at(s1).done();
        let f = b.finish();
        assert!(staged_regs(state_code(&compile(&f), s0)).is_empty());
        assert_eq!(agree(&f, &[]).unwrap().regs, vec![11]);

        // A lazy read between the writes keeps the first staged, and
        // then the second too, so the commit order still decides.
        let mut b = FsmdBuilder::new("twice_staged");
        let mem = b.rom("tab", ty32(), vec![10, 20, 30]);
        let r = b.reg("r", ty32(), 1);
        let q = b.reg("q", ty32(), 0);
        let (s0, s1) = (b.state(), b.state());
        let rd = b.read(mem, b.get(r));
        b.at(s0)
            .set(r, Rv::konst(2, ty32()))
            .set(q, rd)
            .set(r, Rv::konst(0, ty32()))
            .goto(s1);
        b.at(s1).done();
        let f = b.finish();
        assert_eq!(staged_regs(state_code(&compile(&f), s0)), vec![r.0, r.0]);
        assert_eq!(agree(&f, &[]).unwrap().regs, vec![0, 20]);
    }

    #[test]
    fn an_out_of_bounds_read_after_an_in_place_write_reports_the_same_error() {
        let mut b = FsmdBuilder::new("oob");
        let mem = b.mem("buf", ty32(), 4);
        let r = b.reg("r", ty32(), 0);
        let at = b.reg("at", ty32(), 9);
        let q = b.reg("q", ty32(), 0);
        let s0 = b.state();
        let inc = b.add(b.get(r), Rv::konst(1, ty32()));
        let next = b.add(b.get(at), Rv::konst(1, ty32()));
        let rd = b.read(mem, b.get(at));
        b.at(s0).set(r, inc).set(at, next).set(q, rd).done();
        let f = b.finish();
        // r commits in place before the read; `at` stays staged, since
        // the read's address is `at` itself.
        let t = compile(&f);
        let code = state_code(&t, s0);
        let write = code.iter().position(|i| i.writes() == Some(r.0));
        let read = code.iter().position(|i| matches!(i, TInst::MemRead { .. }));
        assert!(
            matches!((write, read), (Some(w), Some(rd)) if w < rd),
            "r is not written in place first: {code:?}"
        );
        assert_eq!(staged_regs(code), vec![at.0]);
        assert_eq!(
            agree(&f, &[]).unwrap_err(),
            FsmdSimError::OutOfBounds {
                mem: "buf".into(),
                addr: 9,
                len: 4
            }
        );
    }

    #[test]
    fn a_value_wider_than_its_register_is_cast_in_place() {
        let mut b = FsmdBuilder::new("narrow");
        let x = b.input("x", ty32(), 0);
        let r = b.reg("r", IntType::new(8, false), 0);
        let s0 = b.state();
        let v = b.add(x, Rv::konst(1, ty32()));
        b.at(s0).set(r, v).done();
        let f = b.finish();
        let t = compile(&f);
        assert!(
            matches!(state_code(&t, s0), [TInst::Add { .. }, TInst::Cast { dst, .. }] if *dst == r.0),
            "{:?}",
            state_code(&t, s0)
        );
        assert_eq!(agree(&f, &[ArgValue::Scalar(255)]).unwrap().regs, vec![0]);
    }

    #[test]
    fn a_temp_that_feeds_two_registers_is_coalesced_into_the_first() {
        let mut b = FsmdBuilder::new("fanout");
        let x = b.input("x", ty32(), 0);
        let r1 = b.reg("r1", ty32(), 0);
        let r2 = b.reg("r2", ty32(), 0);
        let (s0, s1) = (b.state(), b.state());
        let v = b.add(x, Rv::konst(3, ty32()));
        b.at(s0).set(r1, v.clone()).set(r2, v).goto(s1);
        b.at(s1).done();
        let f = b.finish();
        let t = compile(&f);
        let code = state_code(&t, s0);
        assert!(
            matches!(code, [TInst::Add { dst, .. }, TInst::Copy { dst: d2, a }]
                if *dst == r1.0 && *d2 == r2.0 && *a == r1.0),
            "{code:?}"
        );
        assert_eq!(agree(&f, &[ArgValue::Scalar(4)]).unwrap().regs, vec![7, 7]);
    }

    /// A seeded generator of random designs.
    struct Gen {
        x: u64,
        /// What an expression may read: registers, the input, a constant.
        leaves: Vec<Rv>,
        /// The RAM and the ROM, with their element types.
        mems: Vec<(chls_rtl::fsmd::MemId, IntType)>,
    }

    impl Gen {
        fn below(&mut self, n: u64) -> u64 {
            self.x = self
                .x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (self.x >> 33) % n
        }

        fn ty(&mut self) -> IntType {
            let (w, s) =
                [(32, true), (8, false), (8, true), (1, false), (64, true)][self.below(5) as usize];
            IntType::new(w, s)
        }

        /// `addr & mask`, mostly inside a four-word memory.
        fn addr(&mut self, a: Rv) -> Rv {
            let mask = if self.below(8) == 0 { 7 } else { 3 };
            let u32t = IntType::new(32, false);
            Rv::bin(BinKind::And, u32t, a, Rv::konst(mask, u32t))
        }

        fn expr(&mut self, depth: u32) -> Rv {
            if depth == 0 || self.below(3) == 0 {
                let k = self.below(self.leaves.len() as u64) as usize;
                return self.leaves[k].clone();
            }
            let d = depth - 1;
            let kind = match self.below(6) {
                0 | 1 => {
                    let op = [
                        BinKind::Add,
                        BinKind::Mul,
                        BinKind::Xor,
                        BinKind::Lt,
                        BinKind::Shr,
                    ][self.below(5) as usize];
                    RvKind::Bin(op, Box::new(self.expr(d)), Box::new(self.expr(d)))
                }
                2 => RvKind::Mux(
                    Box::new(self.expr(d)),
                    Box::new(self.expr(d)),
                    Box::new(self.expr(d)),
                ),
                3 => RvKind::Cast(Box::new(self.expr(d))),
                4 => RvKind::Un(UnKind::Neg, Box::new(self.expr(d))),
                _ => {
                    let k = self.below(2) as usize;
                    let (mem, elem) = self.mems[k];
                    let addr = self.expr(d);
                    let addr = Box::new(self.addr(addr));
                    return Rv {
                        kind: RvKind::MemRead { mem, addr },
                        ty: elem,
                    };
                }
            };
            let ty = match kind {
                RvKind::Bin(op, ..) if op.is_comparison() => IntType::u1(),
                _ => self.ty(),
            };
            Rv { kind, ty }
        }
    }

    /// A random design: registers of mixed types (some starting outside
    /// their type), an input, a RAM and a ROM, and states of guarded and
    /// unguarded register and memory writes and branches.
    fn random_design(seed: u64) -> (Fsmd, Vec<ArgValue>) {
        let mut g = Gen {
            x: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
            leaves: Vec::new(),
            mems: Vec::new(),
        };
        let mut b = FsmdBuilder::new("random");
        let in_ty = g.ty();
        g.leaves.push(b.input("x", in_ty, 0));
        g.leaves.push(Rv::konst(5, ty32()));
        let mut regs = Vec::new();
        for k in 0..2 + g.below(4) {
            let ty = g.ty();
            let init = g.below(600) as i64 - 300;
            let init = if g.below(4) == 0 {
                init
            } else {
                ty.canonicalize(init)
            };
            let r = b.reg(format!("r{k}"), ty, init);
            regs.push(r);
            g.leaves.push(Rv::reg(r, ty));
        }
        let ram = b.mem("ram", ty32(), 4);
        g.mems = vec![
            (ram, ty32()),
            (
                b.rom("rom", IntType::new(8, false), vec![1, 2, 300, 4]),
                IntType::new(8, false),
            ),
        ];
        let states: Vec<_> = (0..2 + g.below(3)).map(|_| b.state()).collect();
        for &s in &states {
            let mut edit = b.at(s);
            for _ in 0..1 + g.below(4) {
                let reg = regs[g.below(regs.len() as u64) as usize];
                edit = match g.below(4) {
                    0 => edit.set_if(g.expr(2), reg, g.expr(3)),
                    1 => {
                        let addr = g.expr(2);
                        edit.write(ram, g.addr(addr), g.expr(2))
                    }
                    _ => edit.set(reg, g.expr(3)),
                };
            }
            let target = states[g.below(states.len() as u64) as usize];
            edit.branch(g.expr(2), target, states[0]);
        }
        let ret = g.leaves[2].clone();
        let args = vec![ArgValue::Scalar(g.below(40) as i64 - 20)];
        (b.returning(ret).finish(), args)
    }

    /// The lowered tape and the staged one, stepped side by side through
    /// `exec_state`, agree on every step's outcome, and after each step
    /// that succeeds, on the registers and memories. (A failed step
    /// ends the run with its error alone, so what an in-place write
    /// left behind is not observable.)
    #[test]
    fn lowering_agrees_with_the_staged_tape_on_random_designs() {
        for seed in 0..3000 {
            let (f, args) = random_design(seed);
            let tapes = [compile_staged(&f), compile(&f)];
            let inputs = bind_inputs(&f, &args).unwrap();
            let mut runs: Vec<_> = tapes
                .iter()
                .map(|t| (init_slots(t, &f, &inputs, 0), bind_mems(&f, &args).unwrap()))
                .collect();
            let (mut ru, mut mu) = (Vec::new(), Vec::new());
            let mut state = f.entry.0;
            for cycle in 0..40 {
                let mut steps = tapes.iter().zip(&mut runs).map(|(t, (slots, mems))| {
                    exec_state(t, &f, state, slots, mems, &mut ru, &mut mu)
                });
                let (staged, lowered) = (steps.next().unwrap(), steps.next().unwrap());
                assert_eq!(staged, lowered, "seed {seed}, cycle {cycle}");
                let Ok(step) = staged else { break };
                let [(a, ma), (b, mb)] = &runs[..] else {
                    unreachable!("two runs")
                };
                assert_eq!(
                    (&a[..f.regs.len()], ma),
                    (&b[..f.regs.len()], mb),
                    "seed {seed}, cycle {cycle}"
                );
                match step {
                    Step::Next(t) => state = t,
                    Step::Done(_) => break,
                }
            }
        }
    }
}

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
//! Consumers that execute tapes by other means (the JIT) must preserve
//! these semantics exactly; [`run_tape`] and [`exec_state`] are the
//! reference executors, and every arithmetic corner case defers to
//! [`eval_bin`]/[`eval_un`] so the definitions cannot drift.

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
    interned: FastMap<(NodeKind, IntType), u32>,
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
        Compiler {
            f,
            nodes: Vec::new(),
            effectful: Vec::new(),
            slot: Vec::new(),
            interned: FastMap::default(),
            consts: FastMap::default(),
            const_init: Vec::new(),
            actions: Vec::new(),
            conds: Vec::new(),
            roots: Vec::with_capacity(f.states.len()),
            ret: None,
            code: Vec::new(),
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
        match self.interned.entry((kind, rv.ty)) {
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
                self.code.push(TInst::SkipIfZero { cond: sc, target: 0 });
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
                self.code.push(TInst::SkipIfZero { cond: gs, target: 0 });
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
                        self.code.push(TInst::SkipIfZero { cond: cs, target: 0 });
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

/// Compiles every state of `f`.
pub fn compile(f: &Fsmd) -> Tape {
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
                    return Err(FsmdSimError::OutOfBounds {
                        mem: f.mems[mem as usize].name.clone(),
                        addr: a,
                        len: storage.len(),
                    });
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
                    return Err(FsmdSimError::OutOfBounds {
                        mem: f.mems[mi].name.clone(),
                        addr: a,
                        len: mems[mi].len(),
                    });
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
/// fallback and trap-replay paths.
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

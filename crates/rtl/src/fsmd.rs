//! FSMD: finite-state machine with datapath.
//!
//! The common hardware form emitted by the clocked synthesis backends
//! (Transmogrifier C, Handel-C, HardwareC, C2Verilog): a state machine
//! where each state evaluates datapath expressions ([`Rv`]) from the
//! *current* register/memory contents and commits all its [`Action`]s
//! simultaneously at the clock edge. One state = one clock cycle.
//!
//! The simultaneous-commit semantics matter: Handel-C's
//! `par { a = b; b = a; }` genuinely swaps, because both right-hand sides
//! are sampled before either register updates.
//!
//! Area model: within one state every operation needs its own functional
//! unit, but units are shared *across* states (classic datapath binding),
//! so the area charged for each (op class, width) pair is the maximum
//! number of simultaneous uses over all states.

use crate::cost::{CostModel, OpClass};
use crate::netlist::bin_class;
use chls_frontend::IntType;
use chls_ir::{BinKind, UnKind};
use std::collections::HashMap;
use std::fmt;

/// Index of a datapath register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegId(pub u32);

/// Index of a memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemId(pub u32);

/// Index of a state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct StateId(pub u32);

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Display for RegId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for MemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mem{}", self.0)
    }
}

/// A datapath register.
#[derive(Debug, Clone, PartialEq)]
pub struct RegInfo {
    /// Name (for Verilog and debugging).
    pub name: String,
    /// Width/signedness.
    pub ty: IntType,
    /// Reset value.
    pub init: i64,
}

/// A memory attached to the datapath.
#[derive(Debug, Clone, PartialEq)]
pub struct FsmdMem {
    /// Name.
    pub name: String,
    /// Element type.
    pub elem: IntType,
    /// Word count.
    pub len: usize,
    /// Constant contents for ROMs.
    pub rom: Option<Vec<i64>>,
    /// Bound to the caller's argument at this parameter index, if any.
    pub param_index: Option<usize>,
}

/// A datapath expression, evaluated combinationally within one state.
#[derive(Debug, Clone, PartialEq)]
pub struct Rv {
    /// Node.
    pub kind: RvKind,
    /// Result type (`u1` for comparisons).
    pub ty: IntType,
}

/// Datapath expression nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum RvKind {
    /// Constant.
    Const(i64),
    /// Current value of a register.
    Reg(RegId),
    /// A primary input (stable for the whole run).
    Input(usize),
    /// Unary operation.
    Un(UnKind, Box<Rv>),
    /// Binary operation.
    Bin(BinKind, Box<Rv>, Box<Rv>),
    /// `sel ? a : b`.
    Mux(Box<Rv>, Box<Rv>, Box<Rv>),
    /// Width conversion.
    Cast(Box<Rv>),
    /// Combinational memory read.
    MemRead {
        /// Which memory.
        mem: MemId,
        /// Element address.
        addr: Box<Rv>,
    },
}

impl Rv {
    /// Constant of a type.
    pub fn konst(v: i64, ty: IntType) -> Rv {
        Rv {
            kind: RvKind::Const(ty.canonicalize(v)),
            ty,
        }
    }

    /// Register read.
    pub fn reg(r: RegId, ty: IntType) -> Rv {
        Rv {
            kind: RvKind::Reg(r),
            ty,
        }
    }

    /// Binary operation with explicit result type.
    pub fn bin(op: BinKind, ty: IntType, a: Rv, b: Rv) -> Rv {
        Rv {
            kind: RvKind::Bin(op, Box::new(a), Box::new(b)),
            ty,
        }
    }

    /// Visits every node in the tree.
    pub fn for_each_node(&self, f: &mut impl FnMut(&Rv)) {
        f(self);
        match &self.kind {
            RvKind::Const(_) | RvKind::Reg(_) | RvKind::Input(_) => {}
            RvKind::Un(_, a) | RvKind::Cast(a) => a.for_each_node(f),
            RvKind::Bin(_, a, b) => {
                a.for_each_node(f);
                b.for_each_node(f);
            }
            RvKind::Mux(s, a, b) => {
                s.for_each_node(f);
                a.for_each_node(f);
                b.for_each_node(f);
            }
            RvKind::MemRead { addr, .. } => addr.for_each_node(f),
        }
    }

    /// Cost class of the root node, if it represents real hardware.
    fn op_class(&self) -> Option<(OpClass, u16)> {
        match &self.kind {
            RvKind::Const(_) | RvKind::Reg(_) | RvKind::Input(_) | RvKind::Cast(_) => None,
            RvKind::Un(UnKind::Neg, a) => Some((OpClass::AddSub, a.ty.width)),
            RvKind::Un(UnKind::Not, a) => Some((OpClass::Logic, a.ty.width)),
            RvKind::Bin(op, a, _) => Some((bin_class(*op), a.ty.width.max(self.ty.width))),
            RvKind::Mux(..) => Some((OpClass::Mux, self.ty.width)),
            RvKind::MemRead { .. } => None, // charged per memory port
        }
    }
}

/// An effect committed at the end of a state's cycle, optionally guarded
/// by a 1-bit datapath condition (a synthesized clock-enable).
#[derive(Debug, Clone, PartialEq)]
pub struct Action {
    /// Commit only when this evaluates to 1 (always, when `None`).
    pub guard: Option<Rv>,
    /// The effect.
    pub kind: ActionKind,
}

impl Action {
    /// An unguarded register transfer.
    pub fn set(reg: RegId, value: Rv) -> Self {
        Action {
            guard: None,
            kind: ActionKind::SetReg(reg, value),
        }
    }

    /// A guarded register transfer.
    pub fn set_if(guard: Rv, reg: RegId, value: Rv) -> Self {
        Action {
            guard: Some(guard),
            kind: ActionKind::SetReg(reg, value),
        }
    }

    /// An unguarded memory write.
    pub fn write(mem: MemId, addr: Rv, value: Rv) -> Self {
        Action {
            guard: None,
            kind: ActionKind::MemWrite { mem, addr, value },
        }
    }

    /// A guarded memory write.
    pub fn write_if(guard: Rv, mem: MemId, addr: Rv, value: Rv) -> Self {
        Action {
            guard: Some(guard),
            kind: ActionKind::MemWrite { mem, addr, value },
        }
    }
}

/// The effect of an [`Action`].
#[derive(Debug, Clone, PartialEq)]
pub enum ActionKind {
    /// `reg <= value`.
    SetReg(RegId, Rv),
    /// `mem[addr] <= value`.
    MemWrite {
        /// Which memory.
        mem: MemId,
        /// Element address.
        addr: Rv,
        /// Stored value.
        value: Rv,
    },
}

/// Control transfer out of a state.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum NextState {
    /// Unconditional.
    Goto(StateId),
    /// Two-way branch on a 1-bit datapath value.
    Branch {
        /// Condition.
        cond: Rv,
        /// Target when 1.
        then: StateId,
        /// Target when 0.
        els: StateId,
    },
    /// Priority-ordered multi-way dispatch: the first case whose condition
    /// is 1 wins; otherwise `default`.
    Cases {
        /// (condition, target) pairs in priority order.
        cases: Vec<(Rv, StateId)>,
        /// Fallback target.
        default: StateId,
    },
    /// Execution complete; the return value (if any) is sampled.
    #[default]
    Done,
}

/// One state.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct State {
    /// Register transfers and memory writes this state performs.
    pub actions: Vec<Action>,
    /// Where to go next.
    pub next: NextState,
}

/// Direction of a blocked channel endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChanDir {
    /// The process is blocked trying to send.
    Send,
    /// The process is blocked trying to receive.
    Recv,
}

impl std::fmt::Display for ChanDir {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChanDir::Send => write!(f, "send"),
            ChanDir::Recv => write!(f, "recv"),
        }
    }
}

/// One process blocked on one channel endpoint in a stuck configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedOp {
    /// Human-readable process label (e.g. `arm 0`).
    pub process: String,
    /// Channel name from the source program.
    pub channel: String,
    /// Which endpoint the process is blocked on.
    pub dir: ChanDir,
}

/// A statically identified stuck configuration: a state in which every
/// live process is blocked on an unmatched rendezvous, so the machine
/// can never make progress again. Backends that build a product FSM
/// over concurrent processes (handelc) record these so the simulators
/// can report a first-class deadlock instead of spinning to the cycle
/// limit.
#[derive(Debug, Clone, PartialEq)]
pub struct StuckState {
    /// The deadlocked state.
    pub state: StateId,
    /// Every blocked (process, channel, direction) triple.
    pub blocked: Vec<BlockedOp>,
}

/// A complete FSMD design.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Fsmd {
    /// Module name.
    pub name: String,
    /// Scalar inputs (name, type), stable for a whole run.
    pub inputs: Vec<(String, IntType)>,
    /// Parameter index of each input, for binding arguments.
    pub input_params: Vec<usize>,
    /// Datapath registers.
    pub regs: Vec<RegInfo>,
    /// Memories.
    pub mems: Vec<FsmdMem>,
    /// States.
    pub states: Vec<State>,
    /// Start state.
    pub entry: StateId,
    /// Value sampled when the machine reaches [`NextState::Done`].
    pub ret: Option<Rv>,
    /// Statically identified deadlocked configurations (see
    /// [`StuckState`]). Empty for designs without concurrency.
    pub stuck: Vec<StuckState>,
}

impl Fsmd {
    /// Creates an empty design.
    pub fn new(name: impl Into<String>) -> Self {
        Fsmd {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Adds a register.
    pub fn add_reg(&mut self, name: impl Into<String>, ty: IntType, init: i64) -> RegId {
        let id = RegId(self.regs.len() as u32);
        self.regs.push(RegInfo {
            name: name.into(),
            ty,
            init: ty.canonicalize(init),
        });
        id
    }

    /// Adds a memory.
    pub fn add_mem(&mut self, mem: FsmdMem) -> MemId {
        let id = MemId(self.mems.len() as u32);
        self.mems.push(mem);
        id
    }

    /// Adds a scalar input bound to a parameter index.
    pub fn add_input(&mut self, name: impl Into<String>, ty: IntType, param: usize) -> usize {
        self.inputs.push((name.into(), ty));
        self.input_params.push(param);
        self.inputs.len() - 1
    }

    /// Adds an empty state.
    pub fn add_state(&mut self) -> StateId {
        let id = StateId(self.states.len() as u32);
        self.states.push(State::default());
        id
    }

    /// Mutable access to a state.
    pub fn state_mut(&mut self, s: StateId) -> &mut State {
        &mut self.states[s.0 as usize]
    }

    /// The state for an id.
    pub fn state(&self, s: StateId) -> &State {
        &self.states[s.0 as usize]
    }

    /// Functional-unit requirements: for each (class, width), the maximum
    /// number of simultaneous uses in any single state.
    pub fn fu_requirements(&self) -> HashMap<(OpClass, u16), usize> {
        let mut worst: HashMap<(OpClass, u16), usize> = HashMap::new();
        for st in &self.states {
            let mut here: HashMap<(OpClass, u16), usize> = HashMap::new();
            let mut count = |rv: &Rv| {
                rv.for_each_node(&mut |n| {
                    if let Some(key) = n.op_class() {
                        *here.entry(key).or_insert(0) += 1;
                    }
                });
            };
            for a in &st.actions {
                if let Some(g) = &a.guard {
                    count(g);
                }
                match &a.kind {
                    ActionKind::SetReg(_, rv) => count(rv),
                    ActionKind::MemWrite { addr, value, .. } => {
                        count(addr);
                        count(value);
                    }
                }
            }
            match &st.next {
                NextState::Branch { cond, .. } => count(cond),
                NextState::Cases { cases, .. } => {
                    for (c, _) in cases {
                        count(c);
                    }
                }
                _ => {}
            }
            for (k, v) in here {
                let e = worst.entry(k).or_insert(0);
                *e = (*e).max(v);
            }
        }
        worst
    }

    /// Total area in NAND2-equivalent gates: shared functional units,
    /// registers, memories, and the (log2-encoded) state register.
    pub fn area(&self, model: &CostModel) -> f64 {
        let mut total = 0.0;
        for ((class, width), n) in self.fu_requirements() {
            total += model.area(class, width) * n as f64;
        }
        for r in &self.regs {
            total += model.reg_area(r.ty.width);
        }
        for m in &self.mems {
            total += model.ram_area(m.len, m.elem);
        }
        let state_bits = (self.states.len().max(2) as f64).log2().ceil();
        total += model.reg_area(state_bits as u16) + 6.0 * state_bits * self.states.len() as f64;
        total
    }

    /// Longest combinational delay of any state's datapath, in ns — the
    /// minimum clock period the design supports.
    pub fn critical_path(&self, model: &CostModel) -> f64 {
        let mut worst: f64 = 0.0;
        for st in &self.states {
            for a in &st.actions {
                if let Some(g) = &a.guard {
                    worst = worst.max(self.rv_delay(g, model));
                }
                match &a.kind {
                    ActionKind::SetReg(_, rv) => worst = worst.max(self.rv_delay(rv, model)),
                    ActionKind::MemWrite { addr, value, .. } => {
                        let t = self.rv_delay(addr, model).max(self.rv_delay(value, model))
                            + model.delay(OpClass::MemWrite, 1);
                        worst = worst.max(t);
                    }
                }
            }
            match &st.next {
                NextState::Branch { cond, .. } => {
                    worst = worst.max(self.rv_delay(cond, model));
                }
                NextState::Cases { cases, .. } => {
                    for (c, _) in cases {
                        worst = worst.max(self.rv_delay(c, model));
                    }
                }
                _ => {}
            }
        }
        worst
    }

    /// Maximum clock frequency in MHz.
    pub fn fmax_mhz(&self, model: &CostModel) -> f64 {
        let period = self.critical_path(model) + model.sequential_overhead_ns;
        if period <= 0.0 {
            f64::INFINITY
        } else {
            1000.0 / period
        }
    }

    /// Combinational arrival time of a datapath expression.
    pub fn rv_delay(&self, rv: &Rv, model: &CostModel) -> f64 {
        match &rv.kind {
            RvKind::Const(_) | RvKind::Reg(_) | RvKind::Input(_) => 0.0,
            RvKind::Cast(a) => self.rv_delay(a, model),
            RvKind::Un(op, a) => {
                let class = match op {
                    UnKind::Neg => OpClass::AddSub,
                    UnKind::Not => OpClass::Logic,
                };
                self.rv_delay(a, model) + model.delay(class, a.ty.width)
            }
            RvKind::Bin(op, a, b) => {
                let w = a.ty.width.max(rv.ty.width);
                self.rv_delay(a, model).max(self.rv_delay(b, model))
                    + model.delay(bin_class(*op), w)
            }
            RvKind::Mux(s, a, b) => {
                self.rv_delay(s, model)
                    .max(self.rv_delay(a, model))
                    .max(self.rv_delay(b, model))
                    + model.delay(OpClass::Mux, rv.ty.width)
            }
            RvKind::MemRead { mem, addr } => {
                self.rv_delay(addr, model) + model.ram_read_delay(self.mems[mem.0 as usize].len)
            }
        }
    }

    /// Maximum simultaneous reads/writes of each memory in any state
    /// (for port-count checks).
    pub fn mem_port_usage(&self) -> Vec<(usize, usize)> {
        let mut usage = vec![(0usize, 0usize); self.mems.len()];
        for st in &self.states {
            let mut here = vec![(0usize, 0usize); self.mems.len()];
            let count_reads = |rv: &Rv, here: &mut Vec<(usize, usize)>| {
                rv.for_each_node(&mut |n| {
                    if let RvKind::MemRead { mem, .. } = &n.kind {
                        here[mem.0 as usize].0 += 1;
                    }
                });
            };
            for a in &st.actions {
                if let Some(g) = &a.guard {
                    count_reads(g, &mut here);
                }
                match &a.kind {
                    ActionKind::SetReg(_, rv) => count_reads(rv, &mut here),
                    ActionKind::MemWrite { mem, addr, value } => {
                        here[mem.0 as usize].1 += 1;
                        count_reads(addr, &mut here);
                        count_reads(value, &mut here);
                    }
                }
            }
            match &st.next {
                NextState::Branch { cond, .. } => count_reads(cond, &mut here),
                NextState::Cases { cases, .. } => {
                    for (c, _) in cases {
                        count_reads(c, &mut here);
                    }
                }
                _ => {}
            }
            for (i, (r, w)) in here.into_iter().enumerate() {
                usage[i].0 = usage[i].0.max(r);
                usage[i].1 = usage[i].1.max(w);
            }
        }
        usage
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i32t() -> IntType {
        IntType::new(32, true)
    }

    /// A two-state counter: s0 increments until r == 5, then done.
    fn counter() -> Fsmd {
        let mut f = Fsmd::new("counter");
        let r = f.add_reg("r", i32t(), 0);
        let s0 = f.add_state();
        let one = Rv::konst(1, i32t());
        let next = Rv::bin(BinKind::Add, i32t(), Rv::reg(r, i32t()), one);
        f.state_mut(s0).actions.push(Action::set(r, next));
        let five = Rv::konst(5, i32t());
        let done = Rv {
            kind: RvKind::Bin(BinKind::Eq, Box::new(Rv::reg(r, i32t())), Box::new(five)),
            ty: IntType::new(1, false),
        };
        let s1 = f.add_state();
        f.state_mut(s0).next = NextState::Branch {
            cond: done,
            then: s1,
            els: s0,
        };
        f.state_mut(s1).next = NextState::Done;
        f.ret = Some(Rv::reg(r, i32t()));
        f
    }

    #[test]
    fn fu_requirements_max_over_states() {
        let f = counter();
        let req = f.fu_requirements();
        assert_eq!(req.get(&(OpClass::AddSub, 32)), Some(&1));
        assert_eq!(req.get(&(OpClass::Cmp, 32)), Some(&1));
    }

    #[test]
    fn area_includes_regs_and_state_machine() {
        let f = counter();
        let m = CostModel::new();
        let a = f.area(&m);
        assert!(a > m.reg_area(32), "area {a} too small");
    }

    #[test]
    fn critical_path_positive() {
        let f = counter();
        let m = CostModel::new();
        let cp = f.critical_path(&m);
        assert!(cp > 0.0);
        assert!(f.fmax_mhz(&m).is_finite());
    }

    #[test]
    fn mem_ports_counted() {
        let mut f = Fsmd::new("m");
        let mem = f.add_mem(FsmdMem {
            name: "a".into(),
            elem: i32t(),
            len: 8,
            rom: None,
            param_index: None,
        });
        let r = f.add_reg("r", i32t(), 0);
        let s0 = f.add_state();
        // Two reads and one write in one state.
        let addr0 = Rv::konst(0, i32t());
        let addr1 = Rv::konst(1, i32t());
        let rd0 = Rv {
            kind: RvKind::MemRead {
                mem,
                addr: Box::new(addr0.clone()),
            },
            ty: i32t(),
        };
        let rd1 = Rv {
            kind: RvKind::MemRead {
                mem,
                addr: Box::new(addr1),
            },
            ty: i32t(),
        };
        let sum = Rv::bin(BinKind::Add, i32t(), rd0, rd1);
        f.state_mut(s0).actions.push(Action::set(r, sum));
        f.state_mut(s0)
            .actions
            .push(Action::write(mem, addr0, Rv::reg(r, i32t())));
        f.state_mut(s0).next = NextState::Done;
        assert_eq!(f.mem_port_usage(), vec![(2, 1)]);
    }

    #[test]
    fn shared_fu_area_cheaper_than_duplicated() {
        // Two adds in different states share one adder.
        let mut two_states = Fsmd::new("a");
        let r = two_states.add_reg("r", i32t(), 0);
        let s0 = two_states.add_state();
        let s1 = two_states.add_state();
        let add = || {
            Rv::bin(
                BinKind::Add,
                i32t(),
                Rv::reg(RegId(0), i32t()),
                Rv::konst(1, i32t()),
            )
        };
        two_states.state_mut(s0).actions.push(Action::set(r, add()));
        two_states.state_mut(s0).next = NextState::Goto(s1);
        two_states.state_mut(s1).actions.push(Action::set(r, add()));
        two_states.state_mut(s1).next = NextState::Done;

        // The same two adds in one state need two adders.
        let mut one_state = Fsmd::new("b");
        let q = one_state.add_reg("q", i32t(), 0);
        let p = one_state.add_reg("p", i32t(), 0);
        let s = one_state.add_state();
        one_state.state_mut(s).actions.push(Action::set(q, add()));
        one_state.state_mut(s).actions.push(Action::set(p, add()));
        one_state.state_mut(s).next = NextState::Done;

        assert_eq!(
            two_states.fu_requirements().get(&(OpClass::AddSub, 32)),
            Some(&1)
        );
        assert_eq!(
            one_state.fu_requirements().get(&(OpClass::AddSub, 32)),
            Some(&2)
        );
    }
}

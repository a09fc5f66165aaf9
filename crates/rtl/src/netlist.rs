//! Word-level netlists.
//!
//! A netlist is a sea of cells, each producing one word-level net (its own
//! [`CellId`]). Combinational cells reference their input nets;
//! [`CellKind::Reg`] breaks combinational cycles at clock edges;
//! [`CellKind::RamRead`]/[`CellKind::RamWrite`] access shared memories
//! (asynchronous read, synchronous write, like FPGA distributed RAM).
//!
//! The Cones backend produces purely combinational netlists (no registers,
//! no RAMs); FSMD lowering produces sequential ones.

use crate::cost::{CostModel, OpClass};
use chls_frontend::IntType;
use chls_ir::{BinKind, UnKind};
use std::collections::HashMap;
use std::fmt;

/// Index of a cell (and the net it drives).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub u32);

/// Index of a RAM block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RamId(pub u32);

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Cell kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum CellKind {
    /// A named primary input.
    Input {
        /// Port name.
        name: String,
    },
    /// A constant driver.
    Const(i64),
    /// Unary operator.
    Un(UnKind, CellId),
    /// Binary operator (signedness from the cell's type; comparisons use
    /// the operand cells' type and drive a 1-bit net).
    Bin(BinKind, CellId, CellId),
    /// 2-to-1 multiplexer: `sel ? a : b`.
    Mux {
        /// 1-bit select.
        sel: CellId,
        /// Driven when `sel` is 1.
        a: CellId,
        /// Driven when `sel` is 0.
        b: CellId,
    },
    /// Width/signedness conversion.
    Cast {
        /// Input type.
        from: IntType,
        /// Input net.
        val: CellId,
    },
    /// A D register with initial value and optional enable.
    Reg {
        /// Next-state input.
        next: CellId,
        /// Reset/initial value.
        init: i64,
        /// Clock enable (register holds when 0).
        en: Option<CellId>,
    },
    /// Asynchronous RAM read port.
    RamRead {
        /// Which RAM.
        ram: RamId,
        /// Element address.
        addr: CellId,
    },
    /// Synchronous RAM write port (commits on the clock edge when `en`).
    RamWrite {
        /// Which RAM.
        ram: RamId,
        /// Element address.
        addr: CellId,
        /// Data input.
        data: CellId,
        /// Write enable.
        en: CellId,
    },
}

impl CellKind {
    /// Visits input nets.
    pub fn for_each_input(&self, mut f: impl FnMut(CellId)) {
        match self {
            CellKind::Input { .. } | CellKind::Const(_) => {}
            CellKind::Un(_, a) | CellKind::Cast { val: a, .. } => f(*a),
            CellKind::Bin(_, a, b) => {
                f(*a);
                f(*b);
            }
            CellKind::Mux { sel, a, b } => {
                f(*sel);
                f(*a);
                f(*b);
            }
            CellKind::Reg { next, en, .. } => {
                f(*next);
                if let Some(e) = en {
                    f(*e);
                }
            }
            CellKind::RamRead { addr, .. } => f(*addr),
            CellKind::RamWrite { addr, data, en, .. } => {
                f(*addr);
                f(*data);
                f(*en);
            }
        }
    }

    /// True for cells whose output changes only at clock edges.
    pub fn is_sequential(&self) -> bool {
        matches!(self, CellKind::Reg { .. } | CellKind::RamWrite { .. })
    }

    /// The cost-model class of this cell.
    pub fn op_class(&self) -> OpClass {
        match self {
            CellKind::Input { .. } | CellKind::Const(_) => OpClass::Const,
            CellKind::Un(UnKind::Neg, _) => OpClass::AddSub,
            CellKind::Un(UnKind::Not, _) => OpClass::Logic,
            CellKind::Bin(op, ..) => bin_class(*op),
            CellKind::Mux { .. } => OpClass::Mux,
            CellKind::Cast { .. } => OpClass::Cast,
            CellKind::Reg { .. } => OpClass::Const,
            CellKind::RamRead { .. } => OpClass::MemRead,
            CellKind::RamWrite { .. } => OpClass::MemWrite,
        }
    }
}

/// Cost class of a binary operator.
pub fn bin_class(op: BinKind) -> OpClass {
    match op {
        BinKind::Add | BinKind::Sub => OpClass::AddSub,
        BinKind::Mul => OpClass::Mul,
        BinKind::Div | BinKind::Rem => OpClass::DivRem,
        BinKind::Shl | BinKind::Shr => OpClass::Shift,
        BinKind::And | BinKind::Or | BinKind::Xor => OpClass::Logic,
        BinKind::Eq | BinKind::Ne | BinKind::Lt | BinKind::Le | BinKind::Gt | BinKind::Ge => {
            OpClass::Cmp
        }
    }
}

/// A cell with its output type.
#[derive(Debug, Clone, PartialEq)]
pub struct CellData {
    /// Payload.
    pub kind: CellKind,
    /// Output net type.
    pub ty: IntType,
}

/// A RAM block.
#[derive(Debug, Clone, PartialEq)]
pub struct Ram {
    /// Name (for Verilog and reports).
    pub name: String,
    /// Element type.
    pub elem: IntType,
    /// Word count.
    pub len: usize,
    /// Initial contents (ROMs and initialized RAMs).
    pub init: Option<Vec<i64>>,
}

/// A word-level netlist.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Netlist {
    /// Module name.
    pub name: String,
    /// All cells; [`CellId`] indexes this.
    pub cells: Vec<CellData>,
    /// RAM blocks.
    pub rams: Vec<Ram>,
    /// Named outputs.
    pub outputs: Vec<(String, CellId)>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Adds a cell, returning its net.
    pub fn add(&mut self, kind: CellKind, ty: IntType) -> CellId {
        let id = CellId(self.cells.len() as u32);
        self.cells.push(CellData { kind, ty });
        id
    }

    /// Adds a RAM block.
    pub fn add_ram(&mut self, ram: Ram) -> RamId {
        let id = RamId(self.rams.len() as u32);
        self.rams.push(ram);
        id
    }

    /// The cell for a net.
    pub fn cell(&self, id: CellId) -> &CellData {
        &self.cells[id.0 as usize]
    }

    /// Marks a net as a named output.
    pub fn set_output(&mut self, name: impl Into<String>, net: CellId) {
        self.outputs.push((name.into(), net));
    }

    /// True when the netlist contains no sequential cells — a Cones-style
    /// pure combinational network.
    pub fn is_combinational(&self) -> bool {
        !self.cells.iter().any(|c| c.kind.is_sequential()) && self.rams.is_empty()
    }

    /// Total area in NAND2-equivalent gates under `model`.
    pub fn area(&self, model: &CostModel) -> f64 {
        let mut total = 0.0;
        for c in &self.cells {
            total += match &c.kind {
                CellKind::Reg { .. } => model.reg_area(c.ty.width),
                other => model.area(other.op_class(), operand_width(self, other, c.ty)),
            };
        }
        for r in &self.rams {
            total += model.ram_area(r.len, r.elem);
        }
        total
    }

    /// Longest combinational path delay in ns under `model` (inputs,
    /// registers, and RAM reads start paths; registers, RAM write ports,
    /// and outputs end them).
    ///
    /// # Panics
    ///
    /// Panics if the combinational cells contain a cycle.
    pub fn critical_path(&self, model: &CostModel) -> f64 {
        // Longest-path DP over the combinational DAG in topological order.
        let n = self.cells.len();
        let mut arrival = vec![f64::NAN; n];
        let mut state = vec![0u8; n]; // 0=unvisited, 1=in progress, 2=done
        let mut worst: f64 = 0.0;

        fn visit(
            nl: &Netlist,
            model: &CostModel,
            id: CellId,
            arrival: &mut [f64],
            state: &mut [u8],
        ) -> f64 {
            let i = id.0 as usize;
            match state[i] {
                2 => return arrival[i],
                1 => panic!("combinational cycle through {id}"),
                _ => {}
            }
            state[i] = 1;
            let cell = &nl.cells[i];
            let t = match &cell.kind {
                // Sequential and source cells start paths at t=0.
                CellKind::Input { .. } | CellKind::Const(_) | CellKind::Reg { .. } => 0.0,
                CellKind::RamRead { ram, addr } => {
                    let a = visit(nl, model, *addr, arrival, state);
                    a + model.ram_read_delay(nl.rams[ram.0 as usize].len)
                }
                CellKind::RamWrite { addr, data, en, .. } => {
                    let mut m = visit(nl, model, *addr, arrival, state);
                    m = m.max(visit(nl, model, *data, arrival, state));
                    m = m.max(visit(nl, model, *en, arrival, state));
                    m + model.delay(OpClass::MemWrite, cell.ty.width)
                }
                other => {
                    let mut m: f64 = 0.0;
                    other.for_each_input(|inp| {
                        m = m.max(visit(nl, model, inp, arrival, state));
                    });
                    m + model.delay(other.op_class(), operand_width(nl, other, cell.ty))
                }
            };
            state[i] = 2;
            arrival[i] = t;
            t
        }

        for i in 0..n {
            let cell = &self.cells[i];
            // End points: register/ram-write inputs and primary outputs.
            match &cell.kind {
                CellKind::Reg { next, en, .. } => {
                    let mut t = visit(self, model, *next, &mut arrival, &mut state);
                    if let Some(e) = en {
                        t = t.max(visit(self, model, *e, &mut arrival, &mut state));
                    }
                    worst = worst.max(t);
                }
                CellKind::RamWrite { .. } => {
                    let t = visit(self, model, CellId(i as u32), &mut arrival, &mut state);
                    worst = worst.max(t);
                }
                _ => {}
            }
        }
        for (_, out) in &self.outputs {
            let t = visit(self, model, *out, &mut arrival, &mut state);
            worst = worst.max(t);
        }
        worst
    }

    /// Maximum clock frequency in MHz implied by the critical path plus
    /// sequential overhead.
    pub fn fmax_mhz(&self, model: &CostModel) -> f64 {
        let period = self.critical_path(model) + model.sequential_overhead_ns;
        if period <= 0.0 {
            return f64::INFINITY;
        }
        1000.0 / period
    }

    /// Folds constant cells: binary/unary ops with all-constant inputs
    /// become constants, muxes with constant selects collapse to one arm,
    /// and casts of constants fold. Runs to a fixpoint; returns the number
    /// of cells folded. Combine with [`Netlist::sweep_dead`] to actually
    /// shrink the netlist.
    pub fn fold_constants(&mut self) -> usize {
        use chls_ir::{eval_bin, eval_cast, eval_un};
        let mut folded = 0;
        loop {
            let mut changed = false;
            for i in 0..self.cells.len() {
                let cell = self.cells[i].clone();
                let const_of = |id: CellId, cells: &[CellData]| -> Option<i64> {
                    match &cells[id.0 as usize].kind {
                        CellKind::Const(v) => Some(*v),
                        _ => None,
                    }
                };
                let new_kind = match &cell.kind {
                    CellKind::Bin(op, a, b) => {
                        match (const_of(*a, &self.cells), const_of(*b, &self.cells)) {
                            (Some(x), Some(y)) => {
                                let ety = if op.is_comparison() {
                                    self.cells[a.0 as usize].ty
                                } else {
                                    cell.ty
                                };
                                Some(CellKind::Const(eval_bin(*op, ety, x, y)))
                            }
                            // x & 0 / x * 0 -> 0.
                            (_, Some(0)) | (Some(0), _)
                                if matches!(op, BinKind::And | BinKind::Mul) =>
                            {
                                Some(CellKind::Const(0))
                            }
                            _ => None,
                        }
                    }
                    CellKind::Un(op, a) => {
                        const_of(*a, &self.cells).map(|x| CellKind::Const(eval_un(*op, cell.ty, x)))
                    }
                    CellKind::Mux { sel, a, b } => match const_of(*sel, &self.cells) {
                        Some(0) => Some(self.cells[b.0 as usize].kind.clone())
                            .filter(|k| matches!(k, CellKind::Const(_)))
                            .or(Some(CellKind::Cast {
                                from: self.cells[b.0 as usize].ty,
                                val: *b,
                            })),
                        Some(_) => Some(self.cells[a.0 as usize].kind.clone())
                            .filter(|k| matches!(k, CellKind::Const(_)))
                            .or(Some(CellKind::Cast {
                                from: self.cells[a.0 as usize].ty,
                                val: *a,
                            })),
                        None => None,
                    },
                    CellKind::Cast { from, val } => match const_of(*val, &self.cells) {
                        Some(x) => Some(CellKind::Const(eval_cast(*from, cell.ty, x))),
                        None if *from == cell.ty => {
                            // Identity cast of a constant handled above; a
                            // non-constant identity cast stays (cheap wire).
                            None
                        }
                        None => None,
                    },
                    _ => None,
                };
                if let Some(k) = new_kind {
                    if k != self.cells[i].kind {
                        self.cells[i].kind = k;
                        folded += 1;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        folded
    }

    /// Removes cells not reachable from outputs, registers, or RAM writes.
    /// Returns the number of cells removed.
    pub fn sweep_dead(&mut self) -> usize {
        let n = self.cells.len();
        let mut live = vec![false; n];
        let mut stack: Vec<CellId> = Vec::new();
        for (_, o) in &self.outputs {
            stack.push(*o);
        }
        for (i, c) in self.cells.iter().enumerate() {
            // Writes are side effects; registers only matter if read — but
            // keeping all RAM writes is the conservative, correct choice.
            if matches!(c.kind, CellKind::RamWrite { .. }) {
                stack.push(CellId(i as u32));
            }
        }
        while let Some(id) = stack.pop() {
            if live[id.0 as usize] {
                continue;
            }
            live[id.0 as usize] = true;
            self.cells[id.0 as usize].kind.for_each_input(|i| {
                if !live[i.0 as usize] {
                    stack.push(i);
                }
            });
        }
        let removed = live.iter().filter(|l| !**l).count();
        if removed == 0 {
            return 0;
        }
        // Renumber.
        let mut map: Vec<Option<CellId>> = vec![None; n];
        let mut new_cells = Vec::with_capacity(n - removed);
        for (i, cell) in self.cells.iter().enumerate() {
            if live[i] {
                map[i] = Some(CellId(new_cells.len() as u32));
                new_cells.push(cell.clone());
            }
        }
        let remap = |c: CellId| map[c.0 as usize].expect("live cell input must be live");
        for cell in &mut new_cells {
            let mut kind = cell.kind.clone();
            match &mut kind {
                CellKind::Input { .. } | CellKind::Const(_) => {}
                CellKind::Un(_, a) | CellKind::Cast { val: a, .. } => *a = remap(*a),
                CellKind::Bin(_, a, b) => {
                    *a = remap(*a);
                    *b = remap(*b);
                }
                CellKind::Mux { sel, a, b } => {
                    *sel = remap(*sel);
                    *a = remap(*a);
                    *b = remap(*b);
                }
                CellKind::Reg { next, en, .. } => {
                    *next = remap(*next);
                    if let Some(e) = en {
                        *e = remap(*e);
                    }
                }
                CellKind::RamRead { addr, .. } => *addr = remap(*addr),
                CellKind::RamWrite { addr, data, en, .. } => {
                    *addr = remap(*addr);
                    *data = remap(*data);
                    *en = remap(*en);
                }
            }
            cell.kind = kind;
        }
        for (_, o) in &mut self.outputs {
            *o = remap(*o);
        }
        self.cells = new_cells;
        removed
    }

    /// Counts cells by class, for reports.
    pub fn cell_histogram(&self) -> HashMap<&'static str, usize> {
        let mut h = HashMap::new();
        for c in &self.cells {
            let key = match &c.kind {
                CellKind::Input { .. } => "input",
                CellKind::Const(_) => "const",
                CellKind::Un(..) => "unary",
                CellKind::Bin(op, ..) => op.mnemonic(),
                CellKind::Mux { .. } => "mux",
                CellKind::Cast { .. } => "cast",
                CellKind::Reg { .. } => "reg",
                CellKind::RamRead { .. } => "ram_read",
                CellKind::RamWrite { .. } => "ram_write",
            };
            *h.entry(key).or_insert(0) += 1;
        }
        h
    }
}

/// Width used for costing: comparisons cost at their operand width, not
/// their 1-bit result.
fn operand_width(nl: &Netlist, kind: &CellKind, out_ty: IntType) -> u16 {
    match kind {
        CellKind::Bin(op, a, _) if op.is_comparison() => nl.cells[a.0 as usize].ty.width,
        _ => out_ty.width,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(w: u16) -> IntType {
        IntType::new(w, false)
    }

    /// out = (a + b) * a
    fn small_netlist() -> Netlist {
        let mut nl = Netlist::new("t");
        let a = nl.add(CellKind::Input { name: "a".into() }, u(8));
        let b = nl.add(CellKind::Input { name: "b".into() }, u(8));
        let sum = nl.add(CellKind::Bin(BinKind::Add, a, b), u(8));
        let prod = nl.add(CellKind::Bin(BinKind::Mul, sum, a), u(8));
        nl.set_output("out", prod);
        nl
    }

    #[test]
    fn combinational_detection() {
        let nl = small_netlist();
        assert!(nl.is_combinational());
        let mut nl2 = nl.clone();
        let c = nl2.add(CellKind::Const(0), u(8));
        let r = nl2.add(
            CellKind::Reg {
                next: c,
                init: 0,
                en: None,
            },
            u(8),
        );
        nl2.set_output("r", r);
        assert!(!nl2.is_combinational());
    }

    #[test]
    fn area_sums_cells() {
        let nl = small_netlist();
        let m = CostModel::new();
        let expected = m.area(OpClass::AddSub, 8) + m.area(OpClass::Mul, 8);
        assert!((nl.area(&m) - expected).abs() < 1e-9);
    }

    #[test]
    fn critical_path_is_add_then_mul() {
        let nl = small_netlist();
        let m = CostModel::new();
        let expected = m.delay(OpClass::AddSub, 8) + m.delay(OpClass::Mul, 8);
        assert!((nl.critical_path(&m) - expected).abs() < 1e-9);
        assert!(nl.fmax_mhz(&m) > 0.0 && nl.fmax_mhz(&m).is_finite());
    }

    #[test]
    fn registers_cut_timing_paths() {
        let mut nl = Netlist::new("t");
        let a = nl.add(CellKind::Input { name: "a".into() }, u(8));
        let b = nl.add(CellKind::Input { name: "b".into() }, u(8));
        let sum = nl.add(CellKind::Bin(BinKind::Add, a, b), u(8));
        let reg = nl.add(
            CellKind::Reg {
                next: sum,
                init: 0,
                en: None,
            },
            u(8),
        );
        let prod = nl.add(CellKind::Bin(BinKind::Mul, reg, a), u(8));
        nl.set_output("out", prod);
        let m = CostModel::new();
        // Two separate paths: add (to reg) and mul (reg to out); critical is max.
        let expected = m.delay(OpClass::AddSub, 8).max(m.delay(OpClass::Mul, 8));
        assert!((nl.critical_path(&m) - expected).abs() < 1e-9);
    }

    #[test]
    fn comparison_costs_at_operand_width() {
        let mut nl = Netlist::new("t");
        let a = nl.add(CellKind::Input { name: "a".into() }, u(32));
        let b = nl.add(CellKind::Input { name: "b".into() }, u(32));
        let lt = nl.add(CellKind::Bin(BinKind::Lt, a, b), u(1));
        nl.set_output("o", lt);
        let m = CostModel::new();
        assert!((nl.area(&m) - m.area(OpClass::Cmp, 32)).abs() < 1e-9);
    }

    #[test]
    fn sweep_removes_dead_cells() {
        let mut nl = small_netlist();
        // A dangling adder no output depends on.
        let a = CellId(0);
        let dead = nl.add(CellKind::Bin(BinKind::Add, a, a), u(8));
        let _ = dead;
        assert_eq!(nl.cells.len(), 5);
        let removed = nl.sweep_dead();
        assert_eq!(removed, 1);
        assert_eq!(nl.cells.len(), 4);
        // Outputs still valid.
        let m = CostModel::new();
        let _ = nl.critical_path(&m);
    }

    #[test]
    #[should_panic(expected = "combinational cycle")]
    fn combinational_cycle_detected() {
        let mut nl = Netlist::new("bad");
        // Self-feeding adder (no register in the loop).
        let a = nl.add(CellKind::Input { name: "a".into() }, u(8));
        let fake = nl.add(CellKind::Const(0), u(8));
        let sum = nl.add(CellKind::Bin(BinKind::Add, a, fake), u(8));
        // Overwrite: make the adder feed itself.
        nl.cells[sum.0 as usize].kind = CellKind::Bin(BinKind::Add, a, sum);
        nl.set_output("o", sum);
        let _ = nl.critical_path(&CostModel::new());
    }

    #[test]
    fn histogram_counts() {
        let nl = small_netlist();
        let h = nl.cell_histogram();
        assert_eq!(h.get("input"), Some(&2));
        assert_eq!(h.get("add"), Some(&1));
        assert_eq!(h.get("mul"), Some(&1));
    }
}

//! Two-phase levelized simulator for word-level netlists.
//!
//! Each [`NetlistSim::step`] evaluates all combinational cells in
//! topological order from the current register/RAM state and inputs, then
//! commits registers and RAM writes at the simulated clock edge. Purely
//! combinational netlists (the Cones backend's output) use
//! [`NetlistSim::eval`] alone.

use chls_ir::{eval_bin, eval_cast, eval_un};
use chls_rtl::netlist::{CellId, CellKind, Netlist};
use std::collections::HashMap;
use std::fmt;

/// Simulation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum NetlistSimError {
    /// RAM access out of range.
    OutOfBounds {
        /// RAM name.
        ram: String,
        /// Offending address.
        addr: i64,
        /// Word count.
        len: usize,
    },
    /// The combinational cells contain a cycle.
    CombinationalCycle(CellId),
    /// An input port was not driven.
    MissingInput(String),
}

impl fmt::Display for NetlistSimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistSimError::OutOfBounds { ram, addr, len } => {
                write!(f, "address {addr} out of range for ram `{ram}` (len {len})")
            }
            NetlistSimError::CombinationalCycle(c) => {
                write!(f, "combinational cycle through {c}")
            }
            NetlistSimError::MissingInput(n) => write!(f, "input `{n}` not driven"),
        }
    }
}

impl std::error::Error for NetlistSimError {}

/// A register cell's commit ports, precomputed at construction so
/// [`NetlistSim::step`] does not rescan every cell.
#[derive(Debug, Clone, Copy)]
struct RegPort {
    /// The register cell.
    cell: u32,
    /// Cell driving the next value.
    next: u32,
    /// Clock-enable cell, or `u32::MAX` for always-enabled.
    en: u32,
}

/// A RAM write port, precomputed at construction. Kept in cell-index
/// order: simultaneous writes to one address commit last-cell-wins.
#[derive(Debug, Clone, Copy)]
struct WritePort {
    ram: u32,
    addr: u32,
    data: u32,
    en: u32,
}

/// Stateful netlist simulator.
///
/// State is held densely: register values live in a `Vec<i64>` indexed by
/// cell id, and one combinational-value buffer is reused across
/// [`NetlistSim::step`] calls, so the per-cycle cost is two passes over
/// flat arrays with no allocation and no hashing.
#[derive(Debug, Clone)]
pub struct NetlistSim<'n> {
    nl: &'n Netlist,
    /// Current register values, indexed by cell id (non-register slots
    /// are unused and stay 0).
    reg_state: Vec<i64>,
    /// Current RAM contents.
    rams: Vec<Vec<i64>>,
    /// Driven value of each `Input` cell, indexed by cell id.
    input_vals: Vec<Option<i64>>,
    /// Cell ids of each named input, for [`NetlistSim::set_input`].
    input_cells: HashMap<String, Vec<u32>>,
    /// Topological order of all cells (registers treated as sources).
    topo: Vec<CellId>,
    /// Register commit list.
    reg_ports: Vec<RegPort>,
    /// RAM write ports, in cell-index order.
    write_ports: Vec<WritePort>,
    /// Scratch buffer of combinational values, reused across cycles.
    values: Vec<i64>,
}

impl<'n> NetlistSim<'n> {
    /// Creates a simulator with registers at their init values and RAMs at
    /// their initial contents (zeros if none).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistSimError::CombinationalCycle`] for cyclic netlists.
    pub fn new(nl: &'n Netlist) -> Result<Self, NetlistSimError> {
        let _span = chls_trace::span("sim.netlist.build");
        let n = nl.cells.len();
        let mut reg_state = vec![0i64; n];
        let mut reg_ports = Vec::new();
        let mut write_ports = Vec::new();
        let mut input_cells: HashMap<String, Vec<u32>> = HashMap::new();
        for (i, c) in nl.cells.iter().enumerate() {
            match &c.kind {
                CellKind::Reg { next, init, en } => {
                    reg_state[i] = c.ty.canonicalize(*init);
                    reg_ports.push(RegPort {
                        cell: i as u32,
                        next: next.0,
                        en: en.map_or(u32::MAX, |e| e.0),
                    });
                }
                CellKind::RamWrite {
                    ram,
                    addr,
                    data,
                    en,
                } => {
                    write_ports.push(WritePort {
                        ram: ram.0,
                        addr: addr.0,
                        data: data.0,
                        en: en.0,
                    });
                }
                CellKind::Input { name } => {
                    input_cells.entry(name.clone()).or_default().push(i as u32);
                }
                _ => {}
            }
        }
        let rams = nl
            .rams
            .iter()
            .map(|r| {
                let mut v = r.init.clone().unwrap_or_default();
                v.resize(r.len, 0);
                v
            })
            .collect();
        let topo = topo_order(nl)?;
        Ok(NetlistSim {
            nl,
            reg_state,
            rams,
            input_vals: vec![None; n],
            input_cells,
            topo,
            reg_ports,
            write_ports,
            values: vec![0i64; n],
        })
    }

    /// Drives an input port.
    pub fn set_input(&mut self, name: impl Into<String>, value: i64) {
        let name = name.into();
        if let Some(cells) = self.input_cells.get(&name) {
            for &c in cells {
                self.input_vals[c as usize] = Some(value);
            }
        }
    }

    /// Evaluates every combinational cell in topological order into
    /// `values`, which must be `cells.len()` long.
    fn eval_into(&self, values: &mut [i64]) -> Result<(), NetlistSimError> {
        debug_assert_eq!(values.len(), self.nl.cells.len());
        for &id in &self.topo {
            let cell = self.nl.cell(id);
            let v = match &cell.kind {
                CellKind::Input { name } => self.input_vals[id.0 as usize]
                    .ok_or_else(|| NetlistSimError::MissingInput(name.clone()))?,
                CellKind::Const(c) => *c,
                CellKind::Un(op, a) => eval_un(*op, cell.ty, values[a.0 as usize]),
                CellKind::Bin(op, a, b) => {
                    let ety = if op.is_comparison() {
                        self.nl.cell(*a).ty
                    } else {
                        cell.ty
                    };
                    eval_bin(*op, ety, values[a.0 as usize], values[b.0 as usize])
                }
                CellKind::Mux { sel, a, b } => {
                    if values[sel.0 as usize] != 0 {
                        values[a.0 as usize]
                    } else {
                        values[b.0 as usize]
                    }
                }
                CellKind::Cast { from, val } => eval_cast(*from, cell.ty, values[val.0 as usize]),
                CellKind::Reg { .. } => self.reg_state[id.0 as usize],
                CellKind::RamRead { ram, addr } => {
                    let a = values[addr.0 as usize];
                    let storage = &self.rams[ram.0 as usize];
                    if a < 0 || a as usize >= storage.len() {
                        return Err(NetlistSimError::OutOfBounds {
                            ram: self.nl.rams[ram.0 as usize].name.clone(),
                            addr: a,
                            len: storage.len(),
                        });
                    }
                    storage[a as usize]
                }
                // Write ports produce no value.
                CellKind::RamWrite { .. } => 0,
            };
            values[id.0 as usize] = cell.ty.canonicalize(v);
        }
        Ok(())
    }

    /// Evaluates all combinational logic and returns the value of every
    /// net, without advancing the clock.
    ///
    /// # Errors
    ///
    /// See [`NetlistSimError`].
    pub fn eval(&self) -> Result<Vec<i64>, NetlistSimError> {
        let mut values = vec![0i64; self.nl.cells.len()];
        self.eval_into(&mut values)?;
        Ok(values)
    }

    /// Commits one clock edge from the evaluated `values`: RAM writes in
    /// cell order first (an out-of-bounds write aborts before any
    /// register commits, matching the original interleaved-scan
    /// semantics), then registers.
    fn commit(&mut self, values: &[i64]) -> Result<(), NetlistSimError> {
        for w in &self.write_ports {
            if values[w.en as usize] != 0 {
                let a = values[w.addr as usize];
                let storage = &mut self.rams[w.ram as usize];
                if a < 0 || a as usize >= storage.len() {
                    return Err(NetlistSimError::OutOfBounds {
                        ram: self.nl.rams[w.ram as usize].name.clone(),
                        addr: a,
                        len: storage.len(),
                    });
                }
                let elem = self.nl.rams[w.ram as usize].elem;
                storage[a as usize] = elem.canonicalize(values[w.data as usize]);
            }
        }
        for r in &self.reg_ports {
            let enabled = r.en == u32::MAX || values[r.en as usize] != 0;
            if enabled {
                let ty = self.nl.cells[r.cell as usize].ty;
                self.reg_state[r.cell as usize] = ty.canonicalize(values[r.next as usize]);
            }
        }
        Ok(())
    }

    /// Evaluates combinational logic and commits one clock edge.
    ///
    /// # Errors
    ///
    /// See [`NetlistSimError`].
    pub fn step(&mut self) -> Result<(), NetlistSimError> {
        let mut values = std::mem::take(&mut self.values);
        let r = self
            .eval_into(&mut values)
            .and_then(|()| self.commit(&values));
        self.values = values;
        r
    }

    /// Value of a named output after [`NetlistSim::eval`].
    ///
    /// Re-evaluates the whole netlist; when reading many ports, prefer
    /// [`NetlistSim::eval_outputs`], which evaluates once.
    ///
    /// # Errors
    ///
    /// See [`NetlistSimError`]; also fails if no such output exists.
    pub fn output(&self, name: &str) -> Result<i64, NetlistSimError> {
        let values = self.eval()?;
        let (_, net) = self
            .nl
            .outputs
            .iter()
            .find(|(n, _)| n == name)
            .ok_or_else(|| NetlistSimError::MissingInput(format!("output {name}")))?;
        Ok(values[net.0 as usize])
    }

    /// Evaluates the netlist **once** and serves every named output port
    /// from that single snapshot, in declaration order.
    ///
    /// # Errors
    ///
    /// See [`NetlistSimError`].
    pub fn eval_outputs(&mut self) -> Result<Vec<(&'n str, i64)>, NetlistSimError> {
        let _span = chls_trace::span("sim.netlist.eval");
        chls_trace::add("sim.evals", 1);
        let mut values = std::mem::take(&mut self.values);
        let r = self.eval_into(&mut values);
        let out = r.map(|()| {
            self.nl
                .outputs
                .iter()
                .map(|(n, net)| (n.as_str(), values[net.0 as usize]))
                .collect()
        });
        self.values = values;
        out
    }

    /// Current RAM contents.
    pub fn ram(&self, index: usize) -> &[i64] {
        &self.rams[index]
    }
}

/// Topological order with registers as sources (their `next` inputs are
/// not traversed) and everything else ordered after its inputs.
fn topo_order(nl: &Netlist) -> Result<Vec<CellId>, NetlistSimError> {
    let n = nl.cells.len();
    let mut order = Vec::with_capacity(n);
    let mut state = vec![0u8; n];
    // Iterative DFS.
    for start in 0..n {
        if state[start] != 0 {
            continue;
        }
        let mut stack: Vec<(u32, bool)> = vec![(start as u32, false)];
        while let Some((i, expanded)) = stack.pop() {
            if expanded {
                state[i as usize] = 2;
                order.push(CellId(i));
                continue;
            }
            if state[i as usize] == 2 {
                continue;
            }
            if state[i as usize] == 1 {
                return Err(NetlistSimError::CombinationalCycle(CellId(i)));
            }
            state[i as usize] = 1;
            stack.push((i, true));
            let cell = &nl.cells[i as usize];
            // Registers are sequential sources: do not traverse inputs for
            // ordering (their inputs are still evaluated as ordinary cells
            // elsewhere in the same pass — the commit uses post-eval
            // values).
            if matches!(cell.kind, CellKind::Reg { .. }) {
                continue;
            }
            cell.kind.for_each_input(|inp| {
                if state[inp.0 as usize] != 2 {
                    stack.push((inp.0, false));
                }
            });
        }
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chls_frontend::IntType;
    use chls_ir::BinKind;
    use chls_rtl::netlist::Ram;

    fn u(w: u16) -> IntType {
        IntType::new(w, false)
    }

    #[test]
    fn combinational_adder() {
        let mut nl = Netlist::new("add");
        let a = nl.add(CellKind::Input { name: "a".into() }, u(8));
        let b = nl.add(CellKind::Input { name: "b".into() }, u(8));
        let s = nl.add(CellKind::Bin(BinKind::Add, a, b), u(8));
        nl.set_output("s", s);
        let mut sim = NetlistSim::new(&nl).unwrap();
        sim.set_input("a", 200);
        sim.set_input("b", 100);
        assert_eq!(sim.output("s").unwrap(), 44); // wraps at 8 bits
    }

    #[test]
    fn register_holds_and_updates() {
        let mut nl = Netlist::new("cnt");
        let one = nl.add(CellKind::Const(1), u(8));
        // Placeholder next; patch after creating the register.
        let reg = nl.add(
            CellKind::Reg {
                next: one,
                init: 0,
                en: None,
            },
            u(8),
        );
        let next = nl.add(CellKind::Bin(BinKind::Add, reg, one), u(8));
        nl.cells[reg.0 as usize].kind = CellKind::Reg {
            next,
            init: 0,
            en: None,
        };
        nl.set_output("q", reg);
        let mut sim = NetlistSim::new(&nl).unwrap();
        assert_eq!(sim.output("q").unwrap(), 0);
        sim.step().unwrap();
        assert_eq!(sim.output("q").unwrap(), 1);
        sim.step().unwrap();
        sim.step().unwrap();
        assert_eq!(sim.output("q").unwrap(), 3);
    }

    #[test]
    fn enabled_register_gates_updates() {
        let mut nl = Netlist::new("en");
        let en = nl.add(CellKind::Input { name: "en".into() }, u(1));
        let one = nl.add(CellKind::Const(1), u(8));
        let reg = nl.add(
            CellKind::Reg {
                next: one,
                init: 0,
                en: Some(en),
            },
            u(8),
        );
        let next = nl.add(CellKind::Bin(BinKind::Add, reg, one), u(8));
        nl.cells[reg.0 as usize].kind = CellKind::Reg {
            next,
            init: 0,
            en: Some(en),
        };
        nl.set_output("q", reg);
        let mut sim = NetlistSim::new(&nl).unwrap();
        sim.set_input("en", 0);
        sim.step().unwrap();
        assert_eq!(sim.output("q").unwrap(), 0);
        sim.set_input("en", 1);
        sim.step().unwrap();
        assert_eq!(sim.output("q").unwrap(), 1);
    }

    #[test]
    fn ram_write_then_read() {
        let mut nl = Netlist::new("ram");
        let ram = nl.add_ram(Ram {
            name: "m".into(),
            elem: u(8),
            len: 4,
            init: None,
        });
        let addr = nl.add(
            CellKind::Input {
                name: "addr".into(),
            },
            u(8),
        );
        let data = nl.add(
            CellKind::Input {
                name: "data".into(),
            },
            u(8),
        );
        let we = nl.add(CellKind::Input { name: "we".into() }, u(1));
        nl.add(
            CellKind::RamWrite {
                ram,
                addr,
                data,
                en: we,
            },
            u(8),
        );
        let rd = nl.add(CellKind::RamRead { ram, addr }, u(8));
        nl.set_output("rd", rd);
        let mut sim = NetlistSim::new(&nl).unwrap();
        sim.set_input("addr", 2);
        sim.set_input("data", 77);
        sim.set_input("we", 1);
        // Async read sees old contents before the edge...
        assert_eq!(sim.output("rd").unwrap(), 0);
        sim.step().unwrap();
        // ...and the written value after.
        sim.set_input("we", 0);
        assert_eq!(sim.output("rd").unwrap(), 77);
        assert_eq!(sim.ram(0), &[0, 0, 77, 0]);
    }

    #[test]
    fn rom_initialized() {
        let mut nl = Netlist::new("rom");
        let rom = nl.add_ram(Ram {
            name: "t".into(),
            elem: u(8),
            len: 3,
            init: Some(vec![5, 6, 7]),
        });
        let addr = nl.add(
            CellKind::Input {
                name: "addr".into(),
            },
            u(8),
        );
        let rd = nl.add(CellKind::RamRead { ram: rom, addr }, u(8));
        nl.set_output("rd", rd);
        let mut sim = NetlistSim::new(&nl).unwrap();
        sim.set_input("addr", 1);
        assert_eq!(sim.output("rd").unwrap(), 6);
    }

    #[test]
    fn missing_input_is_error() {
        let mut nl = Netlist::new("x");
        let a = nl.add(CellKind::Input { name: "a".into() }, u(8));
        nl.set_output("o", a);
        let sim = NetlistSim::new(&nl).unwrap();
        assert!(matches!(
            sim.output("o"),
            Err(NetlistSimError::MissingInput(_))
        ));
    }

    #[test]
    fn cycle_reported_at_construction() {
        let mut nl = Netlist::new("cyc");
        let a = nl.add(CellKind::Input { name: "a".into() }, u(8));
        let fake = nl.add(CellKind::Const(0), u(8));
        let s = nl.add(CellKind::Bin(BinKind::Add, a, fake), u(8));
        nl.cells[s.0 as usize].kind = CellKind::Bin(BinKind::Add, a, s);
        nl.set_output("o", s);
        assert!(matches!(
            NetlistSim::new(&nl),
            Err(NetlistSimError::CombinationalCycle(_))
        ));
    }

    #[test]
    fn signed_comparison_in_netlist() {
        let mut nl = Netlist::new("cmp");
        let a = nl.add(CellKind::Input { name: "a".into() }, IntType::new(8, true));
        let b = nl.add(CellKind::Input { name: "b".into() }, IntType::new(8, true));
        let lt = nl.add(CellKind::Bin(BinKind::Lt, a, b), u(1));
        nl.set_output("lt", lt);
        let mut sim = NetlistSim::new(&nl).unwrap();
        sim.set_input("a", -5);
        sim.set_input("b", 3);
        assert_eq!(sim.output("lt").unwrap(), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use chls_frontend::IntType;
    use chls_ir::BinKind;
    use proptest::prelude::*;

    /// Builds a random layered combinational netlist over two inputs and
    /// returns it with the expected evaluation closure inputs.
    fn arb_netlist() -> impl Strategy<Value = Netlist> {
        (2usize..24, any::<u64>()).prop_map(|(n, seed)| {
            let ty = IntType::new(16, false);
            let mut nl = Netlist::new("rand");
            let a = nl.add(CellKind::Input { name: "a".into() }, ty);
            let b = nl.add(CellKind::Input { name: "b".into() }, ty);
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut nets = vec![a, b];
            for _ in 0..n {
                let x = nets[(next() as usize) % nets.len()];
                let y = nets[(next() as usize) % nets.len()];
                let cell = match next() % 6 {
                    0 => CellKind::Bin(BinKind::Add, x, y),
                    1 => CellKind::Bin(BinKind::Xor, x, y),
                    2 => CellKind::Bin(BinKind::And, x, y),
                    3 => CellKind::Bin(BinKind::Mul, x, y),
                    4 => CellKind::Const((next() % 1000) as i64),
                    _ => {
                        let s = nl.add(CellKind::Bin(BinKind::Lt, x, y), IntType::new(1, false));
                        CellKind::Mux { sel: s, a: x, b: y }
                    }
                };
                let id = nl.add(cell, ty);
                nets.push(id);
            }
            let out = *nets.last().expect("nonempty");
            nl.set_output("o", out);
            nl
        })
    }

    proptest! {
        /// Constant folding plus dead-cell sweeping never changes the
        /// simulated output of a combinational netlist.
        #[test]
        fn fold_and_sweep_preserve_semantics(
            nl in arb_netlist(),
            a in 0i64..65_536,
            b in 0i64..65_536,
        ) {
            let mut sim = NetlistSim::new(&nl).expect("builds");
            sim.set_input("a", a);
            sim.set_input("b", b);
            let before = sim.output("o").expect("evaluates");

            let mut optimized = nl.clone();
            optimized.fold_constants();
            optimized.sweep_dead();
            let mut sim2 = NetlistSim::new(&optimized).expect("builds");
            sim2.set_input("a", a);
            sim2.set_input("b", b);
            let after = sim2.output("o").expect("evaluates");
            prop_assert_eq!(before, after);
            prop_assert!(optimized.cells.len() <= nl.cells.len());
        }

        /// The Verilog emitter produces one assign/always per live cell —
        /// smoke structural invariant.
        #[test]
        fn verilog_emission_total(nl in arb_netlist()) {
            let mut nl = nl;
            nl.sweep_dead();
            let v = chls_rtl::netlist_to_verilog(&nl);
            prop_assert!(v.contains("module rand"));
            prop_assert!(v.contains("endmodule"));
            // Every non-input cell appears as a driven net.
            for (i, c) in nl.cells.iter().enumerate() {
                if !matches!(c.kind, CellKind::Input { .. }) {
                    prop_assert!(
                        v.contains(&format!("n{i} =")) || v.contains(&format!("n{i} <=")),
                        "cell n{i} missing from Verilog"
                    );
                }
            }
        }
    }
}

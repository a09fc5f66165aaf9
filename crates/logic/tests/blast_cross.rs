//! Cross-validation of the symbolic bit-blaster against the concrete
//! netlist simulator.
//!
//! The equivalence checker is only sound if `blast::SymMachine` encodes
//! *exactly* the arithmetic the simulator executes — including wrapping,
//! shift saturation, signed division corners, and divide-by-zero. These
//! tests drive both engines over random netlists covering every
//! operator at mixed widths and signedness, and over a hand-written
//! sequential machine with RAM traffic, and demand bit-identical
//! results. The 64-lane AIG simulator is checked the same way, lane by
//! lane, since `Aig::eval` is only its lane 0.

use chls_frontend::IntType;
use chls_ir::{BinKind, UnKind};
use chls_logic::{Aig, RamSpec, SymEnv, SymMachine};
use chls_rtl::netlist::{CellId, CellKind, Netlist, Ram};
use chls_sim::netlist_sim::NetlistSim;
use proptest::prelude::*;
use std::collections::HashMap;

const TYPES: &[(u16, bool)] = &[
    (1, false),
    (4, false),
    (8, true),
    (8, false),
    (13, true),
    (16, false),
    (16, true),
    (32, true),
    (63, false),
    (64, true),
];

const BINS: &[BinKind] = &[
    BinKind::Add,
    BinKind::Sub,
    BinKind::Mul,
    BinKind::Div,
    BinKind::Rem,
    BinKind::Shl,
    BinKind::Shr,
    BinKind::And,
    BinKind::Or,
    BinKind::Xor,
    BinKind::Eq,
    BinKind::Ne,
    BinKind::Lt,
    BinKind::Le,
    BinKind::Gt,
    BinKind::Ge,
];

/// Deterministic xorshift for structure generation.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[(self.next() as usize) % xs.len()]
    }
}

/// A random layered combinational netlist over three typed inputs,
/// exercising every operator kind.
fn random_netlist(n: usize, seed: u64) -> (Netlist, Vec<(String, IntType)>) {
    let mut rng = Rng(seed | 1);
    let mut nl = Netlist::new("rand");
    let mut inputs = Vec::new();
    let mut nets: Vec<CellId> = Vec::new();
    for name in ["a", "b", "c"] {
        let (w, s) = rng.pick(TYPES);
        let ty = IntType::new(w, s);
        nets.push(nl.add(CellKind::Input { name: name.into() }, ty));
        inputs.push((name.to_string(), ty));
    }
    for _ in 0..n {
        let x = nets[(rng.next() as usize) % nets.len()];
        let y = nets[(rng.next() as usize) % nets.len()];
        let (w, s) = rng.pick(TYPES);
        let ty = IntType::new(w, s);
        let id = match rng.next() % 10 {
            0 => {
                let v = rng.next() as i64;
                nl.add(CellKind::Const(ty.canonicalize(v)), ty)
            }
            1 => {
                let op = if rng.next().is_multiple_of(2) {
                    UnKind::Neg
                } else {
                    UnKind::Not
                };
                nl.add(CellKind::Un(op, x), ty)
            }
            2 => {
                let from = nl.cell(x).ty;
                nl.add(CellKind::Cast { from, val: x }, ty)
            }
            3 => nl.add(CellKind::Mux { sel: x, a: y, b: x }, ty),
            _ => {
                let op = rng.pick(BINS);
                // Comparisons drive 1-bit nets, like the frontends emit.
                let ty = if op.is_comparison() {
                    IntType::new(1, false)
                } else {
                    ty
                };
                nl.add(CellKind::Bin(op, x, y), ty)
            }
        };
        nets.push(id);
    }
    // Observe a spread of nets, not just the last one, so shallow
    // cells stay live too.
    for (i, &net) in nets.iter().rev().take(4).enumerate() {
        nl.set_output(format!("o{i}"), net);
    }
    (nl, inputs)
}

/// Blasts `nl`, assigns the given concrete input values to the AIG
/// variables, and returns the decoded outputs.
fn symbolic_outputs(nl: &Netlist, values: &[(String, i64)]) -> Vec<(String, i64)> {
    let mut g = Aig::new();
    let mut env = SymEnv::new();
    let machine = SymMachine::new(&mut g, &mut env, nl, &[]).expect("blasts");
    let vals = machine.eval(&mut g, &mut env).expect("evaluates");
    let outs = machine.outputs(&vals);
    let mut assign = HashMap::new();
    for (name, word) in &env.inputs {
        let v = values
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0);
        for (i, bit) in word.bits.iter().enumerate() {
            assign.insert(bit.var(), (v >> i) & 1 != 0);
        }
    }
    let bitvals = g.eval(&assign);
    outs.into_iter()
        .map(|(n, w)| (n, w.decode(&bitvals)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The symbolic machine and the concrete simulator agree on every
    /// output of a random combinational netlist, for every operator.
    #[test]
    fn blast_matches_netlist_sim(
        n in 4usize..40,
        seed in any::<u64>(),
        ra in any::<i64>(),
        rb in any::<i64>(),
        rc in any::<i64>(),
    ) {
        let (nl, inputs) = random_netlist(n, seed);
        let raw = [ra, rb, rc];
        let values: Vec<(String, i64)> = inputs
            .iter()
            .zip(raw.iter())
            .map(|((name, ty), &r)| (name.clone(), ty.canonicalize(r)))
            .collect();

        let mut sim = NetlistSim::new(&nl).expect("builds");
        for (name, v) in &values {
            sim.set_input(name.clone(), *v);
        }
        let symbolic = symbolic_outputs(&nl, &values);
        for (name, sv) in symbolic {
            let cv = sim.output(&name).expect("evaluates");
            prop_assert_eq!(
                sv, cv,
                "output {} differs: symbolic {} vs simulator {} (seed {})",
                name, sv, cv, seed
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// One `simulate64` pass over 64 different input assignments agrees
    /// in every lane with the concrete simulator run on that lane's
    /// assignment alone. A quarter of the lanes draw 0–3 per input, so
    /// zero divisors and small shift amounts come up.
    #[test]
    fn simulate64_lanes_match_netlist_sim(n in 4usize..40, seed in any::<u64>()) {
        let (nl, inputs) = random_netlist(n, seed);
        let mut g = Aig::new();
        let mut env = SymEnv::new();
        let machine = SymMachine::new(&mut g, &mut env, &nl, &[]).expect("blasts");
        let vals = machine.eval(&mut g, &mut env).expect("evaluates");
        let outs = machine.outputs(&vals);

        let mut rng = Rng(seed.rotate_left(17) | 1);
        let assignments: Vec<Vec<i64>> = (0..64)
            .map(|lane| {
                inputs
                    .iter()
                    .map(|(_, ty)| {
                        let r = if lane % 4 == 0 { rng.next() % 4 } else { rng.next() };
                        ty.canonicalize(r as i64)
                    })
                    .collect()
            })
            .collect();
        let mut lanes: HashMap<u32, u64> = HashMap::new();
        for (name, word) in &env.inputs {
            let k = inputs.iter().position(|(n, _)| n == name).expect("named input");
            for (bit, l) in word.bits.iter().enumerate() {
                let mask = assignments
                    .iter()
                    .enumerate()
                    .fold(0u64, |acc, (lane, a)| acc | ((a[k] >> bit) as u64 & 1) << lane);
                lanes.insert(l.var(), mask);
            }
        }
        let words = g.simulate64(|v| lanes.get(&v).copied().unwrap_or(0));

        for (lane, assignment) in assignments.iter().enumerate() {
            let mut sim = NetlistSim::new(&nl).expect("builds");
            for ((name, _), v) in inputs.iter().zip(assignment) {
                sim.set_input(name.clone(), *v);
            }
            let bits: Vec<bool> = words.iter().map(|w| (w >> lane) & 1 != 0).collect();
            for (name, word) in &outs {
                let (sv, cv) = (word.decode(&bits), sim.output(name).expect("evaluates"));
                prop_assert_eq!(
                    sv, cv,
                    "lane {} output {} differs: simulate64 {} vs simulator {} (seed {})",
                    lane, name, sv, cv, seed
                );
            }
        }
    }
}

/// A small sequential machine — accumulator over a RAM that it also
/// writes back into — stepped in lockstep with the simulator.
#[test]
fn blast_matches_sequential_sim() {
    let u8t = IntType::new(8, false);
    let u2t = IntType::new(2, false);
    let mut nl = Netlist::new("seq");
    let ram = nl.add_ram(Ram {
        name: "m".into(),
        elem: u8t,
        len: 4,
        init: Some(vec![7, 250, 3]),
    });
    // Placeholder next-state nets patched below.
    let zero = nl.add(CellKind::Const(0), u8t);
    let acc = nl.add(
        CellKind::Reg {
            next: zero,
            init: 0,
            en: None,
        },
        u8t,
    );
    let idx = nl.add(
        CellKind::Reg {
            next: zero,
            init: 0,
            en: None,
        },
        u2t,
    );
    let read = nl.add(CellKind::RamRead { ram, addr: idx }, u8t);
    let acc_next = nl.add(CellKind::Bin(BinKind::Add, acc, read), u8t);
    let one = nl.add(CellKind::Const(1), u2t);
    let idx_next = nl.add(CellKind::Bin(BinKind::Add, idx, one), u2t);
    let wen = nl.add(CellKind::Const(1), IntType::new(1, false));
    nl.add(
        CellKind::RamWrite {
            ram,
            addr: idx,
            data: acc_next,
            en: wen,
        },
        u8t,
    );
    nl.cells[acc.0 as usize].kind = CellKind::Reg {
        next: acc_next,
        init: 0,
        en: None,
    };
    nl.cells[idx.0 as usize].kind = CellKind::Reg {
        next: idx_next,
        init: 0,
        en: None,
    };
    nl.set_output("acc", acc);

    let mut sim = NetlistSim::new(&nl).expect("builds");
    let mut g = Aig::new();
    let mut env = SymEnv::new();
    let mut machine = SymMachine::new(&mut g, &mut env, &nl, &[RamSpec::Concrete]).expect("blasts");
    let no_inputs = HashMap::new();
    for cycle in 0..6 {
        let cv = sim.output("acc").expect("evaluates");
        let vals = machine.eval(&mut g, &mut env).expect("evaluates");
        let sv = machine.outputs(&vals)[0].1.decode(&g.eval(&no_inputs));
        assert_eq!(sv, cv, "acc differs at cycle {cycle}");
        sim.step().expect("steps");
        machine.step(&mut g, &mut env).expect("steps");
    }
    // Final RAM contents must also agree word for word.
    let bitvals = g.eval(&no_inputs);
    let concrete_ram = sim.ram(0);
    for (j, w) in machine.ram(0).iter().enumerate() {
        assert_eq!(w.decode(&bitvals), concrete_ram[j], "ram word {j} differs");
    }
}

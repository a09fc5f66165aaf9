//! FSMD → structural netlist lowering.
//!
//! Turns a finite-state machine + datapath into a flat word-level
//! netlist: a binary-encoded state register, one D register per datapath
//! register with a priority mux tree over all states that write it, RAM
//! blocks with per-state write-enable logic, and a `done`/`ret` pair
//! matching the behavioral Verilog's handshake. The result can be
//! simulated with the levelized netlist simulator — giving a second,
//! independent execution path for every clocked backend, which the
//! cross-validation tests compare against the FSMD simulator cycle for
//! cycle.

use crate::fsmd::{ActionKind, Fsmd, NextState, Rv, RvKind};
use crate::netlist::{CellId, CellKind, Netlist, Ram, RamId};
use chls_frontend::IntType;
use chls_ir::BinKind;
use std::collections::HashMap;

/// Lowers an FSMD to a structural netlist.
///
/// Outputs: `done` (1 bit) and, when the design returns a value, `ret`.
/// Array parameters appear as RAM blocks in the same order as
/// [`Fsmd::mems`]; bind their contents via [`Netlist::rams`] before
/// simulation.
pub fn fsmd_to_netlist(f: &Fsmd) -> Netlist {
    let _span = chls_trace::span("rtl.fsmd_to_netlist");
    let mut nl = Netlist::new(f.name.clone());
    let nstates = f.states.len().max(1);
    let state_bits = (usize::BITS - (nstates.max(2) - 1).leading_zeros()) as u16;
    let state_ty = IntType::new(state_bits.max(1), false);

    // Primary inputs.
    let inputs: Vec<CellId> = f
        .inputs
        .iter()
        .map(|(name, ty)| nl.add(CellKind::Input { name: name.clone() }, *ty))
        .collect();

    // Storage cells (placeholders patched after the next-state logic is
    // built, since registers are defined before their next inputs exist).
    let zero = nl.add(CellKind::Const(0), IntType::u1());
    let state_reg = nl.add(
        CellKind::Reg {
            next: zero,
            init: f.entry.0 as i64,
            en: None,
        },
        state_ty,
    );
    let done_reg = nl.add(
        CellKind::Reg {
            next: zero,
            init: 0,
            en: None,
        },
        IntType::u1(),
    );
    let regs: Vec<CellId> = f
        .regs
        .iter()
        .map(|r| {
            nl.add(
                CellKind::Reg {
                    next: zero,
                    init: r.init,
                    en: None,
                },
                r.ty,
            )
        })
        .collect();
    let rams: Vec<RamId> = f
        .mems
        .iter()
        .map(|m| {
            nl.add_ram(Ram {
                name: m.name.clone(),
                elem: m.elem,
                len: m.len.max(1),
                init: m.rom.clone(),
            })
        })
        .collect();
    let ret_reg = f.ret.as_ref().map(|rv| {
        nl.add(
            CellKind::Reg {
                next: zero,
                init: 0,
                en: None,
            },
            rv.ty,
        )
    });

    // `state == s` comparators, shared.
    let mut state_eq: HashMap<u32, CellId> = HashMap::new();
    let mut eq_state = |nl: &mut Netlist, s: u32| -> CellId {
        *state_eq.entry(s).or_insert_with(|| {
            let c = nl.add(CellKind::Const(s as i64), state_ty);
            nl.add(CellKind::Bin(BinKind::Eq, state_reg, c), IntType::u1())
        })
    };
    let not_done = {
        let z = nl.add(CellKind::Const(0), IntType::u1());
        nl.add(CellKind::Bin(BinKind::Eq, done_reg, z), IntType::u1())
    };

    // Rv → cells. `gate` is the activity predicate of the context using
    // this expression: memory-read addresses are muxed to 0 when inactive,
    // because the levelized simulator evaluates every cell every cycle and
    // an inactive state's stale index register may be out of range (real
    // hardware would read garbage it then ignores).
    fn build_rv(
        nl: &mut Netlist,
        regs: &[CellId],
        rams: &[RamId],
        inputs: &[CellId],
        gate: CellId,
        rv: &Rv,
    ) -> CellId {
        match &rv.kind {
            RvKind::Const(v) => nl.add(CellKind::Const(*v), rv.ty),
            RvKind::Reg(r) => regs[r.0 as usize],
            RvKind::Input(i) => inputs[*i],
            RvKind::Un(op, a) => {
                let av = build_rv(nl, regs, rams, inputs, gate, a);
                nl.add(CellKind::Un(*op, av), rv.ty)
            }
            RvKind::Bin(op, a, b) => {
                let av = build_rv(nl, regs, rams, inputs, gate, a);
                let bv = build_rv(nl, regs, rams, inputs, gate, b);
                nl.add(CellKind::Bin(*op, av, bv), rv.ty)
            }
            RvKind::Mux(s, a, b) => {
                let sv = build_rv(nl, regs, rams, inputs, gate, s);
                let av = build_rv(nl, regs, rams, inputs, gate, a);
                let bv = build_rv(nl, regs, rams, inputs, gate, b);
                nl.add(
                    CellKind::Mux {
                        sel: sv,
                        a: av,
                        b: bv,
                    },
                    rv.ty,
                )
            }
            RvKind::Cast(a) => {
                let av = build_rv(nl, regs, rams, inputs, gate, a);
                let from = a.ty;
                nl.add(CellKind::Cast { from, val: av }, rv.ty)
            }
            RvKind::MemRead { mem, addr } => {
                let av = build_rv(nl, regs, rams, inputs, gate, addr);
                let aty = nl.cell(av).ty;
                let z = nl.add(CellKind::Const(0), aty);
                let gated = nl.add(
                    CellKind::Mux {
                        sel: gate,
                        a: av,
                        b: z,
                    },
                    aty,
                );
                nl.add(
                    CellKind::RamRead {
                        ram: rams[mem.0 as usize],
                        addr: gated,
                    },
                    rv.ty,
                )
            }
        }
    }

    // Register next-value priority chains and RAM write ports.
    let mut reg_next: Vec<CellId> = regs.clone(); // default: hold
    let mut state_next: CellId = state_reg; // default: hold
    let mut done_next: CellId = done_reg;
    let mut ret_next: CellId = ret_reg.unwrap_or(zero);

    for (si, st) in f.states.iter().enumerate() {
        let in_state = eq_state(&mut nl, si as u32);
        let active = nl.add(
            CellKind::Bin(BinKind::And, in_state, not_done),
            IntType::u1(),
        );
        for action in &st.actions {
            let guard = match &action.guard {
                None => active,
                Some(g) => {
                    let gv = build_rv(&mut nl, &regs, &rams, &inputs, active, g);
                    nl.add(CellKind::Bin(BinKind::And, active, gv), IntType::u1())
                }
            };
            match &action.kind {
                ActionKind::SetReg(r, rv) => {
                    let v = build_rv(&mut nl, &regs, &rams, &inputs, guard, rv);
                    let prev = reg_next[r.0 as usize];
                    reg_next[r.0 as usize] = nl.add(
                        CellKind::Mux {
                            sel: guard,
                            a: v,
                            b: prev,
                        },
                        f.regs[r.0 as usize].ty,
                    );
                }
                ActionKind::MemWrite { mem, addr, value } => {
                    let av = build_rv(&mut nl, &regs, &rams, &inputs, guard, addr);
                    let vv = build_rv(&mut nl, &regs, &rams, &inputs, guard, value);
                    nl.add(
                        CellKind::RamWrite {
                            ram: rams[mem.0 as usize],
                            addr: av,
                            data: vv,
                            en: guard,
                        },
                        f.mems[mem.0 as usize].elem,
                    );
                }
            }
        }
        // Next-state logic.
        match &st.next {
            NextState::Goto(t) => {
                let tv = nl.add(CellKind::Const(t.0 as i64), state_ty);
                state_next = nl.add(
                    CellKind::Mux {
                        sel: active,
                        a: tv,
                        b: state_next,
                    },
                    state_ty,
                );
            }
            NextState::Branch { cond, then, els } => {
                let cv = build_rv(&mut nl, &regs, &rams, &inputs, active, cond);
                let tv = nl.add(CellKind::Const(then.0 as i64), state_ty);
                let ev = nl.add(CellKind::Const(els.0 as i64), state_ty);
                let pick = nl.add(
                    CellKind::Mux {
                        sel: cv,
                        a: tv,
                        b: ev,
                    },
                    state_ty,
                );
                state_next = nl.add(
                    CellKind::Mux {
                        sel: active,
                        a: pick,
                        b: state_next,
                    },
                    state_ty,
                );
            }
            NextState::Cases { cases, default } => {
                let mut pick = nl.add(CellKind::Const(default.0 as i64), state_ty);
                for (c, t) in cases.iter().rev() {
                    let cv = build_rv(&mut nl, &regs, &rams, &inputs, active, c);
                    let tv = nl.add(CellKind::Const(t.0 as i64), state_ty);
                    pick = nl.add(
                        CellKind::Mux {
                            sel: cv,
                            a: tv,
                            b: pick,
                        },
                        state_ty,
                    );
                }
                state_next = nl.add(
                    CellKind::Mux {
                        sel: active,
                        a: pick,
                        b: state_next,
                    },
                    state_ty,
                );
            }
            NextState::Done => {
                let one = nl.add(CellKind::Const(1), IntType::u1());
                done_next = nl.add(
                    CellKind::Mux {
                        sel: active,
                        a: one,
                        b: done_next,
                    },
                    IntType::u1(),
                );
                if let (Some(rr), Some(ret_rv)) = (ret_reg, f.ret.as_ref()) {
                    let v = build_rv(&mut nl, &regs, &rams, &inputs, active, ret_rv);
                    let _ = rr;
                    ret_next = nl.add(
                        CellKind::Mux {
                            sel: active,
                            a: v,
                            b: ret_next,
                        },
                        ret_rv.ty,
                    );
                }
            }
        }
    }

    // Patch register next inputs.
    let patch = |nl: &mut Netlist, reg: CellId, next: CellId| {
        if let CellKind::Reg { next: n, .. } = &mut nl.cells[reg.0 as usize].kind {
            *n = next;
        }
    };
    patch(&mut nl, state_reg, state_next);
    patch(&mut nl, done_reg, done_next);
    for (r, n) in regs.iter().zip(&reg_next) {
        patch(&mut nl, *r, *n);
    }
    if let Some(rr) = ret_reg {
        patch(&mut nl, rr, ret_next);
    }

    nl.set_output("done", done_reg);
    if let Some(rr) = ret_reg {
        nl.set_output("ret", rr);
    }
    nl.fold_constants();
    nl.sweep_dead();
    nl
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FsmdBuilder;
    use chls_ir::BinKind;

    fn ty32() -> IntType {
        IntType::new(32, true)
    }

    /// Hand-built 3-state counter: count to `limit`, return the count.
    fn counter() -> Fsmd {
        let ty = ty32();
        let mut b = FsmdBuilder::new("cnt");
        let limit = b.input("limit", ty, 0);
        let r = b.reg("r", ty, 0);
        let s0 = b.state();
        let s1 = b.state();
        let bump = b.add(b.get(r), Rv::konst(1, ty));
        let done = Rv {
            kind: RvKind::Bin(BinKind::Ge, Box::new(b.get(r)), Box::new(limit)),
            ty: IntType::new(1, false),
        };
        b.at(s0).set(r, bump).branch(done, s1, s0);
        b.at(s1).done();
        let ret = b.get(r);
        b.returning(ret).finish()
    }

    #[test]
    fn lowered_netlist_structure() {
        let f = counter();
        let nl = fsmd_to_netlist(&f);
        assert!(!nl.is_combinational());
        let names: Vec<&str> = nl.outputs.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"done"));
        assert!(names.contains(&"ret"));
        // Emits valid-looking Verilog too.
        let v = crate::verilog::netlist_to_verilog(&nl);
        assert!(v.contains("module cnt"), "{v}");
    }

    #[test]
    fn lowered_netlist_is_acyclic_combinationally() {
        let f = counter();
        let nl = fsmd_to_netlist(&f);
        // critical_path panics on combinational cycles.
        let m = crate::cost::CostModel::new();
        assert!(nl.critical_path(&m) > 0.0);
    }
}

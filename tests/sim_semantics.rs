//! Commit-semantics lock for the cycle-accurate simulators.
//!
//! These tests pin down the observable edge behavior of
//! [`chls_sim::netlist_sim::NetlistSim::step`] and
//! [`chls_sim::fsmd_sim::simulate`] — register enable gating, RAM-write
//! commit-at-edge ordering, guard-before-bounds-check evaluation, and
//! out-of-bounds errors — so the dense-state hot-path rewrite is provably
//! behavior-preserving.

use chls_frontend::IntType;
use chls_ir::BinKind;
use chls_rtl::builder::FsmdBuilder;
use chls_rtl::fsmd::Rv;
use chls_rtl::netlist::{CellId, CellKind, Netlist, Ram};
use chls_sim::fsmd_sim::{simulate, FsmdSimError};
use chls_sim::interp::ArgValue;
use chls_sim::netlist_sim::{NetlistSim, NetlistSimError};

fn u(w: u16) -> IntType {
    IntType::new(w, false)
}

fn i32t() -> IntType {
    IntType::new(32, true)
}

/// Adds a register whose `next` input is patched after allocation so it
/// can reference downstream cells.
fn reg_with_next(
    nl: &mut Netlist,
    ty: IntType,
    init: i64,
    en: Option<CellId>,
    next_of: impl FnOnce(&mut Netlist, CellId) -> CellId,
) -> CellId {
    let placeholder = nl.add(CellKind::Const(0), ty);
    let reg = nl.add(
        CellKind::Reg {
            next: placeholder,
            init,
            en,
        },
        ty,
    );
    let next = next_of(nl, reg);
    nl.cells[reg.0 as usize].kind = CellKind::Reg { next, init, en };
    reg
}

// ---------------------------------------------------------------------
// NetlistSim: registers
// ---------------------------------------------------------------------

#[test]
fn netlist_registers_swap_simultaneously() {
    // a <= b, b <= a: both next inputs sample pre-edge values.
    let mut nl = Netlist::new("swap");
    let a = nl.add(
        CellKind::Reg {
            next: CellId(0),
            init: 1,
            en: None,
        },
        u(8),
    );
    let b = nl.add(
        CellKind::Reg {
            next: a,
            init: 2,
            en: None,
        },
        u(8),
    );
    nl.cells[a.0 as usize].kind = CellKind::Reg {
        next: b,
        init: 1,
        en: None,
    };
    nl.set_output("a", a);
    nl.set_output("b", b);
    let mut sim = NetlistSim::new(&nl).unwrap();
    sim.step().unwrap();
    assert_eq!(sim.output("a").unwrap(), 2);
    assert_eq!(sim.output("b").unwrap(), 1);
    sim.step().unwrap();
    assert_eq!(sim.output("a").unwrap(), 1);
    assert_eq!(sim.output("b").unwrap(), 2);
}

#[test]
fn netlist_enable_gates_register_commit() {
    let mut nl = Netlist::new("en");
    let en = nl.add(CellKind::Input { name: "en".into() }, u(1));
    let reg = reg_with_next(&mut nl, u(8), 5, Some(en), |nl, reg| {
        let one = nl.add(CellKind::Const(1), u(8));
        nl.add(CellKind::Bin(BinKind::Add, reg, one), u(8))
    });
    nl.set_output("q", reg);
    let mut sim = NetlistSim::new(&nl).unwrap();
    sim.set_input("en", 0);
    sim.step().unwrap();
    sim.step().unwrap();
    assert_eq!(sim.output("q").unwrap(), 5, "disabled register must hold");
    sim.set_input("en", 1);
    sim.step().unwrap();
    assert_eq!(sim.output("q").unwrap(), 6);
    sim.set_input("en", 0);
    sim.step().unwrap();
    assert_eq!(
        sim.output("q").unwrap(),
        6,
        "re-disabled register holds again"
    );
}

#[test]
fn netlist_register_init_canonicalized_to_width() {
    // init = 300 in an 8-bit register reads back as 300 & 0xFF = 44.
    let mut nl = Netlist::new("init");
    let reg = reg_with_next(&mut nl, u(8), 300, None, |_, reg| reg);
    nl.set_output("q", reg);
    let sim = NetlistSim::new(&nl).unwrap();
    assert_eq!(sim.output("q").unwrap(), 44);
}

#[test]
fn netlist_eval_does_not_advance_state() {
    let mut nl = Netlist::new("idem");
    let reg = reg_with_next(&mut nl, u(8), 0, None, |nl, reg| {
        let one = nl.add(CellKind::Const(1), u(8));
        nl.add(CellKind::Bin(BinKind::Add, reg, one), u(8))
    });
    nl.set_output("q", reg);
    let mut sim = NetlistSim::new(&nl).unwrap();
    for _ in 0..5 {
        assert_eq!(
            sim.output("q").unwrap(),
            0,
            "reading outputs must not clock"
        );
    }
    sim.step().unwrap();
    for _ in 0..5 {
        assert_eq!(sim.output("q").unwrap(), 1);
    }
}

// ---------------------------------------------------------------------
// NetlistSim: RAM commit ordering
// ---------------------------------------------------------------------

#[test]
fn netlist_ram_write_commits_at_edge_not_before() {
    let mut nl = Netlist::new("edge");
    let ram = nl.add_ram(Ram {
        name: "m".into(),
        elem: u(8),
        len: 4,
        init: Some(vec![9, 9, 9, 9]),
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
    let one = nl.add(CellKind::Const(1), u(1));
    nl.add(
        CellKind::RamWrite {
            ram,
            addr,
            data,
            en: one,
        },
        u(8),
    );
    let rd = nl.add(CellKind::RamRead { ram, addr }, u(8));
    nl.set_output("rd", rd);
    let mut sim = NetlistSim::new(&nl).unwrap();
    sim.set_input("addr", 1);
    sim.set_input("data", 55);
    // The async read port races the write within the cycle: it must see
    // the OLD contents until the edge.
    assert_eq!(sim.output("rd").unwrap(), 9);
    sim.step().unwrap();
    assert_eq!(sim.output("rd").unwrap(), 55);
    assert_eq!(sim.ram(0), &[9, 55, 9, 9]);
}

#[test]
fn netlist_conflicting_ram_writes_last_cell_wins() {
    // Two enabled write ports to the same address in the same cycle:
    // commit order is cell-index order, so the later cell's data lands.
    let mut nl = Netlist::new("conflict");
    let ram = nl.add_ram(Ram {
        name: "m".into(),
        elem: u(8),
        len: 2,
        init: None,
    });
    let addr = nl.add(CellKind::Const(0), u(8));
    let d1 = nl.add(CellKind::Const(11), u(8));
    let d2 = nl.add(CellKind::Const(22), u(8));
    let one = nl.add(CellKind::Const(1), u(1));
    nl.add(
        CellKind::RamWrite {
            ram,
            addr,
            data: d1,
            en: one,
        },
        u(8),
    );
    nl.add(
        CellKind::RamWrite {
            ram,
            addr,
            data: d2,
            en: one,
        },
        u(8),
    );
    let rd = nl.add(CellKind::RamRead { ram, addr }, u(8));
    nl.set_output("rd", rd);
    let mut sim = NetlistSim::new(&nl).unwrap();
    sim.step().unwrap();
    assert_eq!(sim.output("rd").unwrap(), 22);
}

#[test]
fn netlist_disabled_ram_write_neither_commits_nor_bounds_checks() {
    // en = 0 suppresses the write entirely — even an out-of-range
    // address must not error, matching a disabled hardware port.
    let mut nl = Netlist::new("dis");
    let ram = nl.add_ram(Ram {
        name: "m".into(),
        elem: u(8),
        len: 2,
        init: None,
    });
    let addr = nl.add(CellKind::Const(99), u(8));
    let data = nl.add(CellKind::Const(1), u(8));
    let zero = nl.add(CellKind::Const(0), u(1));
    nl.add(
        CellKind::RamWrite {
            ram,
            addr,
            data,
            en: zero,
        },
        u(8),
    );
    let a0 = nl.add(CellKind::Const(0), u(8));
    let rd = nl.add(CellKind::RamRead { ram, addr: a0 }, u(8));
    nl.set_output("rd", rd);
    let mut sim = NetlistSim::new(&nl).unwrap();
    sim.step().unwrap();
    assert_eq!(sim.output("rd").unwrap(), 0);
    assert_eq!(sim.ram(0), &[0, 0]);
}

#[test]
fn netlist_ram_data_canonicalized_to_element_width() {
    let mut nl = Netlist::new("canon");
    let ram = nl.add_ram(Ram {
        name: "m".into(),
        elem: u(4),
        len: 2,
        init: None,
    });
    let addr = nl.add(CellKind::Const(1), u(8));
    let data = nl.add(CellKind::Input { name: "d".into() }, u(8));
    let one = nl.add(CellKind::Const(1), u(1));
    nl.add(
        CellKind::RamWrite {
            ram,
            addr,
            data,
            en: one,
        },
        u(8),
    );
    let rd = nl.add(CellKind::RamRead { ram, addr }, u(8));
    nl.set_output("rd", rd);
    let mut sim = NetlistSim::new(&nl).unwrap();
    sim.set_input("d", 0xAB);
    sim.step().unwrap();
    assert_eq!(sim.output("rd").unwrap(), 0xB, "stored word masked to u4");
}

// ---------------------------------------------------------------------
// NetlistSim: out-of-bounds errors
// ---------------------------------------------------------------------

#[test]
fn netlist_oob_read_and_write_report_ram_name() {
    for (addr_val, check_write) in [(4i64, false), (-1, false), (4, true), (-1, true)] {
        let mut nl = Netlist::new("oob");
        let ram = nl.add_ram(Ram {
            name: "buf".into(),
            elem: u(8),
            len: 4,
            init: None,
        });
        let addr = nl.add(
            CellKind::Input {
                name: "addr".into(),
            },
            IntType::new(8, true),
        );
        if check_write {
            let data = nl.add(CellKind::Const(1), u(8));
            let one = nl.add(CellKind::Const(1), u(1));
            nl.add(
                CellKind::RamWrite {
                    ram,
                    addr,
                    data,
                    en: one,
                },
                u(8),
            );
            let c0 = nl.add(CellKind::Const(0), u(8));
            nl.set_output("o", c0);
        } else {
            let rd = nl.add(CellKind::RamRead { ram, addr }, u(8));
            nl.set_output("o", rd);
        }
        let mut sim = NetlistSim::new(&nl).unwrap();
        sim.set_input("addr", addr_val);
        let err = sim.step().unwrap_err();
        match err {
            NetlistSimError::OutOfBounds { ram, addr, len } => {
                assert_eq!(ram, "buf");
                assert_eq!(addr, addr_val);
                assert_eq!(len, 4);
            }
            other => panic!("expected OutOfBounds, got {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------
// FSMD simulator semantics
// ---------------------------------------------------------------------

#[test]
fn fsmd_actions_commit_simultaneously() {
    // par { a = b; b = a; } — the Handel-C swap.
    let mut b = FsmdBuilder::new("swap");
    let a = b.reg("a", i32t(), 3);
    let bb = b.reg("b", i32t(), 7);
    let s0 = b.state();
    let s1 = b.state();
    let (old_a, old_b) = (b.get(a), b.get(bb));
    b.at(s0).set(a, old_b).set(bb, old_a).goto(s1);
    b.at(s1).done();
    let result = b.get(a);
    let f = b.returning(result).finish();
    let out = simulate(&f, &[], 100).unwrap();
    // ret samples in s1 pre-commit of s1 (which commits nothing), after
    // s0's swap: a holds the old b.
    assert_eq!(out.ret, Some(7));
}

#[test]
fn fsmd_guard_false_suppresses_oob_write() {
    // A guarded write whose guard is 0 must not evaluate addr/value for
    // bounds purposes — the seed semantics short-circuit on the guard.
    let ty = i32t();
    let mut b = FsmdBuilder::new("gw");
    let mem = b.mem("buf", ty, 4);
    let s0 = b.state();
    b.at(s0)
        .write_if(
            Rv::konst(0, IntType::new(1, false)),
            mem,
            Rv::konst(99, ty),
            Rv::konst(1, ty),
        )
        .done();
    let f = b.finish();
    let out = simulate(&f, &[], 100).unwrap();
    assert_eq!(out.mems[0], vec![0, 0, 0, 0]);
}

#[test]
fn fsmd_guard_true_oob_write_errors() {
    let ty = i32t();
    let mut b = FsmdBuilder::new("gw2");
    let mem = b.mem("buf", ty, 4);
    let s0 = b.state();
    b.at(s0)
        .write_if(
            Rv::konst(1, IntType::new(1, false)),
            mem,
            Rv::konst(99, ty),
            Rv::konst(1, ty),
        )
        .done();
    let f = b.finish();
    let err = simulate(&f, &[], 100).unwrap_err();
    assert!(matches!(
        err,
        FsmdSimError::OutOfBounds {
            addr: 99,
            len: 4,
            ..
        }
    ));
}

#[test]
fn fsmd_mux_untaken_branch_not_evaluated() {
    // sel ? mem[0] : mem[99] with sel = 1: the OOB read on the untaken
    // side must not fire (short-circuit mux evaluation).
    let ty = i32t();
    let mut b = FsmdBuilder::new("mux");
    let mem = b.rom("tab", ty, vec![5, 6]);
    let r = b.reg("r", ty, 0);
    let s0 = b.state();
    let s1 = b.state();
    let safe = b.read(mem, Rv::konst(0, ty));
    let oob = b.read(mem, Rv::konst(99, ty));
    let sel = b.konst(1, IntType::new(1, false));
    let v = b.mux(sel, safe, oob);
    b.at(s0).set(r, v).goto(s1);
    b.at(s1).done();
    let result = b.get(r);
    let f = b.returning(result).finish();
    let out = simulate(&f, &[], 100).unwrap();
    assert_eq!(out.ret, Some(5));
}

#[test]
fn fsmd_mux_taken_oob_branch_still_errors() {
    let ty = i32t();
    let mut b = FsmdBuilder::new("mux2");
    let mem = b.rom("tab", ty, vec![5, 6]);
    let r = b.reg("r", ty, 0);
    let s0 = b.state();
    let safe = b.read(mem, Rv::konst(0, ty));
    let oob = b.read(mem, Rv::konst(99, ty));
    let sel = b.konst(0, IntType::new(1, false));
    let v = b.mux(sel, safe, oob);
    b.at(s0).set(r, v).done();
    let f = b.finish();
    assert!(matches!(
        simulate(&f, &[], 100).unwrap_err(),
        FsmdSimError::OutOfBounds { addr: 99, .. }
    ));
}

#[test]
fn fsmd_conflicting_writes_last_action_wins() {
    // Two writes to the same address in one state commit in action
    // order: the later action's value survives.
    let ty = i32t();
    let mut b = FsmdBuilder::new("ww");
    let mem = b.mem("buf", ty, 2);
    let s0 = b.state();
    b.at(s0)
        .write(mem, Rv::konst(0, ty), Rv::konst(10, ty))
        .write(mem, Rv::konst(0, ty), Rv::konst(20, ty))
        .done();
    let f = b.finish();
    let out = simulate(&f, &[], 100).unwrap();
    assert_eq!(out.mems[0], vec![20, 0]);
}

#[test]
fn fsmd_conflicting_reg_sets_last_action_wins() {
    let ty = i32t();
    let mut b = FsmdBuilder::new("rr");
    let r = b.reg("r", ty, 0);
    let s0 = b.state();
    let s1 = b.state();
    b.at(s0)
        .set(r, Rv::konst(1, ty))
        .set(r, Rv::konst(2, ty))
        .goto(s1);
    b.at(s1).done();
    let result = b.get(r);
    let f = b.returning(result).finish();
    let out = simulate(&f, &[], 100).unwrap();
    assert_eq!(out.ret, Some(2));
}

#[test]
fn fsmd_branch_condition_reads_pre_commit_values() {
    // s0 sets r = 1 and branches on (r == 1) in the SAME cycle: the
    // branch must see the old r (0), so it goes to the else target.
    let ty = i32t();
    let mut b = FsmdBuilder::new("br");
    let r = b.reg("r", ty, 0);
    let flag = b.reg("flag", ty, 0);
    let s0 = b.state();
    let s_then = b.state();
    let s_els = b.state();
    let cond = b.eq(b.get(r), Rv::konst(1, ty));
    b.at(s0)
        .set(r, Rv::konst(1, ty))
        .branch(cond, s_then, s_els);
    b.at(s_then).set(flag, Rv::konst(100, ty)).done();
    b.at(s_els).set(flag, Rv::konst(200, ty)).done();
    let result = b.get(flag);
    let f = b.returning(result).finish();
    let out = simulate(&f, &[], 100).unwrap();
    // Done-state return samples flag pre-commit, so look at cycles to
    // know the path: s0 -> s_els is 2 cycles.
    assert_eq!(out.cycles, 2);
    assert_eq!(out.ret, Some(0), "ret samples pre-commit in the done state");
}

#[test]
fn fsmd_memory_param_binding_and_writeback() {
    let ty = i32t();
    let mut b = FsmdBuilder::new("wb");
    let mem = b.mem("a", ty, 4);
    let s0 = b.state();
    b.at(s0)
        .write(mem, Rv::konst(3, ty), Rv::konst(-7, ty))
        .done();
    let mut f = b.finish();
    f.mems[0].param_index = Some(0);
    let out = simulate(&f, &[ArgValue::Array(vec![1, 2, 3, 4])], 100).unwrap();
    assert_eq!(out.mems[0], vec![1, 2, 3, -7]);
}

#[test]
fn fsmd_cycle_limit_exact_boundary() {
    // A machine that finishes in exactly `max_cycles` cycles must pass;
    // one fewer budget cycle must fail.
    let mut b = FsmdBuilder::new("bound");
    let s: Vec<_> = (0..4).map(|_| b.state()).collect();
    for w in s.windows(2) {
        b.at(w[0]).goto(w[1]);
    }
    b.at(s[3]).done();
    let f = b.finish();
    assert_eq!(simulate(&f, &[], 4).unwrap().cycles, 4);
    assert!(matches!(
        simulate(&f, &[], 3).unwrap_err(),
        FsmdSimError::CycleLimit(3)
    ));
}

/// The mask-and-branch definition `IntType::canonicalize` had before it
/// became a shift pair: truncate to the width, then sign-extend by
/// testing the sign bit. Kept here as the oracle.
fn canonicalize_oracle(ty: IntType, v: i64) -> i64 {
    let mask = if ty.width == 64 {
        u64::MAX
    } else {
        (1u64 << ty.width) - 1
    };
    let bits = (v as u64) & mask;
    if ty.signed && ty.width < 64 && bits & (1u64 << (ty.width - 1)) != 0 {
        (bits | !mask) as i64
    } else {
        bits as i64
    }
}

#[test]
fn canonicalize_matches_mask_and_branch_oracle() {
    // Boundary values per width: 0, ±1, 2^(w-1)±1, 2^w±1 (and the
    // powers themselves), and the extremes of i64.
    let boundaries = |w: u16| {
        let mut vs = vec![0i64, 1, -1, i64::MIN, i64::MAX];
        for p in [w - 1, w] {
            let pow = 1i64.wrapping_shl(u32::from(p));
            for d in [-1i64, 0, 1] {
                vs.push(pow.wrapping_add(d));
                vs.push(pow.wrapping_add(d).wrapping_neg());
            }
        }
        vs
    };
    // A seeded stream (splitmix64), shifted right by a varying amount so
    // small magnitudes are as common as full-width ones.
    let mut state = 0x5EED_CA11_u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut checked = 0usize;
    for w in 1..=64u16 {
        for signed in [false, true] {
            let ty = IntType::new(w, signed);
            let stream: Vec<i64> = (0..256)
                .map(|_| {
                    let r = next();
                    (r as i64) >> (r % 64)
                })
                .collect();
            for v in boundaries(w).into_iter().chain(stream) {
                assert_eq!(
                    ty.canonicalize(v),
                    canonicalize_oracle(ty, v),
                    "{ty} canonicalize({v:#x})"
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 128 * 256, "only {checked} values checked");
}

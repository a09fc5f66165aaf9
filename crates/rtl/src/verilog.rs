//! Verilog-2001 emission for netlists and FSMDs.
//!
//! Netlists emit structurally (one `assign`/`always` per cell); FSMDs emit
//! the classic two-process style (combinational next-state/datapath `case`
//! plus a clocked commit process). Handshake: designs start on `start` and
//! raise `done` with the return value held on `ret`.

use crate::fsmd::{ActionKind, Fsmd, NextState, Rv, RvKind};
use crate::netlist::{CellKind, Netlist};
use chls_frontend::IntType;
use chls_ir::{BinKind, UnKind};
use std::fmt::Write;

fn vrange(ty: IntType) -> String {
    if ty.width == 1 {
        String::new()
    } else {
        format!("[{}:0] ", ty.width - 1)
    }
}

fn vconst(v: i64, ty: IntType) -> String {
    let bits = (v as u64) & ty.mask();
    format!("{}'h{bits:x}", ty.width)
}

fn bin_op_str(op: BinKind, signed: bool) -> &'static str {
    match op {
        BinKind::Add => "+",
        BinKind::Sub => "-",
        BinKind::Mul => "*",
        BinKind::Div => "/",
        BinKind::Rem => "%",
        BinKind::Shl => "<<",
        BinKind::Shr => {
            if signed {
                ">>>"
            } else {
                ">>"
            }
        }
        BinKind::And => "&",
        BinKind::Or => "|",
        BinKind::Xor => "^",
        BinKind::Eq => "==",
        BinKind::Ne => "!=",
        BinKind::Lt => "<",
        BinKind::Le => "<=",
        BinKind::Gt => ">",
        BinKind::Ge => ">=",
    }
}

fn sign_wrap(expr: &str, signed: bool) -> String {
    if signed {
        format!("$signed({expr})")
    } else {
        expr.to_string()
    }
}

/// Emits structural Verilog for a netlist.
pub fn netlist_to_verilog(nl: &Netlist) -> String {
    let mut s = String::new();
    let mut ports: Vec<String> = vec!["clk".to_string()];
    for c in &nl.cells {
        if let CellKind::Input { name } = &c.kind {
            ports.push(name.clone());
        }
    }
    for (name, _) in &nl.outputs {
        ports.push(name.clone());
    }
    let _ = writeln!(s, "module {} (", nl.name);
    let _ = writeln!(s, "  input wire clk,");
    let mut first_decls = Vec::new();
    for c in &nl.cells {
        if let CellKind::Input { name } = &c.kind {
            first_decls.push(format!("  input wire {}{}", vrange(c.ty), name));
        }
    }
    for (name, net) in &nl.outputs {
        first_decls.push(format!(
            "  output wire {}{}",
            vrange(nl.cell(*net).ty),
            name
        ));
    }
    let _ = writeln!(s, "{}", first_decls.join(",\n"));
    let _ = writeln!(s, ");");

    // Declarations.
    for (i, c) in nl.cells.iter().enumerate() {
        match &c.kind {
            CellKind::Input { .. } => {}
            CellKind::Reg { .. } => {
                let _ = writeln!(s, "  reg {}n{i};", vrange(c.ty));
            }
            _ => {
                let _ = writeln!(s, "  wire {}n{i};", vrange(c.ty));
            }
        }
    }
    for (ri, r) in nl.rams.iter().enumerate() {
        let _ = writeln!(
            s,
            "  reg {}ram{ri} [0:{}]; // {}",
            vrange(r.elem),
            r.len.saturating_sub(1),
            r.name
        );
        if let Some(init) = &r.init {
            let _ = writeln!(s, "  initial begin");
            for (j, v) in init.iter().enumerate() {
                let _ = writeln!(s, "    ram{ri}[{j}] = {};", vconst(*v, r.elem));
            }
            let _ = writeln!(s, "  end");
        }
    }

    // Cell logic.
    let name_of = |id: crate::netlist::CellId| -> String {
        match &nl.cell(id).kind {
            CellKind::Input { name } => name.clone(),
            _ => format!("n{}", id.0),
        }
    };
    for (i, c) in nl.cells.iter().enumerate() {
        match &c.kind {
            CellKind::Input { .. } => {}
            CellKind::Const(v) => {
                let _ = writeln!(s, "  assign n{i} = {};", vconst(*v, c.ty));
            }
            CellKind::Un(UnKind::Neg, a) => {
                let _ = writeln!(s, "  assign n{i} = -{};", name_of(*a));
            }
            CellKind::Un(UnKind::Not, a) => {
                let _ = writeln!(s, "  assign n{i} = ~{};", name_of(*a));
            }
            CellKind::Bin(op, a, b) => {
                let signed = if op.is_comparison() {
                    nl.cell(*a).ty.signed
                } else {
                    c.ty.signed
                };
                let (sa, sb) = (
                    sign_wrap(&name_of(*a), signed),
                    sign_wrap(&name_of(*b), signed),
                );
                let sb = if matches!(op, BinKind::Shl | BinKind::Shr) {
                    name_of(*b)
                } else {
                    sb
                };
                let _ = writeln!(s, "  assign n{i} = {sa} {} {sb};", bin_op_str(*op, signed));
            }
            CellKind::Mux { sel, a, b } => {
                let _ = writeln!(
                    s,
                    "  assign n{i} = {} ? {} : {};",
                    name_of(*sel),
                    name_of(*a),
                    name_of(*b)
                );
            }
            CellKind::Cast { from, val } => {
                let inner = if from.signed && c.ty.width > from.width {
                    format!(
                        "{{{{{}{{{}[{}]}}}}, {}}}",
                        c.ty.width - from.width,
                        name_of(*val),
                        from.width - 1,
                        name_of(*val)
                    )
                } else {
                    name_of(*val)
                };
                let _ = writeln!(s, "  assign n{i} = {inner};");
            }
            CellKind::Reg { next, en, init } => {
                let _ = writeln!(s, "  initial n{i} = {};", vconst(*init, c.ty));
                let _ = writeln!(s, "  always @(posedge clk)");
                match en {
                    Some(e) => {
                        let _ = writeln!(s, "    if ({}) n{i} <= {};", name_of(*e), name_of(*next));
                    }
                    None => {
                        let _ = writeln!(s, "    n{i} <= {};", name_of(*next));
                    }
                }
            }
            CellKind::RamRead { ram, addr } => {
                let _ = writeln!(s, "  assign n{i} = ram{}[{}];", ram.0, name_of(*addr));
            }
            CellKind::RamWrite {
                ram,
                addr,
                data,
                en,
            } => {
                let _ = writeln!(s, "  always @(posedge clk)");
                let _ = writeln!(
                    s,
                    "    if ({}) ram{}[{}] <= {};",
                    name_of(*en),
                    ram.0,
                    name_of(*addr),
                    name_of(*data)
                );
            }
        }
    }
    for (name, net) in &nl.outputs {
        let _ = writeln!(s, "  assign {name} = {};", name_of(*net));
    }
    let _ = writeln!(s, "endmodule");
    s
}

/// Emits two-process behavioral Verilog for an FSMD.
pub fn fsmd_to_verilog(f: &Fsmd) -> String {
    let mut s = String::new();
    let state_bits = (usize::BITS - (f.states.len().max(2) - 1).leading_zeros()) as u16;
    let _ = writeln!(s, "module {} (", f.name);
    let _ = writeln!(s, "  input wire clk,");
    let _ = writeln!(s, "  input wire start,");
    for (name, ty) in &f.inputs {
        let _ = writeln!(s, "  input wire {}{},", vrange(*ty), name);
    }
    let _ = writeln!(s, "  output reg done");
    if let Some(ret) = &f.ret {
        let _ = writeln!(s, "  , output reg {}ret", vrange(ret.ty));
    }
    let _ = writeln!(s, ");");
    let _ = writeln!(s, "  reg [{}:0] state;", state_bits.max(1) - 1);
    for r in &f.regs {
        let _ = writeln!(s, "  reg {}{};", vrange(r.ty), sanitize(&r.name));
    }
    for (mi, m) in f.mems.iter().enumerate() {
        let _ = writeln!(
            s,
            "  reg {}mem{mi} [0:{}]; // {}",
            vrange(m.elem),
            m.len.saturating_sub(1),
            m.name
        );
        if let Some(rom) = &m.rom {
            let _ = writeln!(s, "  initial begin");
            for (j, v) in rom.iter().enumerate() {
                let _ = writeln!(s, "    mem{mi}[{j}] = {};", vconst(*v, m.elem));
            }
            let _ = writeln!(s, "  end");
        }
    }

    let _ = writeln!(s, "  always @(posedge clk) begin");
    let _ = writeln!(s, "    if (start) begin");
    let _ = writeln!(s, "      state <= {};", f.entry.0);
    let _ = writeln!(s, "      done <= 1'b0;");
    for r in &f.regs {
        let _ = writeln!(
            s,
            "      {} <= {};",
            sanitize(&r.name),
            vconst(r.init, r.ty)
        );
    }
    let _ = writeln!(s, "    end else if (!done) begin");
    let _ = writeln!(s, "      case (state)");
    for (si, st) in f.states.iter().enumerate() {
        let _ = writeln!(s, "        {}: begin", si);
        for a in &st.actions {
            let guard = a
                .guard
                .as_ref()
                .map(|g| format!("if ({}) ", rv_expr(f, g)))
                .unwrap_or_default();
            match &a.kind {
                ActionKind::SetReg(r, rv) => {
                    let _ = writeln!(
                        s,
                        "          {guard}{} <= {};",
                        sanitize(&f.regs[r.0 as usize].name),
                        rv_expr(f, rv)
                    );
                }
                ActionKind::MemWrite { mem, addr, value } => {
                    let _ = writeln!(
                        s,
                        "          {guard}mem{}[{}] <= {};",
                        mem.0,
                        rv_expr(f, addr),
                        rv_expr(f, value)
                    );
                }
            }
        }
        match &st.next {
            NextState::Goto(t) => {
                let _ = writeln!(s, "          state <= {};", t.0);
            }
            NextState::Branch { cond, then, els } => {
                let _ = writeln!(
                    s,
                    "          state <= ({}) ? {} : {};",
                    rv_expr(f, cond),
                    then.0,
                    els.0
                );
            }
            NextState::Cases { cases, default } => {
                let mut expr = format!("{}", default.0);
                for (c, t) in cases.iter().rev() {
                    expr = format!("({}) ? {} : ({expr})", rv_expr(f, c), t.0);
                }
                let _ = writeln!(s, "          state <= {expr};");
            }
            NextState::Done => {
                let _ = writeln!(s, "          done <= 1'b1;");
                if let Some(ret) = &f.ret {
                    let _ = writeln!(s, "          ret <= {};", rv_expr(f, ret));
                }
            }
        }
        let _ = writeln!(s, "        end");
    }
    let _ = writeln!(s, "      endcase");
    let _ = writeln!(s, "    end");
    let _ = writeln!(s, "  end");
    let _ = writeln!(s, "endmodule");
    s
}

fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out
        .chars()
        .next()
        .map(|c| c.is_ascii_digit())
        .unwrap_or(true)
    {
        out.insert(0, '_');
    }
    out
}

fn rv_expr(f: &Fsmd, rv: &Rv) -> String {
    match &rv.kind {
        RvKind::Const(v) => vconst(*v, rv.ty),
        RvKind::Reg(r) => sanitize(&f.regs[r.0 as usize].name),
        RvKind::Input(i) => f.inputs[*i].0.clone(),
        RvKind::Un(UnKind::Neg, a) => format!("(-{})", rv_expr(f, a)),
        RvKind::Un(UnKind::Not, a) => format!("(~{})", rv_expr(f, a)),
        RvKind::Bin(op, a, b) => {
            let signed = if op.is_comparison() {
                a.ty.signed
            } else {
                rv.ty.signed
            };
            let sa = sign_wrap(&rv_expr(f, a), signed);
            let sb = if matches!(op, BinKind::Shl | BinKind::Shr) {
                rv_expr(f, b)
            } else {
                sign_wrap(&rv_expr(f, b), signed)
            };
            format!("({sa} {} {sb})", bin_op_str(*op, signed))
        }
        RvKind::Mux(sel, a, b) => format!(
            "({} ? {} : {})",
            rv_expr(f, sel),
            rv_expr(f, a),
            rv_expr(f, b)
        ),
        RvKind::Cast(a) => rv_expr(f, a),
        RvKind::MemRead { mem, addr } => format!("mem{}[{}]", mem.0, rv_expr(f, addr)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsmd::NextState;
    use chls_ir::BinKind;

    fn u(w: u16) -> IntType {
        IntType::new(w, false)
    }

    #[test]
    fn netlist_emits_module_with_ports() {
        let mut nl = Netlist::new("adder");
        let a = nl.add(CellKind::Input { name: "a".into() }, u(8));
        let b = nl.add(CellKind::Input { name: "b".into() }, u(8));
        let sum = nl.add(CellKind::Bin(BinKind::Add, a, b), u(8));
        nl.set_output("sum", sum);
        let v = netlist_to_verilog(&nl);
        assert!(v.contains("module adder"), "{v}");
        assert!(v.contains("input wire [7:0] a"), "{v}");
        assert!(v.contains("output wire [7:0] sum"), "{v}");
        assert!(v.contains("assign n2 = a + b;"), "{v}");
        assert!(v.contains("endmodule"), "{v}");
    }

    #[test]
    fn signed_comparison_uses_signed() {
        let mut nl = Netlist::new("c");
        let a = nl.add(CellKind::Input { name: "a".into() }, IntType::new(8, true));
        let b = nl.add(CellKind::Input { name: "b".into() }, IntType::new(8, true));
        let lt = nl.add(CellKind::Bin(BinKind::Lt, a, b), u(1));
        nl.set_output("lt", lt);
        let v = netlist_to_verilog(&nl);
        assert!(v.contains("$signed(a) < $signed(b)"), "{v}");
    }

    #[test]
    fn register_emits_clocked_always() {
        let mut nl = Netlist::new("r");
        let d = nl.add(CellKind::Input { name: "d".into() }, u(4));
        let q = nl.add(
            CellKind::Reg {
                next: d,
                init: 5,
                en: None,
            },
            u(4),
        );
        nl.set_output("q", q);
        let v = netlist_to_verilog(&nl);
        assert!(v.contains("always @(posedge clk)"), "{v}");
        assert!(v.contains("n1 <= d;"), "{v}");
        assert!(v.contains("initial n1 = 4'h5;"), "{v}");
    }

    #[test]
    fn fsmd_emits_case_machine() {
        let mut f = Fsmd::new("count");
        let ty = IntType::new(8, false);
        let r = f.add_reg("r", ty, 0);
        let s0 = f.add_state();
        f.state_mut(s0).actions.push(crate::fsmd::Action::set(
            r,
            Rv::bin(BinKind::Add, ty, Rv::reg(r, ty), Rv::konst(1, ty)),
        ));
        f.state_mut(s0).next = NextState::Done;
        f.ret = Some(Rv::reg(r, ty));
        let v = fsmd_to_verilog(&f);
        assert!(v.contains("module count"), "{v}");
        assert!(v.contains("case (state)"), "{v}");
        assert!(v.contains("r <= (r + 8'h1);"), "{v}");
        assert!(v.contains("done <= 1'b1;"), "{v}");
        assert!(v.contains("ret <= r;"), "{v}");
    }

    #[test]
    fn rom_initialized_in_verilog() {
        let mut f = Fsmd::new("rom");
        f.add_mem(crate::fsmd::FsmdMem {
            name: "t".into(),
            elem: u(8),
            len: 3,
            rom: Some(vec![1, 2, 3]),
            param_index: None,
        });
        let s = f.add_state();
        f.state_mut(s).next = NextState::Done;
        let v = fsmd_to_verilog(&f);
        assert!(v.contains("mem0[0] = 8'h1;"), "{v}");
        assert!(v.contains("mem0[2] = 8'h3;"), "{v}");
    }

    #[test]
    fn sanitize_identifier() {
        assert_eq!(sanitize("$t0"), "_t0");
        assert_eq!(sanitize("a b"), "a_b");
        assert_eq!(sanitize("3x"), "_3x");
    }
}

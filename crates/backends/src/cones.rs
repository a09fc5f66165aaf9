//! The Cones backend.
//!
//! Stroud, Munoz & Pierce's Cones (1988) "synthesized each function in a
//! combinational block": a strict C subset where loops are fully unrolled,
//! calls flattened, conditionals become multiplexers, and arrays become
//! bit vectors — producing one clockless network per function.
//!
//! This backend reproduces that pipeline: full inlining and unrolling,
//! pointer elimination, then *predicated flattening* of the (acyclic) CFG
//! into a word-level netlist. Memories are **scalarized** — every array
//! element is an individual net; loads become mux trees over the elements
//! and stores become per-element enables — which is precisely why
//! experiment E7's area explodes with trip count and array size.

use crate::common::*;
use chls_frontend::IntType;
use chls_ir::ir::{BlockId, Function, InstKind, MemSource, Term, Value};
use chls_ir::BinKind;
use chls_rtl::netlist::{CellId, CellKind, Netlist};
use std::collections::HashMap;

/// The Cones backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cones;

impl Backend for Cones {
    fn info(&self) -> BackendInfo {
        BackendInfo {
            name: "cones",
            models: "Cones (Stroud, Munoz & Pierce)",
            year: 1988,
            comment: "Early, combinational only",
            concurrency: ConcurrencyModel::CompilerDriven,
            timing: TimingModel::Combinational,
            pointers: true,
            data_dependent_loops: false,
            parallel_constructs: false,
            reads_pipeline: false,
            reads_narrow: true,
        }
    }

    fn synthesize(
        &self,
        prep: &Preparer,
        entry: &str,
        opts: &SynthOptions,
    ) -> Result<Design, SynthError> {
        let prepared = prep.sequential(entry, true, opts.narrow_widths, opts.unroll_factor)?;
        let f = &prepared.func;
        // Any remaining loop is fatal: Cones has no clock to wait with.
        let loops = chls_ir::loops::LoopForest::compute(f);
        if !loops.loops.is_empty() {
            let why = prepared
                .unroll_stats
                .skipped
                .first()
                .cloned()
                .unwrap_or_else(|| "loop with unknown bounds".to_string());
            return Err(SynthError::Loop(format!(
                "cones requires fully unrollable loops: {why}"
            )));
        }
        let nl = flatten(f)?;
        Ok(Design::Comb(nl))
    }
}

/// Name of the `i`-th scalar input port.
pub fn scalar_port(i: usize) -> String {
    format!("arg{i}")
}

/// Name of element `j` of array parameter `i`'s input port.
pub fn array_port(i: usize, j: usize) -> String {
    format!("arg{i}_{j}")
}

/// Name of element `j` of array parameter `i`'s output port.
pub fn array_out_port(i: usize, j: usize) -> String {
    format!("out{i}_{j}")
}

/// Predicated flattening of an acyclic CFG into a combinational netlist.
fn flatten(f: &Function) -> Result<Netlist, SynthError> {
    let mut nl = Netlist::new(f.name.clone());
    let rpo = f.reverse_postorder();
    let preds = f.predecessors();

    // Memory state at each block's exit, by `BlockId`: mems[m] = element
    // cells.
    let mut mem_out: Vec<Vec<Vec<CellId>>> = vec![Vec::new(); f.blocks.len()];
    // Edge predicates, and each value's cell by `Value`.
    let mut edge_pred: HashMap<(BlockId, BlockId), CellId> = HashMap::new();
    let mut values: Vec<Option<CellId>> = vec![None; f.insts.len()];

    // Initial memory contents.
    let mut init_mems: Vec<Vec<CellId>> = Vec::new();
    for (mi, m) in f.mems.iter().enumerate() {
        let mut elems = Vec::with_capacity(m.len);
        match (&m.source, &m.rom) {
            (_, Some(rom)) => {
                for j in 0..m.len {
                    let v = rom.get(j).copied().unwrap_or(0);
                    elems.push(nl.add(CellKind::Const(v), m.elem));
                }
            }
            (MemSource::Param(p), None) => {
                for j in 0..m.len {
                    elems.push(nl.add(
                        CellKind::Input {
                            name: array_port(*p, j),
                        },
                        m.elem,
                    ));
                }
            }
            (_, None) => {
                for _ in 0..m.len {
                    elems.push(nl.add(CellKind::Const(0), m.elem));
                }
            }
        }
        let _ = mi;
        init_mems.push(elems);
    }

    let true_cell = nl.add(CellKind::Const(1), IntType::u1());
    // Return accumulation: (pred, value, mem state) per ret block.
    let mut rets: Vec<(CellId, Option<CellId>, Vec<Vec<CellId>>)> = Vec::new();

    for &b in &rpo {
        // Block predicate and incoming memory state.
        let (pred, mem_state) = if b == f.entry {
            (true_cell, init_mems.clone())
        } else {
            let ps = &preds[b.0 as usize];
            let mut pred_cell: Option<CellId> = None;
            for &p in ps {
                let ep = edge_pred[&(p, b)];
                pred_cell = Some(match pred_cell {
                    None => ep,
                    Some(acc) => nl.add(CellKind::Bin(BinKind::Or, acc, ep), IntType::u1()),
                });
            }
            // Merge memory state: fold over predecessors with muxes.
            let mut state: Option<Vec<Vec<CellId>>> = None;
            for &p in ps {
                let ep = edge_pred[&(p, b)];
                let incoming = mem_out[p.0 as usize].clone();
                state = Some(match state {
                    None => incoming,
                    Some(acc) => acc
                        .into_iter()
                        .zip(incoming)
                        .map(|(old, new)| {
                            old.into_iter()
                                .zip(new)
                                .map(|(o, nv)| {
                                    if o == nv {
                                        o
                                    } else {
                                        let ty = nl.cell(o).ty;
                                        nl.add(
                                            CellKind::Mux {
                                                sel: ep,
                                                a: nv,
                                                b: o,
                                            },
                                            ty,
                                        )
                                    }
                                })
                                .collect()
                        })
                        .collect(),
                });
            }
            (
                pred_cell.expect("reachable non-entry block has predecessors"),
                state.unwrap_or_else(|| init_mems.clone()),
            )
        };
        let mut cur_mems = mem_state;

        // Evaluate instructions.
        for &v in &f.block(b).insts {
            let inst = f.inst(v);
            let operand = |v: &Value| values[v.0 as usize].expect("operands precede their uses");
            let cell = match &inst.kind {
                InstKind::Param(i) => nl.add(
                    CellKind::Input {
                        name: scalar_port(*i),
                    },
                    inst.ty,
                ),
                InstKind::Const(c) => nl.add(CellKind::Const(*c), inst.ty),
                InstKind::Bin(op, a, bb) => {
                    nl.add(CellKind::Bin(*op, operand(a), operand(bb)), inst.ty)
                }
                InstKind::Un(op, a) => nl.add(CellKind::Un(*op, operand(a)), inst.ty),
                InstKind::Select { cond, t, f: fv } => nl.add(
                    CellKind::Mux {
                        sel: operand(cond),
                        a: operand(t),
                        b: operand(fv),
                    },
                    inst.ty,
                ),
                InstKind::Cast { from, val } => nl.add(
                    CellKind::Cast {
                        from: *from,
                        val: operand(val),
                    },
                    inst.ty,
                ),
                InstKind::Load { mem, addr } => {
                    let a = operand(addr);
                    let elems = &cur_mems[mem.0 as usize];
                    // Mux tree indexed by the address.
                    let mut acc = elems[0];
                    let aty = nl.cell(a).ty;
                    for (j, &e) in elems.iter().enumerate().skip(1) {
                        let idx = nl.add(CellKind::Const(j as i64), aty);
                        let eq = nl.add(CellKind::Bin(BinKind::Eq, a, idx), IntType::u1());
                        acc = nl.add(
                            CellKind::Mux {
                                sel: eq,
                                a: e,
                                b: acc,
                            },
                            inst.ty,
                        );
                    }
                    acc
                }
                InstKind::Store { mem, addr, value } => {
                    let a = operand(addr);
                    let val = operand(value);
                    let aty = nl.cell(a).ty;
                    let mi = mem.0 as usize;
                    let elems = cur_mems[mi].clone();
                    let mut new_elems = Vec::with_capacity(elems.len());
                    for (j, &e) in elems.iter().enumerate() {
                        let idx = nl.add(CellKind::Const(j as i64), aty);
                        let eq = nl.add(CellKind::Bin(BinKind::Eq, a, idx), IntType::u1());
                        let en = nl.add(CellKind::Bin(BinKind::And, eq, pred), IntType::u1());
                        let ty = nl.cell(e).ty;
                        new_elems.push(nl.add(
                            CellKind::Mux {
                                sel: en,
                                a: val,
                                b: e,
                            },
                            ty,
                        ));
                    }
                    cur_mems[mi] = new_elems;
                    // Stores define no value.
                    continue;
                }
                InstKind::Phi(args) => {
                    // Priority mux over incoming edges.
                    let mut acc: Option<CellId> = None;
                    for (p, pv) in args {
                        let ep = edge_pred[&(*p, b)];
                        let src = operand(pv);
                        acc = Some(match acc {
                            None => src,
                            Some(prev) => nl.add(
                                CellKind::Mux {
                                    sel: ep,
                                    a: src,
                                    b: prev,
                                },
                                inst.ty,
                            ),
                        });
                    }
                    acc.ok_or_else(|| {
                        SynthError::Transform("phi with no incoming edges".to_string())
                    })?
                }
            };
            values[v.0 as usize] = Some(cell);
        }
        mem_out[b.0 as usize] = cur_mems.clone();

        // Terminator: edge predicates / return collection.
        match &f.block(b).term {
            Term::Jump(t) => {
                merge_edge_pred(&mut nl, &mut edge_pred, (b, *t), pred);
            }
            Term::Br { cond, then, els } => {
                let c = values[cond.0 as usize].expect("condition precedes its use");
                let not_c = {
                    let zero = nl.add(CellKind::Const(0), IntType::u1());
                    nl.add(CellKind::Bin(BinKind::Eq, c, zero), IntType::u1())
                };
                let pt = nl.add(CellKind::Bin(BinKind::And, pred, c), IntType::u1());
                let pf = nl.add(CellKind::Bin(BinKind::And, pred, not_c), IntType::u1());
                merge_edge_pred(&mut nl, &mut edge_pred, (b, *then), pt);
                merge_edge_pred(&mut nl, &mut edge_pred, (b, *els), pf);
            }
            Term::Ret(v) => {
                let ret = v.map(|v| values[v.0 as usize].expect("return value precedes its use"));
                rets.push((pred, ret, cur_mems.clone()));
                continue;
            }
            Term::Unreachable => {
                return Err(SynthError::Transform("unreachable block".to_string()));
            }
        }
        // Shadowing: rebind cur_mems (moved above for Ret).
    }

    // Outputs: priority-mux over return sites.
    if rets.is_empty() {
        return Err(SynthError::Transform("no return paths".to_string()));
    }
    if let Some(rt) = f.ret_ty {
        let mut acc: Option<CellId> = None;
        for (pred, val, _) in &rets {
            let val =
                val.ok_or_else(|| SynthError::Transform("missing return value".to_string()))?;
            acc = Some(match acc {
                None => val,
                Some(prev) => nl.add(
                    CellKind::Mux {
                        sel: *pred,
                        a: val,
                        b: prev,
                    },
                    rt,
                ),
            });
        }
        nl.set_output("ret", acc.expect("at least one return"));
    }
    // Visible array-parameter outputs.
    for (mi, m) in f.mems.iter().enumerate() {
        let MemSource::Param(p) = m.source else {
            continue;
        };
        for j in 0..m.len {
            let mut acc: Option<CellId> = None;
            for (pred, _, mems) in &rets {
                let e = mems[mi][j];
                acc = Some(match acc {
                    None => e,
                    Some(prev) => {
                        if prev == e {
                            prev
                        } else {
                            nl.add(
                                CellKind::Mux {
                                    sel: *pred,
                                    a: e,
                                    b: prev,
                                },
                                m.elem,
                            )
                        }
                    }
                });
            }
            nl.set_output(array_out_port(p, j), acc.expect("return exists"));
        }
    }

    nl.fold_constants();
    nl.sweep_dead();
    Ok(nl)
}

/// Accumulates (ORs) an edge predicate — two terminator arms can target
/// the same block.
fn merge_edge_pred(
    nl: &mut Netlist,
    edge_pred: &mut HashMap<(BlockId, BlockId), CellId>,
    key: (BlockId, BlockId),
    pred: CellId,
) {
    match edge_pred.get(&key) {
        Some(&existing) => {
            let merged = nl.add(CellKind::Bin(BinKind::Or, existing, pred), IntType::u1());
            edge_pred.insert(key, merged);
        }
        None => {
            edge_pred.insert(key, pred);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chls_frontend::compile_to_hir;
    use chls_sim::netlist_sim::NetlistSim;

    fn synth(src: &str, entry: &str) -> Netlist {
        let prog = compile_to_hir(src).expect("frontend ok");
        let d = Cones
            .synthesize(&Preparer::new(prog), entry, &SynthOptions::default())
            .expect("synthesis ok");
        match d {
            Design::Comb(nl) => nl,
            _ => panic!("cones must produce a combinational netlist"),
        }
    }

    #[test]
    fn expression_becomes_combinational() {
        let nl = synth("int f(int a, int b) { return (a + b) * (a - b); }", "f");
        assert!(nl.is_combinational());
        let mut sim = NetlistSim::new(&nl).unwrap();
        sim.set_input("arg0", 7);
        sim.set_input("arg1", 3);
        assert_eq!(sim.output("ret").unwrap(), 40);
    }

    #[test]
    fn conditional_becomes_mux() {
        let nl = synth(
            "int f(int a) { if (a > 0) { return a * 2; } return -a; }",
            "f",
        );
        let mut sim = NetlistSim::new(&nl).unwrap();
        sim.set_input("arg0", 5);
        assert_eq!(sim.output("ret").unwrap(), 10);
        sim.set_input("arg0", -4);
        assert_eq!(sim.output("ret").unwrap(), 4);
    }

    #[test]
    fn constant_loop_unrolls_flat() {
        let nl = synth(
            "int f(int x) {
                int s = 0;
                for (int i = 0; i < 8; i++) s += x;
                return s;
            }",
            "f",
        );
        assert!(nl.is_combinational());
        let mut sim = NetlistSim::new(&nl).unwrap();
        sim.set_input("arg0", 5);
        assert_eq!(sim.output("ret").unwrap(), 40);
    }

    #[test]
    fn data_dependent_loop_rejected() {
        let prog = compile_to_hir(
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }",
        )
        .unwrap();
        let err = Cones
            .synthesize(&Preparer::new(prog), "f", &SynthOptions::default())
            .unwrap_err();
        assert!(matches!(err, SynthError::Loop(_)), "{err}");
    }

    #[test]
    fn array_scalarizes_and_writes_back() {
        let nl = synth(
            "void f(int a[3]) {
                for (int i = 0; i < 3; i++) a[i] = a[i] * 2;
            }",
            "f",
        );
        assert!(nl.is_combinational());
        let mut sim = NetlistSim::new(&nl).unwrap();
        sim.set_input("arg0_0", 1);
        sim.set_input("arg0_1", 2);
        sim.set_input("arg0_2", 3);
        assert_eq!(sim.output("out0_0").unwrap(), 2);
        assert_eq!(sim.output("out0_1").unwrap(), 4);
        assert_eq!(sim.output("out0_2").unwrap(), 6);
    }

    #[test]
    fn dynamic_index_builds_mux_tree() {
        let nl = synth("int f(int a[4], int i) { return a[i]; }", "f");
        let mut sim = NetlistSim::new(&nl).unwrap();
        for (j, v) in [10, 20, 30, 40].iter().enumerate() {
            sim.set_input(format!("arg0_{j}"), *v);
        }
        sim.set_input("arg1", 2);
        assert_eq!(sim.output("ret").unwrap(), 30);
    }

    #[test]
    fn rom_folds_to_constants() {
        let nl = synth(
            "const int t[4] = {9, 8, 7, 6}; int f() { return t[1] + t[2]; }",
            "f",
        );
        // Entirely constant: after folding, only a constant drives ret.
        let sim = NetlistSim::new(&nl).unwrap();
        assert_eq!(sim.output("ret").unwrap(), 15);
        assert!(
            nl.cells.len() <= 3,
            "expected tiny netlist, got {}",
            nl.cells.len()
        );
    }

    #[test]
    fn area_explodes_with_trip_count() {
        let model = chls_rtl::CostModel::new();
        let area_of = |n: usize| {
            let src = format!(
                "int f(int x) {{
                    int s = 0;
                    for (int i = 0; i < {n}; i++) s += x * i;
                    return s;
                }}"
            );
            synth(&src, "f").area(&model)
        };
        let a4 = area_of(4);
        let a16 = area_of(16);
        let a64 = area_of(64);
        assert!(a16 > a4 * 2.0, "a4={a4} a16={a16}");
        assert!(a64 > a16 * 2.0, "a16={a16} a64={a64}");
    }

    #[test]
    fn pointer_programs_synthesize() {
        let nl = synth(
            "void swap(int *a, int *b) { int t = *a; *a = *b; *b = t; }
             int f() {
                int x = 3;
                int y = 5;
                swap(&x, &y);
                return x * 10 + y;
             }",
            "f",
        );
        let sim = NetlistSim::new(&nl).unwrap();
        assert_eq!(sim.output("ret").unwrap(), 53);
    }

    #[test]
    fn info_matches_table_one() {
        let info = Cones.info();
        assert_eq!(info.year, 1988);
        assert_eq!(info.timing, TimingModel::Combinational);
        assert!(!info.data_dependent_loops);
    }
}

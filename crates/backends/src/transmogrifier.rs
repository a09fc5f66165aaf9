//! The Transmogrifier C backend.
//!
//! Galloway's Transmogrifier C (FCCM 1995) "places cycle boundaries at
//! function calls and at the beginning of *while* loops": everything
//! between loop-iteration boundaries executes combinationally in a single
//! clock cycle. The paper's point: "only loop iterations and function
//! calls take a cycle. While simple to understand, such rules can require
//! recoding to meet timing … loops may need to be unrolled."
//!
//! Model here: the CFG is partitioned into *regions* anchored at the
//! entry block, every natural-loop header, and any block entered from
//! more than one region. Each region executes in exactly one state (one
//! cycle): its acyclic block DAG is flattened with predicates into
//! combinational expression trees; a loop iteration is one trip through
//! its header's region. Values crossing regions live in registers; stores
//! commit at cycle end with store-to-load forwarding inside the region.
//! Calls are fully inlined (our whole-program pipeline), so the
//! call-boundary rule does not arise — noted in DESIGN.md.
//!
//! The flip side the paper highlights is visible in the numbers: big
//! unrolled regions produce long critical paths (slow clocks) and wide
//! multi-ported memory access, while small regions waste cycles.

use crate::common::*;
use chls_frontend::IntType;
use chls_ir::ir::{BlockId, Function, InstKind, Term, Value};
use chls_ir::liveness::for_each_read;
use chls_ir::BinKind;
use chls_rtl::fsmd::{Action, Fsmd, MemId, NextState, RegId, Rv, RvKind, StateId};
use std::collections::{BTreeMap, BTreeSet};

/// The Transmogrifier C backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct Transmogrifier;

/// Largest single-cycle expression (in Rv nodes) the backend will
/// build. Inlined per-cycle expressions are *trees* — a value feeding
/// several consumers is cloned into each — so mux chains over a fully
/// unrolled loop grow exponentially; past this bound the design is not
/// a circuit anyone would accept from a one-cycle-per-iteration rule,
/// and building it would hang the compiler.
const MAX_RV_NODES: usize = 1 << 17;

/// Counts the nodes of `rv`, giving up (`None`) once the count exceeds
/// `cap` — the early abort is what keeps the guard itself from paying
/// the exponential cost it exists to detect.
fn rv_nodes_capped(rv: &Rv, cap: usize) -> Option<usize> {
    let mut stack = vec![rv];
    let mut n = 0usize;
    while let Some(r) = stack.pop() {
        n += 1;
        if n > cap {
            return None;
        }
        match &r.kind {
            RvKind::Const(_) | RvKind::Reg(_) | RvKind::Input(_) => {}
            RvKind::Un(_, a) | RvKind::Cast(a) => stack.push(a),
            RvKind::Bin(_, a, b) => {
                stack.push(a);
                stack.push(b);
            }
            RvKind::Mux(a, b, c) => {
                stack.push(a);
                stack.push(b);
                stack.push(c);
            }
            RvKind::MemRead { addr, .. } => stack.push(addr),
        }
    }
    Some(n)
}

impl Backend for Transmogrifier {
    fn info(&self) -> BackendInfo {
        BackendInfo {
            name: "transmogrifier",
            models: "Transmogrifier C (Galloway)",
            year: 1995,
            comment: "Limited scope",
            concurrency: ConcurrencyModel::CompilerDriven,
            timing: TimingModel::RulePerIteration,
            pointers: true,
            data_dependent_loops: true,
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
        let prepared = prep.sequential(entry, false, opts.narrow_widths, opts.unroll_factor)?;
        let fsmd = build(&prepared.func)?;
        Ok(Design::Fsmd(fsmd))
    }
}

/// Region assignment: every block belongs to the region of exactly one
/// head. Returns (region head of each block, ordered head list).
fn assign_regions(f: &Function) -> (Vec<BlockId>, Vec<BlockId>) {
    let forest = chls_ir::loops::LoopForest::compute(f);
    let mut heads: BTreeSet<BlockId> = BTreeSet::new();
    heads.insert(f.entry);
    for l in &forest.loops {
        heads.insert(l.header);
    }
    loop {
        // Assign by BFS from each head, not entering other heads.
        let mut region: Vec<Option<BlockId>> = vec![None; f.blocks.len()];
        for &h in &heads {
            let mut queue = vec![h];
            region[h.0 as usize] = Some(h);
            while let Some(b) = queue.pop() {
                for s in f.block(b).term.successors() {
                    if heads.contains(&s) || region[s.0 as usize].is_some() {
                        continue;
                    }
                    region[s.0 as usize] = Some(h);
                    queue.push(s);
                }
            }
        }
        // A block reached from two different regions must become a head.
        let mut changed = false;
        for (bi, block) in f.blocks.iter().enumerate() {
            let Some(rb) = region[bi] else { continue };
            for s in block.term.successors() {
                if heads.contains(&s) {
                    continue;
                }
                if let Some(rs) = region[s.0 as usize] {
                    if rs != rb {
                        heads.insert(s);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            let assigned: Vec<BlockId> = region
                .iter()
                .enumerate()
                .map(|(bi, r)| r.unwrap_or(BlockId(bi as u32)))
                .collect();
            return (assigned, heads.into_iter().collect());
        }
    }
}

fn build(f: &Function) -> Result<Fsmd, SynthError> {
    let (region_of, heads) = assign_regions(f);
    let mut is_head = vec![false; f.blocks.len()];
    for h in &heads {
        is_head[h.0 as usize] = true;
    }
    let (mut out, inputs) = SsaInputs::build(f);

    // Registers: values read in a region other than their defining one,
    // plus phis at region heads.
    let region = |b: BlockId| region_of[b.0 as usize];
    let mut needs_reg: Vec<bool> = f
        .insts
        .iter()
        .map(|inst| matches!(inst.kind, InstKind::Phi(_)) && is_head[inst.block.0 as usize])
        .collect();
    for_each_read(f, |b, v| {
        let def = f.inst(v);
        if !matches!(def.kind, InstKind::Const(_) | InstKind::Param(_))
            && region(def.block) != region(b)
        {
            needs_reg[v.0 as usize] = true;
        }
    });
    // Dense by `Value`, created in `Value` order.
    let reg_of: Vec<Option<RegId>> = f
        .insts
        .iter()
        .enumerate()
        .map(|(i, inst)| needs_reg[i].then(|| out.add_reg(format!("v{i}"), inst.ty, 0)))
        .collect();
    let reg = |v: Value| reg_of[v.0 as usize].expect("a value read across regions has a register");
    let ret_reg = f.ret_ty.map(|ty| out.add_reg("ret_value", ty, 0));

    // One state per region + done.
    let mut state_of: Vec<Option<StateId>> = vec![None; f.blocks.len()];
    for &h in &heads {
        state_of[h.0 as usize] = Some(out.add_state());
    }
    let state_of = |h: BlockId| state_of[h.0 as usize].expect("a region head has a state");
    let done_state = out.add_state();
    out.state_mut(done_state).next = NextState::Done;
    out.entry = state_of(f.entry);

    // Flatten each region. The value and block-predicate tables are
    // dense and shared; each region clears the entries it wrote.
    let rpo = f.reverse_postorder();
    let mut values: Vec<Option<Rv>> = vec![None; f.insts.len()];
    let mut block_pred: Vec<Option<Rv>> = vec![None; f.blocks.len()];
    for &head in &heads {
        let region_blocks: Vec<BlockId> = rpo
            .iter()
            .copied()
            .filter(|b| region_of[b.0 as usize] == head)
            .collect();
        let state = state_of(head);
        // Keyed `(target, source)`: a block predicate ORs its in-edges,
        // one `range` in source order.
        let mut edge_pred: BTreeMap<(BlockId, BlockId), Rv> = BTreeMap::new();
        // Pending (uncommitted) stores for in-region forwarding:
        // (guard, addr, value) per memory, in program order.
        let mut pending: BTreeMap<u32, Vec<(Rv, Rv, Rv)>> = BTreeMap::new();
        // Exit edges: (guard predicate, target head or Ret value).
        enum Exit {
            To(BlockId, Rv),
            Ret(Option<Value>, Rv, BlockId),
        }
        let mut exits: Vec<Exit> = Vec::new();

        // Reads a value inside this region.
        let rv_of = |v: Value, values: &[Option<Rv>]| -> Rv {
            let inst = f.inst(v);
            inputs
                .leaf(inst)
                .or_else(|| values[v.0 as usize].clone())
                .unwrap_or_else(|| Rv::reg(reg(v), inst.ty))
        };

        for &b in &region_blocks {
            // Block predicate.
            let pred = if b == head {
                Rv::konst(1, IntType::u1())
            } else {
                edge_pred
                    .range((b, BlockId(0))..=(b, BlockId(u32::MAX)))
                    .map(|(_, p)| p.clone())
                    .reduce(|a, p| Rv::bin(BinKind::Or, IntType::u1(), a, p))
                    .unwrap_or_else(|| Rv::konst(0, IntType::u1()))
            };
            block_pred[b.0 as usize] = Some(pred.clone());

            // Instructions.
            for &v in &f.block(b).insts {
                let inst = f.inst(v);
                let rv = match &inst.kind {
                    InstKind::Const(_) | InstKind::Param(_) => continue,
                    InstKind::Phi(args) => {
                        if b == head {
                            // Head phi: lives in its register.
                            Rv::reg(reg(v), inst.ty)
                        } else {
                            // Interior join: priority mux over edges.
                            let mut acc: Option<Rv> = None;
                            for (p, pv) in args {
                                let ep = edge_pred
                                    .get(&(b, *p))
                                    .cloned()
                                    .unwrap_or_else(|| Rv::konst(0, IntType::u1()));
                                let src = rv_of(*pv, &values);
                                acc = Some(match acc {
                                    None => src,
                                    Some(prev) => Rv {
                                        kind: RvKind::Mux(
                                            Box::new(ep),
                                            Box::new(src),
                                            Box::new(prev),
                                        ),
                                        ty: inst.ty,
                                    },
                                });
                            }
                            acc.ok_or_else(|| SynthError::Transform("empty phi".to_string()))?
                        }
                    }
                    InstKind::Load { mem, addr } => {
                        let raw = rv_of(*addr, &values);
                        // Loads evaluate speculatively even on not-taken
                        // paths; gate the address so a dead path cannot
                        // read out of bounds (one mux of hardware).
                        let a = if matches!(pred.kind, RvKind::Const(1)) {
                            raw
                        } else {
                            Rv {
                                kind: RvKind::Mux(
                                    Box::new(pred.clone()),
                                    Box::new(raw),
                                    Box::new(Rv::konst(0, f.inst(*addr).ty)),
                                ),
                                ty: f.inst(*addr).ty,
                            }
                        };
                        // Base read, then forward pending same-cycle stores.
                        let mut rv = Rv {
                            kind: RvKind::MemRead {
                                mem: MemId(mem.0),
                                addr: Box::new(a.clone()),
                            },
                            ty: inst.ty,
                        };
                        if let Some(writes) = pending.get(&mem.0) {
                            for (g, wa, wv) in writes {
                                let same = Rv {
                                    kind: RvKind::Bin(
                                        BinKind::Eq,
                                        Box::new(wa.clone()),
                                        Box::new(a.clone()),
                                    ),
                                    ty: IntType::u1(),
                                };
                                let hit = Rv::bin(BinKind::And, IntType::u1(), g.clone(), same);
                                rv = Rv {
                                    kind: RvKind::Mux(
                                        Box::new(hit),
                                        Box::new(wv.clone()),
                                        Box::new(rv),
                                    ),
                                    ty: inst.ty,
                                };
                            }
                        }
                        rv
                    }
                    InstKind::Store { mem, addr, value } => {
                        let a = rv_of(*addr, &values);
                        let val = rv_of(*value, &values);
                        pending
                            .entry(mem.0)
                            .or_default()
                            .push((pred.clone(), a, val));
                        continue;
                    }
                    kind => op_rv(kind, op_ty(inst), |o| rv_of(o, &values)),
                };
                if rv_nodes_capped(&rv, MAX_RV_NODES).is_none() {
                    return Err(SynthError::Unsupported {
                        backend: "transmogrifier",
                        what: format!(
                            "a single-cycle expression of more than {MAX_RV_NODES} \
                             operators (fully unrolled loop bodies chain combinationally \
                             under the one-cycle-per-iteration rule; reduce --unroll)"
                        ),
                    });
                }
                values[v.0 as usize] = Some(rv);
            }

            // Terminator: edge predicates within the region, exits across.
            let mk_and = |a: Rv, b: Rv| Rv::bin(BinKind::And, IntType::u1(), a, b);
            match &f.block(b).term {
                Term::Jump(t) => {
                    if region_of[t.0 as usize] == head && !is_head[t.0 as usize] {
                        merge_edge(&mut edge_pred, (*t, b), pred.clone());
                    } else {
                        exits.push(Exit::To(*t, pred.clone()));
                    }
                }
                Term::Br { cond, then, els } => {
                    let c = rv_of(*cond, &values);
                    let not_c = is_zero(c.clone());
                    for (target, gate) in [(*then, c), (*els, not_c)] {
                        let ep = mk_and(pred.clone(), gate);
                        if region_of[target.0 as usize] == head && !is_head[target.0 as usize] {
                            merge_edge(&mut edge_pred, (target, b), ep);
                        } else {
                            exits.push(Exit::To(target, ep));
                        }
                    }
                }
                Term::Ret(v) => exits.push(Exit::Ret(*v, pred.clone(), b)),
                Term::Unreachable => {}
            }
        }

        // Commit pending stores (guarded).
        for (m, writes) in pending {
            for (g, a, val) in writes {
                out.state_mut(state)
                    .actions
                    .push(Action::write_if(g, MemId(m), a, val));
            }
        }
        // Commit registers for cross-region values defined here, in
        // value order so the state's actions do not follow hash order.
        for (i, inst) in f.insts.iter().enumerate() {
            let Some(r) = reg_of[i] else { continue };
            if region_of[inst.block.0 as usize] != head {
                continue;
            }
            if matches!(inst.kind, InstKind::Phi(_)) && inst.block == head {
                continue; // head phis are written by incoming edges below
            }
            if let Some(rv) = &values[i] {
                let guard = block_pred[inst.block.0 as usize]
                    .clone()
                    .expect("region block");
                out.state_mut(state)
                    .actions
                    .push(Action::set_if(guard, r, rv.clone()));
            }
        }
        // Head-phi updates for every exit edge targeting a head, plus the
        // head's own phis fed by in-region back edges.
        let mut cases: Vec<(Rv, StateId)> = Vec::new();
        for exit in &exits {
            match exit {
                Exit::To(target, guard) => {
                    // The target is a head (or becomes one): write its phis.
                    let tgt_head = if is_head[target.0 as usize] {
                        *target
                    } else {
                        region_of[target.0 as usize]
                    };
                    for &pv in &f.block(tgt_head).insts {
                        if let InstKind::Phi(args) = &f.inst(pv).kind {
                            for (pred_blk, incoming) in args {
                                if region_of[pred_blk.0 as usize] == head
                                    && edge_sources_match(f, *pred_blk, *target)
                                {
                                    let src = rv_of(*incoming, &values);
                                    out.state_mut(state).actions.push(Action::set_if(
                                        guard.clone(),
                                        reg(pv),
                                        src,
                                    ));
                                }
                            }
                        }
                    }
                    cases.push((guard.clone(), state_of(tgt_head)));
                }
                Exit::Ret(v, guard, _b) => {
                    if let (Some(rr), Some(v)) = (ret_reg, v) {
                        let src = rv_of(*v, &values);
                        out.state_mut(state)
                            .actions
                            .push(Action::set_if(guard.clone(), rr, src));
                    }
                    cases.push((guard.clone(), done_state));
                }
            }
        }
        for &b in &region_blocks {
            block_pred[b.0 as usize] = None;
            for &v in &f.block(b).insts {
                values[v.0 as usize] = None;
            }
        }
        out.state_mut(state).next = cases_to_next(cases, done_state);
    }

    out.ret = ret_reg.map(|rr| Rv::reg(rr, f.ret_ty.expect("typed")));
    Ok(out)
}

/// True when `pred_blk`'s terminator actually targets `target` (a phi arg
/// records the predecessor block; the exit edge we are processing may be a
/// different edge out of the same region).
fn edge_sources_match(f: &Function, pred_blk: BlockId, target: BlockId) -> bool {
    f.block(pred_blk).term.successors().contains(&target)
}

fn merge_edge(edge_pred: &mut BTreeMap<(BlockId, BlockId), Rv>, key: (BlockId, BlockId), pred: Rv) {
    match edge_pred.remove(&key) {
        Some(existing) => {
            edge_pred.insert(key, Rv::bin(BinKind::Or, IntType::u1(), existing, pred));
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
    use chls_sim::fsmd_sim::simulate;
    use chls_sim::interp::ArgValue;

    fn synth(src: &str, entry: &str) -> Fsmd {
        let prog = compile_to_hir(src).expect("frontend ok");
        let d = Transmogrifier
            .synthesize(&Preparer::new(prog), entry, &SynthOptions::default())
            .expect("synthesis ok");
        match d {
            Design::Fsmd(f) => f,
            _ => panic!("transmogrifier must produce an FSMD"),
        }
    }

    #[test]
    fn straight_line_is_one_cycle() {
        let f = synth("int f(int a, int b) { return a * b + a - b; }", "f");
        let r = simulate(&f, &[ArgValue::Scalar(6), ArgValue::Scalar(7)], 100).unwrap();
        assert_eq!(r.ret, Some(41));
        // One region state + done.
        assert_eq!(r.cycles, 2);
    }

    #[test]
    fn loop_costs_one_cycle_per_iteration() {
        let f = synth(
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }",
            "f",
        );
        let r10 = simulate(&f, &[ArgValue::Scalar(10)], 1000).unwrap();
        let r20 = simulate(&f, &[ArgValue::Scalar(20)], 1000).unwrap();
        assert_eq!(r10.ret, Some(45));
        assert_eq!(r20.ret, Some(190));
        // Cycle counts grow ~1 per iteration.
        let d = r20.cycles as i64 - r10.cycles as i64;
        assert!((d - 10).abs() <= 2, "delta {d}");
    }

    #[test]
    fn unrolling_buys_cycles_transmogrifier_style() {
        let plain = synth(
            "int f(int a[16]) {
                int s = 0;
                for (int i = 0; i < 16; i++) s += a[i];
                return s;
            }",
            "f",
        );
        let unrolled = synth(
            "int f(int a[16]) {
                int s = 0;
                #pragma unroll 4
                for (int i = 0; i < 16; i++) s += a[i];
                return s;
            }",
            "f",
        );
        let args = [ArgValue::Array((1..=16).collect())];
        let rp = simulate(&plain, &args, 1000).unwrap();
        let ru = simulate(&unrolled, &args, 1000).unwrap();
        assert_eq!(rp.ret, Some(136));
        assert_eq!(ru.ret, Some(136));
        // Unrolled by 4: roughly a quarter of the loop cycles.
        assert!(
            ru.cycles * 2 < rp.cycles,
            "unrolled {} vs plain {}",
            ru.cycles,
            rp.cycles
        );
        // ... but the clock must slow down (longer critical path) and the
        // memory needs more ports: the paper's recoding trade-off.
        let m = chls_rtl::CostModel::new();
        assert!(unrolled.critical_path(&m) > plain.critical_path(&m));
        let ports_plain = plain.mem_port_usage()[0].0;
        let ports_unrolled = unrolled.mem_port_usage()[0].0;
        assert!(ports_unrolled > ports_plain);
    }

    #[test]
    fn gcd_matches_golden() {
        let f = synth(
            "int f(int a, int b) { while (b != 0) { int t = b; b = a % b; a = t; } return a; }",
            "f",
        );
        let r = simulate(&f, &[ArgValue::Scalar(48), ArgValue::Scalar(36)], 1000).unwrap();
        assert_eq!(r.ret, Some(12));
    }

    #[test]
    fn memory_store_then_load_same_cycle_forwards() {
        let f = synth(
            "int f(int a[4]) {
                a[1] = 42;
                return a[1];
            }",
            "f",
        );
        let r = simulate(&f, &[ArgValue::Array(vec![0; 4])], 100).unwrap();
        assert_eq!(r.ret, Some(42));
        assert_eq!(r.mems[0][1], 42);
    }

    #[test]
    fn post_loop_merge_blocks() {
        let f = synth(
            "int f(int a, int n) {
                int x;
                if (a > 0) {
                    int s = 0;
                    for (int i = 0; i < n; i++) s += i;
                    x = s;
                } else {
                    x = -a;
                }
                return x * 2;
            }",
            "f",
        );
        let r = simulate(&f, &[ArgValue::Scalar(1), ArgValue::Scalar(5)], 1000).unwrap();
        assert_eq!(r.ret, Some(20));
        let r = simulate(&f, &[ArgValue::Scalar(-21), ArgValue::Scalar(5)], 1000).unwrap();
        assert_eq!(r.ret, Some(42));
    }

    #[test]
    fn nested_loops_cycle_structure() {
        let f = synth(
            "int f(int n) {
                int s = 0;
                for (int i = 0; i < n; i++)
                    for (int j = 0; j < n; j++)
                        s += 1;
                return s;
            }",
            "f",
        );
        let r = simulate(&f, &[ArgValue::Scalar(4)], 10_000).unwrap();
        assert_eq!(r.ret, Some(16));
        // At least n*n cycles (each inner iteration is one).
        assert!(r.cycles >= 16, "cycles {}", r.cycles);
    }

    #[test]
    fn bubble_sort_conformance() {
        let f = synth(
            "void f(int a[6]) {
                for (int i = 0; i < 5; i++) {
                    for (int j = 0; j < 5 - i; j++) {
                        if (a[j] > a[j + 1]) {
                            int t = a[j];
                            a[j] = a[j + 1];
                            a[j + 1] = t;
                        }
                    }
                }
            }",
            "f",
        );
        let r = simulate(&f, &[ArgValue::Array(vec![5, 2, 9, 1, 7, 3])], 100_000).unwrap();
        assert_eq!(r.mems[0], vec![1, 2, 3, 5, 7, 9]);
    }

    #[test]
    fn value_read_across_regions_through_a_phi_edge_gets_a_register() {
        // `v1` is computed in the entry region and reaches the second
        // loop's head phi over an edge from the first loop's exit region:
        // it must live in a register there.
        let f = synth(
            "int main(int a[16], int x, int y) {
                uint<8> v1 = (uint<8>) (y == x);
                for (int i6 = 0; i6 < 8; i6++) a[i6] = i6;
                for (int i7 = 0; i7 < 16; i7++) { v1 ^= v1; }
                return v1;
            }",
            "main",
        );
        let args = [
            ArgValue::Array(vec![9; 16]),
            ArgValue::Scalar(3),
            ArgValue::Scalar(3),
        ];
        let r = simulate(&f, &args, 1000).unwrap();
        assert_eq!(r.ret, Some(0));
        assert_eq!(r.mems[0], [0, 1, 2, 3, 4, 5, 6, 7, 9, 9, 9, 9, 9, 9, 9, 9]);
    }

    #[test]
    fn info_row() {
        let info = Transmogrifier.info();
        assert_eq!(info.timing, TimingModel::RulePerIteration);
        assert_eq!(info.year, 1995);
    }
}

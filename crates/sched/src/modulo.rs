//! Iterative modulo scheduling (software pipelining) for innermost loops.
//!
//! The paper: "Pipelining ... works well on regular loops, e.g., in
//! scientific computation, but is less effective in general." This module
//! makes that quantitative: the achieved initiation interval (II) on a
//! regular loop approaches the resource bound, while loop-carried
//! recurrences (irregular code) pin II to the recurrence bound.
//!
//! II lower bounds:
//!
//! * **ResMII** — for each resource, ⌈uses / units⌉;
//! * **RecMII** — for each elementary cycle through distance-1 edges,
//!   ⌈latency(cycle) / distance(cycle)⌉.
//!
//! Scheduling tries II = MII, MII+1, ... with a modulo reservation table
//! and ALAP-priority list placement, giving up on a budget to the serial
//! length (which always succeeds).

use crate::dfg::{Dfg, NodeId};
use crate::schedule::Resources;
use chls_rtl::cost::OpClass;
use std::collections::HashMap;

/// A modulo schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuloSchedule {
    /// Achieved initiation interval.
    pub ii: u32,
    /// Start slot of every node (absolute; slot mod II gives the table row).
    pub slot: Vec<u32>,
    /// Cycles each node occupies.
    pub duration: Vec<u32>,
    /// Schedule length of one iteration (for prologue/epilogue).
    pub iteration_length: u32,
    /// The resource-minimum II.
    pub res_mii: u32,
    /// The recurrence-minimum II.
    pub rec_mii: u32,
}

impl ModuloSchedule {
    /// Total cycles to run `trips` iterations.
    pub fn total_cycles(&self, trips: u64) -> u64 {
        if trips == 0 {
            return 0;
        }
        self.iteration_length as u64 + (trips - 1) * self.ii as u64
    }
}

fn cycles_needed(delay_ns: f64, period_ns: f64) -> u32 {
    if delay_ns <= period_ns {
        1
    } else {
        (delay_ns / period_ns).ceil() as u32
    }
}

/// Resource-minimum II.
pub fn res_mii(dfg: &Dfg, period_ns: f64, res: &Resources) -> u32 {
    let mut uses: HashMap<OpClass, u32> = HashMap::new();
    let mut mem_uses: HashMap<u32, u32> = HashMap::new();
    for node in &dfg.nodes {
        let dur = cycles_needed(node.delay_ns, period_ns);
        *uses.entry(node.op).or_insert(0) += dur;
        if let Some(m) = node.mem {
            *mem_uses.entry(m).or_insert(0) += dur;
        }
    }
    let mut mii = 1;
    for (op, n) in uses {
        if let Some(&limit) = res.units.get(&op) {
            if limit > 0 {
                mii = mii.max(n.div_ceil(limit as u32));
            }
        }
    }
    for (m, n) in mem_uses {
        let ports = res
            .mem_ports
            .get(&m)
            .copied()
            .unwrap_or(res.default_mem_ports);
        if ports > 0 {
            mii = mii.max(n.div_ceil(ports as u32));
        }
    }
    mii
}

/// Recurrence-minimum II via longest-ratio cycle detection (iterative
/// relaxation up to a bound — exact for the small loop DFGs synthesis
/// sees).
pub fn rec_mii(dfg: &Dfg, period_ns: f64) -> u32 {
    // For each candidate II, check feasibility of the dependence system:
    // slot(to) >= slot(from) + dur(from) - II * distance. A negative cycle
    // in the constraint graph means II is infeasible. Use Bellman-Ford.
    let n = dfg.nodes.len();
    if n == 0 {
        return 1;
    }
    let dur: Vec<i64> = dfg
        .nodes
        .iter()
        .map(|nd| cycles_needed(nd.delay_ns, period_ns) as i64)
        .collect();
    let serial: u32 = dur.iter().sum::<i64>().max(1) as u32;
    'outer: for ii in 1..=serial {
        // Edge weight from->to: dur(from) - II*distance; feasible iff no
        // positive cycle in the "longest path" sense.
        let mut dist = vec![0i64; n];
        for _ in 0..=n {
            let mut changed = false;
            for e in &dfg.edges {
                let w = dur[e.from.0 as usize] - (ii as i64) * e.distance as i64;
                let nd = dist[e.from.0 as usize] + w;
                if nd > dist[e.to.0 as usize] {
                    dist[e.to.0 as usize] = nd;
                    changed = true;
                }
            }
            if !changed {
                return ii.max(1);
            }
        }
        continue 'outer; // positive cycle at this II; try the next
    }
    serial.max(1)
}

/// Iterative modulo scheduling. Returns the achieved schedule.
pub fn modulo_schedule(dfg: &Dfg, period_ns: f64, res: &Resources) -> ModuloSchedule {
    let _span = chls_trace::span("sched.modulo");
    let s = modulo_schedule_inner(dfg, period_ns, res);
    chls_trace::gauge("sched.ii", u64::from(s.ii));
    chls_trace::gauge("sched.length", u64::from(s.iteration_length));
    s
}

fn modulo_schedule_inner(dfg: &Dfg, period_ns: f64, res: &Resources) -> ModuloSchedule {
    let n = dfg.nodes.len();
    let dur: Vec<u32> = dfg
        .nodes
        .iter()
        .map(|nd| cycles_needed(nd.delay_ns, period_ns))
        .collect();
    let serial: u32 = dur.iter().sum::<u32>().max(1);
    let rmii = res_mii(dfg, period_ns, res);
    let cmii = rec_mii(dfg, period_ns);
    let mii = rmii.max(cmii).max(1);

    'try_ii: for ii in mii..=serial.max(mii) {
        // List placement in topological order of distance-0 edges with a
        // modulo reservation table.
        let order = dfg.topo_order();
        let mut slot = vec![0u32; n];
        let mut placed = vec![false; n];
        let mut op_table: HashMap<(u32, OpClass), usize> = HashMap::new();
        let mut mem_table: HashMap<(u32, u32), usize> = HashMap::new();
        for &v in &order {
            let i = v.0 as usize;
            // Earliest slot from placed predecessors (all distances; a
            // distance-d edge relaxes the bound by d*II).
            let mut earliest = 0u32;
            for e in &dfg.edges {
                if e.to != v {
                    continue;
                }
                let p = e.from.0 as usize;
                if !placed[p] && e.distance == 0 {
                    continue; // topo order guarantees placement; skip safe
                }
                if placed[p] {
                    let bound = slot[p] as i64 + dur[p] as i64 - (e.distance as i64 * ii as i64);
                    if bound > earliest as i64 {
                        earliest = bound.max(0) as u32;
                    }
                }
            }
            // Search II consecutive candidate slots.
            let mut found = false;
            for cand in earliest..earliest + ii {
                let mut ok = true;
                for dc in 0..dur[i] {
                    let row = (cand + dc) % ii;
                    if let Some(&limit) = res.units.get(&dfg.nodes[i].op) {
                        if op_table.get(&(row, dfg.nodes[i].op)).copied().unwrap_or(0) >= limit {
                            ok = false;
                            break;
                        }
                    }
                    if let Some(m) = dfg.nodes[i].mem {
                        let ports = res
                            .mem_ports
                            .get(&m)
                            .copied()
                            .unwrap_or(res.default_mem_ports);
                        if ports > 0 && mem_table.get(&(row, m)).copied().unwrap_or(0) >= ports {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    slot[i] = cand;
                    placed[i] = true;
                    for dc in 0..dur[i] {
                        let row = (cand + dc) % ii;
                        *op_table.entry((row, dfg.nodes[i].op)).or_insert(0) += 1;
                        if let Some(m) = dfg.nodes[i].mem {
                            *mem_table.entry((row, m)).or_insert(0) += 1;
                        }
                    }
                    found = true;
                    break;
                }
            }
            if !found {
                continue 'try_ii;
            }
        }
        // Validate loop-carried constraints (distance >= 1 edges whose
        // producer was placed after the consumer's earliest computation).
        for e in &dfg.edges {
            let (p, s) = (e.from.0 as usize, e.to.0 as usize);
            let lhs = slot[s] as i64 + (e.distance as i64 * ii as i64);
            if lhs < slot[p] as i64 + dur[p] as i64 {
                continue 'try_ii;
            }
        }
        let iteration_length = (0..n).map(|i| slot[i] + dur[i]).max().unwrap_or(1);
        return ModuloSchedule {
            ii,
            slot,
            duration: dur,
            iteration_length,
            res_mii: rmii,
            rec_mii: cmii,
        };
    }
    // Fallback: fully serial (II = serial length) always works.
    let mut slot = vec![0u32; n];
    let mut t = 0;
    for v in dfg.topo_order() {
        slot[v.0 as usize] = t;
        t += dur[v.0 as usize];
    }
    ModuloSchedule {
        ii: serial,
        slot,
        duration: dur,
        iteration_length: serial,
        res_mii: rmii,
        rec_mii: cmii,
    }
}

/// Builds a loop-body DFG from an IR function's innermost loop: block-local
/// data edges plus distance-1 edges for loop-carried phi flows and memory
/// ordering across iterations.
fn constant_of(f: &chls_ir::Function, v: chls_ir::Value) -> Option<i64> {
    match &f.inst(v).kind {
        chls_ir::InstKind::Const(c) => Some(*c),
        _ => None,
    }
}

pub fn loop_dfg(
    f: &chls_ir::Function,
    header: chls_ir::BlockId,
    body_blocks: &[chls_ir::BlockId],
    precision: chls_opt::dep::AliasPrecision,
    model: &chls_rtl::cost::CostModel,
) -> (Dfg, Vec<chls_ir::Value>) {
    use chls_ir::InstKind;
    let mut dfg = Dfg::default();
    let mut node_of: HashMap<chls_ir::Value, NodeId> = HashMap::new();
    let mut values = Vec::new();
    let mut all_blocks = vec![header];
    all_blocks.extend_from_slice(body_blocks);
    for &b in &all_blocks {
        for &v in &f.block(b).insts {
            let Some((op, width)) = crate::dfg::inst_class(f, v) else {
                continue;
            };
            let delay = match op {
                OpClass::MemRead | OpClass::MemWrite => {
                    let len = match &f.inst(v).kind {
                        InstKind::Load { mem, .. } | InstKind::Store { mem, .. } => f.mem(*mem).len,
                        _ => 64,
                    };
                    model.ram_read_delay(len)
                }
                other => model.delay(other, width),
            };
            let mem = match &f.inst(v).kind {
                InstKind::Load { mem, .. } | InstKind::Store { mem, .. } => Some(mem.0),
                _ => None,
            };
            let chainable = !matches!(op, OpClass::MemRead | OpClass::MemWrite);
            let id = dfg.add_node(crate::dfg::DfgNode {
                op,
                width,
                delay_ns: delay,
                mem,
                chainable,
                tag: v.0,
            });
            node_of.insert(v, id);
            values.push(v);
        }
    }
    // Data edges: same-iteration for direct operands; loop-carried where a
    // value flows through a header phi back from the latch. Iterate
    // `values` (body order), not the map: edge insertion order shapes the
    // topological order and with it the modulo schedule.
    for (i, &v) in values.iter().enumerate() {
        let id = NodeId(i as u32);
        f.inst(v).kind.for_each_operand(|o| {
            if let Some(&src) = node_of.get(&o) {
                dfg.add_edge(src, id);
            } else if let InstKind::Phi(args) = &f.inst(o).kind {
                // Consumer uses a phi: the latch value feeds the next
                // iteration — distance-1 edge from the producer.
                for (_, pv) in args {
                    if let Some(&src) = node_of.get(pv) {
                        dfg.add_carried_edge(src, id);
                    }
                }
            }
        });
    }
    // Memory ordering: same-iteration within blocks, plus distance-1
    // self-ordering between conflicting accesses anywhere in the body
    // (a store this iteration vs. access next iteration). The carried
    // direction is refined by induction-relative affine analysis: with a
    // header phi `i` stepping by `s`, address `i + ca` this iteration and
    // `i + cb` next iteration (= `i + s + cb` in this iteration's frame)
    // are independent unless `ca == s + cb`.
    let mut inductions: Vec<(chls_ir::Value, i64)> = Vec::new();
    for &pv in &f.block(header).insts {
        if let InstKind::Phi(args) = &f.inst(pv).kind {
            for (_, inc) in args {
                let stride = match &f.inst(*inc).kind {
                    InstKind::Bin(chls_ir::BinKind::Add, x, y) if *x == pv => constant_of(f, *y),
                    InstKind::Bin(chls_ir::BinKind::Add, x, y) if *y == pv => constant_of(f, *x),
                    InstKind::Bin(chls_ir::BinKind::Sub, x, y) if *x == pv => {
                        constant_of(f, *y).map(|c| -c)
                    }
                    _ => None,
                };
                if let Some(s) = stride {
                    inductions.push((pv, s));
                }
            }
        }
    }
    let carried_independent = |a: &chls_opt::dep::MemAccess, b: &chls_opt::dep::MemAccess| {
        precision != chls_opt::dep::AliasPrecision::None
            && inductions.iter().any(|&(ind, s)| {
                match (
                    chls_opt::dep::affine_offset(f, a.addr, ind),
                    chls_opt::dep::affine_offset(f, b.addr, ind),
                ) {
                    (Some(ca), Some(cb)) => ca != s + cb,
                    _ => false,
                }
            })
    };
    let accesses: Vec<chls_opt::dep::MemAccess> = values
        .iter()
        .filter_map(|&v| chls_opt::dep::mem_access(f, v))
        .collect();
    for (ai, a) in accesses.iter().enumerate() {
        for (bi, b) in accesses.iter().enumerate() {
            if chls_opt::dep::must_order(f, a, b, precision) {
                let (na, nb) = (node_of[&a.inst], node_of[&b.inst]);
                if ai < bi {
                    dfg.add_edge(na, nb);
                } else if !carried_independent(a, b) {
                    dfg.add_carried_edge(na, nb);
                }
            }
        }
    }
    (dfg, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfg::DfgNode;

    fn node(op: OpClass, delay: f64) -> DfgNode {
        DfgNode {
            op,
            width: 32,
            delay_ns: delay,
            mem: None,
            chainable: true,
            tag: 0,
        }
    }

    /// A regular loop body: independent multiply-accumulate per iteration,
    /// accumulator recurrence of latency 1.
    fn regular_body() -> Dfg {
        let mut d = Dfg::default();
        let mul = d.add_node(node(OpClass::Mul, 0.8));
        let acc = d.add_node(node(OpClass::AddSub, 0.3));
        d.add_edge(mul, acc);
        // Accumulator feeds itself next iteration.
        d.add_carried_edge(acc, acc);
        d
    }

    /// An irregular body: a long recurrence (div feeds itself).
    fn irregular_body() -> Dfg {
        let mut d = Dfg::default();
        let div = d.add_node(node(OpClass::DivRem, 3.2));
        let add = d.add_node(node(OpClass::AddSub, 0.3));
        d.add_edge(div, add);
        d.add_carried_edge(add, div);
        d
    }

    #[test]
    fn regular_loop_reaches_ii_1() {
        let d = regular_body();
        let s = modulo_schedule(&d, 1.0, &Resources::unlimited());
        assert_eq!(s.ii, 1, "{s:?}");
        assert_eq!(s.rec_mii, 1);
    }

    #[test]
    fn recurrence_bounds_ii() {
        let d = irregular_body();
        let s = modulo_schedule(&d, 1.0, &Resources::unlimited());
        // div takes 4 cycles + add takes 1 around the cycle: RecMII = 5.
        assert_eq!(s.rec_mii, 5, "{s:?}");
        assert!(s.ii >= 5);
    }

    #[test]
    fn resource_bound_applies() {
        // Two multiplies per iteration, one multiplier: ResMII = 2.
        let mut d = Dfg::default();
        d.add_node(node(OpClass::Mul, 0.8));
        d.add_node(node(OpClass::Mul, 0.8));
        let mut res = Resources::unlimited();
        res.units.insert(OpClass::Mul, 1);
        let s = modulo_schedule(&d, 1.0, &res);
        assert_eq!(s.res_mii, 2);
        assert_eq!(s.ii, 2);
    }

    #[test]
    fn memory_port_bound_applies() {
        // Three loads from one single-ported memory: ResMII = 3.
        let mut d = Dfg::default();
        for _ in 0..3 {
            d.add_node(DfgNode {
                op: OpClass::MemRead,
                width: 32,
                delay_ns: 0.4,
                mem: Some(0),
                chainable: false,
                tag: 0,
            });
        }
        let res = Resources {
            default_mem_ports: 1,
            ..Default::default()
        };
        let s = modulo_schedule(&d, 1.0, &res);
        assert_eq!(s.ii, 3);
    }

    #[test]
    fn total_cycles_amortizes_ii() {
        let d = regular_body();
        let s = modulo_schedule(&d, 1.0, &Resources::unlimited());
        let t100 = s.total_cycles(100);
        // ~II per iteration once the pipeline fills.
        assert!(t100 <= s.iteration_length as u64 + 99 * s.ii as u64);
        assert!(t100 >= 100 * s.ii as u64);
        assert_eq!(s.total_cycles(0), 0);
    }

    #[test]
    fn modulo_respects_same_iteration_edges() {
        let d = regular_body();
        let s = modulo_schedule(&d, 1.0, &Resources::unlimited());
        // acc starts after mul finishes.
        assert!(s.slot[1] >= s.slot[0] + s.duration[0]);
    }

    #[test]
    fn affine_disambiguation_drops_false_carried_memory_edges() {
        // `a[i] = a[i] * 5`: the store never conflicts with the *next*
        // iteration's load (addresses differ by the stride), so with Basic
        // precision there must be no carried memory edge — and with None
        // there must be.
        let hir = chls_frontend::compile_to_hir(
            "void f(int a[32]) {
                for (int i = 0; i < 32; i++) a[i] = a[i] * 5;
            }",
        )
        .unwrap();
        let (id, _) = hir.func_by_name("f").unwrap();
        let f = chls_ir::lower_function(&hir, id).unwrap();
        let forest = chls_ir::loops::LoopForest::compute(&f);
        let l = &forest.loops[0];
        let body: Vec<_> = l
            .blocks
            .iter()
            .copied()
            .filter(|b| *b != l.header)
            .collect();
        let model = chls_rtl::cost::CostModel::new();
        let carried_mem_edges = |precision| {
            let (dfg, _) = loop_dfg(&f, l.header, &body, precision, &model);
            dfg.edges
                .iter()
                .filter(|e| {
                    e.distance == 1
                        && dfg.nodes[e.from.0 as usize].mem.is_some()
                        && dfg.nodes[e.to.0 as usize].mem.is_some()
                })
                .count()
        };
        assert_eq!(
            carried_mem_edges(chls_opt::dep::AliasPrecision::Basic),
            0,
            "affine analysis should prove independence"
        );
        assert!(
            carried_mem_edges(chls_opt::dep::AliasPrecision::None) > 0,
            "without analysis the pair must stay ordered"
        );
    }

    #[test]
    fn genuine_neighbour_dependence_keeps_carried_edge() {
        // `a[i + 1] = a[i] + 1` reads what the previous iteration wrote:
        // offset math (0 == stride + (-1) ... here read i, write i+1 with
        // stride 1: ca(store)=1, cb(load)=0, 1 == 1 + 0) proves a real
        // conflict that must stay.
        let hir = chls_frontend::compile_to_hir(
            "void f(int a[32]) {
                for (int i = 0; i < 31; i++) a[i + 1] = a[i] + 1;
            }",
        )
        .unwrap();
        let (id, _) = hir.func_by_name("f").unwrap();
        let f = chls_ir::lower_function(&hir, id).unwrap();
        let forest = chls_ir::loops::LoopForest::compute(&f);
        let l = &forest.loops[0];
        let body: Vec<_> = l
            .blocks
            .iter()
            .copied()
            .filter(|b| *b != l.header)
            .collect();
        let model = chls_rtl::cost::CostModel::new();
        let (dfg, _) = loop_dfg(
            &f,
            l.header,
            &body,
            chls_opt::dep::AliasPrecision::Basic,
            &model,
        );
        let carried_mem = dfg
            .edges
            .iter()
            .filter(|e| {
                e.distance == 1
                    && dfg.nodes[e.from.0 as usize].mem.is_some()
                    && dfg.nodes[e.to.0 as usize].mem.is_some()
            })
            .count();
        assert!(carried_mem > 0, "real dependence was dropped");
    }

    #[test]
    fn loop_dfg_finds_carried_edges() {
        let hir = chls_frontend::compile_to_hir(
            "int f(int a[64], int n) {
                int s = 0;
                for (int i = 0; i < n; i++) s += a[i] * 3;
                return s;
            }",
        )
        .unwrap();
        let (id, _) = hir.func_by_name("f").unwrap();
        let f = chls_ir::lower_function(&hir, id).unwrap();
        let forest = chls_ir::loops::LoopForest::compute(&f);
        assert_eq!(forest.loops.len(), 1);
        let l = &forest.loops[0];
        let body: Vec<_> = l
            .blocks
            .iter()
            .copied()
            .filter(|b| *b != l.header)
            .collect();
        let model = chls_rtl::cost::CostModel::new();
        let (dfg, _) = loop_dfg(
            &f,
            l.header,
            &body,
            chls_opt::dep::AliasPrecision::Basic,
            &model,
        );
        assert!(dfg.edges.iter().any(|e| e.distance == 1), "{dfg:?}");
        let s = modulo_schedule(&dfg, 2.0, &Resources::typical());
        // MAC loop with one memory port: II small (1-2).
        assert!(s.ii <= 2, "{s:?}");
    }
}

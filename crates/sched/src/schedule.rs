//! Core scheduling algorithms: ASAP/ALAP with operator chaining, and
//! resource-constrained list scheduling.
//!
//! A schedule assigns each DFG node a start cycle. Chaining packs
//! dependent operations into one cycle while their combinational delays
//! fit the clock period; multi-cycle operations (a 32-bit divider at a
//! short period) occupy several consecutive cycles.

use crate::dfg::{Dfg, NodeId};
use chls_rtl::cost::OpClass;
use std::collections::HashMap;

/// A computed schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Start cycle of every node.
    pub cycle: Vec<u32>,
    /// Arrival time (ns) within its start cycle, after chained predecessors.
    pub arrival_ns: Vec<f64>,
    /// Cycles the node occupies (≥ 1; >1 for multi-cycle operations).
    pub duration: Vec<u32>,
    /// Total schedule length in cycles.
    pub length: u32,
}

impl Schedule {
    /// Number of nodes starting in each cycle, per op class (for
    /// resource-usage reports).
    pub fn usage_per_cycle(&self, dfg: &Dfg) -> Vec<HashMap<OpClass, usize>> {
        let mut out = vec![HashMap::new(); self.length as usize];
        for (i, &c) in self.cycle.iter().enumerate() {
            if (c as usize) < out.len() {
                *out[c as usize].entry(dfg.nodes[i].op).or_insert(0) += 1;
            }
        }
        out
    }

    /// Maximum simultaneous uses of each op class across cycles — the
    /// functional units an unshared implementation needs.
    pub fn fu_requirements(&self, dfg: &Dfg) -> HashMap<OpClass, usize> {
        let mut worst: HashMap<OpClass, usize> = HashMap::new();
        for cycle_usage in self.usage_per_cycle(dfg) {
            for (k, v) in cycle_usage {
                let e = worst.entry(k).or_insert(0);
                *e = (*e).max(v);
            }
        }
        worst
    }
}

/// How many cycles a node of the given delay needs at `period_ns`, and
/// whether it is chainable (single-cycle ops only).
fn cycles_needed(delay_ns: f64, period_ns: f64) -> u32 {
    if delay_ns <= period_ns {
        1
    } else {
        (delay_ns / period_ns).ceil() as u32
    }
}

/// As-soon-as-possible schedule with chaining under `period_ns`.
///
/// Memory ports are not constrained here; use [`list_schedule`] for that.
pub fn asap(dfg: &Dfg, period_ns: f64) -> Schedule {
    let n = dfg.nodes.len();
    let preds = dfg.preds();
    let order = dfg.topo_order();
    let mut cycle = vec![0u32; n];
    let mut arrival = vec![0f64; n];
    let mut duration = vec![1u32; n];
    for &v in &order {
        let i = v.0 as usize;
        let my_delay = dfg.nodes[i].delay_ns;
        let my_cycles = cycles_needed(my_delay, period_ns);
        duration[i] = my_cycles;
        // Earliest start considering each predecessor.
        let mut best_cycle = 0u32;
        let mut best_arrival = 0f64;
        for &p in &preds[i] {
            let pi = p.0 as usize;
            let p_end_cycle = cycle[pi] + duration[pi] - 1;
            if duration[pi] > 1 || my_cycles > 1 || !dfg.nodes[pi].chainable {
                // Multi-cycle ops register their results: no chaining.
                let c = p_end_cycle + 1;
                if c > best_cycle {
                    best_cycle = c;
                    best_arrival = 0.0;
                } else if c == best_cycle {
                    best_arrival = best_arrival.max(0.0);
                }
            } else {
                // Try to chain in the predecessor's cycle.
                let chained_arrival = arrival[pi] + dfg.nodes[pi].delay_ns;
                if chained_arrival + my_delay <= period_ns {
                    if p_end_cycle > best_cycle {
                        best_cycle = p_end_cycle;
                        best_arrival = chained_arrival;
                    } else if p_end_cycle == best_cycle {
                        best_arrival = best_arrival.max(chained_arrival);
                    }
                } else {
                    let c = p_end_cycle + 1;
                    if c > best_cycle {
                        best_cycle = c;
                        best_arrival = 0.0;
                    }
                }
            }
        }
        cycle[i] = best_cycle;
        arrival[i] = best_arrival;
    }
    let length = (0..n)
        .map(|i| cycle[i] + duration[i])
        .max()
        .unwrap_or(0)
        .max(if n == 0 { 0 } else { 1 });
    Schedule {
        cycle,
        arrival_ns: arrival,
        duration,
        length,
    }
}

/// As-late-as-possible schedule within `deadline` cycles (no chaining
/// refinement — ALAP is used for mobility, where cycle granularity is
/// what matters).
pub fn alap(dfg: &Dfg, period_ns: f64, deadline: u32) -> Schedule {
    let n = dfg.nodes.len();
    let succs = dfg.succs();
    let order = dfg.topo_order();
    let mut cycle = vec![0u32; n];
    let mut duration = vec![1u32; n];
    for &v in order.iter().rev() {
        let i = v.0 as usize;
        duration[i] = cycles_needed(dfg.nodes[i].delay_ns, period_ns);
        let latest_end = succs[i]
            .iter()
            .map(|s| cycle[s.0 as usize])
            .min()
            .unwrap_or(deadline);
        cycle[i] = latest_end.saturating_sub(duration[i]);
    }
    Schedule {
        cycle,
        arrival_ns: vec![0.0; n],
        duration,
        length: deadline,
    }
}

/// Resource constraints for list scheduling.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Resources {
    /// Available units per op class; absent classes are unlimited.
    pub units: HashMap<OpClass, usize>,
    /// Ports per memory id; absent memories get `default_mem_ports`.
    pub mem_ports: HashMap<u32, usize>,
    /// Port count for memories not listed in `mem_ports` (0 = unlimited).
    pub default_mem_ports: usize,
}

impl Resources {
    /// Unlimited resources.
    pub fn unlimited() -> Self {
        Resources::default()
    }

    /// A typical constrained datapath: limited multipliers/dividers and
    /// single-ported memories.
    pub fn typical() -> Self {
        let mut units = HashMap::new();
        units.insert(OpClass::Mul, 1);
        units.insert(OpClass::DivRem, 1);
        Resources {
            units,
            mem_ports: HashMap::new(),
            default_mem_ports: 1,
        }
    }

    fn op_limit(&self, op: OpClass) -> Option<usize> {
        self.units.get(&op).copied()
    }

    fn mem_limit(&self, mem: u32) -> Option<usize> {
        match self.mem_ports.get(&mem) {
            Some(&p) => Some(p),
            None if self.default_mem_ports > 0 => Some(self.default_mem_ports),
            None => None,
        }
    }
}

/// Resource-constrained list scheduling with chaining, priority =
/// least ALAP slack (critical path first).
pub fn list_schedule(dfg: &Dfg, period_ns: f64, res: &Resources) -> Schedule {
    let _span = chls_trace::span("sched.list");
    let s = list_schedule_inner(dfg, period_ns, res);
    chls_trace::add("sched.cycles", u64::from(s.length));
    chls_trace::gauge("sched.length", u64::from(s.length));
    s
}

fn list_schedule_inner(dfg: &Dfg, period_ns: f64, res: &Resources) -> Schedule {
    let n = dfg.nodes.len();
    if n == 0 {
        return Schedule {
            cycle: Vec::new(),
            arrival_ns: Vec::new(),
            duration: Vec::new(),
            length: 0,
        };
    }
    let preds = dfg.preds();
    let asap_sched = asap(dfg, period_ns);
    let alap_sched = alap(dfg, period_ns, asap_sched.length.max(1));
    let duration: Vec<u32> = dfg
        .nodes
        .iter()
        .map(|nd| cycles_needed(nd.delay_ns, period_ns))
        .collect();

    let mut cycle = vec![u32::MAX; n];
    let mut arrival = vec![0f64; n];
    let mut unscheduled: Vec<NodeId> = dfg.topo_order();
    // usage[(cycle)][resource]: occupancy. Multi-cycle units stay busy for
    // their whole duration.
    let mut op_usage: HashMap<(u32, OpClass), usize> = HashMap::new();
    let mut mem_usage: HashMap<(u32, u32), usize> = HashMap::new();

    // Priority: smaller ALAP first (less slack).
    unscheduled.sort_by_key(|v| alap_sched.cycle[v.0 as usize]);

    let mut done = vec![false; n];
    let mut remaining = n;
    let mut guard = 0u64;
    while remaining > 0 {
        guard += 1;
        assert!(guard < 1_000_000, "list scheduler failed to converge");
        let mut progressed = false;
        for &v in &unscheduled {
            let i = v.0 as usize;
            if done[i] {
                continue;
            }
            if preds[i].iter().any(|p| !done[p.0 as usize]) {
                continue;
            }
            // Earliest data-ready slot (with chaining).
            let mut ready_cycle = 0u32;
            let mut ready_arrival = 0f64;
            for &p in &preds[i] {
                let pi = p.0 as usize;
                let p_end = cycle[pi] + duration[pi] - 1;
                if duration[pi] > 1 || duration[i] > 1 || !dfg.nodes[pi].chainable {
                    let c = p_end + 1;
                    if c > ready_cycle {
                        ready_cycle = c;
                        ready_arrival = 0.0;
                    }
                } else {
                    let chained = arrival[pi] + dfg.nodes[pi].delay_ns;
                    if chained + dfg.nodes[i].delay_ns <= period_ns {
                        if p_end > ready_cycle {
                            ready_cycle = p_end;
                            ready_arrival = chained;
                        } else if p_end == ready_cycle {
                            ready_arrival = ready_arrival.max(chained);
                        }
                    } else if p_end + 1 > ready_cycle {
                        ready_cycle = p_end + 1;
                        ready_arrival = 0.0;
                    }
                }
            }
            // Find the first cycle with resources available for the whole
            // duration.
            let mut c = ready_cycle;
            loop {
                let mut ok = true;
                for dc in 0..duration[i] {
                    if let Some(limit) = res.op_limit(dfg.nodes[i].op) {
                        if op_usage
                            .get(&(c + dc, dfg.nodes[i].op))
                            .copied()
                            .unwrap_or(0)
                            >= limit
                        {
                            ok = false;
                            break;
                        }
                    }
                    if let Some(mem) = dfg.nodes[i].mem {
                        if let Some(ports) = res.mem_limit(mem) {
                            if mem_usage.get(&(c + dc, mem)).copied().unwrap_or(0) >= ports {
                                ok = false;
                                break;
                            }
                        }
                    }
                }
                if ok {
                    break;
                }
                c += 1;
                ready_arrival = 0.0;
            }
            // Commit.
            cycle[i] = c;
            arrival[i] = if c == ready_cycle { ready_arrival } else { 0.0 };
            for dc in 0..duration[i] {
                *op_usage.entry((c + dc, dfg.nodes[i].op)).or_insert(0) += 1;
                if let Some(mem) = dfg.nodes[i].mem {
                    *mem_usage.entry((c + dc, mem)).or_insert(0) += 1;
                }
            }
            done[i] = true;
            remaining -= 1;
            progressed = true;
        }
        assert!(progressed, "list scheduler deadlocked");
    }
    let length = (0..n).map(|i| cycle[i] + duration[i]).max().unwrap_or(1);
    Schedule {
        cycle,
        arrival_ns: arrival,
        duration,
        length,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfg::{DfgNode, NodeId};
    use chls_rtl::cost::CostModel;

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

    /// Chain a -> b -> c of adds plus an independent d.
    fn chain_dfg() -> Dfg {
        let mut d = Dfg::default();
        let a = d.add_node(node(OpClass::AddSub, 0.3));
        let b = d.add_node(node(OpClass::AddSub, 0.3));
        let c = d.add_node(node(OpClass::AddSub, 0.3));
        let _ind = d.add_node(node(OpClass::AddSub, 0.3));
        d.add_edge(a, b);
        d.add_edge(b, c);
        d
    }

    #[test]
    fn asap_chains_within_period() {
        let d = chain_dfg();
        // Period fits all three chained adds (0.9 <= 1.0).
        let s = asap(&d, 1.0);
        assert_eq!(s.length, 1, "{s:?}");
        // Period fits only one add per cycle.
        let s = asap(&d, 0.35);
        assert_eq!(s.length, 3, "{s:?}");
        // Period fits two chained adds.
        let s = asap(&d, 0.65);
        assert_eq!(s.length, 2, "{s:?}");
    }

    #[test]
    fn multicycle_divider() {
        let mut d = Dfg::default();
        let div = d.add_node(node(OpClass::DivRem, 3.2));
        let add = d.add_node(node(OpClass::AddSub, 0.3));
        d.add_edge(div, add);
        let s = asap(&d, 1.0);
        // Divider needs 4 cycles, add starts after.
        assert_eq!(s.duration[div.0 as usize], 4);
        assert_eq!(s.cycle[add.0 as usize], 4);
        assert_eq!(s.length, 5);
    }

    #[test]
    fn alap_pushes_late() {
        let d = chain_dfg();
        let s = alap(&d, 0.35, 3);
        // Independent node sits in the last cycle under ALAP.
        assert_eq!(s.cycle[3], 2);
        // The chain is forced: 0, 1, 2.
        assert_eq!((s.cycle[0], s.cycle[1], s.cycle[2]), (0, 1, 2));
    }

    #[test]
    fn list_schedule_respects_unit_limits() {
        // Four independent multiplies, one multiplier.
        let mut d = Dfg::default();
        for _ in 0..4 {
            d.add_node(node(OpClass::Mul, 0.8));
        }
        let mut res = Resources::unlimited();
        res.units.insert(OpClass::Mul, 1);
        let s = list_schedule(&d, 1.0, &res);
        assert_eq!(s.length, 4);
        // With two multipliers: two cycles.
        res.units.insert(OpClass::Mul, 2);
        let s = list_schedule(&d, 1.0, &res);
        assert_eq!(s.length, 2);
        // Unlimited: one cycle.
        let s = list_schedule(&d, 1.0, &Resources::unlimited());
        assert_eq!(s.length, 1);
    }

    #[test]
    fn list_schedule_respects_memory_ports() {
        // Two independent loads from the same memory, one port.
        let mut d = Dfg::default();
        let mk = |d: &mut Dfg| {
            d.add_node(DfgNode {
                op: OpClass::MemRead,
                width: 32,
                delay_ns: 0.4,
                mem: Some(0),
                chainable: false,
                tag: 0,
            })
        };
        mk(&mut d);
        mk(&mut d);
        let res = Resources {
            default_mem_ports: 1,
            ..Default::default()
        };
        let s = list_schedule(&d, 1.0, &res);
        assert_eq!(s.length, 2);
        let res2 = Resources {
            default_mem_ports: 2,
            ..Default::default()
        };
        let s = list_schedule(&d, 1.0, &res2);
        assert_eq!(s.length, 1);
    }

    #[test]
    fn list_matches_asap_when_unlimited() {
        let hir = chls_frontend::compile_to_hir(
            "int f(int a, int b, int c, int d) { return (a + b) * (c + d); }",
        )
        .unwrap();
        let (id, _) = hir.func_by_name("f").unwrap();
        let f = chls_ir::lower_function(&hir, id).unwrap();
        let model = CostModel::new();
        let (dfg, _) =
            crate::dfg::dfg_from_block(&f, f.entry, chls_opt::dep::AliasPrecision::Basic, &model);
        let a = asap(&dfg, 2.0);
        let l = list_schedule(&dfg, 2.0, &Resources::unlimited());
        assert_eq!(a.length, l.length);
    }

    #[test]
    fn fu_requirements_from_schedule() {
        let mut d = Dfg::default();
        for _ in 0..3 {
            d.add_node(node(OpClass::Mul, 0.8));
        }
        let s = list_schedule(&d, 1.0, &Resources::unlimited());
        assert_eq!(s.fu_requirements(&d).get(&OpClass::Mul), Some(&3));
        let mut res = Resources::unlimited();
        res.units.insert(OpClass::Mul, 1);
        let s = list_schedule(&d, 1.0, &res);
        assert_eq!(s.fu_requirements(&d).get(&OpClass::Mul), Some(&1));
    }

    #[test]
    fn empty_dfg() {
        let d = Dfg::default();
        let s = list_schedule(&d, 1.0, &Resources::unlimited());
        assert_eq!(s.length, 0);
        let _ = NodeId(0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::dfg::{Dfg, DfgNode, NodeId};
    use chls_rtl::cost::OpClass;
    use proptest::prelude::*;

    /// Random DAG: `n` nodes, each with edges from a random subset of
    /// earlier nodes.
    fn arb_dfg() -> impl Strategy<Value = Dfg> {
        (2usize..24, any::<u64>()).prop_map(|(n, seed)| {
            let mut d = Dfg::default();
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for i in 0..n {
                let class = match next() % 4 {
                    0 => OpClass::Mul,
                    1 => OpClass::AddSub,
                    2 => OpClass::Logic,
                    _ => OpClass::MemRead,
                };
                let delay = match class {
                    OpClass::Mul => 0.9,
                    OpClass::AddSub => 0.35,
                    OpClass::Logic => 0.05,
                    _ => 0.5,
                };
                d.add_node(DfgNode {
                    op: class,
                    width: 32,
                    delay_ns: delay,
                    mem: if class == OpClass::MemRead {
                        Some((next() % 2) as u32)
                    } else {
                        None
                    },
                    chainable: class != OpClass::MemRead,
                    tag: i as u32,
                });
                // Edges from up to two earlier nodes.
                for _ in 0..(next() % 3) {
                    if i > 0 {
                        let src = (next() as usize) % i;
                        d.add_edge(NodeId(src as u32), NodeId(i as u32));
                    }
                }
            }
            d
        })
    }

    proptest! {
        /// Every schedule respects dependences and resource limits.
        #[test]
        fn list_schedule_invariants(dfg in arb_dfg()) {
            let mut res = Resources::typical();
            res.units.insert(OpClass::Mul, 1);
            let s = list_schedule(&dfg, 1.0, &res);
            // Dependences: consumer starts no earlier than producer ends
            // (same cycle only when chained, i.e. arrival bookkeeping).
            for e in &dfg.edges {
                let (p, c) = (e.from.0 as usize, e.to.0 as usize);
                let p_end = s.cycle[p] + s.duration[p] - 1;
                prop_assert!(
                    s.cycle[c] >= p_end
                        || (s.cycle[c] == s.cycle[p] && dfg.nodes[p].chainable),
                    "edge {e:?} violated: producer {} (+{}), consumer {}",
                    s.cycle[p], s.duration[p], s.cycle[c]
                );
            }
            // Resources: never more than one multiplier per cycle, never
            // more than one port per memory per cycle.
            let usage = s.usage_per_cycle(&dfg);
            for cycle in usage {
                prop_assert!(cycle.get(&OpClass::Mul).copied().unwrap_or(0) <= 1);
            }
            let mut mem_use: std::collections::HashMap<(u32, u32), usize> =
                std::collections::HashMap::new();
            for (i, node) in dfg.nodes.iter().enumerate() {
                if let Some(m) = node.mem {
                    for dc in 0..s.duration[i] {
                        *mem_use.entry((s.cycle[i] + dc, m)).or_insert(0) += 1;
                    }
                }
            }
            for ((_, _), n) in mem_use {
                prop_assert!(n <= 1, "memory port oversubscribed");
            }
        }

        /// ASAP is a lower bound for list scheduling length.
        #[test]
        fn asap_is_lower_bound(dfg in arb_dfg()) {
            let a = asap(&dfg, 1.0);
            let l = list_schedule(&dfg, 1.0, &Resources::typical());
            prop_assert!(l.length >= a.length);
        }
    }
}

//! Force-directed scheduling (Paulin & Knight), the classic
//! latency-constrained, resource-minimizing scheduler of behavioural
//! synthesis systems like HardwareC's Olympus/Hebe.
//!
//! Given a latency budget, each operation's *time frame* is
//! [ASAP, ALAP]; distribution graphs estimate expected resource usage per
//! cycle; operations are fixed one at a time to the cycle with the lowest
//! "force" (self force + predecessor/successor forces), flattening the
//! usage profile and thus minimizing peak functional units.
//!
//! This powers experiment E10: sweeping the latency budget produces the
//! latency-vs-area Pareto curve that makes "constraints allow easier
//! design-space exploration" concrete.

use crate::dfg::Dfg;
use crate::schedule::{alap, asap, Schedule};
use chls_rtl::cost::OpClass;
use std::collections::HashMap;

/// Force-directed schedule under a latency budget of `deadline` cycles.
/// Falls back to the budget implied by ASAP when the deadline is too
/// tight. Cycle granularity (no chaining) — standard for FDS.
pub fn force_directed(dfg: &Dfg, period_ns: f64, deadline: u32) -> Schedule {
    let _span = chls_trace::span("sched.fds");
    let s = force_directed_inner(dfg, period_ns, deadline);
    chls_trace::add("sched.cycles", u64::from(s.length));
    chls_trace::gauge("sched.length", u64::from(s.length));
    s
}

fn force_directed_inner(dfg: &Dfg, period_ns: f64, deadline: u32) -> Schedule {
    let n = dfg.nodes.len();
    if n == 0 {
        return Schedule {
            cycle: Vec::new(),
            arrival_ns: Vec::new(),
            duration: Vec::new(),
            length: 0,
        };
    }
    let asap_sched = asap(dfg, period_ns);
    let deadline = deadline.max(asap_sched.length);
    let alap_sched = alap(dfg, period_ns, deadline);
    let preds = dfg.preds();
    let succs = dfg.succs();

    // Mutable frames.
    let mut lo: Vec<u32> = asap_sched.cycle.clone();
    let mut hi: Vec<u32> = alap_sched.cycle.clone();
    for i in 0..n {
        if hi[i] < lo[i] {
            hi[i] = lo[i];
        }
    }
    let duration = asap_sched.duration.clone();
    let mut fixed = vec![false; n];

    // Iteratively fix the operation/cycle pair with minimal force.
    for _ in 0..n {
        // Distribution graphs per op class (sized to the widest frame —
        // multi-cycle tails can reach past the nominal deadline).
        let horizon = (0..n).map(|i| hi[i] + duration[i]).max().unwrap_or(1) as usize + 1;
        let mut dg: HashMap<OpClass, Vec<f64>> = HashMap::new();
        for i in 0..n {
            let frame = (hi[i] - lo[i] + 1) as f64;
            let p = 1.0 / frame;
            let entry = dg
                .entry(dfg.nodes[i].op)
                .or_insert_with(|| vec![0.0; horizon.max(deadline as usize + 1)]);
            for c in lo[i]..=hi[i] {
                entry[c as usize] += p;
            }
        }

        // Pick the unfixed op and target cycle with minimal self force.
        let mut best: Option<(usize, u32, f64)> = None;
        for i in 0..n {
            if fixed[i] {
                continue;
            }
            let class_dg = &dg[&dfg.nodes[i].op];
            let frame = (hi[i] - lo[i] + 1) as f64;
            let avg: f64 = (lo[i]..=hi[i]).map(|c| class_dg[c as usize]).sum::<f64>() / frame;
            for c in lo[i]..=hi[i] {
                // Self force: moving the whole probability mass to c.
                let force = class_dg[c as usize] - avg;
                match best {
                    None => best = Some((i, c, force)),
                    Some((_, _, bf)) if force < bf => best = Some((i, c, force)),
                    _ => {}
                }
            }
        }
        let Some((i, c, _)) = best else { break };
        lo[i] = c;
        hi[i] = c;
        fixed[i] = true;
        // Propagate frame tightening through dependences.
        let mut changed = true;
        while changed {
            changed = false;
            for e in &dfg.edges {
                if e.distance != 0 {
                    continue;
                }
                let (p, s) = (e.from.0 as usize, e.to.0 as usize);
                let min_s = lo[p] + duration[p];
                if lo[s] < min_s {
                    lo[s] = min_s;
                    changed = true;
                }
                let max_p = hi[s].saturating_sub(duration[p]);
                if hi[p] > max_p {
                    hi[p] = max_p.max(lo[p]);
                    changed = true;
                }
            }
            for i in 0..n {
                if hi[i] < lo[i] {
                    hi[i] = lo[i];
                    changed = false; // clamp, do not loop forever
                }
            }
        }
        let _ = &preds;
        let _ = &succs;
    }

    let cycle = lo;
    let length = (0..n)
        .map(|i| cycle[i] + duration[i])
        .max()
        .unwrap_or(1)
        .max(deadline);
    Schedule {
        cycle,
        arrival_ns: vec![0.0; n],
        duration,
        length,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfg::DfgNode;
    use crate::schedule::Resources;

    fn node(op: OpClass) -> DfgNode {
        DfgNode {
            op,
            width: 32,
            delay_ns: 0.8,
            mem: None,
            chainable: true,
            tag: 0,
        }
    }

    /// Two independent multiply chains of length 2.
    fn two_chains() -> Dfg {
        let mut d = Dfg::default();
        let a0 = d.add_node(node(OpClass::Mul));
        let a1 = d.add_node(node(OpClass::Mul));
        let b0 = d.add_node(node(OpClass::Mul));
        let b1 = d.add_node(node(OpClass::Mul));
        d.add_edge(a0, a1);
        d.add_edge(b0, b1);
        d
    }

    #[test]
    fn relaxed_deadline_reduces_peak_usage() {
        let d = two_chains();
        // Tight deadline (2 cycles): both chains overlap -> 2 multipliers.
        let tight = force_directed(&d, 1.0, 2);
        let peak_tight = tight
            .fu_requirements(&d)
            .get(&OpClass::Mul)
            .copied()
            .unwrap_or(0);
        assert_eq!(peak_tight, 2, "{tight:?}");
        // Relaxed deadline (4 cycles): FDS staggers the chains -> 1.
        let relaxed = force_directed(&d, 1.0, 4);
        let peak_relaxed = relaxed
            .fu_requirements(&d)
            .get(&OpClass::Mul)
            .copied()
            .unwrap_or(0);
        assert_eq!(peak_relaxed, 1, "{relaxed:?}");
    }

    #[test]
    fn dependences_always_respected() {
        let d = two_chains();
        for deadline in 2..8 {
            let s = force_directed(&d, 1.0, deadline);
            for e in &d.edges {
                assert!(
                    s.cycle[e.to.0 as usize]
                        >= s.cycle[e.from.0 as usize] + s.duration[e.from.0 as usize],
                    "deadline {deadline}: edge {e:?} violated in {s:?}"
                );
            }
        }
    }

    #[test]
    fn matches_list_when_budget_is_asap() {
        let d = two_chains();
        let fds = force_directed(&d, 1.0, 0);
        let ls = crate::schedule::list_schedule(&d, 1.0, &Resources::unlimited());
        assert_eq!(
            fds.cycle
                .iter()
                .zip(&fds.duration)
                .map(|(c, du)| c + du)
                .max(),
            ls.cycle
                .iter()
                .zip(&ls.duration)
                .map(|(c, du)| c + du)
                .max()
        );
    }

    #[test]
    fn pareto_sweep_is_monotone() {
        // Peak multiplier usage never increases as the deadline grows.
        let d = two_chains();
        let mut prev_peak = usize::MAX;
        for deadline in 2..=6 {
            let s = force_directed(&d, 1.0, deadline);
            let peak = s
                .fu_requirements(&d)
                .get(&OpClass::Mul)
                .copied()
                .unwrap_or(0);
            assert!(
                peak <= prev_peak,
                "deadline {deadline}: {peak} > {prev_peak}"
            );
            prev_peak = peak;
        }
    }
}

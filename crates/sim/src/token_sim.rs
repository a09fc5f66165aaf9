//! Asynchronous (clockless) timing models.
//!
//! Two levels of fidelity:
//!
//! * [`trace_completion_time`] — the *dataflow limit*: given a dynamic
//!   dependence trace from the IR executor and per-operation latencies, the
//!   completion time if every operation fired the instant its inputs were
//!   ready (an ideal asynchronous machine with unlimited units). CASH's
//!   dataflow circuits approach this bound.
//! * The full token-level simulator for CASH dataflow graphs lives in
//!   `chls-dataflow` (it needs the graph structure itself).
//!
//! The same trace scored with a *clocked* model (every op takes one cycle
//! of the worst-case period) gives the synchronous baseline for the
//! async-vs-sync experiment.

use chls_ir::exec::TraceEntry;
use chls_ir::{Function, InstKind, UnKind};
use chls_rtl::cost::{CostModel, OpClass};
use chls_rtl::netlist::bin_class;

/// Latency assignment for trace scoring.
pub trait LatencyModel {
    /// Latency of one executed instruction, in abstract time units.
    fn latency(&self, f: &Function, e: &TraceEntry) -> u64;
}

/// Latencies from the shared cost model (delay-proportional).
#[derive(Debug, Clone)]
pub struct CostLatency<'m> {
    /// The cost model supplying delays.
    pub model: &'m CostModel,
}

/// The cost class of an executed instruction.
pub fn inst_op_class(f: &Function, e: &TraceEntry) -> (OpClass, u16) {
    let inst = f.inst(e.inst);
    match &inst.kind {
        InstKind::Bin(op, a, _) => {
            let w = if op.is_comparison() {
                f.inst(*a).ty.width
            } else {
                inst.ty.width
            };
            (bin_class(*op), w)
        }
        InstKind::Un(UnKind::Neg, _) => (OpClass::AddSub, inst.ty.width),
        InstKind::Un(UnKind::Not, _) => (OpClass::Logic, inst.ty.width),
        InstKind::Select { .. } => (OpClass::Mux, inst.ty.width),
        InstKind::Cast { .. } => (OpClass::Cast, inst.ty.width),
        InstKind::Load { .. } => (OpClass::MemRead, inst.ty.width),
        InstKind::Store { .. } => (OpClass::MemWrite, inst.ty.width),
        InstKind::Param(_) | InstKind::Const(_) | InstKind::Phi(_) => {
            (OpClass::Const, inst.ty.width)
        }
    }
}

impl LatencyModel for CostLatency<'_> {
    fn latency(&self, f: &Function, e: &TraceEntry) -> u64 {
        let (class, width) = inst_op_class(f, e);
        self.model.async_latency(class, width)
    }
}

/// Uniform latency for every operation (the synchronous strawman).
#[derive(Debug, Clone, Copy)]
pub struct UniformLatency(pub u64);

impl LatencyModel for UniformLatency {
    fn latency(&self, _f: &Function, _e: &TraceEntry) -> u64 {
        self.0
    }
}

/// Both trace scores, computed in one pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceMetrics {
    /// Async completion time (the dataflow limit), in model time units.
    pub completion_time: u64,
    /// Longest dependence chain, in operations.
    pub critical_path_len: u64,
}

/// Scores a dynamic trace in a single pass: each entry finishes at
/// `max(dep finish times) + latency`, and its depth is one more than its
/// deepest dependence. Traces run to millions of entries, so the two
/// per-entry arrays are folded into one and filled in the same sweep
/// instead of walking the trace once per metric.
pub fn trace_metrics(
    f: &Function,
    trace: &[TraceEntry],
    model: &impl LatencyModel,
) -> TraceMetrics {
    // (finish time, chain depth) per entry.
    let mut scores: Vec<(u64, u64)> = Vec::with_capacity(trace.len());
    let mut completion: u64 = 0;
    let mut worst_depth: u64 = 0;
    for e in trace {
        let (mut ready, mut depth) = (0, 0);
        for &d in &e.deps {
            let (df, dd) = scores[d as usize];
            ready = ready.max(df);
            depth = depth.max(dd);
        }
        let t = ready + model.latency(f, e);
        let d = depth + 1;
        scores.push((t, d));
        completion = completion.max(t);
        worst_depth = worst_depth.max(d);
    }
    TraceMetrics {
        completion_time: completion,
        critical_path_len: worst_depth,
    }
}

/// Completion time of a dynamic trace on an ideal asynchronous dataflow
/// machine. Thin wrapper over [`trace_metrics`].
pub fn trace_completion_time(f: &Function, trace: &[TraceEntry], model: &impl LatencyModel) -> u64 {
    trace_metrics(f, trace, model).completion_time
}

/// The length of the longest dependence chain (in operations) — the
/// critical path that bounds ILP.
pub fn trace_critical_path_len(trace: &[TraceEntry]) -> u64 {
    let mut depth: Vec<u64> = Vec::with_capacity(trace.len());
    let mut worst = 0;
    for e in trace {
        let d = e.deps.iter().map(|&x| depth[x as usize]).max().unwrap_or(0) + 1;
        depth.push(d);
        worst = worst.max(d);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use chls_ir::exec::{execute, ArgValue, ExecOptions};
    use chls_ir::lower_function;

    fn trace_of(src: &str, name: &str, args: &[ArgValue]) -> (Function, Vec<TraceEntry>) {
        let hir = chls_frontend::compile_to_hir(src).expect("frontend ok");
        let (id, _) = hir.func_by_name(name).expect("function exists");
        let f = lower_function(&hir, id).expect("lowering ok");
        let r = execute(
            &f,
            args,
            &ExecOptions {
                record_trace: true,
                ..Default::default()
            },
        )
        .expect("exec ok");
        (f, r.trace)
    }

    #[test]
    fn independent_ops_overlap() {
        // (a+b) and (a-b) run in parallel; the multiply waits for both.
        let (f, trace) = trace_of(
            "int f(int a, int b) { return (a + b) * (a - b); }",
            "f",
            &[ArgValue::Scalar(5), ArgValue::Scalar(2)],
        );
        let t = trace_completion_time(&f, &trace, &UniformLatency(10));
        // Two levels: {add, sub} then mul = 20, not 30.
        assert_eq!(t, 20);
        assert_eq!(trace_critical_path_len(&trace), 2);
        // The combined single pass agrees with both wrappers.
        let m = trace_metrics(&f, &trace, &UniformLatency(10));
        assert_eq!(m.completion_time, 20);
        assert_eq!(m.critical_path_len, 2);
    }

    #[test]
    fn chain_is_serial() {
        let (f, trace) = trace_of(
            "int f(int a) { int x = a + 1; x = x + 2; x = x + 3; return x; }",
            "f",
            &[ArgValue::Scalar(0)],
        );
        let t = trace_completion_time(&f, &trace, &UniformLatency(10));
        assert_eq!(t, 30);
        assert_eq!(trace_critical_path_len(&trace), 3);
    }

    #[test]
    fn cost_latency_penalizes_division() {
        let (f, trace) = trace_of(
            "int f(int a, int b) { return a / (b + 1); }",
            "f",
            &[ArgValue::Scalar(100), ArgValue::Scalar(3)],
        );
        let model = CostModel::new();
        let t = trace_completion_time(&f, &trace, &CostLatency { model: &model });
        let add_only = model.async_latency(OpClass::AddSub, 32);
        let div = model.async_latency(OpClass::DivRem, 32);
        assert_eq!(t, add_only + div);
        assert!(div > 10 * add_only);
    }

    #[test]
    fn unbalanced_latencies_favor_async() {
        // One slow op (div) on an off-critical path: async overlaps it with
        // the chain of adds; a one-size-fits-all clock cannot.
        let src = "int f(int a, int b) {
            int slow = a / 3;
            int fast = b + 1; fast = fast + 2; fast = fast + 3;
            return slow + fast;
        }";
        let (f, trace) = trace_of(src, "f", &[ArgValue::Scalar(9), ArgValue::Scalar(0)]);
        let model = CostModel::new();
        let async_t = trace_completion_time(&f, &trace, &CostLatency { model: &model });
        // Synchronous: every op takes one clock at the divider's latency.
        let div = model.async_latency(OpClass::DivRem, 32);
        let sync_t = trace_critical_path_len(&trace) * div;
        assert!(
            async_t < sync_t,
            "async {async_t} should beat sync {sync_t}"
        );
    }
}

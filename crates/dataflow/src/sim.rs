//! Timed token simulation of dataflow circuits.
//!
//! Kahn-network semantics: every edge is an unbounded FIFO (sticky
//! producers' tokens are read non-destructively); a node fires when all
//! its input ports are ready, consumes its inputs, and delivers its
//! output after its latency. Execution is event-driven and deterministic;
//! the completion time of the `Result` node is the circuit's asynchronous
//! execution time.
//!
//! Latencies come from the shared [`CostModel`] (`async_latency`), so the
//! async-vs-sync experiment can skew them (e.g. slow dividers) for both
//! worlds consistently.
//!
//! # Hot path
//!
//! Firing rates run to millions of events per run, so the event loop
//! avoids hashing and per-event allocation: input-port → queue lookups
//! go through a dense per-node port table, each event carries the (at
//! most three) operands any node reads inline, selector streams and
//! merge dependents are per-node vectors, and latencies, arities and
//! comparison operand types are resolved once up front instead of per
//! firing. Set-up is linear in the edges.

use crate::graph::{DataflowGraph, NodeId, NodeKind};
use chls_ir::{eval_bin, eval_cast, eval_un};
use chls_rtl::cost::CostModel;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

pub use chls_ir::exec::ArgValue;

/// Simulation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenSimError {
    /// No more events but the result never fired.
    Deadlock {
        /// Nodes that fired at least once.
        fired: usize,
        /// Total nodes.
        total: usize,
    },
    /// Event budget exhausted (livelock or way-too-long run).
    EventLimit(u64),
    /// Memory access out of range.
    OutOfBounds {
        /// Memory name.
        mem: String,
        /// Offending address.
        addr: i64,
        /// Word count.
        len: usize,
    },
    /// Missing or mistyped argument.
    BadArgument(usize),
}

impl fmt::Display for TokenSimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenSimError::Deadlock { fired, total } => {
                write!(f, "dataflow deadlock ({fired}/{total} nodes ever fired)")
            }
            TokenSimError::EventLimit(n) => write!(f, "exceeded event limit of {n}"),
            TokenSimError::OutOfBounds { mem, addr, len } => {
                write!(f, "address {addr} out of range for `{mem}` (len {len})")
            }
            TokenSimError::BadArgument(i) => write!(f, "missing or mistyped argument {i}"),
        }
    }
}

impl std::error::Error for TokenSimError {}

/// Result of a token simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct TokenSimResult {
    /// The value delivered to the `Result` node (`None` for void).
    pub ret: Option<i64>,
    /// Completion time in abstract time units (10 ps per unit under the
    /// default cost model).
    pub time: u64,
    /// Total node firings.
    pub firings: u64,
    /// Final contents of every memory.
    pub mems: Vec<Vec<i64>>,
}

/// Fixed handshake overhead added to every firing, in time units.
const HANDSHAKE_OVERHEAD: u64 = 2;

/// Firings after which a run is abandoned.
const EVENT_LIMIT: u64 = 20_000_000;

/// Per-edge token storage.
enum EdgeQueue {
    Fifo(VecDeque<i64>),
    /// Sticky producer: one value, read without consuming.
    Sticky(Option<i64>),
}

/// The input tokens one firing reads: the first three it consumed.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
struct Operands {
    vals: [i64; 3],
    len: u8,
}

impl Operands {
    fn push(&mut self, v: i64) {
        if let Some(slot) = self.vals.get_mut(self.len as usize) {
            *slot = v;
            self.len += 1;
        }
    }
}

/// Simulates `g` with `args` bound by parameter index, with node
/// latencies from `model`.
///
/// # Errors
///
/// See [`TokenSimError`].
pub fn simulate(
    g: &DataflowGraph,
    args: &[ArgValue],
    model: &CostModel,
) -> Result<TokenSimResult, TokenSimError> {
    let _span = chls_trace::span("sim.dataflow");
    let r = simulate_inner(g, args, model);
    if let Ok(r) = &r {
        chls_trace::add("sim.time_units", r.time);
    }
    r
}

fn simulate_inner(
    g: &DataflowGraph,
    args: &[ArgValue],
    model: &CostModel,
) -> Result<TokenSimResult, TokenSimError> {
    let n = g.nodes.len();
    // Dense per-node input-port table: queue index (or `NO_EDGE`) at
    // `in_edge_idx[port_base[node] + port]`.
    const NO_EDGE: u32 = u32::MAX;
    let arities = g.arities();
    let mut port_base: Vec<u32> = Vec::with_capacity(n);
    let mut acc: u32 = 0;
    for &a in &arities {
        port_base.push(acc);
        acc += u32::from(a);
    }
    let mut in_edge_idx: Vec<u32> = vec![NO_EDGE; acc as usize];
    // Per node, output edge lists (value outputs and token outputs), and
    // each queue's consumer for candidate wakeup.
    let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut tok_out_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut queue_to: Vec<NodeId> = Vec::new();
    let mut queues: Vec<EdgeQueue> = Vec::new();
    let all_edges = g
        .edges
        .iter()
        .map(|e| (e, false))
        .chain(g.token_edges.iter().map(|e| (e, true)));
    for (k, (e, is_tok)) in all_edges.enumerate() {
        in_edge_idx[(port_base[e.to.0 as usize] + u32::from(e.port)) as usize] = k as u32;
        if is_tok {
            tok_out_edges[e.from.0 as usize].push(k);
        } else {
            out_edges[e.from.0 as usize].push(k);
        }
        queue_to.push(e.to);
        // A sticky producer's value edges are sticky cells; its token
        // edges (loads are never sticky) stay FIFOs.
        if !is_tok && g.sticky[e.from.0 as usize] {
            queues.push(EdgeQueue::Sticky(None));
        } else {
            queues.push(EdgeQueue::Fifo(VecDeque::new()));
        }
    }
    // Comparison operands are typed by their producer, not the (u1)
    // result; resolve once instead of scanning edges per firing.
    let mut bin_ety: Vec<chls_frontend::IntType> = g.nodes.iter().map(|nd| nd.ty).collect();
    {
        let mut resolved = vec![false; n];
        for e in &g.edges {
            let ti = e.to.0 as usize;
            if e.port == 0 && !resolved[ti] {
                if let NodeKind::Bin(op) = g.nodes[ti].kind {
                    if op.is_comparison() {
                        bin_ety[ti] = g.nodes[e.from.0 as usize].ty;
                        resolved[ti] = true;
                    }
                }
            }
        }
    }
    // A node fed exclusively by sticky cells never runs out of inputs;
    // precompute to stop the fire loop from spinning on one.
    let sticky_fed: Vec<bool> = (0..n)
        .map(|i| {
            (0..arities[i]).all(|p| {
                let qi = in_edge_idx[port_base[i] as usize + p as usize];
                qi != NO_EDGE && matches!(queues[qi as usize], EdgeQueue::Sticky(_))
            })
        })
        .collect();

    // Memories.
    let mut mems: Vec<Vec<i64>> = Vec::with_capacity(g.mems.len());
    for m in &g.mems {
        let contents = match (&m.source, &m.rom) {
            (_, Some(rom)) => {
                let mut v = rom.clone();
                v.resize(m.len, 0);
                v
            }
            (chls_ir::MemSource::Param(i), None) => match args.get(*i) {
                Some(ArgValue::Array(a)) => {
                    let mut v = a.clone();
                    v.resize(m.len, 0);
                    v.iter_mut().for_each(|x| *x = m.elem.canonicalize(*x));
                    v
                }
                _ => return Err(TokenSimError::BadArgument(*i)),
            },
            (_, None) => vec![0; m.len],
        };
        mems.push(contents);
    }

    // Event queue: (completion time, seq, node, operands). No node reads
    // past its third input port, so a `Join`'s later tokens are
    // consumed but not carried.
    #[derive(PartialEq, Eq)]
    struct Ev(u64, u64, NodeId, Operands);
    impl Ord for Ev {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            other.0.cmp(&self.0).then(other.1.cmp(&self.1))
        }
    }
    impl PartialOrd for Ev {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    let mut heap: BinaryHeap<Ev> = BinaryHeap::new();
    let mut seq: u64 = 0;
    let mut firings: u64 = 0;
    let mut ever_fired = vec![false; n];

    let latency: Vec<u64> = (0..n)
        .map(|i| {
            let (class, w) = g.op_class(NodeId(i as u32));
            model.async_latency(class, w).max(1) + HANDSHAKE_OVERHEAD
        })
        .collect();

    // Selector queues: the port-consumption order of the governing control
    // mu, one private queue per dependent value mu (deterministic merge
    // ordering).
    let mut selectors: Vec<VecDeque<u8>> = vec![VecDeque::new(); n];
    let mut dependents: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for (i, ctrl) in g.mu_ctrl.iter().enumerate() {
        if let Some(c) = ctrl {
            dependents[c.0 as usize].push(NodeId(i as u32));
        }
    }

    // Readiness check + consumption into `out`. For mus, also returns the
    // port taken.
    #[allow(clippy::too_many_arguments)]
    fn try_consume(
        g: &DataflowGraph,
        node: NodeId,
        queues: &mut [EdgeQueue],
        selectors: &mut [VecDeque<u8>],
        port_base: &[u32],
        in_edge_idx: &[u32],
        arities: &[u8],
        out: &mut Operands,
    ) -> Option<Option<u8>> {
        const NO_EDGE: u32 = u32::MAX;
        out.len = 0;
        let ni = node.0 as usize;
        let arity = arities[ni];
        let base = port_base[ni] as usize;
        let is_mu = matches!(g.nodes[ni].kind, NodeKind::Mu);
        if is_mu {
            if g.mu_ctrl[ni].is_some() {
                // Ordered merge: follow this mu's private selector stream.
                let &port = selectors[ni].front()?;
                let qi = in_edge_idx[base + port as usize];
                if qi == NO_EDGE {
                    return None;
                }
                let v = match &mut queues[qi as usize] {
                    EdgeQueue::Fifo(q) => q.pop_front()?,
                    EdgeQueue::Sticky(v) => (*v)?,
                };
                selectors[ni].pop_front();
                out.push(v);
                return Some(Some(port));
            }
            // A control mu (or an unordered merge): any one port suffices.
            // Control tokens are self-serializing, so at most one port has
            // a token at a time.
            for port in 0..arity {
                let qi = in_edge_idx[base + port as usize];
                if qi == NO_EDGE {
                    continue;
                }
                match &mut queues[qi as usize] {
                    EdgeQueue::Fifo(q) => {
                        if let Some(v) = q.pop_front() {
                            out.push(v);
                            return Some(Some(port));
                        }
                    }
                    EdgeQueue::Sticky(Some(v)) => {
                        out.push(*v);
                        return Some(Some(port));
                    }
                    EdgeQueue::Sticky(None) => {}
                }
            }
            return None;
        }
        // All ports must be ready.
        for port in 0..arity {
            let qi = in_edge_idx[base + port as usize];
            if qi == NO_EDGE {
                return None;
            }
            let ready = match &queues[qi as usize] {
                EdgeQueue::Fifo(q) => !q.is_empty(),
                EdgeQueue::Sticky(v) => v.is_some(),
            };
            if !ready {
                return None;
            }
        }
        for port in 0..arity {
            let qi = in_edge_idx[base + port as usize] as usize;
            let v = match &mut queues[qi] {
                EdgeQueue::Fifo(q) => q.pop_front().expect("checked"),
                EdgeQueue::Sticky(v) => v.expect("checked"),
            };
            out.push(v);
        }
        Some(None)
    }

    // Schedule sources at t=0.
    for i in 0..n {
        let node = NodeId(i as u32);
        if matches!(
            g.nodes[i].kind,
            NodeKind::Const(_) | NodeKind::Param(_) | NodeKind::InitialToken
        ) {
            seq += 1;
            heap.push(Ev(0, seq, node, Operands::default()));
        }
    }

    // Hoisted per-firing scratch.
    let mut consumed = Operands::default();
    let mut candidates: Vec<NodeId> = Vec::new();
    let mut work: VecDeque<NodeId> = VecDeque::new();

    let mut result: Option<(Option<i64>, u64)> = None;
    while let Some(Ev(t, _ev_seq, node, operands)) = heap.pop() {
        firings += 1;
        if firings > EVENT_LIMIT {
            return Err(TokenSimError::EventLimit(EVENT_LIMIT));
        }
        ever_fired[node.0 as usize] = true;
        let inputs = operands.vals;
        let nd = &g.nodes[node.0 as usize];
        // Compute outputs.
        let mut value_out: Option<i64> = None;
        let mut token_out = false;
        match &nd.kind {
            NodeKind::Const(c) => value_out = Some(nd.ty.canonicalize(*c)),
            NodeKind::Param(i) => match args.get(*i) {
                Some(ArgValue::Scalar(v)) => value_out = Some(nd.ty.canonicalize(*v)),
                _ => return Err(TokenSimError::BadArgument(*i)),
            },
            NodeKind::InitialToken => value_out = Some(1),
            NodeKind::Bin(op) => {
                value_out = Some(eval_bin(
                    *op,
                    bin_ety[node.0 as usize],
                    inputs[0],
                    inputs[1],
                ));
            }
            NodeKind::Un(op) => value_out = Some(eval_un(*op, nd.ty, inputs[0])),
            NodeKind::Select => {
                value_out = Some(if inputs[0] != 0 { inputs[1] } else { inputs[2] })
            }
            NodeKind::Cast { from } => value_out = Some(eval_cast(*from, nd.ty, inputs[0])),
            NodeKind::Mu => value_out = Some(inputs[0]),
            NodeKind::EtaTrue => {
                if inputs[1] != 0 {
                    value_out = Some(inputs[0]);
                }
            }
            NodeKind::EtaFalse => {
                if inputs[1] == 0 {
                    value_out = Some(inputs[0]);
                }
            }
            NodeKind::Load { mem } => {
                let addr = inputs[0];
                let mi = *mem as usize;
                if addr < 0 || addr as usize >= mems[mi].len() {
                    return Err(TokenSimError::OutOfBounds {
                        mem: g.mems[mi].name.clone(),
                        addr,
                        len: mems[mi].len(),
                    });
                }
                value_out = Some(mems[mi][addr as usize]);
                token_out = true;
            }
            NodeKind::Store { mem } => {
                let (addr, val) = (inputs[0], inputs[1]);
                let mi = *mem as usize;
                if addr < 0 || addr as usize >= mems[mi].len() {
                    return Err(TokenSimError::OutOfBounds {
                        mem: g.mems[mi].name.clone(),
                        addr,
                        len: mems[mi].len(),
                    });
                }
                mems[mi][addr as usize] = g.mems[mi].elem.canonicalize(val);
                value_out = Some(1); // the new memory token
            }
            NodeKind::Join { .. } => value_out = Some(1),
            NodeKind::Result => {
                let rv = if g.void { None } else { Some(inputs[0]) };
                result = Some((rv, t));
                break;
            }
        }
        // Deliver outputs.
        if let Some(v) = value_out {
            for &qi in &out_edges[node.0 as usize] {
                match &mut queues[qi] {
                    EdgeQueue::Fifo(q) => q.push_back(v),
                    EdgeQueue::Sticky(s) => *s = Some(v),
                }
            }
        }
        if token_out {
            for &qi in &tok_out_edges[node.0 as usize] {
                match &mut queues[qi] {
                    EdgeQueue::Fifo(q) => q.push_back(1),
                    EdgeQueue::Sticky(s) => *s = Some(1),
                }
            }
        }
        // Activate consumers whose inputs are now complete. Consumers of
        // this node (and, for etas that dropped their token, nobody).
        candidates.clear();
        if value_out.is_some() {
            for &qi in &out_edges[node.0 as usize] {
                candidates.push(queue_to[qi]);
            }
        }
        if token_out {
            for &qi in &tok_out_edges[node.0 as usize] {
                candidates.push(queue_to[qi]);
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        work.clear();
        work.extend(candidates.iter().copied());
        while let Some(c) = work.pop_front() {
            // A consumer may fire multiple times if several tokens queued.
            while let Some(port) = try_consume(
                g,
                c,
                &mut queues,
                &mut selectors,
                &port_base,
                &in_edge_idx,
                &arities,
                &mut consumed,
            ) {
                seq += 1;
                heap.push(Ev(t + latency[c.0 as usize], seq, c, consumed));
                // A control mu's consumption order drives its dependents.
                if let (Some(p), true) = (
                    port,
                    matches!(g.nodes[c.0 as usize].kind, NodeKind::Mu)
                        && g.mu_ctrl[c.0 as usize].is_none(),
                ) {
                    for &d in &dependents[c.0 as usize] {
                        selectors[d.0 as usize].push_back(p);
                        work.push_back(d);
                    }
                }
                // Sticky-only consumers would spin; they are sources or
                // sticky nodes which fire exactly once — break after one.
                if g.sticky[c.0 as usize] {
                    break;
                }
                // A non-sticky node whose inputs are all sticky would spin
                // forever; stickiness propagation covers that case, and
                // etas with sticky value + sticky predicate are guarded
                // here.
                if sticky_fed[c.0 as usize] {
                    break;
                }
            }
        }
    }

    match result {
        Some((ret, time)) => {
            // Void functions deliver their unit token; map to None when
            // the function has no declared return (ty width 1 result fed
            // by joins). The caller knows the signature; keep the raw
            // value too.
            Ok(TokenSimResult {
                ret,
                time,
                firings,
                mems,
            })
        }
        None => Err(TokenSimError::Deadlock {
            fired: ever_fired.iter().filter(|f| **f).count(),
            total: n,
        }),
    }
}

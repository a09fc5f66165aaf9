//! Asynchronous dataflow graphs, after CASH's Pegasus IR.
//!
//! Budiu & Goldstein's CASH compiles ANSI C to *asynchronous dataflow
//! circuits*: operations fire when their input tokens arrive, loops
//! circulate values through merge (**mu**) nodes at headers and gated
//! steer (**eta**) nodes on branch edges, and memory accesses are
//! serialized by explicit token edges. This module is that circuit
//! representation plus its cost accounting.
//!
//! Key semantic choices (all from Pegasus):
//!
//! * edges are unbounded FIFO queues; a node fires when every input port
//!   has a token (Kahn-network determinism);
//! * constants, parameters, and pure operations over them are **sticky**:
//!   their single token is read non-destructively (loop bodies can use a
//!   loop-invariant value every iteration);
//! * `EtaTrue`/`EtaFalse` forward their value token when the predicate
//!   token matches and silently consume it otherwise — this is how
//!   control flow becomes data flow;
//! * `Mu` merges the initial and loop-carried versions of a value at a
//!   loop header (exactly one arrives per activation);
//! * each memory has a serialization-token chain: stores consume and
//!   regenerate it, so memory order is a dataflow dependence like any
//!   other.

use chls_frontend::IntType;
use chls_ir::{BinKind, MemInfo, UnKind};
use chls_rtl::cost::{CostModel, OpClass};
use chls_rtl::netlist::bin_class;
use std::fmt;

/// Index of a dataflow node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// Node kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// A constant; its token is sticky.
    Const(i64),
    /// The `i`-th scalar parameter; sticky.
    Param(usize),
    /// Binary operation (ports 0, 1).
    Bin(BinKind),
    /// Unary operation (port 0).
    Un(UnKind),
    /// `port0 ? port1 : port2`.
    Select,
    /// Width conversion of port 0.
    Cast {
        /// Source type.
        from: IntType,
    },
    /// Merge: forwards a token from whichever input port has one.
    Mu,
    /// Steer: forwards port 0 when port 1 (the predicate) is 1; consumes
    /// both otherwise.
    EtaTrue,
    /// Steer: forwards port 0 when port 1 is 0.
    EtaFalse,
    /// Memory read: port 0 = address, port 1 = memory token. The loaded
    /// value goes out on normal edges; the regenerated memory token goes
    /// out on [`DataflowGraph::token_edges`].
    Load {
        /// Which memory.
        mem: u32,
    },
    /// Memory write: port 0 = address, port 1 = value, port 2 = memory
    /// token. Emits the new memory token.
    Store {
        /// Which memory.
        mem: u32,
    },
    /// Join: waits for all input ports, emits a unit token.
    Join {
        /// Number of input ports.
        arity: u8,
    },
    /// The function result: port 0 = return value (or a unit token for
    /// void). Firing it completes execution.
    Result,
    /// Seed token emitted once at start (memory chains, void results).
    InitialToken,
}

impl NodeKind {
    /// A pure operation: sticky when every producer feeding it is.
    fn is_pure(&self) -> bool {
        matches!(
            self,
            NodeKind::Bin(_) | NodeKind::Un(_) | NodeKind::Select | NodeKind::Cast { .. }
        )
    }
}

/// A node with its output type.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeData {
    /// Payload.
    pub kind: NodeKind,
    /// Output token type (`u1` for unit/serialization tokens).
    pub ty: IntType,
}

/// An edge from a producer's output to a consumer's input port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Producer.
    pub from: NodeId,
    /// Consumer.
    pub to: NodeId,
    /// Input port on the consumer.
    pub port: u8,
}

/// An asynchronous dataflow circuit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DataflowGraph {
    /// Circuit name.
    pub name: String,
    /// Nodes.
    pub nodes: Vec<NodeData>,
    /// Value edges.
    pub edges: Vec<Edge>,
    /// Token output edges of `Load` nodes (regenerated memory tokens).
    pub token_edges: Vec<Edge>,
    /// Memories (same shape as IR memories).
    pub mems: Vec<MemInfo>,
    /// The result node.
    pub result: Option<NodeId>,
    /// True when the source function returns no value (the result token
    /// is then a unit token, not a return value).
    pub void: bool,
    /// Statically-computed sticky set (see [`DataflowGraph::compute_sticky`]).
    pub sticky: Vec<bool>,
    /// For each value/memory-token `Mu`, the **control-token mu** of the
    /// same block: the value mu must consume its ports in the same order
    /// the control mu did (control is self-serializing, data may lag — the
    /// Pegasus merge discipline that keeps the network deterministic).
    pub mu_ctrl: Vec<Option<NodeId>>,
}

impl DataflowGraph {
    /// Creates an empty graph.
    pub fn new(name: impl Into<String>) -> Self {
        DataflowGraph {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Adds a node.
    pub fn add_node(&mut self, kind: NodeKind, ty: IntType) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeData { kind, ty });
        self.sticky.push(false);
        self.mu_ctrl.push(None);
        id
    }

    /// Adds a value edge.
    pub fn connect(&mut self, from: NodeId, to: NodeId, port: u8) {
        self.edges.push(Edge { from, to, port });
    }

    /// Adds a load-token edge (the regenerated memory token of a load).
    pub fn connect_token(&mut self, from: NodeId, to: NodeId, port: u8) {
        self.token_edges.push(Edge { from, to, port });
    }

    /// Number of input ports each node expects, indexed by node. The
    /// kind fixes it, except for a `Mu`, whose arity is however many
    /// edges target it; one pass over the edges finds those.
    pub fn arities(&self) -> Vec<u8> {
        let mut out: Vec<u8> = self
            .nodes
            .iter()
            .map(|nd| match &nd.kind {
                NodeKind::Const(_) | NodeKind::Param(_) | NodeKind::InitialToken => 0,
                NodeKind::Un(_) | NodeKind::Cast { .. } | NodeKind::Result => 1,
                NodeKind::Bin(_)
                | NodeKind::EtaTrue
                | NodeKind::EtaFalse
                | NodeKind::Load { .. } => 2,
                NodeKind::Select | NodeKind::Store { .. } => 3,
                NodeKind::Join { arity } => *arity,
                NodeKind::Mu => 0,
            })
            .collect();
        for e in self.edges.iter().chain(self.token_edges.iter()) {
            let t = e.to.0 as usize;
            if matches!(self.nodes[t].kind, NodeKind::Mu) {
                out[t] = out[t].max(e.port + 1);
            }
        }
        out
    }

    /// Computes the sticky set: constants and parameters, and pure ops
    /// (`Bin`, `Un`, `Select`, `Cast`) with at least one value in-edge
    /// whose producers are all sticky — the least such set.
    ///
    /// One worklist pass: each node counts its value in-edges from
    /// producers not yet known sticky, and a node turning sticky counts
    /// down its consumers through an out-edge index built once. A pure
    /// op whose count reaches zero was reached by an edge, so it has the
    /// in-edge the definition asks for.
    pub fn compute_sticky(&mut self) {
        let n = self.nodes.len();
        let mut pending = vec![0u32; n];
        for e in &self.edges {
            pending[e.to.0 as usize] += 1;
        }
        let (start, succ) = out_index(n, self.edges.iter().map(|e| (e.from.0, e.to.0)));
        let mut sticky = vec![false; n];
        let mut work: Vec<usize> = Vec::new();
        for (i, nd) in self.nodes.iter().enumerate() {
            if matches!(nd.kind, NodeKind::Const(_) | NodeKind::Param(_)) {
                sticky[i] = true;
                work.push(i);
            }
        }
        while let Some(i) = work.pop() {
            for &t in &succ[start[i] as usize..start[i + 1] as usize] {
                let t = t as usize;
                pending[t] -= 1;
                if pending[t] == 0 && !sticky[t] && self.nodes[t].kind.is_pure() {
                    sticky[t] = true;
                    work.push(t);
                }
            }
        }
        self.sticky = sticky;
    }

    /// Cost class of a node, for area and latency accounting.
    pub fn op_class(&self, n: NodeId) -> (OpClass, u16) {
        let nd = &self.nodes[n.0 as usize];
        let w = nd.ty.width;
        match &nd.kind {
            NodeKind::Const(_) | NodeKind::Param(_) | NodeKind::InitialToken => (OpClass::Const, w),
            NodeKind::Bin(op) => (bin_class(*op), w.max(1)),
            NodeKind::Un(UnKind::Neg) => (OpClass::AddSub, w),
            NodeKind::Un(UnKind::Not) => (OpClass::Logic, w),
            NodeKind::Select | NodeKind::Mu | NodeKind::EtaTrue | NodeKind::EtaFalse => {
                (OpClass::Mux, w)
            }
            NodeKind::Cast { .. } => (OpClass::Cast, w),
            NodeKind::Load { .. } => (OpClass::MemRead, w),
            NodeKind::Store { .. } => (OpClass::MemWrite, w),
            NodeKind::Join { .. } | NodeKind::Result => (OpClass::Logic, 1),
        }
    }

    /// Total area: datapath nodes plus handshake overhead per node plus
    /// memories.
    pub fn area(&self, model: &CostModel) -> f64 {
        let mut total = 0.0;
        for i in 0..self.nodes.len() {
            let (class, w) = self.op_class(NodeId(i as u32));
            total += model.area(class, w);
            // Handshake control per node (C-element plus completion latch).
            total += 12.0 + 2.0 * w as f64;
        }
        for m in &self.mems {
            total += model.ram_area(m.len, m.elem);
        }
        total
    }

    /// Node counts by kind name, for reports.
    pub fn histogram(&self) -> std::collections::BTreeMap<&'static str, usize> {
        let mut h = std::collections::BTreeMap::new();
        for nd in &self.nodes {
            let k = match nd.kind {
                NodeKind::Const(_) => "const",
                NodeKind::Param(_) => "param",
                NodeKind::Bin(_) => "op",
                NodeKind::Un(_) => "unop",
                NodeKind::Select => "select",
                NodeKind::Cast { .. } => "cast",
                NodeKind::Mu => "mu",
                NodeKind::EtaTrue | NodeKind::EtaFalse => "eta",
                NodeKind::Load { .. } => "load",
                NodeKind::Store { .. } => "store",
                NodeKind::Join { .. } => "join",
                NodeKind::Result => "result",
                NodeKind::InitialToken => "token",
            };
            *h.entry(k).or_insert(0) += 1;
        }
        h
    }
}

/// The `(from, to)` pairs grouped by `from` in compressed-row form:
/// node `i`'s targets are `succ[start[i]..start[i + 1]]`, one entry per
/// pair, in pair order.
pub(crate) fn out_index(
    n: usize,
    pairs: impl Iterator<Item = (u32, u32)> + Clone,
) -> (Vec<u32>, Vec<u32>) {
    let mut start = vec![0u32; n + 1];
    for (from, _) in pairs.clone() {
        start[from as usize + 1] += 1;
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let mut next = start.clone();
    let mut succ = vec![0u32; start[n] as usize];
    for (from, to) in pairs {
        let slot = &mut next[from as usize];
        succ[*slot as usize] = to;
        *slot += 1;
    }
    (start, succ)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u32t() -> IntType {
        IntType::new(32, false)
    }

    #[test]
    fn sticky_propagates_through_pure_ops() {
        let mut g = DataflowGraph::new("t");
        let c1 = g.add_node(NodeKind::Const(1), u32t());
        let p = g.add_node(NodeKind::Param(0), u32t());
        let add = g.add_node(NodeKind::Bin(BinKind::Add), u32t());
        g.connect(c1, add, 0);
        g.connect(p, add, 1);
        let mu = g.add_node(NodeKind::Mu, u32t());
        g.connect(add, mu, 0);
        g.compute_sticky();
        assert!(g.sticky[c1.0 as usize]);
        assert!(g.sticky[p.0 as usize]);
        assert!(g.sticky[add.0 as usize]);
        assert!(!g.sticky[mu.0 as usize]);
    }

    #[test]
    fn eta_fed_op_is_not_sticky() {
        let mut g = DataflowGraph::new("t");
        let c = g.add_node(NodeKind::Const(1), u32t());
        let eta = g.add_node(NodeKind::EtaTrue, u32t());
        g.connect(c, eta, 0);
        g.connect(c, eta, 1);
        let add = g.add_node(NodeKind::Bin(BinKind::Add), u32t());
        g.connect(eta, add, 0);
        g.connect(c, add, 1);
        g.compute_sticky();
        assert!(!g.sticky[add.0 as usize]);
    }

    #[test]
    fn sticky_needs_an_in_edge_and_no_cycle() {
        let mut g = DataflowGraph::new("t");
        let c = g.add_node(NodeKind::Const(1), u32t());
        // A pure op with no in-edge, and two feeding each other.
        let lonely = g.add_node(NodeKind::Un(UnKind::Not), u32t());
        let a = g.add_node(NodeKind::Bin(BinKind::Add), u32t());
        let b = g.add_node(NodeKind::Bin(BinKind::Add), u32t());
        g.connect(c, a, 0);
        g.connect(b, a, 1);
        g.connect(c, b, 0);
        g.connect(a, b, 1);
        // Both ports fed by one producer.
        let sq = g.add_node(NodeKind::Bin(BinKind::Mul), u32t());
        g.connect(c, sq, 0);
        g.connect(c, sq, 1);
        g.compute_sticky();
        assert!(!g.sticky[lonely.0 as usize]);
        assert_eq!(g.sticky, vec![true, false, false, false, true]);
    }

    #[test]
    fn arity_of_mu_follows_edges() {
        let mut g = DataflowGraph::new("t");
        let a = g.add_node(NodeKind::Const(1), u32t());
        let b = g.add_node(NodeKind::Const(2), u32t());
        let mu = g.add_node(NodeKind::Mu, u32t());
        let join = g.add_node(NodeKind::Join { arity: 2 }, IntType::new(1, false));
        // A mu no edge reaches.
        g.add_node(NodeKind::Mu, u32t());
        g.connect(a, mu, 0);
        g.connect(b, mu, 1);
        g.connect_token(a, mu, 3);
        g.connect(mu, join, 0);
        assert_eq!(g.arities(), vec![0, 0, 4, 2, 0]);
    }

    #[test]
    fn area_counts_handshake_overhead() {
        let mut g = DataflowGraph::new("t");
        g.add_node(NodeKind::Bin(BinKind::Add), u32t());
        let m = CostModel::new();
        assert!(g.area(&m) > m.area(OpClass::AddSub, 32));
    }

    #[test]
    fn histogram_names() {
        let mut g = DataflowGraph::new("t");
        g.add_node(NodeKind::Mu, u32t());
        g.add_node(NodeKind::EtaTrue, u32t());
        g.add_node(NodeKind::EtaFalse, u32t());
        let h = g.histogram();
        assert_eq!(h.get("mu"), Some(&1));
        assert_eq!(h.get("eta"), Some(&2));
    }
}

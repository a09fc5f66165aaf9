//! Data-flow graphs for scheduling.
//!
//! A [`Dfg`] is the scheduler's view of one straight-line region: nodes
//! are operations with a cost class, width, and combinational delay; edges
//! are data dependences plus memory-ordering constraints. Both the IR
//! backends (per basic block) and the HIR-structured backends (per
//! statement run) build these.

use chls_ir::ir::{BlockId, Function, InstKind, UnKind, Value};
use chls_opt::dep::{block_mem_deps, AliasPrecision};
use chls_rtl::cost::{CostModel, OpClass};
use chls_rtl::netlist::bin_class;

/// Index of a DFG node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// One schedulable operation.
#[derive(Debug, Clone, PartialEq)]
pub struct DfgNode {
    /// Cost class.
    pub op: OpClass,
    /// Operand width for costing.
    pub width: u16,
    /// Combinational delay (ns) for chaining decisions.
    pub delay_ns: f64,
    /// Which memory this node's port belongs to, for port constraints.
    pub mem: Option<u32>,
    /// False for operations whose result is registered at cycle end and
    /// therefore cannot chain into same-cycle consumers (memory reads).
    pub chainable: bool,
    /// Back-reference to the producing IR value (or a caller-chosen tag).
    pub tag: u32,
}

/// A dependence edge `from -> to` with an iteration distance
/// (0 = same iteration; 1 = loop-carried, used by modulo scheduling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DfgEdge {
    /// Producer.
    pub from: NodeId,
    /// Consumer.
    pub to: NodeId,
    /// Iteration distance.
    pub distance: u32,
}

/// A dependence graph over one region.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dfg {
    /// Nodes.
    pub nodes: Vec<DfgNode>,
    /// Edges.
    pub edges: Vec<DfgEdge>,
}

impl Dfg {
    /// Adds a node.
    pub fn add_node(&mut self, node: DfgNode) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// Adds a same-iteration dependence.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) {
        self.edges.push(DfgEdge {
            from,
            to,
            distance: 0,
        });
    }

    /// Adds a loop-carried dependence.
    pub fn add_carried_edge(&mut self, from: NodeId, to: NodeId) {
        self.edges.push(DfgEdge {
            from,
            to,
            distance: 1,
        });
    }

    /// Same-iteration predecessors of each node.
    pub fn preds(&self) -> Vec<Vec<NodeId>> {
        let mut p = vec![Vec::new(); self.nodes.len()];
        for e in &self.edges {
            if e.distance == 0 {
                p[e.to.0 as usize].push(e.from);
            }
        }
        p
    }

    /// Same-iteration successors of each node.
    pub fn succs(&self) -> Vec<Vec<NodeId>> {
        let mut s = vec![Vec::new(); self.nodes.len()];
        for e in &self.edges {
            if e.distance == 0 {
                s[e.from.0 as usize].push(e.to);
            }
        }
        s
    }

    /// Nodes in a topological order of the distance-0 subgraph.
    ///
    /// # Panics
    ///
    /// Panics if the distance-0 edges contain a cycle (malformed DFG).
    pub fn topo_order(&self) -> Vec<NodeId> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        for e in &self.edges {
            if e.distance == 0 {
                indeg[e.to.0 as usize] += 1;
            }
        }
        let succs = self.succs();
        let mut ready: Vec<NodeId> = (0..n)
            .filter(|&i| indeg[i] == 0)
            .map(|i| NodeId(i as u32))
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(v) = ready.pop() {
            order.push(v);
            for &s in &succs[v.0 as usize] {
                indeg[s.0 as usize] -= 1;
                if indeg[s.0 as usize] == 0 {
                    ready.push(s);
                }
            }
        }
        assert_eq!(order.len(), n, "cycle in distance-0 DFG edges");
        order
    }
}

/// The cost class of one IR instruction, or `None` for free/ambient ones
/// (constants, params, phis).
pub fn inst_class(f: &Function, v: Value) -> Option<(OpClass, u16)> {
    let inst = f.inst(v);
    Some(match &inst.kind {
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
        InstKind::Const(_) | InstKind::Param(_) | InstKind::Phi(_) => return None,
    })
}

/// Builds the DFG of one basic block: data edges between block-local
/// instructions plus memory-ordering edges at the given alias precision.
/// Returns the graph and the mapping from node to IR value.
pub fn dfg_from_block(
    f: &Function,
    block: BlockId,
    precision: AliasPrecision,
    model: &CostModel,
) -> (Dfg, Vec<Value>) {
    let mut dfg = Dfg::default();
    let mut node_of: std::collections::HashMap<Value, NodeId> = std::collections::HashMap::new();
    let mut values = Vec::new();
    for &v in &f.block(block).insts {
        let Some((op, width)) = inst_class(f, v) else {
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
        let id = dfg.add_node(DfgNode {
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
    // Data edges between in-block nodes. Operands produced by free
    // instructions (constants/params/phis) or in other blocks are ambient.
    // Iterate `values` (block order), not the map: edge insertion order
    // shapes adjacency lists and thus scheduler tie-breaking, so it must
    // be deterministic.
    for &v in &values {
        let id = node_of[&v];
        f.inst(v).kind.for_each_operand(|o| {
            if let Some(&src) = node_of.get(&o) {
                dfg.add_edge(src, id);
            }
        });
    }
    // Memory ordering.
    for (a, b) in block_mem_deps(f, block, precision) {
        if let (Some(&na), Some(&nb)) = (node_of.get(&a), node_of.get(&b)) {
            dfg.add_edge(na, nb);
        }
    }
    (dfg, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chls_frontend::compile_to_hir;
    use chls_ir::lower_function;

    fn block_dfg(src: &str, precision: AliasPrecision) -> Dfg {
        let hir = compile_to_hir(src).expect("frontend ok");
        let (id, _) = hir.func_by_name("f").expect("exists");
        let f = lower_function(&hir, id).expect("lowers");
        let model = CostModel::new();
        let (dfg, _) = dfg_from_block(&f, f.entry, precision, &model);
        dfg
    }

    #[test]
    fn expression_tree_shape() {
        let dfg = block_dfg(
            "int f(int a, int b) { return (a + b) * (a - b); }",
            AliasPrecision::Basic,
        );
        // add, sub, mul.
        assert_eq!(dfg.nodes.len(), 3);
        // mul depends on both.
        assert_eq!(dfg.edges.len(), 2);
        let topo = dfg.topo_order();
        assert_eq!(topo.len(), 3);
        // mul must come last.
        let mul_idx = dfg.nodes.iter().position(|n| n.op == OpClass::Mul).unwrap();
        assert_eq!(topo.last().unwrap().0 as usize, mul_idx);
    }

    #[test]
    fn memory_edges_respect_precision() {
        let src = "void f(int a[4]) { a[0] = 1; a[1] = 2; }";
        let strict = block_dfg(src, AliasPrecision::None);
        let relaxed = block_dfg(src, AliasPrecision::Basic);
        let count_edges = |d: &Dfg| d.edges.len();
        assert!(count_edges(&strict) > count_edges(&relaxed));
    }

    #[test]
    fn free_instructions_excluded() {
        let dfg = block_dfg("int f(int a) { return a + 1; }", AliasPrecision::Basic);
        // Just the add; the constant and param are ambient.
        assert_eq!(dfg.nodes.len(), 1);
        assert!(dfg.edges.is_empty());
    }

    #[test]
    fn division_has_large_delay() {
        let dfg = block_dfg(
            "int f(int a, int b) { return a / b + a; }",
            AliasPrecision::Basic,
        );
        let div = dfg.nodes.iter().find(|n| n.op == OpClass::DivRem).unwrap();
        let add = dfg.nodes.iter().find(|n| n.op == OpClass::AddSub).unwrap();
        assert!(div.delay_ns > add.delay_ns * 5.0);
    }
}

//! Construction of dataflow circuits from SSA CFG IR.
//!
//! The translation follows Pegasus:
//!
//! * every non-trivial instruction becomes an operation node; constants,
//!   parameters, and pure functions of them become *sticky* nodes with no
//!   steering (loop-invariant tokens are read non-destructively);
//! * every SSA value that is **live into** a block arrives there through
//!   per-edge steering: an `EtaTrue`/`EtaFalse` pair on conditional edges
//!   (only the taken side gets the token) and directly on jump edges;
//! * blocks with multiple predecessors merge each live-in value with a
//!   `Mu`; phis are simply the mus of their incoming values;
//! * two pseudo-values ride the same machinery: a **control token**
//!   (seeded once at entry; reaching a `ret` block completes the
//!   function) and one **memory token per memory** (stores consume and
//!   regenerate it; parallel loads fork it and the next store joins them).
//!
//! The result is a deterministic Kahn network: see [`crate::sim`].

use crate::graph::{out_index, DataflowGraph, NodeId, NodeKind};
use chls_frontend::IntType;
use chls_ir::ir::{BlockId, Function, InstKind, Term, Value};
use chls_ir::liveness::Liveness;
use chls_ir::FastMap;
use std::fmt;

/// Errors during dataflow construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The CFG is irreducible (cannot happen for frontend-produced IR).
    Irreducible,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Irreducible => write!(f, "irreducible control flow"),
        }
    }
}

impl std::error::Error for BuildError {}

/// A dataflow "item": an SSA value, the control token, or a memory token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Item {
    Val(Value),
    Ctrl,
    Mem(u32),
}

/// Builds the dataflow circuit of `f`.
///
/// # Errors
///
/// See [`BuildError`].
pub fn build_dataflow(f: &Function) -> Result<DataflowGraph, BuildError> {
    Builder::new(f).run()
}

/// The sticky IR values of `f`, indexed by value: constants, parameters,
/// and pure operations (`Bin`, `Un`, `Select`, `Cast`) whose operands
/// are all sticky — the least such set, over every arena instruction.
///
/// One worklist pass, as in [`DataflowGraph::compute_sticky`]: each pure
/// instruction counts its operands not yet known sticky, and a value
/// turning sticky counts down its pure users.
pub fn sticky_values(f: &Function) -> Vec<bool> {
    let n = f.insts.len();
    let is_pure = |k: &InstKind| {
        matches!(
            k,
            InstKind::Bin(..) | InstKind::Un(..) | InstKind::Select { .. } | InstKind::Cast { .. }
        )
    };
    // (operand, user) for every operand of a pure instruction.
    let mut uses: Vec<(u32, u32)> = Vec::new();
    let mut pending = vec![0u32; n];
    for (i, inst) in f.insts.iter().enumerate() {
        if is_pure(&inst.kind) {
            inst.kind.for_each_operand(|o| {
                uses.push((o.0, i as u32));
                pending[i] += 1;
            });
        }
    }
    let (start, users) = out_index(n, uses.iter().copied());
    let mut sticky = vec![false; n];
    let mut work: Vec<usize> = Vec::new();
    for (i, inst) in f.insts.iter().enumerate() {
        let seed = match inst.kind {
            InstKind::Const(_) | InstKind::Param(_) => true,
            ref k => is_pure(k) && pending[i] == 0,
        };
        if seed {
            sticky[i] = true;
            work.push(i);
        }
    }
    while let Some(i) = work.pop() {
        for &u in &users[start[i] as usize..start[i + 1] as usize] {
            let u = u as usize;
            pending[u] -= 1;
            if pending[u] == 0 && !sticky[u] {
                sticky[u] = true;
                work.push(u);
            }
        }
    }
    sticky
}

fn unit_ty() -> IntType {
    IntType::new(1, false)
}

struct Builder<'f> {
    f: &'f Function,
    g: DataflowGraph,
    preds: Vec<Vec<BlockId>>,
    /// Sticky IR values (consts, params, pure ops of them).
    sticky_val: Vec<bool>,
    /// Global node per sticky value.
    sticky_node: Vec<Option<NodeId>>,
    /// Node of each non-sticky instruction (including phis as mus).
    inst_node: Vec<Option<NodeId>>,
    /// Mu node per (multi-pred block, live-in item).
    mu_node: FastMap<(BlockId, Item), NodeId>,
    /// Block where each value is defined.
    def_block: Vec<BlockId>,
    /// Per-block token entry point for each memory the block accesses
    /// (a 1-ary Join fed from the incoming chain in the wiring pass).
    token_in: FastMap<(BlockId, u32), NodeId>,
    /// Per-block final token producer for each memory the block accesses.
    block_token_out: FastMap<(BlockId, u32), NodeId>,
    /// Entry seeds.
    ctrl_seed: NodeId,
    mem_seeds: Vec<NodeId>,
    /// Cached out() results to avoid exponential recursion.
    out_cache: FastMap<(BlockId, Item), NodeId>,
    /// Gate cache per (edge source, edge target, item).
    gate_cache: FastMap<(BlockId, BlockId, Item), NodeId>,
}

impl<'f> Builder<'f> {
    fn new(f: &'f Function) -> Self {
        let mut g = DataflowGraph::new(f.name.clone());
        g.mems = f.mems.clone();
        let ctrl_seed = g.add_node(NodeKind::InitialToken, unit_ty());
        let mem_seeds = (0..f.mems.len())
            .map(|_| g.add_node(NodeKind::InitialToken, unit_ty()))
            .collect();
        Builder {
            preds: f.predecessors(),
            sticky_val: sticky_values(f),
            sticky_node: vec![None; f.insts.len()],
            inst_node: vec![None; f.insts.len()],
            mu_node: FastMap::default(),
            def_block: f.insts.iter().map(|i| i.block).collect(),
            token_in: FastMap::default(),
            block_token_out: FastMap::default(),
            ctrl_seed,
            mem_seeds,
            out_cache: FastMap::default(),
            gate_cache: FastMap::default(),
            f,
            g,
        }
    }

    fn run(mut self) -> Result<DataflowGraph, BuildError> {
        self.create_inst_nodes();
        self.create_mus();
        // Pass A: in-block wiring (operands and per-block token chains,
        // starting each chain from a placeholder `token_in` join).
        self.wire_instructions();
        // Pass B: cross-block wiring — mus, token_in feeds, result.
        self.wire_mus();
        self.wire_token_ins();
        self.wire_result();
        self.g.compute_sticky();
        Ok(self.g)
    }

    // ---- node creation ----

    fn sticky_node_for(&mut self, v: Value) -> NodeId {
        if let Some(n) = self.sticky_node[v.0 as usize] {
            return n;
        }
        let inst = self.f.inst(v);
        let kind = match &inst.kind {
            InstKind::Const(c) => NodeKind::Const(*c),
            InstKind::Param(i) => NodeKind::Param(*i),
            InstKind::Bin(op, ..) => NodeKind::Bin(*op),
            InstKind::Un(op, _) => NodeKind::Un(*op),
            InstKind::Select { .. } => NodeKind::Select,
            InstKind::Cast { from, .. } => NodeKind::Cast { from: *from },
            other => unreachable!("{other:?} cannot be sticky"),
        };
        let node = self.g.add_node(kind, inst.ty);
        self.sticky_node[v.0 as usize] = Some(node);
        // Wire sticky operands immediately (they are all sticky too).
        for (port, o) in collect_operands(&inst.kind).into_iter().enumerate() {
            let src = self.sticky_node_for(o);
            self.g.connect(src, node, port as u8);
        }
        node
    }

    fn create_inst_nodes(&mut self) {
        for (i, inst) in self.f.insts.iter().enumerate() {
            if self.sticky_val[i] {
                continue;
            }
            let node = match &inst.kind {
                InstKind::Phi(_) => self.g.add_node(NodeKind::Mu, inst.ty),
                InstKind::Bin(op, ..) => self.g.add_node(NodeKind::Bin(*op), inst.ty),
                InstKind::Un(op, _) => self.g.add_node(NodeKind::Un(*op), inst.ty),
                InstKind::Select { .. } => self.g.add_node(NodeKind::Select, inst.ty),
                InstKind::Cast { from, .. } => {
                    self.g.add_node(NodeKind::Cast { from: *from }, inst.ty)
                }
                InstKind::Load { mem, .. } => {
                    self.g.add_node(NodeKind::Load { mem: mem.0 }, inst.ty)
                }
                InstKind::Store { mem, .. } => {
                    self.g.add_node(NodeKind::Store { mem: mem.0 }, unit_ty())
                }
                InstKind::Const(_) | InstKind::Param(_) => unreachable!("sticky"),
            };
            self.inst_node[i] = Some(node);
        }
    }

    fn is_multi_pred(&self, b: BlockId) -> bool {
        self.preds[b.0 as usize].len() > 1
    }

    fn create_mus(&mut self) {
        // Sticky values need no steering. Each value's liveness is
        // independent of the others', so dropping them after the solve
        // is exact.
        let live = Liveness::compute(self.f);
        for bi in 0..self.f.blocks.len() {
            let b = BlockId(bi as u32);
            if !self.is_multi_pred(b) {
                continue;
            }
            // Values live-in here merge; pseudo-items always merge.
            let items: Vec<Item> = live
                .live_in(b)
                .filter(|v| !self.sticky_val[v.0 as usize])
                .map(Item::Val)
                .chain(std::iter::once(Item::Ctrl))
                .chain((0..self.f.mems.len()).map(|m| Item::Mem(m as u32)))
                .collect();
            // The control mu first: it orders everything else.
            let ctrl_mu = self.g.add_node(NodeKind::Mu, unit_ty());
            self.mu_node.insert((b, Item::Ctrl), ctrl_mu);
            for item in items {
                if item == Item::Ctrl {
                    continue;
                }
                let ty = match item {
                    Item::Val(v) => self.f.inst(v).ty,
                    _ => unit_ty(),
                };
                let mu = self.g.add_node(NodeKind::Mu, ty);
                self.g.mu_ctrl[mu.0 as usize] = Some(ctrl_mu);
                self.mu_node.insert((b, item), mu);
            }
        }
    }

    // ---- value resolution ----

    /// The node providing `item` *within* block `b` (after the block's own
    /// definitions).
    fn out(&mut self, b: BlockId, item: Item) -> NodeId {
        if let Some(&n) = self.out_cache.get(&(b, item)) {
            return n;
        }
        let n = match item {
            Item::Val(v) => {
                if self.sticky_val[v.0 as usize] {
                    self.sticky_node_for(v)
                } else if let (true, Some(n)) = (
                    self.def_block[v.0 as usize] == b,
                    self.inst_node[v.0 as usize],
                ) {
                    // Defined here (includes phis-as-mus at this block).
                    n
                } else {
                    self.incoming(b, item)
                }
            }
            Item::Ctrl => {
                if b == self.f.entry {
                    self.ctrl_seed
                } else {
                    self.incoming(b, item)
                }
            }
            Item::Mem(m) => {
                if let Some(&tok) = self.block_token_out.get(&(b, m)) {
                    tok
                } else if b == self.f.entry {
                    self.mem_seeds[m as usize]
                } else {
                    self.incoming(b, item)
                }
            }
        };
        self.out_cache.insert((b, item), n);
        n
    }

    /// The node providing `item` at block `b`'s entry.
    fn incoming(&mut self, b: BlockId, item: Item) -> NodeId {
        if self.is_multi_pred(b) {
            // The mu exists (created up front). For values, the mu for a
            // phi *is* the phi's node; non-phi live-ins have mu_node
            // entries.
            if let Item::Val(v) = item {
                if let Some(&mu) = self.mu_node.get(&(b, item)) {
                    return mu;
                }
                // A value without a mu here must be defined here as a phi.
                if let Some(n) = self.inst_node[v.0 as usize] {
                    return n;
                }
                unreachable!("no mu and no def for {v} at {b}");
            }
            self.mu_node[&(b, item)]
        } else if self.preds[b.0 as usize].len() == 1 {
            let p = self.preds[b.0 as usize][0];
            self.gated(p, b, item)
        } else {
            // Entry block with no predecessors.
            match item {
                Item::Ctrl => self.ctrl_seed,
                Item::Mem(m) => self.mem_seeds[m as usize],
                Item::Val(v) => unreachable!("use of {v} before any definition"),
            }
        }
    }

    /// The node carrying `item` across the edge `p -> b`: an eta on
    /// conditional edges, the bare source on jump edges.
    fn gated(&mut self, p: BlockId, b: BlockId, item: Item) -> NodeId {
        if let Some(&n) = self.gate_cache.get(&(p, b, item)) {
            return n;
        }
        let src = self.out(p, item);
        let sticky_src = matches!(item, Item::Val(v) if self.sticky_val[v.0 as usize]);
        let node = match self.f.block(p).term {
            Term::Jump(_) => {
                if sticky_src {
                    // A sticky value entering a merge must arrive once per
                    // traversal: sample it with the edge's control token.
                    self.sample_with_ctrl(p, src)
                } else {
                    src
                }
            }
            Term::Br { cond, then, els } => {
                // Self-edges and diamond edges: pick polarity; if both
                // targets equal, no steering needed.
                if then == els {
                    if sticky_src {
                        self.sample_with_ctrl(p, src)
                    } else {
                        src
                    }
                } else {
                    let polarity_true = b == then;
                    let kind = if polarity_true {
                        NodeKind::EtaTrue
                    } else {
                        NodeKind::EtaFalse
                    };
                    let ty = self.g.nodes[src.0 as usize].ty;
                    let eta = self.g.add_node(kind, ty);
                    let cond_node = self.out(p, Item::Val(cond));
                    self.g.connect(src, eta, 0);
                    self.g.connect(cond_node, eta, 1);
                    eta
                }
            }
            Term::Ret(_) | Term::Unreachable => src,
        };
        self.gate_cache.insert((p, b, item), node);
        node
    }

    /// `Select(ctrl, v, v)`: emits the (sticky) value `v` exactly once per
    /// execution of block `p`, consuming one control token.
    fn sample_with_ctrl(&mut self, p: BlockId, src: NodeId) -> NodeId {
        let ctrl = self.out(p, Item::Ctrl);
        let ty = self.g.nodes[src.0 as usize].ty;
        let sel = self.g.add_node(NodeKind::Select, ty);
        self.g.connect(ctrl, sel, 0);
        self.g.connect(src, sel, 1);
        self.g.connect(src, sel, 2);
        sel
    }

    // ---- wiring ----

    fn wire_instructions(&mut self) {
        let f = self.f;
        for bi in 0..f.blocks.len() {
            let b = BlockId(bi as u32);
            // Per-memory chain state within this block.
            let mut last_token: FastMap<u32, NodeId> = FastMap::default();
            let mut pending_loads: FastMap<u32, Vec<NodeId>> = FastMap::default();
            for &v in &f.block(b).insts {
                if self.sticky_val[v.0 as usize] {
                    continue;
                }
                let kind = &f.inst(v).kind;
                if matches!(kind, InstKind::Phi(_)) {
                    continue; // wired with the mus
                }
                let node = self.inst_node[v.0 as usize].expect("non-sticky values have nodes");
                match kind {
                    InstKind::Load { mem, addr } => {
                        let a = self.operand(b, *addr);
                        self.g.connect(a, node, 0);
                        let tok = self.chain_token(b, mem.0, &mut last_token);
                        self.g.connect(tok, node, 1);
                        pending_loads.entry(mem.0).or_default().push(node);
                    }
                    InstKind::Store { mem, addr, value } => {
                        let a = self.operand(b, *addr);
                        let val = self.operand(b, *value);
                        self.g.connect(a, node, 0);
                        self.g.connect(val, node, 1);
                        // The store waits for every load issued since the
                        // previous token point.
                        let loads = pending_loads.remove(&mem.0).unwrap_or_default();
                        if loads.is_empty() {
                            let tok = self.chain_token(b, mem.0, &mut last_token);
                            self.g.connect(tok, node, 2);
                        } else {
                            let join = self.join_load_tokens(&loads);
                            self.g.connect(join, node, 2);
                        }
                        last_token.insert(mem.0, node);
                    }
                    other => {
                        for (port, o) in collect_operands(other).into_iter().enumerate() {
                            let src = self.operand(b, o);
                            self.g.connect(src, node, port as u8);
                        }
                    }
                }
            }
            // Record this block's final token producers, in memory
            // order so node numbering does not follow hash order.
            let mut pending_loads: Vec<_> = pending_loads.into_iter().collect();
            pending_loads.sort_unstable_by_key(|&(m, _)| m);
            for (m, loads) in &pending_loads {
                if loads.is_empty() {
                    continue;
                }
                let join = self.join_load_tokens(loads);
                last_token.insert(*m, join);
            }
            for (m, tok) in last_token {
                self.block_token_out.insert((b, m), tok);
            }
        }
    }

    /// Joins the token outputs of one or more loads into a single token.
    fn join_load_tokens(&mut self, loads: &[NodeId]) -> NodeId {
        let join = self.g.add_node(
            NodeKind::Join {
                arity: loads.len() as u8,
            },
            unit_ty(),
        );
        for (i, &l) in loads.iter().enumerate() {
            self.g.connect_token(l, join, i as u8);
        }
        join
    }

    /// The current in-block token for `mem`, creating the block's
    /// `token_in` placeholder on first use.
    fn chain_token(
        &mut self,
        b: BlockId,
        mem: u32,
        last_token: &mut FastMap<u32, NodeId>,
    ) -> NodeId {
        if let Some(&t) = last_token.get(&mem) {
            return t;
        }
        let t = *self
            .token_in
            .entry((b, mem))
            .or_insert_with(|| self.g.add_node(NodeKind::Join { arity: 1 }, unit_ty()));
        last_token.insert(mem, t);
        t
    }

    /// Pass B: feed each block's `token_in` join from the incoming chain.
    fn wire_token_ins(&mut self) {
        let mut entries: Vec<((BlockId, u32), NodeId)> =
            self.token_in.iter().map(|(&k, &v)| (k, v)).collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        for ((b, m), join) in entries {
            let src = if b == self.f.entry {
                self.mem_seeds[m as usize]
            } else {
                self.incoming(b, Item::Mem(m))
            };
            self.g.connect(src, join, 0);
        }
    }

    fn operand(&mut self, b: BlockId, o: Value) -> NodeId {
        if self.sticky_val[o.0 as usize] {
            self.sticky_node_for(o)
        } else if self.def_block[o.0 as usize] == b {
            self.inst_node[o.0 as usize].expect("non-sticky values have nodes")
        } else {
            self.out(b, Item::Val(o))
        }
    }

    fn wire_mus(&mut self) {
        // Phi mus: one port per predecessor (in predecessor-list order, so
        // ports line up with the block's control mu) with the gated
        // incoming value.
        for (i, inst) in self.f.insts.iter().enumerate() {
            let v = Value(i as u32);
            if self.sticky_val[i] {
                continue;
            }
            let InstKind::Phi(args) = &inst.kind else {
                continue;
            };
            let mu = self.inst_node[v.0 as usize].expect("non-sticky values have nodes");
            if let Some(&ctrl_mu) = self.mu_node.get(&(inst.block, Item::Ctrl)) {
                self.g.mu_ctrl[mu.0 as usize] = Some(ctrl_mu);
            }
            let preds = self.preds[inst.block.0 as usize].clone();
            for (port, p) in preds.into_iter().enumerate() {
                let Some((_, pv)) = args.iter().find(|(ab, _)| *ab == p) else {
                    continue;
                };
                let src = self.gated(p, inst.block, Item::Val(*pv));
                self.g.connect(src, mu, port as u8);
            }
        }
        // Item mus (non-phi live-ins, ctrl, mem tokens).
        let mut entries: Vec<((BlockId, Item), NodeId)> =
            self.mu_node.iter().map(|(&k, &v)| (k, v)).collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        for ((b, item), mu) in entries {
            let preds = self.preds[b.0 as usize].clone();
            for (port, p) in preds.into_iter().enumerate() {
                let src = self.gated(p, b, item);
                self.g.connect(src, mu, port as u8);
            }
        }
    }

    fn wire_result(&mut self) {
        let ret_blocks: Vec<(BlockId, Option<Value>)> = self
            .f
            .blocks
            .iter()
            .enumerate()
            .filter_map(|(bi, blk)| match &blk.term {
                Term::Ret(v) => Some((BlockId(bi as u32), *v)),
                _ => None,
            })
            .collect();
        let ret_ty = self.f.ret_ty.unwrap_or_else(unit_ty);
        self.g.void = self.f.ret_ty.is_none();
        let result = self.g.add_node(NodeKind::Result, ret_ty);
        self.g.result = Some(result);
        let mut contributions: Vec<NodeId> = Vec::new();
        for (b, v) in ret_blocks {
            // Completion = ctrl token at b + all memory tokens at b; the
            // value rides along.
            let ctrl = self.out(b, Item::Ctrl);
            let mut toks = vec![ctrl];
            for m in 0..self.f.mems.len() {
                toks.push(self.out(b, Item::Mem(m as u32)));
            }
            let joined = if toks.len() == 1 {
                toks[0]
            } else {
                let join = self.g.add_node(
                    NodeKind::Join {
                        arity: toks.len() as u8,
                    },
                    unit_ty(),
                );
                for (i, &t) in toks.iter().enumerate() {
                    self.g.connect(t, join, i as u8);
                }
                join
            };
            // Gate the value with the completion join: a select-like
            // "sample": use a Join carrying the value? Simpler: a 2-input
            // Join cannot carry values, so synthesize `value + 0*join`:
            // we instead use an EtaTrue with the join as a constant-1
            // predicate... cleanest is a dedicated carrier: Bin(Add) of
            // value and 0-typed join token would corrupt the value. Use
            // Select(join, value, value): fires when join token + value
            // arrive, emits value.
            let contribution = match v {
                Some(val) => {
                    let vn = self.operand(b, val);
                    let sel = self.g.add_node(NodeKind::Select, ret_ty);
                    self.g.connect(joined, sel, 0);
                    self.g.connect(vn, sel, 1);
                    self.g.connect(vn, sel, 2);
                    sel
                }
                None => joined,
            };
            contributions.push(contribution);
        }
        match contributions.len() {
            0 => {}
            1 => self.g.connect(contributions[0], result, 0),
            _ => {
                let mu = self.g.add_node(NodeKind::Mu, ret_ty);
                for (i, &c) in contributions.iter().enumerate() {
                    self.g.connect(c, mu, i as u8);
                }
                self.g.connect(mu, result, 0);
            }
        }
    }
}

fn collect_operands(kind: &InstKind) -> Vec<Value> {
    let mut out = Vec::new();
    kind.for_each_operand(|o| out.push(o));
    out
}

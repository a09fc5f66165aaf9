//! The Handel-C backend.
//!
//! Celoxica's Handel-C "adds constructs for parallel statements and
//! OCCAM-like rendezvous communication. Each assignment statement runs in
//! one cycle." The timing rule is the whole language: assignments and
//! `delay` take exactly one cycle, control decisions are free
//! (combinational), `par` runs branches in lockstep, and channel
//! `send`/`recv` block until both sides are ready.
//!
//! Implementation: statements compile to a small control graph whose
//! *cycle nodes* (assignment, delay, send, recv) each cost one cycle and
//! whose decision nodes cost nothing. A breadth-first **product
//! construction** then turns (possibly nested) `par` compositions into a
//! single FSMD: a state is a tuple of branch positions; blocked
//! channel ends stall their branch; a rendezvous transfers the value in
//! the cycle both ends are ready. Branch decisions for the *next* cycle
//! are evaluated over post-commit values (registers written this cycle
//! are substituted by their new expressions), matching Handel-C's
//! "condition checked after the assignment" semantics.
//!
//! Two bookkeeping cycles are added per run: an entry state latching the
//! scalar parameters into registers (Handel-C variables are mutable) and
//! the final `Done` state.

use crate::common::*;
use chls_frontend::ast::UnOp;
use chls_frontend::hir::*;
use chls_frontend::IntType;
use chls_ir::{BinKind, UnKind};
use chls_rtl::fsmd::{
    Action, BlockedOp, ChanDir, Fsmd, MemId, NextState, RegId, Rv, RvKind, StateId, StuckState,
};
use std::collections::BTreeMap;

/// The Handel-C backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct HandelC;

impl Backend for HandelC {
    fn info(&self) -> BackendInfo {
        BackendInfo {
            name: "handelc",
            models: "Handel-C (Celoxica)",
            year: 2003,
            comment: "C with CSP",
            concurrency: ConcurrencyModel::Explicit,
            timing: TimingModel::RulePerAssignment,
            pointers: true,
            data_dependent_loops: true,
            parallel_constructs: true,
            reads_pipeline: false,
            reads_narrow: false,
        }
    }

    fn synthesize(
        &self,
        prep: &Preparer,
        entry: &str,
        opts: &SynthOptions,
    ) -> Result<Design, SynthError> {
        let prepared = prep.structured(entry, opts.unroll_factor)?;
        let fsmd = Compile::new(&prepared.prog)?.run()?;
        Ok(Design::Fsmd(fsmd))
    }
}

/// End-of-program marker.
const END: usize = usize::MAX;

/// A write destination.
#[derive(Debug, Clone, PartialEq)]
enum Dst {
    Reg(RegId),
    Mem(MemId, Rv),
}

/// Control-graph nodes. Cycle nodes cost one cycle; `Decision` is free.
#[derive(Debug, Clone, PartialEq)]
enum HcNode {
    /// One cycle: commit all actions simultaneously.
    Step {
        actions: Vec<(Dst, Rv)>,
        next: usize,
    },
    /// One idle cycle.
    Delay { next: usize },
    /// Blocking send.
    Send { chan: u32, value: Rv, next: usize },
    /// Blocking receive.
    Recv { chan: u32, dst: Dst, next: usize },
    /// Free branch.
    Decision { cond: Rv, then: usize, els: usize },
    /// Parallel composition; each branch entry, then continue at `next`.
    Par { branches: Vec<usize>, next: usize },
}

/// A product-machine configuration.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Cfg {
    Leaf(usize),
    Par { branches: Vec<Cfg>, next: usize },
}

/// Guarded successor configurations: (path condition, configuration),
/// where no condition means always.
type Options = Vec<(Option<Rv>, Cfg)>;

struct Compile<'p> {
    st: HirStorage<'p>,
    nodes: Vec<HcNode>,
    fsmd: Fsmd,
    /// (continue target, break target) per enclosing loop.
    loop_stack: Vec<(usize, usize)>,
}

impl<'p> Compile<'p> {
    fn new(prog: &'p HirProgram) -> Result<Self, SynthError> {
        let (fsmd, st) = HirStorage::build(prog)?;
        Ok(Compile {
            st,
            nodes: Vec::new(),
            fsmd,
            loop_stack: Vec::new(),
        })
    }

    // ---- expression compilation ----

    fn rv(&self, e: &HirExpr) -> Result<Rv, SynthError> {
        let ty = scalar_ty(&e.ty);
        Ok(match &e.kind {
            HirExprKind::Const(v) => Rv::konst(*v, ty),
            HirExprKind::Load(place) => self.load_place(place, ty)?,
            HirExprKind::Unary(op, a) => {
                let ar = self.rv(a)?;
                match op {
                    UnOp::Neg => Rv {
                        kind: RvKind::Un(UnKind::Neg, Box::new(ar)),
                        ty,
                    },
                    UnOp::Not => Rv {
                        kind: RvKind::Un(UnKind::Not, Box::new(ar)),
                        ty,
                    },
                    UnOp::LogNot => is_zero(ar),
                }
            }
            HirExprKind::Binary(op, a, b) => {
                let (ar, br) = (self.rv(a)?, self.rv(b)?);
                let kind = BinKind::from(*op);
                Rv {
                    kind: RvKind::Bin(kind, Box::new(ar), Box::new(br)),
                    ty: if kind.is_comparison() {
                        IntType::u1()
                    } else {
                        ty
                    },
                }
            }
            HirExprKind::Select(c, t, f) => Rv {
                kind: RvKind::Mux(
                    Box::new(self.rv(c)?),
                    Box::new(self.rv(t)?),
                    Box::new(self.rv(f)?),
                ),
                ty,
            },
            HirExprKind::Cast(a) => Rv {
                kind: RvKind::Cast(Box::new(self.rv(a)?)),
                ty,
            },
            HirExprKind::AddrOf(_) => {
                return Err(SynthError::Transform("address-of survived".to_string()));
            }
        })
    }

    fn load_place(&self, place: &HirPlace, ty: IntType) -> Result<Rv, SynthError> {
        Ok(match place {
            HirPlace::Local(id) => Rv::reg(self.st.reg(*id), ty),
            HirPlace::Index { base, index } => {
                let mem = self.st.place_mem(base)?;
                Rv {
                    kind: RvKind::MemRead {
                        mem,
                        addr: Box::new(self.rv(index)?),
                    },
                    ty,
                }
            }
            HirPlace::Global(_) | HirPlace::Deref(_) => {
                return Err(SynthError::Transform("bad place".to_string()));
            }
        })
    }

    fn dst(&self, place: &HirPlace) -> Result<Dst, SynthError> {
        Ok(match place {
            HirPlace::Local(id) => Dst::Reg(self.st.reg(*id)),
            HirPlace::Index { base, index } => Dst::Mem(self.st.place_mem(base)?, self.rv(index)?),
            _ => return Err(SynthError::Transform("bad destination".to_string())),
        })
    }

    // ---- statement graph ----

    fn add(&mut self, n: HcNode) -> usize {
        self.nodes.push(n);
        self.nodes.len() - 1
    }

    /// Compiles a block with continuation `next`, returning its entry.
    fn block(&mut self, b: &HirBlock, next: usize) -> Result<usize, SynthError> {
        let mut entry = next;
        for stmt in b.stmts.iter().rev() {
            entry = self.stmt(stmt, entry)?;
        }
        Ok(entry)
    }

    fn stmt(&mut self, s: &HirStmt, next: usize) -> Result<usize, SynthError> {
        match s {
            HirStmt::Assign { place, value, .. } => {
                let d = self.dst(place)?;
                let v = self.rv(value)?;
                Ok(self.add(HcNode::Step {
                    actions: vec![(d, v)],
                    next,
                }))
            }
            HirStmt::Delay => Ok(self.add(HcNode::Delay { next })),
            HirStmt::Send { chan, value, .. } => {
                let v = self.rv(value)?;
                Ok(self.add(HcNode::Send {
                    chan: self.st.chan(*chan),
                    value: v,
                    next,
                }))
            }
            HirStmt::Recv { dst, chan, .. } => {
                let d = self.dst(dst)?;
                Ok(self.add(HcNode::Recv {
                    chan: self.st.chan(*chan),
                    dst: d,
                    next,
                }))
            }
            HirStmt::If { cond, then, els } => {
                let c = self.rv(cond)?;
                let t = self.block(then, next)?;
                let e = self.block(els, next)?;
                Ok(self.add(HcNode::Decision {
                    cond: c,
                    then: t,
                    els: e,
                }))
            }
            HirStmt::While { cond, body, .. } => {
                let c = self.rv(cond)?;
                // Placeholder decision; patch after compiling the body.
                let dec = self.add(HcNode::Decision {
                    cond: c,
                    then: 0,
                    els: next,
                });
                self.loop_stack.push((dec, next));
                let body_entry = self.block(body, dec)?;
                self.loop_stack.pop();
                if let HcNode::Decision { then, .. } = &mut self.nodes[dec] {
                    *then = body_entry;
                }
                Ok(dec)
            }
            HirStmt::DoWhile { body, cond } => {
                let c = self.rv(cond)?;
                let dec = self.add(HcNode::Decision {
                    cond: c,
                    then: 0,
                    els: next,
                });
                self.loop_stack.push((dec, next));
                let body_entry = self.block(body, dec)?;
                self.loop_stack.pop();
                if let HcNode::Decision { then, .. } = &mut self.nodes[dec] {
                    *then = body_entry;
                }
                Ok(body_entry)
            }
            HirStmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                let c = self.rv(cond)?;
                let dec = self.add(HcNode::Decision {
                    cond: c,
                    then: 0,
                    els: next,
                });
                let step_entry = self.block(step, dec)?;
                self.loop_stack.push((step_entry, next));
                let body_entry = self.block(body, step_entry)?;
                self.loop_stack.pop();
                if let HcNode::Decision { then, .. } = &mut self.nodes[dec] {
                    *then = body_entry;
                }
                self.block(init, dec)
            }
            HirStmt::Return(v) => {
                match (v, self.st.ret_reg) {
                    (Some(e), Some(rr)) => {
                        let rv = self.rv(e)?;
                        Ok(self.add(HcNode::Step {
                            actions: vec![(Dst::Reg(rr), rv)],
                            next: END,
                        }))
                    }
                    // A bare return still consumes its cycle.
                    _ => Ok(self.add(HcNode::Delay { next: END })),
                }
            }
            // Control transfers are free: redirect the continuation.
            HirStmt::Break => Ok(self
                .loop_stack
                .last()
                .map(|&(_, brk)| brk)
                .ok_or_else(|| SynthError::Transform("break outside loop".to_string()))?),
            HirStmt::Continue => Ok(self
                .loop_stack
                .last()
                .map(|&(cont, _)| cont)
                .ok_or_else(|| SynthError::Transform("continue outside loop".to_string()))?),
            HirStmt::Block(b) | HirStmt::Constraint { body: b, .. } => self.block(b, next),
            HirStmt::Par(branches) => {
                let entries: Result<Vec<usize>, _> =
                    branches.iter().map(|b| self.block(b, END)).collect();
                Ok(self.add(HcNode::Par {
                    branches: entries?,
                    next,
                }))
            }
            HirStmt::Call { .. } => {
                Err(SynthError::Transform("call survived inlining".to_string()))
            }
        }
    }

    // ---- product construction ----

    fn run(mut self) -> Result<Fsmd, SynthError> {
        let entry_node = self.block(&self.st.func.body, END)?;

        // Entry state: latch scalar parameters. The first decisions
        // (evaluated while leaving the entry state) must see the latched
        // parameter values.
        let entry_state = self.fsmd.add_state();
        self.fsmd.entry = entry_state;
        self.st.latch_params(&mut self.fsmd, entry_state);
        let mut entry_subst = Subst::default();
        for a in &self.fsmd.state(entry_state).actions {
            if let chls_rtl::fsmd::ActionKind::SetReg(r, rv) = &a.kind {
                entry_subst.set_reg(*r, rv.clone());
            }
        }

        let done_state = self.fsmd.add_state();
        self.fsmd.state_mut(done_state).next = NextState::Done;

        // BFS over configurations.
        let mut state_of: BTreeMap<Cfg, StateId> = BTreeMap::new();
        let mut worklist: Vec<Cfg> = Vec::new();
        let get_state = |cfg: &Cfg,
                         fsmd: &mut Fsmd,
                         state_of: &mut BTreeMap<Cfg, StateId>,
                         worklist: &mut Vec<Cfg>|
         -> StateId {
            if *cfg == Cfg::Leaf(END) {
                return done_state;
            }
            if let Some(&s) = state_of.get(cfg) {
                return s;
            }
            let s = fsmd.add_state();
            state_of.insert(cfg.clone(), s);
            worklist.push(cfg.clone());
            s
        };

        // Initial advance from the entry node over post-latch values.
        let initial = self.advance(entry_node, &entry_subst, &mut Vec::new())?;
        let init_cases: Vec<(Rv, StateId)> = initial
            .iter()
            .map(|(cond, cfg)| {
                let st = get_state(cfg, &mut self.fsmd, &mut state_of, &mut worklist);
                (
                    cond.clone().unwrap_or_else(|| Rv::konst(1, IntType::u1())),
                    st,
                )
            })
            .collect();
        self.fsmd.state_mut(entry_state).next = cases_to_next(init_cases, done_state);

        let mut guard = 0usize;
        while let Some(cfg) = worklist.pop() {
            guard += 1;
            if guard > 16_384 {
                return Err(SynthError::Transform(
                    "handelc product machine exceeds 16384 states".to_string(),
                ));
            }
            let state = state_of[&cfg];
            // 1. Leaves and rendezvous.
            let mut leaves: Vec<usize> = Vec::new();
            collect_leaves(&cfg, &mut leaves);
            let partner = self.rendezvous(&leaves);

            // 2. Actions, the substitution map for next-cycle decisions,
            // and which leaves advance (indexed like `leaves`).
            let mut actions: Vec<Action> = Vec::new();
            let mut subst = Subst::default();
            let mut active = vec![false; leaves.len()];
            for (i, &l) in leaves.iter().enumerate() {
                if l == END {
                    continue;
                }
                active[i] = match &self.nodes[l] {
                    HcNode::Step { actions: acts, .. } => {
                        for (d, v) in acts {
                            push_action(&mut actions, &mut subst, d.clone(), v.clone());
                        }
                        true
                    }
                    HcNode::Delay { .. } => true,
                    HcNode::Send { .. } => partner[i].is_some(),
                    HcNode::Recv { dst, .. } => match partner[i] {
                        Some(s) => {
                            let HcNode::Send { value, .. } = &self.nodes[leaves[s]] else {
                                unreachable!("a receiver's partner is a send");
                            };
                            push_action(&mut actions, &mut subst, dst.clone(), value.clone());
                            true
                        }
                        None => false,
                    },
                    HcNode::Decision { .. } | HcNode::Par { .. } => {
                        unreachable!("configurations rest at cycle nodes only")
                    }
                };
            }
            self.fsmd.state_mut(state).actions = actions;

            // 2b. A configuration in which every live process sits on an
            // unmatched rendezvous can never advance — no assignment or
            // delay will ever fire again. Record it so the simulators
            // report a first-class deadlock instead of spinning here
            // until the cycle limit.
            if leaves.iter().any(|&l| l != END) && !active.contains(&true) {
                let mut blocked = Vec::new();
                self.collect_blocked(&cfg, &mut Vec::new(), &mut blocked);
                self.fsmd.stuck.push(StuckState { state, blocked });
            }

            // 3. Successor configurations.
            let options = self.cfg_step(&cfg, &subst, &mut active.iter())?;
            let cases: Vec<(Rv, StateId)> = options
                .iter()
                .map(|(cond, next_cfg)| {
                    let st = get_state(next_cfg, &mut self.fsmd, &mut state_of, &mut worklist);
                    (
                        cond.clone().unwrap_or_else(|| Rv::konst(1, IntType::u1())),
                        st,
                    )
                })
                .collect();
            self.fsmd.state_mut(state).next = cases_to_next(cases, done_state);
        }

        self.fsmd.ret = self.st.ret();
        Ok(self.fsmd)
    }

    /// Names every blocked channel endpoint in a stuck configuration,
    /// labelling each process by its position in the `par` nest
    /// (`arm 0`, `arm 1.2`, or `main` outside any `par`).
    fn collect_blocked(&self, cfg: &Cfg, path: &mut Vec<usize>, out: &mut Vec<BlockedOp>) {
        match cfg {
            Cfg::Leaf(END) => {}
            Cfg::Leaf(n) => {
                let (chan, dir) = match &self.nodes[*n] {
                    HcNode::Send { chan, .. } => (*chan, ChanDir::Send),
                    HcNode::Recv { chan, .. } => (*chan, ChanDir::Recv),
                    _ => return,
                };
                let process = if path.is_empty() {
                    "main".to_string()
                } else {
                    let ix: Vec<String> = path.iter().map(ToString::to_string).collect();
                    format!("arm {}", ix.join("."))
                };
                out.push(BlockedOp {
                    process,
                    channel: self.chan_name(chan),
                    dir,
                });
            }
            Cfg::Par { branches, .. } => {
                for (i, b) in branches.iter().enumerate() {
                    path.push(i);
                    self.collect_blocked(b, path, out);
                    path.pop();
                }
            }
        }
    }

    /// The source name of channel `chan`.
    fn chan_name(&self, chan: u32) -> String {
        match self.st.locals.iter().position(|s| *s == Slot::Chan(chan)) {
            Some(l) => self.st.func.locals[l].name.clone(),
            None => format!("chan{chan}"),
        }
    }

    /// Rendezvous partners, indexed like `leaves`: the k-th receiver on a
    /// channel meets the k-th sender on it, and unmatched ends get none.
    fn rendezvous(&self, leaves: &[usize]) -> Vec<Option<usize>> {
        let end_on = |l: usize, send: bool| match self.nodes.get(l) {
            Some(HcNode::Send { chan, .. }) if send => Some(*chan),
            Some(HcNode::Recv { chan, .. }) if !send => Some(*chan),
            _ => None,
        };
        let mut partner = vec![None; leaves.len()];
        for r in 0..leaves.len() {
            let Some(chan) = end_on(leaves[r], false) else {
                continue;
            };
            let free_sender = (0..leaves.len())
                .find(|&s| partner[s].is_none() && end_on(leaves[s], true) == Some(chan));
            if let Some(s) = free_sender {
                partner[r] = Some(s);
                partner[s] = Some(r);
            }
        }
        partner
    }

    /// Successor options of one configuration: stalled leaves stay, active
    /// leaves advance through decision nodes with path conditions.
    /// `active` yields one flag per leaf, in [`collect_leaves`] order.
    fn cfg_step(
        &self,
        cfg: &Cfg,
        subst: &Subst,
        active: &mut std::slice::Iter<'_, bool>,
    ) -> Result<Options, SynthError> {
        match cfg {
            Cfg::Leaf(node) => {
                let active = *active.next().expect("one flag per leaf");
                if *node == END {
                    return Ok(vec![(None, Cfg::Leaf(END))]);
                }
                if !active {
                    return Ok(vec![(None, Cfg::Leaf(*node))]);
                }
                let next = match &self.nodes[*node] {
                    HcNode::Step { next, .. }
                    | HcNode::Delay { next }
                    | HcNode::Send { next, .. }
                    | HcNode::Recv { next, .. } => *next,
                    _ => unreachable!("cycle node"),
                };
                self.advance(next, subst, &mut Vec::new())
            }
            Cfg::Par { branches, next } => {
                let options = branches
                    .iter()
                    .map(|b| self.cfg_step(b, subst, active))
                    .collect::<Result<Vec<_>, _>>()?;
                self.par_product(&options, *next, subst, &mut Vec::new())
            }
        }
    }

    /// Walks decision/par nodes from `node` until cycle nodes, collecting
    /// path conditions (over post-commit values via `subst`).
    fn advance(
        &self,
        node: usize,
        subst: &Subst,
        visiting: &mut Vec<usize>,
    ) -> Result<Options, SynthError> {
        if node == END {
            return Ok(vec![(None, Cfg::Leaf(END))]);
        }
        if visiting.contains(&node) {
            return Err(SynthError::Loop(
                "zero-cycle loop: a loop body with no assignment or delay".to_string(),
            ));
        }
        match &self.nodes[node] {
            HcNode::Decision { cond, then, els } => {
                visiting.push(node);
                let c = subst.apply(cond);
                let not_c = is_zero(c.clone());
                let mut out = Vec::new();
                for (gate, target) in [(c, *then), (not_c, *els)] {
                    for (c2, cfg) in self.advance(target, subst, visiting)? {
                        out.push((and_opt(Some(gate.clone()), c2), cfg));
                    }
                }
                visiting.pop();
                Ok(out)
            }
            HcNode::Par { branches, next } => {
                visiting.push(node);
                let options = branches
                    .iter()
                    .map(|&b| self.advance(b, subst, visiting))
                    .collect::<Result<Vec<_>, _>>()?;
                let out = self.par_product(&options, *next, subst, visiting)?;
                visiting.pop();
                Ok(out)
            }
            _ => Ok(vec![(None, Cfg::Leaf(node))]),
        }
    }

    /// The options of a `par` from the options of its branches: one per
    /// combination of branch options, conditions conjoined. A
    /// combination in which every branch has finished joins: it
    /// continues at `next` in the same step.
    fn par_product(
        &self,
        branch_options: &[Options],
        next: usize,
        subst: &Subst,
        visiting: &mut Vec<usize>,
    ) -> Result<Options, SynthError> {
        let mut combos: Vec<(Option<Rv>, Vec<Cfg>)> = vec![(None, Vec::new())];
        for opts in branch_options {
            let mut new_combos = Vec::with_capacity(combos.len() * opts.len());
            for (c0, partial) in &combos {
                for (c1, sub) in opts {
                    let mut p = partial.clone();
                    p.push(sub.clone());
                    new_combos.push((and_opt(c0.clone(), c1.clone()), p));
                }
            }
            combos = new_combos;
        }
        let mut out = Vec::new();
        for (cond, branches) in combos {
            if branches.iter().all(|c| *c == Cfg::Leaf(END)) {
                for (c2, cont) in self.advance(next, subst, visiting)? {
                    out.push((and_opt(cond.clone(), c2), cont));
                }
            } else {
                out.push((cond, Cfg::Par { branches, next }));
            }
        }
        Ok(out)
    }
}

/// Substitution of this-cycle register writes into next-cycle decisions.
#[derive(Default)]
struct Subst {
    /// This cycle's new value of each register written, by `RegId`.
    regs: Vec<Option<Rv>>,
    /// (mem, addr, value) writes this cycle, for load forwarding.
    mem_writes: Vec<(MemId, Rv, Rv)>,
}

impl Subst {
    fn set_reg(&mut self, r: RegId, v: Rv) {
        let i = r.0 as usize;
        if self.regs.len() <= i {
            self.regs.resize(i + 1, None);
        }
        self.regs[i] = Some(v);
    }

    fn apply(&self, rv: &Rv) -> Rv {
        let kind = match &rv.kind {
            RvKind::Reg(r) => {
                if let Some(Some(repl)) = self.regs.get(r.0 as usize) {
                    return repl.clone();
                }
                RvKind::Reg(*r)
            }
            RvKind::Const(c) => RvKind::Const(*c),
            RvKind::Input(i) => RvKind::Input(*i),
            RvKind::Un(op, a) => RvKind::Un(*op, Box::new(self.apply(a))),
            RvKind::Bin(op, a, b) => {
                RvKind::Bin(*op, Box::new(self.apply(a)), Box::new(self.apply(b)))
            }
            RvKind::Mux(s, a, b) => RvKind::Mux(
                Box::new(self.apply(s)),
                Box::new(self.apply(a)),
                Box::new(self.apply(b)),
            ),
            RvKind::Cast(a) => RvKind::Cast(Box::new(self.apply(a))),
            RvKind::MemRead { mem, addr } => {
                let a = self.apply(addr);
                // Forward same-cycle stores.
                let mut out = Rv {
                    kind: RvKind::MemRead {
                        mem: *mem,
                        addr: Box::new(a.clone()),
                    },
                    ty: rv.ty,
                };
                for (m, wa, wv) in &self.mem_writes {
                    if m == mem {
                        let hit = Rv {
                            kind: RvKind::Bin(
                                BinKind::Eq,
                                Box::new(wa.clone()),
                                Box::new(a.clone()),
                            ),
                            ty: IntType::u1(),
                        };
                        out = Rv {
                            kind: RvKind::Mux(Box::new(hit), Box::new(wv.clone()), Box::new(out)),
                            ty: rv.ty,
                        };
                    }
                }
                return out;
            }
        };
        Rv { kind, ty: rv.ty }
    }
}

fn push_action(actions: &mut Vec<Action>, subst: &mut Subst, d: Dst, v: Rv) {
    match d {
        Dst::Reg(r) => {
            actions.push(Action::set(r, v.clone()));
            subst.set_reg(r, v);
        }
        Dst::Mem(m, addr) => {
            actions.push(Action::write(m, addr.clone(), v.clone()));
            subst.mem_writes.push((m, addr, v));
        }
    }
}

/// Lazy conjunction: `a ? b : 0`. Built as a mux so the simulator (and
/// synthesized priority logic) never evaluates `b`'s memory reads when
/// `a` is false — path conditions may contain speculative loads whose
/// addresses are only valid on the path.
fn and_opt(a: Option<Rv>, b: Option<Rv>) -> Option<Rv> {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some(x), Some(y)) => Some(Rv {
            kind: RvKind::Mux(
                Box::new(x),
                Box::new(y),
                Box::new(Rv::konst(0, IntType::u1())),
            ),
            ty: IntType::u1(),
        }),
    }
}

fn collect_leaves(cfg: &Cfg, out: &mut Vec<usize>) {
    match cfg {
        Cfg::Leaf(n) => out.push(*n),
        Cfg::Par { branches, .. } => {
            for b in branches {
                collect_leaves(b, out);
            }
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
        let d = HandelC
            .synthesize(&Preparer::new(prog), entry, &SynthOptions::default())
            .expect("synthesis ok");
        match d {
            Design::Fsmd(f) => f,
            _ => panic!("handelc must produce an FSMD"),
        }
    }

    #[test]
    fn one_cycle_per_assignment() {
        // Three sequential assignments: 3 cycles + entry + done = 5.
        let f = synth(
            "int f(int a) { int x = a; x = x + 1; x = x * 2; return x; }",
            "f",
        );
        let r = simulate(&f, &[ArgValue::Scalar(5)], 100).unwrap();
        assert_eq!(r.ret, Some(12));
        // assignments: x=a, x=x+1, x=x*2, ret=x: 4 cycles + entry + done.
        assert_eq!(r.cycles, 6);
    }

    #[test]
    fn par_assignments_share_a_cycle() {
        let seq = synth(
            "int f(int a) { int x; int y; x = a + 1; y = a + 2; return x + y; }",
            "f",
        );
        let par = synth(
            "int f(int a) {
                int x;
                int y;
                par { x = a + 1; y = a + 2; }
                return x + y;
            }",
            "f",
        );
        let rs = simulate(&seq, &[ArgValue::Scalar(10)], 100).unwrap();
        let rp = simulate(&par, &[ArgValue::Scalar(10)], 100).unwrap();
        assert_eq!(rs.ret, Some(23));
        assert_eq!(rp.ret, Some(23));
        assert_eq!(rs.cycles - rp.cycles, 1, "par saves exactly one cycle");
    }

    #[test]
    fn par_swap_is_simultaneous() {
        let f = synth(
            "int f() {
                int a = 3;
                int b = 5;
                par { a = b; b = a; }
                return a * 10 + b;
            }",
            "f",
        );
        let r = simulate(&f, &[], 100).unwrap();
        assert_eq!(r.ret, Some(53));
    }

    #[test]
    fn while_loop_condition_is_free() {
        // Body has one assignment: n iterations cost n cycles.
        let f = synth(
            "int f(int n) {
                int i = 0;
                while (i < n) { i = i + 1; }
                return i;
            }",
            "f",
        );
        let r5 = simulate(&f, &[ArgValue::Scalar(5)], 1000).unwrap();
        let r9 = simulate(&f, &[ArgValue::Scalar(9)], 1000).unwrap();
        assert_eq!(r5.ret, Some(5));
        assert_eq!(r9.ret, Some(9));
        assert_eq!(r9.cycles - r5.cycles, 4);
    }

    #[test]
    fn zero_cycle_loop_rejected() {
        let prog = compile_to_hir("void f() { while (true) { } }").unwrap();
        let err = HandelC
            .synthesize(&Preparer::new(prog), "f", &SynthOptions::default())
            .unwrap_err();
        assert!(matches!(err, SynthError::Loop(_)), "{err}");
    }

    #[test]
    fn delay_consumes_cycles() {
        let f = synth("int f() { delay; delay; delay; return 1; }", "f");
        let r = simulate(&f, &[], 100).unwrap();
        assert_eq!(r.ret, Some(1));
        assert_eq!(r.cycles, 6); // entry + 3 delays + ret + done
    }

    #[test]
    fn rendezvous_transfers_value() {
        let f = synth(
            "int f() {
                chan<int> c;
                int got = 0;
                par {
                    send(c, 42);
                    got = recv(c);
                }
                return got;
            }",
            "f",
        );
        let r = simulate(&f, &[], 100).unwrap();
        assert_eq!(r.ret, Some(42));
    }

    #[test]
    fn sender_stalls_until_receiver_ready() {
        // The receiver spends 3 cycles before receiving; the sender must
        // wait at the send.
        let f = synth(
            "int f() {
                chan<int> c;
                int got = 0;
                int prep = 0;
                par {
                    send(c, 7);
                    { prep = 1; prep = 2; prep = 3; got = recv(c); }
                }
                return got * 10 + prep;
            }",
            "f",
        );
        let r = simulate(&f, &[], 100).unwrap();
        assert_eq!(r.ret, Some(73));
    }

    #[test]
    fn producer_consumer_pipeline() {
        let f = synth(
            "int f() {
                chan<int> c;
                int sum = 0;
                par {
                    { for (int i = 1; i <= 4; i++) send(c, i * i); }
                    { for (int j = 0; j < 4; j++) sum = sum + recv(c); }
                }
                return sum;
            }",
            "f",
        );
        let r = simulate(&f, &[], 1000).unwrap();
        assert_eq!(r.ret, Some(30));
    }

    #[test]
    fn arrays_and_loops() {
        let f = synth(
            "int f(int a[4]) {
                int s = 0;
                for (int i = 0; i < 4; i++) s = s + a[i];
                return s;
            }",
            "f",
        );
        let r = simulate(&f, &[ArgValue::Array(vec![1, 2, 3, 4])], 1000).unwrap();
        assert_eq!(r.ret, Some(10));
    }

    #[test]
    fn fused_assignments_save_cycles() {
        // The paper: "Handel-C may require assignment statements to be
        // fused" to meet timing (cycle counts).
        let naive = synth(
            "int f(int a, int b) {
                int t1 = a + b;
                int t2 = t1 * 2;
                int t3 = t2 - a;
                return t3;
            }",
            "f",
        );
        let fused = synth("int f(int a, int b) { return (a + b) * 2 - a; }", "f");
        let args = [ArgValue::Scalar(3), ArgValue::Scalar(4)];
        let rn = simulate(&naive, &args, 100).unwrap();
        let rf = simulate(&fused, &args, 100).unwrap();
        assert_eq!(rn.ret, Some(11));
        assert_eq!(rf.ret, Some(11));
        assert!(
            rf.cycles < rn.cycles,
            "fused {} naive {}",
            rf.cycles,
            rn.cycles
        );
        // ... at the cost of a longer critical path.
        let m = chls_rtl::CostModel::new();
        assert!(fused.critical_path(&m) >= naive.critical_path(&m));
    }

    #[test]
    fn parallel_loops_overlap() {
        let f = synth(
            "int f(int a[8], int b[8]) {
                int s1 = 0;
                int s2 = 0;
                par {
                    { for (int i = 0; i < 8; i++) s1 = s1 + a[i]; }
                    { for (int j = 0; j < 8; j++) s2 = s2 + b[j]; }
                }
                return s1 + s2;
            }",
            "f",
        );
        let seq = synth(
            "int f(int a[8], int b[8]) {
                int s1 = 0;
                int s2 = 0;
                for (int i = 0; i < 8; i++) s1 = s1 + a[i];
                for (int j = 0; j < 8; j++) s2 = s2 + b[j];
                return s1 + s2;
            }",
            "f",
        );
        let args = [
            ArgValue::Array((1..=8).collect()),
            ArgValue::Array((11..=18).collect()),
        ];
        let rp = simulate(&f, &args, 1000).unwrap();
        let rs = simulate(&seq, &args, 1000).unwrap();
        assert_eq!(rp.ret, Some(36 + 116));
        assert_eq!(rs.ret, Some(36 + 116));
        assert!(
            rp.cycles * 3 < rs.cycles * 2,
            "par {} vs seq {}",
            rp.cycles,
            rs.cycles
        );
    }

    #[test]
    fn cross_branch_reads_see_cycle_boundaries() {
        // Unlike a threaded software model (where this would be a race),
        // Handel-C's cycle semantics makes cross-branch reads
        // deterministic: a read in cycle 2 sees the other branch's
        // cycle-1 commit.
        let f = synth(
            "int f(int a) {
                int x0 = 0;
                int x2 = 0;
                par {
                    { x0 = a + 1; x0 = x2 + 10; }
                    x2 = a + 100;
                }
                return x0 * 1000 + x2;
            }",
            "f",
        );
        let r = simulate(&f, &[ArgValue::Scalar(5)], 100).unwrap();
        // Cycle 1: x0 <= 6, x2 <= 105. Cycle 2: x0 <= x2(=105) + 10 = 115.
        assert_eq!(r.ret, Some(115 * 1000 + 105));
    }

    #[test]
    fn info_row() {
        let info = HandelC.info();
        assert_eq!(info.timing, TimingModel::RulePerAssignment);
        assert!(info.parallel_constructs);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use chls_frontend::compile_to_hir;
    use chls_sim::fsmd_sim::simulate;
    use chls_sim::interp::{run as interp_run, ArgValue, InterpOptions};
    use proptest::prelude::*;

    /// Generates a random assignment over variables x0..x3 and parameter a.
    fn arb_assign() -> impl Strategy<Value = String> {
        (
            0usize..4,
            prop_oneof![
                Just("a".to_string()),
                Just("x0".to_string()),
                Just("x1".to_string()),
                Just("x2".to_string()),
                Just("x3".to_string()),
                (1i64..20).prop_map(|v| v.to_string()),
            ],
            prop_oneof![Just("+"), Just("-"), Just("*"), Just("^")],
            prop_oneof![
                Just("x0".to_string()),
                Just("x1".to_string()),
                Just("x2".to_string()),
                Just("x3".to_string()),
                (1i64..20).prop_map(|v| v.to_string()),
            ],
        )
            .prop_map(|(dst, l, op, r)| format!("x{dst} = {l} {op} {r};"))
    }

    /// A random two-branch par where branch 1 owns {x0, x1} and branch 2
    /// owns {x2, x3} — reads and writes both stay within the owning
    /// branch, so there are no races and the threaded interpreter is a
    /// valid oracle. (Cross-branch *reads* are deterministic in Handel-C's
    /// cycle semantics but racy under threads, so they are excluded here;
    /// the directed tests cover them.)
    fn arb_par_program() -> impl Strategy<Value = String> {
        let b1 = proptest::collection::vec(
            (
                0usize..2,
                prop_oneof![Just("a"), Just("x0"), Just("x1")],
                prop_oneof![Just("+"), Just("*")],
                1i64..10,
            )
                .prop_map(|(d, l, op, r)| format!("x{d} = {l} {op} {r};")),
            1..4,
        );
        let b2 = proptest::collection::vec(
            (
                2usize..4,
                prop_oneof![Just("a"), Just("x2"), Just("x3")],
                prop_oneof![Just("+"), Just("*")],
                1i64..10,
            )
                .prop_map(|(d, l, op, r)| format!("x{d} = {l} {op} {r};")),
            1..4,
        );
        (b1, b2).prop_map(|(s1, s2)| {
            format!(
                "int f(int a) {{
                    int x0 = 1;
                    int x1 = 2;
                    int x2 = 3;
                    int x3 = 4;
                    par {{
                        {{ {} }}
                        {{ {} }}
                    }}
                    return x0 ^ (x1 << 1) ^ (x2 << 2) ^ (x3 << 3);
                }}",
                s1.join(" "),
                s2.join(" ")
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// Sequential random assignment runs: handelc == interpreter, and
        /// the cycle count equals assignments + bookkeeping exactly.
        #[test]
        fn random_sequences_match_interp(
            stmts in proptest::collection::vec(arb_assign(), 1..8),
            a in -50i64..50,
        ) {
            let src = format!(
                "int f(int a) {{
                    int x0 = 0;
                    int x1 = 0;
                    int x2 = 0;
                    int x3 = 0;
                    {}
                    return x0 ^ x1 ^ x2 ^ x3;
                }}",
                stmts.join("\n                    ")
            );
            let prog = compile_to_hir(&src).expect("parses");
            let golden = interp_run(&prog, "f", &[ArgValue::Scalar(a)], &InterpOptions::default())
                .expect("interprets");
            let d = HandelC
                .synthesize(&Preparer::new(prog), "f", &SynthOptions::default())
                .expect("synthesizes");
            let Design::Fsmd(f) = d else { unreachable!() };
            let r = simulate(&f, &[ArgValue::Scalar(a)], 10_000).expect("simulates");
            prop_assert_eq!(r.ret, golden.ret);
            // 4 inits + N statements + return + entry + done.
            prop_assert_eq!(r.cycles, 4 + stmts.len() as u64 + 1 + 2);
        }

        /// Random race-free par compositions: the product machine matches
        /// the threaded interpreter, and the cycle count equals the longer
        /// branch (lockstep semantics), not the sum.
        #[test]
        fn random_par_matches_interp(src in arb_par_program(), a in -20i64..20) {
            let prog = compile_to_hir(&src).expect("parses");
            let golden = interp_run(&prog, "f", &[ArgValue::Scalar(a)], &InterpOptions::default())
                .expect("interprets");
            let d = HandelC
                .synthesize(&Preparer::new(prog), "f", &SynthOptions::default())
                .expect("synthesizes");
            let Design::Fsmd(f) = d else { unreachable!() };
            let r = simulate(&f, &[ArgValue::Scalar(a)], 10_000).expect("simulates");
            prop_assert_eq!(r.ret, golden.ret, "source:\n{}", src);
        }
    }
}

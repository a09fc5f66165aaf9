//! The HardwareC / Bach C backend.
//!
//! Ku & De Micheli's HardwareC (the Olympus system's input) is a
//! behavioral language whose defining feature the paper highlights is
//! **in-language relative timing constraints**: "these three statements
//! must execute in two cycles". The compiler owns the schedule; the
//! constraints steer it — which "allows easier design-space
//! exploration". Sharp's Bach C works the same way ("the compiler does
//! the scheduling; the number of cycles taken by each construct is not
//! set by a rule").
//!
//! Implementation: straight-line runs of assignments ("chunks") become
//! dataflow graphs scheduled by
//!
//! * resource-constrained **list scheduling** normally, or
//! * **force-directed scheduling** under a cycle budget inside
//!   `#pragma constraint N { ... }` blocks — infeasible budgets are
//!   reported with the best achievable latency ([`SynthError::ConstraintInfeasible`]);
//!
//! `par` branches of straight-line assignments merge into a single chunk,
//! so the scheduler extracts their parallelism (HardwareC's process-level
//! concurrency at chunk granularity; branches must not race). Loop and
//! branch decisions are scheduled into their preceding chunk's last
//! cycle; a loop's condition re-evaluates in a dedicated header chunk.

use crate::common::*;
use chls_frontend::ast::UnOp;
use chls_frontend::hir::*;
use chls_frontend::IntType;
use chls_ir::{BinKind, UnKind};
use chls_rtl::cost::OpClass;
use chls_rtl::fsmd::{Action, Fsmd, MemId, NextState, RegId, Rv, RvKind, StateId};
use chls_rtl::netlist::bin_class;
use chls_sched::dfg::{Dfg, DfgNode, NodeId};
use chls_sched::schedule::Schedule;
use chls_sched::{force_directed, list_schedule};

/// The HardwareC backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct HardwareC;

impl Backend for HardwareC {
    fn info(&self) -> BackendInfo {
        BackendInfo {
            name: "hardwarec",
            models: "HardwareC (Ku & De Micheli) / Bach C (Sharp)",
            year: 1990,
            comment: "Behavioral synthesis-centric",
            concurrency: ConcurrencyModel::Explicit,
            timing: TimingModel::ConstraintDriven,
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
        let fsmd = Compiler::new(&prepared.prog, opts)?.run()?;
        Ok(Design::Fsmd(fsmd))
    }
}

/// An operand of a chunk node.
#[derive(Debug, Clone, PartialEq)]
enum In {
    Node(NodeId),
    Reg(RegId, IntType),
    Const(i64, IntType),
}

/// Payload of a chunk node (parallel to the DFG node).
#[derive(Debug, Clone)]
enum CNode {
    Bin(BinKind, In, In, IntType),
    Un(UnKind, In, IntType),
    Mux(In, In, In, IntType),
    Cast(In, IntType),
    Load(MemId, In, IntType),
    Store(MemId, In, In),
}

/// One straight-line scheduling unit.
#[derive(Default)]
struct Chunk {
    dfg: Dfg,
    payload: Vec<CNode>,
    /// Final register commits: node -> destination register.
    commits: Vec<(In, RegId)>,
    /// Current symbolic value of each local inside the chunk, by `LocalId`.
    cur: Vec<Option<In>>,
    /// Last access node per memory, by `MemId` (for ordering edges).
    last_mem: Vec<Option<NodeId>>,
}

impl Chunk {
    fn cur(&self, id: LocalId) -> Option<&In> {
        self.cur.get(id.0 as usize)?.as_ref()
    }

    fn set_cur(&mut self, id: LocalId, v: In) {
        set_dense(&mut self.cur, id.0 as usize, v);
    }
}

/// Sets `table[i]`, growing the table as needed.
fn set_dense<T: Clone>(table: &mut Vec<Option<T>>, i: usize, v: T) {
    if table.len() <= i {
        table.resize(i + 1, None);
    }
    table[i] = Some(v);
}

struct Compiler<'p> {
    st: HirStorage<'p>,
    opts: &'p SynthOptions,
    fsmd: Fsmd,
    done_state: StateId,
    /// Temp registers per emitted chunk node.
    temp_count: u32,
}

impl<'p> Compiler<'p> {
    fn new(prog: &'p HirProgram, opts: &'p SynthOptions) -> Result<Self, SynthError> {
        let (mut fsmd, st) = HirStorage::build(prog)?;
        if st.locals.iter().any(|s| matches!(s, Slot::Chan(_))) {
            return Err(SynthError::Unsupported {
                backend: "hardwarec",
                what: "channels (use the handelc backend)".to_string(),
            });
        }
        let done_state = fsmd.add_state();
        fsmd.state_mut(done_state).next = NextState::Done;
        Ok(Compiler {
            st,
            opts,
            fsmd,
            done_state,
            temp_count: 0,
        })
    }

    fn run(mut self) -> Result<Fsmd, SynthError> {
        // Entry state latches parameters.
        let entry_state = self.fsmd.add_state();
        self.fsmd.entry = entry_state;
        self.st.latch_params(&mut self.fsmd, entry_state);
        let exit = self.compile_block(&self.st.func.body, entry_state, None)?;
        // Fall off the end: done.
        self.fsmd.state_mut(exit).next = NextState::Done;
        self.fsmd.ret = self.st.ret();
        // The placeholder done_state may be unreachable; harmless.
        Ok(self.fsmd)
    }

    /// Compiles a block starting after `prev` (a state whose `next` we may
    /// set). Returns the last state of the compiled sequence, whose `next`
    /// the caller must set. `budget` carries an enclosing `#pragma
    /// constraint` cycle budget.
    fn compile_block(
        &mut self,
        block: &HirBlock,
        prev: StateId,
        budget: Option<u32>,
    ) -> Result<StateId, SynthError> {
        let mut cur = prev;
        let mut chunk = Chunk::default();
        for stmt in &block.stmts {
            match stmt {
                HirStmt::Assign { place, value, .. } => {
                    self.chunk_assign(&mut chunk, place, value)?;
                }
                HirStmt::Par(branches) => {
                    self.chunk_par(&mut chunk, branches)?;
                }
                HirStmt::Delay => {
                    // Flush and insert one idle state.
                    cur = self.flush(chunk, cur, budget)?;
                    chunk = Chunk::default();
                    let idle = self.fsmd.add_state();
                    self.fsmd.state_mut(cur).next = NextState::Goto(idle);
                    cur = idle;
                }
                HirStmt::Block(b) => {
                    cur = self.flush(chunk, cur, budget)?;
                    chunk = Chunk::default();
                    cur = self.compile_block(b, cur, budget)?;
                }
                HirStmt::Constraint { cycles, body } => {
                    cur = self.flush(chunk, cur, budget)?;
                    chunk = Chunk::default();
                    cur = self.compile_block(body, cur, Some(*cycles))?;
                }
                HirStmt::If { cond, then, els } => {
                    // Schedule the condition with the preceding chunk.
                    let c_in = self.chunk_expr(&mut chunk, cond)?;
                    let (last, cond_rv) = self.flush_with_value(chunk, cur, budget, c_in)?;
                    chunk = Chunk::default();
                    let join = self.fsmd.add_state();
                    let t_entry = self.fsmd.add_state();
                    let e_entry = self.fsmd.add_state();
                    self.fsmd.state_mut(last).next = NextState::Branch {
                        cond: cond_rv,
                        then: t_entry,
                        els: e_entry,
                    };
                    let t_last = self.compile_block(then, t_entry, budget)?;
                    self.fsmd.state_mut(t_last).next = NextState::Goto(join);
                    let e_last = self.compile_block(els, e_entry, budget)?;
                    self.fsmd.state_mut(e_last).next = NextState::Goto(join);
                    cur = join;
                }
                HirStmt::While { cond, body, .. } => {
                    cur = self.flush(chunk, cur, budget)?;
                    chunk = Chunk::default();
                    // Header chunk evaluates the condition each iteration.
                    let header_entry = self.fsmd.add_state();
                    self.fsmd.state_mut(cur).next = NextState::Goto(header_entry);
                    let mut header_chunk = Chunk::default();
                    let c_in = self.chunk_expr(&mut header_chunk, cond)?;
                    let (header_last, cond_rv) =
                        self.flush_with_value(header_chunk, header_entry, None, c_in)?;
                    let body_entry = self.fsmd.add_state();
                    let exit = self.fsmd.add_state();
                    self.fsmd.state_mut(header_last).next = NextState::Branch {
                        cond: cond_rv,
                        then: body_entry,
                        els: exit,
                    };
                    let body_last = self.compile_block(body, body_entry, budget)?;
                    self.fsmd.state_mut(body_last).next = NextState::Goto(header_entry);
                    cur = exit;
                }
                HirStmt::DoWhile { body, cond } => {
                    cur = self.flush(chunk, cur, budget)?;
                    chunk = Chunk::default();
                    let body_entry = self.fsmd.add_state();
                    self.fsmd.state_mut(cur).next = NextState::Goto(body_entry);
                    let body_last = self.compile_block(body, body_entry, budget)?;
                    let mut cond_chunk = Chunk::default();
                    let c_in = self.chunk_expr(&mut cond_chunk, cond)?;
                    let (cond_last, cond_rv) =
                        self.flush_with_value(cond_chunk, body_last, None, c_in)?;
                    let exit = self.fsmd.add_state();
                    self.fsmd.state_mut(cond_last).next = NextState::Branch {
                        cond: cond_rv,
                        then: body_entry,
                        els: exit,
                    };
                    cur = exit;
                }
                HirStmt::For {
                    init,
                    cond,
                    step,
                    body,
                    ..
                } => {
                    cur = self.flush(chunk, cur, budget)?;
                    chunk = Chunk::default();
                    cur = self.compile_block(init, cur, budget)?;
                    let header_entry = self.fsmd.add_state();
                    self.fsmd.state_mut(cur).next = NextState::Goto(header_entry);
                    let mut header_chunk = Chunk::default();
                    let c_in = self.chunk_expr(&mut header_chunk, cond)?;
                    let (header_last, cond_rv) =
                        self.flush_with_value(header_chunk, header_entry, None, c_in)?;
                    let body_entry = self.fsmd.add_state();
                    let exit = self.fsmd.add_state();
                    self.fsmd.state_mut(header_last).next = NextState::Branch {
                        cond: cond_rv,
                        then: body_entry,
                        els: exit,
                    };
                    let body_last = self.compile_block(body, body_entry, budget)?;
                    let step_last = self.compile_block(step, body_last, budget)?;
                    self.fsmd.state_mut(step_last).next = NextState::Goto(header_entry);
                    cur = exit;
                }
                HirStmt::Return(v) => {
                    if let (Some(e), Some(rr)) = (v, self.st.ret_reg) {
                        let val = self.chunk_expr(&mut chunk, e)?;
                        chunk.commits.push((val, rr));
                    }
                    cur = self.flush(chunk, cur, budget)?;
                    chunk = Chunk::default();
                    self.fsmd.state_mut(cur).next = NextState::Goto(self.done_state);
                    // Statements after a return are dead; a fresh state
                    // keeps the builder well-formed.
                    cur = self.fsmd.add_state();
                }
                HirStmt::Break | HirStmt::Continue => {
                    return Err(SynthError::Unsupported {
                        backend: "hardwarec",
                        what: "break/continue (restructure the loop)".to_string(),
                    });
                }
                HirStmt::Send { .. } | HirStmt::Recv { .. } => {
                    return Err(SynthError::Unsupported {
                        backend: "hardwarec",
                        what: "channels (use the handelc backend)".to_string(),
                    });
                }
                HirStmt::Call { .. } => {
                    return Err(SynthError::Transform("call survived inlining".to_string()));
                }
            }
        }
        self.flush(chunk, cur, budget)
    }

    // ---- chunk construction ----

    fn in_ty(&self, i: &In, chunk: &Chunk) -> IntType {
        match i {
            In::Node(n) => match &chunk.payload[n.0 as usize] {
                CNode::Bin(_, _, _, t)
                | CNode::Un(_, _, t)
                | CNode::Mux(_, _, _, t)
                | CNode::Cast(_, t)
                | CNode::Load(_, _, t) => *t,
                CNode::Store(..) => IntType::u1(),
            },
            In::Reg(_, t) | In::Const(_, t) => *t,
        }
    }

    fn add_chunk_node(&self, chunk: &mut Chunk, cn: CNode) -> NodeId {
        let (class, width, mem) = match &cn {
            CNode::Bin(op, a, _, t) => {
                let w = if op.is_comparison() {
                    self.in_ty(a, chunk).width
                } else {
                    t.width
                };
                (bin_class(*op), w, None)
            }
            CNode::Un(UnKind::Neg, _, t) => (OpClass::AddSub, t.width, None),
            CNode::Un(UnKind::Not, _, t) => (OpClass::Logic, t.width, None),
            CNode::Mux(_, _, _, t) => (OpClass::Mux, t.width, None),
            CNode::Cast(_, t) => (OpClass::Cast, t.width, None),
            CNode::Load(m, _, t) => (OpClass::MemRead, t.width, Some(m.0)),
            CNode::Store(m, _, _) => (OpClass::MemWrite, 32, Some(m.0)),
        };
        let delay = match class {
            OpClass::MemRead | OpClass::MemWrite => self.opts.model.ram_read_delay(64),
            other => self.opts.model.delay(other, width),
        };
        let chainable = !matches!(class, OpClass::MemRead | OpClass::MemWrite);
        let id = chunk.dfg.add_node(DfgNode {
            op: class,
            width,
            delay_ns: delay,
            mem,
            chainable,
            tag: chunk.payload.len() as u32,
        });
        // Data edges from node operands.
        let link = |i: &In, chunk: &mut Chunk| {
            if let In::Node(src) = i {
                chunk.dfg.add_edge(*src, id);
            }
        };
        match &cn {
            CNode::Bin(_, a, b, _) => {
                link(a, chunk);
                link(b, chunk);
            }
            CNode::Un(_, a, _) | CNode::Cast(a, _) => link(a, chunk),
            CNode::Mux(s, a, b, _) => {
                link(s, chunk);
                link(a, chunk);
                link(b, chunk);
            }
            CNode::Load(_, a, _) => link(a, chunk),
            CNode::Store(_, a, v) => {
                link(a, chunk);
                link(v, chunk);
            }
        }
        // Conservative memory ordering.
        if let Some(m) = mem {
            if let Some(&Some(prev)) = chunk.last_mem.get(m as usize) {
                chunk.dfg.add_edge(prev, id);
            }
            set_dense(&mut chunk.last_mem, m as usize, id);
        }
        chunk.payload.push(cn);
        id
    }

    fn chunk_assign(
        &mut self,
        chunk: &mut Chunk,
        place: &HirPlace,
        value: &HirExpr,
    ) -> Result<(), SynthError> {
        let v = self.chunk_expr(chunk, value)?;
        match place {
            HirPlace::Local(id) => chunk.set_cur(*id, v),
            HirPlace::Index { base, index } => {
                let mem = self.st.place_mem(base)?;
                let addr = self.chunk_expr(chunk, index)?;
                self.add_chunk_node(chunk, CNode::Store(mem, addr, v));
            }
            _ => return Err(SynthError::Transform("bad place".to_string())),
        }
        Ok(())
    }

    fn chunk_par(&mut self, chunk: &mut Chunk, branches: &[HirBlock]) -> Result<(), SynthError> {
        let base = chunk.cur.clone();
        let mut merged: Vec<Option<In>> = Vec::new();
        for b in branches {
            chunk.cur = base.clone();
            for stmt in &b.stmts {
                match stmt {
                    HirStmt::Assign { place, value, .. } => {
                        self.chunk_assign(chunk, place, value)?;
                    }
                    HirStmt::Block(inner) => {
                        for s in &inner.stmts {
                            let HirStmt::Assign { place, value, .. } = s else {
                                return Err(SynthError::Unsupported {
                                    backend: "hardwarec",
                                    what: "control flow inside par (straight-line only)"
                                        .to_string(),
                                });
                            };
                            self.chunk_assign(chunk, place, value)?;
                        }
                    }
                    _ => {
                        return Err(SynthError::Unsupported {
                            backend: "hardwarec",
                            what: "control flow inside par (straight-line only)".to_string(),
                        });
                    }
                }
            }
            for (k, v) in chunk.cur.iter().enumerate() {
                if let Some(v) = v {
                    if base.get(k).and_then(Option::as_ref) != Some(v) {
                        set_dense(&mut merged, k, v.clone());
                    }
                }
            }
        }
        chunk.cur = base;
        for (k, v) in merged.into_iter().enumerate() {
            if let Some(v) = v {
                chunk.set_cur(LocalId(k as u32), v);
            }
        }
        Ok(())
    }

    fn chunk_expr(&mut self, chunk: &mut Chunk, e: &HirExpr) -> Result<In, SynthError> {
        let ty = scalar_ty(&e.ty);
        Ok(match &e.kind {
            HirExprKind::Const(v) => In::Const(*v, ty),
            HirExprKind::Load(place) => match &**place {
                HirPlace::Local(id) => match chunk.cur(*id) {
                    Some(cur) => cur.clone(),
                    None => In::Reg(self.st.reg(*id), ty),
                },
                HirPlace::Index { base, index } => {
                    let mem = self.st.place_mem(base)?;
                    let addr = self.chunk_expr(chunk, index)?;
                    In::Node(self.add_chunk_node(chunk, CNode::Load(mem, addr, ty)))
                }
                _ => return Err(SynthError::Transform("bad place".to_string())),
            },
            HirExprKind::Unary(op, a) => {
                let ar = self.chunk_expr(chunk, a)?;
                match op {
                    UnOp::Neg => {
                        In::Node(self.add_chunk_node(chunk, CNode::Un(UnKind::Neg, ar, ty)))
                    }
                    UnOp::Not => {
                        In::Node(self.add_chunk_node(chunk, CNode::Un(UnKind::Not, ar, ty)))
                    }
                    UnOp::LogNot => In::Node(self.add_chunk_node(
                        chunk,
                        CNode::Bin(BinKind::Eq, ar, In::Const(0, IntType::u1()), IntType::u1()),
                    )),
                }
            }
            HirExprKind::Binary(op, a, b) => {
                let ar = self.chunk_expr(chunk, a)?;
                let br = self.chunk_expr(chunk, b)?;
                let kind = BinKind::from(*op);
                let rty = if kind.is_comparison() {
                    IntType::u1()
                } else {
                    ty
                };
                In::Node(self.add_chunk_node(chunk, CNode::Bin(kind, ar, br, rty)))
            }
            HirExprKind::Select(c, t, f) => {
                let (cr, tr, fr) = (
                    self.chunk_expr(chunk, c)?,
                    self.chunk_expr(chunk, t)?,
                    self.chunk_expr(chunk, f)?,
                );
                In::Node(self.add_chunk_node(chunk, CNode::Mux(cr, tr, fr, ty)))
            }
            HirExprKind::Cast(a) => {
                let ar = self.chunk_expr(chunk, a)?;
                In::Node(self.add_chunk_node(chunk, CNode::Cast(ar, ty)))
            }
            HirExprKind::AddrOf(_) => {
                return Err(SynthError::Transform("address-of survived".to_string()));
            }
        })
    }

    // ---- chunk emission ----

    /// Schedules and emits a chunk after `prev`. Returns the last state.
    /// Final local values commit to their registers, in local order so
    /// the state's actions do not follow hash order.
    fn commit_locals(&self, chunk: &mut Chunk) {
        for (i, v) in std::mem::take(&mut chunk.cur).into_iter().enumerate() {
            if let Some(v) = v {
                chunk.commits.push((v, self.st.reg(LocalId(i as u32))));
            }
        }
    }

    fn flush(
        &mut self,
        mut chunk: Chunk,
        prev: StateId,
        budget: Option<u32>,
    ) -> Result<StateId, SynthError> {
        self.commit_locals(&mut chunk);
        let (last, _) = self.emit(chunk, prev, budget, None)?;
        Ok(last)
    }

    /// Like [`flush`], also returning an Rv for `want` readable in the
    /// final state (used for branch conditions).
    fn flush_with_value(
        &mut self,
        mut chunk: Chunk,
        prev: StateId,
        budget: Option<u32>,
        want: In,
    ) -> Result<(StateId, Rv), SynthError> {
        self.commit_locals(&mut chunk);
        let (last, rv) = self.emit(chunk, prev, budget, Some(want))?;
        Ok((last, rv.expect("want produces a value")))
    }

    fn emit(
        &mut self,
        chunk: Chunk,
        prev: StateId,
        budget: Option<u32>,
        want: Option<In>,
    ) -> Result<(StateId, Option<Rv>), SynthError> {
        // Schedule.
        let sched: Schedule = match budget {
            Some(cycles) => {
                let s = force_directed(&chunk.dfg, self.opts.clock_period_ns, cycles);
                let achieved = s
                    .cycle
                    .iter()
                    .zip(&s.duration)
                    .map(|(c, d)| c + d)
                    .max()
                    .unwrap_or(0);
                if achieved > cycles.max(1) {
                    return Err(SynthError::ConstraintInfeasible {
                        requested: cycles,
                        achieved,
                    });
                }
                s
            }
            None => list_schedule(&chunk.dfg, self.opts.clock_period_ns, &self.opts.resources),
        };
        let n_states = sched
            .length
            .max(if chunk.payload.is_empty() && want.is_none() {
                0
            } else {
                1
            }) as usize;
        if n_states == 0 && chunk.commits.is_empty() {
            return Ok((prev, None));
        }
        let n_states = n_states.max(1);
        let states: Vec<StateId> = (0..n_states).map(|_| self.fsmd.add_state()).collect();
        self.fsmd.state_mut(prev).next = NextState::Goto(states[0]);
        for w in states.windows(2) {
            self.fsmd.state_mut(w[0]).next = NextState::Goto(w[1]);
        }
        let last = *states.last().expect("nonempty");

        // Temp registers per node.
        let mut temp_of: Vec<Option<RegId>> = Vec::with_capacity(chunk.payload.len());
        for (ni, cn) in chunk.payload.iter().enumerate() {
            if matches!(cn, CNode::Store(..)) {
                temp_of.push(None);
                continue;
            }
            let ty = self.in_ty(&In::Node(NodeId(ni as u32)), &chunk);
            let r = self.fsmd.add_reg(format!("hc_t{}", self.temp_count), ty, 0);
            self.temp_count += 1;
            temp_of.push(Some(r));
        }

        // Completion cycle per node.
        let end_cycle: Vec<u32> = (0..chunk.payload.len())
            .map(|i| sched.cycle[i] + sched.duration[i] - 1)
            .collect();

        // Rv for an In at a consumer in `cycle`.
        fn in_rv(
            this: &Compiler,
            chunk: &Chunk,
            temp_of: &[Option<RegId>],
            end_cycle: &[u32],
            i: &In,
            cycle: u32,
        ) -> Rv {
            match i {
                In::Const(v, t) => Rv::konst(*v, *t),
                In::Reg(r, t) => Rv::reg(*r, *t),
                In::Node(n) => {
                    if end_cycle[n.0 as usize] == cycle {
                        node_rv(this, chunk, temp_of, end_cycle, *n, cycle)
                    } else {
                        let ty = this.in_ty(i, chunk);
                        Rv::reg(temp_of[n.0 as usize].expect("value node"), ty)
                    }
                }
            }
        }

        fn node_rv(
            this: &Compiler,
            chunk: &Chunk,
            temp_of: &[Option<RegId>],
            end_cycle: &[u32],
            n: NodeId,
            cycle: u32,
        ) -> Rv {
            match &chunk.payload[n.0 as usize] {
                CNode::Bin(op, a, b, t) => Rv {
                    kind: RvKind::Bin(
                        *op,
                        Box::new(in_rv(this, chunk, temp_of, end_cycle, a, cycle)),
                        Box::new(in_rv(this, chunk, temp_of, end_cycle, b, cycle)),
                    ),
                    ty: *t,
                },
                CNode::Un(op, a, t) => Rv {
                    kind: RvKind::Un(
                        *op,
                        Box::new(in_rv(this, chunk, temp_of, end_cycle, a, cycle)),
                    ),
                    ty: *t,
                },
                CNode::Mux(s, a, b, t) => Rv {
                    kind: RvKind::Mux(
                        Box::new(in_rv(this, chunk, temp_of, end_cycle, s, cycle)),
                        Box::new(in_rv(this, chunk, temp_of, end_cycle, a, cycle)),
                        Box::new(in_rv(this, chunk, temp_of, end_cycle, b, cycle)),
                    ),
                    ty: *t,
                },
                CNode::Cast(a, t) => Rv {
                    kind: RvKind::Cast(Box::new(in_rv(this, chunk, temp_of, end_cycle, a, cycle))),
                    ty: *t,
                },
                CNode::Load(m, a, t) => Rv {
                    kind: RvKind::MemRead {
                        mem: *m,
                        addr: Box::new(in_rv(this, chunk, temp_of, end_cycle, a, cycle)),
                    },
                    ty: *t,
                },
                CNode::Store(..) => unreachable!("stores produce no value"),
            }
        }

        // Emit node register writes and stores.
        for (ni, cn) in chunk.payload.iter().enumerate() {
            let n = NodeId(ni as u32);
            let c = end_cycle[ni];
            let st = states[c as usize];
            match cn {
                CNode::Store(m, a, v) => {
                    let addr = in_rv(self, &chunk, &temp_of, &end_cycle, a, c);
                    let val = in_rv(self, &chunk, &temp_of, &end_cycle, v, c);
                    self.fsmd
                        .state_mut(st)
                        .actions
                        .push(Action::write(*m, addr, val));
                }
                _ => {
                    let rv = node_rv(self, &chunk, &temp_of, &end_cycle, n, c);
                    self.fsmd
                        .state_mut(st)
                        .actions
                        .push(Action::set(temp_of[ni].expect("value node"), rv));
                }
            }
        }
        // Commits in the last state (values read from temps or inline if
        // completing in the last cycle).
        let last_cycle = (n_states - 1) as u32;
        let commits = chunk.commits.clone();
        for (src, reg) in commits {
            let rv = in_rv(self, &chunk, &temp_of, &end_cycle, &src, last_cycle);
            self.fsmd.state_mut(last).actions.push(Action::set(reg, rv));
        }
        let want_rv = want.map(|w| in_rv(self, &chunk, &temp_of, &end_cycle, &w, last_cycle));
        Ok((last, want_rv))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chls_frontend::compile_to_hir;
    use chls_sim::fsmd_sim::simulate;
    use chls_sim::interp::ArgValue;

    fn synth_opts(src: &str, entry: &str, opts: &SynthOptions) -> Result<Fsmd, SynthError> {
        let prog = compile_to_hir(src).expect("frontend ok");
        HardwareC
            .synthesize(&Preparer::new(prog), entry, opts)
            .map(|d| match d {
                Design::Fsmd(f) => f,
                _ => panic!("hardwarec must produce an FSMD"),
            })
    }

    fn synth(src: &str, entry: &str) -> Fsmd {
        synth_opts(src, entry, &SynthOptions::default()).expect("synthesis ok")
    }

    #[test]
    fn straight_line_schedules() {
        let f = synth("int f(int a, int b) { return (a + b) * (a - b); }", "f");
        let r = simulate(&f, &[ArgValue::Scalar(7), ArgValue::Scalar(3)], 100).unwrap();
        assert_eq!(r.ret, Some(40));
    }

    #[test]
    fn loop_and_memory() {
        let f = synth(
            "int f(int a[8], int n) {
                int s = 0;
                for (int i = 0; i < n; i++) s = s + a[i];
                return s;
            }",
            "f",
        );
        let r = simulate(
            &f,
            &[ArgValue::Array((1..=8).collect()), ArgValue::Scalar(8)],
            10_000,
        )
        .unwrap();
        assert_eq!(r.ret, Some(36));
    }

    #[test]
    fn constraint_met_when_feasible() {
        // Two independent multiplies in 1 cycle: needs 2 multipliers but
        // is latency-feasible.
        let f = synth(
            "int f(int a, int b, int c, int d) {
                int x = 0;
                int y = 0;
                #pragma constraint 1
                { x = a * b; y = c * d; }
                return x + y;
            }",
            "f",
        );
        let r = simulate(
            &f,
            &[
                ArgValue::Scalar(2),
                ArgValue::Scalar(3),
                ArgValue::Scalar(4),
                ArgValue::Scalar(5),
            ],
            100,
        )
        .unwrap();
        assert_eq!(r.ret, Some(26));
    }

    #[test]
    fn infeasible_constraint_reported() {
        // A chain of 3 dependent multiplies cannot fit 1 cycle at a short
        // clock period.
        let err = synth_opts(
            "int f(int a) {
                int x = 0;
                #pragma constraint 1
                { x = a * a; x = x * a; x = x * a; }
                return x;
            }",
            "f",
            &SynthOptions {
                clock_period_ns: 0.9,
                ..Default::default()
            },
        )
        .unwrap_err();
        match err {
            SynthError::ConstraintInfeasible {
                requested,
                achieved,
            } => {
                assert_eq!(requested, 1);
                assert!(achieved >= 3, "achieved {achieved}");
            }
            other => panic!("expected infeasible, got {other}"),
        }
    }

    #[test]
    fn par_merges_into_one_chunk() {
        let f = synth(
            "int f(int a, int b) {
                int x = 0;
                int y = 0;
                par { x = a * 2; y = b * 3; }
                return x + y;
            }",
            "f",
        );
        let r = simulate(&f, &[ArgValue::Scalar(5), ArgValue::Scalar(7)], 100).unwrap();
        assert_eq!(r.ret, Some(31));
    }

    #[test]
    fn par_with_control_rejected() {
        let prog = compile_to_hir(
            "int f(int a) {
                int x = 0;
                par {
                    { while (x < a) { x = x + 1; } }
                    x = 2;
                }
                return x;
            }",
        )
        .unwrap();
        let err = HardwareC
            .synthesize(&Preparer::new(prog), "f", &SynthOptions::default())
            .unwrap_err();
        assert!(matches!(err, SynthError::Unsupported { .. }), "{err}");
    }

    #[test]
    fn constraint_dse_latency_vs_resources() {
        // The same four multiplies under different budgets: tighter budget
        // -> more multipliers (the HardwareC design-space exploration).
        let src = |budget: u32| {
            format!(
                "int f(int a, int b, int c, int d) {{
                    int x = 0;
                    int y = 0;
                    int z = 0;
                    int w = 0;
                    #pragma constraint {budget}
                    {{ x = a * a; y = b * b; z = c * c; w = d * d; }}
                    return x + y + z + w;
                }}"
            )
        };
        let tight = synth(&src(1), "f");
        let relaxed = synth(&src(4), "f");
        let m = chls_rtl::CostModel::new();
        let mul_tight = tight
            .fu_requirements()
            .iter()
            .filter(|((c, _), _)| *c == OpClass::Mul)
            .map(|(_, n)| *n)
            .max()
            .unwrap_or(0);
        let mul_relaxed = relaxed
            .fu_requirements()
            .iter()
            .filter(|((c, _), _)| *c == OpClass::Mul)
            .map(|(_, n)| *n)
            .max()
            .unwrap_or(0);
        assert!(
            mul_tight > mul_relaxed,
            "tight {mul_tight} vs relaxed {mul_relaxed}"
        );
        let _ = m;
        // Both still compute correctly.
        let args = [
            ArgValue::Scalar(1),
            ArgValue::Scalar(2),
            ArgValue::Scalar(3),
            ArgValue::Scalar(4),
        ];
        assert_eq!(simulate(&tight, &args, 100).unwrap().ret, Some(30));
        assert_eq!(simulate(&relaxed, &args, 100).unwrap().ret, Some(30));
    }

    #[test]
    fn gcd_conformance() {
        let f = synth(
            "int f(int a, int b) { while (b != 0) { int t = b; b = a % b; a = t; } return a; }",
            "f",
        );
        let r = simulate(&f, &[ArgValue::Scalar(48), ArgValue::Scalar(36)], 10_000).unwrap();
        assert_eq!(r.ret, Some(12));
    }

    #[test]
    fn nested_ifs() {
        let f = synth(
            "int f(int x) {
                int r = 0;
                if (x > 10) { if (x > 100) { r = 3; } else { r = 2; } } else { r = 1; }
                return r;
            }",
            "f",
        );
        assert_eq!(
            simulate(&f, &[ArgValue::Scalar(5)], 100).unwrap().ret,
            Some(1)
        );
        assert_eq!(
            simulate(&f, &[ArgValue::Scalar(50)], 100).unwrap().ret,
            Some(2)
        );
        assert_eq!(
            simulate(&f, &[ArgValue::Scalar(500)], 100).unwrap().ret,
            Some(3)
        );
    }

    #[test]
    fn info_row() {
        let info = HardwareC.info();
        assert_eq!(info.timing, TimingModel::ConstraintDriven);
        assert_eq!(info.year, 1990);
    }
}

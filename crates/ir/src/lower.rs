//! Lowering from HIR to CFG SSA IR.
//!
//! SSA is constructed directly during lowering using the algorithm of
//! Braun et al. (CC 2013): local variable definitions are tracked per
//! block, reads recurse through predecessors, and phis are created lazily
//! at join points (with incomplete phis for blocks whose predecessors are
//! not all known yet, i.e. loop headers). Trivial phis are removed in a
//! fixpoint cleanup afterwards.
//!
//! The input HIR must already be *sequential and pointer-free*:
//!
//! * function calls must have been inlined (`chls-opt`'s inliner);
//! * pointers must have been resolved away (`chls-opt`'s pointer lowering);
//! * `par`, channels, and `delay` are rejected — the compiler-scheduled
//!   backends that consume this IR (Cones, Transmogrifier C, C2Verilog,
//!   CASH) accept only sequential C, exactly as the paper describes.
//!
//! HardwareC-style `#pragma constraint` blocks are transparent here
//! (C2Verilog keeps timing constraints outside the language); the
//! constraint-driven backend works from HIR instead.

use crate::ir::*;
use crate::FastMap;
use chls_frontend::ast::UnOp;
use chls_frontend::hir::*;
use chls_frontend::{IntType, Span, Type};
use std::fmt;

/// Errors produced when HIR cannot be lowered to sequential IR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// The function still contains calls; run the inliner first.
    NeedsInlining(String),
    /// The function still contains pointer operations; run pointer lowering.
    NeedsPointerLowering,
    /// `par`/channels/`delay` are not sequential C.
    Concurrency(&'static str),
    /// A type with no IR representation (e.g. channel parameter).
    BadType(String),
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::NeedsInlining(name) => {
                write!(
                    f,
                    "call to `{name}` survives; inline functions before lowering"
                )
            }
            LowerError::NeedsPointerLowering => {
                write!(
                    f,
                    "pointer operations survive; resolve pointers before lowering"
                )
            }
            LowerError::Concurrency(what) => {
                write!(
                    f,
                    "`{what}` is not sequential C; this backend cannot accept it"
                )
            }
            LowerError::BadType(t) => write!(f, "type `{t}` has no IR representation"),
        }
    }
}

impl std::error::Error for LowerError {}

/// Converts a scalar HIR type to an IR integer type.
fn ir_ty(ty: &Type) -> Result<IntType, LowerError> {
    match ty {
        Type::Bool => Ok(IntType::new(1, false)),
        Type::Int(it) => Ok(*it),
        other => Err(LowerError::BadType(other.to_string())),
    }
}

/// Lowers one HIR function to SSA IR.
///
/// # Errors
///
/// See [`LowerError`]; the input must be sequential, call-free, and
/// pointer-free.
pub fn lower_function(prog: &HirProgram, func: FuncId) -> Result<Function, LowerError> {
    let hf = prog.func(func);
    let mut lw = Lower::new(prog, hf)?;
    lw.run()?;
    let mut f = lw.finish();
    remove_trivial_phis(&mut f);
    Ok(f)
}

/// What a HIR local maps to in the IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// A scalar tracked by SSA construction.
    Scalar(IntType),
    /// An array backed by a memory.
    Mem(MemId),
}

struct Lower<'a> {
    prog: &'a HirProgram,
    hf: &'a HirFunc,
    f: Function,
    cur: BlockId,
    /// Per-block SSA definitions of scalar locals.
    defs: Vec<FastMap<LocalId, Value>>,
    sealed: Vec<bool>,
    /// Per unsealed block, its incomplete phis in creation (= value)
    /// order. A local gets at most one: its phi becomes the block's
    /// definition, which later reads find first.
    incomplete: Vec<Vec<(LocalId, Value)>>,
    /// Known predecessors, maintained incrementally during construction.
    preds: Vec<Vec<BlockId>>,
    /// What each local maps to, indexed by [`LocalId`].
    slots: Vec<Slot>,
    global_mems: FastMap<GlobalId, MemId>,
    /// (continue target, break target) stack.
    loop_stack: Vec<(BlockId, BlockId)>,
    /// Set when the current block already terminated (return/break).
    done: bool,
    /// Span of the statement being lowered; stamped onto emitted
    /// instructions ([`Span::dummy`] inside spanless statements).
    cur_span: Span,
}

impl<'a> Lower<'a> {
    fn new(prog: &'a HirProgram, hf: &'a HirFunc) -> Result<Self, LowerError> {
        let mut f = Function::new(hf.name.clone());
        f.ret_ty = match &hf.ret_ty {
            Type::Void => None,
            other => Some(ir_ty(other)?),
        };
        let entry = f.entry;
        let mut lw = Lower {
            prog,
            hf,
            f,
            cur: entry,
            defs: vec![FastMap::default()],
            sealed: vec![true],
            incomplete: vec![Vec::new()],
            preds: vec![Vec::new()],
            slots: Vec::with_capacity(hf.locals.len()),
            global_mems: FastMap::default(),
            loop_stack: Vec::new(),
            done: false,
            cur_span: Span::dummy(),
        };

        // Declare every local: scalars become SSA variables, arrays become
        // memories. Parameters additionally get Param instructions or
        // parameter-bound memories.
        for (i, local) in hf.locals.iter().enumerate() {
            let id = LocalId(i as u32);
            match &local.ty {
                Type::Bool | Type::Int(_) => {
                    let ty = ir_ty(&local.ty)?;
                    lw.slots.push(Slot::Scalar(ty));
                    lw.f.param_tys.push(ty);
                    if local.is_param {
                        let v = lw.f.add_inst(entry, InstKind::Param(i), ty);
                        lw.write_var(id, entry, v);
                    } else {
                        lw.f.param_tys.pop();
                    }
                }
                Type::Array(elem, len) => {
                    let elem_ty = ir_ty(elem)?;
                    let source = if local.is_param {
                        MemSource::Param(i)
                    } else if local.rom.is_some() {
                        MemSource::Rom
                    } else {
                        MemSource::Local
                    };
                    let mem = lw.f.add_mem(MemInfo {
                        name: local.name.clone(),
                        elem: elem_ty,
                        len: *len,
                        rom: local.rom.clone(),
                        bank: local.bank,
                        source,
                    });
                    lw.slots.push(Slot::Mem(mem));
                    if local.is_param {
                        lw.f.param_tys.push(elem_ty);
                    }
                }
                Type::Ptr(_) => return Err(LowerError::NeedsPointerLowering),
                Type::Chan(_) => return Err(LowerError::Concurrency("chan")),
                Type::Void => {
                    return Err(LowerError::BadType("void local".to_string()));
                }
            }
        }
        Ok(lw)
    }

    fn run(&mut self) -> Result<(), LowerError> {
        let hf = self.hf;
        self.lower_block_stmts(&hf.body)?;
        if !self.done {
            // Implicit return at the end of a void function.
            self.f.block_mut(self.cur).term = Term::Ret(None);
        }
        Ok(())
    }

    fn finish(self) -> Function {
        self.f
    }

    // ----- block / SSA plumbing -----

    fn new_block(&mut self) -> BlockId {
        let b = self.f.add_block();
        self.defs.push(FastMap::default());
        self.sealed.push(false);
        self.incomplete.push(Vec::new());
        self.preds.push(Vec::new());
        b
    }

    fn add_edge(&mut self, from: BlockId, to: BlockId) {
        self.preds[to.0 as usize].push(from);
    }

    fn jump(&mut self, to: BlockId) {
        if !self.done {
            self.f.block_mut(self.cur).term = Term::Jump(to);
            self.add_edge(self.cur, to);
        }
    }

    fn branch(&mut self, cond: Value, then: BlockId, els: BlockId) {
        self.f.block_mut(self.cur).term = Term::Br { cond, then, els };
        self.add_edge(self.cur, then);
        self.add_edge(self.cur, els);
    }

    fn seal(&mut self, b: BlockId) {
        if self.sealed[b.0 as usize] {
            return;
        }
        self.sealed[b.0 as usize] = true;
        // Filling a phi can create values; fill in phi order so
        // numbering is reproducible.
        let pending = std::mem::take(&mut self.incomplete[b.0 as usize]);
        for (var, phi) in pending {
            self.fill_phi(var, b, phi);
        }
    }

    fn write_var(&mut self, var: LocalId, block: BlockId, value: Value) {
        self.defs[block.0 as usize].insert(var, value);
    }

    fn read_var(&mut self, var: LocalId, block: BlockId) -> Value {
        if let Some(&v) = self.defs[block.0 as usize].get(&var) {
            return v;
        }
        let ty = match self.slots[var.0 as usize] {
            Slot::Scalar(t) => t,
            Slot::Mem(_) => unreachable!("arrays are not SSA variables"),
        };
        let v = if !self.sealed[block.0 as usize] {
            let phi = self.f.add_phi(block, ty);
            self.incomplete[block.0 as usize].push((var, phi));
            phi
        } else if self.preds[block.0 as usize].len() == 1 {
            let p = self.preds[block.0 as usize][0];
            self.read_var(var, p)
        } else if self.preds[block.0 as usize].is_empty() {
            // Read of an uninitialized variable (e.g. entry): defined zero.
            self.f.add_inst(block, InstKind::Const(0), ty)
        } else {
            let phi = self.f.add_phi(block, ty);
            self.write_var(var, block, phi);
            self.fill_phi(var, block, phi);
            phi
        };
        self.write_var(var, block, v);
        v
    }

    fn fill_phi(&mut self, var: LocalId, block: BlockId, phi: Value) {
        let preds = self.preds[block.0 as usize].clone();
        let mut args = Vec::with_capacity(preds.len());
        for p in preds {
            let v = self.read_var(var, p);
            args.push((p, v));
        }
        match &mut self.f.inst_mut(phi).kind {
            InstKind::Phi(slots) => *slots = args,
            _ => unreachable!("fill_phi on a non-phi"),
        }
    }

    // ----- statement lowering -----

    fn lower_block_stmts(&mut self, block: &HirBlock) -> Result<(), LowerError> {
        for stmt in &block.stmts {
            if self.done {
                break; // unreachable code after return/break/continue
            }
            self.lower_stmt(stmt)?;
        }
        Ok(())
    }

    /// Emits an instruction in the current block carrying the current
    /// statement's source span.
    fn emit(&mut self, kind: InstKind, ty: IntType) -> Value {
        let v = self.f.add_inst(self.cur, kind, ty);
        self.f.set_span(v, self.cur_span);
        v
    }

    fn lower_stmt(&mut self, stmt: &HirStmt) -> Result<(), LowerError> {
        self.cur_span = match stmt {
            HirStmt::Assign { span, .. }
            | HirStmt::Call { span, .. }
            | HirStmt::Recv { span, .. }
            | HirStmt::Send { span, .. } => *span,
            _ => Span::dummy(),
        };
        match stmt {
            HirStmt::Assign { place, value, .. } => {
                let v = self.lower_expr(value)?;
                self.store_place(place, v)
            }
            HirStmt::Call { func, .. } => Err(LowerError::NeedsInlining(
                self.prog.func(*func).name.clone(),
            )),
            HirStmt::Recv { .. } => Err(LowerError::Concurrency("recv")),
            HirStmt::Send { .. } => Err(LowerError::Concurrency("send")),
            HirStmt::Par(_) => Err(LowerError::Concurrency("par")),
            HirStmt::Delay => Err(LowerError::Concurrency("delay")),
            HirStmt::If { cond, then, els } => {
                let c = self.lower_expr(cond)?;
                let then_b = self.new_block();
                let else_b = self.new_block();
                let join = self.new_block();
                self.branch(c, then_b, else_b);
                self.seal(then_b);
                self.seal(else_b);

                self.cur = then_b;
                self.done = false;
                self.lower_block_stmts(then)?;
                let then_done = self.done;
                self.jump(join);

                self.cur = else_b;
                self.done = false;
                self.lower_block_stmts(els)?;
                let else_done = self.done;
                self.jump(join);

                self.seal(join);
                self.cur = join;
                self.done = then_done && else_done;
                if self.done {
                    // Join is unreachable; terminate it for well-formedness.
                    self.f.block_mut(join).term = Term::Ret(self.zero_ret());
                }
                Ok(())
            }
            HirStmt::While { cond, body, .. } => {
                let header = self.new_block();
                let body_b = self.new_block();
                let exit = self.new_block();
                self.jump(header);
                self.cur = header;
                let c = self.lower_expr(cond)?;
                self.branch(c, body_b, exit);
                self.seal(body_b);

                self.loop_stack.push((header, exit));
                self.cur = body_b;
                self.done = false;
                self.lower_block_stmts(body)?;
                self.jump(header);
                self.loop_stack.pop();

                self.seal(header);
                self.seal(exit);
                self.cur = exit;
                self.done = false;
                Ok(())
            }
            HirStmt::DoWhile { body, cond } => {
                let body_b = self.new_block();
                let cond_b = self.new_block();
                let exit = self.new_block();
                self.jump(body_b);

                self.loop_stack.push((cond_b, exit));
                self.cur = body_b;
                self.done = false;
                self.lower_block_stmts(body)?;
                self.jump(cond_b);
                self.loop_stack.pop();

                self.seal(cond_b);
                self.cur = cond_b;
                self.done = false;
                let c = self.lower_expr(cond)?;
                self.branch(c, body_b, exit);
                self.seal(body_b);
                self.seal(exit);
                self.cur = exit;
                Ok(())
            }
            HirStmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                self.lower_block_stmts(init)?;
                let header = self.new_block();
                let body_b = self.new_block();
                let step_b = self.new_block();
                let exit = self.new_block();
                self.jump(header);
                self.cur = header;
                let c = self.lower_expr(cond)?;
                self.branch(c, body_b, exit);
                self.seal(body_b);

                self.loop_stack.push((step_b, exit));
                self.cur = body_b;
                self.done = false;
                self.lower_block_stmts(body)?;
                self.jump(step_b);
                self.loop_stack.pop();

                self.seal(step_b);
                self.cur = step_b;
                self.done = false;
                self.lower_block_stmts(step)?;
                self.jump(header);
                self.seal(header);
                self.seal(exit);
                self.cur = exit;
                self.done = false;
                Ok(())
            }
            HirStmt::Return(value) => {
                let v = match value {
                    Some(e) => Some(self.lower_expr(e)?),
                    None => None,
                };
                self.f.block_mut(self.cur).term = Term::Ret(v);
                self.done = true;
                Ok(())
            }
            HirStmt::Break => {
                let (_, exit) = *self.loop_stack.last().expect("sema checked loop depth");
                self.jump(exit);
                self.done = true;
                Ok(())
            }
            HirStmt::Continue => {
                let (cont, _) = *self.loop_stack.last().expect("sema checked loop depth");
                self.jump(cont);
                self.done = true;
                Ok(())
            }
            HirStmt::Block(b) => self.lower_block_stmts(b),
            HirStmt::Constraint { body, .. } => {
                // Timing constraints are external to this IR (C2Verilog
                // keeps them outside the language); lower the body inline.
                self.lower_block_stmts(body)
            }
        }
    }

    fn zero_ret(&mut self) -> Option<Value> {
        self.f
            .ret_ty
            .map(|ty| self.f.add_inst(self.cur, InstKind::Const(0), ty))
    }

    // ----- place handling -----

    fn store_place(&mut self, place: &HirPlace, value: Value) -> Result<(), LowerError> {
        match place {
            HirPlace::Local(id) => match self.slots[id.0 as usize] {
                Slot::Scalar(_) => {
                    self.write_var(*id, self.cur, value);
                    Ok(())
                }
                Slot::Mem(_) => Err(LowerError::BadType("assignment to array".to_string())),
            },
            HirPlace::Index { base, index } => {
                let mem = self.place_mem(base)?;
                let addr = self.lower_expr(index)?;
                let elem = self.f.mem(mem).elem;
                self.emit(InstKind::Store { mem, addr, value }, elem);
                Ok(())
            }
            HirPlace::Global(_) => Err(LowerError::BadType("store to ROM".to_string())),
            HirPlace::Deref(_) => Err(LowerError::NeedsPointerLowering),
        }
    }

    fn place_mem(&mut self, place: &HirPlace) -> Result<MemId, LowerError> {
        match place {
            HirPlace::Local(id) => match self.slots[id.0 as usize] {
                Slot::Mem(m) => Ok(m),
                Slot::Scalar(_) => Err(LowerError::BadType("indexing a scalar".to_string())),
            },
            HirPlace::Global(gid) => {
                if let Some(&m) = self.global_mems.get(gid) {
                    return Ok(m);
                }
                let g = self.prog.global(*gid);
                let elem = match &g.ty {
                    Type::Array(elem, _) => ir_ty(elem)?,
                    other => return Err(LowerError::BadType(other.to_string())),
                };
                let m = self.f.add_mem(MemInfo {
                    name: g.name.clone(),
                    elem,
                    len: g.values.len(),
                    rom: Some(g.values.clone()),
                    bank: g.bank,
                    source: MemSource::Rom,
                });
                self.global_mems.insert(*gid, m);
                Ok(m)
            }
            _ => Err(LowerError::NeedsPointerLowering),
        }
    }

    // ----- expression lowering -----

    fn lower_expr(&mut self, e: &HirExpr) -> Result<Value, LowerError> {
        let ty = ir_ty(&e.ty)?;
        match &e.kind {
            HirExprKind::Const(v) => Ok(self.emit(InstKind::Const(*v), ty)),
            HirExprKind::Load(place) => self.load_place(place, ty),
            HirExprKind::Unary(op, a) => {
                let av = self.lower_expr(a)?;
                match op {
                    UnOp::Neg => Ok(self.emit(InstKind::Un(UnKind::Neg, av), ty)),
                    UnOp::Not => Ok(self.emit(InstKind::Un(UnKind::Not, av), ty)),
                    // !x on a bool is x == 0.
                    UnOp::LogNot => {
                        let zero = self.emit(InstKind::Const(0), ty);
                        Ok(self.emit(InstKind::Bin(BinKind::Eq, av, zero), ty))
                    }
                }
            }
            HirExprKind::Binary(op, a, b) => {
                let av = self.lower_expr(a)?;
                let bv = self.lower_expr(b)?;
                let kind = BinKind::from(*op);
                // Comparison results are u1; their operand type (needed for
                // signedness and width) is recovered from the operand
                // instructions by every consumer.
                Ok(self.emit(InstKind::Bin(kind, av, bv), ty))
            }
            HirExprKind::Select(c, t, f) => {
                let cv = self.lower_expr(c)?;
                let tv = self.lower_expr(t)?;
                let fv = self.lower_expr(f)?;
                Ok(self.emit(
                    InstKind::Select {
                        cond: cv,
                        t: tv,
                        f: fv,
                    },
                    ty,
                ))
            }
            HirExprKind::Cast(inner) => {
                let from = ir_ty(&inner.ty)?;
                let v = self.lower_expr(inner)?;
                Ok(self.emit(InstKind::Cast { from, val: v }, ty))
            }
            HirExprKind::AddrOf(_) => Err(LowerError::NeedsPointerLowering),
        }
    }

    fn load_place(&mut self, place: &HirPlace, ty: IntType) -> Result<Value, LowerError> {
        match place {
            HirPlace::Local(id) => match self.slots[id.0 as usize] {
                Slot::Scalar(_) => Ok(self.read_var(*id, self.cur)),
                Slot::Mem(_) => Err(LowerError::BadType("array used as a value".to_string())),
            },
            HirPlace::Index { base, index } => {
                let mem = self.place_mem(base)?;
                let addr = self.lower_expr(index)?;
                Ok(self.emit(InstKind::Load { mem, addr }, ty))
            }
            HirPlace::Global(_) => Err(LowerError::BadType("ROM used as a value".to_string())),
            HirPlace::Deref(_) => Err(LowerError::NeedsPointerLowering),
        }
    }
}

/// Removes phis whose incoming values are all identical (or the phi
/// itself), iterating to a fixpoint, then rewrites all uses.
pub fn remove_trivial_phis(f: &mut Function) {
    let mut fwd = Forwarding::new(f);
    loop {
        let mut changed = false;
        for i in 0..f.insts.len() {
            let v = Value(i as u32);
            if fwd.is_forwarded(v) {
                continue;
            }
            let InstKind::Phi(args) = &f.insts[i].kind else {
                continue;
            };
            let mut unique: Option<Value> = None;
            let mut trivial = true;
            for (_, a) in args.iter().copied() {
                let a = fwd.resolve(a);
                if a == v {
                    continue;
                }
                match unique {
                    None => unique = Some(a),
                    Some(u) if u == a => {}
                    Some(_) => {
                        trivial = false;
                        break;
                    }
                }
            }
            if trivial {
                if let Some(u) = unique {
                    fwd.forward(v, u);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    if fwd.apply(f) {
        for block in &mut f.blocks {
            block.insts.retain(|&v| !fwd.is_forwarded(v));
        }
    }
    f.compact();
}

#[cfg(test)]
mod tests {
    use super::*;
    use chls_frontend::compile_to_hir;

    fn lower_src(src: &str, name: &str) -> Function {
        let hir = compile_to_hir(src).expect("frontend ok");
        let (id, _) = hir.func_by_name(name).expect("function exists");
        lower_function(&hir, id).expect("lowering ok")
    }

    #[test]
    fn straight_line_lowered() {
        let f = lower_src("int f(int a, int b) { return a + b * 2; }", "f");
        assert_eq!(f.blocks.len(), 1);
        let text = f.to_string();
        assert!(text.contains("mul"), "{text}");
        assert!(text.contains("add"), "{text}");
        assert!(text.contains("ret"), "{text}");
    }

    #[test]
    fn if_produces_phi() {
        let f = lower_src(
            "int f(int a) { int x = 0; if (a > 0) { x = 1; } else { x = 2; } return x; }",
            "f",
        );
        let phis = f
            .insts
            .iter()
            .filter(|i| matches!(i.kind, InstKind::Phi(_)))
            .count();
        assert_eq!(phis, 1, "{f}");
    }

    #[test]
    fn loop_produces_header_phis() {
        let f = lower_src(
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }",
            "f",
        );
        // Header needs phis for both s and i.
        let phis = f
            .insts
            .iter()
            .filter(|i| matches!(i.kind, InstKind::Phi(_)))
            .count();
        assert_eq!(phis, 2, "{f}");
    }

    #[test]
    fn unmodified_var_has_no_phi() {
        let f = lower_src(
            "int f(int n, int k) { int s = 0; while (s < n) { s += k; } return s; }",
            "f",
        );
        // k and n are loop-invariant; only s gets a phi.
        let phis = f
            .insts
            .iter()
            .filter(|i| matches!(i.kind, InstKind::Phi(_)))
            .count();
        assert_eq!(phis, 1, "{f}");
    }

    #[test]
    fn arrays_become_memories() {
        let f = lower_src("int f(int a[4]) { a[0] = 5; return a[0] + a[1]; }", "f");
        assert_eq!(f.mems.len(), 1);
        assert_eq!(f.mems[0].len, 4);
        assert_eq!(f.mems[0].source, MemSource::Param(0));
        let loads = f
            .insts
            .iter()
            .filter(|i| matches!(i.kind, InstKind::Load { .. }))
            .count();
        let stores = f
            .insts
            .iter()
            .filter(|i| matches!(i.kind, InstKind::Store { .. }))
            .count();
        assert_eq!((loads, stores), (2, 1));
    }

    #[test]
    fn rom_global_becomes_rom_mem() {
        let f = lower_src(
            "const int t[4] = {10, 20, 30, 40}; int f(int i) { return t[i]; }",
            "f",
        );
        assert_eq!(f.mems.len(), 1);
        assert_eq!(f.mems[0].rom.as_deref(), Some(&[10, 20, 30, 40][..]));
        assert_eq!(f.mems[0].source, MemSource::Rom);
    }

    #[test]
    fn break_and_continue_lower() {
        let f = lower_src(
            "int f(int n) {
                int s = 0;
                for (int i = 0; i < n; i++) {
                    if (i == 3) continue;
                    if (i == 7) break;
                    s += i;
                }
                return s;
            }",
            "f",
        );
        // Sanity: multiple blocks, one return path reachable.
        assert!(f.blocks.len() >= 6, "{f}");
    }

    #[test]
    fn do_while_lowered() {
        let f = lower_src(
            "int f(int n) { int i = 0; do { i++; } while (i < n); return i; }",
            "f",
        );
        let phis = f
            .insts
            .iter()
            .filter(|i| matches!(i.kind, InstKind::Phi(_)))
            .count();
        assert_eq!(phis, 1, "{f}");
    }

    #[test]
    fn early_return_in_branch() {
        let f = lower_src("int f(int a) { if (a > 0) { return 1; } return 2; }", "f");
        let rets = f
            .blocks
            .iter()
            .filter(|b| matches!(b.term, Term::Ret(Some(_))))
            .count();
        assert!(rets >= 2, "{f}");
    }

    #[test]
    fn par_is_rejected() {
        let hir = compile_to_hir("void f() { par { delay; delay; } }").unwrap();
        let (id, _) = hir.func_by_name("f").unwrap();
        let err = lower_function(&hir, id).unwrap_err();
        assert!(matches!(err, LowerError::Concurrency(_)));
    }

    #[test]
    fn calls_are_rejected_without_inlining() {
        let hir = compile_to_hir(
            "int g(int x) { return x; }
             int f(int a) { return g(a); }",
        )
        .unwrap();
        let (id, _) = hir.func_by_name("f").unwrap();
        let err = lower_function(&hir, id).unwrap_err();
        assert!(matches!(err, LowerError::NeedsInlining(_)));
    }

    #[test]
    fn pointers_are_rejected_without_lowering() {
        let hir = compile_to_hir("int f() { int x = 1; int *p = &x; return *p; }").unwrap();
        let (id, _) = hir.func_by_name("f").unwrap();
        let err = lower_function(&hir, id).unwrap_err();
        assert_eq!(err, LowerError::NeedsPointerLowering);
    }

    #[test]
    fn constraint_block_is_transparent() {
        let f = lower_src(
            "int f(int a, int b) {
                int x = 0;
                #pragma constraint 2
                { x = a + b; x = x * 2; }
                return x;
            }",
            "f",
        );
        assert!(f.to_string().contains("mul"));
    }

    #[test]
    fn trivial_phi_removed() {
        // x is assigned the same value on both branches via no reassignment;
        // the join must not keep a phi for it.
        let f = lower_src(
            "int f(int a, int b) {
                int x = b;
                if (a > 0) { a = 1; } else { a = 2; }
                return x + a;
            }",
            "f",
        );
        let phis = f
            .insts
            .iter()
            .filter(|i| matches!(i.kind, InstKind::Phi(_)))
            .count();
        // Only `a` needs a phi; `x` must not.
        assert_eq!(phis, 1, "{f}");
    }
}

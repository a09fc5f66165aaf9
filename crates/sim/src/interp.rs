//! The golden-model interpreter for CHL programs.
//!
//! Walks the typed HIR directly (no inlining, no pointer lowering, no
//! scheduling), so it is independent of every transformation the synthesis
//! backends perform — which is what makes it a useful reference. Every
//! backend's simulated hardware is checked against this interpreter.
//!
//! Concurrency: `par` branches run on real threads; channels are
//! rendezvous (CSP): `send` blocks until a matching `recv` arrives and vice
//! versa. Programs whose `par` branches race on shared variables have
//! nondeterministic results here exactly as they would in hardware; the
//! conformance suite only uses race-free programs.
//!
//! All channels share one `ChanMonitor`, so the last thread to block
//! can see that every live process is now waiting on a channel and
//! declare a first-class [`InterpError::Deadlock`] (naming each blocked
//! process/channel/direction) instead of hanging the scope forever.
//!
//! Arithmetic semantics are shared with the IR executor through
//! [`chls_ir::eval_bin`], so the two golden models cannot drift apart.

use chls_frontend::ast::{BinOp, UnOp};
use chls_frontend::hir::*;
use chls_frontend::{IntType, Type};
use chls_ir::{eval_bin, eval_un, BinKind};
use chls_rtl::fsmd::{BlockedOp, ChanDir};
use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

pub use chls_ir::exec::ArgValue;

/// Interpreter errors.
#[derive(Debug, Clone, PartialEq)]
pub enum InterpError {
    /// Array index out of range.
    OutOfBounds {
        /// Array name.
        name: String,
        /// Offending index.
        index: i64,
        /// Length.
        len: usize,
    },
    /// The step limit was exceeded.
    StepLimit(u64),
    /// Wrong argument count or kind at the entry function.
    BadArgument(usize),
    /// `return` inside `par` is not supported.
    ReturnInPar,
    /// A null/dangling pointer operation (should be impossible for
    /// type-checked programs).
    BadPointer,
    /// Entry function not found.
    NoSuchFunction(String),
    /// A `par` branch panicked or deadlocked.
    ParFailure(String),
    /// The process network can never make progress: every live process
    /// is blocked on an unmatched rendezvous.
    Deadlock {
        /// Every blocked (process, channel, direction) endpoint.
        blocked: Vec<BlockedOp>,
    },
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::OutOfBounds { name, index, len } => {
                write!(f, "index {index} out of bounds for `{name}` (len {len})")
            }
            InterpError::StepLimit(n) => write!(f, "exceeded step limit of {n}"),
            InterpError::BadArgument(i) => write!(f, "missing or mistyped argument {i}"),
            InterpError::ReturnInPar => write!(f, "`return` inside `par` is not synthesizable"),
            InterpError::BadPointer => write!(f, "invalid pointer operation"),
            InterpError::NoSuchFunction(n) => write!(f, "no function named `{n}`"),
            InterpError::ParFailure(m) => write!(f, "par branch failed: {m}"),
            InterpError::Deadlock { blocked } => {
                write!(f, "deadlock: ")?;
                let parts: Vec<String> = blocked
                    .iter()
                    .map(|b| format!("{} blocked on {}({})", b.process, b.dir, b.channel))
                    .collect();
                write!(f, "{}", parts.join(", "))
            }
        }
    }
}

impl std::error::Error for InterpError {}

/// Result of interpreting a program.
#[derive(Debug, Clone, PartialEq)]
pub struct InterpResult {
    /// Return value of the entry function.
    pub ret: Option<i64>,
    /// Final contents of array arguments, by parameter index.
    pub arrays: Vec<(usize, Vec<i64>)>,
    /// Number of statements executed.
    pub steps: u64,
}

/// How `par` arms are scheduled.
///
/// The C-like-language problem the paper dwells on: a program whose
/// `par` arms race on shared state has no single meaning, and different
/// (all legal) schedules give different answers. The non-default orders
/// exist to *demonstrate* that divergence deterministically — a
/// lint-clean program must compute the same result under all three.
/// Sequential orders cannot perform a rendezvous (one arm would block
/// forever waiting for a sibling that never runs), so programs using
/// channels inside `par` must use [`ParOrder::Concurrent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParOrder {
    /// One thread per arm; rendezvous channels synchronize (default).
    #[default]
    Concurrent,
    /// Run arms to completion left-to-right on one thread.
    Sequential,
    /// Run arms to completion right-to-left on one thread.
    Reversed,
}

/// Interpreter options.
#[derive(Debug, Clone)]
pub struct InterpOptions {
    /// Abort after this many executed statements.
    pub step_limit: u64,
    /// `par` arm scheduling.
    pub par_order: ParOrder,
}

impl Default for InterpOptions {
    fn default() -> Self {
        InterpOptions {
            step_limit: 50_000_000,
            par_order: ParOrder::Concurrent,
        }
    }
}

// ----- runtime values and storage -----

/// Storage for one local.
#[derive(Debug)]
enum SlotVal {
    Scalar(i64),
    Array(Vec<i64>),
}

type Slot = Arc<Mutex<SlotVal>>;

/// A runtime value: an integer or a pointer (slot + element offset).
#[derive(Clone)]
enum V {
    Int(i64),
    Ptr { slot: Slot, offset: i64 },
}

impl V {
    fn as_int(&self) -> i64 {
        match self {
            V::Int(v) => *v,
            // A pointer compared against 0 is "non-null".
            V::Ptr { .. } => 1,
        }
    }
}

thread_local! {
    /// Human-readable label of the current process: `main` outside any
    /// `par`, else the arm's position in the `par` nest (`arm 1`,
    /// `arm 1.2`) — matching the labels the handelc backend records in
    /// its stuck-state annotations.
    static PROC_LABEL: RefCell<String> = RefCell::new(String::from("main"));
}

fn current_process() -> String {
    PROC_LABEL.with(|l| l.borrow().clone())
}

/// One rendezvous cell.
#[derive(Debug, Default)]
struct ChanSt {
    /// A sender's value waiting for a receiver.
    value: Option<i64>,
    /// Set by the receiver once it has taken the value.
    taken: bool,
}

#[derive(Debug, Default)]
struct MonState {
    /// One cell per allocated channel (across all frames).
    chans: Vec<ChanSt>,
    /// Threads that can still affect the channel fabric: executing or
    /// blocked on a channel. Parents waiting on a `par` join and
    /// completed arms are excluded.
    live: usize,
    /// One entry per thread currently blocked on a channel.
    blocked: Vec<BlockedOp>,
    /// The declared deadlock: a snapshot of `blocked` at the moment the
    /// last live thread blocked.
    verdict: Option<Vec<BlockedOp>>,
}

/// Deadlock-aware rendezvous fabric. Every channel shares this single
/// monitor so blocking is globally observable: when the set of blocked
/// threads covers every live thread, no rendezvous can ever complete,
/// and the last blocker declares the deadlock and wakes everyone with
/// the blocked set instead of letting the whole scope hang.
#[derive(Debug, Default)]
struct ChanMonitor {
    inner: Mutex<MonState>,
    cv: Condvar,
}

impl ChanMonitor {
    /// A monitor with the entry thread already counted live.
    fn new() -> Self {
        let m = ChanMonitor::default();
        m.inner.lock().expect("monitor").live = 1;
        m
    }

    /// Allocates a fresh channel cell, returning its index.
    fn alloc(&self) -> usize {
        let mut st = self.inner.lock().expect("monitor");
        st.chans.push(ChanSt::default());
        st.chans.len() - 1
    }

    /// `n` arms spawn; the parent leaves the live set to wait on the join.
    fn enter_par(&self, n: usize) {
        let mut st = self.inner.lock().expect("monitor");
        st.live += n;
        st.live -= 1;
        self.check(&mut st);
    }

    /// The parent returns from the join.
    fn exit_par(&self) {
        self.inner.lock().expect("monitor").live += 1;
    }

    /// One arm finished, normally or with an error. Its siblings may now
    /// constitute a deadlock (their partner is gone), so re-check.
    fn exit_arm(&self) {
        let mut st = self.inner.lock().expect("monitor");
        st.live -= 1;
        self.check(&mut st);
    }

    /// Declares the deadlock if every live thread is blocked. The
    /// snapshot is sorted so the verdict does not depend on the order
    /// in which the threads happened to block.
    fn check(&self, st: &mut MonState) {
        if st.verdict.is_none() && !st.blocked.is_empty() && st.blocked.len() >= st.live {
            let mut blocked = st.blocked.clone();
            blocked.sort_by(|a, b| {
                (&a.process, &a.channel, a.dir as u8).cmp(&(&b.process, &b.channel, b.dir as u8))
            });
            st.verdict = Some(blocked);
            self.cv.notify_all();
        }
    }

    /// Registers this thread as blocked, waits for one wakeup, and
    /// deregisters. Errors if a deadlock has been (or just became)
    /// declared.
    fn block<'a>(
        &'a self,
        mut st: MutexGuard<'a, MonState>,
        who: &str,
        chan: &str,
        dir: ChanDir,
    ) -> Result<MutexGuard<'a, MonState>, InterpError> {
        if let Some(b) = &st.verdict {
            return Err(InterpError::Deadlock { blocked: b.clone() });
        }
        st.blocked.push(BlockedOp {
            process: who.to_string(),
            channel: chan.to_string(),
            dir,
        });
        self.check(&mut st);
        if let Some(b) = &st.verdict {
            return Err(InterpError::Deadlock { blocked: b.clone() });
        }
        st = self.cv.wait(st).expect("monitor");
        // A waker that satisfied us may have already removed our entry.
        if let Some(i) = st
            .blocked
            .iter()
            .position(|b| b.process == who && b.channel == chan && b.dir == dir)
        {
            st.blocked.remove(i);
        }
        if let Some(b) = &st.verdict {
            return Err(InterpError::Deadlock { blocked: b.clone() });
        }
        Ok(st)
    }

    /// Removes blocked entries a state change on channel `chan` just
    /// gave a genuine wakeup chance (they re-register if still stuck),
    /// so a finished partner can't be double-counted as blocked by a
    /// racing [`Self::check`].
    fn unblock(st: &mut MonState, chan: &str, dir: ChanDir) {
        st.blocked.retain(|b| !(b.channel == chan && b.dir == dir));
    }

    /// Rendezvous send: blocks until a receiver takes the value.
    fn send(&self, ch: usize, v: i64, who: &str, chan: &str) -> Result<(), InterpError> {
        let mut st = self.inner.lock().expect("monitor");
        // Wait until no other send is pending on this cell.
        while st.chans[ch].value.is_some() {
            st = self.block(st, who, chan, ChanDir::Send)?;
        }
        st.chans[ch].value = Some(v);
        st.chans[ch].taken = false;
        Self::unblock(&mut st, chan, ChanDir::Recv);
        self.cv.notify_all();
        // Rendezvous: block until the receiver takes it.
        while !st.chans[ch].taken {
            st = self.block(st, who, chan, ChanDir::Send)?;
        }
        st.chans[ch].taken = false;
        self.cv.notify_all();
        Ok(())
    }

    /// Rendezvous receive: blocks until a sender's value arrives.
    fn recv(&self, ch: usize, who: &str, chan: &str) -> Result<i64, InterpError> {
        let mut st = self.inner.lock().expect("monitor");
        loop {
            if let Some(v) = st.chans[ch].value.take() {
                st.chans[ch].taken = true;
                Self::unblock(&mut st, chan, ChanDir::Send);
                self.cv.notify_all();
                return Ok(v);
            }
            st = self.block(st, who, chan, ChanDir::Recv)?;
        }
    }
}

/// One function activation: the slots of its locals, channel table (cell
/// indices into the shared [`ChanMonitor`]), and a side map holding
/// pointer values stored in pointer-typed locals.
#[derive(Clone)]
struct Frame {
    slots: Vec<Slot>,
    chans: Vec<Option<usize>>,
    ptrs: Arc<Mutex<std::collections::HashMap<usize, (Slot, i64)>>>,
}

impl Frame {
    fn set_ptr(&self, idx: usize, slot: Slot, offset: i64) {
        self.ptrs
            .lock()
            .expect("ptr table")
            .insert(idx, (slot, offset));
    }

    fn get_ptr(&self, idx: usize) -> Option<(Slot, i64)> {
        self.ptrs.lock().expect("ptr table").get(&idx).cloned()
    }
}

/// Statement execution outcome.
enum Flow {
    Normal,
    Break,
    Continue,
    Return(Option<i64>),
}

/// Runs `entry` of `prog` with `args`.
///
/// # Errors
///
/// See [`InterpError`].
pub fn run(
    prog: &HirProgram,
    entry: &str,
    args: &[ArgValue],
    opts: &InterpOptions,
) -> Result<InterpResult, InterpError> {
    let (fid, func) = prog
        .func_by_name(entry)
        .ok_or_else(|| InterpError::NoSuchFunction(entry.to_string()))?;
    let steps = AtomicU64::new(0);
    let interp = Interp {
        prog,
        steps: &steps,
        step_limit: opts.step_limit,
        par_order: opts.par_order,
        monitor: ChanMonitor::new(),
    };
    // The entry may run on a reused thread: reset the process label.
    PROC_LABEL.with(|l| *l.borrow_mut() = String::from("main"));

    // Bind the entry frame from the arguments.
    let frame = interp.make_frame(fid)?;
    for (i, local) in func.locals.iter().enumerate().take(func.num_params) {
        match (&local.ty, args.get(i)) {
            (Type::Bool | Type::Int(_), Some(ArgValue::Scalar(v))) => {
                *frame.slots[i].lock().expect("slot") =
                    SlotVal::Scalar(canonical_for(&local.ty, *v));
            }
            (Type::Array(elem, n), Some(ArgValue::Array(a))) => {
                let et = scalar_int_type(elem);
                let mut v = a.clone();
                v.resize(*n, 0);
                v.iter_mut().for_each(|x| *x = et.canonicalize(*x));
                *frame.slots[i].lock().expect("slot") = SlotVal::Array(v);
            }
            _ => return Err(InterpError::BadArgument(i)),
        }
    }

    let flow = interp.exec_block(func, &frame, &func.body, false)?;
    let ret = match flow {
        Flow::Return(v) => v,
        _ => None,
    };

    let mut arrays = Vec::new();
    for (i, local) in func.locals.iter().enumerate().take(func.num_params) {
        if matches!(local.ty, Type::Array(..)) {
            if let SlotVal::Array(a) = &*frame.slots[i].lock().expect("slot") {
                arrays.push((i, a.clone()));
            }
        }
    }
    Ok(InterpResult {
        ret,
        arrays,
        steps: steps.load(Ordering::Relaxed),
    })
}

fn scalar_int_type(ty: &Type) -> IntType {
    match ty {
        Type::Bool => IntType::new(1, false),
        Type::Int(it) => *it,
        _ => IntType::new(64, true),
    }
}

fn canonical_for(ty: &Type, v: i64) -> i64 {
    scalar_int_type(ty).canonicalize(v)
}

struct Interp<'p> {
    prog: &'p HirProgram,
    steps: &'p AtomicU64,
    step_limit: u64,
    par_order: ParOrder,
    monitor: ChanMonitor,
}

impl<'p> Interp<'p> {
    fn tick(&self) -> Result<(), InterpError> {
        let n = self.steps.fetch_add(1, Ordering::Relaxed) + 1;
        if n > self.step_limit {
            return Err(InterpError::StepLimit(self.step_limit));
        }
        Ok(())
    }

    fn make_frame(&self, fid: FuncId) -> Result<Frame, InterpError> {
        let func = self.prog.func(fid);
        let mut slots = Vec::with_capacity(func.locals.len());
        let mut chans = Vec::with_capacity(func.locals.len());
        for local in &func.locals {
            match &local.ty {
                Type::Array(elem, n) => {
                    let et = scalar_int_type(elem);
                    let contents = match &local.rom {
                        Some(rom) => {
                            let mut v = rom.clone();
                            v.resize(*n, 0);
                            v.iter_mut().for_each(|x| *x = et.canonicalize(*x));
                            v
                        }
                        None => vec![0; *n],
                    };
                    slots.push(Arc::new(Mutex::new(SlotVal::Array(contents))));
                    chans.push(None);
                }
                Type::Chan(_) => {
                    slots.push(Arc::new(Mutex::new(SlotVal::Scalar(0))));
                    chans.push(Some(self.monitor.alloc()));
                }
                _ => {
                    slots.push(Arc::new(Mutex::new(SlotVal::Scalar(0))));
                    chans.push(None);
                }
            }
        }
        Ok(Frame {
            slots,
            chans,
            ptrs: Arc::new(Mutex::new(std::collections::HashMap::new())),
        })
    }

    fn exec_block(
        &self,
        func: &HirFunc,
        frame: &Frame,
        block: &HirBlock,
        in_par: bool,
    ) -> Result<Flow, InterpError> {
        for stmt in &block.stmts {
            match self.exec_stmt(func, frame, stmt, in_par)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(
        &self,
        func: &HirFunc,
        frame: &Frame,
        stmt: &HirStmt,
        in_par: bool,
    ) -> Result<Flow, InterpError> {
        self.tick()?;
        match stmt {
            HirStmt::Assign { place, value, .. } => {
                let v = self.eval(func, frame, value)?;
                self.store(func, frame, place, v)?;
                Ok(Flow::Normal)
            }
            HirStmt::Call {
                dst,
                func: callee,
                args,
                ..
            } => {
                let ret = self.call(func, frame, *callee, args)?;
                if let (Some(dst), Some(v)) = (dst, ret) {
                    self.store(func, frame, dst, V::Int(v))?;
                }
                Ok(Flow::Normal)
            }
            HirStmt::Recv { dst, chan, .. } => {
                let ch = frame.chans[chan.0 as usize].ok_or(InterpError::BadPointer)?;
                let who = current_process();
                let v = self.monitor.recv(ch, &who, &func.local(*chan).name)?;
                self.store(func, frame, dst, V::Int(v))?;
                Ok(Flow::Normal)
            }
            HirStmt::Send { chan, value, .. } => {
                let v = self.eval(func, frame, value)?.as_int();
                let elem = match &func.local(*chan).ty {
                    Type::Chan(e) => (**e).clone(),
                    _ => return Err(InterpError::BadPointer),
                };
                let ch = frame.chans[chan.0 as usize].ok_or(InterpError::BadPointer)?;
                let who = current_process();
                self.monitor
                    .send(ch, canonical_for(&elem, v), &who, &func.local(*chan).name)?;
                Ok(Flow::Normal)
            }
            HirStmt::If { cond, then, els } => {
                if self.eval(func, frame, cond)?.as_int() != 0 {
                    self.exec_block(func, frame, then, in_par)
                } else {
                    self.exec_block(func, frame, els, in_par)
                }
            }
            HirStmt::While { cond, body, .. } => {
                while self.eval(func, frame, cond)?.as_int() != 0 {
                    self.tick()?;
                    match self.exec_block(func, frame, body, in_par)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        r @ Flow::Return(_) => return Ok(r),
                    }
                }
                Ok(Flow::Normal)
            }
            HirStmt::DoWhile { body, cond } => {
                loop {
                    self.tick()?;
                    match self.exec_block(func, frame, body, in_par)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        r @ Flow::Return(_) => return Ok(r),
                    }
                    if self.eval(func, frame, cond)?.as_int() == 0 {
                        break;
                    }
                }
                Ok(Flow::Normal)
            }
            HirStmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                match self.exec_block(func, frame, init, in_par)? {
                    Flow::Normal => {}
                    other => return Ok(other),
                }
                while self.eval(func, frame, cond)?.as_int() != 0 {
                    self.tick()?;
                    match self.exec_block(func, frame, body, in_par)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        r @ Flow::Return(_) => return Ok(r),
                    }
                    match self.exec_block(func, frame, step, in_par)? {
                        Flow::Normal => {}
                        other => return Ok(other),
                    }
                }
                Ok(Flow::Normal)
            }
            HirStmt::Return(v) => {
                if in_par {
                    return Err(InterpError::ReturnInPar);
                }
                let val = match v {
                    Some(e) => Some(self.eval(func, frame, e)?.as_int()),
                    None => None,
                };
                Ok(Flow::Return(val))
            }
            HirStmt::Break => Ok(Flow::Break),
            HirStmt::Continue => Ok(Flow::Continue),
            HirStmt::Block(b) => self.exec_block(func, frame, b, in_par),
            HirStmt::Constraint { body, .. } => self.exec_block(func, frame, body, in_par),
            HirStmt::Delay => Ok(Flow::Normal),
            HirStmt::Par(branches) => {
                match self.par_order {
                    ParOrder::Concurrent => {
                        // Each branch runs on its own thread; rendezvous
                        // channels synchronize them. Shared state is
                        // already behind per-slot mutexes. The monitor
                        // tracks who is live: arms join it on spawn and
                        // leave on exit (even an error exit), while the
                        // parent sits out during the join so a fully
                        // blocked sibling set is recognized as deadlock.
                        let parent = current_process();
                        self.monitor.enter_par(branches.len());
                        let results: Vec<Result<Flow, InterpError>> = std::thread::scope(|scope| {
                            let handles: Vec<_> = branches
                                .iter()
                                .enumerate()
                                .map(|(i, branch)| {
                                    let label = if parent == "main" {
                                        format!("arm {i}")
                                    } else {
                                        format!("{parent}.{i}")
                                    };
                                    scope.spawn(move || {
                                        PROC_LABEL.with(|l| *l.borrow_mut() = label);
                                        let r = self.exec_block(func, frame, branch, true);
                                        self.monitor.exit_arm();
                                        r
                                    })
                                })
                                .collect();
                            handles
                                .into_iter()
                                .map(|h| {
                                    h.join().unwrap_or_else(|_| {
                                        Err(InterpError::ParFailure("panic".to_string()))
                                    })
                                })
                                .collect()
                        });
                        self.monitor.exit_par();
                        // An arm that died of a real error (step limit,
                        // bounds) strands its siblings' rendezvous as a
                        // side effect; report the root cause, not the
                        // echo.
                        if let Some(e) = results.iter().find_map(|r| match r {
                            Err(e) if !matches!(e, InterpError::Deadlock { .. }) => Some(e.clone()),
                            _ => None,
                        }) {
                            return Err(e);
                        }
                        for r in results {
                            r?;
                        }
                    }
                    // The sequential orders run arms to completion one at
                    // a time — legal schedules for channel-free `par`,
                    // used to demonstrate racy-program divergence.
                    ParOrder::Sequential => {
                        for branch in branches {
                            self.exec_block(func, frame, branch, true)?;
                        }
                    }
                    ParOrder::Reversed => {
                        for branch in branches.iter().rev() {
                            self.exec_block(func, frame, branch, true)?;
                        }
                    }
                }
                Ok(Flow::Normal)
            }
        }
    }

    fn call(
        &self,
        caller: &HirFunc,
        caller_frame: &Frame,
        callee: FuncId,
        args: &[HirArg],
    ) -> Result<Option<i64>, InterpError> {
        let cfunc = self.prog.func(callee);
        let mut frame = self.make_frame(callee)?;
        for (i, arg) in args.iter().enumerate() {
            match arg {
                HirArg::Value(e) => match self.eval(caller, caller_frame, e)? {
                    V::Int(x) => {
                        *frame.slots[i].lock().expect("slot") =
                            SlotVal::Scalar(canonical_for(&cfunc.local(LocalId(i as u32)).ty, x));
                    }
                    V::Ptr { slot, offset } => frame.set_ptr(i, slot, offset),
                },
                HirArg::Array(place) => {
                    // Arrays pass by reference: alias the caller's slot.
                    frame.slots[i] = self.place_array_slot(caller, caller_frame, place)?;
                }
            }
        }
        self.run_callee(cfunc, frame)
    }

    fn run_callee(&self, cfunc: &HirFunc, frame: Frame) -> Result<Option<i64>, InterpError> {
        match self.exec_block(cfunc, &frame, &cfunc.body, false)? {
            Flow::Return(v) => Ok(v),
            _ => Ok(None),
        }
    }

    // ----- places -----

    fn place_array_slot(
        &self,
        _func: &HirFunc,
        frame: &Frame,
        place: &HirPlace,
    ) -> Result<Slot, InterpError> {
        match place {
            HirPlace::Local(id) => Ok(frame.slots[id.0 as usize].clone()),
            HirPlace::Global(gid) => {
                // Globals are immutable; materialize a fresh copy (callee
                // cannot legally write through it — sema enforces const).
                let g = self.prog.global(*gid);
                Ok(Arc::new(Mutex::new(SlotVal::Array(g.values.clone()))))
            }
            _ => Err(InterpError::BadPointer),
        }
    }

    fn store(
        &self,
        func: &HirFunc,
        frame: &Frame,
        place: &HirPlace,
        value: V,
    ) -> Result<(), InterpError> {
        match place {
            HirPlace::Local(id) => {
                let ty = &func.local(*id).ty;
                match value {
                    V::Int(v) => {
                        *frame.slots[id.0 as usize].lock().expect("slot") =
                            SlotVal::Scalar(canonical_for(ty, v));
                    }
                    V::Ptr { slot, offset } => {
                        // Pointers stored in pointer-typed locals: keep as
                        // a handle in the frame's pointer table.
                        frame.set_ptr(id.0 as usize, slot, offset);
                    }
                }
                Ok(())
            }
            HirPlace::Index { base, index } => {
                let idx = self.eval(func, frame, index)?.as_int();
                let slot = self.place_array_slot(func, frame, base)?;
                let name = base
                    .root_local()
                    .map(|l| func.local(l).name.clone())
                    .unwrap_or_else(|| "array".to_string());
                let mut guard = slot.lock().expect("slot");
                let SlotVal::Array(a) = &mut *guard else {
                    return Err(InterpError::BadPointer);
                };
                if idx < 0 || idx as usize >= a.len() {
                    return Err(InterpError::OutOfBounds {
                        name,
                        index: idx,
                        len: a.len(),
                    });
                }
                let elem_ty = match &self.place_ty(func, base) {
                    Type::Array(e, _) => (**e).clone(),
                    _ => Type::int(),
                };
                a[idx as usize] = canonical_for(&elem_ty, value.as_int());
                Ok(())
            }
            HirPlace::Deref(ptr) => {
                let p = self.eval(func, frame, ptr)?;
                let V::Ptr { slot, offset } = p else {
                    return Err(InterpError::BadPointer);
                };
                let mut guard = slot.lock().expect("slot");
                match &mut *guard {
                    SlotVal::Scalar(s) => {
                        if offset != 0 {
                            return Err(InterpError::BadPointer);
                        }
                        *s = value.as_int();
                    }
                    SlotVal::Array(a) => {
                        if offset < 0 || offset as usize >= a.len() {
                            return Err(InterpError::OutOfBounds {
                                name: "pointer target".to_string(),
                                index: offset,
                                len: a.len(),
                            });
                        }
                        a[offset as usize] = value.as_int();
                    }
                }
                Ok(())
            }
            HirPlace::Global(_) => Err(InterpError::BadPointer),
        }
    }

    fn place_ty(&self, func: &HirFunc, place: &HirPlace) -> Type {
        match place {
            HirPlace::Local(id) => func.local(*id).ty.clone(),
            HirPlace::Global(gid) => self.prog.global(*gid).ty.clone(),
            HirPlace::Index { base, .. } => match self.place_ty(func, base) {
                Type::Array(e, _) => *e,
                other => other,
            },
            HirPlace::Deref(e) => match &e.ty {
                Type::Ptr(t) => (**t).clone(),
                other => other.clone(),
            },
        }
    }

    // ----- expressions -----

    fn eval(&self, func: &HirFunc, frame: &Frame, e: &HirExpr) -> Result<V, InterpError> {
        match &e.kind {
            HirExprKind::Const(v) => Ok(V::Int(*v)),
            HirExprKind::Load(place) => self.load(func, frame, place),
            HirExprKind::Unary(op, a) => {
                let v = self.eval(func, frame, a)?.as_int();
                let ty = scalar_int_type(&e.ty);
                Ok(V::Int(match op {
                    UnOp::Neg => eval_un(chls_ir::UnKind::Neg, ty, v),
                    UnOp::Not => eval_un(chls_ir::UnKind::Not, ty, v),
                    UnOp::LogNot => (v == 0) as i64,
                }))
            }
            HirExprKind::Binary(op, a, b) => {
                let av = self.eval(func, frame, a)?;
                let bv = self.eval(func, frame, b)?;
                // Pointer arithmetic / comparison.
                if let V::Ptr { slot, offset } = &av {
                    return match (op, &bv) {
                        (BinOp::Add, V::Int(k)) => Ok(V::Ptr {
                            slot: slot.clone(),
                            offset: offset + k,
                        }),
                        (BinOp::Sub, V::Int(k)) => Ok(V::Ptr {
                            slot: slot.clone(),
                            offset: offset - k,
                        }),
                        (
                            BinOp::Eq,
                            V::Ptr {
                                slot: s2,
                                offset: o2,
                            },
                        ) => Ok(V::Int((Arc::ptr_eq(slot, s2) && offset == o2) as i64)),
                        (
                            BinOp::Ne,
                            V::Ptr {
                                slot: s2,
                                offset: o2,
                            },
                        ) => Ok(V::Int(!(Arc::ptr_eq(slot, s2) && offset == o2) as i64)),
                        _ => Err(InterpError::BadPointer),
                    };
                }
                let kind = BinKind::from(*op);
                let ety = if kind.is_comparison() {
                    scalar_int_type(&a.ty)
                } else {
                    scalar_int_type(&e.ty)
                };
                Ok(V::Int(eval_bin(kind, ety, av.as_int(), bv.as_int())))
            }
            HirExprKind::Select(c, t, f) => {
                if self.eval(func, frame, c)?.as_int() != 0 {
                    self.eval(func, frame, t)
                } else {
                    self.eval(func, frame, f)
                }
            }
            HirExprKind::Cast(inner) => {
                let v = self.eval(func, frame, inner)?;
                match v {
                    V::Int(x) => Ok(V::Int(canonical_for(&e.ty, x))),
                    p @ V::Ptr { .. } => Ok(p),
                }
            }
            HirExprKind::AddrOf(place) => match &**place {
                HirPlace::Local(id) => Ok(V::Ptr {
                    slot: frame.slots[id.0 as usize].clone(),
                    offset: 0,
                }),
                HirPlace::Index { base, index } => {
                    let idx = self.eval(func, frame, index)?.as_int();
                    let slot = self.place_array_slot(func, frame, base)?;
                    Ok(V::Ptr { slot, offset: idx })
                }
                _ => Err(InterpError::BadPointer),
            },
        }
    }

    fn load(&self, func: &HirFunc, frame: &Frame, place: &HirPlace) -> Result<V, InterpError> {
        match place {
            HirPlace::Local(id) => {
                if let Some((slot, offset)) = frame.get_ptr(id.0 as usize) {
                    return Ok(V::Ptr { slot, offset });
                }
                let guard = frame.slots[id.0 as usize].lock().expect("slot");
                match &*guard {
                    SlotVal::Scalar(v) => Ok(V::Int(*v)),
                    SlotVal::Array(_) => Err(InterpError::BadPointer),
                }
            }
            HirPlace::Index { base, index } => {
                let idx = self.eval(func, frame, index)?.as_int();
                let slot = self.place_array_slot(func, frame, base)?;
                let name = base
                    .root_local()
                    .map(|l| func.local(l).name.clone())
                    .unwrap_or_else(|| "array".to_string());
                let guard = slot.lock().expect("slot");
                let SlotVal::Array(a) = &*guard else {
                    return Err(InterpError::BadPointer);
                };
                if idx < 0 || idx as usize >= a.len() {
                    return Err(InterpError::OutOfBounds {
                        name,
                        index: idx,
                        len: a.len(),
                    });
                }
                Ok(V::Int(a[idx as usize]))
            }
            HirPlace::Deref(ptr) => {
                let p = self.eval(func, frame, ptr)?;
                let V::Ptr { slot, offset } = p else {
                    return Err(InterpError::BadPointer);
                };
                let guard = slot.lock().expect("slot");
                match &*guard {
                    SlotVal::Scalar(v) => {
                        if offset != 0 {
                            return Err(InterpError::BadPointer);
                        }
                        Ok(V::Int(*v))
                    }
                    SlotVal::Array(a) => {
                        if offset < 0 || offset as usize >= a.len() {
                            return Err(InterpError::OutOfBounds {
                                name: "pointer target".to_string(),
                                index: offset,
                                len: a.len(),
                            });
                        }
                        Ok(V::Int(a[offset as usize]))
                    }
                }
            }
            HirPlace::Global(_) => Err(InterpError::BadPointer),
        }
    }
}

//! Cycle-accurate simulator for FSMD designs.
//!
//! Each simulated cycle evaluates the current state's datapath expressions
//! from the *current* register/memory contents, picks the next state, and
//! then commits all actions simultaneously — matching both the Verilog the
//! emitter produces and real registered hardware. The sampled return value
//! likewise reads pre-commit values, so backends route results through a
//! register that is stable before the `Done` state.
//!
//! # Hot path
//!
//! [`simulate`] does not tree-walk the `Rv` expression trees. At entry it
//! compiles every state once into a flat register-machine *tape* (see
//! [`crate::tape`]) over a dense `i64` slot array: registers, inputs, and
//! constants live in fixed slots, and every hash-consed subexpression
//! computes into its own temp slot at most once per cycle. Building the
//! tape interns each expression tree once, under a one-multiply hash.
//!
//! [`tape::compile`] lowers that tape before it returns it: register
//! writes that nothing later in their state reads commit in place
//! instead of being staged, and a temp that only carries a value into a
//! register is computed straight into it. What is left stays staged:
//! swaps, memory writes and the writes of deadlocked states.
//!
//! The per-cycle loop touches only dense arrays: no allocation, no
//! hashing, no pointer chasing. A cycle runs only a few tape
//! instructions, so the loop's fixed cost matters as much as theirs:
//! the state step ([`tape::exec_state`]) is forced inline, so a cycle
//! makes no call and moves no `Result` around, and values are
//! canonicalized to their width by a branch-free shift pair.
//!
//! The native x86-64 JIT (`chls-jit`) compiles the same lowered tape to
//! machine code and steps single states of it through
//! [`tape::exec_state`] when it falls back. [`tape::run_tape`] and
//! [`tape::exec_state`] are the reference executors, and this module's
//! loop is the reference simulator; [`run`] also runs
//! [`tape::compile_staged`]'s tape, against which the lowering is
//! checked.

use crate::interp::ArgValue;
use crate::tape::{self, Step, Tape};
use chls_rtl::fsmd::{BlockedOp, Fsmd};
use std::fmt;

/// Simulation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum FsmdSimError {
    /// Memory access out of range.
    OutOfBounds {
        /// Memory name.
        mem: String,
        /// Offending address.
        addr: i64,
        /// Word count.
        len: usize,
    },
    /// The cycle limit was exceeded.
    CycleLimit(u64),
    /// Missing or mistyped argument.
    BadArgument(usize),
    /// The process network reached a configuration it can never leave:
    /// every live process is blocked on an unmatched rendezvous.
    Deadlock {
        /// Cycle on which the stuck configuration was entered.
        cycle: u64,
        /// Every blocked (process, channel, direction) endpoint.
        blocked: Vec<BlockedOp>,
    },
}

impl fmt::Display for FsmdSimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsmdSimError::OutOfBounds { mem, addr, len } => {
                write!(
                    f,
                    "address {addr} out of range for memory `{mem}` (len {len})"
                )
            }
            FsmdSimError::CycleLimit(n) => write!(f, "exceeded cycle limit of {n}"),
            FsmdSimError::BadArgument(i) => write!(f, "missing or mistyped argument {i}"),
            FsmdSimError::Deadlock { cycle, blocked } => {
                write!(f, "deadlock at cycle {cycle}: ")?;
                let parts: Vec<String> = blocked
                    .iter()
                    .map(|b| format!("{} blocked on {}({})", b.process, b.dir, b.channel))
                    .collect();
                write!(f, "{}", parts.join(", "))
            }
        }
    }
}

impl std::error::Error for FsmdSimError {}

impl FsmdSimError {
    /// The error for an access at `addr` outside memory `mem` of `f`,
    /// which holds `len` words.
    #[cold]
    pub fn out_of_bounds(f: &Fsmd, mem: usize, addr: i64, len: usize) -> Self {
        FsmdSimError::OutOfBounds {
            mem: f.mems[mem].name.clone(),
            addr,
            len,
        }
    }

    /// Stamps a deadlock with the cycle that entered the stuck
    /// configuration; the tape layer has no cycle counter. Other errors
    /// pass through unchanged.
    pub fn at_cycle(self, cycle: u64) -> Self {
        match self {
            FsmdSimError::Deadlock { blocked, .. } => FsmdSimError::Deadlock { cycle, blocked },
            other => other,
        }
    }
}

/// Result of simulating an FSMD to completion.
#[derive(Debug, Clone, PartialEq)]
pub struct FsmdSimResult {
    /// Sampled return value.
    pub ret: Option<i64>,
    /// Clock cycles from start to done (each visited state is one cycle).
    pub cycles: u64,
    /// Final contents of every memory.
    pub mems: Vec<Vec<i64>>,
    /// Final (post-commit) register values, in register order.
    pub regs: Vec<i64>,
}

/// Simulates `f` with arguments bound by parameter index.
///
/// # Errors
///
/// See [`FsmdSimError`].
pub fn simulate(
    f: &Fsmd,
    args: &[ArgValue],
    max_cycles: u64,
) -> Result<FsmdSimResult, FsmdSimError> {
    let _span = chls_trace::span("sim.fsmd");
    let r = simulate_inner(f, args, max_cycles);
    if let Ok(r) = &r {
        // One counter add per run, never per cycle — the hot loop is
        // untouched (the benchmark's `sim_long` workload measures this).
        chls_trace::add("sim.cycles", r.cycles);
    }
    r
}

fn simulate_inner(
    f: &Fsmd,
    args: &[ArgValue],
    max_cycles: u64,
) -> Result<FsmdSimResult, FsmdSimError> {
    // Compile once; the per-cycle loop is allocation-free.
    run(f, &tape::compile(f), args, max_cycles)
}

/// Runs `comp`, a tape of `f` (lowered or staged), to completion.
///
/// # Errors
///
/// See [`FsmdSimError`].
pub fn run(
    f: &Fsmd,
    comp: &Tape,
    args: &[ArgValue],
    max_cycles: u64,
) -> Result<FsmdSimResult, FsmdSimError> {
    let inputs = tape::bind_inputs(f, args)?;
    let mut mems = tape::bind_mems(f, args)?;
    let mut slots = tape::init_slots(comp, f, &inputs, 0);
    let mut reg_updates: Vec<(u32, i64)> = Vec::new();
    let mut mem_updates: Vec<(u32, i64, i64)> = Vec::new();

    let mut state = f.entry.0;
    let mut cycles: u64 = 0;
    loop {
        cycles += 1;
        if cycles > max_cycles {
            return Err(FsmdSimError::CycleLimit(max_cycles));
        }
        match tape::exec_state(
            comp,
            f,
            state,
            &mut slots,
            &mut mems,
            &mut reg_updates,
            &mut mem_updates,
        ) {
            Ok(Step::Next(t)) => state = t,
            Ok(Step::Done(ret)) => {
                let regs = slots[..comp.n_regs].to_vec();
                return Ok(FsmdSimResult {
                    ret,
                    cycles,
                    mems,
                    regs,
                });
            }
            Err(e) => return Err(e.at_cycle(cycles)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chls_frontend::IntType;
    use chls_rtl::builder::FsmdBuilder;

    fn ty32() -> IntType {
        IntType::new(32, true)
    }

    /// GCD built by hand with the Ocapi-style builder, then simulated.
    fn gcd_fsmd() -> Fsmd {
        let mut b = FsmdBuilder::new("gcd");
        let ain = b.input("a_in", ty32(), 0);
        let bin = b.input("b_in", ty32(), 1);
        let a = b.reg("a", ty32(), 0);
        let breg = b.reg("b", ty32(), 0);
        let s_load = b.state();
        let s_loop = b.state();
        let s_done = b.state();
        b.at(s_load).set(a, ain).set(breg, bin).goto(s_loop);
        // loop: if b == 0 -> done else { a <= b; b <= a % b; }. The
        // updates are mux-gated on the exit condition because actions
        // commit in every visited state, including the exiting one.
        let b_is_zero = b.eq(b.get(breg), Rv::konst(0, ty32()));
        let rem = Rv::bin(chls_ir::BinKind::Rem, ty32(), b.get(a), b.get(breg));
        let a_next = b.mux(b_is_zero.clone(), b.get(a), b.get(breg));
        let b_next = b.mux(b_is_zero.clone(), b.get(breg), rem);
        b.at(s_loop)
            .set(a, a_next)
            .set(breg, b_next)
            .branch(b_is_zero, s_done, s_loop);
        b.at(s_done).done();
        let result = b.get(a);
        b.returning(result).finish()
    }

    #[test]
    fn gcd_computes_and_counts_cycles() {
        let f = gcd_fsmd();
        let r = simulate(&f, &[ArgValue::Scalar(48), ArgValue::Scalar(36)], 10_000)
            .expect("simulation ok");
        assert_eq!(r.ret, Some(12));
        assert!(r.cycles >= 4 && r.cycles < 20, "cycles = {}", r.cycles);
    }

    #[test]
    fn simultaneous_commit_swap_semantics() {
        // In s_loop, `a <= b` and `b <= a % b` both see the OLD a and b.
        let f = gcd_fsmd();
        let r = simulate(&f, &[ArgValue::Scalar(7), ArgValue::Scalar(3)], 1000).unwrap();
        assert_eq!(r.ret, Some(1));
    }

    #[test]
    fn memory_write_then_read_next_cycle() {
        let ty = ty32();
        let mut b = FsmdBuilder::new("m");
        let mem = b.mem("buf", ty, 4);
        let r = b.reg("r", ty, 0);
        let s0 = b.state();
        let s1 = b.state();
        b.at(s0)
            .write(mem, Rv::konst(2, ty), Rv::konst(99, ty))
            .goto(s1);
        let rd = b.read(mem, Rv::konst(2, ty));
        b.at(s1).set(r, rd).done();
        let result = b.get(r);
        let f = b.returning(result).finish();
        let out = simulate(&f, &[], 100).unwrap();
        assert_eq!(out.mems[0], vec![0, 0, 99, 0]);
        // ret samples r pre-commit in s1, so it still reads 0.
        assert_eq!(out.ret, Some(0));
        assert_eq!(out.cycles, 2);
        // Post-commit register state is exposed for differential testing.
        assert_eq!(out.regs, vec![99]);
    }

    #[test]
    fn cycle_limit_detects_livelock() {
        let mut b = FsmdBuilder::new("spin");
        let s0 = b.state();
        b.at(s0).goto(s0);
        let f = b.finish();
        let err = simulate(&f, &[], 50).unwrap_err();
        assert!(matches!(err, FsmdSimError::CycleLimit(50)));
    }

    #[test]
    fn stuck_annotation_reports_deadlock() {
        use chls_rtl::fsmd::{BlockedOp, ChanDir, StuckState};
        // Same goto-self shape as the livelock test, but carrying a
        // backend-proved stuck annotation: the simulator must report a
        // first-class deadlock (on entry, cycle 1) instead of spinning.
        let mut b = FsmdBuilder::new("dead");
        let s0 = b.state();
        b.at(s0).goto(s0);
        let mut f = b.finish();
        f.stuck.push(StuckState {
            state: s0,
            blocked: vec![BlockedOp {
                process: "arm 0".into(),
                channel: "c".into(),
                dir: ChanDir::Send,
            }],
        });
        let err = simulate(&f, &[], 50).unwrap_err();
        let FsmdSimError::Deadlock { cycle, blocked } = err else {
            panic!("expected deadlock, got {err:?}");
        };
        assert_eq!(cycle, 1);
        assert_eq!(blocked.len(), 1);
        assert_eq!(blocked[0].channel, "c");
        assert_eq!(blocked[0].dir, ChanDir::Send);
    }

    #[test]
    fn rom_contents_visible() {
        let ty = ty32();
        let mut b = FsmdBuilder::new("rom");
        let rom = b.rom("tab", ty, vec![7, 8, 9]);
        let r = b.reg("r", ty, 0);
        let s0 = b.state();
        let s1 = b.state();
        let rd = b.read(rom, Rv::konst(1, ty));
        b.at(s0).set(r, rd).goto(s1);
        b.at(s1).done();
        let result = b.get(r);
        let f = b.returning(result).finish();
        let out = simulate(&f, &[], 100).unwrap();
        assert_eq!(out.ret, Some(8));
    }

    #[test]
    fn out_of_bounds_write_detected() {
        let ty = ty32();
        let mut b = FsmdBuilder::new("oob");
        let mem = b.mem("buf", ty, 4);
        let s0 = b.state();
        b.at(s0)
            .write(mem, Rv::konst(9, ty), Rv::konst(1, ty))
            .done();
        let f = b.finish();
        let err = simulate(&f, &[], 100).unwrap_err();
        assert!(matches!(err, FsmdSimError::OutOfBounds { .. }));
    }

    #[test]
    fn array_param_binding_initializes_memory() {
        let ty = ty32();
        let mut b = FsmdBuilder::new("arr");
        let mem = b.mem("a", ty, 4);
        let s0 = b.state();
        b.at(s0)
            .write(mem, Rv::konst(0, ty), Rv::konst(-1, ty))
            .done();
        let mut f = b.finish();
        f.mems[0].param_index = Some(0);
        let _ = mem;
        let out = simulate(&f, &[ArgValue::Array(vec![10, 20, 30, 40])], 100).unwrap();
        assert_eq!(out.mems[0], vec![-1, 20, 30, 40]);
    }

    use chls_rtl::fsmd::Rv;
}

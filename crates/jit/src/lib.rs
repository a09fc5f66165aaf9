//! Native x86-64 JIT for the FSMD cycle-accurate simulator.
//!
//! The tape compiler in [`chls_sim::tape`] already lowers every FSMD
//! state to a flat register-machine program over a dense `i64` slot
//! array; [`chls_sim::tape::compile`] gives the tape the interpreter
//! runs. This crate compiles that tape one step further, to native
//! x86-64 machine code: each state becomes a straight-line block with
//! the cycle count, datapath, next-state decision, and simultaneous
//! commit all inlined, dispatched block-to-block with direct jumps.
//!
//! The contract is **bit-exactness**: for every design and input, the
//! JIT produces the same return value, register file, memory contents,
//! cycle count, and error as the interpreter. Three mechanisms enforce
//! it:
//!
//! * cold operations (division, remainder, dynamic shifts) call
//!   straight into [`chls_ir::eval_bin`] — the same function the
//!   interpreter uses;
//! * a failed bounds check exits through a stub of its own that
//!   records the memory and the address, from which the driver builds
//!   the interpreter's error ([`FsmdSimError::out_of_bounds`]);
//! * any state the translator cannot (or is told not to) compile falls
//!   back to `exec_state` per cycle, then resumes native execution at
//!   the next state.
//!
//! On non-x86-64 or non-Linux hosts, and on hosts whose kernel refuses
//! `PROT_EXEC` mappings, [`available`] reports `false` and [`simulate`]
//! transparently uses the interpreter.
//!
//! `tests/differential.rs` (and the workspace-level
//! `tests/jit_differential.rs`) drive both engines over every example
//! program and randomized edge-case tapes to hold the contract.

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod buf;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod peephole;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod regalloc;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod translate;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod x86;

pub use chls_sim::fsmd_sim::{FsmdSimError, FsmdSimResult};

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod imp {
    use crate::buf::ExecBuf;
    use crate::translate::{self, EXIT_DONE, EXIT_FALLBACK, EXIT_LIMIT, EXIT_TRAP};
    use crate::x86::{self, Asm};
    use chls_frontend::IntType;
    use chls_ir::BinKind;
    use chls_rtl::fsmd::Fsmd;
    use chls_sim::fsmd_sim::{FsmdSimError, FsmdSimResult};
    use chls_sim::interp::ArgValue;
    use chls_sim::tape::{self, Step, Tape};
    use std::cell::RefCell;
    use std::sync::OnceLock;

    /// The back end's working storage: the translator's tables and the
    /// assembler's buffers, reused by every compile on this thread.
    #[derive(Default)]
    struct Scratch {
        tr: translate::Scratch,
        asm: Asm,
    }

    thread_local! {
        static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
    }

    /// One memory's runtime descriptor, as native code sees it.
    #[repr(C)]
    pub struct MemDesc {
        /// Element storage.
        pub base: *mut i64,
        /// Word count (bounds checks compare addresses against this).
        pub len: u64,
    }

    /// The environment block passed to compiled code in `rdi`. Field
    /// offsets are hard-coded in `translate.rs` (`OFF_*`) and asserted
    /// in the `env_offsets_match_translator` test.
    #[repr(C)]
    struct JitEnv {
        slots: *mut i64,
        mems: *mut MemDesc,
        cycles: u64,
        max_cycles: u64,
        /// Fallback state id or trapping memory index, written by exit
        /// stubs.
        aux: u64,
        ret_val: i64,
        ret_set: u64,
        /// The address of an out-of-bounds access, written by its stub.
        trap_addr: i64,
    }

    /// The `eval_bin` trampoline for cold ops. `packed` is produced by
    /// [`translate::pack_bin`]: op in bits 0..8, width in 8..24,
    /// signedness in bit 24.
    extern "C" fn jit_bin_helper(packed: u64, a: i64, b: i64) -> i64 {
        let op = match packed & 0xff {
            0 => BinKind::Div,
            1 => BinKind::Rem,
            2 => BinKind::Shl,
            _ => BinKind::Shr,
        };
        let ty = IntType::new(((packed >> 8) & 0xffff) as u16, (packed >> 24) & 1 == 1);
        chls_ir::eval_bin(op, ty, a, b)
    }

    /// Is native JIT execution possible on this host? Probes once for a
    /// working anonymous `mmap` plus an RW→RX `mprotect` flip.
    pub fn available() -> bool {
        static AVAIL: OnceLock<bool> = OnceLock::new();
        *AVAIL.get_or_init(|| match ExecBuf::new(64) {
            Some(mut b) => {
                b.write(&[0xc3]); // ret
                b.seal()
            }
            None => false,
        })
    }

    /// A tape compiled to native code, ready to run any number of times
    /// (including concurrently — all mutable state lives in the per-run
    /// slot array and environment block). It borrows the design it was
    /// compiled from, which runs read for binding and fallbacks.
    pub struct JitProgram<'f> {
        buf: ExecBuf,
        /// Per-state entry offsets into `buf`.
        state_offsets: Box<[usize]>,
        tape: Tape,
        f: &'f Fsmd,
        extra_slots: usize,
        /// Number of compiled state blocks.
        pub blocks: usize,
        /// Emitted machine-code size in bytes.
        pub bytes: usize,
        /// How many states compiled to interpreter-fallback stubs.
        pub fallback_blocks: usize,
    }

    impl<'f> JitProgram<'f> {
        /// Compiles `f`'s tape to native code. `None` when the host
        /// can't run JIT code (caller falls back to the interpreter).
        pub fn compile(f: &'f Fsmd) -> Option<JitProgram<'f>> {
            Self::compile_with(f, false)
        }

        /// [`JitProgram::compile`], with every state forced through the
        /// interpreter fallback path (for differential testing of the
        /// native↔interpreter handoff).
        pub fn compile_with(f: &'f Fsmd, force_fallback: bool) -> Option<JitProgram<'f>> {
            if !available() {
                return None;
            }
            let tape = tape::compile(f);
            let helper = jit_bin_helper as *const () as usize as i64;
            let (buf, state_offsets, tr) = SCRATCH.with_borrow_mut(|s| {
                let tr = translate::translate(&mut s.tr, &tape, helper, force_fallback);
                x86::assemble(&mut s.asm, &s.tr.insts, tr.n_labels);
                let code = s.asm.code();
                let mut buf = ExecBuf::new(code.len())?;
                buf.write(code);
                if !buf.seal() {
                    return None;
                }
                // Labels 0..n_states are the state entries.
                let state_offsets = s.asm.label_pos[..tape.states.len()].into();
                Some((buf, state_offsets, tr))
            })?;
            let bytes = buf.code().len();
            chls_trace::add("jit.blocks", tape.states.len() as u64);
            chls_trace::add("jit.bytes", bytes as u64);
            Some(JitProgram {
                buf,
                state_offsets,
                blocks: tape.states.len(),
                bytes,
                fallback_blocks: tr.fallback_blocks,
                tape,
                f,
                extra_slots: tr.extra_slots,
            })
        }

        /// The emitted machine code: the first [`JitProgram::bytes`]
        /// bytes of the sealed mapping.
        pub fn code(&self) -> &[u8] {
            self.buf.code()
        }

        /// Runs the compiled design. Same contract as
        /// [`chls_sim::fsmd_sim::simulate`], bit for bit.
        ///
        /// # Errors
        ///
        /// Exactly the errors the interpreter would report.
        pub fn run(
            &self,
            args: &[ArgValue],
            max_cycles: u64,
        ) -> Result<FsmdSimResult, FsmdSimError> {
            self.run_counted(args, max_cycles).map(|(r, _)| r)
        }

        /// [`JitProgram::run`], also returning how many cycles went
        /// through the interpreter fallback path.
        pub fn run_counted(
            &self,
            args: &[ArgValue],
            max_cycles: u64,
        ) -> Result<(FsmdSimResult, u64), FsmdSimError> {
            let inputs = tape::bind_inputs(self.f, args)?;
            let mut mems = tape::bind_mems(self.f, args)?;
            let mut slots = tape::init_slots(&self.tape, self.f, &inputs, self.extra_slots);
            let mut descs: Vec<MemDesc> = mems
                .iter_mut()
                .map(|m| MemDesc {
                    base: m.as_mut_ptr(),
                    len: m.len() as u64,
                })
                .collect();
            let mut env = JitEnv {
                slots: slots.as_mut_ptr(),
                mems: descs.as_mut_ptr(),
                cycles: 0,
                max_cycles,
                aux: 0,
                ret_val: 0,
                ret_set: 0,
                trap_addr: 0,
            };
            // SAFETY: `buf` holds code assembled by `translate`, whose
            // prologue implements exactly this signature (SysV: env in
            // rdi, entry address in rsi, exit code in rax) and only
            // dereferences `env`, the slot array, and the memory
            // descriptors — all valid for the duration of each call.
            let entry_fn: extern "C" fn(*mut JitEnv, usize) -> u64 =
                unsafe { std::mem::transmute(self.buf.addr()) };

            let mut state = self.f.entry.0;
            let mut fallbacks: u64 = 0;
            let mut reg_updates: Vec<(u32, i64)> = Vec::new();
            let mut mem_updates: Vec<(u32, i64, i64)> = Vec::new();
            let ret = loop {
                // Re-derive the raw pointers each entry: interpreter
                // fallbacks between native calls take `&mut` borrows of
                // the same storage.
                env.slots = slots.as_mut_ptr();
                for (d, m) in descs.iter_mut().zip(mems.iter_mut()) {
                    d.base = m.as_mut_ptr();
                }
                let entry = self.buf.addr() + self.state_offsets[state as usize];
                let code = entry_fn(&mut env, entry);
                match code {
                    EXIT_DONE => break (env.ret_set != 0).then_some(env.ret_val),
                    EXIT_LIMIT => return Err(FsmdSimError::CycleLimit(max_cycles)),
                    EXIT_TRAP => {
                        let mem = env.aux as usize;
                        let len = mems[mem].len();
                        return Err(FsmdSimError::out_of_bounds(self.f, mem, env.trap_addr, len));
                    }
                    EXIT_FALLBACK => {
                        // The native block counted the cycle, then asked
                        // the interpreter to execute the state body.
                        fallbacks += 1;
                        let si = env.aux as u32;
                        match tape::exec_state(
                            &self.tape,
                            self.f,
                            si,
                            &mut slots,
                            &mut mems,
                            &mut reg_updates,
                            &mut mem_updates,
                        )
                        // The native header already counted this cycle;
                        // stamp deadlocks with it so JIT and interpreter
                        // errors compare equal.
                        .map_err(|e| e.at_cycle(env.cycles))?
                        {
                            Step::Next(t) => state = t,
                            Step::Done(ret) => break ret,
                        }
                    }
                    other => unreachable!("unknown JIT exit code {other}"),
                }
            };
            let regs = slots[..self.f.regs.len()].to_vec();
            chls_trace::add("sim.cycles", env.cycles);
            chls_trace::add("jit.fallbacks", fallbacks);
            Ok((
                FsmdSimResult {
                    ret,
                    cycles: env.cycles,
                    mems,
                    regs,
                },
                fallbacks,
            ))
        }
    }

    /// JIT-compiles and runs `f`; transparently falls back to the
    /// interpreter when the host can't execute generated code.
    ///
    /// # Errors
    ///
    /// See [`FsmdSimError`] — identical to the interpreter's.
    pub fn simulate(
        f: &Fsmd,
        args: &[ArgValue],
        max_cycles: u64,
    ) -> Result<FsmdSimResult, FsmdSimError> {
        match JitProgram::compile(f) {
            Some(p) => {
                let _span = chls_trace::span("sim.jit");
                p.run(args, max_cycles)
            }
            None => chls_sim::fsmd_sim::simulate(f, args, max_cycles),
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::translate::{
            OFF_AUX, OFF_CYCLES, OFF_MAX, OFF_MEMS, OFF_RET, OFF_RETSET, OFF_SLOTS, OFF_TRAP_ADDR,
        };
        use std::mem::offset_of;

        #[test]
        fn env_offsets_match_translator() {
            assert_eq!(offset_of!(JitEnv, slots), OFF_SLOTS as usize);
            assert_eq!(offset_of!(JitEnv, mems), OFF_MEMS as usize);
            assert_eq!(offset_of!(JitEnv, cycles), OFF_CYCLES as usize);
            assert_eq!(offset_of!(JitEnv, max_cycles), OFF_MAX as usize);
            assert_eq!(offset_of!(JitEnv, aux), OFF_AUX as usize);
            assert_eq!(offset_of!(JitEnv, ret_val), OFF_RET as usize);
            assert_eq!(offset_of!(JitEnv, ret_set), OFF_RETSET as usize);
            assert_eq!(offset_of!(JitEnv, trap_addr), OFF_TRAP_ADDR as usize);
            assert_eq!(offset_of!(MemDesc, base), 0);
            assert_eq!(offset_of!(MemDesc, len), 8);
            assert_eq!(std::mem::size_of::<MemDesc>(), 16);
        }

        #[test]
        fn helper_matches_eval_bin() {
            for &(op, code) in &[
                (BinKind::Div, 0u64),
                (BinKind::Rem, 1),
                (BinKind::Shl, 2),
                (BinKind::Shr, 3),
            ] {
                for &(w, s) in &[(8u16, true), (32, false), (64, true), (17, false)] {
                    let ty = IntType::new(w, s);
                    let packed = crate::translate::pack_bin(op, ty) as u64;
                    assert_eq!(packed & 0xff, code);
                    for &(a, b) in &[(7i64, 3i64), (-5, 0), (i64::MIN, -1), (100, 70)] {
                        let (a, b) = (ty.canonicalize(a), ty.canonicalize(b));
                        assert_eq!(
                            jit_bin_helper(packed, a, b),
                            chls_ir::eval_bin(op, ty, a, b)
                        );
                    }
                }
            }
        }
    }
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
mod imp {
    use chls_rtl::fsmd::Fsmd;
    use chls_sim::fsmd_sim::{FsmdSimError, FsmdSimResult};
    use chls_sim::interp::ArgValue;

    /// JIT execution is never available on this host.
    pub fn available() -> bool {
        false
    }

    /// Placeholder on hosts without JIT support; never constructible.
    pub struct JitProgram<'f> {
        never: std::convert::Infallible,
        _design: std::marker::PhantomData<&'f Fsmd>,
    }

    impl<'f> JitProgram<'f> {
        /// Always `None` on this host.
        pub fn compile(_f: &'f Fsmd) -> Option<JitProgram<'f>> {
            None
        }

        /// Always `None` on this host.
        pub fn compile_with(_f: &'f Fsmd, _force_fallback: bool) -> Option<JitProgram<'f>> {
            None
        }

        /// Unreachable (no `JitProgram` value can exist).
        pub fn code(&self) -> &[u8] {
            match self.never {}
        }

        /// Unreachable (no `JitProgram` value can exist).
        pub fn run(
            &self,
            _args: &[ArgValue],
            _max_cycles: u64,
        ) -> Result<FsmdSimResult, FsmdSimError> {
            match self.never {}
        }

        /// Unreachable (no `JitProgram` value can exist).
        pub fn run_counted(
            &self,
            _args: &[ArgValue],
            _max_cycles: u64,
        ) -> Result<(FsmdSimResult, u64), FsmdSimError> {
            match self.never {}
        }
    }

    /// Interpreter passthrough on hosts without JIT support.
    ///
    /// # Errors
    ///
    /// See [`FsmdSimError`].
    pub fn simulate(
        f: &Fsmd,
        args: &[ArgValue],
        max_cycles: u64,
    ) -> Result<FsmdSimResult, FsmdSimError> {
        chls_sim::fsmd_sim::simulate(f, args, max_cycles)
    }
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub use buf::{pooled_mappings, trim_pool, POOL_MAPPINGS};
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub use imp::MemDesc;
pub use imp::{available, simulate, JitProgram};

/// The most sealed code mappings the page pool keeps (no pool exists on
/// this host).
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
pub const POOL_MAPPINGS: usize = 0;

/// Number of pooled code mappings: always 0 on this host.
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
pub fn pooled_mappings() -> usize {
    0
}

/// Unmaps every pooled code mapping: nothing to do on this host.
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
pub fn trim_pool() {}

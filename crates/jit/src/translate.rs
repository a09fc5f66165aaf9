//! Tape → x86-64 translation.
//!
//! Each FSMD state's micro-op tape becomes one native block. The whole
//! per-cycle loop — cycle counting, datapath evaluation, next-state
//! choice, and the simultaneous commit — runs in native code; Rust is
//! re-entered only to finish (`Done`), to report a cycle-limit stop or
//! an out-of-bounds access, or to interpret a fallback state.
//!
//! # Register convention
//!
//! | register | role |
//! |---|---|
//! | `r14` | [`JitEnv`](crate::JitEnv) pointer |
//! | `r15` | slot-array base |
//! | `rbx` | cycle counter |
//! | `r13` | cycle limit |
//! | `rsi rdi r8-r12` | slot cache pool ([`crate::regalloc`]) |
//! | `rax rcx rdx` | fixed scratch (division helper, setcc, commits) |
//!
//! # Commits
//!
//! The tape is `chls_sim::tape::compile`'s lowered one, so most register
//! writes are plain slot writes, in place. The staged rest,
//! `StageReg`/`StageMemWrite`, write their (canonicalized) values into
//! *shadow slots* past the tape's own slot space, plus a guard flag
//! slot when the staging is inside a lazy skip region (the flags are
//! zeroed at block entry). The next-state decision is made from
//! pre-commit values, then a per-edge stub replays the staged updates
//! in tape order and jumps to the next state's block — exactly the
//! interpreter's ordering in `chls_sim::tape::exec_state`.
//!
//! # Traps
//!
//! Each bounds check jumps to a cold stub of its own, placed after the
//! last state's block. The stub stores the faulting address and the
//! memory index in the environment and exits with [`EXIT_TRAP`], so the
//! driver builds the interpreter's error without running the state
//! again.

use crate::regalloc::{slot_disp, RegCache, SLOTS};
use crate::x86::{AluOp, Cc, Label, MInst, Reg, ShiftKind};
use chls_frontend::IntType;
use chls_ir::BinKind;
use chls_sim::tape::{CNext, TInst, Tape};

/// `JitEnv` field offsets — must match the `#[repr(C)]` struct in
/// `lib.rs` (asserted there).
pub const OFF_SLOTS: i32 = 0x00;
/// Offset of the memory-descriptor array pointer.
pub const OFF_MEMS: i32 = 0x08;
/// Offset of the cycle counter.
pub const OFF_CYCLES: i32 = 0x10;
/// Offset of the cycle limit.
pub const OFF_MAX: i32 = 0x18;
/// Offset of the auxiliary word (fallback state id, or trapping memory
/// index).
pub const OFF_AUX: i32 = 0x20;
/// Offset of the sampled return value.
pub const OFF_RET: i32 = 0x28;
/// Offset of the return-value-present flag.
pub const OFF_RETSET: i32 = 0x30;
/// Offset of the address an out-of-bounds access tried.
pub const OFF_TRAP_ADDR: i32 = 0x38;

/// Native exit codes returned in `rax`.
pub const EXIT_DONE: u64 = 0;
/// The cycle limit was reached.
pub const EXIT_LIMIT: u64 = 1;
/// A memory access trapped; the memory index is in the aux field and
/// the address in the trap-address field.
pub const EXIT_TRAP: u64 = 2;
/// The state must be interpreted; the state id is in the aux field.
pub const EXIT_FALLBACK: u64 = 3;

const ENV: Reg = Reg::R14;
const CYC: Reg = Reg::Rbx;
const MAXC: Reg = Reg::R13;

/// Result of translating a whole tape. The micro-instruction stream
/// itself is left in [`Scratch::insts`].
pub struct Translated {
    /// Number of labels allocated (for the assembler). Labels
    /// `0..tape.states.len()` are the state entries, in state order.
    pub n_labels: u32,
    /// Shadow/flag slots appended past `tape.n_slots`.
    pub extra_slots: usize,
    /// How many states compiled as interpreter-fallback stubs.
    pub fallback_blocks: usize,
}

/// The translator's working storage. One lives per thread and is reused
/// by every compile, so a steady stream of compiles allocates nothing
/// here once the vectors have grown to the largest design's needs.
#[derive(Default)]
pub struct Scratch {
    /// The optimized micro-instruction stream of the last translation
    /// (prologue at entry 0).
    pub insts: Vec<MInst>,
    /// Per block position: inside a forward-skip region?
    guarded: Vec<bool>,
    /// The current state's staged updates, in tape order.
    stagings: Vec<Staging>,
    /// Per block position, and the block end: the label a skip to it
    /// binds there, or [`NO_LABEL`].
    skip_labels: Vec<Label>,
    /// Slots the current state's epilogue reads.
    tail: Vec<u32>,
    /// The current state's edge stubs: (label, target state or `None`
    /// for done).
    stubs: Vec<(Label, Option<u32>)>,
    /// The trap stubs: (label, address register, memory index), one per
    /// bounds check.
    traps: Vec<(Label, Reg, u32)>,
}

/// No skip lands at this block position.
const NO_LABEL: Label = Label::MAX;

/// What a staged update commits to.
enum StKind {
    Reg(u32),
    Mem(u32),
}

/// One staged update's shadow layout.
struct Staging {
    kind: StKind,
    val_sh: u32,
    addr_sh: u32,
    flag: Option<u32>,
}

/// One state's tape and the tables its instructions translate against.
struct Block<'a> {
    code: &'a [TInst],
    /// Absolute tape position of `code[0]`.
    s0: usize,
    /// Slots the epilogue reads, so the evictor knows they stay live.
    tail: &'a [u32],
    skip_labels: &'a [Label],
    stagings: &'a [Staging],
    /// The tape's constant slots and values, in slot order.
    consts: &'a [(u32, i64)],
}

impl Block<'_> {
    /// Distance (in tape instructions) from `from` to the next read of
    /// `s`, for the eviction heuristic. A redefinition before any read
    /// means the cached value is dead (`u32::MAX`); a slot only the
    /// epilogue reads is as far away as the block end.
    fn next_use(&self, from: usize, s: u32) -> u32 {
        let end = self.code.len();
        for (d, inst) in self.code[from..].iter().enumerate() {
            if inst.reads().contains(&Some(s)) {
                return d as u32;
            }
            if inst.writes() == Some(s) {
                return u32::MAX;
            }
        }
        if self.tail.contains(&s) {
            (end - from) as u32
        } else {
            u32::MAX
        }
    }

    /// The label bound at absolute tape position `target`.
    fn skip_label(&self, target: u32) -> Label {
        self.skip_labels[target as usize - self.s0]
    }

    /// The constant held in `slot`, if it is a constant slot.
    fn const_value(&self, slot: u32) -> Option<i64> {
        self.consts
            .binary_search_by_key(&slot, |&(s, _)| s)
            .ok()
            .map(|k| self.consts[k].1)
    }
}

/// Emits the canonicalization of `r` to `ty` (truncate + re-extend),
/// mirroring `IntType::canonicalize`.
fn emit_canon(out: &mut Vec<MInst>, r: Reg, ty: IntType) {
    if ty.width == 64 {
        return;
    }
    let n = (64 - ty.width) as u8;
    if ty.signed {
        out.push(MInst::ShiftI {
            kind: ShiftKind::Shl,
            reg: r,
            amt: n,
        });
        out.push(MInst::ShiftI {
            kind: ShiftKind::Sar,
            reg: r,
            amt: n,
        });
    } else if ty.width == 32 {
        // 32-bit mov zero-extends the upper half.
        out.push(MInst::MovR32 { dst: r, src: r });
    } else {
        out.push(MInst::ShiftI {
            kind: ShiftKind::Shl,
            reg: r,
            amt: n,
        });
        out.push(MInst::ShiftI {
            kind: ShiftKind::Shr,
            reg: r,
            amt: n,
        });
    }
}

/// Packs an `eval_bin` helper request: op in bits 0..8, width in 8..24,
/// signedness in bit 24. Decoded by `jit_bin_helper` in `lib.rs`.
pub fn pack_bin(op: BinKind, ty: IntType) -> i64 {
    let opc: i64 = match op {
        BinKind::Div => 0,
        BinKind::Rem => 1,
        BinKind::Shl => 2,
        BinKind::Shr => 3,
        _ => unreachable!("only cold ops reach the helper"),
    };
    opc | ((ty.width as i64) << 8) | ((ty.signed as i64) << 24)
}

struct Tr<'s> {
    out: &'s mut Vec<MInst>,
    labels: u32,
    helper_addr: i64,
}

impl Tr<'_> {
    fn fresh(&mut self) -> Label {
        let l = self.labels;
        self.labels += 1;
        l
    }

    fn store_slot(&mut self, slot: u32, src: Reg) {
        self.out.push(MInst::Store {
            base: SLOTS,
            disp: slot_disp(slot),
            src,
        });
    }

    fn load_slot_into(&mut self, dst: Reg, slot: u32) {
        self.out.push(MInst::Load {
            dst,
            base: SLOTS,
            disp: slot_disp(slot),
        });
    }

    /// The stub label for an edge to `target` (`None`: done), shared by
    /// every decision branch that takes the same edge.
    fn stub_for(&mut self, stubs: &mut Vec<(Label, Option<u32>)>, target: Option<u32>) -> Label {
        if let Some(&(l, _)) = stubs.iter().find(|(_, t)| *t == target) {
            return l;
        }
        let l = self.fresh();
        stubs.push((l, target));
        l
    }
}

/// Translates every state of `tape` into a micro-instruction stream,
/// peephole-optimized and ready to assemble, left in `scratch.insts`.
pub fn translate(
    scratch: &mut Scratch,
    tape: &Tape,
    helper_addr: i64,
    force_fallback: bool,
) -> Translated {
    let Scratch {
        insts,
        guarded,
        stagings,
        skip_labels,
        tail,
        stubs,
        traps,
    } = scratch;
    insts.clear();
    traps.clear();
    let mut tr = Tr {
        out: &mut *insts,
        labels: 0,
        helper_addr,
    };
    let n_states = tape.states.len();
    // Labels 0..n_states are the state entries.
    tr.labels = n_states as u32;
    let exit_done = tr.fresh();
    let exit_limit = tr.fresh();
    let exit_trap = tr.fresh();
    let out_lbl = tr.fresh();

    // Prologue: save callee-saved registers (5 pushes also restore the
    // 16-byte stack alignment helper calls need), bind the convention,
    // and dispatch to the caller-chosen entry block (2nd argument).
    tr.out.push(MInst::Push(Reg::Rbx));
    tr.out.push(MInst::Push(Reg::R12));
    tr.out.push(MInst::Push(Reg::R13));
    tr.out.push(MInst::Push(Reg::R14));
    tr.out.push(MInst::Push(Reg::R15));
    tr.out.push(MInst::MovRR {
        dst: ENV,
        src: Reg::Rdi,
    });
    tr.out.push(MInst::Load {
        dst: SLOTS,
        base: ENV,
        disp: OFF_SLOTS,
    });
    tr.out.push(MInst::Load {
        dst: CYC,
        base: ENV,
        disp: OFF_CYCLES,
    });
    tr.out.push(MInst::Load {
        dst: MAXC,
        base: ENV,
        disp: OFF_MAX,
    });
    tr.out.push(MInst::JmpReg(Reg::Rsi));

    let mut next_shadow = tape.n_slots as u32;
    let mut fallback_blocks = 0usize;

    for (si, st) in tape.states.iter().enumerate() {
        let (s0, s1) = (st.tape.0 as usize, st.tape.1 as usize);
        let block = &tape.code[s0..s1];

        // Block header: count the cycle, check the limit.
        tr.out.push(MInst::Bind(si as Label));
        tr.out.push(MInst::AddRI { reg: CYC, imm: 1 });
        tr.out.push(MInst::Alu {
            op: AluOp::Cmp,
            dst: CYC,
            src: MAXC,
        });
        tr.out.push(MInst::Jcc {
            cc: Cc::A,
            label: exit_limit,
        });

        // Stuck (statically deadlocked) states carry an error payload
        // native code cannot produce — run them through the tape
        // interpreter so the JIT reports the identical Deadlock error.
        if force_fallback || matches!(st.next, CNext::Stuck(_)) {
            fallback_blocks += 1;
            tr.out.push(MInst::MovRI {
                dst: Reg::Rcx,
                imm: si as i64,
            });
            tr.out.push(MInst::Store {
                base: ENV,
                disp: OFF_AUX,
                src: Reg::Rcx,
            });
            tr.out.push(MInst::MovRI {
                dst: Reg::Rax,
                imm: EXIT_FALLBACK as i64,
            });
            tr.out.push(MInst::Jmp { label: out_lbl });
            continue;
        }

        // Which tape positions sit inside a forward-skip region — their
        // stagings are conditional and need guard flags.
        guarded.clear();
        guarded.resize(block.len(), false);
        for (i, inst) in block.iter().enumerate() {
            if let TInst::SkipIfZero { target, .. } | TInst::Skip { target } = inst {
                for g in guarded
                    .iter_mut()
                    .take((*target as usize).saturating_sub(s0))
                    .skip(i + 1)
                {
                    *g = true;
                }
            }
        }

        // Shadow-slot layout for this state's staged updates.
        stagings.clear();
        for (i, inst) in block.iter().enumerate() {
            let mut alloc = || {
                let s = next_shadow;
                next_shadow += 1;
                s
            };
            match inst {
                TInst::StageReg { reg, .. } => {
                    let val_sh = alloc();
                    let flag = guarded[i].then(&mut alloc);
                    stagings.push(Staging {
                        kind: StKind::Reg(*reg),
                        val_sh,
                        addr_sh: 0,
                        flag,
                    });
                }
                TInst::StageMemWrite { mem, .. } => {
                    let val_sh = alloc();
                    let addr_sh = alloc();
                    let flag = guarded[i].then(&mut alloc);
                    stagings.push(Staging {
                        kind: StKind::Mem(*mem),
                        val_sh,
                        addr_sh,
                        flag,
                    });
                }
                _ => {}
            }
        }

        // Zero the guard flags for this cycle.
        for fl in stagings.iter().filter_map(|s| s.flag) {
            tr.out.push(MInst::StoreImm {
                base: SLOTS,
                disp: slot_disp(fl),
                imm: 0,
            });
        }

        // Intra-block labels for forward skips, by block position.
        skip_labels.clear();
        skip_labels.resize(block.len() + 1, NO_LABEL);
        for inst in block {
            if let TInst::SkipIfZero { target, .. } | TInst::Skip { target } = inst {
                let l = &mut skip_labels[*target as usize - s0];
                if *l == NO_LABEL {
                    *l = tr.fresh();
                }
            }
        }

        // Epilogue-read slots, so the evictor knows they stay live.
        tail.clear();
        match &st.next {
            CNext::Branch { cond, .. } => tail.push(*cond),
            CNext::Cases { conds, .. } => tail.extend(conds.iter().map(|&(c, _)| c)),
            CNext::CasesLazy { sel, .. } => tail.push(*sel),
            CNext::Goto(_) | CNext::Done | CNext::Stuck(_) => {}
        }
        if let Some(r) = st.ret {
            tail.push(r);
        }

        let blk = Block {
            code: block,
            s0,
            tail,
            skip_labels,
            stagings,
            consts: &tape.const_init,
        };

        let mut cache = RegCache::new();
        let mut staging_idx = 0usize;
        for (i, inst) in block.iter().enumerate() {
            let l = skip_labels[i];
            if l != NO_LABEL {
                tr.out.push(MInst::Bind(l));
                cache.clear();
            }
            translate_inst(&mut tr, &mut cache, &blk, i, inst, &mut staging_idx, traps);
            cache.unpin_all();
        }
        // A skip may target the tape end.
        let l = skip_labels[block.len()];
        if l != NO_LABEL {
            tr.out.push(MInst::Bind(l));
            cache.clear();
        }

        // Decision: pick the edge from pre-commit values, then each edge
        // stub commits and jumps.
        stubs.clear();
        let nu_end = |_s: u32| 0u32; // decision loads: any victim is fine
        match &st.next {
            CNext::Done => {
                let l = tr.stub_for(stubs, None);
                tr.out.push(MInst::Jmp { label: l });
            }
            CNext::Goto(t) => {
                let l = tr.stub_for(stubs, Some(*t));
                tr.out.push(MInst::Jmp { label: l });
            }
            CNext::Branch { cond, then, els } => {
                let rc = cache.get(*cond, tr.out, &mut { nu_end });
                cache.unpin_all();
                tr.out.push(MInst::Alu {
                    op: AluOp::Test,
                    dst: rc,
                    src: rc,
                });
                let lt = tr.stub_for(stubs, Some(*then));
                tr.out.push(MInst::Jcc {
                    cc: Cc::Ne,
                    label: lt,
                });
                let le = tr.stub_for(stubs, Some(*els));
                tr.out.push(MInst::Jmp { label: le });
            }
            CNext::Cases { conds, default } => {
                for &(c, t) in conds.iter() {
                    let rc = cache.get(c, tr.out, &mut { nu_end });
                    cache.unpin_all();
                    tr.out.push(MInst::Alu {
                        op: AluOp::Test,
                        dst: rc,
                        src: rc,
                    });
                    let l = tr.stub_for(stubs, Some(t));
                    tr.out.push(MInst::Jcc {
                        cc: Cc::Ne,
                        label: l,
                    });
                }
                let l = tr.stub_for(stubs, Some(*default));
                tr.out.push(MInst::Jmp { label: l });
            }
            CNext::CasesLazy {
                sel,
                targets,
                default,
            } => {
                let rs = cache.get(*sel, tr.out, &mut { nu_end });
                for (k, &t) in targets.iter().enumerate() {
                    tr.out.push(MInst::CmpRI {
                        reg: rs,
                        imm: k as i32,
                    });
                    let l = tr.stub_for(stubs, Some(t));
                    tr.out.push(MInst::Jcc {
                        cc: Cc::E,
                        label: l,
                    });
                }
                cache.unpin_all();
                let l = tr.stub_for(stubs, Some(*default));
                tr.out.push(MInst::Jmp { label: l });
            }
            CNext::Stuck(_) => unreachable!("stuck states are fallback states"),
        }

        // Edge stubs: (pre-commit ret sample for Done), commits in tape
        // order, then transfer.
        for &(lbl, target) in stubs.iter() {
            tr.out.push(MInst::Bind(lbl));
            if target.is_none() {
                if let Some(rs) = st.ret {
                    tr.load_slot_into(Reg::Rcx, rs);
                    tr.out.push(MInst::Store {
                        base: ENV,
                        disp: OFF_RET,
                        src: Reg::Rcx,
                    });
                    tr.out.push(MInst::StoreImm {
                        base: ENV,
                        disp: OFF_RETSET,
                        imm: 1,
                    });
                }
            }
            for stg in stagings.iter() {
                let skip = stg.flag.map(|fl| {
                    let l = tr.fresh();
                    tr.load_slot_into(Reg::Rcx, fl);
                    tr.out.push(MInst::Alu {
                        op: AluOp::Test,
                        dst: Reg::Rcx,
                        src: Reg::Rcx,
                    });
                    tr.out.push(MInst::Jcc {
                        cc: Cc::E,
                        label: l,
                    });
                    l
                });
                match stg.kind {
                    StKind::Reg(r) => {
                        tr.load_slot_into(Reg::Rcx, stg.val_sh);
                        tr.store_slot(r, Reg::Rcx);
                    }
                    StKind::Mem(m) => {
                        tr.load_slot_into(Reg::Rcx, stg.addr_sh);
                        tr.load_slot_into(Reg::Rdx, stg.val_sh);
                        tr.out.push(MInst::Load {
                            dst: Reg::Rax,
                            base: ENV,
                            disp: OFF_MEMS,
                        });
                        tr.out.push(MInst::Load {
                            dst: Reg::Rax,
                            base: Reg::Rax,
                            disp: (m as i32) * 16,
                        });
                        tr.out.push(MInst::StoreIdx {
                            base: Reg::Rax,
                            idx: Reg::Rcx,
                            src: Reg::Rdx,
                        });
                    }
                }
                if let Some(l) = skip {
                    tr.out.push(MInst::Bind(l));
                }
            }
            match target {
                Some(t) => tr.out.push(MInst::Jmp { label: t as Label }),
                None => tr.out.push(MInst::Jmp { label: exit_done }),
            }
        }
    }

    // Trap stubs: record the address and the memory, then exit.
    for &(lbl, ra, mem) in traps.iter() {
        tr.out.push(MInst::Bind(lbl));
        tr.out.push(MInst::Store {
            base: ENV,
            disp: OFF_TRAP_ADDR,
            src: ra,
        });
        tr.out.push(MInst::StoreImm {
            base: ENV,
            disp: OFF_AUX,
            imm: mem as i32,
        });
        tr.out.push(MInst::Jmp { label: exit_trap });
    }

    // Shared exits.
    tr.out.push(MInst::Bind(exit_trap));
    tr.out.push(MInst::MovRI {
        dst: Reg::Rax,
        imm: EXIT_TRAP as i64,
    });
    tr.out.push(MInst::Jmp { label: out_lbl });
    tr.out.push(MInst::Bind(exit_done));
    tr.out.push(MInst::MovRI {
        dst: Reg::Rax,
        imm: EXIT_DONE as i64,
    });
    tr.out.push(MInst::Jmp { label: out_lbl });
    tr.out.push(MInst::Bind(exit_limit));
    tr.out.push(MInst::MovRI {
        dst: Reg::Rax,
        imm: EXIT_LIMIT as i64,
    });
    tr.out.push(MInst::Bind(out_lbl));
    tr.out.push(MInst::Store {
        base: ENV,
        disp: OFF_CYCLES,
        src: CYC,
    });
    tr.out.push(MInst::Pop(Reg::R15));
    tr.out.push(MInst::Pop(Reg::R14));
    tr.out.push(MInst::Pop(Reg::R13));
    tr.out.push(MInst::Pop(Reg::R12));
    tr.out.push(MInst::Pop(Reg::Rbx));
    tr.out.push(MInst::Ret);

    let n_labels = tr.labels;
    crate::peephole::optimize(insts);
    Translated {
        n_labels,
        extra_slots: (next_shadow as usize) - tape.n_slots,
        fallback_blocks,
    }
}

/// Emits the bounds check `addr < len(mem)` (unsigned compare also
/// catches negative addresses), jumping on failure to a trap stub of its
/// own, queued in `traps`. Leaves the memory base pointer in `rcx`.
fn emit_bounds_check(tr: &mut Tr, ra: Reg, mem: u32, traps: &mut Vec<(Label, Reg, u32)>) {
    tr.out.push(MInst::Load {
        dst: Reg::Rcx,
        base: ENV,
        disp: OFF_MEMS,
    });
    tr.out.push(MInst::Load {
        dst: Reg::Rdx,
        base: Reg::Rcx,
        disp: (mem as i32) * 16 + 8,
    });
    tr.out.push(MInst::Alu {
        op: AluOp::Cmp,
        dst: ra,
        src: Reg::Rdx,
    });
    let l = tr.fresh();
    traps.push((l, ra, mem));
    tr.out.push(MInst::Jcc {
        cc: Cc::Ae,
        label: l,
    });
    tr.out.push(MInst::Load {
        dst: Reg::Rcx,
        base: Reg::Rcx,
        disp: (mem as i32) * 16,
    });
}

fn translate_inst(
    tr: &mut Tr,
    cache: &mut RegCache,
    blk: &Block,
    i: usize,
    inst: &TInst,
    staging_idx: &mut usize,
    traps: &mut Vec<(Label, Reg, u32)>,
) {
    // Shorthand: furthest-next-use lookahead from the next instruction.
    macro_rules! nu {
        () => {
            &mut |s: u32| blk.next_use(i + 1, s)
        };
    }
    match *inst {
        TInst::Add { ty, dst, a, b } => bin_rr(tr, cache, blk, i, AluOp::Add, Some(ty), dst, a, b),
        TInst::Sub { ty, dst, a, b } => bin_rr(tr, cache, blk, i, AluOp::Sub, Some(ty), dst, a, b),
        TInst::Mul { ty, dst, a, b } => bin_rr(tr, cache, blk, i, AluOp::Imul, Some(ty), dst, a, b),
        TInst::And { dst, a, b } => bin_rr(tr, cache, blk, i, AluOp::And, None, dst, a, b),
        TInst::Or { dst, a, b } => bin_rr(tr, cache, blk, i, AluOp::Or, None, dst, a, b),
        TInst::Xor { dst, a, b } => bin_rr(tr, cache, blk, i, AluOp::Xor, None, dst, a, b),
        TInst::CmpEq { dst, a, b } => cmp_rr(tr, cache, blk, i, Cc::E, dst, a, b),
        TInst::CmpNe { dst, a, b } => cmp_rr(tr, cache, blk, i, Cc::Ne, dst, a, b),
        TInst::CmpLtS { dst, a, b } => cmp_rr(tr, cache, blk, i, Cc::L, dst, a, b),
        TInst::CmpLtU { dst, a, b } => cmp_rr(tr, cache, blk, i, Cc::B, dst, a, b),
        TInst::CmpLeS { dst, a, b } => cmp_rr(tr, cache, blk, i, Cc::Le, dst, a, b),
        TInst::CmpLeU { dst, a, b } => cmp_rr(tr, cache, blk, i, Cc::Be, dst, a, b),
        TInst::CmpGtS { dst, a, b } => cmp_rr(tr, cache, blk, i, Cc::G, dst, a, b),
        TInst::CmpGtU { dst, a, b } => cmp_rr(tr, cache, blk, i, Cc::A, dst, a, b),
        TInst::CmpGeS { dst, a, b } => cmp_rr(tr, cache, blk, i, Cc::Ge, dst, a, b),
        TInst::CmpGeU { dst, a, b } => cmp_rr(tr, cache, blk, i, Cc::Ae, dst, a, b),
        TInst::Un { op, ty, dst, a } => {
            let ra = cache.get(a, tr.out, nu!());
            let rd = cache.def(dst, nu!());
            tr.out.push(MInst::MovRR { dst: rd, src: ra });
            match op {
                chls_ir::UnKind::Neg => tr.out.push(MInst::Neg(rd)),
                chls_ir::UnKind::Not => tr.out.push(MInst::Not(rd)),
            }
            emit_canon(tr.out, rd, ty);
            tr.store_slot(dst, rd);
        }
        TInst::Cast { ty, dst, a } => {
            let ra = cache.get(a, tr.out, nu!());
            let rd = cache.def(dst, nu!());
            tr.out.push(MInst::MovRR { dst: rd, src: ra });
            emit_canon(tr.out, rd, ty);
            tr.store_slot(dst, rd);
        }
        TInst::Copy { dst, a } => {
            let ra = cache.get(a, tr.out, nu!());
            let rd = cache.def(dst, nu!());
            tr.out.push(MInst::MovRR { dst: rd, src: ra });
            tr.store_slot(dst, rd);
        }
        TInst::SetImm { dst, val } => {
            let rd = cache.def(dst, nu!());
            tr.out.push(MInst::MovRI { dst: rd, imm: val });
            tr.store_slot(dst, rd);
        }
        TInst::Select { dst, cond, t, f } => {
            let rc = cache.get(cond, tr.out, nu!());
            let rt = cache.get(t, tr.out, nu!());
            let rf = cache.get(f, tr.out, nu!());
            let rd = cache.def(dst, nu!());
            tr.out.push(MInst::MovRR { dst: rd, src: rf });
            tr.out.push(MInst::Alu {
                op: AluOp::Test,
                dst: rc,
                src: rc,
            });
            tr.out.push(MInst::Cmov {
                cc: Cc::Ne,
                dst: rd,
                src: rt,
            });
            tr.store_slot(dst, rd);
        }
        TInst::Bin { op, ty, dst, a, b } => {
            // Constant shift amounts specialize to native shifts with
            // eval_bin's exact clamp semantics.
            let const_sh = matches!(op, BinKind::Shl | BinKind::Shr)
                .then(|| blk.const_value(b))
                .flatten();
            if let Some(cv) = const_sh {
                let ub = (cv as u64) & ty.mask();
                let sh = ub.min(63) as u8;
                if u16::from(sh) >= ty.width {
                    if op == BinKind::Shr && ty.signed {
                        // Sign fill: -1 when negative, else 0.
                        let ra = cache.get(a, tr.out, nu!());
                        let rd = cache.def(dst, nu!());
                        tr.out.push(MInst::MovRR { dst: rd, src: ra });
                        tr.out.push(MInst::ShiftI {
                            kind: ShiftKind::Sar,
                            reg: rd,
                            amt: 63,
                        });
                        tr.store_slot(dst, rd);
                    } else {
                        let rd = cache.def(dst, nu!());
                        tr.out.push(MInst::MovRI { dst: rd, imm: 0 });
                        tr.store_slot(dst, rd);
                    }
                } else {
                    let ra = cache.get(a, tr.out, nu!());
                    let rd = cache.def(dst, nu!());
                    tr.out.push(MInst::MovRR { dst: rd, src: ra });
                    match (op, ty.signed) {
                        (BinKind::Shl, _) => {
                            tr.out.push(MInst::ShiftI {
                                kind: ShiftKind::Shl,
                                reg: rd,
                                amt: sh,
                            });
                            emit_canon(tr.out, rd, ty);
                        }
                        (BinKind::Shr, true) => tr.out.push(MInst::ShiftI {
                            kind: ShiftKind::Sar,
                            reg: rd,
                            amt: sh,
                        }),
                        (BinKind::Shr, false) => tr.out.push(MInst::ShiftI {
                            kind: ShiftKind::Shr,
                            reg: rd,
                            amt: sh,
                        }),
                        _ => unreachable!(),
                    }
                    tr.store_slot(dst, rd);
                }
            } else {
                // Division, remainder, dynamic shifts: call straight
                // into `chls_ir::eval_bin` — bit-exact by construction.
                cache.clear();
                tr.out.push(MInst::MovRI {
                    dst: Reg::Rdi,
                    imm: pack_bin(op, ty),
                });
                tr.load_slot_into(Reg::Rsi, a);
                tr.load_slot_into(Reg::Rdx, b);
                tr.out.push(MInst::MovRI {
                    dst: Reg::Rax,
                    imm: tr.helper_addr,
                });
                tr.out.push(MInst::CallReg(Reg::Rax));
                tr.store_slot(dst, Reg::Rax);
            }
        }
        TInst::MemRead { mem, dst, addr } => {
            let ra = cache.get(addr, tr.out, nu!());
            emit_bounds_check(tr, ra, mem, traps);
            let rd = cache.def(dst, nu!());
            tr.out.push(MInst::LoadIdx {
                dst: rd,
                base: Reg::Rcx,
                idx: ra,
            });
            tr.store_slot(dst, rd);
        }
        TInst::SkipIfZero { cond, target } => {
            let rc = cache.get(cond, tr.out, nu!());
            tr.out.push(MInst::Alu {
                op: AluOp::Test,
                dst: rc,
                src: rc,
            });
            cache.clear();
            tr.out.push(MInst::Jcc {
                cc: Cc::E,
                label: blk.skip_label(target),
            });
        }
        TInst::Skip { target } => {
            cache.clear();
            tr.out.push(MInst::Jmp {
                label: blk.skip_label(target),
            });
        }
        TInst::StageReg { ty, val, .. } => {
            let stg = &blk.stagings[*staging_idx];
            *staging_idx += 1;
            let rv = cache.get(val, tr.out, nu!());
            tr.out.push(MInst::MovRR {
                dst: Reg::Rdx,
                src: rv,
            });
            emit_canon(tr.out, Reg::Rdx, ty);
            tr.store_slot(stg.val_sh, Reg::Rdx);
            if let Some(fl) = stg.flag {
                tr.out.push(MInst::StoreImm {
                    base: SLOTS,
                    disp: slot_disp(fl),
                    imm: 1,
                });
            }
        }
        TInst::StageMemWrite {
            mem,
            elem,
            addr,
            val,
        } => {
            let stg = &blk.stagings[*staging_idx];
            *staging_idx += 1;
            let ra = cache.get(addr, tr.out, nu!());
            emit_bounds_check(tr, ra, mem, traps);
            tr.store_slot(stg.addr_sh, ra);
            let rv = cache.get(val, tr.out, nu!());
            tr.out.push(MInst::MovRR {
                dst: Reg::Rdx,
                src: rv,
            });
            emit_canon(tr.out, Reg::Rdx, elem);
            tr.store_slot(stg.val_sh, Reg::Rdx);
            if let Some(fl) = stg.flag {
                tr.out.push(MInst::StoreImm {
                    base: SLOTS,
                    disp: slot_disp(fl),
                    imm: 1,
                });
            }
        }
    }
}

/// Shared emission for the hot two-operand ALU forms: `dst = a op b`,
/// canonicalized when `ty` is given.
#[allow(clippy::too_many_arguments)]
fn bin_rr(
    tr: &mut Tr,
    cache: &mut RegCache,
    blk: &Block,
    i: usize,
    op: AluOp,
    ty: Option<IntType>,
    dst: u32,
    a: u32,
    b: u32,
) {
    let nu = &mut |s: u32| blk.next_use(i + 1, s);
    let ra = cache.get(a, tr.out, nu);
    let rb = cache.get(b, tr.out, nu);
    let rd = cache.def(dst, nu);
    tr.out.push(MInst::MovRR { dst: rd, src: ra });
    tr.out.push(MInst::Alu {
        op,
        dst: rd,
        src: rb,
    });
    if let Some(ty) = ty {
        emit_canon(tr.out, rd, ty);
    }
    tr.store_slot(dst, rd);
}

/// Shared emission for comparisons: `dst = (a cc b) ? 1 : 0`.
#[allow(clippy::too_many_arguments)]
fn cmp_rr(
    tr: &mut Tr,
    cache: &mut RegCache,
    blk: &Block,
    i: usize,
    cc: Cc,
    dst: u32,
    a: u32,
    b: u32,
) {
    let nu = &mut |s: u32| blk.next_use(i + 1, s);
    let ra = cache.get(a, tr.out, nu);
    let rb = cache.get(b, tr.out, nu);
    tr.out.push(MInst::Alu {
        op: AluOp::Cmp,
        dst: ra,
        src: rb,
    });
    let rd = cache.def(dst, nu);
    tr.out.push(MInst::Setcc { cc, dst: rd });
    tr.store_slot(dst, rd);
}

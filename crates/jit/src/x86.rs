//! A small x86-64 instruction layer: a typed micro-instruction stream
//! ([`MInst`]) and a byte encoder ([`assemble`]) with label fixups.
//!
//! The translator emits `MInst`s, the peephole pass rewrites the stream
//! (see [`crate::peephole`]), and only then are bytes produced — so all
//! pattern matching happens on a typed IR rather than on raw encodings.
//! An [`Asm`] keeps its buffers between calls, so a compile that fits
//! in what earlier ones grew allocates nothing.
//!
//! Only the instructions the tape translator needs are implemented, all
//! operating on 64-bit registers (REX.W) unless noted.

/// A hardware register, numbered per the x86-64 encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
#[allow(missing_docs)]
// rsp/rbp are listed for encoding completeness (they drive the SIB and
// disp special cases) even though the translator never allocates them.
#[allow(dead_code)]
pub enum Reg {
    Rax = 0,
    Rcx = 1,
    Rdx = 2,
    Rbx = 3,
    Rsp = 4,
    Rbp = 5,
    Rsi = 6,
    Rdi = 7,
    R8 = 8,
    R9 = 9,
    R10 = 10,
    R11 = 11,
    R12 = 12,
    R13 = 13,
    R14 = 14,
    R15 = 15,
}

impl Reg {
    fn num(self) -> u8 {
        self as u8
    }
}

/// Condition codes (the low nibble of `Jcc`/`SETcc`/`CMOVcc` opcodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Cc {
    /// Below (unsigned `<`).
    B = 0x2,
    /// Above-or-equal (unsigned `>=`).
    Ae = 0x3,
    /// Equal.
    E = 0x4,
    /// Not equal.
    Ne = 0x5,
    /// Below-or-equal (unsigned `<=`).
    Be = 0x6,
    /// Above (unsigned `>`).
    A = 0x7,
    /// Less (signed `<`).
    L = 0xC,
    /// Greater-or-equal (signed `>=`).
    Ge = 0xD,
    /// Less-or-equal (signed `<=`).
    Le = 0xE,
    /// Greater (signed `>`).
    G = 0xF,
}

/// Two-register ALU operations (64-bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum AluOp {
    Add,
    Sub,
    And,
    Or,
    Xor,
    /// Compare (`dst - src`, flags only).
    Cmp,
    /// Bit test (`dst & src`, flags only).
    Test,
    /// Signed multiply (low 64 bits; identical to unsigned low half).
    Imul,
}

/// Shift-by-immediate kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum ShiftKind {
    Shl,
    Shr,
    Sar,
}

/// A branch target / code position, resolved at assembly time.
pub type Label = u32;

/// One micro-instruction. Memory operands are `[base + disp]` or
/// `[base + index*8]`; all data moves are 64-bit except [`MInst::MovR32`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MInst {
    /// `push reg`.
    Push(Reg),
    /// `pop reg`.
    Pop(Reg),
    /// `mov dst, src` (64-bit).
    MovRR {
        /// Destination.
        dst: Reg,
        /// Source.
        src: Reg,
    },
    /// `mov dst32, src32` — zero-extends into the full register
    /// (canonicalization for unsigned 32-bit).
    MovR32 {
        /// Destination.
        dst: Reg,
        /// Source.
        src: Reg,
    },
    /// `mov dst, imm` (sign-extended imm32 when it fits, movabs else).
    MovRI {
        /// Destination.
        dst: Reg,
        /// Immediate.
        imm: i64,
    },
    /// `mov dst, [base + disp]`.
    Load {
        /// Destination.
        dst: Reg,
        /// Base register.
        base: Reg,
        /// Byte displacement.
        disp: i32,
    },
    /// `mov [base + disp], src`.
    Store {
        /// Base register.
        base: Reg,
        /// Byte displacement.
        disp: i32,
        /// Source.
        src: Reg,
    },
    /// `mov qword [base + disp], imm32` (sign-extended).
    StoreImm {
        /// Base register.
        base: Reg,
        /// Byte displacement.
        disp: i32,
        /// Immediate.
        imm: i32,
    },
    /// `mov dst, [base + idx*8]`.
    LoadIdx {
        /// Destination.
        dst: Reg,
        /// Base register.
        base: Reg,
        /// Index register (scaled by 8; must not be rsp).
        idx: Reg,
    },
    /// `mov [base + idx*8], src`.
    StoreIdx {
        /// Base register.
        base: Reg,
        /// Index register (scaled by 8; must not be rsp).
        idx: Reg,
        /// Source.
        src: Reg,
    },
    /// Two-register ALU op: `op dst, src`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination (and left operand).
        dst: Reg,
        /// Source (right operand).
        src: Reg,
    },
    /// `cmp reg, imm32`.
    CmpRI {
        /// Left operand.
        reg: Reg,
        /// Immediate right operand (sign-extended).
        imm: i32,
    },
    /// `add reg, imm32`.
    AddRI {
        /// Destination.
        reg: Reg,
        /// Immediate addend (sign-extended).
        imm: i32,
    },
    /// `neg reg` (two's-complement negate).
    Neg(Reg),
    /// `not reg` (bitwise complement).
    Not(Reg),
    /// Shift by immediate: `shl/shr/sar reg, amt`.
    ShiftI {
        /// Shift kind.
        kind: ShiftKind,
        /// Register shifted in place.
        reg: Reg,
        /// Amount (0..=63).
        amt: u8,
    },
    /// `setcc cl; movzx dst, cl` — materializes a condition as 0/1.
    /// Clobbers rcx.
    Setcc {
        /// Condition.
        cc: Cc,
        /// Destination (receives 0 or 1).
        dst: Reg,
    },
    /// `cmovcc dst, src`.
    Cmov {
        /// Condition.
        cc: Cc,
        /// Destination.
        dst: Reg,
        /// Source when the condition holds.
        src: Reg,
    },
    /// `jcc label` (rel32).
    Jcc {
        /// Condition.
        cc: Cc,
        /// Target.
        label: Label,
    },
    /// `jmp label` (rel32).
    Jmp {
        /// Target.
        label: Label,
    },
    /// `jmp reg` (indirect).
    JmpReg(Reg),
    /// `call reg` (indirect).
    CallReg(Reg),
    /// Binds `label` to the current position.
    Bind(Label),
    /// `ret`.
    Ret,
}

/// The longest encoding of one [`MInst`]: `StoreImm` with a SIB byte,
/// a 32-bit displacement and a 32-bit immediate takes 12 bytes.
const MAX_INST_LEN: usize = 16;

/// Assembled machine code plus label positions, reused across calls.
#[derive(Default)]
pub struct Asm {
    /// Output buffer; only `buf[..len]` is the last stream's code. It
    /// only grows, so a compile that fits needs no zeroing.
    buf: Vec<u8>,
    len: usize,
    /// Byte offset of each label.
    pub label_pos: Vec<usize>,
    /// (patch position, target label) for rel32 fields.
    fixups: Vec<(usize, Label)>,
}

fn rex(w: bool, r: u8, x: u8, b: u8) -> u8 {
    0x40 | ((w as u8) << 3) | ((r >> 3) << 2) | ((x >> 3) << 1) | (b >> 3)
}

/// Writes bytes at a cursor into a buffer sized for the whole stream.
/// The cursor is a local, not a `Vec` length, so byte stores cannot
/// force it to be reloaded.
struct Enc<'a> {
    out: &'a mut [u8],
    pos: usize,
}

impl Enc<'_> {
    fn b(&mut self, byte: u8) {
        self.out[self.pos] = byte;
        self.pos += 1;
    }

    fn bytes<const N: usize>(&mut self, v: [u8; N]) {
        self.out[self.pos..self.pos + N].copy_from_slice(&v);
        self.pos += N;
    }

    fn i32(&mut self, v: i32) {
        self.bytes(v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.bytes(v.to_le_bytes());
    }

    /// REX + opcode + modrm for a register-to-register form.
    fn rr(&mut self, w: bool, opcodes: &[u8], reg: u8, rm: u8) {
        self.b(rex(w, reg, 0, rm));
        for &op in opcodes {
            self.b(op);
        }
        self.b(0xC0 | ((reg & 7) << 3) | (rm & 7));
    }

    /// REX + opcode + modrm/SIB for a `[base + disp]` memory form.
    fn rm_mem(&mut self, w: bool, opcodes: &[u8], reg: u8, base: u8, disp: i32) {
        self.b(rex(w, reg, 0, base));
        for &op in opcodes {
            self.b(op);
        }
        let need_sib = (base & 7) == 4; // rsp/r12 as base require SIB
        let (modbits, small) = if disp == 0 && (base & 7) != 5 {
            (0x00u8, true)
        } else if (-128..=127).contains(&disp) {
            (0x40, true)
        } else {
            (0x80, false)
        };
        let rm = if need_sib { 4 } else { base & 7 };
        self.b(modbits | ((reg & 7) << 3) | rm);
        if need_sib {
            self.b(0x24); // scale=0, index=none, base=rsp/r12
        }
        match modbits {
            0x40 => self.b(disp as u8),
            0x80 => self.i32(disp),
            _ => {
                let _ = small;
            }
        }
    }

    /// REX + opcode + modrm/SIB for a `[base + idx*8]` memory form.
    fn rm_sib8(&mut self, w: bool, opcodes: &[u8], reg: u8, base: u8, idx: u8) {
        debug_assert!(idx != 4, "rsp cannot be an index register");
        self.b(rex(w, reg, idx, base));
        for &op in opcodes {
            self.b(op);
        }
        // base rbp/r13 with mod=00 would mean "no base"; use disp8=0.
        let modbits: u8 = if (base & 7) == 5 { 0x40 } else { 0x00 };
        self.b(modbits | ((reg & 7) << 3) | 4);
        self.b(0xC0 | ((idx & 7) << 3) | (base & 7)); // scale=8
        if modbits == 0x40 {
            self.b(0);
        }
    }
}

impl Asm {
    /// The code of the last [`assemble`] call.
    pub fn code(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

/// Encodes a micro-instruction stream into `asm` (see [`Asm::code`]),
/// resolving all label references (rel32) and recording
/// [`Asm::label_pos`].
///
/// # Panics
///
/// Panics on a reference to a label that is never bound.
pub fn assemble(asm: &mut Asm, insts: &[MInst], n_labels: u32) {
    let Asm {
        buf,
        len,
        label_pos,
        fixups,
    } = asm;
    let need = insts.len() * MAX_INST_LEN;
    if buf.len() < need {
        buf.resize(need, 0);
    }
    label_pos.clear();
    label_pos.resize(n_labels as usize, usize::MAX);
    fixups.clear();
    let mut e = Enc { out: buf, pos: 0 };

    for inst in insts {
        match *inst {
            MInst::Push(r) => {
                if r.num() >= 8 {
                    e.b(0x41);
                }
                e.b(0x50 + (r.num() & 7));
            }
            MInst::Pop(r) => {
                if r.num() >= 8 {
                    e.b(0x41);
                }
                e.b(0x58 + (r.num() & 7));
            }
            MInst::MovRR { dst, src } => e.rr(true, &[0x89], src.num(), dst.num()),
            MInst::MovR32 { dst, src } => {
                // 32-bit mov zero-extends; REX only for extended regs.
                let (s, d) = (src.num(), dst.num());
                if s >= 8 || d >= 8 {
                    e.b(rex(false, s, 0, d));
                }
                e.b(0x89);
                e.b(0xC0 | ((s & 7) << 3) | (d & 7));
            }
            MInst::MovRI { dst, imm } => {
                if i32::try_from(imm).is_ok() {
                    // mov r/m64, imm32 (sign-extended)
                    e.rr(true, &[0xC7], 0, dst.num());
                    e.i32(imm as i32);
                } else {
                    e.b(rex(true, 0, 0, dst.num()));
                    e.b(0xB8 + (dst.num() & 7));
                    e.i64(imm);
                }
            }
            MInst::Load { dst, base, disp } => e.rm_mem(true, &[0x8B], dst.num(), base.num(), disp),
            MInst::Store { base, disp, src } => {
                e.rm_mem(true, &[0x89], src.num(), base.num(), disp)
            }
            MInst::StoreImm { base, disp, imm } => {
                e.rm_mem(true, &[0xC7], 0, base.num(), disp);
                e.i32(imm);
            }
            MInst::LoadIdx { dst, base, idx } => {
                e.rm_sib8(true, &[0x8B], dst.num(), base.num(), idx.num());
            }
            MInst::StoreIdx { base, idx, src } => {
                e.rm_sib8(true, &[0x89], src.num(), base.num(), idx.num());
            }
            MInst::Alu { op, dst, src } => match op {
                AluOp::Add => e.rr(true, &[0x01], src.num(), dst.num()),
                AluOp::Sub => e.rr(true, &[0x29], src.num(), dst.num()),
                AluOp::And => e.rr(true, &[0x21], src.num(), dst.num()),
                AluOp::Or => e.rr(true, &[0x09], src.num(), dst.num()),
                AluOp::Xor => e.rr(true, &[0x31], src.num(), dst.num()),
                AluOp::Cmp => e.rr(true, &[0x39], src.num(), dst.num()),
                AluOp::Test => e.rr(true, &[0x85], src.num(), dst.num()),
                // imul has reversed operand roles: reg=dst, rm=src.
                AluOp::Imul => e.rr(true, &[0x0F, 0xAF], dst.num(), src.num()),
            },
            MInst::CmpRI { reg, imm } => {
                if (-128..=127).contains(&imm) {
                    e.rr(true, &[0x83], 7, reg.num());
                    e.b(imm as u8);
                } else {
                    e.rr(true, &[0x81], 7, reg.num());
                    e.i32(imm);
                }
            }
            MInst::AddRI { reg, imm } => {
                if (-128..=127).contains(&imm) {
                    e.rr(true, &[0x83], 0, reg.num());
                    e.b(imm as u8);
                } else {
                    e.rr(true, &[0x81], 0, reg.num());
                    e.i32(imm);
                }
            }
            MInst::Neg(r) => e.rr(true, &[0xF7], 3, r.num()),
            MInst::Not(r) => e.rr(true, &[0xF7], 2, r.num()),
            MInst::ShiftI { kind, reg, amt } => {
                let ext = match kind {
                    ShiftKind::Shl => 4,
                    ShiftKind::Shr => 5,
                    ShiftKind::Sar => 7,
                };
                e.rr(true, &[0xC1], ext, reg.num());
                e.b(amt);
            }
            MInst::Setcc { cc, dst } => {
                // setcc cl (rm8 = cl needs no REX)
                e.b(0x0F);
                e.b(0x90 + cc as u8);
                e.b(0xC1);
                // movzx dst, cl
                e.rr(true, &[0x0F, 0xB6], dst.num(), 1);
            }
            MInst::Cmov { cc, dst, src } => {
                e.rr(true, &[0x0F, 0x40 + cc as u8], dst.num(), src.num());
            }
            MInst::Jcc { cc, label } => {
                e.b(0x0F);
                e.b(0x80 + cc as u8);
                fixups.push((e.pos, label));
                e.i32(0);
            }
            MInst::Jmp { label } => {
                e.b(0xE9);
                fixups.push((e.pos, label));
                e.i32(0);
            }
            MInst::JmpReg(r) => {
                if r.num() >= 8 {
                    e.b(0x41);
                }
                e.b(0xFF);
                e.b(0xC0 | (4 << 3) | (r.num() & 7));
            }
            MInst::CallReg(r) => {
                if r.num() >= 8 {
                    e.b(0x41);
                }
                e.b(0xFF);
                e.b(0xC0 | (2 << 3) | (r.num() & 7));
            }
            MInst::Bind(l) => label_pos[l as usize] = e.pos,
            MInst::Ret => e.b(0xC3),
        }
    }

    for &(pos, label) in fixups.iter() {
        let target = label_pos[label as usize];
        assert!(target != usize::MAX, "unbound label {label}");
        let rel = (target as i64 - (pos as i64 + 4)) as i32;
        e.out[pos..pos + 4].copy_from_slice(&rel.to_le_bytes());
    }
    *len = e.pos;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc(insts: &[MInst]) -> Vec<u8> {
        let mut asm = Asm::default();
        assemble(&mut asm, insts, 8);
        asm.code().to_vec()
    }

    #[test]
    fn basic_encodings_match_reference_bytes() {
        // mov rax, rbx → 48 89 d8
        assert_eq!(
            enc(&[MInst::MovRR {
                dst: Reg::Rax,
                src: Reg::Rbx
            }]),
            vec![0x48, 0x89, 0xD8]
        );
        // mov r15, [rdi] → 4c 8b 3f
        assert_eq!(
            enc(&[MInst::Load {
                dst: Reg::R15,
                base: Reg::Rdi,
                disp: 0
            }]),
            vec![0x4C, 0x8B, 0x3F]
        );
        // mov [r15+8], rsi → 49 89 77 08
        assert_eq!(
            enc(&[MInst::Store {
                base: Reg::R15,
                disp: 8,
                src: Reg::Rsi
            }]),
            vec![0x49, 0x89, 0x77, 0x08]
        );
        // add rsi, r8 → 4c 01 c6
        assert_eq!(
            enc(&[MInst::Alu {
                op: AluOp::Add,
                dst: Reg::Rsi,
                src: Reg::R8
            }]),
            vec![0x4C, 0x01, 0xC6]
        );
        // imul rsi, r8 → 49 0f af f0
        assert_eq!(
            enc(&[MInst::Alu {
                op: AluOp::Imul,
                dst: Reg::Rsi,
                src: Reg::R8
            }]),
            vec![0x49, 0x0F, 0xAF, 0xF0]
        );
        // sar rsi, 3 → 48 c1 fe 03
        assert_eq!(
            enc(&[MInst::ShiftI {
                kind: ShiftKind::Sar,
                reg: Reg::Rsi,
                amt: 3
            }]),
            vec![0x48, 0xC1, 0xFE, 0x03]
        );
        // mov rax, 42 (imm32 form) → 48 c7 c0 2a 00 00 00
        assert_eq!(
            enc(&[MInst::MovRI {
                dst: Reg::Rax,
                imm: 42
            }]),
            vec![0x48, 0xC7, 0xC0, 0x2A, 0, 0, 0]
        );
        // movabs r9, 0x1122334455667788 → 49 b9 88 77 66 55 44 33 22 11
        assert_eq!(
            enc(&[MInst::MovRI {
                dst: Reg::R9,
                imm: 0x1122_3344_5566_7788
            }]),
            vec![0x49, 0xB9, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11]
        );
    }

    #[test]
    fn sib_and_special_bases() {
        // mov rax, [rcx + rdx*8] → 48 8b 04 d1
        assert_eq!(
            enc(&[MInst::LoadIdx {
                dst: Reg::Rax,
                base: Reg::Rcx,
                idx: Reg::Rdx
            }]),
            vec![0x48, 0x8B, 0x04, 0xD1]
        );
        // r12 as base needs SIB: mov rax, [r12] → 49 8b 04 24
        assert_eq!(
            enc(&[MInst::Load {
                dst: Reg::Rax,
                base: Reg::R12,
                disp: 0
            }]),
            vec![0x49, 0x8B, 0x04, 0x24]
        );
        // r13 as base needs disp8: mov rax, [r13] → 49 8b 45 00
        assert_eq!(
            enc(&[MInst::Load {
                dst: Reg::Rax,
                base: Reg::R13,
                disp: 0
            }]),
            vec![0x49, 0x8B, 0x45, 0x00]
        );
    }

    #[test]
    fn labels_resolve_forward_and_backward() {
        // jmp L1; L0: ret; L1: jmp L0
        let mut out = Asm::default();
        assemble(
            &mut out,
            &[
                MInst::Jmp { label: 1 },
                MInst::Bind(0),
                MInst::Ret,
                MInst::Bind(1),
                MInst::Jmp { label: 0 },
            ],
            2,
        );
        // jmp L1 = e9 01 00 00 00 (skip the 1-byte ret)
        assert_eq!(&out.code()[..5], &[0xE9, 0x01, 0x00, 0x00, 0x00]);
        assert_eq!(out.code()[5], 0xC3);
        // jmp L0: rel = 5 - (6+5) = -6
        assert_eq!(&out.code()[6..], &[0xE9, 0xFA, 0xFF, 0xFF, 0xFF]);
        assert_eq!(out.label_pos, vec![5, 6]);
    }

    #[test]
    fn setcc_materializes_bool() {
        // setne cl; movzx rax, cl → 0f 95 c1 48 0f b6 c1
        assert_eq!(
            enc(&[MInst::Setcc {
                cc: Cc::Ne,
                dst: Reg::Rax
            }]),
            vec![0x0F, 0x95, 0xC1, 0x48, 0x0F, 0xB6, 0xC1]
        );
    }
}

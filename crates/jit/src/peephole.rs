//! Peephole optimization over the emitted [`MInst`] stream.
//!
//! The translator favors a simple, obviously-correct emission strategy
//! (write-through slot cache, materialized booleans); this pass cleans
//! up the residue with a few local rewrites:
//!
//! 1. `mov r, r` (self-move) — dropped.
//! 2. `mov [b+d], r` … `mov r2, [b+d]` (adjacent reload of a value just
//!    stored) — the reload becomes `mov r2, r`.
//! 3. `setcc cc, r; [stores]; test r, r; jnz L` — the re-test of a
//!    freshly materialized condition folds into `jcc cc L` (stores
//!    don't touch flags, so the original comparison's flags are still
//!    live at the jump).
//! 4. `jmp L` immediately followed by `L:` — dropped.
//!
//! All rewrites are strictly local and preserve the instruction
//! stream's observable behavior (register state, memory, and control
//! flow at every label boundary).

use crate::x86::{AluOp, Cc, MInst};

/// Does this instruction leave arithmetic flags untouched?
fn preserves_flags(i: &MInst) -> bool {
    matches!(
        i,
        MInst::MovRR { .. }
            | MInst::MovR32 { .. }
            | MInst::MovRI { .. }
            | MInst::Load { .. }
            | MInst::Store { .. }
            | MInst::StoreImm { .. }
            | MInst::LoadIdx { .. }
            | MInst::StoreIdx { .. }
            | MInst::Push(_)
            | MInst::Pop(_)
            | MInst::Cmov { .. }
    )
}

/// Does this instruction write `reg` (so a cached condition in it dies)?
fn writes_reg(i: &MInst, reg: crate::x86::Reg) -> bool {
    match *i {
        MInst::MovRR { dst, .. }
        | MInst::MovR32 { dst, .. }
        | MInst::MovRI { dst, .. }
        | MInst::Load { dst, .. }
        | MInst::LoadIdx { dst, .. }
        | MInst::Cmov { dst, .. } => dst == reg,
        MInst::Pop(r) => r == reg,
        _ => false,
    }
}

/// The inverse condition, for pattern 3's `jz` variant.
fn invert(cc: Cc) -> Cc {
    match cc {
        Cc::B => Cc::Ae,
        Cc::Ae => Cc::B,
        Cc::E => Cc::Ne,
        Cc::Ne => Cc::E,
        Cc::Be => Cc::A,
        Cc::A => Cc::Be,
        Cc::L => Cc::Ge,
        Cc::Ge => Cc::L,
        Cc::Le => Cc::G,
        Cc::G => Cc::Le,
    }
}

/// Runs the peephole patterns to a fixed point (bounded), rewriting
/// the stream in place.
pub fn optimize(insts: &mut Vec<MInst>) {
    for _ in 0..4 {
        let before = insts.len();
        pass(insts);
        if insts.len() == before {
            break;
        }
    }
}

/// One rewrite pass. Every pattern emits no more instructions than it
/// reads, so the output is written over the input behind the read
/// position `i` (at `w <= i`) and the stream is truncated at the end.
fn pass(insts: &mut Vec<MInst>) {
    let n = insts.len();
    let (mut i, mut w) = (0, 0);
    while i < n {
        let cur = insts[i];

        // Pattern 1: self-move.
        if let MInst::MovRR { dst, src } = cur {
            if dst == src {
                i += 1;
                continue;
            }
        }

        // Pattern 4: jmp to the immediately following label.
        if let MInst::Jmp { label } = cur {
            if let Some(MInst::Bind(l)) = insts.get(i + 1) {
                if *l == label {
                    i += 1;
                    continue;
                }
            }
        }

        // Pattern 2: store followed directly by a reload of the same
        // address becomes a register move.
        if let MInst::Store { base, disp, src } = cur {
            if let Some(&MInst::Load {
                dst,
                base: b2,
                disp: d2,
            }) = insts.get(i + 1)
            {
                if b2 == base && d2 == disp {
                    insts[w] = cur;
                    insts[w + 1] = MInst::MovRR { dst, src };
                    w += 2;
                    i += 2;
                    continue;
                }
            }
        }

        // Pattern 3: setcc r … test r,r … jcc ne/e — fold the re-test
        // into a direct jcc on the original condition, provided every
        // instruction in between preserves flags and doesn't clobber r.
        if let MInst::Setcc { cc, dst } = cur {
            let mut j = i + 1;
            while j < n && preserves_flags(&insts[j]) && !writes_reg(&insts[j], dst) {
                j += 1;
            }
            if j + 1 < n {
                if let (
                    MInst::Alu {
                        op: AluOp::Test,
                        dst: td,
                        src: ts,
                    },
                    MInst::Jcc { cc: jcc, label },
                ) = (insts[j], insts[j + 1])
                {
                    if td == dst && ts == dst && matches!(jcc, Cc::Ne | Cc::E) {
                        let folded = if jcc == Cc::Ne { cc } else { invert(cc) };
                        insts[w] = cur;
                        insts.copy_within(i + 1..j, w + 1);
                        w += j - i;
                        insts[w] = MInst::Jcc { cc: folded, label };
                        w += 1;
                        i = j + 2;
                        continue;
                    }
                }
            }
        }

        insts[w] = cur;
        w += 1;
        i += 1;
    }
    insts.truncate(w);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::x86::Reg;

    #[test]
    fn drops_self_moves_and_dead_jumps() {
        let insts = vec![
            MInst::MovRR {
                dst: Reg::Rsi,
                src: Reg::Rsi,
            },
            MInst::Jmp { label: 3 },
            MInst::Bind(3),
            MInst::Ret,
        ];
        let mut out = insts;
        optimize(&mut out);
        assert_eq!(out, vec![MInst::Bind(3), MInst::Ret]);
    }

    #[test]
    fn forwards_store_to_adjacent_reload() {
        let insts = vec![
            MInst::Store {
                base: Reg::R15,
                disp: 16,
                src: Reg::Rsi,
            },
            MInst::Load {
                dst: Reg::Rdi,
                base: Reg::R15,
                disp: 16,
            },
        ];
        let mut out = insts;
        optimize(&mut out);
        assert_eq!(
            out,
            vec![
                MInst::Store {
                    base: Reg::R15,
                    disp: 16,
                    src: Reg::Rsi,
                },
                MInst::MovRR {
                    dst: Reg::Rdi,
                    src: Reg::Rsi,
                },
            ]
        );
    }

    #[test]
    fn folds_materialized_condition_into_branch() {
        // setl rsi; store rsi; test rsi,rsi; jnz L → setl; store; jl L
        let insts = vec![
            MInst::Setcc {
                cc: Cc::L,
                dst: Reg::Rsi,
            },
            MInst::Store {
                base: Reg::R15,
                disp: 8,
                src: Reg::Rsi,
            },
            MInst::Alu {
                op: AluOp::Test,
                dst: Reg::Rsi,
                src: Reg::Rsi,
            },
            MInst::Jcc {
                cc: Cc::Ne,
                label: 7,
            },
        ];
        let mut out = insts;
        optimize(&mut out);
        assert_eq!(
            out,
            vec![
                MInst::Setcc {
                    cc: Cc::L,
                    dst: Reg::Rsi,
                },
                MInst::Store {
                    base: Reg::R15,
                    disp: 8,
                    src: Reg::Rsi,
                },
                MInst::Jcc {
                    cc: Cc::L,
                    label: 7
                },
            ]
        );
    }

    #[test]
    fn jz_variant_inverts_the_condition() {
        let insts = vec![
            MInst::Setcc {
                cc: Cc::Ae,
                dst: Reg::R8,
            },
            MInst::Alu {
                op: AluOp::Test,
                dst: Reg::R8,
                src: Reg::R8,
            },
            MInst::Jcc {
                cc: Cc::E,
                label: 2,
            },
        ];
        let mut out = insts;
        optimize(&mut out);
        assert_eq!(
            out,
            vec![
                MInst::Setcc {
                    cc: Cc::Ae,
                    dst: Reg::R8,
                },
                MInst::Jcc {
                    cc: Cc::B,
                    label: 2
                },
            ]
        );
    }
}

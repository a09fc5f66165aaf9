//! Where SSA values are read ([`for_each_read`]: a phi reads each operand
//! at the end of its predecessor), and which are live across block edges
//! ([`Liveness`]: dense bitsets over the values read outside their
//! defining block, one backward worklist over every block, reachable or
//! not). A phi operand is live out of its predecessor only when a
//! successor also needs it live in.

use crate::ir::{BlockId, Function, InstKind, Term, Value};

/// Visits every read of a value as `(block the read happens in, value)`,
/// block by block in index order; within a block, instruction operands
/// in program order and then the terminator's operand.
pub fn for_each_read(f: &Function, mut visit: impl FnMut(BlockId, Value)) {
    for (bi, block) in f.blocks.iter().enumerate() {
        let b = BlockId(bi as u32);
        for &v in &block.insts {
            match &f.inst(v).kind {
                InstKind::Phi(args) => args.iter().for_each(|&(pred, a)| visit(pred, a)),
                kind => kind.for_each_operand(|o| visit(b, o)),
            }
        }
        if let Term::Br { cond: v, .. } | Term::Ret(Some(v)) = &block.term {
            visit(b, *v);
        }
    }
}

/// Live-in and live-out sets of every block of a function.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// The values read outside the block that defines them, ascending;
    /// bit `i` of a set stands for `globals[i]`.
    globals: Vec<Value>,
    /// `u64` words per block set.
    words: usize,
    live_in: Vec<u64>,
    live_out: Vec<u64>,
}

impl Liveness {
    /// Solves liveness for `f`.
    pub fn compute(f: &Function) -> Self {
        let nb = f.blocks.len();
        // Upward-exposed reads: a value read in a block it is not
        // defined in.
        let mut reads: Vec<(BlockId, Value)> = Vec::new();
        for_each_read(f, |b, v| {
            if f.inst(v).block != b {
                reads.push((b, v));
            }
        });
        const NONE: u32 = u32::MAX;
        let mut bit = vec![NONE; f.insts.len()];
        for &(_, v) in &reads {
            bit[v.0 as usize] = 0;
        }
        let mut globals = Vec::new();
        for (i, slot) in bit.iter_mut().enumerate() {
            if *slot != NONE {
                *slot = globals.len() as u32;
                globals.push(Value(i as u32));
            }
        }
        let words = globals.len().div_ceil(64);
        let set = |sets: &mut [u64], b: usize, i: u32| {
            sets[b * words + i as usize / 64] |= 1 << (i % 64);
        };
        let mut gen = vec![0u64; nb * words];
        for &(b, v) in &reads {
            set(&mut gen, b.0 as usize, bit[v.0 as usize]);
        }
        let mut kill = vec![0u64; nb * words];
        for (bi, block) in f.blocks.iter().enumerate() {
            for &v in &block.insts {
                if bit[v.0 as usize] != NONE {
                    set(&mut kill, bi, bit[v.0 as usize]);
                }
            }
        }

        // live_out(b) = ∪ live_in(s) over successors s;
        // live_in(b) = gen(b) ∪ (live_out(b) \ kill(b)).
        let preds = f.predecessors();
        let mut live_in = vec![0u64; nb * words];
        let mut live_out = vec![0u64; nb * words];
        let mut queued = vec![true; nb];
        let mut work: Vec<usize> = (0..nb).collect();
        let mut new_in = vec![0u64; words];
        while let Some(b) = work.pop() {
            queued[b] = false;
            let blk = b * words..(b + 1) * words;
            let out = &mut live_out[blk.clone()];
            out.fill(0);
            for s in f.blocks[b].term.successors() {
                let s = s.0 as usize * words;
                for (o, i) in out.iter_mut().zip(&live_in[s..s + words]) {
                    *o |= i;
                }
            }
            for (w, n) in new_in.iter_mut().enumerate() {
                *n = gen[b * words + w] | (out[w] & !kill[b * words + w]);
            }
            if live_in[blk.clone()] != new_in[..] {
                live_in[blk].copy_from_slice(&new_in);
                for p in &preds[b] {
                    let p = p.0 as usize;
                    if !queued[p] {
                        queued[p] = true;
                        work.push(p);
                    }
                }
            }
        }
        Liveness {
            globals,
            words,
            live_in,
            live_out,
        }
    }

    /// The values live into `b`, in ascending `Value` order.
    pub fn live_in(&self, b: BlockId) -> impl Iterator<Item = Value> + '_ {
        self.members(&self.live_in, b)
    }

    /// The values live out of `b`, in ascending `Value` order.
    pub fn live_out(&self, b: BlockId) -> impl Iterator<Item = Value> + '_ {
        self.members(&self.live_out, b)
    }

    fn members<'a>(&'a self, sets: &'a [u64], b: BlockId) -> impl Iterator<Item = Value> + 'a {
        let base = b.0 as usize * self.words;
        sets[base..base + self.words]
            .iter()
            .enumerate()
            .flat_map(move |(w, &word)| {
                (0..64)
                    .filter(move |i| word >> i & 1 == 1)
                    .map(move |i| self.globals[w * 64 + i])
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::BinKind;
    use crate::verify::verify;
    use chls_frontend::IntType;

    fn int() -> IntType {
        IntType::new(32, true)
    }

    fn set_phi(f: &mut Function, phi: Value, args: Vec<(BlockId, Value)>) {
        f.inst_mut(phi).kind = InstKind::Phi(args);
    }

    fn live_in(f: &Function, b: BlockId) -> Vec<Value> {
        Liveness::compute(f).live_in(b).collect()
    }

    fn live_out(f: &Function, b: BlockId) -> Vec<Value> {
        Liveness::compute(f).live_out(b).collect()
    }

    /// b0: p, c; br c b1 b2 / b1: a = p + p / b2: d = p - p /
    /// b3: m = phi(b1: a, b2: d); ret m
    fn diamond() -> (Function, [BlockId; 4], [Value; 4]) {
        let mut f = Function::new("diamond");
        let b0 = f.entry;
        let (b1, b2, b3) = (f.add_block(), f.add_block(), f.add_block());
        let p = f.add_inst(b0, InstKind::Param(0), int());
        let c = f.add_inst(b0, InstKind::Param(1), IntType::u1());
        let a = f.add_inst(b1, InstKind::Bin(BinKind::Add, p, p), int());
        let d = f.add_inst(b2, InstKind::Bin(BinKind::Sub, p, p), int());
        let m = f.add_phi(b3, int());
        set_phi(&mut f, m, vec![(b1, a), (b2, d)]);
        f.block_mut(b0).term = Term::Br {
            cond: c,
            then: b1,
            els: b2,
        };
        f.block_mut(b1).term = Term::Jump(b3);
        f.block_mut(b2).term = Term::Jump(b3);
        f.ret_ty = Some(int());
        f.block_mut(b3).term = Term::Ret(Some(m));
        verify(&f).expect("well-formed");
        (f, [b0, b1, b2, b3], [p, a, d, m])
    }

    #[test]
    fn reads_are_placed_where_they_happen() {
        let (f, [b0, b1, b2, b3], [p, a, d, m]) = diamond();
        let mut reads = Vec::new();
        for_each_read(&f, |b, v| reads.push((b, v)));
        let c = Value(1);
        assert_eq!(
            reads,
            vec![
                (b0, c),
                (b1, p),
                (b1, p),
                (b2, p),
                (b2, p),
                (b1, a),
                (b2, d),
                (b3, m)
            ]
        );
    }

    #[test]
    fn a_phi_operand_defined_in_its_predecessor_is_live_nowhere() {
        let (f, [b0, b1, b2, b3], [p, a, d, _]) = diamond();
        let live = Liveness::compute(&f);
        for b in [b0, b1, b2, b3] {
            assert!(
                live.live_in(b)
                    .chain(live.live_out(b))
                    .all(|v| v != a && v != d),
                "{b}"
            );
        }
        assert_eq!(live_in(&f, b3), vec![]);
        assert_eq!(live_out(&f, b0), vec![p]);
    }

    #[test]
    fn a_diamond_carries_a_value_down_both_arms() {
        let (mut f, [b0, b1, b2, b3], [p, .., m]) = diamond();
        // Read `p` again at the merge: it must flow through both arms.
        let q = f.add_inst(b3, InstKind::Bin(BinKind::Add, p, m), int());
        f.block_mut(b3).term = Term::Ret(Some(q));
        verify(&f).expect("well-formed");
        for b in [b1, b2, b3] {
            assert_eq!(live_in(&f, b), vec![p], "{b}");
        }
        assert_eq!(live_out(&f, b0), vec![p]);
        assert_eq!(live_out(&f, b1), vec![p]);
        assert_eq!(live_in(&f, b0), vec![]);
    }

    /// b0: n, z, one; jump b1 / b1: i = phi(b0: z, b2: j); c = i < n;
    /// br c b2 b3 / b2: j = i + one; jump b1 / b3: ret i
    #[test]
    fn a_loop_carried_value_is_live_around_the_loop() {
        let mut f = Function::new("count");
        let b0 = f.entry;
        let (b1, b2, b3) = (f.add_block(), f.add_block(), f.add_block());
        let n = f.add_inst(b0, InstKind::Param(0), int());
        let z = f.add_inst(b0, InstKind::Const(0), int());
        let one = f.add_inst(b0, InstKind::Const(1), int());
        let i = f.add_phi(b1, int());
        let c = f.add_inst(b1, InstKind::Bin(BinKind::Lt, i, n), IntType::u1());
        let j = f.add_inst(b2, InstKind::Bin(BinKind::Add, i, one), int());
        set_phi(&mut f, i, vec![(b0, z), (b2, j)]);
        f.block_mut(b0).term = Term::Jump(b1);
        f.block_mut(b1).term = Term::Br {
            cond: c,
            then: b2,
            els: b3,
        };
        f.block_mut(b2).term = Term::Jump(b1);
        f.ret_ty = Some(int());
        f.block_mut(b3).term = Term::Ret(Some(i));
        verify(&f).expect("well-formed");
        assert_eq!(live_in(&f, b1), vec![n, one]);
        assert_eq!(live_in(&f, b2), vec![n, one, i]);
        assert_eq!(live_in(&f, b3), vec![i]);
        assert_eq!(live_out(&f, b0), vec![n, one]);
        // `j` is read at the end of b2, by the header's phi.
        assert_eq!(live_out(&f, b2), vec![n, one]);
        assert_eq!(live_out(&f, b1), vec![n, one, i]);
    }

    /// b0: n, z; jump b1 / b1: i = phi(b0: z, b1: j); j = i + n;
    /// c = j < n; br c b1 b2 / b2: ret j
    #[test]
    fn a_self_loop_keeps_its_invariant_live_through_itself() {
        let mut f = Function::new("spin");
        let b0 = f.entry;
        let (b1, b2) = (f.add_block(), f.add_block());
        let n = f.add_inst(b0, InstKind::Param(0), int());
        let z = f.add_inst(b0, InstKind::Const(0), int());
        let i = f.add_phi(b1, int());
        let j = f.add_inst(b1, InstKind::Bin(BinKind::Add, i, n), int());
        let c = f.add_inst(b1, InstKind::Bin(BinKind::Lt, j, n), IntType::u1());
        set_phi(&mut f, i, vec![(b0, z), (b1, j)]);
        f.block_mut(b0).term = Term::Jump(b1);
        f.block_mut(b1).term = Term::Br {
            cond: c,
            then: b1,
            els: b2,
        };
        f.ret_ty = Some(int());
        f.block_mut(b2).term = Term::Ret(Some(j));
        verify(&f).expect("well-formed");
        assert_eq!(live_in(&f, b1), vec![n]);
        assert_eq!(live_out(&f, b1), vec![n, j]);
        assert_eq!(live_in(&f, b2), vec![j]);
    }

    /// b0: x; jump b2 / b1 (unreachable): jump b2 / b2: ret x
    #[test]
    fn an_unreachable_predecessor_is_solved_too() {
        let mut f = Function::new("orphan_pred");
        let b0 = f.entry;
        let (b1, b2) = (f.add_block(), f.add_block());
        let x = f.add_inst(b0, InstKind::Param(0), int());
        f.block_mut(b0).term = Term::Jump(b2);
        f.block_mut(b1).term = Term::Jump(b2);
        f.ret_ty = Some(int());
        f.block_mut(b2).term = Term::Ret(Some(x));
        verify(&f).expect("well-formed");
        assert_eq!(live_in(&f, b2), vec![x]);
        assert_eq!(live_in(&f, b1), vec![x]);
        assert_eq!(live_out(&f, b1), vec![x]);
        assert_eq!(live_in(&f, b0), vec![]);
    }
}

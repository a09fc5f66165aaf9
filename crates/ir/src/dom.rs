//! Dominator tree.
//!
//! Implements the Cooper–Harvey–Kennedy "simple, fast dominance" algorithm,
//! which is near-linear on the small CFGs synthesis produces.

use crate::ir::{BlockId, Function};

/// Immediate-dominator tree of a function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomTree {
    /// `idom[b]` is the immediate dominator of `b`; the entry block is its
    /// own idom. Unreachable blocks have `None`.
    pub idom: Vec<Option<BlockId>>,
    /// Blocks in reverse postorder (reachable only).
    pub rpo: Vec<BlockId>,
}

impl DomTree {
    /// Computes the dominator tree of `f`.
    pub fn compute(f: &Function) -> Self {
        let n = f.blocks.len();
        let rpo = f.reverse_postorder();
        let mut rpo_index = vec![usize::MAX; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_index[b.0 as usize] = i;
        }
        let preds = f.predecessors();
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        idom[f.entry.0 as usize] = Some(f.entry);

        let intersect =
            |idom: &[Option<BlockId>], rpo_index: &[usize], mut a: BlockId, mut b: BlockId| {
                while a != b {
                    while rpo_index[a.0 as usize] > rpo_index[b.0 as usize] {
                        a = idom[a.0 as usize].expect("processed in rpo order");
                    }
                    while rpo_index[b.0 as usize] > rpo_index[a.0 as usize] {
                        b = idom[b.0 as usize].expect("processed in rpo order");
                    }
                }
                a
            };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in &preds[b.0 as usize] {
                    if idom[p.0 as usize].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &rpo_index, cur, p),
                    });
                }
                if new_idom.is_some() && idom[b.0 as usize] != new_idom {
                    idom[b.0 as usize] = new_idom;
                    changed = true;
                }
            }
        }

        DomTree { idom, rpo }
    }

    /// True when `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom[cur.0 as usize] {
                Some(i) if i != cur => cur = i,
                _ => return false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{InstKind, Term};
    use chls_frontend::IntType;

    /// Builds the classic diamond: b0 -> {b1, b2} -> b3.
    fn diamond() -> Function {
        let mut f = Function::new("d");
        let b0 = f.entry;
        let b1 = f.add_block();
        let b2 = f.add_block();
        let b3 = f.add_block();
        let c = f.add_inst(b0, InstKind::Const(1), IntType::new(1, false));
        f.block_mut(b0).term = Term::Br {
            cond: c,
            then: b1,
            els: b2,
        };
        f.block_mut(b1).term = Term::Jump(b3);
        f.block_mut(b2).term = Term::Jump(b3);
        f.block_mut(b3).term = Term::Ret(None);
        f
    }

    #[test]
    fn diamond_idoms() {
        let f = diamond();
        let dt = DomTree::compute(&f);
        assert_eq!(dt.idom[0], Some(BlockId(0)));
        assert_eq!(dt.idom[1], Some(BlockId(0)));
        assert_eq!(dt.idom[2], Some(BlockId(0)));
        assert_eq!(dt.idom[3], Some(BlockId(0)));
    }

    #[test]
    fn dominates_is_reflexive_and_transitive() {
        let f = diamond();
        let dt = DomTree::compute(&f);
        assert!(dt.dominates(BlockId(0), BlockId(3)));
        assert!(dt.dominates(BlockId(1), BlockId(1)));
        assert!(!dt.dominates(BlockId(1), BlockId(3)));
        assert!(!dt.dominates(BlockId(1), BlockId(2)));
    }

    #[test]
    fn loop_header_is_idom_of_its_body_and_exit() {
        // b0 -> b1 (header) -> b2 -> b1, b1 -> b3.
        let mut f = Function::new("l");
        let b0 = f.entry;
        let b1 = f.add_block();
        let b2 = f.add_block();
        let b3 = f.add_block();
        let c = f.add_inst(b1, InstKind::Const(1), IntType::new(1, false));
        f.block_mut(b0).term = Term::Jump(b1);
        f.block_mut(b1).term = Term::Br {
            cond: c,
            then: b2,
            els: b3,
        };
        f.block_mut(b2).term = Term::Jump(b1);
        f.block_mut(b3).term = Term::Ret(None);
        let dt = DomTree::compute(&f);
        // The back edge b2 -> b1 does not move the header's idom, and
        // the header dominates both the body and the exit.
        assert_eq!(dt.idom[1], Some(b0));
        assert_eq!(dt.idom[2], Some(b1));
        assert_eq!(dt.idom[3], Some(b1));
        assert!(dt.dominates(b1, b2) && !dt.dominates(b2, b1));
    }

    #[test]
    fn unreachable_blocks_have_no_idom() {
        let mut f = Function::new("u");
        let b0 = f.entry;
        let _dead = f.add_block();
        f.block_mut(b0).term = Term::Ret(None);
        let dt = DomTree::compute(&f);
        assert_eq!(dt.idom[1], None);
        assert_eq!(dt.rpo, vec![b0]);
    }
}

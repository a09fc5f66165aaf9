//! Natural-loop detection from back edges.
//!
//! A back edge `t -> h` exists when `h` dominates `t`; the natural loop of
//! that edge is `h` plus every block that can reach `t` without passing
//! through `h`. Loops sharing a header are merged. Nesting depth is derived
//! by containment.

use crate::dom::DomTree;
use crate::ir::{BlockId, Function};
use std::collections::BTreeSet;

/// One natural loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaturalLoop {
    /// Loop header (the block the back edges target).
    pub header: BlockId,
    /// All blocks in the loop, including the header.
    pub blocks: BTreeSet<BlockId>,
    /// Blocks with a back edge to the header.
    pub latches: Vec<BlockId>,
    /// Nesting depth: 1 for outermost loops.
    pub depth: usize,
}

impl NaturalLoop {
    /// True when `b` is inside this loop.
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.contains(&b)
    }
}

/// All natural loops of a function, outermost first.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LoopForest {
    /// Loops sorted by (depth, header).
    pub loops: Vec<NaturalLoop>,
}

impl LoopForest {
    /// Finds the natural loops of `f`.
    pub fn compute(f: &Function) -> Self {
        let dt = DomTree::compute(f);
        Self::compute_with(f, &dt)
    }

    /// Finds the natural loops of `f`, reusing a dominator tree.
    pub fn compute_with(f: &Function, dt: &DomTree) -> Self {
        let preds = f.predecessors();
        let mut by_header: Vec<(BlockId, BTreeSet<BlockId>, Vec<BlockId>)> = Vec::new();

        for &b in &dt.rpo {
            for succ in f.block(b).term.successors() {
                if dt.dominates(succ, b) {
                    // Back edge b -> succ.
                    let header = succ;
                    let mut body: BTreeSet<BlockId> = BTreeSet::new();
                    body.insert(header);
                    let mut stack = vec![b];
                    while let Some(x) = stack.pop() {
                        if body.insert(x) {
                            for &p in &preds[x.0 as usize] {
                                stack.push(p);
                            }
                        }
                    }
                    match by_header.iter_mut().find(|(h, ..)| *h == header) {
                        Some((_, blocks, latches)) => {
                            blocks.extend(body);
                            latches.push(b);
                        }
                        None => by_header.push((header, body, vec![b])),
                    }
                }
            }
        }

        let mut loops: Vec<NaturalLoop> = by_header
            .into_iter()
            .map(|(header, blocks, latches)| NaturalLoop {
                header,
                blocks,
                latches,
                depth: 1,
            })
            .collect();

        // Depth = number of loops whose block set strictly contains this one.
        let sets: Vec<BTreeSet<BlockId>> = loops.iter().map(|l| l.blocks.clone()).collect();
        for (i, l) in loops.iter_mut().enumerate() {
            let mut depth = 1;
            for (j, other) in sets.iter().enumerate() {
                if i != j && other.is_superset(&sets[i]) && other.len() > sets[i].len() {
                    depth += 1;
                }
            }
            l.depth = depth;
        }
        loops.sort_by_key(|l| (l.depth, l.header));
        LoopForest { loops }
    }

    /// The innermost loop containing block `b`, if any.
    pub fn innermost_containing(&self, b: BlockId) -> Option<&NaturalLoop> {
        self.loops
            .iter()
            .filter(|l| l.contains(b))
            .max_by_key(|l| l.depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{InstKind, Term};
    use chls_frontend::IntType;

    /// b0 -> b1(h) -> b2 -> b1 ; b1 -> b3
    fn single_loop() -> Function {
        let mut f = Function::new("l");
        let b0 = f.entry;
        let b1 = f.add_block();
        let b2 = f.add_block();
        let b3 = f.add_block();
        let c = f.add_inst(b1, InstKind::Const(1), IntType::u1());
        f.block_mut(b0).term = Term::Jump(b1);
        f.block_mut(b1).term = Term::Br {
            cond: c,
            then: b2,
            els: b3,
        };
        f.block_mut(b2).term = Term::Jump(b1);
        f.block_mut(b3).term = Term::Ret(None);
        f
    }

    #[test]
    fn finds_single_loop() {
        let f = single_loop();
        let forest = LoopForest::compute(&f);
        assert_eq!(forest.loops.len(), 1);
        let l = &forest.loops[0];
        assert_eq!(l.header, BlockId(1));
        assert_eq!(l.latches, vec![BlockId(2)]);
        assert!(l.contains(BlockId(1)) && l.contains(BlockId(2)));
        assert!(!l.contains(BlockId(0)) && !l.contains(BlockId(3)));
        assert_eq!(l.depth, 1);
    }

    #[test]
    fn nested_loops_get_depths() {
        // b0 -> b1(outer h) -> b2(inner h) -> b3 -> b2 ; b2 -> b4 -> b1 ; b1 -> b5
        let mut f = Function::new("n");
        let b0 = f.entry;
        let b1 = f.add_block();
        let b2 = f.add_block();
        let b3 = f.add_block();
        let b4 = f.add_block();
        let b5 = f.add_block();
        let c1 = f.add_inst(b1, InstKind::Const(1), IntType::u1());
        let c2 = f.add_inst(b2, InstKind::Const(1), IntType::u1());
        f.block_mut(b0).term = Term::Jump(b1);
        f.block_mut(b1).term = Term::Br {
            cond: c1,
            then: b2,
            els: b5,
        };
        f.block_mut(b2).term = Term::Br {
            cond: c2,
            then: b3,
            els: b4,
        };
        f.block_mut(b3).term = Term::Jump(b2);
        f.block_mut(b4).term = Term::Jump(b1);
        f.block_mut(b5).term = Term::Ret(None);
        let forest = LoopForest::compute(&f);
        assert_eq!(forest.loops.len(), 2);
        let outer = forest.loops.iter().find(|l| l.header == b1).unwrap();
        let inner = forest.loops.iter().find(|l| l.header == b2).unwrap();
        assert_eq!(outer.depth, 1);
        assert_eq!(inner.depth, 2);
        assert!(outer.blocks.is_superset(&inner.blocks));
        assert_eq!(forest.innermost_containing(b3).unwrap().header, b2);
        assert_eq!(forest.innermost_containing(b4).unwrap().header, b1);
    }

    #[test]
    fn no_loops_in_straight_line() {
        let mut f = Function::new("s");
        let b0 = f.entry;
        let b1 = f.add_block();
        f.block_mut(b0).term = Term::Jump(b1);
        f.block_mut(b1).term = Term::Ret(None);
        assert!(LoopForest::compute(&f).loops.is_empty());
    }

    #[test]
    fn self_loop() {
        let mut f = Function::new("s");
        let b0 = f.entry;
        let b1 = f.add_block();
        let b2 = f.add_block();
        let c = f.add_inst(b1, InstKind::Const(0), IntType::u1());
        f.block_mut(b0).term = Term::Jump(b1);
        f.block_mut(b1).term = Term::Br {
            cond: c,
            then: b1,
            els: b2,
        };
        f.block_mut(b2).term = Term::Ret(None);
        let forest = LoopForest::compute(&f);
        assert_eq!(forest.loops.len(), 1);
        assert_eq!(forest.loops[0].blocks.len(), 1);
        assert_eq!(forest.loops[0].latches, vec![b1]);
    }
}

//! And-Inverter Graphs with complemented edges, structural hashing, and
//! constant folding.
//!
//! An AIG is a DAG of two-input AND nodes whose edges carry an optional
//! inversion bit. Node 0 is the constant-FALSE node; every other node is
//! either a primary input or an AND gate. The representation is the
//! workhorse of the equivalence checker: both sides of a miter are
//! bit-blasted into *one* shared [`Aig`], so structurally identical
//! cones hash to the same node and the miter frequently collapses to
//! constant FALSE before the SAT solver ever runs.
//!
//! Construction applies the standard one- and two-level simplification
//! rules (constant absorption, idempotence, contradiction, substitution,
//! and the four resolution shapes), which is enough to fold multiplexers
//! with equal arms — the pattern that dominates unrolled FSMD state
//! logic. The structural hash is keyed by the packed fanin pair under
//! the one-multiply [`chls_ir::FastHasher`]; node numbering follows
//! insertion order alone.
//!
//! Node indices are topological by construction (an AND's fanins always
//! exist before it), so [`Aig::simulate64`] evaluates the whole graph in
//! one pass over the node array, 64 input patterns at a time: one `u64`
//! per node, AND and complement one instruction each. [`Aig::eval`] is
//! lane 0 of that pass.

use chls_ir::FastMap;
use std::collections::HashMap;

/// An AIG edge: a node index with a complement bit in the LSB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(pub u32);

impl Lit {
    /// Constant false (the complement of node 0 is constant true).
    pub const FALSE: Lit = Lit(0);
    /// Constant true.
    pub const TRUE: Lit = Lit(1);

    /// The node this edge points at.
    pub fn var(self) -> u32 {
        self.0 >> 1
    }

    /// Whether the edge is complemented.
    pub fn is_compl(self) -> bool {
        self.0 & 1 != 0
    }

    /// The positive edge to a node.
    pub fn from_var(v: u32) -> Lit {
        Lit(v << 1)
    }

    /// Whether this edge is one of the two constants.
    pub fn is_const(self) -> bool {
        self.var() == 0
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

const NO_FANIN: Lit = Lit(u32::MAX);

/// Structural hash table: packed ordered fanin pair → AND node.
type Strash = FastMap<u64, u32>;

/// An and-inverter graph. Node 0 is constant FALSE; inputs and AND
/// gates share one index space.
#[derive(Debug, Clone, Default)]
pub struct Aig {
    /// Fanins per node; `NO_FANIN` marks inputs (and the constant).
    fanins: Vec<[Lit; 2]>,
    /// Structural hash: ordered fanin pair (packed `a << 32 | b`) →
    /// existing AND node.
    strash: Strash,
    /// Primary input nodes, in creation order.
    inputs: Vec<u32>,
}

impl Aig {
    /// An empty graph holding only the constant node.
    pub fn new() -> Aig {
        Aig {
            fanins: vec![[NO_FANIN, NO_FANIN]],
            strash: Strash::default(),
            inputs: Vec::new(),
        }
    }

    /// Creates a fresh primary input and returns its positive edge.
    pub fn input(&mut self) -> Lit {
        let v = self.fanins.len() as u32;
        self.fanins.push([NO_FANIN, NO_FANIN]);
        self.inputs.push(v);
        Lit::from_var(v)
    }

    /// Whether a node is an AND gate.
    pub fn is_and(&self, v: u32) -> bool {
        self.fanins[v as usize][0] != NO_FANIN
    }

    /// Fanins of an AND node.
    pub fn node(&self, v: u32) -> [Lit; 2] {
        self.fanins[v as usize]
    }

    /// Total number of nodes (constant + inputs + ANDs).
    pub fn len(&self) -> usize {
        self.fanins.len()
    }

    /// Whether the graph holds only the constant node.
    pub fn is_empty(&self) -> bool {
        self.fanins.len() == 1
    }

    /// The primary inputs, in creation order.
    pub fn inputs(&self) -> &[u32] {
        &self.inputs
    }

    /// AND with constant folding, one- and two-level rewriting, and
    /// structural hashing.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        let (mut a, mut b) = (a, b);
        loop {
            // Level-zero rules.
            if a == Lit::FALSE || b == Lit::FALSE || a == !b {
                return Lit::FALSE;
            }
            if a == Lit::TRUE || a == b {
                return b;
            }
            if b == Lit::TRUE {
                return a;
            }
            if a.0 > b.0 {
                std::mem::swap(&mut a, &mut b);
            }
            let fa = self.is_and(a.var()).then(|| self.fanins[a.var() as usize]);
            let fb = self.is_and(b.var()).then(|| self.fanins[b.var() as usize]);
            // One-level rules against `a`'s fanins.
            if let Some([a0, a1]) = fa {
                if !a.is_compl() {
                    // (a0 ∧ a1) ∧ b
                    if a0 == !b || a1 == !b {
                        return Lit::FALSE; // contradiction
                    }
                    if a0 == b || a1 == b {
                        return a; // idempotence
                    }
                } else {
                    // ¬(a0 ∧ a1) ∧ b
                    if a0 == !b || a1 == !b {
                        return b; // subsumption
                    }
                    if a0 == b {
                        a = !a1; // substitution: b ∧ ¬a1
                        continue;
                    }
                    if a1 == b {
                        a = !a0;
                        continue;
                    }
                }
            }
            // One-level rules against `b`'s fanins.
            if let Some([b0, b1]) = fb {
                if !b.is_compl() {
                    if b0 == !a || b1 == !a {
                        return Lit::FALSE;
                    }
                    if b0 == a || b1 == a {
                        return b;
                    }
                } else {
                    if b0 == !a || b1 == !a {
                        return a;
                    }
                    if b0 == a {
                        b = !b1;
                        continue;
                    }
                    if b1 == a {
                        b = !b0;
                        continue;
                    }
                }
            }
            // Two-level rules.
            if let (Some([a0, a1]), Some([b0, b1])) = (fa, fb) {
                if !a.is_compl() && !b.is_compl() {
                    // (a0∧a1) ∧ (b0∧b1): contradiction across cones.
                    if a0 == !b0 || a0 == !b1 || a1 == !b0 || a1 == !b1 {
                        return Lit::FALSE;
                    }
                } else if a.is_compl() && b.is_compl() {
                    // ¬(a0∧a1) ∧ ¬(b0∧b1): the four resolution shapes.
                    // E.g. with a0 = ¬b0, a1 = b1: (¬a0∨¬a1)(a0∨¬a1) = ¬a1.
                    if (a0 == !b0 && a1 == b1) || (a0 == !b1 && a1 == b0) {
                        return !a1;
                    }
                    if (a1 == !b0 && a0 == b1) || (a1 == !b1 && a0 == b0) {
                        return !a0;
                    }
                }
            }
            // Structural hashing.
            let key = u64::from(a.0) << 32 | u64::from(b.0);
            if let Some(&v) = self.strash.get(&key) {
                return Lit::from_var(v);
            }
            let v = self.fanins.len() as u32;
            self.fanins.push([a, b]);
            self.strash.insert(key, v);
            return Lit::from_var(v);
        }
    }

    /// OR via De Morgan.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(!a, !b)
    }

    /// XOR (two ANDs plus an OR; strash folds the degenerate cases).
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let l = self.and(a, !b);
        let r = self.and(!a, b);
        self.or(l, r)
    }

    /// If-then-else. The equal-arm case (`t == e`) folds to `t` through
    /// the resolution rules.
    pub fn mux(&mut self, s: Lit, t: Lit, e: Lit) -> Lit {
        let l = self.and(s, t);
        let r = self.and(!s, e);
        self.or(l, r)
    }

    /// Evaluates the whole graph on 64 input patterns at once: bit `j`
    /// of `lanes(v)` is input node `v`'s value in pattern `j`, and bit
    /// `j` of the result's entry `u` is node `u`'s value in that pattern.
    /// One pass over the nodes in index order, which is topological.
    pub fn simulate64(&self, lanes: impl Fn(u32) -> u64) -> Vec<u64> {
        let mut vals = vec![0u64; self.fanins.len()];
        for v in 1..self.fanins.len() {
            let [f0, f1] = self.fanins[v];
            vals[v] = if f0 == NO_FANIN {
                lanes(v as u32)
            } else {
                Aig::lit_value64(&vals, f0) & Aig::lit_value64(&vals, f1)
            };
        }
        vals
    }

    /// The 64 lanes of one edge under a pass of [`Aig::simulate64`].
    pub fn lit_value64(vals: &[u64], l: Lit) -> u64 {
        vals[l.var() as usize] ^ 0u64.wrapping_sub(u64::from(l.is_compl()))
    }

    /// Evaluates the whole graph under one input assignment (inputs
    /// absent from `assign` default to false): lane 0 of
    /// [`Aig::simulate64`]. Used by tests and counterexample decoding.
    pub fn eval(&self, assign: &HashMap<u32, bool>) -> Vec<bool> {
        self.simulate64(|v| u64::from(assign.get(&v).copied().unwrap_or(false)))
            .into_iter()
            .map(|w| w & 1 != 0)
            .collect()
    }

    /// The value of one edge under a full evaluation from [`Aig::eval`].
    pub fn lit_value(vals: &[bool], l: Lit) -> bool {
        vals[l.var() as usize] ^ l.is_compl()
    }

    /// The transitive fanin cone of `roots`, in topological order
    /// (fanins before fanouts). Includes input nodes and, if reachable,
    /// the constant node.
    pub fn cone(&self, roots: &[Lit]) -> Vec<u32> {
        let mut seen = vec![false; self.fanins.len()];
        let mut order = Vec::new();
        let mut stack: Vec<(u32, bool)> = roots.iter().map(|l| (l.var(), false)).collect();
        while let Some((v, expanded)) = stack.pop() {
            if expanded {
                order.push(v);
                continue;
            }
            if seen[v as usize] {
                continue;
            }
            seen[v as usize] = true;
            stack.push((v, true));
            if self.is_and(v) {
                let [f0, f1] = self.fanins[v as usize];
                stack.push((f0.var(), false));
                stack.push((f1.var(), false));
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_fold() {
        let mut g = Aig::new();
        let a = g.input();
        assert_eq!(g.and(a, Lit::FALSE), Lit::FALSE);
        assert_eq!(g.and(Lit::TRUE, a), a);
        assert_eq!(g.and(a, a), a);
        assert_eq!(g.and(a, !a), Lit::FALSE);
    }

    #[test]
    fn strash_shares_structure() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let x = g.and(a, b);
        let y = g.and(b, a);
        assert_eq!(x, y);
        let n = g.len();
        let _ = g.and(a, b);
        assert_eq!(g.len(), n);
    }

    #[test]
    fn mux_equal_arms_folds() {
        let mut g = Aig::new();
        let s = g.input();
        let t = g.input();
        assert_eq!(g.mux(s, t, t), t);
        assert_eq!(g.mux(s, !t, !t), !t);
    }

    #[test]
    fn xor_of_self_is_false() {
        let mut g = Aig::new();
        let a = g.input();
        assert_eq!(g.xor(a, a), Lit::FALSE);
        assert_eq!(g.xor(a, !a), Lit::TRUE);
    }

    #[test]
    fn eval_matches_truth_table() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let x = g.xor(a, b);
        for (va, vb) in [(false, false), (false, true), (true, false), (true, true)] {
            let mut assign = HashMap::new();
            assign.insert(a.var(), va);
            assign.insert(b.var(), vb);
            let vals = g.eval(&assign);
            assert_eq!(Aig::lit_value(&vals, x), va ^ vb);
        }
    }
}

//! A small, self-contained CDCL SAT solver plus Tseitin encoding of AIG
//! cones. No external dependencies: the suite runs offline, and the
//! miters produced by [`crate::equiv`] are modest, so a classic
//! MiniSat-style core — two watched literals, first-UIP clause
//! learning, VSIDS decision heap with phase saving, Luby restarts, and
//! periodic learned-clause reduction — is enough. A conflict budget
//! turns runaway instances into an explicit `Unknown` instead of a
//! hang.
//!
//! [`Cnf`] maps AIG variables to solver variables through a dense
//! vector indexed by AIG variable, so encoding a cone costs four array
//! reads per AND rather than four hash lookups.

use crate::aig::{Aig, Lit};

/// A solver literal: `var << 1 | sign` (sign 1 = negated).
pub type SLit = u32;

/// Positive literal of `v`.
pub fn pos(v: u32) -> SLit {
    v << 1
}

/// Negative literal of `v`.
pub fn neg(v: u32) -> SLit {
    v << 1 | 1
}

/// Complement.
pub fn snot(l: SLit) -> SLit {
    l ^ 1
}

fn svar(l: SLit) -> u32 {
    l >> 1
}

/// Solver result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Satisfiable, with one model (value per variable).
    Sat(Vec<bool>),
    /// Proven unsatisfiable.
    Unsat,
    /// Conflict budget exhausted before a verdict.
    Unknown,
}

#[derive(Debug)]
struct Clause {
    lits: Vec<SLit>,
    learnt: bool,
    deleted: bool,
    activity: f64,
}

const UNASSIGNED: i8 = -1;

/// CDCL solver over [`SLit`] clauses.
pub struct Solver {
    clauses: Vec<Clause>,
    /// For each literal, the clauses watching it.
    watches: Vec<Vec<u32>>,
    /// Variable assignment: -1 unassigned, 0 false, 1 true.
    assign: Vec<i8>,
    level: Vec<u32>,
    reason: Vec<Option<u32>>,
    trail: Vec<SLit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    /// Binary max-heap of variables ordered by activity.
    heap: Vec<u32>,
    heap_pos: Vec<i32>,
    phase: Vec<bool>,
    conflicts: u64,
    ok: bool,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Empty solver.
    pub fn new() -> Solver {
        Solver {
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            heap: Vec::new(),
            heap_pos: Vec::new(),
            phase: Vec::new(),
            conflicts: 0,
            ok: true,
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> u32 {
        let v = self.assign.len() as u32;
        self.assign.push(UNASSIGNED);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.phase.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap_pos.push(-1);
        self.heap_insert(v);
        v
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Conflicts seen so far.
    pub fn num_conflicts(&self) -> u64 {
        self.conflicts
    }

    fn lit_value(&self, l: SLit) -> i8 {
        let a = self.assign[svar(l) as usize];
        if a == UNASSIGNED {
            UNASSIGNED
        } else {
            a ^ (l & 1) as i8
        }
    }

    /// Adds a clause (called at decision level 0). Returns `false` if
    /// the formula became trivially unsatisfiable.
    pub fn add_clause(&mut self, lits: &[SLit]) -> bool {
        debug_assert!(self.trail_lim.is_empty(), "clauses are added at level 0");
        if !self.ok {
            return false;
        }
        // Dedupe, drop false literals, detect tautologies/satisfied.
        let mut cl: Vec<SLit> = Vec::with_capacity(lits.len());
        for &l in lits {
            debug_assert!(
                (svar(l) as usize) < self.assign.len(),
                "literal out of range"
            );
            if self.lit_value(l) == 1 || cl.contains(&snot(l)) {
                return true; // already satisfied / tautology
            }
            if self.lit_value(l) == 0 || cl.contains(&l) {
                continue;
            }
            cl.push(l);
        }
        match cl.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(cl[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach(cl, false);
                true
            }
        }
    }

    fn attach(&mut self, lits: Vec<SLit>, learnt: bool) -> u32 {
        let idx = self.clauses.len() as u32;
        self.watches[lits[0] as usize].push(idx);
        self.watches[lits[1] as usize].push(idx);
        self.clauses.push(Clause {
            lits,
            learnt,
            deleted: false,
            activity: self.cla_inc,
        });
        idx
    }

    fn enqueue(&mut self, l: SLit, from: Option<u32>) {
        let v = svar(l) as usize;
        debug_assert_eq!(self.assign[v], UNASSIGNED);
        self.assign[v] = 1 - (l & 1) as i8;
        self.level[v] = self.trail_lim.len() as u32;
        self.reason[v] = from;
        self.phase[v] = self.assign[v] == 1;
        self.trail.push(l);
    }

    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = snot(p);
            let mut ws = std::mem::take(&mut self.watches[false_lit as usize]);
            let mut i = 0;
            while i < ws.len() {
                let ci = ws[i];
                if self.clauses[ci as usize].deleted {
                    ws.swap_remove(i);
                    continue;
                }
                // Make sure the false literal is in slot 1.
                let cl = &mut self.clauses[ci as usize];
                if cl.lits[0] == false_lit {
                    cl.lits.swap(0, 1);
                }
                let first = cl.lits[0];
                if self.lit_value(first) == 1 {
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let mut moved = false;
                for k in 2..self.clauses[ci as usize].lits.len() {
                    let lk = self.clauses[ci as usize].lits[k];
                    if self.lit_value(lk) != 0 {
                        self.clauses[ci as usize].lits.swap(1, k);
                        self.watches[lk as usize].push(ci);
                        ws.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                if self.lit_value(first) == 0 {
                    // Conflict: restore the remaining watches.
                    self.watches[false_lit as usize] = ws;
                    self.qhead = self.trail.len();
                    return Some(ci);
                }
                self.enqueue(first, Some(ci));
                i += 1;
            }
            self.watches[false_lit as usize] = ws;
        }
        None
    }

    fn analyze(&mut self, mut confl: u32) -> (Vec<SLit>, u32) {
        let cur_level = self.trail_lim.len() as u32;
        let mut seen = vec![false; self.assign.len()];
        let mut learnt: Vec<SLit> = vec![0];
        let mut counter = 0usize;
        let mut p: Option<SLit> = None;
        let mut index = self.trail.len();
        loop {
            self.bump_clause(confl);
            let lits = self.clauses[confl as usize].lits.clone();
            for &q in &lits {
                if Some(q) == p {
                    // The literal this reason clause asserted.
                    continue;
                }
                let v = svar(q) as usize;
                if !seen[v] && self.level[v] > 0 {
                    seen[v] = true;
                    self.bump_var(v as u32);
                    if self.level[v] >= cur_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Next literal to resolve on.
            loop {
                index -= 1;
                if seen[svar(self.trail[index]) as usize] {
                    break;
                }
            }
            let pl = self.trail[index];
            seen[svar(pl) as usize] = false;
            counter -= 1;
            p = Some(pl);
            if counter == 0 {
                learnt[0] = snot(pl);
                break;
            }
            confl = self.reason[svar(pl) as usize].expect("implied literal has a reason");
        }
        // Backjump level: highest level among the other literals.
        let mut back = 0;
        if learnt.len() > 1 {
            let mut max_i = 1;
            for i in 1..learnt.len() {
                if self.level[svar(learnt[i]) as usize] > self.level[svar(learnt[max_i]) as usize] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            back = self.level[svar(learnt[1]) as usize];
        }
        (learnt, back)
    }

    fn backtrack(&mut self, level: u32) {
        while self.trail_lim.len() as u32 > level {
            let lim = self.trail_lim.pop().expect("trail_lim");
            while self.trail.len() > lim {
                let l = self.trail.pop().expect("trail");
                let v = svar(l);
                self.assign[v as usize] = UNASSIGNED;
                self.reason[v as usize] = None;
                if self.heap_pos[v as usize] < 0 {
                    self.heap_insert(v);
                }
            }
        }
        self.qhead = self.trail.len();
    }

    fn bump_var(&mut self, v: u32) {
        self.activity[v as usize] += self.var_inc;
        if self.activity[v as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        if self.heap_pos[v as usize] >= 0 {
            self.sift_up(self.heap_pos[v as usize] as usize);
        }
    }

    fn bump_clause(&mut self, ci: u32) {
        let c = &mut self.clauses[ci as usize];
        if !c.learnt {
            return;
        }
        c.activity += self.cla_inc;
        if c.activity > 1e100 {
            for cl in self.clauses.iter_mut().filter(|c| c.learnt) {
                cl.activity *= 1e-100;
            }
            self.cla_inc *= 1e-100;
        }
    }

    // --- activity heap -------------------------------------------------

    fn heap_insert(&mut self, v: u32) {
        self.heap_pos[v as usize] = self.heap.len() as i32;
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1);
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.activity[self.heap[i] as usize] <= self.activity[self.heap[parent] as usize] {
                break;
            }
            self.heap_swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if l < self.heap.len()
                && self.activity[self.heap[l] as usize] > self.activity[self.heap[best] as usize]
            {
                best = l;
            }
            if r < self.heap.len()
                && self.activity[self.heap[r] as usize] > self.activity[self.heap[best] as usize]
            {
                best = r;
            }
            if best == i {
                break;
            }
            self.heap_swap(i, best);
            i = best;
        }
    }

    fn heap_swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.heap_pos[self.heap[i] as usize] = i as i32;
        self.heap_pos[self.heap[j] as usize] = j as i32;
    }

    fn pop_decision_var(&mut self) -> Option<u32> {
        while let Some(&v) = self.heap.first() {
            let last = self.heap.len() - 1;
            self.heap_swap(0, last);
            self.heap.pop();
            self.heap_pos[v as usize] = -1;
            if !self.heap.is_empty() {
                self.sift_down(0);
            }
            if self.assign[v as usize] == UNASSIGNED {
                return Some(v);
            }
        }
        None
    }

    // --- learned-clause reduction --------------------------------------

    fn reduce_db(&mut self) {
        let mut learnts: Vec<u32> = (0..self.clauses.len() as u32)
            .filter(|&i| {
                let c = &self.clauses[i as usize];
                c.learnt && !c.deleted && c.lits.len() > 2
            })
            .collect();
        learnts.sort_by(|&a, &b| {
            self.clauses[a as usize]
                .activity
                .partial_cmp(&self.clauses[b as usize].activity)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let locked: Vec<Option<u32>> = self.reason.clone();
        for &ci in learnts.iter().take(learnts.len() / 2) {
            if locked.contains(&Some(ci)) {
                continue;
            }
            self.clauses[ci as usize].deleted = true;
        }
        // Watch lists are cleaned lazily during propagation.
    }

    // --- main search ----------------------------------------------------

    /// Solves the current formula; `budget` caps total conflicts.
    pub fn solve(&mut self, budget: Option<u64>) -> Outcome {
        if !self.ok {
            return Outcome::Unsat;
        }
        if self.propagate().is_some() {
            self.ok = false;
            return Outcome::Unsat;
        }
        let mut restart = 0u32;
        let mut next_reduce = 2000u64;
        loop {
            let limit = luby(restart) * 100;
            let mut local = 0u64;
            loop {
                if let Some(confl) = self.propagate() {
                    self.conflicts += 1;
                    local += 1;
                    if self.trail_lim.is_empty() {
                        self.ok = false;
                        return Outcome::Unsat;
                    }
                    let (learnt, back) = self.analyze(confl);
                    self.backtrack(back);
                    if learnt.len() == 1 {
                        self.enqueue(learnt[0], None);
                    } else {
                        let asserting = learnt[0];
                        let ci = self.attach(learnt, true);
                        self.enqueue(asserting, Some(ci));
                    }
                    self.var_inc /= 0.95;
                    self.cla_inc /= 0.999;
                    if let Some(b) = budget {
                        if self.conflicts >= b {
                            self.backtrack(0);
                            return Outcome::Unknown;
                        }
                    }
                    if self.conflicts >= next_reduce {
                        next_reduce += 2000;
                        self.reduce_db();
                    }
                    if local >= limit {
                        break;
                    }
                } else {
                    match self.pop_decision_var() {
                        Some(v) => {
                            self.trail_lim.push(self.trail.len());
                            let l = if self.phase[v as usize] {
                                pos(v)
                            } else {
                                neg(v)
                            };
                            self.enqueue(l, None);
                        }
                        None => {
                            let model = self.assign.iter().map(|&a| a == 1).collect();
                            self.backtrack(0);
                            return Outcome::Sat(model);
                        }
                    }
                }
            }
            self.backtrack(0);
            restart += 1;
        }
    }
}

/// Luby restart sequence (1, 1, 2, 1, 1, 2, 4, ...).
fn luby(i: u32) -> u64 {
    let mut x = i as u64;
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

// ---------------------------------------------------------------------
// Tseitin encoding of AIG cones.
// ---------------------------------------------------------------------

/// Marks AIG variables outside the encoded cones in [`Cnf::var_map`].
pub const NOT_ENCODED: u32 = u32::MAX;

/// A Tseitin encoding of one or more AIG cones into a [`Solver`],
/// remembering the AIG-variable → solver-variable map for decoding
/// models.
pub struct Cnf {
    /// Solver variable per AIG variable, indexed by AIG variable;
    /// [`NOT_ENCODED`] outside the encoded cones. Solver variables are
    /// numbered in the cone's topological order.
    pub var_map: Vec<u32>,
}

impl Cnf {
    /// Encodes the cone of `roots` (3 clauses per AND node, a unit
    /// clause pinning the constant node false). Roots are *not*
    /// asserted; use [`Cnf::assert_true`].
    pub fn encode(aig: &Aig, roots: &[Lit], solver: &mut Solver) -> Cnf {
        let mut var_map = vec![NOT_ENCODED; aig.len()];
        let cone = aig.cone(roots);
        for &v in &cone {
            var_map[v as usize] = solver.new_var();
        }
        let cnf = Cnf { var_map };
        for &v in &cone {
            if v == 0 {
                solver.add_clause(&[neg(cnf.var_map[0])]);
                continue;
            }
            if aig.is_and(v) {
                let [a, b] = aig.node(v);
                let x = pos(cnf.var_map[v as usize]);
                let (sa, sb) = (cnf.slit(a), cnf.slit(b));
                solver.add_clause(&[snot(x), sa]);
                solver.add_clause(&[snot(x), sb]);
                solver.add_clause(&[x, snot(sa), snot(sb)]);
            }
        }
        cnf
    }

    /// The solver literal of an encoded AIG edge.
    fn slit(&self, l: Lit) -> SLit {
        let sv = self.var_map[l.var() as usize];
        debug_assert_ne!(sv, NOT_ENCODED, "edge outside the encoded cone");
        sv << 1 | u32::from(l.is_compl())
    }

    /// Asserts an already-encoded literal true.
    pub fn assert_true(&self, l: Lit, solver: &mut Solver) -> bool {
        solver.add_clause(&[self.slit(l)])
    }

    /// Converts a solver model back to AIG input values (false for
    /// variables outside the encoded cone).
    pub fn decode(&self, aig: &Aig, model: &[bool]) -> Vec<bool> {
        let mut vals = vec![false; aig.len()];
        for (val, &sv) in vals.iter_mut().zip(&self.var_map) {
            if sv != NOT_ENCODED {
                *val = model[sv as usize];
            }
        }
        vals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(s: &mut Solver, n: usize) -> Vec<u32> {
        (0..n).map(|_| s.new_var()).collect()
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        assert!(s.add_clause(&[pos(v[0]), pos(v[1])]));
        assert!(s.add_clause(&[neg(v[0])]));
        match s.solve(None) {
            Outcome::Sat(m) => {
                assert!(!m[v[0] as usize]);
                assert!(m[v[1] as usize]);
            }
            other => panic!("expected sat, got {other:?}"),
        }
        let mut s = Solver::new();
        let v = vars(&mut s, 1);
        s.add_clause(&[pos(v[0])]);
        s.add_clause(&[neg(v[0])]);
        assert_eq!(s.solve(None), Outcome::Unsat);
    }

    #[test]
    fn pigeonhole_is_unsat() {
        // 5 pigeons into 4 holes: classic resolution-hard-but-small
        // instance exercising learning and restarts.
        let (p, h) = (5u32, 4u32);
        let mut s = Solver::new();
        let var = |i: u32, j: u32| i * h + j;
        for _ in 0..p * h {
            s.new_var();
        }
        for i in 0..p {
            let cl: Vec<SLit> = (0..h).map(|j| pos(var(i, j))).collect();
            s.add_clause(&cl);
        }
        for j in 0..h {
            for i1 in 0..p {
                for i2 in (i1 + 1)..p {
                    s.add_clause(&[neg(var(i1, j)), neg(var(i2, j))]);
                }
            }
        }
        assert_eq!(s.solve(None), Outcome::Unsat);
    }

    #[test]
    fn budget_reports_unknown() {
        let (p, h) = (8u32, 7u32);
        let mut s = Solver::new();
        let var = |i: u32, j: u32| i * h + j;
        for _ in 0..p * h {
            s.new_var();
        }
        for i in 0..p {
            let cl: Vec<SLit> = (0..h).map(|j| pos(var(i, j))).collect();
            s.add_clause(&cl);
        }
        for j in 0..h {
            for i1 in 0..p {
                for i2 in (i1 + 1)..p {
                    s.add_clause(&[neg(var(i1, j)), neg(var(i2, j))]);
                }
            }
        }
        assert_eq!(s.solve(Some(10)), Outcome::Unknown);
    }

    #[test]
    fn tseitin_agrees_with_aig_eval() {
        // x = (a & !b) | c, check SAT models satisfy the AIG and UNSAT
        // of x & !x.
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let c = g.input();
        let t = g.and(a, !b);
        let x = g.or(t, c);
        let mut s = Solver::new();
        let cnf = Cnf::encode(&g, &[x], &mut s);
        cnf.assert_true(x, &mut s);
        match s.solve(None) {
            Outcome::Sat(m) => {
                let vals = cnf.decode(&g, &m);
                assert!(Aig::lit_value(&vals, x), "model must satisfy the root");
            }
            other => panic!("expected sat, got {other:?}"),
        }
        // x & !x is unsatisfiable.
        let mut s2 = Solver::new();
        let both = g.and(x, !x);
        assert_eq!(both, Lit::FALSE);
        let y = g.and(x, c);
        let contradiction = g.and(y, !x);
        assert_eq!(contradiction, Lit::FALSE, "AIG already folds it");
        // Force a non-folded contradiction through CNF: assert x and !x.
        let cnf2 = Cnf::encode(&g, &[x], &mut s2);
        cnf2.assert_true(x, &mut s2);
        cnf2.assert_true(!x, &mut s2);
        assert_eq!(s2.solve(None), Outcome::Unsat);
    }
}

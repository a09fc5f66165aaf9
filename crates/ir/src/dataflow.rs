//! Generic forward-dataflow / abstract-interpretation engine over the SSA
//! CFG, with pluggable value lattices.
//!
//! The solver ([`solve`]) runs three phases over a [`Domain`]:
//!
//! 1. **Grow** — a few optimistic reverse-postorder passes where facts only
//!    move up the lattice (`join` with the old fact).
//! 2. **Widen** — any fact still in motion (loop-carried growth) is widened
//!    via [`Domain::widen`]; repeated until a complete pass is quiet, at
//!    which point the state is a post-fixpoint of the transfer function.
//! 3. **Narrow** — a bounded number of passes that *replace* each fact with
//!    the transfer output. Starting from a post-fixpoint and applying a
//!    monotone transfer keeps every fact above the least fixpoint, so this
//!    recovers precision lost to widening (e.g. a loop counter bounded by
//!    its exit test) without risking unsoundness.
//!
//! Facts at uses are sharpened by **branch guards**: when a two-way branch
//! `br c, T, E` dominates the program point (see [`block_guards`]), the
//! direct operands of `c` may be intersected with what the branch outcome
//! implies ([`Domain::refine`]). This is sound in SSA form: the comparison
//! dominates the guarded block, and SSA values are immutable, so the
//! operands still hold the compared values at every dominated use.
//!
//! Shipped domains: [`Intervals`] (value ranges, the basis of width
//! narrowing and bounds checks) and [`KnownBits`] (tri-state known-bit
//! masks, which catch `x & 0xF0`-style facts intervals cannot express).
//! [`may_written_on_entry`] is a small independent memory analysis used by
//! the uninitialized-read lint.

use crate::dom::DomTree;
use crate::ir::*;
use chls_frontend::IntType;
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// Range lattice element
// ---------------------------------------------------------------------------

/// An inclusive value interval over canonical (i64) values.
///
/// Tracked in `i128` so interval arithmetic never overflows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Range {
    /// Smallest possible value.
    pub lo: i128,
    /// Largest possible value.
    pub hi: i128,
}

impl Range {
    /// The exact range of one constant.
    pub fn exact(v: i64) -> Self {
        Range {
            lo: v as i128,
            hi: v as i128,
        }
    }

    /// The full range of a declared type.
    pub fn of_type(ty: IntType) -> Self {
        if ty.signed {
            Range {
                lo: -(1i128 << (ty.width - 1)),
                hi: (1i128 << (ty.width - 1)) - 1,
            }
        } else {
            Range {
                lo: 0,
                hi: (1i128 << ty.width) - 1,
            }
        }
    }

    /// Smallest interval containing both.
    pub fn union(self, other: Range) -> Range {
        Range {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Intersection; `None` when the intervals are disjoint.
    pub fn intersect(self, other: Range) -> Option<Range> {
        let r = Range {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        };
        (r.lo <= r.hi).then_some(r)
    }

    /// True when the interval is a single value.
    pub fn is_const(self) -> bool {
        self.lo == self.hi
    }

    /// Minimal width (1..=64) needed to represent every value in the range
    /// with the given signedness.
    pub fn needed_width(self, signed: bool) -> u16 {
        fn bits_unsigned(v: i128) -> u16 {
            if v <= 0 {
                1
            } else {
                (128 - v.leading_zeros()) as u16
            }
        }
        let w = if signed || self.lo < 0 {
            // Two's complement: enough bits for both ends.
            let lo_bits = if self.lo < 0 {
                (128 - (-(self.lo + 1)).leading_zeros() + 1) as u16
            } else {
                1
            };
            let hi_bits = if self.hi <= 0 {
                1
            } else {
                bits_unsigned(self.hi) + 1
            };
            lo_bits.max(hi_bits)
        } else {
            bits_unsigned(self.hi)
        };
        w.clamp(1, 64)
    }
}

// ---------------------------------------------------------------------------
// Branch guards
// ---------------------------------------------------------------------------

/// A fact holding at a program point: the branch condition `cond` was
/// observed to be true (`polarity`) or false (`!polarity`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Guard {
    /// The branch condition value (a `u1`).
    pub cond: Value,
    /// `true` when the taken edge was the then-edge.
    pub polarity: bool,
}

/// The guard implied by the CFG edge `p -> b`, if `p` ends in a two-way
/// branch distinguishing its successors.
pub fn edge_guard(f: &Function, p: BlockId, b: BlockId) -> Option<Guard> {
    if let Term::Br { cond, then, els } = f.block(p).term {
        if then != els {
            if b == then {
                return Some(Guard {
                    cond,
                    polarity: true,
                });
            }
            if b == els {
                return Some(Guard {
                    cond,
                    polarity: false,
                });
            }
        }
    }
    None
}

/// For each block, the set of branch guards known to hold on entry.
///
/// A branch `br c, T, E` in block `P` guards a successor `S` when `S` has
/// no other predecessor (so reaching `S` proves the branch outcome); the
/// guard then extends to every block dominated by `S`.
pub fn block_guards(f: &Function) -> Vec<Vec<Guard>> {
    let dt = DomTree::compute(f);
    let preds = f.predecessors();
    let mut sources: Vec<(BlockId, Guard)> = Vec::new();
    for (pi, blk) in f.blocks.iter().enumerate() {
        if dt.idom[pi].is_none() {
            continue;
        }
        if let Term::Br { cond, then, els } = blk.term {
            if then == els {
                continue;
            }
            for (succ, polarity) in [(then, true), (els, false)] {
                if preds[succ.0 as usize].len() == 1 {
                    sources.push((succ, Guard { cond, polarity }));
                }
            }
        }
    }
    let mut guards = vec![Vec::new(); f.blocks.len()];
    for (bi, out) in guards.iter_mut().enumerate() {
        if dt.idom[bi].is_none() {
            continue;
        }
        for &(s, g) in &sources {
            if dt.dominates(s, BlockId(bi as u32)) {
                out.push(g);
            }
        }
    }
    guards
}

// ---------------------------------------------------------------------------
// Domain trait + solver
// ---------------------------------------------------------------------------

/// A forward abstract domain: one fact per SSA value.
///
/// Lattice contract: `join` is the least upper bound, `top(f, v)` is a
/// sound fact for any runtime value of `v`'s declared type, and the
/// transfer function must be monotone. `widen(old, grown)` must return a
/// fact at least as high as `grown` whose repeated application terminates
/// (the solver additionally joins the result with `grown`, so returning
/// `top` is always acceptable).
pub trait Domain {
    /// The lattice element tracked per value.
    type Fact: Clone + PartialEq;

    /// The least precise sound fact for `v` (used for values the solver
    /// never reached, e.g. in unreachable blocks).
    fn top(&self, f: &Function, v: Value) -> Self::Fact;

    /// Abstract evaluation of non-phi instruction `v`. Returns `None` when
    /// an operand has no fact yet (optimistic bottom). Operand facts come
    /// through [`Ctx::get`], which applies branch-guard refinement.
    fn transfer(&self, f: &Function, v: Value, ctx: &Ctx<'_, Self>) -> Option<Self::Fact>;

    /// Least upper bound.
    fn join(&self, a: &Self::Fact, b: &Self::Fact) -> Self::Fact;

    /// Accelerates a still-growing (loop-carried) fact. `grown` is
    /// `join(old, new)` and differs from `old`.
    fn widen(&self, f: &Function, v: Value, old: &Self::Fact, grown: &Self::Fact) -> Self::Fact;

    /// Sharpens `fact` (the current fact of `target`) with the knowledge
    /// that `cond` evaluated to `polarity`. Only sound to act when
    /// `target` is `cond` itself or a direct operand of `cond`; the
    /// default is the identity.
    fn refine(
        &self,
        _f: &Function,
        fact: Self::Fact,
        _state: &[Option<Self::Fact>],
        _guard: Guard,
        _target: Value,
    ) -> Self::Fact {
        fact
    }
}

/// Read-only view of the solver state handed to [`Domain::transfer`].
pub struct Ctx<'a, D: Domain + ?Sized> {
    f: &'a Function,
    dom: &'a D,
    state: &'a [Option<D::Fact>],
    guards: &'a [Guard],
}

impl<D: Domain + ?Sized> Ctx<'_, D> {
    /// The fact of `v`, sharpened by every branch guard active at the
    /// instruction being transferred. `None` while `v` is still bottom.
    pub fn get(&self, v: Value) -> Option<D::Fact> {
        let mut fact = self.state[v.0 as usize].clone()?;
        for &g in self.guards {
            fact = self.dom.refine(self.f, fact, self.state, g, v);
        }
        Some(fact)
    }

    /// The unrefined fact of `v`.
    pub fn raw(&self, v: Value) -> Option<&D::Fact> {
        self.state[v.0 as usize].as_ref()
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Grow,
    Widen,
    Narrow,
}

/// Optimistic reverse-postorder passes before widening kicks in.
const GROW_PASSES: usize = 3;
/// Precision-recovery passes after the widened fixpoint.
const NARROW_PASSES: usize = 2;

/// Solves `dom` over `f`, returning one fact per SSA value.
pub fn solve<D: Domain>(dom: &D, f: &Function) -> Vec<D::Fact> {
    let rpo = f.reverse_postorder();
    let guards = block_guards(f);
    let mut state: Vec<Option<D::Fact>> = vec![None; f.insts.len()];

    for _ in 0..GROW_PASSES {
        if !run_pass(dom, f, &rpo, &guards, &mut state, Mode::Grow) {
            break;
        }
    }
    while run_pass(dom, f, &rpo, &guards, &mut state, Mode::Widen) {}
    for _ in 0..NARROW_PASSES {
        if !run_pass(dom, f, &rpo, &guards, &mut state, Mode::Narrow) {
            break;
        }
    }

    state
        .into_iter()
        .enumerate()
        .map(|(i, fact)| fact.unwrap_or_else(|| dom.top(f, Value(i as u32))))
        .collect()
}

fn run_pass<D: Domain>(
    dom: &D,
    f: &Function,
    rpo: &[BlockId],
    guards: &[Vec<Guard>],
    state: &mut [Option<D::Fact>],
    mode: Mode,
) -> bool {
    let mut changed = false;
    for &b in rpo {
        for &v in &f.block(b).insts {
            let new: Option<D::Fact> = match &f.inst(v).kind {
                InstKind::Phi(args) => {
                    // Join over incoming edges, sharpening each incoming
                    // value by the guards proven on its edge.
                    let mut acc: Option<D::Fact> = None;
                    for &(p, a) in args {
                        let Some(mut fa) = state[a.0 as usize].clone() else {
                            continue;
                        };
                        if let Some(g) = edge_guard(f, p, b) {
                            fa = dom.refine(f, fa, state, g, a);
                        }
                        for &g in &guards[p.0 as usize] {
                            fa = dom.refine(f, fa, state, g, a);
                        }
                        acc = Some(match acc {
                            None => fa,
                            Some(x) => dom.join(&x, &fa),
                        });
                    }
                    acc
                }
                _ => {
                    let ctx = Ctx {
                        f,
                        dom,
                        state: &*state,
                        guards: &guards[b.0 as usize],
                    };
                    dom.transfer(f, v, &ctx)
                }
            };
            let Some(new) = new else { continue };
            let idx = v.0 as usize;
            match &state[idx] {
                None => {
                    state[idx] = Some(new);
                    changed = true;
                }
                Some(old) => match mode {
                    Mode::Narrow => {
                        if *old != new {
                            state[idx] = Some(new);
                            changed = true;
                        }
                    }
                    Mode::Grow | Mode::Widen => {
                        let grown = dom.join(old, &new);
                        if grown != *old {
                            let next = if mode == Mode::Widen {
                                // Join keeps the post-fixpoint invariant
                                // even for domains whose widen is sloppy.
                                dom.join(&dom.widen(f, v, old, &grown), &grown)
                            } else {
                                grown
                            };
                            state[idx] = Some(next);
                            changed = true;
                        }
                    }
                },
            }
        }
    }
    changed
}

// ---------------------------------------------------------------------------
// Interval domain
// ---------------------------------------------------------------------------

/// Value-range (interval) domain over canonical values.
pub struct Intervals {
    rom_ranges: HashMap<u32, Range>,
}

impl Intervals {
    /// Builds the domain for `f`, precomputing exact ranges of ROM
    /// contents so table lookups stay narrow.
    pub fn new(f: &Function) -> Self {
        let rom_ranges = f
            .mems
            .iter()
            .enumerate()
            .filter_map(|(mi, m)| {
                m.rom.as_ref().map(|data| {
                    let lo = data.iter().copied().min().unwrap_or(0) as i128;
                    let hi = data.iter().copied().max().unwrap_or(0) as i128;
                    (mi as u32, Range { lo, hi })
                })
            })
            .collect();
        Intervals { rom_ranges }
    }
}

fn clamp(r: Range, ty: IntType) -> Range {
    let t = Range::of_type(ty);
    // If the true range fits the type, conversion preserves it; otherwise
    // wrapping can produce anything representable.
    if r.lo >= t.lo && r.hi <= t.hi {
        r
    } else {
        t
    }
}

fn transfer_bin(op: BinKind, ty: IntType, a: Range, b: Range) -> Range {
    let declared = Range::of_type(ty);
    let r = match op {
        BinKind::Add => Range {
            lo: a.lo + b.lo,
            hi: a.hi + b.hi,
        },
        BinKind::Sub => Range {
            lo: a.lo - b.hi,
            hi: a.hi - b.lo,
        },
        BinKind::Mul => {
            let cands = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi];
            Range {
                lo: *cands.iter().min().expect("nonempty"),
                hi: *cands.iter().max().expect("nonempty"),
            }
        }
        BinKind::Div => {
            // Division shrinks magnitude (and by-zero yields 0).
            let m = a.lo.abs().max(a.hi.abs());
            Range { lo: -m, hi: m }
        }
        BinKind::Rem => {
            let m = b.lo.abs().max(b.hi.abs()).saturating_sub(1).max(0);
            if a.lo >= 0 {
                Range { lo: 0, hi: m }
            } else {
                Range { lo: -m, hi: m }
            }
        }
        BinKind::Shl => {
            if b.lo == b.hi && (0..63).contains(&b.lo) {
                let s = b.lo as u32;
                Range {
                    lo: a.lo << s,
                    hi: a.hi << s,
                }
            } else {
                declared
            }
        }
        BinKind::Shr => {
            if a.lo >= 0 && b.lo >= 0 {
                Range {
                    lo: a.lo >> b.hi.min(63) as u32,
                    hi: a.hi >> b.lo.min(63) as u32,
                }
            } else {
                declared
            }
        }
        BinKind::And => {
            if a.lo >= 0 || b.lo >= 0 {
                // Non-negative and: bounded by the smaller non-negative max.
                let hi = match (a.lo >= 0, b.lo >= 0) {
                    (true, true) => a.hi.min(b.hi),
                    (true, false) => a.hi,
                    (false, true) => b.hi,
                    _ => unreachable!(),
                };
                Range { lo: 0, hi }
            } else {
                declared
            }
        }
        BinKind::Or | BinKind::Xor => {
            if a.lo >= 0 && b.lo >= 0 {
                // Bounded by the next power of two above both maxima.
                let m = (a.hi.max(b.hi)).max(1);
                let bits = 128 - (m as u128).leading_zeros();
                Range {
                    lo: 0,
                    hi: ((1u128 << bits) - 1) as i128,
                }
            } else {
                declared
            }
        }
        BinKind::Eq | BinKind::Ne | BinKind::Lt | BinKind::Le | BinKind::Gt | BinKind::Ge => {
            transfer_cmp(op, a, b)
        }
    };
    clamp(r, ty)
}

/// Comparison transfer: provably-true and provably-false comparisons fold
/// to `[1,1]` / `[0,0]`, which is what powers dead-branch detection.
fn transfer_cmp(op: BinKind, a: Range, b: Range) -> Range {
    const T: Range = Range { lo: 1, hi: 1 };
    const F: Range = Range { lo: 0, hi: 0 };
    const U: Range = Range { lo: 0, hi: 1 };
    let disjoint = a.hi < b.lo || b.hi < a.lo;
    let both_const_eq = a.is_const() && b.is_const() && a.lo == b.lo;
    match op {
        BinKind::Lt => {
            if a.hi < b.lo {
                T
            } else if a.lo >= b.hi {
                F
            } else {
                U
            }
        }
        BinKind::Le => {
            if a.hi <= b.lo {
                T
            } else if a.lo > b.hi {
                F
            } else {
                U
            }
        }
        BinKind::Gt => {
            if a.lo > b.hi {
                T
            } else if a.hi <= b.lo {
                F
            } else {
                U
            }
        }
        BinKind::Ge => {
            if a.lo >= b.hi {
                T
            } else if a.hi < b.lo {
                F
            } else {
                U
            }
        }
        BinKind::Eq => {
            if disjoint {
                F
            } else if both_const_eq {
                T
            } else {
                U
            }
        }
        BinKind::Ne => {
            if disjoint {
                T
            } else if both_const_eq {
                F
            } else {
                U
            }
        }
        _ => unreachable!("not a comparison"),
    }
}

fn swap_cmp(op: BinKind) -> BinKind {
    match op {
        BinKind::Lt => BinKind::Gt,
        BinKind::Le => BinKind::Ge,
        BinKind::Gt => BinKind::Lt,
        BinKind::Ge => BinKind::Le,
        other => other,
    }
}

fn negate_cmp(op: BinKind) -> BinKind {
    match op {
        BinKind::Eq => BinKind::Ne,
        BinKind::Ne => BinKind::Eq,
        BinKind::Lt => BinKind::Ge,
        BinKind::Ge => BinKind::Lt,
        BinKind::Le => BinKind::Gt,
        BinKind::Gt => BinKind::Le,
        other => other,
    }
}

/// Interval refinement by a branch guard. Acts only when `target` is the
/// condition itself or a direct operand of a comparison condition.
pub fn refine_range(
    f: &Function,
    fact: Range,
    lookup: &dyn Fn(Value) -> Option<Range>,
    guard: Guard,
    target: Value,
) -> Range {
    if guard.cond == target {
        let observed = if guard.polarity {
            Range { lo: 1, hi: 1 }
        } else {
            Range { lo: 0, hi: 0 }
        };
        return fact.intersect(observed).unwrap_or(fact);
    }
    let InstKind::Bin(op, a, b) = f.inst(guard.cond).kind else {
        return fact;
    };
    if !op.is_comparison() {
        return fact;
    }
    let (op, other) = if target == a && target != b {
        (op, b)
    } else if target == b && target != a {
        (swap_cmp(op), a)
    } else {
        return fact;
    };
    let op = if guard.polarity { op } else { negate_cmp(op) };
    let Some(r) = lookup(other) else { return fact };
    let mut refined = fact;
    match op {
        BinKind::Lt => refined.hi = refined.hi.min(r.hi - 1),
        BinKind::Le => refined.hi = refined.hi.min(r.hi),
        BinKind::Gt => refined.lo = refined.lo.max(r.lo + 1),
        BinKind::Ge => refined.lo = refined.lo.max(r.lo),
        BinKind::Eq => {
            refined.lo = refined.lo.max(r.lo);
            refined.hi = refined.hi.min(r.hi);
        }
        BinKind::Ne => {}
        _ => return fact,
    }
    if refined.lo > refined.hi {
        // Contradictory guard (dead path); keep the unrefined fact rather
        // than manufacturing an empty interval.
        fact
    } else {
        refined
    }
}

impl Domain for Intervals {
    type Fact = Range;

    fn top(&self, f: &Function, v: Value) -> Range {
        Range::of_type(f.inst(v).ty)
    }

    fn transfer(&self, f: &Function, v: Value, ctx: &Ctx<'_, Self>) -> Option<Range> {
        let inst = f.inst(v);
        let declared = Range::of_type(inst.ty);
        let r = match &inst.kind {
            InstKind::Const(c) => Range::exact(*c),
            InstKind::Param(_) => declared,
            InstKind::Phi(_) => return None, // handled by the solver
            InstKind::Bin(op, a, b) => transfer_bin(*op, inst.ty, ctx.get(*a)?, ctx.get(*b)?),
            InstKind::Un(UnKind::Neg, a) => {
                let ra = ctx.get(*a)?;
                clamp(
                    Range {
                        lo: -ra.hi,
                        hi: -ra.lo,
                    },
                    inst.ty,
                )
            }
            InstKind::Un(UnKind::Not, _) => declared,
            InstKind::Select { t, f: fv, .. } => match (ctx.get(*t), ctx.get(*fv)) {
                (Some(rt), Some(rf)) => rt.union(rf),
                (Some(rt), None) => rt,
                (None, Some(rf)) => rf,
                (None, None) => return None,
            },
            InstKind::Cast { val, .. } => clamp(ctx.get(*val)?, inst.ty),
            InstKind::Load { mem, .. } => self.rom_ranges.get(&mem.0).copied().unwrap_or(declared),
            InstKind::Store { .. } => declared,
        };
        // Canonical form never leaves the declared range.
        Some(Range {
            lo: r.lo.max(declared.lo),
            hi: r.hi.min(declared.hi),
        })
    }

    fn join(&self, a: &Range, b: &Range) -> Range {
        a.union(*b)
    }

    fn widen(&self, f: &Function, v: Value, old: &Range, grown: &Range) -> Range {
        // Directional widening: only the bound that actually moved jumps to
        // the declared extreme. Loop counters with a stable start keep it.
        let d = Range::of_type(f.inst(v).ty);
        Range {
            lo: if grown.lo < old.lo { d.lo } else { old.lo },
            hi: if grown.hi > old.hi { d.hi } else { old.hi },
        }
    }

    fn refine(
        &self,
        f: &Function,
        fact: Range,
        state: &[Option<Range>],
        guard: Guard,
        target: Value,
    ) -> Range {
        refine_range(f, fact, &|v| state[v.0 as usize], guard, target)
    }
}

/// Interval facts for every value of `f` (guard-refined, widened, then
/// narrowed).
pub fn value_ranges(f: &Function) -> Vec<Range> {
    solve(&Intervals::new(f), f)
}

// ---------------------------------------------------------------------------
// Known-bits domain
// ---------------------------------------------------------------------------

/// Tri-state bit knowledge over the canonical 64-bit form of a value: each
/// bit is known-0, known-1, or unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bits {
    /// Mask of bits known to be 0.
    pub zeros: u64,
    /// Mask of bits known to be 1.
    pub ones: u64,
}

impl Bits {
    /// All 64 bits known: the bits of one constant.
    pub fn exact(v: i64) -> Bits {
        Bits {
            zeros: !(v as u64),
            ones: v as u64,
        }
    }

    /// Nothing known.
    pub fn unknown() -> Bits {
        Bits { zeros: 0, ones: 0 }
    }

    /// The constant value, when every bit is known.
    pub fn as_const(self) -> Option<i64> {
        (self.zeros | self.ones == u64::MAX).then_some(self.ones as i64)
    }

    /// Minimal width (1..=64) that preserves the value under the canonical
    /// re-extension rule for the given signedness.
    pub fn needed_width(self, signed: bool) -> u16 {
        let hz = self.zeros.leading_ones() as u16;
        let ho = self.ones.leading_ones() as u16;
        let w = if !signed {
            64 - hz.min(63)
        } else if hz > 0 {
            // Top hz bits are zero: keep one of them as the sign bit.
            64 - hz + 1
        } else if ho > 0 {
            // Top ho bits are one: sign-extension regenerates them.
            64 - ho + 1
        } else {
            64
        };
        w.clamp(1, 64)
    }
}

/// Renders `b` consistent with the canonical form of a `ty`-typed value:
/// bits above the width are zero (unsigned) or copies of the sign bit.
fn canon_bits(ty: IntType, b: Bits) -> Bits {
    let mask = if ty.width == 64 {
        u64::MAX
    } else {
        (1u64 << ty.width) - 1
    };
    let mut zeros = b.zeros & mask;
    let mut ones = b.ones & mask;
    if ty.width < 64 {
        if !ty.signed {
            zeros |= !mask;
        } else {
            let sign = 1u64 << (ty.width - 1);
            if zeros & sign != 0 {
                zeros |= !mask;
            } else if ones & sign != 0 {
                ones |= !mask;
            }
        }
    }
    Bits { zeros, ones }
}

/// Known-bits domain (stateless).
pub struct KnownBits;

impl Domain for KnownBits {
    type Fact = Bits;

    fn top(&self, f: &Function, v: Value) -> Bits {
        canon_bits(f.inst(v).ty, Bits::unknown())
    }

    fn transfer(&self, f: &Function, v: Value, ctx: &Ctx<'_, Self>) -> Option<Bits> {
        let inst = f.inst(v);
        let b = match &inst.kind {
            InstKind::Const(c) => Bits::exact(*c),
            InstKind::Phi(_) => return None, // handled by the solver
            InstKind::Bin(BinKind::And, a, bb) => {
                let (x, y) = (ctx.get(*a)?, ctx.get(*bb)?);
                Bits {
                    zeros: x.zeros | y.zeros,
                    ones: x.ones & y.ones,
                }
            }
            InstKind::Bin(BinKind::Or, a, bb) => {
                let (x, y) = (ctx.get(*a)?, ctx.get(*bb)?);
                Bits {
                    zeros: x.zeros & y.zeros,
                    ones: x.ones | y.ones,
                }
            }
            InstKind::Bin(BinKind::Xor, a, bb) => {
                let (x, y) = (ctx.get(*a)?, ctx.get(*bb)?);
                Bits {
                    zeros: (x.zeros & y.zeros) | (x.ones & y.ones),
                    ones: (x.zeros & y.ones) | (x.ones & y.zeros),
                }
            }
            InstKind::Bin(BinKind::Shl, a, bb) => {
                let x = ctx.get(*a)?;
                match ctx.get(*bb)?.as_const() {
                    Some(sh) if (0..inst.ty.width as i64).contains(&sh) => {
                        let sh = sh as u32;
                        Bits {
                            zeros: (x.zeros << sh) | ((1u64 << sh) - 1),
                            ones: x.ones << sh,
                        }
                    }
                    _ => Bits::unknown(),
                }
            }
            InstKind::Un(UnKind::Not, a) => {
                let x = ctx.get(*a)?;
                Bits {
                    zeros: x.ones,
                    ones: x.zeros,
                }
            }
            InstKind::Select { t, f: fv, .. } => match (ctx.get(*t), ctx.get(*fv)) {
                (Some(x), Some(y)) => self.join(&x, &y),
                (Some(x), None) => x,
                (None, Some(y)) => y,
                (None, None) => return None,
            },
            InstKind::Cast { val, .. } => ctx.get(*val)?,
            InstKind::Load { mem, .. } => match &f.mems[mem.0 as usize].rom {
                Some(data) if !data.is_empty() => {
                    let mut acc = Bits {
                        zeros: u64::MAX,
                        ones: u64::MAX,
                    };
                    for &e in data {
                        acc.zeros &= !(e as u64);
                        acc.ones &= e as u64;
                    }
                    acc
                }
                _ => Bits::unknown(),
            },
            // Arithmetic, shifts by unknown amounts, parameters, stores,
            // comparisons: no bit-level knowledge tracked (canonicalization
            // below still pins the bits above the declared width).
            _ => Bits::unknown(),
        };
        Some(canon_bits(inst.ty, b))
    }

    fn join(&self, a: &Bits, b: &Bits) -> Bits {
        Bits {
            zeros: a.zeros & b.zeros,
            ones: a.ones & b.ones,
        }
    }

    fn widen(&self, f: &Function, v: Value, _old: &Bits, _grown: &Bits) -> Bits {
        self.top(f, v)
    }
}

/// Known-bit facts for every value of `f`.
pub fn known_bits(f: &Function) -> Vec<Bits> {
    solve(&KnownBits, f)
}

// ---------------------------------------------------------------------------
// May-written memory analysis
// ---------------------------------------------------------------------------

/// For every block and memory, the interval of indices that MAY have been
/// stored to on some path reaching the block's entry. `None` means the
/// memory is definitely still untouched (no store on any path) — the
/// signal the uninitialized-read lint keys on.
pub fn may_written_on_entry(f: &Function, addr_ranges: &[Range]) -> Vec<Vec<Option<Range>>> {
    let nb = f.blocks.len();
    let nm = f.mems.len();
    let rpo = f.reverse_postorder();
    let preds = f.predecessors();
    let mut entry: Vec<Vec<Option<Range>>> = vec![vec![None; nm]; nb];
    let mut exit: Vec<Vec<Option<Range>>> = vec![vec![None; nm]; nb];
    loop {
        let mut changed = false;
        for &b in &rpo {
            let bi = b.0 as usize;
            let mut ent: Vec<Option<Range>> = vec![None; nm];
            for &p in &preds[bi] {
                for (m, slot) in ent.iter_mut().enumerate() {
                    *slot = match (*slot, exit[p.0 as usize][m]) {
                        (x, None) => x,
                        (None, y) => y,
                        (Some(x), Some(y)) => Some(x.union(y)),
                    };
                }
            }
            let mut ex = ent.clone();
            for &v in &f.block(b).insts {
                if let InstKind::Store { mem, addr, .. } = f.inst(v).kind {
                    let r = addr_ranges[addr.0 as usize];
                    let slot = &mut ex[mem.0 as usize];
                    *slot = Some(match *slot {
                        None => r,
                        Some(x) => x.union(r),
                    });
                }
            }
            if ent != entry[bi] || ex != exit[bi] {
                entry[bi] = ent;
                exit[bi] = ex;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    entry
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_function;
    use chls_frontend::compile_to_hir;

    fn lowered(src: &str, name: &str) -> Function {
        let hir = compile_to_hir(src).expect("frontend ok");
        let (id, _) = hir.func_by_name(name).expect("exists");
        lower_function(&hir, id).expect("lowers")
    }

    fn ret_value(f: &Function) -> Value {
        for b in &f.blocks {
            if let Term::Ret(Some(v)) = b.term {
                return v;
            }
        }
        panic!("no return value");
    }

    #[test]
    fn counted_loop_counter_narrows_via_guards() {
        let f = lowered(
            "int f() { int i = 0; while (i < 16) { i = i + 1; } return i; }",
            "f",
        );
        let ranges = value_ranges(&f);
        let r = ranges[ret_value(&f).0 as usize];
        assert!(
            r.lo == 0 && r.hi <= 16,
            "counter range [{}, {}] not narrowed",
            r.lo,
            r.hi
        );
    }

    #[test]
    fn loop_accumulator_stays_wide() {
        let f = lowered(
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }",
            "f",
        );
        let ranges = value_ranges(&f);
        let r = ranges[ret_value(&f).0 as usize];
        assert!(r.needed_width(true) >= 31, "unsound narrow range {r:?}");
    }

    #[test]
    fn known_bits_track_masks() {
        let f = lowered("int f(int x) { return x & 15; }", "f");
        let bits = known_bits(&f);
        let b = bits[ret_value(&f).0 as usize];
        assert_eq!(b.zeros & 0xF, 0, "low bits must stay unknown");
        assert_eq!(b.zeros | 0xF, u64::MAX, "high bits must be known zero");
        assert_eq!(b.needed_width(true), 5);
        assert_eq!(b.needed_width(false), 4);
    }

    #[test]
    fn known_bits_fold_constants() {
        let f = lowered("int f() { return (5 << 2) | 2; }", "f");
        let bits = known_bits(&f);
        assert_eq!(bits[ret_value(&f).0 as usize].as_const(), Some(22));
    }

    #[test]
    fn provable_comparison_folds_to_constant() {
        let f = lowered(
            "int f(uint<4> x) { if (x < 100) { return 1; } return 2; }",
            "f",
        );
        let ranges = value_ranges(&f);
        let mut found = false;
        for b in &f.blocks {
            if let Term::Br { cond, .. } = b.term {
                let r = ranges[cond.0 as usize];
                assert_eq!((r.lo, r.hi), (1, 1), "x < 100 is always true for u4");
                found = true;
            }
        }
        assert!(found, "no branch in lowered function");
    }

    #[test]
    fn may_written_tracks_store_intervals() {
        let f = lowered(
            "int f(int k) {
                int a[8];
                for (int i = 0; i < 4; i++) { a[i] = i; }
                return a[k & 7];
            }",
            "f",
        );
        let ranges = value_ranges(&f);
        let written = may_written_on_entry(&f, &ranges);
        // At the block performing the final load, indices [0, 3] (and only
        // those) may have been written.
        let mut checked = false;
        for (bi, blk) in f.blocks.iter().enumerate() {
            let has_load = blk
                .insts
                .iter()
                .any(|&v| matches!(f.inst(v).kind, InstKind::Load { .. }));
            if !has_load {
                continue;
            }
            let w = written[bi][0].expect("loop stores reach the load");
            assert!(w.lo >= 0 && w.hi <= 4, "written interval {w:?}");
            checked = true;
        }
        assert!(checked, "no load found");
    }

    #[test]
    fn entry_block_has_nothing_written() {
        let f = lowered("int f() { int a[4]; a[0] = 1; return a[0]; }", "f");
        let ranges = value_ranges(&f);
        let written = may_written_on_entry(&f, &ranges);
        assert!(written[f.entry.0 as usize].iter().all(Option::is_none));
    }

    #[test]
    fn range_helpers() {
        let a = Range { lo: 0, hi: 10 };
        let b = Range { lo: 5, hi: 20 };
        assert_eq!(a.union(b), Range { lo: 0, hi: 20 });
        assert_eq!(a.intersect(b), Some(Range { lo: 5, hi: 10 }));
        assert_eq!(a.intersect(Range { lo: 11, hi: 12 }), None);
        assert!(Range::exact(3).is_const());
    }
}

//! Word-level bit-blasting: `rtl::netlist` cells → AIG cones with
//! *exactly* the semantics of `chls_sim::netlist_sim` (which in turn
//! defers to `chls_ir::eval_bin`). Every subtlety of that contract is
//! reproduced here:
//!
//! * each cell's value is canonical for its own type (truncated to the
//!   width, then sign- or zero-extended to 64 bits);
//! * non-comparison binary ops evaluate at the cell type, comparisons at
//!   the *first operand's* type; signed comparisons, signed shifts, and
//!   signed div/rem act on the operands' own canonical 64-bit values;
//! * shift amounts saturate at 63 and clamp to the width;
//! * division and remainder by zero yield 0;
//! * registers canonicalize to the register type on commit, RAM writes
//!   to the element type; RAM reads out of bounds yield 0 (the concrete
//!   simulator traps instead — see DESIGN.md §12 on why this is sound
//!   for the designs the checker accepts).
//!
//! A [`Word`] is a little-endian vector of AIG edges plus the type it is
//! canonical for; bits past the width are implied by the extension rule
//! and never materialized. [`SymMachine`] is the symbolic mirror of
//! `NetlistSim`: `step()` unrolls one clock cycle, registers and RAM
//! contents becoming mux trees over the cycle's inputs.

use crate::aig::{Aig, Lit};
use chls_frontend::IntType;
use chls_ir::{BinKind, UnKind};
use chls_rtl::netlist::{CellId, CellKind, Netlist};
use std::collections::HashMap;

/// A typed bundle of AIG edges: bit `i` of the canonical value for
/// `i < ty.width`; higher bits follow the type's extension rule.
#[derive(Debug, Clone)]
pub struct Word {
    /// Little-endian value bits, `ty.width` of them.
    pub bits: Vec<Lit>,
    /// The type the bits are canonical for.
    pub ty: IntType,
}

impl Word {
    /// Bit `i` of the 64-bit canonical value.
    pub fn bit64(&self, i: usize) -> Lit {
        if i < self.bits.len() {
            self.bits[i]
        } else if self.ty.signed {
            *self.bits.last().expect("types have width >= 1")
        } else {
            Lit::FALSE
        }
    }

    /// The sign of the canonical value (bit 63).
    pub fn sign64(&self) -> Lit {
        self.bit64(63)
    }

    /// Re-canonicalizes into another type (`IntType::canonicalize` on
    /// the symbolic value): truncate the extended view to the new width.
    pub fn resize(&self, to: IntType) -> Word {
        Word {
            bits: (0..to.width as usize).map(|i| self.bit64(i)).collect(),
            ty: to,
        }
    }

    /// The canonical 64-bit view.
    pub fn ext64(&self) -> Vec<Lit> {
        (0..64).map(|i| self.bit64(i)).collect()
    }

    /// Constant word holding `ty.canonicalize(v)`.
    pub fn constant(ty: IntType, v: i64) -> Word {
        let c = ty.canonicalize(v) as u64;
        Word {
            bits: (0..ty.width as usize)
                .map(|i| {
                    if (c >> i) & 1 != 0 {
                        Lit::TRUE
                    } else {
                        Lit::FALSE
                    }
                })
                .collect(),
            ty,
        }
    }

    /// Decodes the word under a model (AIG input var → value; absent
    /// vars read false).
    pub fn decode(&self, vals: &[bool]) -> i64 {
        let mut raw = 0u64;
        for (i, &b) in self.bits.iter().enumerate() {
            if Aig::lit_value(vals, b) {
                raw |= 1 << i;
            }
        }
        self.ty.canonicalize(raw as i64)
    }
}

// ---------------------------------------------------------------------
// Bit-vector primitives.
// ---------------------------------------------------------------------

/// Ripple-carry `a + b + cin`; result has `a.len()` bits.
fn ripple_add(g: &mut Aig, a: &[Lit], b: &[Lit], cin: Lit) -> Vec<Lit> {
    debug_assert_eq!(a.len(), b.len());
    let mut carry = cin;
    let mut out = Vec::with_capacity(a.len());
    for i in 0..a.len() {
        let axb = g.xor(a[i], b[i]);
        out.push(g.xor(axb, carry));
        // carry = (a & b) | (carry & (a ^ b))
        let ab = g.and(a[i], b[i]);
        let ca = g.and(carry, axb);
        carry = g.or(ab, ca);
    }
    out
}

/// Two's-complement negation.
fn negate(g: &mut Aig, a: &[Lit]) -> Vec<Lit> {
    let inv: Vec<Lit> = a.iter().map(|&x| !x).collect();
    let zero = vec![Lit::FALSE; a.len()];
    ripple_add(g, &inv, &zero, Lit::TRUE)
}

/// Unsigned `a < b` over equal-length vectors.
fn ult(g: &mut Aig, a: &[Lit], b: &[Lit]) -> Lit {
    debug_assert_eq!(a.len(), b.len());
    let mut lt = Lit::FALSE;
    for i in 0..a.len() {
        // lt = (!a[i] & b[i]) | ((a[i] == b[i]) & lt)
        let bi_gt = g.and(!a[i], b[i]);
        let neq = g.xor(a[i], b[i]);
        let keep = g.and(!neq, lt);
        lt = g.or(bi_gt, keep);
    }
    lt
}

/// `a == b` over equal-length vectors.
fn eq_bits(g: &mut Aig, a: &[Lit], b: &[Lit]) -> Lit {
    debug_assert_eq!(a.len(), b.len());
    let mut eq = Lit::TRUE;
    for i in 0..a.len() {
        let x = g.xor(a[i], b[i]);
        eq = g.and(eq, !x);
    }
    eq
}

/// Unsigned `value(bits) >= k`: compare against the constant at a
/// width holding both; the constant operand bits fold inside `ult`.
fn uge_const(g: &mut Aig, bits: &[Lit], k: u64) -> Lit {
    let n = bits.len().max((64 - k.leading_zeros()) as usize).max(1);
    let a: Vec<Lit> = (0..n)
        .map(|i| if i < bits.len() { bits[i] } else { Lit::FALSE })
        .collect();
    let kv: Vec<Lit> = (0..n)
        .map(|i| {
            if i < 64 && (k >> i) & 1 != 0 {
                Lit::TRUE
            } else {
                Lit::FALSE
            }
        })
        .collect();
    !ult(g, &a, &kv)
}

/// Per-bit `s ? a : b` over equal-length vectors.
fn mux_bits(g: &mut Aig, s: Lit, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| g.mux(s, x, y)).collect()
}

/// OR-reduction (canonical value != 0).
fn or_all(g: &mut Aig, bits: &[Lit]) -> Lit {
    let mut acc = Lit::FALSE;
    for &b in bits {
        acc = g.or(acc, b);
    }
    acc
}

/// Low `w` bits of `a * b` (operands `w` bits).
fn mul_bits(g: &mut Aig, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
    let w = a.len();
    let mut acc = vec![Lit::FALSE; w];
    for j in 0..w {
        // acc += (a << j) & b[j], only bits j.. contribute.
        let partial: Vec<Lit> = (0..w)
            .map(|i| {
                if i < j {
                    Lit::FALSE
                } else {
                    g.and(a[i - j], b[j])
                }
            })
            .collect();
        acc = ripple_add(g, &acc, &partial, Lit::FALSE);
    }
    acc
}

/// Restoring division of equal-width unsigned vectors; the caller
/// handles the zero divisor. Returns `(quotient, remainder)`.
fn udivrem(g: &mut Aig, num: &[Lit], den: &[Lit]) -> (Vec<Lit>, Vec<Lit>) {
    let w = num.len();
    let mut r = vec![Lit::FALSE; w];
    let mut q = vec![Lit::FALSE; w];
    let den_ext: Vec<Lit> = den.iter().copied().chain([Lit::FALSE]).collect();
    for i in (0..w).rev() {
        // t = (r << 1) | num[i], at w+1 bits.
        let mut t = Vec::with_capacity(w + 1);
        t.push(num[i]);
        t.extend_from_slice(&r);
        let lt = ult(g, &t, &den_ext);
        let ge = !lt;
        let den_inv: Vec<Lit> = den_ext.iter().map(|&x| !x).collect();
        let diff = ripple_add(g, &t, &den_inv, Lit::TRUE);
        let sel = mux_bits(g, ge, &diff, &t);
        r = sel[..w].to_vec();
        q[i] = ge;
    }
    (q, r)
}

/// 64-bit barrel shifter; `amt` is 6 bits, `left` selects direction,
/// `fill` is the shifted-in bit.
fn barrel64(g: &mut Aig, v: &[Lit], amt: &[Lit; 6], left: bool, fill: Lit) -> Vec<Lit> {
    let mut cur = v.to_vec();
    for (k, &s) in amt.iter().enumerate() {
        let dist = 1usize << k;
        let shifted: Vec<Lit> = (0..64)
            .map(|i| {
                if left {
                    if i >= dist {
                        cur[i - dist]
                    } else {
                        fill
                    }
                } else if i + dist < 64 {
                    cur[i + dist]
                } else {
                    fill
                }
            })
            .collect();
        cur = (0..64).map(|i| g.mux(s, shifted[i], cur[i])).collect();
    }
    cur
}

/// Effective signed width: the smallest signed type holding every
/// canonical value of `t`.
fn eff_signed_width(t: IntType) -> usize {
    (t.width as usize + usize::from(!t.signed)).min(64)
}

// ---------------------------------------------------------------------
// Cell semantics.
// ---------------------------------------------------------------------

/// `eval_bin` on symbolic words: evaluation type `ety`, result
/// canonicalized to `out_ty` (the cell type).
pub fn sym_bin(
    g: &mut Aig,
    op: BinKind,
    ety: IntType,
    a: &Word,
    b: &Word,
    out_ty: IntType,
) -> Word {
    let w = ety.width as usize;
    let ra = a.resize(ety);
    let rb = b.resize(ety);
    let word = |bits: Vec<Lit>| Word { bits, ty: ety };
    let bit = |_g: &mut Aig, l: Lit| Word {
        bits: vec![l],
        ty: IntType::new(1, false),
    };
    let out = match op {
        BinKind::Add => word(ripple_add(g, &ra.bits, &rb.bits, Lit::FALSE)),
        BinKind::Sub => {
            let inv: Vec<Lit> = rb.bits.iter().map(|&x| !x).collect();
            word(ripple_add(g, &ra.bits, &inv, Lit::TRUE))
        }
        BinKind::Mul => word(mul_bits(g, &ra.bits, &rb.bits)),
        BinKind::And => word(
            ra.bits
                .iter()
                .zip(&rb.bits)
                .map(|(&x, &y)| g.and(x, y))
                .collect(),
        ),
        BinKind::Or => word(
            ra.bits
                .iter()
                .zip(&rb.bits)
                .map(|(&x, &y)| g.or(x, y))
                .collect(),
        ),
        BinKind::Xor => word(
            ra.bits
                .iter()
                .zip(&rb.bits)
                .map(|(&x, &y)| g.xor(x, y))
                .collect(),
        ),
        BinKind::Eq => {
            let e = eq_bits(g, &ra.bits, &rb.bits);
            bit(g, e)
        }
        BinKind::Ne => {
            let e = eq_bits(g, &ra.bits, &rb.bits);
            bit(g, !e)
        }
        BinKind::Lt | BinKind::Le | BinKind::Gt | BinKind::Ge => {
            let (x, y) = if matches!(op, BinKind::Lt | BinKind::Le) {
                (&ra, &rb)
            } else {
                (&rb, &ra)
            };
            // `strict` is Lt/Gt; Le/Ge are the complement of the
            // reversed strict compare.
            let strict = matches!(op, BinKind::Lt | BinKind::Gt);
            let lt = if ety.signed {
                // Compare the operands' own canonical values: extend to
                // a width that holds both, then flip the sign bit and
                // compare unsigned. `x`/`y` are views of `a`/`b`, so
                // extend from the original operand words.
                let (oa, ob) = if matches!(op, BinKind::Lt | BinKind::Le) {
                    (a, b)
                } else {
                    (b, a)
                };
                let m = eff_signed_width(oa.ty).max(eff_signed_width(ob.ty));
                let mut va: Vec<Lit> = (0..m).map(|i| oa.bit64(i)).collect();
                let mut vb: Vec<Lit> = (0..m).map(|i| ob.bit64(i)).collect();
                va[m - 1] = !va[m - 1];
                vb[m - 1] = !vb[m - 1];
                if strict {
                    ult(g, &va, &vb)
                } else {
                    !ult(g, &vb, &va)
                }
            } else if strict {
                ult(g, &x.bits, &y.bits)
            } else {
                !ult(g, &y.bits, &x.bits)
            };
            bit(g, lt)
        }
        BinKind::Div | BinKind::Rem => {
            if ety.signed {
                // Operate on the operands' own canonical values via
                // sign/magnitude; a width one past both effective widths
                // avoids every overflow corner (INT_MIN included).
                let m = (eff_signed_width(a.ty).max(eff_signed_width(b.ty)) + 1).min(64);
                let va: Vec<Lit> = (0..m).map(|i| a.bit64(i)).collect();
                let vb: Vec<Lit> = (0..m).map(|i| b.bit64(i)).collect();
                let (sa, sb) = (va[m - 1], vb[m - 1]);
                let na = negate(g, &va);
                let nb = negate(g, &vb);
                let mag_a = mux_bits(g, sa, &na, &va);
                let mag_b = mux_bits(g, sb, &nb, &vb);
                let (q, r) = udivrem(g, &mag_a, &mag_b);
                let picked = if op == BinKind::Div {
                    let s = g.xor(sa, sb);
                    let nq = negate(g, &q);
                    mux_bits(g, s, &nq, &q)
                } else {
                    let nr = negate(g, &r);
                    mux_bits(g, sa, &nr, &r)
                };
                let bzero = or_all(g, &vb);
                let zeros = vec![Lit::FALSE; m];
                let bits = mux_bits(g, !bzero, &zeros, &picked);
                Word {
                    bits,
                    ty: IntType::new(m as u16, true),
                }
            } else {
                let (q, r) = udivrem(g, &ra.bits, &rb.bits);
                let picked = if op == BinKind::Div { q } else { r };
                let bzero = or_all(g, &rb.bits);
                let zeros = vec![Lit::FALSE; w];
                word(mux_bits(g, !bzero, &zeros, &picked))
            }
        }
        BinKind::Shl | BinKind::Shr => {
            // sh = min(ub, 63) where ub is the ety-masked amount; then
            // sh >= width selects the clamp value.
            let sbits = &rb.bits;
            let ge63 = uge_const(g, sbits, 63);
            let mut amt = [Lit::FALSE; 6];
            for (i, slot) in amt.iter_mut().enumerate() {
                let b = if i < sbits.len() {
                    sbits[i]
                } else {
                    Lit::FALSE
                };
                *slot = g.or(ge63, b);
            }
            let (view, fill): (Vec<Lit>, Lit) = if op == BinKind::Shl {
                (a.ext64(), Lit::FALSE)
            } else if ety.signed {
                // Arithmetic shift of the operand's own canonical value.
                let v = a.ext64();
                let f = v[63];
                (v, f)
            } else {
                (ra.resize(IntType::new(64, false)).bits, Lit::FALSE)
            };
            let shifted = barrel64(g, &view, &amt, op == BinKind::Shl, fill);
            let bits: Vec<Lit> = if w < 64 {
                let over = uge_const(g, sbits, w as u64);
                let clamp = if op == BinKind::Shr && ety.signed {
                    // signed && a < 0 → -1, else → 0
                    a.sign64()
                } else {
                    Lit::FALSE
                };
                (0..w).map(|i| g.mux(over, clamp, shifted[i])).collect()
            } else {
                shifted
            };
            word(bits)
        }
    };
    out.resize(out_ty)
}

/// `eval_un` on a symbolic word.
pub fn sym_un(g: &mut Aig, op: UnKind, a: &Word, out_ty: IntType) -> Word {
    let ra = a.resize(out_ty);
    let bits = match op {
        UnKind::Neg => negate(g, &ra.bits),
        UnKind::Not => ra.bits.iter().map(|&x| !x).collect(),
    };
    Word { bits, ty: out_ty }
}

// ---------------------------------------------------------------------
// The shared symbolic environment (inputs and array contents common to
// both sides of a miter).
// ---------------------------------------------------------------------

/// Free symbolic values shared by name across every machine blasted
/// into one AIG.
#[derive(Debug, Default)]
pub struct SymEnv {
    /// Scalar inputs by port name.
    pub inputs: Vec<(String, Word)>,
    /// Symbolic RAM initial contents by sharing key.
    pub rams: Vec<(String, Vec<Word>)>,
    /// Input-bit labels (`name.bit` or `key.word.bit`) per AIG
    /// variable, for exported AIGER and BLIF port names.
    pub labels: HashMap<u32, String>,
}

/// Interface mismatches and structural errors found while blasting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymError {
    /// Two uses of one input name disagree on its type.
    InputTypeMismatch(String),
    /// Two uses of one RAM key disagree on geometry.
    RamMismatch(String),
    /// The netlist has a combinational cycle.
    CombinationalCycle(String),
}

impl std::fmt::Display for SymError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SymError::InputTypeMismatch(n) => write!(f, "input `{n}` has conflicting types"),
            SymError::RamMismatch(n) => write!(f, "ram `{n}` has conflicting shapes"),
            SymError::CombinationalCycle(n) => write!(f, "combinational cycle in `{n}`"),
        }
    }
}

impl std::error::Error for SymError {}

impl SymEnv {
    /// New empty environment.
    pub fn new() -> SymEnv {
        SymEnv::default()
    }

    /// The shared word for a named scalar input, created on first use.
    pub fn input(&mut self, g: &mut Aig, name: &str, ty: IntType) -> Result<Word, SymError> {
        if let Some((_, w)) = self.inputs.iter().find(|(n, _)| n == name) {
            if w.ty != ty {
                return Err(SymError::InputTypeMismatch(name.to_string()));
            }
            return Ok(w.clone());
        }
        let bits: Vec<Lit> = (0..ty.width as usize).map(|_| g.input()).collect();
        for (i, b) in bits.iter().enumerate() {
            self.labels.insert(b.var(), format!("{name}.{i}"));
        }
        let w = Word { bits, ty };
        self.inputs.push((name.to_string(), w.clone()));
        Ok(w)
    }

    /// The shared symbolic contents for a RAM key, created on first use.
    pub fn ram(
        &mut self,
        g: &mut Aig,
        key: &str,
        elem: IntType,
        len: usize,
    ) -> Result<Vec<Word>, SymError> {
        if let Some((_, ws)) = self.rams.iter().find(|(n, _)| n == key) {
            if ws.len() != len || ws.iter().any(|w| w.ty != elem) {
                return Err(SymError::RamMismatch(key.to_string()));
            }
            return Ok(ws.clone());
        }
        let mut words = Vec::with_capacity(len);
        for j in 0..len {
            let bits: Vec<Lit> = (0..elem.width as usize).map(|_| g.input()).collect();
            for (i, b) in bits.iter().enumerate() {
                self.labels.insert(b.var(), format!("{key}.{j}.{i}"));
            }
            words.push(Word { bits, ty: elem });
        }
        self.rams.push((key.to_string(), words.clone()));
        Ok(words)
    }
}

/// How a machine's RAM is initialized for the symbolic run.
#[derive(Debug, Clone)]
pub enum RamSpec {
    /// From the netlist's own `init` (missing words and a missing init
    /// are zeros) — ROMs and local arrays.
    Concrete,
    /// Shared free contents under a key — caller-visible array
    /// parameters, matched across the two sides.
    Shared(String),
}

// ---------------------------------------------------------------------
// Symbolic machine.
// ---------------------------------------------------------------------

/// One symbolic state bit created by [`SymMachine::symbolize_state`]:
/// the fresh AIG input variable carrying the bit's cycle-0 value, its
/// reset value, and a diagnostic label (`reg{cell}.{bit}` or
/// `{ram}.{word}.{bit}`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateBit {
    /// AIG input variable holding the current-state value.
    pub var: u32,
    /// Reset value of the bit.
    pub init: bool,
    /// Diagnostic label.
    pub label: String,
}

/// A symbolic mirror of one netlist: registers and RAM words are
/// [`Word`]s over the shared environment; `step` advances one cycle.
pub struct SymMachine<'n> {
    nl: &'n Netlist,
    topo: Vec<CellId>,
    /// Committed register values (indexed by cell id; None elsewhere).
    regs: Vec<Option<Word>>,
    /// Committed RAM contents.
    rams: Vec<Vec<Word>>,
}

impl<'n> SymMachine<'n> {
    /// Builds the cycle-0 state.
    pub fn new(
        g: &mut Aig,
        env: &mut SymEnv,
        nl: &'n Netlist,
        ram_specs: &[RamSpec],
    ) -> Result<SymMachine<'n>, SymError> {
        let topo = topo_order(nl)?;
        let mut regs = vec![None; nl.cells.len()];
        for (i, c) in nl.cells.iter().enumerate() {
            if let CellKind::Reg { init, .. } = c.kind {
                regs[i] = Some(Word::constant(c.ty, init));
            }
        }
        let mut rams = Vec::with_capacity(nl.rams.len());
        for (ri, r) in nl.rams.iter().enumerate() {
            let spec = ram_specs.get(ri).unwrap_or(&RamSpec::Concrete);
            let words = match spec {
                RamSpec::Shared(key) => env.ram(g, key, r.elem, r.len)?,
                RamSpec::Concrete => (0..r.len)
                    .map(|j| {
                        let v = r.init.as_ref().and_then(|i| i.get(j)).copied().unwrap_or(0);
                        Word::constant(r.elem, v)
                    })
                    .collect(),
            };
            rams.push(words);
        }
        Ok(SymMachine {
            nl,
            topo,
            regs,
            rams,
        })
    }

    /// Replaces the committed cycle-0 state (every register word and
    /// every RAM word) with fresh AIG inputs, one per bit.
    ///
    /// After this call a single [`SymMachine::step`] computes each
    /// state bit's *next-state function* over (primary inputs × current
    /// state) — exactly the latch form the AIGER interchange needs.
    /// Returns one [`StateBit`] per created input in the canonical
    /// order of [`SymMachine::state_bits`]: registers in cell order,
    /// then RAM words in (ram, index) order, LSB first throughout.
    pub fn symbolize_state(&mut self, g: &mut Aig) -> Vec<StateBit> {
        let mut bits = Vec::new();
        let mut fresh = |g: &mut Aig, w: &Word, init: i64, label: &str| -> Word {
            let lits: Vec<Lit> = (0..w.bits.len())
                .map(|i| {
                    let l = g.input();
                    bits.push(StateBit {
                        var: l.var(),
                        init: (init >> i) & 1 != 0,
                        label: format!("{label}.{i}"),
                    });
                    l
                })
                .collect();
            Word {
                bits: lits,
                ty: w.ty,
            }
        };
        for (i, cell) in self.nl.cells.iter().enumerate() {
            if let CellKind::Reg { init, .. } = cell.kind {
                let old = self.regs[i].clone().expect("reg state");
                self.regs[i] = Some(fresh(g, &old, init, &format!("reg{i}")));
            }
        }
        for (ri, r) in self.nl.rams.iter().enumerate() {
            for j in 0..r.len {
                let init = r.init.as_ref().and_then(|v| v.get(j)).copied().unwrap_or(0);
                let old = self.rams[ri][j].clone();
                self.rams[ri][j] = fresh(g, &old, init, &format!("{}.{j}", r.name));
            }
        }
        bits
    }

    /// The committed state, flattened in the canonical order of
    /// [`SymMachine::symbolize_state`]. Called right after
    /// `symbolize_state` this yields the state-input literals; called
    /// after a [`SymMachine::step`] it yields the next-state functions.
    pub fn state_bits(&self) -> Vec<Lit> {
        let mut out = Vec::new();
        for (i, cell) in self.nl.cells.iter().enumerate() {
            if matches!(cell.kind, CellKind::Reg { .. }) {
                out.extend(
                    self.regs[i]
                        .as_ref()
                        .expect("reg state")
                        .bits
                        .iter()
                        .copied(),
                );
            }
        }
        for words in &self.rams {
            for w in words {
                out.extend(w.bits.iter().copied());
            }
        }
        out
    }

    /// Evaluates every cell combinationally (the symbolic
    /// `NetlistSim::eval`).
    pub fn eval(&self, g: &mut Aig, env: &mut SymEnv) -> Result<Vec<Word>, SymError> {
        let mut vals: Vec<Option<Word>> = vec![None; self.nl.cells.len()];
        for &id in &self.topo {
            let cell = self.nl.cell(id);
            let val = |v: &Option<Word>| -> Word { v.clone().expect("topo order") };
            let w = match &cell.kind {
                CellKind::Input { name } => env.input(g, name, cell.ty)?,
                CellKind::Const(c) => Word::constant(cell.ty, *c),
                CellKind::Un(op, a) => sym_un(g, *op, &val(&vals[a.0 as usize]), cell.ty),
                CellKind::Bin(op, a, b) => {
                    let ety = if op.is_comparison() {
                        self.nl.cell(*a).ty
                    } else {
                        cell.ty
                    };
                    let (wa, wb) = (val(&vals[a.0 as usize]), val(&vals[b.0 as usize]));
                    sym_bin(g, *op, ety, &wa, &wb, cell.ty)
                }
                CellKind::Mux { sel, a, b } => {
                    let s = or_all(g, &val(&vals[sel.0 as usize]).bits);
                    let wa = val(&vals[a.0 as usize]).resize(cell.ty);
                    let wb = val(&vals[b.0 as usize]).resize(cell.ty);
                    Word {
                        bits: mux_bits(g, s, &wa.bits, &wb.bits),
                        ty: cell.ty,
                    }
                }
                CellKind::Cast { val: v, .. } => val(&vals[v.0 as usize]).resize(cell.ty),
                CellKind::Reg { .. } => self.regs[id.0 as usize].clone().expect("reg state"),
                CellKind::RamRead { ram, addr } => {
                    let a = val(&vals[addr.0 as usize]);
                    let words = &self.rams[ram.0 as usize];
                    let elem = self.nl.rams[ram.0 as usize].elem;
                    let mut acc = Word::constant(elem, 0);
                    for (j, wj) in words.iter().enumerate() {
                        let hit = eq_const64(g, &a, j as u64);
                        acc = Word {
                            bits: mux_bits(g, hit, &wj.bits, &acc.bits),
                            ty: elem,
                        };
                    }
                    acc.resize(cell.ty)
                }
                CellKind::RamWrite { .. } => Word::constant(cell.ty, 0),
            };
            vals[id.0 as usize] = Some(w);
        }
        Ok(vals
            .into_iter()
            .map(|v| v.expect("all cells evaluated"))
            .collect())
    }

    /// One clock edge: evaluate, then commit RAM writes (in cell order)
    /// and registers, mirroring `NetlistSim::step`.
    pub fn step(&mut self, g: &mut Aig, env: &mut SymEnv) -> Result<(), SymError> {
        let vals = self.eval(g, env)?;
        let nl = self.nl;
        for cell in nl.cells.iter() {
            if let CellKind::RamWrite {
                ram,
                addr,
                data,
                en,
            } = cell.kind
            {
                let elem = nl.rams[ram.0 as usize].elem;
                let en_nz = or_all(g, &vals[en.0 as usize].bits);
                let a = &vals[addr.0 as usize];
                let d = vals[data.0 as usize].resize(elem);
                let words = &mut self.rams[ram.0 as usize];
                for (j, wj) in words.iter_mut().enumerate() {
                    let hit0 = eq_const64(g, a, j as u64);
                    let hit = g.and(en_nz, hit0);
                    *wj = Word {
                        bits: mux_bits(g, hit, &d.bits, &wj.bits),
                        ty: elem,
                    };
                }
            }
        }
        for (i, cell) in nl.cells.iter().enumerate() {
            if let CellKind::Reg { next, en, .. } = cell.kind {
                let nw = vals[next.0 as usize].resize(cell.ty);
                let old = self.regs[i].clone().expect("reg state");
                let new = match en {
                    Some(e) => {
                        let en_nz = or_all(g, &vals[e.0 as usize].bits);
                        Word {
                            bits: mux_bits(g, en_nz, &nw.bits, &old.bits),
                            ty: cell.ty,
                        }
                    }
                    None => nw,
                };
                self.regs[i] = Some(new);
            }
        }
        Ok(())
    }

    /// Named outputs from a cell-value vector.
    pub fn outputs(&self, vals: &[Word]) -> Vec<(String, Word)> {
        self.nl
            .outputs
            .iter()
            .map(|(n, id)| (n.clone(), vals[id.0 as usize].clone()))
            .collect()
    }

    /// Current symbolic contents of a RAM.
    pub fn ram(&self, index: usize) -> &[Word] {
        &self.rams[index]
    }
}

/// `word's canonical value == k` (64-bit comparison against a constant).
fn eq_const64(g: &mut Aig, w: &Word, k: u64) -> Lit {
    let mut acc = Lit::TRUE;
    for i in 0..64 {
        let b = w.bit64(i);
        let want = (k >> i) & 1 != 0;
        acc = g.and(acc, if want { b } else { !b });
    }
    acc
}

/// Topological order with registers as sources, mirroring the concrete
/// simulator's schedule.
fn topo_order(nl: &Netlist) -> Result<Vec<CellId>, SymError> {
    let n = nl.cells.len();
    let mut order = Vec::with_capacity(n);
    // 0 = unvisited, 1 = in progress, 2 = done.
    let mut state = vec![0u8; n];
    for root in 0..n {
        if state[root] != 0 {
            continue;
        }
        let mut stack: Vec<(u32, bool)> = vec![(root as u32, false)];
        while let Some((v, expanded)) = stack.pop() {
            if expanded {
                state[v as usize] = 2;
                order.push(CellId(v));
                continue;
            }
            match state[v as usize] {
                2 => continue,
                1 => return Err(SymError::CombinationalCycle(nl.name.clone())),
                _ => {}
            }
            state[v as usize] = 1;
            stack.push((v, true));
            let mut push = |id: CellId| {
                if state[id.0 as usize] == 0 {
                    stack.push((id.0, false));
                } else if state[id.0 as usize] == 1 {
                    state[v as usize] = 3; // poison: cycle via this node
                }
            };
            match &nl.cells[v as usize].kind {
                CellKind::Input { .. } | CellKind::Const(_) | CellKind::Reg { .. } => {}
                CellKind::Un(_, a) => push(*a),
                CellKind::Bin(_, a, b) => {
                    push(*a);
                    push(*b);
                }
                CellKind::Mux { sel, a, b } => {
                    push(*sel);
                    push(*a);
                    push(*b);
                }
                CellKind::Cast { val, .. } => push(*val),
                CellKind::RamRead { addr, .. } => push(*addr),
                CellKind::RamWrite { addr, data, en, .. } => {
                    push(*addr);
                    push(*data);
                    push(*en);
                }
            }
            if state[v as usize] == 3 {
                return Err(SymError::CombinationalCycle(nl.name.clone()));
            }
        }
    }
    Ok(order)
}

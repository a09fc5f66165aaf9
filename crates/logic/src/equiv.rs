//! Miter construction and the equivalence decision ladder.
//!
//! Two designs are compared by blasting both into one shared [`Aig`]
//! (inputs unified by name, caller-visible arrays unified by parameter
//! index) and building a *miter*: a single literal that is true exactly
//! when some observable output differs. The ladder then tries, in
//! order:
//!
//! 1. **strash** — structural hashing plus the AIG rewrite rules often
//!    collapse the miter to constant false outright;
//! 2. **BDD** — for small input counts the existing `rtl::bdd` checker
//!    decides the miter canonically;
//! 3. **SAT** — Tseitin-encode the miter cone and run the CDCL solver
//!    under a conflict budget.
//!
//! Sequential machines are compared by `k`-step unrolling with the
//! bounded property *both sides finished ⇒ same return value and same
//! final contents of caller-visible arrays*. A bound under which no
//! input can finish on both sides is reported as `Unknown`, never as
//! a vacuous pass. That side condition is settled by a concrete witness
//! when one turns up in a few passes of [`Aig::simulate64`] over seeded
//! word-level patterns (the all-zero input first), and by SAT otherwise.
//!
//! Every "differ" verdict is **replayed through the concrete
//! simulator** before being reported; a solver/simulator disagreement
//! is an internal soundness failure and surfaces loudly as
//! [`EquivError::ReplayMismatch`] rather than as a refutation.

use crate::aig::{Aig, Lit};
use crate::blast::{RamSpec, SymEnv, SymError, SymMachine, Word};
use crate::sat::{Cnf, Outcome, Solver};
use chls_frontend::IntType;
use chls_rtl::{check_equivalence, fsmd_to_netlist, Equivalence, Fsmd, Netlist};
use chls_rtl::netlist::CellKind;
use chls_sim::netlist_sim::NetlistSim;
use std::collections::{BTreeMap, HashMap};

/// Tunables for the decision ladder.
#[derive(Debug, Clone)]
pub struct EquivOptions {
    /// Conflict budget for the CDCL solver before giving up.
    pub sat_budget: u64,
    /// Maximum total symbolic input bits for the BDD fast path.
    pub bdd_input_limit: usize,
    /// Node budget handed to the BDD checker.
    pub bdd_budget: usize,
}

impl Default for EquivOptions {
    fn default() -> Self {
        EquivOptions { sat_budget: 2_000_000, bdd_input_limit: 20, bdd_budget: 1 << 21 }
    }
}

/// Which rung of the ladder decided the question.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// The miter folded to constant false in the AIG.
    Strash,
    /// The ROBDD checker.
    Bdd,
    /// The CDCL SAT solver.
    Sat,
}

impl Method {
    /// Lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Method::Strash => "strash",
            Method::Bdd => "bdd",
            Method::Sat => "sat",
        }
    }
}

/// A concrete, simulator-confirmed distinguishing input.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Scalar input values by port name.
    pub inputs: Vec<(String, i64)>,
    /// Initial contents of caller-visible arrays by unified name.
    pub rams: Vec<(String, Vec<i64>)>,
    /// The observable that differs.
    pub output: String,
    /// Replayed value on side A.
    pub a_value: i64,
    /// Replayed value on side B.
    pub b_value: i64,
}

/// Answer to an equivalence query.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// Proven equivalent (up to the bound, for sequential checks).
    Equivalent,
    /// Refuted, with a confirmed counterexample.
    Differ(Counterexample),
    /// Undecided within the configured budgets.
    Unknown(String),
}

/// Full result of a check.
#[derive(Debug, Clone)]
pub struct EquivReport {
    /// The answer.
    pub verdict: Verdict,
    /// Which rung decided it.
    pub method: Method,
    /// AIG size after blasting both sides.
    pub aig_nodes: usize,
    /// SAT conflicts spent.
    pub sat_conflicts: u64,
    /// Unroll depth (0 for combinational checks).
    pub bound: usize,
}

/// Failures that prevent a verdict.
#[derive(Debug, Clone)]
pub enum EquivError {
    /// The two designs do not present the same interface.
    Interface(String),
    /// Structural problem while blasting (cycle, type clash).
    Sym(SymError),
    /// The concrete simulator rejected the replay (e.g. an
    /// out-of-bounds RAM address the symbolic model reads as 0).
    Sim(String),
    /// The solver's counterexample did not reproduce in the concrete
    /// simulator — an internal soundness bug, reported loudly.
    ReplayMismatch(String),
}

impl std::fmt::Display for EquivError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EquivError::Interface(m) => write!(f, "interface mismatch: {m}"),
            EquivError::Sym(e) => write!(f, "symbolic evaluation failed: {e}"),
            EquivError::Sim(m) => write!(f, "counterexample replay failed: {m}"),
            EquivError::ReplayMismatch(m) => {
                write!(f, "SOUNDNESS BUG: solver counterexample did not replay: {m}")
            }
        }
    }
}

impl std::error::Error for EquivError {}

impl From<SymError> for EquivError {
    fn from(e: SymError) -> Self {
        EquivError::Sym(e)
    }
}

/// `a != b` over canonical 64-bit values.
fn neq64(g: &mut Aig, a: &Word, b: &Word) -> Lit {
    let mut diff = Lit::FALSE;
    for i in 0..64 {
        let x = g.xor(a.bit64(i), b.bit64(i));
        diff = g.or(diff, x);
    }
    diff
}

type DecodedEnv = (Vec<(String, i64)>, Vec<(String, Vec<i64>)>);

fn decode_env(env: &SymEnv, vals: &[bool]) -> DecodedEnv {
    let inputs = env
        .inputs
        .iter()
        .map(|(n, w)| (n.clone(), w.decode(vals)))
        .collect();
    let rams = env
        .rams
        .iter()
        .map(|(n, ws)| (n.clone(), ws.iter().map(|w| w.decode(vals)).collect()))
        .collect();
    (inputs, rams)
}

/// Converts a BDD witness (or any name→value list) into an AIG input
/// valuation using the environment's bit labels.
fn vals_from_named(env: &SymEnv, aig_len: usize, named: &[(String, i64)]) -> Vec<bool> {
    let map: HashMap<&str, i64> = named.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let mut vals = vec![false; aig_len];
    for (&var, label) in &env.labels {
        if let Some(&v) = map.get(label.as_str()) {
            vals[var as usize] = v != 0;
        }
    }
    vals
}

// ---------------------------------------------------------------------
// Combinational equivalence.
// ---------------------------------------------------------------------

/// Checks two combinational netlists for full input-space equivalence.
/// Inputs are unified by name; outputs must present the same names.
pub fn check_comb_equiv(
    a: &Netlist,
    b: &Netlist,
    opts: &EquivOptions,
) -> Result<EquivReport, EquivError> {
    let _span = chls_trace::span("logic.equiv.comb");
    if !a.is_combinational() || !b.is_combinational() {
        return Err(EquivError::Interface(
            "combinational check requires combinational netlists".into(),
        ));
    }
    let mut names_a: Vec<&str> = a.outputs.iter().map(|(n, _)| n.as_str()).collect();
    let mut names_b: Vec<&str> = b.outputs.iter().map(|(n, _)| n.as_str()).collect();
    names_a.sort_unstable();
    names_b.sort_unstable();
    if names_a != names_b {
        return Err(EquivError::Interface(format!(
            "output sets differ: {names_a:?} vs {names_b:?}"
        )));
    }

    // BDD fast path when the shared input space is small and the
    // interfaces line up exactly.
    if input_bits(a) <= opts.bdd_input_limit && input_bits(b) <= opts.bdd_input_limit {
        match check_equivalence(a, b, opts.bdd_budget) {
            Ok(Equivalence::Equivalent) => {
                return Ok(EquivReport {
                    verdict: Verdict::Equivalent,
                    method: Method::Bdd,
                    aig_nodes: 0,
                    sat_conflicts: 0,
                    bound: 0,
                });
            }
            Ok(Equivalence::Differ { witness, .. }) => {
                let cex = replay_comb(a, b, witness, Vec::new())?;
                return Ok(EquivReport {
                    verdict: Verdict::Differ(cex),
                    method: Method::Bdd,
                    aig_nodes: 0,
                    sat_conflicts: 0,
                    bound: 0,
                });
            }
            Err(_) => {} // unsupported cell or budget: drop to the AIG ladder
        }
    }

    let mut g = Aig::new();
    let mut env = SymEnv::new();
    let ma = SymMachine::new(&mut g, &mut env, a, &[])?;
    let mb = SymMachine::new(&mut g, &mut env, b, &[])?;
    let va = ma.eval(&mut g, &mut env)?;
    let vb = mb.eval(&mut g, &mut env)?;
    let outs_a: HashMap<String, Word> = ma.outputs(&va).into_iter().collect();
    let mut miter = Lit::FALSE;
    for (name, wb) in mb.outputs(&vb) {
        let wa = &outs_a[&name];
        let d = neq64(&mut g, wa, &wb);
        miter = g.or(miter, d);
    }
    chls_trace::add("logic.aig_nodes", g.len() as u64);

    decide(&mut g, &env, miter, None, opts, 0, |vals| {
        let (inputs, _) = decode_env(&env, vals);
        replay_comb(a, b, inputs, Vec::new())
    })
}

fn input_bits(nl: &Netlist) -> usize {
    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    for c in &nl.cells {
        if let CellKind::Input { name } = &c.kind {
            seen.insert(name.as_str(), c.ty.width as usize);
        }
    }
    seen.values().sum()
}

/// Replays a combinational counterexample through both concrete
/// simulators and extracts the differing output.
fn replay_comb(
    a: &Netlist,
    b: &Netlist,
    inputs: Vec<(String, i64)>,
    rams: Vec<(String, Vec<i64>)>,
) -> Result<Counterexample, EquivError> {
    let run = |nl: &Netlist| -> Result<Vec<(String, i64)>, EquivError> {
        let mut sim = NetlistSim::new(nl).map_err(|e| EquivError::Sim(e.to_string()))?;
        for (n, v) in &inputs {
            sim.set_input(n.clone(), *v);
        }
        let outs = sim
            .eval_outputs()
            .map_err(|e| EquivError::Sim(e.to_string()))?;
        Ok(outs.into_iter().map(|(n, v)| (n.to_string(), v)).collect())
    };
    let oa = run(a)?;
    let ob: HashMap<String, i64> = run(b)?.into_iter().collect();
    for (name, va) in oa {
        if let Some(&vb) = ob.get(&name) {
            if va != vb {
                return Ok(Counterexample {
                    inputs,
                    rams,
                    output: name,
                    a_value: va,
                    b_value: vb,
                });
            }
        }
    }
    Err(EquivError::ReplayMismatch(
        "solver model produced identical concrete outputs".into(),
    ))
}

// ---------------------------------------------------------------------
// Bounded sequential equivalence.
// ---------------------------------------------------------------------

/// Checks two FSMDs for `k`-step bounded equivalence: whenever both
/// machines report done within `k` cycles, they agree on the return
/// value and on the final contents of caller-visible arrays.
pub fn check_seq_equiv(
    a: &Fsmd,
    b: &Fsmd,
    k: usize,
    opts: &EquivOptions,
) -> Result<EquivReport, EquivError> {
    let _span = chls_trace::span("logic.equiv.seq");
    check_fsmd_interfaces(a, b)?;

    let na = unified_netlist(a);
    let nb = unified_netlist(b);
    let specs_a = ram_specs(a);
    let specs_b = ram_specs(b);

    let mut g = Aig::new();
    let mut env = SymEnv::new();
    let mut ma = SymMachine::new(&mut g, &mut env, &na, &specs_a)?;
    let mut mb = SymMachine::new(&mut g, &mut env, &nb, &specs_b)?;
    for _ in 0..k {
        ma.step(&mut g, &mut env)?;
        mb.step(&mut g, &mut env)?;
    }
    let va = ma.eval(&mut g, &mut env)?;
    let vb = mb.eval(&mut g, &mut env)?;
    let outs_a: HashMap<String, Word> = ma.outputs(&va).into_iter().collect();
    let outs_b: HashMap<String, Word> = mb.outputs(&vb).into_iter().collect();
    let done_bit = |g: &mut Aig, w: &Word| {
        let bits = w.bits.clone();
        let mut acc = Lit::FALSE;
        for b in bits {
            acc = g.or(acc, b);
        }
        acc
    };
    let done_a = done_bit(&mut g, &outs_a["done"]);
    let done_b = done_bit(&mut g, &outs_b["done"]);
    let mut diff = Lit::FALSE;
    if let (Some(ra), Some(rb)) = (outs_a.get("ret"), outs_b.get("ret")) {
        diff = neq64(&mut g, ra, rb);
    }
    // Final contents of each shared (caller-visible) array.
    for (key, ia) in shared_ram_indices(&specs_a) {
        let ib = shared_ram_indices(&specs_b)
            .into_iter()
            .find(|(kb, _)| *kb == key)
            .map(|(_, i)| i)
            .expect("interface check matched array params");
        let (wa, wb) = (ma.ram(ia).to_vec(), mb.ram(ib).to_vec());
        for (x, y) in wa.iter().zip(&wb) {
            let d = neq64(&mut g, x, y);
            diff = g.or(diff, d);
        }
    }
    let both_done = g.and(done_a, done_b);
    let miter = g.and(both_done, diff);
    chls_trace::add("logic.aig_nodes", g.len() as u64);

    decide(&mut g, &env, miter, Some(both_done), opts, k, |vals| {
        let (inputs, rams) = decode_env(&env, vals);
        replay_seq(&na, &nb, &specs_a, &specs_b, k, inputs, rams)
    })
}

/// A netlist whose scalar inputs are renamed `arg{param}` so the two
/// sides unify regardless of source-level naming.
fn unified_netlist(f: &Fsmd) -> Netlist {
    let rename: HashMap<&str, usize> = f
        .inputs
        .iter()
        .zip(&f.input_params)
        .map(|((n, _), &p)| (n.as_str(), p))
        .collect();
    let mut nl = fsmd_to_netlist(f);
    for c in &mut nl.cells {
        if let CellKind::Input { name } = &mut c.kind {
            if let Some(&p) = rename.get(name.as_str()) {
                *name = format!("arg{p}");
            }
        }
    }
    nl
}

fn ram_specs(f: &Fsmd) -> Vec<RamSpec> {
    f.mems
        .iter()
        .map(|m| match m.param_index {
            Some(p) => RamSpec::Shared(format!("arg{p}")),
            None => RamSpec::Concrete,
        })
        .collect()
}

fn shared_ram_indices(specs: &[RamSpec]) -> Vec<(String, usize)> {
    specs
        .iter()
        .enumerate()
        .filter_map(|(i, s)| match s {
            RamSpec::Shared(k) => Some((k.clone(), i)),
            RamSpec::Concrete => None,
        })
        .collect()
}

fn check_fsmd_interfaces(a: &Fsmd, b: &Fsmd) -> Result<(), EquivError> {
    let scalars = |f: &Fsmd| -> BTreeMap<usize, IntType> {
        f.inputs
            .iter()
            .zip(&f.input_params)
            .map(|((_, ty), &p)| (p, *ty))
            .collect()
    };
    let (sa, sb) = (scalars(a), scalars(b));
    if sa != sb {
        return Err(EquivError::Interface(format!(
            "scalar parameters differ: {sa:?} vs {sb:?}"
        )));
    }
    let arrays = |f: &Fsmd| -> BTreeMap<usize, (IntType, usize)> {
        f.mems
            .iter()
            .filter_map(|m| m.param_index.map(|p| (p, (m.elem, m.len))))
            .collect()
    };
    let (aa, ab) = (arrays(a), arrays(b));
    if aa != ab {
        return Err(EquivError::Interface(format!(
            "array parameters differ: {aa:?} vs {ab:?}"
        )));
    }
    if a.ret.is_some() != b.ret.is_some() {
        return Err(EquivError::Interface(
            "one side returns a value and the other does not".into(),
        ));
    }
    Ok(())
}

/// Replays a sequential counterexample: preload shared arrays, drive
/// the scalar inputs, run both netlists `k` cycles, and diff the
/// observables.
#[allow(clippy::too_many_arguments)]
fn replay_seq(
    na: &Netlist,
    nb: &Netlist,
    specs_a: &[RamSpec],
    specs_b: &[RamSpec],
    k: usize,
    inputs: Vec<(String, i64)>,
    rams: Vec<(String, Vec<i64>)>,
) -> Result<Counterexample, EquivError> {
    struct Final {
        done: i64,
        ret: Option<i64>,
        rams: Vec<(String, Vec<i64>)>,
    }
    let run = |nl: &Netlist, specs: &[RamSpec]| -> Result<Final, EquivError> {
        let mut nl = nl.clone();
        for (key, idx) in shared_ram_indices(specs) {
            if let Some((_, vals)) = rams.iter().find(|(n, _)| *n == key) {
                nl.rams[idx].init = Some(vals.clone());
            }
        }
        let mut sim = NetlistSim::new(&nl).map_err(|e| EquivError::Sim(e.to_string()))?;
        for (n, v) in &inputs {
            sim.set_input(n.clone(), *v);
        }
        for _ in 0..k {
            sim.step().map_err(|e| EquivError::Sim(e.to_string()))?;
        }
        let outs: HashMap<String, i64> = sim
            .eval_outputs()
            .map_err(|e| EquivError::Sim(e.to_string()))?
            .into_iter()
            .map(|(n, v)| (n.to_string(), v))
            .collect();
        let finals = shared_ram_indices(specs)
            .into_iter()
            .map(|(key, idx)| (key, sim.ram(idx).to_vec()))
            .collect();
        Ok(Final {
            done: *outs.get("done").unwrap_or(&0),
            ret: outs.get("ret").copied(),
            rams: finals,
        })
    };
    let fa = run(na, specs_a)?;
    let fb = run(nb, specs_b)?;
    if fa.done == 0 || fb.done == 0 {
        return Err(EquivError::ReplayMismatch(format!(
            "solver asserted both machines finish within the bound, \
             but concretely done = ({}, {})",
            fa.done, fb.done
        )));
    }
    if let (Some(ra), Some(rb)) = (fa.ret, fb.ret) {
        if ra != rb {
            return Ok(Counterexample {
                inputs,
                rams,
                output: "ret".into(),
                a_value: ra,
                b_value: rb,
            });
        }
    }
    for (key, wa) in &fa.rams {
        if let Some((_, wb)) = fb.rams.iter().find(|(n, _)| n == key) {
            for (j, (x, y)) in wa.iter().zip(wb).enumerate() {
                if x != y {
                    return Ok(Counterexample {
                        inputs,
                        rams,
                        output: format!("{key}[{j}]"),
                        a_value: *x,
                        b_value: *y,
                    });
                }
            }
        }
    }
    Err(EquivError::ReplayMismatch(
        "solver model produced identical concrete outputs".into(),
    ))
}

// ---------------------------------------------------------------------
// The shared decision ladder.
// ---------------------------------------------------------------------

/// Decides a miter literal: strash, then BDD (small inputs), then SAT.
/// `vacuity` is an optional side condition (e.g. "both machines
/// finish") that must be satisfiable for an Equivalent verdict to be
/// meaningful. `replay` converts an AIG input valuation into a
/// confirmed counterexample.
fn decide(
    g: &mut Aig,
    env: &SymEnv,
    miter: Lit,
    vacuity: Option<Lit>,
    opts: &EquivOptions,
    bound: usize,
    replay: impl Fn(&[bool]) -> Result<Counterexample, EquivError>,
) -> Result<EquivReport, EquivError> {
    let report = move |verdict, method, conflicts, aig_nodes| EquivReport {
        verdict,
        method,
        aig_nodes,
        sat_conflicts: conflicts,
        bound,
    };

    let check_vacuity = |g: &mut Aig, conflicts: &mut u64| -> Option<String> {
        let side = vacuity?;
        if side == Lit::FALSE {
            return Some("no input completes within the bound on both sides".into());
        }
        if side == Lit::TRUE {
            return None;
        }
        if simulated_witness(g, env, side) {
            chls_trace::add("logic.vacuity_sim", 1);
            return None;
        }
        chls_trace::add("logic.vacuity_sat", 1);
        let mut solver = Solver::new();
        let cnf = Cnf::encode(g, &[side], &mut solver);
        cnf.assert_true(side, &mut solver);
        let out = solver.solve(Some(opts.sat_budget));
        *conflicts += solver.num_conflicts();
        match out {
            Outcome::Sat(_) => None,
            Outcome::Unsat => {
                Some("no input completes within the bound on both sides".into())
            }
            Outcome::Unknown => Some("could not establish the bound is reachable".into()),
        }
    };

    // Rung 1: the rewriting AIG may have folded the miter already.
    if miter == Lit::FALSE {
        let mut conflicts = 0;
        let verdict = match check_vacuity(g, &mut conflicts) {
            Some(why) => Verdict::Unknown(why),
            None => Verdict::Equivalent,
        };
        return Ok(report(verdict, Method::Strash, conflicts, g.len()));
    }

    // Rung 2: BDD over the exported miter cone when the input space is
    // small enough to enumerate symbolically.
    let total_bits: usize = env.inputs.iter().map(|(_, w)| w.bits.len()).sum::<usize>()
        + env
            .rams
            .iter()
            .map(|(_, ws)| ws.iter().map(|w| w.bits.len()).sum::<usize>())
            .sum::<usize>();
    if total_bits <= opts.bdd_input_limit {
        let miter_nl = g.to_netlist("miter", &[("diff".into(), miter)], &env.labels);
        let zero_nl = const_false_twin(&miter_nl);
        match check_equivalence(&miter_nl, &zero_nl, opts.bdd_budget) {
            Ok(Equivalence::Equivalent) => {
                let mut conflicts = 0;
                let verdict = match check_vacuity(g, &mut conflicts) {
                    Some(why) => Verdict::Unknown(why),
                    None => Verdict::Equivalent,
                };
                return Ok(report(verdict, Method::Bdd, conflicts, g.len()));
            }
            Ok(Equivalence::Differ { witness, .. }) => {
                let vals = vals_from_named(env, g.len(), &witness);
                let cex = replay(&vals)?;
                return Ok(report(Verdict::Differ(cex), Method::Bdd, 0, g.len()));
            }
            Err(_) => {} // fall through to SAT
        }
    }

    // Rung 3: CDCL SAT on the Tseitin-encoded miter cone.
    let mut solver = Solver::new();
    let cnf = Cnf::encode(g, &[miter], &mut solver);
    cnf.assert_true(miter, &mut solver);
    let out = solver.solve(Some(opts.sat_budget));
    let mut conflicts = solver.num_conflicts();
    chls_trace::add("logic.sat_conflicts", conflicts);
    match out {
        Outcome::Unsat => {
            let verdict = match check_vacuity(g, &mut conflicts) {
                Some(why) => Verdict::Unknown(why),
                None => Verdict::Equivalent,
            };
            Ok(report(verdict, Method::Sat, conflicts, g.len()))
        }
        Outcome::Unknown => Ok(report(
            Verdict::Unknown(format!(
                "SAT conflict budget ({}) exhausted",
                opts.sat_budget
            )),
            Method::Sat,
            conflicts,
            g.len(),
        )),
        Outcome::Sat(model) => {
            let vals = cnf.decode(g, &model);
            let cex = replay(&vals)?;
            Ok(report(Verdict::Differ(cex), Method::Sat, conflicts, g.len()))
        }
    }
}

/// Rounds of 64 patterns [`simulated_witness`] tries before SAT.
const WITNESS_ROUNDS: u64 = 4;

/// Whether some seeded input pattern sets `side`: each round simulates
/// 64 patterns, one value per scalar input word and shared-RAM word.
/// Lane 0 is the all-zero input; the other lanes mix values in 0–3 and
/// 0–31 (loop counts that finish early) with full-width ones. A lane
/// that sets `side` is a concrete satisfying assignment of `side`.
fn simulated_witness(g: &Aig, env: &SymEnv, side: Lit) -> bool {
    let words: Vec<&Word> = env
        .inputs
        .iter()
        .map(|(_, w)| w)
        .chain(env.rams.iter().flat_map(|(_, ws)| ws))
        .collect();
    let mut lanes = vec![0u64; g.len()];
    for round in 0..WITNESS_ROUNDS {
        for (i, w) in words.iter().enumerate() {
            let values: Vec<u64> = (0..64u64)
                .map(|lane| pattern_value(round, i, lane))
                .collect();
            for (bit, l) in w.bits.iter().enumerate() {
                lanes[l.var() as usize] = values
                    .iter()
                    .enumerate()
                    .fold(0, |acc, (lane, v)| acc | (v >> bit & 1) << lane);
            }
        }
        let vals = g.simulate64(|v| lanes[v as usize]);
        if Aig::lit_value64(&vals, side) != 0 {
            return true;
        }
    }
    false
}

/// The seeded value of one word in one lane of one round: zero in lane
/// 0, otherwise a splitmix64 draw keyed by all three and kept to 2 bits,
/// 5 bits, or full width.
fn pattern_value(round: u64, word: usize, lane: u64) -> u64 {
    if lane == 0 {
        return 0;
    }
    let key = round << 56 | (word as u64) << 8 | lane;
    let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    match z >> 62 {
        0 => z & 3,
        1 => z & 31,
        _ => z,
    }
}

/// A netlist with the same input cells as `nl` but a constant-false
/// `diff` output, for driving the BDD checker as `miter ≡ 0`.
fn const_false_twin(nl: &Netlist) -> Netlist {
    let mut z = Netlist::new(format!("{}_zero", nl.name));
    for c in &nl.cells {
        if let CellKind::Input { name } = &c.kind {
            z.add(CellKind::Input { name: name.clone() }, c.ty);
        }
    }
    let f = z.add(CellKind::Const(0), IntType::new(1, false));
    z.set_output("diff", f);
    z
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fabricated counterexample on which both sides actually agree
    /// must surface as a loud `ReplayMismatch`, never as a refutation —
    /// this is the guard that would catch a solver or encoding bug.
    #[test]
    fn fabricated_counterexample_fails_loudly() {
        let ty = IntType::new(8, false);
        let mut nl = Netlist::new("sum");
        let a = nl.add(CellKind::Input { name: "a".into() }, ty);
        let b = nl.add(CellKind::Input { name: "b".into() }, ty);
        let s = nl.add(CellKind::Bin(chls_ir::BinKind::Add, a, b), ty);
        nl.set_output("s", s);
        let twin = nl.clone();
        let err = replay_comb(
            &nl,
            &twin,
            vec![("a".to_string(), 3), ("b".to_string(), 4)],
            Vec::new(),
        )
        .expect_err("identical netlists cannot have a counterexample");
        assert!(
            matches!(err, EquivError::ReplayMismatch(_)),
            "expected ReplayMismatch, got {err:?}"
        );
    }
}

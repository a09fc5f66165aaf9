//! Miter construction and the equivalence decision ladder.
//!
//! Two designs are compared by blasting both into one shared [`Aig`]
//! (inputs unified by name, caller-visible arrays unified by parameter
//! index) and building a *miter*: a single literal that is true exactly
//! when some observable output differs. Combinational and sequential
//! checks share one ladder, which tries, in order:
//!
//! 1. **strash** — structural hashing plus the AIG rewrite rules often
//!    collapse the miter to constant false outright;
//! 2. **exhaustive** — a small enough input space is enumerated, 64
//!    assignments per [`Aig::simulate64`] pass;
//! 3. **SAT** — Tseitin-encode the miter cone and run the CDCL solver
//!    under a conflict budget.
//!
//! Sequential machines are compared by `k`-step unrolling with the
//! bounded property *both sides finished ⇒ same return value and same
//! final contents of caller-visible arrays*. A bound under which no
//! input can finish on both sides is reported as `Unknown`, never as
//! a vacuous pass. The exhaustive rung settles that side condition in
//! its own passes; otherwise a concrete witness settles it when one
//! turns up in a few passes over seeded word-level patterns (the
//! all-zero input first), and SAT when none does.
//!
//! Every "differ" verdict is **replayed through the concrete
//! simulator** before being reported; a solver/simulator disagreement
//! is an internal soundness failure and surfaces loudly as
//! [`EquivError::ReplayMismatch`] rather than as a refutation.

use crate::aig::{Aig, Lit};
use crate::blast::{RamSpec, SymEnv, SymError, SymMachine, Word};
use crate::sat::{Cnf, Outcome, Solver};
use chls_frontend::IntType;
use chls_rtl::netlist::CellKind;
use chls_rtl::{fsmd_to_netlist, Fsmd, Netlist};
use chls_sim::netlist_sim::NetlistSim;
use std::collections::{BTreeMap, HashMap};

/// Tunables for the decision ladder.
#[derive(Debug, Clone)]
pub struct EquivOptions {
    /// Conflict budget for the CDCL solver before giving up.
    pub sat_budget: u64,
}

impl Default for EquivOptions {
    fn default() -> Self {
        EquivOptions {
            sat_budget: 2_000_000,
        }
    }
}

/// Which rung of the ladder decided the question.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// The miter folded to constant false in the AIG.
    Strash,
    /// Evaluation of the miter on every input assignment.
    Exhaustive,
    /// The CDCL SAT solver.
    Sat,
}

impl Method {
    /// Lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Method::Strash => "strash",
            Method::Exhaustive => "exhaustive",
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
                write!(
                    f,
                    "SOUNDNESS BUG: solver counterexample did not replay: {m}"
                )
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

    let (g, env, miter) = comb_miter(a, b)?;
    chls_trace::add("logic.aig_nodes", g.len() as u64);

    decide(&g, &env, miter, None, opts, 0, |vals| {
        let (inputs, _) = decode_env(&env, vals);
        replay_comb(a, b, inputs, Vec::new())
    })
}

/// Blasts both netlists into one AIG and returns it with the shared
/// inputs and the miter: some same-named output differs.
fn comb_miter(a: &Netlist, b: &Netlist) -> Result<(Aig, SymEnv, Lit), EquivError> {
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
    Ok((g, env, miter))
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

    decide(&g, &env, miter, Some(both_done), opts, k, |vals| {
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

/// A rung's answer, before counterexample replay.
#[derive(Debug)]
enum Decision {
    /// No input sets the miter, and the side condition holds.
    Equivalent,
    /// An AIG valuation, one entry per node, that sets the miter.
    Differ(Vec<bool>),
    /// Undecided, and why.
    Unknown(String),
}

impl Decision {
    /// The answer once the miter is known to be unsatisfiable: `why` is
    /// the side condition's failure, if any.
    fn holds(why: Option<String>) -> Decision {
        why.map_or(Decision::Equivalent, Decision::Unknown)
    }
}

/// Why an otherwise-proved bounded check is `Unknown`.
const NO_INPUT_COMPLETES: &str = "no input completes within the bound on both sides";

/// Decides a miter literal: strash, then exhaustive enumeration (small
/// input spaces), then SAT. `vacuity` is an optional side condition
/// (e.g. "both machines finish") that must be satisfiable for an
/// Equivalent verdict to be meaningful. `replay` converts an AIG input
/// valuation into a confirmed counterexample.
fn decide(
    g: &Aig,
    env: &SymEnv,
    miter: Lit,
    vacuity: Option<Lit>,
    opts: &EquivOptions,
    bound: usize,
    replay: impl Fn(&[bool]) -> Result<Counterexample, EquivError>,
) -> Result<EquivReport, EquivError> {
    let mut conflicts = 0;
    let (decision, method) = if miter == Lit::FALSE {
        // Rung 1: the rewriting AIG folded the miter already.
        let why = check_vacuity(g, env, vacuity, opts, &mut conflicts);
        (Decision::holds(why), Method::Strash)
    } else if let Some(d) = exhaustive(g, env, miter, vacuity, EXHAUSTIVE_WORK) {
        (d, Method::Exhaustive)
    } else {
        let d = sat(g, env, miter, vacuity, opts, &mut conflicts);
        (d, Method::Sat)
    };
    let verdict = match decision {
        Decision::Equivalent => Verdict::Equivalent,
        Decision::Differ(vals) => Verdict::Differ(replay(&vals)?),
        Decision::Unknown(why) => Verdict::Unknown(why),
    };
    Ok(EquivReport {
        verdict,
        method,
        aig_nodes: g.len(),
        sat_conflicts: conflicts,
        bound,
    })
}

/// Node evaluations (passes × AIG nodes) the exhaustive rung may spend
/// before it leaves the miter to SAT. A miter of 20 input bits fits
/// when its AIG has at most 4,096 nodes, one of 8 bits at up to 4M.
const EXHAUSTIVE_WORK: u64 = 1 << 24;

/// Lane masks of the exhaustive rung: lane `l` of mask `i` is bit `i`
/// of `l`, so the 64 lanes of a pass hold every value of six bits.
const LANE_MASKS: [u64; 6] = [
    0xaaaa_aaaa_aaaa_aaaa,
    0xcccc_cccc_cccc_cccc,
    0xf0f0_f0f0_f0f0_f0f0,
    0xff00_ff00_ff00_ff00,
    0xffff_0000_ffff_0000,
    0xffff_ffff_0000_0000,
];

/// Rung 2: evaluates the miter on every input assignment, 64 per
/// [`Aig::simulate64`] pass. Input bit `i` takes its value from
/// [`LANE_MASKS`] for `i < 6` and from bit `i - 6` of the pass index
/// above. The first lane that sets the miter is the counterexample;
/// when none does, `vacuity` holds if some lane sets it. `None` when
/// the enumeration would exceed `work` node evaluations.
fn exhaustive(
    g: &Aig,
    env: &SymEnv,
    miter: Lit,
    vacuity: Option<Lit>,
    work: u64,
) -> Option<Decision> {
    let bits: Vec<Lit> = input_words(env)
        .flat_map(|w| w.bits.iter().copied())
        .collect();
    let shift = u32::try_from(bits.len().saturating_sub(LANE_MASKS.len())).ok()?;
    let passes = 1u64.checked_shl(shift)?;
    if passes.checked_mul(g.len() as u64)? > work {
        return None;
    }
    let side = vacuity.unwrap_or(Lit::TRUE);
    let mut lanes = vec![0u64; g.len()];
    for (l, mask) in bits.iter().zip(LANE_MASKS) {
        lanes[l.var() as usize] = mask;
    }
    let mut reached = false;
    for pass in 0..passes {
        for (i, l) in bits.iter().enumerate().skip(LANE_MASKS.len()) {
            lanes[l.var() as usize] = 0u64.wrapping_sub(pass >> (i - LANE_MASKS.len()) & 1);
        }
        let vals = g.simulate64(|v| lanes[v as usize]);
        let hits = Aig::lit_value64(&vals, miter);
        if hits != 0 {
            let lane = hits.trailing_zeros();
            return Some(Decision::Differ(
                vals.iter().map(|w| w >> lane & 1 != 0).collect(),
            ));
        }
        reached |= Aig::lit_value64(&vals, side) != 0;
    }
    let why = (!reached).then(|| NO_INPUT_COMPLETES.into());
    Some(Decision::holds(why))
}

/// Rung 3: CDCL SAT on the Tseitin-encoded miter cone; when it is
/// unsatisfiable, the side condition is checked as on rung 1.
fn sat(
    g: &Aig,
    env: &SymEnv,
    miter: Lit,
    vacuity: Option<Lit>,
    opts: &EquivOptions,
    conflicts: &mut u64,
) -> Decision {
    let mut solver = Solver::new();
    let cnf = Cnf::encode(g, &[miter], &mut solver);
    cnf.assert_true(miter, &mut solver);
    let out = solver.solve(Some(opts.sat_budget));
    let spent = solver.num_conflicts();
    chls_trace::add("logic.sat_conflicts", spent);
    *conflicts += spent;
    match out {
        Outcome::Unsat => Decision::holds(check_vacuity(g, env, vacuity, opts, conflicts)),
        Outcome::Unknown => Decision::Unknown(format!(
            "SAT conflict budget ({}) exhausted",
            opts.sat_budget
        )),
        Outcome::Sat(model) => Decision::Differ(cnf.decode(g, &model)),
    }
}

/// Whether the side condition `vacuity` fails: `Some(why)` when no input
/// can set it (or SAT ran out of budget showing one can). A seeded
/// simulation witness settles it before SAT is asked.
fn check_vacuity(
    g: &Aig,
    env: &SymEnv,
    vacuity: Option<Lit>,
    opts: &EquivOptions,
    conflicts: &mut u64,
) -> Option<String> {
    let side = vacuity?;
    if side == Lit::FALSE {
        return Some(NO_INPUT_COMPLETES.into());
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
        Outcome::Unsat => Some(NO_INPUT_COMPLETES.into()),
        Outcome::Unknown => Some("could not establish the bound is reachable".into()),
    }
}

/// The symbolic words whose bits are the AIG's free inputs: scalar
/// inputs, then the words of shared RAMs.
fn input_words(env: &SymEnv) -> impl Iterator<Item = &Word> {
    env.inputs
        .iter()
        .map(|(_, w)| w)
        .chain(env.rams.iter().flat_map(|(_, ws)| ws))
}

/// Rounds of 64 patterns [`simulated_witness`] tries before SAT.
const WITNESS_ROUNDS: u64 = 4;

/// Whether some seeded input pattern sets `side`: each round simulates
/// 64 patterns, one value per scalar input word and shared-RAM word.
/// Lane 0 is the all-zero input; the other lanes mix values in 0–3 and
/// 0–31 (loop counts that finish early) with full-width ones. A lane
/// that sets `side` is a concrete satisfying assignment of `side`.
fn simulated_witness(g: &Aig, env: &SymEnv, side: Lit) -> bool {
    let mut lanes = vec![0u64; g.len()];
    for round in 0..WITNESS_ROUNDS {
        for (i, w) in input_words(env).enumerate() {
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

#[cfg(test)]
mod tests {
    use super::*;
    use chls_ir::{BinKind, UnKind};
    use std::collections::BTreeSet;

    /// xorshift64* draws in `0..n`: the generators' only randomness.
    fn rng(seed: u64) -> impl FnMut(usize) -> usize {
        let mut s = (seed ^ 0x5851_f42d_4c95_7f2d).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        move |n| {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            (s.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 32) as usize % n
        }
    }

    const OPS: [BinKind; 8] = [
        BinKind::Add,
        BinKind::Sub,
        BinKind::Mul,
        BinKind::And,
        BinKind::Or,
        BinKind::Xor,
        BinKind::Shl,
        BinKind::Shr,
    ];

    /// A random netlist over inputs `a` and `b` of at most 8 bits each,
    /// cast to one 8-bit working type, with every cell an output, and a
    /// twin with one operator changed: odd seeds swap it for another
    /// (usually a different function), even seeds rewrite an `Add` as
    /// `x - (-y)` (the same function in a different structure).
    fn random_pair(seed: u64) -> (Netlist, Netlist) {
        let mut r = rng(seed);
        let work = IntType::new(8, r(2) == 1);
        let mut nl = Netlist::new("rand");
        let mut nets = Vec::new();
        for name in ["a", "b"] {
            let ty = IntType::new(1 + r(8) as u16, r(2) == 1);
            let x = nl.add(CellKind::Input { name: name.into() }, ty);
            nets.push(nl.add(CellKind::Cast { from: ty, val: x }, work));
        }
        for _ in 0..4 + r(8) {
            let (x, y) = (nets[r(nets.len())], nets[r(nets.len())]);
            let id = match r(OPS.len() + 2) {
                i if i < OPS.len() => nl.add(CellKind::Bin(OPS[i], x, y), work),
                i if i == OPS.len() => nl.add(CellKind::Const(r(256) as i64), work),
                _ => {
                    let sel = nl.add(CellKind::Bin(BinKind::Lt, x, y), IntType::new(1, false));
                    nl.add(CellKind::Mux { sel, a: y, b: x }, work)
                }
            };
            nets.push(id);
        }
        for (i, &net) in nets.iter().enumerate().skip(2) {
            nl.set_output(format!("o{i}"), net);
        }
        let mut twin = nl.clone();
        let bins: Vec<_> = (twin.cells.iter().enumerate())
            .filter_map(|(i, c)| match c.kind {
                CellKind::Bin(op, x, y) if OPS.contains(&op) => Some((i, op, x, y)),
                _ => None,
            })
            .filter(|&(_, op, ..)| seed % 2 == 1 || op == BinKind::Add)
            .collect();
        if let Some(&(i, op, x, y)) = bins.get(r(bins.len().max(1))) {
            twin.cells[i].kind = if seed % 2 == 1 {
                let other = OPS.iter().filter(|&&o| o != op).nth(r(OPS.len() - 1));
                CellKind::Bin(*other.expect("seven others"), x, y)
            } else {
                let neg = twin.add(CellKind::Un(UnKind::Neg, y), work);
                CellKind::Bin(BinKind::Sub, x, neg)
            };
        }
        (nl, twin)
    }

    /// A rung's answer in comparable form; a `Differ` valuation must
    /// replay through the concrete simulators.
    fn settled(d: Decision, env: &SymEnv, a: &Netlist, b: &Netlist) -> Result<String, String> {
        match d {
            Decision::Equivalent => Ok("equivalent".into()),
            Decision::Unknown(why) => Ok(why),
            Decision::Differ(vals) => {
                let (inputs, _) = decode_env(env, &vals);
                replay_comb(a, b, inputs, Vec::new())
                    .map(|_| "differ".into())
                    .map_err(|e| e.to_string())
            }
        }
    }

    /// A netlist whose output `a == c` only the input `c` sets, and a
    /// twin whose output is constant 0.
    fn needle_pair(width: u16, c: i64) -> (Netlist, Netlist) {
        let build = |needle: bool| {
            let (ty, u1) = (IntType::new(width, false), IntType::new(1, false));
            let mut nl = Netlist::new("needle");
            let a = nl.add(CellKind::Input { name: "a".into() }, ty);
            let o = if needle {
                let k = nl.add(CellKind::Const(c), ty);
                nl.add(CellKind::Bin(BinKind::Eq, a, k), u1)
            } else {
                nl.add(CellKind::Const(0), u1)
            };
            nl.set_output("o", o);
            nl
        };
        (build(true), build(false))
    }

    /// SAT and exhaustive enumeration agree on seeded random miters of at
    /// most 16 input bits, with and without a vacuity side condition,
    /// and every `Differ` either rung finds replays. Needle miters at
    /// every `c` up to 8 bits, and sampled `c` at 13 bits (seven from
    /// the pass index), check that enumeration visits every assignment.
    #[test]
    fn exhaustive_and_sat_agree_on_small_miters() {
        let opts = EquivOptions::default();
        let mut r = rng(13);
        let needles = (1..=8u16)
            .flat_map(|w| (0..1i64 << w).map(move |c| (w, c)))
            .chain((0..16).map(|_| (13, r(1 << 13) as i64)))
            .map(|(w, c)| (None, needle_pair(w, c)));
        let random = (0..96u64).map(|seed| ((seed % 3 == 0).then_some(seed), random_pair(seed)));
        let mut seen = BTreeSet::new();
        for (side_seed, (a, b)) in random.chain(needles) {
            let (mut g, env, mut miter) = comb_miter(&a, &b).expect("blasts");
            if miter == Lit::FALSE {
                continue;
            }
            // A side condition over two random nodes, conjoined into the
            // miter as sequential checks do.
            let vacuity = side_seed.map(|seed| {
                let mut r = rng(!seed);
                let mut pick = || Lit(2 + r(2 * g.len() - 2) as u32);
                let (x, y) = (pick(), pick());
                g.and(x, y)
            });
            if let Some(side) = vacuity {
                miter = g.and(side, miter);
            }
            let ex = exhaustive(&g, &env, miter, vacuity, u64::MAX).expect("uncapped");
            let mut conflicts = 0;
            let by_sat = sat(&g, &env, miter, vacuity, &opts, &mut conflicts);
            let (ex, by_sat) = (settled(ex, &env, &a, &b), settled(by_sat, &env, &a, &b));
            assert_eq!(ex, by_sat, "{a:?} vs {b:?}");
            seen.insert(ex.expect("replays"));
        }
        for kind in ["equivalent", "differ", NO_INPUT_COMPLETES] {
            assert!(seen.contains(kind), "no {kind:?} case among {seen:?}");
        }
    }

    /// A miter whose enumeration exceeds the work cap (a needle at 26
    /// input bits: 2^20 passes) is left to SAT, which reaches the verdict
    /// enumeration reaches without the cap.
    #[test]
    fn miter_above_the_work_cap_is_decided_by_sat() {
        let (a, b) = needle_pair(26, 5);
        let (g, env, miter) = comb_miter(&a, &b).expect("blasts");
        assert!(exhaustive(&g, &env, miter, None, EXHAUSTIVE_WORK).is_none());
        let uncapped = exhaustive(&g, &env, miter, None, u64::MAX).expect("uncapped");
        assert_eq!(settled(uncapped, &env, &a, &b), Ok("differ".into()));
        let report = check_comb_equiv(&a, &b, &EquivOptions::default()).expect("checks");
        assert_eq!(report.method, Method::Sat);
        let Verdict::Differ(_) = report.verdict else {
            panic!("{:?}", report.verdict)
        };
    }

    /// A fabricated counterexample on which both sides actually agree
    /// must surface as a loud `ReplayMismatch`, never as a refutation —
    /// this is the guard that would catch a solver or encoding bug.
    #[test]
    fn fabricated_counterexample_fails_loudly() {
        let ty = IntType::new(8, false);
        let mut nl = Netlist::new("sum");
        let a = nl.add(CellKind::Input { name: "a".into() }, ty);
        let b = nl.add(CellKind::Input { name: "b".into() }, ty);
        let s = nl.add(CellKind::Bin(BinKind::Add, a, b), ty);
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

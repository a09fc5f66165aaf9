//! Netlist interchange: binary AIGER and BLIF emission, AIGER re-read,
//! and a round-trip equivalence self-check.
//!
//! The `explore` engine reports Pareto-optimal design points; this
//! module is how those numbers stay auditable by the outside world.
//! Every frontier netlist can be dumped as
//!
//! * **binary AIGER** (`aig` header, delta-compressed AND section, 1.9
//!   reset values, symbol table) — the exchange format of abc and the
//!   hardware model-checking competitions, and
//! * **BLIF** — the classic logic-synthesis netlist format.
//!
//! Emission goes through [`from_netlist`]: the word-level netlist is
//! bit-blasted with the [`crate::blast`] machinery into *latch form* —
//! every register bit and RAM word bit becomes an AIGER latch whose
//! next-state function is one symbolic `step`, so sequential designs
//! (FSMDs lowered through `chls_rtl::fsmd_to_netlist`) export exactly,
//! RAMs included.
//!
//! The honest part: [`read_aiger`] parses the binary format back and
//! [`prove_equal`] proves writer∘reader is the identity — structurally
//! when strashing already folds the miter, by SAT otherwise. `explore
//! --emit-dir` runs this self-check on every file it writes; a dumped
//! netlist that does not round-trip is a bug, not a shrug.

use crate::aig::{Aig, Lit};
use crate::blast::{RamSpec, SymEnv, SymError, SymMachine};
use crate::sat::{Cnf, Outcome, Solver};
use chls_rtl::Netlist;
use std::collections::{HashMap, HashSet};

/// SAT conflict budget for the round-trip self-check; re-read cones are
/// near-identical to the originals, so this is never approached.
const ROUNDTRIP_SAT_BUDGET: u64 = 2_000_000;

/// What went wrong during interchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterchangeError {
    /// Bit-blasting the netlist failed (e.g. a combinational cycle).
    Blast(String),
    /// The byte stream is not a well-formed binary AIGER file.
    Malformed(String),
    /// The re-read circuit is NOT equivalent to the written one — a
    /// writer/reader bug, never acceptable.
    NotEquivalent(String),
    /// The equivalence self-check ran out of budget (should not happen
    /// on round-trip miters; reported rather than trusted).
    Unknown(String),
}

impl std::fmt::Display for InterchangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterchangeError::Blast(e) => write!(f, "cannot bit-blast netlist: {e}"),
            InterchangeError::Malformed(e) => write!(f, "malformed AIGER: {e}"),
            InterchangeError::NotEquivalent(e) => write!(f, "round-trip NOT equivalent: {e}"),
            InterchangeError::Unknown(e) => write!(f, "round-trip check inconclusive: {e}"),
        }
    }
}

impl std::error::Error for InterchangeError {}

impl From<SymError> for InterchangeError {
    fn from(e: SymError) -> Self {
        InterchangeError::Blast(e.to_string())
    }
}

/// One latch of an AIGER document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AigerLatch {
    /// AIG input variable carrying the latch's current-state value.
    pub var: u32,
    /// Next-state function.
    pub next: Lit,
    /// Reset value (AIGER 1.9 reset field; plain AIGER means `false`).
    pub init: bool,
    /// Symbol-table name.
    pub name: String,
}

/// An AIG plus the I/O structure AIGER needs: ordered primary inputs,
/// latches (with next-state functions and reset values), and named
/// single-bit outputs.
#[derive(Debug, Clone)]
pub struct AigerDoc {
    /// Model name (becomes the BLIF `.model` and an AIGER comment).
    pub name: String,
    /// The graph; inputs are partitioned into `inputs` and `latches`.
    pub aig: Aig,
    /// Primary inputs in AIGER order: (AIG variable, symbol).
    pub inputs: Vec<(u32, String)>,
    /// Latches in AIGER order.
    pub latches: Vec<AigerLatch>,
    /// Outputs in AIGER order: (symbol, literal).
    pub outputs: Vec<(String, Lit)>,
    /// Comment lines for the AIGER `c` section.
    pub comments: Vec<String>,
}

impl AigerDoc {
    /// Number of AND gates (total nodes minus inputs minus the
    /// constant).
    pub fn num_ands(&self) -> usize {
        self.aig.len() - 1 - self.aig.inputs().len()
    }
}

// ---------------------------------------------------------------------
// Netlist -> latch-form AIG.
// ---------------------------------------------------------------------

/// Bit-blasts a word-level netlist into latch form.
///
/// Registers and RAM words become AIGER latches: their cycle-0 values
/// are fresh AIG inputs ([`SymMachine::symbolize_state`]) and one
/// symbolic [`SymMachine::step`] yields each bit's next-state function
/// over (primary inputs × current state). Multi-bit outputs are split
/// into `{name}.{bit}` single-bit outputs, LSB first.
///
/// # Errors
///
/// Fails when the netlist cannot be bit-blasted (combinational cycle,
/// inconsistent input widths).
pub fn from_netlist(nl: &Netlist) -> Result<AigerDoc, InterchangeError> {
    let mut g = Aig::new();
    let mut env = SymEnv::new();
    let specs = vec![RamSpec::Concrete; nl.rams.len()];
    let mut m = SymMachine::new(&mut g, &mut env, nl, &specs)?;
    let state = m.symbolize_state(&mut g);
    let state_vars: HashSet<u32> = state.iter().map(|b| b.var).collect();

    let vals = m.eval(&mut g, &mut env)?;
    let mut outputs = Vec::new();
    for (name, w) in m.outputs(&vals) {
        if w.bits.len() == 1 {
            outputs.push((name, w.bits[0]));
        } else {
            for (i, b) in w.bits.iter().enumerate() {
                outputs.push((format!("{name}.{i}"), *b));
            }
        }
    }

    m.step(&mut g, &mut env)?;
    let next = m.state_bits();
    debug_assert_eq!(next.len(), state.len());
    let latches = state
        .iter()
        .zip(&next)
        .map(|(sb, n)| AigerLatch {
            var: sb.var,
            next: *n,
            init: sb.init,
            name: sb.label.clone(),
        })
        .collect();

    let inputs = g
        .inputs()
        .iter()
        .filter(|v| !state_vars.contains(v))
        .map(|&v| {
            let name = env
                .labels
                .get(&v)
                .cloned()
                .unwrap_or_else(|| format!("i{v}"));
            (v, name)
        })
        .collect();

    Ok(AigerDoc {
        name: nl.name.clone(),
        aig: g,
        inputs,
        latches,
        outputs,
        comments: Vec::new(),
    })
}

// ---------------------------------------------------------------------
// Binary AIGER writer.
// ---------------------------------------------------------------------

/// AIGER's LEB128 variant: 7 value bits per byte, MSB = continuation.
fn push_delta(out: &mut Vec<u8>, mut x: u32) {
    loop {
        let mut b = (x & 0x7f) as u8;
        x >>= 7;
        if x != 0 {
            b |= 0x80;
        }
        out.push(b);
        if x == 0 {
            break;
        }
    }
}

/// Serializes a document as binary AIGER (`aig` header, ASCII latch and
/// output sections, delta-compressed AND section, symbol table, comment
/// section). Latches with a true reset value carry the AIGER 1.9 reset
/// field.
///
/// # Errors
///
/// Fails when the document is internally inconsistent (an AIG input
/// that is neither a declared input nor a latch).
pub fn write_aiger(doc: &AigerDoc) -> Result<Vec<u8>, InterchangeError> {
    let g = &doc.aig;
    let ni = doc.inputs.len();
    let nl = doc.latches.len();

    // Renumber: inputs 1..=I, latches I+1..=I+L, ANDs (creation order
    // is topological) I+L+1..=M. Variable 0 stays the constant.
    let mut index: Vec<u32> = vec![0; g.len()];
    let mut claimed: Vec<bool> = vec![false; g.len()];
    for (p, (v, _)) in doc.inputs.iter().enumerate() {
        index[*v as usize] = (p + 1) as u32;
        claimed[*v as usize] = true;
    }
    for (p, la) in doc.latches.iter().enumerate() {
        index[la.var as usize] = (ni + p + 1) as u32;
        claimed[la.var as usize] = true;
    }
    for &v in g.inputs() {
        if !claimed[v as usize] {
            return Err(InterchangeError::Malformed(format!(
                "AIG input variable {v} is neither a declared input nor a latch"
            )));
        }
    }
    let mut ands = Vec::new();
    for v in 1..g.len() as u32 {
        if g.is_and(v) {
            index[v as usize] = (ni + nl + 1 + ands.len()) as u32;
            ands.push(v);
        }
    }
    let m = ni + nl + ands.len();
    let enc = |l: Lit| -> u32 { 2 * index[l.var() as usize] + u32::from(l.is_compl()) };

    let mut out = Vec::new();
    out.extend_from_slice(
        format!("aig {m} {ni} {nl} {} {}\n", doc.outputs.len(), ands.len()).as_bytes(),
    );
    for la in &doc.latches {
        if la.init {
            out.extend_from_slice(format!("{} 1\n", enc(la.next)).as_bytes());
        } else {
            out.extend_from_slice(format!("{}\n", enc(la.next)).as_bytes());
        }
    }
    for (_, l) in &doc.outputs {
        out.extend_from_slice(format!("{}\n", enc(*l)).as_bytes());
    }
    for &v in &ands {
        let lhs = 2 * index[v as usize];
        let [f0, f1] = g.node(v);
        let (mut e0, mut e1) = (enc(f0), enc(f1));
        if e0 < e1 {
            std::mem::swap(&mut e0, &mut e1);
        }
        push_delta(&mut out, lhs - e0);
        push_delta(&mut out, e0 - e1);
    }
    for (p, (_, name)) in doc.inputs.iter().enumerate() {
        out.extend_from_slice(format!("i{p} {name}\n").as_bytes());
    }
    for (p, la) in doc.latches.iter().enumerate() {
        out.extend_from_slice(format!("l{p} {}\n", la.name).as_bytes());
    }
    for (p, (name, _)) in doc.outputs.iter().enumerate() {
        out.extend_from_slice(format!("o{p} {name}\n").as_bytes());
    }
    out.extend_from_slice(b"c\n");
    out.extend_from_slice(format!("{}\n", doc.name).as_bytes());
    for c in &doc.comments {
        out.extend_from_slice(format!("{c}\n").as_bytes());
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Binary AIGER reader.
// ---------------------------------------------------------------------

fn read_line<'a>(bytes: &'a [u8], pos: &mut usize) -> Result<&'a str, InterchangeError> {
    let start = *pos;
    while *pos < bytes.len() && bytes[*pos] != b'\n' {
        *pos += 1;
    }
    if *pos >= bytes.len() {
        return Err(InterchangeError::Malformed("unterminated line".to_string()));
    }
    let line = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| InterchangeError::Malformed("non-UTF-8 header section".to_string()))?;
    *pos += 1;
    Ok(line)
}

fn read_delta(bytes: &[u8], pos: &mut usize) -> Result<u32, InterchangeError> {
    let mut x: u32 = 0;
    let mut shift = 0;
    loop {
        let b = *bytes
            .get(*pos)
            .ok_or_else(|| InterchangeError::Malformed("truncated AND section".to_string()))?;
        *pos += 1;
        if shift >= 32 {
            return Err(InterchangeError::Malformed(
                "delta overflows 32 bits".to_string(),
            ));
        }
        x |= u32::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(x);
        }
        shift += 7;
    }
}

/// Parses a binary AIGER file back into an [`AigerDoc`].
///
/// The graph is rebuilt through [`Aig::and`], so structural hashing and
/// local rewriting may *fold* nodes the file spelled out — the result
/// is semantically, not structurally, identical (which is what
/// [`prove_equal`] certifies). Symbols default to `i{n}`/`l{n}`/`o{n}`
/// when the file carries no symbol table.
///
/// # Errors
///
/// Fails on any structural violation: bad magic, truncated sections,
/// forward references, literals out of range.
pub fn read_aiger(bytes: &[u8]) -> Result<AigerDoc, InterchangeError> {
    let mut pos = 0;
    let header = read_line(bytes, &mut pos)?;
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() != 6 || fields[0] != "aig" {
        return Err(InterchangeError::Malformed(format!(
            "expected `aig M I L O A` header, got `{header}`"
        )));
    }
    let nums: Vec<usize> = fields[1..]
        .iter()
        .map(|s| {
            s.parse::<usize>()
                .map_err(|_| InterchangeError::Malformed(format!("bad header field `{s}`")))
        })
        .collect::<Result<_, _>>()?;
    let (m, ni, nl, no, na) = (nums[0], nums[1], nums[2], nums[3], nums[4]);
    if m != ni + nl + na {
        return Err(InterchangeError::Malformed(format!(
            "header M={m} != I+L+A={}",
            ni + nl + na
        )));
    }

    let mut g = Aig::new();
    let mut lits: Vec<Lit> = Vec::with_capacity(m + 1);
    lits.push(Lit::FALSE);
    for _ in 0..ni + nl {
        lits.push(g.input());
    }

    // Latch and output definitions are raw encodings until the AND
    // section makes every variable decodable.
    let mut latch_raw = Vec::with_capacity(nl);
    for p in 0..nl {
        let line = read_line(bytes, &mut pos)?;
        let mut it = line.split_whitespace();
        let next: u32 = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| InterchangeError::Malformed(format!("bad latch line `{line}`")))?;
        let init = match it.next() {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => {
                return Err(InterchangeError::Malformed(format!(
                    "unsupported latch reset `{other}` (latch {p})"
                )))
            }
        };
        latch_raw.push((next, init));
    }
    let mut out_raw = Vec::with_capacity(no);
    for _ in 0..no {
        let line = read_line(bytes, &mut pos)?;
        let lit: u32 = line
            .trim()
            .parse()
            .map_err(|_| InterchangeError::Malformed(format!("bad output line `{line}`")))?;
        out_raw.push(lit);
    }

    for k in 0..na {
        let idx = ni + nl + 1 + k;
        let lhs = 2 * idx as u32;
        let d0 = read_delta(bytes, &mut pos)?;
        let d1 = read_delta(bytes, &mut pos)?;
        if d0 == 0 || d0 > lhs {
            return Err(InterchangeError::Malformed(format!(
                "AND {idx}: delta0 {d0} out of range"
            )));
        }
        let e0 = lhs - d0;
        let e1 = e0.checked_sub(d1).ok_or_else(|| {
            InterchangeError::Malformed(format!("AND {idx}: delta1 {d1} underflows"))
        })?;
        let a0 = decode(&lits, e0)?;
        let a1 = decode(&lits, e1)?;
        lits.push(g.and(a0, a1));
    }

    // Symbol table and comments.
    let mut in_names: HashMap<usize, String> = HashMap::new();
    let mut latch_names: HashMap<usize, String> = HashMap::new();
    let mut out_names: HashMap<usize, String> = HashMap::new();
    let mut comments = Vec::new();
    let mut name = "aiger".to_string();
    let mut in_comments = false;
    while pos < bytes.len() {
        let line = read_line(bytes, &mut pos)?;
        if in_comments {
            comments.push(line.to_string());
            continue;
        }
        if line == "c" {
            in_comments = true;
            // First comment line is the model name our writer emits.
            if pos < bytes.len() {
                name = read_line(bytes, &mut pos)?.to_string();
            }
            continue;
        }
        let (kind, rest) = line.split_at(1);
        let (idx_s, sym) = rest
            .split_once(' ')
            .ok_or_else(|| InterchangeError::Malformed(format!("bad symbol line `{line}`")))?;
        let idx: usize = idx_s
            .parse()
            .map_err(|_| InterchangeError::Malformed(format!("bad symbol index `{line}`")))?;
        match kind {
            "i" if idx < ni => in_names.insert(idx, sym.to_string()),
            "l" if idx < nl => latch_names.insert(idx, sym.to_string()),
            "o" if idx < no => out_names.insert(idx, sym.to_string()),
            _ => {
                return Err(InterchangeError::Malformed(format!(
                    "symbol `{line}` out of range"
                )))
            }
        };
    }

    let inputs = (0..ni)
        .map(|p| {
            let v = lits[1 + p].var();
            let n = in_names.remove(&p).unwrap_or_else(|| format!("i{p}"));
            (v, n)
        })
        .collect();
    let latches = (0..nl)
        .map(|p| {
            let (next_e, init) = latch_raw[p];
            Ok(AigerLatch {
                var: lits[1 + ni + p].var(),
                next: decode(&lits, next_e)?,
                init,
                name: latch_names.remove(&p).unwrap_or_else(|| format!("l{p}")),
            })
        })
        .collect::<Result<_, InterchangeError>>()?;
    let outputs = (0..no)
        .map(|p| {
            Ok((
                out_names.remove(&p).unwrap_or_else(|| format!("o{p}")),
                decode(&lits, out_raw[p])?,
            ))
        })
        .collect::<Result<_, InterchangeError>>()?;

    Ok(AigerDoc {
        name,
        aig: g,
        inputs,
        latches,
        outputs,
        comments,
    })
}

/// Decodes an AIGER literal against the variables defined so far.
fn decode(lits: &[Lit], e: u32) -> Result<Lit, InterchangeError> {
    let v = (e >> 1) as usize;
    let base = *lits.get(v).ok_or_else(|| {
        InterchangeError::Malformed(format!("literal {e} references undefined variable"))
    })?;
    Ok(if e & 1 == 1 { !base } else { base })
}

// ---------------------------------------------------------------------
// Round-trip equivalence self-check.
// ---------------------------------------------------------------------

/// Copies `doc`'s output and next-state cones into `h`, substituting
/// the shared input vector (primary inputs first, then latch state) for
/// the document's own input variables. Returns the mapped roots:
/// outputs, then latch next-state functions.
fn instantiate(doc: &AigerDoc, shared: &[Lit], h: &mut Aig) -> Result<Vec<Lit>, InterchangeError> {
    let mut subst: HashMap<u32, Lit> = HashMap::new();
    for (p, (v, _)) in doc.inputs.iter().enumerate() {
        subst.insert(*v, shared[p]);
    }
    for (p, la) in doc.latches.iter().enumerate() {
        subst.insert(la.var, shared[doc.inputs.len() + p]);
    }
    let roots: Vec<Lit> = doc
        .outputs
        .iter()
        .map(|(_, l)| *l)
        .chain(doc.latches.iter().map(|la| la.next))
        .collect();
    let mut map: HashMap<u32, Lit> = HashMap::new();
    map.insert(0, Lit::FALSE);
    let resolve = |map: &HashMap<u32, Lit>, l: Lit| -> Result<Lit, InterchangeError> {
        let base = *map.get(&l.var()).ok_or_else(|| {
            InterchangeError::Malformed(format!("dangling reference to variable {}", l.var()))
        })?;
        Ok(if l.is_compl() { !base } else { base })
    };
    for v in doc.aig.cone(&roots) {
        if v == 0 || map.contains_key(&v) {
            continue;
        }
        if doc.aig.is_and(v) {
            let [f0, f1] = doc.aig.node(v);
            let a = resolve(&map, f0)?;
            let b = resolve(&map, f1)?;
            map.insert(v, h.and(a, b));
        } else {
            let s = *subst.get(&v).ok_or_else(|| {
                InterchangeError::Malformed(format!(
                    "AIG input {v} is neither a declared input nor a latch"
                ))
            })?;
            map.insert(v, s);
        }
    }
    roots.iter().map(|&r| resolve(&map, r)).collect()
}

/// Proves two documents implement the same sequential circuit:
/// identical interface shape, identical latch resets, and — over one
/// shared input/state vector — identical outputs *and* identical
/// next-state functions (so equivalence holds for every cycle, not just
/// the first). Returns the proof method: `"strash"` when structural
/// hashing folds the miter to constant false, `"sat"` otherwise.
///
/// # Errors
///
/// [`InterchangeError::NotEquivalent`] with a witness description when
/// the circuits differ; [`InterchangeError::Malformed`] on interface
/// mismatches.
pub fn prove_equal(a: &AigerDoc, b: &AigerDoc) -> Result<&'static str, InterchangeError> {
    if a.inputs.len() != b.inputs.len()
        || a.latches.len() != b.latches.len()
        || a.outputs.len() != b.outputs.len()
    {
        return Err(InterchangeError::Malformed(format!(
            "interface mismatch: {}i/{}l/{}o vs {}i/{}l/{}o",
            a.inputs.len(),
            a.latches.len(),
            a.outputs.len(),
            b.inputs.len(),
            b.latches.len(),
            b.outputs.len(),
        )));
    }
    for (p, (la, lb)) in a.latches.iter().zip(&b.latches).enumerate() {
        if la.init != lb.init {
            return Err(InterchangeError::NotEquivalent(format!(
                "latch {p} reset differs: {} vs {}",
                la.init, lb.init
            )));
        }
    }
    let mut h = Aig::new();
    let shared: Vec<Lit> = (0..a.inputs.len() + a.latches.len())
        .map(|_| h.input())
        .collect();
    let ra = instantiate(a, &shared, &mut h)?;
    let rb = instantiate(b, &shared, &mut h)?;
    let mut miter = Lit::FALSE;
    for (x, y) in ra.iter().zip(&rb) {
        let d = h.xor(*x, *y);
        miter = h.or(miter, d);
    }
    if miter == Lit::FALSE {
        return Ok("strash");
    }
    let mut solver = Solver::new();
    let cnf = Cnf::encode(&h, &[miter], &mut solver);
    if !cnf.assert_true(miter, &mut solver) {
        return Ok("sat");
    }
    match solver.solve(Some(ROUNDTRIP_SAT_BUDGET)) {
        Outcome::Unsat => Ok("sat"),
        Outcome::Sat(model) => {
            let vals = cnf.decode(&h, &model);
            Err(InterchangeError::NotEquivalent(format!(
                "miter satisfiable (assignment over {} shared bits: {:?}...)",
                shared.len(),
                &vals.iter().take(16).collect::<Vec<_>>()
            )))
        }
        Outcome::Unknown => Err(InterchangeError::Unknown(format!(
            "SAT budget of {ROUNDTRIP_SAT_BUDGET} conflicts exhausted"
        ))),
    }
}

/// Writes `doc` as binary AIGER, reads it back, and proves the re-read
/// circuit equivalent. Returns the serialized bytes and the proof
/// method.
///
/// # Errors
///
/// Any write, parse, or equivalence failure — a failed round trip
/// means the interchange layer is broken and must not be shipped
/// silently.
pub fn roundtrip_aiger(doc: &AigerDoc) -> Result<(Vec<u8>, &'static str), InterchangeError> {
    let bytes = write_aiger(doc)?;
    let back = read_aiger(&bytes)?;
    let method = prove_equal(doc, &back)?;
    Ok((bytes, method))
}

// ---------------------------------------------------------------------
// BLIF writer.
// ---------------------------------------------------------------------

/// Replaces characters BLIF treats as separators.
fn blif_ident(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_whitespace() || c == '\\' || c == '#' || c == '=' {
                '_'
            } else {
                c
            }
        })
        .collect()
}

/// Serializes a document as BLIF: `.inputs`/`.outputs`, one `.latch`
/// per state bit (with its reset value), 2-input AND covers for every
/// gate in the output/next-state cones, and on-demand inverters for
/// complemented edges.
pub fn write_blif(doc: &AigerDoc) -> String {
    let g = &doc.aig;
    let mut names: HashMap<u32, String> = HashMap::new();
    for (v, n) in &doc.inputs {
        names.insert(*v, blif_ident(n));
    }
    for la in &doc.latches {
        names.insert(la.var, blif_ident(&la.name));
    }

    let mut body = String::new();
    let mut inverted: HashSet<u32> = HashSet::new();
    let mut need_const0 = false;
    let mut need_const1 = false;

    // Resolves a literal to a BLIF net, creating inverter/constant
    // covers on demand (BLIF does not require definition before use).
    let mut net = |l: Lit, body: &mut String| -> String {
        if l == Lit::FALSE {
            need_const0 = true;
            return "const0".to_string();
        }
        if l == Lit::TRUE {
            need_const1 = true;
            return "const1".to_string();
        }
        let base = names
            .get(&l.var())
            .cloned()
            .unwrap_or_else(|| format!("n{}", l.var()));
        if !l.is_compl() {
            return base;
        }
        let inv = format!("{base}_inv");
        if inverted.insert(l.var()) {
            body.push_str(&format!(".names {base} {inv}\n0 1\n"));
        }
        inv
    };

    let roots: Vec<Lit> = doc
        .outputs
        .iter()
        .map(|(_, l)| *l)
        .chain(doc.latches.iter().map(|la| la.next))
        .collect();
    let mut gates = String::new();
    for v in g.cone(&roots) {
        if g.is_and(v) {
            let [f0, f1] = g.node(v);
            let a = net(f0, &mut gates);
            let b = net(f1, &mut gates);
            gates.push_str(&format!(".names {a} {b} n{v}\n11 1\n"));
        }
    }
    let mut latch_sec = String::new();
    for la in &doc.latches {
        let d = net(la.next, &mut gates);
        latch_sec.push_str(&format!(
            ".latch {d} {} {}\n",
            blif_ident(&la.name),
            u8::from(la.init)
        ));
    }
    let mut out_sec = String::new();
    for (name, l) in &doc.outputs {
        let src = net(*l, &mut gates);
        out_sec.push_str(&format!(".names {src} {}\n1 1\n", blif_ident(name)));
    }

    body.push_str(&format!(".model {}\n", blif_ident(&doc.name)));
    body.push_str(".inputs");
    for (_, n) in &doc.inputs {
        body.push_str(&format!(" {}", blif_ident(n)));
    }
    body.push('\n');
    body.push_str(".outputs");
    for (n, _) in &doc.outputs {
        body.push_str(&format!(" {}", blif_ident(n)));
    }
    body.push('\n');
    if need_const0 {
        body.push_str(".names const0\n");
    }
    if need_const1 {
        body.push_str(".names const1\n1\n");
    }
    body.push_str(&latch_sec);
    body.push_str(&gates);
    body.push_str(&out_sec);
    body.push_str(".end\n");
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use chls_frontend::IntType;
    use chls_ir::BinKind;
    use chls_rtl::{CellKind, Ram};

    fn u(w: u16) -> IntType {
        IntType::new(w, false)
    }

    /// `sum = a + b`, 4-bit: purely combinational.
    fn adder() -> Netlist {
        let mut nl = Netlist::new("adder");
        let a = nl.add(
            CellKind::Input {
                name: "a".to_string(),
            },
            u(4),
        );
        let b = nl.add(
            CellKind::Input {
                name: "b".to_string(),
            },
            u(4),
        );
        let s = nl.add(CellKind::Bin(BinKind::Add, a, b), u(4));
        nl.set_output("sum", s);
        nl
    }

    /// A 4-bit accumulator register with a nonzero reset.
    fn accumulator() -> Netlist {
        let mut nl = Netlist::new("acc");
        let x = nl.add(
            CellKind::Input {
                name: "x".to_string(),
            },
            u(4),
        );
        let reg = nl.add(
            CellKind::Reg {
                next: chls_rtl::CellId(2),
                init: 5,
                en: None,
            },
            u(4),
        );
        let _sum = nl.add(CellKind::Bin(BinKind::Add, reg, x), u(4));
        nl.set_output("acc", reg);
        nl
    }

    /// A 4-word RAM read through a variable address.
    fn rom_reader() -> Netlist {
        let mut nl = Netlist::new("rom");
        let ram = nl.add_ram(Ram {
            name: "tab".to_string(),
            elem: u(8),
            len: 4,
            init: Some(vec![3, 1, 4, 1]),
        });
        let addr = nl.add(
            CellKind::Input {
                name: "addr".to_string(),
            },
            u(2),
        );
        let val = nl.add(CellKind::RamRead { ram, addr }, u(8));
        nl.set_output("val", val);
        nl
    }

    #[test]
    fn comb_netlist_roundtrips_structurally() {
        let doc = from_netlist(&adder()).unwrap();
        assert_eq!(doc.inputs.len(), 8, "two 4-bit inputs");
        assert!(doc.latches.is_empty());
        assert_eq!(doc.outputs.len(), 4);
        let (bytes, method) = roundtrip_aiger(&doc).unwrap();
        assert!(bytes.starts_with(b"aig "));
        assert_eq!(method, "strash", "identical cones must fold structurally");
        let back = read_aiger(&bytes).unwrap();
        assert_eq!(back.name, "adder");
        assert_eq!(back.inputs[0].1, "a.0");
        assert_eq!(back.outputs[0].0, "sum.0");
    }

    #[test]
    fn register_becomes_latches_with_reset() {
        let doc = from_netlist(&accumulator()).unwrap();
        assert_eq!(doc.latches.len(), 4);
        // init 5 = 0b0101, LSB first.
        let inits: Vec<bool> = doc.latches.iter().map(|l| l.init).collect();
        assert_eq!(inits, vec![true, false, true, false]);
        let (bytes, _) = roundtrip_aiger(&doc).unwrap();
        let back = read_aiger(&bytes).unwrap();
        assert_eq!(
            back.latches.iter().map(|l| l.init).collect::<Vec<_>>(),
            inits,
            "1.9 reset values survive the round trip"
        );
    }

    #[test]
    fn ram_words_become_latches() {
        let doc = from_netlist(&rom_reader()).unwrap();
        assert_eq!(doc.latches.len(), 4 * 8, "4 words x 8 bits");
        assert!(
            doc.latches.iter().any(|l| l.init),
            "ROM contents seed resets"
        );
        roundtrip_aiger(&doc).unwrap();
    }

    #[test]
    fn blif_writer_emits_model_latches_and_covers() {
        let s = write_blif(&from_netlist(&accumulator()).unwrap());
        assert!(s.starts_with(".model acc\n"), "{s}");
        assert!(s.contains(".inputs x.0 x.1 x.2 x.3"), "{s}");
        assert!(s.matches(".latch ").count() == 4, "{s}");
        assert!(s.contains("11 1"), "AND covers present: {s}");
        assert!(s.trim_end().ends_with(".end"), "{s}");
        // Reset values ride on the latch lines.
        assert!(s.contains(" 1\n"), "{s}");
    }

    #[test]
    fn malformed_aiger_is_rejected_not_trusted() {
        assert!(matches!(
            read_aiger(b"not an aiger file\n"),
            Err(InterchangeError::Malformed(_))
        ));
        // Truncated AND section.
        let doc = from_netlist(&adder()).unwrap();
        let bytes = write_aiger(&doc).unwrap();
        let header_end = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        // Keep the header + output lines, drop everything after the
        // first AND byte.
        let mut cut = bytes.clone();
        cut.truncate(header_end + 4 * 2 + 1);
        assert!(read_aiger(&cut).is_err());
    }

    #[test]
    fn prove_equal_refutes_a_tampered_circuit() {
        let doc = from_netlist(&adder()).unwrap();
        let mut tampered = doc.clone();
        // Flip one output's polarity: a real semantic difference.
        tampered.outputs[0].1 = !tampered.outputs[0].1;
        assert!(matches!(
            prove_equal(&doc, &tampered),
            Err(InterchangeError::NotEquivalent(_))
        ));
    }
}

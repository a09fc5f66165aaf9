//! Certified design-space exploration: `chls explore`.
//!
//! One source program admits a whole lattice of implementations —
//! backend × loop pipelining × width narrowing × netlist optimization ×
//! unroll factor. This module enumerates that lattice, evaluates every
//! point (in parallel, on the [`crate::executor`] pool, memoized
//! through the [`crate::cache`]), reduces the results to the Pareto
//! frontier over **(NAND2 area, latency, initiation interval)**, and —
//! the part that distinguishes it from a spreadsheet — *certifies*
//! every frontier point against an unoptimized reference synthesis of
//! the same backend:
//!
//! * combinational designs get a full [`chls_logic::check_comb_equiv`]
//!   proof, sequential designs a bounded [`chls_logic::check_seq_equiv`]
//!   proof (`--seq-bound` cycles, default 16);
//! * a proof that comes back `Unknown` (bound unreachable, SAT budget)
//!   demotes the point to a clearly-labeled **sampled** tier backed by
//!   the 8 seeded differential vectors of the rewriter's certification
//!   harness — never silently reported as proved;
//! * a `Differ` verdict or a vector mismatch marks the point
//!   **refuted** and fails the verb: a config whose output changes is
//!   a compiler bug surfaced, not a design point.
//!
//! The cheap phase runs each distinct synthesis once. Points that
//! differ only in knobs their backend does not read (the backend's
//! [`chls_backends::BackendInfo`] declares `reads_pipeline` and
//! `reads_narrow`) share one base synthesis, with `opt_netlist` off;
//! the `opt` points take the base's optimized twin, derived by
//! `optimize_design`, the driver's own post-pass. The 224
//! points of `--all` fold to 64 syntheses. Designs stay in memory
//! through the full phase, certification and emission; they are
//! fetched from the design cache only where the cheap phase was
//! answered from the cache.
//!
//! With `--budget N` the sweep runs successive halving: every lattice
//! point is scored by the cheap synthesis-only phase (NAND2 area ×
//! scheduled cycles, no simulation), the pool is halved on that
//! estimate until at most `N` candidates remain, and only the
//! survivors are simulated for real latency. The designs of the other
//! points are dropped then.
//!
//! `--emit-dir DIR` dumps every frontier netlist as binary AIGER and
//! BLIF through [`chls_logic::interchange`], and re-proves each AIGER
//! file equivalent after reading it back — emitted artifacts are
//! checked, not hoped.

use crate::cache::Artifact;
use crate::executor::{catch_panic, Executor};
use crate::jsonin::Value;
use crate::obj;
use crate::prelude::*;
use crate::service::ServiceCtx;
use crate::Table;
use chls_backends::SynthError;
use chls_rtl::CostModel;
use std::fmt::Write as _;
use std::sync::Arc;

/// Unroll factors swept per backend (with the three binary knobs this
/// makes 32 configurations per backend).
pub const UNROLLS: [Option<u32>; 4] = [None, Some(2), Some(4), Some(8)];

/// Knobs of the `explore` verb itself (the lattice dimensions live in
/// [`Config`]).
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Restrict the sweep to one backend; `None` sweeps all seven.
    pub backend: Option<String>,
    /// Successive-halving budget: at most this many points are fully
    /// evaluated. `None` evaluates the whole feasible lattice.
    pub budget: Option<usize>,
    /// Cycle bound for sequential equivalence certification.
    pub seq_bound: usize,
    /// Worker threads for parallel evaluation.
    pub jobs: usize,
    /// Dump frontier netlists (AIGER + BLIF) into this directory.
    pub emit_dir: Option<String>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            backend: None,
            budget: None,
            seq_bound: 16,
            jobs: 1,
            emit_dir: None,
        }
    }
}

/// One point of the configuration lattice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    pub backend: &'static str,
    pub pipeline: bool,
    pub narrow: bool,
    pub opt_netlist: bool,
    pub unroll: Option<u32>,
}

impl Config {
    /// The compile options this point synthesizes under.
    pub fn compile_options(&self) -> CompileOptions {
        CompileOptions::new()
            .backend(Some(self.backend))
            .pipeline(self.pipeline)
            .narrow(self.narrow)
            .opt_netlist(self.opt_netlist)
            .unroll(self.unroll)
    }

    /// The lattice point whose synthesis this point shares: the same
    /// backend and unroll factor, only the knobs the backend reads (its
    /// [`chls_backends::BackendInfo`] says which), and `opt_netlist`
    /// off, since the optimized design is derived from the base by
    /// [`crate::driver::optimize_design`].
    fn base(&self) -> Config {
        let info = crate::registry::backend_by_name(self.backend)
            .expect("lattice backends come from the registry")
            .info();
        Config {
            backend: self.backend,
            pipeline: self.pipeline && info.reads_pipeline,
            narrow: self.narrow && info.reads_narrow,
            opt_netlist: false,
            unroll: self.unroll,
        }
    }

    /// Is this the backend's all-defaults point, the reference every
    /// frontier point of the backend is certified against?
    fn is_reference(&self) -> bool {
        !self.pipeline && !self.narrow && !self.opt_netlist && self.unroll.is_none()
    }

    /// Filesystem-safe identifier, used for `--emit-dir` filenames.
    pub fn slug(&self) -> String {
        format!(
            "{}-p{}n{}o{}u{}",
            self.backend,
            u8::from(self.pipeline),
            u8::from(self.narrow),
            u8::from(self.opt_netlist),
            self.unroll.unwrap_or(0),
        )
    }

    /// Human rendering of the non-default knobs (`-` when all default).
    pub fn knobs(&self) -> String {
        let mut parts = Vec::new();
        if self.pipeline {
            parts.push("pipeline".to_string());
        }
        if self.narrow {
            parts.push("narrow".to_string());
        }
        if self.opt_netlist {
            parts.push("opt".to_string());
        }
        if let Some(u) = self.unroll {
            parts.push(format!("unroll={u}"));
        }
        if parts.is_empty() {
            "-".to_string()
        } else {
            parts.join(",")
        }
    }
}

/// Synthesis outcome classification, mirroring `report`'s taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalStatus {
    Ok,
    /// The backend's language model rejects this program.
    Unsupported(String),
    /// Synthesis or evaluation failed outright.
    Error(String),
}

/// Measured metrics of one lattice point. Cached (keyed by source
/// digest + config) so warm sweeps and daemon re-runs are cheap and —
/// critically — byte-identical to cold ones: the initiation interval
/// comes from a per-evaluation trace collector at synthesis time and
/// is stored here rather than re-derived.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRecord {
    pub status: EvalStatus,
    /// `comb` / `fsmd` / `dataflow`.
    pub style: Option<&'static str>,
    /// NAND2-equivalent area under the default cost model.
    pub area: Option<f64>,
    /// Scheduler-emitted cycles (cheap latency estimate).
    pub sched_cycles: Option<u64>,
    /// Initiation interval achieved by modulo scheduling, if it ran.
    pub ii: Option<u64>,
    /// Measured latency: simulated clock cycles for clocked designs,
    /// async time units for dataflow, 0 for combinational.
    pub latency: Option<u64>,
    /// Why simulation was skipped or failed.
    pub sim_note: Option<String>,
    /// Whether the full (simulated) phase ran for this record.
    pub simulated: bool,
}

impl EvalRecord {
    fn error(msg: String) -> Self {
        EvalRecord {
            status: EvalStatus::Error(msg),
            style: None,
            area: None,
            sched_cycles: None,
            ii: None,
            latency: None,
            sim_note: None,
            simulated: false,
        }
    }

    /// Rough resident size for the cache's LRU budget.
    pub fn approx_bytes(&self) -> usize {
        let strs = match &self.status {
            EvalStatus::Ok => 0,
            EvalStatus::Unsupported(s) | EvalStatus::Error(s) => s.len(),
        };
        std::mem::size_of::<Self>() + strs + self.sim_note.as_ref().map_or(0, String::len)
    }
}

/// How a frontier point's functional correctness was established.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tier {
    /// Proved equivalent to the unoptimized reference (comb: all
    /// inputs; seq: all inputs completing within the bound).
    Certified,
    /// Proof inconclusive; the point passed the seeded differential
    /// vectors instead. Explicitly weaker, explicitly labeled.
    Sampled,
    /// Proof or vectors found a real output difference — a bug.
    Refuted,
    /// Neither proof nor vectors were possible (e.g. unseedable
    /// parameters).
    Unchecked,
}

impl Tier {
    pub fn name(&self) -> &'static str {
        match self {
            Tier::Certified => "certified",
            Tier::Sampled => "sampled",
            Tier::Refuted => "refuted",
            Tier::Unchecked => "unchecked",
        }
    }
}

/// Certification outcome of one frontier point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certification {
    pub tier: Tier,
    /// Proof method (`strash`/`exhaustive`/`sat`) when certified.
    pub method: Option<String>,
    /// Sequential bound used, when a sequential proof ran.
    pub bound: Option<usize>,
    /// Differential vectors that passed, when sampled.
    pub vectors: Option<usize>,
    /// Why the point was demoted or refuted.
    pub detail: Option<String>,
}

/// Where a frontier netlist was dumped, when `--emit-dir` is on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Emit {
    /// Both formats written; the AIGER file was read back and re-proved
    /// equivalent by the named method.
    Written {
        aiger: String,
        blif: String,
        roundtrip: String,
    },
    /// This design kind or point could not be dumped.
    Skipped(String),
}

/// One Pareto-optimal point, fully attributed.
#[derive(Debug, Clone)]
pub struct Point {
    pub config: Config,
    pub eval: EvalRecord,
    pub cert: Certification,
    pub emit: Option<Emit>,
}

/// The whole sweep's result.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    pub entry: String,
    /// Backends swept, registry order.
    pub backends: Vec<&'static str>,
    /// Total lattice points enumerated.
    pub lattice: usize,
    /// Points whose synthesis succeeded.
    pub feasible: usize,
    /// Points fully evaluated (simulated) after budgeting.
    pub evaluated: usize,
    pub budget: Option<usize>,
    pub seq_bound: usize,
    pub frontier: Vec<Point>,
    /// Set when the requested entry was absent and the program's sole
    /// function was used instead.
    pub entry_note: Option<String>,
}

/// Resolves the entry function, falling back to the program's sole
/// function when the requested name does not exist — `explore` sweeps
/// whole files often enough that guessing the only candidate beats
/// erroring.
///
/// # Errors
///
/// When the entry is absent and the program has several functions.
pub fn resolve_entry(compiler: &Compiler, entry: &str) -> Result<(String, Option<String>), String> {
    if compiler.hir().func_by_name(entry).is_some() {
        return Ok((entry.to_string(), None));
    }
    let funcs = &compiler.hir().funcs;
    if let [only] = funcs.as_slice() {
        let name = only.name.clone();
        let note =
            format!("note: no function named `{entry}`; exploring the sole function `{name}`");
        return Ok((name, Some(note)));
    }
    Err(format!(
        "no function named `{entry}` (program defines {})",
        funcs.len()
    ))
}

/// Enumerates the configuration lattice for the selected backends, in
/// deterministic (registry, unroll, pipeline, narrow, opt) order.
fn lattice(backends: &[&'static str]) -> Vec<Config> {
    let mut out = Vec::new();
    for &backend in backends {
        for unroll in UNROLLS {
            for pipeline in [false, true] {
                for narrow in [false, true] {
                    for opt_netlist in [false, true] {
                        out.push(Config {
                            backend,
                            pipeline,
                            narrow,
                            opt_netlist,
                            unroll,
                        });
                    }
                }
            }
        }
    }
    out
}

/// Groups lattice points by the synthesis they share
/// ([`Config::base`]): bases in first-appearance order, each with its
/// member points in lattice order.
fn fold_bases(points: &[Config]) -> Vec<(Config, Vec<usize>)> {
    let mut out: Vec<(Config, Vec<usize>)> = Vec::new();
    for (i, cfg) in points.iter().enumerate() {
        let base = cfg.base();
        match out.iter_mut().find(|(b, _)| *b == base) {
            Some((_, members)) => members.push(i),
            None => out.push((base, vec![i])),
        }
    }
    out
}

/// Cache key for one lattice point's [`EvalRecord`]; `phase` is
/// `"synth"` (cheap) or `"full"` (with simulation).
fn eval_key(digest: u64, entry: &str, cfg: &Config, phase: &str) -> String {
    format!(
        "exp|{digest:016x}|{entry}|{}|{phase}",
        cfg.compile_options().cache_key()
    )
}

fn cached_eval(ctx: &ServiceCtx, key: &str) -> Option<Arc<EvalRecord>> {
    match ctx.cache.as_ref()?.get(key) {
        Some(Artifact::Eval(r)) => Some(r),
        _ => None,
    }
}

fn store_eval(ctx: &ServiceCtx, key: &str, rec: &EvalRecord) {
    if let Some(cache) = &ctx.cache {
        cache.put(key, Artifact::Eval(Arc::new(rec.clone())));
    }
}

/// A design held in memory between phases: the synthesized design, or
/// the rendered synthesis error. Where a point holds nothing (phase 1
/// was answered from the cache, the synthesis panicked, or the point
/// was dropped by halving), later phases fall back to
/// [`crate::service::design_for`].
type Held = Result<Arc<Design>, String>;

/// One lattice point's phase-1 outcome: its cheap record and the design
/// it holds.
type Evaluated = (EvalRecord, Option<Held>);

/// The cheap record of a synthesized design; `sched` carries the
/// scheduler's `sched.cycles` and `sched.ii` from the synthesis.
fn synth_record(design: &Design, sched: (Option<u64>, Option<u64>)) -> EvalRecord {
    let style = match design {
        Design::Comb(_) => "comb",
        Design::Fsmd(_) => "fsmd",
        Design::Dataflow(_) => "dataflow",
    };
    EvalRecord {
        status: EvalStatus::Ok,
        style: Some(style),
        area: Some(design.area(&CostModel::new())),
        sched_cycles: sched.0,
        ii: sched.1,
        latency: None,
        sim_note: None,
        simulated: false,
    }
}

/// The cheap phase for one base point (see [`Config::base`]):
/// synthesize it once, under a private trace collector so the
/// scheduler's cycle count and initiation interval land in the record,
/// and derive its optimized twin through
/// [`crate::driver::optimize_design`]. Returns the outcomes of the
/// `opt_netlist` off and on points. The twin runs under
/// [`catch_panic`], so an optimizer panic fails only the `opt` points,
/// with the executor's message.
fn synth_base(compiler: &Compiler, entry: &str, base: &Config) -> (Evaluated, Evaluated) {
    let col = chls_trace::Collector::new();
    col.set_enabled(true);
    let result = chls_trace::with_collector(&col, || {
        compiler.synthesize(
            crate::registry::backend_by_name(base.backend)
                .expect("lattice backends come from the registry")
                .as_ref(),
            entry,
            &base.compile_options().synth_options(),
        )
    });
    match result {
        Err(e) => {
            let rec = match e {
                SynthError::Unsupported { .. } | SynthError::Loop(_) | SynthError::Transform(_) => {
                    EvalRecord {
                        status: EvalStatus::Unsupported(e.to_string()),
                        ..EvalRecord::error(String::new())
                    }
                }
                _ => EvalRecord::error(e.to_string()),
            };
            let failed = (rec, Some(Err(e.to_string())));
            (failed.clone(), failed)
        }
        Ok(design) => {
            let snap = col.snapshot();
            let sched = (
                snap.counter("sched.cycles").filter(|&c| c > 0),
                snap.gauge("sched.ii"),
            );
            let optimized = catch_panic(|| crate::driver::optimize_design(&design));
            let twin = match optimized {
                Ok(t) => (synth_record(&t, sched), Some(Ok(Arc::new(t)))),
                Err(msg) => (EvalRecord::error(msg), None),
            };
            let plain = (synth_record(&design, sched), Some(Ok(Arc::new(design))));
            (plain, twin)
        }
    }
}

/// A point's design: the one held in memory, else the shared design
/// cache (synthesizing on a miss).
fn design_of(
    held: Option<Held>,
    compiler: &Compiler,
    entry: &str,
    cfg: &Config,
    ctx: &ServiceCtx,
    digest: u64,
) -> Held {
    held.unwrap_or_else(|| {
        crate::service::design_for(
            ctx,
            compiler,
            digest,
            cfg.backend,
            entry,
            &cfg.compile_options(),
        )
    })
}

/// The full phase: add measured latency by simulating the design on
/// the default argument vector.
#[allow(clippy::too_many_arguments)]
fn full_eval(
    compiler: &Compiler,
    entry: &str,
    cfg: &Config,
    cheap: &EvalRecord,
    held: Option<Held>,
    args: Option<&[ArgValue]>,
    ctx: &ServiceCtx,
    digest: u64,
) -> EvalRecord {
    let key = eval_key(digest, entry, cfg, "full");
    if let Some(r) = cached_eval(ctx, &key) {
        return (*r).clone();
    }
    let mut rec = cheap.clone();
    rec.simulated = true;
    match design_of(held, compiler, entry, cfg, ctx, digest) {
        Err(e) => rec.sim_note = Some(e),
        Ok(design) => match args {
            None => {
                rec.sim_note = Some("no argument vector (pointer/channel parameter)".to_string());
            }
            Some(a) => match crate::simulate_design(&design, a) {
                Ok(out) => {
                    rec.latency = Some(match design.as_ref() {
                        Design::Comb(_) => 0,
                        Design::Fsmd(_) => out.cycles.unwrap_or(0),
                        Design::Dataflow(_) => out.time_units.unwrap_or(0),
                    });
                }
                Err(e) => rec.sim_note = Some(e.to_string()),
            },
        },
    }
    store_eval(ctx, &key, &rec);
    rec
}

/// The Pareto objective of one evaluated point; missing latency or II
/// is pessimal, so incomparable points never shadow measured ones.
fn objective(r: &EvalRecord) -> (f64, u64, u64) {
    (
        r.area.unwrap_or(f64::INFINITY),
        r.latency.unwrap_or(u64::MAX),
        r.ii.unwrap_or(u64::MAX),
    )
}

fn dominates(a: (f64, u64, u64), b: (f64, u64, u64)) -> bool {
    a.0 <= b.0 && a.1 <= b.1 && a.2 <= b.2 && (a.0 < b.0 || a.1 < b.1 || a.2 < b.2)
}

/// Certifies one frontier point (design `candidate`) against the
/// unoptimized same-backend reference: the backend's all-defaults
/// lattice point, whose design is `reference` when held.
#[allow(clippy::too_many_arguments)]
fn certify(
    compiler: &Compiler,
    entry: &str,
    cfg: &Config,
    candidate: Option<Held>,
    reference: Option<Held>,
    seq_bound: usize,
    ctx: &ServiceCtx,
    digest: u64,
) -> Certification {
    let unchecked = |detail: String| Certification {
        tier: Tier::Unchecked,
        method: None,
        bound: None,
        vectors: None,
        detail: Some(detail),
    };
    // The reference is cached under the default options, where `equiv`
    // and other verbs look for it.
    let defaults = CompileOptions::new();
    if let (Some(Ok(d)), Some(cache)) = (&reference, &ctx.cache) {
        cache.put(
            &crate::service::design_key(digest, entry, cfg.backend, &defaults),
            Artifact::Design(d.clone()),
        );
    }
    let reference = reference.unwrap_or_else(|| {
        crate::service::design_for(ctx, compiler, digest, cfg.backend, entry, &defaults)
    });
    let reference = match reference {
        Ok(d) => d,
        Err(e) => return unchecked(format!("reference synthesis failed: {e}")),
    };
    let candidate = match design_of(candidate, compiler, entry, cfg, ctx, digest) {
        Ok(d) => d,
        Err(e) => return unchecked(format!("candidate synthesis failed: {e}")),
    };
    let opts = chls_logic::EquivOptions::default();
    let proof = match (reference.as_ref(), candidate.as_ref()) {
        (Design::Comb(a), Design::Comb(b)) => {
            Some((chls_logic::check_comb_equiv(a, b, &opts), None))
        }
        (Design::Fsmd(a), Design::Fsmd(b)) => Some((
            chls_logic::check_seq_equiv(a, b, seq_bound, &opts),
            Some(seq_bound),
        )),
        // Dataflow circuits (and any style disagreement) have no
        // equivalence checker yet: straight to the sampled tier.
        _ => None,
    };
    let demoted_why = match proof {
        Some((Ok(report), bound)) => match report.verdict {
            chls_logic::Verdict::Equivalent => {
                return Certification {
                    tier: Tier::Certified,
                    method: Some(report.method.name().to_string()),
                    bound,
                    vectors: None,
                    detail: None,
                }
            }
            chls_logic::Verdict::Differ(cex) => {
                return Certification {
                    tier: Tier::Refuted,
                    method: Some(report.method.name().to_string()),
                    bound,
                    vectors: None,
                    detail: Some(format!("proof found a counterexample at `{}`", cex.output)),
                }
            }
            chls_logic::Verdict::Unknown(why) => why,
        },
        Some((Err(e), _)) => e.to_string(),
        None => "no equivalence checker for this design style".to_string(),
    };
    // Demoted: fall back to the seeded differential vectors.
    let Some(vectors) = crate::rewriter::seed_vectors(compiler.hir(), entry) else {
        return unchecked(format!("{demoted_why}; parameters not value-testable"));
    };
    let n = vectors.len();
    for (i, args) in vectors.into_iter().enumerate() {
        let run = |d: &Design| crate::simulate_design(d, &args);
        match (run(&reference), run(&candidate)) {
            (Ok(a), Ok(b)) => {
                if a.ret != b.ret || a.arrays != b.arrays {
                    return Certification {
                        tier: Tier::Refuted,
                        method: None,
                        bound: None,
                        vectors: Some(i + 1),
                        detail: Some(format!("{demoted_why}; vector {i} output differs")),
                    };
                }
            }
            (Err(e), _) | (_, Err(e)) => {
                return unchecked(format!("{demoted_why}; vector {i} simulation failed: {e}"))
            }
        }
    }
    Certification {
        tier: Tier::Sampled,
        method: None,
        bound: None,
        vectors: Some(n),
        detail: Some(demoted_why),
    }
}

/// Dumps one frontier point as AIGER + BLIF, round-trip-proving the
/// AIGER file.
fn emit_point(
    compiler: &Compiler,
    entry: &str,
    cfg: &Config,
    held: Option<Held>,
    dir: &str,
    ctx: &ServiceCtx,
    digest: u64,
) -> Emit {
    use chls_logic::interchange;
    let design = match design_of(held, compiler, entry, cfg, ctx, digest) {
        Ok(d) => d,
        Err(e) => return Emit::Skipped(format!("synthesis failed: {e}")),
    };
    let lowered;
    let netlist = match design.as_ref() {
        Design::Comb(nl) => nl,
        Design::Fsmd(f) => {
            lowered = chls_rtl::fsmd_to_netlist(f);
            &lowered
        }
        Design::Dataflow(_) => {
            return Emit::Skipped("dataflow circuits have no netlist form to dump".to_string())
        }
    };
    let doc = match interchange::from_netlist(netlist) {
        Ok(d) => d,
        Err(e) => return Emit::Skipped(e.to_string()),
    };
    let (bytes, method) = match interchange::roundtrip_aiger(&doc) {
        Ok(r) => r,
        Err(e) => return Emit::Skipped(e.to_string()),
    };
    let stem = format!("{entry}-{}", cfg.slug());
    let aiger = format!("{dir}/{stem}.aig");
    let blif = format!("{dir}/{stem}.blif");
    if let Err(e) = std::fs::create_dir_all(dir) {
        return Emit::Skipped(format!("cannot create {dir}: {e}"));
    }
    if let Err(e) = std::fs::write(&aiger, &bytes) {
        return Emit::Skipped(format!("cannot write {aiger}: {e}"));
    }
    if let Err(e) = std::fs::write(&blif, interchange::write_blif(&doc)) {
        return Emit::Skipped(format!("cannot write {blif}: {e}"));
    }
    Emit::Written {
        aiger,
        blif,
        roundtrip: method.to_string(),
    }
}

/// Runs the whole exploration. See the module docs for the phases.
///
/// # Errors
///
/// Hard failures only: unknown backend, unresolvable entry. Per-point
/// synthesis failures are excluded from the frontier, not fatal.
pub fn explore(
    compiler: &Arc<Compiler>,
    entry: &str,
    opts: &ExploreOptions,
    ctx: &ServiceCtx,
    digest: u64,
) -> Result<ExploreReport, String> {
    let (entry, entry_note) = resolve_entry(compiler, entry)?;
    let backends: Vec<&'static str> = match &opts.backend {
        Some(name) => match crate::registry::backend_by_name(name) {
            Some(b) => vec![b.info().name],
            None => return Err(format!("unknown backend `{name}` (try `chls backends`)")),
        },
        None => crate::registry::backends()
            .iter()
            .map(|b| b.info().name)
            .collect(),
    };
    let points = lattice(&backends);
    let exec = Executor::new(opts.jobs.max(1));

    // Phase 1: cheap synthesis-only evaluation of every lattice point,
    // one synthesis per distinct base (see `Config::base`). A base
    // whose points are all cached is not synthesized.
    let bases = fold_bases(&points);
    let outcomes: Vec<_> = bases
        .iter()
        .map(|(base, members)| {
            let cached: Option<Vec<EvalRecord>> = members
                .iter()
                .map(|&i| cached_eval(ctx, &eval_key(digest, &entry, &points[i], "synth")))
                .map(|r| r.map(|r| (*r).clone()))
                .collect();
            // `Err`: every point of the base was answered from the cache.
            match cached {
                Some(records) => Err(records),
                None => {
                    let (compiler, entry, base) = (compiler.clone(), entry.clone(), base.clone());
                    Ok(exec.submit(move || synth_base(&compiler, &entry, &base)))
                }
            }
        })
        .collect();
    let mut cheap: Vec<Option<EvalRecord>> = vec![None; points.len()];
    let mut held: Vec<Option<Held>> = vec![None; points.len()];
    for ((_, members), outcome) in bases.iter().zip(outcomes) {
        let (plain, twin) = match outcome {
            Err(records) => {
                for (&i, rec) in members.iter().zip(records) {
                    cheap[i] = Some(rec);
                }
                continue;
            }
            // A panicked base fails every point sharing it.
            Ok(t) => t.wait().unwrap_or_else(|msg| {
                let failed = (EvalRecord::error(msg), None);
                (failed.clone(), failed)
            }),
        };
        for &i in members {
            let cfg = &points[i];
            let (rec, design) = if cfg.opt_netlist {
                twin.clone()
            } else {
                plain.clone()
            };
            // Cache what was synthesized. A panic holds nothing and is
            // never cached, so a warm sweep retries it.
            if let (Some(cache), Some(design)) = (&ctx.cache, &design) {
                store_eval(ctx, &eval_key(digest, &entry, cfg, "synth"), &rec);
                if let Ok(d) = design {
                    let key = crate::service::design_key(
                        digest,
                        &entry,
                        cfg.backend,
                        &cfg.compile_options(),
                    );
                    cache.put(&key, Artifact::Design(d.clone()));
                }
            }
            cheap[i] = Some(rec);
            held[i] = design;
        }
    }
    let cheap: Vec<EvalRecord> = cheap
        .into_iter()
        .map(|r| r.expect("every lattice point belongs to one base"))
        .collect();

    let mut alive: Vec<usize> = (0..points.len())
        .filter(|&i| cheap[i].status == EvalStatus::Ok)
        .collect();
    let feasible = alive.len();

    // Phase 2: successive halving on the cheap estimate (area ×
    // scheduled cycles) until the pool fits the budget.
    if let Some(budget) = opts.budget {
        let budget = budget.max(1);
        let estimate = |i: usize| {
            cheap[i].area.unwrap_or(f64::INFINITY)
                * cheap[i].sched_cycles.unwrap_or(1).max(1) as f64
        };
        while alive.len() > budget {
            alive.sort_by(|&a, &b| {
                estimate(a)
                    .partial_cmp(&estimate(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            // Halve, but never below the budget; `len > budget >= 1`
            // guarantees progress.
            alive.truncate(alive.len().div_ceil(2).max(budget));
        }
        alive.sort_unstable();
    }
    // Later phases need only the survivors and each backend's reference
    // (its all-defaults point); drop every other design.
    for (i, h) in held.iter_mut().enumerate() {
        if !points[i].is_reference() && alive.binary_search(&i).is_err() {
            *h = None;
        }
    }

    // Phase 3: full evaluation (simulation) of the survivors.
    let owned_args = crate::default_args(compiler, &entry);
    let args = Arc::new(owned_args);
    let tickets: Vec<_> = alive
        .iter()
        .map(|&i| {
            let (compiler, entry, cfg, ctx, args, rec, design) = (
                compiler.clone(),
                entry.clone(),
                points[i].clone(),
                ctx.clone(),
                args.clone(),
                cheap[i].clone(),
                held[i].clone(),
            );
            exec.submit(move || {
                full_eval(
                    &compiler,
                    &entry,
                    &cfg,
                    &rec,
                    design,
                    args.as_deref(),
                    &ctx,
                    digest,
                )
            })
        })
        .collect();
    let full: Vec<EvalRecord> = tickets
        .into_iter()
        .map(|t| t.wait().unwrap_or_else(EvalRecord::error))
        .collect();
    let evaluated = full.len();

    // Phase 4: Pareto reduction. Points with identical (backend,
    // objective) collapse to the plainest config (lowest lattice
    // index), so a knob that changes nothing never pads the frontier.
    let evaluated_points: Vec<(usize, (f64, u64, u64))> = alive
        .iter()
        .zip(&full)
        .filter(|(_, r)| r.status == EvalStatus::Ok)
        .map(|(&i, r)| (i, objective(r)))
        .collect();
    let mut frontier_idx: Vec<(usize, usize)> = Vec::new(); // (lattice idx, full idx)
    for (k, &(i, obj)) in evaluated_points.iter().enumerate() {
        let dominated = evaluated_points
            .iter()
            .any(|&(_, other)| dominates(other, obj));
        let duplicate = evaluated_points[..k].iter().any(|&(j, other)| {
            points[j].backend == points[i].backend
                && other.0.to_bits() == obj.0.to_bits()
                && other.1 == obj.1
                && other.2 == obj.2
        });
        if !dominated && !duplicate {
            let full_idx = alive.iter().position(|&a| a == i).expect("alive index");
            frontier_idx.push((i, full_idx));
        }
    }

    // Phase 5: certification (and optional emission) of each frontier
    // point, in parallel.
    let tickets: Vec<_> = frontier_idx
        .iter()
        .map(|&(i, _)| {
            let (compiler, entry, cfg, ctx) = (
                compiler.clone(),
                entry.clone(),
                points[i].clone(),
                ctx.clone(),
            );
            let design = held[i].clone();
            let reference = points
                .iter()
                .position(|p| p.backend == cfg.backend && p.is_reference())
                .and_then(|r| held[r].clone());
            let seq_bound = opts.seq_bound;
            let emit_dir = opts.emit_dir.clone();
            exec.submit(move || {
                let cert = certify(
                    &compiler,
                    &entry,
                    &cfg,
                    design.clone(),
                    reference,
                    seq_bound,
                    &ctx,
                    digest,
                );
                let emit = emit_dir
                    .as_deref()
                    .map(|dir| emit_point(&compiler, &entry, &cfg, design, dir, &ctx, digest));
                (cert, emit)
            })
        })
        .collect();
    let mut frontier = Vec::new();
    for (&(i, full_idx), t) in frontier_idx.iter().zip(tickets) {
        let (cert, emit) = t
            .wait()
            .map_err(|e| format!("certification worker died: {e}"))?;
        frontier.push(Point {
            config: points[i].clone(),
            eval: full[full_idx].clone(),
            cert,
            emit,
        });
    }
    exec.shutdown();

    Ok(ExploreReport {
        entry,
        backends,
        lattice: points.len(),
        feasible,
        evaluated,
        budget: opts.budget,
        seq_bound: opts.seq_bound,
        frontier,
        entry_note,
    })
}

fn opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "-".to_string(), |v| v.to_string())
}

impl ExploreReport {
    /// How many distinct backends the frontier spans.
    pub fn frontier_backends(&self) -> usize {
        let mut names: Vec<&str> = self.frontier.iter().map(|p| p.config.backend).collect();
        names.sort_unstable();
        names.dedup();
        names.len()
    }

    /// The human table rendering (`text` of the service response).
    pub fn render(&self) -> String {
        let mut out = format!(
            "design-space exploration for `{}`: {} lattice points over {} backend{}, \
             {} feasible, {} evaluated\n",
            self.entry,
            self.lattice,
            self.backends.len(),
            if self.backends.len() == 1 { "" } else { "s" },
            self.feasible,
            self.evaluated,
        );
        if let Some(b) = self.budget {
            let _ = writeln!(
                out,
                "budget: {b} (successive halving on area x scheduled cycles)"
            );
        }
        let _ = writeln!(
            out,
            "Pareto frontier over (area, latency, II): {} point{} spanning {} backend{}\n",
            self.frontier.len(),
            if self.frontier.len() == 1 { "" } else { "s" },
            self.frontier_backends(),
            if self.frontier_backends() == 1 {
                ""
            } else {
                "s"
            },
        );
        let mut t = Table::new(vec![
            "backend", "knobs", "style", "area", "latency", "II", "tier", "proof",
        ]);
        for p in &self.frontier {
            t.row(vec![
                p.config.backend.to_string(),
                p.config.knobs(),
                p.eval.style.unwrap_or("-").to_string(),
                p.eval
                    .area
                    .map_or_else(|| "-".to_string(), |a| format!("{a:.1}")),
                opt_u64(p.eval.latency),
                opt_u64(p.eval.ii),
                p.cert.tier.name().to_string(),
                match (&p.cert.method, p.cert.vectors) {
                    (Some(m), _) => p
                        .cert
                        .bound
                        .map_or_else(|| m.clone(), |k| format!("{m} (bound {k})")),
                    (None, Some(v)) => format!("{v} vectors"),
                    (None, None) => "-".to_string(),
                },
            ]);
        }
        let _ = write!(out, "{t}");
        for p in &self.frontier {
            if let Some(d) = &p.cert.detail {
                let _ = writeln!(
                    out,
                    "note: {} [{}]: {d}",
                    p.config.backend,
                    p.config.knobs()
                );
            }
            match &p.emit {
                Some(Emit::Written {
                    aiger, roundtrip, ..
                }) => {
                    let _ = writeln!(
                        out,
                        "emitted: {aiger} (+ .blif), round-trip re-proved by {roundtrip}"
                    );
                }
                Some(Emit::Skipped(why)) => {
                    let _ = writeln!(
                        out,
                        "emit skipped: {} [{}]: {why}",
                        p.config.backend,
                        p.config.knobs()
                    );
                }
                None => {}
            }
        }
        out
    }

    /// The machine rendering (`data` of the service response).
    pub fn to_value(&self) -> Value {
        let frontier = self.frontier.iter().map(|p| {
            let cert = obj! {
                "tier": p.cert.tier.name(),
                "method": p.cert.method.as_deref(),
                "bound": p.cert.bound,
                "vectors": p.cert.vectors,
                "detail": p.cert.detail.as_deref(),
            };
            let emit = p.emit.as_ref().map(|e| match e {
                Emit::Written {
                    aiger,
                    blif,
                    roundtrip,
                } => obj! { "aiger": aiger, "blif": blif, "roundtrip": roundtrip },
                Emit::Skipped(why) => obj! { "skipped": why },
            });
            obj! {
                "backend": p.config.backend,
                "pipeline": p.config.pipeline,
                "narrow": p.config.narrow,
                "opt_netlist": p.config.opt_netlist,
                "unroll": p.config.unroll,
                "style": p.eval.style,
                "area": p.eval.area.map(|a| Value::fixed(a, 1)),
                "latency": p.eval.latency,
                "ii": p.eval.ii,
                "certification": cert,
                "emit": emit,
            }
        });
        obj! {
            "entry": &self.entry,
            "backends": Value::arr(self.backends.iter().copied()),
            "lattice": self.lattice,
            "feasible": self.feasible,
            "evaluated": self.evaluated,
            "budget": self.budget,
            "seq_bound": self.seq_bound,
            "frontier": Value::arr(frontier),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ArtifactCache;

    const MAC: &str = "int mac(int a, int b, int acc) { return acc + a * b; }";

    fn sweep(src: &str, entry: &str, opts: &ExploreOptions) -> ExploreReport {
        let compiler = Arc::new(Compiler::parse(src).unwrap());
        let digest = crate::cache::fnv64(src.as_bytes());
        let ctx = ServiceCtx::with_cache(Arc::new(ArtifactCache::default()));
        explore(&compiler, entry, opts, &ctx, digest).unwrap()
    }

    #[test]
    fn single_backend_lattice_is_32_points() {
        let r = sweep(
            MAC,
            "mac",
            &ExploreOptions {
                backend: Some("c2v".to_string()),
                ..ExploreOptions::default()
            },
        );
        assert_eq!(r.lattice, 32);
        assert!(r.feasible > 0);
        assert!(!r.frontier.is_empty());
        // A straight-line function: every config computes the same
        // thing, so nothing may be refuted.
        for p in &r.frontier {
            assert_ne!(p.cert.tier, Tier::Refuted, "{:?}", p.config);
        }
    }

    #[test]
    fn full_lattice_folds_to_64_distinct_syntheses() {
        let all: Vec<&'static str> = crate::registry::backends()
            .iter()
            .map(|b| b.info().name)
            .collect();
        let points = lattice(&all);
        assert_eq!(points.len(), 224);
        let bases = fold_bases(&points);
        // c2v and cyber read both knobs (16 bases each); cash, cones and
        // transmogrifier read `narrow` (8 each); handelc and hardwarec
        // read neither (4 each).
        assert_eq!(bases.len(), 2 * 16 + 3 * 8 + 2 * 4);
        for (base, members) in &bases {
            assert!(!base.opt_netlist, "{base:?}");
            assert!(members.iter().all(|&i| points[i].base() == *base));
        }
        let mut covered: Vec<usize> = bases.iter().flat_map(|(_, m)| m.iter().copied()).collect();
        covered.sort_unstable();
        assert_eq!(covered, (0..points.len()).collect::<Vec<_>>());
    }

    #[test]
    fn cache_state_never_changes_the_report() {
        // Cold, warm (phase 1 answered from the cache, designs fetched
        // back from it) and a cache small enough to evict mid-sweep
        // must all print what an uncached sweep prints.
        let src = "int dot4(int a, int b) { int s = 0; \
                   for (int i = 0; i < 4; i++) { s = (s + a * b + i) & 65535; } return s; }";
        let opts = ExploreOptions {
            budget: Some(8),
            jobs: 2,
            ..ExploreOptions::default()
        };
        let compiler = Arc::new(Compiler::parse(src).unwrap());
        let digest = crate::cache::fnv64(src.as_bytes());
        let run = |ctx: &ServiceCtx| explore(&compiler, "dot4", &opts, ctx, digest).unwrap();
        let want = run(&ServiceCtx::uncached());
        let caches = [
            (ArtifactCache::default(), false),
            (ArtifactCache::with_budget(64 << 10), true),
        ];
        for (cache, evicts) in caches {
            let cache = Arc::new(cache);
            let ctx = ServiceCtx::with_cache(cache.clone());
            for _ in 0..2 {
                let got = run(&ctx);
                assert_eq!(got.to_value(), want.to_value());
                assert_eq!(got.render(), want.render());
            }
            assert_eq!(cache.stats().evictions > 0, evicts);
        }
    }

    #[test]
    fn frontier_points_are_mutually_nondominated() {
        let r = sweep(MAC, "mac", &ExploreOptions::default());
        for a in &r.frontier {
            for b in &r.frontier {
                assert!(
                    !dominates(objective(&a.eval), objective(&b.eval)),
                    "{:?} dominates {:?}",
                    a.config,
                    b.config
                );
            }
        }
    }

    #[test]
    fn budget_limits_full_evaluations() {
        let r = sweep(
            MAC,
            "mac",
            &ExploreOptions {
                budget: Some(6),
                ..ExploreOptions::default()
            },
        );
        assert!(r.evaluated <= 6, "evaluated {} > budget 6", r.evaluated);
        assert!(!r.frontier.is_empty());
    }

    #[test]
    fn entry_falls_back_to_sole_function() {
        let r = sweep(
            MAC,
            "top",
            &ExploreOptions {
                backend: Some("cones".to_string()),
                ..ExploreOptions::default()
            },
        );
        assert_eq!(r.entry, "mac");
        assert!(r.entry_note.is_some());
        let two = "int f(int a) { return a; } int g(int a) { return a + 1; }";
        let compiler = Arc::new(Compiler::parse(two).unwrap());
        let err = explore(
            &compiler,
            "top",
            &ExploreOptions::default(),
            &ServiceCtx::uncached(),
            0,
        )
        .unwrap_err();
        assert!(err.contains("no function named `top`"), "{err}");
    }

    #[test]
    fn json_is_identical_across_jobs_counts() {
        let one = sweep(
            MAC,
            "mac",
            &ExploreOptions {
                jobs: 1,
                ..ExploreOptions::default()
            },
        );
        let eight = sweep(
            MAC,
            "mac",
            &ExploreOptions {
                jobs: 8,
                ..ExploreOptions::default()
            },
        );
        assert_eq!(one.to_value(), eight.to_value());
        assert_eq!(one.render(), eight.render());
    }

    #[test]
    fn comb_frontier_points_certify_equivalent() {
        let r = sweep(
            MAC,
            "mac",
            &ExploreOptions {
                backend: Some("cones".to_string()),
                ..ExploreOptions::default()
            },
        );
        assert!(
            r.frontier.iter().any(|p| p.cert.tier == Tier::Certified),
            "no certified point: {:?}",
            r.frontier
                .iter()
                .map(|p| p.cert.clone())
                .collect::<Vec<_>>()
        );
        for p in &r.frontier {
            if p.cert.tier == Tier::Certified {
                assert!(p.cert.method.is_some());
            }
        }
    }
}

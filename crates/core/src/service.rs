//! The unified service API: every `chls` verb as one typed call.
//!
//! [`handle`] is the single code path behind both the one-shot CLI and
//! the `chls serve` daemon: the binary parses argv into a [`Request`],
//! the daemon parses a JSON wire line into the *same* [`Request`], and
//! both render the resulting [`Response`] — the binary to
//! stdout/stderr/exit-code, the daemon to an envelope line. There is
//! deliberately no second implementation of any verb anywhere.
//!
//! A [`Response`] always carries *both* renderings: `text` is the exact
//! byte sequence the one-shot CLI prints in human mode (pinned by
//! `tests/golden_cli.rs`), `data` is the verb-specific JSON whose shape
//! the verb's row in [`crate::verbs::TABLE`] declares (and `chls schema`
//! dumps). Every handler builds `data` as a [`Value`]; [`handle`] renders
//! it once, so a cached response is spliced into replies, never
//! re-serialized. `ok` mirrors the process exit code.
//!
//! When the [`ServiceCtx`] carries an [`ArtifactCache`], [`handle`]
//! memoizes at three levels keyed by content address (FNV-1a of the
//! source text + [`CompileOptions::cache_key`] + phase): parsed
//! [`Compiler`]s, synthesized [`Design`]s, and whole [`Response`]s. A
//! response hit is a pointer clone — bit-identical bytes, microsecond
//! latency — which is what makes a warm daemon `report` cheap.
//!
//! [`CompileOptions::cache_key`]: crate::CompileOptions::cache_key

use crate::cache::{fnv64, Artifact, ArtifactCache};
use crate::interp::ArgValue;
use crate::jsonin::{Map, Value};
use crate::obj;
use crate::prelude::*;
use crate::verbs::{self, Run};
use crate::{FlowReport, LintReport};
use chls_frontend::diag::{Diagnostic, Severity};
use chls_rtl::CostModel;
use std::fmt::Write as _;
use std::sync::Arc;

/// Where a request's program text comes from.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Source {
    /// No source — `backends`, `schema`.
    #[default]
    None,
    /// Read this file (relative paths resolve against the *handling*
    /// process's working directory — the daemon's, under `serve`).
    Path(String),
    /// Inline program text, shipped in the request itself.
    Text(String),
}

/// One verb invocation, fully typed — the service API's input.
#[derive(Debug, Clone, Default)]
pub struct Request {
    pub verb: String,
    pub source: Source,
    pub entry: String,
    /// Raw positional arguments (integers like `42` or comma-separated
    /// arrays like `1,2,3`), parsed by the service, not the transport.
    pub args: Vec<String>,
    pub options: CompileOptions,
    /// `equiv` only: exactly two backend names.
    pub backends: Vec<String>,
    /// `equiv` only: entry for the second backend (defaults to `entry`).
    pub entry_b: Option<String>,
    /// `equiv`/`explore`: sequential equivalence bound (defaults to 16).
    pub bound: Option<usize>,
    /// `explore` only: successive-halving budget.
    pub budget: Option<usize>,
    /// `explore` only: dump frontier netlists (AIGER + BLIF) here.
    pub emit_dir: Option<String>,
    /// Wire-level per-request timeout hint, honored by `chls serve`.
    pub timeout_ms: Option<u64>,
}

/// The service API's output: one verdict, both renderings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub verb: String,
    /// Mirrors the one-shot exit code: `true` ⇔ exit 0.
    pub ok: bool,
    /// Verb-specific JSON (the `data` of the envelope).
    pub data: String,
    /// The exact bytes the one-shot CLI prints to stdout in text mode.
    pub text: String,
    /// Rendered warnings; the CLI prints them to stderr.
    pub warnings: Vec<String>,
}

/// A handled request: the response plus whether it came from cache.
#[derive(Debug, Clone)]
pub struct Handled {
    pub response: Arc<Response>,
    pub cached: bool,
}

/// Shared service state. One-shot invocations use
/// [`ServiceCtx::uncached`]; the daemon shares one cache across every
/// worker via [`ServiceCtx::with_cache`].
#[derive(Clone, Default)]
pub struct ServiceCtx {
    pub cache: Option<Arc<ArtifactCache>>,
}

impl ServiceCtx {
    pub fn uncached() -> Self {
        ServiceCtx { cache: None }
    }

    pub fn with_cache(cache: Arc<ArtifactCache>) -> Self {
        ServiceCtx { cache: Some(cache) }
    }
}

/// What a verb handler produces; [`handle`] names it and renders `data`.
pub struct Output {
    pub ok: bool,
    pub data: Value,
    pub text: String,
    pub warnings: Vec<String>,
}

/// One verb's implementation: the request, the shared context, and the
/// source text with its digest (`""` and 0 for verbs without a source).
pub type Handler = fn(&Request, &ServiceCtx, &str, u64) -> Result<Output, String>;

/// Version of the envelope contract (`"schema"` in every envelope): it
/// bumps only when a field changes meaning or disappears, never when a
/// verb grows a new field.
pub const SCHEMA_VERSION: u32 = 1;

/// The unified envelope every `--json` output and serve reply uses:
/// `{"tool":"chls","verb":…,"version":…,"schema":1,"ok":…,"data":…}`
/// followed by the members of `extra` (serve adds `text`, `warnings`,
/// `cached` and `id`). `data` arrives pre-rendered, so a cached
/// [`Response::data`] is spliced in as is; `ok` mirrors the exit code.
pub fn envelope(verb: &str, ok: bool, data: &str, extra: &Value) -> String {
    let head = obj! {
        "tool": "chls",
        "verb": verb,
        "version": env!("CARGO_PKG_VERSION"),
        "schema": SCHEMA_VERSION,
        "ok": ok,
    }
    .to_string();
    let tail = extra.to_string();
    let mut out = String::with_capacity(head.len() + data.len() + tail.len() + 8);
    // Splice `"data":…` and the extra members into the head object.
    out.push_str(&head[..head.len() - 1]);
    out.push_str(",\"data\":");
    out.push_str(data);
    if tail.len() > 2 {
        out.push(',');
        out.push_str(&tail[1..]);
    } else {
        out.push('}');
    }
    out
}

/// Parses raw positional argument strings into interpreter values.
pub fn parse_args(raw: &[String]) -> Result<Vec<ArgValue>, String> {
    raw.iter()
        .map(|s| {
            if s.contains(',') {
                let vals: Result<Vec<i64>, _> =
                    s.split(',').map(|p| p.trim().parse::<i64>()).collect();
                vals.map(ArgValue::Array)
                    .map_err(|e| format!("bad array `{s}`: {e}"))
            } else {
                s.parse::<i64>()
                    .map(ArgValue::Scalar)
                    .map_err(|e| format!("bad integer `{s}`: {e}"))
            }
        })
        .collect()
}

/// Handles one request end to end: resolve source, consult the
/// response memo, dispatch the verb, populate the cache.
///
/// `Err` is a *hard* failure (unreadable file, parse error, unknown
/// backend, synthesis failure): the CLI prints it to stderr, the
/// daemon wraps it in an `ok:false` error envelope. Verb-level
/// negative verdicts (conformance mismatch, lint errors, inequivalent
/// designs) are `Ok` responses with `ok:false`, exactly as the
/// one-shot exit codes always worked.
pub fn handle(req: &Request, ctx: &ServiceCtx) -> Result<Handled, String> {
    let Some((verb, handler)) = verbs::find(&req.verb).and_then(|v| match v.run {
        Run::Service(h) => Some((v, h)),
        Run::Daemon | Run::Cli => None,
    }) else {
        return Err(format!("unknown verb `{}`", req.verb));
    };
    let src = resolve_source(req, verb.needs_source())?;
    let digest = src.as_deref().map_or(0, |s| fnv64(s.as_bytes()));
    // `--emit-dir` writes files, so a memoized reply could name files
    // deleted since: such requests always run.
    let memo = ctx.cache.as_ref().filter(|_| req.emit_dir.is_none());
    let key = response_key(req, digest);
    if let Some(cache) = memo {
        if let Some(Artifact::Response(r)) = cache.get(&key) {
            return Ok(Handled {
                response: r,
                cached: true,
            });
        }
    }
    let out = handler(req, ctx, src.as_deref().unwrap_or_default(), digest)?;
    let response = Arc::new(Response {
        verb: verb.name.to_string(),
        ok: out.ok,
        data: out.data.to_string(),
        text: out.text,
        warnings: out.warnings,
    });
    if let Some(cache) = memo {
        cache.put(&key, Artifact::Response(response.clone()));
    }
    Ok(Handled {
        response,
        cached: false,
    })
}

fn resolve_source(req: &Request, needed: bool) -> Result<Option<String>, String> {
    match &req.source {
        Source::None if needed => Err(format!("verb `{}` needs a source file or text", req.verb)),
        Source::None => Ok(None),
        Source::Path(p) => std::fs::read_to_string(p)
            .map(Some)
            .map_err(|e| format!("cannot read {p}: {e}")),
        Source::Text(t) => Ok(Some(t.clone())),
    }
}

/// The whole-response content address. Everything that can change a
/// single output byte is in here; `trace` is not (the only verb whose
/// output shows traces, `report`, forces it on itself), nor `emit_dir`
/// (requests that set it bypass the memo).
fn response_key(req: &Request, digest: u64) -> String {
    format!(
        "resp|{}|{digest:016x}|{}|a={}|{}|jobs={:?}|eb={:?}|bound={:?}|bk={}|budget={:?}",
        req.verb,
        req.entry,
        req.args.join("\u{1f}"),
        req.options.cache_key(),
        req.options.jobs_requested(),
        req.entry_b,
        req.bound,
        req.backends.join(","),
        req.budget,
    )
}

/// Parses (or fetches) the compiler for `src`, caching the parse under
/// the source digest. Every request gets its own copy, which shares the
/// parse: the cached `Compiler` never prepares, so the preparations a
/// request makes die with it instead of sitting in the cache beyond its
/// byte charge.
fn compiler_for(ctx: &ServiceCtx, src: &str, digest: u64) -> Result<Arc<Compiler>, String> {
    let key = format!("hir|{digest:016x}");
    if let Some(cache) = &ctx.cache {
        if let Some(Artifact::Compiler(c)) = cache.get(&key) {
            return Ok(Arc::new(c.as_ref().clone()));
        }
    }
    let compiler = Compiler::parse(src).map_err(|e| e.render(src))?;
    if let Some(cache) = &ctx.cache {
        cache.put(&key, Artifact::Compiler(Arc::new(compiler.clone())));
    }
    Ok(Arc::new(compiler))
}

/// The design cache's content address; `explore` writes freshly
/// synthesized designs under the same key [`design_for`] reads, so the
/// two never duplicate work.
pub(crate) fn design_key(
    digest: u64,
    entry: &str,
    backend_name: &str,
    opts: &CompileOptions,
) -> String {
    format!(
        "design|{digest:016x}|{entry}|{backend_name}|{}",
        opts.cache_key()
    )
}

/// Synthesizes (or fetches) one design. The error is the bare
/// [`SynthError`] rendering; callers wrap it in their verb's historic
/// phrasing.
///
/// [`SynthError`]: chls_backends::SynthError
pub(crate) fn design_for(
    ctx: &ServiceCtx,
    compiler: &Compiler,
    digest: u64,
    backend_name: &str,
    entry: &str,
    opts: &CompileOptions,
) -> Result<Arc<Design>, String> {
    let key = design_key(digest, entry, backend_name, opts);
    if let Some(cache) = &ctx.cache {
        if let Some(Artifact::Design(d)) = cache.get(&key) {
            return Ok(d);
        }
    }
    let backend = backend_by_name(backend_name)
        .ok_or_else(|| format!("unknown backend `{backend_name}` (try `chls backends`)"))?;
    let design = Arc::new(
        compiler
            .synthesize(backend.as_ref(), entry, &opts.synth_options())
            .map_err(|e| e.to_string())?,
    );
    if let Some(cache) = &ctx.cache {
        cache.put(&key, Artifact::Design(design.clone()));
    }
    Ok(design)
}

// ---------------------------------------------------------------- verbs

pub(crate) fn verb_backends(
    _req: &Request,
    _ctx: &ServiceCtx,
    _src: &str,
    _digest: u64,
) -> Result<Output, String> {
    let info = |i: &chls_backends::BackendInfo, kind: &str| {
        obj! {
            "name": i.name,
            "kind": kind,
            "models": i.models,
            "year": i.year,
            "concurrency": i.concurrency.to_string(),
            "timing": i.timing.to_string(),
            "pointers": i.pointers,
            "data_dependent_loops": i.data_dependent_loops,
            "parallel_constructs": i.parallel_constructs,
        }
    };
    let rows = crate::registry::backends()
        .iter()
        .map(|b| info(&b.info(), "compiler"))
        .chain(
            crate::registry::structural_rows()
                .iter()
                .map(|i| info(i, "structural")),
        )
        .collect::<Vec<_>>();
    Ok(Output {
        ok: true,
        data: obj! { "backends": rows },
        text: format!("{}\n", taxonomy_table()),
        warnings: Vec::new(),
    })
}

fn sim_data(ret: Option<i64>, arrays: &[(usize, Vec<i64>)], cycles: Option<u64>) -> Value {
    let arrays = arrays
        .iter()
        .map(|(i, vs)| obj! { "arg": *i, "values": Value::arr(vs.iter().copied()) })
        .collect::<Vec<_>>();
    obj! { "ret": ret, "arrays": arrays, "cycles": cycles }
}

pub(crate) fn verb_run(
    req: &Request,
    ctx: &ServiceCtx,
    src: &str,
    digest: u64,
) -> Result<Output, String> {
    let args = parse_args(&req.args)?;
    let compiler = compiler_for(ctx, src, digest)?;
    let warnings = compiler.rendered_warnings();
    let opts = &req.options;
    let (ret, arrays, cycles, jit) = if opts.jit_requested() {
        // Native path: synthesize the c2v FSMD and execute it through
        // the JIT (falling back to the tape interpreter off-x86-64).
        let design = design_for(ctx, &compiler, digest, "c2v", &req.entry, opts)
            .map_err(|e| format!("synthesis error: {e}"))?;
        let r = crate::simulate_design_with(&design, &args, true)
            .map_err(|e| format!("simulation error: {e}"))?;
        (r.ret, r.arrays, r.cycles, true)
    } else {
        let r = compiler
            .interpret(&req.entry, &args)
            .map_err(|e| format!("interpreter error: {e}"))?;
        (r.ret, r.arrays, None, false)
    };
    let mut text = String::new();
    if let Some(v) = ret {
        let _ = writeln!(text, "ret = {v}");
    }
    for (i, a) in &arrays {
        let _ = writeln!(text, "arg{i} = {a:?}");
    }
    if let Some(c) = cycles {
        let _ = writeln!(text, "cycles = {c}");
    }
    Ok(Output {
        ok: true,
        data: obj! {
            "entry": &req.entry,
            "jit": jit,
            "result": sim_data(ret, &arrays, cycles),
        },
        text,
        warnings,
    })
}

/// The `data` of `check`: one row per backend with the verdict tag and
/// per-design timing.
fn check_data(entry: &str, jobs: usize, jit: bool, results: &[(&'static str, Verdict)]) -> Value {
    let rows = results
        .iter()
        .map(|(backend, verdict)| {
            let (tag, cycles, time_units, detail) = match verdict {
                Verdict::Pass { cycles, time_units } => ("pass", *cycles, *time_units, None),
                Verdict::Unsupported(why) => ("unsupported", None, None, Some(why.clone())),
                Verdict::Mismatch { got, expected } => (
                    "mismatch",
                    None,
                    None,
                    Some(format!("got {got}, expected {expected}")),
                ),
                Verdict::Error(e) => ("error", None, None, Some(e.clone())),
            };
            obj! {
                "backend": *backend,
                "verdict": tag,
                "cycles": cycles,
                "time_units": time_units,
                "detail": detail,
            }
        })
        .collect::<Vec<_>>();
    obj! { "entry": entry, "jobs": jobs, "jit": jit, "results": rows }
}

pub(crate) fn verb_check(
    req: &Request,
    _ctx: &ServiceCtx,
    src: &str,
    _digest: u64,
) -> Result<Output, String> {
    let opts = &req.options;
    let args = parse_args(&req.args)?;
    let warnings = Compiler::parse(src)
        .map(|c| c.rendered_warnings())
        .unwrap_or_default();
    let results = crate::check_conformance(src, &req.entry, &args, opts)?;
    let bad = results
        .iter()
        .any(|(_, v)| matches!(v, Verdict::Mismatch { .. } | Verdict::Error(_)));
    let mut text = String::new();
    for (backend, verdict) in &results {
        match verdict {
            Verdict::Pass { cycles, time_units } => {
                let timing = cycles
                    .map(|c| format!("{c} cycles"))
                    .or_else(|| time_units.map(|t| format!("{t} time units")))
                    .unwrap_or_else(|| "combinational".to_string());
                let _ = writeln!(text, "{backend:<16} PASS  ({timing})");
            }
            Verdict::Unsupported(why) => {
                let _ = writeln!(text, "{backend:<16} skip  ({why})");
            }
            Verdict::Mismatch { got, expected } => {
                let _ = writeln!(text, "{backend:<16} FAIL  got {got}, expected {expected}");
            }
            Verdict::Error(e) => {
                let _ = writeln!(text, "{backend:<16} ERROR {e}");
            }
        }
    }
    Ok(Output {
        ok: !bad,
        data: check_data(
            &req.entry,
            opts.effective_jobs(),
            opts.jit_requested(),
            &results,
        ),
        text,
        warnings,
    })
}

pub(crate) fn verb_ir(
    req: &Request,
    ctx: &ServiceCtx,
    src: &str,
    digest: u64,
) -> Result<Output, String> {
    let compiler = compiler_for(ctx, src, digest)?;
    let ir = compiler
        .prepared_ir(&req.entry)
        .map_err(|e| e.to_string())?;
    Ok(Output {
        ok: true,
        text: format!("{ir}\n"),
        data: obj! { "entry": &req.entry, "ir": ir },
        warnings: compiler.rendered_warnings(),
    })
}

fn span_data(s: chls_frontend::span::Span) -> Value {
    obj! { "start": s.start, "end": s.end }
}

fn diag_data(d: &Diagnostic) -> Value {
    let notes = d
        .notes
        .iter()
        .map(|n| obj! { "message": &n.message, "span": span_data(n.span) })
        .collect::<Vec<_>>();
    obj! {
        "severity": match d.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        },
        "message": &d.message,
        "span": span_data(d.span),
        "notes": notes,
    }
}

fn diags_data(ds: &[Diagnostic]) -> Value {
    Value::arr(ds.iter().map(diag_data))
}

/// The `data` of `lint`. Spans are byte offsets into the analyzed
/// source, so the output does not depend on how a consumer counts lines.
pub fn lint_data(r: &LintReport) -> Value {
    let f = &r.features;
    let backends = r
        .backend_findings
        .iter()
        .map(|b| {
            obj! {
                "backend": b.backend,
                "construct": b.construct,
                "status": b.status,
                "reason": &b.reason,
                "detail": b.detail.as_deref(),
                "repairable": b.repairable,
                "rewrite": b.rewrite,
            }
        })
        .collect::<Vec<_>>();
    let cycles = r
        .cycle_bounds
        .iter()
        .map(|c| obj! { "backend": c.backend, "min": c.interval.min, "max": c.interval.max })
        .collect::<Vec<_>>();
    obj! {
        "entry": &r.entry,
        "backend": r.backend.as_deref(),
        "races": diags_data(&r.races),
        "warnings": diags_data(&r.warnings),
        "features": obj! {
            "par": f.par,
            "channels": f.channels,
            "delay": f.delay,
            "pointers": f.pointers,
            "multi_target_pointers": Value::arr(&f.multi_target_pointers),
            "data_dependent_loops": f.data_dependent_loops,
            "timing_constraints": f.timing_constraints,
            "recursion": f.recursion,
        },
        "backends": backends,
        "cycles": cycles,
        "memory": diags_data(&r.memory),
        "dead_branches": diags_data(&r.dead_branches),
    }
}

pub(crate) fn verb_lint(
    req: &Request,
    ctx: &ServiceCtx,
    src: &str,
    digest: u64,
) -> Result<Output, String> {
    // The strict frontend rejects recursion at parse time; the lint's
    // job is to *report* it (as a repairable finding) instead. When the
    // strict parse fails but the relaxed one succeeds — i.e. the only
    // errors were recursion — lint the relaxed program.
    let report = match compiler_for(ctx, src, digest) {
        Ok(compiler) => compiler
            .lint(&req.entry, req.options.backend_requested())
            .map_err(|e| e.to_string())?,
        Err(strict_err) => {
            let Ok(hir) = chls_frontend::compile_to_hir_relaxed(src) else {
                return Err(strict_err);
            };
            let prep = chls_backends::Preparer::new(hir);
            chls_analysis::lint_program(&prep, &req.entry, req.options.backend_requested())
                .map_err(|e| e.to_string())?
        }
    };
    Ok(Output {
        ok: !report.has_errors(),
        data: lint_data(&report),
        text: report.render(src),
        warnings: Vec::new(),
    })
}

pub(crate) fn verb_rewrite(
    req: &Request,
    _ctx: &ServiceCtx,
    src: &str,
    _digest: u64,
) -> Result<Output, String> {
    let backend = req.options.backend_requested();
    let outcome = crate::rewriter::rewrite_and_certify(
        src,
        &req.entry,
        &chls_opt::rewrite::RewriteOptions::default(),
        backend,
    )?;
    // Under a backend filter the verdict is that backend's alone; bare
    // `rewrite` succeeds when the result is certified.
    let ok = outcome.certified
        && (backend.is_none() || outcome.accepted_after == outcome.backends_total);

    let mut text = String::new();
    let _ = writeln!(text, "repairs:");
    for a in &outcome.actions {
        let _ = writeln!(
            text,
            "  {:<18} {:<24} {}: {}",
            a.pass,
            a.target,
            if a.applied { "applied" } else { "skipped" },
            a.detail
        );
    }
    let _ = writeln!(text, "certification:");
    for c in &outcome.checks {
        let _ = writeln!(
            text,
            "  {:<18} {:<4} {}",
            c.name,
            c.status.label(),
            c.detail
        );
    }
    let _ = writeln!(
        text,
        "accepted backends: {}/{} -> {}/{}",
        outcome.accepted_before,
        outcome.backends_total,
        outcome.accepted_after,
        outcome.backends_total
    );
    let _ = writeln!(
        text,
        "certified: {}",
        if outcome.certified { "yes" } else { "NO" }
    );
    let _ = writeln!(text, "--- rewritten CHL ---");
    text.push_str(&outcome.source);

    let actions = outcome
        .actions
        .iter()
        .map(|a| {
            obj! {
                "pass": a.pass.to_string(),
                "target": &a.target,
                "applied": a.applied,
                "detail": &a.detail,
            }
        })
        .collect::<Vec<_>>();
    let checks = outcome
        .checks
        .iter()
        .map(|c| {
            let status = match c.status {
                crate::rewriter::CheckStatus::Pass => "pass",
                crate::rewriter::CheckStatus::Fail => "fail",
                crate::rewriter::CheckStatus::Skip => "skip",
            };
            obj! { "check": c.name, "status": status, "detail": &c.detail }
        })
        .collect::<Vec<_>>();
    let data = obj! {
        "entry": &outcome.entry,
        "changed": outcome.changed,
        "certified": outcome.certified,
        "accepted_before": outcome.accepted_before,
        "accepted_after": outcome.accepted_after,
        "backends_total": outcome.backends_total,
        "actions": actions,
        "certification": checks,
        "source": outcome.source,
    };
    Ok(Output {
        ok,
        data,
        text,
        warnings: Vec::new(),
    })
}

fn interval_data(i: chls_analysis::Interval) -> Value {
    obj! { "min": i.min, "max": i.max }
}

/// The `data` of `flow`.
pub fn flow_data(r: &FlowReport) -> Value {
    let networks = r
        .networks
        .iter()
        .map(|n| {
            let channels = n
                .channels
                .iter()
                .map(|c| {
                    obj! {
                        "name": &c.name,
                        "sends": interval_data(c.sends),
                        "recvs": interval_data(c.recvs),
                        "senders": c.senders,
                        "receivers": c.receivers,
                        "balance": c.balance.to_string(),
                    }
                })
                .collect::<Vec<_>>();
            let deadlock = n.deadlock.as_ref().map(|d| {
                let blocked = d
                    .blocked
                    .iter()
                    .map(|b| {
                        obj! {
                            "process": &b.process,
                            "channel": &b.channel,
                            "dir": b.dir.to_string(),
                            "span": span_data(b.span),
                        }
                    })
                    .collect::<Vec<_>>();
                obj! { "cycle": Value::arr(&d.cycle), "blocked": blocked }
            });
            let capacities = n
                .capacities
                .iter()
                .map(|c| obj! { "channel": &c.channel, "capacity": c.capacity })
                .collect::<Vec<_>>();
            obj! {
                "processes": Value::arr(&n.processes),
                "channels": channels,
                "deadlock": deadlock,
                "capacities": capacities,
                "skipped": n.skipped.as_deref(),
            }
        })
        .collect::<Vec<_>>();
    let contracts = r
        .contracts
        .iter()
        .map(|c| {
            obj! {
                "channel": &c.channel,
                "declared": c.declared,
                "achieved": interval_data(c.achieved),
                "verdict": c.verdict.to_string(),
            }
        })
        .collect::<Vec<_>>();
    obj! {
        "entry": &r.entry,
        "ok": !r.has_errors(),
        "networks": networks,
        "contracts": contracts,
        "diags": diags_data(&r.diags),
    }
}

pub(crate) fn verb_flow(
    req: &Request,
    ctx: &ServiceCtx,
    src: &str,
    digest: u64,
) -> Result<Output, String> {
    let compiler = compiler_for(ctx, src, digest)?;
    let report = compiler.flow(&req.entry).map_err(|e| e.to_string())?;
    Ok(Output {
        ok: !report.has_errors(),
        data: flow_data(&report),
        text: report.render(compiler.source()),
        warnings: Vec::new(),
    })
}

pub(crate) fn verb_synth(
    req: &Request,
    ctx: &ServiceCtx,
    src: &str,
    digest: u64,
) -> Result<Output, String> {
    let backend_name = req
        .options
        .backend_requested()
        .ok_or("`synth` needs a backend")?
        .to_string();
    let backend = backend_by_name(&backend_name)
        .ok_or_else(|| format!("unknown backend `{backend_name}` (try `chls backends`)"))?;
    let compiler = compiler_for(ctx, src, digest)?;
    let design = design_for(
        ctx,
        &compiler,
        digest,
        &backend_name,
        &req.entry,
        &req.options,
    )
    .map_err(|e| format!("synthesis failed: {e}"))?;
    let model = CostModel::new();
    let area = design.area(&model);
    let mut text = String::new();
    let _ = writeln!(text, "backend:  {}", backend.info().models);
    let _ = writeln!(text, "area:     {area:.0} NAND2-equivalent gates");
    let mut members = Map::default();
    members.push("backend", &backend_name);
    members.push("models", backend.info().models);
    members.push("entry", &req.entry);
    members.push("area", Value::fixed(area, 1));
    match design.as_ref() {
        Design::Comb(nl) => {
            let _ = writeln!(text, "style:    combinational ({} cells)", nl.cells.len());
            let _ = writeln!(text, "delay:    {:.2} ns", nl.critical_path(&model));
            members.push("style", "combinational");
            members.push("cells", nl.cells.len());
            members.push("delay_ns", Value::fixed(nl.critical_path(&model), 3));
        }
        Design::Fsmd(f) => {
            let clock_ns = f.critical_path(&model) + model.sequential_overhead_ns;
            let _ = writeln!(
                text,
                "style:    FSMD ({} states, {} registers, {} memories)",
                f.states.len(),
                f.regs.len(),
                f.mems.len()
            );
            let _ = writeln!(
                text,
                "clock:    {clock_ns:.2} ns min period ({:.0} MHz)",
                f.fmax_mhz(&model)
            );
            members.push("style", "fsmd");
            members.push("states", f.states.len());
            members.push("registers", f.regs.len());
            members.push("memories", f.mems.len());
            members.push("clock_ns", Value::fixed(clock_ns, 3));
            members.push("fmax_mhz", Value::fixed(f.fmax_mhz(&model), 1));
        }
        Design::Dataflow(g) => {
            let _ = writeln!(
                text,
                "style:    asynchronous dataflow ({} nodes)",
                g.nodes.len()
            );
            let _ = writeln!(text, "nodes:    {:?}", g.histogram());
            members.push("style", "dataflow");
            members.push("nodes", g.nodes.len());
        }
    }
    // Run it if sample args were provided.
    let mut result = Value::Null;
    if !req.args.is_empty() {
        let args = parse_args(&req.args)?;
        let out = simulate_design(&design, &args).map_err(|e| format!("simulation failed: {e}"))?;
        let _ = writeln!(text, "result:   {:?}", out.ret);
        if let Some(c) = out.cycles {
            let _ = writeln!(text, "cycles:   {c}");
        }
        if let Some(t) = out.time_units {
            let _ = writeln!(text, "time:     {t} units");
        }
        result = sim_data(out.ret, &out.arrays, out.cycles);
    }
    members.push("result", result);
    Ok(Output {
        ok: true,
        data: Value::Obj(members),
        text,
        warnings: compiler.rendered_warnings(),
    })
}

pub(crate) fn verb_verilog(
    req: &Request,
    ctx: &ServiceCtx,
    src: &str,
    digest: u64,
) -> Result<Output, String> {
    let backend_name = req
        .options
        .backend_requested()
        .ok_or("`verilog` needs a backend")?
        .to_string();
    if backend_by_name(&backend_name).is_none() {
        return Err(format!(
            "unknown backend `{backend_name}` (try `chls backends`)"
        ));
    }
    let compiler = compiler_for(ctx, src, digest)?;
    let design = design_for(
        ctx,
        &compiler,
        digest,
        &backend_name,
        &req.entry,
        &req.options,
    )
    .map_err(|e| format!("synthesis failed: {e}"))?;
    let v = match design.as_ref() {
        Design::Comb(nl) => chls_rtl::netlist_to_verilog(nl),
        Design::Fsmd(f) => chls_rtl::fsmd_to_verilog(f),
        Design::Dataflow(_) => {
            return Err("the cash backend emits asynchronous dataflow circuits, \
                 not synchronous Verilog"
                .to_string())
        }
    };
    Ok(Output {
        ok: true,
        text: format!("{v}\n"),
        data: obj! { "backend": &backend_name, "entry": &req.entry, "verilog": v },
        warnings: compiler.rendered_warnings(),
    })
}

/// The `data` of `equiv`.
fn equiv_data(
    backends: &[String],
    entries: (&str, &str),
    bound: Option<usize>,
    r: &chls_logic::EquivReport,
) -> Value {
    let (verdict, detail) = match &r.verdict {
        chls_logic::Verdict::Equivalent => ("equivalent", Value::Null),
        chls_logic::Verdict::Unknown(why) => ("unknown", Value::from(why)),
        chls_logic::Verdict::Differ(cex) => {
            let mut inputs = Map::default();
            for (n, v) in &cex.inputs {
                inputs.push(n, *v);
            }
            let mut rams = Map::default();
            for (n, vs) in &cex.rams {
                rams.push(n, Value::arr(vs.iter().copied()));
            }
            let detail = obj! {
                "inputs": Value::Obj(inputs),
                "rams": Value::Obj(rams),
                "output": &cex.output,
                "a_value": cex.a_value,
                "b_value": cex.b_value,
            };
            ("differ", detail)
        }
    };
    obj! {
        "backend_a": &backends[0],
        "backend_b": &backends[1],
        "entry_a": entries.0,
        "entry_b": entries.1,
        "bound": bound,
        "verdict": verdict,
        "method": r.method.name(),
        "aig_nodes": r.aig_nodes,
        "sat_conflicts": r.sat_conflicts,
        "detail": detail,
    }
}

pub(crate) fn verb_equiv(
    req: &Request,
    ctx: &ServiceCtx,
    src: &str,
    digest: u64,
) -> Result<Output, String> {
    if req.backends.len() != 2 {
        return Err(format!(
            "`chls equiv` needs exactly two --backend flags, got {}",
            req.backends.len()
        ));
    }
    let entry = req.entry.as_str();
    let entry_b = req.entry_b.as_deref().unwrap_or(entry);
    let bound = req.bound.unwrap_or(16);
    let compiler = compiler_for(ctx, src, digest)?;
    // Historically `equiv` synthesizes with default options.
    let default_opts = CompileOptions::new();
    let synth = |name: &str, entry: &str| -> Result<Arc<Design>, String> {
        design_for(ctx, &compiler, digest, name, entry, &default_opts).map_err(|e| {
            if e.starts_with("unknown backend") {
                e
            } else {
                format!("{name}:{entry}: synthesis failed: {e}")
            }
        })
    };
    let da = synth(&req.backends[0], entry)?;
    let db = synth(&req.backends[1], entry_b)?;
    let style = |d: &Design| match d {
        Design::Comb(_) => "combinational",
        Design::Fsmd(_) => "fsmd",
        Design::Dataflow(_) => "dataflow",
    };
    let opts = chls_logic::EquivOptions::default();
    let (report, used_bound) = match (da.as_ref(), db.as_ref()) {
        (Design::Comb(a), Design::Comb(b)) => (chls_logic::check_comb_equiv(a, b, &opts), None),
        (Design::Fsmd(a), Design::Fsmd(b)) => {
            (chls_logic::check_seq_equiv(a, b, bound, &opts), Some(bound))
        }
        _ => {
            return Err(format!(
                "cannot compare a {} design ({}) with a {} design ({}); \
                 equivalence checking supports combinational-vs-combinational \
                 and fsmd-vs-fsmd only",
                style(&da),
                req.backends[0],
                style(&db),
                req.backends[1]
            ))
        }
    };
    let report = report.map_err(|e| e.to_string())?;
    let ok = matches!(report.verdict, chls_logic::Verdict::Equivalent);
    let scope = used_bound.map_or_else(
        || "all inputs".to_string(),
        |k| format!("all inputs that finish within {k} cycles"),
    );
    let stats = format!(
        "[method {}, {} aig nodes, {} sat conflicts]",
        report.method.name(),
        report.aig_nodes,
        report.sat_conflicts
    );
    let mut text = String::new();
    match &report.verdict {
        chls_logic::Verdict::Equivalent => {
            let _ = writeln!(
                text,
                "EQUIVALENT: {}:{entry} and {}:{entry_b} agree on {scope} {stats}",
                req.backends[0], req.backends[1]
            );
        }
        chls_logic::Verdict::Differ(cex) => {
            let _ = writeln!(
                text,
                "DIFFER: {}:{entry} and {}:{entry_b} disagree at `{}` {stats}",
                req.backends[0], req.backends[1], cex.output
            );
            let _ = writeln!(text, "counterexample (replayed through the simulator):");
            for (name, value) in &cex.inputs {
                let _ = writeln!(text, "  {name} = {value}");
            }
            for (name, values) in &cex.rams {
                let _ = writeln!(text, "  {name} = {values:?}");
            }
            let _ = writeln!(
                text,
                "  {} = {} on {}, {} on {}",
                cex.output, cex.a_value, req.backends[0], cex.b_value, req.backends[1]
            );
        }
        chls_logic::Verdict::Unknown(why) => {
            let _ = writeln!(text, "UNKNOWN: {why} {stats}");
        }
    }
    Ok(Output {
        ok,
        data: equiv_data(&req.backends, (entry, entry_b), used_bound, &report),
        text,
        warnings: compiler.rendered_warnings(),
    })
}

pub(crate) fn verb_report(
    req: &Request,
    ctx: &ServiceCtx,
    src: &str,
    digest: u64,
) -> Result<Output, String> {
    let args = if req.args.is_empty() {
        None
    } else {
        Some(parse_args(&req.args)?)
    };
    let compiler = compiler_for(ctx, src, digest)?;
    let opts = req.options.clone().trace(true);
    // `qor_report` owns a per-call trace collector, so concurrent
    // reports (daemon workers, explore evaluations) never serialize.
    let report = crate::qor_report(
        &compiler,
        &req.entry,
        req.options.backend_requested(),
        args.as_deref(),
        &opts,
    )
    .map_err(|e| e.to_string())?;
    let ok = !report
        .backends
        .iter()
        .any(|q| matches!(q.status, QorStatus::Error(_)));
    Ok(Output {
        ok,
        data: report.to_value(),
        text: report.render(),
        warnings: compiler.rendered_warnings(),
    })
}

pub(crate) fn verb_explore(
    req: &Request,
    ctx: &ServiceCtx,
    src: &str,
    digest: u64,
) -> Result<Output, String> {
    let compiler = compiler_for(ctx, src, digest)?;
    let opts = crate::explore::ExploreOptions {
        backend: req.options.backend_requested().map(str::to_string),
        budget: req.budget,
        seq_bound: req.bound.unwrap_or(16),
        jobs: req.options.effective_jobs(),
        emit_dir: req.emit_dir.clone(),
    };
    let report = crate::explore::explore(&compiler, &req.entry, &opts, ctx, digest)?;
    // A refuted frontier point is a synthesized design whose output
    // provably changed — that is a failure, not a finding.
    let ok = !report
        .frontier
        .iter()
        .any(|p| p.cert.tier == crate::explore::Tier::Refuted);
    let mut warnings = compiler.rendered_warnings();
    if let Some(note) = &report.entry_note {
        warnings.push(note.clone());
    }
    Ok(Output {
        ok,
        data: report.to_value(),
        text: report.render(),
        warnings,
    })
}

/// `chls schema`: the envelope and every verb row's `data` shape, plus
/// the shared shapes the rows refer to by name.
pub(crate) fn verb_schema(
    _req: &Request,
    _ctx: &ServiceCtx,
    _src: &str,
    _digest: u64,
) -> Result<Output, String> {
    let rows = verbs::TABLE.iter().filter(|v| !v.shape.is_empty());
    let mut text = String::new();
    let _ = writeln!(text, "envelope (schema {SCHEMA_VERSION}):");
    let _ = writeln!(
        text,
        r#"  {{"tool":"chls","verb":<verb>,"version":<semver>,"schema":{SCHEMA_VERSION},"ok":<bool>,"data":<verb-specific>}}"#,
    );
    let _ = writeln!(
        text,
        "  serve adds: \"text\":<str>,\"warnings\":[str],\"cached\":<bool>,\"id\":<int|null>\n"
    );
    let _ = writeln!(text, "per-verb data shapes:");
    for v in rows.clone() {
        let _ = writeln!(text, "  {:<9} {}", v.name, v.notes);
        let _ = writeln!(text, "            {}", v.shape);
    }
    let _ = writeln!(text, "\nshared shapes:");
    for (name, shape) in verbs::TYPES {
        let _ = writeln!(text, "  {name:<9} {shape}");
    }
    let data = obj! {
        "schema": SCHEMA_VERSION,
        "verbs": Value::arr(rows.map(|v| obj! { "verb": v.name, "data": v.shape, "notes": v.notes })),
        "types": Value::arr(verbs::TYPES.iter().map(|(name, shape)| obj! { "name": *name, "data": *shape })),
    };
    Ok(Output {
        ok: true,
        data,
        text,
        warnings: Vec::new(),
    })
}

// ------------------------------------------------------ wire (de)coding

impl Request {
    /// Serializes for the `chls serve` wire (one line, no newline).
    pub fn to_json(&self) -> String {
        let (path, text) = match &self.source {
            Source::None => (None, None),
            Source::Path(p) => (Some(p), None),
            Source::Text(t) => (None, Some(t)),
        };
        let o = &self.options;
        obj! {
            "verb": &self.verb,
            "path": path,
            "text": text,
            "entry": &self.entry,
            "args": Value::arr(&self.args),
            "backends": Value::arr(&self.backends),
            "entry_b": self.entry_b.as_deref(),
            "bound": self.bound,
            "budget": self.budget,
            "emit_dir": self.emit_dir.as_deref(),
            "timeout_ms": self.timeout_ms,
            "options": obj! {
                "backend": o.backend_requested(),
                "narrow": o.narrow_requested(),
                "opt_netlist": o.opt_netlist_requested(),
                "pipeline": o.pipeline_requested(),
                "unroll": o.unroll_requested(),
                "jit": o.jit_explicit(),
                "jobs": o.jobs_requested(),
                "trace": o.trace_enabled(),
            },
        }
        .to_string()
    }

    /// Parses a wire request (the dual of [`Request::to_json`]).
    /// Unknown fields are ignored so older clients keep working as the
    /// schema grows.
    pub fn from_json(v: &Value) -> Result<Request, String> {
        let verb = v
            .str_of("verb")
            .ok_or("request needs a string `verb`")?
            .to_string();
        let source = match (v.str_of("path"), v.str_of("text")) {
            (Some(_), Some(_)) => return Err("request has both `path` and `text`".to_string()),
            (Some(p), None) => Source::Path(p.to_string()),
            (None, Some(t)) => Source::Text(t.to_string()),
            (None, None) => Source::None,
        };
        let strings = |key: &str| -> Result<Vec<String>, String> {
            match v.get(key) {
                None | Some(Value::Null) => Ok(Vec::new()),
                Some(Value::Arr(items)) => items
                    .iter()
                    .map(|i| {
                        i.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| format!("`{key}` must contain strings"))
                    })
                    .collect(),
                Some(_) => Err(format!("`{key}` must be an array")),
            }
        };
        let mut options = CompileOptions::new();
        if let Some(o) = v.get("options") {
            options = options
                .backend(o.str_of("backend"))
                .narrow(o.get("narrow").and_then(Value::as_bool).unwrap_or(false))
                .opt_netlist(
                    o.get("opt_netlist")
                        .and_then(Value::as_bool)
                        .unwrap_or(false),
                )
                .pipeline(o.get("pipeline").and_then(Value::as_bool).unwrap_or(false))
                .trace(o.get("trace").and_then(Value::as_bool).unwrap_or(false));
            #[allow(clippy::cast_possible_truncation)]
            if let Some(u) = o.get("unroll").and_then(Value::as_u64) {
                options = options.unroll(Some(u as u32));
            }
            if let Some(j) = o.get("jit").and_then(Value::as_bool) {
                options = options.jit(j);
            }
            #[allow(clippy::cast_possible_truncation)]
            if let Some(j) = o.get("jobs").and_then(Value::as_u64) {
                options = options.jobs(j as usize);
            }
        }
        #[allow(clippy::cast_possible_truncation)]
        Ok(Request {
            verb,
            source,
            entry: v.str_of("entry").unwrap_or_default().to_string(),
            args: strings("args")?,
            options,
            backends: strings("backends")?,
            entry_b: v.str_of("entry_b").map(str::to_string),
            bound: v.get("bound").and_then(Value::as_u64).map(|b| b as usize),
            budget: v.get("budget").and_then(Value::as_u64).map(|b| b as usize),
            emit_dir: v.str_of("emit_dir").map(str::to_string),
            timeout_ms: v.get("timeout_ms").and_then(Value::as_u64),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonin;

    const GCD: &str = "int gcd(int a, int b) {
        while (b != 0) { int t = b; b = a % b; a = t; }
        return a;
    }";

    fn req(verb: &str) -> Request {
        Request {
            verb: verb.to_string(),
            source: Source::Text(GCD.to_string()),
            entry: "gcd".to_string(),
            args: vec!["48".to_string(), "36".to_string()],
            ..Request::default()
        }
    }

    #[test]
    fn run_produces_text_and_data() {
        let h = handle(&req("run"), &ServiceCtx::uncached()).unwrap();
        assert!(h.response.ok);
        assert!(!h.cached);
        assert_eq!(h.response.text, "ret = 12\n");
        assert!(
            h.response.data.contains(r#""ret":12"#),
            "{}",
            h.response.data
        );
    }

    #[test]
    fn check_reports_every_backend() {
        let h = handle(&req("check"), &ServiceCtx::uncached()).unwrap();
        assert!(h.response.ok);
        for b in ["cones", "c2v", "cash"] {
            assert!(
                h.response.text.contains(b),
                "missing {b}:\n{}",
                h.response.text
            );
        }
    }

    #[test]
    fn check_data_tags_every_verdict() {
        let results: Vec<(&'static str, Verdict)> = vec![
            (
                "c2v",
                Verdict::Pass {
                    cycles: Some(37),
                    time_units: None,
                },
            ),
            ("cones", Verdict::Unsupported("loop".into())),
            (
                "cyber",
                Verdict::Mismatch {
                    got: "1".into(),
                    expected: "2".into(),
                },
            ),
        ];
        let j = check_data("gcd", 2, false, &results).to_string();
        assert!(
            j.starts_with(r#"{"entry":"gcd","jobs":2,"jit":false,"results":["#),
            "{j}"
        );
        assert!(
            j.contains(
                r#"{"backend":"c2v","verdict":"pass","cycles":37,"time_units":null,"detail":null}"#
            ),
            "{j}"
        );
        assert!(
            j.contains(r#"{"backend":"cones","verdict":"unsupported","cycles":null,"time_units":null,"detail":"loop"}"#),
            "{j}"
        );
        assert!(
            j.contains(r#"{"backend":"cyber","verdict":"mismatch","cycles":null,"time_units":null,"detail":"got 1, expected 2"}"#),
            "{j}"
        );
    }

    #[test]
    fn response_memo_returns_identical_arc() {
        let cache = Arc::new(ArtifactCache::default());
        let ctx = ServiceCtx::with_cache(cache.clone());
        let cold = handle(&req("run"), &ctx).unwrap();
        let warm = handle(&req("run"), &ctx).unwrap();
        assert!(!cold.cached && warm.cached);
        assert!(
            Arc::ptr_eq(&cold.response, &warm.response),
            "hit is a pointer clone"
        );
        // One byte of source, one different response.
        let mut r2 = req("run");
        r2.source = Source::Text(format!("{GCD} "));
        let other = handle(&r2, &ctx).unwrap();
        assert!(!other.cached, "source mutation must miss");
        // One option flips, another miss.
        let mut r3 = req("run");
        r3.options = CompileOptions::new().jit(true);
        let _ = handle(&r3, &ctx); // jit may or may not run on this host; miss either way
        assert!(cache.stats().misses >= 3);
    }

    #[test]
    fn unknown_verb_and_bad_source_are_hard_errors() {
        assert!(handle(&req("explode"), &ServiceCtx::uncached()).is_err());
        let mut r = req("run");
        r.source = Source::Path("/nonexistent/x.chl".to_string());
        let e = handle(&r, &ServiceCtx::uncached()).unwrap_err();
        assert!(e.starts_with("cannot read /nonexistent/x.chl"), "{e}");
    }

    #[test]
    fn request_round_trips_through_wire_json() {
        let mut r = req("equiv");
        r.backends = vec!["handelc".to_string(), "transmogrifier".to_string()];
        r.entry_b = Some("gcd".to_string());
        r.bound = Some(60);
        r.budget = Some(12);
        r.emit_dir = Some("/tmp/frontier".to_string());
        r.timeout_ms = Some(5000);
        r.options = CompileOptions::new()
            .backend(Some("c2v"))
            .narrow(true)
            .unroll(Some(4))
            .jit(false)
            .jobs(3);
        let wire = r.to_json();
        let back = Request::from_json(&jsonin::parse(&wire).unwrap()).unwrap();
        assert_eq!(back.verb, r.verb);
        assert_eq!(back.source, r.source);
        assert_eq!(back.entry, r.entry);
        assert_eq!(back.args, r.args);
        assert_eq!(back.backends, r.backends);
        assert_eq!(back.entry_b, r.entry_b);
        assert_eq!(back.bound, r.bound);
        assert_eq!(back.budget, r.budget);
        assert_eq!(back.emit_dir, r.emit_dir);
        assert_eq!(back.timeout_ms, r.timeout_ms);
        assert_eq!(back.options, r.options);
    }

    #[test]
    fn schema_verb_documents_every_service_verb() {
        let h = handle(
            &Request {
                verb: "schema".to_string(),
                ..Request::default()
            },
            &ServiceCtx::uncached(),
        )
        .unwrap();
        for v in verbs::TABLE.iter().filter(|v| !matches!(v.run, Run::Cli)) {
            let row = format!("\"verb\":\"{}\"", v.name);
            assert!(h.response.data.contains(&row), "{}", v.name);
        }
    }
}

//! # chls-analysis
//!
//! Static analysis over HIR: everything `chls lint` knows how to say
//! about a program *before* any backend runs.
//!
//! Three analyses, each motivated by a failure mode the paper attributes
//! to C-like hardware languages:
//!
//! * **Par-race detection** ([`race`]) — `par` makes arm interleaving a
//!   hardware artifact; unsynchronized shared access is nondeterminism.
//!   The detector computes may-read/may-write effects ([`effects`]) per
//!   arm, resolving pointer accesses through the Andersen points-to
//!   query ([`chls_opt::points_to`]), and reports conflicting pairs with
//!   both source locations.
//! * **Per-backend synthesizability** ([`backend_lint`]) — the same
//!   program means nine different things to the nine paradigms; the lint
//!   reports pre-synthesis what each one rejects or penalizes.
//! * **Static cycle bounds** ([`cycles`]) — for the two backends whose
//!   timing rule is a sentence (Handel-C, Transmogrifier C), evaluate
//!   the rule statically to a `[min, max]` latency interval.
//! * **Process-network analysis** ([`flow`]) — the `chls flow` verb:
//!   SDF balance equations, structural deadlock detection via an
//!   abstract token game, minimal bounded-FIFO sizing, and `@ii(n)`
//!   timed-interface contract checking.
//! * **Dataflow lint clients** ([`memlint`]) — the abstract-interpretation
//!   engine in [`chls_ir::dataflow`] drives three definite-only checks
//!   over the prepared sequential IR: out-of-bounds accesses,
//!   uninitialized reads (of memories at the IR level and of scalars via
//!   a HIR must-init walk), and provably dead branches.
//!
//! The entry point is [`lint_program`]; `chls-core` wires it to the
//! `chls lint` CLI verb and serializes the result.

pub mod backend_lint;
pub mod callgraph;
pub mod cycles;
pub mod effects;
pub mod flow;
pub mod memlint;
pub mod race;
pub mod repair;

pub use backend_lint::{check_backends, detect_features, BackendFinding, Features};
pub use callgraph::CallGraph;
pub use cycles::{handelc_block_interval, handelc_interval, transmogrifier_interval, Interval};
pub use effects::{block_effects, Access, AccessKind, Loc};
pub use flow::{flow_program, Balance, FlowReport};
pub use memlint::{check_dead_branches, check_memory, check_uninit_scalars};
pub use race::find_races;
pub use repair::{assess_repairs, RepairAssessment, RepairVerdict};

use chls_backends::{construct_support, Preparer};
use chls_frontend::diag::Diagnostic;
use chls_frontend::hir::HirFunc;
use chls_opt::points_to;
use std::fmt;

/// A static latency interval under one backend's timing rule.
#[derive(Debug, Clone, Copy)]
pub struct CycleBound {
    /// Backend whose rule was evaluated.
    pub backend: &'static str,
    /// The bound.
    pub interval: Interval,
}

/// Everything the lint pass found.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// Entry function analyzed.
    pub entry: String,
    /// Backend filter the caller requested, if any.
    pub backend: Option<String>,
    /// Par-race diagnostics (error severity).
    pub races: Vec<Diagnostic>,
    /// Warnings carried over from semantic analysis (e.g. unused locals).
    pub warnings: Vec<Diagnostic>,
    /// Memory-safety diagnostics from the dataflow engine: definite
    /// out-of-bounds accesses (errors) and definite uninitialized reads
    /// (warnings), both at the IR level and for scalars at the HIR level.
    pub memory: Vec<Diagnostic>,
    /// Branches whose condition the interval analysis proves constant
    /// (warning severity).
    pub dead_branches: Vec<Diagnostic>,
    /// Constructs the (inlined) entry function exercises.
    pub features: Features,
    /// Per-backend rejections and penalties for those constructs.
    pub backend_findings: Vec<BackendFinding>,
    /// Static cycle bounds, for the timing-rule backends that apply.
    pub cycle_bounds: Vec<CycleBound>,
}

impl LintReport {
    /// Whether the program has findings that make synthesis fail or
    /// behave nondeterministically: any error-severity race (memory
    /// conflicts; channel-endpoint merges are warnings), any definite
    /// memory error (out of bounds), or (when a backend filter was
    /// given) any outright rejection by that backend.
    pub fn has_errors(&self) -> bool {
        self.races
            .iter()
            .any(|d| d.severity == chls_frontend::diag::Severity::Error)
            || self
                .memory
                .iter()
                .any(|d| d.severity == chls_frontend::diag::Severity::Error)
            || (self.backend.is_some() && self.backend_findings.iter().any(|f| f.is_rejection()))
    }

    /// Renders the report as human-readable text, resolving spans
    /// against `src`.
    pub fn render(&self, src: &str) -> String {
        let mut out = String::new();
        for w in &self.warnings {
            out.push_str(&w.render(src));
            out.push('\n');
        }
        for r in &self.races {
            out.push_str(&r.render(src));
            out.push('\n');
        }
        for d in self.memory.iter().chain(&self.dead_branches) {
            out.push_str(&d.render(src));
            out.push('\n');
        }
        let used = self.used_constructs();
        if used.is_empty() {
            out.push_str("constructs: (none beyond plain sequential C)\n");
        } else {
            out.push_str(&format!("constructs: {}\n", used.join(", ")));
        }
        if !self.backend_findings.is_empty() {
            out.push_str("backend support:\n");
            for f in &self.backend_findings {
                let detail = f
                    .detail
                    .as_ref()
                    .map(|d| format!(" ({d})"))
                    .unwrap_or_default();
                let repair = match (f.repairable, f.rewrite) {
                    (true, Some(pass)) => {
                        format!(" [repairable: `chls rewrite` pass {pass}]")
                    }
                    (false, Some(_)) => " [not provably repairable]".to_string(),
                    _ => String::new(),
                };
                out.push_str(&format!(
                    "  {:<15} {:<9} {}{}: {}{}\n",
                    f.backend, f.status, f.construct, detail, f.reason, repair
                ));
            }
        }
        if !self.cycle_bounds.is_empty() {
            out.push_str("cycle bounds:\n");
            for c in &self.cycle_bounds {
                out.push_str(&format!("  {:<15} {} cycles\n", c.backend, c.interval));
            }
        }
        let rejections = self
            .backend_findings
            .iter()
            .filter(|f| f.is_rejection())
            .count();
        let penalties = self.backend_findings.len() - rejections;
        out.push_str(&format!(
            "summary: {} race{}, {} memory finding{}, {} dead branch{}, {} rejection{}, {} penalt{}\n",
            self.races.len(),
            if self.races.len() == 1 { "" } else { "s" },
            self.memory.len(),
            if self.memory.len() == 1 { "" } else { "s" },
            self.dead_branches.len(),
            if self.dead_branches.len() == 1 { "" } else { "es" },
            rejections,
            if rejections == 1 { "" } else { "s" },
            penalties,
            if penalties == 1 { "y" } else { "ies" },
        ));
        out
    }

    fn used_constructs(&self) -> Vec<String> {
        let f = &self.features;
        let mut v = Vec::new();
        if f.par {
            v.push("par".to_string());
        }
        if f.channels {
            v.push("channels".to_string());
        }
        if f.delay {
            v.push("delay".to_string());
        }
        if f.pointers {
            v.push("pointers".to_string());
        }
        if !f.multi_target_pointers.is_empty() {
            v.push(format!(
                "multi-target pointers (`{}`)",
                f.multi_target_pointers.join("`, `")
            ));
        }
        if f.data_dependent_loops {
            v.push("data-dependent loops".to_string());
        }
        if f.timing_constraints {
            v.push("timing constraints".to_string());
        }
        if f.recursion {
            v.push("recursion".to_string());
        }
        v
    }
}

/// Lint failure: the request itself was malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LintError {
    /// The entry function does not exist.
    NoSuchFunction(String),
    /// The backend filter names no known paradigm.
    UnknownBackend(String),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::NoSuchFunction(n) => write!(f, "no function named `{n}`"),
            LintError::UnknownBackend(b) => write!(f, "unknown backend `{b}`"),
        }
    }
}

impl std::error::Error for LintError {}

/// Runs every analysis over `prog`'s `entry` function.
///
/// Race detection and feature detection run on the *inlined* entry
/// function with pointers intact, so pointer accesses resolve through
/// points-to facts rather than being rewritten away first. Cycle bounds
/// run on the fully prepared form ([`Preparer::structured`]) — the same
/// HIR the structured backends execute — and are omitted when
/// preparation fails (e.g. recursion) or when the timing-rule backend
/// would reject the program anyway. Both preparations come from `prep`'s
/// memo, so a later synthesis of the same program reuses them.
pub fn lint_program(
    prep: &Preparer,
    entry: &str,
    backend: Option<&str>,
) -> Result<LintReport, LintError> {
    let prog = prep.hir();
    if let Some(b) = backend {
        if construct_support(b).is_none() {
            return Err(LintError::UnknownBackend(b.to_string()));
        }
    }
    let (entry_id, entry_func) = prog
        .func_by_name(entry)
        .ok_or_else(|| LintError::NoSuchFunction(entry.to_string()))?;

    // Inline so effects of callees land in the caller's `par` arms; fall
    // back to the bare entry function when inlining fails (recursion),
    // which still lints the entry body itself.
    let inlined = chls_opt::inline_program(prog, entry_id).ok();
    let func: &HirFunc = inlined.as_ref().map(|p| &p.funcs[0]).unwrap_or(entry_func);

    let pts = points_to(func);
    let races = find_races(func, &pts);
    let mut features = detect_features(func, &pts);
    // Recursion is a property of the call graph, not of any one body;
    // the relaxed frontend lets recursive programs reach the lint, and
    // here they become findings instead of parse-time death.
    let cg = callgraph::CallGraph::build(prog);
    features.recursion = cg.has_reachable_recursion(prog, entry_id);
    let mut backend_findings = check_backends(&features, backend);

    // Classify each rejection as mechanically repairable or not by
    // dry-running the certified rewriter (`chls rewrite`).
    if backend_findings.iter().any(|f| {
        matches!(
            f.construct,
            "recursion" | "pointers" | "multi_target_pointers" | "data_dependent_loops"
        )
    }) {
        let assessment = repair::assess_repairs(prog, entry);
        for f in &mut backend_findings {
            let v = assessment.verdict_for(f.construct);
            f.repairable = v.repairable;
            f.rewrite = v.rewrite;
        }
    }

    // Dataflow clients. Scalar use-before-init walks the inlined HIR
    // (SSA construction would erase the distinction); the memory and
    // dead-branch checks run on the prepared sequential IR, so they are
    // skipped when preparation fails (concurrency constructs,
    // recursion) — exactly the programs with no sequential lowering to
    // check.
    let mut memory = memlint::check_uninit_scalars(func);
    let mut dead_branches = Vec::new();
    if let Ok(prepared) = prep.sequential(entry, false, false, None) {
        memory.extend(memlint::check_memory(&prepared.func));
        dead_branches = memlint::check_dead_branches(&prepared.func);
    }

    let mut cycle_bounds = Vec::new();
    if let Ok(prepared) = prep.structured(entry, None) {
        let pf = &prepared.prog.funcs[0];
        let wants = |b: &str| backend.is_none_or(|sel| sel == b);
        if wants("handelc") {
            cycle_bounds.push(CycleBound {
                backend: "handelc",
                interval: handelc_interval(pf),
            });
        }
        // The sequential pipeline (and hence Transmogrifier) refuses
        // concurrency constructs; no rule to evaluate then.
        if wants("transmogrifier") && !features.par && !features.channels && !features.delay {
            cycle_bounds.push(CycleBound {
                backend: "transmogrifier",
                interval: transmogrifier_interval(pf),
            });
        }
    }

    Ok(LintReport {
        entry: entry.to_string(),
        backend: backend.map(str::to_string),
        races,
        warnings: prog.warnings.clone(),
        memory,
        dead_branches,
        features,
        backend_findings,
        cycle_bounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chls_frontend::compile_to_hir;

    fn hir(src: &str) -> Preparer {
        Preparer::new(compile_to_hir(src).expect("compile"))
    }

    #[test]
    fn clean_program_has_no_races() {
        let prog = hir("int main(int a) { int x = 0; int y = 0; par { { x = a; } { y = a + 1; } } return x + y; }");
        let r = lint_program(&prog, "main", None).unwrap();
        assert!(r.races.is_empty(), "races: {:?}", r.races);
        assert!(!r.has_errors());
        assert!(r.features.par);
    }

    #[test]
    fn direct_write_write_race_is_detected() {
        let prog = hir("int main() { int x = 0; par { { x = 1; } { x = 2; } } return x; }");
        let r = lint_program(&prog, "main", None).unwrap();
        assert_eq!(r.races.len(), 1);
        assert!(r.races[0].message.contains("write/write race on `x`"));
        assert_eq!(r.races[0].notes.len(), 2, "both accesses must be anchored");
        assert!(r.has_errors());
    }

    #[test]
    fn pointer_alias_race_is_detected_via_points_to() {
        // The motivating program: the second arm writes through
        // `p`, which aliases `x` only per the points-to analysis.
        let prog =
            hir("int main() { int x = 0; int *p = &x; par { { x = 1; } { *p = 2; } } return x; }");
        let r = lint_program(&prog, "main", None).unwrap();
        assert_eq!(r.races.len(), 1, "races: {:?}", r.races);
        let d = &r.races[0];
        assert!(
            d.message.contains("race on `x`") && d.message.contains("`p`"),
            "message should name both the location and the pointer: {}",
            d.message
        );
    }

    #[test]
    fn read_write_race_is_detected() {
        let prog =
            hir("int main() { int x = 0; int y = 0; par { { x = 1; } { y = x; } } return y; }");
        let r = lint_program(&prog, "main", None).unwrap();
        assert_eq!(r.races.len(), 1);
        assert!(r.races[0].message.contains("read/write race on `x`"));
    }

    #[test]
    fn send_recv_pair_is_not_a_race() {
        let prog = hir(
            "int main(int a) { chan<int> c; int got = 0; par { { send(c, a); } { got = recv(c); } } return got; }",
        );
        let r = lint_program(&prog, "main", None).unwrap();
        assert!(
            r.races.is_empty(),
            "rendezvous is not a race: {:?}",
            r.races
        );
    }

    #[test]
    fn competing_senders_are_a_nondeterministic_merge_warning() {
        let prog = hir(
            "int main(int a) { chan<int> c; int got = 0; par { { send(c, a); } { send(c, a + 1); } { got = recv(c); got = got + recv(c); } } return got; }",
        );
        let r = lint_program(&prog, "main", None).unwrap();
        let d = r
            .races
            .iter()
            .find(|d| d.message.contains("send/send"))
            .expect("merge reported");
        assert!(
            d.message.contains("nondeterministic merge"),
            "message: {}",
            d.message
        );
        assert_eq!(d.severity, chls_frontend::diag::Severity::Warning);
        // A merge alone is not an error — the program still completes.
        assert!(!r.has_errors());
    }

    #[test]
    fn competing_receivers_are_warned_too() {
        let prog = hir(
            "int main(int a) { chan<int> c; int x = 0; int y = 0; par { { send(c, a); send(c, a + 1); } { x = recv(c); } { y = recv(c); } } return x + y; }",
        );
        let r = lint_program(&prog, "main", None).unwrap();
        assert!(
            r.races
                .iter()
                .any(|d| d.message.contains("recv/recv")
                    && d.message.contains("nondeterministic merge")),
            "races: {:?}",
            r.races
        );
        assert!(!r.has_errors());
    }

    #[test]
    fn race_through_inlined_callee() {
        // The write hides inside a callee; inlining exposes it.
        let prog = hir(
            "void bump(int *q) { *q = 7; } int main() { int x = 0; par { { x = 1; } { bump(&x); } } return x; }",
        );
        let r = lint_program(&prog, "main", None).unwrap();
        assert_eq!(r.races.len(), 1, "races: {:?}", r.races);
    }

    #[test]
    fn disjoint_arms_are_clean_even_with_pointers() {
        let prog = hir(
            "int main() { int x = 0; int y = 0; int *p = &y; par { { x = 1; } { *p = 2; } } return x + y; }",
        );
        let r = lint_program(&prog, "main", None).unwrap();
        assert!(r.races.is_empty(), "p targets only y: {:?}", r.races);
    }

    #[test]
    fn backend_findings_flag_rejections() {
        let prog = hir("int main() { int x = 0; par { { x = 1; } { delay; } } return x; }");
        let r = lint_program(&prog, "main", None).unwrap();
        // Every sequential-pipeline backend must reject `par`.
        for b in ["transmogrifier", "c2v", "cash", "cones", "cyber"] {
            assert!(
                r.backend_findings
                    .iter()
                    .any(|f| f.backend == b && f.construct == "par" && f.is_rejection()),
                "{b} should reject par"
            );
        }
        // Handel-C is the paradigm built for this program.
        assert!(!r
            .backend_findings
            .iter()
            .any(|f| f.backend == "handelc" && f.is_rejection()));
    }

    #[test]
    fn backend_filter_limits_findings_and_flags_errors() {
        let prog = hir("int main() { chan<int> c; int x = 0; par { { send(c, 3); } { x = recv(c); } } return x; }");
        let all = lint_program(&prog, "main", None).unwrap();
        assert!(!all.has_errors(), "no filter: rejections are informative");
        let one = lint_program(&prog, "main", Some("cones")).unwrap();
        assert!(one.backend_findings.iter().all(|f| f.backend == "cones"));
        assert!(one.has_errors(), "cones rejects this program");
    }

    #[test]
    fn unknown_backend_is_an_error() {
        let prog = hir("int main() { return 0; }");
        assert_eq!(
            lint_program(&prog, "main", Some("vhdl")).err(),
            Some(LintError::UnknownBackend("vhdl".to_string()))
        );
        assert_eq!(
            lint_program(&prog, "nope", None).err(),
            Some(LintError::NoSuchFunction("nope".to_string()))
        );
    }

    #[test]
    fn handelc_bound_is_exact_for_straight_line() {
        // entry + 3 assignments (x=a, x=x+1, ret) + done... the return
        // carries its own cycle: entry(1) + x=a(1) + x=x+1(1) + ret(1)
        // + done(1) = 5.
        let prog = hir("int main(int a) { int x = a; x = x + 1; return x; }");
        let r = lint_program(&prog, "main", Some("handelc")).unwrap();
        let b = &r.cycle_bounds[0];
        assert_eq!(b.backend, "handelc");
        assert_eq!(b.interval, Interval::exact(5), "got {}", b.interval);
    }

    #[test]
    fn transmogrifier_bound_is_two_for_straight_line() {
        let prog = hir("int main(int a) { int x = a; x = x + 1; return x; }");
        let r = lint_program(&prog, "main", Some("transmogrifier")).unwrap();
        assert_eq!(r.cycle_bounds[0].interval, Interval::exact(2));
    }

    #[test]
    fn counted_loop_bounds_are_finite() {
        let prog = hir(
            "int main(int a) { int acc = 0; for (int i = 0; i < 4; i = i + 1) { acc = acc + a; } return acc; }",
        );
        let r = lint_program(&prog, "main", None).unwrap();
        for b in &r.cycle_bounds {
            assert!(b.interval.max.is_some(), "{}: {}", b.backend, b.interval);
        }
    }

    #[test]
    fn data_dependent_loop_is_unbounded_above() {
        let prog = hir("int main(int a) { int x = a; while (x > 1) { x = x - 2; } return x; }");
        let r = lint_program(&prog, "main", Some("handelc")).unwrap();
        let b = &r.cycle_bounds[0];
        assert!(b.interval.max.is_none());
        assert!(r.features.data_dependent_loops);
    }

    #[test]
    fn unused_local_warning_is_carried() {
        let prog = hir("int main(int a) { int dead = a; int x = a + 1; return x; }");
        let r = lint_program(&prog, "main", None).unwrap();
        assert!(
            r.warnings.iter().any(|w| w.message.contains("dead")),
            "warnings: {:?}",
            r.warnings
        );
    }
}

//! Per-backend synthesizability lint.
//!
//! The paper's central observation is that "C" means nine different
//! things to nine different tools: the same program is fine under one
//! paradigm, slow under another, and rejected outright by a third. This
//! lint reports *before synthesis* which of a program's constructs each
//! backend rejects or penalizes, by detecting the constructs the program
//! actually exercises and looking them up in the construct-support
//! matrix ([`chls_backends::CONSTRUCT_MATRIX`]).

use chls_backends::{construct_support, ConstructSupport, Support, CONSTRUCT_MATRIX};
use chls_frontend::hir::*;
use chls_opt::PointsTo;

/// The synthesizability-relevant constructs a function exercises.
#[derive(Debug, Clone, Default)]
pub struct Features {
    /// Contains `par { ... }`.
    pub par: bool,
    /// Declares channels or performs `send`/`recv`.
    pub channels: bool,
    /// Contains `delay;`.
    pub delay: bool,
    /// Uses pointers at all (pointer-typed locals, `&`, or `*`).
    pub pointers: bool,
    /// Names of pointers whose points-to set has more than one target.
    pub multi_target_pointers: Vec<String>,
    /// Contains a loop whose trip count the canonical recognizer cannot
    /// pin down (`while`, `do`-`while`, or a non-canonical `for`).
    pub data_dependent_loops: bool,
    /// Contains `#pragma constraint` regions.
    pub timing_constraints: bool,
    /// A recursive call cycle is reachable from the entry. Program-level:
    /// [`detect_features`] leaves it `false`; [`crate::lint_program`]
    /// sets it from the call graph.
    pub recursion: bool,
}

/// Detects the features `func` exercises. `pts` must be the points-to
/// result for the same function.
pub fn detect_features(func: &HirFunc, pts: &PointsTo) -> Features {
    let mut f = Features {
        pointers: chls_opt::uses_pointers(func),
        multi_target_pointers: pts
            .multi_target()
            .map(|id| func.local(id).name.clone())
            .collect(),
        ..Features::default()
    };
    func.body.for_each_stmt(&mut |stmt| match stmt {
        HirStmt::Par(_) => f.par = true,
        HirStmt::Send { .. } | HirStmt::Recv { .. } => f.channels = true,
        HirStmt::Delay => f.delay = true,
        HirStmt::Constraint { .. } => f.timing_constraints = true,
        // `while`/`do-while` keep no canonical induction form; their
        // trip counts are data-dependent by construction.
        HirStmt::While { .. } | HirStmt::DoWhile { .. } => f.data_dependent_loops = true,
        HirStmt::For {
            init,
            cond,
            step,
            body,
            ..
        } if chls_opt::unroll::recognize(init, cond, step, body).is_err() => {
            f.data_dependent_loops = true
        }
        _ => {}
    });
    f
}

/// One backend's complaint about one construct the program uses.
#[derive(Debug, Clone)]
pub struct BackendFinding {
    /// Backend (paradigm) name.
    pub backend: &'static str,
    /// Construct key: `par`, `channels`, `delay`, `pointers`,
    /// `multi_target_pointers`, `data_dependent_loops`,
    /// `timing_constraints`.
    pub construct: &'static str,
    /// `rejected` or `penalized`.
    pub status: &'static str,
    /// Why, in the paradigm's own terms.
    pub reason: String,
    /// What in the program triggered it, when nameable (e.g. the
    /// multi-target pointer names).
    pub detail: Option<String>,
    /// `chls rewrite` can provably repair every instance of this
    /// construct (classification is a dry run of the actual rewriter;
    /// see [`crate::repair`]).
    pub repairable: bool,
    /// Name of the repair pass, when one exists for this construct.
    pub rewrite: Option<&'static str>,
}

impl BackendFinding {
    /// Whether this finding means synthesis will fail outright.
    pub fn is_rejection(&self) -> bool {
        self.status == "rejected"
    }
}

/// Checks `features` against one backend's support row, or against every
/// row in the matrix when `backend` is `None`. Unknown backend names
/// yield an empty result; the driver validates names first.
pub fn check_backends(features: &Features, backend: Option<&str>) -> Vec<BackendFinding> {
    let rows: Vec<&'static ConstructSupport> = match backend {
        Some(name) => construct_support(name).into_iter().collect(),
        None => CONSTRUCT_MATRIX.iter().collect(),
    };
    let mut out = Vec::new();
    for row in rows {
        check_row(features, row, &mut out);
    }
    out
}

fn check_row(f: &Features, row: &ConstructSupport, out: &mut Vec<BackendFinding>) {
    let mut push = |used: bool, construct: &'static str, sup: &Support, detail: Option<String>| {
        if !used {
            return;
        }
        if let Some(reason) = sup.reason() {
            out.push(BackendFinding {
                backend: row.backend,
                construct,
                status: sup.tag(),
                reason: reason.to_string(),
                detail,
                repairable: false,
                rewrite: None,
            });
        }
    };
    push(f.par, "par", &row.par, None);
    push(f.channels, "channels", &row.channels, None);
    push(f.delay, "delay", &row.delay, None);
    push(f.pointers, "pointers", &row.pointers, None);
    push(
        !f.multi_target_pointers.is_empty(),
        "multi_target_pointers",
        &row.multi_target_pointers,
        Some(format!("`{}`", f.multi_target_pointers.join("`, `"))),
    );
    push(
        f.data_dependent_loops,
        "data_dependent_loops",
        &row.data_dependent_loops,
        None,
    );
    push(
        f.timing_constraints,
        "timing_constraints",
        &row.timing_constraints,
        None,
    );
    if f.recursion {
        // Not a column of the construct matrix: the paper's surveyed
        // tools reject recursion unconditionally (no static elaboration
        // of an unbounded call stack), so every paradigm gets the row.
        out.push(BackendFinding {
            backend: row.backend,
            construct: "recursion",
            status: "rejected",
            reason: "recursive calls cannot be elaborated to static hardware; \
                     an acyclic call graph is required"
                .to_string(),
            detail: None,
            repairable: false,
            rewrite: None,
        });
    }
}

//! Certified synthesizability repair: the engine behind `chls rewrite`.
//!
//! The optimizer's repair pipeline ([`chls_opt::rewrite`]) turns the
//! three classic C-subset rejections — recursion, data-dependent loops,
//! pointer arithmetic — into synthesizable forms. This module wraps it
//! with the part a user has to be able to trust: *certification*. Every
//! emitted program climbs a ladder of independent checks, and the verb
//! only reports `certified` when all of them hold:
//!
//! 1. **strict-compile** — the printed program re-parses under the
//!    *strict* frontend (the one every synthesis verb uses), so no
//!    residual recursion or printer artifact can slip through.
//! 2. **backend-lint** — the full static lint is clean of errors, and
//!    the per-backend acceptance count is recomputed before/after.
//! 3. **differential** — original and rewritten programs are
//!    interpreted side by side on deterministically seeded input
//!    vectors drawn from the entry's declared parameter ranges (range
//!    endpoints always included, so proved bounds are exercised at
//!    their extremes). Any divergence — value mismatch *or* a runtime
//!    error such as a stack-array overflow — is a refutation, reported
//!    with the offending inputs.
//! 4. **equiv** — where the state space is small enough to afford it
//!    (scalar-only entries within [`EQUIV_INPUT_BITS`] input bits),
//!    both programs are synthesized to FSMDs and handed to the SAT
//!    bounded-equivalence checker for a machine-checked proof.
//!
//! The ladder is deliberately falsifiable: `tests/rewrite.rs` seeds a
//! deliberately wrong rewrite (an off-by-one stack bound) and the
//! differential rung refutes it with a concrete counterexample.

use chls_backends::Preparer;
use chls_frontend::hir::HirProgram;
use chls_frontend::types::Type;
use chls_opt::rewrite::{rewrite_program, RewriteAction, RewriteOptions};
use chls_sim::interp::{self, ArgValue, InterpOptions};

/// Input-bit budget above which the SAT equivalence rung is skipped.
pub const EQUIV_INPUT_BITS: u32 = 16;

/// Sequential bound for the equivalence rung, in cycles.
pub const EQUIV_BOUND: usize = 48;

/// Differential vectors per program.
const VECTORS: usize = 8;

/// One rung of the certification ladder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertCheck {
    /// Rung name: `strict-compile`, `backend-lint`, `differential`,
    /// `equiv`.
    pub name: &'static str,
    pub status: CheckStatus,
    pub detail: String,
}

/// Outcome of one certification rung.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckStatus {
    Pass,
    Fail,
    /// Not applicable or not affordable here; never counts against
    /// certification.
    Skip,
}

impl CheckStatus {
    pub fn label(self) -> &'static str {
        match self {
            CheckStatus::Pass => "pass",
            CheckStatus::Fail => "FAIL",
            CheckStatus::Skip => "skip",
        }
    }
}

/// Everything `chls rewrite` reports.
#[derive(Debug, Clone)]
pub struct RewriteOutcome {
    pub entry: String,
    /// Every repair the rewriter performed or declined, with its proof
    /// obligations (depth bounds, trip counts) in the detail.
    pub actions: Vec<RewriteAction>,
    /// Whether any repair changed the program.
    pub changed: bool,
    /// The repaired program, printed back to CHL source.
    pub source: String,
    /// The certification ladder, in rung order.
    pub checks: Vec<CertCheck>,
    /// All non-skipped rungs passed.
    pub certified: bool,
    /// Backends (construct-matrix rows, or just the filtered one) with
    /// no outright rejection, before repair...
    pub accepted_before: usize,
    /// ...and after.
    pub accepted_after: usize,
    /// Rows considered (9, or 1 under `--backend`).
    pub backends_total: usize,
}

/// Counts construct-matrix rows with no outright rejection in `report`,
/// and the rows considered.
fn accepted_backends(report: &chls_analysis::LintReport, backend: Option<&str>) -> (usize, usize) {
    let rows: Vec<&str> = match backend {
        Some(b) => vec![b],
        None => chls_backends::CONSTRUCT_MATRIX
            .iter()
            .map(|r| r.backend)
            .collect(),
    };
    let accepted = rows
        .iter()
        .filter(|b| {
            !report
                .backend_findings
                .iter()
                .any(|f| f.backend == **b && f.is_rejection())
        })
        .count();
    (accepted, rows.len())
}

/// Splitmix-style deterministic generator — certification must be
/// reproducible, so no wall-clock or OS entropy anywhere.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[lo, hi]`.
    fn in_range(&mut self, lo: i128, hi: i128) -> i64 {
        let span = (hi - lo + 1) as u128;
        (lo + (u128::from(self.next()) % span) as i128) as i64
    }
}

/// The declared value range of a scalar parameter type.
fn scalar_range(ty: &Type) -> Option<(i128, i128)> {
    match ty {
        Type::Bool => Some((0, 1)),
        Type::Int(it) => Some((it.min_value() as i128, it.max_value() as i128)),
        _ => None,
    }
}

/// Builds `VECTORS` argument sets for `entry`'s parameters. Vector 0
/// pins every scalar to its range maximum and vector 1 to its minimum,
/// so proved depth/trip bounds are exercised at their extremes; the
/// rest are seeded draws. Returns `None` when a parameter is not
/// value-testable (channels, raw pointers).
pub(crate) fn seed_vectors(prog: &HirProgram, entry: &str) -> Option<Vec<Vec<ArgValue>>> {
    let (_, func) = prog.func_by_name(entry)?;
    let mut rng = Rng(0x43484c53); // "CHLS"
    let mut vectors = Vec::with_capacity(VECTORS);
    for v in 0..VECTORS {
        let mut args = Vec::new();
        for (_, p) in func.params() {
            match &p.ty {
                Type::Array(elem, n) => {
                    let (lo, hi) = scalar_range(elem.as_ref())?;
                    args.push(ArgValue::Array(
                        (0..*n).map(|_| rng.in_range(lo, hi)).collect(),
                    ));
                }
                ty => {
                    let (lo, hi) = scalar_range(ty)?;
                    args.push(ArgValue::Scalar(match v {
                        0 => hi as i64,
                        1 => lo as i64,
                        _ => rng.in_range(lo, hi),
                    }));
                }
            }
        }
        vectors.push(args);
    }
    Some(vectors)
}

fn fmt_args(args: &[ArgValue]) -> String {
    args.iter()
        .map(|a| match a {
            ArgValue::Scalar(v) => v.to_string(),
            ArgValue::Array(vs) => format!("{vs:?}"),
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Rung 3: side-by-side interpretation on the seeded vectors.
fn differential_check(orig: &HirProgram, new: &HirProgram, entry: &str) -> CertCheck {
    let Some(vectors) = seed_vectors(orig, entry) else {
        return CertCheck {
            name: "differential",
            status: CheckStatus::Skip,
            detail: "entry has parameters with no seedable value range".to_string(),
        };
    };
    let opts = InterpOptions::default();
    let mut ran = 0usize;
    let mut skipped = 0usize;
    for args in &vectors {
        let golden = match interp::run(orig, entry, args, &opts) {
            Ok(r) => r,
            // The *original* failing (e.g. step limit) says nothing
            // about the rewrite; skip the vector, don't hide it.
            Err(_) => {
                skipped += 1;
                continue;
            }
        };
        match interp::run(new, entry, args, &opts) {
            Err(e) => {
                return CertCheck {
                    name: "differential",
                    status: CheckStatus::Fail,
                    detail: format!(
                        "counterexample: args ({}) crash the rewritten program: {e}",
                        fmt_args(args)
                    ),
                }
            }
            Ok(r) => {
                if r.ret != golden.ret || r.arrays != golden.arrays {
                    return CertCheck {
                        name: "differential",
                        status: CheckStatus::Fail,
                        detail: format!(
                            "counterexample: args ({}) give ret={:?} but the original gives ret={:?}",
                            fmt_args(args),
                            r.ret,
                            golden.ret
                        ),
                    };
                }
                ran += 1;
            }
        }
    }
    if ran == 0 {
        return CertCheck {
            name: "differential",
            status: CheckStatus::Skip,
            detail: "no vector completed in the original program".to_string(),
        };
    }
    let note = if skipped > 0 {
        format!(" ({skipped} skipped: original did not complete)")
    } else {
        String::new()
    };
    CertCheck {
        name: "differential",
        status: CheckStatus::Pass,
        detail: format!("{ran}/{} seeded vectors agree{note}", vectors.len()),
    }
}

/// Rung 4: SAT bounded equivalence of the two FSMDs, where affordable.
fn equiv_check(orig_src: &str, new_src: &str, entry: &str, orig: &HirProgram) -> CertCheck {
    let skip = |detail: String| CertCheck {
        name: "equiv",
        status: CheckStatus::Skip,
        detail,
    };
    let Some((_, func)) = orig.func_by_name(entry) else {
        return skip("entry not found".to_string());
    };
    let mut bits = 0u32;
    for (_, p) in func.params() {
        match &p.ty {
            Type::Array(..) => {
                return skip(
                    "entry takes array parameters; differential rung covers it".to_string(),
                )
            }
            Type::Bool => bits += 1,
            Type::Int(it) => bits += u32::from(it.width),
            _ => return skip("entry takes non-scalar parameters".to_string()),
        }
    }
    if bits > EQUIV_INPUT_BITS {
        return skip(format!(
            "{bits} input bits exceed the {EQUIV_INPUT_BITS}-bit SAT budget; \
             differential rung covers it"
        ));
    }
    // Strict parses: an original that does not compile strictly (it was
    // recursive) has no design to compare against.
    let synth = |src: &str| -> Result<chls_rtl::Fsmd, String> {
        let compiler = crate::Compiler::parse(src).map_err(|e| e.to_string())?;
        let backend =
            crate::registry::backend_by_name("c2v").ok_or_else(|| "no c2v backend".to_string())?;
        match compiler.synthesize(
            backend.as_ref(),
            entry,
            &chls_backends::SynthOptions::default(),
        ) {
            Ok(crate::Design::Fsmd(f)) => Ok(f),
            Ok(_) => Err("not an FSMD design".to_string()),
            Err(e) => Err(e.to_string()),
        }
    };
    let a = match synth(orig_src) {
        Ok(f) => f,
        Err(e) => return skip(format!("original does not synthesize to an FSMD: {e}")),
    };
    let b = match synth(new_src) {
        Ok(f) => f,
        Err(e) => {
            return skip(format!(
                "rewritten program does not synthesize to an FSMD: {e}"
            ))
        }
    };
    match chls_logic::check_seq_equiv(&a, &b, EQUIV_BOUND, &chls_logic::EquivOptions::default()) {
        Err(e) => skip(format!("checker error: {e}")),
        Ok(report) => match report.verdict {
            chls_logic::Verdict::Equivalent => CertCheck {
                name: "equiv",
                status: CheckStatus::Pass,
                detail: format!(
                    "proved equivalent on all inputs that finish within {EQUIV_BOUND} cycles \
                     [method {}, {} aig nodes]",
                    report.method.name(),
                    report.aig_nodes
                ),
            },
            chls_logic::Verdict::Differ(cex) => CertCheck {
                name: "equiv",
                status: CheckStatus::Fail,
                detail: format!(
                    "counterexample at `{}`: {:?} gives {} vs {}",
                    cex.output, cex.inputs, cex.a_value, cex.b_value
                ),
            },
            chls_logic::Verdict::Unknown(why) => skip(format!("undecided: {why}")),
        },
    }
}

/// Repairs `src`'s entry and climbs the certification ladder.
///
/// # Errors
///
/// Hard failures only: frontend diagnostics other than recursion,
/// unknown entry, unknown `--backend` name. A rewrite that cannot be
/// proved or certified is an `Ok` outcome with `certified: false`.
pub fn rewrite_and_certify(
    src: &str,
    entry: &str,
    rw_opts: &RewriteOptions,
    backend: Option<&str>,
) -> Result<RewriteOutcome, String> {
    if let Some(b) = backend {
        if chls_backends::construct_support(b).is_none() {
            return Err(format!("unknown backend `{b}` (try `chls backends`)"));
        }
    }
    // Relaxed parse: recursion must reach the rewriter, not die here.
    let orig = chls_frontend::compile_to_hir_relaxed(src).map_err(|e| e.render(src))?;
    let result = rewrite_program(&orig, entry, rw_opts)?;
    let new_src = chls_frontend::chlprint::print_program(&result.prog, Some(entry));
    let orig = Preparer::new(orig);

    let before = chls_analysis::lint_program(&orig, entry, backend).map_err(|e| e.to_string())?;
    let (accepted_before, backends_total) = accepted_backends(&before, backend);
    let mut checks = Vec::new();

    // Rung 1: strict re-compile of the printed source.
    let strict = chls_frontend::compile_to_hir(&new_src);
    let new_hir = match strict {
        Ok(hir) => {
            checks.push(CertCheck {
                name: "strict-compile",
                status: CheckStatus::Pass,
                detail: "rewritten source re-parses under the strict frontend".to_string(),
            });
            Some(Preparer::new(hir))
        }
        Err(e) => {
            checks.push(CertCheck {
                name: "strict-compile",
                status: CheckStatus::Fail,
                detail: e.to_string(),
            });
            None
        }
    };

    // Rung 2: full static lint of the rewritten program.
    let mut accepted_after = 0;
    match &new_hir {
        None => checks.push(CertCheck {
            name: "backend-lint",
            status: CheckStatus::Skip,
            detail: "no strictly-compiled program to lint".to_string(),
        }),
        Some(new) => {
            let report =
                chls_analysis::lint_program(new, entry, backend).map_err(|e| e.to_string())?;
            let clean = !report.has_errors();
            accepted_after = accepted_backends(&report, backend).0;
            checks.push(CertCheck {
                name: "backend-lint",
                status: if clean {
                    CheckStatus::Pass
                } else {
                    CheckStatus::Fail
                },
                detail: format!(
                    "lint {}; {accepted_after}/{backends_total} backends accept (was \
                     {accepted_before}/{backends_total})",
                    if clean { "clean" } else { "has errors" }
                ),
            });
        }
    }

    // Rungs 3 and 4 need a strictly-compiled program to compare.
    match &new_hir {
        None => {
            checks.push(CertCheck {
                name: "differential",
                status: CheckStatus::Skip,
                detail: "no strictly-compiled program to run".to_string(),
            });
            checks.push(CertCheck {
                name: "equiv",
                status: CheckStatus::Skip,
                detail: "no strictly-compiled program to synthesize".to_string(),
            });
        }
        Some(new) => {
            checks.push(differential_check(orig.hir(), new.hir(), entry));
            checks.push(equiv_check(src, &new_src, entry, orig.hir()));
        }
    }

    let certified = checks.iter().all(|c| c.status != CheckStatus::Fail)
        && checks
            .iter()
            .any(|c| c.name == "strict-compile" && c.status == CheckStatus::Pass);
    Ok(RewriteOutcome {
        entry: entry.to_string(),
        actions: result.actions,
        changed: result.changed,
        source: new_src,
        checks,
        certified,
        accepted_before,
        accepted_after,
        backends_total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIB: &str = "uint<16> fib(uint<4> n) {
        if (n < 2) return (uint<16>)n;
        return fib(n - 1) + fib(n - 2);
    }";

    #[test]
    fn fib_is_repaired_and_certified() {
        let out = rewrite_and_certify(FIB, "fib", &RewriteOptions::default(), None).unwrap();
        assert!(out.changed);
        assert!(out.certified, "checks: {:?}", out.checks);
        assert_eq!(out.accepted_before, 0, "recursion: all nine reject");
        assert!(out.accepted_after >= 8, "only cones may still reject");
        assert!(out.source.contains("fib"));
    }

    #[test]
    fn off_by_one_stack_is_refuted_by_differential_rung() {
        let opts = RewriteOptions {
            stack_cap_override: Some(14), // proved depth for uint<4> fib is 15
            ..RewriteOptions::default()
        };
        let out = rewrite_and_certify(FIB, "fib", &opts, None).unwrap();
        assert!(!out.certified, "an undersized stack must not certify");
        let diff = out
            .checks
            .iter()
            .find(|c| c.name == "differential")
            .unwrap();
        assert_eq!(diff.status, CheckStatus::Fail);
        assert!(diff.detail.contains("counterexample"), "{}", diff.detail);
    }

    #[test]
    fn unrepairable_loop_is_not_certified_as_accepted_everywhere() {
        let src =
            "int gcd(int a, int b) { while (b != 0) { int t = a % b; a = b; b = t; } return a; }";
        let out = rewrite_and_certify(src, "gcd", &RewriteOptions::default(), None).unwrap();
        assert!(!out.changed, "nothing provable to repair");
        // The program itself still lints clean and compiles: certification
        // holds, but acceptance does not improve.
        assert_eq!(out.accepted_before, out.accepted_after);
        assert!(out.actions.iter().any(|a| !a.applied));
    }

    #[test]
    fn bitcount_gets_sat_equivalence_proof() {
        let src = "uint<4> bitcount(uint<8> x) {
            uint<4> c = 0;
            while (x != 0) { c = c + (uint<4>)(x & 1); x = x >> 1; }
            return c;
        }";
        let out = rewrite_and_certify(src, "bitcount", &RewriteOptions::default(), None).unwrap();
        assert!(out.changed);
        assert!(out.certified, "checks: {:?}", out.checks);
        let equiv = out.checks.iter().find(|c| c.name == "equiv").unwrap();
        assert_eq!(
            equiv.status,
            CheckStatus::Pass,
            "8-bit scalar entry is inside the SAT budget: {}",
            equiv.detail
        );
    }
}

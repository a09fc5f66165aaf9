//! Integration tests for `chls rewrite`: the software-idiom corpus in
//! `examples/chl/software/` must be auto-repaired into forms that every
//! accepting backend synthesizes conformantly (sequential and parallel
//! job fan-out), the SAT equivalence rung must fire where the program is
//! bounded enough, and — the part that keeps the certifier honest — a
//! deliberately wrong rewrite (off-by-one stack bound) must be refuted
//! with a counterexample that the hardware simulator confirms.

use chls::interp::ArgValue;
use chls::{
    backend_by_name, check_conformance, rewrite_and_certify, simulate_design, CheckStatus,
    CompileOptions, Compiler, SynthOptions, Verdict,
};
use chls_opt::rewrite::RewriteOptions;
use std::path::Path;

/// One corpus program: file, entry point, representative arguments for
/// conformance, and the backends allowed to refuse the *rewritten* form
/// (cones cannot take the stack machine's data-dependent dispatch loop,
/// exactly as its construct matrix says).
struct Case {
    file: &'static str,
    entry: &'static str,
    args: Vec<ArgValue>,
    may_refuse: &'static [&'static str],
    /// Expected accepted-backend count after rewriting, over the full
    /// 9-row construct matrix (7 compilers + 2 lint-only rows).
    accepted_after: usize,
}

fn corpus() -> Vec<Case> {
    let ramp16: Vec<i64> = (0..16).map(|i| i64::from(3 * i - 7)).collect();
    vec![
        Case {
            file: "fib.chl",
            entry: "fib",
            args: vec![ArgValue::Scalar(10)],
            may_refuse: &["cones"],
            accepted_after: 8,
        },
        Case {
            file: "fact.chl",
            entry: "fact",
            args: vec![ArgValue::Scalar(9)],
            may_refuse: &[],
            accepted_after: 9,
        },
        Case {
            file: "bsearch.chl",
            entry: "bsearch",
            args: vec![ArgValue::Array(ramp16.clone()), ArgValue::Scalar(14)],
            may_refuse: &[],
            accepted_after: 9,
        },
        Case {
            file: "memcpy_walk.chl",
            entry: "memcpy_walk",
            args: vec![
                ArgValue::Array(vec![0; 64]),
                ArgValue::Array((0..64).map(|i| 1000 - i).collect()),
                ArgValue::Scalar(37),
            ],
            may_refuse: &[],
            accepted_after: 9,
        },
        Case {
            file: "matmul.chl",
            entry: "matmul",
            args: vec![
                ArgValue::Array(ramp16.clone()),
                ArgValue::Array((0..16).map(|i| (i * i) % 11 - 5).collect()),
                ArgValue::Array(vec![0; 16]),
            ],
            may_refuse: &[],
            accepted_after: 9,
        },
        Case {
            file: "bitcount.chl",
            entry: "bitcount",
            args: vec![ArgValue::Scalar(0xA7)],
            may_refuse: &[],
            accepted_after: 9,
        },
    ]
}

fn load(file: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples/chl/software")
        .join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Every corpus program is repaired, certified, and gains backends.
#[test]
fn corpus_rewrites_are_certified() {
    for case in corpus() {
        let src = load(case.file);
        let outcome = rewrite_and_certify(&src, case.entry, &RewriteOptions::default(), None)
            .unwrap_or_else(|e| panic!("{}: {e}", case.file));
        assert!(
            outcome.changed,
            "{}: rewriter left the program alone",
            case.file
        );
        assert!(
            outcome.certified,
            "{}: not certified: {:?}",
            case.file, outcome.checks
        );
        assert!(
            outcome.accepted_after > outcome.accepted_before,
            "{}: no backend gained ({} -> {})",
            case.file,
            outcome.accepted_before,
            outcome.accepted_after
        );
        assert_eq!(
            outcome.accepted_after, case.accepted_after,
            "{}: accepted-after drifted from the documented table",
            case.file
        );
        for check in &outcome.checks {
            assert!(
                !matches!(check.status, CheckStatus::Fail),
                "{}: rung {} failed: {}",
                case.file,
                check.name,
                check.detail
            );
        }
    }
}

/// The rewritten corpus is conformance-checked against the golden
/// interpreter on every registered backend, at the given job fan-out.
fn conformance_sweep(jobs: usize) {
    for case in corpus() {
        let src = load(case.file);
        let outcome = rewrite_and_certify(&src, case.entry, &RewriteOptions::default(), None)
            .unwrap_or_else(|e| panic!("{}: {e}", case.file));
        let opts = CompileOptions::new().jobs(jobs);
        let verdicts = check_conformance(&outcome.source, case.entry, &case.args, &opts)
            .unwrap_or_else(|e| panic!("{}: interpreter rejected rewrite: {e}", case.file));
        for (backend, verdict) in verdicts {
            match verdict {
                Verdict::Pass { .. } => {}
                Verdict::Unsupported(reason) => {
                    assert!(
                        case.may_refuse.contains(&backend),
                        "{}: {backend} unexpectedly refused the rewrite: {reason}",
                        case.file
                    );
                }
                other => panic!(
                    "{}: {backend} diverged on the rewrite: {other:?}",
                    case.file
                ),
            }
        }
    }
}

#[test]
fn rewritten_corpus_is_conformant_sequential() {
    conformance_sweep(1);
}

#[test]
fn rewritten_corpus_is_conformant_parallel() {
    conformance_sweep(8);
}

/// Where the original is bounded enough (scalar inputs within the
/// equivalence budget), certification carries a formal equivalence
/// proof, not just seeded vectors.
#[test]
fn equiv_rung_fires_where_bounded() {
    let outcome = rewrite_and_certify(
        &load("bitcount.chl"),
        "bitcount",
        &RewriteOptions::default(),
        None,
    )
    .unwrap();
    let equiv = outcome
        .checks
        .iter()
        .find(|c| c.name == "equiv")
        .expect("equiv rung present");
    assert!(
        matches!(equiv.status, CheckStatus::Pass),
        "equiv rung did not prove bitcount: {}",
        equiv.detail
    );

    // Recursive originals cannot be synthesized for comparison, so the
    // equiv rung must honestly skip — never silently pass.
    let fib =
        rewrite_and_certify(&load("fib.chl"), "fib", &RewriteOptions::default(), None).unwrap();
    let equiv = fib
        .checks
        .iter()
        .find(|c| c.name == "equiv")
        .expect("equiv rung present");
    assert!(
        matches!(equiv.status, CheckStatus::Skip),
        "{}",
        equiv.detail
    );
}

/// The seeded wrong rewrite: capping fib's stack one frame short of the
/// proved depth. Certification must refuse it with a counterexample, and
/// the counterexample must be real — synthesizing the broken rewrite and
/// running it in the hardware simulator at the deepest input disagrees
/// with (or crashes against) the golden interpreter on the original.
#[test]
fn off_by_one_stack_cap_is_refuted_and_simulator_confirmed() {
    let src = load("fib.chl");
    let broken_opts = RewriteOptions {
        stack_cap_override: Some(14),
        ..RewriteOptions::default()
    };
    let outcome = rewrite_and_certify(&src, "fib", &broken_opts, None).unwrap();
    assert!(
        !outcome.certified,
        "off-by-one stack bound slipped through certification"
    );
    let diff = outcome
        .checks
        .iter()
        .find(|c| c.name == "differential")
        .expect("differential rung present");
    assert!(
        matches!(diff.status, CheckStatus::Fail),
        "differential rung did not refute the broken rewrite: {}",
        diff.detail
    );
    assert!(
        diff.detail.contains("counterexample"),
        "refutation carries no counterexample: {}",
        diff.detail
    );

    // Simulator confirmation: the broken machine still compiles and
    // synthesizes (the bug is a runtime bound), so run it in hardware at
    // n = 15 — the one input needing all 15 frames. The original is
    // recursive, so its golden value comes from the relaxed frontend
    // plus the interpreter.
    let hir = chls_frontend::compile_to_hir_relaxed(&src)
        .expect("original parses under the relaxed frontend path");
    let golden = match chls::interp::run(
        &hir,
        "fib",
        &[ArgValue::Scalar(15)],
        &chls::interp::InterpOptions::default(),
    ) {
        Ok(r) => r.ret,
        Err(e) => panic!("golden interpreter failed on fib(15): {e}"),
    };

    let compiler = Compiler::parse(&outcome.source).expect("broken rewrite still strict-compiles");
    let backend = backend_by_name("c2v").expect("c2v registered");
    let design = compiler
        .synthesize(backend.as_ref(), "fib", &SynthOptions::default())
        .expect("broken rewrite still synthesizes");
    // An out-of-bounds stack write aborting the simulation would be an
    // equally conclusive confirmation, hence the `if let Ok`.
    if let Ok(out) = simulate_design(&design, &[ArgValue::Scalar(15)]) {
        assert_ne!(
            out.ret, golden,
            "hardware agreed with the golden interpreter at n=15; the stack cap was not actually broken"
        );
    }

    // And the honest cap certifies on the same program.
    let fixed = rewrite_and_certify(&src, "fib", &RewriteOptions::default(), None).unwrap();
    assert!(fixed.certified);
}

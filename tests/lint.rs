//! Integration tests for the static-analysis layer (`chls lint`).
//!
//! Two cross-validations anchor the lint in observable behavior:
//!
//! 1. **Races**: programs the lint declares race-free compute identical
//!    results across every backend, every conformance job count, and
//!    every legal `par` arm ordering; a curated racy corpus is flagged
//!    by the lint *and* demonstrably diverges when the interpreter picks
//!    different (all legal) arm orderings. The lint's verdict is thus
//!    checked against ground truth in both directions.
//! 2. **Timing**: the static `[min, max]` cycle interval computed from
//!    the Handel-C and Transmogrifier timing rules must contain the
//!    cycle count the FSMD simulator actually measures.

use chls::interp::{ArgValue, InterpOptions, ParOrder};
use chls::{
    backend_by_name, check_conformance, simulate_design, CompileOptions, Compiler, SynthOptions,
    Verdict,
};

fn lint(src: &str, entry: &str) -> chls_analysis::LintReport {
    let c = Compiler::parse(src).expect("parse");
    c.lint(entry, None).expect("lint")
}

fn interpret_with_order(src: &str, entry: &str, args: &[ArgValue], order: ParOrder) -> Option<i64> {
    let c = Compiler::parse(src).expect("parse");
    let opts = InterpOptions {
        par_order: order,
        ..InterpOptions::default()
    };
    chls_sim::interp::run(c.hir(), entry, args, &opts)
        .expect("interpret")
        .ret
}

// ---------------------------------------------------------------- races

/// Race-free `par` programs: every arm touches disjoint state, or arms
/// synchronize through a rendezvous.
const RACE_FREE: &[(&str, &str)] = &[
    (
        "disjoint scalars",
        "int main(int a) {
            int x = 0; int y = 0;
            par { { x = a + 1; } { y = a * 2; } }
            return x + y;
        }",
    ),
    (
        "disjoint through pointers",
        "int main(int a) {
            int x = 0; int y = 0;
            int *p = &x; int *q = &y;
            par { { *p = a; } { *q = a + 1; } }
            return x + 10 * y;
        }",
    ),
    (
        "rendezvous pipeline",
        "int main(int a) {
            chan<int> c;
            int got = 0;
            par { { send(c, a * 3); } { got = recv(c); } }
            return got;
        }",
    ),
    (
        "read-read sharing is fine",
        "int main(int a) {
            int x = 0; int y = 0;
            par { { x = a + a; } { y = a - 1; } }
            return x + y;
        }",
    ),
];

/// Racy `par` programs, each with argument sets under which legal arm
/// orderings produce different results.
const RACY: &[(&str, &str)] = &[
    (
        "write/write on a scalar",
        "int main() {
            int x = 0;
            par { { x = 1; } { x = 2; } }
            return x;
        }",
    ),
    (
        "read/write on a scalar",
        "int main(int a) {
            int x = 0; int y = 0;
            par { { x = a; } { y = x + 100; } }
            return y;
        }",
    ),
    (
        "write/write through a pointer alias",
        "int main() {
            int x = 0;
            int *p = &x;
            par { { x = 1; } { *p = 2; } }
            return x;
        }",
    ),
    (
        "race hidden in a callee",
        "void bump(int *q, int v) { *q = v; }
         int main() {
            int x = 0;
            par { { x = 5; } { bump(&x, 9); } }
            return x;
        }",
    ),
];

#[test]
fn race_free_corpus_is_lint_clean() {
    for (name, src) in RACE_FREE {
        let r = lint(src, "main");
        assert!(
            r.races.is_empty(),
            "{name}: expected race-free, lint said {:?}",
            r.races
        );
    }
}

#[test]
fn race_free_programs_agree_across_backends_and_job_counts() {
    let args = [ArgValue::Scalar(7)];
    for (name, src) in RACE_FREE {
        let for_jobs = |jobs: usize| {
            check_conformance(src, "main", &args, &CompileOptions::new().jobs(jobs))
                .unwrap_or_else(|e| panic!("{name}: conformance failed: {e}"))
        };
        let one = for_jobs(1);
        let eight = for_jobs(8);
        assert_eq!(one.len(), eight.len(), "{name}");
        for ((b1, v1), (b8, v8)) in one.iter().zip(eight.iter()) {
            assert_eq!(b1, b8, "{name}: verdict order must not depend on --jobs");
            assert_eq!(
                format!("{v1:?}"),
                format!("{v8:?}"),
                "{name}/{b1}: verdict must not depend on --jobs"
            );
            match v1 {
                Verdict::Pass { .. } | Verdict::Unsupported(_) => {}
                bad => panic!("{name}/{b1}: lint-clean program diverged: {bad:?}"),
            }
        }
    }
}

#[test]
fn race_free_programs_are_order_independent() {
    let args = [ArgValue::Scalar(7)];
    for (name, src) in RACE_FREE {
        if src.contains("chan<") {
            // Rendezvous requires truly concurrent arms; sequential
            // orderings would deadlock by construction.
            continue;
        }
        let base = interpret_with_order(src, "main", &args, ParOrder::Concurrent);
        for order in [ParOrder::Sequential, ParOrder::Reversed] {
            let got = interpret_with_order(src, "main", &args, order);
            assert_eq!(
                got, base,
                "{name}: lint-clean program changed answer under {order:?}"
            );
        }
    }
}

#[test]
fn racy_corpus_is_flagged_by_lint() {
    for (name, src) in RACY {
        let r = lint(src, "main");
        assert!(!r.races.is_empty(), "{name}: lint missed the race");
        assert!(r.has_errors(), "{name}: races must fail the lint");
        for d in &r.races {
            assert!(
                d.notes.len() == 2,
                "{name}: race diagnostics carry both access sites, got {:?}",
                d.notes
            );
        }
    }
}

#[test]
fn racy_corpus_diverges_under_arm_orderings() {
    let args = [ArgValue::Scalar(7)];
    for (name, src) in RACY {
        let seq = interpret_with_order(src, "main", &args, ParOrder::Sequential);
        let rev = interpret_with_order(src, "main", &args, ParOrder::Reversed);
        assert_ne!(
            seq, rev,
            "{name}: both legal orderings agreed; corpus entry demonstrates nothing"
        );
    }
}

// --------------------------------------------------------------- timing

/// Measures FSMD cycles for `src` under a backend, and the lint's static
/// interval for the same backend; asserts containment.
fn assert_interval_contains_simulation(
    name: &str,
    src: &str,
    entry: &str,
    backend_name: &str,
    args: &[ArgValue],
) {
    let compiler = Compiler::parse(src).expect("parse");
    let report = compiler.lint(entry, Some(backend_name)).expect("lint");
    let bound = report
        .cycle_bounds
        .iter()
        .find(|b| b.backend == backend_name)
        .unwrap_or_else(|| panic!("{name}: no {backend_name} bound computed"));
    let backend = backend_by_name(backend_name).expect("registered");
    let design = compiler
        .synthesize(backend.as_ref(), entry, &SynthOptions::default())
        .unwrap_or_else(|e| panic!("{name}: synthesis failed: {e}"));
    let out = simulate_design(&design, args).unwrap_or_else(|e| panic!("{name}: sim failed: {e}"));
    let cycles = out
        .cycles
        .unwrap_or_else(|| panic!("{name}: no cycle count"));
    assert!(
        bound.interval.contains(cycles),
        "{name}/{backend_name}: simulated {cycles} cycles outside static {}",
        bound.interval
    );
}

const FIR: &str = "
    const int coeff[8] = {1, 2, 3, 4, 4, 3, 2, 1};
    void fir(int x[16], int y[16]) {
        for (int n = 7; n < 16; n++) {
            int acc = 0;
            for (int k = 0; k < 8; k++) {
                acc = acc + coeff[k] * x[n - k];
            }
            y[n] = acc >> 4;
        }
    }
";

fn fir_args() -> Vec<ArgValue> {
    vec![
        ArgValue::Array((0..16).map(|i| (i * 7 + 3) % 50).collect()),
        ArgValue::Array(vec![0; 16]),
    ]
}

#[test]
fn static_bounds_contain_simulated_cycles_for_fir() {
    for backend in ["handelc", "transmogrifier"] {
        assert_interval_contains_simulation("fir", FIR, "fir", backend, &fir_args());
    }
}

#[test]
fn static_bounds_contain_simulated_cycles_across_programs() {
    let programs: &[(&str, &str, Vec<ArgValue>)] = &[
        (
            "straight-line",
            "int f(int a) { int x = a + 1; x = x * 3; return x - 2; }",
            vec![ArgValue::Scalar(5)],
        ),
        (
            "branchy",
            "int f(int a) {
                int x = 0;
                if (a > 10) { x = a; x = x + 1; x = x + 2; } else { x = 3; }
                return x;
            }",
            vec![ArgValue::Scalar(42)],
        ),
        (
            "counted loop",
            "int f(int a) {
                int acc = 0;
                for (int i = 0; i < 6; i++) { acc = acc + a; }
                return acc;
            }",
            vec![ArgValue::Scalar(4)],
        ),
        (
            "nested counted loops",
            "int f(int a) {
                int acc = 0;
                for (int i = 0; i < 3; i++) {
                    for (int j = 0; j < 4; j++) { acc = acc + a + j; }
                }
                return acc;
            }",
            vec![ArgValue::Scalar(2)],
        ),
        (
            "data-dependent loop (gcd)",
            "int f(int a, int b) {
                while (b != 0) { int t = b; b = a % b; a = t; }
                return a;
            }",
            vec![ArgValue::Scalar(48), ArgValue::Scalar(36)],
        ),
    ];
    for (name, src, args) in programs {
        for backend in ["handelc", "transmogrifier"] {
            assert_interval_contains_simulation(name, src, "f", backend, args);
        }
    }
    // Both branch directions of the branchy program stay inside the hull.
    assert_interval_contains_simulation(
        "branchy (else side)",
        "int f(int a) {
            int x = 0;
            if (a > 10) { x = a; x = x + 1; x = x + 2; } else { x = 3; }
            return x;
        }",
        "f",
        "handelc",
        &[ArgValue::Scalar(1)],
    );
}

#[test]
fn static_bounds_contain_simulated_cycles_for_par_and_delay() {
    // Handel-C only: the sequential pipeline refuses these programs.
    let programs: &[(&str, &str, Vec<ArgValue>)] = &[
        (
            "par lockstep",
            "int f(int a) {
                int x = 0; int y = 0;
                par { { x = a; x = x + 1; x = x * 2; } { y = a - 1; } }
                return x + y;
            }",
            vec![ArgValue::Scalar(6)],
        ),
        (
            "delay chain",
            "int f(int a) { delay; delay; delay; return a; }",
            vec![ArgValue::Scalar(1)],
        ),
        (
            "rendezvous",
            "int f(int a) {
                chan<int> c;
                int got = 0;
                par { { send(c, a * 3); } { got = recv(c); got = got + 1; } }
                return got;
            }",
            vec![ArgValue::Scalar(5)],
        ),
    ];
    for (name, src, args) in programs {
        assert_interval_contains_simulation(name, src, "f", "handelc", args);
    }
}

#[test]
fn handelc_straight_line_bound_is_exact() {
    // Cross-check the rule constants, not just containment: entry + two
    // assignments + return + done.
    let src = "int f(int a) { int x = a + 1; x = x * 3; return x; }";
    let compiler = Compiler::parse(src).expect("parse");
    let report = compiler.lint("f", Some("handelc")).expect("lint");
    let interval = report.cycle_bounds[0].interval;
    let backend = backend_by_name("handelc").expect("registered");
    let design = compiler
        .synthesize(backend.as_ref(), "f", &SynthOptions::default())
        .expect("synth");
    let out = simulate_design(&design, &[ArgValue::Scalar(4)]).expect("sim");
    assert_eq!(
        interval.min,
        interval.max.unwrap(),
        "straight-line is exact"
    );
    assert_eq!(Some(interval.min), out.cycles);
}

// ------------------------------------------------------------- warnings

#[test]
fn sema_warnings_surface_through_the_driver() {
    let src = "int main(int a) { int dead = a * 2; return a + 1; }";
    let compiler = Compiler::parse(src).expect("parse");
    let rendered = compiler.rendered_warnings();
    assert!(
        rendered
            .iter()
            .any(|w| w.starts_with("warning:") && w.contains("`dead`")),
        "expected an unused-local warning, got {rendered:?}"
    );
    // And the lint report carries the same warnings.
    let report = compiler.lint("main", None).expect("lint");
    assert!(report.warnings.iter().any(|w| w.message.contains("dead")));
}

#[test]
fn lint_report_json_round_trips_key_fields() {
    let r = lint(RACY[2].1, "main");
    let j = chls::service::lint_data(&r).to_string();
    assert!(j.contains(r#""races":[{"severity":"error""#));
    assert!(j.contains(r#""backend":"handelc","min":"#));
    // Notes carry byte spans for both access sites.
    assert_eq!(j.matches(r#"{"message":"#).count(), 2);
}

// -------------------------------------------------- dataflow lints

/// Out-of-bounds corpus: every entry is a *definite* violation (the
/// whole address interval misses the extent), plus the message fragment
/// the lint must produce and the source fragment its span must cover.
const OOB: &[(&str, &str, &str, &str)] = &[
    (
        "constant read past the end",
        "int main() { int a[8]; a[0] = 1; int x = a[9]; return x; }",
        "out-of-bounds read of `a`: index 9",
        "a[9]",
    ),
    (
        "constant write past the end",
        "int main() { int a[4]; a[4] = 1; return a[0]; }",
        "out-of-bounds write of `a`: index 4",
        "a[4] = 1",
    ),
    (
        "loop interval entirely outside",
        "int main() { int a[8]; a[0] = 0;
            for (int i = 8; i < 12; i++) { a[i] = i; }
            return a[0]; }",
        "out-of-bounds write of `a`",
        "a[i] = i",
    ),
];

/// Uninitialized-read corpus with the expected message fragment.
const UNINIT: &[(&str, &str, &str)] = &[
    (
        "never-written local array",
        "int main(int i) { int a[4]; int x = a[i & 3]; return x; }",
        "uninitialized memory `a`",
    ),
    (
        "read disjoint from all writes",
        "int main() { int a[8];
            for (int i = 0; i < 4; i++) { a[i] = i; }
            int x = a[6]; return x; }",
        "uninitialized memory `a`",
    ),
    (
        "scalar read before assignment",
        "int main() { int x; int y = x + 1; return y; }",
        "`x` may be read before it is initialized",
    ),
    (
        "one-armed if does not initialize",
        "int main(int a) { int x; if (a > 0) { x = 1; } int y = x; return y; }",
        "`x` may be read before it is initialized",
    ),
];

#[test]
fn oob_corpus_is_flagged_as_errors() {
    for (name, src, needle, _) in OOB {
        let r = lint(src, "main");
        assert!(
            r.memory.iter().any(|d| d.message.contains(needle)),
            "{name}: expected `{needle}` in {:?}",
            r.memory
        );
        assert!(r.has_errors(), "{name}: definite OOB must fail the lint");
    }
}

#[test]
fn uninit_corpus_is_flagged_as_warnings() {
    for (name, src, needle) in UNINIT {
        let r = lint(src, "main");
        assert!(
            r.memory.iter().any(|d| d.message.contains(needle)),
            "{name}: expected `{needle}` in {:?}",
            r.memory
        );
        assert!(
            !r.has_errors(),
            "{name}: uninitialized reads warn, they do not fail the lint"
        );
    }
}

#[test]
fn memory_lint_spans_cover_the_offending_access() {
    for (name, src, needle, at) in OOB {
        let r = lint(src, "main");
        let d = r
            .memory
            .iter()
            .find(|d| d.message.contains(needle))
            .unwrap_or_else(|| panic!("{name}: missing diagnostic"));
        let covered = &src[d.span.start as usize..d.span.end as usize];
        assert!(
            covered.contains(at),
            "{name}: span covers `{covered}`, expected it to include `{at}`"
        );
    }
    // Scalar uninit anchors to the reading statement.
    let src = "int main() { int x; int y = x + 1; return y; }";
    let r = lint(src, "main");
    let d = &r.memory[0];
    assert!(
        src[d.span.start as usize..d.span.end as usize].contains("x + 1"),
        "span covers `{}`",
        &src[d.span.start as usize..d.span.end as usize]
    );
}

#[test]
fn in_bounds_and_initialized_programs_are_clean() {
    let clean = [
        // Full in-bounds write then read.
        "int main(int x) { int a[8];
            for (int i = 0; i < 8; i++) { a[i] = x + i; }
            int s = 0;
            for (int j = 0; j < 8; j++) { s = s + a[j]; }
            return s; }",
        // Masked index can never escape the extent.
        "int main(int i) { int a[8]; a[i & 7] = 1; int x = a[i & 7]; return x; }",
        // ROM and parameter arrays arrive initialized.
        "const int t[4] = {1, 2, 3, 4};
         int main(int x[4], int i) { return t[i & 3] + x[i & 3]; }",
    ];
    for src in clean {
        let r = lint(src, "main");
        assert!(r.memory.is_empty(), "false positive: {:?}", r.memory);
    }
}

#[test]
fn provably_dead_branch_warns() {
    let src = "int main(int x) { int m = x & 15; int r = 0;
        if (m < 100) { r = m; } else { r = 7; }
        return r; }";
    let r = lint(src, "main");
    assert_eq!(r.dead_branches.len(), 1, "got {:?}", r.dead_branches);
    assert!(
        r.dead_branches[0].message.contains("always true"),
        "{}",
        r.dead_branches[0].message
    );
    assert!(!r.has_errors(), "dead branches warn, they do not fail");
    // And the finding rides the JSON surface.
    let j = chls::service::lint_data(&r).to_string();
    assert!(
        j.contains(r#""dead_branches":[{"severity":"warning""#),
        "{j}"
    );
}

#[test]
fn memory_findings_ride_the_json_surface() {
    let r = lint(OOB[0].1, "main");
    let j = chls::service::lint_data(&r).to_string();
    assert!(j.contains(r#""memory":[{"severity":"error""#), "{j}");
    // Stable order: memory and dead_branches trail the existing fields.
    let cycles = j.find(r#""cycles":["#).unwrap();
    let memory = j.find(r#""memory":["#).unwrap();
    let dead = j.find(r#""dead_branches":["#).unwrap();
    assert!(cycles < memory && memory < dead, "{j}");
}

#[test]
fn concurrency_programs_skip_ir_lints_gracefully() {
    // `par` has no sequential lowering, so the memory and dead-branch
    // checks are vacuous — but the lint must still run end to end.
    for (_, src) in RACY {
        let r = lint(src, "main");
        assert!(r.dead_branches.is_empty());
    }
}

#[test]
fn example_corpus_has_zero_memory_findings() {
    let mut seen = 0;
    for entry in std::fs::read_dir("examples/chl").expect("examples present") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "chl") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        let r = lint(&src, "main");
        assert!(
            r.memory.is_empty(),
            "{}: false positives {:?}",
            path.display(),
            r.memory
        );
        assert!(
            r.dead_branches.is_empty(),
            "{}: false positives {:?}",
            path.display(),
            r.dead_branches
        );
        seen += 1;
    }
    assert!(seen >= 7, "expected the full example corpus, saw {seen}");
}

// ------------------------------------------------------------- pointers

/// `*&x` declares no pointer local. The pointer lowering folds it to `x`,
/// so every backend but Cyber synthesizes it; Cyber's BDL gate and the
/// lint's `pointers` feature share one predicate and both still see the
/// `&`.
#[test]
fn deref_of_address_of_folds_yet_cyber_still_rejects_it() {
    let src = "int f(int a) { int x = a; return *&x + 1; }";
    let opts = CompileOptions::new().jobs(1);
    let verdicts =
        check_conformance(src, "f", &[ArgValue::Scalar(5)], &opts).expect("interpreter runs");
    assert_eq!(verdicts.len(), 7);
    for (backend, v) in &verdicts {
        match (*backend, v) {
            ("cyber", Verdict::Unsupported(why)) => {
                assert!(why.contains("BDL prohibits pointers"), "{why}")
            }
            ("cyber", other) => panic!("cyber must reject `*&x`: {other:?}"),
            (_, Verdict::Pass { .. }) => {}
            (b, other) => panic!("{b} must synthesize `*&x`: {other:?}"),
        }
    }

    let report = lint(src, "f");
    assert!(report.features.pointers);
    assert!(
        report
            .backend_findings
            .iter()
            .any(|f| f.backend == "cyber" && f.construct == "pointers" && f.is_rejection()),
        "{:?}",
        report.backend_findings
    );
}

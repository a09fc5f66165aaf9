//! Differential conformance of the `--opt-netlist` logic optimizer:
//! every shipped example, every backend, with and without the pass, at
//! both serial and parallel job counts — the optimizer must never flip
//! a verdict or change an answer.

use chls::interp::ArgValue;
use chls::{check_conformance, CompileOptions, Compiler, Verdict};

/// Deterministic non-zero arguments for an example entry (same LCG the
/// narrowing sweep uses, so failures reproduce across suites).
fn example_args(compiler: &Compiler, entry: &str) -> Vec<ArgValue> {
    let (_, f) = compiler.hir().func_by_name(entry).expect("entry exists");
    let mut seed = 0x2545_f491u64;
    let mut next = move || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((seed >> 33) & 0xFF) as i64
    };
    f.params()
        .map(|(_, l)| match &l.ty {
            chls_frontend::Type::Array(_, n) => ArgValue::Array((0..*n).map(|_| next()).collect()),
            _ => ArgValue::Scalar(next().max(1)),
        })
        .collect()
}

/// For every shipped example and every backend, the verdict kind is the
/// same with and without `--opt-netlist`, and the optimizer never turns
/// a pass into a mismatch. Run at jobs=1 and jobs=8 so the parallel
/// driver path is exercised with the extra pass active.
#[test]
fn examples_conform_with_opt_netlist() {
    for entry in std::fs::read_dir("examples/chl").expect("examples present") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "chl") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        let compiler = Compiler::parse(&src).expect("example parses");
        let args = example_args(&compiler, "main");
        let name = path.display();
        for jobs in [1, 8] {
            let opts = CompileOptions::new().jobs(jobs);
            let base = check_conformance(&src, "main", &args, &opts)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let opt = check_conformance(&src, "main", &args, &opts.clone().opt_netlist(true))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(base.len(), opt.len(), "{name}");
            for ((bk, bv), (ok, ov)) in base.iter().zip(&opt) {
                assert_eq!(bk, ok, "{name}: backend order must not depend on options");
                assert_eq!(
                    std::mem::discriminant(bv),
                    std::mem::discriminant(ov),
                    "{name}/{bk} (jobs={jobs}): {bv:?} vs {ov:?}"
                );
                if matches!(bv, Verdict::Pass { .. }) {
                    assert!(
                        matches!(ov, Verdict::Pass { .. }),
                        "{name}/{bk}: --opt-netlist broke a passing backend: {ov:?}"
                    );
                }
            }
        }
    }
}

/// `--opt-netlist` composes with `--narrow` and `--pipeline`: all three
/// passes stacked still conform on every example.
#[test]
fn opt_netlist_composes_with_narrow_and_pipeline() {
    for entry in std::fs::read_dir("examples/chl").expect("examples present") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "chl") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        let compiler = Compiler::parse(&src).expect("example parses");
        let args = example_args(&compiler, "main");
        let name = path.display();
        let opts = CompileOptions::new()
            .jobs(1)
            .opt_netlist(true)
            .narrow(true)
            .pipeline(true);
        let stacked =
            check_conformance(&src, "main", &args, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
        for (bk, v) in &stacked {
            assert!(
                !matches!(v, Verdict::Mismatch { .. } | Verdict::Error(_)),
                "{name}/{bk}: stacked passes broke conformance: {v:?}"
            );
        }
    }
}

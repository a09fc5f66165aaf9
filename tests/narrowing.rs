//! `SynthOptions::narrow_widths`: the value-range analysis drives real
//! register and datapath narrowing in c2v. These tests pin the soundness
//! story: identical results on every benchmark (including combined with
//! pipelining), real area savings on mask-heavy kernels, and the
//! high-bit-dependence case (`>>` whose operand is wider than its result)
//! that a naive result-width narrowing would miscompile.

use chls::interp::ArgValue;
use chls::{backend_by_name, benchmarks, simulate_design, Compiler, SynthOptions};
use chls_rtl::CostModel;
use proptest::prelude::*;

fn narrow_opts(pipeline: bool) -> SynthOptions {
    SynthOptions {
        narrow_widths: true,
        pipeline_loops: pipeline,
        ..Default::default()
    }
}

#[test]
fn narrowing_conforms_on_every_benchmark() {
    let backend = backend_by_name("c2v").expect("registered");
    for bench in benchmarks() {
        let compiler = Compiler::parse(bench.source).expect("parses");
        let golden = compiler
            .interpret(bench.entry, &bench.args)
            .expect("golden");
        for pipeline in [false, true] {
            let design = compiler
                .synthesize(backend.as_ref(), bench.entry, &narrow_opts(pipeline))
                .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
            let out = simulate_design(&design, &bench.args)
                .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
            assert_eq!(out.ret, golden.ret, "{} (pipeline={pipeline})", bench.name);
            assert_eq!(
                out.arrays, golden.arrays,
                "{} (pipeline={pipeline})",
                bench.name
            );
        }
    }
}

#[test]
fn narrowing_saves_area_on_masked_datapaths() {
    // The E8 pixel blend: every intermediate is provably ≤ 21 bits.
    let src = "
        int blend(int a[16], int b[16], int alpha) {
            int acc = 0;
            for (int i = 0; i < 16; i++) {
                int pa = a[i] & 0xFFF;
                int pb = b[i] & 0xFFF;
                int mixed = (pa * (alpha & 0xFF) + pb * (255 - (alpha & 0xFF))) >> 8;
                acc ^= mixed;
            }
            return acc;
        }
    ";
    let args = [
        ArgValue::Array((0..16).map(|i| (i * 251) % 4096).collect()),
        ArgValue::Array((0..16).map(|i| (i * 97 + 13) % 4096).collect()),
        ArgValue::Scalar(180),
    ];
    let backend = backend_by_name("c2v").expect("registered");
    let compiler = Compiler::parse(src).expect("parses");
    let model = CostModel::new();
    let wide = compiler
        .synthesize(backend.as_ref(), "blend", &SynthOptions::default())
        .expect("synthesizes");
    let narrow = compiler
        .synthesize(backend.as_ref(), "blend", &narrow_opts(false))
        .expect("synthesizes");
    let rw = simulate_design(&wide, &args).expect("simulates");
    let rn = simulate_design(&narrow, &args).expect("simulates");
    assert_eq!(rw.ret, rn.ret);
    // The two 16-element arrays keep their caller-visible 32-bit element
    // type, so the memory macros put a floor under the total; the ~27%
    // delta is all datapath (multipliers, adder, xor reduction).
    let (aw, an) = (wide.area(&model), narrow.area(&model));
    assert!(
        an < aw * 0.75,
        "expected ≥25% savings, got {an:.0} vs {aw:.0}"
    );
}

#[test]
fn right_shift_keeps_operand_width() {
    // Regression: `crc >> 1` has a 31-bit result but a 32-bit operand —
    // narrowing the shift to 31 bits would drop the operand's top bit
    // into the result. (Found by crc32 divergence.)
    let src = "
        int f(int d) {
            unsigned int crc = 0xFFFFFFFF;
            crc = crc ^ d;
            for (int k = 0; k < 8; k++) {
                bool lsb = (crc & 1) != 0;
                crc = crc >> 1;
                if (lsb) crc = crc ^ 0xEDB88320;
            }
            return (int) ~crc;
        }
    ";
    let backend = backend_by_name("c2v").expect("registered");
    let compiler = Compiler::parse(src).expect("parses");
    let args = [ArgValue::Scalar(0x31)];
    let golden = compiler.interpret("f", &args).expect("golden");
    let design = compiler
        .synthesize(backend.as_ref(), "f", &narrow_opts(false))
        .expect("synthesizes");
    let out = simulate_design(&design, &args).expect("simulates");
    assert_eq!(out.ret, golden.ret);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random masked/shifted expressions: narrowing never changes the
    /// result.
    #[test]
    fn narrowing_preserves_random_expressions(
        mask in 1i64..0xFFFF,
        sh1 in 0u8..12,
        sh2 in 0u8..12,
        a in -100_000i64..100_000,
        b in -100_000i64..100_000,
        use_mul in proptest::bool::ANY,
    ) {
        let combine = if use_mul { "*" } else { "+" };
        let src = format!(
            "int f(int a, int b) {{
                int x = a & {mask};
                int y = (b >> {sh1}) & 255;
                unsigned int z = (unsigned int) (x {combine} y);
                z = z >> {sh2};
                return (int) (z ^ (unsigned int) x);
            }}"
        );
        let backend = backend_by_name("c2v").expect("registered");
        let compiler = Compiler::parse(&src).expect("parses");
        let args = [ArgValue::Scalar(a), ArgValue::Scalar(b)];
        let golden = compiler.interpret("f", &args).expect("golden");
        let design = compiler
            .synthesize(backend.as_ref(), "f", &narrow_opts(false))
            .expect("synthesizes");
        let out = simulate_design(&design, &args).expect("simulates");
        prop_assert_eq!(out.ret, golden.ret, "{}", src);
    }
}

/// Deterministic non-zero arguments for an example entry: scalars and
/// array elements come from a small LCG so masked datapaths see varied
/// bit patterns, not just zeros.
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

/// The PR's soundness contract, end to end: for every shipped example,
/// every backend's verdict has the same *kind* with and without
/// `--narrow`, and narrowing never turns a pass into a mismatch.
/// (Cycle counts may legitimately differ — narrower operators can
/// reschedule — so only the verdict kind is compared.)
#[test]
fn examples_are_bit_identical_with_and_without_narrowing() {
    use chls::{check_conformance, CompileOptions, Verdict};
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
            let narrow = check_conformance(&src, "main", &args, &opts.clone().narrow(true))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(base.len(), narrow.len(), "{name}");
            for ((bk, bv), (nk, nv)) in base.iter().zip(&narrow) {
                assert_eq!(bk, nk, "{name}: backend order must not depend on options");
                assert_eq!(
                    std::mem::discriminant(bv),
                    std::mem::discriminant(nv),
                    "{name}/{bk} (jobs={jobs}): {bv:?} vs {nv:?}"
                );
                if matches!(bv, Verdict::Pass { .. }) {
                    assert!(
                        matches!(nv, Verdict::Pass { .. }),
                        "{name}/{bk}: narrowing broke a passing backend: {nv:?}"
                    );
                }
            }
        }
    }
}

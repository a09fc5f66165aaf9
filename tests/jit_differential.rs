//! Differential bit-exactness: the x86-64 JIT (`chls-jit`) against the
//! tape interpreter, over every example program with seeded random
//! inputs and every registry kernel, on every backend that makes an
//! FSMD, plus targeted edge-case kernels (division by zero, full-width
//! shifts, signed wraparound, single-bit conditions).
//!
//! Both engines run the lowered tape of `chls_sim::tape::compile`, whose
//! register writes mostly commit in place. So each native check has a
//! third leg: the staged tape of `chls_sim::tape::compile_staged`, run
//! through `fsmd_sim::run`, which keeps the lowering itself checked.
//!
//! The contract is total equality: return value, cycle count, final
//! register file, and final memory images — or, when a run traps, the
//! identical error. On hosts without JIT support every test passes
//! trivially (and asserts that `chls_jit::available()` agrees).

use chls::interp::ArgValue;
use chls::{backend_by_name, Compiler, Design, SynthOptions};
use chls_frontend::types::Type;
use chls_jit::JitProgram;
use chls_rtl::fsmd::Fsmd;
use chls_sim::{fsmd_sim, tape};

const MAX_CYCLES: u64 = 5_000_000;

/// Deterministic 64-bit LCG (Knuth's MMIX constants) — the container has
/// no `rand`, and the suite must be reproducible anyway.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 11
    }

    /// A scalar in a range that exercises signs and small magnitudes.
    fn scalar(&mut self) -> i64 {
        (self.next() % 2001) as i64 - 1000
    }
}

/// Builds a random argument vector from the entry's HIR signature.
/// Returns `None` when a parameter has no value representation.
fn random_args(compiler: &Compiler, entry: &str, rng: &mut Lcg) -> Option<Vec<ArgValue>> {
    let (_, f) = compiler.hir().func_by_name(entry)?;
    let mut args = Vec::new();
    for (_, l) in f.params() {
        match &l.ty {
            Type::Bool => args.push(ArgValue::Scalar((rng.next() & 1) as i64)),
            Type::Int(_) => args.push(ArgValue::Scalar(rng.scalar())),
            Type::Array(_, _) => {
                args.push(ArgValue::Array(
                    (0..l.ty.flat_len()).map(|_| rng.scalar()).collect(),
                ));
            }
            Type::Void | Type::Ptr(_) | Type::Chan(_) => return None,
        }
    }
    Some(args)
}

/// Runs both engines on one (design, args) pair, and the interpreter on
/// the staged tape too, and demands bit-exact agreement. Returns false
/// when the host has no JIT.
fn assert_bit_exact(f: &Fsmd, args: &[ArgValue], label: &str) -> bool {
    let Some(prog) = JitProgram::compile(f) else {
        assert!(
            !chls_jit::available(),
            "{label}: compile returned None on a JIT-capable host"
        );
        return false;
    };
    let jit = prog.run(args, MAX_CYCLES);
    let interp = fsmd_sim::simulate(f, args, MAX_CYCLES);
    let staged = fsmd_sim::run(f, &tape::compile_staged(f), args, MAX_CYCLES);
    assert_eq!(staged, interp, "{label}: the lowering changed the result");
    match (jit, interp) {
        (Ok(j), Ok(i)) => {
            assert_eq!(j.ret, i.ret, "{label}: return value diverged");
            assert_eq!(j.cycles, i.cycles, "{label}: cycle count diverged");
            assert_eq!(j.regs, i.regs, "{label}: final registers diverged");
            assert_eq!(j.mems, i.mems, "{label}: final memories diverged");
        }
        (Err(je), Err(ie)) => assert_eq!(je, ie, "{label}: errors diverged"),
        (j, i) => panic!("{label}: engines split: jit={j:?} interp={i:?}"),
    }
    true
}

/// Runs the JIT with every state forced through the interpreter
/// fallback, which steps through `chls_sim::tape::exec_state` one state
/// at a time, and demands a result bit-identical to `fsmd_sim::simulate`,
/// whose per-cycle loop inlines the same step. Returns false when the
/// host has no JIT.
fn assert_fallback_bit_exact(f: &Fsmd, args: &[ArgValue], label: &str) -> bool {
    let Some(prog) = JitProgram::compile_with(f, true) else {
        assert!(
            !chls_jit::available(),
            "{label}: compile_with returned None on a JIT-capable host"
        );
        return false;
    };
    assert_eq!(
        prog.fallback_blocks, prog.blocks,
        "{label}: a state escaped the forced fallback"
    );
    let stepped = prog.run_counted(args, MAX_CYCLES);
    let looped = fsmd_sim::simulate(f, args, MAX_CYCLES);
    match (stepped, looped) {
        (Ok((s, fallbacks)), Ok(l)) => {
            assert_eq!(s, l, "{label}: one-step path diverged from the loop");
            assert_eq!(fallbacks, l.cycles, "{label}: a cycle ran natively");
        }
        (Err(se), Err(le)) => assert_eq!(se, le, "{label}: errors diverged"),
        (s, l) => panic!("{label}: engines split: one-step={s:?} loop={l:?}"),
    }
    true
}

fn synth_c2v(compiler: &Compiler, entry: &str) -> Option<Fsmd> {
    let backend = backend_by_name("c2v").expect("c2v is registered");
    match compiler.synthesize(backend.as_ref(), entry, &SynthOptions::default()) {
        Ok(Design::Fsmd(f)) => Some(f),
        Ok(_) => None,
        Err(_) => None, // language subset the backend refuses — not a JIT concern
    }
}

/// The FSMD of every backend that makes one for `entry`, by backend
/// name. Backends that refuse the program are skipped, as in
/// [`synth_c2v`].
fn fsmd_designs(compiler: &Compiler, entry: &str) -> Vec<(&'static str, Fsmd)> {
    chls::backends()
        .iter()
        .filter_map(
            |b| match compiler.synthesize(b.as_ref(), entry, &SynthOptions::default()) {
                Ok(Design::Fsmd(f)) => Some((b.info().name, f)),
                _ => None,
            },
        )
        .collect()
}

/// Every `examples/chl` program, including the channel programs under
/// `flow/` and the kernels under `software/`, synthesized by every
/// backend that makes an FSMD and run on several seeded random argument
/// vectors per program, natively and through the one-step fallback.
#[test]
fn examples_agree_on_random_inputs() {
    let mut entries: Vec<_> = ["examples/chl", "examples/chl/flow", "examples/chl/software"]
        .iter()
        .flat_map(|dir| std::fs::read_dir(dir).expect("example directory exists"))
        .map(|e| e.expect("readable").path())
        .filter(|p| p.extension().is_some_and(|x| x == "chl"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "no example programs found");
    let mut checked = 0usize;
    let mut backends = std::collections::BTreeSet::new();
    for path in entries {
        let src = std::fs::read_to_string(&path).expect("readable example");
        let Ok(compiler) = Compiler::parse(&src) else {
            continue;
        };
        let funcs = &compiler.hir().funcs;
        let entry = match funcs.iter().find(|f| f.name == "main").or(funcs.last()) {
            Some(f) => f.name.clone(),
            None => continue,
        };
        let name = path.display().to_string();
        for (backend, fsmd) in fsmd_designs(&compiler, &entry) {
            let mut rng = Lcg::new(0xC0FFEE ^ name.len() as u64);
            for round in 0..4 {
                let Some(args) = random_args(&compiler, &entry, &mut rng) else {
                    break;
                };
                let label = format!("{name} on {backend} round {round}");
                if !(assert_bit_exact(&fsmd, &args, &label)
                    && assert_fallback_bit_exact(&fsmd, &args, &label))
                {
                    return; // host without JIT: nothing more to learn
                }
                checked += 1;
                backends.insert(backend);
            }
        }
    }
    if chls_jit::available() {
        assert!(checked >= 100, "too few example runs exercised ({checked})");
        for b in ["c2v", "cyber", "hardwarec", "handelc", "transmogrifier"] {
            assert!(backends.contains(b), "no example ran on {b}");
        }
    }
}

/// Division and remainder by zero (and by -1 at `i64::MIN`-like values)
/// must match the interpreter's defined semantics exactly.
#[test]
fn division_by_zero_agrees() {
    let compiler =
        Compiler::parse("int f(int a, int b) { return (a / b) ^ (a % b) ^ (a / (b - b)); }")
            .expect("parses");
    let Some(fsmd) = synth_c2v(&compiler, "f") else {
        panic!("c2v must synthesize a straight-line kernel")
    };
    for (a, b) in [
        (7, 0),
        (-7, 0),
        (0, 0),
        (i64::from(i32::MIN), -1),
        (i64::from(i32::MAX), 1),
        (100, 3),
    ] {
        if !assert_bit_exact(
            &fsmd,
            &[ArgValue::Scalar(a), ArgValue::Scalar(b)],
            &format!("div0 a={a} b={b}"),
        ) {
            return;
        }
    }
}

/// Dynamic shifts at and beyond the type width: the saturation rule the
/// interpreter implements must be reproduced bit for bit.
#[test]
fn full_width_shifts_agree() {
    let compiler =
        Compiler::parse("int f(int a, int s) { return (a << s) ^ (a >> s); }").expect("parses");
    let Some(fsmd) = synth_c2v(&compiler, "f") else {
        panic!("c2v must synthesize a straight-line kernel")
    };
    for (a, s) in [
        (1, 31),
        (1, 32),
        (1, 33),
        (-1, 63),
        (-1, 64),
        (-1, 1000),
        (12345, 0),
        (-12345, 7),
    ] {
        if !assert_bit_exact(
            &fsmd,
            &[ArgValue::Scalar(a), ArgValue::Scalar(s)],
            &format!("shift a={a} s={s}"),
        ) {
            return;
        }
    }
}

/// Narrow signed arithmetic wraps; the JIT's canonicalization sequences
/// must produce the interpreter's exact wrapped values.
#[test]
fn signed_overflow_wrap_agrees() {
    let compiler = Compiler::parse(
        "int f(int a, int b) {
            sint<8> x = (sint<8>) a;
            sint<8> y = (sint<8>) b;
            sint<8> s = x + y;
            sint<8> p = x * y;
            return ((int) s << 8) ^ (int) p;
        }",
    )
    .expect("parses");
    let Some(fsmd) = synth_c2v(&compiler, "f") else {
        panic!("c2v must synthesize a straight-line kernel")
    };
    for (a, b) in [(127, 1), (-128, -1), (100, 100), (-100, -100), (127, 127)] {
        if !assert_bit_exact(
            &fsmd,
            &[ArgValue::Scalar(a), ArgValue::Scalar(b)],
            &format!("wrap a={a} b={b}"),
        ) {
            return;
        }
    }
}

/// Single-bit (i1) conditions driving control flow — comparison results
/// land in 1-bit registers and steer the FSM.
#[test]
fn i1_conditions_agree() {
    let compiler = Compiler::parse(
        "int f(int a, int b) {
            int n = 0;
            while (a != b) {
                if (a > b) { a = a - 1; } else { b = b - 1; }
                n = n + 1;
            }
            return n;
        }",
    )
    .expect("parses");
    let Some(fsmd) = synth_c2v(&compiler, "f") else {
        panic!("c2v must synthesize a loop kernel")
    };
    for (a, b) in [(10, 3), (3, 10), (5, 5), (-4, 4), (0, -9)] {
        if !assert_bit_exact(
            &fsmd,
            &[ArgValue::Scalar(a), ArgValue::Scalar(b)],
            &format!("i1 a={a} b={b}"),
        ) {
            return;
        }
    }
}

/// The registered benchmark suite, through both engines, on every
/// backend that makes an FSMD.
#[test]
fn benchmark_suite_agrees() {
    for bench in chls::benchmarks() {
        let compiler = Compiler::parse(bench.source).expect("benchmark parses");
        for (backend, fsmd) in fsmd_designs(&compiler, bench.entry) {
            let label = format!("{} on {backend}", bench.name);
            if !assert_bit_exact(&fsmd, &bench.args, &label) {
                return;
            }
        }
    }
}

/// The registered benchmark suite again, with the JIT's every state
/// falling back to the interpreter's one-step path: the lowered tape,
/// stepped one state at a time through `exec_state`, against the
/// interpreter's loop over the same tape.
#[test]
fn benchmark_suite_agrees_on_the_fallback_path() {
    for bench in chls::benchmarks() {
        let compiler = Compiler::parse(bench.source).expect("benchmark parses");
        for (backend, fsmd) in fsmd_designs(&compiler, bench.entry) {
            let label = format!("{} on {backend}", bench.name);
            if !assert_fallback_bit_exact(&fsmd, &bench.args, &label) {
                return;
            }
        }
    }
}

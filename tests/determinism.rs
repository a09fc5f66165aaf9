//! Output determinism: the same program prints the same bytes every
//! time. Every `HashMap` draws fresh `RandomState` keys, so repeating
//! a computation inside one process already exposes iteration order
//! that leaks into output; no second process is needed.

use chls::Compiler;

mod common;

/// A generated program, reduced: lowering its `if` inside a loop left
/// incomplete phis whose fill order, and with it the SSA value
/// numbering `chls ir` prints, followed hash-map order.
const REDUCED: &str = "int main(int a[16], int x, int y) {
    int v1 = (int) (((sint<16>) (((x) <= (x)))));
    sint<16> v2 = (sint<16>) (((86) >> ((99) & 7)));
    if ((((a[(v2) & 15]) ? (((224) | (a[(v2) & 15]))) : (v2))) < (~(((a[(v1) & 15]) >= (v2))))) {
        v1 += ((((v1) != (y))) << ((((v1) && (a[(y) & 15]))) & 7));
        v2 = ((((158) < (a[(v1) & 15]))) > (((x) ? (((v1) == (79))) : (y))));
    }
    for (int i3 = 0; i3 < 8; i3++) {
        v1 -= ((((i3) ? (((128) | (y))) : (118))) || (((a[(i3) & 15]) & (i3))));
        if ((((181) ^ (148))) < (((v2) ? (((217) / ((x) | 1))) : (59)))) {
        }
    }
    return v1 ^ v2;
}";

#[test]
fn ir_text_is_identical_across_lowerings() {
    // A fresh `Compiler` each run: one `Compiler` lowers once and
    // answers repeats from its memo.
    let lower = || {
        let compiler = Compiler::parse(REDUCED).expect("the reduced program parses");
        compiler
            .prepared_ir("main")
            .expect("the reduced program lowers")
    };
    let first = lower();
    for run in 1..16 {
        let again = lower();
        assert_eq!(again, first, "lowering {run} printed different IR");
    }
}

/// Every program the shared-preparation tests synthesize: the
/// `examples/chl` corpus and the built-in benchmark kernels. Programs
/// the strict frontend rejects (the recursive inputs of `chls rewrite`)
/// have no `Compiler` to share and are left out.
fn corpus() -> Vec<(String, String, String)> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut programs: Vec<_> = common::corpus()
        .into_iter()
        .map(|(path, entry)| {
            let source = std::fs::read_to_string(root.join(&path)).expect("readable");
            (path, source, entry)
        })
        .collect();
    programs.extend(chls::benchmarks().into_iter().map(|b| {
        (
            b.name.to_string(),
            b.source.to_string(),
            b.entry.to_string(),
        )
    }));
    programs.retain(|(_, source, _)| Compiler::parse(source).is_ok());
    programs
}

/// The options the shared-preparation tests synthesize under: the
/// defaults, and loop pipelining, under which c2v rewrites its copy of
/// the prepared IR (load forwarding, if-conversion) before scheduling.
fn option_sets() -> [chls::SynthOptions; 2] {
    let pipelined = chls::SynthOptions {
        pipeline_loops: true,
        ..chls::SynthOptions::default()
    };
    [chls::SynthOptions::default(), pipelined]
}

/// All seven backends synthesized through one `Compiler` — in registry
/// order and in reverse — give exactly the designs (or errors) a fresh
/// `Compiler` per backend gives. Sharing the front half changes no
/// output, and no backend's rewrites leak into another's input.
#[test]
fn one_compiler_for_every_backend_matches_a_fresh_one_each() {
    let backends = chls::backends();
    for (name, source, entry) in corpus() {
        for opts in option_sets() {
            let fresh: Vec<_> = backends
                .iter()
                .map(|b| {
                    let compiler = Compiler::parse(&source).expect("corpus program parses");
                    compiler.synthesize(b.as_ref(), &entry, &opts)
                })
                .collect();
            let forward = Compiler::parse(&source).expect("corpus program parses");
            for (b, want) in backends.iter().zip(&fresh) {
                let got = forward.synthesize(b.as_ref(), &entry, &opts);
                assert!(
                    got == *want,
                    "{name} on {}: shared compiler differs",
                    b.info().name
                );
            }
            let reverse = Compiler::parse(&source).expect("corpus program parses");
            for (b, want) in backends.iter().zip(&fresh).rev() {
                let got = reverse.synthesize(b.as_ref(), &entry, &opts);
                assert!(
                    got == *want,
                    "{name} on {} (reverse order): shared compiler differs",
                    b.info().name
                );
            }
        }
    }
}

/// The seven backends on one `Compiler` run the front half at most three
/// times: once for the sequential four, once for Cones' full unrolling,
/// once for the structured prefix (which the sequential preparation
/// then reuses). Every other request is a memo hit.
#[test]
fn seven_backends_prepare_at_most_three_times() {
    let backends = chls::backends();
    for (name, source, entry) in corpus() {
        let compiler = Compiler::parse(&source).expect("corpus program parses");
        let col = chls_trace::Collector::new();
        col.set_enabled(true);
        chls_trace::with_collector(&col, || {
            for b in &backends {
                let _ = compiler.synthesize(b.as_ref(), &entry, &chls::SynthOptions::default());
            }
        });
        let snap = col.snapshot();
        let misses = snap.counter("backend.prepare.miss").unwrap_or(0);
        assert!(
            misses <= 3,
            "{name}: {misses} preparations for seven backends"
        );
    }
}

/// Every benchmark kernel's FSMD, on every backend that makes one,
/// compiles to the same staged tape twice and to the same lowered tape
/// twice, and the constant pool comes out in slot order
/// rather than in the order of a hash table.
#[test]
fn tapes_are_identical_across_compilations() {
    let mut designs = 0usize;
    for bench in chls::benchmarks() {
        let compiler = Compiler::parse(bench.source).expect("benchmark parses");
        for b in &chls::backends() {
            let Ok(chls::Design::Fsmd(f)) =
                compiler.synthesize(b.as_ref(), bench.entry, &chls::SynthOptions::default())
            else {
                continue;
            };
            let label = format!("{} on {}", bench.name, b.info().name);
            let first = chls_sim::tape::compile_staged(&f);
            assert_eq!(
                chls_sim::tape::compile_staged(&f),
                first,
                "{label}: staged tapes differ"
            );
            let lowered = chls_sim::tape::compile(&f);
            assert_eq!(
                chls_sim::tape::compile(&f),
                lowered,
                "{label}: lowered tapes differ"
            );
            assert!(
                first.const_init.windows(2).all(|p| p[0].0 < p[1].0),
                "{label}: const_init is not in slot order: {:?}",
                first.const_init
            );
            let base = (first.n_regs + first.n_inputs) as u32;
            assert!(
                first
                    .const_init
                    .iter()
                    .enumerate()
                    .all(|(k, &(s, _))| s == base + k as u32),
                "{label}: constant slots are not dense after the inputs"
            );
            designs += 1;
        }
    }
    assert!(designs >= 50, "only {designs} FSMDs compiled");
}

/// A loop with three values that live across pipeline windows: the
/// pipeliner gives each a chain of stage shadow registers. The shadows'
/// order, and the order of the loop DFG's edges that the modulo schedule
/// follows, once came from hash-map iteration, so the design changed
/// from run to run. `verilog_three_shadows_pipeline_json.golden` pins
/// the c2v design.
const THREE_SHADOWS: &str = include_str!("programs/three_shadows.chl");

#[test]
fn pipelined_shadows_are_identical_across_syntheses() {
    let opts = chls::SynthOptions {
        pipeline_loops: true,
        ..chls::SynthOptions::default()
    };
    for name in ["c2v", "cyber"] {
        let backend = chls::backend_by_name(name).expect("registered");
        // A fresh `Compiler` each run, so no memo answers a repeat.
        let synth = || {
            Compiler::parse(THREE_SHADOWS)
                .expect("the three-shadow loop parses")
                .synthesize(backend.as_ref(), "main", &opts)
                .expect("the three-shadow loop synthesizes")
        };
        let first = synth();
        let fsmd = first.as_fsmd().expect("an FSMD");
        assert!(
            fsmd.regs.iter().filter(|r| r.name.contains("_s1")).count() >= 3,
            "{name}: the loop did not pipeline with three shadowed values"
        );
        for run in 1..16 {
            assert!(
                synth() == first,
                "{name}: synthesis {run} gave a different design"
            );
        }
    }
}

/// Every benchmark kernel's FSMD, on every backend that makes one,
/// compiles to the same machine code on a fresh mapping and on a pooled
/// one that still holds another design's code. The first round keeps
/// every program alive after emptying the pool, so each maps fresh
/// pages; the second round, in reverse order, runs from the pages the
/// first round's programs left in the pool.
#[test]
fn jit_code_is_identical_on_fresh_and_reused_pages() {
    if !chls_jit::available() {
        return;
    }
    let mut designs = Vec::new();
    for bench in chls::benchmarks() {
        let compiler = Compiler::parse(bench.source).expect("benchmark parses");
        for b in &chls::backends() {
            if let Ok(chls::Design::Fsmd(f)) =
                compiler.synthesize(b.as_ref(), bench.entry, &chls::SynthOptions::default())
            {
                designs.push((format!("{} on {}", bench.name, b.info().name), f));
            }
        }
    }
    let compile = |f| chls_jit::JitProgram::compile(f).expect("a JIT-capable host compiles");

    chls_jit::trim_pool();
    let fresh: Vec<_> = designs.iter().map(|(_, f)| compile(f)).collect();
    let first: Vec<(Vec<u8>, usize, usize)> = fresh
        .iter()
        .map(|p| (p.code().to_vec(), p.bytes, p.code().as_ptr() as usize))
        .collect();
    drop(fresh);

    let mut reused = 0;
    for ((label, f), (code, bytes, _)) in designs.iter().zip(&first).rev() {
        let p = compile(f);
        let addr = p.code().as_ptr() as usize;
        reused += usize::from(first.iter().any(|&(_, _, a)| a == addr));
        assert_eq!(p.bytes, *bytes, "{label}: JitProgram::bytes differs");
        assert!(
            p.code() == &code[..],
            "{label}: machine code differs on a reused mapping"
        );
    }
    assert!(reused > 0, "no design ran from a pooled mapping");
    assert!(designs.len() >= 50, "only {} FSMDs compiled", designs.len());
}

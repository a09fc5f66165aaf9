//! Cross-validation at the structural level: every clocked backend's FSMD
//! is additionally lowered to a flat netlist (`chls_rtl::fsmd_to_netlist`)
//! and stepped with the levelized netlist simulator. Result, final memory
//! contents, and the exact cycle count must agree with the FSMD
//! simulator — two independent execution semantics of the same hardware.

use chls::interp::ArgValue;
use chls::{backend_by_name, Compiler, Design, SynthOptions};
use chls_rtl::fsmd_to_netlist;
use chls_sim::netlist_sim::NetlistSim;

/// (cycles, ret, final RAM images) from a finished netlist run.
type NetlistRun = (u64, Option<i64>, Vec<Vec<i64>>);

/// Steps the netlist until `done` reads 1, returning (cycles, ret, rams).
fn run_netlist(nl: &chls_rtl::Netlist, max_cycles: u64) -> Result<NetlistRun, String> {
    let mut sim = NetlistSim::new(nl).map_err(|e| e.to_string())?;
    let has_ret = nl.outputs.iter().any(|(n, _)| n == "ret");
    for cycle in 1..=max_cycles {
        sim.step().map_err(|e| e.to_string())?;
        if sim.output("done").map_err(|e| e.to_string())? == 1 {
            let ret = if has_ret {
                Some(sim.output("ret").map_err(|e| e.to_string())?)
            } else {
                None
            };
            let rams = (0..nl.rams.len()).map(|i| sim.ram(i).to_vec()).collect();
            return Ok((cycle, ret, rams));
        }
    }
    Err("netlist never finished".to_string())
}

fn crossval(backend_name: &str, bench_name: &str) {
    let bench = chls::benchmark(bench_name).expect("exists");
    let compiler = Compiler::parse(bench.source).expect("parses");
    let backend = backend_by_name(backend_name).expect("registered");
    let design = match compiler.synthesize(backend.as_ref(), bench.entry, &SynthOptions::default())
    {
        Ok(d) => d,
        Err(e) => panic!("{backend_name} refused {bench_name}: {e}"),
    };
    let Design::Fsmd(fsmd) = &design else {
        panic!("{backend_name} is not a clocked backend");
    };
    // FSMD simulation.
    let fsmd_result =
        chls_sim::fsmd_sim::simulate(fsmd, &bench.args, 5_000_000).expect("fsmd simulates");

    // Netlist simulation: bake the argument arrays into RAM init and
    // scalar args into input ports.
    let mut nl = fsmd_to_netlist(fsmd);
    for (mi, m) in fsmd.mems.iter().enumerate() {
        if let Some(p) = m.param_index {
            if let Some(ArgValue::Array(contents)) = bench.args.get(p) {
                let mut v = contents.clone();
                v.resize(m.len, 0);
                nl.rams[mi].init = Some(v);
            }
        }
    }
    let mut sim_inputs: Vec<(String, i64)> = Vec::new();
    for (i, (name, _)) in fsmd.inputs.iter().enumerate() {
        let p = fsmd.input_params[i];
        if let Some(ArgValue::Scalar(v)) = bench.args.get(p) {
            sim_inputs.push((name.clone(), *v));
        }
    }
    // Wrap run_netlist with inputs applied.
    let mut sim = NetlistSim::new(&nl).expect("builds");
    for (name, v) in &sim_inputs {
        sim.set_input(name.clone(), *v);
    }
    let has_ret = nl.outputs.iter().any(|(n, _)| n == "ret");
    let mut finished = None;
    for cycle in 1..=5_000_000u64 {
        sim.step().expect("steps");
        if sim.output("done").expect("done") == 1 {
            let ret = if has_ret {
                Some(sim.output("ret").expect("ret"))
            } else {
                None
            };
            let rams: Vec<Vec<i64>> = (0..nl.rams.len()).map(|i| sim.ram(i).to_vec()).collect();
            finished = Some((cycle, ret, rams));
            break;
        }
    }
    let (nl_cycles, nl_ret, nl_rams) =
        finished.unwrap_or_else(|| panic!("{backend_name}/{bench_name}: netlist never finished"));

    assert_eq!(
        nl_ret, fsmd_result.ret,
        "{backend_name}/{bench_name}: return mismatch"
    );
    assert_eq!(
        nl_cycles, fsmd_result.cycles,
        "{backend_name}/{bench_name}: cycle-count mismatch"
    );
    for (mi, m) in fsmd.mems.iter().enumerate() {
        if m.len > 0 {
            assert_eq!(
                nl_rams[mi], fsmd_result.mems[mi],
                "{backend_name}/{bench_name}: memory `{}` mismatch",
                m.name
            );
        }
    }
    let _ = run_netlist; // silence when unused in narrow cfgs
}

#[test]
fn c2v_netlists_match_fsmd() {
    for bench in ["gcd", "dot8", "fib16", "max8", "bubble8", "histogram"] {
        crossval("c2v", bench);
    }
}

#[test]
fn handelc_netlists_match_fsmd() {
    for bench in ["gcd", "dot8", "fib16", "popcount", "vecscale"] {
        crossval("handelc", bench);
    }
}

#[test]
fn transmogrifier_netlists_match_fsmd() {
    for bench in ["gcd", "dot8", "isqrt", "max8"] {
        crossval("transmogrifier", bench);
    }
}

#[test]
fn hardwarec_netlists_match_fsmd() {
    for bench in ["gcd", "dot8", "crc32", "fib16"] {
        crossval("hardwarec", bench);
    }
}

#[test]
fn pipelined_c2v_netlists_match_fsmd() {
    // The pipelined kernels use guarded actions and Cases dispatch — the
    // structural lowering must reproduce them cycle for cycle too.
    use chls_sim::interp::ArgValue as A;
    let backend = backend_by_name("c2v").expect("registered");
    let opts = SynthOptions {
        pipeline_loops: true,
        ..Default::default()
    };
    for bench_name in ["dot8", "fib16", "vecscale", "popcount", "histogram"] {
        let bench = chls::benchmark(bench_name).expect("exists");
        let compiler = Compiler::parse(bench.source).expect("parses");
        let design = compiler
            .synthesize(backend.as_ref(), bench.entry, &opts)
            .unwrap_or_else(|e| panic!("{bench_name}: {e}"));
        let Design::Fsmd(fsmd) = &design else {
            unreachable!()
        };
        let fsmd_result =
            chls_sim::fsmd_sim::simulate(fsmd, &bench.args, 5_000_000).expect("fsmd simulates");
        let mut nl = fsmd_to_netlist(fsmd);
        for (mi, m) in fsmd.mems.iter().enumerate() {
            if let Some(p) = m.param_index {
                if let Some(A::Array(contents)) = bench.args.get(p) {
                    let mut v = contents.clone();
                    v.resize(m.len, 0);
                    nl.rams[mi].init = Some(v);
                }
            }
        }
        let mut sim = NetlistSim::new(&nl).expect("builds");
        for (i, (name, _)) in fsmd.inputs.iter().enumerate() {
            if let Some(A::Scalar(v)) = bench.args.get(fsmd.input_params[i]) {
                sim.set_input(name.clone(), *v);
            }
        }
        let mut cycles = 0u64;
        loop {
            cycles += 1;
            assert!(cycles < 5_000_000, "{bench_name}: never finished");
            sim.step().expect("steps");
            if sim.output("done").expect("done") == 1 {
                break;
            }
        }
        assert_eq!(cycles, fsmd_result.cycles, "{bench_name}: cycle mismatch");
        if nl.outputs.iter().any(|(n, _)| n == "ret") {
            assert_eq!(
                Some(sim.output("ret").expect("ret")),
                fsmd_result.ret,
                "{bench_name}: return mismatch"
            );
        }
    }
}

//! Differential validation of `chls flow` — every static verdict the
//! process-network analysis makes is checked against what actually
//! happens when the program runs:
//!
//! * programs flow flags as deadlocked must *really* hang — in the
//!   golden interpreter ([`InterpError::Deadlock`]) and in the Handel-C
//!   FSMD token simulator ([`FsmdSimError::Deadlock`]), with the same
//!   blocked endpoints flow predicted;
//! * programs flow passes as clean must complete identically across all
//!   backends, at `--jobs 1` and `--jobs 8`;
//! * the whole pre-existing example corpus must flow clean — zero false
//!   positives.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use chls::interp::InterpError;
use chls::{
    backend_by_name, check_conformance, CompileOptions, Compiler, Design, SynthOptions, Verdict,
};
use chls_analysis::flow::Dir;
use chls_analysis::{Balance, FlowReport};
use chls_rtl::fsmd::{ChanDir, Fsmd};
use chls_sched::ContractVerdict;
use chls_sim::fsmd_sim::{self, FsmdSimError};

const MAX_CYCLES: u64 = 5_000_000;

fn load(path: &str) -> (Compiler, String) {
    let src = fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let compiler = Compiler::parse(&src).unwrap_or_else(|e| panic!("parse {path}: {e}"));
    (compiler, src)
}

fn flow(compiler: &Compiler) -> FlowReport {
    compiler.flow("main").expect("flow analysis runs")
}

fn synth_handelc(compiler: &Compiler) -> Fsmd {
    let backend = backend_by_name("handelc").expect("handelc registered");
    match compiler.synthesize(backend.as_ref(), "main", &SynthOptions::default()) {
        Ok(Design::Fsmd(f)) => f,
        Ok(_) => panic!("handelc should produce an FSMD"),
        Err(e) => panic!("handelc synthesis failed: {e}"),
    }
}

/// The `(channel, direction)` endpoints of a blocked set, as a set —
/// the common currency between flow's prediction and the simulators'
/// observed hang. (Process labels also agree, but arm order is the
/// interesting invariant here, not the point of the test.)
fn flow_endpoints(report: &FlowReport) -> BTreeSet<(String, &'static str)> {
    report
        .networks
        .iter()
        .filter_map(|n| n.deadlock.as_ref())
        .flat_map(|d| d.blocked.iter())
        .map(|b| {
            let dir = match b.dir {
                Dir::Send => "send",
                Dir::Recv => "recv",
            };
            (b.channel.clone(), dir)
        })
        .collect()
}

/// The same endpoint set, from a simulator's observed blocked ops (both
/// simulators report [`chls_rtl::fsmd::BlockedOp`]).
fn sim_endpoints(blocked: &[chls_rtl::fsmd::BlockedOp]) -> BTreeSet<(String, &'static str)> {
    blocked
        .iter()
        .map(|b| {
            let dir = match b.dir {
                ChanDir::Send => "send",
                ChanDir::Recv => "recv",
            };
            (b.channel.clone(), dir)
        })
        .collect()
}

// ---------------------------------------------------------------------
// Deadlocked corpus: static verdict ⇔ dynamic hang
// ---------------------------------------------------------------------

#[test]
fn ordering_deadlock_verdict_matches_both_simulators() {
    let (compiler, _) = load("examples/chl/flow/deadlock_order.chl");
    let report = flow(&compiler);

    // Static side: a proved wait-for cycle through both arms, plus the
    // minimal capacity fix (one token of slack on either channel).
    assert!(report.has_errors());
    let net = &report.networks[0];
    let dl = net.deadlock.as_ref().expect("deadlock proved");
    assert_eq!(dl.cycle.first(), dl.cycle.last());
    assert!(dl.cycle.len() >= 3, "cycle names both arms: {:?}", dl.cycle);
    assert_eq!(dl.blocked.len(), 2);
    assert_eq!(net.capacities.len(), 1);
    assert_eq!(net.capacities[0].capacity, 1);

    let predicted = flow_endpoints(&report);
    assert_eq!(
        predicted,
        BTreeSet::from([("a".into(), "send"), ("b".into(), "send")])
    );

    // Golden interpreter: the same endpoints, as a first-class error.
    let err = compiler
        .interpret("main", &[])
        .expect_err("interpreter must hang");
    let InterpError::Deadlock { blocked } = &err else {
        panic!("expected interpreter deadlock, got: {err}");
    };
    assert_eq!(sim_endpoints(blocked), predicted);

    // Handel-C FSMD token simulator: same verdict again, end to end
    // through synthesis (exercises the product-construction stuck
    // detection, not just the interpreter's monitor).
    let f = synth_handelc(&compiler);
    let err = fsmd_sim::simulate(&f, &[], MAX_CYCLES).expect_err("fsmd sim must hang");
    let FsmdSimError::Deadlock { blocked, .. } = &err else {
        panic!("expected fsmd deadlock, got: {err}");
    };
    assert_eq!(sim_endpoints(blocked), predicted);
}

#[test]
fn interpreter_deadlock_message_is_deterministic() {
    // The arms block in whatever order the threads reach their sends;
    // the reported blocked set must not depend on it.
    let (compiler, _) = load("examples/chl/flow/deadlock_order.chl");
    let messages: BTreeSet<String> = (0..50)
        .map(|_| {
            let err = compiler
                .interpret("main", &[])
                .expect_err("interpreter must hang");
            assert!(matches!(err, InterpError::Deadlock { .. }), "{err}");
            err.to_string()
        })
        .collect();
    assert_eq!(messages.len(), 1, "deadlock message varies: {messages:?}");
    let msg = messages.first().expect("one message");
    let (arm0, arm1) = (msg.find("arm 0"), msg.find("arm 1"));
    assert!(
        arm0.is_some() && arm0 < arm1,
        "arm 0 must be reported first: {msg}"
    );
}

#[test]
fn rate_mismatch_verdict_matches_the_interpreter() {
    let (compiler, _) = load("examples/chl/flow/rate_mismatch.chl");
    let report = flow(&compiler);

    // Static side: the balance equations cannot close (8 sends vs 4
    // recvs), and the token game proves the producer's 5th send hangs
    // with every partner terminated — so no capacity can fix it.
    assert!(report.has_errors());
    let net = &report.networks[0];
    assert_eq!(net.channels.len(), 1);
    assert_eq!(net.channels[0].balance, Balance::Accumulates);
    let dl = net.deadlock.as_ref().expect("deadlock proved");
    assert!(dl.cycle.is_empty(), "partner exhaustion has no cycle");
    assert!(
        net.capacities.is_empty(),
        "no finite buffer fixes a rate mismatch"
    );
    assert_eq!(
        flow_endpoints(&report),
        BTreeSet::from([("c".into(), "send")])
    );

    // Dynamic side: the interpreter hangs on exactly that send.
    let err = compiler
        .interpret("main", &[])
        .expect_err("interpreter must hang");
    let InterpError::Deadlock { blocked } = &err else {
        panic!("expected interpreter deadlock, got: {err}");
    };
    assert_eq!(blocked.len(), 1);
    assert_eq!(blocked[0].channel, "c");
    assert!(matches!(blocked[0].dir, ChanDir::Send));

    // And the FSMD simulator agrees.
    let f = synth_handelc(&compiler);
    let err = fsmd_sim::simulate(&f, &[], MAX_CYCLES).expect_err("fsmd sim must hang");
    assert!(
        matches!(err, FsmdSimError::Deadlock { .. }),
        "expected fsmd deadlock, got: {err}"
    );
}

// ---------------------------------------------------------------------
// Clean corpus: static pass ⇔ dynamic completion everywhere
// ---------------------------------------------------------------------

#[test]
fn multirate_stream_is_clean_and_its_contract_is_met() {
    let (compiler, src) = load("examples/chl/stream_multirate.chl");
    let report = flow(&compiler);

    assert!(!report.has_errors(), "clean example must flow clean");
    let net = &report.networks[0];
    assert_eq!(net.processes.len(), 3);
    assert!(net.deadlock.is_none());
    assert!(net.skipped.is_none(), "trip-counted loops stay exact");
    for ch in &net.channels {
        assert_eq!(ch.balance, Balance::Balanced, "channel `{}`", ch.name);
    }

    // The `@ii(4)` contract on `c1`: the producer's loop services it
    // every 2 cycles, comfortably inside the promise.
    assert_eq!(report.contracts.len(), 1);
    let c = &report.contracts[0];
    assert_eq!(c.channel, "c1");
    assert_eq!(c.declared, 4);
    assert_eq!(c.verdict, ContractVerdict::Met);

    // Flow says clean ⇒ every backend must complete and agree, with
    // both a single worker and a contended 8-worker pool.
    for jobs in [1, 8] {
        let verdicts = check_conformance(&src, "main", &[], &CompileOptions::new().jobs(jobs))
            .unwrap_or_else(|e| panic!("conformance (jobs={jobs}) failed to run: {e}"));
        for (backend, v) in &verdicts {
            match v {
                Verdict::Pass { .. } | Verdict::Unsupported(_) => {}
                bad => panic!("jobs={jobs}/{backend}: flow-clean program diverged: {bad:?}"),
            }
        }
    }

    // And the golden interpreter returns the documented sum.
    let out = compiler.interpret("main", &[]).expect("completes");
    assert_eq!(out.ret, Some(136));
}

#[test]
fn existing_example_corpus_has_zero_false_positives() {
    let dir = Path::new("examples/chl");
    let mut seen = 0usize;
    for entry in fs::read_dir(dir).expect("examples/chl exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("chl") {
            continue;
        }
        seen += 1;
        let name = path.display().to_string();
        let (compiler, _) = load(&name);
        let report = flow(&compiler);
        assert!(
            !report.has_errors(),
            "false positive on {name}:\n{}",
            report.render(compiler.source())
        );
    }
    assert!(seen >= 8, "expected the full example corpus, saw {seen}");
}

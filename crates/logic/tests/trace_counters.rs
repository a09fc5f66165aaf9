//! The logic subsystem reports its work through the shared trace
//! collector: AIG sizes and SAT effort from the equivalence checker,
//! rewrite counts from the optimizer. This file pins that the counters
//! are actually recorded when tracing is on (it owns the process-global
//! collector, so it stays a single test).

use chls_frontend::IntType;
use chls_ir::BinKind;
use chls_logic::{check_comb_equiv, optimize, EquivOptions, Verdict};
use chls_rtl::netlist::{CellKind, Netlist};

#[test]
fn equiv_and_optimize_record_trace_counters() {
    // 16-bit inputs: 32 input bits total, 2^26 passes of the exhaustive
    // rung and far past its work cap, so the Differ check below
    // exercises the SAT path and its conflict counter.
    let ty = IntType::new(16, false);
    let build = |op: BinKind| {
        let mut nl = Netlist::new("t");
        let a = nl.add(CellKind::Input { name: "a".into() }, ty);
        let b = nl.add(CellKind::Input { name: "b".into() }, ty);
        let s = nl.add(CellKind::Bin(op, a, b), ty);
        nl.set_output("s", s);
        nl
    };

    chls_trace::set_enabled(true);
    chls_trace::reset();

    let good = build(BinKind::Add);
    let opt = optimize(&good);
    let report = check_comb_equiv(&good, &opt, &EquivOptions::default()).expect("check runs");
    assert!(matches!(report.verdict, Verdict::Equivalent));
    let differ =
        check_comb_equiv(&good, &build(BinKind::Or), &EquivOptions::default()).expect("check runs");
    assert!(matches!(differ.verdict, Verdict::Differ(_)));

    let snap = chls_trace::snapshot();
    chls_trace::set_enabled(false);

    let nodes = snap.counter("logic.aig_nodes").expect("aig_nodes recorded");
    assert!(nodes > 0, "equivalence checks must report AIG sizes");
    assert!(
        snap.counter("logic.rewrites").is_some(),
        "the optimizer must register its rewrite counter"
    );
    assert!(
        snap.counter("logic.sat_conflicts").is_some(),
        "SAT-decided checks must report solver effort"
    );
}

//! End-to-end tests of the `chls-logic` equivalence subsystem: the
//! optimizer is formally checked against its own input, broken rewrites
//! are refuted with simulator-confirmed counterexamples, and two real
//! backends are proven bounded-equivalent on a shared program.

use chls::interp::ArgValue;
use chls::{backend_by_name, Compiler, Design, SynthOptions};
use chls_frontend::IntType;
use chls_ir::BinKind;
use chls_logic::{check_comb_equiv, check_seq_equiv, optimize, EquivError, EquivOptions, Verdict};
use chls_rtl::netlist::{CellKind, Netlist};
use chls_rtl::CostModel;
use chls_sim::netlist_sim::NetlistSim;
use proptest::prelude::*;

/// Random layered combinational netlist over two 16-bit inputs, 20–60
/// cells, mixing arithmetic, logic, comparisons, and muxes.
fn random_netlist(n: usize, seed: u64) -> Netlist {
    let ty = IntType::new(16, false);
    let bit = IntType::new(1, false);
    let mut nl = Netlist::new("rand");
    let a = nl.add(CellKind::Input { name: "a".into() }, ty);
    let b = nl.add(CellKind::Input { name: "b".into() }, ty);
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut nets = vec![a, b];
    for _ in 0..n {
        let x = nets[(next() as usize) % nets.len()];
        let y = nets[(next() as usize) % nets.len()];
        let id = match next() % 12 {
            0 => nl.add(CellKind::Const((next() % 4096) as i64), ty),
            1 => {
                let s = nl.add(CellKind::Bin(BinKind::Lt, x, y), bit);
                nl.add(CellKind::Mux { sel: s, a: x, b: y }, ty)
            }
            2 => nl.add(CellKind::Bin(BinKind::Div, x, y), ty),
            3 => nl.add(CellKind::Bin(BinKind::Rem, x, y), ty),
            4 => nl.add(CellKind::Bin(BinKind::Shl, x, y), ty),
            5 => nl.add(CellKind::Bin(BinKind::Shr, x, y), ty),
            6 => nl.add(CellKind::Bin(BinKind::Mul, x, y), ty),
            7 => nl.add(CellKind::Bin(BinKind::Sub, x, y), ty),
            8 => nl.add(CellKind::Bin(BinKind::And, x, y), ty),
            9 => nl.add(CellKind::Bin(BinKind::Or, x, y), ty),
            10 => nl.add(CellKind::Bin(BinKind::Xor, x, y), ty),
            _ => nl.add(CellKind::Bin(BinKind::Add, x, y), ty),
        };
        nets.push(id);
    }
    for (i, &net) in nets.iter().rev().take(3).enumerate() {
        nl.set_output(format!("o{i}"), net);
    }
    nl
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The optimizer's output is formally equivalent to its input (full
    /// input space, decided by the strash/exhaustive/SAT ladder) and never
    /// costs more area.
    #[test]
    fn optimize_is_sat_equivalent_and_never_larger(
        n in 20usize..60,
        seed in any::<u64>(),
    ) {
        let nl = random_netlist(n, seed);
        let opt = optimize(&nl);
        let model = CostModel::new();
        prop_assert!(
            opt.area(&model) <= nl.area(&model),
            "optimizer grew area: {} -> {} (seed {seed})",
            nl.area(&model),
            opt.area(&model)
        );
        let report = check_comb_equiv(&nl, &opt, &EquivOptions::default())
            .expect("check runs");
        prop_assert!(
            matches!(report.verdict, Verdict::Equivalent),
            "optimizer changed semantics (seed {seed}): {:?}",
            report.verdict
        );
    }
}

/// Deliberately broken "rewrites" must be refuted, and each
/// counterexample must be confirmed by the concrete simulator: `a + b`
/// replaced by `a | b` (sound only when no carries propagate), and a
/// signed `sint<8>` comparison replaced by the unsigned one. Both span
/// 16 input bits, so the exhaustive rung finds the differing input.
#[test]
fn broken_rewrite_is_refuted_with_confirmed_counterexample() {
    let (u8t, s8) = (IntType::new(8, false), IntType::new(8, true));
    let u1 = IntType::new(1, false);
    // `a op b` over inputs of type `ty`, each first cast to `view`.
    let build = |ty: IntType, view: IntType, op: BinKind| {
        let mut nl = Netlist::new("rewrite");
        let a = nl.add(CellKind::Input { name: "a".into() }, ty);
        let b = nl.add(CellKind::Input { name: "b".into() }, ty);
        let a = nl.add(CellKind::Cast { from: ty, val: a }, view);
        let b = nl.add(CellKind::Cast { from: ty, val: b }, view);
        let out = if op.is_comparison() { u1 } else { view };
        let s = nl.add(CellKind::Bin(op, a, b), out);
        nl.set_output("s", s);
        nl
    };
    let pairs = [
        (build(u8t, u8t, BinKind::Add), build(u8t, u8t, BinKind::Or)),
        (build(s8, s8, BinKind::Lt), build(s8, u8t, BinKind::Lt)),
    ];
    for (good, broken) in &pairs {
        let report = check_comb_equiv(good, broken, &EquivOptions::default()).expect("check runs");
        assert_eq!(report.method, chls_logic::Method::Exhaustive);
        let Verdict::Differ(cex) = report.verdict else {
            panic!("broken rewrite not refuted: {:?}", report.verdict);
        };
        assert_eq!(cex.output, "s");
        assert_ne!(cex.a_value, cex.b_value);
        // Independently replay the counterexample through both netlists.
        for (nl, expected) in [(good, cex.a_value), (broken, cex.b_value)] {
            let mut sim = NetlistSim::new(nl).expect("builds");
            for (name, v) in &cex.inputs {
                sim.set_input(name.clone(), *v);
            }
            assert_eq!(sim.output("s").expect("evaluates"), expected);
        }
    }
}

const SUMSQ: &str = "
    int sumsq(int a, int b) {
        int s = 0;
        for (int i = 0; i < 4; i++) {
            s = (s + a * a + b) & 4095;
        }
        return s;
    }
";

fn synth_fsmd(src: &str, backend: &str, entry: &str) -> chls_rtl::Fsmd {
    let compiler = Compiler::parse(src).expect("parses");
    let b = backend_by_name(backend).expect("registered");
    match compiler.synthesize(b.as_ref(), entry, &SynthOptions::default()) {
        Ok(Design::Fsmd(f)) => f,
        other => panic!("{backend}:{entry}: expected an FSMD, got {other:?}"),
    }
}

/// Two genuinely different schedules of the same program (handelc's
/// rule-timed FSMD vs transmogrifier's one-big-switch) are proven
/// bounded-equivalent.
#[test]
fn two_backends_prove_bounded_equivalent() {
    let a = synth_fsmd(SUMSQ, "handelc", "sumsq");
    let b = synth_fsmd(SUMSQ, "transmogrifier", "sumsq");
    let report = check_seq_equiv(&a, &b, 24, &EquivOptions::default()).expect("check runs");
    assert!(
        matches!(report.verdict, Verdict::Equivalent),
        "backends disagree: {:?}",
        report.verdict
    );
}

/// A bound under which no input can finish on both sides must come back
/// `Unknown`, never a vacuous `Equivalent`.
#[test]
fn vacuous_bound_is_unknown_not_equivalent() {
    let a = synth_fsmd(SUMSQ, "handelc", "sumsq");
    let b = synth_fsmd(SUMSQ, "transmogrifier", "sumsq");
    let report = check_seq_equiv(&a, &b, 1, &EquivOptions::default()).expect("check runs");
    assert!(
        matches!(report.verdict, Verdict::Unknown(_)),
        "vacuous bound must be Unknown: {:?}",
        report.verdict
    );
}

const SEEDED_BUG: &str = "
    int main(int a, int b) {
        int s = 0;
        for (int i = 0; i < 4; i++) {
            s = (s + a * 3 + b) & 4095;
        }
        return s;
    }

    int main_bug(int a, int b) {
        int s = 0;
        for (int i = 0; i < 4; i++) {
            s = (s + a * 3 + b) & 4095;
        }
        if (s == 2900) {
            s = s ^ 1;
        }
        return s;
    }
";

/// A seeded miscompile — correct except on one deep reachable state —
/// is refuted, and the counterexample distinguishes the two entries in
/// the golden interpreter too.
#[test]
fn seeded_miscompile_refuted_with_interpreter_confirmed_cex() {
    let a = synth_fsmd(SEEDED_BUG, "handelc", "main");
    let b = synth_fsmd(SEEDED_BUG, "transmogrifier", "main_bug");
    let report = check_seq_equiv(&a, &b, 24, &EquivOptions::default()).expect("check runs");
    let Verdict::Differ(cex) = report.verdict else {
        panic!("seeded miscompile not refuted: {:?}", report.verdict);
    };
    assert_ne!(cex.a_value, cex.b_value);
    // The solver's input vector must distinguish the entries under the
    // golden interpreter as well — full independence from the netlist
    // and symbolic models.
    let compiler = Compiler::parse(SEEDED_BUG).expect("parses");
    let mut args = vec![ArgValue::Scalar(0); 2];
    for (name, v) in &cex.inputs {
        let idx: usize = name
            .strip_prefix("arg")
            .and_then(|s| s.parse().ok())
            .expect("unified input names are arg{i}");
        args[idx] = ArgValue::Scalar(*v);
    }
    let good = compiler.interpret("main", &args).expect("runs").ret;
    let bug = compiler.interpret("main_bug", &args).expect("runs").ret;
    assert_ne!(good, bug, "counterexample must distinguish the entries");
    assert_eq!(good, Some(cex.a_value));
    assert_eq!(bug, Some(cex.b_value));
}

/// Interface mismatches (different parameter shapes) are reported as
/// errors, not verdicts.
#[test]
fn interface_mismatch_is_an_error() {
    const TWO: &str = "
        int f(int a) { int s = 0; for (int i = 0; i < 2; i++) { s = s + a; } return s; }
        int g(int a, int b) { int s = 0; for (int i = 0; i < 2; i++) { s = s + a + b; } return s; }
    ";
    let a = synth_fsmd(TWO, "handelc", "f");
    let b = synth_fsmd(TWO, "handelc", "g");
    assert!(check_seq_equiv(&a, &b, 8, &EquivOptions::default()).is_err());

    // A register has no place in a combinational check.
    let ty = IntType::new(32, true);
    let mut seq = Netlist::new("seq");
    let x = seq.add(CellKind::Input { name: "x".into() }, ty);
    let r = seq.add(
        CellKind::Reg {
            next: x,
            init: 0,
            en: None,
        },
        ty,
    );
    seq.set_output("q", r);
    assert!(matches!(
        check_comb_equiv(&seq, &seq, &EquivOptions::default()),
        Err(EquivError::Interface(_))
    ));
}

/// Comparing a netlist with itself after optimization: `CellId`-level
/// sharing means the miter should collapse structurally, without SAT.
#[test]
fn self_equivalence_decided_by_strash() {
    let nl = random_netlist(40, 0xfeed);
    let report = check_comb_equiv(&nl, &nl, &EquivOptions::default()).expect("check runs");
    assert!(matches!(report.verdict, Verdict::Equivalent));
    assert_eq!(report.method, chls_logic::Method::Strash);
}

/// Checks `a` ≡ `b` at `k` under a private trace collector and returns
/// the report with the collector's snapshot.
fn traced_seq_equiv(
    a: &chls_rtl::Fsmd,
    b: &chls_rtl::Fsmd,
    k: usize,
) -> (chls_logic::EquivReport, chls_trace::Snapshot) {
    let col = chls_trace::Collector::new();
    col.set_enabled(true);
    let report = chls_trace::with_collector(&col, || {
        check_seq_equiv(a, b, k, &EquivOptions::default()).expect("check runs")
    });
    (report, col.snapshot())
}

/// gcd's bound is reachable (`b = 0` finishes at once), so the all-zero
/// simulated lane settles it and the 216k-node miter never meets SAT.
#[test]
fn reachable_bound_is_settled_by_simulation() {
    let src = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/chl/gcd.chl"),
    )
    .expect("reads gcd.chl");
    let a = synth_fsmd(&src, "c2v", "main");
    let b = synth_fsmd(&src, "cyber", "main");
    let (report, snap) = traced_seq_equiv(&a, &b, 16);
    assert!(
        matches!(report.verdict, Verdict::Equivalent),
        "{:?}",
        report.verdict
    );
    assert_eq!(report.sat_conflicts, 0);
    assert_eq!(snap.counter("logic.vacuity_sim"), Some(1));
    assert_eq!(snap.counter("logic.vacuity_sat"), None);
}

/// clamp_mix cannot finish within 16 cycles on both sides; no simulated
/// lane can show otherwise, so the `Unknown` still rests on a SAT proof.
#[test]
fn unreachable_bound_still_needs_sat() {
    let bench = chls::benchmarks()
        .into_iter()
        .find(|b| b.name == "clamp_mix")
        .expect("clamp_mix is a shipped benchmark");
    let a = synth_fsmd(bench.source, "c2v", bench.entry);
    let b = synth_fsmd(bench.source, "cyber", bench.entry);
    let (report, snap) = traced_seq_equiv(&a, &b, 16);
    match &report.verdict {
        Verdict::Unknown(why) => {
            assert_eq!(why, "no input completes within the bound on both sides")
        }
        other => panic!("expected Unknown, got {other:?}"),
    }
    assert!(
        report.sat_conflicts > 0,
        "the unreachability proof is SAT's"
    );
    assert_eq!(snap.counter("logic.vacuity_sat"), Some(1));
    assert_eq!(snap.counter("logic.vacuity_sim"), None);
}

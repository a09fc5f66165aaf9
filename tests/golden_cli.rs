//! Golden pin of every verb's one-shot CLI output (text and `--json`).
//!
//! The files under `tests/golden/` were captured from the `chls` binary
//! immediately *before* the verb dispatch was rerouted through
//! `chls::service::handle` (and immediately after the envelope gained
//! its `"schema"` field, the one deliberate JSON change of that PR), so
//! this suite proves the service-layer refactor is byte-identical: same
//! stdout, same exit codes, flag for flag.
//!
//! Wall-clock fields (`report`'s per-phase timings and parse time) are
//! the only nondeterministic bytes; [`normalize`] rewrites them — and
//! nothing else — to a fixed token on both sides of the diff.

use std::path::PathBuf;
use std::process::{Command, Output};

mod common;
use common::chls_bin;

fn chls(args: &[&str]) -> Output {
    Command::new(chls_bin())
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("run chls")
}

/// Rewrites wall-clock measurements to a fixed token.
///
/// * Text tables and headers print times with exactly three fractional
///   digits (`parse 0.034 ms`, `| 0.207    |`); no other field does
///   (`fnum` emits at most two), so `\d+.\d{3}` → `#` is surgical.
/// * JSON carries `"parse_seconds":<n>` and `"seconds":<n>`; their
///   number values become `0`.
fn normalize(s: &str) -> String {
    let mut out: Vec<u8> = Vec::with_capacity(s.len());
    let b = s.as_bytes();
    let mut i = 0;
    while i < b.len() {
        // JSON time keys: skip the number that follows.
        let mut replaced_key = false;
        for key in ["\"parse_seconds\":", "\"seconds\":"] {
            if b[i..].starts_with(key.as_bytes()) {
                out.extend_from_slice(key.as_bytes());
                i += key.len();
                while i < b.len() && matches!(b[i], b'0'..=b'9' | b'.' | b'-' | b'+' | b'e' | b'E')
                {
                    i += 1;
                }
                out.push(b'0');
                replaced_key = true;
                break;
            }
        }
        if replaced_key {
            continue;
        }
        // Text times: digits '.' exactly three digits, not followed by
        // another digit.
        if b[i].is_ascii_digit() {
            let start = i;
            while i < b.len() && b[i].is_ascii_digit() {
                i += 1;
            }
            if i + 3 < b.len()
                && b[i] == b'.'
                && b[i + 1].is_ascii_digit()
                && b[i + 2].is_ascii_digit()
                && b[i + 3].is_ascii_digit()
                && !b.get(i + 4).is_some_and(u8::is_ascii_digit)
            {
                out.push(b'#');
                i += 4;
            } else {
                out.extend_from_slice(&b[start..i]);
            }
            continue;
        }
        out.push(b[i]);
        i += 1;
    }
    String::from_utf8(out).expect("normalization preserves UTF-8")
}

/// One pinned invocation: args, golden file, expected exit success.
const CASES: &[(&[&str], &str, bool)] = &[
    (&["backends"], "backends.golden", true),
    (
        &["run", "examples/chl/gcd.chl", "main", "1071", "462"],
        "run_gcd.golden",
        true,
    ),
    (
        &[
            "check",
            "--jobs",
            "2",
            "examples/chl/gcd.chl",
            "main",
            "48",
            "36",
        ],
        "check_gcd.golden",
        true,
    ),
    (
        &[
            "check",
            "--jobs",
            "2",
            "--json",
            "examples/chl/gcd.chl",
            "main",
            "48",
            "36",
        ],
        "check_gcd_json.golden",
        true,
    ),
    (
        &["ir", "examples/chl/gcd.chl", "main"],
        "ir_gcd.golden",
        true,
    ),
    (
        &["lint", "examples/chl/par_pipeline.chl", "main"],
        "lint_par_pipeline.golden",
        true,
    ),
    (
        &["lint", "--json", "examples/chl/gcd.chl", "main"],
        "lint_gcd_json.golden",
        true,
    ),
    (
        &["rewrite", "examples/chl/software/fact.chl", "fact"],
        "rewrite_fact.golden",
        true,
    ),
    (
        &[
            "rewrite",
            "--json",
            "examples/chl/software/bitcount.chl",
            "bitcount",
        ],
        "rewrite_bitcount_json.golden",
        true,
    ),
    // Pointers, a data-dependent loop and the rewriter's address-taken,
    // write-count and loop-scan walks, all on one program.
    (
        &[
            "lint",
            "--json",
            "examples/chl/software/memcpy_walk.chl",
            "memcpy_walk",
        ],
        "lint_memcpy_walk_json.golden",
        true,
    ),
    (
        &[
            "rewrite",
            "--json",
            "examples/chl/software/memcpy_walk.chl",
            "memcpy_walk",
        ],
        "rewrite_memcpy_walk_json.golden",
        true,
    ),
    // Halving-loop bounding, recursion to a stack machine, and a counted
    // nest: the rewriter's in-place loop and continue rewrites.
    (
        &[
            "rewrite",
            "--json",
            "examples/chl/software/bsearch.chl",
            "bsearch",
        ],
        "rewrite_bsearch_json.golden",
        true,
    ),
    (
        &["rewrite", "--json", "examples/chl/software/fib.chl", "fib"],
        "rewrite_fib_json.golden",
        true,
    ),
    (
        &[
            "rewrite",
            "--json",
            "examples/chl/software/matmul.chl",
            "matmul",
        ],
        "rewrite_matmul_json.golden",
        true,
    ),
    // Partial unrolling substitutes the induction variable into copies.
    (
        &[
            "verilog",
            "--unroll",
            "2",
            "--json",
            "c2v",
            "examples/chl/fir.chl",
            "main",
        ],
        "verilog_fir_unroll2_json.golden",
        true,
    ),
    // Pointer lowering through the arms of a `par`.
    (
        &[
            "verilog",
            "--json",
            "handelc",
            "examples/chl/pointer_swap.chl",
            "main",
        ],
        "verilog_pointer_swap_handelc_json.golden",
        true,
    ),
    // One design per backend storage builder: HardwareC's chunk
    // schedule, Transmogrifier's regions, Handel-C's channels and
    // Cyber's pipelined loop with its stage shadows.
    (
        &[
            "verilog",
            "--json",
            "hardwarec",
            "examples/chl/checksum.chl",
            "main",
        ],
        "verilog_checksum_hardwarec_json.golden",
        true,
    ),
    (
        &[
            "verilog",
            "--json",
            "transmogrifier",
            "examples/chl/gcd.chl",
            "main",
        ],
        "verilog_gcd_transmogrifier_json.golden",
        true,
    ),
    (
        &[
            "verilog",
            "--json",
            "handelc",
            "examples/chl/par_pipeline.chl",
            "main",
        ],
        "verilog_par_pipeline_handelc_json.golden",
        true,
    ),
    (
        &[
            "verilog",
            "--pipeline",
            "--json",
            "cyber",
            "examples/chl/blend.chl",
            "main",
        ],
        "verilog_blend_pipeline_cyber_json.golden",
        true,
    ),
    // Three long-lived values: stage shadows in `Value` order.
    (
        &[
            "verilog",
            "--pipeline",
            "--json",
            "c2v",
            "tests/programs/three_shadows.chl",
            "main",
        ],
        "verilog_three_shadows_pipeline_json.golden",
        true,
    ),
    (
        &["flow", "examples/chl/stream_multirate.chl", "main"],
        "flow_stream.golden",
        true,
    ),
    (
        &[
            "flow",
            "--json",
            "examples/chl/stream_multirate.chl",
            "main",
        ],
        "flow_stream_json.golden",
        true,
    ),
    (
        &[
            "flow",
            "--json",
            "examples/chl/flow/deadlock_order.chl",
            "main",
        ],
        "flow_deadlock_json.golden",
        false,
    ),
    (
        &["synth", "c2v", "examples/chl/gcd.chl", "main", "48", "36"],
        "synth_gcd.golden",
        true,
    ),
    (
        &[
            "verilog",
            "--pipeline",
            "c2v",
            "examples/chl/fir.chl",
            "main",
        ],
        "verilog_fir.golden",
        true,
    ),
    (
        &[
            "equiv",
            "--backend",
            "handelc",
            "--backend",
            "transmogrifier",
            "--bound",
            "60",
            "examples/chl/checksum.chl",
            "main",
        ],
        "equiv_checksum.golden",
        true,
    ),
    (
        &[
            "equiv",
            "--backend",
            "handelc",
            "--backend",
            "transmogrifier",
            "--bound",
            "60",
            "--json",
            "examples/chl/checksum.chl",
            "main",
        ],
        "equiv_checksum_json.golden",
        true,
    ),
    // A 216,696-node miter that strash folds; its bound is reachable.
    (
        &[
            "equiv",
            "--json",
            "--backend",
            "c2v",
            "--backend",
            "cyber",
            "--bound",
            "16",
            "examples/chl/gcd.chl",
            "main",
        ],
        "equiv_gcd_c2v_cyber_json.golden",
        true,
    ),
    (
        &[
            "explore",
            "--all",
            "--seq-bound",
            "24",
            "examples/chl/blend.chl",
            "main",
        ],
        "explore_blend.golden",
        true,
    ),
    (
        &[
            "explore",
            "--all",
            "--seq-bound",
            "24",
            "--json",
            "examples/chl/blend.chl",
            "main",
        ],
        "explore_blend_json.golden",
        true,
    ),
    // Successive halving, plus infeasible points.
    (
        &[
            "explore",
            "--budget",
            "32",
            "--json",
            "examples/chl/software/matmul.chl",
            "matmul",
        ],
        "explore_matmul_budget_json.golden",
        true,
    ),
    (
        &["report", "--backend", "c2v", "examples/chl/fir.chl", "main"],
        "report_fir.golden",
        true,
    ),
    (
        &[
            "report",
            "--backend",
            "c2v",
            "--json",
            "examples/chl/fir.chl",
            "main",
        ],
        "report_fir_json.golden",
        true,
    ),
    (&["backends", "--json"], "backends_json.golden", true),
    (
        &["run", "--json", "examples/chl/checksum.chl", "main", A16],
        "run_checksum_json.golden",
        true,
    ),
    (
        &["ir", "--json", "examples/chl/gcd.chl", "main"],
        "ir_gcd_json.golden",
        true,
    ),
    (
        &["verilog", "--json", "c2v", "examples/chl/gcd.chl", "main"],
        "verilog_gcd_json.golden",
        true,
    ),
    // One golden per `synth` data shape: combinational, FSMD, dataflow.
    (
        &[
            "synth",
            "--json",
            "cones",
            "examples/chl/checksum.chl",
            "main",
            A16,
        ],
        "synth_checksum_cones_json.golden",
        true,
    ),
    (
        &[
            "synth",
            "--json",
            "c2v",
            "examples/chl/gcd.chl",
            "main",
            "48",
            "36",
        ],
        "synth_gcd_c2v_json.golden",
        true,
    ),
    (
        &[
            "synth",
            "--json",
            "cash",
            "examples/chl/gcd.chl",
            "main",
            "48",
            "36",
        ],
        "synth_gcd_cash_json.golden",
        true,
    ),
    // A CASH circuit with nested loops, a memory and sticky invariants.
    (
        &[
            "synth",
            "--json",
            "cash",
            "examples/chl/crc8.chl",
            "main",
            "9,1,8,2,7,3,6,4,5,0,15,11,14,12,13,10",
        ],
        "synth_crc8_cash_json.golden",
        true,
    ),
    (
        &["ir", "--json", "examples/chl/fir.chl", "main"],
        "ir_fir_json.golden",
        true,
    ),
    (&["schema"], "schema.golden", true),
    (&["schema", "--json"], "schema_json.golden", true),
];

/// A 16-element array argument (`checksum.chl` takes `int data[16]`).
const A16: &str = "1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16";

#[test]
fn every_verb_matches_its_pre_refactor_golden() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    for (args, golden, want_success) in CASES {
        let o = chls(args);
        assert_eq!(
            o.status.success(),
            *want_success,
            "exit status changed for {args:?}: stderr: {}",
            String::from_utf8_lossy(&o.stderr)
        );
        let got = normalize(&String::from_utf8_lossy(&o.stdout));
        let want_raw = std::fs::read_to_string(root.join("tests/golden").join(golden))
            .unwrap_or_else(|e| panic!("missing golden {golden}: {e}"));
        let want = normalize(&want_raw);
        assert_eq!(
            got,
            want,
            "`chls {}` diverged from tests/golden/{golden}",
            args.join(" ")
        );
    }
}

#[test]
fn normalizer_touches_only_wall_clock_fields() {
    assert_eq!(normalize("(parse 0.034 ms)"), "(parse # ms)");
    assert_eq!(normalize("| 1     | 0.207    |"), "| 1     | #    |");
    assert_eq!(
        normalize(r#""parse_seconds":0.000030244,"x":1"#),
        r#""parse_seconds":0,"x":1"#
    );
    assert_eq!(
        normalize(r#"{"phase":"sim.fsmd","seconds":2.9e-5}"#),
        r#"{"phase":"sim.fsmd","seconds":0}"#
    );
    // Not times: integers, one/two-decimal figures, comma lists.
    assert_eq!(
        normalize("area 15740 gates 14276.5"),
        "area 15740 gates 14276.5"
    );
    assert_eq!(normalize("args [1,2,3]"), "args [1,2,3]");
    assert_eq!(normalize("1.2345"), "1.2345");
    assert_eq!(normalize("clock: 2.00 ns"), "clock: 2.00 ns");
}

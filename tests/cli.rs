//! Integration tests for the `chls` binary: verb dispatch, per-verb flag
//! validation (misplaced flags must be rejected, not silently stripped),
//! exit codes, and the unified `--json` envelope across `check`, `lint`,
//! and `report`.
//!
//! The tests drive the release binary (tier-1 builds it first); when it
//! is missing they build it once via the `cargo` that launched the test.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::Once;

// ---------------------------------------------------------------------
// A minimal JSON parser (no serde in this tree): enough to assert that
// every `--json` output is well-formed and carries the envelope keys.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("expected array, got {other:?}"),
        }
    }

    fn as_str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected string, got {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn ws(&mut self) {
        while self.i < self.s.len() && (self.s[self.i] as char).is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {} (found {:?})",
                c as char,
                self.i,
                self.s.get(self.i).map(|b| *b as char)
            ))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.s.get(self.i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.s.get(self.i) {
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = std::str::from_utf8(&self.s[self.i + 1..self.i + 5])
                                .map_err(|e| e.to_string())?;
                            let cp = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                            self.i += 4;
                        }
                        Some(&c) => out.push(c as char),
                        None => return Err("bad escape".into()),
                    }
                    self.i += 1;
                }
                Some(&c) => {
                    // Multi-byte UTF-8 sequences pass through bytewise.
                    out.push(c as char);
                    self.i += 1;
                }
            }
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("bad array at byte {}", self.i)),
                    }
                }
            }
            Some(b'{') => {
                self.i += 1;
                let mut kv = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(kv));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.eat(b':')?;
                    let v = self.value()?;
                    kv.push((k, v));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(kv));
                        }
                        _ => return Err(format!("bad object at byte {}", self.i)),
                    }
                }
            }
            _ => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
        }
    }
}

fn parse_json(s: &str) -> Json {
    let s = s.trim();
    let mut p = Parser {
        s: s.as_bytes(),
        i: 0,
    };
    let v = p
        .value()
        .unwrap_or_else(|e| panic!("invalid JSON: {e}\n{s}"));
    p.ws();
    assert_eq!(p.i, s.len(), "trailing garbage after JSON:\n{s}");
    v
}

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

fn chls_bin() -> PathBuf {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let bin = root.join("target/release/chls");
    static BUILD: Once = Once::new();
    BUILD.call_once(|| {
        if !bin.exists() {
            let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
            let status = Command::new(cargo)
                .args(["build", "--release", "-p", "chls", "--bins"])
                .current_dir(&root)
                .status()
                .expect("spawn cargo build");
            assert!(status.success(), "building the chls binary failed");
        }
    });
    bin
}

fn chls(args: &[&str]) -> Output {
    Command::new(chls_bin())
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("run chls")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

/// Parses a `--json` output and asserts the unified envelope shape,
/// returning `(ok, data)`.
fn envelope(o: &Output, verb: &str) -> (bool, Json) {
    let j = parse_json(&stdout(o));
    assert_eq!(j.get("tool").unwrap().as_str(), "chls");
    assert_eq!(j.get("verb").unwrap().as_str(), verb);
    assert!(
        !j.get("version").unwrap().as_str().is_empty(),
        "version present"
    );
    let Some(Json::Bool(ok)) = j.get("ok") else {
        panic!("`ok` must be a bool");
    };
    (*ok, j.get("data").unwrap().clone())
}

const GCD: &str = "examples/chl/gcd.chl";
const FIR: &str = "examples/chl/fir.chl";

// ---------------------------------------------------------------------
// Verb behavior and exit codes
// ---------------------------------------------------------------------

#[test]
fn backends_lists_table() {
    let o = chls(&["backends"]);
    assert!(o.status.success());
    let out = stdout(&o);
    for b in ["cones", "hardwarec", "c2v", "handelc", "cash"] {
        assert!(out.contains(b), "missing {b}");
    }
}

#[test]
fn run_interprets() {
    let o = chls(&["run", GCD, "main", "48", "36"]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("ret = 12"));
}

#[test]
fn run_rejects_bad_args_and_missing_file() {
    let o = chls(&["run", GCD, "main", "forty-eight"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("bad integer"));
    let o = chls(&["run", "no/such/file.chl", "main"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("cannot read"));
}

#[test]
fn check_passes_and_reports_timing_in_json() {
    let o = chls(&["check", "--jobs", "2", "--json", GCD, "main", "48", "36"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let (ok, data) = envelope(&o, "check");
    assert!(ok);
    let results = data.get("results").unwrap().as_arr();
    assert!(results.len() >= 7, "all registered backends appear");
    // Per-design timing: at least one clocked backend reports cycles.
    assert!(
        results
            .iter()
            .any(|r| matches!(r.get("cycles"), Some(Json::Num(n)) if *n > 0.0)),
        "cycles present in check --json"
    );
    // And the dataflow backend reports async time units.
    assert!(
        results
            .iter()
            .any(|r| matches!(r.get("time_units"), Some(Json::Num(n)) if *n > 0.0)),
        "time_units present in check --json"
    );
}

#[test]
fn unknown_verb_fails_with_usage() {
    let o = chls(&["frobnicate"]);
    assert!(!o.status.success());
    let err = stderr(&o);
    assert!(err.contains("unknown verb"), "{err}");
    assert!(err.contains("usage:"), "{err}");
}

// ---------------------------------------------------------------------
// Per-verb flag validation: misplaced flags are errors, with the
// offending verb's usage string.
// ---------------------------------------------------------------------

#[test]
fn misplaced_flags_are_rejected() {
    // `--jobs` belongs to check, not run.
    let o = chls(&["run", "--jobs", "4", GCD, "main", "1", "2"]);
    assert!(!o.status.success());
    let err = stderr(&o);
    assert!(
        err.contains("unknown flag `--jobs` for `chls run`"),
        "{err}"
    );
    assert!(err.contains("usage: chls run"), "{err}");

    // `--backend` belongs to lint/report, not check.
    let o = chls(&["check", "--backend", "c2v", GCD, "main", "1", "2"]);
    assert!(!o.status.success());
    assert!(
        stderr(&o).contains("unknown flag `--backend` for `chls check`"),
        "{}",
        stderr(&o)
    );

    // `--pipeline` belongs to synth/verilog, not report.
    let o = chls(&["report", "--pipeline", GCD, "main"]);
    assert!(!o.status.success());
    assert!(
        stderr(&o).contains("unknown flag `--pipeline`"),
        "{}",
        stderr(&o)
    );
}

#[test]
fn flag_values_and_arity_are_validated() {
    let o = chls(&["check", GCD, "main", "--jobs"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("needs a value"), "{}", stderr(&o));

    let o = chls(&["check", "--jobs", "zero", GCD, "main"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("positive integer"), "{}", stderr(&o));

    // Too few positionals.
    let o = chls(&["ir", GCD]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("at least 2"), "{}", stderr(&o));

    // Too many positionals on a fixed-arity verb.
    let o = chls(&["ir", GCD, "main", "extra"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("at most 2"), "{}", stderr(&o));

    // Negative numbers still pass through as arguments.
    let o = chls(&["run", GCD, "main", "-48", "-36"]);
    assert!(o.status.success(), "{}", stderr(&o));
}

// ---------------------------------------------------------------------
// chls report
// ---------------------------------------------------------------------

#[test]
fn report_renders_qor_table() {
    let o = chls(&["report", GCD, "main", "48", "36"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("| backend"), "{out}");
    assert!(out.contains("wall-clock per phase"), "{out}");
    assert!(out.contains("c2v"), "{out}");
}

#[test]
fn report_all_json_carries_qor_and_phases() {
    let o = chls(&["report", "--all", "--json", GCD, "main", "48", "36"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let (ok, data) = envelope(&o, "report");
    assert!(ok);
    let backends = data.get("backends").unwrap().as_arr();
    assert!(backends.len() >= 7);
    let c2v = backends
        .iter()
        .find(|b| b.get("backend").unwrap().as_str() == "c2v")
        .expect("c2v row");
    for key in ["fsm_states", "registers", "gates", "sched_cycles", "cycles"] {
        assert!(
            matches!(c2v.get(key), Some(Json::Num(n)) if *n > 0.0),
            "c2v `{key}` must be a positive number"
        );
    }
    assert!(
        !c2v.get("phases").unwrap().as_arr().is_empty(),
        "per-phase wall-clock present"
    );
}

#[test]
fn report_carries_narrowed_area() {
    // The table grows a `narrow` column...
    let o = chls(&["report", "--backend", "c2v", FIR, "main"]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("| narrow"), "{}", stdout(&o));

    // ...and the JSON carries the what-if area, never above the baseline.
    let o = chls(&["report", "--backend", "c2v", "--json", FIR, "main"]);
    let (ok, data) = envelope(&o, "report");
    assert!(ok);
    let row = &data.get("backends").unwrap().as_arr()[0];
    let area = match row.get("area") {
        Some(Json::Num(n)) => *n,
        other => panic!("area missing: {other:?}"),
    };
    let narrowed = match row.get("narrowed_area") {
        Some(Json::Num(n)) => *n,
        other => panic!("narrowed_area missing: {other:?}"),
    };
    assert!(narrowed > 0.0 && narrowed <= area, "{narrowed} vs {area}");

    // With `--narrow` the main synthesis already narrows, so the what-if
    // column equals the baseline.
    let o = chls(&[
        "report",
        "--backend",
        "c2v",
        "--narrow",
        "--json",
        FIR,
        "main",
    ]);
    let (ok, data) = envelope(&o, "report");
    assert!(ok);
    let row = &data.get("backends").unwrap().as_arr()[0];
    let (Some(Json::Num(a)), Some(Json::Num(n))) = (row.get("area"), row.get("narrowed_area"))
    else {
        panic!("area/narrowed_area missing");
    };
    assert_eq!(a, n, "--narrow makes the baseline the narrowed design");
}

#[test]
fn report_backend_filter_and_exclusivity() {
    let o = chls(&["report", "--backend", "c2v", FIR, "main"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("c2v"), "{out}");
    assert!(!out.contains("handelc"), "filtered to one backend: {out}");

    let o = chls(&["report", "--backend", "c2v", "--all", GCD, "main"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("mutually exclusive"), "{}", stderr(&o));

    let o = chls(&["report", "--backend", "vaporware", GCD, "main"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("unknown backend"), "{}", stderr(&o));
}

// ---------------------------------------------------------------------
// chls lint --json rides the same envelope
// ---------------------------------------------------------------------

#[test]
fn lint_json_uses_envelope() {
    let o = chls(&["lint", "--json", GCD, "main"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let (ok, data) = envelope(&o, "lint");
    assert!(ok);
    assert!(data.get("races").is_some(), "lint payload inside envelope");
    assert!(data.get("cycles").is_some());
}

// ---------------------------------------------------------------------
// chls flow: process-network analysis through the spec table
// ---------------------------------------------------------------------

#[test]
fn flow_json_uses_envelope() {
    let o = chls(&[
        "flow",
        "--json",
        "examples/chl/stream_multirate.chl",
        "main",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    let (ok, data) = envelope(&o, "flow");
    assert!(ok);
    assert!(
        data.get("networks").is_some(),
        "flow payload inside envelope"
    );
    assert!(data.get("contracts").is_some());
    assert!(data.get("diags").is_some());
}

#[test]
fn flow_proves_the_ordering_deadlock_and_fails() {
    let o = chls(&["flow", "examples/chl/flow/deadlock_order.chl", "main"]);
    assert!(!o.status.success(), "a proved deadlock must exit nonzero");
    let out = stdout(&o);
    assert!(out.contains("structural deadlock cycle"), "{out}");
    assert!(out.contains("arm 0 → arm 1 → arm 0"), "{out}");
    assert!(out.contains("channel `a` needs capacity ≥ 1"), "{out}");
}

#[test]
fn flow_arity_and_flags_are_validated() {
    // Missing entry argument.
    let o = chls(&["flow", GCD]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("usage: chls flow"), "{}", stderr(&o));

    // Trailing extras beyond <file> <entry>.
    let o = chls(&["flow", GCD, "main", "42"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("usage: chls flow"), "{}", stderr(&o));

    // `--jobs` belongs to check, not flow.
    let o = chls(&["flow", "--jobs", "4", GCD, "main"]);
    assert!(!o.status.success());
    assert!(
        stderr(&o).contains("unknown flag `--jobs` for `chls flow`"),
        "{}",
        stderr(&o)
    );
}

// ---------------------------------------------------------------------
// synth / verilog still work through the spec table
// ---------------------------------------------------------------------

#[test]
fn synth_and_verilog_roundtrip() {
    let o = chls(&["synth", "c2v", GCD, "main", "48", "36"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("style:    FSMD"), "{out}");
    assert!(out.contains("result:   Some(12)"), "{out}");

    let o = chls(&["verilog", "--pipeline", "c2v", FIR, "main"]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("module"), "{}", stdout(&o));
}

// ---------------------------------------------------------------------
// chls equiv: backend agreement proofs, refutations, flag validation
// ---------------------------------------------------------------------

#[test]
fn equiv_requires_exactly_two_backends() {
    // No --backend at all.
    let o = chls(&["equiv", FIR, "main"]);
    assert!(!o.status.success());
    let err = stderr(&o);
    assert!(err.contains("exactly two --backend flags"), "{err}");
    assert!(err.contains("usage: chls equiv"), "{err}");

    // Only one.
    let o = chls(&["equiv", "--backend", "handelc", FIR, "main"]);
    assert!(!o.status.success());
    let err = stderr(&o);
    assert!(err.contains("exactly two --backend flags, got 1"), "{err}");
    assert!(err.contains("usage: chls equiv"), "{err}");
}

#[test]
fn equiv_rejects_undeclared_flags_via_verb_table() {
    let o = chls(&[
        "equiv",
        "--narrow",
        "--backend",
        "handelc",
        "--backend",
        "c2v",
        FIR,
        "main",
    ]);
    assert!(!o.status.success());
    let err = stderr(&o);
    assert!(
        err.contains("unknown flag `--narrow` for `chls equiv`"),
        "{err}"
    );
    assert!(err.contains("usage: chls equiv"), "{err}");
}

#[test]
fn opt_netlist_is_rejected_on_wrong_verbs() {
    // Declared for synth/verilog/report, not check or run.
    let o = chls(&["check", "--opt-netlist", GCD, "main", "48", "36"]);
    assert!(!o.status.success());
    let err = stderr(&o);
    assert!(
        err.contains("unknown flag `--opt-netlist` for `chls check`"),
        "{err}"
    );
    assert!(err.contains("usage: chls check"), "{err}");

    let o = chls(&["run", "--opt-netlist", GCD, "main", "48", "36"]);
    assert!(!o.status.success());
    assert!(
        stderr(&o).contains("unknown flag `--opt-netlist` for `chls run`"),
        "{}",
        stderr(&o)
    );
}

#[test]
fn equiv_proves_two_backends_agree_on_blend() {
    let o = chls(&[
        "equiv",
        "--backend",
        "handelc",
        "--backend",
        "transmogrifier",
        "--bound",
        "70",
        "examples/chl/blend.chl",
        "main",
    ]);
    assert!(o.status.success(), "{}", stdout(&o));
    let out = stdout(&o);
    assert!(out.contains("EQUIVALENT"), "{out}");
    assert!(out.contains("method"), "{out}");
}

#[test]
fn equiv_json_envelope_and_refutation_exit_code() {
    let dir = std::env::temp_dir().join("chls_equiv_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("bug.chl");
    std::fs::write(
        &file,
        "int main(int a, int b) {
            int s = 0;
            for (int i = 0; i < 4; i++) { s = (s + a * 3 + b) & 4095; }
            return s;
        }
        int main_bug(int a, int b) {
            int s = 0;
            for (int i = 0; i < 4; i++) { s = (s + a * 3 + b) & 4095; }
            if (s == 2900) { s = s ^ 1; }
            return s;
        }",
    )
    .unwrap();
    let path = file.to_str().unwrap();

    // Proof: same entry on both sides, JSON envelope, exit 0.
    let o = chls(&[
        "equiv",
        "--backend",
        "handelc",
        "--backend",
        "transmogrifier",
        "--bound",
        "24",
        "--json",
        path,
        "main",
    ]);
    assert!(o.status.success(), "{}", stdout(&o));
    let (ok, data) = envelope(&o, "equiv");
    assert!(ok);
    assert_eq!(data.get("verdict").unwrap().as_str(), "equivalent");
    assert!(
        matches!(data.get("aig_nodes"), Some(Json::Num(n)) if *n > 0.0),
        "aig_nodes present"
    );

    // Refutation: seeded miscompile, exit 1, counterexample in JSON.
    let o = chls(&[
        "equiv",
        "--backend",
        "handelc",
        "--backend",
        "transmogrifier",
        "--bound",
        "24",
        "--json",
        path,
        "main",
        "main_bug",
    ]);
    assert!(!o.status.success());
    let (ok, data) = envelope(&o, "equiv");
    assert!(!ok);
    assert_eq!(data.get("verdict").unwrap().as_str(), "differ");
    let detail = data.get("detail").unwrap();
    assert!(
        detail.get("inputs").is_some(),
        "counterexample inputs present"
    );
    assert!(
        detail.get("a_value") != detail.get("b_value"),
        "replayed values differ"
    );
}

#[test]
fn equiv_rejects_dataflow_and_bad_bound() {
    // The cash backend emits dataflow circuits — not comparable.
    let o = chls(&[
        "equiv",
        "--backend",
        "cash",
        "--backend",
        "c2v",
        FIR,
        "main",
    ]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("dataflow"), "{}", stderr(&o));

    let o = chls(&[
        "equiv",
        "--backend",
        "handelc",
        "--backend",
        "c2v",
        "--bound",
        "zero",
        FIR,
        "main",
    ]);
    assert!(!o.status.success());
    assert!(
        stderr(&o).contains("--bound needs a positive integer"),
        "{}",
        stderr(&o)
    );
}

#[test]
fn report_carries_opt_area() {
    // The table grows an `opt` column...
    let o = chls(&["report", "--backend", "c2v", FIR, "main"]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("| opt"), "{}", stdout(&o));

    // ...and the JSON carries the what-if area, never above the baseline.
    let o = chls(&["report", "--backend", "c2v", "--json", FIR, "main"]);
    let (ok, data) = envelope(&o, "report");
    assert!(ok);
    let row = &data.get("backends").unwrap().as_arr()[0];
    let area = match row.get("area") {
        Some(Json::Num(n)) => *n,
        other => panic!("area missing: {other:?}"),
    };
    let opt = match row.get("opt_area") {
        Some(Json::Num(n)) => *n,
        other => panic!("opt_area missing: {other:?}"),
    };
    assert!(opt > 0.0 && opt <= area, "{opt} vs {area}");

    // With --opt-netlist the main synthesis is already optimized, so the
    // what-if column equals the baseline.
    let o = chls(&[
        "report",
        "--backend",
        "c2v",
        "--opt-netlist",
        "--json",
        FIR,
        "main",
    ]);
    let (ok, data) = envelope(&o, "report");
    assert!(ok);
    let row = &data.get("backends").unwrap().as_arr()[0];
    let (Some(Json::Num(a)), Some(Json::Num(n))) = (row.get("area"), row.get("opt_area")) else {
        panic!("area/opt_area missing");
    };
    assert_eq!(
        a, n,
        "--opt-netlist makes the baseline the optimized design"
    );
}

#[test]
fn synth_accepts_opt_netlist_and_still_conforms() {
    let o = chls(&["synth", "--opt-netlist", "c2v", GCD, "main", "48", "36"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("result:   Some(12)"), "{out}");
}

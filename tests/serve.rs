//! Integration tests for the `chls serve` daemon: concurrent clients,
//! cache correctness (a hit must be bit-identical to the cold response
//! and any source/options mutation must miss), one-shot parity (the
//! daemon's `text` is byte-for-byte what the one-shot CLI prints),
//! panic isolation, and graceful shutdown.
//!
//! Everything runs against an embedded [`Server`] on an ephemeral port
//! (`127.0.0.1:0`), so the suite is parallel-safe and needs no fixed
//! port on the host.

use chls::jsonin::{parse, Value};
use chls::serve::{Client, ServeConfig, Server};
use chls::service::{self, Source};
use chls::{Request, ServiceCtx};

const GCD: &str = "int gcd(int a, int b) {
    while (b != 0) { int t = b; b = a % b; a = t; }
    return a;
}";

const MAC4: &str = "int mac4(int a, int b) {
    int s = 0;
    for (int i = 0; i < 4; i++) {
        s = (s + a * a + b) & 4095;
    }
    return s;
}";

const FACT: &str = "uint<32> fact(uint<3> n) {
    if (n <= 1) return 1;
    return (uint<32>)n * fact(n - 1);
}";

fn server() -> Server {
    Server::start(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        log: false,
        cache_budget: 64 << 20,
    })
    .expect("server binds an ephemeral port")
}

fn req(verb: &str, src: &str, entry: &str, args: &[&str]) -> Request {
    Request {
        verb: verb.to_string(),
        source: Source::Text(src.to_string()),
        entry: entry.to_string(),
        args: args.iter().map(ToString::to_string).collect(),
        ..Request::default()
    }
}

/// Parses one reply line and asserts the envelope invariants every
/// serve response must carry.
fn envelope(line: &str) -> Value {
    let v = parse(line).unwrap_or_else(|e| panic!("malformed envelope ({e}): {line}"));
    assert_eq!(v.str_of("tool"), Some("chls"), "{line}");
    assert_eq!(v.get("schema").and_then(Value::as_u64), Some(1), "{line}");
    assert!(v.str_of("verb").is_some(), "{line}");
    assert!(v.get("ok").and_then(Value::as_bool).is_some(), "{line}");
    assert!(v.get("data").is_some(), "{line}");
    assert!(v.get("text").is_some(), "{line}");
    assert!(v.get("cached").and_then(Value::as_bool).is_some(), "{line}");
    v
}

fn ok_of(v: &Value) -> bool {
    v.get("ok").and_then(Value::as_bool).expect("ok is bool")
}

fn cached_of(v: &Value) -> bool {
    v.get("cached")
        .and_then(Value::as_bool)
        .expect("cached is bool")
}

fn text_of(v: &Value) -> String {
    v.str_of("text").expect("text is a string").to_string()
}

/// The raw `data` bytes of an envelope line, for bit-identity checks
/// (parsing would erase formatting differences we want to detect).
fn data_slice(line: &str) -> &str {
    let start = line.find(r#""data":"#).expect("data key") + r#""data":"#.len();
    let end = line.rfind(r#","text":"#).expect("text key");
    &line[start..end]
}

#[test]
fn concurrent_clients_match_one_shot_verdicts() {
    let server = server();
    let addr = server.addr.to_string();
    // The mixed workload every client thread runs. Expected text comes
    // from the same service layer the daemon dispatches into.
    let work: Vec<Request> = vec![
        req("run", GCD, "gcd", &["48", "36"]),
        req("check", MAC4, "mac4", &["3", "5"]),
        req("ir", GCD, "gcd", &[]),
        {
            let mut r = req("synth", MAC4, "mac4", &[]);
            r.options = chls::CompileOptions::new().backend(Some("c2v"));
            r
        },
    ];
    let expected: Vec<(bool, String)> = work
        .iter()
        .map(|r| {
            let h = service::handle(r, &ServiceCtx::uncached()).expect("one-shot handles");
            (h.response.ok, h.response.text.clone())
        })
        .collect();
    std::thread::scope(|scope| {
        for t in 0..8 {
            let addr = &addr;
            let work = &work;
            let expected = &expected;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connects");
                for i in 0..work.len() * 2 {
                    let k = (t + i) % work.len();
                    let line = client.call(&work[k]).expect("call succeeds");
                    let v = envelope(&line);
                    assert_eq!(v.str_of("verb"), Some(work[k].verb.as_str()));
                    assert_eq!(ok_of(&v), expected[k].0, "{line}");
                    assert_eq!(text_of(&v), expected[k].1, "verdict drift under load");
                }
            });
        }
    });
    // 8 clients × 8 requests over 4 distinct keys: after the first
    // round everything is warm, so hits must dominate. (Exact counts
    // are racy — two threads can both miss a cold key, and the
    // compiler/design tiers count their own gets — so this asserts the
    // shape, not a census.)
    let stats = server.cache().stats();
    assert!(
        stats.hits >= 40 && stats.hits > stats.misses,
        "expected a warm cache, got {stats:?}"
    );
}

#[test]
fn cache_hit_is_bit_identical_and_mutations_invalidate() {
    let server = server();
    let mut client = Client::connect(&server.addr.to_string()).expect("connects");

    let cold = client
        .call(&req("check", GCD, "gcd", &["48", "36"]))
        .unwrap();
    let warm = client
        .call(&req("check", GCD, "gcd", &["48", "36"]))
        .unwrap();
    let (vc, vw) = (envelope(&cold), envelope(&warm));
    assert!(!cached_of(&vc), "first request must be a miss");
    assert!(cached_of(&vw), "second identical request must hit");
    assert_eq!(
        data_slice(&cold),
        data_slice(&warm),
        "hit must be bit-identical"
    );
    assert_eq!(text_of(&vc), text_of(&vw));

    // One byte of source: miss.
    let touched = format!("{GCD} ");
    let line = client
        .call(&req("check", &touched, "gcd", &["48", "36"]))
        .unwrap();
    assert!(
        !cached_of(&envelope(&line)),
        "source mutation must invalidate"
    );

    // One option flips: miss (the response key covers CompileOptions).
    let mut narrow = req("check", GCD, "gcd", &["48", "36"]);
    narrow.options = chls::CompileOptions::new().narrow(true);
    let line = client.call(&narrow).unwrap();
    assert!(
        !cached_of(&envelope(&line)),
        "option change must invalidate"
    );

    // Different args: miss.
    let line = client.call(&req("check", GCD, "gcd", &["7", "3"])).unwrap();
    assert!(!cached_of(&envelope(&line)), "arg change must invalidate");

    // And the original is still warm after all of that.
    let line = client
        .call(&req("check", GCD, "gcd", &["48", "36"]))
        .unwrap();
    assert!(cached_of(&envelope(&line)));
}

#[test]
fn daemon_text_is_one_shot_text_for_every_verb() {
    let server = server();
    let mut client = Client::connect(&server.addr.to_string()).expect("connects");
    let mut equiv = req("equiv", MAC4, "mac4", &[]);
    equiv.backends = vec!["handelc".to_string(), "transmogrifier".to_string()];
    equiv.bound = Some(24);
    let mut verilog = req("verilog", GCD, "gcd", &[]);
    verilog.options = chls::CompileOptions::new().backend(Some("c2v"));
    let requests = vec![
        Request {
            verb: "backends".to_string(),
            ..Request::default()
        },
        Request {
            verb: "schema".to_string(),
            ..Request::default()
        },
        req("run", GCD, "gcd", &["48", "36"]),
        req("check", GCD, "gcd", &["48", "36"]),
        req("ir", MAC4, "mac4", &[]),
        req("lint", GCD, "gcd", &[]),
        req("flow", GCD, "gcd", &[]),
        req("rewrite", FACT, "fact", &[]),
        verilog,
        equiv,
    ];
    for r in &requests {
        let local = service::handle(r, &ServiceCtx::uncached()).expect("one-shot handles");
        let line = client.call(r).expect("daemon handles");
        let v = envelope(&line);
        assert_eq!(v.str_of("verb"), Some(r.verb.as_str()));
        assert_eq!(ok_of(&v), local.response.ok, "{}", r.verb);
        assert_eq!(
            text_of(&v),
            local.response.text,
            "text drift on `{}`",
            r.verb
        );
        assert_eq!(
            data_slice(&line),
            local.response.data,
            "data drift on `{}`",
            r.verb
        );
    }
    // `report` carries wall-clock phase timings, so only the verdict is
    // compared, not the bytes.
    let r = req("report", GCD, "gcd", &["48", "36"]);
    let local = service::handle(&r, &ServiceCtx::uncached()).expect("one-shot report");
    let v = envelope(&client.call(&r).expect("daemon report"));
    assert_eq!(ok_of(&v), local.response.ok);
    assert!(text_of(&v).contains("gcd"), "report text renders");
}

#[test]
fn errors_come_back_as_error_envelopes_not_hangups() {
    let server = server();
    let mut client = Client::connect(&server.addr.to_string()).expect("connects");
    // Unknown verb.
    let v = envelope(&client.call_bare("explode").unwrap());
    assert!(!ok_of(&v));
    // Unreadable path.
    let mut r = req("run", "", "gcd", &[]);
    r.source = Source::Path("/nonexistent/chls-serve-test.chl".to_string());
    let line = client.call(&r).unwrap();
    let v = envelope(&line);
    assert!(!ok_of(&v));
    assert!(line.contains("cannot read"), "{line}");
    // Parse error in the program text.
    let v = envelope(&client.call(&req("run", "int oops(", "oops", &[])).unwrap());
    assert!(!ok_of(&v));
    // The connection survived all three and still serves.
    let v = envelope(&client.call(&req("run", GCD, "gcd", &["48", "36"])).unwrap());
    assert!(ok_of(&v));
}

#[test]
fn worker_panic_is_isolated_from_the_daemon() {
    let server = server();
    let mut client = Client::connect(&server.addr.to_string()).expect("connects");
    // `__panic` is the test-only poison pill: it panics inside a worker.
    let line = client
        .call_bare("__panic")
        .expect("daemon replies despite the panic");
    let v = envelope(&line);
    assert!(!ok_of(&v));
    assert!(line.contains("panicked"), "{line}");
    // The daemon survives: same connection, fresh request, correct answer.
    let v = envelope(&client.call(&req("run", GCD, "gcd", &["48", "36"])).unwrap());
    assert!(ok_of(&v));
    assert_eq!(text_of(&v), "ret = 12\n");
    // And an independent new connection works too.
    let mut other = Client::connect(&server.addr.to_string()).expect("connects");
    let v = envelope(&other.call_bare("stats").unwrap());
    assert!(ok_of(&v));
}

#[test]
fn stats_verb_reports_service_metrics() {
    let server = server();
    let mut client = Client::connect(&server.addr.to_string()).expect("connects");
    for _ in 0..2 {
        let _ = client.call(&req("run", GCD, "gcd", &["48", "36"])).unwrap();
    }
    let line = client.call_bare("stats").unwrap();
    let v = envelope(&line);
    assert!(ok_of(&v));
    let data = v.get("data").expect("stats data");
    assert!(data.get("uptime_seconds").and_then(Value::as_f64).is_some());
    assert_eq!(data.get("requests").and_then(Value::as_u64), Some(2));
    assert_eq!(data.get("workers").and_then(Value::as_u64), Some(4));
    let cache = data.get("cache").expect("cache block");
    // Cold `run`: response miss + compiler-tier miss. Warm `run`: one
    // response hit (the compiler tier is never consulted on a hit).
    assert_eq!(cache.get("hits").and_then(Value::as_u64), Some(1));
    assert_eq!(cache.get("misses").and_then(Value::as_u64), Some(2));
    let verbs = data.get("verbs").expect("verbs block");
    assert_eq!(verbs.get("run").and_then(Value::as_u64), Some(2));
}

#[test]
fn emit_dir_requests_bypass_the_response_memo() {
    let server = server();
    let mut client = Client::connect(&server.addr.to_string()).expect("connects");
    let dir = std::env::temp_dir().join(format!("chls_serve_emit_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut r = req("explore", MAC4, "mac4", &[]);
    r.options = chls::CompileOptions::new().backend(Some("cones"));
    r.budget = Some(2);
    r.emit_dir = Some(dir.to_string_lossy().into_owned());
    let emitted = || std::fs::read_dir(&dir).map_or(0, Iterator::count);

    let first = envelope(&client.call(&r).unwrap());
    assert!(ok_of(&first));
    assert!(emitted() > 0, "the sweep writes its frontier netlists");
    // Delete the emitted files: an identical request must write them
    // again rather than replay a reply naming files that are gone.
    std::fs::remove_dir_all(&dir).unwrap();
    let second = envelope(&client.call(&r).unwrap());
    assert!(
        !cached_of(&second),
        "an --emit-dir request was served from the memo"
    );
    assert!(emitted() > 0, "the repeated sweep re-emits its files");
    assert_eq!(first.get("data"), second.get("data"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shutdown_acks_then_stops_accepting() {
    let mut server = server();
    let addr = server.addr.to_string();
    let mut client = Client::connect(&addr).expect("connects");
    let v = envelope(&client.call(&req("run", GCD, "gcd", &["48", "36"])).unwrap());
    assert!(ok_of(&v));
    // The shutdown request is acknowledged *before* the listener dies.
    let line = client
        .call_bare("shutdown")
        .expect("shutdown is acknowledged");
    let v = envelope(&line);
    assert!(ok_of(&v));
    assert_eq!(
        v.get("data")
            .and_then(|d| d.get("shutting_down"))
            .and_then(Value::as_bool),
        Some(true),
        "{line}"
    );
    // The daemon drains: wait() returns instead of blocking forever.
    server.wait();
    // New work is refused once the listener is gone.
    let refused = Client::connect(&addr).and_then(|mut c| c.call_bare("stats"));
    assert!(refused.is_err(), "daemon still serving after shutdown");
}

//! `serve`: an embedded `chls serve` daemon under load on two persistent
//! connections.
//!
//! Seventy per cent of requests are warm: one of 24 primed (verb,
//! program) pairs that the cache answers. Thirty per cent are cold: a
//! freshly generated program that misses the cache and is compiled
//! behind the queue, writing to the cache while warm reads go on. One
//! client thread per connection keeps two requests outstanding, so the
//! daemon is saturated; the workload reports the latency and the rate it
//! sustains.

use crate::corpus;
use crate::gen::{self, Rng};
use crate::stats::{self, Metric};
use crate::workload::{self, Config, Outcome, Workload, WARMUP_S};
use chls::interp::ArgValue;
use chls::jsonin::{self, Value};
use chls::serve::{Client, ServeConfig, Server};
use chls::service::{self, Request, Source};
use chls::{CompileOptions, ServiceCtx};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const WARM_SHARE: usize = 70;
/// Outstanding requests per connection.
const DEPTH: usize = 2;
/// Requests per group when latencies are summarized (see
/// `Outcome::p50_ms`).
const PASS: usize = 240;
/// Cold replies kept for the one-shot comparison after measuring.
const COLD_CHECKED: usize = 6;
/// Cold requests are `synth` and `report` on one backend: `check` runs
/// transmogrifier, which panics on many generated programs, and `ir` and
/// `verilog` print differently from run to run for about a quarter of
/// them (see the README), so their replies have no stable reference.
/// Cold programs are small and medium only: a large one costs ten times
/// a small one, and a few of them would set the sustained rate of a run.
const COLD_MIX: [usize; 3] = [1, 1, 0];
/// Scheduled backends that accept every generated program without
/// channels (`handelc` takes those too).
const COLD_BACKENDS: [&str; 4] = ["c2v", "cyber", "hardwarec", "handelc"];

/// The primed hot set: (verb, program, backend option).
const HOT: [(&str, &str, Option<&str>); 24] = [
    ("run", "gcd", None),
    ("run", "fib16", None),
    ("run", "popcount", None),
    ("check", "dot8", None),
    ("check", "max8", None),
    ("check", "isqrt", None),
    ("ir", "fir8", None),
    ("ir", "crc32", None),
    ("ir", "histogram", None),
    ("synth", "matmul4", Some("c2v")),
    ("synth", "bubble8", Some("handelc")),
    ("synth", "clamp_mix", Some("cyber")),
    ("verilog", "strchr8", Some("c2v")),
    ("verilog", "vecscale", Some("hardwarec")),
    ("verilog", "conv1d", Some("transmogrifier")),
    ("lint", "blend.chl", None),
    ("lint", "checksum.chl", None),
    ("lint", "crc8.chl", None),
    ("flow", "par_pipeline.chl", None),
    ("flow", "stream_multirate.chl", None),
    ("flow", "pointer_swap.chl", None),
    ("report", "gcd.chl", None),
    ("report", "fir.chl", None),
    ("report", "software/bitcount.chl", None),
];

fn render_args(args: &[ArgValue]) -> Vec<String> {
    args.iter()
        .map(|a| match a {
            ArgValue::Scalar(v) => v.to_string(),
            ArgValue::Array(v) => v
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(","),
        })
        .collect()
}

fn request(
    verb: &str,
    source: &str,
    entry: &str,
    args: &[ArgValue],
    backend: Option<&str>,
) -> Request {
    Request {
        verb: verb.to_string(),
        source: Source::Text(source.to_string()),
        entry: entry.to_string(),
        args: if matches!(verb, "run" | "check" | "synth" | "report") {
            render_args(args)
        } else {
            Vec::new()
        },
        options: CompileOptions::new().backend(backend),
        ..Request::default()
    }
}

/// The wire line for `req`, with `id` spliced in (as `serve::Client`
/// writes it).
fn wire(req: &Request, id: u64) -> String {
    format!("{{\"id\":{id},{}\n", &req.to_json()[1..])
}

/// A reply line without its per-request tail (`cached` and `id`).
fn body(line: &str) -> &str {
    line.rfind(",\"cached\":").map_or(line, |i| &line[..i])
}

/// What a warm reply must be.
enum Expect {
    /// The one-shot `service::handle` response: `ok`, `data` (compared
    /// as parsed JSON) and `text`.
    OneShot { ok: bool, data: Value, text: String },
    /// `report` replies carry wall-clock phase timings, so they are held
    /// to the reply that primed the cache instead.
    Primed(String),
}

impl Expect {
    /// Changes one byte of the expected reply text (for
    /// `--corrupt-golden`), so a correct reply no longer matches it.
    fn corrupt(&mut self) {
        let s = match self {
            Expect::OneShot { text, .. } => text,
            Expect::Primed(s) => s,
        };
        let mut bytes = std::mem::take(s).into_bytes();
        match bytes.iter().rposition(u8::is_ascii_alphanumeric) {
            Some(i) => bytes[i] ^= 1,
            None => bytes.push(b'!'),
        }
        *s = String::from_utf8(bytes).expect("an ASCII edit keeps UTF-8");
    }
}

fn check_reply(line: &str, expect: &Expect) -> Result<(), String> {
    let v = jsonin::parse(line).map_err(|e| format!("unparseable reply: {e}"))?;
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("reply not ok: {}", &line[..line.len().min(300)]));
    }
    let same = match expect {
        Expect::OneShot { ok, data, text } => {
            v.get("ok").and_then(Value::as_bool) == Some(*ok)
                && v.get("data") == Some(data)
                && v.get("text").and_then(Value::as_str) == Some(text.as_str())
        }
        Expect::Primed(primed) => body(line) == primed,
    };
    if same {
        Ok(())
    } else {
        Err(format!(
            "warm reply differs from its reference: {}",
            &line[..line.len().min(300)]
        ))
    }
}

struct Hot {
    req: Request,
    expect: Expect,
}

pub struct Serve {
    server: Server,
    hot: Vec<Hot>,
    seed: u64,
    /// Index of the next fresh cold program; shared by both clients.
    cold_next: Mutex<u64>,
    /// The first cold requests and their replies, for the one-shot check.
    cold_seen: Mutex<Vec<(Request, String)>>,
    server_p50_ms: Mutex<f64>,
    cache_before: chls::CacheStats,
}

pub fn setup(cfg: &Config) -> Result<Serve, String> {
    let server = Server::start(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServeConfig::default()
    })?;
    let items = corpus::corpus()?;
    let mut client = Client::connect(&server.addr.to_string())?;
    let mut hot = Vec::new();
    for (verb, name, backend) in HOT {
        let it = items
            .iter()
            .find(|i| i.name == name)
            .ok_or_else(|| format!("no corpus program {name}"))?;
        let req = request(verb, &it.source, &it.entry, &it.args, backend);
        let primed = client.call(&req)?;
        let expect = if verb == "report" {
            Expect::Primed(body(&primed).to_string())
        } else {
            let r = service::handle(&req, &ServiceCtx::uncached())?.response;
            let data =
                jsonin::parse(&r.data).map_err(|e| format!("{verb} {name}: one-shot data: {e}"))?;
            Expect::OneShot {
                ok: r.ok,
                data,
                text: r.text.clone(),
            }
        };
        check_reply(&primed, &expect).map_err(|e| format!("priming {verb} {name}: {e}"))?;
        hot.push(Hot { req, expect });
    }
    if cfg.corrupt_golden {
        // `--corrupt-golden`: every warm reply of the first hot pair must
        // now be counted as failed.
        hot[0].expect.corrupt();
    }
    let cache_before = server.cache().stats();
    Ok(Serve {
        server,
        hot,
        seed: cfg.seed,
        cold_next: Mutex::new(0),
        cold_seen: Mutex::new(Vec::new()),
        server_p50_ms: Mutex::new(0.0),
        cache_before,
    })
}

/// A request on the wire, waiting for its reply.
struct Pending {
    sent: Instant,
    /// Index into the hot set, or `None` for a cold request.
    hot: Option<usize>,
    cold: Option<Request>,
}

struct Phase {
    latencies_ms: Vec<f64>,
    completions: Vec<Instant>,
    failures: Vec<String>,
    failed: u64,
}

impl Phase {
    fn new() -> Self {
        Phase {
            latencies_ms: Vec::new(),
            completions: Vec::new(),
            failures: Vec::new(),
            failed: 0,
        }
    }

    fn reply(&mut self, serve: &Serve, line: &str, p: &Pending) {
        let at = Instant::now();
        self.latencies_ms
            .push(at.duration_since(p.sent).as_secs_f64() * 1e3);
        self.completions.push(at);
        if let Err(e) = serve.verify(line, p) {
            self.failed += 1;
            if self.failures.len() < 4 {
                self.failures.push(e);
            }
        }
    }

    /// Adds another connection's requests, keeping completion order.
    fn merge(&mut self, other: Phase) {
        let mut both: Vec<(Instant, f64)> = self
            .completions
            .drain(..)
            .zip(self.latencies_ms.drain(..))
            .collect();
        both.extend(other.completions.into_iter().zip(other.latencies_ms));
        both.sort_by_key(|(t, _)| *t);
        (self.completions, self.latencies_ms) = both.into_iter().unzip();
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }

    /// Moves the request and failure counts into `out`.
    fn count_into(&mut self, out: &mut Outcome) {
        out.attempted += self.latencies_ms.len() as u64;
        out.failed += self.failed - self.failures.len() as u64;
        for f in self.failures.drain(..) {
            out.fail(f);
        }
    }
}

fn connect(addr: std::net::SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    Ok(stream)
}

impl Serve {
    fn cold_request(&self) -> Request {
        let k = {
            let mut next = self.cold_next.lock().expect("cold counter poisoned");
            *next += 1;
            *next - 1
        };
        let p = gen::program_at(self.seed ^ 0x5E57_E000, k, COLD_MIX);
        let backend = if p.source.contains("par {") {
            "handelc"
        } else {
            COLD_BACKENDS[(k / 2) as usize % COLD_BACKENDS.len()]
        };
        let verb = if k % 2 == 0 { "synth" } else { "report" };
        request(verb, &p.source, p.entry, &p.args, Some(backend))
    }

    /// The next request of the traffic mix, as a wire line with `id`.
    fn next_request(&self, rng: &mut Rng, id: u64) -> (String, Pending) {
        let sent = Instant::now();
        if rng.below(100) < WARM_SHARE {
            let h = rng.below(self.hot.len());
            (
                wire(&self.hot[h].req, id),
                Pending {
                    sent,
                    hot: Some(h),
                    cold: None,
                },
            )
        } else {
            let req = self.cold_request();
            (
                wire(&req, id),
                Pending {
                    sent,
                    hot: None,
                    cold: Some(req),
                },
            )
        }
    }

    /// Two client threads, one per connection, each keeping [`DEPTH`]
    /// requests outstanding for `seconds` with blocking reads. Requests
    /// of a `measured` phase are traced as the workload's operations.
    fn saturate(&self, seconds: f64, measured: bool) -> Result<Phase, String> {
        let end = Instant::now() + Duration::from_secs_f64(seconds);
        let results: Vec<Result<Phase, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2u64)
                .map(|t| {
                    s.spawn(move || -> Result<Phase, String> {
                        let mut rng = Rng::new(self.seed.wrapping_add(t + 1));
                        let mut stream = connect(self.server.addr)?;
                        let mut reader =
                            BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
                        let mut pending = VecDeque::new();
                        let mut ph = Phase::new();
                        let mut line = String::new();
                        let mut id = 0;
                        loop {
                            while pending.len() < DEPTH && Instant::now() < end {
                                let (wire, p) = self.next_request(&mut rng, id);
                                id += 1;
                                stream
                                    .write_all(wire.as_bytes())
                                    .map_err(|e| format!("send failed: {e}"))?;
                                pending.push_back(p);
                            }
                            let Some(p) = pending.pop_front() else { break };
                            line.clear();
                            if reader
                                .read_line(&mut line)
                                .map_err(|e| format!("receive failed: {e}"))?
                                == 0
                            {
                                return Err("daemon closed a connection".to_string());
                            }
                            ph.reply(self, line.trim_end_matches('\n'), &p);
                            if measured {
                                let kind = if p.hot.is_some() { "warm" } else { "cold" };
                                let done = *ph.completions.last().expect("reply just recorded");
                                crate::trace::record(kind, "service", p.sent, done);
                            }
                        }
                        Ok(ph)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut ph = Phase::new();
        for r in results {
            ph.merge(r?);
        }
        Ok(ph)
    }

    fn verify(&self, line: &str, p: &Pending) -> Result<(), String> {
        match (p.hot, &p.cold) {
            (Some(h), _) => check_reply(line, &self.hot[h].expect),
            (None, Some(req)) => {
                let v = jsonin::parse(line).map_err(|e| format!("unparseable cold reply: {e}"))?;
                if v.get("ok").and_then(Value::as_bool) != Some(true)
                    || v.get("cached").and_then(Value::as_bool) != Some(false)
                {
                    return Err(format!(
                        "cold {} reply: {}",
                        req.verb,
                        &line[..line.len().min(300)]
                    ));
                }
                let mut seen = self.cold_seen.lock().expect("cold record poisoned");
                if seen.len() < COLD_CHECKED && req.verb != "report" {
                    seen.push((req.clone(), line.to_string()));
                }
                Ok(())
            }
            (None, None) => unreachable!("a pending request is hot or cold"),
        }
    }
}

impl Workload for Serve {
    fn measure(&self, seconds: f64, out: &mut Outcome) {
        out.tail_q = 0.99;
        // An untimed warm-up, as the closed loops have.
        let run = self
            .saturate(WARMUP_S.min(seconds / 4.0), false)
            .and_then(|mut warm| {
                warm.count_into(out);
                self.saturate(seconds, true)
            });
        let mut ph = match run {
            Ok(ph) => ph,
            Err(e) => {
                out.attempted += 1;
                out.fail(e);
                return;
            }
        };
        ph.count_into(out);
        *self.server_p50_ms.lock().expect("server record poisoned") = server_p50(&self.server);
        // Groups of consecutive requests stand in for the closed loops'
        // passes.
        for group in ph.latencies_ms.chunks(PASS) {
            out.add_pass(group.to_vec());
        }
        // The sustained rate: per half-second window, over windows the
        // faster quartile.
        let (Some(first), Some(last)) = (ph.completions.first(), ph.completions.last()) else {
            return;
        };
        let span = last.duration_since(*first).as_secs_f64();
        let windows = ((span / 0.5).floor() as usize).max(1);
        let width = (span / windows as f64).max(1e-9);
        let mut counts = vec![0usize; windows];
        for t in &ph.completions {
            let w = (t.duration_since(*first).as_secs_f64() / width) as usize;
            counts[w.min(windows - 1)] += 1;
        }
        let rates: Vec<f64> = counts.iter().map(|c| *c as f64 / width).collect();
        out.ops_per_s = stats::faster_rate(&rates);
    }

    fn finish(&self, out: &mut Outcome) {
        // QoR of the hot set's synthesized designs, from the one-shot
        // references (area, and cycles where a simulation ran).
        for h in &self.hot {
            if let Expect::OneShot { data, .. } = &h.expect {
                out.qor_area
                    .extend(data.get("area").and_then(Value::as_f64));
                out.qor_cycles.extend(
                    data.get("result")
                        .and_then(|r| r.get("cycles"))
                        .and_then(Value::as_f64),
                );
            }
        }
        for (req, line) in self.cold_seen.lock().expect("cold record poisoned").iter() {
            out.attempted += 1;
            let r = workload::guarded(|| {
                let r = service::handle(req, &ServiceCtx::uncached())?.response;
                let data = jsonin::parse(&r.data).map_err(|e| e.to_string())?;
                check_reply(
                    line,
                    &Expect::OneShot {
                        ok: r.ok,
                        data,
                        text: r.text.clone(),
                    },
                )
            });
            if let Err(e) = r {
                out.fail(format!("cold {}: {e}", req.verb));
            }
        }
        let c = self.server.cache().stats();
        let hits = c.hits - self.cache_before.hits;
        let lookups = hits + c.misses - self.cache_before.misses;
        out.layer.push(Metric::new(
            "cache.hit_ratio",
            hits as f64 / lookups.max(1) as f64,
            "ratio",
        ));
        out.layer.push(Metric::new(
            "cache.evictions",
            (c.evictions - self.cache_before.evictions) as f64,
            "count",
        ));
        let client = out.p50_ms();
        let server = *self.server_p50_ms.lock().expect("server record poisoned");
        out.layer.push(Metric::new(
            "serve.queue_pct",
            100.0 * (client - server).max(0.0) / client.max(1e-9),
            "%",
        ));
        eprintln!("bench: serve: server p50 {server:.3} ms, client p50 {client:.3} ms");
    }
}

/// The daemon's own p50 request latency, from its `stats` snapshot.
fn server_p50(server: &Server) -> f64 {
    jsonin::parse(&server.stats_json())
        .ok()
        .and_then(|v| {
            v.get("latency_ms")
                .and_then(|l| l.get("p50"))
                .and_then(Value::as_f64)
        })
        .unwrap_or(0.0)
}

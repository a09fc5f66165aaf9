//! `chls serve` — the persistent synthesis daemon.
//!
//! A zero-dependency TCP server speaking newline-delimited JSON: each
//! request line is a [`Request`] (plus an optional `"id"`), each
//! response line is the unified envelope with serve extras appended —
//! `"text"` (the one-shot human rendering), `"warnings"`, `"cached"`,
//! and the echoed `"id"`. One connection may pipeline any number of
//! requests; connections are independent.
//!
//! Compilation work runs on a shared [`Executor`] pool over a shared
//! [`ArtifactCache`], so a warm `report` is a cache hit measured in
//! microseconds instead of a recompile measured in milliseconds. Two
//! verbs are handled at the transport layer because they are server
//! state, not compilation: `stats` (service-level metrics) and
//! `shutdown` (graceful stop; wakes the blocking accept loop with a
//! self-connection).
//!
//! [`Server::start`] embeds the daemon in-process (the tests and the
//! benchmark's `serve` workload use this); [`run`] is the blocking CLI
//! entry point.

use crate::cache::ArtifactCache;
use crate::executor::Executor;
use crate::jsonin::{self, Map, Value};
use crate::obj;
use crate::service::{self, envelope, Request, ServiceCtx, SCHEMA_VERSION};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Daemon configuration (the `chls serve` flags).
pub struct ServeConfig {
    /// `HOST:PORT`; port 0 binds an ephemeral port.
    pub addr: String,
    /// Worker pool width; 0 means one per available CPU.
    pub workers: usize,
    /// Log one line per request to stderr.
    pub log: bool,
    /// Artifact cache byte budget.
    pub cache_budget: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: DEFAULT_ADDR.to_string(),
            workers: 0,
            log: false,
            cache_budget: crate::cache::DEFAULT_BUDGET,
        }
    }
}

/// Where clients look when no `--addr`/`CHLS_SERVE_ADDR` is given.
pub const DEFAULT_ADDR: &str = "127.0.0.1:9417";

/// Default per-request timeout; requests can lower or raise it via
/// `timeout_ms` (capped at 10 minutes).
const DEFAULT_TIMEOUT: Duration = Duration::from_secs(60);
const MAX_TIMEOUT: Duration = Duration::from_secs(600);

/// Service-level metrics, fed by every connection and snapshotted by
/// the `stats` verb. Deliberately separate from the global
/// [`chls_trace`] collector, which `report` resets per backend.
struct Metrics {
    start: Instant,
    requests: AtomicU64,
    errors: AtomicU64,
    busy_micros: AtomicU64,
    verbs: Mutex<BTreeMap<String, u64>>,
    /// Bounded reservoir of recent request latencies (µs) for p50/p99.
    latencies: Mutex<Vec<u64>>,
}

const LATENCY_RESERVOIR: usize = 4096;

impl Metrics {
    fn new() -> Self {
        Metrics {
            start: Instant::now(),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            busy_micros: AtomicU64::new(0),
            verbs: Mutex::new(BTreeMap::new()),
            latencies: Mutex::new(Vec::new()),
        }
    }

    fn record(&self, verb: &str, ok: bool, elapsed: Duration) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        #[allow(clippy::cast_possible_truncation)]
        let micros = elapsed.as_micros() as u64;
        self.busy_micros.fetch_add(micros, Ordering::Relaxed);
        *self
            .verbs
            .lock()
            .expect("verbs lock")
            .entry(verb.to_string())
            .or_insert(0) += 1;
        let mut lat = self.latencies.lock().expect("latency lock");
        if lat.len() == LATENCY_RESERVOIR {
            // Overwrite pseudo-randomly so the reservoir stays recent-ish
            // without a clock or RNG: reuse the running request count.
            #[allow(clippy::cast_possible_truncation)]
            let i = (self.requests.load(Ordering::Relaxed) as usize).wrapping_mul(2_654_435_761)
                % LATENCY_RESERVOIR;
            lat[i] = micros;
        } else {
            lat.push(micros);
        }
    }

    fn percentile(sorted: &[u64], p: f64) -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        #[allow(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            clippy::cast_precision_loss
        )]
        let i = (((sorted.len() - 1) as f64) * p).round() as usize;
        #[allow(clippy::cast_precision_loss)]
        {
            sorted[i.min(sorted.len() - 1)] as f64 / 1000.0
        }
    }

    /// The `data` of `stats`.
    #[allow(clippy::cast_precision_loss)]
    fn to_value(&self, cache: &ArtifactCache, workers: usize) -> Value {
        let uptime = self.start.elapsed().as_secs_f64();
        let requests = self.requests.load(Ordering::Relaxed);
        let busy = self.busy_micros.load(Ordering::Relaxed) as f64 / 1e6;
        let mut lat = self.latencies.lock().expect("latency lock").clone();
        lat.sort_unstable();
        let mut verbs = Map::default();
        for (v, n) in self.verbs.lock().expect("verbs lock").iter() {
            verbs.push(v, *n);
        }
        let c = cache.stats();
        obj! {
            "uptime_seconds": Value::fixed(uptime, 3),
            "requests": requests,
            "errors": self.errors.load(Ordering::Relaxed),
            "requests_per_second": Value::fixed(
                if uptime > 0.0 { requests as f64 / uptime } else { 0.0 },
                1,
            ),
            "busy_seconds": Value::fixed(busy, 3),
            "workers": workers,
            "verbs": Value::Obj(verbs),
            "latency_ms": obj! {
                "p50": Value::fixed(Self::percentile(&lat, 0.50), 3),
                "p99": Value::fixed(Self::percentile(&lat, 0.99), 3),
            },
            "cache": obj! {
                "hits": c.hits,
                "misses": c.misses,
                "hit_rate": Value::fixed(c.hit_rate(), 4),
                "insertions": c.insertions,
                "evictions": c.evictions,
                "bytes": c.bytes,
                "entries": c.entries,
                "budget": c.budget,
            },
        }
    }
}

struct State {
    executor: Executor,
    cache: Arc<ArtifactCache>,
    metrics: Metrics,
    stopping: AtomicBool,
    log: bool,
    /// The bound address, so a `shutdown` RPC can wake the accept loop
    /// with a self-connection.
    addr: SocketAddr,
    /// Live connection threads, joined on shutdown so every in-flight
    /// reply is flushed before the process exits.
    conns: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl State {
    /// Begins shutdown: flips the flag and wakes the accept loop.
    fn begin_stop(&self) {
        self.stopping.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
    }

    /// Joins every connection thread (they exit within one read-timeout
    /// tick once `stopping` is set).
    fn join_conns(&self) {
        loop {
            let Some(handle) = self.conns.lock().expect("conns lock").pop() else {
                break;
            };
            let _ = handle.join();
        }
    }
}

/// An embedded daemon: bound, accepting, stoppable.
pub struct Server {
    /// The actually-bound address (resolves port 0).
    pub addr: SocketAddr,
    state: Arc<State>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `cfg.addr` and starts accepting in a background thread.
    pub fn start(cfg: &ServeConfig) -> Result<Server, String> {
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("cannot bind {}: {e}", cfg.addr))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let workers = if cfg.workers == 0 {
            std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
        } else {
            cfg.workers
        };
        let state = Arc::new(State {
            executor: Executor::new(workers),
            cache: Arc::new(ArtifactCache::with_budget(cfg.cache_budget)),
            metrics: Metrics::new(),
            stopping: AtomicBool::new(false),
            log: cfg.log,
            addr,
            conns: Mutex::new(Vec::new()),
        });
        let accept_state = state.clone();
        let accept_thread = std::thread::Builder::new()
            .name("chls-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_state))
            .map_err(|e| e.to_string())?;
        Ok(Server {
            addr,
            state,
            accept_thread: Some(accept_thread),
        })
    }

    /// Worker pool width.
    pub fn workers(&self) -> usize {
        self.state.executor.workers()
    }

    /// The shared artifact cache (tests inspect its stats).
    pub fn cache(&self) -> &ArtifactCache {
        &self.state.cache
    }

    /// Current `stats` JSON (same bytes the RPC verb returns).
    pub fn stats_json(&self) -> String {
        self.state
            .metrics
            .to_value(&self.state.cache, self.state.executor.workers())
            .to_string()
    }

    /// Has a `shutdown` request (or [`Server::stop`]) been seen?
    pub fn stopping(&self) -> bool {
        self.state.stopping.load(Ordering::Acquire)
    }

    /// Graceful stop: flips the flag, wakes accept, joins accept and
    /// every connection thread, drains workers. Idempotent.
    pub fn stop(&mut self) {
        self.state.begin_stop();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.state.join_conns();
        self.state.executor.shutdown();
    }

    /// Blocks until a client asks for `shutdown`, then drains.
    pub fn wait(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.state.join_conns();
        self.state.executor.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, state: &Arc<State>) {
    for stream in listener.incoming() {
        if state.stopping.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn_state = state.clone();
        let handle = std::thread::Builder::new()
            .name("chls-conn".to_string())
            .spawn(move || handle_conn(stream, &conn_state));
        if let Ok(handle) = handle {
            let mut conns = state.conns.lock().expect("conns lock");
            conns.retain(|h| !h.is_finished());
            conns.push(handle);
        }
    }
}

/// A serve reply: the envelope plus the serve members `text`,
/// `warnings`, `cached` and the echoed `id`.
fn reply_line(
    verb: &str,
    ok: bool,
    data: &str,
    text: &str,
    warnings: &[String],
    cached: bool,
    id: Option<u64>,
) -> String {
    let extra = obj! {
        "text": text,
        "warnings": Value::arr(warnings),
        "cached": cached,
        "id": id,
    };
    envelope(verb, ok, data, &extra)
}

fn handle_conn(stream: TcpStream, state: &Arc<State>) {
    // Finite read timeout so idle connections notice `stopping` and
    // exit instead of pinning shutdown on a blocked read. Nagle off:
    // replies are one small line each, and coalescing them behind
    // delayed ACKs costs ~40ms per round trip on loopback.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let _ = stream.set_nodelay(true);
    let Ok(reader_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(reader_half);
    let mut writer = stream;
    let mut line = String::new();
    loop {
        line.clear();
        loop {
            match reader.read_line(&mut line) {
                Ok(0) => return,
                Ok(_) => break,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
                    ) =>
                {
                    if state.stopping.load(Ordering::Acquire) {
                        return;
                    }
                }
                Err(_) => return,
            }
        }
        if line.trim().is_empty() {
            continue;
        }
        let started = Instant::now();
        let reply = respond(state, &line);
        let shutdown_after = reply.shutdown;
        state
            .metrics
            .record(&reply.verb, reply.ok, started.elapsed());
        if state.log {
            eprintln!(
                "[serve] verb={} ok={} cached={} {:.1}ms",
                reply.verb,
                reply.ok,
                reply.cached,
                started.elapsed().as_secs_f64() * 1e3
            );
        }
        let mut line_out = reply.line;
        line_out.push('\n');
        let wrote = writer.write_all(line_out.as_bytes()).is_ok();
        let _ = writer.flush();
        if shutdown_after {
            // Signal only after the reply is safely flushed, so the
            // requesting client always sees its acknowledgment.
            state.begin_stop();
            return;
        }
        if !wrote {
            return;
        }
    }
}

struct Reply {
    line: String,
    verb: String,
    ok: bool,
    cached: bool,
    shutdown: bool,
}

fn respond(state: &Arc<State>, line: &str) -> Reply {
    let fail = |verb: &str, msg: &str, id: Option<u64>| Reply {
        line: reply_line(
            verb,
            false,
            &obj! { "error": msg }.to_string(),
            "",
            &[],
            false,
            id,
        ),
        verb: verb.to_string(),
        ok: false,
        cached: false,
        shutdown: false,
    };
    let parsed = match jsonin::parse(line) {
        Ok(v) => v,
        Err(e) => return fail("?", &e.to_string(), None),
    };
    let id = parsed.get("id").and_then(Value::as_u64);
    let verb = parsed.str_of("verb").unwrap_or("?").to_string();
    match verb.as_str() {
        "stats" => {
            let data = state
                .metrics
                .to_value(&state.cache, state.executor.workers());
            Reply {
                line: reply_line("stats", true, &data.to_string(), "", &[], false, id),
                verb,
                ok: true,
                cached: false,
                shutdown: false,
            }
        }
        "shutdown" => {
            // The actual stop signal fires in `handle_conn` *after*
            // this acknowledgment is flushed to the client.
            let data = obj! { "shutting_down": true }.to_string();
            Reply {
                line: reply_line("shutdown", true, &data, "", &[], false, id),
                verb,
                ok: true,
                cached: false,
                shutdown: true,
            }
        }
        // Test-only poison pill: proves panic isolation end to end.
        "__panic" => {
            let ticket = state
                .executor
                .submit(|| -> () { panic!("__panic requested over the wire") });
            let msg = ticket
                .wait_timeout(DEFAULT_TIMEOUT)
                .err()
                .unwrap_or_else(|| "impossible: __panic returned".to_string());
            state.executor.reap_and_respawn();
            fail("__panic", &msg, id)
        }
        _ => {
            let req = match Request::from_json(&parsed) {
                Ok(r) => r,
                Err(e) => return fail(&verb, &e, id),
            };
            let timeout = req
                .timeout_ms
                .map_or(DEFAULT_TIMEOUT, Duration::from_millis)
                .min(MAX_TIMEOUT);
            let ctx = ServiceCtx::with_cache(state.cache.clone());
            let job_req = req.clone();
            let ticket = state
                .executor
                .submit(move || service::handle(&job_req, &ctx));
            match ticket.wait_timeout(timeout) {
                Ok(Ok(handled)) => {
                    let r = &handled.response;
                    Reply {
                        line: reply_line(
                            &r.verb,
                            r.ok,
                            &r.data,
                            &r.text,
                            &r.warnings,
                            handled.cached,
                            id,
                        ),
                        verb,
                        ok: r.ok,
                        cached: handled.cached,
                        shutdown: false,
                    }
                }
                Ok(Err(e)) | Err(e) => fail(&verb, &e, id),
            }
        }
    }
}

/// The blocking `chls serve` entry point: prints the bound address,
/// serves until a `shutdown` request, prints a final stats line.
pub fn run(cfg: &ServeConfig) -> Result<(), String> {
    let mut server = Server::start(cfg)?;
    println!(
        "chls serve: listening on {} ({} workers, schema {})",
        server.addr,
        server.workers(),
        SCHEMA_VERSION
    );
    let _ = std::io::stdout().flush();
    server.wait();
    println!("chls serve: shutdown ({})", server.stats_json());
    Ok(())
}

// ------------------------------------------------------------- client

/// One client call: connect, send `req` (tagged with `id`), read one
/// envelope line. Returns the raw line.
pub fn call(addr: &str, req: &Request, id: u64) -> Result<String, String> {
    Client::connect(addr)?.send(id, req.to_json())
}

/// A persistent client connection for pipelining many requests.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl Client {
    pub fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| format!("cannot connect to chls serve at {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        let reader_half = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Client {
            reader: BufReader::new(reader_half),
            writer: stream,
            next_id: 0,
        })
    }

    /// Sends one request and reads its reply line.
    pub fn call(&mut self, req: &Request) -> Result<String, String> {
        self.next_id += 1;
        self.send(self.next_id, req.to_json())
    }

    /// Raw single-verb calls with no body (`stats`, `shutdown`).
    pub fn call_bare(&mut self, verb: &str) -> Result<String, String> {
        self.next_id += 1;
        self.send(self.next_id, obj! { "verb": verb }.to_string())
    }

    /// The one send/receive path: `body` (a JSON object) gets `id`
    /// spliced in front, goes out as one line in one write, and one
    /// reply line comes back.
    fn send(&mut self, id: u64, body: String) -> Result<String, String> {
        let line = format!("{{\"id\":{id},{}\n", &body[1..]);
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send failed: {e}"))?;
        self.writer.flush().map_err(|e| e.to_string())?;
        let mut reply = String::new();
        self.reader
            .read_line(&mut reply)
            .map_err(|e| format!("receive failed: {e}"))?;
        if reply.is_empty() {
            return Err("server closed the connection without replying".to_string());
        }
        Ok(reply.trim_end_matches('\n').to_string())
    }
}

//! `chls` — command-line driver for the synthesis laboratory.
//!
//! ```text
//! chls backends                                list backends (Table 1)
//! chls check <file.chl> <entry> [args...]      run all backends vs golden
//! chls run <file.chl> <entry> [args...]        interpret only (or --jit:
//!                                              synthesize c2v, run natively)
//! chls ir <file.chl> <entry>                   dump the prepared SSA IR
//! chls synth <backend> <file.chl> <entry>      synthesize, print report
//! chls verilog <backend> <file.chl> <entry>    synthesize and emit Verilog
//! chls equiv --backend A --backend B <file.chl> <entry> [entry_b]
//!                                              prove or refute that two
//!                                              backends implement the same
//!                                              function (strash, exhaustive
//!                                              enumeration or SAT)
//! chls lint <file.chl> <entry>                 static analysis: races,
//!                                              per-backend support, cycle bounds
//! chls flow <file.chl> <entry>                 static process-network analysis
//! chls rewrite <file.chl> <entry>              certified synthesizability repair:
//!                                              recursion -> stack machine,
//!                                              data-dependent loops -> bounded,
//!                                              pointer arithmetic -> indexed arrays
//! chls report <file.chl> <entry> [args...]     per-backend QoR metrics and
//!                                              per-phase wall-clock timing
//! chls explore <file.chl> <entry>              certified design-space
//!                                              exploration: Pareto frontier
//!                                              over (area, latency, II)
//! chls schema                                  dump the JSON envelope contract
//! chls serve [--addr H:P] [--workers N]        persistent synthesis daemon
//! chls client [--addr H:P] <verb> [args...]    run any verb on a daemon
//! chls --connect H:P <verb> [args...]          ditto, flag form
//! ```
//!
//! This binary is argument parsing and rendering only: every verb
//! builds a [`chls::service::Request`] and dispatches through
//! [`chls::service::handle`] — the same single code path `chls serve`
//! uses — then prints the response's `text` (or, with `--json`, wraps
//! its `data` in the unified envelope of DESIGN.md §10/§15).
//!
//! Every verb's usage, positional layout and accepted flags come from
//! its row in [`chls::verbs::TABLE`]; a flag a verb does not declare is
//! an error with that verb's usage string, never silently accepted.
//! Scalar arguments are integers; array arguments are comma-separated
//! lists like `1,2,3,4`.

use chls::jsonin::{self, Value};
use chls::serve::{self, ServeConfig, DEFAULT_ADDR};
use chls::service::{self, envelope, Request, ServiceCtx, Source};
use chls::verbs::{self, Pos, Run, Takes, Verb, TABLE};
use chls::{obj, CompileOptions};
use std::process::ExitCode;

/// Flags (with values) and positionals, as parsed against one verb's row.
#[derive(Default)]
struct Parsed {
    flags: Vec<(&'static str, Option<String>)>,
    pos: Vec<String>,
}

impl Parsed {
    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| *n == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Every value a repeatable flag was given, in order.
    fn values(&self, name: &str) -> Vec<&str> {
        self.flags
            .iter()
            .filter(|(n, _)| *n == name)
            .filter_map(|(_, v)| v.as_deref())
            .collect()
    }
}

/// Parses `argv` (after the verb) against `spec`. Flags may appear
/// anywhere; tokens starting with `--` that the verb does not declare
/// are errors. Single-dash tokens stay positional so negative numbers
/// pass through as arguments.
fn parse_verb_args(spec: &Verb, argv: &[String]) -> Result<Parsed, String> {
    let mut parsed = Parsed::default();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if a.starts_with("--") {
            let Some(flag) = spec.flag(a) else {
                return Err(format!(
                    "unknown flag `{a}` for `chls {}`\nusage: {}",
                    spec.name, spec.usage
                ));
            };
            let value = match flag.takes {
                Takes::Nothing => None,
                Takes::Value => match it.next() {
                    Some(v) => Some(v.clone()),
                    None => return Err(format!("flag `{a}` needs a value\nusage: {}", spec.usage)),
                },
            };
            parsed.flags.push((flag.name, value));
        } else {
            parsed.pos.push(a.clone());
        }
    }
    let min = spec.min_pos();
    if parsed.pos.len() < min {
        return Err(format!(
            "`chls {}` needs at least {min} argument{}\nusage: {}",
            spec.name,
            if min == 1 { "" } else { "s" },
            spec.usage
        ));
    }
    if let Some(max) = spec.max_pos() {
        if parsed.pos.len() > max {
            return Err(format!(
                "`chls {}` takes at most {max} argument{}, got {}\nusage: {}",
                spec.name,
                if max == 1 { "" } else { "s" },
                parsed.pos.len(),
                spec.usage
            ));
        }
    }
    Ok(parsed)
}

fn usage() -> ExitCode {
    eprintln!("usage:");
    for v in TABLE {
        eprintln!("  {}", v.usage);
    }
    eprintln!("  chls client [--addr HOST:PORT] <verb> [verb args...]");
    eprintln!("  chls --connect HOST:PORT <verb> [verb args...]");
    eprintln!("\nargs: integers (42) or comma-separated arrays (1,2,3)");
    ExitCode::FAILURE
}

/// The value of flag `name` as a positive integer, if given.
fn positive(p: &Parsed, name: &str) -> Result<Option<usize>, String> {
    p.value(name)
        .map(|v| {
            v.parse()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("{name} needs a positive integer"))
        })
        .transpose()
}

/// Builds the service [`Request`] for one parsed verb invocation: the
/// positionals fill the row's layout, and each flag sets its one field
/// (a verb only ever carries the flags its row declares).
fn build_request(spec: &Verb, p: &Parsed) -> Result<Request, String> {
    let mut opts = CompileOptions::new()
        .pipeline(p.has("--pipeline"))
        .narrow(p.has("--narrow"))
        .opt_netlist(p.has("--opt-netlist"));
    if p.has("--jit") {
        opts = opts.jit(true);
    }
    if let Some(v) = p.value("--jobs") {
        let n: usize = v
            .parse()
            .map_err(|_| "--jobs needs a positive integer".to_string())?;
        opts = opts.jobs(n);
    }
    if let Some(v) = p.value("--unroll") {
        let u: u32 = v
            .parse()
            .map_err(|_| "--unroll needs a non-negative integer".to_string())?;
        opts = opts.unroll(Some(u));
    }
    let mut req = Request {
        verb: spec.name.to_string(),
        budget: positive(p, "--budget")?,
        bound: positive(p, "--bound")?.or(positive(p, "--seq-bound")?),
        emit_dir: p.value("--emit-dir").map(str::to_string),
        ..Request::default()
    };
    // `equiv` names its two backends with a repeated flag; elsewhere
    // `--backend` narrows the verb to one.
    let mut backend = p.value("--backend");
    if spec.name == "equiv" {
        req.backends = p
            .values("--backend")
            .iter()
            .map(ToString::to_string)
            .collect();
        if req.backends.len() != 2 {
            return Err(format!(
                "`chls equiv` needs exactly two --backend flags, got {}",
                req.backends.len()
            ));
        }
        backend = None;
    }
    if backend.is_some() && p.has("--all") {
        return Err("`--backend` and `--all` are mutually exclusive".to_string());
    }
    let mut pos = p.pos.iter();
    for slot in spec.pos {
        match slot {
            Pos::Backend => backend = pos.next().map(String::as_str),
            Pos::File => req.source = Source::Path(pos.next().cloned().unwrap_or_default()),
            Pos::Entry => req.entry = pos.next().cloned().unwrap_or_default(),
            Pos::EntryB => req.entry_b = pos.next().cloned(),
            Pos::Args => req.args = pos.by_ref().cloned().collect(),
        }
    }
    req.options = opts.backend(backend);
    Ok(req)
}

/// Parses argv against `spec` and builds the request; errors carry the
/// verb's usage line.
fn request_for(spec: &Verb, argv: &[String]) -> Result<(Request, bool), String> {
    let parsed = parse_verb_args(spec, argv)?;
    let req = build_request(spec, &parsed).map_err(|e| format!("{e}\nusage: {}", spec.usage))?;
    Ok((req, parsed.has("--json")))
}

/// Runs one request in-process and renders it exactly as the historic
/// per-verb commands did: warnings to stderr, `text` (or the JSON
/// envelope) to stdout, `ok` as the exit code.
fn run_local(req: &Request, json: bool) -> ExitCode {
    match service::handle(req, &ServiceCtx::uncached()) {
        Ok(h) => {
            let r = &h.response;
            for w in &r.warnings {
                eprintln!("{w}");
            }
            if json {
                println!("{}", envelope(&r.verb, r.ok, &r.data, &obj! {}));
            } else {
                print!("{}", r.text);
            }
            if r.ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_serve(spec: &Verb, argv: &[String]) -> Result<ExitCode, String> {
    let p = parse_verb_args(spec, argv)?;
    let mut cfg = ServeConfig::default();
    if let Some(a) = p.value("--addr") {
        cfg.addr = a.to_string();
    }
    if let Some(w) = p.value("--workers") {
        cfg.workers = w
            .parse()
            .map_err(|_| "--workers needs a non-negative integer".to_string())?;
    }
    if let Some(mb) = p.value("--cache-mb") {
        let mb: usize = mb
            .parse()
            .map_err(|_| "--cache-mb needs a non-negative integer".to_string())?;
        cfg.cache_budget = mb << 20;
    }
    cfg.log = p.has("--stats");
    serve::run(&cfg)?;
    Ok(ExitCode::SUCCESS)
}

/// `chls client` / `chls --connect`: ship the request to a daemon and
/// render its reply like a local invocation would.
fn run_client(addr: &str, argv: &[String]) -> ExitCode {
    let Some(verb) = argv.first() else {
        eprintln!("client needs a verb");
        return usage();
    };
    let Some(spec) = verbs::find(verb) else {
        eprintln!("unknown verb `{verb}`");
        return usage();
    };
    if matches!(spec.run, Run::Cli) {
        eprintln!("`{verb}` cannot be forwarded to a daemon");
        return ExitCode::FAILURE;
    }
    let result = request_for(spec, &argv[1..])
        .and_then(|(req, json)| Ok((serve::call(addr, &req, 0)?, json)));
    match result {
        Ok((line, json)) => render_remote(&line, json),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Renders one serve envelope line the way the local CLI would have:
/// warnings to stderr, text (or the raw envelope) to stdout, hard
/// errors to stderr, `ok` as the exit code.
fn render_remote(line: &str, json: bool) -> ExitCode {
    let Ok(v) = jsonin::parse(line) else {
        eprintln!("malformed response from daemon: {line}");
        return ExitCode::FAILURE;
    };
    let ok = v.get("ok").and_then(Value::as_bool).unwrap_or(false);
    for w in v
        .get("warnings")
        .and_then(Value::as_arr)
        .unwrap_or_default()
    {
        if let Some(w) = w.as_str() {
            eprintln!("{w}");
        }
    }
    let data = v.get("data").unwrap_or(&Value::Null);
    if json {
        println!("{line}");
    } else if let Some(err) = data.str_of("error") {
        eprintln!("{err}");
    } else {
        match v.str_of("text") {
            Some(t) if !t.is_empty() => print!("{t}"),
            // stats/shutdown have no text rendering; show the data,
            // which re-serializes byte for byte.
            _ => println!("{data}"),
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    // Connection prefix: `--connect H:P <verb> ...` or `client [--addr H:P] <verb> ...`.
    if argv.first().is_some_and(|a| a == "--connect") {
        if argv.len() < 2 {
            eprintln!("--connect needs HOST:PORT");
            return usage();
        }
        let addr = argv[1].clone();
        return run_client(&addr, &argv[2..]);
    }
    if argv.first().is_some_and(|a| a == "client") {
        argv.remove(0);
        let addr = if argv.first().is_some_and(|a| a == "--addr") {
            if argv.len() < 2 {
                eprintln!("--addr needs HOST:PORT");
                return usage();
            }
            argv.remove(0);
            argv.remove(0)
        } else {
            std::env::var("CHLS_SERVE_ADDR").unwrap_or_else(|_| DEFAULT_ADDR.to_string())
        };
        return run_client(&addr, &argv);
    }
    let Some(cmd) = argv.first() else {
        return usage();
    };
    let Some(spec) = verbs::find(cmd) else {
        eprintln!("unknown verb `{cmd}`");
        return usage();
    };
    let result = match spec.run {
        Run::Cli => cmd_serve(spec, &argv[1..]),
        Run::Daemon => Err(format!(
            "`{cmd}` is answered by a running daemon\nusage: {}",
            spec.usage
        )),
        Run::Service(_) => request_for(spec, &argv[1..]).map(|(req, json)| run_local(&req, json)),
    };
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })
}

//! The output contract, checked: every verb's `data` against the shape
//! its row in `chls::verbs::TABLE` declares, and the JSON writer against
//! its reader.
//!
//! * Every `tests/golden/*_json.golden` envelope re-serializes byte for
//!   byte (`parse(s).to_string() == s`) and its `data` matches its verb's
//!   shape.
//! * Every service verb's `--json` output over `examples/chl` matches its
//!   shape, so a field added, renamed or dropped without its row failing
//!   here cannot happen.
//! * A live daemon's `stats` and `shutdown` replies do the same.
//!
//! The shape grammar is documented in `crates/core/src/verbs.rs`.

use chls::interp::ArgValue;
use chls::jsonin::{parse, Value};
use chls::serve::{Client, ServeConfig, Server};
use chls::verbs::{self, Pos, Run};
use chls::Compiler;
use std::path::{Path, PathBuf};
use std::process::Command;

mod common;
use common::{chls_bin, corpus};

// ------------------------------------------------------------ shapes

#[derive(Debug)]
enum Shape {
    /// `str`, `int`, `num`, `bool`, `null`, `true`, or a name from
    /// `verbs::TYPES`.
    Word(String),
    Lit(String),
    Alt(Vec<Shape>),
    Arr(Box<Shape>),
    Obj(Vec<(String, Shape)>),
    Map(Box<Shape>),
}

struct ShapeParser<'a> {
    b: &'a [u8],
    i: usize,
}

impl ShapeParser<'_> {
    fn parse(text: &str) -> Shape {
        let mut p = ShapeParser {
            b: text.as_bytes(),
            i: 0,
        };
        let s = p.alt();
        assert_eq!(p.i, p.b.len(), "trailing text in shape `{text}` at {}", p.i);
        s
    }

    fn eat(&mut self, c: u8) -> bool {
        let hit = self.b.get(self.i) == Some(&c);
        self.i += usize::from(hit);
        hit
    }

    fn expect(&mut self, c: u8) {
        assert!(
            self.eat(c),
            "expected `{}` at {} in `{}`",
            c as char,
            self.i,
            String::from_utf8_lossy(self.b)
        );
    }

    fn alt(&mut self) -> Shape {
        let mut alts = vec![self.term()];
        while self.eat(b'|') {
            alts.push(self.term());
        }
        if alts.len() == 1 {
            alts.pop().unwrap()
        } else {
            Shape::Alt(alts)
        }
    }

    fn string(&mut self) -> String {
        self.expect(b'"');
        let start = self.i;
        while self.b[self.i] != b'"' {
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(self.b[start..self.i - 1].to_vec()).unwrap()
    }

    fn word(&mut self) -> String {
        let start = self.i;
        while self
            .b
            .get(self.i)
            .is_some_and(|c| c.is_ascii_lowercase() || *c == b'_')
        {
            self.i += 1;
        }
        assert!(
            self.i > start,
            "expected a shape at {} in `{}`",
            start,
            String::from_utf8_lossy(self.b)
        );
        String::from_utf8(self.b[start..self.i].to_vec()).unwrap()
    }

    fn term(&mut self) -> Shape {
        if self.eat(b'[') {
            let item = self.alt();
            self.expect(b']');
            return Shape::Arr(Box::new(item));
        }
        if self.eat(b'{') {
            if self.b[self.i..].starts_with(b"str:") {
                self.i += 4;
                let value = self.alt();
                self.expect(b'}');
                return Shape::Map(Box::new(value));
            }
            let mut members = Vec::new();
            while !self.eat(b'}') {
                if !members.is_empty() {
                    self.expect(b',');
                }
                let key = self.string();
                self.expect(b':');
                members.push((key, self.alt()));
            }
            return Shape::Obj(members);
        }
        if self.b.get(self.i) == Some(&b'"') {
            return Shape::Lit(self.string());
        }
        Shape::Word(self.word())
    }
}

/// Checks `v` against `shape`; the error names the JSON path that failed.
fn check(v: &Value, shape: &Shape, path: &str) -> Result<(), String> {
    let fail = || Err(format!("{path}: `{v}` does not match {shape:?}"));
    match shape {
        Shape::Word(w) => {
            let ok = match (w.as_str(), v) {
                ("str", Value::Str(_))
                | ("num", Value::Num(_))
                | ("bool", Value::Bool(_))
                | ("null", Value::Null)
                | ("true", Value::Bool(true)) => true,
                ("int", Value::Num(_)) => !v.to_string().contains(['.', 'e', 'E']),
                (name, _) if !["str", "int", "num", "bool", "null", "true"].contains(&name) => {
                    let (_, def) = verbs::TYPES
                        .iter()
                        .find(|(n, _)| *n == name)
                        .unwrap_or_else(|| panic!("unknown shape name `{name}`"));
                    return check(v, &ShapeParser::parse(def), path);
                }
                _ => false,
            };
            if ok {
                Ok(())
            } else {
                fail()
            }
        }
        Shape::Lit(s) => {
            if v.as_str() == Some(s) {
                Ok(())
            } else {
                fail()
            }
        }
        Shape::Alt(alts) => {
            let errs: Vec<String> = alts
                .iter()
                .filter_map(|a| check(v, a, path).err())
                .collect();
            if errs.len() < alts.len() {
                Ok(())
            } else {
                Err(errs.join("\n  or "))
            }
        }
        Shape::Arr(item) => match v {
            Value::Arr(items) => items
                .iter()
                .enumerate()
                .try_for_each(|(i, x)| check(x, item, &format!("{path}[{i}]"))),
            _ => fail(),
        },
        Shape::Map(value) => match v {
            Value::Obj(m) => m
                .iter()
                .try_for_each(|(k, x)| check(x, value, &format!("{path}.{k}"))),
            _ => fail(),
        },
        Shape::Obj(members) => {
            let Value::Obj(m) = v else { return fail() };
            let got: Vec<&str> = m.keys().map(String::as_str).collect();
            let want: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            if got != want {
                return Err(format!("{path}: keys {got:?}, shape declares {want:?}"));
            }
            members
                .iter()
                .zip(m.iter())
                .try_for_each(|((k, s), (_, x))| check(x, s, &format!("{path}.{k}")))
        }
    }
}

/// Checks one envelope's `data` against its verb's row.
fn check_envelope(env: &Value, origin: &str) {
    let verb = env
        .str_of("verb")
        .unwrap_or_else(|| panic!("{origin}: no verb"));
    let row = verbs::find(verb).unwrap_or_else(|| panic!("{origin}: no row for `{verb}`"));
    let data = env
        .get("data")
        .unwrap_or_else(|| panic!("{origin}: no data"));
    if let Err(e) = check(data, &ShapeParser::parse(row.shape), verb) {
        panic!("{origin}: `{verb}` data drifted from its schema row:\n  {e}");
    }
}

#[test]
fn every_row_shape_parses() {
    for v in verbs::TABLE.iter().filter(|v| !v.shape.is_empty()) {
        ShapeParser::parse(v.shape);
    }
    for (_, def) in verbs::TYPES {
        ShapeParser::parse(def);
    }
}

#[test]
fn checker_rejects_drift() {
    let shape = ShapeParser::parse(r#"{"a":int,"b":[str|null]}"#);
    assert!(check(&parse(r#"{"a":1,"b":["x",null]}"#).unwrap(), &shape, "t").is_ok());
    for bad in [
        r#"{"a":1.0,"b":[]}"#,
        r#"{"b":[],"a":1}"#,
        r#"{"a":1,"b":[],"c":0}"#,
        r#"{"a":1,"b":[true]}"#,
    ] {
        assert!(check(&parse(bad).unwrap(), &shape, "t").is_err(), "{bad}");
    }
}

// ------------------------------------------------------------ goldens

fn golden_envelopes() -> Vec<(PathBuf, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut files: Vec<(PathBuf, String)> = std::fs::read_dir(&dir)
        .expect("golden dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.to_string_lossy().ends_with("_json.golden"))
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("golden reads");
            (p, text.trim_end_matches('\n').to_string())
        })
        .collect();
    files.sort();
    assert!(
        files.len() >= 14,
        "expected the JSON goldens, found {}",
        files.len()
    );
    files
}

#[test]
fn golden_envelopes_round_trip_byte_for_byte() {
    for (path, text) in golden_envelopes() {
        let v = parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            v.to_string(),
            text,
            "{} does not round-trip",
            path.display()
        );
    }
}

#[test]
fn golden_envelopes_match_their_schema_rows() {
    for (path, text) in golden_envelopes() {
        check_envelope(&parse(&text).unwrap(), &path.display().to_string());
    }
}

// ------------------------------------------------- live verb outputs

/// All-zero arguments for `entry`, in CLI spelling.
fn zero_args(file: &str, entry: &str) -> Vec<String> {
    let src = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(file)).unwrap();
    let Ok(compiler) = Compiler::parse(&src) else {
        return Vec::new();
    };
    chls::default_args(&compiler, entry)
        .unwrap_or_default()
        .iter()
        .map(|a| match a {
            ArgValue::Scalar(v) => v.to_string(),
            ArgValue::Array(vs) => vs
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(","),
        })
        .collect()
}

/// Flags that keep a verb's corpus run small or that the verb requires.
fn extra_flags(verb: &str) -> &'static [&'static str] {
    match verb {
        "equiv" => &[
            "--backend",
            "handelc",
            "--backend",
            "transmogrifier",
            "--bound",
            "8",
        ],
        "explore" => &["--backend", "c2v", "--budget", "1", "--seq-bound", "4"],
        "report" => &["--backend", "c2v"],
        _ => &[],
    }
}

#[test]
fn every_verb_output_over_the_corpus_matches_its_schema_row() {
    let corpus = corpus();
    let mut checked = Vec::new();
    for row in verbs::TABLE {
        if !matches!(row.run, Run::Service(_)) {
            continue;
        }
        let files: Vec<Option<&(String, String)>> = if row.needs_source() {
            corpus.iter().map(Some).collect()
        } else {
            vec![None]
        };
        // One run per design style for verbs that take a backend.
        let backends: &[&str] = if row.pos.contains(&Pos::Backend) {
            &["cones", "c2v", "cash"]
        } else {
            &[""]
        };
        for source in files {
            for backend in backends {
                let mut argv = vec![row.name.to_string(), "--json".to_string()];
                argv.extend(extra_flags(row.name).iter().map(ToString::to_string));
                for slot in row.pos {
                    match (slot, source) {
                        (Pos::Backend, _) => argv.push((*backend).to_string()),
                        (Pos::File, Some((file, _))) => argv.push(file.clone()),
                        (Pos::Entry, Some((_, entry))) => argv.push(entry.clone()),
                        (Pos::Args, Some((file, entry))) => argv.extend(zero_args(file, entry)),
                        _ => {}
                    }
                }
                let out = Command::new(chls_bin())
                    .args(&argv)
                    .current_dir(env!("CARGO_MANIFEST_DIR"))
                    .output()
                    .expect("run chls");
                let stdout = String::from_utf8_lossy(&out.stdout);
                // Hard errors (say, a backend that rejects the program)
                // print no envelope.
                if stdout.is_empty() {
                    continue;
                }
                let env = parse(stdout.trim_end())
                    .unwrap_or_else(|e| panic!("`chls {}`: not JSON ({e})", argv.join(" ")));
                check_envelope(&env, &format!("`chls {}`", argv.join(" ")));
                checked.push(row.name);
            }
        }
    }
    for row in verbs::TABLE
        .iter()
        .filter(|v| matches!(v.run, Run::Service(_)))
    {
        assert!(
            checked.contains(&row.name),
            "no `{}` output over the corpus was checked",
            row.name
        );
    }
}

#[test]
fn live_daemon_replies_round_trip_and_match_their_rows() {
    let mut server = Server::start(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        log: false,
        cache_budget: 1 << 20,
    })
    .expect("server binds an ephemeral port");
    let mut client = Client::connect(&server.addr.to_string()).expect("connects");
    // One served request, so `stats` reports a verb count and latencies.
    let backends = chls::Request {
        verb: "backends".to_string(),
        ..chls::Request::default()
    };
    check_envelope(
        &parse(&client.call(&backends).unwrap()).unwrap(),
        "backends",
    );
    for verb in ["stats", "shutdown"] {
        let line = client.call_bare(verb).expect("daemon replies");
        let v = parse(&line).unwrap_or_else(|e| panic!("{verb}: {e}"));
        assert_eq!(v.to_string(), line, "`{verb}` reply does not round-trip");
        check_envelope(&v, verb);
    }
    server.wait();
}

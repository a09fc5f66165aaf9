//! A seeded generator of software-shaped CHL programs.
//!
//! Programs look like the code the C2HLSC studies feed to HLS tools:
//! counted and data-dependent loops over 8–64-element arrays, scalars of
//! 8, 16 and 32 bits, the whole operator set, if/else, and (in about a
//! quarter of programs) a two-process `par`/`chan` pipeline. Every
//! program is total by construction: divisors are forced odd, shift
//! amounts and array indices are masked, and data-dependent loops carry
//! a counter bound, so each one runs in the golden interpreter and on
//! every backend that accepts it.
//!
//! The generator owns its PRNG (splitmix64), so the same seed gives the
//! same bytes on every platform and at every commit.

use chls::interp::ArgValue;
use std::fmt::Write as _;

/// splitmix64 (Steele, Lea and Flood): tiny, fast and good enough to
/// drive workload choices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    pub fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// A Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// How much code a generated program holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Small,
    Medium,
    Large,
}

impl Size {
    pub const ALL: [Size; 3] = [Size::Small, Size::Medium, Size::Large];

    pub fn name(self) -> &'static str {
        match self {
            Size::Small => "small",
            Size::Medium => "medium",
            Size::Large => "large",
        }
    }

    /// (top-level statements, scalar locals, input array length). The
    /// statement mix is fixed per class and only its order and contents
    /// are drawn, so compile cost varies little within a class: one
    /// class's programs stand in for each other from seed to seed.
    fn shape(self) -> (Vec<Kind>, usize, usize) {
        use Kind::{Counted, Data, If, Nested, Simple};
        match self {
            Size::Small => (vec![Counted, If, Simple, Simple, Simple], 2, 16),
            Size::Medium => (
                vec![
                    Counted, Nested, Data, If, If, Simple, Simple, Simple, Simple,
                ],
                4,
                32,
            ),
            Size::Large => (
                vec![
                    Counted, Counted, Nested, Nested, Data, If, If, If, If, Simple, Simple, Simple,
                    Simple, Simple, Simple, Simple, Simple,
                ],
                6,
                64,
            ),
        }
    }
}

/// Top-level statement kinds.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// A scalar update or array store.
    Simple,
    If,
    /// An 8-trip counted loop.
    Counted,
    /// A 4-trip loop around a 4-trip loop.
    Nested,
    /// A data-dependent `while` loop.
    Data,
}

/// A generated program with one seeded argument vector.
#[derive(Debug, Clone)]
pub struct Program {
    pub name: String,
    pub source: String,
    pub entry: &'static str,
    pub args: Vec<ArgValue>,
}

const TYPES: [&str; 4] = ["int", "uint<8>", "sint<16>", "uint<16>"];
const BINOPS: [&str; 18] = [
    "+", "-", "*", "&", "|", "^", "<<", ">>", "/", "%", "==", "!=", "<", "<=", ">", ">=", "&&",
    "||",
];

struct Gen<'r> {
    rng: &'r mut Rng,
    out: String,
    indent: usize,
    /// Readable scalars in scope (parameters, locals, loop counters).
    readable: Vec<String>,
    /// Scalars statements may assign.
    writable: Vec<String>,
    /// Arrays in scope: (name, power-of-two length).
    arrays: Vec<(String, usize)>,
    fresh: usize,
}

impl Gen<'_> {
    fn line(&mut self, s: &str) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(s);
        self.out.push('\n');
    }

    fn name(&mut self, prefix: &str) -> String {
        self.fresh += 1;
        format!("{prefix}{}", self.fresh)
    }

    fn leaf(&mut self) -> String {
        if self.rng.chance(25) {
            return self.rng.range(0, 255).to_string();
        }
        if self.rng.chance(25) {
            let (a, len) = self.rng.pick(&self.arrays).clone();
            let idx = self.rng.pick(&self.readable).clone();
            return format!("{a}[({idx}) & {}]", len - 1);
        }
        self.rng.pick(&self.readable).clone()
    }

    /// A full binary tree of `depth` levels over leaves, sometimes
    /// wrapped in a unary operator, a cast or a conditional: expression
    /// size is fixed by `depth`, so program cost does not swing with it.
    fn expr(&mut self, depth: usize) -> String {
        if depth == 0 {
            return self.leaf();
        }
        let op = *self.rng.pick(&BINOPS);
        let (l, r) = (self.expr(depth - 1), self.expr(depth - 1));
        let e = match op {
            "/" | "%" => format!("(({l}) {op} (({r}) | 1))"),
            "<<" | ">>" => format!("(({l}) {op} (({r}) & 7))"),
            _ => format!("(({l}) {op} ({r}))"),
        };
        match self.rng.below(10) {
            0 => format!("{}({e})", self.rng.pick(&["-", "~", "!"])),
            1 => format!("(({}) ({e}))", self.rng.pick(&TYPES)),
            2 => {
                let (c, other) = (self.leaf(), self.leaf());
                format!("(({c}) ? ({e}) : ({other}))")
            }
            _ => e,
        }
    }

    fn cond(&mut self) -> String {
        let op = *self.rng.pick(&["<", "<=", ">", ">=", "==", "!="]);
        let (l, r) = (self.expr(1), self.expr(1));
        format!("({l}) {op} ({r})")
    }

    /// One straight-line statement: a scalar update or an array store.
    fn simple(&mut self) {
        if self.rng.chance(35) {
            let (a, len) = self.rng.pick(&self.arrays).clone();
            let idx = self.expr(1);
            let val = self.expr(2);
            self.line(&format!("{a}[({idx}) & {}] = {val};", len - 1));
        } else {
            let v = self.rng.pick(&self.writable).clone();
            let e = self.expr(2);
            let op = *self.rng.pick(&["=", "=", "+=", "^=", "-="]);
            self.line(&format!("{v} {op} {e};"));
        }
    }

    fn stmt(&mut self, kind: Kind) {
        match kind {
            Kind::Simple => self.simple(),
            Kind::If => {
                let c = self.cond();
                self.line(&format!("if ({c}) {{"));
                self.indent += 1;
                self.simple();
                self.indent -= 1;
                self.line("} else {");
                self.indent += 1;
                self.simple();
                self.indent -= 1;
                self.line("}");
            }
            Kind::Counted => self.counted_loop(8, |g| {
                g.simple();
                g.stmt(Kind::If);
            }),
            Kind::Nested => self.counted_loop(4, |g| {
                g.simple();
                g.counted_loop(4, |g| {
                    g.simple();
                    g.simple();
                });
            }),
            Kind::Data => self.data_loop(),
        }
    }

    fn counted_loop(&mut self, trips: usize, body: impl FnOnce(&mut Self)) {
        let i = self.name("i");
        self.line(&format!("for (int {i} = 0; {i} < {trips}; {i}++) {{"));
        self.readable.push(i);
        self.indent += 1;
        body(self);
        self.indent -= 1;
        self.readable.pop();
        self.line("}");
    }

    /// A loop whose trip count depends on the data: shift a copy of
    /// some value right until it is zero, at most 8 times.
    fn data_loop(&mut self) {
        let w = self.name("w");
        let g = self.name("g");
        let src = self.expr(1);
        self.line(&format!("uint<16> {w} = (uint<16>) ({src});"));
        self.line(&format!("int {g} = 0;"));
        self.line(&format!("while ({w} != 0 && {g} < 8) {{"));
        self.indent += 1;
        self.readable.push(g.clone());
        self.simple();
        self.stmt(Kind::If);
        self.readable.pop();
        self.line(&format!("{w} = {w} >> (1 + ({g} & 1));"));
        self.line(&format!("{g} = {g} + 1;"));
        self.indent -= 1;
        self.line("}");
    }

    /// A producer/consumer pair over a rendezvous channel. The arms
    /// share nothing but the channel: the producer only reads the input
    /// array, the consumer only writes its own accumulator.
    fn pipeline(&mut self, input: &str, len: usize) -> String {
        let c = self.name("c");
        let acc = self.name("acc");
        let trips = len.min(16);
        let k = self.rng.range(1, 9);
        self.line(&format!("chan<int> {c};"));
        self.line(&format!("int {acc} = 0;"));
        self.line("par {");
        self.indent += 1;
        let (i, j) = (self.name("i"), self.name("j"));
        self.line(&format!(
            "{{ for (int {i} = 0; {i} < {trips}; {i}++) send({c}, {input}[{i}] * {k} + {i}); }}"
        ));
        self.line(&format!(
            "{{ for (int {j} = 0; {j} < {trips}; {j}++) {acc} = ({acc} ^ recv({c})) + {j}; }}"
        ));
        self.indent -= 1;
        self.line("}");
        acc
    }
}

/// Generates one program of class `size` from `rng`; `par` adds the
/// channel pipeline.
pub fn generate(rng: &mut Rng, size: Size, par: bool, name: String) -> Program {
    let (mut plan, locals, len) = size.shape();
    rng.shuffle(&mut plan);
    let mut g = Gen {
        rng,
        out: String::new(),
        indent: 0,
        readable: vec!["x".to_string(), "y".to_string()],
        writable: Vec::new(),
        arrays: vec![("a".to_string(), len)],
        fresh: 0,
    };
    let _ = writeln!(g.out, "// generated {} program `{name}`", size.name());
    g.line(&format!("int main(int a[{len}], int x, int y) {{"));
    g.indent += 1;
    for _ in 0..locals {
        let v = g.name("v");
        let ty = *g.rng.pick(&TYPES);
        let init = g.expr(1);
        g.line(&format!("{ty} {v} = ({ty}) ({init});"));
        g.readable.push(v.clone());
        g.writable.push(v);
    }
    if size != Size::Small {
        let t = g.name("t");
        let tlen = len / 2;
        let i = g.name("i");
        g.line(&format!("int {t}[{tlen}];"));
        g.line(&format!(
            "for (int {i} = 0; {i} < {tlen}; {i}++) {t}[{i}] = a[{i}] + {i};"
        ));
        g.arrays.push((t, tlen));
    }
    let acc = par.then(|| g.pipeline("a", len));
    if let Some(acc) = &acc {
        g.readable.push(acc.clone());
    }
    for kind in plan {
        g.stmt(kind);
    }
    let mut ret = g.writable.clone();
    ret.extend(acc);
    let ret = ret.join(" ^ ");
    g.line(&format!("return {ret};"));
    g.indent -= 1;
    g.line("}");
    let source = g.out;
    let args = vec![
        ArgValue::Array((0..len).map(|_| rng.range(-1000, 1000)).collect()),
        ArgValue::Scalar(rng.range(-1000, 1000)),
        ArgValue::Scalar(rng.range(0, 255)),
    ];
    Program {
        name,
        source,
        entry: "main",
        args,
    }
}

/// Program `k` of the stream `seed`: size classes cycle in the given
/// proportions (small, medium, large per round) and every fourth
/// program has a `par`/`chan` pipeline. Any program of the stream can be
/// made on its own, so workloads draw fresh programs as they go.
pub fn program_at(seed: u64, k: u64, mix: [usize; 3]) -> Program {
    let round: u64 = mix.iter().sum::<usize>() as u64;
    let mut slot = k % round;
    let mut size = Size::Small;
    for (s, n) in Size::ALL.iter().zip(mix) {
        if slot < n as u64 {
            size = *s;
            break;
        }
        slot -= n as u64;
    }
    let mut rng = Rng::new(seed ^ k.wrapping_mul(0xD1B5_4A32_D192_ED03));
    generate(
        &mut rng,
        size,
        k % 4 == 3,
        format!("gen{seed}_{k}_{}", size.name()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use chls::Compiler;

    #[test]
    fn same_seed_same_bytes() {
        for k in 0..12 {
            let (a, b) = (program_at(7, k, [1, 1, 1]), program_at(7, k, [1, 1, 1]));
            assert_eq!(a.source, b.source);
            assert_eq!(a.args, b.args);
            assert_ne!(a.source, program_at(8, k, [1, 1, 1]).source);
        }
    }

    #[test]
    fn every_program_parses_and_runs() {
        let opts = chls::interp::InterpOptions {
            step_limit: 200_000,
            ..Default::default()
        };
        let mut with_par = 0;
        for seed in 0..200u64 {
            let size = Size::ALL[seed as usize % 3];
            let p = generate(&mut Rng::new(seed), size, seed % 4 == 0, format!("t{seed}"));
            let c = Compiler::parse(&p.source)
                .unwrap_or_else(|e| panic!("seed {seed}:\n{}\n{}", p.source, e.render(&p.source)));
            chls::interp::run(c.hir(), p.entry, &p.args, &opts)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", p.source));
            with_par += usize::from(p.source.contains("par {"));
        }
        assert!(
            (30..=70).contains(&with_par),
            "{with_par}/200 programs use par"
        );
    }
}

//! `sim_short` and `sim_long`: the simulation engines, from both ends.
//!
//! `sim_short` runs every corpus design on short seeded vectors, so each
//! call's set-up (tape build, netlist levelization, JIT compilation)
//! dominates: this is the shape of every certification rung. `sim_long`
//! runs five kernels for a million cycles and more, so per-cycle engine
//! cost dominates and set-up is noise. An engine change should move one
//! and leave the other alone.

use crate::compile::{is_unsupported, qor_over, seeded_args};
use crate::corpus::{self, Item};
use crate::gen::Rng;
use crate::stats::Metric;
use crate::trace::span;
use crate::workload::{self, closed_loop, Config, Outcome, Rate, Workload};
use chls::interp::{ArgValue, InterpResult};
use chls::{Design, SimOutcome, SynthOptions};
use chls_rtl::Fsmd;
use chls_sim::fsmd_sim::FsmdSimResult;
use std::sync::Mutex;
use std::time::Instant;

/// Seeded argument vectors per corpus program (vector 0 is the
/// program's own arguments, which QoR is taken at).
const VECTORS: usize = 64;

/// Cycle budget for one `sim_long` run; the largest takes ~12M.
const LONG_CYCLE_CAP: u64 = 100_000_000;

/// Per-layer JIT figures, read off one compilation of every FSMD:
/// machine-code bytes per design and the share of states that fall back
/// to the interpreter.
fn jit_static(designs: impl Iterator<Item = Fsmd>, out: &mut Outcome) {
    let (mut bytes, mut blocks, mut fallback, mut n) = (0usize, 0usize, 0usize, 0usize);
    for f in designs {
        if let Some(p) = chls_jit::JitProgram::compile(&f) {
            bytes += p.bytes;
            blocks += p.blocks;
            fallback += p.fallback_blocks;
            n += 1;
        }
    }
    out.layer.push(Metric::new(
        "jit.bytes_per_design",
        bytes as f64 / n.max(1) as f64,
        "count",
    ));
    out.layer.push(Metric::new(
        "jit.fallback_ratio",
        fallback as f64 / blocks.max(1) as f64,
        "ratio",
    ));
}

// ------------------------------------------------------------ sim_short

struct ShortDesign {
    item: usize,
    backend: &'static str,
    design: Design,
}

pub struct SimShort {
    corpus: Vec<Item>,
    /// Per corpus item: (arguments, golden result) for each vector.
    vectors: Vec<Vec<(Vec<ArgValue>, InterpResult)>>,
    designs: Vec<ShortDesign>,
    corrupt: bool,
    interp: Rate,
    jit: Rate,
}

pub fn setup_short(cfg: &Config) -> Result<SimShort, String> {
    let corpus = corpus::corpus()?;
    let mut rng = Rng::new(cfg.seed);
    let nvec = cfg.scaled(VECTORS, 2);
    let mut vectors = Vec::new();
    for it in &corpus {
        let mut v = Vec::with_capacity(nvec);
        for k in 0..nvec {
            let args = if k == 0 {
                it.args.clone()
            } else {
                seeded_args(it, &mut rng)
            };
            let golden = it
                .compiler
                .interpret(&it.entry, &args)
                .map_err(|e| format!("{}: {e}", it.name))?;
            v.push((args, golden));
        }
        vectors.push(v);
    }
    let mut designs = Vec::new();
    for (i, it) in corpus.iter().enumerate() {
        for b in chls::backends() {
            match it
                .compiler
                .synthesize(b.as_ref(), &it.entry, &SynthOptions::default())
            {
                Ok(design) => designs.push(ShortDesign {
                    item: i,
                    backend: b.info().name,
                    design,
                }),
                Err(e) if is_unsupported(&e) => {}
                Err(e) => return Err(format!("{}/{}: {e}", it.name, b.info().name)),
            }
        }
    }
    Ok(SimShort {
        corpus,
        vectors,
        designs,
        corrupt: cfg.corrupt_golden,
        interp: Rate::default(),
        jit: Rate::default(),
    })
}

impl SimShort {
    fn op(&self, i: usize) -> Result<(), String> {
        let d = &self.designs[i % self.designs.len()];
        let vecs = &self.vectors[d.item];
        let (args, golden) = &vecs[(i / self.designs.len()) % vecs.len()];
        let label = || format!("{}/{}", self.corpus[d.item].name, d.backend);
        let t = Instant::now();
        let interp = span("simulate", "sim", || {
            chls::simulate_design_with(&d.design, args, false)
        })
        .map_err(|e| format!("{}: {e}", label()))?;
        if let Some(c) = interp.cycles {
            self.interp.add(c, t);
        }
        let corrupted;
        let golden = if self.corrupt && i == 0 {
            corrupted = workload::corrupted(golden.clone());
            &corrupted
        } else {
            golden
        };
        if !workload::matches(&interp, golden) {
            return Err(format!("{}: interpreter disagrees with golden", label()));
        }
        if let Design::Fsmd(_) = d.design {
            let t = Instant::now();
            let jit: SimOutcome = span("simulate_jit", "jit", || {
                chls::simulate_design_with(&d.design, args, true)
            })
            .map_err(|e| format!("{} (jit): {e}", label()))?;
            self.jit.add(jit.cycles.unwrap_or(0), t);
            if jit != interp {
                return Err(format!(
                    "{}: JIT {jit:?} differs from interpreter {interp:?}",
                    label()
                ));
            }
        }
        Ok(())
    }
}

impl Workload for SimShort {
    fn measure(&self, seconds: f64, out: &mut Outcome) {
        out.tail_q = 0.99;
        closed_loop(
            out,
            1,
            self.designs.len(),
            seconds,
            |_| (),
            |i, ()| self.op(i),
        );
    }

    fn finish(&self, out: &mut Outcome) {
        qor_over(&self.corpus, out);
        out.layer.push(Metric::new(
            "sim.mcycles_per_s",
            self.interp.mcycles_per_s(),
            "Mcycles/s",
        ));
        out.layer.push(Metric::new(
            "jit.mcycles_per_s",
            self.jit.mcycles_per_s(),
            "Mcycles/s",
        ));
        jit_static(
            self.designs
                .iter()
                .filter_map(|d| d.design.as_fsmd().cloned()),
            out,
        );
    }
}

// ------------------------------------------------------------- sim_long

/// A kernel's result: return value and final parameter arrays.
type Expected = (i64, Vec<(usize, Vec<i64>)>);

/// A long-running kernel: source, arguments at full scale, and an
/// independent Rust reference for its result.
struct Kernel {
    name: &'static str,
    source: &'static str,
    args: fn(f64) -> Vec<ArgValue>,
    reference: fn(&[ArgValue]) -> Expected,
}

fn ramp() -> Vec<i64> {
    (0..256).map(|i| (i * 73 + 19) % 251).collect()
}

fn scalar(args: &[ArgValue], i: usize) -> i64 {
    match &args[i] {
        ArgValue::Scalar(v) => *v,
        ArgValue::Array(_) => unreachable!("kernel argument {i} is a scalar"),
    }
}

fn array(args: &[ArgValue], i: usize) -> Vec<i64> {
    match &args[i] {
        ArgValue::Array(v) => v.clone(),
        ArgValue::Scalar(_) => unreachable!("kernel argument {i} is an array"),
    }
}

fn sized(n: f64, scale: f64) -> i64 {
    ((n * scale).round() as i64).max(1)
}

/// Each kernel runs at least a million cycles on the c2v backend at
/// full scale; cycle counts on the other backends range from a quarter
/// of that (transmogrifier) to three times as many (hardwarec).
const KERNELS: [Kernel; 5] = [
    Kernel {
        name: "mac",
        source: include_str!("../kernels/mac.chl"),
        args: |s| {
            vec![
                ArgValue::Array(ramp()),
                ArgValue::Scalar(sized(250_000.0, s)),
            ]
        },
        reference: |args| {
            let a = array(args, 0);
            let mut acc = 0i32;
            for i in 0..scalar(args, 1) {
                acc = acc.wrapping_add(
                    (a[(i & 255) as usize] as i32).wrapping_mul(((i >> 8) & 15) as i32),
                );
            }
            (i64::from(acc), vec![(0, a)])
        },
    },
    Kernel {
        name: "crc32",
        source: include_str!("../kernels/crc32.chl"),
        args: |s| vec![ArgValue::Array(ramp()), ArgValue::Scalar(sized(100.0, s))],
        reference: |args| {
            let data = array(args, 0);
            let mut crc = u32::MAX;
            for _ in 0..scalar(args, 1) {
                for d in &data {
                    crc ^= (*d & 255) as u32;
                    for _ in 0..8 {
                        let lsb = crc & 1 != 0;
                        crc >>= 1;
                        if lsb {
                            crc ^= 0xEDB8_8320;
                        }
                    }
                }
            }
            (i64::from(!crc as i32), vec![(0, data)])
        },
    },
    Kernel {
        name: "bubble",
        source: include_str!("../kernels/bubble.chl"),
        args: |s| vec![ArgValue::Array(ramp()), ArgValue::Scalar(sized(4.0, s))],
        reference: |args| {
            let mut a: Vec<i32> = array(args, 0).iter().map(|v| *v as i32).collect();
            let mut sum = 0i32;
            for r in 0..scalar(args, 1) as i32 {
                for v in &mut a {
                    *v = v
                        .wrapping_mul(1_103_515_245)
                        .wrapping_add(12345)
                        .wrapping_add(r)
                        & 65535;
                }
                a.sort_unstable();
                sum = sum.wrapping_add(a[(r & 255) as usize]);
            }
            (
                i64::from(sum),
                vec![(0, a.iter().map(|v| i64::from(*v)).collect())],
            )
        },
    },
    Kernel {
        name: "gcd_sum",
        source: include_str!("../kernels/gcd_sum.chl"),
        args: |s| {
            vec![
                ArgValue::Scalar(sized(40_000.0, s)),
                ArgValue::Scalar(360_360),
            ]
        },
        reference: |args| {
            let m = scalar(args, 1) as i32;
            let mut sum = 0i32;
            for i in 1..=scalar(args, 0) as i32 {
                let (mut a, mut b) = (i, m);
                while b != 0 {
                    (a, b) = (b, a % b);
                }
                sum = sum.wrapping_add(a);
            }
            (i64::from(sum), Vec::new())
        },
    },
    Kernel {
        name: "stream_crc",
        source: include_str!("../kernels/stream_crc.chl"),
        args: |s| vec![ArgValue::Scalar(7), ArgValue::Scalar(sized(48_000.0, s))],
        reference: |args| {
            let mut x = scalar(args, 0) & 255;
            let mut acc = 0i64;
            for _ in 0..scalar(args, 1) {
                x = (x * 37 + 11) & 255;
                let mut c = x;
                for _ in 0..8 {
                    c = ((c >> 1) ^ (40961 * (c & 1))) & 65535;
                }
                acc = (acc + c) & 65535;
            }
            (acc, Vec::new())
        },
    },
];

struct LongDesign {
    kernel: usize,
    backend: &'static str,
    fsmd: Fsmd,
}

pub struct SimLong {
    args: Vec<Vec<ArgValue>>,
    expected: Vec<Expected>,
    designs: Vec<LongDesign>,
    /// Simulated cycles per design, recorded by the first run of each.
    cycles: Mutex<Vec<Option<u64>>>,
    corrupt: bool,
    interp: Rate,
    jit: Rate,
}

pub fn setup_long(cfg: &Config) -> Result<SimLong, String> {
    let mut designs = Vec::new();
    let mut args = Vec::new();
    let mut expected = Vec::new();
    for (k, kernel) in KERNELS.iter().enumerate() {
        let compiler = chls::Compiler::parse(kernel.source)
            .map_err(|e| format!("{}: {}", kernel.name, e.render(kernel.source)))?;
        for b in chls::backends() {
            match compiler.synthesize(b.as_ref(), "main", &SynthOptions::default()) {
                Ok(Design::Fsmd(fsmd)) => designs.push(LongDesign {
                    kernel: k,
                    backend: b.info().name,
                    fsmd,
                }),
                // Dataflow and combinational designs have no clocked
                // engine to compare; this workload is about FSMD engines.
                Ok(_) => {}
                Err(e) if is_unsupported(&e) => {}
                Err(e) => return Err(format!("{}/{}: {e}", kernel.name, b.info().name)),
            }
        }
        let a = (kernel.args)(cfg.scale);
        expected.push((kernel.reference)(&a));
        args.push(a);
    }
    Ok(SimLong {
        cycles: Mutex::new(vec![None; designs.len()]),
        args,
        expected,
        designs,
        corrupt: cfg.corrupt_golden,
        interp: Rate::default(),
        jit: Rate::default(),
    })
}

/// The FSMD's final memories for the parameter arrays, by parameter.
fn param_arrays(f: &Fsmd, r: &FsmdSimResult) -> Vec<(usize, Vec<i64>)> {
    let mut out: Vec<(usize, Vec<i64>)> = f
        .mems
        .iter()
        .zip(&r.mems)
        .filter_map(|(m, v)| m.param_index.map(|p| (p, v.clone())))
        .collect();
    out.sort_by_key(|(p, _)| *p);
    out
}

impl SimLong {
    fn op(&self, i: usize) -> Result<(), String> {
        let idx = i % self.designs.len();
        let d = &self.designs[idx];
        let label = format!("{}/{}", KERNELS[d.kernel].name, d.backend);
        let args = &self.args[d.kernel];
        let t = Instant::now();
        let interp = span("fsmd_sim", "sim", || {
            chls_sim::fsmd_sim::simulate(&d.fsmd, args, LONG_CYCLE_CAP)
        })
        .map_err(|e| format!("{label}: {e}"))?;
        self.interp.add(interp.cycles, t);
        let (mut ret, arrays) = self.expected[d.kernel].clone();
        if self.corrupt && i == 0 {
            ret = ret.wrapping_add(1);
        }
        if interp.ret != Some(ret) || param_arrays(&d.fsmd, &interp) != arrays {
            return Err(format!("{label}: got {:?}, reference {ret}", interp.ret));
        }
        let t = Instant::now();
        let jit = span("jit", "jit", || {
            chls_jit::simulate(&d.fsmd, args, LONG_CYCLE_CAP)
        })
        .map_err(|e| format!("{label} (jit): {e}"))?;
        self.jit.add(jit.cycles, t);
        if jit != interp {
            return Err(format!(
                "{label}: JIT result differs from the interpreter's"
            ));
        }
        self.cycles.lock().expect("cycle record poisoned")[idx].get_or_insert(interp.cycles);
        Ok(())
    }
}

impl Workload for SimLong {
    fn measure(&self, seconds: f64, out: &mut Outcome) {
        out.tail_q = 0.9;
        closed_loop(
            out,
            1,
            self.designs.len(),
            seconds,
            |_| (),
            |i, ()| self.op(i),
        );
    }

    fn finish(&self, out: &mut Outcome) {
        let model = chls_rtl::CostModel::new();
        let cycles = self.cycles.lock().expect("cycle record poisoned");
        for (d, c) in self.designs.iter().zip(cycles.iter()) {
            out.qor_area.push(d.fsmd.area(&model));
            out.qor_cycles.extend(c.map(|c| c as f64));
        }
        // The references are checked once per run against the golden
        // interpreter, so a wrong reference cannot pass unnoticed.
        for (k, kernel) in KERNELS.iter().enumerate() {
            out.attempted += 1;
            let r = workload::guarded(|| {
                let c =
                    chls::Compiler::parse(kernel.source).map_err(|e| e.render(kernel.source))?;
                let g = c
                    .interpret("main", &self.args[k])
                    .map_err(|e| e.to_string())?;
                let (ret, arrays) = &self.expected[k];
                if g.ret == Some(*ret) && &g.arrays == arrays {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: reference {ret} disagrees with golden {:?}",
                        kernel.name, g.ret
                    ))
                }
            });
            if let Err(e) = r {
                out.fail(e);
            }
        }
        out.layer.push(Metric::new(
            "sim.mcycles_per_s",
            self.interp.mcycles_per_s(),
            "Mcycles/s",
        ));
        out.layer.push(Metric::new(
            "jit.mcycles_per_s",
            self.jit.mcycles_per_s(),
            "Mcycles/s",
        ));
        jit_static(self.designs.iter().map(|d| d.fsmd.clone()), out);
    }
}

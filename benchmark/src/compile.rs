//! `compile`: every input program through the whole flow.
//!
//! One operation takes one program through parse, the golden
//! interpreter on seeded arguments, and then, for every backend,
//! synthesis, FSMD-to-netlist lowering and a simulation that must match
//! the golden result. The frontend, optimizer, IR, schedulers, backends
//! and RTL lowering do most of the work; simulations are short, and the
//! logic layer and the cache are not touched. Inputs are the corpus plus
//! generated programs of three sizes, since program size is what compile
//! cost depends on.

use crate::corpus::{self, Item};
use crate::gen::{self, Rng};
use crate::stats::Metric;
use crate::trace::span;
use crate::workload::{self, closed_loop, ratio, Config, Outcome, Rate, Workload};
use chls::interp::ArgValue;
use chls::{Compiler, Design, SynthError, SynthOptions};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Generated programs per pass, beside the corpus, drawn small, medium
/// and large in these proportions. Every pass draws fresh programs from
/// the seed's stream, so a run averages over hundreds of them and its
/// cost does not hang on a few draws.
const GENERATED: usize = 48;
const MIX: [usize; 3] = [3, 2, 1];

/// Transmogrifier panics (`transmogrifier.rs:290`, a value read in a
/// region that neither computes it nor holds it in a register) on about
/// a third of generated programs, so generated programs skip it until
/// that is fixed; corpus programs still go through it.
const GENERATED_SKIPS: &[&str] = &["transmogrifier"];

#[derive(Clone)]
struct Input {
    name: String,
    source: String,
    entry: String,
    args: Vec<ArgValue>,
    skips: &'static [&'static str],
}

pub struct Compile {
    /// The corpus at seeded arguments.
    inputs: Vec<Input>,
    /// Pass positions: `Some(i)` is corpus input `i`, `None` the next
    /// generated program.
    order: Vec<Option<usize>>,
    generated_per_pass: usize,
    stream: u64,
    corpus: Vec<Item>,
    corrupt: bool,
    synth_attempts: AtomicU64,
    unsupported: AtomicU64,
    cells: AtomicU64,
    ops: AtomicU64,
    /// The interpreter's speed on FSMD designs.
    fsmd: Rate,
}

/// Seeded arguments the golden interpreter accepts: scalars are drawn
/// from ever smaller ranges until the program runs (some kernels bound a
/// count by an array length); the program's own arguments otherwise.
pub fn seeded_args(item: &Item, rng: &mut Rng) -> Vec<ArgValue> {
    for cap in [255, 15, 7] {
        let Some(mut args) = corpus::random_args(&item.compiler, &item.entry, rng) else {
            break;
        };
        for a in &mut args {
            if let ArgValue::Scalar(v) = a {
                *v %= cap + 1;
            }
        }
        if item.compiler.interpret(&item.entry, &args).is_ok() {
            return args;
        }
    }
    item.args.clone()
}

pub fn setup(cfg: &Config) -> Result<Compile, String> {
    let corpus = corpus::corpus()?;
    let mut rng = Rng::new(cfg.seed);
    let inputs: Vec<Input> = corpus
        .iter()
        .map(|it| Input {
            name: it.name.clone(),
            source: it.source.to_string(),
            entry: it.entry.clone(),
            args: seeded_args(it, &mut rng),
            skips: &[],
        })
        .collect();
    let generated_per_pass = cfg.scaled(GENERATED, 3);
    let mut order: Vec<Option<usize>> = (0..inputs.len()).map(Some).collect();
    order.extend(std::iter::repeat_n(None, generated_per_pass));
    rng.shuffle(&mut order);
    Ok(Compile {
        inputs,
        order,
        generated_per_pass,
        stream: rng.next_u64(),
        corpus,
        corrupt: cfg.corrupt_golden,
        synth_attempts: AtomicU64::new(0),
        unsupported: AtomicU64::new(0),
        cells: AtomicU64::new(0),
        ops: AtomicU64::new(0),
        fsmd: Rate::default(),
    })
}

/// Is a synthesis refusal the backend declining the program's language
/// (not a failure), as `check_conformance` classifies it?
pub fn is_unsupported(e: &SynthError) -> bool {
    matches!(
        e,
        SynthError::Unsupported { .. } | SynthError::Loop(_) | SynthError::Transform(_)
    )
}

impl Compile {
    /// Operation `i`'s input: a corpus program, or the generated
    /// program this position takes in this pass.
    fn input(&self, i: usize) -> Input {
        let len = self.order.len();
        match self.order[i % len] {
            Some(c) => self.inputs[c].clone(),
            None => {
                let before = self.order[..i % len].iter().filter(|o| o.is_none()).count();
                let k = (i / len) * self.generated_per_pass + before;
                let p = gen::program_at(self.stream, k as u64, MIX);
                Input {
                    name: p.name,
                    source: p.source,
                    entry: p.entry.to_string(),
                    args: p.args,
                    skips: GENERATED_SKIPS,
                }
            }
        }
    }

    fn op(&self, input: &Input, corrupt: bool) -> Result<(), String> {
        let compiler = span("parse", "frontend", || Compiler::parse(&input.source))
            .map_err(|e| format!("{}: {}", input.name, e.render(&input.source)))?;
        let golden = span("interp.run", "sim", || {
            compiler.interpret(&input.entry, &input.args)
        })
        .map_err(|e| format!("{}: golden: {e}", input.name))?;
        let golden = if corrupt {
            workload::corrupted(golden)
        } else {
            golden
        };
        let opts = SynthOptions::default();
        self.ops.fetch_add(1, Ordering::Relaxed);
        for backend in chls::backends() {
            let name = backend.info().name;
            if input.skips.contains(&name) {
                continue;
            }
            self.synth_attempts.fetch_add(1, Ordering::Relaxed);
            let design = match span(name, "backends", || {
                compiler.synthesize(backend.as_ref(), &input.entry, &opts)
            }) {
                Ok(d) => d,
                Err(e) if is_unsupported(&e) => {
                    self.unsupported.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                Err(e) => return Err(format!("{}/{name}: {e}", input.name)),
            };
            if let Design::Fsmd(f) = &design {
                let nl = span("fsmd_to_netlist", "rtl", || chls_rtl::fsmd_to_netlist(f));
                self.cells
                    .fetch_add(nl.cells.len() as u64, Ordering::Relaxed);
            }
            let t = Instant::now();
            let sim = span("simulate", "sim", || {
                chls::simulate_design_with(&design, &input.args, false)
            })
            .map_err(|e| format!("{}/{name}: {e}", input.name))?;
            if let (Design::Fsmd(_), Some(c)) = (&design, sim.cycles) {
                self.fsmd.add(c, t);
            }
            if !workload::matches(&sim, &golden) {
                return Err(format!(
                    "{}/{name}: got ret={:?} arrays={:?}, golden ret={:?} arrays={:?}",
                    input.name, sim.ret, sim.arrays, golden.ret, golden.arrays
                ));
            }
        }
        Ok(())
    }
}

impl Workload for Compile {
    fn measure(&self, seconds: f64, out: &mut Outcome) {
        out.tail_q = 0.95;
        closed_loop(
            out,
            1,
            self.order.len(),
            seconds,
            |i| self.input(i),
            |i, input| self.op(&input, self.corrupt && i == 0),
        );
    }

    fn finish(&self, out: &mut Outcome) {
        qor_over(&self.corpus, out);
        out.layer.push(Metric::new(
            "backends.unsupported_ratio",
            ratio(&self.unsupported, &self.synth_attempts),
            "ratio",
        ));
        out.layer.push(Metric::new(
            "rtl.cells_per_op",
            ratio(&self.cells, &self.ops),
            "count",
        ));
        out.layer.push(Metric::new(
            "sim.mcycles_per_s",
            self.fsmd.mcycles_per_s(),
            "Mcycles/s",
        ));
    }
}

/// QoR of every corpus program on every backend at the program's own
/// arguments, each result checked against the golden interpreter.
pub fn qor_over(items: &[Item], out: &mut Outcome) {
    let model = chls_rtl::CostModel::new();
    for it in items {
        out.attempted += 1;
        let r = workload::guarded(|| {
            let golden = it
                .compiler
                .interpret(&it.entry, &it.args)
                .map_err(|e| e.to_string())?;
            let mut found = Vec::new();
            for b in chls::backends() {
                let Ok(d) = it
                    .compiler
                    .synthesize(b.as_ref(), &it.entry, &SynthOptions::default())
                else {
                    continue;
                };
                let sim =
                    chls::simulate_design_with(&d, &it.args, false).map_err(|e| e.to_string())?;
                if !workload::matches(&sim, &golden) {
                    return Err(format!(
                        "{} on {}: QoR run disagrees with golden",
                        it.name,
                        b.info().name
                    ));
                }
                found.push((d.area(&model), sim.cycles));
            }
            Ok(found)
        });
        match r {
            Ok(found) => {
                for (area, cycles) in found {
                    out.qor_area.push(area);
                    out.qor_cycles.extend(cycles.map(|c| c as f64));
                }
            }
            Err(e) => out.fail(e),
        }
    }
}

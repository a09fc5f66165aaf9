//! The compiler driver: frontend, synthesis, and unified design
//! simulation, plus the conformance checker every experiment leans on.

use chls_backends::{Backend, Design, Preparer, SynthError, SynthOptions};
use chls_frontend::hir::HirProgram;
use chls_frontend::FrontendError;
use chls_ir::MemSource;
use chls_sim::interp::{self, ArgValue, InterpOptions};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A parsed and analyzed CHL program, ready for synthesis.
///
/// The program sits in a [`Preparer`], so every backend, `lint` and
/// [`Compiler::prepared_ir`] called on one `Compiler` from the thread
/// that created it share the front half (inline → unroll → pointer
/// elimination → IR → simplify) instead of each running it again. That
/// memo is dropped with the `Compiler`, or as soon as another thread
/// uses it; a clone shares the parse and starts with an empty one.
#[derive(Debug, Clone)]
pub struct Compiler {
    prep: Preparer,
    source: Arc<str>,
}

impl Compiler {
    /// Parses and type-checks CHL source.
    ///
    /// # Errors
    ///
    /// Returns frontend diagnostics.
    pub fn parse(source: &str) -> Result<Self, FrontendError> {
        let hir = chls_trace::time("frontend.parse", || chls_frontend::compile_to_hir(source))?;
        Ok(Compiler {
            prep: Preparer::new(hir),
            source: source.into(),
        })
    }

    /// The analyzed program.
    pub fn hir(&self) -> &HirProgram {
        self.prep.hir()
    }

    /// The original source text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Warnings collected during semantic analysis, rendered against the
    /// source (one line per warning, note lines indented).
    pub fn rendered_warnings(&self) -> Vec<String> {
        self.hir()
            .warnings
            .iter()
            .map(|w| w.render(&self.source))
            .collect()
    }

    /// Runs the static-analysis lint: par-race detection, per-backend
    /// synthesizability findings, and static cycle bounds.
    ///
    /// # Errors
    ///
    /// See [`chls_analysis::LintError`].
    pub fn lint(
        &self,
        entry: &str,
        backend: Option<&str>,
    ) -> Result<chls_analysis::LintReport, chls_analysis::LintError> {
        chls_analysis::lint_program(&self.prep, entry, backend)
    }

    /// Runs the static process-network analysis: SDF balance equations,
    /// structural deadlock detection, bounded-FIFO sizing, and `@ii(n)`
    /// timed-interface contract checking.
    ///
    /// # Errors
    ///
    /// See [`chls_analysis::LintError`].
    pub fn flow(&self, entry: &str) -> Result<chls_analysis::FlowReport, chls_analysis::LintError> {
        chls_analysis::flow_program(self.hir(), entry)
    }

    /// Runs the golden-model interpreter.
    ///
    /// # Errors
    ///
    /// See [`interp::InterpError`].
    pub fn interpret(
        &self,
        entry: &str,
        args: &[ArgValue],
    ) -> Result<interp::InterpResult, interp::InterpError> {
        interp::run(self.hir(), entry, args, &InterpOptions::default())
    }

    /// Synthesizes with the given backend.
    ///
    /// # Errors
    ///
    /// See [`SynthError`].
    pub fn synthesize(
        &self,
        backend: &dyn Backend,
        entry: &str,
        opts: &SynthOptions,
    ) -> Result<Design, SynthError> {
        let design = {
            let _span = chls_trace::span("backend.synthesize");
            backend.synthesize(&self.prep, entry, opts)?
        };
        // The logic optimizer runs here, not in the backends, so every
        // backend gets it uniformly and none can forget to apply it.
        Ok(if opts.opt_netlist {
            optimize_design(&design)
        } else {
            design
        })
    }

    /// The SSA IR the sequential backends schedule: inlined, unrolled,
    /// pointer-eliminated, memory-lowered, and simplified.
    ///
    /// # Errors
    ///
    /// Returns [`SynthError`] when any preparation pass rejects the
    /// program (e.g. an unresolvable pointer).
    pub fn prepared_ir(&self, entry: &str) -> Result<String, SynthError> {
        let prepared = self.prep.sequential(entry, false, false, None)?;
        Ok(prepared.func.to_string())
    }
}

/// The `opt_netlist` post-pass: the word-level logic optimizer over a
/// synthesized design. [`Compiler::synthesize`] applies it when
/// [`SynthOptions::opt_netlist`] is set; `explore` applies it to an
/// un-optimized design to derive the optimized twin without
/// synthesizing again. Dataflow circuits pass through unchanged.
pub(crate) fn optimize_design(design: &Design) -> Design {
    match design {
        Design::Comb(nl) => Design::Comb(chls_logic::optimize(nl)),
        Design::Fsmd(f) => Design::Fsmd(chls_logic::optimize_fsmd(f)),
        Design::Dataflow(g) => Design::Dataflow(g.clone()),
    }
}

/// Unified outcome of simulating any design kind.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Return value.
    pub ret: Option<i64>,
    /// Final contents of array parameters, by parameter index.
    pub arrays: Vec<(usize, Vec<i64>)>,
    /// Clock cycles (clocked designs only).
    pub cycles: Option<u64>,
    /// Completion time in async time units (dataflow designs only).
    pub time_units: Option<u64>,
}

/// Design-simulation errors.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateError(pub String);

impl fmt::Display for SimulateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "design simulation failed: {}", self.0)
    }
}

impl std::error::Error for SimulateError {}

/// Cycle limit used by [`simulate_design`].
pub const MAX_CYCLES: u64 = 5_000_000;

/// Simulates a synthesized design on concrete arguments, interpreting
/// FSMD designs; [`simulate_design_with`] chooses the engine.
///
/// # Errors
///
/// Returns a [`SimulateError`] wrapping the specific simulator's failure.
pub fn simulate_design(design: &Design, args: &[ArgValue]) -> Result<SimOutcome, SimulateError> {
    simulate_design_with(design, args, false)
}

/// [`simulate_design`] with an explicit engine choice for FSMD designs:
/// `jit = true` requests native execution via `chls-jit` (silently
/// degrading to the interpreter on unsupported hosts), `false` always
/// interprets. Both engines are bit-exact against each other (the
/// differential suite holds them to it).
///
/// # Errors
///
/// Returns a [`SimulateError`] wrapping the specific simulator's failure.
pub fn simulate_design_with(
    design: &Design,
    args: &[ArgValue],
    jit: bool,
) -> Result<SimOutcome, SimulateError> {
    let _span = chls_trace::span("sim.design");
    match design {
        Design::Comb(nl) => {
            let mut sim = chls_sim::netlist_sim::NetlistSim::new(nl)
                .map_err(|e| SimulateError(e.to_string()))?;
            for (i, a) in args.iter().enumerate() {
                match a {
                    ArgValue::Scalar(v) => sim.set_input(format!("arg{i}"), *v),
                    ArgValue::Array(vals) => {
                        for (j, v) in vals.iter().enumerate() {
                            sim.set_input(format!("arg{i}_{j}"), *v);
                        }
                    }
                }
            }
            // One evaluation serves every output port (the per-port
            // `output()` path would re-run the full combinational eval
            // per port — quadratic in ports × netlist).
            let ports = sim
                .eval_outputs()
                .map_err(|e| SimulateError(e.to_string()))?;
            let mut ret = None;
            let mut arrays: BTreeMap<usize, Vec<(usize, i64)>> = BTreeMap::new();
            for (name, v) in ports {
                if name == "ret" {
                    ret = Some(v);
                } else if let Some(rest) = name.strip_prefix("out") {
                    if let Some((pi, ei)) = rest.split_once('_') {
                        if let (Ok(pi), Ok(ei)) = (pi.parse::<usize>(), ei.parse::<usize>()) {
                            arrays.entry(pi).or_default().push((ei, v));
                        }
                    }
                }
            }
            let arrays = arrays
                .into_iter()
                .map(|(pi, mut elems)| {
                    elems.sort_by_key(|(e, _)| *e);
                    (pi, elems.into_iter().map(|(_, v)| v).collect())
                })
                .collect();
            Ok(SimOutcome {
                ret,
                arrays,
                cycles: None,
                time_units: None,
            })
        }
        Design::Fsmd(f) => {
            let r = if jit {
                chls_jit::simulate(f, args, MAX_CYCLES)
            } else {
                chls_sim::fsmd_sim::simulate(f, args, MAX_CYCLES)
            }
            .map_err(|e| SimulateError(e.to_string()))?;
            let mut arrays = Vec::new();
            for (mi, m) in f.mems.iter().enumerate() {
                if let Some(p) = m.param_index {
                    arrays.push((p, r.mems[mi].clone()));
                }
            }
            arrays.sort_by_key(|(p, _)| *p);
            Ok(SimOutcome {
                ret: r.ret,
                arrays,
                cycles: Some(r.cycles),
                time_units: None,
            })
        }
        Design::Dataflow(g) => {
            let r = chls_dataflow::sim::simulate(g, args, &chls_rtl::CostModel::new())
                .map_err(|e| SimulateError(e.to_string()))?;
            let mut arrays = Vec::new();
            for (mi, m) in g.mems.iter().enumerate() {
                if let MemSource::Param(p) = m.source {
                    arrays.push((p, r.mems[mi].clone()));
                }
            }
            arrays.sort_by_key(|(p, _)| *p);
            Ok(SimOutcome {
                ret: r.ret,
                arrays,
                cycles: None,
                time_units: Some(r.time),
            })
        }
    }
}

/// One backend's conformance result on one program/input.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Matches the golden interpreter.
    Pass {
        /// Cycle count, for clocked designs.
        cycles: Option<u64>,
        /// Async completion time, for dataflow designs.
        time_units: Option<u64>,
    },
    /// The backend (correctly or not) refused the program.
    Unsupported(String),
    /// Produced a result that disagrees with the interpreter.
    Mismatch {
        /// What the hardware produced.
        got: String,
        /// What the interpreter produced.
        expected: String,
    },
    /// Synthesis or simulation crashed.
    Error(String),
}

/// One backend's full conformance run: synthesize, simulate, compare
/// against the golden interpreter result.
fn run_one(
    compiler: &Compiler,
    golden: &interp::InterpResult,
    backend: &dyn Backend,
    entry: &str,
    args: &[ArgValue],
    opts: &SynthOptions,
    jit: bool,
) -> Verdict {
    match compiler.synthesize(backend, entry, opts) {
        Err(
            e @ (SynthError::Unsupported { .. } | SynthError::Loop(_) | SynthError::Transform(_)),
        ) => Verdict::Unsupported(e.to_string()),
        Err(e) => Verdict::Error(e.to_string()),
        Ok(design) => match simulate_design_with(&design, args, jit) {
            Err(e) => Verdict::Error(e.to_string()),
            Ok(outcome) => {
                let ret_ok = outcome.ret == golden.ret;
                let arrays_ok = outcome.arrays == golden.arrays;
                if ret_ok && arrays_ok {
                    Verdict::Pass {
                        cycles: outcome.cycles,
                        time_units: outcome.time_units,
                    }
                } else {
                    Verdict::Mismatch {
                        got: format!("ret={:?} arrays={:?}", outcome.ret, outcome.arrays),
                        expected: format!("ret={:?} arrays={:?}", golden.ret, golden.arrays),
                    }
                }
            }
        },
    }
}

/// The conformance driver's default degree of parallelism: the host's
/// available parallelism.
pub fn conformance_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Checks every registered backend against the golden interpreter.
///
/// The job count ([`CompileOptions::effective_jobs`](crate::CompileOptions::effective_jobs)),
/// the synthesis options and the simulation engine all come from `opts`.
/// The (independent) backends fan out over that many threads (at one
/// job, inline, so every backend shares one preparation), and the
/// results come back in backend-registry order whatever the job count,
/// so the verdict list is byte-identical to a sequential run.
///
/// # Errors
///
/// Fails only if the golden interpreter itself cannot run the program.
pub fn check_conformance(
    source: &str,
    entry: &str,
    args: &[ArgValue],
    opts: &crate::CompileOptions,
) -> Result<Vec<(&'static str, Verdict)>, String> {
    let jobs = opts.effective_jobs();
    let jit = opts.jit_requested();
    let compiler = Compiler::parse(source).map_err(|e| e.to_string())?;
    let golden = compiler.interpret(entry, args).map_err(|e| e.to_string())?;
    let opts = opts.synth_options();
    let backends = crate::registry::backends();
    let verdicts = crate::executor::par_map(jobs, &backends, |b| {
        run_one(&compiler, &golden, b.as_ref(), entry, args, &opts, jit)
    });
    // A panic in the backend or the simulator is that backend's
    // `Error` verdict, so it cannot hide the other backends' verdicts.
    Ok(backends
        .iter()
        .zip(verdicts)
        .map(|(b, v)| (b.info().name, v.unwrap_or_else(Verdict::Error)))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use chls_backends::{BackendInfo, C2Verilog};

    /// A backend that panics the way an indexing bug does.
    struct Panics;

    impl Backend for Panics {
        fn info(&self) -> BackendInfo {
            C2Verilog.info()
        }

        fn synthesize(
            &self,
            _: &Preparer,
            _: &str,
            _: &SynthOptions,
        ) -> Result<Design, SynthError> {
            panic!("no entry found for key")
        }
    }

    #[test]
    fn a_panicking_backend_fails_alone() {
        let compiler = Compiler::parse("int main(int a) { return a + 1; }").expect("parses");
        let args = [ArgValue::Scalar(41)];
        let golden = compiler.interpret("main", &args).expect("runs");
        let opts = SynthOptions::default();
        // The same compiler still serves the backend after the panic.
        let backends: [&dyn Backend; 2] = [&Panics, &C2Verilog];
        let verdicts = crate::executor::par_map(1, &backends, |b| {
            run_one(&compiler, &golden, *b, "main", &args, &opts, false)
        });
        assert_eq!(
            verdicts[0],
            Err("worker panicked: no entry found for key".to_string())
        );
        assert!(
            matches!(verdicts[1], Ok(Verdict::Pass { .. })),
            "{:?}",
            verdicts[1]
        );
    }

    #[test]
    fn one_job_prepares_once_for_every_backend() {
        // At one job the backends run on the thread that parsed the
        // program, so the preparation memo serves all seven of them.
        let source = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/chl/checksum.chl"
        ))
        .expect("reads the example");
        let col = chls_trace::Collector::new();
        col.set_enabled(true);
        let opts = crate::CompileOptions::new().jobs(1);
        let args = [ArgValue::Array((0..16).collect())];
        let verdicts =
            chls_trace::with_collector(&col, || check_conformance(&source, "main", &args, &opts))
                .expect("checks");
        assert_eq!(verdicts.len(), crate::registry::backends().len());
        let misses = col.snapshot().counter("backend.prepare.miss").unwrap_or(0);
        assert!((1..=3).contains(&misses), "{misses} preparation misses");
    }
}

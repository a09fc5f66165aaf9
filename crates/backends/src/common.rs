//! Shared backend infrastructure: the [`Backend`] trait, taxonomy
//! metadata (the paper's Table 1), synthesis options and design
//! containers. The shared front half lives in [`crate::prepare`].

pub use crate::prepare::{Prepared, Preparer, Structured};
use chls_frontend::{IntType, Type};
use chls_opt::dep::AliasPrecision;
use chls_rtl::cost::CostModel;
use chls_rtl::fsmd::Fsmd;
use chls_rtl::netlist::Netlist;
use chls_sched::Resources;
use std::fmt;

/// The concurrency model a language exposes (paper, Section on
/// concurrency).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConcurrencyModel {
    /// The compiler finds all parallelism in sequential C.
    CompilerDriven,
    /// The programmer writes explicit parallel constructs.
    Explicit,
    /// Structural: the user instantiates parallel hardware directly.
    Structural,
}

impl fmt::Display for ConcurrencyModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ConcurrencyModel::CompilerDriven => "compiler-driven",
            ConcurrencyModel::Explicit => "explicit (par/channels)",
            ConcurrencyModel::Structural => "structural",
        })
    }
}

/// How a language divides time into cycles (paper, Section on time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingModel {
    /// No clock at all: a combinational network.
    Combinational,
    /// No clock: asynchronous/self-timed dataflow.
    Asynchronous,
    /// Implicit rule: each assignment takes exactly one cycle.
    RulePerAssignment,
    /// Implicit rule: each loop iteration (and call) takes one cycle.
    RulePerIteration,
    /// The compiler schedules under constraints outside the language.
    CompilerScheduled,
    /// In-language relative timing constraints drive the schedule.
    ConstraintDriven,
    /// The designer states the cycles explicitly (one state = one cycle).
    ExplicitStates,
}

impl fmt::Display for TimingModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TimingModel::Combinational => "none (combinational)",
            TimingModel::Asynchronous => "none (asynchronous)",
            TimingModel::RulePerAssignment => "rule: 1 cycle per assignment",
            TimingModel::RulePerIteration => "rule: 1 cycle per loop iteration/call",
            TimingModel::CompilerScheduled => "compiler-scheduled (external constraints)",
            TimingModel::ConstraintDriven => "in-language timing constraints",
            TimingModel::ExplicitStates => "explicit states (1 cycle each)",
        })
    }
}

/// Taxonomy metadata — one row of the paper's Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendInfo {
    /// Our backend name.
    pub name: &'static str,
    /// The surveyed language/compiler it models.
    pub models: &'static str,
    /// Publication year of the modeled system.
    pub year: u16,
    /// The paper's one-line characterization (Table 1 column 2).
    pub comment: &'static str,
    /// Concurrency model.
    pub concurrency: ConcurrencyModel,
    /// Timing model.
    pub timing: TimingModel,
    /// Supports pointers (possibly via monolithic memory).
    pub pointers: bool,
    /// Supports data-dependent (unbounded) loops.
    pub data_dependent_loops: bool,
    /// Supports `par`/channels.
    pub parallel_constructs: bool,
    /// [`Backend::synthesize`] reads [`SynthOptions::pipeline_loops`]
    /// (and with it `pipeline_if_convert`). When false, the design does
    /// not depend on either knob.
    pub reads_pipeline: bool,
    /// [`Backend::synthesize`] reads [`SynthOptions::narrow_widths`].
    /// When false, the design does not depend on it.
    pub reads_narrow: bool,
}

/// Synthesis options shared by all backends.
#[derive(Debug, Clone)]
pub struct SynthOptions {
    /// Target clock period in ns (ignored by combinational/async backends).
    pub clock_period_ns: f64,
    /// The cost model.
    pub model: CostModel,
    /// Functional-unit and memory-port limits for scheduled backends.
    pub resources: Resources,
    /// Memory-dependence precision.
    pub precision: AliasPrecision,
    /// Enable loop pipelining (modulo scheduling) where supported.
    pub pipeline_loops: bool,
    /// If-convert pure branchy loop bodies before pipelining (on by
    /// default; an ablation knob — turning it off leaves conditional
    /// bodies to the sequential fallback).
    pub pipeline_if_convert: bool,
    /// Narrow every datapath register to the bit-width the value-range
    /// analysis proves sufficient (the "compiler recovers bit-precision
    /// from C types" escape hatch of E8). Sound: a register narrower than
    /// its value never occurs, by the analysis' soundness property.
    pub narrow_widths: bool,
    /// Run the word-level logic optimizer (`chls-logic`) over the
    /// synthesized design. Backends ignore this themselves — the driver
    /// applies the pass after synthesis so every backend benefits
    /// uniformly.
    pub opt_netlist: bool,
    /// Unroll factor for canonical counted loops without a
    /// `#pragma unroll` of their own (`Some(0)` = fully; pragmas always
    /// win). The `--unroll N` design-space knob.
    pub unroll_factor: Option<u32>,
}

impl Default for SynthOptions {
    fn default() -> Self {
        SynthOptions {
            clock_period_ns: 2.0,
            model: CostModel::new(),
            resources: Resources::typical(),
            precision: AliasPrecision::Basic,
            pipeline_loops: false,
            pipeline_if_convert: true,
            narrow_widths: false,
            opt_netlist: false,
            unroll_factor: None,
        }
    }
}

/// The register type of a scalar HIR type: `bool` is one bit, and
/// anything else that is not an integer (a lowered pointer) is an `int`.
pub fn scalar_ty(ty: &Type) -> IntType {
    match ty {
        Type::Bool => IntType::u1(),
        Type::Int(it) => *it,
        _ => IntType::int(),
    }
}

/// A synthesized design.
#[derive(Debug, Clone, PartialEq)]
pub enum Design {
    /// A purely combinational netlist (Cones).
    Comb(Netlist),
    /// A clocked FSMD.
    Fsmd(Fsmd),
    /// An asynchronous dataflow circuit (CASH).
    Dataflow(chls_dataflow::graph::DataflowGraph),
}

impl Design {
    /// The design's area in NAND2-equivalent gates.
    pub fn area(&self, model: &CostModel) -> f64 {
        match self {
            Design::Comb(nl) => nl.area(model),
            Design::Fsmd(f) => f.area(model),
            Design::Dataflow(g) => g.area(model),
        }
    }

    /// The FSMD, if this is one.
    pub fn as_fsmd(&self) -> Option<&Fsmd> {
        match self {
            Design::Fsmd(f) => Some(f),
            _ => None,
        }
    }

    /// The netlist, if this is one.
    pub fn as_netlist(&self) -> Option<&Netlist> {
        match self {
            Design::Comb(nl) => Some(nl),
            _ => None,
        }
    }
}

/// Synthesis errors.
#[derive(Debug, Clone, PartialEq)]
pub enum SynthError {
    /// The entry function was not found.
    NoSuchFunction(String),
    /// A frontend-level transformation failed.
    Transform(String),
    /// The program uses a construct this backend's language lacks.
    Unsupported {
        /// Which backend.
        backend: &'static str,
        /// What was not supported.
        what: String,
    },
    /// A loop could not be handled (e.g. Cones needs full unrolling).
    Loop(String),
    /// A HardwareC timing constraint could not be met.
    ConstraintInfeasible {
        /// Requested budget in cycles.
        requested: u32,
        /// Best achievable cycles.
        achieved: u32,
    },
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::NoSuchFunction(n) => write!(f, "no function named `{n}`"),
            SynthError::Transform(m) => write!(f, "transformation failed: {m}"),
            SynthError::Unsupported { backend, what } => {
                write!(f, "{backend} does not support {what}")
            }
            SynthError::Loop(m) => write!(f, "loop not synthesizable: {m}"),
            SynthError::ConstraintInfeasible {
                requested,
                achieved,
            } => write!(
                f,
                "timing constraint of {requested} cycles infeasible; best is {achieved}"
            ),
        }
    }
}

impl std::error::Error for SynthError {}

/// A synthesis backend — one row of Table 1, implemented.
pub trait Backend {
    /// Taxonomy metadata.
    fn info(&self) -> BackendInfo;

    /// Synthesizes `entry` of `prep`'s program into hardware, taking
    /// the shared front half from `prep`'s memo.
    ///
    /// # Errors
    ///
    /// See [`SynthError`].
    fn synthesize(
        &self,
        prep: &Preparer,
        entry: &str,
        opts: &SynthOptions,
    ) -> Result<Design, SynthError>;
}

/// How one paradigm treats one CHL construct — the static half of a
/// [`SynthError::Unsupported`], declared up front instead of discovered
/// mid-pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Support {
    /// Synthesized faithfully.
    Ok,
    /// Accepted, but at a cost the paper calls out (the reason says which).
    Penalized(&'static str),
    /// Refused; synthesis will fail with this reason.
    Rejected(&'static str),
}

impl Support {
    /// Short machine-readable tag (`ok` / `penalized` / `rejected`).
    pub fn tag(&self) -> &'static str {
        match self {
            Support::Ok => "ok",
            Support::Penalized(_) => "penalized",
            Support::Rejected(_) => "rejected",
        }
    }

    /// The reason, when there is one.
    pub fn reason(&self) -> Option<&'static str> {
        match self {
            Support::Ok => None,
            Support::Penalized(r) | Support::Rejected(r) => Some(r),
        }
    }
}

/// One paradigm's construct-support row: what it does with each feature a
/// CHL program can exercise. Covers the paper's nine paradigms — the
/// seven executable backends plus the two structural rows (`ocapi`,
/// `specc`) that have no compiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstructSupport {
    /// Backend / paradigm name (matches [`BackendInfo::name`] for the
    /// executable seven).
    pub backend: &'static str,
    /// `par { ... }` blocks.
    pub par: Support,
    /// Rendezvous channels (`chan<T>`, `send`/`recv`).
    pub channels: Support,
    /// Explicit `delay;` statements.
    pub delay: Support,
    /// Any pointer use at all.
    pub pointers: Support,
    /// Pointers whose points-to set has more than one target.
    pub multi_target_pointers: Support,
    /// Loops whose trip count depends on run-time data.
    pub data_dependent_loops: Support,
    /// `#pragma constraint` cycle budgets.
    pub timing_constraints: Support,
}

/// The construct-support matrix, one row per Table-1 paradigm, in
/// registry (chronological) order.
///
/// Each entry mirrors what the corresponding backend actually does: the
/// sequential five (cones, transmogrifier, c2v, cyber, cash) lower
/// through the SSA IR, which refuses `par`/channels/`delay` outright;
/// the structured two (hardwarec, handelc) walk the HIR and keep them.
pub const CONSTRUCT_MATRIX: &[ConstructSupport] = &[
    ConstructSupport {
        backend: "cones",
        par: Support::Rejected("combinational target; parallelism is implicit in the netlist"),
        channels: Support::Rejected("no clock, so no rendezvous"),
        delay: Support::Rejected("no clock to wait on"),
        pointers: Support::Ok,
        multi_target_pointers: Support::Penalized(
            "targets merge into one monolithic memory, then scalarize into mux trees",
        ),
        data_dependent_loops: Support::Rejected(
            "every loop must fully unroll into the combinational network",
        ),
        timing_constraints: Support::Rejected("no cycles to budget"),
    },
    ConstructSupport {
        backend: "hardwarec",
        par: Support::Penalized("straight-line arms only; control flow inside par is refused"),
        channels: Support::Rejected("no channel hardware; use the handelc backend"),
        delay: Support::Ok,
        pointers: Support::Ok,
        multi_target_pointers: Support::Penalized(
            "targets merge into one monolithic memory with a single port",
        ),
        data_dependent_loops: Support::Ok,
        timing_constraints: Support::Ok,
    },
    ConstructSupport {
        backend: "transmogrifier",
        par: Support::Rejected("sequential-only: one cycle per loop iteration, no processes"),
        channels: Support::Rejected("sequential-only"),
        delay: Support::Rejected("timing is the per-iteration rule, not explicit waits"),
        pointers: Support::Ok,
        multi_target_pointers: Support::Penalized(
            "targets merge into one monolithic memory with a single port",
        ),
        data_dependent_loops: Support::Penalized(
            "accepted, but the implicit rule charges one cycle per iteration",
        ),
        timing_constraints: Support::Penalized("ignored; timing comes from the iteration rule"),
    },
    ConstructSupport {
        backend: "c2v",
        par: Support::Rejected("compiler-driven concurrency only; explicit par is refused"),
        channels: Support::Rejected("plain C subset has no channels"),
        delay: Support::Rejected("scheduling is the compiler's, not the program's"),
        pointers: Support::Ok,
        multi_target_pointers: Support::Penalized(
            "C2Verilog strategy: all targets share one monolithic memory and contend for its port",
        ),
        data_dependent_loops: Support::Ok,
        timing_constraints: Support::Penalized("ignored; constraints live outside the language"),
    },
    ConstructSupport {
        backend: "cyber",
        par: Support::Rejected("BDL is sequential; the scheduler finds the parallelism"),
        channels: Support::Rejected("BDL has no channels"),
        delay: Support::Rejected("cycles come from behavioral scheduling"),
        pointers: Support::Rejected("BDL prohibits pointers outright"),
        multi_target_pointers: Support::Rejected("BDL prohibits pointers outright"),
        data_dependent_loops: Support::Ok,
        timing_constraints: Support::Penalized("ignored; scheduling constraints are external"),
    },
    ConstructSupport {
        backend: "handelc",
        par: Support::Ok,
        channels: Support::Ok,
        delay: Support::Ok,
        pointers: Support::Ok,
        multi_target_pointers: Support::Penalized(
            "targets merge into one monolithic memory with a single port",
        ),
        data_dependent_loops: Support::Penalized(
            "accepted, but a body with no assignment or delay is a zero-cycle loop and is refused",
        ),
        timing_constraints: Support::Penalized("ignored; timing is the per-assignment rule"),
    },
    ConstructSupport {
        backend: "cash",
        par: Support::Rejected("pure ANSI C input; concurrency is extracted, never written"),
        channels: Support::Rejected("pure ANSI C input"),
        delay: Support::Rejected("asynchronous target has no clock"),
        pointers: Support::Ok,
        multi_target_pointers: Support::Penalized(
            "targets merge into one monolithic memory; token-serialized access",
        ),
        data_dependent_loops: Support::Ok,
        timing_constraints: Support::Rejected("no cycles to budget in an asynchronous circuit"),
    },
    ConstructSupport {
        backend: "ocapi",
        par: Support::Penalized("parallelism is structural: you instantiate it, nothing is inferred"),
        channels: Support::Penalized("hand-built as wires and handshakes"),
        delay: Support::Ok,
        pointers: Support::Rejected("structural descriptions have no memory model for pointers"),
        multi_target_pointers: Support::Rejected("structural descriptions have no memory model"),
        data_dependent_loops: Support::Penalized("written as explicit FSM states by hand"),
        timing_constraints: Support::Penalized("implicit: one state is one cycle, by construction"),
    },
    ConstructSupport {
        backend: "specc",
        par: Support::Ok,
        channels: Support::Ok,
        delay: Support::Ok,
        pointers: Support::Rejected("the synthesizable subset excludes pointers"),
        multi_target_pointers: Support::Rejected("the synthesizable subset excludes pointers"),
        data_dependent_loops: Support::Ok,
        timing_constraints: Support::Penalized("refined manually into explicit states"),
    },
];

/// Looks up the construct-support row for `backend`.
pub fn construct_support(backend: &str) -> Option<&'static ConstructSupport> {
    CONSTRUCT_MATRIX.iter().find(|r| r.backend == backend)
}

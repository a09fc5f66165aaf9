//! Shared backend infrastructure: the [`Backend`] trait, taxonomy
//! metadata (the paper's Table 1), synthesis options and design
//! containers. The shared front half lives in [`crate::prepare`].

pub use crate::prepare::{Prepared, Preparer, Structured};
use chls_frontend::hir::{HirFunc, HirPlace, HirProgram, LocalId};
use chls_frontend::{IntType, Type};
use chls_ir::ir::{Function, InstData, InstKind, MemSource, Value};
use chls_ir::BinKind;
use chls_opt::dep::AliasPrecision;
use chls_rtl::cost::CostModel;
use chls_rtl::fsmd::{Action, Fsmd, FsmdMem, MemId, NextState, RegId, Rv, RvKind, StateId};
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

/// Where a structured backend keeps one HIR local.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    /// A scalar register.
    Reg(RegId),
    /// An array memory.
    Mem(MemId),
    /// A channel, numbered in declaration order.
    Chan(u32),
    /// No storage (`void`).
    Void,
}

/// The storage of a structured (HIR) backend's entry function, built
/// once for Handel-C and HardwareC alike. The tables are indexed by
/// `LocalId` and `GlobalId`.
pub(crate) struct HirStorage<'p> {
    /// The entry function.
    pub func: &'p HirFunc,
    /// Each local's storage.
    pub locals: Vec<Slot>,
    /// Each global array's ROM (`None` for scalar globals).
    pub globals: Vec<Option<MemId>>,
    /// The register holding the return value, for non-`void` functions.
    pub ret_reg: Option<RegId>,
}

impl<'p> HirStorage<'p> {
    /// Starts the design of `prog`'s entry function: in local order a
    /// register per scalar, a memory per array and a number per channel,
    /// then a ROM per global array, then `ret_value`.
    pub fn build(prog: &'p HirProgram) -> Result<(Fsmd, Self), SynthError> {
        let func = &prog.funcs[0];
        let mut fsmd = Fsmd::new(func.name.clone());
        let mut chans = 0u32;
        let mut locals = Vec::with_capacity(func.locals.len());
        for (i, local) in func.locals.iter().enumerate() {
            locals.push(match &local.ty {
                Type::Bool | Type::Int(_) => Slot::Reg(fsmd.add_reg(
                    format!("{}_{i}", local.name.replace('$', "t")),
                    scalar_ty(&local.ty),
                    0,
                )),
                Type::Array(elem, n) => Slot::Mem(fsmd.add_mem(FsmdMem {
                    name: local.name.clone(),
                    elem: scalar_ty(elem),
                    len: *n,
                    rom: local.rom.clone(),
                    param_index: local.is_param.then_some(i),
                })),
                Type::Chan(_) => {
                    chans += 1;
                    Slot::Chan(chans - 1)
                }
                Type::Ptr(_) => {
                    return Err(SynthError::Transform(
                        "pointer survived lowering".to_string(),
                    ))
                }
                Type::Void => Slot::Void,
            });
        }
        let globals = prog
            .globals
            .iter()
            .map(|g| match &g.ty {
                Type::Array(elem, _) => Some(fsmd.add_mem(FsmdMem {
                    name: g.name.clone(),
                    elem: scalar_ty(elem),
                    len: g.values.len(),
                    rom: Some(g.values.clone()),
                    param_index: None,
                })),
                _ => None,
            })
            .collect();
        let ret_reg = match &func.ret_ty {
            Type::Void => None,
            other => Some(fsmd.add_reg("ret_value", scalar_ty(other), 0)),
        };
        Ok((
            fsmd,
            HirStorage {
                func,
                locals,
                globals,
                ret_reg,
            },
        ))
    }

    /// The register of scalar local `id`.
    pub fn reg(&self, id: LocalId) -> RegId {
        match self.locals[id.0 as usize] {
            Slot::Reg(r) => r,
            other => panic!("local {id} is not a scalar: {other:?}"),
        }
    }

    /// The number of channel local `id`.
    pub fn chan(&self, id: LocalId) -> u32 {
        match self.locals[id.0 as usize] {
            Slot::Chan(c) => c,
            other => panic!("local {id} is not a channel: {other:?}"),
        }
    }

    /// The memory an indexed place reads or writes.
    pub fn place_mem(&self, place: &HirPlace) -> Result<MemId, SynthError> {
        let mem = match place {
            HirPlace::Local(id) => match self.locals[id.0 as usize] {
                Slot::Mem(m) => Some(m),
                _ => return Err(SynthError::Transform("indexing a scalar".to_string())),
            },
            HirPlace::Global(g) => self.globals[g.0 as usize],
            _ => return Err(SynthError::Transform("bad memory place".to_string())),
        };
        mem.ok_or_else(|| SynthError::Transform("unknown global".to_string()))
    }

    /// Makes `state` latch every scalar parameter from a new primary
    /// input into its register (structured-language variables are
    /// mutable, so parameters live in registers).
    pub fn latch_params(&self, fsmd: &mut Fsmd, state: StateId) {
        for (i, local) in self.func.locals.iter().enumerate() {
            if local.is_param && local.ty.is_scalar() {
                let ty = scalar_ty(&local.ty);
                let input = fsmd.add_input(format!("arg{i}"), ty, i);
                let rv = Rv {
                    kind: RvKind::Input(input),
                    ty,
                };
                let set = Action::set(self.reg(LocalId(i as u32)), rv);
                fsmd.state_mut(state).actions.push(set);
            }
        }
    }

    /// The design's return value.
    pub fn ret(&self) -> Option<Rv> {
        self.ret_reg
            .map(|r| Rv::reg(r, scalar_ty(&self.func.ret_ty)))
    }
}

/// The primary input of each scalar parameter of an SSA function,
/// indexed by parameter number.
pub(crate) struct SsaInputs(Vec<Option<usize>>);

impl SsaInputs {
    /// Starts the design of `f` for the SSA backends (c2v, cyber and
    /// transmogrifier): one input per scalar parameter in the order of
    /// its first `Param` instruction, then one memory per IR memory.
    pub fn build(f: &Function) -> (Fsmd, Self) {
        let mut fsmd = Fsmd::new(f.name.clone());
        let mut inputs = Vec::new();
        for inst in &f.insts {
            if let InstKind::Param(p) = inst.kind {
                if inputs.len() <= p {
                    inputs.resize(p + 1, None);
                }
                if inputs[p].is_none() {
                    inputs[p] = Some(fsmd.add_input(format!("arg{p}"), inst.ty, p));
                }
            }
        }
        for m in &f.mems {
            fsmd.add_mem(FsmdMem {
                name: m.name.clone(),
                elem: m.elem,
                len: m.len,
                rom: m.rom.clone(),
                param_index: match m.source {
                    MemSource::Param(p) => Some(p),
                    _ => None,
                },
            });
        }
        (fsmd, SsaInputs(inputs))
    }

    /// The `Rv` of a `Const` or `Param` leaf, and `None` for any other
    /// instruction.
    pub fn leaf(&self, inst: &InstData) -> Option<Rv> {
        match inst.kind {
            InstKind::Const(c) => Some(Rv::konst(c, inst.ty)),
            InstKind::Param(p) => Some(Rv {
                kind: RvKind::Input(self.0[p].expect("every Param has an input")),
                ty: inst.ty,
            }),
            _ => None,
        }
    }
}

/// The full-width type of an SSA op's `Rv`: `u1` for a comparison, the
/// instruction's own type otherwise.
pub(crate) fn op_ty(inst: &InstData) -> IntType {
    match inst.kind {
        InstKind::Bin(op, ..) if op.is_comparison() => IntType::u1(),
        _ => inst.ty,
    }
}

/// The `Rv` of an SSA datapath op (`Bin`, `Un`, `Select`, `Cast` or
/// `Load`) of type `ty`, with each operand resolved by `operand`. The
/// one translation every SSA backend shares.
pub(crate) fn op_rv(kind: &InstKind, ty: IntType, mut operand: impl FnMut(Value) -> Rv) -> Rv {
    let mut op = |v: &Value| Box::new(operand(*v));
    let kind = match kind {
        InstKind::Bin(bin, a, b) => RvKind::Bin(*bin, op(a), op(b)),
        InstKind::Un(un, a) => RvKind::Un(*un, op(a)),
        InstKind::Select { cond, t, f } => RvKind::Mux(op(cond), op(t), op(f)),
        InstKind::Cast { val, .. } => RvKind::Cast(op(val)),
        InstKind::Load { mem, addr } => RvKind::MemRead {
            mem: MemId(mem.0),
            addr: op(addr),
        },
        other => unreachable!("not a datapath op: {other:?}"),
    };
    Rv { kind, ty }
}

/// `rv == 0` as a `u1`: the negation of a condition.
pub(crate) fn is_zero(rv: Rv) -> Rv {
    Rv::bin(BinKind::Eq, IntType::u1(), rv, Rv::konst(0, IntType::u1()))
}

/// The next-state of a state leaving through guarded `cases` in
/// priority order: the last case is the default, and no case at all
/// goes to `fallback`.
pub(crate) fn cases_to_next(mut cases: Vec<(Rv, StateId)>, fallback: StateId) -> NextState {
    match cases.pop() {
        None => NextState::Goto(fallback),
        Some((_, only)) if cases.is_empty() => NextState::Goto(only),
        Some((_, default)) => NextState::Cases { cases, default },
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
        par: Support::Penalized(
            "parallelism is structural: you instantiate it, nothing is inferred",
        ),
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

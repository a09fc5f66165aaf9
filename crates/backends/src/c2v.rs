//! The C2Verilog backend.
//!
//! CompiLogic's C2Verilog had "truly broad support for ANSI C" — pointers,
//! recursion, dynamic allocation — and "inserts cycles using complex
//! rules", with timing constraints imposed *outside* the language. This
//! backend models that flow as classic compiler-scheduled HLS:
//!
//! * the sequential pipeline (inline → unroll pragmas → pointer
//!   elimination, with multi-target pointers forced into a monolithic
//!   memory — C2Verilog's general strategy) produces clean SSA IR;
//! * each basic block's DFG is **list-scheduled** under the clock period
//!   and the resource set (functional units, memory ports) given outside
//!   the language in [`SynthOptions`];
//! * each schedule cycle becomes one FSMD state; chained operations share
//!   a state, multi-cycle operations (wide dividers) occupy several;
//! * SSA values crossing cycles or blocks live in registers, committed
//!   with register semantics so parallel transfers are safe.
//!
//! One simplification: a multi-cycle operation's datapath is evaluated in
//! its final state rather than being internally pipelined, so the
//! reported critical path for divider-heavy designs is pessimistic while
//! the cycle count is faithful.

use crate::common::*;
use chls_frontend::IntType;
use chls_ir::ir::{Function, InstKind, MemSource, Term, Value};
use chls_rtl::fsmd::{Action, Fsmd, FsmdMem, NextState, RegId, Rv, RvKind, StateId};
use chls_sched::dfg::dfg_from_block;
use chls_sched::list_schedule;
use std::collections::HashMap;

/// The C2Verilog backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct C2Verilog;

impl Backend for C2Verilog {
    fn info(&self) -> BackendInfo {
        BackendInfo {
            name: "c2v",
            models: "C2Verilog (CompiLogic / C Level Design)",
            year: 1998,
            comment: "Comprehensive; company defunct",
            concurrency: ConcurrencyModel::CompilerDriven,
            timing: TimingModel::CompilerScheduled,
            pointers: true,
            data_dependent_loops: true,
            parallel_constructs: false,
            reads_pipeline: true,
            reads_narrow: true,
        }
    }

    fn synthesize(
        &self,
        prep: &Preparer,
        entry: &str,
        opts: &SynthOptions,
    ) -> Result<Design, SynthError> {
        let prepared = prep.sequential(entry, false, opts.narrow_widths, opts.unroll_factor)?;
        let fsmd = if opts.pipeline_loops && opts.pipeline_if_convert {
            // Modulo scheduling wants single-block loop bodies: forward
            // duplicated loads (so re-loading arms become pure), then
            // predicate small data-dependent branches (if-conversion).
            // Both rewrite in place, so they work on a copy of the
            // shared preparation.
            let mut func = prepared.func.clone();
            chls_opt::loadcse::eliminate_redundant_loads(&mut func);
            chls_opt::ifconv::if_convert(&mut func);
            schedule_to_fsmd(&func, opts)?
        } else {
            schedule_to_fsmd(&prepared.func, opts)?
        };
        Ok(Design::Fsmd(fsmd))
    }
}

/// Shared FSMD construction from scheduled IR; also used by the
/// Transmogrifier backend for its in-region datapaths.
pub(crate) fn schedule_to_fsmd(f: &Function, opts: &SynthOptions) -> Result<Fsmd, SynthError> {
    let mut out = Fsmd::new(f.name.clone());

    // Inputs: one per scalar parameter, discovered from Param insts.
    let mut input_idx: HashMap<usize, usize> = HashMap::new();
    for inst in &f.insts {
        if let InstKind::Param(p) = &inst.kind {
            input_idx
                .entry(*p)
                .or_insert_with(|| out.add_input(format!("arg{p}"), inst.ty, *p));
        }
    }
    // Memories.
    for m in &f.mems {
        out.add_mem(FsmdMem {
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

    // Registers for every value that needs one: phis and every scheduled
    // op result (cross-cycle/cross-block uses read the register; same
    // cycle chained uses inline the expression). With `narrow_widths`,
    // each register shrinks to the bit-width the value-range analysis
    // proves sufficient — transparent to readers because register values
    // are canonical integers.
    let widths = opts.narrow_widths.then(|| chls_opt::width::analyze(f));
    let mut reg_of: HashMap<Value, RegId> = HashMap::new();
    for (i, inst) in f.insts.iter().enumerate() {
        let v = Value(i as u32);
        let needs_reg = !matches!(
            &inst.kind,
            InstKind::Const(_) | InstKind::Param(_) | InstKind::Store { .. }
        );
        if needs_reg {
            let ty = match &widths {
                Some(wa) => {
                    let w = wa.needed_width(f, v).clamp(1, inst.ty.width);
                    IntType::new(w, inst.ty.signed)
                }
                None => inst.ty,
            };
            let r = out.add_reg(format!("v{i}"), ty, 0);
            reg_of.insert(v, r);
        }
    }
    let ret_reg = f.ret_ty.map(|ty| out.add_reg("ret_value", ty, 0));

    // Optional loop pipelining: innermost canonical loops become
    // modulo-scheduled overlapped kernels; their blocks are not emitted
    // by the per-block path below.
    let mut pipelined: Vec<crate::pipeline::PipelinedLoop> = Vec::new();
    let mut covered: std::collections::HashSet<u32> = std::collections::HashSet::new();
    if opts.pipeline_loops {
        let forest = chls_ir::loops::LoopForest::compute(f);
        let max_depth = forest.loops.iter().map(|l| l.depth).max().unwrap_or(0);
        let ctx = crate::pipeline::PipelineCtx {
            f,
            reg_of: &reg_of,
            input_idx: &input_idx,
            opts,
        };
        for l in forest.loops.iter().filter(|l| l.depth == max_depth) {
            if l.blocks.iter().any(|b| covered.contains(&b.0)) {
                continue;
            }
            if let Some(p) = crate::pipeline::try_pipeline(&mut out, &ctx, l) {
                for b in &p.covered {
                    covered.insert(b.0);
                }
                pipelined.push(p);
            }
        }
    }

    // Per block: schedule and allocate states.
    let mut sched_of = Vec::with_capacity(f.blocks.len());
    let mut dfg_of = Vec::with_capacity(f.blocks.len());
    let mut block_states: Vec<Vec<StateId>> = Vec::with_capacity(f.blocks.len());
    for bi in 0..f.blocks.len() {
        if covered.contains(&(bi as u32)) {
            // Covered blocks are entered only through their loop header,
            // which maps to the pipeline's entry state.
            let entry = pipelined
                .iter()
                .find(|p| p.covered.first() == Some(&chls_ir::BlockId(bi as u32)))
                .map(|p| vec![p.entry])
                .unwrap_or_default();
            block_states.push(entry);
            sched_of.push((
                list_schedule(&chls_sched::Dfg::default(), opts.clock_period_ns, &opts.resources),
                Vec::new(),
            ));
            dfg_of.push(chls_sched::Dfg::default());
            continue;
        }
        let (dfg, vals) = dfg_from_block(
            f,
            chls_ir::BlockId(bi as u32),
            opts.precision,
            &opts.model,
        );
        let sched = list_schedule(&dfg, opts.clock_period_ns, &opts.resources);
        let n_states = sched.length.max(1) as usize;
        block_states.push((0..n_states).map(|_| out.add_state()).collect());
        sched_of.push((sched, vals));
        dfg_of.push(dfg);
    }
    let done_state = out.add_state();
    out.state_mut(done_state).next = NextState::Done;
    out.entry = block_states[f.entry.0 as usize][0];
    // Connect pipeline exits to their successor blocks.
    for p in &pipelined {
        let target = block_states[p.exit_block.0 as usize][0];
        out.state_mut(p.exit_state).next = NextState::Goto(target);
    }

    // Expression construction.
    struct Ctx<'a> {
        f: &'a Function,
        reg_of: &'a HashMap<Value, RegId>,
        input_idx: &'a HashMap<usize, usize>,
        /// Cycle of each value in the current block (None = other block).
        cycle_of: HashMap<Value, u32>,
        /// When narrowing, the value-range analysis.
        widths: Option<&'a chls_opt::width::WidthAnalysis>,
    }
    impl Ctx<'_> {
        /// The datapath type for `v`: its IR type, or the proven-narrower
        /// width under `narrow_widths`. Sound for recomputation of
        /// low-bit-determined operations (add/sub/mul/logic/shl/not/neg:
        /// result bits below `w` depend only on operand bits below `w`);
        /// any width-sensitive wrap forces the analysis range up to the
        /// full type width, which disables narrowing for that value.
        fn vty(&self, v: Value) -> IntType {
            let ty = self.f.inst(v).ty;
            match self.widths {
                Some(wa) => {
                    let w = wa.needed_width(self.f, v).clamp(1, ty.width);
                    IntType::new(w, ty.signed)
                }
                None => ty,
            }
        }

        /// The datapath type for ops whose low result bits depend on
        /// operand *high* bits (right shift, division, remainder): the
        /// width must cover the operands as well as the result.
        fn vty_covering(&self, v: Value, a: Value, b: Value) -> IntType {
            let ty = self.f.inst(v).ty;
            match self.widths {
                Some(wa) => {
                    let w = wa
                        .needed_width(self.f, v)
                        .max(wa.needed_width(self.f, a))
                        .max(wa.needed_width(self.f, b))
                        .clamp(1, ty.width);
                    IntType::new(w, ty.signed)
                }
                None => ty,
            }
        }

        /// The Rv for using `v` from an op scheduled at `cycle`.
        fn rv_use(&self, v: Value, cycle: u32) -> Rv {
            let inst = self.f.inst(v);
            match &inst.kind {
                InstKind::Const(c) => Rv::konst(*c, inst.ty),
                InstKind::Param(p) => Rv {
                    kind: RvKind::Input(self.input_idx[p]),
                    ty: inst.ty,
                },
                _ => {
                    if self.cycle_of.get(&v) == Some(&cycle) {
                        // Chained: inline the producing expression.
                        self.rv_def(v, cycle)
                    } else {
                        Rv::reg(self.reg_of[&v], self.vty(v))
                    }
                }
            }
        }

        /// The Rv computing `v` itself (at its own cycle).
        fn rv_def(&self, v: Value, cycle: u32) -> Rv {
            let inst = self.f.inst(v);
            match &inst.kind {
                InstKind::Const(c) => Rv::konst(*c, inst.ty),
                InstKind::Param(p) => Rv {
                    kind: RvKind::Input(self.input_idx[p]),
                    ty: inst.ty,
                },
                InstKind::Bin(op, a, b) => Rv {
                    kind: RvKind::Bin(
                        *op,
                        Box::new(self.rv_use(*a, cycle)),
                        Box::new(self.rv_use(*b, cycle)),
                    ),
                    ty: if op.is_comparison() {
                        IntType::new(1, false)
                    } else if matches!(
                        op,
                        chls_ir::BinKind::Shr | chls_ir::BinKind::Div | chls_ir::BinKind::Rem
                    ) {
                        self.vty_covering(v, *a, *b)
                    } else {
                        self.vty(v)
                    },
                },
                InstKind::Un(op, a) => Rv {
                    kind: RvKind::Un(*op, Box::new(self.rv_use(*a, cycle))),
                    ty: self.vty(v),
                },
                InstKind::Select { cond, t, f: fv } => Rv {
                    kind: RvKind::Mux(
                        Box::new(self.rv_use(*cond, cycle)),
                        Box::new(self.rv_use(*t, cycle)),
                        Box::new(self.rv_use(*fv, cycle)),
                    ),
                    ty: self.vty(v),
                },
                InstKind::Cast { val, .. } => Rv {
                    kind: RvKind::Cast(Box::new(self.rv_use(*val, cycle))),
                    ty: self.vty(v),
                },
                InstKind::Load { mem, addr } => Rv {
                    kind: RvKind::MemRead {
                        mem: chls_rtl::fsmd::MemId(mem.0),
                        addr: Box::new(self.rv_use(*addr, cycle)),
                    },
                    ty: inst.ty,
                },
                InstKind::Store { .. } | InstKind::Phi(_) => {
                    unreachable!("stores/phis are not expression defs")
                }
            }
        }
    }

    // Emit each block.
    for bi in 0..f.blocks.len() {
        if covered.contains(&(bi as u32)) {
            continue;
        }
        let b = chls_ir::BlockId(bi as u32);
        let (sched, vals) = &sched_of[bi];
        let states = &block_states[bi];
        // Value -> completion cycle (start + duration - 1).
        let mut cycle_of: HashMap<Value, u32> = HashMap::new();
        for (ni, &v) in vals.iter().enumerate() {
            cycle_of.insert(v, sched.cycle[ni] + sched.duration[ni] - 1);
        }
        let ctx = Ctx {
            f,
            reg_of: &reg_of,
            input_idx: &input_idx,
            cycle_of,
            widths: widths.as_ref(),
        };

        // Ops commit their registers at the end of their completion cycle.
        for (ni, &v) in vals.iter().enumerate() {
            let c = sched.cycle[ni] + sched.duration[ni] - 1;
            let st = states[c as usize];
            match &f.inst(v).kind {
                InstKind::Store { mem, addr, value } => {
                    out.state_mut(st).actions.push(Action::write(
                        chls_rtl::fsmd::MemId(mem.0),
                        ctx.rv_use(*addr, c),
                        ctx.rv_use(*value, c),
                    ));
                }
                _ => {
                    let rv = ctx.rv_def(v, c);
                    out.state_mut(st)
                        .actions
                        .push(Action::set(reg_of[&v], rv));
                }
            }
        }

        // Chain the sub-states.
        for w in states.windows(2) {
            out.state_mut(w[0]).next = NextState::Goto(w[1]);
        }
        let last = *states.last().expect("at least one state");

        // Phi updates for successors happen in our last state; the
        // simultaneous-commit semantics make parallel swaps safe.
        for succ in f.block(b).term.successors() {
            for &pv in &f.block(succ).insts {
                if let InstKind::Phi(args) = &f.inst(pv).kind {
                    for (pred, incoming) in args {
                        if *pred == b {
                            let last_cycle = (states.len() - 1) as u32;
                            let rv = ctx.rv_use(*incoming, last_cycle);
                            out.state_mut(last)
                                .actions
                                .push(Action::set(reg_of[&pv], rv));
                        }
                    }
                }
            }
        }

        // Terminator.
        let last_cycle = (states.len() - 1) as u32;
        match &f.block(b).term {
            Term::Jump(t) => {
                out.state_mut(last).next =
                    NextState::Goto(block_states[t.0 as usize][0]);
            }
            Term::Br { cond, then, els } => {
                let c = ctx.rv_use(*cond, last_cycle);
                out.state_mut(last).next = NextState::Branch {
                    cond: c,
                    then: block_states[then.0 as usize][0],
                    els: block_states[els.0 as usize][0],
                };
            }
            Term::Ret(v) => {
                if let (Some(rr), Some(v)) = (ret_reg, v) {
                    let rv = ctx.rv_use(*v, last_cycle);
                    out.state_mut(last).actions.push(Action::set(rr, rv));
                }
                out.state_mut(last).next = NextState::Goto(done_state);
            }
            Term::Unreachable => {
                out.state_mut(last).next = NextState::Goto(done_state);
            }
        }
    }

    out.ret = ret_reg.map(|rr| Rv::reg(rr, f.ret_ty.expect("ret reg implies type")));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chls_frontend::compile_to_hir;
    use chls_sim::fsmd_sim::simulate;
    use chls_sim::interp::ArgValue;
    use chls_sched::Resources;

    fn synth(src: &str, entry: &str, opts: &SynthOptions) -> Fsmd {
        let prog = compile_to_hir(src).expect("frontend ok");
        let d = C2Verilog.synthesize(&Preparer::new(prog), entry, opts).expect("synthesis ok");
        match d {
            Design::Fsmd(f) => f,
            _ => panic!("c2v must produce an FSMD"),
        }
    }

    #[test]
    fn straight_line_single_state() {
        let f = synth(
            "int f(int a, int b) { return a + b; }",
            "f",
            &SynthOptions::default(),
        );
        let r = simulate(&f, &[ArgValue::Scalar(20), ArgValue::Scalar(22)], 100).unwrap();
        assert_eq!(r.ret, Some(42));
        // One compute state + done.
        assert_eq!(r.cycles, 2, "{:?}", f.states.len());
    }

    #[test]
    fn gcd_loops_until_done() {
        let f = synth(
            "int f(int a, int b) { while (b != 0) { int t = b; b = a % b; a = t; } return a; }",
            "f",
            &SynthOptions::default(),
        );
        let r = simulate(&f, &[ArgValue::Scalar(48), ArgValue::Scalar(36)], 10_000).unwrap();
        assert_eq!(r.ret, Some(12));
        assert!(r.cycles > 3 && r.cycles < 100, "cycles {}", r.cycles);
    }

    #[test]
    fn array_sum_with_memory_port_limit() {
        let f = synth(
            "int f(int a[8], int n) {
                int s = 0;
                for (int i = 0; i < n; i++) s += a[i];
                return s;
            }",
            "f",
            &SynthOptions::default(),
        );
        let r = simulate(
            &f,
            &[ArgValue::Array((1..=8).collect()), ArgValue::Scalar(8)],
            10_000,
        )
        .unwrap();
        assert_eq!(r.ret, Some(36));
        // Single memory port is never exceeded.
        for (reads, writes) in f.mem_port_usage() {
            assert!(reads <= 1 && writes <= 1, "ports {reads}/{writes}");
        }
    }

    #[test]
    fn stores_write_back() {
        let f = synth(
            "void f(int a[4]) { for (int i = 0; i < 4; i++) a[i] = i * i; }",
            "f",
            &SynthOptions::default(),
        );
        let r = simulate(&f, &[ArgValue::Array(vec![0; 4])], 10_000).unwrap();
        assert_eq!(r.mems[0], vec![0, 1, 4, 9]);
    }

    #[test]
    fn longer_period_means_fewer_cycles() {
        // Chained adds fit one cycle at a long period, several at a short.
        let src = "int f(int a) {
            int x = a + 1;
            x = x + 2;
            x = x + 3;
            x = x + 4;
            return x;
        }";
        let slow_clock = SynthOptions {
            clock_period_ns: 4.0,
            resources: Resources::unlimited(),
            ..Default::default()
        };
        let fast_clock = SynthOptions {
            clock_period_ns: 0.4,
            resources: Resources::unlimited(),
            ..Default::default()
        };
        let f_slow = synth(src, "f", &slow_clock);
        let f_fast = synth(src, "f", &fast_clock);
        let r_slow = simulate(&f_slow, &[ArgValue::Scalar(0)], 100).unwrap();
        let r_fast = simulate(&f_fast, &[ArgValue::Scalar(0)], 100).unwrap();
        assert_eq!(r_slow.ret, Some(10));
        assert_eq!(r_fast.ret, Some(10));
        assert!(
            r_fast.cycles > r_slow.cycles,
            "fast {} vs slow {}",
            r_fast.cycles,
            r_slow.cycles
        );
        // And the fast clock's critical path is shorter.
        let m = chls_rtl::CostModel::new();
        assert!(f_fast.critical_path(&m) < f_slow.critical_path(&m) + 1e-9);
    }

    #[test]
    fn multiplier_limit_serializes() {
        let src = "int f(int a, int b, int c, int d) { return a * b + c * d; }";
        let one_mul = SynthOptions {
            resources: {
                let mut r = Resources::unlimited();
                r.units.insert(chls_rtl::OpClass::Mul, 1);
                r
            },
            ..Default::default()
        };
        let many_mul = SynthOptions {
            resources: Resources::unlimited(),
            ..Default::default()
        };
        let f1 = synth(src, "f", &one_mul);
        let f2 = synth(src, "f", &many_mul);
        let args = [
            ArgValue::Scalar(2),
            ArgValue::Scalar(3),
            ArgValue::Scalar(4),
            ArgValue::Scalar(5),
        ];
        let r1 = simulate(&f1, &args, 100).unwrap();
        let r2 = simulate(&f2, &args, 100).unwrap();
        assert_eq!(r1.ret, Some(26));
        assert_eq!(r2.ret, Some(26));
        assert!(r1.cycles > r2.cycles, "{} vs {}", r1.cycles, r2.cycles);
    }

    #[test]
    fn pointer_heavy_program_via_monolithic_memory() {
        let f = synth(
            "int f(bool pick) {
                int x = 10;
                int y = 20;
                int *p = pick ? &x : &y;
                *p = *p + 1;
                return x * 100 + y;
            }",
            "f",
            &SynthOptions::default(),
        );
        let r = simulate(&f, &[ArgValue::Scalar(1)], 1000).unwrap();
        assert_eq!(r.ret, Some(1120));
        let r = simulate(&f, &[ArgValue::Scalar(0)], 1000).unwrap();
        assert_eq!(r.ret, Some(1021));
    }

    #[test]
    fn emits_verilog() {
        let f = synth(
            "int f(int a) { return a * 3; }",
            "f",
            &SynthOptions::default(),
        );
        let v = chls_rtl::fsmd_to_verilog(&f);
        assert!(v.contains("module f"), "{v}");
        assert!(v.contains("case (state)"), "{v}");
    }
}

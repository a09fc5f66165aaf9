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
use chls_ir::ir::{BlockId, Function, InstKind, Term, Value};
use chls_ir::BinKind;
use chls_rtl::fsmd::{Action, Fsmd, MemId, NextState, RegId, Rv, StateId};
use chls_sched::dfg::dfg_from_block;
use chls_sched::list_schedule;

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

/// Shared FSMD construction from scheduled IR; also used by the Cyber
/// backend.
pub(crate) fn schedule_to_fsmd(f: &Function, opts: &SynthOptions) -> Result<Fsmd, SynthError> {
    let (mut out, inputs) = SsaInputs::build(f);

    // Registers for every value that needs one: phis and every scheduled
    // op result (cross-cycle/cross-block uses read the register; same
    // cycle chained uses inline the expression). With `narrow_widths`,
    // each register shrinks to the bit-width the value-range analysis
    // proves sufficient — transparent to readers because register values
    // are canonical integers.
    let widths = opts.narrow_widths.then(|| chls_opt::width::analyze(f));
    let mut ctx = Ctx {
        f,
        reg_of: Vec::with_capacity(f.insts.len()),
        inputs,
        cycle_of: vec![None; f.insts.len()],
        widths: widths.as_ref(),
    };
    for (i, inst) in f.insts.iter().enumerate() {
        let needs_reg = !matches!(
            &inst.kind,
            InstKind::Const(_) | InstKind::Param(_) | InstKind::Store { .. }
        );
        let reg = needs_reg.then(|| out.add_reg(format!("v{i}"), ctx.vty(Value(i as u32)), 0));
        ctx.reg_of.push(reg);
    }
    let ret_reg = f.ret_ty.map(|ty| out.add_reg("ret_value", ty, 0));

    // Optional loop pipelining: innermost canonical loops become
    // modulo-scheduled overlapped kernels; their blocks are not emitted
    // by the per-block path below.
    let mut pipelined: Vec<crate::pipeline::PipelinedLoop> = Vec::new();
    let mut covered = vec![false; f.blocks.len()];
    if opts.pipeline_loops {
        let forest = chls_ir::loops::LoopForest::compute(f);
        let max_depth = forest.loops.iter().map(|l| l.depth).max().unwrap_or(0);
        let pctx = crate::pipeline::PipelineCtx {
            f,
            reg_of: &ctx.reg_of,
            inputs: &ctx.inputs,
            opts,
        };
        for l in forest.loops.iter().filter(|l| l.depth == max_depth) {
            if l.blocks.iter().any(|b| covered[b.0 as usize]) {
                continue;
            }
            if let Some(p) = crate::pipeline::try_pipeline(&mut out, &pctx, l) {
                for b in &p.covered {
                    covered[b.0 as usize] = true;
                }
                pipelined.push(p);
            }
        }
    }

    // Per block: schedule and allocate states.
    let mut sched_of = Vec::with_capacity(f.blocks.len());
    let mut block_states: Vec<Vec<StateId>> = Vec::with_capacity(f.blocks.len());
    for (bi, &covered) in covered.iter().enumerate() {
        if covered {
            // Covered blocks are entered only through their loop header,
            // which maps to the pipeline's entry state.
            let entry = pipelined
                .iter()
                .find(|p| p.covered.first() == Some(&BlockId(bi as u32)))
                .map(|p| vec![p.entry])
                .unwrap_or_default();
            block_states.push(entry);
            sched_of.push(None);
            continue;
        }
        let (dfg, vals) = dfg_from_block(f, BlockId(bi as u32), opts.precision, &opts.model);
        let sched = list_schedule(&dfg, opts.clock_period_ns, &opts.resources);
        let n_states = sched.length.max(1) as usize;
        block_states.push((0..n_states).map(|_| out.add_state()).collect());
        sched_of.push(Some((sched, vals)));
    }
    let done_state = out.add_state();
    out.state_mut(done_state).next = NextState::Done;
    out.entry = block_states[f.entry.0 as usize][0];
    // Connect pipeline exits to their successor blocks.
    for p in &pipelined {
        let target = block_states[p.exit_block.0 as usize][0];
        out.state_mut(p.exit_state).next = NextState::Goto(target);
    }

    // Emit each block.
    for (bi, scheduled) in sched_of.iter().enumerate() {
        let Some((sched, vals)) = scheduled else {
            continue;
        };
        let b = BlockId(bi as u32);
        let states = &block_states[bi];
        // Value -> completion cycle (start + duration - 1).
        let done_at = |ni: usize| sched.cycle[ni] + sched.duration[ni] - 1;
        for (ni, &v) in vals.iter().enumerate() {
            ctx.cycle_of[v.0 as usize] = Some(done_at(ni));
        }

        // Ops commit their registers at the end of their completion cycle.
        for (ni, &v) in vals.iter().enumerate() {
            let c = done_at(ni);
            let st = states[c as usize];
            let action = match &f.inst(v).kind {
                InstKind::Store { mem, addr, value } => {
                    Action::write(MemId(mem.0), ctx.rv_use(*addr, c), ctx.rv_use(*value, c))
                }
                _ => Action::set(ctx.reg(v), ctx.rv_def(v, c)),
            };
            out.state_mut(st).actions.push(action);
        }

        // Chain the sub-states.
        for w in states.windows(2) {
            out.state_mut(w[0]).next = NextState::Goto(w[1]);
        }
        let last = *states.last().expect("at least one state");
        let last_cycle = (states.len() - 1) as u32;

        // Phi updates for successors happen in our last state; the
        // simultaneous-commit semantics make parallel swaps safe.
        for succ in f.block(b).term.successors() {
            for &pv in &f.block(succ).insts {
                if let InstKind::Phi(args) = &f.inst(pv).kind {
                    for (pred, incoming) in args {
                        if *pred == b {
                            let rv = ctx.rv_use(*incoming, last_cycle);
                            out.state_mut(last)
                                .actions
                                .push(Action::set(ctx.reg(pv), rv));
                        }
                    }
                }
            }
        }

        // Terminator.
        match &f.block(b).term {
            Term::Jump(t) => {
                out.state_mut(last).next = NextState::Goto(block_states[t.0 as usize][0]);
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
        for &v in vals {
            ctx.cycle_of[v.0 as usize] = None;
        }
    }

    out.ret = ret_reg.map(|rr| Rv::reg(rr, f.ret_ty.expect("ret reg implies type")));
    Ok(out)
}

/// Expression construction for one design.
struct Ctx<'a> {
    f: &'a Function,
    /// The register of each value, by `Value`.
    reg_of: Vec<Option<RegId>>,
    inputs: SsaInputs,
    /// Completion cycle of each value of the block being emitted, by
    /// `Value` (`None` for values of other blocks).
    cycle_of: Vec<Option<u32>>,
    /// When narrowing, the value-range analysis.
    widths: Option<&'a chls_opt::width::WidthAnalysis>,
}

impl Ctx<'_> {
    fn reg(&self, v: Value) -> RegId {
        self.reg_of[v.0 as usize].expect("every op result has a register")
    }

    /// The datapath type for `v`: its IR type, or the proven-narrower
    /// width under `narrow_widths`. Sound for recomputation of
    /// low-bit-determined operations (add/sub/mul/logic/shl/not/neg:
    /// result bits below `w` depend only on operand bits below `w`);
    /// any width-sensitive wrap forces the analysis range up to the
    /// full type width, which disables narrowing for that value.
    fn vty(&self, v: Value) -> IntType {
        self.vty_covering(v, &[])
    }

    /// The datapath type for `v`, also covering operands `ops`: ops whose
    /// low result bits depend on operand *high* bits (right shift,
    /// division, remainder) need a width that covers the operands as
    /// well as the result.
    fn vty_covering(&self, v: Value, ops: &[Value]) -> IntType {
        let ty = self.f.inst(v).ty;
        match self.widths {
            Some(wa) => {
                let w = ops
                    .iter()
                    .fold(wa.needed_width(self.f, v), |w, &o| {
                        w.max(wa.needed_width(self.f, o))
                    })
                    .clamp(1, ty.width);
                IntType::new(w, ty.signed)
            }
            None => ty,
        }
    }

    /// The Rv for using `v` from an op scheduled at `cycle`.
    fn rv_use(&self, v: Value, cycle: u32) -> Rv {
        let inst = self.f.inst(v);
        if let Some(leaf) = self.inputs.leaf(inst) {
            leaf
        } else if self.cycle_of[v.0 as usize] == Some(cycle) {
            // Chained: inline the producing expression.
            self.rv_def(v, cycle)
        } else {
            Rv::reg(self.reg(v), self.vty(v))
        }
    }

    /// The Rv computing `v` itself (at its own cycle).
    fn rv_def(&self, v: Value, cycle: u32) -> Rv {
        let inst = self.f.inst(v);
        if let Some(leaf) = self.inputs.leaf(inst) {
            return leaf;
        }
        let ty = match inst.kind {
            InstKind::Bin(op, ..) if op.is_comparison() => IntType::u1(),
            InstKind::Bin(BinKind::Shr | BinKind::Div | BinKind::Rem, a, b) => {
                self.vty_covering(v, &[a, b])
            }
            InstKind::Load { .. } => inst.ty,
            _ => self.vty(v),
        };
        op_rv(&inst.kind, ty, |o| self.rv_use(o, cycle))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chls_frontend::compile_to_hir;
    use chls_sched::Resources;
    use chls_sim::fsmd_sim::simulate;
    use chls_sim::interp::ArgValue;

    fn synth(src: &str, entry: &str, opts: &SynthOptions) -> Fsmd {
        let prog = compile_to_hir(src).expect("frontend ok");
        let d = C2Verilog
            .synthesize(&Preparer::new(prog), entry, opts)
            .expect("synthesis ok");
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

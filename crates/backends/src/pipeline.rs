//! Hardware loop pipelining for the C2Verilog backend.
//!
//! When [`SynthOptions::pipeline_loops`] is set, innermost loops of the
//! canonical shape (header with the exit branch + a jump-chain body) are
//! modulo-scheduled and emitted as an *overlapped* FSMD kernel: `II`
//! cycling states issue one iteration per initiation interval, with
//! per-stage valid bits guarding each operation and a drain sequence on
//! exit. The canonical shape is manufactured where possible: c2v runs
//! redundant-load elimination and if-conversion first (branchy bodies
//! predicate into `Select`s), and `loop_dfg` drops provably-independent
//! carried memory edges via induction-relative affine analysis. Values
//! whose lifetime crosses window boundaries — boundary-updated phis and
//! long-lived same-iteration values alike — get per-stage shadow
//! registers (modulo variable expansion). Loops that still violate a
//! window condition (late exit conditions, multi-cycle operations,
//! unshadowable lifetimes) fall back to the sequential schedule.
//!
//! Control discipline (no speculation): the exit condition for iteration
//! *i+1* is computed during iteration *i*'s stage-0 window, strictly after
//! the loop-carried registers update, so the issue decision for the next
//! window is always resolved by the window boundary.

use crate::common::{is_zero, op_rv, op_ty, SsaInputs, SynthOptions};
use chls_frontend::IntType;
use chls_ir::ir::{BlockId, Function, InstKind, Term, Value};
use chls_ir::loops::NaturalLoop;
use chls_ir::BinKind;
use chls_rtl::fsmd::{Action, Fsmd, MemId, NextState, RegId, Rv, StateId};
use chls_sched::modulo::{loop_dfg, modulo_schedule};

/// The canonical loop shape the pipeliner handles.
struct LoopShape {
    header: BlockId,
    /// Body blocks in execution order (jump chain ending at the header).
    body: Vec<BlockId>,
    /// Loop entry target of the header branch.
    body_first: BlockId,
    /// Exit target of the header branch.
    exit: BlockId,
    /// The branch condition value.
    cond: Value,
    /// Branch polarity: `true` when the `then` arm enters the body.
    enter_on_true: bool,
}

fn recognize_shape(f: &Function, l: &NaturalLoop) -> Option<LoopShape> {
    let Term::Br { cond, then, els } = &f.block(l.header).term else {
        return None;
    };
    let (body_first, exit, enter_on_true) = if l.contains(*then) && !l.contains(*els) {
        (*then, *els, true)
    } else if l.contains(*els) && !l.contains(*then) {
        (*els, *then, false)
    } else {
        return None;
    };
    // Body: jump chain from body_first back to the header.
    let mut body = Vec::new();
    let mut cur = body_first;
    let mut guard = 0;
    loop {
        guard += 1;
        if guard > 1_000 {
            return None;
        }
        if !l.contains(cur) || cur == l.header {
            return None;
        }
        body.push(cur);
        match &f.block(cur).term {
            Term::Jump(t) if *t == l.header => break,
            Term::Jump(t) => cur = *t,
            _ => return None,
        }
    }
    Some(LoopShape {
        header: l.header,
        body,
        body_first,
        exit,
        cond: *cond,
        enter_on_true,
    })
}

/// Everything the emitter needs from c2v.
pub(crate) struct PipelineCtx<'a> {
    pub f: &'a Function,
    /// c2v's register of each value, by `Value`.
    pub reg_of: &'a [Option<RegId>],
    pub inputs: &'a SsaInputs,
    pub opts: &'a SynthOptions,
}

/// Result: the state preds should jump to, and where the loop exits to
/// (caller connects the returned exit-state's `next`).
pub(crate) struct PipelinedLoop {
    pub entry: StateId,
    pub exit_state: StateId,
    pub exit_block: BlockId,
    pub covered: Vec<BlockId>,
}

/// Attempts to emit `l` as a pipelined kernel into `out`.
/// Returns `None` (emitting nothing) when any applicability check fails.
pub(crate) fn try_pipeline(
    out: &mut Fsmd,
    ctx: &PipelineCtx<'_>,
    l: &NaturalLoop,
) -> Option<PipelinedLoop> {
    let f = ctx.f;
    let shape = recognize_shape(f, l)?;
    let (dfg, vals) = loop_dfg(
        f,
        shape.header,
        &shape.body,
        ctx.opts.precision,
        &ctx.opts.model,
    );
    if dfg.nodes.is_empty() {
        return None;
    }
    let sched = modulo_schedule(&dfg, ctx.opts.clock_period_ns, &ctx.opts.resources);
    let ii = sched.ii;
    let t_len = sched.iteration_length;
    // C2: single-cycle operations only.
    if sched.duration.iter().any(|&d| d != 1) {
        return None;
    }
    // C3: profitable — compare II against what the *sequential emission*
    // actually costs per iteration: one list-scheduled state group per
    // block (the per-block path cannot chain across block boundaries).
    let serial: u32 = std::iter::once(shape.header)
        .chain(shape.body.iter().copied())
        .map(|b| {
            let (bdfg, _) = chls_sched::dfg_from_block(f, b, ctx.opts.precision, &ctx.opts.model);
            chls_sched::list_schedule(&bdfg, ctx.opts.clock_period_ns, &ctx.opts.resources)
                .length
                .max(1)
        })
        .sum();
    if ii >= serial.max(1) {
        return None;
    }

    // The schedule slot of each kernel value, by `Value`.
    let mut slot_of: Vec<Option<u32>> = vec![None; f.insts.len()];
    for (ni, &v) in vals.iter().enumerate() {
        slot_of[v.0 as usize] = Some(sched.slot[ni]);
    }
    let slot = |v: Value| slot_of[v.0 as usize];
    let reg = |v: Value| ctx.reg_of[v.0 as usize].expect("c2v gives every op result a register");

    // Header phis and their latch (in-loop incoming) values.
    let mut phi_latch: Vec<(Value, Value)> = Vec::new();
    for &pv in &f.block(shape.header).insts {
        if let InstKind::Phi(args) = &f.inst(pv).kind {
            for (pred, inc) in args {
                if l.contains(*pred) {
                    phi_latch.push((pv, *inc));
                }
            }
        }
    }
    // C4: latches of the phis that feed the exit condition must resolve
    // within the first window, so each boundary can decide the next issue.
    // (Other phis — e.g. accumulators — may commit in later stages; their
    // readers are bounded by the carried-edge window check below.)
    let mut cond_phis: Vec<Value> = Vec::new();
    f.inst(shape.cond).kind.for_each_operand(|o| {
        if matches!(f.inst(o).kind, InstKind::Phi(_)) {
            cond_phis.push(o);
        }
    });
    for (phi, inc) in &phi_latch {
        if !cond_phis.contains(phi) {
            continue;
        }
        match slot(*inc) {
            Some(t) if t < ii => {}
            None => {}        // constant/extern: fine
            _ => return None, // a condition-feeding latch outside stage 0
        }
    }
    // C5: the exit condition is evaluated separately — combinationally at
    // the window boundary over *post-latch* values (see `expand_new`
    // below). For that to be possible it must be used only by the header
    // branch (its kernel-scheduled copy would mix old and new values), and
    // its operands must be phis, constants, parameters, or loop-external
    // values.
    {
        let mut other_uses = false;
        for inst in &f.insts {
            inst.kind
                .for_each_operand(|o| other_uses |= o == shape.cond);
        }
        for (bi, blk) in f.blocks.iter().enumerate() {
            let _ = bi;
            match &blk.term {
                Term::Br { cond, .. } if *cond == shape.cond => {}
                Term::Br { cond, .. } => other_uses |= *cond == shape.cond,
                Term::Ret(Some(v)) => other_uses |= *v == shape.cond,
                _ => {}
            }
        }
        if other_uses {
            return None;
        }
        let mut bad_operand = false;
        f.inst(shape.cond).kind.for_each_operand(|o| {
            let ok = match &f.inst(o).kind {
                InstKind::Phi(_) => f.inst(o).block == shape.header,
                InstKind::Const(_) | InstKind::Param(_) => true,
                // Loop-external values are registers stable for the run.
                _ => slot(o).is_none(),
            };
            bad_operand |= !ok;
        });
        if bad_operand {
            return None;
        }
    }
    // C6: same-iteration values whose lifetime crosses window boundaries
    // need per-stage shadow copies (modulo variable expansion). For a
    // reader of iteration 0 at cycle `t_u` of a producer committing at
    // `t_d` each window, the producer's register holds instance
    // `floor((t_u - 1 - t_d)/II)`; shadow `s_m` (shifted at each boundary)
    // holds instance `floor((s_u*II - (m-1)*II - 2 - t_d)/II)`. Pick the
    // source holding instance 0, or bail out.
    let source_index = |t_d: u32, t_u: u32| -> Option<usize> {
        let (t_d, t_u, iiw) = (t_d as i64, t_u as i64, ii as i64);
        if (t_u - 1 - t_d).div_euclid(iiw) == 0 {
            return Some(0); // the register itself
        }
        let s_u = t_u / iiw;
        for m in 1..=16i64 {
            let inst = (s_u * iiw - (m - 1) * iiw - 2 - t_d).div_euclid(iiw);
            if inst == 0 {
                return Some(m as usize);
            }
        }
        None
    };
    // Per-value shadow depth for same-iteration cross-window lifetimes.
    let mut value_shadow_depth = vec![0usize; f.insts.len()];
    for e in &dfg.edges {
        if e.distance == 0 {
            let (t_d, t_u) = (sched.slot[e.from.0 as usize], sched.slot[e.to.0 as usize]);
            match source_index(t_d, t_u) {
                Some(0) => {}
                Some(m) => {
                    let v = vals[e.from.0 as usize].0 as usize;
                    value_shadow_depth[v] = value_shadow_depth[v].max(m);
                }
                None => return None, // no shadow depth covers the lifetime
            }
        }
    }
    // C7: loop-carried (phi) values. A phi whose latch commits in stage 0
    // is boundary-updated and *shadowed* per stage (modulo variable
    // expansion), so any reader stage works. A late latch keeps its value
    // in the latch node's own register; readers must come no later in the
    // window than the latch writes (single-register lifetime).
    let mut latch_of: Vec<Option<Value>> = vec![None; f.insts.len()];
    for &(phi, inc) in &phi_latch {
        latch_of[phi.0 as usize] = Some(inc);
    }
    let stage_of = |t: u32| (t / ii) as usize;
    let mut shadow_depth = vec![0usize; f.insts.len()];
    for (ni, &v) in vals.iter().enumerate() {
        let t_u = sched.slot[ni];
        let mut bad = false;
        f.inst(v).kind.for_each_operand(|o| {
            if bad {
                return;
            }
            if let Some(l) = latch_of[o.0 as usize] {
                match slot(l) {
                    Some(t_l) if stage_of(t_l) == 0 => {
                        let d = &mut shadow_depth[o.0 as usize];
                        *d = (*d).max(stage_of(t_u));
                    }
                    // Late latch: reader must beat the overwrite.
                    Some(t_l) if t_u > t_l => bad = true,
                    Some(_) => {}
                    None => {} // const/extern latch: phi is stable enough
                }
            }
        });
        if bad {
            return None; // a carried value read after its late latch overwrite
        }
    }

    // ---- emission ----
    let stages = t_len.div_ceil(ii).max(1) as usize;
    // Validity: stage 0 is `running`; stages 1.. have their own bits.
    let running = out.add_reg(format!("pipe{}_running", shape.header.0), IntType::u1(), 0);
    let valids: Vec<RegId> = (1..stages)
        .map(|j| out.add_reg(format!("pipe{}_v{j}", shape.header.0), IntType::u1(), 0))
        .collect();
    // Stage shadows for boundary-updated phis (modulo variable
    // expansion), then shadows for long-lived same-iteration values, each
    // in `Value` order; indexed by `Value` (empty: no shadow).
    let mut add_shadows = |depths: &[usize], kind: &str| -> Vec<Vec<RegId>> {
        let mut regs = vec![Vec::new(); depths.len()];
        for (v, &depth) in depths.iter().enumerate() {
            let ty = f.insts[v].ty;
            regs[v] = (1..=depth)
                .map(|j| out.add_reg(format!("pipe{}_{kind}{v}_s{j}", shape.header.0), ty, 0))
                .collect();
        }
        regs
    };
    let shadows = add_shadows(&shadow_depth, "phi");
    let vshadows = add_shadows(&value_shadow_depth, "v");

    // Base resolution ignoring pipeline staging (entry/exit contexts).
    let rv_operand = |v: Value| -> Rv {
        let inst = f.inst(v);
        ctx.inputs
            .leaf(inst)
            .unwrap_or_else(|| Rv::reg(reg(v), inst.ty))
    };
    // In-kernel resolution for a reader at slot `t_u` (stage `ustage`):
    // boundary-updated phis read their stage shadow; late-latched phis
    // read the latch's own register (checked above); long-lived values
    // read their instance-matched shadow; everything else reads its
    // register.
    let rv_kernel = |v: Value, t_u: u32| -> Rv {
        let inst = f.inst(v);
        let ustage = stage_of(t_u);
        if let Some(leaf) = ctx.inputs.leaf(inst) {
            return leaf;
        }
        if matches!(inst.kind, InstKind::Phi(_)) && inst.block == shape.header {
            if let Some(l) = latch_of[v.0 as usize] {
                if slot(l).is_some_and(|t_l| stage_of(t_l) > 0) {
                    return Rv::reg(reg(l), inst.ty);
                }
            }
            let regs = &shadows[v.0 as usize];
            if ustage > 0 && !regs.is_empty() {
                return Rv::reg(regs[ustage - 1], inst.ty);
            }
        } else if let Some(m) = slot(v).and_then(|t_d| source_index(t_d, t_u)) {
            let regs = &vshadows[v.0 as usize];
            if m > 0 && !regs.is_empty() {
                return Rv::reg(regs[m - 1], inst.ty);
            }
        }
        Rv::reg(reg(v), inst.ty)
    };
    let build_rv_at = |v: Value, t_u: u32| -> Rv {
        let inst = f.inst(v);
        op_rv(&inst.kind, op_ty(inst), |o| rv_kernel(o, t_u))
    };

    // States.
    let entry = out.add_state();
    let kernels: Vec<StateId> = (0..ii).map(|_| out.add_state()).collect();
    let exit_state = out.add_state();

    // Entry: zero-trip check from the current phi registers; prime the
    // pipeline.
    let cond_entry = build_rv_at(shape.cond, 0);
    let cond_entry = if shape.enter_on_true {
        cond_entry
    } else {
        is_zero(cond_entry)
    };
    out.state_mut(entry)
        .actions
        .push(Action::set(running, cond_entry.clone()));
    for &vj in &valids {
        out.state_mut(entry)
            .actions
            .push(Action::set(vj, Rv::konst(0, IntType::u1())));
    }
    // Late-latch phis are *read* through their latch register inside the
    // kernel; on (re-)entry that register still holds the previous run's
    // final value, so seed it from the phi register (which the preheader
    // set to this run's init).
    for (phi, inc) in &phi_latch {
        if let Some(t_l) = slot(*inc) {
            if stage_of(t_l) > 0 {
                out.state_mut(entry)
                    .actions
                    .push(Action::set(reg(*inc), Rv::reg(reg(*phi), f.inst(*phi).ty)));
            }
        }
    }
    out.state_mut(entry).next = NextState::Branch {
        cond: cond_entry,
        then: kernels[0],
        els: exit_state,
    };

    // Kernel ops.
    let stage_valid = |j: usize| -> Rv {
        if j == 0 {
            Rv::reg(running, IntType::u1())
        } else {
            Rv::reg(valids[j - 1], IntType::u1())
        }
    };
    for (ni, &v) in vals.iter().enumerate() {
        let t = sched.slot[ni];
        let phase = (t % ii) as usize;
        let stage = (t / ii) as usize;
        let guard = stage_valid(stage);
        let st = kernels[phase];
        match &f.inst(v).kind {
            InstKind::Store { mem, addr, value } => {
                out.state_mut(st).actions.push(Action::write_if(
                    guard,
                    MemId(mem.0),
                    rv_kernel(*addr, t),
                    rv_kernel(*value, t),
                ));
            }
            _ => {
                let rv = build_rv_at(v, t);
                out.state_mut(st)
                    .actions
                    .push(Action::set_if(guard, reg(v), rv));
            }
        }
    }
    // Boundary phi updates (all phi registers hold their OLD value during
    // the window; shadows shift the old value down the stages).
    let boundary = kernels[(ii - 1) as usize];
    for (phi, inc) in &phi_latch {
        match slot(*inc) {
            Some(t_l) if stage_of(t_l) == 0 => {
                // New value: the latch register if committed, else its
                // expression inline (operands committed earlier).
                let newv = if t_l + 1 < ii {
                    Rv::reg(reg(*inc), f.inst(*inc).ty)
                } else {
                    build_rv_at(*inc, t_l)
                };
                out.state_mut(boundary).actions.push(Action::set_if(
                    stage_valid(0),
                    reg(*phi),
                    newv,
                ));
            }
            Some(t_l) => {
                // Late latch: readers use the latch register; the phi
                // register still tracks it for the exit path. If the latch
                // commits in the boundary state itself, its register is
                // not yet visible — inline the expression.
                let j = stage_of(t_l);
                let newv = if t_l % ii == ii - 1 {
                    build_rv_at(*inc, t_l)
                } else {
                    Rv::reg(reg(*inc), f.inst(*inc).ty)
                };
                out.state_mut(boundary).actions.push(Action::set_if(
                    stage_valid(j),
                    reg(*phi),
                    newv,
                ));
            }
            None => {
                out.state_mut(boundary).actions.push(Action::set_if(
                    stage_valid(0),
                    reg(*phi),
                    rv_operand(*inc),
                ));
            }
        }
    }
    // Shadow shifts (simultaneous commit: shadow 1 samples the pre-update
    // phi value).
    for table in [&shadows, &vshadows] {
        for (v, regs) in table
            .iter()
            .enumerate()
            .filter(|(_, regs)| !regs.is_empty())
        {
            let ty = f.insts[v].ty;
            let mut prev_rv = Rv::reg(reg(Value(v as u32)), ty);
            for &sreg in regs {
                out.state_mut(boundary)
                    .actions
                    .push(Action::set(sreg, prev_rv.clone()));
                prev_rv = Rv::reg(sreg, ty);
            }
        }
    }

    // Boundary control in the last kernel state. The next-iteration
    // decision needs *post-latch* values: a phi operand whose latch has
    // already committed (slot <= II-2) reads its register; one that
    // commits at the boundary itself is inlined as its latch expression
    // (whose own operands are committed registers by then).
    let expand_phi_new = |phi: Value| -> Rv {
        let inc = phi_latch
            .iter()
            .find(|(p, _)| *p == phi)
            .map(|(_, inc)| *inc);
        match inc {
            None => rv_operand(phi), // no in-loop update: register is current
            Some(inc) => match slot(inc) {
                Some(t_l) if t_l as i64 >= ii as i64 - 1 => {
                    // Commits at the boundary: inline its expression with
                    // register operands (all committed earlier).
                    build_rv_at(inc, 0)
                }
                _ => rv_operand(inc),
            },
        }
    };
    let cond_new = {
        let inst = f.inst(shape.cond);
        let resolve = |o: Value| -> Rv {
            match &f.inst(o).kind {
                InstKind::Phi(_) => expand_phi_new(o),
                _ => rv_operand(o),
            }
        };
        match &inst.kind {
            InstKind::Bin(..) | InstKind::Un(..) => op_rv(&inst.kind, IntType::u1(), resolve),
            _ => return None, // the condition is not a unary or binary op
        }
    };
    let last = kernels[(ii - 1) as usize];
    let cond_ok = if shape.enter_on_true {
        cond_new
    } else {
        is_zero(cond_new)
    };
    let next_running = Rv::bin(
        BinKind::And,
        IntType::u1(),
        Rv::reg(running, IntType::u1()),
        cond_ok,
    );
    out.state_mut(last)
        .actions
        .push(Action::set(running, next_running.clone()));
    // Shift stage valids.
    let mut prev = Rv::reg(running, IntType::u1());
    for &vj in &valids {
        out.state_mut(last)
            .actions
            .push(Action::set(vj, prev.clone()));
        prev = Rv::reg(vj, IntType::u1());
    }
    // Keep cycling while anything will be in flight next window.
    let mut any_next = next_running;
    any_next = Rv::bin(
        BinKind::Or,
        IntType::u1(),
        any_next,
        Rv::reg(running, IntType::u1()),
    );
    for &vj in valids.iter().take(stages.saturating_sub(2)) {
        any_next = Rv::bin(
            BinKind::Or,
            IntType::u1(),
            any_next,
            Rv::reg(vj, IntType::u1()),
        );
    }
    out.state_mut(last).next = NextState::Branch {
        cond: any_next,
        then: kernels[0],
        els: exit_state,
    };
    // Chain kernel states.
    for w in kernels.windows(2) {
        out.state_mut(w[0]).next = NextState::Goto(w[1]);
    }

    // Exit state: write the exit block's phis fed from the header.
    for &pv in &f.block(shape.exit).insts {
        if let InstKind::Phi(args) = &f.inst(pv).kind {
            for (pred, inc) in args {
                if *pred == shape.header {
                    out.state_mut(exit_state)
                        .actions
                        .push(Action::set(reg(pv), rv_operand(*inc)));
                }
            }
        }
    }

    let mut covered = vec![shape.header];
    covered.extend_from_slice(&shape.body);
    let _ = shape.body_first;
    Some(PipelinedLoop {
        entry,
        exit_state,
        exit_block: shape.exit,
        covered,
    })
}

#[cfg(test)]
mod tests {
    use crate::common::*;
    use crate::C2Verilog;
    use chls_frontend::compile_to_hir;
    use chls_sched::Resources;
    use chls_sim::fsmd_sim::simulate;
    use chls_sim::interp::ArgValue;

    fn synth(src: &str, entry: &str, pipeline: bool) -> chls_rtl::Fsmd {
        let prog = compile_to_hir(src).expect("frontend ok");
        let opts = SynthOptions {
            pipeline_loops: pipeline,
            resources: {
                let mut r = Resources::unlimited();
                r.default_mem_ports = 1;
                r
            },
            ..Default::default()
        };
        match C2Verilog
            .synthesize(&Preparer::new(prog), entry, &opts)
            .expect("synthesizes")
        {
            Design::Fsmd(f) => f,
            _ => unreachable!(),
        }
    }

    const SUM: &str = "
        int f(int a[64], int n) {
            int s = 0;
            for (int i = 0; i < n; i++) s += a[i];
            return s;
        }
    ";

    #[test]
    fn pipelined_sum_is_correct_and_faster() {
        let plain = synth(SUM, "f", false);
        let piped = synth(SUM, "f", true);
        let args = [ArgValue::Array((1..=64).collect()), ArgValue::Scalar(64)];
        let rp = simulate(&plain, &args, 100_000).unwrap();
        let rq = simulate(&piped, &args, 100_000).unwrap();
        assert_eq!(rp.ret, Some(2080));
        assert_eq!(rq.ret, Some(2080));
        assert!(
            rq.cycles < rp.cycles,
            "pipelined {} vs plain {}",
            rq.cycles,
            rp.cycles
        );
        // II should be small: roughly n + overhead cycles total.
        assert!(rq.cycles <= 64 * 2 + 16, "cycles {}", rq.cycles);
    }

    #[test]
    fn pipelined_zero_trip_loop() {
        let piped = synth(SUM, "f", true);
        let r = simulate(
            &piped,
            &[ArgValue::Array(vec![0; 64]), ArgValue::Scalar(0)],
            1000,
        )
        .unwrap();
        assert_eq!(r.ret, Some(0));
    }

    #[test]
    fn pipelined_one_trip_loop() {
        let piped = synth(SUM, "f", true);
        let r = simulate(
            &piped,
            &[ArgValue::Array(vec![7; 64]), ArgValue::Scalar(1)],
            1000,
        )
        .unwrap();
        assert_eq!(r.ret, Some(7));
    }

    #[test]
    fn pipelined_stores_write_back() {
        let src = "
            void f(int a[32], int b[32], int n) {
                for (int i = 0; i < n; i++) b[i] = a[i] * 3 + 1;
            }
        ";
        let piped = synth(src, "f", true);
        let plain = synth(src, "f", false);
        let args = [
            ArgValue::Array((0..32).collect()),
            ArgValue::Array(vec![0; 32]),
            ArgValue::Scalar(32),
        ];
        let rq = simulate(&piped, &args, 100_000).unwrap();
        let rp = simulate(&plain, &args, 100_000).unwrap();
        let expect: Vec<i64> = (0..32).map(|i| i * 3 + 1).collect();
        assert_eq!(rq.mems[1], expect);
        assert_eq!(rp.mems[1], expect);
        assert!(rq.cycles < rp.cycles, "{} vs {}", rq.cycles, rp.cycles);
    }

    #[test]
    fn reentered_kernel_reseeds_late_latch_registers() {
        // A pipelined inner loop that runs repeatedly (one run per outer
        // iteration): the accumulator phi is read through its latch
        // register, which must be re-seeded on every entry — otherwise
        // run 2's iteration 0 starts from run 1's final value.
        let src = "
            const int coeff[8] = {1, 2, 3, 4, 4, 3, 2, 1};
            int f(int x[16], int n) {
                int s = 0;
                for (int m = 0; m < 2; m++) {
                    int acc = 0;
                    for (int k = 0; k < 8; k++) {
                        acc += coeff[k] * x[n + m - k];
                    }
                    s += acc >> 4;
                }
                return s;
            }
        ";
        let xs: Vec<i64> = (0..16).map(|i| (i * 7 + 3) % 50).collect();
        let golden: i64 = (0..2)
            .map(|m| {
                (0..8)
                    .map(|k| [1, 2, 3, 4, 4, 3, 2, 1][k as usize] * xs[(9 + m - k) as usize])
                    .sum::<i64>()
                    >> 4
            })
            .sum();
        let args = [ArgValue::Array(xs), ArgValue::Scalar(9)];
        let plain = synth(src, "f", false);
        let piped = synth(src, "f", true);
        let rp = simulate(&plain, &args, 100_000).unwrap();
        let rq = simulate(&piped, &args, 100_000).unwrap();
        assert_eq!(rp.ret, Some(golden));
        assert_eq!(rq.ret, Some(golden));
        assert!(rq.cycles < rp.cycles, "{} vs {}", rq.cycles, rp.cycles);
    }

    #[test]
    fn if_converted_branchy_loop_pipelines() {
        // The saturating-accumulate body contains nested conditionals;
        // if-conversion predicates them into Selects, after which the
        // loop modulo-schedules.
        let src = "
            int f(int a[16], int lo, int hi) {
                int acc = 0;
                for (int i = 0; i < 16; i++) {
                    int v = a[i];
                    if (v < lo) { v = lo; } else { if (v > hi) { v = hi; } }
                    acc = acc + v;
                }
                return acc;
            }
        ";
        let vals: Vec<i64> = vec![
            -9, 3, 120, 45, -1, 0, 200, 7, 99, 101, -50, 60, 33, 8, 150, 2,
        ];
        let golden: i64 = vals.iter().map(|&v| v.clamp(0, 100)).sum();
        let args = [
            ArgValue::Array(vals),
            ArgValue::Scalar(0),
            ArgValue::Scalar(100),
        ];
        let plain = synth(src, "f", false);
        let piped = synth(src, "f", true);
        let rp = simulate(&plain, &args, 100_000).unwrap();
        let rq = simulate(&piped, &args, 100_000).unwrap();
        assert_eq!(rp.ret, Some(golden));
        assert_eq!(rq.ret, Some(golden));
        assert!(rq.cycles < rp.cycles, "{} vs {}", rq.cycles, rp.cycles);
    }

    #[test]
    fn affine_disambiguation_pipelines_inplace_update() {
        // `a[i] = f(a[i])`: the carried store->load pair never aliases
        // across iterations (addresses differ by the stride), so the
        // pipeline need not serialize on it.
        let src = "
            void f(int a[32]) {
                for (int i = 0; i < 32; i++) a[i] = (a[i] * 5) >> 1;
            }
        ";
        let plain = synth(src, "f", false);
        let piped = synth(src, "f", true);
        let args = [ArgValue::Array((0..32).map(|i| i - 7).collect())];
        let rp = simulate(&plain, &args, 100_000).unwrap();
        let rq = simulate(&piped, &args, 100_000).unwrap();
        let expect: Vec<i64> = (0..32).map(|i| ((i - 7) * 5) >> 1).collect();
        assert_eq!(rp.mems[0], expect);
        assert_eq!(rq.mems[0], expect);
        assert!(rq.cycles < rp.cycles, "{} vs {}", rq.cycles, rp.cycles);
    }

    #[test]
    fn pipelined_design_emits_verilog() {
        // The pipelined kernel uses guarded actions and Cases dispatch;
        // the Verilog emitter must handle all of it.
        let piped = synth(SUM, "f", true);
        let v = chls_rtl::fsmd_to_verilog(&piped);
        assert!(v.contains("module f"), "{v}");
        assert!(v.contains("pipe"), "no pipeline registers emitted:\n{v}");
        assert!(v.contains("endmodule"), "{v}");
        // Balanced begin/end (a cheap structural sanity check).
        let begins = v.matches("begin").count();
        let ends = v.matches("end").count()
            - v.matches("endmodule").count()
            - v.matches("endcase").count();
        assert_eq!(begins, ends, "unbalanced begin/end:\n{v}");
    }

    #[test]
    fn irregular_loop_falls_back() {
        // GCD's recurrence cannot pipeline; result must still be correct.
        let src =
            "int f(int a, int b) { while (b != 0) { int t = b; b = a % b; a = t; } return a; }";
        let piped = synth(src, "f", true);
        let r = simulate(
            &piped,
            &[ArgValue::Scalar(48), ArgValue::Scalar(36)],
            10_000,
        )
        .unwrap();
        assert_eq!(r.ret, Some(12));
    }

    #[test]
    fn conformance_with_pipelining_enabled() {
        // The whole benchmark suite must still match the golden model with
        // pipelining switched on (pipelined or fallen back alike).
        for bench in chls_core_shim::benchmarks() {
            let prog = compile_to_hir(bench.0).expect("frontend ok");
            let opts = SynthOptions {
                pipeline_loops: true,
                ..Default::default()
            };
            let design = match C2Verilog.synthesize(&Preparer::new(prog), bench.1, &opts) {
                Ok(d) => d,
                Err(e) => panic!("c2v+pipeline refused {}: {e}", bench.1),
            };
            let Design::Fsmd(f) = design else {
                unreachable!()
            };
            let r =
                simulate(&f, &bench.2, 5_000_000).unwrap_or_else(|e| panic!("{}: {e}", bench.1));
            assert_eq!(r.ret, bench.3, "{} return mismatch", bench.1);
        }
    }

    /// Inline copies of a few benchmark kernels with expected results
    /// (chls-backends cannot depend on the chls facade crate).
    mod chls_core_shim {
        use chls_sim::interp::ArgValue;

        pub fn benchmarks() -> Vec<(&'static str, &'static str, Vec<ArgValue>, Option<i64>)> {
            vec![
                (
                    "int dot(int a[8], int b[8]) {
                        int s = 0;
                        for (int i = 0; i < 8; i++) s += a[i] * b[i];
                        return s;
                    }",
                    "dot",
                    vec![
                        ArgValue::Array(vec![1, 2, 3, 4, 5, 6, 7, 8]),
                        ArgValue::Array(vec![8, 7, 6, 5, 4, 3, 2, 1]),
                    ],
                    Some(120),
                ),
                (
                    "int fib(int n) {
                        int a = 0;
                        int b = 1;
                        for (int i = 0; i < n; i++) { int t = a + b; a = b; b = t; }
                        return a;
                    }",
                    "fib",
                    vec![ArgValue::Scalar(16)],
                    Some(987),
                ),
                (
                    "int maxv(int a[8]) {
                        int best = a[0];
                        for (int i = 1; i < 8; i++) { if (a[i] > best) best = a[i]; }
                        return best;
                    }",
                    "maxv",
                    vec![ArgValue::Array(vec![3, -1, 4, 1, -5, 9, 2, 6])],
                    Some(9),
                ),
                (
                    "int pc(int x) {
                        int c = 0;
                        for (int i = 0; i < 32; i++) c += (x >> i) & 1;
                        return c;
                    }",
                    "pc",
                    vec![ArgValue::Scalar(0x5A5A_5A5A)],
                    Some(16),
                ),
            ]
        }
    }
}

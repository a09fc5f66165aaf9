//! A reference executor for the IR.
//!
//! Used for three things:
//!
//! 1. validating HIR→IR lowering against the AST interpreter;
//! 2. providing the *dynamic instruction trace* consumed by the ILP-limit
//!    experiment (the paper's Wall citation): each executed instruction
//!    records which earlier trace entries it depends on, with perfect
//!    memory disambiguation by address;
//! 3. giving backends a golden result to compare their simulations against.

use crate::ir::*;
use std::collections::HashMap;
use std::fmt;

/// An argument bound to an entry-function parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// A scalar parameter value.
    Scalar(i64),
    /// Initial contents of an array parameter (padded/truncated to fit).
    Array(Vec<i64>),
}

/// Errors during execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// An array index was out of bounds.
    OutOfBounds {
        /// Memory name.
        mem: String,
        /// Offending index.
        index: i64,
        /// Memory length.
        len: usize,
    },
    /// The step limit was exceeded (probable infinite loop).
    StepLimit(u64),
    /// A parameter had no bound argument or the wrong kind.
    BadArgument(usize),
    /// The IR was malformed (e.g. fell off an `Unreachable` terminator).
    Malformed(&'static str),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::OutOfBounds { mem, index, len } => {
                write!(
                    f,
                    "index {index} out of bounds for memory `{mem}` (len {len})"
                )
            }
            ExecError::StepLimit(n) => write!(f, "exceeded step limit of {n} instructions"),
            ExecError::BadArgument(i) => write!(f, "missing or mistyped argument {i}"),
            ExecError::Malformed(m) => write!(f, "malformed IR: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// One entry of the dynamic trace: an executed instruction plus the trace
/// indices it depends on (data deps through values, memory deps by address).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// The instruction that executed.
    pub inst: Value,
    /// Indices of earlier [`TraceEntry`]s this one must follow.
    pub deps: Vec<u32>,
}

/// Result of executing a function.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecResult {
    /// Return value, if the function returns one.
    pub ret: Option<i64>,
    /// Final contents of every memory (by [`MemId`] index).
    pub mems: Vec<Vec<i64>>,
    /// Number of instructions executed.
    pub steps: u64,
    /// Dynamic dependence trace, when requested.
    pub trace: Vec<TraceEntry>,
}

/// Execution options.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Abort after this many executed instructions.
    pub step_limit: u64,
    /// Record the dynamic dependence trace (costs memory).
    pub record_trace: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            step_limit: 50_000_000,
            record_trace: false,
        }
    }
}

/// Executes `f` on `args` (indexed by source parameter position).
///
/// # Errors
///
/// Returns [`ExecError`] on out-of-bounds memory access, argument mismatch,
/// step-limit overrun, or malformed IR.
pub fn execute(
    f: &Function,
    args: &[ArgValue],
    opts: &ExecOptions,
) -> Result<ExecResult, ExecError> {
    // Bind memories.
    let mut mems: Vec<Vec<i64>> = Vec::with_capacity(f.mems.len());
    for m in &f.mems {
        let contents = match (&m.source, &m.rom) {
            (_, Some(rom)) => {
                let mut v = rom.clone();
                v.resize(m.len, 0);
                v
            }
            (MemSource::Param(i), None) => match args.get(*i) {
                Some(ArgValue::Array(a)) => {
                    let mut v = a.clone();
                    v.resize(m.len, 0);
                    v.iter_mut().for_each(|x| *x = m.elem.canonicalize(*x));
                    v
                }
                _ => return Err(ExecError::BadArgument(*i)),
            },
            (_, None) => vec![0; m.len],
        };
        mems.push(contents);
    }

    let mut values: Vec<i64> = vec![0; f.insts.len()];
    let mut steps: u64 = 0;
    let mut trace: Vec<TraceEntry> = Vec::new();
    // Trace bookkeeping: producing trace index per value, last store/load
    // per (mem, address).
    let mut def_entry: Vec<Option<u32>> = vec![None; f.insts.len()];
    let mut last_store: Vec<HashMap<i64, u32>> = vec![HashMap::new(); f.mems.len()];
    let mut last_load: Vec<HashMap<i64, Vec<u32>>> = vec![HashMap::new(); f.mems.len()];

    let mut block = f.entry;
    let mut prev: Option<BlockId> = None;

    loop {
        // Phase 1: evaluate phis simultaneously.
        let mut phi_updates: Vec<(Value, i64, Option<u32>)> = Vec::new();
        for &v in &f.block(block).insts {
            let inst = f.inst(v);
            if let InstKind::Phi(incoming) = &inst.kind {
                let p = prev.ok_or(ExecError::Malformed("phi in entry block"))?;
                let (_, src) = incoming
                    .iter()
                    .find(|(b, _)| *b == p)
                    .ok_or(ExecError::Malformed("phi missing predecessor entry"))?;
                phi_updates.push((v, values[src.0 as usize], def_entry[src.0 as usize]));
            } else {
                break;
            }
        }
        for (v, val, dep) in phi_updates {
            values[v.0 as usize] = val;
            def_entry[v.0 as usize] = dep;
        }

        // Phase 2: execute the body.
        for &v in &f.block(block).insts {
            let inst = f.inst(v);
            if matches!(inst.kind, InstKind::Phi(_)) {
                continue;
            }
            steps += 1;
            if steps > opts.step_limit {
                return Err(ExecError::StepLimit(opts.step_limit));
            }
            let mut deps: Vec<u32> = Vec::new();
            let dep_of = |val: Value, deps: &mut Vec<u32>| {
                if let Some(e) = def_entry[val.0 as usize] {
                    deps.push(e);
                }
            };
            let result: Option<i64> = match &inst.kind {
                InstKind::Param(i) => match args.get(*i) {
                    Some(ArgValue::Scalar(s)) => Some(inst.ty.canonicalize(*s)),
                    _ => return Err(ExecError::BadArgument(*i)),
                },
                InstKind::Const(c) => Some(inst.ty.canonicalize(*c)),
                InstKind::Bin(op, a, b) => {
                    if opts.record_trace {
                        dep_of(*a, &mut deps);
                        dep_of(*b, &mut deps);
                    }
                    // Comparisons use the operand type for signedness.
                    let ety = if op.is_comparison() {
                        f.inst(*a).ty
                    } else {
                        inst.ty
                    };
                    Some(eval_bin(
                        *op,
                        ety,
                        values[a.0 as usize],
                        values[b.0 as usize],
                    ))
                }
                InstKind::Un(op, a) => {
                    if opts.record_trace {
                        dep_of(*a, &mut deps);
                    }
                    Some(eval_un(*op, inst.ty, values[a.0 as usize]))
                }
                InstKind::Select { cond, t, f: fv } => {
                    if opts.record_trace {
                        dep_of(*cond, &mut deps);
                        dep_of(*t, &mut deps);
                        dep_of(*fv, &mut deps);
                    }
                    Some(if values[cond.0 as usize] != 0 {
                        values[t.0 as usize]
                    } else {
                        values[fv.0 as usize]
                    })
                }
                InstKind::Cast { from, val } => {
                    if opts.record_trace {
                        dep_of(*val, &mut deps);
                    }
                    Some(eval_cast(*from, inst.ty, values[val.0 as usize]))
                }
                InstKind::Load { mem, addr } => {
                    let idx = values[addr.0 as usize];
                    let m = &f.mems[mem.0 as usize];
                    let storage = &mems[mem.0 as usize];
                    if idx < 0 || idx as usize >= storage.len() {
                        return Err(ExecError::OutOfBounds {
                            mem: m.name.clone(),
                            index: idx,
                            len: storage.len(),
                        });
                    }
                    if opts.record_trace {
                        dep_of(*addr, &mut deps);
                        if let Some(&s) = last_store[mem.0 as usize].get(&idx) {
                            deps.push(s);
                        }
                        let entry_idx = trace.len() as u32;
                        last_load[mem.0 as usize]
                            .entry(idx)
                            .or_default()
                            .push(entry_idx);
                    }
                    Some(storage[idx as usize])
                }
                InstKind::Store { mem, addr, value } => {
                    let idx = values[addr.0 as usize];
                    let m = &f.mems[mem.0 as usize];
                    if idx < 0 || idx as usize >= mems[mem.0 as usize].len() {
                        return Err(ExecError::OutOfBounds {
                            mem: m.name.clone(),
                            index: idx,
                            len: mems[mem.0 as usize].len(),
                        });
                    }
                    if opts.record_trace {
                        dep_of(*addr, &mut deps);
                        dep_of(*value, &mut deps);
                        if let Some(&s) = last_store[mem.0 as usize].get(&idx) {
                            deps.push(s);
                        }
                        if let Some(loads) = last_load[mem.0 as usize].remove(&idx) {
                            deps.extend(loads);
                        }
                        let entry_idx = trace.len() as u32;
                        last_store[mem.0 as usize].insert(idx, entry_idx);
                    }
                    let canon = m.elem.canonicalize(values[value.0 as usize]);
                    mems[mem.0 as usize][idx as usize] = canon;
                    None
                }
                InstKind::Phi(_) => unreachable!("handled in phase 1"),
            };
            if opts.record_trace {
                // Constants and params are free and traced as having no
                // entry; everything else gets one.
                let free = matches!(inst.kind, InstKind::Const(_) | InstKind::Param(_));
                if !free {
                    deps.sort_unstable();
                    deps.dedup();
                    def_entry[v.0 as usize] = Some(trace.len() as u32);
                    trace.push(TraceEntry { inst: v, deps });
                } else {
                    def_entry[v.0 as usize] = None;
                }
            }
            if let Some(r) = result {
                values[v.0 as usize] = r;
            }
        }

        // Phase 3: follow the terminator.
        match &f.block(block).term {
            Term::Jump(b) => {
                prev = Some(block);
                block = *b;
            }
            Term::Br { cond, then, els } => {
                prev = Some(block);
                block = if values[cond.0 as usize] != 0 {
                    *then
                } else {
                    *els
                };
            }
            Term::Ret(v) => {
                return Ok(ExecResult {
                    ret: v.map(|v| values[v.0 as usize]),
                    mems,
                    steps,
                    trace,
                });
            }
            Term::Unreachable => return Err(ExecError::Malformed("reached Unreachable")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_function;
    use chls_frontend::compile_to_hir;

    fn run(src: &str, name: &str, args: &[ArgValue]) -> ExecResult {
        let hir = compile_to_hir(src).expect("frontend ok");
        let (id, _) = hir.func_by_name(name).expect("function exists");
        let f = lower_function(&hir, id).expect("lowering ok");
        execute(&f, args, &ExecOptions::default()).expect("execution ok")
    }

    #[test]
    fn arithmetic_expression() {
        let r = run(
            "int f(int a, int b) { return (a + b) * (a - b); }",
            "f",
            &[ArgValue::Scalar(7), ArgValue::Scalar(3)],
        );
        assert_eq!(r.ret, Some(40));
    }

    #[test]
    fn loop_sum() {
        let r = run(
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }",
            "f",
            &[ArgValue::Scalar(10)],
        );
        assert_eq!(r.ret, Some(45));
    }

    #[test]
    fn gcd_euclid() {
        let src = "int gcd(int a, int b) {
            while (b != 0) { int t = b; b = a % b; a = t; }
            return a;
        }";
        let r = run(src, "gcd", &[ArgValue::Scalar(48), ArgValue::Scalar(36)]);
        assert_eq!(r.ret, Some(12));
    }

    #[test]
    fn array_write_read() {
        let r = run(
            "int f(int a[4]) {
                for (int i = 0; i < 4; i++) a[i] = i * i;
                return a[3];
            }",
            "f",
            &[ArgValue::Array(vec![0; 4])],
        );
        assert_eq!(r.ret, Some(9));
        assert_eq!(r.mems[0], vec![0, 1, 4, 9]);
    }

    #[test]
    fn rom_lookup() {
        let r = run(
            "const int t[4] = {5, 6, 7, 8}; int f(int i) { return t[i]; }",
            "f",
            &[ArgValue::Scalar(2)],
        );
        assert_eq!(r.ret, Some(7));
    }

    #[test]
    fn narrow_types_wrap() {
        let r = run(
            "uint<8> f(uint<8> a) { return a + 200; }",
            "f",
            &[ArgValue::Scalar(100)],
        );
        assert_eq!(r.ret, Some(44));
    }

    #[test]
    fn signed_unsigned_comparison() {
        // In unsigned 8-bit, 255 > 1; in signed 8-bit, -1 < 1.
        let r = run(
            "bool f(uint<8> a) { return a > 1; }",
            "f",
            &[ArgValue::Scalar(255)],
        );
        assert_eq!(r.ret, Some(1));
        let r = run(
            "bool f(sint<8> a) { return a > 1; }",
            "f",
            &[ArgValue::Scalar(-1)],
        );
        assert_eq!(r.ret, Some(0));
    }

    #[test]
    fn out_of_bounds_detected() {
        let hir = compile_to_hir("int f(int a[4], int i) { return a[i]; }").unwrap();
        let (id, _) = hir.func_by_name("f").unwrap();
        let f = lower_function(&hir, id).unwrap();
        let err = execute(
            &f,
            &[ArgValue::Array(vec![0; 4]), ArgValue::Scalar(9)],
            &ExecOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::OutOfBounds { .. }));
    }

    #[test]
    fn step_limit_catches_infinite_loop() {
        let hir = compile_to_hir("void f() { while (true) { } }").unwrap();
        let (id, _) = hir.func_by_name("f").unwrap();
        let f = lower_function(&hir, id).unwrap();
        let err = execute(
            &f,
            &[],
            &ExecOptions {
                step_limit: 1000,
                record_trace: false,
            },
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::StepLimit(_)));
    }

    #[test]
    fn trace_records_dependences() {
        let hir = compile_to_hir("int f(int a, int b) { return (a + b) * (a - b); }").unwrap();
        let (id, _) = hir.func_by_name("f").unwrap();
        let f = lower_function(&hir, id).unwrap();
        let r = execute(
            &f,
            &[ArgValue::Scalar(2), ArgValue::Scalar(1)],
            &ExecOptions {
                record_trace: true,
                ..Default::default()
            },
        )
        .unwrap();
        // add, sub, mul: three entries; mul depends on both.
        assert_eq!(r.trace.len(), 3);
        assert_eq!(r.trace[2].deps, vec![0, 1]);
        // add and sub are independent (ILP of 2 available).
        assert!(r.trace[0].deps.is_empty());
        assert!(r.trace[1].deps.is_empty());
    }

    #[test]
    fn trace_memory_dependences_by_address() {
        let src = "int f(int a[4]) {
            a[0] = 1;
            a[1] = 2;
            return a[0];
        }";
        let hir = compile_to_hir(src).unwrap();
        let (id, _) = hir.func_by_name("f").unwrap();
        let f = lower_function(&hir, id).unwrap();
        let r = execute(
            &f,
            &[ArgValue::Array(vec![0; 4])],
            &ExecOptions {
                record_trace: true,
                ..Default::default()
            },
        )
        .unwrap();
        // Entries: store a[0], store a[1], load a[0].
        assert_eq!(r.trace.len(), 3);
        // The load depends on the store to a[0] (entry 0) but NOT on the
        // store to a[1] (perfect disambiguation).
        assert_eq!(r.trace[2].deps, vec![0]);
    }

    #[test]
    fn mems_returned_for_inout_arrays() {
        let r = run(
            "void f(int a[3]) { a[0] = 10; a[2] = 30; }",
            "f",
            &[ArgValue::Array(vec![1, 2, 3])],
        );
        assert_eq!(r.ret, None);
        assert_eq!(r.mems[0], vec![10, 2, 30]);
    }
}

//! Differential tests: the JIT and the tape interpreter must agree bit
//! for bit — return value, cycle count, final registers, and final
//! memory contents — on real synthesized designs.
//!
//! These tests compile CHL sources with the `c2v` backend (the FSMD
//! reference path), plus hand-built FSMDs, and run each design
//! through both engines. On hosts where JIT execution is unavailable
//! the tests pass trivially.
//!
//! The tests that compile take one lock, so the page-pool test's look
//! at the process's mappings sees no other test's live programs.

use chls_backends::{Backend, C2Verilog, SynthOptions};
use chls_frontend::IntType;
use chls_ir::BinKind;
use chls_jit::JitProgram;
use chls_rtl::builder::FsmdBuilder;
use chls_rtl::fsmd::{Fsmd, Rv};
use chls_sim::fsmd_sim::{self, FsmdSimError, FsmdSimResult};
use chls_sim::interp::ArgValue;
use chls_sim::tape;
use std::sync::{Mutex, MutexGuard};

const MAX_CYCLES: u64 = 5_000_000;

static JIT: Mutex<()> = Mutex::new(());

/// Runs the calling test alone among this file's tests.
fn serial() -> MutexGuard<'static, ()> {
    JIT.lock().unwrap_or_else(|e| e.into_inner())
}

fn synth(src: &str, entry: &str) -> Fsmd {
    let hir = chls_frontend::compile_to_hir(src).expect("frontend");
    let design = C2Verilog
        .synthesize(
            &chls_backends::Preparer::new(hir),
            entry,
            &SynthOptions::default(),
        )
        .expect("synthesizes");
    design.as_fsmd().expect("c2v produces an FSMD").clone()
}

/// Runs both engines and asserts bit-exact agreement; returns the JIT
/// fallback count for callers that gate on it.
fn differential(f: &Fsmd, args: &[ArgValue], force_fallback: bool) -> Option<u64> {
    let Some(prog) = JitProgram::compile_with(f, force_fallback) else {
        assert!(
            !chls_jit::available(),
            "compile_with returned None on a JIT-capable host"
        );
        return None;
    };
    let jit = prog.run_counted(args, MAX_CYCLES);
    let interp = fsmd_sim::simulate(f, args, MAX_CYCLES);
    match (jit, interp) {
        (Ok((j, fallbacks)), Ok(i)) => {
            assert_eq!(j.ret, i.ret, "return value diverged");
            assert_eq!(j.cycles, i.cycles, "cycle count diverged");
            assert_eq!(j.regs, i.regs, "final registers diverged");
            assert_eq!(j.mems, i.mems, "final memories diverged");
            Some(fallbacks)
        }
        (Err(je), Err(ie)) => {
            assert_eq!(je, ie, "errors diverged");
            Some(0)
        }
        (j, i) => panic!("one engine failed, the other did not: jit={j:?} interp={i:?}"),
    }
}

#[test]
fn gcd_agrees_and_never_falls_back() {
    let _serial = serial();
    let f = synth(
        "int gcd(int a, int b) { while (a != b) { if (a > b) { a = a - b; } else { b = b - a; } } return a; }",
        "gcd",
    );
    for (a, b) in [(1071, 462), (17, 5), (1, 1), (1000000, 1), (13, 13)] {
        let args = [ArgValue::Scalar(a), ArgValue::Scalar(b)];
        if let Some(fb) = differential(&f, &args, false) {
            assert_eq!(fb, 0, "straight-line design must not fall back");
        }
    }
}

#[test]
fn crc_shift_xor_agrees() {
    let _serial = serial();
    let f = synth(
        "int crc8(int data[8], int n) {
            int crc = 255;
            for (int i = 0; i < n; i = i + 1) {
                crc = crc ^ data[i];
                for (int k = 0; k < 8; k = k + 1) {
                    if ((crc & 1) != 0) { crc = (crc >> 1) ^ 140; }
                    else { crc = crc >> 1; }
                }
            }
            return crc & 255;
        }",
        "crc8",
    );
    let args = [
        ArgValue::Array(vec![0x31, 0x32, 0x33, 0x34, 0x35, 0x36, 0x37, 0x38]),
        ArgValue::Scalar(8),
    ];
    if let Some(fb) = differential(&f, &args, false) {
        assert_eq!(fb, 0, "straight-line design must not fall back");
    }
}

#[test]
fn memory_writes_agree() {
    let _serial = serial();
    let f = synth(
        "void rev(int a[8], int out[8]) {
            for (int i = 0; i < 8; i = i + 1) { out[7 - i] = a[i] * 3 - 1; }
        }",
        "rev",
    );
    let args = [
        ArgValue::Array(vec![42, -7, 99, 0, 15, -63, 20, 1]),
        ArgValue::Array(vec![0; 8]),
    ];
    differential(&f, &args, false);
}

#[test]
fn division_and_dynamic_shifts_agree() {
    let _serial = serial();
    let f = synth(
        "int mix(int a, int b) {
            int q = a / (b | 1);
            int r = a % (b | 1);
            int s = a >> (b & 31);
            int t = a << (b & 31);
            return q ^ r ^ s ^ t;
        }",
        "mix",
    );
    for (a, b) in [
        (100, 7),
        (-100, 7),
        (100, -7),
        (i64::from(i32::MIN), -1),
        (0, 0),
        (7, 64),
    ] {
        differential(&f, &[ArgValue::Scalar(a), ArgValue::Scalar(b)], false);
    }
}

#[test]
fn forced_fallback_matches_native() {
    let _serial = serial();
    // The same design through the all-native path and the all-fallback
    // path: the native↔interpreter handoff must be invisible.
    let f = synth(
        "int sum(int a[8]) {
            int s = 0;
            for (int i = 0; i < 8; i = i + 1) { s = s + a[i]; }
            return s;
        }",
        "sum",
    );
    let args = [ArgValue::Array(vec![1, -2, 3, -4, 5, -6, 7, -8])];
    differential(&f, &args, false);
    if let Some(fb) = differential(&f, &args, true) {
        assert!(fb > 0, "forced fallback must route through the interpreter");
    }
    // And the two JIT configurations agree with each other.
    if let (Some(native), Some(forced)) =
        (JitProgram::compile(&f), JitProgram::compile_with(&f, true))
    {
        let a = native.run(&args, MAX_CYCLES).expect("native runs");
        let b = forced.run(&args, MAX_CYCLES).expect("fallback runs");
        assert_eq!(a, b);
    }
}

/// A hand-built MAC/hash loop of `n` cycles: per cycle one memory read,
/// one memory write, three register transfers, a shift and masks — a
/// shape no frontend emits in one state.
fn mac_fsmd(n: u64) -> Fsmd {
    let ty = IntType::new(32, true);
    let mut b = FsmdBuilder::new("mac");
    let mem = b.mem("buf", ty, 256);
    let i = b.reg("i", ty, 0);
    let acc = b.reg("acc", ty, 1);
    let s_loop = b.state();
    let s_done = b.state();
    let idx = Rv::bin(BinKind::And, ty, b.get(i), b.konst(255, ty));
    let v = b.read(mem, idx.clone());
    let scale = Rv::bin(BinKind::And, ty, b.get(i), b.konst(15, ty));
    let shifted = Rv::bin(BinKind::Shr, ty, b.get(acc), b.konst(3, ty));
    let acc_next = b.add(b.add(b.get(acc), b.mul(v.clone(), scale)), shifted);
    let stored = Rv::bin(BinKind::Xor, ty, acc_next.clone(), v);
    let done = b.eq(b.get(i), b.konst(n as i64 - 1, ty));
    let i_next = b.add(b.get(i), b.konst(1, ty));
    b.at(s_loop)
        .set(acc, acc_next)
        .write(mem, idx, stored)
        .set(i, i_next)
        .branch(done, s_done, s_loop);
    b.at(s_done).done();
    let ret = b.get(acc);
    b.returning(ret).finish()
}

#[test]
fn hand_built_mac_agrees_native_and_fallback() {
    let _serial = serial();
    const CYCLES: u64 = 4_096;
    let f = mac_fsmd(CYCLES);
    if let Some(fb) = differential(&f, &[], false) {
        assert_eq!(fb, 0, "straight-line design must not fall back");
    }
    if let Some(fb) = differential(&f, &[], true) {
        assert!(fb > 0, "forced fallback must route through the interpreter");
    }
    let r = fsmd_sim::simulate(&f, &[], MAX_CYCLES).expect("interp");
    assert_eq!(
        r.cycles,
        CYCLES + 1,
        "one cycle per iteration plus the done state"
    );
}

#[test]
fn out_of_bounds_traps_identically() {
    let _serial = serial();
    let f = synth("int peek(int a[8], int i) { return a[i]; }", "peek");
    for idx in [8, 100, -1, -100] {
        let args = [ArgValue::Array(vec![5; 8]), ArgValue::Scalar(idx)];
        differential(&f, &args, false);
    }
}

/// Traps in states that write a register in place before the faulting
/// access, whose address the preamble computed from the register's old
/// value. Running the state again from the written slots would compute
/// another address, so the error must come from the access itself.
#[test]
fn traps_report_the_access_after_in_place_writes() {
    let _serial = serial();
    let ty = IntType::new(32, true);
    let oob = |mem: &str, addr, len| FsmdSimError::OutOfBounds {
        mem: mem.into(),
        addr,
        len,
    };

    // `r <- 0` commits in place; the read's address is the old `r + 1`.
    let mut b = FsmdBuilder::new("read_after_write");
    let buf = b.mem("buf", ty, 4);
    let r = b.reg("r", ty, 9);
    let q = b.reg("q", ty, 0);
    let s0 = b.state();
    let (zero, at) = (b.konst(0, ty), b.add(b.get(r), b.konst(1, ty)));
    let rd = b.read(buf, at);
    b.at(s0).set(r, zero).set(q, rd).done();
    let read = (b.finish(), oob("buf", 10, 4));

    // Reads of two memories in one state; the first is in range, the
    // second traps.
    let mut b = FsmdBuilder::new("second_read");
    let a = b.mem("a", ty, 4);
    let c = b.mem("c", ty, 2);
    let r = b.reg("r", ty, 1);
    let (q, p) = (b.reg("q", ty, 0), b.reg("p", ty, 0));
    let s0 = b.state();
    let zero = b.konst(0, ty);
    let ra = b.read(a, b.add(b.get(r), b.konst(1, ty)));
    let rc = b.read(c, b.add(b.get(r), b.konst(2, ty)));
    b.at(s0).set(r, zero).set(q, ra).set(p, rc).done();
    let second = (b.finish(), oob("c", 3, 2));

    // A memory write whose address traps.
    let mut b = FsmdBuilder::new("write_after_write");
    let buf = b.mem("buf", ty, 4);
    let r = b.reg("r", ty, 9);
    let s0 = b.state();
    let (zero, at) = (b.konst(0, ty), b.add(b.get(r), b.konst(1, ty)));
    let val = b.konst(5, ty);
    b.at(s0).set(r, zero).write(buf, at, val).done();
    let write = (b.finish(), oob("buf", 10, 4));

    for (f, want) in [read, second, write] {
        let want = Err(want);
        assert_eq!(fsmd_sim::simulate(&f, &[], MAX_CYCLES), want, "{}", f.name);
        let staged = fsmd_sim::run(&f, &tape::compile_staged(&f), &[], MAX_CYCLES);
        assert_eq!(staged, want, "{}", f.name);
        differential(&f, &[], false);
        differential(&f, &[], true);
    }
}

#[test]
fn cycle_limit_reported_identically() {
    let _serial = serial();
    let f = synth(
        "int spin(int n) { int i = 0; while (n != 0) { i = i + 1; } return i; }",
        "spin",
    );
    let args = [ArgValue::Scalar(1)];
    let Some(prog) = JitProgram::compile(&f) else {
        return;
    };
    let jit = prog.run(&args, 10_000);
    let interp = fsmd_sim::simulate(&f, &args, 10_000);
    assert!(jit.is_err() && interp.is_err());
    assert_eq!(jit.unwrap_err(), interp.unwrap_err());
}

#[test]
fn concurrent_runs_share_one_program() {
    let _serial = serial();
    let f = synth(
        "int gcd(int a, int b) { while (a != b) { if (a > b) { a = a - b; } else { b = b - a; } } return a; }",
        "gcd",
    );
    let Some(prog) = JitProgram::compile(&f) else {
        return;
    };
    let prog = std::sync::Arc::new(prog);
    let golden = fsmd_sim::simulate(
        &f,
        &[ArgValue::Scalar(1071), ArgValue::Scalar(462)],
        MAX_CYCLES,
    )
    .expect("interp");
    std::thread::scope(|s| {
        for t in 0..8 {
            let prog = std::sync::Arc::clone(&prog);
            let golden = golden.clone();
            s.spawn(move || {
                for _ in 0..50 {
                    let r = prog
                        .run(&[ArgValue::Scalar(1071), ArgValue::Scalar(462)], MAX_CYCLES)
                        .unwrap_or_else(|e| panic!("thread {t}: {e}"));
                    assert_eq!(r, golden);
                }
            });
        }
    });
}

/// One registry kernel on one backend: its FSMD, arguments, the
/// interpreter's result and the size of its machine code.
struct Kernel {
    label: String,
    f: Fsmd,
    args: Vec<ArgValue>,
    golden: Result<FsmdSimResult, FsmdSimError>,
    bytes: usize,
}

/// Every registry kernel on every backend that makes an FSMD, largest
/// machine code first.
fn registry_kernels() -> Vec<Kernel> {
    let mut out = Vec::new();
    for bench in chls::benchmarks() {
        let compiler = chls::Compiler::parse(bench.source).expect("registry kernel parses");
        for b in &chls::backends() {
            let Ok(chls::Design::Fsmd(f)) =
                compiler.synthesize(b.as_ref(), bench.entry, &chls::SynthOptions::default())
            else {
                continue;
            };
            let golden = fsmd_sim::simulate(&f, &bench.args, MAX_CYCLES);
            let bytes = JitProgram::compile(&f)
                .expect("a JIT-capable host compiles")
                .bytes;
            out.push(Kernel {
                label: format!("{} on {}", bench.name, b.info().name),
                f,
                args: bench.args.clone(),
                golden,
                bytes,
            });
        }
    }
    out.sort_by_key(|k| std::cmp::Reverse(k.bytes));
    out
}

/// Round `r`'s order: largest and smallest alternating, so a small
/// design follows a large one and the reverse; odd rounds run it
/// backwards.
fn round_order(n: usize, r: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n.div_ceil(2))
        .flat_map(|k| [k, n - 1 - k])
        .take(n)
        .collect();
    order.dedup();
    if r % 2 == 1 {
        order.reverse();
    }
    order
}

/// Compiles, runs and checks one kernel; returns the program so the
/// caller decides when its pages go back to the pool.
fn compile_and_check(k: &Kernel) -> JitProgram<'_> {
    let p = JitProgram::compile(&k.f).expect("a JIT-capable host compiles");
    let got = p.run(&k.args, MAX_CYCLES);
    assert!(
        got == k.golden,
        "{}: JIT {got:?} != interpreter {:?}",
        k.label,
        k.golden
    );
    p
}

/// `(rwx mappings, anonymous r-x mappings)` in this process. Adjacent
/// anonymous mappings with equal permissions show as one line, so the
/// second count never exceeds the number of such mappings.
fn exec_mappings() -> (usize, usize) {
    let maps = std::fs::read_to_string("/proc/self/maps").expect("/proc/self/maps is readable");
    let (mut rwx, mut anon_rx) = (0, 0);
    for line in maps.lines() {
        let mut fields = line.split_whitespace();
        let perms = fields.nth(1).unwrap_or("");
        let path = fields.nth(3);
        rwx += usize::from(perms.starts_with("rwx"));
        anon_rx += usize::from(perms == "r-xp" && path.is_none());
    }
    (rwx, anon_rx)
}

/// After every program has dropped, the only executable anonymous
/// mappings left are pooled ones, and no mapping is ever writable and
/// executable at once.
fn assert_pool_bounded(when: &str) {
    let (rwx, anon_rx) = exec_mappings();
    assert_eq!(rwx, 0, "{when}: a mapping is writable and executable");
    assert!(
        chls_jit::pooled_mappings() <= chls_jit::POOL_MAPPINGS,
        "{when}: the pool holds {} mappings",
        chls_jit::pooled_mappings()
    );
    assert!(
        anon_rx <= chls_jit::POOL_MAPPINGS,
        "{when}: {anon_rx} executable anonymous mappings with no live program"
    );
}

#[test]
fn pooled_pages_stay_bit_exact_and_bounded_on_one_thread() {
    let _serial = serial();
    if !chls_jit::available() {
        return;
    }
    let kernels = registry_kernels();
    // The design that last ran from each mapping, to see that pages move
    // both from larger designs to smaller ones and the reverse.
    let mut last_user: std::collections::BTreeMap<usize, usize> = Default::default();
    let (mut to_smaller, mut to_larger) = (0usize, 0usize);
    for round in 0..200 {
        // Keep the last 0, 1 or 3 programs alive, so the pool is
        // sometimes short of small mappings and a small design takes a
        // large one; every fourth round keeps them all, so dropping them
        // offers the pool far more mappings than it may keep.
        let keep = [0, 1, 3, usize::MAX][round % 4];
        let mut live = std::collections::VecDeque::new();
        for i in round_order(kernels.len(), round) {
            let p = compile_and_check(&kernels[i]);
            let addr = p.code().as_ptr() as usize;
            if let Some(&prev) = last_user.get(&addr) {
                to_smaller += usize::from(kernels[prev].bytes > p.bytes);
                to_larger += usize::from(kernels[prev].bytes < p.bytes);
            }
            last_user.insert(addr, i);
            live.push_back(p);
            if live.len() > keep {
                live.pop_front();
            }
        }
        drop(live);
        assert_pool_bounded(&format!("round {round}"));
    }
    assert!(
        to_smaller > 0,
        "no small design ran from a larger design's pages"
    );
    assert!(
        to_larger > 0,
        "no large design ran from a smaller design's pages"
    );
}

#[test]
fn pooled_pages_stay_bit_exact_and_bounded_on_eight_threads() {
    let _serial = serial();
    if !chls_jit::available() {
        return;
    }
    let kernels = registry_kernels();
    // 200 rounds in all, 25 per thread, each thread starting at its own
    // offset so the threads' sizes interleave.
    std::thread::scope(|s| {
        for t in 0..8 {
            let kernels = &kernels;
            s.spawn(move || {
                for round in 0..25 {
                    let order = round_order(kernels.len(), round + t);
                    for k in order.iter().cycle().skip(t * 3).take(order.len()) {
                        drop(compile_and_check(&kernels[*k]));
                    }
                    let (rwx, _) = exec_mappings();
                    assert_eq!(
                        rwx, 0,
                        "thread {t} round {round}: a writable and executable mapping"
                    );
                }
            });
        }
    });
    assert_pool_bounded("after eight threads");
}

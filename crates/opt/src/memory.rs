//! Memory-layout lowering: the monolithic-memory model and bank splitting.
//!
//! Arrays marked `#pragma memory monolithic` (and the pointer pass's
//! heaps) model C's undifferentiated memory: they are merged — per
//! element type — into one shared memory whose single port every access
//! contends for. This pass performs the merge on the IR, rebasing every
//! load/store address.
//!
//! Arrays marked `#pragma memory bank(K)` go the other way: element `i`
//! lives in bank `i % K`, giving the scheduler `K` independently-ported
//! memories. Splitting requires every access's bank to be *statically*
//! resolvable — a constant index, or an index that is affine in an
//! induction variable whose initial value is a known constant and whose
//! strides are all multiples of `K` (the shape full/partial unrolling
//! produces). Arrays with any dynamically-banked access are left whole,
//! exactly as a real HLS tool would warn and fall back.

use chls_frontend::hir::MemBank;
use chls_frontend::IntType;
use chls_ir::ir::*;
use std::collections::HashMap;

/// Merges all monolithic-marked, non-parameter memories of equal element
/// type into one. Returns how many memories were merged away.
pub fn merge_monolithic(f: &mut Function) -> usize {
    let _span = chls_trace::span("opt.memory");
    // Candidate groups by element type.
    let mut groups: HashMap<IntType, Vec<MemId>> = HashMap::new();
    for (mi, m) in f.mems.iter().enumerate() {
        let is_param = matches!(m.source, MemSource::Param(_));
        if m.bank == MemBank::Monolithic && !is_param {
            groups.entry(m.elem).or_default().push(MemId(mi as u32));
        }
    }
    // HashMap iteration order is randomized per process; merge order
    // decides base offsets (and so downstream addresses, schedules, and
    // areas), so it must be deterministic.
    let mut groups: Vec<(IntType, Vec<MemId>)> = groups.into_iter().collect();
    groups.sort_by_key(|(t, _)| (t.width, t.signed));
    let mut merged = 0;
    for (elem, members) in groups {
        if members.len() < 2 {
            continue;
        }
        // Layout.
        let mut base: HashMap<MemId, i64> = HashMap::new();
        let mut total = 0usize;
        let mut init: Vec<i64> = Vec::new();
        let mut any_rom_data = false;
        for &m in &members {
            base.insert(m, total as i64);
            let info = f.mem(m);
            match &info.rom {
                Some(rom) => {
                    any_rom_data = true;
                    init.extend(rom.iter().copied());
                    init.resize(total + info.len, 0);
                }
                None => init.resize(total + info.len, 0),
            }
            total += info.len;
        }
        let all_rom = members
            .iter()
            .all(|&m| matches!(f.mem(m).source, MemSource::Rom));
        let mono = f.add_mem(MemInfo {
            name: format!("$mono${elem}"),
            elem,
            len: total.max(1),
            rom: if any_rom_data { Some(init) } else { None },
            bank: MemBank::Monolithic,
            source: if all_rom {
                MemSource::Rom
            } else {
                MemSource::Local
            },
        });
        // Rewrite accesses: addr' = addr + base(mem).
        for bi in 0..f.blocks.len() {
            let block_insts = f.blocks[bi].insts.clone();
            for &v in &block_insts {
                let inst = f.inst(v).clone();
                let (mem, addr) = match &inst.kind {
                    InstKind::Load { mem, addr } => (*mem, *addr),
                    InstKind::Store { mem, addr, .. } => (*mem, *addr),
                    _ => continue,
                };
                let Some(&b) = base.get(&mem) else { continue };
                // Insert base-add instructions just before the access.
                let addr_ty = f.inst(addr).ty;
                let pos = f.blocks[bi]
                    .insts
                    .iter()
                    .position(|&x| x == v)
                    .expect("inst is in its block");
                let cbase = Value(f.insts.len() as u32);
                f.insts.push(InstData {
                    kind: InstKind::Const(b),
                    ty: addr_ty,
                    block: BlockId(bi as u32),
                });
                let sum = Value(f.insts.len() as u32);
                f.insts.push(InstData {
                    kind: InstKind::Bin(BinKind::Add, addr, cbase),
                    ty: addr_ty,
                    block: BlockId(bi as u32),
                });
                f.blocks[bi].insts.insert(pos, sum);
                f.blocks[bi].insts.insert(pos, cbase);
                match &mut f.inst_mut(v).kind {
                    InstKind::Load { mem, addr } => {
                        *mem = mono;
                        *addr = sum;
                    }
                    InstKind::Store { mem, addr, .. } => {
                        *mem = mono;
                        *addr = sum;
                    }
                    _ => unreachable!(),
                }
            }
        }
        // Neutralize merged members (len 0 keeps MemIds stable; no access
        // refers to them any more).
        for &m in &members {
            let info = &mut f.mems[m.0 as usize];
            info.len = 0;
            info.rom = None;
            merged += 1;
        }
    }
    merged
}

/// The statically-known residue of `v` modulo `k`: constants directly;
/// phis when every incoming value is either a constant with the same
/// residue or an affine step of the phi itself by a multiple of `k`.
fn residue_mod(f: &Function, v: Value, k: i64) -> Option<i64> {
    match &f.inst(v).kind {
        InstKind::Const(c) => Some(c.rem_euclid(k)),
        InstKind::Phi(args) => {
            let mut res: Option<i64> = None;
            for (_, a) in args {
                match &f.inst(*a).kind {
                    InstKind::Const(c) => {
                        let r = c.rem_euclid(k);
                        if *res.get_or_insert(r) != r {
                            return None;
                        }
                    }
                    _ => match crate::dep::affine_offset(f, *a, v) {
                        Some(d) if d.rem_euclid(k) == 0 => {}
                        _ => return None,
                    },
                }
            }
            res
        }
        _ => None,
    }
}

/// The bank (`addr % k`) of an access, when statically provable.
fn static_bank(f: &Function, addr: Value, k: i64) -> Option<i64> {
    if let InstKind::Const(c) = &f.inst(addr).kind {
        return Some(c.rem_euclid(k));
    }
    // Affine in some phi with a known residue.
    for (i, inst) in f.insts.iter().enumerate() {
        if !matches!(inst.kind, InstKind::Phi(_)) {
            continue;
        }
        let p = Value(i as u32);
        if let Some(off) = crate::dep::affine_offset(f, addr, p) {
            if let Some(r) = residue_mod(f, p, k) {
                return Some((r + off).rem_euclid(k));
            }
        }
    }
    None
}

/// Splits every `#pragma memory bank(K)` array whose accesses all have
/// statically-resolvable banks into `K` independent memories (element `i`
/// at index `i / K` of bank `i % K`). `K` must be a power of two (the
/// index becomes a shift). Returns how many arrays were split; arrays
/// with a dynamic access, a non-power-of-two `K`, or parameter sourcing
/// are left whole.
pub fn split_banks(f: &mut Function) -> usize {
    let _span = chls_trace::span("opt.memory");
    let mut split = 0;
    for mi in 0..f.mems.len() {
        let m = &f.mems[mi];
        let MemBank::Banked(k) = m.bank else { continue };
        let k = k as usize;
        if k < 2 || !k.is_power_of_two() || matches!(m.source, MemSource::Param(_)) || m.len == 0 {
            continue;
        }
        let shift = k.trailing_zeros() as i64;
        let mem_id = MemId(mi as u32);
        // Resolve the bank of every access; any failure leaves the array
        // whole.
        let mut plan: Vec<(Value, usize)> = Vec::new();
        let mut resolvable = true;
        for (vi, inst) in f.insts.iter().enumerate() {
            let addr = match &inst.kind {
                InstKind::Load { mem, addr } if *mem == mem_id => *addr,
                InstKind::Store { mem, addr, .. } if *mem == mem_id => *addr,
                _ => continue,
            };
            match static_bank(f, addr, k as i64) {
                Some(b) => plan.push((Value(vi as u32), b as usize)),
                None => {
                    resolvable = false;
                    break;
                }
            }
        }
        if !resolvable {
            continue;
        }
        // Create the banks: bank b holds elements b, b+K, b+2K, ...
        let (name, elem, len, rom, source) = {
            let m = f.mem(mem_id);
            (
                m.name.clone(),
                m.elem,
                m.len,
                m.rom.clone(),
                m.source.clone(),
            )
        };
        let banks: Vec<MemId> = (0..k)
            .map(|b| {
                let count = (len + k - 1 - b) / k;
                let bank_rom = rom.as_ref().map(|data| {
                    data.iter()
                        .skip(b)
                        .step_by(k)
                        .copied()
                        .collect::<Vec<i64>>()
                });
                f.add_mem(MemInfo {
                    name: format!("{name}#b{b}"),
                    elem,
                    len: count.max(1),
                    rom: bank_rom,
                    bank: MemBank::Auto,
                    source: source.clone(),
                })
            })
            .collect();
        // Rewrite accesses: mem -> bank, addr -> addr >> log2(K).
        for (v, b) in plan {
            let addr = match &f.inst(v).kind {
                InstKind::Load { addr, .. } => *addr,
                InstKind::Store { addr, .. } => *addr,
                _ => unreachable!("planned access is a load/store"),
            };
            let bi = f.inst(v).block;
            let addr_ty = f.inst(addr).ty;
            let pos = f.blocks[bi.0 as usize]
                .insts
                .iter()
                .position(|&x| x == v)
                .expect("inst is in its block");
            let csh = Value(f.insts.len() as u32);
            f.insts.push(InstData {
                kind: InstKind::Const(shift),
                ty: addr_ty,
                block: bi,
            });
            let idx = Value(f.insts.len() as u32);
            f.insts.push(InstData {
                kind: InstKind::Bin(BinKind::Shr, addr, csh),
                ty: addr_ty,
                block: bi,
            });
            f.blocks[bi.0 as usize].insts.insert(pos, idx);
            f.blocks[bi.0 as usize].insts.insert(pos, csh);
            match &mut f.inst_mut(v).kind {
                InstKind::Load { mem, addr } => {
                    *mem = banks[b];
                    *addr = idx;
                }
                InstKind::Store { mem, addr, .. } => {
                    *mem = banks[b];
                    *addr = idx;
                }
                _ => unreachable!(),
            }
        }
        // Neutralize the original array.
        let info = &mut f.mems[mi];
        info.len = 0;
        info.rom = None;
        split += 1;
    }
    split
}

#[cfg(test)]
mod tests {
    use super::*;
    use chls_frontend::compile_to_hir;
    use chls_ir::exec::{execute, ArgValue, ExecOptions};

    fn lowered(src: &str) -> Function {
        let hir = compile_to_hir(src).expect("parses");
        let (id, _) = hir.func_by_name("f").expect("exists");
        let prog = crate::inline::inline_program(&hir, id).expect("inlines");
        chls_ir::lower_function(&prog, chls_frontend::hir::FuncId(0)).expect("lowers")
    }

    fn live_mems(f: &Function) -> Vec<String> {
        f.mems
            .iter()
            .filter(|m| m.len > 0)
            .map(|m| m.name.clone())
            .collect()
    }

    #[test]
    fn const_indices_split_into_banks() {
        let mut f = lowered(
            "int f() {
                #pragma memory bank(2)
                int a[4];
                a[0] = 10; a[1] = 20; a[2] = 30; a[3] = 40;
                return a[0] + a[1] * a[3] - a[2];
            }",
        );
        assert_eq!(split_banks(&mut f), 1);
        let names = live_mems(&f);
        assert_eq!(names.len(), 2, "{names:?}");
        assert!(names.iter().all(|n| n.contains("#b")), "{names:?}");
        let r = execute(&f, &[], &ExecOptions::default()).unwrap();
        assert_eq!(r.ret, Some(10 + 20 * 40 - 30));
    }

    #[test]
    fn unrolled_strided_loop_splits() {
        // After full unrolling the inner accesses are `i` and `i+1` with
        // `i` stepping by 2 from 0 — bank 0 and bank 1, statically.
        let mut f = lowered(
            "int f(int n) {
                #pragma memory bank(2)
                int a[8];
                for (int i = 0; i < 8; i += 2) {
                    a[i] = i * 3;
                    a[i + 1] = i * 3 + 1;
                }
                int s = 0;
                for (int j = 0; j < 8; j += 2) {
                    s += a[j] - a[j + 1];
                }
                return s + n;
            }",
        );
        crate::simplify::simplify(&mut f);
        assert_eq!(split_banks(&mut f), 1);
        let r = execute(&f, &[ArgValue::Scalar(5)], &ExecOptions::default()).unwrap();
        // Each pair contributes (3i) - (3i+1) = -1; four pairs.
        assert_eq!(r.ret, Some(-4 + 5));
    }

    #[test]
    fn dynamic_index_leaves_array_whole() {
        let mut f = lowered(
            "int f(int k) {
                #pragma memory bank(2)
                int a[4];
                for (int i = 0; i < 4; i++) a[i] = i;
                return a[k];
            }",
        );
        // `a[k]` has no static bank; unit-stride `a[i]` does not either.
        assert_eq!(split_banks(&mut f), 0);
        let r = execute(&f, &[ArgValue::Scalar(3)], &ExecOptions::default()).unwrap();
        assert_eq!(r.ret, Some(3));
    }

    #[test]
    fn non_power_of_two_bank_count_left_whole() {
        let mut f = lowered(
            "int f() {
                #pragma memory bank(3)
                int a[6];
                a[0] = 1;
                return a[0];
            }",
        );
        assert_eq!(split_banks(&mut f), 0);
        let r = execute(&f, &[], &ExecOptions::default()).unwrap();
        assert_eq!(r.ret, Some(1));
    }

    #[test]
    fn banked_rom_distributes_contents() {
        let mut f = lowered(
            "#pragma memory bank(2)
             const int t[6] = {10, 11, 12, 13, 14, 15};
             int f() {
                 return t[0] + t[1] + t[4] + t[5];
             }",
        );
        assert_eq!(split_banks(&mut f), 1);
        // Even elements 10,12,14 in bank 0; odd 11,13,15 in bank 1.
        let b0 = f.mems.iter().find(|m| m.name.contains("#b0")).unwrap();
        let b1 = f.mems.iter().find(|m| m.name.contains("#b1")).unwrap();
        assert_eq!(b0.rom.as_deref(), Some(&[10, 12, 14][..]));
        assert_eq!(b1.rom.as_deref(), Some(&[11, 13, 15][..]));
        let r = execute(&f, &[], &ExecOptions::default()).unwrap();
        assert_eq!(r.ret, Some(10 + 11 + 14 + 15));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

            /// Splitting a banked array never changes results, for any mix
            /// of constant reads/writes and any power-of-two bank count.
            #[test]
            fn bank_splitting_preserves_behavior(
                k in prop_oneof![Just(2u32), Just(4u32)],
                ops in proptest::collection::vec((0u8..2, 0u8..8, -20i64..20), 1..12),
            ) {
                let body: String = ops
                    .iter()
                    .map(|(kind, i, v)| {
                        if *kind == 0 {
                            format!("a[{i}] = s + {v};")
                        } else {
                            format!("s += a[{i}];")
                        }
                    })
                    .collect::<Vec<_>>()
                    .join("\n                        ");
                let src = format!(
                    "int f() {{
                        #pragma memory bank({k})
                        int a[8];
                        int s = 1;
                        {body}
                        return s;
                    }}"
                );
                let mut f = lowered(&src);
                let before = execute(&f, &[], &ExecOptions::default()).unwrap();
                let n = split_banks(&mut f);
                prop_assert_eq!(n, 1, "{}", src);
                let after = execute(&f, &[], &ExecOptions::default()).unwrap();
                prop_assert_eq!(before.ret, after.ret, "{}", src);
            }
        }
    }

    const SRC: &str = "
        int f(int k) {
            #pragma memory monolithic
            int a[4];
            #pragma memory monolithic
            int b[4];
            for (int i = 0; i < 4; i++) { a[i] = i; b[i] = i * 10; }
            return a[k] + b[k];
        }
    ";

    #[test]
    fn merge_preserves_behavior() {
        let mut f = lowered(SRC);
        let before = execute(&f, &[ArgValue::Scalar(2)], &ExecOptions::default()).unwrap();
        let merged = merge_monolithic(&mut f);
        assert_eq!(merged, 2);
        chls_ir::verify::verify(&f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        let after = execute(&f, &[ArgValue::Scalar(2)], &ExecOptions::default()).unwrap();
        assert_eq!(before.ret, after.ret);
        assert_eq!(after.ret, Some(22));
        // One live memory of length 8 remains.
        let live: Vec<_> = f.mems.iter().filter(|m| m.len > 0).collect();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].len, 8);
    }

    #[test]
    fn unmarked_memories_untouched() {
        let mut f = lowered(
            "int f(int k) {
                int a[4];
                int b[4];
                for (int i = 0; i < 4; i++) { a[i] = i; b[i] = i * 10; }
                return a[k] + b[k];
            }",
        );
        assert_eq!(merge_monolithic(&mut f), 0);
    }

    #[test]
    fn param_arrays_never_merge() {
        let mut f = lowered(
            "int f(int a[4], int b[4], int k) {
                return a[k] + b[k];
            }",
        );
        assert_eq!(merge_monolithic(&mut f), 0);
    }

    #[test]
    fn roms_merge_with_contents() {
        let mut f = lowered(
            "int f(int k) {
                #pragma memory monolithic
                const int p[2] = {5, 6};
                #pragma memory monolithic
                const int q[2] = {7, 8};
                return p[k] + q[k];
            }",
        );
        let merged = merge_monolithic(&mut f);
        assert_eq!(merged, 2);
        chls_ir::verify::verify(&f).expect("verifies");
        let r = execute(&f, &[ArgValue::Scalar(1)], &ExecOptions::default()).unwrap();
        assert_eq!(r.ret, Some(14));
    }
}

//! Redundant-load elimination (available-load forwarding).
//!
//! General CSE must skip loads — two loads of the same address are only
//! equal while no store intervenes. This pass tracks *available* loads
//! `(memory, address) → value` through each block, killing entries when a
//! store to the same memory may alias them, and forwards the recorded
//! value to later identical loads. Availability flows across an edge when
//! the successor has that block as its only predecessor (the common shape
//! left by branch lowering: `if (a[i] > best) best = a[i];` re-loads
//! `a[i]` inside the arm).
//!
//! The payoff is not the removed RAM port use by itself: an arm whose only
//! instruction was a duplicated load becomes *pure*, which lets
//! [`crate::ifconv`] predicate it and the pipeliner overlap the loop.

use crate::dep::{may_alias, mem_access, AliasPrecision};
use chls_ir::ir::{Forwarding, Function, InstKind, Value};
use std::collections::HashMap;

/// Address identity for availability tracking: constant addresses compare
/// by value (two separate `const 2` instructions are the same location),
/// everything else by SSA identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum AddrKey {
    Const(i64),
    Val(Value),
}

fn addr_key(f: &Function, addr: Value) -> AddrKey {
    match f.inst(addr).kind {
        InstKind::Const(c) => AddrKey::Const(c),
        _ => AddrKey::Val(addr),
    }
}

/// Runs redundant-load elimination. Returns the number of loads forwarded.
///
/// Uses [`AliasPrecision::Basic`] for the store-kill test: a store only
/// kills available loads of the same memory that it may alias.
pub fn eliminate_redundant_loads(f: &mut Function) -> usize {
    let preds = f.predecessors();
    // avail_out[b]: loads still valid at the end of block b.
    let mut avail_out: Vec<HashMap<(u32, AddrKey), Value>> = vec![HashMap::new(); f.blocks.len()];
    let mut fwd = Forwarding::new(f);
    let mut n = 0;
    // Process blocks in reverse-postorder-ish sequence: a simple forward
    // pass over the block list is enough because availability only flows
    // through single-predecessor edges, and `lower` emits predecessors
    // before successors for the chain shapes this pass targets. Blocks
    // whose single predecessor appears later simply start empty — a missed
    // optimization, never a soundness problem.
    for bi in 0..f.blocks.len() {
        let mut avail: HashMap<(u32, AddrKey), Value> = match preds[bi].as_slice() {
            [single] if (single.0 as usize) < bi => avail_out[single.0 as usize].clone(),
            _ => HashMap::new(),
        };
        for &v in &f.blocks[bi].insts.clone() {
            match f.inst(v).kind {
                InstKind::Load { mem, addr } => {
                    let key = (mem.0, addr_key(f, addr));
                    if let Some(&prev) = avail.get(&key) {
                        // The dead load stays as an unused
                        // instruction; DCE sweeps it.
                        fwd.forward(v, prev);
                        n += 1;
                    } else {
                        avail.insert(key, v);
                    }
                }
                InstKind::Store { mem, .. } => {
                    let store = mem_access(f, v).expect("store is a mem access");
                    avail.retain(|&(m, _), &mut lv| {
                        if m != mem.0 {
                            return true;
                        }
                        let load = mem_access(f, lv).expect("recorded load");
                        !may_alias(f, &store, &load, AliasPrecision::Basic)
                    });
                }
                _ => {}
            }
        }
        avail_out[bi] = avail;
    }
    if fwd.apply(f) {
        crate::simplify::simplify(f);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use chls_frontend::compile_to_hir;
    use chls_ir::exec::{execute, ArgValue, ExecOptions};
    use chls_ir::lower_function;

    fn func(src: &str) -> Function {
        let hir = compile_to_hir(src).expect("frontend ok");
        let (id, _) = hir.func_by_name("f").expect("exists");
        lower_function(&hir, id).expect("lowers")
    }

    fn load_count(f: &Function) -> usize {
        f.blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|&&v| matches!(f.inst(v).kind, InstKind::Load { .. }))
            .count()
    }

    #[test]
    fn same_block_duplicate_load_forwarded() {
        let mut f = func("int f(int a[4], int i) { return a[i] + a[i]; }");
        assert_eq!(eliminate_redundant_loads(&mut f), 1);
        assert_eq!(load_count(&f), 1);
        let r = execute(
            &f,
            &[ArgValue::Array(vec![5, 6, 7, 8]), ArgValue::Scalar(2)],
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(r.ret, Some(14));
    }

    #[test]
    fn store_to_same_address_kills_availability() {
        let mut f = func(
            "int f(int a[4], int i) {
                int x = a[i];
                a[i] = x + 1;
                return x + a[i];
            }",
        );
        assert_eq!(eliminate_redundant_loads(&mut f), 0);
        let r = execute(
            &f,
            &[ArgValue::Array(vec![5, 6, 7, 8]), ArgValue::Scalar(1)],
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(r.ret, Some(13));
    }

    #[test]
    fn store_to_provably_different_constant_address_preserves_availability() {
        let mut f = func(
            "int f(int a[4]) {
                int x = a[2];
                a[0] = 99;
                return x + a[2];
            }",
        );
        assert_eq!(eliminate_redundant_loads(&mut f), 1);
        let r = execute(
            &f,
            &[ArgValue::Array(vec![5, 6, 7, 8])],
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(r.ret, Some(14));
    }

    #[test]
    fn store_to_unknown_address_kills_everything_in_that_memory() {
        let mut f = func(
            "int f(int a[4], int i, int j) {
                int x = a[i];
                a[j] = 0;
                return x + a[i];
            }",
        );
        assert_eq!(eliminate_redundant_loads(&mut f), 0);
    }

    #[test]
    fn different_memories_do_not_interfere() {
        let mut f = func(
            "int f(int a[4], int b[4], int i) {
                int x = a[i];
                b[i] = 7;
                return x + a[i];
            }",
        );
        assert_eq!(eliminate_redundant_loads(&mut f), 1);
        let r = execute(
            &f,
            &[
                ArgValue::Array(vec![1, 2, 3, 4]),
                ArgValue::Array(vec![0; 4]),
                ArgValue::Scalar(3),
            ],
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(r.ret, Some(8));
    }

    #[test]
    fn availability_flows_into_single_pred_arm() {
        // The max8 shape: the taken arm re-loads a[i]; forwarding makes
        // the arm pure so if-conversion can predicate it.
        let mut f = func(
            "int f(int a[8]) {
                int best = a[0];
                for (int i = 1; i < 8; i++) {
                    if (a[i] > best) best = a[i];
                }
                return best;
            }",
        );
        assert!(eliminate_redundant_loads(&mut f) >= 1);
        let stats = crate::ifconv::if_convert(&mut f);
        assert!(stats.triangles + stats.diamonds >= 1, "{stats:?}");
        let r = execute(
            &f,
            &[ArgValue::Array(vec![3, -1, 4, 1, -5, 9, 2, 6])],
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(r.ret, Some(9));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// A random straight-line sequence of loads/stores over two small
        /// arrays with a mix of constant and dynamic indices.
        fn arb_ops() -> impl Strategy<Value = Vec<String>> {
            proptest::collection::vec(
                prop_oneof![
                    (0u8..2, 0u8..4).prop_map(|(a, i)| {
                        let arr = if a == 0 { "a" } else { "b" };
                        format!("s += {arr}[{i}];")
                    }),
                    (0u8..2).prop_map(|a| {
                        let arr = if a == 0 { "a" } else { "b" };
                        format!("s += {arr}[k];")
                    }),
                    (0u8..2, 0u8..4).prop_map(|(a, i)| {
                        let arr = if a == 0 { "a" } else { "b" };
                        format!("{arr}[{i}] = s;")
                    }),
                    (0u8..2).prop_map(|a| {
                        let arr = if a == 0 { "a" } else { "b" };
                        format!("{arr}[k] = s + 1;")
                    }),
                ],
                1..14,
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

            /// Forwarding never changes results, whatever mix of loads,
            /// stores, and aliasing the program throws at it.
            #[test]
            fn forwarding_preserves_behavior(ops in arb_ops(), k in 0i64..4) {
                let body: String = ops.join("\n                    ");
                let src = format!(
                    "int f(int a[4], int b[4], int k) {{
                        int s = 1;
                        {body}
                        return s * 3 + a[0] + a[1] + a[2] + a[3] + b[0] - b[3];
                    }}"
                );
                let mut f = func(&src);
                let args = [
                    ArgValue::Array(vec![5, -3, 7, 2]),
                    ArgValue::Array(vec![1, 4, -9, 6]),
                    ArgValue::Scalar(k),
                ];
                let before = execute(&f, &args, &ExecOptions::default()).unwrap();
                eliminate_redundant_loads(&mut f);
                let after = execute(&f, &args, &ExecOptions::default()).unwrap();
                prop_assert_eq!(before.ret, after.ret, "{}", src);
                prop_assert_eq!(before.mems, after.mems, "{}", src);
            }
        }
    }

    #[test]
    fn merge_points_start_conservatively_empty() {
        // After the join of an if, the load must NOT be forwarded from one
        // arm (the other arm stored to it).
        let mut f = func(
            "int f(int a[4], int i, bool c) {
                int x = a[i];
                if (c) { a[i] = 0; } else { x = x + 1; }
                return x + a[i];
            }",
        );
        let _ = eliminate_redundant_loads(&mut f);
        let run = |c: i64, f: &Function| {
            execute(
                f,
                &[
                    ArgValue::Array(vec![10, 20, 30, 40]),
                    ArgValue::Scalar(1),
                    ArgValue::Scalar(c),
                ],
                &ExecOptions::default(),
            )
            .unwrap()
            .ret
        };
        assert_eq!(run(1, &f), Some(20)); // stored 0: 20 + 0
        assert_eq!(run(0, &f), Some(41)); // 21 + 20
    }
}

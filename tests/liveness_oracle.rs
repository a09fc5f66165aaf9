//! `chls_ir::liveness` against the fixpoint it replaced.
//!
//! The CASH builder used to solve liveness itself: per-block `BTreeSet`
//! use and def sets (sticky values left out), swept round-robin until
//! no live-in set changed. That sweep is the reference here. The dense
//! bitset worklist must give the same live-in sets on the IR every
//! example program and benchmark kernel lowers to, both with sticky
//! values left out (what CASH reads) and with every value counted.

use chls_backends::{Preparer, SynthError};
use chls_dataflow::sticky_values;
use chls_ir::ir::{BlockId, Function, InstKind, Term, Value};
use chls_ir::liveness::Liveness;
use std::collections::BTreeSet;

mod common;

/// Live-in sets of the values not marked in `sticky`: phi operands are
/// uses at the end of their predecessor, and the sets are swept
/// backwards until none changes.
fn reference_live_in(f: &Function, sticky: &[bool]) -> Vec<BTreeSet<Value>> {
    let nb = f.blocks.len();
    let def_block: Vec<BlockId> = f.insts.iter().map(|i| i.block).collect();
    let mut uses: Vec<BTreeSet<Value>> = vec![BTreeSet::new(); nb];
    let mut defs: Vec<BTreeSet<Value>> = vec![BTreeSet::new(); nb];
    for (bi, block) in f.blocks.iter().enumerate() {
        for &v in &block.insts {
            defs[bi].insert(v);
            match &f.inst(v).kind {
                InstKind::Phi(args) => {
                    for (pred, pv) in args {
                        if !sticky[pv.0 as usize] && def_block[pv.0 as usize] != *pred {
                            uses[pred.0 as usize].insert(*pv);
                        }
                    }
                }
                kind => kind.for_each_operand(|o| {
                    if !sticky[o.0 as usize] && def_block[o.0 as usize].0 as usize != bi {
                        uses[bi].insert(o);
                    }
                }),
            }
        }
        if let Term::Br { cond: v, .. } | Term::Ret(Some(v)) = &block.term {
            if !sticky[v.0 as usize] && def_block[v.0 as usize].0 as usize != bi {
                uses[bi].insert(*v);
            }
        }
    }
    let mut live_in: Vec<BTreeSet<Value>> = vec![BTreeSet::new(); nb];
    loop {
        let mut changed = false;
        for bi in (0..nb).rev() {
            let mut out: BTreeSet<Value> = BTreeSet::new();
            for s in f.blocks[bi].term.successors() {
                out.extend(live_in[s.0 as usize].iter().copied());
            }
            // The old sweep also dropped successor phis here. A phi is
            // in its own block's defs, so it is never live in there and
            // this removes nothing; it stays so the reference is the
            // deleted code.
            for s in f.blocks[bi].term.successors() {
                for &v in &f.blocks[s.0 as usize].insts {
                    if matches!(f.inst(v).kind, InstKind::Phi(_)) {
                        out.remove(&v);
                    }
                }
            }
            let mut new_in = uses[bi].clone();
            new_in.extend(out.into_iter().filter(|v| !defs[bi].contains(v)));
            if new_in != live_in[bi] {
                live_in[bi] = new_in;
                changed = true;
            }
        }
        if !changed {
            return live_in;
        }
    }
}

fn assert_same_live_in(label: &str, f: &Function, sticky: &[bool]) {
    let live = Liveness::compute(f);
    let reference = reference_live_in(f, sticky);
    for (bi, expected) in reference.iter().enumerate() {
        let got: BTreeSet<Value> = live
            .live_in(BlockId(bi as u32))
            .filter(|v| !sticky[v.0 as usize])
            .collect();
        assert_eq!(&got, expected, "{label}: live-in of b{bi}\n{f}");
    }
}

/// Every example program and benchmark kernel: (label, source, entry).
fn programs() -> Vec<(String, String, String)> {
    let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut out: Vec<(String, String, String)> = common::corpus()
        .into_iter()
        .map(|(path, entry)| {
            let src = std::fs::read_to_string(root.join(&path)).expect("corpus file");
            (path, src, entry)
        })
        .collect();
    for b in chls::benchmarks() {
        out.push((
            b.name.to_string(),
            b.source.to_string(),
            b.entry.to_string(),
        ));
    }
    out
}

#[test]
fn bitset_live_in_sets_equal_the_btreeset_fixpoint() {
    let mut functions = 0;
    let mut crossing = 0;
    for (label, src, entry) in programs() {
        // The recursive software programs are only inputs of `rewrite`.
        let Ok(hir) = chls_frontend::compile_to_hir(&src) else {
            continue;
        };
        let prep = Preparer::new(hir);
        for unroll in [None, Some(2)] {
            let prepared = match prep.sequential(&entry, false, false, unroll) {
                Ok(p) => p,
                // Concurrent and pointer-swapping programs are not
                // sequential C for this pipeline.
                Err(
                    SynthError::Unsupported { .. } | SynthError::Loop(_) | SynthError::Transform(_),
                ) => continue,
                Err(e) => panic!("{label}: {e}"),
            };
            let f = &prepared.func;
            let label = format!("{label} (unroll {unroll:?})");
            assert_same_live_in(&label, f, &sticky_values(f));
            assert_same_live_in(&label, f, &vec![false; f.insts.len()]);
            let live = Liveness::compute(f);
            crossing += (0..f.blocks.len())
                .filter(|&b| live.live_in(BlockId(b as u32)).next().is_some())
                .count();
            functions += 1;
        }
    }
    assert!(functions >= 40, "only {functions} functions were compared");
    assert!(crossing > 0, "no block has a live-in value");
}

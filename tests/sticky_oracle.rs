//! CASH's sticky sets against their definitions.
//!
//! `DataflowGraph::compute_sticky` and `chls_dataflow::sticky_values`
//! find the least fixpoint with one worklist pass. The references here
//! are the round-robin sweeps they replaced: re-scan everything until
//! no node changes. Both must agree on every CASH circuit of the example
//! corpus and the benchmark kernels.

use chls_backends::{Backend, Cash, Design, Preparer, SynthError, SynthOptions};
use chls_dataflow::{sticky_values, DataflowGraph, NodeId, NodeKind};
use chls_ir::ir::{Function, InstKind};

mod common;

/// Constants and parameters, and pure ops with at least one value
/// in-edge whose producers are all sticky: swept until nothing changes.
fn reference_sticky(g: &DataflowGraph) -> Vec<bool> {
    let n = g.nodes.len();
    let mut sticky = vec![false; n];
    loop {
        let mut changed = false;
        for i in 0..n {
            if sticky[i] {
                continue;
            }
            let is = match &g.nodes[i].kind {
                NodeKind::Const(_) | NodeKind::Param(_) => true,
                NodeKind::Bin(_) | NodeKind::Un(_) | NodeKind::Select | NodeKind::Cast { .. } => {
                    let id = NodeId(i as u32);
                    let mut all = true;
                    let mut any = false;
                    for e in &g.edges {
                        if e.to == id {
                            any = true;
                            all &= sticky[e.from.0 as usize];
                        }
                    }
                    any && all
                }
                _ => false,
            };
            if is {
                sticky[i] = true;
                changed = true;
            }
        }
        if !changed {
            return sticky;
        }
    }
}

/// Constants and parameters, and pure instructions whose operands are
/// all sticky, over every arena instruction: swept until nothing
/// changes.
fn reference_sticky_values(f: &Function) -> Vec<bool> {
    let mut sticky = vec![false; f.insts.len()];
    loop {
        let mut changed = false;
        for (i, inst) in f.insts.iter().enumerate() {
            if sticky[i] {
                continue;
            }
            let s = match &inst.kind {
                InstKind::Const(_) | InstKind::Param(_) => true,
                InstKind::Bin(..)
                | InstKind::Un(..)
                | InstKind::Select { .. }
                | InstKind::Cast { .. } => {
                    let mut all = true;
                    inst.kind.for_each_operand(|o| all &= sticky[o.0 as usize]);
                    all
                }
                _ => false,
            };
            if s {
                sticky[i] = true;
                changed = true;
            }
        }
        if !changed {
            return sticky;
        }
    }
}

/// Loop invariants of every pure kind (`Bin`, `Un`, `Select`, `Cast`),
/// one built on another, used inside a loop: the corpus has no sticky
/// select or cast.
const INVARIANTS: &str = "int main(int a, int b, int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        int m = a > b ? a : b;
        s += m + (int) (uint<8>) (-a) + ~(m * b);
    }
    return s;
}";

/// Every example program and benchmark kernel, and [`INVARIANTS`]:
/// (label, source, entry).
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
    out.push((
        "invariants".to_string(),
        INVARIANTS.to_string(),
        "main".to_string(),
    ));
    out
}

#[test]
fn worklist_sticky_sets_equal_the_round_robin_fixpoint() {
    let opts = SynthOptions::default();
    let mut circuits = 0;
    for (label, src, entry) in programs() {
        // The recursive software programs are only inputs of `rewrite`.
        let Ok(hir) = chls_frontend::compile_to_hir(&src) else {
            continue;
        };
        let prep = Preparer::new(hir);
        let prepared = prep.sequential(&entry, false, opts.narrow_widths, opts.unroll_factor);
        let prepared = match prepared {
            Ok(p) => p,
            // Concurrent and pointer-swapping programs are not
            // sequential C for this pipeline.
            Err(
                SynthError::Unsupported { .. } | SynthError::Loop(_) | SynthError::Transform(_),
            ) => continue,
            Err(e) => panic!("{label}: {e}"),
        };
        assert_eq!(
            sticky_values(&prepared.func),
            reference_sticky_values(&prepared.func),
            "{label}: IR sticky values"
        );
        let g = match Cash.synthesize(&prep, &entry, &opts) {
            Ok(Design::Dataflow(g)) => g,
            Ok(_) => panic!("{label}: CASH must produce a dataflow circuit"),
            Err(e) => panic!("{label}: CASH refused a prepared program: {e}"),
        };
        assert_eq!(
            g.sticky,
            reference_sticky(&g),
            "{label}: circuit sticky set"
        );
        assert!(
            g.sticky.iter().any(|&s| s),
            "{label}: no sticky node at all"
        );
        circuits += 1;
    }
    assert!(circuits >= 20, "only {circuits} programs reached CASH");
}

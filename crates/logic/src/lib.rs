//! Gate-level logic optimization and formal equivalence checking.
//!
//! This crate adds the "back end of the back end" the paper's survey
//! keeps pointing at: once a C-like front end has committed to *some*
//! hardware (a combinational cone or an FSMD), the remaining questions
//! are (a) can the logic be made smaller without changing behaviour,
//! and (b) do two different synthesis strategies actually implement the
//! same function? Both are answered over an And-Inverter Graph:
//!
//! * [`aig`] — the AIG core: structural hashing, constant folding,
//!   one- and two-level rewrite rules, complemented edges, and a 64-lane
//!   bit-parallel simulator.
//! * [`blast`] — word-level bit-blasting of netlists into the AIG with
//!   exactly the simulator's arithmetic semantics, including symbolic
//!   RAM and a cycle-unrolling symbolic machine.
//! * [`sat`] — Tseitin CNF emission and a small self-contained CDCL
//!   solver (two watched literals, first-UIP learning, VSIDS, restarts).
//! * [`equiv`] — miter construction and the strash → exhaustive → SAT
//!   decision ladder (exhaustive: every input of a small miter, 64 per
//!   simulator pass), with counterexample replay through the concrete
//!   simulator as an independent soundness check.
//! * [`opt`] — word-level netlist and FSMD optimizers used by
//!   `--opt-netlist` and the `opt_area` QoR column; every rewrite is
//!   area-monotone under the standard cost model.

pub mod aig;
pub mod blast;
pub mod equiv;
pub mod interchange;
pub mod opt;
pub mod sat;

pub use aig::{Aig, Lit};
pub use blast::{RamSpec, SymEnv, SymError, SymMachine, Word};
pub use equiv::{
    check_comb_equiv, check_seq_equiv, Counterexample, EquivError, EquivOptions, EquivReport,
    Method, Verdict,
};
pub use opt::{optimize, optimize_fsmd};
pub use sat::{Cnf, Outcome, Solver};

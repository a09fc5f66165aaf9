//! # chls-opt
//!
//! Transformation passes over the typed HIR and the SSA IR:
//!
//! * [`inline`] — exhaustive call-graph flattening (hardware has no stack);
//! * [`unroll`] — loop unrolling, full or by a pragma-given factor;
//! * [`ptr`] — points-to analysis and pointer elimination (resolved
//!   pointers become array offsets; unresolved ones force objects into a
//!   shared monolithic memory, exactly the trade-off the paper describes);
//! * [`simplify`] — IR constant folding, algebraic identities, CSE, DCE;
//! * [`width`] — value-range analysis that recovers narrow bit-widths from
//!   wide C types (the paper's "C has only four sizes" problem);
//! * [`dep`] — memory-dependence tests used by the schedulers;
//! * [`subst`] — shared HIR rewriting machinery.

pub mod dep;
pub mod ifconv;
pub mod inline;
pub mod loadcse;
pub mod memory;
pub mod narrow;

pub mod ptr;
pub mod rewrite;
pub mod simplify;
pub mod subst;
pub mod unroll;
pub mod width;

pub use inline::{inline_program, InlineError};
pub use ptr::{points_to, uses_pointers, PointsTo};

//! # chls-sched
//!
//! Operation scheduling — the heart of every compiler-timed synthesis
//! flow the paper surveys:
//!
//! * [`dfg`] — dependence graphs extracted from IR basic blocks;
//! * [`schedule`] — ASAP/ALAP with operator chaining under a clock
//!   period, and resource-constrained list scheduling;
//! * [`fds`] — force-directed scheduling (HardwareC-style
//!   latency-constrained resource minimization);
//! * [`modulo`] — iterative modulo scheduling (loop pipelining), with
//!   ResMII/RecMII bounds;
//! * [`ii`] — timed-interface contract verdicts: declared `@ii(n)`
//!   promises checked against achieved initiation intervals;
//! * [`ilp`] — dynamic-trace ILP measurement (the Wall experiment).

pub mod dfg;
pub mod fds;
pub mod ii;
pub mod ilp;
pub mod modulo;
pub mod schedule;

pub use dfg::{dfg_from_block, Dfg, DfgEdge, DfgNode, NodeId};
pub use fds::force_directed;
pub use ii::{check_contract, ContractVerdict};
pub use ilp::{ilp_sweep, measure_ilp, IlpResult};
pub use modulo::{loop_dfg, modulo_schedule, ModuloSchedule};
pub use schedule::{alap, asap, list_schedule, Resources, Schedule};

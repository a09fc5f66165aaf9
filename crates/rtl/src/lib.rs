//! # chls-rtl
//!
//! The register-transfer-level substrate of the `chls` laboratory:
//!
//! * [`netlist`] — word-level netlists (the Cones backend's combinational
//!   output and the lowered form of everything else);
//! * [`fsmd`] — finite-state machine + datapath designs, the common target
//!   of the clocked backends;
//! * [`builder`] — Ocapi-style structural construction (run a program to
//!   build hardware);
//! * [`verilog`] — Verilog-2001 emission;
//! * [`cost`] — the technology-independent area/delay model every report
//!   in the experiment suite pulls numbers from.

pub mod builder;
pub mod cost;
pub mod fsmd;
pub mod lower;
pub mod netlist;
pub mod verilog;

pub use cost::{CostModel, OpClass};
pub use fsmd::{Action, Fsmd, FsmdMem, NextState, RegId, Rv, RvKind, State, StateId};
pub use lower::fsmd_to_netlist;
pub use netlist::{bin_class, CellData, CellId, CellKind, Netlist, Ram, RamId};
pub use verilog::{fsmd_to_verilog, netlist_to_verilog};

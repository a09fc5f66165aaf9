//! # chls-backends
//!
//! One synthesis backend per paradigm in the paper's Table 1:
//!
//! | module | models | timing rule |
//! |---|---|---|
//! | [`cones`] | Cones (1988) | none — pure combinational flattening |
//! | [`transmogrifier`] | Transmogrifier C (1995) | 1 cycle per loop iteration |
//! | [`handelc`] | Handel-C (Celoxica) | 1 cycle per assignment; `par`/channels |
//! | [`hardwarec`] | HardwareC / Bach C | in-language timing constraints |
//! | [`c2v`] | C2Verilog (CompiLogic) | compiler-scheduled cycles |
//! | [`cash`] | CASH (2002) | asynchronous dataflow |
//! | [`cyber`] | Cyber/BDL (NEC) | compiler-scheduled; pointers prohibited |
//!
//! (The seventh paradigm — Ocapi/PDL++-style structural construction —
//! is `chls_rtl::builder`, since its whole point is that *you* write the
//! structure.)
//!
//! All backends implement [`common::Backend`] and produce a
//! [`common::Design`] that the simulators in `chls-sim` can execute, so
//! every backend is conformance-tested against the golden interpreter.

pub mod c2v;
pub mod cash;
pub mod common;
pub mod cones;
pub mod cyber;
pub mod handelc;
pub mod hardwarec;
pub(crate) mod pipeline;
pub mod prepare;
pub mod transmogrifier;

pub use c2v::C2Verilog;
pub use cash::Cash;
pub use common::{
    construct_support, Backend, BackendInfo, ConcurrencyModel, ConstructSupport, Design, Support,
    SynthError, SynthOptions, TimingModel, CONSTRUCT_MATRIX,
};
pub use cones::Cones;
pub use cyber::Cyber;
pub use handelc::HandelC;
pub use hardwarec::HardwareC;
pub use prepare::{Prepared, Preparer, Structured};
pub use transmogrifier::Transmogrifier;

//! # chls — a laboratory for hardware synthesis from C-like languages
//!
//! A from-scratch reproduction of the systems surveyed in Edwards, *"The
//! Challenges of Hardware Synthesis from C-Like Languages"* (DATE 2005):
//! a C-like language frontend, SSA IR and optimizer, schedulers, an RTL
//! substrate with Verilog emission and simulators, an asynchronous
//! dataflow substrate, and **one synthesis backend per paradigm in the
//! paper's Table 1** — all conformance-tested against a golden
//! interpreter.
//!
//! ## Quickstart
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use chls::{backend_by_name, simulate_design, Compiler};
//! use chls::interp::ArgValue;
//! use chls_backends::SynthOptions;
//!
//! let compiler = Compiler::parse(
//!     "int gcd(int a, int b) {
//!          while (b != 0) { int t = b; b = a % b; a = t; }
//!          return a;
//!      }",
//! )?;
//! let backend = backend_by_name("c2v").expect("registered");
//! let design = compiler.synthesize(backend.as_ref(), "gcd", &SynthOptions::default())?;
//! let out = simulate_design(&design, &[ArgValue::Scalar(48), ArgValue::Scalar(36)])?;
//! assert_eq!(out.ret, Some(12));
//! println!("gcd(48, 36) = 12 in {} cycles", out.cycles.unwrap());
//! # Ok(())
//! # }
//! ```

pub mod cache;
pub mod driver;
pub mod error;
pub mod executor;
pub mod explore;
pub mod jsonin;
pub mod options;
pub mod programs;
pub mod qor;
pub mod registry;
pub mod report;
pub mod rewriter;
pub mod serve;
pub mod service;
pub mod verbs;

pub use cache::{ArtifactCache, CacheStats};
pub use chls_analysis::{flow_program, lint_program, FlowReport, LintError, LintReport};
pub use chls_backends::{Backend, BackendInfo, Design, SynthError, SynthOptions};
pub use chls_sim::interp;
pub use driver::{
    check_conformance, conformance_jobs, simulate_design, simulate_design_with, Compiler,
    SimOutcome, SimulateError, Verdict,
};
pub use error::Error;
pub use options::CompileOptions;
pub use programs::{benchmark, benchmarks, Benchmark};
pub use qor::{default_args, qor_report, BackendQor, QorReport, QorStatus};
pub use registry::{backend_by_name, backends, taxonomy_table};
pub use report::{fnum, Table};
pub use rewriter::{rewrite_and_certify, CertCheck, CheckStatus, RewriteOutcome};
pub use service::{Request, Response, ServiceCtx};

/// The stable import surface, in one line: `use chls::prelude::*;`.
///
/// Everything a pipeline driver needs — the compiler facade, the unified
/// error and options types, backend lookup, conformance checking, design
/// simulation, and QoR reporting. Crate-internal plumbing (individual
/// pass entry points, simulator internals) is deliberately excluded.
pub mod prelude {
    pub use crate::driver::{
        check_conformance, conformance_jobs, simulate_design, simulate_design_with, Compiler,
        SimOutcome, Verdict,
    };
    pub use crate::error::Error;
    pub use crate::interp::ArgValue;
    pub use crate::options::CompileOptions;
    pub use crate::qor::{qor_report, QorReport, QorStatus};
    pub use crate::registry::{backend_by_name, backends, taxonomy_table};
    pub use chls_backends::{Backend, Design, SynthOptions};
}

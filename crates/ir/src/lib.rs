//! # chls-ir
//!
//! The SSA CFG intermediate representation shared by the compiler-scheduled
//! synthesis backends (Cones, Transmogrifier C, C2Verilog, CASH), plus:
//!
//! * [`lower`] — typed HIR → SSA IR (Braun-style on-the-fly SSA);
//! * [`dataflow`] — forward abstract-interpretation engine (interval and
//!   known-bits domains, branch-guard refinement, may-written memory);
//! * [`dom`] — dominator tree and dominance frontiers;
//! * [`loops`] — natural-loop detection;
//! * [`liveness`] — where each value is read, and block liveness;
//! * [`exec`] — a reference executor that also produces the dynamic
//!   dependence traces used by the ILP-limit experiment;
//! * [`verify`] — structural/SSA/type verifier;
//! * [`fasthash`] — the one-multiply hasher behind the toolchain's
//!   small-integer-keyed tables.
//!
//! ## Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use chls_ir::exec::{execute, ArgValue, ExecOptions};
//!
//! let hir = chls_frontend::compile_to_hir(
//!     "int gcd(int a, int b) {
//!          while (b != 0) { int t = b; b = a % b; a = t; }
//!          return a;
//!      }",
//! )?;
//! let (id, _) = hir.func_by_name("gcd").expect("exists");
//! let f = chls_ir::lower::lower_function(&hir, id)?;
//! chls_ir::verify::verify(&f)?;
//! let r = execute(&f, &[ArgValue::Scalar(48), ArgValue::Scalar(36)], &ExecOptions::default())?;
//! assert_eq!(r.ret, Some(12));
//! # Ok(())
//! # }
//! ```

pub mod dataflow;
pub mod dom;
pub mod exec;
pub mod fasthash;
pub mod ir;
pub mod liveness;
pub mod loops;
pub mod lower;
pub mod verify;

pub use fasthash::{FastHasher, FastMap};
pub use ir::{
    eval_bin, eval_cast, eval_un, BinKind, BlockId, Forwarding, Function, InstData, InstKind,
    MemId, MemInfo, MemSource, Term, UnKind, Value,
};
pub use lower::{lower_function, LowerError};

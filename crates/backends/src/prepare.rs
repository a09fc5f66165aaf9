//! The front half every backend shares, and its memo.
//!
//! All seven backends start the same way: inline → unroll → pointer
//! elimination (the *structured prefix*, which Handel-C and HardwareC
//! execute as HIR), then, for the five sequential backends, IR lowering
//! → memory lowering → simplify (→ narrow → simplify). They differ only
//! after it. A [`Preparer`] owns an analyzed program and remembers the
//! most recent result of each kind, so synthesizing one program on every
//! backend runs the front half once per distinct key rather than once
//! per backend.
//!
//! The memo has one slot per kind, each holding its most recent key:
//!
//! * structured prefix — `(entry, force_full_unroll, unroll_factor)`;
//! * sequential result — the prefix key plus `narrow`. A sequential
//!   miss builds on the prefix slot, so the prefix code exists once.
//!
//! Results (errors too) are shared as [`Arc`]s; a backend that rewrites
//! the prepared IR clones it first.
//!
//! The memo serves the thread that created the `Preparer`. The first
//! request from any other thread (the worker threads of `check` and
//! `explore` at more than one job, the jobs of a long-lived program
//! shared between threads) empties it for good, and from then on every
//! request computes its own result. A retained result stays allocated
//! as long as the `Preparer` lives, in the allocator arena of the
//! thread that computed it; on a program shared between threads for a
//! long time, such results keep those arenas from shrinking back after
//! each thread's peaks.

use crate::common::SynthError;
use chls_frontend::hir::{FuncId, HirProgram};
use chls_ir::Function;
use chls_opt::ptr::PtrStats;
use chls_opt::unroll::{UnrollOptions, UnrollStats};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, ThreadId};

/// The structured prefix: the program after inline → unroll → pointer
/// elimination, still HIR.
#[derive(Debug, Clone)]
pub struct Structured {
    /// The inlined program; `funcs[0]` is the entry function.
    pub prog: HirProgram,
    /// Unrolling statistics.
    pub unroll_stats: UnrollStats,
}

/// Result of the shared sequential preparation pipeline.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Inlined, pointer-free, simplified IR of the entry function.
    pub func: Function,
    /// Unrolling statistics.
    pub unroll_stats: UnrollStats,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct PrefixKey {
    entry: String,
    force_full_unroll: bool,
    unroll_factor: Option<u32>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct SequentialKey {
    prefix: PrefixKey,
    narrow: bool,
}

/// A memo slot: the most recent key and its result.
type Slot<K, T> = Option<(K, Result<Arc<T>, SynthError>)>;

#[derive(Debug, Default)]
struct Memo {
    /// Set when a thread other than the owner first asks. The slots are
    /// emptied then and stay empty.
    shared: bool,
    structured: Slot<PrefixKey, Structured>,
    sequential: Slot<SequentialKey, Prepared>,
}

/// An analyzed program plus the memo of its front-half preparations:
/// what every [`crate::Backend::synthesize`] receives. The memo lives
/// and dies with the `Preparer`; a clone shares the program and starts
/// with an empty memo of its own.
#[derive(Debug)]
pub struct Preparer {
    hir: Arc<HirProgram>,
    /// The thread the memo serves: the one that created this value.
    owner: ThreadId,
    memo: Mutex<Memo>,
}

impl Clone for Preparer {
    fn clone(&self) -> Self {
        Preparer::from_shared(Arc::clone(&self.hir))
    }
}

impl Preparer {
    /// Wraps an analyzed program with an empty memo.
    pub fn new(hir: HirProgram) -> Self {
        Preparer::from_shared(Arc::new(hir))
    }

    fn from_shared(hir: Arc<HirProgram>) -> Self {
        Preparer {
            hir,
            owner: thread::current().id(),
            memo: Mutex::default(),
        }
    }

    /// The analyzed program.
    pub fn hir(&self) -> &HirProgram {
        &self.hir
    }

    /// Inline → unroll (pragmas, or `unroll_factor` for unpragma'd
    /// counted loops) → pointer elimination, staying at HIR (for the
    /// structured backends: Handel-C, HardwareC).
    ///
    /// # Errors
    ///
    /// See [`SynthError`].
    pub fn structured(
        &self,
        entry: &str,
        unroll_factor: Option<u32>,
    ) -> Result<Arc<Structured>, SynthError> {
        let _span = chls_trace::span("backend.prepare");
        let key = PrefixKey {
            entry: entry.to_string(),
            force_full_unroll: false,
            unroll_factor,
        };
        let (r, hit) = self.get(structured_slot, key, |k| self.run_prefix(k));
        count(hit);
        r
    }

    /// The structured prefix (every loop unrolled when
    /// `force_full_unroll`), then IR lowering → memory lowering →
    /// simplify, with narrow → re-simplify appended when `narrow`,
    /// verified.
    ///
    /// # Errors
    ///
    /// See [`SynthError`].
    pub fn sequential(
        &self,
        entry: &str,
        force_full_unroll: bool,
        narrow: bool,
        unroll_factor: Option<u32>,
    ) -> Result<Arc<Prepared>, SynthError> {
        let _span = chls_trace::span("backend.prepare");
        let key = SequentialKey {
            prefix: PrefixKey {
                entry: entry.to_string(),
                force_full_unroll,
                unroll_factor,
            },
            narrow,
        };
        let (r, hit) = self.get(sequential_slot, key, |k| {
            let (prefix, _) = self.get(structured_slot, k.prefix.clone(), |p| self.run_prefix(p));
            run_sequential(&*prefix?, k.narrow)
        });
        count(hit);
        r
    }

    /// The memo, emptied for good on the first request from a thread
    /// other than the owner.
    fn memo(&self) -> MutexGuard<'_, Memo> {
        // Every update is one assignment, so a panic elsewhere cannot
        // leave the memo half-written.
        let mut memo = self.memo.lock().unwrap_or_else(PoisonError::into_inner);
        if !memo.shared && thread::current().id() != self.owner {
            *memo = Memo {
                shared: true,
                ..Memo::default()
            };
        }
        memo
    }

    /// The result for `key` in the slot `slot` picks, computed by
    /// `compute` (without holding the memo) unless the slot holds it,
    /// and whether it was a hit. A new key evicts the slot.
    fn get<K: PartialEq, T>(
        &self,
        slot: fn(&mut Memo) -> &mut Slot<K, T>,
        key: K,
        compute: impl FnOnce(&K) -> Result<T, SynthError>,
    ) -> (Result<Arc<T>, SynthError>, bool) {
        if let Some((k, r)) = slot(&mut self.memo()) {
            if *k == key {
                return (r.clone(), true);
            }
        }
        let r = compute(&key).map(Arc::new);
        let mut memo = self.memo();
        if !memo.shared {
            *slot(&mut memo) = Some((key, r.clone()));
        }
        (r, false)
    }

    fn run_prefix(&self, key: &PrefixKey) -> Result<Structured, SynthError> {
        let (entry_id, _) = self
            .hir
            .func_by_name(&key.entry)
            .ok_or_else(|| SynthError::NoSuchFunction(key.entry.clone()))?;
        let mut prog = chls_opt::inline_program(&self.hir, entry_id)
            .map_err(|e| SynthError::Transform(e.to_string()))?;
        let (unrolled, unroll_stats) = chls_opt::unroll::unroll_function(
            &prog.funcs[0],
            UnrollOptions {
                force_full: key.force_full_unroll,
                factor_override: key.unroll_factor,
            },
        );
        prog.funcs[0] = unrolled;
        chls_opt::ptr::lower_pointers(&mut prog.funcs[0], &mut PtrStats::default())
            .map_err(|e| SynthError::Transform(e.to_string()))?;
        Ok(Structured { prog, unroll_stats })
    }
}

fn structured_slot(memo: &mut Memo) -> &mut Slot<PrefixKey, Structured> {
    &mut memo.structured
}

fn sequential_slot(memo: &mut Memo) -> &mut Slot<SequentialKey, Prepared> {
    &mut memo.sequential
}

fn count(hit: bool) {
    chls_trace::add(
        if hit {
            "backend.prepare.hit"
        } else {
            "backend.prepare.miss"
        },
        1,
    );
}

fn run_sequential(prefix: &Structured, narrow: bool) -> Result<Prepared, SynthError> {
    let mut func = chls_trace::time("ir.lower", || {
        chls_ir::lower_function(&prefix.prog, FuncId(0))
    })
    .map_err(|e| SynthError::Transform(e.to_string()))?;
    chls_opt::memory::merge_monolithic(&mut func);
    chls_opt::memory::split_banks(&mut func);
    chls_opt::simplify::simplify(&mut func);
    if narrow {
        chls_opt::narrow::narrow(&mut func);
        chls_opt::simplify::simplify(&mut func);
    }
    chls_ir::verify::verify(&func).map_err(|e| SynthError::Transform(e.to_string()))?;
    Ok(Prepared {
        func,
        unroll_stats: prefix.unroll_stats.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chls_frontend::compile_to_hir;

    fn preparer() -> Preparer {
        let src = "int f(int a, int b) { int s = 0; for (int i = 0; i < 4; i++) { s += a * i + b; } return s; }";
        Preparer::new(compile_to_hir(src).expect("frontend ok"))
    }

    #[test]
    fn the_memo_serves_its_owner_until_another_thread_asks() {
        let prep = preparer();
        let first = prep.sequential("f", false, false, None).expect("prepares");
        let again = prep.sequential("f", false, false, None).expect("prepares");
        assert!(Arc::ptr_eq(&first, &again), "the owner hits its own result");
        let full = prep.sequential("f", true, false, None).expect("prepares");
        let evicted = prep.sequential("f", false, false, None).expect("prepares");
        assert!(!Arc::ptr_eq(&first, &evicted), "a new key evicts the slot");
        assert!(!Arc::ptr_eq(&full, &evicted));
        let other = thread::scope(|s| {
            s.spawn(|| prep.sequential("f", false, false, None))
                .join()
                .expect("no panic")
        })
        .expect("prepares");
        assert!(
            !Arc::ptr_eq(&evicted, &other),
            "another thread computes its own"
        );
        assert_eq!(evicted.func.to_string(), other.func.to_string());
        let after = prep.sequential("f", false, false, None).expect("prepares");
        let after_again = prep.sequential("f", false, false, None).expect("prepares");
        assert!(
            !Arc::ptr_eq(&after, &after_again),
            "a memo another thread used stays empty"
        );
    }

    #[test]
    fn a_clone_shares_the_program_and_starts_empty() {
        let prep = preparer();
        let first = prep.structured("f", None).expect("prepares");
        let copy = prep.clone();
        assert!(std::ptr::eq(prep.hir(), copy.hir()));
        let fresh = copy.structured("f", None).expect("prepares");
        assert!(!Arc::ptr_eq(&first, &fresh));
    }
}

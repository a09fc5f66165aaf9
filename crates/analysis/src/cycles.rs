//! Static cycle bounds under published timing rules.
//!
//! For the two backends whose timing rule is simple enough to state in a
//! sentence — Handel-C ("each assignment statement runs in one cycle")
//! and Transmogrifier C ("only loop iterations take a cycle") — the rule
//! is also simple enough to *evaluate statically*. This module computes a
//! sound interval `[min, max]` of clock-cycle counts per entry function,
//! so a designer can read the latency off the source before synthesis.
//!
//! Bounds cover terminating runs: a loop whose trip count the canonical
//! recognizer ([`chls_opt::unroll::recognize`]) cannot pin down yields an
//! unbounded maximum (`max = None`), never a wrong finite one.
//!
//! ### Handel-C accounting (matches `chls_backends::handelc`)
//!
//! * assignment, `delay`, `send`, `recv`: one cycle each;
//! * decisions, `break`, `continue`: free;
//! * `return`: one cycle, even bare;
//! * `par`: lockstep — without channels, the join costs the element-wise
//!   max of the arms; with channels, arms may stall for each other, so
//!   the max degrades to the *sum* of arm maxima (each cycle some arm
//!   commits a cycle node, else the program is deadlocked and diverges);
//! * plus one entry cycle (parameter latch) and one `Done` cycle.
//!
//! ### Transmogrifier accounting (matches `chls_backends::transmogrifier`)
//!
//! Cycles are *region visits*: one region per natural-loop header plus
//! the entry region, straight-line code is free. A counted loop of `t`
//! trips visits its header `t + 1` times (the last visit carries the
//! fall-through code, which lives in the header's region); an `if` with a
//! loop in either branch forces the join block into a region of its own
//! (+1). Plus the entry-region visit and one `Done` cycle.

use chls_frontend::hir::*;
use chls_opt::unroll::recognize;

/// An inclusive interval of cycle counts; `max = None` means unbounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Fewest cycles any terminating run can take.
    pub min: u64,
    /// Most cycles any terminating run can take, when statically bounded.
    pub max: Option<u64>,
}

impl Interval {
    /// The zero-cost interval.
    pub const ZERO: Interval = Interval {
        min: 0,
        max: Some(0),
    };

    /// An exact count.
    pub fn exact(n: u64) -> Interval {
        Interval {
            min: n,
            max: Some(n),
        }
    }

    /// `[min, ∞)`.
    pub fn at_least(min: u64) -> Interval {
        Interval { min, max: None }
    }

    /// Union hull of two alternatives.
    pub fn hull(self, other: Interval) -> Interval {
        Interval {
            min: self.min.min(other.min),
            max: match (self.max, other.max) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            },
        }
    }

    /// `n` back-to-back repetitions.
    pub fn times(self, n: u64) -> Interval {
        Interval {
            min: self.min * n,
            max: self.max.map(|m| m * n),
        }
    }

    /// Whether a measured cycle count lies inside the interval.
    pub fn contains(&self, cycles: u64) -> bool {
        self.min <= cycles && self.max.is_none_or(|m| cycles <= m)
    }
}

/// Sequential composition.
impl std::ops::Add for Interval {
    type Output = Interval;

    fn add(self, other: Interval) -> Interval {
        Interval {
            min: self.min + other.min,
            max: match (self.max, other.max) {
                (Some(a), Some(b)) => Some(a + b),
                _ => None,
            },
        }
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.max {
            Some(m) if m == self.min => write!(f, "{}", self.min),
            Some(m) => write!(f, "[{}, {}]", self.min, m),
            None => write!(f, "[{}, ∞)", self.min),
        }
    }
}

/// Per-exit-kind cost of a statement sequence. Each field is the cost
/// interval of the paths leaving the sequence that way, or `None` when no
/// path does.
#[derive(Debug, Clone, Copy, Default)]
struct Paths {
    /// Paths that run to the end of the sequence.
    fall: Option<Interval>,
    /// Paths ending at a `return` (cost includes the return's own price).
    ret: Option<Interval>,
    /// Paths ending at a `break` out of the nearest loop.
    brk: Option<Interval>,
    /// Paths ending at a `continue` of the nearest loop.
    cont: Option<Interval>,
}

fn hull_opt(a: Option<Interval>, b: Option<Interval>) -> Option<Interval> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.hull(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

impl Paths {
    fn fall(cost: Interval) -> Paths {
        Paths {
            fall: Some(cost),
            ..Paths::default()
        }
    }

    /// Merge of two alternative branches.
    fn either(self, other: Paths) -> Paths {
        Paths {
            fall: hull_opt(self.fall, other.fall),
            ret: hull_opt(self.ret, other.ret),
            brk: hull_opt(self.brk, other.brk),
            cont: hull_opt(self.cont, other.cont),
        }
    }

    /// Sequence `next` after the falling paths of `self`.
    fn then(self, next: Paths) -> Paths {
        let Some(pre) = self.fall else {
            // Nothing falls through; `next` is dead.
            return self;
        };
        Paths {
            fall: next.fall.map(|f| pre + f),
            ret: hull_opt(self.ret, next.ret.map(|r| pre + r)),
            brk: hull_opt(self.brk, next.brk.map(|b| pre + b)),
            cont: hull_opt(self.cont, next.cont.map(|c| pre + c)),
        }
    }

    /// The cost of reaching *any* exit of a loop body once (fall-through
    /// to the backedge, `continue`, or `break`), used for do-while minima.
    fn one_trip_min(&self) -> u64 {
        [self.fall, self.brk, self.cont]
            .into_iter()
            .flatten()
            .map(|i| i.min)
            .min()
            .unwrap_or(0)
    }
}

/// Which timing rule to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rule {
    HandelC,
    Transmogrifier,
}

/// Cycle interval for `func` under the Handel-C timing rule. `func` must
/// already be prepared (inlined, unrolled, pointers lowered), i.e. the
/// entry of what `chls_backends::Preparer::structured` returns.
pub fn handelc_interval(func: &HirFunc) -> Interval {
    function_interval(func, Rule::HandelC)
}

/// Cycle interval for `func` under the Transmogrifier timing rule, on the
/// same prepared form. Meaningless (and not computed by the driver) for
/// programs the sequential pipeline rejects (`par`, channels, `delay`).
pub fn transmogrifier_interval(func: &HirFunc) -> Interval {
    function_interval(func, Rule::Transmogrifier)
}

/// Cycle interval of one block under the Handel-C rule, with no
/// entry/done overhead: the per-iteration *service cost* `chls flow`
/// charges when checking a declared `@ii(n)` contract against the rate a
/// sender's loop can actually sustain.
pub fn handelc_block_interval(block: &HirBlock) -> Interval {
    let p = block_paths(block, Rule::HandelC);
    hull_opt(p.fall, p.ret).unwrap_or(Interval::ZERO)
}

fn function_interval(func: &HirFunc, rule: Rule) -> Interval {
    let body = block_paths(&func.body, rule);
    // Every terminating run either returns or falls off the end.
    let inner = hull_opt(body.fall, body.ret).unwrap_or(Interval::ZERO);
    // Entry cycle (Handel-C parameter latch / Transmogrifier entry-region
    // visit) + the Done state both simulators count.
    Interval::exact(2) + inner
}

fn block_paths(block: &HirBlock, rule: Rule) -> Paths {
    let mut acc = Paths::fall(Interval::ZERO);
    for stmt in &block.stmts {
        acc = acc.then(stmt_paths(stmt, rule));
        if acc.fall.is_none() {
            break; // everything after is dead
        }
    }
    acc
}

fn stmt_paths(stmt: &HirStmt, rule: Rule) -> Paths {
    match stmt {
        HirStmt::Assign { .. } => Paths::fall(match rule {
            Rule::HandelC => Interval::exact(1),
            Rule::Transmogrifier => Interval::ZERO,
        }),
        // A send/recv commits in one cycle. It also blocks until its
        // partner is ready, but the stall is charged at the enclosing
        // `par` (sum-of-maxima rule in `par_paths`); outside any `par`
        // there is no partner, the rendezvous deadlocks, and there is no
        // terminating run to bound.
        HirStmt::Send { .. } | HirStmt::Recv { .. } => Paths::fall(match rule {
            Rule::HandelC => Interval::exact(1),
            Rule::Transmogrifier => Interval::ZERO, // rejected anyway
        }),
        HirStmt::Delay => Paths::fall(match rule {
            Rule::HandelC => Interval::exact(1),
            Rule::Transmogrifier => Interval::ZERO, // rejected anyway
        }),
        // Calls only survive when inlining was skipped; no bound.
        HirStmt::Call { .. } => Paths::fall(Interval::at_least(0)),
        HirStmt::Return(_) => Paths {
            ret: Some(match rule {
                // "A bare return still consumes its cycle."
                Rule::HandelC => Interval::exact(1),
                // A `Term::Return` ends its region's visit; no extra cost.
                Rule::Transmogrifier => Interval::ZERO,
            }),
            ..Paths::default()
        },
        HirStmt::Break => Paths {
            brk: Some(Interval::ZERO),
            ..Paths::default()
        },
        HirStmt::Continue => Paths {
            cont: Some(Interval::ZERO),
            ..Paths::default()
        },
        HirStmt::If { then, els, .. } => {
            let mut p = block_paths(then, rule).either(block_paths(els, rule));
            // Transmogrifier: a loop inside either branch puts the branch
            // tail in the loop's region, so the join block is entered from
            // two *different* regions and becomes a region head of its own.
            if rule == Rule::Transmogrifier && (contains_loop(then) || contains_loop(els)) {
                if let Some(f) = p.fall {
                    p.fall = Some(f + Interval::exact(1));
                }
            }
            p
        }
        HirStmt::While { body, .. } => loop_paths(None, body, None, rule, false),
        HirStmt::DoWhile { body, .. } => loop_paths(None, body, None, rule, true),
        HirStmt::For {
            init,
            cond,
            step,
            body,
            ..
        } => {
            let init_p = block_paths(init, rule);
            let trips = recognize(init, cond, step, body)
                .ok()
                .map(|c| c.iterations.len() as u64);
            init_p.then(loop_paths(trips, body, Some(step), rule, false))
        }
        HirStmt::Block(b) => block_paths(b, rule),
        // Both rules ignore the cycle budget: Handel-C has no constraint
        // construct and Transmogrifier schedules by its own rule. The
        // budget is checked by the HardwareC backend, not here.
        HirStmt::Constraint { body, .. } => block_paths(body, rule),
        HirStmt::Par(arms) => par_paths(arms, rule),
    }
}

/// Cost of a loop.
///
/// `trips` is the exact trip count when the canonical recognizer pinned
/// it down (`for` loops only), `step` the for-step block, `at_least_once`
/// true for do-while.
fn loop_paths(
    trips: Option<u64>,
    body: &HirBlock,
    step: Option<&HirBlock>,
    rule: Rule,
    at_least_once: bool,
) -> Paths {
    let b = block_paths(body, rule);
    let s = step.map(|s| block_paths(s, rule));
    // `return` inside the body leaves the loop altogether; any iteration
    // may be the one that returns, so only its minimum survives.
    let ret = b.ret.map(|r| Interval::at_least(r.min));

    // The exact case: known trip count, body and step all fall through
    // (no break/continue/return to cut iterations short).
    let straight = b.brk.is_none() && b.cont.is_none() && b.ret.is_none();
    let step_straight = s.is_none_or(|p| p.brk.is_none() && p.cont.is_none() && p.ret.is_none());
    if let (Some(t), true, true) = (trips, straight, step_straight) {
        let per_trip =
            b.fall.unwrap_or(Interval::ZERO) + s.and_then(|p| p.fall).unwrap_or(Interval::ZERO);
        let fall = match rule {
            // t executions of body + step; conditions are free.
            Rule::HandelC => per_trip.times(t),
            // t + 1 header visits, each trip additionally paying for
            // regions inside the body (nested loops, post-loop joins).
            Rule::Transmogrifier => Interval::exact(t + 1) + per_trip.times(t),
        };
        return Paths {
            fall: Some(fall),
            ret,
            ..Paths::default()
        };
    }

    // The conservative case: trip count unknown or iterations can be cut
    // short. Minimum = cheapest way out; maximum unbounded.
    let min = match rule {
        Rule::HandelC => {
            if at_least_once {
                b.one_trip_min()
            } else {
                0 // condition may be false on entry
            }
        }
        Rule::Transmogrifier => {
            // Even a zero-trip while pays one header visit (the visit
            // whose condition comes up false); a do-while pays for its
            // first trip too.
            if at_least_once {
                1 + b.one_trip_min()
            } else {
                1
            }
        }
    };
    Paths {
        fall: Some(Interval::at_least(min)),
        ret,
        ..Paths::default()
    }
}

/// Cost of a `par` join under lockstep semantics.
fn par_paths(arms: &[HirBlock], rule: Rule) -> Paths {
    // Transmogrifier never sees `par` (sequential pipeline rejects it);
    // return something harmless rather than panic.
    if rule == Rule::Transmogrifier {
        return Paths::fall(Interval::at_least(0));
    }
    let mut costs = Vec::with_capacity(arms.len());
    for arm in arms {
        let p = block_paths(arm, rule);
        if p.ret.is_some() || p.brk.is_some() || p.cont.is_some() {
            // Non-local exit from a par arm: give up on a finite bound.
            return Paths::fall(Interval::at_least(0));
        }
        costs.push(p.fall.unwrap_or(Interval::ZERO));
    }
    let rendezvous = arms.iter().any(contains_channel_op);
    // The join waits for the slowest arm, so min is the max of minima
    // either way. Without channels arms run independently in lockstep
    // and max is the max of maxima; with channels an arm can stall for a
    // sibling, but every cycle some arm commits a cycle node (else the
    // program deadlocks), so the sum of maxima still bounds the join.
    let min = costs.iter().map(|c| c.min).max().unwrap_or(0);
    let max = if costs.iter().any(|c| c.max.is_none()) {
        None
    } else if rendezvous {
        Some(costs.iter().map(|c| c.max.unwrap()).sum())
    } else {
        costs.iter().map(|c| c.max.unwrap()).max()
    };
    Paths::fall(Interval { min, max })
}

/// Whether a block contains a loop at any depth (region-head inducing,
/// for the Transmogrifier if-join rule).
fn contains_loop(block: &HirBlock) -> bool {
    block.any_stmt(&mut |s| {
        matches!(
            s,
            HirStmt::While { .. } | HirStmt::DoWhile { .. } | HirStmt::For { .. }
        )
    })
}

/// Whether a block performs a send or recv at any depth.
fn contains_channel_op(block: &HirBlock) -> bool {
    block.any_stmt(&mut |s| matches!(s, HirStmt::Send { .. } | HirStmt::Recv { .. }))
}

//! Static process-network analysis (`chls flow`).
//!
//! The paper's deepest complaint about C-like hardware languages is that
//! concurrency and communication are bolted on without a semantics a
//! compiler can *reason* about: a Handel-C program with a pair of
//! misordered rendezvous deadlocks silently, a rate-mismatched pipeline
//! starves or accumulates, and nothing in the type system says so. This
//! module recovers the process-network view statically:
//!
//! 1. **Graph extraction** — every arm of a top-level `par` in the
//!    inlined entry function becomes a *process* node; every channel a
//!    shared edge, annotated with per-activation send/recv counts as
//!    [`Interval`]s (counted loops multiply exactly via the canonical
//!    trip-count recognizer, data-dependent loops widen to `[0, ∞)`).
//! 2. **Balance (SDF) checking** — per channel, total sends must be able
//!    to equal total recvs; a channel whose best-case production exceeds
//!    its worst-case consumption *accumulates* (the sender eventually
//!    blocks forever on a rendezvous nobody answers) and is a lint error.
//!    The converse *starves* the receivers.
//! 3. **Structural deadlock detection** — processes whose communication
//!    traces expand finitely play an abstract token game; a stuck
//!    configuration yields a wait-for graph whose cycle is reported
//!    span-anchored (`arm 0 → arm 1 → arm 0`), covering the classic
//!    send/send ordering deadlock. Traces that cannot be expanded
//!    (input-dependent communication) skip the game — the analysis never
//!    reports a deadlock it cannot prove.
//! 4. **Bounded-FIFO sizing** — for order-induced deadlocks on otherwise
//!    balanced networks, a greedy search finds minimal per-channel buffer
//!    capacities under which the token game completes: "channel `a`
//!    needs capacity ≥ 1" is the refactoring hint.
//! 5. **Timed-interface contracts** — a `@ii(n)` annotation on a channel
//!    declaration promises one service every `n` cycles; the achieved
//!    interval of the sender's innermost loop (Handel-C timing rule, see
//!    [`crate::cycles::handelc_block_interval`]) is checked against the
//!    promise via [`chls_sched::ii::check_contract`]. Over-promising is
//!    an error.
//!
//! Every deadlock verdict is differentially validated in `tests/flow.rs`:
//! a program this module flags must actually hang in the token simulator
//! (interpreter *and* FSMD product construction), and a clean program
//! must complete across backends.

use crate::cycles::{handelc_block_interval, Interval};
use crate::LintError;
use chls_frontend::diag::{Diagnostic, Severity};
use chls_frontend::hir::{HirBlock, HirFunc, HirProgram, HirStmt, LocalId};
use chls_frontend::Span;
use chls_opt::unroll::recognize;
use chls_sched::ii::{check_contract, ContractVerdict};
use std::collections::BTreeMap;
use std::fmt;

/// Direction of a channel endpoint operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Dir {
    /// A `send` — the writing end.
    Send,
    /// A `recv` — the reading end.
    Recv,
}

impl Dir {
    fn opposite(self) -> Dir {
        match self {
            Dir::Send => Dir::Recv,
            Dir::Recv => Dir::Send,
        }
    }
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Dir::Send => "send",
            Dir::Recv => "recv",
        })
    }
}

/// One channel operation in a process's expanded communication trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Op {
    chan: LocalId,
    dir: Dir,
    span: Span,
}

/// Per-channel send/recv counts for one process, per activation.
#[derive(Debug, Clone, Copy)]
pub struct Rate {
    /// How many sends the process performs on the channel.
    pub sends: Interval,
    /// How many recvs the process performs on the channel.
    pub recvs: Interval,
}

impl Rate {
    const ZERO: Rate = Rate {
        sends: Interval::ZERO,
        recvs: Interval::ZERO,
    };
}

type Rates = BTreeMap<LocalId, Rate>;

/// Verdict of the balance (SDF rate) equations for one channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Balance {
    /// Production provably equals consumption.
    Balanced,
    /// Best-case sends exceed worst-case recvs: tokens pile up, and on a
    /// rendezvous channel the sender eventually blocks forever.
    Accumulates,
    /// Best-case recvs exceed worst-case sends: a receiver blocks forever.
    Starves,
    /// The intervals overlap; no verdict either way.
    Unknown,
}

impl fmt::Display for Balance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Balance::Balanced => "balanced",
            Balance::Accumulates => "accumulates",
            Balance::Starves => "starves",
            Balance::Unknown => "unknown",
        })
    }
}

/// One channel of a process network, with its solved rates.
#[derive(Debug, Clone)]
pub struct ChannelReport {
    /// Source name of the channel local.
    pub name: String,
    /// Total sends per activation, over all processes.
    pub sends: Interval,
    /// Total recvs per activation, over all processes.
    pub recvs: Interval,
    /// How many processes send on the channel.
    pub senders: usize,
    /// How many processes receive on the channel.
    pub receivers: usize,
    /// Balance-equation verdict.
    pub balance: Balance,
}

/// One blocked endpoint in a stuck configuration.
#[derive(Debug, Clone)]
pub struct BlockedEndpoint {
    /// Process name (`arm N`, matching the simulators' labels).
    pub process: String,
    /// Channel name.
    pub channel: String,
    /// Direction the process is blocked in.
    pub dir: Dir,
    /// Source location of the blocked operation.
    pub span: Span,
}

/// A proved structural deadlock.
#[derive(Debug, Clone)]
pub struct DeadlockReport {
    /// Wait-for cycle as process names, first repeated last when a true
    /// cycle exists; empty for partner-exhaustion deadlocks (a process
    /// blocked with every potential partner already terminated).
    pub cycle: Vec<String>,
    /// Every blocked endpoint of the stuck configuration.
    pub blocked: Vec<BlockedEndpoint>,
}

/// A minimal buffer capacity that breaks an order-induced deadlock.
#[derive(Debug, Clone)]
pub struct CapacityNeed {
    /// Channel name.
    pub channel: String,
    /// Required capacity (tokens of slack).
    pub capacity: u64,
}

/// Verdict on one declared `@ii(n)` contract.
#[derive(Debug, Clone)]
pub struct ContractReport {
    /// Channel name.
    pub channel: String,
    /// Declared interval (the promise).
    pub declared: u32,
    /// Achieved service interval of the sending loop, Handel-C rule.
    pub achieved: Interval,
    /// Met / at risk / violated.
    pub verdict: ContractVerdict,
}

/// One `par` statement's process network, analyzed per activation.
#[derive(Debug, Clone)]
pub struct NetworkReport {
    /// Process names, in arm order.
    pub processes: Vec<String>,
    /// Channels at least one process touches.
    pub channels: Vec<ChannelReport>,
    /// Proved structural deadlock, if any.
    pub deadlock: Option<DeadlockReport>,
    /// Buffer capacities that would break the deadlock, when one exists
    /// and the network is otherwise balanced.
    pub capacities: Vec<CapacityNeed>,
    /// Why the token game was skipped, when it was (input-dependent
    /// communication somewhere in the network).
    pub skipped: Option<String>,
}

/// Everything `chls flow` found.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// Entry function analyzed.
    pub entry: String,
    /// One entry per top-level `par` statement, in program order.
    pub networks: Vec<NetworkReport>,
    /// Declared-contract verdicts, over all channels with `@ii(n)`.
    pub contracts: Vec<ContractReport>,
    /// Span-anchored diagnostics: rate mismatches, deadlocks, contract
    /// violations, and channel ops outside any `par`.
    pub diags: Vec<Diagnostic>,
}

impl FlowReport {
    /// Whether the program has findings that make the process network
    /// wrong: a proved deadlock, a definite rate mismatch, or a violated
    /// contract — anything serialized as an error-severity diagnostic.
    pub fn has_errors(&self) -> bool {
        self.diags.iter().any(|d| d.severity == Severity::Error)
            || self.networks.iter().any(|n| n.deadlock.is_some())
    }

    /// Renders the report as human-readable text, resolving spans
    /// against `src`.
    pub fn render(&self, src: &str) -> String {
        let mut out = String::new();
        for d in &self.diags {
            out.push_str(&d.render(src));
            out.push('\n');
        }
        for (i, n) in self.networks.iter().enumerate() {
            out.push_str(&format!(
                "process network {}: {} process{}, {} channel{}\n",
                i + 1,
                n.processes.len(),
                if n.processes.len() == 1 { "" } else { "es" },
                n.channels.len(),
                if n.channels.len() == 1 { "" } else { "s" },
            ));
            for c in &n.channels {
                out.push_str(&format!(
                    "  channel `{}`: {} send{} / {} recv{} per activation — {}\n",
                    c.name,
                    c.sends,
                    if c.sends == Interval::exact(1) {
                        ""
                    } else {
                        "s"
                    },
                    c.recvs,
                    if c.recvs == Interval::exact(1) {
                        ""
                    } else {
                        "s"
                    },
                    c.balance,
                ));
            }
            if let Some(d) = &n.deadlock {
                if d.cycle.is_empty() {
                    out.push_str("  deadlock: no partner remains for the blocked endpoint(s)\n");
                } else {
                    out.push_str(&format!("  deadlock cycle: {}\n", d.cycle.join(" → ")));
                }
                for b in &d.blocked {
                    out.push_str(&format!(
                        "    {} blocked on {}({})\n",
                        b.process, b.dir, b.channel
                    ));
                }
            }
            for c in &n.capacities {
                out.push_str(&format!(
                    "  fix: channel `{}` needs capacity ≥ {}\n",
                    c.channel, c.capacity
                ));
            }
            if let Some(why) = &n.skipped {
                out.push_str(&format!("  deadlock analysis skipped: {why}\n"));
            }
        }
        for c in &self.contracts {
            out.push_str(&format!(
                "contract `{}` @ii({}): achieves {} cycles per service — {}\n",
                c.channel, c.declared, c.achieved, c.verdict
            ));
        }
        let deadlocks = self
            .networks
            .iter()
            .filter(|n| n.deadlock.is_some())
            .count();
        let errors = self
            .diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        out.push_str(&format!(
            "summary: {} network{}, {} deadlock{}, {} error{}, {} contract{}\n",
            self.networks.len(),
            if self.networks.len() == 1 { "" } else { "s" },
            deadlocks,
            if deadlocks == 1 { "" } else { "s" },
            errors,
            if errors == 1 { "" } else { "s" },
            self.contracts.len(),
            if self.contracts.len() == 1 { "" } else { "s" },
        ));
        out
    }
}

/// Runs the process-network analysis over `prog`'s `entry` function.
///
/// Like [`crate::lint_program`], the analysis runs on the inlined entry
/// function so callee communication lands in the caller's `par` arms.
///
/// # Errors
///
/// [`LintError::NoSuchFunction`] when `entry` does not exist.
pub fn flow_program(prog: &HirProgram, entry: &str) -> Result<FlowReport, LintError> {
    let (entry_id, entry_func) = prog
        .func_by_name(entry)
        .ok_or_else(|| LintError::NoSuchFunction(entry.to_string()))?;
    let inlined = chls_opt::inline_program(prog, entry_id).ok();
    let func: &HirFunc = inlined.as_ref().map(|p| &p.funcs[0]).unwrap_or(entry_func);
    Ok(analyze(func, entry))
}

fn analyze(func: &HirFunc, entry: &str) -> FlowReport {
    let mut diags = Vec::new();
    let mut pars: Vec<&[HirBlock]> = Vec::new();
    let mut outside: Vec<Op> = Vec::new();
    collect_pars(&func.body, &mut pars, &mut outside);

    // A rendezvous outside any `par` has no concurrent partner: it can
    // never complete. One diagnostic per channel endpoint.
    let mut seen: Vec<(LocalId, Dir)> = Vec::new();
    for op in &outside {
        if seen.contains(&(op.chan, op.dir)) {
            continue;
        }
        seen.push((op.chan, op.dir));
        diags.push(Diagnostic::error(
            format!(
                "{}({}) outside `par` can never complete: a rendezvous needs a concurrent partner",
                op.dir,
                func.local(op.chan).name
            ),
            op.span,
        ));
    }

    let mut networks = Vec::new();
    let mut contracts = Vec::new();
    for arms in &pars {
        networks.push(analyze_network(arms, func, &mut diags));
        check_contracts(arms, func, &mut contracts, &mut diags);
    }

    FlowReport {
        entry: entry.to_string(),
        networks,
        contracts,
        diags,
    }
}

/// Finds every `par` not nested inside another `par` (nested `par`s are
/// analyzed as part of their enclosing arm), plus channel ops reachable
/// outside all of them.
fn collect_pars<'a>(block: &'a HirBlock, pars: &mut Vec<&'a [HirBlock]>, outside: &mut Vec<Op>) {
    for stmt in &block.stmts {
        match stmt {
            HirStmt::Par(arms) => pars.push(arms),
            HirStmt::Send { chan, span, .. } => outside.push(Op {
                chan: *chan,
                dir: Dir::Send,
                span: *span,
            }),
            HirStmt::Recv { chan, span, .. } => outside.push(Op {
                chan: *chan,
                dir: Dir::Recv,
                span: *span,
            }),
            _ => {
                for b in stmt.blocks() {
                    collect_pars(b, pars, outside);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rate counting
// ---------------------------------------------------------------------

fn single(chan: LocalId, dir: Dir) -> Rates {
    let mut m = Rates::new();
    let r = match dir {
        Dir::Send => Rate {
            sends: Interval::exact(1),
            recvs: Interval::ZERO,
        },
        Dir::Recv => Rate {
            sends: Interval::ZERO,
            recvs: Interval::exact(1),
        },
    };
    m.insert(chan, r);
    m
}

/// Sequential composition: counts add.
fn seq(mut a: Rates, b: Rates) -> Rates {
    for (k, r) in b {
        let e = a.entry(k).or_insert(Rate::ZERO);
        e.sends = e.sends + r.sends;
        e.recvs = e.recvs + r.recvs;
    }
    a
}

/// Branch merge: interval hull, with a missing side counting zero.
fn branch(a: Rates, b: Rates) -> Rates {
    let mut out = Rates::new();
    for k in a.keys().chain(b.keys()) {
        let ra = a.get(k).copied().unwrap_or(Rate::ZERO);
        let rb = b.get(k).copied().unwrap_or(Rate::ZERO);
        out.insert(
            *k,
            Rate {
                sends: ra.sends.hull(rb.sends),
                recvs: ra.recvs.hull(rb.recvs),
            },
        );
    }
    out
}

/// `t` exact repetitions.
fn scale(m: Rates, t: u64) -> Rates {
    m.into_iter()
        .map(|(k, r)| {
            (
                k,
                Rate {
                    sends: r.sends.times(t),
                    recvs: r.recvs.times(t),
                },
            )
        })
        .collect()
}

/// Unknown trip count: a nonzero per-iteration count widens to
/// `[0, ∞)` (or `[min, ∞)` when the loop runs at least once).
fn relax(m: Rates, at_least_once: bool) -> Rates {
    let widen = |i: Interval| {
        if i == Interval::ZERO {
            i
        } else {
            Interval {
                min: if at_least_once { i.min } else { 0 },
                max: None,
            }
        }
    };
    m.into_iter()
        .map(|(k, r)| {
            (
                k,
                Rate {
                    sends: widen(r.sends),
                    recvs: widen(r.recvs),
                },
            )
        })
        .collect()
}

fn count_block(block: &HirBlock) -> Rates {
    let mut acc = Rates::new();
    for stmt in &block.stmts {
        acc = seq(acc, count_stmt(stmt));
    }
    acc
}

fn count_stmt(stmt: &HirStmt) -> Rates {
    match stmt {
        HirStmt::Send { chan, .. } => single(*chan, Dir::Send),
        HirStmt::Recv { chan, .. } => single(*chan, Dir::Recv),
        HirStmt::If { then, els, .. } => branch(count_block(then), count_block(els)),
        HirStmt::For {
            init,
            cond,
            step,
            body,
            ..
        } => {
            let inner = seq(count_block(body), count_block(step));
            let head = count_block(init);
            match recognize(init, cond, step, body) {
                Ok(c) if !escapes(body) && !escapes(step) => {
                    seq(head, scale(inner, c.iterations.len() as u64))
                }
                _ => seq(head, relax(inner, false)),
            }
        }
        HirStmt::While { body, .. } => relax(count_block(body), false),
        HirStmt::DoWhile { body, .. } => relax(count_block(body), true),
        HirStmt::Par(arms) => arms
            .iter()
            .fold(Rates::new(), |acc, a| seq(acc, count_block(a))),
        HirStmt::Block(b) | HirStmt::Constraint { body: b, .. } => count_block(b),
        _ => Rates::new(),
    }
}

/// Whether control can leave the block early relative to its own loop:
/// a top-level `break`/`continue` (not swallowed by a nested loop) or a
/// `return` anywhere. Either invalidates exact trip-count scaling.
fn escapes(block: &HirBlock) -> bool {
    block.stmts.iter().any(|s| match s {
        HirStmt::Break | HirStmt::Continue | HirStmt::Return(_) => true,
        HirStmt::While { .. } | HirStmt::DoWhile { .. } | HirStmt::For { .. } => {
            s.blocks().any(contains_return)
        }
        _ => s.blocks().any(escapes),
    })
}

fn contains_return(block: &HirBlock) -> bool {
    block.any_stmt(&mut |s| matches!(s, HirStmt::Return(_)))
}

// ---------------------------------------------------------------------
// Trace expansion
// ---------------------------------------------------------------------

/// Expansion cap: a trace longer than this is treated as inexpandable
/// rather than ballooning analysis time.
const MAX_TRACE: usize = 4096;

fn expand_block(block: &HirBlock, out: &mut Vec<Op>) -> Result<(), String> {
    for stmt in &block.stmts {
        expand_stmt(stmt, out)?;
    }
    Ok(())
}

fn push_op(out: &mut Vec<Op>, op: Op) -> Result<(), String> {
    if out.len() >= MAX_TRACE {
        return Err(format!(
            "communication trace exceeds {MAX_TRACE} operations"
        ));
    }
    out.push(op);
    Ok(())
}

fn expand_stmt(stmt: &HirStmt, out: &mut Vec<Op>) -> Result<(), String> {
    match stmt {
        HirStmt::Send { chan, span, .. } => push_op(
            out,
            Op {
                chan: *chan,
                dir: Dir::Send,
                span: *span,
            },
        ),
        HirStmt::Recv { chan, span, .. } => push_op(
            out,
            Op {
                chan: *chan,
                dir: Dir::Recv,
                span: *span,
            },
        ),
        HirStmt::If { then, els, .. } => {
            let mut a = Vec::new();
            let mut b = Vec::new();
            expand_block(then, &mut a)?;
            expand_block(els, &mut b)?;
            let same = a.len() == b.len()
                && a.iter()
                    .zip(&b)
                    .all(|(x, y)| x.chan == y.chan && x.dir == y.dir);
            if !same {
                return Err("input-dependent communication in `if`".to_string());
            }
            for op in a {
                push_op(out, op)?;
            }
            Ok(())
        }
        HirStmt::For {
            init,
            cond,
            step,
            body,
            ..
        } => {
            expand_block(init, out)?;
            match recognize(init, cond, step, body) {
                Ok(c) if !escapes(body) && !escapes(step) => {
                    let mut once = Vec::new();
                    expand_block(body, &mut once)?;
                    expand_block(step, &mut once)?;
                    for _ in 0..c.iterations.len() {
                        for op in &once {
                            push_op(out, *op)?;
                        }
                    }
                    Ok(())
                }
                _ => {
                    if count_block(body).is_empty() && count_block(step).is_empty() {
                        Ok(())
                    } else {
                        Err("channel operations in a data-dependent loop".to_string())
                    }
                }
            }
        }
        HirStmt::While { body, .. } | HirStmt::DoWhile { body, .. } => {
            if count_block(body).is_empty() {
                Ok(())
            } else {
                Err("channel operations in a data-dependent loop".to_string())
            }
        }
        HirStmt::Par(arms) => {
            if arms.iter().any(|a| !count_block(a).is_empty()) {
                Err("channel operations in a nested `par`".to_string())
            } else {
                Ok(())
            }
        }
        HirStmt::Return(_) => Err("`return` inside a process arm".to_string()),
        HirStmt::Block(b) | HirStmt::Constraint { body: b, .. } => expand_block(b, out),
        _ => Ok(()),
    }
}

// ---------------------------------------------------------------------
// Token game
// ---------------------------------------------------------------------

enum GameResult {
    Completes,
    /// Blocked (process index, pc) pairs of the stuck configuration.
    Stuck(Vec<(usize, usize)>),
}

/// Plays the abstract token game: rendezvous fire when a send and a recv
/// on the same channel are both at the front of their traces; a channel
/// with capacity in `caps` additionally lets sends complete into (and
/// recvs drain from) its buffer.
fn play(procs: &[Vec<Op>], caps: &BTreeMap<LocalId, u64>) -> GameResult {
    let n = procs.len();
    let mut pc = vec![0usize; n];
    let mut buf: BTreeMap<LocalId, u64> = BTreeMap::new();
    loop {
        let mut progressed = false;
        // Buffered moves first: they never block anyone else.
        for p in 0..n {
            while pc[p] < procs[p].len() {
                let op = procs[p][pc[p]];
                let fired = match op.dir {
                    Dir::Send => {
                        let cap = caps.get(&op.chan).copied().unwrap_or(0);
                        let fill = buf.get(&op.chan).copied().unwrap_or(0);
                        if fill < cap {
                            *buf.entry(op.chan).or_insert(0) += 1;
                            true
                        } else {
                            false
                        }
                    }
                    Dir::Recv => {
                        let fill = buf.get(&op.chan).copied().unwrap_or(0);
                        if fill > 0 {
                            *buf.entry(op.chan).or_insert(0) -= 1;
                            true
                        } else {
                            false
                        }
                    }
                };
                if !fired {
                    break;
                }
                pc[p] += 1;
                progressed = true;
            }
        }
        // Rendezvous moves: one matched pair per scan.
        'pair: for p in 0..n {
            if pc[p] >= procs[p].len() {
                continue;
            }
            let a = procs[p][pc[p]];
            for q in 0..n {
                if q == p || pc[q] >= procs[q].len() {
                    continue;
                }
                let b = procs[q][pc[q]];
                if a.chan == b.chan && a.dir == b.dir.opposite() {
                    pc[p] += 1;
                    pc[q] += 1;
                    progressed = true;
                    break 'pair;
                }
            }
        }
        if !progressed {
            break;
        }
    }
    let blocked: Vec<(usize, usize)> = (0..n)
        .filter(|&p| pc[p] < procs[p].len())
        .map(|p| (p, pc[p]))
        .collect();
    if blocked.is_empty() {
        GameResult::Completes
    } else {
        GameResult::Stuck(blocked)
    }
}

/// Extracts a wait-for cycle from a stuck configuration: blocked process
/// `p` waits for every blocked process whose *remaining* trace contains
/// the complementary endpoint of `p`'s channel.
fn waitfor_cycle(procs: &[Vec<Op>], blocked: &[(usize, usize)]) -> Vec<usize> {
    let edges: BTreeMap<usize, Vec<usize>> = blocked
        .iter()
        .map(|&(p, at)| {
            let op = procs[p][at];
            let want = op.dir.opposite();
            let targets = blocked
                .iter()
                .filter(|&&(q, _)| q != p)
                .filter(|&&(q, qat)| {
                    procs[q][qat..]
                        .iter()
                        .any(|o| o.chan == op.chan && o.dir == want)
                })
                .map(|&(q, _)| q)
                .collect();
            (p, targets)
        })
        .collect();
    // DFS from each blocked node looking for a cycle back to itself.
    for &(start, _) in blocked {
        let mut path = Vec::new();
        let mut visited = Vec::new();
        if dfs_cycle(start, start, &edges, &mut path, &mut visited) {
            return path;
        }
    }
    Vec::new()
}

fn dfs_cycle(
    node: usize,
    target: usize,
    edges: &BTreeMap<usize, Vec<usize>>,
    path: &mut Vec<usize>,
    visited: &mut Vec<usize>,
) -> bool {
    if visited.contains(&node) {
        return false;
    }
    visited.push(node);
    path.push(node);
    for &next in edges.get(&node).map(Vec::as_slice).unwrap_or(&[]) {
        if next == target {
            return true;
        }
        if dfs_cycle(next, target, edges, path, visited) {
            return true;
        }
    }
    path.pop();
    false
}

// ---------------------------------------------------------------------
// Per-network analysis
// ---------------------------------------------------------------------

fn proc_name(i: usize) -> String {
    format!("arm {i}")
}

fn analyze_network(
    arms: &[HirBlock],
    func: &HirFunc,
    diags: &mut Vec<Diagnostic>,
) -> NetworkReport {
    let processes: Vec<String> = (0..arms.len()).map(proc_name).collect();
    let per_arm: Vec<Rates> = arms.iter().map(count_block).collect();

    // Channel totals + endpoint cardinality.
    let mut totals: BTreeMap<LocalId, (Interval, Interval, usize, usize)> = BTreeMap::new();
    for rates in &per_arm {
        for (chan, r) in rates {
            let e = totals
                .entry(*chan)
                .or_insert((Interval::ZERO, Interval::ZERO, 0, 0));
            e.0 = e.0 + r.sends;
            e.1 = e.1 + r.recvs;
            if r.sends != Interval::ZERO {
                e.2 += 1;
            }
            if r.recvs != Interval::ZERO {
                e.3 += 1;
            }
        }
    }

    let spans = op_spans(arms);
    let mut channels = Vec::new();
    let mut mismatched = false;
    for (chan, (sends, recvs, senders, receivers)) in &totals {
        let exact = |i: Interval| i.max == Some(i.min);
        let balance = if exact(*sends) && exact(*recvs) && sends.min == recvs.min {
            Balance::Balanced
        } else if recvs.max.is_some_and(|m| sends.min > m) {
            Balance::Accumulates
        } else if sends.max.is_some_and(|m| recvs.min > m) {
            Balance::Starves
        } else {
            Balance::Unknown
        };
        let name = func.local(*chan).name.clone();
        if matches!(balance, Balance::Accumulates | Balance::Starves) {
            mismatched = true;
            let (stuck_dir, verb) = match balance {
                Balance::Accumulates => (Dir::Send, "accumulates: a sender blocks forever"),
                _ => (Dir::Recv, "starves: a receiver blocks forever"),
            };
            let span = spans
                .get(&(*chan, stuck_dir))
                .or_else(|| spans.get(&(*chan, stuck_dir.opposite())))
                .copied()
                .unwrap_or_else(Span::dummy);
            diags.push(Diagnostic::error(
                format!(
                    "rate mismatch on channel `{name}`: {sends} sends vs {recvs} recvs per activation — channel {verb}"
                ),
                span,
            ));
        }
        channels.push(ChannelReport {
            name,
            sends: *sends,
            recvs: *recvs,
            senders: *senders,
            receivers: *receivers,
            balance,
        });
    }

    // Expand traces; any failure skips the token game for the network.
    let mut traces = Vec::new();
    let mut skipped = None;
    for (i, arm) in arms.iter().enumerate() {
        let mut t = Vec::new();
        match expand_block(arm, &mut t) {
            Ok(()) => traces.push(t),
            Err(why) => {
                skipped = Some(format!("{} in {}", why, proc_name(i)));
                break;
            }
        }
    }

    let mut deadlock = None;
    let mut capacities = Vec::new();
    if skipped.is_none() {
        if let GameResult::Stuck(blocked) = play(&traces, &BTreeMap::new()) {
            let cycle_idx = waitfor_cycle(&traces, &blocked);
            let blocked_eps: Vec<BlockedEndpoint> = blocked
                .iter()
                .map(|&(p, at)| {
                    let op = traces[p][at];
                    BlockedEndpoint {
                        process: proc_name(p),
                        channel: func.local(op.chan).name.clone(),
                        dir: op.dir,
                        span: op.span,
                    }
                })
                .collect();
            let mut cycle: Vec<String> = cycle_idx.iter().map(|&p| proc_name(p)).collect();
            if let Some(first) = cycle.first().cloned() {
                cycle.push(first);
            }
            let msg = if cycle.is_empty() {
                let parts: Vec<String> = blocked_eps
                    .iter()
                    .map(|b| format!("{} blocked on {}({})", b.process, b.dir, b.channel))
                    .collect();
                format!(
                    "structural deadlock: {} — no partner remains",
                    parts.join(", ")
                )
            } else {
                format!("structural deadlock cycle: {}", cycle.join(" → "))
            };
            let mut d = Diagnostic::error(
                msg,
                blocked_eps
                    .first()
                    .map(|b| b.span)
                    .unwrap_or_else(Span::dummy),
            );
            for b in &blocked_eps {
                d = d.with_note(
                    format!("{} blocked on {}({}) here", b.process, b.dir, b.channel),
                    b.span,
                );
            }
            diags.push(d);

            // Buffer sizing only repairs *order-induced* deadlocks; an
            // unbalanced channel just fills any finite buffer too.
            if !mismatched && !cycle_idx.is_empty() {
                capacities = size_buffers(&traces, func);
            }
            deadlock = Some(DeadlockReport {
                cycle,
                blocked: blocked_eps,
            });
        }
    }

    NetworkReport {
        processes,
        channels,
        deadlock,
        capacities,
        skipped,
    }
}

/// Greedy minimal capacity search: bump the channel of a blocked send
/// until the game completes, then shrink each capacity to its minimum.
fn size_buffers(procs: &[Vec<Op>], func: &HirFunc) -> Vec<CapacityNeed> {
    const MAX_CAP: u64 = 16;
    let mut caps: BTreeMap<LocalId, u64> = BTreeMap::new();
    for _ in 0..64 {
        match play(procs, &caps) {
            GameResult::Completes => break,
            GameResult::Stuck(blocked) => {
                let Some(op) = blocked
                    .iter()
                    .map(|&(p, at)| procs[p][at])
                    .find(|op| op.dir == Dir::Send)
                else {
                    return Vec::new(); // only receivers blocked: buffering cannot help
                };
                let e = caps.entry(op.chan).or_insert(0);
                *e += 1;
                if *e > MAX_CAP {
                    return Vec::new();
                }
            }
        }
    }
    if !matches!(play(procs, &caps), GameResult::Completes) {
        return Vec::new();
    }
    // Shrink each capacity while the game still completes.
    let chans: Vec<LocalId> = caps.keys().copied().collect();
    for c in chans {
        while caps.get(&c).copied().unwrap_or(0) > 0 {
            *caps.get_mut(&c).unwrap() -= 1;
            if !matches!(play(procs, &caps), GameResult::Completes) {
                *caps.get_mut(&c).unwrap() += 1;
                break;
            }
        }
    }
    caps.into_iter()
        .filter(|(_, k)| *k > 0)
        .map(|(c, k)| CapacityNeed {
            channel: func.local(c).name.clone(),
            capacity: k,
        })
        .collect()
}

/// First source span per (channel, direction) across all arms.
fn op_spans(arms: &[HirBlock]) -> BTreeMap<(LocalId, Dir), Span> {
    let mut out = BTreeMap::new();
    for arm in arms {
        arm.for_each_stmt(&mut |stmt| match stmt {
            HirStmt::Send { chan, span, .. } => {
                out.entry((*chan, Dir::Send)).or_insert(*span);
            }
            HirStmt::Recv { chan, span, .. } => {
                out.entry((*chan, Dir::Recv)).or_insert(*span);
            }
            _ => {}
        });
    }
    out
}

// ---------------------------------------------------------------------
// @ii(n) contracts
// ---------------------------------------------------------------------

fn check_contracts(
    arms: &[HirBlock],
    func: &HirFunc,
    contracts: &mut Vec<ContractReport>,
    diags: &mut Vec<Diagnostic>,
) {
    let spans = op_spans(arms);
    // Channels with a declared contract that some arm sends on.
    let mut declared: Vec<(LocalId, u32)> = Vec::new();
    for (key, _) in spans.iter() {
        let (chan, dir) = *key;
        if dir != Dir::Send {
            continue;
        }
        if let Some(n) = func.local(chan).ii {
            if !declared.iter().any(|(c, _)| *c == chan) {
                declared.push((chan, n));
            }
        }
    }
    for (chan, n) in declared {
        let mut achieved: Option<Interval> = None;
        for arm in arms {
            if !block_sends(arm, chan) {
                continue;
            }
            let i = sender_interval(arm, chan).unwrap_or_else(|| handelc_block_interval(arm));
            achieved = Some(match achieved {
                Some(a) => a.hull(i),
                None => i,
            });
        }
        let Some(achieved) = achieved else { continue };
        let verdict = check_contract(n, achieved.min, achieved.max);
        let name = func.local(chan).name.clone();
        let span = spans
            .get(&(chan, Dir::Send))
            .copied()
            .unwrap_or_else(Span::dummy);
        match verdict {
            ContractVerdict::Violated => diags.push(Diagnostic::error(
                format!(
                    "channel `{name}` declares @ii({n}) but its sender achieves {achieved} cycles per service — contract violated (over-promised)"
                ),
                span,
            )),
            ContractVerdict::AtRisk => diags.push(Diagnostic::warning(
                format!(
                    "channel `{name}` declares @ii({n}) but its sender's worst case is {achieved} cycles per service — contract at risk"
                ),
                span,
            )),
            ContractVerdict::Met => {}
        }
        contracts.push(ContractReport {
            channel: name,
            declared: n,
            achieved,
            verdict,
        });
    }
}

fn block_sends(block: &HirBlock, chan: LocalId) -> bool {
    count_block(block)
        .get(&chan)
        .is_some_and(|r| r.sends != Interval::ZERO)
}

/// Handel-C cycle interval of the innermost loop whose body sends on
/// `chan` — the steady-state service period of the sender.
fn sender_interval(block: &HirBlock, chan: LocalId) -> Option<Interval> {
    block.stmts.iter().find_map(|stmt| match stmt {
        HirStmt::For { step, body, .. } => sender_interval(body, chan).or_else(|| {
            block_sends(body, chan)
                .then(|| handelc_block_interval(body) + handelc_block_interval(step))
        }),
        HirStmt::While { body, .. } | HirStmt::DoWhile { body, .. } => sender_interval(body, chan)
            .or_else(|| block_sends(body, chan).then(|| handelc_block_interval(body))),
        _ => stmt.blocks().find_map(|b| sender_interval(b, chan)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chls_frontend::compile_to_hir;
    use chls_frontend::hir::HirExpr;
    use chls_frontend::Type;

    #[test]
    fn escapes_sees_through_nested_loops_only_for_return() {
        let b = |s: HirStmt| HirBlock { stmts: vec![s] };
        let t = || HirExpr::konst(1, Type::Bool);
        for jump in [HirStmt::Break, HirStmt::Continue, HirStmt::Return(None)] {
            let is_return = matches!(jump, HirStmt::Return(_));
            let nested = [
                HirStmt::While {
                    cond: t(),
                    body: b(jump.clone()),
                    unroll: None,
                },
                HirStmt::DoWhile {
                    body: b(jump.clone()),
                    cond: t(),
                },
                HirStmt::For {
                    init: HirBlock::default(),
                    cond: t(),
                    step: HirBlock::default(),
                    body: b(jump.clone()),
                    unroll: None,
                },
            ];
            for s in nested {
                assert_eq!(escapes(&b(s.clone())), is_return, "{s:?}");
            }
            let enclosing = [
                HirStmt::If {
                    cond: t(),
                    then: HirBlock::default(),
                    els: b(jump.clone()),
                },
                HirStmt::Par(vec![HirBlock::default(), b(jump.clone())]),
                HirStmt::Block(b(jump.clone())),
            ];
            for s in enclosing {
                assert!(escapes(&b(s.clone())), "{s:?}");
            }
        }
    }

    fn flow(src: &str) -> FlowReport {
        let prog = compile_to_hir(src).expect("compile");
        flow_program(&prog, "main").expect("flow")
    }

    #[test]
    fn balanced_pipeline_is_clean() {
        let r = flow(
            "int main() { chan<int> c1; chan<int> c2; int out = 0; par { \
             { for (int i = 0; i < 8; i = i + 1) { send(c1, i); } } \
             { for (int j = 0; j < 8; j = j + 1) { send(c2, recv(c1) * 2); } } \
             { for (int k = 0; k < 8; k = k + 1) { out = out + recv(c2); } } } return out; }",
        );
        assert!(!r.has_errors(), "diags: {:?}", r.diags);
        let net = &r.networks[0];
        assert_eq!(net.processes.len(), 3);
        assert!(net.deadlock.is_none());
        assert!(net.channels.iter().all(|c| c.balance == Balance::Balanced));
        assert_eq!(net.channels[0].sends, Interval::exact(8));
    }

    #[test]
    fn ordering_deadlock_has_cycle_and_capacity_fix() {
        let r = flow(
            "int main() { chan<int> a; chan<int> b; int x = 0; int y = 0; par { \
             { send(a, 1); x = recv(b); } \
             { send(b, 2); y = recv(a); } } return x + y; }",
        );
        assert!(r.has_errors());
        let net = &r.networks[0];
        let d = net.deadlock.as_ref().expect("deadlock proved");
        assert_eq!(d.blocked.len(), 2);
        assert!(d.cycle.len() >= 3, "cycle: {:?}", d.cycle);
        assert_eq!(d.cycle.first(), d.cycle.last());
        assert_eq!(net.capacities.len(), 1);
        assert_eq!(net.capacities[0].capacity, 1);
        // Diagnostics are span-anchored at the blocked sends.
        let diag = r
            .diags
            .iter()
            .find(|d| d.message.contains("deadlock"))
            .unwrap();
        assert_eq!(diag.notes.len(), 2);
    }

    #[test]
    fn rate_mismatch_accumulates() {
        let r = flow(
            "int main() { chan<int> c; int out = 0; par { \
             { for (int i = 0; i < 8; i = i + 1) { send(c, i); } } \
             { for (int j = 0; j < 4; j = j + 1) { out = out + recv(c); } } } return out; }",
        );
        assert!(r.has_errors());
        let net = &r.networks[0];
        assert_eq!(net.channels[0].balance, Balance::Accumulates);
        assert!(r
            .diags
            .iter()
            .any(|d| d.message.contains("rate mismatch on channel `c`")));
        // The sender really does block forever: the game proves it too.
        assert!(net.deadlock.is_some());
        // But no buffer fixes an unbalanced channel.
        assert!(net.capacities.is_empty());
    }

    #[test]
    fn starving_receiver_flagged() {
        let r = flow(
            "int main() { chan<int> c; int out = 0; par { \
             { send(c, 1); } \
             { out = recv(c); out = out + recv(c); } } return out; }",
        );
        let net = &r.networks[0];
        assert_eq!(net.channels[0].balance, Balance::Starves);
        assert!(r.has_errors());
    }

    #[test]
    fn channel_op_outside_par_is_flagged() {
        let r = flow("int main() { chan<int> c; send(c, 1); return 0; }");
        assert!(r.has_errors());
        assert!(r.diags[0].message.contains("outside `par`"));
    }

    #[test]
    fn data_dependent_communication_skips_the_game() {
        let r = flow(
            "int main(int n) { chan<int> c; int out = 0; par { \
             { int i = 0; while (i < n) { send(c, i); i = i + 1; } } \
             { int j = 0; while (j < n) { out = out + recv(c); j = j + 1; } } } return out; }",
        );
        let net = &r.networks[0];
        assert!(net.skipped.is_some());
        assert!(net.deadlock.is_none(), "never guess a deadlock");
        assert!(!r.has_errors());
        assert_eq!(net.channels[0].balance, Balance::Unknown);
    }

    #[test]
    fn met_contract_is_recorded_without_diags() {
        let r = flow(
            "int main() { chan<int> c @ii(3); int out = 0; par { \
             { for (int i = 0; i < 4; i = i + 1) { send(c, i); } } \
             { for (int j = 0; j < 4; j = j + 1) { out = out + recv(c); } } } return out; }",
        );
        assert!(!r.has_errors(), "diags: {:?}", r.diags);
        assert_eq!(r.contracts.len(), 1);
        assert_eq!(r.contracts[0].verdict, ContractVerdict::Met);
        assert_eq!(r.contracts[0].achieved, Interval::exact(2));
    }

    #[test]
    fn overpromised_contract_is_an_error() {
        // Loop body: recv(1) + 2 assigns + send(1) + step(1) = 5 cycles
        // per service, promised 2.
        let r = flow(
            "int main() { chan<int> cin; chan<int> cout @ii(2); int out = 0; par { \
             { for (int i = 0; i < 4; i = i + 1) { send(cin, i); } } \
             { for (int j = 0; j < 4; j = j + 1) { int v = recv(cin); v = v * 3; send(cout, v); } } \
             { for (int k = 0; k < 4; k = k + 1) { out = out + recv(cout); } } } return out; }",
        );
        assert!(r.has_errors());
        let c = r.contracts.iter().find(|c| c.channel == "cout").unwrap();
        assert_eq!(c.verdict, ContractVerdict::Violated);
        assert!(r
            .diags
            .iter()
            .any(|d| d.message.contains("@ii(2)") && d.message.contains("violated")));
    }

    #[test]
    fn ii_on_non_channel_is_rejected_in_sema() {
        let err = compile_to_hir("int main() { int x @ii(2); return x; }").unwrap_err();
        let msg = format!("{err:?}");
        assert!(msg.contains("channel declarations"), "{msg}");
    }

    #[test]
    fn trip_counted_multirate_is_exact() {
        // 2 recvs per producer send-pair: 16 in, 8 out, all balanced.
        let r = flow(
            "int main() { chan<int> c1; chan<int> c2; int out = 0; par { \
             { for (int i = 0; i < 16; i = i + 1) { send(c1, i); } } \
             { for (int j = 0; j < 8; j = j + 1) { int a = recv(c1); int b = recv(c1); send(c2, a + b); } } \
             { for (int k = 0; k < 8; k = k + 1) { out = out + recv(c2); } } } return out; }",
        );
        assert!(!r.has_errors(), "diags: {:?}", r.diags);
        let c1 = r.networks[0]
            .channels
            .iter()
            .find(|c| c.name == "c1")
            .unwrap();
        assert_eq!(c1.sends, Interval::exact(16));
        assert_eq!(c1.recvs, Interval::exact(16));
        assert_eq!(c1.balance, Balance::Balanced);
    }
}

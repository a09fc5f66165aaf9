//! Par-race detection.
//!
//! Handel-C's rule: no two `par` arms may touch the same variable in the
//! same clock cycle. We enforce a stronger, schedule-independent version
//! of it — no two arms of one `par` may conflict on any abstract location
//! at all — because whether two accesses land in the same cycle depends
//! on the backend's timing rule, and a program whose correctness depends
//! on that is exactly the nondeterminism the paper warns about.
//!
//! Conflicts:
//! * memory (locals): write/write and read/write between sibling arms —
//!   *errors*, since the result depends on scheduling;
//! * channels: N>1 senders (or receivers) on one channel across sibling
//!   arms — a *nondeterministic merge*, reported as a warning: the
//!   rendezvous pairing is still well-defined per exchange, but which
//!   sender wins each exchange is a hardware artifact. A matched
//!   send/recv pair is the *intended* use and does not conflict.

use crate::effects::{block_effects, Access, AccessKind, Loc};
use chls_frontend::diag::Diagnostic;
use chls_frontend::hir::*;
use chls_frontend::Span;
use chls_opt::PointsTo;

/// Walks `func` and reports every conflict between sibling `par` arms.
/// A `par` nested inside an arm gets its own pass, after its parent's.
pub fn find_races(func: &HirFunc, pts: &PointsTo) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    func.body.for_each_stmt(&mut |s| {
        if let HirStmt::Par(arms) = s {
            check_par(arms, func, pts, &mut out);
        }
    });
    out
}

fn check_par(arms: &[HirBlock], func: &HirFunc, pts: &PointsTo, out: &mut Vec<Diagnostic>) {
    let effects: Vec<Vec<Access>> = arms
        .iter()
        .map(|arm| {
            let mut e = Vec::new();
            block_effects(arm, pts, &mut e);
            e
        })
        .collect();
    // One diagnostic per (location, arm pair), not per access pair —
    // a loop touching `x` a hundred times is still one race.
    let mut reported: Vec<(Loc, usize, usize)> = Vec::new();
    for i in 0..effects.len() {
        for j in (i + 1)..effects.len() {
            for a in &effects[i] {
                for b in &effects[j] {
                    if a.loc != b.loc {
                        continue;
                    }
                    let Some(flavor) = conflict(a, b) else {
                        continue;
                    };
                    if reported.contains(&(a.loc, i, j)) {
                        continue;
                    }
                    reported.push((a.loc, i, j));
                    out.push(diagnose(flavor, a, b, i, j, func));
                }
            }
        }
    }
}

/// Returns the conflict flavor, if `a` and `b` conflict.
fn conflict(a: &Access, b: &Access) -> Option<&'static str> {
    match a.loc {
        Loc::Chan(_) => match (a.kind, b.kind) {
            (AccessKind::Write, AccessKind::Write) => Some("send/send"),
            (AccessKind::Read, AccessKind::Read) => Some("recv/recv"),
            // A matched send/recv pair is a rendezvous, not a race.
            _ => None,
        },
        Loc::Local(_) | Loc::Global(_) => match (a.kind, b.kind) {
            (AccessKind::Write, AccessKind::Write) => Some("write/write"),
            (AccessKind::Write, AccessKind::Read) | (AccessKind::Read, AccessKind::Write) => {
                Some("read/write")
            }
            (AccessKind::Read, AccessKind::Read) => None,
        },
    }
}

fn diagnose(
    flavor: &'static str,
    a: &Access,
    b: &Access,
    arm_a: usize,
    arm_b: usize,
    func: &HirFunc,
) -> Diagnostic {
    let what = loc_name(a.loc, func);
    let via = match (a.via, b.via) {
        (Some(p), _) | (_, Some(p)) => {
            format!(" (through pointer `{}`)", func.local(p).name)
        }
        _ => String::new(),
    };
    let primary = a.span.or(b.span).unwrap_or_else(Span::dummy);
    // Competing endpoints on one channel merge nondeterministically but
    // each exchange is still a well-formed rendezvous: warning. Memory
    // conflicts make the result schedule-dependent: error.
    let mut d = if matches!(a.loc, Loc::Chan(_)) {
        Diagnostic::warning(
            format!(
                "{flavor} nondeterministic merge on channel `{what}`: `par` arms {} and {} compete for the same endpoint",
                arm_a + 1,
                arm_b + 1
            ),
            primary,
        )
    } else {
        Diagnostic::error(
            format!(
                "{flavor} race on `{what}`{via} between `par` arms {} and {}",
                arm_a + 1,
                arm_b + 1
            ),
            primary,
        )
    };
    let describe = |acc: &Access| match acc.kind {
        AccessKind::Write if matches!(acc.loc, Loc::Chan(_)) => "send",
        AccessKind::Read if matches!(acc.loc, Loc::Chan(_)) => "recv",
        AccessKind::Write => "write",
        AccessKind::Read => "read",
    };
    if let Some(s) = a.span {
        d = d.with_note(
            format!("first {} in arm {} here", describe(a), arm_a + 1),
            s,
        );
    }
    if let Some(s) = b.span {
        d = d.with_note(
            format!("second {} in arm {} here", describe(b), arm_b + 1),
            s,
        );
    }
    d
}

/// Human name for a location.
pub fn loc_name(loc: Loc, func: &HirFunc) -> String {
    match loc {
        Loc::Local(id) | Loc::Chan(id) => func.local(id).name.clone(),
        Loc::Global(g) => format!("global #{}", g.0),
    }
}

//! Linear-scan-style register allocation over the dense slot array.
//!
//! The tape already fixes every value's home in the slot array, so the
//! JIT does not need full liveness analysis: it keeps a *write-through
//! cache* mapping hot slots to registers while walking each straight-line
//! block. Every definition is stored back to its slot immediately, which
//! makes the cache droppable at any point (control-flow joins, helper
//! calls) without spill code — the memory image is always current.
//!
//! Eviction is by furthest next use within the remaining block (the
//! classic linear-scan/Belady heuristic), supplied by the translator as
//! a lookahead closure over the tape.

use crate::x86::{MInst, Reg};

/// The register holding the slot-array base pointer.
pub const SLOTS: Reg = Reg::R15;

/// Allocatable (caller-saved or expendable) registers. rax/rcx/rdx stay
/// free as fixed scratch for division, shifts, setcc, and commit code.
pub const POOL: [Reg; 7] = [
    Reg::Rsi,
    Reg::Rdi,
    Reg::R8,
    Reg::R9,
    Reg::R10,
    Reg::R11,
    Reg::R12,
];

/// Byte displacement of a slot from the slot-array base.
pub fn slot_disp(slot: u32) -> i32 {
    (slot as i32) * 8
}

/// The write-through slot→register cache.
pub struct RegCache {
    /// Per pool register: the slot it currently mirrors.
    held: [Option<u32>; POOL.len()],
    /// Pool registers pinned for the instruction being translated
    /// (bitmask over POOL indices).
    pinned: u32,
}

impl RegCache {
    /// An empty cache.
    pub fn new() -> Self {
        RegCache {
            held: [None; POOL.len()],
            pinned: 0,
        }
    }

    /// Forgets every mapping. Cheap by construction: the write-through
    /// discipline means memory is already up to date, so no spills.
    pub fn clear(&mut self) {
        self.held = [None; POOL.len()];
        self.pinned = 0;
    }

    /// Releases all operand pins (call after translating an instruction).
    pub fn unpin_all(&mut self) {
        self.pinned = 0;
    }

    fn pin(&mut self, idx: usize) {
        self.pinned |= 1 << idx;
    }

    fn lookup(&self, slot: u32) -> Option<usize> {
        self.held.iter().position(|&s| s == Some(slot))
    }

    /// Picks a register for a new value: a free one if any, else the
    /// unpinned register whose slot's next use is furthest away.
    fn victim(&self, next_use: &mut dyn FnMut(u32) -> u32) -> usize {
        if let Some(free) = self.held.iter().position(|&s| s.is_none()) {
            return free;
        }
        let mut best = usize::MAX;
        let mut best_dist = 0u64;
        for (i, &s) in self.held.iter().enumerate() {
            if self.pinned & (1 << i) != 0 {
                continue;
            }
            // Unpinned ⇒ occupied here (no free register existed).
            let dist = s.map_or(u64::MAX, |slot| u64::from(next_use(slot)));
            if best == usize::MAX || dist > best_dist {
                best = i;
                best_dist = dist;
            }
        }
        assert!(best != usize::MAX, "register pool exhausted by pins");
        best
    }

    /// Returns a register holding `slot`'s current value, loading it if
    /// not cached, and pins it for the current instruction.
    pub fn get(
        &mut self,
        slot: u32,
        out: &mut Vec<MInst>,
        next_use: &mut dyn FnMut(u32) -> u32,
    ) -> Reg {
        if let Some(i) = self.lookup(slot) {
            self.pin(i);
            return POOL[i];
        }
        let i = self.victim(next_use);
        out.push(MInst::Load {
            dst: POOL[i],
            base: SLOTS,
            disp: slot_disp(slot),
        });
        self.held[i] = Some(slot);
        self.pin(i);
        POOL[i]
    }

    /// Allocates a register to hold a new definition of `slot` (no load)
    /// and pins it. The caller computes into it and must then emit the
    /// write-through store `mov [SLOTS + slot*8], reg`.
    pub fn def(&mut self, slot: u32, next_use: &mut dyn FnMut(u32) -> u32) -> Reg {
        // A stale mapping for this slot (pre-redefinition value) dies.
        if let Some(old) = self.lookup(slot) {
            self.held[old] = None;
        }
        let i = self.victim(next_use);
        self.held[i] = Some(slot);
        self.pin(i);
        POOL[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caches_and_reuses_loads() {
        let mut c = RegCache::new();
        let mut out = Vec::new();
        let r1 = c.get(5, &mut out, &mut |_| 0);
        c.unpin_all();
        let r2 = c.get(5, &mut out, &mut |_| 0);
        assert_eq!(r1, r2);
        assert_eq!(out.len(), 1, "second get hits the cache");
    }

    #[test]
    fn evicts_furthest_next_use() {
        let mut c = RegCache::new();
        let mut out = Vec::new();
        // Fill the pool with slots 0..POOL.len().
        for s in 0..POOL.len() as u32 {
            c.get(s, &mut out, &mut |_| 0);
            c.unpin_all();
        }
        // Slot 3 is used furthest in the future → it gets evicted.
        let far = 3u32;
        c.get(100, &mut out, &mut |s| if s == far { 1000 } else { s });
        c.unpin_all();
        // Re-fetching slot 3 must reload (evicting slot 6, the furthest
        // by this lookahead); slot 0 stays cached.
        let before = out.len();
        c.get(far, &mut out, &mut |s| if s == 6 { 500 } else { 0 });
        assert_eq!(out.len(), before + 1, "evicted slot reloads");
        c.unpin_all();
        let before = out.len();
        c.get(0, &mut out, &mut |_| 0);
        assert_eq!(out.len(), before, "unevicted slot still cached");
    }

    #[test]
    fn def_invalidates_stale_mapping() {
        let mut c = RegCache::new();
        let mut out = Vec::new();
        let r_old = c.get(7, &mut out, &mut |_| 0);
        c.unpin_all();
        let r_new = c.def(7, &mut |_| 0);
        c.unpin_all();
        // Whatever register now maps slot 7, a get must return it and
        // must not see the stale one as a second copy.
        let r = c.get(7, &mut out, &mut |_| 0);
        assert_eq!(r, r_new);
        let _ = r_old;
    }
}

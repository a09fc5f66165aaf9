//! Ocapi-style structural construction.
//!
//! In IMEC's Ocapi (and Lipton's PDL++, and structural SystemC), "the
//! user's C++ program runs to generate a data structure that represents
//! hardware". This module is that mechanism for Rust: a fluent builder over
//! [`Fsmd`] where each user-declared state takes exactly one cycle —
//! Ocapi's timing rule ("a designer specifies state machines and each
//! state gets a cycle").
//!
//! ## Example
//!
//! ```
//! use chls_rtl::builder::FsmdBuilder;
//! use chls_frontend::IntType;
//!
//! let ty = IntType::new(16, false);
//! let mut b = FsmdBuilder::new("accumulate");
//! let x = b.input("x", ty, 0);
//! let acc = b.reg("acc", ty, 0);
//! let s0 = b.state();
//! let s1 = b.state();
//! // s0 and s1: acc <= acc + x (one cycle each).
//! let bump = b.add(b.get(acc), x);
//! b.at(s0).set(acc, bump.clone()).goto(s1);
//! b.at(s1).set(acc, bump).done();
//! let result = b.get(acc);
//! let fsmd = b.returning(result).finish();
//! assert_eq!(fsmd.states.len(), 2);
//! ```

use crate::fsmd::{Action, Fsmd, FsmdMem, MemId, NextState, RegId, Rv, RvKind, StateId};
use chls_frontend::IntType;
use chls_ir::BinKind;

/// Fluent builder for [`Fsmd`] designs.
#[derive(Debug, Clone)]
pub struct FsmdBuilder {
    fsmd: Fsmd,
}

impl FsmdBuilder {
    /// Starts a design.
    pub fn new(name: impl Into<String>) -> Self {
        FsmdBuilder {
            fsmd: Fsmd::new(name),
        }
    }

    /// Declares a scalar input bound to parameter `param`.
    pub fn input(&mut self, name: impl Into<String>, ty: IntType, param: usize) -> Rv {
        let idx = self.fsmd.add_input(name, ty, param);
        Rv {
            kind: RvKind::Input(idx),
            ty,
        }
    }

    /// Declares a register.
    pub fn reg(&mut self, name: impl Into<String>, ty: IntType, init: i64) -> RegId {
        self.fsmd.add_reg(name, ty, init)
    }

    /// Declares a memory.
    pub fn mem(&mut self, name: impl Into<String>, elem: IntType, len: usize) -> MemId {
        self.fsmd.add_mem(FsmdMem {
            name: name.into(),
            elem,
            len,
            rom: None,
            param_index: None,
        })
    }

    /// Declares a ROM with contents.
    pub fn rom(&mut self, name: impl Into<String>, elem: IntType, contents: Vec<i64>) -> MemId {
        let len = contents.len();
        self.fsmd.add_mem(FsmdMem {
            name: name.into(),
            elem,
            len,
            rom: Some(contents),
            param_index: None,
        })
    }

    /// Adds a state (one cycle, Ocapi rule).
    pub fn state(&mut self) -> StateId {
        self.fsmd.add_state()
    }

    /// Current value of a register as a datapath expression.
    pub fn get(&self, r: impl IntoRv) -> Rv {
        r.into_rv(&self.fsmd)
    }

    /// Constant expression.
    pub fn konst(&self, v: i64, ty: IntType) -> Rv {
        Rv::konst(v, ty)
    }

    /// `a + b` (at `a`'s type).
    pub fn add(&self, a: Rv, b: Rv) -> Rv {
        let ty = a.ty;
        Rv::bin(BinKind::Add, ty, a, b)
    }

    /// `a - b`.
    pub fn sub(&self, a: Rv, b: Rv) -> Rv {
        let ty = a.ty;
        Rv::bin(BinKind::Sub, ty, a, b)
    }

    /// `a * b`.
    pub fn mul(&self, a: Rv, b: Rv) -> Rv {
        let ty = a.ty;
        Rv::bin(BinKind::Mul, ty, a, b)
    }

    /// `a == b` (1-bit result).
    pub fn eq(&self, a: Rv, b: Rv) -> Rv {
        Rv {
            kind: RvKind::Bin(BinKind::Eq, Box::new(a), Box::new(b)),
            ty: IntType::new(1, false),
        }
    }

    /// `a < b` (1-bit result, signedness from `a`).
    pub fn lt(&self, a: Rv, b: Rv) -> Rv {
        Rv {
            kind: RvKind::Bin(BinKind::Lt, Box::new(a), Box::new(b)),
            ty: IntType::new(1, false),
        }
    }

    /// `sel ? a : b`.
    pub fn mux(&self, sel: Rv, a: Rv, b: Rv) -> Rv {
        let ty = a.ty;
        Rv {
            kind: RvKind::Mux(Box::new(sel), Box::new(a), Box::new(b)),
            ty,
        }
    }

    /// Combinational memory read.
    pub fn read(&self, mem: MemId, addr: Rv) -> Rv {
        let ty = self.fsmd.mems[mem.0 as usize].elem;
        Rv {
            kind: RvKind::MemRead {
                mem,
                addr: Box::new(addr),
            },
            ty,
        }
    }

    /// Opens a state for editing.
    pub fn at(&mut self, s: StateId) -> StateEdit<'_> {
        StateEdit { b: self, s }
    }

    /// Sets the value returned when the machine finishes.
    pub fn returning(mut self, rv: Rv) -> Self {
        self.fsmd.ret = Some(rv);
        self
    }

    /// Finishes construction.
    pub fn finish(self) -> Fsmd {
        self.fsmd
    }
}

/// Types that can be read as a datapath expression.
pub trait IntoRv {
    /// Converts to an [`Rv`] against the design being built.
    fn into_rv(self, fsmd: &Fsmd) -> Rv;
}

impl IntoRv for RegId {
    fn into_rv(self, fsmd: &Fsmd) -> Rv {
        Rv::reg(self, fsmd.regs[self.0 as usize].ty)
    }
}

impl IntoRv for Rv {
    fn into_rv(self, _fsmd: &Fsmd) -> Rv {
        self
    }
}

/// Editing handle for one state.
pub struct StateEdit<'a> {
    b: &'a mut FsmdBuilder,
    s: StateId,
}

impl StateEdit<'_> {
    /// Adds a register transfer `r <= rv` to this state.
    pub fn set(self, r: RegId, rv: Rv) -> Self {
        let s = self.s;
        self.b.fsmd.state_mut(s).actions.push(Action::set(r, rv));
        self
    }

    /// Adds a memory write `mem[addr] <= value` to this state.
    pub fn write(self, mem: MemId, addr: Rv, value: Rv) -> Self {
        let s = self.s;
        self.b
            .fsmd
            .state_mut(s)
            .actions
            .push(Action::write(mem, addr, value));
        self
    }

    /// Unconditional transfer to `t`.
    pub fn goto(self, t: StateId) {
        let s = self.s;
        self.b.fsmd.state_mut(s).next = NextState::Goto(t);
    }

    /// Adds a guarded register transfer `if (guard) r <= rv`.
    pub fn set_if(self, guard: Rv, r: RegId, rv: Rv) -> Self {
        let s = self.s;
        self.b
            .fsmd
            .state_mut(s)
            .actions
            .push(Action::set_if(guard, r, rv));
        self
    }

    /// Adds a guarded memory write.
    pub fn write_if(self, guard: Rv, mem: MemId, addr: Rv, value: Rv) -> Self {
        let s = self.s;
        self.b
            .fsmd
            .state_mut(s)
            .actions
            .push(Action::write_if(guard, mem, addr, value));
        self
    }

    /// Two-way branch.
    pub fn branch(self, cond: Rv, then: StateId, els: StateId) {
        let s = self.s;
        self.b.fsmd.state_mut(s).next = NextState::Branch { cond, then, els };
    }

    /// Finish execution in this state.
    pub fn done(self) {
        let s = self.s;
        self.b.fsmd.state_mut(s).next = NextState::Done;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsmd::NextState;

    #[test]
    fn builder_constructs_counter() {
        let ty = IntType::new(8, false);
        let mut b = FsmdBuilder::new("cnt");
        let limit = b.input("limit", ty, 0);
        let r = b.reg("r", ty, 0);
        let s0 = b.state();
        let s1 = b.state();
        let bump = b.add(b.get(r), Rv::konst(1, ty));
        let at_limit = b.eq(b.get(r), limit);
        b.at(s0).set(r, bump).branch(at_limit, s1, s0);
        b.at(s1).done();
        let f = b.returning(Rv::reg(r, ty)).finish();
        assert_eq!(f.states.len(), 2);
        assert_eq!(f.regs.len(), 1);
        assert!(matches!(f.states[0].next, NextState::Branch { .. }));
        assert!(f.ret.is_some());
    }

    #[test]
    fn builder_memories() {
        let ty = IntType::new(16, false);
        let mut b = FsmdBuilder::new("m");
        let rom = b.rom("tab", ty, vec![1, 2, 3, 4]);
        let ram = b.mem("buf", ty, 8);
        let r = b.reg("r", ty, 0);
        let s = b.state();
        let val = b.read(rom, Rv::konst(2, ty));
        let zero = Rv::konst(0, ty);
        b.at(s).set(r, val.clone()).write(ram, zero, val).done();
        let f = b.finish();
        assert_eq!(f.mems.len(), 2);
        assert_eq!(f.mems[0].rom.as_deref(), Some(&[1, 2, 3, 4][..]));
        assert_eq!(f.states[0].actions.len(), 2);
    }
}

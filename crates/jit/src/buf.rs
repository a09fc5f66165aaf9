//! Executable code buffer backed by anonymous `mmap`, with a strict
//! RW→RX lifecycle (never writable and executable at the same time).
//!
//! The laboratory runs offline with no `libc` crate available, so the
//! three syscalls we need (`mmap`, `mprotect`, `munmap`) are issued
//! directly via inline assembly. Everything here is Linux/x86-64 only
//! and is compiled solely under that cfg (see `lib.rs`).
//!
//! Mapping fresh pages costs more than compiling a small design, so a
//! dropped buffer's sealed mapping goes back to one process-wide pool
//! of at most [`POOL_MAPPINGS`] mappings instead of being unmapped.
//! [`ExecBuf::new`] takes the smallest pooled mapping that is large
//! enough and flips it RX→RW; [`ExecBuf::seal`] flips it back. A pooled
//! mapping is always RX and owned by no buffer, so the pool never
//! holds pages that live code runs from.

use std::ptr;
use std::sync::{Mutex, MutexGuard};

const SYS_MMAP: i64 = 9;
const SYS_MPROTECT: i64 = 10;
const SYS_MUNMAP: i64 = 11;

const PROT_READ: i64 = 1;
const PROT_WRITE: i64 = 2;
const PROT_EXEC: i64 = 4;
const MAP_PRIVATE: i64 = 0x02;
const MAP_ANONYMOUS: i64 = 0x20;

/// Issues a raw 6-argument Linux syscall.
///
/// # Safety
///
/// The caller must uphold the kernel contract for syscall `n` with the
/// given arguments.
unsafe fn syscall6(n: i64, a1: i64, a2: i64, a3: i64, a4: i64, a5: i64, a6: i64) -> i64 {
    let ret: i64;
    // SAFETY: the `syscall` instruction clobbers rcx and r11 (declared),
    // reads the argument registers per the Linux ABI, and returns in rax;
    // no Rust memory is touched beyond what the specific syscall does,
    // which the caller has vouched for.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") n => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            in("r8") a5,
            in("r9") a6,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

/// The most sealed mappings the pool keeps. A buffer dropped into a
/// full pool replaces the smallest pooled mapping if it is larger, and
/// is unmapped otherwise.
pub const POOL_MAPPINGS: usize = 8;

/// The largest mapping the pool keeps (bigger ones are unmapped on
/// drop), so the pool pins at most `POOL_MAPPINGS * POOL_MAX_LEN` bytes.
const POOL_MAX_LEN: usize = 256 * 1024;

const PAGE: usize = 4096;

/// Every mapping sits between two `PROT_NONE` guard pages, so no
/// neighbour shares its protection. Without them the kernel merges it
/// with an adjacent mapping of the same protection, and every RW/RX
/// flip splits and re-merges the two: on a 2-vCPU x86-64 host a flip
/// pair with a 1.3 KB copy took 4.6 µs that way and 2.9 µs guarded.
const GUARD: usize = PAGE;

const PROT_NONE: i64 = 0;

/// A code mapping (without its guard pages): base address and length.
#[derive(Clone, Copy)]
struct Mapping {
    base: usize,
    len: usize,
}

static POOL: Mutex<Vec<Mapping>> = Mutex::new(Vec::new());

/// Locks the pool. Every update is a single push, swap or removal, so
/// the list is valid even after a panic elsewhere poisoned the lock.
fn pool() -> MutexGuard<'static, Vec<Mapping>> {
    POOL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Unmaps `m`. Errors are ignored: the range is a mapping this module
/// created and no longer hands out.
fn unmap(m: Mapping) {
    // SAFETY: `m` and its guard pages are a mapping this module created
    // and that no buffer or pool entry refers to any more, so nothing
    // can run or read it.
    unsafe {
        syscall6(
            SYS_MUNMAP,
            (m.base - GUARD) as i64,
            (m.len + 2 * GUARD) as i64,
            0,
            0,
            0,
            0,
        );
    }
}

/// Sets the protection of the whole of `m`; `true` on success.
fn protect(m: Mapping, prot: i64) -> bool {
    // SAFETY: `m` is a page-aligned mapping owned by the caller;
    // mprotect only changes its page permissions.
    unsafe { syscall6(SYS_MPROTECT, m.base as i64, m.len as i64, prot, 0, 0, 0) == 0 }
}

/// Removes and returns the smallest pooled mapping of at least `len`
/// bytes.
fn take_pooled(len: usize) -> Option<Mapping> {
    let mut pool = pool();
    let (i, _) = pool
        .iter()
        .enumerate()
        .filter(|(_, m)| m.len >= len)
        .min_by_key(|(_, m)| m.len)?;
    Some(pool.swap_remove(i))
}

/// Hands a sealed mapping to the pool, or unmaps it when it is too big
/// or smaller than everything in a full pool.
fn give_back(m: Mapping) {
    if m.len > POOL_MAX_LEN {
        return unmap(m);
    }
    let mut pool = pool();
    if pool.len() < POOL_MAPPINGS {
        pool.push(m);
        return;
    }
    let smallest = (0..pool.len()).min_by_key(|&i| pool[i].len);
    let evicted = match smallest {
        Some(i) if pool[i].len < m.len => std::mem::replace(&mut pool[i], m),
        _ => m,
    };
    drop(pool);
    unmap(evicted);
}

/// Number of sealed mappings the pool holds right now (at most
/// [`POOL_MAPPINGS`]).
pub fn pooled_mappings() -> usize {
    pool().len()
}

/// Unmaps every pooled mapping, returning the pages to the kernel.
/// Live programs keep theirs; their buffers refill the pool as they
/// drop.
pub fn trim_pool() {
    let drained: Vec<Mapping> = std::mem::take(&mut *pool());
    drained.into_iter().for_each(unmap);
}

/// A page-aligned executable mapping. Created read-write (fresh, or
/// taken from the pool and flipped back to RW), filled once, then
/// sealed read-execute; returned to the pool on drop.
pub struct ExecBuf {
    base: *mut u8,
    /// Mapping length (whole pages).
    len: usize,
    /// Bytes of code written; the rest of a pooled mapping is stale.
    used: usize,
    sealed: bool,
}

impl ExecBuf {
    /// A writable mapping of at least `len` bytes (rounded up to
    /// pages): a pooled one when one is large enough, else a fresh
    /// anonymous mapping, guarded and flipped to RW. Returns `None`
    /// when the kernel refuses (e.g. `W^X`-restricted environments
    /// refuse the later `PROT_EXEC` flip instead; see
    /// [`ExecBuf::seal`]).
    pub fn new(len: usize) -> Option<ExecBuf> {
        let len = len.max(1).div_ceil(PAGE) * PAGE;
        if let Some(m) = take_pooled(len) {
            if protect(m, PROT_READ | PROT_WRITE) {
                return Some(ExecBuf {
                    base: m.base as *mut u8,
                    len: m.len,
                    used: 0,
                    sealed: false,
                });
            }
            // The kernel would not make it writable again: drop it and
            // map fresh pages.
            unmap(m);
        }
        // SAFETY: anonymous private mapping with no fd; the kernel either
        // returns a fresh mapping or an error code in -4095..0.
        let r = unsafe {
            syscall6(
                SYS_MMAP,
                0,
                (len + 2 * GUARD) as i64,
                PROT_NONE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        if (-4095..0).contains(&r) || r == 0 {
            return None;
        }
        let m = Mapping {
            base: r as usize + GUARD,
            len,
        };
        if !protect(m, PROT_READ | PROT_WRITE) {
            unmap(m);
            return None;
        }
        Some(ExecBuf {
            base: m.base as *mut u8,
            len,
            used: 0,
            sealed: false,
        })
    }

    /// Copies `code` into the buffer. Only valid before [`ExecBuf::seal`].
    ///
    /// # Panics
    ///
    /// Panics if `code` is larger than the mapping, or if the buffer is
    /// already sealed.
    pub fn write(&mut self, code: &[u8]) {
        assert!(!self.sealed, "ExecBuf written after seal");
        assert!(code.len() <= self.len, "code exceeds ExecBuf capacity");
        // SAFETY: `base..base+len` is a valid private RW mapping owned by
        // `self` (not sealed, just asserted), and `code.len() <= self.len`
        // was just asserted.
        unsafe { ptr::copy_nonoverlapping(code.as_ptr(), self.base, code.len()) };
        self.used = code.len();
    }

    /// The code last written.
    pub fn code(&self) -> &[u8] {
        // SAFETY: `base..base+used` lies in a readable mapping owned by
        // `self` (RW before the seal, RX after), and writes need
        // `&mut self`, so the bytes cannot change while this borrow
        // lives.
        unsafe { std::slice::from_raw_parts(self.base, self.used) }
    }

    /// Flips the mapping from RW to RX. After this the buffer is
    /// immutable and executable — there is never a moment where the
    /// region is both writable and executable. Returns `false` when the
    /// kernel rejects `PROT_EXEC` (e.g. a locked-down seccomp/PaX
    /// environment); callers then fall back to the interpreter.
    pub fn seal(&mut self) -> bool {
        self.sealed = protect(self.mapping(), PROT_READ | PROT_EXEC);
        self.sealed
    }

    /// The mapping's base address.
    pub fn addr(&self) -> usize {
        self.base as usize
    }

    fn mapping(&self) -> Mapping {
        Mapping {
            base: self.base as usize,
            len: self.len,
        }
    }
}

impl Drop for ExecBuf {
    fn drop(&mut self) {
        // Only sealed mappings are pooled: an unsealed one is still RW.
        // Either way no pointer into it outlives this drop (JitProgram
        // keeps the ExecBuf alive as long as any pointer into it can run).
        if self.sealed {
            give_back(self.mapping());
        } else {
            unmap(self.mapping());
        }
    }
}

// SAFETY: after `seal` the mapping is immutable machine code; before
// seal the buffer is only touched by its owning thread during
// compilation. The raw pointer is just an address into a private
// mapping with no thread affinity.
unsafe impl Send for ExecBuf {}
// SAFETY: sealed RX pages are never written again, so shared references
// across threads only ever read/execute immutable memory.
unsafe impl Sync for ExecBuf {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mmap_write_seal_execute() {
        // mov rax, 42; ret
        let code = [0x48u8, 0xc7, 0xc0, 0x2a, 0x00, 0x00, 0x00, 0xc3];
        let mut buf = ExecBuf::new(code.len()).expect("mmap");
        buf.write(&code);
        assert!(buf.seal(), "mprotect RX");
        // SAFETY: the buffer holds exactly the instructions above — a
        // leaf function with the C ABI returning a constant.
        let f: extern "C" fn() -> u64 = unsafe { std::mem::transmute(buf.addr()) };
        assert_eq!(f(), 42);
    }
}

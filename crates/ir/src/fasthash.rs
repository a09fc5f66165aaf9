//! A one-multiply hasher for tables keyed by a few small integers: CSE
//! keys, structural-hash fanin pairs, interned expression nodes and
//! constants. SipHash's collision resistance buys nothing on such keys,
//! and its per-word cost dominates the lookups that build them.
//!
//! The hash is a fixed function of the key, so a [`FastMap`] iterates
//! in the same order in every process; callers still must not let that
//! order reach output.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// One multiply per hashed word by a 64-bit odd constant, rotated so
/// the table's bucket bits (low) and tag bits (high) both draw on every
/// key bit. Every integer write is widened to one `u64` word.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` hashed by [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: T) -> u64 {
        let mut h = FastHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn integer_widths_hash_as_one_word() {
        // A narrow integer hashes exactly like the same value as `u64`,
        // so widening a key field never changes its hash.
        assert_eq!(hash_of(7u8), hash_of(7u64));
        assert_eq!(hash_of(7u16), hash_of(7u64));
        assert_eq!(hash_of(7u32), hash_of(7u64));
        assert_eq!(hash_of(7usize), hash_of(7u64));
        assert_eq!(hash_of(-1i64), hash_of(u64::MAX));
        assert_eq!(hash_of(0u64), 0);
        assert_eq!(hash_of(1u64), 0x9e37_79b9_7f4a_7c15u64.rotate_left(26));
    }
}

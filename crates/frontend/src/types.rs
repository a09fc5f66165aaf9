//! The CHL type system.
//!
//! CHL keeps C's integer types (`char`, `short`, `int`, `long`, optionally
//! `unsigned`) and adds the hardware extension the paper argues C lacks:
//! bit-precise integers `uint<N>` / `sint<N>` for any width 1..=64. Arrays
//! are first-class fixed-size aggregates; pointers exist but are restricted
//! (no casts to or from integers, no pointer-to-pointer); channels carry a
//! scalar element type and support rendezvous `send`/`recv`.

use std::fmt;

/// Maximum supported integer width in bits.
pub const MAX_WIDTH: u16 = 64;

/// An integer type: a width in bits plus signedness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IntType {
    /// Width in bits, 1..=64.
    pub width: u16,
    /// Whether values are interpreted as two's-complement signed.
    pub signed: bool,
}

impl IntType {
    /// Creates an integer type.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than [`MAX_WIDTH`].
    pub fn new(width: u16, signed: bool) -> Self {
        assert!(
            (1..=MAX_WIDTH).contains(&width),
            "integer width {width} out of range 1..={MAX_WIDTH}"
        );
        IntType { width, signed }
    }

    /// C's `int`: 32-bit signed.
    pub fn int() -> Self {
        IntType::new(32, true)
    }

    /// One unsigned bit: the type of conditions and comparison results.
    pub fn u1() -> Self {
        IntType::new(1, false)
    }

    /// The mask selecting the low `width` bits.
    #[inline]
    pub fn mask(self) -> u64 {
        if self.width == 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        }
    }

    /// Truncates `v` to this type's width and re-extends it to the canonical
    /// 64-bit representation (sign-extended if signed, zero-extended if not).
    ///
    /// A shift pair with no data-dependent branch: shifting the low
    /// `width` bits to the top and back, arithmetically for signed types
    /// and logically for unsigned ones, drops the high bits and refills
    /// them with copies of the sign bit or with zeros.
    #[inline]
    pub fn canonicalize(self, v: i64) -> i64 {
        let sh = 64 - u32::from(self.width);
        if self.signed {
            v.wrapping_shl(sh).wrapping_shr(sh)
        } else {
            (v as u64).wrapping_shl(sh).wrapping_shr(sh) as i64
        }
    }

    /// Smallest representable value (canonical form).
    pub fn min_value(self) -> i64 {
        if self.signed {
            self.canonicalize((1i64 << (self.width - 1)).wrapping_neg())
        } else {
            0
        }
    }

    /// Largest representable value (canonical form).
    pub fn max_value(self) -> i64 {
        if self.signed {
            if self.width == 64 {
                i64::MAX
            } else {
                (1i64 << (self.width - 1)) - 1
            }
        } else if self.width == 64 {
            // Canonical form stores bits; u64::MAX canonicalizes to -1 as i64
            // but comparisons for unsigned types must use the bit pattern.
            u64::MAX as i64
        } else {
            self.mask() as i64
        }
    }
}

impl fmt::Display for IntType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.signed, self.width) {
            (true, 8) => write!(f, "char"),
            (true, 16) => write!(f, "short"),
            (true, 32) => write!(f, "int"),
            (true, 64) => write!(f, "long"),
            (false, 8) => write!(f, "unsigned char"),
            (false, 16) => write!(f, "unsigned short"),
            (false, 32) => write!(f, "unsigned int"),
            (false, 64) => write!(f, "unsigned long"),
            (true, w) => write!(f, "sint<{w}>"),
            (false, w) => write!(f, "uint<{w}>"),
        }
    }
}

/// A CHL type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// The absence of a value (function returns only).
    Void,
    /// Boolean, synthesized as a single wire.
    Bool,
    /// Integer of a specific width and signedness.
    Int(IntType),
    /// Fixed-size one-dimensional array.
    Array(Box<Type>, usize),
    /// Pointer to a scalar or to an array element.
    Ptr(Box<Type>),
    /// Rendezvous channel carrying elements of the given scalar type.
    Chan(Box<Type>),
}

impl Type {
    /// Shorthand for C's `int`.
    pub fn int() -> Self {
        Type::Int(IntType::int())
    }

    /// Shorthand for `uint<width>`.
    pub fn uint(width: u16) -> Self {
        Type::Int(IntType::new(width, false))
    }

    /// Shorthand for `sint<width>`.
    pub fn sint(width: u16) -> Self {
        Type::Int(IntType::new(width, true))
    }

    /// True for `bool` and integer types.
    pub fn is_scalar(&self) -> bool {
        matches!(self, Type::Bool | Type::Int(_))
    }

    /// True for integer types.
    pub fn is_int(&self) -> bool {
        matches!(self, Type::Int(_))
    }

    /// The integer type, if this is one.
    pub fn as_int(&self) -> Option<IntType> {
        match self {
            Type::Int(it) => Some(*it),
            _ => None,
        }
    }

    /// Width in bits when synthesized as a datapath value.
    ///
    /// # Panics
    ///
    /// Panics for `Void`, arrays, and channels, which have no wire width.
    pub fn bit_width(&self) -> u16 {
        match self {
            Type::Bool => 1,
            Type::Int(it) => it.width,
            Type::Ptr(_) => 32,
            other => panic!("type {other} has no bit width"),
        }
    }

    /// The element type of an array or pointer target.
    pub fn element(&self) -> Option<&Type> {
        match self {
            Type::Array(elem, _) | Type::Ptr(elem) | Type::Chan(elem) => Some(elem),
            _ => None,
        }
    }

    /// Result of C's "usual arithmetic conversions" extended to arbitrary
    /// widths: the common type of a binary arithmetic operation.
    ///
    /// The common type has the maximum of the two widths and is signed only
    /// when both operands are signed (an unsigned operand "wins", as in C).
    /// `bool` operands are promoted to `uint<1>` first.
    pub fn common_int(a: &Type, b: &Type) -> Option<IntType> {
        let pa = Type::promote(a)?;
        let pb = Type::promote(b)?;
        Some(IntType::new(pa.width.max(pb.width), pa.signed && pb.signed))
    }

    /// Integer promotion: `bool` becomes `uint<1>`, integers stay themselves.
    pub fn promote(t: &Type) -> Option<IntType> {
        match t {
            Type::Bool => Some(IntType::new(1, false)),
            Type::Int(it) => Some(*it),
            _ => None,
        }
    }

    /// Total number of scalar elements if this type is stored in a memory
    /// (arrays flatten; scalars count as one).
    pub fn flat_len(&self) -> usize {
        match self {
            Type::Array(elem, n) => n * elem.flat_len(),
            _ => 1,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Void => write!(f, "void"),
            Type::Bool => write!(f, "bool"),
            Type::Int(it) => write!(f, "{it}"),
            Type::Array(elem, n) => write!(f, "{elem}[{n}]"),
            Type::Ptr(elem) => write!(f, "{elem}*"),
            Type::Chan(elem) => write!(f, "chan<{elem}>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalize_unsigned_wraps() {
        let u8t = IntType::new(8, false);
        assert_eq!(u8t.canonicalize(256), 0);
        assert_eq!(u8t.canonicalize(257), 1);
        assert_eq!(u8t.canonicalize(-1), 255);
    }

    #[test]
    fn canonicalize_signed_sign_extends() {
        let i8t = IntType::new(8, true);
        assert_eq!(i8t.canonicalize(127), 127);
        assert_eq!(i8t.canonicalize(128), -128);
        assert_eq!(i8t.canonicalize(255), -1);
        assert_eq!(i8t.canonicalize(-129), 127);
    }

    #[test]
    fn canonicalize_odd_widths() {
        let u3 = IntType::new(3, false);
        assert_eq!(u3.canonicalize(9), 1);
        let i3 = IntType::new(3, true);
        assert_eq!(i3.canonicalize(4), -4);
        assert_eq!(i3.canonicalize(3), 3);
    }

    #[test]
    fn canonicalize_full_width_identity() {
        let i64t = IntType::new(64, true);
        assert_eq!(i64t.canonicalize(i64::MIN), i64::MIN);
        assert_eq!(i64t.canonicalize(i64::MAX), i64::MAX);
    }

    #[test]
    fn min_max_values() {
        let i4 = IntType::new(4, true);
        assert_eq!(i4.min_value(), -8);
        assert_eq!(i4.max_value(), 7);
        let u4 = IntType::new(4, false);
        assert_eq!(u4.min_value(), 0);
        assert_eq!(u4.max_value(), 15);
    }

    #[test]
    fn common_type_follows_c_rules() {
        // unsigned wins, width maxes.
        let c = Type::common_int(&Type::uint(8), &Type::sint(16)).unwrap();
        assert_eq!(c, IntType::new(16, false));
        let c = Type::common_int(&Type::sint(32), &Type::sint(12)).unwrap();
        assert_eq!(c, IntType::new(32, true));
        let c = Type::common_int(&Type::Bool, &Type::Bool).unwrap();
        assert_eq!(c, IntType::new(1, false));
    }

    #[test]
    fn display_round_trips_c_names() {
        assert_eq!(Type::int().to_string(), "int");
        assert_eq!(Type::uint(12).to_string(), "uint<12>");
        assert_eq!(
            Type::Array(Box::new(Type::uint(8)), 16).to_string(),
            "unsigned char[16]"
        );
        assert_eq!(
            Type::Array(Box::new(Type::uint(12)), 16).to_string(),
            "uint<12>[16]"
        );
        assert_eq!(Type::Chan(Box::new(Type::int())).to_string(), "chan<int>");
    }

    #[test]
    fn flat_len_nested() {
        let t = Type::Array(Box::new(Type::Array(Box::new(Type::int()), 3)), 4);
        assert_eq!(t.flat_len(), 12);
        assert_eq!(Type::int().flat_len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_width_rejected() {
        IntType::new(0, false);
    }
}

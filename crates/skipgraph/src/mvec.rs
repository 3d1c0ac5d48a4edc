//! Membership vectors and prefixes.
//!
//! Every node `x` of a skip graph holds a membership vector `m(x)`. The
//! `i`-th bit of `m(x)` (1-indexed by level, as in the paper) determines
//! whether `x` joins the 0-sublist or the 1-sublist when the level `i - 1`
//! list it belongs to splits at level `i`. The list a node belongs to at
//! level `d` is therefore identified by the length-`d` [`Prefix`] of its
//! membership vector.
//!
//! Vectors are stored as packed bits in a `u128`, which caps the structure
//! height at [`MembershipVector::MAX_LEVELS`] (128). All skip graphs in the
//! family considered by the paper have height `O(log n)`, so this limit is
//! never reached for any realistic `n`; exceeding it is reported as an error
//! by the graph-mutation APIs rather than silently truncated.

use std::fmt;

use crate::error::SkipGraphError;

/// A single membership-vector bit: which sublist a node joins when a list
/// splits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Bit {
    /// The node joins the 0-sublist (left child in the tree view).
    Zero,
    /// The node joins the 1-sublist (right child in the tree view).
    One,
}

impl Bit {
    /// Converts the bit to `0` or `1`.
    pub fn as_u8(self) -> u8 {
        match self {
            Bit::Zero => 0,
            Bit::One => 1,
        }
    }

    /// Builds a bit from any integer: `0` maps to [`Bit::Zero`], everything
    /// else to [`Bit::One`].
    pub fn from_u8(value: u8) -> Self {
        if value == 0 {
            Bit::Zero
        } else {
            Bit::One
        }
    }

    /// Returns the opposite bit.
    pub fn flipped(self) -> Self {
        match self {
            Bit::Zero => Bit::One,
            Bit::One => Bit::Zero,
        }
    }
}

impl fmt::Display for Bit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_u8())
    }
}

impl From<bool> for Bit {
    fn from(value: bool) -> Self {
        if value {
            Bit::One
        } else {
            Bit::Zero
        }
    }
}

/// A node's membership vector: the sequence of sublist choices, one per
/// level starting at level 1.
///
/// The derived ordering (packed bits, then length) is an arbitrary but
/// deterministic total order — callers that need "equal vectors adjacent"
/// grouping (the dummy-salvage snapshot) rely on it, nothing reads
/// structural meaning into it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MembershipVector {
    bits: u128,
    len: u16,
}

impl MembershipVector {
    /// Maximum number of levels a membership vector can describe.
    pub const MAX_LEVELS: usize = 128;

    /// Creates an empty membership vector (a node that is singleton already
    /// at level 1).
    pub fn empty() -> Self {
        MembershipVector { bits: 0, len: 0 }
    }

    /// Builds a membership vector from bits given **from level 1 upward**.
    ///
    /// # Errors
    ///
    /// Returns [`SkipGraphError::HeightLimitExceeded`] if more than
    /// [`Self::MAX_LEVELS`] bits are supplied.
    pub fn from_bits<I>(bits: I) -> Result<Self, SkipGraphError>
    where
        I: IntoIterator<Item = Bit>,
    {
        let mut mv = MembershipVector::empty();
        for bit in bits {
            mv.push(bit)?;
        }
        Ok(mv)
    }

    /// Builds the vector of `len` levels whose bits `packed` holds, laid
    /// out as [`packed`](Self::packed) returns them: the bit of level `i`
    /// at bit `i - 1`.
    ///
    /// # Errors
    ///
    /// Returns [`SkipGraphError::HeightLimitExceeded`] if `len` exceeds
    /// [`Self::MAX_LEVELS`] and
    /// [`SkipGraphError::InvalidMembershipVector`] if a bit at or above
    /// `len` is set.
    pub fn from_packed(packed: u128, len: usize) -> Result<Self, SkipGraphError> {
        if len > Self::MAX_LEVELS {
            return Err(SkipGraphError::HeightLimitExceeded {
                limit: Self::MAX_LEVELS,
            });
        }
        if len < Self::MAX_LEVELS && packed >> len != 0 {
            return Err(SkipGraphError::InvalidMembershipVector(format!(
                "bits set above its {len} levels"
            )));
        }
        Ok(MembershipVector {
            bits: packed,
            len: len as u16,
        })
    }

    /// Parses a membership vector from a string of `'0'` / `'1'` characters,
    /// most significant (level 1) first. Convenient for tests mirroring the
    /// paper's figures, e.g. `"01"` for node *M* in Figure 1.
    ///
    /// # Errors
    ///
    /// Returns [`SkipGraphError::InvalidMembershipVector`] on any character
    /// other than `'0'` or `'1'`, or if the string is longer than
    /// [`Self::MAX_LEVELS`].
    pub fn parse(text: &str) -> Result<Self, SkipGraphError> {
        let mut mv = MembershipVector::empty();
        for ch in text.chars() {
            let bit = match ch {
                '0' => Bit::Zero,
                '1' => Bit::One,
                other => {
                    return Err(SkipGraphError::InvalidMembershipVector(format!(
                        "unexpected character {other:?} in membership vector"
                    )))
                }
            };
            mv.push(bit)?;
        }
        Ok(mv)
    }

    /// Number of levels described by this vector.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Returns `true` if the vector describes no levels.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bits packed into one word, the bit of level `i` at bit `i - 1`;
    /// every bit from [`len`](Self::len) up is zero. Its low
    /// `len().div_ceil(8)` little-endian bytes are the vector packed eight
    /// levels per byte.
    pub fn packed(&self) -> u128 {
        self.bits
    }

    /// Returns the bit used at `level` (levels are 1-indexed, as in the
    /// paper), or `None` if the vector is shorter than `level`.
    pub fn bit(&self, level: usize) -> Option<Bit> {
        if level == 0 || level > self.len() {
            return None;
        }
        let idx = level - 1;
        Some(if (self.bits >> idx) & 1 == 1 {
            Bit::One
        } else {
            Bit::Zero
        })
    }

    /// Appends one more level choice.
    ///
    /// # Errors
    ///
    /// Returns [`SkipGraphError::HeightLimitExceeded`] if the vector already
    /// has [`Self::MAX_LEVELS`] bits.
    pub fn push(&mut self, bit: Bit) -> Result<(), SkipGraphError> {
        if self.len() >= Self::MAX_LEVELS {
            return Err(SkipGraphError::HeightLimitExceeded {
                limit: Self::MAX_LEVELS,
            });
        }
        if bit == Bit::One {
            self.bits |= 1u128 << self.len;
        }
        self.len += 1;
        Ok(())
    }

    /// Truncates the vector so that it describes only levels `1..=levels`.
    /// Truncating to a length greater than the current length is a no-op.
    pub fn truncate(&mut self, levels: usize) {
        if levels >= self.len() {
            return;
        }
        let keep = levels as u32;
        let mask = if keep == 0 {
            0
        } else {
            (!0u128) >> (128 - keep)
        };
        self.bits &= mask;
        self.len = levels as u16;
    }

    /// Returns the prefix of this vector identifying the node's list at
    /// `level`. Level 0 always yields the empty prefix (the base list that
    /// contains every node).
    ///
    /// If the vector is shorter than `level`, the full vector is returned as
    /// the prefix: a node that is already singleton stays (conceptually) in
    /// its singleton list at every higher level.
    pub fn prefix(&self, level: usize) -> Prefix {
        let len = level.min(self.len());
        let mask = if len == 0 {
            0
        } else {
            (!0u128) >> (128 - len as u32)
        };
        Prefix {
            bits: self.bits & mask,
            len: len as u16,
        }
    }

    /// Length of the longest common prefix between two membership vectors,
    /// i.e. the highest level at which the two nodes share a linked list.
    pub fn common_prefix_len(&self, other: &MembershipVector) -> usize {
        let max = self.len().min(other.len());
        let diff = self.bits ^ other.bits;
        let first_diff = diff.trailing_zeros() as usize;
        first_diff.min(max)
    }

    /// Length of the longest common *postfix* (suffix) between two
    /// membership vectors, used by timestamp rules T2 and T3 of the paper.
    ///
    /// The suffix is measured from the top of the *shorter* vector downward:
    /// bit `len` of one vector is compared against bit `len` of the other,
    /// then `len - 1`, and so on.
    pub fn common_postfix_len(&self, other: &MembershipVector) -> usize {
        let max = self.len().min(other.len());
        let mut count = 0;
        for i in 0..max {
            let la = self.len() - i;
            let lb = other.len() - i;
            if self.bit(la) == other.bit(lb) {
                count += 1;
            } else {
                break;
            }
        }
        count
    }

    /// Replaces all bits at levels `>= from_level` with `new_bits`
    /// (given from `from_level` upward).
    ///
    /// # Errors
    ///
    /// Returns [`SkipGraphError::HeightLimitExceeded`] if the resulting
    /// vector would exceed [`Self::MAX_LEVELS`] bits.
    pub fn replace_suffix<I>(&mut self, from_level: usize, new_bits: I) -> Result<(), SkipGraphError>
    where
        I: IntoIterator<Item = Bit>,
    {
        let keep = from_level.saturating_sub(1);
        self.truncate(keep);
        for bit in new_bits {
            self.push(bit)?;
        }
        Ok(())
    }

    /// Iterates over the bits from level 1 upward.
    pub fn iter(&self) -> impl Iterator<Item = Bit> + '_ {
        (1..=self.len()).map(|lvl| self.bit(lvl).expect("level within length"))
    }
}

impl fmt::Debug for MembershipVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m(")?;
        for bit in self.iter() {
            write!(f, "{bit}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for MembershipVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "ε");
        }
        for bit in self.iter() {
            write!(f, "{bit}")?;
        }
        Ok(())
    }
}

/// A length-`d` bit string identifying one linked list at level `d`: the
/// common membership-vector prefix shared by every node in that list
/// (the paper's "b-subgraph" designation).
///
/// The `Ord` implementation is an arbitrary but stable total order (packed
/// bits, then length); batch operations sort by it so that their processing
/// order never depends on hash-map iteration order.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Prefix {
    bits: u128,
    len: u16,
}

impl Prefix {
    /// The empty prefix: the level-0 list containing every node.
    pub fn root() -> Self {
        Prefix { bits: 0, len: 0 }
    }

    /// The level this prefix identifies a list at (its length).
    pub fn level(&self) -> usize {
        self.len as usize
    }

    /// Returns the bit at `level` (1-indexed) of this prefix.
    pub fn bit(&self, level: usize) -> Option<Bit> {
        if level == 0 || level > self.level() {
            return None;
        }
        Some(if (self.bits >> (level - 1)) & 1 == 1 {
            Bit::One
        } else {
            Bit::Zero
        })
    }

    /// Extends the prefix by one bit, producing the prefix of the 0- or
    /// 1-sublist at the next level (the left or right child in the tree
    /// view).
    pub fn child(&self, bit: Bit) -> Prefix {
        let mut bits = self.bits;
        if bit == Bit::One {
            bits |= 1u128 << self.len;
        }
        Prefix {
            bits,
            len: self.len + 1,
        }
    }

    /// Returns the parent prefix (one level shorter), or `None` for the
    /// root.
    pub fn parent(&self) -> Option<Prefix> {
        if self.len == 0 {
            return None;
        }
        let len = self.len - 1;
        let mask = if len == 0 {
            0
        } else {
            (!0u128) >> (128 - len as u32)
        };
        Some(Prefix {
            bits: self.bits & mask,
            len,
        })
    }

    /// Returns `true` if `self` is a prefix of (or equal to) `other`.
    pub fn is_prefix_of(&self, other: &Prefix) -> bool {
        if self.len > other.len {
            return false;
        }
        let mask = if self.len == 0 {
            0
        } else {
            (!0u128) >> (128 - self.len as u32)
        };
        (other.bits & mask) == self.bits
    }

    /// Iterates over the bits of the prefix from level 1 upward.
    pub fn iter(&self) -> impl Iterator<Item = Bit> + '_ {
        (1..=self.level()).map(|lvl| self.bit(lvl).expect("level within length"))
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p(")?;
        for bit in self.iter() {
            write!(f, "{bit}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.level() == 0 {
            return write!(f, "ε");
        }
        for bit in self.iter() {
            write!(f, "{bit}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        let mv = MembershipVector::parse("0110").unwrap();
        assert_eq!(mv.len(), 4);
        assert_eq!(mv.to_string(), "0110");
        assert_eq!(mv.bit(1), Some(Bit::Zero));
        assert_eq!(mv.bit(2), Some(Bit::One));
        assert_eq!(mv.bit(3), Some(Bit::One));
        assert_eq!(mv.bit(4), Some(Bit::Zero));
        assert_eq!(mv.bit(5), None);
        assert_eq!(mv.bit(0), None);
    }

    #[test]
    fn packed_bits_round_trip() {
        let mv = MembershipVector::parse("1101").unwrap();
        assert_eq!(mv.packed(), 0b1011);
        assert_eq!(MembershipVector::from_packed(mv.packed(), 4), Ok(mv));
        assert_eq!(
            MembershipVector::from_packed(0, 0),
            Ok(MembershipVector::empty())
        );
        let full = MembershipVector::from_bits(std::iter::repeat_n(Bit::One, 128)).unwrap();
        assert_eq!(MembershipVector::from_packed(u128::MAX, 128), Ok(full));
        // A bit above the length, and a length past the limit, are refused.
        assert!(MembershipVector::from_packed(0b1_0000, 4).is_err());
        assert_eq!(
            MembershipVector::from_packed(0, 129),
            Err(SkipGraphError::HeightLimitExceeded { limit: 128 })
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(MembershipVector::parse("01x0").is_err());
    }

    #[test]
    fn paper_figure1_node_m_vector() {
        // Node M in Figure 1(b) has membership vector 01: 0-sublist at
        // level 1, 1-sublist at level 2.
        let m = MembershipVector::parse("01").unwrap();
        assert_eq!(m.bit(1), Some(Bit::Zero));
        assert_eq!(m.bit(2), Some(Bit::One));
    }

    #[test]
    fn prefix_of_levels() {
        let mv = MembershipVector::parse("101").unwrap();
        assert_eq!(mv.prefix(0), Prefix::root());
        assert_eq!(mv.prefix(1).to_string(), "1");
        assert_eq!(mv.prefix(2).to_string(), "10");
        assert_eq!(mv.prefix(3).to_string(), "101");
        // Past the end of the vector the full vector acts as the prefix.
        assert_eq!(mv.prefix(9).to_string(), "101");
    }

    #[test]
    fn common_prefix_is_highest_shared_level() {
        let a = MembershipVector::parse("1011").unwrap();
        let b = MembershipVector::parse("1001").unwrap();
        assert_eq!(a.common_prefix_len(&b), 2);
        let c = MembershipVector::parse("0011").unwrap();
        assert_eq!(a.common_prefix_len(&c), 0);
        assert_eq!(a.common_prefix_len(&a), 4);
    }

    #[test]
    fn common_postfix_measured_from_the_top() {
        let a = MembershipVector::parse("1011").unwrap();
        let b = MembershipVector::parse("0011").unwrap();
        // Suffixes: a = ...0,1,1 ; b = ...0,1,1 -> 3 shared from the top.
        assert_eq!(a.common_postfix_len(&b), 3);
        let c = MembershipVector::parse("1010").unwrap();
        assert_eq!(a.common_postfix_len(&c), 0);
    }

    #[test]
    fn replace_suffix_keeps_lower_levels() {
        let mut mv = MembershipVector::parse("1011").unwrap();
        mv.replace_suffix(3, [Bit::Zero, Bit::Zero, Bit::One]).unwrap();
        assert_eq!(mv.to_string(), "10001");
    }

    #[test]
    fn truncate_clears_upper_bits() {
        let mut mv = MembershipVector::parse("1111").unwrap();
        mv.truncate(2);
        assert_eq!(mv.to_string(), "11");
        let other = MembershipVector::parse("11").unwrap();
        assert_eq!(mv, other);
    }

    #[test]
    fn prefix_child_parent_roundtrip() {
        let p = Prefix::root().child(Bit::One).child(Bit::Zero);
        assert_eq!(p.to_string(), "10");
        assert_eq!(p.parent().unwrap().to_string(), "1");
        assert_eq!(p.parent().unwrap().parent().unwrap(), Prefix::root());
        assert_eq!(Prefix::root().parent(), None);
    }

    #[test]
    fn prefix_containment() {
        let a = Prefix::root().child(Bit::One);
        let b = a.child(Bit::Zero);
        assert!(a.is_prefix_of(&b));
        assert!(!b.is_prefix_of(&a));
        assert!(Prefix::root().is_prefix_of(&b));
        assert!(a.is_prefix_of(&a));
    }

    #[test]
    fn height_limit_is_enforced() {
        let mut mv = MembershipVector::empty();
        for _ in 0..MembershipVector::MAX_LEVELS {
            mv.push(Bit::One).unwrap();
        }
        assert!(matches!(
            mv.push(Bit::Zero),
            Err(SkipGraphError::HeightLimitExceeded { .. })
        ));
    }
}

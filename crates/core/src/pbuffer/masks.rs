//! The 32-bit warp bitmasks used throughout the persist buffer.

use crate::scope::WarpSlot;
use std::fmt;
use std::ops::{BitAnd, BitOr, BitOrAssign, Not};

/// A set of warp slots, one bit per resident warp of an SM.
///
/// Used for PB entries' `Warp BM` and for the ODM/EDM/FSM hardware masks
/// (§6: "The number of bits in each mask is equal to the maximum resident
/// warps in an SM (here, 32)").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct WarpMask(pub u32);

impl WarpMask {
    /// The empty mask.
    pub const EMPTY: WarpMask = WarpMask(0);
    /// All 32 warp slots.
    pub const ALL: WarpMask = WarpMask(u32::MAX);

    /// A mask containing a single warp.
    #[must_use]
    pub fn single(warp: WarpSlot) -> Self {
        WarpMask(warp.bit())
    }

    /// Whether no warps are in the mask.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of warps in the mask.
    #[must_use]
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Adds a warp to the mask.
    pub fn set(&mut self, warp: WarpSlot) {
        self.0 |= warp.bit();
    }

    /// Removes a warp from the mask.
    pub fn clear(&mut self, warp: WarpSlot) {
        self.0 &= !warp.bit();
    }

    /// Removes all warps.
    pub fn clear_all(&mut self) {
        self.0 = 0;
    }

    /// Whether `warp` is in the mask.
    #[must_use]
    pub fn contains(self, warp: WarpSlot) -> bool {
        self.0 & warp.bit() != 0
    }

    /// Whether the two masks share any warp (the hardware's bitwise-AND
    /// test between a PB entry's Warp BM and the FSM).
    #[must_use]
    pub fn intersects(self, other: WarpMask) -> bool {
        self.0 & other.0 != 0
    }

    /// Iterates over the warps in the mask, lowest slot first, visiting
    /// only the set bits.
    pub fn iter(self) -> impl Iterator<Item = WarpSlot> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let slot = bits.trailing_zeros() as u8;
                bits &= bits - 1;
                WarpSlot(slot)
            })
        })
    }
}

impl BitOr for WarpMask {
    type Output = WarpMask;
    fn bitor(self, rhs: WarpMask) -> WarpMask {
        WarpMask(self.0 | rhs.0)
    }
}

impl BitOrAssign for WarpMask {
    fn bitor_assign(&mut self, rhs: WarpMask) {
        self.0 |= rhs.0;
    }
}

impl BitAnd for WarpMask {
    type Output = WarpMask;
    fn bitand(self, rhs: WarpMask) -> WarpMask {
        WarpMask(self.0 & rhs.0)
    }
}

impl Not for WarpMask {
    type Output = WarpMask;
    fn not(self) -> WarpMask {
        WarpMask(!self.0)
    }
}

impl From<WarpSlot> for WarpMask {
    fn from(w: WarpSlot) -> Self {
        WarpMask::single(w)
    }
}

impl fmt::Binary for WarpMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl fmt::Display for WarpMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for w in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{w}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl FromIterator<WarpSlot> for WarpMask {
    fn from_iter<I: IntoIterator<Item = WarpSlot>>(iter: I) -> Self {
        let mut m = WarpMask::EMPTY;
        for w in iter {
            m.set(w);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clear_contains() {
        let mut m = WarpMask::EMPTY;
        assert!(m.is_empty());
        m.set(WarpSlot::new(3));
        m.set(WarpSlot::new(31));
        assert!(m.contains(WarpSlot::new(3)));
        assert!(m.contains(WarpSlot::new(31)));
        assert!(!m.contains(WarpSlot::new(4)));
        assert_eq!(m.count(), 2);
        m.clear(WarpSlot::new(3));
        assert!(!m.contains(WarpSlot::new(3)));
        m.clear_all();
        assert!(m.is_empty());
    }

    #[test]
    fn intersects_matches_bitwise_and() {
        let a: WarpMask = [WarpSlot::new(1), WarpSlot::new(5)].into_iter().collect();
        let b: WarpMask = [WarpSlot::new(5), WarpSlot::new(9)].into_iter().collect();
        let c: WarpMask = [WarpSlot::new(2)].into_iter().collect();
        assert!(a.intersects(b));
        assert!(!a.intersects(c));
        assert_eq!((a & b).count(), 1);
        assert_eq!((a | b).count(), 3);
    }

    #[test]
    fn iter_yields_slots_in_order() {
        let m: WarpMask = [WarpSlot::new(7), WarpSlot::new(0), WarpSlot::new(30)]
            .into_iter()
            .collect();
        let slots: Vec<_> = m.iter().map(WarpSlot::index).collect();
        assert_eq!(slots, vec![0, 7, 30]);
    }

    #[test]
    fn display_is_nonempty_even_when_empty() {
        assert_eq!(WarpMask::EMPTY.to_string(), "{}");
        assert_eq!(WarpMask::single(WarpSlot::new(2)).to_string(), "{w2}");
    }
}

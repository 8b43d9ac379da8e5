//! Persist-buffer entries.

use super::masks::WarpMask;
use crate::scope::Scope;
use std::fmt;

/// Index of a cache line within the SM's L1 (§6: "If the entry is a
/// persist, it holds the index of the dirty L1 cache line containing the
/// data").
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineIdx(pub u32);

impl From<u32> for LineIdx {
    fn from(v: u32) -> Self {
        LineIdx(v)
    }
}

impl fmt::Display for LineIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// The `Type` field of a PB entry (§6: "Three 'Type' bits indicate
/// whether an entry corresponds to a persist or an ordering point").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntryKind {
    /// A buffered persist holding the index of its dirty L1 line.
    Persist(LineIdx),
    /// An `oFence` ordering point.
    OFence,
    /// A `dFence` ordering + durability point.
    DFence,
    /// A scoped persist acquire.
    PAcq(Scope),
    /// A scoped persist release.
    PRel(Scope),
    /// The slot of a persist that was flushed early by an eviction; the
    /// drain loop skips it. (A software artifact: hardware compacts the
    /// FIFO instead.)
    Tombstone,
}

impl EntryKind {
    /// Whether the entry is an ordering point (anything but a persist).
    #[must_use]
    pub fn is_ordering(self) -> bool {
        !matches!(self, EntryKind::Persist(_) | EntryKind::Tombstone)
    }
}

/// One persist-buffer entry: a `Type`, the L1 line index for persists,
/// and the Warp BM of issuing warps (~44 bits of real hardware state).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PbEntry {
    /// Monotonic sequence number (software stand-in for FIFO position).
    pub seq: u64,
    /// Entry type.
    pub kind: EntryKind,
    /// Warps that issued (or coalesced into) this entry.
    pub warps: WarpMask,
}

impl PbEntry {
    /// Creates a fresh entry.
    #[must_use]
    pub fn new(seq: u64, kind: EntryKind, warps: WarpMask) -> Self {
        PbEntry { seq, kind, warps }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::WarpSlot;

    #[test]
    fn ordering_classification() {
        assert!(!EntryKind::Persist(LineIdx(0)).is_ordering());
        assert!(!EntryKind::Tombstone.is_ordering());
        assert!(EntryKind::OFence.is_ordering());
        assert!(EntryKind::DFence.is_ordering());
        assert!(EntryKind::PAcq(Scope::Block).is_ordering());
        assert!(EntryKind::PRel(Scope::Device).is_ordering());
    }

    #[test]
    fn entry_construction() {
        let e = PbEntry::new(7, EntryKind::OFence, WarpMask::single(WarpSlot::new(2)));
        assert_eq!(e.seq, 7);
        assert!(e.warps.contains(WarpSlot::new(2)));
    }
}

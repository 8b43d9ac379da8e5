//! The FIFO persist buffer proper: entry storage, coalescing lookups,
//! and the ordering queries the rules of §6.1 are written in terms of.

use super::entry::{EntryKind, LineIdx, PbEntry};
use super::masks::WarpMask;
use crate::scope::{WarpSlot, MAX_WARPS_PER_SM};
use std::collections::{HashMap, VecDeque};

/// A bounded FIFO of [`PbEntry`]s with the index structures needed to
/// answer the coalescing and ordering questions of §6.1 in O(1).
///
/// Hardware would realize the same queries with the per-line PB index
/// bits and FIFO position comparisons; here entries carry monotonically
/// increasing sequence numbers instead, so "before/after in the PB" is a
/// sequence comparison.
///
/// Only persist entries can leave the middle of the FIFO (an early
/// flush leaves a tombstone); an ordering entry retires only from the
/// head, when it is the oldest live entry of all. So each warp's queue
/// of live ordering seqs, kept ascending, loses only its front: the
/// front is the warp's oldest live ordering entry and the back its
/// newest, and both ordering rules are one compare per warp.
#[derive(Debug)]
pub struct PersistBuffer {
    fifo: VecDeque<PbEntry>,
    next_seq: u64,
    capacity: usize,
    /// Dirty-PM-line → the seq of its persist entry (the cache's
    /// per-line "8 bits to index into the PB").
    line_map: HashMap<LineIdx, u64>,
    /// Per warp, the seqs of the live ordering entries it issued or
    /// coalesced into, ascending.
    warp_order: Vec<VecDeque<u64>>,
    /// Live ordering entries.
    ordering_live: usize,
    /// Live (non-tombstone) entry count; tombstones do not use capacity
    /// (hardware compacts its FIFO).
    live: usize,
}

impl PersistBuffer {
    /// Creates a buffer holding at most `capacity` live entries.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "persist buffer needs at least one entry");
        PersistBuffer {
            fifo: VecDeque::new(),
            next_seq: 0,
            capacity,
            line_map: HashMap::new(),
            warp_order: vec![VecDeque::new(); MAX_WARPS_PER_SM],
            ordering_live: 0,
            live: 0,
        }
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the buffer holds no live entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Whether a push would be refused.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.live >= self.capacity
    }

    /// Maximum number of live entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of live ordering entries.
    #[must_use]
    pub fn ordering_len(&self) -> usize {
        self.ordering_live
    }

    /// Appends a fresh entry for `warp`; returns its seq, or `None` if
    /// the buffer is full.
    pub fn push(&mut self, kind: EntryKind, warp: WarpSlot) -> Option<u64> {
        if self.is_full() {
            return None;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.fifo
            .push_back(PbEntry::new(seq, kind, WarpMask::single(warp)));
        self.live += 1;
        match kind {
            EntryKind::Persist(line) => {
                let prev = self.line_map.insert(line, seq);
                debug_assert!(prev.is_none(), "line {line} already had a PB entry");
            }
            EntryKind::Tombstone => unreachable!("tombstones are not pushed"),
            _ => {
                self.ordering_live += 1;
                self.warp_order[warp.index()].push_back(seq);
            }
        }
        Some(seq)
    }

    fn index_of(&self, seq: u64) -> Option<usize> {
        let front = self.fifo.front()?.seq;
        if seq < front {
            return None;
        }
        let idx = (seq - front) as usize;
        (idx < self.fifo.len()).then_some(idx)
    }

    /// The entry with sequence number `seq`, if still present.
    #[must_use]
    pub fn entry(&self, seq: u64) -> Option<&PbEntry> {
        self.index_of(seq).map(|i| &self.fifo[i])
    }

    /// The seqs the FIFO spans, head to tail, tombstones included: each
    /// names an entry of [`PersistBuffer::entry`].
    #[must_use]
    pub fn seqs(&self) -> std::ops::Range<u64> {
        self.fifo.front().map_or(self.next_seq, |e| e.seq)..self.next_seq
    }

    /// Coalesces `warp` into an existing entry: sets its Warp BM bit and,
    /// for ordering entries, adds the entry to the warp's ordering queue.
    ///
    /// # Panics
    /// Panics if `seq` is no longer in the buffer.
    pub fn coalesce(&mut self, seq: u64, warp: WarpSlot) {
        let idx = self.index_of(seq).expect("coalesce target drained");
        let kind = self.fifo[idx].kind;
        self.fifo[idx].warps.set(warp);
        if kind.is_ordering() {
            // Ordering entries coalesce at the tail, so this is a
            // push_back unless the warp is already in the entry.
            let q = &mut self.warp_order[warp.index()];
            let at = q.partition_point(|&s| s < seq);
            if q.get(at) != Some(&seq) {
                q.insert(at, seq);
            }
        }
    }

    /// The seq of the persist entry covering `line`, if any.
    #[must_use]
    pub fn line_entry(&self, line: LineIdx) -> Option<u64> {
        self.line_map.get(&line).copied()
    }

    /// §6.1 store-hit rule: does `warp` have a live ordering entry
    /// *after* `seq`? If so, a store may not coalesce into entry `seq`.
    #[must_use]
    pub fn warp_has_ordering_after(&self, warp: WarpSlot, seq: u64) -> bool {
        self.warp_order[warp.index()]
            .back()
            .is_some_and(|&last| last > seq)
    }

    /// §6.1 eviction rule, warp-qualified: is there a live ordering entry
    /// before `seq` issued by (or coalesced with) any warp in `warps`?
    ///
    /// A foreign warp's fence does not order this entry's persists (the
    /// Warp BM exists precisely to avoid such false ordering, §6), and
    /// cross-warp release/acquire chains always leave an ordering entry
    /// carrying the consuming warp's bit, so restricting the check to the
    /// entry's own warps is sound.
    #[must_use]
    pub fn has_ordering_before_for(&self, seq: u64, warps: WarpMask) -> bool {
        warps.iter().any(|w| {
            self.warp_order[w.index()]
                .front()
                .is_some_and(|&first| first < seq)
        })
    }

    /// The tail entry, if any (used for tail coalescing of ordering ops).
    #[must_use]
    pub fn back(&self) -> Option<&PbEntry> {
        self.fifo.back()
    }

    /// Peeks the head live entry, discarding any leading tombstones.
    pub fn peek_head(&mut self) -> Option<&PbEntry> {
        while matches!(self.fifo.front(), Some(e) if e.kind == EntryKind::Tombstone) {
            self.fifo.pop_front();
        }
        self.fifo.front()
    }

    /// Removes and returns the head live entry.
    pub fn pop_head(&mut self) -> Option<PbEntry> {
        self.peek_head()?;
        let e = self.fifo.pop_front().expect("peeked entry vanished");
        self.retire(&e);
        Some(e)
    }

    /// Flushes a persist entry out of the middle of the FIFO (an early
    /// eviction), leaving a tombstone. Returns the entry.
    ///
    /// # Panics
    /// Panics if `seq` is not a live persist entry.
    pub fn tombstone(&mut self, seq: u64) -> PbEntry {
        let idx = self.index_of(seq).expect("tombstone target drained");
        assert!(
            matches!(self.fifo[idx].kind, EntryKind::Persist(_)),
            "only persists can be flushed early"
        );
        let replaced = std::mem::replace(
            &mut self.fifo[idx],
            PbEntry::new(seq, EntryKind::Tombstone, WarpMask::EMPTY),
        );
        self.retire(&replaced);
        replaced
    }

    fn retire(&mut self, e: &PbEntry) {
        match e.kind {
            EntryKind::Persist(line) => {
                self.line_map.remove(&line);
                self.live -= 1;
            }
            EntryKind::Tombstone => {}
            _ => {
                // Ordering entries retire only from the FIFO head, so
                // each of the entry's warps has it at its queue front.
                self.ordering_live -= 1;
                for w in e.warps.iter() {
                    let front = self.warp_order[w.index()].pop_front();
                    debug_assert_eq!(front, Some(e.seq), "ordering entry retired out of order");
                }
                self.live -= 1;
            }
        }
    }

    /// Iterates over live entries from head to tail.
    pub fn iter(&self) -> impl Iterator<Item = &PbEntry> {
        self.fifo.iter().filter(|e| e.kind != EntryKind::Tombstone)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::Scope;
    use proptest::prelude::*;

    fn w(i: usize) -> WarpSlot {
        WarpSlot::new(i)
    }

    #[test]
    fn push_and_capacity() {
        let mut pb = PersistBuffer::new(2);
        assert!(pb.push(EntryKind::Persist(LineIdx(1)), w(0)).is_some());
        assert!(pb.push(EntryKind::OFence, w(0)).is_some());
        assert!(pb.is_full());
        assert!(pb.push(EntryKind::Persist(LineIdx(2)), w(0)).is_none());
        assert_eq!(pb.len(), 2);
    }

    #[test]
    fn line_map_tracks_persists() {
        let mut pb = PersistBuffer::new(8);
        let s = pb.push(EntryKind::Persist(LineIdx(5)), w(1)).unwrap();
        assert_eq!(pb.line_entry(LineIdx(5)), Some(s));
        assert_eq!(pb.line_entry(LineIdx(6)), None);
        pb.pop_head();
        assert_eq!(pb.line_entry(LineIdx(5)), None);
    }

    #[test]
    fn ordering_after_is_warp_specific() {
        let mut pb = PersistBuffer::new(8);
        let s = pb.push(EntryKind::Persist(LineIdx(1)), w(0)).unwrap();
        pb.push(EntryKind::OFence, w(0)).unwrap();
        assert!(pb.warp_has_ordering_after(w(0), s));
        assert!(!pb.warp_has_ordering_after(w(1), s));
    }

    #[test]
    fn ordering_after_clears_when_fence_drains() {
        let mut pb = PersistBuffer::new(8);
        let _p = pb.push(EntryKind::Persist(LineIdx(1)), w(0)).unwrap();
        pb.push(EntryKind::OFence, w(0)).unwrap();
        pb.pop_head(); // the persist
        pb.pop_head(); // the fence
        let s2 = pb.push(EntryKind::Persist(LineIdx(1)), w(0)).unwrap();
        assert!(!pb.warp_has_ordering_after(w(0), s2));
    }

    #[test]
    fn ordering_before_for_evictions() {
        let mut pb = PersistBuffer::new(8);
        let p1 = pb.push(EntryKind::Persist(LineIdx(1)), w(0)).unwrap();
        pb.push(EntryKind::PRel(Scope::Block), w(0)).unwrap();
        let p2 = pb.push(EntryKind::Persist(LineIdx(2)), w(0)).unwrap();
        let w0 = WarpMask::single(w(0));
        assert!(!pb.has_ordering_before_for(p1, w0));
        assert!(pb.has_ordering_before_for(p2, w0));
        assert!(
            !pb.has_ordering_before_for(p2, WarpMask::single(w(1))),
            "a foreign warp's release does not order the entry"
        );
    }

    #[test]
    fn tombstone_flushes_out_of_the_middle() {
        let mut pb = PersistBuffer::new(8);
        let p1 = pb.push(EntryKind::Persist(LineIdx(1)), w(0)).unwrap();
        let p2 = pb.push(EntryKind::Persist(LineIdx(2)), w(0)).unwrap();
        let gone = pb.tombstone(p2);
        assert_eq!(gone.kind, EntryKind::Persist(LineIdx(2)));
        assert_eq!(pb.line_entry(LineIdx(2)), None);
        assert_eq!(pb.len(), 1);
        // Head drain still returns p1 then skips the tombstone.
        assert_eq!(pb.pop_head().unwrap().seq, p1);
        assert!(pb.pop_head().is_none());
        assert!(pb.is_empty());
    }

    #[test]
    fn peek_skips_leading_tombstones() {
        let mut pb = PersistBuffer::new(8);
        let p1 = pb.push(EntryKind::Persist(LineIdx(1)), w(0)).unwrap();
        let p2 = pb.push(EntryKind::Persist(LineIdx(2)), w(0)).unwrap();
        pb.tombstone(p1);
        assert_eq!(pb.peek_head().unwrap().seq, p2);
    }

    #[test]
    fn coalesce_sets_warp_bits() {
        let mut pb = PersistBuffer::new(8);
        let s = pb.push(EntryKind::Persist(LineIdx(1)), w(0)).unwrap();
        pb.coalesce(s, w(3));
        let e = pb.entry(s).unwrap();
        assert!(e.warps.contains(w(0)));
        assert!(e.warps.contains(w(3)));
    }

    #[test]
    fn coalescing_an_ordering_entry_updates_last_order() {
        let mut pb = PersistBuffer::new(8);
        let p = pb.push(EntryKind::Persist(LineIdx(1)), w(5)).unwrap();
        let f = pb.push(EntryKind::OFence, w(0)).unwrap();
        pb.coalesce(f, w(5));
        assert!(pb.warp_has_ordering_after(w(5), p));
    }

    #[test]
    fn iter_skips_tombstones() {
        let mut pb = PersistBuffer::new(8);
        let p1 = pb.push(EntryKind::Persist(LineIdx(1)), w(0)).unwrap();
        pb.push(EntryKind::Persist(LineIdx(2)), w(0)).unwrap();
        pb.tombstone(p1);
        assert_eq!(pb.iter().count(), 1);
    }

    /// One operation of the random buffer workload.
    #[derive(Clone, Debug)]
    enum Op {
        /// Push a persist entry for the line, if it has none.
        Persist(u32, usize),
        /// Push an ordering entry, or coalesce into the tail when it is
        /// an ordering entry of the same kind (as the unit does).
        Order(u8, usize),
        /// Tombstone the live persist entry at this position.
        Tombstone(usize),
        PopHead,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => (0u32..16, 0usize..6).prop_map(|(l, w)| Op::Persist(l, w)),
            3 => (0u8..3, 0usize..6).prop_map(|(k, w)| Op::Order(k, w)),
            2 => (0usize..32).prop_map(Op::Tombstone),
            3 => Just(Op::PopHead),
        ]
    }

    fn ordering_kind(k: u8) -> EntryKind {
        match k {
            0 => EntryKind::OFence,
            1 => EntryKind::PRel(Scope::Block),
            _ => EntryKind::PAcq(Scope::Block),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The per-warp ordering queues answer exactly what a scan of
        /// the live FIFO answers, after every push, tail coalesce,
        /// out-of-order tombstone and head pop.
        #[test]
        fn ordering_queries_match_a_fifo_scan(
            ops in proptest::collection::vec(op_strategy(), 1..120),
        ) {
            let mut pb = PersistBuffer::new(24);
            for op in ops {
                match op {
                    Op::Persist(line, warp) => {
                        let line = LineIdx(line);
                        if pb.line_entry(line).is_none() {
                            pb.push(EntryKind::Persist(line), w(warp));
                        }
                    }
                    Op::Order(k, warp) => {
                        let kind = ordering_kind(k);
                        match pb.back() {
                            Some(b) if b.kind == kind => {
                                let seq = b.seq;
                                pb.coalesce(seq, w(warp));
                            }
                            _ => drop(pb.push(kind, w(warp))),
                        }
                    }
                    Op::Tombstone(pos) => {
                        let persists: Vec<u64> = pb
                            .iter()
                            .filter(|e| matches!(e.kind, EntryKind::Persist(_)))
                            .map(|e| e.seq)
                            .collect();
                        if !persists.is_empty() {
                            pb.tombstone(persists[pos % persists.len()]);
                        }
                    }
                    Op::PopHead => drop(pb.pop_head()),
                }
                let live: Vec<&PbEntry> = pb.iter().collect();
                let ordering: Vec<&PbEntry> =
                    live.iter().copied().filter(|e| e.kind.is_ordering()).collect();
                prop_assert_eq!(pb.ordering_len(), ordering.len());
                for e in &live {
                    for mask in [e.warps, WarpMask(0b11_0101), WarpMask::ALL] {
                        let scan = ordering
                            .iter()
                            .any(|o| o.seq < e.seq && o.warps.intersects(mask));
                        prop_assert_eq!(
                            pb.has_ordering_before_for(e.seq, mask),
                            scan,
                            "seq {} mask {:?}",
                            e.seq,
                            mask
                        );
                    }
                    for warp in 0..6 {
                        let scan = ordering
                            .iter()
                            .any(|o| o.seq > e.seq && o.warps.contains(w(warp)));
                        prop_assert_eq!(pb.warp_has_ordering_after(w(warp), e.seq), scan);
                    }
                }
            }
        }
    }
}

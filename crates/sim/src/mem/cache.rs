//! Tag-only set-associative cache with LRU replacement.
//!
//! Values live in the functional [`Backing`](super::Backing) stores, so
//! the cache tracks only residency and per-line metadata: a dirty bit and
//! the PM bit the paper adds to every L1 line (§6, Fig. 5). The persist
//! buffer's per-line entry index is kept inside
//! [`sbrp_core::pbuffer::PersistUnit`] keyed by the global line index.

/// Description of a line that must leave the cache to make room.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Victim {
    /// Line-aligned address of the victim.
    pub addr: u64,
    /// Whether the victim holds unwritten-back data.
    pub dirty: bool,
    /// Whether the victim caches PM data.
    pub pm: bool,
    /// Global line index of the victim.
    pub line: u32,
}

/// Aggregate counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// Lines installed.
    pub fills: u64,
    /// Valid lines evicted.
    pub evictions: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct Line {
    addr: u64,
    valid: bool,
    dirty: bool,
    pm: bool,
    lru: u64,
}

/// The cache proper.
#[derive(Debug)]
pub struct Cache {
    sets: u32,
    ways: u32,
    line_bytes: u32,
    lines: Vec<Line>,
    stamp: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates a cache of `size_bytes` with `ways` associativity.
    ///
    /// # Panics
    /// Panics unless `size_bytes` is a multiple of `ways * line_bytes`.
    #[must_use]
    pub fn new(size_bytes: u32, ways: u32, line_bytes: u32) -> Self {
        assert!(ways > 0 && line_bytes > 0);
        assert_eq!(size_bytes % (ways * line_bytes), 0, "ragged cache geometry");
        // Sets are indexed by modulo, so non-power-of-two counts (e.g.
        // the 3 MiB L2) are fine.
        let sets = size_bytes / (ways * line_bytes);
        assert!(sets > 0, "cache too small for its geometry");
        Cache {
            sets,
            ways,
            line_bytes,
            lines: vec![Line::default(); (sets * ways) as usize],
            stamp: 0,
            stats: CacheStats::default(),
        }
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Aligns an address to its line.
    #[must_use]
    pub fn line_align(&self, addr: u64) -> u64 {
        addr & !u64::from(self.line_bytes - 1)
    }

    /// The line size in bytes.
    #[must_use]
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    fn set_of(&self, addr: u64) -> u32 {
        ((addr / u64::from(self.line_bytes)) % u64::from(self.sets)) as u32
    }

    fn set_range(&self, addr: u64) -> std::ops::Range<usize> {
        let s = self.set_of(addr) as usize * self.ways as usize;
        s..s + self.ways as usize
    }

    /// Looks an address up, updating LRU and hit/miss counters. Returns
    /// the global line index on a hit.
    pub fn lookup(&mut self, addr: u64) -> Option<u32> {
        let aligned = self.line_align(addr);
        self.stamp += 1;
        let stamp = self.stamp;
        for i in self.set_range(addr) {
            if self.lines[i].valid && self.lines[i].addr == aligned {
                self.lines[i].lru = stamp;
                self.stats.hits += 1;
                return Some(i as u32);
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Looks an address up without touching LRU or counters.
    #[must_use]
    pub fn peek(&self, addr: u64) -> Option<u32> {
        let aligned = self.line_align(addr);
        self.set_range(addr)
            .find(|&i| self.lines[i].valid && self.lines[i].addr == aligned)
            .map(|i| i as u32)
    }

    /// Chooses the line a fill of `addr` would replace, without modifying
    /// anything. Returns the way's global index and, if it currently
    /// holds a valid line, that line's description.
    ///
    /// Victim preference: invalid ways first, then LRU among lines that
    /// are *not* dirty PM (those can leave silently or with a cheap
    /// writeback), and only then dirty PM lines — whose eviction must
    /// consult the persist engine and may stall. Preferring unpinned
    /// ways keeps persist-heavy working sets from wedging the cache.
    #[must_use]
    pub fn choose_victim(&self, addr: u64) -> (u32, Option<Victim>) {
        debug_assert!(
            self.peek(addr).is_none(),
            "choose_victim on a resident line"
        );
        let mut best_unpinned = None::<usize>;
        let mut best_any = None::<usize>;
        for i in self.set_range(addr) {
            if !self.lines[i].valid {
                return (i as u32, None);
            }
            if !(self.lines[i].pm && self.lines[i].dirty)
                && best_unpinned.is_none_or(|b| self.lines[i].lru < self.lines[b].lru)
            {
                best_unpinned = Some(i);
            }
            if best_any.is_none_or(|b| self.lines[i].lru < self.lines[b].lru) {
                best_any = Some(i);
            }
        }
        let i = best_unpinned.or(best_any).expect("non-empty set");
        let l = &self.lines[i];
        (
            i as u32,
            Some(Victim {
                addr: l.addr,
                dirty: l.dirty,
                pm: l.pm,
                line: i as u32,
            }),
        )
    }

    /// Installs `addr` into way `line` (obtained from
    /// [`Cache::choose_victim`]), evicting whatever was there.
    pub fn install(&mut self, line: u32, addr: u64, dirty: bool, pm: bool) {
        let aligned = self.line_align(addr);
        debug_assert_eq!(self.set_of(aligned), self.set_of(self.way_base(line)));
        self.stamp += 1;
        let l = &mut self.lines[line as usize];
        if l.valid {
            self.stats.evictions += 1;
        }
        *l = Line {
            addr: aligned,
            valid: true,
            dirty,
            pm,
            lru: self.stamp,
        };
        self.stats.fills += 1;
    }

    fn way_base(&self, line: u32) -> u64 {
        // Reconstruct an address in the same set for the debug assert.
        u64::from(line / self.ways) * u64::from(self.line_bytes)
    }

    /// Marks a resident line dirty (and PM if `pm`).
    pub fn mark_dirty(&mut self, line: u32, pm: bool) {
        let l = &mut self.lines[line as usize];
        debug_assert!(l.valid);
        l.dirty = true;
        l.pm = pm;
    }

    /// Clears the dirty bit (after a writeback that keeps the line).
    pub fn clean(&mut self, line: u32) {
        self.lines[line as usize].dirty = false;
    }

    /// Invalidates a line by index.
    pub fn invalidate(&mut self, line: u32) {
        self.lines[line as usize].valid = false;
    }

    /// Invalidates the line holding `addr`, if resident. Returns whether
    /// a line was dropped.
    pub fn invalidate_addr(&mut self, addr: u64) -> bool {
        if let Some(i) = self.peek(addr) {
            self.invalidate(i);
            true
        } else {
            false
        }
    }

    /// The line-aligned address held by a valid line.
    ///
    /// # Panics
    /// Panics if the line is invalid.
    #[must_use]
    pub fn addr_of(&self, line: u32) -> u64 {
        let l = &self.lines[line as usize];
        assert!(l.valid, "addr_of on an invalid line");
        l.addr
    }

    /// Whether a valid line is dirty.
    #[must_use]
    pub fn is_dirty(&self, line: u32) -> bool {
        self.lines[line as usize].valid && self.lines[line as usize].dirty
    }

    /// Whether a valid line holds PM data.
    #[must_use]
    pub fn is_pm(&self, line: u32) -> bool {
        self.lines[line as usize].valid && self.lines[line as usize].pm
    }

    /// Indices of all valid dirty lines, optionally restricted to PM
    /// lines (the epoch barrier's flush snapshot).
    #[must_use]
    pub fn dirty_lines(&self, pm_only: bool) -> Vec<u32> {
        self.lines
            .iter()
            .enumerate()
            .filter(|(_, l)| l.valid && l.dirty && (!pm_only || l.pm))
            .map(|(i, _)| i as u32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> Cache {
        // 4 sets × 2 ways × 128 B = 1 KiB
        Cache::new(1024, 2, 128)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = cache();
        assert_eq!(c.lookup(0x100), None);
        let (way, victim) = c.choose_victim(0x100);
        assert!(victim.is_none());
        c.install(way, 0x100, false, false);
        assert_eq!(c.lookup(0x13f), Some(way), "same line hits");
        assert_eq!(c.lookup(0x180), None, "next line misses");
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_victim_selection() {
        let mut c = cache();
        // Three addresses mapping to set 0 (stride = sets*line = 512).
        let a = 0x0000;
        let b = 0x0200;
        let d = 0x0400;
        for &addr in &[a, b] {
            let (w, _) = c.choose_victim(addr);
            c.install(w, addr, false, false);
        }
        c.lookup(a); // touch a: b becomes LRU
        let (_, victim) = c.choose_victim(d);
        assert_eq!(victim.unwrap().addr, b);
    }

    #[test]
    fn victims_prefer_unpinned_lines() {
        let mut c = cache();
        let (w, _) = c.choose_victim(0x0000);
        c.install(w, 0x0000, false, false);
        c.mark_dirty(w, true); // dirty PM: pinned
        let (w2, _) = c.choose_victim(0x0200);
        c.install(w2, 0x0200, false, false);
        // Even though 0x0000 is LRU, the clean line is evicted first.
        let (_, victim) = c.choose_victim(0x0400);
        assert_eq!(victim.unwrap().addr, 0x0200);
    }

    #[test]
    fn pinned_victim_chosen_when_no_alternative() {
        let mut c = cache();
        for (i, addr) in [0x0000u64, 0x0200].into_iter().enumerate() {
            let (w, _) = c.choose_victim(addr);
            c.install(w, addr, false, false);
            c.mark_dirty(w, true);
            let _ = i;
        }
        let (_, victim) = c.choose_victim(0x0400);
        let v = victim.unwrap();
        assert!(v.dirty && v.pm);
        assert_eq!(v.addr, 0x0000, "LRU among pinned lines");
    }

    #[test]
    fn invalidate_addr_drops_the_line() {
        let mut c = cache();
        let (w, _) = c.choose_victim(0x300);
        c.install(w, 0x300, false, false);
        assert!(c.invalidate_addr(0x340));
        assert!(!c.invalidate_addr(0x340));
        assert_eq!(c.peek(0x300), None);
    }

    #[test]
    fn dirty_lines_filters_pm() {
        let mut c = cache();
        let (w1, _) = c.choose_victim(0x000);
        c.install(w1, 0x000, true, false);
        let (w2, _) = c.choose_victim(0x080);
        c.install(w2, 0x080, true, true);
        assert_eq!(c.dirty_lines(false).len(), 2);
        assert_eq!(c.dirty_lines(true), vec![w2]);
        c.clean(w2);
        assert!(c.dirty_lines(true).is_empty());
    }

    #[test]
    fn line_alignment() {
        let c = cache();
        assert_eq!(c.line_align(0x17f), 0x100);
        assert_eq!(c.line_align(0x180), 0x180);
    }
}

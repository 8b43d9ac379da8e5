//! Sparse byte-addressable backing store.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Multiplicative hasher for page numbers. Page keys are small dense
/// integers, so SipHash is pure overhead on the per-access path; a
/// Fibonacci multiply spreads them across the table just as well.
#[derive(Default)]
pub struct PageKeyHasher(u64);

impl Hasher for PageKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type PageMap = HashMap<u64, Box<[u8; PAGE_SIZE]>, BuildHasherDefault<PageKeyHasher>>;

/// A sparse, byte-addressable memory image. Used for the functional GDDR
/// and NVM contents and for the durable NVM image that crash recovery
/// boots from.
///
/// Accesses that stay inside one 4 KiB page — all of them, in practice —
/// cost a single page-table lookup, not one per byte: the per-byte
/// variant dominated the simulator's completion-routing profile.
#[derive(Clone, Default)]
pub struct Backing {
    pages: PageMap,
}

impl std::fmt::Debug for Backing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Backing")
            .field("pages", &self.pages.len())
            .finish()
    }
}

impl Backing {
    /// Creates an empty (all-zero) image.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of materialized 4 KiB pages.
    #[must_use]
    pub fn pages(&self) -> usize {
        self.pages.len()
    }

    fn page(&self, addr: u64) -> Option<&[u8; PAGE_SIZE]> {
        self.pages.get(&(addr >> PAGE_SHIFT)).map(AsRef::as_ref)
    }

    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Reads one byte.
    #[must_use]
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.page(addr)
            .map_or(0, |p| p[(addr as usize) & (PAGE_SIZE - 1)])
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, v: u8) {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        self.page_mut(addr)[off] = v;
    }

    /// Reads `len` bytes into a vector (little-endian order in memory).
    #[must_use]
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.read_into(addr, &mut out);
        out
    }

    /// Fills `out` with the bytes starting at `addr`: one page lookup
    /// and one copy per page the range touches, and no allocation.
    pub fn read_into(&self, addr: u64, out: &mut [u8]) {
        let mut done = 0usize;
        while done < out.len() {
            let a = addr + done as u64;
            let off = (a as usize) & (PAGE_SIZE - 1);
            let run = (PAGE_SIZE - off).min(out.len() - done);
            let dst = &mut out[done..done + run];
            match self.page(a) {
                Some(p) => dst.copy_from_slice(&p[off..off + run]),
                None => dst.fill(0),
            }
            done += run;
        }
    }

    /// Writes a byte slice.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let mut done = 0usize;
        while done < bytes.len() {
            let a = addr + done as u64;
            let off = (a as usize) & (PAGE_SIZE - 1);
            let run = (PAGE_SIZE - off).min(bytes.len() - done);
            self.page_mut(a)[off..off + run].copy_from_slice(&bytes[done..done + run]);
            done += run;
        }
    }

    /// Reads a little-endian value of `width` bytes (≤ 8), zero-extended.
    #[must_use]
    pub fn read_uint(&self, addr: u64, width: u64) -> u64 {
        debug_assert!(width <= 8);
        let off = (addr as usize) & (PAGE_SIZE - 1);
        let w = width as usize;
        if off + w <= PAGE_SIZE {
            let Some(p) = self.page(addr) else { return 0 };
            let mut v = 0u64;
            for i in (0..w).rev() {
                v = (v << 8) | u64::from(p[off + i]);
            }
            v
        } else {
            // Crosses a page boundary: fall back to byte reads.
            let mut v = 0u64;
            for i in (0..width).rev() {
                v = (v << 8) | u64::from(self.read_u8(addr + i));
            }
            v
        }
    }

    /// Writes the low `width` bytes of `v` little-endian.
    pub fn write_uint(&mut self, addr: u64, v: u64, width: u64) {
        debug_assert!(width <= 8);
        let off = (addr as usize) & (PAGE_SIZE - 1);
        let w = width as usize;
        if off + w <= PAGE_SIZE {
            let p = self.page_mut(addr);
            for i in 0..w {
                p[off + i] = (v >> (8 * i)) as u8;
            }
        } else {
            for i in 0..width {
                self.write_u8(addr + i, (v >> (8 * i)) as u8);
            }
        }
    }

    /// Reads a `u64`.
    #[must_use]
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read_uint(addr, 8)
    }

    /// Writes a `u64`.
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        self.write_uint(addr, v, 8);
    }

    /// Reads a `u32`.
    #[must_use]
    pub fn read_u32(&self, addr: u64) -> u32 {
        self.read_uint(addr, 4) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let b = Backing::new();
        assert_eq!(b.read_u64(0xdead_beef), 0);
        assert_eq!(b.pages(), 0);
    }

    #[test]
    fn u64_round_trip() {
        let mut b = Backing::new();
        b.write_u64(0x1234, 0xdead_beef_cafe_f00d);
        assert_eq!(b.read_u64(0x1234), 0xdead_beef_cafe_f00d);
        assert_eq!(b.read_u32(0x1234), 0xcafe_f00d);
    }

    #[test]
    fn cross_page_writes() {
        let mut b = Backing::new();
        let addr = PAGE_SIZE as u64 - 3;
        b.write_u64(addr, u64::MAX);
        assert_eq!(b.read_u64(addr), u64::MAX);
        assert_eq!(b.pages(), 2);
    }

    #[test]
    fn cross_page_uint_round_trip() {
        let mut b = Backing::new();
        let addr = PAGE_SIZE as u64 - 5;
        b.write_uint(addr, 0x1122_3344_5566_7788, 8);
        assert_eq!(b.read_uint(addr, 8), 0x1122_3344_5566_7788);
    }

    #[test]
    fn partial_width_round_trip() {
        let mut b = Backing::new();
        b.write_uint(0x10, 0xaabb_ccdd_eeff, 4);
        assert_eq!(b.read_uint(0x10, 4), 0xccdd_eeff);
        assert_eq!(b.read_u8(0x14), 0, "width-4 write does not spill");
    }

    #[test]
    fn byte_slices() {
        let mut b = Backing::new();
        b.write_bytes(0x100, &[1, 2, 3, 4]);
        assert_eq!(b.read_bytes(0x0ff, 6), vec![0, 1, 2, 3, 4, 0]);
    }

    #[test]
    fn byte_slices_across_pages() {
        let mut b = Backing::new();
        let addr = PAGE_SIZE as u64 - 2;
        b.write_bytes(addr, &[9, 8, 7, 6]);
        assert_eq!(b.read_bytes(addr, 4), vec![9, 8, 7, 6]);
        assert_eq!(b.pages(), 2);
    }

    #[test]
    fn read_into_overwrites_the_whole_buffer() {
        let mut b = Backing::new();
        let addr = 2 * PAGE_SIZE as u64 - 2;
        b.write_bytes(addr, &[9, 8]);
        // The second page was never written: its bytes read as zero,
        // whatever the buffer held before.
        let mut out = [0xffu8; 4];
        b.read_into(addr, &mut out);
        assert_eq!(out, [9, 8, 0, 0]);
        assert_eq!(b.pages(), 1);
    }

    #[test]
    fn clone_is_a_snapshot() {
        let mut b = Backing::new();
        b.write_u64(0, 7);
        let snap = b.clone();
        b.write_u64(0, 9);
        assert_eq!(snap.read_u64(0), 7);
        assert_eq!(b.read_u64(0), 9);
    }
}

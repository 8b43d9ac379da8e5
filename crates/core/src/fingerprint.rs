//! Stable content fingerprints: the sweep engine's result-cache keys
//! and the model checker's state digests.
//!
//! The harness memoizes finished experiment cells on disk, keyed by a
//! fingerprint of everything that determines the cell's result: the
//! simulator configuration, the built kernel, the workload inputs, and
//! a schema version. The hash must therefore be **stable across
//! processes and builds** — `std::hash` explicitly is not (SipHash
//! with random keys) — so this module implements a fixed hash whose
//! output is set by the algorithm and its two constants alone: no
//! per-process key, no platform-dependent width or byte order.
//!
//! The model checker hashes every explored state with the same hasher,
//! one `u64` per register row, persist mark and memory word, so the
//! cost of absorbing a word is its per-state cost. Each word is
//! absorbed with one 64×64→128-bit *folded multiply*:
//! `p = (state ^ word) * K` in 128 bits, then `state = lo(p) ^ hi(p)`.
//! That is one multiply per word, where a byte-serial hash pays eight
//! dependent ones. The low half alone is a bijection of `state ^ word`
//! (the multiplier is odd); the high half mixes every input bit into
//! the top bits, which the low half's top bits only partly see.
//!
//! Collisions are a non-issue at this scale: a paper regeneration is a
//! few thousand cells and a model-checker run a few million states,
//! against a 64-bit space. A cache collision merely serves a stale
//! result that the determinism tests would catch; a state collision
//! would drop a state, which the committed `outputs/mc*.txt` state
//! counts would show.

/// Incremental 64-bit folded-multiply hasher.
///
/// ```
/// use sbrp_core::fingerprint::Fingerprint;
///
/// let mut fp = Fingerprint::new();
/// fp.write_str("figure6");
/// fp.write_u64(4096);
/// let a = fp.finish();
///
/// // Same input, same hash — in any process, on any platform.
/// let mut fp2 = Fingerprint::new();
/// fp2.write_str("figure6");
/// fp2.write_u64(4096);
/// assert_eq!(a, fp2.finish());
/// assert_eq!(Fingerprint::hex(a).len(), 16);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Fingerprint {
    state: u64,
}

/// The initial state (the 16 hex digits of π's fraction after [`MUL`]'s).
const SEED: u64 = 0x1319_8a2e_0370_7344;
/// The odd multiplier (the first fractional digits of π).
const MUL: u64 = 0x243f_6a88_85a3_08d3;

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint {
    /// Creates a hasher at the fixed seed.
    #[must_use]
    pub fn new() -> Self {
        Fingerprint { state: SEED }
    }

    /// Absorbs raw bytes: each 8-byte chunk as a little-endian word,
    /// then one tail word holding the 0–7 remaining bytes and, in its
    /// top byte, their count. The tail word is always written, so a
    /// byte string never hashes like the words of its chunks and a
    /// trailing zero byte is never lost.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.write_u64(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        let mut tail = [0u8; 8];
        tail[..rest.len()].copy_from_slice(rest);
        tail[7] = rest.len() as u8;
        self.write_u64(u64::from_le_bytes(tail));
    }

    /// Absorbs a string, length-prefixed so `("ab","c")` and
    /// `("a","bc")` hash differently.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Absorbs a `u64` with one folded multiply.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        let p = u128::from(self.state ^ v) * u128::from(MUL);
        self.state = (p as u64) ^ ((p >> 64) as u64);
    }

    /// Absorbs an `f64` via its bit pattern (exact, not rounded).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The 64-bit digest.
    #[must_use]
    #[inline]
    pub fn finish(&self) -> u64 {
        self.state
    }

    /// Fixed-width lowercase-hex rendering of a digest — the cache's
    /// file-name form.
    #[must_use]
    pub fn hex(digest: u64) -> String {
        format!("{digest:016x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn digest_words(words: &[u64]) -> u64 {
        let mut fp = Fingerprint::new();
        for &w in words {
            fp.write_u64(w);
        }
        fp.finish()
    }

    fn digest_bytes(bytes: &[u8]) -> u64 {
        let mut fp = Fingerprint::new();
        fp.write_bytes(bytes);
        fp.finish()
    }

    /// The digest is fixed by the algorithm and its constants: these
    /// values (checked against an independent implementation of the
    /// algorithm) key every result-cache entry, so a change to them
    /// must come with a `CACHE_SCHEMA` bump.
    #[test]
    fn pins_reference_vectors() {
        assert_eq!(Fingerprint::new().finish(), 0x1319_8a2e_0370_7344);
        assert_eq!(digest_bytes(b""), 0xbc13_060e_2d1a_ac79);
        assert_eq!(digest_bytes(b"a"), 0x8569_7d24_56de_e517);
        assert_eq!(digest_bytes(b"foobar"), 0xb849_cbe5_dffa_bd45);
        assert_eq!(
            digest_words(&[0x0123_4567_89ab_cdef]),
            0xc53b_1bf0_e3c2_b1c9
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn any_single_bit_flip_changes_the_digest(
            words in collection::vec(any::<u64>(), 1..65),
            at in any::<usize>(),
            bit in 0u32..64,
        ) {
            let mut flipped = words.clone();
            flipped[at % words.len()] ^= 1 << bit;
            prop_assert_ne!(digest_words(&words), digest_words(&flipped));
        }

        #[test]
        fn swapping_two_unequal_words_changes_the_digest(
            words in collection::vec(any::<u64>(), 2..65),
            i in any::<usize>(),
            j in any::<usize>(),
        ) {
            let (i, j) = (i % words.len(), j % words.len());
            if words[i] == words[j] {
                return Err(TestCaseError::reject("equal words"));
            }
            let mut swapped = words.clone();
            swapped.swap(i, j);
            prop_assert_ne!(digest_words(&words), digest_words(&swapped));
        }

        #[test]
        fn zero_padding_changes_the_digest(
            bytes in collection::vec(any::<u8>(), 0..18),
            pad in 1usize..17,
        ) {
            let mut padded = bytes.clone();
            padded.resize(bytes.len() + pad, 0);
            prop_assert_ne!(digest_bytes(&bytes), digest_bytes(&padded));
        }
    }

    #[test]
    fn length_prefix_separates_concatenations() {
        let mut a = Fingerprint::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fingerprint::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn hex_is_fixed_width() {
        assert_eq!(Fingerprint::hex(0), "0000000000000000");
        assert_eq!(Fingerprint::hex(u64::MAX), "ffffffffffffffff");
    }
}

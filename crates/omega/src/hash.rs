//! Placement hashes: a word-at-a-time multiplicative mix for hashes that
//! only decide where data lives in memory (hash-map buckets, cache and
//! row-store shards, direction classes).
//!
//! Every such hash is confirmed by an exact comparison before it is
//! trusted (`same_direction`, a key's `Eq`, a row's content), so a
//! collision costs a probe, never a wrong answer, and nothing observable
//! depends on the values. Neither does anything persisted: the cache
//! file's checksum is a separate, fixed FNV-1a (see `persist`).
//!
//! The mix takes one 64-bit word per step — one multiply per `i64`
//! coefficient, where byte-wise FNV-1a takes eight dependent ones and
//! SipHash several rounds — and is not keyed, which is all placement
//! needs: the inputs are the solver's own constraints, not an
//! adversary's.

use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-spread bits (the golden-ratio constant used
/// by Fx-style hashes).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Starting state. Non-zero, so a leading run of zero words still moves
/// the state and `[0, 0, 1]` does not hash like `[1]`.
const SEED: u64 = 0x243f_6a88_85a3_08d3;

/// Folds one word into the running hash `h`.
#[inline]
fn mix(h: u64, w: u64) -> u64 {
    (h.rotate_left(5) ^ w).wrapping_mul(K)
}

/// The shard of `count` (a power of two) that `hash` belongs to, taken
/// from its high bits: the final multiply of [`mix`] leaves its best
/// bits at the top.
#[inline]
pub(crate) fn shard_of(hash: u64, count: usize) -> usize {
    debug_assert!(count.is_power_of_two());
    hash.rotate_left(count.trailing_zeros()) as usize & (count - 1)
}

/// A [`Hasher`] over [`mix`]: integers fold in as one word each, byte
/// strings eight bytes at a time.
pub(crate) struct Mix(u64);

impl Default for Mix {
    fn default() -> Self {
        Mix(SEED)
    }
}

impl Hasher for Mix {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.0 = mix(self.0, u64::from_le_bytes(c.try_into().expect("8 bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.0 = mix(self.0, u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.0 = mix(self.0, u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.0 = mix(self.0, u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0 = mix(self.0, i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.0 = mix(self.0, i as u64);
    }
}

/// `HashMap` state for maps keyed by placement data.
pub(crate) type BuildMix = BuildHasherDefault<Mix>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of(v: impl Hash) -> u64 {
        let mut h = Mix::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn leading_zero_words_are_not_absorbed() {
        assert_ne!(hash_of([0u64, 0, 1]), hash_of([1u64]));
        assert_ne!(hash_of(0u64), Mix::default().finish());
    }

    #[test]
    fn byte_strings_fold_a_word_at_a_time() {
        let mut a = Mix::default();
        a.write(&[1, 0, 0, 0, 0, 0, 0, 0, 2]);
        let mut b = Mix::default();
        b.write_u64(1);
        b.write_u64(2);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn shards_come_from_the_high_bits() {
        assert_eq!(shard_of(0xf000_0000_0000_0000, 16), 15);
        assert_eq!(shard_of(0x0fff_ffff_ffff_ffff, 16), 0);
        assert_eq!(shard_of(u64::MAX, 1), 0);
    }
}

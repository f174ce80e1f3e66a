//! Deterministic pseudo-random number generation.
//!
//! [`Rng`] is xoshiro256** (Blackman & Vigna), a small, fast generator
//! with a 256-bit state and excellent statistical quality, seeded from a
//! single `u64` through [`SplitMix64`] as its authors recommend. Both
//! generators are pure integer arithmetic, so identical seeds produce
//! identical streams on every platform and toolchain — the property the
//! workspace's fuzzing and benchmark-input generation depend on.

use std::ops::{Bound, RangeBounds};

/// SplitMix64: a tiny 64-bit generator used to expand a single `u64`
/// seed into the larger xoshiro state (and to derive per-case seeds in
/// the property runner).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The workspace's deterministic PRNG: xoshiro256**.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator whose 256-bit state is expanded from `seed`
    /// with [`SplitMix64`].
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = sm.next_u64();
        }
        Rng { s }
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform value in `[0, n)`, bias-free via rejection sampling.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "Rng::below(0)");
        // Reject the low `2^64 mod n` values so every residue is equally
        // likely.
        let threshold = n.wrapping_neg() % n;
        loop {
            let x = self.next_u64();
            if x >= threshold {
                return x % n;
            }
        }
    }

    /// A uniform `i64` in `range` (inclusive or exclusive bounds both
    /// work: `-5..=5`, `0..10`).
    ///
    /// # Panics
    ///
    /// Panics on an empty range.
    pub fn gen_range_i64(&mut self, range: impl RangeBounds<i64>) -> i64 {
        let lo = match range.start_bound() {
            Bound::Included(&x) => x,
            Bound::Excluded(&x) => x.checked_add(1).expect("range start overflow"),
            Bound::Unbounded => i64::MIN,
        };
        let hi = match range.end_bound() {
            Bound::Included(&x) => x,
            Bound::Excluded(&x) => x.checked_sub(1).expect("empty range"),
            Bound::Unbounded => i64::MAX,
        };
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let span = (hi as i128) - (lo as i128) + 1;
        if span > u64::MAX as i128 {
            return self.next_u64() as i64;
        }
        lo.wrapping_add(self.below(span as u64) as i64)
    }

    /// A uniform `usize` in `range` (inclusive or exclusive bounds both
    /// work: `1..4`, `0..=3`).
    ///
    /// # Panics
    ///
    /// Panics on an empty range.
    pub fn gen_range_usize(&mut self, range: impl RangeBounds<usize>) -> usize {
        let lo = match range.start_bound() {
            Bound::Included(&x) => x,
            Bound::Excluded(&x) => x + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&x) => x,
            Bound::Excluded(&x) => x.checked_sub(1).expect("empty range"),
            Bound::Unbounded => usize::MAX,
        };
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let span = (hi as u128) - (lo as u128) + 1;
        if span > u64::MAX as u128 {
            return self.next_u64() as usize;
        }
        lo + self.below(span as u64) as usize
    }

    /// A uniform float in `[0, 1)` with 53 bits of precision.
    pub fn f64_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.f64_unit() < p
    }

    /// A fair coin flip.
    pub fn flip(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// A uniformly chosen element.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "Rng::choose on empty slice");
        &xs[self.below(xs.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known-answer test: golden first outputs for seed 0 and seed
    /// 0xDEADBEEF, pinned so any refactor that changes the stream (and
    /// would silently invalidate persisted regression seeds) fails loudly.
    #[test]
    fn known_answer_streams() {
        let mut sm = SplitMix64::new(0);
        let sm0: Vec<u64> = (0..3).map(|_| sm.next_u64()).collect();
        assert_eq!(
            sm0,
            vec![
                0xE220_A839_7B1D_CDAF,
                0x6E78_9E6A_A1B9_65F4,
                0x06C4_5D18_8009_454F
            ],
            "SplitMix64 seed 0"
        );

        let mut r = Rng::from_seed(0);
        let r0: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            r0,
            vec![
                0x99EC_5F36_CB75_F2B4,
                0xBF6E_1F78_4956_452A,
                0x1A5F_849D_4933_E6E0,
                0x6AA5_94F1_262D_2D2C,
            ],
            "xoshiro256** seed 0"
        );

        let mut r = Rng::from_seed(0xDEAD_BEEF);
        let r1: Vec<u64> = (0..2).map(|_| r.next_u64()).collect();
        assert_eq!(
            r1,
            vec![0xC555_5444_A74D_7E83, 0x65C3_0D37_B4B1_6E38],
            "xoshiro256** seed 0xDEADBEEF"
        );
    }

    #[test]
    fn determinism_and_seed_sensitivity() {
        let mut a = Rng::from_seed(42);
        let mut b = Rng::from_seed(42);
        let sa: Vec<u64> = (0..100).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..100).map(|_| b.next_u64()).collect();
        assert_eq!(sa, sb);
        let mut c = Rng::from_seed(43);
        let sc: Vec<u64> = (0..100).map(|_| c.next_u64()).collect();
        assert_ne!(sa, sc);
    }

    #[test]
    fn ranges_hit_bounds_and_stay_inside() {
        let mut r = Rng::from_seed(7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2000 {
            let v = r.gen_range_i64(-5..=5);
            assert!((-5..=5).contains(&v));
            seen.insert(v);
        }
        assert_eq!(seen.len(), 11, "all 11 values of -5..=5 should appear");

        for _ in 0..500 {
            let v = r.gen_range_usize(1..4);
            assert!((1..4).contains(&v));
        }
        assert_eq!(r.gen_range_i64(3..=3), 3);
        assert_eq!(r.gen_range_usize(0..1), 0);
    }

    #[test]
    fn bool_probabilities_degenerate_cases() {
        let mut r = Rng::from_seed(1);
        assert!((0..100).all(|_| !r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
        let heads = (0..2000).filter(|_| r.gen_bool(0.3)).count();
        assert!((400..800).contains(&heads), "p=0.3 of 2000 gave {heads}");
    }

    #[test]
    fn shuffle_preserves_elements() {
        let mut r = Rng::from_seed(11);
        let mut xs: Vec<u32> = (0..20).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        assert_ne!(xs, (0..20).collect::<Vec<_>>(), "20 elements should move");
    }

    #[test]
    fn choose_is_in_slice() {
        let mut r = Rng::from_seed(3);
        let xs = [10, 20, 30];
        for _ in 0..50 {
            assert!(xs.contains(r.choose(&xs)));
        }
    }
}

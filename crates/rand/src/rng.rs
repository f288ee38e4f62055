//! The core deterministic generator.

use crate::range::SampleRange;

/// SplitMix64 step: expands a `u64` seed into arbitrarily many
/// well-mixed words. Used only for seeding and stream derivation, never
/// for user-visible draws.
#[inline]
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a byte string; mixes [`Rng::fork`] labels into the child
/// seed so `fork("init")` and `fork("dropout")` are decorrelated even when
/// taken from the same parent state.
#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A seeded **xoshiro256++** generator — the workspace's `StdRng`
/// replacement.
///
/// Construction from a `u64` seed runs SplitMix64 four times to fill the
/// 256-bit state (the scheme recommended by the xoshiro authors), so even
/// adjacent seeds (0, 1, 2, …) yield fully decorrelated streams.
///
/// All methods are deterministic functions of the state: the same seed
/// and the same call sequence reproduce the same values on every
/// platform and build.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a `u64` seed (SplitMix64 state
    /// expansion).
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { s }
    }

    /// The next raw 64-bit word (xoshiro256++ output function).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        // Take the top 53 bits: (0..2^53) / 2^53 ∈ [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in the *open* interval `(0, 1)` — safe under `ln`
    /// (used by Box–Muller and Gumbel inversion).
    #[inline]
    pub fn gen_open01(&mut self) -> f64 {
        loop {
            let u = self.gen_f64();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// Bernoulli draw: `true` with probability `p`.
    ///
    /// # Panics
    /// Panics when `p ∉ [0, 1]`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability must be in [0, 1], got {p}"
        );
        self.gen_f64() < p
    }

    /// Uniform draw from a range: `gen_range(0..n)` (half-open),
    /// `gen_range(0..=k)` (inclusive), integer or float.
    ///
    /// Integer sampling uses Lemire's widening-multiply rejection method,
    /// so it is unbiased for every bound.
    ///
    /// # Panics
    /// Panics on an empty range.
    #[inline]
    pub fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
    {
        range.sample_from(self)
    }

    /// Unbiased uniform draw from `[0, bound)` (Lemire's method).
    ///
    /// # Panics
    /// Panics when `bound == 0`.
    #[inline]
    pub(crate) fn gen_u64_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        let mut m = (self.next_u64() as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            // Threshold = 2^64 mod bound; rejecting below it removes the
            // modulo bias of the widening multiply.
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                m = (self.next_u64() as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Splits off a labelled child stream.
    ///
    /// The child seed mixes one draw from the parent with an FNV-1a hash
    /// of `label`, so (a) different labels from the same parent state are
    /// decorrelated, and (b) the same parent seed + the same fork sequence
    /// reproduce the same children. Forking advances the parent by one
    /// draw.
    ///
    /// The intended pattern is one root per experiment seed, forked once
    /// per concern:
    ///
    /// ```
    /// use hap_rand::Rng;
    /// let mut root = Rng::from_seed(7);
    /// let mut data = root.fork("data");
    /// let mut init = root.fork("init");
    /// let mut noise = root.fork("gumbel");
    /// # let _ = (data.next_u64(), init.next_u64(), noise.next_u64());
    /// ```
    pub fn fork(&mut self, label: &str) -> Rng {
        Rng::from_seed(self.next_u64() ^ fnv1a(label.as_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vector_xoshiro256pp() {
        // State {1, 2, 3, 4} — first outputs of the reference C
        // implementation of xoshiro256++ (Blackman & Vigna).
        let mut rng = Rng { s: [1, 2, 3, 4] };
        let expected: [u64; 5] = [
            0x0280_0001,
            0x0380_0067,
            0x000C_C000_0380_0067,
            0x000C_C201_9944_00B2,
            0x8012_A201_9AC4_33CD,
        ];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(rng.next_u64(), e, "output {i}");
        }
    }

    #[test]
    fn splitmix_reference_vector() {
        // Seed 0 — reference outputs of SplitMix64.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut s), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(&mut s), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::from_seed(123);
        let mut b = Rng::from_seed(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn adjacent_seeds_decorrelate() {
        let mut a = Rng::from_seed(0);
        let mut b = Rng::from_seed(1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn gen_f64_is_in_unit_interval() {
        let mut rng = Rng::from_seed(9);
        for _ in 0..10_000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x), "{x} outside [0,1)");
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = Rng::from_seed(5);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn gen_bool_rejects_bad_p() {
        Rng::from_seed(1).gen_bool(1.5);
    }

    #[test]
    fn fork_labels_are_decorrelated_and_reproducible() {
        let mut root1 = Rng::from_seed(7);
        let mut root2 = Rng::from_seed(7);
        let mut a1 = root1.fork("a");
        let mut b1 = root1.fork("b");
        let mut a2 = root2.fork("a");
        let mut b2 = root2.fork("b");
        for _ in 0..32 {
            assert_eq!(a1.next_u64(), a2.next_u64());
            assert_eq!(b1.next_u64(), b2.next_u64());
        }
        let mut a = root1.fork("x");
        let mut b = root1.fork("y");
        let collisions = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(collisions, 0);
    }

    #[test]
    fn gen_u64_below_stays_below() {
        let mut rng = Rng::from_seed(11);
        for bound in [1u64, 2, 3, 7, 100, u64::MAX] {
            for _ in 0..200 {
                assert!(rng.gen_u64_below(bound) < bound);
            }
        }
    }
}

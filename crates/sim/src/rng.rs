//! Deterministic pseudo-random number generation.
//!
//! We implement xoshiro256** (Blackman & Vigna) seeded through SplitMix64 so
//! simulations are reproducible bit-for-bit across platforms and toolchain
//! versions — external RNG crates do not guarantee stream stability across
//! releases, which would silently invalidate recorded experiment results.

/// A deterministic xoshiro256** generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed (expanded via SplitMix64).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s = [next(), next(), next(), next()];
        // SplitMix64 cannot produce an all-zero expansion from any seed, but
        // guard anyway: xoshiro must not be seeded with all zeros.
        debug_assert!(s.iter().any(|&w| w != 0));
        SimRng { s }
    }

    /// Derives an independent stream for a sub-component.
    ///
    /// Each (seed, stream id) pair yields a distinct, reproducible sequence;
    /// use it to give every traffic source its own generator.
    pub fn fork(&self, stream: u64) -> SimRng {
        // Mix the child id into fresh SplitMix64 state derived from our own.
        SimRng::new(
            self.s[0]
                .rotate_left(17)
                .wrapping_mul(0xA24B_AED4_963E_E407)
                .wrapping_add(stream.wrapping_mul(0x9FB2_1C65_1E98_DF25)),
        )
    }

    /// The next raw 64-bit value.
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

    /// A uniform value in `[0, bound)` using Lemire's multiply-shift
    /// rejection method (unbiased).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        // Lemire 2019: rejection only in the biased sliver.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// A uniform `usize` index in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn gen_index(&mut self, bound: usize) -> usize {
        self.gen_range(bound as u64) as usize
    }

    /// A uniform float in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A Bernoulli draw with success probability `p` (clamped to [0, 1]).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p.clamp(0.0, 1.0)
    }

    /// An exponentially distributed value with the given mean (for Poisson
    /// inter-arrival times).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    pub fn gen_exp(&mut self, mean: f64) -> f64 {
        assert!(
            mean > 0.0 && mean.is_finite(),
            "exponential mean must be positive and finite"
        );
        // Inverse-CDF; 1 - U avoids ln(0).
        -mean * (1.0 - self.gen_f64()).ln()
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Picks a uniformly random element of `slice`, or `None` if empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.gen_index(slice.len())])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproducible_from_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forked_streams_are_independent_and_reproducible() {
        let root = SimRng::new(7);
        let mut c1 = root.fork(0);
        let mut c2 = root.fork(1);
        let mut c1b = root.fork(0);
        assert_ne!(c1.next_u64(), c2.next_u64());
        c1 = root.fork(0);
        assert_eq!(c1.next_u64(), c1b.next_u64());
    }

    #[test]
    fn gen_range_respects_bound() {
        let mut rng = SimRng::new(3);
        for bound in [1u64, 2, 3, 7, 100, 1 << 40] {
            for _ in 0..200 {
                assert!(rng.gen_range(bound) < bound);
            }
        }
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut rng = SimRng::new(9);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[rng.gen_range(8) as usize] += 1;
        }
        for &c in &counts {
            // Expect 10k per bucket; allow ±5%.
            assert!((9_500..=10_500).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = SimRng::new(11);
        for _ in 0..10_000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = SimRng::new(13);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = SimRng::new(17);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        assert!(!rng.gen_bool(-5.0)); // clamped
        assert!(rng.gen_bool(5.0)); // clamped
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::new(19);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| rng.gen_exp(10.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 10.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::new(23);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn choose_empty_is_none() {
        let mut rng = SimRng::new(29);
        let empty: [u8; 0] = [];
        assert_eq!(rng.choose(&empty), None);
        assert_eq!(rng.choose(&[42]), Some(&42));
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn gen_range_zero_bound_panics() {
        SimRng::new(1).gen_range(0);
    }
}

//! Deterministic pseudo-random number generation for the simulation.
//!
//! Every stochastic element of the reproduction — which DRAM cells are
//! vulnerable, flip stability, host background allocations — must be
//! reproducible from a single experiment seed so that tests and benchmarks
//! are stable. External RNG crates either refuse to promise a stable
//! stream across versions or cannot be vendored offline, so we implement
//! **xoshiro256\*\*** (public domain, Blackman & Vigna) seeded through
//! SplitMix64 and expose the handful of sampling methods the simulation
//! needs as inherent methods — no external traits, no external crates.

use std::ops::Range;

/// A deterministic xoshiro256** generator.
///
/// # Examples
///
/// ```
/// use hh_sim::rng::SimRng;
///
/// let mut a = SimRng::seed_from(7);
/// let mut b = SimRng::seed_from(7);
/// let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
/// let ys: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
/// assert_eq!(xs, ys);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    state: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a single `u64` seed.
    ///
    /// The seed is expanded with SplitMix64, which guarantees the state is
    /// never all-zero (the one illegal xoshiro state).
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self {
            state: [sm.next(), sm.next(), sm.next(), sm.next()],
        }
    }

    /// Creates a generator from an 8-byte little-endian seed.
    pub fn from_seed(seed: [u8; 8]) -> Self {
        Self::seed_from(u64::from_le_bytes(seed))
    }

    /// Derives an independent child generator for a named subsystem.
    ///
    /// Mixing a stream label into the seed keeps subsystems (fault model,
    /// host noise, profiling order…) statistically independent while
    /// remaining reproducible: the same `(seed, label)` always yields the
    /// same stream, and drawing more values in one subsystem never
    /// perturbs another.
    pub fn substream(&mut self, label: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
        for &b in label.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Self::seed_from(self.next_u64() ^ h)
    }

    /// Splits a base experiment seed into the seed for task `index`.
    ///
    /// This is the seed-splitting scheme the parallel campaign engine
    /// relies on: the derived seed depends only on `(base, index)`, never
    /// on worker count or scheduling order, so a grid cell's RNG stream —
    /// and therefore its results — are identical however the grid is
    /// executed.
    pub fn split_seed(base: u64, index: u64) -> u64 {
        let mut sm = SplitMix64::new(base);
        let expanded = sm.next();
        SplitMix64::new(expanded ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next()
    }

    fn next(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Produces the next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.next()
    }

    /// Produces the next 32 random bits (the upper half of a 64-bit draw).
    pub fn next_u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }

    /// Fills `dest` with random bytes, consuming whole 64-bit words.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    /// Samples uniformly below `n` with Lemire's multiply-shift rejection
    /// (unbiased; the stream is part of the determinism contract).
    fn gen_u64_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty sampling range");
        loop {
            let x = self.next();
            let m = u128::from(x) * u128::from(n);
            let lo = m as u64;
            if lo < n {
                let threshold = n.wrapping_neg() % n;
                if lo < threshold {
                    continue;
                }
            }
            return (m >> 64) as u64;
        }
    }

    /// Samples uniformly from a half-open integer range.
    ///
    /// # Panics
    ///
    /// Panics when the range is empty.
    ///
    /// # Examples
    ///
    /// ```
    /// use hh_sim::rng::SimRng;
    ///
    /// let mut rng = SimRng::seed_from(5);
    /// let v = rng.gen_range(10u64..20);
    /// assert!((10..20).contains(&v));
    /// ```
    pub fn gen_range<T: RangeSample>(&mut self, range: Range<T>) -> T {
        let lo = range.start.to_u64();
        let hi = range.end.to_u64();
        assert!(lo < hi, "empty sampling range {lo}..{hi}");
        T::from_u64(lo + self.gen_u64_below(hi - lo))
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        // 53 uniform mantissa bits, the same construction rand uses.
        ((self.next() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }
}

/// Integer types [`SimRng::gen_range`] can sample.
pub trait RangeSample: Copy + PartialOrd {
    /// Widens to the sampling domain.
    fn to_u64(self) -> u64;
    /// Narrows back from the sampling domain.
    fn from_u64(v: u64) -> Self;
}

macro_rules! impl_range_sample {
    ($($t:ty),*) => {$(
        impl RangeSample for $t {
            fn to_u64(self) -> u64 {
                self as u64
            }
            fn from_u64(v: u64) -> Self {
                v as $t
            }
        }
    )*};
}

impl_range_sample!(u8, u16, u32, u64, usize);

/// SplitMix64 seed expander (Steele, Lea & Flood; public domain).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates an expander from a raw seed.
    pub const fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Produces the next 64-bit output.
    #[allow(clippy::should_implement_trait)] // matches the reference C API, not an Iterator
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 0 from the public-domain C code.
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(sm.next(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(sm.next(), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(12345);
        let mut b = SimRng::seed_from(12345);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forks_are_independent_and_reproducible() {
        let mut parent1 = SimRng::seed_from(9);
        let mut parent2 = SimRng::seed_from(9);
        let mut fault1 = parent1.substream("fault");
        let mut fault2 = parent2.substream("fault");
        assert_eq!(fault1.next_u64(), fault2.next_u64());

        let mut parent3 = SimRng::seed_from(9);
        let mut noise = parent3.substream("noise");
        assert_ne!(fault1.next_u64(), noise.next_u64());
    }

    #[test]
    fn split_seed_is_pure_and_decorrelated() {
        assert_eq!(SimRng::split_seed(7, 3), SimRng::split_seed(7, 3));
        let seeds: Vec<u64> = (0..64).map(|i| SimRng::split_seed(7, i)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "split seeds collide");
        assert_ne!(SimRng::split_seed(7, 0), SimRng::split_seed(8, 0));
    }

    #[test]
    fn fill_bytes_covers_partial_words() {
        let mut rng = SimRng::seed_from(3);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn gen_bool_is_roughly_fair() {
        let mut rng = SimRng::seed_from(77);
        let heads = (0..10_000).filter(|_| rng.gen_bool(0.5)).count();
        assert!((4500..5500).contains(&heads), "heads = {heads}");
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = SimRng::seed_from(5);
        for _ in 0..1000 {
            let v: u64 = rng.gen_range(10..20);
            assert!((10..20).contains(&v));
        }
        for _ in 0..1000 {
            let v: usize = rng.gen_range(0..3);
            assert!(v < 3);
        }
    }

    #[test]
    fn gen_range_is_unbiased_over_small_domain() {
        let mut rng = SimRng::seed_from(11);
        let mut counts = [0u32; 5];
        for _ in 0..50_000 {
            counts[rng.gen_range(0usize..5)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "counts = {counts:?}");
        }
    }

    #[test]
    fn seedable_rng_roundtrip() {
        let a = SimRng::from_seed(42u64.to_le_bytes());
        let b = SimRng::seed_from(42);
        assert_eq!(a, b);
    }
}

//! A fixed, fast hasher for maps keyed by integers (frame numbers,
//! addresses, IOVA page indices) and short lists of them.
//!
//! The standard `RandomState` (SipHash-1-3) is built to resist
//! adversarial keys; the simulator's keys are its own frame and address
//! numbers, and the hot maps (vIOMMU mappings, reverse maps, the row
//! fault cache) pay SipHash on every one of hundreds of thousands of
//! operations per cell. [`U64Hasher`] folds each word in with one add
//! and one multiply, in the style of rustc's `FxHasher`, and finishes
//! with murmur3's `fmix64` avalanche so every output bit depends on
//! every input bit: the table indexes by the low bits, and keys that are
//! multiples of 512 (2 MiB windows in page units) still spread over
//! every bucket.
//!
//! The hasher is unseeded, so a map's iteration order is a function of
//! its operations. Nothing in the simulator may depend on that order
//! anyway (iterate a sorted copy, as the vIOMMU teardown does).
//!
//! # Examples
//!
//! ```
//! use hh_sim::hash::U64Map;
//!
//! let mut frames: U64Map<u64> = U64Map::default();
//! frames.insert(0x4_0000, 7);
//! assert_eq!(frames.get(&0x4_0000), Some(&7));
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-spread bits (rustc-hash 2's constant).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Multiply-fold hasher for integer keys; see the [module docs](self).
#[derive(Debug, Clone, Copy, Default)]
pub struct U64Hasher(u64);

impl Hasher for U64Hasher {
    /// Byte input (not used by integer keys) folds in one byte per word.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.wrapping_add(n).wrapping_mul(K);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// `BuildHasher` for [`U64Hasher`].
pub type BuildU64Hasher = BuildHasherDefault<U64Hasher>;

/// A `HashMap` keyed by `u64` through [`U64Hasher`].
pub type U64Map<V> = HashMap<u64, V, BuildU64Hasher>;

#[cfg(test)]
mod tests {
    use std::hash::{BuildHasher, Hash};

    use super::*;

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        BuildU64Hasher::default().hash_one(value)
    }

    #[test]
    fn hashes_are_fixed_across_builders() {
        assert_eq!(hash_of(&0x1234u64), hash_of(&0x1234u64));
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        assert_ne!(hash_of(&[1u64, 2][..]), hash_of(&[2u64, 1][..]));
    }

    #[test]
    fn aligned_keys_spread_over_low_bits() {
        // 2 MiB windows in 4 KiB-page units: every key is a multiple of
        // 512. The low 10 bits (a 1024-bucket table) must still vary.
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..1024u64 {
            seen.insert(hash_of(&(i * 512)) & 0x3ff);
        }
        assert!(
            seen.len() > 600,
            "only {} of 1024 low-bit patterns",
            seen.len()
        );
    }

    #[test]
    fn byte_writes_are_hashed() {
        assert_ne!(hash_of(&b"abc"[..]), hash_of(&b"abd"[..]));
        assert_ne!(hash_of(&b""[..]), hash_of(&b"\0"[..]));
    }

    #[test]
    fn map_round_trips() {
        let mut map: U64Map<&str> = U64Map::default();
        for i in 0..10_000u64 {
            map.insert(i << 9, "x");
        }
        assert_eq!(map.len(), 10_000);
        assert!((0..10_000u64).all(|i| map.contains_key(&(i << 9))));
        assert!(!map.contains_key(&1));
    }
}

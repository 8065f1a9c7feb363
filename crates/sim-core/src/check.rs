//! A miniature deterministic property-testing harness.
//!
//! The workspace's invariant tests used to be written against an external
//! property-testing crate; the vendored registry is offline, so this
//! module provides the small subset the tests actually need: run a
//! closure over many independently-seeded [`SimRng`] instances and let it
//! draw whatever random inputs it wants. Unlike shrinking-based property
//! testers the case streams are fully deterministic — a failure reports
//! the case seed, and re-running reproduces it exactly.
//!
//! # Examples
//!
//! ```
//! use hh_sim::check;
//!
//! check::cases(0xc0ffee, 64, |rng| {
//!     let x = rng.next_u64() | 1;
//!     assert_eq!(x % 2, 1);
//! });
//! ```

use crate::rng::SimRng;

/// Default number of cases, matching the old property-test budget.
pub const DEFAULT_CASES: usize = 256;

/// Runs `f` over `n` independently-seeded RNG streams derived from
/// `seed` via [`SimRng::split_seed`].
///
/// # Panics
///
/// Re-raises any panic from `f`, prefixed with the failing case's seed so
/// the exact input stream can be replayed with
/// `SimRng::seed_from(case_seed)`.
pub fn cases(seed: u64, n: usize, mut f: impl FnMut(&mut SimRng)) {
    for i in 0..n {
        let case_seed = SimRng::split_seed(seed, i as u64);
        let mut rng = SimRng::seed_from(case_seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut rng)));
        if let Err(payload) = result {
            eprintln!("check::cases failure: case {i} of {n}, case seed {case_seed:#x}");
            std::panic::resume_unwind(payload);
        }
    }
}

/// Draws a random-length `Vec` by calling `f` once per element; the
/// length is uniform in `min_len..max_len`.
pub fn vec_of<T>(
    rng: &mut SimRng,
    min_len: usize,
    max_len: usize,
    mut f: impl FnMut(&mut SimRng) -> T,
) -> Vec<T> {
    let len = rng.gen_range(min_len..max_len);
    (0..len).map(|_| f(rng)).collect()
}

/// Applies one to eight random edits to `bytes` — single-bit flips,
/// insertions (half drawn from `alphabet`, half arbitrary) and
/// deletions — for decoder robustness sweeps: whatever comes out must
/// decode to a value or a typed error, never a panic.
pub fn mutate(rng: &mut SimRng, bytes: &mut Vec<u8>, alphabet: &[u8]) {
    for _ in 0..rng.gen_range(1usize..9) {
        let at = rng.gen_range(0..bytes.len() + 1);
        match rng.gen_range(0u8..3) {
            0 if at < bytes.len() => bytes[at] ^= 1 << rng.gen_range(0u8..8),
            1 => {
                let b = if rng.gen_bool(0.5) {
                    alphabet[rng.gen_range(0..alphabet.len())]
                } else {
                    rng.gen_range(0u8..255)
                };
                bytes.insert(at, b);
            }
            _ if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_run_exactly_n_times_with_distinct_streams() {
        let mut seen = Vec::new();
        cases(1, 16, |rng| seen.push(rng.next_u64()));
        assert_eq!(seen.len(), 16);
        let mut dedup = seen.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seen.len());
    }

    #[test]
    fn cases_are_reproducible() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        cases(9, 8, |rng| a.push(rng.next_u64()));
        cases(9, 8, |rng| b.push(rng.next_u64()));
        assert_eq!(a, b);
    }

    #[test]
    fn vec_of_respects_length_bounds() {
        cases(2, 32, |rng| {
            let v = vec_of(rng, 1, 10, |r| r.next_u32());
            assert!((1..10).contains(&v.len()));
        });
    }
}

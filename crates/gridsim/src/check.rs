//! Seeded property checks.
//!
//! [`forall`] runs a property once per seed, handing it a fresh [`Rng`] to
//! draw its inputs from.  The seeds are fixed — the property's regression
//! seeds first, then `0..cases` — so every run checks the same cases, and a
//! failure names the seed that found it.  Inputs are direct draws
//! ([`Rng::index`], [`Rng::range_f64`], [`Rng::bernoulli`], [`between`],
//! [`vec()`], [`string`]); there is no shrinking.
//!
//! ```
//! use gridwfs_sim::check::{self, forall};
//!
//! forall(64, &[], |rng| {
//!     let mut xs = check::vec(rng, 0..20, |r| r.range_f64(-1.0, 1.0));
//!     xs.sort_by(f64::total_cmp);
//!     assert!(xs.windows(2).all(|w| w[0] <= w[1]));
//! });
//! ```

use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};

use crate::rng::Rng;

/// Lower-case ASCII letters, the most common [`string`] pool.
pub const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";

/// Runs `prop` with `Rng::seed_from_u64(seed)` for every seed in
/// `regressions`, then for each seed in `0..cases`.
///
/// # Panics
/// When `prop` panics, panics with the failing seed and the property's own
/// message.  Pasting that seed into `regressions` replays the case first.
pub fn forall(cases: u64, regressions: &[u64], mut prop: impl FnMut(&mut Rng)) {
    for seed in regressions.iter().copied().chain(0..cases) {
        let mut rng = Rng::seed_from_u64(seed);
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| prop(&mut rng))) {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("(non-string panic payload)");
            panic!("property failed at seed {seed:#x} (add it to `regressions` to replay it first): {msg}");
        }
    }
}

/// A uniform draw from `range` (`start` inclusive, `end` exclusive).
///
/// # Panics
/// Panics if `range` is empty.
pub fn between(rng: &mut Rng, range: Range<usize>) -> usize {
    range.start + rng.index(range.end - range.start)
}

/// A vector of [`between`]`(len)` elements, each drawn by `draw`.
pub fn vec<T>(rng: &mut Rng, len: Range<usize>, mut draw: impl FnMut(&mut Rng) -> T) -> Vec<T> {
    let n = between(rng, len);
    (0..n).map(|_| draw(rng)).collect()
}

/// A string of [`between`]`(len)` characters, each drawn uniformly from
/// the characters of `pool`.
pub fn string(rng: &mut Rng, len: Range<usize>, pool: &str) -> String {
    let chars: Vec<char> = pool.chars().collect();
    let n = between(rng, len);
    (0..n).map(|_| chars[rng.index(chars.len())]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_draws(cases: u64, regressions: &[u64]) -> Vec<u64> {
        let mut draws = Vec::new();
        forall(cases, regressions, |rng| draws.push(rng.next_u64()));
        draws
    }

    #[test]
    #[should_panic(expected = "property failed at seed 0x2a")]
    fn a_failure_names_its_seed() {
        let bad = Rng::seed_from_u64(42);
        forall(64, &[], |rng| assert_ne!(*rng, bad));
    }

    #[test]
    fn regression_seeds_run_before_generated_ones() {
        let expect: Vec<u64> = [99, 5, 0, 1, 2]
            .into_iter()
            .map(|s| Rng::seed_from_u64(s).next_u64())
            .collect();
        assert_eq!(first_draws(3, &[99, 5]), expect);
    }

    #[test]
    fn the_same_cases_visit_the_same_seeds() {
        assert_eq!(first_draws(32, &[]), first_draws(32, &[]));
        // More cases only append seeds.
        assert_eq!(first_draws(8, &[]), first_draws(32, &[])[..8]);
    }

    #[test]
    fn draws_respect_their_ranges_and_pools() {
        forall(256, &[], |rng| {
            assert!((3..9).contains(&between(rng, 3..9)));
            let xs = vec(rng, 0..4, |r| r.index(10));
            assert!(xs.len() < 4 && xs.iter().all(|&x| x < 10));
            let s = string(rng, 1..6, "aé");
            assert!((1..6).contains(&s.chars().count()));
            assert!(s.chars().all(|c| c == 'a' || c == 'é'));
        });
    }
}

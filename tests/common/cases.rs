//! The seeded case loop of the property tests, one copy for every test
//! crate of the workspace (the others include this file by path).
#![allow(dead_code)] // each test binary uses a different subset

use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};

use amoeba_sim::SplitMix64;

/// Runs `cases` cases of a property, case `k` on its own generator
/// `SplitMix64::new(k)`. A failing case is reported by property and
/// seed, so that generator replays it.
pub fn for_each_case(property: &str, cases: u64, mut case: impl FnMut(&mut SplitMix64)) {
    for seed in 0..cases {
        if panic::catch_unwind(AssertUnwindSafe(|| case(&mut SplitMix64::new(seed)))).is_err() {
            panic!("{property}: case seed {seed} failed");
        }
    }
}

/// A uniform draw from `range`.
pub fn pick(rng: &mut SplitMix64, range: Range<u64>) -> u64 {
    range.start + rng.gen_range(range.end - range.start)
}

/// A vector of uniform length in `len`, its elements drawn by `draw`.
pub fn vec_of<T>(
    rng: &mut SplitMix64,
    len: Range<u64>,
    mut draw: impl FnMut(&mut SplitMix64) -> T,
) -> Vec<T> {
    let n = pick(rng, len);
    (0..n).map(|_| draw(rng)).collect()
}

//! Concrete RNGs. Only [`SmallRng`] is provided.

use crate::{RngCore, SeedableRng};

/// xoshiro256++ — the algorithm `rand` 0.8 uses for `SmallRng` on 64-bit
/// platforms. Fast, small state, more than adequate quality for simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallRng {
    s: [u64; 4],
}

/// SplitMix64's state increment.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

#[inline]
fn split_mix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SmallRng {
    /// The first word `SmallRng::seed_from_u64(seed)` returns, without
    /// building the generator — for consumers that draw a single word per
    /// stream. xoshiro256++'s first output reads only state words 0 and 3
    /// of the SplitMix64 expansion. (The expansion's all-zero guard never
    /// fires: words 0 and 3 both being zero would need `3·γ ≡ 0 mod 2⁶⁴`,
    /// since SplitMix64's finalizer is a bijection.)
    #[inline]
    pub fn first_u64(seed: u64) -> u64 {
        let (mut at0, mut at3) = (seed, seed.wrapping_add(GAMMA.wrapping_mul(3)));
        let s0 = split_mix64(&mut at0);
        let s3 = split_mix64(&mut at3);
        s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0)
    }
}

impl SeedableRng for SmallRng {
    fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 state expansion, as recommended by the xoshiro authors
        // (and as real rand 0.8 does).
        let mut sm = seed;
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = split_mix64(&mut sm);
        }
        // An all-zero state would be a fixed point; SplitMix64 cannot produce
        // four zero outputs in a row, but be defensive anyway.
        if s == [0; 4] {
            s[0] = GAMMA;
        }
        SmallRng { s }
    }
}

impl RngCore for SmallRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Bulk draw with the state held in locals across the whole loop, so the
    /// optimizer keeps it in registers instead of spilling through `self`
    /// after every word. Produces exactly the `next_u64` stream.
    fn fill_u64s(&mut self, dest: &mut [u64]) {
        let [mut s0, mut s1, mut s2, mut s3] = self.s;
        for word in dest {
            *word = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
            let t = s1 << 17;
            s2 ^= s0;
            s3 ^= s1;
            s1 ^= s2;
            s0 ^= s3;
            s2 ^= t;
            s3 = s3.rotate_left(45);
        }
        self.s = [s0, s1, s2, s3];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_u64_is_the_seeded_generators_first_word() {
        let mut seed = 0u64;
        for i in 0..100_000u64 {
            assert_eq!(SmallRng::first_u64(seed), SmallRng::seed_from_u64(seed).next_u64());
            // Walk dense small seeds, then scattered ones.
            seed = if i < 1000 { i + 1 } else { split_mix64(&mut seed) };
        }
        assert_eq!(SmallRng::first_u64(u64::MAX), SmallRng::seed_from_u64(u64::MAX).next_u64());
    }

    #[test]
    fn matches_reference_vector() {
        // Golden values for xoshiro256++ with SplitMix64 seed expansion.
        // The first output for seed 0 (0x53175d61490b23df) matches the
        // published `rand_xoshiro` test vector for
        // `Xoshiro256PlusPlus::seed_from_u64(0)`, confirming this is the
        // reference algorithm; the remaining literals pin the stream so any
        // accidental change to a constant breaks this test (the statistical
        // experiment thresholds in crn-workloads depend on the exact stream).
        let mut rng = SmallRng::seed_from_u64(0);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            first,
            vec![0x53175d61490b23df, 0x61da6f3dc380d507, 0x5c0fdf91ec9a7bfc, 0x02eebf8c3bbe5e1a]
        );
        let mut rng = SmallRng::seed_from_u64(42);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            first,
            vec![0xd0764d4f4476689f, 0x519e4174576f3791, 0xfbe07cfb0c24ed8c, 0xb37d9f600cd835b8]
        );
    }
}

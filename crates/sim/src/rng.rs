//! Deterministic randomness plumbing.
//!
//! Every run is driven by a single master seed. Each node (and each
//! auxiliary consumer such as topology or channel generators) receives an
//! independent stream derived with SplitMix64, so results are reproducible
//! bit-for-bit across runs and platforms, and adding a consumer does not
//! perturb the streams of existing ones.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// One step of the SplitMix64 generator; used as a seed-mixing function.
///
/// # Examples
/// ```
/// use crn_sim::rng::split_mix64;
/// assert_ne!(split_mix64(1), split_mix64(2));
/// assert_eq!(split_mix64(42), split_mix64(42));
/// ```
#[inline]
pub fn split_mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a child seed from a master seed and a stream index.
///
/// Distinct `(master, stream)` pairs give (practically) independent seeds.
#[inline]
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    split_mix64(master ^ premix(stream))
}

/// The stream half of [`derive_seed`], which mixes it with the master seed.
#[inline]
fn premix(stream: u64) -> u64 {
    split_mix64(stream.wrapping_mul(0xA24B_AED4_963E_E407))
}

/// Builds the RNG for stream `stream` of run `master`.
///
/// # Examples
/// ```
/// use crn_sim::rng::stream_rng;
/// use rand::Rng;
/// let mut a = stream_rng(7, 0);
/// let mut b = stream_rng(7, 0);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn stream_rng(master: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(derive_seed(master, stream))
}

/// Domain-separation salt for per-(slot, channel) streams, so they can never
/// collide with the per-node streams derived by [`stream_rng`].
const CHANNEL_STREAM_SALT: u64 = 0xC4A2_77E1_0B5D_93F6;

/// Derives the seed of the RNG stream belonging to `(slot, channel)` of run
/// `master`.
///
/// This is the engine's determinism convention for phase-2 resolution: any
/// randomized per-channel effect (fading, capture, adversarial noise) must
/// draw from the stream keyed by *which slot and channel* is being resolved,
/// never from a shared RNG advanced in resolution order. Keyed this way, the
/// draws are independent of channel visit order — and therefore of how many
/// threads the channel-sharded resolver distributes a slot across, and of
/// which thread ends up with which shard. The key is also independent of
/// the *slot epoch*, so an engine reused via
/// [`Engine::reset`](crate::engine::Engine::reset) reproduces a fresh
/// engine's streams exactly.
#[inline]
pub fn channel_slot_seed(master: u64, slot: u64, channel: u32) -> u64 {
    join_stream_keys(slot_stream_key(master, slot), channel_stream_key(channel))
}

/// The slot half of [`channel_slot_seed`], shared by every channel of one
/// slot.
#[inline]
pub(crate) fn slot_stream_key(master: u64, slot: u64) -> u64 {
    derive_seed(master ^ CHANNEL_STREAM_SALT, slot)
}

/// The channel half of [`channel_slot_seed`], the same in every run and
/// slot.
#[inline]
pub(crate) fn channel_stream_key(channel: u32) -> u64 {
    premix(channel as u64)
}

/// [`channel_slot_seed`] from its two halves: one SplitMix64 round (the
/// outer [`derive_seed`]).
#[inline]
pub(crate) fn join_stream_keys(slot_key: u64, channel_key: u64) -> u64 {
    split_mix64(slot_key ^ channel_key)
}

/// Builds the RNG for channel `channel` in slot `slot` of run `master`.
/// See [`channel_slot_seed`] for the determinism contract.
pub fn channel_slot_rng(master: u64, slot: u64, channel: u32) -> SmallRng {
    SmallRng::seed_from_u64(channel_slot_seed(master, slot, channel))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn derive_seed_is_deterministic_and_stream_sensitive() {
        assert_eq!(derive_seed(1, 2), derive_seed(1, 2));
        assert_ne!(derive_seed(1, 2), derive_seed(1, 3));
        assert_ne!(derive_seed(1, 2), derive_seed(2, 2));
    }

    #[test]
    fn stream_rngs_are_reproducible() {
        let mut a = stream_rng(99, 5);
        let mut b = stream_rng(99, 5);
        for _ in 0..32 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn streams_differ() {
        let mut a = stream_rng(99, 5);
        let mut b = stream_rng(99, 6);
        let xs: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn channel_slot_streams_are_keyed_not_ordered() {
        // Same key, same stream — regardless of any "visit order".
        let mut a = channel_slot_rng(7, 3, 11);
        let mut b = channel_slot_rng(7, 3, 11);
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        // Every component of the key separates the stream.
        assert_ne!(channel_slot_seed(7, 3, 11), channel_slot_seed(8, 3, 11));
        assert_ne!(channel_slot_seed(7, 3, 11), channel_slot_seed(7, 4, 11));
        assert_ne!(channel_slot_seed(7, 3, 11), channel_slot_seed(7, 3, 12));
        // And it cannot collide with a node stream of the same run by
        // construction (domain salt); spot-check a window.
        for v in 0..64u64 {
            assert_ne!(channel_slot_seed(7, 3, 11), derive_seed(7, v));
        }
    }

    #[test]
    fn split_stream_keys_rejoin_to_the_channel_slot_seed() {
        // The nested form the seed was defined by.
        let nested =
            |m: u64, s: u64, c: u32| derive_seed(derive_seed(m ^ CHANNEL_STREAM_SALT, s), c as u64);
        for (m, s, c) in [(0, 0, 0), (7, 3, 11), (u64::MAX, u64::MAX, u32::MAX), (42, 1 << 40, 5)] {
            let joined = join_stream_keys(slot_stream_key(m, s), channel_stream_key(c));
            assert_eq!(joined, nested(m, s, c));
            assert_eq!(channel_slot_seed(m, s, c), nested(m, s, c));
        }
        let mut rng = stream_rng(5, 5);
        for _ in 0..10_000 {
            let (m, s, c) = (rng.gen(), rng.gen(), rng.gen());
            let joined = join_stream_keys(slot_stream_key(m, s), channel_stream_key(c));
            assert_eq!(joined, nested(m, s, c));
        }
    }

    #[test]
    fn split_mix_diffuses_low_bits() {
        // Consecutive inputs should produce well-spread outputs.
        let a = split_mix64(0);
        let b = split_mix64(1);
        assert!((a ^ b).count_ones() > 10);
    }
}

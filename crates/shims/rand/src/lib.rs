//! Offline shim for the subset of `rand` 0.8 this workspace uses.
//!
//! The build environment has no network access and no vendored registry, so
//! the workspace provides its own implementation of the few `rand` items the
//! simulator relies on: [`Rng`] (`gen`, `gen_bool`, `gen_range`),
//! [`SeedableRng::seed_from_u64`], [`rngs::SmallRng`] (xoshiro256++, the same
//! algorithm real `rand` 0.8 uses for `SmallRng` on 64-bit targets), and
//! [`seq::SliceRandom`] (`shuffle`, `choose`, `choose_multiple`).
//!
//! Determinism is the only contract that matters here: the simulator derives
//! every stream from explicit seeds, so results are reproducible bit-for-bit
//! across runs and platforms. No claim of statistical equivalence with the
//! real `rand` crate is made (and none is needed — streams never mix).

#![forbid(unsafe_code)]

pub mod rngs;
pub mod seq;

/// A source of random 64-bit words.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with consecutive outputs of [`RngCore::next_u64`] — the
    /// bulk-draw entry point for batched consumers (the simulator's action
    /// collection, Erdős–Rényi edge sampling). The stream is *identical* to
    /// calling `next_u64` `dest.len()` times: implementations may only
    /// optimize how the words are produced, never which words.
    fn fill_u64s(&mut self, dest: &mut [u64]) {
        for word in dest {
            *word = self.next_u64();
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }

    fn fill_u64s(&mut self, dest: &mut [u64]) {
        (**self).fill_u64s(dest)
    }
}

/// Inline prefill capacity of [`BufferedRng`]. Reserves beyond it are
/// silently capped — the cap only shortens the prefill, never changes the
/// stream (excess draws fall through to the source one word at a time).
pub const BUFFERED_RNG_INLINE_WORDS: usize = 8;

/// A buffered façade over an [`RngCore`]: up to `reserve` words (capped at
/// [`BUFFERED_RNG_INLINE_WORDS`]) are drawn up front in one
/// [`RngCore::fill_u64s`] call into an inline stack buffer, served first;
/// any draw past the prefill falls through to the source. The observable
/// stream is *identical* to using the source directly — the façade only
/// changes how many times the source's state is loaded and stored, never
/// which words come out — so batched consumers (the simulator's
/// `act_batch` path) can amortize per-draw RNG state traffic without
/// perturbing results.
///
/// The reserve must be a **lower bound** on the words actually consumed:
/// over-reserving would pull words out of the source that an unbuffered
/// consumer never draws, desynchronizing the stream. Under-consumption is
/// caught by a debug assertion on drop.
pub struct BufferedRng<'a, R: RngCore> {
    src: &'a mut R,
    words: [u64; BUFFERED_RNG_INLINE_WORDS],
    len: u32,
    pos: u32,
}

impl<'a, R: RngCore> BufferedRng<'a, R> {
    /// Wraps `src`, pre-drawing `reserve.min(BUFFERED_RNG_INLINE_WORDS)`
    /// words in one bulk call.
    pub fn with_reserve(src: &'a mut R, reserve: usize) -> Self {
        let n = reserve.min(BUFFERED_RNG_INLINE_WORDS);
        let mut words = [0u64; BUFFERED_RNG_INLINE_WORDS];
        src.fill_u64s(&mut words[..n]);
        BufferedRng { src, words, len: n as u32, pos: 0 }
    }

    /// Pre-drawn words not yet consumed. Must reach 0 before drop: a
    /// reserve that exceeds actual consumption breaks stream identity.
    pub fn reserved_remaining(&self) -> usize {
        (self.len - self.pos) as usize
    }
}

impl<R: RngCore> RngCore for BufferedRng<'_, R> {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        if self.pos < self.len {
            let word = self.words[self.pos as usize];
            self.pos += 1;
            word
        } else {
            self.src.next_u64()
        }
    }
}

impl<R: RngCore> Drop for BufferedRng<'_, R> {
    fn drop(&mut self) {
        debug_assert!(
            self.pos >= self.len || std::thread::panicking(),
            "BufferedRng dropped with {} reserved word(s) unconsumed — the reserve must be a \
             lower bound on the draws actually made, or the source stream desynchronizes",
            self.len - self.pos
        );
    }
}

/// Seeding interface; only the `seed_from_u64` entry point is provided.
pub trait SeedableRng: Sized {
    /// Builds an RNG from a 64-bit seed via SplitMix64 expansion.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be sampled uniformly from raw random bits (the shim's
/// stand-in for `Standard: Distribution<T>`).
pub trait Standard: Sized {
    /// Draws one uniformly random value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Maps one raw 64-bit word to a uniform `f64` in `[0, 1)` — 53 mantissa
/// bits, the exact mapping [`Rng::gen`]`::<f64>()` and [`Rng::gen_bool`]
/// apply to each word they draw. Public so bulk consumers of
/// [`RngCore::fill_u64s`] can reproduce the per-call stream bit-for-bit.
#[inline]
pub fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng.next_u64())
    }
}

/// Maps one raw 64-bit word to the geometric draw
/// [`Rng::sample_geometric`]`(p)` makes from it, for `0 < p <= 1`:
/// `1 + ⌊ln(1−U) / ln(1−p)⌋` with `U = unit_f64(word)`. Public so
/// consumers that tabulate the mapping can fall back to exactly it.
#[inline]
pub fn geometric_from_word(word: u64, p: f64) -> u64 {
    if p >= 1.0 {
        return 1;
    }
    // P(X > k) = (1-p)^k  ⇒  X = 1 + ⌊ln(1-U) / ln(1-p)⌋, U ∈ [0, 1).
    // 1-U ∈ (0, 1] keeps the numerator finite. The quotient is ≥ 0, -0.0
    // (U = 0), -∞ or NaN (1 − p rounds to 1), and `as u64` truncates the
    // first to its floor and maps the other three to 0; it also saturates,
    // so a vanishing p cannot wrap.
    1u64.saturating_add(((1.0 - unit_f64(word)).ln() / (1.0 - p).ln()) as u64)
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Ranges that [`Rng::gen_range`] accepts.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// `draw % span`, with the division strength-reduced to a mask when `span`
/// is a power of two (the common case in the simulator: channel counts of
/// 2/4/8). Bit-identical to the plain `%` for every input.
#[inline]
fn rem_span(draw: u64, span: u64) -> u64 {
    if span.is_power_of_two() {
        draw & (span - 1)
    } else {
        draw % span
    }
}

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u128).wrapping_sub(self.start as u128) as u64;
                self.start.wrapping_add(rem_span(rng.next_u64(), span) as $t)
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end as u128).wrapping_sub(start as u128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                start.wrapping_add(rem_span(rng.next_u64(), span + 1) as $t)
            }
        }
    )*};
}
impl_sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for std::ops::Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + f64::sample(rng) * (self.end - self.start)
    }
}

/// The user-facing random value interface.
pub trait Rng: RngCore {
    /// Draws a uniformly random value of type `T`.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    /// Panics unless `0.0 <= p <= 1.0`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool p={p} out of [0,1]");
        f64::sample(self) < p
    }

    /// Draws a value uniformly from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// Number of independent Bernoulli(`p`) trials up to and including the
    /// first success — the geometric distribution on `1, 2, 3, …` with mean
    /// `1/p` — sampled by inverse CDF from **exactly one** word of the
    /// stream (so batched consumers can account for it in a
    /// [`BufferedRng`] reserve).
    ///
    /// Sojourn-time processes (primary-user on/off channel models) draw
    /// their dwell times from this instead of hand-rolling inverse-CDF
    /// loops at every call site.
    ///
    /// # Panics
    /// Panics unless `0 < p <= 1`.
    fn sample_geometric(&mut self, p: f64) -> u64 {
        assert!(p > 0.0 && p <= 1.0, "sample_geometric p={p} out of (0, 1]");
        // Always consume one word, even on the p = 1 fast path: the draw
        // count must be a function of the call, not of the parameter, so
        // callers can reason about stream positions.
        geometric_from_word(self.next_u64(), p)
    }

    /// A Poisson(`lambda`) draw via Knuth's product-of-uniforms method:
    /// consumes `k + 1` words to return `k` (and zero words when
    /// `lambda == 0`). Suited to the small-to-moderate rates the simulator
    /// uses (burst lengths, per-slot arrival counts); cost grows linearly
    /// with `lambda`.
    ///
    /// # Panics
    /// Panics unless `0 <= lambda <= 700` (beyond that `exp(-lambda)`
    /// underflows and the product method degenerates).
    fn sample_poisson(&mut self, lambda: f64) -> u64 {
        assert!((0.0..=700.0).contains(&lambda), "sample_poisson lambda={lambda} out of [0, 700]");
        if lambda == 0.0 {
            return 0;
        }
        let limit = (-lambda).exp();
        let mut k = 0u64;
        let mut prod = 1.0f64;
        loop {
            prod *= unit_f64(self.next_u64());
            if prod <= limit {
                return k;
            }
            k += 1;
        }
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(1);
        let mut c = SmallRng::seed_from_u64(2);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn fill_u64s_matches_repeated_next_u64() {
        let mut a = SmallRng::seed_from_u64(33);
        let mut b = SmallRng::seed_from_u64(33);
        let mut bulk = [0u64; 67];
        a.fill_u64s(&mut bulk);
        let singles: Vec<u64> = (0..bulk.len()).map(|_| b.next_u64()).collect();
        assert_eq!(bulk.as_slice(), singles.as_slice());
        // The two generators must also agree on everything drawn *after*.
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn rem_span_matches_modulo() {
        let mut rng = SmallRng::seed_from_u64(8);
        for span in [1u64, 2, 3, 4, 5, 7, 8, 16, 100, 1 << 33, u64::MAX] {
            for _ in 0..64 {
                let draw = rng.next_u64();
                assert_eq!(rem_span(draw, span), draw % span, "span {span} draw {draw}");
            }
        }
    }

    #[test]
    fn gen_range_power_of_two_spans_unchanged() {
        // The mask fast path must not perturb the stream mapping: pin a few
        // golden draws for spans the simulator uses constantly.
        let mut rng = SmallRng::seed_from_u64(0);
        // The first three raw outputs for seed 0, from the xoshiro256++
        // reference vector; gen_range(0..2) must be (raw % 2) of each in
        // order.
        let raws = [0x53175d61490b23dfu64, 0x61da6f3dc380d507, 0x5c0fdf91ec9a7bfc];
        for raw in raws {
            let v: u64 = rng.gen_range(0..2u64);
            assert_eq!(v, raw % 2);
        }
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..1000 {
            let v: u16 = rng.gen_range(3..17u16);
            assert!((3..17).contains(&v));
            let w = rng.gen_range(0..=5u32);
            assert!(w <= 5);
            let f = rng.gen_range(1.5f64..2.5);
            assert!((1.5..2.5).contains(&f));
        }
    }

    #[test]
    fn buffered_rng_is_stream_identical() {
        // Buffered draws — including fall-through past the reserve — must
        // reproduce the direct-draw stream exactly, and leave the source in
        // the same state a direct consumer would.
        let mut direct = SmallRng::seed_from_u64(77);
        let mut src = SmallRng::seed_from_u64(77);
        {
            let mut buf = BufferedRng::with_reserve(&mut src, 3);
            assert_eq!(buf.gen_bool(0.5), direct.gen_bool(0.5));
            assert_eq!(buf.gen_range(0..13u16), direct.gen_range(0..13u16));
            assert_eq!(buf.gen::<u64>(), direct.gen::<u64>());
            assert_eq!(buf.reserved_remaining(), 0);
            // Past the reserve: falls through to the source, same stream.
            assert_eq!(buf.gen_range(0..1000u32), direct.gen_range(0..1000u32));
        }
        // The source must have advanced exactly as far as the direct RNG.
        assert_eq!(src.next_u64(), direct.next_u64());
    }

    #[test]
    fn buffered_rng_zero_reserve_is_passthrough() {
        let mut direct = SmallRng::seed_from_u64(5);
        let mut src = SmallRng::seed_from_u64(5);
        {
            let mut buf = BufferedRng::with_reserve(&mut src, 0);
            for _ in 0..8 {
                assert_eq!(buf.next_u64(), direct.next_u64());
            }
        }
        assert_eq!(src.next_u64(), direct.next_u64());
    }

    #[test]
    fn buffered_rng_caps_reserve_at_inline_capacity() {
        // A reserve beyond the inline buffer prefills only the capacity;
        // the rest falls through — the stream must stay identical and the
        // source must not be over-advanced at drop time.
        let mut direct = SmallRng::seed_from_u64(9);
        let mut src = SmallRng::seed_from_u64(9);
        {
            let mut buf = BufferedRng::with_reserve(&mut src, BUFFERED_RNG_INLINE_WORDS + 5);
            for _ in 0..BUFFERED_RNG_INLINE_WORDS + 5 {
                assert_eq!(buf.next_u64(), direct.next_u64());
            }
        }
        assert_eq!(src.next_u64(), direct.next_u64());
    }

    #[test]
    fn sample_geometric_consumes_exactly_one_word() {
        // Stream identity: one call advances the stream by exactly one
        // word, for every parameter value (including the p = 1 fast path).
        for p in [1e-6, 0.01, 0.3, 0.5, 0.97, 1.0] {
            let mut a = SmallRng::seed_from_u64(21);
            let mut b = SmallRng::seed_from_u64(21);
            let _ = a.sample_geometric(p);
            let _ = b.next_u64();
            assert_eq!(a.next_u64(), b.next_u64(), "p={p} draw count != 1");
        }
    }

    #[test]
    fn sample_geometric_matches_inverse_cdf_of_the_raw_word() {
        // The mapping word → value is pinned: 1 + floor(ln(1-U)/ln(1-p)).
        let p = 0.25f64;
        let mut rng = SmallRng::seed_from_u64(77);
        let mut raw = SmallRng::seed_from_u64(77);
        for _ in 0..256 {
            let expect = {
                let u = unit_f64(raw.next_u64());
                1 + (((1.0 - u).ln() / (1.0 - p).ln()).floor() as u64)
            };
            assert_eq!(rng.sample_geometric(p), expect);
        }
    }

    #[test]
    fn geometric_from_word_equals_the_floor_form() {
        // The same mapping with an explicit floor.
        fn floor_form(word: u64, p: f64) -> u64 {
            if p >= 1.0 {
                return 1;
            }
            let k = ((1.0 - unit_f64(word)).ln() / (1.0 - p).ln()).floor();
            1u64.saturating_add(k as u64)
        }
        // u = 0 (the quotient is -0.0), p = 1, and a p so small that
        // 1 − p rounds to 1 (the quotient is -∞ or NaN; the draw is 1).
        let edges = [(0u64, 0.3), (0x7FF, 0.3), (0, 1.0), (u64::MAX, 1.0), (0, 1e-17)];
        for (word, p) in edges.into_iter().chain([u64::MAX, 1 << 63, 12_345].map(|w| (w, 1e-17))) {
            assert_eq!(geometric_from_word(word, p), floor_form(word, p), "word {word:#x} p {p}");
        }
        assert_eq!(geometric_from_word(u64::MAX, 1e-17), 1);
        assert_eq!(geometric_from_word(0, 0.3), 1);
        let mut rng = SmallRng::seed_from_u64(0x6E0);
        for i in 0..1_000_000u32 {
            let word = rng.next_u64();
            // Mostly uniform p, every eighth one spread over decades.
            let p = if i % 8 == 0 {
                (-(f64::from(i / 8 % 40) + unit_f64(rng.next_u64()))).exp2()
            } else {
                unit_f64(rng.next_u64()).max(f64::MIN_POSITIVE)
            };
            assert_eq!(geometric_from_word(word, p), floor_form(word, p), "word {word:#x} p {p}");
        }
    }

    #[test]
    fn sample_geometric_support_and_mean() {
        let mut rng = SmallRng::seed_from_u64(5);
        assert!((0..64).all(|_| rng.sample_geometric(1.0) == 1));
        let n = 4000u64;
        let sum: u64 = (0..n).map(|_| rng.sample_geometric(0.2)).sum();
        let mean = sum as f64 / n as f64;
        assert!(rng.sample_geometric(0.2) >= 1);
        assert!((mean - 5.0).abs() < 0.5, "geometric(0.2) mean ≈ 5, got {mean}");
    }

    #[test]
    fn sample_poisson_stream_identity_and_draw_count() {
        // Same seed, same sequence; and the draw count is k + 1 words
        // (zero words for lambda = 0), so callers can reason about stream
        // positions.
        let mut a = SmallRng::seed_from_u64(31);
        let mut b = SmallRng::seed_from_u64(31);
        let xs: Vec<u64> = (0..64).map(|_| a.sample_poisson(3.0)).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.sample_poisson(3.0)).collect();
        assert_eq!(xs, ys);

        let mut c = SmallRng::seed_from_u64(31);
        let mut raw = SmallRng::seed_from_u64(31);
        let k = c.sample_poisson(3.0);
        for _ in 0..k + 1 {
            raw.next_u64();
        }
        assert_eq!(c.next_u64(), raw.next_u64(), "poisson consumed != k + 1 words");

        let mut d = SmallRng::seed_from_u64(9);
        assert_eq!(d.sample_poisson(0.0), 0);
        let mut untouched = SmallRng::seed_from_u64(9);
        assert_eq!(d.next_u64(), untouched.next_u64(), "lambda = 0 must draw nothing");
    }

    #[test]
    fn sample_poisson_mean_tracks_lambda() {
        let mut rng = SmallRng::seed_from_u64(13);
        let n = 4000u64;
        for lambda in [0.5f64, 2.0, 6.0] {
            let sum: u64 = (0..n).map(|_| rng.sample_poisson(lambda)).sum();
            let mean = sum as f64 / n as f64;
            assert!(
                (mean - lambda).abs() < 0.2 + lambda * 0.1,
                "poisson({lambda}) mean drifted: {mean}"
            );
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = SmallRng::seed_from_u64(4);
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn f64_samples_unit_interval() {
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..1000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }
}

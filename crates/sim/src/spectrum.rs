//! Primary-user spectrum dynamics: per-slot channel availability.
//!
//! Cognitive radios are *secondary* users: every channel they access is
//! licensed to a primary user (PU) who can reclaim it at any moment (paper
//! §1 motivates the whole model with exactly this). The base simulator
//! assigns channel sets once and never changes them; this module adds the
//! missing time dimension — a pluggable process that marks global channels
//! *busy* or *idle* per slot, in the spirit of the Poissonian/Markovian
//! primary-traffic models of Chaoub & Ibn-Elhaj (arXiv:1206.0133) and the
//! PU-activity-aware dissemination work of Rehmani (arXiv:1107.4950).
//!
//! A busy channel behaves like an occupied medium: broadcasts on it are
//! lost (the broadcaster cannot tell — it still observes
//! [`Feedback::Sent`](crate::protocol::Feedback)) and listeners on it hear
//! noise, which in this no-collision-detection model is indistinguishable
//! from a collision. Install dynamics on an engine with
//! [`Engine::set_spectrum`](crate::engine::Engine::set_spectrum).
//!
//! # Determinism
//!
//! The state is advanced **once per slot**, before any node acts, and every
//! random draw comes from the per-(slot, channel) streams of
//! [`rng::channel_slot_seed`](crate::rng::channel_slot_seed) — keyed by
//! *which channel is transitioning in which slot*, never by visit order.
//! The busy mask is therefore a pure function of `(master seed, dynamics,
//! slot)`: bit-identical across every
//! [`Resolver`](crate::engine::Resolver), every worker-pool thread count
//! and chunk count, and across
//! [`Engine::reset`](crate::engine::Engine::reset) reuse.
//!
//! The on/off processes are sojourn-based: a channel holds its state for a
//! dwell time drawn *when the state is entered*, the draw the rand shim's
//! `sample_geometric` or `sample_poisson` makes from the transitioning
//! channel's (slot, channel) stream. All channels start **idle**; the
//! stationary mix is reached within a few mean sojourn times.
//!
//! # Cost of a slot
//!
//! Transitions are not rare: at E12's mean busy sojourn of 4 slots and
//! duty 0.5, a quarter of the channels change state every slot. So a slot
//! is one branch-free pass plus a few SplitMix64 rounds per transition:
//!
//! - Each channel keeps the slot of its next transition. One compare per
//!   channel gathers the due channels into a 64-bit mask, and one XOR flips
//!   them in the busy mask.
//! - The slot half of the stream key is computed once per slot and each
//!   channel's half once at install, so a channel's
//!   [`channel_slot_seed`](crate::rng::channel_slot_seed) costs one round.
//! - A geometric dwell time consumes one word, the stream's first, which
//!   takes two SplitMix64 rounds (`SmallRng::first_u64`) instead of seeding
//!   a generator. Only Poisson burst lengths, which consume `k + 1` words,
//!   seed one.
//! - The word maps to its dwell time through a threshold table, not
//!   through `1 + ⌊ln(1−U)/ln(1−p)⌋`. A 64-bucket guide starts the search
//!   at the bucket's least value, so most lookups take one or two
//!   compares.
//! - Utilization adds one count per busy channel per slot.
//!
//! Installing builds one table per transition probability, from about two
//! formula evaluations per tabulated value.
//!
//! # Why the threshold table is exact
//!
//! For `U = x / 2⁵³` with `x = word >> 11`, the table stores, for each
//! value `d`, the least `x` whose formula value exceeds `d`. It finds it by
//! evaluating the formula itself (the shim's `geometric_from_word`),
//! starting from the closed form `⌈2⁵³(1 − (1−p)^d)⌉`. A draw then reads
//! its value as the number of thresholds at or below it. That equals the
//! formula wherever the formula is monotone in `x`, which it is except
//! within a word or so of each threshold:
//!
//! - `1 − U` is exact, and the division and the truncation are monotone.
//! - With `ln` within `k` ulps, the quotient is within `(2k + 1)·2⁻⁵³` of
//!   its real value, relatively. It can reach an integer `d` early or late
//!   only within `(2k + 1)·d·|ln(1−p)|·(1−p)^d ≤ (2k + 1)/e` draws of the
//!   real-valued threshold. That is about one draw for a libm `ln` within
//!   1 ulp.
//!
//! Draws within 256 of a threshold therefore evaluate the formula, as do
//! draws past the table's last value. The table stops at 128 values, or
//! earlier where less than 2⁻¹⁰ of the probability lies beyond it.

use crate::bitset::BitSet;
use crate::ids::GlobalChannel;
use crate::rng::{channel_stream_key, join_stream_keys, slot_stream_key};
use rand::rngs::SmallRng;
use rand::{geometric_from_word, Rng, SeedableRng};
use std::collections::HashMap;

/// A primary-user traffic process, evaluated per slot into a busy mask over
/// the network's global channels.
#[derive(Debug, Clone, PartialEq)]
pub enum SpectrumDynamics {
    /// No primary-user activity: every channel is idle in every slot. An
    /// engine with `Static` dynamics is bit-identical to one with no
    /// spectrum layer at all — today's behaviour.
    Static,
    /// Two-state Markov chain per channel: an idle channel turns busy with
    /// probability `p_busy` per slot, a busy channel turns idle with
    /// probability `p_free`. Dwell times are geometric (mean `1/p_busy`
    /// idle, `1/p_free` busy); the stationary busy fraction is
    /// `p_busy / (p_busy + p_free)`. A probability of zero pins the state
    /// forever.
    MarkovOnOff {
        /// Per-slot idle → busy transition probability, in `[0, 1]`.
        p_busy: f64,
        /// Per-slot busy → idle transition probability, in `[0, 1]`.
        p_free: f64,
    },
    /// Poisson burst arrivals per channel: while idle, a burst begins each
    /// slot with probability `1 − exp(−rate)` (the discretization of a
    /// Poisson arrival process with `rate` arrivals per slot); a burst
    /// holds the channel busy for `max(1, Poisson(mean_len))` slots.
    PoissonBursts {
        /// Burst arrival rate per slot (≥ 0; 0 means never busy).
        rate: f64,
        /// Mean burst length in slots (≥ 1).
        mean_len: f64,
    },
    /// Replay an explicit per-slot busy schedule: entry `t` lists the
    /// global channels busy in slot `t`. The trace is **periodic** — slot
    /// `t` reads entry `t mod len` — so a short pattern (e.g. a radar duty
    /// cycle) extends over arbitrarily long runs. Channels not present in
    /// the network are ignored; an empty trace means always idle.
    TraceReplay(Vec<Vec<GlobalChannel>>),
}

impl SpectrumDynamics {
    /// `true` for [`SpectrumDynamics::Static`] (no PU activity ever).
    pub fn is_static(&self) -> bool {
        matches!(self, SpectrumDynamics::Static)
    }

    /// A [`SpectrumDynamics::MarkovOnOff`] with stationary busy fraction
    /// `duty` and mean busy sojourn `mean_busy` slots — the knob the
    /// duty-cycle experiments sweep. `duty = 0` yields a chain that never
    /// leaves idle.
    ///
    /// # Panics
    /// Panics unless `0 <= duty < 1`, `mean_busy >= 1`, and the pair is
    /// expressible by a per-slot chain: a high duty with a short busy
    /// sojourn would demand a mean idle sojourn below one slot
    /// (`p_busy > 1`), which would silently realize a *lower* duty than
    /// requested — the panic says to raise `mean_busy` instead. The
    /// reachable ceiling is `duty <= mean_busy / (mean_busy + 1)`.
    pub fn markov_with_duty(duty: f64, mean_busy: f64) -> SpectrumDynamics {
        assert!((0.0..1.0).contains(&duty), "duty {duty} out of [0, 1)");
        assert!(mean_busy >= 1.0, "mean busy sojourn must be >= 1 slot");
        let p_free = 1.0 / mean_busy;
        // duty = p_busy / (p_busy + p_free) ⇒ p_busy = duty·p_free/(1−duty).
        // A relative epsilon keeps the exact boundary (e.g. duty 0.8 with
        // mean_busy 4 ⇒ p_busy = 1) usable despite float rounding.
        let p_busy = duty * p_free / (1.0 - duty);
        assert!(
            p_busy <= 1.0 + 1e-9,
            "duty {duty} unreachable with mean_busy {mean_busy} (needs p_busy {p_busy:.3} > 1); \
             raise mean_busy to at least {:.1}",
            duty / (1.0 - duty)
        );
        SpectrumDynamics::MarkovOnOff { p_busy: p_busy.min(1.0), p_free }
    }

    /// The long-run busy fraction of a single channel, where the process
    /// defines one: exact for [`SpectrumDynamics::Static`] and
    /// [`SpectrumDynamics::MarkovOnOff`], the mean-sojourn approximation
    /// for [`SpectrumDynamics::PoissonBursts`] (bursts are assumed not to
    /// overlap), `None` for [`SpectrumDynamics::TraceReplay`] (it depends
    /// on which channels the trace names).
    pub fn duty_cycle(&self) -> Option<f64> {
        match *self {
            SpectrumDynamics::Static => Some(0.0),
            SpectrumDynamics::MarkovOnOff { p_busy, p_free } => {
                if p_busy <= 0.0 {
                    Some(0.0)
                } else if p_free <= 0.0 {
                    Some(1.0)
                } else {
                    Some(p_busy / (p_busy + p_free))
                }
            }
            SpectrumDynamics::PoissonBursts { rate, mean_len } => {
                if rate <= 0.0 {
                    return Some(0.0);
                }
                let mean_idle = 1.0 / -(-rate).exp_m1();
                Some(mean_len / (mean_len + mean_idle))
            }
            SpectrumDynamics::TraceReplay(_) => None,
        }
    }

    /// Validates the parameters.
    ///
    /// # Panics
    /// Panics on out-of-range probabilities, a negative/NaN rate, or a mean
    /// burst length below one slot.
    fn validate(&self) {
        match *self {
            SpectrumDynamics::Static | SpectrumDynamics::TraceReplay(_) => {}
            SpectrumDynamics::MarkovOnOff { p_busy, p_free } => {
                assert!((0.0..=1.0).contains(&p_busy), "p_busy {p_busy} out of [0, 1]");
                assert!((0.0..=1.0).contains(&p_free), "p_free {p_free} out of [0, 1]");
            }
            SpectrumDynamics::PoissonBursts { rate, mean_len } => {
                assert!(rate >= 0.0 && rate.is_finite(), "rate {rate} must be finite and >= 0");
                // The upper bound is sample_poisson's domain — enforcing it
                // here fails fast at install time instead of panicking deep
                // inside Engine::step when the first burst starts.
                assert!(
                    (1.0..=700.0).contains(&mean_len),
                    "mean_len {mean_len} out of [1, 700] slots"
                );
            }
        }
    }
}

/// Sojourn sentinel for a state that never expires (a transition
/// probability of zero).
const FOREVER: u64 = u64::MAX;

/// Number of 53-bit draws `word >> 11` a geometric dwell time maps from.
const DRAWS: u64 = 1 << 53;
/// A [`GeometricTable`] holds at most this many values ...
const MAX_VALUES: usize = 128;
/// ... and stops where the tail beyond its last threshold has probability
/// below 2⁻¹⁰ (this many draws).
const TAIL_DRAWS: u64 = DRAWS >> 10;
/// Draws this close to a threshold evaluate the formula (see the module
/// docs: the formula's own rounding moves a threshold by about a word).
const GUARD_DRAWS: u64 = 1 << 8;
/// The guide table splits the draws into `2^GUIDE_BITS` equal buckets.
const GUIDE_BITS: u32 = 6;

/// The geometric dwell time `sample_geometric(p)` draws from one stream
/// word, looked up in a threshold table instead of computing
/// `1 + ⌊ln(1−U)/ln(1−p)⌋` (see the module docs for why it is exact).
#[derive(Debug, Clone)]
struct GeometricTable {
    p: f64,
    /// `t[d]`: the least draw whose value exceeds `d` (so `t[0] = 0`),
    /// then a `u64::MAX` sentinel.
    t: Vec<u64>,
    /// Values above this come from the formula: the table ends before the
    /// distribution's tail.
    max: usize,
    /// `guide[i]`: where the scan for a draw in bucket `i` starts — the
    /// least `d` with `t[d]` above the bucket's first draw.
    guide: [u8; 1 << GUIDE_BITS],
}

impl GeometricTable {
    fn new(p: f64) -> GeometricTable {
        let value = |x: u64| geometric_from_word(x << 11, p);
        let top = value(DRAWS - 1);
        let ln_q = (1.0 - p).ln();
        let mut t = vec![0];
        let max = loop {
            let d = t.len();
            let below = t[d - 1];
            if top <= d as u64 {
                break d; // no draw exceeds d: the whole distribution fits
            }
            if d > MAX_VALUES || DRAWS - below < TAIL_DRAWS {
                break d - 1;
            }
            // The closed-form threshold ⌈2⁵³(1 − (1−p)^d)⌉, then corrected
            // draw by draw against the formula itself.
            let guess = DRAWS - ((d as f64 * ln_q).exp() * DRAWS as f64) as u64;
            let mut x = guess.clamp(below, DRAWS - 1);
            while value(x) <= d as u64 {
                x += 1;
            }
            while x > below && value(x - 1) > d as u64 {
                x -= 1;
            }
            t.push(x);
        };
        t.push(u64::MAX);
        let mut guide = [0; 1 << GUIDE_BITS];
        let mut d = 1;
        for (i, start) in guide.iter_mut().enumerate() {
            while t[d] <= (i as u64) << (53 - GUIDE_BITS) {
                d += 1;
            }
            *start = d as u8;
        }
        GeometricTable { p, t, max, guide }
    }

    /// The dwell time `sample_geometric(p)` draws from `word`.
    #[inline]
    fn draw(&self, word: u64) -> u64 {
        let x = word >> 11;
        let mut d = usize::from(self.guide[(x >> (53 - GUIDE_BITS)) as usize]);
        while self.t[d] <= x {
            d += 1;
        }
        if d > self.max || x - self.t[d - 1] < GUARD_DRAWS || self.t[d] - x <= GUARD_DRAWS {
            return geometric_from_word(word, self.p);
        }
        d as u64
    }
}

/// How the dwell time of a state just entered is drawn from the
/// transitioning channel's (slot, channel) stream.
#[derive(Debug, Clone)]
enum Sojourn {
    /// The state never expires (a transition probability of zero).
    Forever,
    /// Geometric, from the stream's first word.
    Geometric(GeometricTable),
    /// `max(1, Poisson(mean_len))`, from the full stream (`k + 1` words).
    Poisson(f64),
}

impl Sojourn {
    fn geometric(p: f64) -> Sojourn {
        if p <= 0.0 {
            Sojourn::Forever
        } else {
            Sojourn::Geometric(GeometricTable::new(p.min(1.0)))
        }
    }

    /// `[idle, busy]`: the dwell-time law of each state of `dynamics`.
    fn of(dynamics: &SpectrumDynamics) -> [Sojourn; 2] {
        match *dynamics {
            SpectrumDynamics::MarkovOnOff { p_busy, p_free } => {
                [Sojourn::geometric(p_busy), Sojourn::geometric(p_free)]
            }
            SpectrumDynamics::PoissonBursts { rate, mean_len } => {
                // A burst arrives with probability 1 − exp(−rate) per slot.
                [Sojourn::geometric(-(-rate).exp_m1()), Sojourn::Poisson(mean_len)]
            }
            SpectrumDynamics::Static | SpectrumDynamics::TraceReplay(_) => {
                [Sojourn::Forever, Sojourn::Forever]
            }
        }
    }

    /// The dwell time drawn from the stream seeded with `seed`.
    #[inline]
    fn draw(&self, seed: u64) -> u64 {
        match self {
            Sojourn::Forever => FOREVER,
            Sojourn::Geometric(table) => table.draw(SmallRng::first_u64(seed)),
            Sojourn::Poisson(mean_len) => {
                SmallRng::seed_from_u64(seed).sample_poisson(*mean_len).max(1)
            }
        }
    }
}

/// The materialized per-channel availability state an
/// [`Engine`](crate::engine::Engine) owns once dynamics are installed.
///
/// Channels are tracked in the engine's *dense* numbering (ascending raw
/// global-channel order over the channels actually present in the
/// network); every public accessor speaks [`GlobalChannel`].
#[derive(Debug, Clone)]
pub struct SpectrumState {
    dynamics: SpectrumDynamics,
    /// `[idle, busy]` dwell-time laws of the on/off processes.
    sojourn: [Sojourn; 2],
    /// Dense channel → raw global id.
    raw: Vec<u32>,
    /// Raw global id → dense channel (for trace replay and queries).
    raw_to_dense: HashMap<u32, u32>,
    /// Busy mask for the current slot, dense-indexed.
    mask: BitSet,
    /// Per dense channel: the channel half of its stream key.
    keys: Vec<u64>,
    /// Per dense channel: the advance (counted like `slots`) at which its
    /// current sojourn ends ([`FOREVER`] pins the state).
    next: Vec<u64>,
    /// Per dense channel: total busy slots observed (utilization).
    busy_slots: Vec<u64>,
    /// Slots advanced so far.
    slots: u64,
    /// The absolute slot of the first `advance` call (dynamics installed
    /// mid-run start later than 0); anchors history lookups by slot.
    first_slot: Option<u64>,
    record_history: bool,
    /// Entry `i`: the busy dense channels of slot `first_slot + i` (kept
    /// only while `record_history`, for post-run sensing classification).
    history: Vec<Vec<u32>>,
}

impl SpectrumState {
    /// Builds the state for `dynamics` over the engine's dense channel
    /// universe (`dense_to_raw[d]` = raw global id of dense channel `d`).
    pub(crate) fn new(dynamics: SpectrumDynamics, dense_to_raw: &[u32]) -> SpectrumState {
        dynamics.validate();
        let universe = dense_to_raw.len();
        let raw_to_dense = dense_to_raw.iter().enumerate().map(|(d, &r)| (r, d as u32)).collect();
        SpectrumState {
            sojourn: Sojourn::of(&dynamics),
            dynamics,
            raw: dense_to_raw.to_vec(),
            raw_to_dense,
            mask: BitSet::new(universe),
            keys: dense_to_raw.iter().map(|&r| channel_stream_key(r)).collect(),
            next: vec![0; universe],
            busy_slots: vec![0; universe],
            slots: 0,
            first_slot: None,
            record_history: true,
            history: Vec::new(),
        }
    }

    /// Rewinds to the pre-run state (all channels idle, counters and
    /// history cleared) — called by
    /// [`Engine::reset`](crate::engine::Engine::reset). Because every draw
    /// is keyed by `(master seed, slot, channel)`, a reset state replayed
    /// under the same seed reproduces the original masks bit for bit.
    pub(crate) fn reset(&mut self) {
        self.mask.clear();
        self.next.fill(0);
        self.busy_slots.fill(0);
        self.slots = 0;
        self.first_slot = None;
        self.history.clear();
    }

    /// Advances the process into `slot` (called once per slot, in slot
    /// order, before any node acts) and refreshes the busy mask.
    pub(crate) fn advance(&mut self, master: u64, slot: u64) {
        self.first_slot.get_or_insert(slot);
        match &self.dynamics {
            SpectrumDynamics::Static => {}
            SpectrumDynamics::TraceReplay(trace) => {
                self.mask.clear();
                if !trace.is_empty() {
                    let step = &trace[(slot % trace.len() as u64) as usize];
                    for g in step {
                        if let Some(&d) = self.raw_to_dense.get(&g.0) {
                            self.mask.insert(d as usize);
                        }
                    }
                }
            }
            SpectrumDynamics::MarkovOnOff { .. } | SpectrumDynamics::PoissonBursts { .. } => {
                self.advance_sojourns(slot_stream_key(master, slot), self.slots);
            }
        }
        for ch in self.mask.iter() {
            self.busy_slots[ch] += 1;
        }
        if self.record_history {
            self.history.push(self.mask.iter().map(|c| c as u32).collect());
        }
        self.slots += 1;
    }

    /// One slot of the on/off processes: flips the channels whose sojourn
    /// ends at advance `now` and draws their next dwell times from the
    /// slot's streams (`slot_key` is the slot half of their keys).
    fn advance_sojourns(&mut self, slot_key: u64, now: u64) {
        for w in 0..self.next.len().div_ceil(64) {
            let base = 64 * w;
            let mut due = 0u64;
            for (i, &next) in self.next[base..].iter().take(64).enumerate() {
                due |= u64::from(next == now) << i;
            }
            if due == 0 {
                continue;
            }
            // Every channel starts idle: the first slot enters that state
            // without a flip.
            let state = self.mask.toggle_word(w, if now == 0 { 0 } else { due });
            let mut rest = due;
            while rest != 0 {
                let i = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let ch = base + i;
                let busy = state >> i & 1;
                let seed = join_stream_keys(slot_key, self.keys[ch]);
                self.next[ch] = now.saturating_add(self.sojourn[busy as usize].draw(seed));
            }
        }
    }

    /// The current slot's busy mask over the engine's dense channels.
    pub(crate) fn mask(&self) -> &BitSet {
        &self.mask
    }

    /// The installed dynamics.
    pub fn dynamics(&self) -> &SpectrumDynamics {
        &self.dynamics
    }

    /// `true` if `g` is busy in the most recently advanced slot (`false`
    /// for channels outside the network's universe).
    pub fn is_busy(&self, g: GlobalChannel) -> bool {
        self.raw_to_dense.get(&g.0).is_some_and(|&d| self.mask.contains(d as usize))
    }

    /// Whether `g` was busy in (absolute engine) `slot`, from the recorded
    /// history. `None` if the slot was not simulated under these dynamics
    /// (before a mid-run install, or not yet reached), history recording
    /// is off, or the channel is outside the universe.
    pub fn was_busy(&self, slot: u64, g: GlobalChannel) -> Option<bool> {
        let d = *self.raw_to_dense.get(&g.0)?;
        let idx = usize::try_from(slot.checked_sub(self.first_slot?)?).ok()?;
        self.history.get(idx).map(|step| step.contains(&d))
    }

    /// Slots advanced so far.
    pub fn slots_observed(&self) -> u64 {
        self.slots
    }

    /// Per-channel utilization: `(channel, busy slots)` over every slot
    /// advanced so far, in ascending global-channel order.
    pub fn utilization(&self) -> Vec<(GlobalChannel, u64)> {
        self.raw.iter().zip(&self.busy_slots).map(|(&r, &b)| (GlobalChannel(r), b)).collect()
    }

    /// Mean busy fraction across all channels and slots so far (the
    /// realized spectrum duty cycle).
    pub fn busy_fraction(&self) -> f64 {
        let total = self.slots.saturating_mul(self.raw.len() as u64);
        if total == 0 {
            return 0.0;
        }
        self.busy_slots.iter().sum::<u64>() as f64 / total as f64
    }

    /// Toggles per-slot history recording (on by default; needed by
    /// [`SpectrumState::was_busy`] and post-run sensing classification —
    /// see [`trace::sensing_counts`](crate::trace::sensing_counts)).
    /// Memory is `O(slots × busy channels)`; long unattended runs can turn
    /// it off.
    pub fn set_record_history(&mut self, on: bool) {
        self.record_history = on;
        if !on {
            self.history.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    fn advance_n(state: &mut SpectrumState, master: u64, slots: u64) {
        for s in 0..slots {
            state.advance(master, s);
        }
    }

    #[test]
    fn static_dynamics_never_mask() {
        let mut st = SpectrumState::new(SpectrumDynamics::Static, &[0, 1, 2]);
        advance_n(&mut st, 7, 64);
        assert_eq!(st.busy_fraction(), 0.0);
        assert!(!st.is_busy(GlobalChannel(0)));
        assert_eq!(st.was_busy(13, GlobalChannel(1)), Some(false));
    }

    #[test]
    fn markov_duty_cycle_converges_to_stationary() {
        for duty in [0.1f64, 0.3, 0.6] {
            let dyn_ = SpectrumDynamics::markov_with_duty(duty, 4.0);
            assert!((dyn_.duty_cycle().unwrap() - duty).abs() < 1e-9);
            let mut st = SpectrumState::new(dyn_, &(0..16u32).collect::<Vec<_>>());
            st.set_record_history(false);
            advance_n(&mut st, 11, 20_000);
            let realized = st.busy_fraction();
            assert!(
                (realized - duty).abs() < 0.05,
                "duty {duty}: realized busy fraction {realized}"
            );
        }
    }

    #[test]
    fn poisson_bursts_hold_channels_busy() {
        let dyn_ = SpectrumDynamics::PoissonBursts { rate: 0.05, mean_len: 6.0 };
        let expect = dyn_.duty_cycle().unwrap();
        let mut st = SpectrumState::new(dyn_, &(0..16u32).collect::<Vec<_>>());
        st.set_record_history(false);
        advance_n(&mut st, 3, 20_000);
        let realized = st.busy_fraction();
        assert!(realized > 0.05, "bursts must actually occupy channels: {realized}");
        assert!(
            (realized - expect).abs() < 0.08,
            "realized {realized} vs mean-sojourn estimate {expect}"
        );
    }

    #[test]
    fn zero_rate_processes_stay_idle() {
        for dyn_ in [
            SpectrumDynamics::MarkovOnOff { p_busy: 0.0, p_free: 0.5 },
            SpectrumDynamics::PoissonBursts { rate: 0.0, mean_len: 4.0 },
        ] {
            let mut st = SpectrumState::new(dyn_, &[0, 1]);
            advance_n(&mut st, 5, 512);
            assert_eq!(st.busy_fraction(), 0.0);
        }
    }

    #[test]
    fn trace_replay_is_exact_and_periodic() {
        let trace = vec![
            vec![GlobalChannel(0)],
            vec![],
            vec![GlobalChannel(1), GlobalChannel(99)], // 99 not in universe: ignored
        ];
        let mut st = SpectrumState::new(SpectrumDynamics::TraceReplay(trace), &[0, 1, 2]);
        advance_n(&mut st, 0, 7);
        // Pattern of period 3 over 7 slots: slots 0,3,6 busy on ch 0;
        // slots 2,5 busy on ch 1.
        for (slot, g, busy) in [
            (0u64, 0u32, true),
            (1, 0, false),
            (2, 1, true),
            (3, 0, true),
            (5, 1, true),
            (6, 0, true),
            (2, 0, false),
        ] {
            assert_eq!(st.was_busy(slot, GlobalChannel(g)), Some(busy), "slot {slot} channel {g}");
        }
        assert_eq!(
            st.utilization(),
            vec![(GlobalChannel(0), 3), (GlobalChannel(1), 2), (GlobalChannel(2), 0),]
        );
    }

    #[test]
    fn same_seed_same_mask_sequence_and_reset_replays() {
        let dyn_ = SpectrumDynamics::MarkovOnOff { p_busy: 0.2, p_free: 0.3 };
        let universe: Vec<u32> = vec![3, 7, 8, 20];
        let mut a = SpectrumState::new(dyn_.clone(), &universe);
        let mut b = SpectrumState::new(dyn_.clone(), &universe);
        advance_n(&mut a, 42, 256);
        advance_n(&mut b, 42, 256);
        assert_eq!(a.history, b.history);
        assert!(a.busy_fraction() > 0.0, "scenario must exercise busy slots");

        // Reset and replay under the same seed: identical masks (the draws
        // are keyed by (seed, slot, channel), not by process history).
        a.reset();
        assert_eq!(a.busy_fraction(), 0.0);
        advance_n(&mut a, 42, 256);
        assert_eq!(a.history, b.history, "reset must replay bit-identically");

        // A different master seed yields a different sequence.
        let mut c = SpectrumState::new(dyn_, &universe);
        advance_n(&mut c, 43, 256);
        assert_ne!(c.history, b.history);
    }

    #[test]
    fn history_is_anchored_to_the_first_advanced_slot() {
        // Dynamics installed mid-run see their first advance at slot > 0;
        // was_busy must answer by absolute slot, not by call order.
        let trace = vec![vec![GlobalChannel(0)], vec![]];
        let mut st = SpectrumState::new(SpectrumDynamics::TraceReplay(trace), &[0, 1]);
        for slot in 10..16u64 {
            st.advance(0, slot);
        }
        // Period-2 pattern from slot 10: busy at even slots.
        assert_eq!(st.was_busy(10, GlobalChannel(0)), Some(true));
        assert_eq!(st.was_busy(11, GlobalChannel(0)), Some(false));
        assert_eq!(st.was_busy(14, GlobalChannel(0)), Some(true));
        assert_eq!(st.was_busy(3, GlobalChannel(0)), None, "pre-install slots are unknown");
        assert_eq!(st.was_busy(16, GlobalChannel(0)), None, "future slots are unknown");
    }

    /// E12's arena has 18 dense channels; spread raw ids exercise the
    /// dense ↔ raw mapping.
    fn arena_universe() -> Vec<u32> {
        (0..18u32).map(|i| 3 * i + 1).collect()
    }

    /// Advances `st` through `slots`, folding every slot's busy-mask words
    /// into a 64-bit FNV-1a hash; returns `(hash, total busy
    /// channel-slots)`.
    fn pin_run(st: &mut SpectrumState, master: u64, slots: std::ops::Range<u64>) -> (u64, u64) {
        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        for s in slots {
            st.advance(master, s);
            for &w in st.mask().words() {
                for b in w.to_le_bytes() {
                    hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
                }
            }
        }
        let total: u64 = st.utilization().iter().map(|&(_, n)| n).sum();
        let frac = total as f64 / (st.slots_observed() * st.raw.len() as u64) as f64;
        assert_eq!(st.busy_fraction(), frac);
        (hash, total)
    }

    #[test]
    fn pinned_primary_user_draws() {
        // Constants recorded from the countdown implementation this module
        // shipped before the due-mask advance: every busy mask of 2·10⁵
        // slots, for E12's chains (duty 0.5 and 0.75, mean busy 4), the
        // p_busy = 1 ceiling (duty 0.8), a never-busy chain and Poisson
        // bursts. Seed 11 is installed mid-run at slot 1000; seed 12 runs
        // a prefix, is reset and replays from slot 0.
        let cases: [(SpectrumDynamics, [(u64, u64); 2]); 5] = [
            (
                SpectrumDynamics::markov_with_duty(0.5, 4.0),
                [(0xD200_E0B0_FDCC_7216, 1_802_262), (0xAB43_1228_D334_9E71, 1_798_364)],
            ),
            (
                SpectrumDynamics::markov_with_duty(0.75, 4.0),
                [(0x2376_7A3C_F3BC_2455, 2_701_331), (0xAE98_96FD_824C_FB61, 2_699_622)],
            ),
            (
                SpectrumDynamics::markov_with_duty(0.8, 4.0),
                [(0xAF0B_64A4_D5CB_4B76, 2_880_143), (0x73CB_AACB_C0BA_2480, 2_880_913)],
            ),
            (
                SpectrumDynamics::MarkovOnOff { p_busy: 0.0, p_free: 0.25 },
                [(0x3A2A_F106_BB89_6B25, 0), (0x3A2A_F106_BB89_6B25, 0)],
            ),
            (
                SpectrumDynamics::PoissonBursts { rate: 0.05, mean_len: 4.0 },
                [(0x6AB9_8758_600B_15C8, 590_895), (0x567F_2176_C4F6_5B6C, 587_471)],
            ),
        ];
        const SLOTS: u64 = 200_000;
        for (dyn_, pinned) in cases {
            let mut st = SpectrumState::new(dyn_.clone(), &arena_universe());
            st.set_record_history(false);
            let mid_run = pin_run(&mut st, 11, 1000..1000 + SLOTS);
            let mut st = SpectrumState::new(dyn_.clone(), &arena_universe());
            st.set_record_history(false);
            pin_run(&mut st, 12, 0..777);
            st.reset();
            let replayed = pin_run(&mut st, 12, 0..SLOTS);
            assert_eq!([mid_run, replayed], pinned, "{dyn_:?}");
        }
    }

    /// The per-channel countdown loop `advance` ran before the due-mask
    /// advance, kept verbatim as the differential oracle: every channel
    /// every slot, one full generator per transition.
    struct Countdown {
        dynamics: SpectrumDynamics,
        raw: Vec<u32>,
        mask: BitSet,
        busy: Vec<bool>,
        left: Vec<u64>,
        started: Vec<bool>,
        busy_slots: Vec<u64>,
    }

    impl Countdown {
        fn new(dynamics: SpectrumDynamics, raw: &[u32]) -> Countdown {
            let universe = raw.len();
            Countdown {
                dynamics,
                raw: raw.to_vec(),
                mask: BitSet::new(universe),
                busy: vec![false; universe],
                left: vec![0; universe],
                started: vec![false; universe],
                busy_slots: vec![0; universe],
            }
        }

        fn advance(&mut self, master: u64, slot: u64) {
            let dynamics = &self.dynamics;
            for ch in 0..self.raw.len() {
                if self.left[ch] == 0 {
                    let mut rng = crate::rng::channel_slot_rng(master, slot, self.raw[ch]);
                    if self.started[ch] {
                        self.busy[ch] = !self.busy[ch];
                        if self.busy[ch] {
                            self.mask.insert(ch);
                        } else {
                            self.mask.remove(ch);
                        }
                    } else {
                        self.started[ch] = true;
                    }
                    self.left[ch] = countdown_sojourn(dynamics, self.busy[ch], &mut rng);
                }
                if self.left[ch] != FOREVER {
                    self.left[ch] -= 1;
                }
            }
            for ch in self.mask.iter() {
                self.busy_slots[ch] += 1;
            }
        }
    }

    fn countdown_sojourn(dynamics: &SpectrumDynamics, busy: bool, rng: &mut SmallRng) -> u64 {
        match *dynamics {
            SpectrumDynamics::MarkovOnOff { p_busy, p_free } => {
                let p = if busy { p_free } else { p_busy };
                if p <= 0.0 {
                    FOREVER
                } else {
                    rng.sample_geometric(p.min(1.0))
                }
            }
            SpectrumDynamics::PoissonBursts { rate, mean_len } => {
                if busy {
                    rng.sample_poisson(mean_len).max(1)
                } else {
                    let p_arrival = -(-rate).exp_m1(); // 1 − exp(−rate)
                    if p_arrival <= 0.0 {
                        FOREVER
                    } else {
                        rng.sample_geometric(p_arrival)
                    }
                }
            }
            SpectrumDynamics::Static | SpectrumDynamics::TraceReplay(_) => FOREVER,
        }
    }

    /// Runs `st` and a fresh oracle side by side over `slots`, comparing
    /// every mask, then the utilization, busy fraction and history.
    fn against_oracle(st: &mut SpectrumState, master: u64, slots: std::ops::Range<u64>) {
        let mut oracle = Countdown::new(st.dynamics.clone(), &st.raw);
        let mut masks = Vec::new();
        for s in slots.clone() {
            st.advance(master, s);
            oracle.advance(master, s);
            assert_eq!(st.mask().words(), oracle.mask.words(), "{:?} slot {s}", st.dynamics);
            masks.push(oracle.mask.iter().map(|c| c as u32).collect::<Vec<_>>());
        }
        let util: Vec<_> =
            st.raw.iter().zip(&oracle.busy_slots).map(|(&r, &n)| (GlobalChannel(r), n)).collect();
        assert_eq!(st.utilization(), util);
        let total = (slots.end - slots.start) * st.raw.len() as u64;
        let busy: u64 = oracle.busy_slots.iter().sum();
        assert_eq!(st.busy_fraction(), busy as f64 / total as f64);
        assert_eq!(st.history, masks);
    }

    #[test]
    fn due_mask_advance_matches_the_countdown_oracle() {
        let params = [
            SpectrumDynamics::markov_with_duty(0.5, 4.0),
            // p_busy ≈ 0.028: a long idle tail past the table's last value.
            SpectrumDynamics::markov_with_duty(0.1, 4.0),
            SpectrumDynamics::MarkovOnOff { p_busy: 1.0, p_free: 0.75 },
            SpectrumDynamics::MarkovOnOff { p_busy: 1.0, p_free: 1.0 },
            SpectrumDynamics::MarkovOnOff { p_busy: 0.3, p_free: 0.0 },
            // Idle draws mostly beyond the table's 128 values.
            SpectrumDynamics::MarkovOnOff { p_busy: 1e-3, p_free: 0.5 },
            SpectrumDynamics::PoissonBursts { rate: 0.05, mean_len: 4.0 },
            // Poisson(1) bursts often draw 0 and are clamped to 1 slot.
            SpectrumDynamics::PoissonBursts { rate: 0.3, mean_len: 1.0 },
        ];
        // 70 channels span two mask words.
        let universes = [arena_universe(), (0..70u32).map(|i| 2 * i + 5).collect()];
        for (i, dyn_) in params.iter().enumerate() {
            for seed in 0..5u64 {
                for start in [0u64, 1000, 1 << 40] {
                    let mut st = SpectrumState::new(dyn_.clone(), &universes[i % 2]);
                    against_oracle(&mut st, seed, start..start + 800);
                    st.reset();
                    against_oracle(&mut st, seed, start..start + 200);
                }
            }
        }
    }

    #[test]
    fn geometric_tables_match_the_formula() {
        let markov = |duty| match SpectrumDynamics::markov_with_duty(duty, 4.0) {
            SpectrumDynamics::MarkovOnOff { p_busy, .. } => p_busy,
            _ => unreachable!(),
        };
        // Every p the repository draws with: E12's p_busy over its duties
        // (p_free is 0.25), the engine bench's chain, Poisson arrivals at
        // the rates in use; then an edge case and a random p.
        let mut ps: Vec<f64> = [0.1, 0.25, 0.5, 0.75, 0.8].map(markov).to_vec();
        ps.extend([0.05, 0.2]);
        ps.extend([0.05f64, 0.1].map(|rate| -(-rate).exp_m1()));
        // 1 − p rounds to 1: every draw is 1.
        ps.push(1e-17);
        let mut rng = SmallRng::seed_from_u64(0x7AB1E);
        ps.push(rng.gen_range(0.05..0.95));
        for p in ps {
            let table = GeometricTable::new(p);
            let mut words = SmallRng::seed_from_u64(p.to_bits());
            let mut same = words.clone();
            for _ in 0..1_000_000 {
                let word = words.next_u64();
                assert_eq!(table.draw(word), same.sample_geometric(p), "p {p} word {word:#x}");
            }
            for &t in &table.t[1..table.t.len() - 1] {
                for x in t.saturating_sub(4096)..(t + 4097).min(DRAWS) {
                    let word = x << 11 | (words.next_u64() >> 53);
                    assert_eq!(table.draw(word), geometric_from_word(word, p), "p {p} x {x}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "unreachable")]
    fn markov_with_duty_rejects_unreachable_duty() {
        // duty 0.9 with mean busy 4 would need p_busy = 2.25: refuse loudly
        // instead of silently realizing duty 0.8.
        let _ = SpectrumDynamics::markov_with_duty(0.9, 4.0);
    }

    #[test]
    #[should_panic(expected = "mean_len")]
    fn poisson_rejects_mean_len_beyond_sampler_domain() {
        // Fail at install time, not mid-run in sample_poisson.
        let _ = SpectrumState::new(
            SpectrumDynamics::PoissonBursts { rate: 0.1, mean_len: 800.0 },
            &[0],
        );
    }

    #[test]
    #[should_panic(expected = "p_busy")]
    fn markov_validates_probabilities() {
        let _ =
            SpectrumState::new(SpectrumDynamics::MarkovOnOff { p_busy: 1.5, p_free: 0.1 }, &[0]);
    }
}

//! Observability-invisibility differentials and metrics-primitive
//! properties.
//!
//! The engine's per-phase timers ([`Engine::set_phase_timing`]) promise to
//! be *observationally invisible*: enabling them may cost clock reads but
//! must never change a counter, a feedback trace, or an RNG stream. This
//! file enforces the promise the same way `engine_equiv.rs` enforces
//! resolver equivalence — twin engines, timers on vs off, stepped in
//! lockstep with counters compared after every slot and full traces
//! compared at the end, across all resolvers on one chunk and at thread
//! counts {2, 4} above the engine's 2048-node pooling size, with and
//! without spectrum dynamics.
//!
//! The second half is a proptest over the `crn_sim::metrics` histogram:
//! across arbitrary insert sequences, the per-bucket counts must always
//! sum to the sample count (no sample lost, none double-counted), every
//! sample must land in a bucket whose bounds contain it, and the sum must
//! be the wrapping sum of the inserts.

use crn_sim::channels::ChannelModel;
use crn_sim::engine::Resolver;
use crn_sim::metrics::{Histogram, HISTOGRAM_BUCKETS};
use crn_sim::topology::Topology;
use crn_sim::{
    Action, Engine, Feedback, LocalChannel, Network, PhaseTimings, Protocol, SlotCtx,
    SpectrumDynamics, StatsMode,
};
use proptest::prelude::*;
use rand::Rng;

/// Owned snapshot of one slot's feedback, so whole traces can be compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Obs {
    Sent,
    Heard(u64),
    Silence,
    Slept,
}

/// Randomized traffic recording every feedback — the `engine_equiv.rs`
/// chatter shape, scalar hooks only (the batched-vs-scalar differential
/// lives there; here both twins use the same hooks and only the timer
/// flag differs).
struct Chatter {
    c: u16,
    id: u32,
    trace: Vec<Obs>,
}

impl Protocol for Chatter {
    type Message = u64;
    type Output = Vec<Obs>;

    fn act(&mut self, ctx: &mut SlotCtx<'_>) -> Action<u64> {
        let channel = LocalChannel(ctx.rng.gen_range(0..self.c));
        if ctx.rng.gen_bool(0.5) {
            Action::Broadcast { channel, message: ((self.id as u64) << 32) | ctx.slot.0 }
        } else if ctx.rng.gen_bool(0.9) {
            Action::Listen { channel }
        } else {
            Action::Sleep
        }
    }

    fn feedback(&mut self, _ctx: &mut SlotCtx<'_>, fb: Feedback<'_, u64>) {
        self.trace.push(match fb {
            Feedback::Sent => Obs::Sent,
            Feedback::Heard(m) => Obs::Heard(*m),
            Feedback::Silence => Obs::Silence,
            Feedback::Slept => Obs::Slept,
        });
    }

    fn is_complete(&self) -> bool {
        false
    }

    fn into_output(self) -> Vec<Obs> {
        self.trace
    }
}

/// Builds one engine of the twin pair. `timed` is the only difference.
fn build_engine(
    net: &Network,
    resolver: Resolver,
    c: u16,
    spectrum: bool,
    timed: bool,
) -> Engine<'_, Chatter> {
    let mut eng = Engine::with_resolver(net, 99, resolver, |ctx| Chatter {
        c,
        id: ctx.id.0,
        trace: Vec::new(),
    });
    if spectrum {
        eng.set_spectrum(SpectrumDynamics::MarkovOnOff { p_busy: 0.2, p_free: 0.3 });
    }
    eng.set_phase_timing(timed);
    eng
}

/// The core differential: timers-on vs timers-off twins in lockstep.
/// Counters must agree after *every* slot (a divergence is caught at the
/// slot it happens, not at the end), traces must agree bit-for-bit at the
/// end, and the timed engine must actually have measured something, which
/// is returned.
fn assert_timing_invisible(
    net: &Network,
    resolver: Resolver,
    c: u16,
    spectrum: bool,
    slots: u64,
) -> PhaseTimings {
    let n = net.len();
    let mut plain = build_engine(net, resolver, c, spectrum, false);
    let mut timed = build_engine(net, resolver, c, spectrum, true);
    for slot in 0..slots {
        plain.step();
        timed.step();
        assert_eq!(
            plain.counters(),
            timed.counters(),
            "n={n} {resolver:?} spectrum={spectrum}: counters diverge at slot {slot}"
        );
    }
    assert_eq!(plain.phase_timings(), None, "timing off must record nothing");
    let pt = timed.phase_timings().expect("timing on must record");
    assert_eq!(pt.slots, slots, "every stepped slot must be measured");
    assert!(pt.total_ns() > 0, "a {slots}-slot run cannot take zero time");
    let plain_traces = plain.into_outputs();
    let timed_traces = timed.into_outputs();
    assert_eq!(
        plain_traces, timed_traces,
        "n={n} {resolver:?} spectrum={spectrum}: traces diverge"
    );
    assert!(
        plain_traces.iter().any(|t| t.iter().any(|o| matches!(o, Obs::Heard(_)))),
        "scenario never delivers — not probing anything"
    );
    pt
}

/// All resolvers on one chunk (n = 120) and the sharded engine at threads
/// {2, 4} on every phase split (n = 2053, above the pooling size) × spectrum
/// on/off.
#[test]
fn phase_timers_are_observationally_invisible() {
    let n = 120usize;
    let topology = Topology::ErdosRenyi { n, p: 8.0 / (n as f64 - 1.0) };
    let channels = ChannelModel::Identical { c: 3 };
    let net = Network::generate(&topology, &channels, 23).expect("network must build");
    let c = net.channels_per_node() as u16;

    let big_n = 2053usize;
    let topology = Topology::SparseErdosRenyi { n: big_n, p: 8.0 / (big_n as f64 - 1.0) };
    let big = Network::generate_with_stats(&topology, &channels, 23, StatsMode::Approximate)
        .expect("network must build");

    for spectrum in [false, true] {
        for resolver in [Resolver::Naive, Resolver::Auto, Resolver::ParallelSharded { threads: 1 }]
        {
            let pt = assert_timing_invisible(&net, resolver, c, spectrum, 48);
            assert_eq!(pt.collect_pooled_slots + pt.deliver_pooled_slots, 0, "{resolver:?}");
        }
        for threads in [2usize, 4] {
            let slots = 16;
            let resolver = Resolver::ParallelSharded { threads };
            let pt = assert_timing_invisible(&big, resolver, c, spectrum, slots);
            assert_eq!(pt.collect_pooled_slots, slots, "threads={threads}: every slot splits");
            assert_eq!(pt.deliver_pooled_slots, slots, "threads={threads}: every slot splits");
        }
    }
}

/// Toggling timers mid-run must also be invisible, and re-enabling must
/// zero the accumulators rather than resume them.
#[test]
fn toggling_timers_mid_run_is_invisible_and_reenabling_zeroes() {
    let n = 60usize;
    let topology = Topology::ErdosRenyi { n, p: 8.0 / (n as f64 - 1.0) };
    let channels = ChannelModel::Identical { c: 3 };
    let net = Network::generate(&topology, &channels, 5).expect("network must build");
    let c = net.channels_per_node() as u16;

    let mut plain = build_engine(&net, Resolver::Auto, c, false, false);
    let mut toggled = build_engine(&net, Resolver::Auto, c, false, false);
    for phase in 0..4u64 {
        // Timers on for phases 1 and 3, off for 0 and 2.
        toggled.set_phase_timing(phase % 2 == 1);
        for _ in 0..16 {
            plain.step();
            toggled.step();
        }
        assert_eq!(plain.counters(), toggled.counters(), "diverged in toggle phase {phase}");
        if phase % 2 == 1 {
            let pt = toggled.phase_timings().expect("enabled this phase");
            assert_eq!(pt.slots, 16, "re-enabling must start from zero");
        } else {
            assert_eq!(toggled.phase_timings(), None);
        }
    }
    assert_eq!(plain.into_outputs(), toggled.into_outputs());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Across arbitrary insert sequences: bucket counts sum to the sample
    /// count, `sum()` is the wrapping sum of inserts, and each bucket's
    /// cumulative count never exceeds the total.
    #[test]
    fn histogram_buckets_always_sum_to_sample_count(
        values in proptest::collection::vec(any::<u64>(), 0..200),
        small in proptest::collection::vec(0u64..1024, 0..200),
    ) {
        let h = Histogram::new();
        let mut expected_sum = 0u64;
        for &v in values.iter().chain(&small) {
            h.observe(v);
            expected_sum = expected_sum.wrapping_add(v);
        }
        let n = (values.len() + small.len()) as u64;
        let buckets = h.bucket_counts();
        prop_assert_eq!(buckets.len(), HISTOGRAM_BUCKETS + 1);
        prop_assert_eq!(buckets.iter().sum::<u64>(), n);
        prop_assert_eq!(h.count(), n);
        prop_assert_eq!(h.sum(), expected_sum);
    }

    /// Every observed value lands in a bucket whose bound interval
    /// contains it: `upper_bound(i-1) < v <= upper_bound(i)` (overflow
    /// bucket for values beyond the last bound).
    #[test]
    fn histogram_bucket_placement_brackets_the_value(v in any::<u64>()) {
        let h = Histogram::new();
        h.observe(v);
        let buckets = h.bucket_counts();
        let idx = buckets.iter().position(|&n| n == 1).expect("exactly one sample");
        match Histogram::upper_bound(idx) {
            Some(bound) => {
                prop_assert!(v <= bound, "v={v} above its bucket bound {bound}");
                if idx > 0 {
                    let lower = Histogram::upper_bound(idx - 1).unwrap();
                    prop_assert!(v > lower, "v={v} not above the previous bound {lower}");
                }
            }
            None => {
                // Overflow bucket: beyond the largest finite bound.
                let last = Histogram::upper_bound(HISTOGRAM_BUCKETS - 1).unwrap();
                prop_assert!(v > last, "v={v} in overflow despite fitting under {last}");
            }
        }
    }
}

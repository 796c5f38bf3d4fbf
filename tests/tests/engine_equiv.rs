//! Differential equivalence tests for the engine's slot resolvers.
//!
//! The `Auto` resolver (broadcaster-centric sweep or listener-centric probe,
//! chosen per channel) and the sharded engine at every thread count must be
//! *observationally identical* to the naive reference resolver —
//! bit-for-bit equal counters, per-slot feedback traces, and outputs — on
//! every network, seed, and action mix. This file drives randomized
//! networks through the resolvers side by side, including a proptest
//! property over topology/channel-count/seed space, slot-by-slot lockstep
//! comparison across repeated `step` calls on one engine instance, and
//! engine reuse via [`Engine::reset`] (pool state must not leak between
//! runs).
//!
//! A sharded engine splits its phases only on networks of at least 2048
//! nodes; below that it runs the one-chunk `Auto` path. The multi-chunk
//! legs here therefore run on [`BIG_N`]-node networks, whose prime size
//! leaves a ragged final chunk at every thread count.
//!
//! The same standard applies to the engine's multi-chunk collection
//! (node-range chunks on the worker pool, each calling [`Protocol::act`]
//! per node, merged by prefix-sum) and delivery (same chunking, each chunk
//! decoding its outcomes into [`Protocol::feedback`] calls, per-chunk
//! counter deltas merged in chunk order): both must be bit-identical to one
//! chunk, under static and dynamic spectrum alike.

use crn_sim::channels::ChannelModel;
use crn_sim::engine::Resolver;
use crn_sim::topology::Topology;
use crn_sim::{
    Action, Counters, Engine, Feedback, GlobalChannel, LocalChannel, Network, NodeCtx, Protocol,
    SlotCtx, SpectrumDynamics, StatsMode,
};
use rand::Rng;

/// Owned snapshot of one slot's feedback, so whole traces can be compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Obs {
    Sent,
    Heard(u64),
    Silence,
    Slept,
}

/// Randomized traffic: each node picks a random channel and a random role
/// each slot, with a per-scenario broadcast probability; records every
/// feedback it observes.
struct Chatter {
    c: u16,
    p_bcast: f64,
    id: u32,
    trace: Vec<Obs>,
}

impl Protocol for Chatter {
    type Message = u64;
    type Output = Vec<Obs>;

    fn act(&mut self, ctx: &mut SlotCtx<'_>) -> Action<u64> {
        let channel = LocalChannel(ctx.rng.gen_range(0..self.c));
        if ctx.rng.gen_bool(self.p_bcast) {
            // Message encodes (sender, slot) so a delivery from the wrong
            // broadcaster or slot can never compare equal.
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

fn build_network(topology: &Topology, channels: &ChannelModel, seed: u64) -> Network {
    Network::generate(topology, channels, seed).expect("scenario network must build")
}

/// Node count of the multi-chunk legs: above the engine's 2048-node pooling
/// size, and prime, so every thread count leaves a ragged final chunk.
const BIG_N: usize = 2053;

/// A sparse random network of [`BIG_N`] nodes (average degree ≈ 8) on
/// which a sharded engine splits every phase. Two shared core channels
/// carry the contention; each node's private channels add hundreds of
/// touched channels per slot for the merge and the partition to order,
/// and keep the buckets small enough for the fused listener pass.
fn big_network(seed: u64) -> Network {
    big_network_on(&ChannelModel::SharedCore { c: 4, core: 2 }, seed)
}

/// [`big_network`]'s topology under any channel model.
fn big_network_on(channels: &ChannelModel, seed: u64) -> Network {
    let topology = Topology::SparseErdosRenyi { n: BIG_N, p: 8.0 / (BIG_N as f64 - 1.0) };
    Network::generate_with_stats(&topology, channels, seed, StatsMode::Approximate)
        .expect("big network must build")
}

fn run(
    net: &Network,
    resolver: Resolver,
    seed: u64,
    c: u16,
    p_bcast: f64,
    slots: u64,
) -> (Counters, Vec<Vec<Obs>>) {
    let mut eng = Engine::with_resolver(net, seed, resolver, |ctx| Chatter {
        c,
        p_bcast,
        id: ctx.id.0,
        trace: Vec::new(),
    });
    eng.run_to_completion(slots);
    (eng.counters(), eng.into_outputs())
}

/// The optimized resolvers as they run below the pooling size: `Auto`, and
/// the sharded engine's one-chunk path (any thread count runs it there).
const OPTIMIZED_RESOLVERS: [Resolver; 2] =
    [Resolver::Auto, Resolver::ParallelSharded { threads: 1 }];

/// Thread counts of the multi-chunk legs on [`big_network`].
const POOLED_THREADS: [usize; 3] = [2, 4, 8];

/// The scenario matrix: all resolvers over randomized topologies, channel
/// assignments, broadcast densities, and seeds — on one chunk, then split
/// across thread counts {2, 4, 8} above the pooling size, both with three
/// crowded shared channels (each resolution group builds per-channel
/// broadcaster sets) and with mostly private ones (the fused listener pass).
#[test]
fn all_resolvers_agree_on_randomized_networks() {
    let scenarios: Vec<(Topology, ChannelModel, f64)> = vec![
        // Dense hub: the broadcaster-centric regime.
        (Topology::Star { leaves: 40 }, ChannelModel::Identical { c: 2 }, 0.7),
        // Everyone adjacent, few channels: maximal per-channel crowding.
        (Topology::Complete { n: 24 }, ChannelModel::Identical { c: 3 }, 0.5),
        // Sparse ring with private channels: the listener-centric regime.
        (Topology::Cycle { n: 30 }, ChannelModel::SharedCore { c: 4, core: 2 }, 0.3),
        // Geometric radio topology, mixed overlaps.
        (
            Topology::RandomGeometric { n: 60, radius: 0.35 },
            ChannelModel::SharedCore { c: 3, core: 1 },
            0.5,
        ),
        // Grid with group structure.
        (
            Topology::Grid { rows: 6, cols: 6 },
            ChannelModel::GroupOverlay { c: 4, k: 1, kmax: 2, groups: 3 },
            0.4,
        ),
    ];

    for (si, (topology, channels, p_bcast)) in scenarios.into_iter().enumerate() {
        for seed in [3u64, 17, 91] {
            let net = build_network(&topology, &channels, seed.wrapping_mul(7919) + si as u64);
            let c = net.channels_per_node() as u16;
            let slots = 64;
            let (ref_counters, ref_traces) = run(&net, Resolver::Naive, seed, c, p_bcast, slots);
            assert!(
                ref_counters.deliveries > 0,
                "scenario {si} seed {seed} never delivers — not probing anything"
            );
            for resolver in OPTIMIZED_RESOLVERS {
                let (counters, traces) = run(&net, resolver, seed, c, p_bcast, slots);
                assert_eq!(
                    counters, ref_counters,
                    "scenario {si} seed {seed}: {resolver:?} counters diverge from Naive"
                );
                assert_eq!(
                    traces, ref_traces,
                    "scenario {si} seed {seed}: {resolver:?} feedback traces diverge from Naive"
                );
            }
        }
    }

    let crowded = ChannelModel::Identical { c: 3 };
    for (name, net) in [("crowded", big_network_on(&crowded, 31)), ("private", big_network(31))] {
        let c = net.channels_per_node() as u16;
        let (ref_counters, ref_traces) = run(&net, Resolver::Naive, 3, c, 0.5, 24);
        assert!(ref_counters.deliveries > 0, "{name} never delivers — not probing anything");
        for threads in POOLED_THREADS {
            let resolver = Resolver::ParallelSharded { threads };
            let (counters, traces) = run(&net, resolver, 3, c, 0.5, 24);
            assert_eq!(counters, ref_counters, "{name} {resolver:?}: counters diverge from Naive");
            assert_eq!(traces, ref_traces, "{name} {resolver:?}: traces diverge from Naive");
        }
    }
}

/// Mid-run resolver switches must not perturb the execution: the stream of
/// observations is a function of (network, seed) only. On a network above
/// the pooling size the rotation also changes the chunk count every slot
/// (1, 3, 1, 2) and re-sizes the worker pool mid-run.
#[test]
fn switching_resolvers_mid_run_changes_nothing() {
    let net = big_network(1234);
    let c = net.channels_per_node() as u16;
    let slots = 24;

    let (ref_counters, ref_traces) = run(&net, Resolver::Naive, 5, c, 0.5, slots);

    let mut eng = Engine::with_resolver(&net, 5, Resolver::Naive, |ctx| Chatter {
        c,
        p_bcast: 0.5,
        id: ctx.id.0,
        trace: Vec::new(),
    });
    let rotation = [
        Resolver::Auto,
        Resolver::ParallelSharded { threads: 3 },
        Resolver::Naive,
        Resolver::ParallelSharded { threads: 2 },
    ];
    for i in 0..slots as usize {
        eng.set_resolver(rotation[i % rotation.len()]);
        eng.step();
    }
    assert_eq!(eng.counters(), ref_counters);
    assert_eq!(eng.into_outputs(), ref_traces);
}

/// Slot-by-slot lockstep differential across repeated `step` calls on the
/// *same* engine instance: the sharded engine at threads {1, 2, 4, 8}
/// above the pooling size must agree with a naive-resolver engine after
/// **every** slot, not just at the end of a run — so a divergence
/// introduced by pool state carried between slots (stale shard buffers, a
/// missed wake, a stale generation) is pinned to the exact slot where it
/// appears.
#[test]
fn pooled_engine_stays_in_lockstep_with_naive_across_steps() {
    let net = big_network(77);
    let c = net.channels_per_node() as u16;
    let make = |ctx: crn_sim::NodeCtx| Chatter { c, p_bcast: 0.5, id: ctx.id.0, trace: Vec::new() };

    for threads in [1usize, 2, 4, 8] {
        let mut reference = Engine::with_resolver(&net, 21, Resolver::Naive, make);
        let mut pooled =
            Engine::with_resolver(&net, 21, Resolver::ParallelSharded { threads }, make);
        for slot in 0..32u64 {
            reference.step();
            pooled.step();
            assert_eq!(
                pooled.counters(),
                reference.counters(),
                "threads={threads}: counters diverge after slot {slot}"
            );
        }
        let (mut ref_traces, mut pooled_traces) = (Vec::new(), Vec::new());
        reference.for_each_protocol(|_, p| ref_traces.push(p.trace.clone()));
        pooled.for_each_protocol(|_, p| pooled_traces.push(p.trace.clone()));
        assert_eq!(pooled_traces, ref_traces, "threads={threads}: feedback traces diverge");
    }
}

/// Steps a reference engine on the naive resolver and an engine on
/// `resolver` in lockstep, requiring equal counters after **every** slot
/// and equal feedback traces at the end. This pins any divergence (a
/// mis-merged bucket, a chunk boundary error, a mis-decoded outcome word,
/// a counter delta merged out of order, a chunk handed the wrong RNG lane)
/// to the exact slot where it first appears.
fn assert_lockstep_with_naive(net: &Network, seed: u64, resolver: Resolver, slots: u64) {
    let c = net.channels_per_node() as u16;
    let chatter = |ctx: NodeCtx| Chatter { c, p_bcast: 0.5, id: ctx.id.0, trace: Vec::new() };
    let mut reference = Engine::with_resolver(net, seed, Resolver::Naive, chatter);
    let mut eng = Engine::with_resolver(net, seed, resolver, chatter);
    let n = net.len();
    for slot in 0..slots {
        reference.step();
        eng.step();
        assert_eq!(
            eng.counters(),
            reference.counters(),
            "n={n} {resolver:?}: counters diverge after slot {slot}"
        );
    }
    let (mut ref_traces, mut traces) = (Vec::new(), Vec::new());
    reference.for_each_protocol(|_, p| ref_traces.push(p.trace.clone()));
    eng.for_each_protocol(|_, p| traces.push(p.trace.clone()));
    assert_eq!(traces, ref_traces, "n={n} {resolver:?}: feedback traces diverge");
}

/// Lockstep differential for the whole pipeline: the one-chunk path (a
/// small network) and multi-chunk collection and delivery at threads
/// {2, 4, 8} (a network above the pooling size) must agree with a naive
/// engine after every slot.
#[test]
fn batched_pipeline_stays_in_lockstep_with_scalar() {
    let small = build_network(
        &Topology::ErdosRenyi { n: 48, p: 0.15 },
        &ChannelModel::SharedCore { c: 4, core: 2 },
        77,
    );
    assert_lockstep_with_naive(&small, 21, Resolver::ParallelSharded { threads: 1 }, 72);
    let big = big_network(77);
    for threads in POOLED_THREADS {
        assert_lockstep_with_naive(&big, 21, Resolver::ParallelSharded { threads }, 32);
    }
}

/// Phase-3 lockstep differential: delivery must agree with a naive engine
/// after every slot, on one chunk (a small network) and on odd thread
/// counts {3, 7} above the pooling size, where every delivery chunk
/// boundary is ragged.
#[test]
fn batched_feedback_stays_in_lockstep_with_scalar() {
    let small = build_network(
        &Topology::ErdosRenyi { n: 48, p: 0.15 },
        &ChannelModel::SharedCore { c: 4, core: 2 },
        303,
    );
    assert_lockstep_with_naive(&small, 13, Resolver::ParallelSharded { threads: 1 }, 72);
    let big = big_network(303);
    for threads in [3usize, 7] {
        assert_lockstep_with_naive(&big, 13, Resolver::ParallelSharded { threads }, 32);
    }
}

/// Dynamic-spectrum delivery differential: with a primary-user process
/// installed, multi-chunk delivery must fold the `OC_PU_BUSY` outcome into
/// **both** `collisions` and `pu_blocked_listens` exactly as one chunk
/// does, per slot, across thread counts. The final assertion that the
/// PU actually bit guards the test against silently probing nothing.
#[test]
fn dynamic_spectrum_pu_folding_stays_exact_under_pooled_delivery() {
    let net = big_network(404);
    let c = net.channels_per_node() as u16;
    let chatter = |ctx: NodeCtx| Chatter { c, p_bcast: 0.5, id: ctx.id.0, trace: Vec::new() };
    let dyn_ = SpectrumDynamics::MarkovOnOff { p_busy: 0.25, p_free: 0.25 };

    let mut reference = Engine::with_resolver(&net, 33, Resolver::Naive, chatter);
    reference.set_spectrum(dyn_.clone());

    let mut others: Vec<(usize, Engine<'_, Chatter>)> = Vec::new();
    for threads in POOLED_THREADS {
        let mut eng =
            Engine::with_resolver(&net, 33, Resolver::ParallelSharded { threads }, chatter);
        eng.set_spectrum(dyn_.clone());
        others.push((threads, eng));
    }

    for slot in 0..32u64 {
        reference.step();
        for (threads, eng) in &mut others {
            eng.step();
            assert_eq!(
                eng.counters(),
                reference.counters(),
                "threads={threads}: PU counter folding diverges after slot {slot}"
            );
        }
    }
    let counters = reference.counters();
    assert!(counters.deliveries > 0, "scenario must still deliver");
    assert!(counters.pu_blocked_listens > 0, "the PU must actually bite");

    let mut ref_traces = Vec::new();
    reference.for_each_protocol(|_, p| ref_traces.push(p.trace.clone()));
    for (threads, eng) in &mut others {
        let mut traces = Vec::new();
        eng.for_each_protocol(|_, p| traces.push(p.trace.clone()));
        assert_eq!(traces, ref_traces, "threads={threads}: feedback traces diverge");
    }
}

/// Multi-chunk delivery composes with engine reuse: the per-chunk delta
/// scratch allocated on the first pooled slot survives [`Engine::reset`]
/// by design and must be observationally invisible — one engine running
/// twice back-to-back (at *different* thread counts, so the scratch is
/// re-chunked and the pool re-sized) reproduces the naive reference.
/// [`BIG_N`] is prime, so both thread counts leave a ragged final chunk.
#[test]
fn pooled_delivery_survives_reset_and_odd_chunks() {
    let net = big_network(902);
    let c = net.channels_per_node() as u16;
    let make = |ctx: NodeCtx| Chatter { c, p_bcast: 0.4, id: ctx.id.0, trace: Vec::new() };
    let (ref_counters, ref_traces) = run(&net, Resolver::Naive, 8, c, 0.4, 32);

    let mut eng = Engine::with_resolver(&net, 8, Resolver::ParallelSharded { threads: 3 }, make);
    eng.run_to_completion(32);
    assert_eq!(eng.counters(), ref_counters, "first pooled-delivery run diverges");

    // Reset and rerun with a different thread count: the delivery scratch
    // from the first run must be re-sliced, not trusted.
    eng.reset(8, make);
    eng.set_resolver(Resolver::ParallelSharded { threads: 7 });
    eng.run_to_completion(32);
    assert_eq!(eng.counters(), ref_counters, "post-reset pooled-delivery run diverges");
    let traces: Vec<Vec<Obs>> = eng.into_outputs();
    assert_eq!(traces, ref_traces, "post-reset pooled-delivery traces diverge");
}

/// Multi-chunk collection composes with everything else the engine does:
/// engine reuse via reset, odd chunking (thread counts that don't divide
/// n), and resolver switches mid-run that move between one chunk and
/// several.
#[test]
fn pooled_collection_survives_reset_and_odd_chunks() {
    let net = big_network(901);
    let c = net.channels_per_node() as u16;
    let make = |ctx: NodeCtx| Chatter { c, p_bcast: 0.4, id: ctx.id.0, trace: Vec::new() };
    let (ref_counters, ref_traces) = run(&net, Resolver::Naive, 8, c, 0.4, 36);

    let mut eng = Engine::with_resolver(&net, 8, Resolver::ParallelSharded { threads: 7 }, make);
    eng.run_to_completion(36);
    assert_eq!(eng.counters(), ref_counters, "first pooled-collection run diverges");

    // Reset and rerun through 3 chunks, 1 chunk, and 2 chunks: chunk
    // tables, local buckets, and the pool must all be observationally
    // invisible.
    eng.reset(8, make);
    for resolver in [Resolver::sharded(3), Resolver::Auto, Resolver::sharded(2)] {
        eng.set_resolver(resolver);
        for _ in 0..12 {
            eng.step();
        }
    }
    assert_eq!(eng.counters(), ref_counters, "post-reset pooled run diverges");
    let traces: Vec<Vec<Obs>> = eng.into_outputs();
    assert_eq!(traces, ref_traces, "post-reset pooled traces diverge");
}

/// Engine-reuse regression: one engine, two full executions back-to-back
/// via [`Engine::reset`], must reproduce what two *fresh* engines produce
/// — guarding against pool or scratch state leaking from the first run
/// into the second (the persistent worker pool, shard buffers, and epoch
/// stamps all survive a reset by design and must be observationally
/// invisible). Runs the one-chunk path on a small network and the
/// four-chunk path above the pooling size.
#[test]
fn engine_reuse_via_reset_matches_fresh_engines() {
    let small = build_network(
        &Topology::RandomGeometric { n: 40, radius: 0.4 },
        &ChannelModel::SharedCore { c: 3, core: 2 },
        4242,
    );
    let big = big_network(4242);

    for (net, resolver, slots) in
        [(&small, Resolver::Auto, 64), (&big, Resolver::ParallelSharded { threads: 4 }, 24)]
    {
        let c = net.channels_per_node() as u16;
        let make =
            |ctx: crn_sim::NodeCtx| Chatter { c, p_bcast: 0.5, id: ctx.id.0, trace: Vec::new() };
        // Fresh-engine ground truth for both seeds.
        let (fresh1_counters, fresh1_traces) = run(net, resolver, 9, c, 0.5, slots);
        let (fresh2_counters, fresh2_traces) = run(net, resolver, 10, c, 0.5, slots);
        assert_ne!(fresh1_traces, fresh2_traces, "seeds must differ for the test to probe");

        // One engine, two executions back-to-back.
        let mut eng = Engine::with_resolver(net, 9, resolver, make);
        eng.run_to_completion(slots);
        assert_eq!(eng.counters(), fresh1_counters, "{resolver:?}: first run counters");
        let mut traces1 = Vec::new();
        eng.for_each_protocol(|_, p| traces1.push(p.trace.clone()));
        assert_eq!(traces1, fresh1_traces, "{resolver:?}: first run traces");

        eng.reset(10, make);
        assert_eq!(eng.slot(), 0, "reset rewinds the slot counter");
        assert_eq!(eng.counters(), crn_sim::Counters::default(), "reset clears counters");
        eng.run_to_completion(slots);
        assert_eq!(
            eng.counters(),
            fresh2_counters,
            "{resolver:?}: reused engine diverges from a fresh engine"
        );
        let traces2: Vec<Vec<Obs>> = eng.into_outputs();
        assert_eq!(
            traces2, fresh2_traces,
            "{resolver:?}: reused engine's traces diverge from a fresh engine"
        );
    }
}

/// The spectrum-dynamics differential: with a primary-user process
/// installed, every resolver — on one chunk below the pooling size, and at
/// threads {2, 4, 8} above it — must stay in slot-by-slot lockstep with
/// the naive engine running the *same* dynamics. The busy mask is computed
/// once per slot from per-(slot, channel)-keyed streams, so any divergence
/// here is a masking bug (a shard reading a stale mask, a busy channel
/// resolved anyway, a miscounted PU counter), pinned to the slot where it
/// first appears.
#[test]
fn dynamic_spectrum_stays_in_lockstep_across_resolvers() {
    let small = build_network(
        &Topology::ErdosRenyi { n: 48, p: 0.15 },
        &ChannelModel::SharedCore { c: 4, core: 2 },
        77,
    );
    let big = big_network(77);
    let pooled = POOLED_THREADS.map(|threads| Resolver::ParallelSharded { threads });

    let dynamics = [
        SpectrumDynamics::MarkovOnOff { p_busy: 0.2, p_free: 0.3 },
        SpectrumDynamics::PoissonBursts { rate: 0.1, mean_len: 3.0 },
        SpectrumDynamics::TraceReplay(vec![
            vec![GlobalChannel(0)],
            vec![],
            vec![GlobalChannel(1), GlobalChannel(0)],
            vec![],
        ]),
    ];

    let legs: [(&Network, &[Resolver], u64); 2] =
        [(&small, &OPTIMIZED_RESOLVERS, 72), (&big, &pooled, 24)];
    for (net, resolvers, slots) in legs {
        let n = net.len();
        let c = net.channels_per_node() as u16;
        let chatter = |ctx: NodeCtx| Chatter { c, p_bcast: 0.5, id: ctx.id.0, trace: Vec::new() };
        for dyn_ in &dynamics {
            let mut reference = Engine::with_resolver(net, 21, Resolver::Naive, chatter);
            reference.set_spectrum(dyn_.clone());

            let mut others: Vec<(Resolver, Engine<'_, Chatter>)> = Vec::new();
            for &resolver in resolvers {
                let mut eng = Engine::with_resolver(net, 21, resolver, chatter);
                eng.set_spectrum(dyn_.clone());
                others.push((resolver, eng));
            }

            for slot in 0..slots {
                reference.step();
                for (resolver, eng) in &mut others {
                    eng.step();
                    assert_eq!(
                        eng.counters(),
                        reference.counters(),
                        "n={n} {dyn_:?} {resolver:?}: counters diverge after slot {slot}"
                    );
                }
            }
            let counters = reference.counters();
            assert!(counters.deliveries > 0, "n={n} {dyn_:?}: scenario must still deliver");
            assert!(counters.pu_blocked_listens > 0, "n={n} {dyn_:?}: the PU must actually bite");

            let mut ref_traces = Vec::new();
            reference.for_each_protocol(|_, p| ref_traces.push(p.trace.clone()));
            for (resolver, eng) in &mut others {
                let mut traces = Vec::new();
                eng.for_each_protocol(|_, p| traces.push(p.trace.clone()));
                assert_eq!(traces, ref_traces, "n={n} {dyn_:?} {resolver:?}: traces diverge");
            }
        }
    }
}

/// `SpectrumDynamics::Static` must reproduce today's spectrum-free results
/// exactly — same counters (all PU counters zero) and same traces as an
/// engine that never heard of the spectrum layer.
#[test]
fn static_dynamics_reproduce_spectrum_free_results() {
    let net = build_network(
        &Topology::RandomGeometric { n: 40, radius: 0.4 },
        &ChannelModel::SharedCore { c: 3, core: 2 },
        4242,
    );
    let c = net.channels_per_node() as u16;
    let (ref_counters, ref_traces) = run(&net, Resolver::Auto, 9, c, 0.5, 64);
    assert_eq!(ref_counters.pu_blocked_listens, 0);

    let mut eng = Engine::with_resolver(&net, 9, Resolver::Auto, |ctx| Chatter {
        c,
        p_bcast: 0.5,
        id: ctx.id.0,
        trace: Vec::new(),
    });
    eng.set_spectrum(SpectrumDynamics::Static);
    eng.run_to_completion(64);
    assert_eq!(eng.counters(), ref_counters);
    assert_eq!(eng.into_outputs(), ref_traces);
}

/// Spectrum state must be reset-invisible: one multi-chunk engine running
/// dynamics twice via [`Engine::reset`] reproduces two fresh engines (the
/// PU draws are keyed by (seed, slot, channel), not by process history).
#[test]
fn spectrum_survives_engine_reset() {
    let net = big_network(55);
    let c = net.channels_per_node() as u16;
    let make = |ctx: NodeCtx| Chatter { c, p_bcast: 0.5, id: ctx.id.0, trace: Vec::new() };
    let dyn_ = SpectrumDynamics::MarkovOnOff { p_busy: 0.25, p_free: 0.25 };
    let slots = 24;

    let fresh = |seed: u64| {
        let mut eng = Engine::with_resolver(&net, seed, Resolver::sharded(4), make);
        eng.set_spectrum(dyn_.clone());
        eng.run_to_completion(slots);
        (eng.counters(), eng.into_outputs())
    };
    let (fresh1, _) = fresh(9);
    let (fresh2, traces2) = fresh(10);
    assert!(fresh1.pu_blocked_listens > 0, "scenario must exercise the mask");

    let mut eng = Engine::with_resolver(&net, 9, Resolver::sharded(4), make);
    eng.set_spectrum(dyn_.clone());
    eng.run_to_completion(slots);
    assert_eq!(eng.counters(), fresh1, "first run");
    eng.reset(10, make);
    eng.run_to_completion(slots);
    assert_eq!(eng.counters(), fresh2, "reused engine diverges from fresh");
    assert_eq!(eng.into_outputs(), traces2, "reused traces diverge from fresh");
}

/// Property over topology/channel-count/seed space: the naive reference
/// engine, the one-chunk `Auto` engine, and — on networks above the
/// pooling size — the sharded engine at 2, 4, and 8 threads are
/// bit-identical (counters *and* full per-slot feedback traces) on
/// randomized networks. Below the pooling size a sharded engine runs the
/// one-chunk `Auto` path itself, so those cases compare `Auto` with the
/// reference only.
mod sharded_equivalence_property {
    use super::*;
    use proptest::prelude::*;

    fn topology(kind: u8, n: usize) -> Topology {
        match kind % 5 {
            0 => Topology::Star { leaves: n.max(2) - 1 },
            1 => Topology::Cycle { n: n.max(3) },
            2 => Topology::Complete { n: n.max(2) },
            3 => Topology::ErdosRenyi { n: n.max(2), p: 0.2 },
            _ => Topology::RandomGeometric { n: n.max(2), radius: 0.4 },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn sharded_and_batched_match_scalar_sequential(
            kind in 0u8..5,
            n in 4usize..40,
            c in 1u16..5,
            core in 1u16..3,
            seed in 0u64..1_000,
            p_bcast in 0.1f64..0.9,
            size_class in 0u8..4,
        ) {
            let core = core.min(c) as usize;
            let channels = ChannelModel::SharedCore { c: c as usize, core };
            let net_seed = seed.wrapping_mul(0x9E37) ^ kind as u64;
            // One case in four runs above the pooling size, on a sparse
            // random graph of average degree 2 to 6.
            let pooled = size_class == 0;
            let net = if pooled {
                let n = BIG_N + n;
                let p = f64::from(2 + kind) / (n as f64 - 1.0);
                let topology = Topology::SparseErdosRenyi { n, p };
                Network::generate_with_stats(&topology, &channels, net_seed, StatsMode::Approximate)
                    .expect("big network must build")
            } else {
                build_network(&topology(kind, n), &channels, net_seed)
            };
            let c = net.channels_per_node() as u16;
            let slots = if pooled { 24 } else { 48 };
            // Ground truth: the naive reference resolver on one chunk.
            let (ref_counters, ref_traces) =
                run(&net, Resolver::Naive, seed, c, p_bcast, slots);
            let (counters, traces) = run(&net, Resolver::Auto, seed, c, p_bcast, slots);
            prop_assert_eq!(counters, ref_counters, "Auto diverges on counters");
            prop_assert_eq!(&traces, &ref_traces, "Auto diverges on traces");
            if pooled {
                for threads in POOLED_THREADS {
                    let resolver = Resolver::ParallelSharded { threads };
                    let (counters, traces) = run(&net, resolver, seed, c, p_bcast, slots);
                    prop_assert_eq!(
                        counters, ref_counters,
                        "threads={} diverges on counters", threads
                    );
                    prop_assert_eq!(
                        &traces, &ref_traces,
                        "threads={} diverges on feedback traces", threads
                    );
                }
            }
        }
    }
}

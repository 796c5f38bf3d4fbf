//! Batch-vs-scalar differentials for every ported protocol in `crn-core`.
//!
//! The engine always drives protocols through [`Protocol::act_batch`] and
//! [`Protocol::feedback_batch`]; the ported implementations override both
//! with buffered bulk draws that must be *draw-for-draw identical* to their
//! scalar [`Protocol::act`] / [`Protocol::feedback`]. This file proves that
//! per protocol: each one is run side by side with a [`ScalarOnly`] twin —
//! a transparent wrapper that delegates everything *except* the two batch
//! hooks, so the engine falls back to the default per-node scalar
//! delegation for both — and the two executions must produce bit-identical
//! counters and outputs on the same network and seed.
//!
//! Each protocol runs its full schedule on a small network, where every
//! engine runs one chunk, and a prefix of the same schedule on a network
//! above the engine's 2048-node pooling size, where sharded engines at
//! threads {2, 3, 4} split collection and delivery into chunks — so the
//! chunked dispatch of both batch hooks is exercised, including ragged
//! chunk boundaries (the big network's 2053 nodes are prime).

use crn_core::baselines::{
    FixedRateDiscovery, FixedRateSchedule, NaiveBroadcast, NaiveDiscovery, NaiveDiscoverySchedule,
};
use crn_core::cgcast::{CGCast, UncoloredGcast};
use crn_core::count::{CountProtocol, Role};
use crn_core::exchange::Exchange;
use crn_core::params::{GcastParams, ModelInfo, SeekParams};
use crn_core::seek::CSeek;
use crn_sim::channels::{shuffle_local_labels, ChannelModel};
use crn_sim::rng::stream_rng;
use crn_sim::topology::Topology;
use crn_sim::{
    Action, Counters, Engine, Feedback, LocalChannel, Network, NodeCtx, NodeId, Protocol, Resolver,
    SlotCtx, StatsMode,
};

/// A transparent protocol wrapper that forwards `act`, `feedback`,
/// `is_complete`, and `into_output` — but deliberately **neither**
/// `act_batch` **nor** `feedback_batch`, so the engine uses the trait's
/// default scalar delegation for both batch hooks. Running `P` and
/// `ScalarOnly<P>` side by side is therefore exactly a batched-vs-scalar
/// differential for `P`'s act *and* feedback paths.
struct ScalarOnly<P>(P);

impl<P: Protocol> Protocol for ScalarOnly<P> {
    type Message = P::Message;
    type Output = P::Output;

    fn act(&mut self, ctx: &mut SlotCtx<'_>) -> Action<P::Message> {
        self.0.act(ctx)
    }

    fn feedback(&mut self, ctx: &mut SlotCtx<'_>, fb: Feedback<'_, P::Message>) {
        self.0.feedback(ctx, fb)
    }

    fn is_complete(&self) -> bool {
        self.0.is_complete()
    }

    fn into_output(self) -> P::Output {
        self.0.into_output()
    }
}

fn build_net(topo: &Topology, model: &ChannelModel, seed: u64) -> Network {
    let mut rng = stream_rng(seed, 999);
    let n = topo.num_nodes();
    let mut sets = model.assign(n, &mut rng);
    shuffle_local_labels(&mut sets, &mut rng);
    let mut b = Network::builder(n);
    for (v, set) in sets.into_iter().enumerate() {
        b.set_channels(NodeId(v as u32), set);
    }
    b.add_edges(topo.edges(&mut rng).into_iter().map(|(a, x)| (NodeId(a), NodeId(x))));
    if n >= BIG_N {
        // The schedules come from the small networks' exact stats; the big
        // network only needs to build fast.
        b.stats_mode(StatsMode::Approximate);
    }
    b.build().unwrap()
}

/// Node count of the multi-chunk legs: above the engine's 2048-node
/// pooling size, and prime, so every thread count leaves a ragged final
/// chunk.
const BIG_N: usize = 2053;

/// Slots of each schedule the multi-chunk legs run.
const PREFIX: u64 = 48;

/// A sparse random network of [`BIG_N`] nodes (average degree ≈ 8) with
/// the given channel model — the same channels per node as the small
/// network whose schedule the protocol runs.
fn big_net(model: &ChannelModel, seed: u64) -> Network {
    build_net(&Topology::SparseErdosRenyi { n: BIG_N, p: 8.0 / (BIG_N as f64 - 1.0) }, model, seed)
}

fn run<Q, F>(
    net: &Network,
    seed: u64,
    resolver: Resolver,
    slots: u64,
    make: F,
) -> (Counters, Vec<Q::Output>)
where
    Q: Protocol + Send,
    Q::Message: Send + Sync,
    F: FnMut(NodeCtx) -> Q,
{
    let mut eng = Engine::with_resolver(net, seed, resolver, make);
    eng.run_to_completion(slots);
    (eng.counters(), eng.into_outputs())
}

/// Runs `make`'s protocol batched and its [`ScalarOnly`] twin scalar and
/// requires bit-identical counters and outputs:
///
/// * over the full `slots`-slot schedule on `net`, where every engine
///   runs one chunk;
/// * over the first [`PREFIX`] slots on `big`, where the scalar twin on
///   3 threads proves the chunked default delegation (any third-party
///   protocol that overrides neither batch hook) and the batched protocol
///   runs on one chunk and on threads {2, 4}.
fn assert_batch_matches_scalar<P, F>(net: &Network, big: &Network, seed: u64, slots: u64, make: F)
where
    P: Protocol + Send,
    P::Message: Send + Sync,
    P::Output: PartialEq + std::fmt::Debug + Send,
    F: Fn(NodeCtx) -> P + Copy,
{
    let scalar = |ctx| ScalarOnly(make(ctx));
    let (ref_counters, ref_outputs) = run(net, seed, Resolver::Auto, slots, scalar);
    let (counters, outputs) = run(net, seed, Resolver::Auto, slots, make);
    assert_eq!(counters, ref_counters, "batched counters diverge from scalar");
    assert_eq!(outputs, ref_outputs, "batched outputs diverge from scalar");

    let (ref_counters, ref_outputs) = run(big, seed, Resolver::Auto, PREFIX, scalar);
    let (counters, outputs) = run(big, seed, Resolver::sharded(3), PREFIX, scalar);
    assert_eq!(counters, ref_counters, "chunked scalar-delegation counters diverge");
    assert_eq!(outputs, ref_outputs, "chunked scalar-delegation outputs diverge");
    for threads in [1usize, 2, 4] {
        let (counters, outputs) = run(big, seed, Resolver::sharded(threads), PREFIX, make);
        assert_eq!(
            counters, ref_counters,
            "batched counters diverge from scalar on {BIG_N} nodes, {threads} threads"
        );
        assert_eq!(
            outputs, ref_outputs,
            "batched outputs diverge from scalar on {BIG_N} nodes, {threads} threads"
        );
    }
}

#[test]
fn cseek_batch_matches_scalar() {
    // n = 13 with 3 chunks gives ragged chunk boundaries; history recording
    // on so the full output surface is compared.
    let model = ChannelModel::SharedCore { c: 4, core: 2 };
    let net = build_net(&Topology::RandomGeometric { n: 13, radius: 0.5 }, &model, 5);
    let m = ModelInfo::from_stats(&net.stats());
    let sched = SeekParams::default().schedule(&m);
    let big = big_net(&model, 5);
    assert_batch_matches_scalar(&net, &big, 31, sched.total_slots(), |ctx: NodeCtx| {
        CSeek::new(ctx.id, sched, true)
    });
}

#[test]
fn cgcast_batch_matches_scalar() {
    let model = ChannelModel::SharedCore { c: 3, core: 2 };
    let net = build_net(&Topology::Grid { rows: 2, cols: 3 }, &model, 6);
    let m = ModelInfo::from_stats(&net.stats());
    let d = net.stats().diameter.expect("connected network");
    let sched = GcastParams { dissemination_phases: d.max(1), ..Default::default() }.schedule(&m);
    let big = big_net(&model, 6);
    assert_batch_matches_scalar(&net, &big, 19, sched.total_slots(), |ctx: NodeCtx| {
        CGCast::new(ctx.id, sched, (ctx.id == NodeId(0)).then_some(0xfeed))
    });
}

#[test]
fn uncolored_gcast_batch_matches_scalar() {
    let model = ChannelModel::SharedCore { c: 3, core: 2 };
    let net = build_net(&Topology::Path { n: 5 }, &model, 2);
    let m = ModelInfo::from_stats(&net.stats());
    let d = net.stats().diameter.expect("connected network");
    let sched =
        GcastParams { dissemination_phases: 2 * d.max(1), ..Default::default() }.schedule(&m);
    let big = big_net(&model, 2);
    // The uncolored variant's schedule is shorter than total_slots; running
    // to protocol completion covers the whole state machine.
    assert_batch_matches_scalar(&net, &big, 23, sched.total_slots(), |ctx: NodeCtx| {
        UncoloredGcast::new(ctx.id, sched, (ctx.id == NodeId(0)).then_some(0xfeed))
    });
}

#[test]
fn count_batch_matches_scalar() {
    // Clique on one shared channel: node 0 listens, the rest broadcast.
    let n = 9usize;
    let mut b = Network::builder(n);
    for v in 0..n {
        b.set_channels(NodeId(v as u32), vec![crn_sim::GlobalChannel(0)]);
    }
    for a in 0..n as u32 {
        for w in (a + 1)..n as u32 {
            b.add_edge(NodeId(a), NodeId(w));
        }
    }
    let net = b.build().unwrap();
    // Above the pooling size: a sparse graph on the same single channel.
    let big = big_net(&ChannelModel::Identical { c: 1 }, 41);
    let sched = crn_core::params::CountParams::default().schedule(&ModelInfo {
        n: 64,
        c: 1,
        delta: 64,
        k: 1,
        kmax: 1,
    });
    assert_batch_matches_scalar(&net, &big, 41, sched.total_slots(), |ctx: NodeCtx| {
        let role = if ctx.id == NodeId(0) { Role::Listener } else { Role::Broadcaster };
        CountProtocol::new(ctx.id, role, sched, LocalChannel(0))
    });
}

#[test]
fn baselines_batch_match_scalar() {
    let model = ChannelModel::SharedCore { c: 3, core: 2 };
    let net = build_net(&Topology::Cycle { n: 7 }, &model, 9);
    let m = ModelInfo::from_stats(&net.stats());
    let big = big_net(&model, 9);

    let naive = NaiveDiscoverySchedule::new(&m, 2.0);
    assert_batch_matches_scalar(&net, &big, 51, naive.total_slots(), |ctx: NodeCtx| {
        NaiveDiscovery::new(ctx.id, naive)
    });

    let fixed = FixedRateSchedule::new(&m, 2.0);
    assert_batch_matches_scalar(&net, &big, 52, fixed.total_slots(), |ctx: NodeCtx| {
        FixedRateDiscovery::new(ctx.id, fixed)
    });

    let slots = NaiveBroadcast::schedule_slots(&m, 3, 2.0);
    assert_batch_matches_scalar(&net, &big, 53, slots, |ctx: NodeCtx| {
        NaiveBroadcast::new(ctx.id, m.c as u16, slots, (ctx.id == NodeId(0)).then_some(42))
    });
}

#[test]
fn exchange_batch_matches_scalar() {
    let model = ChannelModel::SharedCore { c: 4, core: 2 };
    let net = build_net(&Topology::Grid { rows: 3, cols: 3 }, &model, 1);
    let m = ModelInfo::from_stats(&net.stats());
    let sched = SeekParams::default().schedule(&m);
    let big = big_net(&model, 1);
    assert_batch_matches_scalar(&net, &big, 17, sched.total_slots(), |ctx: NodeCtx| {
        Exchange::new(ctx.id, sched, vec![ctx.id.0; 2])
    });
}

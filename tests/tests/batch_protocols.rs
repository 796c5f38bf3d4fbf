//! Engine differentials for every protocol in `crn-core`.
//!
//! The engine drives each node through [`Protocol::act`] and
//! [`Protocol::feedback`], in node-range batches: one on a small network,
//! one per thread on a sharded engine above the 2048-node pooling size.
//! This file checks, per protocol, that neither the resolver nor the
//! batching changes a single draw or delivery:
//!
//! * the full schedule on a small network under `Resolver::Auto` must match
//!   the naive reference resolver bit for bit (counters and outputs);
//! * a prefix of the same schedule on a network above the pooling size must
//!   match between one batch (`sharded(1)`) and threads {2, 3, 4}, which
//!   split collection and delivery into chunks with ragged boundaries (the
//!   big network's 2053 nodes are prime).

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
    Counters, Engine, LocalChannel, Network, NodeCtx, NodeId, Protocol, Resolver, StatsMode,
};

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

/// Runs `make`'s protocol and requires bit-identical counters and
/// outputs:
///
/// * over the full `slots`-slot schedule on `net`, under `Auto` against the
///   naive reference resolver, both on one batch;
/// * over the first [`PREFIX`] slots on `big`, at threads {2, 3, 4} against
///   one batch (`sharded(1)`).
fn assert_matches_reference<P, F>(net: &Network, big: &Network, seed: u64, slots: u64, make: F)
where
    P: Protocol + Send,
    P::Message: Send + Sync,
    P::Output: PartialEq + std::fmt::Debug + Send,
    F: Fn(NodeCtx) -> P + Copy,
{
    let (ref_counters, ref_outputs) = run(net, seed, Resolver::Naive, slots, make);
    let (counters, outputs) = run(net, seed, Resolver::Auto, slots, make);
    assert_eq!(counters, ref_counters, "Auto counters diverge from Naive");
    assert_eq!(outputs, ref_outputs, "Auto outputs diverge from Naive");

    let (ref_counters, ref_outputs) = run(big, seed, Resolver::sharded(1), PREFIX, make);
    for threads in [2usize, 3, 4] {
        let (counters, outputs) = run(big, seed, Resolver::sharded(threads), PREFIX, make);
        assert_eq!(
            counters, ref_counters,
            "counters diverge from one batch on {BIG_N} nodes, {threads} threads"
        );
        assert_eq!(
            outputs, ref_outputs,
            "outputs diverge from one batch on {BIG_N} nodes, {threads} threads"
        );
    }
}

#[test]
fn cseek_batch_matches_scalar() {
    // History recording on so the full output surface is compared.
    let model = ChannelModel::SharedCore { c: 4, core: 2 };
    let net = build_net(&Topology::RandomGeometric { n: 13, radius: 0.5 }, &model, 5);
    let m = ModelInfo::from_stats(&net.stats());
    let sched = SeekParams::default().schedule(&m);
    let big = big_net(&model, 5);
    assert_matches_reference(&net, &big, 31, sched.total_slots(), |ctx: NodeCtx| {
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
    assert_matches_reference(&net, &big, 19, sched.total_slots(), |ctx: NodeCtx| {
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
    assert_matches_reference(&net, &big, 23, sched.total_slots(), |ctx: NodeCtx| {
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
    assert_matches_reference(&net, &big, 41, sched.total_slots(), |ctx: NodeCtx| {
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
    assert_matches_reference(&net, &big, 51, naive.total_slots(), |ctx: NodeCtx| {
        NaiveDiscovery::new(ctx.id, naive)
    });

    let fixed = FixedRateSchedule::new(&m, 2.0);
    assert_matches_reference(&net, &big, 52, fixed.total_slots(), |ctx: NodeCtx| {
        FixedRateDiscovery::new(ctx.id, fixed)
    });

    let slots = NaiveBroadcast::schedule_slots(&m, 3, 2.0);
    assert_matches_reference(&net, &big, 53, slots, |ctx: NodeCtx| {
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
    assert_matches_reference(&net, &big, 17, sched.total_slots(), |ctx: NodeCtx| {
        Exchange::new(ctx.id, sched, vec![ctx.id.0; 2])
    });
}

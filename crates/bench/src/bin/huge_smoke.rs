//! CI memory-layout gate: the `huge_sparse_1e6` scenario at a reduced
//! n = 10⁵, with hard assertions instead of printed reports.
//!
//! The full million-node row lives in the engine criterion suite and is
//! too heavy for every CI run; this binary proves the same O(n + m)
//! claims in a couple of seconds and exits non-zero when any of them
//! breaks:
//!
//! * the network footprint stays linear (no dense adjacency rows at
//!   average degree 8 — the old eager per-node bitset alone would be
//!   n²/8 = 1.25 GB at this size);
//! * the engine's internal state (SoA node arrays, renumbering maps,
//!   internal CSR, channel tables, per-chunk and per-group scratch) stays
//!   linear, before and after every phase has run split on the pool;
//! * the *process peak RSS* (`VmHWM`) stays under a bound that any
//!   quadratic term blows past by an order of magnitude — this catches
//!   transient setup spikes that a post-hoc footprint sum cannot;
//! * the engine actually runs: slots complete and messages are
//!   delivered, and a 4-thread engine at this size splits collection,
//!   resolution and delivery on every slot.
//!
//! Run by CI as `cargo run --release -p crn-bench --bin huge_smoke`.

use crn_sim::channels::ChannelModel;
use crn_sim::topology::Topology;
use crn_sim::{
    act_batch_buffered, feedback_batch_buffered, Action, BatchCtx, Engine, Feedback, FeedbackBatch,
    LocalChannel, Network, Protocol, Resolver, SlotCtx, StatsMode,
};
use rand::{Rng, RngCore};

/// Peak-RSS ceiling. The linear structures at n = 10⁵ / m ≈ 4·10⁵ total a
/// few tens of MiB including the binary and worker stacks; the first
/// quadratic term to come back (dense adjacency) costs 1.25 GB on its
/// own, so the gate has wide margins on both sides.
const PEAK_RSS_LIMIT: u64 = 256 << 20;

/// Per-structure ceiling for the network footprint and the engine state.
const STRUCTURE_LIMIT: usize = 64 << 20;

/// The engine benches' hot-path protocol: random channel, random role,
/// every slot.
struct Chatter {
    c: u16,
    heard: u64,
}

impl Chatter {
    fn act_any<R: RngCore>(&mut self, ctx: &mut SlotCtx<'_, R>) -> Action<u32> {
        let channel = LocalChannel(ctx.rng.gen_range(0..self.c));
        if ctx.rng.gen_bool(0.05) {
            Action::Broadcast { channel, message: 7 }
        } else {
            Action::Listen { channel }
        }
    }
}

impl Protocol for Chatter {
    type Message = u32;
    type Output = u64;
    fn act(&mut self, ctx: &mut SlotCtx<'_>) -> Action<u32> {
        self.act_any(ctx)
    }
    fn act_batch(batch: &mut [Self], ctx: &mut BatchCtx<'_>, out: &mut Vec<Action<u32>>) {
        act_batch_buffered(batch, ctx, out, |_| 2, |p, sctx| p.act_any(sctx));
    }
    fn feedback(&mut self, _ctx: &mut SlotCtx<'_>, fb: Feedback<'_, u32>) {
        if matches!(fb, Feedback::Heard(_)) {
            self.heard += 1;
        }
    }
    fn feedback_batch(batch: &mut [Self], ctx: &mut BatchCtx<'_>, fb: FeedbackBatch<'_, u32>) {
        feedback_batch_buffered(
            batch,
            ctx,
            fb,
            |_| 0,
            |p, _sctx, f| {
                if matches!(f, Feedback::Heard(_)) {
                    p.heard += 1;
                }
            },
        );
    }
    fn is_complete(&self) -> bool {
        false
    }
    fn into_output(self) -> u64 {
        self.heard
    }
}

fn main() {
    let n = 100_000usize;
    let slots = 8u64;
    let topology = Topology::SparseErdosRenyi { n, p: 8.0 / (n as f64 - 1.0) };
    let channels = ChannelModel::SharedCore { c: 3, core: 2 };

    let t0 = std::time::Instant::now();
    let net = Network::generate_with_stats(&topology, &channels, 17, StatsMode::Approximate)
        .expect("huge_smoke network must build");
    let setup = t0.elapsed();
    let stats = net.stats();
    assert!(stats.edges > n, "average degree ~8 expected, got {} edges", stats.edges);

    let fp = net.memory_footprint();
    println!("huge_smoke: built n = {n}, m = {} in {setup:.2?}", stats.edges);
    println!("huge_smoke: network footprint: {fp}");
    assert_eq!(
        fp.adjacency_rows, 0,
        "no node reaches the dense-adjacency degree threshold at average degree 8"
    );
    assert!(
        fp.total_bytes() < STRUCTURE_LIMIT,
        "network footprint {} bytes exceeds the linear budget {STRUCTURE_LIMIT}",
        fp.total_bytes()
    );

    let mut eng =
        Engine::with_resolver(&net, 42, Resolver::sharded(4), |_| Chatter { c: 3, heard: 0 });
    let engine_bytes = eng.internal_memory_bytes();
    println!(
        "huge_smoke: engine internal state {:.1} MiB",
        engine_bytes as f64 / (1u64 << 20) as f64
    );
    assert!(
        engine_bytes < STRUCTURE_LIMIT,
        "engine internal state {engine_bytes} bytes exceeds the linear budget {STRUCTURE_LIMIT}"
    );

    eng.set_phase_timing(true);
    eng.run_to_completion(slots);
    let deliveries = eng.counters().deliveries;
    println!("huge_smoke: {slots} slots, {deliveries} deliveries");
    assert!(deliveries > 0, "the engine must deliver messages at this density");
    let pt = eng.phase_timings().expect("timing is on");
    println!(
        "huge_smoke: split slots: collect {}, resolve {}, deliver {}",
        pt.collect_pooled_slots, pt.resolve_sharded_slots, pt.deliver_pooled_slots
    );
    assert_eq!(
        (pt.collect_pooled_slots, pt.resolve_sharded_slots, pt.deliver_pooled_slots),
        (slots, slots, slots),
        "n = {n} on 4 threads must split every phase of every slot"
    );

    // Re-assert *after* the run: multi-chunk collection, resolution and
    // delivery (all engaged here — n = 10⁵ on a 4-thread engine) allocate
    // their per-chunk and per-group scratch on first use, so only a
    // post-run measurement proves that scratch is O(n + m) too and that
    // no hidden O(n·threads) buffer appeared.
    let engine_bytes_after = eng.internal_memory_bytes();
    println!(
        "huge_smoke: engine internal state after run {:.1} MiB",
        engine_bytes_after as f64 / (1u64 << 20) as f64
    );
    assert!(
        engine_bytes_after < STRUCTURE_LIMIT,
        "post-run engine state {engine_bytes_after} bytes exceeds the linear budget \
         {STRUCTURE_LIMIT}: pooled scratch is no longer O(n + m)"
    );

    match crn_bench::peak_rss_bytes() {
        Some(bytes) => {
            println!("huge_smoke: peak RSS {:.0} MiB (VmHWM)", bytes as f64 / (1u64 << 20) as f64);
            assert!(
                bytes < PEAK_RSS_LIMIT,
                "peak RSS {bytes} bytes exceeds the {PEAK_RSS_LIMIT}-byte gate: \
                 setup is no longer O(n + m) in memory"
            );
        }
        None => println!("huge_smoke: peak RSS unavailable (no procfs) — RSS gate skipped"),
    }
    println!("huge_smoke: OK");
}

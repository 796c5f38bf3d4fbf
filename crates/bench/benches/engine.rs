//! Engine micro-benchmarks: raw slot throughput of the simulator substrate.
//!
//! Seven suites:
//!
//! * `engine_slot_throughput` — a topology matrix (star / random dense
//!   Erdős–Rényi / random geometric) at n ∈ {100, 1k, 5k}, comparing the
//!   optimized `Resolver::Auto` against the seed's `Resolver::Naive`
//!   listener×broadcaster scan. This is the repo's perf trajectory for the
//!   hot path every experiment sits on.
//! * `small_slot_200` — the amortized regime: n = 200, 1024 slots. Per-slot
//!   fixed costs dominate here. n = 200 is below the engine's pooling size,
//!   so the `sharded*` rows run exactly the `auto` path and must land
//!   within noise of it.
//! * `trial_reuse_200` — the trial-runner regime: 32 runs of 64 slots,
//!   fresh engine per run vs one engine re-armed by `Engine::reset` (what
//!   the `crn-workloads` runners do per worker).
//! * `spectrum_churn` — the per-slot fixed cost of the primary-user
//!   spectrum layer against the spectrum-free baseline.
//! * `campaign_resume` — the overhead of the resumable campaign layer:
//!   lifecycle bookkeeping, on-disk journaling, and resume-by-replay over
//!   the bare stateful trial runner.
//! * `dense_broadcast_5000` — the acceptance scenario: a random graph with
//!   n = 5000 and average degree ≥ 64, every node broadcasting or listening
//!   each slot on a handful of shared channels. The optimized resolver must
//!   beat the naive one by ≥ 2× per slot here.
//! * `huge_sparse_1e6` — the memory-layout acceptance scenario: a streaming
//!   Erdős–Rényi graph at n = 10⁶, average degree 8. The timing rows come
//!   with a memory report (network footprint, engine internal state, and
//!   process peak RSS) proving setup stays O(n + m) in memory; see
//!   [`huge_sparse`].
//!
//! Results are printed per benchmark and written as JSON on exit
//! (`BENCH_engine.json`, or the path in `$CRN_BENCH_JSON`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use crn_sim::channels::ChannelModel;
use crn_sim::topology::Topology;
use crn_sim::{
    Action, Engine, Feedback, GlobalChannel, LocalChannel, Network, Protocol, Resolver, SlotCtx,
    SpectrumDynamics, StatsMode,
};
use rand::Rng;

/// A protocol exercising the engine's hot path: random channel, random role,
/// every slot (no sleeping — maximum per-slot resolution load).
struct Chatter {
    c: u16,
    heard: u64,
}

impl Protocol for Chatter {
    type Message = u32;
    type Output = u64;
    fn act(&mut self, ctx: &mut SlotCtx<'_>) -> Action<u32> {
        let channel = LocalChannel(ctx.rng.gen_range(0..self.c));
        if ctx.rng.gen_bool(0.5) {
            Action::Broadcast { channel, message: 7 }
        } else {
            Action::Listen { channel }
        }
    }
    fn feedback(&mut self, _ctx: &mut SlotCtx<'_>, fb: Feedback<'_, u32>) {
        if matches!(fb, Feedback::Heard(_)) {
            self.heard += 1;
        }
    }
    fn is_complete(&self) -> bool {
        false
    }
    fn into_output(self) -> u64 {
        self.heard
    }
}

fn build(topology: &Topology, channels: &ChannelModel, seed: u64) -> Network {
    // Approximate stats: the benches measure slot throughput, and exact
    // all-source-BFS diameters would dominate setup at n = 5000.
    Network::generate_with_stats(topology, channels, seed, StatsMode::Approximate)
        .expect("bench network must build")
}

fn run_slots(net: &Network, resolver: Resolver, c: u16, slots: u64) -> u64 {
    let mut eng = Engine::with_resolver(net, 42, resolver, |_| Chatter { c, heard: 0 });
    eng.run_to_completion(slots);
    eng.counters().deliveries
}

/// [`run_slots`] with per-phase wall-clock timing enabled — the
/// enabled-but-unscraped observability path. Compared against the `auto`
/// row, the gap is the whole cost of `Engine::set_phase_timing(true)`
/// (the ISSUE acceptance bound is < 3% in this amortized regime).
fn run_slots_timed(net: &Network, resolver: Resolver, c: u16, slots: u64) -> u64 {
    let mut eng = Engine::with_resolver(net, 42, resolver, |_| Chatter { c, heard: 0 });
    eng.set_phase_timing(true);
    eng.run_to_completion(slots);
    assert_eq!(eng.phase_timings().expect("timing enabled").slots, slots);
    eng.counters().deliveries
}

/// Topology matrix × resolver. Slot counts shrink with n so a single
/// iteration stays comparable across sizes.
fn engine_throughput(criterion: &mut Criterion) {
    let mut group = criterion.benchmark_group("engine_slot_throughput");
    group.sample_size(10);

    let sizes: &[(usize, u64)] = &[(100, 256), (1000, 64), (5000, 16)];
    for &(n, slots) in sizes {
        let nf = n as f64;
        let configs: Vec<(&str, Topology, ChannelModel)> = vec![
            ("star", Topology::Star { leaves: n - 1 }, ChannelModel::Identical { c: 2 }),
            (
                "dense",
                // Average degree ~16, independent of n.
                Topology::ErdosRenyi { n, p: (16.0 / (nf - 1.0)).min(1.0) },
                ChannelModel::Identical { c: 3 },
            ),
            (
                "geo",
                // n·π·r² ≈ 16 expected neighbors.
                Topology::RandomGeometric {
                    n,
                    radius: (16.0 / (std::f64::consts::PI * nf)).sqrt(),
                },
                ChannelModel::SharedCore { c: 4, core: 2 },
            ),
        ];
        for (name, topology, channels) in configs {
            let net = build(&topology, &channels, 7);
            let c = net.channels_per_node() as u16;
            group.throughput(Throughput::Elements(slots * n as u64));
            for (rname, resolver) in [("auto", Resolver::Auto), ("naive", Resolver::Naive)] {
                group.bench_with_input(
                    BenchmarkId::from_parameter(format!("{name}/n{n}/{rname}")),
                    &n,
                    |b, _| b.iter(|| run_slots(&net, resolver, c, slots)),
                );
            }
        }
    }
    group.finish();
}

/// Small-slot regime: n = 200 on a sparse random graph, many slots — the
/// amortized-cost scenario the paper's Ω(polylog n)-slot primitives live
/// in, where per-slot overhead (not peak throughput) decides wall-clock.
/// A pool hand-off costs more than such a slot's whole work, so below
/// 2048 nodes a sharded engine never wakes its pool: the `sharded*` rows
/// run the `auto` path and show that they do. The `auto`/`naive` rows are
/// gated by `bench_regress`; the `sharded*` rows are tracked but exempt
/// (see `SHARDED_EXEMPT` in `bench_regress`).
fn small_slot(criterion: &mut Criterion) {
    let n = 200usize;
    let slots = 1024u64;
    // Average degree ~8: enough contention for several touched channels per
    // slot, small enough that one slot is only a few microseconds of
    // resolution work.
    let topology = Topology::ErdosRenyi { n, p: 8.0 / (n as f64 - 1.0) };
    let channels = ChannelModel::Identical { c: 3 };
    let net = build(&topology, &channels, 13);

    let mut group = criterion.benchmark_group("small_slot_200");
    group.sample_size(10);
    group.throughput(Throughput::Elements(slots * n as u64));
    for (rname, resolver) in [
        ("auto", Resolver::Auto),
        ("naive", Resolver::Naive),
        ("sharded2", Resolver::ParallelSharded { threads: 2 }),
        ("sharded4", Resolver::ParallelSharded { threads: 4 }),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(rname), &n, |b, _| {
            b.iter(|| run_slots(&net, resolver, 3, slots))
        });
    }
    // The `auto` row with per-phase timers enabled: prices the
    // enabled-but-unscraped observability path against `auto` (the
    // acceptance bound is < 3% overhead in this regime).
    group.bench_with_input(BenchmarkId::from_parameter("auto_timed"), &n, |b, _| {
        b.iter(|| run_slots_timed(&net, Resolver::Auto, 3, slots))
    });
    group.finish();
}

/// Trial-runner regime: many short runs on one network, the shape of every
/// experiment sweep in `crn-workloads`. `fresh_*` rows construct a new
/// engine per trial (the pre-reuse runner behavior); `reuse_*` rows keep
/// one engine and re-arm it with `Engine::reset` — what the trial runners
/// now do per worker. Both rows are gated by `bench_regress`.
fn trial_reuse(criterion: &mut Criterion) {
    let n = 200usize;
    let trials = 32u64;
    let slots = 64u64;
    let topology = Topology::ErdosRenyi { n, p: 8.0 / (n as f64 - 1.0) };
    let channels = ChannelModel::Identical { c: 3 };
    let net = build(&topology, &channels, 13);

    let fresh = || {
        let mut total = 0u64;
        for t in 0..trials {
            let mut eng = Engine::new(&net, 42 + t, |_| Chatter { c: 3, heard: 0 });
            eng.run_to_completion(slots);
            total += eng.counters().deliveries;
        }
        total
    };
    let reuse = || {
        let mut eng = Engine::new(&net, 42, |_| Chatter { c: 3, heard: 0 });
        let mut total = 0u64;
        for t in 0..trials {
            if t > 0 {
                eng.reset(42 + t, |_| Chatter { c: 3, heard: 0 });
            }
            eng.run_to_completion(slots);
            total += eng.counters().deliveries;
        }
        total
    };

    let mut group = criterion.benchmark_group("trial_reuse_200");
    group.sample_size(10);
    group.throughput(Throughput::Elements(trials * slots * n as u64));
    group.bench_with_input(BenchmarkId::from_parameter("fresh_auto"), &n, |b, _| b.iter(fresh));
    group.bench_with_input(BenchmarkId::from_parameter("reuse_auto"), &n, |b, _| b.iter(reuse));
    group.finish();
}

/// Primary-user churn overhead: the `small_slot_200` scenario with each
/// spectrum-dynamics flavour installed, against the spectrum-free baseline
/// (`none`). The masked slots do strictly less resolution work, so this
/// group measures the *fixed* per-slot cost of the spectrum layer (state
/// advance + mask probes), which is what must stay negligible. Gated by
/// `bench_regress` since its baseline was recalibrated on the CI
/// container (it was print-only while the committed baseline predated
/// that machine).
fn spectrum_churn(criterion: &mut Criterion) {
    let n = 200usize;
    let slots = 1024u64;
    let topology = Topology::ErdosRenyi { n, p: 8.0 / (n as f64 - 1.0) };
    let channels = ChannelModel::Identical { c: 3 };
    let net = build(&topology, &channels, 13);

    // A periodic replay pattern: channel 0 busy 1-in-4 slots, channel 1
    // busy 1-in-8.
    let mut replay = vec![Vec::new(); 8];
    for (t, step) in replay.iter_mut().enumerate() {
        if t % 4 == 0 {
            step.push(GlobalChannel(0));
        }
        if t % 8 == 4 {
            step.push(GlobalChannel(1));
        }
    }

    let rows: [(&str, SpectrumDynamics); 4] = [
        ("none", SpectrumDynamics::Static),
        ("markov", SpectrumDynamics::MarkovOnOff { p_busy: 0.05, p_free: 0.2 }),
        ("poisson", SpectrumDynamics::PoissonBursts { rate: 0.05, mean_len: 4.0 }),
        ("replay", SpectrumDynamics::TraceReplay(replay)),
    ];

    let mut group = criterion.benchmark_group("spectrum_churn");
    group.sample_size(10);
    group.throughput(Throughput::Elements(slots * n as u64));
    for (rname, dynamics) in rows {
        group.bench_with_input(BenchmarkId::from_parameter(rname), &n, |b, _| {
            b.iter(|| {
                let mut eng = Engine::new(&net, 42, |_| Chatter { c: 3, heard: 0 });
                eng.set_spectrum(dynamics.clone());
                // The bench measures the hot path, not the post-run
                // analysis: keep the per-slot history out of the loop.
                if let Some(sp) = eng.spectrum_mut() {
                    sp.set_record_history(false);
                }
                eng.run_to_completion(slots);
                eng.counters().deliveries
            })
        });
    }
    group.finish();
}

/// Campaign-runner overhead: a `trial_reuse_200`-shaped workload (n = 200,
/// 32 units of 128 slots) driven through the resumable campaign layer.
/// Three rows:
///
/// * `in_memory` — `run_campaign` with no journal: lifecycle + wave
///   scheduling on top of the bare stateful runner.
/// * `journaled` — the same campaign checkpointed to a fresh on-disk
///   journal (create, one append per unit, one fsync per wave). The
///   journal cost is *fixed per wave*, not per slot: a no-fault campaign
///   is one wave, so this row pays file creation plus ~3 fsyncs total,
///   and the acceptance claim — journaled within 5% of `in_memory` — holds
///   for any campaign at least this long (~40 ms; real sweeps run
///   seconds). The margin is fsync latency, so the group is print-only in
///   `bench_regress` (`PRINT_ONLY_GROUPS`): filesystem differences across
///   runners would gate on hardware, not code.
/// * `resume_replay` — resuming an already-complete journal: pure
///   parse-and-restore, no units run. This bounds the fixed cost a crash
///   recovery pays before the first new wave is scheduled.
fn campaign_resume(criterion: &mut Criterion) {
    use crn_workloads::campaign::{run_campaign, ArmResult, ArmSpec, CampaignSpec, FaultPlan};
    use crn_workloads::runner::{EngineCell, TrialOpts};

    let n = 200usize;
    let slots = 128u64;
    let topology = Topology::ErdosRenyi { n, p: 8.0 / (n as f64 - 1.0) };
    let channels = ChannelModel::Identical { c: 3 };
    let net = build(&topology, &channels, 13);

    let arms: Vec<ArmSpec> = (0..4).map(|a| ArmSpec::new(format!("arm{a}"), 8)).collect();
    let spec = CampaignSpec::new("bench-campaign", arms, 42);
    let opts = TrialOpts::default();
    let run = |journal: Option<&std::path::Path>| {
        run_campaign(&spec, 1, journal, &FaultPlan::none(), EngineCell::new, |cell, u| {
            let seed = spec.seed ^ ((u.arm as u64) << 32) ^ u.trial as u64;
            let out = cell.run_trial(
                &net,
                |_| Chatter { c: 3, heard: 0 },
                seed,
                slots,
                &opts,
                |_, _| false,
            );
            ArmResult::Done { output: out }
        })
        .expect("bench campaign must run")
    };

    let mut path = std::env::temp_dir();
    path.push(format!("crn-bench-campaign-{}.crnj", std::process::id()));

    let mut group = criterion.benchmark_group("campaign_resume");
    group.sample_size(10);
    group.throughput(Throughput::Elements(spec.total_trials() as u64 * slots * n as u64));
    group.bench_with_input(BenchmarkId::from_parameter("in_memory"), &n, |b, _| {
        b.iter(|| run(None))
    });
    group.bench_with_input(BenchmarkId::from_parameter("journaled"), &n, |b, _| {
        b.iter(|| {
            // A fresh journal each iteration: this times the checkpoint
            // path, not a resume of the previous iteration's file.
            std::fs::remove_file(&path).ok();
            run(Some(&path))
        })
    });
    std::fs::remove_file(&path).ok();
    run(Some(&path)); // leave one *complete* journal for the replay row
    group.bench_with_input(BenchmarkId::from_parameter("resume_replay"), &n, |b, _| {
        b.iter(|| {
            let report = run(Some(&path));
            assert!(report.resumed, "replay row must restore, not re-run");
            report
        })
    });
    std::fs::remove_file(&path).ok();
    group.finish();
}

/// Acceptance scenario: dense broadcast storm. Random graph, n = 5000,
/// average degree ≥ 64, all nodes broadcasting-or-listening on 2 shared
/// channels. `auto` must be ≥ 2× faster per slot than `naive` here.
fn dense_broadcast(criterion: &mut Criterion) {
    let n = 5000usize;
    let slots = 8u64;
    // Expected degree 65, one above the >= 64 acceptance floor: the average
    // degree concentrates within ~0.1 of its expectation at this size, so the
    // assert below cannot flip on an RNG stream or seed change (whereas
    // p = 64/(n-1) would sit exactly on the floor, a coin flip).
    let topology = Topology::ErdosRenyi { n, p: 65.0 / (n as f64 - 1.0) };
    let channels = ChannelModel::Identical { c: 2 };
    let net = build(&topology, &channels, 11);
    let avg_degree = 2.0 * net.stats().edges as f64 / n as f64;
    assert!(avg_degree >= 64.0, "acceptance scenario needs avg degree >= 64, got {avg_degree:.1}");

    let mut group = criterion.benchmark_group("dense_broadcast_5000");
    group.sample_size(10);
    group.throughput(Throughput::Elements(slots * n as u64));
    for (rname, resolver) in [
        ("auto", Resolver::Auto),
        ("naive", Resolver::Naive),
        // Every phase split across the worker pool (n = 5000 is above the
        // engine's pooling size). Wall-clock gains require idle cores, so
        // these rows are reported but not gated by bench_regress (see
        // `SHARDED_EXEMPT` there).
        ("sharded2", Resolver::ParallelSharded { threads: 2 }),
        ("sharded4", Resolver::ParallelSharded { threads: 4 }),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(rname), &n, |b, _| {
            b.iter(|| run_slots(&net, resolver, 2, slots))
        });
    }
    group.finish();
}

/// Memory-layout acceptance scenario: n = 10⁶ on a *streaming* sparse
/// Erdős–Rényi graph (average degree 8, skip-sampled — the legacy
/// `ErdosRenyi` variant would draw n²/2 coin flips), 3 shared channels.
///
/// The rows time the per-slot hot path (engine re-armed with
/// `Engine::reset` per iteration, the trial-runner shape); next to them
/// the bench prints the memory report the layout refactor is accountable
/// to — network footprint, engine internal state, and the process peak
/// RSS high-water mark (`VmHWM`) after the workload. Any quadratic term
/// (the old dense per-node adjacency bitset alone would be n²/8 = 125 GB)
/// shows up here as an OOM, not a subtle slowdown. A `total_bytes`
/// assert keeps the linear claim machine-checked even in bench runs; the
/// CI gate proper is the `huge_smoke` binary at n = 10⁵.
///
/// Timing rows are print-only in `bench_regress` (`PRINT_ONLY_GROUPS`):
/// at this size the medians track memory bandwidth, which varies more
/// across runners than the gated pack's cache-resident rows, so they are
/// reported but not gated until a CI-runner baseline is committed.
fn huge_sparse(criterion: &mut Criterion) {
    let n = 1_000_000usize;
    let slots = 2u64;
    let topology = Topology::SparseErdosRenyi { n, p: 8.0 / (n as f64 - 1.0) };
    let channels = ChannelModel::SharedCore { c: 3, core: 2 };

    let t0 = std::time::Instant::now();
    let net = build(&topology, &channels, 17);
    let setup = t0.elapsed();
    let fp = net.memory_footprint();
    println!(
        "huge_sparse_1e6: built n = {n}, m = {} in {:.2?} (streaming generation)",
        net.stats().edges,
        setup
    );
    println!("huge_sparse_1e6: network footprint: {fp}");
    assert!(
        fp.total_bytes() < 256 << 20,
        "network footprint must stay O(n + m) at n = 1e6, got {} bytes",
        fp.total_bytes()
    );

    let mut group = criterion.benchmark_group("huge_sparse_1e6");
    group.sample_size(10);
    group.throughput(Throughput::Elements(slots * n as u64));
    for (rname, resolver) in [("auto", Resolver::Auto), ("sharded4", Resolver::sharded(4))] {
        let mut eng = Engine::with_resolver(&net, 42, resolver, |_| Chatter { c: 3, heard: 0 });
        println!(
            "huge_sparse_1e6/{rname}: engine internal state {:.1} MiB",
            eng.internal_memory_bytes() as f64 / (1u64 << 20) as f64
        );
        let mut trial = 0u64;
        group.bench_with_input(BenchmarkId::from_parameter(rname), &n, |b, _| {
            b.iter(|| {
                trial += 1;
                eng.reset(42 + trial, |_| Chatter { c: 3, heard: 0 });
                eng.run_to_completion(slots);
                eng.counters().deliveries
            })
        });
    }
    // High-water mark measured after the rows: everything above — setup,
    // both engines, the slot loops — fits under it.
    match crn_bench::peak_rss_bytes() {
        Some(bytes) => {
            println!(
                "huge_sparse_1e6: peak RSS {:.0} MiB (VmHWM)",
                bytes as f64 / (1u64 << 20) as f64
            )
        }
        None => println!("huge_sparse_1e6: peak RSS unavailable (no procfs)"),
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = engine_throughput, small_slot, trial_reuse, spectrum_churn, campaign_resume,
        dense_broadcast, huge_sparse
}
criterion_main!(benches);

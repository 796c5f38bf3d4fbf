//! `million_node`: CSEEK on one 10⁶-node sparse Erdős–Rényi network
//! (average degree 8, shared-core channels, approximate statistics), run by
//! a 2-thread sharded engine.
//!
//! Set-up (generation, renumbering, the engine's internal CSR) is timed
//! over several full set-ups, each dropped before the next is built. The
//! engine is then timed as trial slices: `Engine::reset` at a slice seed
//! followed by a fixed number of slots. Each reset and each slot of a slice
//! is an identical unit across repeats, and its counters must repeat
//! exactly. At the end the CSEEK outputs must be sound.

use crate::layers::{counter_ratios, Layers};
use crate::measure::{
    add_counters, add_phases, ms, node_slots, peak_rss_mib, range, share, Fastest, Report,
};
use crate::trace::Tracer;
use crate::{mix, Args};
use crn_core::discovery::outputs_sound;
use crn_core::params::{ModelInfo, SeekParams, SeekSchedule};
use crn_core::seek::CSeek;
use crn_sim::channels::ChannelModel;
use crn_sim::topology::Topology;
use crn_sim::{Counters, Engine, Network, PhaseTimings, Resolver, StatsMode};
use std::time::{Duration, Instant};

/// Nodes of the network.
const N: usize = 1_000_000;
/// Expected average degree.
const AVG_DEGREE: f64 = 8.0;
/// Engine threads: phase-2 shards and pooled phases 1 and 3.
const THREADS: usize = 2;
/// Epochs per run: each builds a fresh set-up (dropping the previous one
/// first) and times slices on it for its share of the budget, so set-ups
/// are spread over the run. The first set-up is a warm-up.
const EPOCHS: u32 = 8;
/// Distinct slice seeds, and slots per slice. One slice keeps a pass at
/// about 0.5 s, so each unit gets about 30 repeats per run; with three
/// slices it got about 9, too few for the fastest to settle.
const SLICES: usize = 1;
const SLICE_SLOTS: usize = 4;

fn make(sched: SeekSchedule) -> impl FnMut(crn_sim::NodeCtx) -> CSeek {
    move |ctx| CSeek::new(ctx.id, sched, false)
}

/// Fastest resets and slots of the slices.
struct SliceTimes {
    reset: Fastest,
    slot: Fastest,
}

impl SliceTimes {
    fn new() -> SliceTimes {
        SliceTimes { reset: Fastest::new(SLICES), slot: Fastest::new(SLICES * SLICE_SLOTS) }
    }

    /// Sum over slices of the fastest reset plus the fastest of each slot.
    fn total(&self) -> Duration {
        self.reset.sum() + self.slot.sum()
    }

    fn min_repeats(&self) -> u32 {
        self.reset.min_repeats().min(self.slot.min_repeats())
    }
}

/// Everything measured over the epochs of one run.
struct Run {
    tracer: Tracer,
    setup: Fastest,
    generate: Fastest,
    build: Fastest,
    plain: SliceTimes,
    traced: SliceTimes,
    phases: PhaseTimings,
    reference: Vec<Option<Counters>>,
    passes: u64,
    state_bytes: usize,
    footprint_bytes: usize,
}

pub fn run(args: &Args, report: &mut Report) {
    let topology = Topology::SparseErdosRenyi { n: N, p: AVG_DEGREE / (N as f64 - 1.0) };
    let channels = ChannelModel::SharedCore { c: 3, core: 2 };
    let net_seed = mix(args.seed ^ 0x1E6);
    let seeds: Vec<u64> =
        (0..SLICES as u64).map(|i| mix(args.seed ^ 0x511CE ^ (i << 32))).collect();
    let mut r = Run {
        tracer: if args.trace { Tracer::on() } else { Tracer::off() },
        setup: Fastest::new(1),
        generate: Fastest::new(1),
        build: Fastest::new(1),
        plain: SliceTimes::new(),
        traced: SliceTimes::new(),
        phases: PhaseTimings::default(),
        reference: vec![None; SLICES],
        passes: 0,
        state_bytes: 0,
        footprint_bytes: 0,
    };
    let start = Instant::now();
    for epoch in 0..EPOCHS {
        let span = r.tracer.enter("setup", u64::from(epoch));
        let t = Instant::now();
        let built = r.tracer.span("network.generate", u64::from(epoch), || {
            Network::generate_with_stats(&topology, &channels, net_seed, StatsMode::Approximate)
        });
        let generated = t.elapsed();
        let Ok(net) = built else {
            return report.check(false, || "the million-node network failed to build".into());
        };
        let sched = SeekParams::default().schedule(&ModelInfo::from_stats(&net.stats()));
        let t = Instant::now();
        let mut eng = r.tracer.span("engine.build", u64::from(epoch), || {
            Engine::with_resolver(&net, seeds[0], Resolver::sharded(THREADS), make(sched))
        });
        let built = t.elapsed();
        r.tracer.exit(span);
        r.setup.record(0, generated + built);
        r.generate.record(0, generated);
        r.build.record(0, built);
        if epoch == 0 {
            let stats = net.stats();
            println!(
                "million_node: n = {}, m = {}, Δ = {}, CSEEK schedule {} slots",
                stats.n,
                stats.edges,
                stats.delta,
                sched.total_slots()
            );
        }
        let until = start + args.budget * (epoch + 1) / EPOCHS;
        // Three passes in all, so every unit has counted repeats. An epoch
        // that starts past its share of the budget runs none, so the run
        // overruns the budget by at most one pass.
        let last = epoch + 1 == EPOCHS;
        while Instant::now() < until || (last && r.passes < 3) {
            pass(args, &mut eng, sched, &seeds, &mut r, report);
        }
        if epoch + 1 == EPOCHS {
            // Measured after the run: pooled phases allocate scratch lazily.
            r.state_bytes = eng.internal_memory_bytes();
            r.footprint_bytes = net.memory_footprint().total_bytes();
            let outputs = eng.into_outputs();
            report.check(outputs_sound(&net, &outputs), || {
                "CSEEK outputs at 10⁶ nodes are unsound".into()
            });
        }
    }
    finish(args, &seeds, r, report);
}

/// One pass over the slices. In the traced run each slice runs twice,
/// timers off then on, so the tracing overhead is measured within one
/// process.
fn pass(
    args: &Args,
    eng: &mut Engine<'_, CSeek>,
    sched: SeekSchedule,
    seeds: &[u64],
    r: &mut Run,
    report: &mut Report,
) {
    let modes: &[bool] = if args.trace { &[false, true] } else { &[false] };
    for &timed in modes {
        let times = if timed { &mut r.traced } else { &mut r.plain };
        for (u, &seed) in seeds.iter().enumerate() {
            let counters = slice(eng, sched, seed, u, timed, times, &mut r.tracer, r.passes);
            if timed {
                let p = eng.phase_timings().expect("timing is on");
                if r.passes > 0 {
                    add_phases(&mut r.phases, &p);
                }
                eng.set_phase_timing(false);
            }
            let want = r.reference[u].get_or_insert(counters);
            report.check(&counters == want, || {
                format!("pass {}: slice {u} counters differ from its first run", r.passes)
            });
        }
    }
    r.passes += 1;
}

fn finish(args: &Args, seeds: &[u64], r: Run, report: &mut Report) {
    let mut totals = Counters::default();
    for c in r.reference.iter().flatten() {
        add_counters(&mut totals, c);
    }
    let work = node_slots(&totals) as f64;
    let total = r.plain.total().as_secs_f64();
    let (gmed, _) = r.setup.median_p90();
    let (rmed, rp90) = r.plain.reset.median_p90();
    let (smed, sp90) = r.plain.slot.median_p90();
    println!(
        "million_node: set-up fastest {:.3} s (generate {:.3} s, engine {:.3} s), median {:.3} s; \
         {} passes, {} counted repeats per unit; fastest slice mean {:.3} ms; reset fastest mean \
         {:.3} ms median {:.3} p90 {:.3}; slot fastest mean {:.3} ms median {:.3} p90 {:.3}",
        r.setup.best(0).as_secs_f64(),
        r.generate.best(0).as_secs_f64(),
        r.build.best(0).as_secs_f64(),
        gmed.as_secs_f64(),
        r.passes,
        r.plain.min_repeats(),
        ms(r.plain.total()) / seeds.len() as f64,
        ms(r.plain.reset.sum()) / seeds.len() as f64,
        ms(rmed),
        ms(rp90),
        ms(r.plain.slot.sum()) / (seeds.len() * SLICE_SLOTS) as f64,
        ms(smed),
        ms(sp90)
    );

    if !args.trace {
        report.metric("setup_s", r.setup.best(0).as_secs_f64(), "s", range(0.01, 300.0));
        report.metric("node_slots_per_s", work / total, "1/s", range(1.0, 1e9));
        report.metric("trials_per_s", seeds.len() as f64 / total, "1/s", range(1e-4, 1e4));
        report.metric("job_latency_ms", 1e3 * total / seeds.len() as f64, "ms", range(1.0, 1e6));
        report.metric("peak_rss_mib", peak_rss_mib(), "MiB", range(1.0, 1e5));
        return;
    }
    let phases = &r.phases;
    // Node-slots stepped with timers on: every pass but the first.
    let timed_node_slots = work * (r.passes - 1) as f64;
    let slots = phases.slots as f64;
    let mib = |b: usize| b as f64 / (1u64 << 20) as f64;
    let mut l = Layers::default();
    l.set("network.generate_s", r.generate.best(0).as_secs_f64());
    l.set("network.footprint_mib", mib(r.footprint_bytes));
    l.set("engine.build_s", r.build.best(0).as_secs_f64());
    l.set("engine.state_mib", mib(r.state_bytes));
    l.set("engine.reset_ms", ms(r.traced.reset.sum()) / seeds.len() as f64);
    l.set("engine.collect_ns_per_node_slot", phases.collect_ns() as f64 / timed_node_slots);
    l.set("engine.resolve_ns_per_node_slot", phases.resolve_ns() as f64 / timed_node_slots);
    l.set("engine.deliver_ns_per_node_slot", phases.deliver_ns() as f64 / timed_node_slots);
    l.set("spectrum.advance_ns_per_slot", share(phases.spectrum_ns as f64, slots));
    l.set("pool.collect_pooled_share", share(phases.collect_pooled_slots as f64, slots));
    l.set("pool.deliver_pooled_share", share(phases.deliver_pooled_slots as f64, slots));
    l.set("pool.resolve_sharded_share", share(phases.resolve_sharded_slots as f64, slots));
    counter_ratios(&mut l, &totals);
    l.set("trace.overhead_share", r.traced.total().as_secs_f64() / total - 1.0);
    crate::write_spans(&r.tracer, "million_node", args.seed, report);
    l.finish("million_node", report);
}

/// One slice: `Engine::reset` at `seed`, then [`SLICE_SLOTS`] slots, each
/// timed on its own. With `timed`, phase timers and spans are on.
#[allow(clippy::too_many_arguments)]
fn slice(
    eng: &mut Engine<'_, CSeek>,
    sched: SeekSchedule,
    seed: u64,
    u: usize,
    timed: bool,
    times: &mut SliceTimes,
    tracer: &mut Tracer,
    pass: u64,
) -> Counters {
    let span = if timed { Some(tracer.enter("slice", pass)) } else { None };
    let t = Instant::now();
    if timed {
        tracer.span("engine.reset", pass, || eng.reset(seed, make(sched)));
        eng.set_phase_timing(true);
    } else {
        eng.reset(seed, make(sched));
    }
    times.reset.record(u, t.elapsed());
    for k in 0..SLICE_SLOTS {
        let t = Instant::now();
        if timed {
            tracer.span("engine.step", pass, || eng.step());
        } else {
            eng.step();
        }
        times.slot.record(u * SLICE_SLOTS + k, t.elapsed());
    }
    if let Some(span) = span {
        tracer.exit(span);
    }
    eng.counters()
}

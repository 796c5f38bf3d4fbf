//! `paper_sweep`: the trials of the repository's E2 and E12 experiments in
//! quick mode, as one batch campaign run in memory through `run_campaign`
//! with one wave thread.
//!
//! The arenas are the experiments' own: E2's 12-node cycle at c = 4 and
//! c = 8 with a shared core of 2, and E12's 6-node CSEEK clique, 5-node
//! CGCAST clique (both c = 6 with a core of 3) and COUNT star of 8
//! broadcasters, the E12 arenas with a clean spectrum and under E12's
//! Markov primary-user churn at duty 0.5. Every arm runs the same number of
//! trials, as in both experiments.
//!
//! The campaign is repeated whole until the time budget is spent. A unit is
//! timed in segments of a fixed number of slots, each identical work on
//! every repeat, and its time is the sum of its segments' fastest repeats.
//! Every repeat of a unit must return an identical `Trial`, and once per run
//! the campaign at two wave threads must return an identical report.

use crate::layers::{counter_ratios, Layers};
use crate::measure::{
    add_counters, add_phases, ms, node_slots, peak_rss_mib, range, share, Fastest, Report,
};
use crate::trace::Tracer;
use crate::{mix, Args};
use crn_core::cgcast::CGCast;
use crn_core::count::{CountProtocol, Role};
use crn_core::discovery::all_discovered;
use crn_core::params::{
    CountParams, CountSchedule, GcastParams, GcastSchedule, ModelInfo, SeekParams, SeekSchedule,
};
use crn_core::seek::CSeek;
use crn_sim::channels::ChannelModel;
use crn_sim::topology::Topology;
use crn_sim::{
    Counters, Engine, GlobalChannel, LocalChannel, Network, NodeCtx, NodeId, PhaseTimings,
    Protocol, SpectrumDynamics,
};
use crn_workloads::campaign::{
    run_campaign, ArmResult, ArmSpec, CampaignReport, CampaignSpec, FaultPlan, Unit,
};
use crn_workloads::runner::{EngineCell, Trial, TrialOpts, PROBE_EVERY};
use crn_workloads::Scenario;
use std::ops::Range;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The network an arm runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Net {
    /// E2: CSEEK on the cycle with `RING_CS[i]` channels.
    Ring(usize),
    /// E12: CSEEK on the 6-node clique.
    Seek,
    /// E12: CGCAST from node 0 on the 5-node clique.
    Gcast,
    /// E12 (E1's arena): COUNT with 8 broadcasters around one listener.
    Count,
}

/// The campaign's arms in order: name, network, and whether E12's
/// primary-user churn is on. E12's duty-0.75 arms are left out: a CGCAST
/// trial there takes about 1.2 s, which would halve the repeats per run.
const ARMS: [(&str, Net, bool); 8] = [
    ("e2_c4", Net::Ring(0), false),
    ("e2_c8", Net::Ring(1), false),
    ("e12_cseek", Net::Seek, false),
    ("e12_cgcast", Net::Gcast, false),
    ("e12_count", Net::Count, false),
    ("e12_cseek_pu", Net::Seek, true),
    ("e12_cgcast_pu", Net::Gcast, true),
    ("e12_count_pu", Net::Count, true),
];
/// Trials per arm and round, the same for every arm as in E2 and E12.
const TRIALS: usize = 1;
/// E2 quick: a 12-node cycle, c ∈ {4, 8}, a shared core of 2.
const RING_N: usize = 12;
const RING_CS: [usize; 2] = [4, 8];
const RING_CORE: usize = 2;
/// E12 quick: clique sizes, channels and core, and COUNT's broadcasters.
const SEEK_N: usize = 6;
const GCAST_N: usize = 5;
const CLIQUE_C: usize = 6;
const CLIQUE_CORE: usize = 3;
const COUNT_M: usize = 8;
/// E12's primary-user process: duty cycle and mean busy sojourn (slots).
const PU_DUTY: f64 = 0.5;
const PU_MEAN_BUSY: f64 = 4.0;
/// Set-ups timed per round; spreading them over the run lets the fastest
/// one land in a quiet window.
const SETUPS_PER_ROUND: usize = 16;
/// Slots per timed segment of a unit. A CGCAST trial runs for 0.3–0.9 s,
/// long enough to overlap the host's slow windows on every repeat; its
/// segments of 10–30 ms are short enough that each has quiet repeats.
const SEGMENT_SLOTS: u64 = 1 << 15;

/// Everything a unit needs, built from the workload seed.
struct Sweep {
    ring: [Network; 2],
    ring_sched: [SeekSchedule; 2],
    seek: Network,
    seek_sched: SeekSchedule,
    gcast: Network,
    gcast_sched: GcastSchedule,
    count: Network,
    count_sched: CountSchedule,
    clean: TrialOpts,
    churn: TrialOpts,
    spec: CampaignSpec,
}

/// The COUNT arena: listener 0 adjacent to `m` broadcasters, all sharing
/// global channel 0 plus one private channel, label order alternating.
fn count_arena(m: usize) -> Network {
    let mut b = Network::builder(m + 1);
    for v in 0..=m {
        let (shared, private) = (GlobalChannel(0), GlobalChannel(1 + v as u32));
        let set = if v % 2 == 0 { vec![shared, private] } else { vec![private, shared] };
        b.set_channels(NodeId(v as u32), set);
    }
    for leaf in 1..=m {
        b.add_edge(NodeId(0), NodeId(leaf as u32));
    }
    b.build().expect("the COUNT arena is a valid network")
}

fn shared_core(topology: Topology, c: usize, core: usize, seed: u64) -> (Network, ModelInfo) {
    let channels = ChannelModel::SharedCore { c, core };
    let built = Scenario::new("paper-sweep", topology, channels, seed)
        .build()
        .expect("a shared-core arena builds");
    (built.net, built.model)
}

/// Builds the networks, schedules and campaign spec; `network` receives the
/// time spent generating networks.
fn build_sweep(seed: u64, network: &mut Duration) -> Sweep {
    let t = Instant::now();
    let ring = RING_CS.map(|c| {
        shared_core(
            Topology::Cycle { n: RING_N },
            c,
            RING_CORE,
            mix(seed ^ 0xE2 ^ ((c as u64) << 8)),
        )
    });
    let clique =
        |n, salt| shared_core(Topology::Complete { n }, CLIQUE_C, CLIQUE_CORE, mix(seed ^ salt)).0;
    let seek = clique(SEEK_N, 0xE12);
    let gcast = clique(GCAST_N, 0xE12 ^ 0x51);
    let count = count_arena(COUNT_M);
    *network += t.elapsed();
    let gcast_sched = GcastParams {
        dissemination_phases: gcast.stats().diameter.expect("a clique is connected"),
        ..Default::default()
    }
    .schedule(&ModelInfo::from_stats(&gcast.stats()));
    // COUNT's constants as E1 and E12 set them: an upper bound of 256 nodes.
    let count_model = ModelInfo { n: 256, c: 2, delta: 256, k: 1, kmax: 1 };
    let arms = ARMS.iter().map(|&(name, _, _)| ArmSpec::new(name, TRIALS)).collect();
    Sweep {
        ring_sched: [0, 1].map(|i| SeekParams::default().schedule(&ring[i].1)),
        ring: ring.map(|(net, _)| net),
        seek_sched: SeekParams::default().schedule(&ModelInfo::from_stats(&seek.stats())),
        seek,
        gcast_sched,
        gcast,
        count,
        count_sched: CountParams::default().schedule(&count_model),
        clean: TrialOpts::default(),
        churn: TrialOpts::with_spectrum(SpectrumDynamics::markov_with_duty(PU_DUTY, PU_MEAN_BUSY)),
        spec: CampaignSpec::new("perfbench-paper-sweep", arms, seed),
    }
}

fn unit_seed(spec: &CampaignSpec, u: &Unit) -> u64 {
    mix(spec.seed ^ ((u.arm as u64) << 40) ^ u.trial as u64)
}

const UNITS: usize = ARMS.len() * TRIALS;

/// The per-layer trial-time metric an arm counts towards.
fn trial_metric(arm: usize) -> &'static str {
    match ARMS[arm] {
        (_, Net::Ring(_) | Net::Seek, false) => "runner.trial_ms.cseek",
        (_, Net::Ring(_) | Net::Seek, true) => "runner.trial_ms.cseek_pu",
        (_, Net::Gcast, _) => "runner.trial_ms.cgcast",
        (_, Net::Count, _) => "runner.trial_ms.count",
    }
}

fn make_seek(sched: SeekSchedule) -> impl FnMut(NodeCtx) -> CSeek {
    move |ctx| CSeek::new(ctx.id, sched, false)
}

fn make_gcast(sched: GcastSchedule) -> impl FnMut(NodeCtx) -> CGCast {
    move |ctx| CGCast::new(ctx.id, sched, (ctx.id == NodeId(0)).then_some(5))
}

fn make_count(net: &Network, sched: CountSchedule) -> impl FnMut(NodeCtx) -> CountProtocol + '_ {
    move |ctx| {
        let role = if ctx.id == NodeId(0) { Role::Listener } else { Role::Broadcaster };
        let ch = net.global_to_local(ctx.id, GlobalChannel(0)).unwrap_or(LocalChannel(0));
        CountProtocol::new(ctx.id, role, sched, ch)
    }
}

/// CGCAST success: every node informed.
fn gcast_done(e: &Engine<'_, CGCast>) -> bool {
    let mut all = true;
    e.for_each_protocol(|_, p| all &= p.is_informed());
    all
}

/// COUNT success: the listener's final estimate lies in `[m, 4m]` (Lemma 1).
fn count_done(e: &Engine<'_, CountProtocol>) -> bool {
    let p = e.protocol(NodeId(0));
    let est = p.estimate() as usize;
    p.is_complete() && (COUNT_M..=4 * COUNT_M).contains(&est)
}

/// Lap times of one unit at every [`SEGMENT_SLOTS`] boundary, taken in the
/// unit's probe, which the engine calls every `PROBE_EVERY` slots.
struct Laps {
    last: Instant,
    slot: u64,
    laps: Vec<Duration>,
}

impl Laps {
    fn start() -> Laps {
        Laps { last: Instant::now(), slot: 0, laps: Vec::new() }
    }

    /// Called with the slot count at every probe evaluation.
    fn at(&mut self, slot: u64) {
        if slot > self.slot && slot.is_multiple_of(SEGMENT_SLOTS) {
            let now = Instant::now();
            self.laps.push(now - self.last);
            (self.last, self.slot) = (now, slot);
        }
    }

    /// The unit's segment times, the last one ending now.
    fn finish(mut self) -> Vec<Duration> {
        self.laps.push(self.last.elapsed());
        self.laps
    }
}

/// The fastest repeat of every segment of every unit; a unit's time is the
/// sum over its segments.
struct UnitTimes {
    /// Per unit, the indices of its segments.
    bounds: Vec<Range<usize>>,
    segments: Fastest,
}

impl UnitTimes {
    /// Lays the segments out from one round's laps and records that round
    /// as the warm-up.
    fn new(laps: &[Vec<Duration>]) -> UnitTimes {
        let mut bounds = Vec::new();
        let mut next = 0;
        for l in laps {
            bounds.push(next..next + l.len());
            next += l.len();
        }
        let mut times = UnitTimes { bounds, segments: Fastest::new(next) };
        times.record(laps);
        times
    }

    /// Records one round's laps; `false`, recording nothing, if a unit ran
    /// a different number of segments than in the first round.
    fn record(&mut self, laps: &[Vec<Duration>]) -> bool {
        if laps.iter().zip(&self.bounds).any(|(l, b)| l.len() != b.len()) {
            return false;
        }
        for (l, b) in laps.iter().zip(&self.bounds) {
            for (k, &took) in b.clone().zip(l) {
                self.segments.record(k, took);
            }
        }
        true
    }

    fn unit(&self, u: usize) -> Duration {
        self.bounds[u].clone().map(|k| self.segments.best(k)).sum()
    }

    fn sum(&self) -> Duration {
        self.segments.sum()
    }
}

/// Records `laps` into `times`, laying them out on the first call.
fn record_laps(times: &mut Option<UnitTimes>, laps: &[Vec<Duration>]) -> bool {
    match times {
        Some(times) => times.record(laps),
        None => {
            *times = Some(UnitTimes::new(laps));
            true
        }
    }
}

/// One engine cell per network, held by each wave worker.
#[derive(Default)]
struct Cells<'a> {
    ring: [EngineCell<'a, CSeek>; 2],
    seek: EngineCell<'a, CSeek>,
    gcast: EngineCell<'a, CGCast>,
    count: EngineCell<'a, CountProtocol>,
}

/// Runs one unit through `EngineCell::run_trial`, as campaign arms do, with
/// `laps` taken in its probe.
fn run_unit<'a>(s: &'a Sweep, cells: &mut Cells<'a>, u: &Unit, laps: &mut Laps) -> Trial {
    let seed = unit_seed(&s.spec, u);
    let (_, net, churn) = ARMS[u.arm];
    let opts = if churn { &s.churn } else { &s.clean };
    match net {
        Net::Ring(i) => {
            let (net, sched) = (&s.ring[i], s.ring_sched[i]);
            let slots = sched.total_slots();
            cells.ring[i].run_trial(net, make_seek(sched), seed, slots, opts, |slot, e| {
                laps.at(slot);
                all_discovered(net, e)
            })
        }
        Net::Seek => {
            let (net, sched) = (&s.seek, s.seek_sched);
            let slots = sched.total_slots();
            cells.seek.run_trial(net, make_seek(sched), seed, slots, opts, |slot, e| {
                laps.at(slot);
                all_discovered(net, e)
            })
        }
        Net::Gcast => {
            let (net, sched) = (&s.gcast, s.gcast_sched);
            let slots = sched.total_slots();
            cells.gcast.run_trial(net, make_gcast(sched), seed, slots, opts, |slot, e| {
                laps.at(slot);
                gcast_done(e)
            })
        }
        Net::Count => {
            let (net, sched) = (&s.count, s.count_sched);
            let slots = sched.total_slots();
            cells.count.run_trial(net, make_count(net, sched), seed, slots, opts, |slot, e| {
                laps.at(slot);
                count_done(e)
            })
        }
    }
}

/// One in-memory campaign at `threads` wave threads; `took` receives each
/// unit's segment times.
fn campaign(s: &Sweep, threads: usize, took: &[Mutex<Vec<Duration>>]) -> CampaignReport {
    run_campaign(&s.spec, threads, None, &FaultPlan::none(), Cells::default, |cells, u| {
        let mut laps = Laps::start();
        let output = run_unit(s, cells, u, &mut laps);
        *took[u.arm * TRIALS + u.trial].lock().expect("a lap lock is never poisoned") =
            laps.finish();
        ArmResult::Done { output }
    })
    .expect("an in-memory campaign cannot fail on journal I/O")
}

fn trials_of(report: &CampaignReport) -> Vec<Option<Trial>> {
    report.arms.iter().flat_map(|arm| arm.trials.iter().map(|t| t.output().copied())).collect()
}

/// Counter totals of the trials of the units `keep` selects.
fn totals(trials: &[Option<Trial>], mut keep: impl FnMut(usize) -> bool) -> Counters {
    let mut sum = Counters::default();
    for (_, t) in trials.iter().enumerate().filter(|&(u, _)| keep(u)) {
        add_counters(&mut sum, &t.as_ref().expect("every unit finished").counters);
    }
    sum
}

pub fn run(args: &Args, report: &mut Report) {
    let mut generate = Fastest::new(1);
    let mut network = Duration::ZERO;
    let sweep = build_sweep(args.seed, &mut network);
    let s = &sweep;
    println!(
        "paper_sweep: {UNITS} units per round ({} arms × {TRIALS}); schedules: E2 CSEEK {} / {} \
         slots, E12 CSEEK {} slots, CGCAST {} slots, COUNT {} slots",
        ARMS.len(),
        s.ring_sched[0].total_slots(),
        s.ring_sched[1].total_slots(),
        s.seek_sched.total_slots(),
        s.gcast_sched.total_slots(),
        s.count_sched.total_slots()
    );

    let took: Vec<Mutex<Vec<Duration>>> = (0..UNITS).map(|_| Mutex::default()).collect();
    let mut setup = Fastest::new(1);
    let mut unit_times = None;
    let mut round_fastest = Fastest::new(1);
    let mut self_fastest = Fastest::new(1);
    let mut traced = args.trace.then(|| Traced::new(s));
    let mut reference: Option<CampaignReport> = None;
    let start = Instant::now();
    let mut rounds = 0u64;
    while rounds < 3 || start.elapsed() < args.budget {
        for _ in 0..SETUPS_PER_ROUND {
            let mut network = Duration::ZERO;
            let t = Instant::now();
            let fresh = build_sweep(args.seed, &mut network);
            setup.record(0, t.elapsed());
            generate.record(0, network);
            drop(std::hint::black_box(fresh));
        }
        let t = Instant::now();
        let r = campaign(s, 1, &took);
        let wall = t.elapsed();
        round_fastest.record(0, wall);
        let laps: Vec<Vec<Duration>> =
            took.iter().map(|l| l.lock().expect("a lap lock is never poisoned").clone()).collect();
        report.check(record_laps(&mut unit_times, &laps), || {
            format!("round {rounds}: a repeated unit ran a different number of segments")
        });
        // The campaign layer's own time in this round: wave selection,
        // lifecycle application and the report.
        self_fastest.record(0, wall.saturating_sub(laps.iter().flatten().sum()));
        let want = reference.get_or_insert_with(|| r.clone());
        report.check(trials_of(&r).iter().all(Option::is_some), || {
            format!("round {rounds}: a unit did not finish")
        });
        report.check(&r == want, || {
            format!("round {rounds}: a repeated unit returned a different Trial")
        });
        if let Some(traced) = traced.as_mut() {
            let got = traced.round(s, rounds, report);
            report.check(got == trials_of(want), || {
                format!("round {rounds}: a traced unit returned a different Trial")
            });
        }
        rounds += 1;
    }
    let reference = reference.expect("at least one round ran");
    let unit_times = unit_times.expect("at least one round ran");
    let parallel = campaign(s, 2, &took);
    report.check(parallel == reference, || "the campaign at 2 wave threads differs".into());
    let reference = trials_of(&reference);

    let all = totals(&reference, |_| true);
    let completed: Vec<u64> = reference.iter().flatten().filter_map(|t| t.completed_at).collect();
    let unit_sum = unit_times.sum().as_secs_f64();
    let (med, p90) = unit_times.segments.median_p90();
    let (rmed, rp90) = round_fastest.median_p90();
    println!(
        "paper_sweep: {rounds} rounds, {} counted repeats per segment; fastest round {:.3} ms, \
         round median {:.3} ms p90 {:.3} ms; segment median {:.3} ms p90 {:.3} ms; campaign \
         self time fastest {:.3} ms",
        unit_times.segments.min_repeats(),
        ms(round_fastest.best(0)),
        ms(rmed),
        ms(rp90),
        ms(med),
        ms(p90),
        ms(self_fastest.best(0))
    );
    for (arm, &(name, _, _)) in ARMS.iter().enumerate() {
        let units = arm * TRIALS..(arm + 1) * TRIALS;
        let fastest: Duration = units.clone().map(|u| unit_times.unit(u)).sum();
        let ns = node_slots(&totals(&reference, |u| units.contains(&u)));
        println!(
            "paper_sweep: arm {name}: fastest unit mean {:.3} ms, {ns} node-slots",
            ms(fastest) / TRIALS as f64
        );
    }
    let slots_mean = completed.iter().sum::<u64>() as f64 / completed.len().max(1) as f64;
    report.detail("sim_slots_mean", slots_mean, "slots", range(1.0, 1e9));
    report.detail(
        "sim_success_ratio",
        completed.len() as f64 / UNITS as f64,
        "ratio",
        range(0.0, 1.0),
    );

    if let Some(traced) = traced {
        traced.finish(s, args, &unit_times, &self_fastest, &reference, &generate, report);
        return;
    }
    report.metric("setup_s", setup.best(0).as_secs_f64(), "s", range(1e-7, 10.0));
    report.metric("node_slots_per_s", node_slots(&all) as f64 / unit_sum, "1/s", range(1.0, 1e9));
    report.metric("trials_per_s", UNITS as f64 / unit_sum, "1/s", range(1e-3, 1e7));
    // The whole campaign, assembled from the fastest repeats of the units'
    // segments and of the campaign layer's own time.
    let job = unit_times.sum() + self_fastest.best(0);
    report.metric("job_latency_ms", ms(job), "ms", range(1e-3, 1e6));
    report.metric("peak_rss_mib", peak_rss_mib(), "MiB", range(1.0, 1e5));
}

/// The traced path: the same units driven through engines the benchmark
/// owns — `Engine::reset`, `set_spectrum`, `run` with the same probe, which
/// is what `EngineCell::run_trial` does — with phase timers and spans on.
struct Traced<'a> {
    tracer: Tracer,
    ring: [Engine<'a, CSeek>; 2],
    seek: Engine<'a, CSeek>,
    gcast: Engine<'a, CGCast>,
    count: Engine<'a, CountProtocol>,
    units: Option<UnitTimes>,
    reset: Fastest,
    probe: Duration,
    build: Duration,
    state_bytes: usize,
}

impl<'a> Traced<'a> {
    fn new(s: &'a Sweep) -> Traced<'a> {
        let t = Instant::now();
        let mut ring = [0, 1].map(|i| Engine::new(&s.ring[i], 0, make_seek(s.ring_sched[i])));
        let mut seek = Engine::new(&s.seek, 0, make_seek(s.seek_sched));
        let mut gcast = Engine::new(&s.gcast, 0, make_gcast(s.gcast_sched));
        let mut count = Engine::new(&s.count, 0, make_count(&s.count, s.count_sched));
        let build = t.elapsed();
        let state_bytes = ring.iter().map(Engine::internal_memory_bytes).sum::<usize>()
            + seek.internal_memory_bytes()
            + gcast.internal_memory_bytes()
            + count.internal_memory_bytes();
        for e in &mut ring {
            e.set_phase_timing(true);
        }
        seek.set_phase_timing(true);
        gcast.set_phase_timing(true);
        count.set_phase_timing(true);
        Traced {
            tracer: Tracer::on(),
            ring,
            seek,
            gcast,
            count,
            units: None,
            reset: Fastest::new(UNITS),
            probe: Duration::ZERO,
            build,
            state_bytes,
        }
    }

    /// Runs every unit once on the traced path and returns their trials.
    fn round(&mut self, s: &'a Sweep, round: u64, report: &mut Report) -> Vec<Option<Trial>> {
        let span = self.tracer.enter("round", round);
        let mut out = Vec::new();
        let mut laps = Vec::new();
        for (arm, &(_, net, churn)) in ARMS.iter().enumerate() {
            let opts = if churn { &s.churn } else { &s.clean };
            for trial in 0..TRIALS {
                let u = Unit { arm, trial, attempt: 0, resume: None };
                let flat = arm * TRIALS + trial;
                let seed = unit_seed(&s.spec, &u);
                let unit = self.tracer.enter("unit", round);
                let mut ctx = TraceCtx {
                    tracer: &mut self.tracer,
                    reset: &mut self.reset,
                    probe: &mut self.probe,
                    laps: Laps::start(),
                    round,
                    unit: flat,
                };
                let trial = match net {
                    Net::Ring(i) => {
                        let (net, sched) = (&s.ring[i], s.ring_sched[i]);
                        let slots = sched.total_slots();
                        ctx.trial(&mut self.ring[i], make_seek(sched), seed, slots, opts, |e| {
                            all_discovered(net, e)
                        })
                    }
                    Net::Seek => ctx.trial(
                        &mut self.seek,
                        make_seek(s.seek_sched),
                        seed,
                        s.seek_sched.total_slots(),
                        opts,
                        |e| all_discovered(&s.seek, e),
                    ),
                    Net::Gcast => ctx.trial(
                        &mut self.gcast,
                        make_gcast(s.gcast_sched),
                        seed,
                        s.gcast_sched.total_slots(),
                        opts,
                        gcast_done,
                    ),
                    Net::Count => ctx.trial(
                        &mut self.count,
                        make_count(&s.count, s.count_sched),
                        seed,
                        s.count_sched.total_slots(),
                        opts,
                        count_done,
                    ),
                };
                laps.push(ctx.laps.finish());
                self.tracer.exit(unit);
                out.push(Some(trial));
            }
        }
        self.tracer.exit(span);
        report.check(record_laps(&mut self.units, &laps), || {
            format!("round {round}: a traced unit ran a different number of segments")
        });
        out
    }

    fn phases(&self) -> PhaseTimings {
        let mut sum = PhaseTimings::default();
        let all = [
            self.ring[0].phase_timings(),
            self.ring[1].phase_timings(),
            self.seek.phase_timings(),
            self.gcast.phase_timings(),
            self.count.phase_timings(),
        ];
        for p in all.into_iter().flatten() {
            add_phases(&mut sum, &p);
        }
        sum
    }

    #[allow(clippy::too_many_arguments)]
    fn finish(
        self,
        s: &Sweep,
        args: &Args,
        untraced: &UnitTimes,
        campaign_self: &Fastest,
        reference: &[Option<Trial>],
        generate: &Fastest,
        report: &mut Report,
    ) {
        let phases = self.phases();
        let traced_rounds = self.tracer.count("round") as f64;
        // Node-slots and churn-arm slots stepped with the timers on.
        let all = totals(reference, |_| true);
        let timed_node_slots = node_slots(&all) as f64 * traced_rounds;
        let churn_slots = totals(reference, |u| ARMS[u / TRIALS].2).slots as f64 * traced_rounds;
        let slots = phases.slots as f64;

        let mut l = Layers::default();
        l.set("network.generate_s", generate.best(0).as_secs_f64());
        let footprint: usize = [&s.ring[0], &s.ring[1], &s.seek, &s.gcast, &s.count]
            .iter()
            .map(|n| n.memory_footprint().total_bytes())
            .sum();
        l.set("network.footprint_mib", footprint as f64 / (1u64 << 20) as f64);
        l.set("engine.build_s", self.build.as_secs_f64());
        l.set("engine.state_mib", self.state_bytes as f64 / (1u64 << 20) as f64);
        l.set("engine.reset_ms", ms(self.reset.sum()) / UNITS as f64);
        l.set("engine.collect_ns_per_node_slot", phases.collect_ns() as f64 / timed_node_slots);
        l.set("engine.resolve_ns_per_node_slot", phases.resolve_ns() as f64 / timed_node_slots);
        l.set("engine.deliver_ns_per_node_slot", phases.deliver_ns() as f64 / timed_node_slots);
        l.set("spectrum.advance_ns_per_slot", share(phases.spectrum_ns as f64, churn_slots));
        l.set("pool.collect_pooled_share", share(phases.collect_pooled_slots as f64, slots));
        l.set("pool.deliver_pooled_share", share(phases.deliver_pooled_slots as f64, slots));
        l.set("pool.resolve_sharded_share", share(phases.resolve_sharded_slots as f64, slots));
        l.set(
            "runner.probe_share",
            share(self.probe.as_secs_f64(), self.tracer.total("unit").as_secs_f64()),
        );
        // Trial times from the untraced campaign rounds: the phase timers'
        // clock reads cost a large share of a slot at this size.
        for name in [
            "runner.trial_ms.cseek",
            "runner.trial_ms.cseek_pu",
            "runner.trial_ms.cgcast",
            "runner.trial_ms.count",
        ] {
            let units: Vec<usize> =
                (0..UNITS).filter(|&u| trial_metric(u / TRIALS) == name).collect();
            let fastest: Duration = units.iter().map(|&u| untraced.unit(u)).sum();
            l.set(name, ms(fastest) / units.len() as f64);
        }
        let own = campaign_self.best(0).as_secs_f64();
        l.set("campaign.self_share", share(own, own + untraced.sum().as_secs_f64()));
        counter_ratios(&mut l, &all);
        l.set(
            "trace.overhead_share",
            self.units.as_ref().map_or(0.0, |t| t.sum().as_secs_f64())
                / untraced.sum().as_secs_f64()
                - 1.0,
        );
        crate::write_spans(&self.tracer, "paper_sweep", args.seed, report);
        l.finish("paper_sweep", report);
    }
}

/// What one traced unit records into.
struct TraceCtx<'t> {
    tracer: &'t mut Tracer,
    reset: &'t mut Fastest,
    probe: &'t mut Duration,
    laps: Laps,
    round: u64,
    unit: usize,
}

impl TraceCtx<'_> {
    /// One unit on the traced path: `Engine::reset`, `set_spectrum` and
    /// `run` with the probe `EngineCell::run_trial` uses, inside spans.
    fn trial<'net, P>(
        &mut self,
        eng: &mut Engine<'net, P>,
        make: impl FnMut(NodeCtx) -> P,
        seed: u64,
        max_slots: u64,
        opts: &TrialOpts,
        mut done: impl FnMut(&Engine<'net, P>) -> bool,
    ) -> Trial
    where
        P: Protocol + Send,
        P::Message: Send + Sync,
    {
        let span = self.tracer.enter("engine.reset", self.round);
        let t = Instant::now();
        eng.reset(seed, make);
        self.reset.record(self.unit, t.elapsed());
        self.tracer.exit(span);
        eng.set_spectrum(opts.spectrum.clone().unwrap_or(SpectrumDynamics::Static));
        if let Some(sp) = eng.spectrum_mut() {
            sp.set_record_history(false);
        }
        let span = self.tracer.enter("engine.run", self.round);
        let mut probe_time = Duration::ZERO;
        let laps = &mut self.laps;
        let mut probe = |slot: u64, e: &Engine<'net, P>| {
            laps.at(slot);
            let t = Instant::now();
            let hit = done(e);
            probe_time += t.elapsed();
            hit
        };
        let outcome = eng.run(max_slots, Some((PROBE_EVERY, &mut probe)));
        self.tracer.record("runner.probe", self.round, probe_time);
        self.tracer.exit(span);
        *self.probe += probe_time;
        Trial {
            seed: eng.seed(),
            completed_at: outcome.completed_at,
            slots_run: outcome.slots_run,
            counters: eng.counters(),
        }
    }
}

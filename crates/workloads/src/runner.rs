//! Multi-trial experiment runners.
//!
//! A *trial* runs one protocol on one network with one RNG seed and records
//! the time-to-completion against ground truth (via an engine probe) plus
//! the engine counters. Trials are embarrassingly parallel and run on
//! `std::thread` scoped workers — and each worker owns **one long-lived
//! engine**, re-armed per trial through [`Engine::reset`] rather than
//! rebuilt per trial, so translation tables, flat action buckets, shard
//! scratch, and (for sharded execution modes) the persistent worker pool
//! all stay warm across the thousands of trials an experiment sweep runs.
//! A reset engine is observationally indistinguishable from a fresh one
//! (enforced by the engine's reuse regression test and by
//! `reused_engines_match_fresh_engines_per_trial` below), so reuse never
//! changes a single `Trial`.

use crn_core::baselines::NaiveBroadcast;
use crn_core::cgcast::CGCast;
use crn_core::discovery::{all_discovered, all_good_discovered, DiscoveryProtocol};
use crn_sim::{Counters, Engine, Network, NodeCtx, NodeId, Protocol, Resolver, SpectrumDynamics};

/// How each trial's engine executes: the slot resolution strategy, including
/// the number of threads each slot runs on when a parallel engine is wanted.
///
/// Trials themselves are already run in parallel (one engine per worker), so
/// the default is a sequential engine — [`EngineExec::sharded`] is for the
/// opposite regime: few/huge runs where a *single* engine must use many
/// cores. On a network of at least 2048 nodes a sharded trial engine splits
/// every phase of every slot across a persistent worker pool
/// ([`crn_sim::pool::WorkerPool`]): the workers are spawned on the first
/// slot of the trial, stay parked between slots, and are torn down with the
/// engine — so even many-slot trials pay thread setup once, not per slot.
/// On a smaller network it runs sequentially and never spawns the pool.
/// Every execution mode is observationally identical (enforced by the
/// engine's differential tests), so this knob never changes results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineExec {
    /// The resolution strategy trials run with.
    pub resolver: Resolver,
}

impl Default for EngineExec {
    fn default() -> Self {
        EngineExec::sequential()
    }
}

impl EngineExec {
    /// Sequential engine with the adaptive per-channel resolver.
    pub fn sequential() -> EngineExec {
        EngineExec { resolver: Resolver::Auto }
    }

    /// Parallel engine: on networks of at least 2048 nodes, every phase of
    /// every slot runs on the trial thread plus `threads − 1` persistent
    /// pool workers; below that size it runs sequentially, exactly like
    /// [`EngineExec::sequential`].
    pub fn sharded(threads: usize) -> EngineExec {
        EngineExec { resolver: Resolver::sharded(threads) }
    }

    /// [`EngineExec::sharded`] at the machine's available parallelism —
    /// the right call for a single huge run on an otherwise idle host
    /// (below 2048 nodes it runs sequentially, like any sharded engine).
    /// Safe to use anywhere: results never depend on the thread count.
    pub fn sharded_auto() -> EngineExec {
        EngineExec::sharded(std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1))
    }
}

/// Full execution options for the stateful trial runners: the engine
/// execution mode plus an optional primary-user spectrum process installed
/// in every trial engine. Spectrum draws are keyed by `(trial seed, slot,
/// channel)`, so — like the resolver knob — engine reuse, worker count, and
/// claim order never change a single [`Trial`].
#[derive(Debug, Clone, Default)]
pub struct TrialOpts {
    /// The resolution strategy trial engines run with.
    pub exec: EngineExec,
    /// Primary-user dynamics installed per engine (`None` ≡
    /// [`SpectrumDynamics::Static`], i.e. a clean spectrum). Installed
    /// with per-slot history recording off: the runners read only
    /// [`Counters`] aggregates, so the busy log would be pure allocation
    /// overhead across a sweep's thousands of trial slots.
    pub spectrum: Option<SpectrumDynamics>,
}

impl TrialOpts {
    /// Options with `dynamics` installed (and the default sequential
    /// engine — trials themselves already run in parallel).
    pub fn with_spectrum(dynamics: SpectrumDynamics) -> TrialOpts {
        TrialOpts { exec: EngineExec::default(), spectrum: Some(dynamics) }
    }
}

/// Result of one trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trial {
    /// The trial's engine seed.
    pub seed: u64,
    /// First probed slot at which the ground-truth success condition held.
    pub completed_at: Option<u64>,
    /// Slots the run executed (the protocol's full schedule unless the
    /// probe fired earlier).
    pub slots_run: u64,
    /// Engine counters at the end of the run.
    pub counters: Counters,
}

impl Trial {
    /// `true` if the success condition was ever reached.
    pub fn succeeded(&self) -> bool {
        self.completed_at.is_some()
    }
}

/// How often (in slots) probes evaluate ground truth. Coarse enough to be
/// cheap, fine enough for timing resolution.
pub const PROBE_EVERY: u64 = 8;

/// Stateless [`run_parallel_stateful`] with an explicit worker count —
/// kept for the thread-count-independence regression test.
#[cfg(test)]
pub(crate) fn run_parallel_with_threads<T: Send>(
    threads: usize,
    trials: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    run_parallel_stateful(threads, trials, || (), |(), i| f(i))
}

/// The work-stealing core with **per-worker state**: `trials` closure
/// invocations distributed over scoped workers by an atomic claim counter
/// (each worker repeatedly claims the next unclaimed index, so a straggler
/// trial cannot leave the other workers idle the way fixed stripes can),
/// where each spawned worker calls `init()` once (on its own thread) and
/// threads the resulting state through every trial it claims. The state is
/// what lets the trial runners keep one long-lived [`Engine`] per worker —
/// `init` returns a lazily-filled engine slot, and `f` re-arms it with
/// [`Engine::reset`] per trial.
///
/// Results remain a pure function of the trial index: state is only a
/// cache of observationally-invisible structure (a reset engine ≡ a fresh
/// engine), so claim order, worker count, and which worker runs which
/// trial never affect the output (see
/// `trial_results_are_independent_of_thread_count` and
/// `reused_engines_match_fresh_engines_per_trial`).
pub(crate) fn run_parallel_stateful<T: Send, S>(
    threads: usize,
    trials: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let threads = threads.clamp(1, trials.max(1));
    let (init, f) = (&init, &f);
    let next = AtomicUsize::new(0);
    let next = &next;
    let mut results: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut state = init();
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= trials {
                            break;
                        }
                        local.push((i, f(&mut state, i)));
                    }
                    local
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("trial thread panicked")).collect()
    });
    results.sort_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, r)| r).collect()
}

/// One worker's lazily-created, reusable trial engine: the
/// create-or-[`Engine::reset`] idiom the stateful runners use, packaged so
/// campaign arms (which schedule one trial per unit rather than a whole
/// sweep per call) get the same engine reuse. Hold one cell per (worker,
/// network) pair — a cell's engine is bound to the network of its first
/// trial.
pub struct EngineCell<'net, P: Protocol> {
    eng: Option<Engine<'net, P>>,
}

impl<'net, P: Protocol> Default for EngineCell<'net, P> {
    fn default() -> Self {
        EngineCell::new()
    }
}

impl<'net, P: Protocol> EngineCell<'net, P> {
    /// An empty cell; the engine is built on the first trial.
    pub fn new() -> Self {
        EngineCell { eng: None }
    }

    /// Runs one trial at `seed` on `net`, reusing the cell's engine when
    /// present (re-armed via [`Engine::reset`] — observationally identical
    /// to a fresh engine) and installing `opts`' spectrum dynamics. The
    /// probe is evaluated every [`PROBE_EVERY`] slots; pass
    /// `|_, _| false` to run the full schedule.
    ///
    /// # Panics
    /// Panics if called with a different `net` than the cell's first trial
    /// (an engine is bound to its network).
    pub fn run_trial(
        &mut self,
        net: &'net Network,
        make: impl FnMut(NodeCtx) -> P,
        seed: u64,
        max_slots: u64,
        opts: &TrialOpts,
        mut probe: impl FnMut(u64, &Engine<'net, P>) -> bool,
    ) -> Trial
    where
        P: Send,
        P::Message: Send + Sync,
    {
        let eng = match &mut self.eng {
            Some(eng) => {
                assert!(
                    std::ptr::eq(eng.network(), net),
                    "EngineCell reused across different networks"
                );
                eng.reset(seed, make);
                eng
            }
            None => self.eng.insert(Engine::with_resolver(net, seed, opts.exec.resolver, make)),
        };
        // (Re-)install the spectrum process every trial: campaign arms may
        // run sweep points with different dynamics through one cell, and
        // `None` must uninstall a predecessor's process. Draws are keyed
        // by (seed, slot, channel), so installation order can never change
        // results.
        eng.set_spectrum(opts.spectrum.clone().unwrap_or(SpectrumDynamics::Static));
        if let Some(sp) = eng.spectrum_mut() {
            sp.set_record_history(false);
        }
        let mut probe_dyn = |s: u64, e: &Engine<'net, P>| probe(s, e);
        let outcome = eng.run(max_slots, Some((PROBE_EVERY, &mut probe_dyn)));
        Trial {
            seed: eng.seed(),
            completed_at: outcome.completed_at,
            slots_run: outcome.slots_run,
            counters: eng.counters(),
        }
    }
}

/// The fully-general stateful trial driver: `trials` runs of the protocol
/// built by `make` on `net`, each seeded by `seed_of(trial index)`, capped
/// at `max_slots`, probed every [`PROBE_EVERY`] slots with `probe`, and
/// executed under `opts` (engine mode + optional spectrum dynamics). Each
/// worker lazily constructs **one** engine on its first claimed trial and
/// re-arms it with [`Engine::reset`] for every later one — engine setup
/// (translation table, buckets, shard scratch, pool threads under
/// [`EngineExec::sharded`]) is paid once per worker, not once per trial.
///
/// Results are a pure function of the trial index — worker count, claim
/// order, and engine reuse never change a [`Trial`].
pub fn stateful_trials<P, F, Pr>(
    net: &Network,
    make: F,
    trials: usize,
    seed_of: impl Fn(usize) -> u64 + Sync,
    max_slots: u64,
    opts: &TrialOpts,
    probe: Pr,
) -> Vec<Trial>
where
    P: Protocol + Send,
    P::Message: Send + Sync,
    F: Fn(NodeCtx) -> P + Sync,
    Pr: Fn(u64, &Engine<'_, P>) -> bool + Sync,
{
    run_parallel_stateful(
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4).min(trials.max(1)),
        trials,
        EngineCell::new,
        |cell, i| cell.run_trial(net, &make, seed_of(i), max_slots, opts, |s, e| probe(s, e)),
    )
}

/// The shared trial driver for consecutive seeds `base_seed + i` on a
/// clean spectrum — see [`stateful_trials`].
fn engine_trials<P, F, Pr>(
    net: &Network,
    make: F,
    trials: usize,
    base_seed: u64,
    max_slots: u64,
    exec: EngineExec,
    probe: Pr,
) -> Vec<Trial>
where
    P: Protocol + Send,
    P::Message: Send + Sync,
    F: Fn(NodeCtx) -> P + Sync,
    Pr: Fn(u64, &Engine<'_, P>) -> bool + Sync,
{
    let opts = TrialOpts { exec, spectrum: None };
    stateful_trials(
        net,
        make,
        trials,
        |i| base_seed.wrapping_add(i as u64),
        max_slots,
        &opts,
        probe,
    )
}

/// Runs `trials` discovery trials of protocol `make` on `net`, probing for
/// full neighbor-discovery completion. `max_slots` caps each run (pass the
/// schedule length).
pub fn discovery_trials<P, F>(
    net: &Network,
    make: F,
    trials: usize,
    base_seed: u64,
    max_slots: u64,
) -> Vec<Trial>
where
    P: DiscoveryProtocol + Send,
    P::Message: Send + Sync,
    F: Fn(NodeCtx) -> P + Sync,
{
    discovery_trials_exec(net, make, trials, base_seed, max_slots, EngineExec::default())
}

/// [`discovery_trials`] with an explicit engine execution mode (the
/// engine-threads knob: pass [`EngineExec::sharded`] to split each slot of
/// a large network across a thread pool inside every trial).
pub fn discovery_trials_exec<P, F>(
    net: &Network,
    make: F,
    trials: usize,
    base_seed: u64,
    max_slots: u64,
    exec: EngineExec,
) -> Vec<Trial>
where
    P: DiscoveryProtocol + Send,
    P::Message: Send + Sync,
    F: Fn(NodeCtx) -> P + Sync,
{
    engine_trials(net, make, trials, base_seed, max_slots, exec, |_s, e| all_discovered(net, e))
}

/// Like [`discovery_trials`] but probing the k̂-neighbor-discovery success
/// condition (all `khat`-good neighbors found).
pub fn khat_discovery_trials<P, F>(
    net: &Network,
    make: F,
    khat: usize,
    trials: usize,
    base_seed: u64,
    max_slots: u64,
) -> Vec<Trial>
where
    P: DiscoveryProtocol + Send,
    P::Message: Send + Sync,
    F: Fn(NodeCtx) -> P + Sync,
{
    khat_discovery_trials_exec(net, make, khat, trials, base_seed, max_slots, EngineExec::default())
}

/// [`khat_discovery_trials`] with an explicit engine execution mode
/// (identity-tested against the default path: the knob never changes
/// results).
#[allow(clippy::too_many_arguments)]
pub fn khat_discovery_trials_exec<P, F>(
    net: &Network,
    make: F,
    khat: usize,
    trials: usize,
    base_seed: u64,
    max_slots: u64,
    exec: EngineExec,
) -> Vec<Trial>
where
    P: DiscoveryProtocol + Send,
    P::Message: Send + Sync,
    F: Fn(NodeCtx) -> P + Sync,
{
    engine_trials(net, make, trials, base_seed, max_slots, exec, |_s, e| {
        all_good_discovered(net, e, khat)
    })
}

/// Runs CGCAST broadcast trials (source = node 0), probing for all nodes
/// informed. Returns per-trial results.
pub fn cgcast_trials(
    net: &Network,
    sched: crn_core::params::GcastSchedule,
    trials: usize,
    base_seed: u64,
) -> Vec<Trial> {
    cgcast_trials_exec(net, sched, trials, base_seed, EngineExec::default())
}

/// [`cgcast_trials`] with an explicit engine execution mode.
pub fn cgcast_trials_exec(
    net: &Network,
    sched: crn_core::params::GcastSchedule,
    trials: usize,
    base_seed: u64,
    exec: EngineExec,
) -> Vec<Trial> {
    let make = |ctx: NodeCtx| CGCast::new(ctx.id, sched, (ctx.id == NodeId(0)).then_some(0xBEEF));
    engine_trials(net, make, trials, base_seed, sched.total_slots(), exec, |_s, e| {
        let mut all = true;
        e.for_each_protocol(|_, p: &CGCast| all &= p.is_informed());
        all
    })
}

/// Runs naive-broadcast trials (source = node 0), probing for all informed.
pub fn naive_broadcast_trials(
    net: &Network,
    c: u16,
    max_slots: u64,
    trials: usize,
    base_seed: u64,
) -> Vec<Trial> {
    naive_broadcast_trials_exec(net, c, max_slots, trials, base_seed, EngineExec::default())
}

/// [`naive_broadcast_trials`] with an explicit engine execution mode
/// (identity-tested against the default path).
pub fn naive_broadcast_trials_exec(
    net: &Network,
    c: u16,
    max_slots: u64,
    trials: usize,
    base_seed: u64,
    exec: EngineExec,
) -> Vec<Trial> {
    let make = |ctx: NodeCtx| {
        NaiveBroadcast::new(ctx.id, c, max_slots, (ctx.id == NodeId(0)).then_some(0xBEEF))
    };
    engine_trials(net, make, trials, base_seed, max_slots, exec, |_s, e| {
        let mut all = true;
        e.for_each_protocol(|_, p: &NaiveBroadcast| all &= p.is_informed());
        all
    })
}

/// Mean completion time of successful trials, and the success fraction.
pub fn summarize_trials(trials: &[Trial]) -> (Option<f64>, f64) {
    let times: Vec<f64> = trials.iter().filter_map(|t| t.completed_at).map(|t| t as f64).collect();
    let frac = times.len() as f64 / trials.len().max(1) as f64;
    let mean =
        if times.is_empty() { None } else { Some(times.iter().sum::<f64>() / times.len() as f64) };
    (mean, frac)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use crn_core::params::SeekParams;
    use crn_core::seek::CSeek;
    use crn_sim::channels::ChannelModel;
    use crn_sim::topology::Topology;

    #[test]
    fn discovery_trials_complete_and_are_deterministic() {
        let built = Scenario::new(
            "t",
            Topology::Path { n: 4 },
            ChannelModel::SharedCore { c: 3, core: 2 },
            1,
        )
        .build()
        .unwrap();
        let sched = SeekParams::default().schedule(&built.model);
        let run = || {
            discovery_trials(
                &built.net,
                |ctx| CSeek::new(ctx.id, sched, false),
                4,
                77,
                sched.total_slots(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seeds, same results — even across thread pools");
        assert!(a.iter().all(Trial::succeeded));
        let (mean, frac) = summarize_trials(&a);
        assert_eq!(frac, 1.0);
        assert!(mean.unwrap() > 0.0);
    }

    #[test]
    fn trial_results_are_independent_of_thread_count() {
        // The work-stealing claim order varies with the worker count and
        // scheduling, but trial outputs are a pure function of the trial
        // index — so any thread count must produce byte-identical results.
        let built = Scenario::new(
            "threads",
            Topology::Cycle { n: 6 },
            ChannelModel::SharedCore { c: 3, core: 2 },
            9,
        )
        .build()
        .unwrap();
        let sched = SeekParams::default().schedule(&built.model);
        let run = |threads: usize| {
            run_parallel_with_threads(threads, 7, |i| {
                let seed = 1000u64.wrapping_add(i as u64);
                let mut eng =
                    Engine::new(&built.net, seed, |ctx: NodeCtx| CSeek::new(ctx.id, sched, false));
                let outcome = eng.run(sched.total_slots(), None);
                (outcome.slots_run, eng.counters())
            })
        };
        let single = run(1);
        for threads in [2, 3, 8, 32] {
            assert_eq!(run(threads), single, "{threads} threads diverge from 1");
        }
    }

    #[test]
    fn sharded_engine_exec_matches_sequential_trials() {
        // The engine-threads knob changes only how phase-2 work is
        // scheduled; every trial statistic must be byte-identical.
        let built = Scenario::new(
            "exec",
            Topology::RandomGeometric { n: 24, radius: 0.45 },
            ChannelModel::SharedCore { c: 3, core: 2 },
            4,
        )
        .build()
        .unwrap();
        let sched = SeekParams::default().schedule(&built.model);
        let run = |exec: EngineExec| {
            discovery_trials_exec(
                &built.net,
                |ctx| CSeek::new(ctx.id, sched, false),
                4,
                55,
                sched.total_slots(),
                exec,
            )
        };
        let sequential = run(EngineExec::sequential());
        for threads in [2usize, 4] {
            assert_eq!(
                run(EngineExec::sharded(threads)),
                sequential,
                "sharded engine ({threads} threads) diverges from sequential"
            );
        }
    }

    /// Reference implementation: one *fresh* engine per trial, no reuse —
    /// the ground truth the engine-reuse runners must reproduce exactly.
    fn fresh_engine_trials<P, F, Pr>(
        net: &crn_sim::Network,
        make: F,
        trials: usize,
        base_seed: u64,
        max_slots: u64,
        exec: EngineExec,
        probe: Pr,
    ) -> Vec<Trial>
    where
        P: crn_sim::Protocol + Send,
        P::Message: Send + Sync,
        F: Fn(NodeCtx) -> P + Sync,
        Pr: Fn(u64, &Engine<'_, P>) -> bool + Sync,
    {
        run_parallel_with_threads(4, trials, |i| {
            let seed = base_seed.wrapping_add(i as u64);
            let mut eng = Engine::with_resolver(net, seed, exec.resolver, &make);
            let mut probe = |s: u64, e: &Engine<'_, P>| probe(s, e);
            let outcome = eng.run(max_slots, Some((PROBE_EVERY, &mut probe)));
            Trial {
                seed,
                completed_at: outcome.completed_at,
                slots_run: outcome.slots_run,
                counters: eng.counters(),
            }
        })
    }

    #[test]
    fn reused_engines_match_fresh_engines_per_trial() {
        // The runners keep one engine per worker and re-arm it with
        // `Engine::reset`; every `Trial` must be byte-identical to what a
        // fresh engine per trial produces — for sequential *and* sharded
        // execution (where the persistent pool survives across trials).
        let built = Scenario::new(
            "reuse",
            Topology::RandomGeometric { n: 20, radius: 0.5 },
            ChannelModel::SharedCore { c: 3, core: 2 },
            11,
        )
        .build()
        .unwrap();
        let sched = SeekParams::default().schedule(&built.model);
        let make = |ctx: NodeCtx| CSeek::new(ctx.id, sched, false);
        for exec in [EngineExec::sequential(), EngineExec::sharded(2)] {
            let fresh = fresh_engine_trials(
                &built.net,
                make,
                9,
                321,
                sched.total_slots(),
                exec,
                |_s, e| all_discovered(&built.net, e),
            );
            let reused = discovery_trials_exec(&built.net, make, 9, 321, sched.total_slots(), exec);
            assert_eq!(reused, fresh, "engine reuse changed trial results ({exec:?})");
        }
    }

    #[test]
    fn khat_exec_variant_matches_default_path() {
        let built = Scenario::new(
            "khat-exec",
            Topology::Grid { rows: 3, cols: 3 },
            ChannelModel::GroupOverlay { c: 5, k: 2, kmax: 3, groups: 2 },
            7,
        )
        .build()
        .unwrap();
        let sched = SeekParams::default().schedule(&built.model);
        let make = |ctx: NodeCtx| CSeek::new(ctx.id, sched, false);
        let khat = 2;
        let default = khat_discovery_trials(&built.net, make, khat, 5, 99, sched.total_slots());
        for exec in [EngineExec::sequential(), EngineExec::sharded(2)] {
            let via_exec = khat_discovery_trials_exec(
                &built.net,
                make,
                khat,
                5,
                99,
                sched.total_slots(),
                exec,
            );
            assert_eq!(via_exec, default, "khat exec knob changed results ({exec:?})");
        }
    }

    #[test]
    fn naive_broadcast_exec_variant_matches_default_path() {
        let built = Scenario::new(
            "naive-exec",
            Topology::Path { n: 6 },
            ChannelModel::SharedCore { c: 3, core: 2 },
            3,
        )
        .build()
        .unwrap();
        let c = built.net.channels_per_node() as u16;
        let default = naive_broadcast_trials(&built.net, c, 256, 5, 17);
        assert!(default.iter().any(Trial::succeeded), "scenario must exercise deliveries");
        for exec in [EngineExec::sequential(), EngineExec::sharded(2)] {
            let via_exec = naive_broadcast_trials_exec(&built.net, c, 256, 5, 17, exec);
            assert_eq!(via_exec, default, "naive-broadcast exec knob changed results ({exec:?})");
        }
    }

    #[test]
    fn summarize_handles_failures() {
        let t = Trial { seed: 0, completed_at: None, slots_run: 10, counters: Counters::default() };
        let (mean, frac) = summarize_trials(&[t]);
        assert_eq!(mean, None);
        assert_eq!(frac, 0.0);
    }
}

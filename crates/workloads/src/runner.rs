//! The trial: one protocol run on one network with one RNG seed, timed
//! against ground truth.
//!
//! A [`Trial`] records the first probed slot at which a success condition
//! held (the probe runs every [`PROBE_EVERY`] slots) plus the engine
//! counters. Every trial sweep of the experiment suite runs as a campaign
//! (see [`crate::experiments::campaigns`]): the campaign runner schedules
//! one trial per unit over `run_parallel_stateful`'s work-stealing
//! workers, and each worker keeps one [`EngineCell`] per arm — **one
//! long-lived engine**, re-armed per trial through [`Engine::reset`]
//! rather than rebuilt, so translation tables, flat action buckets and
//! shard scratch stay warm across a sweep's thousands of trials. A reset
//! engine is observationally indistinguishable from a fresh one (enforced
//! by the engine's reuse regression test and by
//! `reused_engines_match_fresh_engines_per_trial` below), so reuse never
//! changes a single `Trial`.

use crn_sim::{Counters, Engine, Network, NodeCtx, Protocol, SpectrumDynamics};

/// Per-trial options: an optional primary-user spectrum process installed
/// in the trial engine. Spectrum draws are keyed by `(trial seed, slot,
/// channel)`, so engine reuse, worker count and claim order never change
/// a single [`Trial`].
#[derive(Debug, Clone, Default)]
pub struct TrialOpts {
    /// Primary-user dynamics installed per engine (`None` ≡
    /// [`SpectrumDynamics::Static`], i.e. a clean spectrum). Installed
    /// with per-slot history recording off: trials read only
    /// [`Counters`] aggregates, so the busy log would be pure allocation
    /// overhead across a sweep's thousands of trial slots.
    pub spectrum: Option<SpectrumDynamics>,
}

impl TrialOpts {
    /// Options with `dynamics` installed.
    pub fn with_spectrum(dynamics: SpectrumDynamics) -> TrialOpts {
        TrialOpts { spectrum: Some(dynamics) }
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

/// The work-stealing core with **per-worker state**: `trials` closure
/// invocations distributed over scoped workers by an atomic claim counter
/// (each worker repeatedly claims the next unclaimed index, so a straggler
/// trial cannot leave the other workers idle the way fixed stripes can),
/// where each spawned worker calls `init()` once (on its own thread) and
/// threads the resulting state through every trial it claims. The state is
/// what lets campaign workers keep long-lived engines — `init` returns
/// empty [`EngineCell`]s, and `f` re-arms one with [`Engine::reset`] per
/// trial.
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
/// create-or-[`Engine::reset`] idiom, packaged so campaign arms (which
/// schedule one trial per unit) reuse one engine across the trials a
/// worker claims. Hold one cell per (worker, network) pair — a cell's
/// engine is bound to the network of its first trial. The engine is
/// [`Engine::new`]'s, with the adaptive [`crn_sim::Resolver::Auto`]
/// resolver: trials already run in parallel, one per worker.
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
            None => self.eng.insert(Engine::new(net, seed, make)),
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

/// The per-trial mean of one engine counter (integer division; 0 for no
/// trials).
pub(crate) fn counter_mean(trials: &[Trial], counter: fn(&Counters) -> u64) -> u64 {
    trials.iter().map(|t| counter(&t.counters)).sum::<u64>() / trials.len().max(1) as u64
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
pub(crate) use tests::fresh_engine_trials;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use crn_core::discovery::all_discovered;
    use crn_core::params::{SeekParams, SeekSchedule};
    use crn_core::seek::CSeek;
    use crn_sim::channels::ChannelModel;
    use crn_sim::topology::Topology;

    /// Stateless [`run_parallel_stateful`] with an explicit worker count.
    fn run_parallel_with_threads<T: Send>(
        threads: usize,
        trials: usize,
        f: impl Fn(usize) -> T + Sync,
    ) -> Vec<T> {
        run_parallel_stateful(threads, trials, || (), |(), i| f(i))
    }

    /// `trials` CSEEK discovery trials at seeds `base_seed + i`, each
    /// worker reusing one [`EngineCell`] — the path campaign units take.
    fn reused_engine_trials(
        net: &Network,
        sched: SeekSchedule,
        trials: usize,
        base_seed: u64,
    ) -> Vec<Trial> {
        run_parallel_stateful(4, trials, EngineCell::new, |cell, i| {
            cell.run_trial(
                net,
                |ctx| CSeek::new(ctx.id, sched, false),
                base_seed.wrapping_add(i as u64),
                sched.total_slots(),
                &TrialOpts::default(),
                |_s, e| all_discovered(net, e),
            )
        })
    }

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
        let run = || reused_engine_trials(&built.net, sched, 4, 77);
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

    /// Reference implementation: one *fresh* engine per trial at seeds
    /// `base_seed + i`, no reuse — the ground truth engine reuse (here and
    /// in campaign units) must reproduce exactly.
    pub(crate) fn fresh_engine_trials<P, F, Pr>(
        net: &Network,
        make: F,
        trials: usize,
        base_seed: u64,
        max_slots: u64,
        probe: Pr,
    ) -> Vec<Trial>
    where
        P: Protocol + Send,
        P::Message: Send + Sync,
        F: Fn(NodeCtx) -> P + Sync,
        Pr: Fn(u64, &Engine<'_, P>) -> bool + Sync,
    {
        run_parallel_with_threads(4, trials, |i| {
            let seed = base_seed.wrapping_add(i as u64);
            let mut eng = Engine::new(net, seed, &make);
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
        // Workers keep one engine per cell and re-arm it with
        // `Engine::reset`; every `Trial` must be byte-identical to what a
        // fresh engine per trial produces.
        let built = Scenario::new(
            "reuse",
            Topology::RandomGeometric { n: 20, radius: 0.5 },
            ChannelModel::SharedCore { c: 3, core: 2 },
            11,
        )
        .build()
        .unwrap();
        let sched = SeekParams::default().schedule(&built.model);
        let fresh = fresh_engine_trials(
            &built.net,
            |ctx| CSeek::new(ctx.id, sched, false),
            9,
            321,
            sched.total_slots(),
            |_s, e| all_discovered(&built.net, e),
        );
        let reused = reused_engine_trials(&built.net, sched, 9, 321);
        assert_eq!(reused, fresh, "engine reuse changed trial results");
    }

    #[test]
    fn summarize_handles_failures() {
        let t = Trial { seed: 0, completed_at: None, slots_run: 10, counters: Counters::default() };
        let (mean, frac) = summarize_trials(&[t]);
        assert_eq!(mean, None);
        assert_eq!(frac, 0.0);
    }
}

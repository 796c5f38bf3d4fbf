//! Every trial sweep of the experiment suite, as a registered campaign
//! kind.
//!
//! A kind is one declarative [`CampaignKind`] value: its [`CampaignSpec`]
//! (one arm per sweep point, one unit per trial), its observed runner and
//! its table renderer. Each experiment module describes its sweep once as
//! a `Sweep` — a set-up (scenarios and schedules) that the runner and
//! the renderer share, and the trial one unit runs over a per-worker
//! [`EngineCell`] — and [`REGISTRY`] turns each sweep into a kind. Every
//! sweep thereby gets what the campaign layer owns: an append-only
//! journal with exact checkpoint/resume, retry/backoff, per-arm circuit
//! breakers, progress and cancel. Unit outputs stay a pure function of
//! `(arm, trial)`, because each arm keeps its experiment's seed formula
//! and engine reuse is observationally invisible.
//!
//! [`super::run_experiment`] runs a kind in memory (`journal = None`,
//! [`FaultPlan::none`]) and renders its tables; the campaign server runs
//! the same kinds by name, journaled.

use super::{ablation::A1, ExpConfig};
use super::{compare, cseek_scaling, gcast, kseek, robustness, spectrum, tree};
use crate::campaign::{
    run_campaign_observed, ArmResult, CampaignError, CampaignObserver, CampaignReport,
    CampaignSpec, FaultPlan, Unit,
};
use crate::runner::{EngineCell, Trial, TrialOpts};
use crate::table::Table;
use crn_core::adversary::NodeRole;
use crn_core::discovery::{all_discovered, DiscoveryProtocol};
use crn_core::seek::CSeek;
use crn_sim::{Engine, Network, NodeCtx, NodeId, Protocol};
use std::path::Path;

/// Default wave parallelism: the machine's available parallelism (never
/// affects results — only wall-clock).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4)
}

/// One trial sweep: the set-up a kind's runner and table renderer share,
/// and the trial each campaign unit runs.
pub(super) trait Sweep: Sync + Sized {
    /// A worker's engine cells (per arm, or per protocol), borrowing the
    /// set-up's networks.
    type Cells<'s>: Default
    where
        Self: 's;
    /// The campaign spec. Arm (or campaign) names carry everything quick
    /// mode changes, so quick and full runs never share a journal.
    fn spec(cfg: &ExpConfig) -> CampaignSpec;
    /// Builds the sweep's scenarios and schedules.
    fn setup(cfg: &ExpConfig) -> Self;
    /// Runs trial `trial` of arm `arm`.
    fn trial<'s>(&'s self, cells: &mut Self::Cells<'s>, arm: usize, trial: usize) -> Trial;
    /// Renders the experiment's tables from a finished report.
    fn tables(&self, report: &CampaignReport) -> Vec<Table>;
}

/// One engine cell per arm, built on the arm's first trial on a worker.
pub(super) type ArmCells<'s, P> = Vec<EngineCell<'s, P>>;

/// The engine cell of `arm`, created on the arm's first trial here.
pub(super) fn arm_cell<'c, 's, P: Protocol>(
    cells: &'c mut ArmCells<'s, P>,
    arm: usize,
) -> &'c mut EngineCell<'s, P> {
    if cells.len() <= arm {
        cells.resize_with(arm + 1, EngineCell::new);
    }
    &mut cells[arm]
}

/// One worker's state for any kind: the sweep and the worker's cells.
/// The campaign runner sees every kind's workers as this one object type,
/// so it is compiled once rather than once per kind. Every binary that
/// links the registry (the server, perfbench) then holds one copy of the
/// runner loop, and such a small process's peak RSS is mostly its code.
trait Worker {
    fn trial(&mut self, unit: &Unit) -> Trial;
}

impl<'s, K: Sweep + 's> Worker for (&'s K, K::Cells<'s>) {
    fn trial(&mut self, unit: &Unit) -> Trial {
        self.0.trial(&mut self.1, unit.arm, unit.trial)
    }
}

fn run_sweep<K: Sweep>(
    cfg: &ExpConfig,
    threads: usize,
    journal: Option<&Path>,
    fault: &FaultPlan,
    observer: &dyn CampaignObserver,
) -> Result<CampaignReport, CampaignError> {
    let sweep = K::setup(cfg);
    let worker = || Box::new((&sweep, K::Cells::default())) as Box<dyn Worker + '_>;
    run_workers(&K::spec(cfg), threads, journal, fault, observer, &worker)
}

fn run_workers<'s>(
    spec: &CampaignSpec,
    threads: usize,
    journal: Option<&Path>,
    fault: &FaultPlan,
    observer: &dyn CampaignObserver,
    worker: &(dyn Fn() -> Box<dyn Worker + 's> + Sync),
) -> Result<CampaignReport, CampaignError> {
    run_campaign_observed(spec, threads, journal, fault, observer, worker, |w, unit| {
        ArmResult::Done { output: w.trial(unit) }
    })
}

fn render<K: Sweep>(cfg: &ExpConfig, report: &CampaignReport) -> Vec<Table> {
    K::setup(cfg).tables(report)
}

/// One discovery trial on a clean spectrum: success when every node has
/// discovered all its neighbors.
pub(super) fn discovery_trial<'s, P>(
    cell: &mut EngineCell<'s, P>,
    net: &'s Network,
    make: impl FnMut(NodeCtx) -> P,
    seed: u64,
    max_slots: u64,
) -> Trial
where
    P: DiscoveryProtocol + Send,
    P::Message: Send + Sync,
{
    cell.run_trial(net, make, seed, max_slots, &TrialOpts::default(), |_s, e| {
        all_discovered(net, e)
    })
}

/// Broadcast success: every node's protocol reports itself informed.
pub(super) fn all_informed<P: Protocol>(e: &Engine<'_, P>, informed: fn(&P) -> bool) -> bool {
    let mut all = true;
    e.for_each_protocol(|_, p| all &= informed(p));
    all
}

/// Discovery under attack: every honest node (ids `0..honest`) has
/// discovered every other honest node. Adversaries are no part of the
/// ground truth — they never identify themselves honestly.
pub(super) fn honest_discovered(e: &Engine<'_, NodeRole<CSeek>>, honest: usize) -> bool {
    let mut done = true;
    e.for_each_protocol(|v, p| {
        if let Some(cs) = p.honest() {
            let found = (0..honest)
                .filter(|&w| w != v.index() && cs.has_discovered(NodeId(w as u32)))
                .count();
            done &= found == honest - 1;
        }
    });
    done
}

/// The E2 campaign: one arm per swept `c`, `cfg.trials()` units each.
pub fn e2_spec(cfg: &ExpConfig) -> CampaignSpec {
    cseek_scaling::E2::spec(cfg)
}

/// Runs (or resumes, when `journal` names an existing file) the E2 sweep
/// as a campaign.
pub fn run_e2(
    cfg: &ExpConfig,
    threads: usize,
    journal: Option<&Path>,
    fault: &FaultPlan,
) -> Result<CampaignReport, CampaignError> {
    run_e2_observed(cfg, threads, journal, fault, &())
}

/// [`run_e2`] with a [`CampaignObserver`] attached (progress snapshots +
/// cooperative cancel).
pub fn run_e2_observed(
    cfg: &ExpConfig,
    threads: usize,
    journal: Option<&Path>,
    fault: &FaultPlan,
    observer: &dyn CampaignObserver,
) -> Result<CampaignReport, CampaignError> {
    run_sweep::<cseek_scaling::E2>(cfg, threads, journal, fault, observer)
}

/// One named campaign kind the server, the `experiments` binary (through
/// [`super::run_experiment`]) or any other front-end can run by name. All
/// fields are plain `fn` pointers — a kind carries no state, so the
/// registry is a `'static` table.
pub struct CampaignKind {
    /// Stable submission name (`"e2"`, `"e12"`, …).
    pub kind: &'static str,
    /// One-line description for listings.
    pub describe: &'static str,
    /// Builds the [`CampaignSpec`] a given config produces — the journal's
    /// config hash is derived from this, so equal submissions share a
    /// journal and resume each other.
    pub spec: fn(&ExpConfig) -> CampaignSpec,
    /// Runs (or resumes) the campaign with an observer attached.
    pub run: KindRunFn,
    /// Renders the experiment's tables from a finished report.
    pub tables: fn(&ExpConfig, &CampaignReport) -> Vec<Table>,
}

/// Signature of a [`CampaignKind`]'s observed runner: config, threads,
/// journal path, fault plan, observer.
pub type KindRunFn = fn(
    &ExpConfig,
    usize,
    Option<&Path>,
    &FaultPlan,
    &dyn CampaignObserver,
) -> Result<CampaignReport, CampaignError>;

const fn kind<K: Sweep>(kind: &'static str, describe: &'static str) -> CampaignKind {
    CampaignKind { kind, describe, spec: K::spec, run: run_sweep::<K>, tables: render::<K> }
}

/// Every campaign kind: each experiment whose units are [`Trial`]s.
///
/// A `static`, not a `const`: lookups compare table entries by address
/// (`find_kind` + the uniqueness test), so the table must have exactly
/// one instance rather than a fresh inlined copy per use site.
pub static REGISTRY: &[CampaignKind] = &[
    kind::<cseek_scaling::E2>("e2", "E2: CSEEK discovery completion time vs channel count"),
    kind::<cseek_scaling::E3>("e3", "E3: CSEEK discovery completion time vs core overlap k"),
    kind::<cseek_scaling::E4>(
        "e4",
        "E4: CSEEK discovery completion time vs degree on crowded stars",
    ),
    kind::<compare::E5>("e5", "E5/E5b: CSEEK vs naive and fixed-rate discovery across degree"),
    kind::<kseek::E6>("e6", "E6: CKSEEK vs CSEEK on k-hat-neighbor discovery"),
    kind::<gcast::E8>("e8", "E8: CGCAST vs naive broadcast across path diameters"),
    kind::<tree::E10>("e10", "E10: CGCAST on the channel-disjoint lower-bound tree"),
    kind::<spectrum::E12>("e12", "E12: CSEEK/CGCAST/COUNT success and slots vs PU duty cycle"),
    kind::<spectrum::E12b>("e12b", "E12b: CSEEK under PU churn plus a sweep jammer"),
    kind::<A1>("a1", "A1: CSEEK with vs without density-weighted listening"),
    kind::<robustness::R1>("r1", "R1: CSEEK under fixed-channel jammers"),
];

/// Looks a campaign kind up by its submission name.
pub fn find_kind(kind: &str) -> Option<&'static CampaignKind> {
    REGISTRY.iter().find(|k| k.kind == kind)
}

/// Runs `kind` in memory and renders its tables.
pub(super) fn run_tables(kind: &CampaignKind, cfg: &ExpConfig) -> Vec<Table> {
    let report = (kind.run)(cfg, default_threads(), None, &FaultPlan::none(), &())
        .expect("in-memory campaign cannot fail on journal I/O");
    (kind.tables)(cfg, &report)
}

/// The trials of one arm alone, at `trials` consecutive trial indices —
/// for tests that read a few arms of a sweep without paying for the rest.
#[cfg(test)]
pub(super) fn arm_trials<K: Sweep>(sweep: &K, arm: usize, trials: usize) -> Vec<Trial> {
    crate::runner::run_parallel_stateful(default_threads(), trials, Default::default, |cells, t| {
        sweep.trial(cells, arm, t)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{config_hash, CampaignOutcome};
    use crn_core::params::SeekParams;

    fn cfg() -> ExpConfig {
        ExpConfig { quick: true, trials: 2, seed: 31 }
    }

    #[test]
    fn e2_campaign_matches_plain_discovery_trials() {
        // The headline faithfulness check for the campaign path: units
        // that reuse one engine per arm and worker are bit-identical to a
        // fresh engine per trial, on every arm.
        let cfg = cfg();
        let report = run_e2(&cfg, 2, None, &FaultPlan::none()).unwrap();
        assert_eq!(report.outcome, CampaignOutcome::Completed);
        for (a, &c) in cseek_scaling::e2_cs(&cfg).iter().enumerate() {
            let built = cseek_scaling::e2_scenario(cfg.quick, c, cfg.seed).build().unwrap();
            let sched = SeekParams::default().schedule(&built.model);
            let fresh = crate::runner::fresh_engine_trials(
                &built.net,
                |ctx| CSeek::new(ctx.id, sched, false),
                cfg.trials(),
                cfg.seed ^ 0xE2,
                sched.total_slots(),
                |_s, e| all_discovered(&built.net, e),
            );
            assert_eq!(report.done_outputs(a), fresh, "arm c={c} diverged from fresh engines");
        }
    }

    #[test]
    fn e12_campaign_spec_shape() {
        let cfg = cfg();
        let spec = (find_kind("e12").unwrap().spec)(&cfg);
        assert_eq!(spec.arms.len(), spectrum::duties(&cfg).len() * 3);
        assert!(spec.arms.iter().all(|a| a.trials == cfg.trials()));
    }

    #[test]
    fn e12_campaign_threads_do_not_change_report() {
        let cfg = cfg();
        let run = find_kind("e12").unwrap().run;
        let one = run(&cfg, 1, None, &FaultPlan::none(), &()).unwrap();
        let four = run(&cfg, 4, None, &FaultPlan::none(), &()).unwrap();
        assert_eq!(one, four);
    }

    #[test]
    fn registry_kinds_are_unique_and_resolvable() {
        for k in REGISTRY {
            let found = find_kind(k.kind).expect("every registered kind resolves");
            assert!(std::ptr::eq(found, k), "kind {} must be unique", k.kind);
            assert!(!k.describe.is_empty());
        }
        assert!(find_kind("nope").is_none());
        let kinds: Vec<&str> = REGISTRY.iter().map(|k| k.kind).collect();
        for id in ["e2", "e3", "e4", "e5", "e6", "e8", "e10", "a1", "r1", "e12", "e12b"] {
            assert!(kinds.contains(&id), "{id} must be a registered kind");
        }
    }

    #[test]
    fn registry_e2_matches_direct_entry_point() {
        let cfg = cfg();
        let kind = find_kind("e2").unwrap();
        assert_eq!((kind.spec)(&cfg), e2_spec(&cfg));
        let via_registry = (kind.run)(&cfg, 2, None, &FaultPlan::none(), &()).unwrap();
        let direct = run_e2(&cfg, 2, None, &FaultPlan::none()).unwrap();
        assert_eq!(via_registry, direct);
    }

    #[test]
    fn quick_and_full_specs_never_share_a_journal() {
        // `config_hash` covers the spec name, seed, arm names and trial
        // counts only, so whatever quick mode changes must show up there:
        // otherwise a full-mode submission would resume a quick journal.
        for k in REGISTRY {
            for (trials, seed) in [(1, 0), (3, 42), (10, 7)] {
                let quick = ExpConfig { quick: true, trials, seed };
                let full = ExpConfig { quick: false, ..quick };
                assert_ne!(
                    config_hash(&(k.spec)(&quick)),
                    config_hash(&(k.spec)(&full)),
                    "{}: quick and full specs hash alike at trials {trials}, seed {seed}",
                    k.kind
                );
            }
        }
    }

    #[test]
    fn existing_journal_hashes_are_unchanged() {
        // E2, E12 and E12b journals written before every sweep became a
        // kind must still resume: their config hashes are pinned.
        let cfg = ExpConfig { quick: true, trials: 3, seed: 42 };
        let hash = |kind: &str| config_hash(&(find_kind(kind).unwrap().spec)(&cfg));
        assert_eq!(hash("e2"), 0xe99e_2e22_52a2_2702);
        assert_eq!(hash("e12"), 0x0f76_d0c6_0708_bf22);
        assert_eq!(hash("e12b"), 0xb6ce_e92f_5599_ccce);
    }

    /// A scratch journal path, removed on drop.
    struct TempJournal(std::path::PathBuf);

    impl Drop for TempJournal {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn temp_journal(tag: &str) -> TempJournal {
        let path =
            std::env::temp_dir().join(format!("crn-kinds-{}-{tag}.crnj", std::process::id()));
        let _ = std::fs::remove_file(&path);
        TempJournal(path)
    }

    #[test]
    fn e5_kill_resume_and_thread_count_are_byte_identical() {
        // E5 holds three protocol types per worker (CSEEK, naive and
        // fixed-rate discovery): a killed-and-resumed run must reproduce
        // the uninterrupted journal and report, and one wave thread must
        // give what two give.
        let cfg = ExpConfig { quick: true, trials: 2, seed: 5 };
        let run = find_kind("e5").unwrap().run;
        let reference = temp_journal("e5-ref");
        let whole = run(&cfg, 2, Some(&reference.0), &FaultPlan::none(), &()).unwrap();
        assert_eq!(whole.outcome, CampaignOutcome::Completed);
        let one_thread = run(&cfg, 1, None, &FaultPlan::none(), &()).unwrap();
        assert_eq!(one_thread.arms, whole.arms, "1 vs 2 wave threads diverge");

        let resumed = temp_journal("e5-kill");
        let killed = run(&cfg, 2, Some(&resumed.0), &FaultPlan::kill_after(5), &()).unwrap();
        assert_eq!(killed.outcome, CampaignOutcome::Killed { recorded: 5 });
        let report = run(&cfg, 2, Some(&resumed.0), &FaultPlan::none(), &()).unwrap();
        assert_eq!(report.outcome, CampaignOutcome::Completed);
        assert!(report.resumed, "the second run must restore the journal");
        assert_eq!(report.arms, whole.arms, "resumed report diverges");
        assert_eq!(
            std::fs::read(&resumed.0).unwrap(),
            std::fs::read(&reference.0).unwrap(),
            "resumed journal diverges from the uninterrupted one"
        );
    }
}

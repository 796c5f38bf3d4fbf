//! E12 — extension beyond the paper: primitives under primary-user
//! spectrum churn.
//!
//! The paper's model freezes each node's channel set for the whole
//! execution, but the cognitive-radio premise is that *primary users*
//! reclaim licensed spectrum at will (paper §1). The
//! [`crn_sim::spectrum`] subsystem models this as a per-slot busy mask
//! driven by Markov/Poisson primary-traffic processes; E12 measures how
//! gracefully CSEEK, CGCAST, and COUNT degrade as the PU duty cycle grows,
//! and E12b stacks PU churn on top of an in-network jammer — the
//! worst-case "hostile spectrum" regime.
//!
//! Both sweeps run as campaign kinds (see [`super::campaigns`]): each
//! `(primitive, duty)` point is an arm, each trial a unit. This module
//! owns the physics — scenario setup, per-unit trial execution over a
//! reusable [`EngineCell`], and table presentation.

use super::campaigns::{all_informed, honest_discovered, Sweep};
use super::ExpConfig;
use crate::campaign::{ArmSpec, CampaignReport, CampaignSpec};
use crate::runner::{counter_mean, summarize_trials, EngineCell, Trial, TrialOpts};
use crate::scenario::{Built, Scenario};
use crate::table::{fmt_f, fmt_opt, Table};
use crn_core::adversary::{JamStrategy, Jammer, NodeRole};
use crn_core::cgcast::CGCast;
use crn_core::count::{CountProtocol, Role};
use crn_core::discovery::all_discovered;
use crn_core::params::{
    CountParams, CountSchedule, GcastParams, GcastSchedule, ModelInfo, SeekParams, SeekSchedule,
};
use crn_core::seek::CSeek;
use crn_core::SpectrumDynamics;
use crn_sim::channels::ChannelModel;
use crn_sim::topology::Topology;
use crn_sim::{Engine, GlobalChannel, LocalChannel, Network, NodeId, Protocol};

/// Mean primary-user busy sojourn, in slots, for the duty-cycle sweeps.
const MEAN_BUSY: f64 = 4.0;

/// The swept PU duty cycles.
pub(super) fn duties(cfg: &ExpConfig) -> &'static [f64] {
    // 0.8 is the exact ceiling a per-slot chain with mean busy sojourn 4
    // can realize (p_busy = 1); `markov_with_duty` rejects anything above.
    if cfg.quick {
        &[0.0, 0.5, 0.75]
    } else {
        &[0.0, 0.1, 0.25, 0.5, 0.75, 0.8]
    }
}

/// The Markov on/off PU process at one swept duty cycle.
fn dynamics_at(duty: f64) -> SpectrumDynamics {
    SpectrumDynamics::markov_with_duty(duty, MEAN_BUSY)
}

/// E12's sweep sizes: `(n_seek, n_gcast, m_count)`.
fn e12_sizes(cfg: &ExpConfig) -> (usize, usize, usize) {
    if cfg.quick {
        (6, 5, 8)
    } else {
        (8, 6, 16)
    }
}

/// Channels per node and shared core of every E12/E12b clique.
const C: usize = 6;
const CORE: usize = 3;

/// A shared-core clique of `n` nodes and its CSEEK schedule.
fn seek_clique(n: usize, seed: u64) -> (Built, SeekSchedule) {
    let scn = Scenario::new(
        format!("e12-clique-n{n}"),
        Topology::Complete { n },
        ChannelModel::SharedCore { c: C, core: CORE },
        seed,
    );
    let built = scn.build().expect("scenario builds");
    let sched = SeekParams::default().schedule(&built.model);
    (built, sched)
}

/// One COUNT trial (success = listener estimate in `[m, 4m]`, Lemma 1's
/// guarantee). COUNT has a fixed schedule and its estimate is only final
/// once all rounds have run, so the probe fires — if at all — at the
/// run's closing probe evaluation; the slot columns are normalized to the
/// schedule length, exactly as the pre-campaign arm reported them.
fn count_trial<'net>(
    cell: &mut EngineCell<'net, CountProtocol>,
    net: &'net Network,
    sched: CountSchedule,
    m: usize,
    seed: u64,
    opts: &TrialOpts,
) -> Trial {
    let mut t = cell.run_trial(
        net,
        |ctx| {
            let role = if ctx.id == NodeId(0) { Role::Listener } else { Role::Broadcaster };
            // E1's arena alternates label order, so the shared channel's
            // local label differs per node.
            let ch = net.global_to_local(ctx.id, GlobalChannel(0)).unwrap_or(LocalChannel(0));
            CountProtocol::new(ctx.id, role, sched, ch)
        },
        seed,
        sched.total_slots(),
        opts,
        |_s, e: &Engine<'_, CountProtocol>| {
            let p = e.protocol(NodeId(0));
            if !p.is_complete() {
                return false;
            }
            let est = p.estimate() as usize;
            est >= m && est <= 4 * m
        },
    );
    t.completed_at = t.completed_at.map(|_| sched.total_slots());
    t.slots_run = sched.total_slots();
    t
}

/// The Markov PU process at each swept duty cycle, as trial options.
fn duty_opts(cfg: &ExpConfig) -> Vec<TrialOpts> {
    duties(cfg).iter().map(|&d| TrialOpts::with_spectrum(dynamics_at(d))).collect()
}

/// E12: CSEEK / CGCAST / COUNT success and completion slots vs primary-user
/// duty cycle (Markov on/off channels, mean busy sojourn 4 slots). Each
/// worker holds one long-lived engine per primitive (three scenario
/// networks), re-armed per unit.
pub(super) struct E12 {
    cfg: ExpConfig,
    seek: (Built, SeekSchedule),
    gcast: (Built, GcastSchedule),
    count: (Network, CountSchedule),
    /// Per swept duty.
    opts: Vec<TrialOpts>,
}

impl Sweep for E12 {
    type Cells<'s> = (EngineCell<'s, CSeek>, EngineCell<'s, CGCast>, EngineCell<'s, CountProtocol>);

    /// Arms laid out `[CSEEK, CGCAST, COUNT]` per swept duty cycle,
    /// `cfg.trials()` units each.
    fn spec(cfg: &ExpConfig) -> CampaignSpec {
        let (n_seek, n_gcast, m_count) = e12_sizes(cfg);
        let arms = duties(cfg)
            .iter()
            .flat_map(|&duty| {
                [
                    ArmSpec::new(format!("cseek n={n_seek} duty={duty}"), cfg.trials()),
                    ArmSpec::new(format!("cgcast n={n_gcast} duty={duty}"), cfg.trials()),
                    ArmSpec::new(format!("count m={m_count} duty={duty}"), cfg.trials()),
                ]
            })
            .collect();
        CampaignSpec::new("e12-pu-churn", arms, cfg.seed)
    }

    fn setup(cfg: &ExpConfig) -> Self {
        let (n_seek, n_gcast, m_count) = e12_sizes(cfg);
        // The CGCAST arena: a shared-core clique with diameter-sized phases.
        let gcast = Scenario::new(
            "e12-cgcast",
            Topology::Complete { n: n_gcast },
            ChannelModel::SharedCore { c: C, core: CORE },
            cfg.seed ^ 0x51,
        )
        .build()
        .expect("scenario builds");
        let d = gcast.net.stats().diameter.expect("clique is connected");
        let model = ModelInfo::from_stats(&gcast.net.stats());
        let gcast_sched =
            GcastParams { dissemination_phases: d, ..Default::default() }.schedule(&model);
        // The COUNT arena of E1: one listener adjacent to `m` broadcasters
        // on one shared channel (plus private padding).
        let count_model = ModelInfo { n: 256, c: 2, delta: 256, k: 1, kmax: 1 };
        E12 {
            cfg: *cfg,
            seek: seek_clique(n_seek, cfg.seed),
            gcast: (gcast, gcast_sched),
            count: (
                super::count::count_arena(m_count),
                CountParams::default().schedule(&count_model),
            ),
            opts: duty_opts(cfg),
        }
    }

    fn trial<'s>(&'s self, cells: &mut Self::Cells<'s>, arm: usize, trial: usize) -> Trial {
        let o = &self.opts[arm / 3];
        // One seed formula per primitive: E12's tables and journals are
        // pure functions of them.
        let seed = |salt: u64| self.cfg.seed ^ salt ^ ((trial as u64) << 16);
        match arm % 3 {
            0 => {
                let (built, sched) = &self.seek;
                cells.0.run_trial(
                    &built.net,
                    |ctx| CSeek::new(ctx.id, *sched, false),
                    seed(0xE12),
                    sched.total_slots(),
                    o,
                    |_s, e| all_discovered(&built.net, e),
                )
            }
            1 => {
                let (built, sched) = &self.gcast;
                cells.1.run_trial(
                    &built.net,
                    |ctx| CGCast::new(ctx.id, *sched, (ctx.id == NodeId(0)).then_some(5)),
                    seed(0xE12B),
                    sched.total_slots(),
                    o,
                    |_s, e| all_informed(e, CGCast::is_informed),
                )
            }
            _ => {
                let m_count = e12_sizes(&self.cfg).2;
                count_trial(&mut cells.2, &self.count.0, self.count.1, m_count, seed(0xC0), o)
            }
        }
    }

    fn tables(&self, report: &CampaignReport) -> Vec<Table> {
        let cfg = &self.cfg;
        let (_, _, m_count) = e12_sizes(cfg);
        let mut t = Table::new(
            format!(
                "E12 (extension): primitives under primary-user churn — Markov on/off channels, \
                 mean busy sojourn {MEAN_BUSY} slots"
            ),
            &[
                "primitive",
                "PU duty cycle",
                "success",
                "mean slots to complete",
                "PU-blocked listens/trial",
                "collisions/trial",
            ],
        );
        let primitives = ["CSEEK".to_string(), "CGCAST".into(), format!("COUNT (m={m_count})")];
        for (d, &duty) in duties(cfg).iter().enumerate() {
            for (kind, primitive) in primitives.iter().enumerate() {
                let results = report.done_outputs(d * 3 + kind);
                let (mean, success) = summarize_trials(&results);
                t.push_row(vec![
                    primitive.clone(),
                    fmt_f(duty),
                    fmt_f(success),
                    fmt_opt(mean),
                    counter_mean(&results, |c| c.pu_blocked_listens).to_string(),
                    counter_mean(&results, |c| c.collisions).to_string(),
                ]);
            }
        }
        t.push_note(
            "Every channel is an on/off PU process; a busy channel swallows broadcasts and \
             turns listens into noise. Schedules are sized for a clean spectrum, so success \
             degrades and completion slides right as the duty cycle grows — channel-set \
             redundancy (c > k) is what keeps the primitives alive at moderate churn.",
        );
        vec![t]
    }
}

/// Honest-node count of the E12b arena.
fn e12b_honest(cfg: &ExpConfig) -> usize {
    if cfg.quick {
        5
    } else {
        7
    }
}

/// E12b: PU churn stacked on an in-network sweep jammer (the robustness
/// worst case: hostile spectrum *and* a hostile node). The two networks
/// (without and with the jammer node) get one engine cell each per worker.
pub(super) struct E12b {
    cfg: ExpConfig,
    /// Indexed by jammer count.
    setups: [(Built, SeekSchedule); 2],
    /// Per swept duty.
    opts: Vec<TrialOpts>,
}

impl Sweep for E12b {
    type Cells<'s> = [EngineCell<'s, NodeRole<CSeek>>; 2];

    /// Arms laid out `jammers ∈ {0, 1}` per swept duty cycle,
    /// `cfg.trials()` units each.
    fn spec(cfg: &ExpConfig) -> CampaignSpec {
        let honest = e12b_honest(cfg);
        let arms = duties(cfg)
            .iter()
            .flat_map(|&duty| {
                [0usize, 1].map(|jammers| {
                    ArmSpec::new(
                        format!("cseek honest={honest} jammers={jammers} duty={duty}"),
                        cfg.trials(),
                    )
                })
            })
            .collect();
        CampaignSpec::new("e12b-churn-plus-jamming", arms, cfg.seed)
    }

    fn setup(cfg: &ExpConfig) -> Self {
        let honest = e12b_honest(cfg);
        let seed = cfg.seed ^ 0xB0;
        E12b {
            cfg: *cfg,
            setups: [seek_clique(honest, seed), seek_clique(honest + 1, seed)],
            opts: duty_opts(cfg),
        }
    }

    /// CSEEK among the honest nodes while the remaining node (if any)
    /// sweep-jams.
    fn trial<'s>(&'s self, cells: &mut Self::Cells<'s>, arm: usize, trial: usize) -> Trial {
        let jammers = arm % 2;
        let (built, sched) = &self.setups[jammers];
        let honest = e12b_honest(&self.cfg);
        cells[jammers].run_trial(
            &built.net,
            |ctx| {
                if ctx.id.index() >= honest {
                    NodeRole::Adversary(Jammer::new(C as u16, JamStrategy::Sweep, ctx.id))
                } else {
                    NodeRole::Honest(CSeek::new(ctx.id, *sched, false))
                }
            },
            self.cfg.seed ^ 0xB12 ^ ((trial as u64) << 16),
            sched.total_slots(),
            &self.opts[arm / 2],
            |_s, e| honest_discovered(e, honest),
        )
    }

    fn tables(&self, report: &CampaignReport) -> Vec<Table> {
        let cfg = &self.cfg;
        let mut t = Table::new(
            "E12b (extension): CSEEK under combined PU churn and sweep jamming".to_string(),
            &["PU duty cycle", "jammers", "success", "mean slots to complete", "collisions/trial"],
        );
        for (d, &duty) in duties(cfg).iter().enumerate() {
            for jammers in [0usize, 1] {
                let results = report.done_outputs(d * 2 + jammers);
                let (mean, frac) = summarize_trials(&results);
                t.push_row(vec![
                    fmt_f(duty),
                    jammers.to_string(),
                    fmt_f(frac),
                    fmt_opt(mean),
                    counter_mean(&results, |c| c.collisions).to_string(),
                ]);
            }
        }
        t.push_note(
            "The jammer attacks from inside the network (always transmitting, sweeping local \
             channels) while the PU process squeezes the spectrum underneath; the two compose — \
             discovery that tolerates either alone can fail under both, which is the regime \
             robustness provisioning must size for.",
        );
        vec![t]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::run_experiment;

    fn cfg() -> ExpConfig {
        ExpConfig { quick: true, trials: 2, seed: 31 }
    }

    #[test]
    fn e12_clean_spectrum_arm_completes() {
        let t = &run_experiment("e12", &cfg())[0];
        // Row 0 is CSEEK at duty 0: a clean clique must mostly succeed.
        assert_eq!(t.rows[0][0], "CSEEK");
        let frac: f64 = t.rows[0][2].parse().unwrap();
        assert!(frac > 0.4, "clean-spectrum CSEEK should complete: {:?}", t.rows[0]);
        // And the duty-0 arms must observe zero PU-blocked listens.
        for row in t.rows.iter().take(3) {
            assert_eq!(row[4], "0", "duty 0 cannot block anything: {row:?}");
        }
    }

    #[test]
    fn e12_churn_bites() {
        let t = &run_experiment("e12", &cfg())[0];
        // At the top duty (last CSEEK row) either success drops or PU
        // pressure is visibly non-zero.
        let first: f64 = t.rows[0][2].parse().unwrap();
        let last_cseek = &t.rows[t.rows.len() - 3];
        let frac: f64 = last_cseek[2].parse().unwrap();
        let blocked: u64 = last_cseek[4].parse().unwrap();
        assert!(blocked > 0, "a 50% duty cycle must block listens: {last_cseek:?}");
        assert!(frac <= first, "churn should not improve discovery");
    }

    #[test]
    fn e12b_produces_all_arms() {
        let t = &run_experiment("e12b", &cfg())[0];
        assert_eq!(t.rows.len(), duties(&cfg()).len() * 2, "duty × jammer grid");
    }
}

//! E6 — Theorem 6: CKSEEK solves k̂-neighbor discovery strictly faster
//! than full CSEEK when `k̂ > k`, while still finding every good neighbor.
//!
//! Scenario: a ring partitioned into groups. Intra-group edges overlap on
//! `kmax` channels (good neighbors for `k̂ = kmax`); the few cross-group
//! edges overlap only on the global core `k`. CKSEEK may ignore the
//! cross-group edges and therefore runs a much shorter schedule.
//!
//! E6 runs as a campaign kind (see [`super::campaigns`]): one arm per
//! (algorithm, k̂), one unit per trial.

use super::campaigns::{arm_cell, ArmCells, Sweep};
use super::ExpConfig;
use crate::campaign::{ArmSpec, CampaignReport, CampaignSpec};
use crate::runner::{summarize_trials, Trial, TrialOpts};
use crate::scenario::{Built, Scenario};
use crate::table::{fmt_f, fmt_opt, Table};
use crn_core::discovery::all_good_discovered;
use crn_core::params::{SeekParams, SeekSchedule};
use crn_core::seek::CSeek;
use crn_sim::channels::ChannelModel;
use crn_sim::topology::Topology;

/// E6's arena: ring size, group count and the swept k̂ values (quick mode
/// shrinks all three).
fn e6_geometry(cfg: &ExpConfig) -> (usize, usize, &'static [usize]) {
    if cfg.quick {
        (12, 2, &[6])
    } else {
        (24, 4, &[2, 3, 6])
    }
}

const C: usize = 8;
const K: usize = 1;
const KMAX: usize = 6;

/// E6: CSEEK vs CKSEEK on the k̂-neighbor-discovery success condition.
/// Arms: full CSEEK per k̂ (the reference: it finds everyone, so it
/// solves every k̂), then CKSEEK per k̂. Trial `t` runs at seed
/// `(cfg.seed ^ 0xE6) + t`.
pub(super) struct E6 {
    cfg: ExpConfig,
    built: Built,
    /// Per arm: the algorithm's name, k̂ and schedule.
    arms: Vec<(&'static str, usize, SeekSchedule)>,
}

impl Sweep for E6 {
    type Cells<'s> = ArmCells<'s, CSeek>;

    fn spec(cfg: &ExpConfig) -> CampaignSpec {
        let (n, groups, khats) = e6_geometry(cfg);
        let arms = ["cseek", "ckseek"]
            .iter()
            .flat_map(|algo| {
                khats.iter().map(move |khat| {
                    ArmSpec::new(format!("{algo} khat={khat} n={n} groups={groups}"), cfg.trials())
                })
            })
            .collect();
        CampaignSpec::new("e6-ckseek", arms, cfg.seed)
    }

    fn setup(cfg: &ExpConfig) -> Self {
        let (n, groups, khats) = e6_geometry(cfg);
        let scn = Scenario::new(
            "e6",
            Topology::Cycle { n },
            ChannelModel::GroupOverlay { c: C, k: K, kmax: KMAX, groups },
            cfg.seed,
        );
        let built = scn.build().expect("scenario builds");
        assert_eq!(built.model.k, K);
        assert_eq!(built.model.kmax, KMAX);
        let params = SeekParams::default();
        let full = params.schedule(&built.model);
        let mut arms: Vec<_> = khats.iter().map(|&khat| ("CSEEK", khat, full)).collect();
        arms.extend(khats.iter().map(|&khat| {
            let delta_khat = built.net.delta_khat(khat);
            ("CKSEEK", khat, params.kseek_schedule(&built.model, khat, Some(delta_khat)))
        }));
        E6 { cfg: *cfg, built, arms }
    }

    fn trial<'s>(&'s self, cells: &mut Self::Cells<'s>, arm: usize, trial: usize) -> Trial {
        let (_, khat, sched) = self.arms[arm];
        let net = &self.built.net;
        arm_cell(cells, arm).run_trial(
            net,
            |ctx| CSeek::new(ctx.id, sched, false),
            (self.cfg.seed ^ 0xE6).wrapping_add(trial as u64),
            sched.total_slots(),
            &TrialOpts::default(),
            |_s, e| all_good_discovered(net, e, khat),
        )
    }

    fn tables(&self, report: &CampaignReport) -> Vec<Table> {
        let n = self.built.net.len();
        let mut t = Table::new(
            format!(
                "E6 (Thm 6): CKSEEK vs CSEEK for k̂-neighbor discovery (ring n = {n}, c = {C}, k = {K}, kmax = {KMAX})"
            ),
            &["algorithm", "k̂", "schedule slots", "mean slots to k̂-complete", "success"],
        );
        for (a, &(algo, khat, sched)) in self.arms.iter().enumerate() {
            let (mean, frac) = summarize_trials(&report.done_outputs(a));
            t.push_row(vec![
                algo.into(),
                khat.to_string(),
                sched.total_slots().to_string(),
                fmt_opt(mean),
                fmt_f(frac),
            ]);
        }
        t.push_note(
            "Paper prediction: CKSEEK's schedule shrinks by ≈ k̂/k in part one \
             while still finding all neighbors overlapping on ≥ k̂ channels.",
        );
        vec![t]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::run_experiment;

    #[test]
    fn e6_ckseek_schedule_is_shorter_and_succeeds() {
        let t = &run_experiment("e6", &ExpConfig { quick: true, trials: 2, seed: 4 })[0];
        // Rows: CSEEK@6, CKSEEK@6.
        let cseek_slots: u64 = t.rows[0][2].parse().unwrap();
        let ckseek_slots: u64 = t.rows[1][2].parse().unwrap();
        assert!(
            ckseek_slots < cseek_slots,
            "CKSEEK schedule {ckseek_slots} should be shorter than CSEEK {cseek_slots}"
        );
        let frac: f64 = t.rows[1][4].parse().unwrap();
        assert!(frac >= 0.5, "CKSEEK should usually find all good neighbors");
    }
}

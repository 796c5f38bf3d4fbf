//! A1 — ablation of CSEEK's key idea: density-weighted listener channels.
//!
//! Scenario: a star whose every hub–leaf overlap consists of *hot* channels
//! shared by all leaves (crowded: `n_ch = Δ ≥ 8c`). Part one is deliberately
//! shortened (factor 0.5) so it samples densities but rarely completes the
//! hub's discovery; part two must do the work. With density weighting the
//! hub listens almost exclusively on the hot channels (gain ≈ c/k over
//! uniform); the A1 arm removes the weighting and the hub starves.
//!
//! A1 runs as a campaign kind (see [`super::campaigns`]): one arm per
//! listener policy, one unit per trial.

use super::campaigns::{arm_cell, discovery_trial, ArmCells, Sweep};
use super::ExpConfig;
use crate::campaign::{ArmSpec, CampaignReport, CampaignSpec};
use crate::runner::{summarize_trials, Trial};
use crate::scenario::{Built, Scenario};
use crate::table::{fmt_f, fmt_opt, Table};
use crn_core::params::{SeekParams, SeekSchedule};
use crn_core::seek::CSeek;
use crn_sim::channels::ChannelModel;
use crn_sim::topology::Topology;

/// The star's leaf count (quick mode halves it).
fn a1_leaves(cfg: &ExpConfig) -> usize {
    if cfg.quick {
        64
    } else {
        128
    }
}

const C: usize = 16;
const K: usize = 2;

/// The two arms: part-two listener policy names, and whether the policy
/// is uniform.
const POLICIES: [(&str, bool); 2] =
    [("density-weighted (paper)", false), ("uniform (ablated)", true)];

/// A1: CSEEK with vs without density-weighted listening. Trial `t` of
/// both arms runs at seed `(cfg.seed ^ 0xA1) + t`.
pub(super) struct A1 {
    cfg: ExpConfig,
    built: Built,
    /// Per arm (listener policy): the schedule.
    scheds: [SeekSchedule; 2],
}

impl Sweep for A1 {
    type Cells<'s> = ArmCells<'s, CSeek>;

    fn spec(cfg: &ExpConfig) -> CampaignSpec {
        let leaves = a1_leaves(cfg);
        let arms = ["density-weighted", "uniform"]
            .map(|policy| ArmSpec::new(format!("{policy} leaves={leaves}"), cfg.trials()));
        CampaignSpec::new("a1-uniform-listener", arms.to_vec(), cfg.seed)
    }

    fn setup(cfg: &ExpConfig) -> Self {
        let leaves = a1_leaves(cfg);
        let scn = Scenario::new(
            "a1",
            Topology::Star { leaves },
            ChannelModel::CrowdedSplit { c: C, k: K, hot: 2, k_hot: 2 },
            cfg.seed,
        );
        let built = scn.build().expect("scenario builds");
        assert!(
            leaves >= 8 * C / 2,
            "scenario must be crowded in the paper's sense for the hot channels"
        );
        let scheds = POLICIES.map(|(_, uniform)| {
            let params =
                SeekParams { part1_factor: 0.5, uniform_listener: uniform, ..Default::default() };
            params.schedule(&built.model)
        });
        A1 { cfg: *cfg, built, scheds }
    }

    fn trial<'s>(&'s self, cells: &mut Self::Cells<'s>, arm: usize, trial: usize) -> Trial {
        let sched = self.scheds[arm];
        discovery_trial(
            arm_cell(cells, arm),
            &self.built.net,
            |ctx| CSeek::new(ctx.id, sched, false),
            (self.cfg.seed ^ 0xA1).wrapping_add(trial as u64),
            sched.total_slots(),
        )
    }

    fn tables(&self, report: &CampaignReport) -> Vec<Table> {
        let mut t = Table::new(
            format!(
                "A1 (ablation): density-weighted vs uniform part-two listening (crowded star, Δ = {}, c = {C}, k = {K})",
                a1_leaves(&self.cfg)
            ),
            &["listener policy", "mean slots to complete", "success", "schedule slots"],
        );
        for (a, ((name, _), sched)) in POLICIES.iter().zip(&self.scheds).enumerate() {
            let (mean, frac) = summarize_trials(&report.done_outputs(a));
            t.push_row(vec![
                name.to_string(),
                fmt_opt(mean),
                fmt_f(frac),
                sched.total_slots().to_string(),
            ]);
        }
        t.push_note(
            "Both arms run the same schedule; only the part-two listener rule differs. \
             The paper's rule concentrates listening on crowded channels, which is what \
             makes the (kmax/k)·Δ term achievable (Lemma 3).",
        );
        vec![t]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::run_experiment;

    #[test]
    fn a1_weighted_listener_dominates() {
        let t = &run_experiment("a1", &ExpConfig { quick: true, trials: 2, seed: 15 })[0];
        let weighted_success: f64 = t.rows[0][2].parse().unwrap();
        let uniform_success: f64 = t.rows[1][2].parse().unwrap();
        // Either the ablated arm fails outright, or it is slower.
        if uniform_success >= weighted_success && weighted_success > 0.0 {
            let w: f64 = t.rows[0][1].parse().unwrap();
            let u: f64 = t.rows[1][1].parse().unwrap();
            assert!(u > w, "ablated arm should be slower: weighted {w}, uniform {u}");
        } else {
            assert!(
                weighted_success >= uniform_success,
                "weighted arm should succeed at least as often"
            );
        }
    }
}

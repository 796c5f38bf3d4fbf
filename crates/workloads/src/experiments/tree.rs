//! E10 — Theorem 14: broadcast on the channel-disjoint complete tree costs
//! `Ω(D·min{c,Δ})`; the omniscient scheduler attains it (ratio ≈ 1) and
//! CGCAST — which must *discover* everything first — sits far above it,
//! bracketing every real algorithm between the two.
//!
//! E10's CGCAST trials run as a campaign kind (see [`super::campaigns`]):
//! one arm per tree small enough for CGCAST, one unit per trial. The
//! deterministic oracle runs once per tree when the table is rendered.

use super::campaigns::{all_informed, arm_cell, ArmCells, Sweep};
use super::ExpConfig;
use crate::campaign::{ArmSpec, CampaignReport, CampaignSpec};
use crate::runner::{summarize_trials, Trial, TrialOpts};
use crate::table::{fmt_f, fmt_opt, Table};
use crn_core::cgcast::CGCast;
use crn_core::params::{GcastParams, GcastSchedule, ModelInfo};
use crn_lowerbounds::tree::{lower_bound_tree, OracleTreeBroadcast};
use crn_sim::{Engine, Network, NodeId};

/// The `(c, depth)` trees of the sweep.
fn e10_cases(cfg: &ExpConfig) -> &'static [(usize, usize)] {
    if cfg.quick {
        &[(3, 2), (4, 2)]
    } else {
        &[(3, 2), (3, 4), (4, 2), (4, 3), (6, 2), (6, 3)]
    }
}

fn tree(c: usize, depth: usize) -> Network {
    lower_bound_tree(c, c, depth).expect("tree builds")
}

/// CGCAST runs on the smaller trees only: it is slow on k = 1 instances
/// by design — its setup pays the full c²/k term.
fn runs_cgcast(net: &Network) -> bool {
    net.len() <= 64
}

/// E10: oracle and CGCAST times on the lower-bound tree. Arms: CGCAST per
/// tree of at most 64 nodes, `min(trials, 3)` units each; trial `t` runs
/// at seed `(cfg.seed ^ 0xE10) + t`.
pub(super) struct E10 {
    cfg: ExpConfig,
    /// Per case: `c`, depth and the tree.
    cases: Vec<(usize, usize, Network)>,
    /// Per arm: its case and CGCAST's schedule.
    arms: Vec<(usize, GcastSchedule)>,
}

impl Sweep for E10 {
    type Cells<'s> = ArmCells<'s, CGCast>;

    fn spec(cfg: &ExpConfig) -> CampaignSpec {
        let arms = e10_cases(cfg)
            .iter()
            .filter(|&&(c, depth)| runs_cgcast(&tree(c, depth)))
            .map(|(c, depth)| ArmSpec::new(format!("cgcast c={c} D={depth}"), cfg.trials().min(3)))
            .collect();
        CampaignSpec::new("e10-tree-cgcast", arms, cfg.seed)
    }

    fn setup(cfg: &ExpConfig) -> Self {
        let cases: Vec<_> = e10_cases(cfg).iter().map(|&(c, d)| (c, d, tree(c, d))).collect();
        let arms = cases
            .iter()
            .enumerate()
            .filter(|(_, (_, _, net))| runs_cgcast(net))
            .map(|(i, &(_, depth, ref net))| {
                let model = ModelInfo::from_stats(&net.stats());
                // StatsMode audit: this builder must stay Exact — the
                // measured diameter sizes CGCAST's dissemination phases, so
                // an approximate estimate would change the schedule (and
                // results).
                let params = GcastParams {
                    dissemination_phases: net.stats().diameter.unwrap_or(depth as u64 * 2),
                    ..Default::default()
                };
                (i, params.schedule(&model))
            })
            .collect();
        E10 { cfg: *cfg, cases, arms }
    }

    fn trial<'s>(&'s self, cells: &mut Self::Cells<'s>, arm: usize, trial: usize) -> Trial {
        let (case, sched) = self.arms[arm];
        arm_cell(cells, arm).run_trial(
            &self.cases[case].2,
            |ctx| CGCast::new(ctx.id, sched, (ctx.id == NodeId(0)).then_some(0xBEEF)),
            (self.cfg.seed ^ 0xE10).wrapping_add(trial as u64),
            sched.total_slots(),
            &TrialOpts::default(),
            |_s, e| all_informed(e, CGCast::is_informed),
        )
    }

    fn tables(&self, report: &CampaignReport) -> Vec<Table> {
        let mut t = Table::new(
            "E10 (Thm 14): broadcast on the channel-disjoint tree — oracle vs bound vs CGCAST",
            &[
                "c",
                "depth D",
                "n",
                "LB ≈ D·(min{c,Δ}−1)",
                "oracle worst",
                "oracle/LB",
                "CGCAST mean",
            ],
        );
        for (i, (c, depth, net)) in self.cases.iter().enumerate() {
            let b = c - 1; // branching factor = min(c, Δ) − 1 with Δ = c
            let n = net.len();
            let lb = (depth * b) as f64;
            // Oracle run (deterministic; one run suffices).
            let max_slots = ((depth + 1) * b) as u64 + 16;
            let mut eng = Engine::new(net, self.cfg.seed, |ctx| {
                OracleTreeBroadcast::new(net, ctx.id, b, 0xAB, max_slots)
            });
            eng.run_to_completion(max_slots);
            let outs = eng.into_outputs();
            let oracle_worst = outs.iter().filter_map(|&(_, at)| at).max().unwrap_or(0) as f64;
            let informed = outs.iter().filter(|(_, at)| at.is_some()).count();
            assert_eq!(informed, n, "oracle informs everyone");
            let cgcast_mean = self
                .arms
                .iter()
                .position(|&(case, _)| case == i)
                .and_then(|a| summarize_trials(&report.done_outputs(a)).0);
            t.push_row(vec![
                c.to_string(),
                depth.to_string(),
                n.to_string(),
                fmt_f(lb),
                fmt_f(oracle_worst),
                fmt_f(oracle_worst / lb),
                fmt_opt(cgcast_mean),
            ]);
        }
        t.push_note(
            "The oracle knows the topology and all channels, so its time is a valid \
             witness that the Ω(D·min{c,Δ}) bound is tight; every real algorithm \
             (CGCAST included) must sit between the LB column and its own setup costs.",
        );
        vec![t]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::run_experiment;

    #[test]
    fn e10_oracle_matches_bound_within_factor_two() {
        let t = &run_experiment("e10", &ExpConfig { quick: true, trials: 1, seed: 13 })[0];
        for row in &t.rows {
            let ratio: f64 = row[5].parse().unwrap();
            assert!((0.5..=2.5).contains(&ratio), "oracle should track the bound: {row:?}");
        }
    }
}

//! E5 — §1/§2 comparison: CSEEK vs the naive `Õ((c²/k)·Δ)` strawman and
//! the fixed-rate `Õ(c²/k + cΔ/k)` (Zeng-et-al.-class) baseline.
//!
//! The paper's comparison is in Õ-notation: per extra neighbor, naive pays
//! `Θ(c²/k · polylog)` slots while CSEEK pays `Θ(kmax/k · polylog)`. At
//! small Δ the baselines' *constants* win (CSEEK fronts a `(c²/k)·lg³n`
//! sampling phase and its part-two steps cost `lg Δ` slots where the
//! baselines' cost one). The reproducible claims are therefore:
//! (a) the naive/CSEEK ratio *grows with Δ* (E5a) — the asymptotic ordering
//! asserting itself; and (b) on a large crowded star — the workload CSEEK
//! was designed for — CSEEK beats naive outright at reachable scale (E5b).
//! Against the fixed-rate baseline the predicted `c/kmax` advantage is
//! partially eaten by CSEEK's `lg Δ`-slot back-off steps; the tables report
//! this honestly (the paper's Õ hides exactly these factors).
//!
//! Both run as one campaign kind (see [`super::campaigns`]): one arm per
//! (Δ, algorithm), one unit per trial, with E5b's two arms appended in
//! full mode.

use super::campaigns::{arm_cell, discovery_trial, ArmCells, Sweep};
use super::ExpConfig;
use crate::campaign::{ArmSpec, CampaignReport, CampaignSpec};
use crate::runner::{summarize_trials, Trial};
use crate::scenario::{Built, Scenario};
use crate::table::{fmt_f, fmt_opt, Table};
use crn_core::baselines::{
    FixedRateDiscovery, FixedRateSchedule, NaiveDiscovery, NaiveDiscoverySchedule,
};
use crn_core::params::{CountParams, ModelInfo, SeekParams, SeekSchedule};
use crn_core::seek::CSeek;
use crn_sim::channels::ChannelModel;
use crn_sim::stats::fit_linear;
use crn_sim::topology::Topology;
use crn_sim::StatsMode;

/// The E5 sweep geometry for a config: the Δ points and channel count.
fn e5_sweep(cfg: &ExpConfig) -> (&'static [usize], usize) {
    if cfg.quick {
        (&[16, 64], 8)
    } else {
        (&[32, 64, 128, 256], 16)
    }
}

/// The lighter COUNT configuration E5 and E5b run CSEEK with (see the
/// methodology notes on [`E5`]).
fn e5_seek_params() -> SeekParams {
    SeekParams {
        count: CountParams { round_len_factor: 1.0, min_round_len: 8, threshold: 0.08 },
        ..Default::default()
    }
}

/// The E5b crowded star's Δ and channel count.
const E5B_DELTA: usize = 512;
const E5B_C: usize = 8;

/// One discovery algorithm with its schedule.
#[derive(Clone, Copy)]
enum Algo {
    Seek(SeekSchedule),
    Naive(NaiveDiscoverySchedule),
    Fixed(FixedRateSchedule),
}

/// E5: three-way discovery comparison across Δ with fitted per-Δ slopes,
/// plus (full mode) E5b, the crowded-star headline — every hub–leaf
/// overlap sits on two channels shared by *all* leaves (`n_ch = Δ ≥ 8c`),
/// the regime CSEEK's density-weighted part two targets. At Δ = 512 CSEEK
/// beats the naive hopper outright.
///
/// Arms: `[CSEEK, naive, fixed-rate]` per Δ point, then (full mode)
/// `[CSEEK, naive]` on the E5b star. Trial `t` runs at seed
/// `(cfg.seed ^ 0xE5) + t`, or `(cfg.seed ^ 0xB5) + t` on E5b.
///
/// Methodology notes:
/// * Schedules are derived once from the sweep's *upper bounds* on `n` and
///   `Δ` — the paper's model assumes exactly such global upper bounds — so
///   CSEEK's part-one prefix is identical across the sweep and the fitted
///   slope isolates the Δ-dependence.
/// * CSEEK uses a lighter COUNT configuration (round length `lg n` with a
///   floor of 8 instead of 24). A2 shows the accuracy cost is small; the
///   default COUNT constants would shift the crossover Δ* outward by the
///   same factor without changing the slope ordering.
pub(super) struct E5 {
    cfg: ExpConfig,
    /// One star per Δ point, then (full mode) the E5b star.
    stars: Vec<Built>,
    /// Per arm: its star, its seed salt and its algorithm.
    arms: Vec<(usize, u64, Algo)>,
}

impl Sweep for E5 {
    type Cells<'s> =
        (ArmCells<'s, CSeek>, ArmCells<'s, NaiveDiscovery>, ArmCells<'s, FixedRateDiscovery>);

    fn spec(cfg: &ExpConfig) -> CampaignSpec {
        let (deltas, c) = e5_sweep(cfg);
        let mut arms: Vec<ArmSpec> = deltas
            .iter()
            .flat_map(|d| {
                ["cseek", "naive", "fixed"]
                    .map(|algo| ArmSpec::new(format!("{algo} delta={d} c={c}"), cfg.trials()))
            })
            .collect();
        if !cfg.quick {
            arms.extend(["cseek", "naive"].map(|algo| {
                ArmSpec::new(format!("e5b {algo} delta={E5B_DELTA} c={E5B_C}"), cfg.trials().min(3))
            }));
        }
        CampaignSpec::new("e5-discovery-comparison", arms, cfg.seed)
    }

    fn setup(cfg: &ExpConfig) -> Self {
        let (deltas, c) = e5_sweep(cfg);
        let core = 2;
        let pinned = ModelInfo {
            n: deltas.last().unwrap() + 1,
            c,
            delta: *deltas.last().unwrap(),
            k: core,
            kmax: core,
        };
        let seek = Algo::Seek(e5_seek_params().schedule(&pinned));
        let naive = Algo::Naive(NaiveDiscoverySchedule::new(&pinned, 8.0));
        let fixed = Algo::Fixed(FixedRateSchedule::new(&pinned, 24.0));
        // Approximate stats: the E5 sweep reaches Δ = 256 and every
        // schedule above derives from the *pinned* ModelInfo, not from
        // measured stats — the diameter is never read, so the exact
        // all-source BFS is pure setup cost (results are bit-identical;
        // see the StatsMode audit note on `Scenario::stats`).
        let mut stars: Vec<Built> = deltas
            .iter()
            .map(|&delta| {
                Scenario::new(
                    format!("e5-d{delta}"),
                    Topology::Star { leaves: delta },
                    ChannelModel::SharedCore { c, core },
                    cfg.seed,
                )
                .with_stats(StatsMode::Approximate)
                .build()
                .expect("scenario builds")
            })
            .collect();
        let mut arms: Vec<(usize, u64, Algo)> =
            (0..deltas.len()).flat_map(|p| [seek, naive, fixed].map(|a| (p, 0xE5, a))).collect();
        if !cfg.quick {
            // Approximate stats: at n = 513 this is the largest network
            // the suite builds, and the schedules consume only
            // n/c/Δ/k/kmax from `built.model`.
            let built = Scenario::new(
                "e5b",
                Topology::Star { leaves: E5B_DELTA },
                ChannelModel::CrowdedSplit { c: E5B_C, k: 2, hot: 2, k_hot: 2 },
                cfg.seed,
            )
            .with_stats(StatsMode::Approximate)
            .build()
            .expect("scenario builds");
            let seek = Algo::Seek(e5_seek_params().schedule(&built.model));
            let naive = Algo::Naive(NaiveDiscoverySchedule::new(&built.model, 8.0));
            arms.extend([seek, naive].map(|a| (stars.len(), 0xB5, a)));
            stars.push(built);
        }
        E5 { cfg: *cfg, stars, arms }
    }

    fn trial<'s>(&'s self, cells: &mut Self::Cells<'s>, arm: usize, trial: usize) -> Trial {
        let (star, salt, algo) = self.arms[arm];
        let net = &self.stars[star].net;
        let seed = (self.cfg.seed ^ salt).wrapping_add(trial as u64);
        match algo {
            Algo::Seek(s) => discovery_trial(
                arm_cell(&mut cells.0, arm),
                net,
                |ctx| CSeek::new(ctx.id, s, false),
                seed,
                s.total_slots(),
            ),
            Algo::Naive(s) => discovery_trial(
                arm_cell(&mut cells.1, arm),
                net,
                |ctx| NaiveDiscovery::new(ctx.id, s),
                seed,
                s.total_slots(),
            ),
            Algo::Fixed(s) => discovery_trial(
                arm_cell(&mut cells.2, arm),
                net,
                |ctx| FixedRateDiscovery::new(ctx.id, s),
                seed,
                s.total_slots(),
            ),
        }
    }

    fn tables(&self, report: &CampaignReport) -> Vec<Table> {
        vec![self.comparison_table(report), self.headline_table(report)]
    }
}

impl E5 {
    fn comparison_table(&self, report: &CampaignReport) -> Table {
        let (deltas, c) = e5_sweep(&self.cfg);
        let mut t = Table::new(
            format!(
                "E5 (§1–2): discovery completion time, CSEEK vs naive vs fixed-rate (star, c = {c}, k = 2)"
            ),
            &["Δ", "CSEEK", "naive", "fixed-rate", "naive/CSEEK", "fixed/CSEEK"],
        );
        let mut xs = Vec::new();
        let mut y_cseek = Vec::new();
        let mut y_naive = Vec::new();
        let mut y_fixed = Vec::new();
        for (p, &delta) in deltas.iter().enumerate() {
            let (cseek_mean, cseek_frac) = summarize_trials(&report.done_outputs(3 * p));
            let (naive_mean, naive_frac) = summarize_trials(&report.done_outputs(3 * p + 1));
            let (fixed_mean, fixed_frac) = summarize_trials(&report.done_outputs(3 * p + 2));

            if let (Some(cm), Some(nm), Some(fm)) = (cseek_mean, naive_mean, fixed_mean) {
                xs.push(delta as f64);
                y_cseek.push(cm);
                y_naive.push(nm);
                y_fixed.push(fm);
            }
            let ratio = |a: Option<f64>, b: Option<f64>| match (a, b) {
                (Some(x), Some(y)) if y > 0.0 => fmt_f(x / y),
                _ => "—".into(),
            };
            t.push_row(vec![
                delta.to_string(),
                format!("{} ({:.0}%)", fmt_opt(cseek_mean), cseek_frac * 100.0),
                format!("{} ({:.0}%)", fmt_opt(naive_mean), naive_frac * 100.0),
                format!("{} ({:.0}%)", fmt_opt(fixed_mean), fixed_frac * 100.0),
                ratio(naive_mean, cseek_mean),
                ratio(fixed_mean, cseek_mean),
            ]);
        }
        if xs.len() >= 2 {
            let f_cseek = fit_linear(&xs, &y_cseek);
            let f_naive = fit_linear(&xs, &y_naive);
            let f_fixed = fit_linear(&xs, &y_fixed);
            t.push_note(format!(
                "Fitted slots-per-neighbor slopes: cseek={:.1} naive={:.1} fixed={:.1} — \
                 paper shape: naive slope / CSEEK slope ≈ c²/kmax·(1/polylog) and \
                 fixed slope / CSEEK slope ≈ c/kmax.",
                f_cseek.slope, f_naive.slope, f_fixed.slope
            ));
            if f_naive.slope > f_cseek.slope {
                let crossover =
                    (f_cseek.intercept - f_naive.intercept) / (f_naive.slope - f_cseek.slope);
                t.push_note(format!(
                    "Projected naive/CSEEK crossover at Δ* ≈ {crossover:.0}: CSEEK's \
                     Θ((c²/k)·lg³n) sampling prefix dominates below it — the polylog \
                     gap the paper's Õ-notation hides. Beyond Δ*, CSEEK wins and the \
                     gap grows linearly in Δ."
                ));
            }
        }
        t
    }

    fn headline_table(&self, report: &CampaignReport) -> Table {
        let mut t = Table::new(
            "E5b (§1): crowded star headline — CSEEK vs naive at Δ = 512 (c = 8, k = 2, all overlap crowded)",
            &["algorithm", "mean slots", "success"],
        );
        if self.cfg.quick {
            t.push_note("Skipped in quick mode (runs ~512-node simulations); run without --quick.");
            return t;
        }
        let first = 3 * e5_sweep(&self.cfg).0.len();
        let (cm, cfrac) = summarize_trials(&report.done_outputs(first));
        t.push_row(vec!["CSEEK".into(), fmt_opt(cm), fmt_f(cfrac)]);
        let (nm, nfrac) = summarize_trials(&report.done_outputs(first + 1));
        t.push_row(vec!["naive".into(), fmt_opt(nm), fmt_f(nfrac)]);
        if let (Some(a), Some(b)) = (cm, nm) {
            t.push_note(format!(
                "CSEEK/naive speedup: {:.2}x — the (kmax/k)·Δ vs (c²/k)·Δ gap made physical.",
                b / a
            ));
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::super::campaigns::arm_trials;
    use super::*;
    use crate::experiments::run_experiment;
    use crn_sim::stats::mean_ci95;

    #[test]
    fn e5_reports_slopes_for_all_three_algorithms() {
        let t = &run_experiment("e5", &ExpConfig { quick: true, trials: 6, seed: 3 })[0];
        let note = t.notes.first().expect("slope note");
        for tag in ["cseek=", "naive=", "fixed="] {
            let v: f64 =
                note.split(tag).nth(1).unwrap().split_whitespace().next().unwrap().parse().unwrap();
            assert!(v > 0.0, "fitted slope for {tag} must be positive");
        }
    }

    /// Completion-time samples of one arm's successful trials.
    fn samples(sweep: &E5, arm: usize) -> Vec<f64> {
        let trials = sweep.cfg.trials();
        arm_trials(sweep, arm, trials)
            .iter()
            .filter_map(|t| t.completed_at)
            .map(|t| t as f64)
            .collect()
    }

    /// `naive/CSEEK` mean ratio at Δ point `p` with a propagated 95%
    /// half-width (first-order error propagation: relative variances add).
    /// Runs only the point's CSEEK and naive arms — never the fixed-rate
    /// baseline, whose full-mode batch is wall-clock these tests need not
    /// pay.
    fn ratio_with_ci(sweep: &E5, p: usize) -> (f64, f64) {
        let (cs, ns) = (samples(sweep, 3 * p), samples(sweep, 3 * p + 1));
        assert!(!cs.is_empty() && !ns.is_empty(), "point {p}: trials must succeed");
        let (cm, nm) = (mean(&cs), mean(&ns));
        let ratio = nm / cm;
        let rel = (mean_ci95(&ns) / nm).hypot(mean_ci95(&cs) / cm);
        (ratio, ratio * rel)
    }

    fn mean(xs: &[f64]) -> f64 {
        xs.iter().sum::<f64>() / xs.len() as f64
    }

    #[test]
    fn e5_ratio_improves_with_delta_beyond_ci() {
        // The paper's ordering claim — naive's per-neighbor cost grows
        // faster than CSEEK's — asserted as a *statistically significant*
        // direction: the ratio increase from the smallest to the largest
        // quick-mode Δ must exceed the combined 95% uncertainty of the two
        // ratio estimates, not just be positive on one draw.
        let cfg = ExpConfig { quick: true, trials: 6, seed: 3 };
        let sweep = E5::setup(&cfg);
        let (r_lo, h_lo) = ratio_with_ci(&sweep, 0);
        let (r_hi, h_hi) = ratio_with_ci(&sweep, e5_sweep(&cfg).0.len() - 1);
        assert!(
            r_hi - r_lo > h_lo.hypot(h_hi),
            "naive/CSEEK ratio growth not significant: {r_lo:.2}±{h_lo:.2} -> {r_hi:.2}±{h_hi:.2}"
        );
    }

    #[test]
    fn e5_quick_and_full_modes_agree_in_direction() {
        // Regression guard for the quick-mode proxy: the full-mode sweep
        // (its real Δ range and c, reduced trial count — the direction
        // claim needs the sweep shape, not the trial count) must order the
        // endpoint ratios the same way quick mode does.
        let quick = ExpConfig { quick: true, trials: 4, seed: 3 };
        let full = ExpConfig { quick: false, trials: 2, seed: 3 };
        for cfg in [quick, full] {
            let sweep = E5::setup(&cfg);
            let (r_lo, _) = ratio_with_ci(&sweep, 0);
            let (r_hi, _) = ratio_with_ci(&sweep, e5_sweep(&cfg).0.len() - 1);
            assert!(
                r_hi > r_lo,
                "{} mode reverses the naive/CSEEK direction: {r_lo:.2} -> {r_hi:.2}",
                if cfg.quick { "quick" } else { "full" }
            );
        }
    }
}

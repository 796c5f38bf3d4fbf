//! The experiment suite: one module per paper claim (listed in the README's
//! "The experiment suite" section).
//!
//! Every experiment is a pure function from an [`ExpConfig`] to one or more
//! [`Table`]s, so the `experiments` binary, the integration tests and the
//! criterion benches all share one implementation.
//!
//! The paper is a theory paper — its "evaluation" is a set of theorems, so
//! each experiment here regenerates the *shape* a theorem claims (slopes of
//! log–log fits, who-beats-whom orderings, crossover locations), not
//! absolute numbers from a testbed.

pub mod ablation;
pub mod campaigns;
pub mod compare;
pub mod count;
pub mod cseek_scaling;
pub mod game;
pub mod gcast;
pub mod kseek;
pub mod pure_coloring;
pub mod rendezvous;
pub mod robustness;
pub mod spectrum;
pub mod tree;

use crate::table::Table;

/// Global experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Quick mode: smaller sweeps and fewer trials (used by CI/tests).
    pub quick: bool,
    /// Trials per configuration point.
    pub trials: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig { quick: false, trials: 10, seed: 42 }
    }
}

impl ExpConfig {
    /// Quick-mode preset.
    pub fn quick() -> Self {
        ExpConfig { quick: true, trials: 3, seed: 42 }
    }

    /// Effective trial count.
    pub fn trials(&self) -> usize {
        self.trials.max(1)
    }
}

/// All experiment identifiers, in the order of the README's experiment
/// table.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "a1", "a2", "a3",
    "a3b", "r1",
];

/// Runs one experiment by id. Returns its result tables.
///
/// # Panics
/// Panics on an unknown id (the caller validates against
/// [`ALL_EXPERIMENTS`]).
pub fn run_experiment(id: &str, cfg: &ExpConfig) -> Vec<Table> {
    match id {
        "e1" => vec![count::e1_count_accuracy(cfg)],
        "e2" => vec![cseek_scaling::e2_vs_c(cfg)],
        "e3" => vec![cseek_scaling::e3_vs_k(cfg)],
        "e4" => vec![cseek_scaling::e4_vs_delta(cfg)],
        "e5" => vec![compare::e5_discovery_comparison(cfg), compare::e5b_crowded_headline(cfg)],
        "e6" => vec![kseek::e6_ckseek(cfg)],
        "e7" => vec![pure_coloring::e7_phases_vs_n(cfg)],
        "e8" => gcast::e8_gcast_vs_naive(cfg),
        "e9" => gcast_e9(cfg),
        "e10" => vec![tree::e10_tree_lower_bound(cfg)],
        "e11" => vec![rendezvous::e11_rendezvous_gap(cfg)],
        "e12" => {
            vec![spectrum::e12_pu_churn(cfg), spectrum::e12b_churn_plus_jamming(cfg)]
        }
        "a1" => vec![ablation::a1_uniform_listener(cfg)],
        "a2" => vec![count::a2_round_length(cfg)],
        "a3" => vec![pure_coloring::a3_coloring_comparison(cfg)],
        "a3b" => vec![robustness::a3b_uncolored_dissemination(cfg)],
        "r1" => vec![robustness::r1_jamming(cfg)],
        other => panic!("unknown experiment id {other:?} (known: {ALL_EXPERIMENTS:?})"),
    }
}

fn gcast_e9(cfg: &ExpConfig) -> Vec<Table> {
    vec![game::e9_hitting_game(cfg), game::e9_reduction(cfg)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_resolve() {
        // Just the cheapest experiment, to check the dispatch plumbing.
        let tables = run_experiment("e1", &ExpConfig { quick: true, trials: 2, seed: 1 });
        assert_eq!(tables.len(), 1);
        assert!(!tables[0].rows.is_empty());
    }

    #[test]
    #[should_panic(expected = "unknown experiment id")]
    fn unknown_id_panics() {
        let _ = run_experiment("zz", &ExpConfig::quick());
    }
}

//! The experiment suite: one module per paper claim (listed in the README's
//! "The experiment suite" section).
//!
//! Every experiment is a pure function from an [`ExpConfig`] to one or more
//! [`Table`]s, so the `experiments` binary and the integration tests share
//! one implementation. Each experiment whose units are trials is a
//! campaign kind (see [`campaigns`]): [`run_experiment`] runs it in memory
//! and renders its tables, and the campaign server runs the same kind
//! journaled.
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
/// Ids whose units are [`crate::runner::Trial`]s run their campaign kind
/// (see [`campaigns::REGISTRY`]) in memory and render its tables; `e12`
/// renders both the `e12` and the `e12b` kind. The rest are direct
/// computations.
///
/// # Panics
/// Panics on an unknown id (the caller validates against
/// [`ALL_EXPERIMENTS`]).
pub fn run_experiment(id: &str, cfg: &ExpConfig) -> Vec<Table> {
    match id {
        "e1" => vec![count::e1_count_accuracy(cfg)],
        "e7" => vec![pure_coloring::e7_phases_vs_n(cfg)],
        "e9" => vec![game::e9_hitting_game(cfg), game::e9_reduction(cfg)],
        "e11" => vec![rendezvous::e11_rendezvous_gap(cfg)],
        "e12" => ["e12", "e12b"]
            .iter()
            .flat_map(|k| campaigns::run_tables(campaigns::find_kind(k).unwrap(), cfg))
            .collect(),
        "a2" => vec![count::a2_round_length(cfg)],
        "a3" => vec![pure_coloring::a3_coloring_comparison(cfg)],
        "a3b" => vec![robustness::a3b_uncolored_dissemination(cfg)],
        kind => match campaigns::find_kind(kind) {
            Some(kind) => campaigns::run_tables(kind, cfg),
            None => panic!("unknown experiment id {id:?} (known: {ALL_EXPERIMENTS:?})"),
        },
    }
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

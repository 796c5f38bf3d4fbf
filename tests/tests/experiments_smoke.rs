//! Smoke test: every experiment in the registry runs in quick mode and
//! produces non-degenerate tables. (The full-scale numbers are
//! regenerated by the `experiments` binary; see the README's "The
//! experiment suite" section.)

use crn_workloads::experiments::{run_experiment, ExpConfig, ALL_EXPERIMENTS};

/// The cheap experiments run in one batch; the expensive simulation-heavy
/// ones get their own tests so failures are attributable (and the test
/// harness can parallelize them).
#[test]
fn cheap_experiments_produce_tables() {
    let cfg = ExpConfig { quick: true, trials: 2, seed: 7 };
    for id in ["e1", "e7", "e9", "a2", "a3"] {
        let tables = run_experiment(id, &cfg);
        assert!(!tables.is_empty(), "{id}: no tables");
        for t in &tables {
            assert!(!t.columns.is_empty(), "{id}: empty header");
            assert!(
                !t.rows.is_empty() || !t.notes.is_empty(),
                "{id}: table {} has neither rows nor notes",
                t.title
            );
            // Markdown renders without panicking and contains the title.
            assert!(t.markdown().contains(&t.title));
        }
    }
}

#[test]
fn discovery_experiments_produce_tables() {
    let cfg = ExpConfig { quick: true, trials: 2, seed: 7 };
    for id in ["e2", "e3", "e4"] {
        let tables = run_experiment(id, &cfg);
        for t in &tables {
            assert!(!t.rows.is_empty(), "{id}: no rows");
        }
    }
}

#[test]
fn comparison_experiment_produces_tables() {
    let tables = run_experiment("e5", &ExpConfig { quick: true, trials: 2, seed: 7 });
    assert_eq!(tables.len(), 2, "E5 main table + E5b headline");
}

#[test]
fn kseek_and_tree_experiments_produce_tables() {
    let cfg = ExpConfig { quick: true, trials: 2, seed: 7 };
    for id in ["e6", "e10"] {
        let tables = run_experiment(id, &cfg);
        for t in &tables {
            assert!(!t.rows.is_empty(), "{id}: no rows");
        }
    }
}

#[test]
fn gcast_experiment_produces_tables() {
    let tables = run_experiment("e8", &ExpConfig { quick: true, trials: 1, seed: 7 });
    assert_eq!(tables.len(), 2);
}

#[test]
fn ablation_a1_produces_table() {
    let tables = run_experiment("a1", &ExpConfig { quick: true, trials: 1, seed: 7 });
    assert_eq!(tables[0].rows.len(), 2, "two listener policies");
}

#[test]
fn experiments_are_deterministic() {
    // Same config => byte-identical tables (the whole pipeline is seeded).
    let cfg = ExpConfig { quick: true, trials: 2, seed: 99 };
    let a = run_experiment("e1", &cfg);
    let b = run_experiment("e1", &cfg);
    assert_eq!(a, b);
}

#[test]
fn spectrum_experiment_produces_tables() {
    let tables = run_experiment("e12", &ExpConfig { quick: true, trials: 1, seed: 7 });
    assert_eq!(tables.len(), 2, "E12 duty sweep + E12b churn-plus-jamming");
    for t in &tables {
        assert!(!t.rows.is_empty(), "{}: no rows", t.title);
    }
    // The duty-cycle sweep covers all three primitives.
    let primitives: std::collections::BTreeSet<&str> =
        tables[0].rows.iter().map(|r| r[0].as_str()).collect();
    assert!(primitives.len() >= 3, "E12 must sweep at least three primitives: {primitives:?}");
}

#[test]
fn registry_covers_design_doc() {
    // The README's "The experiment suite" table lists E1–E11, A1–A3, plus
    // the extensions A3b, R1, and the spectrum-churn family E12.
    assert_eq!(ALL_EXPERIMENTS.len(), 17);
}

//! End-to-end neighbor discovery across scenario families: CSEEK must be
//! sound and complete on every topology/channel-model combination within
//! its fixed schedule, independent of local channel labels.

use crn_core::discovery::{all_discovered, outputs_complete, outputs_sound};
use crn_core::params::SeekParams;
use crn_core::seek::CSeek;
use crn_integration::build;
use crn_sim::channels::ChannelModel;
use crn_sim::topology::Topology;
use crn_sim::Engine;

fn run_and_check(topology: Topology, channels: ChannelModel, seed: u64) {
    let (net, model) = build(topology.clone(), channels, seed);
    let sched = SeekParams::default().schedule(&model);
    let mut eng = Engine::new(&net, seed ^ 0x515, |ctx| CSeek::new(ctx.id, sched, false));
    let outcome = eng.run_to_completion(sched.total_slots());
    assert!(outcome.all_protocols_done, "{topology:?}: schedule must finish");
    let outputs = eng.into_outputs();
    assert!(outputs_sound(&net, &outputs), "{topology:?}: unsound discovery");
    assert!(outputs_complete(&net, &outputs), "{topology:?}: incomplete discovery");
}

#[test]
fn cseek_on_grid_with_shared_core() {
    run_and_check(
        Topology::Grid { rows: 4, cols: 4 },
        ChannelModel::SharedCore { c: 5, core: 2 },
        1,
    );
}

#[test]
fn cseek_on_star_with_identical_channels() {
    run_and_check(Topology::Star { leaves: 12 }, ChannelModel::Identical { c: 4 }, 2);
}

#[test]
fn cseek_on_cycle_with_group_overlay() {
    run_and_check(
        Topology::Cycle { n: 16 },
        ChannelModel::GroupOverlay { c: 7, k: 2, kmax: 5, groups: 4 },
        3,
    );
}

#[test]
fn cseek_on_caterpillar_with_crowded_split() {
    run_and_check(
        Topology::Star { leaves: 24 },
        ChannelModel::CrowdedSplit { c: 4, k: 2, hot: 1, k_hot: 1 },
        4,
    );
}

#[test]
fn cseek_on_random_geometric_emergent_overlap() {
    // Emergent neighbors: in range AND sharing >= 2 channels.
    let scenario = crn_workloads::Scenario::new(
        "geo",
        Topology::RandomGeometric { n: 40, radius: 0.3 },
        ChannelModel::RandomPool { c: 6, universe: 12 },
        5,
    )
    .with_prune(2);
    let built = scenario.build().unwrap();
    let sched = SeekParams::default().schedule(&built.model);
    let mut eng = Engine::new(&built.net, 55, |ctx| CSeek::new(ctx.id, sched, false));
    eng.run_to_completion(sched.total_slots());
    let outputs = eng.into_outputs();
    assert!(outputs_sound(&built.net, &outputs));
    assert!(outputs_complete(&built.net, &outputs));
}

#[test]
fn full_pipeline_is_deterministic() {
    let (net, model) =
        build(Topology::Cycle { n: 10 }, ChannelModel::SharedCore { c: 4, core: 2 }, 6);
    let sched = SeekParams::default().schedule(&model);
    let run = |seed: u64| {
        let mut eng = Engine::new(&net, seed, |ctx| CSeek::new(ctx.id, sched, false));
        eng.run_to_completion(sched.total_slots());
        (eng.counters(), eng.into_outputs())
    };
    let (c1, o1) = run(123);
    let (c2, o2) = run(123);
    assert_eq!(c1, c2);
    assert_eq!(o1, o2);
}

#[test]
fn discovery_time_improves_with_more_overlap() {
    // Same ring, k = 1 vs k = 4 out of c = 8: more shared channels must not
    // slow discovery down (Theorem 4: time ∝ c²/k).
    use crn_workloads::runner::{summarize_trials, EngineCell, Trial, TrialOpts};
    let mut means = Vec::new();
    for k in [1usize, 4] {
        let (net, model) =
            build(Topology::Cycle { n: 12 }, ChannelModel::SharedCore { c: 8, core: k }, 7);
        let sched = SeekParams::default().schedule(&model);
        let mut cell = EngineCell::new();
        let trials: Vec<Trial> = (0..5)
            .map(|i| {
                cell.run_trial(
                    &net,
                    |ctx| CSeek::new(ctx.id, sched, false),
                    99 + i,
                    sched.total_slots(),
                    &TrialOpts::default(),
                    |_s, e| all_discovered(&net, e),
                )
            })
            .collect();
        let (mean, frac) = summarize_trials(&trials);
        assert_eq!(frac, 1.0, "k={k} must complete");
        means.push(mean.unwrap());
    }
    assert!(means[1] < means[0], "k=4 ({}) should be faster than k=1 ({})", means[1], means[0]);
}

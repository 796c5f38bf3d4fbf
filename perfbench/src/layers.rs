//! The per-layer metrics of the traced run, each with the end-to-end metric
//! and workload it should move.
//!
//! Every traced run prints every metric of [`TABLE`]. A layer that does no
//! work on a workload (the spectrum process on `million_node`, the server
//! on `paper_sweep`) reads 0 there, as measured.

use crate::measure::{range, share, Report};
use crn_sim::Counters;
use std::collections::BTreeMap;

/// One per-layer metric: name, unit, what it should move, what it should not.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub moves: &'static str,
    pub not: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    not: &'static str,
) -> LayerMetric {
    LayerMetric { name, unit, moves, not }
}

/// Every per-layer metric, grouped by layer (module).
pub const TABLE: &[LayerMetric] = &[
    // crn_sim::network
    m("network.generate_s", "s", "setup_s, peak_rss_mib on million_node", "paper_sweep"),
    m("network.footprint_mib", "MiB", "setup_s, peak_rss_mib on million_node", "paper_sweep"),
    // crn_sim::engine, construction and reset
    m(
        "engine.build_s",
        "s",
        "setup_s, peak_rss_mib, node_slots_per_s on million_node",
        "replay_latency_ms on campaign_service (detail)",
    ),
    m(
        "engine.state_mib",
        "MiB",
        "setup_s, peak_rss_mib, node_slots_per_s on million_node",
        "replay_latency_ms on campaign_service (detail)",
    ),
    m(
        "engine.reset_ms",
        "ms",
        "setup_s, peak_rss_mib, node_slots_per_s on million_node",
        "replay_latency_ms on campaign_service (detail)",
    ),
    // crn_sim::engine phases 1-3, with crn_core act/feedback logic
    m(
        "engine.collect_ns_per_node_slot",
        "ns",
        "node_slots_per_s on paper_sweep and million_node; job_latency_ms on campaign_service",
        "replay_latency_ms on campaign_service (detail)",
    ),
    m(
        "engine.resolve_ns_per_node_slot",
        "ns",
        "node_slots_per_s on million_node",
        "paper_sweep (expected small share at n <= 12; unverified)",
    ),
    m(
        "engine.deliver_ns_per_node_slot",
        "ns",
        "node_slots_per_s on paper_sweep and million_node",
        "replay_latency_ms on campaign_service (detail)",
    ),
    // crn_sim::spectrum
    m(
        "spectrum.advance_ns_per_slot",
        "ns",
        "trials_per_s, node_slots_per_s on paper_sweep",
        "million_node, campaign_service (no PU process)",
    ),
    // crn_sim::pool
    m(
        "pool.collect_pooled_share",
        "ratio",
        "node_slots_per_s on million_node",
        "paper_sweep (sequential engines)",
    ),
    m(
        "pool.deliver_pooled_share",
        "ratio",
        "node_slots_per_s on million_node",
        "paper_sweep (sequential engines)",
    ),
    m(
        "pool.resolve_sharded_share",
        "ratio",
        "node_slots_per_s on million_node",
        "paper_sweep (sequential engines)",
    ),
    // crn_workloads::runner
    m("runner.probe_share", "ratio", "trials_per_s on paper_sweep", "million_node (no probes)"),
    m("runner.trial_ms.cseek", "ms", "trials_per_s on paper_sweep", "million_node"),
    m("runner.trial_ms.cseek_pu", "ms", "trials_per_s on paper_sweep", "million_node"),
    m("runner.trial_ms.cgcast", "ms", "trials_per_s on paper_sweep", "million_node"),
    m("runner.trial_ms.count", "ms", "trials_per_s on paper_sweep", "million_node"),
    // crn_workloads::campaign (runner, journal)
    m(
        "campaign.self_share",
        "ratio",
        "job_latency_ms on campaign_service (replay_latency_ms in the detail)",
        "paper_sweep (in memory)",
    ),
    m(
        "campaign.fsync_ms",
        "ms",
        "job_latency_ms on campaign_service (replay_latency_ms in the detail)",
        "paper_sweep (in memory)",
    ),
    m(
        "campaign.replay_ms",
        "ms",
        "job_latency_ms on campaign_service (replay_latency_ms in the detail)",
        "paper_sweep (in memory)",
    ),
    // crn_server (http, json, router)
    m(
        "server.submit_ms",
        "ms",
        "job_latency_ms on campaign_service (replay/status latency in the detail)",
        "paper_sweep, million_node",
    ),
    m(
        "server.status_ms",
        "ms",
        "job_latency_ms on campaign_service (status_latency_ms in the detail)",
        "paper_sweep, million_node",
    ),
    m(
        "server.results_ms",
        "ms",
        "job_latency_ms on campaign_service (replay_latency_ms in the detail)",
        "paper_sweep, million_node",
    ),
    m(
        "server.results_bytes",
        "bytes",
        "job_latency_ms on campaign_service (replay_latency_ms in the detail)",
        "paper_sweep, million_node",
    ),
    // crn_server (store, scheduler)
    m(
        "server.queue_wait_ms",
        "ms",
        "job_latency_ms on campaign_service (replay_latency_ms in the detail)",
        "paper_sweep, million_node",
    ),
    m(
        "client.polls_per_job",
        "count",
        "job_latency_ms on campaign_service",
        "paper_sweep, million_node",
    ),
    // simulated Counters
    m(
        "engine.delivery_ratio",
        "ratio",
        "sim_slots_mean, sim_success_ratio (detail)",
        "every host-time metric",
    ),
    m(
        "engine.collision_ratio",
        "ratio",
        "sim_slots_mean, sim_success_ratio (detail)",
        "every host-time metric",
    ),
    m(
        "engine.pu_blocked_ratio",
        "ratio",
        "sim_slots_mean, sim_success_ratio (detail)",
        "every host-time metric",
    ),
    // the benchmark's own spans
    m(
        "trace.overhead_share",
        "ratio",
        "nothing: traced over untraced time of the workload's timed units, minus 1",
        "-",
    ),
];

/// The per-layer values of one traced run; unset metrics read 0.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Sets a metric of [`TABLE`].
    ///
    /// # Panics
    /// Panics on a name that is not in the table.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(TABLE.iter().any(|l| l.name == name), "unknown per-layer metric {name}");
        self.values.insert(name, value);
    }

    /// Prints the annotated table and adds every metric to `report`.
    pub fn finish(self, workload: &str, report: &mut Report) {
        println!("per-layer metrics of {workload} (traced run):");
        println!("  {:<34} {:>16} {:<6} should move | should not move", "metric", "value", "unit");
        for l in TABLE {
            let value = self.values.get(l.name).copied().unwrap_or(0.0);
            println!("  {:<34} {:>16.6} {:<6} {} | {}", l.name, value, l.unit, l.moves, l.not);
            let sane = match (l.name, l.unit) {
                ("trace.overhead_share", _) => range(-1.0, 10.0),
                (_, "ratio") => range(0.0, 1.0),
                (_, "s") => range(0.0, 600.0),
                (_, "MiB") => range(0.0, 1e5),
                (_, "ms") => range(0.0, 1e6),
                _ => range(0.0, 1e9),
            };
            report.metric(l.name, value, l.unit, sane);
        }
    }
}

/// Sets the three simulated-outcome ratios of `c` in `l`.
pub fn counter_ratios(l: &mut Layers, c: &Counters) {
    let listens = c.listens as f64;
    l.set("engine.delivery_ratio", share(c.deliveries as f64, listens));
    l.set("engine.collision_ratio", share(c.collisions as f64, listens));
    l.set("engine.pu_blocked_ratio", share(c.pu_blocked_listens as f64, listens));
}

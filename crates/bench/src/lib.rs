//! Shared helpers for the criterion benches and the `experiments` binary.

#![warn(missing_docs)]

use crn_core::params::ModelInfo;
use crn_sim::channels::ChannelModel;
use crn_sim::topology::Topology;
use crn_sim::Network;
use crn_workloads::Scenario;

/// Builds a standard benchmark network: topology + channel model at a fixed
/// seed, returning the network and its model parameters.
pub fn bench_network(
    topology: Topology,
    channels: ChannelModel,
    seed: u64,
) -> (Network, ModelInfo) {
    let built = Scenario::new("bench", topology, channels, seed)
        .build()
        .expect("bench scenario must build");
    (built.net, built.model)
}

/// The default small discovery arena used across benches: a 16-node cycle
/// with a 2-channel core out of 6.
pub fn small_discovery_arena() -> (Network, ModelInfo) {
    bench_network(Topology::Cycle { n: 16 }, ChannelModel::SharedCore { c: 6, core: 2 }, 0xBEC5)
}

/// Peak resident-set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where procfs is unavailable. This is a
/// high-water mark: it never decreases, so measure it *after* the workload
/// under test and interpret it as "the process never needed more than
/// this". Used by the huge-sparse bench row and the `huge_smoke` CI gate
/// to prove setup memory stays `O(n + m)`.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_builds() {
        let (net, model) = small_discovery_arena();
        assert_eq!(net.len(), 16);
        assert_eq!(model.k, 2);
    }
}

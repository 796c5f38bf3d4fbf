//! Pairwise neighbor exchange via a CSEEK execution (paper §5.1).
//!
//! The key observation behind CGCAST: "if we can solve neighbor discovery
//! in `T` time, then we can use the same algorithm to allow each pair of
//! neighbors to exchange one message in `T` time". [`Exchange`] packages
//! that primitive: every node enters a CSEEK run with a fixed payload, and
//! by the end of the schedule each node has (w.h.p.) received the payload
//! of every neighbor. CGCAST uses four of these back to back per coloring
//! phase; other protocols can build on it directly.

use crate::params::SeekSchedule;
use crate::seek::{SeekCore, SeekSlotPlan};
use crn_sim::{Action, Feedback, NodeId, Protocol, SlotCtx};
use std::collections::BTreeMap;

/// A message carrying the sender's identity plus an arbitrary payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<T> {
    /// Sender identity.
    pub from: NodeId,
    /// Application payload.
    pub payload: T,
}

/// One-shot all-neighbor exchange: broadcast `payload` to every neighbor
/// and collect every neighbor's payload, within one CSEEK schedule.
#[derive(Debug, Clone)]
pub struct Exchange<T: Clone> {
    id: NodeId,
    core: SeekCore,
    outgoing: T,
    received: BTreeMap<NodeId, T>,
}

/// Result of an [`Exchange`] run at one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExchangeOutput<T> {
    /// This node.
    pub id: NodeId,
    /// Payloads received, keyed by sender.
    pub received: BTreeMap<NodeId, T>,
}

impl<T: Clone> Exchange<T> {
    /// Creates an exchange participant with the payload to distribute.
    pub fn new(id: NodeId, sched: SeekSchedule, payload: T) -> Exchange<T> {
        Exchange { id, core: SeekCore::new(sched), outgoing: payload, received: BTreeMap::new() }
    }

    /// Payloads received so far.
    pub fn received(&self) -> &BTreeMap<NodeId, T> {
        &self.received
    }

    /// Number of distinct senders heard so far.
    pub fn received_count(&self) -> usize {
        self.received.len()
    }
}

impl<T: Clone> Protocol for Exchange<T> {
    type Message = Envelope<T>;
    type Output = ExchangeOutput<T>;

    fn act(&mut self, ctx: &mut SlotCtx<'_>) -> Action<Envelope<T>> {
        match self.core.plan_slot(ctx.rng) {
            None => Action::Sleep,
            Some(SeekSlotPlan::Transmit { channel }) => Action::Broadcast {
                channel,
                message: Envelope { from: self.id, payload: self.outgoing.clone() },
            },
            Some(SeekSlotPlan::HoldFire { .. }) => Action::Sleep,
            Some(SeekSlotPlan::Listen { channel }) => Action::Listen { channel },
        }
    }

    fn feedback(&mut self, _ctx: &mut SlotCtx<'_>, fb: Feedback<'_, Envelope<T>>) {
        if self.core.is_done() {
            return;
        }
        match fb {
            Feedback::Heard(env) => {
                // Single clone on actual delivery; the engine itself never
                // clones payloads.
                self.received.entry(env.from).or_insert_with(|| env.payload.clone());
                self.core.record_heard(true);
            }
            Feedback::Silence => self.core.record_heard(false),
            Feedback::Sent | Feedback::Slept => {}
        }
        self.core.finish_slot();
    }

    fn is_complete(&self) -> bool {
        self.core.is_done()
    }

    fn into_output(self) -> ExchangeOutput<T> {
        ExchangeOutput { id: self.id, received: self.received }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{ModelInfo, SeekParams};
    use crn_sim::channels::ChannelModel;
    use crn_sim::rng::stream_rng;
    use crn_sim::topology::Topology;
    use crn_sim::{Engine, Network};

    fn build_net(topo: &Topology, model: &ChannelModel, seed: u64) -> Network {
        let mut rng = stream_rng(seed, 999);
        let n = topo.num_nodes();
        let sets = model.assign(n, &mut rng);
        let mut b = Network::builder(n);
        for (v, set) in sets.into_iter().enumerate() {
            b.set_channels(NodeId(v as u32), set);
        }
        b.add_edges(topo.edges(&mut rng).into_iter().map(|(a, x)| (NodeId(a), NodeId(x))));
        b.build().unwrap()
    }

    #[test]
    fn every_pair_of_neighbors_exchanges_one_message() {
        // The §5.1 claim, directly: after one CSEEK-schedule exchange, each
        // node holds each neighbor's payload.
        let net = build_net(
            &Topology::Grid { rows: 3, cols: 3 },
            &ChannelModel::SharedCore { c: 4, core: 2 },
            1,
        );
        let m = ModelInfo::from_stats(&net.stats());
        let sched = SeekParams::default().schedule(&m);
        let mut eng = Engine::new(&net, 17, |ctx| Exchange::new(ctx.id, sched, ctx.id.0 * 100));
        let outcome = eng.run_to_completion(sched.total_slots());
        assert!(outcome.all_protocols_done);
        for out in eng.into_outputs() {
            for w in net.neighbors(out.id) {
                assert_eq!(
                    out.received.get(&w),
                    Some(&(w.0 * 100)),
                    "{} missing payload of neighbor {w}",
                    out.id
                );
            }
        }
    }

    #[test]
    fn exchange_carries_structured_payloads() {
        let net = build_net(&Topology::Path { n: 3 }, &ChannelModel::Identical { c: 2 }, 2);
        let m = ModelInfo::from_stats(&net.stats());
        let sched = SeekParams::default().schedule(&m);
        let mut eng = Engine::new(&net, 23, |ctx| Exchange::new(ctx.id, sched, vec![ctx.id.0; 3]));
        eng.run_to_completion(sched.total_slots());
        let outs = eng.into_outputs();
        assert_eq!(outs[1].received.get(&NodeId(0)), Some(&vec![0, 0, 0]));
        assert_eq!(outs[1].received.get(&NodeId(2)), Some(&vec![2, 2, 2]));
    }

    #[test]
    fn exchange_receives_nothing_without_neighbors() {
        // A connected pair plus... a singleton network is degenerate: use a
        // two-node net and check only neighbors appear.
        let net = build_net(&Topology::Path { n: 2 }, &ChannelModel::Identical { c: 2 }, 3);
        let m = ModelInfo::from_stats(&net.stats());
        let sched = SeekParams::default().schedule(&m);
        let mut eng = Engine::new(&net, 29, |ctx| Exchange::new(ctx.id, sched, ctx.id.0));
        eng.run_to_completion(sched.total_slots());
        for out in eng.into_outputs() {
            assert!(out.received.keys().all(|&w| net.are_neighbors(out.id, w)));
        }
    }
}

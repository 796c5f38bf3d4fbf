//! Baseline algorithms the paper compares against.
//!
//! * [`NaiveDiscovery`] — the "simple and straightforward strategy" of §1:
//!   hop uniformly at random, flip a coin to broadcast or listen, resolve
//!   contention with a back-off sweep. Time `Õ((c²/k)·Δ)`.
//! * [`FixedRateDiscovery`] — a bound-matching stand-in for the algorithm of
//!   Zeng et al. \[25\], which the paper credits with `Õ(c²/k + c·Δ/k)`:
//!   uniform hopping with per-slot transmission probability
//!   `min(1/2, c/(2Δ))`, the rate that balances meeting probability against
//!   contention and provably attains the quoted bound's shape. (The exact
//!   algorithm of \[25\] targets a slightly different model; the README's
//!   "The experiment suite" section documents this substitution.)
//! * [`NaiveBroadcast`] — the naive global broadcast of §1: informed nodes
//!   hop and transmit, uninformed nodes hop and listen. Time `Õ((c²/k)·D)`.

use crate::discovery::{DiscoveryOutput, DiscoveryProtocol};
use crate::params::ModelInfo;
use crn_sim::{
    act_batch_buffered, feedback_batch_buffered, Action, BatchCtx, Feedback, FeedbackBatch,
    LocalChannel, NodeId, Protocol, SlotCtx,
};
use rand::{Rng, RngCore};
use std::collections::BTreeMap;

/// Schedule for [`NaiveDiscovery`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NaiveDiscoverySchedule {
    /// Channels per node.
    pub c: u16,
    /// Number of steps (each `slots_per_step` slots).
    pub steps: u64,
    /// Back-off sweep length per step (`lg Δ`).
    pub slots_per_step: u32,
}

impl NaiveDiscoverySchedule {
    /// Builds the naive schedule: `⌈factor · (c²/k) · Δ · lg n⌉` steps of
    /// `lg Δ` slots — the `Õ((c²/k)·Δ)` bound of §1.
    pub fn new(m: &ModelInfo, factor: f64) -> Self {
        m.validate();
        let c = m.c as f64;
        let steps = (factor * c * c / m.k as f64 * m.delta as f64 * m.lg_n()).ceil() as u64;
        NaiveDiscoverySchedule { c: m.c as u16, steps: steps.max(1), slots_per_step: m.lg_delta() }
    }

    /// Total slots.
    pub fn total_slots(&self) -> u64 {
        self.steps * self.slots_per_step as u64
    }
}

/// Naive random-hopping discovery with back-off (§1's strawman).
#[derive(Debug, Clone)]
pub struct NaiveDiscovery {
    id: NodeId,
    sched: NaiveDiscoverySchedule,
    step: u64,
    slot_in_step: u32,
    broadcaster: bool,
    channel: LocalChannel,
    heard: BTreeMap<NodeId, u64>,
    step_initialized: bool,
}

impl NaiveDiscovery {
    /// Creates a naive-discovery instance for node `id`.
    pub fn new(id: NodeId, sched: NaiveDiscoverySchedule) -> Self {
        NaiveDiscovery {
            id,
            sched,
            step: 0,
            slot_in_step: 0,
            broadcaster: false,
            channel: LocalChannel(0),
            heard: BTreeMap::new(),
            step_initialized: false,
        }
    }
}

impl NaiveDiscovery {
    /// The act body, generic over the random source so the scalar and
    /// batched paths share one implementation.
    fn act_any<R: RngCore>(&mut self, ctx: &mut SlotCtx<'_, R>) -> Action<NodeId> {
        if self.step >= self.sched.steps {
            return Action::Sleep;
        }
        if !self.step_initialized {
            self.step_initialized = true;
            self.broadcaster = ctx.rng.gen_bool(0.5);
            self.channel = LocalChannel(ctx.rng.gen_range(0..self.sched.c));
            self.slot_in_step = 0;
        }
        if self.broadcaster {
            let l = self.sched.slots_per_step;
            let exp = (l - self.slot_in_step).min(62);
            if ctx.rng.gen_bool(1.0 / (1u64 << exp) as f64) {
                Action::Broadcast { channel: self.channel, message: self.id }
            } else {
                Action::Sleep
            }
        } else {
            Action::Listen { channel: self.channel }
        }
    }

    /// Guaranteed lower bound on this slot's draws: role coin + channel on
    /// a step-init slot (a freshly-drawn broadcaster draws one more), one
    /// transmission coin for a known broadcaster, none otherwise.
    fn min_draws(&self) -> usize {
        if self.step >= self.sched.steps {
            0
        } else if !self.step_initialized {
            2
        } else {
            self.broadcaster as usize
        }
    }

    /// The feedback body, generic over the random source so the scalar and
    /// batched delivery paths share one implementation (it draws nothing).
    fn feedback_any<R: RngCore>(&mut self, ctx: &mut SlotCtx<'_, R>, fb: Feedback<'_, NodeId>) {
        if self.step >= self.sched.steps {
            return;
        }
        if let Feedback::Heard(id) = fb {
            self.heard.entry(*id).or_insert(ctx.slot.0);
        }
        self.slot_in_step += 1;
        if self.slot_in_step == self.sched.slots_per_step {
            self.step += 1;
            self.step_initialized = false;
        }
    }
}

impl Protocol for NaiveDiscovery {
    type Message = NodeId;
    type Output = DiscoveryOutput;

    fn act(&mut self, ctx: &mut SlotCtx<'_>) -> Action<NodeId> {
        self.act_any(ctx)
    }

    fn act_batch(batch: &mut [Self], ctx: &mut BatchCtx<'_>, out: &mut Vec<Action<NodeId>>) {
        act_batch_buffered(batch, ctx, out, |p| p.min_draws(), |p, sctx| p.act_any(sctx));
    }

    fn feedback(&mut self, ctx: &mut SlotCtx<'_>, fb: Feedback<'_, NodeId>) {
        self.feedback_any(ctx, fb);
    }

    fn feedback_batch(batch: &mut [Self], ctx: &mut BatchCtx<'_>, fb: FeedbackBatch<'_, NodeId>) {
        // Reserve 0 exactly: the feedback body never draws.
        feedback_batch_buffered(batch, ctx, fb, |_| 0, |p, sctx, f| p.feedback_any(sctx, f));
    }

    fn is_complete(&self) -> bool {
        self.step >= self.sched.steps
    }

    fn into_output(self) -> DiscoveryOutput {
        DiscoveryOutput {
            id: self.id,
            neighbors: self.heard.keys().copied().collect(),
            first_heard: self.heard.iter().map(|(&v, &t)| (v, t)).collect(),
            counts: Vec::new(),
            history: None,
        }
    }
}

impl DiscoveryProtocol for NaiveDiscovery {
    fn discovered_count(&self) -> usize {
        self.heard.len()
    }
    fn has_discovered(&self, v: NodeId) -> bool {
        self.heard.contains_key(&v)
    }
}

/// Schedule for [`FixedRateDiscovery`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedRateSchedule {
    /// Channels per node.
    pub c: u16,
    /// Total slots.
    pub slots: u64,
    /// Per-slot transmission probability when in broadcaster role.
    pub tx_probability: f64,
}

impl FixedRateSchedule {
    /// Builds the fixed-rate schedule: `⌈factor·(c²/k + cΔ/k)·lg n⌉` slots
    /// with transmission probability `min(1, c/Δ)` (halved by the role
    /// coin) — the Zeng-et-al.-class bound of §2.
    pub fn new(m: &ModelInfo, factor: f64) -> Self {
        m.validate();
        let c = m.c as f64;
        let k = m.k as f64;
        let d = m.delta as f64;
        let slots = (factor * (c * c / k + c * d / k) * m.lg_n()).ceil() as u64;
        FixedRateSchedule { c: m.c as u16, slots: slots.max(1), tx_probability: (c / d).min(1.0) }
    }

    /// Total slots.
    pub fn total_slots(&self) -> u64 {
        self.slots
    }
}

/// Fixed-rate uniform-hopping discovery (`Õ(c²/k + cΔ/k)`-class baseline).
#[derive(Debug, Clone)]
pub struct FixedRateDiscovery {
    id: NodeId,
    sched: FixedRateSchedule,
    slot: u64,
    heard: BTreeMap<NodeId, u64>,
}

impl FixedRateDiscovery {
    /// Creates a fixed-rate discovery instance for node `id`.
    pub fn new(id: NodeId, sched: FixedRateSchedule) -> Self {
        FixedRateDiscovery { id, sched, slot: 0, heard: BTreeMap::new() }
    }
}

impl FixedRateDiscovery {
    /// The act body, generic over the random source so the scalar and
    /// batched paths share one implementation.
    fn act_any<R: RngCore>(&mut self, ctx: &mut SlotCtx<'_, R>) -> Action<NodeId> {
        if self.slot >= self.sched.slots {
            return Action::Sleep;
        }
        let channel = LocalChannel(ctx.rng.gen_range(0..self.sched.c));
        if ctx.rng.gen_bool(0.5) {
            if ctx.rng.gen_bool(self.sched.tx_probability) {
                Action::Broadcast { channel, message: self.id }
            } else {
                Action::Sleep
            }
        } else {
            Action::Listen { channel }
        }
    }

    /// Guaranteed draws per live slot: channel choice + role coin (the
    /// transmission coin is data-dependent on the role and falls through).
    fn min_draws(&self) -> usize {
        if self.slot >= self.sched.slots {
            0
        } else {
            2
        }
    }

    /// The feedback body, generic over the random source so the scalar and
    /// batched delivery paths share one implementation (it draws nothing).
    fn feedback_any<R: RngCore>(&mut self, ctx: &mut SlotCtx<'_, R>, fb: Feedback<'_, NodeId>) {
        if let Feedback::Heard(id) = fb {
            self.heard.entry(*id).or_insert(ctx.slot.0);
        }
        self.slot += 1;
    }
}

impl Protocol for FixedRateDiscovery {
    type Message = NodeId;
    type Output = DiscoveryOutput;

    fn act(&mut self, ctx: &mut SlotCtx<'_>) -> Action<NodeId> {
        self.act_any(ctx)
    }

    fn act_batch(batch: &mut [Self], ctx: &mut BatchCtx<'_>, out: &mut Vec<Action<NodeId>>) {
        act_batch_buffered(batch, ctx, out, |p| p.min_draws(), |p, sctx| p.act_any(sctx));
    }

    fn feedback(&mut self, ctx: &mut SlotCtx<'_>, fb: Feedback<'_, NodeId>) {
        self.feedback_any(ctx, fb);
    }

    fn feedback_batch(batch: &mut [Self], ctx: &mut BatchCtx<'_>, fb: FeedbackBatch<'_, NodeId>) {
        // Reserve 0 exactly: the feedback body never draws.
        feedback_batch_buffered(batch, ctx, fb, |_| 0, |p, sctx, f| p.feedback_any(sctx, f));
    }

    fn is_complete(&self) -> bool {
        self.slot >= self.sched.slots
    }

    fn into_output(self) -> DiscoveryOutput {
        DiscoveryOutput {
            id: self.id,
            neighbors: self.heard.keys().copied().collect(),
            first_heard: self.heard.iter().map(|(&v, &t)| (v, t)).collect(),
            counts: Vec::new(),
            history: None,
        }
    }
}

impl DiscoveryProtocol for FixedRateDiscovery {
    fn discovered_count(&self) -> usize {
        self.heard.len()
    }
    fn has_discovered(&self, v: NodeId) -> bool {
        self.heard.contains_key(&v)
    }
}

/// Output of a global-broadcast protocol at one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BroadcastOutput {
    /// The node.
    pub id: NodeId,
    /// The payload, if it arrived.
    pub payload: Option<u64>,
    /// Slot at which the payload arrived (0 for the source).
    pub informed_at: Option<u64>,
}

/// Naive global broadcast (§1's strawman): every slot every node hops to a
/// uniformly random channel; informed nodes transmit the payload with
/// probability 1/2, uninformed nodes listen.
#[derive(Debug, Clone)]
pub struct NaiveBroadcast {
    id: NodeId,
    c: u16,
    slots: u64,
    slot: u64,
    payload: Option<u64>,
    informed_at: Option<u64>,
}

impl NaiveBroadcast {
    /// Creates a participant; `payload` is `Some` only at the source.
    pub fn new(id: NodeId, c: u16, slots: u64, payload: Option<u64>) -> Self {
        NaiveBroadcast { id, c, slots, slot: 0, informed_at: payload.map(|_| 0), payload }
    }

    /// Schedule length for model `m`: `⌈factor·(c²/k)·D·lg n⌉` slots.
    pub fn schedule_slots(m: &ModelInfo, diameter: u64, factor: f64) -> u64 {
        m.validate();
        let c = m.c as f64;
        ((factor * c * c / m.k as f64 * diameter.max(1) as f64 * m.lg_n()).ceil() as u64).max(1)
    }

    /// Whether this node holds the payload.
    pub fn is_informed(&self) -> bool {
        self.payload.is_some()
    }

    /// The act body, generic over the random source so the scalar and
    /// batched paths share one implementation.
    fn act_any<R: RngCore>(&mut self, ctx: &mut SlotCtx<'_, R>) -> Action<u64> {
        if self.slot >= self.slots {
            return Action::Sleep;
        }
        let channel = LocalChannel(ctx.rng.gen_range(0..self.c));
        match self.payload {
            Some(data) => {
                if ctx.rng.gen_bool(0.5) {
                    Action::Broadcast { channel, message: data }
                } else {
                    Action::Sleep
                }
            }
            None => Action::Listen { channel },
        }
    }

    /// NaiveBroadcast's per-slot draw count is *exact* from state alone:
    /// channel choice plus, when informed, the transmission coin.
    fn draws_this_slot(&self) -> usize {
        if self.slot >= self.slots {
            0
        } else {
            1 + self.payload.is_some() as usize
        }
    }

    /// The feedback body, generic over the random source so the scalar and
    /// batched delivery paths share one implementation (it draws nothing).
    fn feedback_any<R: RngCore>(&mut self, ctx: &mut SlotCtx<'_, R>, fb: Feedback<'_, u64>) {
        if let Feedback::Heard(data) = fb {
            if self.payload.is_none() {
                self.payload = Some(*data);
                self.informed_at = Some(ctx.slot.0 + 1);
            }
        }
        self.slot += 1;
    }
}

impl Protocol for NaiveBroadcast {
    type Message = u64;
    type Output = BroadcastOutput;

    fn act(&mut self, ctx: &mut SlotCtx<'_>) -> Action<u64> {
        self.act_any(ctx)
    }

    fn act_batch(batch: &mut [Self], ctx: &mut BatchCtx<'_>, out: &mut Vec<Action<u64>>) {
        act_batch_buffered(batch, ctx, out, |p| p.draws_this_slot(), |p, sctx| p.act_any(sctx));
    }

    fn feedback(&mut self, ctx: &mut SlotCtx<'_>, fb: Feedback<'_, u64>) {
        self.feedback_any(ctx, fb);
    }

    fn feedback_batch(batch: &mut [Self], ctx: &mut BatchCtx<'_>, fb: FeedbackBatch<'_, u64>) {
        // Reserve 0 exactly: the feedback body never draws.
        feedback_batch_buffered(batch, ctx, fb, |_| 0, |p, sctx, f| p.feedback_any(sctx, f));
    }

    fn is_complete(&self) -> bool {
        self.slot >= self.slots
    }

    fn into_output(self) -> BroadcastOutput {
        BroadcastOutput { id: self.id, payload: self.payload, informed_at: self.informed_at }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discovery::{outputs_complete, outputs_sound};
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
    fn naive_discovery_completes_on_small_net() {
        let net =
            build_net(&Topology::Path { n: 5 }, &ChannelModel::SharedCore { c: 3, core: 2 }, 1);
        let m = ModelInfo::from_stats(&net.stats());
        let sched = NaiveDiscoverySchedule::new(&m, 8.0);
        let mut eng = Engine::new(&net, 9, |ctx| NaiveDiscovery::new(ctx.id, sched));
        let out = eng.run_to_completion(sched.total_slots());
        assert!(out.all_protocols_done);
        let outs = eng.into_outputs();
        assert!(outputs_sound(&net, &outs));
        assert!(outputs_complete(&net, &outs));
    }

    #[test]
    fn fixed_rate_discovery_completes_on_small_net() {
        let net = build_net(&Topology::Star { leaves: 6 }, &ChannelModel::Identical { c: 3 }, 2);
        let m = ModelInfo::from_stats(&net.stats());
        let sched = FixedRateSchedule::new(&m, 6.0);
        let mut eng = Engine::new(&net, 9, |ctx| FixedRateDiscovery::new(ctx.id, sched));
        eng.run_to_completion(sched.total_slots());
        let outs = eng.into_outputs();
        assert!(outputs_sound(&net, &outs));
        assert!(outputs_complete(&net, &outs));
    }

    #[test]
    fn fixed_rate_tx_probability_tracks_c_over_delta() {
        let m = ModelInfo { n: 64, c: 4, delta: 16, k: 2, kmax: 2 };
        let sched = FixedRateSchedule::new(&m, 1.0);
        assert!((sched.tx_probability - 0.25).abs() < 1e-12);
        let m2 = ModelInfo { n: 64, c: 16, delta: 4, k: 2, kmax: 2 };
        assert_eq!(FixedRateSchedule::new(&m2, 1.0).tx_probability, 1.0);
    }

    #[test]
    fn naive_broadcast_reaches_everyone_on_path() {
        let net =
            build_net(&Topology::Path { n: 4 }, &ChannelModel::SharedCore { c: 3, core: 2 }, 3);
        let m = ModelInfo::from_stats(&net.stats());
        let slots = NaiveBroadcast::schedule_slots(&m, 3, 4.0);
        let mut eng = Engine::new(&net, 5, |ctx| {
            NaiveBroadcast::new(ctx.id, m.c as u16, slots, (ctx.id == NodeId(0)).then_some(42))
        });
        eng.run_to_completion(slots);
        let outs = eng.into_outputs();
        for o in &outs {
            assert_eq!(o.payload, Some(42), "node {} missed the payload", o.id);
        }
        // Informed-at times are monotone in hop distance on average; at
        // least the source is first.
        assert_eq!(outs[0].informed_at, Some(0));
        assert!(outs[3].informed_at.unwrap() >= outs[0].informed_at.unwrap());
    }

    #[test]
    fn broadcast_informed_at_is_delivery_slot() {
        let net = build_net(&Topology::Path { n: 2 }, &ChannelModel::Identical { c: 1 }, 4);
        let mut eng = Engine::new(&net, 5, |ctx| {
            NaiveBroadcast::new(ctx.id, 1, 64, (ctx.id == NodeId(0)).then_some(1))
        });
        let mut probe =
            |_s: u64, e: &Engine<'_, NaiveBroadcast>| e.protocol(NodeId(1)).is_informed();
        let out = eng.run(64, Some((1, &mut probe)));
        assert!(out.completed_at.is_some());
        let informed_at = eng.protocol(NodeId(1)).informed_at.unwrap();
        assert_eq!(informed_at, out.completed_at.unwrap());
    }

    #[test]
    fn naive_schedule_scales_with_delta() {
        let m = ModelInfo { n: 64, c: 4, delta: 4, k: 2, kmax: 2 };
        let base = NaiveDiscoverySchedule::new(&m, 1.0);
        let m2 = ModelInfo { delta: 8, ..m };
        let double = NaiveDiscoverySchedule::new(&m2, 1.0);
        assert_eq!(double.steps, base.steps * 2);
    }
}

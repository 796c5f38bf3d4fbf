//! CSEEK: two-part randomized neighbor discovery (paper §4.2–4.3), and the
//! reusable schedule core shared by CKSEEK and CGCAST.
//!
//! **Part one** (`Θ((c²/k)·lg n)` steps, each one COUNT long): every step,
//! each node tunes to a uniformly random channel and flips a coin to be
//! broadcaster or listener, then runs [`CountInstance`] on that channel.
//! Listeners accumulate the per-channel density estimates and record any
//! identities heard. By Lemma 2, neighbors overlapping on *uncrowded*
//! channels are discovered here.
//!
//! **Part two** (`Θ((kmax/k)·Δ·lg n)` steps, each `lg Δ` slots): every step,
//! broadcasters pick a uniform channel and run a back-off transmission
//! sweep; listeners pick a channel **proportionally to the density counts
//! from part one** and listen. By Lemma 3, neighbors overlapping on crowded
//! channels are discovered here — the density-weighted choice is the
//! paper's key idea (ablation A1 disables it).
//!
//! [`SeekCore`] exposes the channel/role/timing machinery without fixing
//! the message payload, so CGCAST can reuse full CSEEK executions as its
//! "each pair of neighbors exchanges one message" primitive (paper §5.1).

use crate::count::{CountInstance, Role};
use crate::discovery::{DiscoveryOutput, DiscoveryProtocol};
use crate::params::SeekSchedule;
use crn_sim::{Action, Feedback, LocalChannel, NodeId, Protocol, SlotCtx};
use rand::{Rng, RngCore};
use std::collections::BTreeMap;

/// Which part of the CSEEK schedule is executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeekPhase {
    /// Density-sampling part (uniform hopping + COUNT).
    PartOne,
    /// Density-weighted part (back-off steps).
    PartTwo,
    /// Schedule exhausted.
    Done,
}

/// What the schedule core wants to do this slot. The caller attaches the
/// message payload (identity, color lists, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeekSlotPlan {
    /// Transmit on `channel` this slot.
    Transmit {
        /// Channel to transmit on.
        channel: LocalChannel,
    },
    /// Broadcaster role but silent this slot (radio idle).
    HoldFire {
        /// Channel the broadcaster is camped on.
        channel: LocalChannel,
    },
    /// Listen on `channel`.
    Listen {
        /// Channel to listen on.
        channel: LocalChannel,
    },
}

impl SeekSlotPlan {
    /// The channel of this plan.
    pub fn channel(&self) -> LocalChannel {
        match *self {
            SeekSlotPlan::Transmit { channel }
            | SeekSlotPlan::HoldFire { channel }
            | SeekSlotPlan::Listen { channel } => channel,
        }
    }
}

/// The CSEEK schedule state machine: channel choices, roles, COUNT
/// embedding, density table and back-off timing — everything except message
/// contents. Drive with one [`SeekCore::plan_slot`] +
/// [`SeekCore::finish_slot`] pair per slot.
#[derive(Debug, Clone)]
pub struct SeekCore {
    sched: SeekSchedule,
    phase: SeekPhase,
    step: u64,
    slot_in_step: u32,
    role: Role,
    channel: LocalChannel,
    count: Option<CountInstance>,
    counts: Vec<u64>,
    counts_sum: u64,
    step_initialized: bool,
}

impl SeekCore {
    /// Creates a fresh core for one execution of `sched`.
    pub fn new(sched: SeekSchedule) -> SeekCore {
        assert!(sched.c >= 1, "need at least one channel");
        SeekCore {
            counts: vec![0; sched.c as usize],
            sched,
            phase: SeekPhase::PartOne,
            step: 0,
            slot_in_step: 0,
            role: Role::Listener,
            channel: LocalChannel(0),
            count: None,
            counts_sum: 0,
            step_initialized: false,
        }
    }

    /// The schedule driving this core.
    pub fn schedule(&self) -> &SeekSchedule {
        &self.sched
    }

    /// Current phase.
    pub fn phase(&self) -> SeekPhase {
        self.phase
    }

    /// `true` once the whole schedule has run.
    pub fn is_done(&self) -> bool {
        self.phase == SeekPhase::Done
    }

    /// The per-channel density estimates accumulated during part one.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Current role (meaningful after the step has been initialized).
    pub fn role(&self) -> Role {
        self.role
    }

    /// Plans the current slot, drawing from the node's private `rng`;
    /// returns `None` once the schedule is done.
    pub fn plan_slot<R: RngCore>(&mut self, rng: &mut R) -> Option<SeekSlotPlan> {
        if self.phase == SeekPhase::Done {
            return None;
        }
        if !self.step_initialized {
            self.init_step(rng);
        }
        let plan = match self.phase {
            SeekPhase::PartOne => match self.role {
                Role::Broadcaster => {
                    let ci = self.count.as_ref().expect("COUNT active in part one");
                    if ci.should_broadcast(rng) {
                        SeekSlotPlan::Transmit { channel: self.channel }
                    } else {
                        SeekSlotPlan::HoldFire { channel: self.channel }
                    }
                }
                Role::Listener => SeekSlotPlan::Listen { channel: self.channel },
            },
            SeekPhase::PartTwo => match self.role {
                Role::Broadcaster => {
                    // Back-off sweep: in slot j (0-based) of an L-slot step,
                    // transmit with probability 1/2^(L−j) — the pseudocode's
                    // `random(1, 2^j) == 1` with j counting down (Figure 1).
                    let l = self.sched.part2_slots_per_step;
                    let exp = (l - self.slot_in_step).min(62);
                    if rng.gen_bool(1.0 / (1u64 << exp) as f64) {
                        SeekSlotPlan::Transmit { channel: self.channel }
                    } else {
                        SeekSlotPlan::HoldFire { channel: self.channel }
                    }
                }
                Role::Listener => SeekSlotPlan::Listen { channel: self.channel },
            },
            SeekPhase::Done => unreachable!(),
        };
        Some(plan)
    }

    /// Feeds the listen result of this slot back into the embedded COUNT
    /// (only meaningful for part-one listeners; no-op otherwise).
    pub fn record_heard(&mut self, heard: bool) {
        if self.phase == SeekPhase::PartOne && self.role == Role::Listener {
            if let Some(ci) = self.count.as_mut() {
                ci.record_listen(heard);
            }
        }
    }

    /// Advances the slot clock; call exactly once per slot after
    /// [`SeekCore::plan_slot`] (and [`SeekCore::record_heard`] for
    /// listeners).
    pub fn finish_slot(&mut self) {
        match self.phase {
            SeekPhase::PartOne => {
                let ci = self.count.as_mut().expect("COUNT active in part one");
                ci.finish_slot();
                if ci.is_done() {
                    if self.role == Role::Listener {
                        let est = ci.estimate();
                        self.counts[self.channel.index()] += est;
                        self.counts_sum += est;
                    }
                    self.count = None;
                    self.step += 1;
                    self.step_initialized = false;
                    if self.step == self.sched.part1_steps {
                        self.phase = SeekPhase::PartTwo;
                        self.step = 0;
                    }
                }
            }
            SeekPhase::PartTwo => {
                self.slot_in_step += 1;
                if self.slot_in_step == self.sched.part2_slots_per_step {
                    self.slot_in_step = 0;
                    self.step += 1;
                    self.step_initialized = false;
                    if self.step == self.sched.part2_steps {
                        self.phase = SeekPhase::Done;
                    }
                }
            }
            SeekPhase::Done => panic!("finish_slot on a finished SeekCore"),
        }
    }

    fn init_step<R: RngCore>(&mut self, rng: &mut R) {
        self.step_initialized = true;
        self.role = if rng.gen_bool(0.5) { Role::Broadcaster } else { Role::Listener };
        match self.phase {
            SeekPhase::PartOne => {
                self.channel = LocalChannel(rng.gen_range(0..self.sched.c));
                self.count = Some(CountInstance::new(self.sched.count, self.role));
            }
            SeekPhase::PartTwo => {
                self.slot_in_step = 0;
                self.channel = match self.role {
                    Role::Broadcaster => LocalChannel(rng.gen_range(0..self.sched.c)),
                    Role::Listener => self.pick_listener_channel(rng),
                };
            }
            SeekPhase::Done => unreachable!(),
        }
    }

    /// Part-two listener channel choice: proportional to part-one densities
    /// (`x_ch / Σ x_ch'`, Figure 1 lines 16–18); uniform when no densities
    /// were collected or in the A1 ablation.
    fn pick_listener_channel<R: RngCore>(&self, rng: &mut R) -> LocalChannel {
        if self.sched.uniform_listener || self.counts_sum == 0 {
            return LocalChannel(rng.gen_range(0..self.sched.c));
        }
        let mut rnd = rng.gen_range(0..self.counts_sum);
        for (ch, &x) in self.counts.iter().enumerate() {
            if rnd < x {
                return LocalChannel(ch as u16);
            }
            rnd -= x;
        }
        unreachable!("weighted choice must land inside the total")
    }

    /// Total slots this core will consume.
    pub fn total_slots(&self) -> u64 {
        self.sched.total_slots()
    }
}

/// The CSEEK neighbor-discovery protocol (Theorem 4). Also runs CKSEEK when
/// constructed with [`crate::params::SeekParams::kseek_schedule`]
/// (Theorem 6) — the state machine is identical, only the schedule lengths
/// differ (paper §4.4).
#[derive(Debug, Clone)]
pub struct CSeek {
    id: NodeId,
    core: SeekCore,
    /// neighbor id -> first slot heard.
    heard: BTreeMap<NodeId, u64>,
    history: Option<Vec<LocalChannel>>,
}

impl CSeek {
    /// Creates a CSEEK instance for node `id`. When `record_history` is
    /// set, the node remembers which local channel it was tuned to in every
    /// slot (CGCAST needs this for the dedicated-channel agreement).
    pub fn new(id: NodeId, sched: SeekSchedule, record_history: bool) -> CSeek {
        let capacity = if record_history { sched.total_slots() as usize } else { 0 };
        CSeek {
            id,
            core: SeekCore::new(sched),
            heard: BTreeMap::new(),
            history: record_history.then(|| Vec::with_capacity(capacity)),
        }
    }

    /// Identities heard so far with their first-heard slots.
    pub fn heard(&self) -> &BTreeMap<NodeId, u64> {
        &self.heard
    }

    /// The underlying schedule core (densities, phase, …).
    pub fn core(&self) -> &SeekCore {
        &self.core
    }
}

impl Protocol for CSeek {
    type Message = NodeId;
    type Output = DiscoveryOutput;

    fn act(&mut self, ctx: &mut SlotCtx<'_>) -> Action<NodeId> {
        match self.core.plan_slot(ctx.rng) {
            None => Action::Sleep,
            Some(plan) => {
                if let Some(h) = self.history.as_mut() {
                    h.push(plan.channel());
                }
                match plan {
                    SeekSlotPlan::Transmit { channel } => {
                        Action::Broadcast { channel, message: self.id }
                    }
                    SeekSlotPlan::HoldFire { .. } => Action::Sleep,
                    SeekSlotPlan::Listen { channel } => Action::Listen { channel },
                }
            }
        }
    }

    fn feedback(&mut self, ctx: &mut SlotCtx<'_>, fb: Feedback<'_, NodeId>) {
        if self.core.is_done() {
            return;
        }
        match fb {
            Feedback::Heard(id) => {
                self.heard.entry(*id).or_insert(ctx.slot.0);
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

    fn into_output(self) -> DiscoveryOutput {
        DiscoveryOutput {
            id: self.id,
            neighbors: self.heard.keys().copied().collect(),
            first_heard: self.heard.iter().map(|(&v, &t)| (v, t)).collect(),
            counts: self.core.counts.clone(),
            history: self.history,
        }
    }
}

impl DiscoveryProtocol for CSeek {
    fn discovered_count(&self) -> usize {
        self.heard.len()
    }

    fn has_discovered(&self, v: NodeId) -> bool {
        self.heard.contains_key(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discovery::{outputs_complete, outputs_sound};
    use crate::params::{ModelInfo, SeekParams};
    use crn_sim::channels::{shuffle_local_labels, ChannelModel};
    use crn_sim::rng::stream_rng;
    use crn_sim::topology::Topology;
    use crn_sim::{Engine, Network};

    fn build_net(topo: &Topology, model: &ChannelModel, seed: u64) -> Network {
        let mut rng = stream_rng(seed, 999);
        let n = topo.num_nodes();
        let mut sets = model.assign(n, &mut rng);
        shuffle_local_labels(&mut sets, &mut rng);
        let mut b = Network::builder(n);
        for (v, set) in sets.into_iter().enumerate() {
            b.set_channels(NodeId(v as u32), set);
        }
        b.add_edges(topo.edges(&mut rng).into_iter().map(|(a, x)| (NodeId(a), NodeId(x))));
        b.build().unwrap()
    }

    fn run_cseek(net: &Network, seed: u64) -> Vec<DiscoveryOutput> {
        let m = ModelInfo::from_stats(&net.stats());
        let sched = SeekParams::default().schedule(&m);
        let mut eng = Engine::new(net, seed, |ctx| CSeek::new(ctx.id, sched, false));
        let out = eng.run_to_completion(sched.total_slots() + 1);
        assert!(out.all_protocols_done, "fixed schedule must finish");
        assert_eq!(out.slots_run, sched.total_slots(), "lockstep schedule length");
        eng.into_outputs()
    }

    #[test]
    fn two_nodes_discover_each_other() {
        let net =
            build_net(&Topology::Path { n: 2 }, &ChannelModel::SharedCore { c: 4, core: 2 }, 3);
        let outs = run_cseek(&net, 17);
        assert!(outputs_sound(&net, &outs));
        assert!(outputs_complete(&net, &outs));
        assert_eq!(outs[0].neighbors, vec![NodeId(1)]);
        assert_eq!(outs[1].neighbors, vec![NodeId(0)]);
    }

    #[test]
    fn path_discovery_is_complete() {
        let net =
            build_net(&Topology::Path { n: 8 }, &ChannelModel::SharedCore { c: 4, core: 2 }, 5);
        let outs = run_cseek(&net, 11);
        assert!(outputs_sound(&net, &outs));
        assert!(outputs_complete(&net, &outs));
    }

    #[test]
    fn star_with_identical_channels_is_complete() {
        // Identical channels = max contention; part two must resolve it.
        let net = build_net(&Topology::Star { leaves: 8 }, &ChannelModel::Identical { c: 3 }, 7);
        let outs = run_cseek(&net, 23);
        assert!(outputs_sound(&net, &outs));
        assert!(outputs_complete(&net, &outs));
    }

    #[test]
    fn grouped_overlap_discovery_is_complete() {
        let net = build_net(
            &Topology::Grid { rows: 3, cols: 3 },
            &ChannelModel::GroupOverlay { c: 6, k: 2, kmax: 4, groups: 3 },
            9,
        );
        assert_eq!(net.stats().k, 2);
        assert_eq!(net.stats().kmax, 4);
        let outs = run_cseek(&net, 31);
        assert!(outputs_sound(&net, &outs));
        assert!(outputs_complete(&net, &outs));
    }

    #[test]
    fn label_shuffles_do_not_change_completeness() {
        for seed in 0..3 {
            let net = build_net(
                &Topology::Cycle { n: 6 },
                &ChannelModel::SharedCore { c: 5, core: 2 },
                100 + seed,
            );
            let outs = run_cseek(&net, 41 + seed);
            assert!(outputs_complete(&net, &outs), "seed {seed}");
        }
    }

    #[test]
    fn first_heard_slots_are_consistent() {
        let net =
            build_net(&Topology::Path { n: 4 }, &ChannelModel::SharedCore { c: 3, core: 2 }, 13);
        let outs = run_cseek(&net, 53);
        for o in &outs {
            assert_eq!(o.first_heard.len(), o.neighbors.len());
            for (v, t) in &o.first_heard {
                assert!(o.neighbors.contains(v));
                assert!(
                    *t < SeekParams::default()
                        .schedule(&ModelInfo::from_stats(&net.stats()))
                        .total_slots()
                );
            }
        }
    }

    #[test]
    fn history_has_one_entry_per_slot() {
        let net = build_net(&Topology::Path { n: 2 }, &ChannelModel::Identical { c: 2 }, 3);
        let m = ModelInfo::from_stats(&net.stats());
        let sched = SeekParams::default().schedule(&m);
        let mut eng = Engine::new(&net, 2, |ctx| CSeek::new(ctx.id, sched, true));
        eng.run_to_completion(sched.total_slots());
        let outs = eng.into_outputs();
        for o in outs {
            assert_eq!(o.history.unwrap().len() as u64, sched.total_slots());
        }
    }

    #[test]
    fn core_density_counts_reflect_crowding() {
        // Star with one globally shared ("hot") channel and spread cold
        // channels: the hub's densest channel must be the hot one.
        let net = build_net(
            &Topology::Star { leaves: 12 },
            &ChannelModel::CrowdedSplit { c: 4, k: 2, hot: 1, k_hot: 1 },
            21,
        );
        let m = ModelInfo::from_stats(&net.stats());
        let sched = SeekParams::default().schedule(&m);
        let mut eng = Engine::new(&net, 77, |ctx| CSeek::new(ctx.id, sched, false));
        eng.run_to_completion(sched.total_slots());
        // Find the hub's local label for global channel 0 (the hot one).
        let hot_local = net.global_to_local(NodeId(0), crn_sim::GlobalChannel(0)).unwrap();
        let counts = eng.protocol(NodeId(0)).core().counts().to_vec();
        let max_idx = counts.iter().enumerate().max_by_key(|&(_, &x)| x).map(|(i, _)| i).unwrap();
        assert_eq!(
            max_idx,
            hot_local.index(),
            "hub's densest channel should be the hot channel; counts={counts:?}"
        );
    }

    #[test]
    fn weighted_choice_falls_back_to_uniform_when_empty() {
        let m = ModelInfo { n: 8, c: 4, delta: 2, k: 1, kmax: 1 };
        let sched = SeekParams::default().schedule(&m);
        let mut core = SeekCore::new(sched);
        // Force part two with zero counts.
        core.phase = SeekPhase::PartTwo;
        let mut rng = stream_rng(0, 0);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..64 {
            seen.insert(core.pick_listener_channel(&mut rng).0);
        }
        assert_eq!(seen.len(), 4, "uniform fallback should cover all channels");
    }

    #[test]
    fn weighted_choice_respects_density() {
        let m = ModelInfo { n: 8, c: 3, delta: 2, k: 1, kmax: 1 };
        let sched = SeekParams::default().schedule(&m);
        let mut core = SeekCore::new(sched);
        core.phase = SeekPhase::PartTwo;
        core.counts = vec![0, 100, 0];
        core.counts_sum = 100;
        let mut rng = stream_rng(1, 0);
        for _ in 0..32 {
            assert_eq!(core.pick_listener_channel(&mut rng), LocalChannel(1));
        }
    }

    #[test]
    fn schedule_slot_count_matches_actual_run() {
        let m = ModelInfo { n: 8, c: 2, delta: 2, k: 1, kmax: 1 };
        let sched = SeekParams::default().schedule(&m);
        let mut core = SeekCore::new(sched);
        let mut rng = stream_rng(2, 0);
        let mut slots = 0u64;
        while core.plan_slot(&mut rng).is_some() {
            core.record_heard(false);
            core.finish_slot();
            slots += 1;
        }
        assert_eq!(slots, sched.total_slots());
        assert!(core.is_done());
    }
}

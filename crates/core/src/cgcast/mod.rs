//! CGCAST: global broadcast for cognitive radio networks (paper §5,
//! Theorem 9).
//!
//! The protocol is a fixed-length composition of stages; because every
//! stage length is a function of globally-known parameters, all nodes move
//! through the stages in lockstep:
//!
//! 1. **Discover** — one full CSEEK run with identity messages; each node
//!    records, per neighbor, the first slot it heard them and remembers the
//!    channel it was camped on in every slot.
//! 2. **Meta** — a second CSEEK run; messages carry the first-heard slot
//!    table. Each pair of neighbors then agrees on a *dedicated channel*:
//!    the channel used in slot `min{t_{u,v}, t_{v,u}}` (both nodes were on
//!    that same physical channel in that slot, and both can compute the
//!    minimum — paper §5.2).
//! 3. **Coloring** — `Θ(lg n)` phases of the Luby-style node coloring of
//!    the line graph. The virtual node for edge `(u,v)` is simulated by
//!    `min(u,v)`. Each phase has two steps (propose/resolve, then strike),
//!    and each step runs CSEEK **twice**: once to exchange, once to relay,
//!    since adjacent virtual nodes may be simulated by physical nodes two
//!    hops apart.
//! 4. **Inform** — one more CSEEK run in which each simulator tells the
//!    other endpoint the color of their edge.
//! 5. **Disseminate** — `D` phases × `2Δ` steps (one per color) ×
//!    `Θ(lg n)` back-off rounds of `lg Δ` slots. In the step of color `K`,
//!    the endpoints of each `K`-colored edge meet on their dedicated
//!    channel; informed endpoints run a back-off broadcast, uninformed ones
//!    listen. The message advances at least one hop per phase w.h.p.

mod message;
mod output;
pub mod uncolored;

pub use message::GcastMsg;
pub use output::GcastOutput;
pub use uncolored::UncoloredGcast;

use crate::coloring::luby::LubyNodeState;
use crate::count::Role;
use crate::params::GcastSchedule;
use crate::seek::{SeekCore, SeekSlotPlan};
use crn_sim::{Action, Edge, Feedback, LocalChannel, NodeId, Protocol, SlotCtx};
use rand::{Rng, RngCore};
use std::collections::BTreeMap;

/// Which top-level stage of CGCAST is executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Discover,
    Meta,
    /// `run` 0 = exchange, 1 = relay.
    Coloring {
        phase: u64,
        step: u8,
        run: u8,
    },
    Inform,
    Disseminate,
    Done,
}

/// A virtual line-graph node simulated by this physical node (we are the
/// smaller endpoint of `edge`).
#[derive(Debug, Clone)]
struct Virtual {
    edge: Edge,
    peer: NodeId,
    luby: LubyNodeState,
}

/// Position inside the dissemination schedule.
#[derive(Debug, Clone, Copy, Default)]
struct DissemPos {
    phase: u64,
    step: u32,
    round: u64,
    slot: u32,
}

/// The CGCAST protocol state machine for one node.
#[derive(Debug, Clone)]
pub struct CGCast {
    id: NodeId,
    sched: GcastSchedule,
    stage: Stage,
    seek: Option<SeekCore>,
    outgoing: GcastMsg,

    // Discover artifacts.
    heard_first: BTreeMap<NodeId, u64>,
    history: Vec<LocalChannel>,

    // Meta artifacts.
    peer_meta: BTreeMap<NodeId, Vec<(NodeId, u64)>>,
    dedicated: BTreeMap<NodeId, LocalChannel>,

    // Coloring artifacts.
    virtuals: Vec<Virtual>,
    exchange_heard: BTreeMap<Edge, u32>,
    edge_colors: BTreeMap<NodeId, u32>,

    // Dissemination.
    payload: Option<u64>,
    informed_at: Option<u64>,
    pos: DissemPos,
    step_edge: Option<NodeId>,
    step_informed: bool,
}

impl CGCast {
    /// Creates a CGCAST participant. `payload` is `Some` only at the
    /// designated source node.
    pub fn new(id: NodeId, sched: GcastSchedule, payload: Option<u64>) -> CGCast {
        CGCast {
            id,
            sched,
            stage: Stage::Discover,
            seek: Some(SeekCore::new(sched.seek)),
            outgoing: GcastMsg::Id(id),
            heard_first: BTreeMap::new(),
            history: Vec::with_capacity(sched.seek.total_slots() as usize),
            peer_meta: BTreeMap::new(),
            dedicated: BTreeMap::new(),
            virtuals: Vec::new(),
            exchange_heard: BTreeMap::new(),
            edge_colors: BTreeMap::new(),
            informed_at: payload.map(|_| 0),
            payload,
            pos: DissemPos::default(),
            step_edge: None,
            step_informed: false,
        }
    }

    /// `true` once this node holds the broadcast payload.
    pub fn is_informed(&self) -> bool {
        self.payload.is_some()
    }

    /// Neighbors discovered in stage 1.
    pub fn discovered(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.heard_first.keys().copied()
    }

    /// Neighbors with an agreed dedicated channel.
    pub fn dedicated_count(&self) -> usize {
        self.dedicated.len()
    }

    /// Colors known for incident edges (own simulated + told by peers).
    pub fn known_colors(&self) -> &BTreeMap<NodeId, u32> {
        &self.edge_colors
    }

    // ------------------------------------------------------------------
    // Stage transitions
    // ------------------------------------------------------------------

    fn advance_after_seek<R: RngCore>(&mut self, rng: &mut R) {
        match self.stage {
            Stage::Discover => {
                self.outgoing = GcastMsg::Meta {
                    from: self.id,
                    first_heard: self.heard_first.iter().map(|(&v, &t)| (v, t)).collect(),
                };
                self.stage = Stage::Meta;
                self.seek = Some(SeekCore::new(self.sched.seek));
            }
            Stage::Meta => {
                self.compute_dedicated();
                self.build_virtuals();
                self.begin_coloring_step(0, 0, rng);
            }
            Stage::Coloring { phase, step, run } => {
                if run == 0 {
                    // Relay run: rebroadcast own entries plus everything
                    // heard during the exchange run.
                    let mut entries: BTreeMap<Edge, u32> = self.exchange_heard.clone();
                    for (e, c) in self.own_entries(step) {
                        entries.insert(e, c);
                    }
                    let entries: Vec<(Edge, u32)> = entries.into_iter().collect();
                    self.outgoing = if step == 0 {
                        GcastMsg::Proposals { entries }
                    } else {
                        GcastMsg::Decisions { entries }
                    };
                    self.stage = Stage::Coloring { phase, step, run: 1 };
                    self.seek = Some(SeekCore::new(self.sched.seek));
                } else if step == 0 {
                    self.resolve_proposals();
                    self.begin_coloring_step(phase, 1, rng);
                } else {
                    self.strike_decided_colors();
                    if phase + 1 < self.sched.coloring_phases {
                        self.begin_coloring_step(phase + 1, 0, rng);
                    } else {
                        self.begin_inform();
                    }
                }
            }
            Stage::Inform => {
                self.stage = Stage::Disseminate;
                self.seek = None;
                self.pos = DissemPos::default();
                self.init_dissem_step();
            }
            Stage::Disseminate | Stage::Done => unreachable!("not seek-driven"),
        }
    }

    fn begin_coloring_step<R: RngCore>(&mut self, phase: u64, step: u8, rng: &mut R) {
        if self.sched.coloring_phases == 0 {
            self.begin_inform();
            return;
        }
        self.exchange_heard.clear();
        if step == 0 {
            // Step 1 opening move: active virtual nodes propose.
            for v in &mut self.virtuals {
                v.luby.propose(rng);
            }
        }
        let entries = self.own_entries(step);
        self.outgoing = if step == 0 {
            GcastMsg::Proposals { entries }
        } else {
            GcastMsg::Decisions { entries }
        };
        self.stage = Stage::Coloring { phase, step, run: 0 };
        self.seek = Some(SeekCore::new(self.sched.seek));
    }

    /// The entries this node contributes in a coloring step: proposals of
    /// its active virtual nodes (step 0) or all colors its virtual nodes
    /// have decided so far (step 1; idempotent to re-announce).
    fn own_entries(&self, step: u8) -> Vec<(Edge, u32)> {
        if step == 0 {
            self.virtuals.iter().filter_map(|v| v.luby.proposal().map(|c| (v.edge, c))).collect()
        } else {
            self.virtuals.iter().filter_map(|v| v.luby.decided().map(|c| (v.edge, c))).collect()
        }
    }

    fn begin_inform(&mut self) {
        // Record the colors of our own simulated edges, then tell peers.
        let mut entries = Vec::new();
        for v in &self.virtuals {
            if let Some(c) = v.luby.decided() {
                self.edge_colors.insert(v.peer, c);
                entries.push((v.edge, c));
            }
        }
        self.outgoing = GcastMsg::EdgeColors { entries };
        self.stage = Stage::Inform;
        self.seek = Some(SeekCore::new(self.sched.seek));
    }

    /// Dedicated-channel agreement (paper §5.2): both endpoints of an edge
    /// were tuned to the same physical channel in slot
    /// `min{t_{u,v}, t_{v,u}}` of the Discover run; each remembers its own
    /// local label for it.
    ///
    /// Each side evaluates the minimum over the *defined* timestamps: its
    /// own first-heard slot (if any) and the peer's (read from the Meta
    /// message — absence of an entry means the peer never heard us, i.e.
    /// `∞`). Both sides see the same pair of options once the Metas are
    /// exchanged, so they agree on the minimum.
    fn compute_dedicated(&mut self) {
        for (&v, list) in &self.peer_meta {
            let t_uv = self.heard_first.get(&v).copied();
            let t_vu = list.iter().find(|(w, _)| *w == self.id).map(|&(_, t)| t);
            let t_star = match (t_uv, t_vu) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => continue,
            } as usize;
            debug_assert!(t_star < self.history.len());
            self.dedicated.insert(v, self.history[t_star]);
        }
    }

    /// We simulate the virtual line-graph node of every usable incident
    /// edge whose smaller endpoint we are.
    fn build_virtuals(&mut self) {
        let palette = self.sched.palette;
        for &peer in self.dedicated.keys() {
            if self.id < peer {
                self.virtuals.push(Virtual {
                    edge: Edge::new(self.id, peer),
                    peer,
                    luby: LubyNodeState::new(palette),
                });
            }
        }
    }

    /// End of a step-0 exchange pair: gather every proposal visible for
    /// each virtual node (radio-heard entries plus the proposals of our own
    /// other virtual nodes) and run the symmetric conflict resolution.
    fn resolve_proposals(&mut self) {
        // Snapshot proposals before any resolve() clears them.
        let mut all: Vec<(Edge, u32)> = self.exchange_heard.iter().map(|(&e, &c)| (e, c)).collect();
        all.extend(self.virtuals.iter().filter_map(|v| v.luby.proposal().map(|c| (v.edge, c))));
        for v in &mut self.virtuals {
            let neigh: Vec<u32> = all
                .iter()
                .filter(|(e, _)| *e != v.edge && e.shares_endpoint(v.edge))
                .map(|&(_, c)| c)
                .collect();
            v.luby.resolve(&neigh);
        }
    }

    /// End of a step-1 exchange pair: strike the colors decided by adjacent
    /// virtual nodes from every active palette.
    fn strike_decided_colors(&mut self) {
        let mut all: Vec<(Edge, u32)> = self.exchange_heard.iter().map(|(&e, &c)| (e, c)).collect();
        all.extend(self.virtuals.iter().filter_map(|v| v.luby.decided().map(|c| (v.edge, c))));
        for v in &mut self.virtuals {
            let decided: Vec<u32> = all
                .iter()
                .filter(|(e, _)| *e != v.edge && e.shares_endpoint(v.edge))
                .map(|&(_, c)| c)
                .collect();
            v.luby.remove_colors(&decided);
        }
    }

    // ------------------------------------------------------------------
    // Message handling
    // ------------------------------------------------------------------

    fn process_message(&mut self, slot: u64, msg: GcastMsg) {
        match (self.stage, msg) {
            (Stage::Discover, GcastMsg::Id(v)) => {
                self.heard_first.entry(v).or_insert(slot);
            }
            (Stage::Meta, GcastMsg::Meta { from, first_heard }) => {
                self.peer_meta.entry(from).or_insert(first_heard);
            }
            (Stage::Coloring { step: 0, .. }, GcastMsg::Proposals { entries })
            | (Stage::Coloring { step: 1, .. }, GcastMsg::Decisions { entries }) => {
                for (e, c) in entries {
                    self.exchange_heard.insert(e, c);
                }
            }
            (Stage::Inform, GcastMsg::EdgeColors { entries }) => {
                for (e, c) in entries {
                    if e.touches(self.id) {
                        self.edge_colors.insert(e.other(self.id), c);
                    }
                }
            }
            // Message type from a mismatched stage: impossible in lockstep
            // executions; ignore defensively.
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Dissemination
    // ------------------------------------------------------------------

    /// At a step boundary, bind the step to (at most) one incident edge:
    /// the one whose color equals the step index and whose dedicated
    /// channel is agreed. Also freeze the informed/listening role for the
    /// step (paper: informed nodes broadcast, uninformed listen).
    fn init_dissem_step(&mut self) {
        let color = self.pos.step;
        self.step_edge = self
            .edge_colors
            .iter()
            .find(|&(peer, &c)| c == color && self.dedicated.contains_key(peer))
            .map(|(&peer, _)| peer);
        self.step_informed = self.payload.is_some();
    }

    fn dissem_act(&mut self, ctx: &mut SlotCtx<'_>) -> Action<GcastMsg> {
        let Some(peer) = self.step_edge else {
            return Action::Sleep;
        };
        let channel = self.dedicated[&peer];
        if self.step_informed {
            let l = self.sched.dissem_slots_per_round;
            let exp = (l - self.pos.slot).min(62);
            if ctx.rng.gen_bool(1.0 / (1u64 << exp) as f64) {
                Action::Broadcast {
                    channel,
                    message: GcastMsg::Data(self.payload.expect("informed step role")),
                }
            } else {
                Action::Sleep
            }
        } else {
            Action::Listen { channel }
        }
    }

    fn dissem_feedback(&mut self, ctx: &mut SlotCtx<'_>, fb: Feedback<'_, GcastMsg>) {
        if let Feedback::Heard(GcastMsg::Data(x)) = fb {
            if self.payload.is_none() {
                self.payload = Some(*x);
                self.informed_at = Some(ctx.slot.0);
            }
        }
        // Advance slot -> round -> step -> phase.
        self.pos.slot += 1;
        if self.pos.slot == self.sched.dissem_slots_per_round {
            self.pos.slot = 0;
            self.pos.round += 1;
            if self.pos.round == self.sched.dissem_rounds {
                self.pos.round = 0;
                self.pos.step += 1;
                if self.pos.step as u64 == self.sched.palette as u64 {
                    self.pos.step = 0;
                    self.pos.phase += 1;
                    if self.pos.phase == self.sched.dissem_phases {
                        self.stage = Stage::Done;
                        return;
                    }
                }
                self.init_dissem_step();
            }
        }
    }
}

impl Protocol for CGCast {
    type Message = GcastMsg;
    type Output = GcastOutput;

    fn act(&mut self, ctx: &mut SlotCtx<'_>) -> Action<GcastMsg> {
        match self.stage {
            Stage::Done => Action::Sleep,
            Stage::Disseminate => self.dissem_act(ctx),
            _ => {
                let seek = self.seek.as_mut().expect("seek active in seek-driven stage");
                let plan = seek.plan_slot(ctx.rng).expect("seek schedule not exhausted");
                if self.stage == Stage::Discover {
                    self.history.push(plan.channel());
                }
                match plan {
                    SeekSlotPlan::Transmit { channel } => {
                        Action::Broadcast { channel, message: self.outgoing.clone() }
                    }
                    SeekSlotPlan::HoldFire { .. } => Action::Sleep,
                    SeekSlotPlan::Listen { channel } => Action::Listen { channel },
                }
            }
        }
    }

    fn feedback(&mut self, ctx: &mut SlotCtx<'_>, fb: Feedback<'_, GcastMsg>) {
        match self.stage {
            Stage::Done => {}
            Stage::Disseminate => self.dissem_feedback(ctx, fb),
            _ => {
                match fb {
                    Feedback::Heard(msg) => {
                        // Single clone on actual delivery; the engine itself
                        // never clones payloads.
                        self.process_message(ctx.slot.0, msg.clone());
                        self.seek.as_mut().expect("seek active").record_heard(true);
                    }
                    Feedback::Silence => {
                        self.seek.as_mut().expect("seek active").record_heard(false);
                    }
                    Feedback::Sent | Feedback::Slept => {}
                }
                let seek = self.seek.as_mut().expect("seek active");
                seek.finish_slot();
                if seek.is_done() {
                    self.advance_after_seek(ctx.rng);
                }
            }
        }
    }

    fn is_complete(&self) -> bool {
        self.stage == Stage::Done
    }

    fn into_output(self) -> GcastOutput {
        let simulated = self.virtuals.len();
        let colored_simulated = self.virtuals.iter().filter(|v| v.luby.decided().is_some()).count();
        // Local validity: all known incident edge colors pairwise distinct.
        let mut colors: Vec<u32> = self.edge_colors.values().copied().collect();
        let before = colors.len();
        colors.sort_unstable();
        colors.dedup();
        GcastOutput {
            id: self.id,
            payload: self.payload,
            informed_at: self.informed_at,
            discovered: self.heard_first.keys().copied().collect(),
            dedicated_count: self.dedicated.len(),
            known_colors: before,
            simulated_edges: simulated,
            colored_simulated,
            colors_locally_valid: colors.len() == before,
        }
    }
}

// Seek roles are not used directly here but re-exported tests reference
// them; keep the import used.
#[allow(unused)]
fn _role_witness(r: Role) -> Role {
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{GcastParams, ModelInfo};
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

    fn run_gcast(net: &Network, seed: u64) -> Vec<GcastOutput> {
        let m = ModelInfo::from_stats(&net.stats());
        let d = net.stats().diameter.expect("connected network");
        let params = GcastParams { dissemination_phases: d.max(1), ..Default::default() };
        let sched = params.schedule(&m);
        let mut eng = Engine::new(net, seed, |ctx| {
            CGCast::new(ctx.id, sched, (ctx.id == NodeId(0)).then_some(0xfeed))
        });
        let outcome = eng.run_to_completion(sched.total_slots() + 8);
        assert!(outcome.all_protocols_done, "CGCAST schedule must complete");
        assert_eq!(
            outcome.slots_run,
            sched.total_slots(),
            "schedule length accounting must be exact"
        );
        eng.into_outputs()
    }

    #[test]
    fn two_nodes_broadcast() {
        let net =
            build_net(&Topology::Path { n: 2 }, &ChannelModel::SharedCore { c: 3, core: 2 }, 1);
        let outs = run_gcast(&net, 5);
        assert!(outs.iter().all(|o| o.payload == Some(0xfeed)), "{outs:?}");
        assert_eq!(outs[0].informed_at, Some(0));
    }

    #[test]
    fn path_broadcast_reaches_all() {
        let net =
            build_net(&Topology::Path { n: 5 }, &ChannelModel::SharedCore { c: 3, core: 2 }, 2);
        let outs = run_gcast(&net, 7);
        for o in &outs {
            assert_eq!(o.payload, Some(0xfeed), "node {} uninformed", o.id);
            assert!(o.colors_locally_valid, "node {} sees duplicate edge colors", o.id);
        }
    }

    #[test]
    fn star_broadcast_reaches_all() {
        let net = build_net(&Topology::Star { leaves: 6 }, &ChannelModel::Identical { c: 3 }, 3);
        let outs = run_gcast(&net, 11);
        for o in &outs {
            assert_eq!(o.payload, Some(0xfeed), "node {} uninformed", o.id);
        }
        // The hub must have dedicated channels and colors for all leaves.
        assert_eq!(outs[0].dedicated_count, 6);
        assert_eq!(outs[0].known_colors, 6);
    }

    #[test]
    fn cycle_broadcast_with_group_overlay() {
        let net = build_net(
            &Topology::Cycle { n: 6 },
            &ChannelModel::GroupOverlay { c: 5, k: 2, kmax: 3, groups: 2 },
            4,
        );
        let outs = run_gcast(&net, 13);
        for o in &outs {
            assert_eq!(o.payload, Some(0xfeed), "node {} uninformed", o.id);
        }
    }

    #[test]
    fn informed_at_is_monotone_in_hop_distance_on_path() {
        let net =
            build_net(&Topology::Path { n: 4 }, &ChannelModel::SharedCore { c: 2, core: 2 }, 5);
        let outs = run_gcast(&net, 17);
        let t1 = outs[1].informed_at.expect("node 1 informed");
        let t3 = outs[3].informed_at.expect("node 3 informed");
        assert!(t1 <= t3, "closer node informed no later: t1={t1} t3={t3}");
    }

    #[test]
    fn edge_coloring_is_globally_consistent() {
        // Both endpoints of each edge must agree on its color, and the
        // coloring must be proper.
        let net = build_net(
            &Topology::Grid { rows: 2, cols: 3 },
            &ChannelModel::SharedCore { c: 3, core: 2 },
            6,
        );
        let m = ModelInfo::from_stats(&net.stats());
        let d = net.stats().diameter.unwrap();
        let sched = GcastParams { dissemination_phases: d, ..Default::default() }.schedule(&m);
        let mut eng = Engine::new(&net, 19, |ctx| {
            CGCast::new(ctx.id, sched, (ctx.id == NodeId(0)).then_some(9))
        });
        eng.run_to_completion(sched.total_slots());
        // Collect per-node color maps.
        let mut maps: Vec<BTreeMap<NodeId, u32>> = Vec::new();
        eng.for_each_protocol(|_, p| maps.push(p.known_colors().clone()));
        let mut seen_edges = Vec::new();
        for (v, map) in maps.iter().enumerate() {
            for (&w, &c) in map {
                let back = maps[w.index()].get(&NodeId(v as u32));
                assert_eq!(back, Some(&c), "endpoints disagree on edge ({v},{w}) color");
                seen_edges.push((Edge::new(NodeId(v as u32), w), c));
            }
        }
        // Proper edge coloring among known edges.
        seen_edges.sort_unstable();
        seen_edges.dedup();
        let edges: Vec<Edge> = seen_edges.iter().map(|&(e, _)| e).collect();
        let colors: Vec<Option<u32>> = seen_edges.iter().map(|&(_, c)| Some(c)).collect();
        assert!(crate::coloring::is_proper_edge_coloring(&edges, &colors));
        // All 7 grid edges should have been colored.
        assert_eq!(edges.len(), net.stats().edges);
    }
}

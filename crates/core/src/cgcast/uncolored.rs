//! The no-coloring ablation of CGCAST: identical discovery and
//! dedicated-channel stages, but dissemination meets neighbors by *random*
//! edge choice instead of the deterministic color schedule.
//!
//! With coloring, each edge owns a dedicated step per phase, so a meeting
//! is guaranteed and only back-off contention remains. Without it, two
//! endpoints meet in a step only if both happen to pick the same edge —
//! probability `1/(deg(u)·deg(v))` — so high-degree regions stall. A3b
//! measures the gap.

use super::message::GcastMsg;
use super::output::GcastOutput;
use crate::params::GcastSchedule;
use crate::seek::{SeekCore, SeekSlotPlan};
use crn_sim::{Action, Feedback, LocalChannel, NodeId, Protocol, SlotCtx};
use rand::Rng;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Discover,
    Meta,
    Disseminate,
    Done,
}

/// CGCAST with the coloring stage ablated (random-meeting dissemination).
///
/// Runs the same total number of dissemination steps as CGCAST would
/// (phases × 2Δ) so the two protocols get equal slot budgets after setup;
/// only the *coordination* differs.
#[derive(Debug, Clone)]
pub struct UncoloredGcast {
    id: NodeId,
    sched: GcastSchedule,
    stage: Stage,
    seek: Option<SeekCore>,
    outgoing: GcastMsg,
    heard_first: BTreeMap<NodeId, u64>,
    history: Vec<LocalChannel>,
    peer_meta: BTreeMap<NodeId, Vec<(NodeId, u64)>>,
    dedicated: BTreeMap<NodeId, LocalChannel>,
    payload: Option<u64>,
    informed_at: Option<u64>,
    // Dissemination position.
    step: u64,
    round: u64,
    slot: u32,
    step_edge: Option<NodeId>,
    step_informed: bool,
}

impl UncoloredGcast {
    /// Creates a participant; `payload` is `Some` only at the source.
    pub fn new(id: NodeId, sched: GcastSchedule, payload: Option<u64>) -> UncoloredGcast {
        UncoloredGcast {
            id,
            sched,
            stage: Stage::Discover,
            seek: Some(SeekCore::new(sched.seek)),
            outgoing: GcastMsg::Id(id),
            heard_first: BTreeMap::new(),
            history: Vec::with_capacity(sched.seek.total_slots() as usize),
            peer_meta: BTreeMap::new(),
            dedicated: BTreeMap::new(),
            informed_at: payload.map(|_| 0),
            payload,
            step: 0,
            round: 0,
            slot: 0,
            step_edge: None,
            step_informed: false,
        }
    }

    /// `true` once this node holds the payload.
    pub fn is_informed(&self) -> bool {
        self.payload.is_some()
    }

    /// Total dissemination steps (equal to CGCAST's phases × palette).
    fn total_steps(&self) -> u64 {
        self.sched.dissem_phases * self.sched.palette as u64
    }

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
            self.dedicated.insert(v, self.history[t_star]);
        }
    }

    fn init_step(&mut self, ctx: &mut SlotCtx<'_>) {
        self.step_edge = if self.dedicated.is_empty() {
            None
        } else {
            let idx = ctx.rng.gen_range(0..self.dedicated.len());
            self.dedicated.keys().nth(idx).copied()
        };
        self.step_informed = self.payload.is_some();
    }
}

impl Protocol for UncoloredGcast {
    type Message = GcastMsg;
    type Output = GcastOutput;

    fn act(&mut self, ctx: &mut SlotCtx<'_>) -> Action<GcastMsg> {
        match self.stage {
            Stage::Done => Action::Sleep,
            Stage::Disseminate => {
                if self.round == 0 && self.slot == 0 && self.step_edge.is_none() {
                    self.init_step(ctx);
                }
                let Some(peer) = self.step_edge else { return Action::Sleep };
                let channel = self.dedicated[&peer];
                if self.step_informed {
                    let l = self.sched.dissem_slots_per_round;
                    let exp = (l - self.slot).min(62);
                    if ctx.rng.gen_bool(1.0 / (1u64 << exp) as f64) {
                        Action::Broadcast {
                            channel,
                            message: GcastMsg::Data(self.payload.expect("informed role")),
                        }
                    } else {
                        Action::Sleep
                    }
                } else {
                    Action::Listen { channel }
                }
            }
            _ => {
                let seek = self.seek.as_mut().expect("seek active");
                let plan = seek.plan_slot(ctx.rng).expect("schedule not exhausted");
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
            Stage::Disseminate => {
                if let Feedback::Heard(GcastMsg::Data(x)) = fb {
                    if self.payload.is_none() {
                        self.payload = Some(*x);
                        self.informed_at = Some(ctx.slot.0);
                    }
                }
                self.slot += 1;
                if self.slot == self.sched.dissem_slots_per_round {
                    self.slot = 0;
                    self.round += 1;
                    if self.round == self.sched.dissem_rounds {
                        self.round = 0;
                        self.step += 1;
                        self.step_edge = None;
                        if self.step == self.total_steps() {
                            self.stage = Stage::Done;
                        }
                    }
                }
            }
            _ => {
                match fb {
                    Feedback::Heard(msg) => {
                        match (self.stage, msg) {
                            (Stage::Discover, GcastMsg::Id(v)) => {
                                self.heard_first.entry(*v).or_insert(ctx.slot.0);
                            }
                            (Stage::Meta, GcastMsg::Meta { from, first_heard }) => {
                                // Single clone on actual delivery; the
                                // engine itself never clones payloads.
                                self.peer_meta.entry(*from).or_insert_with(|| first_heard.clone());
                            }
                            _ => {}
                        }
                        self.seek.as_mut().expect("seek").record_heard(true);
                    }
                    Feedback::Silence => {
                        self.seek.as_mut().expect("seek").record_heard(false);
                    }
                    Feedback::Sent | Feedback::Slept => {}
                }
                let seek = self.seek.as_mut().expect("seek");
                seek.finish_slot();
                if seek.is_done() {
                    match self.stage {
                        Stage::Discover => {
                            self.outgoing = GcastMsg::Meta {
                                from: self.id,
                                first_heard: self
                                    .heard_first
                                    .iter()
                                    .map(|(&v, &t)| (v, t))
                                    .collect(),
                            };
                            self.stage = Stage::Meta;
                            self.seek = Some(SeekCore::new(self.sched.seek));
                        }
                        Stage::Meta => {
                            self.compute_dedicated();
                            self.seek = None;
                            self.stage = Stage::Disseminate;
                        }
                        _ => unreachable!(),
                    }
                }
            }
        }
    }

    fn is_complete(&self) -> bool {
        self.stage == Stage::Done
    }

    fn into_output(self) -> GcastOutput {
        GcastOutput {
            id: self.id,
            payload: self.payload,
            informed_at: self.informed_at,
            discovered: self.heard_first.keys().copied().collect(),
            dedicated_count: self.dedicated.len(),
            known_colors: 0,
            simulated_edges: 0,
            colored_simulated: 0,
            colors_locally_valid: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{GcastParams, ModelInfo};
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
    fn uncolored_still_delivers_on_easy_paths() {
        // Degree <= 2: random meetings succeed often enough.
        let net =
            build_net(&Topology::Path { n: 4 }, &ChannelModel::SharedCore { c: 3, core: 2 }, 1);
        let m = ModelInfo::from_stats(&net.stats());
        let d = net.stats().diameter.unwrap();
        let sched = GcastParams { dissemination_phases: 2 * d, ..Default::default() }.schedule(&m);
        let mut eng = Engine::new(&net, 3, |ctx| {
            UncoloredGcast::new(ctx.id, sched, (ctx.id == NodeId(0)).then_some(9))
        });
        let outcome = eng.run_to_completion(u64::MAX);
        assert!(outcome.all_protocols_done);
        let outs = eng.into_outputs();
        assert!(
            outs.iter().filter(|o| o.is_informed()).count() >= 3,
            "random meetings should cover most of a short path: {outs:?}"
        );
    }

    #[test]
    fn uncolored_schedule_is_shorter_than_colored() {
        // Same GcastSchedule: the uncolored variant skips coloring+inform,
        // so its wall-clock schedule is strictly shorter.
        let net = build_net(&Topology::Path { n: 3 }, &ChannelModel::Identical { c: 2 }, 2);
        let m = ModelInfo::from_stats(&net.stats());
        let sched = GcastParams { dissemination_phases: 2, ..Default::default() }.schedule(&m);
        let mut eng = Engine::new(&net, 3, |ctx| {
            UncoloredGcast::new(ctx.id, sched, (ctx.id == NodeId(0)).then_some(9))
        });
        let outcome = eng.run_to_completion(u64::MAX);
        let expected = 2 * sched.seek_slots()
            + sched.dissem_phases * sched.palette as u64 * sched.dissem_step_slots();
        assert_eq!(outcome.slots_run, expected);
        assert!(expected < sched.total_slots());
    }
}

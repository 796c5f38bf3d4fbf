//! COUNT: the guess-and-verify contention-estimation procedure (paper §4.1,
//! Appendix A).
//!
//! On one channel there is a listener and an unknown number `m ≤ Δ` of
//! broadcasters. COUNT runs `lg Δ` rounds of `Θ(lg n)` slots. In round `i`
//! (1-based) the current guess is `2^(i−1)` and every broadcaster transmits
//! with probability `1/2^(i−1)` per slot. When the guess is near `m`, the
//! per-slot success probability spikes (≈ `e⁻¹`), so the first round whose
//! heard-fraction exceeds a threshold reveals `m` up to a factor of 4:
//! the listener adopts `2^(i+1)`, which lies in `[m, 4m]` w.h.p. (Lemma 1).
//!
//! [`CountInstance`] is the embeddable state machine used inside CSEEK's
//! part-one steps (drive it with `should_broadcast`/`record_listen` +
//! `finish_slot` once per slot); [`CountProtocol`] wraps it as a standalone [`Protocol`]
//! for direct evaluation (experiment E1).

use crate::params::CountSchedule;
use crn_sim::{Action, Feedback, LocalChannel, NodeId, Protocol, SlotCtx};
use rand::{Rng, RngCore};

/// The role a node plays in one COUNT execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Transmits according to the doubling schedule.
    Broadcaster,
    /// Listens and estimates the number of broadcasters.
    Listener,
}

/// One in-flight COUNT execution. Broadcasters call
/// [`CountInstance::should_broadcast`] and listeners
/// [`CountInstance::record_listen`] each slot, followed by
/// [`CountInstance::finish_slot`], until [`CountInstance::is_done`].
#[derive(Debug, Clone)]
pub struct CountInstance {
    schedule: CountSchedule,
    role: Role,
    round: u32,
    slot_in_round: u32,
    heard_in_round: u32,
    /// First round (0-based) whose heard count crossed the threshold.
    triggered_round: Option<u32>,
    done: bool,
}

impl CountInstance {
    /// Starts a COUNT execution with the given role.
    pub fn new(schedule: CountSchedule, role: Role) -> CountInstance {
        assert!(schedule.rounds >= 1 && schedule.round_len >= 1, "degenerate COUNT schedule");
        CountInstance {
            schedule,
            role,
            round: 0,
            slot_in_round: 0,
            heard_in_round: 0,
            triggered_round: None,
            done: false,
        }
    }

    /// The role this instance plays.
    pub fn role(&self) -> Role {
        self.role
    }

    /// `true` once all rounds have run.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Per-slot transmission probability in the current round:
    /// `1/2^round` (round 0-based, i.e. the paper's `1/2^(i−1)`).
    pub fn broadcast_probability(&self) -> f64 {
        1.0 / (1u64 << self.round.min(62)) as f64
    }

    /// For broadcasters: decide whether to transmit this slot (one word
    /// of `rng`).
    ///
    /// # Panics
    /// Panics if called on a listener or a finished instance.
    pub fn should_broadcast<R: RngCore>(&self, rng: &mut R) -> bool {
        assert_eq!(self.role, Role::Broadcaster, "only broadcasters transmit in COUNT");
        assert!(!self.done, "COUNT already finished");
        rng.gen_bool(self.broadcast_probability())
    }

    /// For listeners: record whether a message was heard this slot.
    ///
    /// # Panics
    /// Panics if called on a broadcaster or a finished instance.
    pub fn record_listen(&mut self, heard: bool) {
        assert_eq!(self.role, Role::Listener, "only listeners record in COUNT");
        assert!(!self.done, "COUNT already finished");
        if heard {
            self.heard_in_round += 1;
        }
    }

    /// Advances the slot clock; call exactly once per slot after
    /// acting/recording. Handles round boundaries and trigger detection.
    pub fn finish_slot(&mut self) {
        assert!(!self.done, "COUNT already finished");
        self.slot_in_round += 1;
        if self.slot_in_round == self.schedule.round_len {
            if self.role == Role::Listener
                && self.triggered_round.is_none()
                && self.heard_in_round > self.schedule.threshold_count
            {
                self.triggered_round = Some(self.round);
            }
            self.heard_in_round = 0;
            self.slot_in_round = 0;
            self.round += 1;
            if self.round == self.schedule.rounds {
                self.done = true;
            }
        }
    }

    /// The estimate: `2^(i+1)` for the first triggering round `i` (1-based),
    /// or 0 if no round triggered (meaning: no broadcaster was audible).
    /// Valid any time; final once [`CountInstance::is_done`].
    pub fn estimate(&self) -> u64 {
        match self.triggered_round {
            // round is 0-based here: paper's i = round+1, estimate 2^(i+1).
            Some(round) => 1u64 << (round + 2).min(62),
            None => 0,
        }
    }
}

/// Standalone COUNT as a [`Protocol`]: node 0 listens, all other nodes
/// broadcast their identity. Used by experiment E1 and the `count` bench to
/// reproduce Lemma 1 directly.
#[derive(Debug, Clone)]
pub struct CountProtocol {
    instance: CountInstance,
    id: NodeId,
    channel: LocalChannel,
    heard_ids: Vec<NodeId>,
}

/// Output of [`CountProtocol`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountOutput {
    /// The node's role during the run.
    pub role: Role,
    /// The estimate (listeners only; 0 for broadcasters and silent runs).
    pub estimate: u64,
    /// Identities heard while listening.
    pub heard_ids: Vec<NodeId>,
}

impl CountProtocol {
    /// Creates a COUNT participant on local channel `channel`.
    pub fn new(id: NodeId, role: Role, schedule: CountSchedule, channel: LocalChannel) -> Self {
        CountProtocol {
            instance: CountInstance::new(schedule, role),
            id,
            channel,
            heard_ids: Vec::new(),
        }
    }

    /// The listener's current estimate.
    pub fn estimate(&self) -> u64 {
        self.instance.estimate()
    }
}

impl Protocol for CountProtocol {
    type Message = NodeId;
    type Output = CountOutput;

    fn act(&mut self, ctx: &mut SlotCtx<'_>) -> Action<NodeId> {
        match self.instance.role() {
            Role::Broadcaster => {
                if self.instance.should_broadcast(ctx.rng) {
                    Action::Broadcast { channel: self.channel, message: self.id }
                } else {
                    Action::Sleep
                }
            }
            Role::Listener => Action::Listen { channel: self.channel },
        }
    }

    fn feedback(&mut self, _ctx: &mut SlotCtx<'_>, fb: Feedback<'_, NodeId>) {
        if self.instance.role() == Role::Listener {
            match fb {
                Feedback::Heard(id) => {
                    self.heard_ids.push(*id);
                    self.instance.record_listen(true);
                }
                _ => self.instance.record_listen(false),
            }
        }
        self.instance.finish_slot();
    }

    fn is_complete(&self) -> bool {
        self.instance.is_done()
    }

    fn into_output(self) -> CountOutput {
        CountOutput {
            role: self.instance.role(),
            estimate: self.instance.estimate(),
            heard_ids: self.heard_ids,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{CountParams, ModelInfo};
    use crn_sim::{Engine, GlobalChannel, Network};

    fn schedule(n: usize, delta: usize) -> CountSchedule {
        CountParams::default().schedule(&ModelInfo { n, c: 1, delta, k: 1, kmax: 1 })
    }

    /// Clique where everyone shares one channel; node 0 listens, `m` others
    /// broadcast.
    fn run_count(m: usize, seed: u64) -> u64 {
        let n = m + 1;
        let mut b = Network::builder(n);
        for v in 0..n {
            b.set_channels(NodeId(v as u32), vec![GlobalChannel(0)]);
        }
        for a in 0..n as u32 {
            for bb in (a + 1)..n as u32 {
                b.add_edge(NodeId(a), NodeId(bb));
            }
        }
        let net = b.build().unwrap();
        let sched = schedule(64, 64);
        let mut eng = Engine::new(&net, seed, |ctx| {
            let role = if ctx.id == NodeId(0) { Role::Listener } else { Role::Broadcaster };
            CountProtocol::new(ctx.id, role, sched, LocalChannel(0))
        });
        eng.run_to_completion(sched.total_slots() + 1);
        eng.into_outputs().remove(0).estimate
    }

    #[test]
    fn estimate_in_m_to_4m_for_small_counts() {
        for m in [1usize, 2, 3, 5, 8] {
            let mut ok = 0;
            let trials = 20;
            for seed in 0..trials {
                let est = run_count(m, 1000 + seed);
                if est as usize >= m && est as usize <= 4 * m {
                    ok += 1;
                }
            }
            assert!(ok >= trials * 9 / 10, "m={m}: only {ok}/{trials} runs inside [m, 4m]");
        }
    }

    #[test]
    fn estimate_in_m_to_4m_for_larger_counts() {
        for m in [16usize, 31, 48] {
            let mut ok = 0;
            let trials = 10;
            for seed in 0..trials {
                let est = run_count(m, 2000 + seed);
                if est as usize >= m && est as usize <= 4 * m {
                    ok += 1;
                }
            }
            assert!(ok >= trials * 8 / 10, "m={m}: only {ok}/{trials} inside [m, 4m]");
        }
    }

    #[test]
    fn zero_broadcasters_estimate_zero() {
        assert_eq!(run_count(0, 7), 0);
    }

    #[test]
    fn instance_slot_accounting() {
        let sched = CountSchedule { rounds: 2, round_len: 3, threshold_count: 1 };
        let mut ci = CountInstance::new(sched, Role::Listener);
        assert!(!ci.is_done());
        for _ in 0..5 {
            ci.record_listen(false);
            ci.finish_slot();
        }
        assert!(!ci.is_done());
        ci.record_listen(false);
        ci.finish_slot();
        assert!(ci.is_done());
        assert_eq!(ci.estimate(), 0);
    }

    #[test]
    fn trigger_produces_power_of_two_estimate() {
        let sched = CountSchedule { rounds: 3, round_len: 4, threshold_count: 1 };
        let mut ci = CountInstance::new(sched, Role::Listener);
        // Round 1 (round index 0): hear 2 messages > threshold 1 -> trigger.
        for s in 0..4 {
            ci.record_listen(s < 2);
            ci.finish_slot();
        }
        assert_eq!(ci.estimate(), 4, "trigger in paper-round 1 gives 2^(1+1)");
        // Later rounds do not change the first trigger.
        for _ in 0..8 {
            ci.record_listen(true);
            ci.finish_slot();
        }
        assert!(ci.is_done());
        assert_eq!(ci.estimate(), 4);
    }

    #[test]
    fn broadcast_probability_halves_per_round() {
        let sched = CountSchedule { rounds: 3, round_len: 1, threshold_count: 1 };
        let mut ci = CountInstance::new(sched, Role::Broadcaster);
        assert_eq!(ci.broadcast_probability(), 1.0);
        ci.finish_slot();
        assert_eq!(ci.broadcast_probability(), 0.5);
        ci.finish_slot();
        assert_eq!(ci.broadcast_probability(), 0.25);
    }

    #[test]
    #[should_panic(expected = "only broadcasters")]
    fn listener_cannot_broadcast() {
        let sched = CountSchedule { rounds: 1, round_len: 1, threshold_count: 1 };
        let ci = CountInstance::new(sched, Role::Listener);
        let mut rng = crn_sim::rng::stream_rng(0, 0);
        let _ = ci.should_broadcast(&mut rng);
    }

    #[test]
    #[should_panic(expected = "only listeners")]
    fn broadcaster_cannot_record() {
        let sched = CountSchedule { rounds: 1, round_len: 1, threshold_count: 1 };
        let mut ci = CountInstance::new(sched, Role::Broadcaster);
        ci.record_listen(true);
    }
}

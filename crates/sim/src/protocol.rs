//! The protocol interface: how per-node algorithms plug into the engine.
//!
//! A [`Protocol`] is the state machine one node runs. In every slot the
//! engine asks each node for an [`Action`] (broadcast on a local channel,
//! listen on a local channel, or sleep), resolves collisions globally, and
//! then hands each node a [`Feedback`] describing what that node observed.
//!
//! The model (paper §3) is faithfully encoded in the feedback rules:
//!
//! * a broadcaster only learns that it sent (it "receives" only its own
//!   message in that slot);
//! * a listener hears a message iff **exactly one** of its *neighbors*
//!   broadcast on the same (global) channel in that slot;
//! * zero broadcasters and ≥ 2 broadcasters are indistinguishable: both are
//!   [`Feedback::Silence`] (no collision detection).
//!
//! The engine drives every node through [`Protocol::act`] and
//! [`Protocol::feedback`] only, one call each per slot, with the node's
//! own RNG stream in the [`SlotCtx`]: a node's draws depend on nothing but
//! its own state, so results do not depend on how the engine splits the
//! node range across threads.

use crate::ids::{LocalChannel, NodeId, Slot};
use rand::rngs::SmallRng;

/// What a node decides to do in one slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action<M> {
    /// Tune to local channel `channel` and transmit `message`.
    Broadcast {
        /// The node-local channel label to transmit on.
        channel: LocalChannel,
        /// The message payload.
        message: M,
    },
    /// Tune to local channel `channel` and listen.
    Listen {
        /// The node-local channel label to listen on.
        channel: LocalChannel,
    },
    /// Stay idle this slot (radio off).
    Sleep,
}

impl<M> Action<M> {
    /// The channel this action tunes to, if any.
    pub fn channel(&self) -> Option<LocalChannel> {
        match self {
            Action::Broadcast { channel, .. } | Action::Listen { channel } => Some(*channel),
            Action::Sleep => None,
        }
    }

    /// `true` if this action transmits.
    pub fn is_broadcast(&self) -> bool {
        matches!(self, Action::Broadcast { .. })
    }
}

/// What a node observed at the end of one slot.
///
/// A received message is handed out *by reference* into the broadcaster's
/// still-live action buffer: the engine never clones payloads. A protocol
/// that wants to keep a message beyond the `feedback` call clones it there —
/// a single clone per actual delivery, paid only by the consumer that needs
/// ownership (many don't: they extract a `Copy` field and drop the rest).
#[derive(Debug, PartialEq, Eq)]
pub enum Feedback<'a, M> {
    /// The node broadcast; it learns nothing else this slot.
    Sent,
    /// The node listened and exactly one neighbor broadcast on its channel.
    Heard(&'a M),
    /// The node listened and heard nothing — either no neighbor broadcast on
    /// the channel or at least two did (collision). The two cases are
    /// indistinguishable in this model.
    Silence,
    /// The node slept.
    Slept,
}

// Manual impls: `Feedback` is always `Copy` (it carries at most a shared
// reference), with no `M: Clone`/`M: Copy` bound as a derive would add.
impl<M> Clone for Feedback<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M> Copy for Feedback<'_, M> {}

impl<'a, M> Feedback<'a, M> {
    /// Returns the received message, if any.
    pub fn heard(self) -> Option<&'a M> {
        match self {
            Feedback::Heard(m) => Some(m),
            _ => None,
        }
    }
}

/// Per-slot context handed to protocols, carrying the global slot clock and
/// the node's private randomness stream.
///
/// The slot index is global knowledge (the model is synchronous with
/// simultaneous start), and each node can "independently generate random
/// bits" (paper §3) — hence one independent RNG per node.
pub struct SlotCtx<'a> {
    /// The current slot (identical at all nodes).
    pub slot: Slot,
    /// The node's private random stream for this execution.
    pub rng: &'a mut SmallRng,
}

/// Static, node-local information available when a protocol instance is
/// constructed.
///
/// Note what is *absent*: the node does not know its neighbors, their
/// identities, nor the global channel labels — exactly the initial knowledge
/// of the paper's model. Global parameters such as `n`, `Δ`, `k`, `kmax` are
/// assumed common knowledge and are carried by the protocol parameter
/// structs in `crn-core`, not here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeCtx {
    /// This node's unique identity.
    pub id: NodeId,
    /// Number of channels this node can access (the paper's `c`). Local
    /// labels are `0..num_channels`.
    pub num_channels: u16,
}

/// A per-node protocol state machine.
///
/// Implementations must be *oblivious to wall-clock length differences*: the
/// engine drives all nodes in lockstep, so any phase structure must be a
/// function of the slot count alone (all of the paper's algorithms have this
/// fixed-schedule property).
///
/// # Examples
///
/// A trivial protocol that broadcasts its identity on local channel 0 in
/// every slot:
///
/// ```
/// use crn_sim::{Action, Feedback, LocalChannel, NodeCtx, Protocol, SlotCtx};
///
/// struct Beacon {
///     me: u32,
/// }
///
/// impl Protocol for Beacon {
///     type Message = u32;
///     type Output = ();
///     fn act(&mut self, _ctx: &mut SlotCtx<'_>) -> Action<u32> {
///         Action::Broadcast { channel: LocalChannel(0), message: self.me }
///     }
///     fn feedback(&mut self, _ctx: &mut SlotCtx<'_>, _fb: Feedback<'_, u32>) {}
///     fn is_complete(&self) -> bool { false }
///     fn into_output(self) -> () {}
/// }
/// ```
pub trait Protocol {
    /// The message type exchanged over the air. No `Clone` bound: the
    /// engine delivers messages by reference and never clones them.
    /// Protocols that need ownership clone at their concrete type.
    type Message;
    /// The final result extracted when the run ends.
    type Output;

    /// Decide this slot's action. Called exactly once per slot, in slot
    /// order, before any feedback for the slot is delivered.
    fn act(&mut self, ctx: &mut SlotCtx<'_>) -> Action<Self::Message>;

    /// Receive the observation for the slot. Called exactly once per slot
    /// after all nodes have acted. A heard message arrives by reference;
    /// clone it here if it must outlive the call.
    fn feedback(&mut self, ctx: &mut SlotCtx<'_>, fb: Feedback<'_, Self::Message>);

    /// `true` once the protocol's fixed schedule has finished. The engine
    /// stops early when every node is complete.
    fn is_complete(&self) -> bool;

    /// Consume the protocol and produce its output.
    fn into_output(self) -> Self::Output;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_channel_accessor() {
        let b: Action<u8> = Action::Broadcast { channel: LocalChannel(3), message: 1 };
        let l: Action<u8> = Action::Listen { channel: LocalChannel(2) };
        let s: Action<u8> = Action::Sleep;
        assert_eq!(b.channel(), Some(LocalChannel(3)));
        assert_eq!(l.channel(), Some(LocalChannel(2)));
        assert_eq!(s.channel(), None);
        assert!(b.is_broadcast());
        assert!(!l.is_broadcast());
    }

    #[test]
    fn feedback_heard_extraction() {
        assert_eq!(Feedback::Heard(&7u32).heard(), Some(&7));
        assert_eq!(Feedback::<u32>::Silence.heard(), None);
        assert_eq!(Feedback::<u32>::Sent.heard(), None);
        assert_eq!(Feedback::<u32>::Slept.heard(), None);
    }

    #[test]
    fn feedback_is_copy_without_message_clone() {
        // `Feedback` must stay `Copy` even for non-`Clone` messages.
        struct NoClone;
        let m = NoClone;
        let fb: Feedback<'_, NoClone> = Feedback::Heard(&m);
        let a = fb;
        let b = fb;
        assert!(matches!(a, Feedback::Heard(_)));
        assert!(matches!(b, Feedback::Heard(_)));
    }
}

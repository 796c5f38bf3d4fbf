//! # crn-sim — a cognitive radio network simulator
//!
//! This crate implements, exactly, the network model of *"Communication
//! Primitives in Cognitive Radio Networks"* (Gilbert, Kuhn, Zheng —
//! PODC 2017, arXiv:1703.06130):
//!
//! * `n` nodes with unique identities, each with a transceiver that can
//!   access `c` channels — but potentially *different* sets of channels per
//!   node, with node-private ("local") channel labels;
//! * two nodes are neighbors when they are in radio range and share at
//!   least one channel; every pair of neighbors shares at least `k` and at
//!   most `kmax` channels;
//! * time is slotted and fully synchronous; per slot a node tunes to one
//!   channel and either broadcasts or listens;
//! * a listener receives a message iff **exactly one** neighbor broadcast on
//!   the listened channel that slot; silence and collision are
//!   indistinguishable (no collision detection);
//! * nodes start simultaneously and have private randomness.
//!
//! The crate provides the [`Network`] model type with generators for
//! topologies ([`topology`]) and channel assignments ([`channels`]), the
//! slot-stepped [`Engine`], the [`Protocol`] trait that per-node algorithms
//! implement, and supporting utilities ([`graph`], [`stats`], [`bitset`],
//! [`rng`]).
//!
//! The algorithms from the paper (COUNT, CSEEK, CKSEEK, CGCAST) live in the
//! companion crate `crn-core`.
//!
//! ## Quick example
//!
//! ```
//! use crn_sim::*;
//! use crn_sim::channels::ChannelModel;
//! use crn_sim::topology::Topology;
//! use crn_sim::rng::stream_rng;
//!
//! // Five nodes on a path; all pairs share a 2-channel core out of c = 4.
//! let mut rng = stream_rng(42, 0);
//! let topo = Topology::Path { n: 5 };
//! let sets = ChannelModel::SharedCore { c: 4, core: 2 }.assign(5, &mut rng);
//! let mut b = Network::builder(5);
//! for (v, set) in sets.into_iter().enumerate() {
//!     b.set_channels(NodeId(v as u32), set);
//! }
//! b.add_edges(topo.edges(&mut rng).into_iter().map(|(a, x)| (NodeId(a), NodeId(x))));
//! let net = b.build()?;
//! assert_eq!(net.stats().k, 2);
//! assert_eq!(net.stats().diameter, Some(4));
//! # Ok::<(), crn_sim::NetworkError>(())
//! ```

#![warn(missing_docs)]
// `deny`, not `forbid`: the [`pool`] module is the single sanctioned home
// of `unsafe` in this crate (the lifetime/aliasing erasures of a scoped
// worker pool, with the safety argument documented there). Everything else
// stays unsafe-free and the lint makes any new use a hard error.
#![deny(unsafe_code)]

pub mod bitset;
pub mod channels;
pub mod engine;
pub mod geo;
pub mod graph;
pub mod ids;
pub mod metrics;
pub mod network;
pub mod pool;
pub mod protocol;
pub mod rng;
pub mod spectrum;
pub mod stats;
pub mod topology;
pub mod trace;

pub use engine::{Counters, Engine, PhaseTimings, Renumbering, Resolver, RunOutcome};
pub use ids::{Edge, GlobalChannel, LocalChannel, NodeId, Slot};
pub use network::{
    MemoryFootprint, Network, NetworkBuilder, NetworkError, NetworkStats, StatsMode,
};
pub use protocol::{Action, Feedback, NodeCtx, Protocol, SlotCtx};
pub use spectrum::{SpectrumDynamics, SpectrumState};

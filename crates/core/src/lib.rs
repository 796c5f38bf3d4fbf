//! # crn-core — communication primitives for cognitive radio networks
//!
//! A faithful implementation of the algorithms from *"Communication
//! Primitives in Cognitive Radio Networks"* (Gilbert, Kuhn, Zheng —
//! PODC 2017, arXiv:1703.06130), running on the model simulator from
//! [`crn_sim`]. Each module carries the paper section it reproduces:
//!
//! * [`count`] — COUNT, constant-factor contention estimation
//!   (§4.1, Appendix A, Lemma 1);
//! * [`discovery`] — the neighbor-discovery problem statement (§1):
//!   [`DiscoveryOutput`], the [`DiscoveryProtocol`] probe interface, and
//!   the ground-truth checkers experiments measure against;
//! * [`seek`] — CSEEK, neighbor discovery in `Õ(c²/k + (kmax/k)·Δ)`
//!   (§4.2–4.3, Theorem 4), which doubles as CKSEEK for k̂-neighbor
//!   discovery (§4.4, Theorem 6) via
//!   [`params::SeekParams::kseek_schedule`];
//! * [`exchange`] — the discovery-to-message-exchange reduction of §5.1
//!   ("solve discovery in `T` time and neighbors can exchange a message
//!   in `T` time"), CGCAST's workhorse;
//! * [`coloring`] — line graphs and the Luby-style `2Δ` node coloring the
//!   paper adapts for edge coloring (§5.2, Fact 7, Lemma 8);
//! * [`cgcast`] — CGCAST, global broadcast in
//!   `Õ(c²/k + (kmax/k)·Δ + D·Δ)` (§5, Theorem 9);
//! * [`baselines`] — the naive and fixed-rate comparison algorithms from
//!   §1–2;
//! * [`adversary`] — jamming extensions beyond the paper's clean model
//!   (motivated by §1's "disruptive devices");
//! * [`params`] — every hidden schedule constant behind the paper's
//!   `Θ(·)`s, documented and sweepable.
//!
//! ## Quick start
//!
//! ```
//! use crn_core::params::{ModelInfo, SeekParams};
//! use crn_core::seek::CSeek;
//! use crn_sim::channels::ChannelModel;
//! use crn_sim::rng::stream_rng;
//! use crn_sim::topology::Topology;
//! use crn_sim::{Engine, Network, NodeId};
//!
//! // Build a 6-node cycle where all pairs share a 2-channel core.
//! let mut rng = stream_rng(7, 0);
//! let topo = Topology::Cycle { n: 6 };
//! let sets = ChannelModel::SharedCore { c: 4, core: 2 }.assign(6, &mut rng);
//! let mut b = Network::builder(6);
//! for (v, set) in sets.into_iter().enumerate() {
//!     b.set_channels(NodeId(v as u32), set);
//! }
//! b.add_edges(topo.edges(&mut rng).into_iter().map(|(a, x)| (NodeId(a), NodeId(x))));
//! let net = b.build()?;
//!
//! // Run CSEEK with the default constants.
//! let model = ModelInfo::from_stats(&net.stats());
//! let sched = SeekParams::default().schedule(&model);
//! let mut eng = Engine::new(&net, 1, |ctx| CSeek::new(ctx.id, sched, false));
//! eng.run_to_completion(sched.total_slots());
//! let outputs = eng.into_outputs();
//! assert_eq!(outputs[0].neighbors.len(), 2); // both ring neighbors found
//! # Ok::<(), crn_sim::NetworkError>(())
//! ```

#![warn(missing_docs)]

pub mod adversary;
pub mod baselines;
pub mod cgcast;
pub mod coloring;
pub mod count;
pub mod discovery;
pub mod exchange;
pub mod params;
pub mod seek;

pub use count::{CountInstance, CountProtocol, Role};
pub use discovery::{DiscoveryOutput, DiscoveryProtocol};
pub use exchange::{Exchange, ExchangeOutput};
pub use params::{CountParams, GcastParams, ModelInfo, SeekParams};
pub use seek::{CSeek, SeekCore, SeekPhase};
// Robustness studies combine in-protocol adversaries ([`adversary`]) with
// environment-level primary-user churn; re-export the spectrum types so
// such experiments need only `crn_core`.
pub use crn_sim::spectrum::{SpectrumDynamics, SpectrumState};

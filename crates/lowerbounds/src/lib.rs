//! # crn-lowerbounds — the lower-bound machinery of §6
//!
//! The paper proves `Ω(c²/k + Δ)` for neighbor discovery (Theorem 13) and
//! `Ω(c²/k + D·min{c,Δ})` for global broadcast (Theorem 14) via two
//! devices, both implemented here:
//!
//! * [`game`] — the (c,k)-bipartite hitting game and its `k = c` complete
//!   variant, with a private referee;
//! * [`players`] — game players: uniform random, exhaustive, and the
//!   [`players::ReductionPlayer`] of Lemma 11 that wraps *any* protocol in
//!   a simulated two-node network (until the player wins, the two nodes
//!   provably have not met, so silence is a faithful simulation);
//! * [`tree`] — the Theorem 14 hard instance (complete tree with
//!   channel-disjoint siblings) plus an omniscient scheduler that attains
//!   the bound, witnessing its tightness;
//! * [`analysis`] — the closed-form bounds for comparison in experiments.
//!
//! ## Example: measure CSEEK against the game bound
//!
//! ```
//! use crn_lowerbounds::analysis::hitting_game_lower_bound;
//! use crn_lowerbounds::game::HittingGame;
//! use crn_lowerbounds::players::{play, UniformRandomPlayer};
//! use crn_sim::rng::stream_rng;
//!
//! let mut rng = stream_rng(1, 0);
//! let mut game = HittingGame::new(8, 2, &mut rng);
//! let mut player = UniformRandomPlayer::new(8);
//! let rounds = play(&mut game, &mut player, &mut rng, 1_000_000).unwrap();
//! // No strategy can reliably beat c²/(αk); the uniform player is within
//! // a constant of it in expectation.
//! assert!(rounds as f64 >= 1.0);
//! assert!(hitting_game_lower_bound(8, 2) > 0.0);
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod game;
pub mod players;
pub mod tree;

pub use analysis::{broadcast_lower_bound, discovery_lower_bound, hitting_game_lower_bound};
pub use game::HittingGame;
pub use players::{play, ExhaustivePlayer, Player, ReductionPlayer, UniformRandomPlayer};
pub use tree::{lower_bound_tree, OracleTreeBroadcast};

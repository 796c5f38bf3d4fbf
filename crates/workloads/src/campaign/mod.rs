//! Resumable, fault-tolerant experiment campaigns.
//!
//! A *campaign* is a grid of experiment **arms** (one per sweep point) ×
//! **trials** (one unit of work per `(arm, trial)` pair), executed by a
//! runner that owns every flow-control decision the arms themselves used
//! to hand-roll:
//!
//! * **Lifecycle** ([`ArmResult`]) — an arm reports *what happened*
//!   (`Done` / `Continue` / `Skip` / `Retryable`); the runner — never the
//!   arm — owns retry budgets, exponential backoff, and circuit breaking.
//!   This is the `ActionResult` split from nebula's node-execution model:
//!   `Retryable` is always a reaction to an error, and the retry *policy*
//!   lives in the engine, not the action.
//! * **Circuit breaking** ([`CircuitBreaker`]) — a persistently-failing
//!   arm (e.g. a duty-cycle point whose protocol never terminates inside
//!   its slot budget) trips `Closed → Open → HalfOpen` instead of being
//!   retried forever, without stalling the other arms.
//! * **Checkpoint/resume** ([`Journal`]) — every completed unit is
//!   appended to an on-disk line journal (config hash, per-trial outputs,
//!   RNG seeds, retry/trip events) and fsynced once per scheduling wave,
//!   so a SIGKILL'd campaign resumes exactly where it stopped. A config
//!   hash mismatch refuses to resume.
//! * **Fault injection** ([`FaultPlan`]) — the harness can kill itself
//!   after N completed trials or inject `Retryable` failures on chosen
//!   arms, which is how the kill/resume differential tests and the CI
//!   smoke step drive every path above deterministically.
//! * **Observation & cancel** ([`CampaignObserver`]) — a long-lived
//!   caller (the `crn-server` scheduler) can watch per-wave
//!   [`ProgressSnapshot`]s and request cancellation at a wave boundary;
//!   both are strictly read-only with respect to results and journal
//!   bytes.
//!
//! Every trial sweep of the experiment suite runs on this layer as a
//! registered campaign kind ([`crate::experiments::campaigns`]), in
//! memory for the `experiments` binary and journaled for the server.
//!
//! # Determinism of resume
//!
//! Unit outputs are a pure function of `(arm, trial)`: every trial derives
//! its engine seed from the campaign spec, never from wall-clock time or
//! scheduling order, and backoff delays are counted in *scheduling ticks*
//! (wave indices), not `sleep`s. The runner executes one wave of ready
//! units in parallel (work-stealing, any thread count), then applies the
//! results to the lifecycle state machine *sequentially in unit order* —
//! so retry accounting, breaker transitions, and journal contents are
//! identical at any parallelism, and a resumed campaign is bit-identical
//! to an uninterrupted one (enforced by `tests/tests/campaign_e2e.rs`
//! across thread counts {1, 2, 4}).

mod breaker;
mod journal;
mod lifecycle;
mod observe;
mod runner;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use journal::{config_hash, Journal, JournalError, LoadedJournal, Record};
pub use lifecycle::{
    AbandonReason, ArmResult, ArmSpec, CampaignSpec, FaultPlan, InjectRetryable, RetryPolicy, Unit,
};
pub use observe::{ArmProgress, CampaignObserver, ProgressSnapshot};
pub use runner::{
    run_campaign, run_campaign_observed, ArmReport, CampaignError, CampaignOutcome, CampaignReport,
    TrialState,
};

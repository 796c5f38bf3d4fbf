//! # crn-workloads — scenarios, runners and the experiment suite
//!
//! Everything needed to *evaluate* the CRN primitives:
//!
//! * [`scenario`] — reproducible network scenarios (topology + channel
//!   model + seed);
//! * [`runner`] — the trial (one protocol run timed against a
//!   ground-truth probe: time to full discovery, time to all-informed),
//!   the per-worker reusable trial engine, and the work-stealing executor
//!   campaign waves run on;
//! * [`campaign`] — resumable, fault-tolerant campaigns of trials: an
//!   `ArmResult` flow-control lifecycle (the runner owns
//!   retries, backoff, and per-arm circuit breakers), an append-only
//!   journal for exact checkpoint/resume, and deterministic fault
//!   injection for testing the harness itself;
//! * [`table`] — markdown/CSV result tables;
//! * [`theory`] — the paper's bounds as unit-constant reference curves;
//! * [`experiments`] — one module per paper claim (E1–E12, A1–A3b, R1; see
//!   the README's "The experiment suite" section), shared by the
//!   `experiments` binary, the campaign server and the integration tests.
//!   Every trial sweep among them is a registered campaign kind
//!   ([`experiments::campaigns::REGISTRY`]).
//!
//! ## Example
//!
//! ```no_run
//! use crn_workloads::experiments::{run_experiment, ExpConfig};
//!
//! for table in run_experiment("e1", &ExpConfig::quick()) {
//!     println!("{}", table.markdown());
//! }
//! ```

#![warn(missing_docs)]

pub mod campaign;
pub mod experiments;
pub mod runner;
pub mod scenario;
pub mod table;
pub mod theory;

pub use scenario::{Built, Scenario};
pub use table::Table;

//! # crn-workloads — scenarios, runners and the experiment suite
//!
//! Everything needed to *evaluate* the CRN primitives:
//!
//! * [`scenario`] — reproducible network scenarios (topology + channel
//!   model + seed);
//! * [`runner`] — multi-trial parallel runners with ground-truth probes
//!   (time to full discovery, time to all-informed);
//! * [`campaign`] — resumable, fault-tolerant campaigns on top of the
//!   runners: an `ArmResult` flow-control lifecycle (the runner owns
//!   retries, backoff, and per-arm circuit breakers), an append-only
//!   journal for exact checkpoint/resume, and deterministic fault
//!   injection for testing the harness itself;
//! * [`table`] — markdown/CSV result tables;
//! * [`theory`] — the paper's bounds as unit-constant reference curves;
//! * [`experiments`] — one module per paper claim (E1–E12, A1–A3b, R1; see
//!   the README's "The experiment suite" section), shared by the
//!   `experiments` binary, the integration tests and the criterion benches.
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
#![forbid(unsafe_code)]

pub mod campaign;
pub mod experiments;
pub mod runner;
pub mod scenario;
pub mod table;
pub mod theory;

pub use scenario::{Built, Scenario};
pub use table::Table;

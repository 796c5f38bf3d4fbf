//! Kill-and-resume a journaled experiment campaign: runs the E2 discovery
//! sweep (CSEEK completion time vs channel count) through the resumable
//! campaign layer, SIGKILLs it — via the built-in fault plan — after a few
//! trials, resumes from the on-disk journal, and proves the resumed
//! campaign is **bit-identical** to one that was never interrupted: same
//! per-arm reports, same journal bytes.
//!
//! Run with: `cargo run --release -p crn-examples --example resumable_sweep`
//!
//! Exits non-zero if the differential fails, so CI runs this as the
//! kill/resume smoke step. Journals live in a dedicated directory
//! (`CRN_JOURNAL_DIR` overrides the default under the system temp dir)
//! that a drop guard removes on *every* exit path — success, failed
//! differential, or panic — and the CI step asserts the cleanup.

use crn_workloads::campaign::{CampaignOutcome, FaultPlan, Journal};
use crn_workloads::experiments::{campaigns, ExpConfig};
use std::path::PathBuf;
use std::process::ExitCode;

/// Owns the journal directory for the lifetime of the run and removes it
/// on drop. `ExitCode` returns and panics both unwind through this;
/// only an actual SIGKILL skips it — and then the journal is exactly
/// what you *want* left behind.
struct JournalDir(PathBuf);

impl JournalDir {
    fn new() -> JournalDir {
        let path = std::env::var_os("CRN_JOURNAL_DIR").map(PathBuf::from).unwrap_or_else(|| {
            std::env::temp_dir().join(format!("resumable-sweep-{}", std::process::id()))
        });
        std::fs::create_dir_all(&path).expect("create journal dir");
        JournalDir(path)
    }

    fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for JournalDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let cfg = ExpConfig { quick: true, trials: 3, seed: 7 };
    let threads = campaigns::default_threads();
    let spec = campaigns::e2_spec(&cfg);
    println!(
        "campaign {:?}: {} arms x {} trials, {} threads",
        spec.name,
        spec.arms.len(),
        cfg.trials(),
        threads
    );

    let dir = JournalDir::new();
    let journal = dir.file("sweep.crnj");
    let reference = dir.file("sweep.reference.crnj");

    // The reference: the same campaign, never interrupted (journaled too,
    // so the final journal bytes can be compared).
    let uninterrupted = campaigns::run_e2(&cfg, threads, Some(&reference), &FaultPlan::none())
        .expect("uninterrupted campaign");

    // Act 1: run with a fault plan that kills the process at a trial
    // boundary — the moral equivalent of a SIGKILL or an OOM mid-sweep.
    let kill_at = spec.total_trials() / 2;
    let killed = campaigns::run_e2(&cfg, threads, Some(&journal), &FaultPlan::kill_after(kill_at))
        .expect("killed campaign still checkpoints");
    let recorded = match killed.outcome {
        CampaignOutcome::Killed { recorded } => recorded,
        other => panic!("fault plan must kill the campaign, got {other:?}"),
    };
    let bytes = std::fs::metadata(&journal).map(|m| m.len()).unwrap_or(0);
    println!(
        "\nkilled after {recorded}/{} trials; journal holds {bytes} bytes at {}",
        spec.total_trials(),
        journal.display()
    );
    let loaded = Journal::load(&journal).expect("journal readable after the kill");
    println!(
        "journal: config {:016x}, {} records survive the crash",
        loaded.config_hash,
        loaded.records.len()
    );

    // Act 2: re-run the identical command line. The runner finds the
    // journal, checks the config hash, restores every finished unit, and
    // runs only the remainder.
    let resumed = campaigns::run_e2(&cfg, threads, Some(&journal), &FaultPlan::none())
        .expect("resumed campaign");
    assert!(resumed.resumed, "second run must resume, not restart");
    println!(
        "\nresumed: outcome {:?}, {} scheduling ticks in the second process",
        resumed.outcome, resumed.ticks
    );
    println!("\n  arm      done  mean slots-to-complete");
    for (a, arm) in resumed.arms.iter().enumerate() {
        let done = resumed.done_outputs(a);
        let completed: Vec<u64> = done.iter().filter_map(|t| t.completed_at).collect();
        let mean = completed.iter().sum::<u64>() as f64 / completed.len().max(1) as f64;
        println!("  {:<8} {:>4}  {mean:>8.1}", arm.name, done.len());
    }

    // The differential: resumed == uninterrupted, down to the journal bytes.
    let identical_reports = resumed.arms == uninterrupted.arms;
    let identical_journals = std::fs::read(&journal).ok() == std::fs::read(&reference).ok();
    println!(
        "\nresumed vs uninterrupted: reports {}, journal bytes {}",
        if identical_reports { "identical" } else { "DIVERGED" },
        if identical_journals { "identical" } else { "DIVERGED" },
    );
    if identical_reports && identical_journals {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

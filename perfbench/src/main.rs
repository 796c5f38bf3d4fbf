//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <paper_sweep|million_node|campaign_service>
//!           [--seed <n>] --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in its own process for about
//! `--seconds` of measurement, checks the program's outputs, prints detail
//! lines, and ends with one JSON result line. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs the same work with spans and engine
//! phase timers on and reports the per-layer metrics instead. A failed
//! output check or an implausible metric makes the process exit non-zero.
//! See `perfbench/README.md` for the workloads and metric definitions.

mod layers;
mod measure;
mod million;
mod service;
mod sweep;
mod trace;

use measure::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: perfbench --workload <paper_sweep|million_node|campaign_service> \
                     [--seed <n>] --seconds <s> --trace <0|1>";

/// The workload seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// One workload run's settings.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Measurement budget.
    pub budget: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !matches!(workload.as_str(), "paper_sweep" | "million_node" | "campaign_service") {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(DEFAULT_SEED),
        budget: Duration::from_secs_f64(seconds.ok_or("missing --seconds")?),
        trace: trace.ok_or("missing --trace")?,
    })
}

/// A scratch directory for one run under `.perfbench/` in the working
/// directory, removed when dropped — on success, on a failed check, and
/// while unwinding from a panic.
pub struct RunDir(PathBuf);

impl RunDir {
    fn create(workload: &str) -> std::io::Result<RunDir> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let path = std::env::current_dir()?
            .join(".perfbench")
            .join(format!("{workload}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(RunDir(path))
    }

    pub fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave `.perfbench/` itself only if other runs or trace files use it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// A 64-bit mix of `x` (splitmix64's finalizer), for deriving seeds.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Writes the traced run's spans to `.perfbench/trace-<workload>-<seed>.tsv`.
pub fn write_spans(tracer: &trace::Tracer, workload: &str, seed: u64, report: &mut Report) {
    let written = std::env::current_dir().and_then(|d| {
        let path = d.join(".perfbench").join(format!("trace-{workload}-{seed}.tsv"));
        std::fs::create_dir_all(path.parent().expect("has a parent"))?;
        tracer.write(&path).map(|()| path)
    });
    match written {
        Ok(path) => println!("{workload}: spans written to {}", path.display()),
        Err(e) => report.check(false, || format!("writing the span file failed: {e}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let dir = match RunDir::create(&args.workload) {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("perfbench: cannot create the run directory: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench: workload {} seed {} budget {:.1} s trace {} ({} CPUs available)",
        args.workload,
        args.seed,
        args.budget.as_secs_f64(),
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    let mut report = Report::default();
    let ran =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match args.workload.as_str() {
            "paper_sweep" => sweep::run(&args, &mut report),
            "million_node" => million::run(&args, &mut report),
            _ => service::run(&args, &dir, &mut report),
        }));
    drop(dir);
    if ran.is_err() {
        eprintln!("perfbench: the workload panicked; no result");
        return ExitCode::from(1);
    }
    println!("ops_failed_share {} ratio", report.failed_share());
    println!("{}", report.json_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

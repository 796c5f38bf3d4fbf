//! Offline shim for the subset of `criterion` this workspace uses.
//!
//! The build environment has no network access, so the bench crates link
//! against this small harness instead of the real criterion. It implements
//! the same source-level API (`criterion_group!`, `criterion_main!`,
//! `Criterion`, `BenchmarkGroup`, `BenchmarkId`, `Throughput`, `Bencher`)
//! with a simple but honest measurement loop: per sample it runs enough
//! iterations to amortize timer overhead, then reports min / median / mean
//! per-iteration times and element throughput.
//!
//! Every measurement is also recorded in a process-global registry;
//! [`criterion_main!`] writes the registry as a JSON report when the binary
//! exits. The output path is `$CRN_BENCH_JSON` if set, otherwise
//! `BENCH_<binary>.json` in the working directory. Set `CRN_BENCH_QUICK=1`
//! (or pass `--quick`) to cap sample counts for CI smoke runs.

use std::fmt::Display;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Top-level harness configuration, threaded into every group it creates.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 20, measurement_time: Duration::from_millis(500) }
    }
}

impl Criterion {
    /// Sets the number of samples per benchmark (builder style).
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(2);
        self
    }

    /// Sets the target total measurement time per benchmark (builder style).
    pub fn measurement_time(mut self, t: Duration) -> Self {
        self.measurement_time = t;
        self
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
            measurement_time: self.measurement_time,
            throughput: None,
            _criterion: self,
        }
    }
}

/// Identifies one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `<function>/<parameter>` form.
    pub fn new(function: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId { id: format!("{}/{}", function.into(), parameter) }
    }

    /// Parameter-only form.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId { id: parameter.to_string() }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// Work-per-iteration declaration, used to report throughput.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A group of related benchmarks sharing configuration.
pub struct BenchmarkGroup<'c> {
    name: String,
    sample_size: usize,
    measurement_time: Duration,
    throughput: Option<Throughput>,
    _criterion: &'c mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Overrides the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Overrides the target measurement time for this group.
    pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
        self.measurement_time = t;
        self
    }

    /// Declares the per-iteration work for throughput reporting.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs one benchmark.
    pub fn bench_function(&mut self, id: impl Into<BenchmarkId>, f: impl FnMut(&mut Bencher)) {
        self.run(id.into(), f);
    }

    /// Runs one benchmark with an input handle.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) {
        self.run(id.into(), |b| f(b, input));
    }

    fn run(&mut self, id: BenchmarkId, mut f: impl FnMut(&mut Bencher)) {
        let samples = if quick_mode() { self.sample_size.min(5) } else { self.sample_size };
        let meas_time = if quick_mode() {
            self.measurement_time.min(Duration::from_millis(100))
        } else {
            self.measurement_time
        };
        let mut bencher = Bencher {
            samples,
            target_sample_time: meas_time.div_f64(samples as f64).max(Duration::from_micros(200)),
            per_iter_ns: Vec::new(),
        };
        f(&mut bencher);
        let stats = Stats::of(&bencher.per_iter_ns);
        let full = format!("{}/{}", self.name, id.id);
        print_result(&full, &stats, self.throughput);
        registry().lock().expect("bench registry poisoned").push(Record {
            group: self.name.clone(),
            id: id.id,
            throughput: self.throughput,
            stats,
        });
    }

    /// Ends the group (kept for API compatibility; reporting is immediate).
    pub fn finish(self) {}
}

/// Timer handle passed to benchmark closures.
pub struct Bencher {
    samples: usize,
    target_sample_time: Duration,
    per_iter_ns: Vec<f64>,
}

impl Bencher {
    /// Measures `f`, running it enough times per sample to amortize timer
    /// overhead, for the configured number of samples.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        // Warm-up + calibration: run until we've spent ~1 target sample.
        let calib_start = Instant::now();
        let mut calib_iters = 0u64;
        while calib_start.elapsed() < self.target_sample_time {
            black_box(f());
            calib_iters += 1;
        }
        let per_iter = calib_start.elapsed().as_secs_f64() / calib_iters as f64;
        let iters = ((self.target_sample_time.as_secs_f64() / per_iter) as u64).clamp(1, 1 << 24);

        self.per_iter_ns.clear();
        for _ in 0..self.samples {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let dt = t0.elapsed();
            self.per_iter_ns.push(dt.as_secs_f64() * 1e9 / iters as f64);
        }
    }
}

/// An identity function that hides the value from the optimizer
/// (best-effort, `std::hint::black_box`).
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Summary statistics over per-iteration nanosecond samples.
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    /// Number of samples.
    pub samples: usize,
    /// Fastest sample (ns / iteration).
    pub min_ns: f64,
    /// Median sample (ns / iteration).
    pub median_ns: f64,
    /// Mean sample (ns / iteration).
    pub mean_ns: f64,
    /// Sample standard deviation (ns / iteration).
    pub stddev_ns: f64,
}

impl Stats {
    fn of(samples: &[f64]) -> Stats {
        assert!(!samples.is_empty(), "benchmark closure never called Bencher::iter");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        let n = sorted.len();
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            sorted.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let median =
            if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 };
        Stats {
            samples: n,
            min_ns: sorted[0],
            median_ns: median,
            mean_ns: mean,
            stddev_ns: var.sqrt(),
        }
    }
}

/// One recorded measurement.
#[derive(Debug, Clone)]
struct Record {
    group: String,
    id: String,
    throughput: Option<Throughput>,
    stats: Stats,
}

fn registry() -> &'static Mutex<Vec<Record>> {
    static REGISTRY: OnceLock<Mutex<Vec<Record>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn quick_mode() -> bool {
    static QUICK: OnceLock<bool> = OnceLock::new();
    *QUICK.get_or_init(|| {
        std::env::var_os("CRN_BENCH_QUICK").is_some_and(|v| v != "0" && !v.is_empty())
            || std::env::args().any(|a| a == "--quick")
    })
}

fn fmt_time(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

fn print_result(name: &str, stats: &Stats, throughput: Option<Throughput>) {
    let thr = match throughput {
        Some(Throughput::Elements(e)) => {
            format!("  ({:.2} Melem/s)", e as f64 / stats.median_ns * 1e3)
        }
        Some(Throughput::Bytes(b)) => {
            // bytes/ns → bytes/s → MiB/s.
            format!("  ({:.2} MiB/s)", b as f64 / stats.median_ns * 1e9 / (1024.0 * 1024.0))
        }
        None => String::new(),
    };
    println!(
        "bench {name:<56} median {:>12}  min {:>12}  ±{:>10}{thr}",
        fmt_time(stats.median_ns),
        fmt_time(stats.min_ns),
        fmt_time(stats.stddev_ns),
    );
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[doc(hidden)]
pub mod private {
    use super::*;

    /// Writes the JSON report for everything measured in this process.
    /// Invoked by `criterion_main!` after all groups run.
    pub fn write_report() {
        let records = registry().lock().expect("bench registry poisoned");
        if records.is_empty() {
            return;
        }
        let path = std::env::var("CRN_BENCH_JSON").unwrap_or_else(|_| {
            let bin = std::env::args()
                .next()
                .and_then(|a| {
                    std::path::Path::new(&a).file_stem().map(|s| s.to_string_lossy().into_owned())
                })
                .unwrap_or_else(|| "bench".to_string());
            // Strip cargo's trailing `-<metadata hash>` if present.
            let base = match bin.rsplit_once('-') {
                Some((head, tail))
                    if tail.len() == 16 && tail.chars().all(|c| c.is_ascii_hexdigit()) =>
                {
                    head.to_string()
                }
                _ => bin,
            };
            format!("BENCH_{base}.json")
        });
        let mut out = String::from("{\n  \"benchmarks\": [\n");
        for (i, r) in records.iter().enumerate() {
            let (thr_kind, thr_value) = match r.throughput {
                Some(Throughput::Elements(e)) => ("\"elements\"".to_string(), e.to_string()),
                Some(Throughput::Bytes(b)) => ("\"bytes\"".to_string(), b.to_string()),
                None => ("null".to_string(), "null".to_string()),
            };
            out.push_str(&format!(
                "    {{\"group\": \"{}\", \"id\": \"{}\", \"samples\": {}, \
                 \"median_ns\": {:.1}, \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \
                 \"stddev_ns\": {:.1}, \"throughput_kind\": {}, \"throughput_per_iter\": {}}}{}\n",
                json_escape(&r.group),
                json_escape(&r.id),
                r.stats.samples,
                r.stats.median_ns,
                r.stats.mean_ns,
                r.stats.min_ns,
                r.stats.stddev_ns,
                thr_kind,
                thr_value,
                if i + 1 < records.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        match std::fs::write(&path, out) {
            Ok(()) => eprintln!("bench report written to {path}"),
            Err(e) => eprintln!("warning: could not write bench report {path}: {e}"),
        }
    }
}

/// Declares a benchmark group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the bench binary's `main`, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
            $crate::private::write_report();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_median_and_min() {
        let s = Stats::of(&[3.0, 1.0, 2.0]);
        assert_eq!(s.min_ns, 1.0);
        assert_eq!(s.median_ns, 2.0);
        assert_eq!(s.samples, 3);
        let e = Stats::of(&[4.0, 1.0, 2.0, 3.0]);
        assert_eq!(e.median_ns, 2.5);
    }

    #[test]
    fn bencher_collects_samples() {
        let mut c = Criterion::default().sample_size(3).measurement_time(Duration::from_millis(5));
        let mut group = c.benchmark_group("shim_self_test");
        let mut calls = 0u64;
        group.bench_function("noop", |b| {
            b.iter(|| {
                calls += 1;
                calls
            })
        });
        group.finish();
        assert!(calls > 0);
        assert!(registry().lock().unwrap().iter().any(|r| r.group == "shim_self_test"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
    }
}

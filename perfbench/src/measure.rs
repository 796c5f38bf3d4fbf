//! Fastest-repeat timing, metric sanity ranges, and the result line.
//!
//! Interference on a shared host only ever slows work down, and it arrives
//! in windows that can last from under a second to a whole process. A
//! per-run mean or median therefore drifts with the windows a run happens
//! to hit, while the fastest repeat of an identical unit of work does not.
//! Every host-time metric of this benchmark is built from [`Fastest`]: each
//! unit of work is repeated, its first run is a warm-up and is discarded,
//! and the unit's cost is its fastest remaining repeat.

use crn_sim::{Counters, PhaseTimings};
use std::time::Duration;

/// Fastest counted repeat of each of a fixed set of identical units.
#[derive(Debug, Clone)]
pub struct Fastest {
    /// Per unit: runs seen so far (the first is the warm-up).
    seen: Vec<u32>,
    /// Per unit: fastest counted repeat.
    best: Vec<Option<Duration>>,
    /// Every counted repeat, for the median/p90 detail line.
    all: Vec<Duration>,
}

impl Fastest {
    /// Tracks `units` distinct units.
    pub fn new(units: usize) -> Fastest {
        Fastest { seen: vec![0; units], best: vec![None; units], all: Vec::new() }
    }

    /// Records one run of `unit`; the unit's first run is the warm-up.
    pub fn record(&mut self, unit: usize, took: Duration) {
        self.seen[unit] += 1;
        if self.seen[unit] == 1 {
            return;
        }
        self.all.push(took);
        let best = &mut self.best[unit];
        *best = Some(best.map_or(took, |b| b.min(took)));
    }

    /// Counted repeats of the least-repeated unit.
    pub fn min_repeats(&self) -> u32 {
        self.seen.iter().map(|&s| s.saturating_sub(1)).min().unwrap_or(0)
    }

    /// The fastest counted repeat of `unit`.
    ///
    /// # Panics
    /// Panics if the unit has no counted repeat yet; callers run every unit
    /// at least twice before reading.
    pub fn best(&self, unit: usize) -> Duration {
        self.best[unit].expect("every unit runs at least twice before it is read")
    }

    /// Sum over all units of each unit's fastest counted repeat.
    pub fn sum(&self) -> Duration {
        (0..self.best.len()).map(|u| self.best(u)).sum()
    }

    /// Median and p90 of all counted repeats (detail only, not gated).
    pub fn median_p90(&self) -> (Duration, Duration) {
        let mut all = self.all.clone();
        all.sort_unstable();
        let at = |q: f64| all[((all.len() - 1) as f64 * q).round() as usize];
        (at(0.5), at(0.9))
    }
}

/// Plausible range of a metric: a value outside it is a unit or
/// measurement slip (a loopback round trip under 1 µs, a rate above 10⁹
/// node-slots per second) and fails the run.
#[derive(Debug, Clone, Copy)]
pub struct Range {
    pub lo: f64,
    pub hi: f64,
}

/// `lo..=hi`, both inclusive.
pub const fn range(lo: f64, hi: f64) -> Range {
    Range { lo, hi }
}

impl Range {
    fn holds(&self, value: f64) -> bool {
        value.is_finite() && value >= self.lo && value <= self.hi
    }
}

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Output checks and metrics of one run.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    /// Counts one checked operation; a `false` outcome is a failure whose
    /// reason `why` is printed.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", why());
        }
    }

    /// Adds a metric after checking it is finite and inside `range`.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str, r: Range) {
        let name = name.into();
        self.check(r.holds(value), || {
            format!("metric {name} = {value} {unit} is outside its sane range [{}, {}]", r.lo, r.hi)
        });
        self.metrics.push(Metric { name, value, unit });
    }

    /// Prints a detail metric (not part of the result line) after checking
    /// it is finite and inside `range`.
    pub fn detail(&mut self, name: &str, value: f64, unit: &str, r: Range) {
        println!("{name} {value} {unit}");
        self.check(r.holds(value), || {
            format!("detail {name} = {value} {unit} is outside its sane range [{}, {}]", r.lo, r.hi)
        });
    }

    /// `true` when every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Failed checks over attempted checks.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: one JSON object with the checks' tally and the
    /// metrics in the order they were added.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Milliseconds of a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    crn_bench::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / (1u64 << 20) as f64)
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Node-slots a trial simulated: broadcasts + listens + sleeps.
pub fn node_slots(c: &Counters) -> u64 {
    c.broadcasts + c.listens + c.sleeps
}

/// Adds `c` into `sum`, field by field.
pub fn add_counters(sum: &mut Counters, c: &Counters) {
    sum.slots += c.slots;
    sum.broadcasts += c.broadcasts;
    sum.listens += c.listens;
    sum.sleeps += c.sleeps;
    sum.deliveries += c.deliveries;
    sum.collisions += c.collisions;
    sum.idle_listens += c.idle_listens;
    sum.pu_blocked_listens += c.pu_blocked_listens;
    sum.pu_blocked_broadcasts += c.pu_blocked_broadcasts;
    sum.pu_busy_channel_slots += c.pu_busy_channel_slots;
}

/// Adds the phase timings `p` into `sum`, field by field.
pub fn add_phases(sum: &mut PhaseTimings, p: &PhaseTimings) {
    sum.slots += p.slots;
    sum.spectrum_ns += p.spectrum_ns;
    sum.collect_sequential_ns += p.collect_sequential_ns;
    sum.collect_pooled_ns += p.collect_pooled_ns;
    sum.collect_pooled_slots += p.collect_pooled_slots;
    sum.resolve_sequential_ns += p.resolve_sequential_ns;
    sum.resolve_sharded_ns += p.resolve_sharded_ns;
    sum.resolve_sharded_slots += p.resolve_sharded_slots;
    sum.deliver_sequential_ns += p.deliver_sequential_ns;
    sum.deliver_pooled_ns += p.deliver_pooled_ns;
    sum.deliver_pooled_slots += p.deliver_pooled_slots;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_run_of_each_unit_is_a_warm_up() {
        let mut f = Fastest::new(2);
        f.record(0, Duration::from_millis(1));
        f.record(1, Duration::from_millis(9));
        f.record(0, Duration::from_millis(5));
        f.record(1, Duration::from_millis(7));
        f.record(0, Duration::from_millis(3));
        assert_eq!(f.best(0), Duration::from_millis(3));
        assert_eq!(f.sum(), Duration::from_millis(10));
        assert_eq!(f.min_repeats(), 1);
        assert_eq!(f.median_p90(), (Duration::from_millis(5), Duration::from_millis(7)));
    }

    #[test]
    fn out_of_range_metric_fails_the_run() {
        let mut r = Report::default();
        r.metric("status_latency_ms", 15e-6, "ms", range(1e-3, 1e4));
        assert!(!r.correct());
        assert!(r.json_line().starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1"));
    }
}

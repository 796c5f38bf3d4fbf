//! Hand-rolled process metrics: counters and log-scale histograms behind
//! a cheap registry.
//!
//! The build environment is offline, so there is no `prometheus` or
//! `tracing` crate to lean on — this module owns the two instrument
//! shapes the workspace needs, the same way `crn-server` owns its own
//! HTTP parser and JSON codec. Design constraints, in order:
//!
//! * **Recording must be cheap enough for hot paths.** Every instrument
//!   is a handful of `AtomicU64`s updated with `Ordering::Relaxed` — a
//!   recording site is one `fetch_add`, no locks, no allocation. The
//!   registry's mutex is touched only at registration and scrape time,
//!   never on the recording path.
//! * **Recording must be observationally invisible.** Instruments carry
//!   no interior references into simulation state and expose nothing the
//!   simulation reads back; nothing in this module can influence engine
//!   results. (The engine-level guarantee — phase timers on vs off are
//!   bit-identical — is enforced by `tests/tests/metrics_equiv.rs`.)
//! * **Scrapes are canonical.** [`Registry::snapshot`] returns families
//!   sorted by name, so an exposition renderer (the `/metrics` endpoint
//!   in `crn-server`) emits one deterministic byte sequence per state.
//!
//! Histograms use **fixed log₂-scale buckets**: bucket `i` holds samples
//! with value ≤ 2^i (the last bucket is unbounded). Fixed bounds keep
//! `observe` allocation-free and make bucket counts from different
//! processes mergeable by addition; log scale covers nanosecond timers
//! and minute-long jobs with the same 40 buckets. The invariant "bucket
//! counts sum to the sample count" is property-tested in
//! `tests/tests/metrics_equiv.rs` across arbitrary insert sequences.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of bounded histogram buckets. Bucket `i` has upper bound `2^i`,
/// so the bounded range ends at `2^39` (≈ 9.1 minutes in nanoseconds);
/// anything larger lands in the unbounded overflow bucket.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A histogram over `u64` samples with fixed log₂-scale buckets (see the
/// module docs for the bucket layout rationale).
#[derive(Debug)]
pub struct Histogram {
    /// Per-bucket (non-cumulative) counts; index [`HISTOGRAM_BUCKETS`] is
    /// the unbounded overflow bucket.
    buckets: [AtomicU64; HISTOGRAM_BUCKETS + 1],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// The bucket index for `v`: the first bucket whose upper bound
    /// (`2^i`) is ≥ `v`, or the overflow bucket.
    fn index(v: u64) -> usize {
        if v <= 1 {
            return 0;
        }
        // ceil(log2(v)) for v ≥ 2; (v - 1) has at least one set bit here.
        (u64::BITS - (v - 1).leading_zeros()) as usize
    }

    /// Records one sample.
    pub fn observe(&self, v: u64) {
        let idx = Histogram::index(v).min(HISTOGRAM_BUCKETS);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded sample values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The upper bound of bucket `i`, or `None` for the overflow bucket.
    pub fn upper_bound(i: usize) -> Option<u64> {
        (i < HISTOGRAM_BUCKETS).then(|| 1u64 << i)
    }

    /// Per-bucket (non-cumulative) counts, overflow bucket last.
    ///
    /// Each bucket is loaded independently, so a snapshot taken while
    /// another thread observes may be mid-update; within one thread (or
    /// any quiesced scrape) the counts sum to [`Histogram::count`].
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }
}

/// A point-in-time copy of one instrument's value, as captured by
/// [`Registry::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Histogram state: per-bucket counts (overflow last), total count,
    /// and sample sum.
    Histogram {
        /// Non-cumulative per-bucket counts, indexed like
        /// [`Histogram::upper_bound`].
        buckets: Vec<u64>,
        /// Total samples.
        count: u64,
        /// Sum of sample values.
        sum: u64,
    },
}

/// One registered instrument in a [`Registry::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricFamily {
    /// Registered metric name (stable, `snake_case`).
    pub name: String,
    /// One-line human description.
    pub help: String,
    /// The instrument's value at snapshot time.
    pub value: MetricValue,
}

enum Instrument {
    Counter(Arc<Counter>),
    Histogram(Arc<Histogram>),
}

struct Entry {
    name: String,
    help: String,
    instrument: Instrument,
}

/// A named set of instruments. Registration is get-or-create (two sites
/// registering the same name share one instrument); recording through the
/// returned [`Arc`] handles never touches the registry again.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn get_or_insert<T>(
        &self,
        name: &str,
        help: &str,
        as_kind: impl Fn(&Instrument) -> Option<&Arc<T>>,
        make: impl FnOnce() -> (Arc<T>, Instrument),
    ) -> Arc<T> {
        debug_assert!(
            !name.is_empty()
                && name.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_'),
            "metric names are snake_case: {name:?}"
        );
        let mut entries = self.entries.lock().unwrap();
        if let Some(entry) = entries.iter().find(|e| e.name == name) {
            return as_kind(&entry.instrument)
                .unwrap_or_else(|| panic!("metric {name:?} re-registered as a different kind"))
                .clone();
        }
        let (handle, instrument) = make();
        entries.push(Entry { name: name.to_string(), help: help.to_string(), instrument });
        handle
    }

    /// The counter named `name`, registering it with `help` on first use.
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.get_or_insert(
            name,
            help,
            |i| match i {
                Instrument::Counter(c) => Some(c),
                _ => None,
            },
            || {
                let c = Arc::new(Counter::new());
                (c.clone(), Instrument::Counter(c))
            },
        )
    }

    /// The histogram named `name`, registering it with `help` on first
    /// use. Panics if `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.get_or_insert(
            name,
            help,
            |i| match i {
                Instrument::Histogram(h) => Some(h),
                _ => None,
            },
            || {
                let h = Arc::new(Histogram::new());
                (h.clone(), Instrument::Histogram(h))
            },
        )
    }

    /// A point-in-time copy of every registered instrument, sorted by
    /// name — the canonical scrape order exposition renderers rely on.
    pub fn snapshot(&self) -> Vec<MetricFamily> {
        let entries = self.entries.lock().unwrap();
        let mut out: Vec<MetricFamily> = entries
            .iter()
            .map(|e| MetricFamily {
                name: e.name.clone(),
                help: e.help.clone(),
                value: match &e.instrument {
                    Instrument::Counter(c) => MetricValue::Counter(c.get()),
                    Instrument::Histogram(h) => MetricValue::Histogram {
                        buckets: h.bucket_counts(),
                        count: h.count(),
                        sum: h.sum(),
                    },
                },
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn histogram_bucket_bounds_are_log2_and_inclusive() {
        // Boundary samples land in the bucket whose bound equals them.
        for (v, want) in [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (1 << 20, 20)] {
            assert_eq!(Histogram::index(v), want, "index({v})");
        }
        let h = Histogram::new();
        h.observe(1);
        h.observe(2);
        h.observe(u64::MAX); // overflow bucket
        assert_eq!(h.count(), 3);
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[1], 1);
        assert_eq!(counts[HISTOGRAM_BUCKETS], 1);
        assert_eq!(counts.iter().sum::<u64>(), h.count());
    }

    #[test]
    fn registry_is_get_or_create_and_snapshot_is_sorted() {
        let r = Registry::new();
        let a = r.counter("zz_last", "last");
        let b = r.counter("zz_last", "last");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "same name shares one instrument");
        r.counter("aa_first", "first").add(9);
        r.histogram("mm_mid", "mid").observe(3);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["aa_first", "mm_mid", "zz_last"]);
        assert_eq!(snap[0].value, MetricValue::Counter(9));
        assert_eq!(snap[2].value, MetricValue::Counter(2));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("dual", "as counter");
        r.histogram("dual", "as histogram");
    }
}

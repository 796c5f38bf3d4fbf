//! Server-side metrics and the Prometheus text-exposition writer.
//!
//! [`ServerMetrics`] is the one shared instrument bundle: the HTTP workers
//! count connections, requests, parse errors, and response classes; the
//! scheduler counts job starts and feeds the journal-fsync histogram from
//! the campaign's progress snapshots. Everything store-derived — jobs per
//! state, queue depth, per-job progress — is *not* an instrument at all:
//! the store is already the source of truth, so [`ServerMetrics::render`]
//! reads it at scrape time instead of mirroring it into gauges that could
//! drift.
//!
//! The writer follows the same discipline as the [`crate::json`] renderer:
//! output is canonical (instruments sorted by name, derived families in a
//! fixed order, no timestamps), so two scrapes of identical state produce
//! identical bytes. The format is the Prometheus text exposition v0.0.4
//! subset — `# HELP` / `# TYPE` comments and `name{labels} value` samples,
//! histograms as cumulative `_bucket{le="…"}` series plus `_sum`/`_count`
//! — parseable by any Prometheus scraper yet hand-rolled on `std` only.

use std::fmt::Write as _;
use std::sync::Arc;

use crn_sim::metrics::{Counter, Histogram, MetricValue, Registry};
use crn_workloads::campaign::ProgressSnapshot;

use crate::store::{JobState, Store};

/// Content type of the `/metrics` response.
pub const EXPOSITION_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// The server's shared instrument bundle (see module docs).
pub struct ServerMetrics {
    registry: Registry,
    /// TCP connections accepted and handed to a worker.
    pub connections: Arc<Counter>,
    /// Requests fully parsed and routed.
    pub requests: Arc<Counter>,
    /// Connections dropped on a request-framing error.
    pub parse_errors: Arc<Counter>,
    /// Responses by status class: `[2xx, 3xx, 4xx, 5xx]`.
    pub responses: [Arc<Counter>; 4],
    /// Jobs the scheduler has started running.
    pub jobs_started: Arc<Counter>,
    /// Journal checkpoint (fsync) latency, in nanoseconds.
    pub fsync_nanos: Arc<Histogram>,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics::new()
    }
}

impl ServerMetrics {
    /// A fresh bundle with every instrument registered and zeroed.
    pub fn new() -> ServerMetrics {
        let registry = Registry::new();
        let connections = registry
            .counter("crn_http_connections_total", "TCP connections handed to an HTTP worker");
        let requests =
            registry.counter("crn_http_requests_total", "requests fully parsed and routed");
        let parse_errors = registry
            .counter("crn_http_parse_errors_total", "connections dropped on a framing error");
        let responses = ["2xx", "3xx", "4xx", "5xx"].map(|class| {
            registry.counter(
                &format!("crn_http_responses_{class}_total"),
                &format!("responses with a {class} status"),
            )
        });
        let jobs_started =
            registry.counter("crn_jobs_started_total", "jobs the scheduler started running");
        let fsync_nanos = registry
            .histogram("crn_journal_fsync_nanos", "journal checkpoint (fsync) latency in ns");
        ServerMetrics {
            registry,
            connections,
            requests,
            parse_errors,
            responses,
            jobs_started,
            fsync_nanos,
        }
    }

    /// Counts one response into its status class.
    pub fn record_response(&self, status: u16) {
        let idx = match status {
            200..=299 => 0,
            300..=399 => 1,
            400..=499 => 2,
            _ => 3,
        };
        self.responses[idx].inc();
    }

    /// Renders the full exposition body: every registered instrument, then
    /// the store-derived families (jobs per state, queue depth, per-job
    /// progress of non-terminal jobs).
    pub fn render(&self, store: &Store) -> String {
        let mut out = String::new();
        for family in self.registry.snapshot() {
            write_family(&mut out, &family.name, &family.help, &family.value);
        }
        self.render_store(&mut out, store);
        out
    }

    fn render_store(&self, out: &mut String, store: &Store) {
        let jobs = store.list();

        let states = [
            JobState::Queued,
            JobState::Running,
            JobState::Completed,
            JobState::Killed,
            JobState::Cancelled,
            JobState::Failed,
        ];
        writeln!(out, "# HELP crn_jobs jobs in the store by lifecycle state").unwrap();
        writeln!(out, "# TYPE crn_jobs gauge").unwrap();
        for state in states {
            let count = jobs.iter().filter(|j| j.state == state).count();
            writeln!(out, "crn_jobs{{state=\"{}\"}} {count}", state.token()).unwrap();
        }
        let queued = jobs.iter().filter(|j| j.queue_position.is_some()).count();
        writeln!(out, "# HELP crn_queue_depth jobs waiting in the FIFO queue").unwrap();
        writeln!(out, "# TYPE crn_queue_depth gauge").unwrap();
        writeln!(out, "crn_queue_depth {queued}").unwrap();

        // Per-job progress for jobs that are still live. Terminal jobs
        // keep their last snapshot in the store for status queries, but
        // exposing them here would grow the scrape without bound.
        let live: Vec<_> = jobs.iter().filter(|j| !j.state.terminal()).collect();
        type Field = (&'static str, &'static str, fn(&ProgressSnapshot) -> u64);
        let fields: [Field; 4] = [
            ("crn_job_recorded", "terminal units recorded", |p| p.recorded as u64),
            ("crn_job_total", "total units in the campaign", |p| p.total as u64),
            ("crn_job_waves", "waves applied by the current run", |p| p.waves),
            ("crn_job_backoff_depth", "units parked in retry backoff", |p| p.backoff_depth as u64),
        ];
        for (name, help, get) in fields {
            writeln!(out, "# HELP {name} {help}").unwrap();
            writeln!(out, "# TYPE {name} gauge").unwrap();
            for job in &live {
                if let Some(p) = &job.progress {
                    writeln!(
                        out,
                        "{name}{{job=\"{}\",campaign=\"{}\"}} {}",
                        job.id,
                        job.campaign,
                        get(p)
                    )
                    .unwrap();
                }
            }
        }
    }
}

/// Writes one instrument in exposition format.
fn write_family(out: &mut String, name: &str, help: &str, value: &MetricValue) {
    writeln!(out, "# HELP {name} {help}").unwrap();
    match value {
        MetricValue::Counter(v) => {
            writeln!(out, "# TYPE {name} counter").unwrap();
            writeln!(out, "{name} {v}").unwrap();
        }
        MetricValue::Histogram { buckets, count, sum } => {
            writeln!(out, "# TYPE {name} histogram").unwrap();
            let mut cumulative = 0u64;
            for (i, n) in buckets.iter().enumerate() {
                cumulative += n;
                // Suppress empty leading/inner buckets except the very
                // first: cumulative series stay correct and typical
                // scrapes shrink from 41 lines to a handful. The overflow
                // bucket (no finite bound) renders as `+Inf` below.
                if let Some(bound) = Histogram::upper_bound(i) {
                    if *n != 0 || i == 0 {
                        writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}").unwrap();
                    }
                }
            }
            writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {count}").unwrap();
            writeln!(out, "{name}_sum {sum}").unwrap();
            writeln!(out, "{name}_count {count}").unwrap();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The CI smoke's well-formedness predicate, kept in sync with
    /// `.github/workflows/ci.yml`: every line is a `# HELP`/`# TYPE`
    /// comment or `name{labels} value`.
    fn well_formed(line: &str) -> bool {
        if line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
            return true;
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            return false;
        };
        let name = series.split('{').next().unwrap_or("");
        !name.is_empty()
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
            && (series.contains('{') == series.ends_with('}'))
            && value.parse::<f64>().is_ok()
    }

    #[test]
    fn exposition_is_well_formed_and_canonical() {
        let metrics = ServerMetrics::new();
        let store = Store::new();
        metrics.connections.inc();
        metrics.record_response(201);
        metrics.record_response(404);
        metrics.fsync_nanos.observe(1_500);
        let body = metrics.render(&store);
        for line in body.lines() {
            assert!(well_formed(line), "malformed exposition line: {line:?}");
        }
        assert!(body.contains("crn_http_connections_total 1"), "{body}");
        assert!(body.contains("crn_http_responses_2xx_total 1"), "{body}");
        assert!(body.contains("crn_http_responses_4xx_total 1"), "{body}");
        assert!(body.contains("crn_journal_fsync_nanos_count 1"), "{body}");
        assert!(body.contains("crn_journal_fsync_nanos_bucket{le=\"+Inf\"} 1"), "{body}");
        assert!(body.contains("crn_jobs{state=\"queued\"} 0"), "{body}");
        // Canonical: identical state renders identical bytes.
        assert_eq!(body, metrics.render(&store));
    }

    #[test]
    fn histogram_cumulative_buckets_reach_count() {
        let metrics = ServerMetrics::new();
        for v in [1u64, 2, 3, 1 << 20, u64::MAX] {
            metrics.fsync_nanos.observe(v);
        }
        let body = metrics.render(&Store::new());
        let inf = body
            .lines()
            .find(|l| l.starts_with("crn_journal_fsync_nanos_bucket{le=\"+Inf\"}"))
            .expect("+Inf bucket present");
        assert!(inf.ends_with(" 5"), "{inf}");
        assert!(body.contains("crn_journal_fsync_nanos_count 5"), "{body}");
    }
}

//! `campaign_service`: a closed loop of one client, one connection at a
//! time, against an in-process campaign `Server` on loopback, with a fresh
//! journal directory per run.
//!
//! Each round submits a small journaled E2 campaign (registry kind `e2`,
//! quick, one wave thread) whose seed comes from a list derived from the
//! workload seed, polls its status until it completes, and fetches
//! `/results`. It then resubmits the identical body, which resumes from the
//! finished journal without running a unit, and deletes the journal so the
//! seed's next round is fresh again. Fresh jobs must report
//! `"resumed":false`, replays `"resumed":true`, and both `/results` bodies
//! must equal the canonical rendering of an in-process batch run.
//!
//! Each pass over the job seeds runs against a server of its own, started
//! (and timed as the set-up) before the pass and shut down after it. The
//! server's store keeps every job it was given, so this holds the number of
//! jobs in the store, and with it the peak resident set, to one pass's
//! worth however many passes fit into the budget.

use crate::layers::{counter_ratios, Layers};
use crate::measure::{add_counters, ms, node_slots, peak_rss_mib, range, share, Fastest, Report};
use crate::trace::Tracer;
use crate::{mix, Args, RunDir};
use crn_server::json::{parse, Json};
use crn_server::{client, router, Server, ServerConfig};
use crn_sim::Counters;
use crn_workloads::campaign::{config_hash, CampaignObserver, FaultPlan, ProgressSnapshot};
use crn_workloads::experiments::{campaigns, ExpConfig};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Distinct job seeds per run.
const JOB_SEEDS: usize = 12;
/// Trials per arm of each E2 job.
const JOB_TRIALS: usize = 4;
/// First gap between status polls; it grows by a quarter per poll up to
/// [`POLL_GAP_MAX`], so short replays are seen quickly and long jobs are
/// not flooded with connections.
const POLL_GAP_MIN: Duration = Duration::from_micros(50);
const POLL_GAP_MAX: Duration = Duration::from_millis(1);
/// A job that is not done after this long fails the run.
const JOB_DEADLINE: Duration = Duration::from_secs(60);

fn body(seed: u64) -> String {
    format!(r#"{{"kind":"e2","quick":true,"trials":{JOB_TRIALS},"seed":{seed},"threads":1}}"#)
}

fn config(seed: u64) -> ExpConfig {
    ExpConfig { quick: true, trials: JOB_TRIALS, seed }
}

/// What the client saw of one job.
struct JobRun {
    /// From POST until the `/results` body was received.
    latency: Duration,
    submit: Duration,
    /// Round trips of status polls answered while the job was not done.
    running_polls: Vec<Duration>,
    /// From POST until the last poll that saw the job not done was answered
    /// (the submit round trip when no poll did).
    seen_running: Duration,
    last_poll: Duration,
    polls: u32,
    results: Duration,
    body: String,
    /// The final status payload.
    status: Json,
}

/// Submits `body`, polls until the job completes, and fetches `/results`.
fn job(addr: SocketAddr, body: &str) -> Result<JobRun, String> {
    let t0 = Instant::now();
    let resp = client::post(addr, "/campaigns", Some(body)).map_err(|e| format!("submit: {e}"))?;
    let submit = t0.elapsed();
    if resp.status != 201 {
        return Err(format!("submit answered {}: {}", resp.status, resp.text()));
    }
    let id = parse(&resp.text())
        .ok()
        .and_then(|j| j.get("id").and_then(Json::as_u64))
        .ok_or("submit response has no id")?;
    let status_path = format!("/campaigns/{id}");
    let mut running_polls = Vec::new();
    let mut seen_running = submit;
    let mut gap = POLL_GAP_MIN;
    let mut polls = 0;
    let (status, last_poll) = loop {
        let t = Instant::now();
        let resp = client::get(addr, &status_path).map_err(|e| format!("status: {e}"))?;
        let rtt = t.elapsed();
        polls += 1;
        let status = parse(&resp.text()).map_err(|e| format!("status body: {e}"))?;
        match status.get("state").and_then(Json::as_str) {
            Some("completed") => break (status, rtt),
            Some("queued" | "running") => {
                running_polls.push(rtt);
                seen_running = t0.elapsed();
            }
            other => return Err(format!("job {id} reached state {other:?}")),
        }
        if t0.elapsed() > JOB_DEADLINE {
            return Err(format!("job {id} did not complete within {JOB_DEADLINE:?}"));
        }
        std::thread::sleep(gap);
        gap = (gap + gap / 4).min(POLL_GAP_MAX);
    };
    let t = Instant::now();
    let resp = client::get(addr, &format!("/campaigns/{id}/results"))
        .map_err(|e| format!("results: {e}"))?;
    let results = t.elapsed();
    let latency = t0.elapsed();
    if resp.status != 200 {
        return Err(format!("results answered {}: {}", resp.status, resp.text()));
    }
    Ok(JobRun {
        latency,
        submit,
        running_polls,
        seen_running,
        last_poll,
        polls,
        results,
        body: resp.text(),
        status,
    })
}

/// The canonical `/results` body of an in-process batch run of `seed`'s
/// campaign, its counter totals, units, and completion slots.
struct Reference {
    body: String,
    counters: Counters,
    units: usize,
    completed: Vec<u64>,
}

fn reference(seed: u64) -> Reference {
    let cfg = config(seed);
    let report = campaigns::run_e2(&cfg, 1, None, &FaultPlan::none())
        .expect("an in-memory campaign cannot fail on journal I/O");
    let spec = campaigns::e2_spec(&cfg);
    let mut counters = Counters::default();
    let mut completed = Vec::new();
    for arm in 0..report.arms.len() {
        for t in report.done_outputs(arm) {
            add_counters(&mut counters, &t.counters);
            completed.extend(t.completed_at);
        }
    }
    Reference {
        body: router::results_json("e2", &spec.name, &report).render(),
        counters,
        units: spec.total_trials(),
        completed,
    }
}

/// Per-seed fastest fresh jobs and replays.
struct Latencies {
    fresh: Fastest,
    replay: Fastest,
}

impl Latencies {
    fn new() -> Latencies {
        Latencies { fresh: Fastest::new(JOB_SEEDS), replay: Fastest::new(JOB_SEEDS) }
    }
}

fn start(journals: &Path) -> std::io::Result<Server> {
    Server::start(ServerConfig {
        journal_dir: journals.to_path_buf(),
        workers: 2,
        default_threads: 1,
        ..ServerConfig::default()
    })
}

pub fn run(args: &Args, dir: &RunDir, report: &mut Report) {
    let journals = dir.path().join("journals");
    let seeds: Vec<u64> =
        (0..JOB_SEEDS as u64).map(|i| mix(args.seed ^ 0x5E41 ^ (i << 32)) >> 16).collect();
    let refs: Vec<Reference> = seeds.iter().map(|&s| reference(s)).collect();
    // Every job's campaign, journaled in process under the server's file
    // names: checked against the in-memory runs, and timed for the
    // campaign layer's own share and its resume from a finished journal.
    let batch = dir.path().join("batch");
    let self_share = match finished_journals(&seeds, &batch) {
        Ok((self_share, bodies)) => {
            for (s, body) in bodies.iter().enumerate() {
                report.check(body == &refs[s].body, || {
                    format!(
                        "the journaled batch run of job seed {s} differs from the in-memory one"
                    )
                });
            }
            self_share
        }
        Err(e) => return report.check(false, || format!("writing the finished journals: {e}")),
    };
    let mut setup = Fastest::new(1);
    let mut tracer = if args.trace { Tracer::on() } else { Tracer::off() };
    let mut plain = Latencies::new();
    let mut traced = Latencies::new();
    let mut status = Fastest::new(1);
    let mut polls = 0u64;
    let mut jobs = 0u64;
    let mut queue_wait = Duration::ZERO;
    let mut results_bytes = 0usize;
    let (mut fsync_nanos, mut fsyncs) = (0u64, 0u64);
    let start_time = Instant::now();
    let mut round = 0u64;
    // In the traced run, rounds alternate untraced and traced, so the
    // tracing overhead is measured within one process.
    let per_seed = if args.trace { 2 } else { 1 };
    let per_pass = (JOB_SEEDS * per_seed) as u64;
    // At least three passes, so every job seed has counted repeats.
    while round < 3 * per_pass || start_time.elapsed() < args.budget {
        let Some(server) = start_timed(&journals, &mut setup, report) else { return };
        let addr = server.addr();
        for _ in 0..per_pass {
            let s = (round as usize / per_seed) % JOB_SEEDS;
            let timed = args.trace && round % 2 == 1;
            let lat = if timed { &mut traced } else { &mut plain };
            let b = body(seeds[s]);
            let span = if timed { Some(tracer.enter("round", round)) } else { None };
            for (replay, want_resumed) in [(false, false), (true, true)] {
                let ran = job(addr, &b);
                let Ok(run) = ran else {
                    report.check(false, || {
                        format!("round {round}: {}", ran.err().unwrap_or_default())
                    });
                    break;
                };
                let resumed = run.status.get("resumed").and_then(Json::as_bool);
                report.check(resumed == Some(want_resumed), || {
                    format!(
                        "round {round}: job reported resumed = {resumed:?}, want {want_resumed}"
                    )
                });
                report.check(run.body == refs[s].body, || {
                    format!("round {round}: /results differs from the reference (replay {replay})")
                });
                if replay {
                    lat.replay.record(s, run.latency);
                } else {
                    lat.fresh.record(s, run.latency);
                    if !timed {
                        for &rtt in &run.running_polls {
                            status.record(0, rtt);
                        }
                    }
                }
                if timed {
                    let name = if replay { "replay" } else { "job" };
                    tracer.record(name, round, run.latency);
                    tracer.record("server.submit", round, run.submit);
                    for &rtt in run.running_polls.iter().chain([&run.last_poll]) {
                        tracer.record("server.status", round, rtt);
                    }
                    tracer.record("server.results", round, run.results);
                    if !replay {
                        polls += u64::from(run.polls);
                        jobs += 1;
                        results_bytes = run.body.len();
                        let elapsed = run
                            .status
                            .get("progress")
                            .and_then(|p| p.get("elapsed_secs"))
                            .and_then(Json::as_f64)
                            .map_or(Duration::ZERO, Duration::from_secs_f64);
                        // The job finished after the client last saw it
                        // running, so this is a lower bound, short by at most
                        // the last poll gap.
                        queue_wait += run.seen_running.saturating_sub(run.submit + elapsed);
                    }
                }
                if replay {
                    remove_journal(&journals, &run.status, report);
                }
            }
            if let Some(span) = span {
                tracer.exit(span);
            }
            round += 1;
        }
        let fsync = &server.metrics().fsync_nanos;
        fsync_nanos += fsync.sum();
        fsyncs += fsync.count();
        server.shutdown();
    }
    let fsync_ms = share(fsync_nanos as f64, fsyncs as f64) / 1e6;

    let mut counters = Counters::default();
    let mut completed = Vec::new();
    for r in &refs {
        add_counters(&mut counters, &r.counters);
        completed.extend(&r.completed);
    }
    let units: usize = refs.iter().map(|r| r.units).sum();
    let fresh = plain.fresh.sum().as_secs_f64();
    let (fmed, fp90) = plain.fresh.median_p90();
    let (rmed, rp90) = plain.replay.median_p90();
    let (smed, sp90) = status.median_p90();
    println!(
        "campaign_service: {round} rounds, {} counted repeats per job seed; fresh job median \
         {:.3} ms p90 {:.3} ms; replay median {:.3} ms p90 {:.3} ms; status median {:.3} ms p90 {:.3} ms",
        plain.fresh.min_repeats().min(plain.replay.min_repeats()),
        ms(fmed),
        ms(fp90),
        ms(rmed),
        ms(rp90),
        ms(smed),
        ms(sp90)
    );
    // A loopback HTTP round trip cannot take under 1 µs.
    let replay_ms = ms(plain.replay.sum()) / JOB_SEEDS as f64;
    report.detail("replay_latency_ms", replay_ms, "ms", range(1e-3, 1e4));
    report.detail("status_latency_ms", ms(status.best(0)), "ms", range(1e-3, 1e4));
    let slots_mean = completed.iter().sum::<u64>() as f64 / completed.len().max(1) as f64;
    report.detail("sim_slots_mean", slots_mean, "slots", range(1.0, 1e9));
    report.detail(
        "sim_success_ratio",
        completed.len() as f64 / units as f64,
        "ratio",
        range(0.0, 1.0),
    );

    if !args.trace {
        report.metric("setup_s", setup.best(0).as_secs_f64(), "s", range(1e-5, 10.0));
        report.metric(
            "node_slots_per_s",
            node_slots(&counters) as f64 / fresh,
            "1/s",
            range(1.0, 1e9),
        );
        report.metric("trials_per_s", units as f64 / fresh, "1/s", range(1e-3, 1e7));
        report.metric("job_latency_ms", 1e3 * fresh / JOB_SEEDS as f64, "ms", range(1e-3, 1e6));
        report.metric("peak_rss_mib", peak_rss_mib(), "MiB", range(1.0, 1e5));
        return;
    }
    let mut l = Layers::default();
    l.set("campaign.self_share", self_share);
    l.set("campaign.fsync_ms", fsync_ms);
    l.set("campaign.replay_ms", ms(resume_time(&seeds, &batch)));
    let per = |name: &str| ms(tracer.total(name)) / tracer.count(name).max(1) as f64;
    l.set("server.submit_ms", per("server.submit"));
    l.set("server.status_ms", per("server.status"));
    l.set("server.results_ms", per("server.results"));
    l.set("server.results_bytes", results_bytes as f64);
    l.set("server.queue_wait_ms", ms(queue_wait) / jobs.max(1) as f64);
    l.set("client.polls_per_job", polls as f64 / jobs.max(1) as f64);
    counter_ratios(&mut l, &counters);
    l.set("trace.overhead_share", traced.fresh.sum().as_secs_f64() / fresh - 1.0);
    crate::write_spans(&tracer, "campaign_service", args.seed, report);
    l.finish("campaign_service", report);
}

/// Deletes the finished job's journal so the seed's next job is fresh.
fn remove_journal(journals: &Path, status: &Json, report: &mut Report) {
    let Some(name) = status.get("journal").and_then(Json::as_str) else {
        return report.check(false, || "the status payload names no journal".into());
    };
    let path: PathBuf = journals.join(name);
    report
        .check(std::fs::remove_file(&path).is_ok(), || format!("cannot remove {}", path.display()));
}

/// Times of observer snapshots and the fsync total at each.
#[derive(Default)]
struct WaveClock {
    snaps: Mutex<Vec<(Instant, u64)>>,
}

impl CampaignObserver for WaveClock {
    fn on_progress(&self, snapshot: &ProgressSnapshot) {
        let mut snaps = self.snaps.lock().expect("observer lock is never poisoned");
        snaps.push((Instant::now(), snapshot.fsync_nanos_total));
    }
}

/// The journal a job of `seed` leaves in a server's journal dir.
fn journal_path(dir: &Path, seed: u64) -> PathBuf {
    dir.join(format!("e2-{:016x}.crnj", config_hash(&campaigns::e2_spec(&config(seed)))))
}

/// Runs every job's campaign in process, journaled into `dir` with an
/// observer, and returns the campaign layer's share of the runs' time
/// (everything outside the waves' unit work: restore, report, fsync) and
/// the runs' canonical `/results` bodies.
fn finished_journals(seeds: &[u64], dir: &Path) -> Result<(f64, Vec<String>), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut own = Duration::ZERO;
    let mut total = Duration::ZERO;
    let mut bodies = Vec::new();
    for &seed in seeds {
        let clock = WaveClock::default();
        let t = Instant::now();
        let path = journal_path(dir, seed);
        let report =
            campaigns::run_e2_observed(&config(seed), 1, Some(&path), &FaultPlan::none(), &clock)
                .map_err(|e| e.to_string())?;
        let took = t.elapsed();
        let snaps = clock.snaps.into_inner().expect("observer lock is never poisoned");
        // Between consecutive snapshots a wave runs, is applied, and is
        // fsynced; the fsync and everything outside the waves is the
        // campaign layer's own.
        let waves: Duration = snaps
            .windows(2)
            .map(|w| (w[1].0 - w[0].0).saturating_sub(Duration::from_nanos(w[1].1 - w[0].1)))
            .sum();
        own += took.saturating_sub(waves);
        total += took;
        bodies.push(
            router::results_json("e2", &campaigns::e2_spec(&config(seed)).name, &report).render(),
        );
    }
    Ok((share(own.as_secs_f64(), total.as_secs_f64()), bodies))
}

/// Starts a server on `journals` and times it until its first response:
/// the bind, the thread spawns and one request.
fn start_timed(journals: &Path, setup: &mut Fastest, report: &mut Report) -> Option<Server> {
    let t = Instant::now();
    let server = match start(journals) {
        Ok(server) => server,
        Err(e) => {
            report.check(false, || format!("the server did not start: {e}"));
            return None;
        }
    };
    let first = client::get(server.addr(), "/");
    setup.record(0, t.elapsed());
    let ok = first.is_ok_and(|r| r.status == 200);
    report.check(ok, || "a started server did not answer".into());
    ok.then_some(server)
}

/// Mean over the jobs of the fastest in-process resume of a finished
/// journal (no unit runs).
fn resume_time(seeds: &[u64], dir: &Path) -> Duration {
    let mut resume = Fastest::new(seeds.len());
    for _ in 0..5 {
        for (s, &seed) in seeds.iter().enumerate() {
            let path = journal_path(dir, seed);
            let t = Instant::now();
            let _ = campaigns::run_e2(&config(seed), 1, Some(&path), &FaultPlan::none());
            resume.record(s, t.elapsed());
        }
    }
    resume.sum() / seeds.len() as u32
}

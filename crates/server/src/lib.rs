#![warn(missing_docs)]

//! `crn-server`: a threaded HTTP/1.1 front-end for experiment campaigns —
//! simulation-as-a-service on nothing but `std::net`.
//!
//! The build environment is offline, so there is no tokio, no hyper, no
//! serde: the crate hand-rolls the three layers it needs, each small and
//! testable on its own.
//!
//! * [`http`] — an incremental request parser with hard resource limits,
//!   plus a response writer.
//! * [`json`] — a JSON subset codec whose numbers are lexemes (`u64`
//!   seeds survive) and whose rendering is canonical (bodies compare
//!   with `==`).
//! * [`store`] / [`scheduler`] / [`router`] — a FIFO job store, a
//!   single-flight scheduler thread driving
//!   [`run_campaign`](crn_workloads::campaign::run_campaign) with each
//!   job's journal as its write-ahead log, and the route handlers.
//!
//! # Threading model
//!
//! ```text
//!   accept thread ──► connection queue ──► N http workers ──► Store
//!                                                              │ ▲
//!                                              (FIFO + condvar)│ │ snapshots
//!                                                              ▼ │
//!                                                      scheduler thread
//!                                                      (one campaign at
//!                                                       a time, journal
//!                                                       as WAL)
//! ```
//!
//! The accept thread does nothing but hand sockets to a bounded set of
//! worker threads that block on the connection queue; workers parse
//! requests and take only short, bounded sections of the store lock, so
//! status polls stay responsive while a campaign runs.
//!
//! # Restart safety
//!
//! The server keeps no durable state of its own — the campaign journal
//! *is* the write-ahead log. Kill the process mid-campaign, start a new
//! server on the same `--journal-dir`, resubmit the same campaign, and
//! the run resumes from the last fsynced wave; `GET …/results` then
//! returns bytes identical to an uninterrupted run's (enforced by
//! `tests/tests/server_e2e.rs` and the CI smoke step).

pub mod client;
pub mod http;
pub mod json;
pub mod metrics;
pub mod router;
pub mod scheduler;
pub mod store;

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use http::{Limits, RequestParser, Response};
use metrics::ServerMetrics;
use router::RouterCtx;
use store::Store;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// HTTP worker threads (bounds concurrent request handling).
    pub workers: usize,
    /// Directory campaign journals are written to (created if absent).
    pub journal_dir: PathBuf,
    /// Parser resource limits.
    pub limits: Limits,
    /// Wave parallelism for submissions that don't specify `threads`.
    pub default_threads: usize,
    /// Per-connection read timeout; an idle keep-alive connection is
    /// dropped after this long so workers can't be pinned forever.
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            journal_dir: std::env::temp_dir().join("crn-campaigns"),
            limits: Limits::default(),
            default_threads: std::thread::available_parallelism().map_or(2, usize::from),
            read_timeout: Duration::from_secs(10),
        }
    }
}

/// Blocking handoff queue between the accept thread and the workers.
struct ConnQueue {
    inner: Mutex<(VecDeque<TcpStream>, bool)>,
    wake: Condvar,
}

impl ConnQueue {
    fn new() -> ConnQueue {
        ConnQueue { inner: Mutex::new((VecDeque::new(), false)), wake: Condvar::new() }
    }

    fn push(&self, stream: TcpStream) {
        let mut inner = self.inner.lock().unwrap();
        inner.0.push_back(stream);
        self.wake.notify_one();
    }

    /// Blocks for the next connection; `None` once closed *and* drained,
    /// so queued connections still get served during shutdown.
    fn pop(&self) -> Option<TcpStream> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(stream) = inner.0.pop_front() {
                return Some(stream);
            }
            if inner.1 {
                return None;
            }
            inner = self.wake.wait(inner).unwrap();
        }
    }

    fn close(&self) {
        self.inner.lock().unwrap().1 = true;
        self.wake.notify_all();
    }
}

/// A running campaign server. Dropping it shuts it down cleanly.
pub struct Server {
    addr: SocketAddr,
    store: Arc<Store>,
    metrics: Arc<ServerMetrics>,
    conns: Arc<ConnQueue>,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    scheduler: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the accept/worker/scheduler threads, and returns.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        std::fs::create_dir_all(&cfg.journal_dir)?;
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;

        let store = Arc::new(Store::new());
        let metrics = Arc::new(ServerMetrics::new());
        let conns = Arc::new(ConnQueue::new());
        let shutdown = Arc::new(AtomicBool::new(false));

        let scheduler = scheduler::spawn(store.clone(), metrics.clone());

        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let conns = conns.clone();
                let store = store.clone();
                let metrics = metrics.clone();
                let cfg = cfg.clone();
                std::thread::Builder::new()
                    .name(format!("crn-http-{i}"))
                    .spawn(move || {
                        while let Some(stream) = conns.pop() {
                            serve_connection(stream, &store, &metrics, &cfg);
                        }
                    })
                    .expect("spawn http worker")
            })
            .collect();

        let accept = {
            let conns = conns.clone();
            let shutdown = shutdown.clone();
            std::thread::Builder::new()
                .name("crn-accept".to_string())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        if let Ok(stream) = stream {
                            conns.push(stream);
                        }
                    }
                })
                .expect("spawn accept thread")
        };

        Ok(Server {
            addr,
            store,
            metrics,
            conns,
            shutdown,
            accept: Some(accept),
            workers,
            scheduler: Some(scheduler),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared job store (tests poke it directly).
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// The shared metric bundle `/metrics` renders.
    pub fn metrics(&self) -> &Arc<ServerMetrics> {
        &self.metrics
    }

    /// Stops accepting, drains queued connections, waits for the
    /// scheduler to finish its current job, and joins every thread.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept thread with a throwaway connection; it
        // re-checks the flag before queueing anything.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.conns.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.store.close();
        if let Some(scheduler) = self.scheduler.take() {
            let _ = scheduler.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// Serves one connection until it closes, errors, times out, or sends
/// `Connection: close`. Parse errors get their mapped status and a close —
/// after a framing error the stream position is unknowable, so the
/// connection cannot be reused.
fn serve_connection(
    stream: TcpStream,
    store: &Arc<Store>,
    metrics: &Arc<ServerMetrics>,
    cfg: &ServerConfig,
) {
    metrics.connections.inc();
    let _ = stream.set_read_timeout(Some(cfg.read_timeout));
    let _ = stream.set_nodelay(true);
    let mut stream = stream;
    let mut parser = RequestParser::new(cfg.limits);
    let ctx = RouterCtx {
        store,
        metrics,
        journal_dir: &cfg.journal_dir,
        default_threads: cfg.default_threads,
    };
    let mut buf = [0u8; 4096];
    loop {
        match parser.try_next() {
            Ok(Some(req)) => {
                metrics.requests.inc();
                let keep_alive = req.keep_alive();
                let response = router::handle(&req, &ctx);
                metrics.record_response(response.status);
                if stream.write_all(&response.encode(keep_alive)).is_err() || !keep_alive {
                    return;
                }
            }
            Ok(None) => match stream.read(&mut buf) {
                Ok(0) | Err(_) => return,
                Ok(n) => parser.feed(&buf[..n]),
            },
            Err(e) => {
                metrics.parse_errors.inc();
                let response = Response::error(e.status(), e.message());
                metrics.record_response(response.status);
                let _ = stream.write_all(&response.encode(false));
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_server() -> Server {
        let cfg = ServerConfig {
            journal_dir: std::env::temp_dir()
                .join(format!("crn-server-unit-{}", std::process::id())),
            workers: 2,
            ..ServerConfig::default()
        };
        Server::start(cfg).expect("server starts")
    }

    #[test]
    fn serves_service_info_and_shuts_down() {
        let server = test_server();
        let resp = client::get(server.addr(), "/").expect("request succeeds");
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("crn-campaign-server"), "{text}");
        assert!(text.contains("\"e2\""), "{text}");
        server.shutdown();
    }

    #[test]
    fn oversized_and_malformed_requests_get_mapped_statuses() {
        let server = test_server();
        let addr = server.addr();

        // Malformed method: 400.
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"B<D / HTTP/1.1\r\n\r\n").unwrap();
        let mut text = String::new();
        s.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 400 "), "{text}");

        // Endless request line: 431 without buffering it all.
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&vec![b'A'; Limits::default().max_request_line + 2]).unwrap();
        let mut text = String::new();
        s.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 431 "), "{text}");

        server.shutdown();
    }
}

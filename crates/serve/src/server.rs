//! The daemon's serving half: an accept loop, per-connection frame
//! readers, and a small worker pool that answers **batches** of queued
//! requests against one index snapshot each.
//!
//! Why batches: [`QueryService::execute`] acquires a snapshot per call — a
//! read-lock plus an `Arc` bump. Under a saturating client load that
//! acquisition dominates the cheap queries. A worker that wakes takes
//! whatever is queued (up to [`crate::ServeConfig::batch_max`]) and calls
//! [`QueryService::execute_batch`], which snapshots once. Nothing waits for
//! a batch to fill: an idle daemon answers each request alone, and a busy
//! one batches whatever queued up while its workers were executing. A
//! batch is also the unit of swap consistency: every request in it is
//! answered by the same index generation.
//!
//! A client that stops reading cannot pin a worker: every accepted socket
//! carries [`WRITE_TIMEOUT`], and a response write that fails shuts the
//! connection down, since a partly written frame has desynced the stream.
//!
//! Failure policy: *envelope* problems (bad tag, hostile count, unknown
//! version) come back as typed [`QueryReply::Error`] responses and the
//! connection lives on; *frame* problems (checksum mismatch, truncation)
//! poison the stream — the reader answers with a best-effort id-0 error
//! and closes, because after a bad frame the byte stream can no longer be
//! trusted to re-synchronize.
//!
//! Admin requests ([`proto::AdminRequest`]) never enter the worker queue:
//! the reader thread that decoded one answers it inline from registry
//! snapshots and the shared [`HealthState`] — the dedicated ops lane. A
//! `Health` probe therefore answers in reader-thread time even when every
//! worker is pinned inside a query batch and the queue is deep.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lash_encoding::frame::{self, FrameChecksum};
use lash_index::{Query, QueryError, QueryReply, QueryService};
use lash_obs::{profiler, FieldValue};

use crate::ops::HealthState;
use crate::proto::{self, AdminCall, AdminReply, AdminRequest, Inbound, Response};
use crate::proto::{MAGIC, PROTOCOL_VERSION};
use crate::{Result, ServeConfig};

/// How long one write to a client may block before the server gives up
/// on that connection and shuts it down.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Registry handles resolved once at startup; the per-request path never
/// touches the registry's maps.
struct Metrics {
    connections: lash_obs::Counter,
    disconnects: lash_obs::Counter,
    query_disconnects: lash_obs::Counter,
    requests: lash_obs::Counter,
    responses: lash_obs::Counter,
    error_replies: lash_obs::Counter,
    frame_errors: lash_obs::Counter,
    admin_requests: lash_obs::Counter,
    batches: lash_obs::Counter,
    batch_size: lash_obs::Histogram,
    batch_us: lash_obs::Histogram,
    queue_depth: lash_obs::Gauge,
    queue_wait_us: lash_obs::Histogram,
    queue_wait_win: lash_obs::window::WindowedHistogram,
}

impl Metrics {
    fn new() -> Metrics {
        let obs = lash_obs::global();
        Metrics {
            connections: obs.counter("serve.connections"),
            disconnects: obs.counter("serve.disconnects"),
            query_disconnects: obs.counter("serve.query_disconnects"),
            requests: obs.counter("serve.requests"),
            responses: obs.counter("serve.responses"),
            error_replies: obs.counter("serve.error_replies"),
            frame_errors: obs.counter("serve.frame_errors"),
            admin_requests: obs.counter("serve.admin_requests"),
            batches: obs.counter("serve.batches"),
            batch_size: obs.histogram("serve.batch_size"),
            batch_us: obs.histogram("serve.batch_us"),
            queue_depth: obs.gauge("serve.queue.depth"),
            queue_wait_us: obs.histogram("serve.queue.wait_us"),
            queue_wait_win: obs.windowed_histogram("serve.queue.wait_us"),
        }
    }
}

/// One decoded (or failed-to-decode) request waiting for a worker, plus
/// the write half it is answered on.
struct Job {
    id: u64,
    query: std::result::Result<Query, QueryError>,
    out: Arc<Mutex<TcpStream>>,
    /// When the reader queued this job — the start of its queue wait.
    enqueued: Instant,
}

/// State shared by the acceptor, connection readers, and workers.
struct Shared {
    service: Arc<QueryService>,
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
    /// Clones of every live connection, kept so shutdown can unblock the
    /// readers parked in `read_frame_into`.
    conns: Mutex<Vec<TcpStream>>,
    reader_threads: Mutex<Vec<JoinHandle<()>>>,
    metrics: Metrics,
    batch_max: usize,
    /// Live queue length, mirrored into the `serve.queue.depth` gauge —
    /// kept as its own atomic so the admin lane reads it without taking
    /// the queue lock.
    depth: AtomicU64,
    /// Requests currently inside a worker's batch execution.
    inflight: AtomicU64,
    /// Worker-pool width, reported by `Health`.
    workers: u64,
    /// Lifecycle gauges, shared with the [`crate::Lifecycle`] when the
    /// daemon wires one in ([`Server::start_with_health`]).
    health: Arc<HealthState>,
}

/// A running daemon: the listener, its worker pool, and every live
/// connection. Dropping (or calling [`Server::shutdown`]) stops accepting,
/// unblocks the readers, drains queued requests, and joins every thread.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr` and starts serving `service` with a private,
    /// lifecycle-less [`HealthState`] (phase stays `idle`; the admin lane
    /// still answers with server-side fields).
    pub fn start(service: Arc<QueryService>, config: &ServeConfig) -> Result<Server> {
        Server::start_with_health(service, config, Arc::new(HealthState::new()))
    }

    /// Binds `config.addr` and starts serving `service`, answering
    /// `Health` admin requests from `health` — the daemon passes its
    /// [`crate::Lifecycle`]'s state so phase, snapshot age, and throttle
    /// wait are live.
    pub fn start_with_health(
        service: Arc<QueryService>,
        config: &ServeConfig,
        health: Arc<HealthState>,
    ) -> Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            service,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            reader_threads: Mutex::new(Vec::new()),
            metrics: Metrics::new(),
            batch_max: config.batch_max.max(1),
            depth: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            workers: config.effective_workers() as u64,
            health,
        });
        let mut workers = Vec::new();
        for i in 0..config.effective_workers() {
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("lash-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .map_err(crate::ServeError::Io)?,
            );
        }
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("lash-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))
                .map_err(crate::ServeError::Io)?
        };
        Ok(Server {
            local_addr,
            shared,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The address actually bound (resolves the port when the config asked
    /// for `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops the daemon: no new connections, live readers unblocked and
    /// joined, queued requests answered, workers joined.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the acceptor with one throwaway connection to ourselves.
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_secs(1));
        // Unblock every reader parked in a frame read.
        for conn in self.shared.conns.lock().expect("conns lock").drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
        self.shared.available.notify_all();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let readers: Vec<_> = self
            .shared
            .reader_threads
            .lock()
            .expect("reader threads lock")
            .drain(..)
            .collect();
        for reader in readers {
            let _ = reader.join();
        }
        // Readers are gone, so the queue can only drain now; wake the
        // workers until every one has observed shutdown + empty queue.
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        shared.metrics.connections.inc();
        // Response frames are small and latency-sensitive; Nagle would
        // hold them hostage to the client's delayed ACKs.
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().expect("conns lock").push(clone);
        }
        let shared_for_conn = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name("lash-serve-conn".to_string())
            .spawn(move || {
                let queries = serve_connection(stream, &shared_for_conn).unwrap_or(0);
                shared_for_conn.metrics.disconnects.inc();
                // Count data-carrying clients separately: ops scrapes
                // (admin-only connections) must not look like departing
                // query clients to `--once`-style wait loops.
                if queries > 0 {
                    shared_for_conn.metrics.query_disconnects.inc();
                }
            });
        if let Ok(handle) = handle {
            shared
                .reader_threads
                .lock()
                .expect("reader threads lock")
                .push(handle);
        }
    }
}

/// Writes one response frame to a connection's (mutex-guarded) write half.
fn write_response(out: &Mutex<TcpStream>, resp: &Response, scratch: &mut Vec<u8>) -> bool {
    proto::encode_response(resp, scratch);
    write_payload(out, scratch)
}

/// Frames `payload` onto a connection. A failed write may have left half a
/// frame on the wire, so it shuts the connection down: later writes fail
/// at once and the reader exits.
fn write_payload(out: &Mutex<TcpStream>, payload: &[u8]) -> bool {
    let mut stream = out.lock().expect("connection write lock");
    let written = frame::write_frame(payload, &mut *stream).is_ok();
    if !written {
        let _ = stream.shutdown(Shutdown::Both);
    }
    written
}

/// The per-connection reader: handshake, then frames → decoded jobs for
/// the worker pool, admin requests answered inline. Returns how many
/// *query* jobs the connection contributed over its lifetime.
fn serve_connection(mut stream: TcpStream, shared: &Arc<Shared>) -> std::io::Result<u64> {
    // Handshake: 4 magic bytes + the client's protocol version, answered
    // with the server's version byte. A magic mismatch is not this
    // protocol at all — close without bytes. A version mismatch gets a
    // typed error frame so a future client learns *why* before the close.
    let mut hello = [0u8; 5];
    stream.read_exact(&mut hello)?;
    if hello[..4] != MAGIC {
        return Ok(0);
    }
    let out = Arc::new(Mutex::new(stream.try_clone()?));
    let mut scratch = Vec::new();
    if hello[4] != PROTOCOL_VERSION {
        let resp = Response {
            id: 0,
            reply: QueryReply::Error(QueryError::UnsupportedVersion {
                requested: hello[4] as u32,
                serving: PROTOCOL_VERSION as u32,
            }),
        };
        write_response(&out, &resp, &mut scratch);
        return Ok(0);
    }
    stream.write_all(&[PROTOCOL_VERSION])?;

    let mut buf = Vec::new();
    let mut queries = 0u64;
    loop {
        match frame::read_frame_into(&mut stream, &mut buf, FrameChecksum::Fnv1a) {
            // Clean EOF between frames: the client hung up.
            Ok(None) => return Ok(queries),
            Ok(Some(len)) => {
                shared.metrics.requests.inc();
                let job = match proto::decode_inbound(&buf[..len]) {
                    // The admin lane: answered here on the reader thread,
                    // never queued — ops traffic cannot wait behind query
                    // batches, and a saturated pool cannot starve `Health`.
                    Ok(Inbound::Admin(call)) => {
                        answer_admin(shared, &call, &out, &mut scratch);
                        continue;
                    }
                    Ok(Inbound::Query(req)) => {
                        queries += 1;
                        Job {
                            id: req.id,
                            query: Ok(req.query),
                            out: Arc::clone(&out),
                            enqueued: Instant::now(),
                        }
                    }
                    Err((id, err)) => Job {
                        id,
                        query: Err(err),
                        out: Arc::clone(&out),
                        enqueued: Instant::now(),
                    },
                };
                let mut queue = shared.queue.lock().expect("queue lock");
                queue.push_back(job);
                let depth = queue.len() as u64;
                drop(queue);
                shared.depth.store(depth, Ordering::Relaxed);
                shared.metrics.queue_depth.set(depth);
                shared.available.notify_one();
            }
            // A corrupt or truncated frame: the stream cannot be re-synced,
            // so answer best-effort (the request id is unknowable) and
            // close. The typed reply is what distinguishes "your bytes were
            // damaged in transit" from a silent drop.
            Err(e) => {
                shared.metrics.frame_errors.inc();
                lash_obs::flight::record_error("serve.frame", &e.to_string());
                let resp = Response {
                    id: 0,
                    reply: QueryReply::Error(QueryError::Malformed(format!(
                        "unreadable frame: {e}"
                    ))),
                };
                write_response(&out, &resp, &mut scratch);
                let _ = stream.shutdown(Shutdown::Both);
                return Ok(queries);
            }
        }
    }
}

/// Builds and writes the reply to one admin call — the reader-thread ops
/// lane. Every branch reads registry/health snapshots; none touches the
/// worker queue.
fn answer_admin(shared: &Shared, call: &AdminCall, out: &Mutex<TcpStream>, scratch: &mut Vec<u8>) {
    shared.metrics.admin_requests.inc();
    let obs = lash_obs::global();
    let kind = match call.request {
        AdminRequest::Metrics => "metrics",
        AdminRequest::Health => "health",
        AdminRequest::SlowOps { .. } => "slow_ops",
        AdminRequest::RecentEvents { .. } => "recent_events",
        AdminRequest::Profile { .. } => "profile",
    };
    let reply = match &call.request {
        AdminRequest::Metrics => AdminReply::Metrics {
            text: obs.render_text(),
            windows: obs.window_stats(),
        },
        AdminRequest::Health => {
            let health = &shared.health;
            let mut fields = health.fields();
            fields.push((
                "queue_depth".to_string(),
                shared.depth.load(Ordering::Relaxed),
            ));
            fields.push((
                "inflight".to_string(),
                shared.inflight.load(Ordering::Relaxed),
            ));
            fields.push(("workers".to_string(), shared.workers));
            fields.push(("requests".to_string(), shared.metrics.requests.get()));
            fields.push(("responses".to_string(), shared.metrics.responses.get()));
            fields.push((
                "error_replies".to_string(),
                shared.metrics.error_replies.get(),
            ));
            AdminReply::Health {
                phase: health.phase().name().to_string(),
                fields,
            }
        }
        AdminRequest::SlowOps { max } => {
            AdminReply::Lines(tail_lines(
                obs.dump_recent()
                    .into_iter()
                    // The ring holds rendered JSON: the event classifier is
                    // a fixed key, so a substring probe is exact enough and
                    // avoids re-parsing every line on the ops path.
                    .filter(|l| l.contains("\"event\":\"slow_op\""))
                    .collect(),
                *max,
            ))
        }
        AdminRequest::RecentEvents { max } => {
            AdminReply::Lines(tail_lines(obs.dump_recent(), *max))
        }
        AdminRequest::Profile { reset } => {
            let reply = AdminReply::Profile {
                hz: profiler::configured_hz(),
                samples: profiler::samples_taken(),
                folded: profiler::folded(),
            };
            if *reset {
                profiler::reset();
            }
            reply
        }
    };
    obs.emit_event("admin", "serve.admin", &[("kind", FieldValue::from(kind))]);
    proto::encode_admin_response(call.id, &reply, scratch);
    write_payload(out, scratch);
}

/// The newest `max` lines (all of them when `max == 0`), oldest first.
fn tail_lines(mut lines: Vec<String>, max: u32) -> Vec<String> {
    let max = max as usize;
    if max > 0 && lines.len() > max {
        lines.drain(..lines.len() - max);
    }
    lines
}

/// The batching worker: drain a gulp of jobs, answer them against one
/// snapshot, write the responses.
fn worker_loop(shared: &Arc<Shared>) {
    let mut scratch = Vec::new();
    loop {
        let batch = next_batch(shared);
        if batch.is_empty() {
            // Only returned empty on shutdown with a drained queue.
            return;
        }
        let started = Instant::now();
        let size = batch.len();
        let _batch_span = lash_obs::span!("serve.batch", size = size);
        shared.inflight.fetch_add(size as u64, Ordering::Relaxed);

        // Each job's queue wait ends here. Split the gulp: decodable
        // queries move to the service as one batch (one snapshot),
        // envelope failures answer directly, and every job's id and write
        // half wait in `pending` for its reply.
        let mut queries: Vec<Query> = Vec::with_capacity(size);
        let mut pending: Vec<(u64, Arc<Mutex<TcpStream>>, Option<QueryError>)> =
            Vec::with_capacity(size);
        for job in batch {
            let waited = job.enqueued.elapsed();
            shared.metrics.queue_wait_us.record_duration(waited);
            shared.metrics.queue_wait_win.record_duration(waited);
            let failed = match job.query {
                Ok(query) => {
                    queries.push(query);
                    None
                }
                Err(err) => Some(err),
            };
            pending.push((job.id, job.out, failed));
        }
        let mut answers = if queries.is_empty() {
            Vec::new()
        } else {
            shared.service.execute_batch(&queries)
        }
        .into_iter();

        for (id, out, failed) in pending {
            let reply = match failed {
                Some(err) => QueryReply::Error(err),
                None => answers.next().expect("one answer per query"),
            };
            if matches!(reply, QueryReply::Error(_)) {
                shared.metrics.error_replies.inc();
            }
            if write_response(&out, &Response { id, reply }, &mut scratch) {
                shared.metrics.responses.inc();
            }
        }
        shared.inflight.fetch_sub(size as u64, Ordering::Relaxed);
        shared.metrics.batches.inc();
        shared.metrics.batch_size.record(size as u64);
        shared.metrics.batch_us.record_duration(started.elapsed());
    }
}

/// Blocks until a job is queued, then takes everything queued up to
/// `batch_max` without waiting for more: one request when the daemon is
/// idle, a full gulp when its workers were busy. Returns empty only when
/// the server is shutting down and the queue is drained.
fn next_batch(shared: &Shared) -> Vec<Job> {
    let mut queue = shared.queue.lock().expect("queue lock");
    while queue.is_empty() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Vec::new();
        }
        queue = shared
            .available
            .wait_timeout(queue, Duration::from_millis(50))
            .expect("queue lock")
            .0;
    }
    let take = queue.len().min(shared.batch_max);
    let batch: Vec<Job> = queue.drain(..take).collect();
    let depth = queue.len() as u64;
    drop(queue);
    shared.depth.store(depth, Ordering::Relaxed);
    shared.metrics.queue_depth.set(depth);
    batch
}

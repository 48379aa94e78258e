//! Load generators for the daemon's wire protocol: an open loop that sends
//! on a schedule whatever the replies do, a closed loop that keeps a fixed
//! number of requests in flight, and a one-at-a-time round-trip probe.

use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use lash::encoding::frame::{self, FrameChecksum};
use lash::index::{Query, QueryReply};
use lash::serve::proto::{self, Request};
use lash::serve::{Client, MAGIC, PROTOCOL_VERSION};

/// The sender sleeps until this close to the next due time and then polls
/// the clock, yielding the core between polls: a plain sleep overshoots by
/// tens of microseconds, which is the size of the latencies measured.
const SPIN_NS: u64 = 100_000;

/// When each request is due, relative to the loop's origin, ascending.
#[derive(Debug, Clone)]
pub struct Schedule {
    due_ns: Vec<u64>,
}

impl Schedule {
    /// `rate` requests per second for `seconds`, arriving as independent
    /// users do: exponential gaps drawn from `seed`. Evenly spaced requests
    /// lock into phase with the server's batch window, and the median
    /// latency then depends on the phase a run happens to start in.
    pub fn poisson(rate: u64, seconds: f64, seed: u64) -> Schedule {
        let mean_gap_ns = 1e9 / rate as f64;
        let mut rng = crate::mix::SplitMix64(seed);
        let mut at = 0.0f64;
        let due_ns = (0..(rate as f64 * seconds) as usize)
            .map(|_| {
                // Uniform in (0, 1], so the logarithm is finite.
                let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
                at -= u.ln() * mean_gap_ns;
                at as u64
            })
            .collect();
        Schedule { due_ns }
    }

    /// `n` requests, one every `interval_ns`.
    #[cfg(test)]
    pub fn periodic(interval_ns: u64, n: usize) -> Schedule {
        Schedule {
            due_ns: (0..n as u64).map(|i| i * interval_ns).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.due_ns.len()
    }

    pub fn due_ns(&self, i: usize) -> u64 {
        self.due_ns[i]
    }

    /// How many requests are due at or before `t_ns`.
    pub fn due_by(&self, t_ns: u64) -> usize {
        self.due_ns.partition_point(|&d| d <= t_ns)
    }

    /// When the last request is due.
    pub fn span_ns(&self) -> u64 {
        self.due_ns.last().copied().unwrap_or(0)
    }
}

/// What to do with each reply.
pub enum Check<'a> {
    /// Compare with the expected reply of the pooled query it answers.
    Against(&'a [QueryReply]),
    /// Keep it for a check that needs to know more (which snapshot served).
    Keep,
}

/// One kept reply of an open loop.
pub struct Kept {
    pub pool_index: usize,
    pub due_ns: u64,
    pub recv_ns: u64,
    pub reply: QueryReply,
}

#[derive(Default)]
pub struct OpenLoopOutcome {
    pub sent: usize,
    /// Reply time minus due time, one per reply, in receipt order per
    /// connection.
    pub latency_ns: Vec<u64>,
    /// Receipt times relative to the loop's origin, ascending.
    pub recv_ns: Vec<u64>,
    /// How long after its due time each request was written.
    pub lateness_ns: Vec<u64>,
    /// Error replies and replies that differ from the expected one.
    pub wrong: u64,
    /// Requests sent and never answered.
    pub lost: u64,
    pub kept: Vec<Kept>,
}

impl OpenLoopOutcome {
    /// Requests due and not yet answered at `t_ns`.
    pub fn backlog_at(&self, schedule: &Schedule, t_ns: u64) -> usize {
        let answered = self.recv_ns.partition_point(|&r| r <= t_ns);
        schedule
            .due_by(t_ns)
            .min(self.sent)
            .saturating_sub(answered)
    }
}

/// True when the unanswered backlog at the end of a schedule is more than
/// noise and more than half again what it was half-way: the server is
/// falling behind, not merely holding a queue. (A backlog that grows evenly
/// from the first request on ends at twice its half-way size, so the line
/// has to sit below two.)
pub fn backlog_grows(mid: usize, end: usize) -> bool {
    end > 32 && 2 * end > 3 * mid
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut hello = [0u8; 5];
    hello[..4].copy_from_slice(&MAGIC);
    hello[4] = PROTOCOL_VERSION;
    stream.write_all(&hello)?;
    let mut ack = [0u8; 1];
    stream.read_exact(&mut ack)?;
    if ack[0] != PROTOCOL_VERSION {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("handshake answered with version {}", ack[0]),
        ));
    }
    Ok(stream)
}

struct Received {
    latency_ns: Vec<u64>,
    recv_ns: Vec<u64>,
    wrong: u64,
    kept: Vec<Kept>,
}

/// Reads replies until the stream ends. Request `i` carries id `i + 1` and
/// asks pooled query `(first_query + i) % pool`.
fn receive(
    stream: TcpStream,
    origin: Instant,
    schedule: &Schedule,
    first_query: usize,
    pool: usize,
    check: &Check<'_>,
    received: &AtomicUsize,
) -> Received {
    let mut reader = BufReader::with_capacity(64 * 1024, stream);
    let mut buf = Vec::new();
    let mut out = Received {
        latency_ns: Vec::new(),
        recv_ns: Vec::new(),
        wrong: 0,
        kept: Vec::new(),
    };
    // A read error is the sender closing the socket after the drain wait.
    while let Ok(Some(len)) = frame::read_frame_into(&mut reader, &mut buf, FrameChecksum::Fnv1a) {
        let now = origin.elapsed().as_nanos() as u64;
        received.fetch_add(1, Ordering::Release);
        let Ok(resp) = proto::decode_response(&buf[..len]) else {
            out.wrong += 1;
            continue;
        };
        let i = resp.id.wrapping_sub(1) as usize;
        if i >= schedule.len() {
            out.wrong += 1;
            continue;
        }
        let due = schedule.due_ns(i);
        out.latency_ns.push(now.saturating_sub(due));
        out.recv_ns.push(now);
        let pool_index = (first_query + i) % pool;
        match check {
            Check::Against(expected) => {
                if resp.reply != expected[pool_index] {
                    out.wrong += 1;
                }
            }
            Check::Keep => out.kept.push(Kept {
                pool_index,
                due_ns: due,
                recv_ns: now,
                reply: resp.reply,
            }),
        }
    }
    out
}

/// Sends `schedule` over `conns` connections (request `i` on connection
/// `i % conns`) from one sender thread that never reads, so a reply that
/// stalls delays no later send. Stops early when `stop` is raised. After
/// the last send it waits up to `drain` for outstanding replies, then
/// closes the connections; whatever is still missing is `lost`. Due times
/// count from `origin`.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    addr: SocketAddr,
    conns: usize,
    schedule: &Schedule,
    queries: &[Query],
    first_query: usize,
    check: Check<'_>,
    stop: Option<&AtomicBool>,
    drain: Duration,
    origin: Instant,
) -> std::io::Result<OpenLoopOutcome> {
    let streams: Vec<TcpStream> = (0..conns)
        .map(|_| connect(addr))
        .collect::<std::io::Result<_>>()?;
    let mut writers: Vec<TcpStream> = streams
        .iter()
        .map(TcpStream::try_clone)
        .collect::<std::io::Result<_>>()?;
    let received = AtomicUsize::new(0);
    let mut out = OpenLoopOutcome::default();
    std::thread::scope(|scope| -> std::io::Result<()> {
        let handles: Vec<_> = streams
            .into_iter()
            .map(|s| {
                let (check, received) = (&check, &received);
                scope.spawn(move || {
                    receive(
                        s,
                        origin,
                        schedule,
                        first_query,
                        queries.len(),
                        check,
                        received,
                    )
                })
            })
            .collect();

        let sending = send_all(
            &mut writers,
            origin,
            schedule,
            queries,
            first_query,
            stop,
            &mut out,
        );
        let drain_started = Instant::now();
        while received.load(Ordering::Acquire) < out.sent && drain_started.elapsed() < drain {
            std::thread::sleep(Duration::from_millis(1));
        }
        for w in &writers {
            let _ = w.shutdown(Shutdown::Both);
        }
        for h in handles {
            let r = h.join().expect("receiver thread panicked");
            out.latency_ns.extend(r.latency_ns);
            out.recv_ns.extend(r.recv_ns);
            out.wrong += r.wrong;
            out.kept.extend(r.kept);
        }
        sending
    })?;
    out.recv_ns.sort_unstable();
    out.lost = (out.sent - out.latency_ns.len().min(out.sent)) as u64;
    Ok(out)
}

fn send_all(
    writers: &mut [TcpStream],
    origin: Instant,
    schedule: &Schedule,
    queries: &[Query],
    first_query: usize,
    stop: Option<&AtomicBool>,
    out: &mut OpenLoopOutcome,
) -> std::io::Result<()> {
    let conns = writers.len();
    let mut payload = Vec::new();
    let mut frames: Vec<Vec<u8>> = vec![Vec::new(); conns];
    let mut i = 0;
    while i < schedule.len() && !stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
        let due = schedule.due_ns(i);
        let mut now = origin.elapsed().as_nanos() as u64;
        if now < due {
            if due - now > SPIN_NS {
                std::thread::sleep(Duration::from_nanos(due - now - SPIN_NS));
            } else {
                std::thread::yield_now();
            }
            now = origin.elapsed().as_nanos() as u64;
            if now < due {
                continue;
            }
        }
        // Everything due by now goes out in one write per connection.
        while i < schedule.len() && schedule.due_ns(i) <= now {
            let query = queries[(first_query + i) % queries.len()].clone();
            proto::encode_request(&Request::new(i as u64 + 1, query), &mut payload);
            frame::encode_frame(&payload, &mut frames[i % conns]);
            out.lateness_ns.push(now - schedule.due_ns(i));
            i += 1;
        }
        for (w, f) in writers.iter_mut().zip(&mut frames) {
            if !f.is_empty() {
                w.write_all(f)?;
                f.clear();
            }
        }
        out.sent = i;
    }
    Ok(())
}

/// Width of the windows a closed loop's throughput is read in.
pub const WINDOW_NS: u64 = 100_000_000;

pub struct ClosedLoopOutcome {
    /// Replies received in each full [`WINDOW_NS`] window of the pass, all
    /// connections together.
    pub per_window: Vec<u64>,
    pub wrong: u64,
}

/// `conns` connections, each keeping `window` requests in flight through
/// the library's own blocking [`Client`], for `duration`. Replies that
/// arrive after the deadline are drained and checked but not counted.
pub fn closed_loop(
    addr: SocketAddr,
    conns: usize,
    window: usize,
    duration: Duration,
    queries: &[Query],
    expected: &[QueryReply],
) -> std::io::Result<ClosedLoopOutcome> {
    let windows = (duration.as_nanos() as u64 / WINDOW_NS) as usize;
    let started = Instant::now();
    let per_conn: Vec<std::io::Result<(Vec<u64>, u64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                scope.spawn(move || -> std::io::Result<(Vec<u64>, u64)> {
                    let mut client = Client::connect(addr)?;
                    // Connections start at different places in the pool.
                    let offset = c * queries.len() / conns;
                    let mut per_window = vec![0u64; windows];
                    let (mut sent, mut wrong, mut inflight) = (0usize, 0u64, 0);
                    loop {
                        let open = started.elapsed() < duration;
                        while open && inflight < window {
                            client.send(&queries[(offset + sent) % queries.len()])?;
                            sent += 1;
                            inflight += 1;
                        }
                        if inflight == 0 {
                            return Ok((per_window, wrong));
                        }
                        let resp = client.recv()?;
                        inflight -= 1;
                        // The client numbers its requests from 1.
                        let asked = (offset + resp.id.wrapping_sub(1) as usize) % queries.len();
                        if resp.reply != expected[asked] {
                            wrong += 1;
                        }
                        let at = (started.elapsed().as_nanos() as u64 / WINDOW_NS) as usize;
                        if let Some(w) = per_window.get_mut(at) {
                            *w += 1;
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    });
    let mut out = ClosedLoopOutcome {
        per_window: vec![0; windows],
        wrong: 0,
    };
    for r in per_conn {
        let (per_window, wrong) = r?;
        for (total, n) in out.per_window.iter_mut().zip(per_window) {
            *total += n;
        }
        out.wrong += wrong;
    }
    Ok(out)
}

/// Round-trip times of `n` requests on one connection, one in flight.
/// Returns the sorted times and how many replies were wrong.
pub fn round_trips(
    addr: SocketAddr,
    n: usize,
    queries: &[Query],
    expected: &[QueryReply],
) -> std::io::Result<(Vec<u64>, u64)> {
    let mut client = Client::connect(addr)?;
    let mut times = Vec::with_capacity(n);
    let mut wrong = 0;
    for i in 0..n {
        let started = Instant::now();
        let reply = client.query(&queries[i % queries.len()])?;
        times.push(started.elapsed().as_nanos() as u64);
        if reply != expected[i % queries.len()] {
            wrong += 1;
        }
    }
    times.sort_unstable();
    Ok((times, wrong))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lash::serve::Response;
    use std::net::TcpListener;

    #[test]
    fn schedule_arithmetic() {
        let s = Schedule::periodic(250_000, 2_000);
        assert_eq!(s.due_ns(4), 1_000_000);
        assert_eq!(s.due_by(0), 1);
        assert_eq!(s.due_by(999_999), 4);
        assert_eq!(s.due_by(1_000_000), 5);
        assert_eq!(s.due_by(u64::MAX / 2), 2_000);
        assert_eq!(s.span_ns(), 1_999 * 250_000);

        // Poisson arrivals: the asked rate on average, ascending, and a
        // function of the seed.
        let p = Schedule::poisson(4_000, 2.0, 7);
        assert_eq!(p.len(), 8_000);
        assert!((0..p.len() - 1).all(|i| p.due_ns(i) <= p.due_ns(i + 1)));
        let span_s = p.span_ns() as f64 / 1e9;
        assert!((1.9..2.1).contains(&span_s), "{span_s}");
        assert_eq!(p.due_ns(100), Schedule::poisson(4_000, 2.0, 7).due_ns(100));
        assert_ne!(p.due_ns(100), Schedule::poisson(4_000, 2.0, 8).due_ns(100));
    }

    #[test]
    fn backlog_counts_due_minus_answered_and_growth_needs_both_size_and_trend() {
        let schedule = Schedule::periodic(10, 100);
        let out = OpenLoopOutcome {
            sent: 100,
            recv_ns: (0..40).map(|i| 5 + i * 10).collect(), // 40 answers by t=395
            ..OpenLoopOutcome::default()
        };
        assert_eq!(out.backlog_at(&schedule, 395), 0);
        assert_eq!(out.backlog_at(&schedule, 990), 60);
        assert!(!backlog_grows(0, 20), "small backlog is noise");
        assert!(!backlog_grows(50, 60), "a standing queue is not growth");
        assert!(backlog_grows(10, 60));
        assert!(backlog_grows(8_000, 15_700), "even growth from the start");
    }

    /// A server that answers nothing until it has read all `n` requests.
    fn stalling_server(listener: TcpListener, n: usize) {
        let (mut stream, _) = listener.accept().unwrap();
        let mut hello = [0u8; 5];
        stream.read_exact(&mut hello).unwrap();
        stream.write_all(&[PROTOCOL_VERSION]).unwrap();
        let mut buf = Vec::new();
        let mut ids = Vec::new();
        while ids.len() < n {
            // The client hanging up first ends the server quietly.
            let Ok(Some(len)) = frame::read_frame_into(&mut stream, &mut buf, FrameChecksum::Fnv1a)
            else {
                return;
            };
            ids.push(proto::decode_request(&buf[..len]).unwrap().id);
        }
        let mut payload = Vec::new();
        for id in ids {
            let resp = Response {
                id,
                reply: QueryReply::Support(None),
            };
            proto::encode_response(&resp, &mut payload);
            frame::write_frame(&payload, &mut stream).unwrap();
        }
    }

    #[test]
    fn a_stalled_reply_delays_no_send_and_latency_counts_from_due_time() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let n = 40;
        let schedule = Schedule::periodic(500_000, n);
        let server = std::thread::spawn(move || stalling_server(listener, n));
        let queries = vec![Query::Support { items: vec![] }];
        let expected = vec![QueryReply::Support(None)];
        let out = open_loop(
            addr,
            1,
            &schedule,
            &queries,
            0,
            Check::Against(&expected),
            None,
            Duration::from_secs(10),
            Instant::now(),
        )
        .unwrap();
        server.join().unwrap();
        // The server held every reply until the last request arrived, so
        // all sends completing proves none waited for a reply.
        assert_eq!(out.sent, n);
        assert_eq!(out.lateness_ns.len(), n);
        assert_eq!((out.lost, out.wrong), (0, 0));
        assert_eq!(out.latency_ns.len(), n);
        // Request 0 was due at 0 and answered only after request n-1 was
        // sent: its latency spans the whole schedule.
        let first = out.latency_ns[0];
        assert!(first >= schedule.span_ns(), "{first}");
        // The last request waited for almost nothing.
        assert!(out.latency_ns[n - 1] < first);
        // Mid-schedule nothing had been answered yet.
        assert_eq!(out.backlog_at(&schedule, schedule.due_ns(n / 2)), n / 2 + 1);
    }

    #[test]
    fn requests_never_answered_are_lost() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Expects one request more than will ever be sent, so it never
        // replies; it ends when the client closes the connection.
        let server = std::thread::spawn(move || stalling_server(listener, 6));
        let queries = vec![Query::Support { items: vec![] }];
        let out = open_loop(
            addr,
            1,
            &Schedule::periodic(100_000, 5),
            &queries,
            0,
            Check::Keep,
            None,
            Duration::from_millis(50),
            Instant::now(),
        )
        .unwrap();
        server.join().unwrap();
        assert_eq!((out.sent, out.lost), (5, 5));
        assert!(out.latency_ns.is_empty());
    }
}

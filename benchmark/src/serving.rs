//! The serving side of every workload: publishing a mined set behind the
//! daemon, the open-loop rate steps, the closed-loop saturation passes, and
//! the traced probes of the index and serve layers.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lash::index::{
    IndexSummary, PatternIndexReader, PatternIndexWriter, Query, QueryReply, QueryService,
};
use lash::serve::{AdminReply, AdminRequest, Client, ServeConfig, Server};
use lash::{Pattern, Vocabulary};

use crate::metrics::Report;
use crate::mix::Mix;
use crate::obsread::ObsSnap;
use crate::stats::{median, percentile_sorted, supported_percentiles};
use crate::wire::{self, Check, Schedule};
use crate::workloads::Env;
use crate::Failure;

/// Requests each closed-loop connection keeps in flight.
pub const WINDOW: usize = 32;
/// The rate whose latencies are the end-to-end `query_p50_us`.
pub const HEADLINE_RATE: u64 = 8_000;
/// A rate is met when its p99, from due time, stays within this.
pub const STEP_P99_LIMIT_US: f64 = 2_000.0;
/// The headline rate is offered in this many separate slices, each over
/// fresh connections, and `query_p50_us` is the median of their medians: a
/// slice that the host stalls, or whose batching settles into another
/// rhythm, is outvoted instead of moving the metric.
pub const HEADLINE_SLICES: usize = 5;
/// Closed-loop passes. Four, so that in a traced run untraced and traced
/// passes pair up.
pub const SATURATION_PASSES: usize = 4;

/// A running daemon over a query service, with one client for probes.
pub struct Daemon {
    pub service: Arc<QueryService>,
    pub server: Server,
    pub addr: SocketAddr,
    pub probe: Client,
}

impl Daemon {
    pub fn start(
        service: Arc<QueryService>,
        health: Option<Arc<lash::serve::HealthState>>,
    ) -> Result<Daemon, Failure> {
        let config = ServeConfig::default();
        let server = match health {
            Some(h) => Server::start_with_health(Arc::clone(&service), &config, h)?,
            None => Server::start(Arc::clone(&service), &config)?,
        };
        let addr = server.local_addr();
        let probe = Client::connect(addr)?;
        Ok(Daemon {
            service,
            server,
            addr,
            probe,
        })
    }

    /// Asks the daemon for the support of the live snapshot's most frequent
    /// pattern and checks the reply against the snapshot itself. Returns
    /// that pattern.
    pub fn first_reply(&mut self, report: &mut Report) -> Result<Pattern, Failure> {
        let snapshot = self.service.snapshot();
        let (items, frequency) = snapshot
            .top_k(&[], 1)?
            .pop()
            .ok_or("the served index holds no pattern")?;
        let reply = self.probe.query(&Query::Support {
            items: items.clone(),
        })?;
        report.check(reply == QueryReply::Support(Some(frequency)), || {
            format!("first wire reply {reply:?}, the snapshot says {frequency}")
        });
        Ok(Pattern { items, frequency })
    }
}

/// What publishing one mined set cost, layer by layer.
#[derive(Default, Clone, Copy)]
pub struct PublishFacts {
    pub sort_s: f64,
    pub build_s: f64,
    pub open_s: f64,
    pub swap_s: f64,
    pub wall_s: f64,
    pub index_bytes: u64,
    pub nodes: u64,
}

/// Sorts `patterns`, builds `index_dir`, opens it and puts it behind the
/// daemon — starting the daemon the first time, swapping afterwards — then
/// waits for the first wire reply from it.
pub fn publish(
    env: &mut Env,
    daemon: &mut Option<Daemon>,
    vocab: &Vocabulary,
    patterns: &[Pattern],
    index_dir: &Path,
) -> Result<PublishFacts, Failure> {
    let (rec, report) = (&mut env.rec, &mut env.report);
    let started = Instant::now();
    let root = rec.open("publish", None);
    let (sorted, sort) = rec.time("index.sort", root, || {
        let mut sorted = patterns.to_vec();
        lash::pattern::sort_patterns_lexicographic(&mut sorted);
        sorted
    });
    let (summary, build) = rec.time(
        "index.build",
        root,
        || -> lash::index::Result<IndexSummary> {
            let mut writer = PatternIndexWriter::create(index_dir, vocab)?;
            for p in &sorted {
                writer.add(&p.items, p.frequency)?;
            }
            writer.finish()
        },
    );
    let summary = summary?;
    let (reader, open) = rec.time("index.open", root, || PatternIndexReader::open(index_dir));
    let reader = reader?;
    // Swapping includes retiring what was replaced: the old reader loaded
    // fully at open, so its directory can go at once.
    let (swapped, swap) = rec.time("index.swap", root, || -> Result<(), Failure> {
        match daemon {
            Some(d) => std::fs::remove_dir_all(d.service.swap(reader).dir())?,
            None => *daemon = Some(Daemon::start(Arc::new(QueryService::new(reader)), None)?),
        }
        Ok(())
    });
    swapped?;
    let d = daemon.as_mut().expect("started above");
    let (top, _) = rec.time("serve.first_reply", root, || d.first_reply(report));
    top?;
    rec.close(root);
    report.check(summary.num_patterns == patterns.len() as u64, || {
        format!(
            "indexed {} of {} patterns",
            summary.num_patterns,
            patterns.len()
        )
    });
    Ok(PublishFacts {
        sort_s: sort.as_secs_f64(),
        build_s: build.as_secs_f64(),
        open_s: open.as_secs_f64(),
        swap_s: swap.as_secs_f64(),
        wall_s: started.elapsed().as_secs_f64(),
        index_bytes: crate::host::dir_bytes(index_dir)?,
        nodes: summary.num_nodes,
    })
}

/// Seconds at the headline rate before the first timed step. Whatever ran
/// before — a mine, a set-up — left the daemon's threads parked and the
/// caches full of other data, and the first step used to miss its p99 limit
/// for that alone. The replies are checked, the latencies dropped.
const WARM_UP_S: f64 = 0.25;
/// Seconds per closed-loop pass; its first 100 ms window is left out.
pub const PASS_S: f64 = 0.8;

/// Open-loop steps as (requests per second, seconds). The full staircase of
/// `serve_steady`: with the passes ten seconds in all, five of them at the
/// headline rate.
pub fn staircase() -> Vec<(u64, f64)> {
    let mut steps = vec![(4_000, 0.45)];
    steps.extend(headline(5.0));
    steps.extend([(16_000, 0.45), (32_000, 0.45), (64_000, 0.45)]);
    steps
}

/// The short tail the other workloads run once their own work is done: two
/// seconds at the headline rate before the passes.
pub fn tail() -> Vec<(u64, f64)> {
    headline(2.0).collect()
}

/// `seconds` at the headline rate, in [`HEADLINE_SLICES`] steps.
fn headline(seconds: f64) -> impl Iterator<Item = (u64, f64)> {
    std::iter::repeat_n(
        (HEADLINE_RATE, seconds / HEADLINE_SLICES as f64),
        HEADLINE_SLICES,
    )
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Runs the open-loop `steps` and then the closed-loop passes against the
/// daemon, checking every reply against `expected`, and reports the serving
/// metrics.
pub fn serve_phase(
    env: &mut Env,
    addr: SocketAddr,
    mix: &Mix,
    expected: &[QueryReply],
    steps: &[(u64, f64)],
) -> Result<(), Failure> {
    let (rec, report) = (&mut env.rec, &mut env.report);
    let (traced, conns, env_seed) = (env.traced, env.par, env.seed);
    let before = ObsSnap::take();
    // Per answered step its rate and p99; and the rates one of whose steps
    // lost or got a wrong reply, or fell behind.
    let (mut step_p99, mut unsound) = (Vec::new(), Vec::new());
    let mut headline_p50 = Vec::new();
    let mut lateness = Vec::new();
    let warm_up = wire::open_loop(
        addr,
        conns,
        &Schedule::poisson(HEADLINE_RATE, WARM_UP_S, env_seed),
        &mix.queries,
        0,
        Check::Against(expected),
        None,
        Duration::from_secs(2),
        Instant::now(),
    )?;
    report.count(warm_up.sent as u64, warm_up.wrong + warm_up.lost, || {
        format!(
            "warm-up step: {} wrong, {} unanswered of {}",
            warm_up.wrong, warm_up.lost, warm_up.sent
        )
    });
    for (step, &(rate, seconds)) in steps.iter().enumerate() {
        rec.on = traced;
        rec.run = step as u32;
        let schedule = Schedule::poisson(rate, seconds, env_seed ^ rate ^ (step as u64) << 32);
        let (out, _) = rec.time("serve.step", None, || {
            wire::open_loop(
                addr,
                conns,
                &schedule,
                &mix.queries,
                step * 997,
                Check::Against(expected),
                None,
                Duration::from_secs(2),
                Instant::now(),
            )
        });
        let mut out = out?;
        report.count(out.sent as u64, out.wrong + out.lost, || {
            format!(
                "{rate} q/s step: {} wrong, {} unanswered of {}",
                out.wrong, out.lost, out.sent
            )
        });
        if out.latency_ns.is_empty() {
            unsound.push(rate);
            continue;
        }
        out.latency_ns.sort_unstable();
        let n = out.latency_ns.len();
        let p50 = us(percentile_sorted(&out.latency_ns, 50.0));
        let p99 = us(percentile_sorted(&out.latency_ns, 99.0));
        let top = *supported_percentiles(n)
            .last()
            .expect("the median at least");
        let mid = out.backlog_at(&schedule, schedule.span_ns() / 2);
        let end = out.backlog_at(&schedule, schedule.span_ns());
        let sound = !wire::backlog_grows(mid, end) && out.wrong + out.lost == 0;
        if !sound {
            unsound.push(rate);
        }
        eprintln!(
            "  open loop {rate:>6} q/s: n={n} p50={p50:.1}us p99={p99:.1}us p{top}={:.1}us \
             backlog mid/end={mid}/{end}{}",
            us(percentile_sorted(&out.latency_ns, top)),
            if sound { "" } else { " FELL BEHIND" },
        );
        step_p99.push((rate, p99));
        if rate == HEADLINE_RATE {
            headline_p50.push(p50);
        }
        if let Some(name) = backlog_metric(rate) {
            report.set(name, end as f64);
        }
        lateness.extend(out.lateness_ns);
    }
    if headline_p50.is_empty() {
        return Err("no step at the headline rate got a reply".into());
    }
    report.set("query_p50_us", median(&headline_p50));
    // A rate's p99 is the median over its steps, as its p50 is.
    let p99_at = |rate: u64| {
        let of_rate: Vec<f64> = step_p99
            .iter()
            .filter(|(r, _)| *r == rate)
            .map(|&(_, p99)| p99)
            .collect();
        median(&of_rate)
    };
    report.set("serve.query_p99_us", p99_at(HEADLINE_RATE));
    // The highest rate that kept up in every step and met the p99 limit.
    let max_rate_ok = step_p99
        .iter()
        .map(|&(rate, _)| rate)
        .filter(|rate| !unsound.contains(rate) && p99_at(*rate) <= STEP_P99_LIMIT_US)
        .max()
        .unwrap_or(0);
    report.set("serve.max_rate_ok_qps", max_rate_ok as f64);
    if !lateness.is_empty() {
        lateness.sort_unstable();
        report.set(
            "serve.gen_lateness_p99_us",
            us(percentile_sorted(&lateness, 99.0)),
        );
    }

    // Throughput is read in 100 ms windows and reported as their median, so
    // a stall in one window does not move it. The first window of a pass
    // fills the pipeline and is left out.
    let mut rates = [Vec::new(), Vec::new()];
    for pass in 0..SATURATION_PASSES {
        rec.on = traced && crate::traced_rep(pass);
        rec.run = pass as u32;
        let (out, _) = rec.time("serve.pass", None, || {
            wire::closed_loop(
                addr,
                conns,
                WINDOW,
                Duration::from_secs_f64(PASS_S),
                &mix.queries,
                expected,
            )
        });
        let out = out?;
        report.count(out.per_window.iter().sum(), out.wrong, || {
            format!("saturation pass {pass}: {} wrong replies", out.wrong)
        });
        let per_s = 1e9 / wire::WINDOW_NS as f64;
        let pass_rates: Vec<f64> = out.per_window[1..]
            .iter()
            .map(|&n| n as f64 * per_s)
            .collect();
        eprintln!(
            "  closed loop pass {pass}: median {:.0} q/s over {} windows",
            median(&pass_rates),
            pass_rates.len()
        );
        rates[usize::from(rec.on)].extend(pass_rates);
    }
    rec.on = false;
    // A workload whose own loop alternated traced and untraced repetitions
    // has already measured the overhead there.
    if traced && report.get("obs.trace_overhead_share").is_none() {
        report.set(
            "obs.trace_overhead_share",
            median(&rates[0]) / median(&rates[1]) - 1.0,
        );
    }
    report.set("query_qps", median(&rates.concat()));

    let delta = ObsSnap::take().since(&before);
    let batches = delta.counter("serve.batches");
    if batches > 0 {
        report.set(
            "serve.requests_per_batch",
            delta.counter("serve.requests") as f64 / batches as f64,
        );
    }
    report.set(
        "serve.error_replies",
        delta.counter("serve.error_replies") as f64,
    );
    Ok(())
}

fn backlog_metric(rate: u64) -> Option<&'static str> {
    Some(match rate {
        4_000 => "serve.backlog_end_4k",
        8_000 => "serve.backlog_end_8k",
        16_000 => "serve.backlog_end_16k",
        32_000 => "serve.backlog_end_32k",
        64_000 => "serve.backlog_end_64k",
        _ => return None,
    })
}

/// Traced probes of the index and serve layers on the live snapshot: each
/// query kind in process (no socket), the round trip of one connection with
/// one request in flight, the frame codec alone, and the daemon's own view
/// of its queue through the admin lane.
pub fn serve_probes(
    env: &mut Env,
    daemon: &mut Daemon,
    mix: &Mix,
    expected: &[QueryReply],
) -> Result<(), Failure> {
    let (rec, report) = (&mut env.rec, &mut env.report);
    rec.on = true;
    let root = rec.open("probe.serve", None);

    // The windows the admin lane reports cover the load that just ended.
    let (scrape, _) = rec.time("serve.admin_scrape", root, || {
        daemon.probe.admin(&AdminRequest::Metrics)
    });
    if let AdminReply::Metrics { windows, .. } = scrape? {
        if let Some(w) = windows.iter().find(|w| w.name == "serve.queue.wait_us") {
            report.set("serve.queue_wait_p50_us", w.p50 as f64);
            report.set("serve.queue_wait_p99_us", w.p99 as f64);
        }
    }

    let service = Arc::clone(&daemon.service);
    let mut in_process: Vec<u64> = Vec::with_capacity(mix.queries.len());
    for (kind, name, scale) in [
        ("support", "index.support_ns", 1.0),
        ("top_k", "index.topk_us", 1e3),
        ("enumerate", "index.enumerate_us", 1e3),
        ("generalized", "index.generalized_us", 1e3),
    ] {
        let indices = mix.indices_of(kind);
        let (times, _) = rec.time("index.query", root, || -> lash::index::Result<Vec<u64>> {
            let mut times = Vec::with_capacity(indices.len());
            for &i in &indices {
                let started = Instant::now();
                std::hint::black_box(service.execute(&mix.queries[i])?);
                times.push(started.elapsed().as_nanos() as u64);
            }
            Ok(times)
        });
        let mut times: Vec<u64> = times?;
        in_process.extend_from_slice(&times);
        times.sort_unstable();
        report.set(name, percentile_sorted(&times, 50.0) as f64 / scale);
    }
    in_process.sort_unstable();

    let (rtt, _) = rec.time("serve.round_trips", root, || {
        wire::round_trips(daemon.addr, 2_000, &mix.queries, expected)
    });
    let (rtt, wrong) = rtt?;
    report.count(rtt.len() as u64, wrong, || {
        "round-trip probe: wrong replies".into()
    });
    let rtt_p50 = us(percentile_sorted(&rtt, 50.0));
    report.set("serve.rtt_p50_us", rtt_p50);
    report.set(
        "serve.wire_overhead_us",
        rtt_p50 - us(percentile_sorted(&in_process, 50.0)),
    );

    let (per_frame, _) = rec.time("encoding.frame_roundtrip", root, || {
        frame_roundtrip_ns(&mix.queries)
    });
    report.set("encoding.frame_roundtrip_ns", per_frame);
    rec.close(root);
    rec.on = false;
    Ok(())
}

/// Mean time to encode a request, frame it, unframe it and decode it.
fn frame_roundtrip_ns(queries: &[Query]) -> f64 {
    use lash::encoding::frame;
    use lash::serve::proto::{self, Request};
    const ROUNDS: usize = 20;
    let (mut payload, mut framed) = (Vec::new(), Vec::new());
    let started = Instant::now();
    for _ in 0..ROUNDS {
        for (id, q) in queries.iter().enumerate() {
            proto::encode_request(&Request::new(id as u64, q.clone()), &mut payload);
            framed.clear();
            frame::encode_frame(&payload, &mut framed);
            let (body, _) = frame::decode_frame(&framed).expect("a frame just encoded");
            std::hint::black_box(proto::decode_request(body).expect("a request just encoded"));
        }
    }
    started.elapsed().as_nanos() as f64 / (ROUNDS * queries.len()) as f64
}

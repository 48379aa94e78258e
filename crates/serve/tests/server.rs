//! End-to-end daemon tests: a real listener on a loopback port, real
//! clients, refresh rounds racing query storms, and deliberately corrupted
//! byte streams that must come back as typed errors — never a hang, never
//! a panic, never a silently dropped request.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lash_core::{GsmParams, ItemId, Lash, Vocabulary, VocabularyBuilder};
use lash_encoding::frame::{self, FrameChecksum};
use lash_index::{Query, QueryError, QueryReply};
use lash_serve::proto::{self, Request};
use lash_serve::server::WRITE_TIMEOUT;
use lash_serve::{
    AdminReply, AdminRequest, Client, Lifecycle, Response, ServeConfig, Server, MAGIC,
    PROTOCOL_VERSION,
};
use lash_store::{CorpusWriter, StoreOptions};

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("lash-serve-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_vocab() -> (Vocabulary, Vec<ItemId>) {
    let mut vb = VocabularyBuilder::new();
    let b = vb.intern("B");
    let b1 = vb.child("b1", b);
    let b2 = vb.child("b2", b);
    let a = vb.intern("a");
    let c = vb.intern("c");
    (vb.finish().unwrap(), vec![a, b1, b2, c])
}

fn seed_sequences(items: &[ItemId], count: usize, salt: usize) -> Vec<Vec<ItemId>> {
    (0..count)
        .map(|i| {
            let len = 2 + (i + salt) % 3;
            (0..len)
                .map(|j| items[(i + j + salt) % items.len()])
                .collect()
        })
        .collect()
}

/// A daemon over a freshly seeded corpus, ready to serve.
fn boot(tag: &str, config: &ServeConfig) -> (Lifecycle, Server, PathBuf) {
    let root = temp_dir(tag);
    let corpus = root.join("corpus");
    let (vocab, items) = small_vocab();
    let mut writer = CorpusWriter::create(&corpus, &vocab, StoreOptions::default()).unwrap();
    for seq in seed_sequences(&items, 300, 0) {
        writer.append(&seq).unwrap();
    }
    writer.finish().unwrap();
    let lifecycle = Lifecycle::bootstrap(
        &corpus,
        root.join("index"),
        Lash::default(),
        GsmParams::new(2, 1, 4).unwrap(),
        config,
    )
    .unwrap();
    let server =
        Server::start_with_health(lifecycle.service(), config, lifecycle.health()).unwrap();
    (lifecycle, server, root)
}

#[test]
fn queries_over_tcp_match_in_process_execution() {
    let config = ServeConfig::default();
    let (lifecycle, server, root) = boot("e2e", &config);
    let service = lifecycle.service();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let (_, items) = small_vocab();
    let queries = [
        Query::Enumerate {
            prefix: vec![],
            limit: None,
        },
        Query::TopK {
            prefix: vec![],
            k: 5,
        },
        Query::Support {
            items: vec![items[0]],
        },
        Query::Generalized {
            items: vec![items[1], items[3]],
        },
    ];
    for query in &queries {
        let remote = client.query(query).unwrap();
        let local = service.execute(query).unwrap();
        assert_eq!(remote, local, "wire answer diverged for {query:?}");
    }

    // An unknown item comes back as a typed error on a live connection…
    let reply = client
        .query(&Query::Support {
            items: vec![ItemId::from_u32(9999)],
        })
        .unwrap();
    assert_eq!(reply, QueryReply::Error(QueryError::UnknownItem(9999)));
    // …and the connection still answers afterwards.
    let reply = client
        .query(&Query::TopK {
            prefix: vec![],
            k: 1,
        })
        .unwrap();
    assert!(matches!(reply, QueryReply::Patterns(_)));

    server.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

/// Raw-socket handshake helper for the corruption tests.
fn raw_handshake(addr: std::net::SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut hello = [0u8; 5];
    hello[..4].copy_from_slice(&MAGIC);
    hello[4] = PROTOCOL_VERSION;
    stream.write_all(&hello).unwrap();
    let mut ack = [0u8; 1];
    stream.read_exact(&mut ack).unwrap();
    assert_eq!(ack[0], PROTOCOL_VERSION);
    stream
}

fn read_reply(stream: &mut TcpStream) -> proto::Response {
    let mut buf = Vec::new();
    let len = frame::read_frame_into(stream, &mut buf, FrameChecksum::Fnv1a)
        .unwrap()
        .expect("a response frame");
    proto::decode_response(&buf[..len]).unwrap()
}

#[test]
fn corrupted_frame_gets_typed_error_then_close() {
    let config = ServeConfig::default();
    let (_lifecycle, server, root) = boot("corrupt", &config);
    let mut stream = raw_handshake(server.local_addr());

    // A valid frame with one payload bit flipped: the checksum must catch
    // it and the server must answer with a typed id-0 error, then close.
    let mut payload = Vec::new();
    proto::encode_request(
        &Request::new(
            7,
            Query::TopK {
                prefix: vec![],
                k: 1,
            },
        ),
        &mut payload,
    );
    let mut framed = Vec::new();
    frame::write_frame(&payload, &mut framed).unwrap();
    let flip = framed.len() - 5; // inside the payload, not the trailer
    framed[flip] ^= 0x01;
    stream.write_all(&framed).unwrap();
    // Close our write half so a server that (wrongly) kept reading would
    // hit EOF instead of hanging the test.
    stream.shutdown(std::net::Shutdown::Write).unwrap();

    let resp = read_reply(&mut stream);
    assert_eq!(resp.id, 0, "frame-level corruption has no request id");
    assert!(
        matches!(resp.reply, QueryReply::Error(QueryError::Malformed(_))),
        "{:?}",
        resp.reply
    );
    // The server closed its half: the stream drains to EOF.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());

    server.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn truncated_frame_gets_typed_error() {
    let config = ServeConfig::default();
    let (_lifecycle, server, root) = boot("truncate", &config);
    let mut stream = raw_handshake(server.local_addr());

    let mut payload = Vec::new();
    proto::encode_request(
        &Request::new(
            3,
            Query::Enumerate {
                prefix: vec![],
                limit: None,
            },
        ),
        &mut payload,
    );
    let mut framed = Vec::new();
    frame::write_frame(&payload, &mut framed).unwrap();
    // Send only half the frame, then shut the write half: the server's
    // read sees EOF mid-frame — truncation, a typed error, then close.
    stream.write_all(&framed[..framed.len() / 2]).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();

    let resp = read_reply(&mut stream);
    assert_eq!(resp.id, 0);
    assert!(matches!(
        resp.reply,
        QueryReply::Error(QueryError::Malformed(_))
    ));

    server.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn envelope_garbage_keeps_the_connection_alive() {
    let config = ServeConfig::default();
    let (_lifecycle, server, root) = boot("envelope", &config);
    let mut stream = raw_handshake(server.local_addr());

    // A perfectly framed payload of garbage: envelope-level failure, so
    // the reply is typed AND the connection survives.
    frame::write_frame(&[0xFF, 0xFF, 0xFF], &mut stream).unwrap();
    let resp = read_reply(&mut stream);
    assert!(
        matches!(resp.reply, QueryReply::Error(_)),
        "{:?}",
        resp.reply
    );

    let mut payload = Vec::new();
    proto::encode_request(
        &Request::new(
            11,
            Query::TopK {
                prefix: vec![],
                k: 2,
            },
        ),
        &mut payload,
    );
    frame::write_frame(&payload, &mut stream).unwrap();
    let resp = read_reply(&mut stream);
    assert_eq!(resp.id, 11, "same connection answers after envelope error");
    assert!(matches!(resp.reply, QueryReply::Patterns(_)));

    server.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn wrong_handshake_version_gets_typed_error() {
    let config = ServeConfig::default();
    let (_lifecycle, server, root) = boot("version", &config);
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut hello = [0u8; 5];
    hello[..4].copy_from_slice(&MAGIC);
    hello[4] = PROTOCOL_VERSION + 9;
    stream.write_all(&hello).unwrap();

    let resp = read_reply(&mut stream);
    assert_eq!(
        resp.reply,
        QueryReply::Error(QueryError::UnsupportedVersion {
            requested: (PROTOCOL_VERSION + 9) as u32,
            serving: PROTOCOL_VERSION as u32,
        })
    );
    server.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

/// The admin lane answers every request kind over TCP while the same
/// daemon serves queries on another connection — the operational plane's
/// acceptance bar.
#[test]
fn admin_lane_answers_while_serving_queries() {
    let config = ServeConfig::default();
    let (_lifecycle, server, root) = boot("admin", &config);
    let addr = server.local_addr();

    let mut query_client = Client::connect(addr).unwrap();
    let mut admin_client = Client::connect(addr).unwrap();
    for _ in 0..20 {
        let reply = query_client
            .query(&Query::TopK {
                prefix: vec![],
                k: 3,
            })
            .unwrap();
        assert!(matches!(reply, QueryReply::Patterns(_)));
    }

    match admin_client.admin(&AdminRequest::Metrics).unwrap() {
        AdminReply::Metrics { text, windows } => {
            assert!(
                text.contains("index_queries_served"),
                "metrics exposition misses the query counter:\n{text}"
            );
            assert!(
                windows.iter().any(|w| w.name == "query.requests"),
                "windowed readouts miss query.requests: {windows:?}"
            );
            assert!(
                windows
                    .iter()
                    .any(|w| w.name == "serve.queue.wait_us" && w.count > 0),
                "queue-wait window never saw a request: {windows:?}"
            );
        }
        other => panic!("expected a Metrics reply, got {other:?}"),
    }

    match admin_client.admin(&AdminRequest::Health).unwrap() {
        AdminReply::Health { phase, fields } => {
            assert_eq!(phase, "serving");
            let get = |key: &str| {
                fields
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| *v)
                    .unwrap_or_else(|| panic!("health reply misses {key}: {fields:?}"))
            };
            assert!(get("workers") >= 1);
            assert!(get("uptime_us") > 0);
            assert!(get("store_sequences") > 0);
            get("queue_depth");
            get("inflight");
            get("snapshot_age_us");
        }
        other => panic!("expected a Health reply, got {other:?}"),
    }

    match admin_client
        .admin(&AdminRequest::RecentEvents { max: 50 })
        .unwrap()
    {
        AdminReply::Lines(lines) => {
            assert!(!lines.is_empty(), "the ring must hold recent events");
            assert!(lines.len() <= 50);
            // Ring dumps are windows, not whole traces: schema-only mode.
            let (_, stats) =
                lash_obs::validate::validate_str_schema_only(&lines.join("\n")).unwrap();
            assert_eq!(stats.events as usize, lines.len());
        }
        other => panic!("expected a Lines reply, got {other:?}"),
    }

    match admin_client
        .admin(&AdminRequest::SlowOps { max: 5 })
        .unwrap()
    {
        AdminReply::Lines(lines) => assert!(lines.len() <= 5),
        other => panic!("expected a Lines reply, got {other:?}"),
    }

    match admin_client
        .admin(&AdminRequest::Profile { reset: false })
        .unwrap()
    {
        AdminReply::Profile { folded, .. } => {
            // The profiler thread may not be running under tests; the reply
            // must still be well-formed folded text (possibly empty).
            for line in folded.lines() {
                assert!(line.rsplit_once(' ').is_some(), "bad folded line: {line}");
            }
        }
        other => panic!("expected a Profile reply, got {other:?}"),
    }

    // The query connection is still alive after all the admin traffic.
    let reply = query_client
        .query(&Query::TopK {
            prefix: vec![],
            k: 1,
        })
        .unwrap();
    assert!(matches!(reply, QueryReply::Patterns(_)));

    // Queue instrumentation reached the lifetime metrics too.
    let snap = lash_obs::global()
        .histogram("serve.queue.wait_us")
        .snapshot();
    assert!(snap.count > 0, "queue-wait histogram never recorded");

    server.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

/// A garbage admin envelope (valid frame, undecodable body) must come back
/// as a typed error and leave the connection serving both lanes.
#[test]
fn garbage_admin_envelope_keeps_connection_serving() {
    let config = ServeConfig::default();
    let (_lifecycle, server, root) = boot("admin-garbage", &config);
    let mut stream = raw_handshake(server.local_addr());

    // Envelope version + id + an admin tag (0x12 = SlowOps) with its max
    // count missing: decodes to Malformed on the admin path.
    let mut payload = Vec::new();
    proto::encode_admin_request(9, &AdminRequest::SlowOps { max: 3 }, &mut payload);
    payload.truncate(payload.len() - 1);
    frame::write_frame(&payload, &mut stream).unwrap();
    let resp = read_reply(&mut stream);
    assert!(
        matches!(resp.reply, QueryReply::Error(QueryError::Malformed(_))),
        "{:?}",
        resp.reply
    );

    // Same connection: a well-formed admin request still answers…
    let mut payload = Vec::new();
    proto::encode_admin_request(10, &AdminRequest::Health, &mut payload);
    frame::write_frame(&payload, &mut stream).unwrap();
    let mut buf = Vec::new();
    let len = frame::read_frame_into(&mut stream, &mut buf, FrameChecksum::Fnv1a)
        .unwrap()
        .expect("an admin reply frame");
    let (id, body) = proto::decode_reply(&buf[..len]).unwrap();
    assert_eq!(id, 10);
    assert!(matches!(
        body,
        proto::ReplyBody::Admin(AdminReply::Health { .. })
    ));

    // …and so does a query.
    let mut payload = Vec::new();
    proto::encode_request(
        &Request::new(
            11,
            Query::TopK {
                prefix: vec![],
                k: 1,
            },
        ),
        &mut payload,
    );
    frame::write_frame(&payload, &mut stream).unwrap();
    let resp = read_reply(&mut stream);
    assert_eq!(resp.id, 11);
    assert!(matches!(resp.reply, QueryReply::Patterns(_)));

    server.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

/// A client that pipelines requests and never reads the replies must not
/// freeze the pool: the worker writing to it gives up after
/// `WRITE_TIMEOUT`, shuts that connection down, and goes on answering
/// everyone else.
#[test]
fn client_that_stops_reading_cannot_freeze_the_workers() {
    let config = ServeConfig::default().with_worker_threads(1);
    let (lifecycle, server, root) = boot("stalled", &config);
    let addr = server.local_addr();
    let service = lifecycle.service();
    let everything = Query::Enumerate {
        prefix: vec![],
        limit: None,
    };

    // Enough replies to overrun the loopback buffers several times over (a
    // socket that is never read stops at about the 4 MiB send buffer plus
    // the peer's initial receive buffer).
    let mut reply = Vec::new();
    proto::encode_response(
        &Response {
            id: 1,
            reply: service.execute(&everything).unwrap(),
        },
        &mut reply,
    );
    let flood = (16 << 20) / reply.len() + 1;
    let mut payload = Vec::new();
    proto::encode_request(&Request::new(1, everything), &mut payload);
    let mut burst = Vec::new();
    for _ in 0..flood {
        frame::encode_frame(&payload, &mut burst);
    }
    let mut stalled = raw_handshake(addr);
    stalled.write_all(&burst).unwrap();

    // Wait until the only worker is stuck writing to the stalled client:
    // the queue stops draining while it still holds jobs.
    let mut admin = Client::connect(addr).unwrap();
    let queue_depth = |admin: &mut Client| match admin.admin(&AdminRequest::Health).unwrap() {
        AdminReply::Health { fields, .. } => fields
            .iter()
            .find(|(k, _)| k == "queue_depth")
            .map(|(_, v)| *v)
            .expect("health reports queue_depth"),
        other => panic!("expected a Health reply, got {other:?}"),
    };
    let mut last = queue_depth(&mut admin);
    for poll in 0.. {
        assert!(poll < 300, "the worker never stalled on the flood");
        std::thread::sleep(Duration::from_millis(100));
        let depth = queue_depth(&mut admin);
        if depth > 0 && depth == last {
            break;
        }
        last = depth;
    }

    // Another client is still answered, correctly and in bounded time. A
    // stuck frame can cost two timed-out writes: the one that made partial
    // progress and the next.
    let started = Instant::now();
    let deadline = WRITE_TIMEOUT * 2 + Duration::from_secs(5);
    let mut other = raw_handshake(addr);
    other.set_read_timeout(Some(deadline)).unwrap();
    let (_, items) = small_vocab();
    let support = Query::Support {
        items: vec![items[0]],
    };
    let mut payload = Vec::new();
    proto::encode_request(&Request::new(7, support.clone()), &mut payload);
    frame::write_frame(&payload, &mut other).unwrap();
    let resp = read_reply(&mut other);
    assert!(started.elapsed() < deadline, "{:?}", started.elapsed());
    assert_eq!(resp.id, 7);
    assert_eq!(resp.reply, service.execute(&support).unwrap());

    // The stalled connection was shut down: draining it reaches EOF.
    stalled.set_read_timeout(Some(deadline)).unwrap();
    let mut rest = Vec::new();
    stalled
        .read_to_end(&mut rest)
        .expect("the server closes the stalled connection");

    server.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

/// The acceptance bar in miniature: concurrent clients hammer the daemon
/// while the lifecycle keeps ingesting, compacting, and swapping; every
/// request gets a non-error answer.
#[test]
fn query_storm_across_refresh_rounds_loses_nothing() {
    let config = ServeConfig::default().with_worker_threads(2);
    let span_count = |name: &str| lash_obs::global().histogram(name).snapshot().count;
    let (opens, swaps) = (span_count("index.open_us"), span_count("index.swap_us"));
    let (mut lifecycle, server, root) = boot("storm", &config);
    let addr = server.local_addr();
    let (_, items) = small_vocab();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut clients = Vec::new();
    for t in 0..4 {
        let stop = Arc::clone(&stop);
        clients.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let mut answered = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let reply = client
                    .query(&Query::TopK {
                        prefix: vec![],
                        k: 1 + t,
                    })
                    .expect("transport must survive refresh rounds");
                assert!(
                    matches!(reply, QueryReply::Patterns(_)),
                    "query failed mid-storm: {reply:?}"
                );
                answered += 1;
            }
            answered
        }));
    }

    // Refresh rounds race the storm: ingest, compact (rate-limited), mine,
    // swap — the storm must never observe an error.
    for round in 1..=3u64 {
        let batch = seed_sequences(&items, 120, round as usize);
        let refs: Vec<&[ItemId]> = batch.iter().map(Vec::as_slice).collect();
        lifecycle.ingest(refs).unwrap();
        let stats = lifecycle.refresh().unwrap();
        assert_eq!(stats.round, round);
        assert!(stats.patterns > 0);
    }
    stop.store(true, Ordering::Relaxed);
    let total: u64 = clients.into_iter().map(|c| c.join().unwrap()).sum();
    assert!(total > 0, "the storm must actually have run");
    // The bootstrap and every round opened an index under a span, and every
    // round swapped one in (other tests may have added to the counts).
    assert!(span_count("index.open_us") >= opens + 4);
    assert!(span_count("index.swap_us") >= swaps + 3);

    server.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

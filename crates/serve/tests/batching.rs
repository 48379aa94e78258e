//! How the worker pool batches: by load, not by the clock. A lone request
//! is answered at once; requests that queue up behind a busy worker share
//! a batch. This is its own test binary, and its tests take turns, so the
//! `serve.*` counter deltas it reads from `lash_obs::global()` see no other
//! test's traffic.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use lash_core::prelude::*;
use lash_datagen::paper_example;
use lash_index::{write_patterns, PatternIndexReader, Query, QueryService};
use lash_serve::{Client, ServeConfig, Server};

/// A one-worker server over the index of the paper's Fig. 1 example, and
/// a `Support` query for every mined pattern.
fn serve_example(tag: &str) -> (Arc<QueryService>, Server, Vec<Query>, PathBuf) {
    let dir =
        std::env::temp_dir().join(format!("lash-serve-batching-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (vocab, db) = paper_example();
    let params = GsmParams::new(2, 1, 3).unwrap();
    let result = Lash::default().mine(&db, &vocab, &params).unwrap();
    write_patterns(&dir, &vocab, result.arena()).unwrap();
    let service = Arc::new(QueryService::new(PatternIndexReader::open(&dir).unwrap()));
    let config = ServeConfig::default().with_worker_threads(1);
    let server = Server::start(Arc::clone(&service), &config).unwrap();
    let queries = result
        .patterns()
        .iter()
        .map(|p| Query::Support {
            items: p.items.clone(),
        })
        .collect();
    (service, server, queries, dir)
}

/// Serializes the tests: one's traffic must not land in the other's
/// counter deltas or timings.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn counter(name: &str) -> u64 {
    lash_obs::global().counter(name).get()
}

#[test]
fn a_lone_request_is_not_held() {
    let _turn = one_at_a_time();
    let (service, server, queries, dir) = serve_example("lone");
    let mut client = Client::connect(server.local_addr()).unwrap();
    // One untimed trip first: the connection's reader thread starts here.
    client.query(&queries[0]).unwrap();

    // The best of three runs, so a hiccup on a busy host cannot fail this
    // test; any fixed wait per batch would show up in every run.
    let best = (0..3)
        .map(|_| {
            let started = Instant::now();
            for query in queries.iter().cycle().take(200) {
                let reply = client.query(query).unwrap();
                assert_eq!(reply, service.execute(query).unwrap());
            }
            started.elapsed()
        })
        .min()
        .unwrap();
    assert!(
        best < Duration::from_millis(40),
        "200 sequential round trips took {best:?}"
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn batching_still_follows_load() {
    let _turn = one_at_a_time();
    let (service, server, queries, dir) = serve_example("burst");
    let addr = server.local_addr();
    let (requests, batches) = (counter("serve.requests"), counter("serve.batches"));

    // Four clients each send a burst of 256 requests before reading any
    // reply, so requests queue up behind the one worker.
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let (service, queries) = (Arc::clone(&service), queries.clone());
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut expected = HashMap::new();
                for query in queries.iter().cycle().skip(c).take(256) {
                    let id = client.send(query).unwrap();
                    expected.insert(id, service.execute(query).unwrap());
                }
                for _ in 0..256 {
                    let resp = client.recv().unwrap();
                    let want = expected.remove(&resp.id).expect("a reply per request id");
                    assert_eq!(resp.reply, want, "request {}", resp.id);
                }
                assert!(expected.is_empty());
            })
        })
        .collect();
    for client in clients {
        client.join().unwrap();
    }
    // A worker counts its batch after writing the last reply: join it first.
    server.shutdown();

    let requests = counter("serve.requests") - requests;
    let batches = counter("serve.batches") - batches;
    assert_eq!(requests, 4 * 256);
    assert!(
        batches < requests,
        "{batches} batches for {requests} requests: nothing was batched"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

//! Pattern-index query throughput: exact-support lookups and top-k
//! searches against the index built from mining the NYT-like corpus.
//!
//! This is the perf-tracking experiment behind CI's
//! `query-bench-regression` leg: it writes its measurements to
//! `BENCH_query.json` (uploaded as a build artifact) and, when given
//! `--baseline <json>`, fails the run if query throughput regressed more
//! than [`super::REGRESSION_TOLERANCE`] against the checked-in numbers.
//! To refresh the baseline after an intentional change (or a runner-class
//! change), copy the artifact over `crates/bench/baselines/BENCH_query.json`.
//!
//! The query mix is built from the mined pattern set itself: every
//! lookup round probes each mined pattern (a hit) plus a derived
//! near-miss (the pattern with one item appended), so both the found and
//! not-found walk are on the measured path. Top-k rounds alternate the
//! whole-index ranking with per-first-item prefix rankings — the
//! max-descendant-frequency pruning path.

use std::path::Path;
use std::time::Instant;

use lash_core::pattern::Pattern;
use lash_core::{GsmParams, ItemId, Lash};
use lash_datagen::TextHierarchy;
use lash_index::{write_patterns, PatternIndexReader, Query, QueryService};

use crate::report::{Report, Table};
use crate::Datasets;

use super::check_baseline;

const MEASURE_ITERS: u32 = 5;
const TOP_K: usize = 10;

/// Best-of-N wall-clock throughput of `queries` query executions.
fn measure(iters: u32, queries: u64, mut pass: impl FnMut() -> u64) -> (f64, u64) {
    let mut best = f64::MAX;
    let mut checksum = 0u64;
    for _ in 0..iters {
        let started = Instant::now();
        checksum = pass();
        best = best.min(started.elapsed().as_secs_f64());
    }
    (queries as f64 / best, checksum)
}

/// Runs the query experiment; returns `false` when a baseline was given
/// and throughput regressed beyond tolerance.
pub fn query(
    datasets: &mut Datasets,
    report: &mut Report,
    json_out: Option<&Path>,
    baseline: Option<&Path>,
) -> bool {
    let (vocab, db) = datasets.nyt_dataset(TextHierarchy::LP);
    let params = GsmParams::new(25, 1, 5).expect("valid params");
    let result = Lash::default()
        .mine(&db, &vocab, &params)
        .expect("mine the bench corpus");
    let patterns: Vec<Pattern> = result.patterns().to_vec();
    assert!(
        !patterns.is_empty(),
        "the bench corpus must produce patterns"
    );

    let dir = datasets
        .cache_dir()
        .join(format!("query-index-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let summary = write_patterns(&dir, &vocab, result.arena()).expect("build index");
    let reader = PatternIndexReader::open(&dir).expect("open index");

    // Exact lookups: every mined pattern (hit) and a near-miss variant.
    let mut probes: Vec<(Vec<ItemId>, bool)> = Vec::with_capacity(patterns.len() * 2);
    for p in &patterns {
        probes.push((p.items.clone(), true));
        let mut miss = p.items.clone();
        miss.push(p.items[0]);
        probes.push((miss, false));
    }
    let (lookups_per_sec, hits) = measure(MEASURE_ITERS, probes.len() as u64, || {
        let mut hits = 0u64;
        for (items, _) in &probes {
            if reader.support(items).expect("query intact index").is_some() {
                hits += 1;
            }
        }
        hits
    });
    // Every hit probe must hit; misses may collide with real patterns but
    // at least the hits keep the measurement honest.
    assert!(hits >= patterns.len() as u64, "lost hits: {hits}");

    // Top-k: the whole-index ranking plus one ranking per distinct first
    // item (the subtree-pruning path).
    let mut prefixes: Vec<Vec<ItemId>> = vec![Vec::new()];
    let mut seen = std::collections::BTreeSet::new();
    for p in &patterns {
        if seen.insert(p.items[0]) {
            prefixes.push(vec![p.items[0]]);
        }
    }
    let (topk_per_sec, ranked) = measure(MEASURE_ITERS, prefixes.len() as u64, || {
        let mut ranked = 0u64;
        for prefix in &prefixes {
            ranked += reader
                .top_k(prefix, TOP_K)
                .expect("query intact index")
                .len() as u64;
        }
        ranked
    });
    assert!(ranked > 0, "top-k returned nothing");

    // The same query mix once more through the instrumented serving path,
    // so per-query-type latency histograms (`query.*_us`) land in the
    // registry and, with `LASH_OBS_JSONL` set, the run leaves a parseable
    // event stream. Kept off the measured loops above: the regression gate
    // tracks the raw reader, not the service wrapper.
    // A zero threshold on the serving span promotes every request to the
    // slow-op log, demonstrating the promotion path end to end: the
    // `obs.slow_ops` delta below must match the request count.
    let obs_registry = lash_obs::global();
    obs_registry.set_slow_threshold("query.request", Some(0));
    let slow_ops_before = obs_registry.counter("obs.slow_ops").get();
    let service = QueryService::new(PatternIndexReader::open(&dir).expect("reopen index"));
    for (items, _) in &probes {
        service
            .execute(&Query::Support {
                items: items.clone(),
            })
            .expect("service support");
    }
    for prefix in &prefixes {
        service
            .execute(&Query::TopK {
                prefix: prefix.clone(),
                k: TOP_K,
            })
            .expect("service top-k");
        service
            .execute(&Query::Enumerate {
                prefix: prefix.clone(),
                limit: Some(5),
            })
            .expect("service enumerate");
    }
    for p in patterns.iter().take(50) {
        service
            .execute(&Query::Generalized {
                items: p.items.clone(),
            })
            .expect("service generalized");
    }
    let slow_ops = obs_registry.counter("obs.slow_ops").get() - slow_ops_before;
    obs_registry.set_slow_threshold("query.request", None);
    let _ = std::fs::remove_dir_all(&dir);

    // Sketch-prune effectiveness, read off the `store.scan.blocks_*`
    // counters every shard scan publishes when dropped. Zipf-headed text
    // cannot prune at block granularity — the few head lemmas cover >10%
    // of tokens, so every 64 KiB block of the cached corpus names a
    // frequent item at any σ that keeps the frequent set non-empty. The
    // probe corpus therefore uses short sequences over a flat lemma
    // distribution and small blocks: the frequent set is a thin slice of
    // the vocabulary, and a hierarchy-ignoring mine skips every block
    // whose sketch misses it without decoding the payload.
    let (pvocab, pdb) = lash_datagen::TextCorpus::generate(&lash_datagen::TextConfig {
        sentences: 30_000,
        lemmas: 2_000,
        avg_sentence_len: 4.0,
        zipf_exponent: 0.0,
        ..lash_datagen::TextConfig::default()
    })
    .dataset(TextHierarchy::LP);
    let prune_dir = datasets
        .cache_dir()
        .join(format!("prune-probe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&prune_dir);
    lash_store::convert::write_database(
        &prune_dir,
        &pvocab,
        &pdb,
        lash_store::StoreOptions::default().with_block_budget(64),
    )
    .expect("write prune probe corpus");
    let probe = lash_store::CorpusReader::open(&prune_dir).expect("open prune probe corpus");
    let obs = lash_obs::global();
    let decoded_before = obs.counter("store.scan.blocks_decoded").get();
    let pruned_before = obs.counter("store.scan.blocks_pruned").get();
    let prune_params = GsmParams::new(75, 0, 2).expect("valid params");
    probe
        .mine(
            &Lash::new(lash_core::LashConfig::default().with_hierarchy(false)),
            &prune_params,
        )
        .expect("mine the prune probe");
    let decoded = obs.counter("store.scan.blocks_decoded").get() - decoded_before;
    let pruned = obs.counter("store.scan.blocks_pruned").get() - pruned_before;
    let _ = std::fs::remove_dir_all(&prune_dir);
    let scanned = decoded + pruned;
    let prune_rate = if scanned == 0 {
        0.0
    } else {
        pruned as f64 / scanned as f64
    };

    let mut table = Table::new(
        "query",
        "pattern-index query throughput (NYT-like corpus)",
        &["metric", "value"],
    );
    table.row(vec!["patterns".into(), summary.num_patterns.to_string()]);
    table.row(vec!["trie nodes".into(), summary.num_nodes.to_string()]);
    table.row(vec![
        "arena KiB".into(),
        format!("{:.1}", summary.arena_bytes as f64 / 1024.0),
    ]);
    table.row(vec![
        "exact lookups/s".into(),
        format!("{:.0}", lookups_per_sec),
    ]);
    table.row(vec![
        format!("top-{TOP_K}/s"),
        format!("{:.0}", topk_per_sec),
    ]);
    table.row(vec![
        "sketch-pruned blocks (probe mine)".into(),
        format!("{pruned} of {scanned} ({:.0}%)", prune_rate * 100.0),
    ]);
    table.row(vec![
        "slow-ops promoted (serving pass)".into(),
        slow_ops.to_string(),
    ]);
    report.add(table);

    let json = format!(
        "{{\n  \"schema\": \"lash-bench-query/v1\",\n  \"lookups_per_sec\": {:.0},\n  \
         \"topk_per_sec\": {:.0},\n  \"patterns\": {},\n  \"trie_nodes\": {},\n  \
         \"arena_bytes\": {}\n}}\n",
        lookups_per_sec, topk_per_sec, summary.num_patterns, summary.num_nodes, summary.arena_bytes
    );
    if let Some(out) = json_out {
        let _ = std::fs::create_dir_all(out);
        let path = out.join("BENCH_query.json");
        match std::fs::write(&path, &json) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }

    // The end-of-run registry dump: per-query-type latency quantiles from
    // the instrumented pass above, the prune counters, and whatever else
    // the run touched.
    println!("\n{}", lash_obs::global().render_text());

    match baseline {
        Some(path) => check_baseline(
            path,
            &[
                ("lookups_per_sec", lookups_per_sec),
                ("topk_per_sec", topk_per_sec),
            ],
        ),
        None => true,
    }
}

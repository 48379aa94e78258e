//! Query throughput of the on-disk pattern index: exact-support lookups
//! (hits and misses), prefix enumeration, top-k ranking (the
//! max-descendant-frequency pruning path), and hierarchy-aware lookups —
//! each against a brute-force linear scan over the pattern list, the
//! baseline the index replaces.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use lash_core::pattern::Pattern;
use lash_core::{GsmParams, ItemId, Lash, LashResult};
use lash_datagen::{TextConfig, TextCorpus, TextHierarchy};
use lash_index::{write_patterns, PatternIndexReader};

/// Mines a mid-size NYT-like corpus once; the index is built from the
/// result.
fn mined() -> (lash_core::Vocabulary, LashResult) {
    let (vocab, db) = TextCorpus::generate(&TextConfig {
        sentences: 8_000,
        lemmas: 1_200,
        ..TextConfig::default()
    })
    .dataset(TextHierarchy::LP);
    let params = GsmParams::new(20, 1, 5).unwrap();
    let result = Lash::default().mine(&db, &vocab, &params).unwrap();
    (vocab, result)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("lash-bench-query-{tag}-{}", std::process::id()))
}

fn bench_queries(c: &mut Criterion) {
    let (vocab, result) = mined();
    let patterns: &[Pattern] = result.patterns();
    assert!(!patterns.is_empty());
    let dir = temp_dir("index");
    let _ = std::fs::remove_dir_all(&dir);
    write_patterns(&dir, &vocab, result.arena()).unwrap();
    let reader = PatternIndexReader::open(&dir).unwrap();

    // Probe set: every pattern (hit) and a one-item-longer variant (miss).
    let mut probes: Vec<Vec<ItemId>> = Vec::with_capacity(patterns.len() * 2);
    for p in patterns {
        probes.push(p.items.clone());
        let mut miss = p.items.clone();
        miss.push(p.items[0]);
        probes.push(miss);
    }

    let mut group = c.benchmark_group("query_support");
    group.throughput(Throughput::Elements(probes.len() as u64));
    group.bench_function("indexed", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for items in &probes {
                if reader.support(items).unwrap().is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        });
    });
    group.finish();

    // The baseline the index replaces: a linear scan per query. Probes
    // are subsampled — at hundreds of thousands of patterns one full
    // round would take a minute per iteration, and the per-query cost is
    // uniform enough that a 1/64 sample measures the same thing.
    let sampled: Vec<&Vec<ItemId>> = probes.iter().step_by(64).collect();
    let mut group = c.benchmark_group("query_support_baseline");
    group.throughput(Throughput::Elements(sampled.len() as u64));
    group.bench_function("linear_scan", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for items in &sampled {
                if patterns.iter().any(|p| &p.items == *items) {
                    hits += 1;
                }
            }
            black_box(hits)
        });
    });
    group.finish();

    // Distinct first items: the prefix workload.
    let mut firsts: Vec<ItemId> = patterns.iter().map(|p| p.items[0]).collect();
    firsts.sort_unstable();
    firsts.dedup();

    let mut group = c.benchmark_group("query_prefix");
    group.throughput(Throughput::Elements(firsts.len() as u64));
    group.bench_function("enumerate", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for &first in &firsts {
                total += reader.enumerate(&[first], None).unwrap().len();
            }
            assert_eq!(total, patterns.len());
            black_box(total)
        });
    });
    group.bench_function("top_10", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for &first in &firsts {
                total += reader.top_k(&[first], 10).unwrap().len();
            }
            black_box(total)
        });
    });
    group.finish();

    let mut group = c.benchmark_group("query_top_k_full_index");
    group.throughput(Throughput::Elements(1));
    group.bench_function("top_10", |b| {
        b.iter(|| black_box(reader.top_k(&[], 10).unwrap().len()));
    });
    group.bench_function("top_100", |b| {
        b.iter(|| black_box(reader.top_k(&[], 100).unwrap().len()));
    });
    group.finish();

    // Hierarchy-aware lookups phrased in the patterns' own items.
    let queries: Vec<&[ItemId]> = patterns
        .iter()
        .take(512)
        .map(|p| p.items.as_slice())
        .collect();
    let mut group = c.benchmark_group("query_generalized");
    group.throughput(Throughput::Elements(queries.len() as u64));
    group.bench_function("lookup", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for items in &queries {
                total += reader.lookup_generalized(items).unwrap().len();
            }
            black_box(total)
        });
    });
    group.finish();

    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_queries);
criterion_main!(benches);

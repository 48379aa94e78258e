//! Microbenchmarks of the per-sequence map-side kernels: LASH's partition
//! construction (w-generalization plus the full rewrite pipeline) and the
//! semi-naive baseline's `Gλ` enumeration.
//!
//! Every case routes whole sentences — each against every frequent pivot of
//! its G1 closure, one rewrite attempt per pair — and reports ns per attempt.
//! `rewrite/*` is a small in-cache corpus; `rewrite_ledger/*` is the map
//! phase of the perf ledger's `nyt_lash` workload (NYT-CLP, 40 000 sentences,
//! σ = 100, ~1.3 M attempts). `enumeration/gl_nyt_shaped` is the map
//! thread of the ledger's `nyt_seminaive` workload without its emission:
//! NYT-P, 10 000 sentences, σ = 100, γ = 0, λ = 5, every sentence rewritten
//! to closest frequent ancestors first; it reports ns per candidate.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use lash_core::context::MiningContext;
use lash_core::enumeration::{g1_ranks, GlEnumerator};
use lash_core::rewrite::{RewriteLevel, RewriteScratch, Rewriter};
use lash_core::{GsmParams, BLANK};
use lash_datagen::{TextConfig, TextCorpus, TextHierarchy};

fn bench_corpus(
    c: &mut Criterion,
    group: &str,
    config: &TextConfig,
    params: GsmParams,
    levels: &[(&str, RewriteLevel)],
) {
    let (vocab, db) = TextCorpus::generate(config).dataset(TextHierarchy::CLP);
    let ctx = MiningContext::build(&db, &vocab, params.sigma);
    let space = ctx.space();
    let mut g1 = Vec::new();
    let mut attempts = 0u64;
    for seq in ctx.ranked_db().iter() {
        g1_ranks(seq, space, &mut g1);
        attempts += g1.iter().filter(|&&w| space.is_frequent(w)).count() as u64;
    }

    let mut group = c.benchmark_group(group);
    group.throughput(Throughput::Elements(attempts));
    for &(name, level) in levels {
        group.bench_function(name, |b| {
            let rw = Rewriter::with_level(space, &params, level);
            let mut scratch = RewriteScratch::default();
            b.iter(|| {
                let mut items = 0usize;
                for seq in ctx.ranked_db().iter() {
                    rw.rewrite_all(black_box(seq), &mut scratch, |_, rewritten| {
                        items += rewritten.len();
                    });
                }
                black_box(items)
            });
        });
    }
    group.finish();
}

fn bench_rewrite(c: &mut Criterion) {
    bench_corpus(
        c,
        "rewrite",
        &TextConfig {
            sentences: 500,
            lemmas: 500,
            ..TextConfig::default()
        },
        GsmParams::new(20, 1, 5).unwrap(),
        &[
            ("generalize_only", RewriteLevel::GeneralizeOnly),
            ("full", RewriteLevel::Full),
        ],
    );
    bench_corpus(
        c,
        "rewrite_ledger",
        &TextConfig {
            sentences: 40_000,
            lemmas: 7_071,
            ..TextConfig::default()
        },
        GsmParams::new(100, 0, 5).unwrap(),
        &[("nyt_clp_40k_s100", RewriteLevel::Full)],
    );
}

fn bench_enumeration(c: &mut Criterion) {
    let params = GsmParams::new(100, 0, 5).unwrap();
    let config = TextConfig {
        sentences: 10_000,
        lemmas: 3_535,
        ..TextConfig::default()
    };
    let (vocab, db) = TextCorpus::generate(&config).dataset(TextHierarchy::P);
    let ctx = MiningContext::build(&db, &vocab, params.sigma);
    let space = ctx.space();
    let sentences: Vec<Vec<u32>> = ctx
        .ranked_db()
        .iter()
        .map(|seq| {
            seq.iter()
                .map(|&t| match t {
                    BLANK => BLANK,
                    t => space.closest_frequent(t).unwrap_or(BLANK),
                })
                .collect()
        })
        .collect();
    let mut enumerator = GlEnumerator::default();
    let (gamma, lambda) = (params.gamma, params.lambda);
    let candidates: u64 = sentences
        .iter()
        .map(|s| enumerator.enumerate(s, space, gamma, lambda).len() as u64)
        .sum();

    let mut group = c.benchmark_group("enumeration");
    group.throughput(Throughput::Elements(candidates));
    group.bench_function("gl_nyt_shaped", |b| {
        b.iter(|| {
            let mut items = 0usize;
            for s in &sentences {
                for candidate in enumerator.enumerate(black_box(s), space, gamma, lambda) {
                    items += candidate.len();
                }
            }
            black_box(items)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_rewrite, bench_enumeration);
criterion_main!(benches);

//! Microbenchmarks of the local miners on fixed partitions — the reduce-side
//! cost that Fig. 4(c) measures at the job level.
//!
//! `local_miners/*` is a small in-cache partition. `miners_ledger_nyt/*` and
//! `miners_ledger_amzn/*` mine the partitions of the perf ledger's corpora
//! (NYT-CLP 40 000 sentences at (100,0,5); AMZN-h8 40 000 sessions at
//! (10,1,5)): every partition with the default miner, then the largest and a
//! median partition with each miner, reporting ns per partition sequence.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use lash_core::context::MiningContext;
use lash_core::miner::{BfsMiner, DfsMiner, LocalMiner, PsmMiner};
use lash_core::pattern::PatternArena;
use lash_core::rewrite::{RewriteScratch, Rewriter};
use lash_core::sequence::Partition;
use lash_core::{GsmParams, SequenceDatabase, Vocabulary};
use lash_datagen::{
    ProductConfig, ProductCorpus, ProductHierarchy, TextConfig, TextCorpus, TextHierarchy,
};

fn miners() -> Vec<(&'static str, Box<dyn LocalMiner>)> {
    vec![
        ("bfs", Box::new(BfsMiner)),
        ("dfs", Box::new(DfsMiner)),
        ("psm", Box::new(PsmMiner::plain())),
        ("psm_indexed", Box::new(PsmMiner::indexed())),
    ]
}

fn build_partition() -> (MiningContext, Partition, u32, GsmParams) {
    let corpus = TextCorpus::generate(&TextConfig {
        sentences: 2_000,
        lemmas: 500,
        ..TextConfig::default()
    });
    let (vocab, db) = corpus.dataset(TextHierarchy::CLP);
    let ctx = MiningContext::build(&db, &vocab, 20);
    let params = GsmParams::new(20, 0, 5).unwrap();
    // A mid-frequency pivot has a partition that is neither trivial nor huge.
    let pivot = ctx.space().num_frequent() / 4;
    let rewriter = Rewriter::new(ctx.space(), &params);
    let mut scratch = RewriteScratch::default();
    let mut raw = Partition::new();
    for seq in ctx.ranked_db().iter() {
        if let Some(rewritten) = rewriter.rewrite_into(seq, pivot, &mut scratch) {
            raw.push(rewritten, 1);
        }
    }
    (ctx, Partition::aggregate(raw.iter()), pivot, params)
}

fn bench_miners(c: &mut Criterion) {
    let (ctx, partition, pivot, params) = build_partition();
    let space = ctx.space();
    let mut group = c.benchmark_group("local_miners");
    group.sample_size(20);
    for (name, miner) in &miners() {
        let mut sink = PatternArena::new();
        group.bench_function(name, |b| {
            b.iter(|| {
                sink.clear();
                let stats = miner.mine(black_box(&partition), pivot, space, &params, &mut sink);
                black_box((sink.len(), stats.candidates))
            });
        });
    }
    group.finish();
}

/// Every non-empty partition of the LASH job over `db`, smallest first.
fn all_partitions(ctx: &MiningContext, params: &GsmParams) -> Vec<(u32, Partition)> {
    let space = ctx.space();
    let rewriter = Rewriter::new(space, params);
    let mut scratch = RewriteScratch::default();
    let mut raw: Vec<Partition> = (0..space.num_frequent())
        .map(|_| Partition::new())
        .collect();
    for seq in ctx.ranked_db().iter() {
        rewriter.rewrite_all(seq, &mut scratch, |w, rewritten| {
            raw[w as usize].push(rewritten, 1);
        });
    }
    let mut partitions: Vec<(u32, Partition)> = raw
        .iter()
        .enumerate()
        .filter(|(_, p)| !p.is_empty())
        .map(|(w, p)| (w as u32, Partition::aggregate(p.iter())))
        .collect();
    partitions.sort_by_key(|(_, p)| p.len());
    partitions
}

fn bench_ledger_corpus(
    c: &mut Criterion,
    group: &str,
    (vocab, db): (Vocabulary, SequenceDatabase),
    params: GsmParams,
) {
    let ctx = MiningContext::build(&db, &vocab, params.sigma);
    let space = ctx.space();
    let partitions = all_partitions(&ctx, &params);
    let mut group = c.benchmark_group(group);

    let sequences: usize = partitions.iter().map(|(_, p)| p.len()).sum();
    group.throughput(Throughput::Elements(sequences as u64));
    let default_miner = PsmMiner::indexed();
    let mut sink = PatternArena::new();
    group.bench_function(&format!("all_{}/psm_indexed", partitions.len()), |b| {
        b.iter(|| {
            sink.clear();
            for (pivot, partition) in &partitions {
                default_miner.mine(black_box(partition), *pivot, space, &params, &mut sink);
            }
            black_box(sink.len())
        });
    });

    for (label, idx) in [
        ("largest", partitions.len() - 1),
        ("median", partitions.len() / 2),
    ] {
        let (pivot, partition) = &partitions[idx];
        group.throughput(Throughput::Elements(partition.len() as u64));
        for (name, miner) in &miners() {
            group.bench_function(&format!("{label}_{}/{name}", partition.len()), |b| {
                b.iter(|| {
                    sink.clear();
                    let stats = miner.mine(black_box(partition), *pivot, space, &params, &mut sink);
                    black_box((sink.len(), stats.candidates))
                });
            });
        }
    }
    group.finish();
}

fn bench_miners_ledger(c: &mut Criterion) {
    let nyt = TextCorpus::generate(&TextConfig {
        sentences: 40_000,
        lemmas: 7_071,
        ..TextConfig::default()
    });
    bench_ledger_corpus(
        c,
        "miners_ledger_nyt",
        nyt.dataset(TextHierarchy::CLP),
        GsmParams::new(100, 0, 5).unwrap(),
    );
    let amzn = ProductCorpus::generate(&ProductConfig {
        users: 40_000,
        products: 28_284,
        ..ProductConfig::default()
    });
    bench_ledger_corpus(
        c,
        "miners_ledger_amzn",
        amzn.dataset(ProductHierarchy::H8),
        GsmParams::new(10, 1, 5).unwrap(),
    );
}

criterion_group!(benches, bench_miners, bench_miners_ledger);
criterion_main!(benches);

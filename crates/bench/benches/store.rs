//! Throughput of the on-disk corpus: write path, streaming scan, parallel
//! scan, and header-only f-list — each against the in-memory baseline the
//! store replaces.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use lash_core::flist::FList;
use lash_core::{SequenceDatabase, Vocabulary};
use lash_datagen::{TextConfig, TextCorpus, TextHierarchy};
use lash_store::{CorpusReader, Partitioning, StoreOptions};

fn dataset() -> (Vocabulary, SequenceDatabase) {
    TextCorpus::generate(&TextConfig {
        sentences: 10_000,
        lemmas: 1_500,
        ..TextConfig::default()
    })
    .dataset(TextHierarchy::LP)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("lash-bench-store-{tag}-{}", std::process::id()))
}

fn opts() -> StoreOptions {
    StoreOptions::default().with_partitioning(Partitioning::hash(8))
}

fn bench_write(c: &mut Criterion) {
    let (vocab, db) = dataset();
    let bytes = (db.total_items() * 4) as u64;
    let mut group = c.benchmark_group("store_write");
    group.throughput(Throughput::Elements(db.len() as u64));
    group.bench_function("sequences", |b| {
        let dir = temp_dir("write");
        b.iter(|| {
            let _ = std::fs::remove_dir_all(&dir);
            let m = lash_store::convert::write_database(&dir, &vocab, &db, opts()).unwrap();
            black_box(m.num_sequences)
        });
        let _ = std::fs::remove_dir_all(&dir);
    });
    group.throughput(Throughput::Bytes(bytes));
    group.bench_function("item_bytes", |b| {
        let dir = temp_dir("write-bytes");
        b.iter(|| {
            let _ = std::fs::remove_dir_all(&dir);
            let m = lash_store::convert::write_database(&dir, &vocab, &db, opts()).unwrap();
            black_box(m.total_items)
        });
        let _ = std::fs::remove_dir_all(&dir);
    });
    group.finish();
}

fn bench_scan(c: &mut Criterion) {
    let (vocab, db) = dataset();
    let dir = temp_dir("scan");
    let _ = std::fs::remove_dir_all(&dir);
    lash_store::convert::write_database(&dir, &vocab, &db, opts()).unwrap();
    let reader = CorpusReader::open(&dir).unwrap();

    let mut group = c.benchmark_group("store_scan");
    group.throughput(Throughput::Elements(db.len() as u64));
    // The baseline the store competes with: iterating the heap arena.
    group.bench_function("in_memory_baseline", |b| {
        b.iter(|| {
            let mut items = 0usize;
            for seq in db.iter() {
                items += seq.len();
            }
            black_box(items)
        });
    });
    group.bench_function("streaming", |b| {
        b.iter(|| {
            let mut items = 0usize;
            for record in reader.scan() {
                items += record.unwrap().1.len();
            }
            black_box(items)
        });
    });
    // Block-at-a-time delivery: shared item arena + offsets, no per-record
    // allocation.
    group.bench_function("streaming_batched", |b| {
        b.iter(|| {
            let mut items = 0usize;
            for shard in 0..reader.num_shards() {
                let mut scan = reader.scan_shard(shard).unwrap();
                while let Some(batch) = scan.next_batch().unwrap() {
                    items += batch.arena().len();
                }
            }
            black_box(items)
        });
    });
    group.bench_function("parallel_8_shards", |b| {
        b.iter(|| {
            let counts = reader
                .par_scan(8, |_, scan| {
                    let mut items = 0usize;
                    for record in scan {
                        items += record?.1.len();
                    }
                    Ok(items)
                })
                .unwrap();
            black_box(counts.into_iter().sum::<usize>())
        });
    });
    group.bench_function("parallel_8_shards_batched", |b| {
        b.iter(|| {
            let counts = reader
                .par_scan(8, |_, mut scan| {
                    let mut items = 0usize;
                    while let Some(batch) = scan.next_batch()? {
                        items += batch.arena().len();
                    }
                    Ok(items)
                })
                .unwrap();
            black_box(counts.into_iter().sum::<usize>())
        });
    });
    group.finish();

    let mut group = c.benchmark_group("store_flist");
    group.throughput(Throughput::Elements(db.len() as u64));
    group.bench_function("in_memory_compute", |b| {
        b.iter(|| black_box(FList::compute(&db, &vocab).num_frequent(10)));
    });
    group.bench_function("from_block_headers", |b| {
        b.iter(|| black_box(reader.flist().unwrap().unwrap().num_frequent(10)));
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_write, bench_scan);
criterion_main!(benches);

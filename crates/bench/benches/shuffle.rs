//! Throughput of the MapReduce shuffle: the all-in-memory fast path against
//! the out-of-core external-sort path at several spill thresholds, a
//! semi-naive-shaped spilling job (the perf ledger's hottest shuffle path)
//! and the sort of one of its sort buffers alone, plus a LASH mine job
//! end-to-end on both paths.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use lash_core::{GsmParams, Lash, LashConfig};
use lash_datagen::{TextConfig, TextCorpus, TextHierarchy};
use lash_encoding::varint;
use lash_mapreduce::shuffle::{partition_of, RunBuffer};
use lash_mapreduce::{run_job, Combined, Emitter, EngineConfig, Job, Values};

fn count(bytes: &[u8]) -> u64 {
    varint::decode_u64(bytes).expect("varint count").0
}

/// Sums varint counts on their bytes; a one-value group passes through.
fn combine_counts(values: &[&[u8]], out: &mut Combined<'_>) {
    if let [only] = values {
        out.push(only);
        return;
    }
    let sum: u64 = values.iter().map(|v| count(v)).sum();
    out.push_with(|buf| varint::encode_u64(sum, buf));
}

fn sum_counts(values: &mut Values<'_, '_>) -> u64 {
    let mut sum = 0;
    while let Some(v) = values.next() {
        sum += count(v);
    }
    sum
}

/// A word-count-shaped job over synthetic token sequences: enough emitted
/// pairs per input to make the shuffle the dominant cost.
struct TokenCount;

impl Job for TokenCount {
    type Input = Vec<u32>;
    type Output = (u32, u64);

    /// Each token's count is a varint 1: the single byte `1`.
    fn map(&self, tokens: &Vec<u32>, emit: &mut Emitter<'_, Self>) {
        for &t in tokens {
            emit.emit(&t.to_be_bytes(), &[1]);
        }
    }

    fn combine(&self, _key: &[u8], values: &mut [&[u8]], out: &mut Combined<'_>) {
        combine_counts(values, out);
    }

    fn reduce(&self, key: &[u8], values: &mut Values<'_, '_>, out: &mut Vec<(u32, u64)>) {
        let key = u32::from_be_bytes(key.try_into().expect("4-byte key"));
        out.push((key, sum_counts(values)));
    }
}

/// The semi-naive baseline's shuffle without its enumeration: every
/// contiguous window of 2–5 ranks is a key in the sequence wire format,
/// counted and thresholded like a candidate pattern.
struct WindowCount {
    sigma: u64,
}

impl Job for WindowCount {
    type Input = Vec<u32>;
    type Output = (Vec<u32>, u64);

    fn map(&self, ranks: &Vec<u32>, emit: &mut Emitter<'_, Self>) {
        let mut key = Vec::new();
        for len in 2..=5 {
            for window in ranks.windows(len) {
                key.clear();
                lash_encoding::encode_sequence(window, &mut key);
                emit.emit(&key, &[1]);
            }
        }
    }

    fn combine(&self, _key: &[u8], values: &mut [&[u8]], out: &mut Combined<'_>) {
        combine_counts(values, out);
    }

    fn reduce(&self, key: &[u8], values: &mut Values<'_, '_>, out: &mut Vec<(Vec<u32>, u64)>) {
        let frequency = sum_counts(values);
        if frequency >= self.sigma {
            let pattern = lash_encoding::decode_sequence(key).expect("valid pattern key");
            out.push((pattern, frequency));
        }
    }
}

/// Deterministic Zipf-ish token sequences.
fn inputs() -> Vec<Vec<u32>> {
    inputs_of_len(4_000, 12)
}

/// `n` deterministic Zipf-ish token sequences of `len` tokens each.
fn inputs_of_len(n: usize, len: usize) -> Vec<Vec<u32>> {
    let mut state = 0x2545f4914f6cdd1du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|_| {
            (0..len)
                .map(|_| {
                    let r = next();
                    // Skew towards small keys so groups have many values.
                    ((r % 1000) * (r % 7) / 6) as u32
                })
                .collect()
        })
        .collect()
}

fn bench_shuffle_paths(c: &mut Criterion) {
    let data = inputs();
    let pairs: u64 = data.iter().map(|v| v.len() as u64).sum();
    let base = EngineConfig::default()
        .with_reduce_tasks(8)
        .with_split_size(256);

    let mut group = c.benchmark_group("shuffle");
    group.throughput(Throughput::Elements(pairs));
    group.bench_function("in_memory", |b| {
        let cfg = base.clone().with_spill_threshold(None);
        b.iter(|| black_box(run_job(&TokenCount, &data, &cfg).unwrap().outputs.len()));
    });
    for (label, threshold) in [("spill_64k", 64 * 1024), ("spill_8k", 8 * 1024)] {
        let cfg = base.clone().with_spill_threshold(Some(threshold));
        group.bench_function(label, |b| {
            b.iter(|| black_box(run_job(&TokenCount, &data, &cfg).unwrap().outputs.len()));
        });
    }

    // One map task over every sentence, spilling at the ledger's 4 MiB:
    // sort, combine, spill and merge all run on one thread, as in the
    // ledger's `nyt_seminaive` workload.
    let sentences = inputs_of_len(10_000, 25);
    let windows: u64 = sentences
        .iter()
        .map(|s| {
            (2..=5)
                .map(|n| (s.len() + 1).saturating_sub(n) as u64)
                .sum::<u64>()
        })
        .sum();
    let cfg = EngineConfig::default()
        .with_reduce_tasks(2)
        .with_split_size(sentences.len())
        .with_spill_threshold(Some(4 << 20));
    group.throughput(Throughput::Elements(windows));
    group.bench_function("seminaive_shaped", |b| {
        let job = WindowCount { sigma: 10 };
        b.iter(|| black_box(run_job(&job, &sentences, &cfg).unwrap().outputs.len()));
    });

    // The spill thread's sort alone: one partition's buffer of the job
    // above (of 16 reduce partitions, as in the ledger) at the moment its
    // 4 MiB set is handed off, re-sorted from push order each iteration.
    let mut run = RunBuffer::default();
    let mut key = Vec::new();
    'fill: for s in &sentences {
        for len in 2..=5 {
            for window in s.windows(len) {
                key.clear();
                lash_encoding::encode_sequence(window, &mut key);
                if partition_of(&key, 16) == 0 {
                    run.push(&key, &[1]);
                }
                if run.data.len() >= (4 << 20) / 16 {
                    break 'fill;
                }
            }
        }
    }
    let pushed = run.recs.clone();
    let mut scratch = Vec::new();
    group.throughput(Throughput::Elements(pushed.len() as u64));
    group.bench_function("sort_seminaive_shaped", |b| {
        b.iter(|| {
            run.recs.clear();
            run.recs.extend_from_slice(&pushed);
            run.sort(&mut scratch);
            black_box(run.recs[0].prefix)
        });
    });
    group.finish();
}

fn bench_mine_job_paths(c: &mut Criterion) {
    let (vocab, db) = TextCorpus::generate(&TextConfig {
        sentences: 4_000,
        lemmas: 1_200,
        ..TextConfig::default()
    })
    .dataset(TextHierarchy::LP);
    let params = GsmParams::ngram(40, 4).expect("valid params");

    let mut group = c.benchmark_group("mine_job");
    group.throughput(Throughput::Elements(db.len() as u64));
    group.sample_size(10);
    let base = EngineConfig::default()
        .with_reduce_tasks(8)
        .with_split_size(512);
    for (label, threshold) in [("in_memory", None), ("spill_64k", Some(64 * 1024))] {
        let cfg = base.clone().with_spill_threshold(threshold);
        group.bench_function(label, |b| {
            b.iter(|| {
                let result = Lash::new(LashConfig::new(cfg.clone()))
                    .mine(&db, &vocab, &params)
                    .unwrap();
                black_box(result.pattern_set().len())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_shuffle_paths, bench_mine_job_paths);
criterion_main!(benches);

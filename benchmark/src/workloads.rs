//! The four workloads. Each is one process: set-up several times (the
//! median is `setup_s`), the workload's own measured loop, the serving
//! load, the output checks, and — when traced — the per-layer probes.
//!
//! Every size and count below is a constant, tuned once for about
//! [`crate::RUN_SECONDS`] of measured work on two cores and then frozen: a
//! run's inputs depend on `--seed` and on nothing else.
//!
//! The corpus generators run under one constant seed, which fixes the
//! vocabulary, the hierarchy, the popularity of every item and the set of
//! sequences; `--seed` draws the order of the sequences — which split,
//! block, generation and ingest batch each lands in, and which make up the
//! naive-job sample — and the query mix. Feeding `--seed` to the generators
//! themselves moves the hierarchy, and with it the pattern count and every
//! wall time by ±20% from seed to seed; drawing a subset of the sequences
//! moved the byte counts by up to 1.6%. Either is wider than the bound a
//! regression in them must fit in.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lash::datagen::{
    ProductConfig, ProductCorpus, ProductHierarchy, TextConfig, TextCorpus, TextHierarchy,
};
use lash::distributed::naive_job::run_naive;
use lash::distributed::semi_naive_job::run_semi_naive;
use lash::index::{PatternIndexReader, QueryReply};
use lash::mapreduce::{EngineConfig, JobMetrics};
use lash::serve::{Lifecycle, ServeConfig};
use lash::store::{
    compact, CompactionConfig, CompactionStats, CorpusReader, CorpusWriter, IncrementalWriter,
    StoreOptions,
};
use lash::{GsmParams, Lash, LashConfig, MiningContext, Pattern, SequenceDatabase, Vocabulary};

use crate::digest::{digest, Digest};
use crate::metrics::Report;
use crate::mix::{self, Mix};
use crate::obsread::{ObsDelta, ObsSnap};
use crate::serving::{self, Daemon, PublishFacts};
use crate::stats::{median, percentile_sorted, summarize};
use crate::trace::{self, Recorder};
use crate::wire::{self, Check, Schedule};
use crate::{host, probes, traced_rep, Failure};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
pub const REDUCE_TASKS: usize = 16;
pub const SPLIT_SIZE: usize = 16 * 1024;
/// Generations every store is first written as.
const SEED_GENERATIONS: usize = 4;

/// Seed of the corpus generators (see the module comment).
const CORPUS_SEED: u64 = 20150601;

struct NytSize {
    hierarchy: TextHierarchy,
    sentences: usize,
    lemmas: usize,
}
/// `TextConfig::default().scaled(2.0)` under CLP.
const NYT_LASH: NytSize = NytSize {
    hierarchy: TextHierarchy::CLP,
    sentences: 40_000,
    lemmas: 7_071,
};
/// `TextConfig::default().scaled(0.5)` under P.
const NYT_SEMINAIVE: NytSize = NytSize {
    hierarchy: TextHierarchy::P,
    sentences: 10_000,
    lemmas: 3_535,
};
const NYT_PARAMS: (u64, usize, usize) = (100, 0, 5);
/// Measured repetitions of an NYT run, about two seconds each. A count and
/// not a duration, so the work, and with it every byte count and the memory
/// high-water mark, does not depend on how fast the host is.
const NYT_REPS: usize = 5;
const SEMINAIVE_SPILL_BYTES: usize = 4 << 20;

/// `ProductConfig::default().scaled(2.0)` sessions to start from under the
/// h8 hierarchy; `amzn_refresh` generates `AMZN_ROUNDS` ingest batches more.
/// `--seed` orders them, so the corpus after the last round is the same set
/// of sessions whatever the seed.
const AMZN_SEED_SESSIONS: usize = 40_000;
const AMZN_BATCH: usize = 4_000;
/// Refresh rounds of an `amzn_refresh` run, about 2.4 seconds each.
const AMZN_ROUNDS: usize = 4;
const AMZN_PRODUCTS: usize = 28_284;
const AMZN_PARAMS: (u64, usize, usize) = (10, 1, 5);
const BESIDE_RATE: u64 = 500;
/// A query beside a refresh meets its objective within this, from due time.
const BESIDE_SLO_NS: u64 = 5_000_000;

/// The sample every corpus is re-mined on against the naive job.
const SAMPLE_SEQUENCES: usize = 1_000;
const SAMPLE_SIGMA: u64 = 5;
const SAMPLE_LAMBDA: usize = 3;

pub struct Env {
    pub seed: u64,
    pub traced: bool,
    /// Scratch directory of this run, inside the checkout.
    pub work: PathBuf,
    /// Engine parallelism and client connections: `min(nproc, 2)`.
    pub par: usize,
    pub rec: Recorder,
    pub report: Report,
}

impl Env {
    fn cluster(&self) -> EngineConfig {
        EngineConfig::default()
            .with_parallelism(self.par)
            .with_reduce_tasks(REDUCE_TASKS)
            .with_split_size(SPLIT_SIZE)
    }

    fn lash(&self) -> Lash {
        Lash::new(LashConfig::new(self.cluster()))
    }

    fn fresh_dir(&self, name: &str) -> Result<PathBuf, Failure> {
        let dir = self.work.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        Ok(dir)
    }
}

pub fn frozen_sizes_json() -> String {
    format!(
        "\"nyt_lash\":{{\"hierarchy\":\"CLP\",\"sentences\":{},\"lemmas\":{},\"params\":[{},{},{}]}},\
         \"nyt_seminaive\":{{\"hierarchy\":\"P\",\"sentences\":{},\"lemmas\":{},\"params\":[{},{},{}],\"spill_threshold_bytes\":{}}},\
         \"amzn\":{{\"hierarchy\":\"h8\",\"seed_sessions\":{},\"batch_sessions\":{},\"rounds\":{},\"products\":{},\"params\":[{},{},{}],\"beside_rate_qps\":{}}},\
         \"corpus_seed\":{},\"nyt_reps\":{},\"setups\":{},\"reduce_tasks\":{},\"split_size\":{},\"seed_generations\":{},\"query_pool\":{},\"closed_loop_window\":{}",
        NYT_LASH.sentences, NYT_LASH.lemmas, NYT_PARAMS.0, NYT_PARAMS.1, NYT_PARAMS.2,
        NYT_SEMINAIVE.sentences, NYT_SEMINAIVE.lemmas, NYT_PARAMS.0, NYT_PARAMS.1, NYT_PARAMS.2,
        SEMINAIVE_SPILL_BYTES,
        AMZN_SEED_SESSIONS, AMZN_BATCH, AMZN_ROUNDS, AMZN_PRODUCTS, AMZN_PARAMS.0, AMZN_PARAMS.1, AMZN_PARAMS.2,
        BESIDE_RATE,
        CORPUS_SEED, NYT_REPS, SETUPS, REDUCE_TASKS, SPLIT_SIZE, SEED_GENERATIONS, mix::POOL, serving::WINDOW,
    )
}

/// Every sequence of `pool`, in the order a `seed`-driven shuffle gives.
fn shuffled(pool: &SequenceDatabase, seed: u64) -> SequenceDatabase {
    let mut order: Vec<usize> = (0..pool.len()).collect();
    let mut rng = mix::SplitMix64(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut db = SequenceDatabase::with_capacity(pool.len(), pool.total_items());
    for &i in &order {
        db.push(pool.get(i));
    }
    db
}

fn params((sigma, gamma, lambda): (u64, usize, usize)) -> GsmParams {
    GsmParams::new(sigma, gamma, lambda).expect("frozen parameters are valid")
}

// ------------------------------------------------------------------ store

/// What writing a store cost.
#[derive(Default, Clone)]
struct StoreFacts {
    ingest_s: f64,
    items: u64,
    seal_s: f64,
    compaction: Option<CompactionStats>,
}

/// Writes the first `upto` sequences of `db` as [`SEED_GENERATIONS`] sealed
/// generations — one `CorpusWriter`, then `IncrementalWriter`s.
fn write_store(
    dir: &Path,
    vocab: &Vocabulary,
    db: &SequenceDatabase,
    upto: usize,
) -> Result<StoreFacts, Failure> {
    let before = ObsSnap::take();
    let started = Instant::now();
    let mut items = 0u64;
    for g in 0..SEED_GENERATIONS {
        let range = g * upto / SEED_GENERATIONS..(g + 1) * upto / SEED_GENERATIONS;
        if g == 0 {
            let mut w = CorpusWriter::create(dir, vocab, StoreOptions::default())?;
            for i in range {
                items += db.get(i).len() as u64;
                w.append(db.get(i))?;
            }
            w.finish()?;
        } else {
            let mut w = IncrementalWriter::open(dir)?;
            for i in range {
                items += db.get(i).len() as u64;
                w.append(db.get(i))?;
            }
            w.finish()?;
        }
    }
    Ok(StoreFacts {
        ingest_s: started.elapsed().as_secs_f64(),
        items,
        seal_s: ObsSnap::take()
            .since(&before)
            .span("store.seal")
            .as_secs_f64(),
        compaction: None,
    })
}

fn report_store(report: &mut Report, facts: &StoreFacts, dir: &Path) -> Result<(), Failure> {
    let reader = CorpusReader::open(dir)?;
    let bytes = host::dir_bytes(dir)?;
    report.set("store.ingest_s", facts.ingest_s);
    report.set(
        "store.ingest_items_per_s",
        facts.items as f64 / facts.ingest_s,
    );
    report.set("store.seal_s", facts.seal_s);
    if let Some(c) = &facts.compaction {
        report.set("store.compact_s", c.elapsed.as_secs_f64());
        report.set("store.compact_bytes_in", c.payload_bytes_in as f64);
        report.set("store.compact_bytes_out", c.payload_bytes_out as f64);
        report.set(
            "store.compact_throttle_wait_s",
            c.throttle_wait.as_secs_f64(),
        );
    }
    report.set("store.generations", reader.num_generations() as f64);
    report.set("store.bytes_on_disk", bytes as f64);
    report.set(
        "store_bytes_per_item",
        bytes as f64 / reader.manifest().total_items as f64,
    );
    Ok(())
}

// ----------------------------------------------------------------- mining

/// One mine call seen from outside: where its wall time went and what it
/// counted. Filled from the values a direct call returns, or from registry
/// deltas when the call happens inside the lifecycle.
#[derive(Default, Clone)]
struct MineFacts {
    wall_s: f64,
    open_s: f64,
    to_database_s: f64,
    flist_s: f64,
    job_s: f64,
    map_s: f64,
    shuffle_s: f64,
    reduce_s: f64,
    map_output_bytes: u64,
    map_output_records: u64,
    combine_in: u64,
    combine_out: u64,
    spilled_bytes: u64,
    spilled_runs: u64,
    merged_runs: u64,
    merge_passes: u64,
    peak_resident_bytes: u64,
    task_retries: u64,
    partitions: u64,
    candidates: u64,
    outputs: u64,
    patterns: u64,
    blocks_decoded: u64,
    blocks_pruned: u64,
}

impl MineFacts {
    fn job(&mut self, m: &JobMetrics) {
        let c = &m.counters;
        self.job_s = m.total_time.as_secs_f64();
        self.map_s = m.map_time.as_secs_f64();
        self.shuffle_s = m.shuffle_time.as_secs_f64();
        self.reduce_s = m.reduce_time.as_secs_f64();
        self.map_output_bytes = c.map_output_bytes;
        self.map_output_records = c.map_output_records;
        self.combine_in = c.combine_input_records;
        self.combine_out = c.combine_output_records;
        self.spilled_bytes = c.spilled_bytes;
        self.spilled_runs = c.spilled_runs;
        self.merged_runs = c.merged_runs;
        self.merge_passes = c.merge_passes;
        self.peak_resident_bytes = c.peak_resident_bytes;
        self.task_retries = c.failed_map_tasks + c.failed_reduce_tasks;
    }

    /// The mine job of a lifecycle round, read from the registry.
    fn from_obs(d: &ObsDelta, patterns: u64) -> MineFacts {
        MineFacts {
            wall_s: d.span("mine.job").as_secs_f64(),
            flist_s: d.span("mine.flist").as_secs_f64(),
            job_s: d.span("mapreduce.job").as_secs_f64(),
            map_s: d.span("mapreduce.map").as_secs_f64(),
            shuffle_s: d.span("mapreduce.shuffle").as_secs_f64(),
            reduce_s: d.span("mapreduce.reduce").as_secs_f64(),
            map_output_bytes: d.counter("mapreduce.map_output_bytes"),
            map_output_records: d.counter("mapreduce.map_output_records"),
            combine_in: d.counter("mapreduce.combine_input_records"),
            combine_out: d.counter("mapreduce.combine_output_records"),
            spilled_bytes: d.counter("mapreduce.spilled_bytes"),
            spilled_runs: d.counter("mapreduce.spilled_runs"),
            merged_runs: d.counter("mapreduce.merged_runs"),
            merge_passes: d.counter("mapreduce.merge_passes"),
            peak_resident_bytes: lash::obs::global()
                .gauge("mapreduce.peak_resident_bytes")
                .get(),
            task_retries: d.counter("mapreduce.failed_map_tasks")
                + d.counter("mapreduce.failed_reduce_tasks"),
            partitions: d.counter("mine.partitions"),
            candidates: d.counter("mine.candidates"),
            outputs: d.counter("mine.outputs"),
            patterns,
            blocks_decoded: d.counter("store.scan.blocks_decoded"),
            blocks_pruned: d.counter("store.scan.blocks_pruned"),
            ..MineFacts::default()
        }
    }
}

/// Medians of the timings over all mine calls, counts of the last one.
fn report_mining(report: &mut Report, facts: &[MineFacts]) {
    let med = |f: fn(&MineFacts) -> f64| median(&facts.iter().map(f).collect::<Vec<_>>());
    let last = facts.last().expect("at least one mine call");
    let wall = summarize(&facts.iter().map(|f| f.wall_s).collect::<Vec<_>>());
    eprintln!(
        "  mine wall: median {:.3}s min {:.3}s max {:.3}s n={}",
        wall.median, wall.min, wall.max, wall.n
    );
    report.set("mine_wall_s", wall.median);
    report.set("map_output_bytes", last.map_output_bytes as f64);
    report.set("store.open_s", med(|f| f.open_s));
    report.set("store.to_database_s", med(|f| f.to_database_s));
    report.set("store.blocks_decoded", last.blocks_decoded as f64);
    report.set("store.blocks_pruned", last.blocks_pruned as f64);
    report.set("mapreduce.map_s", med(|f| f.map_s));
    report.set("mapreduce.shuffle_s", med(|f| f.shuffle_s));
    report.set("mapreduce.reduce_s", med(|f| f.reduce_s));
    report.set(
        "mapreduce.map_output_records",
        last.map_output_records as f64,
    );
    if last.combine_in > 0 {
        report.set(
            "mapreduce.combine_ratio",
            last.combine_out as f64 / last.combine_in as f64,
        );
    }
    report.set("mapreduce.spilled_bytes", last.spilled_bytes as f64);
    report.set("mapreduce.spilled_runs", last.spilled_runs as f64);
    report.set("mapreduce.merged_runs", last.merged_runs as f64);
    report.set("mapreduce.merge_passes", last.merge_passes as f64);
    report.set(
        "mapreduce.peak_resident_bytes",
        last.peak_resident_bytes as f64,
    );
    report.set("mapreduce.task_retries", last.task_retries as f64);
    report.set("core.flist_s", med(|f| f.flist_s));
    report.set("core.mine_job_s", med(|f| f.job_s));
    report.set(
        "core.assemble_s",
        med(|f| (f.wall_s - f.open_s - f.to_database_s - f.flist_s - f.job_s).max(0.0)),
    );
    report.set("core.partitions", last.partitions as f64);
    report.set("core.candidates", last.candidates as f64);
    report.set("core.outputs", last.outputs as f64);
    if last.outputs > 0 {
        report.set(
            "core.candidates_per_output",
            last.candidates as f64 / last.outputs as f64,
        );
    }
    report.set("core.patterns", last.patterns as f64);
}

/// The cost of tracing, from the walls of repetitions that alternated
/// untraced, traced, traced, untraced: traced over untraced time, less one,
/// over the leading multiple of four so that a linear drift (a corpus that
/// grows every round) cancels. `None` with fewer than four.
fn trace_overhead(walls: &[f64]) -> Option<f64> {
    let paired = walls.len() - walls.len() % 4;
    let sum = |on: bool| -> f64 {
        (0..paired)
            .filter(|&i| traced_rep(i) == on)
            .map(|i| walls[i])
            .sum()
    };
    (paired > 0).then(|| sum(true) / sum(false) - 1.0)
}

fn pattern_digest(patterns: &[Pattern]) -> Digest {
    digest(patterns.iter().map(|p| (p.items.as_slice(), p.frequency)))
}

/// One `CorpusReader::open → mine → patterns()` repetition of the LASH job.
fn lash_rep(
    env: &mut Env,
    dir: &Path,
    params: &GsmParams,
) -> Result<(Vec<Pattern>, MineFacts), Failure> {
    let lash = env.lash();
    let before = ObsSnap::take();
    let started = Instant::now();
    let root = env.rec.open("rep", None);
    let (reader, open) = env.rec.time("store.open", root, || CorpusReader::open(dir));
    let reader = reader?;
    let mine_span = env.rec.open("core.mine", root);
    let result = reader.mine(&lash, params)?;
    let patterns = result.patterns().to_vec();
    env.rec.close(mine_span);
    env.rec.close(root);
    let wall = started.elapsed();
    // The jobs return durations, not timestamps: lay them end to end.
    let (pre, job) = (&result.preprocess_metrics, &result.mine_metrics);
    env.rec.add_sequence(
        mine_span,
        &[
            ("core.flist", pre.total_time),
            ("mapreduce.map", job.map_time),
            ("mapreduce.shuffle", job.shuffle_time),
            ("mapreduce.reduce", job.reduce_time),
        ],
    );
    let delta = ObsSnap::take().since(&before);
    let mut facts = MineFacts {
        wall_s: wall.as_secs_f64(),
        open_s: open.as_secs_f64(),
        flist_s: pre.total_time.as_secs_f64(),
        partitions: result.num_partitions,
        candidates: result.miner_stats.candidates,
        outputs: result.miner_stats.outputs,
        patterns: patterns.len() as u64,
        blocks_decoded: delta.counter("store.scan.blocks_decoded"),
        blocks_pruned: delta.counter("store.scan.blocks_pruned"),
        ..MineFacts::default()
    };
    facts.job(job);
    Ok((patterns, facts))
}

/// One repetition of the semi-naive baseline over the same store: open,
/// materialise, build the mining context, run the job with a spilling
/// shuffle, decode the result.
fn seminaive_rep(
    env: &mut Env,
    dir: &Path,
    params: &GsmParams,
    spill_dir: &Path,
) -> Result<(Vec<Pattern>, MineFacts), Failure> {
    let cluster = env
        .cluster()
        .with_spill_threshold(Some(SEMINAIVE_SPILL_BYTES))
        .with_spill_dir(spill_dir);
    let before = ObsSnap::take();
    let started = Instant::now();
    let root = env.rec.open("rep", None);
    let (reader, open) = env.rec.time("store.open", root, || CorpusReader::open(dir));
    let reader = reader?;
    let (db, to_db) = env
        .rec
        .time("store.to_database", root, || reader.to_database());
    let db = db?;
    let (ctx, flist) = env.rec.time("core.flist", root, || {
        MiningContext::build(&db, reader.vocabulary(), params.sigma)
    });
    let job_span = env.rec.open("core.mine_job", root);
    let (set, metrics) = run_semi_naive(&ctx, params, &cluster)?;
    env.rec.close(job_span);
    env.rec.add_sequence(
        job_span,
        &[
            ("mapreduce.map", metrics.map_time),
            ("mapreduce.shuffle", metrics.shuffle_time),
            ("mapreduce.reduce", metrics.reduce_time),
        ],
    );
    let (patterns, _) = env.rec.time("core.assemble", root, || {
        let mut patterns: Vec<Pattern> = set
            .iter()
            .map(|(ranks, frequency)| Pattern {
                items: ctx.decode(ranks),
                frequency,
            })
            .collect();
        patterns.sort_by(|a, b| b.frequency.cmp(&a.frequency).then(a.items.cmp(&b.items)));
        patterns
    });
    env.rec.close(root);
    let wall = started.elapsed();
    let delta = ObsSnap::take().since(&before);
    let mut facts = MineFacts {
        wall_s: wall.as_secs_f64(),
        open_s: open.as_secs_f64(),
        to_database_s: to_db.as_secs_f64(),
        flist_s: flist.as_secs_f64(),
        patterns: patterns.len() as u64,
        blocks_decoded: delta.counter("store.scan.blocks_decoded"),
        blocks_pruned: delta.counter("store.scan.blocks_pruned"),
        ..MineFacts::default()
    };
    facts.job(&metrics);
    Ok((patterns, facts))
}

/// Re-mines the first [`SAMPLE_SEQUENCES`] sequences from a store of their
/// own and compares with the naive job's output on the same sample.
fn check_sample_against_naive(
    env: &mut Env,
    vocab: &Vocabulary,
    db: &SequenceDatabase,
    gamma: usize,
) -> Result<(), Failure> {
    let sample = db.truncated(SAMPLE_SEQUENCES.min(db.len()));
    let dir = env.fresh_dir("sample-store")?;
    lash::store::convert::write_database(&dir, vocab, &sample, StoreOptions::default())?;
    let p = params((SAMPLE_SIGMA, gamma, SAMPLE_LAMBDA));
    let mined = CorpusReader::open(&dir)?.mine(&env.lash(), &p)?;
    let ctx = MiningContext::build(&sample, vocab, p.sigma);
    let (naive, _) = run_naive(&ctx, &p, &env.cluster())?;
    let naive: Vec<Pattern> = naive
        .iter()
        .map(|(ranks, frequency)| Pattern {
            items: ctx.decode(ranks),
            frequency,
        })
        .collect();
    let (got, want) = (pattern_digest(mined.patterns()), pattern_digest(&naive));
    env.report.check(got == want && want.count > 0, || {
        format!("store-backed LASH on the sample gave {got:?}, the naive job {want:?}")
    });
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}

// ------------------------------------------------------------ nyt workloads

struct NytSetup {
    vocab: Vocabulary,
    db: SequenceDatabase,
    dir: PathBuf,
    store: StoreFacts,
}

/// Generates the corpus, orders its sentences by the seed, writes them as
/// four generations and compacts them into one.
fn setup_nyt(env: &Env, size: &NytSize) -> Result<NytSetup, Failure> {
    let corpus = TextCorpus::generate(&TextConfig {
        sentences: size.sentences,
        lemmas: size.lemmas,
        seed: CORPUS_SEED,
        ..TextConfig::default()
    });
    let (vocab, pool) = corpus.dataset(size.hierarchy);
    let db = shuffled(&pool, env.seed);
    let dir = env.fresh_dir("corpus")?;
    let mut store = write_store(&dir, &vocab, &db, db.len())?;
    store.compaction =
        compact::compact(&dir, &CompactionConfig::default().with_max_generations(1))?;
    Ok(NytSetup {
        vocab,
        db,
        dir,
        store,
    })
}

#[derive(Clone, Copy, PartialEq)]
pub enum NytJob {
    Lash,
    SemiNaive,
}

pub fn run_nyt(env: &mut Env, job: NytJob) -> Result<(), Failure> {
    let size = match job {
        NytJob::Lash => &NYT_LASH,
        NytJob::SemiNaive => &NYT_SEMINAIVE,
    };
    let p = params(NYT_PARAMS);
    let spill_dir = env.work.join("spill");
    std::fs::create_dir_all(&spill_dir)?;

    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUPS {
        drop(setup.take());
        let started = Instant::now();
        setup = Some(setup_nyt(env, size)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let setup = setup.expect("SETUPS >= 1");
    env.report.set("setup_s", median(&setup_s));
    report_store(&mut env.report, &setup.store, &setup.dir)?;

    let rep = |env: &mut Env| match job {
        NytJob::Lash => lash_rep(env, &setup.dir, &p),
        NytJob::SemiNaive => seminaive_rep(env, &setup.dir, &p, &spill_dir),
    };

    // One warm-up, then the measured repetitions. Each ends by publishing
    // its patterns behind the daemon, so the wall from `open` to the first
    // wire reply is one refresh.
    rep(env)?;
    let (mut facts, mut published, mut refresh_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut daemon: Option<Daemon> = None;
    let mut first: Option<Digest> = None;
    let mut patterns = Vec::new();
    for i in 0..NYT_REPS {
        env.rec.on = env.traced && traced_rep(i);
        env.rec.run = i as u32;
        let (found, f) = rep(env)?;
        let d = pattern_digest(&found);
        let reference = *first.get_or_insert(d);
        env.report.check(d == reference, || {
            format!("repetition {i} mined {d:?}, the first {reference:?}")
        });
        let index_dir = env.work.join(format!("index-{i}"));
        let publish = serving::publish(env, &mut daemon, &setup.vocab, &found, &index_dir)?;
        refresh_s.push(f.wall_s + publish.wall_s);
        facts.push(f);
        published.push(publish);
        patterns = found;
    }
    env.rec.on = false;
    record_peak_rss(env);
    report_mining(&mut env.report, &facts);
    env.report.set("refresh_wall_s", median(&refresh_s));
    report_publish(&mut env.report, &published, patterns.len());
    let walls: Vec<f64> = facts.iter().map(|f| f.wall_s).collect();
    if let Some(share) = trace_overhead(&walls).filter(|_| env.traced) {
        env.report.set("obs.trace_overhead_share", share);
    }

    if job == NytJob::SemiNaive {
        // One LASH run at the same setting: the paper's Fig. 4(a) ratio,
        // and the two jobs must agree.
        let (lash_patterns, lash_facts) = lash_rep(env, &setup.dir, &p)?;
        let (got, want) = (pattern_digest(&patterns), pattern_digest(&lash_patterns));
        env.report.check(got == want, || {
            format!("the semi-naive job mined {got:?}, LASH {want:?}")
        });
        let semi = env.report.get("mine_wall_s").expect("set above");
        env.report
            .set("core.speedup_vs_seminaive", semi / lash_facts.wall_s);
    }

    let mut daemon = daemon.expect("published at least once");
    let mix = mix::build(&patterns, env.seed);
    serve_and_probe(env, &mut daemon, &mix, &serving::tail())?;
    daemon.server.shutdown();

    check_sample_against_naive(env, &setup.vocab, &setup.db, p.gamma)?;
    if env.traced {
        probes::store_and_encoding(env, &setup.dir)?;
    }
    Ok(())
}

fn report_publish(report: &mut Report, published: &[PublishFacts], patterns: usize) {
    let med = |f: fn(&PublishFacts) -> f64| median(&published.iter().map(f).collect::<Vec<_>>());
    let last = published.last().expect("published at least once");
    report.set("index.sort_s", med(|p| p.sort_s));
    report.set("index.build_s", med(|p| p.build_s));
    report.set("index.open_s", med(|p| p.open_s));
    report.set("index.swap_s", med(|p| p.swap_s));
    report.set("index.bytes", last.index_bytes as f64);
    report.set("index.nodes", last.nodes as f64);
    report.set(
        "index_bytes_per_pattern",
        last.index_bytes as f64 / patterns as f64,
    );
}

/// `peak_rss_mib`, read as a workload's own measured loop ends: whatever
/// the output checks, the naive sample mine and the probes allocate after
/// that cannot set the high-water mark.
fn record_peak_rss(env: &mut Env) {
    env.report.set("peak_rss_mib", host::peak_rss_mib());
}

/// The serving load on the live snapshot, every reply checked against the
/// mined set. Returns the expected reply of every pooled query.
fn serve(
    env: &mut Env,
    daemon: &Daemon,
    mix: &Mix,
    steps: &[(u64, f64)],
) -> Result<Vec<QueryReply>, Failure> {
    let (expected, contradicted) = mix.expected_on(&daemon.service.snapshot());
    let from_mined = mix.from_mined.iter().flatten().count() as u64;
    env.report.count(from_mined, contradicted, || {
        "answers of the served index contradict the mined set".into()
    });
    serving::serve_phase(env, daemon.addr, mix, &expected, steps)?;
    Ok(expected)
}

/// [`serve`], then the traced probes of index and serve.
fn serve_and_probe(
    env: &mut Env,
    daemon: &mut Daemon,
    mix: &Mix,
    steps: &[(u64, f64)],
) -> Result<(), Failure> {
    let expected = serve(env, daemon, mix, steps)?;
    if env.traced {
        serving::serve_probes(env, daemon, mix, &expected)?;
    }
    Ok(())
}

// ----------------------------------------------------------- amzn workloads

struct AmznSetup {
    vocab: Vocabulary,
    /// Seed sessions first, then the ingest batches.
    db: SequenceDatabase,
    corpus_dir: PathBuf,
    index_root: PathBuf,
    lifecycle: Lifecycle,
    daemon: Daemon,
    store: StoreFacts,
    /// The bootstrap mine, read from the registry.
    bootstrap: MineFacts,
    index_build_s: f64,
    /// Bootstrap start to the first wire reply.
    to_first_reply_s: f64,
}

/// Generates `AMZN_SEED_SESSIONS + batches * AMZN_BATCH` sessions and
/// orders them by the seed, writes the first `AMZN_SEED_SESSIONS` as four
/// generations, bootstraps the lifecycle (mine, index) and starts the daemon
/// on it.
fn setup_amzn(env: &mut Env, batches: usize) -> Result<AmznSetup, Failure> {
    let corpus = ProductCorpus::generate(&ProductConfig {
        users: AMZN_SEED_SESSIONS + batches * AMZN_BATCH,
        products: AMZN_PRODUCTS,
        seed: CORPUS_SEED,
        ..ProductConfig::default()
    });
    let (vocab, pool) = corpus.dataset(ProductHierarchy::H8);
    let db = shuffled(&pool, env.seed);
    let corpus_dir = env.fresh_dir("corpus")?;
    let index_root = env.fresh_dir("index")?;
    let store = write_store(&corpus_dir, &vocab, &db, AMZN_SEED_SESSIONS)?;

    let before = ObsSnap::take();
    let started = Instant::now();
    let lifecycle = Lifecycle::bootstrap(
        &corpus_dir,
        &index_root,
        env.lash(),
        params(AMZN_PARAMS),
        &ServeConfig::default(),
    )?;
    let mut daemon = Daemon::start(lifecycle.service(), Some(lifecycle.health()))?;
    daemon.first_reply(&mut env.report)?;
    let to_first_reply_s = started.elapsed().as_secs_f64();
    let delta = ObsSnap::take().since(&before);
    let patterns = daemon.service.snapshot().num_patterns();
    Ok(AmznSetup {
        vocab,
        db,
        corpus_dir,
        index_root,
        lifecycle,
        daemon,
        store,
        bootstrap: MineFacts::from_obs(&delta, patterns),
        index_build_s: delta.span("index.build").as_secs_f64(),
        to_first_reply_s,
    })
}

struct AmznSetups {
    last: AmznSetup,
    bootstraps: Vec<MineFacts>,
    to_first_reply_s: Vec<f64>,
}

fn setups_amzn(env: &mut Env, batches: usize) -> Result<AmznSetups, Failure> {
    let (mut setup_s, mut bootstraps, mut to_first_reply_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut last: Option<AmznSetup> = None;
    for _ in 0..SETUPS {
        if let Some(old) = last.take() {
            old.daemon.server.shutdown();
        }
        let started = Instant::now();
        let s = setup_amzn(env, batches)?;
        setup_s.push(started.elapsed().as_secs_f64());
        bootstraps.push(s.bootstrap.clone());
        to_first_reply_s.push(s.to_first_reply_s);
        last = Some(s);
    }
    env.report.set("setup_s", median(&setup_s));
    Ok(AmznSetups {
        last: last.expect("SETUPS >= 1"),
        bootstraps,
        to_first_reply_s,
    })
}

/// Every pattern of a snapshot, through the index's own enumeration.
fn snapshot_patterns(snapshot: &PatternIndexReader) -> Result<Vec<Pattern>, Failure> {
    Ok(snapshot
        .enumerate(&[], None)?
        .into_iter()
        .map(|(items, frequency)| Pattern { items, frequency })
        .collect())
}

/// Mines the corpus directly, outside the lifecycle, and checks that the
/// live snapshot holds exactly that set. Returns the mined patterns.
fn check_snapshot_against_direct_mine(
    env: &mut Env,
    corpus_dir: &Path,
    snapshot: &PatternIndexReader,
) -> Result<Vec<Pattern>, Failure> {
    let mined = CorpusReader::open(corpus_dir)?.mine(&env.lash(), &params(AMZN_PARAMS))?;
    let (got, want) = (
        pattern_digest(&snapshot_patterns(snapshot)?),
        pattern_digest(mined.patterns()),
    );
    env.report.check(got == want, || {
        format!("the live snapshot holds {got:?}, a direct mine of its corpus {want:?}")
    });
    Ok(mined.patterns().to_vec())
}

fn report_index_of(report: &mut Report, setup: &AmznSetup, build_s: f64) -> Result<(), Failure> {
    let snapshot = setup.daemon.service.snapshot();
    let bytes = host::dir_bytes(&setup.index_root)?;
    report.set("index.build_s", build_s);
    report.set("index.bytes", bytes as f64);
    report.set("index.nodes", snapshot.manifest().num_nodes as f64);
    report.set(
        "index_bytes_per_pattern",
        bytes as f64 / snapshot.num_patterns() as f64,
    );
    Ok(())
}

pub fn run_serve_steady(env: &mut Env) -> Result<(), Failure> {
    let AmznSetups {
        last: mut setup,
        bootstraps,
        to_first_reply_s,
    } = setups_amzn(env, 0)?;
    report_store(&mut env.report, &setup.store, &setup.corpus_dir)?;
    report_mining(&mut env.report, &bootstraps);
    env.report.set("refresh_wall_s", median(&to_first_reply_s));
    report_index_of(&mut env.report, &setup, setup.index_build_s)?;

    // The mix is drawn from what the snapshot enumerates; the direct mine
    // that the enumeration must equal waits until the load is over, so that
    // the memory high-water mark is the daemon's and not the check's.
    let snapshot = setup.daemon.service.snapshot();
    let mix = mix::build(&snapshot_patterns(&snapshot)?, env.seed);
    let expected = serve(env, &setup.daemon, &mix, &serving::staircase())?;
    record_peak_rss(env);
    if env.traced {
        serving::serve_probes(env, &mut setup.daemon, &mix, &expected)?;
    }
    setup.daemon.server.shutdown();

    check_snapshot_against_direct_mine(env, &setup.corpus_dir, &snapshot)?;
    check_sample_against_naive(env, &setup.vocab, &setup.db, AMZN_PARAMS.1)?;
    if env.traced {
        probes::store_and_encoding(env, &setup.corpus_dir)?;
    }
    Ok(())
}

/// Could snapshot `k` have served a request due at `due` and answered at
/// `recv`? Snapshot `k` goes live no earlier than refresh `k` is called and
/// is replaced no later than refresh `k + 1` returns. `called[k]` and
/// `returned[k]` are those times for round `k` (entry 0 is the bootstrap).
pub fn may_have_served(k: usize, due: u64, recv: u64, called: &[u64], returned: &[u64]) -> bool {
    called[k] <= recv && returned.get(k + 1).is_none_or(|&replaced| due <= replaced)
}

pub fn run_amzn_refresh(env: &mut Env) -> Result<(), Failure> {
    let AmznSetups {
        last: mut setup, ..
    } = setups_amzn(env, AMZN_ROUNDS)?;

    // The queries sent beside the refreshes are drawn from the bootstrap
    // snapshot; each reply is checked later against the snapshots that can
    // have served it.
    let mut snapshots = vec![setup.daemon.service.snapshot()];
    let beside_mix = mix::build(&snapshot_patterns(&snapshots[0])?, env.seed);
    let stop = AtomicBool::new(false);
    // Longer than the rounds can take; `stop` ends it.
    let beside_schedule = Schedule::poisson(BESIDE_RATE, 600.0, env.seed);
    let origin = Instant::now();
    let now_ns = || origin.elapsed().as_nanos() as u64;
    let (mut called, mut returned) = (vec![0u64], vec![0u64]);
    let (mut mines, mut refresh_s, mut ingest_s, mut index_build_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut compaction: Option<CompactionStats> = None;
    let mut ingested_items = 0u64;
    let mut seal_s = 0.0;
    let addr = setup.daemon.addr;

    let beside = std::thread::scope(|scope| -> Result<_, Failure> {
        let load = scope.spawn(|| {
            wire::open_loop(
                addr,
                1,
                &beside_schedule,
                &beside_mix.queries,
                0,
                Check::Keep,
                Some(&stop),
                Duration::from_secs(2),
                origin,
            )
        });
        let result = (|| -> Result<(), Failure> {
            for round in 1..=AMZN_ROUNDS {
                env.rec.on = env.traced && traced_rep(round - 1);
                env.rec.run = round as u32;
                let batch_at = AMZN_SEED_SESSIONS + (round - 1) * AMZN_BATCH;
                let batch: Vec<&[lash::ItemId]> = (batch_at..batch_at + AMZN_BATCH)
                    .map(|i| setup.db.get(i))
                    .collect();
                ingested_items += batch.iter().map(|s| s.len() as u64).sum::<u64>();
                let old_top = setup.daemon.first_reply(&mut env.report)?;

                let before = ObsSnap::take();
                let started = Instant::now();
                let root = env.rec.open("round", None);
                let (n, ingest) = env
                    .rec
                    .time("store.ingest", root, || setup.lifecycle.ingest(batch));
                env.report.check(n? == AMZN_BATCH as u64, || {
                    format!("round {round} ingested fewer than {AMZN_BATCH} sessions")
                });
                called.push(now_ns());
                let refresh_span = env.rec.open("serve.refresh", root);
                let stats = setup.lifecycle.refresh()?;
                env.rec.close(refresh_span);
                returned.push(now_ns());
                let (new_top, _) = env.rec.time("serve.first_reply", root, || {
                    setup.daemon.first_reply(&mut env.report)
                });
                env.rec.close(root);
                refresh_s.push(started.elapsed().as_secs_f64());

                // The ingest added sessions, so the most frequent pattern of
                // the old snapshot must read differently over the wire now.
                let new_top = new_top?;
                let reread = setup.daemon.probe.query(&lash::index::Query::Support {
                    items: old_top.items.clone(),
                })?;
                env.report.check(
                    reread != QueryReply::Support(Some(old_top.frequency))
                        && new_top.frequency > old_top.frequency,
                    || format!("round {round}: no changed frequency visible over the wire"),
                );

                let delta = ObsSnap::take().since(&before);
                let compact_s = stats
                    .compaction
                    .as_ref()
                    .map_or(Duration::ZERO, |c| c.elapsed);
                env.rec.add_sequence(
                    refresh_span,
                    &[
                        ("store.compact", compact_s),
                        ("core.mine", delta.span("mine.job")),
                        ("index.build", delta.span("index.build")),
                    ],
                );
                mines.push(MineFacts::from_obs(&delta, stats.patterns));
                ingest_s.push(ingest.as_secs_f64());
                index_build_s.push(delta.span("index.build").as_secs_f64());
                seal_s += delta.span("store.seal").as_secs_f64();
                if let Some(c) = stats.compaction {
                    let total = compaction.get_or_insert_with(CompactionStats::default);
                    total.elapsed += c.elapsed;
                    total.payload_bytes_in += c.payload_bytes_in;
                    total.payload_bytes_out += c.payload_bytes_out;
                    total.throttle_wait += c.throttle_wait;
                }
                snapshots.push(setup.daemon.service.snapshot());
            }
            Ok(())
        })();
        stop.store(true, Ordering::Relaxed);
        let beside = load.join().expect("beside-refresh load panicked")?;
        result.map(|()| beside)
    })?;
    env.rec.on = false;
    record_peak_rss(env);

    let rounds_wall = summarize(&refresh_s);
    let mean = refresh_s.iter().sum::<f64>() / refresh_s.len() as f64;
    eprintln!(
        "  refresh wall: mean {mean:.3}s median {:.3}s min {:.3}s max {:.3}s n={}",
        rounds_wall.median, rounds_wall.min, rounds_wall.max, rounds_wall.n
    );
    env.report.set("refresh_wall_s", mean);
    report_mining(&mut env.report, &mines);
    let store = StoreFacts {
        ingest_s: ingest_s.iter().sum(),
        items: ingested_items,
        seal_s,
        compaction,
    };
    report_store(&mut env.report, &store, &setup.corpus_dir)?;
    report_index_of(&mut env.report, &setup, median(&index_build_s))?;
    if let Some(share) = trace_overhead(&refresh_s).filter(|_| env.traced) {
        env.report.set("obs.trace_overhead_share", share);
    }

    // Beside-refresh replies: each must be what one of the snapshots that
    // can have served it answers.
    let expected: Vec<Vec<QueryReply>> = snapshots
        .iter()
        .map(|s| beside_mix.expected_on(s).0)
        .collect();
    let wrong = beside
        .kept
        .iter()
        .filter(|r| {
            !(0..snapshots.len()).any(|k| {
                may_have_served(k, r.due_ns, r.recv_ns, &called, &returned)
                    && expected[k][r.pool_index] == r.reply
            })
        })
        .count() as u64;
    env.report
        .count(beside.sent as u64, wrong + beside.lost, || {
            format!(
                "beside refresh: {wrong} replies match no snapshot that can have served them, {} unanswered",
                beside.lost
            )
        });
    let mut latency = beside.latency_ns;
    latency.sort_unstable();
    if !latency.is_empty() {
        let within = latency.partition_point(|&l| l <= BESIDE_SLO_NS);
        env.report.set(
            "serve.refresh_slo_share",
            within as f64 / beside.sent as f64,
        );
        env.report.set(
            "serve.beside_refresh_p50_us",
            percentile_sorted(&latency, 50.0) as f64 / 1e3,
        );
        env.report.set(
            "serve.beside_refresh_p99_us",
            percentile_sorted(&latency, 99.0) as f64 / 1e3,
        );
    }

    let last = Arc::clone(snapshots.last().expect("the bootstrap at least"));
    let mined = check_snapshot_against_direct_mine(env, &setup.corpus_dir, &last)?;
    let mix = mix::build(&mined, env.seed);
    serve_and_probe(env, &mut setup.daemon, &mix, &serving::tail())?;
    setup.daemon.server.shutdown();

    check_sample_against_naive(env, &setup.vocab, &setup.db, AMZN_PARAMS.1)?;
    if env.traced {
        probes::store_and_encoding(env, &setup.corpus_dir)?;
    }
    Ok(())
}

/// Checks the spans of a traced run and writes them out.
pub fn finish_trace(env: &mut Env, workload: &str, out_dir: &Path) -> Result<(), Failure> {
    let tiling = trace::check_tiling(env.rec.spans());
    env.report
        .check(tiling.is_ok(), || tiling.clone().unwrap_err());
    let unattributed = trace::uncovered_shares(env.rec.spans(), trace::UNTILED);
    if !unattributed.is_empty() {
        env.report
            .set("serve.refresh_unattributed_share", median(&unattributed));
    }
    env.rec
        .write_jsonl(&out_dir.join(format!("trace-{workload}.jsonl")))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::{may_have_served, trace_overhead};

    #[test]
    fn trace_overhead_pairs_repetitions_so_growth_cancels() {
        // Walls growing by one each repetition, tracing free: U,T,T,U.
        assert_eq!(trace_overhead(&[1.0, 2.0, 3.0, 4.0, 9.0]), Some(0.0));
        // Tracing costs a tenth of every traced repetition.
        let share = trace_overhead(&[1.0, 1.1, 1.1, 1.0]).unwrap();
        assert!((share - 0.1).abs() < 1e-12, "{share}");
        assert_eq!(trace_overhead(&[1.0, 1.0, 1.0]), None);
    }

    #[test]
    fn a_reply_may_come_from_any_snapshot_live_between_due_and_receipt() {
        // Bootstrap at 0; refresh 1 called at 100, returned at 200;
        // refresh 2 called at 300, returned at 400.
        let called = [0, 100, 300];
        let returned = [0, 200, 400];
        let served = |due, recv| -> Vec<usize> {
            (0..3)
                .filter(|&k| may_have_served(k, due, recv, &called, &returned))
                .collect()
        };
        assert_eq!(served(10, 50), vec![0], "before any refresh");
        assert_eq!(served(90, 150), vec![0, 1], "across the first swap");
        assert_eq!(served(210, 250), vec![1], "between refreshes");
        assert_eq!(served(150, 350), vec![0, 1, 2], "a reply that took long");
        assert_eq!(served(410, 450), vec![2], "after the last refresh");
    }
}

//! The LASH partition-and-mine job (paper Alg. 1) and the public driver.
//!
//! Each map task streams one shard of a [`ShardedCorpus`], ranks its
//! sequences on the fly, and routes each sequence `T` to the partition of
//! every frequent item `w ∈ G1(T)`, shipping the rewritten sequence `P_w(T)`
//! (Sec. 4). The combiner aggregates duplicate rewrites into weighted
//! sequences on their encoded bytes; each reduce task assembles its
//! partition and runs the configured local miner, emitting the frequent
//! pivot sequences of that partition as one flat chunk.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::sync::{Mutex, OnceLock};

use lash_encoding::varint;
use lash_mapreduce::{run_job, Combined, Emitter, EngineConfig, Job, JobMetrics, Values};

use crate::context::MiningContext;
use crate::error::{Error, Result};
use crate::flist::FList;
use crate::miner::{BfsMiner, DfsMiner, LocalMiner, MinerStats, NaiveMiner, PsmMiner};
use crate::params::GsmParams;
use crate::pattern::{lexicographic_prefix, Pattern, PatternArena, PatternSet};
use crate::rewrite::{RewriteLevel, RewriteScratch, Rewriter};
use crate::sequence::{Partition, SequenceDatabase, ShardedCorpus};
use crate::vocabulary::{ItemId, Vocabulary};

use super::flist_job::compute_flist_sharded;

/// Publishes one reduce-side mine call to the process-wide registry: the
/// partition's wall time as a `mine.partition` span (parented under the
/// ambient reduce-task span, feeding the `mine.partition_us` histogram)
/// and the miner's work counters under `mine.*`.
fn publish_mine(pivot: u32, stats: &MinerStats, elapsed: std::time::Duration) {
    let obs = lash_obs::global();
    obs.observe_span(
        "mine.partition",
        elapsed,
        &[("pivot", pivot.into()), ("outputs", stats.outputs.into())],
    );
    obs.counter("mine.partitions").inc();
    obs.counter("mine.candidates").add(stats.candidates);
    obs.counter("mine.expansions").add(stats.expansions);
    obs.counter("mine.outputs").add(stats.outputs);
}

/// Which local miner runs in the reduce phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MinerKind {
    /// Exhaustive enumeration (exponential).
    Naive,
    /// Hierarchy-aware SPADE (Sec. 5.1).
    Bfs,
    /// Hierarchy-aware PrefixSpan (Sec. 5.1).
    Dfs,
    /// Pivot sequence miner (Sec. 5.2).
    Psm,
    /// PSM with the right-expansion index (the paper's default).
    #[default]
    PsmIndexed,
}

impl MinerKind {
    /// Instantiates the miner.
    pub fn instantiate(&self) -> Box<dyn LocalMiner> {
        match self {
            MinerKind::Naive => Box::new(NaiveMiner),
            MinerKind::Bfs => Box::new(BfsMiner),
            MinerKind::Dfs => Box::new(DfsMiner),
            MinerKind::Psm => Box::new(PsmMiner::plain()),
            MinerKind::PsmIndexed => Box::new(PsmMiner::indexed()),
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            MinerKind::Naive => "Naive",
            MinerKind::Bfs => "BFS",
            MinerKind::Dfs => "DFS",
            MinerKind::Psm => "PSM",
            MinerKind::PsmIndexed => "PSM+Index",
        }
    }
}

/// Configuration of a LASH run.
#[derive(Debug, Clone)]
pub struct LashConfig {
    /// The MapReduce cluster configuration.
    pub cluster: EngineConfig,
    /// The local miner for the reduce phase.
    pub miner: MinerKind,
    /// How aggressively to rewrite sequences during partitioning (ablation
    /// knob; `Full` is LASH).
    pub rewrite_level: RewriteLevel,
    /// Ignore the item hierarchy (flat mining — MG-FSM mode; Sec. 6.3).
    pub ignore_hierarchy: bool,
}

impl LashConfig {
    /// The paper's default configuration: full rewrites, PSM+Index. The
    /// combiner aggregates duplicate rewrites (Sec. 4.4) whenever
    /// `cluster.use_combiner` is on, as it is by default.
    pub fn new(cluster: EngineConfig) -> Self {
        LashConfig {
            cluster,
            miner: MinerKind::PsmIndexed,
            rewrite_level: RewriteLevel::Full,
            ignore_hierarchy: false,
        }
    }

    /// Sets the local miner.
    pub fn with_miner(mut self, miner: MinerKind) -> Self {
        self.miner = miner;
        self
    }

    /// Sets the rewrite level.
    pub fn with_rewrite_level(mut self, level: RewriteLevel) -> Self {
        self.rewrite_level = level;
        self
    }

    /// Enables or disables hierarchy-aware mining.
    pub fn with_hierarchy(mut self, on: bool) -> Self {
        self.ignore_hierarchy = !on;
        self
    }
}

impl Default for LashConfig {
    /// The paper's defaults on a default cluster (combiner aggregation on,
    /// full rewrites, PSM+Index).
    fn default() -> Self {
        Self::new(EngineConfig::default())
    }
}

/// The LASH driver: preprocessing job + partition-and-mine job, both over
/// the shards of a [`ShardedCorpus`]. [`Lash::mine`] is [`Lash::mine_sharded`]
/// over an in-memory database's shards.
///
/// See the crate-level example for usage.
#[derive(Debug, Default)]
pub struct Lash {
    config: LashConfig,
}

impl Lash {
    /// Creates a driver with the given configuration.
    pub fn new(config: LashConfig) -> Self {
        Lash { config }
    }

    /// The effective configuration.
    pub fn config(&self) -> &LashConfig {
        &self.config
    }

    /// Runs the full pipeline on `db` with vocabulary `vocab`: this is
    /// [`Lash::mine_sharded`] over [`SequenceDatabase::shards`] of
    /// `cluster.split_size` sequences, so each map task of either job scans
    /// one split of the database.
    pub fn mine(
        &self,
        db: &SequenceDatabase,
        vocab: &Vocabulary,
        params: &GsmParams,
    ) -> Result<LashResult> {
        self.mine_sharded(
            &db.shards(self.config.cluster.split_size),
            vocab,
            params,
            None,
        )
    }

    /// Runs the full pipeline over any [`ShardedCorpus`] — an in-memory
    /// database's [`SequenceDatabase::shards`] or an on-disk corpus opened
    /// by `lash-store`.
    ///
    /// Both jobs run at shard granularity: each map task streams one shard,
    /// so a multi-shard corpus is scanned by parallel map tasks and is never
    /// materialized in memory as a whole. Sequences are ranked on the fly.
    ///
    /// `flist` may carry a precomputed generalized f-list (e.g. assembled
    /// from the corpus's block headers without decoding any payload); when
    /// `None` — or when the hierarchy is ignored, which invalidates any
    /// hierarchy-closed precomputation — the sharded f-list job runs first.
    pub fn mine_sharded<C: ShardedCorpus>(
        &self,
        corpus: &C,
        vocab: &Vocabulary,
        params: &GsmParams,
        flist: Option<FList>,
    ) -> Result<LashResult> {
        let _job_span = lash_obs::span!(
            "mine.job",
            sigma = params.sigma,
            gamma = params.gamma,
            lambda = params.lambda,
            miner = self.config.miner.name(),
        );
        let stripped;
        let vocab_eff: &Vocabulary = if self.config.ignore_hierarchy {
            stripped = vocab.without_hierarchy();
            &stripped
        } else {
            vocab
        };
        let precomputed = if self.config.ignore_hierarchy {
            None
        } else {
            flist
        };
        let (flist, preprocess_metrics) = match precomputed {
            Some(f) => (f, JobMetrics::default()),
            None => compute_flist_sharded(corpus, vocab_eff, &self.config.cluster)?,
        };
        let ctx = MiningContext::from_flist_only(vocab_eff, flist, params.sigma);
        let (chunks, mine_metrics, miner_stats, num_partitions) =
            LashJob::new(corpus, &ctx, params, &self.config).run(&self.config.cluster)?;
        // Each partition outputs only its own pivot sequences, so the chunks
        // are disjoint: concatenating them, decoded to item ids, is the
        // whole result. Each chunk is freed as soon as it is copied.
        let mut arena = PatternArena::new();
        for chunk in chunks {
            arena.extend_mapped(&chunk, |rank| ctx.order().item(rank));
        }
        Ok(LashResult {
            arena,
            patterns: OnceLock::new(),
            context: ctx,
            preprocess_metrics,
            mine_metrics,
            miner_stats,
            num_partitions,
        })
    }
}

/// Result of a LASH run.
///
/// The mined patterns are held once, in a vocabulary-space
/// [`PatternArena`] in no particular order; the views that need an order
/// sort a permutation of it.
#[derive(Debug)]
pub struct LashResult {
    arena: PatternArena<ItemId>,
    /// [`LashResult::patterns`], built on its first call.
    patterns: OnceLock<Vec<Pattern>>,
    context: MiningContext,
    /// Metrics of the f-list (preprocessing) job.
    pub preprocess_metrics: JobMetrics,
    /// Metrics of the partition-and-mine job.
    pub mine_metrics: JobMetrics,
    /// Aggregated local-miner search-space statistics.
    pub miner_stats: MinerStats,
    /// Number of non-empty partitions mined.
    pub num_partitions: u64,
}

impl LashResult {
    /// The mined patterns in vocabulary space, sorted by descending
    /// frequency with ties broken by ascending items.
    ///
    /// The order is **deterministic**: it is one total sort of the arena
    /// (items are unique), so repeated runs over the same corpus and
    /// parameters — across `mine`/`mine_sharded`, any parallelism, and the
    /// in-memory vs spilled shuffle paths — return the identical `Vec`,
    /// whatever order the reduce tasks finished in.
    ///
    /// The `Vec` is built from [`LashResult::arena`] on the first call and
    /// kept: one owned [`Pattern`] per pattern. Consumers that only stream
    /// the patterns (such as `lash-index`'s `write_patterns`) read the
    /// arena instead and never build it.
    pub fn patterns(&self) -> &[Pattern] {
        self.patterns.get_or_init(|| {
            self.arena
                .order_by_key(
                    |items, frequency| (Reverse(frequency), lexicographic_prefix(items)),
                    <[ItemId]>::cmp,
                )
                .into_iter()
                .map(|i| {
                    let (items, frequency) = self.arena.get(i as usize);
                    Pattern {
                        items: items.to_vec(),
                        frequency,
                    }
                })
                .collect()
        })
    }

    /// The mined patterns in vocabulary space, flat and in no particular
    /// order: the one copy of the result.
    pub fn arena(&self) -> &PatternArena<ItemId> {
        &self.arena
    }

    /// The mined patterns in rank space, built anew on each call (for tests
    /// and experiments that compare against the baselines' output).
    pub fn pattern_set(&self) -> PatternSet {
        let order = self.context.order();
        self.arena
            .iter()
            .map(|(items, frequency)| (items.iter().map(|&i| order.rank(i)).collect(), frequency))
            .collect()
    }

    /// The preprocessing context (f-list, order, rank hierarchy). Sequences
    /// are ranked on the fly in the map phase, so its
    /// [`MiningContext::ranked_db`] is empty.
    pub fn context(&self) -> &MiningContext {
        &self.context
    }

    /// Total wall time across both jobs.
    pub fn total_time(&self) -> std::time::Duration {
        self.preprocess_metrics.total_time + self.mine_metrics.total_time
    }
}

/// The map-side kernel of Alg. 1 with the buffers one `map` call reuses from
/// sequence to sequence: routes a ranked sequence to the partition of every
/// frequent pivot in `G1(T)`, shipping its rewrite.
struct Mapper<'a> {
    rewriter: Rewriter<'a>,
    scratch: RewriteScratch,
    /// The encoded pivot and the encoded weight-1 rewrite of the record
    /// being emitted.
    key: Vec<u8>,
    value: Vec<u8>,
}

impl Mapper<'_> {
    fn map(&mut self, seq: &[u32], emit: &mut Emitter<'_, LashJob<'_>>) {
        let (key, value) = (&mut self.key, &mut self.value);
        self.rewriter
            .rewrite_all(seq, &mut self.scratch, |pivot, rewritten| {
                key.clear();
                super::encode_u32_key(pivot, key);
                value.clear();
                super::encode_weighted_seq(rewritten, 1, value);
                emit.emit(key, value);
            });
    }
}

/// The partition-and-mine MapReduce job (Alg. 1); inputs are shard indices
/// of `corpus`, each streamed and ranked on the fly by one map task.
struct LashJob<'a> {
    corpus: &'a dyn ShardedCorpus,
    /// True when the corpus stores items pre-ranked in exactly this
    /// context's order, making the map phase's per-item rank lookup a
    /// pass-through of the stored bytes.
    ranked_scan: bool,
    scan_error: Mutex<Option<Error>>,
    ctx: &'a MiningContext,
    params: GsmParams,
    rewrite_level: RewriteLevel,
    miner: Box<dyn LocalMiner>,
    stats: Mutex<(MinerStats, u64)>,
}

impl<'a> LashJob<'a> {
    fn new(
        corpus: &'a dyn ShardedCorpus,
        ctx: &'a MiningContext,
        params: &GsmParams,
        config: &LashConfig,
    ) -> Self {
        // A rank-encoded corpus whose sealed order matches this context's
        // order item-for-item lets map tasks consume stored bytes as ranks
        // directly. The orders agree whenever both came from the same
        // corpus-wide f-list (the sort is σ-independent); a mismatch — say a
        // corpus sealed before later generations shifted frequencies — just
        // falls back to ranking on the fly, never to wrong output.
        let ranked_scan = corpus.rank_order().is_some_and(|item_of| {
            item_of.len() == ctx.order().len()
                && item_of
                    .iter()
                    .enumerate()
                    .all(|(rank, &item)| ctx.order().item(rank as u32).as_u32() == item)
        });
        LashJob {
            corpus,
            ranked_scan,
            scan_error: Mutex::new(None),
            ctx,
            params: *params,
            rewrite_level: config.rewrite_level,
            miner: config.miner.instantiate(),
            stats: Mutex::new((MinerStats::default(), 0)),
        }
    }

    /// Runs the job, one map task per shard, and collects the partitions'
    /// rank-space pattern chunks, the job metrics, the summed miner
    /// statistics and the number of partitions mined.
    fn run(
        self,
        cluster: &EngineConfig,
    ) -> Result<(Vec<PatternArena>, JobMetrics, MinerStats, u64)> {
        let inputs: Vec<u32> = (0..self.corpus.num_shards() as u32).collect();
        // One shard per map task (see compute_flist_sharded for rationale).
        let cluster = {
            let mut c = cluster.clone();
            c.split_size = 1;
            c
        };
        let result = run_job(&self, &inputs, &cluster).map_err(|e| Error::Engine(e.to_string()))?;
        if let Some(e) = self.scan_error.into_inner().expect("scan error lock") {
            return Err(e);
        }
        let (miner_stats, partitions) = self.stats.into_inner().expect("stats lock");
        Ok((result.outputs, result.metrics, miner_stats, partitions))
    }
}

impl Job for LashJob<'_> {
    type Input = u32;
    /// The frequent pivot sequences of one partition.
    type Output = PatternArena;

    fn map(&self, &shard: &u32, emit: &mut Emitter<'_, Self>) {
        let ctx = self.ctx;
        let mut mapper = Mapper {
            rewriter: Rewriter::with_level(ctx.space(), &self.params, self.rewrite_level),
            scratch: RewriteScratch::default(),
            key: Vec::new(),
            value: Vec::new(),
        };
        let mut ranked = Vec::new();
        // A sequence with no frequent item in its G1 closure emits nothing,
        // so the corpus may skip whole blocks whose sketch proves exactly
        // that (long-tail shards never even decode them).
        let frequent =
            move |item: crate::vocabulary::ItemId| ctx.space().is_frequent(ctx.order().rank(item));
        let result = if self.ranked_scan {
            // Rank-encoded corpus in this exact order: the stored items
            // *are* the ranks — no per-item re-encoding.
            self.corpus
                .scan_shard_ranked(shard as usize, &frequent, &mut |_, seq| {
                    ranked.clear();
                    ranked.extend(seq.iter().map(|r| r.as_u32()));
                    mapper.map(&ranked, emit);
                })
        } else {
            self.corpus
                .scan_shard_pruned(shard as usize, &frequent, &mut |_, seq| {
                    ranked.clear();
                    ranked.extend(seq.iter().map(|&it| ctx.order().rank(it)));
                    mapper.map(&ranked, emit);
                })
        };
        if let Err(e) = result {
            self.scan_error
                .lock()
                .expect("scan error lock")
                .get_or_insert(e);
        }
    }

    /// Sums the weights of equal rewrites. The sequence encoding is
    /// canonical, so byte-equal sequences are equal: sorting on the
    /// sequence bytes makes equal rewrites adjacent, and a rewrite seen
    /// once passes through untouched.
    fn combine(&self, _pivot: &[u8], values: &mut [&[u8]], out: &mut Combined<'_>) {
        fn seq(value: &[u8]) -> &[u8] {
            super::split_weighted_seq(value).1
        }
        values.sort_unstable_by(|a, b| seq(a).cmp(seq(b)));
        for equal in values.chunk_by(|a, b| seq(a) == seq(b)) {
            if let [only] = equal {
                out.push(only);
                continue;
            }
            let weight = equal.iter().map(|v| super::split_weighted_seq(v).0).sum();
            out.push_with(|buf| {
                varint::encode_u64(weight, buf);
                buf.extend_from_slice(seq(equal[0]));
            });
        }
    }

    fn reduce(&self, pivot: &[u8], values: &mut Values<'_, '_>, out: &mut Vec<PatternArena>) {
        let pivot = super::decode_u32_key(pivot);
        // The local miners need the whole partition, so the value stream is
        // aggregated here — one partition resident per reduce task, which is
        // exactly the bound the paper's reduce phase has.
        let partition = assemble_partition(values);
        let mine_started = std::time::Instant::now();
        let stats = SINK.with_borrow_mut(|sink| {
            sink.clear();
            let stats = self
                .miner
                .mine(&partition, pivot, self.ctx.space(), &self.params, sink);
            // An exact-sized copy: the chunk's buffers do not keep the
            // sink's growth slack alive until the job ends.
            if !sink.is_empty() {
                out.push(sink.clone());
            }
            stats
        });
        publish_mine(pivot, &stats, mine_started.elapsed());
        {
            let mut guard = self.stats.lock().expect("stats lock");
            guard.0.absorb(stats);
            guard.1 += 1;
        }
    }
}

thread_local! {
    /// The sink each reduce thread mines into, reused from partition to
    /// partition.
    static SINK: RefCell<PatternArena> = RefCell::new(PatternArena::new());
}

/// Builds a pivot's partition from its `(weight, sequence)` value stream,
/// aggregating on the encoded bytes: each value's sequence bytes are copied
/// once into an arena, sorted, equal sequences' weights summed, and each
/// distinct sequence decoded once, straight into the partition's CSR arena.
/// The stream is a concatenation of runs the combiner already sorted, so
/// the stable merge sort runs in about linear time. The partition comes out
/// in encoded-byte order.
fn assemble_partition(values: &mut Values<'_, '_>) -> Partition {
    let mut arena: Vec<u8> = Vec::new();
    // (start, end) of each value's sequence bytes in `arena`, and its weight.
    let mut staged: Vec<(u32, u32, u64)> = Vec::new();
    while let Some(value) = values.next() {
        let (weight, seq) = super::split_weighted_seq(value);
        let start = arena.len() as u32;
        arena.extend_from_slice(seq);
        let end = u32::try_from(arena.len()).expect("partition bytes exceed u32 offsets");
        staged.push((start, end, weight));
    }
    let bytes = |&(start, end, _): &(u32, u32, u64)| &arena[start as usize..end as usize];
    staged.sort_by(|a, b| bytes(a).cmp(bytes(b)));
    let mut partition = Partition::new();
    for equal in staged.chunk_by(|a, b| bytes(a) == bytes(b)) {
        let weight = equal.iter().map(|s| s.2).sum();
        partition
            .push_encoded(bytes(&equal[0]), weight)
            .expect("valid sequence");
    }
    partition
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{by_item_ids, fig1, fig2_context, named_patterns, oracle_patterns};
    use lash_mapreduce::{FailurePlan, Phase};

    /// The paper's full GSM output for the running example (Sec. 2).
    fn paper_output() -> PatternSet {
        let ctx = fig2_context();
        named_patterns(
            &ctx,
            &[
                ("a a", 2),
                ("a b1", 2),
                ("b1 a", 2),
                ("a B", 3),
                ("B a", 2),
                ("a B c", 2),
                ("B c", 2),
                ("a c", 2),
                ("b1 D", 2),
                ("B D", 2),
            ],
        )
    }

    #[test]
    fn end_to_end_reproduces_paper_output() {
        let (vocab, db) = fig1();
        let params = GsmParams::new(2, 1, 3).unwrap();
        let lash = Lash::new(LashConfig::new(EngineConfig::default().with_split_size(2)));
        let result = lash.mine(&db, &vocab, &params).unwrap();
        let want = paper_output();
        assert_eq!(
            result.pattern_set(),
            want,
            "diff: {:?}",
            result.pattern_set().diff(&want)
        );
        // Five partitions are mined (P_a, P_B, P_b1, P_c, P_D).
        assert_eq!(result.num_partitions, 5);
        assert!(result.miner_stats.outputs >= 10);
        // Patterns are sorted by descending frequency.
        let freqs: Vec<u64> = result.patterns().iter().map(|p| p.frequency).collect();
        assert!(freqs.windows(2).all(|w| w[0] >= w[1]));
        // Decoding round-trips through names.
        let ab = result.patterns().iter().find(|p| p.frequency == 3).unwrap();
        assert_eq!(ab.to_names(&vocab), ["a", "B"]);
    }

    #[test]
    fn all_miners_agree_end_to_end() {
        let (vocab, db) = fig1();
        let params = GsmParams::new(2, 1, 3).unwrap();
        let want = paper_output();
        for miner in [
            MinerKind::Naive,
            MinerKind::Bfs,
            MinerKind::Dfs,
            MinerKind::Psm,
            MinerKind::PsmIndexed,
        ] {
            let lash = Lash::new(
                LashConfig::new(EngineConfig::default().with_split_size(3)).with_miner(miner),
            );
            let result = lash.mine(&db, &vocab, &params).unwrap();
            assert_eq!(result.pattern_set(), want, "miner {}", miner.name());
        }
    }

    #[test]
    fn all_rewrite_levels_agree_end_to_end() {
        let (vocab, db) = fig1();
        let params = GsmParams::new(2, 1, 3).unwrap();
        let want = paper_output();
        for level in [
            RewriteLevel::None,
            RewriteLevel::GeneralizeOnly,
            RewriteLevel::Full,
        ] {
            let lash = Lash::new(
                LashConfig::new(EngineConfig::default().with_split_size(2))
                    .with_rewrite_level(level),
            );
            let result = lash.mine(&db, &vocab, &params).unwrap();
            assert_eq!(result.pattern_set(), want, "level {level:?}");
        }
    }

    #[test]
    fn full_rewrites_shrink_the_shuffle() {
        let (vocab, db) = fig1();
        let params = GsmParams::new(2, 1, 3).unwrap();
        let cluster = EngineConfig::default().with_split_size(2);
        let bytes = |level: RewriteLevel| {
            Lash::new(LashConfig::new(cluster.clone()).with_rewrite_level(level))
                .mine(&db, &vocab, &params)
                .unwrap()
                .mine_metrics
                .counters
                .map_output_bytes
        };
        let none = bytes(RewriteLevel::None);
        let full = bytes(RewriteLevel::Full);
        assert!(full < none, "full {full} vs none {none}");
    }

    #[test]
    fn aggregation_toggle_preserves_output() {
        let (vocab, db) = fig1();
        let params = GsmParams::new(2, 1, 3).unwrap();
        let cluster = EngineConfig::default().with_split_size(6);
        let with_agg = Lash::new(LashConfig::new(cluster.clone().with_combiner(true)))
            .mine(&db, &vocab, &params)
            .unwrap();
        let without = Lash::new(LashConfig::new(cluster.with_combiner(false)))
            .mine(&db, &vocab, &params)
            .unwrap();
        assert_eq!(with_agg.pattern_set(), without.pattern_set());
        // With all six sequences in one split, P_B's duplicate "aB" rewrites
        // aggregate: fewer shuffled records.
        assert!(
            with_agg.mine_metrics.counters.map_output_materialized_bytes
                <= without.mine_metrics.counters.map_output_materialized_bytes
        );
    }

    #[test]
    fn parallelism_does_not_change_results() {
        let (vocab, db) = fig1();
        let params = GsmParams::new(2, 1, 3).unwrap();
        let want = paper_output();
        for par in [1, 2, 8] {
            let lash = Lash::new(LashConfig::new(
                EngineConfig::default()
                    .with_parallelism(par)
                    .with_split_size(1)
                    .with_reduce_tasks(par * 2),
            ));
            let result = lash.mine(&db, &vocab, &params).unwrap();
            assert_eq!(result.pattern_set(), want, "parallelism {par}");
        }
    }

    #[test]
    fn survives_task_failures() {
        let (vocab, db) = fig1();
        let params = GsmParams::new(2, 1, 3).unwrap();
        let plan = FailurePlan::none()
            .fail_once(Phase::Map, 0)
            .fail_n_times(Phase::Reduce, 1, 2);
        let lash = Lash::new(LashConfig::new(
            EngineConfig::default()
                .with_split_size(2)
                .with_reduce_tasks(4)
                .with_failures(plan),
        ));
        let result = lash.mine(&db, &vocab, &params).unwrap();
        assert_eq!(result.pattern_set(), paper_output());
        // Failures occurred in both jobs' phases... at least in the mine job.
        let c = &result.mine_metrics.counters;
        assert_eq!(
            c.failed_map_tasks + result.preprocess_metrics.counters.failed_map_tasks,
            2
        );
    }

    #[test]
    fn sigma_one_mines_everything_consistently() {
        let (vocab, db) = fig1();
        let params = GsmParams::new(1, 0, 2).unwrap();
        let lash = Lash::new(LashConfig::new(EngineConfig::default().with_split_size(2)));
        let result = lash.mine(&db, &vocab, &params).unwrap();
        assert_eq!(
            by_item_ids(result.context(), &result.pattern_set()),
            oracle_patterns(&vocab, &db, &params)
        );
    }

    #[test]
    fn lash_agrees_with_naive_and_semi_naive_baselines() {
        let (vocab, db) = fig1();
        let cluster = EngineConfig::default().with_split_size(2);
        for (sigma, gamma, lambda) in [(2, 1, 3), (2, 0, 3), (3, 1, 4), (2, 2, 2)] {
            let params = GsmParams::new(sigma, gamma, lambda).unwrap();
            let want = oracle_patterns(&vocab, &db, &params);
            let lash = Lash::new(LashConfig::new(cluster.clone()))
                .mine(&db, &vocab, &params)
                .unwrap();
            let ctx = MiningContext::build(&db, &vocab, sigma);
            let (naive, _) = super::super::naive_job::run_naive(&ctx, &params, &cluster).unwrap();
            let (semi, _) =
                super::super::semi_naive_job::run_semi_naive(&ctx, &params, &cluster).unwrap();
            for (name, ctx, got) in [
                ("LASH", lash.context(), &lash.pattern_set()),
                ("naive", &ctx, &naive),
                ("semi-naive", &ctx, &semi),
            ] {
                assert_eq!(
                    by_item_ids(ctx, got),
                    want,
                    "{name} σ={sigma} γ={gamma} λ={lambda}"
                );
            }
        }
    }

    #[test]
    fn empty_database_mines_nothing() {
        let (vocab, _) = fig1();
        let params = GsmParams::new(1, 1, 3).unwrap();
        let result = Lash::default()
            .mine(&SequenceDatabase::new(), &vocab, &params)
            .unwrap();
        assert!(result.patterns().is_empty());
        assert_eq!(result.num_partitions, 0);
        assert_eq!(result.preprocess_metrics.counters.map_input_records, 0);
    }

    #[test]
    fn high_sigma_yields_empty_output() {
        let (vocab, db) = fig1();
        let params = GsmParams::new(100, 1, 3).unwrap();
        let result = Lash::default().mine(&db, &vocab, &params).unwrap();
        assert!(result.pattern_set().is_empty());
        assert_eq!(result.num_partitions, 0);
    }

    #[test]
    fn sharded_pipeline_matches_sequence_granularity() {
        let (vocab, db) = fig1();
        let params = GsmParams::new(2, 1, 3).unwrap();
        // A precomputed f-list short-circuits preprocessing entirely.
        let flist = crate::flist::FList::compute(&db, &vocab);
        let result = Lash::default()
            .mine_sharded(&db.shards(4), &vocab, &params, Some(flist))
            .unwrap();
        assert_eq!(result.pattern_set(), paper_output());
        assert_eq!(result.num_partitions, 5);
        assert_eq!(result.preprocess_metrics.counters.map_input_records, 0);
        assert_eq!(result.mine_metrics.counters.map_input_records, 2);
    }

    #[test]
    fn sharded_pipeline_ignores_stale_flist_without_hierarchy() {
        let (vocab, db) = fig1();
        let params = GsmParams::new(2, 1, 3).unwrap();
        // A hierarchy-closed f-list must not leak into flat mining.
        let closed = crate::flist::FList::compute(&db, &vocab);
        let flat = Lash::new(LashConfig::default().with_hierarchy(false))
            .mine_sharded(&db.shards(2), &vocab, &params, Some(closed))
            .unwrap();
        let want = Lash::new(LashConfig::default().with_hierarchy(false))
            .mine(&db, &vocab, &params)
            .unwrap();
        assert_eq!(flat.pattern_set(), want.pattern_set());
    }

    #[test]
    fn miner_kind_names() {
        assert_eq!(MinerKind::default().name(), "PSM+Index");
        assert_eq!(MinerKind::Bfs.name(), "BFS");
        assert_eq!(MinerKind::Naive.instantiate().name(), "Naive");
    }
}

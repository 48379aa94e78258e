//! The compaction engine: merges adjacent segment generations into one,
//! bounding the per-shard segment-file count that incremental ingest
//! ([`crate::IncrementalWriter`]) grows without bound.
//!
//! Compaction is **size-tiered**: the planner picks the cheapest window of
//! adjacent generations (adjacency preserves the ascending-sequence-id
//! invariant every shard scan relies on) and the executor stream-merges
//! their blocks — shard by shard, one decoded block at a time, through the
//! same validated mapped-segment cursor every reader scan uses — into one
//! new sealed generation, re-blocking at a fresh payload budget and
//! recomputing G1 sketches. The result is committed with the same
//! manifest-swap protocol as ingest (see [`crate::generations`]); the
//! replaced generations' files are deleted only **after** the swap, so a
//! crash at any point leaves either the old corpus or the new one, never a
//! mix.
//!
//! Compaction rewrites bytes but never changes content: sequence ids and
//! items pass through verbatim, and the executor cross-checks the merged
//! sequence/item counts against the replaced generations before the swap —
//! a merge that would drop or duplicate a sequence aborts with
//! [`StoreError::Corrupt`] and the corpus stays on the old manifest. The
//! merged generation is encoded under the corpus's write-once rank order,
//! like every other generation.

use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::format::{self, GenerationMeta, Manifest};
use crate::generations::{read_manifest, write_manifest};
use crate::reader::{map_shard, ScanSpace, ShardScan};
use crate::writer::SegmentSetWriter;
use crate::{pins, Result, StoreError};

/// Compaction policy knobs.
#[derive(Debug, Clone)]
pub struct CompactionConfig {
    /// The planner triggers only while the corpus holds **more** than this
    /// many generations; compaction then reduces the count back to (at
    /// most) it. Clamped to ≥ 1 — a corpus always keeps one generation.
    pub max_generations: usize,
    /// Maximum generations merged per round. Bounds the number of segment
    /// files a compaction round holds open per shard (one — segments are
    /// chained, not merged head-to-head — but also bounds the round's I/O
    /// and the temp space of the merged output). Clamped to ≥ 2.
    pub fan_in: usize,
    /// Target uncompressed payload bytes per re-written block (compaction
    /// re-blocks; the original write-time budget is not persisted).
    pub block_budget: usize,
    /// Worker threads the round's per-shard merges fan out over; `0` (the
    /// default) uses one per available core, capped at the shard count.
    /// Shards never share an output file, so the merged bytes are
    /// identical at any parallelism.
    pub merge_parallelism: usize,
    /// Byte-budget throttle for a merge round: at most this many
    /// (uncompressed, item-space) bytes are streamed through the merge per
    /// second, shared across all merge workers. `None` (the default) runs
    /// unthrottled. A daemon compacting beside serving traffic sets this so
    /// the round's I/O and decode work cannot starve query threads.
    pub merge_bytes_per_sec: Option<u64>,
}

impl Default for CompactionConfig {
    fn default() -> Self {
        CompactionConfig {
            max_generations: 4,
            fan_in: 8,
            block_budget: lash_encoding::frame::DEFAULT_BLOCK_BYTES,
            merge_parallelism: 0,
            merge_bytes_per_sec: None,
        }
    }
}

impl CompactionConfig {
    /// Sets the generation-count trigger (clamped to ≥ 1).
    pub fn with_max_generations(mut self, n: usize) -> Self {
        self.max_generations = n.max(1);
        self
    }

    /// Sets the per-round merge width (clamped to ≥ 2).
    pub fn with_fan_in(mut self, n: usize) -> Self {
        self.fan_in = n.max(2);
        self
    }

    /// Sets the re-blocking payload budget (clamped to ≥ 1).
    pub fn with_block_budget(mut self, bytes: usize) -> Self {
        self.block_budget = bytes.max(1);
        self
    }

    /// Sets the merge worker-thread count (`0` = one per available core).
    pub fn with_merge_parallelism(mut self, n: usize) -> Self {
        self.merge_parallelism = n;
        self
    }

    /// Sets (or clears) the merge byte-rate budget in bytes per second
    /// (clamped to ≥ 1 byte/s when set).
    pub fn with_merge_rate_limit(mut self, bytes_per_sec: Option<u64>) -> Self {
        self.merge_bytes_per_sec = bytes_per_sec.map(|b| b.max(1));
        self
    }

    /// The effective merge worker count for `num_shards` shards.
    fn effective_parallelism(&self, num_shards: usize) -> usize {
        let auto = std::thread::available_parallelism().map_or(1, |n| n.get());
        let requested = if self.merge_parallelism == 0 {
            auto
        } else {
            self.merge_parallelism
        };
        requested.clamp(1, num_shards.max(1))
    }
}

/// A token-bucket byte throttle shared by a round's merge workers: each
/// worker reports the (uncompressed) bytes it just streamed and sleeps
/// until the round's cumulative rate falls back under the budget. Waits
/// are capped per call so a burst spreads over several short sleeps and
/// the round stays responsive to errors on other workers.
struct MergeThrottle {
    bytes_per_sec: Option<u64>,
    state: Mutex<ThrottleState>,
    waited_us: AtomicU64,
}

struct ThrottleState {
    started: Instant,
    consumed: u64,
}

impl MergeThrottle {
    fn new(bytes_per_sec: Option<u64>) -> Self {
        MergeThrottle {
            bytes_per_sec,
            state: Mutex::new(ThrottleState {
                started: Instant::now(),
                consumed: 0,
            }),
            waited_us: AtomicU64::new(0),
        }
    }

    /// Records `bytes` of merge progress, sleeping when the round is ahead
    /// of its budget.
    fn consume(&self, bytes: u64) {
        let Some(rate) = self.bytes_per_sec else {
            return;
        };
        let wait = {
            let mut state = self.state.lock().expect("throttle lock");
            state.consumed += bytes;
            let budgeted = state.consumed as f64 / rate as f64;
            let elapsed = state.started.elapsed().as_secs_f64();
            Duration::try_from_secs_f64((budgeted - elapsed).max(0.0)).unwrap_or(Duration::ZERO)
        };
        if !wait.is_zero() {
            let capped = wait.min(Duration::from_millis(250));
            self.waited_us
                .fetch_add(capped.as_micros() as u64, Ordering::Relaxed);
            std::thread::sleep(capped);
        }
    }

    /// Total time workers spent sleeping on the budget.
    fn waited(&self) -> Duration {
        Duration::from_micros(self.waited_us.load(Ordering::Relaxed))
    }
}

/// One planned compaction round: a window of adjacent generations to merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionPlan {
    /// Index of the window's first generation in the manifest's list.
    pub start: usize,
    /// Number of generations in the window (≥ 2).
    pub len: usize,
    /// The ids of the generations to merge, in list order — revalidated
    /// against the live manifest before execution, so a stale plan fails
    /// cleanly instead of merging the wrong files.
    pub generation_ids: Vec<u32>,
}

/// What one [`compact`]/[`compact_once`] call did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Merge rounds executed.
    pub rounds: u32,
    /// Generations before the first round.
    pub generations_before: usize,
    /// Generations after the last round.
    pub generations_after: usize,
    /// Generations consumed by merges (a generation produced by one round
    /// and consumed by a later round counts again).
    pub generations_merged: usize,
    /// Sequences streamed through the merge.
    pub sequences_rewritten: u64,
    /// Compressed payload bytes read from the replaced generations.
    pub payload_bytes_in: u64,
    /// Compressed payload bytes written to the merged generations.
    pub payload_bytes_out: u64,
    /// Blocks read from the replaced generations.
    pub blocks_in: u64,
    /// Blocks written to the merged generations.
    pub blocks_out: u64,
    /// Wall-clock time spent merging.
    pub elapsed: Duration,
    /// Cumulative time merge workers slept on the byte-rate budget
    /// ([`CompactionConfig::merge_bytes_per_sec`]); zero when unthrottled.
    pub throttle_wait: Duration,
}

impl CompactionStats {
    fn accumulate(&mut self, other: &CompactionStats) {
        self.rounds += other.rounds;
        self.generations_after = other.generations_after;
        self.generations_merged += other.generations_merged;
        self.sequences_rewritten += other.sequences_rewritten;
        self.payload_bytes_in += other.payload_bytes_in;
        self.payload_bytes_out += other.payload_bytes_out;
        self.blocks_in += other.blocks_in;
        self.blocks_out += other.blocks_out;
        self.elapsed += other.elapsed;
        self.throttle_wait += other.throttle_wait;
    }

    /// Publishes one round's additive totals to the process-wide registry
    /// under `store.compact.*`. The round's wall time is covered by the
    /// `store.compact.round` span that [`execute`] holds open, so only the
    /// counters live here.
    fn publish(&self) {
        let obs = lash_obs::global();
        obs.counter("store.compact.rounds").add(self.rounds as u64);
        obs.counter("store.compact.sequences_rewritten")
            .add(self.sequences_rewritten);
        obs.counter("store.compact.payload_bytes_in")
            .add(self.payload_bytes_in);
        obs.counter("store.compact.payload_bytes_out")
            .add(self.payload_bytes_out);
        obs.counter("store.compact.blocks_in").add(self.blocks_in);
        obs.counter("store.compact.blocks_out").add(self.blocks_out);
        obs.counter("store.compact.throttle_wait_us")
            .add(self.throttle_wait.as_micros() as u64);
    }
}

/// Plans one compaction round, or `None` when the corpus is within its
/// generation budget.
///
/// Size-tiered selection: among all adjacent windows of the width needed to
/// get back under `max_generations` (capped at `fan_in`), pick the one with
/// the smallest total payload — merging the small generations first keeps
/// write amplification low, the same intuition as LSM size-tiering.
pub fn plan(manifest: &Manifest, config: &CompactionConfig) -> Option<CompactionPlan> {
    let n = manifest.generations.len();
    let max = config.max_generations.max(1);
    if n <= max {
        return None;
    }
    // Width that reaches the budget in one round, bounded by the fan-in.
    let width = (n - max + 1).clamp(2, config.fan_in.max(2).min(n));
    let sizes: Vec<u64> = manifest
        .generations
        .iter()
        .map(|g| g.payload_bytes())
        .collect();
    let mut best_start = 0;
    let mut best_size = u64::MAX;
    for start in 0..=(n - width) {
        let size: u64 = sizes[start..start + width].iter().sum();
        if size < best_size {
            best_size = size;
            best_start = start;
        }
    }
    Some(CompactionPlan {
        start: best_start,
        len: width,
        generation_ids: manifest.generations[best_start..best_start + width]
            .iter()
            .map(|g| g.id)
            .collect(),
    })
}

/// Runs at most one compaction round on the corpus at `dir`. Returns
/// `None` when the planner found nothing to do.
pub fn compact_once(
    dir: impl AsRef<Path>,
    config: &CompactionConfig,
) -> Result<Option<CompactionStats>> {
    let dir = dir.as_ref();
    let (manifest, vocab) = read_manifest(dir)?;
    let Some(plan) = plan(&manifest, config) else {
        return Ok(None);
    };
    match execute(dir, &manifest, &vocab, &plan, config) {
        Ok(stats) => Ok(Some(stats)),
        Err(e) => {
            lash_obs::flight::record_error("store.compact", &e.to_string());
            Err(e)
        }
    }
}

/// Runs compaction rounds until the corpus holds at most
/// `config.max_generations` generations. Returns the accumulated stats, or
/// `None` when no round ran.
pub fn compact(
    dir: impl AsRef<Path>,
    config: &CompactionConfig,
) -> Result<Option<CompactionStats>> {
    let dir = dir.as_ref();
    let mut total: Option<CompactionStats> = None;
    while let Some(stats) = compact_once(dir, config)? {
        match &mut total {
            None => {
                total = Some(stats);
            }
            Some(t) => t.accumulate(&stats),
        }
    }
    Ok(total)
}

/// Executes one planned round: stream-merge, seal, swap, delete.
fn execute(
    dir: &Path,
    manifest: &Manifest,
    vocab: &lash_core::vocabulary::Vocabulary,
    plan: &CompactionPlan,
    config: &CompactionConfig,
) -> Result<CompactionStats> {
    let started = Instant::now();
    let n = manifest.generations.len();
    if plan.len < 2 || plan.start + plan.len > n {
        return Err(StoreError::InvalidOptions(
            "compaction plan window out of range",
        ));
    }
    let window = &manifest.generations[plan.start..plan.start + plan.len];
    if window.iter().map(|g| g.id).collect::<Vec<_>>() != plan.generation_ids {
        return Err(StoreError::Corrupt(
            "compaction plan is stale: generation ids moved under it".into(),
        ));
    }
    // One round = one span. Roots its own trace when compaction is the
    // top-level operation; nests when a caller already holds a span.
    let _round_span = lash_obs::span!(
        "store.compact.round",
        generations_merged = plan.len,
        generations_after = n - plan.len + 1,
    );

    let new_id = manifest.next_gen_id;
    let tmp_dir = dir.join(format::generation_tmp_dir_name(new_id));
    if tmp_dir.exists() {
        fs::remove_dir_all(&tmp_dir)?;
    }
    let throttle = MergeThrottle::new(config.merge_bytes_per_sec);
    let merged = merge_window(
        dir, manifest, vocab, window, new_id, &tmp_dir, config, &throttle,
    );
    let merged = match merged {
        Ok(m) => m,
        Err(e) => {
            // The round failed before the swap: discard the staged files,
            // the corpus stays on the old manifest untouched.
            let _ = fs::remove_dir_all(&tmp_dir);
            return Err(e);
        }
    };

    // Rename into place; still unreferenced until the manifest swap.
    let gen_dir = dir.join(format::generation_dir_name(new_id));
    if gen_dir.exists() {
        fs::remove_dir_all(&gen_dir)?;
    }
    fs::rename(&tmp_dir, &gen_dir)?;

    let stats = CompactionStats {
        rounds: 1,
        generations_before: n,
        generations_after: n - plan.len + 1,
        generations_merged: plan.len,
        sequences_rewritten: merged.num_sequences,
        payload_bytes_in: window.iter().map(|g| g.payload_bytes()).sum(),
        payload_bytes_out: merged.payload_bytes(),
        blocks_in: window.iter().map(|g| g.blocks()).sum(),
        blocks_out: merged.blocks(),
        elapsed: started.elapsed(),
        throttle_wait: throttle.waited(),
    };

    // Swap the manifest: the merged generation takes the window's place, so
    // list order still equals sequence-id order.
    let mut new_manifest = manifest.clone();
    new_manifest
        .generations
        .splice(plan.start..plan.start + plan.len, [merged]);
    new_manifest.next_gen_id = new_id + 1;
    new_manifest.shards = Manifest::aggregate_shards(
        &new_manifest.generations,
        new_manifest.partitioning.num_shards() as usize,
    );
    write_manifest(dir, &new_manifest, vocab)?;

    // Only now — after the commit point — release the replaced generations.
    // A generation pinned by a live reader (a serving snapshot mid-query, a
    // miner mid-scan) is not deleted here: it is marked doomed and the last
    // reader to unpin it performs the delete, so snapshots stay
    // byte-readable across the swap. Unpinned generations are deleted
    // immediately, best effort — the compaction is already committed, so a
    // deletion hiccup must not be reported as a failure.
    for id in &plan.generation_ids {
        pins::release_or_defer(dir, *id);
    }
    stats.publish();
    Ok(stats)
}

/// Streams every sequence of `window` (generation order within each shard)
/// into a new segment set at `tmp_dir`, verifying no sequence was dropped
/// or duplicated. Shards are merged in parallel across
/// [`CompactionConfig::merge_parallelism`] workers — each shard owns its
/// output file, so the merged bytes are identical to a sequential merge —
/// and every worker reports decoded bytes to the shared `throttle`.
/// Returns the merged generation's metadata.
#[allow(clippy::too_many_arguments)]
fn merge_window(
    dir: &Path,
    manifest: &Manifest,
    vocab: &lash_core::vocabulary::Vocabulary,
    window: &[GenerationMeta],
    new_id: u32,
    tmp_dir: &Path,
    config: &CompactionConfig,
    throttle: &MergeThrottle,
) -> Result<GenerationMeta> {
    let num_shards = manifest.partitioning.num_shards();
    let mut segments = SegmentSetWriter::create(
        tmp_dir,
        num_shards,
        config.block_budget,
        manifest.sketches,
        Arc::clone(&manifest.rank_order),
    )?;
    let parallelism = config.effective_parallelism(num_shards as usize);
    segments.par_shards(parallelism, |shard, out| {
        // The merge reads and re-appends id-space items: `append` re-ranks
        // them itself, so the scan stays in item space.
        let mut scan = ShardScan::new(
            map_shard(dir, window, shard)?,
            Arc::clone(&manifest.rank_order),
            vocab.len() as u32,
            None,
            ScanSpace::Items,
        );
        while let Some(batch) = scan.next_batch()? {
            // Budget on the batch's decoded item footprint — a
            // codec-independent proxy for the round's read+decode work.
            throttle.consume((batch.arena().len() * 4) as u64);
            for (id, items) in batch.iter() {
                out.append(id, items, vocab)?;
            }
        }
        Ok(())
    })?;
    let expected_sequences: u64 = window.iter().map(|g| g.num_sequences).sum();
    let expected_items: u64 = window.iter().map(|g| g.total_items).sum();
    if segments.sequences() != expected_sequences || segments.total_items() != expected_items {
        return Err(StoreError::Corrupt(format!(
            "compaction would rewrite {} sequences / {} items, replaced generations hold {} / {}",
            segments.sequences(),
            segments.total_items(),
            expected_sequences,
            expected_items
        )));
    }
    let num_sequences = segments.sequences();
    let total_items = segments.total_items();
    let shards = segments.finish()?;
    Ok(GenerationMeta {
        id: new_id,
        num_sequences,
        total_items,
        shards,
    })
}

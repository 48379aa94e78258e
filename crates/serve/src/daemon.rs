//! The daemon's refresh half: one [`Lifecycle`] owns a corpus directory
//! and an index root, and drives ingest → seal → compact → mine → index →
//! [`QueryService::swap`] rounds while the [`crate::Server`] answers
//! queries against whatever snapshot is current.
//!
//! The interlock with the store layer is what makes this safe to run
//! *beside* serving:
//!
//! - Compaction is **snapshot-safe**: any `CorpusReader` opened by a miner
//!   (or anyone else) pins its generation set; compaction defers deleting
//!   replaced directories until the last pin drops.
//! - Compaction is **rate-limited**: the round's merge I/O is capped at
//!   [`crate::ServeConfig::compaction_bytes_per_sec`], so a background
//!   merge cannot starve the serving threads.
//! - Index swap is **atomic**: in-flight batches finish on the snapshot
//!   they started with; the replaced index directory is deleted
//!   immediately (a [`lash_index::PatternIndexReader`] loads fully into
//!   memory at open, so live snapshots never touch its files again).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use lash_core::{GsmParams, ItemId, Lash};
use lash_index::{PatternIndexReader, QueryService};
use lash_store::compact::{self, CompactionConfig, CompactionStats};
use lash_store::{CorpusReader, IncrementalWriter};

use crate::ops::{HealthState, Phase};
use crate::{Result, ServeConfig};

/// What one [`Lifecycle::refresh`] round did.
#[derive(Debug, Clone, Default)]
pub struct RefreshStats {
    /// The round number (bootstrap is round 0).
    pub round: u64,
    /// Sequences in the corpus snapshot that was mined.
    pub sequences: u64,
    /// Patterns mined and indexed.
    pub patterns: u64,
    /// What compaction did this round, when it ran.
    pub compaction: Option<CompactionStats>,
}

/// Drives the ingest → compact → mine → index → swap loop for one corpus.
pub struct Lifecycle {
    corpus_dir: PathBuf,
    index_root: PathBuf,
    service: Arc<QueryService>,
    lash: Lash,
    params: GsmParams,
    compaction: CompactionConfig,
    round: u64,
    live_index: PathBuf,
    health: Arc<HealthState>,
}

impl Lifecycle {
    /// Mines the existing corpus at `corpus_dir` once, lays the result out
    /// as `index_root/index-0`, and wraps it in a fresh [`QueryService`].
    pub fn bootstrap(
        corpus_dir: impl AsRef<Path>,
        index_root: impl AsRef<Path>,
        lash: Lash,
        params: GsmParams,
        config: &ServeConfig,
    ) -> Result<Lifecycle> {
        let corpus_dir = corpus_dir.as_ref().to_path_buf();
        let index_root = index_root.as_ref().to_path_buf();
        std::fs::create_dir_all(&index_root)?;
        let compaction =
            CompactionConfig::default().with_merge_rate_limit(config.compaction_bytes_per_sec);
        let health = Arc::new(HealthState::new());
        let (live_index, _, _) =
            mine_and_index(&corpus_dir, &index_root, &lash, &params, 0, &health)?;
        let service = Arc::new(QueryService::new(open_index(&live_index)?));
        health.record_swap(0);
        health.set_phase(Phase::Serving);
        Ok(Lifecycle {
            corpus_dir,
            index_root,
            service,
            lash,
            params,
            compaction,
            round: 0,
            live_index,
            health,
        })
    }

    /// The serving handle — hand this to [`crate::Server::start`]. Swaps
    /// performed by [`Lifecycle::refresh`] are visible to every holder.
    pub fn service(&self) -> Arc<QueryService> {
        Arc::clone(&self.service)
    }

    /// The live health state this lifecycle publishes into — hand this to
    /// [`crate::Server::start_with_health`] so the admin lane's `Health`
    /// reply reports lifecycle phase, snapshot age, and throttle state.
    pub fn health(&self) -> Arc<HealthState> {
        Arc::clone(&self.health)
    }

    /// The corpus directory this lifecycle ingests into.
    pub fn corpus_dir(&self) -> &Path {
        &self.corpus_dir
    }

    /// Appends `sequences` as one sealed generation. Returns how many were
    /// written.
    pub fn ingest<'a>(&mut self, sequences: impl IntoIterator<Item = &'a [ItemId]>) -> Result<u64> {
        self.health.set_phase(Phase::Ingest);
        let result = (|| {
            let mut writer = IncrementalWriter::open(&self.corpus_dir)?;
            let mut appended = 0u64;
            for seq in sequences {
                writer.append(seq)?;
                appended += 1;
            }
            writer.finish()?;
            Ok(appended)
        })();
        self.health.set_phase(Phase::Serving);
        result
    }

    /// One refresh round: compact (rate-limited, snapshot-safe), re-mine,
    /// write the next index generation, swap it live, delete the replaced
    /// index directory.
    pub fn refresh(&mut self) -> Result<RefreshStats> {
        self.round += 1;
        let round = self.round;
        let _span = lash_obs::span!("serve.refresh", round = round);
        self.health.set_round(round);

        self.health.set_phase(Phase::Compact);
        let compaction = compact::compact(&self.corpus_dir, &self.compaction)?;
        if let Some(stats) = &compaction {
            self.health
                .add_throttle_wait_us(stats.throttle_wait.as_micros().min(u64::MAX as u128) as u64);
        }
        let (new_dir, sequences, patterns) = mine_and_index(
            &self.corpus_dir,
            &self.index_root,
            &self.lash,
            &self.params,
            round,
            &self.health,
        )?;
        self.health.set_phase(Phase::Swap);
        let index = open_index(&new_dir)?;
        {
            let _span = lash_obs::span!("index.swap", round = round);
            self.service.swap(index);
        }
        self.health.record_swap(round);
        // The replaced index loaded fully into memory at open: snapshots
        // still serving it never re-read its files, so the directory can
        // go now rather than waiting for the last snapshot to drop.
        let old = std::mem::replace(&mut self.live_index, new_dir);
        let _ = std::fs::remove_dir_all(old);

        lash_obs::global().emit_event(
            "refresh",
            "serve.refresh",
            &[
                ("round", round.into()),
                ("sequences", sequences.into()),
                ("patterns", patterns.into()),
            ],
        );
        self.health.set_phase(Phase::Serving);
        // Each round is one lifecycle "flight": re-arm the recorder so the
        // first error of the *next* round can dump its own context.
        lash_obs::flight::rearm();
        Ok(RefreshStats {
            round,
            sequences,
            patterns,
            compaction,
        })
    }
}

/// Loads the index at `dir` under an `index.open` span.
fn open_index(dir: &Path) -> Result<PatternIndexReader> {
    let _span = lash_obs::span!("index.open");
    Ok(PatternIndexReader::open(dir)?)
}

/// Mines the corpus and writes `index_root/index-<round>` straight from the
/// result's pattern arena, replacing any stale directory of the same name
/// from a crashed earlier run.
fn mine_and_index(
    corpus_dir: &Path,
    index_root: &Path,
    lash: &Lash,
    params: &GsmParams,
    round: u64,
    health: &HealthState,
) -> Result<(PathBuf, u64, u64)> {
    health.set_phase(Phase::Mine);
    let reader = CorpusReader::open(corpus_dir)?;
    health.set_store(reader.num_generations() as u64, reader.len());
    let result = reader.mine(lash, params)?;
    let patterns = result.arena();
    health.set_phase(Phase::Index);
    let dir = index_root.join(format!("index-{round}"));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    lash_index::write_patterns(&dir, reader.vocabulary(), patterns)?;
    Ok((dir, reader.len(), patterns.len() as u64))
}

//! The distributed generalized f-list job (paper Sec. 3.3).
//!
//! Maps over input sequences, emitting `(w', 1)` for every item in `G1(T)` —
//! the distinct items of `T` plus all their ancestors; the combiner and
//! reducer sum counts. A single job of this shape computes `f0(w, D)` for
//! every item.
//!
//! Two input granularities exist: [`compute_flist_distributed`] maps over
//! the sequences of an in-memory database, while [`compute_flist_sharded`]
//! maps over the *shards* of any [`ShardedCorpus`] — each map task streams
//! one shard, so an on-disk corpus is scanned in parallel without loading it.

use std::sync::Mutex;

use lash_mapreduce::{run_job, Combined, Emitter, EngineConfig, Job, JobMetrics, Values};

use crate::enumeration::g1_items;
use crate::error::{Error, Result};
use crate::flist::FList;
use crate::sequence::{SequenceDatabase, ShardedCorpus};
use crate::vocabulary::{ItemId, Vocabulary};

/// The f-list MapReduce job. Inputs are sequence indices into a shared
/// database reference.
pub struct FListJob<'a> {
    db: &'a SequenceDatabase,
    vocab: &'a Vocabulary,
}

impl Job for FListJob<'_> {
    type Input = u32;
    type Key = u32;
    type Value = u64;
    type Output = (u32, u64);

    fn map(&self, &idx: &u32, emit: &mut Emitter<'_, Self>) {
        let mut items = Vec::new();
        g1_items(self.db.get(idx as usize), self.vocab, &mut items);
        for item in items {
            emit.emit(item.as_u32(), 1);
        }
    }

    fn combine(&self, _key: &[u8], values: &mut [&[u8]], out: &mut Combined<'_>) {
        super::combine_counts(values, out);
    }

    fn reduce(&self, key: &[u8], values: &mut Values<'_, '_>, out: &mut Vec<(u32, u64)>) {
        out.push((super::decode_u32_key(key), super::sum_counts(values)));
    }

    fn encode_key(&self, key: &u32, buf: &mut Vec<u8>) {
        super::encode_u32_key(*key, buf);
    }
    fn encode_value(&self, value: &u64, buf: &mut Vec<u8>) {
        super::encode_count(*value, buf);
    }
}

/// Runs the f-list job and assembles the [`FList`].
pub fn compute_flist_distributed(
    db: &SequenceDatabase,
    vocab: &Vocabulary,
    config: &EngineConfig,
) -> Result<(FList, JobMetrics)> {
    let _span = lash_obs::span!("mine.flist", sequences = db.len());
    let job = FListJob { db, vocab };
    let inputs: Vec<u32> = (0..db.len() as u32).collect();
    let result = run_job(&job, &inputs, config).map_err(|e| Error::Engine(e.to_string()))?;
    let flist = FList::from_counts(
        vocab,
        result
            .outputs
            .into_iter()
            .map(|(id, f)| (ItemId::from_u32(id), f)),
    )?;
    Ok((flist, result.metrics))
}

/// The f-list job at shard granularity: one map task per shard of a
/// [`ShardedCorpus`]. The emitted pairs, the combiner, and the reducer are
/// identical to [`FListJob`]; only the scan driving the map side differs.
struct ShardedFListJob<'a, C> {
    corpus: &'a C,
    vocab: &'a Vocabulary,
    scan_error: Mutex<Option<Error>>,
}

impl<C: ShardedCorpus> Job for ShardedFListJob<'_, C> {
    type Input = u32;
    type Key = u32;
    type Value = u64;
    type Output = (u32, u64);

    fn map(&self, &shard: &u32, emit: &mut Emitter<'_, Self>) {
        let mut items = Vec::new();
        let result = self.corpus.scan_shard(shard as usize, &mut |_, seq| {
            g1_items(seq, self.vocab, &mut items);
            for item in &items {
                emit.emit(item.as_u32(), 1);
            }
        });
        if let Err(e) = result {
            self.scan_error
                .lock()
                .expect("scan error lock")
                .get_or_insert(e);
        }
    }

    fn combine(&self, _key: &[u8], values: &mut [&[u8]], out: &mut Combined<'_>) {
        super::combine_counts(values, out);
    }

    fn reduce(&self, key: &[u8], values: &mut Values<'_, '_>, out: &mut Vec<(u32, u64)>) {
        out.push((super::decode_u32_key(key), super::sum_counts(values)));
    }

    fn encode_key(&self, key: &u32, buf: &mut Vec<u8>) {
        super::encode_u32_key(*key, buf);
    }
    fn encode_value(&self, value: &u64, buf: &mut Vec<u8>) {
        super::encode_count(*value, buf);
    }
}

/// Runs the f-list job over a sharded corpus, one map task per shard.
pub fn compute_flist_sharded<C: ShardedCorpus>(
    corpus: &C,
    vocab: &Vocabulary,
    config: &EngineConfig,
) -> Result<(FList, JobMetrics)> {
    let _span = lash_obs::span!("mine.flist", shards = corpus.num_shards());
    let job = ShardedFListJob {
        corpus,
        vocab,
        scan_error: Mutex::new(None),
    };
    let inputs: Vec<u32> = (0..corpus.num_shards() as u32).collect();
    // One shard per map task: splitting shards further is impossible, and
    // grouping them would serialize independent scans.
    let config = {
        let mut c = config.clone();
        c.split_size = 1;
        c
    };
    let result = run_job(&job, &inputs, &config).map_err(|e| Error::Engine(e.to_string()))?;
    if let Some(e) = job.scan_error.into_inner().expect("scan error lock") {
        return Err(e);
    }
    let flist = FList::from_counts(
        vocab,
        result
            .outputs
            .into_iter()
            .map(|(id, f)| (ItemId::from_u32(id), f)),
    )?;
    Ok((flist, result.metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::fig1;

    #[test]
    fn sharded_flist_matches_sequential_on_a_database() {
        let (vocab, db) = fig1();
        let sequential = FList::compute(&db, &vocab);
        let config = EngineConfig::default().with_reduce_tasks(3);
        let (sharded, metrics) = compute_flist_sharded(&db, &vocab, &config).unwrap();
        assert_eq!(sharded, sequential);
        // The whole database is one shard, hence one map input record.
        assert_eq!(metrics.counters.map_input_records, 1);
    }

    #[test]
    fn distributed_flist_matches_sequential() {
        let (vocab, db) = fig1();
        let sequential = FList::compute(&db, &vocab);
        for par in [1, 4] {
            let config = EngineConfig::default()
                .with_parallelism(par)
                .with_split_size(2)
                .with_reduce_tasks(3);
            let (distributed, metrics) = compute_flist_distributed(&db, &vocab, &config).unwrap();
            assert_eq!(distributed, sequential, "parallelism {par}");
            assert_eq!(metrics.counters.map_input_records, 6);
            assert!(metrics.counters.map_output_bytes > 0);
        }
    }

    #[test]
    fn survives_injected_failures() {
        use lash_mapreduce::{FailurePlan, Phase};
        let (vocab, db) = fig1();
        let sequential = FList::compute(&db, &vocab);
        let config = EngineConfig::default()
            .with_split_size(2)
            .with_reduce_tasks(2)
            .with_failures(
                FailurePlan::none()
                    .fail_once(Phase::Map, 1)
                    .fail_once(Phase::Reduce, 0),
            );
        let (distributed, metrics) = compute_flist_distributed(&db, &vocab, &config).unwrap();
        assert_eq!(distributed, sequential);
        assert_eq!(metrics.counters.failed_map_tasks, 1);
        assert_eq!(metrics.counters.failed_reduce_tasks, 1);
    }
}

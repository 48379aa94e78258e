//! The distributed generalized f-list job (paper Sec. 3.3).
//!
//! One map task per shard of a [`ShardedCorpus`] — an on-disk corpus is
//! scanned in parallel without loading it, an in-memory database is cut
//! into split-sized shards by [`crate::SequenceDatabase::shards`]. Each map
//! call counts every item of `G1(T)` — the distinct items of `T` plus all
//! their ancestors — over the sequences of its shard and emits one
//! `(w', count)` record per distinct item (in-mapper combining); the
//! combiner and reducer sum counts. A single job of this shape computes
//! `f0(w, D)` for every item.

use std::sync::Mutex;

use lash_mapreduce::{run_job, Combined, Emitter, EngineConfig, Job, JobMetrics, Values};

use crate::enumeration::g1_items;
use crate::error::{Error, Result};
use crate::flist::FList;
use crate::sequence::ShardedCorpus;
use crate::vocabulary::{ItemId, Vocabulary};

/// The f-list MapReduce job; inputs are shard indices of `corpus`.
struct ShardedFListJob<'a, C> {
    corpus: &'a C,
    vocab: &'a Vocabulary,
    scan_error: Mutex<Option<Error>>,
}

impl<C: ShardedCorpus> Job for ShardedFListJob<'_, C> {
    type Input = u32;
    type Output = (u32, u64);

    /// Counts the shard's G1 items into a dense per-item array, remembering
    /// which items it touched, then emits one record per touched item.
    fn map(&self, &shard: &u32, emit: &mut Emitter<'_, Self>) {
        let mut counts = vec![0u64; self.vocab.len()];
        let mut touched: Vec<ItemId> = Vec::new();
        let mut items = Vec::new();
        let result = self.corpus.scan_shard(shard as usize, &mut |_, seq| {
            g1_items(seq, self.vocab, &mut items);
            for item in &items {
                let count = &mut counts[item.index()];
                if *count == 0 {
                    touched.push(*item);
                }
                *count += 1;
            }
        });
        if let Err(e) = result {
            self.scan_error
                .lock()
                .expect("scan error lock")
                .get_or_insert(e);
        }
        let (mut key, mut value) = (Vec::new(), Vec::new());
        for item in touched {
            key.clear();
            super::encode_u32_key(item.as_u32(), &mut key);
            value.clear();
            super::encode_count(counts[item.index()], &mut value);
            emit.emit(&key, &value);
        }
    }

    fn combine(&self, _key: &[u8], values: &mut [&[u8]], out: &mut Combined<'_>) {
        super::combine_counts(values, out);
    }

    fn reduce(&self, key: &[u8], values: &mut Values<'_, '_>, out: &mut Vec<(u32, u64)>) {
        out.push((super::decode_u32_key(key), super::sum_counts(values)));
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
    use crate::SequenceDatabase;

    /// The number of distinct G1 items of each `shard_size` shard of `db`,
    /// summed: what the map side of the job emits.
    fn distinct_g1_per_shard(db: &SequenceDatabase, vocab: &Vocabulary, shard_size: usize) -> u64 {
        let seqs: Vec<&[ItemId]> = db.iter().collect();
        let mut items = Vec::new();
        seqs.chunks(shard_size)
            .map(|shard| {
                let mut distinct = std::collections::BTreeSet::new();
                for seq in shard {
                    g1_items(seq, vocab, &mut items);
                    distinct.extend(items.iter().copied());
                }
                distinct.len() as u64
            })
            .sum()
    }

    #[test]
    fn distributed_flist_matches_sequential() {
        let (vocab, db) = fig1();
        let sequential = FList::compute(&db, &vocab);
        for shard_size in [1, 2, 4, 6, 7] {
            for par in [1, 4] {
                let config = EngineConfig::default()
                    .with_parallelism(par)
                    .with_reduce_tasks(3);
                let shards = db.shards(shard_size);
                let (distributed, metrics) =
                    compute_flist_sharded(&shards, &vocab, &config).unwrap();
                let at = format!("shard size {shard_size}, parallelism {par}");
                assert_eq!(distributed, sequential, "{at}");
                // One input record per shard, one output record per distinct
                // G1 item of each shard.
                assert_eq!(
                    metrics.counters.map_input_records,
                    db.len().div_ceil(shard_size) as u64,
                    "{at}"
                );
                assert_eq!(
                    metrics.counters.map_output_records,
                    distinct_g1_per_shard(&db, &vocab, shard_size),
                    "{at}"
                );
                assert!(metrics.counters.map_output_bytes > 0);
            }
        }
    }

    #[test]
    fn survives_injected_failures() {
        use lash_mapreduce::{FailurePlan, Phase};
        let (vocab, db) = fig1();
        let sequential = FList::compute(&db, &vocab);
        let config = EngineConfig::default().with_reduce_tasks(2).with_failures(
            FailurePlan::none()
                .fail_once(Phase::Map, 1)
                .fail_once(Phase::Reduce, 0),
        );
        let (distributed, metrics) = compute_flist_sharded(&db.shards(2), &vocab, &config).unwrap();
        assert_eq!(distributed, sequential);
        assert_eq!(metrics.counters.failed_map_tasks, 1);
        assert_eq!(metrics.counters.failed_reduce_tasks, 1);
    }
}

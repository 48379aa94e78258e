//! The push scans of the mining path (`ShardedCorpus::scan_shard`,
//! `scan_shard_pruned`, `scan_shard_ranked` — decoded from memory-mapped
//! segments) must deliver exactly what the pull-style `ShardScan` delivers,
//! an independent engine over a buffered reader: unfiltered, sketch-pruned
//! and rank-space, over one generation and several, down to the final block
//! of a shard and a shard that is a single block.

use lash::datagen::{TextConfig, TextCorpus, TextHierarchy};
use lash::sequence::ShardedCorpus;
use lash::store::{
    BlockHeader, CorpusReader, IncrementalWriter, Partitioning, ShardScan, StoreOptions,
};
use lash::{ItemId, SequenceDatabase, Vocabulary};

type Records = Vec<(u64, Vec<u32>)>;

fn corpus() -> (Vocabulary, SequenceDatabase) {
    TextCorpus::generate(&TextConfig {
        sentences: 400,
        lemmas: 150,
        pos_tags: 10,
        avg_sentence_len: 9.0,
        zipf_exponent: 1.0,
        seed: 42,
    })
    .dataset(TextHierarchy::LP)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lash-pushpull-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn pull(scan: ShardScan<'_>) -> Records {
    scan.map(|record| {
        let (id, items) = record.unwrap();
        (id, items.iter().map(|item| item.as_u32()).collect())
    })
    .collect()
}

fn push(scan: impl FnOnce(&mut dyn FnMut(u64, &[ItemId])) -> lash::Result<()>) -> Records {
    let mut records = Records::new();
    scan(&mut |id, items| records.push((id, items.iter().map(|item| item.as_u32()).collect())))
        .unwrap();
    records
}

/// Compares the three push scans with the pull reference on every shard;
/// returns how many blocks the pruned reference skipped and decoded.
fn assert_push_equals_pull(reader: &CorpusReader) -> (u64, u64) {
    // Prunes some blocks but not all: only the last-interned eighth of the
    // vocabulary is relevant.
    let len = reader.vocabulary().len() as u32;
    let cut = len - len / 8;
    let relevant = move |item: ItemId| item.as_u32() >= cut;
    let keep = move |header: &BlockHeader| {
        header
            .sketch
            .iter()
            .any(|&(item, _)| relevant(ItemId::from_u32(item)))
    };
    let rank_of = reader.rank_order().rank_of();
    let (mut pruned, mut decoded) = (0, 0);
    for shard in 0..reader.num_shards() {
        let all = pull(reader.scan_shard(shard).unwrap());
        assert_eq!(
            push(|f| ShardedCorpus::scan_shard(reader, shard, f)),
            all,
            "shard {shard}: unfiltered"
        );

        let mut reference = reader.scan_shard_filtered(shard, &keep).unwrap();
        let mut kept = Records::new();
        while let Some(batch) = reference.next_batch().unwrap() {
            kept.extend(
                batch
                    .iter()
                    .map(|(id, items)| (id, items.iter().map(|i| i.as_u32()).collect())),
            );
        }
        pruned += reference.blocks_pruned();
        decoded += reference.blocks_decoded();
        assert_eq!(
            push(|f| ShardedCorpus::scan_shard_pruned(reader, shard, &relevant, f)),
            kept,
            "shard {shard}: pruned"
        );

        let ranked: Records = kept
            .iter()
            .map(|(id, items)| (*id, items.iter().map(|&i| rank_of[i as usize]).collect()))
            .collect();
        assert_eq!(
            push(|f| ShardedCorpus::scan_shard_ranked(reader, shard, &relevant, f)),
            ranked,
            "shard {shard}: ranked"
        );
    }
    (pruned, decoded)
}

#[test]
fn push_scans_equal_the_pull_reference_over_many_blocks() {
    let (vocab, db) = corpus();
    let dir = temp_dir("blocks");
    let opts = StoreOptions::default()
        .with_partitioning(Partitioning::hash(1))
        .with_block_budget(256);
    lash::store::convert::write_database(&dir, &vocab, &db, opts).unwrap();
    let reader = CorpusReader::open(&dir).unwrap();
    let (pruned, decoded) = assert_push_equals_pull(&reader);
    assert!(
        pruned > 0 && decoded > 1,
        "the predicate must skip some blocks and keep several ({pruned} / {decoded})"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn push_scans_equal_the_pull_reference_on_one_block_shards() {
    let (vocab, db) = corpus();
    let dir = temp_dir("one-block");
    let opts = StoreOptions::default().with_partitioning(Partitioning::hash(2));
    lash::store::convert::write_database(&dir, &vocab, &db, opts).unwrap();
    let reader = CorpusReader::open(&dir).unwrap();
    assert!(reader.manifest().shards.iter().all(|s| s.blocks == 1));
    assert_push_equals_pull(&reader);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn push_scans_equal_the_pull_reference_across_generations() {
    let (vocab, db) = corpus();
    let dir = temp_dir("generations");
    let opts = StoreOptions::default()
        .with_partitioning(Partitioning::hash(2))
        .with_block_budget(256);
    let first = db.truncated(db.len() / 3);
    lash::store::convert::write_database(&dir, &vocab, &first, opts).unwrap();
    for batch in [db.len() / 3..2 * db.len() / 3, 2 * db.len() / 3..db.len()] {
        let mut incr = IncrementalWriter::open_with_budget(&dir, 256).unwrap();
        for i in batch {
            incr.append(db.get(i)).unwrap();
        }
        incr.finish().unwrap();
    }
    let reader = CorpusReader::open(&dir).unwrap();
    assert_eq!(reader.len(), db.len() as u64);
    assert_push_equals_pull(&reader);
    std::fs::remove_dir_all(&dir).unwrap();
}

//! The store's scans checked against the database the corpus was written
//! from: the union of every shard's records is that database (through the
//! push scan `ShardedCorpus::scan_shard` and the pull `ShardScan` alike),
//! the sketch-pruned scan keeps every sequence whose G1 closure holds a
//! relevant item, and the ranked scan delivers the pruned records in rank
//! space — over many blocks, one-block shards, and several generations.

use std::collections::HashSet;

use lash::datagen::{TextConfig, TextCorpus, TextHierarchy};
use lash::sequence::ShardedCorpus;
use lash::store::{CorpusReader, IncrementalWriter, Partitioning, StoreOptions};
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
    let dir = std::env::temp_dir().join(format!("lash-mapped-scan-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn as_u32(items: &[ItemId]) -> Vec<u32> {
    items.iter().map(|item| item.as_u32()).collect()
}

fn push(scan: impl FnOnce(&mut dyn FnMut(u64, &[ItemId])) -> lash::Result<()>) -> Records {
    let mut records = Records::new();
    scan(&mut |id, items| records.push((id, as_u32(items)))).unwrap();
    records
}

/// True when some item of `seq`, or some ancestor of one, is `relevant`.
fn g1_closure_holds(vocab: &Vocabulary, seq: &[ItemId], relevant: impl Fn(ItemId) -> bool) -> bool {
    seq.iter().any(|&item| {
        let mut cursor = Some(item);
        while let Some(c) = cursor {
            if relevant(c) {
                return true;
            }
            cursor = vocab.parent(c);
        }
        false
    })
}

/// Checks every scan of every shard against `db`; returns how many
/// sequences the pruned scan kept.
fn assert_scans_match_the_database(
    reader: &CorpusReader,
    vocab: &Vocabulary,
    db: &SequenceDatabase,
) -> usize {
    // Prunes some blocks but not all: only the last-interned eighth of the
    // vocabulary is relevant.
    let len = vocab.len() as u32;
    let cut = len - len / 8;
    let relevant = move |item: ItemId| item.as_u32() >= cut;
    let rank_of = reader.rank_order().rank_of();
    let (mut pushed, mut pulled, mut kept) = (Records::new(), Records::new(), Records::new());
    for shard in 0..reader.num_shards() {
        let shard_records = push(|f| ShardedCorpus::scan_shard(reader, shard, f));
        assert!(
            shard_records.windows(2).all(|w| w[0].0 < w[1].0),
            "shard {shard}: ids not ascending"
        );
        pushed.extend(shard_records);
        pulled.extend(reader.scan_shard(shard).unwrap().map(|record| {
            let (id, items) = record.unwrap();
            (id, as_u32(&items))
        }));

        let pruned = push(|f| ShardedCorpus::scan_shard_pruned(reader, shard, &relevant, f));
        let ranked: Records = pruned
            .iter()
            .map(|(id, items)| (*id, items.iter().map(|&i| rank_of[i as usize]).collect()))
            .collect();
        assert_eq!(
            push(|f| ShardedCorpus::scan_shard_ranked(reader, shard, &relevant, f)),
            ranked,
            "shard {shard}: ranked"
        );
        kept.extend(pruned);
    }

    let expected: Records = (0..db.len())
        .map(|i| (i as u64, as_u32(db.get(i))))
        .collect();
    for (scan, mut records) in [("push", pushed), ("pull", pulled)] {
        records.sort_unstable();
        assert_eq!(records, expected, "{scan} scan: union of shards");
    }

    let mut kept_ids = HashSet::new();
    for (id, items) in &kept {
        assert_eq!(
            items, &expected[*id as usize].1,
            "pruned scan: sequence {id}"
        );
        assert!(kept_ids.insert(*id), "pruned scan: sequence {id} twice");
    }
    for i in 0..db.len() {
        if g1_closure_holds(vocab, db.get(i), relevant) {
            assert!(
                kept_ids.contains(&(i as u64)),
                "relevant sequence {i} was pruned"
            );
        }
    }
    kept.len()
}

#[test]
fn scans_equal_the_source_database_over_many_blocks() {
    let (vocab, db) = corpus();
    let dir = temp_dir("blocks");
    let opts = StoreOptions::default()
        .with_partitioning(Partitioning::hash(1))
        .with_block_budget(256);
    lash::store::convert::write_database(&dir, &vocab, &db, opts).unwrap();
    let reader = CorpusReader::open(&dir).unwrap();
    assert!(reader.manifest().shards[0].blocks > 2);
    let kept = assert_scans_match_the_database(&reader, &vocab, &db);
    assert!(
        kept > 0 && kept < db.len(),
        "the predicate must keep some sequences and prune some ({kept} of {})",
        db.len()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn scans_equal_the_source_database_on_one_block_shards() {
    let (vocab, db) = corpus();
    let dir = temp_dir("one-block");
    let opts = StoreOptions::default().with_partitioning(Partitioning::hash(2));
    lash::store::convert::write_database(&dir, &vocab, &db, opts).unwrap();
    let reader = CorpusReader::open(&dir).unwrap();
    assert!(reader.manifest().shards.iter().all(|s| s.blocks == 1));
    assert_scans_match_the_database(&reader, &vocab, &db);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn scans_equal_the_source_database_across_generations() {
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
    assert_scans_match_the_database(&reader, &vocab, &db);
    std::fs::remove_dir_all(&dir).unwrap();
}

//! Regression tests for snapshot-safe compaction: a live [`CorpusReader`]
//! pins the generation set it opened — including its mapped segment cache —
//! and compaction must never unlink a pinned file. Replaced directories are
//! deleted by the **last** pin release, not by the compaction round.
//!
//! Written to hold under every CI env matrix: with `LASH_COMPACT_EVERY=1`
//! the staged generations may already be collapsed at seal time, so the
//! assertions are phrased as set differences between the reader's manifest
//! and the post-compaction manifest rather than absolute generation counts.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use lash_core::{ItemId, SequenceDatabase, ShardedCorpus, Vocabulary, VocabularyBuilder};
use lash_store::compact::{self, CompactionConfig};
use lash_store::{CorpusReader, CorpusWriter, IncrementalWriter, Partitioning, StoreOptions};

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("lash-store-pin-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_vocab() -> (Vocabulary, Vec<ItemId>) {
    let mut vb = VocabularyBuilder::new();
    let b = vb.intern("B");
    let b1 = vb.child("b1", b);
    let b2 = vb.child("b2", b);
    let a = vb.intern("a");
    let c = vb.intern("c");
    (vb.finish().unwrap(), vec![a, b, b1, b2, c])
}

fn sample_db(items: &[ItemId], n: usize) -> SequenceDatabase {
    let mut db = SequenceDatabase::new();
    for i in 0..n {
        let len = 1 + i % 4;
        let seq: Vec<ItemId> = (0..len).map(|j| items[(i + j) % items.len()]).collect();
        db.push(&seq);
    }
    db
}

/// Writes `db` in `k` staged generations (one `CorpusWriter`, then
/// `IncrementalWriter`s).
fn write_in_generations(dir: &Path, vocab: &Vocabulary, db: &SequenceDatabase, k: usize) {
    let opts = StoreOptions::default()
        .with_partitioning(Partitioning::hash(2))
        .with_block_budget(64);
    let per = db.len().div_ceil(k).max(1);
    let mut writer = CorpusWriter::create(dir, vocab, opts).unwrap();
    for i in 0..per.min(db.len()) {
        writer.append(db.get(i)).unwrap();
    }
    writer.finish().unwrap();
    let mut next = per;
    while next < db.len() {
        let mut incr = IncrementalWriter::open(dir).unwrap();
        for i in next..(next + per).min(db.len()) {
            incr.append(db.get(i)).unwrap();
        }
        incr.finish().unwrap();
        next += per;
    }
}

fn generation_ids(reader: &CorpusReader) -> BTreeSet<u32> {
    reader.generations().iter().map(|g| g.id).collect()
}

fn generation_dirs(dir: &Path, ids: &BTreeSet<u32>) -> Vec<PathBuf> {
    ids.iter()
        .map(|id| dir.join(lash_store::format::generation_dir_name(*id)))
        .collect()
}

/// Every sequence of the corpus through the push scan — the path that
/// memory-maps segments — read back in id order.
fn mapped_read_back(reader: &CorpusReader) -> Vec<(u64, Vec<ItemId>)> {
    let mut rows: Vec<(u64, Vec<ItemId>)> = Vec::new();
    for shard in 0..reader.num_shards() {
        ShardedCorpus::scan_shard(reader, shard, &mut |id, items| {
            rows.push((id, items.to_vec()))
        })
        .unwrap();
    }
    rows.sort_by_key(|(id, _)| *id);
    rows
}

#[test]
fn mmap_reader_survives_compaction_replacing_its_generations() {
    let (vocab, items) = small_vocab();
    let db = sample_db(&items, 200);
    let dir = temp_dir("mmap");
    write_in_generations(&dir, &vocab, &db, 5);

    let pinned = CorpusReader::open(&dir).unwrap();
    let pinned_ids = generation_ids(&pinned);
    let pinned_dirs = generation_dirs(&dir, &pinned_ids);
    // Scan once up front through the mmap path: this is the snapshot the
    // reader must still be able to reproduce after compaction.
    let before = mapped_read_back(&pinned);
    assert_eq!(before.len(), db.len());

    // Compact everything down to one generation while the reader is live.
    let config = CompactionConfig::default()
        .with_max_generations(1)
        .with_fan_in(3)
        .with_block_budget(64)
        .with_merge_parallelism(2);
    let stats = compact::compact(&dir, &config).unwrap();
    let after_compact = CorpusReader::open(&dir).unwrap();
    let new_ids = generation_ids(&after_compact);
    let replaced: BTreeSet<u32> = pinned_ids.difference(&new_ids).copied().collect();
    if stats.is_some() {
        assert!(
            !replaced.is_empty(),
            "a round ran, so some generation of the pinned snapshot was replaced"
        );
    }

    // While the original reader is live, every directory of its snapshot —
    // replaced or not — must still exist: compaction defers those deletes.
    for gen_dir in &pinned_dirs {
        assert!(
            gen_dir.exists(),
            "compaction deleted pinned generation dir {gen_dir:?}"
        );
    }
    // And its mapped scans still see the exact same bytes.
    let after = mapped_read_back(&pinned);
    assert_eq!(before, after, "pinned snapshot changed under compaction");

    // The new reader sees the same logical content through the merged set.
    let merged = mapped_read_back(&after_compact);
    assert_eq!(before, merged);

    // The last pin release performs the deferred deletes: replaced dirs go,
    // live ones stay (the new reader pins them, but they are not doomed).
    drop(pinned);
    for id in &replaced {
        let gen_dir = dir.join(lash_store::format::generation_dir_name(*id));
        assert!(
            !gen_dir.exists(),
            "deferred delete of replaced generation {id} never ran"
        );
    }
    for gen_dir in generation_dirs(&dir, &new_ids) {
        assert!(gen_dir.exists(), "live generation dir {gen_dir:?} deleted");
    }
    drop(after_compact);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn two_readers_release_in_either_order() {
    let (vocab, items) = small_vocab();
    let db = sample_db(&items, 120);
    let dir = temp_dir("two-readers");
    write_in_generations(&dir, &vocab, &db, 4);

    let first = CorpusReader::open(&dir).unwrap();
    let second = CorpusReader::open(&dir).unwrap();
    let pinned_ids = generation_ids(&first);
    let config = CompactionConfig::default()
        .with_max_generations(1)
        .with_block_budget(64);
    compact::compact(&dir, &config).unwrap();
    let new_ids = generation_ids(&CorpusReader::open(&dir).unwrap());
    let replaced: BTreeSet<u32> = pinned_ids.difference(&new_ids).copied().collect();

    drop(first);
    // `second` still pins the same snapshot: nothing may be deleted yet.
    for gen_dir in generation_dirs(&dir, &pinned_ids) {
        assert!(gen_dir.exists(), "delete ran with a pin still live");
    }
    assert_eq!(mapped_read_back(&second).len(), db.len());
    drop(second);
    for id in &replaced {
        assert!(!dir
            .join(lash_store::format::generation_dir_name(*id))
            .exists());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

//! Acceptance tests for the generations subsystem: a corpus built as K
//! incremental generations is indistinguishable — bit-exact sequences,
//! identical f-lists, identical mined pattern sets — from a
//! single-generation corpus of the same data, both before and after
//! compaction; compaction verifiably reduces the per-shard segment-file
//! count and never drops or duplicates a sequence id.

use std::sync::atomic::{AtomicU64, Ordering};

use lash_core::flist::FList;
use lash_core::{GsmParams, ItemId, Lash, SequenceDatabase, Vocabulary, VocabularyBuilder};
use lash_datagen::{TextConfig, TextCorpus, TextHierarchy};
use lash_store::compact::{self, CompactionConfig};
use lash_store::{
    CorpusReader, CorpusWriter, IncrementalWriter, Partitioning, StoreError, StoreOptions,
};
use proptest::prelude::*;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("lash-store-gen-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// True when `LASH_COMPACT_EVERY` auto-compacts after every seal (the CI
/// compaction leg): generation-*count* assertions are skipped then — the
/// content assertions, which are the point, always run.
fn env_compacts() -> bool {
    std::env::var_os(lash_store::COMPACT_EVERY_ENV).is_some_and(|v| !v.is_empty())
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
        let len = i % 5;
        let seq: Vec<ItemId> = (0..len).map(|j| items[(i + j) % items.len()]).collect();
        db.push(&seq);
    }
    db
}

/// Writes `db` as `k` generations: the first batch through `CorpusWriter`,
/// the rest through one `IncrementalWriter` each.
fn write_in_generations(
    dir: &std::path::Path,
    vocab: &Vocabulary,
    db: &SequenceDatabase,
    opts: StoreOptions,
    k: usize,
) {
    let k = k.max(1);
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

/// Every sequence of the corpus, read back in id order.
fn read_back(reader: &CorpusReader) -> SequenceDatabase {
    reader.to_database().unwrap()
}

/// Segment files actually on disk for `shard`, by walking the corpus dir.
fn segment_files_of_shard(dir: &std::path::Path, shard: u32) -> usize {
    let name = lash_store::format::shard_file_name(shard);
    let mut count = 0;
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() && path.join(&name).exists() {
            count += 1;
        }
    }
    count
}

/// Names + frequencies: the partitioning/storage-independent view of a
/// mined result.
fn named_patterns(
    result: &lash_core::distributed::lash_job::LashResult,
    vocab: &Vocabulary,
) -> Vec<(Vec<String>, u64)> {
    let mut v: Vec<(Vec<String>, u64)> = result
        .patterns()
        .iter()
        .map(|p| (p.to_names(vocab), p.frequency))
        .collect();
    v.sort();
    v
}

#[test]
fn incremental_ids_continue_and_readers_are_snapshots() {
    let (vocab, items) = small_vocab();
    let dir = temp_dir("snapshot");
    let mut writer = CorpusWriter::create(&dir, &vocab, StoreOptions::default()).unwrap();
    assert_eq!(writer.append(&[items[0]]).unwrap(), 0);
    assert_eq!(writer.append(&[items[1]]).unwrap(), 1);
    writer.finish().unwrap();

    // A reader opened now is pinned to the 2-sequence snapshot…
    let pinned = CorpusReader::open(&dir).unwrap();
    assert_eq!(pinned.len(), 2);

    let mut incr = IncrementalWriter::open(&dir).unwrap();
    assert_eq!(incr.append(&[items[2]]).unwrap(), 2); // ids continue
    assert_eq!(incr.appended(), 1);
    incr.finish().unwrap();

    // …even after the seal: only a re-open observes the new generation.
    assert_eq!(pinned.len(), 2);
    if !env_compacts() {
        // (Under forced auto-compaction the seal also compacted, which
        // deletes the files this pre-seal snapshot points at — the
        // documented limit of snapshot readers.)
        assert_eq!(read_back(&pinned).len(), 2);
    }
    let fresh = CorpusReader::open(&dir).unwrap();
    assert_eq!(fresh.len(), 3);
    if !env_compacts() {
        assert_eq!(fresh.num_generations(), 2);
    }
    let back = read_back(&fresh);
    assert_eq!(back.get(2), &[items[2]]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn empty_or_dropped_incremental_writers_leave_no_trace() {
    let (vocab, items) = small_vocab();
    let dir = temp_dir("no-trace");
    let mut writer = CorpusWriter::create(&dir, &vocab, StoreOptions::default()).unwrap();
    writer.append(&[items[0]]).unwrap();
    let manifest = writer.finish().unwrap();

    // Nothing appended: finish is a no-op, no empty generation is sealed.
    let incr = IncrementalWriter::open(&dir).unwrap();
    let after = incr.finish().unwrap();
    assert_eq!(after, manifest);

    // Appended but dropped: the staged temp directory is discarded.
    {
        let mut incr = IncrementalWriter::open(&dir).unwrap();
        incr.append(&[items[1]]).unwrap();
        // no finish()
    }
    let entries: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with('.'))
        .collect();
    assert!(entries.is_empty(), "staged leftovers: {entries:?}");
    assert_eq!(CorpusReader::open(&dir).unwrap().len(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn incremental_writer_validates_against_the_stored_vocabulary() {
    let (vocab, items) = small_vocab();
    let dir = temp_dir("vocab-check");
    let mut writer = CorpusWriter::create(&dir, &vocab, StoreOptions::default()).unwrap();
    writer.append(&[items[0]]).unwrap();
    writer.finish().unwrap();
    let mut incr = IncrementalWriter::open(&dir).unwrap();
    match incr.append(&[ItemId::from_u32(999)]) {
        Err(StoreError::UnknownItem(999)) => {}
        other => panic!("expected UnknownItem, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn future_manifest_versions_are_rejected_as_unsupported() {
    use lash_encoding::{frame, varint};
    // Retired versions (1–3) and a future one (99) alike: a well-framed
    // manifest that claims the version and then carries bytes this build
    // cannot know how to parse. Every entry point must name the version,
    // never report corruption or panic.
    for version in [1u32, 2, 3, 99] {
        let dir = temp_dir(&format!("unsupported-version-{version}"));
        std::fs::create_dir_all(&dir).unwrap();
        let mut payload = Vec::new();
        payload.extend_from_slice(lash_store::format::MANIFEST_MAGIC);
        varint::encode_u32(version, &mut payload);
        payload.extend_from_slice(b"fields of another format");
        let mut file = std::fs::File::create(dir.join(lash_store::format::MANIFEST_FILE)).unwrap();
        frame::write_frame(&payload, &mut file).unwrap();
        let compaction = CompactionConfig::default().with_max_generations(1);
        let errors = [
            ("CorpusReader::open", CorpusReader::open(&dir).err()),
            (
                "IncrementalWriter::open",
                IncrementalWriter::open(&dir).err(),
            ),
            (
                "compact::compact",
                compact::compact(&dir, &compaction).err(),
            ),
        ];
        for (entry, err) in errors {
            let Some(err) = err else {
                panic!("{entry}: version {version} was accepted");
            };
            assert!(
                matches!(err, StoreError::UnsupportedVersion { found } if found == version),
                "{entry}: expected UnsupportedVersion {{ found: {version} }}, got {err:?}"
            );
            // The error names both versions, so the operator knows what to do.
            let msg = err.to_string();
            assert!(
                msg.contains(&version.to_string())
                    && msg.contains(&lash_store::FORMAT_VERSION.to_string()),
                "{entry}: {msg}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn compaction_reduces_segment_files_and_preserves_every_id() {
    if env_compacts() {
        // Auto-compaction already collapsed the generations at seal time;
        // the staged-growth scenario below cannot be constructed.
        return;
    }
    let (vocab, items) = small_vocab();
    let db = sample_db(&items, 300);
    let dir = temp_dir("compact");
    let opts = StoreOptions::default()
        .with_partitioning(Partitioning::hash(3))
        .with_block_budget(64);
    let k = 6;
    write_in_generations(&dir, &vocab, &db, opts, k);

    let before = CorpusReader::open(&dir).unwrap();
    assert_eq!(before.num_generations(), k);
    for shard in 0..3 {
        assert_eq!(segment_files_of_shard(&dir, shard), k);
    }
    let flist_before = before.flist().unwrap().unwrap();
    // Release the reader's generation pins: a live reader would defer the
    // replaced directories' deletion and the file-count assertions below
    // would see both the old and the merged segments.
    drop(before);

    let config = CompactionConfig::default()
        .with_max_generations(2)
        .with_fan_in(3)
        .with_block_budget(64);
    let stats = compact::compact(&dir, &config).unwrap().expect("ran");
    assert!(stats.rounds >= 1);
    assert_eq!(stats.generations_before, k);
    assert_eq!(stats.generations_after, 2);
    assert!(stats.sequences_rewritten > 0);
    assert!(stats.blocks_in > 0 && stats.blocks_out > 0);

    let after = CorpusReader::open(&dir).unwrap();
    assert_eq!(after.num_generations(), 2);
    for shard in 0..3 {
        // The per-shard segment-file count shrank with the generation count.
        assert_eq!(segment_files_of_shard(&dir, shard), 2);
    }
    // Every sequence id still present exactly once, bit-exact.
    let back = read_back(&after);
    assert_eq!(back.len(), db.len());
    for i in 0..db.len() {
        assert_eq!(back.get(i), db.get(i), "sequence {i}");
    }
    // The header-only f-list is unchanged: per-generation sketches merged.
    let flist_after = after.flist().unwrap().unwrap();
    for item in vocab.items() {
        assert_eq!(flist_before.frequency(item), flist_after.frequency(item));
    }
    // A second compact under the same budget is a no-op.
    assert!(compact::compact(&dir, &config).unwrap().is_none());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compaction_handles_sketchless_and_empty_shard_corpora() {
    if env_compacts() {
        return;
    }
    let (vocab, items) = small_vocab();
    let db = sample_db(&items, 40);
    let dir = temp_dir("compact-nosketch");
    // Range partitioning leaves the tail shards empty; sketches off.
    let opts = StoreOptions::default()
        .with_partitioning(Partitioning::range(4, 1_000))
        .with_block_budget(32)
        .with_sketches(false);
    write_in_generations(&dir, &vocab, &db, opts, 4);
    let config = CompactionConfig::default().with_max_generations(1);
    let stats = compact::compact(&dir, &config).unwrap().expect("ran");
    assert_eq!(stats.generations_after, 1);
    let after = CorpusReader::open(&dir).unwrap();
    assert!(!after.manifest().sketches);
    let back = read_back(&after);
    for i in 0..db.len() {
        assert_eq!(back.get(i), db.get(i));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mining_is_identical_across_generation_splits_and_compaction() {
    // The headline acceptance: mine a corpus built as one generation, as K
    // generations, and as K generations compacted back down — all three
    // pattern sets must be identical.
    let (vocab, db) = TextCorpus::generate(&TextConfig {
        sentences: 300,
        lemmas: 120,
        pos_tags: 8,
        avg_sentence_len: 8.0,
        zipf_exponent: 1.0,
        seed: 7,
    })
    .dataset(TextHierarchy::LP);
    let params = GsmParams::new(6, 1, 3).unwrap();
    let opts = || StoreOptions::default().with_partitioning(Partitioning::hash(4));

    let single_dir = temp_dir("mine-single");
    write_in_generations(&single_dir, &vocab, &db, opts(), 1);
    let single = CorpusReader::open(&single_dir).unwrap();
    let reference = named_patterns(
        &single.mine(&Lash::default(), &params).unwrap(),
        single.vocabulary(),
    );
    assert!(!reference.is_empty());

    let split_dir = temp_dir("mine-split");
    write_in_generations(&split_dir, &vocab, &db, opts(), 5);
    let split = CorpusReader::open(&split_dir).unwrap();
    assert_eq!(split.len(), db.len() as u64);
    let split_mined = named_patterns(
        &split.mine(&Lash::default(), &params).unwrap(),
        split.vocabulary(),
    );
    assert_eq!(
        split_mined, reference,
        "K-generation corpus mined differently"
    );

    // Header-only f-lists agree too (sketches merge across generations).
    let f_single = single.flist().unwrap().unwrap();
    let f_split = split.flist().unwrap().unwrap();
    let f_memory = FList::compute(&db, &vocab);
    for item in vocab.items() {
        assert_eq!(f_split.frequency(item), f_single.frequency(item));
        assert_eq!(f_split.frequency(item), f_memory.frequency(item));
    }

    // Compact fully and mine again.
    compact::compact(
        &split_dir,
        &CompactionConfig::default().with_max_generations(1),
    )
    .unwrap();
    let compacted = CorpusReader::open(&split_dir).unwrap();
    assert_eq!(compacted.num_generations(), 1);
    let compacted_mined = named_patterns(
        &compacted.mine(&Lash::default(), &params).unwrap(),
        compacted.vocabulary(),
    );
    assert_eq!(compacted_mined, reference, "compaction changed the result");

    std::fs::remove_dir_all(&single_dir).unwrap();
    std::fs::remove_dir_all(&split_dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The generations invariant, property-tested: for arbitrary data,
    /// partitioning, block budgets, and split counts, a K-generation corpus
    /// reads back bit-identically to a single-generation corpus — and still
    /// does after compaction, with every id exactly once.
    #[test]
    fn split_corpora_match_single_generation_before_and_after_compaction(
        raw in prop::collection::vec(prop::collection::vec(0u32..24, 0..10), 1..60),
        k in 1usize..7,
        shards in 1u32..4,
        budget in prop_oneof![Just(1usize), 16usize..256],
        sketches in any::<bool>(),
    ) {
        let (vocab, items) = small_vocab();
        let mut db = SequenceDatabase::new();
        for seq in &raw {
            let seq: Vec<ItemId> = seq.iter().map(|&i| items[i as usize % items.len()]).collect();
            db.push(&seq);
        }
        let opts = StoreOptions::default()
            .with_partitioning(Partitioning::hash(shards))
            .with_block_budget(budget)
            .with_sketches(sketches);

        let dir = temp_dir("prop-split");
        write_in_generations(&dir, &vocab, &db, opts, k);
        let reader = CorpusReader::open(&dir).unwrap();
        prop_assert_eq!(reader.len(), db.len() as u64);

        // Bit-exact read-back, ids exactly once (to_database checks dup/missing).
        let back = reader.to_database().unwrap();
        for i in 0..db.len() {
            prop_assert_eq!(back.get(i), db.get(i), "sequence {}", i);
        }
        if sketches {
            let from_headers = reader.flist().unwrap().unwrap();
            let sequential = FList::compute(&db, &vocab);
            for item in vocab.items() {
                prop_assert_eq!(from_headers.frequency(item), sequential.frequency(item));
            }
        }

        // Compact down to one generation and re-verify everything.
        compact::compact(&dir, &CompactionConfig::default().with_max_generations(1)).unwrap();
        let compacted = CorpusReader::open(&dir).unwrap();
        prop_assert_eq!(compacted.num_generations(), 1);
        prop_assert_eq!(compacted.len(), db.len() as u64);
        let back = compacted.to_database().unwrap();
        for i in 0..db.len() {
            prop_assert_eq!(back.get(i), db.get(i), "post-compaction sequence {}", i);
        }
        if sketches {
            let from_headers = compacted.flist().unwrap().unwrap();
            let sequential = FList::compute(&db, &vocab);
            for item in vocab.items() {
                prop_assert_eq!(from_headers.frequency(item), sequential.frequency(item));
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

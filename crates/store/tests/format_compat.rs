//! Old↔new format compatibility: corpora written in the *pinned* format-v2
//! and format-v3 byte layouts (see `fixtures/v2_writer.rs` and
//! `fixtures/v3_writer.rs` — frozen, independent of the production writer)
//! must read, scan, f-list, and mine byte-identically through the current
//! (v4-writing) build, both directly and after compaction re-blocks them
//! into the current format. The production writer's own (v4) bytes are
//! pinned here too, by digest.

#[path = "fixtures/v2_writer.rs"]
mod v2_writer;
#[path = "fixtures/v3_writer.rs"]
mod v3_writer;

use std::sync::atomic::{AtomicU64, Ordering};

use lash_core::distributed::lash_job::LashResult;
use lash_core::flist::FList;
use lash_core::{GsmParams, ItemId, Lash, SequenceDatabase, Vocabulary, VocabularyBuilder};
use lash_store::compact::{self, CompactionConfig};
use lash_store::{CorpusReader, IncrementalWriter, StoreOptions};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "lash-store-compat-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn compat_vocab() -> (Vocabulary, Vec<ItemId>) {
    let mut vb = VocabularyBuilder::new();
    let b = vb.intern("B");
    let b1 = vb.child("b1", b);
    let b2 = vb.child("b2", b);
    let d = vb.intern("D");
    let d1 = vb.child("d1", d);
    let a = vb.intern("a");
    let c = vb.intern("c");
    (vb.finish().unwrap(), vec![a, b, b1, b2, c, d, d1])
}

/// A deterministic, hierarchy-heavy workload with varied lengths and
/// empties — enough sequences to close several blocks per shard at a small
/// budget.
fn compat_sequences(items: &[ItemId], n: usize) -> Vec<Vec<ItemId>> {
    (0..n)
        .map(|i| {
            let len = (i * 7) % 9;
            (0..len)
                .map(|j| items[(i * 3 + j * 5) % items.len()])
                .collect()
        })
        .collect()
}

fn to_db(seqs: &[Vec<ItemId>]) -> SequenceDatabase {
    let mut db = SequenceDatabase::new();
    for seq in seqs {
        db.push(seq);
    }
    db
}

fn named_patterns(result: &LashResult, vocab: &Vocabulary) -> Vec<(Vec<String>, u64)> {
    let mut v: Vec<(Vec<String>, u64)> = result
        .patterns()
        .iter()
        .map(|p| (p.to_names(vocab), p.frequency))
        .collect();
    v.sort();
    v
}

#[test]
fn pinned_v2_corpus_scans_byte_identically() {
    let (vocab, items) = compat_vocab();
    let seqs = compat_sequences(&items, 300);
    let dir = temp_dir("scan");
    v2_writer::write_v2_corpus(&dir, &vocab, &seqs, 3, 256);

    let reader = CorpusReader::open(&dir).unwrap();
    assert_eq!(reader.manifest().version, 2);
    assert_eq!(reader.len(), 300);
    let back = reader.to_database().unwrap();
    for (i, seq) in seqs.iter().enumerate() {
        assert_eq!(back.get(i), &seq[..], "sequence {i} differs");
    }
    // Several blocks really were written (the fixture re-blocks at 256 B),
    // so the v2 block-header parse path is exercised beyond one block.
    let blocks: u64 = reader.manifest().shards.iter().map(|s| s.blocks).sum();
    assert!(blocks > 3, "expected multi-block v2 fixture, got {blocks}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn pinned_v2_corpus_flists_and_mines_identically() {
    let (vocab, items) = compat_vocab();
    let seqs = compat_sequences(&items, 400);
    let db = to_db(&seqs);
    let dir = temp_dir("mine");
    v2_writer::write_v2_corpus(&dir, &vocab, &seqs, 4, 512);

    let reader = CorpusReader::open(&dir).unwrap();
    // Header-only f-list from v2 sketches equals the in-memory compute.
    let flist = reader.flist().unwrap().expect("fixture writes sketches");
    let reference = FList::compute(&db, &vocab);
    for item in vocab.items() {
        assert_eq!(
            flist.frequency(item),
            reference.frequency(item),
            "f-list differs at {}",
            vocab.name(item)
        );
    }
    // Mining from v2 storage equals mining the same data in memory.
    let params = GsmParams::new(2, 1, 3).unwrap();
    let lash = Lash::default();
    let from_store = named_patterns(&reader.mine(&lash, &params).unwrap(), &vocab);
    let from_memory = named_patterns(&lash.mine(&db, &vocab, &params).unwrap(), &vocab);
    assert_eq!(from_store, from_memory, "v2 corpus mined differently");
    assert!(!from_store.is_empty(), "workload must produce patterns");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn v2_corpus_grows_mixed_generations_and_migrates_via_compaction() {
    let (vocab, items) = compat_vocab();
    let seqs = compat_sequences(&items, 250);
    let dir = temp_dir("migrate");
    v2_writer::write_v2_corpus(&dir, &vocab, &seqs, 3, 512);

    // Append a generation with the *current* writer: the corpus now mixes
    // v2 and current-codec segments, and every scan chains across both.
    let extra = compat_sequences(&items, 330);
    let mut incr = IncrementalWriter::open(&dir).unwrap();
    for seq in &extra[250..] {
        incr.append(seq).unwrap();
    }
    let manifest = incr.finish().unwrap();
    assert_eq!(
        manifest.version, 4,
        "manifest version must track the newest segment format"
    );

    let mut all = seqs.clone();
    all.extend_from_slice(&extra[250..]);
    let db = to_db(&all);
    let params = GsmParams::new(2, 1, 3).unwrap();
    let lash = Lash::default();
    let reference = named_patterns(&lash.mine(&db, &vocab, &params).unwrap(), &vocab);

    let mixed = CorpusReader::open(&dir).unwrap();
    assert_eq!(mixed.to_database().unwrap().len(), all.len());
    let mixed_mined = named_patterns(&mixed.mine(&lash, &params).unwrap(), &vocab);
    assert_eq!(
        mixed_mined, reference,
        "mixed v2+v4 corpus mined differently"
    );

    // Compact down to one generation: the merge re-blocks every v2 payload
    // with the current codec — compaction *is* the migration. (Under the CI
    // LASH_COMPACT_EVERY leg the seal above already compacted, so the
    // explicit call may legitimately find nothing to do.)
    let auto_compacted =
        std::env::var_os(lash_store::COMPACT_EVERY_ENV).is_some_and(|v| !v.is_empty());
    let stats =
        compact::compact(&dir, &CompactionConfig::default().with_max_generations(1)).unwrap();
    assert!(
        stats.is_some() || auto_compacted,
        "two generations must trigger a round"
    );
    let compacted = CorpusReader::open(&dir).unwrap();
    assert_eq!(compacted.num_generations(), 1);
    assert_eq!(compacted.manifest().version, 4);
    let back = compacted.to_database().unwrap();
    for (i, seq) in all.iter().enumerate() {
        assert_eq!(back.get(i), &seq[..], "sequence {i} changed in migration");
    }
    let compacted_mined = named_patterns(&compacted.mine(&lash, &params).unwrap(), &vocab);
    assert_eq!(
        compacted_mined, reference,
        "migration changed mining results"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn pinned_v3_corpus_scans_flists_and_mines_identically() {
    let (vocab, items) = compat_vocab();
    let seqs = compat_sequences(&items, 350);
    let db = to_db(&seqs);
    let dir = temp_dir("v3");
    v3_writer::write_v3_corpus(&dir, &vocab, &seqs, 3, 256);

    let reader = CorpusReader::open(&dir).unwrap();
    assert_eq!(reader.manifest().version, 3);
    assert!(
        reader.manifest().rank_order.is_none(),
        "v3 manifests carry no rank order"
    );
    let back = reader.to_database().unwrap();
    for (i, seq) in seqs.iter().enumerate() {
        assert_eq!(back.get(i), &seq[..], "sequence {i} differs");
    }
    let blocks: u64 = reader.manifest().shards.iter().map(|s| s.blocks).sum();
    assert!(blocks > 3, "expected multi-block v3 fixture, got {blocks}");

    // Header-only f-list from the pinned v3 sketches equals the in-memory
    // compute, and mining from v3 storage equals mining in memory.
    let flist = reader.flist().unwrap().expect("fixture writes sketches");
    let reference = FList::compute(&db, &vocab);
    for item in vocab.items() {
        assert_eq!(
            flist.frequency(item),
            reference.frequency(item),
            "f-list differs at {}",
            vocab.name(item)
        );
    }
    let params = GsmParams::new(2, 1, 3).unwrap();
    let lash = Lash::default();
    let from_store = named_patterns(&reader.mine(&lash, &params).unwrap(), &vocab);
    let from_memory = named_patterns(&lash.mine(&db, &vocab, &params).unwrap(), &vocab);
    assert_eq!(from_store, from_memory, "v3 corpus mined differently");
    assert!(!from_store.is_empty(), "workload must produce patterns");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn v3_corpus_grows_mixed_generations_and_migrates_via_compaction() {
    let (vocab, items) = compat_vocab();
    let seqs = compat_sequences(&items, 250);
    let dir = temp_dir("v3-migrate");
    v3_writer::write_v3_corpus(&dir, &vocab, &seqs, 3, 512);

    // Append a generation with the *current* (v4) writer: the
    // corpus now mixes v3 and rank-encoded segments, and every scan chains
    // across both spaces.
    let extra = compat_sequences(&items, 330);
    let mut incr = IncrementalWriter::open(&dir).unwrap();
    for seq in &extra[250..] {
        incr.append(seq).unwrap();
    }
    let manifest = incr.finish().unwrap();
    assert_eq!(
        manifest.version, 4,
        "manifest version must track the newest segment format"
    );
    assert!(
        manifest.rank_order.is_some(),
        "a v4 manifest must carry the rank order its segments encode with"
    );

    let mut all = seqs.clone();
    all.extend_from_slice(&extra[250..]);
    let db = to_db(&all);
    let params = GsmParams::new(2, 1, 3).unwrap();
    let lash = Lash::default();
    let reference = named_patterns(&lash.mine(&db, &vocab, &params).unwrap(), &vocab);

    let mixed = CorpusReader::open(&dir).unwrap();
    assert_eq!(mixed.to_database().unwrap().len(), all.len());
    let mixed_mined = named_patterns(&mixed.mine(&lash, &params).unwrap(), &vocab);
    assert_eq!(
        mixed_mined, reference,
        "mixed v3+v4 corpus mined differently"
    );

    // Compact down to one generation: the merge re-ranks every v3 payload
    // into the current codec — compaction *is* the v3→v4 migration.
    let auto_compacted =
        std::env::var_os(lash_store::COMPACT_EVERY_ENV).is_some_and(|v| !v.is_empty());
    let stats =
        compact::compact(&dir, &CompactionConfig::default().with_max_generations(1)).unwrap();
    assert!(
        stats.is_some() || auto_compacted,
        "two generations must trigger a round"
    );
    let compacted = CorpusReader::open(&dir).unwrap();
    assert_eq!(compacted.num_generations(), 1);
    assert_eq!(compacted.manifest().version, 4);
    assert!(compacted.manifest().rank_order.is_some());
    let back = compacted.to_database().unwrap();
    for (i, seq) in all.iter().enumerate() {
        assert_eq!(back.get(i), &seq[..], "sequence {i} changed in migration");
    }
    let compacted_mined = named_patterns(&compacted.mine(&lash, &params).unwrap(), &vocab);
    assert_eq!(
        compacted_mined, reference,
        "migration changed mining results"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// FNV-1a-64 over every file under `dir` — relative path, then contents, in
/// path order — as 16 hex digits.
fn corpus_digest(dir: &std::path::Path) -> String {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for path in files {
        feed(path.strip_prefix(dir).unwrap().to_str().unwrap().as_bytes());
        feed(&std::fs::read(&path).unwrap());
    }
    format!("{hash:016x}")
}

#[test]
fn production_v4_bytes_are_frozen() {
    // The v2/v3 layouts are pinned by the fixture writers; this pins v4, the
    // one format the production writer emits: generation 0, an appended
    // generation and their compaction must keep the bytes they had when the
    // digests were recorded (at the commit before the writer lost its v2/v3
    // arms).
    let (vocab, items) = compat_vocab();
    let seqs = compat_sequences(&items, 380);
    let dir = temp_dir("golden");
    let opts = StoreOptions::default()
        .with_partitioning(lash_store::Partitioning::hash(3))
        .with_block_budget(256)
        .with_sketches(true);
    lash_store::convert::write_database(&dir, &vocab, &to_db(&seqs[..300]), opts).unwrap();
    assert_eq!(corpus_digest(&dir), "dbba21714346c876", "generation 0");
    // Under the CI auto-compaction leg the seal below compacts at the default
    // block budget, so only generation 0 is comparable there.
    if std::env::var_os(lash_store::COMPACT_EVERY_ENV).is_some_and(|v| !v.is_empty()) {
        std::fs::remove_dir_all(&dir).unwrap();
        return;
    }
    let mut incr = IncrementalWriter::open_with_budget(&dir, 256).unwrap();
    for seq in &seqs[300..] {
        incr.append(seq).unwrap();
    }
    incr.finish().unwrap();
    assert_eq!(
        corpus_digest(&dir),
        "f489c672a9aae45c",
        "appended generation"
    );
    let config = CompactionConfig::default()
        .with_max_generations(1)
        .with_block_budget(256);
    compact::compact(&dir, &config).unwrap().expect("one round");
    assert_eq!(corpus_digest(&dir), "e46666d2e8570f90", "compacted");
    std::fs::remove_dir_all(&dir).unwrap();
}

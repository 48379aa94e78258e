//! Format compatibility: the bytes the production writer emits for format
//! v4 — the one format this build reads — are pinned by digest, so a corpus
//! written by an earlier build stays readable by a later one.

use std::sync::atomic::{AtomicU64, Ordering};

use lash_core::{ItemId, SequenceDatabase, Vocabulary, VocabularyBuilder};
use lash_store::compact::{self, CompactionConfig};
use lash_store::{IncrementalWriter, StoreOptions};

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
    // Generation 0, an appended generation and their compaction must keep
    // the bytes they had when the digests were recorded.
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

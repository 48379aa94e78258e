//! Property tests for the on-disk corpus: arbitrary sequence databases
//! round-trip through `CorpusWriter` → `CorpusReader` bit-exactly, across
//! partitionings, shard counts, and block budgets; header sketches always
//! reproduce the exact generalized f-list; writing is deterministic; and a
//! damaged corpus is a typed error, never a panic or a silently wrong
//! answer.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use lash_core::flist::FList;
use lash_core::{ItemId, SequenceDatabase, ShardedCorpus, Vocabulary, VocabularyBuilder};
use lash_store::{CorpusReader, Partitioning, StoreOptions};
use proptest::prelude::*;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("lash-store-prop-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A random forest vocabulary over up to `max_items` items.
fn arb_vocabulary(max_items: usize) -> impl Strategy<Value = Vocabulary> {
    prop::collection::vec(prop::option::weighted(0.5, 0..100usize), 1..max_items).prop_map(
        |parents| {
            let mut vb = VocabularyBuilder::new();
            let items: Vec<_> = (0..parents.len())
                .map(|i| vb.intern(&format!("item-{i}")))
                .collect();
            for (i, parent) in parents.iter().enumerate() {
                if i > 0 {
                    if let Some(p) = parent {
                        vb.set_parent(items[i], items[p % i])
                            .expect("parent precedes child");
                    }
                }
            }
            vb.finish().expect("forest by construction")
        },
    )
}

/// Raw sequences as item indices (wrapped into the vocabulary at use site).
fn arb_raw_db() -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(prop::collection::vec(0u32..64, 0..12), 0..40)
}

fn build_db(vocab: &Vocabulary, raw: &[Vec<u32>]) -> SequenceDatabase {
    let n = vocab.len() as u32;
    let mut db = SequenceDatabase::new();
    for seq in raw {
        let items: Vec<ItemId> = seq.iter().map(|&i| ItemId::from_u32(i % n)).collect();
        db.push(&items);
    }
    db
}

fn arb_options() -> impl Strategy<Value = StoreOptions> {
    (
        prop_oneof![
            2 => (1u32..6).prop_map(Partitioning::hash),
            1 => ((1u32..5), (1u64..8)).prop_map(|(s, n)| Partitioning::range(s, n)),
        ],
        // Budgets from "every sequence its own block" to "one block per shard".
        prop_oneof![1 => Just(1usize), 2 => 8usize..512, 1 => Just(1 << 20)],
        any::<bool>(),
    )
        .prop_map(|(partitioning, budget, sketches)| {
            StoreOptions::default()
                .with_partitioning(partitioning)
                .with_block_budget(budget)
                .with_sketches(sketches)
        })
}

/// Writes `db` at `dir`, hash-partitioned over `shards` with sketches on.
fn write_hashed(dir: &Path, vocab: &Vocabulary, db: &SequenceDatabase, shards: u32, budget: usize) {
    let opts = StoreOptions::default()
        .with_partitioning(Partitioning::hash(shards))
        .with_block_budget(budget);
    lash_store::convert::write_database(dir, vocab, db, opts).unwrap();
}

/// Every file of the corpus at `root`, relative, sorted (generations live in
/// subdirectories).
fn files_under(root: &Path) -> Vec<std::path::PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                out.push(path.strip_prefix(root).unwrap().to_path_buf());
            }
        }
    }
    out.sort();
    out
}

/// Opens the corpus at `dir` and reads it through every API — pull scan
/// (`to_database`), block headers, sketch f-list, push scan — returning the
/// materialized database only when all of them succeed.
fn read_everything(dir: &Path) -> lash_store::Result<SequenceDatabase> {
    let reader = CorpusReader::open(dir)?;
    let db = reader.to_database()?;
    reader.flist()?;
    for shard in 0..reader.num_shards() {
        reader.block_headers(shard)?;
        ShardedCorpus::scan_shard(&reader, shard, &mut |_, _| {})
            .map_err(|e| lash_store::StoreError::Corrupt(e.to_string()))?;
    }
    Ok(db)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline invariant: whatever the partitioning, shard count, or
    /// block budget, a database round-trips bit-exactly — same sequences,
    /// same order, same vocabulary and hierarchy.
    #[test]
    fn databases_round_trip_bit_exactly(
        vocab in arb_vocabulary(40),
        raw in arb_raw_db(),
        opts in arb_options(),
    ) {
        let db = build_db(&vocab, &raw);
        let dir = temp_dir("roundtrip");
        let manifest =
            lash_store::convert::write_database(&dir, &vocab, &db, opts.clone()).unwrap();
        prop_assert_eq!(manifest.num_sequences, db.len() as u64);
        prop_assert_eq!(manifest.total_items, db.total_items() as u64);

        let reader = CorpusReader::open(&dir).unwrap();
        prop_assert_eq!(reader.len(), db.len() as u64);
        prop_assert_eq!(reader.vocabulary().len(), vocab.len());
        for item in vocab.items() {
            prop_assert_eq!(reader.vocabulary().name(item), vocab.name(item));
            prop_assert_eq!(reader.vocabulary().parent(item), vocab.parent(item));
        }
        let back = reader.to_database().unwrap();
        prop_assert_eq!(back.len(), db.len());
        for i in 0..db.len() {
            prop_assert_eq!(back.get(i), db.get(i), "sequence {}", i);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Scanning yields every sequence id exactly once, and ids within a
    /// shard arrive strictly ascending (the delta encoding's invariant).
    #[test]
    fn scans_cover_every_id_exactly_once(
        vocab in arb_vocabulary(24),
        raw in arb_raw_db(),
        opts in arb_options(),
    ) {
        let db = build_db(&vocab, &raw);
        let dir = temp_dir("scan");
        lash_store::convert::write_database(&dir, &vocab, &db, opts).unwrap();
        let reader = CorpusReader::open(&dir).unwrap();
        let mut seen = vec![false; db.len()];
        for shard in 0..reader.num_shards() {
            let mut prev: Option<u64> = None;
            for record in reader.scan_shard(shard).unwrap() {
                let (id, items) = record.unwrap();
                prop_assert!(prev.is_none_or(|p| id > p), "ids not ascending in shard {}", shard);
                prev = Some(id);
                prop_assert!(!seen[id as usize], "duplicate id {}", id);
                seen[id as usize] = true;
                prop_assert_eq!(&items[..], db.get(id as usize));
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "missing ids");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// With sketches on, the f-list assembled from block headers alone is
    /// exactly the sequentially computed generalized f-list.
    #[test]
    fn header_flist_is_exact(
        vocab in arb_vocabulary(24),
        raw in arb_raw_db(),
        shards in 1u32..5,
        budget in 1usize..256,
    ) {
        let db = build_db(&vocab, &raw);
        let dir = temp_dir("flist");
        write_hashed(&dir, &vocab, &db, shards, budget);
        let reader = CorpusReader::open(&dir).unwrap();
        let from_headers = reader.flist().unwrap().expect("sketches were written");
        let sequential = FList::compute(&db, &vocab);
        for item in vocab.items() {
            prop_assert_eq!(
                from_headers.frequency(item),
                sequential.frequency(item),
                "item {}",
                vocab.name(item)
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Writing the same database twice produces byte-identical files —
    /// the format has no hidden nondeterminism (hash iteration, clocks).
    #[test]
    fn writing_is_deterministic(
        vocab in arb_vocabulary(16),
        raw in arb_raw_db(),
        opts in arb_options(),
    ) {
        let db = build_db(&vocab, &raw);
        let dir_a = temp_dir("det-a");
        let dir_b = temp_dir("det-b");
        lash_store::convert::write_database(&dir_a, &vocab, &db, opts.clone()).unwrap();
        lash_store::convert::write_database(&dir_b, &vocab, &db, opts).unwrap();
        let names = files_under(&dir_a);
        prop_assert_eq!(&names, &files_under(&dir_b), "file sets differ");
        for name in names {
            let a = std::fs::read(dir_a.join(&name)).unwrap();
            let b = std::fs::read(dir_b.join(&name)).unwrap();
            prop_assert_eq!(a, b, "file {:?} differs", name);
        }
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    /// One flipped bit or a truncation anywhere in any file of a corpus —
    /// manifest or segment — surfaces as a typed error from some read path,
    /// or is harmless: never a panic, never different data.
    #[test]
    fn damage_is_a_typed_error_never_a_panic_or_wrong_data(
        vocab in arb_vocabulary(24),
        raw in arb_raw_db(),
        shards in 1u32..4,
        budget in prop_oneof![1 => Just(1usize), 2 => 8usize..256, 1 => Just(1 << 20)],
        victim in any::<usize>(),
        position in any::<usize>(),
        truncate in any::<bool>(),
    ) {
        let db = build_db(&vocab, &raw);
        let dir = temp_dir("damage");
        write_hashed(&dir, &vocab, &db, shards, budget);
        let files = files_under(&dir);
        let path = dir.join(&files[victim % files.len()]);
        let mut bytes = std::fs::read(&path).unwrap();
        if truncate {
            bytes.truncate(position % bytes.len());
        } else {
            let bit = position % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        std::fs::write(&path, &bytes).unwrap();
        if let Ok(back) = read_everything(&dir) {
            prop_assert_eq!(back.len(), db.len(), "damage to {:?} changed the corpus", path);
            for i in 0..db.len() {
                prop_assert_eq!(back.get(i), db.get(i), "damage to {:?} changed sequence {}", path, i);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

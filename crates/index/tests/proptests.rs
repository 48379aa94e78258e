//! Property tests for the pattern index: for random mined corpora, every
//! mined pattern is findable with its exact frequency, every prefix
//! enumeration (and top-k, and hierarchy-aware lookup) equals the
//! brute-force filter over the pattern list, builds are deterministic and
//! byte-identical to indexing a lexicographically sorted copy of the
//! pattern list, and truncated or bit-flipped index files surface typed
//! corruption errors — never panics.

use std::sync::atomic::{AtomicU64, Ordering};

use lash_core::pattern::{sort_patterns_lexicographic, Pattern};
use lash_core::prelude::*;
use lash_index::{write_patterns, IndexError, PatternIndexReader, PatternIndexWriter};
use proptest::prelude::*;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("lash-index-prop-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A random forest vocabulary over up to `max_items` items.
fn arb_vocabulary(max_items: usize) -> impl Strategy<Value = Vocabulary> {
    prop::collection::vec(prop::option::weighted(0.5, 0..100usize), 2..max_items).prop_map(
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

/// Raw sequences as item indices (wrapped into the vocabulary at use
/// site). Skewed toward small ids so patterns actually become frequent.
fn arb_raw_db() -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(prop::collection::vec(0u32..10, 1..7), 4..32)
}

/// Mines a random corpus.
fn mine(vocab: &Vocabulary, raw: &[Vec<u32>], sigma: u64) -> LashResult {
    let n = vocab.len() as u32;
    let mut db = SequenceDatabase::new();
    for seq in raw {
        let items: Vec<ItemId> = seq.iter().map(|&i| ItemId::from_u32(i % n)).collect();
        db.push(&items);
    }
    let params = GsmParams::new(sigma, 1, 3).unwrap();
    Lash::default().mine(&db, vocab, &params).unwrap()
}

fn brute_enumerate(patterns: &[Pattern], prefix: &[ItemId]) -> Vec<(Vec<ItemId>, u64)> {
    let mut hits: Vec<(Vec<ItemId>, u64)> = patterns
        .iter()
        .filter(|p| p.items.starts_with(prefix))
        .map(|p| (p.items.clone(), p.frequency))
        .collect();
    hits.sort();
    hits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline invariant: every mined pattern is findable with its
    /// exact frequency; sequences outside the set answer `None`; every
    /// prefix enumeration, top-k, and hierarchy-aware lookup equals the
    /// brute-force filter over the pattern list.
    #[test]
    fn index_answers_equal_brute_force(
        vocab in arb_vocabulary(16),
        raw in arb_raw_db(),
        sigma in 1u64..4,
    ) {
        let result = mine(&vocab, &raw, sigma);
        let patterns = result.patterns();
        let dir = temp_dir("brute");
        let summary = write_patterns(&dir, &vocab, result.arena()).unwrap();
        prop_assert_eq!(summary.num_patterns, patterns.len() as u64);
        let reader = PatternIndexReader::open(&dir).unwrap();

        for p in patterns {
            prop_assert_eq!(reader.support(&p.items).unwrap(), Some(p.frequency));
        }
        // Probes derived from mined patterns but outside the set: one item
        // appended, one chopped to the (never-mined) length 1.
        for p in patterns.iter().take(8) {
            let mut longer = p.items.clone();
            longer.extend_from_slice(&p.items);
            if !patterns.iter().any(|q| q.items == longer) {
                prop_assert_eq!(reader.support(&longer).unwrap(), None);
            }
            let shorter = &p.items[..1];
            let expect = patterns.iter().find(|q| q.items == shorter).map(|q| q.frequency);
            prop_assert_eq!(reader.support(shorter).unwrap(), expect);
        }

        // Prefix enumeration over every distinct first item plus the
        // empty and a two-item prefix.
        let mut prefixes: Vec<Vec<ItemId>> = vec![Vec::new()];
        for p in patterns {
            prefixes.push(p.items[..1].to_vec());
            prefixes.push(p.items[..p.items.len().min(2)].to_vec());
        }
        prefixes.dedup();
        for prefix in &prefixes {
            prop_assert_eq!(
                reader.enumerate(prefix, None).unwrap(),
                brute_enumerate(patterns, prefix),
                "prefix {:?}", prefix
            );
        }

        // Top-k: brute force re-sorted by (frequency desc, items asc).
        for prefix in prefixes.iter().take(6) {
            for k in [1usize, 3, patterns.len() + 1] {
                let mut brute = brute_enumerate(patterns, prefix);
                brute.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                brute.truncate(k);
                prop_assert_eq!(reader.top_k(prefix, k).unwrap(), brute, "k {}", k);
            }
        }

        // Hierarchy-aware lookup for probes built from mined patterns
        // (each query item must generalize to the pattern item at its
        // position).
        for p in patterns.iter().take(8) {
            let query: Vec<ItemId> = p.items.clone();
            let mut brute: Vec<(Vec<ItemId>, u64)> = patterns
                .iter()
                .filter(|q| {
                    q.items.len() == query.len()
                        && q.items
                            .iter()
                            .zip(query.iter())
                            .all(|(&qi, &pi)| vocab.generalizes_to(pi, qi))
                })
                .map(|q| (q.items.clone(), q.frequency))
                .collect();
            brute.sort();
            prop_assert_eq!(reader.lookup_generalized(&query).unwrap(), brute);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Building the same pattern set twice produces byte-identical files —
    /// the index inherits the mining pipeline's end-to-end determinism.
    #[test]
    fn builds_are_deterministic(
        vocab in arb_vocabulary(12),
        raw in arb_raw_db(),
    ) {
        let result = mine(&vocab, &raw, 2);
        let dir_a = temp_dir("det-a");
        let dir_b = temp_dir("det-b");
        write_patterns(&dir_a, &vocab, result.arena()).unwrap();
        write_patterns(&dir_b, &vocab, result.arena()).unwrap();
        for file in ["INDEX.lash", "trie.lash"] {
            let a = std::fs::read(dir_a.join(file)).unwrap();
            let b = std::fs::read(dir_b.join(file)).unwrap();
            prop_assert_eq!(a, b, "file {} differs", file);
        }
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    /// Indexing straight from the result's arena writes the same bytes as
    /// copying `patterns()`, sorting the copy lexicographically and adding
    /// it pattern by pattern. The miners work in frequency-rank order, which
    /// the random corpora make differ from item-id order, and the writer
    /// rejects anything but item-id order.
    #[test]
    fn index_from_the_arena_equals_a_sorted_copy(
        vocab in arb_vocabulary(12),
        raw in arb_raw_db(),
        sigma in 1u64..4,
    ) {
        let result = mine(&vocab, &raw, sigma);
        let dir_a = temp_dir("arena");
        let dir_b = temp_dir("sorted-copy");
        write_patterns(&dir_a, &vocab, result.arena()).unwrap();
        let mut sorted = result.patterns().to_vec();
        sort_patterns_lexicographic(&mut sorted);
        let mut writer = PatternIndexWriter::create(&dir_b, &vocab).unwrap();
        for p in &sorted {
            writer.add(&p.items, p.frequency).unwrap();
        }
        writer.finish().unwrap();
        for file in ["INDEX.lash", "trie.lash"] {
            let a = std::fs::read(dir_a.join(file)).unwrap();
            let b = std::fs::read(dir_b.join(file)).unwrap();
            prop_assert_eq!(a, b, "file {} differs", file);
        }
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    /// Truncations and random bit flips of either index file surface as
    /// typed errors — open (or the query, for flips the checksums cannot
    /// see, which do not exist: everything is framed) never panics.
    #[test]
    fn corrupt_files_yield_typed_errors(
        vocab in arb_vocabulary(10),
        raw in arb_raw_db(),
        cut_permille in 0u64..1000,
        flip_permille in 0u64..1000,
        flip_bit in 0u8..8,
        which in prop_oneof![Just("INDEX.lash"), Just("trie.lash")],
    ) {
        let result = mine(&vocab, &raw, 2);
        let patterns = result.patterns();
        let dir = temp_dir("corrupt");
        write_patterns(&dir, &vocab, result.arena()).unwrap();
        let path = dir.join(which);
        let bytes = std::fs::read(&path).unwrap();

        // Truncation at a random cut.
        let cut = (bytes.len() as u64 * cut_permille / 1000) as usize;
        std::fs::write(&path, &bytes[..cut.min(bytes.len())]).unwrap();
        match PatternIndexReader::open(&dir) {
            Err(IndexError::Corrupt(_) | IndexError::Decode(_) | IndexError::Io(_)) => {}
            Err(other) => prop_assert!(false, "truncation: unexpected error {:?}", other),
            Ok(_) => prop_assert!(
                cut == bytes.len(),
                "truncated {} at {} still opened", which, cut
            ),
        }

        // A single bit flip at a random position.
        let mut flipped = bytes.clone();
        let at = ((bytes.len() as u64 * flip_permille / 1000) as usize).min(bytes.len() - 1);
        flipped[at] ^= 1 << flip_bit;
        std::fs::write(&path, &flipped).unwrap();
        match PatternIndexReader::open(&dir) {
            Err(
                IndexError::Corrupt(_)
                | IndexError::Decode(_)
                | IndexError::Io(_)
                | IndexError::UnsupportedVersion { .. },
            ) => {}
            Err(other) => prop_assert!(false, "flip: unexpected error {:?}", other),
            Ok(_) => prop_assert!(false, "flip at byte {} of {} went undetected", at, which),
        }

        // Restored, the index opens and serves again.
        std::fs::write(&path, &bytes).unwrap();
        let reader = PatternIndexReader::open(&dir).unwrap();
        for p in patterns.iter().take(4) {
            prop_assert_eq!(reader.support(&p.items).unwrap(), Some(p.frequency));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

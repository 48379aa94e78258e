//! Integration tests: the index against brute force over the mined
//! pattern set, hierarchy-aware query edge cases, writer input
//! validation, corruption handling, and the concurrent query service.

use std::sync::Arc;

use lash_core::pattern::{Pattern, PatternArena};
use lash_core::prelude::*;
use lash_datagen::paper_example;
use lash_index::{
    write_patterns, IndexError, PatternIndexReader, PatternIndexWriter, Query, QueryReply,
    QueryService,
};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "lash-index-test-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Mines the paper's Fig. 1 example and returns everything the tests
/// compare against.
fn mined() -> (Vocabulary, Vec<Pattern>) {
    let (vocab, db) = paper_example();
    let params = GsmParams::new(2, 1, 3).unwrap();
    let result = Lash::default().mine(&db, &vocab, &params).unwrap();
    (vocab, result.patterns().to_vec())
}

/// `patterns` as an arena in their own (frequency-descending) order, for
/// `write_patterns` to sort.
fn arena(patterns: &[Pattern]) -> PatternArena<ItemId> {
    let mut arena = PatternArena::new();
    for p in patterns {
        arena.push(&p.items, p.frequency);
    }
    arena
}

fn id(vocab: &Vocabulary, name: &str) -> ItemId {
    vocab.lookup(name).unwrap_or_else(|| panic!("item {name}"))
}

/// Brute-force prefix enumeration over the pattern list.
fn brute_enumerate(patterns: &[Pattern], prefix: &[ItemId]) -> Vec<(Vec<ItemId>, u64)> {
    let mut hits: Vec<(Vec<ItemId>, u64)> = patterns
        .iter()
        .filter(|p| p.items.starts_with(prefix))
        .map(|p| (p.items.clone(), p.frequency))
        .collect();
    hits.sort();
    hits
}

/// Brute-force top-k (frequency descending, ties lexicographic).
fn brute_top_k(patterns: &[Pattern], prefix: &[ItemId], k: usize) -> Vec<(Vec<ItemId>, u64)> {
    let mut hits = brute_enumerate(patterns, prefix);
    hits.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    hits.truncate(k);
    hits
}

/// Brute-force hierarchy-aware lookup: same length, each query item
/// generalizes to the pattern item at its position.
fn brute_generalized(
    vocab: &Vocabulary,
    patterns: &[Pattern],
    query: &[ItemId],
) -> Vec<(Vec<ItemId>, u64)> {
    let mut hits: Vec<(Vec<ItemId>, u64)> = patterns
        .iter()
        .filter(|p| {
            p.items.len() == query.len()
                && p.items
                    .iter()
                    .zip(query.iter())
                    .all(|(&pi, &qi)| vocab.generalizes_to(qi, pi))
        })
        .map(|p| (p.items.clone(), p.frequency))
        .collect();
    hits.sort();
    hits
}

#[test]
fn every_mined_pattern_is_found_with_exact_support() {
    let (vocab, patterns) = mined();
    let dir = temp_dir("exact");
    let summary = write_patterns(&dir, &vocab, &arena(&patterns)).unwrap();
    assert_eq!(summary.num_patterns, patterns.len() as u64);
    let reader = PatternIndexReader::open(&dir).unwrap();
    assert_eq!(reader.num_patterns(), patterns.len() as u64);
    for p in &patterns {
        assert_eq!(
            reader.support(&p.items).unwrap(),
            Some(p.frequency),
            "pattern {:?}",
            p.to_names(&vocab)
        );
    }
    // Sequences that were not mined: absent prefix of a real pattern,
    // over-long extension, and a frequent-looking but unmined pair.
    let a = id(&vocab, "a");
    let e = id(&vocab, "e");
    assert_eq!(reader.support(&[e]).unwrap(), None);
    assert_eq!(reader.support(&[a, a, a, a]).unwrap(), None);
    assert_eq!(reader.support(&[a]).unwrap(), None); // length-1 never mined (λ ≥ 2)
    assert_eq!(reader.max_frequency(), 3);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn prefix_enumeration_matches_brute_force() {
    let (vocab, patterns) = mined();
    let dir = temp_dir("enum");
    write_patterns(&dir, &vocab, &arena(&patterns)).unwrap();
    let reader = PatternIndexReader::open(&dir).unwrap();
    let a = id(&vocab, "a");
    let b_cap = id(&vocab, "B");
    let b1 = id(&vocab, "b1");
    let e = id(&vocab, "e");
    for prefix in [
        vec![],
        vec![a],
        vec![b_cap],
        vec![b1],
        vec![a, b_cap],
        vec![e],
        vec![a, b_cap, id(&vocab, "c")],
    ] {
        assert_eq!(
            reader.enumerate(&prefix, None).unwrap(),
            brute_enumerate(&patterns, &prefix),
            "prefix {prefix:?}"
        );
    }
    // The limit caps results but keeps the lexicographic order.
    let all = reader.enumerate(&[], None).unwrap();
    assert_eq!(all.len(), patterns.len());
    let capped = reader.enumerate(&[], Some(3)).unwrap();
    assert_eq!(capped[..], all[..3]);
    assert!(reader.enumerate(&[], Some(0)).unwrap().is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn top_k_matches_brute_force_for_all_k() {
    let (vocab, patterns) = mined();
    let dir = temp_dir("topk");
    write_patterns(&dir, &vocab, &arena(&patterns)).unwrap();
    let reader = PatternIndexReader::open(&dir).unwrap();
    let a = id(&vocab, "a");
    let b_cap = id(&vocab, "B");
    for prefix in [vec![], vec![a], vec![b_cap], vec![id(&vocab, "e")]] {
        for k in 0..=patterns.len() + 2 {
            assert_eq!(
                reader.top_k(&prefix, k).unwrap(),
                brute_top_k(&patterns, &prefix, k),
                "prefix {prefix:?} k {k}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn hierarchy_queries_expand_to_ancestors() {
    let (vocab, patterns) = mined();
    let dir = temp_dir("hier");
    write_patterns(&dir, &vocab, &arena(&patterns)).unwrap();
    let reader = PatternIndexReader::open(&dir).unwrap();
    let a = id(&vocab, "a");
    let b_cap = id(&vocab, "B");
    let b1 = id(&vocab, "b1");
    let b11 = id(&vocab, "b11");
    let d1 = id(&vocab, "d1");

    // Multi-level chain: b11 expands through b1 up to B, so a leaf-phrased
    // query finds the generalized patterns ("a b1" and "a B") that never
    // mention b11.
    let hits = reader.lookup_generalized(&[a, b11]).unwrap();
    assert_eq!(hits, brute_generalized(&vocab, &patterns, &[a, b11]));
    let hit_items: Vec<&[ItemId]> = hits.iter().map(|(i, _)| i.as_slice()).collect();
    assert!(hit_items.contains(&&[a, b1][..]));
    assert!(hit_items.contains(&&[a, b_cap][..]));

    // Intermediate item: b1 expands to {b1, B} but not down to b11.
    assert_eq!(
        reader.lookup_generalized(&[a, b1]).unwrap(),
        brute_generalized(&vocab, &patterns, &[a, b1])
    );

    // Root item with children: B expands to itself only — no descent.
    assert_eq!(
        reader.lookup_generalized(&[a, b_cap]).unwrap(),
        brute_generalized(&vocab, &patterns, &[a, b_cap])
    );

    // Item with no parents and no children: the expansion is the item
    // itself.
    assert_eq!(
        reader.lookup_generalized(&[a, a]).unwrap(),
        brute_generalized(&vocab, &patterns, &[a, a])
    );

    // Multi-position expansion: both positions expand independently
    // (b11 → {b11, b1, B}, d1 → {d1, D}).
    let hits = reader.lookup_generalized(&[b11, d1]).unwrap();
    assert_eq!(hits, brute_generalized(&vocab, &patterns, &[b11, d1]));
    assert!(!hits.is_empty(), "b1 D and B D are mined");

    // An empty query matches nothing (patterns have length ≥ 2).
    assert!(reader.lookup_generalized(&[]).unwrap().is_empty());

    // An item id absent from the vocabulary is a typed error, not a panic
    // — on every query kind.
    let bogus = ItemId::from_u32(vocab.len() as u32 + 7);
    assert!(matches!(
        reader.lookup_generalized(&[a, bogus]),
        Err(IndexError::UnknownItem(v)) if v == bogus.as_u32()
    ));
    assert!(matches!(
        reader.support(&[bogus]),
        Err(IndexError::UnknownItem(_))
    ));
    assert!(matches!(
        reader.enumerate(&[bogus], None),
        Err(IndexError::UnknownItem(_))
    ));
    assert!(matches!(
        reader.top_k(&[bogus], 3),
        Err(IndexError::UnknownItem(_))
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn writer_rejects_bad_input_with_typed_errors() {
    let (vocab, _) = mined();
    let a = id(&vocab, "a");
    let b_cap = id(&vocab, "B");
    let c = id(&vocab, "c");

    let dir = temp_dir("badinput");
    let mut w = PatternIndexWriter::create(&dir, &vocab).unwrap();
    assert!(matches!(w.add(&[], 1), Err(IndexError::EmptyPattern)));
    let bogus = ItemId::from_u32(999);
    assert!(matches!(
        w.add(&[bogus], 1),
        Err(IndexError::UnknownItem(999))
    ));
    w.add(&[a, b_cap], 3).unwrap();
    // A duplicate and a lexicographic regression are both unsorted input.
    assert!(matches!(
        w.add(&[a, b_cap], 3),
        Err(IndexError::UnsortedInput { position: 1 })
    ));
    assert!(matches!(
        w.add(&[a, a], 2),
        Err(IndexError::UnsortedInput { .. })
    ));
    // A prefix arriving after its extension is also out of order…
    w.add(&[a, b_cap, c], 2).unwrap();
    assert!(matches!(
        w.add(&[a, b_cap], 3),
        Err(IndexError::UnsortedInput { .. })
    ));
    drop(w);
    let _ = std::fs::remove_dir_all(&dir);

    // …but a prefix arriving *before* its extension is fine, and both are
    // served.
    let dir = temp_dir("prefix-order");
    let mut w = PatternIndexWriter::create(&dir, &vocab).unwrap();
    w.add(&[a, b_cap], 3).unwrap();
    w.add(&[a, b_cap, c], 2).unwrap();
    w.finish().unwrap();
    let reader = PatternIndexReader::open(&dir).unwrap();
    assert_eq!(reader.support(&[a, b_cap]).unwrap(), Some(3));
    assert_eq!(reader.support(&[a, b_cap, c]).unwrap(), Some(2));

    // Indexes are immutable: a second create at the same path refuses.
    assert!(matches!(
        PatternIndexWriter::create(&dir, &vocab),
        Err(IndexError::AlreadyExists(_))
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A corpus whose item ids run against its frequency ranks: leaf `i<k>`
/// occurs about `2k + 1` times as often as `i0`, and `hot`, the category
/// over the two most frequent leaves and the most frequent item of all, is
/// interned last. Rank 0 is the largest item id, so the miners' rank order
/// and the index's item-id order disagree.
fn rank_reversed_corpus() -> (Vocabulary, SequenceDatabase) {
    let mut vb = VocabularyBuilder::new();
    let leaves: Vec<ItemId> = (0..6).map(|k| vb.intern(&format!("i{k}"))).collect();
    let hot = vb.intern("hot");
    vb.set_parent(leaves[4], hot).unwrap();
    vb.set_parent(leaves[5], hot).unwrap();
    let vocab = vb.finish().unwrap();
    let mut db = SequenceDatabase::new();
    for s in 0..80u32 {
        let seq: Vec<ItemId> = (0..3 + s % 4)
            .map(|j| leaves[((s * 31 + j * 17) % 36).isqrt() as usize])
            .collect();
        db.push(&seq);
    }
    (vocab, db)
}

/// FNV-1a over `bytes`, continuing from `digest`.
fn fnv1a(digest: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(digest, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Indexing straight from a result's arena, where rank order is not
/// item-id order, writes exactly the files that sorting a copy of
/// `patterns()` and adding it did: both files are pinned by a digest taken
/// from that copy-and-sort build, and compared byte for byte with one built
/// here the same way.
#[test]
fn index_from_the_arena_is_byte_identical_when_ranks_run_against_ids() {
    let (vocab, db) = rank_reversed_corpus();
    let params = GsmParams::new(3, 1, 4).unwrap();
    let result = Lash::default().mine(&db, &vocab, &params).unwrap();
    assert_eq!(result.context().order().item(0), id(&vocab, "hot"));
    assert_eq!(result.arena().len(), 399);

    let dir = temp_dir("rank-reversed");
    write_patterns(&dir, &vocab, result.arena()).unwrap();
    let reference = temp_dir("rank-reversed-copy");
    let mut sorted = result.patterns().to_vec();
    lash_core::pattern::sort_patterns_lexicographic(&mut sorted);
    let mut writer = PatternIndexWriter::create(&reference, &vocab).unwrap();
    for p in &sorted {
        writer.add(&p.items, p.frequency).unwrap();
    }
    writer.finish().unwrap();

    let mut digest = 0xcbf2_9ce4_8422_2325;
    for file in ["INDEX.lash", "trie.lash"] {
        let bytes = std::fs::read(dir.join(file)).unwrap();
        assert_eq!(
            bytes,
            std::fs::read(reference.join(file)).unwrap(),
            "{file}"
        );
        digest = fnv1a(digest, &bytes);
    }
    assert_eq!(digest, 0x918d_5ce7_f43b_3d67);
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&reference).unwrap();
}

/// The `index.build` span runs from `create` to the end of `finish`: the
/// adds are the build, not only the final seal.
#[test]
fn build_span_covers_the_whole_build() {
    let (vocab, mut patterns) = mined();
    lash_core::pattern::sort_patterns_lexicographic(&mut patterns);
    let dir = temp_dir("span");
    let spans = lash_obs::global().histogram("index.build_us");
    let before = spans.snapshot();
    let mut writer = PatternIndexWriter::create(&dir, &vocab).unwrap();
    let adding = std::time::Duration::from_millis(30);
    std::thread::sleep(adding);
    for p in &patterns {
        writer.add(&p.items, p.frequency).unwrap();
    }
    writer.finish().unwrap();
    let after = spans.snapshot();
    // Other tests build indexes too: lower bounds only.
    assert!(after.count > before.count);
    assert!(after.sum - before.sum >= adding.as_micros() as u64);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn empty_index_serves_empty_answers() {
    let (vocab, _) = mined();
    let dir = temp_dir("empty");
    let summary = write_patterns(&dir, &vocab, &PatternArena::new()).unwrap();
    assert_eq!(summary.num_patterns, 0);
    let reader = PatternIndexReader::open(&dir).unwrap();
    assert!(reader.is_empty());
    let a = id(&vocab, "a");
    assert_eq!(reader.support(&[a]).unwrap(), None);
    assert!(reader.enumerate(&[], None).unwrap().is_empty());
    assert!(reader.top_k(&[], 5).unwrap().is_empty());
    assert!(reader.lookup_generalized(&[a]).unwrap().is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn tiny_blocks_split_the_trie_without_changing_answers() {
    let (vocab, patterns) = mined();
    let dir = temp_dir("tinyblocks");
    // A 1-byte budget seals a frame per node — the multi-block read path.
    let mut sorted = patterns.clone();
    lash_core::pattern::sort_patterns_lexicographic(&mut sorted);
    let mut w = PatternIndexWriter::create_with_budget(&dir, &vocab, 1).unwrap();
    for p in &sorted {
        w.add(&p.items, p.frequency).unwrap();
    }
    let summary = w.finish().unwrap();
    assert!(summary.num_nodes > 1);
    let reader = PatternIndexReader::open(&dir).unwrap();
    for p in &patterns {
        assert_eq!(reader.support(&p.items).unwrap(), Some(p.frequency));
    }
    assert_eq!(
        reader.enumerate(&[], None).unwrap(),
        brute_enumerate(&patterns, &[])
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corruption_surfaces_as_typed_errors_never_panics() {
    let (vocab, patterns) = mined();
    let dir = temp_dir("corrupt");
    write_patterns(&dir, &vocab, &arena(&patterns)).unwrap();
    let trie = dir.join("trie.lash");
    let manifest = dir.join("INDEX.lash");
    let trie_bytes = std::fs::read(&trie).unwrap();
    let manifest_bytes = std::fs::read(&manifest).unwrap();

    // Truncations of both files at every length.
    for (path, bytes) in [(&trie, &trie_bytes), (&manifest, &manifest_bytes)] {
        for cut in 0..bytes.len() {
            std::fs::write(path, &bytes[..cut]).unwrap();
            let err = PatternIndexReader::open(&dir)
                .err()
                .unwrap_or_else(|| panic!("{path:?} cut at {cut} must not open"));
            assert!(
                matches!(
                    err,
                    IndexError::Corrupt(_) | IndexError::Decode(_) | IndexError::Io(_)
                ),
                "cut {cut}: unexpected error {err:?}"
            );
        }
        std::fs::write(path, bytes).unwrap();
    }

    // Single-bit flips anywhere in either file.
    for (path, bytes) in [(&trie, &trie_bytes), (&manifest, &manifest_bytes)] {
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x20;
            std::fs::write(path, &flipped).unwrap();
            match PatternIndexReader::open(&dir) {
                // A flip in a frame length prefix may still parse; the
                // checksum or a structural check must catch everything
                // that opens.
                Err(
                    IndexError::Corrupt(_)
                    | IndexError::Decode(_)
                    | IndexError::Io(_)
                    | IndexError::UnsupportedVersion { .. },
                ) => {}
                Err(other) => panic!("flip at {i}: unexpected error {other:?}"),
                Ok(_) => panic!("flip at byte {i} of {path:?} went undetected"),
            }
        }
        std::fs::write(path, bytes).unwrap();
    }

    // Intact again: opens fine.
    PatternIndexReader::open(&dir).unwrap();

    // A manifest claiming a future format version is UnsupportedVersion:
    // forge one (magic + varint version) wrapped in a valid frame.
    let mut payload = b"LASHPIDX".to_vec();
    lash_encoding::encode_u32(99, &mut payload);
    let mut framed = Vec::new();
    lash_encoding::encode_frame(&payload, &mut framed);
    std::fs::write(&manifest, &framed).unwrap();
    assert!(matches!(
        PatternIndexReader::open(&dir),
        Err(IndexError::UnsupportedVersion { found: 99 })
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Hand-builds a two-node index (root → one terminal leaf) with an
/// arbitrary root subtree bound, valid frames and manifest throughout.
fn forge_index(dir: &std::path::Path, root_bound: u64) {
    use lash_encoding::{encode_u32, encode_u64, write_frame, write_frame_with, FrameChecksum};
    std::fs::create_dir_all(dir).unwrap();
    // Arena: leaf node (freq 5, bound 5, no children) at offset 0, root
    // (no freq, bound `root_bound`, one child: item 0 at offset 0) at 3.
    let mut arena = vec![6u8, 5, 0];
    let root_offset = arena.len() as u64;
    encode_u64(0, &mut arena); // no frequency
    encode_u64(root_bound, &mut arena);
    encode_u32(1, &mut arena); // one child
    lash_encoding::group_varint::encode(&[0], &mut arena); // child id 0
    encode_u64(0, &mut arena); // offset delta 0
    let mut trie = Vec::new();
    let mut header = b"LASHTRIE".to_vec();
    encode_u32(1, &mut header);
    write_frame(&header, &mut trie).unwrap();
    write_frame_with(&arena, &mut trie, FrameChecksum::Fnv1aWide).unwrap();
    std::fs::write(dir.join("trie.lash"), &trie).unwrap();

    let mut manifest = Vec::new();
    let mut head = b"LASHPIDX".to_vec();
    encode_u32(1, &mut head); // version
    encode_u64(1, &mut head); // patterns
    encode_u64(2, &mut head); // nodes
    encode_u64(arena.len() as u64, &mut head);
    encode_u64(root_offset, &mut head);
    encode_u64(5, &mut head); // max frequency
    write_frame(&head, &mut manifest).unwrap();
    let mut vocab_payload = Vec::new();
    let mut vb = VocabularyBuilder::new();
    vb.intern("only-item");
    vb.finish().unwrap().encode_bytes(&mut vocab_payload);
    write_frame(&vocab_payload, &mut manifest).unwrap();
    std::fs::write(dir.join("INDEX.lash"), &manifest).unwrap();
}

#[test]
fn inconsistent_subtree_bounds_are_rejected_at_open() {
    // Positive control: with the correct bound the forged index opens and
    // answers.
    let dir = temp_dir("forged-good");
    forge_index(&dir, 5);
    let reader = PatternIndexReader::open(&dir).unwrap();
    assert_eq!(reader.support(&[ItemId::from_u32(0)]).unwrap(), Some(5));
    assert_eq!(
        reader.top_k(&[], 1).unwrap(),
        vec![(vec![ItemId::from_u32(0)], 5)]
    );
    std::fs::remove_dir_all(&dir).unwrap();

    // A checksum-valid file whose root claims a subtree bound its subtree
    // does not hold would silently corrupt top-k pruning — the open-time
    // validation pass must reject it as corruption.
    for bad_bound in [99, 4] {
        let dir = temp_dir(&format!("forged-bad-{bad_bound}"));
        forge_index(&dir, bad_bound);
        assert!(
            matches!(PatternIndexReader::open(&dir), Err(IndexError::Corrupt(_))),
            "bound {bad_bound} must not open"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn query_service_serves_concurrently_and_swaps_atomically() {
    let (vocab, db) = paper_example();
    let params = GsmParams::new(2, 1, 3).unwrap();
    let result = Lash::default().mine(&db, &vocab, &params).unwrap();
    let patterns = result.patterns().to_vec();
    let dir = temp_dir("service");
    write_patterns(&dir, &vocab, result.arena()).unwrap();
    let service = Arc::new(QueryService::new(PatternIndexReader::open(&dir).unwrap()));

    // Four threads hammer one service; every answer must equal brute
    // force over the pattern list.
    let mut handles = Vec::new();
    for t in 0..4 {
        let service = Arc::clone(&service);
        let vocab = vocab.clone();
        let patterns = patterns.clone();
        handles.push(std::thread::spawn(move || {
            let snapshot = service.snapshot();
            for round in 0..50 {
                for p in &patterns {
                    assert_eq!(snapshot.support(&p.items).unwrap(), Some(p.frequency));
                }
                let prefix = &patterns[(t + round) % patterns.len()].items[..1];
                assert_eq!(
                    snapshot.enumerate(prefix, None).unwrap(),
                    brute_enumerate(&patterns, prefix)
                );
                assert_eq!(
                    snapshot.top_k(&[], 4).unwrap(),
                    brute_top_k(&patterns, &[], 4)
                );
                let leaf = vocab.lookup("b11").unwrap();
                let a = vocab.lookup("a").unwrap();
                assert_eq!(
                    snapshot.lookup_generalized(&[a, leaf]).unwrap(),
                    brute_generalized(&vocab, &patterns, &[a, leaf])
                );
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    // Re-mine with a stricter σ and swap; old snapshots keep answering,
    // new snapshots see the new index.
    let old_snapshot = service.snapshot();
    let strict = GsmParams::new(3, 1, 3).unwrap();
    let restricted = Lash::default().mine(&db, &vocab, &strict).unwrap();
    let dir2 = temp_dir("service-v2");
    write_patterns(&dir2, &vocab, restricted.arena()).unwrap();
    service.swap(PatternIndexReader::open(&dir2).unwrap());

    let a = vocab.lookup("a").unwrap();
    let b_cap = vocab.lookup("B").unwrap();
    // "a B" (frequency 3) survives σ=3; "a a" (frequency 2) does not.
    let a_a = vocab.lookup("a").map(|x| [x, x]).unwrap();
    assert_eq!(old_snapshot.support(&a_a).unwrap(), Some(2));
    let reply = service
        .execute(&Query::Support {
            items: vec![a, b_cap],
        })
        .unwrap();
    assert_eq!(reply, QueryReply::Support(Some(3)));
    let reply = service
        .execute(&Query::Support {
            items: a_a.to_vec(),
        })
        .unwrap();
    assert_eq!(reply, QueryReply::Support(None));

    // The request/response surface mirrors the direct calls.
    let QueryReply::Patterns(top) = service
        .execute(&Query::TopK {
            prefix: vec![],
            k: 2,
        })
        .unwrap()
    else {
        panic!("TopK replies with patterns");
    };
    let brute = brute_top_k(restricted.patterns(), &[], 2);
    assert_eq!(top.len(), brute.len());
    for (hit, (items, freq)) in top.iter().zip(brute.iter()) {
        assert_eq!(&hit.items, items);
        assert_eq!(hit.frequency, *freq);
    }
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&dir2).unwrap();
}

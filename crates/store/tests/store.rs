//! Behavioral tests of the store: cold reopen, parallel scans, range
//! pruning, append-once enforcement, and corruption detection end-to-end.

use std::sync::atomic::{AtomicU64, Ordering};

use lash_core::{
    GsmParams, ItemId, Lash, LashConfig, SequenceDatabase, ShardedCorpus, Vocabulary,
    VocabularyBuilder,
};
use lash_encoding::frame;
use lash_store::{CorpusReader, CorpusWriter, Partitioning, StoreError, StoreOptions};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("lash-store-test-{tag}-{}-{n}", std::process::id()));
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
        // Deterministic, varied lengths incl. empties.
        let len = i % 5;
        let seq: Vec<ItemId> = (0..len).map(|j| items[(i + j) % items.len()]).collect();
        db.push(&seq);
    }
    db
}

#[test]
fn cold_reopen_preserves_everything() {
    let (vocab, items) = small_vocab();
    let db = sample_db(&items, 100);
    let dir = temp_dir("cold");
    let opts = StoreOptions::default()
        .with_partitioning(Partitioning::hash(3))
        .with_block_budget(64);
    let manifest = lash_store::convert::write_database(&dir, &vocab, &db, opts).unwrap();
    assert_eq!(manifest.num_sequences, 100);
    assert_eq!(manifest.shards.len(), 3);
    assert!(manifest.shards.iter().all(|s| s.sequences > 0));
    assert!(manifest.shards.iter().all(|s| s.blocks > 0));

    // Fresh process state: nothing shared with the writer but the files.
    let reader = CorpusReader::open(&dir).unwrap();
    assert_eq!(reader.len(), 100);
    assert_eq!(reader.manifest(), &manifest);
    let back = reader.to_database().unwrap();
    for i in 0..db.len() {
        assert_eq!(back.get(i), db.get(i));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn par_scan_visits_every_shard_once() {
    let (vocab, items) = small_vocab();
    let db = sample_db(&items, 200);
    let dir = temp_dir("par");
    let opts = StoreOptions::default().with_partitioning(Partitioning::hash(5));
    lash_store::convert::write_database(&dir, &vocab, &db, opts).unwrap();
    let reader = CorpusReader::open(&dir).unwrap();
    let counts = reader
        .par_scan(4, |shard, scan| {
            let mut n = 0u64;
            for record in scan {
                record?;
                n += 1;
            }
            Ok((shard, n))
        })
        .unwrap();
    assert_eq!(counts.len(), 5);
    // Results arrive in shard order with per-shard counts matching stats.
    for (i, (shard, n)) in counts.iter().enumerate() {
        assert_eq!(*shard, i);
        assert_eq!(*n, reader.manifest().shards[i].sequences);
    }
    assert_eq!(counts.iter().map(|(_, n)| n).sum::<u64>(), 200);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn range_partitioning_supports_shard_pruning() {
    let (vocab, items) = small_vocab();
    let db = sample_db(&items, 100);
    let dir = temp_dir("range");
    let opts = StoreOptions::default().with_partitioning(Partitioning::range(4, 25));
    lash_store::convert::write_database(&dir, &vocab, &db, opts).unwrap();
    let reader = CorpusReader::open(&dir).unwrap();
    // Ids 30..40 live entirely in shard 1 (ids 25..50).
    assert_eq!(reader.shards_overlapping(30..40), vec![1]);
    assert_eq!(reader.shards_overlapping(0..100), vec![0, 1, 2, 3]);
    assert_eq!(reader.shards_overlapping(99..100), vec![3]);
    // The pruned shard really contains those ids.
    let ids: Vec<u64> = reader
        .scan_shard(1)
        .unwrap()
        .map(|r| r.unwrap().0)
        .collect();
    assert_eq!(ids, (25..50).collect::<Vec<u64>>());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn append_once_is_enforced() {
    let (vocab, items) = small_vocab();
    let dir = temp_dir("once");
    let mut w = CorpusWriter::create(&dir, &vocab, StoreOptions::default()).unwrap();
    w.append(&[items[0]]).unwrap();
    w.finish().unwrap();
    match CorpusWriter::create(&dir, &vocab, StoreOptions::default()) {
        Err(StoreError::AlreadyExists(_)) => {}
        Err(other) => panic!("expected AlreadyExists, got {other:?}"),
        Ok(_) => panic!("expected AlreadyExists, got a writer"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unfinished_corpus_is_not_readable() {
    let (vocab, items) = small_vocab();
    let dir = temp_dir("unfinished");
    let mut w = CorpusWriter::create(&dir, &vocab, StoreOptions::default()).unwrap();
    w.append(&[items[0], items[1]]).unwrap();
    // No finish(): the manifest was never written.
    drop(w);
    assert!(CorpusReader::open(&dir).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_items_are_rejected_at_append() {
    let (vocab, _) = small_vocab();
    let dir = temp_dir("unknown");
    let mut w = CorpusWriter::create(&dir, &vocab, StoreOptions::default()).unwrap();
    match w.append(&[ItemId::from_u32(1000)]) {
        Err(StoreError::UnknownItem(1000)) => {}
        other => panic!("expected UnknownItem, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn zero_shards_is_rejected() {
    let (vocab, _) = small_vocab();
    let dir = temp_dir("zeroshards");
    let opts = StoreOptions::default().with_partitioning(Partitioning::hash(0));
    assert!(matches!(
        CorpusWriter::create(&dir, &vocab, opts),
        Err(StoreError::InvalidOptions(_))
    ));
}

#[test]
fn segment_corruption_is_detected_on_scan() {
    let (vocab, items) = small_vocab();
    let db = sample_db(&items, 50);
    let dir = temp_dir("corrupt");
    let opts = StoreOptions::default().with_partitioning(Partitioning::hash(1));
    lash_store::convert::write_database(&dir, &vocab, &db, opts).unwrap();
    // Flip a byte deep inside the (only) segment file.
    let seg = dir.join("gen-00000").join("shard-00000.seg");
    let mut bytes = std::fs::read(&seg).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&seg, &bytes).unwrap();
    let reader = CorpusReader::open(&dir).unwrap();
    let outcome: Result<Vec<_>, _> = reader.scan_shard(0).and_then(|scan| scan.collect());
    assert!(outcome.is_err(), "flipped byte went undetected");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_segment_is_detected_on_scan() {
    let (vocab, items) = small_vocab();
    let db = sample_db(&items, 50);
    let dir = temp_dir("trunc");
    let opts = StoreOptions::default().with_partitioning(Partitioning::hash(1));
    lash_store::convert::write_database(&dir, &vocab, &db, opts).unwrap();
    let seg = dir.join("gen-00000").join("shard-00000.seg");
    let bytes = std::fs::read(&seg).unwrap();
    std::fs::write(&seg, &bytes[..bytes.len() - 3]).unwrap();
    let reader = CorpusReader::open(&dir).unwrap();
    let outcome: Result<Vec<_>, _> = reader.scan_shard(0).and_then(|scan| scan.collect());
    assert!(outcome.is_err(), "truncation went undetected");
    std::fs::remove_dir_all(&dir).unwrap();

    // Cut at a block-frame boundary: every frame left is whole and
    // checksum-valid, so only the manifest's block count can tell. Every
    // read path must see it, with and without sketches, and so must a mine
    // that never asks for the f-list.
    for sketches in [true, false] {
        let db = sample_db(&items, 400);
        let dir = temp_dir("trunc-blocks");
        let opts = StoreOptions::default()
            .with_partitioning(Partitioning::hash(1))
            .with_block_budget(64)
            .with_sketches(sketches);
        lash_store::convert::write_database(&dir, &vocab, &db, opts).unwrap();
        let seg = dir.join("gen-00000").join("shard-00000.seg");
        let bytes = std::fs::read(&seg).unwrap();
        let blocks = CorpusReader::open(&dir).unwrap().manifest().shards[0].blocks;
        assert!(blocks > 2, "need several blocks to cut between ({blocks})");
        std::fs::write(&seg, &bytes[..block_boundary(&bytes, blocks / 2)]).unwrap();

        let reader = CorpusReader::open(&dir).unwrap();
        let outcome: Result<Vec<_>, _> = reader.scan_shard(0).and_then(|scan| scan.collect());
        assert!(
            outcome.is_err(),
            "scan_shard accepted a segment missing whole blocks: {:?}",
            outcome.map(|records| records.len())
        );
        let mut seen = 0u64;
        let outcome = ShardedCorpus::scan_shard(&reader, 0, &mut |_, _| seen += 1);
        assert!(outcome.is_err(), "push scan delivered {seen} sequences");
        let outcome = reader.par_scan(2, |_, scan| Ok(scan.count()));
        assert!(outcome.is_err(), "par_scan returned {outcome:?}");
        let params = GsmParams::new(2, 0, 3).unwrap();
        for lash in [
            Lash::default(),
            Lash::new(LashConfig::default().with_hierarchy(false)),
        ] {
            let outcome = reader.mine(&lash, &params);
            assert!(
                outcome.is_err(),
                "mine (sketches {sketches}, hierarchy {}) returned {:?} patterns",
                !lash.config().ignore_hierarchy,
                outcome.map(|result| result.patterns().len())
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The byte offset in segment `bytes` just past the first `blocks` block
/// frame pairs (header + payload), walked with the frame decoder.
fn block_boundary(bytes: &[u8], blocks: u64) -> usize {
    let (_, mut pos) = frame::decode_frame(bytes).unwrap();
    for _ in 0..2 * blocks {
        let (_, consumed) =
            frame::decode_frame_with(&bytes[pos..], frame::FrameChecksum::Fnv1aWide).unwrap();
        pos += consumed;
    }
    pos
}

#[test]
fn truncation_is_detected_by_the_header_only_path() {
    let (vocab, items) = small_vocab();
    let db = sample_db(&items, 200);
    let dir = temp_dir("trunc-headers");
    let opts = StoreOptions::default()
        .with_partitioning(Partitioning::hash(1))
        .with_block_budget(64);
    lash_store::convert::write_database(&dir, &vocab, &db, opts).unwrap();
    let seg = dir.join("gen-00000").join("shard-00000.seg");
    let bytes = std::fs::read(&seg).unwrap();

    // Cut inside the last block's payload: every header frame is intact,
    // and the validation walk behind the headers must still notice.
    std::fs::write(&seg, &bytes[..bytes.len() - 3]).unwrap();
    let reader = CorpusReader::open(&dir).unwrap();
    assert!(
        reader.block_headers(0).is_err(),
        "mid-payload truncation went undetected"
    );
    assert!(
        reader.flist().is_err(),
        "flist accepted a truncated segment"
    );

    // Cut the second half of the segment off: the frame walk or the
    // manifest block count must flag the shortfall (the exact
    // frame-boundary cut is `truncated_segment_is_detected_on_scan`).
    let header_count = reader.manifest().shards[0].blocks;
    assert!(header_count > 1);
    std::fs::write(&seg, &bytes[..bytes.len() / 2]).unwrap();
    assert!(
        reader.block_headers(0).is_err(),
        "missing trailing blocks went undetected"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn empty_corpus_round_trips() {
    let (vocab, _) = small_vocab();
    let dir = temp_dir("empty");
    let w = CorpusWriter::create(&dir, &vocab, StoreOptions::default()).unwrap();
    let manifest = w.finish().unwrap();
    assert_eq!(manifest.num_sequences, 0);
    let reader = CorpusReader::open(&dir).unwrap();
    assert!(reader.is_empty());
    assert_eq!(reader.to_database().unwrap().len(), 0);
    assert_eq!(reader.scan().count(), 0);
    // Header-only f-list of an empty corpus: all zeros.
    let flist = reader.flist().unwrap().unwrap();
    for item in vocab.items() {
        assert_eq!(flist.frequency(item), 0);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn block_headers_skip_payloads_but_see_all_blocks() {
    let (vocab, items) = small_vocab();
    let db = sample_db(&items, 100);
    let dir = temp_dir("headers");
    let opts = StoreOptions::default()
        .with_partitioning(Partitioning::hash(2))
        .with_block_budget(32);
    lash_store::convert::write_database(&dir, &vocab, &db, opts).unwrap();
    let reader = CorpusReader::open(&dir).unwrap();
    for shard in 0..reader.num_shards() {
        let headers = reader.block_headers(shard).unwrap();
        let stats = &reader.manifest().shards[shard];
        assert_eq!(headers.len() as u64, stats.blocks);
        assert_eq!(
            headers.iter().map(|h| h.records as u64).sum::<u64>(),
            stats.sequences
        );
        // Headers tile the shard's id range in order.
        for pair in headers.windows(2) {
            assert!(pair[0].last_seq < pair[1].first_seq);
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn batched_scan_matches_record_scan() {
    let (vocab, items) = small_vocab();
    let db = sample_db(&items, 120);
    let dir = temp_dir("batch");
    let opts = StoreOptions::default()
        .with_partitioning(Partitioning::hash(3))
        .with_block_budget(48);
    lash_store::convert::write_database(&dir, &vocab, &db, opts).unwrap();
    let reader = CorpusReader::open(&dir).unwrap();
    for shard in 0..reader.num_shards() {
        let by_record: Vec<(u64, Vec<ItemId>)> = reader
            .scan_shard(shard)
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        let mut by_batch: Vec<(u64, Vec<ItemId>)> = Vec::new();
        let mut scan = reader.scan_shard(shard).unwrap();
        let mut batches = 0u64;
        while let Some(batch) = scan.next_batch().unwrap() {
            batches += 1;
            assert!(!batch.is_empty());
            assert_eq!(
                batch.arena().len(),
                batch.iter().map(|(_, s)| s.len()).sum::<usize>()
            );
            for (id, seq) in batch.iter() {
                by_batch.push((id, seq.to_vec()));
            }
        }
        assert_eq!(by_batch, by_record);
        assert_eq!(batches, reader.manifest().shards[shard].blocks);
        assert_eq!(scan.blocks_decoded(), batches);
        assert_eq!(scan.blocks_pruned(), 0);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn block_filter_skips_payloads_without_reading_them() {
    let (vocab, items) = small_vocab();
    let db = sample_db(&items, 120);
    let dir = temp_dir("filter");
    let opts = StoreOptions::default()
        .with_partitioning(Partitioning::hash(1))
        .with_block_budget(48);
    lash_store::convert::write_database(&dir, &vocab, &db, opts).unwrap();
    let reader = CorpusReader::open(&dir).unwrap();
    let total_blocks = reader.manifest().shards[0].blocks;
    assert!(total_blocks > 1, "need several blocks to make pruning real");

    // Rejecting every block scans nothing but still walks the whole file.
    let reject = |_: &lash_store::BlockHeader| false;
    let mut scan = reader.scan_shard_filtered(0, &reject).unwrap();
    assert!(scan.next_batch().unwrap().is_none());
    assert_eq!(scan.blocks_pruned(), total_blocks);
    assert_eq!(scan.blocks_decoded(), 0);

    // Accepting every block is the plain scan.
    let accept = |_: &lash_store::BlockHeader| true;
    let full: Vec<_> = reader
        .scan_shard_filtered(0, &accept)
        .unwrap()
        .map(|r| r.unwrap())
        .collect();
    assert_eq!(full.len() as u64, reader.manifest().shards[0].sequences);

    // A sketch-based filter keeps exactly the blocks naming the item — and
    // every kept sequence set is a superset of the item's occurrences.
    let b1 = vocab.lookup("b1").unwrap();
    let keep_b1 =
        |h: &lash_store::BlockHeader| h.sketch.iter().any(|&(item, _)| item == b1.as_u32());
    let mut scan = reader.scan_shard_filtered(0, &keep_b1).unwrap();
    let mut kept_ids = Vec::new();
    while let Some(batch) = scan.next_batch().unwrap() {
        for (id, _) in batch.iter() {
            kept_ids.push(id);
        }
    }
    assert!(scan.blocks_decoded() + scan.blocks_pruned() == total_blocks);
    for (id, seq) in db.iter().enumerate().map(|(i, s)| (i as u64, s)) {
        if seq.contains(&b1) {
            assert!(kept_ids.contains(&id), "sequence {id} with b1 was pruned");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn pruned_scan_of_an_empty_shard_yields_nothing() {
    let (vocab, items) = small_vocab();
    // 10 sequences, 4 range shards of 100 ids each: shards 1..4 are empty.
    let db = sample_db(&items, 10);
    let dir = temp_dir("pruned-empty");
    let opts = StoreOptions::default().with_partitioning(Partitioning::range(4, 100));
    lash_store::convert::write_database(&dir, &vocab, &db, opts).unwrap();
    let reader = CorpusReader::open(&dir).unwrap();
    for shard in 1..4 {
        assert_eq!(reader.manifest().shards[shard].sequences, 0);
        // Plain scan: clean end, no blocks.
        let mut scan = reader.scan_shard(shard).unwrap();
        assert!(scan.next_batch().unwrap().is_none());
        assert_eq!(scan.blocks_decoded(), 0);
        assert_eq!(scan.blocks_pruned(), 0);
        // Pruned scan: same — an empty segment must not error or loop.
        let mut seen = 0u64;
        reader
            .scan_shard_pruned(shard, &|_| true, &mut |_, _| seen += 1)
            .unwrap();
        assert_eq!(seen, 0);
        reader
            .scan_shard_pruned(shard, &|_| false, &mut |_, _| seen += 1)
            .unwrap();
        assert_eq!(seen, 0);
        // Header iteration agrees.
        assert!(reader.block_headers(shard).unwrap().is_empty());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn pruned_scan_where_every_block_is_pruned_skips_all_payloads() {
    let (vocab, items) = small_vocab();
    let db = sample_db(&items, 120);
    let dir = temp_dir("pruned-all");
    let opts = StoreOptions::default()
        .with_partitioning(Partitioning::hash(2))
        .with_block_budget(48);
    lash_store::convert::write_database(&dir, &vocab, &db, opts).unwrap();
    let reader = CorpusReader::open(&dir).unwrap();
    // No item is ever relevant: every block's sketch proves it away, so the
    // scan decodes zero payloads but still walks (and length-checks) the
    // whole segment.
    for shard in 0..ShardedCorpus::num_shards(&reader) {
        let mut seen = 0u64;
        reader
            .scan_shard_pruned(shard, &|_| false, &mut |_, _| seen += 1)
            .unwrap();
        assert_eq!(seen, 0);
        let reject = |_: &lash_store::BlockHeader| false;
        let mut scan = reader.scan_shard_filtered(shard, &reject).unwrap();
        assert!(scan.next_batch().unwrap().is_none());
        assert_eq!(scan.blocks_decoded(), 0);
        assert_eq!(scan.blocks_pruned(), reader.manifest().shards[shard].blocks);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn pruned_scan_without_sketches_degrades_to_a_full_scan() {
    let (vocab, items) = small_vocab();
    let db = sample_db(&items, 90);
    let dir = temp_dir("pruned-nosketches");
    let opts = StoreOptions::default()
        .with_partitioning(Partitioning::hash(2))
        .with_block_budget(48)
        .with_sketches(false);
    lash_store::convert::write_database(&dir, &vocab, &db, opts).unwrap();
    // A second generation, so the degradation also covers chained scans.
    let mut incr = lash_store::IncrementalWriter::open(&dir).unwrap();
    incr.append(&[items[0], items[2]]).unwrap();
    incr.finish().unwrap();
    let reader = CorpusReader::open(&dir).unwrap();
    assert!(!reader.manifest().sketches);
    // Sketch-less corpora cannot prove any block irrelevant: even an
    // always-false predicate must deliver every sequence, never skip data.
    let mut seen = 0u64;
    for shard in 0..ShardedCorpus::num_shards(&reader) {
        reader
            .scan_shard_pruned(shard, &|_| false, &mut |_, _| seen += 1)
            .unwrap();
    }
    assert_eq!(seen, db.len() as u64 + 1);
    // And the header-only f-list is unavailable, not wrong.
    assert!(reader.flist().unwrap().is_none());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn pruned_trait_scan_respects_the_relevance_contract() {
    let (vocab, items) = small_vocab();
    let db = sample_db(&items, 100);
    let dir = temp_dir("pruned-trait");
    let opts = StoreOptions::default()
        .with_partitioning(Partitioning::hash(2))
        .with_block_budget(48);
    lash_store::convert::write_database(&dir, &vocab, &db, opts).unwrap();
    let reader = CorpusReader::open(&dir).unwrap();

    // Nothing relevant → nothing decoded (sketches prove every block away).
    let mut seen = 0u64;
    for shard in 0..ShardedCorpus::num_shards(&reader) {
        reader
            .scan_shard_pruned(shard, &|_| false, &mut |_, _| seen += 1)
            .unwrap();
    }
    assert_eq!(seen, 0);

    // Everything relevant → the full corpus.
    let mut seen = 0u64;
    for shard in 0..ShardedCorpus::num_shards(&reader) {
        reader
            .scan_shard_pruned(shard, &|_| true, &mut |_, _| seen += 1)
            .unwrap();
    }
    assert_eq!(seen, db.len() as u64);

    // One relevant item → every sequence whose G1 closure holds it is kept.
    let b = vocab.lookup("B").unwrap();
    let mut kept = Vec::new();
    for shard in 0..ShardedCorpus::num_shards(&reader) {
        reader
            .scan_shard_pruned(shard, &|item| item == b, &mut |id, _| kept.push(id))
            .unwrap();
    }
    for (id, seq) in db.iter().enumerate().map(|(i, s)| (i as u64, s)) {
        // B is an ancestor of b1/b2 and itself — closure membership.
        let relevant = seq.iter().any(|&it| it == b || vocab.parent(it) == Some(b));
        if relevant {
            assert!(kept.contains(&id), "relevant sequence {id} was pruned");
        }
    }

    // A corpus without sketches never prunes.
    let dir2 = temp_dir("pruned-nosketch");
    let opts = StoreOptions::default()
        .with_block_budget(48)
        .with_sketches(false);
    lash_store::convert::write_database(&dir2, &vocab, &db, opts).unwrap();
    let reader2 = CorpusReader::open(&dir2).unwrap();
    let mut seen = 0u64;
    for shard in 0..ShardedCorpus::num_shards(&reader2) {
        reader2
            .scan_shard_pruned(shard, &|_| false, &mut |_, _| seen += 1)
            .unwrap();
    }
    assert_eq!(seen, db.len() as u64);
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&dir2).unwrap();
}

#[test]
fn pruned_scan_hoists_the_relevance_predicate_per_scan() {
    // The fix under test: `scan_shard_pruned` evaluates `relevant` once per
    // vocabulary item per scan (a hoisted lookup table), not once per
    // (block, sketch entry) — while making *identical* pruning decisions.
    use std::sync::atomic::AtomicUsize;

    let (vocab, items) = small_vocab();
    let db = sample_db(&items, 400);
    let dir = temp_dir("pruned-hoist");
    // A tiny budget forces many blocks per shard, so the per-block cost of
    // the old behavior would be unmistakable in the call count.
    let opts = StoreOptions::default()
        .with_partitioning(Partitioning::hash(2))
        .with_block_budget(32);
    lash_store::convert::write_database(&dir, &vocab, &db, opts).unwrap();
    let reader = CorpusReader::open(&dir).unwrap();
    let blocks: u64 = reader.manifest().shards.iter().map(|s| s.blocks).sum();
    assert!(
        blocks as usize > vocab.len(),
        "need more blocks ({blocks}) than vocabulary items ({}) for the count to discriminate",
        vocab.len()
    );

    let b = vocab.lookup("B").unwrap();
    for predicate in [
        (&|item: ItemId| item == b) as &(dyn Fn(ItemId) -> bool + Sync),
        &|_| false,
        &|item: ItemId| item.as_u32().is_multiple_of(2),
    ] {
        // Hoisted path, with every predicate evaluation counted.
        let calls = AtomicUsize::new(0);
        let counted = |item: ItemId| {
            calls.fetch_add(1, Ordering::Relaxed);
            predicate(item)
        };
        let mut pruned_ids: Vec<u64> = Vec::new();
        for shard in 0..ShardedCorpus::num_shards(&reader) {
            reader
                .scan_shard_pruned(shard, &counted, &mut |id, _| pruned_ids.push(id))
                .unwrap();
        }
        let shards = ShardedCorpus::num_shards(&reader);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            vocab.len() * shards,
            "predicate must be evaluated exactly once per item per shard scan"
        );

        // Reference: the unhoisted per-block decision, straight from the
        // sketch — pruning decisions must be identical.
        let mut reference_ids: Vec<u64> = Vec::new();
        for shard in 0..reader.num_shards() {
            let filter = |header: &lash_store::BlockHeader| {
                header
                    .sketch
                    .iter()
                    .any(|&(item, _)| predicate(ItemId::from_u32(item)))
            };
            let mut scan = reader.scan_shard_filtered(shard, &filter).unwrap();
            while let Some(batch) = scan.next_batch().unwrap() {
                for (id, _) in batch.iter() {
                    reference_ids.push(id);
                }
            }
        }
        pruned_ids.sort_unstable();
        reference_ids.sort_unstable();
        assert_eq!(pruned_ids, reference_ids, "pruning decisions diverged");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

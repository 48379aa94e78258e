//! Acceptance tests for the on-disk corpus: a corpus written by
//! `CorpusWriter` reopens cold and is mined — by the PSM local miner over
//! store-built partitions and by the LASH distributed job — with results
//! identical to the in-memory path, with the distributed map phase driven
//! by the parallel multi-shard scan.

use lash::context::MiningContext;
use lash::datagen::{TextConfig, TextCorpus, TextHierarchy};
use lash::flist::FList;
use lash::miner::{LocalMiner, PsmMiner};
use lash::pattern::PatternArena;
use lash::rewrite::{RewriteScratch, Rewriter};
use lash::sequence::Partition;
use lash::store::{CorpusReader, Partitioning, StoreOptions};
use lash::{GsmParams, Lash, LashConfig, PatternSet, SequenceDatabase, Vocabulary};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lash-int-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_text() -> (Vocabulary, SequenceDatabase) {
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

/// Names + frequencies, the partitioning-independent view of a result.
fn named(
    patterns: &PatternSet,
    ctx: &MiningContext,
    vocab: &Vocabulary,
) -> Vec<(Vec<String>, u64)> {
    let mut v: Vec<_> = patterns
        .iter()
        .map(|(ranks, f)| (ctx.decode_names(ranks, vocab), f))
        .collect();
    v.sort();
    v
}

#[test]
fn cold_reopened_corpus_mines_identically_to_memory() {
    let (vocab, db) = small_text();
    let params = GsmParams::new(8, 1, 3).unwrap();

    // The in-memory reference result.
    let in_memory = Lash::default().mine(&db, &vocab, &params).unwrap();

    // Persist, drop every in-memory handle, reopen cold.
    let dir = temp_dir("mine");
    let opts = StoreOptions::default().with_partitioning(Partitioning::hash(4));
    lash::store::convert::write_database(&dir, &vocab, &db, opts).unwrap();
    drop(db);
    drop(vocab);
    let reader = CorpusReader::open(&dir).unwrap();

    // The LASH distributed job, fed by the parallel multi-shard scan.
    let store_result = reader.mine(&Lash::default(), &params).unwrap();
    assert_eq!(
        named(
            &store_result.pattern_set(),
            store_result.context(),
            reader.vocabulary()
        ),
        named(
            &in_memory.pattern_set(),
            in_memory.context(),
            reader.vocabulary()
        ),
    );
    assert!(!store_result.pattern_set().is_empty());

    // The map phase ran at shard granularity: one input record per shard —
    // four parallel shard scans fed the map tasks, not a per-sequence loop.
    assert_eq!(
        store_result.mine_metrics.counters.map_input_records,
        reader.num_shards() as u64
    );
    // The f-list came from block headers: no preprocessing job ran.
    assert_eq!(
        store_result.preprocess_metrics.counters.map_input_records,
        0
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn psm_local_miner_from_store_matches_memory() {
    let (vocab, db) = small_text();
    let sigma = 10;
    let params = GsmParams::new(sigma, 0, 3).unwrap();
    let in_memory = Lash::default().mine(&db, &vocab, &params).unwrap();

    let dir = temp_dir("psm");
    let opts = StoreOptions::default().with_partitioning(Partitioning::range(3, 150));
    lash::store::convert::write_database(&dir, &vocab, &db, opts).unwrap();
    let reader = CorpusReader::open(&dir).unwrap();

    // Preprocess from headers, then run PSM per pivot over partitions built
    // by streaming the corpus — the local-miner path, no MapReduce involved.
    let flist = reader.flist().unwrap().expect("sketches on by default");
    assert_eq!(&FList::compute(&db, &vocab), &flist);
    let ctx = MiningContext::from_flist_only(reader.vocabulary(), flist, sigma);
    let rewriter = Rewriter::new(ctx.space(), &params);
    let miner = PsmMiner::indexed();
    let mut mined = PatternArena::new();
    let mut ranked = Vec::new();
    let mut scratch = RewriteScratch::default();
    for pivot in 0..ctx.space().num_frequent() {
        let mut raw = Partition::new();
        for record in reader.scan() {
            let (_, items) = record.unwrap();
            ranked.clear();
            ranked.extend(items.iter().map(|&it| ctx.order().rank(it)));
            if let Some(rewritten) = rewriter.rewrite_into(&ranked, pivot, &mut scratch) {
                raw.push(rewritten, 1);
            }
        }
        let partition = Partition::aggregate(raw.iter());
        miner.mine(&partition, pivot, ctx.space(), &params, &mut mined);
    }
    let mined: PatternSet = mined.iter().map(|(p, f)| (p.to_vec(), f)).collect();

    assert_eq!(
        named(&mined, &ctx, reader.vocabulary()),
        named(&in_memory.pattern_set(), in_memory.context(), &vocab),
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn all_partitionings_and_miners_agree_from_store() {
    let (vocab, db) = small_text();
    let params = GsmParams::new(12, 1, 3).unwrap();
    let want = {
        let r = Lash::default().mine(&db, &vocab, &params).unwrap();
        named(&r.pattern_set(), r.context(), &vocab)
    };
    for (tag, partitioning) in [
        ("hash1", Partitioning::hash(1)),
        ("hash8", Partitioning::hash(8)),
        ("range", Partitioning::range(5, 90)),
    ] {
        let dir = temp_dir(tag);
        let opts = StoreOptions::default()
            .with_partitioning(partitioning)
            // Tiny blocks: many headers, exercises block machinery.
            .with_block_budget(256);
        lash::store::convert::write_database(&dir, &vocab, &db, opts).unwrap();
        let reader = CorpusReader::open(&dir).unwrap();
        for miner in [lash::MinerKind::Dfs, lash::MinerKind::PsmIndexed] {
            let result = reader
                .mine(&Lash::new(LashConfig::default().with_miner(miner)), &params)
                .unwrap();
            assert_eq!(
                named(&result.pattern_set(), result.context(), reader.vocabulary()),
                want,
                "partitioning {tag}, miner {}",
                miner.name()
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn sketchless_corpus_falls_back_to_scan_preprocessing() {
    let (vocab, db) = small_text();
    let params = GsmParams::new(10, 1, 3).unwrap();
    let in_memory = Lash::default().mine(&db, &vocab, &params).unwrap();

    let dir = temp_dir("nosketch");
    let opts = StoreOptions::default()
        .with_partitioning(Partitioning::hash(3))
        .with_sketches(false);
    lash::store::convert::write_database(&dir, &vocab, &db, opts).unwrap();
    let reader = CorpusReader::open(&dir).unwrap();
    assert!(reader.flist().unwrap().is_none());
    let result = reader.mine(&Lash::default(), &params).unwrap();
    assert_eq!(
        named(&result.pattern_set(), result.context(), reader.vocabulary()),
        named(&in_memory.pattern_set(), in_memory.context(), &vocab),
    );
    // Without sketches the sharded f-list job did run — one record per shard.
    assert_eq!(
        result.preprocess_metrics.counters.map_input_records,
        reader.num_shards() as u64
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn incrementally_grown_corpus_mines_like_a_rewritten_one() {
    // The facade-level lifecycle: grow a corpus in three sealed
    // generations, mine it with the distributed job, compact, mine again —
    // and always match the result of a corpus written in one shot.
    let (vocab, db) = small_text();
    let params = GsmParams::new(8, 1, 3).unwrap();

    let oneshot_dir = temp_dir("gen-oneshot");
    let opts = || StoreOptions::default().with_partitioning(Partitioning::hash(4));
    lash::store::convert::write_database(&oneshot_dir, &vocab, &db, opts()).unwrap();
    let oneshot = CorpusReader::open(&oneshot_dir).unwrap();
    let want = {
        let r = oneshot.mine(&Lash::default(), &params).unwrap();
        named(&r.pattern_set(), r.context(), oneshot.vocabulary())
    };

    let grown_dir = temp_dir("gen-grown");
    let third = db.len() / 3;
    let mut writer = lash::store::CorpusWriter::create(&grown_dir, &vocab, opts()).unwrap();
    for i in 0..third {
        writer.append(db.get(i)).unwrap();
    }
    writer.finish().unwrap();
    for range in [third..2 * third, 2 * third..db.len()] {
        let mut incr = lash::store::IncrementalWriter::open(&grown_dir).unwrap();
        for i in range {
            incr.append(db.get(i)).unwrap();
        }
        incr.finish().unwrap();
    }

    let grown = CorpusReader::open(&grown_dir).unwrap();
    assert_eq!(grown.len(), db.len() as u64);
    let got = {
        let r = grown.mine(&Lash::default(), &params).unwrap();
        named(&r.pattern_set(), r.context(), grown.vocabulary())
    };
    assert_eq!(got, want, "generation-grown corpus mined differently");

    lash::store::compact::compact(
        &grown_dir,
        &lash::store::CompactionConfig::default().with_max_generations(1),
    )
    .unwrap();
    let compacted = CorpusReader::open(&grown_dir).unwrap();
    assert_eq!(compacted.num_generations(), 1);
    let got = {
        let r = compacted.mine(&Lash::default(), &params).unwrap();
        named(&r.pattern_set(), r.context(), compacted.vocabulary())
    };
    assert_eq!(got, want, "compacted corpus mined differently");

    std::fs::remove_dir_all(&oneshot_dir).unwrap();
    std::fs::remove_dir_all(&grown_dir).unwrap();
}

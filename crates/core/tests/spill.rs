//! Integration test for the acceptance criterion of the out-of-core
//! shuffle: a mine job run with a small `spill_threshold_bytes` produces
//! byte-identical frequent patterns to the in-memory path, with the
//! counters reporting nonzero spilled bytes and merged runs.

use lash_core::context::MiningContext;
use lash_core::distributed::naive_job::run_naive;
use lash_core::{GsmParams, Lash, LashConfig, SequenceDatabase, Vocabulary, VocabularyBuilder};
use lash_mapreduce::EngineConfig;

/// A small product-session corpus with a two-level hierarchy, sized so the
/// mine job's shuffle carries a few kilobytes.
fn corpus() -> (Vocabulary, SequenceDatabase) {
    let mut vb = VocabularyBuilder::new();
    let electronics = vb.intern("electronics");
    let media = vb.intern("media");
    let cameras: Vec<_> = (0..4)
        .map(|i| vb.child(&format!("camera{i}"), electronics))
        .collect();
    let phones: Vec<_> = (0..4)
        .map(|i| vb.child(&format!("phone{i}"), electronics))
        .collect();
    let books: Vec<_> = (0..6)
        .map(|i| vb.child(&format!("book{i}"), media))
        .collect();
    let vocab = vb.finish().unwrap();

    let mut db = SequenceDatabase::new();
    // Deterministic pseudo-random sessions mixing the three families.
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..120 {
        let len = 3 + (next() % 5) as usize;
        let mut seq = Vec::with_capacity(len);
        for _ in 0..len {
            let pick = next() as usize;
            seq.push(match pick % 3 {
                0 => cameras[pick % cameras.len()],
                1 => phones[pick % phones.len()],
                _ => books[pick % books.len()],
            });
        }
        db.push(&seq);
    }
    (vocab, db)
}

fn config(threshold: Option<usize>) -> LashConfig {
    LashConfig::new(
        EngineConfig::default()
            .with_split_size(8)
            .with_reduce_tasks(4)
            .with_spill_threshold(threshold),
    )
}

#[test]
fn spilled_mine_job_is_byte_identical_to_in_memory() {
    let (vocab, db) = corpus();
    let params = GsmParams::new(4, 1, 4).unwrap();

    let in_memory = Lash::new(config(None)).mine(&db, &vocab, &params).unwrap();
    assert_eq!(in_memory.mine_metrics.counters.spilled_bytes, 0);
    assert!(
        !in_memory.pattern_set().is_empty(),
        "test corpus must actually produce patterns"
    );

    // A threshold far below the shuffle volume forces real spills.
    let spilled = Lash::new(config(Some(256)))
        .mine(&db, &vocab, &params)
        .unwrap();
    assert_eq!(
        spilled.pattern_set(),
        in_memory.pattern_set(),
        "diff: {:?}",
        spilled.pattern_set().diff(&in_memory.pattern_set())
    );
    assert_eq!(spilled.patterns(), in_memory.patterns());

    let c = &spilled.mine_metrics.counters;
    assert!(c.spilled_bytes > 0, "no bytes spilled: {c:?}");
    assert!(c.spilled_runs > 0);
    assert!(c.merged_runs > 0);
    assert!(c.peak_resident_bytes > 0);
}

#[test]
fn spilled_sharded_mine_job_matches_too() {
    let (vocab, db) = corpus();
    let params = GsmParams::new(4, 1, 4).unwrap();
    let reference = Lash::new(config(None)).mine(&db, &vocab, &params).unwrap();
    let spilled = Lash::new(config(Some(128)))
        .mine_sharded(&db.shards(16), &vocab, &params, None)
        .unwrap();
    assert_eq!(spilled.pattern_set(), reference.pattern_set());
    assert!(spilled.mine_metrics.counters.spilled_bytes > 0);
}

#[test]
fn spilled_baselines_agree_with_lash() {
    let (vocab, db) = corpus();
    let params = GsmParams::new(4, 1, 3).unwrap();
    let lash = Lash::new(config(Some(64)))
        .mine(&db, &vocab, &params)
        .unwrap();
    let ctx = MiningContext::build(&db, &vocab, params.sigma);
    let cluster = EngineConfig::default()
        .with_split_size(8)
        .with_reduce_tasks(4)
        .with_spill_threshold(Some(64));
    let (naive, metrics) = run_naive(&ctx, &params, &cluster).unwrap();
    assert_eq!(lash.pattern_set(), naive);
    assert!(metrics.counters.spilled_bytes > 0);
}

/// 150 frequent items under 4 parents (ranks up to ~153, so two-byte
/// tokens) and 260 copies of one session, whose rewrites aggregate to
/// weights past 127 (two-byte weight varints). Every other session pairs
/// two neighbouring items around two items seen only three times — below
/// σ = 4 and without a parent, so rewrites carry them as a blank run.
fn dense_corpus() -> (Vocabulary, SequenceDatabase) {
    let mut vb = VocabularyBuilder::new();
    let parents: Vec<_> = (0..4).map(|p| vb.intern(&format!("P{p}"))).collect();
    let items: Vec<_> = (0..150)
        .map(|i| vb.child(&format!("w{i}"), parents[i % parents.len()]))
        .collect();
    let rare: Vec<_> = (0..300).map(|r| vb.intern(&format!("r{r}"))).collect();
    let vocab = vb.finish().unwrap();
    let mut db = SequenceDatabase::new();
    for _ in 0..260 {
        db.push(&[items[0], items[1], items[2]]);
    }
    for i in 0..items.len() {
        for _ in 0..3 {
            db.push(&[
                items[i],
                rare[2 * i],
                rare[2 * i + 1],
                items[(i + 1) % items.len()],
            ]);
        }
    }
    (vocab, db)
}

#[test]
fn byte_combine_across_merge_passes_matches_in_memory() {
    let (vocab, db) = dense_corpus();
    let params = GsmParams::new(4, 2, 3).unwrap();
    let cluster = |threshold| {
        EngineConfig::default()
            .with_split_size(64)
            .with_reduce_tasks(2)
            .with_spill_threshold(threshold)
            .with_merge_fan_in(2)
    };
    let in_memory = Lash::new(LashConfig::new(cluster(None)))
        .mine(&db, &vocab, &params)
        .unwrap();
    // The shared session's pair is supported by all 260 copies.
    assert!(
        in_memory.patterns().iter().any(|p| p.frequency >= 260),
        "test corpus must aggregate weights past 127"
    );
    // Every record spills as its own run, so nearly all aggregation
    // happens in the hierarchical merge passes.
    let spilled = Lash::new(LashConfig::new(cluster(Some(4))))
        .mine(&db, &vocab, &params)
        .unwrap();
    assert_eq!(
        spilled.pattern_set(),
        in_memory.pattern_set(),
        "diff: {:?}",
        spilled.pattern_set().diff(&in_memory.pattern_set())
    );
    assert_eq!(spilled.patterns(), in_memory.patterns());
    let c = &spilled.mine_metrics.counters;
    assert!(c.merge_passes > 0, "no merge passes: {c:?}");
    assert!(c.merged_combined_pairs > 0, "nothing combined: {c:?}");
}

//! Pins the sorted-output guarantee the index builder relies on: every
//! mining entry point — `Lash::mine`, `Lash::mine_sharded`, and
//! `CorpusReader::mine` — returns `patterns()` in the identical,
//! deterministic order across repeated runs, across parallelism settings,
//! and across the in-memory vs. spilled shuffle paths.

use lash::mapreduce::EngineConfig;
use lash::pattern::sort_patterns_lexicographic;
use lash::{GsmParams, Lash, LashConfig, Pattern, SequenceDatabase, Vocabulary};
use lash_datagen::{TextConfig, TextCorpus, TextHierarchy};
use lash_store::{CorpusReader, StoreOptions};

fn dataset() -> (Vocabulary, SequenceDatabase) {
    TextCorpus::generate(&TextConfig {
        sentences: 600,
        lemmas: 250,
        ..TextConfig::default()
    })
    .dataset(TextHierarchy::LP)
}

fn params() -> GsmParams {
    GsmParams::new(4, 1, 3).unwrap()
}

/// Two full pattern vectors must agree **including order** — that is the
/// guarantee, not just set equality.
fn assert_same_order(a: &[Pattern], b: &[Pattern], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: pattern counts differ");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(x, y, "{what}: patterns diverge at position {i}");
    }
}

#[test]
fn all_entry_points_and_shuffle_paths_agree_on_order() {
    let (vocab, db) = dataset();
    let params = params();

    // Reference: the default in-memory pipeline.
    let reference = Lash::default().mine(&db, &vocab, &params).unwrap();
    assert!(
        reference.patterns().len() > 20,
        "the corpus must actually produce patterns ({})",
        reference.patterns().len()
    );

    // Repeated runs are identical.
    let again = Lash::default().mine(&db, &vocab, &params).unwrap();
    assert_same_order(reference.patterns(), again.patterns(), "mine twice");

    // The spilled shuffle (every record spills) is byte-identical in
    // output order to the in-memory path.
    let spilled_cfg = LashConfig::new(
        EngineConfig::default()
            .with_split_size(64)
            .with_spill_threshold(Some(0)),
    );
    let spilled = Lash::new(spilled_cfg).mine(&db, &vocab, &params).unwrap();
    assert_same_order(reference.patterns(), spilled.patterns(), "spilled shuffle");

    // The in-memory path forced explicitly (CI may export
    // LASH_SPILL_THRESHOLD=0, which the default picks up).
    let in_memory_cfg = LashConfig::new(EngineConfig::default().with_spill_threshold(None));
    let in_memory = Lash::new(in_memory_cfg).mine(&db, &vocab, &params).unwrap();
    assert_same_order(
        reference.patterns(),
        in_memory.patterns(),
        "in-memory shuffle",
    );

    // Parallelism does not perturb the order.
    for par in [1, 7] {
        let cfg = LashConfig::new(EngineConfig::default().with_parallelism(par));
        let run = Lash::new(cfg).mine(&db, &vocab, &params).unwrap();
        assert_same_order(reference.patterns(), run.patterns(), "parallelism");
    }

    // The sharded pipeline over the in-memory database.
    let sharded = Lash::default()
        .mine_sharded(&db.shards(64), &vocab, &params, None)
        .unwrap();
    assert_same_order(reference.patterns(), sharded.patterns(), "mine_sharded");

    // The sharded pipeline from a cold-opened on-disk corpus, in-memory
    // and spilled.
    let dir = std::env::temp_dir().join(format!("lash-determinism-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    lash_store::convert::write_database(&dir, &vocab, &db, StoreOptions::default()).unwrap();
    let reader = CorpusReader::open(&dir).unwrap();
    let from_store = reader.mine(&Lash::default(), &params).unwrap();
    assert_same_order(
        reference.patterns(),
        from_store.patterns(),
        "CorpusReader::mine",
    );
    let from_store_spilled = reader
        .mine(
            &Lash::new(LashConfig::new(
                EngineConfig::default().with_spill_threshold(Some(0)),
            )),
            &params,
        )
        .unwrap();
    assert_same_order(
        reference.patterns(),
        from_store_spilled.patterns(),
        "CorpusReader::mine spilled",
    );
    std::fs::remove_dir_all(&dir).unwrap();

    // The order itself is the documented one: frequency descending, ties
    // by ascending items — and re-sorting lexicographically is exactly
    // what the index builder consumes.
    let freqs: Vec<u64> = reference.patterns().iter().map(|p| p.frequency).collect();
    assert!(freqs.windows(2).all(|w| w[0] >= w[1]), "frequency-sorted");
    let mut lex = reference.patterns().to_vec();
    sort_patterns_lexicographic(&mut lex);
    assert!(
        lex.windows(2).all(|w| w[0].items < w[1].items),
        "lexicographic order is strict (patterns are unique)"
    );
}

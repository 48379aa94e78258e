//! Integration tests spanning the whole workspace: synthetic corpora from
//! `lash-datagen`, the full LASH pipeline on the MapReduce engine, baseline
//! agreement, determinism, and fault tolerance.

use lash::context::MiningContext;
use lash::datagen::{
    paper_example, ProductConfig, ProductCorpus, ProductHierarchy, TextConfig, TextCorpus,
    TextHierarchy,
};
use lash::distributed::mgfsm::{lash_flat, MgFsm};
use lash::distributed::naive_job::run_naive;
use lash::distributed::semi_naive_job::run_semi_naive;
use lash::mapreduce::{EngineConfig, FailurePlan, JobMetrics, Phase};
use lash::matching::matches;
use lash::{GsmParams, Lash, LashConfig, MinerKind};

fn small_text() -> (lash::Vocabulary, lash::SequenceDatabase) {
    TextCorpus::generate(&TextConfig {
        sentences: 300,
        lemmas: 120,
        pos_tags: 8,
        avg_sentence_len: 10.0,
        zipf_exponent: 1.0,
        seed: 17,
    })
    .dataset(TextHierarchy::CLP)
}

fn small_products() -> (lash::Vocabulary, lash::SequenceDatabase) {
    ProductCorpus::generate(&ProductConfig {
        users: 400,
        products: 150,
        root_categories: 6,
        branching: 3,
        max_depth: 7,
        avg_session_len: 4.0,
        zipf_exponent: 1.0,
        seed: 23,
    })
    .dataset(ProductHierarchy::H8)
}

#[test]
fn lash_agrees_with_naive_on_text_corpus() {
    let (vocab, db) = small_text();
    let params = GsmParams::new(10, 1, 3).unwrap();
    let lash = Lash::new(LashConfig::default())
        .mine(&db, &vocab, &params)
        .unwrap();
    let ctx = MiningContext::build(&db, &vocab, params.sigma);
    let (naive, _) = run_naive(&ctx, &params, &EngineConfig::default()).unwrap();
    assert_eq!(lash.pattern_set(), naive);
    assert!(!naive.is_empty(), "test corpus should produce patterns");
}

#[test]
fn all_miners_agree_on_product_corpus() {
    let (vocab, db) = small_products();
    let params = GsmParams::new(8, 1, 4).unwrap();
    let reference = Lash::new(LashConfig::default().with_miner(MinerKind::Naive))
        .mine(&db, &vocab, &params)
        .unwrap();
    for miner in [
        MinerKind::Bfs,
        MinerKind::Dfs,
        MinerKind::Psm,
        MinerKind::PsmIndexed,
    ] {
        let result = Lash::new(LashConfig::default().with_miner(miner))
            .mine(&db, &vocab, &params)
            .unwrap();
        assert_eq!(
            reference.pattern_set(),
            result.pattern_set(),
            "miner {} diverged: {:?}",
            miner.name(),
            reference.pattern_set().diff(&result.pattern_set())
        );
    }
    assert!(!reference.pattern_set().is_empty());
}

#[test]
fn semi_naive_agrees_on_text_corpus() {
    let (vocab, db) = small_text();
    let params = GsmParams::new(12, 0, 3).unwrap();
    let ctx = MiningContext::build(&db, &vocab, params.sigma);
    let cluster = EngineConfig::default();
    let (naive, naive_metrics) = run_naive(&ctx, &params, &cluster).unwrap();
    let (semi, semi_metrics) = run_semi_naive(&ctx, &params, &cluster).unwrap();
    assert_eq!(naive, semi);
    // Pruning must not *increase* the shuffle.
    assert!(semi_metrics.counters.map_output_bytes <= naive_metrics.counters.map_output_bytes);
}

#[test]
fn reported_frequencies_match_direct_support_counting() {
    let (vocab, db) = small_products();
    let params = GsmParams::new(8, 1, 3).unwrap();
    let result = Lash::new(LashConfig::default())
        .mine(&db, &vocab, &params)
        .unwrap();
    // The result's context ranks sequences on the fly and keeps none, so
    // rank the input here, through the same order.
    let ctx = result.context();
    assert!(ctx.ranked_db().is_empty());
    assert!(!result.pattern_set().is_empty());
    let ranked: Vec<Vec<u32>> = db
        .iter()
        .map(|seq| seq.iter().map(|&item| ctx.order().rank(item)).collect())
        .collect();
    for (pattern, frequency) in result.pattern_set().iter() {
        let direct = ranked
            .iter()
            .filter(|seq| matches(pattern, seq, ctx.space(), params.gamma))
            .count() as u64;
        assert_eq!(direct, frequency, "pattern {pattern:?}");
    }
}

#[test]
fn results_are_deterministic_across_parallelism_and_splits() {
    let (vocab, db) = small_text();
    let params = GsmParams::new(10, 0, 3).unwrap();
    let reference = Lash::new(LashConfig::new(EngineConfig::sequential()))
        .mine(&db, &vocab, &params)
        .unwrap();
    for (par, split) in [(2, 7), (4, 64), (8, 1000)] {
        let cfg = EngineConfig::default()
            .with_parallelism(par)
            .with_split_size(split)
            .with_reduce_tasks(5);
        let result = Lash::new(LashConfig::new(cfg))
            .mine(&db, &vocab, &params)
            .unwrap();
        assert_eq!(
            reference.pattern_set(),
            result.pattern_set(),
            "par={par} split={split}"
        );
    }
}

#[test]
fn pipeline_survives_injected_failures_everywhere() {
    let (vocab, db) = small_products();
    let params = GsmParams::new(8, 1, 3).unwrap();
    let clean = Lash::new(LashConfig::default())
        .mine(&db, &vocab, &params)
        .unwrap();
    let plan = FailurePlan::none()
        .fail_once(Phase::Map, 0)
        .fail_n_times(Phase::Map, 1, 3)
        .fail_once(Phase::Reduce, 0)
        .fail_n_times(Phase::Reduce, 2, 2);
    let cfg = EngineConfig::default()
        .with_split_size(50)
        .with_reduce_tasks(4)
        .with_failures(plan);
    let result = Lash::new(LashConfig::new(cfg))
        .mine(&db, &vocab, &params)
        .unwrap();
    assert_eq!(clean.pattern_set(), result.pattern_set());
    let failed = result.preprocess_metrics.counters.failed_map_tasks
        + result.preprocess_metrics.counters.failed_reduce_tasks
        + result.mine_metrics.counters.failed_map_tasks
        + result.mine_metrics.counters.failed_reduce_tasks;
    assert!(failed >= 7, "both jobs see the same failure plan");
}

#[test]
fn flat_mining_agrees_between_mgfsm_and_lash() {
    let (vocab, db) = small_text();
    let params = GsmParams::new(10, 1, 4).unwrap();
    let a = MgFsm::new(EngineConfig::default())
        .mine(&db, &vocab, &params)
        .unwrap();
    let b = lash_flat(EngineConfig::default())
        .mine(&db, &vocab, &params)
        .unwrap();
    assert_eq!(a.pattern_set(), b.pattern_set());
    // Flat mining never produces more patterns than GSM on the same data.
    let gsm = Lash::new(LashConfig::default())
        .mine(&db, &vocab, &params)
        .unwrap();
    assert!(a.pattern_set().len() <= gsm.pattern_set().len());
}

#[test]
fn paper_example_via_facade() {
    let (vocab, db) = paper_example();
    let params = GsmParams::new(2, 1, 3).unwrap();
    let result = Lash::new(LashConfig::default())
        .mine(&db, &vocab, &params)
        .unwrap();
    let mut names: Vec<(String, u64)> = result
        .patterns()
        .iter()
        .map(|p| (p.display(&vocab), p.frequency))
        .collect();
    names.sort();
    assert_eq!(
        names,
        vec![
            ("B D".to_owned(), 2),
            ("B a".to_owned(), 2),
            ("B c".to_owned(), 2),
            ("a B".to_owned(), 3),
            ("a B c".to_owned(), 2),
            ("a a".to_owned(), 2),
            ("a b1".to_owned(), 2),
            ("a c".to_owned(), 2),
            ("b1 D".to_owned(), 2),
            ("b1 a".to_owned(), 2),
        ]
    );
}

#[test]
fn scaling_output_grows_superlinearly_with_data() {
    // The weak-scaling caveat of Fig. 6(c): doubling the data more than
    // doubles the output at fixed σ... at least it should grow.
    let corpus = TextCorpus::generate(&TextConfig {
        sentences: 1_000,
        lemmas: 200,
        pos_tags: 8,
        avg_sentence_len: 10.0,
        zipf_exponent: 1.0,
        seed: 31,
    });
    let (vocab, db) = corpus.dataset(TextHierarchy::LP);
    let params = GsmParams::new(20, 0, 3).unwrap();
    let half = Lash::new(LashConfig::default())
        .mine(&db.truncated(db.len() / 2), &vocab, &params)
        .unwrap();
    let full = Lash::new(LashConfig::default())
        .mine(&db, &vocab, &params)
        .unwrap();
    assert!(full.pattern_set().len() > half.pattern_set().len());
}

/// The shuffle's wire bytes, pinned: on the Fig. 1 database under a
/// sequential engine, each job's map side ships exactly these records and
/// bytes. How a job serializes its records may change; what it ships may
/// not, so a refactor of the map side must leave every figure as it is.
#[test]
fn map_output_bytes_are_pinned_on_fig1() {
    let (vocab, db) = paper_example();
    let params = GsmParams::new(2, 1, 3).unwrap();
    let cluster = EngineConfig::sequential();
    let lash = Lash::new(LashConfig::new(cluster.clone()))
        .mine(&db, &vocab, &params)
        .unwrap();
    let ctx = MiningContext::build(&db, &vocab, params.sigma);
    let (_, naive) = run_naive(&ctx, &params, &cluster).unwrap();
    let (_, semi_naive) = run_semi_naive(&ctx, &params, &cluster).unwrap();
    // (map_output_records, map_output_bytes, map_output_materialized_bytes)
    let wire = |m: &JobMetrics| {
        let c = &m.counters;
        (
            c.map_output_records,
            c.map_output_bytes,
            c.map_output_materialized_bytes,
        )
    };
    assert_eq!(wire(&lash.preprocess_metrics), (14, 28, 56), "f-list job");
    assert_eq!(wire(&lash.mine_metrics), (14, 70, 94), "LASH job");
    assert_eq!(wire(&naive), (112, 360, 562), "naive");
    assert_eq!(wire(&semi_naive), (55, 158, 246), "semi-naive");
}

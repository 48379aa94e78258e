//! Property-based integration tests: on random hierarchies, databases, and
//! parameters, every execution strategy of LASH and both baseline jobs must
//! return exactly the GSM oracle's answer, and the partition rewrites must
//! preserve pivot sequences.

#[path = "../crates/core/src/testutil/oracle.rs"]
mod oracle;

use std::collections::BTreeMap;

use lash::context::MiningContext;
use lash::distributed::naive_job::run_naive;
use lash::distributed::semi_naive_job::run_semi_naive;
use lash::enumeration::enumerate_pivot;
use lash::mapreduce::EngineConfig;
use lash::rewrite::{RewriteLevel, RewriteScratch, Rewriter};
use lash::{
    GsmParams, ItemId, Lash, LashConfig, MinerKind, PatternSet, SequenceDatabase, Vocabulary,
    VocabularyBuilder,
};
use proptest::prelude::*;

/// A random forest hierarchy over `n` items: item `i`'s parent is either
/// none or some earlier item (guaranteeing acyclicity).
fn arb_vocabulary(max_items: usize) -> impl Strategy<Value = Vocabulary> {
    prop::collection::vec(prop::option::weighted(0.6, 0..100usize), 2..max_items).prop_map(
        |parents| {
            let mut vb = VocabularyBuilder::new();
            let items: Vec<_> = (0..parents.len())
                .map(|i| vb.intern(&format!("i{i}")))
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

fn arb_database(vocab_len: usize) -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(prop::collection::vec(0..vocab_len as u32, 0..8), 1..10)
}

fn build_db(vocab: &Vocabulary, raw: &[Vec<u32>]) -> SequenceDatabase {
    let mut db = SequenceDatabase::new();
    for seq in raw {
        let items: Vec<_> = seq
            .iter()
            .map(|&i| ItemId::from_u32(i % vocab.len() as u32))
            .collect();
        db.push(&items);
    }
    db
}

/// The oracle's answer for `db` under the hierarchy `parent`, keyed by item
/// ids.
fn oracle_patterns(
    db: &SequenceDatabase,
    parent: impl Fn(u32) -> Option<u32>,
    params: &GsmParams,
) -> BTreeMap<Vec<u32>, u64> {
    let db: Vec<Vec<u32>> = db
        .iter()
        .map(|seq| seq.iter().map(|t| t.as_u32()).collect())
        .collect();
    oracle::gsm(parent, &db, params.sigma, params.gamma, params.lambda)
}

/// A rank-space result mined under `ctx`, keyed by item ids like the
/// oracle's answer.
fn by_item_ids(ctx: &MiningContext, set: &PatternSet) -> BTreeMap<Vec<u32>, u64> {
    set.iter()
        .map(|(ranks, f)| (ctx.decode(ranks).iter().map(|i| i.as_u32()).collect(), f))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline invariant: LASH (all miners, no rewrites, no hierarchy)
    /// and the naive and semi-naive jobs return exactly the oracle's answer
    /// on arbitrary inputs.
    #[test]
    fn lash_equals_naive_enumeration(
        vocab in arb_vocabulary(12),
        raw in arb_database(12),
        sigma in 1u64..4,
        gamma in 0usize..3,
        lambda in 2usize..5,
    ) {
        let db = build_db(&vocab, &raw);
        let params = GsmParams::new(sigma, gamma, lambda).unwrap();
        let expected = oracle_patterns(
            &db,
            |i| vocab.parent(ItemId::from_u32(i)).map(ItemId::as_u32),
            &params,
        );
        let cluster = EngineConfig::default().with_split_size(3).with_reduce_tasks(3);
        let config = || LashConfig::new(cluster.clone());
        let mine = |config: LashConfig| Lash::new(config).mine(&db, &vocab, &params).unwrap();
        let mut runs = vec![("no rewrites", mine(config().with_rewrite_level(RewriteLevel::None)))];
        for miner in [MinerKind::Bfs, MinerKind::Dfs, MinerKind::PsmIndexed] {
            runs.push((miner.name(), mine(config().with_miner(miner))));
        }
        for (name, result) in &runs {
            let got = by_item_ids(result.context(), &result.pattern_set());
            prop_assert_eq!(&expected, &got, "{}", name);
        }
        let ctx = MiningContext::build(&db, &vocab, sigma);
        let (naive, _) = run_naive(&ctx, &params, &cluster).unwrap();
        prop_assert_eq!(&expected, &by_item_ids(&ctx, &naive), "naive job");
        let (semi, _) = run_semi_naive(&ctx, &params, &cluster).unwrap();
        prop_assert_eq!(&expected, &by_item_ids(&ctx, &semi), "semi-naive job");
        // Without the hierarchy (MG-FSM's setting) every item is a root.
        let flat = mine(config().with_hierarchy(false));
        prop_assert_eq!(
            &oracle_patterns(&db, |_| None, &params),
            &by_item_ids(flat.context(), &flat.pattern_set()),
            "no hierarchy"
        );
    }

    /// The rewrite pipeline is w-equivalent: it preserves the pivot-sequence
    /// set of every sequence for every frequent pivot (Lemmas 2–3).
    #[test]
    fn rewrites_preserve_pivot_sequences(
        vocab in arb_vocabulary(10),
        raw in arb_database(10),
        sigma in 1u64..3,
        gamma in 0usize..3,
        lambda in 2usize..5,
    ) {
        let db = build_db(&vocab, &raw);
        let params = GsmParams::new(sigma, gamma, lambda).unwrap();
        let ctx = MiningContext::build(&db, &vocab, sigma);
        let space = ctx.space();
        let rewriter = Rewriter::new(space, &params);
        let mut scratch = RewriteScratch::default();
        for i in 0..ctx.ranked_db().len() {
            let seq = ctx.ranked_seq(i);
            for pivot in 0..space.num_frequent() {
                let original = enumerate_pivot(seq, space, gamma, lambda, pivot);
                let rewritten = match rewriter.rewrite_into(seq, pivot, &mut scratch) {
                    Some(r) => enumerate_pivot(r, space, gamma, lambda, pivot),
                    None => Default::default(),
                };
                prop_assert_eq!(&original, &rewritten, "seq {} pivot {}", i, pivot);
            }
        }
    }

    /// Support monotonicity (Lemma 1) holds on mined output: every prefix of
    /// a mined pattern has at least its frequency.
    #[test]
    fn output_respects_support_monotonicity(
        vocab in arb_vocabulary(10),
        raw in arb_database(10),
        gamma in 0usize..2,
    ) {
        let db = build_db(&vocab, &raw);
        let params = GsmParams::new(1, gamma, 4).unwrap();
        let result = Lash::new(LashConfig::default()).mine(&db, &vocab, &params).unwrap();
        for (pattern, freq) in result.pattern_set().iter() {
            if pattern.len() > 2 {
                let prefix = &pattern[..pattern.len() - 1];
                if let Some(pf) = result.pattern_set().get(prefix) {
                    prop_assert!(pf >= freq, "prefix {:?} of {:?}", prefix, pattern);
                }
            }
        }
    }

    /// Mining is invariant under sequence order permutations of the database
    /// (support is a multiset count).
    #[test]
    fn order_of_sequences_is_irrelevant(
        vocab in arb_vocabulary(8),
        raw in arb_database(8),
        gamma in 0usize..2,
    ) {
        let params = GsmParams::new(2, gamma, 3).unwrap();
        let db = build_db(&vocab, &raw);
        let mut reversed_raw = raw.clone();
        reversed_raw.reverse();
        let db_rev = build_db(&vocab, &reversed_raw);
        let a = Lash::new(LashConfig::default()).mine(&db, &vocab, &params).unwrap();
        let b = Lash::new(LashConfig::default()).mine(&db_rev, &vocab, &params).unwrap();
        // Rank spaces may differ in tie-breaks; compare in name space.
        let to_names = |r: &lash::LashResult| -> Vec<(Vec<String>, u64)> {
            let mut v: Vec<_> = r
                .patterns()
                .iter()
                .map(|p| (p.to_names(&vocab), p.frequency))
                .collect();
            v.sort();
            v
        };
        prop_assert_eq!(to_names(&a), to_names(&b));
    }
}

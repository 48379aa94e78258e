//! Property tests for lash-core's algorithmic kernels: matching against a
//! brute-force oracle, `Gλ` enumeration and the local miners against the GSM
//! oracle on random databases, w-equivalence of the rewriter, and the
//! closed/maximal window-index against the quadratic reference.

#[path = "../src/testutil/oracle.rs"]
mod oracle;

use lash_core::enumeration::{enumerate_pivot, GlEnumerator};
use lash_core::hierarchy::ItemSpace;
use lash_core::matching::matches;
use lash_core::miner::{BfsMiner, DfsMiner, LocalMiner, NaiveMiner, PsmMiner};
use lash_core::pattern::PatternArena;
use lash_core::rewrite::{RewriteScratch, Rewriter};
use lash_core::sequence::{Partition, SequenceDatabase};
use lash_core::stats::{closed_maximal_counts, closed_maximal_counts_naive};
use lash_core::{
    GsmParams, ItemId, Lash, LashConfig, MiningContext, PatternSet, Vocabulary, VocabularyBuilder,
    BLANK,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A random rank-space hierarchy of at most four levels: parent of rank `r`
/// is a smaller rank or none; frequencies are non-increasing by construction.
fn arb_space(max_items: usize) -> impl Strategy<Value = ItemSpace> {
    prop::collection::vec(prop::option::weighted(0.5, 0..100usize), 1..max_items).prop_map(
        |parents| {
            let n = parents.len();
            let mut level = vec![1u32; n];
            let parent: Vec<Option<u32>> = parents
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let p = p.filter(|_| i > 0).map(|v| v % i)?;
                    (level[p] < 4).then(|| {
                        level[i] = level[p] + 1;
                        p as u32
                    })
                })
                .collect();
            let frequency: Vec<u64> = (0..n as u64).map(|i| 1000 - i).collect();
            let num_frequent = (n as u32).div_ceil(2);
            ItemSpace::new(parent, frequency, num_frequent)
        },
    )
}

/// A random rank-space sequence that may contain blanks.
fn arb_seq(n_items: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(prop_oneof![9 => 0..n_items as u32, 1 => Just(BLANK)], 0..10)
}

/// A random forest of at most four levels over at most `max_items`
/// vocabulary items: item `i`'s parent is an earlier item or none.
fn arb_vocabulary(max_items: usize) -> impl Strategy<Value = Vocabulary> {
    prop::collection::vec(prop::option::weighted(0.5, 0..100usize), 1..max_items).prop_map(
        |parents| {
            let mut vb = VocabularyBuilder::new();
            let items: Vec<_> = (0..parents.len())
                .map(|i| vb.intern(&format!("v{i}")))
                .collect();
            let mut level = vec![1u32; items.len()];
            for (i, p) in parents.iter().enumerate() {
                if let Some(p) = p.filter(|_| i > 0).map(|p| p % i) {
                    if level[p] < 4 {
                        level[i] = level[p] + 1;
                        vb.set_parent(items[i], items[p])
                            .expect("parent precedes child");
                    }
                }
            }
            vb.finish().expect("forest by construction")
        },
    )
}

/// Brute-force `S ⊑γ T`: try every embedding recursively.
fn oracle_matches(pattern: &[u32], seq: &[u32], space: &ItemSpace, gamma: usize) -> bool {
    fn rec(pattern: &[u32], seq: &[u32], space: &ItemSpace, gamma: usize, from: usize) -> bool {
        if pattern.is_empty() {
            return true;
        }
        let to = if from == 0 {
            seq.len()
        } else {
            (from + gamma + 1).min(seq.len())
        };
        for q in from..to {
            let t = seq[q];
            if t != BLANK
                && space.generalizes_to(t, pattern[0])
                && rec(&pattern[1..], seq, space, gamma, q + 1)
            {
                return true;
            }
        }
        false
    }
    if pattern.len() > seq.len() {
        return false;
    }
    rec(pattern, seq, space, gamma, 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn matching_agrees_with_brute_force(
        space in arb_space(8),
        seq in arb_seq(8),
        pattern in prop::collection::vec(0u32..8, 1..4),
        gamma in 0usize..3,
    ) {
        let n = space.len() as u32;
        let pattern: Vec<u32> = pattern.into_iter().map(|p| p % n).collect();
        let seq: Vec<u32> = seq.into_iter().map(|t| if t == BLANK { BLANK } else { t % n }).collect();
        prop_assert_eq!(
            matches(&pattern, &seq, &space, gamma),
            oracle_matches(&pattern, &seq, &space, gamma),
            "pattern {:?} seq {:?} γ={}", pattern, seq, gamma
        );
    }

    /// One enumerator, reused across sequences, yields for each exactly
    /// `Gλ(T)`: the oracle's output at σ = 1 over that sequence alone,
    /// mapped to ranks, each candidate once. Blanks are an item of the
    /// oracle's that no pattern may contain. A long sequence between short
    /// ones grows the table and leaves its slots stale for the next.
    #[test]
    fn enumerator_yields_the_oracle_gl_of_each_sequence(
        vocab in arb_vocabulary(8),
        short in prop::collection::vec(
            prop::collection::vec(prop::option::weighted(0.85, 0u32..8), 0..10),
            2..6,
        ),
        long in prop::collection::vec(prop::option::weighted(0.85, 0u32..8), 24..32),
        gamma in 0usize..3,
        lambda in 2usize..5,
    ) {
        const BLANK_ID: u32 = u32::MAX;
        let n = vocab.len() as u32;
        let mut seqs = short;
        seqs.insert(1, long);
        let seqs: Vec<Vec<u32>> = seqs
            .into_iter()
            .map(|s| s.into_iter().map(|t| t.map_or(BLANK_ID, |i| i % n)).collect())
            .collect();
        let mut db = SequenceDatabase::new();
        for s in &seqs {
            let items: Vec<ItemId> =
                s.iter().filter(|&&i| i != BLANK_ID).map(|&i| ItemId::from_u32(i)).collect();
            db.push(&items);
        }
        let ctx = MiningContext::build(&db, &vocab, 1);
        let (order, space) = (ctx.order(), ctx.space());
        let rank = |i: u32| if i == BLANK_ID { BLANK } else { order.rank(ItemId::from_u32(i)) };
        let parent = |i: u32| match i {
            BLANK_ID => None,
            i => vocab.parent(ItemId::from_u32(i)).map(ItemId::as_u32),
        };
        let mut enumerator = GlEnumerator::default();
        for s in &seqs {
            let want: BTreeSet<Vec<u32>> = oracle::gsm(parent, std::slice::from_ref(s), 1, gamma, lambda)
                .into_keys()
                .filter(|items| !items.contains(&BLANK_ID))
                .map(|items| items.into_iter().map(rank).collect())
                .collect();
            let ranked: Vec<u32> = s.iter().map(|&i| rank(i)).collect();
            let got: Vec<Vec<u32>> = enumerator
                .enumerate(&ranked, space, gamma, lambda)
                .map(<[u32]>::to_vec)
                .collect();
            let distinct: BTreeSet<Vec<u32>> = got.iter().cloned().collect();
            prop_assert_eq!(distinct.len(), got.len(), "duplicates for {:?}", ranked);
            prop_assert_eq!(&want, &distinct, "seq {:?} γ={} λ={}", ranked, gamma, lambda);
        }
    }

    /// Every local miner returns, for each frequent pivot, exactly the
    /// oracle's patterns whose largest item is that pivot. The partition is
    /// the whole weighted database, raw, so items above the pivot occur too;
    /// items that no frequent item generalizes are blanks, as the rewrites
    /// leave them. γ goes up to 3 and λ up to 6.
    ///
    /// Each miner appends every pivot of the database to one sink, the way
    /// reduce output reaches the result: nothing downstream deduplicates,
    /// so the sink must hold each pattern once, every pattern's largest rank
    /// must be the pivot it was mined for, and each call's
    /// `MinerStats::outputs` must be the number of patterns it appended.
    #[test]
    fn local_miners_agree_on_random_partitions(
        vocab in arb_vocabulary(8),
        seqs in prop::collection::vec((prop::collection::vec(0u32..8, 0..10), 1u64..4), 1..8),
        sigma in 1u64..4,
        gamma in 0usize..4,
        lambda in 2usize..7,
    ) {
        let n = vocab.len() as u32;
        let seqs: Vec<(Vec<u32>, u64)> = seqs
            .into_iter()
            .map(|(s, w)| (s.into_iter().map(|i| i % n).collect(), w))
            .collect();
        let mut copies = Vec::new();
        let mut db = SequenceDatabase::new();
        for (s, w) in &seqs {
            let items: Vec<ItemId> = s.iter().map(|&i| ItemId::from_u32(i)).collect();
            for _ in 0..*w {
                copies.push(s.clone());
                db.push(&items);
            }
        }
        let expected = oracle::gsm(
            |i| vocab.parent(ItemId::from_u32(i)).map(ItemId::as_u32),
            &copies,
            sigma,
            gamma,
            lambda,
        );
        let ctx = MiningContext::build(&db, &vocab, sigma);
        let (order, space) = (ctx.order(), ctx.space());
        let rank = |i: u32| order.rank(ItemId::from_u32(i));
        let mut partition = Partition::new();
        for (s, w) in &seqs {
            let ranked: Vec<u32> = s
                .iter()
                .map(|&i| space.closest_frequent(rank(i)).map_or(BLANK, |_| rank(i)))
                .collect();
            partition.push(&ranked, *w);
        }
        let params = GsmParams::new(sigma, gamma, lambda).unwrap();
        for miner in [
            &NaiveMiner as &dyn LocalMiner,
            &BfsMiner,
            &DfsMiner,
            &PsmMiner::plain(),
            &PsmMiner::indexed(),
        ] {
            let mut sink = PatternArena::new();
            for pivot in 0..space.num_frequent() {
                let want: PatternSet = expected
                    .iter()
                    .map(|(items, &f)| (items.iter().map(|&i| rank(i)).collect::<Vec<u32>>(), f))
                    .filter(|(ranks, _)| ranks.iter().max() == Some(&pivot))
                    .collect();
                let before = sink.len();
                let stats = miner.mine(&partition, pivot, space, &params, &mut sink);
                prop_assert_eq!(
                    stats.outputs,
                    (sink.len() - before) as u64,
                    "miner {} pivot {}: outputs vs patterns appended",
                    miner.name(),
                    pivot
                );
                let appended = (before..sink.len()).map(|i| sink.get(i));
                for (pattern, _) in appended.clone() {
                    prop_assert_eq!(
                        pattern.iter().max(),
                        Some(&pivot),
                        "miner {} pivot {}: {:?} is not a pivot sequence",
                        miner.name(),
                        pivot,
                        pattern
                    );
                }
                let got: PatternSet = appended.map(|(p, f)| (p.to_vec(), f)).collect();
                prop_assert_eq!(
                    &want,
                    &got,
                    "miner {} pivot {} diff {:?}",
                    miner.name(),
                    pivot,
                    want.diff(&got)
                );
            }
            let distinct: BTreeSet<&[u32]> = sink.iter().map(|(p, _)| p).collect();
            prop_assert_eq!(
                distinct.len(),
                sink.len(),
                "miner {} pushed a pattern twice",
                miner.name()
            );
        }
    }

    /// The rewrite is w-equivalent — `G_{w,λ}(T) = G_{w,λ}(P_w(T))` for every
    /// pivot — on random sequences with blanks, through one scratch that sees
    /// sequences of different lengths one after the other.
    #[test]
    fn rewrite_preserves_pivot_sequences_across_scratch_reuse(
        space in arb_space(8),
        seqs in prop::collection::vec(arb_seq(8), 1..6),
        gamma in 0usize..4,
        lambda in 2usize..6,
    ) {
        let n = space.len() as u32;
        let params = GsmParams::new(1, gamma, lambda).unwrap();
        let rewriter = Rewriter::new(&space, &params);
        let mut scratch = RewriteScratch::default();
        for seq in seqs {
            let seq: Vec<u32> =
                seq.into_iter().map(|t| if t == BLANK { BLANK } else { t % n }).collect();
            for pivot in 0..n {
                let original = enumerate_pivot(&seq, &space, gamma, lambda, pivot);
                let rewritten = match rewriter.rewrite_into(&seq, pivot, &mut scratch) {
                    Some(r) => enumerate_pivot(r, &space, gamma, lambda, pivot),
                    None => Default::default(),
                };
                prop_assert_eq!(original, rewritten, "seq {:?} pivot {}", seq, pivot);
            }
        }
    }

    /// The window-index closed/maximal computation matches the quadratic
    /// reference on complete outputs of random mining runs.
    #[test]
    fn closed_maximal_fast_equals_naive(
        vocab in arb_vocabulary(8),
        raw in prop::collection::vec(prop::collection::vec(0u32..8, 0..6), 1..8),
        gamma in 0usize..2,
        lambda in 2usize..4,
    ) {
        let n = vocab.len() as u32;
        let mut db = SequenceDatabase::new();
        for seq in &raw {
            let s: Vec<_> = seq.iter().map(|&i| ItemId::from_u32(i % n)).collect();
            db.push(&s);
        }
        let params = GsmParams::new(1, gamma, lambda).unwrap();
        let result = Lash::new(LashConfig::default()).mine(&db, &vocab, &params).unwrap();
        let space = result.context().space();
        prop_assert_eq!(
            closed_maximal_counts(&result.pattern_set(), space),
            closed_maximal_counts_naive(&result.pattern_set(), space)
        );
    }
}

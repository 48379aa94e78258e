//! Shared test fixtures: the paper's running example (Fig. 1), the GSM
//! oracle, and helpers for writing assertions in item-name space.

pub mod oracle;

use std::collections::BTreeMap;

use crate::context::MiningContext;
use crate::fxhash::FxHashSet;
use crate::params::GsmParams;
use crate::pattern::PatternSet;
use crate::sequence::SequenceDatabase;
use crate::vocabulary::{ItemId, Vocabulary, VocabularyBuilder};

/// Builds the Fig. 1 vocabulary/hierarchy and example database:
///
/// ```text
/// T1: a b1 a b1      hierarchy: B -> {b1, b2, b3}, b1 -> {b11, b12, b13},
/// T2: a b3 c c b2               D -> {d1, d2}; a, c, e, f are roots.
/// T3: a c
/// T4: b11 a e a
/// T5: a b12 d1 c
/// T6: b13 f d2
/// ```
pub fn fig1() -> (Vocabulary, SequenceDatabase) {
    let mut vb = VocabularyBuilder::new();
    // Intern the frequent roots first so the a/B frequency tie (both 5) breaks
    // toward `a`, matching the paper's order a < B.
    let a = vb.intern("a");
    let b_cap = vb.intern("B");
    let c = vb.intern("c");
    let d_cap = vb.intern("D");
    let b1 = vb.child("b1", b_cap);
    let b2 = vb.child("b2", b_cap);
    let b3 = vb.child("b3", b_cap);
    let b11 = vb.child("b11", b1);
    let b12 = vb.child("b12", b1);
    let b13 = vb.child("b13", b1);
    let d1 = vb.child("d1", d_cap);
    let d2 = vb.child("d2", d_cap);
    let e = vb.intern("e");
    let f = vb.intern("f");
    let vocab = vb.finish().unwrap();

    let mut db = SequenceDatabase::new();
    db.push(&[a, b1, a, b1]); // T1
    db.push(&[a, b3, c, c, b2]); // T2
    db.push(&[a, c]); // T3
    db.push(&[b11, a, e, a]); // T4
    db.push(&[a, b12, d1, c]); // T5
    db.push(&[b13, f, d2]); // T6
    (vocab, db)
}

/// The Fig. 1 example preprocessed with σ = 2 (the paper's Fig. 2 setting).
pub fn fig2_context() -> Fig2Context {
    let (vocab, db) = fig1();
    let ctx = MiningContext::build(&db, &vocab, 2);
    Fig2Context { vocab, ctx }
}

/// A bundled vocabulary + context for the running example.
pub struct Fig2Context {
    /// The Fig. 1 vocabulary.
    pub vocab: Vocabulary,
    /// The σ=2 mining context.
    pub ctx: MiningContext,
}

impl Fig2Context {
    /// The rank-space hierarchy.
    pub fn space(&self) -> &crate::hierarchy::ItemSpace {
        self.ctx.space()
    }

    /// The `idx`-th ranked sequence (T1 = 0 … T6 = 5).
    pub fn ranked_seq(&self, idx: usize) -> &[u32] {
        self.ctx.ranked_seq(idx)
    }

    /// The rank of the named item.
    pub fn rank(&self, name: &str) -> u32 {
        self.ctx
            .order()
            .rank(self.vocab.lookup(name).expect("known item"))
    }
}

/// Converts item names to ranks in the given context.
pub fn ranks(ctx: &Fig2Context, names: &[&str]) -> Vec<u32> {
    names.iter().map(|n| ctx.rank(n)).collect()
}

/// Builds a set of rank sequences from space-separated name strings, e.g.
/// `named_set(&ctx, &["a B", "B a a"])`.
pub fn named_set(ctx: &Fig2Context, patterns: &[&str]) -> FxHashSet<Vec<u32>> {
    patterns
        .iter()
        .map(|p| p.split_whitespace().map(|n| ctx.rank(n)).collect())
        .collect()
}

/// Builds a [`crate::pattern::PatternSet`] from `(names, frequency)` pairs.
pub fn named_patterns(ctx: &Fig2Context, patterns: &[(&str, u64)]) -> crate::pattern::PatternSet {
    crate::pattern::PatternSet::from_pairs(patterns.iter().map(|(p, f)| {
        (
            p.split_whitespace()
                .map(|n| ctx.rank(n))
                .collect::<Vec<u32>>(),
            *f,
        )
    }))
}

/// The [`oracle`]'s answer for `db` over `vocab`, keyed by item ids.
pub fn oracle_patterns(
    vocab: &Vocabulary,
    db: &SequenceDatabase,
    params: &GsmParams,
) -> BTreeMap<Vec<u32>, u64> {
    let db: Vec<Vec<u32>> = db
        .iter()
        .map(|seq| seq.iter().map(|t| t.as_u32()).collect())
        .collect();
    oracle::gsm(
        |i| vocab.parent(ItemId::from_u32(i)).map(ItemId::as_u32),
        &db,
        params.sigma,
        params.gamma,
        params.lambda,
    )
}

/// A rank-space result mined under `ctx`, keyed by item ids like
/// [`oracle_patterns`].
pub fn by_item_ids(ctx: &MiningContext, set: &PatternSet) -> BTreeMap<Vec<u32>, u64> {
    set.iter()
        .map(|(ranks, f)| (ctx.decode(ranks).iter().map(|i| i.as_u32()).collect(), f))
        .collect()
}

mod tests {
    use super::*;

    /// The oracle's answer for the running example is the paper's full GSM
    /// output (Sec. 2: σ = 2, γ = 1, λ = 3), hand-listed here in names.
    #[test]
    fn oracle_reproduces_paper_output() {
        let (vocab, db) = fig1();
        let got = oracle_patterns(&vocab, &db, &GsmParams::new(2, 1, 3).unwrap());
        let named: BTreeMap<String, u64> = got
            .into_iter()
            .map(|(items, f)| {
                let names: Vec<&str> = items
                    .iter()
                    .map(|&i| vocab.name(ItemId::from_u32(i)))
                    .collect();
                (names.join(" "), f)
            })
            .collect();
        let want: BTreeMap<String, u64> = [
            ("a a", 2),
            ("a b1", 2),
            ("b1 a", 2),
            ("a B", 3),
            ("B a", 2),
            ("a B c", 2),
            ("B c", 2),
            ("a c", 2),
            ("b1 D", 2),
            ("B D", 2),
        ]
        .into_iter()
        .map(|(p, f)| (p.to_owned(), f))
        .collect();
        assert_eq!(named, want);
    }

    /// Mined alone at σ = 1, T4 = b11 a e a yields the 19 generalized
    /// subsequences the paper counts for the naive map (Sec. 3.3, γ = 1,
    /// λ = 3): the gap window and the length bound are the paper's.
    #[test]
    fn oracle_enumerates_every_generalized_subsequence() {
        let (vocab, db) = fig1();
        let mut t4 = SequenceDatabase::new();
        t4.push(db.get(3));
        let got = oracle_patterns(&vocab, &t4, &GsmParams::new(1, 1, 3).unwrap());
        assert_eq!(got.len(), 19);
        assert!(got.values().all(|&f| f == 1));
    }
}

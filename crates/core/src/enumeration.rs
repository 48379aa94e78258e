//! Enumeration of generalized subsequences: `G1(T)` and `Gλ(T)`.
//!
//! `G1(T)` is the set of items occurring in `T` together with all their
//! generalizations — the unit of the f-list computation and of partition
//! routing. `Gλ(T)` is the full set of generalized subsequences of `T`
//! respecting the gap and length constraints — the (deliberately exponential)
//! unit of the naive and semi-naive baselines and of the naive local miner.

use crate::fxhash::FxHashSet;
use crate::hierarchy::ItemSpace;
use crate::vocabulary::{ItemId, Vocabulary};
use crate::BLANK;

/// Computes `G1(T)` in vocabulary space: the distinct items of `seq` plus all
/// their ancestors. The result is sorted and deduplicated into `out`.
pub fn g1_items(seq: &[ItemId], vocab: &Vocabulary, out: &mut Vec<ItemId>) {
    out.clear();
    for &t in seq {
        out.extend_from_slice(vocab.chain(t));
    }
    out.sort_unstable();
    out.dedup();
}

/// Computes `G1(T)` in rank space, skipping blanks. The result is sorted
/// (most frequent first) and deduplicated into `out`.
pub fn g1_ranks(seq: &[u32], space: &ItemSpace, out: &mut Vec<u32>) {
    out.clear();
    for &t in seq {
        if t != BLANK {
            out.extend_from_slice(space.chain(t));
        }
    }
    out.sort_unstable();
    out.dedup();
}

/// Enumerates `Gλ(T)`: every generalized subsequence `S ⊑γ T` with
/// `2 ≤ |S| ≤ λ` (paper Sec. 3.2; the paper writes `1 < |S| ≤ λ`).
///
/// Blank positions are never part of a pattern but occupy gap positions.
/// The output is a set — each distinct generalized subsequence appears once
/// regardless of how many embeddings it has, matching document-frequency
/// semantics.
pub fn enumerate_gl(
    seq: &[u32],
    space: &ItemSpace,
    gamma: usize,
    lambda: usize,
) -> FxHashSet<Vec<u32>> {
    let mut out = FxHashSet::default();
    let mut current = Vec::with_capacity(lambda);
    for start in 0..seq.len() {
        let t = seq[start];
        if t == BLANK {
            continue;
        }
        for &anc in space.chain(t) {
            current.push(anc);
            extend(seq, space, gamma, lambda, start, &mut current, &mut out);
            current.pop();
        }
    }
    out
}

fn extend(
    seq: &[u32],
    space: &ItemSpace,
    gamma: usize,
    lambda: usize,
    last: usize,
    current: &mut Vec<u32>,
    out: &mut FxHashSet<Vec<u32>>,
) {
    if current.len() >= 2 {
        out.insert(current.clone());
    }
    if current.len() == lambda {
        return;
    }
    let from = last + 1;
    let to = (last + 1 + gamma).min(seq.len().saturating_sub(1));
    for q in from..=to {
        let t = seq[q];
        if t == BLANK {
            continue;
        }
        for &anc in space.chain(t) {
            current.push(anc);
            extend(seq, space, gamma, lambda, q, current, out);
            current.pop();
        }
    }
}

/// Enumerates the pivot-restricted set `G_{w,λ}(T)`: the elements of `Gλ(T)`
/// whose pivot (largest rank) is exactly `pivot` (paper Eq. 2).
pub fn enumerate_pivot(
    seq: &[u32],
    space: &ItemSpace,
    gamma: usize,
    lambda: usize,
    pivot: u32,
) -> FxHashSet<Vec<u32>> {
    enumerate_gl(seq, space, gamma, lambda)
        .into_iter()
        .filter(|s| s.iter().copied().max() == Some(pivot))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fig2_context, named_set, ranks};

    #[test]
    fn g1_of_t4_matches_paper() {
        // G1(T4) = {b11, a, e, b1, B} (paper Sec. 3.3 lists b11, a, e, a, b1, B).
        let ctx = fig2_context();
        let mut out = Vec::new();
        g1_ranks(ctx.ranked_seq(3), ctx.space(), &mut out);
        let expected = ranks(&ctx, &["a", "B", "b1", "e", "b11"]);
        let mut expected_sorted = expected.clone();
        expected_sorted.sort_unstable();
        assert_eq!(out, expected_sorted);
    }

    #[test]
    fn g3_of_t4_matches_paper() {
        // Paper Sec. 3.2: for T4 = b11 a e a, γ = 1, λ = 3:
        // G3(T4) = { b11a, b11e, ae, aa, ea, b11ae, b11aa, b11ea, aea,
        //            b1a, b1e, b1ae, b1aa, b1ea, Ba, Be, Bae, Baa, Bea }.
        let ctx = fig2_context();
        let got = enumerate_gl(ctx.ranked_seq(3), ctx.space(), 1, 3);
        let expected = named_set(
            &ctx,
            &[
                "b11 a", "b11 e", "a e", "a a", "e a", "b11 a e", "b11 a a", "b11 e a", "a e a",
                "b1 a", "b1 e", "b1 a e", "b1 a a", "b1 e a", "B a", "B e", "B a e", "B a a",
                "B e a",
            ],
        );
        assert_eq!(got, expected);
        assert_eq!(got.len(), 19);
    }

    #[test]
    fn gb1_2_of_t1_matches_paper() {
        // Paper Eq. 3: G_{b1,2}(T1) = {ab1, b1a, b1b1, b1B, Bb1} for γ=1, λ=2
        // (BB is excluded: its pivot is B, not b1).
        let ctx = fig2_context();
        let pivot = ranks(&ctx, &["b1"])[0];
        let got = enumerate_pivot(ctx.ranked_seq(0), ctx.space(), 1, 2, pivot);
        let expected = named_set(&ctx, &["a b1", "b1 a", "b1 b1", "b1 B", "B b1"]);
        assert_eq!(got, expected);
    }

    #[test]
    fn gb_2_of_t2_matches_paper() {
        // Paper Sec. 4.1: G_{B,2}(T2) = {aB} for γ=1, λ=2.
        let ctx = fig2_context();
        let pivot = ranks(&ctx, &["B"])[0];
        let got = enumerate_pivot(ctx.ranked_seq(1), ctx.space(), 1, 2, pivot);
        assert_eq!(got, named_set(&ctx, &["a B"]));
    }

    #[test]
    fn blanks_are_skipped_but_occupy_gap_positions() {
        let ctx = fig2_context();
        let a = ranks(&ctx, &["a"])[0];
        let c = ranks(&ctx, &["c"])[0];
        let seq = [a, crate::BLANK, c];
        // γ=0: the blank breaks adjacency.
        assert!(enumerate_gl(&seq, ctx.space(), 0, 3).is_empty());
        // γ=1: "ac" spans the blank.
        let got = enumerate_gl(&seq, ctx.space(), 1, 3);
        assert_eq!(got, named_set(&ctx, &["a c"]));
    }

    #[test]
    fn respects_lambda() {
        let ctx = fig2_context();
        let got = enumerate_gl(ctx.ranked_seq(0), ctx.space(), 1, 2);
        assert!(got.iter().all(|s| s.len() == 2));
        let got3 = enumerate_gl(ctx.ranked_seq(0), ctx.space(), 1, 3);
        assert!(got3.len() > got.len());
        assert!(got3.iter().all(|s| s.len() <= 3));
        assert!(got3.is_superset(&got));
    }

    #[test]
    fn short_sequences_produce_nothing() {
        let ctx = fig2_context();
        let a = ranks(&ctx, &["a"])[0];
        assert!(enumerate_gl(&[a], ctx.space(), 1, 3).is_empty());
        assert!(enumerate_gl(&[], ctx.space(), 1, 3).is_empty());
    }
}

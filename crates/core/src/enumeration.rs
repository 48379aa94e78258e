//! Enumeration of generalized subsequences: `G1(T)` and `Gλ(T)`.
//!
//! `G1(T)` is the set of items occurring in `T` together with all their
//! generalizations — the unit of the f-list computation and of partition
//! routing. `Gλ(T)` is the full set of generalized subsequences of `T`
//! respecting the gap and length constraints — the (deliberately exponential)
//! unit of the naive and semi-naive baselines and of the naive local miner.

use std::ops::Range;

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
/// semantics. A collector over [`GlEnumerator`]; hot loops reuse one
/// enumerator instead.
pub fn enumerate_gl(
    seq: &[u32],
    space: &ItemSpace,
    gamma: usize,
    lambda: usize,
) -> FxHashSet<Vec<u32>> {
    GlEnumerator::default()
        .enumerate(seq, space, gamma, lambda)
        .map(<[u32]>::to_vec)
        .collect()
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
    GlEnumerator::default()
        .enumerate(seq, space, gamma, lambda)
        .filter(|s| s.iter().copied().max() == Some(pivot))
        .map(<[u32]>::to_vec)
        .collect()
}

/// The table's size on its first insert; it doubles from there.
const MIN_SLOTS: usize = 16;

/// A reusable `Gλ(T)` enumerator that allocates nothing per candidate.
///
/// The distinct candidates of the latest sequence live back to back in one
/// item arena, addressed by `(start, len)` ranges. An open-addressing table
/// of range indices dedups them: each candidate is hashed incrementally
/// while the recursion extends its prefix and compared against the arena
/// only on a probe hit. A slot is live only while it carries the current
/// sequence's stamp, so moving to the next sequence bumps the stamp instead
/// of clearing the table. The table grows by doubling and never shrinks;
/// arena, ranges and table keep their capacity across sequences.
#[derive(Debug, Default)]
pub struct GlEnumerator {
    /// The items of the distinct candidates, back to back.
    items: Vec<u32>,
    /// `(start, len)` of each distinct candidate in `items`, in the order
    /// the recursion first generated it.
    ranges: Vec<(u32, u32)>,
    /// Open-addressing table of indices into `ranges`; its length is a power
    /// of two, at most half full.
    slots: Vec<Slot>,
    /// The current sequence's stamp; never 0, the stamp of a fresh slot.
    stamp: u32,
    /// The candidate being built.
    prefix: Vec<u32>,
}

#[derive(Debug, Default, Clone, Copy)]
struct Slot {
    stamp: u32,
    range: u32,
}

impl GlEnumerator {
    /// Enumerates `Gλ(seq)` as [`enumerate_gl`] defines it, yielding each
    /// distinct candidate once, in the order the recursion first generates
    /// it. The slices borrow the enumerator until the next call.
    pub fn enumerate(
        &mut self,
        seq: &[u32],
        space: &ItemSpace,
        gamma: usize,
        lambda: usize,
    ) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        self.next_sequence();
        self.extend(seq, space, gamma, lambda, 0..seq.len(), 0);
        let items = &self.items;
        self.ranges
            .iter()
            .map(move |&(start, len)| &items[start as usize..start as usize + len as usize])
    }

    /// Extends the prefix (hashed as `hash`) by every generalization of
    /// every item at `positions`, records each extension that is a
    /// candidate, and recurses into the positions within `γ` after it.
    fn extend(
        &mut self,
        seq: &[u32],
        space: &ItemSpace,
        gamma: usize,
        lambda: usize,
        positions: Range<usize>,
        hash: u64,
    ) {
        for q in positions {
            let t = seq[q];
            if t == BLANK {
                continue;
            }
            for &anc in space.chain(t) {
                self.prefix.push(anc);
                let hash = mix(hash, anc);
                if self.prefix.len() >= 2 {
                    self.insert(hash);
                }
                if self.prefix.len() < lambda {
                    let next = q + 1..(q + 2 + gamma).min(seq.len());
                    self.extend(seq, space, gamma, lambda, next, hash);
                }
                self.prefix.pop();
            }
        }
    }

    /// Forgets the previous sequence's candidates. A wrapped stamp could
    /// match slots written 2³² sequences ago, so it clears the table once.
    fn next_sequence(&mut self) {
        self.items.clear();
        self.ranges.clear();
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.slots.fill(Slot::default());
            self.stamp = 1;
        }
    }

    /// Adds the prefix to the candidates unless it is one already.
    fn insert(&mut self, hash: u64) {
        if (self.ranges.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut at = self.home(hash);
        loop {
            let slot = self.slots[at];
            if slot.stamp != self.stamp {
                // Every candidate has two items or more, so range indices
                // fit wherever item offsets do.
                let start = u32::try_from(self.items.len())
                    .expect("the candidates of one sequence exceed u32 items");
                self.slots[at] = Slot {
                    stamp: self.stamp,
                    range: self.ranges.len() as u32,
                };
                self.ranges.push((start, self.prefix.len() as u32));
                self.items.extend_from_slice(&self.prefix);
                return;
            }
            if self.candidate(slot.range) == self.prefix.as_slice() {
                return;
            }
            at = (at + 1) & mask;
        }
    }

    /// Doubles the table and re-inserts the current sequence's candidates.
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(MIN_SLOTS);
        self.slots.clear();
        self.slots.resize(len, Slot::default());
        let mask = len - 1;
        for range in 0..self.ranges.len() as u32 {
            let hash = self
                .candidate(range)
                .iter()
                .fold(0, |h, &item| mix(h, item));
            let mut at = self.home(hash);
            while self.slots[at].stamp == self.stamp {
                at = (at + 1) & mask;
            }
            self.slots[at] = Slot {
                stamp: self.stamp,
                range,
            };
        }
    }

    /// The first slot probed for `hash`: its top bits, which the last
    /// multiply of [`mix`] mixes best.
    fn home(&self, hash: u64) -> usize {
        (hash >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    fn candidate(&self, range: u32) -> &[u32] {
        let (start, len) = self.ranges[range as usize];
        &self.items[start as usize..start as usize + len as usize]
    }
}

/// One step of the Fx hash over a candidate's items, so a prefix's hash
/// extends to its one-item extensions in O(1).
fn mix(hash: u64, item: u32) -> u64 {
    (hash.rotate_left(5) ^ item as u64).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
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

    /// `Gλ(T)` of a flat hierarchy over `T`, one candidate per distinct
    /// `(start, len)` window at γ = 0: with distinct items every window is
    /// its own candidate.
    fn windows(n: u32, lambda: usize) -> usize {
        let n = n as usize;
        (2..=lambda.min(n)).map(|len| n + 1 - len).sum()
    }

    #[test]
    fn one_enumerator_grows_and_forgets_between_sequences() {
        let space = ItemSpace::flat(vec![1; 200], 200);
        let long: Vec<u32> = (0..200).collect();
        let mut e = GlEnumerator::default();
        let short = [3u32, 4, 3];
        assert_eq!(e.enumerate(&short, &space, 0, 3).len(), 3);
        // 200 + 199 + 198 - 3 candidates: the table doubles past 1024 slots.
        let got: Vec<Vec<u32>> = e
            .enumerate(&long, &space, 0, 4)
            .map(<[u32]>::to_vec)
            .collect();
        assert_eq!(got.len(), windows(200, 4));
        assert!(e.slots.len() >= 2 * got.len());
        // First-generation order: every window from position 0, then 1, …
        assert_eq!(got[..3], [vec![0, 1], vec![0, 1, 2], vec![0, 1, 2, 3]]);
        // The long sequence's slots are stale for the next one.
        let again: FxHashSet<Vec<u32>> = e
            .enumerate(&short, &space, 0, 3)
            .map(<[u32]>::to_vec)
            .collect();
        assert_eq!(again, enumerate_gl(&short, &space, 0, 3));
        assert_eq!(again.len(), 3);
    }

    #[test]
    fn a_wrapped_stamp_clears_the_table() {
        let ctx = fig2_context();
        let (t1, t4) = (ctx.ranked_seq(0), ctx.ranked_seq(3));
        let mut e = GlEnumerator::default();
        // Stamp 1 lands on the slots of T1's candidates; after the wrap, T4
        // runs under stamp 1 again and must not see them.
        let _ = e.enumerate(t1, ctx.space(), 1, 3).count();
        assert_eq!(e.stamp, 1);
        e.stamp = u32::MAX;
        let got: FxHashSet<Vec<u32>> = e
            .enumerate(t4, ctx.space(), 1, 3)
            .map(<[u32]>::to_vec)
            .collect();
        assert_eq!(e.stamp, 1);
        assert_eq!(got, enumerate_gl(t4, ctx.space(), 1, 3));
        assert_eq!(got.len(), 19);
    }

    #[test]
    fn short_sequences_produce_nothing() {
        let ctx = fig2_context();
        let a = ranks(&ctx, &["a"])[0];
        assert!(enumerate_gl(&[a], ctx.space(), 1, 3).is_empty());
        assert!(enumerate_gl(&[], ctx.space(), 1, 3).is_empty());
    }
}

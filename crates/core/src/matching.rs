//! The generalized subsequence relation `S ⊑γ T` and embedding search.
//!
//! `S = s1…sn` is a generalized subsequence of `T = t1…tm` if there are
//! positions `i1 < … < in` with `t_{ij} →* s_j` (each matched item of `T`
//! equals or specializes the pattern item) and at most `γ` positions between
//! consecutive matches (paper Sec. 2). Blank positions in `T` never match a
//! pattern item but do count toward the gap.

use crate::hierarchy::ItemSpace;
use crate::BLANK;

/// True if `pattern ⊑γ seq`.
///
/// Runs a forward DP over match positions: level `j` keeps the sorted list of
/// positions where `pattern[..=j]` can end; level `j+1` extends any of them
/// within the gap window.
#[allow(clippy::needless_range_loop)] // gap-window scans are clearer with indices
pub fn matches(pattern: &[u32], seq: &[u32], space: &ItemSpace, gamma: usize) -> bool {
    if pattern.is_empty() {
        return true;
    }
    if pattern.len() > seq.len() {
        return false;
    }
    let mut current: Vec<usize> = Vec::new();
    for (p, &t) in seq.iter().enumerate() {
        if t != BLANK && space.generalizes_to(t, pattern[0]) {
            current.push(p);
        }
    }
    for &s in &pattern[1..] {
        if current.is_empty() {
            return false;
        }
        let mut next: Vec<usize> = Vec::new();
        // `current` is sorted ascending; scan seq once with a moving window.
        let mut lo = 0usize;
        for q in current[0] + 1..seq.len() {
            let t = seq[q];
            if t == BLANK || !space.generalizes_to(t, s) {
                continue;
            }
            // Need some p in current with q - gamma - 1 <= p <= q - 1.
            while lo < current.len() && current[lo] + gamma + 1 < q {
                lo += 1;
            }
            if lo < current.len() && current[lo] < q {
                next.push(q);
            }
        }
        current = next;
    }
    !current.is_empty()
}

/// An embedding window of a pattern inside a sequence: the positions of the
/// first and last matched item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Embedding {
    /// Position of the first matched item.
    pub start: u32,
    /// Position of the last matched item.
    pub end: u32,
}

/// All distinct embedding windows of `pattern` in `seq` under gap `gamma`.
///
/// Two embeddings that match different intermediate positions but share the
/// same (start, end) window are collapsed — PSM only needs windows to extend
/// left and right.
#[allow(clippy::needless_range_loop)] // gap-window scans are clearer with indices
pub fn embeddings(pattern: &[u32], seq: &[u32], space: &ItemSpace, gamma: usize) -> Vec<Embedding> {
    if pattern.is_empty() {
        return Vec::new();
    }
    // Level j: sorted, deduped (end, start) pairs for pattern[..=j].
    let mut current: Vec<(u32, u32)> = Vec::new();
    for (p, &t) in seq.iter().enumerate() {
        if t != BLANK && space.generalizes_to(t, pattern[0]) {
            current.push((p as u32, p as u32));
        }
    }
    for &s in &pattern[1..] {
        if current.is_empty() {
            return Vec::new();
        }
        let mut next: Vec<(u32, u32)> = Vec::new();
        for &(end, start) in &current {
            let from = end as usize + 1;
            let to = (end as usize + 1 + gamma).min(seq.len().saturating_sub(1));
            for q in from..=to {
                let t = seq[q];
                if t != BLANK && space.generalizes_to(t, s) {
                    next.push((q as u32, start));
                }
            }
        }
        next.sort_unstable();
        next.dedup();
        current = next;
    }
    let mut out: Vec<Embedding> = current
        .into_iter()
        .map(|(end, start)| Embedding { start, end })
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Sums the weights of partition sequences supporting `pattern` — the local
/// frequency `f_γ(pattern, P)`.
pub fn support(
    pattern: &[u32],
    partition: &crate::sequence::Partition,
    space: &ItemSpace,
    gamma: usize,
) -> u64 {
    partition
        .iter()
        .filter(|(seq, _)| matches(pattern, seq, space, gamma))
        .map(|(_, weight)| weight)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fig2_context, ranks};

    #[test]
    fn paper_subsequence_examples_t5() {
        // T5 = a b12 d1 c. Paper Sec. 2: a ⊂0 T5, ab12 ⊂0 T5, ad1c ⊂1 T5,
        // b12 a ⊄ T5, ad1c ⊄0 T5.
        let ctx = fig2_context();
        let t5 = ctx.ranked_seq(4);
        let m = |names: &[&str], gamma: usize| matches(&ranks(&ctx, names), t5, ctx.space(), gamma);
        assert!(m(&["a"], 0));
        assert!(m(&["a", "b12"], 0));
        assert!(m(&["a", "d1", "c"], 1));
        assert!(!m(&["b12", "a"], usize::MAX >> 1));
        assert!(!m(&["a", "d1", "c"], 0));
    }

    #[test]
    fn paper_generalized_examples_t5() {
        // ad1 ⊑1 T5 and aD ⊑1 T5 even though D does not occur in T5.
        let ctx = fig2_context();
        let t5 = ctx.ranked_seq(4);
        assert!(matches(&ranks(&ctx, &["a", "d1"]), t5, ctx.space(), 1));
        assert!(matches(&ranks(&ctx, &["a", "D"]), t5, ctx.space(), 1));
        // But not with gap 0 (b12 sits between a and d1).
        assert!(!matches(&ranks(&ctx, &["a", "D"]), t5, ctx.space(), 0));
    }

    #[test]
    fn paper_support_examples() {
        // Sup0(aBc) = {T2}, Sup1(aBc) = {T2, T5}.
        let ctx = fig2_context();
        let abc = ranks(&ctx, &["a", "B", "c"]);
        let sup = |gamma: usize| {
            (0..6)
                .filter(|&i| matches(&abc, ctx.ranked_seq(i), ctx.space(), gamma))
                .collect::<Vec<_>>()
        };
        assert_eq!(sup(0), vec![1]); // T2 (index 1)
        assert_eq!(sup(1), vec![1, 4]); // T2, T5
    }

    #[test]
    fn blanks_block_matches_but_count_as_gap() {
        let ctx = fig2_context();
        let space = ctx.space();
        let a = ranks(&ctx, &["a"])[0];
        let c = ranks(&ctx, &["c"])[0];
        let seq = [a, crate::BLANK, c];
        // a␣c: "ac" requires gamma >= 1 because the blank occupies a position.
        assert!(!matches(&[a, c], &seq, space, 0));
        assert!(matches(&[a, c], &seq, space, 1));
        // The blank itself never matches anything.
        assert!(!matches(&[crate::BLANK], &seq, space, 0));
    }

    #[test]
    fn embeddings_report_all_windows() {
        let ctx = fig2_context();
        let space = ctx.space();
        let t1 = ctx.ranked_seq(0); // a b1 a b1
        let a = ranks(&ctx, &["a"])[0];
        let b1 = ranks(&ctx, &["b1"])[0];
        let embs = embeddings(&[a, b1], t1, space, 1);
        // a@0-b1@1, a@2-b1@3 (gap 0), a@0..b1@? gap1: a@0,b1@1; a@2,b1@3; also a@0→b1@? position 1 only within gap 1 → (0,1); a@2→(2,3).
        assert_eq!(
            embs,
            vec![
                Embedding { start: 0, end: 1 },
                Embedding { start: 2, end: 3 }
            ]
        );
        // With the generalized pattern aB, the same windows match.
        let b_cap = ranks(&ctx, &["B"])[0];
        let embs = embeddings(&[a, b_cap], t1, space, 1);
        assert_eq!(embs.len(), 2);
    }

    #[test]
    fn embedding_windows_dedup_interior_variation() {
        // seq = a x x a where pattern "aa" has one window (0,3) at gamma=2.
        let ctx = fig2_context();
        let space = ctx.space();
        let a = ranks(&ctx, &["a"])[0];
        let c = ranks(&ctx, &["c"])[0];
        let seq = [a, c, c, a];
        let embs = embeddings(&[a, a], &seq, space, 2);
        assert_eq!(embs, vec![Embedding { start: 0, end: 3 }]);
    }

    #[test]
    fn empty_and_oversized_patterns() {
        let ctx = fig2_context();
        let t3 = ctx.ranked_seq(2); // a c
        assert!(matches(&[], t3, ctx.space(), 0));
        let a = ranks(&ctx, &["a"])[0];
        assert!(!matches(&[a, a, a], t3, ctx.space(), 9));
        assert!(embeddings(&[], t3, ctx.space(), 0).is_empty());
    }

    #[test]
    fn support_weights_partition_sequences() {
        let ctx = fig2_context();
        let space = ctx.space();
        let a = ranks(&ctx, &["a"])[0];
        let b_cap = ranks(&ctx, &["B"])[0];
        let mut part = crate::sequence::Partition::new();
        part.push(&[a, b_cap], 2);
        part.push(&[b_cap, a], 1);
        assert_eq!(support(&[a, b_cap], &part, space, 0), 2);
        assert_eq!(support(&[b_cap], &part, space, 0), 3);
    }
}

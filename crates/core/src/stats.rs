//! Output statistics: non-trivial, closed, and maximal generalized sequences
//! (paper Sec. 6.7, Table 3).
//!
//! * A mined sequence is **trivial** if it can be produced by mining without
//!   the hierarchy and then generalizing items — i.e. some flat-frequent
//!   sequence of the same length specializes it position-wise. Non-trivial
//!   sequences are the value added by GSM.
//! * `S'` is a **supersequence** of `S` (written `S' ⊐0 S`) when `S ⊑0 S'`
//!   and `S ≠ S'`: `S` embeds into `S'` contiguously, allowing positions of
//!   `S'` to be more specific. A frequent `S` is **maximal** if no frequent
//!   supersequence exists, and **closed** if every frequent supersequence has
//!   a different (lower) frequency.
//!
//! Closedness/maximality are evaluated within the mined output (patterns are
//! length-bounded by λ, so supersequences beyond λ are out of scope by
//! definition of the mining task).

use crate::hierarchy::ItemSpace;
use crate::pattern::PatternSet;
use crate::vocabulary::{ItemId, Vocabulary};

/// Table 3-style summary of one output set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutputStats {
    /// Number of mined sequences.
    pub total: usize,
    /// Percentage that no flat-mining run could produce (with generalization).
    pub non_trivial_pct: f64,
    /// Percentage of closed sequences.
    pub closed_pct: f64,
    /// Percentage of maximal sequences.
    pub maximal_pct: f64,
}

/// True if `sub ⊑0 sup` with `γ = 0`: `sub` matches a contiguous window of
/// `sup`, each `sup` item generalizing to the `sub` item.
pub fn is_contiguous_generalization(sub: &[u32], sup: &[u32], space: &ItemSpace) -> bool {
    if sub.len() > sup.len() {
        return false;
    }
    'offsets: for offset in 0..=sup.len() - sub.len() {
        for (i, &s) in sub.iter().enumerate() {
            if !space.generalizes_to(sup[offset + i], s) {
                continue 'offsets;
            }
        }
        return true;
    }
    false
}

/// Counts closed and maximal patterns within `patterns`.
///
/// Returns `(closed, maximal)`.
///
/// Uses a window-index reduction that makes the check near-linear in the
/// output size. It relies on the following property of the γ = 0
/// supersequence relation **within a frequency-closed output set**: if `S`
/// has a frequent supersequence of *any* length, it has one of length `|S|`
/// or `|S| + 1` in the set — take the length-`|S|` window `W` of the
/// supersequence covering `S`'s embedding (`W` is frequent by monotonicity
/// and therefore in the output); if `W = S`, extend the window by one item.
/// The frequency squeeze `f(S) ≥ f(W) ≥ f(S')` shows the same reduction
/// holds for *equal-frequency* supersequences (closedness).
pub fn closed_maximal_counts(patterns: &PatternSet, space: &ItemSpace) -> (usize, usize) {
    let flags = closed_maximal_flags(patterns, space);
    (
        flags.iter().filter(|f| f.0).count(),
        flags.iter().filter(|f| f.1).count(),
    )
}

/// Restricts a mined output to its closed patterns (no frequent
/// supersequence with equal frequency). The input must be a complete GSM
/// output (see [`closed_maximal_counts`]).
pub fn filter_closed(patterns: &PatternSet, space: &ItemSpace) -> PatternSet {
    let flags = closed_maximal_flags(patterns, space);
    PatternSet::from_pairs(
        patterns
            .iter()
            .zip(flags)
            .filter(|(_, f)| f.0)
            .map(|((p, freq), _)| (p.to_vec(), freq)),
    )
}

/// Restricts a mined output to its maximal patterns (no frequent
/// supersequence at all). The input must be a complete GSM output.
pub fn filter_maximal(patterns: &PatternSet, space: &ItemSpace) -> PatternSet {
    let flags = closed_maximal_flags(patterns, space);
    PatternSet::from_pairs(
        patterns
            .iter()
            .zip(flags)
            .filter(|(_, f)| f.1)
            .map(|((p, freq), _)| (p.to_vec(), freq)),
    )
}

/// Per-pattern (closed, maximal) flags in the iteration order of `patterns`.
fn closed_maximal_flags(patterns: &PatternSet, space: &ItemSpace) -> Vec<(bool, bool)> {
    use crate::fxhash::FxHashMap;
    let all: Vec<(&[u32], u64)> = patterns.iter().collect();
    // The most general form of each pattern: items mapped to their roots.
    // `u →* v` implies equal roots, so only patterns with matching
    // root-vectors (or root-vector windows) can be supersequences.
    let root = |rank: u32| *space.chain(rank).last().expect("non-empty chain");
    let roots: Vec<Vec<u32>> = all
        .iter()
        .map(|(s, _)| s.iter().map(|&r| root(r)).collect())
        .collect();
    // Same-length candidates: group by root-vector.
    let mut same_len: FxHashMap<&[u32], Vec<usize>> = FxHashMap::default();
    for (i, rv) in roots.iter().enumerate() {
        same_len.entry(rv).or_default().push(i);
    }
    // Length-(l+1) candidates: index every l-window of every pattern's
    // root-vector, remembering the offset.
    let mut windows: FxHashMap<&[u32], Vec<(usize, usize)>> = FxHashMap::default();
    for (i, rv) in roots.iter().enumerate() {
        // Patterns have length ≥ 2, so windows of length ≥ 2 suffice.
        if rv.len() >= 3 {
            for offset in 0..=1 {
                windows
                    .entry(&rv[offset..offset + rv.len() - 1])
                    .or_default()
                    .push((i, offset));
            }
        }
    }

    let mut flags = Vec::with_capacity(all.len());
    for (i, &(s, f)) in all.iter().enumerate() {
        let mut is_closed = true;
        let mut is_maximal = true;
        let mut consider = |j: usize, offset: usize| -> bool {
            // Returns true when the search can stop (not closed).
            let (sup, sup_f) = all[j];
            let matches = s
                .iter()
                .enumerate()
                .all(|(k, &sk)| space.generalizes_to(sup[offset + k], sk));
            if matches {
                is_maximal = false;
                if sup_f == f {
                    is_closed = false;
                    return true;
                }
            }
            false
        };
        'done: {
            if let Some(group) = same_len.get(roots[i].as_slice()) {
                for &j in group {
                    if j != i && consider(j, 0) {
                        break 'done;
                    }
                }
            }
            if let Some(cands) = windows.get(roots[i].as_slice()) {
                for &(j, offset) in cands {
                    if consider(j, offset) {
                        break 'done;
                    }
                }
            }
        }
        flags.push((is_closed, is_maximal));
    }
    flags
}

/// Reference implementation of [`closed_maximal_counts`]: the direct
/// quadratic scan over all pattern pairs. Used by the test suite to validate
/// the window-index reduction; prefer `closed_maximal_counts` for real
/// outputs.
pub fn closed_maximal_counts_naive(patterns: &PatternSet, space: &ItemSpace) -> (usize, usize) {
    let all: Vec<(&[u32], u64)> = patterns.iter().collect();
    let mut closed = 0usize;
    let mut maximal = 0usize;
    for &(s, f) in &all {
        let mut is_closed = true;
        let mut is_maximal = true;
        for &(sup, sup_f) in &all {
            if sup.len() < s.len() || (sup.len() == s.len() && sup == s) {
                continue;
            }
            if is_contiguous_generalization(s, sup, space) {
                is_maximal = false;
                if sup_f == f {
                    is_closed = false;
                    break;
                }
            }
        }
        // `break` on the non-closed path is sound for maximality too — the
        // supersequence that voided closedness already voided maximality.
        closed += is_closed as usize;
        maximal += is_maximal as usize;
    }
    (closed, maximal)
}

/// Counts the GSM output sequences that are *non-trivial* with respect to a
/// flat mining output.
///
/// Both pattern lists must be given in vocabulary space (decode each run's
/// rank patterns with its own order first). A GSM pattern `S` is trivial iff
/// some flat pattern `F` of the same length satisfies `F[i] →* S[i]` for all
/// positions.
pub fn non_trivial_count(gsm: &[Vec<ItemId>], flat: &[Vec<ItemId>], vocab: &Vocabulary) -> usize {
    let mut by_len: crate::fxhash::FxHashMap<usize, Vec<&Vec<ItemId>>> = Default::default();
    for f in flat {
        by_len.entry(f.len()).or_default().push(f);
    }
    gsm.iter()
        .filter(|s| {
            let Some(candidates) = by_len.get(&s.len()) else {
                return true;
            };
            !candidates.iter().any(|f| {
                f.iter()
                    .zip(s.iter())
                    .all(|(&fi, &si)| vocab.generalizes_to(fi, si))
            })
        })
        .count()
}

/// Computes the full Table 3 row for a GSM output, given the matching flat
/// mining output.
pub fn output_stats(
    gsm_patterns: &[Vec<ItemId>],
    gsm_set: &PatternSet,
    flat_patterns: &[Vec<ItemId>],
    space: &ItemSpace,
    vocab: &Vocabulary,
) -> OutputStats {
    let total = gsm_set.len();
    if total == 0 {
        return OutputStats {
            total: 0,
            non_trivial_pct: 0.0,
            closed_pct: 0.0,
            maximal_pct: 0.0,
        };
    }
    let non_trivial = non_trivial_count(gsm_patterns, flat_patterns, vocab);
    let (closed, maximal) = closed_maximal_counts(gsm_set, space);
    let pct = |n: usize| 100.0 * n as f64 / total as f64;
    OutputStats {
        total,
        non_trivial_pct: pct(non_trivial),
        closed_pct: pct(closed),
        maximal_pct: pct(maximal),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fig2_context, named_patterns, ranks};

    #[test]
    fn contiguous_generalization_examples() {
        let ctx = fig2_context();
        let space = ctx.space();
        let ab = ranks(&ctx, &["a", "B"]);
        let ab1 = ranks(&ctx, &["a", "b1"]);
        let abc = ranks(&ctx, &["a", "B", "c"]);
        let ab1c = ranks(&ctx, &["a", "b1", "c"]);
        // Same length, specialization: aB ⊑0 ab1 (b1 →* B).
        assert!(is_contiguous_generalization(&ab, &ab1, space));
        assert!(!is_contiguous_generalization(&ab1, &ab, space));
        // Longer supersequence: aB ⊑0 aBc and aB ⊑0 ab1c.
        assert!(is_contiguous_generalization(&ab, &abc, space));
        assert!(is_contiguous_generalization(&ab, &ab1c, space));
        // Interior window: Bc ⊑0 aBc.
        let bc = ranks(&ctx, &["B", "c"]);
        assert!(is_contiguous_generalization(&bc, &abc, space));
        // Gap-0 means contiguous: "ac" does not embed in aBc.
        let ac = ranks(&ctx, &["a", "c"]);
        assert!(!is_contiguous_generalization(&ac, &abc, space));
        // Reflexive.
        assert!(is_contiguous_generalization(&ab, &ab, space));
    }

    #[test]
    fn closed_maximal_on_paper_output() {
        // The Fig. 2 GSM output: aa:2, ab1:2, b1a:2, aB:3, Ba:2, aBc:2, Bc:2,
        // ac:2, b1D:2, BD:2.
        let ctx = fig2_context();
        let set = named_patterns(
            &ctx,
            &[
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
            ],
        );
        let (closed, maximal) = closed_maximal_counts(&set, ctx.space());
        // Supersequence analysis (S' ⊐0 S includes same-length
        // specializations):
        //   aB  ⊑0 ab1 (f 2≠3) and ⊑0 aBc (f 2≠3) → closed, not maximal;
        //   Ba  ⊑0 b1a with equal frequency 2     → not closed, not maximal;
        //   Bc  ⊑0 aBc with equal frequency 2     → not closed, not maximal;
        //   BD  ⊑0 b1D with equal frequency 2     → not closed, not maximal;
        //   aa, ab1, b1a, ac, b1D, aBc have no supersequence in the set
        //                                         → closed and maximal.
        // Closed = 10 − |{Ba, Bc, BD}| = 7; maximal = 6.
        assert_eq!(closed, 7);
        assert_eq!(maximal, 6);
    }

    #[test]
    fn non_trivial_on_paper_output() {
        let ctx = fig2_context();
        let vocab = &ctx.vocab;
        let to_items = |names: &[&str]| -> Vec<ItemId> {
            names.iter().map(|n| vocab.lookup(n).unwrap()).collect()
        };
        // Flat mining output on Fig. 1 (σ=2, γ=1, λ=3) is {aa, ac}.
        let flat = vec![to_items(&["a", "a"]), to_items(&["a", "c"])];
        let gsm = vec![
            to_items(&["a", "a"]),      // trivial: equals flat aa
            to_items(&["a", "c"]),      // trivial
            to_items(&["a", "B"]),      // non-trivial (no flat ab* pattern)
            to_items(&["b1", "D"]),     // non-trivial
            to_items(&["a", "B", "c"]), // non-trivial (length 3, no flat)
        ];
        assert_eq!(non_trivial_count(&gsm, &flat, vocab), 3);
    }

    #[test]
    fn output_stats_percentages() {
        let ctx = fig2_context();
        let set = named_patterns(&ctx, &[("a a", 2), ("a B", 3)]);
        let gsm: Vec<Vec<ItemId>> = set.iter().map(|(ranks, _)| ctx.ctx.decode(ranks)).collect();
        let flat = vec![gsm[0].clone()];
        let stats = output_stats(&gsm, &set, &flat, ctx.space(), &ctx.vocab);
        assert_eq!(stats.total, 2);
        // One of two patterns is non-trivial → 50%.
        assert!((stats.non_trivial_pct - 50.0).abs() < 1e-9);
        // Neither is a supersequence of the other → all closed and maximal.
        assert!((stats.closed_pct - 100.0).abs() < 1e-9);
        assert!((stats.maximal_pct - 100.0).abs() < 1e-9);
    }

    #[test]
    fn filters_partition_the_output() {
        use crate::distributed::lash_job::{Lash, LashConfig};
        use crate::testutil::fig1;
        let (vocab, db) = fig1();
        let params = crate::params::GsmParams::new(2, 1, 3).unwrap();
        let result = Lash::new(LashConfig::default())
            .mine(&db, &vocab, &params)
            .unwrap();
        let space = result.context().space();
        let closed = filter_closed(&result.pattern_set(), space);
        let maximal = filter_maximal(&result.pattern_set(), space);
        assert_eq!(closed.len(), 7);
        assert_eq!(maximal.len(), 6);
        // Maximal ⊆ closed ⊆ all, frequencies preserved.
        for (p, f) in maximal.iter() {
            assert_eq!(closed.get(p), Some(f));
            assert_eq!(result.pattern_set().get(p), Some(f));
        }
        for (p, f) in closed.iter() {
            assert_eq!(result.pattern_set().get(p), Some(f));
        }
    }

    #[test]
    fn window_index_matches_naive_scan_on_complete_outputs() {
        // The fast algorithm's reduction requires a frequency-complete output
        // set; mine the running example under many parameters and compare
        // against the quadratic reference.
        use crate::distributed::lash_job::{Lash, LashConfig};
        use crate::testutil::fig1;
        let (vocab, db) = fig1();
        for sigma in [1, 2, 3] {
            for gamma in 0..3 {
                for lambda in 2..5 {
                    let params = crate::params::GsmParams::new(sigma, gamma, lambda).unwrap();
                    let result = Lash::new(LashConfig::default())
                        .mine(&db, &vocab, &params)
                        .unwrap();
                    let space = result.context().space();
                    let fast = closed_maximal_counts(&result.pattern_set(), space);
                    let naive = closed_maximal_counts_naive(&result.pattern_set(), space);
                    assert_eq!(fast, naive, "σ={sigma} γ={gamma} λ={lambda}");
                }
            }
        }
    }

    #[test]
    fn empty_output_stats() {
        let ctx = fig2_context();
        let stats = output_stats(&[], &PatternSet::new(), &[], ctx.space(), &ctx.vocab);
        assert_eq!(stats.total, 0);
        assert_eq!(stats.closed_pct, 0.0);
    }
}

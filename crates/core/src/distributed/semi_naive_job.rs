//! The semi-naive baseline (paper Sec. 3.3): the naive algorithm with
//! f-list-based pruning.
//!
//! Before enumeration, each item is generalized to its closest frequent
//! ancestor (or replaced by a blank if none exists); blanks are never part of
//! an emitted subsequence but still occupy gap positions. Since frequent
//! sequences cannot contain infrequent items (support monotonicity, Lemma 1),
//! the result is identical to naive — with far fewer emitted candidates when
//! σ prunes a large part of the vocabulary.

use lash_mapreduce::{EngineConfig, JobMetrics};

use crate::context::MiningContext;
use crate::error::Result;
use crate::params::GsmParams;
use crate::pattern::PatternSet;

/// Runs the semi-naive baseline over a prepared context.
pub fn run_semi_naive(
    ctx: &MiningContext,
    params: &GsmParams,
    cluster: &EngineConfig,
) -> Result<(PatternSet, JobMetrics)> {
    super::count_job::run_count(ctx, params, cluster, true)
}

#[cfg(test)]
mod tests {
    use super::super::naive_job::run_naive;
    use super::*;
    use crate::enumeration::enumerate_gl;
    use crate::testutil::fig2_context;
    use crate::BLANK;

    #[test]
    fn semi_naive_matches_naive_exactly() {
        let ctx = fig2_context();
        let cluster = EngineConfig::default().with_split_size(3);
        for (sigma, gamma, lambda) in [(2, 1, 3), (2, 0, 3), (3, 1, 2), (1, 2, 4)] {
            let params = GsmParams::new(sigma, gamma, lambda).unwrap();
            // The context (and thus the f-list cutoff) depends on σ.
            let mc =
                crate::context::MiningContext::build(&crate::testutil::fig1().1, &ctx.vocab, sigma);
            let (naive, _) = run_naive(&mc, &params, &cluster).unwrap();
            let (semi, _) = run_semi_naive(&mc, &params, &cluster).unwrap();
            assert_eq!(
                naive,
                semi,
                "σ={sigma} γ={gamma} λ={lambda}: {:?}",
                naive.diff(&semi)
            );
        }
    }

    #[test]
    fn semi_naive_emits_fewer_candidates() {
        // Paper Sec. 3.3: for T4 = b11 a e a (γ=1, λ=3) the semi-naive map
        // emits exactly {aa, b1a, b1aa, Ba, Baa} — 5 vs naive's 19.
        let ctx = fig2_context();
        let space = ctx.space();
        let t4 = ctx.ranked_seq(3);
        let naive_count = enumerate_gl(t4, space, 1, 3).len();
        let rewritten: Vec<u32> = t4
            .iter()
            .map(|&t| space.closest_frequent(t).unwrap_or(BLANK))
            .collect();
        let semi = enumerate_gl(&rewritten, space, 1, 3);
        let expected = crate::testutil::named_set(&ctx, &["a a", "b1 a", "b1 a a", "B a", "B a a"]);
        assert_eq!(semi, expected);
        assert_eq!(naive_count, 19);
        assert!(semi.len() * 3 < naive_count, "reduction factor > 3");
    }
}

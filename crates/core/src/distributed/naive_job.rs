//! The naive baseline (paper Sec. 3.2): "word counting" over every
//! generalized subsequence of every input sequence.
//!
//! The map function emits each element of `Gλ(T)` as a key with count 1; the
//! reducer sums and thresholds. Output size is `O(l^δλ)` per sequence at
//! γ = 0 and `O((δ+1)^l)` unconstrained — the exponential blow-up Fig. 4(a,b)
//! quantifies.

use lash_mapreduce::{EngineConfig, JobMetrics};

use crate::context::MiningContext;
use crate::error::Result;
use crate::params::GsmParams;
use crate::pattern::PatternSet;

/// Runs the naive baseline over a prepared context.
pub fn run_naive(
    ctx: &MiningContext,
    params: &GsmParams,
    cluster: &EngineConfig,
) -> Result<(PatternSet, JobMetrics)> {
    super::count_job::run_count(ctx, params, cluster, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fig2_context, named_patterns};

    #[test]
    fn naive_reproduces_paper_output() {
        // Paper Sec. 2: for σ=2, γ=1, λ=3 the full GSM output is the ten
        // pairs below.
        let ctx = fig2_context();
        let params = GsmParams::new(2, 1, 3).unwrap();
        let (got, metrics) = run_naive(
            &ctx.ctx,
            &params,
            &EngineConfig::default().with_split_size(2),
        )
        .unwrap();
        let want = named_patterns(
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
        assert_eq!(got, want, "diff: {:?}", got.diff(&want));
        assert!(metrics.counters.map_output_records > 0);
    }
}

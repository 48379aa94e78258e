//! The naive baseline (paper Sec. 3.2): "word counting" over every
//! generalized subsequence of every input sequence.
//!
//! The map function emits each element of `Gλ(T)` as a key with count 1; the
//! reducer sums and thresholds. Output size is `O(l^δλ)` per sequence at
//! γ = 0 and `O((δ+1)^l)` unconstrained — the exponential blow-up Fig. 4(a,b)
//! quantifies.

use lash_mapreduce::{run_job, Combined, Emitter, EngineConfig, Job, JobMetrics, Values};

use crate::context::MiningContext;
use crate::enumeration::enumerate_gl;
use crate::error::{Error, Result};
use crate::params::GsmParams;
use crate::pattern::PatternSet;

/// The naive mining job over a preprocessed (rank-encoded) database.
pub struct NaiveJob<'a> {
    ctx: &'a MiningContext,
    params: GsmParams,
}

impl Job for NaiveJob<'_> {
    type Input = u32;
    type Key = Vec<u32>;
    type Value = u64;
    type Output = (Vec<u32>, u64);

    fn map(&self, &idx: &u32, emit: &mut Emitter<'_, Self>) {
        let seq = self.ctx.ranked_seq(idx as usize);
        for sub in enumerate_gl(seq, self.ctx.space(), self.params.gamma, self.params.lambda) {
            emit.emit(sub, 1);
        }
    }

    fn combine(&self, _key: &[u8], values: &mut [&[u8]], out: &mut Combined<'_>) {
        super::combine_counts(values, out);
    }

    /// Decodes the pattern only when its group reaches σ.
    fn reduce(&self, key: &[u8], values: &mut Values<'_, '_>, out: &mut Vec<(Vec<u32>, u64)>) {
        let frequency = super::sum_counts(values);
        if frequency >= self.params.sigma {
            out.push((super::decode_pattern_key(key), frequency));
        }
    }

    fn encode_key(&self, key: &Vec<u32>, buf: &mut Vec<u8>) {
        super::encode_pattern_key(key, buf);
    }
    fn encode_value(&self, value: &u64, buf: &mut Vec<u8>) {
        super::encode_count(*value, buf);
    }
}

/// Runs the naive baseline over a prepared context.
pub fn run_naive(
    ctx: &MiningContext,
    params: &GsmParams,
    cluster: &EngineConfig,
) -> Result<(PatternSet, JobMetrics)> {
    let job = NaiveJob {
        ctx,
        params: *params,
    };
    let inputs: Vec<u32> = (0..ctx.ranked_db().len() as u32).collect();
    let result = run_job(&job, &inputs, cluster).map_err(|e| Error::Engine(e.to_string()))?;
    Ok((PatternSet::from_pairs(result.outputs), result.metrics))
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

//! The one job behind both word-count baselines (paper Secs. 3.2, 3.3).
//!
//! The map function emits each element of `Gλ(T)` as a key with count 1; the
//! combiner sums, the reducer sums and thresholds. Naive enumerates the input
//! sequence as it is. Semi-naive first generalizes each item to its closest
//! frequent ancestor, or to a blank if none exists, which is the only way the
//! paper's two baselines differ. See [`super::naive_job`] and
//! [`super::semi_naive_job`] for their entry points.

use std::cell::RefCell;

use lash_mapreduce::{run_job, Combined, Emitter, EngineConfig, Job, JobMetrics, Values};

use crate::context::MiningContext;
use crate::enumeration::GlEnumerator;
use crate::error::{Error, Result};
use crate::params::GsmParams;
use crate::pattern::PatternSet;
use crate::BLANK;

/// The counting job over a preprocessed (rank-encoded) database.
struct CountJob<'a> {
    ctx: &'a MiningContext,
    params: GsmParams,
    /// Rewrite each item to its closest frequent ancestor before
    /// enumerating (semi-naive); otherwise enumerate the sequence as is.
    closest_frequent: bool,
}

/// Per-thread map scratch: one enumerator, the rewritten sentence and the
/// encoded key keep their capacity from one sentence to the next, so a map
/// task allocates nothing per candidate.
#[derive(Default)]
struct MapScratch {
    enumerator: GlEnumerator,
    sentence: Vec<u32>,
    key: Vec<u8>,
}

/// Every candidate's count: the varint encoding of 1.
const ONE: [u8; 1] = [1];

thread_local! {
    static SCRATCH: RefCell<MapScratch> = RefCell::new(MapScratch::default());
}

impl Job for CountJob<'_> {
    type Input = u32;
    type Output = (Vec<u32>, u64);

    fn map(&self, &idx: &u32, emit: &mut Emitter<'_, Self>) {
        SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            let space = self.ctx.space();
            let mut seq = self.ctx.ranked_seq(idx as usize);
            if self.closest_frequent {
                // Items without a frequent ancestor become blanks (paper's
                // T4 → b1 a ␣ a example).
                scratch.sentence.clear();
                scratch.sentence.extend(seq.iter().map(|&t| {
                    if t == BLANK {
                        BLANK
                    } else {
                        space.closest_frequent(t).unwrap_or(BLANK)
                    }
                }));
                seq = &scratch.sentence;
            }
            let (gamma, lambda) = (self.params.gamma, self.params.lambda);
            for candidate in scratch.enumerator.enumerate(seq, space, gamma, lambda) {
                scratch.key.clear();
                super::encode_pattern_key(candidate, &mut scratch.key);
                emit.emit(&scratch.key, &ONE);
            }
        });
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
}

/// Counts every generalized subsequence of every sequence of `ctx`, after
/// the closest-frequent rewrite if `closest_frequent` is set.
pub(crate) fn run_count(
    ctx: &MiningContext,
    params: &GsmParams,
    cluster: &EngineConfig,
    closest_frequent: bool,
) -> Result<(PatternSet, JobMetrics)> {
    let job = CountJob {
        ctx,
        params: *params,
        closest_frequent,
    };
    let inputs: Vec<u32> = (0..ctx.ranked_db().len() as u32).collect();
    let result = run_job(&job, &inputs, cluster).map_err(|e| Error::Engine(e.to_string()))?;
    Ok((PatternSet::from_pairs(result.outputs), result.metrics))
}

//! Exhaustive local miner: enumerate `Gλ(T)` per sequence and count.
//!
//! Exponential in λ (paper Sec. 3.2). The per-partition unit tests compare
//! the other miners against it; the test suite's ground truth is the GSM
//! oracle in `testutil`.

use crate::enumeration::GlEnumerator;
use crate::fxhash::FxHashMap;
use crate::hierarchy::ItemSpace;
use crate::params::GsmParams;
use crate::pattern::PatternArena;
use crate::sequence::Partition;

use super::{LocalMiner, MinerStats};

/// The exhaustive enumeration miner.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveMiner;

impl LocalMiner for NaiveMiner {
    fn name(&self) -> &'static str {
        "Naive"
    }

    fn mine(
        &self,
        partition: &Partition,
        pivot: u32,
        space: &ItemSpace,
        params: &GsmParams,
        out: &mut PatternArena,
    ) -> MinerStats {
        let mut counts: FxHashMap<Vec<u32>, u64> = FxHashMap::default();
        let mut stats = MinerStats::default();
        let mut enumerator = GlEnumerator::default();
        for (seq, weight) in partition.iter() {
            stats.expansions += 1;
            for sub in enumerator.enumerate(seq, space, params.gamma, params.lambda) {
                match counts.get_mut(sub) {
                    Some(count) => *count += weight,
                    None => {
                        counts.insert(sub.to_vec(), weight);
                    }
                }
            }
        }
        stats.candidates = counts.len() as u64;
        for (seq, freq) in counts {
            if freq >= params.sigma && seq.iter().copied().max() == Some(pivot) {
                out.push(&seq, freq);
                stats.outputs += 1;
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::super::minertests::{check_aggregation_invariance, check_fig2_outputs, mine_set};
    use super::*;

    #[test]
    fn reproduces_fig2_partition_outputs() {
        check_fig2_outputs(&NaiveMiner);
    }

    #[test]
    fn aggregation_invariant() {
        check_aggregation_invariance(&NaiveMiner);
    }

    #[test]
    fn empty_partition_mines_nothing() {
        let params = GsmParams::new(1, 0, 3).unwrap();
        let space = ItemSpace::flat(vec![1], 1);
        let (out, stats) = mine_set(&NaiveMiner, &Partition::new(), 0, &space, &params);
        assert!(out.is_empty());
        assert_eq!(stats.outputs, 0);
    }
}

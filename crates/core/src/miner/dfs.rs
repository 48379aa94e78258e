//! Hierarchy-aware DFS miner (PrefixSpan-style pattern growth, paper
//! Sec. 5.1).
//!
//! Starts from every frequent item and recursively *right-expands*: for a
//! pattern `S`, the support set `D_S` is scanned for the items (and all their
//! generalizations) occurring within γ+1 positions after an embedding; each
//! frequent extension `S·w'` is output and grown further.
//!
//! In the context of LASH the DFS miner computes **all** locally frequent
//! sequences — including the non-pivot sequences that are filtered out
//! afterwards. This wasted work is intrinsic (short non-pivot prefixes like
//! `ca` contribute to longer pivot sequences like `caD`) and is what PSM
//! eliminates.

use crate::hierarchy::ItemSpace;
use crate::params::GsmParams;
use crate::pattern::PatternArena;
use crate::sequence::Partition;

use super::expansion::{with_scratch, Block, Dir, Engine};
use super::{LocalMiner, MinerStats};

/// The PrefixSpan-style miner.
#[derive(Debug, Clone, Copy, Default)]
pub struct DfsMiner;

struct Run<'a> {
    engine: Engine<'a>,
    params: &'a GsmParams,
    pivot: u32,
    out: &'a mut PatternArena,
    stats: MinerStats,
}

impl Run<'_> {
    /// Outputs every frequent extension in `block` of `pattern` that is a
    /// pivot sequence and grows it further.
    fn grow(&mut self, pattern: &mut Vec<u32>, block: Block) {
        for i in block.children.clone() {
            let child = self.engine.child(i);
            pattern.push(child.item);
            if pattern.len() >= 2 && pattern.iter().copied().max() == Some(self.pivot) {
                self.out.push(pattern, child.frequency);
                self.stats.outputs += 1;
            }
            if pattern.len() < self.params.lambda {
                self.stats.expansions += 1;
                // Extension items are capped at the pivot (the engine's
                // `max_item`): larger items cannot occur in this partition's
                // pivot sequences, and w-generalization has already removed
                // them from the data. The cap is a no-op for fully rewritten
                // partitions but keeps the miner correct on raw data.
                let (candidates, next) = self.engine.expand(
                    child.level,
                    Dir::Right,
                    None,
                    None,
                    self.params.sigma,
                    pattern.len() + 1 < self.params.lambda,
                );
                self.stats.candidates += candidates;
                self.grow(pattern, next);
            }
            pattern.pop();
        }
        self.engine.pop_block(block);
    }
}

impl LocalMiner for DfsMiner {
    fn name(&self) -> &'static str {
        "DFS"
    }

    fn mine(
        &self,
        partition: &Partition,
        pivot: u32,
        space: &ItemSpace,
        params: &GsmParams,
        out: &mut PatternArena,
    ) -> MinerStats {
        with_scratch(|scratch| {
            let mut run = Run {
                engine: Engine::new(&mut scratch.buffers, partition, space, params.gamma, pivot),
                params,
                pivot,
                out,
                stats: MinerStats::default(),
            };
            // Level 1: frequent single items (counted like every other level,
            // so the search-space accounting matches the paper's Sec. 5.2
            // example).
            let (candidates, items) = run.engine.expand_items(params.sigma);
            run.stats.candidates += candidates;
            run.grow(&mut Vec::with_capacity(params.lambda), items);
            run.stats
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::minertests::{check_aggregation_invariance, check_fig2_outputs, mine_set};
    use super::super::naive::NaiveMiner;
    use super::*;
    use crate::testutil::fig2_context;

    #[test]
    fn reproduces_fig2_partition_outputs() {
        check_fig2_outputs(&DfsMiner);
    }

    #[test]
    fn aggregation_invariant() {
        check_aggregation_invariance(&DfsMiner);
    }

    #[test]
    fn agrees_with_naive_on_unrewritten_data() {
        // Mine each raw Fig. 1 sequence set as a partition for every pivot.
        let ctx = fig2_context();
        let space = ctx.space();
        for gamma in 0..2 {
            for lambda in 2..4 {
                let params = GsmParams::new(2, gamma, lambda).unwrap();
                let partition =
                    Partition::aggregate((0..6).map(|i| (ctx.ranked_seq(i).to_vec(), 1)));
                for pivot in 0..space.num_frequent() {
                    let (naive, _) = mine_set(&NaiveMiner, &partition, pivot, space, &params);
                    let (dfs, _) = mine_set(&DfsMiner, &partition, pivot, space, &params);
                    assert_eq!(naive, dfs, "pivot {pivot} γ={gamma} λ={lambda}");
                }
            }
        }
    }

    #[test]
    fn explores_non_pivot_candidates() {
        // DFS pays for non-pivot sequences: on P_D it evaluates candidates
        // like `ca` that PSM never touches. We just assert the accounting is
        // non-trivial.
        let ctx = fig2_context();
        let params = GsmParams::new(2, 1, 3).unwrap();
        let partition = super::super::minertests::fig2_partition(&ctx, "D", &params);
        let (_, stats) = mine_set(&DfsMiner, &partition, ctx.rank("D"), ctx.space(), &params);
        assert!(stats.candidates > stats.outputs);
    }
}

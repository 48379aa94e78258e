//! PSM — the pivot sequence miner (paper Sec. 5.2, Alg. 2).
//!
//! PSM enumerates *only* pivot sequences: it starts from the pivot item and
//! grows patterns with right expansions first, then left expansions. Every
//! pivot sequence `S` has the unique decomposition `S = Sl·w·Sr` with
//! `w ∉ Sr` (the last pivot occurrence); PSM reaches it by left-expanding to
//! `Sl·w` and then right-expanding to append `Sr`. Two rules make the
//! enumeration duplicate-free:
//!
//! * right expansions never use the pivot item (so `Sr` stays pivot-free);
//! * a sequence produced by a right expansion is never left-expanded.
//!
//! The optional **right-expansion index** records, per suffix depth, the
//! union of frequent right-extension items found while expanding a prefix;
//! when the prefix is later left-extended, the child's right expansions only
//! consider items in the parent's index (support monotonicity, Lemma 1 —
//! `Sw'` infrequent implies `w''Sw'` infrequent). This is the paper's
//! "actual implementation", which unions the per-sequence indexes of each
//! level of a right-expansion series.

use crate::hierarchy::ItemSpace;
use crate::params::GsmParams;
use crate::pattern::PatternArena;
use crate::sequence::Partition;

use super::expansion::{with_scratch, Dir, Engine, ItemSet, Level};
use super::{LocalMiner, MinerStats};

/// The pivot sequence miner; `use_index` enables the right-expansion index
/// ("PSM + Index" in Fig. 4(c,d)).
#[derive(Debug, Clone, Copy, Default)]
pub struct PsmMiner {
    /// Enable the right-expansion index optimization.
    pub use_index: bool,
}

impl PsmMiner {
    /// PSM without the index.
    pub fn plain() -> Self {
        PsmMiner { use_index: false }
    }

    /// PSM with the right-expansion index.
    pub fn indexed() -> Self {
        PsmMiner { use_index: true }
    }
}

/// The right-expansion indexes of the left-prefix contexts on the current
/// search path. A context is the pivot alone (context 0) or a left-prefixed
/// `Sl·w` one left expansion deeper than its parent; its index holds, per
/// suffix depth `d`, the union of frequent right-extension items found at
/// that depth. At most λ contexts are alive at once, each with fewer than λ
/// depths, so the sets sit in one table and are emptied when a context
/// starts instead of being allocated.
struct RightIndexes<'a> {
    sets: &'a mut Vec<ItemSet>,
    lambda: usize,
}

impl RightIndexes<'_> {
    fn slot(&self, context: usize, depth: usize) -> usize {
        context * self.lambda + depth - 1
    }

    fn start_context(&mut self, context: usize) {
        for depth in 1..=self.lambda {
            let slot = self.slot(context, depth);
            self.sets[slot].clear();
        }
    }

    fn record(&mut self, context: usize, depth: usize, item: u32) {
        let slot = self.slot(context, depth);
        self.sets[slot].insert(item);
    }

    fn allowed(&self, context: usize, depth: usize) -> &ItemSet {
        &self.sets[self.slot(context, depth)]
    }
}

struct Run<'a> {
    engine: Engine<'a>,
    /// `None` for plain PSM.
    index: Option<RightIndexes<'a>>,
    params: &'a GsmParams,
    pivot: u32,
    out: &'a mut PatternArena,
    stats: MinerStats,
}

impl Run<'_> {
    /// Appends a pivot sequence to the sink. PSM's enumeration reaches each
    /// pivot sequence once, so nothing is checked for duplicates.
    fn output(&mut self, pattern: &[u32], frequency: u64) {
        self.out.push(pattern, frequency);
        self.stats.outputs += 1;
    }

    /// Right-expansion series (Alg. 2, `dir = right`) of `context`. `depth`
    /// is the suffix length after the last pivot that the next extension
    /// would create. Candidates are restricted to the parent context's index
    /// (the root has none), and the frequent ones are recorded in this
    /// context's own index for its children.
    fn expand_right(&mut self, pattern: &mut Vec<u32>, level: Level, depth: usize, context: usize) {
        if pattern.len() == self.params.lambda {
            return;
        }
        let allowed = match (&self.index, context.checked_sub(1)) {
            (Some(index), Some(parent)) => {
                let set = index.allowed(parent, depth);
                // Parent never found frequent items at this depth: RS = ∅,
                // skip the scan entirely.
                if set.is_empty() {
                    return;
                }
                Some(set)
            }
            _ => None,
        };
        self.stats.expansions += 1;
        let (candidates, block) = self.engine.expand(
            level,
            Dir::Right,
            Some(self.pivot),
            allowed,
            self.params.sigma,
            pattern.len() + 1 < self.params.lambda,
        );
        self.stats.candidates += candidates;
        for i in block.children.clone() {
            let child = self.engine.child(i);
            if let Some(index) = &mut self.index {
                index.record(context, depth, child.item);
            }
            pattern.push(child.item);
            self.output(pattern, child.frequency);
            self.expand_right(pattern, child.level, depth + 1, context);
            pattern.pop();
        }
        self.engine.pop_block(block);
    }

    /// Left-expansion series (Alg. 2, `dir = left`). `pattern` is the
    /// all-left-chain sequence `Sl·w` of `context`, whose right-expansion
    /// series has already run.
    fn expand_left(&mut self, pattern: &mut Vec<u32>, level: Level, context: usize) {
        if pattern.len() == self.params.lambda {
            return;
        }
        self.stats.expansions += 1;
        // Left expansions may use any item ≤ pivot, including the pivot
        // itself (`DD` decomposes as Sl=D, w=D, Sr=ε).
        let (candidates, block) = self.engine.expand(
            level,
            Dir::Left,
            None,
            None,
            self.params.sigma,
            pattern.len() + 1 < self.params.lambda,
        );
        self.stats.candidates += candidates;
        for i in block.children.clone() {
            let child = self.engine.child(i);
            pattern.insert(0, child.item);
            self.output(pattern, child.frequency);
            if let Some(index) = &mut self.index {
                index.start_context(context + 1);
            }
            self.expand_right(pattern, child.level, 1, context + 1);
            self.expand_left(pattern, child.level, context + 1);
            pattern.remove(0);
        }
        self.engine.pop_block(block);
    }
}

impl LocalMiner for PsmMiner {
    fn name(&self) -> &'static str {
        if self.use_index {
            "PSM+Index"
        } else {
            "PSM"
        }
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
            let index = self.use_index.then(|| {
                let sets = &mut scratch.index;
                if sets.len() < params.lambda * params.lambda {
                    sets.resize_with(params.lambda * params.lambda, ItemSet::default);
                }
                RightIndexes {
                    sets,
                    lambda: params.lambda,
                }
            });
            let mut run = Run {
                engine: Engine::new(&mut scratch.buffers, partition, space, params.gamma, pivot),
                index,
                params,
                pivot,
                out,
                stats: MinerStats::default(),
            };
            let root = run.engine.push_item_level(pivot);
            if !root.is_empty() {
                let mut pattern = vec![pivot];
                if let Some(index) = &mut run.index {
                    index.start_context(0);
                }
                run.expand_right(&mut pattern, root, 1, 0);
                run.expand_left(&mut pattern, root, 0);
            }
            run.stats
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::minertests::{
        check_aggregation_invariance, check_fig2_outputs, fig2_partition, mine_set,
    };
    use super::super::{DfsMiner, NaiveMiner};
    use super::*;
    use crate::testutil::{fig2_context, named_patterns, ranks};

    #[test]
    fn psm_reproduces_fig2_partition_outputs() {
        check_fig2_outputs(&PsmMiner::plain());
    }

    #[test]
    fn psm_indexed_reproduces_fig2_partition_outputs() {
        check_fig2_outputs(&PsmMiner::indexed());
    }

    #[test]
    fn aggregation_invariant() {
        check_aggregation_invariance(&PsmMiner::plain());
        check_aggregation_invariance(&PsmMiner::indexed());
    }

    /// A partition in the spirit of the paper's Sec. 5 example (Eq. 4): pivot
    /// sequences must include patterns reached via left-then-right expansion
    /// such as `caD`, and repeated-pivot patterns such as `DD`.
    #[test]
    fn mines_left_then_right_and_repeated_pivots() {
        let ctx = fig2_context();
        let space = ctx.space();
        let [a, c, d] = ranks(&ctx, &["a", "c", "D"])[..] else {
            panic!()
        };
        let params = GsmParams::new(2, 1, 4).unwrap();
        let partition = Partition::aggregate([
            (&[a, d, d, a][..], 1),
            (&[c, a, d, d][..], 1),
            (&[c, a, d][..], 1),
        ]);
        let (got, _) = mine_set(&PsmMiner::plain(), &partition, d, space, &params);
        // caD via LE(c after a) chains; DD via left expansion with the pivot.
        assert_eq!(got.get(&[c, a, d]), Some(2));
        assert_eq!(got.get(&[a, d],), Some(3));
        assert_eq!(got.get(&[d, d]), Some(2));
        assert_eq!(got.get(&[a, d, d]), Some(2));
        // And it agrees with the naive miner entirely.
        let (naive, _) = mine_set(&NaiveMiner, &partition, d, space, &params);
        assert_eq!(got, naive);
        let (indexed, _) = mine_set(&PsmMiner::indexed(), &partition, d, space, &params);
        assert_eq!(indexed, naive);
    }

    #[test]
    fn psm_explores_fewer_candidates_than_dfs() {
        // Paper Sec. 5.2: PSM explores roughly a third of DFS's search space
        // on the P_D-style example; we assert the ordering (and that the
        // index never explores more than plain PSM) on the Fig. 2 partitions.
        let ctx = fig2_context();
        let params = GsmParams::new(2, 1, 3).unwrap();
        let mut dfs_total = 0u64;
        let mut psm_total = 0u64;
        let mut idx_total = 0u64;
        for pivot in ["a", "B", "b1", "c", "D"] {
            let partition = fig2_partition(&ctx, pivot, &params);
            let p = ctx.rank(pivot);
            let (_, s1) = mine_set(&DfsMiner, &partition, p, ctx.space(), &params);
            let (_, s2) = mine_set(&PsmMiner::plain(), &partition, p, ctx.space(), &params);
            let (_, s3) = mine_set(&PsmMiner::indexed(), &partition, p, ctx.space(), &params);
            dfs_total += s1.candidates;
            psm_total += s2.candidates;
            idx_total += s3.candidates;
        }
        assert!(psm_total < dfs_total, "PSM {psm_total} vs DFS {dfs_total}");
        assert!(
            idx_total <= psm_total,
            "index {idx_total} vs plain {psm_total}"
        );
    }

    #[test]
    fn respects_lambda_boundary() {
        let ctx = fig2_context();
        let params = GsmParams::new(1, 1, 2).unwrap();
        let partition = fig2_partition(&ctx, "B", &params);
        let (got, _) = mine_set(
            &PsmMiner::plain(),
            &partition,
            ctx.rank("B"),
            ctx.space(),
            &params,
        );
        assert!(got.iter().all(|(p, _)| p.len() == 2));
    }

    #[test]
    fn empty_partition_yields_nothing() {
        let ctx = fig2_context();
        let params = GsmParams::new(2, 1, 3).unwrap();
        let (got, stats) = mine_set(
            &PsmMiner::indexed(),
            &Partition::new(),
            0,
            ctx.space(),
            &params,
        );
        assert!(got.is_empty());
        assert_eq!(stats, MinerStats::default());
    }

    #[test]
    fn every_output_contains_the_pivot() {
        let ctx = fig2_context();
        let params = GsmParams::new(2, 1, 4).unwrap();
        for pivot in ["a", "B", "b1", "c", "D"] {
            let partition = fig2_partition(&ctx, pivot, &params);
            let p = ctx.rank(pivot);
            let (got, _) = mine_set(&PsmMiner::indexed(), &partition, p, ctx.space(), &params);
            for (pat, _) in got.iter() {
                assert_eq!(pat.iter().copied().max(), Some(p));
                assert!(pat.len() >= 2 && pat.len() <= 4);
            }
        }
    }

    #[test]
    fn named_expected_outputs_for_pd_style_partition() {
        // Cross-check one partition in name space for readability.
        let ctx = fig2_context();
        let params = GsmParams::new(2, 1, 3).unwrap();
        let partition = fig2_partition(&ctx, "D", &params);
        let (got, _) = mine_set(
            &PsmMiner::indexed(),
            &partition,
            ctx.rank("D"),
            ctx.space(),
            &params,
        );
        assert_eq!(got, named_patterns(&ctx, &[("b1 D", 2), ("B D", 2)]));
    }
}

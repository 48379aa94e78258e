//! Local (per-partition) mining algorithms.
//!
//! The reduce phase of LASH runs a *generalized sequence miner* on each
//! partition `P_w` and keeps the locally frequent **pivot sequences** — the
//! sequences `S` with `p(S) = w` and `2 ≤ |S| ≤ λ` (paper Sec. 5). This module
//! provides:
//!
//! * [`NaiveMiner`] — exhaustive enumeration of the partition's
//!   generalized subsequences;
//! * [`BfsMiner`] — hierarchy-aware SPADE (level-wise
//!   candidate-generation-and-test over a vertical index, Sec. 5.1);
//! * [`DfsMiner`] — hierarchy-aware PrefixSpan (pattern-growth
//!   with right expansions, Sec. 5.1);
//! * [`PsmMiner`] — the pivot sequence miner (Sec. 5.2), which
//!   only ever enumerates pivot sequences, optionally with the
//!   right-expansion index.
//!
//! BFS and DFS mine *all* locally frequent sequences and filter to pivot
//! sequences afterwards — exactly the overhead that PSM eliminates and that
//! Fig. 4(c,d) quantifies. [`MinerStats`] exposes the search-space accounting.

pub mod bfs;
pub mod dfs;
mod expansion;
pub mod naive;
pub mod psm;

use crate::hierarchy::ItemSpace;
use crate::params::GsmParams;
use crate::pattern::PatternArena;
use crate::sequence::Partition;

pub use bfs::BfsMiner;
pub use dfs::DfsMiner;
pub use naive::NaiveMiner;
pub use psm::PsmMiner;

/// Search-space accounting for a local mining run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinerStats {
    /// Candidate sequences whose support was evaluated (the paper's
    /// "#candidate sequences", Fig. 4(d)).
    pub candidates: u64,
    /// Projection/expansion steps performed (database scans for
    /// pattern-growth miners, joins for BFS).
    pub expansions: u64,
    /// Number of output (pivot) sequences: the patterns pushed to the sink.
    pub outputs: u64,
}

impl MinerStats {
    /// Adds another stats record into this one.
    pub fn absorb(&mut self, other: MinerStats) {
        self.candidates += other.candidates;
        self.expansions += other.expansions;
        self.outputs += other.outputs;
    }

    /// Candidates per output sequence (Fig. 4(d)'s y-axis); `None` when
    /// nothing was output.
    pub fn candidates_per_output(&self) -> Option<f64> {
        (self.outputs > 0).then(|| self.candidates as f64 / self.outputs as f64)
    }
}

/// A local GSM algorithm run inside a reduce task.
///
/// Implementations append to the caller's sink exactly the frequent pivot
/// sequences of the partition — every `S` with `p(S) = pivot`,
/// `2 ≤ |S| ≤ λ` and `f_γ(S, P_w) ≥ σ`, with exact frequencies — and append
/// each pivot sequence exactly once: nothing downstream deduplicates.
pub trait LocalMiner: Send + Sync {
    /// A short display name ("BFS", "PSM", …).
    fn name(&self) -> &'static str;

    /// Mines `partition` for pivot sequences of `pivot`, appending them to
    /// `out` (whatever `out` held before stays); the returned
    /// [`MinerStats::outputs`] is the number appended.
    fn mine(
        &self,
        partition: &Partition,
        pivot: u32,
        space: &ItemSpace,
        params: &GsmParams,
        out: &mut PatternArena,
    ) -> MinerStats;
}

#[cfg(test)]
pub(crate) mod minertests {
    //! Shared conformance tests: every miner must reproduce the paper's
    //! Fig. 2 per-partition outputs and be invariant under aggregation.

    use super::*;
    use crate::pattern::PatternSet;
    use crate::rewrite::{RewriteScratch, Rewriter};
    use crate::testutil::{fig2_context, named_patterns, Fig2Context};

    /// Runs `miner` into a fresh sink and collects the sink as a
    /// [`PatternSet`], for comparisons.
    pub(crate) fn mine_set(
        miner: &dyn LocalMiner,
        partition: &Partition,
        pivot: u32,
        space: &ItemSpace,
        params: &GsmParams,
    ) -> (PatternSet, MinerStats) {
        let mut out = PatternArena::new();
        let stats = miner.mine(partition, pivot, space, params, &mut out);
        assert_eq!(stats.outputs, out.len() as u64, "{}", miner.name());
        let set: PatternSet = out.iter().map(|(p, f)| (p.to_vec(), f)).collect();
        assert_eq!(set.len(), out.len(), "{} pushed a duplicate", miner.name());
        (set, stats)
    }

    /// Builds the Fig. 2 partition for `pivot` via the full rewrite pipeline.
    pub(crate) fn fig2_partition(ctx: &Fig2Context, pivot: &str, params: &GsmParams) -> Partition {
        let rewrites = fig2_rewrites(ctx, ctx.rank(pivot), params);
        Partition::aggregate(rewrites.iter().map(|seq| (seq, 1)))
    }

    /// The non-empty rewrites of the six Fig. 1 sequences for `pivot`.
    fn fig2_rewrites(ctx: &Fig2Context, pivot: u32, params: &GsmParams) -> Vec<Vec<u32>> {
        let rw = Rewriter::new(ctx.space(), params);
        let mut scratch = RewriteScratch::default();
        (0..6)
            .filter_map(|i| {
                rw.rewrite_into(ctx.ranked_seq(i), pivot, &mut scratch)
                    .map(<[u32]>::to_vec)
            })
            .collect()
    }

    /// Runs `miner` over all five Fig. 2 partitions and checks the paper's
    /// expected outputs.
    pub(crate) fn check_fig2_outputs(miner: &dyn LocalMiner) {
        let ctx = fig2_context();
        let params = GsmParams::new(2, 1, 3).unwrap();
        let cases: &[(&str, &[(&str, u64)])] = &[
            ("a", &[("a a", 2)]),
            ("B", &[("a B", 3), ("B a", 2)]),
            ("b1", &[("a b1", 2), ("b1 a", 2)]),
            ("c", &[("B c", 2), ("a c", 2), ("a B c", 2)]),
            ("D", &[("b1 D", 2), ("B D", 2)]),
        ];
        for (pivot, expected) in cases {
            let partition = fig2_partition(&ctx, pivot, &params);
            let (got, stats) = mine_set(miner, &partition, ctx.rank(pivot), ctx.space(), &params);
            let want = named_patterns(&ctx, expected);
            assert_eq!(
                got,
                want,
                "{} on partition P_{pivot}: diff = {:?}",
                miner.name(),
                got.diff(&want)
            );
            assert_eq!(stats.outputs, expected.len() as u64, "{pivot} outputs");
        }
    }

    /// Aggregation must not change any miner's result: mining the aggregated
    /// partition equals mining the raw (weight-1 duplicated) partition.
    pub(crate) fn check_aggregation_invariance(miner: &dyn LocalMiner) {
        let ctx = fig2_context();
        let params = GsmParams::new(2, 1, 3).unwrap();
        let pivot = ctx.rank("B");
        let raw = fig2_rewrites(&ctx, pivot, &params);
        let aggregated = Partition::aggregate(raw.iter().map(|seq| (seq, 1)));
        let mut unaggregated = Partition::new();
        for seq in &raw {
            unaggregated.push(seq, 1);
        }
        assert!(aggregated.len() < unaggregated.len());
        let (a, _) = mine_set(miner, &aggregated, pivot, ctx.space(), &params);
        let (b, _) = mine_set(miner, &unaggregated, pivot, ctx.space(), &params);
        assert_eq!(a, b, "{}", miner.name());
    }
}

#[cfg(test)]
mod tests {
    use super::minertests::{fig2_partition, mine_set};
    use super::*;
    use crate::testutil::fig2_context;

    /// Search-space accounting of every miner on the five Fig. 2 partitions
    /// (P_a, P_B, P_b1, P_c, P_D), as (candidates, expansions, outputs).
    /// Pinned so that a change to how a miner stores its projected databases
    /// cannot change *what* it searches without failing here: the figures
    /// Fig. 4(d) reports are these counters.
    #[test]
    fn fig2_search_space_is_pinned() {
        type Row = [(u64, u64, u64); 5];
        let (psm, psm_indexed) = (PsmMiner::plain(), PsmMiner::indexed());
        let pinned: [(usize, usize, &dyn LocalMiner, Row); 10] = [
            (
                1,
                3,
                &NaiveMiner,
                [(1, 1, 1), (9, 3, 2), (23, 3, 2), (14, 3, 3), (15, 2, 2)],
            ),
            (
                1,
                3,
                &BfsMiner,
                [(2, 2, 1), (9, 8, 2), (20, 14, 2), (8, 4, 3), (8, 2, 2)],
            ),
            (
                1,
                3,
                &DfsMiner,
                [(2, 2, 1), (11, 5, 2), (26, 8, 2), (15, 6, 3), (12, 5, 2)],
            ),
            (
                1,
                3,
                &psm,
                [(1, 4, 1), (7, 5, 2), (12, 5, 2), (8, 6, 3), (8, 6, 2)],
            ),
            (
                1,
                3,
                &psm_indexed,
                [(1, 3, 1), (7, 5, 2), (11, 5, 2), (6, 4, 3), (6, 4, 2)],
            ),
            (
                2,
                5,
                &NaiveMiner,
                [(1, 1, 1), (10, 4, 4), (27, 3, 2), (21, 3, 3), (18, 2, 2)],
            ),
            (
                2,
                5,
                &BfsMiner,
                [(2, 2, 1), (12, 12, 4), (20, 14, 2), (9, 4, 3), (9, 2, 2)],
            ),
            (
                2,
                5,
                &DfsMiner,
                [(2, 2, 1), (11, 7, 4), (26, 8, 2), (19, 7, 3), (12, 5, 2)],
            ),
            (
                2,
                5,
                &psm,
                [(1, 4, 1), (8, 9, 4), (12, 5, 2), (9, 8, 3), (8, 6, 2)],
            ),
            (
                2,
                5,
                &psm_indexed,
                [(1, 3, 1), (8, 8, 4), (11, 5, 2), (6, 5, 3), (6, 4, 2)],
            ),
        ];
        let ctx = fig2_context();
        for (gamma, lambda, miner, row) in pinned {
            let params = GsmParams::new(2, gamma, lambda).unwrap();
            for (pivot, (candidates, expansions, outputs)) in
                ["a", "B", "b1", "c", "D"].into_iter().zip(row)
            {
                let partition = fig2_partition(&ctx, pivot, &params);
                let (_, stats) = mine_set(miner, &partition, ctx.rank(pivot), ctx.space(), &params);
                let want = MinerStats {
                    candidates,
                    expansions,
                    outputs,
                };
                assert_eq!(
                    stats,
                    want,
                    "{} on P_{pivot} γ={gamma} λ={lambda}",
                    miner.name()
                );
            }
        }
    }

    #[test]
    fn stats_absorb_and_ratio() {
        let mut a = MinerStats {
            candidates: 10,
            expansions: 3,
            outputs: 2,
        };
        a.absorb(MinerStats {
            candidates: 5,
            expansions: 1,
            outputs: 3,
        });
        assert_eq!(a.candidates, 15);
        assert_eq!(a.expansions, 4);
        assert_eq!(a.outputs, 5);
        assert_eq!(a.candidates_per_output(), Some(3.0));
        assert_eq!(MinerStats::default().candidates_per_output(), None);
    }
}

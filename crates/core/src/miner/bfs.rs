//! Hierarchy-aware BFS miner (SPADE-style, paper Sec. 5.1).
//!
//! Level-wise candidate-generation-and-test over a vertical representation:
//!
//! 1. scan the partition once, adding each sequence to the posting list of
//!    every length-2 generalized subsequence in `G2(T)` — this is the only
//!    hierarchy-specific change to SPADE;
//! 2. to grow from level `l` to `l+1`, join frequent `l`-sequences sharing an
//!    `(l-1)`-infix (`S1[1..] = S2[..l-1]`), intersect their posting lists,
//!    and verify the gap-constrained containment on the intersection.
//!
//! Like DFS, BFS mines *all* locally frequent sequences and filters to pivot
//! sequences at the end; unlike the pattern-growth miners it materializes
//! whole levels, which is what makes it run out of memory on the paper's
//! CLP(100, 0, 7) setting.

use crate::fxhash::{FxHashMap, FxHashSet};
use crate::hierarchy::ItemSpace;
use crate::matching::matches;
use crate::params::GsmParams;
use crate::pattern::PatternArena;
use crate::sequence::Partition;
use crate::BLANK;

use super::{LocalMiner, MinerStats};

/// The SPADE-style miner.
#[derive(Debug, Clone, Copy, Default)]
pub struct BfsMiner;

/// A frequent sequence with its posting list (sorted sequence indices).
struct Entry {
    seq: Vec<u32>,
    postings: Vec<u32>,
    frequency: u64,
}

impl LocalMiner for BfsMiner {
    fn name(&self) -> &'static str {
        "BFS"
    }

    fn mine(
        &self,
        partition: &Partition,
        pivot: u32,
        space: &ItemSpace,
        params: &GsmParams,
        out: &mut PatternArena,
    ) -> MinerStats {
        let mut stats = MinerStats::default();

        // Level 2: vertical index over G2(T).
        let mut postings: FxHashMap<Vec<u32>, Vec<u32>> = FxHashMap::default();
        let mut per_seq: FxHashSet<Vec<u32>> = FxHashSet::default();
        for (idx, (items, _)) in partition.iter().enumerate() {
            stats.expansions += 1;
            per_seq.clear();
            for i in 0..items.len() {
                if items[i] == BLANK {
                    continue;
                }
                let jmax = (i + 1 + params.gamma).min(items.len().saturating_sub(1));
                for j in i + 1..=jmax {
                    if items[j] == BLANK {
                        continue;
                    }
                    for &u in space.chain(items[i]) {
                        if u > pivot {
                            continue;
                        }
                        for &v in space.chain(items[j]) {
                            if v > pivot {
                                continue;
                            }
                            per_seq.insert(vec![u, v]);
                        }
                    }
                }
            }
            for key in per_seq.drain() {
                postings.entry(key).or_default().push(idx as u32);
            }
        }
        stats.candidates += postings.len() as u64;

        let weight_of =
            |list: &[u32]| -> u64 { list.iter().map(|&i| partition.weight(i as usize)).sum() };

        let mut level: Vec<Entry> = postings
            .into_iter()
            .filter_map(|(seq, postings)| {
                let frequency = weight_of(&postings);
                (frequency >= params.sigma).then_some(Entry {
                    seq,
                    postings,
                    frequency,
                })
            })
            .collect();
        level.sort_unstable_by(|a, b| a.seq.cmp(&b.seq));

        for entry in &level {
            if entry.seq.iter().copied().max() == Some(pivot) {
                out.push(&entry.seq, entry.frequency);
                stats.outputs += 1;
            }
        }

        // Levels 3..λ: prefix/suffix joins.
        let obs = lash_obs::global();
        let mut len = 2usize;
        while len < params.lambda && !level.is_empty() {
            let level_started = std::time::Instant::now();
            // Bucket level-l sequences by their (l-1)-prefix for the join.
            let mut by_prefix: FxHashMap<&[u32], Vec<usize>> = FxHashMap::default();
            for (i, e) in level.iter().enumerate() {
                by_prefix.entry(&e.seq[..len - 1]).or_default().push(i);
            }
            let mut next: Vec<Entry> = Vec::new();
            for s1 in &level {
                let Some(bucket) = by_prefix.get(&s1.seq[1..]) else {
                    continue;
                };
                for &j in bucket {
                    let s2 = &level[j];
                    stats.candidates += 1;
                    stats.expansions += 1;
                    let mut candidate = Vec::with_capacity(len + 1);
                    candidate.extend_from_slice(&s1.seq);
                    candidate.push(*s2.seq.last().expect("non-empty"));
                    // Intersect posting lists, verifying the full containment
                    // (the intersection over-approximates support under gaps).
                    let mut verified = Vec::new();
                    let (mut a, mut b) = (0usize, 0usize);
                    while a < s1.postings.len() && b < s2.postings.len() {
                        match s1.postings[a].cmp(&s2.postings[b]) {
                            std::cmp::Ordering::Less => a += 1,
                            std::cmp::Ordering::Greater => b += 1,
                            std::cmp::Ordering::Equal => {
                                let sidx = s1.postings[a];
                                let seq = partition.seq(sidx as usize);
                                if matches(&candidate, seq, space, params.gamma) {
                                    verified.push(sidx);
                                }
                                a += 1;
                                b += 1;
                            }
                        }
                    }
                    let frequency = weight_of(&verified);
                    if frequency >= params.sigma {
                        if candidate.iter().copied().max() == Some(pivot) {
                            out.push(&candidate, frequency);
                            stats.outputs += 1;
                        }
                        next.push(Entry {
                            seq: candidate,
                            postings: verified,
                            frequency,
                        });
                    }
                }
            }
            next.sort_unstable_by(|x, y| x.seq.cmp(&y.seq));
            level = next;
            len += 1;
            obs.observe_span(
                "mine.bfs.level",
                level_started.elapsed(),
                &[("level", len.into()), ("survivors", level.len().into())],
            );
        }

        stats
    }
}

#[cfg(test)]
mod tests {
    use super::super::minertests::{
        check_aggregation_invariance, check_fig2_outputs, fig2_partition, mine_set,
    };
    use super::super::NaiveMiner;
    use super::*;
    use crate::testutil::fig2_context;

    #[test]
    fn reproduces_fig2_partition_outputs() {
        check_fig2_outputs(&BfsMiner);
    }

    #[test]
    fn aggregation_invariant() {
        check_aggregation_invariance(&BfsMiner);
    }

    #[test]
    fn agrees_with_naive_across_parameters() {
        let ctx = fig2_context();
        let space = ctx.space();
        for gamma in 0..3 {
            for lambda in 2..5 {
                let params = GsmParams::new(2, gamma, lambda).unwrap();
                for pivot in ["a", "B", "b1", "c", "D"] {
                    let partition = fig2_partition(&ctx, pivot, &params);
                    let p = ctx.rank(pivot);
                    let (naive, _) = mine_set(&NaiveMiner, &partition, p, space, &params);
                    let (bfs, _) = mine_set(&BfsMiner, &partition, p, space, &params);
                    assert_eq!(
                        naive,
                        bfs,
                        "pivot {pivot} γ={gamma} λ={lambda}: {:?}",
                        naive.diff(&bfs)
                    );
                }
            }
        }
    }

    #[test]
    fn gap_constraints_verified_not_assumed() {
        // The 2-sequence index alone would claim "c a" is supported (c@1,
        // a@3) at γ=0; verification must reject non-contiguous embeddings.
        // Pivot is c (the largest item of the sequence under the Fig. 2
        // order: a < B < b1 < c).
        let ctx = fig2_context();
        let space = ctx.space();
        let a = ctx.rank("a");
        let c = ctx.rank("c");
        let b1 = ctx.rank("b1");
        let b_cap = ctx.rank("B");
        let params = GsmParams::new(1, 0, 3).unwrap();
        let partition = Partition::aggregate([([a, c, b1, a], 1)]);
        let (got, _) = mine_set(&BfsMiner, &partition, c, space, &params);
        assert!(got.contains(&[a, c, b1]));
        assert!(got.contains(&[a, c, b_cap])); // hierarchy-aware level-2 index
        assert!(got.contains(&[c, b1]));
        assert!(got.contains(&[c, b1, a]));
        assert!(!got.contains(&[c, a])); // gap 1 > γ=0
        assert!(!got.contains(&[a, c, b1, a])); // λ = 3
    }

    #[test]
    fn empty_partition_is_fine() {
        let ctx = fig2_context();
        let params = GsmParams::new(1, 0, 3).unwrap();
        let (got, stats) = mine_set(&BfsMiner, &Partition::new(), 0, ctx.space(), &params);
        assert!(got.is_empty());
        assert_eq!(stats.outputs, 0);
    }
}

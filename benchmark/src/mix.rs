//! The query mix: a pool of queries drawn by seed from a mined pattern set,
//! with the answers the mined set itself implies.

use std::collections::HashSet;

use lash::index::{PatternHit, PatternIndexReader, Query, QueryReply};
use lash::{ItemId, Pattern};

/// Queries in the pool; load generators cycle through it.
pub const POOL: usize = 4096;
pub const TOP_K: usize = 10;
pub const ENUMERATE_LIMIT: usize = 20;

/// SplitMix64: the benchmark's own generator, so query choice depends on
/// the seed and on nothing the library may change.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

pub struct Mix {
    pub queries: Vec<Query>,
    /// The reply the mined set alone dictates: exact support (hit or miss)
    /// and top-k. `None` for the kinds only an index walk answers.
    pub from_mined: Vec<Option<QueryReply>>,
}

/// Draws the pool: 60% `Support` hits, 10% `Support` misses, 10% `TopK`,
/// 10% `Enumerate`, 10% `Generalized`, each over a uniformly chosen mined
/// pattern.
pub fn build(patterns: &[Pattern], seed: u64) -> Mix {
    assert!(!patterns.is_empty(), "the query mix needs mined patterns");
    let mut lex: Vec<&Pattern> = patterns.iter().collect();
    lex.sort_unstable_by(|a, b| a.items.cmp(&b.items));
    let mined: HashSet<&[ItemId]> = patterns.iter().map(|p| p.items.as_slice()).collect();
    let mut rng = SplitMix64(seed ^ 0x006c_6173_686d_6978);
    let mut queries = Vec::with_capacity(POOL);
    let mut from_mined = Vec::with_capacity(POOL);
    for _ in 0..POOL {
        let p = &patterns[rng.below(patterns.len())];
        let (query, reply) = match rng.below(10) {
            0..=5 => (
                Query::Support {
                    items: p.items.clone(),
                },
                Some(QueryReply::Support(Some(p.frequency))),
            ),
            6 => (
                Query::Support {
                    items: unmined_variant(&p.items, &mined),
                },
                Some(QueryReply::Support(None)),
            ),
            7 => {
                let prefix = vec![p.items[0]];
                let reply = QueryReply::Patterns(top_k(&lex, &prefix, TOP_K));
                (Query::TopK { prefix, k: TOP_K }, Some(reply))
            }
            8 => (
                Query::Enumerate {
                    prefix: vec![p.items[0]],
                    limit: Some(ENUMERATE_LIMIT),
                },
                None,
            ),
            _ => (
                Query::Generalized {
                    items: p.items.clone(),
                },
                None,
            ),
        };
        queries.push(query);
        from_mined.push(reply);
    }
    Mix {
        queries,
        from_mined,
    }
}

/// A sequence over the same items that was not mined: the pattern repeated
/// onto itself until it leaves the set (patterns are at most λ long, so the
/// first doubling already does).
fn unmined_variant(items: &[ItemId], mined: &HashSet<&[ItemId]>) -> Vec<ItemId> {
    let mut v = items.to_vec();
    while mined.contains(v.as_slice()) {
        v.extend_from_slice(items);
    }
    v
}

/// The `k` most frequent patterns extending `prefix`, ties broken by
/// ascending items — computed from the lexicographically sorted mined set,
/// not from the index.
fn top_k(lex: &[&Pattern], prefix: &[ItemId], k: usize) -> Vec<PatternHit> {
    let lo = lex.partition_point(|p| p.items.as_slice() < prefix);
    let len = lex[lo..].partition_point(|p| p.items.starts_with(prefix));
    let mut range: Vec<&Pattern> = lex[lo..lo + len].to_vec();
    range.sort_unstable_by(|a, b| {
        b.frequency
            .cmp(&a.frequency)
            .then_with(|| a.items.cmp(&b.items))
    });
    range
        .into_iter()
        .take(k)
        .map(|p| PatternHit {
            items: p.items.clone(),
            frequency: p.frequency,
        })
        .collect()
}

/// What `snapshot` answers to `query`, through the reader's own methods.
pub fn answer_on(snapshot: &PatternIndexReader, query: &Query) -> QueryReply {
    let hits = |raw: lash::index::Result<Vec<(Vec<ItemId>, u64)>>| match raw {
        Ok(raw) => QueryReply::Patterns(
            raw.into_iter()
                .map(|(items, frequency)| PatternHit { items, frequency })
                .collect(),
        ),
        Err(e) => QueryReply::Error(lash::index::QueryError::from_index(&e)),
    };
    match query {
        Query::Support { items } => match snapshot.support(items) {
            Ok(s) => QueryReply::Support(s),
            Err(e) => QueryReply::Error(lash::index::QueryError::from_index(&e)),
        },
        Query::Enumerate { prefix, limit } => hits(snapshot.enumerate(prefix, *limit)),
        Query::TopK { prefix, k } => hits(snapshot.top_k(prefix, *k)),
        Query::Generalized { items } => hits(snapshot.lookup_generalized(items)),
    }
}

impl Mix {
    /// The expected reply to every pooled query on `snapshot`, and how many
    /// of the snapshot's own answers contradict the mined set.
    pub fn expected_on(&self, snapshot: &PatternIndexReader) -> (Vec<QueryReply>, u64) {
        let mut wrong = 0;
        let replies = self
            .queries
            .iter()
            .zip(&self.from_mined)
            .map(|(q, mined)| {
                let got = answer_on(snapshot, q);
                if mined.as_ref().is_some_and(|m| *m != got) {
                    wrong += 1;
                }
                got
            })
            .collect();
        (replies, wrong)
    }

    /// Pool indices of each query kind, for the per-kind in-process timings.
    pub fn indices_of(&self, kind: &str) -> Vec<usize> {
        (0..self.queries.len())
            .filter(|&i| self.queries[i].kind() == kind)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pat(items: &[u32], frequency: u64) -> Pattern {
        Pattern {
            items: items.iter().map(|&i| ItemId::from_u32(i)).collect(),
            frequency,
        }
    }

    #[test]
    fn mix_is_a_function_of_the_seed_and_has_every_kind() {
        let patterns = vec![
            pat(&[1, 2], 9),
            pat(&[1, 3], 9),
            pat(&[1, 2, 3], 4),
            pat(&[2, 3], 7),
        ];
        let a = build(&patterns, 7);
        let b = build(&patterns, 7);
        let c = build(&patterns, 8);
        assert_eq!(a.queries, b.queries);
        assert_ne!(a.queries, c.queries);
        for kind in ["support", "top_k", "enumerate", "generalized"] {
            assert!(!a.indices_of(kind).is_empty(), "{kind}");
        }
        let misses = a
            .from_mined
            .iter()
            .filter(|r| **r == Some(QueryReply::Support(None)))
            .count();
        assert!(misses > POOL / 20 && misses < POOL / 5, "{misses}");
    }

    #[test]
    fn top_k_orders_by_frequency_then_items() {
        let patterns = [
            pat(&[1, 2], 9),
            pat(&[1, 3], 9),
            pat(&[1, 2, 3], 4),
            pat(&[2, 3], 7),
        ];
        let mut lex: Vec<&Pattern> = patterns.iter().collect();
        lex.sort_unstable_by(|a, b| a.items.cmp(&b.items));
        let got = top_k(&lex, &[ItemId::from_u32(1)], 2);
        assert_eq!(got[0].items, patterns[0].items);
        assert_eq!(got[1].items, patterns[1].items);
        assert!(top_k(&lex, &[ItemId::from_u32(5)], 2).is_empty());
    }
}

//! Mined pattern types.
//!
//! Miners append patterns to a [`PatternArena`] — one flat item array, end
//! offsets and frequencies, with no allocation per pattern — and the arena
//! travels as is from the miner to the index writer. [`Pattern`] is the
//! owned vocabulary-space view handed to users, and [`PatternSet`] the
//! ordered, comparable form the baselines return and tests compare.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use crate::vocabulary::{ItemId, Vocabulary};

/// A frequent generalized sequence in vocabulary space.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pattern {
    /// The pattern's items, most general to most specific as mined.
    pub items: Vec<ItemId>,
    /// Its frequency `f_γ(S, D)`.
    pub frequency: u64,
}

/// Sorts patterns into the canonical *lexicographic* order (ascending by
/// items, which are unique across a mining result).
///
/// This is the layout order consumers that index the output require —
/// `lash-index` builds its prefix trie from a stream of lexicographically
/// ascending patterns — as opposed to the frequency-descending *report*
/// order of `LashResult::patterns`. Both orders are total and
/// deterministic, so the same corpus and parameters always produce the
/// same byte stream downstream.
pub fn sort_patterns_lexicographic(patterns: &mut [Pattern]) {
    patterns.sort_unstable_by(|a, b| a.items.cmp(&b.items));
}

/// The first four items of `items` packed into a `u128`, the first in the
/// highest bits and a missing item as 0: wherever two packed prefixes
/// differ, they order the patterns as [`sort_patterns_lexicographic`] does.
/// A sort key that settles most comparisons without touching the items
/// (see [`PatternArena::order_by_key`]).
pub fn lexicographic_prefix(items: &[ItemId]) -> u128 {
    items
        .iter()
        .take(4)
        .zip([96, 64, 32, 0])
        .fold(0, |key, (item, shift)| {
            key | u128::from(item.as_u32()) << shift
        })
}

impl Pattern {
    /// Renders the pattern as item names.
    pub fn to_names(&self, vocab: &Vocabulary) -> Vec<String> {
        self.items
            .iter()
            .map(|&i| vocab.name(i).to_owned())
            .collect()
    }

    /// Renders the pattern as a single space-separated string.
    pub fn display(&self, vocab: &Vocabulary) -> String {
        self.to_names(vocab).join(" ")
    }
}

/// Patterns with frequencies, stored flat: every pattern's items back to
/// back in one array, one end offset and one frequency per pattern.
///
/// Pushing a pattern copies its items and allocates nothing once the
/// buffers have grown, and dropping the arena frees three buffers however
/// many patterns it holds. The arena keeps patterns in push order and does
/// not deduplicate: whoever fills it pushes each pattern once. `T` is `u32`
/// for rank-space patterns (what local miners produce) and
/// [`ItemId`](crate::vocabulary::ItemId) for vocabulary-space ones (what
/// `LashResult` holds).
#[derive(Debug, Clone)]
pub struct PatternArena<T = u32> {
    items: Vec<T>,
    ends: Vec<usize>,
    frequencies: Vec<u64>,
}

impl<T> Default for PatternArena<T> {
    fn default() -> Self {
        PatternArena {
            items: Vec::new(),
            ends: Vec::new(),
            frequencies: Vec::new(),
        }
    }
}

impl<T: Copy> PatternArena<T> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one pattern.
    pub fn push(&mut self, items: &[T], frequency: u64) {
        self.items.extend_from_slice(items);
        self.ends.push(self.items.len());
        self.frequencies.push(frequency);
    }

    /// Number of patterns.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True if the arena holds no pattern.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The `i`-th pattern pushed and its frequency.
    pub fn get(&self, i: usize) -> (&[T], u64) {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        (&self.items[start..self.ends[i]], self.frequencies[i])
    }

    /// Iterates `(pattern, frequency)` in push order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&[T], u64)> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Empties the arena, keeping its buffers.
    pub fn clear(&mut self) {
        self.items.clear();
        self.ends.clear();
        self.frequencies.clear();
    }

    /// Appends every pattern of `other`, mapping each item through `map`
    /// (e.g. ranks to item ids).
    pub fn extend_mapped<U: Copy>(&mut self, other: &PatternArena<U>, map: impl Fn(U) -> T) {
        let base = self.items.len();
        self.items.extend(other.items.iter().map(|&u| map(u)));
        self.ends.extend(other.ends.iter().map(|&end| base + end));
        self.frequencies.extend_from_slice(&other.frequencies);
    }

    /// The pattern indices sorted by `key` of `(items, frequency)`, ties
    /// broken by `tie` over the items: one sort of a `u32` permutation, the
    /// arena itself stays in place. Each index is sorted beside its key, so
    /// only patterns with equal keys are looked up in the arena; the caller
    /// picks a key that never contradicts the order it wants.
    pub fn order_by_key<K: Ord>(
        &self,
        key: impl Fn(&[T], u64) -> K,
        mut tie: impl FnMut(&[T], &[T]) -> Ordering,
    ) -> Vec<u32> {
        let n = u32::try_from(self.len()).expect("more than u32::MAX patterns");
        let mut keyed: Vec<(K, u32)> = (0..n)
            .map(|i| {
                let (items, frequency) = self.get(i as usize);
                (key(items, frequency), i)
            })
            .collect();
        keyed.sort_unstable_by(|(ka, a), (kb, b)| {
            ka.cmp(kb)
                .then_with(|| tie(self.get(*a as usize).0, self.get(*b as usize).0))
        });
        keyed.into_iter().map(|(_, i)| i).collect()
    }
}

/// A set of rank-space patterns with frequencies, ordered lexicographically.
///
/// The output of the naive and semi-naive baselines, and the canonical
/// comparison form in tests: all miners must produce identical
/// `PatternSet`s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PatternSet {
    map: BTreeMap<Vec<u32>, u64>,
}

impl PatternSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a pattern with its frequency. Re-inserting the same pattern
    /// keeps the maximum frequency, so a set built from a miner's sink hides
    /// a duplicate push: check the sink itself for duplicates.
    pub fn insert(&mut self, items: Vec<u32>, frequency: u64) {
        let slot = self.map.entry(items).or_insert(0);
        *slot = (*slot).max(frequency);
    }

    /// The frequency of `items`, if present.
    pub fn get(&self, items: &[u32]) -> Option<u64> {
        self.map.get(items).copied()
    }

    /// True if `items` is in the set.
    pub fn contains(&self, items: &[u32]) -> bool {
        self.map.contains_key(items)
    }

    /// Number of patterns.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no patterns were mined.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates `(pattern, frequency)` in lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u32], u64)> + '_ {
        self.map.iter().map(|(k, &v)| (k.as_slice(), v))
    }

    /// Merges another set into this one.
    pub fn merge(&mut self, other: PatternSet) {
        for (k, v) in other.map {
            self.insert(k, v);
        }
    }

    /// Collects from `(pattern, frequency)` pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Vec<u32>, u64)>) -> Self {
        let mut set = PatternSet::new();
        for (k, v) in pairs {
            set.insert(k, v);
        }
        set
    }

    /// The symmetric difference against another set, for diagnostics in tests:
    /// returns (only-in-self, only-in-other, frequency-mismatches).
    #[allow(clippy::type_complexity)]
    pub fn diff(
        &self,
        other: &PatternSet,
    ) -> (Vec<Vec<u32>>, Vec<Vec<u32>>, Vec<(Vec<u32>, u64, u64)>) {
        let mut only_self = Vec::new();
        let mut mismatched = Vec::new();
        for (k, &v) in &self.map {
            match other.map.get(k) {
                None => only_self.push(k.clone()),
                Some(&w) if w != v => mismatched.push((k.clone(), v, w)),
                _ => {}
            }
        }
        let only_other = other
            .map
            .keys()
            .filter(|k| !self.map.contains_key(*k))
            .cloned()
            .collect();
        (only_self, only_other, mismatched)
    }
}

impl FromIterator<(Vec<u32>, u64)> for PatternSet {
    fn from_iter<I: IntoIterator<Item = (Vec<u32>, u64)>>(iter: I) -> Self {
        Self::from_pairs(iter)
    }
}

impl IntoIterator for PatternSet {
    type Item = (Vec<u32>, u64);
    type IntoIter = std::collections::btree_map::IntoIter<Vec<u32>, u64>;
    fn into_iter(self) -> Self::IntoIter {
        self.map.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_iterate() {
        let mut s = PatternSet::new();
        s.insert(vec![1, 2], 5);
        s.insert(vec![0, 1], 7);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(&[1, 2]), Some(5));
        assert!(!s.contains(&[9]));
        let collected: Vec<_> = s.iter().collect();
        // Lexicographic order.
        assert_eq!(collected[0].0, &[0, 1][..]);
        assert_eq!(collected[1].0, &[1, 2][..]);
    }

    #[test]
    fn merge_is_union() {
        let a = PatternSet::from_pairs([(vec![1], 1), (vec![2], 2)]);
        let mut b = PatternSet::from_pairs([(vec![3], 3)]);
        b.merge(a);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn diff_reports_discrepancies() {
        let a = PatternSet::from_pairs([(vec![1], 1), (vec![2], 2)]);
        let b = PatternSet::from_pairs([(vec![2], 9), (vec![3], 3)]);
        let (only_a, only_b, mismatch) = a.diff(&b);
        assert_eq!(only_a, vec![vec![1]]);
        assert_eq!(only_b, vec![vec![3]]);
        assert_eq!(mismatch, vec![(vec![2], 2, 9)]);
    }

    #[test]
    fn lexicographic_sort_is_canonical() {
        let mut patterns = vec![
            Pattern {
                items: vec![crate::vocabulary::ItemId::from_u32(3)],
                frequency: 9,
            },
            Pattern {
                items: vec![
                    crate::vocabulary::ItemId::from_u32(1),
                    crate::vocabulary::ItemId::from_u32(2),
                ],
                frequency: 5,
            },
            Pattern {
                items: vec![crate::vocabulary::ItemId::from_u32(1)],
                frequency: 7,
            },
        ];
        sort_patterns_lexicographic(&mut patterns);
        let orders: Vec<Vec<u32>> = patterns
            .iter()
            .map(|p| p.items.iter().map(|i| i.as_u32()).collect())
            .collect();
        assert_eq!(orders, vec![vec![1], vec![1, 2], vec![3]]);
    }

    #[test]
    fn equal_sets_compare_equal() {
        let a = PatternSet::from_pairs([(vec![1, 2], 4), (vec![5], 1)]);
        let b = PatternSet::from_pairs([(vec![5], 1), (vec![1, 2], 4)]);
        assert_eq!(a, b);
    }
}

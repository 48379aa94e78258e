//! Sequence database storage.
//!
//! Sequences are stored in a flattened arena (one contiguous item buffer plus
//! offsets) to keep per-sequence overhead at two words and iteration
//! cache-friendly — the databases the paper targets have tens of millions of
//! short sequences.

use crate::vocabulary::ItemId;

/// A multiset of input sequences over a vocabulary.
///
/// ```
/// use lash_core::{SequenceDatabase, VocabularyBuilder};
/// let mut vb = VocabularyBuilder::new();
/// let a = vb.intern("a");
/// let b = vb.intern("b");
/// let mut db = SequenceDatabase::new();
/// db.push(&[a, b, a]);
/// db.push(&[b]);
/// assert_eq!(db.len(), 2);
/// assert_eq!(db.get(0), &[a, b, a]);
/// assert_eq!(db.total_items(), 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SequenceDatabase {
    items: Vec<ItemId>,
    offsets: Vec<u64>,
}

impl SequenceDatabase {
    /// Creates an empty database.
    pub fn new() -> Self {
        SequenceDatabase {
            items: Vec::new(),
            offsets: vec![0],
        }
    }

    /// Creates an empty database with reserved capacity.
    pub fn with_capacity(sequences: usize, total_items: usize) -> Self {
        let mut offsets = Vec::with_capacity(sequences + 1);
        offsets.push(0);
        SequenceDatabase {
            items: Vec::with_capacity(total_items),
            offsets,
        }
    }

    /// Appends a sequence; returns its index.
    pub fn push(&mut self, sequence: &[ItemId]) -> usize {
        self.items.extend_from_slice(sequence);
        self.offsets.push(self.items.len() as u64);
        self.offsets.len() - 2
    }

    /// Number of sequences.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True if the database holds no sequences.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `idx`-th sequence.
    pub fn get(&self, idx: usize) -> &[ItemId] {
        let lo = self.offsets[idx] as usize;
        let hi = self.offsets[idx + 1] as usize;
        &self.items[lo..hi]
    }

    /// Iterates over all sequences.
    pub fn iter(&self) -> impl Iterator<Item = &[ItemId]> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Total number of items across all sequences.
    pub fn total_items(&self) -> usize {
        self.items.len()
    }

    /// Average sequence length.
    pub fn avg_len(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.items.len() as f64 / self.len() as f64
        }
    }

    /// Maximum sequence length.
    pub fn max_len(&self) -> usize {
        (0..self.len())
            .map(|i| self.get(i).len())
            .max()
            .unwrap_or(0)
    }

    /// Number of distinct items that occur in the database.
    pub fn unique_items(&self) -> usize {
        let mut seen = crate::fxhash::FxHashSet::default();
        for &it in &self.items {
            seen.insert(it);
        }
        seen.len()
    }

    /// Restricts the database to its first `n` sequences (used by the data
    /// scaling experiments of Fig. 6).
    pub fn truncated(&self, n: usize) -> SequenceDatabase {
        let n = n.min(self.len());
        let mut db = SequenceDatabase::with_capacity(n, self.offsets[n] as usize);
        for i in 0..n {
            db.push(self.get(i));
        }
        db
    }

    /// This database as a [`ShardedCorpus`] of `shard_size`-sequence shards
    /// (a size of 0 counts as 1). [`crate::Lash::mine`] mines the view with
    /// one shard per map split.
    pub fn shards(&self, shard_size: usize) -> DatabaseShards<'_> {
        DatabaseShards {
            db: self,
            shard_size: shard_size.max(1),
        }
    }
}

/// A corpus whose sequences are grouped into independently scannable shards.
///
/// This is the abstraction that lets the distributed jobs accept *either* an
/// in-memory [`SequenceDatabase`] (split-sized shards, see
/// [`SequenceDatabase::shards`]) *or* an on-disk corpus opened by
/// `lash-store` (one shard per segment file) as their input: map tasks
/// take a shard index and stream that shard's sequences, so a multi-shard
/// corpus is scanned by several map tasks in parallel without ever being
/// materialized in memory as a whole.
pub trait ShardedCorpus: Sync {
    /// Number of shards. Map parallelism over the corpus is bounded by this.
    fn num_shards(&self) -> usize;

    /// Total number of sequences across all shards.
    fn num_sequences(&self) -> u64;

    /// Scans one shard in storage order, invoking `f` with each sequence's
    /// corpus-wide id and items. The slice is only valid for the duration of
    /// the call.
    fn scan_shard(
        &self,
        shard: usize,
        f: &mut dyn FnMut(u64, &[ItemId]),
    ) -> crate::error::Result<()>;

    /// Like [`ShardedCorpus::scan_shard`], but the corpus **may skip** any
    /// group of sequences it can prove irrelevant: a sequence may be
    /// withheld from `f` when no item of its G1 closure (its items plus all
    /// their ancestors) satisfies `relevant`. Backends with per-block G1
    /// sketches (`lash-store`) use this to skip whole blocks without
    /// decoding them; the default implementation ignores the predicate and
    /// scans everything, which is always correct.
    ///
    /// Callers must therefore only pass predicates whose rejected sequences
    /// genuinely cannot contribute — e.g. the partition-and-mine map phase,
    /// where a sequence without a single frequent item in its closure emits
    /// nothing.
    fn scan_shard_pruned(
        &self,
        shard: usize,
        relevant: &(dyn Fn(ItemId) -> bool + Sync),
        f: &mut dyn FnMut(u64, &[ItemId]),
    ) -> crate::error::Result<()> {
        let _ = relevant;
        self.scan_shard(shard, f)
    }

    /// The corpus's fixed item order as `item_of`: index `r` holds the raw
    /// `u32` of the item at frequency rank `r`. `Some` only when the corpus
    /// physically fixes such an order (rank-encoded storage); `None`
    /// otherwise. A mine job whose own [`crate::flist::ItemOrder`] equals
    /// this permutation can consume [`ShardedCorpus::scan_shard_ranked`]
    /// and skip its map-phase re-encoding entirely.
    fn rank_order(&self) -> Option<&[u32]> {
        None
    }

    /// Like [`ShardedCorpus::scan_shard_pruned`], but sequences are
    /// delivered in **rank space**: each yielded `ItemId` carries the
    /// item's frequency rank under [`ShardedCorpus::rank_order`], not its
    /// vocabulary id. The `relevant` predicate stays **id-space** (it
    /// drives sketch pruning over stored metadata). Errors when the corpus
    /// has no rank order.
    ///
    /// The default derives the mapping from `rank_order()` and rewrites on
    /// top of the pruned scan; rank-encoded backends override this with a
    /// pass-through of the stored bytes.
    fn scan_shard_ranked(
        &self,
        shard: usize,
        relevant: &(dyn Fn(ItemId) -> bool + Sync),
        f: &mut dyn FnMut(u64, &[ItemId]),
    ) -> crate::error::Result<()> {
        let Some(item_of) = self.rank_order() else {
            return Err(crate::error::Error::Engine(
                "ranked scan requires a corpus with a fixed rank order".into(),
            ));
        };
        let mut rank_of = vec![0u32; item_of.len()];
        for (rank, &item) in item_of.iter().enumerate() {
            rank_of[item as usize] = rank as u32;
        }
        let mut ranked: Vec<ItemId> = Vec::new();
        self.scan_shard_pruned(shard, relevant, &mut |id, seq| {
            ranked.clear();
            ranked.extend(
                seq.iter()
                    .map(|item| ItemId::from_u32(rank_of[item.index()])),
            );
            f(id, &ranked);
        })
    }
}

/// A [`SequenceDatabase`] cut into shards of `shard_size` consecutive
/// sequences: shard `i` covers sequences `[i·n, min((i+1)·n, len))`, so
/// there are `ceil(len / n)` shards and an empty database has none. Built
/// by [`SequenceDatabase::shards`].
#[derive(Debug, Clone, Copy)]
pub struct DatabaseShards<'a> {
    db: &'a SequenceDatabase,
    shard_size: usize,
}

impl ShardedCorpus for DatabaseShards<'_> {
    fn num_shards(&self) -> usize {
        self.db.len().div_ceil(self.shard_size)
    }

    fn num_sequences(&self) -> u64 {
        self.db.len() as u64
    }

    fn scan_shard(
        &self,
        shard: usize,
        f: &mut dyn FnMut(u64, &[ItemId]),
    ) -> crate::error::Result<()> {
        let shards = self.num_shards();
        if shard >= shards {
            return Err(crate::error::Error::Engine(format!(
                "no shard {shard} in a database of {shards} shards"
            )));
        }
        let start = shard * self.shard_size;
        for i in start..(start + self.shard_size).min(self.db.len()) {
            f(i as u64, self.db.get(i));
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a SequenceDatabase {
    type Item = &'a [ItemId];
    type IntoIter = Box<dyn Iterator<Item = &'a [ItemId]> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

/// A partition `P_w`: the aggregated, rewritten sequences routed to pivot `w`
/// (paper Sec. 4.4: duplicate rewritten sequences are aggregated and carry a
/// count).
///
/// Stored in CSR form — one shared item arena, one offset per sequence, one
/// weight per sequence — so a local miner walks contiguous memory instead of
/// chasing one heap allocation per sequence. Items are frequency ranks and
/// may contain [`crate::BLANK`].
///
/// ```
/// use lash_core::sequence::Partition;
/// let p = Partition::aggregate([(vec![1, 2], 1), (vec![3], 2), (vec![1, 2], 4)]);
/// assert_eq!(p.len(), 2);
/// assert_eq!((p.seq(0), p.weight(0)), (&[1, 2][..], 5));
/// assert_eq!(p.total_weight(), 7);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    items: Vec<u32>,
    /// `items[offsets[i]..offsets[i + 1]]` is sequence `i`; always starts
    /// with 0.
    offsets: Vec<u32>,
    /// Number of input sequences each stored sequence represents.
    weights: Vec<u64>,
}

impl Default for Partition {
    fn default() -> Self {
        Partition::new()
    }
}

impl Partition {
    /// Creates an empty partition.
    pub fn new() -> Self {
        Partition {
            items: Vec::new(),
            offsets: vec![0],
            weights: Vec::new(),
        }
    }

    /// Appends one weighted sequence as is (no aggregation).
    ///
    /// # Panics
    /// Offsets are `u32`: a partition whose arena would exceed `u32::MAX`
    /// items panics instead of corrupting sequence bounds.
    pub fn push(&mut self, seq: &[u32], weight: u64) {
        self.items.extend_from_slice(seq);
        let end = u32::try_from(self.items.len()).expect("partition arena exceeds u32 offsets");
        self.offsets.push(end);
        self.weights.push(weight);
    }

    /// Appends one weighted sequence given in the shuffle's wire encoding
    /// ([`lash_encoding::encode_sequence`]), decoding it straight into the
    /// arena. On error the partition is left unchanged.
    ///
    /// # Panics
    /// As [`Partition::push`], when the arena would exceed `u32` offsets.
    pub fn push_encoded(
        &mut self,
        encoded: &[u8],
        weight: u64,
    ) -> Result<(), lash_encoding::DecodeError> {
        let start = self.items.len();
        if let Err(e) = lash_encoding::decode_sequence_into(encoded, &mut self.items) {
            self.items.truncate(start);
            return Err(e);
        }
        let end = u32::try_from(self.items.len()).expect("partition arena exceeds u32 offsets");
        self.offsets.push(end);
        self.weights.push(weight);
        Ok(())
    }

    /// Builds a partition from raw (sequence, weight) pairs, aggregating
    /// duplicates by sort-and-merge. The result is in lexicographic sequence
    /// order, whatever order the pairs arrive in.
    pub fn aggregate<S: AsRef<[u32]>>(raw: impl IntoIterator<Item = (S, u64)>) -> Self {
        let mut staged = Partition::new();
        for (seq, weight) in raw {
            staged.push(seq.as_ref(), weight);
        }
        // A stable merge sort of an index permutation: input that arrives
        // as a few sorted runs merges in about linear time.
        let mut order: Vec<u32> = (0..staged.len() as u32).collect();
        order.sort_by(|&a, &b| staged.seq(a as usize).cmp(staged.seq(b as usize)));
        let mut merged = Partition::new();
        merged.items.reserve(staged.items.len());
        for &i in &order {
            let (seq, weight) = (staged.seq(i as usize), staged.weight(i as usize));
            match merged.len().checked_sub(1) {
                Some(last) if merged.seq(last) == seq => merged.weights[last] += weight,
                _ => merged.push(seq, weight),
            }
        }
        merged
    }

    /// Number of distinct (aggregated) sequences.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True if the partition is empty.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// The items of sequence `idx`.
    #[inline]
    pub fn seq(&self, idx: usize) -> &[u32] {
        &self.items[self.offsets[idx] as usize..self.offsets[idx + 1] as usize]
    }

    /// The weight of sequence `idx`.
    #[inline]
    pub fn weight(&self, idx: usize) -> u64 {
        self.weights[idx]
    }

    /// Iterates `(items, weight)` in storage order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u32], u64)> + '_ {
        (0..self.len()).map(move |i| (self.seq(i), self.weights[i]))
    }

    /// Total weight (number of represented input sequences).
    pub fn total_weight(&self) -> u64 {
        self.weights.iter().sum()
    }

    /// Total number of stored items (blanks included).
    pub fn total_items(&self) -> usize {
        self.items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocabulary::VocabularyBuilder;

    fn ids(n: u32) -> Vec<ItemId> {
        let mut vb = VocabularyBuilder::new();
        (0..n).map(|i| vb.intern(&format!("i{i}"))).collect()
    }

    #[test]
    fn push_and_get() {
        let v = ids(5);
        let mut db = SequenceDatabase::new();
        assert_eq!(db.push(&[v[0], v[1]]), 0);
        assert_eq!(db.push(&[v[2]]), 1);
        assert_eq!(db.push(&[]), 2);
        assert_eq!(db.push(&[v[3], v[4], v[0]]), 3);
        assert_eq!(db.len(), 4);
        assert_eq!(db.get(0), &[v[0], v[1]]);
        assert_eq!(db.get(2), &[]);
        assert_eq!(db.get(3), &[v[3], v[4], v[0]]);
        assert_eq!(db.total_items(), 6);
        assert_eq!(db.max_len(), 3);
        assert!((db.avg_len() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn iter_visits_all_sequences() {
        let v = ids(3);
        let mut db = SequenceDatabase::new();
        db.push(&[v[0]]);
        db.push(&[v[1], v[2]]);
        let collected: Vec<Vec<ItemId>> = db.iter().map(|s| s.to_vec()).collect();
        assert_eq!(collected, vec![vec![v[0]], vec![v[1], v[2]]]);
    }

    #[test]
    fn unique_items_deduplicates() {
        let v = ids(3);
        let mut db = SequenceDatabase::new();
        db.push(&[v[0], v[0], v[1]]);
        db.push(&[v[1]]);
        assert_eq!(db.unique_items(), 2);
    }

    #[test]
    fn truncated_keeps_prefix() {
        let v = ids(4);
        let mut db = SequenceDatabase::new();
        db.push(&[v[0]]);
        db.push(&[v[1], v[2]]);
        db.push(&[v[3]]);
        let t = db.truncated(2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(1), &[v[1], v[2]]);
        // Truncating beyond the end is a full copy.
        assert_eq!(db.truncated(10).len(), 3);
    }

    #[test]
    fn shards_cover_consecutive_ranges() {
        let v = ids(5);
        let mut db = SequenceDatabase::new();
        for item in &v {
            db.push(&[*item]);
        }
        let shards = db.shards(2);
        assert_eq!(shards.num_shards(), 3);
        assert_eq!(shards.num_sequences(), 5);
        let mut seen = Vec::new();
        for shard in 0..shards.num_shards() {
            let mut ids = Vec::new();
            shards
                .scan_shard(shard, &mut |id, seq| {
                    assert_eq!(seq, db.get(id as usize));
                    ids.push(id);
                })
                .unwrap();
            seen.push(ids);
        }
        assert_eq!(seen, [vec![0, 1], vec![2, 3], vec![4]]);
        assert_eq!(db.shards(5).num_shards(), 1);
        // A size of 0 counts as 1.
        assert_eq!(db.shards(0).num_shards(), 5);
    }

    #[test]
    fn shard_index_out_of_range_is_an_error() {
        let v = ids(3);
        let mut db = SequenceDatabase::new();
        db.push(&v);
        db.push(&v[..1]);
        let shards = db.shards(1);
        for shard in [2, 3, usize::MAX] {
            let err = shards.scan_shard(shard, &mut |_, _| panic!("no sequence"));
            assert!(
                matches!(err, Err(crate::error::Error::Engine(_))),
                "{err:?}"
            );
        }
        let empty = SequenceDatabase::new();
        assert_eq!(empty.shards(4).num_shards(), 0);
        assert!(empty.shards(4).scan_shard(0, &mut |_, _| {}).is_err());
    }

    #[test]
    fn partition_aggregation_merges_duplicates() {
        let p = Partition::aggregate(vec![(vec![1, 2], 1), (vec![1, 2], 1), (vec![3], 2)]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.total_weight(), 4);
        assert_eq!(p.total_items(), 3);
        let (_, weight) = p.iter().find(|(s, _)| *s == [1, 2]).unwrap();
        assert_eq!(weight, 2);
    }

    #[test]
    fn partition_aggregation_sorts_and_equals_pushed_form() {
        // Arrival order and the prefix relation must not matter: [1] < [1, 2]
        // < [3], empty sequences sort first, weights of equal sequences add.
        let p = Partition::aggregate([
            (&[3][..], 2),
            (&[1, 2][..], 1),
            (&[][..], 1),
            (&[1][..], 5),
            (&[1, 2][..], 3),
            (&[][..], 1),
        ]);
        let mut want = Partition::new();
        want.push(&[], 2);
        want.push(&[1], 5);
        want.push(&[1, 2], 4);
        want.push(&[3], 2);
        assert_eq!(p, want);
        assert_eq!(
            Partition::aggregate(Vec::<(Vec<u32>, u64)>::new()),
            Partition::new()
        );
        assert!(Partition::default().is_empty());
    }

    #[test]
    fn push_encoded_decodes_into_the_arena() {
        let mut p = Partition::new();
        let mut buf = Vec::new();
        lash_encoding::encode_sequence(&[4, crate::BLANK, 130], &mut buf);
        p.push_encoded(&buf, 3).unwrap();
        p.push_encoded(&[], 1).unwrap();
        // A zero-length blank run is corrupt and leaves no trace.
        assert!(p.push_encoded(&[5, 0, 0], 9).is_err());
        let mut want = Partition::new();
        want.push(&[4, crate::BLANK, 130], 3);
        want.push(&[], 1);
        assert_eq!(p, want);
    }

    #[test]
    fn empty_database_statistics() {
        let db = SequenceDatabase::new();
        assert!(db.is_empty());
        assert_eq!(db.avg_len(), 0.0);
        assert_eq!(db.max_len(), 0);
        assert_eq!(db.unique_items(), 0);
    }
}

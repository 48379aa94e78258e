//! The corpus reader: cold open, shard scans chained across generations,
//! parallel multi-shard scans, the sketch f-list, and the bridge into the
//! distributed mining jobs.
//!
//! Every read goes through one engine. A shard's segment files are mapped
//! once per reader (`MappedSegment`), and that open verifies every frame
//! checksum and each generation's block count against the manifest. A
//! [`ShardScan`] cursor then decodes the selected blocks from zero-copy
//! windows into one reused batch. The pull API, the mining jobs' push scans
//! and compaction's merge all drive that cursor; [`CorpusReader::flist`]
//! and [`CorpusReader::block_headers`] read the headers the validation walk
//! already decoded.
//!
//! A [`CorpusReader`] is a **snapshot**: it is pinned to the manifest
//! version it opened and resolves every segment path through its own copy
//! of the generation list, so generations sealed (or compacted) later are
//! invisible until the corpus is re-opened. See [`crate::generations`] for
//! the sealing protocol.

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use lash_core::distributed::lash_job::{Lash, LashResult};
use lash_core::error::Error as CoreError;
use lash_core::flist::FList;
use lash_core::params::GsmParams;
use lash_core::sequence::{SequenceDatabase, ShardedCorpus};
use lash_core::vocabulary::{ItemId, Vocabulary};
use lash_encoding::frame;

use crate::format::{self, BlockHeader, GenerationMeta, Manifest, RankOrder};
use crate::generations::read_manifest;
use crate::{Result, StoreError};

/// The item space a scan delivers sequences in. Blocks store ranks; the
/// decoder maps them to ids only when asked for [`ScanSpace::Items`] — the
/// point of rank-space segments: a mine job asking for ranks gets the
/// stored values untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ScanSpace {
    /// Vocabulary item ids.
    Items,
    /// Corpus frequency ranks (the mine job's working encoding).
    Ranks,
}

/// A corpus opened cold from its manifest: vocabulary, hierarchy,
/// partitioning, and the generation list are restored without touching any
/// segment file.
pub struct CorpusReader {
    dir: PathBuf,
    manifest: Manifest,
    vocab: Vocabulary,
    /// Mapped-segment cache, one entry per read shard: every segment
    /// checksum and block count is verified once, at the shard's first read
    /// of any kind, and later reads reuse the validated maps with no further
    /// hashing or syscalls — a mining run reads each shard once for the
    /// f-list and once per level, so the validation pass amortizes to zero.
    /// Safe to cache because the reader is pinned to its manifest snapshot
    /// (segment files are immutable once sealed).
    mapped: Mutex<std::collections::HashMap<usize, Arc<Vec<MappedSegment>>>>,
    /// Pins this snapshot's generations in the process-wide registry
    /// ([`crate::pins`]): compaction defers deleting replaced directories
    /// until the last pinned reader — and with it the mapped-segment cache
    /// above — drops. Declared last so it releases after every cached map.
    _pins: crate::pins::PinGuard,
}

impl CorpusReader {
    /// Opens the corpus at `dir` by reading and validating its manifest.
    ///
    /// Manifests of any format version but [`crate::FORMAT_VERSION`] are
    /// rejected with [`StoreError::UnsupportedVersion`] rather than
    /// misparsed.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        let (manifest, vocab) = read_manifest(&dir).inspect_err(|e| {
            lash_obs::flight::record_error("store.open", &e.to_string());
        })?;
        // Pin the snapshot's generation set: from here on a compaction that
        // replaces these generations defers their deletes to this reader's
        // drop, so scans stay valid for the snapshot's whole lifetime.
        let pins = crate::pins::pin(&dir, manifest.generations.iter().map(|g| g.id));
        let obs = lash_obs::global();
        obs.gauge("store.generations")
            .set(manifest.generations.len() as u64);
        obs.gauge("store.sequences").set(manifest.num_sequences);
        Ok(CorpusReader {
            dir,
            manifest,
            vocab,
            mapped: Mutex::new(std::collections::HashMap::new()),
            _pins: pins,
        })
    }

    /// The corpus directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The manifest snapshot this reader is pinned to.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The interned vocabulary and hierarchy the corpus was written with.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Total number of sequences.
    pub fn len(&self) -> u64 {
        self.manifest.num_sequences
    }

    /// True if the corpus holds no sequences.
    pub fn is_empty(&self) -> bool {
        self.manifest.num_sequences == 0
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.manifest.partitioning.num_shards() as usize
    }

    /// Number of sealed generations in this snapshot.
    pub fn num_generations(&self) -> usize {
        self.manifest.generations.len()
    }

    /// The corpus rank↔id mapping: the write-once descending-frequency item
    /// order its segments are encoded in.
    pub fn rank_order(&self) -> &RankOrder {
        &self.manifest.rank_order
    }

    /// The sealed generations of this snapshot, in sequence-id order.
    pub fn generations(&self) -> &[GenerationMeta] {
        &self.manifest.generations
    }

    /// The shard's mapped (and open-time-validated) segments, reused across
    /// reads: the first read of a shard pays for the mmap and the checksum
    /// walk; every later one starts decoding immediately.
    fn mapped_segments(&self, shard: usize) -> Result<Arc<Vec<MappedSegment>>> {
        if shard >= self.num_shards() {
            return Err(StoreError::Corrupt(format!("no shard {shard} in manifest")));
        }
        if let Some(segments) = self.mapped.lock().expect("mapped cache lock").get(&shard) {
            return Ok(Arc::clone(segments));
        }
        // Open outside the lock so slow first-time validation of one shard
        // never blocks scans of already-cached shards.
        let segments = map_shard(&self.dir, &self.manifest.generations, shard)?;
        self.mapped
            .lock()
            .expect("mapped cache lock")
            .insert(shard, Arc::clone(&segments));
        Ok(segments)
    }

    /// A cursor over the shard's mapped segments.
    fn shard_scan<'f>(
        &self,
        shard: usize,
        filter: Option<BlockFilter<'f>>,
        space: ScanSpace,
    ) -> Result<ShardScan<'f>> {
        Ok(ShardScan::new(
            self.mapped_segments(shard)?,
            Arc::clone(&self.manifest.rank_order),
            self.vocab.len() as u32,
            filter,
            space,
        ))
    }

    /// Opens a streaming scan over one shard, transparently chaining the
    /// shard's blocks across all generations. The shard's segments are
    /// mapped and validated here, on its first read, so a damaged or
    /// truncated segment fails this call.
    pub fn scan_shard(&self, shard: usize) -> Result<ShardScan<'static>> {
        self.shard_scan(shard, None, ScanSpace::Items)
    }

    /// Opens a streaming scan over one shard that decodes only blocks whose
    /// header passes `filter`; rejected blocks are stepped over without
    /// decoding their payload. With per-block G1 sketches this turns a full
    /// shard scan into a walk over a few headers on long-tail shards.
    pub fn scan_shard_filtered<'f>(
        &self,
        shard: usize,
        filter: BlockFilter<'f>,
    ) -> Result<ShardScan<'f>> {
        self.shard_scan(shard, Some(filter), ScanSpace::Items)
    }

    /// Iterates every sequence of the corpus, shard by shard (storage
    /// order, not id order — use [`CorpusReader::to_database`] for id
    /// order).
    pub fn scan(&self) -> CorpusScan<'_> {
        CorpusScan {
            reader: self,
            shard: 0,
            current: None,
        }
    }

    /// Shards whose sequence-id ranges overlap `ids`, per the manifest —
    /// with range partitioning this prunes scans to a handful of segments.
    pub fn shards_overlapping(&self, ids: Range<u64>) -> Vec<usize> {
        self.manifest
            .shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.sequences > 0 && s.min_seq < ids.end && s.max_seq >= ids.start)
            .map(|(i, _)| i)
            .collect()
    }

    /// Scans all shards in parallel with up to `parallelism` threads,
    /// applying `f` to each shard's stream. Results come back in shard
    /// order; the first error wins.
    pub fn par_scan<T, F>(&self, parallelism: usize, f: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(usize, ShardScan<'static>) -> Result<T> + Sync,
    {
        self.par_shards(parallelism, |shard| f(shard, self.scan_shard(shard)?))
    }

    /// Runs `f` on every shard with up to `parallelism` threads; results
    /// come back in shard order, the first error wins.
    fn par_shards<T, F>(&self, parallelism: usize, f: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(usize) -> Result<T> + Sync,
    {
        let n = self.num_shards();
        let slots: Vec<Mutex<Option<Result<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        let workers = parallelism.clamp(1, n.max(1));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let shard = cursor.fetch_add(1, Ordering::Relaxed);
                    if shard >= n {
                        break;
                    }
                    *slots[shard].lock().expect("shard slot lock") = Some(f(shard));
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("shard slot lock")
                    .expect("every shard visited")
            })
            .collect()
    }

    /// Materializes the corpus as an in-memory [`SequenceDatabase`] in
    /// original append order (sequence id order), scanning shards in
    /// parallel.
    pub fn to_database(&self) -> Result<SequenceDatabase> {
        let total = self.len() as usize;
        let per_shard = self.par_scan(available_threads(), |_, scan| {
            let mut seqs = Vec::new();
            for record in scan {
                seqs.push(record?);
            }
            Ok(seqs)
        })?;
        let mut slots: Vec<Option<Vec<ItemId>>> = vec![None; total];
        for seqs in per_shard {
            for (id, items) in seqs {
                let slot = slots
                    .get_mut(id as usize)
                    .ok_or_else(|| StoreError::Corrupt(format!("sequence id {id} out of range")))?;
                if slot.replace(items).is_some() {
                    return Err(StoreError::Corrupt(format!("duplicate sequence id {id}")));
                }
            }
        }
        let mut db = SequenceDatabase::with_capacity(total, self.manifest.total_items as usize);
        for (id, slot) in slots.into_iter().enumerate() {
            let items =
                slot.ok_or_else(|| StoreError::Corrupt(format!("missing sequence id {id}")))?;
            db.push(&items);
        }
        Ok(db)
    }

    /// The block headers of one shard across all generations, in storage
    /// order. They are the headers the shard's validation walk decoded, so
    /// every payload checksum and each generation's block count against the
    /// manifest have been verified before this returns.
    pub fn block_headers(&self, shard: usize) -> Result<Vec<BlockHeader>> {
        Ok(self
            .mapped_segments(shard)?
            .iter()
            .flat_map(|segment| segment.blocks.iter().map(|(header, _)| header.clone()))
            .collect())
    }

    /// Assembles the generalized f-list from the block headers' G1 sketches.
    ///
    /// Returns `Ok(None)` when the corpus was written without sketches; the
    /// caller then falls back to a full scan (`compute_flist_sharded`).
    /// With sketches no payload is decoded. The shards are mapped and
    /// validated on the way, so the mine that follows scans maps this call
    /// already checked. The per-generation sketches need no special
    /// handling: counts are additive, so chaining headers across
    /// generations merges them into one corpus-wide f-list.
    pub fn flist(&self) -> Result<Option<FList>> {
        if !self.manifest.sketches {
            return Ok(None);
        }
        let vocab_len = self.vocab.len();
        let partial = self.par_shards(available_threads(), |shard| {
            let mut doc_freq = vec![0u64; vocab_len];
            for segment in self.mapped_segments(shard)?.iter() {
                for (header, _) in &segment.blocks {
                    for &(item, count) in &header.sketch {
                        let slot = doc_freq.get_mut(item as usize).ok_or_else(|| {
                            StoreError::Corrupt(format!("sketch item {item} outside vocabulary"))
                        })?;
                        *slot += count as u64;
                    }
                }
            }
            Ok(doc_freq)
        })?;
        let mut doc_freq = vec![0u64; vocab_len];
        for shard_freq in partial {
            for (i, f) in shard_freq.into_iter().enumerate() {
                doc_freq[i] += f;
            }
        }
        let flist = FList::from_counts(
            &self.vocab,
            doc_freq
                .into_iter()
                .enumerate()
                .map(|(i, f)| (ItemId::from_u32(i as u32), f)),
        )
        .map_err(|e| StoreError::Corrupt(format!("sketch f-list: {e}")))?;
        Ok(Some(flist))
    }

    /// Runs the full LASH pipeline from storage: the f-list comes from the
    /// block headers' sketches when available (no payload is decoded for
    /// it), and both distributed jobs stream shards via the
    /// [`ShardedCorpus`] impl — one map task per shard.
    pub fn mine(&self, lash: &Lash, params: &GsmParams) -> lash_core::error::Result<LashResult> {
        // A hierarchy-ignoring run discards any hierarchy-closed f-list, so
        // skip the sketch pass entirely in that mode.
        let flist = if lash.config().ignore_hierarchy {
            None
        } else {
            self.flist()
                .map_err(|e| CoreError::Engine(format!("store f-list: {e}")))?
        };
        lash.mine_sharded(self, &self.vocab, params, flist)
    }

    /// Drives `f` over every sequence of `shard`, delivered in `space` —
    /// the push scans behind the [`ShardedCorpus`] impl, a loop over the
    /// same [`ShardScan`] cursor as every other read. With a `relevant`
    /// predicate on a corpus with sketches, every block whose G1 sketch
    /// holds no relevant item is skipped: the sketch lists every item of
    /// the block's G1 closures, so such a block holds no relevant sequence.
    /// Blocks decode on the calling thread (a decode-ahead thread was
    /// measured 25–50% slower than decoding inline, even with an idle
    /// second core, and inside a mine job every core already runs a map
    /// task). Store errors become the mining engine's.
    fn push_scan(
        &self,
        shard: usize,
        relevant: Option<&(dyn Fn(ItemId) -> bool + Sync)>,
        space: ScanSpace,
        f: &mut dyn FnMut(u64, &[ItemId]),
    ) -> lash_core::error::Result<()> {
        let relevant_item = relevant
            .filter(|_| self.manifest.sketches)
            .map(|relevant| relevance_table(self.vocab.len() as u32, relevant));
        let filter = relevant_item.as_ref().map(|table| {
            move |header: &BlockHeader| {
                header
                    .sketch
                    .iter()
                    .any(|&(item, _)| table.get(item as usize).copied().unwrap_or(false))
            }
        });
        let result = (|| {
            let mut scan = self.shard_scan(shard, filter.as_ref().map(|keep| keep as _), space)?;
            while let Some(batch) = scan.next_batch()? {
                for (id, items) in batch.iter() {
                    f(id, items);
                }
            }
            Ok(())
        })();
        result.map_err(|e: StoreError| {
            lash_obs::flight::record_error("store.scan", &e.to_string());
            CoreError::Engine(format!("store scan: {e}"))
        })
    }
}

fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// The per-vocabulary-item truth table of a relevance predicate, hoisted
/// per scan: `relevant` is a fixed predicate (the mine job's frequent-item
/// test, a rank lookup per call), but the same items recur in every block's
/// sketch — so evaluate it once per vocabulary item instead of once per
/// (block, sketch entry). Out-of-vocabulary sketch items are treated as
/// irrelevant; the header f-list path rejects them as corruption
/// separately.
fn relevance_table(vocab_len: u32, relevant: &(dyn Fn(ItemId) -> bool + Sync)) -> Vec<bool> {
    (0..vocab_len)
        .map(|item| relevant(ItemId::from_u32(item)))
        .collect()
}

impl ShardedCorpus for CorpusReader {
    fn num_shards(&self) -> usize {
        CorpusReader::num_shards(self)
    }

    fn num_sequences(&self) -> u64 {
        self.manifest.num_sequences
    }

    fn rank_order(&self) -> Option<&[u32]> {
        Some(self.manifest.rank_order.item_of())
    }

    fn scan_shard(
        &self,
        shard: usize,
        f: &mut dyn FnMut(u64, &[ItemId]),
    ) -> lash_core::error::Result<()> {
        let _scan_span = lash_obs::span!("store.scan.shard", shard = shard);
        self.push_scan(shard, None, ScanSpace::Items, f)
    }

    fn scan_shard_pruned(
        &self,
        shard: usize,
        relevant: &(dyn Fn(ItemId) -> bool + Sync),
        f: &mut dyn FnMut(u64, &[ItemId]),
    ) -> lash_core::error::Result<()> {
        // Without sketches no block can be proven irrelevant.
        if !self.manifest.sketches {
            return ShardedCorpus::scan_shard(self, shard, f);
        }
        let _scan_span = lash_obs::span!("store.scan.shard", shard = shard, pruned = true);
        self.push_scan(shard, Some(relevant), ScanSpace::Items, f)
    }

    fn scan_shard_ranked(
        &self,
        shard: usize,
        relevant: &(dyn Fn(ItemId) -> bool + Sync),
        f: &mut dyn FnMut(u64, &[ItemId]),
    ) -> lash_core::error::Result<()> {
        let _scan_span = lash_obs::span!("store.scan.shard", shard = shard, ranked = true);
        // `relevant` stays an id-space predicate — sketches are id-space —
        // while delivery is rank-space: the stored values pass through
        // untouched, which is the map-phase no-op this scan exists for.
        self.push_scan(shard, Some(relevant), ScanSpace::Ranks, f)
    }
}

/// One decoded block of sequences: ids plus a shared item arena with
/// offsets, so a whole block's records are delivered without a single
/// per-record allocation.
#[derive(Debug, Default)]
pub struct SequenceBatch {
    ids: Vec<u64>,
    items: Vec<ItemId>,
    offsets: Vec<u32>,
}

impl SequenceBatch {
    fn clear(&mut self) {
        self.ids.clear();
        self.items.clear();
        self.offsets.clear();
        self.offsets.push(0);
    }

    /// Number of sequences in the batch.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if the batch holds no sequences.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The `i`-th sequence: its corpus-wide id and its items (a slice of
    /// the shared arena).
    pub fn get(&self, i: usize) -> (u64, &[ItemId]) {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        (self.ids[i], &self.items[lo..hi])
    }

    /// Iterates the batch's sequences.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[ItemId])> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// The shared item arena (all sequences back to back).
    pub fn arena(&self) -> &[ItemId] {
        &self.items
    }
}

/// Reusable columns for group-varint block decoding, owned by the scan so
/// no allocation recurs per block.
#[derive(Debug, Default)]
struct DecodeScratch {
    id_deltas: Vec<u64>,
    lens: Vec<u32>,
    flat: Vec<u32>,
}

/// Decodes every record of one block payload into `batch`: the whole
/// block's ranks come out of one uninterrupted group-varint kernel run, and
/// are mapped to item ids through `rank` only when `space` asks for
/// [`ScanSpace::Items`] — a ranked scan (the mine path) takes them as
/// stored.
fn decode_block_into(
    header: &BlockHeader,
    payload: &[u8],
    vocab_len: u32,
    batch: &mut SequenceBatch,
    scratch: &mut DecodeScratch,
    space: ScanSpace,
    rank: &RankOrder,
) -> Result<()> {
    // Every record costs at least two payload bytes (id delta + length) and
    // every item at least one — so a header whose claimed counts cannot fit
    // the payload is corruption, rejected *before* any count-sized
    // allocation. Without this, a checksum-valid but hostile header
    // claiming u64::MAX items would panic or OOM the reserve/resize calls
    // below instead of returning a typed error.
    let min_bytes = (2 * header.records as u64).saturating_add(header.items);
    if min_bytes > payload.len() as u64 {
        return Err(StoreError::Corrupt(format!(
            "block header claims {} records / {} items, payload holds {} bytes",
            header.records,
            header.items,
            payload.len()
        )));
    }
    batch.clear();
    batch.ids.reserve(header.records as usize);
    batch.items.reserve(header.items as usize);
    let records = header.records as usize;
    let items = usize::try_from(header.items)
        .map_err(|_| StoreError::Corrupt("block item count overflows".into()))?;
    let consumed = format::decode_gv_payload(
        payload,
        records,
        items,
        &mut scratch.id_deltas,
        &mut scratch.lens,
        &mut scratch.flat,
    )?;
    if consumed != payload.len() {
        return Err(StoreError::Corrupt(
            "trailing bytes in block payload".into(),
        ));
    }
    // Ids: prefix-sum the delta column, re-checking the header invariants.
    let mut prev_seq = header.first_seq;
    for (rec, &delta) in scratch.id_deltas.iter().enumerate() {
        let id = prev_seq
            .checked_add(delta)
            .ok_or_else(|| StoreError::Corrupt("sequence id delta overflows".into()))?;
        if id > header.last_seq {
            return Err(StoreError::Corrupt(format!(
                "sequence id {id} beyond block's last id {}",
                header.last_seq
            )));
        }
        prev_seq = id;
        batch.ids.push(id);
        if rec + 1 == records && id != header.last_seq {
            return Err(StoreError::Corrupt(
                "block's last sequence id does not match its header".into(),
            ));
        }
    }
    // Offsets: prefix-sum the lengths column; it must tile the item arena
    // exactly.
    let mut offset = 0u64;
    for &len in &scratch.lens {
        offset += len as u64;
        if offset > items as u64 {
            return Err(StoreError::Corrupt(
                "record lengths overrun block item count".into(),
            ));
        }
        batch.offsets.push(offset as u32);
    }
    if offset != items as u64 {
        return Err(StoreError::Corrupt(
            "record lengths do not sum to block item count".into(),
        ));
    }
    // Items: bulk range-check (a vectorizable max-scan, one branch total),
    // then one memcpy-shaped extend into the shared arena. Ranks and ids
    // are both permutations of `0..vocab_len`, so the check holds for
    // either.
    let max_item = scratch.flat.iter().fold(0u32, |m, &v| m.max(v));
    if max_item >= vocab_len && !scratch.flat.is_empty() {
        return Err(StoreError::Corrupt(format!(
            "item id {max_item} outside vocabulary of {vocab_len}"
        )));
    }
    batch
        .items
        .extend(scratch.flat.iter().map(|&v| ItemId::from_u32(v)));
    if space == ScanSpace::Items {
        let item_of = rank.item_of();
        if item_of.len() != vocab_len as usize {
            return Err(StoreError::Corrupt(format!(
                "rank order covers {} items, vocabulary has {vocab_len}",
                item_of.len()
            )));
        }
        for item in &mut batch.items {
            *item = ItemId::from_u32(item_of[item.index()]);
        }
    }
    Ok(())
}

/// A predicate over block headers deciding whether a block's payload is
/// worth decoding; see [`CorpusReader::scan_shard_filtered`].
pub type BlockFilter<'f> = &'f (dyn Fn(&BlockHeader) -> bool + Sync);

/// Maps `shard`'s segment file in each of `generations`, oldest first (see
/// [`MappedSegment::open`]).
pub(crate) fn map_shard(
    dir: &Path,
    generations: &[GenerationMeta],
    shard: usize,
) -> Result<Arc<Vec<MappedSegment>>> {
    let segments = generations
        .iter()
        .map(|g| {
            let blocks = g.shards.get(shard).map(|s| s.blocks).ok_or_else(|| {
                StoreError::Corrupt(format!("no shard {shard} in generation {}", g.id))
            })?;
            let path = dir
                .join(format::generation_dir_name(g.id))
                .join(format::shard_file_name(shard as u32));
            MappedSegment::open(&path, shard as u32, blocks)
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(Arc::new(segments))
}

/// One generation's segment file for one shard as a zero-copy view: the
/// whole file is memory-mapped (heap-loaded on platforms without mmap) and
/// **every frame checksum is verified once here, at open** — after that,
/// block payloads are consumed as borrowed windows into the map with no
/// further hashing, copying, or syscalls. The per-block headers come out of
/// the same validation walk for free, so filtering happens before any
/// decode work is scheduled.
pub(crate) struct MappedSegment {
    frames: frame::MappedFrames,
    /// Every block: decoded header plus its payload's byte range in the map.
    blocks: Vec<(BlockHeader, Range<usize>)>,
}

impl MappedSegment {
    /// Maps and validates the segment at `path`: its header must name
    /// `shard`, every frame must pass its checksum, and it must hold exactly
    /// the `blocks` blocks the manifest records for it — a segment cut at a
    /// block-frame boundary is whole frame by frame, and only the count
    /// tells.
    fn open(path: &Path, shard: u32, blocks: u64) -> Result<Self> {
        let frames = frame::MappedFrames::open(path)?;
        let bytes = frames.bytes();
        let corrupt =
            |e: lash_encoding::DecodeError| StoreError::Corrupt(format!("mapped segment: {e}"));
        // The segment header frame uses the classic checksum, block frames
        // the wide one.
        let (header, mut pos) = frame::decode_frame(bytes).map_err(corrupt)?;
        format::decode_segment_header(header, shard)?;
        let mut found = Vec::new();
        while pos < bytes.len() {
            let (header_bytes, consumed) =
                frame::decode_frame_with(&bytes[pos..], format::BLOCK_CHECKSUM).map_err(corrupt)?;
            let block_header = format::decode_block_header(header_bytes)?;
            pos += consumed;
            let (payload, consumed) =
                frame::decode_frame_with(&bytes[pos..], format::BLOCK_CHECKSUM)
                    .map_err(|_| StoreError::Corrupt("missing block payload frame".into()))?;
            // The payload sits at the end of its frame, just before the
            // 4-byte checksum trailer.
            let start = pos + consumed - 4 - payload.len();
            found.push((block_header, start..start + payload.len()));
            pos += consumed;
        }
        if found.len() as u64 != blocks {
            return Err(StoreError::Corrupt(format!(
                "segment holds {} blocks, manifest says {blocks}",
                found.len()
            )));
        }
        Ok(MappedSegment {
            frames,
            blocks: found,
        })
    }
}

/// A streaming scan over one shard, yielding `(sequence id, items)` in
/// storage order and transparently chaining the shard's mapped segments
/// across generations (oldest first, so ids stay ascending). It is a cursor
/// — a segment index and a block index — over segments whose checksums were
/// verified when they were mapped. Blocks are decoded **one block at a
/// time into a shared batch** (item arena + offsets), so no per-record
/// allocation happens. An optional block filter skips whole blocks on
/// their header alone, without decoding their payload. A block that fails
/// to decode ends the scan.
pub struct ShardScan<'f> {
    segments: Arc<Vec<MappedSegment>>,
    /// The corpus rank order, for mapping stored ranks to item ids.
    rank: Arc<RankOrder>,
    vocab_len: u32,
    filter: Option<BlockFilter<'f>>,
    /// The item space sequences are delivered in.
    space: ScanSpace,
    /// The next block to visit: `segments[segment].blocks[block]`.
    segment: usize,
    block: usize,
    batch: SequenceBatch,
    scratch: DecodeScratch,
    /// Cursor into `batch` for the record-at-a-time APIs.
    rec: usize,
    blocks_decoded: u64,
    blocks_pruned: u64,
}

impl Drop for ShardScan<'_> {
    fn drop(&mut self) {
        // Publish the scan's block totals to the registry once, at end of
        // scan, so the per-block decode loop never touches it. Every read
        // of a segment is a `ShardScan`, so this is the one place the
        // process-wide counters are fed; they expose the sketch-prune hit
        // rate (`blocks_pruned / (blocks_pruned + blocks_decoded)`).
        let obs = lash_obs::global();
        if self.blocks_decoded != 0 {
            obs.counter("store.scan.blocks_decoded")
                .add(self.blocks_decoded);
        }
        if self.blocks_pruned != 0 {
            obs.counter("store.scan.blocks_pruned")
                .add(self.blocks_pruned);
        }
    }
}

impl<'f> ShardScan<'f> {
    /// A cursor at the first block of `segments` (one per generation,
    /// oldest first).
    pub(crate) fn new(
        segments: Arc<Vec<MappedSegment>>,
        rank: Arc<RankOrder>,
        vocab_len: u32,
        filter: Option<BlockFilter<'f>>,
        space: ScanSpace,
    ) -> Self {
        ShardScan {
            segments,
            rank,
            vocab_len,
            filter,
            space,
            segment: 0,
            block: 0,
            batch: SequenceBatch::default(),
            scratch: DecodeScratch::default(),
            rec: 0,
            blocks_decoded: 0,
            blocks_pruned: 0,
        }
    }

    /// Blocks whose payload was decoded so far.
    pub fn blocks_decoded(&self) -> u64 {
        self.blocks_decoded
    }

    /// Blocks skipped by the filter without decoding their payload.
    pub fn blocks_pruned(&self) -> u64 {
        self.blocks_pruned
    }

    /// Decodes the next (unfiltered) block into the shared batch, moving on
    /// to the next generation's segment when the current one ends. Returns
    /// `None` at clean end-of-shard; the returned batch is valid until the
    /// next call. After an error the scan is over: every later call returns
    /// `None`.
    pub fn next_batch(&mut self) -> Result<Option<&SequenceBatch>> {
        while let Some(segment) = self.segments.get(self.segment) {
            let Some((header, payload)) = segment.blocks.get(self.block) else {
                self.segment += 1;
                self.block = 0;
                continue;
            };
            self.block += 1;
            if self.filter.is_some_and(|keep| !keep(header)) {
                self.blocks_pruned += 1;
                continue;
            }
            let decoded = decode_block_into(
                header,
                &segment.frames.bytes()[payload.clone()],
                self.vocab_len,
                &mut self.batch,
                &mut self.scratch,
                self.space,
                &self.rank,
            );
            if let Err(e) = decoded {
                self.segment = self.segments.len();
                self.batch.clear();
                return Err(e);
            }
            self.blocks_decoded += 1;
            self.rec = 0;
            return Ok(Some(&self.batch));
        }
        Ok(None)
    }

    /// Advances to the next sequence, yielding a borrowed view of its items
    /// (valid until the next call). The allocation-free twin of the
    /// [`Iterator`] impl; the batched [`ShardScan::next_batch`] is the bulk
    /// variant.
    pub fn next_borrowed(&mut self) -> Result<Option<(u64, &[ItemId])>> {
        while self.rec >= self.batch.len() {
            if self.next_batch()?.is_none() {
                return Ok(None);
            }
        }
        let i = self.rec;
        self.rec += 1;
        Ok(Some(self.batch.get(i)))
    }
}

impl Iterator for ShardScan<'_> {
    type Item = Result<(u64, Vec<ItemId>)>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_borrowed()
            .map(|record| record.map(|(id, items)| (id, items.to_vec())))
            .transpose()
    }
}

/// Iterates every sequence of a corpus, shard by shard.
pub struct CorpusScan<'a> {
    reader: &'a CorpusReader,
    shard: usize,
    current: Option<ShardScan<'static>>,
}

impl Iterator for CorpusScan<'_> {
    type Item = Result<(u64, Vec<ItemId>)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(scan) = &mut self.current {
                match scan.next() {
                    Some(item) => return Some(item),
                    None => self.current = None,
                }
            }
            if self.shard >= self.reader.num_shards() {
                return None;
            }
            match self.reader.scan_shard(self.shard) {
                Ok(scan) => {
                    self.shard += 1;
                    self.current = Some(scan);
                }
                Err(e) => {
                    self.shard = self.reader.num_shards();
                    return Some(Err(e));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A checksum-valid frame stream cannot smuggle a hostile header whose
    /// claimed counts would panic or OOM the count-sized allocations: the
    /// counts are bounded against the payload length before any reserve.
    #[test]
    fn hostile_header_counts_are_rejected_before_allocating() {
        let mut batch = SequenceBatch::default();
        let mut scratch = DecodeScratch::default();
        let rank = RankOrder::from_item_of((0..10).rev().collect()).unwrap();
        for space in [ScanSpace::Items, ScanSpace::Ranks] {
            for (records, items) in [(u32::MAX, u64::MAX), (u32::MAX, 0), (1, u64::MAX)] {
                let header = BlockHeader {
                    records,
                    first_seq: 0,
                    last_seq: records as u64,
                    items,
                    min_item: None,
                    max_item: None,
                    sketch: Vec::new(),
                };
                let err = decode_block_into(
                    &header,
                    &[0u8; 16],
                    10,
                    &mut batch,
                    &mut scratch,
                    space,
                    &rank,
                )
                .unwrap_err();
                assert!(
                    matches!(err, StoreError::Corrupt(_)),
                    "expected Corrupt, got {err:?}"
                );
            }
        }
    }
}

//! The binary layout of manifests, segment headers, and block headers.
//!
//! Everything on disk is wrapped in `lash-encoding` frames (varint length
//! prefix + FNV-1a-32 checksum), so truncation and bit-flips surface as
//! typed errors rather than garbage data. All multi-byte integers inside
//! frame payloads are varints; optional values are shifted by one so that
//! `0` encodes "none".
//!
//! A corpus is an ordered set of sealed segment **generations** (see
//! [`crate::generations`]): the manifest header names the generation count
//! and the next free generation id, and a dedicated generations frame
//! carries each generation's per-shard statistics.
//!
//! Block payloads are **columnar group varint in rank space**: all
//! sequence-id deltas, then all per-record lengths, then every record's
//! items flattened into one contiguous group-varint stream — so a reader
//! decodes a whole block with the wide kernel of
//! [`lash_encoding::group_varint`] instead of parsing tokens byte by byte.
//! The corpus fixes one descending-frequency item permutation (a
//! [`RankOrder`], carried by a dedicated manifest frame) and every stored
//! item is its rank under that order. Frequent items get the smallest
//! integers, so the group-varint item column shrinks, and a rank-space
//! consumer (the mine job's map phase) reads the stored values with **no
//! re-encoding at all**. Block-header `min_item`/`max_item` and the G1
//! sketch stay in item-id space, so header-only consumers (f-list assembly,
//! sketch pruning) never need the order. The rank order is **write-once per
//! corpus**: every segment of a corpus shares the manifest's single
//! permutation.
//!
//! This is format version 4 ([`FORMAT_VERSION`]), the only version this
//! crate reads or writes. The manifest and segment-header decoders reject
//! any other version with [`StoreError::UnsupportedVersion`] *before*
//! touching a version-dependent field, so neither a retired layout (1–3)
//! nor a future one can be misparsed as garbage.

use std::collections::BTreeMap;

use lash_core::vocabulary::Vocabulary;
use lash_encoding::group_varint;
use lash_encoding::varint::{self, VarintReader};
use lash_encoding::FrameChecksum;

use crate::{Result, StoreError};

/// The on-disk format version of manifests and segments — the only one this
/// build reads or writes.
pub const FORMAT_VERSION: u32 = 4;

/// The tag byte opening every block header, naming the rank-space
/// columnar group-varint payload. Format v4 has exactly this one payload
/// layout; the decoder rejects any other tag as corruption.
const BLOCK_CODEC_TAG: u32 = 2;

/// The frame-checksum flavor of block header and payload frames: the
/// word-wise [`lash_encoding::frame::checksum_wide`], an order of magnitude
/// cheaper to verify than byte-at-a-time FNV, which would otherwise
/// dominate the scan. Manifest and segment *header* frames use the classic
/// [`FrameChecksum::Fnv1a`].
pub(crate) const BLOCK_CHECKSUM: FrameChecksum = FrameChecksum::Fnv1aWide;

/// The corpus-wide descending-frequency item permutation: `item_of[rank]`
/// is the vocabulary id of the item at `rank`, with rank 0 the most
/// frequent item. The inverse (`rank_of`) is derived on construction so
/// both directions are O(1) table lookups.
///
/// The order is **write-once**: the writer that creates the corpus fixes it
/// in the manifest, and every later segment of the corpus is encoded under
/// the same permutation (mixed-order corpora would make block payloads
/// ambiguous). It uses the same sort as `lash-core`'s `ItemOrder`
/// — descending generalized frequency, then ascending hierarchy depth, then
/// ascending item id — so a mining context built over the same f-list lands
/// on the identical permutation and the map phase's re-ranking becomes a
/// no-op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankOrder {
    item_of: Vec<u32>,
    rank_of: Vec<u32>,
}

impl RankOrder {
    /// Builds an order from the rank → item-id permutation, validating that
    /// it is in fact a permutation of `0..len`.
    pub fn from_item_of(item_of: Vec<u32>) -> Result<RankOrder> {
        let n = item_of.len();
        let mut rank_of = vec![u32::MAX; n];
        for (rank, &item) in item_of.iter().enumerate() {
            let slot = rank_of.get_mut(item as usize).ok_or_else(|| {
                StoreError::Corrupt(format!(
                    "rank order names item {item} outside vocabulary of {n}"
                ))
            })?;
            if *slot != u32::MAX {
                return Err(StoreError::Corrupt(format!(
                    "rank order repeats item {item}"
                )));
            }
            *slot = rank as u32;
        }
        Ok(RankOrder { item_of, rank_of })
    }

    /// The identity order (rank == item id) — the valid-but-neutral order a
    /// writer falls back to when no frequency information is available.
    pub fn identity(len: usize) -> RankOrder {
        let ids: Vec<u32> = (0..len as u32).collect();
        RankOrder {
            item_of: ids.clone(),
            rank_of: ids,
        }
    }

    /// Number of items (the vocabulary size the order covers).
    pub fn len(&self) -> usize {
        self.item_of.len()
    }

    /// True if the order covers no items.
    pub fn is_empty(&self) -> bool {
        self.item_of.is_empty()
    }

    /// The rank → item-id permutation.
    pub fn item_of(&self) -> &[u32] {
        &self.item_of
    }

    /// The item-id → rank permutation (inverse of [`RankOrder::item_of`]).
    pub fn rank_of(&self) -> &[u32] {
        &self.rank_of
    }
}

/// Encodes the manifest rank-order frame payload: the item count followed
/// by the rank → item-id permutation as raw varints (the permutation is not
/// sorted, so there is nothing to delta-code).
pub(crate) fn encode_rank_order(order: &RankOrder, buf: &mut Vec<u8>) {
    varint::encode_u32(order.item_of.len() as u32, buf);
    for &item in &order.item_of {
        varint::encode_u32(item, buf);
    }
}

/// Decodes a manifest rank-order frame payload, validating the permutation
/// against the vocabulary size.
pub(crate) fn decode_rank_order(bytes: &[u8], vocab_len: usize) -> Result<RankOrder> {
    let mut r = VarintReader::new(bytes);
    let n = r.read_u32()? as usize;
    if n != vocab_len {
        return Err(StoreError::Corrupt(format!(
            "rank order covers {n} items, vocabulary holds {vocab_len}"
        )));
    }
    let mut item_of = Vec::with_capacity(n);
    for _ in 0..n {
        item_of.push(r.read_u32()?);
    }
    if !r.is_empty() {
        return Err(StoreError::Corrupt("trailing rank-order bytes".into()));
    }
    RankOrder::from_item_of(item_of)
}

/// Manifest file name inside a corpus directory.
pub const MANIFEST_FILE: &str = "MANIFEST.lash";

/// Magic bytes opening the manifest header frame.
pub const MANIFEST_MAGIC: &[u8; 8] = b"LASHSTOR";

/// Magic bytes opening every segment file's header frame.
pub const SEGMENT_MAGIC: &[u8; 4] = b"LSEG";

/// File name of shard `shard` inside a generation directory.
pub fn shard_file_name(shard: u32) -> String {
    format!("shard-{shard:05}.seg")
}

/// Directory name of generation `id` inside a corpus directory.
pub fn generation_dir_name(id: u32) -> String {
    format!("gen-{id:05}")
}

/// Name of the temporary directory a generation is assembled in before the
/// atomic rename that seals it (see [`crate::generations`]). Starts with a
/// dot so readers and directory listings never mistake it for sealed data.
pub fn generation_tmp_dir_name(id: u32) -> String {
    format!(".gen-{id:05}.tmp")
}

/// Routing of sequences to shards, a pure function of the corpus-wide
/// sequence id so a corpus reopens deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioning {
    /// Shard `splitmix64(id) % shards`: uniform spread regardless of insert
    /// order; every shard sees a slice of the whole id range.
    Hash {
        /// Number of shards.
        shards: u32,
    },
    /// Shard `min(id / sequences_per_shard, shards - 1)`: contiguous id
    /// ranges per shard, so scans by id range can skip whole shards.
    Range {
        /// Number of shards.
        shards: u32,
        /// Ids per shard; the last shard absorbs any overflow.
        sequences_per_shard: u64,
    },
}

impl Partitioning {
    /// Hash partitioning over `shards` shards.
    pub fn hash(shards: u32) -> Partitioning {
        Partitioning::Hash { shards }
    }

    /// Range partitioning: `sequences_per_shard` consecutive ids per shard.
    pub fn range(shards: u32, sequences_per_shard: u64) -> Partitioning {
        Partitioning::Range {
            shards,
            sequences_per_shard,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> u32 {
        match *self {
            Partitioning::Hash { shards } | Partitioning::Range { shards, .. } => shards,
        }
    }

    /// The shard holding sequence `id`.
    pub fn shard_of(&self, id: u64) -> u32 {
        match *self {
            Partitioning::Hash { shards } => (splitmix64(id) % shards as u64) as u32,
            Partitioning::Range {
                shards,
                sequences_per_shard,
            } => (id / sequences_per_shard).min(shards as u64 - 1) as u32,
        }
    }

    /// Validates the parameters.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.num_shards() == 0 {
            return Err(StoreError::InvalidOptions("at least one shard required"));
        }
        if let Partitioning::Range {
            sequences_per_shard: 0,
            ..
        } = self
        {
            return Err(StoreError::InvalidOptions(
                "range partitioning needs sequences_per_shard >= 1",
            ));
        }
        Ok(())
    }
}

/// SplitMix64 finalizer — a strong, dependency-free id hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Per-shard statistics recorded in the manifest (once per generation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Sequences stored in the shard.
    pub sequences: u64,
    /// Blocks in the segment file.
    pub blocks: u64,
    /// Total (compressed) payload bytes across blocks.
    pub payload_bytes: u64,
    /// Smallest sequence id, `u64::MAX` when the shard is empty.
    pub min_seq: u64,
    /// Largest sequence id, `0` when the shard is empty.
    pub max_seq: u64,
}

impl Default for ShardStats {
    fn default() -> Self {
        ShardStats {
            sequences: 0,
            blocks: 0,
            payload_bytes: 0,
            min_seq: u64::MAX,
            max_seq: 0,
        }
    }
}

impl ShardStats {
    /// Folds another shard's statistics into this one (used to aggregate a
    /// shard's view across generations).
    pub fn merge(&mut self, other: &ShardStats) {
        self.sequences += other.sequences;
        self.blocks += other.blocks;
        self.payload_bytes += other.payload_bytes;
        self.min_seq = self.min_seq.min(other.min_seq);
        self.max_seq = self.max_seq.max(other.max_seq);
    }
}

/// One sealed segment generation: an immutable set of per-shard segment
/// files under `gen-<id>/` plus its statistics. The manifest holds the
/// generations in sequence-id order; chained shard scans visit them in list
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenerationMeta {
    /// The generation's id — names its directory ([`generation_dir_name`]).
    /// Ids grow monotonically over the corpus lifetime and are never
    /// reused, so a compacted-away generation's directory name can never be
    /// confused with a live one.
    pub id: u32,
    /// Sequences stored in the generation.
    pub num_sequences: u64,
    /// Total items across the generation's sequences.
    pub total_items: u64,
    /// Per-shard statistics, indexed by shard.
    pub shards: Vec<ShardStats>,
}

impl GenerationMeta {
    /// Total compressed payload bytes across the generation's shards.
    pub fn payload_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.payload_bytes).sum()
    }

    /// Total blocks across the generation's shards.
    pub fn blocks(&self) -> u64 {
        self.shards.iter().map(|s| s.blocks).sum()
    }
}

/// The corpus manifest: everything needed to reopen a corpus cold.
///
/// A manifest is immutable once written; ingest and compaction *replace* it
/// atomically (temp file + rename), so every [`crate::CorpusReader`] is a
/// consistent snapshot of the generation list it opened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// How sequences are routed to shards.
    pub partitioning: Partitioning,
    /// Total sequences in the corpus (across all generations).
    pub num_sequences: u64,
    /// Total items across all sequences.
    pub total_items: u64,
    /// Whether blocks carry G1 item-frequency sketches.
    pub sketches: bool,
    /// The next unused generation id; bumped by every seal and compaction.
    pub next_gen_id: u32,
    /// The sealed generations, in sequence-id order.
    pub generations: Vec<GenerationMeta>,
    /// Per-shard statistics aggregated across generations, indexed by
    /// shard. Derived from `generations` on decode; kept denormalized so
    /// shard-level consumers need no generation awareness.
    pub shards: Vec<ShardStats>,
    /// The corpus's rank-space item permutation, carried by a dedicated
    /// manifest frame. Shared behind an [`std::sync::Arc`] so every scan can
    /// hold the mapping without copying two vocabulary-sized tables.
    pub rank_order: std::sync::Arc<RankOrder>,
}

impl Manifest {
    /// Recomputes the aggregated per-shard statistics from the generation
    /// list.
    pub fn aggregate_shards(generations: &[GenerationMeta], num_shards: usize) -> Vec<ShardStats> {
        let mut agg = vec![ShardStats::default(); num_shards];
        for generation in generations {
            for (shard, stats) in generation.shards.iter().enumerate() {
                if shard < agg.len() {
                    agg[shard].merge(stats);
                }
            }
        }
        agg
    }
}

/// Encodes the manifest header frame payload (everything but the
/// vocabulary and the generation list, which get their own frames).
pub(crate) fn encode_manifest_header(m: &Manifest, buf: &mut Vec<u8>) {
    buf.extend_from_slice(MANIFEST_MAGIC);
    varint::encode_u32(FORMAT_VERSION, buf);
    match m.partitioning {
        Partitioning::Hash { shards } => {
            buf.push(0);
            varint::encode_u32(shards, buf);
        }
        Partitioning::Range {
            shards,
            sequences_per_shard,
        } => {
            buf.push(1);
            varint::encode_u32(shards, buf);
            varint::encode_u64(sequences_per_shard, buf);
        }
    }
    varint::encode_u64(m.num_sequences, buf);
    varint::encode_u64(m.total_items, buf);
    buf.push(m.sketches as u8);
    varint::encode_u32(m.next_gen_id, buf);
    varint::encode_u32(m.generations.len() as u32, buf);
}

/// The manifest header fields; the vocabulary, the generation list and the
/// rank order follow in frames of their own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ManifestHeader {
    pub(crate) partitioning: Partitioning,
    pub(crate) num_sequences: u64,
    pub(crate) total_items: u64,
    pub(crate) sketches: bool,
    pub(crate) next_gen_id: u32,
    /// The generation count, cross-checked against the generations frame.
    pub(crate) num_generations: u32,
}

/// Decodes the manifest header frame payload.
pub(crate) fn decode_manifest_header(bytes: &[u8]) -> Result<ManifestHeader> {
    if bytes.len() < MANIFEST_MAGIC.len() || &bytes[..MANIFEST_MAGIC.len()] != MANIFEST_MAGIC {
        return Err(StoreError::Corrupt("manifest magic mismatch".into()));
    }
    let mut r = VarintReader::new(&bytes[MANIFEST_MAGIC.len()..]);
    let version = r.read_u32()?;
    // Versions are rejected before any version-dependent field is read: a
    // retired or future manifest must surface as UnsupportedVersion, never
    // be misparsed into a plausible Manifest.
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion { found: version });
    }
    let tag = r.read_u32()?;
    let partitioning = match tag {
        0 => Partitioning::Hash {
            shards: r.read_u32()?,
        },
        1 => Partitioning::Range {
            shards: r.read_u32()?,
            sequences_per_shard: r.read_u64()?,
        },
        other => {
            return Err(StoreError::Corrupt(format!(
                "unknown partitioning tag {other}"
            )))
        }
    };
    partitioning.validate().map_err(|_| {
        StoreError::Corrupt("manifest carries invalid partitioning parameters".into())
    })?;
    let num_sequences = r.read_u64()?;
    let total_items = r.read_u64()?;
    let sketches = match r.read_u32()? {
        0 => false,
        1 => true,
        other => {
            return Err(StoreError::Corrupt(format!(
                "invalid sketches flag {other}"
            )))
        }
    };
    Ok(ManifestHeader {
        partitioning,
        num_sequences,
        total_items,
        sketches,
        next_gen_id: r.read_u32()?,
        num_generations: r.read_u32()?,
    })
}

/// Encodes the interned vocabulary + hierarchy frame payload (the shared
/// [`Vocabulary::encode_bytes`] layout, also embedded by `lash-index`).
pub(crate) fn encode_vocabulary(vocab: &Vocabulary, buf: &mut Vec<u8>) {
    vocab.encode_bytes(buf);
}

/// Decodes a vocabulary frame payload, preserving item ids (intern order).
pub(crate) fn decode_vocabulary(bytes: &[u8]) -> Result<Vocabulary> {
    Vocabulary::decode_bytes(bytes)
        .map_err(|e| StoreError::Corrupt(format!("invalid vocabulary: {e}")))
}

/// Encodes the per-shard statistics of one generation into `buf`.
fn encode_shard_stats(shards: &[ShardStats], buf: &mut Vec<u8>) {
    varint::encode_u32(shards.len() as u32, buf);
    for s in shards {
        varint::encode_u64(s.sequences, buf);
        varint::encode_u64(s.blocks, buf);
        varint::encode_u64(s.payload_bytes, buf);
        varint::encode_u64(s.min_seq, buf);
        varint::encode_u64(s.max_seq, buf);
    }
}

/// Decodes one generation's per-shard statistics from `r`.
fn decode_shard_stats(r: &mut VarintReader<'_>) -> Result<Vec<ShardStats>> {
    let n = r.read_u32()?;
    let mut shards = Vec::with_capacity(n as usize);
    for _ in 0..n {
        shards.push(ShardStats {
            sequences: r.read_u64()?,
            blocks: r.read_u64()?,
            payload_bytes: r.read_u64()?,
            min_seq: r.read_u64()?,
            max_seq: r.read_u64()?,
        });
    }
    Ok(shards)
}

/// Encodes the generations frame payload: every sealed generation's id and
/// statistics, in sequence-id order.
pub(crate) fn encode_generations(generations: &[GenerationMeta], buf: &mut Vec<u8>) {
    varint::encode_u32(generations.len() as u32, buf);
    for generation in generations {
        varint::encode_u32(generation.id, buf);
        varint::encode_u64(generation.num_sequences, buf);
        varint::encode_u64(generation.total_items, buf);
        encode_shard_stats(&generation.shards, buf);
    }
}

/// Decodes the generations frame payload.
pub(crate) fn decode_generations(bytes: &[u8]) -> Result<Vec<GenerationMeta>> {
    let mut r = VarintReader::new(bytes);
    let n = r.read_u32()?;
    let mut generations = Vec::with_capacity(n as usize);
    for _ in 0..n {
        generations.push(GenerationMeta {
            id: r.read_u32()?,
            num_sequences: r.read_u64()?,
            total_items: r.read_u64()?,
            shards: decode_shard_stats(&mut r)?,
        });
    }
    if !r.is_empty() {
        return Err(StoreError::Corrupt("trailing generation bytes".into()));
    }
    Ok(generations)
}

/// Encodes a segment file's header frame payload (always
/// [`FORMAT_VERSION`]).
pub(crate) fn encode_segment_header(shard: u32, buf: &mut Vec<u8>) {
    buf.extend_from_slice(SEGMENT_MAGIC);
    varint::encode_u32(FORMAT_VERSION, buf);
    varint::encode_u32(shard, buf);
}

/// Decodes and validates a segment file's header frame payload.
pub(crate) fn decode_segment_header(bytes: &[u8], expected_shard: u32) -> Result<()> {
    if bytes.len() < SEGMENT_MAGIC.len() || &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        return Err(StoreError::Corrupt("segment magic mismatch".into()));
    }
    let mut r = VarintReader::new(&bytes[SEGMENT_MAGIC.len()..]);
    let version = r.read_u32()?;
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion { found: version });
    }
    let shard = r.read_u32()?;
    if shard != expected_shard {
        return Err(StoreError::Corrupt(format!(
            "segment header names shard {shard}, expected {expected_shard}"
        )));
    }
    Ok(())
}

/// Decoded block header: the scan/skip/prune metadata of one block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockHeader {
    /// Number of sequences in the block.
    pub records: u32,
    /// Smallest (first) sequence id in the block.
    pub first_seq: u64,
    /// Largest (last) sequence id in the block.
    pub last_seq: u64,
    /// Total items across the block's sequences.
    pub items: u64,
    /// Smallest item id occurring in the block, if any item does.
    pub min_item: Option<u32>,
    /// Largest item id occurring in the block, if any item does.
    pub max_item: Option<u32>,
    /// G1 item-frequency sketch: `(item, sequences-in-block whose G1 closure
    /// contains item)`, ascending by item. Empty when sketches are disabled.
    pub sketch: Vec<(u32, u32)>,
}

/// Encodes a block header frame payload: the payload-codec tag, then the
/// header fields. The sketch map is consumed in ascending item order
/// (`BTreeMap` iteration) and delta-compressed.
pub(crate) fn encode_block_header(h: &BlockHeader, sketch: &BTreeMap<u32, u32>, buf: &mut Vec<u8>) {
    varint::encode_u32(BLOCK_CODEC_TAG, buf);
    varint::encode_u32(h.records, buf);
    varint::encode_u64(h.first_seq, buf);
    varint::encode_u64(h.last_seq, buf);
    varint::encode_u64(h.items, buf);
    varint::encode_u32(h.min_item.map_or(0, |v| v + 1), buf);
    varint::encode_u32(h.max_item.map_or(0, |v| v + 1), buf);
    varint::encode_u32(sketch.len() as u32, buf);
    let mut prev = 0u32;
    for (&item, &count) in sketch {
        varint::encode_u32(item - prev, buf);
        varint::encode_u32(count, buf);
        prev = item;
    }
}

/// Decodes a block header frame payload.
pub(crate) fn decode_block_header(bytes: &[u8]) -> Result<BlockHeader> {
    let mut r = VarintReader::new(bytes);
    let tag = r.read_u32()?;
    if tag != BLOCK_CODEC_TAG {
        return Err(StoreError::Corrupt(format!(
            "unknown block payload codec tag {tag}"
        )));
    }
    let records = r.read_u32()?;
    let first_seq = r.read_u64()?;
    let last_seq = r.read_u64()?;
    let items = r.read_u64()?;
    let min_item = r.read_u32()?.checked_sub(1);
    let max_item = r.read_u32()?.checked_sub(1);
    if records == 0 || last_seq < first_seq {
        return Err(StoreError::Corrupt(
            "block header invariants violated".into(),
        ));
    }
    let sketch_len = r.read_u32()?;
    let mut sketch = Vec::with_capacity(sketch_len as usize);
    let mut prev = 0u32;
    for i in 0..sketch_len {
        let delta = r.read_u32()?;
        if i > 0 && delta == 0 {
            return Err(StoreError::Corrupt(
                "sketch items not strictly ascending".into(),
            ));
        }
        let item = prev
            .checked_add(delta)
            .ok_or_else(|| StoreError::Corrupt("sketch item id overflows".into()))?;
        let count = r.read_u32()?;
        sketch.push((item, count));
        prev = item;
    }
    if !r.is_empty() {
        return Err(StoreError::Corrupt("trailing block-header bytes".into()));
    }
    Ok(BlockHeader {
        records,
        first_seq,
        last_seq,
        items,
        min_item,
        max_item,
        sketch,
    })
}

/// Encodes a columnar group-varint block payload: every record's
/// sequence-id delta (varint `u64`, first delta relative to the header's
/// `first_seq`), then the per-record item counts as one group-varint
/// stream, then every record's items — **raw** ranks, not deltas, since
/// frequency ranks are small already — as one contiguous group-varint
/// stream the wide decode kernel can rip through.
pub(crate) fn encode_gv_payload(id_deltas: &[u64], lens: &[u32], items: &[u32], buf: &mut Vec<u8>) {
    for &delta in id_deltas {
        varint::encode_u64(delta, buf);
    }
    group_varint::encode(lens, buf);
    group_varint::encode(items, buf);
}

/// Decodes a columnar group-varint block payload into the caller's
/// reusable columns; `records` and `items` come from the block header.
/// Returns the number of payload bytes consumed (the caller cross-checks it
/// against the payload length).
pub(crate) fn decode_gv_payload(
    payload: &[u8],
    records: usize,
    items: usize,
    id_deltas: &mut Vec<u64>,
    lens: &mut Vec<u32>,
    flat: &mut Vec<u32>,
) -> Result<usize> {
    id_deltas.clear();
    id_deltas.reserve(records);
    let mut pos = 0usize;
    for _ in 0..records {
        let (delta, n) = varint::decode_u64(&payload[pos..])?;
        pos += n;
        id_deltas.push(delta);
    }
    lens.resize(records, 0);
    pos += group_varint::decode(&payload[pos..], lens)?;
    flat.resize(items, 0);
    pos += group_varint::decode(&payload[pos..], flat)?;
    Ok(pos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lash_core::vocabulary::VocabularyBuilder;

    #[test]
    fn hash_partitioning_spreads_and_is_deterministic() {
        let p = Partitioning::hash(7);
        let mut seen = vec![0u64; 7];
        for id in 0..10_000u64 {
            let s = p.shard_of(id);
            assert_eq!(s, p.shard_of(id));
            seen[s as usize] += 1;
        }
        // Roughly uniform: no shard under half or over double the mean.
        for &n in &seen {
            assert!(n > 700 && n < 2900, "skewed shard: {seen:?}");
        }
    }

    #[test]
    fn range_partitioning_is_contiguous_with_overflow_in_last() {
        let p = Partitioning::range(3, 10);
        assert_eq!(p.shard_of(0), 0);
        assert_eq!(p.shard_of(9), 0);
        assert_eq!(p.shard_of(10), 1);
        assert_eq!(p.shard_of(29), 2);
        assert_eq!(p.shard_of(1_000_000), 2);
    }

    fn empty_manifest(partitioning: Partitioning) -> Manifest {
        Manifest {
            partitioning,
            num_sequences: 0,
            total_items: 0,
            sketches: false,
            next_gen_id: 1,
            generations: Vec::new(),
            shards: Vec::new(),
            rank_order: std::sync::Arc::new(RankOrder::identity(0)),
        }
    }

    #[test]
    fn manifest_header_round_trips() {
        for partitioning in [Partitioning::hash(5), Partitioning::range(2, 1000)] {
            let m = Manifest {
                num_sequences: 123_456,
                total_items: 9_876_543,
                sketches: true,
                next_gen_id: 7,
                ..empty_manifest(partitioning)
            };
            let mut buf = Vec::new();
            encode_manifest_header(&m, &mut buf);
            let expected = ManifestHeader {
                partitioning,
                num_sequences: 123_456,
                total_items: 9_876_543,
                sketches: true,
                next_gen_id: 7,
                num_generations: 0,
            };
            assert_eq!(decode_manifest_header(&buf).unwrap(), expected);
        }
    }

    #[test]
    fn manifest_rejects_bad_magic() {
        let m = empty_manifest(Partitioning::hash(1));
        let mut buf = Vec::new();
        encode_manifest_header(&m, &mut buf);
        let mut bad = buf.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            decode_manifest_header(&bad),
            Err(StoreError::Corrupt(_))
        ));
        assert!(matches!(
            decode_manifest_header(&buf[..4]),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn unknown_manifest_versions_are_unsupported_not_corrupt() {
        // A retired or future manifest: valid magic, an unreadable version,
        // then bytes this build has no idea how to parse. The decoder must
        // classify it by version alone — before touching any later field.
        for future in [1u32, 2, 3, 5, 99] {
            let mut buf = Vec::new();
            buf.extend_from_slice(MANIFEST_MAGIC);
            varint::encode_u32(future, &mut buf);
            buf.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
            match decode_manifest_header(&buf) {
                Err(StoreError::UnsupportedVersion { found }) => assert_eq!(found, future),
                other => panic!("version {future}: expected UnsupportedVersion, got {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_segment_versions_are_unsupported() {
        for version in [2u32, 3, 57] {
            let mut buf = Vec::new();
            buf.extend_from_slice(SEGMENT_MAGIC);
            varint::encode_u32(version, &mut buf);
            varint::encode_u32(0, &mut buf);
            match decode_segment_header(&buf, 0) {
                Err(StoreError::UnsupportedVersion { found }) => assert_eq!(found, version),
                other => panic!("version {version}: expected UnsupportedVersion, got {other:?}"),
            }
        }
    }

    #[test]
    fn vocabulary_round_trips_with_hierarchy_and_ids() {
        let mut vb = VocabularyBuilder::new();
        let b = vb.intern("B");
        let b1 = vb.child("b1", b);
        let b11 = vb.child("b11", b1);
        let loose = vb.intern("loose item with spaces\tand tabs");
        let vocab = vb.finish().unwrap();
        let mut buf = Vec::new();
        encode_vocabulary(&vocab, &mut buf);
        let back = decode_vocabulary(&buf).unwrap();
        assert_eq!(back.len(), vocab.len());
        for item in [b, b1, b11, loose] {
            assert_eq!(back.name(item), vocab.name(item));
            assert_eq!(back.parent(item), vocab.parent(item));
        }
        assert_eq!(back.chain(b11), vocab.chain(b11));
    }

    #[test]
    fn vocabulary_decoding_rejects_corruption() {
        let mut vb = VocabularyBuilder::new();
        vb.intern("x");
        let vocab = vb.finish().unwrap();
        let mut buf = Vec::new();
        encode_vocabulary(&vocab, &mut buf);
        assert!(decode_vocabulary(&buf[..buf.len() - 1]).is_err());
        assert!(decode_vocabulary(&[]).is_err());
    }

    #[test]
    fn generations_round_trip() {
        let generations = vec![
            GenerationMeta {
                id: 0,
                num_sequences: 10,
                total_items: 44,
                shards: vec![
                    ShardStats {
                        sequences: 10,
                        blocks: 2,
                        payload_bytes: 4_000,
                        min_seq: 0,
                        max_seq: 31,
                    },
                    ShardStats::default(),
                ],
            },
            GenerationMeta {
                id: 3,
                num_sequences: 2,
                total_items: 5,
                shards: vec![ShardStats::default(), ShardStats::default()],
            },
        ];
        let mut buf = Vec::new();
        encode_generations(&generations, &mut buf);
        assert_eq!(decode_generations(&buf).unwrap(), generations);
        assert!(decode_generations(&buf[..buf.len() - 1]).is_err());
    }

    #[test]
    fn aggregated_shards_fold_across_generations() {
        let g0 = GenerationMeta {
            id: 0,
            num_sequences: 3,
            total_items: 9,
            shards: vec![
                ShardStats {
                    sequences: 3,
                    blocks: 1,
                    payload_bytes: 100,
                    min_seq: 0,
                    max_seq: 2,
                },
                ShardStats::default(),
            ],
        };
        let g1 = GenerationMeta {
            id: 1,
            num_sequences: 2,
            total_items: 4,
            shards: vec![
                ShardStats {
                    sequences: 1,
                    blocks: 1,
                    payload_bytes: 50,
                    min_seq: 4,
                    max_seq: 4,
                },
                ShardStats {
                    sequences: 1,
                    blocks: 1,
                    payload_bytes: 60,
                    min_seq: 3,
                    max_seq: 3,
                },
            ],
        };
        let agg = Manifest::aggregate_shards(&[g0, g1], 2);
        assert_eq!(agg[0].sequences, 4);
        assert_eq!(agg[0].blocks, 2);
        assert_eq!(agg[0].payload_bytes, 150);
        assert_eq!(agg[0].min_seq, 0);
        assert_eq!(agg[0].max_seq, 4);
        assert_eq!(agg[1].sequences, 1);
        assert_eq!(agg[1].min_seq, 3);
    }

    fn header(sketch: &BTreeMap<u32, u32>) -> BlockHeader {
        BlockHeader {
            records: 5,
            first_seq: 100,
            last_seq: 131,
            items: 42,
            min_item: Some(0),
            max_item: Some(17),
            sketch: sketch.iter().map(|(&i, &c)| (i, c)).collect(),
        }
    }

    #[test]
    fn block_header_round_trips_with_sketch_in_every_version() {
        let sketch: BTreeMap<u32, u32> = [(0, 5), (3, 2), (17, 9)].into_iter().collect();
        let h = header(&sketch);
        let mut buf = Vec::new();
        encode_block_header(&h, &sketch, &mut buf);
        assert_eq!(decode_block_header(&buf).unwrap(), h);
    }

    #[test]
    fn block_headers_reject_unknown_codec_tags() {
        let mut buf = Vec::new();
        encode_block_header(&header(&BTreeMap::new()), &BTreeMap::new(), &mut buf);
        // The codec tag is the first varint of a header: tags 0 and 1 were
        // the retired v2/v3 payloads, 7 was never assigned.
        for tag in [0u8, 1, 7] {
            buf[0] = tag;
            assert!(matches!(
                decode_block_header(&buf),
                Err(StoreError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn block_header_rejects_invariant_violations() {
        let h = BlockHeader {
            records: 1,
            first_seq: 10,
            last_seq: 10,
            items: 0,
            min_item: None,
            max_item: None,
            sketch: Vec::new(),
        };
        let mut buf = Vec::new();
        encode_block_header(&h, &BTreeMap::new(), &mut buf);
        assert!(decode_block_header(&buf).is_ok());
        assert!(decode_block_header(&buf[..3]).is_err());
        assert!(decode_block_header(&[]).is_err());
        // Zero records, or a last id below the first, break the invariants.
        for bad in [
            BlockHeader {
                records: 0,
                ..h.clone()
            },
            BlockHeader {
                last_seq: 9,
                ..h.clone()
            },
        ] {
            buf.clear();
            encode_block_header(&bad, &BTreeMap::new(), &mut buf);
            assert!(matches!(
                decode_block_header(&buf),
                Err(StoreError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn gv_payload_round_trips_columns() {
        let id_deltas = [0u64, 3, 1, 1_000_000];
        let lens = [2u32, 0, 3, 1];
        let items = [7u32, 70_000, 1, 2, 3, 900];
        let mut buf = Vec::new();
        encode_gv_payload(&id_deltas, &lens, &items, &mut buf);
        let (mut d, mut l, mut f) = (Vec::new(), Vec::new(), Vec::new());
        let consumed =
            decode_gv_payload(&buf, id_deltas.len(), items.len(), &mut d, &mut l, &mut f).unwrap();
        assert_eq!(consumed, buf.len());
        assert_eq!(d, id_deltas);
        assert_eq!(l, lens);
        assert_eq!(f, items);
        // Truncation anywhere is a typed decode error.
        for cut in 0..buf.len() {
            assert!(
                decode_gv_payload(
                    &buf[..cut],
                    id_deltas.len(),
                    items.len(),
                    &mut d,
                    &mut l,
                    &mut f
                )
                .is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn codec_tags_are_stable() {
        // Every block header of format v4 opens with tag 2; the frozen v4
        // bytes depend on it.
        let mut buf = Vec::new();
        encode_block_header(&header(&BTreeMap::new()), &BTreeMap::new(), &mut buf);
        assert_eq!(buf[0], 2);
    }

    #[test]
    fn rank_order_round_trips_and_inverts() {
        let order = RankOrder::from_item_of(vec![3, 0, 4, 1, 2]).unwrap();
        assert_eq!(order.len(), 5);
        assert_eq!(order.item_of(), &[3, 0, 4, 1, 2]);
        assert_eq!(order.rank_of(), &[1, 3, 4, 0, 2]);
        let mut buf = Vec::new();
        encode_rank_order(&order, &mut buf);
        assert_eq!(decode_rank_order(&buf, 5).unwrap(), order);
        // Wrong vocabulary size, truncation, and trailing bytes all reject.
        assert!(decode_rank_order(&buf, 6).is_err());
        assert!(decode_rank_order(&buf[..buf.len() - 1], 5).is_err());
        let mut padded = buf.clone();
        padded.push(0);
        assert!(decode_rank_order(&padded, 5).is_err());
    }

    #[test]
    fn rank_order_rejects_non_permutations() {
        // A repeated item and an out-of-range item are both corruption.
        assert!(RankOrder::from_item_of(vec![0, 0, 1]).is_err());
        assert!(RankOrder::from_item_of(vec![0, 3]).is_err());
        let id = RankOrder::identity(4);
        assert_eq!(id.item_of(), &[0, 1, 2, 3]);
        assert_eq!(id.rank_of(), &[0, 1, 2, 3]);
        assert!(RankOrder::identity(0).is_empty());
    }
}

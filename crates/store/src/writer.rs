//! The corpus writer: creates a fresh corpus whose first (and only)
//! generation is sealed by [`CorpusWriter::finish`]. Further generations are
//! appended with [`crate::IncrementalWriter`]; existing generations are
//! never mutated.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use lash_core::enumeration::g1_items;
use lash_core::flist::{FList, ItemOrder};
use lash_core::sequence::SequenceDatabase;
use lash_core::vocabulary::{ItemId, Vocabulary};
use lash_encoding::frame;

use lash_encoding::group_varint;
use lash_encoding::varint;

use crate::format::{self, BlockHeader, GenerationMeta, Manifest, RankOrder, ShardStats};
use crate::generations::write_manifest;
use crate::{Result, StoreError, StoreOptions};

/// Writer of a new corpus.
///
/// Sequences are appended one at a time (each gets the next corpus-wide id)
/// and **buffered in memory**: rank-space blocks need the corpus-wide
/// descending-frequency order before any item can be encoded, so the
/// segments are written in one pass at [`CorpusWriter::finish`], which seals
/// every shard of generation 0 and writes the manifest — until then the
/// directory holds no manifest, so a crashed write is never mistaken for a
/// complete corpus. An ingest larger than memory creates a small corpus and
/// grows it through [`crate::IncrementalWriter`], which streams to disk
/// under the order sealed here.
pub struct CorpusWriter {
    dir: PathBuf,
    opts: StoreOptions,
    vocab: Vocabulary,
    db: SequenceDatabase,
}

/// One shard's open segment file plus the block being assembled.
struct ShardWriter {
    file: BufWriter<File>,
    stats: ShardStats,
    block: BlockBuilder,
    header_buf: Vec<u8>,
}

/// Accumulates one block: the payload's columns plus header metadata.
#[derive(Default)]
struct BlockBuilder {
    /// The flush-time encode target, reused across blocks.
    payload: Vec<u8>,
    /// Group-varint columns, filled per append and encoded at flush.
    id_deltas: Vec<u64>,
    lens: Vec<u32>,
    flat: Vec<u32>,
    /// Running data-byte totals of the columns, so the block-budget cut
    /// decision sees the exact size a flush would write.
    delta_bytes: usize,
    lens_data_bytes: usize,
    flat_data_bytes: usize,
    records: u32,
    first_seq: u64,
    prev_seq: u64,
    items: u64,
    min_item: Option<u32>,
    max_item: Option<u32>,
    sketch: BTreeMap<u32, u32>,
}

impl BlockBuilder {
    fn reset(&mut self) {
        self.payload.clear();
        self.id_deltas.clear();
        self.lens.clear();
        self.flat.clear();
        self.delta_bytes = 0;
        self.lens_data_bytes = 0;
        self.flat_data_bytes = 0;
        self.records = 0;
        self.items = 0;
        self.min_item = None;
        self.max_item = None;
        self.sketch.clear();
    }

    /// Exact payload size a flush would write right now.
    fn encoded_len(&self) -> usize {
        self.delta_bytes
            + gv_stream_len(self.lens.len(), self.lens_data_bytes)
            + gv_stream_len(self.flat.len(), self.flat_data_bytes)
    }
}

/// Size of a group-varint stream of `n` values whose data bytes sum to
/// `data`: one control byte per group plus one zero byte per tail-padding
/// slot (see `lash_encoding::group_varint`).
fn gv_stream_len(n: usize, data: usize) -> usize {
    if n == 0 {
        return 0;
    }
    let groups = n.div_ceil(group_varint::GROUP_SIZE);
    groups + data + (groups * group_varint::GROUP_SIZE - n)
}

/// Writes one generation's set of per-shard segment files into a directory.
///
/// This is the shared block-building engine behind [`CorpusWriter`],
/// [`crate::IncrementalWriter`], and the compaction executor: callers route
/// `(id, items)` records to shards (ids must arrive ascending *per shard* —
/// the delta encoding's invariant) and [`SegmentSetWriter::finish`] flushes
/// every open block and returns the per-shard statistics.
pub(crate) struct SegmentSetWriter {
    dir: PathBuf,
    shards: Vec<ShardWriter>,
    block_budget: usize,
    sketches: bool,
    /// The corpus item order the flat column is rank-encoded in.
    rank: Arc<RankOrder>,
    sequences: u64,
    total_items: u64,
    scratch: Vec<ItemId>,
}

impl SegmentSetWriter {
    /// Creates `num_shards` format-v4 segment files (with headers) under
    /// `dir`, creating the directory if needed. `rank` is the corpus-wide
    /// descending-frequency order the flat item column is encoded in.
    pub(crate) fn create(
        dir: &Path,
        num_shards: u32,
        block_budget: usize,
        sketches: bool,
        rank: Arc<RankOrder>,
    ) -> Result<Self> {
        fs::create_dir_all(dir)?;
        let mut shards = Vec::with_capacity(num_shards as usize);
        for shard in 0..num_shards {
            let path = dir.join(format::shard_file_name(shard));
            let mut file = BufWriter::new(File::create(path)?);
            let mut header = Vec::new();
            format::encode_segment_header(shard, &mut header);
            frame::write_frame(&header, &mut file)?;
            shards.push(ShardWriter {
                file,
                stats: ShardStats::default(),
                block: BlockBuilder::default(),
                header_buf: Vec::new(),
            });
        }
        Ok(SegmentSetWriter {
            dir: dir.to_path_buf(),
            shards,
            block_budget: block_budget.max(1),
            sketches,
            rank,
            sequences: 0,
            total_items: 0,
            scratch: Vec::new(),
        })
    }

    /// Sequences appended so far.
    pub(crate) fn sequences(&self) -> u64 {
        self.sequences
    }

    /// Items appended so far.
    pub(crate) fn total_items(&self) -> u64 {
        self.total_items
    }

    /// Appends one sequence to `shard`. The caller guarantees ascending ids
    /// per shard and in-vocabulary items.
    pub(crate) fn append(
        &mut self,
        shard: usize,
        id: u64,
        seq: &[ItemId],
        vocab: &Vocabulary,
    ) -> Result<()> {
        self.sequences += 1;
        self.total_items += seq.len() as u64;
        let params = WriteParams {
            rank_of: self.rank.rank_of(),
            sketches: self.sketches,
            block_budget: self.block_budget,
        };
        append_record(
            &mut self.shards[shard],
            params,
            &mut self.scratch,
            id,
            seq,
            vocab,
        )
    }

    /// Fans `work` out over every shard with up to `parallelism` worker
    /// threads: each invocation gets its shard index and an exclusive
    /// [`ShardAppender`] over that shard's writer, so per-shard streams
    /// (compaction merges) run concurrently while the delta encoding's
    /// per-shard ascending-id invariant is untouched. Output bytes are
    /// identical to a sequential run — shards never share a file. Appended
    /// sequence/item totals fold into the set totals after every worker
    /// joins; the first error aborts the remaining shards and is returned.
    pub(crate) fn par_shards<F>(&mut self, parallelism: usize, work: F) -> Result<()>
    where
        F: Fn(usize, &mut ShardAppender<'_>) -> Result<()> + Send + Sync,
    {
        let num_shards = self.shards.len();
        if num_shards == 0 {
            return Ok(());
        }
        let workers = parallelism.clamp(1, num_shards);
        let rank = Arc::clone(&self.rank);
        let params = WriteParams {
            rank_of: rank.rank_of(),
            sketches: self.sketches,
            block_budget: self.block_budget,
        };
        let mut buckets: Vec<Vec<(usize, &mut ShardWriter)>> =
            (0..workers).map(|_| Vec::new()).collect();
        for (i, shard) in self.shards.iter_mut().enumerate() {
            buckets[i % workers].push((i, shard));
        }
        let totals = std::sync::Mutex::new((0u64, 0u64));
        let failure: std::sync::Mutex<Option<StoreError>> = std::sync::Mutex::new(None);
        std::thread::scope(|scope| {
            for bucket in buckets {
                let (totals, failure, work) = (&totals, &failure, &work);
                scope.spawn(move || {
                    let mut scratch = Vec::new();
                    for (idx, shard) in bucket {
                        if failure.lock().expect("merge failure lock").is_some() {
                            return;
                        }
                        let mut appender = ShardAppender {
                            shard,
                            params,
                            scratch: std::mem::take(&mut scratch),
                            sequences: 0,
                            total_items: 0,
                        };
                        let result = work(idx, &mut appender);
                        let (sequences, items) = (appender.sequences, appender.total_items);
                        scratch = appender.scratch;
                        match result {
                            Ok(()) => {
                                let mut t = totals.lock().expect("merge totals lock");
                                t.0 += sequences;
                                t.1 += items;
                            }
                            Err(e) => {
                                *failure.lock().expect("merge failure lock") = Some(e);
                                return;
                            }
                        }
                    }
                });
            }
        });
        if let Some(e) = failure.into_inner().expect("merge failure lock") {
            return Err(e);
        }
        let (sequences, items) = totals.into_inner().expect("merge totals lock");
        self.sequences += sequences;
        self.total_items += items;
        Ok(())
    }

    /// Flushes and fsyncs every open block and segment file (and their
    /// directory); returns per-shard stats. The fsyncs make the segment
    /// data durable *before* any manifest references it — the first leg of
    /// the manifest-swap protocol's crash guarantee (a rename journaled
    /// ahead of the data it names would otherwise let a power loss commit
    /// a manifest pointing at empty files).
    pub(crate) fn finish(mut self) -> Result<Vec<ShardStats>> {
        for shard in &mut self.shards {
            flush_shard_block(shard)?;
            shard.file.flush()?;
            shard.file.get_ref().sync_all()?;
        }
        crate::generations::sync_dir(&self.dir)?;
        Ok(self.shards.into_iter().map(|s| s.stats).collect())
    }
}

/// The shared, immutable knobs of the block-building engine, split from
/// [`SegmentSetWriter`] so parallel per-shard appenders can carry them by
/// value while each holds a different shard's writer mutably.
#[derive(Clone, Copy)]
struct WriteParams<'a> {
    /// id → rank mapping: the flat column is stored in rank space; everything
    /// else (header min/max, sketches) stays in id space so header-only
    /// consumers are version-oblivious.
    rank_of: &'a [u32],
    sketches: bool,
    block_budget: usize,
}

/// Exclusive append access to one shard of a [`SegmentSetWriter`], handed
/// to [`SegmentSetWriter::par_shards`] workers. Appends here are exactly
/// [`SegmentSetWriter::append`] scoped to the one shard; the sequence/item
/// totals accumulate locally and fold into the set totals when the
/// parallel region ends.
pub(crate) struct ShardAppender<'a> {
    shard: &'a mut ShardWriter,
    params: WriteParams<'a>,
    scratch: Vec<ItemId>,
    sequences: u64,
    total_items: u64,
}

impl ShardAppender<'_> {
    /// Appends one sequence to this appender's shard. The caller guarantees
    /// ascending ids per shard and in-vocabulary items.
    pub(crate) fn append(&mut self, id: u64, seq: &[ItemId], vocab: &Vocabulary) -> Result<()> {
        self.sequences += 1;
        self.total_items += seq.len() as u64;
        append_record(self.shard, self.params, &mut self.scratch, id, seq, vocab)
    }
}

/// Appends one sequence into `shard`'s open block, cutting the block at
/// the budget boundary — the single append path behind both the sequential
/// [`SegmentSetWriter::append`] and the parallel [`ShardAppender`].
fn append_record(
    shard: &mut ShardWriter,
    params: WriteParams<'_>,
    scratch: &mut Vec<ItemId>,
    id: u64,
    seq: &[ItemId],
    vocab: &Vocabulary,
) -> Result<()> {
    for &item in seq {
        if item.index() >= vocab.len() {
            return Err(StoreError::UnknownItem(item.as_u32()));
        }
    }
    let block = &mut shard.block;
    if block.records == 0 {
        block.first_seq = id;
        block.prev_seq = id;
    }
    let delta = id - block.prev_seq;
    block.id_deltas.push(delta);
    block.delta_bytes += varint::encoded_len_u64(delta);
    block.lens.push(seq.len() as u32);
    block.lens_data_bytes += group_varint::bytes_for(seq.len() as u32);
    for &item in seq {
        let rank = params.rank_of[item.index()];
        block.flat.push(rank);
        block.flat_data_bytes += group_varint::bytes_for(rank);
    }
    block.prev_seq = id;
    block.records += 1;
    block.items += seq.len() as u64;
    for &item in seq {
        let v = item.as_u32();
        block.min_item = Some(block.min_item.map_or(v, |m| m.min(v)));
        block.max_item = Some(block.max_item.map_or(v, |m| m.max(v)));
    }
    if params.sketches {
        g1_items(seq, vocab, scratch);
        for item in scratch.iter() {
            *block.sketch.entry(item.as_u32()).or_insert(0) += 1;
        }
    }
    shard.stats.sequences += 1;
    shard.stats.min_seq = shard.stats.min_seq.min(id);
    shard.stats.max_seq = shard.stats.max_seq.max(id);
    if block.encoded_len() >= params.block_budget {
        flush_shard_block(shard)?;
    }
    Ok(())
}

/// Seals `shard`'s open block, writing its header and payload frames.
fn flush_shard_block(shard: &mut ShardWriter) -> Result<()> {
    let block = &mut shard.block;
    if block.records == 0 {
        return Ok(());
    }
    debug_assert!(block.payload.is_empty());
    format::encode_gv_payload(
        &block.id_deltas,
        &block.lens,
        &block.flat,
        &mut block.payload,
    );
    debug_assert_eq!(block.payload.len(), block.encoded_len());
    let header = BlockHeader {
        records: block.records,
        first_seq: block.first_seq,
        last_seq: block.prev_seq,
        items: block.items,
        min_item: block.min_item,
        max_item: block.max_item,
        sketch: Vec::new(),
    };
    shard.header_buf.clear();
    format::encode_block_header(&header, &block.sketch, &mut shard.header_buf);
    frame::write_frame_with(&shard.header_buf, &mut shard.file, format::BLOCK_CHECKSUM)?;
    frame::write_frame_with(&block.payload, &mut shard.file, format::BLOCK_CHECKSUM)?;
    shard.stats.blocks += 1;
    shard.stats.payload_bytes += block.payload.len() as u64;
    block.reset();
    Ok(())
}

impl CorpusWriter {
    /// Creates a new corpus at `dir` with the given vocabulary.
    ///
    /// The directory is created if missing; an existing manifest makes this
    /// fail with [`StoreError::AlreadyExists`] — a corpus is created once
    /// and only grows through sealed generations
    /// ([`crate::IncrementalWriter`]), never by rewriting in place.
    pub fn create(dir: impl AsRef<Path>, vocab: &Vocabulary, opts: StoreOptions) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        opts.partitioning.validate()?;
        fs::create_dir_all(&dir)?;
        if dir.join(format::MANIFEST_FILE).exists() {
            return Err(StoreError::AlreadyExists(dir));
        }
        Ok(CorpusWriter {
            dir,
            opts,
            vocab: vocab.clone(),
            db: SequenceDatabase::new(),
        })
    }

    /// The vocabulary this corpus is written against.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Number of sequences appended so far.
    pub fn len(&self) -> u64 {
        self.db.len() as u64
    }

    /// True if nothing has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.db.is_empty()
    }

    /// Appends one sequence; returns its corpus-wide id.
    pub fn append(&mut self, seq: &[ItemId]) -> Result<u64> {
        // Validate now (the segment writer would at `finish`) so errors
        // surface at the append that caused them.
        for &item in seq {
            if item.index() >= self.vocab.len() {
                return Err(StoreError::UnknownItem(item.as_u32()));
            }
        }
        let id = self.db.len() as u64;
        self.db.push(seq);
        Ok(id)
    }

    /// Appends every sequence of `db` in order.
    pub fn append_db(&mut self, db: &SequenceDatabase) -> Result<()> {
        for seq in db.iter() {
            self.append(seq)?;
        }
        Ok(())
    }

    /// Seals generation 0 and writes the manifest. The corpus is complete —
    /// and only then readable — once this returns.
    ///
    /// This is also where the write-once item order is fixed: the
    /// corpus-wide generalized f-list is computed over the buffered
    /// sequences and the descending-frequency permutation (the same sort as
    /// [`ItemOrder::build`]) is sealed into the manifest.
    pub fn finish(self) -> Result<Manifest> {
        let rank = Arc::new(compute_rank_order(&self.db, &self.vocab));
        // Generation 0 is written in place (no temp dir): without a
        // manifest the directory is not a corpus, so a crash mid-write
        // leaves nothing that could be mistaken for sealed data.
        let mut segments = SegmentSetWriter::create(
            &self.dir.join(format::generation_dir_name(0)),
            self.opts.partitioning.num_shards(),
            self.opts.block_budget,
            self.opts.sketches,
            Arc::clone(&rank),
        )?;
        for (id, seq) in self.db.iter().enumerate() {
            let id = id as u64;
            let shard = self.opts.partitioning.shard_of(id) as usize;
            segments.append(shard, id, seq, &self.vocab)?;
        }
        let num_sequences = segments.sequences();
        let total_items = segments.total_items();
        let shards = segments.finish()?;
        let generation = GenerationMeta {
            id: 0,
            num_sequences,
            total_items,
            shards,
        };
        let manifest = Manifest {
            partitioning: self.opts.partitioning,
            num_sequences,
            total_items,
            sketches: self.opts.sketches,
            next_gen_id: 1,
            shards: Manifest::aggregate_shards(
                std::slice::from_ref(&generation),
                self.opts.partitioning.num_shards() as usize,
            ),
            generations: vec![generation],
            rank_order: rank,
        };
        write_manifest(&self.dir, &manifest, &self.vocab)?;
        Ok(manifest)
    }
}

/// Builds the corpus item order: descending generalized document frequency,
/// ties broken shallower-first then by id — byte-for-byte the sort of
/// [`ItemOrder::build`], so a mine job's context order over the same corpus
/// is the identical permutation and its map phase can skip re-ranking. The
/// permutation is σ-independent (σ only moves the frequent cutoff, not the
/// order), so σ=1 here loses nothing.
fn compute_rank_order(db: &SequenceDatabase, vocab: &Vocabulary) -> RankOrder {
    let order = ItemOrder::build(&FList::compute(db, vocab), vocab, 1);
    let item_of: Vec<u32> = (0..order.len() as u32)
        .map(|r| order.item(r).as_u32())
        .collect();
    RankOrder::from_item_of(item_of).expect("ItemOrder is a permutation by construction")
}

//! # lash-store
//!
//! A partitioned, compressed **on-disk sequence corpus** for LASH, grown
//! through sealed segment **generations**. The paper mines a static corpus
//! that dwarfs main memory; a production deployment additionally sees new
//! sequences arrive continuously — this crate is the storage subsystem that
//! supports both: mine larger-than-RAM corpora without re-parsing text or
//! holding every sequence on the heap, and ingest new batches without
//! rewriting a byte of sealed data.
//!
//! ## Layout
//!
//! A corpus is a directory of immutable generations plus one manifest:
//!
//! ```text
//! corpus/
//! ├── MANIFEST.lash      # format version, partitioning, vocabulary/hierarchy,
//! │                      # ordered generation list with per-shard statistics —
//! │                      # everything needed to reopen the corpus cold
//! ├── gen-00000/         # generation 0, sealed by CorpusWriter::finish
//! │   ├── shard-00000.seg    # segment: a stream of compressed blocks
//! │   └── shard-00001.seg
//! ├── gen-00001/         # a later generation, sealed by IncrementalWriter
//! │   └── …
//! └── …
//! ```
//!
//! Sequences are routed to shards by a [`Partitioning`] (hash or range over
//! the corpus-wide sequence id). Each segment is a stream of *blocks*:
//! compressed batches of sequences wrapped in checksummed frames, each
//! preceded by a header frame carrying the block's min/max sequence id,
//! item-id range, and an optional **G1 item-frequency sketch** — per item,
//! the number of sequences in the block whose hierarchy closure contains
//! it. The sketch makes the generalized f-list
//! computable *from headers alone*, without decoding any payload;
//! per-generation sketches are additive, so they merge into one corpus-wide
//! f-list for free.
//!
//! Block payloads are **columnar group varint in rank space**: all
//! sequence-id deltas, then all record lengths, then every record's items
//! as one contiguous stream a branch-free wide kernel decodes in bulk. The
//! corpus-wide descending-frequency order is computed once when the corpus
//! is created, recorded in the manifest ([`format::RankOrder`]), and items
//! are written as their rank in it. Frequent items get small codes (tighter
//! group-varint bytes), and the mining map phase — which needs exactly this
//! rank encoding — consumes blocks without re-encoding a single item. This
//! is format version 4 ([`FORMAT_VERSION`]), the only format the crate reads
//! or writes; see [`format`] for the exact layout.
//!
//! Every read — the mining jobs' push scans, the pull [`ShardScan`], the
//! sketch f-list and compaction's merge — goes through one engine: segment
//! files are memory-mapped when the platform supports it (heap-loaded
//! otherwise), every checksum and each segment's block count against the
//! manifest are validated once at a shard's first read, and blocks then
//! decode from zero-copy windows on the calling thread.
//!
//! ## The corpus lifecycle
//!
//! 1. **Ingest** — [`CorpusWriter`] creates the corpus and seals generation
//!    0 (buffered in memory until `finish`, which fixes the rank order);
//!    each later batch streams to disk through an [`IncrementalWriter`],
//!    which continues the corpus-wide id space — so a large ingest is a
//!    small generation 0 grown by incremental batches.
//! 2. **Seal** — [`IncrementalWriter::finish`] makes the batch durable
//!    *atomically*: segment files are staged in a temp directory, renamed
//!    into place, and only then referenced by a manifest swap (temp file +
//!    rename — the single commit point). A crash at any step leaves either
//!    the old corpus or the new one, never a torn mix. See
//!    [`generations`] for the full protocol.
//! 3. **Compact** — ingest grows the generation count; the size-tiered
//!    [`compact`](crate::compact) engine stream-merges adjacent generations
//!    back into one, deleting replaced files only after the manifest swap.
//!    Scans and mining results are identical before and after — compaction
//!    moves bytes, never content. Setting [`COMPACT_EVERY_ENV`] compacts
//!    automatically after every seal.
//! 4. **Mine** — [`CorpusReader`] opens a *snapshot* (pinned to the
//!    manifest it read) and mines it; shard scans transparently chain
//!    blocks across generations, so the mining jobs are oblivious to how
//!    many ingest batches built the corpus.
//!
//! ## Reading
//!
//! [`CorpusReader`] opens a corpus cold and exposes:
//!
//! * [`CorpusReader::scan_shard`] — a [`ShardScan`] cursor over the
//!   shard's mapped segments (chained across generations), read block by
//!   block or record by record;
//! * [`CorpusReader::par_scan`] — a parallel multi-shard scan;
//! * the [`ShardedCorpus`](lash_core::ShardedCorpus) impl, which plugs the
//!   corpus straight into `lash-core`'s distributed jobs: each map task
//!   streams one shard (`Lash::mine_sharded`);
//! * [`CorpusReader::flist`] — the f-list assembled from block headers'
//!   sketches, without decoding a payload;
//! * [`CorpusReader::mine`] — the full LASH pipeline from storage.
//!
//! ```
//! use lash_core::{GsmParams, Lash, SequenceDatabase, VocabularyBuilder};
//! use lash_store::{CorpusReader, CorpusWriter, IncrementalWriter, StoreOptions};
//!
//! let dir = std::env::temp_dir().join(format!("lash-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let mut vb = VocabularyBuilder::new();
//! let dog = vb.intern("dog");
//! let poodle = vb.child("poodle", dog);
//! let walks = vb.intern("walks");
//! let vocab = vb.finish().unwrap();
//!
//! // Write a corpus…
//! let mut writer = CorpusWriter::create(&dir, &vocab, StoreOptions::default()).unwrap();
//! writer.append(&[poodle, walks]).unwrap();
//! writer.finish().unwrap();
//!
//! // …append a later batch as a second sealed generation…
//! let mut incr = IncrementalWriter::open(&dir).unwrap();
//! incr.append(&[dog, walks]).unwrap();
//! incr.finish().unwrap();
//!
//! // …and reopen it cold and mine, oblivious to the generation split.
//! let reader = CorpusReader::open(&dir).unwrap();
//! let params = GsmParams::new(2, 0, 2).unwrap();
//! let result = reader.mine(&Lash::default(), &params).unwrap();
//! assert!(result
//!     .patterns()
//!     .iter()
//!     .any(|p| p.to_names(reader.vocabulary()) == ["dog", "walks"] && p.frequency == 2));
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compact;
pub mod convert;
pub mod format;
pub mod generations;
pub(crate) mod pins;
pub mod reader;
pub mod writer;

pub use compact::{CompactionConfig, CompactionPlan, CompactionStats};
pub use format::{
    BlockHeader, GenerationMeta, Manifest, Partitioning, RankOrder, ShardStats, FORMAT_VERSION,
};
pub use generations::{IncrementalWriter, COMPACT_EVERY_ENV};
pub use reader::{BlockFilter, CorpusReader, CorpusScan, SequenceBatch, ShardScan};
pub use writer::CorpusWriter;

use std::path::PathBuf;

use lash_encoding::DecodeError;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StoreError>;

/// Errors surfaced by the store.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem error.
    Io(std::io::Error),
    /// A varint/frame decoding error.
    Decode(DecodeError),
    /// The on-disk data violates a format invariant.
    Corrupt(String),
    /// The corpus is in a format version other than 4, the only one this
    /// build reads: a future format, or a retired one (1–3). A v2 or v3
    /// corpus must be compacted to v4 by an earlier build (compaction
    /// rewrites only merged generations, so a single-generation corpus needs
    /// one appended generation first), or re-ingested.
    UnsupportedVersion {
        /// The version found on disk.
        found: u32,
    },
    /// `CorpusWriter::create` refused to overwrite an existing corpus
    /// (sealed data is immutable; new data arrives as new generations).
    AlreadyExists(PathBuf),
    /// A sequence referenced an item id outside the corpus vocabulary.
    UnknownItem(u32),
    /// Rejected configuration (e.g. zero shards).
    InvalidOptions(&'static str),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "I/O error: {e}"),
            StoreError::Decode(e) => write!(f, "decode error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt corpus: {msg}"),
            StoreError::UnsupportedVersion { found } => write!(
                f,
                "unsupported corpus format version {found} (this build reads only version \
                 {FORMAT_VERSION}); a v2/v3 corpus must be compacted to v{FORMAT_VERSION} by an \
                 earlier build or re-ingested, a newer one needs a newer lash-store"
            ),
            StoreError::AlreadyExists(p) => {
                write!(
                    f,
                    "corpus already exists at {} (append with IncrementalWriter instead)",
                    p.display()
                )
            }
            StoreError::UnknownItem(id) => write!(f, "item id {id} not in corpus vocabulary"),
            StoreError::InvalidOptions(msg) => write!(f, "invalid store options: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        // The frame layer reports checksum mismatches as InvalidData and
        // truncation as UnexpectedEof; both are corpus corruption, not
        // environment trouble like a missing file or permission error.
        match e.kind() {
            std::io::ErrorKind::InvalidData => StoreError::Corrupt(e.to_string()),
            std::io::ErrorKind::UnexpectedEof => StoreError::Corrupt(format!("truncated: {e}")),
            _ => StoreError::Io(e),
        }
    }
}

impl From<DecodeError> for StoreError {
    fn from(e: DecodeError) -> Self {
        StoreError::Decode(e)
    }
}

/// Tuning knobs of a corpus being written.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// How sequences are routed to shards.
    pub partitioning: Partitioning,
    /// Target uncompressed payload bytes per block
    /// ([`lash_encoding::frame::DEFAULT_BLOCK_BYTES`] by default). Blocks
    /// close at the first sequence boundary at or past this budget.
    pub block_budget: usize,
    /// Write per-block G1 item-frequency sketches. Costs header space and
    /// write-side hierarchy walks; buys header-only f-list computation.
    pub sketches: bool,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            partitioning: Partitioning::hash(4),
            block_budget: lash_encoding::frame::DEFAULT_BLOCK_BYTES,
            sketches: true,
        }
    }
}

impl StoreOptions {
    /// Sets the partitioning.
    pub fn with_partitioning(mut self, p: Partitioning) -> Self {
        self.partitioning = p;
        self
    }

    /// Sets the per-block payload budget (clamped to ≥ 1).
    pub fn with_block_budget(mut self, bytes: usize) -> Self {
        self.block_budget = bytes.max(1);
        self
    }

    /// Enables or disables G1 sketches.
    pub fn with_sketches(mut self, on: bool) -> Self {
        self.sketches = on;
        self
    }
}

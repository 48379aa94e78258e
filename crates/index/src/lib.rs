//! # lash-index
//!
//! An immutable, compressed **on-disk pattern index** over the output of a
//! LASH mining run, plus a concurrent query service. Mining produces the
//! frequent generalized sequences; this crate is what makes them *servable*:
//! instead of re-mining to answer "what is the support of this sequence?",
//! the mined patterns are laid out once as a block-structured prefix trie
//! and then queried at memory speed, from any number of threads, behind an
//! atomically swappable snapshot.
//!
//! ## Layout
//!
//! An index is a directory of two files, mirroring `lash-store`'s
//! manifest-plus-payload conventions (checksummed `lash-encoding` frames,
//! a versioned manifest with an `UnsupportedVersion` guard, temp-file +
//! rename sealing):
//!
//! ```text
//! index/
//! ├── INDEX.lash     # manifest: format version, pattern/node counts,
//! │                  # root offset, vocabulary + hierarchy
//! └── trie.lash      # the trie: blocks of serialized nodes wrapped in
//!                    # checksummed frames
//! ```
//!
//! The trie is written **bottom-up** from the pattern stream in ascending
//! lexicographic item-id order (see
//! [`lash_core::pattern::sort_patterns_lexicographic`]; [`write_patterns`]
//! streams a mining result's flat pattern arena in that order through one
//! sort of a permutation, without copying a pattern), so every node is
//! serialized after its children and stores absolute arena offsets to them.
//! A node holds its own frequency (if the path to it is a mined pattern),
//! the **maximum frequency over its whole subtree** (the top-k pruning
//! bound), and its sorted children — ids delta-encoded with the
//! [`lash_encoding::group_varint`] codec, offsets as ascending varint
//! deltas. Nodes are packed into blocks of
//! [`lash_encoding::frame::DEFAULT_BLOCK_BYTES`] and each block is wrapped
//! in a checksummed frame, so truncation and bit flips surface as typed
//! [`IndexError`]s — never panics.
//!
//! ## Queries
//!
//! [`PatternIndexReader`] answers:
//!
//! * **exact support** — [`PatternIndexReader::support`];
//! * **prefix / extension enumeration** — [`PatternIndexReader::enumerate`];
//! * **top-k by frequency** — [`PatternIndexReader::top_k`], a best-first
//!   search over the per-node max-descendant-frequency bounds, so whole
//!   subtrees that cannot reach the current k-th frequency are pruned;
//! * **hierarchy-aware lookup** — [`PatternIndexReader::lookup_generalized`]:
//!   every query item expands to its ancestor chain via the vocabulary
//!   hierarchy ([`lash_core::Vocabulary::try_chain`]), so a query phrased
//!   in leaf items ("Canon EOS 70D") finds the generalized patterns LASH
//!   actually mined ("camera").
//!
//! [`QueryService`] wraps a reader in an [`std::sync::Arc`] snapshot that
//! any number of threads query concurrently and that
//! [`QueryService::swap`] replaces atomically after a re-mine — in-flight
//! queries keep their old snapshot, new queries see the new index; the
//! same snapshot semantics as `lash-store`'s sealed generations. The
//! [`Query`]/[`QueryReply`] request/response structs make a future network
//! frontend a thin shim over [`QueryService::execute`].
//!
//! ```
//! use lash_core::prelude::*;
//! use lash_index::{PatternIndexReader, PatternIndexWriter, QueryService};
//!
//! let dir = std::env::temp_dir().join(format!("lash-index-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let mut vb = VocabularyBuilder::new();
//! let dog = vb.intern("dog");
//! let poodle = vb.child("poodle", dog);
//! let walks = vb.intern("walks");
//! let vocab = vb.finish().unwrap();
//!
//! let mut db = SequenceDatabase::new();
//! db.push(&[poodle, walks]);
//! db.push(&[dog, walks]);
//!
//! let params = GsmParams::new(2, 0, 2).unwrap();
//! let result = Lash::default().mine(&db, &vocab, &params).unwrap();
//!
//! // Lay the mined patterns out as an on-disk index and serve them.
//! lash_index::write_patterns(&dir, &vocab, result.arena()).unwrap();
//! let service = QueryService::new(PatternIndexReader::open(&dir).unwrap());
//! let snapshot = service.snapshot();
//! assert_eq!(snapshot.support(&[dog, walks]).unwrap(), Some(2));
//! // A query phrased in the leaf item finds the generalized pattern.
//! let hits = snapshot.lookup_generalized(&[poodle, walks]).unwrap();
//! assert_eq!(hits, vec![(vec![dog, walks], 2)]);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod format;
pub mod reader;
pub mod service;
pub mod writer;

pub use format::{INDEX_FORMAT_VERSION, MIN_INDEX_FORMAT_VERSION};
pub use reader::PatternIndexReader;
pub use service::{PatternHit, Query, QueryError, QueryReply, QueryService};
pub use writer::{write_patterns, IndexSummary, PatternIndexWriter};

use std::path::PathBuf;

use lash_encoding::DecodeError;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, IndexError>;

/// Errors surfaced by the pattern index.
#[derive(Debug)]
pub enum IndexError {
    /// An underlying filesystem error.
    Io(std::io::Error),
    /// A varint/frame/group-varint decoding error.
    Decode(DecodeError),
    /// The on-disk data violates a format invariant (including checksum
    /// failures and truncation, which the frame layer reports as I/O
    /// errors of the corresponding kinds).
    Corrupt(String),
    /// The index was written by a format version this build does not read —
    /// typically a newer build. Guarded from day one so future bumps
    /// surface here instead of being misparsed.
    UnsupportedVersion {
        /// The version found on disk.
        found: u32,
    },
    /// `PatternIndexWriter::create` refused to overwrite an existing index
    /// (indexes are immutable; re-mining builds a new one and swaps it in).
    AlreadyExists(PathBuf),
    /// A pattern or query referenced an item id outside the index
    /// vocabulary.
    UnknownItem(u32),
    /// The pattern stream fed to the writer was not strictly ascending in
    /// lexicographic order (duplicates included) — the trie is laid out in
    /// one pass and cannot reorder.
    UnsortedInput {
        /// Zero-based position of the offending pattern in the stream.
        position: u64,
    },
    /// An empty pattern was fed to the writer (the root is not a pattern).
    EmptyPattern,
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::Io(e) => write!(f, "I/O error: {e}"),
            IndexError::Decode(e) => write!(f, "decode error: {e}"),
            IndexError::Corrupt(msg) => write!(f, "corrupt index: {msg}"),
            IndexError::UnsupportedVersion { found } => write!(
                f,
                "unsupported index format version {found} (this build reads versions \
                 {MIN_INDEX_FORMAT_VERSION}..={INDEX_FORMAT_VERSION}); rebuild the index or \
                 upgrade lash-index"
            ),
            IndexError::AlreadyExists(p) => write!(
                f,
                "index already exists at {} (indexes are immutable; build a new one and swap)",
                p.display()
            ),
            IndexError::UnknownItem(id) => write!(f, "item id {id} not in index vocabulary"),
            IndexError::UnsortedInput { position } => write!(
                f,
                "pattern stream not strictly lexicographically ascending at position {position}"
            ),
            IndexError::EmptyPattern => write!(f, "empty patterns cannot be indexed"),
        }
    }
}

impl std::error::Error for IndexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IndexError::Io(e) => Some(e),
            IndexError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for IndexError {
    fn from(e: std::io::Error) -> Self {
        // The frame layer reports checksum mismatches as InvalidData and
        // truncation as UnexpectedEof; both are index corruption, not
        // environment trouble like a missing file or permission error.
        match e.kind() {
            std::io::ErrorKind::InvalidData => IndexError::Corrupt(e.to_string()),
            std::io::ErrorKind::UnexpectedEof => IndexError::Corrupt(format!("truncated: {e}")),
            _ => IndexError::Io(e),
        }
    }
}

impl From<DecodeError> for IndexError {
    fn from(e: DecodeError) -> Self {
        IndexError::Decode(e)
    }
}

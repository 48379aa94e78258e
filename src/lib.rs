//! # lash
//!
//! A Rust implementation of **LASH** — *Large-Scale Sequence Mining with
//! Hierarchies* (Beedkar & Gemulla, SIGMOD 2015): generalized sequence
//! mining over item hierarchies, with item-based partitioning, w-equivalent
//! partition rewrites, and the pivot sequence miner (PSM), executed on an
//! in-process MapReduce engine.
//!
//! This crate is the facade over the workspace:
//!
//! * `lash-core` (re-exported at the root) — the mining library;
//! * [`mapreduce`] — the MapReduce substrate: an external-sort engine whose
//!   map tasks spill sorted runs to disk past a configurable threshold and
//!   whose reduce tasks k-way merge them, streaming value groups — so low-σ
//!   jobs keep running when the shuffle outgrows RAM;
//! * [`encoding`] — the wire-format codecs;
//! * [`datagen`] — deterministic synthetic corpora mirroring the paper's
//!   NYT and AMZN workloads;
//! * [`store`] — the partitioned, compressed on-disk sequence corpus built
//!   from sealed segment generations (create with [`store::CorpusWriter`],
//!   append batches with [`store::IncrementalWriter`], compact with
//!   [`store::compact`], reopen cold with [`store::CorpusReader`], mine
//!   straight from storage);
//! * [`index`] — the immutable on-disk pattern index over mined output:
//!   build with [`index::PatternIndexWriter`], open with
//!   [`index::PatternIndexReader`], and serve exact-support / prefix /
//!   top-k / hierarchy-aware queries concurrently through
//!   [`index::QueryService`] with atomic snapshot swaps after a re-mine;
//! * [`serve`] — the long-lived query daemon: a framed TCP protocol with
//!   typed error replies ([`serve::proto`]), a batching worker pool
//!   ([`serve::Server`]), a blocking client ([`serve::Client`]), and the
//!   ingest → compact → mine → index → swap refresh loop
//!   ([`serve::Lifecycle`]) that runs safely beside serving thanks to the
//!   store's generation pinning and rate-limited compaction.
//!
//! Errors from every layer unify into [`Error`] (each `From`-convertible),
//! with a stable [`Error::kind`] for callers that match on category rather
//! than display text.
//!
//! ## Quick start
//!
//! ```
//! use lash::prelude::*;
//!
//! // "Canon EOS 70D" → "camera" → "electronics".
//! let mut vb = VocabularyBuilder::new();
//! let electronics = vb.intern("electronics");
//! let camera = vb.child("camera", electronics);
//! let eos = vb.child("Canon EOS 70D", camera);
//! let coolpix = vb.child("Nikon Coolpix", camera);
//! let book = vb.child("photography book", electronics);
//! let vocab = vb.finish().unwrap();
//!
//! let mut db = SequenceDatabase::new();
//! db.push(&[eos, book]);
//! db.push(&[coolpix, book]);
//!
//! let params = GsmParams::new(2, 0, 2).unwrap();
//! let result = Lash::new(LashConfig::default()).mine(&db, &vocab, &params).unwrap();
//!
//! // "some camera, then a photography book" is frequent even though no
//! // concrete camera model repeats.
//! assert!(result
//!     .patterns()
//!     .iter()
//!     .any(|p| p.to_names(&vocab) == ["camera", "photography book"] && p.frequency == 2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use lash_core::*;

/// The MapReduce substrate (re-export of `lash-mapreduce`).
pub mod mapreduce {
    pub use lash_mapreduce::*;
}

/// Wire-format codecs (re-export of `lash-encoding`).
pub mod encoding {
    pub use lash_encoding::*;
}

/// Synthetic datasets (re-export of `lash-datagen`).
pub mod datagen {
    pub use lash_datagen::*;
}

/// The partitioned on-disk sequence corpus (re-export of `lash-store`).
pub mod store {
    pub use lash_store::*;
}

/// The on-disk pattern index and query service (re-export of `lash-index`).
pub mod index {
    pub use lash_index::*;
}

/// Metrics and structured tracing (re-export of `lash-obs`): the global
/// [`obs::MetricsRegistry`] every layer reports
/// into, readable via `lash::obs::global().render_text()`.
pub mod obs {
    pub use lash_obs::*;
}

/// The long-lived query daemon (re-export of `lash-serve`).
pub mod serve {
    pub use lash_serve::*;
}

/// The stable, coarse category of a facade [`Error`] — what a caller can
/// reasonably branch on without matching every layer's full error surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorKind {
    /// An operating-system I/O failure (file, socket).
    Io,
    /// On-disk or on-wire data failed validation: checksums, truncation,
    /// format invariants, undecodable envelopes.
    Corrupt,
    /// Data written by a format or protocol version this build does not
    /// read.
    UnsupportedVersion,
    /// The request itself was invalid: unknown items, bad parameters,
    /// malformed queries, rejected configuration.
    InvalidInput,
    /// The mining/MapReduce engine failed (retries exhausted, shuffle or
    /// spill failures).
    Engine,
    /// Anything that fits no other category.
    Other,
}

/// The unified facade error: every layer's error converts [`From`] its own
/// type, so application code — the examples, the bench driver, anything
/// embedding several layers — can use one `Result<_, lash::Error>` and `?`
/// across store, index, engine, serve, and core calls alike.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// A `lash-core` mining/hierarchy error.
    Core(lash_core::error::Error),
    /// A `lash-store` corpus error.
    Store(lash_store::StoreError),
    /// A `lash-index` pattern-index error.
    Index(lash_index::IndexError),
    /// A `lash-mapreduce` engine error.
    Engine(lash_mapreduce::EngineError),
    /// A `lash-serve` daemon error.
    Serve(lash_serve::ServeError),
    /// A typed query failure from the daemon protocol.
    Query(lash_index::QueryError),
    /// A bare I/O error from application code.
    Io(std::io::Error),
}

impl Error {
    /// The error's stable category. Unlike the [`std::fmt::Display`] text,
    /// which may be reworded, kinds only ever grow.
    pub fn kind(&self) -> ErrorKind {
        match self {
            Error::Core(e) => core_kind(e),
            Error::Store(e) => store_kind(e),
            Error::Index(e) => index_kind(e),
            Error::Engine(_) => ErrorKind::Engine,
            Error::Serve(e) => match e {
                lash_serve::ServeError::Io(_) => ErrorKind::Io,
                lash_serve::ServeError::InvalidConfig(_) => ErrorKind::InvalidInput,
                lash_serve::ServeError::Store(s) => store_kind(s),
                lash_serve::ServeError::Index(i) => index_kind(i),
                lash_serve::ServeError::Mine(m) => core_kind(m),
            },
            Error::Query(e) => match e {
                lash_index::QueryError::UnknownItem(_) | lash_index::QueryError::Malformed(_) => {
                    ErrorKind::InvalidInput
                }
                lash_index::QueryError::UnsupportedVersion { .. } => ErrorKind::UnsupportedVersion,
                lash_index::QueryError::Internal(_) => ErrorKind::Other,
            },
            Error::Io(_) => ErrorKind::Io,
        }
    }
}

fn core_kind(e: &lash_core::error::Error) -> ErrorKind {
    match e {
        lash_core::error::Error::Decode(_) => ErrorKind::Corrupt,
        lash_core::error::Error::Engine(_) => ErrorKind::Engine,
        _ => ErrorKind::InvalidInput,
    }
}

fn store_kind(e: &lash_store::StoreError) -> ErrorKind {
    match e {
        lash_store::StoreError::Io(_) => ErrorKind::Io,
        lash_store::StoreError::Corrupt(_) | lash_store::StoreError::Decode(_) => {
            ErrorKind::Corrupt
        }
        lash_store::StoreError::UnsupportedVersion { .. } => ErrorKind::UnsupportedVersion,
        _ => ErrorKind::InvalidInput,
    }
}

fn index_kind(e: &lash_index::IndexError) -> ErrorKind {
    match e {
        lash_index::IndexError::Io(_) => ErrorKind::Io,
        lash_index::IndexError::Corrupt(_) | lash_index::IndexError::Decode(_) => {
            ErrorKind::Corrupt
        }
        lash_index::IndexError::UnsupportedVersion { .. } => ErrorKind::UnsupportedVersion,
        _ => ErrorKind::InvalidInput,
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Core(e) => write!(f, "{e}"),
            Error::Store(e) => write!(f, "{e}"),
            Error::Index(e) => write!(f, "{e}"),
            Error::Engine(e) => write!(f, "{e}"),
            Error::Serve(e) => write!(f, "{e}"),
            Error::Query(e) => write!(f, "{e}"),
            Error::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Core(e) => Some(e),
            Error::Store(e) => Some(e),
            Error::Index(e) => Some(e),
            Error::Engine(e) => Some(e),
            Error::Serve(e) => Some(e),
            Error::Query(e) => Some(e),
            Error::Io(e) => Some(e),
        }
    }
}

impl From<lash_core::error::Error> for Error {
    fn from(e: lash_core::error::Error) -> Self {
        Error::Core(e)
    }
}

impl From<lash_store::StoreError> for Error {
    fn from(e: lash_store::StoreError) -> Self {
        Error::Store(e)
    }
}

impl From<lash_index::IndexError> for Error {
    fn from(e: lash_index::IndexError) -> Self {
        Error::Index(e)
    }
}

impl From<lash_mapreduce::EngineError> for Error {
    fn from(e: lash_mapreduce::EngineError) -> Self {
        Error::Engine(e)
    }
}

impl From<lash_serve::ServeError> for Error {
    fn from(e: lash_serve::ServeError) -> Self {
        Error::Serve(e)
    }
}

impl From<lash_index::QueryError> for Error {
    fn from(e: lash_index::QueryError) -> Self {
        Error::Query(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

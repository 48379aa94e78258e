//! `lash-serve`: a long-lived query daemon over the pattern index.
//!
//! The pieces below turn the in-process [`lash_index::QueryService`] into a
//! network service without changing its semantics:
//!
//! - [`proto`] — a versioned, length-prefixed, checksummed wire protocol
//!   (the same frame layout the store's segment files use), with typed
//!   [`lash_index::QueryError`] replies instead of dropped connections.
//! - [`server`] — a small thread-per-core accept/worker pool that batches
//!   queued requests and answers each batch against **one** index snapshot,
//!   amortizing snapshot acquisition across the batch.
//! - [`client`] — a minimal blocking client speaking the same protocol,
//!   used by the examples, the saturation bench, and the tests.
//! - [`daemon`] — the refresh lifecycle: ingest → seal → compact (pinned
//!   readers keep their snapshots; see `lash-store`'s generation pinning) →
//!   mine → index → [`lash_index::QueryService::swap`], continuously,
//!   while the server answers queries.
//! - [`ops`] — the daemon's live health state ([`HealthState`]): the
//!   lifecycle publishes its phase, snapshot age, and throttle state; the
//!   server's *admin lane* ([`proto::AdminRequest`], answered on reader
//!   threads, never queued behind query batches) reads it to serve
//!   `Health`, alongside `Metrics`, `SlowOps`, `RecentEvents`, and
//!   `Profile`.
//!
//! Configuration follows the workspace's builder convention
//! ([`ServeConfig`], cf. `StoreOptions` / `EngineConfig`): plain `pub`
//! fields plus chainable `with_*` setters that clamp into valid ranges.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod daemon;
pub mod ops;
pub mod proto;
pub mod server;

pub use client::Client;
pub use daemon::Lifecycle;
pub use ops::{HealthState, Phase};
pub use proto::{
    AdminCall, AdminReply, AdminRequest, Inbound, ReplyBody, Request, Response, ENVELOPE_VERSION,
    MAGIC, PROTOCOL_VERSION,
};
pub use server::Server;

/// Everything the daemon layer can fail with.
#[derive(Debug)]
pub enum ServeError {
    /// A socket or filesystem error.
    Io(std::io::Error),
    /// A configuration value rejected at startup.
    InvalidConfig(&'static str),
    /// The store layer failed during a lifecycle round.
    Store(lash_store::StoreError),
    /// The index layer failed during a lifecycle round.
    Index(lash_index::IndexError),
    /// Mining failed during a lifecycle round.
    Mine(lash_core::error::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve i/o error: {e}"),
            ServeError::InvalidConfig(msg) => write!(f, "invalid serve configuration: {msg}"),
            ServeError::Store(e) => write!(f, "serve store error: {e}"),
            ServeError::Index(e) => write!(f, "serve index error: {e}"),
            ServeError::Mine(e) => write!(f, "serve mining error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::InvalidConfig(_) => None,
            ServeError::Store(e) => Some(e),
            ServeError::Index(e) => Some(e),
            ServeError::Mine(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<lash_store::StoreError> for ServeError {
    fn from(e: lash_store::StoreError) -> Self {
        ServeError::Store(e)
    }
}

impl From<lash_index::IndexError> for ServeError {
    fn from(e: lash_index::IndexError) -> Self {
        ServeError::Index(e)
    }
}

impl From<lash_core::error::Error> for ServeError {
    fn from(e: lash_core::error::Error) -> Self {
        ServeError::Mine(e)
    }
}

/// Result alias for the serve layer.
pub type Result<T> = std::result::Result<T, ServeError>;

/// Daemon configuration: where to listen, how wide the worker pool is, how
/// large a batch may grow, and how hard background compaction may hit the
/// disk while serving.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The address the listener binds (`"127.0.0.1:0"` picks a free port;
    /// [`Server::local_addr`](crate::server::Server::local_addr) reports
    /// the choice).
    pub addr: String,
    /// Worker threads answering query batches; `0` (the default) uses one
    /// per available core, capped at 8.
    pub worker_threads: usize,
    /// Upper bound on requests answered per batch (clamped to ≥ 1).
    pub batch_max: usize,
    /// Byte-rate budget handed to background compaction
    /// ([`lash_store::compact::CompactionConfig::merge_bytes_per_sec`]) so
    /// a merge round cannot starve serving threads. `None` compacts
    /// unthrottled.
    pub compaction_bytes_per_sec: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            worker_threads: 0,
            batch_max: 64,
            compaction_bytes_per_sec: Some(64 * 1024 * 1024),
        }
    }
}

impl ServeConfig {
    /// Sets the bind address.
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets the worker-thread count (`0` = one per available core, ≤ 8).
    pub fn with_worker_threads(mut self, n: usize) -> Self {
        self.worker_threads = n;
        self
    }

    /// Sets the per-batch request cap (clamped to ≥ 1).
    pub fn with_batch_max(mut self, n: usize) -> Self {
        self.batch_max = n.max(1);
        self
    }

    /// Sets (or clears) the background-compaction byte-rate budget.
    pub fn with_compaction_rate_limit(mut self, bytes_per_sec: Option<u64>) -> Self {
        self.compaction_bytes_per_sec = bytes_per_sec.map(|b| b.max(1));
        self
    }

    /// The effective worker count.
    pub(crate) fn effective_workers(&self) -> usize {
        if self.worker_threads != 0 {
            return self.worker_threads;
        }
        std::thread::available_parallelism().map_or(1, |n| n.get().min(8))
    }
}

//! # lash-core
//!
//! A from-scratch implementation of **LASH** (Beedkar & Gemulla, SIGMOD 2015):
//! scalable generalized sequence mining (GSM) in the presence of item
//! hierarchies.
//!
//! Given a database of sequences over a vocabulary arranged in a forest
//! hierarchy, a minimum support `σ`, a maximum gap `γ`, and a maximum length
//! `λ`, GSM finds every generalized sequence `S` with `2 ≤ |S| ≤ λ` that is
//! supported by at least `σ` input sequences, where support counts sequences
//! `T` with `S ⊑γ T` — `S` embeds into `T` allowing each matched item of `T`
//! to be *generalized* upward along the hierarchy and at most `γ` gap items
//! between consecutive matches.
//!
//! ## Crate layout
//!
//! * [`vocabulary`] / [`hierarchy`] — string vocabulary and forest hierarchy;
//! * [`sequence`] — sequence database storage and the [`ShardedCorpus`]
//!   input abstraction;
//! * [`params`] — the `(σ, γ, λ)` parameter triple;
//! * [`matching`] — the `S ⊑γ T` relation and embedding search;
//! * [`enumeration`] — `G1(T)` and `Gλ(T)` generalized-subsequence enumeration;
//! * [`flist`] — the generalized f-list, the hierarchy-aware total order, and
//!   the rank re-encoding that underlies partitioning;
//! * [`rewrite`] — partition construction: w-generalization, unreachability
//!   reduction, isolated-pivot removal, blank compression;
//! * [`miner`] — local miners: naive enumeration, BFS (SPADE-style), DFS
//!   (PrefixSpan-style), and PSM, the pivot sequence miner (± index);
//! * [`distributed`] — the MapReduce pipelines: f-list job, LASH
//!   partition-and-mine job (one driver, over any [`ShardedCorpus`]),
//!   naive / semi-naive baselines, and MG-FSM;
//! * [`stats`] — closed / maximal / non-trivial output statistics (Table 3).
//!
//! ## Quick start
//!
//! ```
//! use lash_core::prelude::*;
//!
//! // Build a vocabulary with a small hierarchy: "golden" -> "retriever" -> "dog".
//! let mut vb = VocabularyBuilder::new();
//! let dog = vb.intern("dog");
//! let retriever = vb.child("retriever", dog);
//! let golden = vb.child("golden", retriever);
//! let poodle = vb.child("poodle", dog);
//! let walks = vb.intern("walks");
//! let vocab = vb.finish().unwrap();
//!
//! // A database of three sequences.
//! let mut db = SequenceDatabase::new();
//! db.push(&[golden, walks]);
//! db.push(&[poodle, walks]);
//! db.push(&[retriever, walks]);
//!
//! // Mine with σ=2, γ=0, λ=2.
//! let params = GsmParams::new(2, 0, 2).unwrap();
//! let result = Lash::new(LashConfig::default())
//!     .mine(&db, &vocab, &params)
//!     .unwrap();
//!
//! // "dog walks" is frequent (support 3) even though "dog" never occurs literally.
//! assert!(result
//!     .patterns()
//!     .iter()
//!     .any(|p| p.to_names(&vocab) == ["dog", "walks"] && p.frequency == 3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod distributed;
pub mod enumeration;
pub mod error;
pub mod flist;
pub mod fxhash;
pub mod hierarchy;
pub mod io;
pub mod matching;
pub mod miner;
pub mod params;
pub mod pattern;
pub mod rewrite;
pub mod sequence;
pub mod stats;
pub mod vocabulary;

#[cfg(test)]
pub(crate) mod testutil;

pub use crate::context::MiningContext;
pub use crate::distributed::lash_job::{Lash, LashConfig, LashResult, MinerKind};
pub use crate::error::{Error, Result};
pub use crate::flist::{FList, ItemOrder};
pub use crate::hierarchy::ItemSpace;
pub use crate::params::GsmParams;
pub use crate::pattern::{Pattern, PatternArena, PatternSet};
pub use crate::sequence::{SequenceDatabase, ShardedCorpus};
pub use crate::vocabulary::{ItemId, Vocabulary, VocabularyBuilder};

/// The blank placeholder symbol "␣" (paper Sec. 3.3 / 4.2).
///
/// It is larger than every item under the total order, as the paper requires
/// (`w < ␣` for all items `w`); ranks are small for frequent items.
pub const BLANK: u32 = lash_encoding::BLANK;

/// Convenience re-exports for downstream users.
pub mod prelude {
    pub use crate::context::MiningContext;
    pub use crate::distributed::lash_job::{Lash, LashConfig, LashResult, MinerKind};
    pub use crate::error::{Error, Result};
    pub use crate::miner::{LocalMiner, MinerStats};
    pub use crate::params::GsmParams;
    pub use crate::pattern::{Pattern, PatternArena, PatternSet};
    pub use crate::sequence::SequenceDatabase;
    pub use crate::vocabulary::{ItemId, Vocabulary, VocabularyBuilder};
}

//! # lash-mapreduce
//!
//! An in-process, multi-threaded MapReduce engine with Hadoop-like
//! semantics and an **external-sort shuffle**, built as the execution
//! substrate for LASH (the paper runs on a Hadoop cluster; this crate
//! reproduces the programming contract and the measured quantities on a
//! single machine — including the out-of-core behavior that makes low-σ
//! mining over larger-than-RAM corpora possible).
//!
//! ## Architecture
//!
//! ```text
//! map task                          shuffle               reduce task
//! ┌─────────────────────────┐                             ┌──────────────────┐
//! │ map thread               │      run lists per         │ k-way merge of   │
//! │  map() → Emitter         │      partition             │ the partition's  │
//! │  encode → per-part sort  │  ┌──────────────────┐      │ runs             │
//! │  buffers (bytes + u32    │  │ mem runs         │ ───→ │  │               │
//! │  offsets)                │  │ disk runs (spill │      │  └ stream groups │
//! │  ├ never spilled: sort + │→ │ files)           │      │    reduce(key,   │
//! │  │ combine at the end    │  │                  │      │      &mut Values)│
//! │  └ over threshold? hand  │  │                  │      │    (on bytes)    │
//! │    the set off ↓, go on  │  │                  │      │                  │
//! │ spill thread             │  │                  │      │                  │
//! │  sort + combine, write   │  │                  │      │                  │
//! │  sorted runs ────────────┼─→│                  │      │                  │
//! │  (checksummed frames)    │  └──────────────────┘      │                  │
//! └─────────────────────────┘                             └──────────────────┘
//! ```
//!
//! * **One record layout.** The map side is typed: each emitted pair is
//!   encoded through the job's codec the moment it is emitted. Everything
//!   after that — sort, combine, spill, merge, reduce — reads and writes
//!   those encoded records in place. [`Job::combine`] receives a key
//!   group as borrowed value slices and pushes combined values through
//!   [`Combined`]; [`Job::reduce`] receives the encoded key and a
//!   [`Values`] cursor of borrowed values. Jobs decode only what they use.
//! * **Map side.** Records go into one sort buffer per reduce partition:
//!   the framed bytes plus a 4-byte offset per record. On finalize a buffer
//!   gets a 16-byte reference per record, built from its offset with the
//!   key's first 8 bytes as a sort prefix, is sorted by key bytes — in
//!   place, ties in emission order — and runs through the combiner
//!   (Hadoop's map-side sort). With [`EngineConfig::spill_threshold_bytes`]
//!   set, each map task gets one **spill thread**, as Hadoop's map-output
//!   collector has one. When the task's buffers exceed the budget, the map
//!   thread hands the whole set to the spill thread and keeps mapping into
//!   the set the spill thread emptied last. The spill thread finalizes
//!   every partition buffer and appends it to the task's spill file as a
//!   sorted run of length-prefixed, checksummed frames (`lash-encoding`'s
//!   frame format). At most two sets exist per task, one being filled and
//!   one being spilled. A failed spill stops the map thread and the job
//!   returns its typed error; a panic on the spill thread propagates.
//!   `None` is the all-in-memory fast path; `Some(0)` spills after every
//!   record.
//! * **Reduce side.** Each reduce task k-way merges its partition's runs —
//!   in-memory buffers from unspilled tasks and streamed disk runs (one
//!   ~64 KiB chunk resident per open run) — and hands the reducer one
//!   *streamed* group at a time, so reduce memory does not scale with
//!   partition size. Results are byte-identical between the two paths: the
//!   merge's (key bytes, run sequence) order reproduces the stable global
//!   sort exactly. A partition with more runs than
//!   [`EngineConfig::merge_fan_in`] (default 64, Hadoop's
//!   `io.sort.factor`) merges **hierarchically**: adjacent groups of at
//!   most `merge_fan_in` runs are pre-merged into intermediate on-disk
//!   runs (the `merge_passes` counter), and spill-file handles are opened
//!   per pass and closed between passes — so run count, not the fd limit
//!   or resident chunk memory, is the only thing that grows with the
//!   number of spilled map tasks.
//!
//! Further features:
//!
//! * real byte-level shuffle: counters like
//!   [`CounterSnapshot::map_output_bytes`] measure the representation a
//!   Hadoop job would ship, and the out-of-core counters
//!   ([`CounterSnapshot::spilled_bytes`], [`CounterSnapshot::spilled_runs`],
//!   [`CounterSnapshot::merged_runs`], [`CounterSnapshot::merge_passes`],
//!   [`CounterSnapshot::peak_resident_bytes`]) measure the spill traffic,
//!   the hierarchical merge work, and the map-side memory high-water mark;
//! * per-phase wall-clock timing (map / shuffle / reduce). With the
//!   external-sort design, sorting is part of `map_time`, merging part of
//!   `reduce_time`, and `shuffle_time` covers run-list assembly;
//! * configurable parallelism (worker threads stand in for cluster slots);
//! * deterministic failure injection with task retry, mirroring Hadoop's
//!   transparent fault tolerance — on the spill path each attempt writes its
//!   own run file, so retries never read a failed attempt's output;
//! * **merge-time combining**: hierarchical merge passes run the job's
//!   combiner on the groups they materialize (Hadoop's merge-side
//!   combiner), so repeated pre-merges shrink the data round over round —
//!   the `merged_combined_pairs` counter measures the eliminated pairs;
//! * the `LASH_SPILL_THRESHOLD` environment variable overrides the default
//!   spill threshold, letting a test run force the whole workspace through
//!   the out-of-core path (CI runs one leg with `LASH_SPILL_THRESHOLD=0`).
//!
//! ```
//! use lash_mapreduce::{run_job, Combined, EngineConfig, Emitter, Job, Values};
//!
//! /// Classic word count: UTF-8 keys, little-endian `u64` counts.
//! struct WordCount;
//!
//! fn count(bytes: &[u8]) -> u64 {
//!     u64::from_le_bytes(bytes.try_into().unwrap())
//! }
//!
//! impl Job for WordCount {
//!     type Input = String;
//!     type Key = String;
//!     type Value = u64;
//!     type Output = (String, u64);
//!
//!     fn map(&self, line: &String, emit: &mut Emitter<'_, Self>) {
//!         for word in line.split_whitespace() {
//!             emit.emit(word.to_owned(), 1);
//!         }
//!     }
//!
//!     // Sums the encoded counts of one word without decoding the word.
//!     fn combine(&self, _key: &[u8], values: &mut [&[u8]], out: &mut Combined<'_>) {
//!         let sum: u64 = values.iter().map(|v| count(v)).sum();
//!         out.push(&sum.to_le_bytes());
//!     }
//!
//!     fn reduce(&self, key: &[u8], values: &mut Values<'_, '_>, out: &mut Vec<(String, u64)>) {
//!         let mut sum = 0;
//!         while let Some(v) = values.next() {
//!             sum += count(v);
//!         }
//!         out.push((String::from_utf8(key.to_vec()).unwrap(), sum));
//!     }
//!
//!     fn encode_key(&self, key: &String, buf: &mut Vec<u8>) {
//!         buf.extend_from_slice(key.as_bytes());
//!     }
//!     fn encode_value(&self, value: &u64, buf: &mut Vec<u8>) {
//!         buf.extend_from_slice(&value.to_le_bytes());
//!     }
//! }
//!
//! let inputs = vec!["the quick brown fox".to_owned(), "the lazy dog".to_owned()];
//!
//! // All in memory…
//! let result = run_job(&WordCount, &inputs, &EngineConfig::default()).unwrap();
//! assert!(result.outputs.contains(&("the".to_owned(), 2)));
//!
//! // …or out-of-core, spilling sorted runs after every 64 buffered bytes —
//! // byte-identical output, nonzero spill counters.
//! let cfg = EngineConfig::default().with_spill_threshold(Some(64));
//! let spilled = run_job(&WordCount, &inputs, &cfg).unwrap();
//! assert!(spilled.outputs.contains(&("the".to_owned(), 2)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod counters;
pub mod error;
pub mod merge;
pub mod runtime;
pub mod shuffle;
pub mod spill;
pub mod types;

pub use config::{EngineConfig, FailurePlan, Phase, SPILL_THRESHOLD_ENV};
pub use counters::{CounterSnapshot, Counters};
pub use error::EngineError;
pub use runtime::{run_job, JobMetrics, JobResult};
pub use types::{Combined, Emitter, Job, Values};

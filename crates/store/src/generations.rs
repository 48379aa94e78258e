//! Segment generations: incremental ingest for a corpus whose sealed data
//! never changes.
//!
//! A corpus is an **ordered set of sealed generations**. Each
//! generation is a complete per-shard segment set — exactly what a whole
//! corpus was before generations existed — living in its own `gen-<id>/`
//! directory:
//!
//! ```text
//! corpus/
//! ├── MANIFEST.lash          # versioned corpus manifest: partitioning,
//! │                          # vocabulary, ordered generation list
//! ├── gen-00000/             # generation 0 (sealed by CorpusWriter)
//! │   ├── shard-00000.seg
//! │   └── shard-00001.seg
//! ├── gen-00001/             # sealed by an IncrementalWriter
//! │   └── …
//! └── …
//! ```
//!
//! ## The manifest-swap atomicity protocol
//!
//! Every mutation of the corpus — sealing a new generation, compacting old
//! ones — follows the same three-step protocol, and the **manifest rename
//! is the only commit point**:
//!
//! 1. **Write to the side.** New segment files are assembled in a
//!    dot-prefixed temp directory (`.gen-<id>.tmp/`) that no reader ever
//!    looks at; the manifest still describes the old state.
//! 2. **Rename into place.** The temp directory is renamed to its final
//!    `gen-<id>/` name. The directory now exists but is *unreferenced*:
//!    readers only open what their manifest names, so a crash here leaves
//!    garbage files, never a corrupt corpus.
//! 3. **Swap the manifest.** The new manifest (old generation list plus the
//!    new generation, or with compacted generations replaced by their
//!    merge) is written to `MANIFEST.lash.tmp` and renamed over
//!    `MANIFEST.lash`. Rename-within-a-directory is atomic on POSIX
//!    filesystems, so any concurrent or future [`crate::CorpusReader`]
//!    opens either the complete old corpus or the complete new one.
//!
//! Only **after** the swap does compaction delete the files it replaced.
//! Generation ids are monotonically increasing and never reused
//! ([`Manifest::next_gen_id`]), so a deleted generation's directory name can
//! never be confused with a live one.
//!
//! ## Snapshot readers
//!
//! A [`crate::CorpusReader`] is pinned to the manifest version it opened:
//! it keeps its own copy of the generation list and resolves every segment
//! path through it, so generations sealed later are invisible to it and a
//! re-`open` is required to observe them. Compaction deletes replaced
//! files after the swap, so a reader that predates a compaction may find
//! its segment files gone mid-scan — it then reports an I/O error rather
//! than wrong data. Writers are single-process/single-writer: two
//! concurrent `IncrementalWriter`s on the same corpus race on the manifest
//! swap and are not supported.

use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use lash_core::sequence::SequenceDatabase;
use lash_core::vocabulary::{ItemId, Vocabulary};
use lash_encoding::frame::{self, FrameChecksum};

use crate::compact::{self, CompactionConfig};
use crate::format::{self, GenerationMeta, Manifest, MANIFEST_FILE};
use crate::writer::SegmentSetWriter;
use crate::{Result, StoreError};

/// Environment variable enabling automatic compaction on ingest: when set
/// to `n ≥ 1`, every [`IncrementalWriter::finish`] runs the compactor until
/// at most `n` generations remain. `LASH_COMPACT_EVERY=1` therefore
/// compacts the whole corpus down to a single generation after every sealed
/// generation — CI runs a test leg with exactly that, so the compaction
/// path is exercised by every store/core test on every push.
///
/// A set-but-unparsable (or zero) value panics: the variable exists to
/// force test runs through the compaction path, and a typo silently
/// disabling it would defeat exactly that.
pub const COMPACT_EVERY_ENV: &str = "LASH_COMPACT_EVERY";

/// Reads [`COMPACT_EVERY_ENV`]; unset or empty means "no auto-compaction".
pub(crate) fn compact_every_from_env() -> Option<usize> {
    let value = std::env::var(COMPACT_EVERY_ENV).ok()?;
    let value = value.trim();
    if value.is_empty() {
        return None;
    }
    match value.parse::<usize>() {
        Ok(0) => panic!("{COMPACT_EVERY_ENV}=0 is invalid: a corpus keeps at least 1 generation"),
        Ok(n) => Some(n),
        Err(e) => panic!("{COMPACT_EVERY_ENV}={value:?} is not a generation count: {e}"),
    }
}

/// Fsyncs a directory so the renames/creations inside it are durable —
/// the glue of the swap protocol: file *data* is synced by
/// `SegmentSetWriter::finish`, the manifest by [`write_manifest`], and this
/// makes the directory entries pointing at them survive a power loss.
pub(crate) fn sync_dir(dir: &Path) -> Result<()> {
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// Reads one manifest frame that must exist (EOF is corruption) into a
/// caller-owned reusable buffer; returns the payload length (see
/// [`frame::read_frame_into`]).
fn read_required_frame(reader: &mut impl Read, buf: &mut Vec<u8>, what: &str) -> Result<usize> {
    match frame::read_frame_into(reader, buf, FrameChecksum::Fnv1a)? {
        Some(len) => Ok(len),
        None => Err(StoreError::Corrupt(format!("missing {what} frame"))),
    }
}

/// Loads and cross-validates a corpus manifest: header, vocabulary,
/// generation list and rank order, with the aggregated per-shard statistics
/// recomputed.
pub(crate) fn read_manifest(dir: &Path) -> Result<(Manifest, Vocabulary)> {
    let mut file = BufReader::new(File::open(dir.join(MANIFEST_FILE))?);
    let mut buf = Vec::new();
    let len = read_required_frame(&mut file, &mut buf, "manifest header")?;
    let header = format::decode_manifest_header(&buf[..len])?;
    let len = read_required_frame(&mut file, &mut buf, "manifest vocabulary")?;
    let vocab = format::decode_vocabulary(&buf[..len])?;
    let len = read_required_frame(&mut file, &mut buf, "manifest generations")?;
    let generations = format::decode_generations(&buf[..len])?;
    let len = read_required_frame(&mut file, &mut buf, "manifest rank order")?;
    let rank_order = Arc::new(format::decode_rank_order(&buf[..len], vocab.len())?);
    if generations.len() != header.num_generations as usize {
        return Err(StoreError::Corrupt(format!(
            "manifest header declares {} generations, list holds {}",
            header.num_generations,
            generations.len()
        )));
    }
    let mut manifest = Manifest {
        partitioning: header.partitioning,
        num_sequences: header.num_sequences,
        total_items: header.total_items,
        sketches: header.sketches,
        next_gen_id: header.next_gen_id,
        generations,
        shards: Vec::new(),
        rank_order,
    };
    let num_shards = manifest.partitioning.num_shards() as usize;
    // Note: ids need not be ascending in list order — compaction splices a
    // freshly-minted (highest) id into the merged window's position, since
    // list order tracks *sequence-id* order, not seal order.
    let mut seen_ids = std::collections::BTreeSet::new();
    for generation in &manifest.generations {
        if generation.shards.len() != num_shards {
            return Err(StoreError::Corrupt(format!(
                "generation {} lists {} shard entries for {} shards",
                generation.id,
                generation.shards.len(),
                num_shards
            )));
        }
        if generation.id >= manifest.next_gen_id {
            return Err(StoreError::Corrupt(format!(
                "generation id {} not below next_gen_id {}",
                generation.id, manifest.next_gen_id
            )));
        }
        if !seen_ids.insert(generation.id) {
            return Err(StoreError::Corrupt(format!(
                "duplicate generation id {}",
                generation.id
            )));
        }
    }
    let counted: u64 = manifest.generations.iter().map(|g| g.num_sequences).sum();
    if counted != manifest.num_sequences {
        return Err(StoreError::Corrupt(format!(
            "generations count {counted} sequences, manifest says {}",
            manifest.num_sequences
        )));
    }
    manifest.shards = Manifest::aggregate_shards(&manifest.generations, num_shards);
    Ok((manifest, vocab))
}

/// Writes `manifest` to `MANIFEST.lash.tmp`, fsyncs it, renames it over
/// `MANIFEST.lash`, and fsyncs the corpus directory — the atomic, durable
/// commit point of every corpus mutation (see the module docs). The fsync
/// ordering matters: the manifest's bytes reach disk before the rename
/// exposes them, and the directory fsync makes the rename itself (plus any
/// generation-directory rename staged just before) survive a power loss.
pub(crate) fn write_manifest(dir: &Path, manifest: &Manifest, vocab: &Vocabulary) -> Result<()> {
    let tmp = dir.join(format!("{MANIFEST_FILE}.tmp"));
    {
        let mut file = BufWriter::new(File::create(&tmp)?);
        let mut buf = Vec::new();
        format::encode_manifest_header(manifest, &mut buf);
        frame::write_frame(&buf, &mut file)?;
        buf.clear();
        format::encode_vocabulary(vocab, &mut buf);
        frame::write_frame(&buf, &mut file)?;
        buf.clear();
        format::encode_generations(&manifest.generations, &mut buf);
        frame::write_frame(&buf, &mut file)?;
        buf.clear();
        format::encode_rank_order(&manifest.rank_order, &mut buf);
        frame::write_frame(&buf, &mut file)?;
        file.flush()?;
        file.get_ref().sync_all()?;
    }
    fs::rename(&tmp, dir.join(MANIFEST_FILE))?;
    sync_dir(dir)?;
    Ok(())
}

/// Appends one sealed generation to an existing corpus.
///
/// Sequences continue the corpus-wide id space (the first appended sequence
/// gets id `manifest.num_sequences`) and are validated against the stored
/// vocabulary — a corpus's vocabulary and partitioning are fixed at
/// creation. [`IncrementalWriter::finish`] seals the generation following
/// the manifest-swap protocol (see the [module docs](self)); dropping the
/// writer without finishing discards the staged files and leaves the corpus
/// untouched.
///
/// ```
/// use lash_core::VocabularyBuilder;
/// use lash_store::{CorpusReader, CorpusWriter, IncrementalWriter, StoreOptions};
///
/// let dir = std::env::temp_dir().join(format!("lash-incr-doc-{}", std::process::id()));
/// # let _ = std::fs::remove_dir_all(&dir);
/// let mut vb = VocabularyBuilder::new();
/// let a = vb.intern("a");
/// let b = vb.intern("b");
/// let vocab = vb.finish().unwrap();
///
/// let mut writer = CorpusWriter::create(&dir, &vocab, StoreOptions::default()).unwrap();
/// writer.append(&[a, b]).unwrap();
/// writer.finish().unwrap();
///
/// // Later: new sequences arrive; seal them as a second generation.
/// let mut incr = IncrementalWriter::open(&dir).unwrap();
/// assert_eq!(incr.append(&[b, a]).unwrap(), 1); // ids continue
/// let manifest = incr.finish().unwrap();
/// assert_eq!(manifest.num_sequences, 2);
///
/// let reader = CorpusReader::open(&dir).unwrap();
/// assert_eq!(reader.len(), 2);
/// # std::fs::remove_dir_all(&dir).unwrap();
/// ```
pub struct IncrementalWriter {
    dir: PathBuf,
    manifest: Manifest,
    vocab: Vocabulary,
    gen_id: u32,
    tmp_dir: PathBuf,
    segments: Option<SegmentSetWriter>,
    next_seq: u64,
    sealed: bool,
}

impl IncrementalWriter {
    /// Opens `dir` for appending a new generation with the default block
    /// budget. The generation is encoded under the rank order the corpus
    /// sealed at creation.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        Self::open_with_budget(dir, crate::StoreOptions::default().block_budget)
    }

    /// Opens `dir` for appending a new generation whose blocks target
    /// `block_budget` uncompressed payload bytes.
    pub fn open_with_budget(dir: impl AsRef<Path>, block_budget: usize) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        let (manifest, vocab) = read_manifest(&dir)?;
        let gen_id = manifest.next_gen_id;
        let tmp_dir = dir.join(format::generation_tmp_dir_name(gen_id));
        // A crashed earlier attempt may have left the temp dir behind; it
        // was never referenced by any manifest, so it is safe to discard.
        if tmp_dir.exists() {
            fs::remove_dir_all(&tmp_dir)?;
        }
        let segments = SegmentSetWriter::create(
            &tmp_dir,
            manifest.partitioning.num_shards(),
            block_budget,
            manifest.sketches,
            Arc::clone(&manifest.rank_order),
        )?;
        let next_seq = manifest.num_sequences;
        Ok(IncrementalWriter {
            dir,
            manifest,
            vocab,
            gen_id,
            tmp_dir,
            segments: Some(segments),
            next_seq,
            sealed: false,
        })
    }

    /// The corpus vocabulary appends are validated against.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// The manifest snapshot this writer opened (the pre-append state).
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Sequences appended to this generation so far.
    pub fn appended(&self) -> u64 {
        self.next_seq - self.manifest.num_sequences
    }

    /// Appends one sequence; returns its corpus-wide id (continuing the
    /// existing id space).
    pub fn append(&mut self, seq: &[ItemId]) -> Result<u64> {
        let id = self.next_seq;
        let shard = self.manifest.partitioning.shard_of(id) as usize;
        self.segments
            .as_mut()
            .expect("writer not finished")
            .append(shard, id, seq, &self.vocab)?;
        self.next_seq += 1;
        Ok(id)
    }

    /// Appends every sequence of `db` in order.
    pub fn append_db(&mut self, db: &SequenceDatabase) -> Result<()> {
        for seq in db.iter() {
            self.append(seq)?;
        }
        Ok(())
    }

    /// Seals the generation: flushes the staged segment files, renames the
    /// temp directory into place, and swaps the manifest. Returns the new
    /// manifest.
    ///
    /// An empty generation (nothing appended) is not sealed — the staged
    /// files are discarded and the current manifest is returned unchanged.
    ///
    /// When [`COMPACT_EVERY_ENV`] is set, the compactor then runs until the
    /// corpus holds at most that many generations.
    pub fn finish(mut self) -> Result<Manifest> {
        let result = self.finish_inner();
        if let Err(e) = &result {
            lash_obs::flight::record_error("store.seal", &e.to_string());
        }
        result
    }

    fn finish_inner(&mut self) -> Result<Manifest> {
        let segments = self.segments.take().expect("finish called once");
        if self.next_seq == self.manifest.num_sequences {
            let _ = fs::remove_dir_all(&self.tmp_dir);
            self.sealed = true;
            return Ok(self.manifest.clone());
        }
        let num_sequences = segments.sequences();
        let total_items = segments.total_items();
        // One seal = one span. Roots a fresh trace for a bare ingest; the
        // env-triggered compaction below nests its rounds under it.
        let _seal_span = lash_obs::span!(
            "store.seal",
            generation = self.gen_id,
            sequences = num_sequences,
        );
        let shards = segments.finish()?;

        // Step 2 of the protocol: rename the staged directory into place.
        // Its final name is still unreferenced until the manifest swap.
        let gen_dir = self.dir.join(format::generation_dir_name(self.gen_id));
        if gen_dir.exists() {
            // Leftover of a crashed attempt that renamed but never swapped
            // the manifest (ids are never reused, so it cannot be live).
            fs::remove_dir_all(&gen_dir)?;
        }
        fs::rename(&self.tmp_dir, &gen_dir)?;
        self.sealed = true;

        // Step 3: swap the manifest.
        let mut manifest = self.manifest.clone();
        manifest.generations.push(GenerationMeta {
            id: self.gen_id,
            num_sequences,
            total_items,
            shards,
        });
        manifest.num_sequences += num_sequences;
        manifest.total_items += total_items;
        manifest.next_gen_id = self.gen_id + 1;
        manifest.shards = Manifest::aggregate_shards(
            &manifest.generations,
            manifest.partitioning.num_shards() as usize,
        );
        write_manifest(&self.dir, &manifest, &self.vocab)?;

        lash_obs::global()
            .counter("store.ingest.sequences")
            .add(num_sequences);

        if let Some(limit) = compact_every_from_env() {
            let config = CompactionConfig::default().with_max_generations(limit);
            if compact::compact(&self.dir, &config)?.is_some() {
                return Ok(read_manifest(&self.dir)?.0);
            }
        }
        Ok(manifest)
    }
}

impl Drop for IncrementalWriter {
    fn drop(&mut self) {
        // An unfinished writer leaves no trace: the staged directory was
        // never referenced by a manifest.
        if !self.sealed {
            let _ = fs::remove_dir_all(&self.tmp_dir);
        }
    }
}

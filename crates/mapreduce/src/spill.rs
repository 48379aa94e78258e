//! On-disk sorted runs: the out-of-core half of the shuffle.
//!
//! When a map task's sort buffers exceed `spill_threshold_bytes`, the
//! task's spill thread sorts and combines each non-empty partition buffer
//! and appends it to the task's spill file as one *run*. A run is a sequence of length-prefixed,
//! checksummed frames (reusing [`lash_encoding::frame`]); each frame wraps a
//! chunk of whole shuffle records, so the reduce side streams a run one
//! chunk at a time — memory per open run is bounded by
//! [`SPILL_CHUNK_BYTES`] plus one record, regardless of run size.
//!
//! ```text
//! spill file (one per map task attempt)
//! ├── run 0   ┌ frame ┐┌ frame ┐…        ← partition 3, spill 0
//! ├── run 1   ┌ frame ┐…                 ← partition 7, spill 0
//! ├── run 2   ┌ frame ┐┌ frame ┐…        ← partition 3, spill 1
//! └── …
//! ```
//!
//! A frame's payload is the framed records themselves, with no header: spill
//! and merge files are private to one job and removed with its
//! [`SpillSpace`], so every reader meets only bytes [`SpillWriter`] wrote.
//! Hierarchical merge passes write their output runs with the same writer,
//! one run per file.
//!
//! Truncation and bit-flips surface as [`EngineError::CorruptShuffle`], not
//! panics: a frame is only handed to the record parser after its checksum
//! verifies, the parser range-checks every length prefix, and a run that
//! ends mid-frame is reported as truncated.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use lash_encoding::frame;
use lash_encoding::varint::encoded_len_u64;

use crate::error::EngineError;
use crate::shuffle::{write_record, RunBuffer};

/// Target payload size of one spill frame (the workspace-wide
/// [`frame::DEFAULT_BLOCK_BYTES`]). Chunks always contain at least one
/// whole record, so oversized records still spill correctly.
pub const SPILL_CHUNK_BYTES: usize = frame::DEFAULT_BLOCK_BYTES;

/// Maps an I/O error to an [`EngineError::SpillIo`] with context.
fn io_err(what: &str, e: std::io::Error) -> EngineError {
    EngineError::SpillIo(format!("{what}: {e}"))
}

/// The per-job spill directory: a unique subdirectory of the configured (or
/// system) temp dir, removed when the job finishes.
#[derive(Debug)]
pub struct SpillSpace {
    dir: PathBuf,
}

static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

impl SpillSpace {
    /// Creates a unique spill directory under `base`.
    pub fn create(base: Option<&Path>) -> Result<SpillSpace, EngineError> {
        let base = base
            .map(Path::to_path_buf)
            .unwrap_or_else(std::env::temp_dir);
        let dir = base.join(format!(
            "lash-shuffle-{}-{}",
            std::process::id(),
            SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(|e| io_err("create spill dir", e))?;
        Ok(SpillSpace { dir })
    }

    /// The spill file path of one map task attempt.
    pub fn task_file(&self, task: usize, attempt: u32) -> PathBuf {
        self.dir.join(format!("map-{task:05}-a{attempt}.run"))
    }

    /// The file path of one intermediate merge output: reduce task `task`,
    /// hierarchical merge round `round`, run group `group`.
    pub fn merge_file(&self, task: usize, round: u32, group: usize) -> PathBuf {
        self.dir
            .join(format!("reduce-{task:05}-r{round}-g{group}.merge"))
    }
}

impl Drop for SpillSpace {
    fn drop(&mut self) {
        // Best effort: a leaked temp dir is not worth failing a job over.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Location and size of one sorted run inside a spill file.
#[derive(Debug, Clone)]
pub struct RunMeta {
    /// The reduce partition the run belongs to.
    pub partition: u32,
    /// Byte offset of the run's first frame in the file.
    pub offset: u64,
    /// Total encoded bytes of the run's frames.
    pub len: u64,
    /// Records in the run.
    pub records: u64,
}

/// Appends sorted runs to one file, chunked into checksummed frames.
///
/// A map task writes many runs per file (one per spilled partition buffer,
/// via [`SpillWriter::write_run`]); a hierarchical merge pass streams one
/// run into its own file record by record ([`SpillWriter::push`]), so the
/// merged run is never materialized in memory. Either way a run ends with
/// [`SpillWriter::end_run`], and the next record starts a new one.
#[derive(Debug)]
pub struct SpillWriter {
    path: PathBuf,
    writer: BufWriter<File>,
    /// Framed records of the frame being filled, reused across frames.
    chunk: Vec<u8>,
    /// File offset of the next frame.
    pos: u64,
    /// File offset of the open run's first frame.
    run_offset: u64,
    /// Records pushed into the open run.
    run_records: u64,
}

impl SpillWriter {
    /// Creates (truncating) the file at `path`.
    pub fn create(path: PathBuf) -> Result<SpillWriter, EngineError> {
        let file = File::create(&path).map_err(|e| io_err("create spill file", e))?;
        Ok(SpillWriter {
            path,
            writer: BufWriter::new(file),
            chunk: Vec::new(),
            pos: 0,
            run_offset: 0,
            run_records: 0,
        })
    }

    /// Appends one record to the open run. Records must arrive in run order
    /// (a merge produces them that way by construction).
    pub fn push(&mut self, key: &[u8], value: &[u8]) -> Result<(), EngineError> {
        let framed = encoded_len_u64(key.len() as u64)
            + key.len()
            + encoded_len_u64(value.len() as u64)
            + value.len();
        self.start_record(framed)?;
        write_record(&mut self.chunk, key, value);
        Ok(())
    }

    /// Writes one whole sorted run — the records of `buffer` in reference
    /// order — and ends it.
    pub fn write_run(
        &mut self,
        partition: u32,
        buffer: &RunBuffer,
    ) -> Result<RunMeta, EngineError> {
        debug_assert!(!buffer.is_empty(), "runs are never empty");
        self.append(buffer)?;
        self.end_run(partition)
    }

    /// Appends the records of `buffer`, in reference order, to the open
    /// run.
    pub fn append(&mut self, buffer: &RunBuffer) -> Result<(), EngineError> {
        for rec in &buffer.recs {
            let framed = buffer.framed(rec);
            self.start_record(framed.len())?;
            self.chunk.extend_from_slice(framed);
        }
        Ok(())
    }

    /// Counts one more record of `framed` bytes into the open run, first
    /// sealing the current frame if the record would overflow it. A frame
    /// always holds at least one record.
    fn start_record(&mut self, framed: usize) -> Result<(), EngineError> {
        if !self.chunk.is_empty() && self.chunk.len() + framed > SPILL_CHUNK_BYTES {
            self.flush_chunk()?;
        }
        self.run_records += 1;
        Ok(())
    }

    fn flush_chunk(&mut self) -> Result<(), EngineError> {
        frame::write_frame(&self.chunk, &mut self.writer)
            .map_err(|e| io_err("write spill frame", e))?;
        self.pos += frame::encoded_frame_len(self.chunk.len()) as u64;
        self.chunk.clear();
        Ok(())
    }

    /// Seals the open run and returns its metadata (`partition` is recorded
    /// for bookkeeping). A run with no records has `len` 0.
    pub fn end_run(&mut self, partition: u32) -> Result<RunMeta, EngineError> {
        if !self.chunk.is_empty() {
            self.flush_chunk()?;
        }
        let meta = RunMeta {
            partition,
            offset: self.run_offset,
            len: self.pos - self.run_offset,
            records: self.run_records,
        };
        self.run_offset = self.pos;
        self.run_records = 0;
        Ok(meta)
    }

    /// Flushes buffered bytes to the OS so reduce tasks can read them back,
    /// returning the file's path. Every run must have been ended.
    pub fn finish(mut self) -> Result<PathBuf, EngineError> {
        debug_assert!(self.chunk.is_empty(), "finish with an open run");
        self.writer
            .flush()
            .map_err(|e| io_err("flush spill file", e))?;
        Ok(self.path)
    }
}

/// One spill file opened for reading, shared by every run cursor over it.
///
/// A job can hold *many* runs per spill file (with a tiny threshold, one
/// run per record), so cursors must not each own a file descriptor — the
/// merge would exhaust the process fd limit. Instead all cursors of a file
/// share one handle and read at explicit positions under a lock; each
/// cursor buffers its reads, so lock traffic is per chunk, not per byte.
#[derive(Debug, Clone)]
pub struct SharedFile(Arc<Mutex<File>>);

impl SharedFile {
    /// Opens `path` read-only.
    pub fn open(path: &Path) -> Result<SharedFile, EngineError> {
        let file = File::open(path).map_err(|e| io_err("open spill file", e))?;
        Ok(SharedFile(Arc::new(Mutex::new(file))))
    }

    /// Reads up to `buf.len()` bytes at absolute position `pos`.
    fn read_at(&self, buf: &mut [u8], pos: u64) -> std::io::Result<usize> {
        let mut file = self.0.lock().expect("spill file lock");
        file.seek(SeekFrom::Start(pos))?;
        file.read(buf)
    }
}

/// A [`Read`] view of a [`SharedFile`] starting at a fixed position; each
/// reader tracks its own offset, so concurrent cursors never disturb each
/// other.
#[derive(Debug)]
struct SharedReader {
    file: SharedFile,
    pos: u64,
}

impl Read for SharedReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.file.read_at(buf, self.pos)?;
        self.pos += n as u64;
        Ok(n)
    }
}

/// A streaming cursor over one on-disk run: reads one checksum-verified
/// frame at a time and iterates the records inside it.
#[derive(Debug)]
pub struct DiskCursor {
    reader: BufReader<SharedReader>,
    /// Encoded bytes of the run not yet consumed from the file.
    remaining: u64,
    /// The current chunk, already verified, parsed into records.
    chunk: RunBuffer,
    /// Index of the current record within `chunk`.
    rec: usize,
}

impl DiskCursor {
    /// Opens the run described by `meta` inside `file`, positioned on its
    /// first record. Runs are never empty, so an immediately exhausted run
    /// is corruption.
    pub fn open(file: &SharedFile, meta: &RunMeta) -> Result<DiskCursor, EngineError> {
        let reader = BufReader::new(SharedReader {
            file: file.clone(),
            pos: meta.offset,
        });
        let mut cursor = DiskCursor {
            reader,
            remaining: meta.len,
            chunk: RunBuffer::default(),
            rec: 0,
        };
        if !cursor.next_chunk()? {
            return Err(EngineError::CorruptShuffle("run has no frames".into()));
        }
        Ok(cursor)
    }

    /// Loads the next frame of the run. Returns false when the run is fully
    /// consumed.
    fn next_chunk(&mut self) -> Result<bool, EngineError> {
        if self.remaining == 0 {
            return Ok(false);
        }
        let payload = match frame::read_frame(&mut self.reader) {
            Ok(frame::FrameRead::Payload(p)) => p,
            Ok(frame::FrameRead::Eof) => {
                return Err(EngineError::CorruptShuffle(
                    "spill file truncated: run ends before its recorded length".into(),
                ))
            }
            Err(e) => {
                return Err(EngineError::CorruptShuffle(format!("spill frame: {e}")));
            }
        };
        let encoded = frame::encoded_frame_len(payload.len()) as u64;
        if encoded > self.remaining {
            return Err(EngineError::CorruptShuffle(
                "spill frame overruns its run".into(),
            ));
        }
        self.remaining -= encoded;
        self.chunk = RunBuffer::parse(payload)?;
        if self.chunk.is_empty() {
            return Err(EngineError::CorruptShuffle("empty spill frame".into()));
        }
        self.rec = 0;
        Ok(true)
    }

    /// The current record's key bytes.
    pub fn key(&self) -> &[u8] {
        self.chunk.key(&self.chunk.recs[self.rec])
    }

    /// The current record's value bytes.
    pub fn value(&self) -> &[u8] {
        self.chunk.value(&self.chunk.recs[self.rec])
    }

    /// Advances to the next record; false when the run is exhausted.
    pub fn advance(&mut self) -> Result<bool, EngineError> {
        self.rec += 1;
        if self.rec < self.chunk.recs.len() {
            return Ok(true);
        }
        self.next_chunk()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Records = Vec<(Vec<u8>, Vec<u8>)>;

    fn build_run(pairs: &[(&[u8], &[u8])]) -> RunBuffer {
        let mut run = RunBuffer::default();
        for (k, v) in pairs {
            run.push(k, v);
        }
        run.sort(&mut Vec::new());
        run
    }

    fn drain(file: &Path, meta: &RunMeta) -> Result<Records, EngineError> {
        let mut cursor = DiskCursor::open(&SharedFile::open(file)?, meta)?;
        let mut out = Vec::new();
        loop {
            out.push((cursor.key().to_vec(), cursor.value().to_vec()));
            if !cursor.advance()? {
                return Ok(out);
            }
        }
    }

    #[test]
    fn runs_round_trip_through_disk() {
        let space = SpillSpace::create(None).unwrap();
        let mut writer = SpillWriter::create(space.task_file(0, 0)).unwrap();
        let a = build_run(&[(b"b", b"1"), (b"a", b"2"), (b"b", b"3")]);
        let b = build_run(&[(b"z", b"9")]);
        let ma = writer.write_run(3, &a).unwrap();
        let mb = writer.write_run(5, &b).unwrap();
        let file = writer.finish().unwrap();
        assert_eq!(ma.records, 3);
        assert_eq!(mb.offset, ma.offset + ma.len);
        assert_eq!(
            drain(&file, &ma).unwrap(),
            vec![
                (b"a".to_vec(), b"2".to_vec()),
                (b"b".to_vec(), b"1".to_vec()),
                (b"b".to_vec(), b"3".to_vec()),
            ]
        );
        assert_eq!(
            drain(&file, &mb).unwrap(),
            vec![(b"z".to_vec(), b"9".to_vec())]
        );
    }

    #[test]
    fn large_runs_split_into_multiple_frames() {
        let space = SpillSpace::create(None).unwrap();
        let mut writer = SpillWriter::create(space.task_file(1, 0)).unwrap();
        let big_value = vec![0xabu8; 40 * 1024];
        let mut run = RunBuffer::default();
        for i in 0..8u8 {
            run.push(&[i], &big_value);
        }
        run.sort(&mut Vec::new());
        let meta = writer.write_run(0, &run).unwrap();
        let file = writer.finish().unwrap();
        // 8 × 40 KiB of values cannot fit one 64 KiB chunk.
        assert!(meta.len > frame::encoded_frame_len(SPILL_CHUNK_BYTES) as u64);
        let drained = drain(&file, &meta).unwrap();
        assert_eq!(drained.len(), 8);
        assert!(drained.iter().all(|(_, v)| v == &big_value));
    }

    #[test]
    fn streamed_runs_read_back_like_buffered_ones() {
        let space = SpillSpace::create(None).unwrap();
        let streamed = space.merge_file(0, 0, 0);
        let mut writer = SpillWriter::create(streamed.clone()).unwrap();
        let big_value = vec![0x5au8; 30 * 1024];
        // Records in run order, large enough to span several chunks.
        let mut expect: Records = Vec::new();
        let mut buffered = RunBuffer::default();
        for i in 0..6u8 {
            let key = vec![i];
            writer.push(&key, &big_value).unwrap();
            buffered.push(&key, &big_value);
            expect.push((key, big_value.clone()));
        }
        let meta = writer.end_run(3).unwrap();
        writer.finish().unwrap();
        assert_eq!(meta.partition, 3);
        assert_eq!(meta.records, 6);
        assert_eq!(meta.offset, 0);
        assert!(meta.len > frame::encoded_frame_len(SPILL_CHUNK_BYTES) as u64);
        assert_eq!(drain(&streamed, &meta).unwrap(), expect);
        // The same records written as one buffer produce the same frames.
        let mut writer = SpillWriter::create(space.task_file(0, 0)).unwrap();
        let buffered_meta = writer.write_run(3, &buffered).unwrap();
        let buffered_file = writer.finish().unwrap();
        assert_eq!(buffered_meta.len, meta.len);
        assert_eq!(
            std::fs::read(&buffered_file).unwrap(),
            std::fs::read(&streamed).unwrap()
        );
    }

    /// Frames whose checksum verifies but whose payload is not a sequence
    /// of well-formed records: only the record parser can catch these.
    #[test]
    fn malformed_records_in_a_valid_frame_are_corrupt_shuffle() {
        let mut huge_key = Vec::new();
        lash_encoding::varint::encode_u64(u64::MAX - 3, &mut huge_key);
        huge_key.extend_from_slice(b"k\x01v");
        let mut value_past_end = Vec::new();
        write_record(&mut value_past_end, b"k", b"value");
        value_past_end.truncate(value_past_end.len() - 2);
        for payload in [huge_key, value_past_end, Vec::new()] {
            let space = SpillSpace::create(None).unwrap();
            let path = space.task_file(0, 0);
            let mut file = std::fs::File::create(&path).unwrap();
            frame::write_frame(&payload, &mut file).unwrap();
            let meta = RunMeta {
                partition: 0,
                offset: 0,
                len: frame::encoded_frame_len(payload.len()) as u64,
                records: 1,
            };
            let result = drain(&path, &meta);
            assert!(
                matches!(result, Err(EngineError::CorruptShuffle(_))),
                "{payload:?}: {result:?}"
            );
        }
    }

    #[test]
    fn truncated_run_is_corrupt_shuffle_not_a_panic() {
        let space = SpillSpace::create(None).unwrap();
        let mut writer = SpillWriter::create(space.task_file(2, 0)).unwrap();
        let run = build_run(&[(b"key", b"a value with some length"), (b"key2", b"x")]);
        let meta = writer.write_run(0, &run).unwrap();
        let file = writer.finish().unwrap();
        let full = std::fs::read(&file).unwrap();
        for cut in [0, 1, full.len() / 2, full.len() - 1] {
            std::fs::write(&file, &full[..cut]).unwrap();
            let result = drain(&file, &meta);
            assert!(
                matches!(result, Err(EngineError::CorruptShuffle(_))),
                "cut at {cut}: {result:?}"
            );
        }
    }

    #[test]
    fn bit_flip_is_corrupt_shuffle() {
        let space = SpillSpace::create(None).unwrap();
        let mut writer = SpillWriter::create(space.task_file(3, 0)).unwrap();
        let run = build_run(&[(b"key", b"payload")]);
        let meta = writer.write_run(0, &run).unwrap();
        let file = writer.finish().unwrap();
        let mut bytes = std::fs::read(&file).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&file, &bytes).unwrap();
        assert!(matches!(
            drain(&file, &meta),
            Err(EngineError::CorruptShuffle(_))
        ));
    }

    #[test]
    fn spill_space_cleans_up_on_drop() {
        let dir;
        {
            let space = SpillSpace::create(None).unwrap();
            dir = space.dir.clone();
            std::fs::write(space.task_file(0, 0), b"junk").unwrap();
            assert!(dir.exists());
        }
        assert!(!dir.exists());
    }
}

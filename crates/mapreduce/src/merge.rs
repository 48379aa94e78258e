//! Reduce-side k-way merge of sorted runs.
//!
//! Each reduce partition's input is a list of sorted runs — in-memory
//! [`RunBuffer`]s from unspilled map tasks and on-disk runs behind
//! [`DiskCursor`]s — ordered by (map task, spill sequence). The merge is a
//! binary heap keyed by (key bytes, run sequence): ascending key order with
//! run order breaking ties, which reproduces byte-for-byte the value order
//! of a single global stable sort (map task order, then emission order).
//! Groups are *streamed*: the engine hands each reducer a cursor that reads
//! encoded values straight off the merge, so no partition, group, or value
//! list is ever materialized.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use crate::error::EngineError;
use crate::shuffle::{key_prefix, RunBuffer};
use crate::spill::{DiskCursor, RunMeta, SharedFile};

/// One sorted run feeding a reduce merge.
pub enum RunSource<'a> {
    /// An in-memory run (a finalized, sorted map-task partition buffer).
    Mem(&'a RunBuffer),
    /// An on-disk run inside a spill file.
    Disk {
        /// The spill file holding the run (one shared handle per file
        /// within a merge pass, no matter how many of the pass's runs it
        /// holds; the runtime opens handles per pass and closes them
        /// between passes).
        file: SharedFile,
        /// The run's location inside the file.
        meta: &'a RunMeta,
    },
}

/// A positioned cursor over one run.
enum Cursor<'a> {
    Mem { run: &'a RunBuffer, rec: usize },
    Disk(DiskCursor),
}

impl Cursor<'_> {
    fn key(&self) -> &[u8] {
        match self {
            Cursor::Mem { run, rec } => run.key(&run.recs[*rec]),
            Cursor::Disk(c) => c.key(),
        }
    }

    fn value(&self) -> &[u8] {
        match self {
            Cursor::Mem { run, rec } => run.value(&run.recs[*rec]),
            Cursor::Disk(c) => c.value(),
        }
    }

    fn advance(&mut self) -> Result<bool, EngineError> {
        match self {
            Cursor::Mem { run, rec } => {
                *rec += 1;
                Ok(*rec < run.recs.len())
            }
            Cursor::Disk(c) => c.advance(),
        }
    }
}

/// Heap entry: the current key of one cursor. `BinaryHeap` is a max-heap,
/// so the ordering is reversed to pop the smallest (key, seq) first.
struct HeapEntry {
    /// The key's sort prefix (see [`key_prefix`]): most comparisons end
    /// on this word.
    prefix: u64,
    key: Vec<u8>,
    /// Global run sequence (map task order, then spill order) — the
    /// stability tie-break for equal keys.
    seq: u32,
}

impl HeapEntry {
    fn new(key: &[u8], seq: u32) -> HeapEntry {
        HeapEntry {
            prefix: key_prefix(key),
            key: key.to_vec(),
            seq,
        }
    }
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: the heap's "greatest" entry is the smallest (key, seq).
        other
            .prefix
            .cmp(&self.prefix)
            .then_with(|| other.key.cmp(&self.key))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A k-way merge over sorted runs, yielding records in (key bytes, run
/// sequence) order.
pub struct Merger<'a> {
    cursors: Vec<Cursor<'a>>,
    heap: BinaryHeap<HeapEntry>,
    /// Number of runs merged (for the `merged_runs` counter).
    runs: u64,
}

impl<'a> Merger<'a> {
    /// Opens every source and positions the merge on the smallest record.
    /// Sources must be passed in run-sequence order.
    pub fn new(sources: &[RunSource<'a>]) -> Result<Merger<'a>, EngineError> {
        let mut cursors = Vec::with_capacity(sources.len());
        let mut heap = BinaryHeap::with_capacity(sources.len());
        for source in sources {
            let cursor = match source {
                RunSource::Mem(run) => {
                    if run.is_empty() {
                        continue;
                    }
                    Cursor::Mem { run, rec: 0 }
                }
                RunSource::Disk { file, meta } => Cursor::Disk(DiskCursor::open(file, meta)?),
            };
            heap.push(HeapEntry::new(cursor.key(), cursors.len() as u32));
            cursors.push(cursor);
        }
        let runs = cursors.len() as u64;
        Ok(Merger {
            cursors,
            heap,
            runs,
        })
    }

    /// Number of non-empty runs feeding this merge.
    pub fn num_runs(&self) -> u64 {
        self.runs
    }

    /// The key bytes of the smallest unconsumed record, if any.
    pub fn peek_key(&self) -> Option<&[u8]> {
        self.heap.peek().map(|e| e.key.as_slice())
    }

    /// Pops the smallest record: copies its value bytes into `value` and
    /// advances the merge. The advanced cursor's entry is updated in place
    /// at the top of the heap and sifted down once.
    pub fn pop_value_into(&mut self, value: &mut Vec<u8>) -> Result<(), EngineError> {
        let mut top = self.heap.peek_mut().expect("pop on empty merge");
        let cursor = &mut self.cursors[top.seq as usize];
        value.clear();
        value.extend_from_slice(cursor.value());
        if cursor.advance()? {
            top.key.clear();
            top.key.extend_from_slice(cursor.key());
            top.prefix = key_prefix(&top.key);
        } else {
            PeekMut::pop(top);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spill::{SpillSpace, SpillWriter};

    fn mem_run(pairs: &[(&[u8], &[u8])]) -> RunBuffer {
        let mut run = RunBuffer::default();
        for (k, v) in pairs {
            run.push(k, v);
        }
        run.sort(&mut Vec::new());
        run
    }

    fn drain(merger: &mut Merger<'_>) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        let mut value = Vec::new();
        while let Some(key) = merger.peek_key() {
            let key = key.to_vec();
            merger.pop_value_into(&mut value).unwrap();
            out.push((key, value.clone()));
        }
        out
    }

    #[test]
    fn merges_memory_runs_in_key_then_sequence_order() {
        let a = mem_run(&[(b"apple", b"a1"), (b"pear", b"a2")]);
        let b = mem_run(&[(b"apple", b"b1"), (b"zebra", b"b2")]);
        let sources = vec![RunSource::Mem(&a), RunSource::Mem(&b)];
        let mut merger = Merger::new(&sources).unwrap();
        assert_eq!(merger.num_runs(), 2);
        assert_eq!(
            drain(&mut merger),
            vec![
                (b"apple".to_vec(), b"a1".to_vec()),
                (b"apple".to_vec(), b"b1".to_vec()),
                (b"pear".to_vec(), b"a2".to_vec()),
                (b"zebra".to_vec(), b"b2".to_vec()),
            ]
        );
    }

    #[test]
    fn empty_memory_runs_are_skipped() {
        let empty = RunBuffer::default();
        let a = mem_run(&[(b"k", b"v")]);
        let sources = vec![RunSource::Mem(&empty), RunSource::Mem(&a)];
        let mut merger = Merger::new(&sources).unwrap();
        assert_eq!(merger.num_runs(), 1);
        assert_eq!(drain(&mut merger).len(), 1);
    }

    #[test]
    fn merges_disk_and_memory_runs_together() {
        let space = SpillSpace::create(None).unwrap();
        let mut writer = SpillWriter::create(space.task_file(0, 0)).unwrap();
        let spilled = mem_run(&[(b"a", b"disk1"), (b"m", b"disk2")]);
        let meta = writer.write_run(0, &spilled).unwrap();
        let file = writer.finish().unwrap();
        let mem = mem_run(&[(b"a", b"mem1"), (b"z", b"mem2")]);
        let sources = vec![
            RunSource::Disk {
                file: SharedFile::open(&file).unwrap(),
                meta: &meta,
            },
            RunSource::Mem(&mem),
        ];
        let mut merger = Merger::new(&sources).unwrap();
        assert_eq!(
            drain(&mut merger),
            vec![
                (b"a".to_vec(), b"disk1".to_vec()),
                (b"a".to_vec(), b"mem1".to_vec()),
                (b"m".to_vec(), b"disk2".to_vec()),
                (b"z".to_vec(), b"mem2".to_vec()),
            ]
        );
    }
}

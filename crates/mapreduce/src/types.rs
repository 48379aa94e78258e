//! The [`Job`] trait — typed map-side emission and codec, byte-level
//! combine and reduce — its two byte-level views ([`Combined`] and
//! [`Values`]), the [`Emitter`], which serializes map output into
//! per-partition sort buffers, and the map task's spill thread, which
//! sorts, combines and spills full sets of those buffers while the map
//! thread keeps emitting.

use std::path::PathBuf;
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::time::Instant;

use crate::counters::Counters;
use crate::error::EngineError;
use crate::merge::Merger;
use crate::shuffle::{partition_of, RecordRef, RunBuffer, SortBuffer};
use crate::spill::{RunMeta, SpillWriter};

/// A MapReduce job.
///
/// The map side is typed: [`Job::map`] emits `(Key, Value)` pairs, and the
/// [`Emitter`] serializes each one on the spot through [`Job::encode_key`]
/// and [`Job::encode_value`]. From there to the reducer the engine moves
/// only bytes. It partitions, sorts, and groups by *encoded* key bytes,
/// exactly as Hadoop does with serialized keys, so keys must encode
/// injectively. [`Job::combine`] and [`Job::reduce`] receive the encoded
/// key and borrowed encoded values, and decode only what they need — a
/// thresholding reducer decodes just the keys that pass.
///
/// [`Job::reduce`] reads its group through [`Values`], a lending cursor
/// over the shuffle merge: values arrive one at a time, so a reducer never
/// requires the whole group in memory. A reducer that needs random access
/// copies what it keeps.
pub trait Job: Send + Sync {
    /// One input record (map tasks receive contiguous slices of records).
    type Input: Send + Sync;
    /// Intermediate key, as the map side emits it.
    type Key: Send;
    /// Intermediate value, as the map side emits it.
    type Value: Send;
    /// Final output record.
    type Output: Send;

    /// Maps one input record to zero or more key/value pairs.
    fn map(&self, input: &Self::Input, emit: &mut Emitter<'_, Self>)
    where
        Self: Sized;

    /// Optional pre-aggregation of one key group: reads the group's encoded
    /// values and writes the combined ones to `out`. The combiner may
    /// reorder `values`. Default: every value passes through unchanged (no
    /// combiner).
    ///
    /// The engine combines each finalized map-side sort buffer — once per
    /// *spill* when spilling — and again in hierarchical merge passes, so a
    /// combiner may see any subset of a key's values, including values it
    /// produced itself. Combiners must therefore be associative and
    /// insensitive to such regrouping (the same contract Hadoop imposes).
    fn combine(&self, _key: &[u8], values: &mut [&[u8]], out: &mut Combined<'_>) {
        for value in values.iter() {
            out.push(value);
        }
    }

    /// Reduces the complete value stream of one key.
    fn reduce(&self, key: &[u8], values: &mut Values<'_, '_>, out: &mut Vec<Self::Output>);

    /// Serializes a key (must be injective).
    fn encode_key(&self, key: &Self::Key, buf: &mut Vec<u8>);
    /// Serializes a value.
    fn encode_value(&self, value: &Self::Value, buf: &mut Vec<u8>);
}

/// Where [`Job::combine`] writes one key group's combined values: each
/// pushed value becomes one record under the group's key.
pub struct Combined<'a> {
    key: &'a [u8],
    run: &'a mut RunBuffer,
    scratch: &'a mut Vec<u8>,
}

impl Combined<'_> {
    /// Appends one combined value.
    pub fn push(&mut self, value: &[u8]) {
        self.run.push(self.key, value);
    }

    /// Appends one combined value that `write` serializes into an empty
    /// buffer.
    pub fn push_with(&mut self, write: impl FnOnce(&mut Vec<u8>)) {
        self.scratch.clear();
        write(self.scratch);
        self.run.push(self.key, self.scratch);
    }
}

/// Runs the job's combiner over every key group of a sorted run, appending
/// the combined records — still sorted — to `out`. `scratch` backs
/// [`Combined::push_with`]. Shared by the map-side finalize and the
/// merge-pass combine.
pub(crate) fn combine_run<J: Job>(
    job: &J,
    run: &RunBuffer,
    out: &mut RunBuffer,
    scratch: &mut Vec<u8>,
) {
    let mut values: Vec<&[u8]> = Vec::new();
    let mut i = 0;
    while i < run.recs.len() {
        let first = &run.recs[i];
        let key = run.key(first);
        let mut j = i + 1;
        while j < run.recs.len()
            && run.recs[j].prefix == first.prefix
            && run.key(&run.recs[j]) == key
        {
            j += 1;
        }
        values.clear();
        values.extend(run.recs[i..j].iter().map(|r| run.value(r)));
        job.combine(
            key,
            &mut values,
            &mut Combined {
                key,
                run: out,
                scratch,
            },
        );
        i = j;
    }
}

/// The value stream of one reduce group: a lending cursor over encoded
/// values, read straight off the shuffle merge. A value borrows the cursor
/// until the next call to [`Values::next`]. The engine drains whatever the
/// reducer leaves, so the merge always moves on to the next group.
pub struct Values<'a, 'm> {
    merger: &'a mut Merger<'m>,
    key: &'a [u8],
    value: &'a mut Vec<u8>,
    records: u64,
    error: Option<EngineError>,
}

impl<'a, 'm> Values<'a, 'm> {
    /// The group of `key`, which must be the merge's next key; `value` is
    /// the buffer each value is read into.
    pub(crate) fn new(merger: &'a mut Merger<'m>, key: &'a [u8], value: &'a mut Vec<u8>) -> Self {
        Values {
            merger,
            key,
            value,
            records: 0,
            error: None,
        }
    }

    /// The next encoded value of the group, or `None` once it is exhausted.
    /// A merge error also ends the stream; the engine reports it when the
    /// reducer returns.
    #[allow(clippy::should_implement_trait)] // a lending cursor cannot be an `Iterator`
    pub fn next(&mut self) -> Option<&[u8]> {
        if self.error.is_some() || self.merger.peek_key() != Some(self.key) {
            return None;
        }
        match self.merger.pop_value_into(self.value) {
            Ok(()) => {
                self.records += 1;
                Some(self.value)
            }
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }

    /// Drains the values the reducer left and returns how many values the
    /// group held, or the first merge error.
    pub(crate) fn finish(mut self) -> Result<u64, EngineError> {
        while self.next().is_some() {}
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.records),
        }
    }
}

/// What a finished map task hands to the shuffle: either its sorted
/// partition buffers in memory, or the spill file holding its sorted runs.
#[derive(Debug)]
pub(crate) enum MapTaskOutput {
    /// One sorted (and combined) run per reduce partition, in memory.
    Mem(Vec<RunBuffer>),
    /// Every record was spilled; `runs` lists the file's sorted runs in
    /// spill order.
    Spilled {
        /// The task's spill file.
        file: PathBuf,
        /// Runs in (spill event, partition) order.
        runs: Vec<RunMeta>,
    },
}

/// One sort buffer per reduce partition: the unit a map task fills, and
/// hands whole to its spill thread.
pub(crate) type BufferSet = Vec<SortBuffer>;

fn empty_set(num_parts: usize) -> BufferSet {
    (0..num_parts).map(|_| SortBuffer::default()).collect()
}

/// The map thread's end of its spill thread.
pub(crate) struct Handoff {
    /// Buffered framed bytes past which the set being filled is handed off.
    pub(crate) threshold: usize,
    /// A rendezvous channel: a send returns once the spill thread has taken
    /// the set, so at most one set is being spilled while one is filled.
    pub(crate) full: SyncSender<BufferSet>,
    /// Sets the spill thread has written out: empty, with their capacity.
    pub(crate) emptied: Receiver<BufferSet>,
}

/// The map-side output collector: serializes each emitted pair through the
/// job's codec into per-partition sort buffers (Hadoop's map-side sort
/// buffer). A spilling task hands each full set of buffers to its spill
/// thread and keeps emitting into the set the thread emptied last.
pub struct Emitter<'a, J: Job> {
    job: &'a J,
    num_parts: usize,
    use_combiner: bool,
    /// The set being filled.
    parts: BufferSet,
    /// Framed bytes in `parts`.
    buffered: usize,
    /// Set iff the task spills.
    handoff: Option<Handoff>,
    /// A set was handed off: the spill thread owns the task's output.
    spilled: bool,
    /// A hand-off failed because the spill thread is gone: emit is a no-op
    /// from then on, and the task reports the spill thread's error.
    stopped: bool,
    records: u64,
    counters: &'a Counters,
    kbuf: Vec<u8>,
    vbuf: Vec<u8>,
}

impl<'a, J: Job> Emitter<'a, J> {
    pub(crate) fn new(
        job: &'a J,
        num_parts: usize,
        use_combiner: bool,
        handoff: Option<Handoff>,
        counters: &'a Counters,
    ) -> Self {
        Emitter {
            job,
            num_parts,
            use_combiner,
            parts: empty_set(num_parts),
            buffered: 0,
            handoff,
            spilled: false,
            stopped: false,
            records: 0,
            counters,
            kbuf: Vec::new(),
            vbuf: Vec::new(),
        }
    }

    /// Emits one key/value pair.
    pub fn emit(&mut self, key: J::Key, value: J::Value) {
        self.emit_ref(&key, &value);
    }

    /// Emits one key/value pair by reference: the pair is serialized on the
    /// spot, so a map loop can reuse one key and one value for every record.
    pub fn emit_ref(&mut self, key: &J::Key, value: &J::Value) {
        if self.stopped {
            return;
        }
        self.records += 1;
        self.kbuf.clear();
        self.job.encode_key(key, &mut self.kbuf);
        self.vbuf.clear();
        self.job.encode_value(value, &mut self.vbuf);
        let part = partition_of(&self.kbuf, self.num_parts);
        self.buffered += self.parts[part].push(&self.kbuf, &self.vbuf);
        if self
            .handoff
            .as_ref()
            .is_some_and(|h| self.buffered > h.threshold)
        {
            self.hand_off();
        }
    }

    /// Hands the set being filled to the spill thread, waiting until the
    /// thread takes it, and carries on with the set it emptied last (a new
    /// one on the first hand-off).
    fn hand_off(&mut self) {
        let handoff = self.handoff.as_ref().expect("only spilling tasks hand off");
        self.raise_peak();
        self.buffered = 0;
        self.spilled = true;
        if handoff.full.send(std::mem::take(&mut self.parts)).is_err() {
            self.stopped = true;
            return;
        }
        // The spill thread sends a set back before it takes the next, so
        // from the second hand-off on the previous set is already here.
        self.parts = handoff
            .emptied
            .try_recv()
            .unwrap_or_else(|_| empty_set(self.num_parts));
    }

    /// Publishes the task's resident high-water mark. `buffered` only grows
    /// between hand-offs, so it is at its peak right before a set leaves —
    /// once per spill and once at the end, instead of two atomic
    /// read-modify-writes on lines every map thread shares per record.
    fn raise_peak(&self) {
        Counters::raise(&self.counters.peak_resident_bytes, self.buffered as u64);
    }

    /// Ends emission, returning the task's output unless its spill thread
    /// owns it, and the number of emitted records. A task that handed off a
    /// set hands off the rest too; one that never did finalizes its buffers
    /// in memory. Dropping the emitter closes the hand-off channel, which
    /// tells the spill thread to end the spill file.
    pub(crate) fn finish(mut self) -> (Option<MapTaskOutput>, u64) {
        if self.spilled {
            if self.buffered > 0 {
                self.hand_off();
            }
            return (None, self.records);
        }
        self.raise_peak();
        let mut finalizer = Finalizer::new(self.job, self.use_combiner, self.counters);
        // Each buffer drops once finalized, so a combined task never holds
        // all its raw and all its combined bytes at once.
        let parts = std::mem::take(&mut self.parts)
            .into_iter()
            .map(|mut buf| finalizer.finalize(&mut buf))
            .collect();
        (Some(MapTaskOutput::Mem(parts)), self.records)
    }
}

/// The one finalize step, shared by the spill thread and a task's
/// in-memory output: for each partition buffer, build references → sort →
/// combine → count the shipped bytes.
struct Finalizer<'a, J: Job> {
    job: &'a J,
    use_combiner: bool,
    counters: &'a Counters,
    /// Map-side sort (and combine) latency, recorded once per finalized
    /// partition buffer.
    sort_hist: lash_obs::Histogram,
    /// Reference vector for the next sort.
    refs: Vec<RecordRef>,
    /// The radix sort's second reference array.
    sort_scratch: Vec<RecordRef>,
    /// Combine output for the next combine.
    combined: RunBuffer,
    /// Backs [`Combined::push_with`].
    scratch: Vec<u8>,
}

impl<'a, J: Job> Finalizer<'a, J> {
    fn new(job: &'a J, use_combiner: bool, counters: &'a Counters) -> Self {
        Finalizer {
            job,
            use_combiner,
            counters,
            sort_hist: lash_obs::global().histogram("mapreduce.sort_us"),
            refs: Vec::new(),
            sort_scratch: Vec::new(),
            combined: RunBuffer::default(),
            scratch: Vec::new(),
        }
    }

    /// Turns one partition buffer into a sorted, combined run and counts
    /// its shipped bytes. An uncombined run holds the buffer's own bytes,
    /// moved, not copied; combining hands them back to the buffer.
    fn finalize(&mut self, buf: &mut SortBuffer) -> RunBuffer {
        let started = Instant::now();
        let sorted = buf.sort_into(std::mem::take(&mut self.refs), &mut self.sort_scratch);
        let run = if self.use_combiner {
            let mut out = std::mem::take(&mut self.combined);
            combine_run(self.job, &sorted, &mut out, &mut self.scratch);
            Counters::add(&self.counters.combine_input_records, sorted.len() as u64);
            Counters::add(&self.counters.combine_output_records, out.len() as u64);
            self.give_back(buf, sorted);
            out
        } else {
            sorted
        };
        self.sort_hist.record_duration(started.elapsed());
        let mut payload = 0u64;
        for r in &run.recs {
            payload += (r.key_len as usize + run.value(r).len()) as u64;
        }
        Counters::add(&self.counters.map_output_bytes, payload);
        Counters::add(
            &self.counters.map_output_materialized_bytes,
            run.data.len() as u64,
        );
        run
    }

    /// Takes back the allocations of a run that has been written out, so
    /// the next finalize of `buf` (the run's source) reuses them.
    fn recycle(&mut self, buf: &mut SortBuffer, mut run: RunBuffer) {
        if self.use_combiner {
            run.clear();
            self.combined = run;
        } else {
            self.give_back(buf, run);
        }
    }

    /// Returns a sorted run's bytes to the buffer they came from and keeps
    /// its references for the next sort.
    fn give_back(&mut self, buf: &mut SortBuffer, run: RunBuffer) {
        buf.reuse(run.data);
        self.refs = run.recs;
    }
}

/// The body of a map task's spill thread. It takes each full set off
/// `full`, finalizes every non-empty buffer into one run of the spill file
/// at `path` (created with the first set), and sends the emptied set back
/// on `emptied`. When the map thread closes `full` it ends the file and
/// returns the task's output, or `None` if no set ever came: the task
/// kept its output in memory.
///
/// An error returns at once and drops `full`'s receiving end, so the map
/// thread's pending or next hand-off fails and it stops emitting: neither
/// thread waits on the other.
pub(crate) fn spill_sets<J: Job>(
    job: &J,
    use_combiner: bool,
    path: PathBuf,
    full: Receiver<BufferSet>,
    emptied: Sender<BufferSet>,
    counters: &Counters,
) -> Result<Option<MapTaskOutput>, EngineError> {
    let Ok(mut set) = full.recv() else {
        return Ok(None);
    };
    let mut writer = SpillWriter::create(path)?;
    let mut finalizer = Finalizer::new(job, use_combiner, counters);
    // Spill latency (sort + combine + run writes), recorded once per set. A
    // histogram rather than per-spill span events: with a forced threshold
    // of 0 every record spills, and the event pipeline must not run per
    // record.
    let spill_hist = lash_obs::global().histogram("mapreduce.spill_us");
    let mut runs: Vec<RunMeta> = Vec::new();
    let (mut spills, mut bytes) = (0u64, 0u64);
    loop {
        let started = Instant::now();
        for (part, buf) in set.iter_mut().enumerate() {
            if buf.is_empty() {
                continue;
            }
            let run = finalizer.finalize(buf);
            let meta = writer.write_run(part as u32, &run)?;
            finalizer.recycle(buf, run);
            Counters::add(&counters.spilled_bytes, meta.len);
            Counters::add(&counters.spilled_runs, 1);
            bytes += meta.len;
            runs.push(meta);
        }
        spills += 1;
        spill_hist.record_duration(started.elapsed());
        // Fails only once the map thread has finished; the set just drops.
        let _ = emptied.send(set);
        set = match full.recv() {
            Ok(next) => next,
            Err(_) => break,
        };
    }
    let file = writer.finish()?;
    // One summary event per spilled task, not per spill (see `spill_hist`),
    // under the map task's span: this thread entered its trace context.
    lash_obs::global().emit_event(
        "spill_summary",
        "mapreduce.spill",
        &[
            ("spills", spills.into()),
            ("runs", runs.len().into()),
            ("bytes", bytes.into()),
        ],
    );
    Ok(Some(MapTaskOutput::Spilled { file, runs }))
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::config::EngineConfig;
    use crate::counters::CounterSnapshot;
    use crate::spill::SpillSpace;

    /// Identity codec over byte-string keys and u8 values; each input is
    /// one pair, emitted by value or, with `by_ref`, by reference.
    struct ByteJob {
        by_ref: bool,
    }

    const BYTE_JOB: ByteJob = ByteJob { by_ref: false };

    impl Job for ByteJob {
        type Input = (Vec<u8>, u8);
        type Key = Vec<u8>;
        type Value = u8;
        type Output = ();

        fn map(&self, (key, value): &(Vec<u8>, u8), emit: &mut Emitter<'_, Self>) {
            if self.by_ref {
                emit.emit_ref(key, value);
            } else {
                emit.emit(key.clone(), *value);
            }
        }
        fn combine(&self, _key: &[u8], values: &mut [&[u8]], out: &mut Combined<'_>) {
            let sum = values.iter().fold(0u8, |acc, v| acc.wrapping_add(v[0]));
            out.push_with(|buf| buf.push(sum));
        }
        fn reduce(&self, _key: &[u8], _values: &mut Values<'_, '_>, _out: &mut Vec<()>) {}
        fn encode_key(&self, key: &Vec<u8>, buf: &mut Vec<u8>) {
            buf.extend_from_slice(key);
        }
        fn encode_value(&self, value: &u8, buf: &mut Vec<u8>) {
            buf.push(*value);
        }
    }

    /// Runs one map task of `job` over `pairs` with `parts` reduce
    /// partitions, returning its output and the counters it left.
    fn map_task(
        job: &ByteJob,
        pairs: &[(Vec<u8>, u8)],
        parts: usize,
        combiner: bool,
        threshold: Option<usize>,
    ) -> (MapTaskOutput, CounterSnapshot) {
        let config = EngineConfig::sequential()
            .with_reduce_tasks(parts)
            .with_combiner(combiner)
            .with_spill_threshold(threshold);
        let space = threshold.map(|_| SpillSpace::create(None).unwrap());
        let counters = Counters::default();
        let output = crate::runtime::run_map_task(
            job,
            pairs,
            parts,
            &config,
            space.as_ref(),
            0,
            0,
            &counters,
        )
        .unwrap();
        (output, counters.snapshot())
    }

    fn pairs(list: &[(&[u8], u8)]) -> Vec<(Vec<u8>, u8)> {
        list.iter().map(|&(k, v)| (k.to_vec(), v)).collect()
    }

    #[test]
    fn emitter_sorts_and_groups_in_memory() {
        let input = pairs(&[(b"b", 1), (b"a", 2), (b"b", 3)]);
        let (output, s) = map_task(&BYTE_JOB, &input, 1, false, None);
        assert_eq!(s.map_output_records, 3);
        let MapTaskOutput::Mem(parts) = output else {
            panic!("no threshold, no spill");
        };
        let run = &parts[0];
        let pairs: Vec<(Vec<u8>, u8)> = run
            .recs
            .iter()
            .map(|r| (run.key(r).to_vec(), run.value(r)[0]))
            .collect();
        // Sorted by key, emission order within equal keys.
        assert_eq!(
            pairs,
            vec![(b"a".to_vec(), 2), (b"b".to_vec(), 1), (b"b".to_vec(), 3)]
        );
        assert!(s.map_output_bytes > 0);
        assert_eq!(s.spilled_bytes, 0);
        // Never spilled: every framed byte was resident when the task ended.
        assert_eq!(s.peak_resident_bytes, s.map_output_materialized_bytes);
    }

    #[test]
    fn emit_ref_serializes_like_emit() {
        let input = pairs(&[(b"b", 1), (b"a", 2), (b"b", 3)]);
        let runs = |by_ref: bool| {
            let (output, s) = map_task(&ByteJob { by_ref }, &input, 2, false, None);
            let MapTaskOutput::Mem(parts) = output else {
                panic!("no threshold, no spill");
            };
            let data: Vec<Vec<u8>> = parts.into_iter().map(|run| run.data).collect();
            (data, s.map_output_records, s.peak_resident_bytes)
        };
        assert_eq!(runs(true), runs(false));
    }

    #[test]
    fn emitter_combines_per_key_group() {
        let input = pairs(&[(b"k", 10), (b"k", 20), (b"other", 1)]);
        let (output, s) = map_task(&BYTE_JOB, &input, 1, true, None);
        let MapTaskOutput::Mem(parts) = output else {
            panic!("no threshold, no spill");
        };
        let run = &parts[0];
        assert_eq!(run.len(), 2);
        assert_eq!(run.value(&run.recs[0]), &[30]);
        assert_eq!(s.combine_input_records, 3);
        assert_eq!(s.combine_output_records, 2);
    }

    #[test]
    fn zero_threshold_spills_every_record() {
        let input: Vec<(Vec<u8>, u8)> = (0..5u8).map(|i| (vec![i], i)).collect();
        let (output, s) = map_task(&BYTE_JOB, &input, 2, true, Some(0));
        assert_eq!(s.map_output_records, 5);
        let MapTaskOutput::Spilled { runs, .. } = output else {
            panic!("threshold 0 must spill");
        };
        assert_eq!(runs.len(), 5);
        assert_eq!(s.spilled_runs, 5);
        assert!(s.spilled_bytes > 0);
        // Each spill held one framed record: two length bytes, key, value.
        assert_eq!(s.peak_resident_bytes, 4);
    }

    /// The map thread tests the threshold as it appends, so a set leaves
    /// right after the record that takes it past the threshold, and the
    /// last, partial set is spilled when the task ends.
    #[test]
    fn spills_happen_where_the_threshold_is_crossed() {
        // Four framed bytes per record: a set leaves at 8 bytes > 5.
        let input: Vec<(Vec<u8>, u8)> = (0..7u8).map(|i| (vec![i], i)).collect();
        let (output, s) = map_task(&BYTE_JOB, &input, 1, false, Some(5));
        let MapTaskOutput::Spilled { runs, .. } = output else {
            panic!("the threshold is crossed, so the task spills");
        };
        let records: Vec<u64> = runs.iter().map(|r| r.records).collect();
        assert_eq!(records, [2, 2, 2, 1]);
        assert_eq!(s.peak_resident_bytes, 8);
        assert_eq!(s.map_output_materialized_bytes, 28);
    }

    /// A threshold no set crosses keeps the task's output in memory,
    /// though the task ran a spill thread.
    #[test]
    fn a_task_under_the_threshold_never_spills() {
        let input = pairs(&[(b"b", 1), (b"a", 2)]);
        let (output, s) = map_task(&BYTE_JOB, &input, 2, true, Some(1 << 20));
        assert!(matches!(output, MapTaskOutput::Mem(_)));
        assert_eq!(s.spilled_runs, 0);
        assert_eq!(s.peak_resident_bytes, 8);
    }
}

//! The [`Job`] trait — typed map-side emission and codec, byte-level
//! combine and reduce — its two byte-level views ([`Combined`] and
//! [`Values`]), and the [`Emitter`], the map-side sort buffer that
//! serializes, sorts, combines, and (when the engine runs out-of-core)
//! spills map output.

use std::path::PathBuf;

use crate::counters::Counters;
use crate::error::EngineError;
use crate::merge::Merger;
use crate::shuffle::{partition_of, RunBuffer};
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
/// [`Combined::push_with`].
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

/// The map-side output collector: serializes each emitted pair through the
/// job's codec into per-partition sort buffers (Hadoop's map-side sort
/// buffer), spilling sorted runs to disk whenever the configured threshold
/// is exceeded.
pub struct Emitter<'a, J: Job> {
    job: &'a J,
    num_parts: usize,
    use_combiner: bool,
    threshold: Option<usize>,
    /// Per-partition unsorted record buffers.
    parts: Vec<RunBuffer>,
    /// Serialized bytes currently buffered across all partitions.
    buffered: usize,
    /// Target spill file (set iff the threshold is set).
    spill_path: Option<PathBuf>,
    writer: Option<SpillWriter>,
    runs: Vec<RunMeta>,
    records: u64,
    counters: &'a Counters,
    kbuf: Vec<u8>,
    vbuf: Vec<u8>,
    /// First spill failure; emit becomes a no-op afterwards and the task
    /// reports the error when it finishes.
    error: Option<EngineError>,
    /// Map-side sort (and combine) latency, looked up once per task and
    /// recorded once per finalized partition buffer.
    sort_hist: lash_obs::Histogram,
    /// Spill latency (sort + combine + run writes), recorded once per
    /// spill event. A histogram rather than per-spill span events: with a
    /// forced threshold of 0 every record spills, and the event pipeline
    /// must not run per record.
    spill_hist: lash_obs::Histogram,
    /// The trace context of the enclosing map-task span, captured at
    /// construction (on the worker thread) and attached to the one
    /// `spill_summary` event a spilled task emits when it finishes.
    trace: Option<lash_obs::trace::TraceCtx>,
    /// Spill events and bytes of *this* task, for the summary event
    /// (the shared `Counters` aggregate across tasks).
    spill_events: u64,
    spill_bytes: u64,
}

impl<'a, J: Job> Emitter<'a, J> {
    pub(crate) fn new(
        job: &'a J,
        num_parts: usize,
        use_combiner: bool,
        threshold: Option<usize>,
        spill_path: Option<PathBuf>,
        counters: &'a Counters,
    ) -> Self {
        debug_assert!(
            threshold.is_none() || spill_path.is_some(),
            "a spill threshold requires a spill file"
        );
        Emitter {
            job,
            num_parts,
            use_combiner,
            threshold,
            parts: (0..num_parts).map(|_| RunBuffer::default()).collect(),
            buffered: 0,
            spill_path,
            writer: None,
            runs: Vec::new(),
            records: 0,
            counters,
            kbuf: Vec::new(),
            vbuf: Vec::new(),
            error: None,
            sort_hist: lash_obs::global().histogram("mapreduce.sort_us"),
            spill_hist: lash_obs::global().histogram("mapreduce.spill_us"),
            trace: lash_obs::trace::current(),
            spill_events: 0,
            spill_bytes: 0,
        }
    }

    /// Emits one key/value pair.
    pub fn emit(&mut self, key: J::Key, value: J::Value) {
        self.emit_ref(&key, &value);
    }

    /// Emits one key/value pair by reference: the pair is serialized on the
    /// spot, so a map loop can reuse one key and one value for every record.
    pub fn emit_ref(&mut self, key: &J::Key, value: &J::Value) {
        if self.error.is_some() {
            return;
        }
        self.records += 1;
        self.kbuf.clear();
        self.job.encode_key(key, &mut self.kbuf);
        self.vbuf.clear();
        self.job.encode_value(value, &mut self.vbuf);
        let part = partition_of(&self.kbuf, self.num_parts);
        let (_, materialized) = self.parts[part].push(&self.kbuf, &self.vbuf);
        self.buffered += materialized as usize;
        if self.threshold.is_some_and(|t| self.buffered > t) {
            if let Err(e) = self.spill() {
                self.error = Some(e);
            }
        }
    }

    /// Sorts, combines, and writes every non-empty partition buffer as one
    /// run in the task's spill file, then resets the buffers.
    fn spill(&mut self) -> Result<(), EngineError> {
        let spill_started = std::time::Instant::now();
        self.raise_peak();
        if self.writer.is_none() {
            let path = self
                .spill_path
                .clone()
                .expect("spill threshold requires a spill file");
            self.writer = Some(SpillWriter::create(path)?);
        }
        for part in 0..self.num_parts {
            if self.parts[part].is_empty() {
                continue;
            }
            let run = self.finalize_partition(part);
            let writer = self.writer.as_mut().expect("writer created above");
            let meta = writer.write_run(part as u32, &run)?;
            Counters::add(&self.counters.spilled_bytes, meta.len);
            Counters::add(&self.counters.spilled_runs, 1);
            self.spill_bytes += meta.len;
            self.runs.push(meta);
        }
        self.buffered = 0;
        self.spill_events += 1;
        self.spill_hist.record_duration(spill_started.elapsed());
        Ok(())
    }

    /// Publishes the task's resident high-water mark. `buffered` only grows
    /// between spills, so it is at its peak right before the buffers are
    /// flushed — once per spill and once at the end, instead of two atomic
    /// read-modify-writes on lines every map thread shares per record.
    fn raise_peak(&self) {
        Counters::raise(&self.counters.peak_resident_bytes, self.buffered as u64);
    }

    /// Takes one partition buffer, sorts it, applies the combiner, and
    /// accounts the shipped bytes.
    fn finalize_partition(&mut self, part: usize) -> RunBuffer {
        let sort_started = std::time::Instant::now();
        let mut buf = std::mem::take(&mut self.parts[part]);
        buf.sort();
        let run = if self.use_combiner && !buf.is_empty() {
            self.combine_sorted(buf)
        } else {
            buf
        };
        self.sort_hist.record_duration(sort_started.elapsed());
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

    /// Runs the combiner over each key group of a sorted buffer, rebuilding
    /// a (still sorted) buffer from the combined values.
    fn combine_sorted(&mut self, buf: RunBuffer) -> RunBuffer {
        let mut out = RunBuffer::default();
        combine_run(self.job, &buf, &mut out, &mut self.vbuf);
        Counters::add(&self.counters.combine_input_records, buf.len() as u64);
        Counters::add(&self.counters.combine_output_records, out.len() as u64);
        out
    }

    /// Finishes the map task: flushes a final spill if the task spilled
    /// before, otherwise finalizes the buffers in memory. Returns the task
    /// output and the number of raw emitted records.
    pub(crate) fn finish(mut self) -> Result<(MapTaskOutput, u64), EngineError> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let records = self.records;
        if self.writer.is_some() {
            self.spill()?;
            let writer = self.writer.take().expect("spilled at least once");
            let file = writer.finish()?;
            let runs = std::mem::take(&mut self.runs);
            // One summary event per spilled task (not per spill — see
            // `spill_hist`), tied to the task's span via the captured
            // context.
            lash_obs::global().emit_event_with(
                self.trace,
                "spill_summary",
                "mapreduce.spill",
                &[
                    ("spills", self.spill_events.into()),
                    ("runs", runs.len().into()),
                    ("bytes", self.spill_bytes.into()),
                ],
            );
            Ok((MapTaskOutput::Spilled { file, runs }, records))
        } else {
            self.raise_peak();
            let parts: Vec<RunBuffer> = (0..self.num_parts)
                .map(|p| self.finalize_partition(p))
                .collect();
            Ok((MapTaskOutput::Mem(parts), records))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Identity codec over byte-string keys and u8 values.
    struct ByteJob;

    impl Job for ByteJob {
        type Input = ();
        type Key = Vec<u8>;
        type Value = u8;
        type Output = ();

        fn map(&self, _input: &(), _emit: &mut Emitter<'_, Self>) {}
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

    #[test]
    fn emitter_sorts_and_groups_in_memory() {
        let counters = Counters::default();
        let mut emitter = Emitter::new(&ByteJob, 1, false, None, None, &counters);
        emitter.emit(b"b".to_vec(), 1);
        emitter.emit(b"a".to_vec(), 2);
        emitter.emit(b"b".to_vec(), 3);
        let (output, records) = emitter.finish().unwrap();
        assert_eq!(records, 3);
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
        let s = counters.snapshot();
        assert!(s.map_output_bytes > 0);
        assert_eq!(s.spilled_bytes, 0);
        // Never spilled: every framed byte was resident when the task ended.
        assert_eq!(s.peak_resident_bytes, s.map_output_materialized_bytes);
    }

    #[test]
    fn emit_ref_serializes_like_emit() {
        let runs = |by_ref: bool| {
            let counters = Counters::default();
            let mut emitter = Emitter::new(&ByteJob, 2, false, None, None, &counters);
            for (key, value) in [(b"b".to_vec(), 1u8), (b"a".to_vec(), 2), (b"b".to_vec(), 3)] {
                if by_ref {
                    emitter.emit_ref(&key, &value);
                } else {
                    emitter.emit(key, value);
                }
            }
            let (output, records) = emitter.finish().unwrap();
            let MapTaskOutput::Mem(parts) = output else {
                panic!("no threshold, no spill");
            };
            let data: Vec<Vec<u8>> = parts.into_iter().map(|run| run.data).collect();
            (data, records, counters.snapshot().peak_resident_bytes)
        };
        assert_eq!(runs(true), runs(false));
    }

    #[test]
    fn emitter_combines_per_key_group() {
        let counters = Counters::default();
        let mut emitter = Emitter::new(&ByteJob, 1, true, None, None, &counters);
        emitter.emit(b"k".to_vec(), 10);
        emitter.emit(b"k".to_vec(), 20);
        emitter.emit(b"other".to_vec(), 1);
        let (output, _) = emitter.finish().unwrap();
        let MapTaskOutput::Mem(parts) = output else {
            panic!("no threshold, no spill");
        };
        let run = &parts[0];
        assert_eq!(run.len(), 2);
        assert_eq!(run.value(&run.recs[0]), &[30]);
        let s = counters.snapshot();
        assert_eq!(s.combine_input_records, 3);
        assert_eq!(s.combine_output_records, 2);
    }

    #[test]
    fn zero_threshold_spills_every_record() {
        let counters = Counters::default();
        let space = crate::spill::SpillSpace::create(None).unwrap();
        let mut emitter = Emitter::new(
            &ByteJob,
            2,
            true,
            Some(0),
            Some(space.task_file(0, 0)),
            &counters,
        );
        for i in 0..5u8 {
            emitter.emit(vec![i], i);
        }
        let (output, records) = emitter.finish().unwrap();
        assert_eq!(records, 5);
        let MapTaskOutput::Spilled { runs, .. } = output else {
            panic!("threshold 0 must spill");
        };
        assert_eq!(runs.len(), 5);
        let s = counters.snapshot();
        assert_eq!(s.spilled_runs, 5);
        assert!(s.spilled_bytes > 0);
        // Each spill held one framed record: two length bytes, key, value.
        assert_eq!(s.peak_resident_bytes, 4);
    }
}

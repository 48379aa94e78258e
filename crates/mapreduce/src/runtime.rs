//! The execution engine: splits, task scheduling, retries, the external-sort
//! shuffle, and per-phase timing.
//!
//! Execution proceeds in three synchronized phases so their wall-clock costs
//! can be reported separately (the paper's stacked map/shuffle/reduce bars):
//!
//! 1. **map** — input splits are processed by a pool of worker threads; each
//!    task serializes its output into per-partition sort buffers, sorting and
//!    combining on finalize (Hadoop's map-side sort). With a spill threshold
//!    configured, each task attempt runs one spill thread beside its map
//!    thread: whenever the buffers outgrow the threshold, the map thread
//!    hands the full set over and keeps mapping into an emptied one, while
//!    the spill thread sorts, combines and writes the set as runs of the
//!    task's spill file;
//! 2. **shuffle** — the sorted runs (in-memory buffers and on-disk spill
//!    runs) are assembled into one run list per reduce partition;
//! 3. **reduce** — each reduce task k-way merges its partition's runs and
//!    *streams* key groups into the reducer: encoded values are read one at
//!    a time off the merge, so no partition is ever materialized. A partition
//!    with more runs than [`EngineConfig::merge_fan_in`] is merged
//!    *hierarchically* (Hadoop's `io.sort.factor`): adjacent groups of at
//!    most `merge_fan_in` runs are pre-merged into intermediate on-disk
//!    runs — counted by the `merge_passes` counter — closing each group's
//!    file handles between passes, so a job with thousands of spilled map
//!    tasks never pins thousands of fds or resident chunks at once.
//!
//! Compared to the engine's original all-in-memory shuffle, the sort cost
//! now lands in the map phase and the merge cost in the reduce phase;
//! `shuffle_time` covers run-list assembly. Outputs are byte-identical
//! between the in-memory (`spill_threshold_bytes: None`) and spilled paths:
//! the merge's (key bytes, run sequence) order reproduces exactly the stable
//! global sort the old shuffle performed.
//!
//! Failed task attempts (via [`crate::FailurePlan`]) are retried in
//! subsequent scheduling rounds, up to `max_attempts`; retries are invisible
//! in the output, as in Hadoop. Spill I/O errors and corrupt runs are fatal
//! (deterministic re-execution cannot heal them).

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use crate::config::{EngineConfig, Phase};
use crate::counters::{CounterSnapshot, Counters};
use crate::error::EngineError;
use crate::merge::{Merger, RunSource};
use crate::shuffle::RunBuffer;
use crate::spill::{RunMeta, SharedFile, SpillSpace, SpillWriter, SPILL_CHUNK_BYTES};
use crate::types::{combine_run, spill_sets, Emitter, Handoff, Job, MapTaskOutput, Values};

/// Wall-clock and counter metrics of one job run.
#[derive(Debug, Clone, Default)]
pub struct JobMetrics {
    /// Map phase wall time (includes map-side sort, combine, and spills,
    /// which overlap with mapping on each task's spill thread).
    pub map_time: Duration,
    /// Shuffle (run assembly) phase wall time.
    pub shuffle_time: Duration,
    /// Reduce phase wall time (includes the k-way merge).
    pub reduce_time: Duration,
    /// Total job wall time.
    pub total_time: Duration,
    /// Counter snapshot.
    pub counters: CounterSnapshot,
}

impl JobMetrics {
    /// Merges metrics of consecutive jobs: phase times add up, and the
    /// counter fold (sum vs. max) is the one each field declared in
    /// `define_counters!` — see [`CounterSnapshot::merge`].
    pub fn accumulate(&mut self, other: &JobMetrics) {
        self.map_time += other.map_time;
        self.shuffle_time += other.shuffle_time;
        self.reduce_time += other.reduce_time;
        self.total_time += other.total_time;
        self.counters.merge(&other.counters);
    }
}

/// Outputs plus metrics of a completed job.
#[derive(Debug)]
pub struct JobResult<O> {
    /// Reduce outputs, concatenated in reduce-partition order.
    pub outputs: Vec<O>,
    /// Run metrics.
    pub metrics: JobMetrics,
}

/// Runs `job` over `inputs` under `config`.
///
/// Tracing: the run opens a `mapreduce.job` span — a child of whatever
/// span is active on the calling thread (e.g. the miner's `mine.job`), or
/// a fresh trace root. Each phase span and each worker-side task span is
/// parented under it, and a typed error surfacing from the run triggers a
/// flight-recorder dump carrying this trace's id.
pub fn run_job<J: Job>(
    job: &J,
    inputs: &[J::Input],
    config: &EngineConfig,
) -> Result<JobResult<J::Output>, EngineError> {
    let _job_span = lash_obs::span!(
        "mapreduce.job",
        inputs = inputs.len(),
        reduce_tasks = config.num_reduce_tasks.max(1)
    );
    let result = run_job_inner(job, inputs, config);
    if let Err(e) = &result {
        lash_obs::flight::record_error("mapreduce.job", &e.to_string());
    }
    result
}

fn run_job_inner<J: Job>(
    job: &J,
    inputs: &[J::Input],
    config: &EngineConfig,
) -> Result<JobResult<J::Output>, EngineError> {
    let started = Instant::now();
    let counters = Counters::default();
    let num_parts = config.num_reduce_tasks.max(1);

    // The spill directory lives exactly as long as the job run; dropping it
    // (on success *or* error) removes every spill file.
    let spill_space = match config.spill_threshold_bytes {
        Some(_) => Some(SpillSpace::create(config.spill_dir.as_deref())?),
        None => None,
    };

    // ---- Map phase -------------------------------------------------------
    let splits: Vec<std::ops::Range<usize>> = split_ranges(inputs.len(), config.split_size);
    let map_span = PhaseSpan::start("mapreduce.map", splits.len());
    let map_outputs = run_with_retries(
        splits.len(),
        config.map_parallelism,
        config.max_attempts,
        Phase::Map,
        map_span.ctx,
        &counters,
        |task, attempt| {
            if config.failure_plan.should_fail(Phase::Map, task, attempt) {
                return Ok(None);
            }
            run_map_task(
                job,
                &inputs[splits[task].clone()],
                num_parts,
                config,
                spill_space.as_ref(),
                task,
                attempt,
                &counters,
            )
            .map(Some)
        },
    );
    let map_time = map_span.end();
    let map_outputs = map_outputs?;

    // ---- Shuffle phase: assemble each partition's run list --------------
    // Disk runs are referenced by *path* here, not by open handle: reduce
    // tasks open at most `merge_fan_in` runs' files per merge pass and close
    // them between passes, so the job never pins one fd per spilled map
    // task across the whole reduce phase.
    let shuffle_started = Instant::now();
    let mut sources: Vec<Vec<ReduceRun<'_>>> = (0..num_parts).map(|_| Vec::new()).collect();
    for output in &map_outputs {
        match output {
            MapTaskOutput::Mem(parts) => {
                for (part, run) in parts.iter().enumerate() {
                    if !run.is_empty() {
                        sources[part].push(ReduceRun::Mem(run));
                    }
                }
            }
            MapTaskOutput::Spilled { file, runs } => {
                let path = Arc::new(file.clone());
                for meta in runs {
                    sources[meta.partition as usize].push(ReduceRun::Disk {
                        path: Arc::clone(&path),
                        meta: meta.clone(),
                        temp: false,
                    });
                }
            }
        }
    }
    let shuffle_time = shuffle_started.elapsed();
    lash_obs::global().observe_span("mapreduce.shuffle", shuffle_time, &[]);

    // ---- Reduce phase ----------------------------------------------------
    let reduce_span = PhaseSpan::start("mapreduce.reduce", num_parts);
    let reduce_outputs = run_with_retries(
        num_parts,
        config.reduce_parallelism,
        config.max_attempts,
        Phase::Reduce,
        reduce_span.ctx,
        &counters,
        |task, attempt| {
            if config
                .failure_plan
                .should_fail(Phase::Reduce, task, attempt)
            {
                return Ok(None);
            }
            run_reduce_task(
                job,
                &sources[task],
                task,
                config,
                spill_space.as_ref(),
                &counters,
            )
            .map(Some)
        },
    );
    let reduce_time = reduce_span.end();
    let reduce_outputs = reduce_outputs?;

    let outputs: Vec<J::Output> = reduce_outputs.into_iter().flatten().collect();
    drop(sources);
    drop(map_outputs);
    drop(spill_space);
    Ok(JobResult {
        outputs,
        metrics: JobMetrics {
            map_time,
            shuffle_time,
            reduce_time,
            total_time: started.elapsed(),
            counters: counters.snapshot(),
        },
    })
}

/// The span of a map or reduce phase. The phase derives its context up
/// front and hands it to its workers, which do not inherit this thread's
/// trace stack, so their task spans parent under the phase span. The span
/// is recorded when the guard drops: after the workers join, or while a
/// panic unwinds out of them, so an aborted phase still leaves its task
/// spans a parent in the trace.
struct PhaseSpan {
    ctx: Option<lash_obs::trace::TraceCtx>,
    name: &'static str,
    tasks: usize,
    started: Instant,
}

impl PhaseSpan {
    fn start(name: &'static str, tasks: usize) -> PhaseSpan {
        PhaseSpan {
            ctx: lash_obs::trace::current().map(|c| c.child()),
            name,
            tasks,
            started: Instant::now(),
        }
    }

    /// Ends the phase, recording its span, and returns its wall time.
    fn end(self) -> Duration {
        self.started.elapsed()
    }
}

impl Drop for PhaseSpan {
    fn drop(&mut self) {
        lash_obs::global().observe_span_with(
            self.ctx,
            self.name,
            self.started.elapsed(),
            &[("tasks", self.tasks.into())],
        );
    }
}

/// Runs one map task attempt. With a spill threshold the attempt gets one
/// spill thread: this thread only maps, encodes and appends, and hands each
/// full set of sort buffers over to be sorted, combined and written while
/// it keeps mapping.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_map_task<J: Job>(
    job: &J,
    records: &[J::Input],
    num_parts: usize,
    config: &EngineConfig,
    spill_space: Option<&SpillSpace>,
    task: usize,
    attempt: u32,
    counters: &Counters,
) -> Result<MapTaskOutput, EngineError> {
    let map_all = |handoff: Option<Handoff>| {
        let mut emitter = Emitter::new(job, num_parts, config.use_combiner, handoff, counters);
        for record in records {
            job.map(record, &mut emitter);
        }
        emitter.finish()
    };
    let (output, emitted) = match config.spill_threshold_bytes {
        None => {
            let (output, emitted) = map_all(None);
            (
                output.expect("a task without a spill thread keeps its output"),
                emitted,
            )
        }
        Some(threshold) => {
            let path = spill_space
                .expect("a spill threshold creates a spill space")
                .task_file(task, attempt);
            // The spill thread reports under this task's span.
            let trace = lash_obs::trace::current();
            std::thread::scope(|scope| {
                let (full, full_rx) = mpsc::sync_channel(0);
                let (emptied_tx, emptied) = mpsc::channel();
                let spiller = scope.spawn(move || {
                    let _trace = trace.map(lash_obs::trace::enter);
                    spill_sets(
                        job,
                        config.use_combiner,
                        path,
                        full_rx,
                        emptied_tx,
                        counters,
                    )
                });
                let (in_memory, emitted) = map_all(Some(Handoff {
                    threshold,
                    full,
                    emptied,
                }));
                let spilled = spiller
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))?;
                let output = spilled.or(in_memory).expect("a map task's output exists");
                Ok::<_, EngineError>((output, emitted))
            })?
        }
    };
    Counters::add(&counters.map_input_records, records.len() as u64);
    Counters::add(&counters.map_output_records, emitted);
    Ok(output)
}

/// One run feeding a reduce task, referenced rather than opened: disk runs
/// carry their spill file *path*, and file handles live only for the
/// duration of one merge pass.
#[derive(Clone)]
enum ReduceRun<'a> {
    /// An in-memory run from an unspilled map task.
    Mem(&'a RunBuffer),
    /// An on-disk run: a spilled map-task run, or an intermediate run
    /// written by a hierarchical merge pass.
    Disk {
        path: Arc<PathBuf>,
        meta: RunMeta,
        /// True for intermediate runs this reduce task wrote itself: they
        /// have exactly one consumer, so the pass that merges them deletes
        /// them. Map-task spill files are shared across partitions and are
        /// only removed when the job's `SpillSpace` drops.
        temp: bool,
    },
}

/// Disk runs in a run list — the quantity the fan-in valve bounds
/// (in-memory runs hold no file handles).
fn count_disk_runs(runs: &[ReduceRun<'_>]) -> usize {
    runs.iter()
        .filter(|r| matches!(r, ReduceRun::Disk { .. }))
        .count()
}

/// Best-effort deletion of the intermediate runs a merge just consumed,
/// bounding peak spill-dir usage to ~2 rounds instead of all of them.
fn remove_temp_runs(runs: &[ReduceRun<'_>]) {
    for run in runs {
        if let ReduceRun::Disk {
            path, temp: true, ..
        } = run
        {
            let _ = std::fs::remove_file(path.as_path());
        }
    }
}

/// Opens merge sources for one pass: one [`SharedFile`] per *distinct*
/// spill file among the pass's disk runs. The handles are owned by the
/// returned sources (each cursor clones the shared handle), so dropping the
/// sources at the end of the pass closes them.
fn open_sources<'a>(runs: &'a [ReduceRun<'a>]) -> Result<Vec<RunSource<'a>>, EngineError> {
    let mut opened: Vec<(*const PathBuf, SharedFile)> = Vec::new();
    let mut sources = Vec::with_capacity(runs.len());
    for run in runs {
        match run {
            ReduceRun::Mem(buffer) => sources.push(RunSource::Mem(buffer)),
            ReduceRun::Disk { path, meta, .. } => {
                let ptr = Arc::as_ptr(path);
                let file = match opened.iter().find(|(p, _)| *p == ptr) {
                    Some((_, file)) => file.clone(),
                    None => {
                        let file = SharedFile::open(path)?;
                        opened.push((ptr, file.clone()));
                        file
                    }
                };
                sources.push(RunSource::Disk { file, meta });
            }
        }
    }
    Ok(sources)
}

fn run_reduce_task<J: Job>(
    job: &J,
    partition_runs: &[ReduceRun<'_>],
    task: usize,
    config: &EngineConfig,
    spill_space: Option<&SpillSpace>,
    counters: &Counters,
) -> Result<Vec<J::Output>, EngineError> {
    let fan_in = config.merge_fan_in.max(2);
    // Hierarchical pre-merge (the fd-pressure valve): while the partition
    // holds more *disk* runs than the fan-in (in-memory runs hold no file
    // handles and never trigger it), merge adjacent groups — each capped
    // at `fan_in` disk runs, interleaved memory runs riding along for
    // free — into intermediate on-disk runs, closing each group's file
    // handles before the next group opens. Merging *adjacent* groups and
    // keeping group order preserves the global (key bytes, run sequence)
    // order, so the final output is byte-identical to a single flat merge.
    // Without an active spill path every run is in memory, so one flat
    // merge is used regardless.
    let mut runs: Vec<ReduceRun<'_>> = partition_runs.to_vec();
    let mut round = 0u32;
    while count_disk_runs(&runs) > fan_in {
        let Some(space) = spill_space else { break };
        let mut next: Vec<ReduceRun<'_>> = Vec::new();
        let mut group_start = 0usize;
        let mut group_idx = 0usize;
        while group_start < runs.len() {
            // Extend the group until it holds `fan_in` disk runs.
            let mut end = group_start;
            let mut disk = 0usize;
            while end < runs.len() && disk < fan_in {
                if matches!(runs[end], ReduceRun::Disk { .. }) {
                    disk += 1;
                }
                end += 1;
            }
            let group = &runs[group_start..end];
            if disk < fan_in {
                // The trailing partial group already fits one merge:
                // pass its runs through untouched (no pointless disk
                // round-trip for, say, a tail of in-memory runs).
                next.extend(group.iter().cloned());
                group_start = end;
                continue;
            }
            let pass_started = Instant::now();
            let sources = open_sources(group)?;
            let mut merger = Merger::new(&sources)?;
            Counters::add(&counters.merged_runs, merger.num_runs());
            let mut writer = SpillWriter::create(space.merge_file(task, round, group_idx))?;
            let mut key = Vec::new();
            let mut value = Vec::new();
            if config.use_combiner {
                // Merge-time combine (Hadoop's merge-side combiner): a pass
                // materializes each key's group anyway, so collapsing it
                // here means later rounds copy the combined pairs instead
                // of re-merging every original one — low-σ shuffles shrink
                // round over round instead of staying disk-bound. Combiners
                // are associative and regrouping-insensitive by contract,
                // so the final reduce sees equivalent value streams. Whole
                // groups are copied off the merge into a batch, and each
                // batch of about one spill chunk is combined like a map-side
                // sort buffer.
                let mut batch = RunBuffer::default();
                let mut combined = RunBuffer::default();
                let mut scratch = Vec::new();
                while let Some(k) = merger.peek_key() {
                    key.clear();
                    key.extend_from_slice(k);
                    while merger.peek_key() == Some(key.as_slice()) {
                        merger.pop_value_into(&mut value)?;
                        batch.push(&key, &value);
                    }
                    if batch.data.len() >= SPILL_CHUNK_BYTES || merger.peek_key().is_none() {
                        combine_run(job, &batch, &mut combined, &mut scratch);
                        Counters::add(
                            &counters.merged_combined_pairs,
                            batch.len().saturating_sub(combined.len()) as u64,
                        );
                        writer.append(&combined)?;
                        batch.clear();
                        combined.clear();
                    }
                }
            } else {
                while let Some(k) = merger.peek_key() {
                    key.clear();
                    key.extend_from_slice(k);
                    merger.pop_value_into(&mut value)?;
                    writer.push(&key, &value)?;
                }
            }
            let meta = writer.end_run(task as u32)?;
            let path = writer.finish()?;
            Counters::add(&counters.merge_passes, 1);
            // A child span of the ambient reduce-task span (the worker
            // entered it around this call).
            lash_obs::global().observe_span(
                "mapreduce.merge_pass",
                pass_started.elapsed(),
                &[("round", round.into()), ("group", group_idx.into())],
            );
            drop(merger);
            drop(sources);
            // The group's own intermediates were consumed exactly once.
            remove_temp_runs(group);
            if meta.records == 0 {
                // A combiner that eliminated every pair leaves nothing to
                // merge (runs are never empty — see `DiskCursor::open`).
                let _ = std::fs::remove_file(&path);
            } else {
                next.push(ReduceRun::Disk {
                    path: Arc::new(path),
                    meta,
                    temp: true,
                });
            }
            group_start = end;
            group_idx += 1;
        }
        runs = next;
        round += 1;
    }

    // An RAII span, not an after-the-fact observation: the reduce calls
    // run inside this loop, so their `mine.partition`-style spans must
    // parent under the merge for self times to tile the task.
    let merge_span = lash_obs::span!("mapreduce.merge", runs = runs.len());
    let sources = open_sources(&runs)?;
    let mut merger = Merger::new(&sources)?;
    Counters::add(&counters.merged_runs, merger.num_runs());
    let mut out = Vec::new();
    let mut groups = 0u64;
    let mut records = 0u64;
    let mut key_bytes: Vec<u8> = Vec::new();
    let mut value_buf: Vec<u8> = Vec::new();
    while let Some(k) = merger.peek_key() {
        key_bytes.clear();
        key_bytes.extend_from_slice(k);
        groups += 1;
        let mut values = Values::new(&mut merger, &key_bytes, &mut value_buf);
        job.reduce(&key_bytes, &mut values, &mut out);
        records += values.finish()?;
    }
    Counters::add(&counters.reduce_input_groups, groups);
    Counters::add(&counters.reduce_input_records, records);
    Counters::add(&counters.reduce_output_records, out.len() as u64);
    drop(merge_span);
    // Close the final merge's handles, then drop its intermediate inputs:
    // this task is their only consumer.
    drop(merger);
    drop(sources);
    remove_temp_runs(&runs);
    Ok(out)
}

/// Splits `n` records into contiguous ranges of at most `split_size`.
fn split_ranges(n: usize, split_size: usize) -> Vec<std::ops::Range<usize>> {
    let size = split_size.max(1);
    if n == 0 {
        return Vec::new();
    }
    (0..n.div_ceil(size))
        .map(|i| i * size..((i + 1) * size).min(n))
        .collect()
}

/// Runs `count` tasks with a pull-based worker pool.
fn parallel_tasks<T, F>(count: usize, parallelism: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if count == 0 {
        return Vec::new();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let workers = parallelism.min(count).max(1);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                *slots[i].lock().expect("slot lock") = Some(f(i));
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("slot lock").expect("task completed"))
        .collect()
}

/// Runs tasks in retry rounds. The closure returns `Ok(None)` to signal an
/// (injected) failure — such tasks are retried with an incremented attempt
/// number until `max_attempts` is exhausted — and `Err` for fatal engine
/// errors (spill I/O, corrupt runs), which abort the job.
///
/// `ctx` is the phase's trace context: each worker enters it around a task
/// so the per-task `mapreduce.map_task` / `mapreduce.reduce_task` spans
/// (and anything the task emits, like spill summaries) parent under the
/// phase span recorded by the caller.
fn run_with_retries<T, F>(
    count: usize,
    parallelism: usize,
    max_attempts: u32,
    phase: Phase,
    ctx: Option<lash_obs::trace::TraceCtx>,
    counters: &Counters,
    f: F,
) -> Result<Vec<T>, EngineError>
where
    T: Send,
    F: Fn(usize, u32) -> Result<Option<T>, EngineError> + Sync,
{
    let task_span_name = match phase {
        Phase::Map => "mapreduce.map_task",
        Phase::Reduce => "mapreduce.reduce_task",
    };
    let mut results: Vec<Option<T>> = (0..count).map(|_| None).collect();
    let mut pending: Vec<(usize, u32)> = (0..count).map(|t| (t, 0)).collect();
    while !pending.is_empty() {
        let round: Vec<(usize, u32, Result<Option<T>, EngineError>)> =
            parallel_tasks(pending.len(), parallelism, |i| {
                let _trace = ctx.map(lash_obs::trace::enter);
                let (task, attempt) = pending[i];
                match phase {
                    Phase::Map => Counters::add(&counters.map_task_attempts, 1),
                    Phase::Reduce => Counters::add(&counters.reduce_task_attempts, 1),
                }
                let _task_span = lash_obs::span!(task_span_name, task = task, attempt = attempt);
                let out = f(task, attempt);
                if matches!(out, Ok(None)) {
                    match phase {
                        Phase::Map => Counters::add(&counters.failed_map_tasks, 1),
                        Phase::Reduce => Counters::add(&counters.failed_reduce_tasks, 1),
                    }
                }
                (task, attempt, out)
            });
        let mut next = Vec::new();
        for (task, attempt, out) in round {
            match out? {
                Some(t) => results[task] = Some(t),
                None => {
                    if attempt + 1 >= max_attempts {
                        return Err(EngineError::RetriesExhausted {
                            phase,
                            task,
                            attempts: attempt + 1,
                        });
                    }
                    next.push((task, attempt + 1));
                }
            }
        }
        pending = next;
    }
    Ok(results
        .into_iter()
        .map(|r| r.expect("all tasks completed"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FailurePlan;
    use crate::types::Combined;

    /// Word count used across the engine tests: varint counts, summed on
    /// bytes by the combiner.
    struct WordCount;

    fn count(bytes: &[u8]) -> u64 {
        lash_encoding::varint::decode_u64(bytes).unwrap().0
    }

    impl Job for WordCount {
        type Input = String;
        type Key = String;
        type Value = u64;
        type Output = (String, u64);

        fn map(&self, line: &String, emit: &mut Emitter<'_, Self>) {
            for w in line.split_whitespace() {
                emit.emit(w.to_owned(), 1);
            }
        }

        fn combine(&self, _key: &[u8], values: &mut [&[u8]], out: &mut Combined<'_>) {
            let sum: u64 = values.iter().map(|v| count(v)).sum();
            out.push_with(|buf| lash_encoding::varint::encode_u64(sum, buf));
        }

        fn reduce(&self, key: &[u8], values: &mut Values<'_, '_>, out: &mut Vec<(String, u64)>) {
            let mut sum = 0;
            while let Some(v) = values.next() {
                sum += count(v);
            }
            out.push((String::from_utf8(key.to_vec()).unwrap(), sum));
        }

        fn encode_key(&self, key: &String, buf: &mut Vec<u8>) {
            buf.extend_from_slice(key.as_bytes());
        }
        fn encode_value(&self, value: &u64, buf: &mut Vec<u8>) {
            lash_encoding::varint::encode_u64(*value, buf);
        }
    }

    fn corpus() -> Vec<String> {
        vec![
            "the quick brown fox".into(),
            "jumps over the lazy dog".into(),
            "the dog barks".into(),
            "quick quick".into(),
        ]
    }

    fn sorted(mut v: Vec<(String, u64)>) -> Vec<(String, u64)> {
        v.sort();
        v
    }

    #[test]
    fn word_count_end_to_end() {
        let result = run_job(&WordCount, &corpus(), &EngineConfig::default()).unwrap();
        let out = sorted(result.outputs);
        let get = |w: &str| out.iter().find(|(k, _)| k == w).map(|&(_, c)| c);
        assert_eq!(get("the"), Some(3));
        assert_eq!(get("quick"), Some(3));
        assert_eq!(get("dog"), Some(2));
        assert_eq!(get("fox"), Some(1));
        let m = &result.metrics.counters;
        assert_eq!(m.map_input_records, 4);
        assert_eq!(m.map_output_records, 14);
        assert_eq!(m.reduce_output_records as usize, out.len());
        assert!(m.map_output_bytes > 0);
        assert!(result.metrics.total_time >= result.metrics.map_time);
    }

    #[test]
    fn output_is_deterministic_across_parallelism() {
        let base = run_job(&WordCount, &corpus(), &EngineConfig::sequential())
            .unwrap()
            .outputs;
        for par in [2, 4, 8] {
            for split in [1, 2, 100] {
                let cfg = EngineConfig::default()
                    .with_parallelism(par)
                    .with_reduce_tasks(3)
                    .with_split_size(split);
                let got = run_job(&WordCount, &corpus(), &cfg).unwrap().outputs;
                assert_eq!(sorted(got), sorted(base.clone()), "par={par} split={split}");
            }
        }
    }

    #[test]
    fn spilled_shuffle_is_byte_identical_to_in_memory() {
        let in_memory = run_job(
            &WordCount,
            &corpus(),
            &EngineConfig::default()
                .with_reduce_tasks(3)
                .with_spill_threshold(None),
        )
        .unwrap();
        for threshold in [0usize, 1, 16, 64, 4096] {
            let spilled = run_job(
                &WordCount,
                &corpus(),
                &EngineConfig::default()
                    .with_reduce_tasks(3)
                    .with_split_size(2)
                    .with_spill_threshold(Some(threshold)),
            )
            .unwrap();
            // Identical outputs in identical (partition, key) order.
            assert_eq!(spilled.outputs, in_memory.outputs, "threshold {threshold}");
        }
    }

    #[test]
    fn zero_threshold_spills_everything_and_counts_it() {
        let cfg = EngineConfig::default()
            .with_split_size(1)
            .with_reduce_tasks(2)
            .with_spill_threshold(Some(0));
        let result = run_job(&WordCount, &corpus(), &cfg).unwrap();
        let c = &result.metrics.counters;
        assert!(c.spilled_bytes > 0);
        // Every record became its own run.
        assert_eq!(c.spilled_runs, c.map_output_records);
        assert!(c.merged_runs > 0);
        assert!(c.peak_resident_bytes > 0);
        // The spilled result still matches the clean one.
        let clean = run_job(
            &WordCount,
            &corpus(),
            &EngineConfig::sequential().with_spill_threshold(None),
        )
        .unwrap();
        assert_eq!(sorted(result.outputs), sorted(clean.outputs));
    }

    #[test]
    fn capped_fan_in_merges_hierarchically_and_identically() {
        // A corpus wide enough that per-record spilling produces far more
        // runs per partition than the tiny fan-in allows in one merge.
        let corpus: Vec<String> = (0..60)
            .map(|i| format!("w{} shared w{}", i % 7, (i + 3) % 7))
            .collect();
        let flat = run_job(
            &WordCount,
            &corpus,
            &EngineConfig::default()
                .with_reduce_tasks(2)
                .with_split_size(1)
                .with_spill_threshold(Some(0))
                .with_merge_fan_in(100_000),
        )
        .unwrap();
        // An uncapped fan-in needs no intermediate passes.
        assert_eq!(flat.metrics.counters.merge_passes, 0);
        for fan_in in [2usize, 3, 8] {
            let capped = run_job(
                &WordCount,
                &corpus,
                &EngineConfig::default()
                    .with_reduce_tasks(2)
                    .with_split_size(1)
                    .with_spill_threshold(Some(0))
                    .with_merge_fan_in(fan_in),
            )
            .unwrap();
            // Identical outputs in identical order despite the passes.
            assert_eq!(capped.outputs, flat.outputs, "fan_in {fan_in}");
            assert!(
                capped.metrics.counters.merge_passes > 0,
                "fan_in {fan_in} should force intermediate passes"
            );
        }
    }

    #[test]
    fn merge_time_combiner_collapses_pairs_and_keeps_results() {
        // Per-record spilling with a tiny fan-in forces hierarchical
        // passes whose groups hold many single-value runs of the same few
        // keys — exactly what the merge-time combiner collapses.
        let corpus: Vec<String> = (0..60)
            .map(|i| format!("w{} shared w{}", i % 7, (i + 3) % 7))
            .collect();
        let base = EngineConfig::default()
            .with_reduce_tasks(2)
            .with_split_size(1)
            .with_spill_threshold(Some(0))
            .with_merge_fan_in(2);
        let combined = run_job(&WordCount, &corpus, &base.clone().with_combiner(true)).unwrap();
        let plain = run_job(&WordCount, &corpus, &base.with_combiner(false)).unwrap();
        let clean = run_job(&WordCount, &corpus, &EngineConfig::sequential()).unwrap();
        assert_eq!(sorted(combined.outputs), sorted(clean.outputs.clone()));
        assert_eq!(sorted(plain.outputs), sorted(clean.outputs));
        assert!(combined.metrics.counters.merge_passes > 0);
        assert!(
            combined.metrics.counters.merged_combined_pairs > 0,
            "hierarchical passes should combine equal-key pairs"
        );
        assert_eq!(plain.metrics.counters.merged_combined_pairs, 0);
    }

    #[test]
    fn memory_runs_do_not_count_against_the_fan_in() {
        // 40 short lines stay in memory; only the 3 long ones exceed the
        // per-task buffer threshold and spill. Total runs per partition far
        // exceed the fan-in, but only disk runs hold file handles — so no
        // hierarchical pass (and no disk round-trip of the memory runs)
        // should happen.
        let mut corpus: Vec<String> = (0..40).map(|i| format!("w{}", i % 5)).collect();
        for _ in 0..3 {
            corpus.push("a-rather-long-word-that-overflows-the-buffer another word".into());
        }
        let cfg = EngineConfig::default()
            .with_reduce_tasks(1)
            .with_split_size(1)
            .with_spill_threshold(Some(24))
            .with_merge_fan_in(8);
        let result = run_job(&WordCount, &corpus, &cfg).unwrap();
        assert!(result.metrics.counters.spilled_runs > 0, "long lines spill");
        assert_eq!(result.metrics.counters.merge_passes, 0);
        let clean = run_job(&WordCount, &corpus, &EngineConfig::sequential()).unwrap();
        assert_eq!(sorted(result.outputs), sorted(clean.outputs));
    }

    #[test]
    fn fan_in_cap_without_spill_path_stays_flat() {
        // All-in-memory runs hold no file handles; a tiny fan-in must not
        // force disk passes (there is no spill dir to write them to).
        let cfg = EngineConfig::default()
            .with_split_size(1)
            .with_spill_threshold(None)
            .with_merge_fan_in(2);
        let result = run_job(&WordCount, &corpus(), &cfg).unwrap();
        assert_eq!(result.metrics.counters.merge_passes, 0);
        let clean = run_job(&WordCount, &corpus(), &EngineConfig::sequential()).unwrap();
        assert_eq!(sorted(result.outputs), sorted(clean.outputs));
    }

    #[test]
    fn in_memory_path_reports_no_spills() {
        let cfg = EngineConfig::default().with_spill_threshold(None);
        let result = run_job(&WordCount, &corpus(), &cfg).unwrap();
        let c = &result.metrics.counters;
        assert_eq!(c.spilled_bytes, 0);
        assert_eq!(c.spilled_runs, 0);
        // In-memory runs still feed the reduce merges.
        assert!(c.merged_runs > 0);
    }

    #[test]
    fn combiner_reduces_shuffled_bytes_but_not_results() {
        // Pinned in-memory: with per-record spilling the combiner never sees
        // more than one value at a time, so the byte saving disappears.
        let cfg_on = EngineConfig::sequential()
            .with_split_size(1)
            .with_combiner(true)
            .with_spill_threshold(None);
        let cfg_off = EngineConfig::sequential()
            .with_split_size(1)
            .with_combiner(false)
            .with_spill_threshold(None);
        let on = run_job(&WordCount, &corpus(), &cfg_on).unwrap();
        let off = run_job(&WordCount, &corpus(), &cfg_off).unwrap();
        assert_eq!(sorted(on.outputs), sorted(off.outputs));
        assert!(
            on.metrics.counters.map_output_bytes < off.metrics.counters.map_output_bytes,
            "combiner should shrink the shuffle ({} vs {})",
            on.metrics.counters.map_output_bytes,
            off.metrics.counters.map_output_bytes
        );
        assert!(on.metrics.counters.combine_input_records > 0);
        // Pre-combine record counts are identical.
        assert_eq!(
            on.metrics.counters.map_output_records,
            off.metrics.counters.map_output_records
        );
    }

    #[test]
    fn injected_failures_are_retried_transparently() {
        let plan = FailurePlan::none()
            .fail_once(Phase::Map, 0)
            .fail_n_times(Phase::Reduce, 0, 2);
        let cfg = EngineConfig::default()
            .with_parallelism(2)
            .with_split_size(2)
            .with_reduce_tasks(2)
            .with_failures(plan);
        let result = run_job(&WordCount, &corpus(), &cfg).unwrap();
        let clean = run_job(&WordCount, &corpus(), &EngineConfig::sequential()).unwrap();
        assert_eq!(sorted(result.outputs), sorted(clean.outputs));
        assert_eq!(result.metrics.counters.failed_map_tasks, 1);
        assert_eq!(result.metrics.counters.failed_reduce_tasks, 2);
        assert!(result.metrics.counters.map_task_attempts >= 3);
    }

    #[test]
    fn injected_failures_are_retried_on_the_spill_path() {
        let plan = FailurePlan::none()
            .fail_once(Phase::Map, 1)
            .fail_once(Phase::Reduce, 0);
        let cfg = EngineConfig::default()
            .with_parallelism(2)
            .with_split_size(2)
            .with_reduce_tasks(2)
            .with_spill_threshold(Some(0))
            .with_failures(plan);
        let result = run_job(&WordCount, &corpus(), &cfg).unwrap();
        let clean = run_job(&WordCount, &corpus(), &EngineConfig::sequential()).unwrap();
        assert_eq!(sorted(result.outputs), sorted(clean.outputs));
        assert!(result.metrics.counters.spilled_runs > 0);
    }

    #[test]
    fn retries_exhausted_is_an_error() {
        let cfg = EngineConfig::default()
            .with_split_size(2)
            .with_failures(FailurePlan::none().fail_n_times(Phase::Map, 0, 10));
        let err = run_job(&WordCount, &corpus(), &cfg).unwrap_err();
        assert!(matches!(
            err,
            EngineError::RetriesExhausted {
                phase: Phase::Map,
                task: 0,
                ..
            }
        ));
    }

    #[test]
    fn empty_input_runs_cleanly() {
        let result = run_job(&WordCount, &[], &EngineConfig::default()).unwrap();
        assert!(result.outputs.is_empty());
        assert_eq!(result.metrics.counters.map_input_records, 0);
        let result = run_job(
            &WordCount,
            &[],
            &EngineConfig::default().with_spill_threshold(Some(0)),
        )
        .unwrap();
        assert!(result.outputs.is_empty());
    }

    #[test]
    fn split_ranges_cover_input_exactly() {
        assert_eq!(split_ranges(0, 5), Vec::<std::ops::Range<usize>>::new());
        assert_eq!(split_ranges(10, 4), vec![0..4, 4..8, 8..10]);
        assert_eq!(split_ranges(4, 4), vec![0..4]);
        assert_eq!(split_ranges(3, 100), vec![0..3]);
        // split_size 0 is clamped.
        assert_eq!(split_ranges(2, 0), vec![0..1, 1..2]);
    }

    #[test]
    fn metrics_accumulate() {
        let a = run_job(&WordCount, &corpus(), &EngineConfig::sequential()).unwrap();
        let mut acc = JobMetrics::default();
        acc.accumulate(&a.metrics);
        acc.accumulate(&a.metrics);
        assert_eq!(
            acc.counters.map_input_records,
            2 * a.metrics.counters.map_input_records
        );
        // High-water marks take the max, not the sum.
        assert_eq!(
            acc.counters.peak_resident_bytes,
            a.metrics.counters.peak_resident_bytes
        );
        assert_eq!(acc.total_time, a.metrics.total_time * 2);
    }

    #[test]
    fn reducers_may_leave_values_unconsumed() {
        /// Consumes only the first value of each group.
        struct FirstOnly;
        impl Job for FirstOnly {
            type Input = String;
            type Key = String;
            type Value = u64;
            type Output = (String, u64);
            fn map(&self, line: &String, emit: &mut Emitter<'_, Self>) {
                for w in line.split_whitespace() {
                    emit.emit(w.to_owned(), 1);
                }
            }
            fn reduce(
                &self,
                key: &[u8],
                values: &mut Values<'_, '_>,
                out: &mut Vec<(String, u64)>,
            ) {
                let first = values
                    .next()
                    .map_or(0, |v| u64::from_le_bytes(v.try_into().unwrap()));
                out.push((String::from_utf8(key.to_vec()).unwrap(), first));
            }
            fn encode_key(&self, key: &String, buf: &mut Vec<u8>) {
                buf.extend_from_slice(key.as_bytes());
            }
            fn encode_value(&self, value: &u64, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&value.to_le_bytes());
            }
        }
        // Combiner off so groups genuinely hold multiple values.
        let cfg = EngineConfig::sequential().with_combiner(false);
        let result = run_job(&FirstOnly, &corpus(), &cfg).unwrap();
        // Every distinct word appears exactly once with value 1.
        assert!(result.outputs.iter().all(|(_, c)| *c == 1));
        assert_eq!(result.outputs.len(), 9);
    }
}

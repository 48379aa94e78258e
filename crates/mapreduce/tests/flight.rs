//! End-to-end flight-recorder test: a spill file corrupted mid-job must
//! surface as [`EngineError::CorruptShuffle`] and automatically dump the
//! flight-recorder ring, and the dump must carry the failing job's trace
//! id so the crash can be tied back to its trace tree.
//!
//! This lives in its own test binary: the flight recorder dumps once per
//! process, so the corruption forced here must be the only error source.

use std::fs;
use std::path::PathBuf;

use lash_mapreduce::{run_job, Emitter, EngineConfig, EngineError, Job, Values};
use lash_obs::trace::TraceCtx;

/// A job whose second map task flips bytes in the first task's sealed
/// spill file, so the reduce-side merge reads corrupt frames.
struct CorruptingJob {
    spill_base: PathBuf,
}

impl CorruptingJob {
    /// Finds the first map task's spill run under the configured spill
    /// base (`<base>/lash-shuffle-<pid>-<seq>/map-00000-a0.run`) and
    /// inverts a byte in the middle.
    fn corrupt_first_spill(&self) {
        let run = find_first_spill(&self.spill_base).expect("task 0 spill file exists");
        let mut bytes = fs::read(&run).expect("read spill");
        assert!(!bytes.is_empty(), "spill file is empty");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&run, &bytes).expect("rewrite spill");
    }
}

fn find_first_spill(base: &std::path::Path) -> Option<PathBuf> {
    for entry in fs::read_dir(base).ok()? {
        let dir = entry.ok()?.path();
        let candidate = dir.join("map-00000-a0.run");
        if candidate.is_file() {
            return Some(candidate);
        }
    }
    None
}

impl Job for CorruptingJob {
    type Input = u32;
    type Output = (u32, u64);

    fn map(&self, &record: &u32, emit: &mut Emitter<'_, Self>) {
        if record == 1 {
            // Task 0 already sealed its run (split_size 1, parallelism 1,
            // tasks scheduled in order).
            self.corrupt_first_spill();
        }
        for k in 0..16u32 {
            emit.emit(&k.to_be_bytes(), &u64::from(record).to_le_bytes());
        }
    }

    fn reduce(&self, key: &[u8], values: &mut Values<'_, '_>, out: &mut Vec<(u32, u64)>) {
        let mut sum = 0;
        while let Some(v) = values.next() {
            sum += u64::from_le_bytes(v.try_into().expect("8-byte value"));
        }
        out.push((u32::from_be_bytes(key.try_into().expect("4-byte key")), sum));
    }
}

#[test]
fn corrupt_shuffle_dumps_flight_recorder_with_failing_trace_id() {
    let scratch = std::env::temp_dir().join(format!("lash-flight-test-{}", std::process::id()));
    let spill_base = scratch.join("spills");
    let dump_dir = scratch.join("dumps");
    fs::create_dir_all(&spill_base).expect("create spill base");
    fs::create_dir_all(&dump_dir).expect("create dump dir");
    lash_obs::flight::set_dump_dir(Some(dump_dir.clone()));
    lash_obs::flight::rearm();

    // An explicit root span stands in for a driver operation; the job's
    // `mapreduce.job` span (and everything under it) joins this trace, so
    // the trace id observed here must show up in the crash dump.
    let trace_id = {
        let root = lash_obs::span!("test.flight_root");
        let trace_id = root.ctx().trace_id;

        let job = CorruptingJob {
            spill_base: spill_base.clone(),
        };
        let config = EngineConfig::default()
            .with_parallelism(1)
            .with_split_size(1)
            .with_spill_threshold(Some(0))
            .with_spill_dir(&spill_base);
        let result = run_job(&job, &[0u32, 1u32], &config);
        match result {
            Err(EngineError::CorruptShuffle(_)) => {}
            other => panic!("expected CorruptShuffle, got {other:?}"),
        }
        trace_id
    };

    let dump = lash_obs::flight::last_dump().expect("flight recorder dumped");
    assert!(
        dump.starts_with(&dump_dir),
        "dump {dump:?} not under {dump_dir:?}"
    );
    let contents = fs::read_to_string(&dump).expect("read dump");
    let hex_id = TraceCtx::format_id(trace_id);
    assert!(
        contents.contains(&hex_id),
        "dump does not mention failing trace id {hex_id}:\n{contents}"
    );
    // The dump must include the error event itself and the job's spans
    // leading up to it (map tasks ran before the corruption surfaced).
    assert!(
        contents.contains("\"event\":\"error\""),
        "no error event in dump:\n{contents}"
    );
    assert!(
        contents.contains("mapreduce.map_task"),
        "no map task spans in dump:\n{contents}"
    );

    let _ = fs::remove_dir_all(&scratch);
}

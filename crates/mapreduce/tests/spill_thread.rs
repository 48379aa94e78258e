//! A map task's spill thread failing mid-task: its typed error, or its
//! panic, must end the job promptly. The map thread blocks on each hand-off
//! until the spill thread takes the set, so a spill thread that died
//! without the map thread noticing would hang the job; a watchdog turns
//! such a hang into a test failure.

use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Duration;

use lash_mapreduce::{run_job, Combined, Emitter, EngineConfig, EngineError, Job, Values};

/// How long a job that should fail at once may take.
const WATCHDOG: Duration = Duration::from_secs(10);

/// Runs `f` on its own thread and returns its result, failing the test if
/// it has not returned within [`WATCHDOG`].
fn within_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(WATCHDOG)
        .expect("the job hung: the map thread never saw its spill thread stop")
}

/// Emits 64 keys per input. With `delete_spills_under`, the first
/// `map` call removes every spill directory under that base before it
/// emits, so the spill thread cannot create its spill file. With
/// `panic_in_combine`, the combiner panics.
struct SpillJob {
    delete_spills_under: Option<PathBuf>,
    panic_in_combine: bool,
}

impl Job for SpillJob {
    type Input = u32;
    type Output = (u32, u32);

    fn map(&self, &record: &u32, emit: &mut Emitter<'_, Self>) {
        if let (Some(base), 0) = (&self.delete_spills_under, record) {
            remove_spill_dirs(base);
        }
        for k in 0..64u32 {
            emit.emit(&k.to_be_bytes(), &1u32.to_le_bytes());
        }
    }

    fn combine(&self, _key: &[u8], values: &mut [&[u8]], out: &mut Combined<'_>) {
        assert!(!self.panic_in_combine, "combiner panics on purpose");
        for value in values.iter() {
            out.push(value);
        }
    }

    fn reduce(&self, key: &[u8], values: &mut Values<'_, '_>, out: &mut Vec<(u32, u32)>) {
        let mut sum = 0;
        while let Some(v) = values.next() {
            sum += u32::from_le_bytes(v.try_into().expect("4-byte value"));
        }
        out.push((u32::from_be_bytes(key.try_into().expect("4-byte key")), sum));
    }
}

/// Removes the job's spill directories (`<base>/lash-shuffle-*`).
fn remove_spill_dirs(base: &Path) {
    for entry in std::fs::read_dir(base).expect("spill base exists") {
        let dir = entry.expect("spill base entry").path();
        std::fs::remove_dir_all(&dir).expect("remove spill dir");
    }
}

/// One map task that emits thousands of records, each past a threshold of
/// 0: every emit after the first waits on the spill thread.
fn config(spill_base: &Path) -> EngineConfig {
    EngineConfig::default()
        .with_parallelism(1)
        .with_reduce_tasks(2)
        .with_split_size(1024)
        .with_spill_threshold(Some(0))
        .with_spill_dir(spill_base)
}

#[test]
fn failing_spill_thread_ends_the_job_with_its_own_error() {
    let scratch =
        std::env::temp_dir().join(format!("lash-spill-thread-test-{}", std::process::id()));
    let spill_base = scratch.join("spills");
    std::fs::create_dir_all(&spill_base).expect("create spill base");
    lash_obs::flight::set_dump_dir(Some(scratch.clone()));
    let job = SpillJob {
        delete_spills_under: Some(spill_base.clone()),
        panic_in_combine: false,
    };
    let cfg = config(&spill_base);
    let result = within_watchdog(move || run_job(&job, &(0..64).collect::<Vec<u32>>(), &cfg));
    match result {
        Err(EngineError::SpillIo(msg)) => assert!(
            msg.contains("create spill file"),
            "the error names another failure: {msg}"
        ),
        other => panic!("expected the spill thread's SpillIo, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn panicking_spill_thread_panics_out_of_run_job() {
    let job = SpillJob {
        delete_spills_under: None,
        panic_in_combine: true,
    };
    // Every record is handed off before any finalize, so the combiner first
    // runs, and panics, on the spill thread.
    let cfg = config(&std::env::temp_dir());
    let panicked = within_watchdog(move || {
        std::panic::catch_unwind(|| run_job(&job, &(0..64).collect::<Vec<u32>>(), &cfg)).is_err()
    });
    assert!(
        panicked,
        "the spill thread's panic did not reach the caller"
    );
}

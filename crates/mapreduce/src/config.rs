//! Engine configuration and deterministic failure injection.

use std::collections::HashSet;
use std::path::PathBuf;

/// Job phase, for counters and failure injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Map tasks.
    Map,
    /// Reduce tasks (including their shuffle fetch).
    Reduce,
}

/// A deterministic plan of injected task failures.
///
/// Hadoop re-executes failed tasks transparently; the engine reproduces that
/// contract so pipelines can be tested under failure. A spec `(phase, task,
/// attempt)` makes that attempt fail before doing any work.
#[derive(Debug, Clone, Default)]
pub struct FailurePlan {
    specs: HashSet<(Phase, usize, u32)>,
}

impl FailurePlan {
    /// No injected failures.
    pub fn none() -> Self {
        Self::default()
    }

    /// Fails the first attempt of the given task.
    pub fn fail_once(mut self, phase: Phase, task: usize) -> Self {
        self.specs.insert((phase, task, 0));
        self
    }

    /// Fails a specific attempt of the given task.
    pub fn fail_attempt(mut self, phase: Phase, task: usize, attempt: u32) -> Self {
        self.specs.insert((phase, task, attempt));
        self
    }

    /// Fails the first `n` attempts of the given task.
    pub fn fail_n_times(mut self, phase: Phase, task: usize, n: u32) -> Self {
        for attempt in 0..n {
            self.specs.insert((phase, task, attempt));
        }
        self
    }

    /// True if this attempt should fail.
    pub fn should_fail(&self, phase: Phase, task: usize, attempt: u32) -> bool {
        self.specs.contains(&(phase, task, attempt))
    }

    /// True if the plan contains no failures.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

/// Environment variable overriding the default spill threshold, so a test
/// run can force every job onto the out-of-core path (`0` spills after every
/// record). CI runs the whole workspace with this set to `0`.
pub const SPILL_THRESHOLD_ENV: &str = "LASH_SPILL_THRESHOLD";

/// Engine configuration: the in-process stand-in for cluster topology plus
/// the out-of-core shuffle knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Concurrent map tasks ("map slots"). The paper's cluster runs 10
    /// workers × 8 slots; here each slot is a thread.
    pub map_parallelism: usize,
    /// Concurrent reduce tasks.
    pub reduce_parallelism: usize,
    /// Number of reduce partitions (= reduce tasks).
    pub num_reduce_tasks: usize,
    /// Records per map task (input split size).
    pub split_size: usize,
    /// Whether to run the job's combiner on the map side.
    pub use_combiner: bool,
    /// Maximum attempts per task before the job fails.
    pub max_attempts: u32,
    /// Injected failures.
    pub failure_plan: FailurePlan,
    /// Map-side sort-buffer budget in serialized bytes. `None` keeps the
    /// whole shuffle in memory (the fast path); `Some(n)` makes a map task
    /// spill a sorted run to disk whenever its buffered output exceeds `n`
    /// bytes (`Some(0)` spills after every record). Reduce tasks k-way merge
    /// the runs, streaming groups, so reduce-side memory stays bounded by
    /// the merge cursors instead of the partition size.
    pub spill_threshold_bytes: Option<usize>,
    /// Directory for spill files. `None` uses the system temp directory.
    /// Each job run creates (and removes on completion) a unique
    /// subdirectory, so concurrent jobs never collide.
    pub spill_dir: Option<PathBuf>,
    /// Maximum **on-disk** runs a reduce task merges — and therefore
    /// spill-file handles it holds open — at once (Hadoop's
    /// `io.sort.factor`). A partition with more disk runs is merged
    /// hierarchically: adjacent groups of at most this many disk runs
    /// (interleaved in-memory runs ride along for free — they hold no file
    /// handles) are pre-merged into intermediate on-disk runs, counted by
    /// `merge_passes` and deleted as soon as the next pass consumes them.
    /// Requires the spill path to be active; an all-in-memory shuffle
    /// merges in one pass regardless. Clamped to ≥ 2.
    pub merge_fan_in: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        EngineConfig {
            map_parallelism: threads,
            reduce_parallelism: threads,
            num_reduce_tasks: threads * 2,
            split_size: 16 * 1024,
            use_combiner: true,
            max_attempts: 4,
            failure_plan: FailurePlan::none(),
            spill_threshold_bytes: spill_threshold_from_env(),
            spill_dir: None,
            merge_fan_in: 64,
        }
    }
}

/// Reads [`SPILL_THRESHOLD_ENV`]; unset or empty means "in memory".
///
/// A set-but-unparsable value panics: the variable exists to force test
/// runs through the spill path, and a typo silently falling back to the
/// in-memory path would defeat exactly that.
fn spill_threshold_from_env() -> Option<usize> {
    let value = std::env::var(SPILL_THRESHOLD_ENV).ok()?;
    let value = value.trim();
    if value.is_empty() {
        return None;
    }
    match value.parse::<usize>() {
        Ok(n) => Some(n),
        Err(e) => panic!("{SPILL_THRESHOLD_ENV}={value:?} is not a byte count: {e}"),
    }
}

impl EngineConfig {
    /// A single-threaded configuration (useful for determinism tests).
    pub fn sequential() -> Self {
        EngineConfig {
            map_parallelism: 1,
            reduce_parallelism: 1,
            num_reduce_tasks: 1,
            ..Default::default()
        }
    }

    /// Sets both map and reduce parallelism — the "number of machines" knob
    /// used by the scalability experiments (Fig. 6).
    pub fn with_parallelism(mut self, n: usize) -> Self {
        self.map_parallelism = n.max(1);
        self.reduce_parallelism = n.max(1);
        self.num_reduce_tasks = self.num_reduce_tasks.max(n);
        self
    }

    /// Sets the number of reduce partitions.
    pub fn with_reduce_tasks(mut self, n: usize) -> Self {
        self.num_reduce_tasks = n.max(1);
        self
    }

    /// Sets the input split size.
    pub fn with_split_size(mut self, n: usize) -> Self {
        self.split_size = n.max(1);
        self
    }

    /// Enables or disables the combiner.
    pub fn with_combiner(mut self, on: bool) -> Self {
        self.use_combiner = on;
        self
    }

    /// Installs a failure plan.
    pub fn with_failures(mut self, plan: FailurePlan) -> Self {
        self.failure_plan = plan;
        self
    }

    /// Sets the spill threshold: `None` for the all-in-memory shuffle,
    /// `Some(n)` to spill sorted runs once a map task buffers more than `n`
    /// serialized bytes.
    pub fn with_spill_threshold(mut self, threshold: Option<usize>) -> Self {
        self.spill_threshold_bytes = threshold;
        self
    }

    /// Sets the directory spill files are created under.
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Sets the reduce-side merge fan-in: the maximum runs (and spill-file
    /// handles) one reduce task merges at once (clamped to ≥ 2).
    pub fn with_merge_fan_in(mut self, n: usize) -> Self {
        self.merge_fan_in = n.max(2);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_plan_matches_specs() {
        let plan = FailurePlan::none()
            .fail_once(Phase::Map, 3)
            .fail_n_times(Phase::Reduce, 1, 2);
        assert!(plan.should_fail(Phase::Map, 3, 0));
        assert!(!plan.should_fail(Phase::Map, 3, 1));
        assert!(plan.should_fail(Phase::Reduce, 1, 0));
        assert!(plan.should_fail(Phase::Reduce, 1, 1));
        assert!(!plan.should_fail(Phase::Reduce, 1, 2));
        assert!(!plan.should_fail(Phase::Map, 0, 0));
        assert!(!plan.is_empty());
        assert!(FailurePlan::none().is_empty());
    }

    #[test]
    fn config_builders() {
        let cfg = EngineConfig::sequential()
            .with_parallelism(4)
            .with_reduce_tasks(7)
            .with_split_size(100)
            .with_combiner(false)
            .with_spill_threshold(Some(4096))
            .with_spill_dir("/tmp/lash-spill-test");
        assert_eq!(cfg.map_parallelism, 4);
        assert_eq!(cfg.reduce_parallelism, 4);
        assert_eq!(cfg.num_reduce_tasks, 7);
        assert_eq!(cfg.split_size, 100);
        assert!(!cfg.use_combiner);
        assert_eq!(cfg.spill_threshold_bytes, Some(4096));
        assert_eq!(
            cfg.spill_dir.as_deref(),
            Some(std::path::Path::new("/tmp/lash-spill-test"))
        );
        // Parallelism is clamped to at least 1.
        assert_eq!(
            EngineConfig::default().with_parallelism(0).map_parallelism,
            1
        );
    }
}

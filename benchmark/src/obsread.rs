//! Reads the library's process-wide metric registry from outside: counter
//! values and the running sums of its span histograms (`<span>_us`), taken
//! before and after a call whose return value does not carry them.

const COUNTERS: &[&str] = &[
    "mapreduce.map_output_bytes",
    "mapreduce.map_output_records",
    "mapreduce.combine_input_records",
    "mapreduce.combine_output_records",
    "mapreduce.spilled_bytes",
    "mapreduce.spilled_runs",
    "mapreduce.merged_runs",
    "mapreduce.merge_passes",
    "mapreduce.failed_map_tasks",
    "mapreduce.failed_reduce_tasks",
    "mine.partitions",
    "mine.candidates",
    "mine.outputs",
    "store.scan.blocks_decoded",
    "store.scan.blocks_pruned",
    "serve.requests",
    "serve.batches",
    "serve.error_replies",
];

/// Every span the library emits; each ends in one formatted event line.
const SPANS: &[&str] = &[
    "mine.job",
    "mine.flist",
    "mine.partition",
    "mine.bfs.level",
    "mapreduce.job",
    "mapreduce.map",
    "mapreduce.map_task",
    "mapreduce.shuffle",
    "mapreduce.reduce",
    "mapreduce.reduce_task",
    "mapreduce.merge",
    "mapreduce.merge_pass",
    "store.seal",
    "store.compact.round",
    "store.scan.shard",
    "index.build",
    "query.request",
    "serve.batch",
    "serve.refresh",
];

#[derive(Clone)]
pub struct ObsSnap {
    counters: Vec<u64>,
    span_sum_us: Vec<u64>,
    span_count: Vec<u64>,
}

impl ObsSnap {
    pub fn take() -> ObsSnap {
        let obs = lash::obs::global();
        let spans: Vec<_> = SPANS
            .iter()
            .map(|s| obs.histogram(&format!("{s}_us")).snapshot())
            .collect();
        ObsSnap {
            counters: COUNTERS.iter().map(|c| obs.counter(c).get()).collect(),
            span_sum_us: spans.iter().map(|h| h.sum).collect(),
            span_count: spans.iter().map(|h| h.count).collect(),
        }
    }

    /// What happened since `earlier`.
    pub fn since(&self, earlier: &ObsSnap) -> ObsDelta {
        let sub = |a: &[u64], b: &[u64]| a.iter().zip(b).map(|(x, y)| x - y).collect();
        ObsDelta(ObsSnap {
            counters: sub(&self.counters, &earlier.counters),
            span_sum_us: sub(&self.span_sum_us, &earlier.span_sum_us),
            span_count: sub(&self.span_count, &earlier.span_count),
        })
    }
}

pub struct ObsDelta(ObsSnap);

impl ObsDelta {
    pub fn counter(&self, name: &str) -> u64 {
        let i = COUNTERS
            .iter()
            .position(|c| *c == name)
            .unwrap_or_else(|| panic!("counter {name} is not read"));
        self.0.counters[i]
    }

    /// Total time inside spans called `name`.
    pub fn span(&self, name: &str) -> std::time::Duration {
        let i = SPANS
            .iter()
            .position(|s| *s == name)
            .unwrap_or_else(|| panic!("span {name} is not read"));
        std::time::Duration::from_micros(self.0.span_sum_us[i])
    }

    /// Span events the library emitted.
    pub fn events(&self) -> u64 {
        self.0.span_count.iter().sum()
    }
}

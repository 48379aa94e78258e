//! Property tests for the MapReduce engine: against an in-memory oracle, the
//! engine must produce identical results for any input, any parallelism, any
//! split size, combiner on or off, any spill threshold and merge fan-in, and
//! any recoverable failure plan.

use std::collections::BTreeMap;

use lash_mapreduce::{run_job, Combined, Emitter, EngineConfig, FailurePlan, Job, Phase, Values};
use proptest::prelude::*;

/// Counts (key, value) pair sums per key — a weighted word count.
struct SumJob;

impl Job for SumJob {
    type Input = Vec<(u16, u32)>;
    type Output = (u16, u64);

    fn map(&self, record: &Vec<(u16, u32)>, emit: &mut Emitter<'_, Self>) {
        for &(k, v) in record {
            emit.emit(&k.to_be_bytes(), &u64::from(v).to_le_bytes());
        }
    }

    fn combine(&self, _key: &[u8], values: &mut [&[u8]], out: &mut Combined<'_>) {
        let sum: u64 = values.iter().map(|v| value(v)).sum();
        out.push(&sum.to_le_bytes());
    }

    fn reduce(&self, key: &[u8], values: &mut Values<'_, '_>, out: &mut Vec<(u16, u64)>) {
        let mut sum = 0;
        while let Some(v) = values.next() {
            sum += value(v);
        }
        out.push((u16::from_be_bytes(key.try_into().expect("2-byte key")), sum));
    }
}

/// Decodes one of [`SumJob`]'s 8-byte little-endian values.
fn value(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte value"))
}

fn oracle(inputs: &[Vec<(u16, u32)>]) -> BTreeMap<u16, u64> {
    let mut out = BTreeMap::new();
    for record in inputs {
        for &(k, v) in record {
            *out.entry(k).or_insert(0u64) += v as u64;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_matches_oracle_under_any_configuration(
        inputs in prop::collection::vec(
            prop::collection::vec((0u16..32, 0u32..1000), 0..12),
            0..24,
        ),
        parallelism in 1usize..6,
        split_size in 1usize..10,
        reduce_tasks in 1usize..6,
        combiner in any::<bool>(),
    ) {
        let cfg = EngineConfig::default()
            .with_parallelism(parallelism)
            .with_split_size(split_size)
            .with_reduce_tasks(reduce_tasks)
            .with_combiner(combiner);
        let result = run_job(&SumJob, &inputs, &cfg).unwrap();
        let got: BTreeMap<u16, u64> = result.outputs.into_iter().collect();
        prop_assert_eq!(got, oracle(&inputs));
        // Counters are consistent.
        let c = result.metrics.counters;
        prop_assert_eq!(c.map_input_records as usize, inputs.len());
        let pairs: usize = inputs.iter().map(|r| r.len()).sum();
        prop_assert_eq!(c.map_output_records as usize, pairs);
    }

    #[test]
    fn spilled_shuffle_equals_in_memory_shuffle(
        inputs in prop::collection::vec(
            prop::collection::vec((0u16..24, 0u32..500), 0..10),
            0..20,
        ),
        parallelism in 1usize..5,
        split_size in 1usize..8,
        reduce_tasks in 1usize..5,
        combiner in any::<bool>(),
        threshold in 0usize..256,
        fan_in in 2usize..5,
    ) {
        // A small fan-in sends the spilled path through hierarchical merge
        // passes, so runs written by a merge face the same property as
        // map-task spills.
        let base = EngineConfig::default()
            .with_parallelism(parallelism)
            .with_split_size(split_size)
            .with_reduce_tasks(reduce_tasks)
            .with_combiner(combiner)
            .with_merge_fan_in(fan_in);
        let in_memory = run_job(
            &SumJob,
            &inputs,
            &base.clone().with_spill_threshold(None),
        )
        .unwrap();
        let spilled = run_job(
            &SumJob,
            &inputs,
            &base.with_spill_threshold(Some(threshold)),
        )
        .unwrap();
        // Byte-identical results: same outputs in the same order.
        prop_assert_eq!(&spilled.outputs, &in_memory.outputs);
        prop_assert_eq!(in_memory.metrics.counters.spilled_bytes, 0);
        let pairs: usize = inputs.iter().map(|r| r.len()).sum();
        if pairs > 0 && threshold == 0 {
            // A zero threshold must actually exercise the spill path.
            prop_assert!(
                spilled.metrics.counters.spilled_runs > 0,
                "threshold 0 with {} pairs never spilled",
                pairs
            );
        }
    }

    #[test]
    fn recoverable_failures_never_change_results(
        inputs in prop::collection::vec(
            prop::collection::vec((0u16..16, 0u32..100), 1..8),
            1..16,
        ),
        map_fail in prop::collection::vec((0usize..8, 1u32..3), 0..4),
        reduce_fail in prop::collection::vec((0usize..4, 1u32..3), 0..4),
        threshold in prop::option::weighted(0.5, 0usize..128),
    ) {
        let mut plan = FailurePlan::none();
        for (task, n) in map_fail {
            plan = plan.fail_n_times(Phase::Map, task, n);
        }
        for (task, n) in reduce_fail {
            plan = plan.fail_n_times(Phase::Reduce, task, n);
        }
        let cfg = EngineConfig::default()
            .with_parallelism(3)
            .with_split_size(2)
            .with_reduce_tasks(4)
            .with_spill_threshold(threshold)
            .with_failures(plan);
        let result = run_job(&SumJob, &inputs, &cfg).unwrap();
        let got: BTreeMap<u16, u64> = result.outputs.into_iter().collect();
        prop_assert_eq!(got, oracle(&inputs));
    }

    #[test]
    fn shuffled_bytes_track_record_volume(
        inputs in prop::collection::vec(
            prop::collection::vec((0u16..8, 1u32..100), 1..8),
            1..8,
        ),
    ) {
        let cfg = EngineConfig::sequential().with_combiner(false);
        let result = run_job(&SumJob, &inputs, &cfg).unwrap();
        let c = result.metrics.counters;
        // Every emitted pair serializes to 2 key bytes + 8 value bytes.
        prop_assert_eq!(c.map_output_bytes, c.map_output_records * 10);
        prop_assert!(c.map_output_materialized_bytes > c.map_output_bytes);
    }
}

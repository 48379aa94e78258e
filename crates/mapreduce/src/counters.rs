//! Job counters, mirroring the Hadoop counters the paper reports
//! (most importantly `MAP_OUTPUT_BYTES`), plus the out-of-core shuffle
//! counters (`SPILLED_BYTES` and friends).
//!
//! Every counter is *tracked*: increments land both in the job-local
//! atomic (snapshotted into the job's [`CounterSnapshot`]) and, live, in
//! the process-wide [`lash_obs`] registry under `mapreduce.<field>` — so
//! spill pressure is observable *while* a job runs, not only from its
//! end-of-job snapshot.
//!
//! Counters are declared through [`define_counters!`], which splits them
//! into a `sum` block (additive counters) and a `max` block (high-water
//! gauges) and derives [`CounterSnapshot::merge`] from that split — the
//! fold each field uses is part of its declaration, so a new metric cannot
//! silently pick the wrong aggregation.

use std::sync::atomic::{AtomicU64, Ordering};

/// An additive job counter that writes through to the process-wide
/// registry. Aggregating counters across jobs means summing them.
#[derive(Debug)]
pub struct TrackedCounter {
    local: AtomicU64,
    global: lash_obs::Counter,
}

impl TrackedCounter {
    fn register(name: &str) -> TrackedCounter {
        TrackedCounter {
            local: AtomicU64::new(0),
            global: lash_obs::global().counter(name),
        }
    }

    /// Adds `n` to the job-local value and the registry.
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.local.fetch_add(n, Ordering::Relaxed);
            self.global.add(n);
        }
    }

    /// The job-local value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.local.load(Ordering::Relaxed)
    }
}

/// A high-water-mark job gauge that writes through to the process-wide
/// registry. Aggregating gauges means taking the maximum, never the sum.
#[derive(Debug)]
pub struct TrackedGauge {
    local: AtomicU64,
    global: lash_obs::Gauge,
}

impl TrackedGauge {
    fn register(name: &str) -> TrackedGauge {
        TrackedGauge {
            local: AtomicU64::new(0),
            global: lash_obs::global().gauge(name),
        }
    }

    /// Raises the job-local high-water mark (and the registry's) to at
    /// least `n`.
    #[inline]
    pub fn raise(&self, n: u64) {
        self.local.fetch_max(n, Ordering::Relaxed);
        self.global.raise(n);
    }

    /// The job-local value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.local.load(Ordering::Relaxed)
    }
}

/// Declares [`Counters`] and [`CounterSnapshot`] from one field list split
/// by aggregation semantics: `sum` fields are additive
/// ([`TrackedCounter`], summed by [`CounterSnapshot::merge`]), `max`
/// fields are high-water gauges ([`TrackedGauge`], max-combined).
macro_rules! define_counters {
    (
        sum { $($(#[$sdoc:meta])* $sfield:ident,)+ }
        max { $($(#[$mdoc:meta])* $mfield:ident,)+ }
    ) => {
        /// Live atomic counters updated by tasks, registered in the
        /// shared [`lash_obs`] registry as `mapreduce.<field>`.
        #[derive(Debug)]
        pub struct Counters {
            $($(#[$sdoc])* pub $sfield: TrackedCounter,)+
            $($(#[$mdoc])* pub $mfield: TrackedGauge,)+
        }

        impl Default for Counters {
            fn default() -> Counters {
                Counters {
                    $($sfield: TrackedCounter::register(
                        concat!("mapreduce.", stringify!($sfield)),
                    ),)+
                    $($mfield: TrackedGauge::register(
                        concat!("mapreduce.", stringify!($mfield)),
                    ),)+
                }
            }
        }

        impl Counters {
            /// Takes an immutable snapshot of the job-local values.
            pub fn snapshot(&self) -> CounterSnapshot {
                CounterSnapshot {
                    $($sfield: self.$sfield.get(),)+
                    $($mfield: self.$mfield.get(),)+
                }
            }
        }

        /// An immutable snapshot of [`Counters`], attached to job results.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct CounterSnapshot {
            $($(#[$sdoc])* pub $sfield: u64,)+
            $($(#[$mdoc])* pub $mfield: u64,)+
        }

        impl CounterSnapshot {
            /// Folds `other` into `self` with each field's declared
            /// aggregation: additive counters sum, high-water gauges
            /// max-combine.
            pub fn merge(&mut self, other: &CounterSnapshot) {
                $(self.$sfield += other.$sfield;)+
                $(self.$mfield = self.$mfield.max(other.$mfield);)+
            }
        }
    };
}

define_counters! {
    sum {
        /// Input records consumed by map tasks.
        map_input_records,
        /// Key/value pairs emitted by `map` (pre-combiner).
        map_output_records,
        /// Serialized key+value bytes shipped from map to reduce
        /// (post-combiner — the data actually transferred between the
        /// phases).
        map_output_bytes,
        /// Serialized bytes including record framing.
        map_output_materialized_bytes,
        /// Records entering combiners.
        combine_input_records,
        /// Records leaving combiners.
        combine_output_records,
        /// Reduce-input bytes written to spill files (Hadoop's
        /// `SPILLED_RECORDS` cousin, in bytes): zero on the all-in-memory
        /// path.
        spilled_bytes,
        /// Sorted runs written to disk by map tasks.
        spilled_runs,
        /// Runs (on-disk and in-memory) consumed by reduce-side k-way
        /// merges, including intermediate hierarchical merge passes.
        merged_runs,
        /// Intermediate merge passes: groups of at most `merge_fan_in`
        /// runs pre-merged into one on-disk run because a partition held
        /// more runs than a reduce task may open at once. Zero when every
        /// partition fits one merge.
        merge_passes,
        /// Key/value pairs eliminated by running the combiner *during*
        /// hierarchical merge passes (combine inputs minus outputs): zero
        /// when merges stay flat or the combiner is off.
        merged_combined_pairs,
        /// Distinct keys seen by reducers.
        reduce_input_groups,
        /// Values seen by reducers.
        reduce_input_records,
        /// Records written by reducers.
        reduce_output_records,
        /// Map tasks executed (including retries).
        map_task_attempts,
        /// Reduce tasks executed (including retries).
        reduce_task_attempts,
        /// Injected/encountered map task failures.
        failed_map_tasks,
        /// Injected/encountered reduce task failures.
        failed_reduce_tasks,
    }
    max {
        /// High-water mark of any single set of a map task's sort buffers,
        /// in framed bytes — the quantity bounded by
        /// `spill_threshold_bytes`. A spilling task holds up to two such
        /// sets at once: one being filled and one being spilled.
        peak_resident_bytes,
    }
}

impl Counters {
    /// Adds `n` to a counter.
    #[inline]
    pub fn add(counter: &TrackedCounter, n: u64) {
        counter.add(n);
    }

    /// Raises a high-water-mark gauge to at least `n`.
    #[inline]
    pub fn raise(gauge: &TrackedGauge, n: u64) {
        gauge.raise(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_adds() {
        let c = Counters::default();
        Counters::add(&c.map_input_records, 5);
        Counters::add(&c.map_input_records, 2);
        Counters::add(&c.map_output_bytes, 100);
        let s = c.snapshot();
        assert_eq!(s.map_input_records, 7);
        assert_eq!(s.map_output_bytes, 100);
        assert_eq!(s.reduce_output_records, 0);
    }

    #[test]
    fn raise_keeps_the_maximum() {
        let c = Counters::default();
        Counters::raise(&c.peak_resident_bytes, 10);
        Counters::raise(&c.peak_resident_bytes, 4);
        Counters::raise(&c.peak_resident_bytes, 25);
        Counters::raise(&c.peak_resident_bytes, 7);
        assert_eq!(c.snapshot().peak_resident_bytes, 25);
    }

    /// The aggregation-semantics pin: merging snapshots must *sum* the
    /// additive counters and *max-combine* the high-water gauges. A field
    /// added to the wrong `define_counters!` block fails here.
    #[test]
    fn merge_sums_counters_and_maxes_gauges() {
        let mut a = CounterSnapshot {
            map_input_records: 3,
            spilled_bytes: 10,
            peak_resident_bytes: 100,
            ..CounterSnapshot::default()
        };
        let b = CounterSnapshot {
            map_input_records: 4,
            spilled_bytes: 2,
            peak_resident_bytes: 60,
            ..CounterSnapshot::default()
        };
        a.merge(&b);
        assert_eq!(a.map_input_records, 7);
        assert_eq!(a.spilled_bytes, 12);
        // The gauge takes the larger high-water mark, not 160.
        assert_eq!(a.peak_resident_bytes, 100);
        // Merging in the other direction also keeps the maximum.
        let mut c = b;
        c.merge(&a);
        assert_eq!(c.peak_resident_bytes, 100);
    }

    /// Increments land in the process-wide registry as they happen, not
    /// only in the end-of-job snapshot. (Asserting on deltas: other tests
    /// in the binary share the global registry.)
    #[test]
    fn counters_write_through_to_the_global_registry() {
        let global = lash_obs::global().counter("mapreduce.spilled_runs");
        let before = global.get();
        let c = Counters::default();
        Counters::add(&c.spilled_runs, 5);
        assert!(global.get() >= before + 5);
        assert_eq!(c.snapshot().spilled_runs, 5);
    }
}

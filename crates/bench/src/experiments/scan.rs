//! Push shard-scan throughput — the mining path's scans over memory-mapped
//! segments — full and sketch-pruned, on a format-v4 corpus.
//!
//! This is the perf-tracking experiment behind CI's `bench-regression` leg:
//! it writes its measurements to `BENCH_scan.json` (uploaded as a build
//! artifact) and, when given `--baseline <json>`, fails the run if scan
//! throughput regressed more than [`super::REGRESSION_TOLERANCE`] against
//! the checked-in numbers. To refresh the baseline after an intentional
//! change (or a runner-class change), copy the artifact over
//! `crates/bench/baselines/BENCH_scan.json`.

use std::path::Path;
use std::time::Instant;

use lash_core::sequence::ShardedCorpus;
use lash_core::ItemId;
use lash_datagen::TextHierarchy;
use lash_store::{CorpusReader, Partitioning, StoreOptions};

use crate::report::{Report, Table};
use crate::Datasets;

use super::check_baseline;

const SHARDS: u32 = 4;
const SCAN_ITERS: u32 = 7;

struct Measurement {
    full_melems: f64,
    pruned_melems: f64,
}

/// Best-of-[`SCAN_ITERS`] full-shard and pruned scans (page-cache-hot, and
/// the segment maps validated, after the first pass).
// Never inlined: folded into `scan`, the same library code timed ~10% lower,
// so the baseline would track this file's call sites instead of the store.
#[inline(never)]
fn measure(reader: &CorpusReader) -> Measurement {
    // Sketch-prunable predicate: only the rarest eighth of the vocabulary
    // is relevant, so most blocks' G1 sketches rule them out entirely.
    let cut = reader.vocabulary().len() as u32 - reader.vocabulary().len() as u32 / 8;
    let relevant = move |item: ItemId| item.as_u32() >= cut;
    let mut best_full = f64::MAX;
    let mut best_pruned = f64::MAX;
    let mut full_items = 0u64;
    let mut pruned_items = 0u64;
    for _ in 0..SCAN_ITERS {
        full_items = 0;
        let started = Instant::now();
        for shard in 0..reader.num_shards() {
            let items = &mut full_items;
            ShardedCorpus::scan_shard(reader, shard, &mut |_id, seq| {
                *items += seq.len() as u64;
            })
            .expect("full scan");
        }
        best_full = best_full.min(started.elapsed().as_secs_f64());

        pruned_items = 0;
        let started = Instant::now();
        for shard in 0..reader.num_shards() {
            let items = &mut pruned_items;
            ShardedCorpus::scan_shard_pruned(reader, shard, &relevant, &mut |_id, seq| {
                *items += seq.len() as u64;
            })
            .expect("pruned scan");
        }
        best_pruned = best_pruned.min(started.elapsed().as_secs_f64());
    }
    assert!(pruned_items <= full_items);
    Measurement {
        full_melems: full_items as f64 / best_full / 1e6,
        // Pruned throughput is rated in *corpus* items per second: skipping
        // blocks makes the same logical scan finish sooner.
        pruned_melems: full_items as f64 / best_pruned / 1e6,
    }
}

/// Runs the scan experiment; returns `false` when a baseline was given and
/// the measured throughput regressed beyond tolerance.
pub fn scan(
    datasets: &mut Datasets,
    report: &mut Report,
    json_out: Option<&Path>,
    baseline: Option<&Path>,
) -> bool {
    let (vocab, db) = datasets.nyt_dataset(TextHierarchy::LP);
    let scratch = datasets
        .cache_dir()
        .join(format!("scan-scratch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let opts = StoreOptions::default().with_partitioning(Partitioning::hash(SHARDS));
    lash_store::convert::write_database(&scratch, &vocab, &db, opts).expect("write corpus");
    let reader = CorpusReader::open(&scratch).expect("open corpus");

    let m = measure(&reader);
    drop(reader);
    let _ = std::fs::remove_dir_all(&scratch);

    let mut table = Table::new(
        "scan",
        "push shard-scan throughput (full + sketch-pruned, format v4)",
        &["full Melem/s", "pruned Melem/s"],
    );
    table.row(vec![
        format!("{:.1}", m.full_melems),
        format!("{:.1}", m.pruned_melems),
    ]);

    let json = format!(
        "{{\n  \"schema\": \"lash-bench-scan/v2\",\n  \"scan_melems_mmap\": {:.2},\n  \
         \"pruned_melems_mmap\": {:.2}\n}}\n",
        m.full_melems, m.pruned_melems
    );
    if let Some(dir) = json_out {
        let _ = std::fs::create_dir_all(dir);
        let path = dir.join("BENCH_scan.json");
        match std::fs::write(&path, &json) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    report.add(table);

    match baseline {
        Some(path) => check_baseline(
            path,
            &[
                ("scan_melems_mmap", m.full_melems),
                ("pruned_melems_mmap", m.pruned_melems),
            ],
        ),
        None => true,
    }
}

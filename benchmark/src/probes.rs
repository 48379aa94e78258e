//! Traced probes of the store and encoding layers: calls into their public
//! functions on the workload's own corpus, timed on their own so the
//! ledger can say in numbers how small a share of a mine run they are.

use std::path::Path;
use std::time::Instant;

use lash::encoding::{frame, group_varint};
use lash::store::CorpusReader;

use crate::workloads::Env;
use crate::Failure;

/// Each kernel is repeated until it has run for about this long.
const KERNEL_MIN_S: f64 = 0.05;

/// Runs `f` until [`KERNEL_MIN_S`] has passed and returns calls per second.
fn calls_per_s(mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut calls = 0u32;
    while calls == 0 || started.elapsed().as_secs_f64() < KERNEL_MIN_S {
        f();
        calls += 1;
    }
    f64::from(calls) / started.elapsed().as_secs_f64()
}

pub fn store_and_encoding(env: &mut Env, corpus_dir: &Path) -> Result<(), Failure> {
    env.rec.on = true;
    let root = env.rec.open("probe.store", None);
    let (reader, _) = env
        .rec
        .time("store.open", root, || CorpusReader::open(corpus_dir));
    let reader = reader?;

    let (flist, flist_t) = env.rec.time("store.flist", root, || reader.flist());
    flist?;
    env.report.set("store.flist_s", flist_t.as_secs_f64());

    // A standalone parallel scan of every shard, keeping shard 0's items as
    // the column the decode kernel is timed on.
    let (scanned, scan_t) = env.rec.time("store.scan", root, || {
        reader.par_scan(env.par, |shard, mut scan| {
            let mut items = 0u64;
            let mut column = Vec::new();
            while let Some(batch) = scan.next_batch()? {
                items += batch.arena().len() as u64;
                if shard == 0 {
                    column.extend(batch.arena().iter().map(|i| i.as_u32()));
                }
            }
            Ok((items, column))
        })
    });
    let scanned = scanned?;
    let items: u64 = scanned.iter().map(|(n, _)| n).sum();
    env.report
        .check(items == reader.manifest().total_items, || {
            format!(
                "the scan saw {items} items, the manifest says {}",
                reader.manifest().total_items
            )
        });
    env.report.set("store.scan_s", scan_t.as_secs_f64());
    env.report.set(
        "store.scan_items_per_s",
        items as f64 / scan_t.as_secs_f64(),
    );

    let column = &scanned[0].1;
    let mut encoded = Vec::new();
    group_varint::encode(column, &mut encoded);
    let mut decoded = vec![0u32; column.len()];
    let (rate, _) = env.rec.time("encoding.gv_decode", root, || {
        calls_per_s(|| {
            group_varint::decode(std::hint::black_box(&encoded), &mut decoded)
                .expect("a column just encoded");
        })
    });
    env.report.check(decoded == *column, || {
        "group-varint round trip changed the column".into()
    });
    env.report
        .set("encoding.gv_decode_items_per_s", rate * column.len() as f64);

    // The checksum the store's frames carry, over one real segment file.
    let segment = first_segment(corpus_dir)?;
    let bytes = std::fs::read(&segment)?;
    let (rate, _) = env.rec.time("encoding.checksum", root, || {
        calls_per_s(|| {
            std::hint::black_box(frame::checksum_wide(std::hint::black_box(&bytes)));
        })
    });
    env.report
        .set("encoding.checksum_bytes_per_s", rate * bytes.len() as f64);
    env.rec.close(root);
    env.rec.on = false;
    Ok(())
}

/// Any one segment file of the corpus.
fn first_segment(dir: &Path) -> Result<std::path::PathBuf, Failure> {
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "seg") {
                return Ok(path);
            }
        }
    }
    Err("the corpus holds no segment file".into())
}

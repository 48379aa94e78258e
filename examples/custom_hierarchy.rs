//! Bring your own hierarchy: build a vocabulary from domain data, mine with
//! different parameters, and inspect closed/maximal/non-trivial statistics
//! (the paper's Table 3 machinery).
//!
//! Run with: `cargo run --example custom_hierarchy`

use lash::stats::{non_trivial_count, output_stats};
use lash::{GsmParams, Lash, LashConfig, SequenceDatabase, VocabularyBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An event-log hierarchy: concrete error codes generalize to classes.
    let mut vb = VocabularyBuilder::new();
    let error = vb.intern("ERROR");
    let timeout = vb.child("timeout", error);
    let t_db = vb.child("db-timeout", timeout);
    let t_net = vb.child("net-timeout", timeout);
    let crash = vb.child("crash", error);
    let oom = vb.child("oom-crash", crash);
    let seg = vb.child("segfault", crash);
    let info = vb.intern("INFO");
    let deploy = vb.child("deploy", info);
    let restart = vb.child("restart", info);
    let vocab = vb.finish()?;

    // Sessions of log events: deploys followed by some timeout, then a
    // restart; crashes follow deploys in two machines.
    let mut db = SequenceDatabase::new();
    db.push(&[deploy, t_db, restart]);
    db.push(&[deploy, t_net, restart]);
    db.push(&[deploy, oom, restart]);
    db.push(&[deploy, seg]);
    db.push(&[restart, t_db]);
    db.push(&[deploy, t_net]);

    let params = GsmParams::new(3, 0, 3)?;
    let result = Lash::new(LashConfig::default()).mine(&db, &vocab, &params)?;

    println!("frequent generalized event patterns {params}:");
    for p in result.patterns() {
        println!("  {:<28} frequency {}", p.display(&vocab), p.frequency);
    }

    // "deploy timeout" (4×) and "deploy ERROR" (5×... within σ=3, γ=0) never
    // occur literally — only concrete error codes do.
    assert!(result
        .patterns()
        .iter()
        .any(|p| p.display(&vocab) == "deploy ERROR"));

    // Table 3-style output statistics: how much of the output is non-trivial
    // (invisible to a flat miner), closed, and maximal?
    let flat =
        lash_core::distributed::mgfsm::MgFsm::new(Default::default()).mine(&db, &vocab, &params)?;
    let gsm_items: Vec<_> = result.patterns().iter().map(|p| p.items.clone()).collect();
    let flat_items: Vec<_> = flat.patterns().iter().map(|p| p.items.clone()).collect();
    let stats = output_stats(
        &gsm_items,
        &result.pattern_set(),
        &flat_items,
        result.context().space(),
        &vocab,
    );
    println!(
        "\noutput statistics: {} patterns, {:.0}% non-trivial, {:.0}% closed, {:.0}% maximal",
        stats.total, stats.non_trivial_pct, stats.closed_pct, stats.maximal_pct
    );
    println!(
        "(non-trivial means: not derivable by generalizing any flat-frequent pattern; \
         flat mining found {} patterns, so GSM added {} insights)",
        flat_items.len(),
        non_trivial_count(&gsm_items, &flat_items, &vocab)
    );
    Ok(())
}

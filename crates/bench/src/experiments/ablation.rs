//! Ablations of LASH's design choices (DESIGN.md §5): partition rewrites,
//! combiner aggregation, and the PSM right-expansion index.

use lash_core::rewrite::RewriteLevel;
use lash_core::{GsmParams, LashConfig, MinerKind};
use lash_datagen::TextHierarchy;

use crate::datasets::Datasets;
use crate::report::{mib, secs, Report, Table};

use super::{cluster, run_lash};

/// Runs all three ablations on NYT-CLP (σ=100, γ=0, λ=5).
pub fn ablation(datasets: &mut Datasets, report: &mut Report) {
    let (vocab, db) = datasets.nyt_dataset(TextHierarchy::CLP);
    let params = GsmParams::ngram(100, 5).expect("valid params");

    // 1. Rewrite levels: how much do the Sec. 4 rewrites save?
    let mut rewrites = Table::new(
        "ablation_rewrites",
        "Partition-construction rewrites: shuffle volume and time, NYT-CLP(100,0,5)",
        &[
            "rewrite level",
            "shuffled MiB",
            "map (s)",
            "reduce (s)",
            "total (s)",
        ],
    );
    let mut reference = None;
    for (label, level) in [
        ("none (P_w(T)=T)", RewriteLevel::None),
        ("w-generalization only", RewriteLevel::GeneralizeOnly),
        ("full (LASH)", RewriteLevel::Full),
    ] {
        let result = run_lash(
            &db,
            &vocab,
            &params,
            LashConfig::new(cluster()).with_rewrite_level(level),
        );
        match &reference {
            None => reference = Some(result.pattern_set()),
            Some(r) => assert_eq!(
                r,
                &result.pattern_set(),
                "rewrite ablation must not change output"
            ),
        }
        rewrites.row(vec![
            label.to_owned(),
            mib(result.mine_metrics.counters.map_output_bytes),
            secs(result.mine_metrics.map_time),
            secs(result.mine_metrics.reduce_time),
            secs(result.total_time()),
        ]);
    }
    report.add(rewrites);

    // 2. Combiner aggregation of duplicate rewrites (Sec. 4.4).
    let mut aggregation = Table::new(
        "ablation_aggregation",
        "Combiner aggregation of duplicate rewrites, NYT-CLP(100,0,5)",
        &[
            "aggregation",
            "shuffled MiB",
            "shuffle (s)",
            "reduce (s)",
            "total (s)",
        ],
    );
    for (label, on) in [("off", false), ("on (LASH)", true)] {
        let result = run_lash(
            &db,
            &vocab,
            &params,
            LashConfig::new(cluster()).with_aggregation(on),
        );
        aggregation.row(vec![
            label.to_owned(),
            mib(result.mine_metrics.counters.map_output_bytes),
            secs(result.mine_metrics.shuffle_time),
            secs(result.mine_metrics.reduce_time),
            secs(result.total_time()),
        ]);
    }
    report.add(aggregation);

    // 3. The PSM right-expansion index (Sec. 5.2).
    let mut index = Table::new(
        "ablation_psm_index",
        "PSM right-expansion index, NYT-CLP(100,0,5)",
        &["miner", "candidates", "cand/output", "reduce (s)"],
    );
    for miner in [MinerKind::Psm, MinerKind::PsmIndexed] {
        let result = run_lash(
            &db,
            &vocab,
            &params,
            LashConfig::new(cluster()).with_miner(miner),
        );
        index.row(vec![
            miner.name().to_owned(),
            result.miner_stats.candidates.to_string(),
            format!(
                "{:.1}",
                result.miner_stats.candidates_per_output().unwrap_or(0.0)
            ),
            secs(result.mine_metrics.reduce_time),
        ]);
    }
    report.add(index);
}

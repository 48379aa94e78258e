//! Tables 1–3: dataset characteristics, hierarchy characteristics, and
//! output statistics.

use lash_core::distributed::mgfsm::MgFsm;
use lash_core::stats::output_stats;
use lash_core::vocabulary::ItemId;
use lash_core::{GsmParams, LashConfig, LashResult, SequenceDatabase, Vocabulary};
use lash_datagen::describe::{DatasetSummary, HierarchySummary};
use lash_datagen::{ProductHierarchy, TextHierarchy};

use crate::datasets::Datasets;
use crate::report::{Report, Table};

use super::{cluster, run_lash};

/// Table 1: dataset characteristics of the synthetic NYT and AMZN corpora.
pub fn table1(datasets: &mut Datasets, report: &mut Report) {
    let (_, nyt_db) = datasets.nyt_dataset(TextHierarchy::CLP);
    let (_, amzn_db) = datasets.amzn_dataset(ProductHierarchy::H8);
    let rows = [
        DatasetSummary::compute("NYT", &nyt_db),
        DatasetSummary::compute("AMZN", &amzn_db),
    ];
    let mut table = Table::new(
        "table1",
        "Dataset characteristics (synthetic stand-ins)",
        &[
            "dataset",
            "sequences",
            "avg len",
            "max len",
            "total items",
            "unique items",
        ],
    );
    for r in rows {
        table.row(vec![
            r.name,
            r.sequences.to_string(),
            format!("{:.1}", r.avg_length),
            r.max_length.to_string(),
            r.total_items.to_string(),
            r.unique_items.to_string(),
        ]);
    }
    report.add(table);
}

/// Table 2: hierarchy characteristics of all eight hierarchy variants.
pub fn table2(datasets: &mut Datasets, report: &mut Report) {
    let mut table = Table::new(
        "table2",
        "Hierarchy characteristics",
        &[
            "hierarchy",
            "total",
            "leaves",
            "roots",
            "intermediate",
            "levels",
            "avg fan-out",
            "max fan-out",
        ],
    );
    for h in TextHierarchy::all() {
        let vocab = datasets.nyt_reader(h).vocabulary().clone();
        push_row(&mut table, &format!("NYT-{}", h.name()), &vocab);
    }
    for h in ProductHierarchy::all() {
        let vocab = datasets.amzn_reader(h).vocabulary().clone();
        push_row(&mut table, &format!("AMZN-{}", h.name()), &vocab);
    }
    report.add(table);
}

fn push_row(table: &mut Table, name: &str, vocab: &Vocabulary) {
    let s = HierarchySummary::compute(name, vocab).stats;
    table.row(vec![
        name.to_owned(),
        s.total_items.to_string(),
        s.leaf_items.to_string(),
        s.root_items.to_string(),
        s.intermediate_items.to_string(),
        s.levels.to_string(),
        format!("{:.1}", s.avg_fanout),
        s.max_fanout.to_string(),
    ]);
}

/// Table 3: output statistics — % non-trivial / closed / maximal.
///
/// Paper shape: >70% (NYT) and >95% (AMZN) of mined sequences are
/// non-trivial; deeper hierarchies and lower supports increase redundancy
/// (lower closed/maximal percentages) but leave many patterns non-redundant.
pub fn table3(datasets: &mut Datasets, report: &mut Report) {
    let mut table = Table::new(
        "table3",
        "Output statistics (% of mined sequences)",
        &[
            "setting",
            "#patterns",
            "non-trivial %",
            "closed %",
            "maximal %",
        ],
    );

    for h in [TextHierarchy::P, TextHierarchy::LP, TextHierarchy::CLP] {
        let (vocab, db) = datasets.nyt_dataset(h);
        let params = GsmParams::ngram(100, 5).expect("valid params");
        add_stats_row(
            &mut table,
            &format!("NYT-{}", h.name()),
            &db,
            &vocab,
            &params,
        );
    }

    // The paper's σ ∈ {10000, 1000, 100} over 6.6M sessions maps to
    // {625, 125, 25} on the ~300× smaller synthetic corpus.
    let (vocab, db) = datasets.amzn_dataset(ProductHierarchy::H8);
    for sigma in [625u64, 125, 25] {
        let params = GsmParams::new(sigma, 1, 5).expect("valid params");
        add_stats_row(
            &mut table,
            &format!("AMZN-h8 σ={sigma}"),
            &db,
            &vocab,
            &params,
        );
    }
    report.add(table);
}

fn add_stats_row(
    table: &mut Table,
    label: &str,
    db: &SequenceDatabase,
    vocab: &Vocabulary,
    params: &GsmParams,
) {
    let gsm = run_lash(db, vocab, params, LashConfig::new(cluster()));
    let flat = MgFsm::new(cluster())
        .mine(db, vocab, params)
        .expect("flat run");
    let gsm_items = decode_all(&gsm);
    let flat_items = decode_all(&flat);
    let stats = output_stats(
        &gsm_items,
        &gsm.pattern_set(),
        &flat_items,
        gsm.context().space(),
        vocab,
    );
    table.row(vec![
        label.to_owned(),
        stats.total.to_string(),
        format!("{:.2}", stats.non_trivial_pct),
        format!("{:.2}", stats.closed_pct),
        format!("{:.2}", stats.maximal_pct),
    ]);
}

fn decode_all(result: &LashResult) -> Vec<Vec<ItemId>> {
    result.patterns().iter().map(|p| p.items.clone()).collect()
}

//! Fig. 4: distributed baselines (a, b), local miners (c, d), and flat
//! mining against MG-FSM (e).

use lash_core::context::MiningContext;
use lash_core::distributed::flist_job::compute_flist_sharded;
use lash_core::distributed::mgfsm::{lash_flat, MgFsm};
use lash_core::distributed::naive_job::run_naive;
use lash_core::distributed::semi_naive_job::run_semi_naive;
use lash_core::{GsmParams, LashConfig, MinerKind};
use lash_datagen::TextHierarchy;

use crate::datasets::Datasets;
use crate::report::{mib, secs, Report, Table};

use super::{cluster, run_lash, setting_label};

/// Fig. 4(a,b): total time and shuffled bytes of naive vs semi-naive vs LASH
/// on the NYT corpus (generalized n-gram mining, γ = 0).
///
/// Paper shape: LASH wins by ≥10× on the P settings and by orders of
/// magnitude on CLP(100,0,5), where naive and semi-naive were aborted after
/// 12 hours; LASH also shuffles far fewer bytes.
pub fn fig4ab(datasets: &mut Datasets, report: &mut Report) {
    let settings: [(TextHierarchy, u64, usize); 4] = [
        (TextHierarchy::P, 1000, 3),
        (TextHierarchy::P, 100, 3),
        (TextHierarchy::P, 100, 5),
        (TextHierarchy::CLP, 100, 5),
    ];
    let mut time_table = Table::new(
        "fig4a",
        "Total time (s): naive vs semi-naive vs LASH, NYT, γ=0",
        &[
            "setting",
            "naive",
            "semi-naive",
            "LASH",
            "speedup(naive/LASH)",
        ],
    );
    let mut bytes_table = Table::new(
        "fig4b",
        "Shuffled bytes (MiB): map→reduce data volume",
        &["setting", "naive", "semi-naive", "LASH"],
    );
    for (hierarchy, sigma, lambda) in settings {
        let params = GsmParams::ngram(sigma, lambda).expect("valid params");
        let (vocab, db) = datasets.nyt_dataset(hierarchy);
        let label = setting_label(hierarchy.name(), &params);

        // Shared preprocessing (the paper reuses the f-list across methods).
        let (flist, flist_metrics) =
            compute_flist_sharded(&db.shards(cluster().split_size), &vocab, &cluster())
                .expect("flist job");
        let ctx = MiningContext::from_flist(&db, &vocab, flist, params.sigma);

        let (naive_set, naive_metrics) = run_naive(&ctx, &params, &cluster()).expect("naive job");
        let (semi_set, semi_metrics) =
            run_semi_naive(&ctx, &params, &cluster()).expect("semi-naive job");
        let lash = run_lash(&db, &vocab, &params, LashConfig::new(cluster()));
        assert_eq!(
            naive_set,
            lash.pattern_set(),
            "baselines must agree with LASH on {label}"
        );
        assert_eq!(semi_set, lash.pattern_set());

        let naive_t = naive_metrics.total_time;
        let semi_t = flist_metrics.total_time + semi_metrics.total_time;
        let lash_t = lash.total_time();
        time_table.row(vec![
            label.clone(),
            secs(naive_t),
            secs(semi_t),
            secs(lash_t),
            format!(
                "{:.1}x",
                naive_t.as_secs_f64() / lash_t.as_secs_f64().max(1e-9)
            ),
        ]);
        bytes_table.row(vec![
            label,
            mib(naive_metrics.counters.map_output_bytes),
            mib(semi_metrics.counters.map_output_bytes),
            mib(lash.mine_metrics.counters.map_output_bytes),
        ]);
    }
    report.add(time_table);
    report.add(bytes_table);
}

/// Fig. 4(c,d): local mining time and search-space size of BFS vs DFS vs PSM
/// vs PSM+Index inside the LASH reduce phase.
///
/// Paper shape: PSM is 9–22× faster than BFS and 2.5–3.5× faster than DFS;
/// the index further prunes candidates (up to 2×).
pub fn fig4cd(datasets: &mut Datasets, report: &mut Report) {
    let settings: [(TextHierarchy, u64, usize); 4] = [
        (TextHierarchy::LP, 1000, 5),
        (TextHierarchy::LP, 100, 5),
        (TextHierarchy::CLP, 100, 5),
        (TextHierarchy::CLP, 100, 7),
    ];
    let miners = [
        MinerKind::Bfs,
        MinerKind::Dfs,
        MinerKind::Psm,
        MinerKind::PsmIndexed,
    ];
    let mut time_table = Table::new(
        "fig4c",
        "Local mining time (s): reduce-phase time per local miner, NYT, γ=0",
        &["setting", "BFS", "DFS", "PSM", "PSM+Index"],
    );
    let mut space_table = Table::new(
        "fig4d",
        "#Candidate / output sequences per local miner",
        &["setting", "DFS", "PSM", "PSM+Index"],
    );
    for (hierarchy, sigma, lambda) in settings {
        let params = GsmParams::ngram(sigma, lambda).expect("valid params");
        let (vocab, db) = datasets.nyt_dataset(hierarchy);
        let label = setting_label(hierarchy.name(), &params);
        let mut times = Vec::new();
        let mut ratios = Vec::new();
        let mut reference = None;
        for miner in miners {
            let result = run_lash(
                &db,
                &vocab,
                &params,
                LashConfig::new(cluster()).with_miner(miner),
            );
            match &reference {
                None => reference = Some(result.pattern_set()),
                Some(r) => assert_eq!(r, &result.pattern_set(), "{label} {}", miner.name()),
            }
            times.push(secs(result.mine_metrics.reduce_time));
            if miner != MinerKind::Bfs {
                ratios.push(format!(
                    "{:.1}",
                    result.miner_stats.candidates_per_output().unwrap_or(0.0)
                ));
            }
        }
        let mut row = vec![label.clone()];
        row.extend(times);
        time_table.row(row);
        let mut row = vec![label];
        row.extend(ratios);
        space_table.row(row);
    }
    report.add(time_table);
    report.add(space_table);
}

/// Fig. 4(e): sequence mining *without* hierarchies — MG-FSM (BFS local
/// miner) vs LASH (PSM local miner) on the flat NYT corpus.
///
/// Paper shape: LASH wins 2–5×, entirely due to PSM.
pub fn fig4e(datasets: &mut Datasets, report: &mut Report) {
    let settings: [(u64, usize, usize); 3] = [(100, 1, 5), (10, 1, 5), (10, 1, 10)];
    let mut table = Table::new(
        "fig4e",
        "Flat mining (s): MG-FSM vs LASH (no hierarchy), NYT",
        &["setting", "MG-FSM", "LASH", "speedup"],
    );
    // Flat mining only looks at tokens; use the LP vocabulary's surface forms.
    let (vocab, db) = datasets.nyt_dataset(TextHierarchy::LP);
    for (sigma, gamma, lambda) in settings {
        let params = GsmParams::new(sigma, gamma, lambda).expect("valid params");
        let label = setting_label("flat", &params);
        let mgfsm = MgFsm::new(cluster())
            .mine(&db, &vocab, &params)
            .expect("mgfsm run");
        let lash = lash_flat(cluster())
            .mine(&db, &vocab, &params)
            .expect("flat lash run");
        assert_eq!(mgfsm.pattern_set(), lash.pattern_set(), "{label}");
        let t_mgfsm = mgfsm.total_time();
        let t_lash = lash.total_time();
        table.row(vec![
            label,
            secs(t_mgfsm),
            secs(t_lash),
            format!(
                "{:.1}x",
                t_mgfsm.as_secs_f64() / t_lash.as_secs_f64().max(1e-9)
            ),
        ]);
    }
    report.add(table);
}

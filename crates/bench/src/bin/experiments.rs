//! The experiment harness: regenerates every table and figure of the LASH
//! paper's evaluation on the synthetic stand-in corpora.
//!
//! ```text
//! experiments <subcommand>... [--scale F] [--out DIR]
//!
//! subcommands:
//!   table1 table2 table3
//!   fig4a fig4b fig4c fig4d fig4e
//!   fig5a fig5b fig5c fig5d fig5e fig5f
//!   fig6a fig6b fig6c
//!   ablation
//!   all          run everything
//!
//! options:
//!   --scale F    dataset scale factor (default 1.0 ≈ 20k sequences)
//!   --out DIR    write CSVs (default bench_results/)
//!   --no-csv     do not write CSVs
//! ```

use std::collections::BTreeSet;
use std::path::PathBuf;

use lash_bench::experiments::{ablation, compaction, fig4, fig5, fig6, query, scan, serve, tables};
use lash_bench::{Datasets, Report};

fn main() {
    let mut args = std::env::args().skip(1);
    let mut commands: BTreeSet<String> = BTreeSet::new();
    let mut scale = 1.0f64;
    let mut out: Option<PathBuf> = Some(PathBuf::from("bench_results"));
    let mut baseline: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale expects a number"));
            }
            "--out" => {
                out = Some(PathBuf::from(
                    args.next().unwrap_or_else(|| die("--out expects a path")),
                ));
            }
            "--baseline" => {
                baseline = Some(PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| die("--baseline expects a path")),
                ));
            }
            "--no-csv" => out = None,
            "--help" | "-h" => {
                print!("{}", HELP);
                return;
            }
            cmd if !cmd.starts_with('-') => {
                commands.insert(cmd.to_owned());
            }
            other => die(&format!("unknown option {other}")),
        }
    }
    if commands.is_empty() {
        print!("{}", HELP);
        return;
    }
    if commands.remove("all") {
        for c in ALL {
            commands.insert((*c).to_owned());
        }
    }

    let started = std::time::Instant::now();
    let mut datasets = Datasets::new(scale);
    let mut report = Report::new(out.clone());
    let mut bench_ok = true;
    println!(
        "LASH experiment harness — scale {scale}, host threads {}\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );

    // fig4a/fig4b and fig4c/fig4d and fig5c/fig5d share runs; dedupe.
    let mut ran: BTreeSet<&str> = BTreeSet::new();
    for cmd in &commands {
        let run_once = |ran: &mut BTreeSet<&str>, key: &'static str| -> bool { ran.insert(key) };
        match cmd.as_str() {
            "table1" => tables::table1(&mut datasets, &mut report),
            "table2" => tables::table2(&mut datasets, &mut report),
            "table3" => tables::table3(&mut datasets, &mut report),
            "fig4a" | "fig4b" => {
                if run_once(&mut ran, "fig4ab") {
                    fig4::fig4ab(&mut datasets, &mut report);
                }
            }
            "fig4c" | "fig4d" => {
                if run_once(&mut ran, "fig4cd") {
                    fig4::fig4cd(&mut datasets, &mut report);
                }
            }
            "fig4e" => fig4::fig4e(&mut datasets, &mut report),
            "fig5a" => fig5::fig5a(&mut datasets, &mut report),
            "fig5b" => fig5::fig5b(&mut datasets, &mut report),
            "fig5c" | "fig5d" => {
                if run_once(&mut ran, "fig5cd") {
                    fig5::fig5cd(&mut datasets, &mut report);
                }
            }
            "fig5e" => fig5::fig5e(&mut datasets, &mut report),
            "fig5f" => fig5::fig5f(&mut datasets, &mut report),
            "fig6a" => fig6::fig6a(&mut datasets, &mut report),
            "fig6b" => fig6::fig6b(&mut datasets, &mut report),
            "fig6c" => fig6::fig6c(&mut datasets, &mut report),
            "ablation" => ablation::ablation(&mut datasets, &mut report),
            "compaction" => compaction::compaction(&mut datasets, &mut report),
            "query" => {
                bench_ok &= query::query(
                    &mut datasets,
                    &mut report,
                    out.as_deref(),
                    baseline.as_deref(),
                );
            }
            "scan" => {
                bench_ok &= scan::scan(
                    &mut datasets,
                    &mut report,
                    out.as_deref(),
                    baseline.as_deref(),
                );
            }
            "serve" => {
                bench_ok &= serve::serve(
                    &mut datasets,
                    &mut report,
                    out.as_deref(),
                    baseline.as_deref(),
                );
            }
            other => die(&format!("unknown subcommand {other}; see --help")),
        }
    }
    println!(
        "done: {} table(s) in {:.1}s",
        report.tables.len(),
        started.elapsed().as_secs_f64()
    );
    if !bench_ok {
        eprintln!("error: benchmark regression check failed");
        std::process::exit(1);
    }
}

const ALL: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "fig4a",
    "fig4c",
    "fig4e",
    "fig5a",
    "fig5b",
    "fig5c",
    "fig5e",
    "fig5f",
    "fig6a",
    "fig6b",
    "fig6c",
    "ablation",
    "compaction",
    "query",
    "scan",
    "serve",
];

const HELP: &str = "\
LASH experiment harness — regenerates every table and figure of the paper.

usage: experiments <subcommand>... [--scale F] [--out DIR] [--no-csv]

subcommands:
  table1 table2 table3                       dataset / hierarchy / output stats
  fig4a fig4b                                naive vs semi-naive vs LASH (time, bytes)
  fig4c fig4d                                local miners (time, search space)
  fig4e                                      MG-FSM vs LASH without hierarchies
  fig5a fig5b fig5c fig5d                    effect of sigma / gamma / lambda
  fig5e fig5f                                effect of hierarchies
  fig6a fig6b fig6c                          data / strong / weak scaling
  ablation                                   rewrites, aggregation, PSM index
  compaction                                 scan throughput vs. generation count
  query                                      pattern-index query throughput
                                             (writes BENCH_query.json to --out)
  scan                                       push shard-scan throughput, full and pruned
                                             (writes BENCH_scan.json to --out)
  serve                                      daemon saturation over the TCP protocol
                                             (writes BENCH_serve.json to --out)
  all                                        everything

options:
  --scale F         dataset scale factor (default 1.0, about 20k sequences)
  --out DIR         CSV output directory (default bench_results/)
  --baseline FILE   compare `query`/`scan`/`serve` against a baseline BENCH_*.json
                    and fail on >15% throughput regression (the CI bench gates)
  --no-csv          disable CSV output
";

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

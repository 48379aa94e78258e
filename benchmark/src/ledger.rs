//! The whole ledger from one command: every workload in a process of its
//! own, untraced for the end-to-end metrics and traced for the per-layer
//! ones; and `--check-repeat`, two sets of runs compared against the bounds.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Stdio};

use crate::metrics::{parse_result, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{iqr_share, median};
use crate::{host, out_dir, workloads, Failure, RUN_SECONDS};

/// `BENCHMARK.json`, generated from the tables in `metrics.rs`.
pub fn benchmark_json() -> String {
    let better = |higher| if higher { "higher" } else { "lower" };
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n",
    );
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.higher_is_better),
                m.bound
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m.higher_is_better)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Runs one workload in a child process and reads its result line.
fn child(workload: &str, seed: u64, traced: bool) -> Result<RunResult, Failure> {
    let output = Command::new(std::env::current_exe()?)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let (correct, attempted, failed, metrics) = parse_result(line).ok_or_else(|| {
        format!(
            "{workload} printed no result (exit {:?}); last line: {line}",
            output.status.code()
        )
    })?;
    Ok(RunResult {
        correct,
        attempted,
        failed,
        metrics,
    })
}

fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1e5 || v.fract() == 0.0 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}

/// `owned(metric, workload)`: values of the other pairs go in parentheses.
fn table(
    title: &str,
    rows: impl Iterator<Item = (&'static str, &'static str)>,
    cells: &[&BTreeMap<String, f64>],
    owned: impl Fn(&str, &str) -> bool,
) -> String {
    let mut s = format!("{title}\n{:<34}{:<10}", "metric", "unit");
    for w in WORKLOADS {
        let _ = write!(s, "{:>16}", w.name);
    }
    s.push('\n');
    for (name, unit) in rows {
        let _ = write!(s, "{name:<34}{unit:<10}");
        for (w, c) in WORKLOADS.iter().zip(cells) {
            let cell = match c.get(name) {
                None => "-".into(),
                Some(v) if owned(name, w.name) => fmt(*v),
                Some(v) => format!("({})", fmt(*v)),
            };
            let _ = write!(s, "{cell:>16}");
        }
        s.push('\n');
    }
    s
}

/// One untraced and one traced run per workload; prints every metric by
/// name with its unit and records the lot in `out/result.json`.
fn full_ledger(seed: u64) -> Result<bool, Failure> {
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for w in WORKLOADS {
        untraced.push(child(w.name, seed, false)?);
        traced.push(child(w.name, seed, true)?);
    }
    let mut e2e: Vec<BTreeMap<String, f64>> = Vec::new();
    for (u, t) in untraced.iter().zip(&traced) {
        let mut m = u.metrics.clone();
        m.insert(
            "failed_share".into(),
            (u.failed + t.failed) as f64 / (u.attempted + t.attempted) as f64,
        );
        e2e.push(m);
    }
    let e2e_rows = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain([("failed_share", "share")]);
    println!(
        "{}",
        table(
            &format!(
                "End-to-end (untraced run, seed {seed}, {RUN_SECONDS} s measured; in parentheses: \
                 read on the way to the workload's own loop, not in it)"
            ),
            e2e_rows,
            &e2e.iter().collect::<Vec<_>>(),
            |metric, workload| {
                END_TO_END
                    .iter()
                    .find(|m| m.name == metric)
                    .is_none_or(|m| m.owned_by(workload))
            },
        )
    );
    println!(
        "{}",
        table(
            "Per layer (traced run; 0 = not exercised by the workload)",
            PER_LAYER.iter().map(|m| (m.name, m.unit)),
            &traced.iter().map(|t| &t.metrics).collect::<Vec<_>>(),
            |_, _| true,
        )
    );
    let all_correct = untraced.iter().chain(&traced).all(|r| r.correct);
    println!(
        "checks: {}",
        if all_correct {
            "every check passed"
        } else {
            "FAILED"
        }
    );

    let mut json = format!(
        "{{\n  \"host\": {{{}}},\n  \"seed\": {seed},\n  \"seconds\": {RUN_SECONDS},\n  \
         \"frozen_sizes\": {{{}}},\n  \"workloads\": {{\n",
        host::fingerprint_json(),
        workloads::frozen_sizes_json()
    );
    for (i, w) in WORKLOADS.iter().enumerate() {
        let body = |m: &BTreeMap<String, f64>| {
            m.iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let _ = writeln!(
            json,
            "    \"{}\": {{\"correct\": {}, \"end_to_end\": {{{}}}, \"per_layer\": {{{}}}}}{}",
            w.name,
            untraced[i].correct && traced[i].correct,
            body(&e2e[i]),
            body(&traced[i].metrics),
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        );
    }
    json.push_str("  }\n}\n");
    let path = out_dir().join("result.json");
    std::fs::write(&path, json)?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

/// Untraced runs per workload in each set of `--check-repeat`, each with a
/// seed of its own: what the driver that gates later PRs does.
const RUNS_PER_SET: u64 = 10;

fn run_set(seed: u64) -> Result<Vec<Vec<RunResult>>, Failure> {
    WORKLOADS
        .iter()
        .map(|w| {
            (0..RUNS_PER_SET)
                .map(|r| child(w.name, seed + r, false))
                .collect()
        })
        .collect()
}

/// Two sets back to back. For every metric × workload: both medians, how
/// much worse the second is than the first, each set's quartile spread,
/// and the bound. Fails when a median worsened, or (`setup_s` aside) a
/// spread is wider, by more than the bound. The driver holds every pair to
/// its bound, so this does too; pairs the workload does not own are marked.
fn check_repeat(seed: u64) -> Result<bool, Failure> {
    let sets = [run_set(seed)?, run_set(seed)?];
    let mut ok = sets.iter().flatten().flatten().all(|r| r.correct);
    let mut s = format!(
        "--check-repeat: 2 sets x {RUNS_PER_SET} runs per workload, seeds {seed}..{}, \
         {RUN_SECONDS} s measured; (metric) = not read in the workload's own loop\n\
         {:<16}{:<26}{:>14}{:>14}{:>9}{:>9}{:>9}{:>8}\n",
        seed + RUNS_PER_SET - 1,
        "workload",
        "metric",
        "median 1",
        "median 2",
        "worse",
        "spread 1",
        "spread 2",
        "bound"
    );
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for m in END_TO_END {
            let values = |set: &Vec<Vec<RunResult>>| -> Vec<f64> {
                set[wi].iter().map(|r| r.metrics[m.name]).collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            let (ma, mb) = (median(&a), median(&b));
            let worse = if m.higher_is_better {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            let (sa, sb) = (iqr_share(&a), iqr_share(&b));
            let within = worse <= m.bound && (m.name == "setup_s" || sa.max(sb) <= m.bound);
            ok &= within;
            let name = if m.owned_by(w.name) {
                m.name.to_string()
            } else {
                format!("({})", m.name)
            };
            let _ = writeln!(
                s,
                "{:<16}{:<26}{:>14}{:>14}{:>8.1}%{:>8.1}%{:>8.1}%{:>7.0}%{}",
                w.name,
                name,
                fmt(ma),
                fmt(mb),
                worse * 100.0,
                sa * 100.0,
                sb * 100.0,
                m.bound * 100.0,
                if within { "" } else { "  EXCEEDED" }
            );
        }
    }
    let _ = writeln!(
        s,
        "{}",
        if ok {
            "every metric within its bound"
        } else {
            "FAILED"
        }
    );
    print!("{s}");
    std::fs::write(out_dir().join("check-repeat.txt"), &s)?;
    Ok(ok)
}

pub fn run(seed: u64, repeat: bool) -> Result<bool, Failure> {
    std::fs::create_dir_all(out_dir())?;
    if repeat {
        check_repeat(seed)
    } else {
        full_ledger(seed)
    }
}

#[cfg(test)]
mod tests {
    /// The checked-in `BENCHMARK.json` is this function's output.
    #[test]
    fn benchmark_json_is_generated_from_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            super::benchmark_json(),
            "regenerate with `cargo run --release --manifest-path benchmark/Cargo.toml -- --print-benchmark-json > BENCHMARK.json`"
        );
    }
}

//! The LASH perf ledger.
//!
//! `lash-ledger --workload W --seed N --seconds 10 --trace 0|1` runs one
//! workload in this process and prints its metrics, the last line of
//! standard output being one JSON object. Without `--workload` it runs
//! every workload untraced and again traced, each in a process of its own,
//! and prints the whole ledger; `--check-repeat` runs two sets of ten
//! untraced runs per workload back to back and compares them against the
//! bounds.
//!
//! Everything is measured from outside the library: by timing calls into
//! `lash::…` facade paths with default configurations, and by reading the
//! values those calls return and the counters of `lash::obs::global()`.

mod digest;
mod host;
mod ledger;
mod metrics;
mod mix;
mod obsread;
mod probes;
mod serving;
mod stats;
mod trace;
mod wire;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{Report, END_TO_END, PER_LAYER, WORKLOADS};
use workloads::{Env, NytJob};

pub type Failure = Box<dyn std::error::Error + Send + Sync>;

pub const DEFAULT_SEED: u64 = 20150601;
/// `run_seconds` of `BENCHMARK.json`: the measured part every workload's
/// repetition, round, step and pass counts are sized for. The driver passes
/// it as `--seconds`; it is not a knob, and any other value is refused.
pub const RUN_SECONDS: u64 = 10;

/// In a traced run, repetitions alternate untraced, traced, traced,
/// untraced, …: both kinds see the same inputs and any linear drift
/// cancels, so their ratio is the cost of tracing and not of the order.
pub fn traced_rep(i: usize) -> bool {
    matches!(i % 4, 1 | 2)
}

/// `benchmark/out`, beside this package's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: Option<String>,
    seed: u64,
    traced: bool,
    check_repeat: bool,
    print_benchmark_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        traced: false,
        check_repeat: false,
        print_benchmark_json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds != RUN_SECONDS as f64 {
                    return Err(format!(
                        "every workload is sized for --seconds {RUN_SECONDS}, not {seconds}"
                    ));
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--check-repeat" => args.check_repeat = true,
            "--print-benchmark-json" => args.print_benchmark_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.iter().any(|k| k.name == w) {
            return Err(format!("unknown workload {w}"));
        }
    }
    Ok(args)
}

/// Removes every `LASH_*` variable from this process's environment, so no
/// knob of the library is set from outside, and says so.
fn scrub_environment() {
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("LASH_"))
        .collect();
    for k in &knobs {
        std::env::remove_var(k);
    }
    eprintln!(
        "removed {} LASH_* variables from the environment{}{}",
        knobs.len(),
        if knobs.is_empty() { "" } else { ": " },
        knobs.join(" ")
    );
}

fn run_workload(args: &Args, workload: &str) -> Result<Report, Failure> {
    let out = out_dir();
    let work = out.join(format!("work-{workload}-{}", std::process::id()));
    if work.exists() {
        std::fs::remove_dir_all(&work)?;
    }
    std::fs::create_dir_all(&work)?;
    let mut env = Env {
        seed: args.seed,
        traced: args.traced,
        work: work.clone(),
        par: host::nproc().min(2),
        rec: trace::Recorder::new(),
        report: Report::default(),
    };
    eprintln!(
        "{workload}: seed {} seconds {RUN_SECONDS} trace {} parallelism {} reduce tasks {} split size {}",
        args.seed,
        u8::from(args.traced),
        env.par,
        workloads::REDUCE_TASKS,
        workloads::SPLIT_SIZE
    );
    let before = obsread::ObsSnap::take();
    let result = match workload {
        "nyt_lash" => workloads::run_nyt(&mut env, NytJob::Lash),
        "nyt_seminaive" => workloads::run_nyt(&mut env, NytJob::SemiNaive),
        "amzn_refresh" => workloads::run_amzn_refresh(&mut env),
        "serve_steady" => workloads::run_serve_steady(&mut env),
        other => unreachable!("workload {other} passed parse_args"),
    };
    let _ = std::fs::remove_dir_all(&work);
    result?;
    env.report.set(
        "obs.events_emitted",
        obsread::ObsSnap::take().since(&before).events() as f64,
    );
    if args.traced {
        workloads::finish_trace(&mut env, workload, &out)?;
    }
    Ok(env.report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lash-ledger: {e}");
            return ExitCode::from(2);
        }
    };
    if args.print_benchmark_json {
        print!("{}", ledger::benchmark_json());
        return ExitCode::SUCCESS;
    }
    scrub_environment();
    let Some(workload) = &args.workload else {
        return match ledger::run(args.seed, args.check_repeat) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("lash-ledger: {e}");
                ExitCode::FAILURE
            }
        };
    };
    let report = match run_workload(&args, workload) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lash-ledger: {workload} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for p in &report.problems {
        eprintln!("FAILED CHECK: {p}");
    }
    if args.traced {
        for m in PER_LAYER {
            println!(
                "{} {} {}",
                m.name,
                report.get(m.name).unwrap_or(0.0),
                m.unit
            );
        }
    } else {
        for m in END_TO_END {
            println!(
                "{} {} {}",
                m.name,
                report.get(m.name).unwrap_or(0.0),
                m.unit
            );
        }
    }
    println!(
        "failed_share {} share",
        report.failed as f64 / report.attempted.max(1) as f64
    );
    println!("{}", report.result_json(args.traced));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

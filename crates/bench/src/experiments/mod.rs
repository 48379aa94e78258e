//! One module per figure/table group of the paper's evaluation (Sec. 6).

pub mod ablation;
pub mod compaction;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod query;
pub mod scan;
pub mod serve;
pub mod tables;

use lash_core::{GsmParams, Lash, LashConfig, LashResult, SequenceDatabase, Vocabulary};
use lash_mapreduce::EngineConfig;

/// The default cluster configuration for experiments: all host threads, a
/// fixed number of reduce partitions for run-to-run comparability.
pub fn cluster() -> EngineConfig {
    EngineConfig::default()
        .with_reduce_tasks(16)
        .with_split_size(1024)
}

/// Runs LASH with the given configuration and returns the result.
pub fn run_lash(
    db: &SequenceDatabase,
    vocab: &Vocabulary,
    params: &GsmParams,
    config: LashConfig,
) -> LashResult {
    Lash::new(config)
        .mine(db, vocab, params)
        .expect("experiment run failed")
}

/// A parameter setting label like "P(1000,0,3)".
pub fn setting_label(hierarchy: &str, params: &GsmParams) -> String {
    format!(
        "{hierarchy}({},{},{})",
        params.sigma, params.gamma, params.lambda
    )
}

/// Allowed relative throughput drop against a checked-in baseline before a
/// perf-gated experiment fails the run (the CI gates' contract: >15%
/// regression is a failure).
pub const REGRESSION_TOLERANCE: f64 = 0.15;

/// Extracts `"key": <number>` from a flat JSON object — enough for the
/// BENCH_*.json files the gated experiments write themselves (the repo is
/// offline; no JSON dep).
pub fn json_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let rest = &json[json.find(&needle)? + needle.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Checks measured throughputs against a baseline JSON file; returns
/// `false` (and prints the offending keys) when any metric fell more than
/// [`REGRESSION_TOLERANCE`] below its baseline.
pub fn check_baseline(path: &std::path::Path, measured: &[(&str, f64)]) -> bool {
    let base = match std::fs::read_to_string(path) {
        Ok(base) => base,
        Err(e) => {
            eprintln!("error: cannot read baseline {}: {e}", path.display());
            return false;
        }
    };
    let mut ok = true;
    for (key, current) in measured {
        let Some(expected) = json_number(&base, key) else {
            eprintln!("error: baseline {} lacks key {key}", path.display());
            ok = false;
            continue;
        };
        let floor = expected * (1.0 - REGRESSION_TOLERANCE);
        if *current < floor {
            eprintln!(
                "error: {key} regressed: {current:.1} < {floor:.1} (baseline {expected:.1} − \
                 {:.0}% tolerance)",
                REGRESSION_TOLERANCE * 100.0
            );
            ok = false;
        } else {
            println!("baseline check: {key} {current:.1} >= {floor:.1} — ok");
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::json_number;

    #[test]
    fn flat_json_numbers_parse() {
        let json = "{\n  \"a\": 12.5,\n  \"b_c\": 3,\n  \"neg\": -1.25e2\n}";
        assert_eq!(json_number(json, "a"), Some(12.5));
        assert_eq!(json_number(json, "b_c"), Some(3.0));
        assert_eq!(json_number(json, "neg"), Some(-125.0));
        assert_eq!(json_number(json, "missing"), None);
    }
}

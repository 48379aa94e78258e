//! Validation of the JSONL event stream: per-line schema checks plus
//! stream-level referential integrity of the trace graph. Run from the
//! command line as `obs validate` (the `obs` binary of `lash-serve`), and
//! usable directly from tests via [`validate_lines`].
//!
//! ## Checks
//!
//! Per line:
//! * parses as a JSON object with numeric `ts_us`, string `event` and
//!   `name`;
//! * `span` and `slow_op` events carry a non-negative numeric `dur_us`;
//! * `trace_id` / `span_id` / `parent_id`, when present, are well-formed
//!   hex ids, appear together sensibly (`span_id` requires `trace_id`),
//!   and spans always carry a context.
//!
//! Per stream (referential integrity):
//! * no two `span` events share a `span_id` within a trace;
//! * every `parent_id` resolves to a `span` emitted in the same trace;
//! * every trace containing spans has exactly one root (no `parent_id`).
//!
//! The stream-level graph checks assume a *complete* stream. A flight-
//! recorder ring dump (or a daemon's `RecentEvents` admin reply) is a
//! window onto a longer stream — parents and roots may have scrolled out —
//! so those are checked with [`validate_str_schema_only`], which keeps
//! every per-line check but skips the graph.

use crate::json::{self, Value};
use crate::trace::TraceCtx;
use std::collections::BTreeMap;

/// One parsed and schema-checked event line, reduced to the bits the
/// stream-level checks and the [`crate::tree`] builder need.
#[derive(Clone, Debug)]
pub struct ParsedEvent {
    /// The `event` classifier (`span`, `slow_op`, `error`, ...).
    pub event: String,
    /// The `name` of the span or event source.
    pub name: String,
    /// Wall-clock timestamp in microseconds.
    pub ts_us: u64,
    /// `dur_us`, for events that carry one.
    pub dur_us: Option<u64>,
    /// Trace context, for events that carry one (`parent_id` 0 = root).
    pub ctx: Option<TraceCtx>,
}

fn req_str(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string \"{key}\""))
}

fn opt_id(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(Value::String(s)) => TraceCtx::parse_id(s)
            .map(Some)
            .ok_or_else(|| format!("\"{key}\" is not a hex id: {s:?}")),
        Some(_) => Err(format!("\"{key}\" must be a hex-string id")),
    }
}

/// Parses and schema-checks one line. Returns the reduced event, or a
/// message describing the first violation.
pub fn validate_line(line: &str) -> Result<ParsedEvent, String> {
    let v = json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
    let ts_us = v
        .get("ts_us")
        .and_then(Value::as_f64)
        .ok_or("missing or non-numeric \"ts_us\"")?;
    if ts_us < 0.0 {
        return Err("negative \"ts_us\"".to_string());
    }
    let event = req_str(&v, "event")?;
    let name = req_str(&v, "name")?;
    let dur_us = match v.get("dur_us") {
        None => None,
        Some(d) => {
            let d = d.as_f64().ok_or("non-numeric \"dur_us\"")?;
            if d < 0.0 {
                return Err("negative \"dur_us\"".to_string());
            }
            Some(d as u64)
        }
    };
    if (event == "span" || event == "slow_op") && dur_us.is_none() {
        return Err(format!("\"{event}\" event without \"dur_us\""));
    }

    let trace_id = opt_id(&v, "trace_id")?;
    let span_id = opt_id(&v, "span_id")?;
    let parent_id = opt_id(&v, "parent_id")?;
    let ctx = match (trace_id, span_id) {
        (Some(trace_id), Some(span_id)) => Some(TraceCtx {
            trace_id,
            span_id,
            parent_id: parent_id.unwrap_or(0),
        }),
        (None, None) => {
            if parent_id.is_some() {
                return Err("\"parent_id\" without \"trace_id\"/\"span_id\"".to_string());
            }
            None
        }
        _ => {
            return Err("\"trace_id\" and \"span_id\" must appear together".to_string());
        }
    };
    if event == "span" && ctx.is_none() {
        return Err("\"span\" event without trace context".to_string());
    }
    if event == "admin" {
        match v.get("kind").and_then(Value::as_str) {
            Some(kind) if !kind.is_empty() => {}
            _ => return Err("\"admin\" event without a string \"kind\"".to_string()),
        }
    }
    Ok(ParsedEvent {
        event,
        name,
        ts_us: ts_us as u64,
        dur_us,
        ctx,
    })
}

/// Aggregate results of a stream validation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Total event lines checked.
    pub events: u64,
    /// Lines with `event == "span"`.
    pub spans: u64,
    /// Lines with `event == "slow_op"`.
    pub slow_ops: u64,
    /// Lines with `event == "admin"` (admin-lane requests answered).
    pub admins: u64,
    /// Distinct traces seen (events carrying a `trace_id`).
    pub traces: u64,
}

#[derive(Default)]
struct TraceCheck {
    /// span_id → first line number that declared it.
    spans: BTreeMap<u64, usize>,
    /// (line, parent_id) references awaiting resolution.
    parents: Vec<(usize, u64)>,
    roots: u64,
}

/// Validates a whole stream: every line must pass [`validate_line`], and
/// the trace graph must be referentially intact. `lines` yields
/// `(line_number, line)` pairs (1-based numbers make for useful errors);
/// blank lines are the caller's to skip. Returns the parsed events and
/// stats, or the first violation found.
pub fn validate_lines<'a>(
    lines: impl IntoIterator<Item = (usize, &'a str)>,
) -> Result<(Vec<ParsedEvent>, StreamStats), String> {
    validate_lines_with(lines, true)
}

/// [`validate_lines`] with the stream-level graph checks made optional:
/// pass `check_graph = false` for *windowed* streams (flight-recorder
/// dumps, `RecentEvents` admin replies) where parents and roots may have
/// scrolled out of the ring. Per-line schema checks always run.
pub fn validate_lines_with<'a>(
    lines: impl IntoIterator<Item = (usize, &'a str)>,
    check_graph: bool,
) -> Result<(Vec<ParsedEvent>, StreamStats), String> {
    let mut stats = StreamStats::default();
    let mut events = Vec::new();
    let mut traces: BTreeMap<u64, TraceCheck> = BTreeMap::new();
    for (number, line) in lines {
        let parsed = validate_line(line).map_err(|e| format!("line {number}: {e}"))?;
        stats.events += 1;
        match parsed.event.as_str() {
            "span" => stats.spans += 1,
            "slow_op" => stats.slow_ops += 1,
            "admin" => stats.admins += 1,
            _ => {}
        }
        if let Some(ctx) = parsed.ctx {
            let check = traces.entry(ctx.trace_id).or_default();
            if parsed.event == "span" {
                if let Some(first) = check.spans.insert(ctx.span_id, number) {
                    return Err(format!(
                        "line {number}: duplicate span id {} in trace {} (first on line {first})",
                        TraceCtx::format_id(ctx.span_id),
                        TraceCtx::format_id(ctx.trace_id),
                    ));
                }
                if ctx.parent_id == 0 {
                    check.roots += 1;
                } else {
                    check.parents.push((number, ctx.parent_id));
                }
            }
        }
        events.push(parsed);
    }
    stats.traces = traces.len() as u64;
    if !check_graph {
        return Ok((events, stats));
    }
    for (trace_id, check) in &traces {
        for (number, parent_id) in &check.parents {
            if !check.spans.contains_key(parent_id) {
                return Err(format!(
                    "line {number}: parent span {} was never emitted in trace {}",
                    TraceCtx::format_id(*parent_id),
                    TraceCtx::format_id(*trace_id),
                ));
            }
        }
        if !check.spans.is_empty() && check.roots != 1 {
            return Err(format!(
                "trace {} has {} root spans (want exactly 1)",
                TraceCtx::format_id(*trace_id),
                check.roots,
            ));
        }
    }
    Ok((events, stats))
}

/// [`validate_lines`] over a string buffer, skipping blank lines.
pub fn validate_str(input: &str) -> Result<(Vec<ParsedEvent>, StreamStats), String> {
    validate_lines(numbered_lines(input))
}

/// Schema-only validation over a string buffer: every per-line check, no
/// trace-graph integrity — for ring dumps and `RecentEvents` scrapes,
/// which are windows onto a longer stream.
pub fn validate_str_schema_only(input: &str) -> Result<(Vec<ParsedEvent>, StreamStats), String> {
    validate_lines_with(numbered_lines(input), false)
}

fn numbered_lines(input: &str) -> impl Iterator<Item = (usize, &str)> {
    input
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| (i + 1, l))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(event: &str, name: &str, ids: &str, dur: Option<u64>) -> String {
        let dur = dur.map(|d| format!(",\"dur_us\":{d}")).unwrap_or_default();
        format!("{{\"ts_us\":1,\"event\":\"{event}\",\"name\":\"{name}\"{ids}{dur}}}")
    }

    fn ids(trace: &str, span: &str, parent: Option<&str>) -> String {
        let parent = parent
            .map(|p| format!(",\"parent_id\":\"{p}\""))
            .unwrap_or_default();
        format!(",\"trace_id\":\"{trace}\",\"span_id\":\"{span}\"{parent}")
    }

    #[test]
    fn accepts_a_wellformed_tree() {
        let input = [
            line("span", "child", &ids("a1", "2", Some("1")), Some(5)),
            line("span", "child2", &ids("a1", "3", Some("1")), Some(6)),
            line("slow_op", "child2", &ids("a1", "3", Some("1")), Some(6)),
            line("span", "root", &ids("a1", "1", None), Some(20)),
            line("event", "index.swap", "", None),
        ]
        .join("\n");
        let (events, stats) = validate_str(&input).expect("valid stream");
        assert_eq!(events.len(), 5);
        assert_eq!(
            stats,
            StreamStats {
                events: 5,
                spans: 3,
                slow_ops: 1,
                admins: 0,
                traces: 1
            }
        );
    }

    #[test]
    fn admin_events_require_a_kind_and_are_counted() {
        let err = validate_line("{\"ts_us\":1,\"event\":\"admin\",\"name\":\"serve.admin\"}")
            .unwrap_err();
        assert!(err.contains("kind"), "{err}");
        let input =
            "{\"ts_us\":1,\"event\":\"admin\",\"name\":\"serve.admin\",\"kind\":\"health\"}";
        let (_, stats) = validate_str(input).expect("valid admin event");
        assert_eq!(stats.admins, 1);
    }

    #[test]
    fn schema_only_mode_accepts_a_truncated_window() {
        // A child span whose parent scrolled out of the ring: the full
        // graph check rejects it, the windowed check accepts it.
        let input = line("span", "orphan", &ids("a1", "2", Some("99")), Some(5));
        assert!(validate_str(&input).is_err());
        let (events, stats) = validate_str_schema_only(&input).expect("schema-only accepts");
        assert_eq!(events.len(), 1);
        assert_eq!(stats.spans, 1);
        // Schema violations still fail.
        assert!(validate_str_schema_only("{\"event\":\"span\"}").is_err());
    }

    #[test]
    fn rejects_unresolved_parent() {
        let input = [
            line("span", "orphan", &ids("a1", "2", Some("99")), Some(5)),
            line("span", "root", &ids("a1", "1", None), Some(20)),
        ]
        .join("\n");
        let err = validate_str(&input).unwrap_err();
        assert!(err.contains("never emitted"), "{err}");
    }

    #[test]
    fn rejects_duplicate_span_ids() {
        let input = [
            line("span", "a", &ids("a1", "1", None), Some(5)),
            line("span", "b", &ids("a1", "1", None), Some(5)),
        ]
        .join("\n");
        let err = validate_str(&input).unwrap_err();
        assert!(err.contains("duplicate span id"), "{err}");
    }

    #[test]
    fn rejects_multiple_roots_in_one_trace() {
        let input = [
            line("span", "a", &ids("a1", "1", None), Some(5)),
            line("span", "b", &ids("a1", "2", None), Some(5)),
        ]
        .join("\n");
        let err = validate_str(&input).unwrap_err();
        assert!(err.contains("root spans"), "{err}");
    }

    #[test]
    fn rejects_schema_violations() {
        for (bad, want) in [
            ("{\"event\":\"span\"}", "ts_us"),
            ("{\"ts_us\":1,\"event\":\"span\"}", "name"),
            (
                "{\"ts_us\":1,\"event\":\"span\",\"name\":\"x\",\"trace_id\":\"a\",\"span_id\":\"1\"}",
                "dur_us",
            ),
            (
                "{\"ts_us\":1,\"event\":\"span\",\"name\":\"x\",\"dur_us\":1}",
                "trace context",
            ),
            (
                "{\"ts_us\":1,\"event\":\"e\",\"name\":\"x\",\"trace_id\":\"a\"}",
                "together",
            ),
            (
                "{\"ts_us\":1,\"event\":\"e\",\"name\":\"x\",\"dur_us\":-3}",
                "negative",
            ),
            (
                "{\"ts_us\":1,\"event\":\"e\",\"name\":\"x\",\"trace_id\":\"zz\",\"span_id\":\"1\"}",
                "hex id",
            ),
            ("not json", "JSON"),
        ] {
            let err = validate_line(bad).unwrap_err();
            assert!(err.contains(want), "for {bad}: {err}");
        }
    }
}

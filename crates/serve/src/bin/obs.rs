//! The `obs` CLI: offline tooling over `LASH_OBS_JSONL` event streams,
//! plus live operational views over a running daemon's admin lane.
//!
//! ```text
//! obs trace-view   <events.jsonl> [--trace <hex-id>] [--all | --top <n>]
//! obs validate     <events.jsonl> [--schema-only]
//! obs profile-view <folded.txt>
//! obs admin        <metrics|health|slow-ops|recent|profile> --addr HOST:PORT
//!                  [--max <n>] [--reset]
//! obs top          --addr HOST:PORT [--once] [--interval <ms>]
//! ```
//!
//! `trace-view` rebuilds the span forest and renders each trace as an
//! indented tree with total and self wall time per span, flagging the
//! hottest root-to-leaf path with `◆`. By default only the largest trace
//! (most spans) is shown; `--top <n>` shows the n largest, `--all` every
//! one, `--trace <hex-id>` exactly one. `validate` runs the checks of
//! [`lash_obs::validate`] (`--schema-only` skips the trace-graph checks —
//! the right mode for ring dumps and `RecentEvents` output, whose parents
//! may have scrolled out of the window).
//!
//! The live commands speak the daemon's admin lane (never queued behind
//! query batches): `admin` issues one request and prints the raw reply,
//! `profile-view` renders folded-stacks text (from `obs admin profile` or
//! a CI artifact) as a ranked table, and `top` polls `Health` + `Metrics`
//! + `Profile` into a one-screen live view.

use std::time::Duration;

use lash_obs::trace::TraceCtx;
use lash_obs::{admin_view, tree, validate};
use lash_serve::{AdminReply, AdminRequest, Client};

fn usage() -> ! {
    eprintln!(
        "usage: obs trace-view   <events.jsonl> [--trace <hex-id>] [--all | --top <n>]\n\
                obs validate     <events.jsonl> [--schema-only]\n\
                obs profile-view <folded.txt>\n\
                obs admin        <metrics|health|slow-ops|recent|profile> --addr HOST:PORT [--max <n>] [--reset]\n\
                obs top          --addr HOST:PORT [--once] [--interval <ms>]"
    );
    std::process::exit(2);
}

fn read(path: &str) -> String {
    match std::fs::read_to_string(path) {
        Ok(contents) => contents,
        Err(e) => {
            eprintln!("obs: cannot read {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn parse_events(path: &str) -> Vec<validate::ParsedEvent> {
    match validate::validate_str(&read(path)) {
        Ok((events, _)) => events,
        Err(e) => {
            eprintln!("obs: {path}: {e}");
            eprintln!("obs: (run `obs validate {path}` for the full check)");
            std::process::exit(1);
        }
    }
}

fn trace_view(args: &[String]) {
    let mut path = None;
    let mut pick: Option<u64> = None;
    let mut limit = 1usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace" => {
                let id = it.next().unwrap_or_else(|| usage());
                match TraceCtx::parse_id(id) {
                    Some(id) => pick = Some(id),
                    None => {
                        eprintln!("obs: --trace wants a hex id, got {id:?}");
                        std::process::exit(2);
                    }
                }
            }
            "--all" => limit = 0,
            "--top" => {
                limit = it
                    .next()
                    .and_then(|n| n.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            _ if path.is_none() && !arg.starts_with('-') => path = Some(arg.clone()),
            _ => usage(),
        }
    }
    let path = path.unwrap_or_else(|| usage());
    let forest = tree::build_forest(&parse_events(&path));
    if forest.is_empty() {
        eprintln!("obs: {path} holds no spans");
        std::process::exit(1);
    }
    let rendered = match pick {
        Some(id) => match forest.iter().find(|t| t.trace_id == id) {
            Some(trace) => tree::render_trace(trace),
            None => {
                eprintln!(
                    "obs: no trace {} in {path} ({} traces present)",
                    TraceCtx::format_id(id),
                    forest.len()
                );
                std::process::exit(1);
            }
        },
        None => tree::render_forest(&forest, limit),
    };
    // Written through `write!`, not `print!`: a downstream `head` closing
    // the pipe early must not turn into a panic.
    use std::io::Write;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    if write!(out, "{rendered}").is_err() {
        return;
    }
    if pick.is_none() && limit != 0 && forest.len() > limit {
        let _ = writeln!(
            out,
            "({} more trace(s) — use --all, --top <n>, or --trace <hex-id>)",
            forest.len() - limit
        );
    }
}

fn validate_cmd(args: &[String]) {
    let (path, schema_only) = match args {
        [path] => (path, false),
        [path, flag] | [flag, path] if flag == "--schema-only" => (path, true),
        _ => usage(),
    };
    let contents = read(path);
    let result = if schema_only {
        validate::validate_str_schema_only(&contents)
    } else {
        validate::validate_str(&contents)
    };
    match result {
        Ok((_, stats)) if stats.events > 0 => println!(
            "obs: {} events OK ({} spans, {} slow-ops, {} admins, {} traces{}) in {path}",
            stats.events,
            stats.spans,
            stats.slow_ops,
            stats.admins,
            stats.traces,
            if schema_only { ", schema-only" } else { "" },
        ),
        Ok(_) => {
            eprintln!(
                "obs: {path} holds no events — was {} set?",
                lash_obs::JSONL_ENV
            );
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("obs: {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn profile_view(args: &[String]) {
    let [path] = args else { usage() };
    print!("{}", admin_view::render_profile(&read(path)));
}

/// Parses `--addr HOST:PORT` plus any command-specific flags out of `args`.
struct AdminArgs {
    addr: String,
    max: u32,
    reset: bool,
    once: bool,
    interval: Duration,
    positional: Vec<String>,
}

fn parse_admin_args(args: &[String]) -> AdminArgs {
    let mut out = AdminArgs {
        addr: String::new(),
        max: 0,
        reset: false,
        once: false,
        interval: Duration::from_millis(1000),
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => out.addr = it.next().unwrap_or_else(|| usage()).clone(),
            "--max" => {
                out.max = it
                    .next()
                    .and_then(|n| n.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--reset" => out.reset = true,
            "--once" => out.once = true,
            "--interval" => {
                let ms: u64 = it
                    .next()
                    .and_then(|n| n.parse().ok())
                    .unwrap_or_else(|| usage());
                out.interval = Duration::from_millis(ms.max(50));
            }
            _ if !arg.starts_with('-') => out.positional.push(arg.clone()),
            _ => usage(),
        }
    }
    if out.addr.is_empty() {
        eprintln!("obs: --addr HOST:PORT is required for live commands");
        std::process::exit(2);
    }
    out
}

fn connect(addr: &str) -> Client {
    match Client::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("obs: cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    }
}

fn call(client: &mut Client, request: &AdminRequest) -> AdminReply {
    match client.admin(request) {
        Ok(reply) => reply,
        Err(e) => {
            eprintln!("obs: admin request failed: {e}");
            std::process::exit(1);
        }
    }
}

fn admin_cmd(args: &[String]) {
    let parsed = parse_admin_args(args);
    let [what] = parsed.positional.as_slice() else {
        usage()
    };
    let request = match what.as_str() {
        "metrics" => AdminRequest::Metrics,
        "health" => AdminRequest::Health,
        "slow-ops" => AdminRequest::SlowOps { max: parsed.max },
        "recent" => AdminRequest::RecentEvents { max: parsed.max },
        "profile" => AdminRequest::Profile {
            reset: parsed.reset,
        },
        _ => usage(),
    };
    let mut client = connect(&parsed.addr);
    match call(&mut client, &request) {
        AdminReply::Metrics { text, windows } => {
            print!("{text}");
            for w in &windows {
                println!(
                    "# window {} window_us={} count={} sum={} p50={} p95={} p99={} max={}",
                    w.name, w.window_us, w.count, w.sum, w.p50, w.p95, w.p99, w.max
                );
            }
        }
        AdminReply::Health { phase, fields } => {
            println!("phase {phase}");
            for (key, value) in &fields {
                println!("{key} {value}");
            }
        }
        AdminReply::Lines(lines) => {
            for line in &lines {
                println!("{line}");
            }
        }
        AdminReply::Profile {
            hz,
            samples,
            folded,
        } => {
            eprintln!("# profiler hz={hz} samples={samples}");
            print!("{folded}");
        }
    }
}

/// One `top` refresh: scrape Health + Metrics + Profile into a snapshot.
fn scrape_top(client: &mut Client) -> admin_view::TopSnapshot {
    let mut snap = admin_view::TopSnapshot::default();
    if let AdminReply::Health { phase, fields } = call(client, &AdminRequest::Health) {
        snap.phase = phase;
        snap.health = fields;
    }
    if let AdminReply::Metrics { windows, .. } = call(client, &AdminRequest::Metrics) {
        snap.windows = windows;
    }
    if let AdminReply::Profile {
        samples, folded, ..
    } = call(client, &AdminRequest::Profile { reset: false })
    {
        snap.profile_samples = samples;
        snap.profile_folded = folded;
    }
    snap
}

fn top_cmd(args: &[String]) {
    let parsed = parse_admin_args(args);
    if !parsed.positional.is_empty() {
        usage();
    }
    let mut client = connect(&parsed.addr);
    loop {
        let view = admin_view::render_top(&scrape_top(&mut client));
        if parsed.once {
            print!("{view}");
            return;
        }
        // ANSI clear + home: one-screen live view, refreshed in place.
        print!("\x1b[2J\x1b[H{view}");
        use std::io::Write;
        let _ = std::io::stdout().flush();
        std::thread::sleep(parsed.interval);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "trace-view" => trace_view(rest),
        Some((cmd, rest)) if cmd == "validate" => validate_cmd(rest),
        Some((cmd, rest)) if cmd == "profile-view" => profile_view(rest),
        Some((cmd, rest)) if cmd == "admin" => admin_cmd(rest),
        Some((cmd, rest)) if cmd == "top" => top_cmd(rest),
        _ => usage(),
    }
}

//! The benchmark's own span recorder. Spans are taken from outside the
//! library, around calls into its public functions, kept in memory, and
//! written out once when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// How far the children of a span may fall short of (or overshoot) covering
/// it before the run is rejected.
pub const TILING_TOLERANCE: f64 = 0.05;

/// The one span left out of the tiling check. Of what `Lifecycle::refresh`
/// does, the library returns or emits a duration only for compaction, the
/// mine job and part of the index build; the rest (corpus open, pattern
/// sort, index write, open and swap) cannot be told apart from outside. Its
/// uncovered share is reported as `serve.refresh_unattributed_share`
/// instead of being passed silently.
pub const UNTILED: &str = "serve.refresh";

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Index of the causing span in the recorder, `None` for a root.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Spans of one repetition / round / pass share this identifier.
    pub run: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    origin: Instant,
    /// Spans are kept only while this is set. Timing itself never depends
    /// on it, so an untraced repetition does the same calls minus the
    /// bookkeeping.
    pub on: bool,
    pub run: u32,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            on: false,
            run: 0,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; `close` ends it. Returns `None` when recording is off.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        let now = self.now_ns();
        self.add(name, parent, now, now)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Records a span whose interval is already known — the synthesised
    /// children built from durations a call returned.
    pub fn add(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns,
            run: self.run,
        });
        Some(self.spans.len() - 1)
    }

    /// Lays `parts` end to end as children of `parent`, starting where the
    /// parent starts. Used for phase durations returned without timestamps.
    pub fn add_sequence(&mut self, parent: Option<usize>, parts: &[(&'static str, Duration)]) {
        let Some(p) = parent else { return };
        let mut at = self.spans[p].start_ns;
        for &(name, dur) in parts {
            let end = at + dur.as_nanos() as u64;
            self.add(name, Some(p), at, end);
            at = end;
        }
    }

    /// Times `f`, recording it as a span when recording is on.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.open(name, parent);
        let started = Instant::now();
        let out = f();
        let elapsed = started.elapsed();
        self.close(id);
        (out, elapsed)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let selfs = self_times(&self.spans);
        for (id, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            write!(out, "{{\"id\":{id},\"name\":\"{}\",", s.name)?;
            match s.parent {
                Some(p) => write!(out, "\"parent\":{p},")?,
                None => write!(out, "\"parent\":null,")?,
            }
            writeln!(
                out,
                "\"run\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.run, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time per span: its duration minus the part its children cover.
/// Children of one parent are laid out one after another by every caller in
/// this benchmark, so their durations add.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .zip(coverage(spans))
        .map(|(s, covered)| s.dur_ns().saturating_sub(covered.unwrap_or(0)))
        .collect()
}

/// Time the children of each span cover, and whether it has any.
fn coverage(spans: &[Span]) -> Vec<Option<u64>> {
    let mut covered = vec![None; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            *covered[p].get_or_insert(0) += s.dur_ns();
        }
    }
    covered
}

/// Checks that the children of every span that has children cover it within
/// [`TILING_TOLERANCE`], in either direction — the harness's own brackets
/// under a root, and the children synthesised from durations the library
/// returned under `core.mine` and `core.mine_job` alike. [`UNTILED`] spans
/// are skipped.
pub fn check_tiling(spans: &[Span]) -> Result<(), String> {
    for (s, covered) in spans.iter().zip(coverage(spans)) {
        let Some(covered) = covered else { continue };
        if s.name == UNTILED || s.dur_ns() == 0 {
            continue;
        }
        let gap = (s.dur_ns() as f64 - covered as f64).abs() / s.dur_ns() as f64;
        if gap > TILING_TOLERANCE {
            return Err(format!(
                "children of span {} (run {}) cover {} of {} ns: off by {:.1}%",
                s.name,
                s.run,
                covered,
                s.dur_ns(),
                gap * 100.0
            ));
        }
    }
    Ok(())
}

/// The share of each span called `name` that its children do not cover.
pub fn uncovered_shares(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .zip(coverage(spans))
        .filter(|(s, _)| s.name == name && s.dur_ns() > 0)
        .map(|(s, covered)| 1.0 - covered.unwrap_or(0) as f64 / s.dur_ns() as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
            run: 0,
        }
    }

    /// root [0,1000) ── a [0,400) ── a1 [0,100), a2 [100,250)
    ///               └─ b [400,980)
    fn tree() -> Vec<Span> {
        vec![
            span("root", None, 0, 1000),
            span("a", Some(0), 0, 400),
            span("a1", Some(1), 0, 100),
            span("a2", Some(1), 100, 250),
            span("b", Some(0), 400, 980),
        ]
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        assert_eq!(self_times(&tree()), vec![20, 150, 100, 150, 580]);
    }

    #[test]
    fn tiling_accepts_a_two_percent_gap_and_rejects_ten() {
        // `a` is 37% self time: a parent below the root is checked too.
        let err = check_tiling(&tree()).unwrap_err();
        assert!(err.contains("span a "), "{err}");
        let mut tight = tree();
        tight[3].end_ns = 395; // a's children now cover 395 of 400
        assert!(check_tiling(&tight).is_ok());
        let mut loose = tight.clone();
        loose[4].end_ns = 900; // the root's children now cover 900 of 1000
        let err = check_tiling(&loose).unwrap_err();
        assert!(err.contains("span root "), "{err}");
    }

    #[test]
    fn the_untiled_span_is_skipped_and_its_uncovered_share_reported() {
        let spans = vec![
            span(UNTILED, None, 0, 1000),
            span("x", Some(0), 0, 910),
            span(UNTILED, None, 1000, 2000),
        ];
        assert!(check_tiling(&spans).is_ok());
        let shares = uncovered_shares(&spans, UNTILED);
        assert_eq!(shares.len(), 2);
        assert!((shares[0] - 0.09).abs() < 1e-12, "{shares:?}");
        assert_eq!(shares[1], 1.0);
    }

    #[test]
    fn tiling_rejects_children_that_overshoot_their_root() {
        let mut over = tree();
        over[3].end_ns = 395;
        assert!(check_tiling(&over).is_ok());
        over[4].end_ns = 1100;
        assert!(check_tiling(&over).is_err());
    }

    #[test]
    fn recorder_keeps_nothing_while_off_but_still_times() {
        let mut rec = Recorder::new();
        let (v, d) = rec.time("x", None, || {
            std::hint::black_box((0..1000u64).sum::<u64>())
        });
        assert_eq!(v, 499_500);
        assert!(d > Duration::ZERO);
        assert!(rec.spans().is_empty());
        rec.on = true;
        let root = rec.open("root", None);
        rec.add_sequence(
            root,
            &[
                ("p", Duration::from_nanos(5)),
                ("q", Duration::from_nanos(7)),
            ],
        );
        rec.close(root);
        let s = rec.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].end_ns, s[2].start_ns);
        assert_eq!(s[2].dur_ns(), 7);
    }
}

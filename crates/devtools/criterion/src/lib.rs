//! A minimal, dependency-free stand-in for the `criterion` crate.
//!
//! The build environment has no crates.io access, so this workspace crate
//! implements the subset of criterion's API that the repository's benches
//! use — `criterion_group!`/`criterion_main!`, [`Criterion`],
//! [`black_box`], benchmark groups with [`Throughput`], and `Bencher::iter`
//! — with a simple calibrated wall-clock measurement loop.
//!
//! Output is one line per benchmark: mean time per iteration and, when a
//! throughput was declared, derived elements/s or bytes/s and the time per
//! element or byte.

use std::hint;
use std::time::{Duration, Instant};

/// Opaque value barrier preventing the optimizer from deleting benchmarked
/// work.
#[inline]
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// Declared per-iteration workload, for throughput reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// The benchmark processes this many logical elements per iteration.
    Elements(u64),
    /// The benchmark processes this many bytes per iteration.
    Bytes(u64),
}

/// The measurement driver passed to `bench_function` closures.
pub struct Bencher {
    /// Mean duration of one iteration, filled in by [`Bencher::iter`].
    mean: Duration,
    target_time: Duration,
}

impl Bencher {
    /// Calibrates an iteration count against the target time, measures, and
    /// records the mean per-iteration duration.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // Warm-up + calibration: find an iteration count that fills the
        // target measurement window.
        let mut iters: u64 = 1;
        let calibration = self.target_time / 10;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            let elapsed = start.elapsed();
            if elapsed >= calibration || iters >= u64::MAX / 2 {
                let per_iter = elapsed.as_nanos().max(1) / iters as u128;
                let measured = (self.target_time.as_nanos() / per_iter).max(1);
                iters = measured.min(u64::MAX as u128) as u64;
                break;
            }
            iters *= 2;
        }
        let start = Instant::now();
        for _ in 0..iters {
            black_box(routine());
        }
        self.mean = start.elapsed() / iters.max(1) as u32;
    }
}

/// Top-level benchmark context.
pub struct Criterion {
    target_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            target_time: Duration::from_millis(300),
        }
    }
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_owned(),
            throughput: None,
        }
    }

    /// Runs a single stand-alone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        run_one(self.target_time, name, None, f);
        self
    }
}

/// A named group of benchmarks sharing a throughput declaration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Declares the per-iteration workload for throughput lines.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Accepted for API compatibility; this harness sizes runs by time.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        let full = format!("{}/{}", self.name, name);
        run_one(self.criterion.target_time, &full, self.throughput, f);
        self
    }

    /// Ends the group (no-op; output is printed eagerly).
    pub fn finish(self) {}
}

fn run_one<F: FnMut(&mut Bencher)>(
    target_time: Duration,
    name: &str,
    throughput: Option<Throughput>,
    mut f: F,
) {
    let mut b = Bencher {
        mean: Duration::ZERO,
        target_time,
    };
    f(&mut b);
    let nanos = b.mean.as_nanos().max(1);
    let mut line = format!("{name:<40} {:>12}/iter", format_nanos(nanos));
    if let Some(t) = throughput {
        let (amount, unit) = match t {
            Throughput::Elements(n) => (n, "elem"),
            Throughput::Bytes(n) => (n, "B"),
        };
        let per_sec = amount as f64 * 1e9 / nanos as f64;
        line.push_str(&format!("  {:>14}/s", format_quantity(per_sec, unit)));
        line.push_str(&format!(
            "  {:>10.1} ns/{unit}",
            nanos as f64 / amount.max(1) as f64
        ));
    }
    println!("{line}");
}

fn format_nanos(nanos: u128) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.3} s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.3} ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.3} µs", nanos as f64 / 1e3)
    } else {
        format!("{nanos} ns")
    }
}

fn format_quantity(v: f64, unit: &str) -> String {
    if v >= 1e9 {
        format!("{:.2} G{unit}", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2} M{unit}", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.2} K{unit}", v / 1e3)
    } else {
        format!("{v:.2} {unit}")
    }
}

/// Collects benchmark functions into a runnable group, as in criterion.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declares `main` running the given groups, as in criterion.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut c = Criterion {
            target_time: Duration::from_millis(5),
        };
        let mut group = c.benchmark_group("smoke");
        group.throughput(Throughput::Elements(10));
        group.bench_function("sum", |b| b.iter(|| (0..10u64).map(black_box).sum::<u64>()));
        group.finish();
    }

    #[test]
    fn formatting_scales_units() {
        assert!(format_nanos(12).ends_with("ns"));
        assert!(format_nanos(12_000).contains("µs"));
        assert!(format_quantity(2.5e6, "B").contains("MB"));
    }
}

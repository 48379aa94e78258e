//! The harness's own arithmetic: medians, percentiles, quartile spread.

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measured at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `pct` percent of the samples at or below it. The rank is worked
/// out in hundredths of a percent, in integers, so that the 99th percentile
/// of 100 samples is the 99th sample whatever 0.99 rounds to.
pub fn percentile_sorted(sorted: &[u64], pct: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), pct).clamp(1, sorted.len()) - 1]
}

fn rank(n: usize, pct: f64) -> usize {
    let hundredths = (pct * 100.0).round() as usize;
    (n * hundredths).div_ceil(10_000)
}

/// The percentiles worth printing for `n` samples: always the median, then
/// each step of the ladder that still has at least ten samples beyond it.
/// The last entry is the highest percentile the sample supports.
pub fn supported_percentiles(n: usize) -> Vec<f64> {
    let mut out = vec![50.0];
    for pct in [90.0, 99.0, 99.9, 99.99] {
        if n - rank(n, pct) >= 10 {
            out.push(pct);
        }
    }
    out
}

/// Min, median, max and count of one timing — what every timing in the
/// ledger is printed as.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

pub fn summarize(values: &[f64]) -> Summary {
    Summary {
        median: median(values),
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        n: values.len(),
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the exclusive method), so the spread printed here is the number the
/// acceptance procedure computes.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() + 1;
    std::array::from_fn(|k| {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Distance between the first and third quartile as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
        assert_eq!(percentile_sorted(&v, 0.0), 1);
        assert_eq!(percentile_sorted(&[7], 99.0), 7);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(supported_percentiles(50), vec![50.0]);
        assert_eq!(supported_percentiles(100), vec![50.0, 90.0]);
        assert_eq!(supported_percentiles(999), vec![50.0, 90.0]);
        assert_eq!(supported_percentiles(1_000), vec![50.0, 90.0, 99.0]);
        assert_eq!(supported_percentiles(40_000), vec![50.0, 90.0, 99.0, 99.9]);
        assert_eq!(
            supported_percentiles(100_000),
            vec![50.0, 90.0, 99.0, 99.9, 99.99]
        );
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }
}

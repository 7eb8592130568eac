//! Exact sample statistics: percentiles are read from the sorted
//! samples themselves, never from histogram bucket bounds.

/// Minimum number of samples that must lie beyond a reported tail
/// percentile for it to count as resolved.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles considered, highest first.
const TAILS: [f64; 5] = [0.99, 0.95, 0.90, 0.75, 0.50];

/// 1-based nearest rank of quantile `q` among `n` samples:
/// `⌈q·n⌉`, clamped to `1..=n`.
pub fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Number of samples strictly after the nearest-rank `q` sample.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// Nearest-rank percentile of already sorted samples.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// The highest of p99/p95/p90/p75/p50 with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median has fewer.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|&q| beyond(n, q) >= MIN_BEYOND)
}

/// Median of `values` (mean of the two middle values for an even
/// count); `NaN` for no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Mean of the middle half of `values`: the lowest and the highest
/// quarter (`⌊n/4⌋` values each) are dropped. Like a median it ignores
/// a few values disturbed from outside; unlike a median it moves
/// smoothly when values split between two levels, instead of jumping
/// from one level to the other. `NaN` for no values.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    mean(&v[cut..v.len() - cut])
}

/// Arithmetic mean; `NaN` for no values.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Per-request durations in nanoseconds on the monotonic clock.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    ns: Vec<u64>,
}

/// A latency distribution as reported: median, p95 and the resolved
/// tail, with the sample count they rest on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Median, in milliseconds.
    pub p50_ms: f64,
    /// 95th percentile, in milliseconds.
    pub p95_ms: f64,
    /// Samples beyond the p95 sample.
    pub p95_beyond: usize,
    /// The highest percentile with at least [`MIN_BEYOND`] samples
    /// beyond it and its value in milliseconds.
    pub tail: Option<(f64, f64)>,
}

impl Samples {
    /// Records one duration.
    pub fn push(&mut self, d: std::time::Duration) {
        self.ns
            .push(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Median, p95 and resolved tail of the samples, or `None` when
    /// there are none.
    pub fn summary(&self) -> Option<Summary> {
        if self.ns.is_empty() {
            return None;
        }
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        let ms = |q: f64| percentile(&sorted, q) as f64 / 1e6;
        Some(Summary {
            count: n,
            p50_ms: ms(0.50),
            p95_ms: ms(0.95),
            p95_beyond: beyond(n, 0.95),
            tail: tail_quantile(n).map(|q| (q, ms(q))),
        })
    }
}

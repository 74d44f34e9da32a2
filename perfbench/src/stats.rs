//! Exact percentiles over raw samples.
//!
//! Every percentile the benchmark reports comes from its own per-request samples,
//! never from a bucketed histogram. A percentile is the nearest-rank value of the
//! sorted samples, and a tail percentile is only reported when at least
//! [`MIN_BEYOND`] samples lie beyond it; otherwise the highest percentile that has
//! that many samples beyond it is reported instead, and named.
//!
//! With at least [`WINDOW`] samples the reported p99 is the median, over
//! consecutive windows of at least [`WINDOW`] samples in arrival order, of each
//! window's exact p99: a few-millisecond scheduling stall of a shared host then
//! moves one window's p99, not the run's.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Fewest samples per p99 window (exactly enough for [`MIN_BEYOND`] beyond p99).
pub const WINDOW: usize = 1000;

/// The nearest-rank `pct`-th percentile of `sorted` (ascending): the smallest value
/// with at least `pct` percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), pct) - 1]
}

/// The 1-based nearest rank of the `pct`-th percentile among `n` samples.
fn rank(n: usize, pct: f64) -> usize {
    // The epsilon keeps a product like 99.9% × 1000 = 999.0000000000001 at 999.
    ((pct / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Number of samples strictly beyond the `pct`-th percentile's rank.
pub fn beyond(n: usize, pct: f64) -> usize {
    n - rank(n, pct)
}

/// The highest whole percentile, at most `wanted`, that has at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when there are too few samples for
/// any percentile to qualify.
pub fn reportable_tail(n: usize, wanted: u32) -> Option<u32> {
    (1..=wanted).rev().find(|&pct| n > 0 && beyond(n, f64::from(pct)) >= MIN_BEYOND)
}

/// Median and tail of one latency distribution, with the sample count that backs
/// them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// The tail percentile actually reported (99 when the samples allow it).
    pub tail_pct: u32,
    /// The value at `tail_pct` (median of the windows' p99s when `windows > 1`).
    pub tail: f64,
    /// Windows the tail was taken over.
    pub windows: usize,
}

impl Summary {
    /// Summarises `samples`, given in arrival order. `None` when there are too few
    /// samples to report even a median with [`MIN_BEYOND`] samples beyond it.
    pub fn of(samples: &[f64]) -> Option<Self> {
        let tail_pct = reportable_tail(samples.len(), 99)?;
        if tail_pct < 50 {
            return None;
        }
        let sorted = sorted(samples);
        let windows = (samples.len() / WINDOW).max(1);
        let tail = if windows > 1 {
            let size = samples.len() / windows;
            let p99s: Vec<f64> = (0..windows)
                .map(|w| {
                    let end = if w + 1 == windows { samples.len() } else { (w + 1) * size };
                    percentile(&self::sorted(&samples[w * size..end]), 99.0)
                })
                .collect();
            median(&p99s)
        } else {
            percentile(&sorted, f64::from(tail_pct))
        };
        Some(Self { count: sorted.len(), p50: percentile(&sorted, 50.0), tail_pct, tail, windows })
    }

    /// A one-line description naming the tail percentile and the sample count.
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "p50={:.4} p{}={:.4} {unit} (n={}, tail over {} window(s))",
            self.p50, self.tail_pct, self.tail, self.count, self.windows
        )
    }
}

/// The median, over consecutive `window_s`-second windows, of the completion rate
/// in each window. `events` are `(seconds since start, completions)` in time order;
/// a trailing partial window is dropped when at least one full window exists. A
/// burst of host noise then moves one window, not the run's figure.
pub fn windowed_rate(events: &[(f64, f64)], window_s: f64) -> f64 {
    let Some(&(end, _)) = events.last() else {
        return 0.0;
    };
    let full = (end / window_s).floor() as usize;
    if full == 0 {
        return events.iter().map(|e| e.1).sum::<f64>() / end.max(f64::MIN_POSITIVE);
    }
    let mut counts = vec![0.0; full];
    for &(at, n) in events {
        if let Some(slot) = counts.get_mut((at / window_s) as usize) {
            *slot += n;
        }
    }
    let rates: Vec<f64> = counts.iter().map(|c| c / window_s).collect();
    median(&rates)
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The nearest-rank median of unsorted samples (0 for no samples).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    percentile(&sorted(samples), 50.0)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles_are_exact_samples() {
        let sorted = ramp(100);
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // No interpolation and no bucketing: 1..=1000 has p99 = 990 exactly.
        assert_eq!(percentile(&ramp(1000), 99.0), 990.0);
        assert_eq!(percentile(&ramp(1000), 99.9), 999.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(reportable_tail(1000, 99), Some(99));
        // 999 samples leave only 9 beyond the p99 rank: fall back to p98.
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(reportable_tail(999, 99), Some(98));
        assert_eq!(reportable_tail(200, 99), Some(95));
        assert_eq!(reportable_tail(20, 99), Some(50));
        assert_eq!(reportable_tail(10, 99), None);
        assert_eq!(reportable_tail(0, 99), None);
    }

    #[test]
    fn summary_names_the_tail_it_reports() {
        let one = Summary::of(&ramp(1500)).unwrap();
        assert_eq!(
            (one.count, one.p50, one.tail_pct, one.tail, one.windows),
            (1500, 750.0, 99, 1485.0, 1)
        );
        let short = Summary::of(&ramp(200)).unwrap();
        assert_eq!((short.tail_pct, short.tail), (95, 190.0));
        assert!(short.describe("ms").contains("p95="));
        assert!(short.describe("ms").contains("n=200"));
        assert!(Summary::of(&ramp(15)).is_none());
    }

    #[test]
    fn windowed_rate_is_the_median_window_rate() {
        // 10 completions per 0.1 s for 3 s, with one 1-second burst at double rate.
        let mut events = Vec::new();
        for i in 0..30 {
            let n = if (10..20).contains(&i) { 20.0 } else { 10.0 };
            events.push(((i + 1) as f64 * 0.1 - 0.05, n));
        }
        assert_eq!(windowed_rate(&events, 1.0), 100.0);
        // The plain mean would have moved by a third.
        let mean_rate = events.iter().map(|e| e.1).sum::<f64>() / 3.0;
        assert!((mean_rate - 133.33).abs() < 0.01);
        // Shorter than one window: the plain rate.
        assert_eq!(windowed_rate(&[(0.25, 5.0), (0.5, 5.0)], 1.0), 20.0);
        assert_eq!(windowed_rate(&[], 1.0), 0.0);
    }

    #[test]
    fn windowed_p99_is_the_median_of_window_p99s() {
        // Three windows of 1000: window p99s are 990, 1990 and 2990.
        let s = Summary::of(&ramp(3000)).unwrap();
        assert_eq!((s.windows, s.tail, s.p50), (3, 1990.0, 1500.0));
        // One stalled window moves its own p99, not the reported one.
        let mut stalled = vec![1.0; 3000];
        for v in &mut stalled[1000..1100] {
            *v = 50.0;
        }
        let s = Summary::of(&stalled).unwrap();
        assert_eq!((s.windows, s.tail), (3, 1.0));
        let whole = percentile(&sorted(&stalled), 99.0);
        assert_eq!(whole, 50.0);
        // The remainder joins the last window; each window keeps >= 10 beyond p99.
        let s = Summary::of(&ramp(2999)).unwrap();
        assert_eq!(s.windows, 2);
    }
}

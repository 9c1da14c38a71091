//! Percentiles under the "at least ten samples beyond" rule, and medians.

use std::ops::Range;

/// A percentile is only reported when at least this many samples lie
/// strictly above its rank; otherwise a lower percentile is reported.
pub const MIN_BEYOND: usize = 10;

/// Percentiles tried, highest first, when reporting a latency tail.
const TAIL_CANDIDATES: [f64; 5] = [0.99, 0.98, 0.95, 0.90, 0.50];

/// Zero-based nearest-rank index of percentile `p` (0 < p ≤ 1) among `n`
/// sorted samples: the smallest rank with at least `p·n` samples at or
/// below it.
pub fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "rank of an empty sample");
    assert!(p > 0.0 && p <= 1.0, "percentile {p} outside (0, 1]");
    // The epsilon keeps products like 0.98·600 from rounding up a rank.
    let r = (p * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n) - 1
}

/// How many of `n` samples lie above percentile `p`'s rank.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - 1 - rank(n, p)
}

/// Percentile `p` of `sorted` (ascending), or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || samples_beyond(sorted.len(), p) < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank(sorted.len(), p)])
}

/// A latency tail: the highest percentile up to `p99` the sample can back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (0.99 when the sample is large enough).
    pub p: f64,
    /// Its value.
    pub value: f64,
}

/// The highest of p99, p98, p95, p90 and p50 with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` for fewer than 20 samples.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    TAIL_CANDIDATES
        .iter()
        .find_map(|&p| percentile(sorted, p).map(|value| Tail { p, value }))
}

/// Sorts a sample of finite values ascending.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    let s = sorted(v.to_vec());
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Median over consecutive chunks of `chunk` samples (in arrival order) of
/// each chunk's percentile `p`; a trailing partial chunk is dropped. A
/// burst of interference on a shared host moves one chunk's tail, not the
/// median of many. `None` when no full chunk exists or `chunk` samples
/// cannot back `p`.
pub fn chunked_percentile(in_order: &[f64], chunk: usize, p: f64) -> Option<f64> {
    let per_chunk: Option<Vec<f64>> = in_order
        .chunks_exact(chunk)
        .map(|c| percentile(&sorted(c.to_vec()), p))
        .collect();
    per_chunk.filter(|v| !v.is_empty()).map(|v| median(&v))
}

/// Mean over `segments` (ranges of `samples`) of each segment's median.
/// Segments too small to back a median are skipped; `None` when none is
/// left.
///
/// On a shared host a run alternates between a fast and a slowed level,
/// and the latencies of one level sit close together. One median over the
/// whole run then jumps from one level to the other as the slowed share of
/// the run crosses a half; the mean of per-segment medians moves in
/// proportion to that share, and a burst of slow queries inside a segment
/// still moves it no more than the segment's median does.
pub fn mean_segment_median(samples: &[f64], segments: &[Range<usize>]) -> Option<f64> {
    let medians: Vec<f64> = segments
        .iter()
        .filter_map(|r| percentile(&sorted(samples[r.clone()].to_vec()), 0.5))
        .collect();
    (!medians.is_empty()).then(|| medians.iter().sum::<f64>() / medians.len() as f64)
}

/// The mean of the middle half of `v` (the interquartile mean): the
/// lowest and highest quarter are dropped. Below four values, the mean.
pub fn interquartile_mean(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "interquartile mean of an empty sample");
    let s = sorted(v.to_vec());
    let q = s.len() / 4;
    let mid = &s[q..s.len() - q];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Splits ascending sample times (in seconds) into consecutive windows of
/// `window` seconds, as index ranges; empty windows are left out.
pub fn time_windows(times: &[f64], window: f64) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut from = 0;
    for i in 1..=times.len() {
        let boundary =
            i == times.len() || (times[i] / window).floor() != (times[from] / window).floor();
        if boundary {
            out.push(from..i);
            from = i;
        }
    }
    out
}

/// Summary of one latency sample in milliseconds.
#[derive(Debug, Clone)]
pub struct Latency {
    /// Number of samples.
    pub count: usize,
    /// Median (`None` below 20 samples).
    pub p50: Option<f64>,
    /// Tail (`None` below 20 samples).
    pub tail: Option<Tail>,
}

impl Latency {
    /// Summarizes unsorted samples.
    pub fn of(samples: &[f64]) -> Self {
        let s = sorted(samples.to_vec());
        Self {
            count: s.len(),
            p50: percentile(&s, 0.5),
            tail: tail(&s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_matches_definition() {
        assert_eq!(rank(100, 0.5), 49);
        assert_eq!(rank(100, 0.99), 98);
        assert_eq!(rank(1000, 0.99), 989);
        assert_eq!(rank(1, 0.5), 0);
        assert_eq!(rank(3, 1.0), 2);
        // p50 of 1..=100 is 50, p99 of 1..=1000 is 990.
        assert_eq!(ramp(100)[rank(100, 0.5)], 50.0);
        assert_eq!(ramp(1000)[rank(1000, 0.99)], 990.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        // 1000 samples: rank 989, ten above it — exactly enough.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        // 999 samples leave only nine above p99.
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(percentile(&ramp(999), 0.99), None);
    }

    #[test]
    fn median_needs_ten_samples_beyond() {
        // 20 samples: rank 9, ten above it.
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
    }

    #[test]
    fn tail_falls_back_to_the_highest_backed_percentile() {
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.p, t.value), (0.99, 990.0));
        // 600 samples back p98 (rank 587, twelve beyond) but not p99.
        let t = tail(&ramp(600)).unwrap();
        assert_eq!(t.p, 0.98);
        assert_eq!(t.value, 588.0);
        assert!(samples_beyond(600, t.p) >= MIN_BEYOND);
        // 100 samples back p90 (rank 89, ten beyond) but not p95.
        assert_eq!(tail(&ramp(100)).unwrap().p, 0.90);
        assert_eq!(tail(&ramp(20)).map(|t| t.p), Some(0.5));
        assert_eq!(tail(&ramp(19)), None);
        let l = Latency::of(&ramp(600));
        assert_eq!((l.count, l.p50), (600, Some(300.0)));
        assert_eq!(l.tail.map(|t| t.p), Some(0.98));
    }

    #[test]
    fn chunked_percentile_takes_the_median_chunk() {
        // Three chunks of 1000; the middle one has a burst of slow samples.
        let mut v = ramp(1000);
        v.extend((1..=1000).map(|i| i as f64 * 50.0));
        v.extend(ramp(1000).iter().map(|x| x + 1.0));
        v.extend(ramp(500)); // partial chunk, dropped
        assert_eq!(chunked_percentile(&v, 1000, 0.99), Some(991.0));
        // A chunk too small to back p99 yields nothing.
        assert_eq!(chunked_percentile(&ramp(3000), 999, 0.99), None);
        assert_eq!(chunked_percentile(&ramp(999), 1000, 0.99), None);
    }

    #[test]
    fn segment_medians_are_averaged() {
        // Two segments of 21: medians 11 and 111; the 19-sample tail
        // segment cannot back a median and is skipped.
        let mut v = ramp(21);
        v.extend(ramp(21).iter().map(|x| x + 100.0));
        v.extend(ramp(19));
        let segs = [0..21, 21..42, 42..61];
        assert_eq!(mean_segment_median(&v, &segs), Some(61.0));
        assert_eq!(mean_segment_median(&v, &segs[2..]), None);
        // With one and with three of four segments slowed to twice the
        // latency, the mean of medians reads 1.25 and 1.75, where one
        // median over all samples would read 1 and 2.
        let slow_share = |k: usize| {
            let v: Vec<f64> = (0..4 * 30)
                .map(|i| if i / 30 < k { 2.0 } else { 1.0 })
                .collect();
            let segs: Vec<_> = (0..4).map(|s| s * 30..(s + 1) * 30).collect();
            mean_segment_median(&v, &segs).unwrap()
        };
        assert_eq!((slow_share(1), slow_share(3)), (1.25, 1.75));
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        // 8 values: the two lowest and two highest are dropped.
        assert_eq!(
            interquartile_mean(&[100.0, 1.0, 3.0, 4.0, 5.0, 6.0, 0.0, 2.0]),
            3.5
        );
        // 9 values: two dropped at each end, five averaged.
        assert_eq!(interquartile_mean(&ramp(9)), 5.0);
        assert_eq!(interquartile_mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn time_windows_split_on_window_boundaries() {
        let t = [0.0, 0.1, 0.24, 0.26, 0.9, 0.95, 1.3];
        assert_eq!(time_windows(&t, 0.25), vec![0..3, 3..4, 4..6, 6..7]);
        assert!(time_windows(&[], 0.25).is_empty());
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}

//! The benchmark's own arithmetic: percentiles, the tail-percentile
//! rule, failure shares, and span reconciliation. Kept free of any
//! system code so the unit tests pin it in isolation.

/// Percentiles the benchmark may report as a tail, in basis points
/// (p50, p75, p90, p99, p99.9, p99.99).
pub const LADDER_BP: [u32; 6] = [5_000, 7_500, 9_000, 9_900, 9_990, 9_999];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: u64 = 10;

/// Whether `n` samples leave at least [`MIN_BEYOND`] of them beyond
/// the percentile `bp` (basis points): `n · (1 − bp/10⁴) ≥ 10`.
pub fn supports(n: usize, bp: u32) -> bool {
    n as u64 * u64::from(10_000 - bp.min(10_000)) >= MIN_BEYOND * 10_000
}

/// The highest ladder percentile (basis points) that `n` samples
/// support, or `None` when not even the median has ten samples beyond
/// it.
pub fn tail_bp(n: usize) -> Option<u32> {
    LADDER_BP.iter().rev().copied().find(|&bp| supports(n, bp))
}

/// Nearest-rank percentile of `sorted` (ascending) at `bp` basis
/// points: the smallest sample with at least `bp/10⁴` of the samples
/// at or below it. `None` for an empty slice.
pub fn percentile(sorted: &[f64], bp: u32) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len() as u64;
    let rank = (n * u64::from(bp.min(10_000))).div_ceil(10_000).max(1);
    Some(sorted[(rank - 1) as usize])
}

/// Sorts `values` ascending (NaN-free input) and returns them.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

/// Median of `values` (mean of the two middle samples for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values.to_vec());
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Splits `(offset, value)` samples into `k` equal windows over
/// `[0, span)` by offset (offsets past the end land in the last).
pub fn split_windows(samples: &[(u64, f64)], span: u64, k: usize) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); k];
    let width = span.div_ceil(k as u64).max(1);
    for &(at, v) in samples {
        out[((at / width) as usize).min(k - 1)].push(v);
    }
    out
}

/// The most windows, up to `max`, that `n` samples split into with
/// each window still supporting percentile `bp` (see [`supports`]); at
/// least 1.
pub fn windows_for(n: usize, bp: u32, max: usize) -> usize {
    (1..=max.max(1))
        .rev()
        .find(|&k| supports(n / k, bp))
        .unwrap_or(1)
}

/// Interquartile mean: the mean of `values` without the lowest and
/// the highest quarter (`⌊n/4⌋` each). `None` when empty.
pub fn interquartile_mean(values: &[f64]) -> Option<f64> {
    let s = sorted(values.to_vec());
    let cut = s.len() / 4;
    mean(&s[cut..s.len() - cut])
}

/// Percentile `bp` of tagged `(offset, value)` samples over
/// `[0, span)`: the samples are split into the most windows (up to
/// `max_windows`) in which `bp` keeps ten samples beyond it, and the
/// result is the interquartile mean of the windows' percentiles. One
/// stalled stretch moves one window, which the trim drops; unlike a
/// median of a few windows, the mean of the middle windows moves
/// smoothly with the share of the run the host spent slow instead of
/// jumping between a fast and a slow window. Empty windows are
/// skipped; `None` when there are no samples.
pub fn windowed_percentile(
    samples: &[(u64, f64)],
    span: u64,
    bp: u32,
    max_windows: usize,
) -> Option<f64> {
    let k = windows_for(samples.len(), bp, max_windows);
    let per: Vec<f64> = split_windows(samples, span, k)
        .iter()
        .filter_map(|w| percentile(&sorted(w.clone()), bp))
        .collect();
    interquartile_mean(&per)
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Share of attempted operations that failed (0 when none were
/// attempted).
pub fn failure_share(failed: u64, attempted: u64) -> f64 {
    ratio(failed as f64, attempted as f64)
}

/// Relative gap between a sum of per-stage parts and the end-to-end
/// total they should add up to: `(Σ parts − total) / total`. Positive
/// means the stages over-account the total.
pub fn reconcile_gap(parts: &[f64], total: f64) -> f64 {
    ratio(parts.iter().sum::<f64>() - total, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_bp(19), None);
        assert_eq!(tail_bp(20), Some(5_000));
        assert_eq!(tail_bp(39), Some(5_000));
        assert_eq!(tail_bp(40), Some(7_500));
        assert_eq!(tail_bp(99), Some(7_500));
        assert_eq!(tail_bp(100), Some(9_000));
        assert_eq!(tail_bp(999), Some(9_000));
        assert_eq!(tail_bp(1_000), Some(9_900));
        assert_eq!(tail_bp(10_000), Some(9_990));
        assert_eq!(tail_bp(100_000), Some(9_999));
        assert!(supports(1_000, 9_900));
        assert!(!supports(999, 9_900));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = sorted((1..=100).rev().map(f64::from).collect());
        assert_eq!(percentile(&v, 5_000), Some(50.0));
        assert_eq!(percentile(&v, 9_000), Some(90.0));
        assert_eq!(percentile(&v, 9_900), Some(99.0));
        assert_eq!(percentile(&v, 10_000), Some(100.0));
        assert_eq!(percentile(&v, 0), Some(1.0));
        assert_eq!(percentile(&[7.0], 9_900), Some(7.0));
        assert_eq!(percentile(&[], 5_000), None);
        // A percentile is always an observed sample, never interpolated.
        let odd = sorted(vec![3.0, 1.0, 2.0]);
        assert_eq!(percentile(&odd, 5_000), Some(2.0));
    }

    #[test]
    fn window_count_keeps_ten_samples_beyond_the_percentile() {
        assert_eq!(windows_for(4_200, 9_900, 10), 4);
        assert_eq!(windows_for(400_000, 9_900, 10), 10);
        assert_eq!(windows_for(4_200, 5_000, 10), 10);
        assert_eq!(windows_for(500, 9_900, 10), 1);
        assert_eq!(windows_for(0, 5_000, 10), 1);
    }

    #[test]
    fn interquartile_mean_drops_a_quarter_at_each_end() {
        assert_eq!(interquartile_mean(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
        assert_eq!(
            interquartile_mean(&[100.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, -50.0]),
            Some(7.5)
        );
        assert_eq!(interquartile_mean(&[3.0]), Some(3.0));
        assert_eq!(interquartile_mean(&[]), None);
    }

    #[test]
    fn windowed_percentiles_average_the_middle_windows() {
        // 4 000 samples over 4 000 ns; window w (of 4 for p99) holds the
        // values 0..=99 plus 10·w, so its p99 is 98 + 10·w.
        let samples: Vec<(u64, f64)> = (0..4_000u64)
            .map(|i| (i, (i % 100 + 10 * (i / 1_000)) as f64))
            .collect();
        assert_eq!(windowed_percentile(&samples, 4_000, 9_900, 10), Some(113.0));
        // p50 uses all ten windows (values 49 + 10·⌊w/2.5⌋ …): the trim
        // drops two windows at each end and averages the middle six.
        let p50 = windowed_percentile(&samples, 4_000, 5_000, 10).unwrap();
        assert!((p50 - 64.0).abs() < 1e-9, "{p50}");
        // One stalled window moves its own tail, which the trim drops.
        let mut stalled = samples.clone();
        stalled[..1_000].iter_mut().for_each(|s| s.1 += 1_000.0);
        assert_eq!(windowed_percentile(&stalled, 4_000, 9_900, 10), Some(123.0));
        assert_eq!(split_windows(&[(999, 1.0)], 300, 3)[2], vec![1.0]);
        assert_eq!(windowed_percentile(&[], 4_000, 5_000, 10), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn failure_share_counts_against_attempts() {
        assert_eq!(failure_share(0, 0), 0.0);
        assert_eq!(failure_share(0, 50), 0.0);
        assert_eq!(failure_share(5, 50), 0.1);
        assert_eq!(failure_share(50, 50), 1.0);
    }

    #[test]
    fn reconciliation_gap_is_relative_to_the_total() {
        // Queue wait 300 + commit 200 against an end-to-end 500: exact.
        assert_eq!(reconcile_gap(&[300.0, 200.0], 500.0), 0.0);
        // Stages over-account by 10 %.
        assert!((reconcile_gap(&[330.0, 220.0], 500.0) - 0.1).abs() < 1e-12);
        // Stages miss a quarter of the total.
        assert!((reconcile_gap(&[250.0, 125.0], 500.0) + 0.25).abs() < 1e-12);
        assert_eq!(reconcile_gap(&[1.0], 0.0), 0.0);
    }
}

//! Percentiles, medians and span self time.

/// The nearest-rank `q`-quantile (`0 < q ≤ 1`) of `sorted`, which must be
/// ascending and non-empty. A failed operation enters as `f64::INFINITY`,
/// so failures count as slower than every success.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` ascending (infinities last).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// The nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    percentile(&v, 0.5)
}

/// Arithmetic mean; 0 for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Total length covered by the half-open intervals `[start, end)`;
/// overlaps count once. A span's self time is its duration minus this
/// over its children.
pub fn covered(intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut open: Option<(f64, f64)> = None;
    for &(s, e) in intervals.iter() {
        match open {
            Some((os, oe)) if s <= oe => open = Some((os, oe.max(e))),
            Some((os, oe)) => {
                total += oe - os;
                open = Some((s, e));
            }
            None => open = Some((s, e)),
        }
    }
    if let Some((os, oe)) = open {
        total += oe - os;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.91), 10.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[3.0], 0.5), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn failures_rank_as_slowest() {
        let mut v = vec![f64::INFINITY, 2.0, 1.0, 3.0];
        sort(&mut v);
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert_eq!(percentile(&v, 1.0), f64::INFINITY);
    }

    #[test]
    fn covered_merges_overlaps() {
        let mut spans = vec![(5.0, 7.0), (0.0, 2.0), (1.0, 3.0), (7.0, 8.0)];
        assert_eq!(covered(&mut spans), 6.0);
        assert_eq!(covered(&mut []), 0.0);
    }
}

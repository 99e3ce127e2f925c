//! Order statistics for timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! exclusive method), because that is what the driver applies to the ten
//! runs it makes: `compare` and `selfcheck` must reach the same verdict
//! from the same numbers.

/// Sorts a copy of `values` ascending (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    v
}

/// The `q`-quantile (0..=1) of ascending `v` by the exclusive method:
/// position `q * (n + 1)` on 1-based ranks, linearly interpolated and
/// clamped to the extremes. Returns 0 for an empty slice.
pub fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let pos = q * (n as f64 + 1.0);
            let lo = (pos.floor() as usize).clamp(1, n - 1);
            let frac = (pos - lo as f64).clamp(0.0, 1.0);
            v[lo - 1] + (v[lo] - v[lo - 1]) * frac
        }
    }
}

/// Median of unsorted `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// `(q1, median, q3)` of unsorted `values`.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    (quantile_sorted(&v, 0.25), quantile_sorted(&v, 0.5), quantile_sorted(&v, 0.75))
}

/// Interquartile distance as a share of the median (0 when the median is
/// 0): the spread the driver holds against a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1).abs() / med.abs()
    }
}

/// Index of the nearest-rank `p`-th percentile among `n >= 1` ascending
/// samples.
fn rank(n: usize, p: u32) -> usize {
    ((n * p as usize).div_ceil(100).max(1) - 1).min(n - 1)
}

/// The highest whole percentile that still has at least ten samples
/// beyond it, with its value, or `None` below eleven samples: a tail
/// figure resting on fewer samples is one slow outlier, not a percentile.
pub fn highest_percentile(values: &[f64]) -> Option<(u32, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    (50..100u32)
        .rev()
        .map(|p| (p, rank(n, p)))
        .find(|&(_, i)| n - 1 - i >= 10)
        .map(|(p, i)| (p, v[i]))
}

/// The nearest-rank `p`-th percentile (0..=100) of unsorted `values`.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    v[rank(v.len(), p)]
}

/// The `p`-th percentile an undisturbed stretch of the run shows: the
/// median, over consecutive chunks of `chunk` samples, of each chunk's
/// `p`-th percentile (a trailing partial chunk is left out). The pooled
/// percentile moves with every burst of host noise that covers more than
/// `100 - p` percent of one run; this one moves only when the tail of most
/// chunks does, which is what a change to the program causes.
pub fn typical_percentile(values: &[f64], chunk: usize, p: u32) -> f64 {
    let tails: Vec<f64> = values.chunks_exact(chunk.max(1)).map(|c| percentile(c, p)).collect();
    if tails.is_empty() {
        percentile(values, p)
    } else {
        median(&tails)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, med, q3) = quartiles(&v);
        assert!(
            (q1 - 2.75).abs() < 1e-12 && (med - 5.5).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12
        );
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn typical_percentile_ignores_a_burst_but_not_a_shifted_tail() {
        // Five chunks of ten: 1..=10 each, so every chunk's p90 is 9.
        let quiet: Vec<f64> = (0..50).map(|i| f64::from(i % 10 + 1)).collect();
        assert_eq!(typical_percentile(&quiet, 10, 90), 9.0);
        // A burst that triples one whole chunk moves the pooled p90 only.
        let mut burst = quiet.clone();
        burst[20..30].iter_mut().for_each(|x| *x *= 3.0);
        assert_eq!(typical_percentile(&burst, 10, 90), 9.0);
        assert!(percentile(&burst, 90) > 9.0);
        // A tail that is slower in every chunk shows.
        let slow: Vec<f64> = quiet.iter().map(|&x| if x >= 9.0 { x * 2.0 } else { x }).collect();
        assert_eq!(typical_percentile(&slow, 10, 90), 18.0);
        // Fewer samples than one chunk: the plain percentile.
        assert_eq!(typical_percentile(&quiet[..5], 10, 90), 5.0);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=150).map(f64::from).collect();
        // 150 samples: p93 sits at rank 140, leaving exactly ten beyond.
        assert_eq!(highest_percentile(&v), Some((93, 140.0)));
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(highest_percentile(&v), Some((50, 10.0)));
        assert_eq!(highest_percentile(&v[..10]), None);
        assert_eq!(percentile(&(1..=150).map(f64::from).collect::<Vec<_>>(), 90), 135.0);
    }
}

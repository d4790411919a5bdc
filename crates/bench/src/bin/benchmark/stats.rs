//! Order statistics over latency and duration samples.
//!
//! The rules are the ones the metrics guide fixes: a timing is reported
//! as a median plus the highest percentile that still has at least ten
//! samples beyond it, and the sample count is stated next to it.

/// Samples that must lie beyond a reported percentile.
pub const SAMPLES_BEYOND: usize = 10;

/// Sort a copy of `xs` ascending (NaN-free input; durations and counts).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// The median of `xs` (mean of the two middle values for an even count).
/// `None` on an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The `p`-th percentile (nearest rank) of `xs`, but only if at least
/// [`SAMPLES_BEYOND`] samples lie strictly beyond that rank — otherwise
/// the percentile is not supported by the sample and `None` is returned.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let n = xs.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n < rank + SAMPLES_BEYOND {
        return None;
    }
    Some(sorted(xs)[rank - 1])
}

/// First and third quartile by the exclusive method — the values
/// Python's `statistics.quantiles(xs, n=4)` returns at index 0 and 2.
/// `None` below two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let v = sorted(xs);
    let q = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((q(1), q(3)))
}

/// Inter-quartile distance as a share of the median: the spread the
/// acceptance rule compares against a metric's bound.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let m = median(xs)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000 samples is rank 990: exactly ten lie beyond it.
        assert_eq!(percentile(&xs, 99.0), Some(990.0));
        // One sample fewer and only nine lie beyond: not supported.
        assert_eq!(percentile(&xs[..999], 99.0), None);
        // p50 needs rank n/2 + 10 <= n, i.e. at least 20 samples.
        assert_eq!(percentile(&xs[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&xs[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let (q1, q3) = quartiles(&[20.0, 10.0]).unwrap();
        assert!((q1 - 7.5).abs() < 1e-12 && (q3 - 22.5).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }
}

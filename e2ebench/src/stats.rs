//! Order statistics used by every metric: tail percentiles under the
//! ten-samples-beyond rule, and quartiles computed exactly as Python's
//! `statistics.quantiles(values, n=4)` does, so spreads printed here agree
//! with the ones an external checker computes from the same values.

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-percentile of `samples` (`0 < q < 1`), or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it: a p90 needs at
/// least 100 samples, a median at least 20.
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median of `values` (mean of the middle pair for an even count); `NaN`
/// for no values.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// `(q1, median, q3)` by Python's default ("exclusive") quantile method.
/// `None` for fewer than one value; a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    match ld {
        0 => None,
        1 => Some((data[0], data[0], data[0])),
        _ => {
            let m = ld + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            };
            Some((cut(1), cut(2), cut(3)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred, 0.9), Some(90.0));
        assert_eq!(tail_percentile(&hundred[..99], 0.9), None);
        assert_eq!(tail_percentile(&hundred[..20], 0.5), Some(10.0));
        assert_eq!(tail_percentile(&hundred[..19], 0.5), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        assert_eq!(quartiles(&[4.0]), Some((4.0, 4.0, 4.0)));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}

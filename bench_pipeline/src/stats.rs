//! Order statistics over per-run samples and the log–log scaling fit.

/// Median of `values`: the middle element, or the mean of the middle
/// pair for an even count. NaN when `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the rule of Python's
/// `statistics.quantiles(values, n=4)` (its default exclusive method), so
/// spreads printed here match the ones computed from the JSON results.
/// A single value is its own quartiles; NaN when `values` is empty.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let data = sorted(values);
    let len = data.len();
    match len {
        0 => (f64::NAN, f64::NAN),
        1 => (data[0], data[0]),
        _ => {
            let m = len + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            };
            (cut(1), cut(3))
        }
    }
}

/// Least-squares slope of `ln y` against `ln x` over `(x, y)` points with
/// positive coordinates: the scaling exponent `k` of `y ∝ x^k`. NaN with
/// fewer than two distinct `x`.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(x, y)| x > 0.0 && y > 0.0)
        .map(|&(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = logs.len() as f64;
    let mean_x = logs.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = logs.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = logs.iter().map(|p| (p.0 - mean_x).powi(2)).sum();
    let sxy: f64 = logs.iter().map(|p| (p.0 - mean_x) * (p.1 - mean_y)).sum();
    if sxx > 0.0 {
        sxy / sxx
    } else {
        f64::NAN
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn loglog_slope_recovers_power_laws() {
        let square: Vec<(f64, f64)> = [1.0, 2.0, 4.0, 8.0]
            .iter()
            .map(|&x| (x, 3.0 * x * x))
            .collect();
        assert!((loglog_slope(&square) - 2.0).abs() < 1e-12);
        let linear = [(1000.0, 0.5), (2000.0, 1.0)];
        assert!((loglog_slope(&linear) - 1.0).abs() < 1e-12);
        assert!(loglog_slope(&[(5.0, 1.0)]).is_nan());
    }
}

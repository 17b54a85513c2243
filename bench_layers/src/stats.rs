//! Order statistics shared by the workloads and `compare`.

/// Sorted copy of `xs` (total order, so NaNs cannot scramble it).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile `q` in `[0, 1]` of `xs`: the smallest sample
/// with at least `q` of the samples at or below it. `NaN` when empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let v = sorted(xs);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The fastest decile of a run's set-up times: the 10th percentile.
/// Set-up steps are short and single-threaded, and a few of them land in
/// slow stretches of the host whatever the probes say; the fastest decile
/// reads through those, where the median does not.
pub fn best_low(times: &[f64]) -> f64 {
    percentile(times, 0.1)
}

pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Median (mean of the two middle samples for an even count).
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// computes them (the default "exclusive" method, which extrapolates
/// for tiny samples), so spreads printed here match the acceptance rule.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let v = sorted(xs);
    let ld = v.len();
    match ld {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (v[0], v[0], v[0]),
        _ => {
            let m = ld + 1;
            let at = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (at(1), at(2), at(3))
        }
    }
}

/// Interquartile range as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(xs);
    (q3 - q1) / q2.abs()
}

/// The tail percentile reported next to a median: the highest of the
/// standard levels p99, p90, p75, p50 that leaves at least ten samples
/// beyond it, so the tail is never read off a handful of outliers.
pub fn tail_level(n: usize) -> f64 {
    // Samples beyond the nearest-rank percentile p: n - ceil(n·p/100).
    [99, 90, 75]
        .into_iter()
        .find(|p| n - (n * p).div_ceil(100) >= 10)
        .map_or(0.5, |p| p as f64 / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_level_keeps_ten_samples_beyond() {
        assert_eq!(tail_level(40), 0.75);
        assert_eq!(tail_level(39), 0.5);
        assert_eq!(tail_level(100), 0.9);
        assert_eq!(tail_level(999), 0.9);
        assert_eq!(tail_level(1000), 0.99);
        assert_eq!(tail_level(5), 0.5);
        // Exactly ten samples lie strictly above the p75 of 40 samples.
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let p = percentile(&xs, tail_level(xs.len()));
        assert_eq!(xs.iter().filter(|&&x| x > p).count(), 10);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&xs, 0.5), 3.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 5.0);
        assert_eq!(percentile(&xs, 0.99), 5.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}

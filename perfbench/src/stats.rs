//! Statistics helpers: the percentile rule, median, geomean and
//! quartiles every reported number goes through.

/// A latency percentile as reported: the value, the percentile actually
/// used, and the sample count it was taken over.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pct {
    pub value: f64,
    pub q: f64,
    pub n: usize,
}

/// Nearest-rank percentile of `samples` at `q` in `[0, 1]`, capped by the
/// reporting rule: the highest percentile not above `q` that still has at
/// least ten samples beyond it, and never below the median. `None` when
/// there are no samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<Pct> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cap = 1.0 - 10.0 / n as f64;
    let q = q.min(cap).max(0.5);
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Pct {
        value: v[rank - 1],
        q,
        n,
    })
}

/// Median (mean of the two middle values for an even count). `NaN` when
/// empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of positive values. `NaN` when empty or when any value
/// is not positive.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&x| x.is_nan() || x <= 0.0) {
        return f64::NAN;
    }
    (values.iter().map(|x| x.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// First and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads computed here match
/// the ones computed from the printed results. Needs two values or more.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |i: usize| {
        // Exclusive method: position i * (n + 1) / 4, one-based.
        let m = (n + 1) as f64 * i as f64 / 4.0;
        let j = (m.floor() as usize).clamp(1, n - 1);
        let delta = m - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median: the spread the
/// benchmark's bounds are checked against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    Some((q3 - q1) / median(values))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank_when_enough_samples() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = percentile(&v, 0.99).unwrap();
        assert_eq!(p.value, 990.0);
        assert_eq!(p.q, 0.99);
        assert_eq!(p.n, 1000);
        assert_eq!(percentile(&v, 0.5).unwrap().value, 500.0);
    }

    #[test]
    fn percentile_keeps_ten_samples_beyond() {
        // 100 samples: p99 would leave one sample beyond it, so the rule
        // falls back to p90, which leaves exactly ten.
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p = percentile(&v, 0.99).unwrap();
        assert!((p.q - 0.90).abs() < 1e-12);
        assert_eq!(p.value, 90.0);
        let beyond = v.iter().filter(|&&x| x > p.value).count();
        assert_eq!(beyond, 10);
        // Too few samples for any tail: the median is still reported.
        let small = [3.0, 1.0, 2.0];
        let p = percentile(&small, 0.9).unwrap();
        assert_eq!((p.q, p.value, p.n), (0.5, 2.0, 3));
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn geomean_of_known_values() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[7.5]) - 7.5).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
        assert!(geomean(&[1.0, 0.0]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        // (8.25 - 2.75) / median 5.5
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
    }
}

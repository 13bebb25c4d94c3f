//! Sample statistics: percentiles, the supported tail percentile, and the
//! quartile spread the acceptance rule uses.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank index of the `q`-quantile in a sorted sample of `n`.
fn rank(n: usize, q: f64) -> usize {
    ((q.clamp(0.0, 1.0) * (n - 1) as f64).round() as usize).min(n - 1)
}

/// The `q`-quantile (`0.0..=1.0`) by nearest rank; `0.0` for no samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let s = sorted(values);
    s[rank(s.len(), q)]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// A tail is only worth reporting when enough samples lie beyond it.
const TAIL_MIN_BEYOND: usize = 10;
/// Candidate tail percentiles, highest first; the median is the floor so
/// short traced passes still report something and say what it is.
const TAIL_CANDIDATES: [f64; 4] = [0.90, 0.80, 0.75, 0.50];

/// The highest candidate percentile with at least ten samples beyond it,
/// as `(percentile in %, value)`.
pub fn tail(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (50.0, 0.0);
    }
    let s = sorted(values);
    let n = s.len();
    let q = TAIL_CANDIDATES
        .into_iter()
        .find(|&q| n - 1 - rank(n, q) >= TAIL_MIN_BEYOND)
        .unwrap_or(0.50);
    (q * 100.0, s[rank(n, q)])
}

/// Quartiles `(q1, q2, q3)` as Python's `statistics.quantiles(v, n=4)`
/// (the default exclusive method) computes them. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Distance between the first and third quartile as a share of the median:
/// the run-to-run spread the benchmark's acceptance rule bounds.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| ((q3 - q1) / q2).abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 51.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        let n = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<f64>>();
        // 200 samples: rank(p90) = 179, 20 beyond.
        assert_eq!(tail(&n(200)), (90.0, 180.0));
        // 101 samples: rank(p90) = 90, exactly 10 beyond.
        assert_eq!(tail(&n(101)).0, 90.0);
        // 95 samples: p90 has 9 beyond (rank 85), p80 qualifies (rank 75).
        assert_eq!(tail(&n(95)), (80.0, 76.0));
        // 44 samples: p80 rank 34 -> 9 beyond; p75 rank 32 -> 11 beyond.
        assert_eq!(tail(&n(44)), (75.0, 33.0));
        // 24 samples: only the median has ten beyond (rank 12 -> 11).
        assert_eq!(tail(&n(24)), (50.0, 13.0));
        // Too few for any: falls back to the median and says so.
        assert_eq!(tail(&n(8)).0, 50.0);
        assert_eq!(tail(&[]), (50.0, 0.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some((7.5, 15.0, 22.5)));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), Some((1.0, 3.0, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }
}

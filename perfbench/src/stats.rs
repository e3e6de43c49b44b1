//! Order statistics over measured samples.
//!
//! Every timing is reported as a median plus the highest percentile that
//! still has at least [`TAIL_MIN_BEYOND`] samples beyond it, together
//! with the sample count; a tail read from fewer samples would be one or
//! two outliers, not a percentile.

/// A tail percentile must have at least this many samples above it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle pair for an even count).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The highest percentile of `xs` with at least [`TAIL_MIN_BEYOND`]
/// samples strictly beyond it: the `(n - TAIL_MIN_BEYOND)`-th smallest
/// value, at percentile `100 (n - TAIL_MIN_BEYOND) / n`. `None` when there
/// are too few samples for any tail.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_MIN_BEYOND {
        return None;
    }
    let s = sorted(xs);
    let rank = n - TAIL_MIN_BEYOND; // 1-based rank of the reported value
    Some(Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: s[rank - 1],
        samples: n,
    })
}

/// Nearest-rank percentile `p` (0..=100) of `xs`, but only when the rule
/// above admits it: at least [`TAIL_MIN_BEYOND`] samples lie beyond the
/// rank. `None` otherwise, so a caller can never publish a p99 read from
/// a handful of samples.
pub fn admissible_percentile(xs: &[f64], p: f64) -> Option<f64> {
    let n = xs.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank.min(n) < TAIL_MIN_BEYOND {
        return None;
    }
    Some(sorted(xs)[rank - 1])
}

/// A tail percentile together with the sample count it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile, 0..100.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 1.0);
        assert_eq!(t.samples, 11);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.samples, 1000);
        assert_eq!(t.value, 990.0);
        assert!((t.percentile - 99.0).abs() < 1e-12);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_MIN_BEYOND);
    }

    #[test]
    fn p99_is_refused_below_a_thousand_samples() {
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(admissible_percentile(&xs, 99.0), None);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(admissible_percentile(&xs, 99.0), Some(990.0));
        assert_eq!(admissible_percentile(&xs, 50.0), Some(500.0));
    }
}

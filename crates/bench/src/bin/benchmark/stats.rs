//! Order statistics used by every report: nearest-rank quantiles, the
//! median and the quartiles.

/// The nearest-rank `q`-quantile of `values` (`q` in `[0, 1]`): the
/// smallest sample with at least a `q` share of the samples at or below
/// it. Returns NaN for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median: the middle sample, or the mean of the two middle samples
/// of an even count. Returns NaN for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median and nearest-rank quartiles of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        Summary {
            q1: quantile(values, 0.25),
            median: median(values),
            q3: quantile(values, 0.75),
            n: values.len(),
        }
    }

    /// The interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(quantile(&v, 0.05), 15.0);
        assert_eq!(quantile(&v, 0.30), 20.0);
        assert_eq!(quantile(&v, 0.40), 20.0);
        assert_eq!(quantile(&v, 0.50), 35.0);
        assert_eq!(quantile(&v, 1.00), 50.0);
        assert_eq!(quantile(&v, 0.0), 15.0);
        // Order of the input does not matter.
        assert_eq!(quantile(&[50.0, 15.0, 40.0, 20.0, 35.0], 0.75), 40.0);
        // p99 of 1000 samples is the 990th smallest.
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&many, 0.99), 990.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_and_spread() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 4.5, 6.0, 8));
        assert!((s.spread() - 4.0 / 4.5).abs() < 1e-12);
        let flat = Summary::of(&[2.0, 2.0, 2.0]);
        assert_eq!(flat.spread(), 0.0);
    }
}

//! Empirical cumulative distribution functions.

use spamward_sim::SimDuration;

/// An empirical CDF over `f64` samples.
///
/// # Example
///
/// ```
/// use spamward_analysis::Cdf;
/// let cdf = Cdf::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(cdf.fraction_at_or_below(2.0), 0.5);
/// assert_eq!(cdf.quantile(0.5), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples (NaNs are dropped).
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        samples.retain(|v| !v.is_nan());
        samples.sort_by(|a, b| a.partial_cmp(b).expect("NaNs removed"));
        Cdf { sorted: samples }
    }

    /// Builds a CDF over durations, in seconds.
    pub fn from_durations(durations: impl IntoIterator<Item = SimDuration>) -> Self {
        Self::from_samples(durations.into_iter().map(|d| d.as_secs_f64()).collect())
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF has no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The fraction of samples `<= x` (0.0 for an empty CDF).
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// The q-quantile (nearest-rank), e.g. `quantile(0.5)` is the median.
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty or `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of empty CDF");
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
        if q == 0.0 {
            return self.sorted[0];
        }
        let rank = (q * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.saturating_sub(1).min(self.sorted.len() - 1)]
    }

    /// The sample minimum.
    ///
    /// # Panics
    ///
    /// Panics if empty.
    pub fn min(&self) -> f64 {
        *self.sorted.first().expect("min of empty CDF")
    }

    /// The sample maximum.
    ///
    /// # Panics
    ///
    /// Panics if empty.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("max of empty CDF")
    }

    /// `n` evenly spaced `(x, F(x))` points for plotting (includes both
    /// endpoints). Empty CDFs yield no points.
    pub fn to_points(&self, n: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || n == 0 {
            return Vec::new();
        }
        let (lo, hi) = (self.min(), self.max());
        if n == 1 || lo == hi {
            return vec![(hi, 1.0)];
        }
        (0..n)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (n - 1) as f64;
                (x, self.fraction_at_or_below(x))
            })
            .collect()
    }

    /// Maximum absolute difference between two CDFs over both sample sets
    /// (two-sample Kolmogorov–Smirnov statistic) — used to assert that the
    /// 5 s and 300 s Kelihos curves of Fig. 3 "almost coincide".
    pub fn ks_distance(&self, other: &Cdf) -> f64 {
        let mut d: f64 = 0.0;
        for &x in self.sorted.iter().chain(other.sorted.iter()) {
            let diff = (self.fraction_at_or_below(x) - other.fraction_at_or_below(x)).abs();
            d = d.max(diff);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_fractions() {
        let cdf = Cdf::from_samples(vec![10.0, 20.0, 30.0, 40.0]);
        assert_eq!(cdf.fraction_at_or_below(5.0), 0.0);
        assert_eq!(cdf.fraction_at_or_below(10.0), 0.25);
        assert_eq!(cdf.fraction_at_or_below(25.0), 0.5);
        assert_eq!(cdf.fraction_at_or_below(100.0), 1.0);
    }

    #[test]
    fn quantiles() {
        let cdf = Cdf::from_samples(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(cdf.quantile(0.0), 1.0);
        assert_eq!(cdf.quantile(0.5), 3.0);
        assert_eq!(cdf.quantile(1.0), 5.0);
        assert_eq!(cdf.min(), 1.0);
        assert_eq!(cdf.max(), 5.0);
    }

    #[test]
    fn nan_dropped_and_unsorted_ok() {
        let cdf = Cdf::from_samples(vec![3.0, f64::NAN, 1.0, 2.0]);
        assert_eq!(cdf.len(), 3);
        assert_eq!(cdf.quantile(0.5), 2.0);
    }

    #[test]
    fn durations_in_seconds() {
        let cdf = Cdf::from_durations(vec![SimDuration::from_mins(5), SimDuration::from_mins(10)]);
        assert_eq!(cdf.fraction_at_or_below(300.0), 0.5);
    }

    #[test]
    fn empty_cdf_behaviour() {
        let cdf = Cdf::from_samples(vec![]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.fraction_at_or_below(1.0), 0.0);
        assert!(cdf.to_points(5).is_empty());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_of_empty_panics() {
        let _ = Cdf::from_samples(vec![]).quantile(0.5);
    }

    #[test]
    fn plotting_points_monotone() {
        let cdf = Cdf::from_samples((1..=100).map(f64::from).collect());
        let pts = cdf.to_points(20);
        assert_eq!(pts.len(), 20);
        for w in pts.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    fn identical_cdfs_have_zero_ks() {
        let a = Cdf::from_samples(vec![1.0, 2.0, 3.0]);
        let b = Cdf::from_samples(vec![1.0, 2.0, 3.0]);
        assert_eq!(a.ks_distance(&b), 0.0);
        let c = Cdf::from_samples(vec![10.0, 20.0, 30.0]);
        assert_eq!(a.ks_distance(&c), 1.0);
    }

    proptest! {
        #[test]
        fn prop_fraction_is_monotone(mut xs in proptest::collection::vec(0.0f64..1e6, 2..50)) {
            let cdf = Cdf::from_samples(xs.clone());
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut prev = 0.0;
            for x in xs {
                let f = cdf.fraction_at_or_below(x);
                prop_assert!(f >= prev);
                prev = f;
            }
        }

        #[test]
        fn prop_quantile_within_range(xs in proptest::collection::vec(-1e3f64..1e3, 1..50), q in 0.0f64..=1.0) {
            let cdf = Cdf::from_samples(xs);
            let v = cdf.quantile(q);
            prop_assert!(v >= cdf.min() && v <= cdf.max());
        }
    }
}

//! Binned histograms.

/// A fixed-range histogram with equal-width (or log-width) bins.
///
/// # Example
///
/// ```
/// use spamward_analysis::Histogram;
/// let mut h = Histogram::linear(0.0, 100.0, 10);
/// h.add(5.0);
/// h.add(15.0);
/// h.add(15.5);
/// assert_eq!(h.count(0), 1);
/// assert_eq!(h.count(1), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    log: bool,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or `bins == 0`.
    pub fn linear(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo < hi, "histogram range {lo}..{hi} is empty");
        assert!(bins > 0, "histogram needs at least one bin");
        Histogram { lo, hi, log: false, counts: vec![0; bins], underflow: 0, overflow: 0 }
    }

    /// Log-width bins over `[lo, hi)` — the natural view for retry delays
    /// spanning 300 s to 90 000 s (Fig. 4).
    ///
    /// # Panics
    ///
    /// Panics if `lo <= 0`, `lo >= hi` or `bins == 0`.
    pub fn logarithmic(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo > 0.0, "log histogram needs positive lower bound");
        assert!(lo < hi, "histogram range {lo}..{hi} is empty");
        assert!(bins > 0, "histogram needs at least one bin");
        Histogram { lo, hi, log: true, counts: vec![0; bins], underflow: 0, overflow: 0 }
    }

    /// Adds one sample.
    pub fn add(&mut self, x: f64) {
        if x.is_nan() || x < self.lo {
            self.underflow += 1;
            return;
        }
        if x >= self.hi {
            self.overflow += 1;
            return;
        }
        let frac = if self.log {
            (x.ln() - self.lo.ln()) / (self.hi.ln() - self.lo.ln())
        } else {
            (x - self.lo) / (self.hi - self.lo)
        };
        let idx = ((frac * self.counts.len() as f64) as usize).min(self.counts.len() - 1);
        self.counts[idx] += 1;
    }

    /// Adds many samples.
    pub fn extend(&mut self, xs: impl IntoIterator<Item = f64>) {
        for x in xs {
            self.add(x);
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Count in bin `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn count(&self, idx: usize) -> u64 {
        self.counts[idx]
    }

    /// Samples below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above the range end.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// The `(lo, hi)` edges of bin `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= bins()`.
    pub fn bin_edges(&self, idx: usize) -> (f64, f64) {
        assert!(idx < self.counts.len(), "bin {idx} out of range");
        let n = self.counts.len() as f64;
        if self.log {
            let (lln, hln) = (self.lo.ln(), self.hi.ln());
            let w = (hln - lln) / n;
            ((lln + w * idx as f64).exp(), (lln + w * (idx as f64 + 1.0)).exp())
        } else {
            let w = (self.hi - self.lo) / n;
            (self.lo + w * idx as f64, self.lo + w * (idx as f64 + 1.0))
        }
    }

    /// Indices of local maxima with counts `>= min_count` — the "peaks" of
    /// Fig. 4.
    pub fn peaks(&self, min_count: u64) -> Vec<usize> {
        let mut out = Vec::new();
        for i in 0..self.counts.len() {
            let c = self.counts[i];
            if c < min_count {
                continue;
            }
            let left = if i == 0 { 0 } else { self.counts[i - 1] };
            let right = if i + 1 == self.counts.len() { 0 } else { self.counts[i + 1] };
            if c >= left && c >= right && (c > left || c > right || self.counts.len() == 1) {
                out.push(i);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_binning() {
        let mut h = Histogram::linear(0.0, 10.0, 5);
        h.extend([0.0, 1.9, 2.0, 9.9]);
        assert_eq!(h.count(0), 2);
        assert_eq!(h.count(1), 1);
        assert_eq!(h.count(4), 1);
        assert_eq!(h.bin_edges(0), (0.0, 2.0));
    }

    #[test]
    fn out_of_range_tracked() {
        let mut h = Histogram::linear(0.0, 10.0, 2);
        h.extend([-5.0, 10.0, 100.0, f64::NAN]);
        assert_eq!(h.underflow(), 2); // -5 and NaN
        assert_eq!(h.overflow(), 2);
    }

    #[test]
    fn log_binning_spreads_decades() {
        let mut h = Histogram::logarithmic(1.0, 10_000.0, 4);
        h.extend([2.0, 50.0, 500.0, 5_000.0]);
        for i in 0..4 {
            assert_eq!(h.count(i), 1, "bin {i}");
        }
        let (lo, hi) = h.bin_edges(0);
        assert!((lo - 1.0).abs() < 1e-9);
        assert!((hi - 10.0).abs() < 1e-6);
    }

    #[test]
    fn peaks_found() {
        let mut h = Histogram::linear(0.0, 10.0, 10);
        // Samples concentrated at two bumps.
        h.extend([1.1, 1.2, 1.3, 1.4, 6.1, 6.2, 6.3]);
        let peaks = h.peaks(2);
        assert_eq!(peaks, vec![1, 6]);
        assert!(h.peaks(100).is_empty());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn bad_range_panics() {
        let _ = Histogram::linear(5.0, 5.0, 3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn log_zero_lower_bound_panics() {
        let _ = Histogram::logarithmic(0.0, 10.0, 3);
    }
}

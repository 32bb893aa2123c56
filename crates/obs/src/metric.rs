//! The histogram instrument.
//!
//! Counters and gauges need no type of their own: components count in
//! plain integer fields. A [`Histogram`] is a plain owned value too —
//! observing is a field update, not a map lookup, so instrumentation on hot
//! paths costs a handful of nanoseconds. Names are attached only when a
//! snapshot is exported into a [`Registry`](crate::Registry).

/// A fixed-bucket histogram over `u64` observations.
///
/// Bucket upper bounds are chosen at construction and never change, so two
/// histograms built from the same bounds merge bucket-by-bucket and their
/// snapshots are byte-stable. Observations above the last bound land in an
/// implicit overflow (`+inf`) bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Inclusive upper bounds, strictly increasing.
    bounds: Vec<u64>,
    /// One count per bound, plus the trailing overflow bucket.
    counts: Vec<u64>,
    total: u64,
    sum: u64,
}

impl Histogram {
    /// A histogram with the given inclusive upper bounds.
    ///
    /// Bounds are sorted and deduplicated defensively so construction never
    /// panics; an empty bound list yields a single overflow bucket.
    pub fn new(bounds: &[u64]) -> Self {
        let mut bounds = bounds.to_vec();
        bounds.sort_unstable();
        bounds.dedup();
        let counts = vec![0; bounds.len() + 1];
        Histogram { bounds, counts, total: 0, sum: 0 }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The configured inclusive upper bounds (overflow bucket excluded).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts; the last entry is the overflow bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The count in the bucket whose inclusive upper bound is `bound`.
    pub fn bucket(&self, bound: u64) -> Option<u64> {
        let idx = self.bounds.iter().position(|&b| b == bound)?;
        Some(self.counts[idx])
    }

    /// Folds another histogram into this one.
    ///
    /// Same-bounds histograms merge bucket-by-bucket. If the bounds differ
    /// (a collector bug, not a runtime condition), the observation count and
    /// sum still merge and the other side's observations land in the
    /// overflow bucket so no event is silently lost.
    pub fn merge(&mut self, other: &Histogram) {
        if self.bounds == other.bounds {
            for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
                *mine += theirs;
            }
        } else if let Some(last) = self.counts.last_mut() {
            *last += other.total;
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_inclusively() {
        let mut h = Histogram::new(&[10, 100]);
        for v in [0, 10, 11, 100, 101, 5000] {
            h.observe(v);
        }
        assert_eq!(h.bucket(10), Some(2), "0 and 10 fall in the <=10 bucket");
        assert_eq!(h.bucket(100), Some(2), "11 and 100 fall in the <=100 bucket");
        assert_eq!(h.counts().last(), Some(&2), "overflow holds 101 and 5000");
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 5222);
    }

    #[test]
    fn histogram_bounds_are_sanitised() {
        let h = Histogram::new(&[100, 10, 10]);
        assert_eq!(h.bounds(), &[10, 100]);
        let empty = Histogram::new(&[]);
        assert_eq!(empty.counts().len(), 1, "just the overflow bucket");
    }

    #[test]
    fn histogram_merge_same_and_different_bounds() {
        let mut a = Histogram::new(&[10]);
        a.observe(1);
        let mut b = Histogram::new(&[10]);
        b.observe(99);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.bucket(10), Some(1));
        assert_eq!(a.counts().last(), Some(&1));

        let mut odd = Histogram::new(&[7]);
        odd.observe(3);
        a.merge(&odd);
        assert_eq!(a.count(), 3, "mismatched bounds still merge the totals");
        assert_eq!(a.counts().last(), Some(&2), "mismatched observations go to overflow");
    }
}

//! Deterministic time series sampled in virtual time.
//!
//! A [`TimeSeries`] holds named series of `(SimTime, i64)` points. It is the
//! temporal companion to [`Registry`](crate::Registry): where a registry is
//! an end-of-run snapshot, a time series records how a counter or gauge
//! evolved over the simulated run — greylist defers per sampling window,
//! queue high-water over a campaign, per-shard engine events.
//!
//! The container is built for sharded merging: points recorded at the same
//! `(series, time)` key *add*, and the backing store is a nested `BTreeMap`,
//! so merging per-shard series in any order yields byte-identical CSV/JSON
//! renderings. That is what lets `repro --timeseries` promise identical
//! files for `--shards 1` and `--shards 8`.

use crate::registry::json_str;
use spamward_sim::SimTime;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Named series of `(SimTime, i64)` sample points with additive,
/// order-insensitive merge and canonical renderings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimeSeries {
    points: BTreeMap<String, BTreeMap<SimTime, i64>>,
}

impl TimeSeries {
    /// An empty time series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Records (or adds to) the point of `series` at virtual time `at`.
    ///
    /// Addition at the same key is what makes [`merge`](TimeSeries::merge)
    /// commutative and associative: shards sampling the same virtual
    /// instant fold into one total regardless of merge order. The series
    /// name is copied only on its first point.
    pub fn record_point(&mut self, series: &str, at: SimTime, value: i64) {
        match self.points.get_mut(series) {
            Some(points) => *points.entry(at).or_insert(0) += value,
            None => {
                self.points.insert(series.to_owned(), BTreeMap::from([(at, value)]));
            }
        }
    }

    /// Folds every point of `other` into this series.
    pub fn merge(&mut self, other: &TimeSeries) {
        for (series, points) in &other.points {
            let dst = self.points.entry(series.clone()).or_default();
            for (at, value) in points {
                *dst.entry(*at).or_insert(0) += value;
            }
        }
    }

    /// The recorded value of `series` at exactly `at`, if any.
    pub fn get(&self, series: &str, at: SimTime) -> Option<i64> {
        self.points.get(series).and_then(|points| points.get(&at)).copied()
    }

    /// Total number of points across all series.
    pub fn len(&self) -> usize {
        self.points.values().map(BTreeMap::len).sum()
    }

    /// Whether no point has been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Iterates `(series, time, value)` in canonical (name, then time)
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, SimTime, i64)> {
        self.points
            .iter()
            .flat_map(|(name, points)| points.iter().map(move |(at, v)| (name.as_str(), *at, *v)))
    }

    /// Renders `series,t_us,value` CSV rows (header included) in canonical
    /// order. Times are integral microseconds so the bytes are exact.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("series,t_us,value\n");
        for (series, at, value) in self.iter() {
            let _ = writeln!(out, "{series},{},{value}", at.as_micros());
        }
        out
    }

    /// Renders the canonical JSON array form:
    /// `[{"series":...,"points":[[t_us,value],...]},...]` in name order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, (series, points)) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"series\":{},\"points\":[", json_str(series));
            for (j, (at, value)) in points.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{},{value}]", at.as_micros());
            }
            out.push_str("]}");
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spamward_sim::SimDuration;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn points_at_the_same_key_add() {
        let mut ts = TimeSeries::new();
        ts.record_point("obs.sample.test", t(60), 3);
        ts.record_point("obs.sample.test", t(60), 4);
        ts.record_point("obs.sample.test", t(120), 1);
        assert_eq!(ts.get("obs.sample.test", t(60)), Some(7));
        assert_eq!(ts.get("obs.sample.test", t(120)), Some(1));
        assert_eq!(ts.len(), 2);
    }

    #[test]
    fn repeated_series_record_the_same_points_as_a_fresh_entry_per_call() {
        // The oracle inserts every point through an owned series name.
        let mut oracle: BTreeMap<String, BTreeMap<SimTime, i64>> = BTreeMap::new();
        let mut ts = TimeSeries::new();
        let names = ["obs.sample.b", "obs.sample.a", "obs.sample.b"];
        for step in 0..60u64 {
            let (series, at, value) =
                (names[step as usize % 3], t(step / 7 * 60), step as i64 - 20);
            *oracle.entry(series.to_owned()).or_default().entry(at).or_insert(0) += value;
            ts.record_point(series, at, value);
        }
        let expected: Vec<(&str, SimTime, i64)> = oracle
            .iter()
            .flat_map(|(name, points)| points.iter().map(move |(at, v)| (name.as_str(), *at, *v)))
            .collect();
        assert_eq!(ts.iter().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn merge_is_order_insensitive() {
        let mut a = TimeSeries::new();
        a.record_point("obs.sample.a", t(0), 1);
        a.record_point("obs.sample.b", t(60), 5);
        let mut b = TimeSeries::new();
        b.record_point("obs.sample.b", t(60), 2);
        b.record_point("obs.sample.c", t(0), -3);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.to_csv(), ba.to_csv());
        assert_eq!(ab.get("obs.sample.b", t(60)), Some(7));
    }

    #[test]
    fn renderings_are_canonical() {
        let mut ts = TimeSeries::new();
        ts.record_point("obs.sample.b", t(60), 2);
        ts.record_point("obs.sample.a", t(120), -1);
        ts.record_point("obs.sample.a", t(60), 4);
        assert_eq!(
            ts.to_csv(),
            "series,t_us,value\n\
             obs.sample.a,60000000,4\n\
             obs.sample.a,120000000,-1\n\
             obs.sample.b,60000000,2\n"
        );
        assert_eq!(
            ts.to_json(),
            "[{\"series\":\"obs.sample.a\",\"points\":[[60000000,4],[120000000,-1]]},\
             {\"series\":\"obs.sample.b\",\"points\":[[60000000,2]]}]"
        );
        assert_eq!(TimeSeries::new().to_json(), "[]");
        assert!(TimeSeries::new().is_empty());
    }
}

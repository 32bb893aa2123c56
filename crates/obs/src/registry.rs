//! The named metric registry and its canonical renderings.
//!
//! A [`Registry`] is a snapshot container: components export their plain
//! instrument fields into it at collection time, binding names once (the O1
//! lint keeps those name literals in `metrics.rs` modules). The backing
//! store is a `BTreeMap` so every rendering — text, CSV, JSON — is a pure,
//! byte-stable function of the recorded values (the D3 rule).

use crate::metric::Histogram;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One recorded metric value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// A monotone event count.
    Counter(u64),
    /// A signed level (queue depth, store size).
    Gauge(i64),
    /// A fixed-bucket distribution.
    Histogram(Histogram),
}

impl MetricValue {
    /// Folds `other` into this value as recording it under the same name
    /// would: counters and gauges add, histograms merge, and a value of
    /// another kind replaces this one.
    fn fold(&mut self, other: &MetricValue) {
        match (self, other) {
            (MetricValue::Counter(v), MetricValue::Counter(o)) => *v += o,
            (MetricValue::Gauge(v), MetricValue::Gauge(o)) => *v += o,
            (MetricValue::Histogram(h), MetricValue::Histogram(o)) => h.merge(o),
            (slot, other) => *slot = other.clone(),
        }
    }
}

/// A deterministic, name-ordered snapshot of metric values.
///
/// Recording the same name twice *merges*: counters and histogram buckets
/// add, gauges sum (so per-world levels aggregate across worlds). Merging
/// two registries merges every entry, which is how experiment runs fold
/// per-sample world snapshots into one report section.
///
/// A name given as a `&'static str` (every `metrics.rs` constant) is kept
/// as that reference, so recording it copies nothing; a built name (a
/// `String`) is kept as given.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    metrics: BTreeMap<Cow<'static, str>, MetricValue>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Records (or adds to) a counter.
    pub fn record_counter(&mut self, name: impl Into<Cow<'static, str>>, value: u64) {
        self.record(name.into(), MetricValue::Counter(value));
    }

    /// Records (or sums into) a gauge level.
    pub fn record_gauge(&mut self, name: impl Into<Cow<'static, str>>, value: i64) {
        self.record(name.into(), MetricValue::Gauge(value));
    }

    fn record(&mut self, name: Cow<'static, str>, value: MetricValue) {
        match self.metrics.get_mut(&*name) {
            Some(slot) => slot.fold(&value),
            None => {
                self.metrics.insert(name, value);
            }
        }
    }

    /// Records (or merges into) a histogram snapshot. The snapshot is
    /// taken by value: a new entry keeps it as it is, so nothing is
    /// copied, and merging folds it in and drops it.
    pub fn record_histogram(&mut self, name: impl Into<Cow<'static, str>>, hist: Histogram) {
        let name = name.into();
        match self.metrics.get_mut(&*name) {
            Some(MetricValue::Histogram(h)) => h.merge(&hist),
            Some(other) => *other = MetricValue::Histogram(hist),
            None => {
                self.metrics.insert(name, MetricValue::Histogram(hist));
            }
        }
    }

    /// Folds every entry of `other` into this registry; a name new here
    /// is shared if it was a constant there, and copied if it was built.
    pub fn merge(&mut self, other: &Registry) {
        for (name, value) in &other.metrics {
            match self.metrics.get_mut(&**name) {
                Some(slot) => slot.fold(value),
                None => {
                    self.metrics.insert(name.clone(), value.clone());
                }
            }
        }
    }

    /// Looks up a metric by exact name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.get(name)
    }

    /// The value of a counter, if `name` is a recorded counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// The level of a gauge, if `name` is a recorded gauge.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.metrics.get(name) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Iterates entries in canonical (name) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.metrics.iter().map(|(k, v)| (&**k, v))
    }

    /// Number of recorded metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Renders `name value` lines (histograms as one `count=/sum=/le...`
    /// line), in canonical order.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{name} {v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{name} {v}");
                }
                MetricValue::Histogram(h) => {
                    let _ = write!(out, "{name} count={} sum={}", h.count(), h.sum());
                    for (bound, n) in h.bounds().iter().zip(h.counts()) {
                        let _ = write!(out, " le{bound}={n}");
                    }
                    if let Some(overflow) = h.counts().last() {
                        let _ = write!(out, " le+inf={overflow}");
                    }
                    if h.count() > 0 {
                        for pct in [50u64, 90, 99] {
                            let _ = write!(out, " p{pct}={}", quantile_cell(h, pct));
                        }
                    }
                    out.push('\n');
                }
            }
        }
        out
    }

    /// Renders `metric,kind,value` CSV rows (header included); histogram
    /// buckets become one `<name>{le=<bound>}` row each.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("metric,kind,value\n");
        for (name, value) in &self.metrics {
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{name},counter,{v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{name},gauge,{v}");
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(out, "{name},histogram_count,{}", h.count());
                    let _ = writeln!(out, "{name},histogram_sum,{}", h.sum());
                    for (bound, n) in h.bounds().iter().zip(h.counts()) {
                        let _ = writeln!(out, "{name}{{le={bound}}},histogram_bucket,{n}");
                    }
                    if let Some(overflow) = h.counts().last() {
                        let _ = writeln!(out, "{name}{{le=+inf}},histogram_bucket,{overflow}");
                    }
                }
            }
        }
        out
    }

    /// Renders the canonical JSON array form embedded in report JSON:
    /// `[{"name":...,"kind":...,...},...]` in name order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match value {
                MetricValue::Counter(v) => {
                    let _ = write!(
                        out,
                        "{{\"name\":{},\"kind\":\"counter\",\"value\":{v}}}",
                        json_str(name)
                    );
                }
                MetricValue::Gauge(v) => {
                    let _ = write!(
                        out,
                        "{{\"name\":{},\"kind\":\"gauge\",\"value\":{v}}}",
                        json_str(name)
                    );
                }
                MetricValue::Histogram(h) => {
                    let _ = write!(
                        out,
                        "{{\"name\":{},\"kind\":\"histogram\",\"count\":{},\"sum\":{},\"buckets\":[",
                        json_str(name),
                        h.count(),
                        h.sum()
                    );
                    for (j, (bound, n)) in h.bounds().iter().zip(h.counts()).enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{{\"le\":{bound},\"count\":{n}}}");
                    }
                    if let Some(overflow) = h.counts().last() {
                        if !h.bounds().is_empty() {
                            out.push(',');
                        }
                        let _ = write!(out, "{{\"le\":null,\"count\":{overflow}}}");
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push(']');
        out
    }
}

/// The upper bucket bound covering the `pct`-th percentile observation, as
/// a text cell: the smallest bound whose cumulative count reaches the
/// percentile rank, or `+inf` when it falls in the overflow bucket. All
/// integral arithmetic — the cell is a bucket *bound*, not an
/// interpolation, so it renders identically on every platform.
fn quantile_cell(h: &Histogram, pct: u64) -> String {
    let rank = (u128::from(h.count()) * u128::from(pct)).div_ceil(100).max(1);
    let mut cumulative = 0u128;
    for (bound, n) in h.bounds().iter().zip(h.counts()) {
        cumulative += u128::from(*n);
        if cumulative >= rank {
            return bound.to_string();
        }
    }
    "+inf".to_owned()
}

/// Escapes a metric name as a JSON string literal (same canonical escaping
/// as `spamward_analysis::json::json_string`; duplicated to keep this crate
/// dependency-light).
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Registry {
        let mut reg = Registry::new();
        reg.record_counter("smtp.command.total", 12);
        reg.record_gauge("greylist.store.size", 3);
        let mut h = Histogram::new(&[10, 100]);
        h.observe(5);
        h.observe(500);
        reg.record_histogram("mta.retry.delay_s", h);
        reg
    }

    #[test]
    fn recording_same_name_merges() {
        let mut reg = sample();
        reg.record_counter("smtp.command.total", 8);
        reg.record_gauge("greylist.store.size", -1);
        let mut h = Histogram::new(&[10, 100]);
        h.observe(50);
        reg.record_histogram("mta.retry.delay_s", h);

        assert_eq!(reg.counter("smtp.command.total"), Some(20));
        assert_eq!(reg.gauge("greylist.store.size"), Some(2));
        match reg.get("mta.retry.delay_s") {
            Some(MetricValue::Histogram(h)) => assert_eq!(h.count(), 3),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn merge_folds_every_kind() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.counter("smtp.command.total"), Some(24));
        assert_eq!(a.gauge("greylist.store.size"), Some(6));
        match a.get("mta.retry.delay_s") {
            Some(MetricValue::Histogram(h)) => {
                assert_eq!(h.count(), 4);
                assert_eq!(h.bucket(10), Some(2));
            }
            other => panic!("expected histogram, got {other:?}"),
        }
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn renderings_are_canonical() {
        let reg = sample();
        assert_eq!(
            reg.to_text(),
            "greylist.store.size 3\n\
             mta.retry.delay_s count=2 sum=505 le10=1 le100=0 le+inf=1 p50=10 p90=+inf p99=+inf\n\
             smtp.command.total 12\n"
        );
        assert_eq!(
            reg.to_csv(),
            "metric,kind,value\n\
             greylist.store.size,gauge,3\n\
             mta.retry.delay_s,histogram_count,2\n\
             mta.retry.delay_s,histogram_sum,505\n\
             mta.retry.delay_s{le=10},histogram_bucket,1\n\
             mta.retry.delay_s{le=100},histogram_bucket,0\n\
             mta.retry.delay_s{le=+inf},histogram_bucket,1\n\
             smtp.command.total,counter,12\n"
        );
        assert_eq!(
            reg.to_json(),
            "[{\"name\":\"greylist.store.size\",\"kind\":\"gauge\",\"value\":3},\
             {\"name\":\"mta.retry.delay_s\",\"kind\":\"histogram\",\"count\":2,\"sum\":505,\
             \"buckets\":[{\"le\":10,\"count\":1},{\"le\":100,\"count\":0},\
             {\"le\":null,\"count\":1}]},\
             {\"name\":\"smtp.command.total\",\"kind\":\"counter\",\"value\":12}]"
        );
        // Rendering twice yields identical bytes.
        assert_eq!(reg.to_json(), reg.clone().to_json());
        assert_eq!(Registry::new().to_json(), "[]");
    }

    #[test]
    fn histogram_text_pins_the_quantile_summary_format() {
        // 10 observations: 5 land in le10, 3 more in le100, 2 overflow.
        let mut h = Histogram::new(&[10, 100]);
        for _ in 0..5 {
            h.observe(1);
        }
        for _ in 0..3 {
            h.observe(50);
        }
        h.observe(1_000);
        h.observe(2_000);
        let mut reg = Registry::new();
        reg.record_histogram("mta.retry.delay_s", h);
        // p50 rank 5 → le10; p90 rank 9 → le+inf; p99 rank 10 → le+inf.
        assert_eq!(
            reg.to_text(),
            "mta.retry.delay_s count=10 sum=3155 le10=5 le100=3 le+inf=2 p50=10 p90=+inf p99=+inf\n"
        );

        // An empty histogram has no quantiles to summarise.
        let empty = Histogram::new(&[10, 100]);
        let mut reg = Registry::new();
        reg.record_histogram("mta.retry.delay_s", empty);
        assert_eq!(reg.to_text(), "mta.retry.delay_s count=0 sum=0 le10=0 le100=0 le+inf=0\n");
    }

    #[test]
    fn names_escape_like_report_json() {
        let mut reg = Registry::new();
        reg.record_counter("weird\"name\\", 1);
        assert!(reg.to_json().contains("\"weird\\\"name\\\\\""));
    }
}

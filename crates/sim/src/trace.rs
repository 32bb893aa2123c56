//! A bounded, structured trace recorder.
//!
//! Experiments attach a [`Tracer`] to their state so that tests and the
//! `repro` harness can assert on — and print — *why* a run produced its
//! numbers (e.g. "Kelihos retried at t+5m02s and was greylisted again").
//! The recorder is bounded so pathological runs cannot exhaust memory.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Virtual time at which the event was recorded.
    pub at: SimTime,
    /// Dotted category, e.g. `"smtp.reject"` or `"dns.query"`.
    pub category: String,
    /// Human-readable detail line.
    pub detail: String,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.at, self.category, self.detail)
    }
}

/// A bounded in-memory trace recorder.
///
/// When the capacity is exceeded the *oldest* events are dropped and
/// [`Tracer::dropped`] counts them; the tail of a run is usually the
/// interesting part.
///
/// # Example
///
/// ```
/// use spamward_sim::trace::Tracer;
/// use spamward_sim::SimTime;
///
/// let mut t = Tracer::with_capacity(2);
/// t.record(SimTime::from_secs(1), "a", "one");
/// t.record(SimTime::from_secs(2), "a", "two");
/// t.record(SimTime::from_secs(3), "b", "three");
/// assert_eq!(t.dropped(), 1);
/// assert_eq!(t.events().len(), 2);
/// assert_eq!(t.events().next().unwrap().detail, "two");
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Tracer {
    events: std::collections::VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    enabled: bool,
}

impl Tracer {
    /// Default bound on retained events.
    pub const DEFAULT_CAPACITY: usize = 65_536;

    /// Creates an enabled tracer with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates an enabled tracer retaining at most `capacity` events.
    ///
    /// A capacity of zero retains nothing: every recorded event is counted
    /// as dropped, so event *counts* stay observable even when retention is
    /// turned off.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer { events: std::collections::VecDeque::new(), capacity, dropped: 0, enabled: true }
    }

    /// Creates a tracer that records nothing.
    ///
    /// Recording on it costs only the enabled check: [`Tracer::record`]
    /// takes its detail as `impl Display` and renders it only when
    /// recording is enabled, so a call site passing `format_args!(..)`
    /// formats and allocates nothing here.
    pub fn disabled() -> Self {
        Tracer {
            events: std::collections::VecDeque::new(),
            capacity: 1,
            dropped: 0,
            enabled: false,
        }
    }

    /// Whether recording is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event (no-op when disabled).
    ///
    /// `detail` is rendered to its line only when recording is enabled:
    /// pass `format_args!(..)` (or a `&str`) rather than a built `String`,
    /// so a disabled tracer does no formatting work.
    pub fn record(&mut self, at: SimTime, category: &str, detail: impl fmt::Display) {
        if !self.enabled {
            return;
        }
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceEvent {
            at,
            category: category.to_owned(),
            detail: detail.to_string(),
        });
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl ExactSizeIterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of events evicted due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained events whose category starts with `prefix`.
    pub fn in_category<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a TraceEvent> {
        self.events.iter().filter(move |e| e.category.starts_with(prefix))
    }

    /// Counts retained events whose category starts with `prefix`.
    pub fn count(&self, prefix: &str) -> usize {
        self.in_category(prefix).count()
    }

    /// Clears all retained events (keeps the dropped counter).
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn records_in_order() {
        let mut tr = Tracer::new();
        tr.record(t(1), "dns.query", "MX foo.net");
        tr.record(t(2), "smtp.reject", "450 greylisted");
        let evs: Vec<_> = tr.events().collect();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].category, "dns.query");
        assert_eq!(evs[1].at, t(2));
    }

    #[test]
    fn bounded_drops_oldest() {
        let mut tr = Tracer::with_capacity(3);
        for i in 0..10 {
            tr.record(t(i), "c", format!("e{i}"));
        }
        assert_eq!(tr.dropped(), 7);
        let details: Vec<_> = tr.events().map(|e| e.detail.clone()).collect();
        assert_eq!(details, vec!["e7", "e8", "e9"]);
    }

    #[test]
    fn zero_capacity_counts_everything_as_dropped() {
        let mut tr = Tracer::with_capacity(0);
        assert!(tr.is_enabled());
        for i in 0..5 {
            tr.record(t(i), "c", format!("e{i}"));
        }
        assert_eq!(tr.events().len(), 0, "nothing is retained at capacity 0");
        assert_eq!(tr.dropped(), 5, "every record still counts as dropped");
        tr.clear();
        assert_eq!(tr.dropped(), 5);
    }

    #[test]
    fn one_capacity_keeps_only_the_latest() {
        let mut tr = Tracer::with_capacity(1);
        tr.record(t(1), "c", "first");
        assert_eq!(tr.dropped(), 0);
        tr.record(t(2), "c", "second");
        tr.record(t(3), "c", "third");
        assert_eq!(tr.dropped(), 2);
        let evs: Vec<_> = tr.events().collect();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].detail, "third");
    }

    #[test]
    fn disabled_records_nothing() {
        let mut tr = Tracer::disabled();
        tr.record(t(1), "c", "x");
        assert_eq!(tr.events().len(), 0);
        assert_eq!(tr.dropped(), 0);
        assert!(!tr.is_enabled());
    }

    /// A detail that counts how often it is rendered.
    struct CountingDetail<'a>(&'a std::cell::Cell<u32>);

    impl fmt::Display for CountingDetail<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.0.set(self.0.get() + 1);
            f.write_str("probe")
        }
    }

    #[test]
    fn detail_is_rendered_only_when_enabled() {
        let renders = std::cell::Cell::new(0);
        let mut off = Tracer::disabled();
        off.record(t(1), "c", CountingDetail(&renders));
        assert_eq!(renders.get(), 0, "a disabled tracer must not format its detail");

        let mut on = Tracer::new();
        on.record(t(1), "c", CountingDetail(&renders));
        assert_eq!(renders.get(), 1, "an enabled tracer formats its detail once");
        assert_eq!(on.events().next().map(|e| e.detail.as_str()), Some("probe"));
    }

    #[test]
    fn category_filtering() {
        let mut tr = Tracer::new();
        tr.record(t(1), "smtp.reject", "a");
        tr.record(t(2), "smtp.accept", "b");
        tr.record(t(3), "dns.query", "c");
        assert_eq!(tr.count("smtp"), 2);
        assert_eq!(tr.count("smtp.reject"), 1);
        assert_eq!(tr.count("dns"), 1);
        assert_eq!(tr.count("nope"), 0);
    }

    #[test]
    fn display_is_informative() {
        let ev = TraceEvent { at: t(302), category: "smtp.reject".into(), detail: "450".into() };
        assert_eq!(ev.to_string(), "[t+5m02s] smtp.reject: 450");
    }

    #[test]
    fn clear_keeps_dropped_counter() {
        let mut tr = Tracer::with_capacity(1);
        tr.record(t(1), "c", "a");
        tr.record(t(2), "c", "b");
        assert_eq!(tr.dropped(), 1);
        tr.clear();
        assert_eq!(tr.events().len(), 0);
        assert_eq!(tr.dropped(), 1);
    }
}

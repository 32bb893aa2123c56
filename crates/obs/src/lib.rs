//! Deterministic metrics and span instrumentation for the spamward stack.
//!
//! The paper's conclusions are aggregate counters over protocol events —
//! connections per MX, retries per schedule bucket, greylist defers vs.
//! passes, delivery-delay distributions (§IV–§VI of Pagani et al.). This
//! crate gives those counters a first-class, *deterministic* home:
//!
//! - **Zero ambient state.** There is no global registry, no thread-local,
//!   no lazy static. Components own plain [`Counter`]/[`Gauge`]/
//!   [`Histogram`]/[`SpanStats`] fields (O(1) unsynchronised increments on
//!   hot paths) and export them into a caller-owned [`Registry`] at
//!   collection time. Two worlds never share metric state, so parallel
//!   `repro --jobs N` runs stay byte-identical to serial runs.
//! - **Deterministic snapshots.** [`Registry`] is backed by a `BTreeMap`
//!   (the D3 lint rule), so its text/CSV/JSON renderings are a pure
//!   function of the recorded values — no hash-iteration order, no
//!   timestamps.
//! - **Virtual time only.** [`Span`]s are timed against the injected
//!   [`SimTime`](spamward_sim::SimTime)/[`Clock`](spamward_sim::Clock) substrate, never
//!   `std::time::Instant` (the D1 lint rule), so span durations are part
//!   of the reproducible output rather than noise.
//! - **Time as data.** [`TimeSeries`] holds sampled counter/gauge points in
//!   virtual time with an additive, order-insensitive merge (shard-width
//!   invariant byte renderings), and [`Timeline`] is a bounded flight
//!   recorder of message-lifecycle events exporting Chrome trace-event
//!   JSON. [`to_openmetrics`] renders any [`Registry`] in the OpenMetrics
//!   exposition format for standard tooling.
//!
//! Metric names follow the `crate.subsystem.event` convention and are bound
//! in each crate's `metrics.rs` constants module (the O1 lint rule keeps
//! literals out of protocol code), e.g. `greylist.check.deferred.new` or
//! `dns.query.mx`.
//!
//! ```
//! use spamward_obs::{Registry, Span, SpanStats};
//! use spamward_sim::{SimDuration, SimTime};
//!
//! // A component counts events in plain fields...
//! let mut lookups: u64 = 0;
//! let mut lookup_time = SpanStats::default();
//! let t0 = SimTime::ZERO;
//! let span = Span::enter(t0);
//! lookups += 1;
//! lookup_time.record(span.exit(t0 + SimDuration::from_micros(12)));
//!
//! // ...and a collector binds names once, at snapshot time.
//! let mut reg = Registry::new();
//! reg.record_counter("store.lookup.total", lookups);
//! reg.record_span("store.lookup", &lookup_time);
//! assert_eq!(reg.counter("store.lookup.total"), Some(1));
//! assert!(reg.to_text().contains("store.lookup.total_us 12"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod metric;
mod registry;
mod span;
mod timeline;
mod timeseries;

pub use export::to_openmetrics;
pub use metric::{Counter, Gauge, Histogram};
pub use registry::{MetricValue, Registry};
pub use span::{Span, SpanStats};
pub use timeline::{Timeline, TimelineEvent, DEFAULT_TIMELINE_CAPACITY};
pub use timeseries::TimeSeries;

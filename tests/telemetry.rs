//! Determinism and schema of the virtual-time telemetry layer.
//!
//! The time-series and timeline a run captures are pure functions of
//! (seed, config): the executor width (`--shards`) must not change a
//! byte of either export. The timeline export is Chrome trace-event
//! JSON, so its structure is pinned here too, along with the acceptance
//! property the layer exists for: a greylist-deferred message's full
//! lifecycle (emit → defer → retry → pass → deliver) is visible on one
//! track.

use spamward::core::harness::{self, HarnessConfig, Scale, DEFAULT_SAMPLE_INTERVAL};

/// A quick-scale run with sampling and tracing (behind the timeline) on.
fn run_telemetry(id: &str, shards: usize) -> harness::Report {
    let exp = harness::find(id).expect("experiment is registered");
    let config = HarnessConfig {
        scale: Scale::Quick,
        shards,
        trace: true,
        sample_interval: Some(DEFAULT_SAMPLE_INTERVAL),
        ..Default::default()
    };
    exp.run(&config).expect("quick-scale run completes")
}

#[test]
fn telemetry_bytes_are_shard_count_invariant() {
    for id in ["table2", "fig2"] {
        let serial = run_telemetry(id, 1);
        let wide = run_telemetry(id, 4);
        assert!(!serial.timeseries().is_empty(), "{id}: sampled series must not be empty");
        assert_eq!(
            serial.timeseries().to_csv(),
            wide.timeseries().to_csv(),
            "{id}: timeseries CSV must not depend on --shards"
        );
        assert_eq!(
            serial.timeseries().to_json(),
            wide.timeseries().to_json(),
            "{id}: timeseries JSON must not depend on --shards"
        );
        assert_eq!(
            serial.timeline().to_chrome_trace(),
            wide.timeline().to_chrome_trace(),
            "{id}: timeline trace must not depend on --shards"
        );
        // Telemetry never leaks into the canonical report bytes, which
        // stay shard-count invariant as before.
        assert_eq!(serial.to_json(), wide.to_json(), "{id}: canonical JSON must stay invariant");
    }
}

#[test]
fn table2_timeseries_covers_the_declared_sample_series() {
    let report = run_telemetry("table2", 2);
    let csv = report.timeseries().to_csv();
    assert!(csv.starts_with("series,t_us,value\n"), "pinned CSV header: {csv:?}");
    for series in [
        "obs.sample.engine.events",
        "obs.sample.engine.queue_high_water",
        "obs.sample.greylist.deferred",
        "obs.sample.greylist.passed",
        "obs.sample.recv.accepted",
        "obs.sample.recv.mailbox_size",
        "obs.sample.shard.0.events",
    ] {
        assert!(csv.contains(series), "table2 timeseries is missing {series}:\n{csv}");
    }
}

#[test]
fn timeline_exports_valid_chrome_trace_json() {
    let report = run_telemetry("table2", 1);
    let trace = report.timeline().to_chrome_trace();
    // Top-level schema: a trace-event object with the displayTimeUnit
    // hint and the traceEvents array, closed exactly once.
    assert!(trace.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["), "{trace:?}");
    assert!(trace.ends_with("]}"), "{trace:?}");
    // Per-event schema: thread_name metadata records then instant events
    // carrying the Chrome trace mandatory fields.
    assert!(trace.contains("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"));
    assert!(trace.contains("\"cat\":\"spamward\",\"ph\":\"i\",\"ts\":"));
    assert!(trace.contains("\"s\":\"t\",\"args\":{\"detail\":"));
    // Every buffered event renders: one "i" record per event, one "M"
    // record per distinct track.
    let instants = trace.matches("\"ph\":\"i\"").count();
    let threads = trace.matches("\"ph\":\"M\"").count();
    assert_eq!(instants, report.timeline().len());
    let tracks: std::collections::BTreeSet<&str> =
        report.timeline().events().map(|e| e.track.as_str()).collect();
    assert_eq!(threads, tracks.len());
}

#[test]
fn a_greylist_deferred_message_shows_its_full_lifecycle() {
    let report = run_telemetry("table2", 2);
    // Kelihos retries through greylisting, so at least one track must
    // show the complete deferred-delivery arc, in causal order.
    let lifecycle = [
        "timeline.emit",
        "timeline.greylist.defer",
        "timeline.retry",
        "timeline.greylist.pass",
        "timeline.deliver",
    ];
    let mut tracks: std::collections::BTreeMap<&str, Vec<&str>> = std::collections::BTreeMap::new();
    for event in report.timeline().events() {
        tracks.entry(event.track.as_str()).or_default().push(event.name.as_str());
    }
    let full = tracks.iter().find(|(_, names)| {
        let mut want = lifecycle.iter();
        let mut next = want.next();
        for name in names.iter() {
            if next.is_some_and(|n| n == name) {
                next = want.next();
            }
        }
        next.is_none()
    });
    let (track, _) = full.unwrap_or_else(|| {
        panic!("no track shows the full greylist lifecycle; tracks: {tracks:?}")
    });
    assert!(track.starts_with("greylist/"), "lifecycle track is scoped: {track:?}");
}

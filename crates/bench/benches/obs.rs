//! Micro-benchmarks of the observability layer: the registry recorders,
//! histogram observation, registry merging, and — the budget the layer is
//! held to — a fully instrumented SMTP exchange next to the bare protocol
//! work it wraps. The instrumentation contract is
//! that collecting a session into a registry costs well under 5% of the
//! wire exchange it measures; compare `smtp_obs/bare_exchange` with
//! `smtp_obs/exchange_plus_collect` in the Criterion output to check it.

#![allow(clippy::unwrap_used, clippy::expect_used)] // not protocol-path code
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use spamward_dns::DomainName;
use spamward_mta::{AtExchanger, EventLog, WorldEvent};
use spamward_obs::{to_openmetrics, Histogram, Registry, TimeSeries};
use spamward_sim::SimTime;
use spamward_smtp::{
    exchange, AcceptAll, ClientSession, Dialect, Envelope, Message, ReversePath, ServerSession,
};
use std::net::Ipv4Addr;

// Bench-local metric names, bound once here (rule O1: literals never sit
// at the call site).
const BENCH_COUNTER: &str = "obs.bench.counter";
const BENCH_GAUGE: &str = "obs.bench.gauge";
const BENCH_HISTOGRAM: &str = "obs.bench.histogram";
const BENCH_SERIES: &str = "obs.bench.series";

fn bench_registry_primitives(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs");
    g.throughput(Throughput::Elements(1));

    g.bench_function("counter_record", |b| {
        let mut reg = Registry::new();
        b.iter(|| reg.record_counter(BENCH_COUNTER, 1));
    });

    g.bench_function("gauge_record", |b| {
        let mut reg = Registry::new();
        b.iter(|| reg.record_gauge(BENCH_GAUGE, 1));
    });

    g.bench_function("histogram_observe", |b| {
        let mut h = Histogram::new(&[1, 10, 100, 1_000, 10_000]);
        let mut v = 0u64;
        b.iter(|| {
            v = (v + 37) % 20_000;
            h.observe(v);
        });
    });

    g.bench_function("histogram_record", |b| {
        let mut h = Histogram::new(&[1, 10, 100, 1_000, 10_000]);
        for v in 0..64 {
            h.observe(v * 97);
        }
        let mut reg = Registry::new();
        // The registry takes the histogram by value, so each iteration
        // records a fresh copy.
        b.iter(|| reg.record_histogram(BENCH_HISTOGRAM, h.clone()));
    });

    g.bench_function("registry_merge_32_entries", |b| {
        let mut src = Registry::new();
        for i in 0..32u64 {
            // Distinct names without call-site literals: reuse the bench
            // counter name with an index suffix.
            src.record_counter(format!("{BENCH_COUNTER}.{i}"), i);
        }
        b.iter_batched(Registry::new, |mut dst| dst.merge(&src), BatchSize::SmallInput);
    });

    g.finish();
}

/// The virtual-time telemetry layer: sampling into a time-series, the
/// mail world's event record (behind `--trace` and `--timeline`), and the
/// deterministic renderings the CLI exports (`--timeseries`, `--export
/// openmetrics`).
fn bench_telemetry(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry");
    g.throughput(Throughput::Elements(1));

    g.bench_function("timeseries_record_point", |b| {
        let mut series = TimeSeries::new();
        let mut tick = 0u64;
        b.iter(|| {
            tick += 60;
            series.record_point(BENCH_SERIES, SimTime::from_secs(tick % 86_400), 1);
        });
    });

    // One per-exchanger fact into an enabled log; its capacity bound
    // keeps memory flat however long the bench runs.
    g.bench_function("timeline_record_event", |b| {
        let mut log = EventLog::enabled();
        let mx: DomainName = "mx.bench.example".parse().unwrap();
        let ip = Ipv4Addr::new(192, 0, 2, 10);
        let mut tick = 0u64;
        b.iter(|| {
            tick += 1;
            log.record(SimTime::from_secs(tick % 86_400), || WorldEvent::Exchanger {
                mx: mx.clone(),
                ip,
                what: AtExchanger::Connected,
            });
        });
    });

    g.bench_function("timeseries_to_csv_1440_points", |b| {
        let mut series = TimeSeries::new();
        for tick in 0..1_440u64 {
            series.record_point(BENCH_SERIES, SimTime::from_secs(tick * 60), tick as i64);
        }
        b.iter(|| series.to_csv());
    });

    g.bench_function("openmetrics_export_32_metrics", |b| {
        let mut reg = Registry::new();
        let mut h = Histogram::new(&[1, 10, 100, 1_000, 10_000]);
        for v in 0..64 {
            h.observe(v * 97);
        }
        for i in 0..32u64 {
            reg.record_counter(format!("{BENCH_COUNTER}.{i}"), i);
        }
        reg.record_histogram(BENCH_HISTOGRAM, h);
        b.iter(|| to_openmetrics(&reg));
    });

    g.finish();
}

/// A compliant-MTA exchange against an accept-all server, with and without
/// draining the session counters into a registry afterwards. The delta is
/// the entire per-session observability cost (the hot path itself only
/// bumps plain integer fields).
fn bench_instrumented_exchange(c: &mut Criterion) {
    let envelope = Envelope::builder()
        .client_ip(Ipv4Addr::new(203, 0, 113, 9))
        .mail_from(ReversePath::Address("a@relay.example".parse().unwrap()))
        .rcpt("u@foo.net".parse().unwrap())
        .build();
    let message = Message::builder().header("Subject", "bench").body(&"x".repeat(1_000)).build();
    let sessions = || {
        (
            ClientSession::new(
                Dialect::compliant_mta("relay.example"),
                envelope.clone(),
                message.clone(),
            ),
            ServerSession::new("mx.foo.net", Ipv4Addr::new(203, 0, 113, 9)),
        )
    };

    let mut g = c.benchmark_group("smtp_obs");
    g.throughput(Throughput::Elements(1));

    g.bench_function("bare_exchange", |b| {
        b.iter_batched(
            sessions,
            |(mut client, mut server)| {
                exchange(&mut client, &mut server, &mut AcceptAll, SimTime::ZERO)
            },
            BatchSize::SmallInput,
        );
    });

    g.bench_function("exchange_plus_collect", |b| {
        let mut reg = Registry::new();
        b.iter_batched(
            sessions,
            |(mut client, mut server)| {
                let out = exchange(&mut client, &mut server, &mut AcceptAll, SimTime::ZERO);
                spamward_smtp::metrics::collect(server.metrics(), &mut reg);
                out
            },
            BatchSize::SmallInput,
        );
    });

    g.finish();
}

criterion_group!(
    obs_benches,
    bench_registry_primitives,
    bench_telemetry,
    bench_instrumented_exchange
);
criterion_main!(obs_benches);

//! Micro-benchmarks of the substrates every experiment leans on: the SMTP
//! engine, the greylist hot path, MX resolution, the anonymized log, and
//! population synthesis.

#![allow(clippy::unwrap_used, clippy::expect_used)] // not protocol-path code
use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use spamward_analysis::log::{GreylistLogAnalysis, LogEvent, LogRecord};
use spamward_dns::{Authority, Resolver, Zone};
use spamward_greylist::{Greylist, GreylistConfig, KeyAtom, TripletKey};
use spamward_net::Network;
use spamward_scanner::{PopulationSpec, PopulationStream};
use spamward_sim::{DetRng, SimTime};
use spamward_smtp::{
    exchange, AcceptAll, ClientSession, Dialect, EmailAddress, Envelope, Message, PolicyDecision,
    Reply, ReversePath, ServerPolicy, ServerSession, Transaction,
};
use std::net::Ipv4Addr;

/// Defers every recipient, as a greylist does on first contact.
struct GreylistEveryone;

impl ServerPolicy for GreylistEveryone {
    fn on_rcpt(&mut self, _: SimTime, _: &Transaction, _: &EmailAddress) -> PolicyDecision {
        PolicyDecision::TempFail(Reply::greylisted(300))
    }
}

fn bench_smtp_exchange(c: &mut Criterion) {
    let envelope = Envelope::builder()
        .client_ip(Ipv4Addr::new(203, 0, 113, 9))
        .mail_from(ReversePath::Address("a@relay.example".parse().unwrap()))
        .rcpt("u@foo.net".parse().unwrap())
        .build();
    let message = Message::builder().header("Subject", "bench").body(&"x".repeat(1_000)).build();

    let mut g = c.benchmark_group("smtp");
    g.throughput(Throughput::Elements(1));
    g.bench_function("full_exchange_1kb_body", |b| {
        b.iter_batched(
            || {
                (
                    ClientSession::new(
                        Dialect::compliant_mta("relay.example"),
                        envelope.clone(),
                        message.clone(),
                    ),
                    ServerSession::new("mx.foo.net", Ipv4Addr::new(203, 0, 113, 9)),
                )
            },
            |(mut client, mut server)| {
                let mut policy = AcceptAll;
                exchange(&mut client, &mut server, &mut policy, SimTime::ZERO)
            },
            BatchSize::SmallInput,
        )
    });
    // The first-contact session a greylisted sender has before every
    // delivery: EHLO, MAIL, a 450 at RCPT, QUIT.
    g.bench_function("greylisted_exchange_1kb_body", |b| {
        b.iter_batched(
            || {
                (
                    ClientSession::new(
                        Dialect::compliant_mta("relay.example"),
                        envelope.clone(),
                        message.clone(),
                    ),
                    ServerSession::new("mx.foo.net", Ipv4Addr::new(203, 0, 113, 9)),
                )
            },
            |(mut client, mut server)| {
                exchange(&mut client, &mut server, &mut GreylistEveryone, SimTime::ZERO)
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_greylist_check(c: &mut Criterion) {
    let mut g = c.benchmark_group("greylist");
    g.throughput(Throughput::Elements(1));
    g.bench_function("check_cold_triplets", |b| {
        let mut gl = Greylist::new(GreylistConfig::default().without_auto_whitelist());
        let sender = ReversePath::Address("s@b.cc".parse().unwrap());
        let rcpt = "u@foo.net".parse().unwrap();
        let mut i: u32 = 0;
        b.iter(|| {
            i = i.wrapping_add(1);
            let ip = Ipv4Addr::from(0x0A00_0000 | i);
            gl.check(SimTime::from_secs(u64::from(i)), ip, &sender, &rcpt)
        })
    });
    g.bench_function("check_hot_triplet", |b| {
        let mut gl = Greylist::new(GreylistConfig::default().without_auto_whitelist());
        let ip = Ipv4Addr::new(10, 0, 0, 1);
        let sender = ReversePath::Address("s@b.cc".parse().unwrap());
        let rcpt: spamward_smtp::EmailAddress = "u@foo.net".parse().unwrap();
        gl.check(SimTime::ZERO, ip, &sender, &rcpt);
        gl.check(SimTime::from_secs(301), ip, &sender, &rcpt);
        b.iter(|| gl.check(SimTime::from_secs(302), ip, &sender, &rcpt))
    });
    g.finish();
}

fn bench_dns_resolution(c: &mut Criterion) {
    let mut dns = Authority::new();
    for i in 0..1_000u32 {
        let name = format!("d{i}.example").parse().unwrap();
        dns.publish(Zone::single_mx(name, Ipv4Addr::from(0x0B00_0001 + i)));
    }
    let mut g = c.benchmark_group("dns");
    g.throughput(Throughput::Elements(1));
    g.bench_function("resolve_mx_cold_cache", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % 1_000;
            let mut resolver = Resolver::new();
            let name = format!("d{i}.example").parse().unwrap();
            resolver.resolve_mx(&mut dns, &name, SimTime::ZERO)
        })
    });
    g.bench_function("resolve_mx_warm_cache", |b| {
        let mut resolver = Resolver::new();
        let name = "d0.example".parse().unwrap();
        resolver.resolve_mx(&mut dns, &name, SimTime::ZERO).unwrap();
        b.iter(|| resolver.resolve_mx(&mut dns, &name, SimTime::ZERO))
    });
    g.finish();
}

/// A Fig. 5-shaped anonymized log of `messages` messages: each is
/// greylisted on arrival, a quarter retry early and are greylisted again,
/// and all but one in fifteen pass and are accepted after the delay. Each
/// message's records sit together, as a sender drains its queue in turn.
fn synthetic_log(messages: u64) -> Vec<LogRecord> {
    let mut rng = DetRng::seed(5).fork("bench.log");
    let mut log = Vec::new();
    for _ in 0..messages {
        let (key, arrival) = (rng.next_u64(), rng.below(10_000_000_000_000));
        let at = |secs: u64| SimTime::from_micros(arrival + secs * 1_000_000);
        log.push(LogRecord { at: at(0), event: LogEvent::Greylisted, key });
        if rng.below(4) == 0 {
            log.push(LogRecord { at: at(120), event: LogEvent::Greylisted, key });
        }
        if rng.below(15) != 0 {
            let delivered = at(300 + rng.below(3_000));
            log.push(LogRecord { at: delivered, event: LogEvent::PassedGreylist, key });
            log.push(LogRecord { at: delivered, event: LogEvent::Accepted, key });
        }
    }
    log
}

fn bench_anonymized_log(c: &mut Criterion) {
    let mut g = c.benchmark_group("log");
    g.throughput(Throughput::Elements(1));
    // One log record's key: the triplet's display text, hashed.
    g.bench_function("anonymize_log_key", |b| {
        let key = TripletKey {
            client_net: u32::from(Ipv4Addr::new(100, 64, 123, 0)),
            sender: KeyAtom::of("user12345@relay12345.example"),
            recipient: KeyAtom::of("staff7@cs-dept.example"),
        };
        b.iter(|| spamward_mta::log::anonymize(black_box(0x5eed), black_box(&key)))
    });
    g.sample_size(10);
    g.throughput(Throughput::Elements(20_000));
    g.bench_function("from_records_20k_messages", |b| {
        let log = synthetic_log(20_000);
        b.iter(|| GreylistLogAnalysis::from_records(log.iter().copied()).len())
    });
    g.finish();
}

fn bench_population_synthesis(c: &mut Criterion) {
    let mut g = c.benchmark_group("scanner");
    g.sample_size(10);
    g.throughput(Throughput::Elements(5_000));
    // Every domain's packed record installed into one corner of the
    // internet, an authority and a network cleared and refilled per
    // domain, as the Fig. 2 scan does it.
    g.bench_function("generate_5k_domain_population", |b| {
        let stream = PopulationStream::new(PopulationSpec::fig2(5_000), 1);
        let (mut dns, mut net) = (Authority::new(), Network::new(1));
        let mut text = [0; 32];
        b.iter(|| {
            (0..stream.len() as u64)
                .map(|i| {
                    dns.clear();
                    net.clear();
                    let name = stream.name_into(i, &mut text);
                    stream.install(&stream.packed(i), name, &mut dns, &mut net);
                    net.len()
                })
                .sum::<usize>()
        })
    });
    g.finish();
}

fn bench_rng(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim");
    g.throughput(Throughput::Elements(1));
    g.bench_function("detrng_next_u64", |b| {
        let mut rng = DetRng::seed(1);
        b.iter(|| rng.below(1_000_000))
    });
    g.finish();
}

criterion_group!(
    substrates,
    bench_smtp_exchange,
    bench_greylist_check,
    bench_dns_resolution,
    bench_anonymized_log,
    bench_population_synthesis,
    bench_rng
);
criterion_main!(substrates);

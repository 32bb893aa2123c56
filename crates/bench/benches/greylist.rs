//! Benchmarks of the greylist decision engine on an in-process store and
//! behind a remote hop: the defer/pass hot path, and a purge sweep over an
//! aged store. Baseline numbers are
//! recorded in `crates/bench/BENCH_greylist.json`; re-run with
//! `cargo bench -p spamward-bench --bench greylist` after touching
//! `crates/greylist/src/{store,backend,policy}.rs`.

#![allow(clippy::unwrap_used, clippy::expect_used)] // not protocol-path code
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use spamward_greylist::{Greylist, GreylistConfig, RemoteStore};
use spamward_sim::{SimDuration, SimTime};
use spamward_smtp::{EmailAddress, ReversePath};
use std::net::Ipv4Addr;

const CLIENTS: u64 = 500;
const DELAY: SimDuration = SimDuration::from_secs(300);

/// A fresh engine per row: in-process, and behind a 2 ms remote hop.
fn engines() -> Vec<(&'static str, Greylist)> {
    let gl = Greylist::new(GreylistConfig::with_delay(DELAY).without_auto_whitelist());
    let remote = gl.clone().with_remote(RemoteStore::new(SimDuration::from_millis(2)));
    vec![("in_memory", gl), ("remote_2ms", remote)]
}

fn envelope(i: u64) -> (Ipv4Addr, ReversePath, EmailAddress) {
    let ip = Ipv4Addr::new(198, 18, (i / 251) as u8, (i % 251) as u8 + 1);
    let sender: EmailAddress = format!("sender{i}@origin.example").parse().unwrap();
    let rcpt: EmailAddress = format!("user{}@victim.example", i % 16).parse().unwrap();
    (ip, ReversePath::Address(sender), rcpt)
}

/// One defer + one matured pass per client: the two store round-trips
/// every successfully greylisted legitimate message costs.
fn defer_then_pass(mut gl: Greylist) -> u64 {
    let mut passed = 0u64;
    for i in 0..CLIENTS {
        let (ip, sender, rcpt) = envelope(i);
        let _ = gl.check(SimTime::ZERO, ip, &sender, &rcpt);
        let retry = SimTime::ZERO + DELAY + SimDuration::from_secs(i);
        if gl.check(retry, ip, &sender, &rcpt).is_pass() {
            passed += 1;
        }
    }
    passed
}

/// The decision hot path per store — one `TripletStore` either way, so
/// the rows differ only in the hop's lookup accounting.
fn bench_decision_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("greylist");
    g.throughput(Throughput::Elements(CLIENTS * 2));
    for (name, gl) in engines() {
        assert_eq!(defer_then_pass(gl.clone()), CLIENTS);
        g.bench_function(&format!("defer_then_pass_500_{name}"), |b| {
            b.iter(|| defer_then_pass(gl.clone()))
        });
    }
    g.finish();
}

/// A maintenance sweep over a store whose pending entries have all aged
/// out — the periodic `purge_expired` the world's maintenance timer runs.
fn bench_purge_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("greylist");
    g.throughput(Throughput::Elements(CLIENTS));
    for (name, mut aged) in engines() {
        for i in 0..CLIENTS {
            let (ip, sender, rcpt) = envelope(i);
            let _ = aged.check(SimTime::ZERO, ip, &sender, &rcpt);
        }
        let late = SimTime::ZERO + SimDuration::from_days(3);
        g.bench_function(&format!("purge_500_pending_{name}"), |b| {
            b.iter(|| {
                let mut gl = aged.clone();
                gl.maintain(late)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_decision_path, bench_purge_sweep);
criterion_main!(benches);

//! Benchmarks of greylist durability: snapshot serialization and restore,
//! and write-ahead-log append and replay, at 10k and 100k triplets — the
//! costs a checkpoint tick of a `MailWorld::with_checkpointing` world and a
//! crash–restart recovery pay. Baseline numbers are recorded in
//! `crates/bench/BENCH_persist.json`; re-run with
//! `cargo bench -p spamward-bench --bench persist` after touching
//! `crates/greylist/src/persist.rs`.

#![allow(clippy::unwrap_used, clippy::expect_used)] // not protocol-path code
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use spamward_greylist::{Greylist, GreylistConfig};
use spamward_sim::{SimDuration, SimTime};
use spamward_smtp::{EmailAddress, ReversePath};
use std::net::Ipv4Addr;

const DELAY: SimDuration = SimDuration::from_secs(300);
const SIZES: [u64; 2] = [10_000, 100_000];

fn engine() -> Greylist {
    Greylist::new(GreylistConfig::with_delay(DELAY).without_auto_whitelist())
}

fn envelope(i: u64) -> (Ipv4Addr, ReversePath, EmailAddress) {
    let ip = Ipv4Addr::new(10, (i >> 16) as u8, (i >> 8) as u8, i as u8);
    let sender: EmailAddress = format!("sender{i}@origin.example").parse().unwrap();
    let rcpt: EmailAddress = format!("user{}@victim.example", i % 64).parse().unwrap();
    (ip, ReversePath::Address(sender), rcpt)
}

/// An engine holding `n` matured triplets (two checks each: the defer
/// that creates the entry and the pass that matures it).
fn populated(n: u64, wal: bool) -> Greylist {
    let mut gl = engine();
    if wal {
        gl.enable_wal();
    }
    for i in 0..n {
        let (ip, sender, rcpt) = envelope(i);
        let first = SimTime::ZERO + SimDuration::from_secs(i);
        let _ = gl.check(first, ip, &sender, &rcpt);
        let _ = gl.check(first + DELAY + DELAY, ip, &sender, &rcpt);
    }
    gl
}

fn label(n: u64) -> String {
    format!("{}k", n / 1000)
}

/// Serializing a populated store — the cost of one checkpoint tick.
fn bench_snapshot_serialize(c: &mut Criterion) {
    let mut g = c.benchmark_group("persist");
    g.sample_size(20);
    for n in SIZES {
        let gl = populated(n, false);
        assert_eq!(gl.store().len() as u64, n);
        g.throughput(Throughput::Elements(n));
        g.bench_function(&format!("snapshot_serialize_{}", label(n)), |b| {
            b.iter(|| gl.snapshot().len())
        });
    }
    g.finish();
}

/// Parsing a checkpoint back into a fresh engine — the restart path's
/// first half.
fn bench_snapshot_restore(c: &mut Criterion) {
    let mut g = c.benchmark_group("persist");
    g.sample_size(20);
    for n in SIZES {
        let text = populated(n, false).snapshot();
        g.throughput(Throughput::Elements(n));
        g.bench_function(&format!("snapshot_restore_{}", label(n)), |b| {
            b.iter(|| {
                let mut fresh = engine();
                fresh.restore(&text).unwrap();
                fresh.store().len()
            })
        });
    }
    g.finish();
}

/// The decision path with the WAL on versus off — what enabling
/// durability costs every check (10k triplets, two checks each).
fn bench_wal_append(c: &mut Criterion) {
    let mut g = c.benchmark_group("persist");
    g.sample_size(20);
    let n = SIZES[0];
    g.throughput(Throughput::Elements(n * 2));
    g.bench_function("wal_append_10k", |b| b.iter(|| populated(n, true).wal().unwrap().records()));
    g.bench_function("wal_off_10k", |b| b.iter(|| populated(n, false).store().len()));
    g.finish();
}

/// Replaying a WAL tail over an empty engine — the restart path's second
/// half (each matured triplet logged two touch records).
fn bench_wal_replay(c: &mut Criterion) {
    let mut g = c.benchmark_group("persist");
    g.sample_size(20);
    for n in SIZES {
        let wal_text = populated(n, true).wal().unwrap().text().to_owned();
        g.throughput(Throughput::Elements(n * 2));
        g.bench_function(&format!("wal_replay_{}", label(n)), |b| {
            b.iter(|| {
                let mut fresh = engine();
                let outcome = fresh.replay_wal(&wal_text).unwrap();
                outcome.applied
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_snapshot_serialize,
    bench_snapshot_restore,
    bench_wal_append,
    bench_wal_replay
);
criterion_main!(benches);

//! Benchmarks of the sharded execution path: scan throughput at several
//! executor widths and the streaming population's record synthesis.
//! Baseline numbers are recorded in `crates/bench/BENCH_shard.json`;
//! re-run with `cargo bench -p spamward-bench --bench shard` after
//! touching `crates/sim/src/shard.rs` or the scanner's streaming path.

#![allow(clippy::unwrap_used, clippy::expect_used)] // not protocol-path code
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use spamward_scanner::{scan_block, PopulationSpec, PopulationStream};
use spamward_sim::shard::run_partitioned;
use spamward_sim::ShardPlan;

const DOMAINS: usize = 2_000;
const SEED: u64 = 13;
const EPOCHS: [u64; 2] = [0, 1];
const KS: [u32; 3] = [15, 500, 1000];

/// One full fig2 scan, eight contiguous blocks over the fixed 8-shard
/// partition as the survey cuts it; returns the total scan events
/// executed.
fn sharded_scan(workers: usize) -> u64 {
    let stream = PopulationStream::new(PopulationSpec::fig2(DOMAINS), SEED);
    let plan = ShardPlan::new(SEED, 8);
    let blocks = run_partitioned(stream.blocks(8), workers, |block| {
        scan_block(&stream, &plan, block, &EPOCHS, &KS)
    });
    blocks.iter().flat_map(|b| &b.shards).map(|s| s.events).sum()
}

/// Scan throughput over the eight blocks at 1/2/4 workers — the events/s
/// figure the executor buys, with identical output bytes at every width.
fn bench_sharded_scan(c: &mut Criterion) {
    let events = sharded_scan(1);
    let mut g = c.benchmark_group("shard");
    g.sample_size(10);
    g.throughput(Throughput::Elements(events));
    for workers in [1usize, 2, 4] {
        g.bench_function(&format!("scan_2k_domains_workers{workers}"), |b| {
            b.iter(|| sharded_scan(workers))
        });
    }
    g.finish();
}

/// Population build cost: streaming generation of every domain's compact
/// record, with no world built.
fn bench_population_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("shard");
    g.sample_size(10);
    g.throughput(Throughput::Elements(DOMAINS as u64));
    g.bench_function("population_stream_packed_2k", |b| {
        b.iter(|| {
            let stream = PopulationStream::new(PopulationSpec::fig2(DOMAINS), SEED);
            let mut acc = 0u64;
            for i in 0..DOMAINS as u64 {
                acc += u64::from(stream.packed(i).alexa_rank);
            }
            acc
        })
    });
    g.finish();
}

criterion_group!(benches, bench_sharded_scan, bench_population_build);
criterion_main!(benches);

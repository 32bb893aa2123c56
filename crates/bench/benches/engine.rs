//! Micro-benchmark of the discrete-event engine, `ActorSim`'s wake-up
//! queue — the single execution substrate every world-driven experiment
//! runs on. Baseline numbers are recorded in
//! `crates/bench/BENCH_engine.json`; re-run with
//! `cargo bench -p spamward-bench --bench engine` after touching
//! `crates/sim/src/actor.rs`.

#![allow(clippy::unwrap_used, clippy::expect_used)] // not protocol-path code
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use spamward_sim::{Actor, ActorSim, SimDuration, SimTime, Wake};

struct Countdown {
    remaining: u64,
}

impl Actor<u64> for Countdown {
    fn name(&self) -> &str {
        "bench.countdown"
    }

    fn wake(&mut self, _now: SimTime, state: &mut u64) -> Wake {
        *state += 1;
        if self.remaining == 0 {
            return Wake::Idle;
        }
        self.remaining -= 1;
        Wake::In(SimDuration::from_secs(1))
    }
}

/// Per-wake-up engine overhead: one heap pop and push plus the per-actor
/// accounting, around an actor that does almost nothing.
fn bench_actor_wakeups(c: &mut Criterion) {
    const WAKEUPS: u64 = 10_000;
    let mut g = c.benchmark_group("engine");
    g.sample_size(20);
    g.throughput(Throughput::Elements(WAKEUPS));
    g.bench_function("actor_10k_wakeups", |b| {
        b.iter_batched(
            || {
                let mut sim = ActorSim::new(0u64);
                sim.add_actor(Countdown { remaining: WAKEUPS - 1 }, SimTime::ZERO);
                sim
            },
            |mut sim| {
                sim.run();
                assert_eq!(*sim.state(), WAKEUPS);
                sim
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(engine, bench_actor_wakeups);
criterion_main!(engine);

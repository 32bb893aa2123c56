//! The reference kernel: a fixed piece of work the measuring loop runs
//! between batches, so that throughput can be stated relative to how fast
//! the host ran at that moment.
//!
//! On a shared host the speed of one core drifts by 10-30% over seconds to
//! minutes, as other guests load the same cores, caches and memory, and
//! every wall-clock rate drifts with it. This kernel is the benchmark's own
//! code and never calls the program, so a change to the program leaves it
//! alone: a faster program does more work per kernel run, a faster moment
//! of the host speeds up both. It does the kinds of work the program does —
//! register arithmetic, and a small event loop that pops timed events from
//! a heap and files them under formatted string keys in a hash map — and
//! holds under 1 MB, so it neither crowds the program's caches for long nor
//! moves `peak_rss_mb`.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;

/// xorshift-multiply steps of the arithmetic phase.
const STEPS: usize = 200_000;
/// Events pending in the event-loop phase.
const PENDING: u64 = 2_000;
/// Events the event-loop phase pops.
const POPS: usize = 3_000;

/// A hash map with a fixed hasher, so every run hashes the same way.
type FixedMap = HashMap<String, Vec<u32>, BuildHasherDefault<DefaultHasher>>;

/// Runs the kernel once: about 1.5 ms on a 2.1 GHz Xeon core. Every run
/// does the same work.
pub fn run() {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64);
    let mut acc = 0u64;
    for _ in 0..STEPS {
        x = xorshift(x);
        acc = acc.wrapping_mul(31).wrapping_add(x.rotate_left(7));
    }
    black_box(acc);

    let mut pending: BinaryHeap<Reverse<(u64, u64)>> = (0..PENDING)
        .map(|i| {
            x = xorshift(x);
            Reverse((x % 100_000, i))
        })
        .collect();
    let mut state = FixedMap::default();
    for _ in 0..POPS {
        let Some(Reverse((at, id))) = pending.pop() else { break };
        let key = format!("client{}@sender{}.example", id % 700, at % 97);
        state.entry(key).or_default().push(at as u32);
        x = xorshift(x);
        pending.push(Reverse((at + x % 1_000, id)));
    }
    black_box(&state);
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^ (x << 17)
}

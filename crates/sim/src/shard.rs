//! Deterministic sharding of one seeded world across worker threads.
//!
//! A [`ShardPlan`] splits a seed's population into a *fixed* number of
//! shards by a stable hash of each entity's name. The shard count is part
//! of the experiment's definition (like its seed), **not** a runtime
//! tuning knob: every shard is computed identically no matter how many
//! worker threads execute the plan, and results merge in shard order. The
//! `--shards N` flag on the `repro` CLI therefore only picks the worker
//! pool width — serial (`--shards 1`) and parallel (`--shards 4`) runs of
//! the same experiment produce byte-identical reports and metrics.
//!
//! Determinism argument, in three parts:
//!
//! 1. *Partition* — [`ShardPlan::shard_of`] is a pure function of the
//!    entity name and the plan width, so every entity lands in exactly one
//!    shard and the assignment never depends on thread scheduling.
//! 2. *Run* — each shard simulates an independent world whose draws fork
//!    from the plan seed per entity, never per worker; no state is shared
//!    across shards while they run.
//! 3. *Merge* — [`run_sharded`] returns shard outputs indexed by shard id,
//!    so the caller folds them in the one canonical order regardless of
//!    which worker finished first.
//!
//! [`run_partitioned`] is the underlying executor: a generic "run `f` over
//! every item on a bounded pool of scoped std threads, return outputs in
//! input order" primitive that also serves the variance seed sweep and
//! `repro all --jobs` (parallel seeds and registry entries are just shards
//! of a sweep), the `policy_backend` grid and the fig2 scan's contiguous
//! blocks, whose per-shard sums do not depend on the block split.

use std::panic;
use std::sync::{Mutex, PoisonError};
use std::thread;

/// Stable 64-bit FNV-1a over a name — the partition hash.
///
/// Exposed so tests (and DESIGN.md readers) can check the assignment of a
/// concrete name; everything else should go through
/// [`ShardPlan::shard_of`].
#[must_use]
pub fn stable_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// A fixed partition of one seeded world into independent shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    seed: u64,
    shards: u32,
}

impl ShardPlan {
    /// Builds a plan for `shards` shards of the world seeded by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    #[must_use]
    pub fn new(seed: u64, shards: u32) -> Self {
        assert!(shards > 0, "a shard plan needs at least one shard");
        ShardPlan { seed, shards }
    }

    /// The world seed the plan partitions.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The fixed shard count.
    #[must_use]
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The shard that owns `name`: `stable_hash(name) % shards`.
    #[must_use]
    pub fn shard_of(&self, name: &str) -> u32 {
        // The modulo of a 64-bit hash by a u32 always fits in u32.
        #[allow(clippy::cast_possible_truncation)]
        let shard = (stable_hash(name) % u64::from(self.shards)) as u32;
        shard
    }

    /// Whether `shard` owns `name` under this plan.
    #[must_use]
    pub fn owns(&self, shard: u32, name: &str) -> bool {
        self.shard_of(name) == shard
    }
}

/// Runs `f` over every item on a pool of `workers` threads and returns
/// the outputs **in input order**, independent of scheduling.
///
/// Workers pull index-tagged items from one shared queue and outputs are
/// slotted back by that index, so the result is byte-for-byte the same as
/// a serial `items.map(f)` no matter how the workers interleave. `f` must
/// be pure per item for that equivalence to mean anything — which is
/// exactly the contract shard and seed runs satisfy.
///
/// # Panics
///
/// Panics if `workers == 0` or a worker panics (with that worker's
/// payload).
pub fn run_partitioned<I, T, F>(items: Vec<I>, workers: usize, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    assert!(workers > 0, "need at least one worker");
    let n = items.len();
    let jobs = Mutex::new(items.into_iter().enumerate());
    let worker = || {
        let mut done = Vec::new();
        loop {
            // The guard drops at the end of this statement, so `f` runs
            // with the queue unlocked. Taking one item never leaves the
            // queue half-updated, so even a poisoned guard is sound.
            let job = jobs.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((idx, item)) = job else { return done };
            done.push((idx, f(item)));
        }
    };

    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(n.max(1))).map(|_| scope.spawn(worker)).collect();
        for handle in handles {
            let done = handle.join().unwrap_or_else(|payload| panic::resume_unwind(payload));
            for (idx, output) in done {
                slots[idx] = Some(output);
            }
        }
    });
    slots.into_iter().map(|s| s.expect("every job reports exactly once")).collect()
}

/// Runs `f(shard)` for every shard of `plan` across `workers` threads and
/// returns the outputs indexed by shard id — the canonical merge order.
///
/// # Panics
///
/// Panics if `workers == 0` or a shard worker panics.
pub fn run_sharded<T, F>(plan: &ShardPlan, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u32) -> T + Sync,
{
    let shards: Vec<u32> = (0..plan.shards()).collect();
    run_partitioned(shards, workers, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn every_name_lands_in_exactly_one_shard() {
        let plan = ShardPlan::new(42, 8);
        for i in 0..1000 {
            let name = format!("d{i}.example");
            let owner = plan.shard_of(&name);
            assert!(owner < plan.shards());
            let owners: u32 = (0..plan.shards()).map(|s| u32::from(plan.owns(s, &name))).sum();
            assert_eq!(owners, 1, "{name} must have exactly one owner");
        }
    }

    #[test]
    fn assignment_is_stable_across_plan_instances_and_seeds() {
        // The partition depends only on (name, shard count): re-building
        // the plan — even under a different seed — never moves an entity.
        let a = ShardPlan::new(1, 8);
        let b = ShardPlan::new(999, 8);
        for i in 0..200 {
            let name = format!("host{i}.net");
            assert_eq!(a.shard_of(&name), b.shard_of(&name));
        }
    }

    #[test]
    fn partitioned_outputs_come_back_in_input_order() {
        let items: Vec<u64> = (0..100).rev().collect();
        let serial: Vec<u64> = items.iter().map(|x| x * 3).collect();
        let parallel = run_partitioned(items, 8, |x| x * 3);
        assert_eq!(parallel, serial);
    }

    #[test]
    fn sharded_runs_cover_every_shard_once() {
        let plan = ShardPlan::new(3, 6);
        let out = run_sharded(&plan, 3, |s| s);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u64> = run_partitioned(Vec::<u64>::new(), 4, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = run_partitioned(vec![1u64], 0, |x| x);
    }

    // No `expected` message: which payload reaches the caller is the
    // executor's choice.
    #[test]
    #[should_panic]
    fn a_panicking_worker_propagates() {
        let _ = run_partitioned((0..8u64).collect(), 2, |x| {
            assert!(x != 5, "item 5 fails");
            x
        });
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ShardPlan::new(1, 0);
    }

    proptest! {
        #[test]
        fn prop_partition_is_total_and_stable(
            names in proptest::collection::vec("[a-z0-9.]{1,24}", 1..64),
            shards in 1u32..32,
        ) {
            let plan = ShardPlan::new(0, shards);
            for name in &names {
                let owner = plan.shard_of(name);
                prop_assert!(owner < shards);
                // Stable under re-evaluation and exclusive ownership.
                prop_assert_eq!(owner, plan.shard_of(name));
                let owners: u32 =
                    (0..shards).map(|s| u32::from(plan.owns(s, name))).sum();
                prop_assert_eq!(owners, 1);
            }
        }

        #[test]
        fn prop_run_partitioned_matches_serial_map(
            items in proptest::collection::vec(0u64..1_000_000, 0..64),
            workers in 1usize..9,
        ) {
            let serial: Vec<u64> = items.iter().map(|x| x.wrapping_mul(31)).collect();
            let parallel = run_partitioned(items, workers, |x| x.wrapping_mul(31));
            prop_assert_eq!(parallel, serial);
        }
    }
}
